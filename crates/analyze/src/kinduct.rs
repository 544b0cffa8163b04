//! Symbolic k-induction over the bit-blasted IR.
//!
//! The explicit checker ([`crate::induct`]) proves each lemma cluster
//! inductive by enumerating every typed abstract state — `41 472·(cap+1)⁴`
//! of them, which is fine at the default cap 2 (3.36M) and hopeless at
//! cap 8 (272M). This module proves the *same* obligations by SAT queries
//! over the encoding of [`crate::cnf`], so the cost scales with formula
//! size (a few thousand variables) instead of domain size:
//!
//! * **Step case**, first: `P(s_0) ∧ … ∧ P(s_{k−1}) ∧ T^k ∧ distinct(s_i)
//!   ∧ ¬P(s_k)`. UNSAT ⇒ the cluster is k-inductive, hence an invariant at
//!   any depth (the simple-path constraint keeps `k > 1` from being
//!   defeated by the abstraction's stay-at-cap self-loops). The default
//!   `max_k = 1` makes the verdict *definitionally* the same "is this
//!   conjunction 1-inductive" question the enumerator answers, which is
//!   what the cap-2 byte-for-byte agreement gate checks. All obligations
//!   share **one unrolling** on one incremental solver (Eén & Sörensson,
//!   *Temporal induction by incremental SAT solving*): level `k` adds frame
//!   `k`, one transition and the distinctness clauses, then poses each
//!   still-open obligation as one solve whose hypotheses `P(s_0) …
//!   P(s_{k−1})` and goal `¬P(s_k)` are *assumption literals*, never hard
//!   clauses. A frame's conjunction bits for the other obligations are
//!   definitional Tseitin outputs, so they constrain nothing, and every
//!   clause learned on the shared transition relation serves every later
//!   query. The Theorem-1 closure query (`in_closure(s_0) ∧ (escaped ∨
//!   regressed)`) is posed on level 1's two frames the same way.
//! * **Base case** (bounded model check), second: unroll `Init ∧ T^d ∧
//!   ¬P(s_d)` on an Init-pinned solver of its own, querying obligation `i`
//!   only at depths `d < proved_k(i)` (`max_k` when unproved). That bound
//!   loses nothing: the shortest path from Init to a violation repeats no
//!   state, and every state on it before the last satisfies `P`, so if it
//!   had `n ≥ proved_k` steps its last `proved_k + 1` states would satisfy
//!   the step query just shown UNSAT. The shallowest violation, if any,
//!   therefore lies below `proved_k` and is found there.
//! * **CTI enumeration**: when step(1) is SAT the engine enumerates
//!   counterexamples-to-induction *stratified by the enumerator's
//!   simplicity key* — assumption literals pin the [`wire_sum`] /
//!   [`busy_count`] / [`deviation_count`] adder circuits to each `(w, b,
//!   d)` stratum in lexicographic order, and all models of a stratum are
//!   drained via pre+selector+post blocking clauses before moving on.
//!   Strata are visited smallest-first, so once `keep_ctis` CTIs have been
//!   collected and the current stratum is drained, the retained set equals
//!   the explicit enumerator's `insert_capped` result exactly — same
//!   triples, same order. The drain runs in a short-lived k = 1 solver of
//!   its own (two frames, one step, the key circuits), dropped when done:
//!   a mutated configuration at a large cap blocks thousands of triples,
//!   and keeping those clauses in the shared solver would carry them, and
//!   their memory, through every deeper level.
//!
//! Real/spurious classification of the retained CTIs reuses the explicit
//! checker's [`classify_cti`](crate::induct::classify_cti) replay machinery
//! (via the deduplicating [`CtiClassifier`]), so a "REAL (confirmed)"
//! verdict means the same thing under both engines: the pre-state is
//! concretely reachable and the seeded explorer reproduces a genuine
//! violation from it.

use crate::cnf::{
    busy_count, deviation_count, encode_step, pin_bv, wire_sum, Bit, Bv, CnfBuilder, SymState,
    SymStep,
};
use crate::induct::{clause_mask, insert_capped, Cti, CtiClassifier, InductOptions, LEMMA_SPECS};
use crate::ir::{AbsState, Ir, IrConfig};
use crate::protocol;
use crate::sat::{Lit, SatStats, SolveOutcome};

/// Knobs of one symbolic run. The classification sub-options are shared
/// with the explicit engine so both classify identically.
#[derive(Clone, Copy, Debug)]
pub struct KinductOptions {
    /// Induction depth to attempt (1 = plain inductiveness, the setting
    /// under which verdicts are comparable with the explicit enumerator).
    pub max_k: u32,
    /// Max CTIs retained per obligation (simplest first); `0` skips CTI
    /// enumeration entirely and reports verdicts only.
    pub keep_ctis: usize,
    /// Hard ceiling on enumerated CTI models per obligation (a safety
    /// valve for mutated configurations at large caps, where a stratum can
    /// hold thousands of counterexamples). When the ceiling trips, the
    /// retained set is still correct for the strata fully drained.
    pub enum_limit: u64,
    /// Replay classification knobs, shared with [`InductOptions`].
    pub classify: InductOptions,
}

impl Default for KinductOptions {
    fn default() -> Self {
        KinductOptions {
            max_k: 1,
            keep_ctis: InductOptions::default().keep_ctis,
            enum_limit: 50_000,
            classify: InductOptions::default(),
        }
    }
}

/// Verdict of the symbolic engine for one proof obligation.
#[derive(Clone, Debug)]
pub struct SymbolicLemmaVerdict {
    /// The obligation's name.
    pub lemma: &'static str,
    /// Clause names in the conjunction.
    pub clauses: Vec<&'static str>,
    /// Initiation/base: no violation within `proved_k − 1` steps of the
    /// initial state (`max_k − 1` when unproved), the same answer as
    /// checking every depth below `max_k` (for `max_k = 1` this is exactly
    /// "the initial state satisfies the conjunction").
    pub base_ok: bool,
    /// Depth of the shallowest base-case violation found, if any.
    pub cex_depth: Option<u32>,
    /// The `k ≤ max_k` at which the step case went UNSAT, if any.
    pub proved_k: Option<u32>,
    /// Retained CTIs of the failed 1-step case (simplest first, identical
    /// to the explicit enumerator's retained set when `enum_complete`).
    pub ctis: Vec<Cti>,
    /// Distinct CTI triples enumerated before stopping.
    pub ctis_enumerated: u64,
    /// Whether enumeration drained every stratum it needed to make the
    /// retained set exact (`false` only when `enum_limit` tripped).
    pub enum_complete: bool,
}

impl SymbolicLemmaVerdict {
    /// Proved at some depth with a clean base.
    pub fn proved(&self) -> bool {
        self.base_ok && self.proved_k.is_some()
    }
}

/// The outcome of [`run_kinduction`] on one configuration.
#[derive(Clone, Debug)]
pub struct KinductRun {
    /// The configuration analyzed.
    pub cfg: IrConfig,
    /// The induction depth attempted ([`KinductOptions::max_k`], at least
    /// 1). The base case reaches depth `max_k − 1` for every obligation the
    /// step case leaves unproved.
    pub max_k: u32,
    /// One verdict per entry of [`LEMMA_SPECS`], same order.
    pub lemmas: Vec<SymbolicLemmaVerdict>,
    /// Whether the Theorem-1 closure step obligation is UNSAT (closed and
    /// suspicion-monotone).
    pub closure_ok: bool,
    /// A decoded closure violation `(pre, action-name, post)`, if any.
    pub closure_cex: Option<(AbsState, &'static str, AbsState)>,
    /// Cumulative solver statistics across every query of the run.
    pub stats: SatStats,
    /// Solver variables allocated (all obligations pooled).
    pub vars: u64,
    /// Solver clauses added (original + learned, all obligations pooled).
    pub clauses: u64,
}

impl KinductRun {
    /// Whether every obligation proved and the closure holds.
    pub fn all_proved(&self) -> bool {
        self.lemmas.iter().all(SymbolicLemmaVerdict::proved) && self.closure_ok
    }
}

/// One unrolled frame: a symbolic state plus its per-spec conjunction bits.
struct Frame {
    state: SymState,
    /// `P_spec(state)` for each entry of [`LEMMA_SPECS`].
    props: Vec<Bit>,
}

fn build_frame(b: &mut CnfBuilder, cap: u8) -> Frame {
    let state = SymState::fresh(b, cap);
    let props = LEMMA_SPECS
        .iter()
        .map(|spec| {
            let bits: Vec<Bit> =
                spec.clauses.iter().map(|&c| protocol::clause(b, &state, c)).collect();
            b.and_many(&bits)
        })
        .collect();
    Frame { state, props }
}

/// Asserts the last frame differs from every earlier frame (the
/// simple-path side condition that makes `k > 1` meaningful under the
/// abstraction's stay-at-cap self-loops). Called once per new frame, so
/// across the unrolling every pair ends up pairwise distinct.
fn assert_distinct_from_last(b: &mut CnfBuilder, frames: &[Frame]) {
    let last = frames.len() - 1;
    let lj = frames[last].state.literals();
    for frame in &frames[..last] {
        let li = frame.state.literals();
        debug_assert_eq!(li.len(), lj.len());
        let mut diff = crate::cnf::FALSE;
        for (&a, &c) in li.iter().zip(&lj) {
            let x = b.xor(Bit::Is(a), Bit::Is(c));
            diff = b.or(diff, x);
        }
        b.assert_true(diff);
    }
}

/// Runs the symbolic engine for every obligation in [`LEMMA_SPECS`] plus
/// the Theorem-1 closure step, on `Ir::new(cfg)`.
pub fn run_kinduction(cfg: &IrConfig, opts: &KinductOptions) -> KinductRun {
    let ir = Ir::new(*cfg);
    let max_k = opts.max_k.max(1);
    let mut tally = Tally::default();
    let mut verdicts: Vec<SymbolicLemmaVerdict> = LEMMA_SPECS
        .iter()
        .map(|spec| SymbolicLemmaVerdict {
            lemma: spec.name,
            clauses: spec.clauses.iter().map(|c| c.name()).collect(),
            base_ok: true,
            cex_depth: None,
            proved_k: None,
            ctis: Vec::new(),
            ctis_enumerated: 0,
            enum_complete: true,
        })
        .collect();

    // ---- step case: one unrolling, every obligation under assumptions ---
    let mut closure = (true, None);
    {
        let mut b = CnfBuilder::new();
        let mut frames = vec![build_frame(&mut b, cfg.wire_cap)];
        for k in 1..=max_k as usize {
            let next = build_frame(&mut b, cfg.wire_cap);
            let step = encode_step(&mut b, &ir, &frames[k - 1].state, &next.state);
            frames.push(next);
            // Distinctness is vacuous at k = 1 (P(s₀) ∧ ¬P(s₁) already
            // separates the states) but asserting it uniformly keeps every
            // pair covered as the unrolling deepens.
            assert_distinct_from_last(&mut b, &frames);
            for (i, verdict) in verdicts.iter_mut().enumerate() {
                if verdict.proved_k.is_some() {
                    continue;
                }
                let mut query: Vec<Bit> = frames[..k].iter().map(|f| f.props[i]).collect();
                query.push(b.not(frames[k].props[i]));
                if solve_under(&mut b, &query) == SolveOutcome::Unsat {
                    verdict.proved_k = Some(k as u32);
                } else if k == 1 && opts.keep_ctis > 0 {
                    tally.add(&drain_ctis(&ir, i, opts, verdict));
                }
            }
            if k == 1 {
                closure = closure_step(&mut b, &ir, &frames[0].state, &frames[1].state, &step);
            }
            if verdicts.iter().all(|v| v.proved_k.is_some()) {
                break;
            }
        }
        tally.add(&b);
    }

    // ---- base case: Init-pinned BMC, each obligation to its proof depth -
    // (an obligation leaves at its first failure: the verdict reports the
    // shallowest depth only).
    {
        let mut b = CnfBuilder::new();
        let mut frame = build_frame(&mut b, cfg.wire_cap);
        let mut init = Vec::new();
        frame.state.assumptions_for(&AbsState::initial(), &mut init);
        for l in init {
            b.solver.add_clause(&[l]);
        }
        for d in 0.. {
            let open: Vec<usize> = (0..verdicts.len())
                .filter(|&i| verdicts[i].base_ok && d < verdicts[i].proved_k.unwrap_or(max_k))
                .collect();
            if open.is_empty() {
                break;
            }
            if d > 0 {
                let next = build_frame(&mut b, cfg.wire_cap);
                encode_step(&mut b, &ir, &frame.state, &next.state);
                frame = next;
            }
            for i in open {
                let viol = b.not(frame.props[i]);
                if solve_under(&mut b, &[viol]) == SolveOutcome::Sat {
                    verdicts[i].base_ok = false;
                    verdicts[i].cex_depth = Some(d);
                }
            }
        }
        tally.add(&b);
    }

    if opts.classify.classify > 0 {
        let mut classifier = CtiClassifier::default();
        for verdict in &mut verdicts {
            for cti in verdict.ctis.iter_mut().take(opts.classify.classify) {
                cti.class = Some(classifier.classify(cfg, cti, &opts.classify));
            }
        }
    }

    let (closure_ok, closure_cex) = closure;
    KinductRun {
        cfg: *cfg,
        max_k,
        lemmas: verdicts,
        closure_ok,
        closure_cex,
        stats: tally.stats,
        vars: tally.vars,
        clauses: tally.clauses,
    }
}

/// Solves under `assumptions`, each a circuit output. A constant-false one
/// makes the query UNSAT without a solve; a constant-true one is dropped.
fn solve_under(b: &mut CnfBuilder, assumptions: &[Bit]) -> SolveOutcome {
    let mut lits = Vec::with_capacity(assumptions.len());
    for &a in assumptions {
        match a {
            Bit::Const(false) => return SolveOutcome::Unsat,
            Bit::Const(true) => {}
            Bit::Is(l) => lits.push(l),
        }
    }
    b.solver.solve(&lits)
}

/// The Theorem-1 closure query on the first step of the shared unrolling:
/// `in_closure(pre) ∧ (escaped ∨ regressed)`, both as assumptions. Either
/// fault makes `pre ≠ post`, so the unrolling's distinctness constraint
/// excludes no violation.
fn closure_step(
    b: &mut CnfBuilder,
    ir: &Ir,
    pre: &SymState,
    post: &SymState,
    step: &SymStep,
) -> (bool, Option<(AbsState, &'static str, AbsState)>) {
    let pre_in = protocol::in_closure(b, pre);
    let [escaped, regressed] = protocol::closure_step_faults(b, pre, post);
    let bad = b.or(escaped, regressed);
    if solve_under(b, &[pre_in, bad]) == SolveOutcome::Unsat {
        return (true, None);
    }
    let id = step.selected(&b.solver);
    (false, Some((pre.decode(&b.solver), ir.name_of(id), post.decode(&b.solver))))
}

/// Drains the SAT models of obligation `k_spec`'s failed 1-step case in a
/// solver of its own, stratified by the enumerator's simplicity key so the
/// retained set is byte-identical to the explicit engine's. Returns the
/// solver so its work is counted before it is dropped.
fn drain_ctis(
    ir: &Ir,
    k_spec: usize,
    opts: &KinductOptions,
    verdict: &mut SymbolicLemmaVerdict,
) -> CnfBuilder {
    let spec = &LEMMA_SPECS[k_spec];
    let mut b = CnfBuilder::new();
    let frames = [build_frame(&mut b, ir.cfg.wire_cap), build_frame(&mut b, ir.cfg.wire_cap)];
    let step = encode_step(&mut b, ir, &frames[0].state, &frames[1].state);
    b.assert_true(frames[0].props[k_spec]);
    assert_distinct_from_last(&mut b, &frames);
    let neg_goal = b.not(frames[1].props[k_spec]);
    let neg_goal_lit = match neg_goal {
        Bit::Const(false) => return b, // step already UNSAT
        Bit::Const(true) => None,
        Bit::Is(l) => Some(l),
    };
    // One unpinned solve before the strata: the phases it saves are where
    // every later search starts, so it fixes the order models are drained
    // in, and with it the retained set when `enum_limit` trips mid-stratum.
    if let Some(l) = neg_goal_lit {
        b.solver.solve(&[l]);
    }
    let [pre, post] = frames.map(|f| f.state);
    // The simplicity-key circuits over the *pre* state.
    let wire: Bv = wire_sum(&mut b, &pre);
    let busy: Bv = busy_count(&mut b, &pre);
    let dev: Bv = deviation_count(&mut b, &pre);
    let cap = u64::from(ir.cfg.wire_cap);
    let mut collected: Vec<Cti> = Vec::new();
    'strata: for w in 0..=4 * cap {
        for bz in 0..=4u64 {
            for d in 0..=9u64 {
                let mut assumptions: Vec<Lit> = Vec::from_iter(neg_goal_lit);
                if !pin_bv(&wire, w, &mut assumptions)
                    || !pin_bv(&busy, bz, &mut assumptions)
                    || !pin_bv(&dev, d, &mut assumptions)
                {
                    continue; // structurally empty stratum
                }
                while b.solver.solve(&assumptions) == SolveOutcome::Sat {
                    let pre_s = pre.decode(&b.solver);
                    let post_s = post.decode(&b.solver);
                    let id = step.selected(&b.solver);
                    let m_post = clause_mask(&post_s);
                    let broken: Vec<&'static str> = spec
                        .clauses
                        .iter()
                        .filter(|c| m_post & c.bit() == 0)
                        .map(|c| c.name())
                        .collect();
                    let cti = Cti {
                        lemma: spec.name,
                        pre: pre_s,
                        action: id,
                        action_name: ir.name_of(id),
                        post: post_s,
                        broken,
                        class: None,
                    };
                    insert_capped(&mut collected, cti, opts.keep_ctis);
                    verdict.ctis_enumerated += 1;
                    if verdict.ctis_enumerated >= opts.enum_limit {
                        verdict.enum_complete = false;
                        break 'strata;
                    }
                    // Block this (pre, selector, post) triple permanently.
                    let mut block: Vec<Lit> = Vec::new();
                    for l in pre.literals().into_iter().chain(post.literals()) {
                        block.push(if b.solver.lit_value(l) { l.negate() } else { l });
                    }
                    for a in &step.actions {
                        if b.solver.lit_value(a.select) {
                            block.push(a.select.negate());
                        }
                    }
                    b.solver.add_clause(&block);
                }
            }
            // A (w, b) block is fully drained: if we already have enough
            // CTIs, every remaining stratum has a strictly larger key, so
            // the retained set can no longer change.
            if collected.len() >= opts.keep_ctis {
                break 'strata;
            }
        }
    }
    verdict.ctis = collected;
    b
}

/// Solver work pooled across every solver of one run.
#[derive(Default)]
struct Tally {
    stats: SatStats,
    vars: u64,
    clauses: u64,
}

impl Tally {
    fn add(&mut self, b: &CnfBuilder) {
        let (a, s) = (&mut self.stats, &b.solver.stats);
        a.solves += s.solves;
        a.decisions += s.decisions;
        a.propagations += s.propagations;
        a.conflicts += s.conflicts;
        a.learned += s.learned;
        a.restarts += s.restarts;
        self.vars += b.solver.num_vars() as u64;
        self.clauses += b.solver.num_clauses() as u64;
    }
}

/// Compares a symbolic run against an explicit run of the same
/// configuration and options. Returns `Err` with a human-readable
/// difference report on the first disagreement. Comparable only when the
/// symbolic run used `max_k = 1` (an `Err` otherwise) and both used the
/// same `keep_ctis` / `classify` settings.
pub fn agrees_with_explicit(
    sym: &KinductRun,
    exp: &crate::induct::InductionRun,
) -> Result<(), String> {
    if sym.max_k != 1 {
        return Err(format!(
            "symbolic run used max_k = {}: its base case reaches depth {}, the \
             enumerator's checks depth 0 only (comparable at max_k = 1)",
            sym.max_k,
            sym.max_k - 1
        ));
    }
    if sym.cfg != exp.cfg {
        return Err(format!("config mismatch: {:?} vs {:?}", sym.cfg, exp.cfg));
    }
    for (sv, ev) in sym.lemmas.iter().zip(&exp.lemmas) {
        if sv.lemma != ev.lemma {
            return Err(format!("lemma order mismatch: {} vs {}", sv.lemma, ev.lemma));
        }
        let sym_inductive = sv.proved() && sv.proved_k == Some(1);
        if sym_inductive != ev.inductive() {
            return Err(format!(
                "{}: symbolic proved={sym_inductive} but explicit inductive={}",
                sv.lemma,
                ev.inductive()
            ));
        }
        if sv.base_ok != ev.initial_ok {
            return Err(format!(
                "{}: symbolic base_ok={} but explicit initial_ok={}",
                sv.lemma, sv.base_ok, ev.initial_ok
            ));
        }
        if sv.enum_complete {
            if sv.ctis.len() != ev.ctis.len() {
                return Err(format!(
                    "{}: retained {} CTIs symbolically, {} explicitly",
                    sv.lemma,
                    sv.ctis.len(),
                    ev.ctis.len()
                ));
            }
            for (i, (sc, ec)) in sv.ctis.iter().zip(&ev.ctis).enumerate() {
                if sc.pre != ec.pre || sc.action != ec.action || sc.post != ec.post {
                    return Err(format!(
                        "{} CTI #{i}: symbolic ({:?}, {:?}, {:?}) vs explicit ({:?}, {:?}, {:?})",
                        sv.lemma, sc.pre, sc.action, sc.post, ec.pre, ec.action, ec.post
                    ));
                }
                if sc.broken != ec.broken {
                    return Err(format!(
                        "{} CTI #{i}: broken sets differ: {:?} vs {:?}",
                        sv.lemma, sc.broken, ec.broken
                    ));
                }
                if sc.class != ec.class {
                    return Err(format!(
                        "{} CTI #{i}: classifications differ: {:?} vs {:?}",
                        sv.lemma, sc.class, ec.class
                    ));
                }
            }
        }
    }
    if sym.closure_ok != exp.closure.ok() {
        return Err(format!(
            "closure: symbolic ok={} but explicit ok={}",
            sym.closure_ok,
            exp.closure.ok()
        ));
    }
    Ok(())
}

/// Renders `run` as a deterministic human-readable summary, the symbolic
/// counterpart of [`crate::induct::render_summary`].
pub fn render_kinduct_summary(run: &KinductRun) -> String {
    use crate::induct::CtiClass;
    let mut out = String::new();
    out.push_str(&format!(
        "k-induction at wire cap {} ({})\n",
        run.cfg.wire_cap,
        crate::ir::spell_config(&run.cfg)
    ));
    for v in &run.lemmas {
        let status = if let Some(k) = v.proved_k.filter(|_| v.proved()) {
            format!("PROVED k={k}")
        } else if !v.base_ok {
            format!("BASE FAILS at depth {}", v.cex_depth.unwrap_or(0))
        } else {
            "FAILS    ".to_string()
        };
        out.push_str(&format!(
            "  {:<10} {status}  ctis={}{}\n",
            v.lemma,
            v.ctis_enumerated,
            if v.enum_complete { "" } else { " (enumeration capped)" },
        ));
        for cti in &v.ctis {
            let class = match &cti.class {
                Some(CtiClass::Real { path_len, confirmed }) => {
                    format!("REAL (path len {path_len}, confirmed={confirmed})")
                }
                Some(CtiClass::Spurious) => "SPURIOUS (unreachable)".to_string(),
                None => "unclassified".to_string(),
            };
            out.push_str(&format!(
                "    CTI [{}]: {} breaks {:?}\n      pre  {:?}\n      post {:?}\n",
                class, cti.action_name, cti.broken, cti.pre, cti.post
            ));
        }
    }
    out.push_str(&format!("  closure    {}\n", if run.closure_ok { "PROVED" } else { "FAILS" },));
    if let Some((pre, action, post)) = &run.closure_cex {
        out.push_str(&format!(
            "    violation: {action}\n      pre  {pre:?}\n      post {post:?}\n"
        ));
    }
    out.push_str(&format!(
        "  solver: {} vars, {} clauses, {} solves, {} decisions, {} conflicts, {} learned\n",
        run.vars,
        run.clauses,
        run.stats.solves,
        run.stats.decisions,
        run.stats.conflicts,
        run.stats.learned,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_cap2_proves_everything_at_k1() {
        let cfg = IrConfig::faithful();
        let run = run_kinduction(&cfg, &KinductOptions::default());
        assert!(run.all_proved(), "{}", render_kinduct_summary(&run));
        for v in &run.lemmas {
            assert_eq!(v.proved_k, Some(1), "{} needed k > 1", v.lemma);
        }
    }

    #[test]
    fn summary_spells_the_config_field_by_field() {
        use dinefd_core::machines::SubjectMutation;
        use dinefd_explore::ModelMutation;
        let opts = KinductOptions {
            classify: InductOptions { classify: 0, ..InductOptions::default() },
            ..KinductOptions::default()
        };
        let head = |cfg: IrConfig| {
            let summary = render_kinduct_summary(&run_kinduction(&cfg, &opts));
            summary.lines().next().unwrap_or_default().to_string()
        };
        assert_eq!(
            head(IrConfig::faithful()),
            "k-induction at wire cap 2 (IrConfig { strict_seq: false, allow_crash: true, \
             subject_mutation: None, model_mutation: None, wire_cap: 2 })"
        );
        let mutant = IrConfig {
            strict_seq: true,
            subject_mutation: SubjectMutation::IgnoreTriggerGuard,
            model_mutation: ModelMutation::StaleAckReplay,
            wire_cap: 8,
            ..IrConfig::faithful()
        };
        assert_eq!(
            head(mutant),
            "k-induction at wire cap 8 (IrConfig { strict_seq: true, allow_crash: true, \
             subject_mutation: IgnoreTriggerGuard, model_mutation: StaleAckReplay, wire_cap: 8 })"
        );
    }

    #[test]
    fn faithful_scales_to_cap_8() {
        let cfg = IrConfig { wire_cap: 8, ..IrConfig::faithful() };
        let run = run_kinduction(&cfg, &KinductOptions::default());
        assert!(run.all_proved(), "{}", render_kinduct_summary(&run));
    }

    #[test]
    fn skip_trigger_update_stays_inductive_symbolically() {
        use dinefd_core::machines::SubjectMutation;
        let cfg = IrConfig {
            subject_mutation: SubjectMutation::SkipTriggerUpdate,
            ..IrConfig::faithful()
        };
        let run = run_kinduction(&cfg, &KinductOptions::default());
        assert!(run.all_proved(), "{}", render_kinduct_summary(&run));
    }

    #[test]
    fn ignore_trigger_guard_fails_with_ctis() {
        use dinefd_core::machines::SubjectMutation;
        let cfg = IrConfig {
            subject_mutation: SubjectMutation::IgnoreTriggerGuard,
            ..IrConfig::faithful()
        };
        let opts = KinductOptions {
            classify: InductOptions { classify: 0, ..InductOptions::default() },
            ..KinductOptions::default()
        };
        let run = run_kinduction(&cfg, &opts);
        assert!(!run.all_proved());
        let l4 = &run.lemmas[2];
        assert_eq!(l4.lemma, "lemma4");
        assert!(l4.proved_k.is_none());
        assert!(!l4.ctis.is_empty());
        assert!(l4.enum_complete);
    }

    /// Cap 8 at the deepest `max_k`, unclassified (the bound and the base
    /// results do not depend on classification).
    fn deep_opts() -> KinductOptions {
        KinductOptions {
            max_k: 8,
            keep_ctis: 4,
            classify: InductOptions { classify: 0, ..InductOptions::default() },
            ..KinductOptions::default()
        }
    }

    #[test]
    fn obligations_proved_at_k1_stop_the_base_case_at_depth_0() {
        let cfg = IrConfig { wire_cap: 8, ..IrConfig::faithful() };
        let run = run_kinduction(&cfg, &deep_opts());
        assert!(run.all_proved(), "{}", render_kinduct_summary(&run));
        for v in &run.lemmas {
            assert_eq!(v.proved_k, Some(1), "{} needed k > 1", v.lemma);
            assert!(v.base_ok, "{}", v.lemma);
        }
        // Five level-1 step queries, the closure query, and five base
        // queries at depth 0 — none at depths 1..7, which k-induction
        // already rules out.
        assert_eq!(run.stats.solves, 11, "{}", render_kinduct_summary(&run));
    }

    #[test]
    fn unproved_obligations_keep_the_full_depth_base_case() {
        use dinefd_core::machines::SubjectMutation;
        use dinefd_explore::ModelMutation;
        let faithful = IrConfig { wire_cap: 8, ..IrConfig::faithful() };
        for (cfg, depth) in [
            (IrConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..faithful }, 3),
            (IrConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..faithful }, 1),
            (IrConfig { model_mutation: ModelMutation::StaleAckReplay, ..faithful }, 5),
        ] {
            let run = run_kinduction(&cfg, &deep_opts());
            for v in &run.lemmas[1..3] {
                let name = v.lemma;
                let ctx = || format!("{cfg:?} {name}:\n{}", render_kinduct_summary(&run));
                assert_eq!(v.proved_k, None, "{}", ctx());
                assert!(!v.base_ok, "{}", ctx());
                assert_eq!(v.cex_depth, Some(depth), "{}", ctx());
                assert_eq!(v.ctis_enumerated, 64, "{}", ctx());
            }
        }
    }
}
