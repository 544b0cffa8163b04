//! The inductive (depth-unbounded) invariant checker.
//!
//! Where the bounded explorer proves "no lemma violation within depth *d*",
//! this module proves the depth-*unbounded* statement by **induction on
//! transitions**: a candidate invariant *Inv* is *inductive* when the
//! initial state satisfies it (initiation) and every IR action fired from
//! any typed abstract state satisfying *Inv* lands back inside *Inv*
//! (consecution). Since every concrete reachable state abstracts into the
//! typed domain and every concrete transition is simulated by an IR action
//! (the conformance suite's job), an inductive *Inv* holds in every
//! reachable concrete state at any depth.
//!
//! ## Strengthening
//!
//! The paper's lemmas are rarely inductive *by themselves* — e.g. Lemma 4
//! (`s_i` hungry ⇒ `trigger = i`) survives an ack delivery only because of
//! facts about which messages can be in flight while `s_i` is hungry. The
//! checker therefore verifies each lemma as the conjunction of the lemma
//! with a cluster of **strengthening clauses** (the mechanized analogue of
//! the auxiliary claims inside the paper's proofs — see `THEORY.md`):
//!
//! * `R1` — per instance, at most one `DX_i` message (ping or ack) is in
//!   flight: the duplicate-suppression regime of the corrigendum.
//! * `R2` — a `DX_i` message in flight implies `ping_i = false`: the ping
//!   flag is the "token" whose absence marks an outstanding exchange.
//! * `REGIME_TRIG` — a `DX_i` message in flight implies `trigger = i`: an
//!   exchange only happens inside its own instance's regime.
//! * `R6` — while `q` is live, `ping_i ∧ s_i eating` implies
//!   `trigger = i`: the send precondition that makes `REGIME_TRIG`
//!   self-propagating.
//! * `W_TURN` — `w_{1-switch}` is thinking: the witness's strict
//!   alternation, which is what actually makes Lemma 9 inductive.
//!
//! ## Counterexamples to induction (CTIs)
//!
//! A consecution failure is reported as a concrete triple
//! (pre-state, action, post-state). A CTI is **real** when its pre-state is
//! reachable from the initial state — established by handing the abstract
//! pre-state to the bounded explorer's [`find_reachable`] — and then
//! *confirmed* by seeding [`explore_seeded`] at the pre-state and watching a
//! genuine lemma violation fall out. A CTI whose pre-state is unreachable is
//! **spurious**: an artifact of the abstraction or of an invariant that is
//! true but not yet inductive, and a prompt to strengthen. On the faithful
//! configuration every lemma passes with zero CTIs; each safety-violating
//! seeded mutation produces a real, confirmed CTI (the mutation-detection
//! gate in `tests/induction.rs`).

use crate::ir::{
    abstract_of_with_cap, concretize, explore_config, AbsState, ActionId, Ir, IrConfig, WIRE_CAP,
};
use crate::protocol::{self, Concrete};
use dinefd_dining::DinerPhase;
use dinefd_explore::{explore_seeded, find_reachable};
use std::collections::HashMap;

/// One atomic clause of a candidate invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Clause {
    /// Lemma 2: `s_i` not eating ⇒ `ping_i`.
    L2,
    /// Lemma 3: `s_i` not eating ∧ `ping_i` ⇒ no `DX_i` message in transit.
    L3,
    /// Lemma 4: `s_i` hungry ⇒ `trigger = i`.
    L4,
    /// Lemma 9: some witness thread is thinking.
    L9,
    /// Exclusion soundness: after convergence, live endpoints never overlap.
    Excl,
    /// Strengthening: `w_{1-switch}` is thinking (witness alternation).
    WTurn,
    /// Strengthening: at most one `DX_i` message in flight, per instance.
    R1,
    /// Strengthening: a `DX_i` message in flight ⇒ `¬ping_i`.
    R2,
    /// Strengthening: a `DX_i` message in flight ⇒ `trigger = i`.
    RegimeTrig,
    /// Strengthening: live ∧ `ping_i` ∧ `s_i` eating ⇒ `trigger = i`.
    R6,
}

/// Every clause, in bit order (the order is part of the metric surface).
pub const ALL_CLAUSES: [Clause; 10] = [
    Clause::L2,
    Clause::L3,
    Clause::L4,
    Clause::L9,
    Clause::Excl,
    Clause::WTurn,
    Clause::R1,
    Clause::R2,
    Clause::RegimeTrig,
    Clause::R6,
];

impl Clause {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Clause::L2 => "L2",
            Clause::L3 => "L3",
            Clause::L4 => "L4",
            Clause::L9 => "L9",
            Clause::Excl => "EXCL",
            Clause::WTurn => "W_TURN",
            Clause::R1 => "R1",
            Clause::R2 => "R2",
            Clause::RegimeTrig => "REGIME_TRIG",
            Clause::R6 => "R6",
        }
    }

    /// The clause's bit: its position in [`ALL_CLAUSES`], which lists the
    /// clauses in declaration order.
    pub(crate) fn bit(self) -> u16 {
        1 << self as u16
    }

    /// Whether the clause holds in `s`: the concrete reading of
    /// [`protocol::clause`].
    pub fn holds(self, s: &AbsState) -> bool {
        protocol::clause(&mut Concrete::default(), s, self)
    }
}

/// Bitmask of the clauses of `ALL_CLAUSES` that hold in `s`.
pub fn clause_mask(s: &AbsState) -> u16 {
    let mut m = 0u16;
    for (k, c) in ALL_CLAUSES.iter().enumerate() {
        if c.holds(s) {
            m |= 1 << k;
        }
    }
    m
}

/// One per-lemma proof obligation: the target lemma plus its strengthening
/// cluster, checked as a single conjunction.
#[derive(Clone, Copy, Debug)]
pub struct LemmaSpec {
    /// Stable name of the obligation (the metric/reporting key).
    pub name: &'static str,
    /// The lemma this obligation certifies.
    pub target: Clause,
    /// The full conjunction (target included) that must be inductive.
    pub clauses: &'static [Clause],
}

/// The shared strengthening cluster of the message-regime lemmas. Lemma 3
/// is logically implied by `R2` (drop the "not eating" hypothesis) and
/// Lemma 4 leans on `L2 ∧ R2` to rule out a hostile ack while `s_i` is
/// hungry; neither is inductive without the full cluster.
const REGIME_CLUSTER_L3: &[Clause] =
    &[Clause::L3, Clause::L2, Clause::L4, Clause::R1, Clause::R2, Clause::RegimeTrig, Clause::R6];
const REGIME_CLUSTER_L4: &[Clause] =
    &[Clause::L4, Clause::L2, Clause::L3, Clause::R1, Clause::R2, Clause::RegimeTrig, Clause::R6];

/// The checker's proof obligations, in reporting order.
pub const LEMMA_SPECS: [LemmaSpec; 5] = [
    LemmaSpec { name: "lemma2", target: Clause::L2, clauses: &[Clause::L2] },
    LemmaSpec { name: "lemma3", target: Clause::L3, clauses: REGIME_CLUSTER_L3 },
    LemmaSpec { name: "lemma4", target: Clause::L4, clauses: REGIME_CLUSTER_L4 },
    LemmaSpec { name: "lemma9", target: Clause::L9, clauses: &[Clause::L9, Clause::WTurn] },
    LemmaSpec { name: "exclusion", target: Clause::Excl, clauses: &[Clause::Excl] },
];

pub(crate) fn spec_mask(spec: &LemmaSpec) -> u16 {
    spec.clauses.iter().fold(0, |m, &c| m | c.bit())
}

/// Classification of one CTI against the *concrete* model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtiClass {
    /// The pre-state is reachable (path length attached); `confirmed` is
    /// whether seeding the bounded explorer at the pre-state then reproduced
    /// a genuine lemma violation.
    Real {
        /// Length of the concrete path from the initial state.
        path_len: usize,
        /// Whether the seeded replay reproduced a concrete violation.
        confirmed: bool,
    },
    /// No concrete path to the pre-state within the classification bounds:
    /// an abstraction artifact or a not-yet-inductive invariant.
    Spurious,
}

/// One counterexample to induction.
#[derive(Clone, Debug)]
pub struct Cti {
    /// The obligation that failed.
    pub lemma: &'static str,
    /// The pre-state (satisfies the full conjunction).
    pub pre: AbsState,
    /// The action fired.
    pub action: ActionId,
    /// Display name of the action.
    pub action_name: &'static str,
    /// The offending successor (violates the conjunction).
    pub post: AbsState,
    /// Names of the clauses the post-state breaks.
    pub broken: Vec<&'static str>,
    /// Real/spurious classification, when requested.
    pub class: Option<CtiClass>,
}

/// Verdict for one proof obligation.
#[derive(Clone, Debug)]
pub struct LemmaVerdict {
    /// The obligation's name.
    pub lemma: &'static str,
    /// Clause names in the conjunction.
    pub clauses: Vec<&'static str>,
    /// Initiation: the initial abstract state satisfies the conjunction.
    pub initial_ok: bool,
    /// Typed states satisfying the conjunction (the induction hypothesis
    /// held this many times).
    pub states_in_inv: u64,
    /// `(state, action, successor)` triples checked from those states.
    pub steps_checked: u64,
    /// Total consecution failures (not capped).
    pub cti_count: u64,
    /// The retained simplest CTIs (capped, deterministic order).
    pub ctis: Vec<Cti>,
}

impl LemmaVerdict {
    /// Inductive = initiation plus zero consecution failures.
    pub fn inductive(&self) -> bool {
        self.initial_ok && self.cti_count == 0
    }
}

/// Verdict for the Theorem-1 completeness closure (a transition-level
/// property, checked by step-induction over the closure set).
#[derive(Clone, Debug)]
pub struct ClosureVerdict {
    /// Typed states inside the closure set.
    pub closure_states: u64,
    /// Steps checked out of closure states.
    pub steps_checked: u64,
    /// Violation messages (empty = closed and suspicion-monotone).
    pub violations: Vec<String>,
}

impl ClosureVerdict {
    /// Whether the closure is invariant and suspicion monotone.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Knobs of one induction run.
#[derive(Clone, Copy, Debug)]
pub struct InductOptions {
    /// Max CTIs retained per obligation (simplest first).
    pub keep_ctis: usize,
    /// How many retained CTIs per obligation to classify real/spurious
    /// against the concrete model (`0` = skip classification).
    pub classify: usize,
    /// Depth bound of the reachability search used for classification.
    pub reach_depth: u32,
    /// State budget of the reachability search.
    pub reach_states: usize,
    /// Depth of the seeded confirmation replay.
    pub confirm_depth: u32,
}

impl Default for InductOptions {
    fn default() -> Self {
        InductOptions {
            keep_ctis: 8,
            classify: 2,
            reach_depth: 12,
            reach_states: 400_000,
            confirm_depth: 8,
        }
    }
}

/// The outcome of [`run_induction`] on one configuration.
#[derive(Clone, Debug)]
pub struct InductionRun {
    /// The configuration analyzed.
    pub cfg: IrConfig,
    /// Size of the typed abstract domain enumerated.
    pub states_total: u64,
    /// One verdict per entry of [`LEMMA_SPECS`], same order.
    pub lemmas: Vec<LemmaVerdict>,
    /// The Theorem-1 closure verdict.
    pub closure: ClosureVerdict,
    /// Concrete replay classifications actually executed.
    pub classify_replays: u64,
    /// Classifications answered from the pre-state fingerprint cache
    /// (distinct lemma clauses often fail out of the same pre-state).
    pub classify_cache_hits: u64,
}

impl InductionRun {
    /// Whether every obligation is inductive and the closure holds.
    pub fn all_inductive(&self) -> bool {
        self.lemmas.iter().all(LemmaVerdict::inductive) && self.closure.ok()
    }

    /// The verdict for obligation `name`.
    pub fn lemma(&self, name: &str) -> &LemmaVerdict {
        self.lemmas.iter().find(|v| v.lemma == name).expect("known lemma name")
    }
}

/// Enumerates the full typed abstract domain at the default cap:
/// 3 359 232 states. See [`for_each_typed_state_cap`].
pub fn for_each_typed_state(f: impl FnMut(&AbsState)) {
    for_each_typed_state_cap(WIRE_CAP, f);
}

/// Enumerates the full typed abstract domain at wire cap `cap`: phases
/// range over {thinking, hungry, eating}, wire counters over `0..=cap`,
/// every boolean/binary field over both values — `41 472 · (cap + 1)⁴`
/// states (3 359 232 at cap 2, 25 920 000 at cap 4; cap 8's 272M is why
/// [`crate::kinduct`] exists).
pub fn for_each_typed_state_cap(cap: u8, mut f: impl FnMut(&AbsState)) {
    const PHASES: [DinerPhase; 3] = [DinerPhase::Thinking, DinerPhase::Hungry, DinerPhase::Eating];
    let bools = [false, true];
    let wire: Vec<u8> = (0..=cap).collect();
    for &w0 in &PHASES {
        for &w1 in &PHASES {
            for &s0 in &PHASES {
                for &s1 in &PHASES {
                    for switch in 0..2u8 {
                        for &hp0 in &bools {
                            for &hp1 in &bools {
                                for &suspect in &bools {
                                    for trigger in 0..2u8 {
                                        for &pe0 in &bools {
                                            for &pe1 in &bools {
                                                for &converged in &bools {
                                                    for &crashed in &bools {
                                                        for &p0 in &wire {
                                                            for &p1 in &wire {
                                                                for &a0 in &wire {
                                                                    for &a1 in &wire {
                                                                        f(&AbsState {
                                                                            w_phase: [w0, w1],
                                                                            s_phase: [s0, s1],
                                                                            switch,
                                                                            haveping: [hp0, hp1],
                                                                            suspect,
                                                                            trigger,
                                                                            ping_enabled: [
                                                                                pe0, pe1,
                                                                            ],
                                                                            converged,
                                                                            crashed,
                                                                            pings: [p0, p1],
                                                                            acks: [a0, a1],
                                                                        });
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Deterministic "how simple is this CTI" key: fewest messages in flight,
/// fewest non-thinking threads, fewest fields deviating from the initial
/// state (where `suspect` and both ping flags start *true*) — a cheap proxy
/// for distance-from-initial, so classification tries the most plausibly
/// reachable CTI first. The full field tuple is the tiebreak, making the
/// order total and the retained set rerun-deterministic.
pub(crate) fn simplicity_key(c: &Cti) -> (u32, u32, u32, String) {
    let s = &c.pre;
    let init = AbsState::initial();
    let wire = (s.pings[0] + s.pings[1] + s.acks[0] + s.acks[1]) as u32;
    let busy =
        s.w_phase.iter().chain(s.s_phase.iter()).filter(|&&p| p != DinerPhase::Thinking).count()
            as u32;
    let deviations = [
        s.haveping[0] != init.haveping[0],
        s.haveping[1] != init.haveping[1],
        s.suspect != init.suspect,
        s.converged != init.converged,
        s.crashed != init.crashed,
        s.ping_enabled[0] != init.ping_enabled[0],
        s.ping_enabled[1] != init.ping_enabled[1],
        s.trigger != init.trigger,
        s.switch != init.switch,
    ]
    .iter()
    .filter(|&&b| b)
    .count() as u32;
    (wire, busy, deviations, format!("{:?}|{:?}", s, c.action))
}

/// Runs initiation + consecution for every obligation in [`LEMMA_SPECS`]
/// plus the Theorem-1 closure step-induction, over the full typed domain of
/// `Ir::new(cfg)`, then classifies the simplest CTIs per
/// [`InductOptions`].
pub fn run_induction(cfg: &IrConfig, opts: &InductOptions) -> InductionRun {
    let ir = Ir::new(*cfg);
    let init = AbsState::initial();
    let init_mask = clause_mask(&init);

    let masks: Vec<u16> = LEMMA_SPECS.iter().map(spec_mask).collect();
    let mut verdicts: Vec<LemmaVerdict> = LEMMA_SPECS
        .iter()
        .zip(&masks)
        .map(|(spec, &m)| LemmaVerdict {
            lemma: spec.name,
            clauses: spec.clauses.iter().map(|c| c.name()).collect(),
            initial_ok: init_mask & m == m,
            states_in_inv: 0,
            steps_checked: 0,
            cti_count: 0,
            ctis: Vec::new(),
        })
        .collect();
    let mut closure =
        ClosureVerdict { closure_states: 0, steps_checked: 0, violations: Vec::new() };

    // Union of all obligation masks: a state outside every hypothesis needs
    // no successor computation (and closure states always satisfy none-or-
    // some of them independently, so they are checked separately below).
    let union: u16 = masks.iter().fold(0, |m, &x| m | x);

    let mut states_total = 0u64;
    let mut succ: Vec<(ActionId, AbsState)> = Vec::with_capacity(32);
    for_each_typed_state_cap(cfg.wire_cap, |s| {
        states_total += 1;
        let m_pre = clause_mask(s);
        let in_closure = protocol::in_closure(&mut Concrete::default(), s);
        let relevant = (m_pre & union) != 0;
        if !relevant && !in_closure {
            return;
        }
        succ.clear();
        ir.successors_into(s, &mut succ);
        for (k, (spec, &m)) in LEMMA_SPECS.iter().zip(&masks).enumerate() {
            if m_pre & m != m {
                continue;
            }
            let v = &mut verdicts[k];
            v.states_in_inv += 1;
            for &(id, ref t) in &succ {
                v.steps_checked += 1;
                let m_post = clause_mask(t);
                if m_post & m != m {
                    v.cti_count += 1;
                    let broken: Vec<&'static str> = spec
                        .clauses
                        .iter()
                        .filter(|c| m_post & c.bit() == 0)
                        .map(|c| c.name())
                        .collect();
                    let cti = Cti {
                        lemma: spec.name,
                        pre: *s,
                        action: id,
                        action_name: ir.name_of(id),
                        post: *t,
                        broken,
                        class: None,
                    };
                    insert_capped(&mut v.ctis, cti, opts.keep_ctis);
                }
            }
        }
        if in_closure {
            closure.closure_states += 1;
            for &(id, ref t) in &succ {
                closure.steps_checked += 1;
                let msg = match protocol::closure_step_faults(&mut Concrete::default(), s, t) {
                    [true, _] => "completeness closure not invariant",
                    [_, true] => "suspicion of crashed q regressed to trust",
                    _ => continue,
                };
                if closure.violations.len() < 16 {
                    closure.violations.push(format!("{msg} (action {})", ir.name_of(id)));
                }
            }
        }
    });

    let mut classifier = CtiClassifier::default();
    if opts.classify > 0 {
        for v in &mut verdicts {
            for cti in v.ctis.iter_mut().take(opts.classify) {
                cti.class = Some(classifier.classify(cfg, cti, opts));
            }
        }
    }

    InductionRun {
        cfg: *cfg,
        states_total,
        lemmas: verdicts,
        closure,
        classify_replays: classifier.replays,
        classify_cache_hits: classifier.cache_hits,
    }
}

/// Keeps `ctis` sorted by [`simplicity_key`] and capped at `cap`.
pub(crate) fn insert_capped(ctis: &mut Vec<Cti>, cti: Cti, cap: usize) {
    if cap == 0 {
        return;
    }
    let key = simplicity_key(&cti);
    let pos = ctis.partition_point(|c| simplicity_key(c) <= key);
    if pos >= cap {
        return;
    }
    ctis.insert(pos, cti);
    ctis.truncate(cap);
}

/// Classifies one CTI against the concrete model: BFS from the initial
/// state for a concrete state abstracting to the CTI's pre-state, then (if
/// found) seed the bounded explorer there and look for a genuine violation.
pub fn classify_cti(cfg: &IrConfig, cti: &Cti, opts: &InductOptions) -> CtiClass {
    let ecfg = explore_config(cfg, opts.reach_depth, opts.reach_states);
    let target = cti.pre;
    match find_reachable(&ecfg, |s| abstract_of_with_cap(s, cfg.wire_cap) == target) {
        None => CtiClass::Spurious,
        Some(path) => {
            let mut replay_cfg = explore_config(cfg, opts.confirm_depth, opts.reach_states);
            replay_cfg.start_converged = cti.pre.converged;
            let seed = concretize(&cti.pre, cfg);
            let report = explore_seeded(seed, &replay_cfg);
            CtiClass::Real { path_len: path.len(), confirmed: !report.violations.is_empty() }
        }
    }
}

/// A memoizing wrapper around [`classify_cti`]: the classification of a
/// CTI depends only on the configuration and the *pre-state* (reachability
/// plus seeded replay), so CTIs sharing a pre-state — common when several
/// clauses of one cluster break out of the same state, or when the explicit
/// and symbolic engines both classify — are replayed once and served from
/// an exact [`AbsState::pack_key`] fingerprint cache afterwards.
#[derive(Debug, Default)]
pub struct CtiClassifier {
    cache: HashMap<u64, CtiClass>,
    /// Concrete replays executed (cache misses).
    pub replays: u64,
    /// Classifications served from the cache.
    pub cache_hits: u64,
}

impl CtiClassifier {
    /// Classifies `cti`, reusing a cached verdict for its pre-state if one
    /// exists. Must only be shared across CTIs of the *same* `cfg`/`opts`.
    pub fn classify(&mut self, cfg: &IrConfig, cti: &Cti, opts: &InductOptions) -> CtiClass {
        let key = cti.pre.pack_key();
        if let Some(class) = self.cache.get(&key) {
            self.cache_hits += 1;
            return class.clone();
        }
        let class = classify_cti(cfg, cti, opts);
        self.replays += 1;
        self.cache.insert(key, class.clone());
        class
    }
}

/// Renders `run` as a deterministic human-readable summary (one line per
/// obligation, then the closure), used by the test suites' failure messages.
pub fn render_summary(run: &InductionRun) -> String {
    let mut out = String::new();
    out.push_str(&format!("induction over {} typed states ({:?})\n", run.states_total, run.cfg));
    for v in &run.lemmas {
        out.push_str(&format!(
            "  {:<10} {}  inv-states={} steps={} ctis={}\n",
            v.lemma,
            if v.inductive() { "INDUCTIVE" } else { "FAILS    " },
            v.states_in_inv,
            v.steps_checked,
            v.cti_count,
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
    out.push_str(&format!(
        "  closure    {}  closure-states={} steps={}\n",
        if run.closure.ok() { "INDUCTIVE" } else { "FAILS    " },
        run.closure.closure_states,
        run.closure.steps_checked,
    ));
    for msg in &run.closure.violations {
        out.push_str(&format!("    {msg}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_clauses_are_in_declaration_order() {
        for (k, &c) in ALL_CLAUSES.iter().enumerate() {
            assert_eq!(c as usize, k, "{c:?} is listed out of declaration order");
            assert_eq!(c.bit(), 1 << k);
        }
    }

    #[test]
    fn typed_domain_has_the_documented_cardinality() {
        let mut n = 0u64;
        for_each_typed_state(|_| n += 1);
        assert_eq!(n, 3_359_232);
    }

    #[test]
    fn initial_state_satisfies_every_clause() {
        let init = AbsState::initial();
        let m = clause_mask(&init);
        assert_eq!(m, (1 << ALL_CLAUSES.len()) - 1, "initial state violates a clause");
    }

    #[test]
    fn clause_bits_are_distinct() {
        let mut seen = 0u16;
        for c in ALL_CLAUSES {
            assert_eq!(seen & c.bit(), 0);
            seen |= c.bit();
        }
    }

    #[test]
    fn simplicity_prefers_the_empty_wire() {
        let mk = |pings0: u8| Cti {
            lemma: "x",
            pre: AbsState { pings: [pings0, 0], ..AbsState::initial() },
            action: ActionId::Converge,
            action_name: "converge",
            post: AbsState::initial(),
            broken: vec![],
            class: None,
        };
        let mut v = Vec::new();
        insert_capped(&mut v, mk(2), 2);
        insert_capped(&mut v, mk(0), 2);
        insert_capped(&mut v, mk(1), 2);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].pre.pings[0], 0);
        assert_eq!(v[1].pre.pings[0], 1);
    }
}
