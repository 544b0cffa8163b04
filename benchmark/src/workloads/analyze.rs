//! `analyze_sweep`: the static analyzer's three engines — lints, SAT-based
//! k-induction and the explicit enumerator — over the seeded-mutation
//! matrix, the work `dinefd analyze` does across its flag space.

use std::time::{Duration, Instant};

use dinefd_analyze::cnf::{encode_step, CnfBuilder, SymState};
use dinefd_analyze::{
    agrees_with_explicit, run_induction, run_kinduction, run_lints, InductOptions, Ir, IrConfig,
    KinductOptions, MAX_WIRE_CAP, WIRE_CAP,
};
use dinefd_explore::{ModelMutation, SubjectMutation};

use super::{Layers, Rep, Size, Traced, Workload};
use crate::trace::{ms, ratio, Recorder};

/// One analysed configuration: `(stable key, every obligation proves, config)`.
type Config = (&'static str, bool, IrConfig);

/// The eight configurations of experiments E11/E13, with their expected
/// verdicts: the three safety mutants must fail with CTIs, everything else
/// must prove.
pub fn configs() -> [Config; 8] {
    let f = IrConfig::faithful();
    [
        ("faithful", true, f),
        ("hardened", true, IrConfig { strict_seq: true, ..f }),
        ("no_crash", true, IrConfig { allow_crash: false, ..f }),
        (
            "skip_ping_disable",
            false,
            IrConfig { subject_mutation: SubjectMutation::SkipPingDisable, ..f },
        ),
        (
            "ignore_trigger_guard",
            false,
            IrConfig { subject_mutation: SubjectMutation::IgnoreTriggerGuard, ..f },
        ),
        (
            "stale_ack_replay",
            false,
            IrConfig { model_mutation: ModelMutation::StaleAckReplay, ..f },
        ),
        (
            "skip_trigger_update",
            true,
            IrConfig { subject_mutation: SubjectMutation::SkipTriggerUpdate, ..f },
        ),
        ("drop_ping_send", true, IrConfig { model_mutation: ModelMutation::DropPingSend, ..f }),
    ]
}

/// The configuration the explicit enumerator also runs, at the default cap
/// where the two engines must agree byte for byte: the mutant whose CTIs it
/// has to retain and classify.
const EXPLICIT: [&str; 1] = ["stale_ack_replay"];

/// Default wire cap and plain inductiveness: the only point at which the
/// symbolic and explicit engines are comparable.
const ANCHOR: (u8, u32) = (WIRE_CAP, 1);

/// The symbolic grid, `(wire cap, induction depth)`: the agreement anchor,
/// the largest cap, and the largest cap unrolled deep — the most expensive
/// SAT instances the CLI can pose.
const GRID: [(u8, u32); 3] = [ANCHOR, (MAX_WIRE_CAP, 1), (MAX_WIRE_CAP, 8)];

/// The analyzer sweep with its grid fixed.
#[derive(Debug)]
pub struct AnalyzeSweep {
    grid: &'static [(u8, u32)],
    explicit: &'static [&'static str],
}

impl AnalyzeSweep {
    /// Lints and the symbolic grid on all eight configs, then the enumerator
    /// on one: 25 verdict runs, symbolic and explicit each about half the
    /// repetition (≈0.95 s and ≈1.0 s of ≈2.2 s).
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => AnalyzeSweep { grid: &GRID, explicit: &EXPLICIT },
            Size::Smoke => AnalyzeSweep { grid: &GRID[..1], explicit: &[] },
        }
    }

    fn classify() -> InductOptions {
        InductOptions { keep_ctis: 4, classify: 1, ..InductOptions::default() }
    }
}

/// Wall time and solver work of one repetition's phases.
#[derive(Debug, Default)]
struct Phases {
    lints_ns: u64,
    kinduct_ns: u64,
    kinduct_runs: u64,
    induct_ns: u64,
    induct_runs: u64,
    typed_states: u64,
    solves: u64,
    conflicts: u64,
    propagations: u64,
}

impl AnalyzeSweep {
    /// One repetition; `span` wraps each phase (a no-op timer for the plain
    /// repetition, a recorder span for the traced one).
    fn sweep(&self, mut span: impl FnMut(&str, &mut dyn FnMut()) -> u64) -> (Rep, Phases) {
        let mut rep = Rep::default();
        let mut ph = Phases::default();
        for (key, expect_proved, cfg) in configs() {
            ph.lints_ns += span("lints", &mut || {
                let lints = run_lints(&cfg);
                rep.count(&format!("{key}.lint_findings"), lints.finding_count());
            });
            let mut anchor = None;
            for &(cap, max_k) in self.grid {
                let cfg = IrConfig { wire_cap: cap, ..cfg };
                let opts = KinductOptions {
                    max_k,
                    keep_ctis: 4,
                    classify: Self::classify(),
                    ..KinductOptions::default()
                };
                ph.kinduct_ns += span("kinduct", &mut || {
                    let run = run_kinduction(&cfg, &opts);
                    rep.ops += 1;
                    ph.kinduct_runs += 1;
                    ph.solves += run.stats.solves;
                    ph.conflicts += run.stats.conflicts;
                    ph.propagations += run.stats.propagations;
                    let tag = format!("{key}.cap{cap}.k{max_k}");
                    rep.count(&format!("{tag}.clauses"), run.clauses);
                    rep.count(&format!("{tag}.conflicts"), run.stats.conflicts);
                    rep.check(run.all_proved() == expect_proved, || {
                        format!("{tag}: proved = {}, expected {expect_proved}", run.all_proved())
                    });
                    if (cap, max_k) == ANCHOR {
                        anchor = Some(run);
                    }
                });
            }
            if self.explicit.contains(&key) {
                ph.induct_ns += span("induct", &mut || {
                    let sym = anchor.take().expect("every grid holds the anchor");
                    let exp = run_induction(&sym.cfg, &Self::classify());
                    rep.ops += 1;
                    ph.induct_runs += 1;
                    ph.typed_states += exp.states_total;
                    rep.count(&format!("{key}.typed_states"), exp.states_total);
                    rep.check(exp.all_inductive() == expect_proved, || {
                        format!(
                            "{key}: explicit inductive = {}, expected {expect_proved}",
                            exp.all_inductive()
                        )
                    });
                    let agree = agrees_with_explicit(&sym, &exp);
                    rep.check(agree.is_ok(), || format!("{key}: engines disagree: {agree:?}"));
                });
            }
        }
        (rep, ph)
    }
}

/// CNF size and build time of one transition-relation step at the largest
/// wire cap: a fresh builder, two symbolic frames, one `encode_step` — the
/// bit-blaster alone, nothing solved.
fn cnf_encode() -> (Duration, u64, u64) {
    let cfg = IrConfig { wire_cap: MAX_WIRE_CAP, ..IrConfig::faithful() };
    let ir = Ir::new(cfg);
    let t0 = Instant::now();
    let mut b = CnfBuilder::new();
    let pre = SymState::fresh(&mut b, cfg.wire_cap);
    let post = SymState::fresh(&mut b, cfg.wire_cap);
    std::hint::black_box(encode_step(&mut b, &ir, &pre, &post));
    (t0.elapsed(), b.solver.num_vars() as u64, b.solver.num_clauses() as u64)
}

impl Workload for AnalyzeSweep {
    fn seed_used(&self) -> bool {
        false
    }

    fn rep(&mut self) -> Rep {
        self.sweep(|_, f| {
            f();
            0
        })
        .0
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> Traced {
        let t0 = Instant::now();
        let (rep, ph) = self.sweep(|name, f| rec.span(name, |_| f()).1);
        let rep_ns = t0.elapsed().as_nanos() as u64;
        let mut layers = Layers::new();
        layers.insert("analyze.lints.ms", ms(ph.lints_ns));
        layers.insert("analyze.sat.solves", ph.solves as f64);
        layers.insert("analyze.sat.conflicts", ph.conflicts as f64);
        layers.insert("analyze.sat.propagations", ph.propagations as f64);
        layers.insert(
            "analyze.sat.props_per_us",
            ratio(ph.propagations as f64, ph.kinduct_ns as f64 / 1e3),
        );
        layers
            .insert("analyze.kinduct.ms_per_run", ratio(ms(ph.kinduct_ns), ph.kinduct_runs as f64));
        layers.insert("analyze.kinduct.share_of_rep", ratio(ph.kinduct_ns as f64, rep_ns as f64));
        layers.insert("analyze.induct.ms_per_run", ratio(ms(ph.induct_ns), ph.induct_runs as f64));
        layers.insert(
            "analyze.induct.typed_states_per_s",
            ratio(ph.typed_states as f64, ph.induct_ns as f64 / 1e9),
        );
        let calls = vec![
            ("analyze.lints", "rep", configs().len() as u64, ph.lints_ns),
            ("analyze.kinduct", "rep", ph.kinduct_runs, ph.kinduct_ns),
            ("analyze.induct", "rep", ph.induct_runs, ph.induct_ns),
        ];
        Traced { rep, layers, calls }
    }

    fn beside(
        &mut self,
        rec: &mut Recorder,
        _reference: &Rep,
        _budget: Duration,
        layers: &mut Layers,
    ) -> Vec<String> {
        rec.span("replay.cnf_encode", |_| {
            let runs: Vec<_> = (0..9).map(|_| cnf_encode()).collect();
            let fastest = runs.iter().map(|r| r.0).min().expect("nine runs");
            layers.insert("analyze.cnf.encode_ms", fastest.as_secs_f64() * 1e3);
            layers.insert("analyze.cnf.vars", runs[0].1 as f64);
            layers.insert("analyze.cnf.clauses", runs[0].2 as f64);
        });
        Vec::new()
    }
}
