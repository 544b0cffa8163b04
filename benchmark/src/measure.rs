//! The measuring loop: set-up passes, timed repetitions, and the separate
//! traced run, for one workload in this process.
//!
//! **Why the headline is the fastest repetition.** Every repetition of a
//! workload does byte-identical work (the loop checks the deterministic
//! counters), so whatever differs between repetitions is the host: another
//! tenant on the core, memory that has to be faulted in again. Interference
//! only ever adds time, and on the Firecracker hosts this runs on it comes in
//! bursts of seconds that move a median by 15–25% between back-to-back runs
//! while the fastest repetition moves by 3–5%. `throughput_ops_s` and
//! `cpu_us_per_op` are therefore taken from the fastest (cheapest)
//! repetition; the median and quartiles of all repetitions are reported
//! beside them in `timings` and in the printed table.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host;
use crate::results::{Metric, WorkloadResult};
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, summarize};
use crate::trace::{Recorder, TraceFile};
use crate::workloads::{self, counter_diff, repeat_for, Layers, Rep, Size, Workload};

/// Set-up passes a run makes; `setup_s` is their median. The first is cold
/// (timed from process start, first-touch page faults), so with five the
/// median is the middle of the warm ones.
pub const SETUP_PASSES: usize = 5;

/// Timed repetitions a run makes at least, however slow the host.
pub const MIN_REPS: usize = 3;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Input size.
    pub size: Size,
    /// The traced run (per-layer metrics) instead of the plain one.
    pub traced: bool,
}

/// One timed repetition.
struct Timing {
    wall: Duration,
    cpu: Duration,
    ops: u64,
}

impl Timing {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.ops as f64
    }
}

/// Accumulates what every phase of a run finds.
struct Ledger {
    reference: Option<Rep>,
    failures: Vec<String>,
}

impl Ledger {
    /// Books one repetition's outcome: its failed checks, and any drift of
    /// its deterministic counters from the first repetition's.
    fn book(&mut self, context: &str, rep: &Rep) {
        self.failures.extend(rep.failures.iter().map(|f| format!("{context}: {f}")));
        match &self.reference {
            Some(want) => self.failures.extend(counter_diff(context, want, rep)),
            None => self.reference = Some(rep.clone()),
        }
    }
}

fn timed_rep(w: &mut dyn Workload) -> (Rep, Timing) {
    let cpu0 = host::process_cpu();
    let t0 = Instant::now();
    let rep = w.rep();
    let wall = t0.elapsed();
    let cpu = host::process_cpu().saturating_sub(cpu0);
    let ops = rep.ops;
    (rep, Timing { wall, cpu, ops })
}

/// Repeats `w` for `budget` (at least [`MIN_REPS`] times).
fn timed_reps(w: &mut dyn Workload, budget: Duration, ledger: &mut Ledger) -> Vec<Timing> {
    let mut n = 0;
    repeat_for(budget, MIN_REPS, || {
        n += 1;
        let (rep, timing) = timed_rep(w);
        ledger.book(&format!("repetition {n}"), &rep);
        timing
    })
}

fn metric(value: f64, unit: &str) -> Metric {
    Metric { value, unit: unit.to_string() }
}

/// Runs one workload as `cfg` says. `process_start` is when this process
/// began, so the first set-up pass includes process start-up. Returns the
/// result and, for a traced run, the trace to write out.
pub fn run(
    cfg: &RunConfig,
    process_start: Instant,
) -> Result<(WorkloadResult, Option<TraceFile>), String> {
    let spec = spec::workload(&cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let mut rec = Recorder::new();
    let mut ledger = Ledger { reference: None, failures: Vec::new() };
    let mut timings = BTreeMap::new();
    let mut metrics = BTreeMap::new();
    let budget = Duration::from_secs_f64(cfg.seconds);

    // Set-up: generate the inputs and run one untimed warm-up repetition,
    // several times over; the last pass's workload is the one measured.
    let mut setup = Vec::new();
    let mut workload = None;
    for pass in 0..SETUP_PASSES {
        let t0 = if pass == 0 { process_start } else { Instant::now() };
        let mut w = workloads::build(spec.name, cfg.seed, cfg.size).expect("catalog names build");
        let warm_up = w.rep();
        setup.push(t0.elapsed().as_secs_f64());
        ledger.book(&format!("warm-up {}", pass + 1), &warm_up);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up pass");
    let seed_used = w.seed_used();
    timings.insert("setup_s".to_string(), summarize(&setup).expect("set-up passes"));

    let (reps, trace) = if cfg.traced {
        let (layers, baseline) =
            traced(w.as_mut(), spec.name, &mut rec, budget, &mut ledger, &mut timings);
        let first_pass_ms = setup[0] * 1e3;
        for name in layers.keys().filter(|name| PER_LAYER.iter().all(|m| m.name != **name)) {
            ledger.failures.push(format!("layer metric {name} is not in the catalog"));
        }
        for m in &PER_LAYER {
            let value = match m.name {
                "bench.setup.first_pass_ms" => first_pass_ms,
                // A layer off this workload's path reads 0.
                name => layers.get(name).copied().unwrap_or(0.0),
            };
            metrics.insert(m.name.to_string(), metric(value, m.unit));
        }
        (baseline, Some(rec.finish(spec.name)))
    } else {
        let reps = timed_reps(w.as_mut(), budget, &mut ledger);
        let rates: Vec<f64> = reps.iter().map(Timing::ops_per_s).collect();
        let cpus: Vec<f64> = reps.iter().map(Timing::cpu_us_per_op).collect();
        let walls: Vec<f64> = reps.iter().map(|t| t.wall.as_secs_f64()).collect();
        let fastest = rates.iter().copied().fold(f64::MIN, f64::max);
        let cheapest = cpus.iter().copied().fold(f64::MAX, f64::min);
        timings.insert("rep_wall_s".to_string(), summarize(&walls).expect("timed repetitions"));
        timings.insert("rep_ops_per_s".to_string(), summarize(&rates).expect("timed repetitions"));
        timings
            .insert("rep_cpu_us_per_op".to_string(), summarize(&cpus).expect("timed repetitions"));
        for m in &spec::END_TO_END {
            let value = match m.name {
                "setup_s" => median(&setup).expect("set-up passes"),
                "throughput_ops_s" => fastest,
                "cpu_us_per_op" => cheapest,
                "peak_rss_mib" => host::peak_rss_mib().unwrap_or(0.0),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            metrics.insert(m.name.to_string(), metric(value, m.unit));
        }
        (reps, None)
    };

    let attempted: u64 = reps.iter().map(|t| t.ops).sum();
    let failed = ledger.failures.len() as u64;
    let result = WorkloadResult {
        workload: spec.name.to_string(),
        op: spec.op.to_string(),
        size: cfg.size.as_str().to_string(),
        seed: cfg.seed,
        seed_used,
        traced: cfg.traced,
        seconds: cfg.seconds,
        setup_passes: setup.len() as u64,
        repetitions: reps.len() as u64,
        attempted,
        failed,
        correct: failed == 0,
        failures: ledger.failures,
        metrics,
        timings,
        counters: ledger.reference.map(|r| r.counters).unwrap_or_default(),
    };
    Ok((result, trace))
}

/// The traced run: a short plain baseline (returned), traced repetitions
/// (the fastest one's layer numbers are kept), then the measurements beside
/// them.
fn traced(
    w: &mut dyn Workload,
    name: &str,
    rec: &mut Recorder,
    budget: Duration,
    ledger: &mut Ledger,
    timings: &mut BTreeMap<String, crate::stats::Summary>,
) -> (Layers, Vec<Timing>) {
    let mut layers = Layers::new();
    let (baseline, _) = rec.span(name, |rec| {
        let (baseline, _) = rec.span("untraced", |_| timed_reps(w, budget.mul_f64(0.3), ledger));
        let walls: Vec<f64> = baseline.iter().map(|t| t.wall.as_secs_f64()).collect();
        let untraced_s = walls.iter().copied().fold(f64::MAX, f64::min);
        timings
            .insert("untraced_rep_wall_s".to_string(), summarize(&walls).expect("baseline reps"));

        let mut n = 0;
        let runs = repeat_for(budget.mul_f64(0.3), 2, || {
            n += 1;
            let (t, ns) = rec.span("traced_rep", |rec| w.traced_rep(rec));
            ledger.book(&format!("traced repetition {n}"), &t.rep);
            (ns, t)
        });
        let traced_walls: Vec<f64> = runs.iter().map(|(ns, _)| *ns as f64 / 1e9).collect();
        timings.insert(
            "traced_rep_wall_s".to_string(),
            summarize(&traced_walls).expect("traced reps"),
        );
        let (traced_ns, kept) =
            runs.into_iter().min_by_key(|(ns, _)| *ns).expect("at least two traced repetitions");
        for (layer, parent, count, ns) in &kept.calls {
            rec.layer_total(layer, parent, *count, *ns);
        }
        layers.extend(kept.layers);

        let reference = ledger.reference.clone().expect("warm-ups set the reference");
        let (failures, _) =
            rec.span("beside", |rec| w.beside(rec, &reference, budget.mul_f64(0.4), &mut layers));
        ledger.failures.extend(failures.into_iter().map(|f| format!("beside: {f}")));

        let traced_s = traced_ns as f64 / 1e9;
        layers.insert("bench.rep.untraced_ms", untraced_s * 1e3);
        layers.insert("bench.rep.traced_ms", traced_s * 1e3);
        layers.insert("bench.trace.overhead_share", traced_s / untraced_s - 1.0);
        baseline
    });
    (layers, baseline)
}
