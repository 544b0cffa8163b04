//! The workloads and the interface the measuring loop drives them through.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::trace::Recorder;

pub mod analyze;
pub mod explore;
pub mod extract;
pub mod fuzz;
pub mod live;

/// Input size. `Smoke` exists so the package's tests can run every workload
/// in well under a second; its numbers are not comparable with anything and
/// every results file says which size produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}

impl Size {
    /// `"full"` / `"smoke"`, as results files label it.
    pub fn as_str(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// What one repetition did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Operations completed.
    pub ops: u64,
    /// Output checks that failed, one line each. Every entry counts as one
    /// failed operation.
    pub failures: Vec<String>,
    /// Deterministic work counters. Repetitions of one workload do
    /// byte-identical work, so these must not differ between repetitions,
    /// thread counts, or the traced and plain assemblies of the workload.
    pub counters: BTreeMap<String, u64>,
}

impl Rep {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a deterministic counter.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }
}

/// Per-layer metric values by catalog name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Aggregated per-call spans of one layer: `(layer, parent, calls, ns)`.
pub type LayerCalls = (&'static str, &'static str, u64, u64);

/// What one traced repetition produced beside its [`Rep`].
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// The repetition's outcome; its counters must equal the plain ones.
    pub rep: Rep,
    /// Layer metrics measured inside the repetition.
    pub layers: Layers,
    /// Aggregated per-call spans, for the trace file.
    pub calls: Vec<LayerCalls>,
}

/// One workload with its inputs already generated.
pub trait Workload {
    /// Whether `--seed` changes the inputs (exhaustive workloads ignore it).
    fn seed_used(&self) -> bool;

    /// One repetition through the public entry point the `dinefd`
    /// subcommand calls: construction, run, extraction and output checks.
    fn rep(&mut self) -> Rep;

    /// The same repetition assembled by the benchmark from the same public
    /// constructors with timing adapters in place, phases recorded as spans
    /// under whatever span `rec` has open.
    fn traced_rep(&mut self, rec: &mut Recorder) -> Traced;

    /// Layer measurements taken beside the repetition — parallel variants,
    /// standalone replays of one component — sized to about `budget`.
    /// `reference` is a plain repetition's outcome; a deterministic counter
    /// that differs from it is reported as a failure line.
    fn beside(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        budget: Duration,
        layers: &mut Layers,
    ) -> Vec<String>;
}

/// Generates the inputs of workload `name` from `seed`; `None` for a name
/// that is not in the catalog.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "extract_dense" => Box::new(extract::Extract::dense(seed, size)),
        "extract_long" => Box::new(extract::Extract::long(seed, size)),
        "explore_composed" => Box::new(explore::Explore::new(size)),
        "fuzz_pair" => Box::new(fuzz::FuzzPair::new(seed, size)),
        "analyze_sweep" => Box::new(analyze::AnalyzeSweep::new(size)),
        "live_soak" => Box::new(live::LiveSoak::new(seed, size)),
        _ => return None,
    })
}

/// Lines describing every counter of `got` that differs from `want`.
pub fn counter_diff(context: &str, want: &Rep, got: &Rep) -> Vec<String> {
    let mut out = Vec::new();
    for (k, v) in &want.counters {
        match got.counters.get(k) {
            Some(g) if g == v => {}
            Some(g) => out.push(format!("{context}: counter {k} is {g}, expected {v}")),
            None => out.push(format!("{context}: counter {k} is missing, expected {v}")),
        }
    }
    for k in got.counters.keys().filter(|k| !want.counters.contains_key(*k)) {
        out.push(format!("{context}: unexpected counter {k}"));
    }
    out
}

/// Runs `f` repeatedly until `budget` has passed, at least `min` times, and
/// returns each call's result.
pub fn repeat_for<R>(budget: Duration, min: usize, mut f: impl FnMut() -> R) -> Vec<R> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f());
    }
    out
}
