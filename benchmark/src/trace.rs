//! In-memory tracing for the separate traced run.
//!
//! Two kinds of record, both taken from the benchmark's own files only (no
//! span lives inside the product crates):
//!
//! * **Coarse spans** (workload → repetition → phase) are kept one by one,
//!   each with the id of the span that caused it.
//! * **Per-call spans** (one per node step, dining call, oracle query, …)
//!   number in the millions, so they are folded as they happen into one
//!   [`LayerAcc`] per layer: a call count and a total duration. Each layer
//!   names its parent layer, which is all that self time needs.
//!
//! Everything stays in memory until [`Recorder::finish`]; the file is
//! written once, after the last measurement.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One coarse span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Index of this span in the trace's span list.
    pub id: u64,
    /// The span that was open when this one started; `None` for the root.
    pub parent: Option<u64>,
    /// Phase name.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Count and total duration of every call into one layer.
///
/// Shared between the adapter that records and the workload that reads, and
/// the adapters must be `Send + Sync` (nodes cross threads in the
/// transparency tests), hence atomics. `Relaxed` suffices: the two numbers
/// are statistics read after the run has joined; they publish no other data.
#[derive(Debug, Default)]
pub struct LayerAcc {
    count: AtomicU64,
    ns: AtomicU64,
}

impl LayerAcc {
    /// A fresh shared accumulator.
    pub fn shared() -> Arc<LayerAcc> {
        Arc::new(LayerAcc::default())
    }

    /// Runs `f` as one call of this layer.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(1, t0.elapsed().as_nanos() as u64);
        r
    }

    /// Adds `calls` calls that took `ns` in total.
    #[inline]
    pub fn add(&self, calls: u64, ns: u64) {
        self.count.fetch_add(calls, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds recorded so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 with no calls).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns() as f64, self.count() as f64)
    }
}

/// `num / den`, or 0 when `den` is 0 — layer ratios of a layer that did no
/// work read 0 rather than NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean nanoseconds of `f` over `ops` back-to-back calls, timed as one
/// interval: for operations too short to time one by one.
pub fn mean_ns(ops: u64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ops {
        f();
    }
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The aggregated per-call spans of one layer, as written to the trace file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerTotal {
    /// Layer name (`core.host`, `dining.wfdx`, …).
    pub layer: String,
    /// The layer (or coarse span name) whose calls contain this layer's.
    pub parent: String,
    /// Calls.
    pub count: u64,
    /// Total duration of those calls.
    pub total_ns: u64,
    /// `total_ns` minus the totals of the layers naming this one as parent.
    pub self_ns: u64,
}

/// The trace of one workload's traced run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    /// Workload name.
    pub workload: String,
    /// Coarse spans, in start order.
    pub spans: Vec<Span>,
    /// Aggregated per-call spans.
    pub layers: Vec<LayerTotal>,
}

/// Collects one workload's trace.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    layers: Vec<LayerTotal>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), layers: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a coarse span named `name`, child of whatever span is
    /// open, and returns `f`'s result with the span's duration in ns.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> (R, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: id as u64,
            parent: self.open.last().map(|&p| p as u64),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            self_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Records the aggregated per-call spans of one layer: `count` calls
    /// taking `total_ns` in all, made from inside `parent` (a layer or a
    /// coarse span name).
    pub fn layer_total(&mut self, layer: &str, parent: &str, count: u64, total_ns: u64) {
        self.layers.push(LayerTotal {
            layer: layer.to_string(),
            parent: parent.to_string(),
            count,
            total_ns,
            self_ns: 0,
        });
    }

    /// Closes the books: fills in every self time and returns the file.
    pub fn finish(mut self, workload: &str) -> TraceFile {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in self.spans.iter_mut().zip(child_ns) {
            s.self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        let totals: Vec<(String, u64)> =
            self.layers.iter().map(|l| (l.parent.clone(), l.total_ns)).collect();
        for l in &mut self.layers {
            let covered: u64 = totals.iter().filter(|(p, _)| *p == l.layer).map(|(_, ns)| ns).sum();
            l.self_ns = l.total_ns.saturating_sub(covered);
        }
        TraceFile { workload: workload.to_string(), spans: self.spans, layers: self.layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("workload", |rec| {
            rec.span("rep", |rec| {
                rec.span("phase", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            });
        });
        let file = rec.finish("w");
        assert_eq!(file.spans.len(), 3);
        assert_eq!(file.spans[0].parent, None);
        assert_eq!(file.spans[1].parent, Some(0));
        assert_eq!(file.spans[2].parent, Some(1));
        for s in &file.spans {
            let children: u64 = file
                .spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            assert_eq!(s.self_ns, s.end_ns - s.start_ns - children);
        }
        assert!(file.spans[2].self_ns >= 2_000_000);
    }

    #[test]
    fn layer_self_time_subtracts_child_layers() {
        let mut rec = Recorder::new();
        rec.layer_total("core.host", "sim.engine", 10, 1_000);
        rec.layer_total("dining.wfdx", "core.host", 20, 600);
        rec.layer_total("fd.injected", "dining.wfdx", 40, 100);
        let file = rec.finish("w");
        let self_of = |name: &str| file.layers.iter().find(|l| l.layer == name).unwrap().self_ns;
        assert_eq!(self_of("core.host"), 400);
        assert_eq!(self_of("dining.wfdx"), 500);
        assert_eq!(self_of("fd.injected"), 100);
    }

    #[test]
    fn layer_acc_counts_calls_and_time() {
        let acc = LayerAcc::shared();
        assert_eq!(acc.time(|| 7), 7);
        acc.add(2, 100);
        assert_eq!(acc.count(), 3);
        assert!(acc.ns() >= 100);
        assert_eq!(LayerAcc::default().ns_per_call(), 0.0);
    }
}
