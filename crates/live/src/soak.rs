//! Sustained-load soak on the live runtime.
//!
//! Repeated short live trials, each crashing one process (rotating through
//! the ring), under clean links: the soak measures what the transport and
//! detector actually deliver on this machine — throughput in messages per
//! second and the tail of crash-detection latency — and gates on the ◇P
//! contract: **no false suspicion survives to the end of any trial**.
//! Transient wrongful suspicions are allowed (a loaded CI box can stall a
//! thread past any finite timeout — that is precisely the asynchrony ◇P
//! tolerates and the measured timeout absorbs); a *surviving* one is a
//! detector bug.
//!
//! The numbers land in `BENCH_live.json` under nondeterministic keys: they
//! describe a wall-clock run and are excluded from determinism diffs.

use dinefd_runtime::{ProcessId, Time};

use crate::harness::{run_live, DiffScenario};

/// Parameters of one soak.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// System size per trial.
    pub n: usize,
    /// Number of trials (each crashes one process).
    pub trials: usize,
    /// Heartbeat period in ms.
    pub period_ms: u64,
    /// Crash instant within each trial, ms.
    pub crash_at_ms: u64,
    /// Trial length, ms.
    pub horizon_ms: u64,
    /// Base seed; trial `t` runs with `seed + t`.
    pub seed: u64,
}

impl SoakConfig {
    /// A soak sized for CI: well under the 60-second box.
    pub fn quick() -> Self {
        SoakConfig {
            n: 4,
            trials: 6,
            period_ms: 8,
            crash_at_ms: 150,
            horizon_ms: 500,
            seed: 0x50AB,
        }
    }
}

/// What the soak measured.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Trials executed.
    pub trials: usize,
    /// Frames handed to a live node's `on_message` per wall-clock second,
    /// across trials (frames sent to a crashed process are not counted).
    pub msgs_per_sec: f64,
    /// 99th percentile of crash-detection latency (ms): time from the crash
    /// instant to the watcher's *permanent* suspicion of the crashed peer.
    pub p99_detection_ms: u64,
    /// Worst observed detection latency (ms).
    pub max_detection_ms: u64,
    /// Detection-latency samples (one per correct watcher per trial).
    pub detection_samples: usize,
    /// Correct-watcher→correct-peer suspicions still standing at the end of
    /// any trial. The soak gate requires this to be zero.
    pub surviving_false_suspicions: usize,
    /// Trials in which some correct watcher never permanently suspected the
    /// crashed process. The soak gate requires this to be zero.
    pub missed_detections: usize,
    /// Transient wrongful-suspicion intervals (informational, not gated).
    pub transient_mistakes: usize,
    /// Frames handed to live nodes across all trials.
    pub frames_delivered: u64,
    /// Total wall-clock time spent inside trials, ms.
    pub wall_ms: u64,
    /// TCP listeners one trial bound (the same in every trial).
    pub listeners: usize,
    /// Worker threads one trial spawned and joined (the same in every trial).
    pub worker_threads: usize,
}

impl SoakReport {
    /// The CI gate: every crash detected, and zero false suspicions
    /// surviving past (the trivially-zero) GST.
    pub fn gate_ok(&self) -> bool {
        self.surviving_false_suspicions == 0 && self.missed_detections == 0
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the soak.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    assert!(cfg.n >= 2, "a soak needs at least one watcher per crash");
    assert!(cfg.crash_at_ms < cfg.horizon_ms, "crash must fall inside the trial");
    let mut latencies: Vec<u64> = Vec::new();
    let mut surviving_false = 0usize;
    let mut missed = 0usize;
    let mut transient = 0usize;
    let mut frames = 0u64;
    let mut wall_ms = 0u64;
    let (mut listeners, mut worker_threads) = (0, 0);

    for t in 0..cfg.trials {
        let crashed = ProcessId::from_index(t % cfg.n);
        let scenario = DiffScenario {
            n: cfg.n,
            seed: cfg.seed.wrapping_add(t as u64),
            period: cfg.period_ms,
            crash: Some((crashed, cfg.crash_at_ms)),
            gst: 0,
            delay: 0,
            ramping: false,
            drop_per_mille: 0,
            reorder_per_mille: 0,
            horizon: cfg.horizon_ms,
        };
        let (outcome, stats) = run_live(&scenario);
        frames += stats.frames_delivered;
        wall_ms += stats.wall.as_millis() as u64;
        (listeners, worker_threads) = (stats.listeners, stats.worker_threads);
        transient += outcome.mistakes;
        let plan = scenario.crash_plan();
        for (watcher, suspected) in &outcome.verdict.final_suspicions {
            surviving_false += suspected.iter().filter(|q| !plan.is_faulty(**q)).count();
            match outcome.history.timeline(*watcher, crashed).true_from() {
                Some(Time(at)) => latencies.push(at.saturating_sub(cfg.crash_at_ms)),
                None => missed += 1,
            }
        }
    }

    latencies.sort_unstable();
    let secs = (wall_ms as f64 / 1_000.0).max(1e-9);
    SoakReport {
        trials: cfg.trials,
        msgs_per_sec: frames as f64 / secs,
        p99_detection_ms: percentile(&latencies, 0.99),
        max_detection_ms: latencies.last().copied().unwrap_or(0),
        detection_samples: latencies.len(),
        surviving_false_suspicions: surviving_false,
        missed_detections: missed,
        transient_mistakes: transient,
        frames_delivered: frames,
        wall_ms,
        listeners,
        worker_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_ceiling_rank() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 0.99), 40);
        assert_eq!(percentile(&v, 1.0), 40);
        assert_eq!(percentile(&[], 0.99), 0);
    }
}
