//! `explore_composed`: exhaustive depth-bounded search of the composed
//! model — successor generation, the state codec and the visited store, with
//! no simulator involved.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use dinefd_explore::{explore_composed, fingerprint, ComposedConfig, ComposedState, StateCodec};

use super::{repeat_for, Layers, Rep, Size, Traced, Workload};
use crate::host;
use crate::trace::{ratio, LayerAcc, Recorder};

/// Threads of the parallel variant measured beside the serial search.
const PAR_THREADS: usize = 2;

/// The composed-model search at a fixed depth.
#[derive(Debug)]
pub struct Explore {
    cfg: ComposedConfig,
}

impl Explore {
    /// Depth 18 with crashes and mistakes allowed: 596,688 distinct states,
    /// 1,709,247 transitions, a 30.5 MB visited arena.
    pub fn new(size: Size) -> Self {
        let max_depth = match size {
            Size::Full => 18,
            Size::Smoke => 10,
        };
        Explore { cfg: replica_config(max_depth) }
    }
}

/// The workload's configuration at `max_depth`.
pub fn replica_config(max_depth: u32) -> ComposedConfig {
    ComposedConfig {
        max_depth,
        max_states: 20_000_000,
        allow_crash: true,
        allow_mistakes: true,
        strict_seq: false,
        threads: 1,
        por: false,
    }
}

fn search(cfg: &ComposedConfig) -> (Rep, dinefd_explore::ComposedReport) {
    let report = explore_composed(cfg);
    let mut rep = Rep { ops: report.states_visited as u64, ..Rep::default() };
    rep.count("states", report.states_visited as u64);
    rep.count("transitions", report.transitions);
    rep.check(report.violations.is_empty(), || format!("violations: {:?}", report.violations));
    rep.check(report.deadlocks == 0, || format!("{} deadlocks", report.deadlocks));
    rep.check(!report.truncated, || "search truncated by its state budget".to_string());
    (rep, report)
}

/// What the benchmark-side BFS replica measured.
#[derive(Debug, Default)]
pub struct Replica {
    /// Distinct states within the depth bound.
    pub states: u64,
    /// Out-degree summed over the expanded states.
    pub transitions: u64,
    /// Encoded bytes summed over the distinct states.
    pub encoded_bytes: u64,
    /// `successors_into`, one call per expanded state.
    pub successors: LayerAcc,
    /// `encode_into` + `fingerprint`, one call per transition.
    pub codec: LayerAcc,
    /// `check_invariants`, one call per distinct state.
    pub invariants: LayerAcc,
}

/// Breadth-first replica of the search built on the model's public parts
/// only (`initial`, `successors_into`, `encode_into`, `fingerprint`,
/// `check_invariants`), with each of them timed. It visits exactly the
/// states the engine visits — those within `max_depth` steps of the initial
/// state — so what the engine spends beyond the replica's three spans is its
/// visited store and frontier.
pub fn bfs_replica(cfg: &ComposedConfig) -> Replica {
    let mut out = Replica::default();
    let mut seen: HashSet<Box<[u8]>> = HashSet::new();
    let mut buf = Vec::with_capacity(64);
    let mut succ = Vec::new();

    let initial = ComposedState::initial(cfg);
    initial.encode_into(&mut buf);
    out.encoded_bytes += buf.len() as u64;
    seen.insert(buf.as_slice().into());
    out.invariants.time(|| std::hint::black_box(initial.check_invariants()));
    let mut frontier = vec![initial];

    for _ in 0..cfg.max_depth {
        let mut next = Vec::new();
        for state in &frontier {
            succ.clear();
            out.successors.time(|| state.successors_into(cfg, &mut succ));
            out.transitions += succ.len() as u64;
            for (_, child) in succ.drain(..) {
                out.codec.time(|| {
                    buf.clear();
                    child.encode_into(&mut buf);
                    std::hint::black_box(fingerprint(&buf));
                });
                if seen.contains(buf.as_slice()) {
                    continue;
                }
                seen.insert(buf.as_slice().into());
                out.encoded_bytes += buf.len() as u64;
                out.invariants.time(|| std::hint::black_box(child.check_invariants()));
                next.push(child);
            }
        }
        frontier = next;
    }
    out.states = seen.len() as u64;
    out
}

impl Workload for Explore {
    fn seed_used(&self) -> bool {
        false
    }

    fn rep(&mut self) -> Rep {
        search(&self.cfg).0
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> Traced {
        let mut layers = Layers::new();
        let ((mut rep, report), engine_ns) = rec.span("search", |_| search(&self.cfg));
        let (replica, _) = rec.span("replica", |_| bfs_replica(&self.cfg));
        rep.check(replica.states == report.states_visited as u64, || {
            format!("replica visited {} states, engine {}", replica.states, report.states_visited)
        });
        rep.check(replica.transitions == report.transitions, || {
            format!(
                "replica took {} transitions, engine {}",
                replica.transitions, report.transitions
            )
        });

        let states = report.states_visited as f64;
        let parts = replica.successors.ns() + replica.codec.ns() + replica.invariants.ns();
        layers.insert("explore.composed.states", states);
        layers.insert("explore.composed.transitions", report.transitions as f64);
        layers.insert(
            "explore.composed.successors_ns_per_state",
            ratio(replica.successors.ns() as f64, states),
        );
        layers
            .insert("explore.codec.encode_ns_per_state", ratio(replica.codec.ns() as f64, states));
        layers.insert("explore.codec.bytes_per_state", ratio(replica.encoded_bytes as f64, states));
        layers.insert(
            "explore.invariants.ns_per_state",
            ratio(replica.invariants.ns() as f64, states),
        );
        layers.insert(
            "explore.search.self_ns_per_state",
            ratio(engine_ns.saturating_sub(parts) as f64, states),
        );
        layers.insert(
            "explore.search.probes_per_state",
            ratio(states + report.stats.fp_confirms.get() as f64, states),
        );
        layers.insert("explore.search.fp_collisions", report.stats.fp_collisions.get() as f64);

        let calls = vec![
            ("explore.search", "search", 1, engine_ns),
            (
                "explore.composed.successors",
                "explore.search",
                replica.successors.count(),
                replica.successors.ns(),
            ),
            ("explore.codec", "explore.search", replica.codec.count(), replica.codec.ns()),
            (
                "explore.invariants",
                "explore.search",
                replica.invariants.count(),
                replica.invariants.ns(),
            ),
        ];
        Traced { rep, layers, calls }
    }

    fn beside(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        budget: Duration,
        layers: &mut Layers,
    ) -> Vec<String> {
        let mut failures = Vec::new();
        if host::nproc() < PAR_THREADS {
            return failures;
        }
        rec.span("par2", |_| {
            let cfg = ComposedConfig { threads: PAR_THREADS, ..self.cfg };
            let runs = repeat_for(budget, 3, || {
                let t0 = Instant::now();
                let (rep, report) = search(&cfg);
                (t0.elapsed(), rep, report.stats)
            });
            let mut best = 0f64;
            for (wall, rep, stats) in &runs {
                failures.extend(rep.failures.iter().map(|f| format!("par2: {f}")));
                failures.extend(super::counter_diff("par2 vs serial", reference, rep));
                let rate = rep.ops as f64 / wall.as_secs_f64();
                if rate > best {
                    best = rate;
                    // Steals and conflicts are schedule-dependent; report the
                    // fastest run's, the one the rate comes from.
                    layers.insert("explore.parallel.steals", stats.steals.get() as f64);
                    layers.insert(
                        "explore.parallel.shard_conflicts",
                        stats.shard_conflicts.get() as f64,
                    );
                }
            }
            layers.insert("explore.parallel.par2_states_per_s", best);
        });
        failures
    }
}
