//! # `dinefd-sim` — asynchronous message-passing system simulator
//!
//! This crate is the *system substrate* for the `dinefd` reproduction of
//! "The Weakest Failure Detector for Wait-Free Dining under Eventual Weak
//! Exclusion" (Sastry, Pike, Welch; SPAA'09, corrigendum SPAA'10).
//!
//! The paper's technical framework (its Section 4) posits:
//!
//! * a finite set of processes `Π` executing **atomic steps** — in each step a
//!   process receives messages, makes a state transition, and sends messages;
//! * **reliable, non-FIFO channels**: every message sent to a correct process
//!   is eventually received; messages are neither lost, duplicated, nor
//!   corrupted; delivery delay is unbounded;
//! * **crash faults**: a faulty process ceases execution without warning and
//!   never recovers; correct processes take infinitely many steps;
//! * a **discrete global clock** `T` (ticks ∈ ℕ) that is a conceptual device
//!   inaccessible to the processes themselves.
//!
//! The simulator implements exactly these axioms as a deterministic
//! discrete-event machine:
//!
//! * [`shard::ShardedWorld`] owns a set of [`node::Node`]s, partitioned
//!   into `k` shards, and their pending events keyed by virtual
//!   [`time::Time`] (the paper's clock `T`); its schedule is the same for
//!   every `k`, a world that runs on one thread holds one shard, and
//!   [`world::World`] is the engine at `k = 1`;
//! * the atomic step itself — crash discard, the node's `Context`, every
//!   per-step counter, send-target and clock-horizon checks, effect routing
//!   — is stated once, in the crate-private `step` module, and every shard
//!   drives it;
//! * sends are assigned delivery delays by a pluggable [`net::DelayModel`]
//!   (uniform, heavy-tailed, partially synchronous with a global
//!   stabilization time, or a scripted adversary) — varying delays make the
//!   channels non-FIFO while event-queue delivery keeps them reliable;
//! * [`fault::CrashPlan`] injects crash faults at chosen instants; events of
//!   a crashed process are discarded, so it "ceases execution without
//!   warning";
//! * every run records a [`trace::Trace`] of sends, deliveries, crashes and
//!   application-level observations, over which the temporal property
//!   checkers in [`props`] (and in the `dinefd-fd` / `dinefd-dining` crates)
//!   evaluate the paper's specifications.
//!
//! Determinism: all randomness flows from a single [`rng::SplitMix64`] seed,
//! so every run is exactly reproducible — a necessity for the experiment
//! tables in `EXPERIMENTS.md`.
//!
//! Observability: every world carries a [`metrics::SimMetrics`] set
//! (counters, queue-depth gauge, per-delay histogram) updated inline on the
//! event loop and exported as a seed-deterministic [`metrics::MetricMap`],
//! which is what the `BENCH_experiments.json` golden records. The simulator
//! reads no wall clock; callers that want a run's duration time the call.
//!
//! Streaming: a [`world::ObsSink`] attached via
//! [`shard::ShardedWorld::new_with_sink`] receives every observation as it
//! is routed, so consumers can fold run output online instead of
//! materializing the full trace; combined with
//! [`world::WorldConfig::observation_events_off`] the run's resident
//! footprint no longer grows with its length. Optional *envelope batching*
//! ([`world::WorldConfig::batch_envelopes`], off by default) gives all
//! messages one step sends to the same destination a single delay draw:
//! each is still its own delivery, and they arrive at one instant as
//! adjacent steps of the receiver, in send order; occupancy lands in
//! [`metrics::SimMetrics::envelope_occupancy`].
//!
//! The scenario DSL that describes a run's delay model and crash schedule
//! as text lives in `dinefd-fuzz` (`dinefd_fuzz::scenario_dsl`), beside
//! the fuzzer and explorer configurations it also fills.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod props;
pub mod shard;
pub mod stats;
mod step;
pub mod trace;
pub mod wheel;
pub mod world;

// The runtime-neutral layer (process abstraction, virtual time, RNG, clock)
// lives in `dinefd-runtime`; re-export its modules under the historical
// paths so `dinefd_sim::id::ProcessId` etc. keep working.
pub use dinefd_runtime::{clock, id, node, rng, time};

pub use dinefd_runtime::{
    Clock, ManualClock, MonotonicClock, ObsRecord, Runtime, Wire, WireError, WireReader, WireWriter,
};
pub use event::QueueBackend;
pub use fault::CrashPlan;
pub use id::ProcessId;
pub use metrics::{Counter, Gauge, Histogram, MetricMap, SimMetrics, WorkerStats};
pub use net::{Adversary, DelayModel};
pub use node::{Context, Node, TimerId};
pub use props::BoolTimeline;
pub use rng::SplitMix64;
pub use shard::ShardedWorld;
pub use stats::Summary;
pub use time::Time;
pub use trace::{Trace, TraceEvent};
pub use world::{ObsSink, World, WorldConfig};
