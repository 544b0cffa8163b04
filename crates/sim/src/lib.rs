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
//!   into `k` shards, one per worker thread
//!   ([`world::WorldConfig::threads`]), and their pending events keyed by
//!   virtual [`time::Time`] (the paper's clock `T`); its schedule is the
//!   same for every `k`, and [`world::World`] is the engine at `k = 1`;
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
//! * a run's output — its crashes and application-level observations —
//!   leaves the engine only through the shards' sinks; a [`trace::Trace`]
//!   sink records it ([`world::World`] is one shard recording into one),
//!   and the temporal property checkers in [`props`] (and in the
//!   `dinefd-fd` / `dinefd-dining` crates) evaluate the paper's
//!   specifications over the recording. Messages are never recorded: the
//!   properties are read from what processes output, not from the wire.
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
//! Sinks: each shard owns one [`world::ObsSink`]
//! ([`shard::ShardedWorld::new_with_shard_sinks`]) that receives its
//! processes' crashes and observations as they happen, and the world hands
//! the sinks back in shard order ([`shard::ShardedWorld::into_sinks`]), so
//! consumers fold run output online, and a run that records nothing keeps
//! a resident footprint that does not grow with its length; a recording is
//! one [`trace::Trace`] sink per shard, joined by [`trace::Trace::merge`].
//! Optional *envelope batching*
//! ([`world::WorldConfig::batch_envelopes`], off by default) gives all
//! messages one step sends to the same destination a single delay draw:
//! each is still its own delivery, and they arrive at one instant as
//! adjacent steps of the receiver, in send order; occupancy lands in
//! [`metrics::SimMetrics::envelope_occupancy`].
//!
//! A run is configured in code, through [`world::WorldConfig`]; the
//! scenario document of `dinefd-fuzz` describes the fuzzer's and the
//! explorer's runs, not the simulator's.

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

#[cfg(test)]
#[path = "../tests/support/recorded.rs"]
mod recorded;
