//! # `dinefd-live` — the live loopback runtime and the sim/live differential
//!
//! The second implementation of the runtime-neutral node boundary from
//! `dinefd-runtime`: where `dinefd-sim` schedules a [`Node`] inside a
//! deterministic discrete-event world, this crate runs the *identical*
//! node as one event loop per OS thread over its own non-blocking
//! loopback-TCP connections (one per pair of processes), with wall-clock
//! timers and a fault filter on each link's receiving end — crash, fixed
//! or ramping delay-until-GST, reorder, and drop, the live analogue of the
//! simulator's `DelayModel`/`CrashPlan`.
//!
//! Offline-safe by construction: every socket is `127.0.0.1`, every port
//! ephemeral, every thread scoped and joined before a run returns.
//!
//! * [`frame`] — length-prefixed framing (one `write` per frame, a pure
//!   splitter for frames in a read buffer) and the connection-opening
//!   hello.
//! * [`fault`] — per-link fault schedules ([`LinkFault`]), applied by the
//!   receiving event loop between the socket and the node; the delay line
//!   is a series of release instants, never a sleep.
//! * [`cluster`] — [`LiveCluster`], the [`Runtime`] implementation
//!   (1 virtual tick = 1 ms of wall clock).
//! * [`harness`] — the differential convergence harness: one scenario run
//!   on both substrates must yield the same timing-free [`Verdict`].
//! * [`soak`] — sustained-load soak measuring msgs/sec and p99
//!   crash-detection latency, gated on zero surviving false suspicions.
//!
//! [`Node`]: dinefd_runtime::Node
//! [`Runtime`]: dinefd_runtime::Runtime

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fault;
pub mod frame;
pub mod harness;
pub mod soak;

pub use cluster::{LiveCluster, LiveConfig, LiveStats};
pub use fault::LinkFault;
pub use harness::{
    run_differential, run_live, run_sim, DiffReport, DiffScenario, RuntimeOutcome, Verdict,
};
pub use soak::{run_soak, SoakConfig, SoakReport};
