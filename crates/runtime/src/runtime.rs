//! The contract every transport backend implements.
//!
//! A runtime owns a set of [`Node`] instances, delivers their messages and
//! timers, and records the observations they emit. The deterministic
//! simulator (`dinefd-sim`) advances a virtual clock and replays delay
//! draws from a seed; the live cluster (`dinefd-live`) runs one OS thread
//! per process over loopback TCP and maps one virtual tick to one
//! millisecond of wall time. Code that only needs "run these nodes to a
//! horizon and give me the observation log" — the differential convergence
//! harness above all — is generic over this trait and cannot tell the two
//! apart except by timing.

use crate::id::ProcessId;
use crate::node::Node;
use crate::time::Time;

/// One timestamped observation emitted by a process.
///
/// `at` is the runtime's own notion of time — virtual ticks for the
/// simulator, milliseconds since cluster start for the live runtime. The
/// differential harness compares observation *sequences per process* and
/// final states, never raw timestamps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsRecord<O> {
    /// When the observation was recorded, in runtime-local ticks.
    pub at: Time,
    /// The process that emitted it.
    pub who: ProcessId,
    /// The observation payload.
    pub obs: O,
}

/// A substrate that can drive a set of nodes to a horizon.
pub trait Runtime<N: Node> {
    /// Runs every process from its `on_start` step until the runtime-local
    /// clock reaches `horizon`, returning all observations emitted, in a
    /// per-process causally ordered sequence (observations of one process
    /// appear in the order it emitted them; interleaving across processes
    /// is runtime-specific).
    fn run_to_horizon(&mut self, horizon: Time) -> Vec<ObsRecord<N::Obs>>;
}
