//! # `dinefd-runtime` — the runtime-neutral layer
//!
//! Everything a *protocol* needs to be written once and executed on two very
//! different substrates lives here:
//!
//! * [`node::Node`] / [`node::Context`] — the process abstraction: an
//!   event-driven state machine taking atomic steps (message deliveries,
//!   local timer firings), emitting sends, timers and observations. Protocol
//!   logic is written against this interface **only**; it never learns which
//!   runtime is driving it.
//! * [`time::Time`] — the discrete global clock of the paper's model. The
//!   deterministic simulator interprets it as virtual ticks; the live
//!   runtime maps one tick to one millisecond of the wall clock. Processes
//!   never branch on it either way.
//! * [`id::ProcessId`] — dense process identifiers.
//! * [`rng::SplitMix64`] — deterministic, forkable randomness.
//! * [`clock::Clock`] — *wall-clock* reads as a capability: subsystems that
//!   need elapsed real time (fuzzing budgets, worker-thread accounting,
//!   live timers) take a clock instead of calling
//!   [`std::time::Instant::now`] inline, so tests can substitute a
//!   [`clock::ManualClock`].
//! * [`wire::Wire`] — a minimal, dependency-free binary codec for message
//!   types that must cross a real socket (the live transport's
//!   length-prefixed frames).
//! * [`runtime::Runtime`] — the contract both substrates implement: drive a
//!   set of nodes to a horizon and surrender the observation log. The
//!   differential convergence harness is generic over this trait.
//!
//! The deterministic simulator, `ShardedWorld` (crate `dinefd-sim`), is
//! one implementation of the contract; the loopback-TCP cluster of
//! `dinefd-live` is the second.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod clock;
pub mod id;
pub mod node;
pub mod rng;
pub mod runtime;
pub mod time;
pub mod wire;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use id::ProcessId;
pub use node::{Context, Node, TimerId};
pub use rng::SplitMix64;
pub use runtime::{ObsRecord, Runtime};
pub use time::Time;
pub use wire::{Wire, WireError, WireReader, WireWriter};
