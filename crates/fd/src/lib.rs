//! # `dinefd-fd` — failure detectors: classes, implementations, and checkers
//!
//! A failure detector is a distributed oracle that each process can query for
//! a set of processes currently *suspected* of having crashed (Chandra &
//! Toueg). Classes are defined by a **completeness** property (restricting
//! false negatives) and an **accuracy** property (restricting false
//! positives). The classes relevant to the paper:
//!
//! * **◇P (eventually perfect)** — *strong completeness*: every crashed
//!   process is eventually permanently suspected by every correct process;
//!   *eventual strong accuracy*: there is a time after which no correct
//!   process is suspected by any correct process. ◇P may wrongfully suspect
//!   correct processes finitely many times per run.
//! * **P (perfect)** — strong completeness + *perpetual* strong accuracy.
//! * **S (strong)** — strong completeness + *perpetual weak accuracy*: some
//!   correct process is never suspected by any live process.
//! * **T (trusting)** — strong completeness + *trusting accuracy*: every
//!   correct process is eventually permanently trusted, and at all times, if
//!   T stops trusting a process then that process has crashed.
//!
//! This crate provides three things:
//!
//! 1. [`spec`] — trace-level checkers that decide, for a recorded run, which
//!    of the above properties a suspicion history satisfies. These implement
//!    the paper's *definitions* directly and are the ground truth for every
//!    experiment in `EXPERIMENTS.md`.
//! 2. [`injected`] — an omniscient scripted oracle used as the ◇P (or P, or
//!    T) module *underneath* black-box dining implementations. Its wrongful
//!    suspicions are adversary-controlled, letting experiments probe
//!    worst-case finite prefixes.
//! 3. [`heartbeat`] — a real message-passing ◇P (heartbeats + adaptive
//!    timeouts) that is correct in the partially synchronous delay model of
//!    `dinefd-sim`, demonstrating that the injected module corresponds to an
//!    implementable artifact.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod class;
pub mod heartbeat;
pub mod injected;
pub mod spec;

pub use class::OracleClass;
pub use heartbeat::{HeartbeatConfig, HeartbeatFd};
pub use injected::{FdQuery, InjectedOracle, MistakePlan};
pub use spec::SuspicionHistory;
