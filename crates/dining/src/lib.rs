//! # `dinefd-dining` — the dining-philosophers substrate
//!
//! Dining philosophers (Dijkstra; generalized by Lynch to arbitrary conflict
//! graphs) is local mutual exclusion: a [`graph::ConflictGraph`] has one
//! vertex per diner and one edge per set of shared resources; each diner
//! cycles through *thinking → hungry → eating → exiting* and a dining
//! solution schedules the hungry→eating transitions.
//!
//! The paper's problem, **WF-◇WX**, combines:
//!
//! * **Wait-freedom** — if correct processes eat for finite time, every
//!   correct hungry process eventually eats, regardless of crashes;
//! * **Eventual weak exclusion (◇WX)** — in every run there is a time after
//!   which no two *live* neighbors eat simultaneously (finitely many
//!   scheduling mistakes are allowed).
//!
//! This crate provides:
//!
//! * the black-box interface [`participant::DiningParticipant`] that the
//!   necessity reduction in `dinefd-core` quantifies over;
//! * one engine per dining protocol — a crash-oblivious baseline
//!   ([`hygienic`]); the ◇P-based wait-free fork algorithm in the style of
//!   the paper's reference \[12\] ([`wfdx`]), whose trust-gated
//!   constructor is the T-based *perpetual*-exclusion (FTME) service for §9;
//!   one coordinator ([`coord`]) whose three grant regimes are the §3
//!   pathological-but-legal service, a spec-constrained adversarial service
//!   and a legal service with escalating unfairness for the §5.1 remark; and
//!   an eventually-2-fair upgrade for §8 ([`fair`]);
//! * trace checkers for ◇WX / WX / wait-freedom / eventual k-fairness
//!   ([`spec`]), and the one diner host ([`driver`]): a participant and its
//!   think/eat client over whichever failure-detector layer feeds it — an
//!   injected oracle, a heartbeat ◇P (the full stack), or `dinefd-core`'s
//!   extracted ◇P (the §8 pipeline).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod coord;
pub mod driver;
pub mod fair;
pub mod graph;
pub mod hygienic;
pub mod participant;
pub mod spec;
pub mod state;
pub mod wfdx;
pub mod wire;

pub use graph::ConflictGraph;
pub use participant::{DiningEffects, DiningIo, DiningMsg, DiningParticipant};
pub use spec::{DiningHistory, DiningViolation};
pub use state::{DinerPhase, DiningObs};
