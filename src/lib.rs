//! # dinefd — wait-free dining under eventual weak exclusion ⇔ ◇P
//!
//! A full reproduction, as a Rust library, of *"The Weakest Failure Detector
//! for Wait-Free Dining under Eventual Weak Exclusion"* (Sastry, Pike, Welch;
//! SPAA'09, corrigendum SPAA'10).
//!
//! The paper's headline result: the **eventually perfect failure detector
//! ◇P** is the *weakest* oracle with which wait-free dining philosophers
//! under eventual weak exclusion (WF-◇WX) can be solved. Sufficiency was
//! known; the paper proves necessity with an asynchronous reduction that
//! runs, per monitored process, two black-box dining instances whose
//! witness/subject thread hand-off turns wait-freedom + eventual exclusion
//! into an eventually reliable crash detector.
//!
//! This crate is the facade over the workspace:
//!
//! * [`sim`] — deterministic discrete-event simulator of the paper's
//!   asynchronous message-passing model (reliable non-FIFO channels,
//!   crash faults, a conceptual global clock);
//! * [`fd`] — failure-detector classes (P, ◇P, S, T), their trace-level
//!   specification checkers, scripted oracles, and a real heartbeat ◇P for
//!   partially synchronous networks;
//! * [`dining`] — the dining-philosophers substrate: conflict graphs, the
//!   black-box participant interface, and six interchangeable services
//!   (Chandy–Misra hygienic, ◇P-based WF-◇WX, the §3 pathological variant,
//!   a spec-constrained adversarial service, T-based perpetual-WX FTME, and
//!   an eventually-2-fair algorithm);
//! * [`core`] — the paper's contribution: Alg. 1/Alg. 2 as pure
//!   guarded-command machines, the pair/all-pairs extraction hosts, the
//!   flawed reference-\[8\] construction (§3), the T-extraction (§9) and the
//!   eventual-2-fairness pipeline (§8);
//! * [`explore`] — bounded exhaustive checking of the paper's safety lemmas
//!   over every interleaving of the pair model, plus weakly-fair liveness
//!   runs.
//!
//! The `dinefd` command-line tool (`analyze`, `fuzz`, `extract`, `live`) is
//! the binary of the `dinefd-apps` package, not part of this facade.
//!
//! This crate defines nothing of its own. The one dining host,
//! [`dining::driver::DiningDriverNode`], runs a diner over any failure
//! detector layer: an injected oracle, the reduction's extracted ◇P (§8),
//! or a real heartbeat ◇P under partial synchrony —
//! [`dining::driver::run_full_stack`] closes the loop the paper describes
//! (partial synchrony ⇒ ◇P ⇒ WF-◇WX ⇒ ◇P).
//!
//! ## Quickstart
//!
//! ```
//! use dinefd::prelude::*;
//!
//! // Extract ◇P from a black-box WF-◇WX service for the pair (p0 watches p1),
//! // with p1 crashing mid-run.
//! let mut sc = Scenario::pair(BlackBox::WfDx, 42);
//! sc.crashes = CrashPlan::one(ProcessId(1), Time(8_000));
//! let crashes = sc.crashes.clone();
//! let result = run_extraction(sc);
//!
//! // The extracted detector permanently suspects the crashed process…
//! let detections = result.history.strong_completeness(&crashes).unwrap();
//! assert!(detections[0].detected_from > detections[0].crashed_at);
//! // …and the run is classified as an eventually perfect detector.
//! assert!(result.history.classify(&crashes).contains(&OracleClass::EventuallyPerfect));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub use dinefd_core as core;
pub use dinefd_dining as dining;
pub use dinefd_explore as explore;
pub use dinefd_fd as fd;
pub use dinefd_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dinefd_core::{
        all_ordered_pairs, record_extraction, run_extraction, run_fair_over_extraction,
        run_flawed_pair, suspicion_history, BlackBox, ExtractionResult, OracleSpec, PairTimelines,
        ReductionNode, Scenario,
    };
    pub use dinefd_dining::driver::{run_full_stack, DiningDriverNode, Workload};
    pub use dinefd_dining::{
        ConflictGraph, DinerPhase, DiningHistory, DiningIo, DiningMsg, DiningParticipant,
    };
    pub use dinefd_fd::{
        FdQuery, HeartbeatConfig, HeartbeatFd, InjectedOracle, MistakePlan, OracleClass,
        SuspicionHistory,
    };
    pub use dinefd_sim::{CrashPlan, DelayModel, ProcessId, SplitMix64, Time, World, WorldConfig};
}
