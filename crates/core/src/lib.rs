//! # `dinefd-core` — the paper's contribution: extracting ◇P from wait-free
//! dining under eventual weak exclusion
//!
//! This crate implements the necessity reduction of *"The Weakest Failure
//! Detector for Wait-Free Dining under Eventual Weak Exclusion"* (Sastry,
//! Pike, Welch; SPAA'09, corrigendum SPAA'10): an asynchronous, oracle-free
//! transformation that, given any black-box solution to WF-◇WX, implements
//! the eventually perfect failure detector ◇P. Together with the sufficiency
//! results of the paper's references \[12, 13\], this makes ◇P the *weakest*
//! oracle for the problem.
//!
//! The key idea (the paper's Section 5): wait-freedom plus eventual weak
//! exclusion can be converted into an eventually reliable timeout. For each
//! ordered pair `(p, q)` where `p` monitors `q`, the two processes compete in
//! **two** dining instances `DX_0`, `DX_1`. `p`'s two *witness* threads take
//! turns eating; `q`'s two *subject* threads coordinate a hand-off so that
//! the start and end of each subject's eating session overlaps the other's —
//! in the exclusive suffix, a witness therefore cannot eat twice in `DX_i`
//! without the subject eating in between, which throttles the witness and
//! converts "`p` ate without banking a ping from `q`" into reliable evidence.
//!
//! * [`machines`] — Alg. 1 (witness) and Alg. 2 (subject) as pure
//!   guarded-command machines, plus the hardened sequence-tagged variant.
//! * [`host`] — the one event-driven host every extractor runs on: a
//!   [`host::Side`] is one side of one pair (what an extractor *is*), a
//!   [`host::Bank`] holds a process's pairs and calls the black boxes, a
//!   [`host::PairNode`] is one process; [`host::ReductionNode`] is that node
//!   over the paper's machines at two instances per pair.
//! * [`detector`] — the one fold from Alg. 1's outputs to a
//!   [`dinefd_fd::SuspicionHistory`] (fed live, or replaying a recorded
//!   trace) and Fig. 1 pair timelines.
//! * [`scenario`] — one-call assembly of extraction runs over any black box.
//! * [`flawed_cm`] — the earlier contention-manager reduction of the paper's
//!   reference \[8\], reproduced faithfully so experiment E4 can demonstrate
//!   the vulnerability the paper identifies (a single dining instance plus
//!   heartbeats is *not* black-box portable): two one-instance sides on the
//!   same host, plus a heartbeat timer.
//! * [`single_dx`] — the single-instance ablation (subject exits properly,
//!   unlike \[8\]) which still fails on a legal-but-unfair black box — the
//!   experiment that shows why the paper needs TWO instances (E9): two more
//!   one-instance sides on the same host.
//! * [`fairness`] — the Section 8 corollary: dining + extracted ◇P ⇒
//!   eventually 2-fair dining.
//!
//! Applied to a *perpetual* weak-exclusion box (FTME), the same reduction
//! extracts the trusting oracle T — the Section 9 corollary; experiment E5
//! checks the extracted history against T's specification.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod detector;
pub mod fairness;
pub mod flawed_cm;
pub mod host;
pub mod machines;
pub mod protocol;
pub mod scenario;
pub mod single_dx;
pub mod wire;

pub use detector::{suspicion_history, HistorySink, PairTimelines};
pub use fairness::{run_fair_over_extraction, FairnessResult};
pub use flawed_cm::{run_flawed_pair, FlawedCmNode};
pub use host::{DxEndpoint, RedMsg, RedObs, ReductionNode, Role};
pub use machines::{SubjectMachine, WitnessMachine};
pub use scenario::{
    all_ordered_pairs, record_extraction, run_extraction, BlackBox, ExtractionResult, OracleSpec,
    Scenario, MAX_N,
};
pub use single_dx::{run_single_pair, SingleDxNode};
