//! # `dinefd-explore` — bounded exhaustive checking of the reduction
//!
//! The SPAA'10 corrigendum to this paper exists because proofs about
//! message regimes are delicate; this crate treats the paper's safety lemmas
//! as machine-checkable artifacts. It builds a *closed* nondeterministic
//! model of one monitoring pair — the pure witness/subject machines of
//! `dinefd-core` composed with a spec-level dining service (grants chosen by
//! the explorer, exclusive after an arbitrarily-chosen convergence point)
//! and explicit in-flight ping/ack multisets with non-FIFO delivery — and
//! explores **every interleaving** up to a depth bound.
//!
//! Checked at every reachable state (experiment E7):
//!
//! * **Lemma 2**: `s_i` not eating ⇒ `ping_i = true`;
//! * **Lemma 3**: `s_i` not eating ∧ `ping_i` ⇒ no ping/ack of `DX_i` in
//!   transit;
//! * **Lemma 4**: `s_i` hungry ⇒ `trigger = i`;
//! * **Lemma 9**: some witness thread is thinking;
//! * model soundness: after convergence the two endpoints of an instance
//!   never eat simultaneously;
//! * absence of deadlock states.
//!
//! Checked across every transition (the inductive crux of Theorem 1):
//! once `q` has crashed with no pings in flight and no banked ping, that
//! condition is closed under all transitions and the suspicion output is
//! monotone (never returns to trust).
//!
//! The liveness half of the lemmas (5, 7, 10, 11, 12 — things *happen*
//! infinitely often) cannot be established by finite safety search; the
//! [`mod@fair_run`] module drives the same model under a weakly-fair deterministic
//! schedule and checks the progress counters instead.
//!
//! ## The search
//!
//! Both explorers, and the reachability probe [`find_reachable`], run on
//! the one engine in [`mod@engine`]: a breadth-first loop on the calling
//! thread whose queue is one fingerprinted visited store, in one fixed
//! order, so every figure repeats. Each state is expanded once, at its
//! shortest distance from the root, so every counterexample path is a
//! shortest one. Codec counters come back in [`engine::SearchStats`]; the
//! search reads no clock, so a caller that wants throughput times the call.
//!
//! ## Mutation testing
//!
//! A checker that never fires is indistinguishable from a checker that
//! cannot fire. [`ExploreConfig::subject_mutation`] /
//! [`ExploreConfig::model_mutation`] seed known bugs into the subject
//! machine and the wire model (skip a ping-disable, ignore the Lemma-4
//! trigger guard, drop a ping send, replay a stale ack…); the
//! `seeded_bugs` integration suite asserts the lemma checks actually catch
//! them, with lemma-attributed, replayable counterexample traces
//! ([`engine::ViolationRecord`]).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod codec;
pub mod composed;
pub mod engine;
pub mod fair_run;
pub mod invariants;
pub mod pair_model;
pub mod search;
pub(crate) mod visited;

pub use codec::{fingerprint, StateCodec};
pub use composed::{
    explore_composed, ComposedConfig, ComposedLabel, ComposedReport, ComposedState,
};
pub use engine::{SearchReport, SearchStats, ViolationKind, ViolationRecord};
pub use fair_run::{fair_run, fair_run_mutated, FairRunReport};
pub use invariants::{
    check_closure_step, check_state, exclusion_holds, in_completeness_closure, lemma2_holds,
    lemma3_holds, lemma4_holds, lemma9_holds, InvariantView,
};
pub use pair_model::{ExploreConfig, ModelMutation, PairState, TransitionLabel};
pub use search::{explore, explore_seeded, find_reachable, fmt_path, ExploreReport};

/// Re-export: machine-level seeded bugs live next to the machines.
pub use dinefd_core::machines::SubjectMutation;
