//! # `dinefd-fuzz` — coverage-guided schedule fuzzing of the pair model
//!
//! Between the bounded explorer (exhaustive, but only to a depth frontier)
//! and the inductive checker (depth-unbounded, but abstract) sits a gap:
//! long adversarial schedules — late crashes, pathological delivery
//! orders, far-out convergence points — that neither engine visits. This
//! crate closes it with a coverage-guided fuzzer in the AFL tradition,
//! specialized to the closed pair model of `dinefd-explore`:
//!
//! * a **schedule** ([`schedule::Schedule`]) is a word of `u64` decisions;
//!   each word selects one enabled transition (`word % out_degree`), so
//!   every word sequence is a valid schedule and mutation is closed over
//!   the schedule space;
//! * **coverage** is the set of bit-packed [`dinefd_explore::StateCodec`]
//!   state fingerprints a run visits — a schedule earns a place in the
//!   [`corpus::Corpus`] exactly when it reaches a state no earlier
//!   schedule reached;
//! * the **oracle** is the paper's safety lemmas, the clauses of
//!   `dinefd_core::protocol` on each state's `abstract_of` view: every
//!   visited state runs through the lemma check `PairState::check_invariants`
//!   makes, every transition through the completeness-closure check, so a
//!   finding carries the same `"Lemma N violated: …"` message the explorer
//!   would report;
//! * every lemma-violating schedule is shrunk by the delta-debugging
//!   [`minimize()`] pass to a locally-minimal **replayable label prefix**
//!   that the `trace_replay` harness (and `PairState::successors` walking
//!   in general) reproduces.
//!
//! ## First-tripped-check attribution
//!
//! A finding's lemma key names the **first** check that trips along the
//! violating execution, not every lemma the underlying bug can break:
//! [`schedule::execute`] and [`minimize::replay`] are the same walk, one
//! edge at a time (advance by a label, closure-step check, then state
//! invariants), both stop at the first check it trips, and
//! [`engine::FuzzReport`] keeps one [`engine::Finding`] per distinct key.
//! The exhaustive explorer
//! (E7) instead enumerates *states*, so it reports every lemma a
//! mutation reaches. Concretely: `ModelMutation::StaleAckReplay` is
//! headlined by E7 as a Lemma-4 bug (the stale ack eventually flips the
//! trigger out of turn), but the fuzzer attributes the same incident to
//! `"Lemma 3 violated"` — the duplicate puts a `DX_i` message in transit
//! while `s_i` is not eating with `ping_i` raised, which Lemma 3 forbids
//! a step *before* the trigger flips, so Lemma 3 is what the replay
//! trips first. Both reports name
//! the same seeded bug; they differ only in which symptom along the
//! trajectory each engine stops at (pinned by the engine's unit suite
//! and the `seeded_bug_gate` integration tests).
//!
//! Determinism is load-bearing: all randomness flows from one
//! [`dinefd_sim::SplitMix64`] seed, the coverage set is only ever probed
//! (never iterated), and the corpus preserves insertion order — identical
//! seeds produce byte-identical corpora (checked via
//! [`corpus::Corpus::digest`]) and identical `fuzz.*` metrics.
//!
//! The fuzzer and the explorer read the same scenario document
//! ([`scenario_dsl`]): its `[model]` and `[fuzz]` sections parse straight
//! into a [`FuzzConfig`], whose `explore` is the explorer's
//! [`dinefd_explore::ExploreConfig`].

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod corpus;
pub mod engine;
pub mod minimize;
pub mod scenario_dsl;
pub mod schedule;

pub use corpus::{Corpus, CorpusEntry};
pub use engine::{Finding, FuzzConfig, FuzzReport, Fuzzer};
pub use minimize::{lemma_key, minimize, replay, MinimizeResult, ReplayOutcome};
pub use schedule::{execute, ExecOutcome, Schedule};
