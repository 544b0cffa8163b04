//! # `dinefd-analyze` — static analysis of the reduction
//!
//! The explorer (`dinefd-explore`) checks the paper's safety lemmas up to a
//! depth bound; this crate removes the bound. It re-expresses the whole
//! closed pair model as a **guarded-command IR** ([`ir`]) over a finite
//! abstract domain (machine bits + phases + a saturating-counter wire) —
//! its guards and updates the one protocol text of
//! [`dinefd_core::protocol`], which the executable machines run too, its
//! invariant clauses written beside them ([`protocol`]), all read three
//! ways here: executed, bit-blasted, printed — tests that the abstract wire
//! simulates the explorer's concrete one (`tests/ir_conformance.rs`), and
//! then checks each lemma **inductively** ([`induct`]): every action fired
//! from every
//! invariant-satisfying typed state must land back inside the invariant.
//! What passes holds at *any* depth, for *any* schedule.
//!
//! Failures come back as concrete counterexamples-to-induction — (pre,
//! action, post) triples — classified *real* (pre-state reachable; the
//! seeded explorer replays it into a genuine violation) or *spurious*
//! (an abstraction artifact; a prompt to strengthen the invariant). The
//! seeded-mutation gate in `tests/induction.rs` keeps the checker honest in
//! both directions: safety-breaking mutations must produce real CTIs,
//! safety-silent ones must still pass induction.
//!
//! The explicit sweep scales as `(wire_cap + 1)⁴` and is practical only at
//! the default cap 2. The **symbolic engine** ([`kinduct`]) proves the same
//! obligations by SAT: [`cnf`] bit-blasts the typed domain and the guarded
//! transition relation (Tseitin encoding), [`sat`] is a self-contained
//! deterministic CDCL solver, and [`run_kinduction`] discharges base and
//! step cases as (un)satisfiability queries — at cap 2 byte-for-byte
//! agreeing with the enumerator (verdicts *and* retained CTI sets), at caps
//! up to 8 reaching domains the enumerator cannot. [`tla`] prints the same
//! definitions as a deterministic TLA+ module for cross-validation with TLC.
//!
//! [`lints`] adds five cheap semantic audits of the IR and the machine
//! codecs (guard disjointness, dead guards, duplicate-delivery idempotence,
//! pack/unpack codomain completeness, guard/handler completeness).
//!
//! Entry points: [`run_induction`], [`run_kinduction`], [`run_lints`], and
//! [`tla::render_tla`]; the `dinefd analyze` CLI subcommand (`crates/apps`)
//! wraps all but the enumerator, and bench experiments E11/E13 wrap them.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cnf;
pub mod induct;
pub mod ir;
pub mod kinduct;
pub mod lints;
pub mod sat;
pub mod tla;

pub use dinefd_core::protocol;
pub use induct::{
    clause_mask, run_induction, Clause, ClosureVerdict, Cti, CtiClass, CtiClassifier,
    InductOptions, InductionRun, LemmaSpec, LemmaVerdict, ALL_CLAUSES, LEMMA_SPECS,
};
pub use ir::{AbsState, Action, ActionId, Ir, IrConfig, MAX_WIRE_CAP, MIN_WIRE_CAP, WIRE_CAP};
pub use kinduct::{
    agrees_with_explicit, render_kinduct_summary, run_kinduction, KinductOptions, KinductRun,
    SymbolicLemmaVerdict,
};
pub use lints::{run_lints, LintReport};
pub use tla::render_tla;
