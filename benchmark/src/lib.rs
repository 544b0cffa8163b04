//! # `dinefd-benchmark` — the one yardstick
//!
//! Six workloads drive the stack through the library entry points the
//! `dinefd` subcommands call; four end-to-end metrics per workload carry
//! regression bounds, and a separate traced run attributes time to layers
//! from the outside in. `BENCHMARK.json` at the repository root and
//! [`spec`] define the vocabulary; `README.md` beside this crate explains
//! every choice.

#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod host;
pub mod measure;
pub mod results;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;
