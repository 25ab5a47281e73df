//! # qsr-bench
//!
//! Paper reproduction plus trace tools. The reproduction regenerates
//! every table and figure of the paper's evaluation (§5 Table 2, §6
//! Figures 8–14, §7 Figure 15 and Example 10; Figure 2's heap-state trace
//! as a bonus): each experiment is a module under [`experiments`] with a
//! thin binary wrapper in `src/bin/`, `all_experiments` runs the suite and
//! emits `EXPERIMENTS.md`-ready markdown, and Criterion microbenchmarks
//! live in `benches/`. The trace tools read the flight recorder's JSONL:
//! `trace_check` validates it against the event schema, `trace_summary`
//! folds it through [`attribution`], `oracle_smoke` produces one, and
//! [`json`] is the parser they share. Wall-clock performance claims are
//! not made here — `benchmark/` at the repository root is the one harness
//! for those.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod experiments;
pub mod harness;
pub mod json;

pub use harness::*;
