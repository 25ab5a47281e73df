//! # qsr-oracle
//!
//! Differential suspend-point oracle. The correctness contract of query
//! suspend/resume is *interference-freedom*: a query that is suspended and
//! resumed — at any work-unit boundary, any number of times, under any
//! recoverable fault — must deliver exactly the tuple sequence of an
//! uninterrupted run. This crate turns that contract into an executable
//! oracle:
//!
//! * **Exhaustive sweep** — suspend at every k-th work-unit boundary of a
//!   corpus query, resume in a fresh database handle (the "new process"),
//!   and diff the concatenated output against the golden run.
//! * **Multi-suspend chains** — suspend → resume → suspend again, up to
//!   depth 3, exercising re-suspension of freshly resumed state.
//! * **Randomized fault schedules** — a seeded PRNG (no wall-clock
//!   entropy) scripts the [`FaultInjector`] with crash / torn / transient /
//!   permanent write faults and read bit-flips or transient read bursts at
//!   random ordinals during the suspend *or* the resume phase. The oracle
//!   asserts the paper's recovery ladder: clean recovery with identical
//!   output, or a typed [`ResumeError`](qsr_exec::ResumeError) followed by
//!   a successful fallback re-execution that still matches the golden run.
//! * **Disk pressure** — a scenario may carry a quota headroom
//!   ([`Scenario::quota`]): the runner caps the disk at
//!   `used_bytes + headroom` for the suspend attempt, driving the
//!   suspend driver's degradation ladder. A committed suspend (at any
//!   rung) must resume to golden output; a clean abort must leave the
//!   pre-suspend on-disk state, verified by re-running from it.
//!
//! Every scenario serializes to a one-line repro token
//! (`QSR_ORACLE_CASE=…`); a failing randomized run prints its token and a
//! greedy [`shrink`]er minimizes it (suspend point, fault ordinals, pool
//! pages, dump writers) before the harness panics, so the bug report is
//! the smallest scenario that still fails.

#![forbid(unsafe_code)]

#![warn(missing_docs)]

mod runner;
mod scenario;
mod shrink;

pub use runner::{Oracle, FI_SEED};
pub use scenario::{Mode, Policy, Scenario};
pub use shrink::shrink;
// Re-exported so scenario builders can spell the skew axis without a
// direct qsr-workload dependency.
pub use qsr_workload::SkewProfile;
