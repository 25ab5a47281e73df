//! # qsr-exec
//!
//! Suspendable iterator-based query execution (paper §2–§4): the extended
//! operator interface (`Open`/`GetNext`/`Close` plus `SignContract`,
//! `Suspend()`, `Suspend(Ctr)`, `Resume`), the physical operators with
//! their semantics-driven checkpointing, the plan specification, and the
//! execute/suspend/resume lifecycle driver.

#![forbid(unsafe_code)]

pub mod context;
pub mod driver;
pub mod operator;
pub mod ops;
pub mod plan;
pub mod recovery;
pub mod writers;

pub use context::{DumpWatchdog, ExecContext, SalvageCache, SuspendTrigger, WorkUnitObserver};
pub use driver::{reclaim_spill_files, QueryExecution, Rung, SuspendOptions, SuspendedHandle};
pub use writers::DumpPipeline;
pub use recovery::{
    clear_manifest, clear_manifest_named, read_manifest, read_manifest_named, with_backoff,
    with_retries, BackoffSchedule, ResumeError, SuspendManifest, RESUME_BACKOFF, SUSPEND_MANIFEST,
};
pub use operator::{Operator, Poll, SuspendMode};
pub use ops::{
    AggFn, BlockNlj, Filter, HashAgg, HashJoin, IndexNlj, MergeJoin, Predicate, Project,
    TableScan,
};
pub use plan::{build_plan, build_plan_with, plan_schema, BuildOptions, BuiltPlan, PlanSpec};
