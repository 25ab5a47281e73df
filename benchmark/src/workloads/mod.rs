//! The four workloads. Each sets itself up through [`crate::fixture::setup`],
//! runs its ops in a closed loop with one client until the measuring time
//! is over, checks every output against the set-up's reference, and hands
//! back a [`Report`].

pub mod cycle;
pub mod exec_uninterrupted;
pub mod server_mix;

use crate::config;
use crate::fixture::{Report, RunCx};
use crate::trace::Tracer;
use qsr_core::SuspendPolicy;
use qsr_exec::{PlanSpec, QueryExecution};
use qsr_storage::{Database, Result, Tuple};
use std::sync::Arc;

/// A workload of `BENCHMARK.json`.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Runs it.
    pub run: fn(&mut RunCx) -> Result<Report>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: &[Workload] = &[
    Workload {
        name: "exec_uninterrupted",
        run: exec_uninterrupted::run,
    },
    Workload {
        name: "cycle_dump",
        run: |cx| {
            cycle::run(
                cx,
                config::DUMP_POINTS,
                &SuspendPolicy::Optimized { budget: None },
            )
        },
    },
    Workload {
        name: "cycle_goback",
        run: |cx| {
            let budget = Some(config::GOBACK_BUDGET);
            cycle::run(
                cx,
                config::GOBACK_POINTS,
                &SuspendPolicy::Optimized { budget },
            )
        },
    },
    Workload {
        name: "server_mix",
        run: server_mix::run,
    },
];

/// Start `plan` and run it to completion inside a span called `name`
/// (with the `QueryExecution::start` call as its `exec.start` child).
/// Returns the output and the execution's work-unit count.
pub fn run_plan(
    tr: &mut Tracer,
    db: &Arc<Database>,
    name: &'static str,
    op: u64,
    plan: &PlanSpec,
    batch_size: usize,
) -> Result<(Vec<Tuple>, u64)> {
    let span = tr.enter(name, op);
    let start = tr.enter("exec.start", op);
    let started = QueryExecution::start(db.clone(), plan.clone());
    tr.exit(start);
    let result = started.and_then(|mut exec| {
        exec.set_batch_size(batch_size);
        let out = exec.run_to_completion()?;
        Ok((out, exec.work_units()))
    });
    tr.exit(span);
    result
}
