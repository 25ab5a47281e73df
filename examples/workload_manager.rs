//! A miniature workload manager — the paper's §1 "queries with different
//! priorities" setting run end to end: several low-priority analytical
//! queries share the machine; whenever a high-priority query arrives, the
//! *running* low-priority query is suspended under a tight budget, parked,
//! and later resumed round-robin. No low-priority work is ever lost or
//! duplicated (verified against uninterrupted baselines). Each parked
//! query commits its suspends under its own manifest name, so one
//! query's generation GC never collects another's blobs.
//!
//! ```sh
//! cargo run --example workload_manager
//! ```

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{AggFn, PlanSpec, Predicate, QueryExecution, SuspendTrigger, SuspendedHandle};
use qsr::storage::{Database, Tuple};
use qsr::workload::{generate_table, TableSpec};
use std::collections::VecDeque;

enum Parked {
    Fresh(PlanSpec),
    Suspended(SuspendedHandle),
}

struct LowPriorityQuery {
    name: &'static str,
    /// Manifest sidecar this query's suspends commit under.
    manifest: String,
    state: Parked,
    collected: Vec<Tuple>,
    expected: usize,
}

fn main() -> qsr::storage::Result<()> {
    let dir = std::env::temp_dir().join(format!("qsr-wlm-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let db = Database::open_default(&dir)?;
    generate_table(&db, &TableSpec::new("facts", 30_000).payload(48))?;
    generate_table(&db, &TableSpec::new("dim", 1_200).payload(48))?;

    // Three low-priority analytical queries.
    let plans: Vec<(&'static str, PlanSpec)> = vec![
        (
            "Q1 join",
            PlanSpec::BlockNlj {
                outer: Box::new(PlanSpec::Filter {
                    input: Box::new(PlanSpec::TableScan { table: "facts".into() }),
                    predicate: Predicate::IntLt { col: 1, value: 400 },
                }),
                inner: Box::new(PlanSpec::TableScan { table: "dim".into() }),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: 4_000,
            },
        ),
        (
            "Q2 sort",
            PlanSpec::Sort {
                input: Box::new(PlanSpec::TableScan { table: "facts".into() }),
                key: 0,
                buffer_tuples: 5_000,
            },
        ),
        (
            "Q3 agg",
            PlanSpec::HashAgg {
                input: Box::new(PlanSpec::TableScan { table: "facts".into() }),
                group_col: 1,
                agg_col: 0,
                func: AggFn::Count,
                partitions: 4,
            },
        ),
    ];

    // Uninterrupted baselines for verification.
    let mut queue: VecDeque<LowPriorityQuery> = VecDeque::new();
    for (i, (name, plan)) in plans.into_iter().enumerate() {
        let mut base = QueryExecution::start(db.clone(), plan.clone())?;
        let expected = base.run_to_completion()?.len();
        queue.push_back(LowPriorityQuery {
            name,
            manifest: format!("SUSPEND.q{}.manifest", i + 1),
            state: Parked::Fresh(plan),
            collected: Vec::new(),
            expected,
        });
    }

    // The scheduler loop: run the head-of-queue low-priority query until a
    // simulated high-priority arrival preempts it (every ~7,000 operator
    // ticks), service the high-priority query, rotate, repeat.
    let mut hi_count = 0;
    let mut rounds = 0;
    while !queue.is_empty() {
        rounds += 1;
        let mut q = queue.pop_front().expect("non-empty");
        // Each query commits under its own manifest name; a resume keeps
        // the name its handle was committed under.
        let mut exec = match q.state {
            Parked::Fresh(plan) => {
                let mut exec = QueryExecution::start(db.clone(), plan)?;
                exec.set_manifest_name(q.manifest.as_str());
                exec
            }
            Parked::Suspended(handle) => QueryExecution::resume(db.clone(), &handle)?,
        };
        // Preemption point for this time slice.
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
            op: OpId(0),
            n: exec.ctx().ticks_of(OpId(0)) + 7_000,
        }));
        let (tuples, done) = exec.run()?;
        q.collected.extend(tuples);

        if done {
            assert_eq!(
                q.collected.len(),
                q.expected,
                "{} lost or duplicated work",
                q.name
            );
            println!(
                "{} finished after {rounds} scheduler rounds: {} tuples ✓",
                q.name,
                q.collected.len()
            );
        } else {
            // High-priority arrival: suspend fast (tight budget) ...
            let handle =
                exec.suspend(&SuspendPolicy::Optimized { budget: Some(30.0) })?;
            // ... and service the high-priority query immediately.
            hi_count += 1;
            let mut hi = QueryExecution::start(
                db.clone(),
                PlanSpec::Filter {
                    input: Box::new(PlanSpec::TableScan { table: "dim".into() }),
                    predicate: Predicate::IntEq {
                        col: 0,
                        value: hi_count % 1_200,
                    },
                },
            )?;
            let hit = hi.run_to_completion()?;
            println!(
                "round {rounds}: preempted {} (resumes later), served hi-priority \
                 lookup #{hi_count} ({} rows)",
                q.name,
                hit.len()
            );
            q.state = Parked::Suspended(handle);
            queue.push_back(q);
        }
    }
    println!("all low-priority queries completed exactly once; {hi_count} high-priority queries served");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
