//! End-to-end integration tests through the `qsr` facade crate: the full
//! lifecycle across every layer (workload → storage → executor → contract
//! graph → optimizer → suspend/resume), including cross-"node" migration
//! and budget compliance.

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{AggFn, PlanSpec, Predicate, QueryExecution, SuspendTrigger};
use qsr::storage::{CostModel, Database, Phase, TraceEvent, Tracer};
use qsr::workload::{generate_table, KeyDist, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-e2e-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn setup(tag: &str) -> (TempDir, Arc<Database>) {
    let dir = TempDir::new(tag);
    let db = Database::open_default(&dir.0).unwrap();
    generate_table(&db, &TableSpec::new("r", 4000).payload(32).seed(11)).unwrap();
    generate_table(&db, &TableSpec::new("s", 800).payload(32).seed(12)).unwrap();
    (dir, db)
}

fn join_plan(buffer: usize) -> PlanSpec {
    PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt { col: 1, value: 600 },
        }),
        inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: buffer,
    }
}

#[test]
fn full_lifecycle_with_optimizer() {
    let (_d, db) = setup("lifecycle");
    let plan = join_plan(700);

    let mut base = QueryExecution::start(db.clone(), plan.clone()).unwrap();
    let expected = base.run_to_completion().unwrap();

    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 500,
    }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done);
    let handle = exec
        .suspend(&SuspendPolicy::Optimized { budget: None })
        .unwrap();
    let mut resumed = QueryExecution::resume(db, &handle).unwrap();
    let rest = resumed.run_to_completion().unwrap();

    let mut all = prefix;
    all.extend(rest);
    assert_eq!(all, expected);
}

#[test]
fn migration_to_fresh_session() {
    // Suspend under one Database handle; resume under a completely fresh
    // one over the same directory (the Grid migration scenario).
    let dir = TempDir::new("migrate");
    let expected;
    let blob;
    let prefix_len;
    {
        let db = Database::open_default(&dir.0).unwrap();
        generate_table(&db, &TableSpec::new("r", 4000).payload(32).seed(21)).unwrap();
        generate_table(&db, &TableSpec::new("s", 800).payload(32).seed(22)).unwrap();
        let plan = join_plan(900);
        let mut base = QueryExecution::start(db.clone(), plan.clone()).unwrap();
        expected = base.run_to_completion().unwrap();

        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
            op: OpId(0),
            n: 777,
        }));
        let (prefix, done) = exec.run().unwrap();
        assert!(!done);
        prefix_len = prefix.len();
        blob = exec
            .suspend(&SuspendPolicy::Optimized { budget: Some(15.0) })
            .unwrap()
            .blob;
    }
    let db2 = Database::open_default(&dir.0).unwrap();
    let mut resumed = QueryExecution::resume_from_blob(db2, blob).unwrap();
    let rest = resumed.run_to_completion().unwrap();
    assert_eq!(prefix_len + rest.len(), expected.len());
}

#[test]
fn budget_is_respected_at_suspend_time() {
    let (_d, db) = setup("budget");
    let plan = join_plan(2000);

    for budget in [5.0, 20.0, 1000.0] {
        db.ledger().reset();
        let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
            op: OpId(0),
            n: 1800,
        }));
        let (_, done) = exec.run().unwrap();
        assert!(!done);
        let before = db.ledger().snapshot();
        let handle = exec
            .suspend(&SuspendPolicy::Optimized {
                budget: Some(budget),
            })
            .unwrap();
        let spent = db.ledger().snapshot().since(&before).phase_cost(Phase::Suspend);
        // Small slack: the SuspendedQuery blob itself is written outside
        // the optimizer's budgeted dumps.
        assert!(
            spent <= budget + 15.0,
            "budget {budget}: spent {spent}"
        );
        let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap();
        resumed.run_to_completion().unwrap();
    }
}

#[test]
fn aggregate_pipeline_suspends_cleanly() {
    let (_d, db) = setup("aggpipe");
    let plan = PlanSpec::StreamAgg {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            key: 1,
            buffer_tuples: 600,
        }),
        group_col: Some(1),
        agg_col: 0,
        func: AggFn::Count,
    };
    let mut base = QueryExecution::start(db.clone(), plan.clone()).unwrap();
    let expected = base.run_to_completion().unwrap();

    for n in [200u64, 2000, 3999] {
        let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n }));
        let (prefix, done) = exec.run().unwrap();
        if done {
            assert_eq!(prefix, expected);
            continue;
        }
        let handle = exec.suspend(&SuspendPolicy::AllGoBack).unwrap();
        let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap();
        let rest = resumed.run_to_completion().unwrap();
        let mut all = prefix;
        all.extend(rest);
        assert_eq!(all, expected, "suspend at sort tick {n}");
    }
}

/// Larger-than-memory operators under the vectorized path: tuple-at-a-time
/// and `QSR_BATCH_SIZE=48` batch execution must produce bit-identical
/// output *and* bit-identical execution-phase ledgers (vectorization
/// reshapes the pull loop, never the I/O), for the recursive grace join,
/// the multi-pass external sort and a scan-filter-project-aggregate
/// pipeline — including a batch-mode suspend parked mid-machinery (inside
/// the partition spills / merge passes / the scan).
#[test]
fn grace_operators_batch_mode_pins_tuple_mode_ledgers() {
    let grace_setup = |tag: &str| -> (TempDir, Arc<Database>) {
        let dir = TempDir::new(tag);
        let db = Database::open_default(&dir.0).unwrap();
        generate_table(
            &db,
            &TableSpec::new("gb", 27).payload(24).seed(15).dist(KeyDist::DupHeavy),
        )
        .unwrap();
        generate_table(&db, &TableSpec::new("ga", 54).payload(24).seed(14)).unwrap();
        generate_table(
            &db,
            &TableSpec::new("gc", 60).payload(24).seed(16).dist(KeyDist::Reversed),
        )
        .unwrap();
        generate_table(&db, &TableSpec::new("gf", 2000).payload(16).seed(17)).unwrap();
        (dir, db)
    };
    let plans = [
        PlanSpec::MemoryBudget {
            input: Box::new(PlanSpec::HashJoin {
                build: Box::new(PlanSpec::TableScan { table: "gb".into() }),
                probe: Box::new(PlanSpec::TableScan { table: "ga".into() }),
                build_key: 0,
                probe_key: 0,
                partitions: 3,
                hybrid: false,
            }),
            mem_budget: 2,
            merge_fanin: 0,
        },
        PlanSpec::MemoryBudget {
            input: Box::new(PlanSpec::Sort {
                input: Box::new(PlanSpec::TableScan { table: "gc".into() }),
                key: 0,
                buffer_tuples: 6,
            }),
            mem_budget: 0,
            merge_fanin: 2,
        },
        // Every operator here has a native batch body, and 2000 rows put
        // page boundaries inside the 48-row batches.
        PlanSpec::StreamAgg {
            input: Box::new(PlanSpec::Project {
                input: Box::new(PlanSpec::Filter {
                    input: Box::new(PlanSpec::TableScan { table: "gf".into() }),
                    predicate: Predicate::IntLt { col: 1, value: 700 },
                }),
                columns: vec![0, 1],
            }),
            group_col: None,
            agg_col: 0,
            func: AggFn::Sum,
        },
    ];
    for plan in plans {
        // Tuple-mode reference: output, total work units, and the
        // execution ledger.
        let (_d1, db1) = grace_setup("gbt");
        db1.ledger().reset();
        let mut tuple_exec = QueryExecution::start(db1.clone(), plan.clone()).unwrap();
        tuple_exec.set_batch_size(0);
        let expected = tuple_exec.run_to_completion().unwrap();
        let total = tuple_exec.work_units();
        let tuple_ledger = db1.ledger().snapshot();

        // Batch 48, uninterrupted: bit-identical output and ledger.
        let (_d2, db2) = grace_setup("gbb");
        db2.ledger().reset();
        let mut batch_exec = QueryExecution::start(db2.clone(), plan.clone()).unwrap();
        batch_exec.set_batch_size(48);
        assert_eq!(batch_exec.run_to_completion().unwrap(), expected);
        let batch_ledger = db2.ledger().snapshot();
        assert_eq!(
            tuple_ledger.total_cost(),
            batch_ledger.total_cost(),
            "batch mode must not change execution I/O cost"
        );
        assert_eq!(
            tuple_ledger.phase(Phase::Execute),
            batch_ledger.phase(Phase::Execute),
            "batch mode must not change execute-phase page counts"
        );

        // Batch 48 with suspends parked inside the machinery: boundaries
        // at 40% and 60% of the work-unit space land mid-spill / mid-pass
        // (the same region the degradation matrix's tracer cross-check
        // pins), and batch-mode resume must still complete to `expected`.
        for frac in [4u64, 6] {
            let b = (total * frac / 10).max(1);
            let (dir, db) = grace_setup("gbs");
            let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
            exec.set_batch_size(48);
            exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= b)));
            let (prefix, done) = exec.run().unwrap();
            assert!(!done, "boundary {b} must interrupt the query");
            exec.suspend(&SuspendPolicy::Optimized { budget: None })
                .unwrap();
            drop(db);
            // Fresh handle over the same directory: the "new process".
            let db = Database::open_default(&dir.0).unwrap();
            let mut resumed = QueryExecution::recover(db).unwrap().unwrap();
            resumed.set_batch_size(48);
            let rest = resumed.run_to_completion().unwrap();
            let mut all = prefix;
            all.extend(rest);
            assert_eq!(all, expected, "batch-mode suspend at boundary {b}");
        }
    }
}

/// The spill knobs grade what they claim to, read off the flight recorder:
/// a grace join's `mem_budget` sets how deep the partition tree goes (a
/// duplicate-heavy build cannot be split and rides the depth cap into the
/// nested-loop fallback) without changing the result, and an external
/// sort's `merge_fanin` sets how many intermediate merge passes it runs.
#[test]
fn spill_knobs_grade_partition_depth_and_merge_passes() {
    // One traced run: output cardinality, deepest `PartitionSpill` level
    // and number of `MergePass` events.
    let traced = |build_keys: KeyDist, plan: PlanSpec| -> (usize, u64, usize) {
        let dir = TempDir::new("grade");
        let db = Database::open_default(&dir.0).unwrap();
        for spec in [
            TableSpec::new("gb", 240).seed(21).dist(build_keys),
            TableSpec::new("gp", 480).seed(22),
            TableSpec::new("gs", 60).seed(23).dist(KeyDist::Reversed),
        ] {
            generate_table(&db, &spec.payload(16)).unwrap();
        }
        let tracer = Arc::new(Tracer::new(db.ledger().clone()));
        tracer.enable_full_capture();
        db.ledger().set_tracer(&tracer);
        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        let rows = exec.run_to_completion().unwrap().len();
        let events = tracer.take_full();
        let spill_level = |e: &TraceEvent| match e {
            TraceEvent::PartitionSpill { level, .. } => Some(*level),
            _ => None,
        };
        let level = events.iter().filter_map(|r| spill_level(&r.event)).max().unwrap_or(0);
        let passes = events.iter().filter(|r| matches!(r.event, TraceEvent::MergePass { .. }));
        (rows, level, passes.count())
    };
    let scan = |t: &str| Box::new(PlanSpec::TableScan { table: t.into() });
    let budgeted = |input: PlanSpec, mem_budget: usize, merge_fanin: usize| {
        PlanSpec::MemoryBudget { input: Box::new(input), mem_budget, merge_fanin }
    };

    // 240 unique build keys over 4 partitions: 60 tuples per top-level
    // partition, 15 one level down — budget 30 needs exactly one
    // re-partition, budget 4 at least two.
    let grace = |build_keys: KeyDist, mem_budget: usize| {
        let join = PlanSpec::HashJoin {
            build: scan("gb"),
            probe: scan("gp"),
            build_key: 0,
            probe_key: 0,
            partitions: 4,
            hybrid: false,
        };
        traced(build_keys, budgeted(join, mem_budget, 0))
    };
    let (rows, level, _) = grace(KeyDist::Unique, 0);
    assert!(rows > 0, "the join must produce output");
    assert_eq!(level, 0, "no budget, no recursive spill");
    let (mid_rows, level, _) = grace(KeyDist::Unique, 30);
    assert_eq!(level, 1, "budget 30 must stop after one re-partition");
    let (deep_rows, level, _) = grace(KeyDist::Unique, 4);
    assert!(level >= 2, "budget 4 must re-partition at least twice, got {level}");
    assert_eq!((mid_rows, deep_rows), (rows, rows), "a budget must not change the join result");
    // ~190 build tuples share key 0: no hash splits them, so the walk
    // reaches the depth cap and joins that partition by nested loops.
    let (dup_rows, level, _) = grace(KeyDist::DupHeavy, 4);
    assert_eq!(level, 2, "the hot key must ride the depth cap");
    assert_eq!(dup_rows, grace(KeyDist::DupHeavy, 0).0, "NLJ fallback result size");

    // 60 reversed rows through a 6-tuple buffer: 10 sublists.
    let passes = |merge_fanin: usize| {
        let sort = PlanSpec::Sort { input: scan("gs"), key: 0, buffer_tuples: 6 };
        let (rows, _, passes) = traced(KeyDist::Unique, budgeted(sort, 0, merge_fanin));
        assert_eq!(rows, 60);
        passes
    };
    let (unlimited, four, two) = (passes(0), passes(4), passes(2));
    assert_eq!(unlimited, 0, "unlimited fan-in merges in the single final pass");
    assert!(
        0 < four && four < two,
        "a smaller fan-in must add merge passes: fan-in 4 ran {four}, fan-in 2 ran {two}"
    );
}

/// A hash join has one join phase — the partition task walk — and a zero
/// `mem_budget` only means that no task is ever over budget. The pin: run
/// budget-less and under a budget no partition exceeds, the join agrees
/// on output, work units and the execution ledger, and a suspend at 80 %
/// of the work charges the same and resumes to the same output under
/// every policy — hybrid and simple, tuple and batch lanes.
#[test]
fn budgetless_join_equals_never_exceeded_budget() {
    let plan = |hybrid: bool, mem_budget: usize| {
        let join = PlanSpec::HashJoin {
            build: Box::new(PlanSpec::TableScan { table: "s".into() }),
            probe: Box::new(PlanSpec::TableScan { table: "r".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 4,
            hybrid,
        };
        match mem_budget {
            0 => join,
            _ => PlanSpec::MemoryBudget {
                input: Box::new(join),
                mem_budget,
                merge_fanin: 0,
            },
        }
    };
    let policies = [
        SuspendPolicy::AllDump,
        SuspendPolicy::AllGoBack,
        SuspendPolicy::Optimized { budget: None },
    ];
    for hybrid in [true, false] {
        for batch in [0, 48] {
            let lane = format!("hybrid={hybrid} batch={batch}");
            // Per budget: (output, work units, execute-phase ledger,
            // suspend-phase ledger per policy).
            let mut runs = Vec::new();
            for mem_budget in [0, 1_000_000] {
                let (_d, db) = setup("budget-eq");
                db.ledger().reset();
                let mut exec = QueryExecution::start(db.clone(), plan(hybrid, mem_budget)).unwrap();
                exec.set_batch_size(batch);
                let expected = exec.run_to_completion().unwrap();
                let total = exec.work_units();
                let execute = db.ledger().snapshot().phase(Phase::Execute);

                let mut suspend_costs = Vec::new();
                for policy in &policies {
                    let (_d, db) = setup("budget-eq-s");
                    let mut exec =
                        QueryExecution::start(db.clone(), plan(hybrid, mem_budget)).unwrap();
                    exec.set_batch_size(batch);
                    let b = total * 8 / 10;
                    exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= b)));
                    let (prefix, done) = exec.run().unwrap();
                    assert!(!done, "{lane}: boundary {b} must interrupt the join");
                    let handle = exec.suspend(policy).unwrap();
                    suspend_costs.push(db.ledger().snapshot().phase(Phase::Suspend));
                    let mut resumed = QueryExecution::resume(db, &handle).unwrap();
                    resumed.set_batch_size(batch);
                    let mut all = prefix;
                    all.extend(resumed.run_to_completion().unwrap());
                    assert_eq!(all, expected, "{lane} budget={mem_budget} {policy:?}");
                }
                runs.push((expected, total, execute, suspend_costs));
            }
            let (unbudgeted, budgeted) = (&runs[0], &runs[1]);
            assert!(!unbudgeted.0.is_empty(), "{lane}: the join must produce output");
            assert_eq!(unbudgeted.0, budgeted.0, "{lane}: output");
            assert_eq!(unbudgeted.1, budgeted.1, "{lane}: work units");
            assert_eq!(unbudgeted.2, budgeted.2, "{lane}: execute-phase ledger");
            assert_eq!(unbudgeted.3, budgeted.3, "{lane}: charged suspend cost per policy");
        }
    }
}

/// What the buffer pool buys, in ledger units: the same scan-join run
/// twice charges at least 5x fewer page reads through a 256-frame pool
/// than uncached (PR 2 measured 148x at this size).
#[test]
fn cached_scan_join_charges_fewer_page_reads() {
    let charged_reads = |pool_pages: usize| -> u64 {
        let dir = TempDir::new("pool");
        let db = Database::open_with_pool(&dir.0, CostModel::default(), pool_pages).unwrap();
        generate_table(&db, &TableSpec::new("r", 2000).payload(64).seed(1)).unwrap();
        generate_table(&db, &TableSpec::new("s", 400).payload(64).seed(2)).unwrap();
        let plan = PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::TableScan { table: "r".into() }),
            inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 200,
        };
        db.ledger().reset();
        for _ in 0..2 {
            let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
            exec.run_to_completion().unwrap();
        }
        db.ledger().snapshot().total_pages_read()
    };
    let (uncached, cached) = (charged_reads(0), charged_reads(256));
    assert!(
        cached * 5 <= uncached,
        "pool 256 charged {cached} page reads, pool 0 charged {uncached}"
    );
}

#[test]
fn checkpointing_overhead_is_negligible_in_cost_units() {
    // The paper's §3.1 claim: asynchronous checkpointing at
    // minimal-heap-state points performs no I/O during execution.
    let (_d, db) = setup("overhead");
    let plan = join_plan(700);

    db.ledger().reset();
    let mut with = QueryExecution::start(db.clone(), plan.clone()).unwrap();
    with.run_to_completion().unwrap();
    let cost_with = db.ledger().snapshot().total_cost();

    db.ledger().reset();
    let mut without = QueryExecution::start_without_checkpointing(db.clone(), plan).unwrap();
    without.run_to_completion().unwrap();
    let cost_without = db.ledger().snapshot().total_cost();

    assert_eq!(
        cost_with, cost_without,
        "checkpointing must add zero I/O cost during execution"
    );
}

#[test]
fn resume_without_persisted_graph_reforms_gradually() {
    // Paper §3.3: "If we do not store the contract graph, part of the
    // contract graph is still available... as the query execution
    // continues, the contract graph will be gradually reformed."
    use qsr::exec::driver::SuspendOptions;
    let (_d, db) = setup("nograph");
    let plan = join_plan(400);
    let mut base = QueryExecution::start(db.clone(), plan.clone()).unwrap();
    let expected = base.run_to_completion().unwrap();

    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 300,
    }));
    let (p1, done) = exec.run().unwrap();
    assert!(!done);
    let h1 = exec
        .suspend_with(
            &SuspendPolicy::Optimized { budget: None },
            &SuspendOptions {
                persist_graph: false,
                ..SuspendOptions::default()
            },
        )
        .unwrap();

    // Resume with an empty graph; run past several batch boundaries so
    // fresh checkpoints form, then suspend again — first with the
    // always-valid all-DumpState, then (after more reformation) with the
    // optimizer.
    let mut exec = QueryExecution::resume(db.clone(), &h1).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 500,
    }));
    let (p2, done) = exec.run().unwrap();
    assert!(!done, "trigger should fire again");
    let h2 = exec.suspend(&SuspendPolicy::AllDump).unwrap();

    let mut exec = QueryExecution::resume(db.clone(), &h2).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 300,
    }));
    let (p3, done) = exec.run().unwrap();
    let (p4, h3_used) = if done {
        (Vec::new(), false)
    } else {
        // The graph has re-formed: the optimizer may legitimately choose
        // GoBack chains again.
        let h3 = exec
            .suspend(&SuspendPolicy::Optimized { budget: None })
            .unwrap();
        let mut exec = QueryExecution::resume(db.clone(), &h3).unwrap();
        (exec.run_to_completion().unwrap(), true)
    };

    let mut all = p1;
    all.extend(p2);
    all.extend(p3);
    all.extend(p4);
    assert_eq!(all, expected, "h3_used={h3_used}");
}

/// Spill reclaim: every run file a finished query's operators created —
/// sort sublists and merge-pass outputs, grace-join partitions at every
/// recursion level, aggregate partitions — is deleted when the plan
/// reaches `Done`, so the disk footprint returns to its pre-query value.
#[test]
fn finished_queries_reclaim_their_spill_files() {
    let (_d, db) = setup("reclaim");
    let scan = |t: &str| Box::new(PlanSpec::TableScan { table: t.into() });
    let plans = [
        PlanSpec::MemoryBudget {
            input: Box::new(PlanSpec::Sort {
                input: scan("r"),
                key: 0,
                buffer_tuples: 300,
            }),
            mem_budget: 0,
            merge_fanin: 3,
        },
        PlanSpec::MemoryBudget {
            input: Box::new(PlanSpec::HashJoin {
                build: scan("s"),
                probe: scan("r"),
                build_key: 0,
                probe_key: 0,
                partitions: 3,
                hybrid: false,
            }),
            mem_budget: 40,
            merge_fanin: 0,
        },
        PlanSpec::HashAgg {
            input: scan("r"),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Count,
            partitions: 4,
        },
    ];
    db.pool().flush_all().unwrap();
    let before = db.disk().used_bytes();
    for plan in plans {
        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        let out = exec.run_to_completion().unwrap();
        assert!(!out.is_empty());
        assert_eq!(
            db.disk().used_bytes(),
            before,
            "a finished query must leave no spill file behind"
        );
    }
}
