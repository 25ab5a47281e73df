//! Larger-than-memory execution, end to end: a recursive grace hash join
//! feeding a multi-pass external sort, squeezed under a `MemoryBudget`
//! envelope small enough to force depth-2 partition recursion and
//! intermediate merge passes. Suspend mid-probe, drop the process, reopen
//! the directory cold, recover, and finish — output must be byte-identical
//! to the uninterrupted run. Finally, flip one bit on a disk read and watch
//! the page-checksum trailer turn silent media corruption into a typed,
//! non-transient error.
//!
//! ```sh
//! cargo run --example larger_than_memory
//! ```

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{PlanSpec, QueryExecution, SuspendTrigger};
use qsr::storage::{Database, FaultInjector, TraceEvent, Tracer};
use qsr::workload::{generate_table, TableSpec};
use std::sync::Arc;

/// Join 240 build rows against 480 probe rows with only 6 tuples of build
/// memory (forces grace partitioning to recurse to the depth cap), then
/// sort the result with 24-tuple runs merged 2 at a time (forces
/// intermediate merge passes).
fn plan() -> PlanSpec {
    PlanSpec::MemoryBudget {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::HashJoin {
                build: Box::new(PlanSpec::TableScan { table: "gb".into() }),
                probe: Box::new(PlanSpec::TableScan { table: "gp".into() }),
                build_key: 0,
                probe_key: 0,
                partitions: 4,
                hybrid: false,
            }),
            key: 0,
            buffer_tuples: 24,
        }),
        mem_budget: 6,
        merge_fanin: 2,
    }
}

fn fresh_db(dir: &std::path::Path) -> Arc<Database> {
    let db = Database::open_default(dir).unwrap();
    generate_table(&db, &TableSpec::new("gb", 240).payload(16).seed(21)).unwrap();
    generate_table(&db, &TableSpec::new("gp", 480).payload(16).seed(22)).unwrap();
    db
}

fn main() {
    let base = std::env::temp_dir().join(format!("qsr-ltm-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Reference: uninterrupted, with the flight recorder counting how much
    // of the work actually went through the larger-than-memory paths.
    let refdir = base.join("ref");
    std::fs::create_dir_all(&refdir).unwrap();
    let db = fresh_db(&refdir);
    let tracer = Arc::new(Tracer::new(db.ledger().clone()));
    tracer.enable_full_capture();
    db.ledger().set_tracer(&tracer);
    let reference = QueryExecution::start(db, plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    let (mut max_level, mut spills, mut passes) = (0u64, 0u64, 0u64);
    for r in tracer.take_full() {
        match r.event {
            TraceEvent::PartitionSpill { level, .. } => {
                spills += 1;
                max_level = max_level.max(level);
            }
            TraceEvent::MergePass { .. } => passes += 1,
            _ => {}
        }
    }
    println!(
        "reference: {} tuples, {} recursive spills (max level {}), {} merge passes",
        reference.len(),
        spills,
        max_level,
        passes
    );
    assert!(max_level >= 2, "budget 6 must force depth-2 recursion");
    assert!(passes >= 1, "fan-in 2 must force intermediate merge passes");

    // Suspend mid-probe — after the join (op 1 under the sort) has emitted
    // 60 tuples, so the partition tree is live on disk — then "crash" the
    // process and resume cold in a fresh one.
    let dir = base.join("resume");
    std::fs::create_dir_all(&dir).unwrap();
    let db = fresh_db(&dir);
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 60,
    }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done);
    exec.suspend(&SuspendPolicy::Optimized { budget: None })
        .unwrap();
    drop(db); // process dies

    let db = Database::open_default(&dir).unwrap(); // fresh process
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("committed suspend must be recoverable");
    let rest = resumed.run_to_completion().unwrap();
    let (before, after) = (prefix.len(), rest.len());
    let mut replay = prefix;
    replay.extend(rest);
    assert_eq!(replay, reference, "suspend/resume must be byte-identical");
    println!("cold resume: {before} tuples before suspend + {after} after = identical output");

    // Media corruption: flip one bit on the next disk read. The per-page
    // checksum trailer rejects the page with a typed, non-transient error
    // instead of silently joining garbage; clearing the fault recovers.
    let dir = base.join("flip");
    std::fs::create_dir_all(&dir).unwrap();
    let db = fresh_db(&dir);
    let fi = Arc::new(FaultInjector::seeded(23));
    fi.flip_read_bit(1);
    db.disk().set_fault_injector(Some(fi.clone()));
    let err = QueryExecution::start(db.clone(), plan())
        .unwrap()
        .run_to_completion()
        .unwrap_err();
    println!("bit flip on read #1 -> {err}");
    assert!(!err.is_transient(), "checksum mismatch must not be retried");
    fi.clear();
    let clean = QueryExecution::start(db, plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(clean, reference);
    println!("fault cleared -> clean re-run matches reference");

    let _ = std::fs::remove_dir_all(&base);
    println!("\nall larger-than-memory scenarios byte-identical; ok");
}
