//! Verify drive for parallel resume: suspend a join/sort query mid-query,
//! reopen the directory cold, and recover with 4 prefetch workers — the
//! stitched output must match the uninterrupted reference byte for byte
//! and the Phase::Resume charge must equal a serial recovery's.
//!
//! ```sh
//! cargo run --offline --example parallel_resume
//! ```

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{PlanSpec, Predicate, QueryExecution, SuspendTrigger, SUSPEND_MANIFEST};
use qsr::storage::{Database, Phase, Tuple};
use qsr::workload::{generate_table, TableSpec};
use std::sync::Arc;

fn plan() -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::HashJoin {
            build: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "r".into() }),
                predicate: Predicate::IntLt { col: 1, value: 900 },
            }),
            probe: Box::new(PlanSpec::TableScan { table: "s".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 4,
            hybrid: false,
        }),
        key: 1,
        buffer_tuples: 16384,
    }
}

fn fresh_db(dir: &std::path::Path) -> Arc<Database> {
    std::fs::create_dir_all(dir).unwrap();
    let db = Database::open_default(dir).unwrap();
    generate_table(&db, &TableSpec::new("r", 9000).payload(24).seed(21)).unwrap();
    generate_table(&db, &TableSpec::new("s", 6000).payload(24).seed(22)).unwrap();
    db
}

fn run_full(dir: &std::path::Path) -> Vec<Tuple> {
    let db = fresh_db(dir);
    let mut exec = QueryExecution::start(db, plan()).unwrap();
    exec.run_to_completion().unwrap()
}

fn resume_after_suspend(dir: &std::path::Path, workers: usize) -> (Vec<Tuple>, u64) {
    let db = fresh_db(dir);
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 400,
    }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done, "trigger must fire mid-query");
    let handle = exec.suspend(&SuspendPolicy::AllDump).unwrap();
    let sq = qsr::core::SuspendedQuery::load(db.blobs(), handle.blob).unwrap();
    let dumps: Vec<_> = sq.records.values().filter_map(|r| r.heap_dump).collect();
    let bytes: usize = dumps
        .iter()
        .map(|b| db.blobs().get(*b).unwrap().len())
        .sum();
    assert!(dumps.len() >= 2, "suspend must carry multiple dump blobs");
    println!("  suspend carried {} dump blobs, {} bytes", dumps.len(), bytes);
    drop(db); // process "dies"

    let db = Database::open_default(dir).unwrap(); // fresh process
    let before = db.ledger().snapshot();
    let mut resumed = QueryExecution::recover_named_with(db.clone(), SUSPEND_MANIFEST, workers)
        .unwrap()
        .expect("committed suspend must recover");
    let resume_pages = db
        .ledger()
        .snapshot()
        .since(&before)
        .phase(Phase::Resume)
        .pages_read;
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    (all, resume_pages)
}

fn main() {
    let base = std::env::temp_dir().join(format!("qsr-parallel-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let reference = run_full(&base.join("reference"));
    println!("uninterrupted: {} rows", reference.len());

    let (serial, serial_pages) = resume_after_suspend(&base.join("serial"), 0);
    assert_eq!(serial, reference, "serial resume must reproduce the reference");
    let (parallel, parallel_pages) = resume_after_suspend(&base.join("parallel"), 4);
    assert_eq!(parallel, reference, "parallel resume must reproduce the reference");
    assert_eq!(
        parallel_pages, serial_pages,
        "4-worker prefetch must charge exactly the serial Phase::Resume reads"
    );
    println!(
        "suspend/recover: serial and 4-worker resumes both read {serial_pages} \
         Phase::Resume pages and reproduce all {} rows",
        reference.len()
    );

    let _ = std::fs::remove_dir_all(&base);
    println!("parallel-resume verify: OK");
}
