//! The suspend barrier makes durable what the suspending execution wrote
//! — and nothing a neighbour sharing its buffer pool wrote.
//!
//! Before the manifest rename commits a suspend, every page the new
//! generation can reach must be on disk. The run files an execution
//! created or reopened since it started (or resumed) are the only files
//! it can have dirtied; another execution's dirty run pages in the same
//! pool are that execution's to sync when it suspends, and flushing them
//! here would only put their fsyncs on this suspend's clock.

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{AggFn, PlanSpec, QueryExecution, SuspendTrigger};
use qsr::storage::{CostModel, Database, FileId, Tuple};
use qsr::workload::{generate_table, TableSpec};
use std::collections::BTreeSet;
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-barrier-{tag}-{}-{}",
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

fn scan(table: &str) -> Box<PlanSpec> {
    Box::new(PlanSpec::TableScan {
        table: table.into(),
    })
}

/// Execution A: a hash aggregate, partitioning its input into run files
/// (a Dump resume in mid-partitioning reopens them for appending).
fn agg_plan() -> PlanSpec {
    PlanSpec::HashAgg {
        input: scan("a"),
        group_col: 1,
        agg_col: 0,
        func: AggFn::Sum,
        partitions: 4,
    }
}

/// Execution B: an external sort, writing a sublist run every 100 rows.
fn sort_plan() -> PlanSpec {
    PlanSpec::Sort {
        input: scan("b"),
        key: 0,
        buffer_tuples: 100,
    }
}

/// Stop at the suspend point after the scan (op 1) produced `n` rows.
fn run_to(exec: &mut QueryExecution, n: u64) -> Vec<Tuple> {
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done, "the trigger fires mid-query");
    prefix
}

fn dirty(db: &Database) -> BTreeSet<FileId> {
    db.pool().dirty_files().into_iter().collect()
}

#[test]
fn a_suspend_syncs_its_own_run_files_and_leaves_a_neighbours_dirty() {
    let dir = TempDir::new("shared");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 4096).unwrap();
    generate_table(&db, &TableSpec::new("a", 3000).payload(16).seed(21)).unwrap();
    generate_table(&db, &TableSpec::new("b", 3000).payload(16).seed(22)).unwrap();
    db.pool().flush_all().unwrap();
    let reference = QueryExecution::start(db.clone(), agg_plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert!(
        dirty(&db).is_empty(),
        "a finished query leaves no run file behind"
    );

    // B stops mid-run-formation holding dirty sublist pages.
    let mut b = QueryExecution::start(db.clone(), sort_plan()).unwrap();
    run_to(&mut b, 1500);
    let b_files = dirty(&db);
    assert!(!b_files.is_empty());

    // A partitions a third of its input, then suspends.
    let mut a = QueryExecution::start(db.clone(), agg_plan()).unwrap();
    let mut out = run_to(&mut a, 1000);
    assert!(
        dirty(&db).len() > b_files.len(),
        "A has dirty partition pages too"
    );
    let first = a.suspend(&SuspendPolicy::AllDump).unwrap();
    let a_files: BTreeSet<FileId> = first.spill_files.iter().copied().collect();
    assert!(!a_files.is_empty());
    assert_eq!(dirty(&db), b_files, "A's files synced, B's untouched");

    // Resumed, A reopens its partition runs and appends to them: the next
    // suspend syncs the reopened files (it created none of its own).
    let mut a = QueryExecution::resume(db.clone(), &first).unwrap();
    out.extend(run_to(&mut a, 1000));
    assert!(dirty(&db).intersection(&a_files).next().is_some());
    let second = a.suspend(&SuspendPolicy::AllDump).unwrap();
    assert!(second.spill_files.is_empty());
    assert_eq!(dirty(&db), b_files, "reopened files synced, B's untouched");

    // Crash: B's dirty pages die with the process. A recovers from disk
    // alone and finishes with exactly the uninterrupted output.
    drop((b, db));
    let db = Database::open_default(&dir.0).unwrap();
    let mut a = QueryExecution::recover(db)
        .unwrap()
        .expect("A's suspend committed");
    out.extend(a.run_to_completion().unwrap());
    assert_eq!(out, reference);
}
