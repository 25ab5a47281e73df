#![allow(dead_code)]
//! Shared fixtures for executor integration tests.

use qsr_exec::{PlanSpec, Predicate, QueryExecution, SuspendTrigger};
use qsr_core::{OpId, SuspendPolicy};
use qsr_storage::{Database, HeapFile, Schema, TableInfo, Tuple};
use qsr_workload::{build_index, generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static DIR_N: AtomicU64 = AtomicU64::new(0);

/// Self-cleaning temporary directory.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "qsr-exec-{tag}-{}-{}",
            std::process::id(),
            DIR_N.fetch_add(1, Ordering::SeqCst)
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

/// A database with the standard test tables:
/// `r` (2000 rows), `s` (600 rows), `t` (400 rows), all with schema
/// `(key, sel, payload)`; `t` additionally carries an index on `key` and
/// `s_sorted` is a presorted copy of `s`'s size.
pub fn test_db(tag: &str) -> (TempDir, Arc<Database>) {
    let dir = TempDir::new(tag);
    let db = Database::open_default(&dir.0).unwrap();
    generate_table(&db, &TableSpec::new("r", 2000).payload(24).seed(1)).unwrap();
    generate_table(&db, &TableSpec::new("s", 600).payload(24).seed(2)).unwrap();
    generate_table(&db, &TableSpec::new("t", 400).payload(24).seed(3)).unwrap();
    generate_table(&db, &TableSpec::new("s_sorted", 600).sorted().payload(24).seed(4)).unwrap();
    build_index(&db, "t", 0).unwrap();
    (dir, db)
}

/// Register `rows`, in order, as table `name` of `schema`.
pub fn create_table(db: &Arc<Database>, name: &str, schema: Schema, rows: &[Tuple]) {
    let mut heap = HeapFile::create(db.pool().clone()).unwrap();
    for r in rows {
        heap.append(r).unwrap();
    }
    heap.finish().unwrap();
    let info = TableInfo {
        name: name.into(),
        file: heap.file_id(),
        schema,
        tuple_count: heap.tuple_count(),
        indexes: vec![],
        sorted_on: None,
    };
    db.with_catalog_mut(|c| c.create_table(info)).unwrap();
}

/// Scan helper.
pub fn scan(table: &str) -> PlanSpec {
    PlanSpec::TableScan {
        table: table.into(),
    }
}

/// Filter on the `sel` column (exact selectivity = threshold/1000).
pub fn sel_filter(input: PlanSpec, threshold: i64) -> PlanSpec {
    PlanSpec::Filter {
        input: Box::new(input),
        predicate: Predicate::IntLt {
            col: 1,
            value: threshold,
        },
    }
}

/// Run `spec` to completion with no suspension.
pub fn run_baseline(db: &Arc<Database>, spec: &PlanSpec) -> Vec<Tuple> {
    let mut exec = QueryExecution::start(db.clone(), spec.clone()).unwrap();
    exec.run_to_completion().unwrap()
}

/// Run with a suspend trigger, suspend under `policy`, resume, finish;
/// assert the concatenated output equals the baseline. Returns
/// `(tuples_before_suspend, total)` for extra assertions.
pub fn check_suspend_resume(
    db: &Arc<Database>,
    spec: &PlanSpec,
    trigger: SuspendTrigger,
    policy: &SuspendPolicy,
) -> (usize, usize) {
    let baseline = run_baseline(db, spec);

    let mut exec = QueryExecution::start(db.clone(), spec.clone()).unwrap();
    exec.set_trigger(Some(trigger.clone()));
    let (prefix, done) = exec.run().unwrap();
    if done {
        // Trigger never fired (past end of execution): plain equivalence.
        assert_eq!(prefix, baseline, "no-suspend run must match baseline");
        return (prefix.len(), baseline.len());
    }
    let handle = exec.suspend(policy).unwrap_or_else(|e| {
        panic!("suspend failed for {trigger:?} / {policy:?}: {e}")
    });

    let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap_or_else(|e| {
        panic!("resume failed for {trigger:?} / {policy:?}: {e}")
    });
    let rest = resumed.run_to_completion().unwrap_or_else(|e| {
        panic!("post-resume run failed for {trigger:?} / {policy:?}: {e}")
    });

    let mut combined = prefix.clone();
    combined.extend(rest);
    assert_eq!(
        combined.len(),
        baseline.len(),
        "tuple count mismatch for {trigger:?} / {policy:?} (prefix {})",
        prefix.len()
    );
    assert_eq!(
        combined, baseline,
        "output mismatch for {trigger:?} / {policy:?} (prefix {})",
        prefix.len()
    );
    (prefix.len(), baseline.len())
}

/// The standard policy set exercised by equivalence tests.
pub fn policies() -> Vec<SuspendPolicy> {
    vec![
        SuspendPolicy::AllDump,
        SuspendPolicy::AllGoBack,
        SuspendPolicy::Optimized { budget: None },
        SuspendPolicy::Optimized { budget: Some(3.0) },
    ]
}

/// Trigger on operator `op` after `n` ticks.
pub fn after(op: u32, n: u64) -> SuspendTrigger {
    SuspendTrigger::AfterOpTuples { op: OpId(op), n }
}
