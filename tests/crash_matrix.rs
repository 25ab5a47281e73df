//! Crash matrix: inject a crash at every write event of the suspend phase,
//! restart "the process" from disk, and assert the query's total output is
//! byte-identical to an uninterrupted run.
//!
//! The invariant under test is the atomic-commit protocol: the suspend
//! either committed (a manifest exists → recovery resumes and finishes the
//! query) or it did not (no manifest / old manifest → the query restarts
//! from scratch). Either way the delivered tuple sequence matches the
//! reference — never a torn in-between state, never a panic.

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{PlanSpec, Predicate, QueryExecution, SuspendOptions, SuspendTrigger};
use qsr::storage::{CostModel, Database, FaultInjector, Tuple, WriteFault};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-crash-{tag}-{}-{}",
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

/// Deterministic tables; every instantiation of a scenario sees identical
/// bytes, so write-event ordinals line up across the matrix.
fn populate(db: &Arc<Database>) {
    generate_table(db, &TableSpec::new("r", 800).payload(16).seed(11)).unwrap();
    generate_table(db, &TableSpec::new("s", 200).payload(16).seed(12)).unwrap();
}

/// Sort over block-NLJ over filtered scans: exercises scan, filter,
/// block-NLJ (buffer dump / GoBack fallback) and external sort (in-memory
/// run buffer dump) in one plan.
fn plan() -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "r".into() }),
                predicate: Predicate::IntLt { col: 1, value: 500 },
            }),
            inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 150,
        }),
        key: 0,
        buffer_tuples: 4096,
    }
}

/// Run the plan uninterrupted and collect every output tuple.
fn reference_output() -> Vec<Tuple> {
    let dir = TempDir::new("ref");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let mut exec = QueryExecution::start(db, plan()).unwrap();
    exec.run_to_completion().unwrap()
}

/// Fire the suspend trigger mid-join (the NLJ is pre-order op 1); the sort
/// above it is still filling, so both carry non-trivial state.
fn trigger() -> SuspendTrigger {
    SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }
}

/// Run to the suspend point in a fresh directory, returning the tuples
/// delivered before the suspend and the still-open execution. With
/// `pool_pages > 0` the database runs over a caching buffer pool; the
/// tables are flushed to disk before returning so fault ordinals cover
/// only suspend-phase writes (the load is durably committed, as it would
/// be in a real deployment).
fn run_to_suspend_point_with(
    tag: &str,
    pool_pages: usize,
) -> (TempDir, Arc<Database>, Vec<Tuple>, QueryExecution) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), pool_pages).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(trigger()));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done, "trigger must fire before the query completes");
    (dir, db, prefix, exec)
}

fn run_to_suspend_point(tag: &str) -> (TempDir, Arc<Database>, Vec<Tuple>, QueryExecution) {
    run_to_suspend_point_with(tag, 0)
}

/// Dry run: count how many write events the suspend phase issues.
fn count_suspend_writes_with(options: &SuspendOptions, pool_pages: usize) -> u64 {
    let (_dir, db, _prefix, exec) = run_to_suspend_point_with("dry", pool_pages);
    let fi = Arc::new(FaultInjector::seeded(0));
    db.disk().set_fault_injector(Some(fi.clone()));
    exec.suspend_with(&SuspendPolicy::AllDump, options).unwrap();
    let writes = fi.writes_observed();
    db.disk().set_fault_injector(None);
    assert!(writes > 0, "suspend must write something");
    writes
}

/// One matrix cell: crash at suspend-phase write event `k`, then restart
/// from disk and check the invariant.
fn crash_at_with(
    k: u64,
    fault: WriteFault,
    reference: &[Tuple],
    options: &SuspendOptions,
    pool_pages: usize,
) {
    let (dir, db, prefix, exec) = run_to_suspend_point_with("cell", pool_pages);
    let fi = Arc::new(FaultInjector::seeded(0xC0FFEE + k));
    fi.fail_write(k, fault);
    db.disk().set_fault_injector(Some(fi.clone()));

    // The suspend either dies at the injected fault or — when the crash
    // point lands after the manifest rename — reports success; both are
    // legal. What matters is the state left on disk.
    let _ = exec.suspend_with(&SuspendPolicy::AllDump, options);

    // "Process death": drop every handle, then reopen from the directory
    // alone. The fresh Database has no fault injector.
    drop(db);
    let db = Database::open_default(&dir.0).unwrap();

    match QueryExecution::recover(db.clone()) {
        Ok(Some(mut resumed)) => {
            // Suspend committed: prefix + resumed suffix == reference.
            let suffix = resumed.run_to_completion().unwrap();
            let mut all = prefix.clone();
            all.extend(suffix);
            assert_eq!(
                all, reference,
                "crash at write {k} ({fault:?}): resumed output diverges"
            );
            qsr::exec::clear_manifest(&db).unwrap();
            assert!(
                QueryExecution::recover(db).unwrap().is_none(),
                "cleared manifest must read as no suspend"
            );
        }
        Ok(None) => {
            // Suspend never committed: the query restarts from scratch and
            // must still produce exactly the reference output.
            let mut fresh = QueryExecution::start(db, plan()).unwrap();
            let all = fresh.run_to_completion().unwrap();
            assert_eq!(
                all, reference,
                "crash at write {k} ({fault:?}): fresh rerun diverges"
            );
        }
        Err(e) => panic!("crash at write {k} ({fault:?}): recovery errored: {e}"),
    }
}

/// Crash at every suspend-phase write ordinal under `options`/`pool_pages`,
/// alternating whole-process crashes with torn writes so both halves of
/// the fault model are exercised at every other ordinal.
fn run_matrix(options: &SuspendOptions, pool_pages: usize) {
    let reference = reference_output();
    assert!(!reference.is_empty());
    let writes = count_suspend_writes_with(options, pool_pages);
    for k in 1..=writes {
        let fault = if k % 2 == 0 {
            WriteFault::Torn
        } else {
            WriteFault::Crash
        };
        crash_at_with(k, fault, &reference, options, pool_pages);
    }
}

#[test]
fn crash_matrix_every_suspend_write() {
    // Default options, uncached: every dump blob is written serially on
    // the suspending thread, so ordinal `k` is the same write every run.
    run_matrix(&SuspendOptions::default(), 0);
}

#[test]
fn crash_matrix_with_buffer_pool() {
    // A caching pool defers page writes until eviction or the suspend
    // barrier; every ordinal of that reshuffled write sequence must still
    // leave resumable-or-clean state (recovery reopens with a cold pool,
    // so anything lost to the crash must have been redundant).
    run_matrix(&SuspendOptions::default(), 64);
}

/// Write events of this plan's AllDump suspend, uncached and through a
/// 64-frame pool.
const PINNED_UNCACHED: u64 = 11;
const PINNED_POOLED: u64 = 10;

#[test]
fn suspend_write_ordinal_count_is_pinned() {
    // The ordinal space the matrices above enumerate. A change to the
    // suspend write path that adds, drops or merges a write shows up here
    // first, as an exact count.
    assert_eq!(
        count_suspend_writes_with(&SuspendOptions::default(), 0),
        PINNED_UNCACHED
    );
    assert_eq!(
        count_suspend_writes_with(&SuspendOptions::default(), 64),
        PINNED_POOLED
    );
}

#[test]
fn cached_suspend_recovers_in_fresh_process() {
    // Suspend over a warm buffer pool, then "crash" the process cleanly
    // (drop loses every dirty frame) and recover from disk alone with an
    // uncached database: the suspend barrier must have flushed everything
    // the manifest references.
    let (dir, db, prefix, exec) = run_to_suspend_point_with("cached", 64);
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    drop(db);

    let db = Database::open_default(&dir.0).unwrap();
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("committed suspend must be recoverable");
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    assert_eq!(all, reference_output());
}

#[test]
fn crash_after_commit_leaves_resumable_state() {
    // A crash strictly after the suspend returns must leave a committed
    // manifest that a fresh process can recover from.
    let (dir, db, prefix, exec) = run_to_suspend_point("post");
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    drop(db);

    let db = Database::open_default(&dir.0).unwrap();
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("committed suspend must be recoverable");
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    assert_eq!(all, reference_output());
}

#[test]
fn second_suspend_supersedes_first_generation() {
    // Suspend, resume, run a little, suspend again: recovery must resume
    // the *second* generation, and the final output must match.
    let (dir, db, mut all, exec) = run_to_suspend_point("gen");
    exec.suspend(&SuspendPolicy::AllDump).unwrap();

    let mut resumed = QueryExecution::recover(db.clone())
        .unwrap()
        .expect("first suspend committed");
    resumed.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: 40,
    }));
    let (mid, done) = resumed.run().unwrap();
    all.extend(mid);
    assert!(!done, "second trigger must fire before completion");
    resumed.suspend(&SuspendPolicy::AllDump).unwrap();
    drop(db);

    let db = Database::open_default(&dir.0).unwrap();
    let manifest = qsr::exec::read_manifest(&db).unwrap().unwrap();
    assert_eq!(manifest.generation, 2, "second suspend is generation 2");
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("second suspend committed");
    all.extend(resumed.run_to_completion().unwrap());
    assert_eq!(all, reference_output());
}

#[test]
fn corrupt_dump_degrades_to_goback_on_recovery() {
    // Flip a bit in a dump blob after commit: recovery must degrade to the
    // GoBack fallback (recompute) and still produce identical output.
    let (dir, db, prefix, exec) = run_to_suspend_point("rot");
    let handle = exec.suspend(&SuspendPolicy::AllDump).unwrap();

    let sq = qsr::core::SuspendedQuery::load(db.blobs(), handle.blob).unwrap();
    assert!(
        !sq.fallbacks.is_empty(),
        "suspend should record GoBack fallbacks for dumped operators"
    );
    // Corrupt a dump whose operator recorded a fallback (the sort's dump
    // has none — its rebuild child signed no contract — so rotting it is
    // correctly unrecoverable; that case is covered in failure_injection).
    let dump = sq
        .records
        .values()
        .filter(|r| sq.fallbacks.contains_key(&r.op))
        .find_map(|r| r.heap_dump)
        .expect("a dumped operator with a GoBack fallback must exist");
    drop(db);

    // Rot the dump's backing file on disk (inside the stored length so the
    // checksum is guaranteed to cover it).
    let path = dir.0.join(format!("f{}.qsr", dump.file.0));
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = (dump.len / 2) as usize;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let db = Database::open_default(&dir.0).unwrap();
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("corrupt dump with fallback must still recover");
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    assert_eq!(all, reference_output());
}
