//! The suspend barrier makes durable what the new generation references
//! — its blobs — and finds every run it references already in its file.
//!
//! Before the manifest rename commits a suspend, every page the new
//! generation can reach must have left the process: that is what a
//! process kill cannot undo. Run files (sort sublists, join and aggregate
//! partitions) bypass the shared buffer pool: a run writer seals its pages
//! into extents and writes them as it goes, and sealing a run writes the
//! rest, so no run page is ever dirty in a pool. The barrier fsyncs the
//! suspend's blobs only — a neighbouring execution's runs are never on its
//! clock — and checks that no referenced run still has a page in a writer
//! buffer.
//!
//! Run pages are in the OS page cache, not fsynced, so the guarantee is
//! against a process kill, not against losing the machine (ROADMAP
//! item 13). Each test copies the directory as the manifest rename is
//! about to happen — what a process killed right after the rename leaves
//! — and recovers from that copy in a fresh process.

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{AggFn, PlanSpec, QueryExecution, SuspendTrigger};
use qsr::storage::{
    BlobId, CostLedger, CostModel, Database, DiskManager, FileId, Result, SuspendBackend, Tuple,
};
use qsr::workload::{generate_table, TableSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A suspend backend that, as a manifest commit is about to rename,
/// copies the database directory to `snapshot` and adds the manifest the
/// rename would publish: the disk a process killed right after the rename
/// leaves behind.
struct SnapshotAtCommit {
    inner: Arc<dyn SuspendBackend>,
    dir: PathBuf,
    snapshot: PathBuf,
}

impl SuspendBackend for SnapshotAtCommit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        self.inner.put_blob(bytes)
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        self.inner.get_blob(id)
    }
    fn sync_blob(&self, id: BlobId) -> Result<()> {
        self.inner.sync_blob(id)
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        self.inner.delete_blob(id)
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.inner.read_manifest(name)
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let _ = std::fs::remove_dir_all(&self.snapshot);
        std::fs::create_dir_all(&self.snapshot)?;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                std::fs::copy(entry.path(), self.snapshot.join(entry.file_name()))?;
            }
        }
        std::fs::write(self.snapshot.join(name), bytes)?;
        self.inner.commit_manifest(name, bytes)
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        self.inner.remove_manifest(name)
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list_manifests(prefix)
    }
}

/// Route `db`'s manifest commits through a [`SnapshotAtCommit`] into
/// `snapshot`.
fn snapshot_commits(db: &Database, dir: &Path, snapshot: &Path) {
    db.set_backend(Arc::new(SnapshotAtCommit {
        inner: db.backend(),
        dir: dir.to_path_buf(),
        snapshot: snapshot.to_path_buf(),
    }));
}

/// Read every page of every page file in `dir` through a fresh disk
/// manager, as a new process would: each page must be whole and pass its
/// checksum. Returns the page count of each file.
fn pages_on_disk(dir: &Path) -> BTreeMap<FileId, u64> {
    let disk = DiskManager::open(dir, CostLedger::default()).unwrap();
    let mut pages = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let Some(id) = name.strip_prefix('f').and_then(|n| n.strip_suffix(".qsr")) else {
            continue;
        };
        let file = FileId(id.parse().unwrap());
        let n = disk.num_pages(file).unwrap();
        for p in 0..n {
            disk.read_page(file, p).unwrap();
        }
        pages.insert(file, n);
    }
    pages
}

/// Recover the query committed in `dir` in a fresh process and run it to
/// the end.
fn recover_rest(dir: &Path) -> Vec<Tuple> {
    let db = Database::open_default(dir).unwrap();
    let mut exec = QueryExecution::recover(db)
        .unwrap()
        .expect("the suspend committed");
    exec.run_to_completion().unwrap()
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

#[test]
fn a_suspend_in_a_shared_pool_fsyncs_its_blobs_and_finds_its_runs_on_disk() {
    let dir = TempDir::new("shared");
    let snapshot = TempDir::new("shared-snap");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 4096).unwrap();
    generate_table(&db, &TableSpec::new("a", 3000).payload(16).seed(21)).unwrap();
    generate_table(&db, &TableSpec::new("b", 3000).payload(16).seed(22)).unwrap();
    db.pool().flush_all().unwrap();
    let reference = QueryExecution::start(db.clone(), agg_plan())
        .unwrap()
        .run_to_completion()
        .unwrap();

    // B stops mid-run-formation, its writer holding a sublist's rows.
    let mut b = QueryExecution::start(db.clone(), sort_plan()).unwrap();
    run_to(&mut b, 1550);

    // A partitions a third of its input, then suspends: the barrier
    // fsyncs the `SuspendedQuery` blob and nothing else — A's partitions
    // were written when they were sealed, and B's are not its business.
    let mut a = QueryExecution::start(db.clone(), agg_plan()).unwrap();
    let mut out = run_to(&mut a, 1000);
    let before = db.disk().file_syncs();
    let first = a.suspend(&SuspendPolicy::AllDump).unwrap();
    assert_eq!(db.disk().file_syncs() - before, 1);
    assert_eq!(first.spill_files.len(), 4);
    assert!(
        (0..db.disk().num_pages(first.spill_files[0]).unwrap())
            .all(|p| !db.pool().is_cached(first.spill_files[0], p)),
        "run pages never enter the shared pool"
    );

    // Resumed, A reopens its partition runs and appends to them; the
    // next suspend seals them again. At its rename, a fresh process finds
    // every page of them on disk and finishes from there exactly.
    let mut a = QueryExecution::resume(db.clone(), &first).unwrap();
    out.extend(run_to(&mut a, 1000));
    snapshot_commits(&db, &dir.0, &snapshot.0);
    let before = db.disk().file_syncs();
    let second = a.suspend(&SuspendPolicy::AllDump).unwrap();
    assert_eq!(db.disk().file_syncs() - before, 1);
    assert!(
        second.spill_files.is_empty(),
        "it created no run of its own"
    );
    let at_rename = pages_on_disk(&snapshot.0);
    for file in &first.spill_files {
        assert!(at_rename[file] > 0, "{file} has its pages at the rename");
    }
    let mut from_rename = out.clone();
    from_rename.extend(recover_rest(&snapshot.0));
    assert_eq!(from_rename, reference);

    // Crash: B's buffered rows die with the process. A recovers from disk
    // alone and finishes with exactly the uninterrupted output.
    drop((b, db));
    out.extend(recover_rest(&dir.0));
    assert_eq!(out, reference);
}

#[test]
fn a_park_in_a_small_pool_fsyncs_its_two_blobs_and_no_sublist() {
    let dir = TempDir::new("evicted");
    let snapshot = TempDir::new("evicted-snap");
    // Eight frames, fewer than the fifteen sublists: were runs cached,
    // some would be dirty at the park and others evicted.
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 8).unwrap();
    generate_table(&db, &TableSpec::new("b", 3000).payload(16).seed(22)).unwrap();
    db.pool().flush_all().unwrap();
    let reference = QueryExecution::start(db.clone(), sort_plan())
        .unwrap()
        .run_to_completion()
        .unwrap();

    let mut exec = QueryExecution::start(db.clone(), sort_plan()).unwrap();
    let prefix = run_to(&mut exec, 1550);
    snapshot_commits(&db, &dir.0, &snapshot.0);
    let before = db.disk().file_syncs();
    let parked = exec.suspend(&SuspendPolicy::AllDump).unwrap();
    let synced = db.disk().file_syncs() - before;

    // Fifteen sublists and 50 buffered rows: the barrier fsyncs the
    // `SuspendedQuery` blob and the buffer's dump blob, once each, and
    // no sublist: each one's page was written when it was sealed.
    assert_eq!(parked.spill_files.len(), 15);
    assert_eq!(synced, 2);
    let at_rename = pages_on_disk(&snapshot.0);
    for file in &parked.spill_files {
        assert_eq!(at_rename[file], 1, "{file}: one page of 100 rows");
    }
    let mut out = prefix;
    out.extend(recover_rest(&snapshot.0));
    assert_eq!(out, reference);
}
