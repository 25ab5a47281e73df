//! Write-event sets: a suspend over a caching buffer pool must issue
//! exactly the dump-blob writes a passthrough suspend issues.
//!
//! The recorded [`WriteEvent`] stream is grouped per target file. A cache
//! may defer or absorb table write-backs, but dump blobs are created fresh
//! at suspend time and synced before the commit, so their ordered write
//! sequences must agree with and without a pool. A divergence means the
//! cache added, dropped, merged, or relabeled an I/O — precisely the class
//! of bug that silently shifts the crash-matrix ordinal space.

use qsr::core::SuspendPolicy;
use qsr::exec::{PlanSpec, QueryExecution, WorkUnitObserver};
use qsr::storage::{CostModel, Database, FaultInjector, WriteEvent, WriteKind};
use qsr::workload::{generate_table, TableSpec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-wevents-{tag}-{}-{}",
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

/// Sort over a spilling hash join: at the suspend point both the join
/// (partition files, hybrid-resident partition) and the sort (run buffer)
/// carry dump-worthy state, so the suspend writes several distinct blobs.
fn plan() -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::HashJoin {
            build: Box::new(PlanSpec::TableScan { table: "s".into() }),
            probe: Box::new(PlanSpec::TableScan { table: "r".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 4,
            hybrid: false,
        }),
        key: 0,
        buffer_tuples: 256,
    }
}

fn populate(db: &Arc<Database>) {
    generate_table(db, &TableSpec::new("r", 600).payload(16).seed(11)).unwrap();
    generate_table(db, &TableSpec::new("s", 150).payload(16).seed(12)).unwrap();
}

fn observer_at(boundary: u64) -> Box<dyn WorkUnitObserver> {
    Box::new(move |_op, seq: u64| seq >= boundary)
}

/// Total work units of the uninterrupted query, so the suspend boundary
/// can be pinned mid-flight without guessing operator output counts.
fn total_work_units() -> u64 {
    let dir = TempDir::new("golden");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let mut exec = QueryExecution::start(db, plan()).unwrap();
    exec.run_to_completion().unwrap();
    exec.work_units()
}

/// Run to the half-way work unit, suspend under a recording injector, and
/// return the suspend phase's write events grouped per target in arrival
/// order.
fn suspend_events(boundary: u64, pool_pages: usize) -> BTreeMap<String, Vec<WriteEvent>> {
    let dir = TempDir::new("cell");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), pool_pages).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();

    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_work_unit_observer(Some(observer_at(boundary)));
    let (_prefix, done) = exec.run().unwrap();
    assert!(!done, "suspend boundary must land mid-query");

    let fi = Arc::new(FaultInjector::seeded(0));
    fi.record_events(true);
    db.disk().set_fault_injector(Some(fi.clone()));
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    db.disk().set_fault_injector(None);

    let mut by_target: BTreeMap<String, Vec<WriteEvent>> = BTreeMap::new();
    for ev in fi.take_events() {
        by_target.entry(ev.target.clone()).or_default().push(ev);
    }
    by_target
}

#[test]
fn caching_pool_defers_but_does_not_invent_writes() {
    // Cross-pool the event *kinds* per file still agree in multiset terms
    // for the dump blobs themselves: dump files are created fresh at
    // suspend time and synced before commit, so caching cannot elide any
    // of their pages — only table-file write-back timing may differ.
    let boundary = (total_work_units() / 2).max(1);
    let plain = suspend_events(boundary, 0);
    let cached = suspend_events(boundary, 64);
    for (pool_pages, events) in [(0, &plain), (64, &cached)] {
        // Sanity: the suspend really dumped state (several blob files plus
        // the manifest's two-step atomic commit).
        assert!(
            events.len() >= 3,
            "pool {pool_pages}: expected several dump files, got {:?}",
            events.keys().collect::<Vec<_>>()
        );
        let manifest = events
            .get(qsr::exec::SUSPEND_MANIFEST)
            .unwrap_or_else(|| panic!("pool {pool_pages}: no manifest commit recorded"));
        assert_eq!(
            manifest.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![WriteKind::SidecarWrite, WriteKind::SidecarRename],
            "pool {pool_pages}: manifest commit must be write-tmp then rename"
        );
    }
    for (target, events) in &plain {
        let Some(cached_events) = cached.get(target) else {
            continue; // table write-back absorbed by the cache: legal
        };
        if events.first().map(|e| e.kind) == Some(WriteKind::Create) {
            assert_eq!(
                events, cached_events,
                "dump blob {target} must see identical writes with and without a cache"
            );
        }
    }
}
