//! End-to-end coverage of the suspend write path across repeated
//! suspends — delta checkpoints, generation GC and pluggable suspend
//! backends (memory, fault-injected remote with retry + failover) — all
//! through the public suspend/resume lifecycle.
//!
//! The invariants under test:
//! - a suspend after a resume writes a dump as a delta frame only when
//!   the frame is smaller than the full dump it encodes, and resume is
//!   exact;
//! - delta chains never grow past `COMPACT_CHAIN_LEN − 1` links (the
//!   compaction fold), across arbitrarily many suspend/resume cycles;
//! - every commit keeps only the newest generation, and its GC never
//!   collects a blob a live delta chain still references — every cycle
//!   stays resumable;
//! - the memory backend round-trips without touching the disk manifest;
//! - the remote backend stack retries transients and fails over to the
//!   local disk mid-suspend without losing the suspend.

use qsr::core::{OpId, SuspendPolicy, SuspendedQuery};
use qsr::exec::{
    read_manifest, PlanSpec, Predicate, QueryExecution, SuspendTrigger, SUSPEND_MANIFEST,
};
use qsr::storage::{
    is_delta_frame, pages_for_bytes, BackendKind, Database, Decode, DeltaDump, LocalDiskBackend,
    Phase, RemoteMockBackend, RobustBackend, SuspendBackend, Tuple, WriteFault, COMPACT_CHAIN_LEN,
    RESUME_BACKOFF,
};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-delta-{tag}-{}-{}",
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

fn populate(db: &Arc<Database>) {
    // Wide payloads and a same-sized inner: operator dumps span many
    // pages (page-granular deltas have something to save) and the outer
    // stream survives several suspend cycles' worth of ticks.
    generate_table(db, &TableSpec::new("r", 3000).seed(21)).unwrap();
    generate_table(db, &TableSpec::new("s", 3000).seed(22)).unwrap();
}

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

fn reference_output() -> Vec<Tuple> {
    let dir = TempDir::new("ref");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let mut exec = QueryExecution::start(db, plan()).unwrap();
    exec.run_to_completion().unwrap()
}

/// One record dump blob of a committed suspend, as written.
struct RecordBlob {
    /// Suspend (0-based cycle) that wrote it.
    cycle: usize,
    /// Operator it belongs to.
    op: OpId,
    /// Its bytes as stored: a delta frame or a full dump.
    bytes: Vec<u8>,
}

/// Drive one lifecycle on a fresh directory: suspend after 250 NLJ ticks,
/// then `cycles − 1` further suspend/resume rounds of 40 ticks each, then
/// run to completion. Returns the concatenated output and every record
/// dump blob each suspend committed, read back right after its commit.
fn run_cycles(tag: &str, cycles: usize) -> (Vec<Tuple>, Vec<RecordBlob>) {
    let dir = TempDir::new(tag);
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let mut out = Vec::new();
    let mut records = Vec::new();
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    for cycle in 0..cycles {
        let ticks = if cycle == 0 { 250 } else { 40 };
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
            op: OpId(1),
            n: ticks,
        }));
        let (prefix, done) = exec.run().unwrap();
        out.extend(prefix);
        assert!(!done, "cycle {cycle} finished before its suspend fired");
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        let m = read_manifest(&db).unwrap().expect("manifest after suspend");
        assert!(
            (m.chain_len as usize) < COMPACT_CHAIN_LEN,
            "cycle {cycle}: chain_len {} must stay below the compaction cap",
            m.chain_len
        );
        assert!(
            m.retained.is_empty(),
            "cycle {cycle}: a commit keeps only the newest generation"
        );
        let backend = db.backend();
        let sq = SuspendedQuery::decode_from_slice(&backend.get_blob(m.query).unwrap()).unwrap();
        for (op, rec) in &sq.records {
            if let Some(b) = rec.heap_dump {
                records.push(RecordBlob {
                    cycle,
                    op: *op,
                    bytes: backend.get_blob(b).unwrap(),
                });
            }
        }
        exec = QueryExecution::recover(db.clone())
            .unwrap()
            .expect("committed suspend must recover");
    }
    exec.set_trigger(None);
    out.extend(exec.run_to_completion().unwrap());
    (out, records)
}

#[test]
fn delta_suspends_charge_less_dump_io_and_resume_exactly() {
    let reference = reference_output();
    let (out, records) = run_cycles("delta", 3);
    assert_eq!(out, reference, "repeated-suspend output drifted");
    // The first suspend has no resume baseline: every dump is full.
    assert!(
        records.iter().filter(|r| r.cycle == 0).all(|r| !is_delta_frame(&r.bytes)),
        "the first suspend has nothing to diff against"
    );
    // Later suspends moved only 40 tuples past a multi-page state. A
    // delta frame is written only when it is smaller than the full dump
    // it encodes, so each one charges fewer pages than that dump would.
    let mut frames = 0;
    for r in records.iter().filter(|r| is_delta_frame(&r.bytes)) {
        let frame = DeltaDump::decode_from_bytes(&r.bytes).unwrap();
        let (written, full) = (
            pages_for_bytes(r.bytes.len()),
            pages_for_bytes(frame.full_len as usize),
        );
        assert!(
            written < full,
            "suspend {} op {:?}: delta frame writes {written} pages, not below the {full} of its full dump",
            r.cycle,
            r.op
        );
        frames += 1;
    }
    assert!(
        records.iter().any(|r| r.cycle == 1 && is_delta_frame(&r.bytes)),
        "the first suspend after a resume must write at least one delta frame ({frames} in all)"
    );
}

#[test]
fn delta_chains_compact_and_survive_retention_gc_across_cycles() {
    let reference = reference_output();
    // 7 cycles: chains grow 0→1→2, fold, and grow again, with generation
    // GC collecting the superseded generation every time. Any GC'd blob
    // still referenced by a live chain would break a resume.
    let (out, _) = run_cycles("cycles", 7);
    assert_eq!(out, reference, "multi-cycle delta output drifted");
}

#[test]
fn memory_backend_round_trips_without_a_disk_manifest() {
    let reference = reference_output();
    let dir = TempDir::new("mem");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    db.install_backend(BackendKind::Memory);
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }));
    let (mut out, done) = exec.run().unwrap();
    assert!(!done);
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    // The manifest lives in the memory backend, not the disk sidecar: a
    // fresh process would see a clean directory.
    assert!(db.disk().read_sidecar(SUSPEND_MANIFEST).unwrap().is_none());
    let mut exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
    out.extend(exec.run_to_completion().unwrap());
    assert_eq!(out, reference, "memory-backend lifecycle output drifted");
}

#[test]
fn remote_backend_retries_transients_and_fails_over_mid_suspend() {
    let reference = reference_output();
    let dir = TempDir::new("remote");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let local = || Arc::new(LocalDiskBackend::new(db.blobs().clone(), db.disk().clone()));
    let remote = Arc::new(RemoteMockBackend::new(local(), 7));
    // First remote put hiccups once (retried under RESUME_BACKOFF); the
    // fourth write tears — the endpoint dies mid-suspend and the robust
    // layer must fail over to the local disk without losing the suspend.
    remote.faults().fail_write(1, WriteFault::Transient(1));
    remote.faults().fail_write(4, WriteFault::Torn);
    let robust = Arc::new(RobustBackend::new(
        remote.clone(),
        Some(local()),
        RESUME_BACKOFF,
        Some(db.ledger().clone()),
    ));
    db.set_backend(robust.clone());

    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }));
    let (mut out, done) = exec.run().unwrap();
    assert!(!done);
    exec.suspend(&SuspendPolicy::AllDump)
        .expect("failover must keep the suspend alive");
    assert!(
        robust.failed_over(),
        "the torn remote write must have flipped the stack to local"
    );
    assert_eq!(robust.name(), "local");
    let mut exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
    out.extend(exec.run_to_completion().unwrap());
    assert_eq!(out, reference, "failover lifecycle output drifted");
}

/// The orphan-leak fault-matrix cell: a torn remote put uploads a partial
/// fragment and then dies — no manifest will ever reference those bytes,
/// so without a sweep they leak forever. The sweep on recover must delete
/// exactly the unreferenced fragments (charged to the ledger), converge to
/// zero orphans, and never touch a blob the live suspend still references.
#[test]
fn torn_remote_put_orphans_are_swept_and_resume_survives() {
    let reference = reference_output();
    let dir = TempDir::new("orphan");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let local = || Arc::new(LocalDiskBackend::new(db.blobs().clone(), db.disk().clone()));
    let remote = Arc::new(RemoteMockBackend::new(local(), 7));
    // The second remote put tears mid-upload: a partial fragment lands
    // durably on the endpoint, then the endpoint dies and the robust
    // layer fails over to local disk.
    remote.faults().fail_write(2, WriteFault::Torn);
    let robust = Arc::new(RobustBackend::new(
        remote.clone(),
        Some(local()),
        RESUME_BACKOFF,
        Some(db.ledger().clone()),
    ));
    db.set_backend(robust.clone());

    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }));
    let (mut out, done) = exec.run().unwrap();
    assert!(!done);
    exec.suspend(&SuspendPolicy::AllDump)
        .expect("failover must keep the suspend alive");
    assert!(robust.failed_over());

    // The endpoint comes back (its stored objects survived the outage) —
    // which is exactly when the leaked fragment becomes reachable again.
    remote.faults().clear();

    // The torn fragment is enumerable but referenced by no manifest.
    let listed = robust.list_blobs().unwrap().expect("remote side enumerates");
    assert!(!listed.is_empty(), "the partial upload must be listed");

    let before = db.ledger().snapshot();
    let (scanned, deleted) = QueryExecution::sweep_orphan_blobs(&db).unwrap();
    let after = db.ledger().snapshot();
    assert!(scanned >= 1, "sweep must scan the listed uploads");
    assert!(deleted >= 1, "the torn fragment must be deleted");
    assert!(
        after.phase_cost(Phase::Fallback) > before.phase_cost(Phase::Fallback),
        "orphan deletes must be charged to the ledger"
    );

    // Convergence: a second sweep finds zero orphans.
    let (_, deleted_again) = QueryExecution::sweep_orphan_blobs(&db).unwrap();
    assert_eq!(deleted_again, 0, "sweep must converge to zero orphans");

    // The live suspend's own blobs survived the sweep: resume is exact.
    let mut exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
    out.extend(exec.run_to_completion().unwrap());
    assert_eq!(out, reference, "sweep deleted a referenced blob");
}
