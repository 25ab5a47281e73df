//! Suspended queries stored by older builds resume on this one: each
//! checked-in golden directory (see `tests/golden/mod.rs`) is copied to a
//! scratch directory, recovered through the cold-start path, and must
//! deliver exactly what a fresh uninterrupted run of its plan delivers.

mod golden;

use qsr::core::{OpId, Strategy, SuspendPolicy, SuspendedQuery};
use qsr::exec::{
    read_manifest, reclaim_spill_files, QueryExecution, SuspendTrigger, SUSPEND_MANIFEST,
};
use qsr::storage::{
    checksum, fnv1a, is_delta_frame, BlobId, Database, Decode, Decoder, DeltaDump, RowBuffer,
    StorageError, TraceEvent, Tracer, PAGE_SIZE,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("qsr-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            std::fs::create_dir_all(&target).unwrap();
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// The codec version word of a framed structure (after the magic).
fn version_word(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[4..8].try_into().unwrap())
}

/// Recover the committed suspend in `db` with every recovery step
/// captured, and assert that no dump was replaced by its GoBack fallback:
/// an unreadable dump would be, and would still reach the same output.
fn recover_without_substitution(db: &Arc<Database>, why: &str) -> QueryExecution {
    let tracer = Arc::new(Tracer::new(db.ledger().clone()));
    tracer.enable_full_capture();
    db.ledger().set_tracer(&tracer);
    let resumed = QueryExecution::recover(db.clone())
        .unwrap()
        .expect("the golden directory holds a committed suspend");
    let substituted = tracer.take_full().into_iter().any(
        |r| matches!(&r.event, TraceEvent::RecoveryStep { step } if step.contains("substituting")),
    );
    assert!(!substituted, "{why}");
    resumed
}

/// The state a dump blob stands for: the blob itself, or a delta frame
/// applied to its base, materialized the same way.
fn materialize(db: &Database, id: BlobId) -> Vec<u8> {
    let raw = db.backend().get_blob(id).unwrap();
    if !is_delta_frame(&raw) {
        return raw;
    }
    let delta = DeltaDump::decode_from_bytes(&raw).unwrap();
    delta.apply(&materialize(db, delta.base)).unwrap()
}

/// Every dump of the committed suspend in `db`, materialized, by operator.
fn materialized_dumps(db: &Database) -> Vec<(OpId, Vec<u8>)> {
    let manifest = read_manifest(db).unwrap().expect("a committed manifest");
    let sq = SuspendedQuery::load(db.blobs(), manifest.query).unwrap();
    sq.records
        .iter()
        .filter_map(|(op, rec)| rec.heap_dump.map(|blob| (*op, materialize(db, blob))))
        .collect()
}

#[test]
fn suspend_v3_directory_resumes_to_a_fresh_run() {
    let dir = TempDir::new("v3");
    copy_dir(&golden::suspend_v3_dir(), &dir.0);
    let db = Database::open_default(&dir.0).unwrap();

    // The directory is of the era it claims to be.
    let manifest = read_manifest(&db).unwrap().expect("a committed manifest");
    assert_eq!(
        version_word(&std::fs::read(dir.0.join(SUSPEND_MANIFEST)).unwrap()),
        2
    );
    assert!(
        manifest.chain_len >= 1,
        "the second suspend chains delta dumps"
    );
    assert_eq!(
        manifest.retained.len(),
        1,
        "the first generation is retained"
    );
    assert_eq!(version_word(&db.blobs().get(manifest.query).unwrap()), 3);
    let sq = SuspendedQuery::load(db.blobs(), manifest.query).unwrap();
    for op in [1, 3, 4] {
        let record = &sq.records[&OpId(op)];
        assert_eq!(record.strategy, Strategy::Dump, "op {op}");
        assert!(record.heap_dump.is_some(), "op {op} carries a dump");
    }
    assert_eq!(
        sq.records[&OpId(4)].resume_point[0],
        5,
        "hash join parked in its task walk"
    );

    let mut resumed = recover_without_substitution(&db, "every dump must decode on this build");
    assert_eq!(
        resumed.tuples_emitted(),
        0,
        "the suspend was taken before any output"
    );
    let recovered = resumed.run_to_completion().unwrap();

    let fresh = QueryExecution::start(db, golden::plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert!(fresh.len() > 1000, "the plan must produce a real result");
    assert_eq!(recovered, fresh);
}

/// The `f*.qsr` files in `dir`: tables, run files and blobs.
fn qsr_files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with('f') && name.ends_with(".qsr"))
        .collect()
}

/// This build keeps only the newest generation, but `suspend-v3`'s
/// manifest retains one. The first suspend this build commits over it
/// must drop the retained generation from the manifest and reclaim every
/// blob of the old build's current and retained generations except the
/// delta ancestors its own new frames chain to. The query must still
/// finish exactly, and once it is retired no blob of either build is
/// left: only the files that were not the old build's blobs remain.
#[test]
fn suspend_v3_retained_generation_is_reclaimed_by_the_next_suspend() {
    let dir = TempDir::new("v3-reclaim");
    copy_dir(&golden::suspend_v3_dir(), &dir.0);
    let golden_files = qsr_files(&dir.0);
    let db = Database::open_default(&dir.0).unwrap();
    let old = read_manifest(&db).unwrap().expect("a committed manifest");
    assert_eq!(old.retained.len(), 1, "the first generation is retained");

    // Every blob the old build's manifest reaches: both query blobs, their
    // records and fallbacks, and every delta ancestor.
    let mut old_blobs = Vec::new();
    for qblob in std::iter::once(old.query).chain(old.retained.iter().map(|(_, q)| *q)) {
        let sq = SuspendedQuery::load(db.blobs(), qblob).unwrap();
        old_blobs.push(qblob);
        for rec in sq.records.values().chain(sq.fallbacks.values().flatten()) {
            old_blobs.extend(rec.heap_dump);
        }
        old_blobs.extend(sq.delta_deps.values().flatten().copied());
    }
    for b in &old_blobs {
        db.blobs()
            .get(*b)
            .expect("the golden directory holds every blob it names");
    }

    let mut exec = QueryExecution::recover(db.clone())
        .unwrap()
        .expect("the golden directory holds a committed suspend");
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(4),
        n: 300,
    }));
    let (mut recovered, done) = exec.run().unwrap();
    assert!(!done, "the segment must stop inside the query");
    let mut handle = exec.suspend(&SuspendPolicy::AllDump).unwrap();

    let new = read_manifest(&db).unwrap().expect("the suspend committed");
    assert_eq!(new.generation, old.generation + 1);
    assert!(
        new.retained.is_empty(),
        "a commit keeps only the newest generation"
    );
    let new_sq = SuspendedQuery::load(db.blobs(), new.query).unwrap();
    let chained: Vec<BlobId> = new_sq.delta_deps.values().flatten().copied().collect();
    let assert_reclaimed = |b: &BlobId| match db.blobs().get(*b) {
        Err(StorageError::NotFound(_)) => {}
        other => panic!("old blob {b:?} must be reclaimed, got {other:?}"),
    };
    for b in &old_blobs {
        if chained.contains(b) {
            db.blobs()
                .get(*b)
                .expect("a live chain's ancestor survives GC");
        } else {
            assert_reclaimed(b);
        }
    }

    let mut exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
    recovered.extend(exec.run_to_completion().unwrap());
    drop(exec);
    QueryExecution::retire_generation(&db).unwrap();
    reclaim_spill_files(&db, &mut handle.spill_files).unwrap();
    old_blobs.iter().for_each(assert_reclaimed);
    let old_blob_files: BTreeSet<String> = old_blobs
        .iter()
        .map(|b| format!("f{}.qsr", b.file.0))
        .collect();
    assert_eq!(
        qsr_files(&dir.0),
        &golden_files - &old_blob_files,
        "no blob of either build is left"
    );

    let fresh = QueryExecution::start(db, golden::plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(recovered, fresh);
}

/// Operators of `golden::plan_rows` that hold rows at both suspends: the
/// inner merge join, the block NLJ, the sort and the hybrid hash join.
const ROWS_HOLDERS: [u32; 4] = [1, 2, 6, 7];

#[test]
fn suspend_rows_directory_resumes_to_a_fresh_run() {
    let dir = TempDir::new("rows");
    copy_dir(&golden::suspend_rows_dir(), &dir.0);
    let db = Database::open_default(&dir.0).unwrap();

    // The directory is of the era it claims to be: a v2 manifest with a
    // delta chain and nothing retained over a v3 `SuspendedQuery`, and a
    // row-record dump (format byte 1) from each row holder. Both of the
    // merge join's value packets hold rows.
    let manifest = read_manifest(&db).unwrap().expect("a committed manifest");
    assert_eq!(
        version_word(&std::fs::read(dir.0.join(SUSPEND_MANIFEST)).unwrap()),
        2
    );
    assert!(
        manifest.chain_len >= 1,
        "the second suspend chains delta dumps"
    );
    assert!(
        manifest.retained.is_empty(),
        "a commit keeps only the newest generation"
    );
    assert_eq!(version_word(&db.blobs().get(manifest.query).unwrap()), 3);
    let sq = SuspendedQuery::load(db.blobs(), manifest.query).unwrap();
    assert!(
        !sq.delta_deps.is_empty(),
        "the second suspend's dumps are delta frames"
    );
    for op in ROWS_HOLDERS {
        let record = &sq.records[&OpId(op)];
        assert_eq!(record.strategy, Strategy::Dump, "op {op}");
        assert!(record.heap_dump.is_some(), "op {op} carries a dump");
    }
    assert_eq!(
        sq.records[&OpId(7)].resume_point[0],
        1,
        "hash join partitioning its probe side"
    );
    let packets = materialize(&db, sq.records[&OpId(1)].heap_dump.unwrap());
    let mut dec = Decoder::new(&packets);
    let (left, right) = (
        RowBuffer::decode(&mut dec).unwrap(),
        RowBuffer::decode(&mut dec).unwrap(),
    );
    assert!(
        left.len() > 1 && !right.is_empty(),
        "packets of {} and {} rows",
        left.len(),
        right.len()
    );

    let mut resumed = recover_without_substitution(&db, "every dump must decode on this build");
    assert_eq!(
        resumed.tuples_emitted(),
        0,
        "the suspend was taken before any output"
    );
    let recovered = resumed.run_to_completion().unwrap();

    let fresh = QueryExecution::start(db, golden::plan_rows())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert!(!fresh.is_empty(), "the plan must produce a real result");
    assert_eq!(recovered, fresh);
}

/// `suspend-rows` is the era this build writes: the same query suspended
/// the same way by this build leaves, operator by operator, dumps whose
/// materialized bytes are the checked-in ones.
#[test]
fn suspend_rows_directory_is_what_this_build_writes() {
    let golden = TempDir::new("rows-golden");
    copy_dir(&golden::suspend_rows_dir(), &golden.0);
    let fresh = TempDir::new("rows-fresh");
    golden::write_suspend_rows(&fresh.0).unwrap();
    let want = materialized_dumps(&Database::open_default(&golden.0).unwrap());
    let got = materialized_dumps(&Database::open_default(&fresh.0).unwrap());
    let ops = |dumps: &[(OpId, Vec<u8>)]| dumps.iter().map(|(op, _)| *op).collect::<Vec<_>>();
    assert_eq!(ops(&got), ops(&want), "operators that dump");
    for ((op, got), (_, want)) in got.iter().zip(&want) {
        assert!(
            got == want,
            "{op}: {} dump bytes differ from the golden's {}",
            got.len(),
            want.len()
        );
    }
    assert_eq!(ops(&want), ROWS_HOLDERS.map(OpId), "every row holder dumps");
}

#[test]
fn suspend_v2_directory_resumes_to_a_fresh_run() {
    let dir = TempDir::new("v2");
    copy_dir(&golden::suspend_v2_dir(), &dir.0);
    let db = Database::open_default(&dir.0).unwrap();

    // The directory is of the era it claims to be: a v1 manifest, a v2
    // `SuspendedQuery`, and the right sort's buffer as a full columnar
    // block (format byte 0) of the rows it had read past its sublist.
    let manifest = read_manifest(&db).unwrap().expect("a committed manifest");
    assert_eq!(
        version_word(&std::fs::read(dir.0.join(SUSPEND_MANIFEST)).unwrap()),
        1
    );
    assert_eq!((manifest.chain_len, manifest.retained.len()), (0, 0));
    assert_eq!(version_word(&db.blobs().get(manifest.query).unwrap()), 2);
    let sq = SuspendedQuery::load(db.blobs(), manifest.query).unwrap();
    assert!(sq.delta_deps.is_empty());
    let sort = &sq.records[&OpId(3)];
    assert_eq!(sort.strategy, Strategy::Dump);
    let dump = db
        .blobs()
        .get(sort.heap_dump.expect("the right sort dumps its buffer"))
        .unwrap();
    let buffered = golden::SUSPEND_V2_AFTER_S_ROWS % 256;
    assert_eq!(dump[0], 0, "columnar block");
    assert_eq!(
        u32::from_le_bytes(dump[1..5].try_into().unwrap()),
        buffered as u32
    );

    let mut resumed =
        recover_without_substitution(&db, "the columnar dump must decode on this build");
    assert_eq!(
        resumed.tuples_emitted(),
        0,
        "the suspend was taken before any output"
    );
    let recovered = resumed.run_to_completion().unwrap();

    let fresh = QueryExecution::start(db, golden::plan_v2())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(fresh.len(), 600, "every key of r meets its row of s");
    assert_eq!(recovered, fresh);
}

/// The eight-byte checksum slot of a `magic, version, sum, len-prefixed
/// body` frame holds FNV-1a of the body, not this build's checksum.
fn assert_fnv_stamped(what: &str, frame: &[u8]) {
    let stamp = u64::from_le_bytes(frame[8..16].try_into().unwrap());
    let body = &frame[20..];
    assert_eq!(stamp, fnv1a(body), "{what}: FNV-1a stamp");
    assert_ne!(stamp, checksum(body), "{what}: not this build's checksum");
}

#[test]
fn suspend_fnv_directory_resumes_to_a_fresh_run() {
    let dir = TempDir::new("fnv");
    copy_dir(&golden::suspend_fnv_dir(), &dir.0);

    // Every page record on disk — tables, join partitions, dump blobs,
    // the `SuspendedQuery` — ends in FNV-1a of its payload.
    let mut pages = 0;
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "qsr")
            && path.file_name().unwrap() != "catalog.qsr"
        {
            for record in std::fs::read(&path).unwrap().chunks(PAGE_SIZE + 8) {
                let (payload, trailer) = record.split_at(PAGE_SIZE);
                assert_eq!(trailer, fnv1a(payload).to_le_bytes(), "{}", path.display());
                pages += 1;
            }
        }
    }
    assert_eq!(pages, 20);

    // The directory is of the era it claims to be: a v1 manifest and a v2
    // `SuspendedQuery`, both FNV-stamped, and each hash join parked in a
    // join phase this build no longer writes — the linear partition scan
    // (byte 2) without a budget, the budgeted task walk (byte 4) under one.
    let db = Database::open_default(&dir.0).unwrap();
    let manifest_frame = std::fs::read(dir.0.join(SUSPEND_MANIFEST)).unwrap();
    assert_eq!(version_word(&manifest_frame), 1);
    assert_fnv_stamped("manifest", &manifest_frame);
    let manifest = read_manifest(&db).unwrap().expect("a committed manifest");
    assert_eq!((manifest.chain_len, manifest.retained.len()), (0, 0));
    let query_frame = db.blobs().get(manifest.query).unwrap();
    assert_eq!(version_word(&query_frame), 2);
    assert_fnv_stamped("SuspendedQuery", &query_frame);
    let sq = SuspendedQuery::load(db.blobs(), manifest.query).unwrap();
    assert!(sq.delta_deps.is_empty());
    for (op, phase) in [(1, 2), (4, 4)] {
        let record = &sq.records[&OpId(op)];
        assert_eq!(record.strategy, Strategy::Dump, "op {op}");
        assert!(
            record.heap_dump.is_some(),
            "hash join {op} dumps its build table"
        );
        assert_eq!(
            record.resume_point[0], phase,
            "hash join {op}'s join-phase byte"
        );
    }

    let mut resumed =
        recover_without_substitution(&db, "both join-phase dumps must decode on this build");
    let delivered = resumed.tuples_emitted() as usize;
    let recovered = resumed.run_to_completion().unwrap();

    let fresh = QueryExecution::start(db, golden::plan_fnv())
        .unwrap()
        .run_to_completion()
        .unwrap();
    assert_eq!(
        fresh.len() as u64,
        golden::SUSPEND_FNV_ROWS,
        "every key of p meets a and b"
    );
    assert!(
        delivered > 0,
        "the merge join had output rows before the suspend"
    );
    assert_eq!(recovered, fresh[delivered..]);
}
