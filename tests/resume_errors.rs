//! ResumeError taxonomy: every failure class the recovery ladder can
//! surface is pinned to its typed variant, and the recoverable ones are
//! shown to actually recover.
//!
//! The ladder under test (see `recovery.rs` / `resume_validated`):
//! missing manifest → clean `Ok(None)`; undecodable manifest →
//! `ManifestCorrupt` (version skew and bit rot distinguished by the inner
//! [`StorageError`]); unreadable `SuspendedQuery` blob →
//! `SuspendedQueryUnreadable`; transient I/O → bounded retries, then
//! `Storage` with a transient inner error; unreadable dump blob → GoBack
//! fallback substitution when one was recorded, `DumpUnavailable`
//! otherwise.

use qsr::core::{OpId, SuspendPolicy, SuspendedQuery};
use qsr::exec::{
    clear_manifest, PlanSpec, Predicate, QueryExecution, ResumeError, SuspendTrigger,
    SUSPEND_MANIFEST,
};
use qsr::storage::{
    Database, Encoder, FaultInjector, StorageError, Tuple, MAX_SCHEDULED_TRANSIENTS,
};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-rerr-{tag}-{}-{}",
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
    generate_table(db, &TableSpec::new("r", 800).payload(16).seed(11)).unwrap();
    generate_table(db, &TableSpec::new("s", 200).payload(16).seed(12)).unwrap();
}

/// Sort over block-NLJ: the NLJ dump carries a GoBack fallback, the sort
/// dump does not (its rebuild child signed no contract) — so one plan
/// exhibits both the substitution and the `DumpUnavailable` arm.
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

/// Suspend mid-join and return the directory, the delivered prefix, and
/// the committed handle. Every handle to the first database is dropped, so
/// recovery below always models a fresh process.
fn committed_suspend(tag: &str) -> (TempDir, Vec<Tuple>, qsr::exec::SuspendedHandle) {
    let dir = TempDir::new(tag);
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done);
    let handle = exec.suspend(&SuspendPolicy::AllDump).unwrap();
    (dir, prefix, handle)
}

fn blob_path(dir: &TempDir, file: qsr::storage::FileId) -> PathBuf {
    dir.0.join(format!("f{}.qsr", file.0))
}

/// Printable verdict of a recovery attempt (`QueryExecution` itself has no
/// `Debug`; the tests only care which arm of the ladder was taken).
fn describe(r: &Result<Option<QueryExecution>, ResumeError>) -> String {
    match r {
        Ok(Some(_)) => "Ok(Some(resumed execution))".into(),
        Ok(None) => "Ok(None)".into(),
        Err(e) => format!("Err({e:?})"),
    }
}

#[test]
fn resume_backoff_schedule_is_pinned() {
    use qsr::exec::{BackoffSchedule, RESUME_BACKOFF};
    use std::time::Duration;

    // The schedule itself is data; pin it field by field so any change is
    // a deliberate, reviewed one.
    assert_eq!(
        RESUME_BACKOFF,
        BackoffSchedule {
            base_ms: 1,
            factor: 2,
            max_attempts: 4,
        }
    );
    // Delay after each failed attempt: base * factor^(n-1), exhausted at
    // the attempt cap. Attempt 0 is not a thing.
    assert_eq!(RESUME_BACKOFF.delay_after(0), None);
    assert_eq!(RESUME_BACKOFF.delay_after(1), Some(Duration::from_millis(1)));
    assert_eq!(RESUME_BACKOFF.delay_after(2), Some(Duration::from_millis(2)));
    assert_eq!(RESUME_BACKOFF.delay_after(3), Some(Duration::from_millis(4)));
    assert_eq!(RESUME_BACKOFF.delay_after(4), None);
    assert_eq!(
        RESUME_BACKOFF.delays(),
        vec![
            Duration::from_millis(1),
            Duration::from_millis(2),
            Duration::from_millis(4),
        ]
    );
    // The legacy retry cap tracks the schedule.
    assert_eq!(qsr::exec::recovery::MAX_RETRIES, RESUME_BACKOFF.max_attempts);
}

#[test]
fn backoff_retry_classification_is_pinned_variant_by_variant() {
    use qsr::exec::{with_backoff, RESUME_BACKOFF};
    use std::io::ErrorKind;

    // Observed attempt count under a permanently failing closure.
    let attempts_for = |mk: &dyn Fn() -> StorageError| -> (u32, StorageError) {
        let mut n = 0u32;
        let err = with_backoff(&RESUME_BACKOFF, || -> qsr::storage::Result<()> {
            n += 1;
            Err(mk())
        })
        .unwrap_err();
        (n, err)
    };

    // Transient I/O variants: retried to schedule exhaustion.
    for kind in [ErrorKind::Interrupted, ErrorKind::WouldBlock, ErrorKind::TimedOut] {
        let (n, err) = attempts_for(&|| StorageError::Io(std::io::Error::from(kind)));
        assert_eq!(
            n, RESUME_BACKOFF.max_attempts,
            "{kind:?} must exhaust the backoff schedule"
        );
        assert!(err.is_transient(), "{kind:?} must surface as transient");
    }

    // Every non-transient variant fails on the first attempt — retrying
    // corruption, missing objects, or exhausted resources cannot help.
    type ErrCtor = Box<dyn Fn() -> StorageError>;
    let permanent: Vec<(&str, ErrCtor)> = vec![
        ("Io(permanent)", Box::new(|| {
            StorageError::Io(std::io::Error::from(ErrorKind::PermissionDenied))
        })),
        ("Corrupt", Box::new(|| StorageError::corrupt("bit rot"))),
        ("NotFound", Box::new(|| StorageError::NotFound("blob".into()))),
        ("ChecksumMismatch", Box::new(|| {
            StorageError::checksum_mismatch("blob", 1, 2)
        })),
        ("NoSpace", Box::new(|| StorageError::NoSpace {
            requested: 4096,
            available: 0,
        })),
        ("InvalidArgument", Box::new(|| StorageError::invalid("bad plan"))),
    ];
    for (name, mk) in &permanent {
        let (n, _err) = attempts_for(mk.as_ref());
        assert_eq!(n, 1, "{name} must not be retried");
    }
}

#[test]
fn backoff_absorbs_blips_and_sleeps_the_pinned_delays() {
    use qsr::exec::{with_backoff, RESUME_BACKOFF};
    use std::io::ErrorKind;
    use std::time::{Duration, Instant};

    // Success on the last granted attempt: all three delays slept.
    let mut n = 0u32;
    let started = Instant::now();
    let out = with_backoff(&RESUME_BACKOFF, || -> qsr::storage::Result<u32> {
        n += 1;
        if n < RESUME_BACKOFF.max_attempts {
            Err(StorageError::Io(std::io::Error::from(ErrorKind::Interrupted)))
        } else {
            Ok(n)
        }
    })
    .unwrap();
    assert_eq!(out, RESUME_BACKOFF.max_attempts);
    // 1 + 2 + 4 ms of deterministic backoff is a hard lower bound on the
    // elapsed time (sleeps never undershoot).
    let floor: Duration = RESUME_BACKOFF.delays().iter().sum();
    assert!(
        started.elapsed() >= floor,
        "backoff must actually sleep its schedule ({:?} < {floor:?})",
        started.elapsed()
    );
}

#[test]
fn missing_manifest_reads_as_clean_state() {
    let dir = TempDir::new("clean");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    assert!(
        QueryExecution::recover(db).unwrap().is_none(),
        "a database that never suspended must recover to None"
    );
}

#[test]
fn version_skew_manifest_is_manifest_corrupt() {
    let dir = TempDir::new("vskew");
    let db = Database::open_default(&dir.0).unwrap();
    populate(&db);
    // Hand-encode a manifest from the future: good magic ("QSRM"), codec
    // version 99. The version gate fires before the checksum gate, so the
    // bogus checksum/body never get looked at.
    let mut enc = Encoder::new();
    enc.put_u32(0x4d52_5351);
    enc.put_u32(99);
    enc.put_u64(0);
    enc.put_bytes(&[]);
    db.disk()
        .write_sidecar_atomic(SUSPEND_MANIFEST, &enc.finish())
        .unwrap();

    match QueryExecution::recover(db) {
        Err(ResumeError::ManifestCorrupt(StorageError::VersionMismatch {
            expected,
            actual,
            ..
        })) => {
            // `expected` reports the newest version this build understands
            // (2 since the retention/delta manifest extension).
            assert_eq!(expected, 2);
            assert_eq!(actual, 99);
        }
        other => panic!(
            "expected ManifestCorrupt(VersionMismatch), got {}",
            describe(&other)
        ),
    }
}

#[test]
fn rotted_manifest_is_manifest_corrupt_checksum() {
    let (dir, _prefix, _handle) = committed_suspend("mrot");
    let db = Database::open_default(&dir.0).unwrap();
    let mut bytes = db.disk().read_sidecar(SUSPEND_MANIFEST).unwrap().unwrap();
    // Flip a bit inside the length-prefixed body (frame header is magic +
    // version + checksum + body-length = 20 bytes), so the frame still
    // parses and the body checksum is what catches the rot.
    let mid = 20 + (bytes.len() - 20) / 2;
    bytes[mid] ^= 0x04;
    db.disk()
        .write_sidecar_atomic(SUSPEND_MANIFEST, &bytes)
        .unwrap();

    match QueryExecution::recover(db) {
        Err(ResumeError::ManifestCorrupt(e)) => {
            assert!(e.is_corruption(), "inner error must be corruption: {e}")
        }
        other => panic!("expected ManifestCorrupt, got {}", describe(&other)),
    }
}

#[test]
fn corrupt_suspended_query_blob_is_unreadable() {
    let (dir, _prefix, handle) = committed_suspend("qrot");
    let path = blob_path(&dir, handle.blob.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(handle.blob.len / 2) as usize] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let db = Database::open_default(&dir.0).unwrap();
    match QueryExecution::recover(db) {
        Err(ResumeError::SuspendedQueryUnreadable(e)) => {
            assert!(e.is_corruption(), "inner error must be corruption: {e}")
        }
        other => panic!("expected SuspendedQueryUnreadable, got {}", describe(&other)),
    }
}

#[test]
fn truncated_suspended_query_blob_is_typed_not_a_panic() {
    let (dir, _prefix, handle) = committed_suspend("qtrunc");
    let path = blob_path(&dir, handle.blob.file);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let db = Database::open_default(&dir.0).unwrap();
    match QueryExecution::recover(db) {
        Err(ResumeError::SuspendedQueryUnreadable(e) | ResumeError::Storage(e)) => {
            assert!(!e.is_transient(), "truncation must not read as retryable: {e}")
        }
        other => panic!(
            "expected a typed unreadable/storage error, got {}",
            describe(&other)
        ),
    }
}

#[test]
fn transient_burst_exhausts_retries_into_typed_storage_error() {
    let (dir, _prefix, _handle) = committed_suspend("texh");
    let db = Database::open_default(&dir.0).unwrap();
    let fi = Arc::new(FaultInjector::seeded(9));
    // A burst longer than the bounded retry budget: every attempt of the
    // first recovery read fails with a retryable error.
    fi.fail_reads_transiently(1, MAX_SCHEDULED_TRANSIENTS);
    db.disk().set_fault_injector(Some(fi));

    match QueryExecution::recover(db.clone()) {
        Err(ResumeError::Storage(e)) => {
            assert!(e.is_transient(), "exhausted retries must surface the transient: {e}")
        }
        other => panic!("expected Storage(transient), got {}", describe(&other)),
    }

    // The failure was environmental, not state damage: lifting the fault
    // and retrying in place recovers the suspend.
    db.disk().set_fault_injector(None);
    assert!(QueryExecution::recover(db).unwrap().is_some());
}

#[test]
fn transient_blip_is_retried_to_success() {
    let (dir, prefix, _handle) = committed_suspend("tblip");
    let db = Database::open_default(&dir.0).unwrap();
    let fi = Arc::new(FaultInjector::seeded(9));
    fi.fail_reads_transiently(1, 2); // within the 4-attempt budget
    db.disk().set_fault_injector(Some(fi));

    let mut resumed = QueryExecution::recover(db.clone())
        .unwrap()
        .expect("a 2-read blip must be absorbed by retries");
    db.disk().set_fault_injector(None);
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    assert_eq!(all, reference_output());
}

#[test]
fn unreadable_dump_without_fallback_is_dump_unavailable() {
    let (dir, _prefix, handle) = committed_suspend("nofb");
    let db = Database::open_default(&dir.0).unwrap();
    let sq = SuspendedQuery::load(db.blobs(), handle.blob).unwrap();
    // The sort's dump has no GoBack fallback (its rebuild child signed no
    // contract): rotting it must surface as DumpUnavailable for that op.
    let (op, dump) = sq
        .records
        .values()
        .filter(|r| !sq.fallbacks.contains_key(&r.op))
        .find_map(|r| r.heap_dump.map(|d| (r.op, d)))
        .expect("a dumped operator without a fallback must exist");
    drop(db);
    let path = blob_path(&dir, dump.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(dump.len / 2) as usize] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let db = Database::open_default(&dir.0).unwrap();
    match QueryExecution::recover(db.clone()) {
        Err(ResumeError::DumpUnavailable { op: bad, source }) => {
            assert_eq!(bad, op);
            assert!(source.is_corruption(), "source must be the rot: {source}");
        }
        other => panic!("expected DumpUnavailable, got {}", describe(&other)),
    }

    // Fallback re-execution: clear the dead suspend and rerun from scratch
    // — the typed error is a recoverable verdict, not a dead database.
    clear_manifest(&db).unwrap();
    assert!(QueryExecution::recover(db.clone()).unwrap().is_none());
    let mut fresh = QueryExecution::start(db, plan()).unwrap();
    assert_eq!(fresh.run_to_completion().unwrap(), reference_output());
}

/// Stable label for the ladder arm a recovery attempt took.
fn verdict_of(r: &Result<Option<QueryExecution>, ResumeError>) -> &'static str {
    match r {
        Ok(Some(_)) => "recovered",
        Ok(None) => "clean",
        Err(ResumeError::ManifestCorrupt(_)) => "ManifestCorrupt",
        Err(ResumeError::SuspendedQueryUnreadable(_)) => "SuspendedQueryUnreadable",
        Err(ResumeError::IncompatiblePlan(_)) => "IncompatiblePlan",
        Err(ResumeError::MissingTable(_)) => "MissingTable",
        Err(ResumeError::DumpUnavailable { .. }) => "DumpUnavailable",
        Err(ResumeError::Storage(_)) => "Storage",
    }
}

/// What a one-shot bit flip at each resume read ordinal (1-based) does
/// to `recover`: the manifest, the `SuspendedQuery` blob, then the dump
/// blobs. A flipped dump read fails the attempt, and the re-read
/// that looks for the unreadable dump finds it clean again, so the
/// verdict is the typed storage error rather than a substitution.
const PINNED_READ_FAULT_VERDICTS: [&str; 4] = [
    "ManifestCorrupt",
    "SuspendedQueryUnreadable",
    "Storage",
    "Storage",
];

/// Bit-flip faults at every read ordinal of the resume phase. Each dump
/// blob is read when its operator resumes, on the resuming thread, so
/// ordinal `k` strikes the same read on every run and the whole verdict
/// sequence is pinned exactly: a recovery must be golden, and after a
/// typed error a fault-free retry from the untouched on-disk state must
/// converge — a one-shot flip is environmental, it must never damage
/// what is on disk or corrupt output.
#[test]
fn read_fault_ordinal_sweep_verdicts_are_pinned() {
    let reference = reference_output();
    // Probe: reads a clean resume issues (fault ordinals live in 1..=n).
    let reads = {
        let (dir, _p, _h) = committed_suspend("pprobe");
        let db = Database::open_default(&dir.0).unwrap();
        let fi = Arc::new(FaultInjector::seeded(7));
        db.disk().set_fault_injector(Some(fi.clone()));
        let r = QueryExecution::recover(db.clone());
        db.disk().set_fault_injector(None);
        assert!(r.unwrap().is_some(), "probe resume must succeed");
        fi.reads_observed()
    };

    let mut verdicts = Vec::new();
    for ord in 1..=reads {
        let (dir, prefix, _h) = committed_suspend(&format!("pf-{ord}"));
        let db = Database::open_default(&dir.0).unwrap();
        let fi = Arc::new(FaultInjector::seeded(7));
        fi.flip_read_bit(ord);
        db.disk().set_fault_injector(Some(fi));
        let r = QueryExecution::recover(db.clone());
        db.disk().set_fault_injector(None);
        verdicts.push(verdict_of(&r));
        let mut resumed = match r {
            // Flip absorbed (fallback substitution, or it landed in bytes
            // nothing consults): output must still be golden.
            Ok(Some(resumed)) => resumed,
            Ok(None) => panic!("ord={ord}: committed suspend read as clean state"),
            Err(e) => QueryExecution::recover(db)
                .unwrap_or_else(|e2| panic!("ord={ord}: retry after {e} failed: {e2}"))
                .expect("manifest must survive a failed resume"),
        };
        let suffix = resumed.run_to_completion().unwrap();
        let mut all = prefix;
        all.extend(suffix);
        assert_eq!(all, reference, "ord={ord}: diverged");
    }
    assert_eq!(verdicts, PINNED_READ_FAULT_VERDICTS, "{reads} resume reads");
}

#[test]
fn unreadable_dump_with_fallback_substitutes_goback() {
    let (dir, prefix, handle) = committed_suspend("fb");
    let db = Database::open_default(&dir.0).unwrap();
    let sq = SuspendedQuery::load(db.blobs(), handle.blob).unwrap();
    let dump = sq
        .records
        .values()
        .filter(|r| sq.fallbacks.contains_key(&r.op))
        .find_map(|r| r.heap_dump)
        .expect("a dumped operator with a GoBack fallback must exist");
    drop(db);
    let path = blob_path(&dir, dump.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[(dump.len / 2) as usize] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();

    let db = Database::open_default(&dir.0).unwrap();
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("a rotted dump with a fallback must substitute, not fail");
    let suffix = resumed.run_to_completion().unwrap();
    let mut all = prefix;
    all.extend(suffix);
    assert_eq!(all, reference_output());
}
