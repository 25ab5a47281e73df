//! Degradation-ladder matrix: drive the suspend driver through every
//! ladder rung — via disk quotas, scripted `NoSpace` faults, and I/O
//! deadlines — and inject crash/torn/NoSpace faults at every write
//! ordinal of a pressured suspend, every write ordinal of generation GC,
//! and every write ordinal of generation retirement.
//!
//! The invariant everywhere: after a fault the directory holds either a
//! committed, fully resumable generation or the clean pre-suspend state —
//! never a mix, never an unreadable manifest, never a panic. A resumed
//! query's output concatenated with its pre-suspend prefix must be
//! byte-identical to an uninterrupted run.

use qsr::core::{OpId, SuspendOptimizer, SuspendPolicy, SuspendedQuery};
use qsr::exec::{
    PlanSpec, Predicate, QueryExecution, Rung, SuspendOptions, SuspendTrigger,
};
use qsr::storage::{
    CostModel, Database, Decode, FaultInjector, LocalDiskBackend, Phase, RemoteMockBackend,
    RobustBackend, Tuple, WriteFault, COMPACT_CHAIN_LEN, PAGE_SIZE, RESUME_BACKOFF,
};
use qsr::workload::{generate_table, KeyDist, TableSpec};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

mod golden;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-degrade-{tag}-{}-{}",
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

/// Copy a checked-in golden directory (flat: tables, blobs, manifest).
fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Deterministic tables so write-event ordinals line up across the matrix.
fn populate(db: &Arc<Database>) {
    generate_table(db, &TableSpec::new("r", 800).payload(16).seed(11)).unwrap();
    generate_table(db, &TableSpec::new("s", 200).payload(16).seed(12)).unwrap();
}

/// Sort over block-NLJ over filtered scans — the same dump-heavy shape the
/// crash matrix uses, so every rung has real state to dump or roll back.
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

fn trigger() -> SuspendTrigger {
    SuspendTrigger::AfterOpTuples { op: OpId(1), n: 250 }
}

/// Run to the suspend point in a fresh directory (uncached — the
/// deterministic baseline the ordinal matrices need).
fn run_to_suspend_point(tag: &str) -> (TempDir, Arc<Database>, Vec<Tuple>, QueryExecution) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(trigger()));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done, "trigger must fire before the query completes");
    (dir, db, prefix, exec)
}

/// Cap the disk at `used + headroom` bytes.
fn arm_quota(db: &Database, headroom: u64) {
    let dm = db.disk();
    dm.set_quota(Some(dm.used_bytes().saturating_add(headroom)));
}

/// Assert the post-fault directory invariant: recovery either resumes a
/// committed generation whose output completes `prefix` into `reference`,
/// or reports clean state and a from-scratch rerun delivers `reference`.
fn assert_resumable_or_clean(dir: &TempDir, prefix: &[Tuple], reference: &[Tuple], what: &str) {
    let db = Database::open_default(&dir.0).unwrap();
    match QueryExecution::recover(db.clone()) {
        Ok(Some(mut resumed)) => {
            let suffix = resumed.run_to_completion().unwrap();
            let mut all = prefix.to_vec();
            all.extend(suffix);
            assert_eq!(all, reference, "{what}: resumed output diverges");
        }
        Ok(None) => {
            let mut fresh = QueryExecution::start(db, plan()).unwrap();
            let all = fresh.run_to_completion().unwrap();
            assert_eq!(all, reference, "{what}: fresh rerun diverges");
        }
        Err(e) => panic!("{what}: recovery errored: {e}"),
    }
}

/// The smallest quota headroom (in pages) at which a pressured suspend
/// under `policy` still commits. Everything below forces a clean abort;
/// the first commit must land on the cheapest admissible rung.
fn smallest_committing_headroom(policy: &SuspendPolicy) -> u64 {
    for pages in 1..=32u64 {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("probe");
        arm_quota(&db, pages * PAGE_SIZE as u64);
        if exec.suspend(policy).is_ok() {
            return pages * PAGE_SIZE as u64;
        }
    }
    panic!("no headroom up to 32 pages admits even the all-GoBack rung");
}

#[test]
fn every_ladder_rung_commits_under_engineered_pressure() {
    let reference = reference_output();
    let mut seen: HashSet<Rung> = HashSet::new();

    // Rung 0: no pressure at all — the requested plan commits as-is.
    {
        let (dir, db, prefix, exec) = run_to_suspend_point("r0");
        let h = exec
            .suspend(&SuspendPolicy::Optimized { budget: None })
            .unwrap();
        assert_eq!(h.rung, Rung::Requested);
        seen.insert(h.rung);
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, "no-pressure suspend");
    }

    // Rung 1: a one-shot NoSpace kills the requested plan's first write;
    // `Optimized`'s ladder steps straight down to all-DumpState, which is
    // fault-free and commits.
    {
        let (dir, db, prefix, exec) = run_to_suspend_point("r1");
        let fi = Arc::new(FaultInjector::seeded(1));
        fi.fail_write(1, WriteFault::NoSpace);
        db.disk().set_fault_injector(Some(fi));
        let h = exec
            .suspend(&SuspendPolicy::Optimized { budget: None })
            .unwrap();
        assert_eq!(h.rung, Rung::AllDump);
        seen.insert(h.rung);
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, "nospace → all-dump rung");
    }

    // Rung 2: a Fixed policy has the same ladder; the same one-shot fault
    // lands the commit on the all-DumpState rung.
    {
        let (dir, db, prefix, exec) = run_to_suspend_point("r2");
        let fixed = SuspendOptimizer::choose(
            &SuspendPolicy::AllDump,
            &exec.suspend_problem(),
            &exec.ctx().graph,
        )
        .unwrap()
        .plan;
        let fi = Arc::new(FaultInjector::seeded(2));
        fi.fail_write(1, WriteFault::NoSpace);
        db.disk().set_fault_injector(Some(fi));
        let h = exec
            .suspend(&SuspendPolicy::Fixed(fixed))
            .unwrap();
        assert_eq!(h.rung, Rung::AllDump);
        seen.insert(h.rung);
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, "nospace → all-dump rung");
    }

    // Rung 3: the AllDump ladder is [Requested, AllGoBack]; killing the
    // dump rung's very first write (the blob-file create, so nothing is
    // salvageable) lands the commit on the all-GoBack rung.
    {
        let (dir, db, prefix, exec) = run_to_suspend_point("r3");
        let fi = Arc::new(FaultInjector::seeded(4));
        fi.fail_write(1, WriteFault::NoSpace);
        db.disk().set_fault_injector(Some(fi));
        let h = exec
            .suspend(&SuspendPolicy::AllDump)
            .unwrap();
        assert_eq!(h.rung, Rung::AllGoBack);
        seen.insert(h.rung);
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, "nospace → all-goback rung");
    }

    assert_eq!(seen.len(), 3, "all three ladder rungs must have committed");
}

#[test]
fn minimal_quota_headroom_commits_some_rung_and_resumes() {
    // Sweep quota headrooms from nothing upward: below the minimal
    // headroom every attempt must abort cleanly (pre-suspend state),
    // at and above it the suspend commits at whatever rung fits — and
    // either way the delivered output matches the reference.
    let reference = reference_output();
    let minimal = smallest_committing_headroom(&SuspendPolicy::AllDump);
    for headroom in [0, minimal.saturating_sub(PAGE_SIZE as u64), minimal] {
        let (dir, db, prefix, exec) = run_to_suspend_point("min");
        arm_quota(&db, headroom);
        let outcome = exec.suspend(&SuspendPolicy::AllDump);
        db.disk().set_quota(None);
        if headroom >= minimal {
            assert!(outcome.is_ok(), "minimal headroom {headroom} must commit");
        } else {
            let err = outcome.expect_err("sub-minimal headroom must abort");
            assert!(err.is_resource_pressure(), "typed pressure, got {err}");
        }
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, &format!("headroom {headroom}"));
    }
}

#[test]
fn tiny_deadline_admission_control_skips_to_goback() {
    // A deadline far below the all-dump plan's estimate: admission
    // control must skip the dump-bearing rung without spending its I/O
    // and commit the final all-GoBack rung.
    let reference = reference_output();
    let (dir, db, prefix, exec) = run_to_suspend_point("deadline");
    let fi = Arc::new(FaultInjector::seeded(3));
    db.disk().set_fault_injector(Some(fi.clone()));
    let before = fi.writes_observed();
    let h = exec
        .suspend_with(
            &SuspendPolicy::AllDump,
            &SuspendOptions {
                deadline: Some(0.5),
                ..SuspendOptions::default()
            },
        )
        .unwrap();
    assert_eq!(h.rung, Rung::AllGoBack);
    // Admission control is the point: the skipped rungs must not have
    // written anything. Everything observed belongs to the committed rung.
    let spent = fi.writes_observed() - before;
    let goback_only = {
        let (_d2, db2, _p2, exec2) = run_to_suspend_point("deadline-ref");
        let fi2 = Arc::new(FaultInjector::seeded(3));
        db2.disk().set_fault_injector(Some(fi2.clone()));
        exec2
            .suspend(&SuspendPolicy::AllGoBack)
            .unwrap();
        fi2.writes_observed()
    };
    assert_eq!(
        spent, goback_only,
        "skipped rungs must not consume write events"
    );
    drop(db);
    assert_resumable_or_clean(&dir, &prefix, &reference, "deadline admission control");
}

#[test]
fn deadline_sweep_commits_within_budget_at_every_fraction() {
    // Deadlines from a sliver of the full all-dump suspend cost up to all
    // of it, on a plan with enough buffered state (three stacked block
    // NLJs, ~100 cost units of dumps) that the deadline decides how much
    // of it is dumped: whatever the ladder lands on, the suspend phase
    // spends no more than the deadline plus the commit bookkeeping (the
    // SuspendedQuery blob and the manifest rename ride outside the
    // budgeted dumps), a rung always commits, and the resume is exact.
    let nlj = |outer: PlanSpec, inner: &str, buffer_tuples: usize| PlanSpec::BlockNlj {
        outer: Box::new(outer),
        inner: Box::new(PlanSpec::TableScan { table: inner.into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples,
    };
    let plan = || {
        let base = PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "a".into() }),
            predicate: Predicate::IntLt { col: 1, value: 100 },
        };
        nlj(nlj(nlj(base, "b", 400), "c", 800), "d", 1200)
    };
    let start = |tag: &str| -> (TempDir, Arc<Database>, QueryExecution) {
        let dir = TempDir::new(tag);
        let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
        for (name, rows) in [("a", 8_000u64), ("b", 8_000), ("c", 8_000), ("d", 600)] {
            generate_table(&db, &TableSpec::new(name, rows).payload(64).seed(rows)).unwrap();
        }
        let exec = QueryExecution::start(db.clone(), plan()).unwrap();
        (dir, db, exec)
    };
    // Run to the suspend point, suspend, and resume to completion; returns
    // the whole output and what the suspend phase charged.
    let cycle = |policy: &SuspendPolicy, deadline: Option<f64>| -> (Vec<Tuple>, f64) {
        let (_dir, db, mut exec) = start("sweep");
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(0), n: 560 }));
        let (mut out, done) = exec.run().unwrap();
        assert!(!done, "trigger must fire before the query completes");
        let before = db.ledger().snapshot();
        let h = exec
            .suspend_with(policy, &SuspendOptions { deadline, ..SuspendOptions::default() })
            .unwrap_or_else(|e| panic!("deadline {deadline:?}: no rung committed: {e}"));
        let spent = db.ledger().snapshot().since(&before).phase_cost(Phase::Suspend);
        let mut resumed = QueryExecution::resume(db, &h).unwrap();
        out.extend(resumed.run_to_completion().unwrap());
        (out, spent)
    };
    let reference = start("sweep-ref").2.run_to_completion().unwrap();
    let (out, full) = cycle(&SuspendPolicy::AllDump, None);
    assert_eq!(out, reference);

    let mut spends = Vec::new();
    for frac in [0.02, 0.25, 0.5, 0.75, 1.0] {
        let deadline = full * frac;
        let (out, spent) = cycle(&SuspendPolicy::Optimized { budget: None }, Some(deadline));
        assert!(
            spent <= deadline + full * 0.05 + 10.0,
            "deadline {deadline:.1} ({frac} x full {full:.1}): suspend spent {spent:.1}"
        );
        assert_eq!(out, reference, "deadline {frac} x full: output diverges");
        spends.push(spent);
    }
    assert!(
        spends[0] < spends[4],
        "the sweep must cross plans, or the bound above checks nothing: {spends:?}"
    );
}

#[test]
fn scripted_nospace_at_every_write_ordinal_still_commits() {
    // A one-shot NoSpace can strike any write of the suspend phase; the
    // ladder always has a fault-free rung left, so every ordinal must end
    // in a committed, resumable suspend.
    let reference = reference_output();
    let writes = {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("dry");
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::Optimized { budget: None })
            .unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0);
    for k in 1..=writes {
        let (dir, db, prefix, exec) = run_to_suspend_point("cell");
        let fi = Arc::new(FaultInjector::seeded(0xA0 + k));
        fi.fail_write(k, WriteFault::NoSpace);
        db.disk().set_fault_injector(Some(fi));
        exec.suspend(&SuspendPolicy::Optimized { budget: None })
            .unwrap_or_else(|e| panic!("nospace at write {k}: suspend aborted: {e}"));
        drop(db);
        assert_resumable_or_clean(&dir, &prefix, &reference, &format!("nospace at write {k}"));
    }
}

#[test]
fn fault_matrix_under_disk_pressure() {
    // The pressured ladder (quota forcing descent to all-GoBack) under a
    // crash, torn write, or second NoSpace at every write ordinal it
    // issues — rung boundaries included. Every cell must leave resumable
    // or clean state.
    let reference = reference_output();
    // AllDump under the minimal headroom: rung 0 genuinely runs out of
    // space partway, so the write window spans a failing rung, the salvage
    // sweep at the rung boundary, and the committing all-GoBack rung.
    let headroom = smallest_committing_headroom(&SuspendPolicy::AllDump);
    let writes = {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("pdry");
        arm_quota(&db, headroom);
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0, "pressured ladder must issue write events");
    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn, WriteFault::NoSpace] {
            let (dir, db, prefix, exec) = run_to_suspend_point("pcell");
            arm_quota(&db, headroom);
            let fi = Arc::new(FaultInjector::seeded(0xBAD + k));
            fi.fail_write(k, fault);
            db.disk().set_fault_injector(Some(fi));
            // Commit, clean abort, or halt are all legal; what matters is
            // the state left behind.
            let _ = exec.suspend(&SuspendPolicy::AllDump);
            drop(db);
            assert_resumable_or_clean(
                &dir,
                &prefix,
                &reference,
                &format!("{fault:?} at pressured write {k}"),
            );
        }
    }
}

/// Crash at every write ordinal of a *second* suspend — whose tail is the
/// GC of the first generation — and assert exactly one valid generation
/// survives: recovery resumes generation 1 or generation 2, never a mix,
/// never an error.
#[test]
fn gc_crash_matrix_keeps_exactly_one_valid_generation() {
    let reference = reference_output();

    // Shape of one run: suspend (gen 1) → resume → 40 more root tuples →
    // suspend (gen 2, GC of gen 1 at its tail).
    let second_trigger = SuspendTrigger::AfterOpTuples { op: OpId(0), n: 40 };
    let writes = {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("gdry");
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        let mut resumed = QueryExecution::recover(db.clone()).unwrap().unwrap();
        resumed.set_trigger(Some(second_trigger.clone()));
        let (_mid, done) = resumed.run().unwrap();
        assert!(!done);
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        resumed
            .suspend(&SuspendPolicy::AllDump)
            .unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0);

    for k in 1..=writes {
        let fault = if k % 2 == 0 { WriteFault::Torn } else { WriteFault::Crash };
        let (dir, db, prefix, exec) = run_to_suspend_point("gcell");
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        let mut resumed = QueryExecution::recover(db.clone()).unwrap().unwrap();
        resumed.set_trigger(Some(second_trigger.clone()));
        let (mid, done) = resumed.run().unwrap();
        assert!(!done);
        let fi = Arc::new(FaultInjector::seeded(0x6C + k));
        fi.fail_write(k, fault);
        db.disk().set_fault_injector(Some(fi));
        let _ = resumed.suspend(&SuspendPolicy::AllDump);
        drop(db);

        // Exactly one generation must load. Which one decides how much of
        // the mid-segment the resumed run re-delivers.
        let db = Database::open_default(&dir.0).unwrap();
        let manifest = qsr::exec::read_manifest(&db)
            .unwrap_or_else(|e| panic!("{fault:?} at gc write {k}: manifest unreadable: {e}"))
            .unwrap_or_else(|| panic!("{fault:?} at gc write {k}: both generations lost"));
        assert!(
            manifest.generation == 1 || manifest.generation == 2,
            "{fault:?} at gc write {k}: unexpected generation {}",
            manifest.generation
        );
        let mut resumed = QueryExecution::recover(db)
            .unwrap_or_else(|e| panic!("{fault:?} at gc write {k}: recovery errored: {e}"))
            .unwrap();
        let suffix = resumed.run_to_completion().unwrap();
        let mut all = prefix.clone();
        if manifest.generation == 2 {
            all.extend(mid.iter().cloned());
        }
        all.extend(suffix);
        assert_eq!(
            all, reference,
            "{fault:?} at gc write {k}: generation {} output diverges",
            manifest.generation
        );
    }
}

/// Crash at every write ordinal of generation retirement: before the
/// manifest removal the generation must still resume; after it the state
/// must read as cleanly un-suspended. Never an error, never a half-retired
/// generation that loads garbage.
#[test]
fn retire_crash_matrix_is_all_or_nothing() {
    let reference = reference_output();
    let writes = {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("rdry");
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        QueryExecution::retire_generation(&db).unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0, "retirement must issue write events");

    for k in 1..=writes {
        let fault = if k % 2 == 0 { WriteFault::Torn } else { WriteFault::Crash };
        let (dir, db, prefix, exec) = run_to_suspend_point("rcell");
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        let fi = Arc::new(FaultInjector::seeded(0x2E + k));
        fi.fail_write(k, fault);
        db.disk().set_fault_injector(Some(fi));
        let _ = QueryExecution::retire_generation(&db);
        drop(db);
        assert_resumable_or_clean(
            &dir,
            &prefix,
            &reference,
            &format!("{fault:?} at retire write {k}"),
        );
    }
}

/// The watchdog must see *every* write a rung charges to the suspend
/// phase, not just dump blobs. A rung that satisfies all its dumps from
/// the salvage cache (free, never vetoed) still flushes partition-writer
/// tails when it seals — those non-dump pages face the same per-rung
/// budget via `guard_suspend_write`, otherwise a salvage-reuse rung could
/// overrun its deadline through writes the dump-path watchdog never sees.
#[test]
fn watchdog_vetoes_non_dump_seal_writes_but_never_salvage_reuse() {
    use qsr::exec::{DumpWatchdog, ExecContext};
    use qsr::storage::StorageError;

    let dir = TempDir::new("wd");
    let db = Database::open_default(&dir.0).unwrap();
    let mut ctx = ExecContext::new(db.clone());
    let write_page = db.ledger().model().write_page;

    // Unwatched dump: lands one blob (one page) and seeds the reuse case.
    let value: Vec<u8> = vec![0xAB; 64];
    let before = db.ledger().snapshot();
    let id = ctx.put_dump_value(OpId(7), &value).unwrap();
    let one_dump = db.ledger().snapshot().since(&before).total_cost();
    assert!(one_dump >= write_page, "a fresh dump must charge its pages");

    // Arm a budget below even a single page write: nothing fresh fits.
    ctx.set_watchdog(Some(DumpWatchdog {
        budget: 0.4 * write_page,
        baseline: db.ledger().snapshot(),
    }));

    // A fresh dump is vetoed...
    let fresh: Vec<u8> = vec![0xCD; 64];
    let err = ctx.put_dump_value(OpId(7), &fresh).expect_err("fresh dump must be vetoed");
    assert!(matches!(err, StorageError::DeadlineExceeded { .. }), "got {err}");

    // ...but reusing the salvaged blob writes nothing and must never be.
    ctx.add_salvage([id]);
    assert_eq!(ctx.put_dump_value(OpId(7), &value).unwrap(), id);

    // The non-dump seal write is charged to the same budget: one tail
    // page would overrun, so the guard vetoes it; a no-op seal is free.
    let err = ctx
        .guard_suspend_write(1)
        .expect_err("seal tail flush must face the watchdog");
    assert!(matches!(err, StorageError::DeadlineExceeded { .. }), "got {err}");
    assert!(ctx.guard_suspend_write(0).is_ok());

    // Disarmed (execution phase): the guard is a no-op.
    ctx.set_watchdog(None);
    assert!(ctx.guard_suspend_write(1).is_ok());
}

/// Multi-session preemption (PR 6): three sessions share one directory,
/// each committing suspends under its **own named manifest**. A torn
/// write at any ordinal of session A's suspend must leave sessions B and
/// C fully resumable from their committed generations — exactly one
/// valid generation per session, never cross-session damage. (Under the
/// old single global manifest, A's suspend would have garbage-collected
/// B's or C's committed generation.)
#[test]
fn torn_write_during_one_sessions_suspend_spares_the_others() {
    let reference = reference_output();
    let manifest = |i: u64| format!("session-{i}.suspend");

    // Deterministic three-session state over one directory: B and C run
    // to their triggers and commit suspends under their own manifests;
    // A runs to its trigger and stays live, ready to be preempted.
    let build = |tag: &str| -> (TempDir, Arc<Database>, Vec<Vec<Tuple>>, QueryExecution) {
        let dir = TempDir::new(tag);
        let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
        populate(&db);
        db.pool().flush_all().unwrap();
        let mut prefixes = Vec::new();
        for (i, n) in [(2u64, 250u64), (3, 350)] {
            let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
            exec.set_manifest_name(manifest(i));
            exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n }));
            let (prefix, done) = exec.run().unwrap();
            assert!(!done);
            exec.suspend(&SuspendPolicy::AllDump)
                .unwrap();
            prefixes.push(prefix);
        }
        let mut a = QueryExecution::start(db.clone(), plan()).unwrap();
        a.set_manifest_name(manifest(1));
        a.set_trigger(Some(trigger()));
        let (a_prefix, done) = a.run().unwrap();
        assert!(!done);
        prefixes.insert(0, a_prefix);
        (dir, db, prefixes, a)
    };

    let writes = {
        let (_dir, db, _prefixes, a) = build("mdry");
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        a.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0);

    for k in 1..=writes {
        let (dir, db, prefixes, a) = build("mcell");
        let fi = Arc::new(FaultInjector::seeded(0x7081 + k));
        fi.fail_write(k, WriteFault::Torn);
        db.disk().set_fault_injector(Some(fi));
        let _ = a.suspend(&SuspendPolicy::AllDump);
        drop(db);

        let db = Database::open_default(&dir.0).unwrap();
        // Sessions B and C: their committed generation 1 must survive A's
        // torn suspend untouched and resume to the exact reference.
        for (i, session) in [2u64, 3].into_iter().enumerate() {
            let m = qsr::exec::read_manifest_named(&db, &manifest(session))
                .unwrap_or_else(|e| {
                    panic!("torn at write {k}: session {session} manifest unreadable: {e}")
                })
                .unwrap_or_else(|| {
                    panic!("torn at write {k}: session {session} lost its generation")
                });
            assert_eq!(
                m.generation, 1,
                "torn at write {k}: session {session} generation tampered"
            );
            let mut resumed = QueryExecution::recover_named(db.clone(), &manifest(session))
                .unwrap_or_else(|e| {
                    panic!("torn at write {k}: session {session} resume failed: {e}")
                })
                .unwrap();
            let suffix = resumed.run_to_completion().unwrap();
            let mut all = prefixes[i + 1].clone();
            all.extend(suffix);
            assert_eq!(
                all, reference,
                "torn at write {k}: session {session} output diverges"
            );
        }
        // Session A: its own manifest must read cleanly — committed whole
        // (resumes to the reference) or absent (fresh rerun matches) —
        // never torn.
        match qsr::exec::read_manifest_named(&db, &manifest(1))
            .unwrap_or_else(|e| panic!("torn at write {k}: victim manifest unreadable: {e}"))
        {
            Some(_) => {
                let mut resumed = QueryExecution::recover_named(db.clone(), &manifest(1))
                    .unwrap_or_else(|e| panic!("torn at write {k}: victim resume failed: {e}"))
                    .unwrap();
                let suffix = resumed.run_to_completion().unwrap();
                let mut all = prefixes[0].clone();
                all.extend(suffix);
                assert_eq!(all, reference, "torn at write {k}: victim output diverges");
            }
            None => {
                let mut fresh = QueryExecution::start(db.clone(), plan()).unwrap();
                assert_eq!(
                    fresh.run_to_completion().unwrap(),
                    reference,
                    "torn at write {k}: victim fresh rerun diverges"
                );
            }
        }
    }
}

/// A query resumed from its handle keeps the manifest name it committed
/// under: named `q1`, suspended, resumed through
/// `QueryExecution::resume(&handle)` and suspended again, its second
/// generation lands on `q1` and the default manifest is never written.
/// (A resume that forgot the name would commit generation 1 over the
/// default manifest — and garbage-collect whatever another query had
/// committed there.)
#[test]
fn resume_from_handle_keeps_the_manifest_name() {
    let (dir, db, mut output, mut exec) = run_to_suspend_point("mname");
    exec.set_manifest_name("q1");
    let first = exec.suspend(&SuspendPolicy::AllDump).unwrap();
    assert_eq!((first.manifest_name.as_str(), first.generation), ("q1", 1));

    let mut resumed = QueryExecution::resume(db.clone(), &first).unwrap();
    assert_eq!(resumed.manifest_name(), "q1");
    let n = resumed.ctx().ticks_of(OpId(1)) + 100;
    resumed.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n }));
    let (segment, done) = resumed.run().unwrap();
    assert!(
        !done,
        "the second trigger must fire before the query completes"
    );
    output.extend(segment);
    let second = resumed.suspend(&SuspendPolicy::AllDump).unwrap();
    assert_eq!(
        (second.manifest_name.as_str(), second.generation),
        ("q1", 2)
    );

    let q1 = qsr::exec::read_manifest_named(&db, "q1")
        .unwrap()
        .expect("q1 committed");
    assert_eq!((q1.generation, q1.query), (2, second.blob));
    assert!(
        qsr::exec::read_manifest(&db).unwrap().is_none(),
        "a resumed query must not commit under the default manifest"
    );

    drop(db);
    let db = Database::open_default(&dir.0).unwrap();
    let mut last = QueryExecution::resume(db, &second).unwrap();
    output.extend(last.run_to_completion().unwrap());
    assert_eq!(output, reference_output());
}

/// Tables for the larger-than-memory matrices: a duplicate-heavy build
/// side (the hot key never splits, forcing recursion to the depth cap and
/// the block-NLJ fallback) and a reverse-sorted sort input (adversarial
/// run formation).
fn grace_populate(db: &Arc<Database>) {
    generate_table(
        db,
        &TableSpec::new("gj_b", 27).payload(24).seed(15).dist(KeyDist::DupHeavy),
    )
    .unwrap();
    generate_table(db, &TableSpec::new("gj_p", 54).payload(24).seed(14)).unwrap();
    generate_table(
        db,
        &TableSpec::new("gs", 60).payload(24).seed(16).dist(KeyDist::Reversed),
    )
    .unwrap();
}

/// Budget 1: every multi-tuple partition re-partitions, recursion bottoms
/// out at the depth cap, and the fallback runs single-tuple NLJ blocks —
/// the deepest partition tree the operator supports.
fn grace_join_plan() -> PlanSpec {
    PlanSpec::MemoryBudget {
        input: Box::new(PlanSpec::HashJoin {
            build: Box::new(PlanSpec::TableScan { table: "gj_b".into() }),
            probe: Box::new(PlanSpec::TableScan { table: "gj_p".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 3,
            hybrid: false,
        }),
        mem_budget: 1,
        merge_fanin: 0,
    }
}

/// Buffer 6 over 60 rows flushes 10 sublists; fan-in 2 forces several
/// intermediate merge passes before the final merge.
fn multipass_sort_plan() -> PlanSpec {
    PlanSpec::MemoryBudget {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan { table: "gs".into() }),
            key: 0,
            buffer_tuples: 6,
        }),
        mem_budget: 0,
        merge_fanin: 2,
    }
}

fn grace_reference(plan: &PlanSpec) -> Vec<Tuple> {
    let dir = TempDir::new("gref");
    let db = Database::open_default(&dir.0).unwrap();
    grace_populate(&db);
    let mut exec = QueryExecution::start(db, plan.clone()).unwrap();
    exec.run_to_completion().unwrap()
}

/// Run `plan` to work-unit boundary `b` in a fresh uncached directory.
fn grace_run_to_boundary(
    tag: &str,
    plan: &PlanSpec,
    b: u64,
) -> (TempDir, Arc<Database>, Vec<Tuple>, QueryExecution) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    grace_populate(&db);
    db.pool().flush_all().unwrap();
    let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
    exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= b)));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done, "boundary {b} must interrupt the query");
    (dir, db, prefix, exec)
}

fn grace_total_work_units(plan: &PlanSpec) -> u64 {
    let dir = TempDir::new("gtotal");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    grace_populate(&db);
    let mut exec = QueryExecution::start(db, plan.clone()).unwrap();
    exec.run_to_completion().unwrap();
    exec.work_units()
}

fn assert_grace_resumable_or_clean(
    dir: &TempDir,
    plan: &PlanSpec,
    prefix: &[Tuple],
    reference: &[Tuple],
    what: &str,
) {
    let db = Database::open_default(&dir.0).unwrap();
    match QueryExecution::recover(db.clone()) {
        Ok(Some(mut resumed)) => {
            let suffix = resumed.run_to_completion().unwrap();
            let mut all = prefix.to_vec();
            all.extend(suffix);
            assert_eq!(all, reference, "{what}: resumed output diverges");
        }
        Ok(None) => {
            let mut fresh = QueryExecution::start(db, plan.clone()).unwrap();
            let all = fresh.run_to_completion().unwrap();
            assert_eq!(all, reference, "{what}: fresh rerun diverges");
        }
        Err(e) => panic!("{what}: recovery errored: {e}"),
    }
}

/// NoSpace + crash + torn at every write ordinal of suspends parked at
/// boundaries spanning the grace join's recursive-spill region and the
/// sort's intermediate merge passes. Each cell must end resumable or
/// clean; the tracer cross-check proves at least one boundary per plan
/// truly landed *inside* the machinery (spill / pass events both before
/// the suspend and after the resume).
#[test]
fn fault_matrix_at_recursive_spill_and_merge_pass_ordinals() {
    use qsr::storage::TraceEvent;

    for (name, plan) in [
        ("grace-join", grace_join_plan()),
        ("multipass-sort", multipass_sort_plan()),
    ] {
        let reference = grace_reference(&plan);
        let total = grace_total_work_units(&plan);
        // Boundaries spanning the state machines' interesting region: the
        // partition tree unfolds (and merge passes run) between the input
        // consumption at the start and the final emit tail.
        let boundaries: Vec<u64> = [4, 8, 12, 16]
            .iter()
            .map(|&i| (total * i / 20).max(1))
            .collect();
        let interesting = |records: &[qsr::storage::TraceRecord]| {
            records
                .iter()
                .filter(|r| {
                    matches!(
                        r.event,
                        TraceEvent::PartitionSpill { .. } | TraceEvent::MergePass { .. }
                    )
                })
                .count()
        };
        let mut straddled = false;
        for &b in &boundaries {
            // Dry pass: full-capture tracer over the whole interfered run.
            // Spill/pass events in the pre-suspend segment AND in the
            // resumed tail prove the boundary sat mid-machinery.
            let dir = TempDir::new("gdry");
            let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
            grace_populate(&db);
            db.pool().flush_all().unwrap();
            let tracer = std::sync::Arc::new(qsr::storage::Tracer::new(db.ledger().clone()));
            tracer.enable_full_capture();
            db.ledger().set_tracer(&tracer);
            let mut exec = QueryExecution::start(db.clone(), plan.clone()).unwrap();
            exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= b)));
            let (prefix, done) = exec.run().unwrap();
            assert!(!done, "{name}: boundary {b} must interrupt the query");
            let before = interesting(&tracer.take_full());
            let fi = Arc::new(FaultInjector::seeded(0));
            db.disk().set_fault_injector(Some(fi.clone()));
            exec.suspend(&SuspendPolicy::Optimized { budget: None })
                .unwrap();
            let writes = fi.writes_observed();
            assert!(writes > 0, "{name} boundary {b}: suspend must write");
            db.disk().set_fault_injector(None);
            let mut resumed = QueryExecution::recover(db.clone()).unwrap().unwrap();
            let suffix = resumed.run_to_completion().unwrap();
            let after = interesting(&tracer.take_full());
            let mut all = prefix.clone();
            all.extend(suffix);
            assert_eq!(all, reference, "{name} boundary {b}: dry run diverges");
            if before > 0 && after > 0 {
                straddled = true;
            }

            for k in 1..=writes {
                for fault in [WriteFault::NoSpace, WriteFault::Crash, WriteFault::Torn] {
                    let (dir, db, prefix, exec) = grace_run_to_boundary("gcell", &plan, b);
                    let fi = Arc::new(FaultInjector::seeded(0x96ACE + k));
                    fi.fail_write(k, fault);
                    db.disk().set_fault_injector(Some(fi));
                    // Commit, ladder descent, or halt are all legal; the
                    // state left behind is what the cell checks. Only a
                    // one-shot NoSpace is never fatal: a fault-free rung
                    // is always left, below the requested one when the
                    // requested plan's first write is the one that fails.
                    let outcome =
                        exec.suspend(&SuspendPolicy::Optimized { budget: None });
                    if matches!(fault, WriteFault::NoSpace) {
                        let rung = outcome
                            .unwrap_or_else(|e| panic!("{name}: NoSpace at write {k} of boundary {b} aborted: {e}"))
                            .rung;
                        assert!(
                            k > 1 || rung != Rung::Requested,
                            "{name} boundary {b}: NoSpace on the first write must degrade the rung"
                        );
                    }
                    drop(db);
                    assert_grace_resumable_or_clean(
                        &dir,
                        &plan,
                        &prefix,
                        &reference,
                        &format!("{name}: {fault:?} at write {k} of boundary {b}"),
                    );
                }
            }
        }
        assert!(
            straddled,
            "{name}: no swept boundary resumed into remaining spill/pass work"
        );
    }
}

// ---------------------------------------------------------------------
// Repeated-suspend matrices: delta-chain commits, chain compaction,
// remote failover, and the GC of an older build's retained generation —
// each under faults at every write ordinal. The invariant throughout:
// the directory always holds **exactly one valid, recoverable chain** —
// a manifest that loads, a chain below the compaction cap, every
// generation it still retains fully materializable, and a resume that
// delivers the reference output.
// ---------------------------------------------------------------------

/// Tables sized so operator dumps span several pages — page-granular
/// delta frames have unchanged prefixes to elide — and the filtered
/// outer stream survives four suspend cycles' worth of ticks.
fn delta_populate(db: &Arc<Database>) {
    generate_table(db, &TableSpec::new("dr", 3000).seed(31)).unwrap();
    generate_table(db, &TableSpec::new("ds", 3000).seed(32)).unwrap();
}

fn delta_plan() -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "dr".into() }),
                predicate: Predicate::IntLt { col: 1, value: 500 },
            }),
            inner: Box::new(PlanSpec::TableScan { table: "ds".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 150,
        }),
        key: 0,
        buffer_tuples: 4096,
    }
}

fn delta_reference() -> Vec<Tuple> {
    let dir = TempDir::new("dref");
    let db = Database::open_default(&dir.0).unwrap();
    delta_populate(&db);
    let mut exec = QueryExecution::start(db, delta_plan()).unwrap();
    exec.run_to_completion().unwrap()
}

/// Commit `committed` suspends (the first after 250 NLJ ticks, each
/// later one 40 ticks into its resumed segment) and leave the execution
/// parked at the pre-suspend point of suspend `committed + 1`. The root
/// sort is blocking, so no tuple leaves before the final drain — every
/// cell's full output arrives in the post-fault completion run.
fn run_delta_cycles(tag: &str, committed: usize) -> (TempDir, Arc<Database>, QueryExecution) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    delta_populate(&db);
    db.pool().flush_all().unwrap();
    let mut exec = QueryExecution::start(db.clone(), delta_plan()).unwrap();
    for cycle in 0..=committed {
        let ticks = if cycle == 0 { 250 } else { 40 };
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n: ticks }));
        let (prefix, done) = exec.run().unwrap();
        assert!(prefix.is_empty(), "the blocking sort must deliver nothing mid-build");
        assert!(!done, "cycle {cycle} finished before its suspend fired");
        if cycle < committed {
            exec.suspend(&SuspendPolicy::AllDump).unwrap();
            exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
        }
    }
    (dir, db, exec)
}

/// The exactly-one-valid-recoverable-chain invariant, checked from a
/// fresh handle: the manifest loads to one of the legal generations in
/// `gens` (each paired with the number of `reference` tuples delivered
/// before its suspend; the last is the one this build commits), its chain
/// is below the compaction cap, the newest legal generation retains
/// nothing, every generation an older build's manifest retains is fully
/// materializable (query blob, record and fallback dumps, every delta
/// ancestor), the resumed execution has delivered exactly its
/// generation's count, and its run delivers the rest of `reference`.
fn assert_one_valid_delta_chain(
    dir: &TempDir,
    reference: &[Tuple],
    gens: &[(u64, usize)],
    what: &str,
) {
    let db = Database::open_default(&dir.0).unwrap();
    let m = qsr::exec::read_manifest(&db)
        .unwrap_or_else(|e| panic!("{what}: manifest unreadable: {e}"))
        .unwrap_or_else(|| panic!("{what}: every committed generation lost"));
    let &(_, delivered) = gens
        .iter()
        .find(|(g, _)| *g == m.generation)
        .unwrap_or_else(|| panic!("{what}: unexpected generation {} (legal: {gens:?})", m.generation));
    assert!(
        (m.chain_len as usize) < COMPACT_CHAIN_LEN,
        "{what}: chain_len {} at or past the compaction cap",
        m.chain_len
    );
    if Some(m.generation) == gens.last().map(|&(g, _)| g) {
        assert!(m.retained.is_empty(), "{what}: a new commit retains nothing");
    }
    let backend = db.backend();
    for (generation, qblob) in &m.retained {
        let sq = SuspendedQuery::decode_from_slice(
            &backend
                .get_blob(*qblob)
                .unwrap_or_else(|e| panic!("{what}: retained gen {generation} unreadable: {e}")),
        )
        .unwrap_or_else(|e| panic!("{what}: retained gen {generation} undecodable: {e}"));
        for rec in sq.records.values().chain(sq.fallbacks.values().flatten()) {
            if let Some(b) = rec.heap_dump {
                backend.get_blob(b).unwrap_or_else(|e| {
                    panic!("{what}: retained gen {generation} dump unreadable: {e}")
                });
            }
        }
        for dep in sq.delta_deps.values().flatten() {
            backend.get_blob(*dep).unwrap_or_else(|e| {
                panic!("{what}: retained gen {generation} delta ancestor unreadable: {e}")
            });
        }
    }
    let mut resumed = QueryExecution::recover(db)
        .unwrap_or_else(|e| panic!("{what}: recovery errored: {e}"))
        .unwrap_or_else(|| panic!("{what}: committed generation did not recover"));
    assert_eq!(
        resumed.tuples_emitted() as usize,
        delivered,
        "{what}: generation {} resumed with the wrong delivered count",
        m.generation
    );
    let out = resumed.run_to_completion().unwrap();
    assert_eq!(out, reference[delivered..], "{what}: resumed output diverges");
}

/// Crash / torn / transient at every write ordinal of the first
/// delta-chain commit (the second suspend: fresh delta frames over the
/// full generation, plus the GC of generation 1 at its tail).
#[test]
fn delta_chain_commit_fault_matrix_keeps_exactly_one_chain() {
    let reference = delta_reference();
    let writes = {
        let (_dir, db, exec) = run_delta_cycles("dcdry", 1);
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        let m = qsr::exec::read_manifest(&db).unwrap().unwrap();
        assert!(
            m.chain_len >= 1,
            "the second delta suspend must actually chain (chain_len {})",
            m.chain_len
        );
        fi.writes_observed()
    };
    assert!(writes > 0);
    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn, WriteFault::Transient(2)] {
            let (dir, db, exec) = run_delta_cycles("dccell", 1);
            let fi = Arc::new(FaultInjector::seeded(0xDE17A + k));
            fi.fail_write(k, fault);
            db.disk().set_fault_injector(Some(fi));
            let _ = exec.suspend(&SuspendPolicy::AllDump);
            drop(db);
            assert_one_valid_delta_chain(
                &dir,
                &reference,
                &[(1, 0), (2, 0)],
                &format!("{fault:?} at delta-commit write {k}"),
            );
        }
    }
}

/// Crash / torn at every write ordinal of the compaction fold: after
/// three committed generations the chain sits at depth 2 (the cap minus
/// one), so the fourth suspend folds it back to full dumps. A fault mid-
/// fold must leave generation 3 (chained) or generation 4 (folded) whole.
#[test]
fn compaction_fold_fault_matrix_keeps_exactly_one_chain() {
    use qsr::storage::{TraceEvent, Tracer};
    let reference = delta_reference();
    // The sort's buffer only grows between these suspends, and a dump of
    // rows as records is then the previous dump's bytes with the new rows
    // appended (the row count in the header aside), so every delta frame
    // is smaller than the full dump: the chain is 0, 1 and 2 links long
    // after the first, second and third committed suspend, making the
    // fourth the fold.
    let writes = {
        let (_dir, db, exec) = run_delta_cycles("cfdry", 3);
        let pre = qsr::exec::read_manifest(&db).unwrap().unwrap();
        assert_eq!(
            pre.chain_len as usize,
            COMPACT_CHAIN_LEN - 1,
            "three committed delta suspends must sit one below the cap"
        );
        let tracer = Arc::new(Tracer::new(db.ledger().clone()));
        tracer.enable_full_capture();
        db.ledger().set_tracer(&tracer);
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        let folds = tracer
            .take_full()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ChainCompact { .. }))
            .count();
        assert!(folds > 0, "the fourth suspend must fold at least one chain");
        let post = qsr::exec::read_manifest(&db).unwrap().unwrap();
        assert!(
            (post.chain_len as usize) < COMPACT_CHAIN_LEN,
            "the fold must bring the chain back below the cap"
        );
        fi.writes_observed()
    };
    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn] {
            let (dir, db, exec) = run_delta_cycles("cfcell", 3);
            let fi = Arc::new(FaultInjector::seeded(0xF07D + k));
            fi.fail_write(k, fault);
            db.disk().set_fault_injector(Some(fi));
            let _ = exec.suspend(&SuspendPolicy::AllDump);
            drop(db);
            assert_one_valid_delta_chain(
                &dir,
                &reference,
                &[(3, 0), (4, 0)],
                &format!("{fault:?} at compaction write {k}"),
            );
        }
    }
}

/// Crash / torn at every write ordinal of the first commit over an older
/// build's manifest that retains a generation: the golden `suspend-v3`
/// directory (generation 2 current and chained to generation 1, which is
/// retained), recovered, run one segment and suspended. The commit drops
/// the retained generation and its GC collects it, so a fault must leave
/// either generation 2 with generation 1 still fully materializable —
/// delta ancestors included — or generation 3 retaining nothing, and
/// either resumes to the fresh run's output.
#[test]
fn retention_gc_fault_matrix_never_breaks_live_chains() {
    let reference = {
        let dir = TempDir::new("rgref");
        let db = golden::populate(&dir.0).unwrap();
        QueryExecution::start(db, golden::plan())
            .unwrap()
            .run_to_completion()
            .unwrap()
    };
    let segment = |tag: &str| {
        let dir = TempDir::new(tag);
        copy_dir(&golden::suspend_v3_dir(), &dir.0);
        let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
        let pre = qsr::exec::read_manifest(&db).unwrap().unwrap();
        assert_eq!(
            (pre.generation, pre.retained.len()),
            (2, 1),
            "suspend-v3 retains its first generation"
        );
        let mut exec = QueryExecution::recover(db.clone()).unwrap().unwrap();
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(4), n: 300 }));
        let (prefix, done) = exec.run().unwrap();
        assert!(!done, "the segment must stop inside the query");
        assert_eq!(prefix, reference[..prefix.len()], "the segment's output diverges");
        (dir, db, exec, prefix.len())
    };
    let writes = {
        let (_dir, db, exec, _) = segment("rgdry");
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0);
    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn] {
            let (dir, db, exec, segment_len) = segment("rgcell");
            let fi = Arc::new(FaultInjector::seeded(0x6C2 + k));
            fi.fail_write(k, fault);
            db.disk().set_fault_injector(Some(fi));
            let _ = exec.suspend(&SuspendPolicy::AllDump);
            drop(db);
            assert_one_valid_delta_chain(
                &dir,
                &reference,
                &[(2, 0), (3, segment_len)],
                &format!("{fault:?} at retention-gc write {k}"),
            );
        }
    }
}

/// Crash / torn / transient / timeout at every *remote* write ordinal of
/// a suspend through the robust remote stack. Transients are retried in
/// place; a dead endpoint (crash, torn upload) or a typed timeout fails
/// over to the local disk — in every cell the suspend must still commit
/// and resume exactly, from a fresh process with the default local
/// backend (failover leaves a locally recoverable directory).
#[test]
fn remote_fault_matrix_retries_or_fails_over_at_every_write() {
    let reference = reference_output();

    // One suspend cell through a scripted remote stack charging 2 latency
    // units per page put. `script` arms the remote before the suspend;
    // returns the robust layer and the latency charged for post-checks.
    let cell = |tag: &str, script: &dyn Fn(&RemoteMockBackend)| -> (TempDir, Arc<RobustBackend>, Vec<Tuple>, u64) {
        let (dir, db, prefix, exec) = run_to_suspend_point(tag);
        let local =
            || Arc::new(LocalDiskBackend::new(db.blobs().clone(), db.disk().clone()));
        let remote = Arc::new(RemoteMockBackend::new(local(), 9).with_latency(2, None));
        script(&remote);
        let robust = Arc::new(RobustBackend::new(
            remote.clone(),
            Some(local()),
            RESUME_BACKOFF,
            Some(db.ledger().clone()),
        ));
        db.set_backend(robust.clone());
        exec.suspend(&SuspendPolicy::AllDump)
            .expect("retry/failover must keep the suspend alive");
        (dir, robust, prefix, remote.latency_units())
    };

    let (writes, clean_latency) = {
        let (_dir, db, _prefix, exec) = run_to_suspend_point("rmdry");
        let local =
            || Arc::new(LocalDiskBackend::new(db.blobs().clone(), db.disk().clone()));
        let remote = Arc::new(RemoteMockBackend::new(local(), 9).with_latency(2, None));
        db.set_backend(remote.clone());
        exec.suspend(&SuspendPolicy::AllDump)
            .unwrap();
        (remote.faults().writes_observed(), remote.latency_units())
    };
    assert!(writes > 0, "a remote suspend must issue remote writes");

    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn, WriteFault::Transient(1)] {
            let (dir, robust, prefix, latency) =
                cell("rmcell", &|r: &RemoteMockBackend| r.faults().fail_write(k, fault));
            if matches!(fault, WriteFault::Crash | WriteFault::Torn) {
                assert!(
                    robust.failed_over(),
                    "{fault:?} at remote write {k}: a dead endpoint must fail over"
                );
                // Failover stops the remote latency charge: nothing put
                // after write k is paid for at the dead endpoint.
                assert!(
                    latency <= clean_latency && (k > 1 || latency < clean_latency),
                    "{fault:?} at remote write {k}: charged {latency} latency units, \
                     a clean remote suspend charges {clean_latency}"
                );
            } else {
                assert!(
                    !robust.failed_over(),
                    "a retried transient at remote write {k} must not fail over"
                );
            }
            assert_resumable_or_clean(
                &dir,
                &prefix,
                &reference,
                &format!("{fault:?} at remote write {k}"),
            );
        }
        // Typed timeout on the k-th put (ordinals past the last put are
        // vacuously clean cells): never blindly retried, always failover.
        let (dir, _robust, prefix, _latency) =
            cell("rmtimeout", &|r: &RemoteMockBackend| r.timeout_put(k));
        assert_resumable_or_clean(
            &dir,
            &prefix,
            &reference,
            &format!("timeout at remote put {k}"),
        );
    }
}

#[test]
fn clean_abort_leaves_no_new_files_and_typed_error() {
    // Headroom 0: every rung fails, the ladder aborts. The typed error
    // must be resource pressure, the directory must hold no manifest, and
    // the salvage sweep must have deleted every blob the failed rungs
    // wrote (quota accounting back to its pre-suspend level).
    let (dir, db, _prefix, exec) = run_to_suspend_point("abort");
    let used_before = db.disk().used_bytes();
    arm_quota(&db, 0);
    let err = exec
        .suspend(&SuspendPolicy::Optimized { budget: None })
        .expect_err("zero headroom must abort the ladder");
    assert!(
        err.is_resource_pressure(),
        "abort error must be typed pressure, got {err}"
    );
    db.disk().set_quota(None);
    assert_eq!(
        db.disk().used_bytes(),
        used_before,
        "clean abort must release every byte the failed rungs wrote"
    );
    drop(db);
    let db = Database::open_default(&dir.0).unwrap();
    assert!(
        QueryExecution::recover(db).unwrap().is_none(),
        "clean abort must leave no manifest"
    );
}
