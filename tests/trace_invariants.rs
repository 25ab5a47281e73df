//! Suspend-lifecycle flight-recorder invariants.
//!
//! Two families:
//!
//! 1. **Zero overhead off** — the same corpus scenario run with no tracer
//!    and with a tracer (full capture + JSONL sink) must leave the
//!    `CostLedger` bit-identical and deliver identical output. The sink
//!    writes through `std::fs`, never the `DiskManager`, so observability
//!    can never perturb the paper's cost numbers. `scripts/ci.sh` runs
//!    this test in release mode.
//!
//! 2. **Event-stream invariants** — with full capture on, every corpus
//!    case under several pool/policy/deadline configurations must produce
//!    a structurally sound stream: strict `RungStart` →
//!    (`RungAbort`|`RungCommit`) pairing, `PhaseExit`/`PhaseEnter`
//!    alternation paired on event payloads (the record's own `phase`
//!    field is already the *new* phase on a `PhaseExit`), and per-operator
//!    attribution that reconciles with the ledger's phase table — exactly
//!    for a clean pool-0 suspend, bounded everywhere else.

use qsr::core::SuspendPolicy;
use qsr::exec::{QueryExecution, SuspendOptions};
use qsr::storage::{CostModel, CostSnapshot, Database, Phase, TraceEvent, TraceRecord, Tracer};
use qsr::workload::{cases, populate};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-traceinv-{tag}-{}-{}",
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

fn setup(dir: &TempDir, pool_pages: usize) -> Arc<Database> {
    let db = Database::open_with_pool(&dir.0, CostModel::default(), pool_pages).unwrap();
    populate(&db).unwrap();
    db.pool().flush_all().unwrap();
    db
}

fn install_full_capture(db: &Arc<Database>, sink: Option<&PathBuf>) -> Arc<Tracer> {
    let t = Arc::new(Tracer::new(db.ledger().clone()));
    t.enable_full_capture();
    if let Some(path) = sink {
        t.set_json_sink(path).unwrap();
    }
    db.install_tracer(Some(t.clone()));
    t
}

/// Golden output and total work units of an uninterrupted run.
fn golden(case: &str) -> (Vec<qsr::storage::Tuple>, u64) {
    let dir = TempDir::new("golden");
    let db = setup(&dir, 0);
    let plan = qsr::workload::case_by_name(case).unwrap().plan;
    let mut exec = QueryExecution::start(db, plan).unwrap();
    let out = exec.run_to_completion().unwrap();
    (out, exec.work_units())
}

/// Run `case` to its mid-point boundary, suspend under `policy`/`options`,
/// resume through the same database handle (so the tracer observes the
/// whole lifecycle), and deliver the full output.
fn suspend_resume_cycle(
    db: &Arc<Database>,
    case: &str,
    boundary: u64,
    policy: &SuspendPolicy,
    options: &SuspendOptions,
) -> Vec<qsr::storage::Tuple> {
    let plan = qsr::workload::case_by_name(case).unwrap().plan;
    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= boundary)));
    let (mut out, done) = exec.run().unwrap();
    assert!(!done, "{case}: boundary {boundary} must fire before completion");
    exec.suspend_with(policy, options).unwrap();
    let mut resumed = QueryExecution::recover(db.clone())
        .unwrap()
        .expect("committed suspend must recover");
    out.extend(resumed.run_to_completion().unwrap());
    out
}

/// Invariant: every `RungStart` is closed by exactly one `RungAbort` or
/// `RungCommit` naming the same rung, rungs never nest, and `RungPlan` /
/// `WatchdogVeto` only appear inside an open rung. Returns the commit
/// count.
fn check_rung_pairing(case: &str, records: &[TraceRecord]) -> usize {
    let mut open: Option<&str> = None;
    let mut commits = 0;
    for r in records {
        match &r.event {
            TraceEvent::RungStart { rung } => {
                assert!(
                    open.is_none(),
                    "{case}: RungStart {rung:?} while {open:?} still open"
                );
                open = Some(rung);
            }
            TraceEvent::RungPlan { rung, .. } => {
                assert_eq!(open, Some(*rung), "{case}: RungPlan outside its rung");
            }
            TraceEvent::WatchdogVeto { .. } => {
                assert!(open.is_some(), "{case}: WatchdogVeto outside any rung");
            }
            TraceEvent::RungAbort { rung, .. } => {
                assert_eq!(open, Some(*rung), "{case}: RungAbort closes wrong rung");
                open = None;
            }
            TraceEvent::RungCommit { rung, .. } => {
                assert_eq!(open, Some(*rung), "{case}: RungCommit closes wrong rung");
                open = None;
                commits += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_none(), "{case}: rung {open:?} never closed");
    commits
}

/// Invariant: phase transitions come as `PhaseExit(old)` immediately
/// answered by `PhaseEnter(new)`, with `old` matching the tracked current
/// phase. Pairing is on event payloads: by the time `PhaseExit` is
/// emitted the ledger (and thus `record.phase`) already shows the new
/// phase.
fn check_phase_alternation(case: &str, records: &[TraceRecord]) {
    let mut current = Phase::Execute;
    let mut exiting: Option<Phase> = None;
    for r in records {
        match &r.event {
            TraceEvent::PhaseExit { phase } => {
                assert!(
                    exiting.is_none(),
                    "{case}: PhaseExit while a transition is already open"
                );
                assert_eq!(*phase, current, "{case}: PhaseExit names a phase we are not in");
                exiting = Some(*phase);
            }
            TraceEvent::PhaseEnter { phase } => {
                assert!(exiting.is_some(), "{case}: PhaseEnter without a PhaseExit");
                assert_ne!(Some(*phase), exiting, "{case}: self-transition traced");
                current = *phase;
                exiting = None;
            }
            _ => {
                // set_phase emits Exit+Enter back to back under one call;
                // serial scenarios admit nothing in between.
                assert!(
                    exiting.is_none(),
                    "{case}: event {:?} interleaved inside a phase transition",
                    r.event
                );
            }
        }
    }
    assert!(exiting.is_none(), "{case}: stream ends mid-transition");
}

/// Sum of fresh (non-reused) dump pages and metadata pages whose records
/// were emitted under `phase`.
fn attributed_written(records: &[TraceRecord], phase: Phase) -> u64 {
    records
        .iter()
        .filter(|r| r.phase == phase)
        .map(|r| match &r.event {
            TraceEvent::OpDump {
                pages,
                reused: false,
                ..
            } => *pages,
            TraceEvent::MetaWrite { pages, .. } => *pages,
            _ => 0,
        })
        .sum()
}

fn resume_attributed_reads(records: &[TraceRecord]) -> u64 {
    records
        .iter()
        .filter(|r| r.phase == Phase::Resume)
        .map(|r| match &r.event {
            TraceEvent::OpIo { reads, .. } => *reads,
            _ => 0,
        })
        .sum()
}

#[test]
fn tracer_installed_is_ledger_bit_identical() {
    // The pin behind "zero overhead off": same scenario, no tracer vs.
    // tracer with full capture and a live JSONL sink — ledger totals and
    // output must be bit-identical, because tracer I/O never touches the
    // DiskManager. Run in release mode by scripts/ci.sh.
    for case in cases() {
        let (reference, total) = golden(case.name);
        let boundary = (total / 2).max(1);
        let policy = SuspendPolicy::Optimized { budget: None };

        let run = |traced: bool| -> (Vec<qsr::storage::Tuple>, CostSnapshot) {
            let dir = TempDir::new(if traced { "on" } else { "off" });
            let db = setup(&dir, 0);
            if traced {
                let sink = dir.0.join("trace.jsonl");
                install_full_capture(&db, Some(&sink));
            }
            let options = SuspendOptions::default();
            let out = suspend_resume_cycle(&db, case.name, boundary, &policy, &options);
            (out, db.ledger().snapshot())
        };

        let (out_off, ledger_off) = run(false);
        let (out_on, ledger_on) = run(true);
        assert_eq!(out_off, reference, "{}: untraced output diverges", case.name);
        assert_eq!(out_on, out_off, "{}: tracing changed the output", case.name);
        assert_eq!(
            ledger_on, ledger_off,
            "{}: tracing perturbed the cost ledger",
            case.name
        );
    }
}

/// Measured cost of one suspend of `case` at `boundary` under `policy`
/// (fresh uncached database; all ladder I/O included).
fn suspend_cost(case: &str, boundary: u64, policy: &SuspendPolicy) -> f64 {
    let dir = TempDir::new("probe");
    let db = setup(&dir, 0);
    let plan = qsr::workload::case_by_name(case).unwrap().plan;
    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= boundary)));
    let (_, done) = exec.run().unwrap();
    assert!(!done);
    let before = db.ledger().snapshot();
    exec.suspend(policy).unwrap();
    db.ledger().snapshot().since(&before).total_cost()
}

#[test]
fn event_stream_invariants_across_corpus() {
    // (pool_pages, policy, squeeze): the clean pool-0 rows admit the
    // exact suspend-phase reconciliation; the cached row exercises
    // write-backs; the squeezed row runs under a deadline midway between
    // the all-GoBack and all-dump suspend costs, forcing ladder descent
    // (admission skips or watchdog vetoes) while still committing —
    // attribution there is bounded by the ledger instead of exact.
    let configs: &[(usize, SuspendPolicy, bool)] = &[
        (0, SuspendPolicy::AllDump, false),
        (0, SuspendPolicy::Optimized { budget: None }, false),
        (64, SuspendPolicy::Optimized { budget: None }, false),
        (0, SuspendPolicy::AllDump, true),
    ];
    for case in cases() {
        let (reference, total) = golden(case.name);
        let boundary = (total / 2).max(1);
        for (pool_pages, policy, squeeze) in configs {
            let deadline = squeeze.then(|| {
                let dump = suspend_cost(case.name, boundary, &SuspendPolicy::AllDump);
                let goback = suspend_cost(case.name, boundary, &SuspendPolicy::AllGoBack);
                // Midway: the cheap rungs fit, the full dump should not.
                // When the two coincide the deadline is simply generous.
                goback + (dump - goback).max(0.0) / 2.0
            });
            let tag = format!("{}-p{pool_pages}", case.name);
            let dir = TempDir::new(&tag);
            let db = setup(&dir, *pool_pages);
            let tracer = install_full_capture(&db, None);
            let options = SuspendOptions { deadline, ..SuspendOptions::default() };
            let out = suspend_resume_cycle(&db, case.name, boundary, policy, &options);
            assert_eq!(out, reference, "[{tag}] output diverges");

            let records = tracer.take_full();
            assert!(!records.is_empty(), "[{tag}] no events captured");
            let mut seq = records[0].seq;
            for r in &records[1..] {
                assert!(r.seq > seq, "[{tag}] seq not strictly increasing");
                seq = r.seq;
            }

            let commits = check_rung_pairing(&tag, &records);
            assert_eq!(commits, 1, "[{tag}] exactly one rung must commit");
            check_phase_alternation(&tag, &records);

            let snap = db.ledger().snapshot();
            let aborted = records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::RungAbort { .. }));
            let attributed = attributed_written(&records, Phase::Suspend);
            if *pool_pages == 0 && !aborted {
                // Clean serial pool-0 commit: the suspend phase's ledger
                // page writes decompose exactly into fresh operator dumps
                // plus traced metadata (SuspendedQuery blob, partition
                // seals). Nothing writes untraced.
                assert_eq!(
                    snap.phase(Phase::Suspend).pages_written,
                    attributed,
                    "[{tag}] suspend-phase pages not fully attributed"
                );
            } else {
                // Pooled or degraded runs: write-backs of execution-dirty
                // frames and abandoned-rung I/O also charge the phase, so
                // attribution is a lower bound.
                assert!(
                    attributed <= snap.phase(Phase::Suspend).pages_written
                        + snap.phase(Phase::Fallback).pages_written,
                    "[{tag}] attributed {attributed} exceeds ledger suspend+fallback writes"
                );
            }
            // Resume-phase reads attributed to operators never exceed what
            // the ledger charged the phase — plus, for cached runs, pool
            // hits, which the operator observes but the ledger (rightly)
            // never charges.
            let resume_read_bound = snap.phase(Phase::Resume).pages_read
                + if *pool_pages > 0 { snap.cache.hits } else { 0 };
            assert!(
                resume_attributed_reads(&records) <= resume_read_bound,
                "[{tag}] resume attribution exceeds ledger"
            );
            // Full capture implies the derived attribution table folds
            // without panicking and covers at least one operator whenever
            // any dump happened.
            let table = qsr_bench::attribution::attribute(&records);
            if records
                .iter()
                .any(|r| matches!(r.event, TraceEvent::OpDump { .. }))
            {
                assert!(!table.ops.is_empty(), "[{tag}] dumps but empty attribution");
            }
            // Backend-side reconciliation: every fresh operator dump and
            // the SuspendedQuery blob go through exactly one BackendPut
            // (salvage reuse and pool seal flushes never touch the
            // backend), so the two views of the suspend's blob traffic
            // must agree page for page — across all phases, aborted rungs
            // included, since dump and put are emitted symmetrically.
            let fresh_dump_pages: u64 = records
                .iter()
                .map(|r| match &r.event {
                    TraceEvent::OpDump {
                        pages,
                        reused: false,
                        ..
                    } => *pages,
                    TraceEvent::MetaWrite {
                        label: "suspended-query",
                        pages,
                    } => *pages,
                    _ => 0,
                })
                .sum();
            assert_eq!(
                table.backend_pages(),
                fresh_dump_pages,
                "[{tag}] BackendPut pages diverge from fresh dumps + query blob"
            );
            assert!(
                table.backends.keys().all(|k| k == "local"),
                "[{tag}] default stack must attribute everything to the local backend"
            );
        }
    }
}

#[test]
fn flight_recorder_tail_attaches_to_clean_abort_and_resume_failure() {
    // Clean ladder abort: a zero-headroom quota fails every rung; the
    // typed error surfaces and the tracer freezes a tail whose label says
    // so and whose records include the aborted rungs.
    let case = "hash-join";
    let (_, total) = golden(case);
    let boundary = (total / 2).max(1);
    {
        let dir = TempDir::new("abort");
        let db = setup(&dir, 0);
        let tracer = install_full_capture(&db, None);
        let plan = qsr::workload::case_by_name(case).unwrap().plan;
        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= boundary)));
        let (_, done) = exec.run().unwrap();
        assert!(!done);
        let dm = db.disk();
        dm.set_quota(Some(dm.used_bytes()));
        exec.suspend(&SuspendPolicy::AllDump)
            .expect_err("zero headroom must abort");
        let (label, tail) = tracer.failure_tail().expect("abort must freeze a tail");
        assert!(
            label.starts_with("suspend aborted cleanly:"),
            "unexpected label {label:?}"
        );
        assert!(
            tail.iter()
                .any(|r| matches!(r.event, TraceEvent::RungAbort { .. })),
            "frozen tail must show the aborted rungs"
        );
    }

    // Resume failure: commit a suspend, destroy the SuspendedQuery blob,
    // recover — the typed ResumeError must carry a frozen tail out of
    // band (the error enum shape is frozen; tests/resume_errors.rs pins
    // that).
    {
        let dir = TempDir::new("rfail");
        let db = setup(&dir, 0);
        let plan = qsr::workload::case_by_name(case).unwrap().plan;
        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        exec.set_work_unit_observer(Some(Box::new(move |_op, seq: u64| seq >= boundary)));
        let (_, done) = exec.run().unwrap();
        assert!(!done);
        let handle = exec.suspend(&SuspendPolicy::AllDump).unwrap();
        drop(db);

        let db = Database::open_default(&dir.0).unwrap();
        let tracer = install_full_capture(&db, None);
        std::fs::write(
            dir.0.join(format!("f{}.qsr", handle.blob.file.0)),
            b"garbage",
        )
        .unwrap();
        assert!(
            QueryExecution::recover(db.clone()).is_err(),
            "destroyed blob must fail resume"
        );
        let (label, _tail) = tracer.failure_tail().expect("resume failure must freeze a tail");
        assert!(label.starts_with("resume failed:"), "unexpected label {label:?}");
    }
}
