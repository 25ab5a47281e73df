//! Oracle family for the multi-session preemptive server: N concurrent
//! sessions over one shared database, scheduled by suspension, under
//! seeded fault schedules.
//!
//! The invariant (ISSUE 6 acceptance): under a crash, torn write, or
//! NoSpace at **any** write ordinal of a preemption window, every
//! non-victim session resumes to results bit-identical to its
//! uninterrupted golden run, and the victim either resumes correctly or
//! clean-aborts with its exact pre-suspend state restored (replaying from
//! its last committed generation — or scratch — without duplicating a
//! tuple). Per-session manifests must always read cleanly: exactly one
//! valid generation per session, never a torn mix, never cross-session
//! damage.

use qsr::core::SuspendPolicy;
use qsr::exec::{read_manifest_named, AggFn, PlanSpec, Predicate};
use qsr::server::{
    Admission, AdmissionConfig, QsrServer, ServerConfig, SessionId, SessionRegistry, SlaConfig,
};
use qsr::storage::{
    BackendKind, CostModel, Database, FaultInjector, Phase, TraceEvent, Tracer, Tuple, WriteFault,
};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-server-{tag}-{}-{}",
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

/// Deterministic tables so write-event ordinals line up across the matrix.
fn populate(db: &Arc<Database>) {
    generate_table(db, &TableSpec::new("r", 800).payload(16).seed(11)).unwrap();
    generate_table(db, &TableSpec::new("s", 200).payload(16).seed(12)).unwrap();
}

/// Three heterogeneous sessions: a dump-heavy sort-over-join, a buffered
/// join, and a partitioned aggregation — distinct operator state shapes,
/// so preemption exercises distinct suspend plans per victim.
fn plans() -> Vec<PlanSpec> {
    vec![
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
        },
        PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "r".into() }),
                predicate: Predicate::IntLt { col: 1, value: 300 },
            }),
            inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 100,
        },
        PlanSpec::HashAgg {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Count,
            partitions: 2,
        },
    ]
}

/// Priorities per session, admission order. Session 2 is the designated
/// shedding victim everywhere (strictly lowest), keeping the server-level
/// ladder deterministic across matrix cells.
const PRIORITIES: [u32; 3] = [5, 1, 3];

fn config() -> ServerConfig {
    ServerConfig {
        quantum: 1_500,
        max_live: 1,
        policy: SuspendPolicy::Optimized { budget: None },
        ..ServerConfig::default()
    }
}

/// Uninterrupted golden output per session plan.
fn goldens() -> Vec<Vec<Tuple>> {
    plans()
        .into_iter()
        .map(|plan| {
            let dir = TempDir::new("golden");
            let db = Database::open_default(&dir.0).unwrap();
            populate(&db);
            let mut exec = qsr::exec::QueryExecution::start(db, plan).unwrap();
            exec.run_to_completion().unwrap()
        })
        .collect()
}

/// Deterministic server state: fresh uncached directory, three admitted
/// sessions, no faults armed yet.
fn build_server(tag: &str) -> (TempDir, Arc<Database>, QsrServer) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut server = QsrServer::new(db.clone(), config());
    for (i, plan) in plans().into_iter().enumerate() {
        let tenant = if i % 2 == 0 { "tenant-a" } else { "tenant-b" };
        server.admit(tenant, PRIORITIES[i], &plan).unwrap();
    }
    (dir, db, server)
}

#[test]
fn concurrent_sessions_deliver_goldens_exactly_once() {
    let goldens = goldens();
    let (_dir, _db, mut server) = build_server("fair");
    server.run_to_completion().unwrap();
    let mut preempted = 0;
    for (i, s) in server.sessions().iter().enumerate() {
        assert!(s.is_finished(), "session {} must finish", i + 1);
        assert_eq!(
            s.collected,
            goldens[i],
            "session {} output must match its uninterrupted golden",
            i + 1
        );
        assert!(s.fairness.quanta > 0, "session {} never ran", i + 1);
        assert_eq!(
            s.fairness.suspends, s.fairness.resumes,
            "session {}: every preemption suspend must be matched by a resume",
            i + 1
        );
        preempted += s.fairness.suspends;
    }
    // One live slot for three sessions: scheduling MUST have gone through
    // the suspend path, or this test exercises nothing.
    assert!(preempted > 0, "no preemption happened under 1 live slot");

    // The same slot with nobody waiting for it: no preemption at all.
    let dir = TempDir::new("solo");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    let mut solo = QsrServer::new(db, config());
    solo.admit("tenant-a", PRIORITIES[0], &plans()[0]).unwrap();
    solo.run_to_completion().unwrap();
    let s = &solo.sessions()[0];
    assert_eq!(s.collected, goldens[0]);
    assert_eq!(
        (s.fairness.suspends, s.fairness.resumes),
        (0, 0),
        "one session over one live slot must never be preempted"
    );
}

#[test]
fn scheduler_emits_typed_session_events() {
    let goldens = goldens();
    let dir = TempDir::new("events");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let tracer = Arc::new(Tracer::new(db.ledger().clone()));
    tracer.enable_full_capture();
    db.install_tracer(Some(tracer.clone()));

    let mut server = QsrServer::new(db.clone(), config());
    for (i, plan) in plans().into_iter().enumerate() {
        server.admit("tenant-a", PRIORITIES[i], &plan).unwrap();
    }
    server.run_to_completion().unwrap();
    for (i, s) in server.sessions().iter().enumerate() {
        assert_eq!(s.collected, goldens[i]);
    }

    let records = tracer.take_full();
    let mut admits = 0;
    let mut preempts = 0;
    let mut resumes = 0;
    for rec in &records {
        match &rec.event {
            TraceEvent::SessionAdmit { session, priority, .. } => {
                admits += 1;
                assert!((1..=3).contains(session));
                assert!(PRIORITIES.contains(priority));
            }
            TraceEvent::Preempt { session, est_suspend_cost, .. } => {
                preempts += 1;
                assert!((1..=3).contains(session));
                assert!(
                    est_suspend_cost.is_finite() && *est_suspend_cost >= 0.0,
                    "victim signal must be a finite estimate, got {est_suspend_cost}"
                );
            }
            TraceEvent::SessionResume { session, generation } => {
                resumes += 1;
                assert!((1..=3).contains(session));
                assert!(*generation >= 1, "resume must name a committed generation");
            }
            _ => {}
        }
    }
    assert_eq!(admits, 3, "one SessionAdmit per admitted session");
    assert!(preempts > 0, "preemptions must be journaled");
    assert!(resumes > 0, "resumes must be journaled");
}

/// The heart of the family: crash/torn/NoSpace at every write ordinal of
/// the first preemption window (round 1: two preemption suspends plus any
/// execute-phase spills).
#[test]
fn fault_matrix_during_preemption_leaves_every_session_recoverable() {
    let goldens = goldens();

    // Dry run: the write window of round 1.
    let writes = {
        let (_dir, db, mut server) = build_server("dry");
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        server.run_round().unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0, "round 1 must issue write events (preemptions)");

    for k in 1..=writes {
        for fault in [WriteFault::Crash, WriteFault::Torn, WriteFault::NoSpace] {
            let (dir, db, mut server) = build_server("cell");
            let fi = Arc::new(FaultInjector::seeded(0x5E55 + k));
            fi.fail_write(k, fault);
            db.disk().set_fault_injector(Some(fi.clone()));
            let outcome = server.run_round();
            let what = format!("{fault:?} at preemption write {k}");

            if fi.halted() {
                // Simulated process death. Drop every handle and recover
                // from the directory alone.
                drop(server);
                drop(db);
                let db = Database::open_default(&dir.0).unwrap();
                // Exactly one valid generation per session: no session's
                // manifest may read as an error, whatever the ordinal.
                for id in 1..=3u64 {
                    let name = SessionRegistry::manifest_name(SessionId(id));
                    read_manifest_named(&db, &name).unwrap_or_else(|e| {
                        panic!("{what}: session {id} manifest unreadable: {e}")
                    });
                }
                let mut server = QsrServer::recover(db, config())
                    .unwrap_or_else(|e| panic!("{what}: registry recovery failed: {e}"));
                assert_eq!(
                    server.sessions().len(),
                    3,
                    "{what}: recovery must reconstruct every admitted session"
                );
                server
                    .run_to_completion()
                    .unwrap_or_else(|e| panic!("{what}: post-recovery run failed: {e}"));
                for (i, s) in server.sessions().iter().enumerate() {
                    assert!(
                        s.is_finished(),
                        "{what}: session {} must finish after recovery",
                        i + 1
                    );
                    // The recovered process delivers the suffix after the
                    // session's last committed generation (the prefix was
                    // delivered by the dead process); a session with no
                    // committed generation replays in full.
                    assert!(
                        goldens[i].ends_with(&s.collected),
                        "{what}: session {} recovered output is not a golden suffix \
                         ({} tuples vs golden {})",
                        i + 1,
                        s.collected.len(),
                        goldens[i].len()
                    );
                }
            } else {
                // Process alive: the ladder absorbed the fault (NoSpace →
                // cheaper rung) or the server shed under pressure. Either
                // way the run must complete, and every surviving session
                // must deliver its golden bit-exactly.
                outcome.unwrap_or_else(|e| panic!("{what}: non-halting round errored: {e}"));
                server
                    .run_to_completion()
                    .unwrap_or_else(|e| panic!("{what}: completion failed: {e}"));
                for (i, s) in server.sessions().iter().enumerate() {
                    if s.is_shed() {
                        // Only the designated lowest-priority session may
                        // have been shed.
                        assert_eq!(i, 1, "{what}: shed victim must be the lowest priority");
                        continue;
                    }
                    assert!(s.is_finished(), "{what}: session {} must finish", i + 1);
                    assert_eq!(
                        s.collected,
                        goldens[i],
                        "{what}: session {} diverges from golden",
                        i + 1
                    );
                }
            }
        }
    }
}

/// Crash sweep over a *later* round, after every session has committed
/// suspend generations. This is the window the round-1 matrix cannot
/// reach: a crash mid-execution here leaves stale pages appended past a
/// sealed partition watermark (e.g. a HashAgg spill), and the recovered
/// session must truncate them on reopen rather than splice phantom
/// tuples into its aggregate (`RunWriter::reopen` regression).
#[test]
fn crash_after_committed_generations_replays_no_stale_run_pages() {
    let goldens = goldens();

    // Short quanta keep all three sessions in flight deep into the run,
    // so the crash window sits between committed generations for
    // everyone.
    let late_config = || ServerConfig {
        quantum: 400,
        ..config()
    };
    let build_late = |tag: &str| {
        let (dir, db, mut server) = build_server(tag);
        *server.config_mut() = late_config();
        server.run_round().unwrap();
        server.run_round().unwrap();
        (dir, db, server)
    };

    // Two clean rounds commit real generations for every session; the
    // write window under test is round 3.
    let writes = {
        let (_dir, db, mut server) = build_late("late-dry");
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        server.run_round().unwrap();
        fi.writes_observed()
    };
    assert!(writes > 0, "round 3 must issue write events");

    for k in 1..=writes {
        let (dir, db, mut server) = build_late("late-cell");
        let fi = Arc::new(FaultInjector::seeded(0xC4A5 + k));
        fi.fail_write(k, WriteFault::Crash);
        db.disk().set_fault_injector(Some(fi.clone()));
        let outcome = server.run_round();
        let what = format!("crash at round-3 write {k}");
        assert!(outcome.is_err(), "{what}: injected crash must surface");
        assert!(fi.halted(), "{what}: the crash must halt the process");

        drop(server);
        drop(db);
        let db = Database::open_default(&dir.0).unwrap();
        let mut server = QsrServer::recover(db, late_config())
            .unwrap_or_else(|e| panic!("{what}: registry recovery failed: {e}"));
        // Sessions that finished before the crash retired their registry
        // entries; everyone still in flight must be reconstructed.
        assert!(
            !server.sessions().is_empty(),
            "{what}: at least one in-flight session must be recovered"
        );
        server
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{what}: post-recovery run failed: {e}"));
        for s in server.sessions() {
            let golden = &goldens[(s.meta.id - 1) as usize];
            assert!(
                s.is_finished(),
                "{what}: session {} must finish",
                s.meta.id
            );
            assert!(
                golden.ends_with(&s.collected),
                "{what}: session {} recovered output is not a golden suffix \
                 ({} tuples vs golden {})",
                s.meta.id,
                s.collected.len(),
                golden.len()
            );
        }
    }
}

/// Server-level degradation ladder: when even the per-query ladder cannot
/// park a victim (zero quota headroom), the server sheds the
/// lowest-priority session — and the survivor, rolled back to scratch
/// without a committed generation, still delivers exactly-once output.
#[test]
fn quota_pressure_sheds_lowest_priority_and_preserves_survivor() {
    // Both plans are pure BlockNlj: execution itself writes nothing, so
    // the quota bites only preemption suspends.
    let nlj = |cutoff: i64| PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt { col: 1, value: cutoff },
        }),
        inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 100,
    };
    let golden = {
        let dir = TempDir::new("shed-golden");
        let db = Database::open_default(&dir.0).unwrap();
        populate(&db);
        let mut exec = qsr::exec::QueryExecution::start(db, nlj(500)).unwrap();
        exec.run_to_completion().unwrap()
    };

    let dir = TempDir::new("shed");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let tracer = Arc::new(Tracer::new(db.ledger().clone()));
    tracer.enable_full_capture();
    db.install_tracer(Some(tracer.clone()));

    let mut server = QsrServer::new(
        db.clone(),
        ServerConfig {
            quantum: 1_000,
            max_live: 1,
            ..config()
        },
    );
    server.admit("premium", 5, &nlj(500)).unwrap();
    server.admit("basic", 1, &nlj(300)).unwrap();
    // Zero headroom from here on: every suspend attempt exhausts the
    // ladder and clean-aborts.
    let dm = db.disk();
    dm.set_quota(Some(dm.used_bytes()));

    server.run_to_completion().unwrap();

    let s1 = &server.sessions()[0];
    let s2 = &server.sessions()[1];
    assert!(s2.is_shed(), "lowest-priority session must be shed under pressure");
    assert!(s2.collected.is_empty(), "shed output must be discarded");
    assert!(s1.is_finished(), "premium session must survive");
    assert_eq!(
        s1.collected, golden,
        "survivor must deliver exactly-once output despite its clean-aborted preemption"
    );
    // The session registry must be empty again: the shed session's entry
    // retired with it, the finished one's at completion.
    let registry = SessionRegistry::new(db.clone());
    assert!(registry.scan().unwrap().is_empty(), "registry must drain");

    let records = tracer.take_full();
    assert!(
        records.iter().any(|r| matches!(
            &r.event,
            TraceEvent::Shed { session: 2, priority: 1, .. }
        )),
        "the shed must be journaled with the victim's identity and priority"
    );
}

/// Nightly widening knob: `QSR_NIGHTLY=1` runs the stress lanes at full
/// width (more workers, more repetitions, the full crash-ordinal sweep).
/// Any value but 0 or 1 is a hard error naming the variable.
fn nightly() -> bool {
    qsr::oracle::env_flag("QSR_NIGHTLY").unwrap_or(false)
}

/// A server with `n` sessions (cycling the three plan shapes) over the
/// given backend and worker count, with one live slot per worker — the threaded stress lane's parameterized builder: more
/// sessions than `max_live = workers` keeps every worker preempting, so
/// suspends of different victims overlap. The backend installs before
/// any admission so registry sidecars and suspend state share one store.
fn build_server_mt(
    tag: &str,
    n: usize,
    backend: BackendKind,
    workers: usize,
) -> (TempDir, Arc<Database>, QsrServer) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    db.install_backend(backend);
    let mut cfg = config();
    cfg.workers = workers;
    cfg.max_live = workers;
    let mut server = QsrServer::new(db.clone(), cfg);
    let all = plans();
    for i in 0..n {
        let tenant = if i % 2 == 0 { "tenant-a" } else { "tenant-b" };
        server
            .admit(tenant, PRIORITIES[i % 3], &all[i % 3])
            .unwrap();
    }
    (dir, db, server)
}

/// The seeded multi-threaded stress lane: workers {2,4} (and as many live
/// slots, and more sessions than that) × backend {local,memory}.
/// Repeated preemptions of one session chain its delta dumps, and
/// threaded schedules interleave suspends, resumes, and ladder descents
/// arbitrarily, so the invariant is output equality: every session must
/// deliver its uninterrupted golden bit-exactly, exactly once, with
/// suspends matched by resumes.
#[test]
fn threaded_stress_lane_delivers_goldens_exactly_once() {
    let goldens = goldens();
    let reps = if nightly() { 3 } else { 1 };
    for workers in [2usize, 4] {
        let sessions = workers + if nightly() { 4 } else { 2 };
        for backend in [BackendKind::Local, BackendKind::Memory] {
            for rep in 0..reps {
                let what = format!("workers={workers} backend={backend:?} rep={rep}");
                let (_dir, _db, mut server) = build_server_mt(
                    &format!("mt-{workers}-{rep}"),
                    sessions,
                    backend,
                    workers,
                );
                server
                    .run_to_completion()
                    .unwrap_or_else(|e| panic!("{what}: threaded run failed: {e}"));
                let mut preempted = 0;
                for (i, s) in server.sessions().iter().enumerate() {
                    assert!(s.is_finished(), "{what}: session {} must finish", i + 1);
                    assert_eq!(
                        s.collected,
                        goldens[i % 3],
                        "{what}: session {} output diverges from its golden",
                        i + 1
                    );
                    assert_eq!(
                        s.fairness.suspends, s.fairness.resumes,
                        "{what}: session {} suspends must match resumes",
                        i + 1
                    );
                    preempted += s.fairness.suspends;
                }
                assert!(
                    preempted > 0,
                    "{what}: more sessions than live slots must force concurrent parking"
                );
            }
        }
    }
}

/// Crash injected mid-concurrent-suspend: with two workers (and two live
/// slots for four sessions) parking sessions simultaneously, a halting fault at an arbitrary interleaved
/// write ordinal must still leave every session's manifest with exactly
/// one valid generation, the registry recoverable, and post-recovery
/// output an exact golden suffix (the exactly-once watermark).
#[test]
fn crash_mid_concurrent_suspend_leaves_registry_recoverable() {
    let goldens = goldens();
    let clean_writes = {
        let (_dir, db, mut server) =
            build_server_mt("mtc-dry", 4, BackendKind::Local, 2);
        let fi = Arc::new(FaultInjector::seeded(0));
        db.disk().set_fault_injector(Some(fi.clone()));
        server.run_to_completion().unwrap();
        fi.writes_observed()
    };
    assert!(clean_writes > 0, "threaded run must issue suspend writes");
    let ordinals: Vec<u64> = if nightly() {
        (1..=clean_writes).collect()
    } else {
        [1, 2, 3, 5, 8, 13, 21, 34, 55]
            .into_iter()
            .filter(|k| *k <= clean_writes)
            .collect()
    };
    for k in ordinals {
        let what = format!("crash at threaded write {k}");
        let (dir, db, mut server) =
            build_server_mt(&format!("mtc-{k}"), 4, BackendKind::Local, 2);
        let fi = Arc::new(FaultInjector::seeded(0xBEEF + k));
        fi.fail_write(k, WriteFault::Crash);
        db.disk().set_fault_injector(Some(fi.clone()));
        let outcome = server.run_to_completion();
        if !fi.halted() {
            // Interleaving pushed this ordinal past the run's writes; the
            // run must then have completed cleanly.
            outcome.unwrap_or_else(|e| panic!("{what}: unhalted run errored: {e}"));
            continue;
        }
        assert!(outcome.is_err(), "{what}: the crash must surface");

        // Process death: recover from the directory alone.
        drop(server);
        drop(db);
        let db = Database::open_default(&dir.0).unwrap();
        for id in 1..=4u64 {
            let name = SessionRegistry::manifest_name(SessionId(id));
            read_manifest_named(&db, &name)
                .unwrap_or_else(|e| panic!("{what}: session {id} manifest unreadable: {e}"));
        }
        // Finish deterministically (workers = 0): the invariant under
        // test is recoverability, not the threaded schedule.
        let mut server = QsrServer::recover(db, config())
            .unwrap_or_else(|e| panic!("{what}: registry recovery failed: {e}"));
        server
            .run_to_completion()
            .unwrap_or_else(|e| panic!("{what}: post-recovery run failed: {e}"));
        for s in server.sessions() {
            let golden = &goldens[((s.meta.id - 1) % 3) as usize];
            assert!(s.is_finished(), "{what}: session {} must finish", s.meta.id);
            assert!(
                golden.ends_with(&s.collected),
                "{what}: session {} recovered output is not a golden suffix \
                 ({} tuples vs golden {})",
                s.meta.id,
                s.collected.len(),
                golden.len()
            );
        }
    }
}

/// The resume-cost mis-attribution fix, pinned with exact per-session
/// totals: a NoSpace on the first preemption write forces the victim's
/// suspend down the degradation ladder. The rung>0 fallback I/O is the
/// price of the *preemptor's* demand for the live slot — it must land on
/// the preempting session's `preempt_fallback_cost`, exactly, and never
/// on the victim's own park cost.
#[test]
fn rung_fallback_io_is_attributed_to_the_preemptor_exactly() {
    // Pure BlockNlj plans: execution writes nothing, so write ordinal 1
    // is deterministically the first preemption's first suspend write.
    let nlj = |cutoff: i64| PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt { col: 1, value: cutoff },
        }),
        inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 100,
    };
    let golden = |cutoff: i64| {
        let dir = TempDir::new("attr-golden");
        let db = Database::open_default(&dir.0).unwrap();
        populate(&db);
        let mut exec = qsr::exec::QueryExecution::start(db, nlj(cutoff)).unwrap();
        exec.run_to_completion().unwrap()
    };

    let dir = TempDir::new("attr");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut server = QsrServer::new(
        db.clone(),
        ServerConfig {
            quantum: 1_000,
            max_live: 1,
            ..config()
        },
    );
    server.admit("premium", 5, &nlj(500)).unwrap();
    server.admit("basic", 1, &nlj(300)).unwrap();

    let fi = Arc::new(FaultInjector::seeded(0xA77));
    fi.fail_write(1, WriteFault::NoSpace);
    db.disk().set_fault_injector(Some(fi.clone()));
    let before = db.ledger().snapshot();
    server.run_round().unwrap();
    let after = db.ledger().snapshot();
    let fallback = after.phase_cost(Phase::Fallback) - before.phase_cost(Phase::Fallback);
    let suspend = after.phase_cost(Phase::Suspend) - before.phase_cost(Phase::Suspend);
    assert!(
        fallback > 0.0,
        "NoSpace on the first suspend write must descend the ladder and spend fallback I/O"
    );

    let victim = &server.sessions()[0].fairness;
    let preemptor = &server.sessions()[1].fairness;
    assert_eq!(victim.suspends, 1, "round 1 preempts the first session once");
    assert_eq!(
        victim.suspend_cost.iter().sum::<f64>(),
        suspend,
        "the victim's park cost is exactly the round's Suspend-phase delta"
    );
    assert_eq!(
        preemptor.preempt_fallback_cost, fallback,
        "the ladder's fallback I/O must land on the preemptor, exactly"
    );
    assert_eq!(
        victim.preempt_fallback_cost, 0.0,
        "the victim must not be billed for the preemptor's ladder descent"
    );
    assert_eq!(
        preemptor.suspend_cost.iter().sum::<f64>(),
        0.0,
        "the preemptor parked nothing this round"
    );

    // The mis-attribution fix must not cost correctness: finish the run
    // and check both goldens.
    db.disk().set_fault_injector(None);
    server.run_to_completion().unwrap();
    assert_eq!(server.sessions()[0].collected, golden(500));
    assert_eq!(server.sessions()[1].collected, golden(300));
}

/// Admission control prices a new session's estimated memory against the
/// live victim set: a typed `Overloaded` rejection when preempting room
/// would cost too much, a parked queue entry (drained as load drains)
/// when queueing is on — and the queued session still runs to its exact
/// golden.
#[test]
fn admission_control_rejects_queues_and_drains() {
    let goldens = goldens();
    // One session, one live slot: after a round the sort-over-join is
    // live *mid-flight*, deep enough that its victim signal — the tree DP's
    // suspend estimate — prices dumping real buffered state (a fresh or
    // finished session would price 0.0 and admit anything).
    let dir = TempDir::new("admit");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut server = QsrServer::new(db.clone(), config());
    server.admit("tenant-a", 5, &plans()[0]).unwrap();
    server.run_round().unwrap();
    let demand = plans()[1].estimated_mem_tuples();
    assert!(demand > 0, "the newcomer must have a real memory estimate");

    // Hard-reject mode: zero budget means room only comes from preempting
    // the live victim, and a zero price ceiling makes every preemption
    // too expensive.
    server.config_mut().admission = Some(AdmissionConfig {
        memory_budget: 0,
        max_price: 0.0,
        queue: false,
    });
    let before = server.sessions().len();
    let err = server.try_admit("tenant-c", 1, &plans()[1]).unwrap_err();
    assert!(
        err.is_overloaded(),
        "rejection must be the typed Overloaded error, got {err}"
    );
    assert!(
        !err.is_resource_pressure(),
        "admission rejection must not read as ladder pressure"
    );
    assert_eq!(
        server.sessions().len(),
        before,
        "a rejected session must not be admitted"
    );

    // Queue mode: a budget that fits the newcomer alone (but not beside
    // the live sort) parks it; the scheduler re-prices it each round and
    // admits it once the sort finishes, and it still runs to golden.
    server.config_mut().admission = Some(AdmissionConfig {
        memory_budget: demand,
        max_price: 0.0,
        queue: true,
    });
    assert_eq!(
        server.try_admit("tenant-c", 1, &plans()[1]).unwrap(),
        Admission::Queued
    );
    assert_eq!(server.queued_admissions(), 1);
    server.run_to_completion().unwrap();
    assert_eq!(server.queued_admissions(), 0, "the queue must drain");
    let late = server
        .sessions()
        .iter()
        .find(|s| s.meta.tenant == "tenant-c")
        .expect("the queued session must eventually be admitted");
    assert!(late.is_finished());
    assert_eq!(
        late.collected, goldens[1],
        "a drained admission must still deliver its exact golden"
    );
    assert_eq!(
        server.sessions()[0].collected,
        goldens[0],
        "the incumbent the newcomer was priced against must stay bit-exact"
    );
}

/// SLA budgets derive per-preemption suspend deadlines: a tenant whose
/// budget is tiny forces the ladder to admission-skip unaffordable rungs,
/// which counts SLA misses — without ever costing output correctness.
#[test]
fn sla_budgets_force_cheaper_rungs_and_count_misses() {
    let goldens = goldens();

    // Generous budgets: every preemption fits its deadline, zero misses —
    // on the inline loop and on worker threads alike.
    for workers in [0, 2] {
        let (_dir, _db, mut server) = build_server("sla-rich");
        server.config_mut().workers = workers;
        server.config_mut().sla = Some(SlaConfig::uniform(1e9));
        server.run_to_completion().unwrap();
        for (i, s) in server.sessions().iter().enumerate() {
            assert_eq!(s.collected, goldens[i]);
            assert_eq!(
                s.fairness.sla_misses, 0,
                "workers={workers} session {}: a generous budget must never miss",
                i + 1
            );
        }
    }

    // Starved budgets: once a tenant's spend exhausts its budget the
    // derived deadline hits 0 — rungs are admission-skipped (counted as
    // misses) and suspends that cannot fit any rung fail as pressure,
    // walking the server shedding ladder. Degradation may cost *service*
    // (sheds), never correctness: every finished session is bit-exact.
    let (_dir, _db, mut server) = build_server("sla-poor");
    server.config_mut().sla = Some(SlaConfig::uniform(0.5));
    server.run_to_completion().unwrap();
    let misses: u64 = server
        .sessions()
        .iter()
        .map(|s| s.fairness.sla_misses)
        .sum();
    assert!(
        misses > 0,
        "a starved budget must force below-requested-rung preemptions"
    );
    let top = &server.sessions()[0];
    assert!(
        top.is_finished(),
        "the highest-priority session must survive SLA starvation"
    );
    for (i, s) in server.sessions().iter().enumerate() {
        if s.is_shed() {
            assert!(
                s.collected.is_empty(),
                "session {}: shed output must be discarded",
                i + 1
            );
            continue;
        }
        assert!(s.is_finished(), "session {} must finish or shed", i + 1);
        assert_eq!(
            s.collected,
            goldens[i],
            "session {}: SLA degradation must never cost correctness",
            i + 1
        );
    }

    // Per-tenant override: the rich tenant never misses or sheds; the
    // zero-budget tenant's first preemption already derives a 0.0
    // deadline, so its requested rung is always admission-skipped — it
    // pays in misses (and possibly in being shed).
    let (_dir, _db, mut server) = build_server("sla-mixed");
    server.config_mut().sla = Some(SlaConfig {
        default_budget: 1e9,
        tenants: vec![("tenant-b".to_string(), 0.0)],
    });
    server.run_to_completion().unwrap();
    let mut starved_paid = false;
    for (i, s) in server.sessions().iter().enumerate() {
        if s.meta.tenant == "tenant-a" {
            assert!(s.is_finished(), "session {}: rich tenant must finish", i + 1);
            assert_eq!(s.collected, goldens[i]);
            assert_eq!(
                s.fairness.sla_misses, 0,
                "session {}: the rich tenant must not miss",
                i + 1
            );
        } else if s.is_shed() || s.fairness.sla_misses > 0 {
            starved_paid = true;
        }
    }
    assert!(
        starved_paid,
        "the starved tenant must pay in misses or shedding"
    );
}

/// Collect `(session, est_suspend_cost, reason)` of every preemption, in
/// journal order.
fn preempts(tracer: &Tracer) -> Vec<(u64, f64, String)> {
    tracer
        .take_full()
        .into_iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::Preempt { session, est_suspend_cost, reason } => {
                Some((session, est_suspend_cost, reason))
            }
            _ => None,
        })
        .collect()
}

/// The three-session mix over `max_live` slots and `workers` threads,
/// with a full-capture tracer attached.
fn build_traced(
    tag: &str,
    max_live: usize,
    workers: usize,
) -> (TempDir, Arc<Database>, QsrServer, Arc<Tracer>) {
    let (dir, db, mut server) = build_server(tag);
    let tracer = Arc::new(Tracer::new(db.ledger().clone()));
    tracer.enable_full_capture();
    db.install_tracer(Some(tracer.clone()));
    server.config_mut().max_live = max_live;
    server.config_mut().workers = workers;
    (dir, db, server, tracer)
}

/// One policy, both modes: with more live slots than workers the threaded
/// run must park the *cheapest* live victim when a claim needs a slot —
/// not whichever session's quantum just expired. After one slice each,
/// the mid-flight sort (session 1) prices above the block-NLJ (session
/// 2); session 3's activation must therefore displace session 2, exactly
/// as the serial loop does.
#[test]
fn threaded_run_parks_the_cheapest_victim() {
    let goldens = goldens();
    // The sort's mid-flight signal after one slice: what the one-slot
    // serial run pays to park it first.
    let (_d, _db, mut one_slot, one_slot_trace) = build_traced("victim-pin", 1, 0);
    one_slot.run_round().unwrap();
    let (pinned, sort_cost, _) = preempts(&one_slot_trace)[0].clone();
    assert_eq!(pinned, 1);

    let (_d0, _db0, mut serial, serial_trace) = build_traced("victim-serial", 2, 0);
    serial.run_to_completion().unwrap();
    let want = preempts(&serial_trace);
    let (first, first_cost, _) = want[0].clone();
    assert_eq!(first, 2, "the block-NLJ is the cheapest first victim");
    assert!(
        first_cost < sort_cost,
        "the victim signal must separate the two candidates ({first_cost} vs {sort_cost})"
    );

    let (_d1, _db1, mut threaded, trace) = build_traced("victim-threaded", 2, 1);
    threaded.run_to_completion().unwrap();
    let got = preempts(&trace);
    assert_eq!(
        got, want,
        "workers=1 must choose the same victims, at the same prices, for the same reason"
    );
    assert!(got.iter().all(|(.., reason)| reason == "live-slot pressure"));
    for (i, s) in threaded.sessions().iter().enumerate() {
        assert_eq!(s.collected, goldens[i]);
    }
}

/// `max_live` is a strict ceiling whatever the worker count: with fewer
/// slots than workers the surplus workers wait, and sessions still
/// alternate through the suspend path instead of both staying live.
#[test]
fn threaded_live_sessions_never_exceed_max_live() {
    let goldens = goldens();
    for (max_live, workers, sessions) in [(1usize, 2usize, 2usize), (2, 4, 6)] {
        let what = format!("max_live={max_live} workers={workers} sessions={sessions}");
        let (_dir, _db, mut server) =
            build_server_mt(&format!("ceiling-{max_live}"), sessions, BackendKind::Local, workers);
        server.config_mut().max_live = max_live;
        server.run_to_completion().unwrap();
        assert!(
            server.peak_live() <= max_live,
            "{what}: {} sessions were live at once",
            server.peak_live()
        );
        let mut preempted = 0;
        for (i, s) in server.sessions().iter().enumerate() {
            assert!(s.is_finished(), "{what}: session {} must finish", i + 1);
            assert_eq!(s.collected, goldens[i % 3], "{what}: session {}", i + 1);
            preempted += s.fairness.suspends;
        }
        assert!(
            preempted > 0,
            "{what}: sharing fewer slots than sessions must go through the suspend path"
        );
    }
}

/// A session parked on the admission queue is re-priced every time the
/// cursor wraps — also under worker threads — so it is admitted once the
/// incumbent finishes, and runs to its golden.
#[test]
fn queued_admission_is_admitted_under_threads() {
    let goldens = goldens();
    let dir = TempDir::new("admit-mt");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let mut server = QsrServer::new(db.clone(), config());
    server.admit("tenant-a", 5, &plans()[0]).unwrap();
    // Bring the sort live mid-flight, then queue a newcomer whose memory
    // only fits once the sort is gone.
    server.run_round().unwrap();
    server.config_mut().admission = Some(AdmissionConfig {
        memory_budget: plans()[1].estimated_mem_tuples(),
        max_price: 0.0,
        queue: true,
    });
    assert_eq!(
        server.try_admit("tenant-c", 1, &plans()[1]).unwrap(),
        Admission::Queued
    );
    server.config_mut().workers = 2;
    server.run_to_completion().unwrap();
    assert_eq!(server.queued_admissions(), 0, "the queue must drain");
    let late = server
        .sessions()
        .iter()
        .find(|s| s.meta.tenant == "tenant-c")
        .expect("the queued session must be admitted once load drains");
    assert!(late.is_finished());
    assert_eq!(late.collected, goldens[1]);
    assert_eq!(server.sessions()[0].collected, goldens[0]);
}

/// The equivalence behind "one loop": a single worker thread runs the
/// very schedule the inline loop runs — byte-identical outputs, fairness
/// counters and cost ledger (wall-clock slice times aside).
#[test]
fn one_worker_is_equivalent_to_the_inline_loop() {
    let run = |workers: usize| {
        let (_dir, db, mut server) = build_server(&format!("equiv-{workers}"));
        server.config_mut().workers = workers;
        server.config_mut().sla = Some(SlaConfig::uniform(0.5));
        let slices = server.run_to_completion().unwrap();
        let rows: Vec<_> = server
            .sessions()
            .iter()
            .map(|s| {
                let f = &s.fairness;
                (
                    (s.collected.clone(), s.is_finished(), s.is_shed()),
                    (f.quanta, f.work_units, f.tuples, f.suspends, f.resumes),
                    (f.resume_retries, f.sla_misses),
                    (f.resume_cost.clone(), f.suspend_cost.clone()),
                    (f.preempt_fallback_cost, f.resume_retry_cost),
                )
            })
            .collect();
        (slices, rows, db.ledger().snapshot())
    };
    let (inline_slices, inline_rows, inline_ledger) = run(0);
    let (slices, rows, ledger) = run(1);
    assert_eq!(slices, inline_slices);
    assert_eq!(rows, inline_rows);
    assert!(ledger == inline_ledger, "workers=1 must charge the inline loop's ledger");
    assert!(
        inline_rows.iter().any(|row| row.2 .1 > 0),
        "the starved SLA budget must make the comparison cover misses"
    );
}

/// Spill reclaim at the server: a session that was preempted (so its run
/// files outlived one execution and were inherited by the next) and then
/// finished leaves nothing behind — run files, dump blobs and suspend
/// generations are all gone once its registry entries are retired.
#[test]
fn preempted_then_finished_session_reclaims_its_spill_files() {
    let dir = TempDir::new("reclaim");
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 0).unwrap();
    populate(&db);
    db.pool().flush_all().unwrap();
    let before = db.disk().used_bytes();
    let mut server = QsrServer::new(db.clone(), ServerConfig { quantum: 400, ..config() });
    let sort = PlanSpec::Sort {
        input: Box::new(PlanSpec::TableScan { table: "r".into() }),
        key: 0,
        buffer_tuples: 100,
    };
    server.admit("tenant-a", 5, &sort).unwrap();
    server.admit("tenant-b", 3, &plans()[2]).unwrap();
    server.run_to_completion().unwrap();
    for s in server.sessions() {
        assert!(s.is_finished());
        assert!(s.fairness.suspends > 0, "session {} was never preempted", s.meta.id);
    }
    assert_eq!(
        db.disk().used_bytes(),
        before,
        "finished sessions must leave no run file, dump blob or generation behind"
    );
}
