//! Pluggable suspend backends, delta checkpoints, and the robustness
//! layer, end to end: suspend the same blocking query repeatedly —
//! cold-restarting the database between every cycle so each resume
//! replays the committed delta chain from disk — then push a suspend
//! through the latency-charging remote mock,
//! once healing a transient fault under the retry schedule and once
//! failing over to the local fallback when the endpoint dies. Every
//! path must resume to output byte-identical to the uninterrupted run.
//!
//! ```sh
//! cargo run --example suspend_backends
//! ```

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{read_manifest, PlanSpec, Predicate, QueryExecution, SuspendTrigger};
use qsr::storage::{
    CostModel, Database, LocalDiskBackend, Phase, RemoteMockBackend, RobustBackend, Tuple,
    WriteFault, COMPACT_CHAIN_LEN, RESUME_BACKOFF,
};
use qsr::workload::{generate_table, TableSpec};
use std::path::Path;
use std::sync::Arc;

const CYCLES: usize = 4;

/// Blocking sort over a block NLJ: multi-page operator state on both
/// levels, nothing delivered before the final drain, so every resumed
/// segment mutates dump state — the shape delta checkpoints pay off on.
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

fn fresh_db(dir: &Path) -> Arc<Database> {
    std::fs::create_dir_all(dir).unwrap();
    let db = Database::open_with_pool(dir, CostModel::default(), 0).unwrap();
    generate_table(&db, &TableSpec::new("r", 2000).seed(21)).unwrap();
    generate_table(&db, &TableSpec::new("s", 2000).seed(22)).unwrap();
    db.pool().flush_all().unwrap();
    db.ledger().reset();
    db
}

fn reopen(dir: &Path) -> Arc<Database> {
    Database::open_with_pool(dir, CostModel::default(), 0).unwrap()
}

/// Suspend/resume [`CYCLES`] times through a full process restart each
/// cycle; return the suspend-phase pages charged and the chain length of
/// the committed manifest, per cycle.
fn restart_sweep(dir: &Path, reference: &[Tuple]) -> (Vec<u64>, Vec<u64>) {
    let mut db = fresh_db(dir);
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    let mut pages = Vec::new();
    let mut chains = Vec::new();
    for cycle in 0..CYCLES {
        let n = if cycle == 0 { 250 } else { 40 };
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n }));
        let (prefix, done) = exec.run().unwrap();
        assert!(prefix.is_empty() && !done, "the blocking sort must not finish early");
        let before = db.ledger().snapshot();
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        let after = db.ledger().snapshot();
        pages.push(after.since(&before).phase(Phase::Suspend).pages_written);
        chains.push(read_manifest(&db).unwrap().expect("committed suspend").chain_len);
        drop(db); // process dies with the suspend on disk
        db = reopen(dir);
        exec = QueryExecution::recover(db.clone())
            .unwrap()
            .expect("committed suspend must recover cold");
    }
    let out = exec.run_to_completion().unwrap();
    assert_eq!(out, reference, "restart cycling changed the query output");
    (pages, chains)
}

/// One suspend through the remote mock under `fault`, then a plain local
/// reopen that must recover to `reference` whichever side committed.
fn remote_suspend(
    dir: &Path,
    mode: &str,
    fault: Option<(u64, WriteFault)>,
    reference: &[Tuple],
) -> (bool, u64) {
    let db = fresh_db(dir);
    let local = || Arc::new(LocalDiskBackend::new(db.blobs().clone(), db.disk().clone()));
    let remote = Arc::new(RemoteMockBackend::new(local(), 0x55).with_latency(2, None));
    if let Some((nth, f)) = fault {
        remote.faults().fail_write(nth, f);
    }
    let robust = Arc::new(RobustBackend::new(
        remote.clone(),
        Some(local()),
        RESUME_BACKOFF,
        Some(db.ledger().clone()),
    ));
    db.set_backend(robust.clone());
    let mut exec = QueryExecution::start(db.clone(), plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n: 250 }));
    let (prefix, done) = exec.run().unwrap();
    assert!(prefix.is_empty() && !done);
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    let outcome = (robust.failed_over(), remote.latency_units());
    drop(db); // process dies; next boot knows nothing about the remote

    let db = Database::open_default(dir).unwrap();
    let out = QueryExecution::recover(db)
        .unwrap()
        .expect("committed suspend must recover")
        .run_to_completion()
        .unwrap();
    assert_eq!(out, reference, "{mode}: remote-stack resume diverges");
    outcome
}

fn main() {
    let base = std::env::temp_dir().join(format!("qsr-backends-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let reference = QueryExecution::start(fresh_db(&base.join("ref")), plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    println!("reference run: {} tuples", reference.len());

    // Repeated suspends across cold restarts: the first has no baseline
    // and dumps in full; each later one writes the dumps that changed
    // little as delta frames chained to the previous generation's.
    let (pages, chains) = restart_sweep(&base.join("chain"), &reference);
    println!(
        "\n[1] {CYCLES} suspend/restart/resume cycles: suspend pages {pages:?}, chains {chains:?}"
    );
    assert_eq!(chains[0], 0, "the first suspend has nothing to chain to");
    assert!(chains.iter().any(|&c| c > 0), "repeated suspends must chain");
    assert!(
        chains.iter().all(|&c| (c as usize) < COMPACT_CHAIN_LEN),
        "a chain at the cap must be folded back into a full dump"
    );
    println!("[1] delta chains replay across process restarts, folded below the cap");

    // Remote endpoint heals after two transient put failures: the retry
    // schedule rides them out, no failover, remote latency charged.
    let (failed_over, latency) = remote_suspend(
        &base.join("transient"),
        "transient",
        Some((3, WriteFault::Transient(2))),
        &reference,
    );
    assert!(!failed_over, "a healing transient must be retried through, not failed over");
    println!("\n[2] transient remote fault: retried to commit, {latency} latency units, no failover");

    // Remote endpoint dies on the query-blob put: graceful failover to
    // the local fallback, and the cold reopen still sees the commit.
    let (failed_over, latency) = remote_suspend(
        &base.join("dead"),
        "dead",
        Some((3, WriteFault::Crash)),
        &reference,
    );
    assert!(failed_over, "a dead endpoint must fail over to the local fallback");
    println!("[3] dead remote endpoint: failed over locally at {latency} latency units, resume intact");

    let _ = std::fs::remove_dir_all(&base);
    println!("\nall scenarios byte-identical ({} tuples each)", reference.len());
}
