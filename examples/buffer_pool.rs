//! The shared buffer pool end to end: LRU caching with cost-ledger cache
//! counters, and a suspend that stays crash-safe at any write ordinal —
//! its dump blobs are written serially and synced before the manifest
//! commit, and the execution's dirty run pages are flushed before it too.
//!
//! ```sh
//! cargo run --example buffer_pool
//! ```

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{PlanSpec, Predicate, QueryExecution, SuspendTrigger};
use qsr::storage::{CostModel, Database, FaultInjector, Tuple, WriteFault};
use qsr::workload::{generate_table, TableSpec};
use std::sync::Arc;

fn join_plan() -> PlanSpec {
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

fn fresh_db(dir: &std::path::Path, pool_pages: usize) -> Arc<Database> {
    std::fs::create_dir_all(dir).unwrap();
    let db = Database::open_with_pool(dir, CostModel::default(), pool_pages).unwrap();
    generate_table(&db, &TableSpec::new("r", 800).payload(16).seed(11)).unwrap();
    generate_table(&db, &TableSpec::new("s", 200).payload(16).seed(12)).unwrap();
    // The load is committed before any query runs: a suspend makes durable
    // only the run files its own execution wrote, not a neighbour's pages.
    db.pool().flush_all().unwrap();
    db
}

/// Run the join twice; return (tuples, charged page reads, cache hits).
fn run_twice(db: &Arc<Database>) -> (Vec<Tuple>, u64, u64) {
    db.ledger().reset();
    let mut out = Vec::new();
    for _ in 0..2 {
        out = QueryExecution::start(db.clone(), join_plan())
            .unwrap()
            .run_to_completion()
            .unwrap();
    }
    let snap = db.ledger().snapshot();
    (out, snap.total_pages_read(), snap.cache.hits)
}

fn suspend_point(db: &Arc<Database>) -> (Vec<Tuple>, QueryExecution) {
    let mut exec = QueryExecution::start(db.clone(), join_plan()).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(1),
        n: 250,
    }));
    let (prefix, done) = exec.run().unwrap();
    assert!(!done);
    (prefix, exec)
}

fn main() {
    let base = std::env::temp_dir().join(format!("qsr-bufpool-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // 1. Caching: the same repeated scan-join, uncached vs a 256-frame
    // pool. Identical output; the warm pool serves rescans from memory.
    let (cold_out, cold_reads, _) = run_twice(&fresh_db(&base.join("cold"), 0));
    let (warm_out, warm_reads, hits) = run_twice(&fresh_db(&base.join("warm"), 256));
    assert_eq!(cold_out, warm_out, "caching must not change results");
    assert!(
        warm_reads * 5 <= cold_reads,
        "cached rescan should charge >=5x fewer reads ({warm_reads} vs {cold_reads})"
    );
    println!(
        "repeated scan-join: {cold_reads} charged reads uncached, \
         {warm_reads} with a 256-frame pool ({hits} cache hits)"
    );

    // 2. Count the suspend's write events under a fault injector: the
    // ordinal space a crash can strike.
    let writes = {
        let db = fresh_db(&base.join("count"), 0);
        let (_, exec) = suspend_point(&db);
        let fi = Arc::new(FaultInjector::seeded(1));
        db.disk().set_fault_injector(Some(fi.clone()));
        exec.suspend(&SuspendPolicy::AllDump).unwrap();
        db.disk().set_fault_injector(None);
        fi.writes_observed()
    };
    println!("suspend write events: {writes}");

    // 3. Crash mid-suspend: kill the process at the middle write ordinal,
    // reopen cold, recover. The manifest never committed, so recovery
    // reports "no suspend" and a fresh run still yields the reference
    // output — or, if the ordinal landed after the rename, resume
    // completes it. Both must match.
    let reference = QueryExecution::start(fresh_db(&base.join("ref"), 0), join_plan())
        .unwrap()
        .run_to_completion()
        .unwrap();
    let dir = base.join("crash");
    let db = fresh_db(&dir, 0);
    let (prefix, exec) = suspend_point(&db);
    let fi = Arc::new(FaultInjector::seeded(7));
    fi.fail_write(writes / 2, WriteFault::Crash);
    db.disk().set_fault_injector(Some(fi));
    let _ = exec.suspend(&SuspendPolicy::AllDump);
    drop(db);

    let db = Database::open_default(&dir).unwrap();
    let recovered = match QueryExecution::recover(db.clone()).unwrap() {
        Some(mut resumed) => {
            let mut all = prefix;
            all.extend(resumed.run_to_completion().unwrap());
            println!("crash mid-suspend: suspend had committed, resumed to completion");
            all
        }
        None => {
            println!("crash mid-suspend: suspend never committed, clean restart");
            QueryExecution::start(db, join_plan())
                .unwrap()
                .run_to_completion()
                .unwrap()
        }
    };
    assert_eq!(recovered, reference, "post-crash output diverged");

    // 4. Suspend over a *cached* database: the execution's dirty run pages
    // are flushed before the commit point, so a cold process resumes fine.
    let dir = base.join("cached");
    let db = fresh_db(&dir, 256);
    let (prefix, exec) = suspend_point(&db);
    exec.suspend(&SuspendPolicy::AllDump).unwrap();
    drop(db); // dirty frames die with the pool; disk must be complete
    let db = Database::open_default(&dir).unwrap();
    let mut resumed = QueryExecution::recover(db)
        .unwrap()
        .expect("committed suspend must recover");
    let mut all = prefix;
    all.extend(resumed.run_to_completion().unwrap());
    assert_eq!(all, reference, "cached suspend/recover diverged");
    println!("cached suspend: dirty run pages flushed at commit, cold recovery OK");

    let _ = std::fs::remove_dir_all(&base);
    println!("buffer_pool example: all checks passed");
}
