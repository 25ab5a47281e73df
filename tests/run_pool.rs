//! Run files bypass the shared buffer pool.
//!
//! Sort sublists and hash partitions are written once and read back in
//! order, so they go through the database's capacity-0 run pool: with a
//! shared pool of 512 frames, a spilling sort and a spilling hash
//! aggregate leave none of their run pages among its frames, and every
//! hit the pool counts is a table page.

use qsr::exec::{reclaim_spill_files, AggFn, PlanSpec, Poll, QueryExecution};
use qsr::storage::{CacheStats, CostModel, Database, Tuple};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("qsr-run-pool-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scan() -> Box<PlanSpec> {
    Box::new(PlanSpec::TableScan { table: "t".into() })
}

/// Run `plan` over a 3 000-row table held warm in a 512-frame pool. At
/// the first output row every run is written and being read back: none
/// of their pages may be cached then, and over the whole query the pool
/// sees one hit per table page and nothing else, while the runs' pages
/// are charged as disk reads and writes.
fn runs_bypass_the_shared_pool(tag: &str, plan: PlanSpec) {
    let dir = TempDir::new(tag);
    let db = Database::open_with_pool(&dir.0, CostModel::default(), 512).unwrap();
    let table = generate_table(&db, &TableSpec::new("t", 3000).payload(16).seed(5)).unwrap();
    db.pool().flush_all().unwrap();
    let table_pages = db.disk().num_pages(table.file).unwrap();
    let reference: Vec<Tuple> = QueryExecution::start(db.clone(), plan.clone())
        .unwrap()
        .run_to_completion()
        .unwrap();

    let before = db.ledger().snapshot();
    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    let Poll::Tuple(first) = exec.next().unwrap() else {
        panic!("the query produces rows");
    };
    let mut runs = exec.take_spill_files();
    assert!(runs.len() >= 4, "{tag} spilled {} runs", runs.len());
    for &run in &runs {
        let pages = db.disk().num_pages(run).unwrap();
        assert!(pages > 0);
        assert!(
            (0..pages).all(|p| !db.pool().is_cached(run, p)),
            "{run} is in the pool"
        );
    }
    let mut out = vec![first];
    out.extend(exec.run_to_completion().unwrap());
    assert_eq!(out, reference);
    reclaim_spill_files(&db, &mut runs).unwrap();

    let delta = db.ledger().snapshot().since(&before);
    let table_hits = CacheStats {
        hits: table_pages,
        ..CacheStats::default()
    };
    assert_eq!(
        delta.cache, table_hits,
        "{tag}: the pool saw only the table"
    );
    assert!(delta.total_pages_written() > 0 && delta.total_pages_read() > 0);
}

#[test]
fn a_spilling_sort_keeps_its_sublists_out_of_the_shared_pool() {
    runs_bypass_the_shared_pool(
        "sort",
        PlanSpec::Sort {
            input: scan(),
            key: 0,
            buffer_tuples: 100,
        },
    );
}

#[test]
fn a_spilling_hash_aggregate_keeps_its_partitions_out_of_the_shared_pool() {
    runs_bypass_the_shared_pool(
        "agg",
        PlanSpec::HashAgg {
            input: scan(),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Sum,
            partitions: 4,
        },
    );
}
