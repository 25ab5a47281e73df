//! What the block NLJ pays per inner row must not grow with its outer
//! buffer: the inner row is looked up in the buffer, not compared with
//! every buffered row. When it was compared, the large buffer below cost
//! tens of times more per inner row than the small one.

mod common;

use common::{create_table, TempDir};
use qsr_exec::{PlanSpec, QueryExecution};
use qsr_storage::{Column, DataType, Database, Schema, Tuple, ValueRef};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A `(key INT, pad STR)` table holding `keys` in order.
fn table(db: &Arc<Database>, name: &str, keys: impl Iterator<Item = i64>) {
    let rows: Vec<Tuple> = keys
        .map(|k| Tuple::from_fields([ValueRef::Int(k), ValueRef::Str("padding")]))
        .collect();
    let schema = Schema::new(vec![
        Column::new("key", DataType::Int),
        Column::new("pad", DataType::Str),
    ]);
    create_table(db, name, schema, &rows);
}

#[test]
fn block_nlj_cost_per_inner_row_does_not_grow_with_the_buffer() {
    const INNER: i64 = 20_000;
    const MATCHES: i64 = 64;
    const SMALL: usize = 64;
    const LARGE: usize = 8_192;
    let dir = TempDir::new("nlj-scale");
    let db = Database::open_default(&dir.0).unwrap();
    table(&db, "inner", 0..INNER);
    table(&db, "no_inner", 0..0);
    // Outer tables of one buffer each; only their first rows find a
    // partner, so both joins emit the same rows.
    for (name, rows) in [("small", SMALL), ("large", LARGE)] {
        table(
            &db,
            name,
            (0..MATCHES).chain((1..).map(|k: i64| -k)).take(rows),
        );
    }
    // Best of three runs; the join phase alone is the run against the
    // inner table less the run against an empty one (same fill, same
    // buffer, no probes).
    let time = |outer: &str, buffer: usize, inner: &str| -> Duration {
        let spec = PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::TableScan {
                table: outer.into(),
            }),
            inner: Box::new(PlanSpec::TableScan {
                table: inner.into(),
            }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: buffer,
        };
        (0..3)
            .map(|_| {
                let start = Instant::now();
                let mut exec = QueryExecution::start(db.clone(), spec.clone()).unwrap();
                let out = exec.run_to_completion().unwrap();
                let elapsed = start.elapsed();
                let matches = if inner == "inner" { MATCHES } else { 0 };
                assert_eq!(out.len() as i64, matches);
                elapsed
            })
            .min()
            .unwrap()
    };
    let per_inner_row = |outer: &str, buffer: usize| {
        time(outer, buffer, "inner").saturating_sub(time(outer, buffer, "no_inner")) / INNER as u32
    };
    let (small, large) = (per_inner_row("small", SMALL), per_inner_row("large", LARGE));
    assert!(
        large < 3 * small,
        "per inner row: {large:?} against {LARGE} buffered rows, {small:?} against {SMALL}"
    );
}
