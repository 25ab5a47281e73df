//! Allocation budgets of the row path, counted exactly.
//!
//! A row is one allocation — its record — from the page it is read off to
//! the page it is spilled to; everything else on the path is per page. A
//! timing cannot pin that in a test suite; a counting allocator can.

mod counting_alloc;

use qsr::storage::{
    BufferPool, CostLedger, DiskManager, HeapFile, RunWriter, Tuple, Value, ValueRef,
};
use std::sync::Arc;

/// Run `f` and count the allocations it makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = counting_alloc::allocations();
    let out = f();
    (out, counting_alloc::allocations() - before)
}

fn row(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(k % 7), Value::Str(format!("payload-{k:08}"))])
}

#[test]
fn tuple_operations_allocate_their_record_and_nothing_else() {
    let (a, b) = (row(1), row(2));
    assert_eq!(allocations(|| a.join(&b)).1, 1, "join");
    assert_eq!(allocations(|| a.project(&[2, 0, 2])).1, 1, "project");
    let bytes = qsr::storage::Encode::encode_to_vec(&a);
    assert_eq!(allocations(|| Tuple::from_record(&bytes).unwrap()).1, 1, "from_record");
    let fields = [ValueRef::Int(5), ValueRef::Str("five"), ValueRef::Bool(true)];
    assert_eq!(allocations(|| Tuple::from_fields(fields)).1, 1, "from_fields");
    assert_eq!(allocations(|| a.clone()).1, 0, "clone");
    let reads = || (a.get(0).as_int().unwrap(), a.get(2).as_str().unwrap().len(), a.heap_bytes());
    assert_eq!(allocations(reads).1, 0, "field reads");
    assert_eq!(allocations(|| (a == b, a.cmp(&b))).1, 0, "comparison");
}

#[test]
fn scan_and_spill_allocate_per_row_only_the_row() {
    let dir = std::env::temp_dir().join(format!("qsr-alloc-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let disk = DiskManager::open(&dir, CostLedger::default()).unwrap();
    let pool = BufferPool::passthrough(Arc::new(disk));

    const ROWS: usize = 5_000;
    let rows: Vec<Tuple> = (0..ROWS as i64).map(row).collect();
    let mut heap = HeapFile::create(pool.clone()).unwrap();
    for t in &rows {
        heap.append(t).unwrap();
    }
    heap.finish().unwrap();
    let pages = heap.pages().unwrap() as usize;
    assert!(pages > 20, "the budgets below are per page: {pages} pages");

    let mut cursor = heap.cursor();
    let (seen, scan) = allocations(|| {
        let mut seen = 0;
        while let Some(t) = cursor.next().unwrap() {
            assert_eq!(t, rows[seen]);
            seen += 1;
        }
        seen
    });
    assert_eq!(seen, ROWS);
    // One record per row; per page, the page buffer and its `Arc`.
    assert_eq!(scan, ROWS + 2 * pages, "scan of {ROWS} rows over {pages} pages");

    let mut writer = RunWriter::create(pool.clone()).unwrap();
    let ((), spill) = allocations(|| {
        for t in &rows {
            writer.append(t).unwrap();
        }
    });
    let run = writer.finish().unwrap();
    assert_eq!((run.tuples, run.pages), (ROWS as u64, pages as u64));
    // Nothing per row: a buffer per page started, and two allocations of
    // the write path per page flushed (the last page is still the tail).
    assert_eq!(spill, pages + 2 * (pages - 1), "spill of {ROWS} rows over {pages} pages");
    let _ = std::fs::remove_dir_all(&dir);
}
