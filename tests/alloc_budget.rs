//! Allocation budgets of the row path, counted exactly.
//!
//! A row read off a page is a checked view of the page's bytes and costs
//! no allocation; a row that is kept is one allocation — its record —
//! from the page it is read off to the page it is spilled to; everything
//! else on the read path is per page, and the spill path allocates its
//! extent buffer once per run. A timing cannot pin that in a test suite;
//! a counting allocator can.

mod counting_alloc;

use qsr::exec::{PlanSpec, Poll, Predicate, QueryExecution};
use qsr::storage::{
    BufferPool, CostLedger, CostModel, Database, DiskManager, HeapFile, RunReader, RunWriter,
    Tuple, Value, ValueRef,
};
use qsr::workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// Run `f` and count the allocations it makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = counting_alloc::allocations();
    let out = f();
    (out, counting_alloc::allocations() - before)
}

/// Self-cleaning scratch directory, removed even when an assertion fails.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("qsr-alloc-budget-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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
    let dir = TempDir::new("rows");
    let disk = DiskManager::open(&dir.0, CostLedger::default()).unwrap();
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

    // Borrowed, a row costs nothing: only the pages are allocated.
    let mut cursor = heap.cursor();
    let (seen, walk) = allocations(|| {
        let mut seen = 0;
        while let Some(r) = cursor.next_row().unwrap() {
            assert_eq!(r, rows[seen].row());
            seen += 1;
        }
        seen
    });
    assert_eq!(seen, ROWS);
    assert_eq!(walk, 2 * pages, "borrowed walk of {ROWS} rows over {pages} pages");

    let mut writer = RunWriter::create(pool.clone()).unwrap();
    let ((), spill) = allocations(|| {
        for t in &rows {
            writer.append(t).unwrap();
        }
    });
    let run = writer.finish().unwrap();
    assert_eq!((run.tuples, run.pages), (ROWS as u64, pages as u64));
    // Nothing per row, and nothing per page or per extent: pages are
    // encoded in place in the writer's one extent buffer, sealed there and
    // written from there (`pages` is more than one extent of 16).
    assert!(pages > 16, "the run spans several extents: {pages} pages");
    assert_eq!(spill, 1, "spill of {ROWS} rows over {pages} pages");

    let mut reader = RunReader::open(pool, run);
    let (seen, walk) = allocations(|| {
        let mut seen = 0;
        while let Some(r) = reader.next_row().unwrap() {
            assert_eq!(r, rows[seen].row());
            seen += 1;
        }
        seen
    });
    assert_eq!(seen, ROWS);
    assert_eq!(walk, 2 * pages, "borrowed walk of a run of {ROWS} rows over {pages} pages");
}

/// A row the filter rejects is judged on the scan's page and never
/// copied: pulling `Filter(TableScan)` to the end costs the same at every
/// selectivity except for one allocation per row that passes.
#[test]
fn a_row_a_filter_rejects_over_a_scan_costs_no_allocation() {
    let dir = TempDir::new("filter");
    // A capacity-0 pool, so every run reads (and allocates) every page.
    let db = Database::open(&dir.0, CostModel::default()).unwrap();
    generate_table(&db, &TableSpec::new("r", 3_000).payload(16).seed(5)).unwrap();
    let pull_all = |threshold: i64| {
        let spec = PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt { col: 1, value: threshold },
        };
        allocations(|| {
            let mut exec = QueryExecution::start(db.clone(), spec).unwrap();
            let mut kept = 0;
            loop {
                match exec.next().unwrap() {
                    Poll::Tuple(_) => kept += 1,
                    Poll::Done => return kept,
                    Poll::Suspended => unreachable!("no suspend was requested"),
                }
            }
        })
    };
    // The first run also opens the table's file handle.
    pull_all(0);
    let (none, base) = pull_all(0);
    assert_eq!(none, 0);
    for threshold in [1, 100, 500, 1_000] {
        let (kept, allocs) = pull_all(threshold);
        assert!(kept > 0, "threshold {threshold} keeps a row");
        assert_eq!(allocs, base + kept, "threshold {threshold}: {kept} rows kept");
    }
}
