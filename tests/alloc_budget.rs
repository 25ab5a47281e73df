//! Allocation budgets of the row path, counted exactly.
//!
//! A row read off a page is a checked view of the page's bytes and costs
//! no allocation; a row that is kept is one allocation — its record —
//! from the page it is read off to the page it is spilled to; everything
//! else on the read path is per page, and the spill path allocates its
//! extent buffer once per run. A row an operator buffers costs no
//! allocation of its own either: it is bytes in the operator's row store,
//! whether it came from a child, a run or a dump. A timing cannot pin
//! that in a test suite; a counting allocator can.

mod counting_alloc;

use qsr::core::{OpId, SuspendPolicy};
use qsr::exec::{PlanSpec, Poll, Predicate, QueryExecution, SuspendTrigger};
use qsr::storage::{
    BackendKind, BufferPool, CostLedger, CostModel, Database, DiskManager, HeapFile, RunReader,
    RunWriter, TableInfo, Tuple, Value, ValueRef,
};
use qsr::workload::gen::experiment_schema;
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
    Tuple::new(vec![
        Value::Int(k),
        Value::Int(k % 7),
        Value::Str(format!("payload-{k:08}")),
    ])
}

#[test]
fn tuple_operations_allocate_their_record_and_nothing_else() {
    let (a, b) = (row(1), row(2));
    assert_eq!(allocations(|| a.join(&b)).1, 1, "join");
    assert_eq!(allocations(|| a.project(&[2, 0, 2])).1, 1, "project");
    let bytes = qsr::storage::Encode::encode_to_vec(&a);
    assert_eq!(
        allocations(|| Tuple::from_record(&bytes).unwrap()).1,
        1,
        "from_record"
    );
    let fields = [
        ValueRef::Int(5),
        ValueRef::Str("five"),
        ValueRef::Bool(true),
    ];
    assert_eq!(
        allocations(|| Tuple::from_fields(fields)).1,
        1,
        "from_fields"
    );
    assert_eq!(allocations(|| a.clone()).1, 0, "clone");
    let reads = || {
        (
            a.get(0).as_int().unwrap(),
            a.get(2).as_str().unwrap().len(),
            a.heap_bytes(),
        )
    };
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
    assert_eq!(
        scan,
        ROWS + 2 * pages,
        "scan of {ROWS} rows over {pages} pages"
    );

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
    assert_eq!(
        walk,
        2 * pages,
        "borrowed walk of {ROWS} rows over {pages} pages"
    );

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
    assert_eq!(
        walk,
        2 * pages,
        "borrowed walk of a run of {ROWS} rows over {pages} pages"
    );
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
            predicate: Predicate::IntLt {
                col: 1,
                value: threshold,
            },
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
        assert_eq!(
            allocs,
            base + kept,
            "threshold {threshold}: {kept} rows kept"
        );
    }
}

/// Table `name` of `rows` rows that all share key 7: a merge join of two
/// such tables takes every row of both into one pair of value packets.
fn one_key_table(db: &Database, name: &str, rows: i64) {
    let mut heap = HeapFile::create(db.pool().clone()).unwrap();
    for i in 0..rows {
        let payload = Value::Str(format!("payload-{i:08}"));
        heap.append(&Tuple::new(vec![Value::Int(7), Value::Int(i), payload]))
            .unwrap();
    }
    heap.finish().unwrap();
    let info = TableInfo {
        name: name.into(),
        file: heap.file_id(),
        schema: experiment_schema(name),
        tuple_count: heap.tuple_count(),
        indexes: vec![],
        sorted_on: Some(0),
    };
    db.with_catalog_mut(|c| c.create_table(info)).unwrap();
}

/// The buffering operators, each the root of a plan over tables of `n`
/// rows in `db`, with the work units after which it holds about `n` rows
/// and the table they come from: the block NLJ a full outer buffer, the
/// merge join all of its left input and half its right in its value
/// packets, the hash join its whole build side in its one partition's
/// table, with one probe row read.
fn buffering_plan(db: &Arc<Database>, op: &str, n: u64) -> (PlanSpec, u64, &'static str) {
    let scan = |table: &str| {
        Box::new(PlanSpec::TableScan {
            table: table.into(),
        })
    };
    let tables = |names: [&str; 2]| {
        for (seed, table) in names.into_iter().enumerate() {
            generate_table(db, &TableSpec::new(table, n).payload(16).seed(seed as u64)).unwrap();
        }
    };
    match op {
        "block NLJ" => {
            tables(["o", "i"]);
            let plan = PlanSpec::BlockNlj {
                outer: scan("o"),
                inner: scan("i"),
                outer_key: 0,
                inner_key: 0,
                buffer_tuples: n as usize,
            };
            (plan, n, "o")
        }
        "merge join" => {
            one_key_table(db, "l", n as i64);
            one_key_table(db, "r", n as i64);
            let plan = PlanSpec::MergeJoin {
                left: scan("l"),
                right: scan("r"),
                left_key: 0,
                right_key: 0,
            };
            (plan, n + n / 2, "l")
        }
        "hash join" => {
            tables(["b", "p"]);
            let plan = PlanSpec::HashJoin {
                build: scan("b"),
                probe: scan("p"),
                build_key: 0,
                probe_key: 0,
                partitions: 1,
                hybrid: false,
            };
            (plan, 2 * n + 1, "b")
        }
        op => unreachable!("no buffering operator {op}"),
    }
}

/// Suspend `op`'s plan over tables of `n` rows under `policy`, then
/// count the allocations of resuming it; with them, the pages of the
/// table its rows come from. Suspends go to memory, so fetching a dump is
/// one allocation whatever its size.
fn resume_allocations(op: &str, n: u64, policy: &SuspendPolicy) -> (usize, u64) {
    let dir = TempDir::new(&format!("resume-{}-{n}", op.replace(' ', "-")));
    let db = Database::open_default(&dir.0).unwrap();
    db.install_backend(BackendKind::Memory);
    let (plan, units, table) = buffering_plan(&db, op, n);
    let pages = db.open_table_heap(table).unwrap().pages().unwrap();
    let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
    exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
        op: OpId(0),
        n: units,
    }));
    let (_, done) = exec.run().unwrap();
    assert!(!done, "{op} over {n} rows must stop mid-query");
    let held = exec.suspend_problem().inputs[&OpId(0)].heap_bytes;
    assert!(held > 0, "{op} must hold rows");
    let handle = exec.suspend(policy).unwrap();
    let resume = || QueryExecution::resume_from_blob(db.clone(), handle.blob).unwrap();
    (allocations(resume).1, pages)
}

/// A Dump's rows come back as one block: resuming an operator that holds
/// 2 000 rows allocates exactly as often as resuming one that holds 100.
#[test]
fn resuming_a_dump_allocates_nothing_per_buffered_row() {
    for op in ["block NLJ", "merge join", "hash join"] {
        let (small, _) = resume_allocations(op, 100, &SuspendPolicy::AllDump);
        let (large, _) = resume_allocations(op, 2_000, &SuspendPolicy::AllDump);
        assert_eq!(large, small, "{op}: resume of 2 000 rows against 100");
    }
}

/// A GoBack resume of a hash join inside a partition task reloads the
/// task's build run into the table, borrowing each row off the run's
/// page: a run of 2 000 rows costs more than one of 100 only per page —
/// the page buffer and its `Arc`, through the capacity-0 run pool — and
/// nothing per row. (A partition's run holds its table's rows, in the
/// same pages.)
#[test]
fn loading_a_hash_join_build_run_allocates_nothing_per_row() {
    let (small, small_pages) = resume_allocations("hash join", 100, &SuspendPolicy::AllGoBack);
    let (large, large_pages) = resume_allocations("hash join", 2_000, &SuspendPolicy::AllGoBack);
    assert!(
        large_pages > small_pages + 5,
        "{small_pages} and {large_pages} pages"
    );
    let extra_pages = (large_pages - small_pages) as usize;
    assert_eq!(large - small, 2 * extra_pages, "{extra_pages} more pages");
}
