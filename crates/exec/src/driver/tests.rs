//! `Filter` over a `TableScan` runs the scan's `next_where` override;
//! over any other child it runs the trait's default body. These tests
//! run `Sort(Filter(TableScan))` both ways — the second with the scan
//! behind a pass-through that hides the override — and require every
//! observable to agree: output, work units, ticks, the per-phase ledger,
//! and an exact resume after a suspend at every work unit.

use super::*;
use crate::ops::sort::ExternalSort;
use crate::ops::{Filter, Predicate, TableScan};
use qsr_core::{CkptId, CtrId, SideSnapshot};
use qsr_storage::{CostModel, CostSnapshot};
use qsr_workload::{generate_table, TableSpec};

const SORT: OpId = OpId(0);
const FILTER: OpId = OpId(1);
const SCAN: OpId = OpId(2);

/// Forwards every method to the operator it wraps except `next_where`,
/// so a filter above it takes the trait's default body.
struct PassThrough(Box<dyn Operator>);

impl Operator for PassThrough {
    fn op_id(&self) -> OpId {
        self.0.op_id()
    }
    fn schema(&self) -> &Schema {
        self.0.schema()
    }
    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.0.open(ctx)
    }
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        self.0.next(ctx)
    }
    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.0.close(ctx)
    }
    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        self.0.sign_contract(ctx, parent_ckpt)
    }
    fn children(&mut self) -> Vec<&mut dyn Operator> {
        self.0.children()
    }
    fn state(&mut self) -> &mut crate::operator::ContractState {
        self.0.state()
    }
    fn control(&self) -> Vec<u8> {
        self.0.control()
    }
    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot> {
        self.0.side_snapshot(ctx)
    }
    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        self.0.suspend(ctx, mode, plan, sq)
    }
    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.0.resume(ctx, sq)
    }
    fn suspend_inputs(&self) -> OpSuspendInputs {
        self.0.suspend_inputs()
    }
    fn rewind(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.0.rewind(ctx)
    }
    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        self.0.visit(f)
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        self.0.visit_mut(f)
    }
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh database holding table `r` (150 rows); every call makes the
/// same bytes, so two of them charge the same pages for the same work.
fn database(tag: &str) -> (TempDir, Arc<Database>) {
    let dir = TempDir(std::env::temp_dir().join(format!(
        "qsr-exec-next-where-{tag}-{}",
        std::process::id()
    )));
    let db = Database::open(&dir.0, CostModel::default()).unwrap();
    generate_table(&db, &TableSpec::new("r", 150).payload(12).seed(21)).unwrap();
    (dir, db)
}

/// `Sort(Filter(TableScan r))` with `col < value` as the predicate.
fn spec(col: usize, value: i64) -> PlanSpec {
    PlanSpec::Sort {
        input: Box::new(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt { col, value },
        }),
        key: 0,
        buffer_tuples: 16,
    }
}

/// The tree `build_plan` makes of `spec`, made by hand so that the scan
/// can sit behind a [`PassThrough`] when `hide` is set.
fn built(db: &Database, spec: &PlanSpec, hide: bool) -> BuiltPlan {
    let PlanSpec::Sort { input, key, buffer_tuples } = spec else {
        unreachable!("a sort over a filter")
    };
    let PlanSpec::Filter { predicate, .. } = &**input else {
        unreachable!("a filter over a scan")
    };
    let mut scan: Box<dyn Operator> =
        Box::new(TableScan::new(SCAN, "r".into(), db.table("r").unwrap().schema));
    if hide {
        scan = Box::new(PassThrough(scan));
    }
    let filter = Filter::new(FILTER, predicate.clone(), scan);
    BuiltPlan {
        root: Box::new(ExternalSort::new(SORT, Box::new(filter), *key, *buffer_tuples)),
        topology: build_plan(db, spec).unwrap().topology,
    }
}

/// Everything one run shows.
#[derive(Debug, PartialEq)]
struct Seen {
    out: Vec<Tuple>,
    /// At the end of each segment: work units, the scan's and the
    /// filter's ticks, and the scan's charged work (its page reads).
    segments: Vec<(u64, u64, u64, f64)>,
    ledger: CostSnapshot,
}

fn segment(exec: &QueryExecution) -> (u64, u64, u64, f64) {
    let ctx = exec.ctx();
    let ticks = (ctx.ticks_of(SCAN), ctx.ticks_of(FILTER));
    (ctx.work_units(), ticks.0, ticks.1, ctx.work.get(SCAN))
}

/// Run `spec` to the end, suspending once under `policy` just after work
/// unit `at` and resuming a freshly built tree, as `resume_validated`
/// does, when `suspend` is given.
fn run(db: &Arc<Database>, spec: &PlanSpec, hide: bool, suspend: Option<(u64, &SuspendPolicy)>) -> Seen {
    let before = db.ledger().snapshot();
    db.ledger().set_phase(Phase::Execute);
    let mut exec =
        QueryExecution::open_built(db.clone(), spec.clone(), built(db, spec, hide), true).unwrap();
    let mut seen = Seen {
        out: Vec::new(),
        segments: Vec::new(),
        ledger: before,
    };
    if let Some((at, policy)) = suspend {
        exec.set_work_unit_observer(Some(Box::new(move |_: OpId, seq: u64| seq == at)));
        let (prefix, done) = exec.run().unwrap();
        seen.out = prefix;
        seen.segments.push(segment(&exec));
        if !done {
            let handle = exec.suspend(policy).unwrap();
            db.ledger().set_phase(Phase::Resume);
            let sq = QueryExecution::load_sq(db, handle.blob).unwrap();
            exec = QueryExecution::resume_built(db, spec, &sq, built(db, spec, hide)).unwrap();
            db.ledger().set_phase(Phase::Execute);
        }
    }
    seen.out.extend(exec.run_to_completion().unwrap());
    seen.segments.push(segment(&exec));
    seen.ledger = db.ledger().snapshot().since(&before);
    seen
}

#[test]
fn the_scan_override_matches_the_default_filter_loop() {
    let (_a, over) = database("override");
    let (_b, default) = database("default");
    for threshold in [0, 100, 400, 1000] {
        let spec = spec(1, threshold);
        let whole = run(&over, &spec, false, None);
        assert_eq!(whole, run(&default, &spec, true, None), "threshold {threshold}");
        let (units, scanned, tested, _) = whole.segments[0];
        assert_eq!((scanned, tested), (150, 150), "threshold {threshold}");
        for policy in [SuspendPolicy::AllDump, SuspendPolicy::AllGoBack] {
            for at in 1..=units {
                let resumed = run(&over, &spec, false, Some((at, &policy)));
                assert_eq!(resumed.out, whole.out, "{policy:?} at {at}, threshold {threshold}");
                assert_eq!(
                    resumed,
                    run(&default, &spec, true, Some((at, &policy))),
                    "{policy:?} at {at}, threshold {threshold}"
                );
            }
        }
    }
}

#[test]
fn a_predicate_on_a_string_fails_alike_on_both_paths() {
    let (_a, over) = database("override-err");
    let (_b, default) = database("default-err");
    // Column 2 is the payload string: the first row read fails the test.
    let spec = spec(2, 5);
    let fail = |db: &Arc<Database>, hide: bool| {
        let mut exec =
            QueryExecution::open_built(db.clone(), spec.clone(), built(db, &spec, hide), true)
                .unwrap();
        let err = exec.run().unwrap_err().to_string();
        (err, segment(&exec))
    };
    let (err, counts) = fail(&over, false);
    assert_eq!((err.clone(), counts), fail(&default, true));
    assert_eq!(err, "invalid argument: expected INT, got STR");
    assert_eq!((counts.0, counts.1, counts.2), (2, 1, 1), "one row read, one row tested");
    assert!(counts.3 > 0.0, "the page read is charged to the scan");
}

/// The filter migrates its incoming contract at its first output after a
/// signing (§3.4, footnote 3): the contract the sort's latest checkpoint
/// holds on the filter carries that one tuple and is fulfilled by the
/// filter's newest checkpoint, so going back to the sort's flush never
/// re-reads the filter's non-matching prefix. (Output alone cannot show
/// this: without the migration a GoBack is still exact, only dearer.)
#[test]
fn a_filter_contract_migrates_to_its_first_output_after_signing() {
    let (_dir, db) = database("migrate");
    let mut exec = QueryExecution::start(db, spec(1, 400)).unwrap();
    // The sort flushes its 16-row buffer and signs at its 16th row.
    exec.set_trigger(Some(crate::SuspendTrigger::AfterOpTuples { op: SORT, n: 20 }));
    assert!(!exec.run().unwrap().1);
    let graph = &exec.ctx().graph;
    let ctr = graph
        .contract_from(graph.latest_ckpt(SORT).unwrap(), FILTER)
        .unwrap();
    assert_eq!(ctr.saved_tuples.len(), 1);
    assert_eq!(graph.latest_ckpt(FILTER), Some(ctr.child_ckpt));
}
