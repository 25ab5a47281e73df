//! The block NLJ emits *exactly* the nested loop's sequence — block by
//! block, for each inner row the equal-key buffered rows in buffer order —
//! and a suspended NLJ resumes into the rest of that sequence, whatever
//! its key types. The keys here are duplicate-heavy and of every type,
//! including the values where equality and identity part ways: `-0.0`
//! equals `0.0`, NaN equals nothing (itself included), and `Int(1)` is
//! not `Float(1.0)`.

mod common;

use common::{create_table, TempDir};
use proptest::prelude::*;
use qsr_core::{OpId, SuspendPolicy};
use qsr_exec::{PlanSpec, Poll, QueryExecution};
use qsr_storage::{BackendKind, Column, DataType, Database, Encode, Schema, Tuple, Value, ValueRef};
use std::sync::Arc;

/// The key pool: few values, so keys repeat, covering every type.
fn key(i: usize) -> Value {
    const KEYS: usize = 12;
    match i % KEYS {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Int(-1),
        3 => Value::Float(0.0),
        4 => Value::Float(-0.0),
        5 => Value::Float(1.0),
        6 => Value::Float(f64::NAN),
        7 => Value::Float(-1.0),
        8 => Value::Str(String::new()),
        9 => Value::Str("a".into()),
        10 => Value::Str("é".into()),
        _ => Value::Bool(true),
    }
}

/// Outer and inner keys sharing a hot key (any but NaN): the outer table
/// starts with two rows of it and the inner with one, so some inner row
/// matches twice in every block of two or more rows. Then half of each
/// table's rows take the hot key and the rest any key of the pool, and
/// both end on NaN, a zero of each sign and a one of each type.
fn tables() -> impl Strategy<Value = (Vec<Value>, Vec<Value>)> {
    let picks = |len| proptest::collection::vec((0usize..12, any::<bool>()), len);
    (0usize..11, picks(0..28), picks(0..14)).prop_map(|(hot, outer, inner)| {
        let hot = if hot >= 6 { hot + 1 } else { hot };
        let keys = |lead: usize, picks: Vec<(usize, bool)>, tail: [usize; 3]| -> Vec<Value> {
            std::iter::repeat_n(hot, lead)
                .chain(
                    picks
                        .into_iter()
                        .map(|(k, use_hot)| if use_hot { hot } else { k }),
                )
                .chain(tail)
                .map(key)
                .collect()
        };
        (keys(2, outer, [6, 4, 1]), keys(1, inner, [6, 3, 5]))
    })
}

/// Outer rows are `(id, key)`, inner rows `(key, id)`: the join reads the
/// outer key from the second field and the inner key from the first.
struct Case {
    _dir: TempDir,
    db: Arc<Database>,
    outer: Vec<Tuple>,
    inner: Vec<Tuple>,
}

impl Case {
    fn new(outer_keys: &[Value], inner_keys: &[Value]) -> Self {
        let dir = TempDir::new("nlj-order");
        let db = Database::open_default(&dir.0).unwrap();
        // A suspend here is about operator state, not commit I/O.
        db.install_backend(BackendKind::Memory);
        let row = |a: ValueRef<'_>, b: ValueRef<'_>| Tuple::from_fields([a, b]);
        let outer: Vec<Tuple> = (0..)
            .zip(outer_keys)
            .map(|(id, k)| row(ValueRef::Int(id), k.as_ref()))
            .collect();
        let inner: Vec<Tuple> = (1000..)
            .zip(inner_keys)
            .map(|(id, k)| row(k.as_ref(), ValueRef::Int(id)))
            .collect();
        // The key columns hold every type; their declared one is nominal.
        let (id, key) = (DataType::Int, DataType::Float);
        let schema = |cols: [(&str, DataType); 2]| {
            Schema::new(cols.map(|(name, t)| Column::new(name, t)).to_vec())
        };
        create_table(&db, "o", schema([("o.id", id), ("o.key", key)]), &outer);
        create_table(&db, "i", schema([("i.key", key), ("i.id", id)]), &inner);
        Case {
            _dir: dir,
            db,
            outer,
            inner,
        }
    }

    fn plan(&self, buffer: usize) -> PlanSpec {
        let scan = |t: &str| Box::new(PlanSpec::TableScan { table: t.into() });
        PlanSpec::BlockNlj {
            outer: scan("o"),
            inner: scan("i"),
            outer_key: 1,
            inner_key: 0,
            buffer_tuples: buffer,
        }
    }

    /// The literal per-block nested loop, as `(block, inner row, output)`.
    fn nested_loop(&self, buffer: usize) -> Vec<(usize, usize, Tuple)> {
        let mut out = Vec::new();
        for (b, block) in self.outer.chunks(buffer).enumerate() {
            for (i, inner) in self.inner.iter().enumerate() {
                for outer in block {
                    if outer.get(1) == inner.get(0) {
                        out.push((b, i, outer.join(inner)));
                    }
                }
            }
        }
        out
    }
}

/// Rows as their record bytes, so `-0.0` and `0.0` differ and a NaN
/// equals itself.
fn bytes(rows: &[Tuple]) -> Vec<Vec<u8>> {
    rows.iter().map(Encode::encode_to_vec).collect()
}

/// Pull tuple by tuple until the plan suspends (`false`) or ends (`true`).
fn drain(exec: &mut QueryExecution, out: &mut Vec<Tuple>) -> bool {
    loop {
        match exec.next().unwrap() {
            Poll::Tuple(t) => out.push(t),
            Poll::Done => return true,
            Poll::Suspended => return false,
        }
    }
}

/// Suspend a started execution under `policy`, resume it and finish it.
fn suspend_and_finish(
    db: &Arc<Database>,
    exec: QueryExecution,
    policy: &SuspendPolicy,
) -> Vec<Tuple> {
    let handle = exec.suspend(policy).unwrap();
    let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap();
    let mut rest = Vec::new();
    assert!(
        drain(&mut resumed, &mut rest),
        "a resumed run does not suspend on its own"
    );
    rest
}

const POLICIES: [SuspendPolicy; 3] = [
    SuspendPolicy::AllDump,
    SuspendPolicy::AllGoBack,
    SuspendPolicy::Optimized { budget: None },
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn prop_block_nlj_emits_the_nested_loop_sequence_and_resumes_into_it(
        keys in tables(),
    ) {
        let case = Case::new(&keys.0, &keys.1);
        let rows = case.outer.len();
        let mut between_matches = 0;
        for buffer in [1, 2, 7, rows, rows + 5] {
            let reference = case.nested_loop(buffer);
            let expected: Vec<Tuple> = reference.iter().map(|(_, _, t)| t.clone()).collect();

            // (a) Uninterrupted: the output *sequence* is the nested loop's.
            let mut exec = QueryExecution::start(case.db.clone(), case.plan(buffer)).unwrap();
            let mut got = Vec::new();
            prop_assert!(drain(&mut exec, &mut got));
            prop_assert_eq!(bytes(&got), bytes(&expected), "buffer {}", buffer);
            let units = exec.work_units();

            for policy in &POLICIES {
                // (b) Suspended at every work unit.
                for k in 1..=units {
                    let mut exec = QueryExecution::start(case.db.clone(), case.plan(buffer)).unwrap();
                    exec.set_work_unit_observer(Some(Box::new(move |_: OpId, seq: u64| seq == k)));
                    let mut got = Vec::new();
                    if !drain(&mut exec, &mut got) {
                        got.extend(suspend_and_finish(&case.db, exec, policy));
                    }
                    prop_assert_eq!(
                        bytes(&got), bytes(&expected),
                        "buffer {}, suspend at work unit {} under {:?}", buffer, k, policy
                    );
                }
                // (c) Suspended right after every output. Where the next
                // output joins the same inner row, the NLJ's cursor sits
                // between two equal-key matches in its buffer, and the
                // resume restores it there.
                for j in 1..=expected.len() {
                    let mut exec = QueryExecution::start(case.db.clone(), case.plan(buffer)).unwrap();
                    let mut got = Vec::new();
                    while got.len() < j {
                        match exec.next().unwrap() {
                            Poll::Tuple(t) => got.push(t),
                            other => panic!("output {} of {}: {other:?}", got.len(), j),
                        }
                    }
                    exec.request_suspend();
                    if !drain(&mut exec, &mut got) {
                        got.extend(suspend_and_finish(&case.db, exec, policy));
                    }
                    prop_assert_eq!(
                        bytes(&got), bytes(&expected),
                        "buffer {}, suspend after output {} under {:?}", buffer, j, policy
                    );
                    let inner_row = |o: &(usize, usize, Tuple)| (o.0, o.1);
                    if reference.get(j).map(inner_row) == Some(inner_row(&reference[j - 1])) {
                        between_matches += 1;
                    }
                }
            }
        }
        prop_assert!(between_matches > 0, "no resume landed between two matches");
    }
}
