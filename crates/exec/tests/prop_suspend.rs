//! Property-based suspend/resume fuzzing: random suspend points × random
//! policies on representative plans must always satisfy the equivalence
//! invariant. Complements the deterministic sweeps in `suspend_resume.rs`
//! by hitting arbitrary interior states (mid-fill, mid-packet, mid-merge,
//! mid-partition).

mod common;

use common::*;
use proptest::prelude::*;
use qsr_core::SuspendPolicy;
use qsr_exec::{PlanSpec, QueryExecution};
use qsr_storage::{Column, DataType, Database, Encode, RunWriter, Schema, Tuple, Value};

fn nlj_spec() -> PlanSpec {
    PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 500)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 300,
    }
}

fn smj_spec() -> PlanSpec {
    PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::Sort {
            input: Box::new(sel_filter(scan("r"), 500)),
            key: 0,
            buffer_tuples: 250,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(scan("t")),
            key: 0,
            buffer_tuples: 150,
        }),
        left_key: 0,
        right_key: 0,
    }
}

fn hj_spec(hybrid: bool) -> PlanSpec {
    PlanSpec::HashJoin {
        build: Box::new(scan("s")),
        probe: Box::new(scan("r")),
        build_key: 0,
        probe_key: 0,
        partitions: 3,
        hybrid,
    }
}

fn policy_from(ix: u8, budget_frac: f64) -> SuspendPolicy {
    match ix % 4 {
        0 => SuspendPolicy::AllDump,
        1 => SuspendPolicy::AllGoBack,
        2 => SuspendPolicy::Optimized { budget: None },
        _ => SuspendPolicy::Optimized {
            budget: Some(budget_frac * 200.0),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs several full queries; keep it bounded
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_nlj_equivalence(op in 0u32..4, n in 1u64..2200, pol in 0u8..4, bf in 0.0f64..1.0) {
        let (_d, db) = test_db("prop-nlj");
        check_suspend_resume(&db, &nlj_spec(), after(op, n), &policy_from(pol, bf));
    }

    #[test]
    fn prop_smj_equivalence(op in 0u32..6, n in 1u64..2200, pol in 0u8..4, bf in 0.0f64..1.0) {
        let (_d, db) = test_db("prop-smj");
        check_suspend_resume(&db, &smj_spec(), after(op, n), &policy_from(pol, bf));
    }

    #[test]
    fn prop_hash_join_equivalence(
        n in 1u64..3000,
        pol in 0u8..4,
        hybrid in proptest::bool::ANY,
        bf in 0.0f64..1.0,
    ) {
        let (_d, db) = test_db("prop-hj");
        check_suspend_resume(&db, &hj_spec(hybrid), after(0, n), &policy_from(pol, bf));
    }
}

/// The bytes of page file `file` in the database directory `dir`.
fn file_bytes(dir: &std::path::Path, file: qsr_storage::FileId) -> Vec<u8> {
    std::fs::read(dir.join(format!("f{}.qsr", file.0))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// The external sort against a stable sort of `Tuple`s, on keys drawn
    /// from a small range so most are duplicates: the output is the
    /// stable order record for record, and every sublist it seals holds
    /// the bytes a run writer produces from that chunk of the input
    /// stable-sorted — what sorting owned rows and appending them wrote.
    #[test]
    fn prop_sort_matches_a_stable_sort_of_tuples(
        keys in proptest::collection::vec(0i64..6, 1..160),
        buffer in 1usize..24,
    ) {
        let dir = TempDir::new("prop-sort");
        let db = Database::open_default(&dir.0).unwrap();
        let schema = Schema::new(vec![
            Column::new("p.key", DataType::Int),
            Column::new("p.id", DataType::Int),
            Column::new("p.name", DataType::Str),
        ]);
        let rows: Vec<Tuple> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(vec![Value::Int(k), Value::Int(i as i64), Value::Str(format!("n{i}"))]))
            .collect();
        create_table(&db, "p", schema, &rows);
        let spec = PlanSpec::Sort { input: Box::new(scan("p")), key: 0, buffer_tuples: buffer };
        let stable = |rows: &[Tuple]| {
            let mut rows = rows.to_vec();
            rows.sort_by_key(|t| t.get(0).as_int().unwrap());
            rows.iter().map(Encode::encode_to_vec).collect::<Vec<_>>()
        };

        let out = run_baseline(&db, &spec);
        prop_assert_eq!(out.iter().map(Encode::encode_to_vec).collect::<Vec<_>>(), stable(&rows));

        // Park once the scan (op 1) has delivered every row: the sublists
        // sealed so far are on disk, in the order they were written.
        let mut exec = QueryExecution::start(db.clone(), spec).unwrap();
        exec.set_trigger(Some(after(1, rows.len() as u64)));
        let (prefix, done) = exec.run().unwrap();
        prop_assert!(prefix.is_empty() && !done);
        let parked = exec.suspend(&SuspendPolicy::AllDump).unwrap();
        prop_assert_eq!(parked.spill_files.len(), (rows.len() - 1) / buffer);
        for (chunk, &file) in rows.chunks(buffer).zip(&parked.spill_files) {
            let mut w = RunWriter::create(db.pool().clone()).unwrap();
            let mut sorted = chunk.to_vec();
            sorted.sort_by_key(|t| t.get(0).as_int().unwrap());
            sorted.iter().for_each(|t| w.append(t).unwrap());
            let expected = w.finish().unwrap().file;
            prop_assert_eq!(file_bytes(&dir.0, file), file_bytes(&dir.0, expected));
        }
    }
}
