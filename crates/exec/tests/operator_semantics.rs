//! Plain relational correctness of every operator (no suspension): each
//! physical operator's output is checked against a naive in-memory oracle
//! over the same generated data.

mod common;

use common::*;
use qsr_exec::{AggFn, PlanSpec};
use qsr_storage::{Tuple, ValueRef};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn all_rows(db: &Arc<qsr_storage::Database>, table: &str) -> Vec<Tuple> {
    run_baseline(db, &scan(table))
}

fn key_of(t: &Tuple) -> i64 {
    t.get(0).as_int().unwrap()
}

fn sel_of(t: &Tuple) -> i64 {
    t.get(1).as_int().unwrap()
}

/// Naive equi-join of two tuple sets on their key columns, as multiset of
/// (outer key, inner key) string signatures.
fn naive_join_multiset(outer: &[Tuple], inner: &[Tuple]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for o in outer {
        for i in inner {
            if key_of(o) == key_of(i) {
                let sig = format!("{o}|{i}");
                *out.entry(sig).or_insert(0) += 1;
            }
        }
    }
    out
}

fn multiset(tuples: &[Tuple], outer_arity: usize) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for t in tuples {
        let o = t.project(&(0..outer_arity).collect::<Vec<_>>());
        let i = t.project(&(outer_arity..t.arity()).collect::<Vec<_>>());
        let sig = format!("{o}|{i}");
        *out.entry(sig).or_insert(0) += 1;
    }
    out
}

#[test]
fn filter_selectivity_is_exact_fractionally() {
    let (_d, db) = test_db("sem-filter");
    let total = all_rows(&db, "r").len();
    for threshold in [0i64, 100, 500, 1000] {
        let got = run_baseline(&db, &sel_filter(scan("r"), threshold)).len();
        let expected = all_rows(&db, "r")
            .iter()
            .filter(|t| sel_of(t) < threshold)
            .count();
        assert_eq!(got, expected, "threshold {threshold}");
        if threshold == 1000 {
            assert_eq!(got, total);
        }
    }
}

#[test]
fn block_nlj_matches_naive_join() {
    let (_d, db) = test_db("sem-nlj");
    let r: Vec<Tuple> = all_rows(&db, "r")
        .into_iter()
        .filter(|t| sel_of(t) < 500)
        .collect();
    let t_rows = all_rows(&db, "t");
    let expected = naive_join_multiset(&r, &t_rows);

    let spec = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 500)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 300,
    };
    let got = run_baseline(&db, &spec);
    assert_eq!(multiset(&got, 3), expected);
}

#[test]
fn merge_join_equals_block_nlj() {
    let (_d, db) = test_db("sem-mj");
    let nlj = PlanSpec::BlockNlj {
        outer: Box::new(scan("s")),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 250,
    };
    let mj = PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::Sort {
            input: Box::new(scan("s")),
            key: 0,
            buffer_tuples: 100,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(scan("t")),
            key: 0,
            buffer_tuples: 100,
        }),
        left_key: 0,
        right_key: 0,
    };
    let a = multiset(&run_baseline(&db, &nlj), 3);
    let b = multiset(&run_baseline(&db, &mj), 3);
    assert_eq!(a, b);
}

#[test]
fn hash_joins_equal_block_nlj() {
    let (_d, db) = test_db("sem-hj");
    let nlj = PlanSpec::BlockNlj {
        outer: Box::new(scan("s")),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 250,
    };
    let expected = multiset(&run_baseline(&db, &nlj), 3);
    for hybrid in [false, true] {
        let hj = PlanSpec::HashJoin {
            build: Box::new(scan("s")),
            probe: Box::new(scan("t")),
            build_key: 0,
            probe_key: 0,
            partitions: 4,
            hybrid,
        };
        let got = multiset(&run_baseline(&db, &hj), 3);
        assert_eq!(got, expected, "hybrid={hybrid}");
    }
}

#[test]
fn index_nlj_equals_block_nlj() {
    let (_d, db) = test_db("sem-inlj");
    let nlj = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 400)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 500,
    };
    let inlj = PlanSpec::IndexNlj {
        outer: Box::new(sel_filter(scan("r"), 400)),
        inner_table: "t".into(),
        outer_key: 0,
        inner_key: 0,
    };
    let a = multiset(&run_baseline(&db, &nlj), 3);
    let b = multiset(&run_baseline(&db, &inlj), 3);
    assert_eq!(a, b);
}

#[test]
fn sort_produces_sorted_permutation() {
    let (_d, db) = test_db("sem-sort");
    let spec = PlanSpec::Sort {
        input: Box::new(scan("r")),
        key: 0,
        buffer_tuples: 123, // force many sublists
    };
    let got = run_baseline(&db, &spec);
    let mut expected = all_rows(&db, "r");
    expected.sort_by_key(key_of);
    assert_eq!(got.len(), expected.len());
    assert!(got.windows(2).all(|w| key_of(&w[0]) <= key_of(&w[1])));
    let a: BTreeSet<String> = got.iter().map(|t| t.to_string()).collect();
    let b: BTreeSet<String> = expected.iter().map(|t| t.to_string()).collect();
    assert_eq!(a, b);
}

#[test]
fn stream_agg_counts_groups() {
    let (_d, db) = test_db("sem-agg");
    let spec = PlanSpec::StreamAgg {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(scan("r")),
            key: 1,
            buffer_tuples: 400,
        }),
        group_col: Some(1),
        agg_col: 0,
        func: AggFn::Count,
    };
    let got = run_baseline(&db, &spec);
    let mut expected: BTreeMap<i64, i64> = BTreeMap::new();
    for t in all_rows(&db, "r") {
        *expected.entry(sel_of(&t)).or_insert(0) += 1;
    }
    assert_eq!(got.len(), expected.len());
    for t in got {
        let g = t.get(0).as_int().unwrap();
        let c = t.get(1).as_int().unwrap();
        assert_eq!(expected[&g], c, "group {g}");
    }
}

#[test]
fn stream_agg_min_max_sum() {
    let (_d, db) = test_db("sem-agg2");
    let rows = all_rows(&db, "s");
    for (func, expected) in [
        (AggFn::Sum, rows.iter().map(key_of).sum::<i64>()),
        (AggFn::Min, rows.iter().map(key_of).min().unwrap()),
        (AggFn::Max, rows.iter().map(key_of).max().unwrap()),
        (AggFn::Count, rows.len() as i64),
    ] {
        let spec = PlanSpec::StreamAgg {
            input: Box::new(scan("s")),
            group_col: None,
            agg_col: 0,
            func,
        };
        let got = run_baseline(&db, &spec);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(0), ValueRef::Int(expected), "{func:?}");
    }
}

#[test]
fn distinct_eliminates_duplicates() {
    let (_d, db) = test_db("sem-distinct");
    let spec = PlanSpec::Distinct {
        input: Box::new(PlanSpec::Project {
            input: Box::new(PlanSpec::Sort {
                input: Box::new(scan("r")),
                key: 1,
                buffer_tuples: 300,
            }),
            columns: vec![1],
        }),
    };
    let got = run_baseline(&db, &spec);
    let expected: BTreeSet<i64> = all_rows(&db, "r").iter().map(sel_of).collect();
    assert_eq!(got.len(), expected.len());
    let got_set: BTreeSet<i64> = got.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    assert_eq!(got_set, expected);
}

#[test]
fn project_reorders_columns() {
    let (_d, db) = test_db("sem-project");
    let spec = PlanSpec::Project {
        input: Box::new(scan("s")),
        columns: vec![1, 0],
    };
    let got = run_baseline(&db, &spec);
    let expected = all_rows(&db, "s");
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.get(0), e.get(1));
        assert_eq!(g.get(1), e.get(0));
    }
}

#[test]
fn three_way_join_matches_oracle() {
    let (_d, db) = test_db("sem-3way");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::BlockNlj {
            outer: Box::new(scan("r")),
            inner: Box::new(scan("s")),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 700,
        }),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 300,
    };
    let got = run_baseline(&db, &spec);
    // Oracle: keys present in all three tables (keys are unique per table).
    let rk: BTreeSet<i64> = all_rows(&db, "r").iter().map(key_of).collect();
    let sk: BTreeSet<i64> = all_rows(&db, "s").iter().map(key_of).collect();
    let tk: BTreeSet<i64> = all_rows(&db, "t").iter().map(key_of).collect();
    let expected: BTreeSet<i64> = rk
        .intersection(&sk)
        .copied()
        .collect::<BTreeSet<_>>()
        .intersection(&tk)
        .copied()
        .collect();
    assert_eq!(got.len(), expected.len());
    let got_keys: BTreeSet<i64> = got.iter().map(key_of).collect();
    assert_eq!(got_keys, expected);
}

#[test]
fn empty_inputs_are_handled() {
    let (_d, db) = test_db("sem-empty");
    // A filter that passes nothing.
    let empty = sel_filter(scan("r"), 0);
    assert_eq!(run_baseline(&db, &empty).len(), 0);

    let nlj = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 0)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 100,
    };
    assert_eq!(run_baseline(&db, &nlj).len(), 0);

    let sort = PlanSpec::Sort {
        input: Box::new(sel_filter(scan("r"), 0)),
        key: 0,
        buffer_tuples: 100,
    };
    assert_eq!(run_baseline(&db, &sort).len(), 0);

    let mj = PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::Sort {
            input: Box::new(sel_filter(scan("r"), 0)),
            key: 0,
            buffer_tuples: 100,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(scan("t")),
            key: 0,
            buffer_tuples: 100,
        }),
        left_key: 0,
        right_key: 0,
    };
    assert_eq!(run_baseline(&db, &mj).len(), 0);

    let hj = PlanSpec::HashJoin {
        build: Box::new(sel_filter(scan("r"), 0)),
        probe: Box::new(scan("t")),
        build_key: 0,
        probe_key: 0,
        partitions: 3,
        hybrid: false,
    };
    assert_eq!(run_baseline(&db, &hj).len(), 0);
}

#[test]
fn hash_agg_equals_stream_agg() {
    let (_d, db) = test_db("sem-hashagg");
    let stream = PlanSpec::StreamAgg {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(scan("r")),
            key: 1,
            buffer_tuples: 500,
        }),
        group_col: Some(1),
        agg_col: 0,
        func: AggFn::Sum,
    };
    let hash = PlanSpec::HashAgg {
        input: Box::new(scan("r")),
        group_col: 1,
        agg_col: 0,
        func: AggFn::Sum,
        partitions: 4,
    };
    let a: BTreeMap<i64, i64> = run_baseline(&db, &stream)
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    let b: BTreeMap<i64, i64> = run_baseline(&db, &hash)
        .iter()
        .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
        .collect();
    assert_eq!(a, b);
}
