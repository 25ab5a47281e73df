//! The core correctness property of the whole system (paper §3):
//! for any plan, any suspend point, and any valid suspend plan,
//!
//! ```text
//! run-to-completion output == pre-suspend output ++ post-resume output
//! ```
//!
//! tuple for tuple, in order. These tests sweep plans × suspend points ×
//! policies.

mod common;

use common::*;
use qsr_core::SuspendPolicy;
use qsr_exec::{AggFn, PlanSpec};

fn sweep(db: &std::sync::Arc<qsr_storage::Database>, spec: &PlanSpec, points: &[(u32, u64)]) {
    for &(op, n) in points {
        for policy in policies() {
            check_suspend_resume(db, spec, after(op, n), &policy);
        }
    }
}

#[test]
fn scan_only() {
    let (_d, db) = test_db("scan");
    let spec = scan("r");
    sweep(&db, &spec, &[(0, 1), (0, 500), (0, 1999)]);
}

#[test]
fn filter_over_scan() {
    let (_d, db) = test_db("filter");
    let spec = sel_filter(scan("r"), 300);
    // Trigger on the filter (op 0) and on the scan (op 1).
    sweep(&db, &spec, &[(0, 10), (0, 400), (1, 777)]);
}

#[test]
fn project_over_filter() {
    let (_d, db) = test_db("project");
    let spec = PlanSpec::Project {
        input: Box::new(sel_filter(scan("r"), 500)),
        columns: vec![0, 1],
    };
    sweep(&db, &spec, &[(1, 250), (2, 1500)]);
}

#[test]
fn nlj_s_plan() {
    // The paper's NLJ_S (Figure 6): NLJ(Filter(Scan R), Scan T).
    // Ids: 0=NLJ, 1=Filter, 2=ScanR, 3=ScanT.
    let (_d, db) = test_db("nljs");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 500)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 300,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 150),  // mid first fill (the Figure 8 suspend point)
            (0, 301),  // early in the second batch
            (0, 650),  // deep in a later batch
            (3, 137),  // mid inner scan (joining phase)
        ],
    );
}

#[test]
fn running_example_two_nljs() {
    // R ⋈ S ⋈ T (Figure 1): NLJ0(NLJ1(ScanR, ScanS), ScanT).
    // Ids: 0=NLJ0, 1=NLJ1, 2=ScanR, 3=ScanS, 4=ScanT.
    let (_d, db) = test_db("rst");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::BlockNlj {
            outer: Box::new(scan("r")),
            inner: Box::new(scan("s")),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 400,
        }),
        inner: Box::new(scan("t")),
        outer_key: 0, // r.key survives at column 0 of the NLJ1 output
        inner_key: 0,
        buffer_tuples: 100,
    };
    sweep(
        &db,
        &spec,
        &[
            (1, 200),  // NLJ1 mid-fill
            (0, 50),   // NLJ0 mid-fill (t5 of Figure 2)
            (4, 90),   // inner scan T mid-join
            (2, 1999), // scan R nearly done
        ],
    );
}

#[test]
fn sort_both_phases() {
    // Ids: 0=Sort, 1=ScanR.
    let (_d, db) = test_db("sort");
    let spec = PlanSpec::Sort {
        input: Box::new(scan("r")),
        key: 0,
        buffer_tuples: 300,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 150),  // phase 1, mid first sublist
            (0, 750),  // phase 1, mid third sublist
            (0, 1999), // phase 1, right at the end of intake
            (1, 1999), // scan-side trigger
        ],
    );
    // Phase 2: trigger after the sort has *consumed* everything cannot
    // fire on op 0's ticks (ticks count consumption), so drive a parent
    // that consumes output: filter with always-true predicate.
    let spec2 = sel_filter(
        PlanSpec::Sort {
            input: Box::new(scan("r")),
            key: 0,
            buffer_tuples: 300,
        },
        1000,
    );
    // Ids: 0=Filter, 1=Sort, 2=Scan. Filter ticks on consumed tuples, so
    // these land mid-merge.
    sweep(&db, &spec2, &[(0, 1), (0, 555), (0, 1998)]);
}

/// What the merge phase computed when it scanned every head for the
/// minimum: `runs` merged by repeatedly taking the first head no other
/// head is strictly smaller than — of equal keys, the lowest run's.
fn linear_scan_merge(runs: Vec<Vec<qsr_storage::Tuple>>) -> Vec<qsr_storage::Tuple> {
    let key = |t: &qsr_storage::Tuple| t.get(0).as_int().unwrap();
    let mut runs: Vec<_> = runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    let mut out = Vec::new();
    loop {
        let mut best: Option<(usize, i64)> = None;
        for (i, run) in runs.iter_mut().enumerate() {
            if let Some(k) = run.peek().map(key) {
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        match best {
            Some((i, _)) => out.extend(runs[i].next()),
            None => return out,
        }
    }
}

/// The whole sort by that reference: sublists of `buffer` rows, passes
/// over groups of `fanin` runs while more than `fanin` remain (0 = no
/// cap), then the final merge.
fn reference_sort(
    rows: &[qsr_storage::Tuple],
    buffer: usize,
    fanin: usize,
) -> Vec<qsr_storage::Tuple> {
    let mut runs: Vec<Vec<_>> = rows
        .chunks(buffer)
        .map(|c| {
            let mut run = c.to_vec();
            run.sort_by_key(|t| t.get(0).as_int().unwrap());
            run
        })
        .collect();
    while fanin > 0 && runs.len() > fanin {
        runs = runs
            .chunks(fanin)
            .map(|group| linear_scan_merge(group.to_vec()))
            .collect();
    }
    linear_scan_merge(runs)
}

#[test]
fn dup_heavy_sort_merges_in_the_linear_scan_order() {
    // 80 % of `dh`'s keys are one value, so nearly every pick of the merge
    // is a tie that only the run order decides. Nine sublists: the final
    // merge alone, and under a fan-in of 2 three passes before it.
    use qsr_workload::{generate_table, KeyDist, TableSpec};
    let (_d, db) = test_db("sort-dup");
    let spec = TableSpec::new("dh", 1100).payload(8).dist(KeyDist::DupHeavy).seed(4);
    generate_table(&db, &spec).unwrap();
    let rows = run_baseline(&db, &scan("dh"));
    let sort = |fanin| PlanSpec::MemoryBudget {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(scan("dh")),
            key: 0,
            buffer_tuples: 128,
        }),
        mem_budget: 0,
        merge_fanin: fanin,
    };
    let dump_and_goback = [SuspendPolicy::AllDump, SuspendPolicy::AllGoBack];
    for fanin in [0, 2] {
        let expect = reference_sort(&rows, 128, fanin);
        assert_eq!(run_baseline(&db, &sort(fanin)), expect, "fan-in {fanin}");
        // Suspends in the middle of the final merge (an always-true filter
        // on top ticks per merged row) and, for the capped sort, in the
        // middle of a pass group (the sort ticks per row a pass merges).
        // Ids: 0=Filter, 1=Sort, 2=Scan.
        let consumed = sel_filter(sort(fanin), 1000);
        let mut points = vec![after(0, 1), after(0, 640), after(0, 1000)];
        if fanin > 0 {
            points.extend([after(1, 1100 + 130), after(1, 1100 + 1100 + 300)]);
        }
        for trigger in points {
            for policy in &dump_and_goback {
                let (before, total) = check_suspend_resume(&db, &consumed, trigger.clone(), policy);
                assert!(before < total, "{trigger:?} must land before the end");
            }
        }
        assert_eq!(run_baseline(&db, &consumed), expect, "fan-in {fanin}, under a filter");
    }
}

#[test]
fn smj_s_plan() {
    // The paper's SMJ_S (Figure 7): MJ(Sort(Filter(Scan R)), Sort(Scan T)).
    // Ids: 0=MJ, 1=SortL, 2=Filter, 3=ScanR, 4=SortR, 5=ScanT.
    let (_d, db) = test_db("smjs");
    let spec = PlanSpec::MergeJoin {
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
    };
    sweep(
        &db,
        &spec,
        &[
            (1, 125), // left sort mid-buffer (the Figure 9 suspend point)
            (4, 300), // right sort mid-buffer
            (0, 77),  // merge join mid-advance
            (0, 350), // merge join later
        ],
    );
}

#[test]
fn simple_hash_join() {
    // Ids: 0=HJ, 1=ScanS(build), 2=ScanR(probe).
    let (_d, db) = test_db("shj");
    let spec = PlanSpec::HashJoin {
        build: Box::new(scan("s")),
        probe: Box::new(scan("r")),
        build_key: 0,
        probe_key: 0,
        partitions: 4,
        hybrid: false,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 100),  // build partitioning
            (0, 1000), // probe partitioning
            (0, 2400), // join phase
        ],
    );
}

#[test]
fn hybrid_hash_join() {
    let (_d, db) = test_db("hhj");
    let spec = PlanSpec::HashJoin {
        build: Box::new(scan("s")),
        probe: Box::new(scan("r")),
        build_key: 0,
        probe_key: 0,
        partitions: 3,
        hybrid: true,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 100),  // build phase (partition 0 table growing)
            (0, 900),  // probe phase (emitting on the fly)
            (0, 2500), // join phase
        ],
    );
}

#[test]
fn index_nlj_plan() {
    // Ids: 0=IndexNLJ, 1=Filter, 2=ScanR; inner table t via index.
    let (_d, db) = test_db("inlj");
    let spec = PlanSpec::IndexNlj {
        outer: Box::new(sel_filter(scan("r"), 400)),
        inner_table: "t".into(),
        outer_key: 0,
        inner_key: 0,
    };
    sweep(&db, &spec, &[(0, 50), (0, 399), (2, 1500)]);
}

#[test]
fn aggregate_over_sort() {
    // Ids: 0=StreamAgg, 1=Sort, 2=ScanR. Group by sel bucket is too fine;
    // group on key%... simply aggregate over `sel` sorted by sel.
    let (_d, db) = test_db("agg");
    let spec = PlanSpec::StreamAgg {
        input: Box::new(PlanSpec::Sort {
            input: Box::new(scan("r")),
            key: 1, // sel column
            buffer_tuples: 400,
        }),
        group_col: Some(1),
        agg_col: 0,
        func: AggFn::Count,
    };
    sweep(&db, &spec, &[(0, 321), (1, 999), (0, 1998)]);
}

#[test]
fn distinct_over_sort() {
    // Ids: 0=Distinct, 1=Project, 2=Sort, 3=ScanR.
    let (_d, db) = test_db("distinct");
    let spec = PlanSpec::Distinct {
        input: Box::new(PlanSpec::Project {
            input: Box::new(PlanSpec::Sort {
                input: Box::new(scan("r")),
                key: 1,
                buffer_tuples: 500,
            }),
            columns: vec![1],
        }),
    };
    sweep(&db, &spec, &[(0, 400), (2, 1200)]);
}

#[test]
fn complex_plan_mixed_operators() {
    // A bushy plan mixing NLJ, MJ, sorts, and filters — the shape of the
    // paper's Figure 11 ten-operator plan.
    // NLJ(MJ(Sort(Filter(ScanR)), Sort(ScanS)), ScanT)
    // Ids: 0=NLJ, 1=MJ, 2=SortL, 3=Filter, 4=ScanR, 5=SortR, 6=ScanS, 7=ScanT.
    let (_d, db) = test_db("complex");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::MergeJoin {
            left: Box::new(PlanSpec::Sort {
                input: Box::new(sel_filter(scan("r"), 300)),
                key: 0,
                buffer_tuples: 200,
            }),
            right: Box::new(PlanSpec::Sort {
                input: Box::new(scan("s")),
                key: 0,
                buffer_tuples: 200,
            }),
            left_key: 0,
            right_key: 0,
        }),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 120,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 60),  // NLJ mid-fill
            (1, 150), // MJ mid-stream
            (2, 130), // left sort phase 1
            (7, 55),  // inner scan mid-join
        ],
    );
}

#[test]
fn resuspend_after_resume() {
    // Suspend, resume, run a little, suspend again, resume again (§3.3,
    // "Suspend During or After Resume" — the graph is persisted, so the
    // second suspension has full flexibility).
    let (_d, db) = test_db("resuspend");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 500)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 300,
    };
    let baseline = run_baseline(&db, &spec);

    for policy in policies() {
        let mut exec = qsr_exec::QueryExecution::start(db.clone(), spec.clone()).unwrap();
        exec.set_trigger(Some(after(0, 150)));
        let (p1, done) = exec.run().unwrap();
        assert!(!done);
        let h1 = exec.suspend(&policy).unwrap();

        let mut exec = qsr_exec::QueryExecution::resume(db.clone(), &h1).unwrap();
        exec.set_trigger(Some(after(0, 200))); // fires again later
        let (p2, done) = exec.run().unwrap();
        if done {
            let mut all = p1.clone();
            all.extend(p2);
            assert_eq!(all, baseline);
            continue;
        }
        let h2 = exec.suspend(&policy).unwrap();

        let mut exec = qsr_exec::QueryExecution::resume(db.clone(), &h2).unwrap();
        let p3 = exec.run_to_completion().unwrap();

        let mut all = p1.clone();
        all.extend(p2);
        all.extend(p3);
        assert_eq!(all.len(), baseline.len(), "policy {policy:?}");
        assert_eq!(all, baseline, "policy {policy:?}");
    }
}

#[test]
fn suspend_costs_reflect_strategies() {
    use qsr_storage::Phase;
    // GoBack must beat Dump on suspend-time cost when the buffer is full;
    // the suspended-query blob itself is small.
    let (_d, db) = test_db("costs");
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(scan("r")),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 1000,
    };

    let mut dump_suspend_cost = 0.0;
    let mut goback_suspend_cost = 0.0;
    for (policy, out) in [
        (SuspendPolicy::AllDump, &mut dump_suspend_cost),
        (SuspendPolicy::AllGoBack, &mut goback_suspend_cost),
    ] {
        let mut exec = qsr_exec::QueryExecution::start(db.clone(), spec.clone()).unwrap();
        exec.set_trigger(Some(after(0, 900))); // buffer 90% full
        let (_, done) = exec.run().unwrap();
        assert!(!done);
        let before = db.ledger().snapshot();
        let handle = exec.suspend(&policy).unwrap();
        let delta = db.ledger().snapshot().since(&before);
        *out = delta.phase_cost(Phase::Suspend);
        // Resume still works.
        let mut resumed = qsr_exec::QueryExecution::resume(db.clone(), &handle).unwrap();
        resumed.run_to_completion().unwrap();
    }
    assert!(
        goback_suspend_cost < dump_suspend_cost / 2.0,
        "goback suspend ({goback_suspend_cost}) should be far cheaper than dump \
         ({dump_suspend_cost})"
    );
}

#[test]
fn hash_aggregate_all_phases() {
    // Ids: 0=HashAgg, 1=ScanR.
    let (_d, db) = test_db("hashagg");
    let spec = PlanSpec::HashAgg {
        input: Box::new(scan("r")),
        group_col: 1, // sel column: ~1000 groups
        agg_col: 0,
        func: AggFn::Count,
        partitions: 4,
    };
    sweep(
        &db,
        &spec,
        &[
            (0, 500),  // partitioning phase
            (0, 1999), // end of intake
            (0, 2400), // emission phase (ticks counted during intake only,
                       // so drive via a consuming parent below)
        ],
    );
    // Mid-emission suspension: drive through an always-true filter parent
    // whose ticks count consumed aggregate rows.
    let spec2 = sel_filter(
        PlanSpec::HashAgg {
            input: Box::new(scan("r")),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Sum,
            partitions: 3,
        },
        // Aggregate schema is (group, agg); filter on col 0 < huge passes all.
        i64::MAX,
    );
    // ids: 0=Filter, 1=HashAgg, 2=Scan. Rebuild predicate col: the filter's
    // predicate references column 1 (agg) — always true for IntLt MAX.
    sweep(&db, &spec2, &[(0, 5), (0, 300), (0, 700)]);
}
