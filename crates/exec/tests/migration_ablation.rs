//! Contract migration ablation (paper §3.4).
//!
//! Migration matters in two places the paper calls out:
//!
//! * **Sort** ("contract migration is crucial and done at every proactive
//!   contract"): without it, a GoBack enforced through a contract signed
//!   at the start of phase 1 redoes *every* sublist; with it, only the
//!   current buffer fill is redone.
//! * **Filter** (footnote 3): a very selective filter migrates the
//!   contract past the non-matching prefix, saving the matching tuple.
//!
//! Rather than toggling private operator flags, we observe migration's
//! effect through the public cost ledger: the resume cost after GoBack
//! stays bounded by the *current* buffer fill instead of the whole input
//! consumed so far.

mod common;

use common::*;
use qsr_core::SuspendPolicy;
use qsr_exec::{PlanSpec, QueryExecution};
use qsr_storage::Phase;

#[test]
fn sort_migration_caps_the_goback_redo_and_stays_correct_without_it() {
    use qsr_exec::BuildOptions;
    let (_d, db) = test_db("mig-sort");
    // An NLJ above the sort enforces the sort's incoming contract when it
    // goes back; the sort has flushed ~6 sublists by tick 1900.
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Sort {
            input: Box::new(scan("r")),
            key: 0,
            buffer_tuples: 300,
        }),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 500,
    };
    let expected = run_baseline(&db, &spec);

    let mut overheads = Vec::new();
    for migration in [true, false] {
        db.ledger().reset();
        let mut base = QueryExecution::start_with_build_options(
            db.clone(),
            spec.clone(),
            BuildOptions {
                contract_migration: migration,
            },
        )
        .unwrap();
        base.run_to_completion().unwrap();
        let baseline_cost = db.ledger().snapshot().total_cost();

        db.ledger().reset();
        let mut exec = QueryExecution::start_with_build_options(
            db.clone(),
            spec.clone(),
            BuildOptions {
                contract_migration: migration,
            },
        )
        .unwrap();
        // Suspend mid seventh sublist of the sort (op 1).
        exec.set_trigger(Some(after(1, 1900)));
        let (prefix, done) = exec.run().unwrap();
        assert!(!done);
        let handle = exec.suspend(&SuspendPolicy::AllGoBack).unwrap();
        let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap();
        let rest = resumed.run_to_completion().unwrap();

        // Correctness holds with or without migration.
        let mut all = prefix;
        all.extend(rest);
        assert_eq!(all, expected, "migration={migration}");

        let overhead = db.ledger().snapshot().total_cost() - baseline_cost;
        overheads.push(overhead);
    }
    let (with_mig, without_mig) = (overheads[0], overheads[1]);
    assert!(
        with_mig * 3.0 < without_mig,
        "migration should cut the GoBack redo dramatically: \
         with={with_mig}, without={without_mig}"
    );
}

#[test]
fn selective_filter_resume_skips_nonmatching_prefix() {
    let (_d, db) = test_db("mig-filter");
    // Selectivity 1%: long non-matching stretches between matches.
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(sel_filter(scan("r"), 10)),
        inner: Box::new(scan("t")),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 50,
    };
    // Verify equivalence at several suspend points that land right after
    // rare matches (where the migrated contract + saved tuple kick in).
    for n in [3u64, 9, 15] {
        check_suspend_resume(&db, &spec, after(0, n), &SuspendPolicy::AllGoBack);
    }

    // Cost check: suspend right after the NLJ consumed its 10th filtered
    // tuple (scan position ≈ 1000 rows in). GoBack resume must not
    // re-filter the whole prefix: the migrated contract anchors just past
    // the previous match.
    db.ledger().reset();
    let mut exec = QueryExecution::start(db.clone(), spec.clone()).unwrap();
    exec.set_trigger(Some(after(0, 10)));
    let (_, done) = exec.run().unwrap();
    assert!(!done);
    let handle = exec.suspend(&SuspendPolicy::AllGoBack).unwrap();
    let before = db.ledger().snapshot();
    let mut resumed = QueryExecution::resume(db.clone(), &handle).unwrap();
    let resume_pages = db
        .ledger()
        .snapshot()
        .since(&before)
        .phase(Phase::Resume)
        .pages_read;
    resumed.run_to_completion().unwrap();

    // The scan of r is ~24 pages at this row width; re-reading from the
    // last match touches only a few.
    assert!(
        resume_pages <= 8,
        "resume read {resume_pages} pages; migration should anchor near the \
         last match"
    );
}

#[test]
fn nlj_dry_batch_migrates_contract_forward() {
    // §3.4 case 1: an NLJ batch that produces no joining tuples lets the
    // incoming contract migrate to the newer checkpoint. Observable as
    // bounded resume cost when going back after several dry batches.
    let (_d, db) = test_db("mig-nlj");
    // Join r with itself shifted out of range: key equality against the
    // `sel` column makes most batches nearly dry but the plan still valid.
    let spec = PlanSpec::BlockNlj {
        outer: Box::new(scan("r")),
        inner: Box::new(scan("s")),
        outer_key: 0,
        inner_key: 1, // r.key vs s.sel: sparse matches
        buffer_tuples: 200,
    };
    for n in [150u64, 450, 1100] {
        check_suspend_resume(&db, &spec, after(0, n), &SuspendPolicy::AllGoBack);
    }
}
