//! `exec_uninterrupted`: rounds of four plans run to completion with no
//! suspend anywhere. The executor and the storage read/spill path do all
//! the work; the suspend path, the optimizer and the scheduler do none, so
//! a change to those must leave this workload where it was.

use super::run_plan;
use crate::config;
use crate::fixture::{self, filtered_facts, scan, LedgerTally, Report, RunCx};
use crate::trace::Tracer;
use qsr_exec::{AggFn, PlanSpec};
use qsr_storage::{Database, Result, Tuple};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The round: span name and plan of each of its four queries.
fn plans() -> Vec<(&'static str, PlanSpec)> {
    let join = |hybrid| PlanSpec::HashJoin {
        build: scan("dim"),
        probe: scan("facts"),
        build_key: 0,
        probe_key: 0,
        partitions: config::HASH_PARTITIONS,
        hybrid,
    };
    vec![
        ("exec.scan_agg", scan_agg()),
        ("exec.hash_join", join(true)),
        (
            "exec.sort",
            PlanSpec::Sort {
                input: scan("facts"),
                key: 0,
                buffer_tuples: config::EXEC_SORT_BUFFER,
            },
        ),
        (
            "exec.grace_join",
            PlanSpec::MemoryBudget {
                input: Box::new(join(false)),
                mem_budget: config::GRACE_MEM_BUDGET,
                merge_fanin: config::GRACE_MERGE_FANIN,
            },
        ),
    ]
}

fn scan_agg() -> PlanSpec {
    PlanSpec::HashAgg {
        input: filtered_facts(config::AGG_FILTER_PERMILLE),
        group_col: 1,
        agg_col: 0,
        func: AggFn::Count,
        partitions: config::HASH_PARTITIONS,
    }
}

/// One op: the four plans back to back under a `bench.job` span. A plan
/// that errors leaves `None` in its place.
fn round(
    tr: &mut Tracer,
    db: &Arc<Database>,
    plans: &[(&'static str, PlanSpec)],
    op: u64,
) -> (Vec<Option<Vec<Tuple>>>, Duration) {
    let span = tr.enter("bench.job", op);
    let outputs = plans
        .iter()
        .map(
            |(name, plan)| match run_plan(tr, db, name, op, plan, config::BATCH_SIZE) {
                Ok((out, _)) => Some(out),
                Err(e) => {
                    eprintln!("exec_uninterrupted: {name} failed: {e}");
                    None
                }
            },
        )
        .collect();
    (outputs, tr.exit(span).elapsed)
}

/// Run the workload.
pub fn run(cx: &mut RunCx) -> Result<Report> {
    let mut report = Report::default();
    let plans = plans();
    let (fixture, reference) = fixture::setup(cx, &mut report, 0, |db| {
        Ok(round(&mut Tracer::new(false), db, &plans, 0).0)
    })?;
    let (db, reference) = (&fixture.db, &reference);
    if reference.iter().any(Option::is_none) {
        return Err(qsr_storage::StorageError::invalid("reference round failed"));
    }

    let mut tally = LedgerTally::default();
    let clock = Instant::now();
    let mut rounds = 0;
    while rounds < config::EXEC_MIN_ROUNDS || clock.elapsed() < cx.measure {
        let op = rounds as u64 + 1;
        let before = db.ledger().snapshot();
        let (outputs, elapsed) = round(&mut cx.tracer, db, &plans, op);
        if rounds < config::EXEC_MIN_ROUNDS {
            tally.add(&db.ledger().snapshot().since(&before), 1);
        }
        report.attempted += 1;
        report.failed += u64::from(&outputs != reference);
        report.op_ms.push(elapsed.as_secs_f64() * 1e3);
        report.job(
            outputs.iter().flatten().map(|o| o.len() as u64).sum(),
            elapsed,
        );
        if cx.tracer.enabled() {
            // Layer probes outside the op: a bare scan (the floor under
            // every plan) and the aggregate again on the batch path.
            run_plan(
                &mut cx.tracer,
                db,
                "exec.scan",
                op,
                &scan("facts"),
                config::BATCH_SIZE,
            )?;
            run_plan(
                &mut cx.tracer,
                db,
                "exec.batch_scan_agg",
                op,
                &scan_agg(),
                config::PROBE_BATCH_SIZE,
            )?;
        }
        rounds += 1;
    }

    let tr = &cx.tracer;
    if tr.enabled() {
        tally.report(&mut report.layers);
        for (metric, span) in [
            ("exec.scan_ms", "exec.scan"),
            ("exec.scan_agg_ms", "exec.scan_agg"),
            ("exec.hash_join_ms", "exec.hash_join"),
            ("exec.sort_ms", "exec.sort"),
            ("exec.grace_join_ms", "exec.grace_join"),
            ("exec.batch_scan_agg_ms", "exec.batch_scan_agg"),
            ("exec.start_ms_p50", "exec.start"),
        ] {
            let d = tr.durations_ms(span);
            report.layers.set(metric, d.p50(), d.len());
        }
    }
    Ok(report)
}
