//! `cycle_dump` and `cycle_goback`: one query, interrupted at seeded
//! points and run to completion, under two suspend policies that drive the
//! same layers in opposite directions.
//!
//! The query is the paper's SMJ_S shape: `MergeJoin(Sort(Filter(facts)),
//! Sort(dim))` with sort buffers larger than their inputs, so both sorts
//! hold heap state that grows until the merge starts. With
//! `Optimized{budget: None}` the optimizer dumps it all (suspend writes up
//! to ~140 pages, resume reads them back); with a budget of a tenth of
//! that it goes back instead (suspend writes one page, resume re-executes
//! from the sorts' checkpoints). One op is one suspend+resume cycle, timed
//! from the `suspend_with` call to the runnable resumed execution: how
//! long one interruption stops the query. The suspend alone — the paper's
//! *suspend time* — is the per-layer `suspend_ms_p50`; everything a cycle
//! costs the query, redo after the resume included, shows in
//! `tuples_per_s`, the paper's *total overhead*. Suspends go to the RAM
//! backend ([`config::CYCLE_BACKEND`] says why).

use super::run_plan;
use crate::config;
use crate::fixture::{self, filtered_facts, scan, LedgerTally, Report, RunCx};
use crate::stats::{ratio, Samples};
use crate::trace::Tracer;
use qsr_core::{OpId, Strategy, SuspendPolicy, SuspendedQuery};
use qsr_exec::{PlanSpec, QueryExecution, Rung, SuspendedHandle};
use qsr_storage::{
    pages_for_bytes, splitmix64, BackendKind, Database, Decode, Result, StorageError, Tuple,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn query() -> PlanSpec {
    let sort = |input| {
        Box::new(PlanSpec::Sort {
            input,
            key: 0,
            buffer_tuples: config::CYCLE_SORT_BUFFER,
        })
    };
    PlanSpec::MergeJoin {
        left: sort(filtered_facts(config::CYCLE_FILTER_PERMILLE)),
        right: sort(scan("dim")),
        left_key: 0,
        right_key: 0,
    }
}

/// The uninterrupted run: what an interrupted query must deliver, and how
/// many work units it takes, which suspend points are fractions of.
struct Reference {
    output: Vec<Tuple>,
    work_units: u64,
}

/// Suspend points of query `q`, as work units of the reference run: one
/// per stratum `[k/n, (k+1)/n)`, all at the same offset within it. The
/// queries of a block take equally spaced offsets, so a block's points are
/// equally spaced over the query's lifetime and every block does the same
/// work up to one phase; the phase walks the golden-ratio sequence from a
/// seeded start.
fn suspend_points(seed: u64, q: usize, n: usize, work_units: u64) -> Vec<u64> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let (block, slot) = (
        q / config::CYCLE_BLOCK_QUERIES,
        q % config::CYCLE_BLOCK_QUERIES,
    );
    let start = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let phase = (start + block as f64 * GOLDEN).fract();
    let offset = (slot as f64 + phase) / config::CYCLE_BLOCK_QUERIES as f64;
    (0..n)
        .map(|k| {
            let at = (k as f64 + offset) / n as f64 * work_units as f64;
            (at as u64).clamp(1, work_units.saturating_sub(1).max(1))
        })
        .collect()
}

/// What the suspends of a run chose and cost (gathered with tracing on).
#[derive(Default)]
struct SuspendTally {
    suspends: u64,
    requested_rung: u64,
    stateful_ops: u64,
    dumped_ops: u64,
    nodes: u64,
    pivots: u64,
    budget_exhausted: u64,
    est_cost: f64,
    dump_pages: u64,
    dump_bytes: u64,
}

impl SuspendTally {
    /// Note what the suspend behind `h` chose for the operators that were
    /// `holding` heap state, and what it wrote: the `SuspendedQuery` blob
    /// and the dump blobs it names (the RAM backend charges no ledger, so
    /// the sizes are read off the blobs).
    fn add(&mut self, db: &Database, h: &SuspendedHandle, holding: &[OpId]) -> Result<()> {
        let sq = SuspendedQuery::decode_from_slice(&db.backend().get_blob(h.blob)?)?;
        for blob in sq
            .records
            .values()
            .filter_map(|r| r.heap_dump)
            .chain([h.blob])
        {
            self.dump_bytes += blob.len;
            self.dump_pages += pages_for_bytes(blob.len as usize) as u64;
        }
        self.suspends += 1;
        self.requested_rung += u64::from(h.rung == Rung::Requested);
        self.stateful_ops += holding.len() as u64;
        self.dumped_ops += holding
            .iter()
            .filter(|op| h.report.plan.get(**op) == Strategy::Dump)
            .count() as u64;
        self.nodes += h.report.stats.nodes as u64;
        self.pivots += h.report.stats.pivots as u64;
        self.budget_exhausted += u64::from(h.report.stats.budget_exhausted);
        self.est_cost += h.report.est_suspend_cost;
        Ok(())
    }
}

/// Outcome of one interrupted query.
#[derive(Default)]
struct Interrupted {
    cycles: u64,
    failed_cycles: u64,
    output: Vec<Tuple>,
    finished: bool,
    /// Time inside `suspend_with` and `resume`, all cycles together.
    stopped: Duration,
    elapsed: Duration,
}

struct Runner<'a> {
    db: &'a Arc<Database>,
    plan: PlanSpec,
    policy: &'a SuspendPolicy,
    tally: SuspendTally,
}

impl Runner<'_> {
    /// Run the query, suspending and resuming at each of `points`.
    fn interrupted(&mut self, tr: &mut Tracer, points: &[u64], op: u64) -> Interrupted {
        let mut out = Interrupted::default();
        let span = tr.enter("bench.job", op);
        if let Err(e) = self.drive(tr, points, op, &mut out) {
            eprintln!("cycle: query {op} abandoned: {e}");
        }
        out.elapsed = tr.exit(span).elapsed;
        out
    }

    fn drive(
        &mut self,
        tr: &mut Tracer,
        points: &[u64],
        op: u64,
        out: &mut Interrupted,
    ) -> Result<()> {
        let options = config::suspend_options();
        let span = tr.enter("exec.start", op);
        let started = QueryExecution::start(self.db.clone(), self.plan.clone());
        tr.exit(span);
        let mut exec = started?;
        exec.set_batch_size(config::BATCH_SIZE);
        let mut reached = 0;
        for &point in points {
            // Work units restart at 0 in a resumed execution and the eager
            // GoBack redo has already ticked some: count from where the
            // resume left the counter, so a point can never fire inside
            // the redo and every segment advances.
            let limit = exec.work_units() + (point - reached).max(1);
            exec.set_work_unit_observer(Some(Box::new(move |_, seq| seq >= limit)));
            let span = tr.enter("exec.segment", op);
            let ran = exec.run();
            tr.exit(span);
            let (tuples, done) = ran?;
            out.output.extend(tuples);
            if done {
                // The query ended before a planned point: the workload has
                // drifted from its reference. The missed cycles failed.
                out.finished = true;
                out.cycles += 1;
                out.failed_cycles += 1;
                return Ok(());
            }
            out.cycles += 1;
            let advanced = exec.work_units() >= limit;
            // With tracing on, note which operators hold heap state now
            // (the optimizer's own inputs), to see what it does with them.
            let holding: Option<Vec<OpId>> = tr.enabled().then(|| {
                let problem = exec.suspend_problem();
                let holds = problem.inputs.iter().filter(|(_, i)| i.heap_bytes > 0);
                holds.map(|(op, _)| *op).collect()
            });

            let span = tr.enter("exec.suspend", op);
            let suspended = exec.suspend_with(self.policy, &options);
            let closed = tr.exit(span);
            let handle = suspended.inspect_err(|_| out.failed_cycles += 1)?;
            tr.reported_child(&closed, "core.optimize", handle.report.elapsed);
            out.stopped += closed.elapsed;
            if let Some(holding) = holding {
                self.tally.add(self.db, &handle, &holding)?;
            }

            let span = tr.enter("exec.resume", op);
            let resumed = QueryExecution::resume(self.db.clone(), &handle);
            out.stopped += tr.exit(span).elapsed;
            exec = resumed.inspect_err(|_| out.failed_cycles += 1)?;
            exec.set_batch_size(config::BATCH_SIZE);
            out.failed_cycles += u64::from(!advanced);
            reached = point;
        }
        let span = tr.enter("exec.segment", op);
        let ran = exec.run();
        tr.exit(span);
        let (tuples, done) = ran?;
        out.output.extend(tuples);
        out.finished = done;
        Ok(())
    }
}

/// Run the workload with `points` suspends per query under `policy`.
pub fn run(cx: &mut RunCx, points: usize, policy: &SuspendPolicy) -> Result<Report> {
    let mut report = Report::default();
    let plan = query();
    let (fixture, reference) = fixture::setup(cx, &mut report, 0, |db| {
        let (output, work_units) = run_plan(
            &mut Tracer::new(false),
            db,
            "bench.baseline",
            0,
            &plan,
            config::BATCH_SIZE,
        )?;
        Ok(Reference { output, work_units })
    })?;
    let (db, reference) = (&fixture.db, &reference);
    db.install_backend(config::CYCLE_BACKEND);
    if reference.work_units <= points as u64 {
        return Err(StorageError::invalid(
            "reference run too short to interrupt",
        ));
    }

    let point_seed = cx.derived_seed(3);
    let mut runner = Runner {
        db,
        plan: plan.clone(),
        policy,
        tally: SuspendTally::default(),
    };
    let mut ledger = LedgerTally::default();
    let mut query_ms = Samples::new();
    let mut baseline_ms = Samples::new();
    let clock = Instant::now();
    let (mut blocks, mut q) = (0, 0);
    // A block is `CYCLE_BLOCK_QUERIES` interrupted queries, whose offsets
    // spread over a stratum, and one uninterrupted run. What a cycle costs
    // grows with the query's progress, so single cycles spread widely; a
    // block's mean does not, and the run reports the median block.
    while blocks < config::CYCLE_MIN_BLOCKS || clock.elapsed() < cx.measure {
        let (mut cycles, mut tuples) = (0, 0);
        let (mut stopped, mut elapsed) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..config::CYCLE_BLOCK_QUERIES {
            let points = suspend_points(point_seed, q, points, reference.work_units);
            q += 1;
            let before = db.ledger().snapshot();
            let ran = runner.interrupted(&mut cx.tracer, &points, q as u64);
            if blocks < config::CYCLE_MIN_BLOCKS {
                ledger.add(&db.ledger().snapshot().since(&before), ran.cycles);
            }
            let correct = ran.finished && ran.output == reference.output;
            report.attempted += ran.cycles.max(1);
            report.failed += ran.failed_cycles + u64::from(!correct && ran.failed_cycles == 0);
            cycles += ran.cycles;
            tuples += ran.output.len() as u64;
            stopped += ran.stopped;
            elapsed += ran.elapsed;
            query_ms.push(ran.elapsed.as_secs_f64() * 1e3);
            // Drop the finished query's last suspend generation, as the
            // server does when a session ends.
            QueryExecution::retire_generation(db)?;
        }
        report
            .op_ms
            .push(ratio(stopped.as_secs_f64() * 1e3, cycles as f64));
        report.job(tuples, elapsed);

        // The in-run base of `overhead_ratio`; not an op.
        let t = Instant::now();
        let ran = run_plan(
            &mut cx.tracer,
            db,
            "bench.baseline",
            0,
            &plan,
            config::BATCH_SIZE,
        );
        baseline_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if !matches!(&ran, Ok((output, _)) if output == &reference.output) {
            return Err(StorageError::invalid(
                "uninterrupted run diverged from reference",
            ));
        }
        blocks += 1;
    }

    let tr = &cx.tracer;
    if tr.enabled() {
        let m = &mut report.layers;
        ledger.report(m);
        for (p50, p90, span) in [
            ("suspend_ms_p50", "suspend_ms_p90", "exec.suspend"),
            ("resume_ms_p50", "resume_ms_p90", "exec.resume"),
            (
                "core.optimize_ms_p50",
                "core.optimize_ms_p90",
                "core.optimize",
            ),
        ] {
            let d = tr.durations_ms(span);
            m.set(p50, d.p50(), d.len());
            m.set(p90, d.tail(0.90).unwrap_or(0.0), d.len());
        }
        m.set("query_ms_p50", query_ms.p50(), query_ms.len());
        m.set("baseline_ms_p50", baseline_ms.p50(), baseline_ms.len());
        m.set(
            "overhead_ratio",
            ratio(query_ms.p50(), baseline_ms.p50()),
            query_ms.len(),
        );
        let own = tr.self_ms("exec.suspend");
        m.set("exec.suspend_self_ms_p50", own.p50(), own.len());
        for (metric, span) in [
            ("exec.segment_ms_p50", "exec.segment"),
            ("exec.start_ms_p50", "exec.start"),
        ] {
            let d = tr.durations_ms(span);
            m.set(metric, d.p50(), d.len());
        }
        let t = &runner.tally;
        let n = t.suspends as usize;
        let per_suspend = |v: u64| ratio(v as f64, t.suspends as f64);
        m.set(
            "exec.rung_requested_ratio",
            per_suspend(t.requested_rung),
            n,
        );
        m.set(
            "exec.dump_ops_ratio",
            ratio(t.dumped_ops as f64, t.stateful_ops as f64),
            t.stateful_ops as usize,
        );
        m.set("mip.nodes_per_solve", per_suspend(t.nodes), n);
        m.set("mip.pivots_per_solve", per_suspend(t.pivots), n);
        m.set(
            "mip.budget_exhausted_ratio",
            per_suspend(t.budget_exhausted),
            n,
        );
        m.set(
            "core.est_over_actual_suspend_cost",
            ratio(
                t.est_cost,
                t.dump_pages as f64 * db.ledger().model().write_page,
            ),
            n,
        );
        m.set(
            "storage.dump_bytes_per_suspend",
            per_suspend(t.dump_bytes),
            n,
        );

        // One more block on the engine's default backend, the local disk
        // with its dump-writer pipeline, into a tracer of its own: too
        // unsteady here for a bound (see `config::CYCLE_BACKEND`), but the
        // only direct reading of that path outside `server_mix`.
        db.install_backend(BackendKind::Local);
        let mut local = Tracer::new(true);
        for slot in 0..config::CYCLE_BLOCK_QUERIES {
            let points = suspend_points(point_seed, slot, points, reference.work_units);
            runner.interrupted(&mut local, &points, 0);
            QueryExecution::retire_generation(db)?;
        }
        for (metric, span) in [
            ("storage.local_suspend_ms_p50", "exec.suspend"),
            ("storage.local_resume_ms_p50", "exec.resume"),
        ] {
            let d = local.durations_ms(span);
            m.set(metric, d.p50(), d.len());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_are_seeded_increasing_and_one_per_stratum() {
        let w = 1_000_000;
        for q in 0..50 {
            let p = suspend_points(42, q, 8, w);
            assert_eq!(p, suspend_points(42, q, 8, w));
            assert!(p.windows(2).all(|x| x[0] < x[1]));
            for (k, at) in p.iter().enumerate() {
                let k = k as u64;
                assert!(
                    (k * w / 8..=(k + 1) * w / 8).contains(at),
                    "{at} not in stratum {k}"
                );
            }
        }
        assert_ne!(suspend_points(42, 0, 8, w), suspend_points(43, 0, 8, w));
    }

    #[test]
    fn points_stay_inside_a_tiny_run() {
        for q in 0..20 {
            assert!(suspend_points(7, q, 4, 9)
                .iter()
                .all(|at| (1..=8).contains(at)));
        }
    }
}
