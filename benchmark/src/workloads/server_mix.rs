//! `server_mix`: waves of six sessions (two tenants times the three
//! `bench_pr10` plan shapes) through `QsrServer` on real worker threads
//! over one shared 512-frame pool. The only workload where sessions
//! contend: scheduler, registry, shared pool and concurrent preemption
//! suspends set the result. One op is one session; the timed op is the
//! wave's makespan.

use crate::config;
use crate::fixture::{self, filtered_facts, scan, LedgerTally, Report, RunCx};
use crate::stats::{ratio, Samples};
use qsr_exec::{AggFn, PlanSpec};
use qsr_server::{QsrServer, Session};
use qsr_storage::{splitmix64, Database, Result, StorageError, Tuple};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: [(&str, u32); 2] = [("tenant-a", 10), ("tenant-b", 1)];

/// The three session shapes: selective block-NLJ, external sort,
/// partitioned aggregate.
fn shapes() -> [PlanSpec; 3] {
    [
        PlanSpec::BlockNlj {
            outer: filtered_facts(config::NLJ_FILTER_PERMILLE),
            inner: scan("dim"),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: config::NLJ_BUFFER,
        },
        PlanSpec::Sort {
            input: scan("facts"),
            key: 0,
            buffer_tuples: config::EXEC_SORT_BUFFER,
        },
        PlanSpec::HashAgg {
            input: scan("facts"),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Count,
            partitions: config::HASH_PARTITIONS,
        },
    ]
}

/// Admission order of wave `wave`: a seeded shuffle of the six
/// `(tenant, shape)` pairs.
fn wave_order(seed: u64, wave: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> =
        (0..config::WAVE_SESSIONS).map(|i| (i % 2, i / 2)).collect();
    let mut state = seed ^ splitmix64(wave as u64);
    for i in (1..order.len()).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Outputs by shape of a serial (`workers = 0`) wave: the reference.
fn serial_wave(db: &Arc<Database>) -> Result<Vec<Vec<Tuple>>> {
    let mut server = QsrServer::new(db.clone(), config::server_config(0));
    for shape in &shapes() {
        server.admit(TENANTS[0].0, TENANTS[0].1, shape)?;
    }
    server.run_to_completion()?;
    if !server.sessions().iter().all(Session::is_finished) {
        return Err(StorageError::invalid("reference wave did not finish"));
    }
    Ok(server
        .sessions()
        .iter()
        .map(|s| s.collected.clone())
        .collect())
}

/// Run the workload.
pub fn run(cx: &mut RunCx) -> Result<Report> {
    let mut report = Report::default();
    let (fixture, reference) =
        fixture::setup(cx, &mut report, config::SERVER_POOL_PAGES, serial_wave)?;
    let (db, reference) = (&fixture.db, &reference);
    let shapes = shapes();
    let workers = config::server_workers();
    let order_seed = cx.derived_seed(4);

    let mut ledger = LedgerTally::default();
    let (mut slice_ms, mut admit_ms) = (Samples::new(), Samples::new());
    let (mut suspend_cost, mut resume_cost) = (Samples::new(), Samples::new());
    let (mut suspends, mut resumes, mut retries, mut sla_misses, mut shed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut slice_nanos, mut wave_nanos) = (0u64, 0u128);
    let clock = Instant::now();
    let mut waves = 0;
    while waves < config::SERVER_MIN_WAVES || clock.elapsed() < cx.measure {
        let op = waves as u64 + 1;
        let order = wave_order(order_seed, waves);
        let before = db.ledger().snapshot();
        let tr = &mut cx.tracer;
        let wave = tr.enter("bench.job", op);
        let mut server = QsrServer::new(db.clone(), config::server_config(workers));
        let mut admitted = Ok(());
        for &(tenant, shape) in &order {
            let span = tr.enter("server.admit", op);
            let id = server.admit(TENANTS[tenant].0, TENANTS[tenant].1, &shapes[shape]);
            admit_ms.push(tr.exit(span).ms());
            admitted = admitted.and(id.map(|_| ()));
        }
        let span = tr.enter("server.run", op);
        let ran = admitted.and_then(|()| server.run_to_completion());
        tr.exit(span);
        let elapsed = tr.exit(wave).elapsed;
        if let Err(e) = &ran {
            eprintln!("server_mix: wave {op} failed: {e}");
        }
        ledger.add(
            &db.ledger().snapshot().since(&before),
            config::WAVE_SESSIONS as u64,
        );

        report.attempted += config::WAVE_SESSIONS as u64;
        report.op_ms.push(elapsed.as_secs_f64() * 1e3);
        let (mut correct, mut tuples) = (0, 0);
        for (s, &(_, shape)) in server.sessions().iter().zip(&order) {
            correct += u64::from(ran.is_ok() && s.is_finished() && s.collected == reference[shape]);
            let f = &s.fairness;
            tuples += f.tuples;
            suspends += f.suspends;
            resumes += f.resumes;
            retries += f.resume_retries;
            sla_misses += f.sla_misses;
            shed += u64::from(s.is_shed());
            slice_nanos += f.slice_nanos.iter().sum::<u64>();
            slice_ms.extend(f.slice_nanos.iter().map(|&n| n as f64 / 1e6));
            suspend_cost.extend(f.suspend_cost.iter().copied());
            resume_cost.extend(f.resume_cost.iter().copied());
        }
        report.failed += config::WAVE_SESSIONS as u64 - correct;
        report.job(tuples, elapsed);
        wave_nanos += elapsed.as_nanos();
        waves += 1;
    }

    if cx.tracer.enabled() {
        let m = &mut report.layers;
        ledger.report(m);
        let per_wave = |v: u64| ratio(v as f64, waves as f64);
        m.set("server.slice_ms_p50", slice_ms.p50(), slice_ms.len());
        m.set(
            "server.slice_ms_p99",
            slice_ms.tail(0.99).unwrap_or(0.0),
            slice_ms.len(),
        );
        m.set("server.admit_ms_p50", admit_ms.p50(), admit_ms.len());
        m.set("server.suspends_per_wave", per_wave(suspends), waves);
        m.set("server.resumes_per_wave", per_wave(resumes), waves);
        m.set("server.resume_retries", retries as f64, waves);
        m.set(
            "server.suspend_cost_units_p50",
            suspend_cost.p50(),
            suspend_cost.len(),
        );
        m.set(
            "server.resume_cost_units_p50",
            resume_cost.p50(),
            resume_cost.len(),
        );
        m.set(
            "server.cost_units_per_wave",
            ratio(ledger.total_cost(), waves as f64),
            waves,
        );
        m.set("server.sla_misses", sla_misses as f64, waves);
        m.set("server.shed_sessions", shed as f64, waves);
        // The rest of the workers' time is the scheduler lock, parking
        // (suspend) and resume.
        m.set(
            "server.worker_busy_ratio",
            ratio(slice_nanos as f64, workers as f64 * wave_nanos as f64),
            waves,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_order_is_a_seeded_permutation() {
        let mut seen = std::collections::BTreeSet::new();
        for wave in 0..20 {
            let order = wave_order(9, wave);
            assert_eq!(order, wave_order(9, wave));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), config::WAVE_SESSIONS);
            assert!(order.iter().all(|&(t, s)| t < 2 && s < 3));
            seen.insert(order);
        }
        assert!(seen.len() > 10, "orders barely vary");
    }
}
