//! PR 6 bench smoke: multi-session preemptive scheduling. Sweeps the
//! number of concurrent sessions multiplexed over a fixed live-slot
//! budget, drives every mix to completion, verifies each session's
//! output against its single-session golden (exactly-once delivery
//! under arbitrary preemption interleavings), and records throughput
//! plus the p95 resume latency as the session count grows. Emits
//! `BENCH_pr6.json` in the current directory. All numbers are simulated
//! ledger cost units, so the output is deterministic and
//! hardware-independent.

use qsr_core::SuspendPolicy;
use qsr_exec::{AggFn, PlanSpec, Predicate, QueryExecution, SuspendOptions};
use qsr_server::{QsrServer, ServerConfig};
use qsr_storage::{CostModel, Database, Result, Tuple};
use qsr_workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDb {
    db: Arc<Database>,
    dir: PathBuf,
}

impl TempDb {
    fn new(tag: &str) -> Result<Self> {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qsr-bench-pr6-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir)?;
        let db = Database::open_with_pool(&dir, CostModel::default(), 0)?;
        generate_table(&db, &TableSpec::new("facts", 9_000).payload(32).seed(11))?;
        generate_table(&db, &TableSpec::new("dim", 600).payload(32).seed(12))?;
        db.pool().flush_all()?;
        Ok(Self { db, dir })
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The session mix: three analytical plan shapes, round-robin. Every
/// sweep point admits the *prefix* of this same sequence, so slot 0 is
/// deliberately a full-output plan (the 9k-row sort): with a selective
/// join first, the single-session row degenerated to a few hundred
/// tuples and its throughput was incomparable with the larger mixes.
fn plan_for(slot: u64) -> PlanSpec {
    let facts = || Box::new(PlanSpec::TableScan { table: "facts".into() });
    match slot % 3 {
        0 => PlanSpec::Sort {
            input: facts(),
            key: 0,
            buffer_tuples: 3_000,
        },
        1 => PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: facts(),
                predicate: Predicate::IntLt { col: 1, value: 400 },
            }),
            inner: Box::new(PlanSpec::TableScan { table: "dim".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 1_200,
        },
        _ => PlanSpec::HashAgg {
            input: facts(),
            group_col: 1,
            agg_col: 0,
            func: AggFn::Count,
            partitions: 4,
        },
    }
}

fn config() -> ServerConfig {
    ServerConfig {
        quantum: 1_500,
        max_live: 1,
        policy: SuspendPolicy::Optimized { budget: None },
        options: SuspendOptions {
            dump_writers: 0,
            ..SuspendOptions::default()
        },
        ..ServerConfig::default()
    }
}

/// Single-session reference outputs for each plan shape.
fn goldens() -> Result<Vec<Vec<Tuple>>> {
    let t = TempDb::new("golden")?;
    (0..3)
        .map(|slot| {
            let mut exec = QueryExecution::start(t.db.clone(), plan_for(slot))?;
            exec.run_to_completion()
        })
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct SweepRow {
    sessions: u64,
    slices: u64,
    tuples: u64,
    total_cost: f64,
    throughput: f64,
    suspends: u64,
    resumes: u64,
    p50_resume: f64,
    p95_resume: f64,
}

/// Drive `n` concurrent sessions to completion over one live slot and
/// measure the mix. Every session's delivered output must equal its
/// single-session golden exactly — the multiplexing must be invisible.
fn sweep_point(n: u64, goldens: &[Vec<Tuple>]) -> Result<SweepRow> {
    let t = TempDb::new("sweep")?;
    t.db.ledger().reset();
    let mut server = QsrServer::new(t.db.clone(), config());
    for i in 0..n {
        let (tenant, priority) = if i % 2 == 0 { ("tenant-a", 10) } else { ("tenant-b", 1) };
        server.admit(tenant, priority, &plan_for(i))?;
    }
    let slices = server.run_to_completion()?;
    let total_cost = t.db.ledger().snapshot().total_cost();

    let mut tuples = 0u64;
    let mut suspends = 0u64;
    let mut resumes = 0u64;
    let mut resume_costs: Vec<f64> = Vec::new();
    for (i, s) in server.sessions().iter().enumerate() {
        assert!(s.is_finished(), "session {} did not finish", i + 1);
        assert_eq!(
            s.collected,
            goldens[i % 3],
            "session {} diverged from its single-session golden",
            i + 1
        );
        tuples += s.fairness.tuples;
        suspends += s.fairness.suspends;
        resumes += s.fairness.resumes;
        resume_costs.extend_from_slice(&s.fairness.resume_cost);
    }
    resume_costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Ok(SweepRow {
        sessions: n,
        slices,
        tuples,
        total_cost,
        // Tuples delivered per 1k simulated cost units: the server's
        // useful work per unit of I/O+CPU spent, including all
        // preemption overhead.
        throughput: tuples as f64 / (total_cost / 1_000.0),
        suspends,
        resumes,
        p50_resume: percentile(&resume_costs, 0.50),
        p95_resume: percentile(&resume_costs, 0.95),
    })
}

fn main() -> Result<()> {
    let goldens = goldens()?;
    let mut rows = Vec::new();
    for n in [1u64, 2, 3, 4, 6] {
        let row = sweep_point(n, &goldens)?;
        eprintln!(
            "{} sessions: {:>3} slices  {:>6} tuples  cost {:>10.1}  thpt {:>7.2}/kcu  \
             {:>3} suspends  {:>3} resumes  p50 resume {:>8.1}  p95 resume {:>8.1}",
            row.sessions,
            row.slices,
            row.tuples,
            row.total_cost,
            row.throughput,
            row.suspends,
            row.resumes,
            row.p50_resume,
            row.p95_resume,
        );
        rows.push(row);
    }

    // Sanity pins on the sweep's shape: a single session over one live
    // slot never preempts, and a contended mix must preempt.
    assert_eq!(rows[0].suspends, 0, "one session over one slot must not preempt");
    assert!(
        rows.last().unwrap().suspends > 0,
        "a contended mix must preempt"
    );
    assert!(
        rows.iter().all(|r| r.suspends == r.resumes),
        "every preemption must be matched by a resume (all sessions finished)"
    );

    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                r#"    {{ "sessions": {}, "slices": {}, "tuples": {}, "total_cost": {:.2}, "tuples_per_kilocost": {:.3}, "suspends": {}, "resumes": {}, "p50_resume_cost": {:.2}, "p95_resume_cost": {:.2} }}"#,
                r.sessions,
                r.slices,
                r.tuples,
                r.total_cost,
                r.throughput,
                r.suspends,
                r.resumes,
                r.p50_resume,
                r.p95_resume
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"quantum\": {},\n  \"max_live\": {},\n  \"session_sweep\": [\n{}\n  ]\n}}\n",
        config().quantum,
        config().max_live,
        rows_json.join(",\n"),
    );
    std::fs::write("BENCH_pr6.json", &json)?;
    println!("{json}");
    Ok(())
}
