//! What every workload shares: the run's parameters, the scratch
//! database and its timed set-up, ledger tallies, and process memory.

use crate::config::{self, Scale};
use crate::metrics::Metrics;
use crate::stats::{ratio, Samples};
use crate::trace::Tracer;
use qsr_exec::{PlanSpec, Predicate};
use qsr_storage::{splitmix64, CostModel, CostSnapshot, Database, Phase, Result};
use qsr_workload::{generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Directory (relative to the checkout root, the working directory) that
/// holds everything a run writes: scratch databases and span files.
pub const OUT_DIR: &str = "benchmark/out";

/// Parameters of one run.
pub struct RunCx {
    /// Workload name, used in scratch and span file names.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Measuring time.
    pub measure: Duration,
    /// Table sizes and set-up repetitions.
    pub scale: Scale,
    /// Span recorder (`--trace 1` records, `--trace 0` only times).
    pub tracer: Tracer,
}

impl RunCx {
    /// The `stream`-th independent seed derived from `--seed`.
    pub fn derived_seed(&self, stream: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(stream))
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Report {
    /// Ops attempted in the measured loop.
    pub attempted: u64,
    /// Ops that errored, did not finish, or delivered a wrong output.
    pub failed: u64,
    /// Latency of the workload's timed op.
    pub op_ms: Samples,
    /// Delivered tuples per wall second of each job (round, interrupted
    /// query, wave), verification excluded.
    pub tuples_per_s: Samples,
    /// Set-up times, one per repetition.
    pub setup_s: Samples,
    /// Per-layer values (filled with tracing on).
    pub layers: Metrics,
}

impl Report {
    /// Record a finished job that delivered `tuples` in `elapsed`.
    pub fn job(&mut self, tuples: u64, elapsed: Duration) {
        self.tuples_per_s
            .push(ratio(tuples as f64, elapsed.as_secs_f64()));
    }
}

/// A scratch database under [`OUT_DIR`], removed on drop.
pub struct Fixture {
    /// The database.
    pub db: Arc<Database>,
    dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set the workload up `scale.setup_reps` times (once with tracing on,
/// where `setup_s` is not reported) and keep the last: open a database
/// with `pool_pages` frames in a fresh directory, generate `facts` and
/// `dim` from the run's seed, flush, and run `warm_up` — one op, whose
/// outputs are the reference every measured op is checked against.
/// Returns the last database and its reference.
pub fn setup<R>(
    cx: &mut RunCx,
    report: &mut Report,
    pool_pages: usize,
    warm_up: impl Fn(&Arc<Database>) -> Result<R>,
) -> Result<(Fixture, R)> {
    let reps = if cx.tracer.enabled() {
        1
    } else {
        cx.scale.setup_reps
    };
    let mut last = None;
    for rep in 0..reps {
        drop(last.take()); // one scratch database on disk at a time
        let clock = Instant::now();
        let dir =
            PathBuf::from(OUT_DIR).join(format!("db-{}-{}-{rep}", cx.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let db = Database::open_with_pool(&dir, CostModel::default(), pool_pages)?;
        let fixture = Fixture { db, dir };
        let span = cx.tracer.enter("workload.generate", 0);
        for (name, rows, stream) in [
            ("facts", cx.scale.facts_rows, 1),
            ("dim", cx.scale.dim_rows, 2),
        ] {
            let spec = TableSpec::new(name, rows)
                .payload(config::PAYLOAD_BYTES)
                .seed(cx.derived_seed(stream));
            generate_table(&fixture.db, &spec)?;
        }
        fixture.db.pool().flush_all()?;
        let generated = cx.tracer.exit(span);
        report.layers.set(
            "workload.generate_rows_per_s",
            ratio(
                (cx.scale.facts_rows + cx.scale.dim_rows) as f64,
                generated.elapsed.as_secs_f64(),
            ),
            1,
        );
        let reference = warm_up(&fixture.db)?;
        report.setup_s.push(clock.elapsed().as_secs_f64());
        last = Some((fixture, reference));
    }
    Ok(last.expect("at least one set-up"))
}

/// `TableScan(table)`.
pub fn scan(table: &str) -> Box<PlanSpec> {
    Box::new(PlanSpec::TableScan {
        table: table.into(),
    })
}

/// `Filter(TableScan(facts), sel < permille)`: the workload generator's
/// `sel` column is uniform in 0..1000, so this keeps that share of rows.
pub fn filtered_facts(permille: i64) -> Box<PlanSpec> {
    Box::new(PlanSpec::Filter {
        input: scan("facts"),
        predicate: Predicate::IntLt {
            col: 1,
            value: permille,
        },
    })
}

/// Ledger charges summed over a fixed set of ops, by lifecycle phase.
#[derive(Default)]
pub struct LedgerTally {
    ops: u64,
    exec_read: u64,
    exec_written: u64,
    suspend_written: u64,
    resume_read: u64,
    fallback_cost: f64,
    total_cost: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    write_backs: u64,
}

impl LedgerTally {
    /// Add the charges `delta` (a [`CostSnapshot::since`]) of `ops` ops.
    pub fn add(&mut self, delta: &CostSnapshot, ops: u64) {
        self.ops += ops;
        self.exec_read += delta.phase(Phase::Execute).pages_read;
        self.exec_written += delta.phase(Phase::Execute).pages_written;
        self.suspend_written += delta.phase(Phase::Suspend).pages_written;
        self.resume_read += delta.phase(Phase::Resume).pages_read;
        self.fallback_cost += delta.phase_cost(Phase::Fallback);
        self.total_cost += delta.total_cost();
        self.hits += delta.cache.hits;
        self.misses += delta.cache.misses;
        self.evictions += delta.cache.evictions;
        self.write_backs += delta.cache.write_backs;
    }

    /// Total cost units charged.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// Report the per-op storage counters.
    pub fn report(&self, m: &mut Metrics) {
        let n = self.ops as usize;
        let per_op = |v: f64| ratio(v, self.ops as f64);
        m.set("cost_units_per_op", per_op(self.total_cost), n);
        m.set("storage.exec_pages_read", per_op(self.exec_read as f64), n);
        m.set(
            "storage.exec_pages_written",
            per_op(self.exec_written as f64),
            n,
        );
        m.set(
            "storage.suspend_pages_written",
            per_op(self.suspend_written as f64),
            n,
        );
        m.set(
            "storage.resume_pages_read",
            per_op(self.resume_read as f64),
            n,
        );
        m.set("storage.fallback_cost_units", per_op(self.fallback_cost), n);
        m.set(
            "storage.pool_hit_rate",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
            (self.hits + self.misses) as usize,
        );
        m.set("storage.pool_evictions", per_op(self.evictions as f64), n);
        m.set(
            "storage.pool_write_backs",
            per_op(self.write_backs as f64),
            n,
        );
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
