//! Every knob of the benchmark, pinned in one place.
//!
//! The engine reads a number of `QSR_*` environment variables; the
//! benchmark scrubs all of them ([`scrub_env`]) and passes every value
//! explicitly, so a result depends on the code and the command line only.
//! A value is the engine default unless the comment says why it is not.

use qsr_core::SuspendPolicy;
use qsr_exec::SuspendOptions;
use qsr_server::{ServerConfig, SlaConfig};
use qsr_storage::BackendKind;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Measuring time when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// `facts` cardinality: 1/10 of the paper's 2.2M-row tables.
pub const FACTS_ROWS: u64 = 220_000;
/// `dim` cardinality.
pub const DIM_ROWS: u64 = 11_000;
/// Payload column width in bytes.
pub const PAYLOAD_BYTES: usize = 32;
/// `--smoke` divides table sizes by this.
pub const SMOKE_DIVISOR: u64 = 10;
/// `--smoke` divides measuring time by this: a second per run at the
/// default, so all eight runs of a set take about ten.
pub const SMOKE_SECONDS_DIVISOR: f64 = 20.0;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Vectorized batch size of every measured execution (0 = the engine's
/// default tuple-at-a-time pull).
pub const BATCH_SIZE: usize = 0;
/// Batch size of the traced-only `exec.batch_scan_agg_ms` probe.
pub const PROBE_BATCH_SIZE: usize = 1024;

// exec_uninterrupted -------------------------------------------------

/// Hash partitions of every hash join and hash aggregate.
pub const HASH_PARTITIONS: usize = 4;
/// Sort buffer of the external-sort plan: 27 sublists over `facts`.
pub const EXEC_SORT_BUFFER: usize = 8_192;
/// Build-partition budget of the grace-join plan in tuples; `dim` has
/// 2 750 per partition, so every partition re-partitions once.
pub const GRACE_MEM_BUDGET: usize = 1_000;
/// Merge fan-in cap of the grace-join plan's envelope.
pub const GRACE_MERGE_FANIN: usize = 4;
/// Selectivity (per mille) of the aggregate plan's filter.
pub const AGG_FILTER_PERMILLE: i64 = 500;
/// Rounds always measured, however short `--seconds` is.
pub const EXEC_MIN_ROUNDS: usize = 3;

// cycle_dump / cycle_goback ------------------------------------------

/// Sort buffers of the cycle query: larger than either input, so both
/// sorts hold their whole input as heap state until the merge.
pub const CYCLE_SORT_BUFFER: usize = 60_000;
/// Selectivity (per mille) of the cycle query's filter on `facts`: state
/// that is cheap to dump (22 000 tuples) and dear to recompute (a scan of
/// `facts`), which is what makes `Optimized{None}` pick DumpState.
pub const CYCLE_FILTER_PERMILLE: i64 = 100;
/// Suspend backend of the cycle workloads. Not the default (the local
/// disk): creating, syncing and renaming a handful of files is 4-7 ms of a
/// disk-backed suspend in this sandbox against 1-3 ms of engine work, and
/// that share drifts by a third within minutes (7.3, 9.9, 8.2 ms for the
/// same run back to back), which no bound could hold. In RAM the cycle
/// workloads time the engine's own suspend and resume path. The local
/// backend and the dump-writer pipeline, which only it uses, are measured
/// under `server_mix`.
pub const CYCLE_BACKEND: BackendKind = BackendKind::Memory;
/// Suspend points per query on `cycle_dump`.
pub const DUMP_POINTS: usize = 8;
/// Suspend points per query on `cycle_goback`.
pub const GOBACK_POINTS: usize = 4;
/// Suspend budget of `cycle_goback` in cost units: about a tenth of the
/// mean all-DumpState suspend cost of the cycle query (75 pages x 2.5).
pub const GOBACK_BUDGET: f64 = 20.0;
/// Interrupted queries per block; each block ends with one uninterrupted
/// run, the base of `overhead_ratio`.
pub const CYCLE_BLOCK_QUERIES: usize = 4;
/// Blocks always measured; count metrics are taken over exactly these,
/// so they repeat bit for bit whatever the machine's speed.
pub const CYCLE_MIN_BLOCKS: usize = 2;

// server_mix ----------------------------------------------------------

/// Sessions admitted per wave: two tenants times three plan shapes.
pub const WAVE_SESSIONS: usize = 6;
/// Buffer-pool frames of the server database: 4 MiB, smaller than
/// `facts` (14 MiB) and larger than `dim` (0.7 MiB). Every other
/// workload runs with the engine default, an uncached pool of 0 frames.
pub const SERVER_POOL_PAGES: usize = 512;
/// Upper limit on worker threads; the run uses `min(this, nproc)`.
pub const SERVER_MAX_WORKERS: usize = 2;
/// Outer-side selectivity (per mille) of the block-NLJ shape. The join
/// is a true nested loop, so this sets the wave's length.
pub const NLJ_FILTER_PERMILLE: i64 = 25;
/// Outer buffer of the block-NLJ shape, as in `bench_pr10`.
pub const NLJ_BUFFER: usize = 2_000;
/// Waves always measured.
pub const SERVER_MIN_WAVES: usize = 3;

/// Suspend options of every measured suspend: the engine defaults.
pub fn suspend_options() -> SuspendOptions {
    SuspendOptions::default()
}

/// Worker threads of `server_mix` on this machine.
pub fn server_workers() -> usize {
    SERVER_MAX_WORKERS.min(nproc())
}

/// Server configuration of `server_mix`. Not the defaults: the default
/// quantum (2 000) and one live slot are test-sized; these are
/// `bench_pr10`'s serving values. The SLA budget is one no tenant can
/// exhaust, so deadlines are derived and misses counted, never caused.
pub fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        quantum: 60_000,
        max_live: 2,
        policy: SuspendPolicy::Optimized { budget: None },
        options: suspend_options(),
        workers,
        sla: Some(SlaConfig::uniform(1e9)),
        admission: None,
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Remove every `QSR_*` variable from this process's environment and
/// return the names removed. Called before any thread exists.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QSR_"))
        .collect();
    for n in &names {
        std::env::remove_var(n);
    }
    names
}

/// Table sizes and measuring time after `--smoke` is applied.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `facts` rows.
    pub facts_rows: u64,
    /// `dim` rows.
    pub dim_rows: u64,
    /// Set-ups per untraced run.
    pub setup_reps: usize,
}

impl Scale {
    /// Full size, or 1/[`SMOKE_DIVISOR`] with a single set-up.
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                facts_rows: FACTS_ROWS / SMOKE_DIVISOR,
                dim_rows: DIM_ROWS / SMOKE_DIVISOR,
                setup_reps: 1,
            }
        } else {
            Self {
                facts_rows: FACTS_ROWS,
                dim_rows: DIM_ROWS,
                setup_reps: SETUP_REPS,
            }
        }
    }
}

/// One line naming every pinned value, echoed into each result so two
/// result files can be compared at a glance.
pub fn describe(scale: &Scale) -> String {
    let o = suspend_options();
    let s = server_config(server_workers());
    format!(
        "facts={} dim={} payload={} batch={} partitions={} exec_sort_buffer={} grace_budget={}/{} \
         cycle_sort_buffer={} cycle_filter={}pm cycle_backend={} points={}/{} goback_budget={} block_queries={} \
         dump_writers={} resume_workers={} persist_graph={} delta={:?} keep_generations={:?} \
         deadline={:?} solve_budget={:?} quantum={} max_live={} workers={} pool_pages={} \
         nlj_filter={}pm nlj_buffer={} setup_reps={}",
        scale.facts_rows,
        scale.dim_rows,
        PAYLOAD_BYTES,
        BATCH_SIZE,
        HASH_PARTITIONS,
        EXEC_SORT_BUFFER,
        GRACE_MEM_BUDGET,
        GRACE_MERGE_FANIN,
        CYCLE_SORT_BUFFER,
        CYCLE_FILTER_PERMILLE,
        CYCLE_BACKEND,
        DUMP_POINTS,
        GOBACK_POINTS,
        GOBACK_BUDGET,
        CYCLE_BLOCK_QUERIES,
        o.dump_writers,
        o.resume_workers,
        o.persist_graph,
        o.delta,
        o.keep_generations,
        o.deadline,
        o.solve_budget,
        s.quantum,
        s.max_live,
        s.workers,
        SERVER_POOL_PAGES,
        NLJ_FILTER_PERMILLE,
        NLJ_BUFFER,
        scale.setup_reps,
    )
}
