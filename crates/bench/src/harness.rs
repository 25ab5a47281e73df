//! Shared experiment machinery for the per-figure binaries.
//!
//! All experiments measure **simulated cost units** from the database's
//! cost ledger (page reads × read cost + page writes × write cost, the
//! paper's own suspend-budget unit), so results are deterministic and
//! hardware-independent. Default scale is 1/100 of the paper's tables
//! (the shapes — who wins, where crossovers fall — are scale-free; see
//! `DESIGN.md` §1). Set `QSR_SCALE=1.0` for paper-scale runs.

use qsr_core::{OpId, SuspendPolicy};
use qsr_exec::{PlanSpec, Predicate, QueryExecution, SuspendOptions, SuspendTrigger};
use qsr_oracle::env_parse;
use qsr_storage::{CostModel, Database, Phase, Result};
use qsr_workload::{generate_skewed_table, generate_table, TableSpec};
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment scale factor relative to the paper (default 0.01). A
/// malformed `QSR_SCALE` is a hard configuration error, not a silent
/// fall-through to the default.
pub fn scale() -> f64 {
    env_parse::<f64>("QSR_SCALE").unwrap_or(0.01)
}

/// Scale a paper-sized count.
pub fn scaled(paper_count: u64) -> u64 {
    ((paper_count as f64 * scale()) as u64).max(16)
}

/// Buffer-pool capacity (frames) for experiment databases. Default 0 —
/// an uncached passthrough pool, so every charged page I/O matches the
/// paper's cost analysis bit-for-bit. Set `QSR_POOL_PAGES` to measure
/// with caching on.
pub fn pool_pages() -> usize {
    env_parse::<usize>("QSR_POOL_PAGES").unwrap_or(0)
}

/// Suspend I/O deadline in simulated cost units applied to every measured
/// suspend (`QSR_SUSPEND_DEADLINE`). Under a deadline the driver's
/// degradation ladder may commit a cheaper rung than the requested
/// policy; the measured suspend/resume split shifts accordingly.
/// Default: unconstrained.
pub fn suspend_deadline() -> Option<f64> {
    env_parse::<f64>("QSR_SUSPEND_DEADLINE")
}

/// Disk-quota headroom in bytes armed for each measured suspend window
/// (`QSR_DISK_QUOTA`): the disk is capped at `used + headroom` while the
/// suspend runs, then uncapped. Tight headrooms force ladder descent; a
/// headroom no rung fits surfaces as the suspend's typed clean-abort
/// error. Default: no quota.
pub fn disk_quota_headroom() -> Option<u64> {
    env_parse::<u64>("QSR_DISK_QUOTA")
}

/// A temporary experiment database; the directory is removed on drop.
pub struct ExpDb {
    /// The database handle.
    pub db: Arc<Database>,
    dir: PathBuf,
}

impl Drop for ExpDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl ExpDb {
    /// Create an empty experiment database with the default cost model.
    pub fn new(tag: &str) -> Result<Self> {
        Self::with_model(tag, CostModel::default())
    }

    /// Create with a specific cost model.
    pub fn with_model(tag: &str, model: CostModel) -> Result<Self> {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qsr-exp-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir)?;
        let db = Database::open_with_pool(&dir, model, pool_pages())?;
        // With QSR_TRACE set, every experiment database gets a flight
        // recorder + JSONL sink.
        if let Some(path) = env_parse::<PathBuf>("QSR_TRACE") {
            qsr_storage::install_json_tracer(&db, &path)?;
        }
        Ok(Self { db, dir })
    }

    /// Generate a uniform table.
    pub fn table(&self, name: &str, rows: u64) -> Result<()> {
        generate_table(
            &self.db,
            &TableSpec::new(name, rows).payload(64).seed(hash_seed(name)),
        )?;
        Ok(())
    }

    /// Generate a presorted table.
    pub fn sorted_table(&self, name: &str, rows: u64) -> Result<()> {
        generate_table(
            &self.db,
            &TableSpec::new(name, rows)
                .sorted()
                .payload(64)
                .seed(hash_seed(name)),
        )?;
        Ok(())
    }

    /// Generate the Figure 12 skewed table.
    pub fn skewed_table(&self, name: &str, rows: u64) -> Result<()> {
        generate_skewed_table(
            &self.db,
            &TableSpec::new(name, rows).payload(64).seed(hash_seed(name)),
        )?;
        Ok(())
    }
}

fn hash_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Measured outcome of one suspend/resume experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overheads {
    /// Cost of the uninterrupted baseline run.
    pub baseline_cost: f64,
    /// Total extra cost caused by the suspension (all phases combined,
    /// relative to the baseline) — the paper's "total overhead time".
    pub total_overhead: f64,
    /// Cost spent in the suspend phase — the paper's "suspend time".
    pub suspend_time: f64,
    /// Cost spent in the resume phase.
    pub resume_time: f64,
    /// Wall-clock milliseconds the suspend-plan optimizer took.
    pub optimize_ms: f64,
}

/// The standard experiment: run `spec` uninterrupted to get the baseline,
/// then run it again suspending at `trigger` under `policy`, resume, and
/// finish. Both runs validate output equivalence.
pub fn measure(
    db: &Arc<Database>,
    spec: &PlanSpec,
    trigger: SuspendTrigger,
    policy: &SuspendPolicy,
) -> Result<Overheads> {
    // Baseline.
    db.ledger().reset();
    db.ledger().set_phase(Phase::Execute);
    let mut exec = QueryExecution::start(db.clone(), spec.clone())?;
    let baseline_tuples = exec.run_to_completion()?;
    let baseline = db.ledger().snapshot();
    let baseline_cost = baseline.total_cost();

    // Suspended run.
    db.ledger().reset();
    db.ledger().set_phase(Phase::Execute);
    let mut exec = QueryExecution::start(db.clone(), spec.clone())?;
    exec.set_trigger(Some(trigger));
    let (prefix, done) = exec.run()?;
    let (total, suspend_time, resume_time, optimize_ms) = if done {
        // Trigger never fired; no suspension happened.
        let snap = db.ledger().snapshot();
        (snap.total_cost(), 0.0, 0.0, 0.0)
    } else {
        if let Some(headroom) = disk_quota_headroom() {
            let dm = db.disk();
            dm.set_quota(Some(dm.used_bytes().saturating_add(headroom)));
        }
        let suspended = exec.suspend_with(
            policy,
            &SuspendOptions {
                deadline: suspend_deadline(),
                ..SuspendOptions::default()
            },
        );
        db.disk().set_quota(None);
        let handle = suspended?;
        let mut resumed = QueryExecution::resume(db.clone(), &handle)?;
        let rest = resumed.run_to_completion()?;
        let mut combined = prefix.clone();
        combined.extend(rest);
        assert_eq!(
            combined, baseline_tuples,
            "suspend/resume output diverged from baseline"
        );
        let snap = db.ledger().snapshot();
        (
            snap.total_cost(),
            snap.phase_cost(Phase::Suspend),
            snap.phase_cost(Phase::Resume),
            handle.report.elapsed.as_secs_f64() * 1e3,
        )
    };

    Ok(Overheads {
        baseline_cost,
        total_overhead: (total - baseline_cost).max(0.0),
        suspend_time,
        resume_time,
        optimize_ms,
    })
}

/// The three experiment arms of the paper's §6.
pub fn arms() -> Vec<(&'static str, SuspendPolicy)> {
    vec![
        ("all-DumpState", SuspendPolicy::AllDump),
        ("all-GoBack", SuspendPolicy::AllGoBack),
        ("online LP", SuspendPolicy::Optimized { budget: None }),
    ]
}

/// The paper's NLJ_S plan (Figure 6): NLJ(Filter(Scan R), Scan T).
/// Operator ids: 0=NLJ, 1=Filter, 2=ScanR, 3=ScanT.
pub fn nlj_s_plan(selectivity: f64, buffer: usize) -> PlanSpec {
    PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Filter {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            predicate: Predicate::IntLt {
                col: 1,
                value: (selectivity * 1000.0) as i64,
            },
        }),
        inner: Box::new(PlanSpec::TableScan { table: "t".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: buffer,
    }
}

/// The paper's SMJ_S plan (Figure 7): MJ(Sort(Filter(Scan R)), Sort(Scan T)).
/// Operator ids: 0=MJ, 1=SortL, 2=Filter, 3=ScanR, 4=SortR, 5=ScanT.
pub fn smj_s_plan(selectivity: f64, buffer: usize) -> PlanSpec {
    PlanSpec::MergeJoin {
        left: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::Filter {
                input: Box::new(PlanSpec::TableScan { table: "r".into() }),
                predicate: Predicate::IntLt {
                    col: 1,
                    value: (selectivity * 1000.0) as i64,
                },
            }),
            key: 0,
            buffer_tuples: buffer,
        }),
        right: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan { table: "t".into() }),
            key: 0,
            buffer_tuples: buffer,
        }),
        left_key: 0,
        right_key: 0,
    }
}

/// Suspend trigger on operator `op` after `n` ticks.
pub fn after(op: u32, n: u64) -> SuspendTrigger {
    SuspendTrigger::AfterOpTuples { op: OpId(op), n }
}

/// Render a row-major results table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i.min(widths.len() - 1)]));
        }
        s
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a float to one decimal.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a float to three decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}
