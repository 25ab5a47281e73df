//! The `qsr-server` binary: a self-contained demonstration of the
//! multi-session preemptive engine.
//!
//! ```sh
//! cargo run --bin qsr-server -- --sessions 4 --quantum 2000 --max-live 2 \
//!     --backend local --workers 2 --sla-budget 5000
//! ```
//!
//! Opens a scratch database, generates a small star-schema workload,
//! admits `--sessions` concurrent analytical sessions (round-robin over
//! three plan shapes, mixed priorities), and drives them to completion
//! with `--quantum`-bounded slices and at most `--max-live` sessions in
//! memory — everyone else parks on disk through the suspend path. Prints
//! the per-tenant fairness ledger at the end.
//!
//! `--workers 0` (default) runs the scheduling loop on the main thread,
//! deterministically; `--workers N` runs the same loop on N threads.
//! `--max-live` is a strict bound either way and defaults to one live
//! slot per worker (so every worker can run a slice). `--sla-budget C` gives
//! every tenant a suspend-cost budget of C ledger units, from which each
//! preemption derives its suspend deadline. `--admission-budget M` (with
//! optional `--admission-price P`, default 1e6) prices each admission's
//! estimated memory against the live victims and rejects sessions whose
//! preemption price exceeds P. A malformed flag value is a hard error
//! naming the flag.

#![forbid(unsafe_code)]

use qsr_core::SuspendPolicy;
use qsr_exec::{AggFn, PlanSpec, Predicate, SuspendOptions};
use qsr_server::{AdmissionConfig, QsrServer, ServerConfig, SlaConfig};
use qsr_storage::{BackendKind, Database, StorageError};
use qsr_workload::{generate_table, TableSpec};

/// The value following `flag`, if present; a malformed value is a hard
/// error naming the flag.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let v = args.get(args.iter().position(|a| a == flag)? + 1)?;
    Some(v.parse().unwrap_or_else(|e| panic!("{flag} {v:?}: {e}")))
}

fn plan_for(slot: u64) -> PlanSpec {
    let facts = || Box::new(PlanSpec::TableScan { table: "facts".into() });
    match slot % 3 {
        0 => PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::Filter {
                input: facts(),
                predicate: Predicate::IntLt { col: 1, value: 500 },
            }),
            inner: Box::new(PlanSpec::TableScan { table: "dim".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 2_000,
        },
        1 => PlanSpec::Sort {
            input: facts(),
            key: 0,
            buffer_tuples: 4_000,
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

fn main() -> qsr_storage::Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let sessions: u64 = flag(&args, "--sessions").unwrap_or(3);
    let quantum: u64 = flag(&args, "--quantum").unwrap_or(2_000);
    let workers: usize = flag(&args, "--workers").unwrap_or(0);
    let max_live: usize = flag(&args, "--max-live").unwrap_or(workers.max(1));
    let sla_budget: Option<f64> = flag(&args, "--sla-budget");
    let admission = flag(&args, "--admission-budget").map(|memory_budget| AdmissionConfig {
        memory_budget,
        max_price: flag(&args, "--admission-price").unwrap_or(1e6),
        queue: flag::<u64>(&args, "--admission-queue").unwrap_or(0) != 0,
    });
    // The suspend backend every parked session's state routes through.
    let backend: BackendKind = flag(&args, "--backend").unwrap_or_default();

    let dir = std::env::temp_dir().join(format!("qsr-server-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let db = Database::open_default(&dir)?;
    db.install_backend(backend);
    generate_table(&db, &TableSpec::new("facts", 20_000).payload(48).seed(11))?;
    generate_table(&db, &TableSpec::new("dim", 1_000).payload(48).seed(12))?;

    let mut server = QsrServer::new(
        db,
        ServerConfig {
            quantum,
            max_live,
            policy: SuspendPolicy::Optimized { budget: None },
            options: SuspendOptions::default(),
            workers,
            sla: sla_budget.map(SlaConfig::uniform),
            admission,
        },
    );
    for i in 0..sessions {
        // Mixed priorities: tenant-a is the premium tier.
        let (tenant, priority) = if i % 2 == 0 { ("tenant-a", 10) } else { ("tenant-b", 1) };
        match server.try_admit(tenant, priority, &plan_for(i)) {
            Ok(_) => {}
            Err(e @ StorageError::Overloaded { .. }) => {
                eprintln!("session {} rejected: {e}", i + 1);
            }
            Err(e) => return Err(e),
        }
    }

    let slices = server.run_to_completion()?;
    println!(
        "{sessions} sessions over {max_live} live slot(s), quantum {quantum}, \
         {workers} worker(s): {slices} scheduler slices",
    );
    println!(
        "{:<12} {:<10} {:>8} {:>10} {:>8} {:>9} {:>8} {:>14} {:>9}",
        "session", "tenant", "quanta", "work", "tuples", "suspends", "resumes", "resume-cost",
        "sla-miss"
    );
    for s in server.sessions() {
        let f = &s.fairness;
        let resume_cost: f64 = f.resume_cost.iter().sum();
        println!(
            "{:<12} {:<10} {:>8} {:>10} {:>8} {:>9} {:>8} {:>14.2} {:>9}{}",
            s.id().to_string(),
            s.meta.tenant,
            f.quanta,
            f.work_units,
            f.tuples,
            f.suspends,
            f.resumes,
            resume_cost,
            f.sla_misses,
            if s.is_shed() { "  [shed]" } else { "" },
        );
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
