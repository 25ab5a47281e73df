//! Reproduce Figure 2 of the paper interactively: trace the heap state of
//! the two NLJs in the R ⋈ S ⋈ T running example over time, and watch the
//! contract graph stay small (Theorem 1) as checkpoints are pruned.
//!
//! ```sh
//! cargo run --example heap_trace
//! ```

use qsr::core::OpId;
use qsr::exec::{PlanSpec, Poll, QueryExecution};
use qsr::storage::Database;
use qsr::workload::{generate_table, TableSpec};

fn main() -> qsr::storage::Result<()> {
    let dir = std::env::temp_dir().join(format!("qsr-heaptrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let db = Database::open_default(&dir)?;
    generate_table(&db, &TableSpec::new("r", 6_000).payload(48))?;
    generate_table(&db, &TableSpec::new("s", 4_000).payload(48))?;
    generate_table(&db, &TableSpec::new("t", 1_000).payload(48))?;

    // NLJ0(NLJ1(Scan R, Scan S), Scan T) — Figure 1.
    let plan = PlanSpec::BlockNlj {
        outer: Box::new(PlanSpec::BlockNlj {
            outer: Box::new(PlanSpec::TableScan { table: "r".into() }),
            inner: Box::new(PlanSpec::TableScan { table: "s".into() }),
            outer_key: 0,
            inner_key: 0,
            buffer_tuples: 2_000,
        }),
        inner: Box::new(PlanSpec::TableScan { table: "t".into() }),
        outer_key: 0,
        inner_key: 0,
        buffer_tuples: 800,
    };

    let mut exec = QueryExecution::start(db, plan)?;
    println!("{:>10} {:>14} {:>14} {:>8} {:>10}", "output#", "NLJ0 heap(B)", "NLJ1 heap(B)", "ckpts", "contracts");
    let mut produced = 0u64;
    loop {
        match exec.next()? {
            Poll::Tuple(_) => {
                produced += 1;
                if produced.is_multiple_of(250) {
                    let problem = exec.suspend_problem();
                    println!(
                        "{:>10} {:>14} {:>14} {:>8} {:>10}",
                        produced,
                        problem.inputs[&OpId(0)].heap_bytes,
                        problem.inputs[&OpId(1)].heap_bytes,
                        exec.ctx().graph.num_checkpoints(),
                        exec.ctx().graph.num_contracts(),
                    );
                }
            }
            Poll::Done => break,
            Poll::Suspended => unreachable!(),
        }
    }
    println!("query finished with {produced} tuples");
    drop(exec);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
