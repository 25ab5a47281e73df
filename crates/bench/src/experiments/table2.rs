//! Table 2: suspend-plan optimizer time vs. plan size.
//!
//! Paper setup: left-deep NLJ chains — "the worst case for the number of
//! variables/constraints in the mixed-integer program" — with k = 11 … 101
//! operators ((k−1)/2 NLJs in a chain). The paper reports 1.6 ms at k=11
//! up to 59 ms at k=101.
//!
//! We time both solver paths on identical problems: the faithful MIP
//! (dense simplex + branch & bound, as the paper used a MIP solver) and
//! the structured Pareto-DP solver that `qsr-core` dispatches to for very
//! large candidate sets (they provably agree; see the property test in
//! `qsr-core::structured`).

use crate::experiments::figure8::markdown_table;
use qsr_core::{
    ContractGraph, OpId, OpSuspendInputs, PlanTopology, SuspendOptimizer, SuspendProblem,
    TopoNode,
};
use qsr_storage::{CostModel, Result};
use std::collections::BTreeMap;
use std::time::Instant;

/// Build the worst-case k-operator chain problem with a fully connected
/// contract graph (every `x_{i,j}` candidate exists).
pub fn chain_problem(k: usize) -> (SuspendProblem, ContractGraph) {
    assert!(k >= 3 && k % 2 == 1, "k must be odd and >= 3");
    let m = (k - 1) / 2; // number of NLJs
    let mut nodes = Vec::new();
    // Spine ids: NLJ_i = i for i in 0..m; spine leaf scan = m.
    // Positional scans: m+1 .. 2m (inner scan of NLJ_i = m+1+i).
    for i in 0..m {
        let outer = if i + 1 < m {
            OpId((i + 1) as u32)
        } else {
            OpId(m as u32)
        };
        let inner = OpId((m + 1 + i) as u32);
        nodes.push(TopoNode {
            op: OpId(i as u32),
            parent: if i == 0 { None } else { Some(OpId(i as u32 - 1)) },
            children: vec![outer, inner],
            rebuild_children: vec![outer],
            stateful: true,
            label: format!("NLJ{i}"),
        });
    }
    // Spine leaf scan.
    nodes.push(TopoNode {
        op: OpId(m as u32),
        parent: Some(OpId(m as u32 - 1)),
        children: vec![],
        rebuild_children: vec![],
        stateful: false,
        label: "ScanOuter".into(),
    });
    // Positional inner scans.
    for i in 0..m {
        nodes.push(TopoNode {
            op: OpId((m + 1 + i) as u32),
            parent: Some(OpId(i as u32)),
            children: vec![],
            rebuild_children: vec![],
            stateful: false,
            label: format!("ScanInner{i}"),
        });
    }
    let topo = PlanTopology::new(nodes).expect("valid chain topology");

    // Contract graph: every NLJ holds a checkpoint whose contract chains
    // to its rebuild child's latest checkpoint — giving chains from every
    // spine ancestor to every spine descendant (the worst case).
    let mut graph = ContractGraph::new();
    let mut work = std::collections::HashMap::new();
    // Bottom-up: leaf scan first.
    let mut latest_child = graph.create_checkpoint(OpId(m as u32), vec![], 0.0);
    work.insert(OpId(m as u32), 40.0 + m as f64);
    for i in (0..m).rev() {
        let op = OpId(i as u32);
        let ck = graph.create_checkpoint(op, vec![], i as f64);
        let child_op = if i + 1 < m {
            OpId((i + 1) as u32)
        } else {
            OpId(m as u32)
        };
        graph
            .sign_contract(ck, child_op, latest_child, vec![], i as f64, vec![])
            .expect("contract");
        latest_child = ck;
        work.insert(op, 10.0 + i as f64);
    }

    let mut inputs = BTreeMap::new();
    for i in 0..(2 * m + 1) {
        let op = OpId(i as u32);
        inputs.insert(
            op,
            OpSuspendInputs {
                heap_bytes: if i < m { (3 + i % 7) * 8192 } else { 0 },
                control_bytes: 48,
                ..Default::default()
            },
        );
        work.entry(op).or_insert(5.0);
    }
    let problem = SuspendProblem {
        topo,
        model: CostModel::default(),
        inputs,
        work,
    };
    (problem, graph)
}

/// Run the experiment and return a markdown report.
pub fn run() -> Result<String> {
    let mut rows = Vec::new();
    for k in [11usize, 21, 41, 61, 81, 101] {
        let (problem, graph) = chain_problem(k);
        let cands = problem.candidates(&graph);

        // Structured solver: always timed.
        let t0 = Instant::now();
        let dp_plan = qsr_core::structured::solve(&problem, &graph, &cands, Some(200.0))?;
        let dp_ms = t0.elapsed().as_secs_f64() * 1e3;

        // MIP path: timed where the dense tableau stays reasonable on this
        // machine (the production dispatcher switches to the DP above
        // SuspendOptimizer::STRUCTURED_THRESHOLD candidates anyway).
        let mip_ms = if cands.len() <= SuspendOptimizer::STRUCTURED_THRESHOLD {
            let t0 = Instant::now();
            let (mip_plan, _) =
                SuspendOptimizer::solve_mip(&problem, &graph, &cands, Some(200.0))?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            // Sanity: both solvers agree on the objective.
            let (ms_, mr_) = problem.evaluate(&graph, &mip_plan);
            let (ds_, dr_) = problem.evaluate(&graph, &dp_plan);
            assert!(
                ((ms_ + mr_) - (ds_ + dr_)).abs() < 1e-6,
                "solver disagreement at k={k}"
            );
            format!("{ms:.3}")
        } else {
            "(structured path)".to_string()
        };

        rows.push(vec![
            k.to_string(),
            cands.len().to_string(),
            mip_ms,
            format!("{dp_ms:.3}"),
        ]);
        eprintln!("table2: k={k} done ({} candidates)", cands.len());
    }

    let mut out = String::from(
        "### Table 2 — optimizer time vs. plan size (worst-case left-deep chains)\n\n\
         Paper: 1.6 ms at 11 operators to 59 ms at 101 operators.\n\n",
    );
    out.push_str(&markdown_table(
        &["operators", "x_{i,j} candidates", "MIP ms", "structured-DP ms"],
        &rows,
    ));
    println!("{out}");
    Ok(out)
}
