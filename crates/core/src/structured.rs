//! Structured exact solver for the suspend-plan problem.
//!
//! The §5 MIP has a tree structure: an operator's admissible choices
//! depend only on its parent's choice (Free after a Dump, or Enforced by a
//! specific anchor after a GoBack), and the single coupling constraint is
//! the global suspend budget. That makes the problem solvable exactly by a
//! bottom-up **Pareto-frontier dynamic program**: each subtree yields the
//! set of non-dominated `(suspend cost, resume cost)` pairs per mode, and
//! the root picks the cheapest total within the budget.
//!
//! The DP is linear in the number of `x_{i,j}` candidates times frontier
//! width, where the dense-simplex MIP grows quadratically on worst cases
//! like the 101-operator left-deep chains of the paper's Table 2, so it is
//! the only solver the engine runs. A property test below checks it
//! against the literal MIP ([`SuspendOptimizer::solve_mip`]) on random
//! chains and bushy trees.

use crate::graph::ContractGraph;
use crate::ids::OpId;
use crate::optimizer::{GoBackCandidate, SuspendOptimizer, SuspendProblem};
use crate::suspended::{Strategy, SuspendPlan};
use std::collections::HashMap;

/// Frontier width cap. Beyond this the frontier is thinned (keeping the
/// extremes and an even spread), trading exactness for bounded memory on
/// degenerate inputs. Real suspend problems have a handful of distinct
/// dump costs and never approach the cap.
const MAX_POINTS: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Choice {
    Dump,
    GoBack(OpId),
}

#[derive(Debug, Clone)]
struct Point {
    s: f64,
    r: f64,
    choice: Choice,
    /// Index of the chosen point in each spine child's frontier.
    child_idx: Vec<usize>,
}

/// Mode of an operator during the DP: `None` = Free (parent dumped or this
/// is the root); `Some(j)` = parent went back to anchor `j`, so this
/// operator is under an enforced contract from `j`'s chain.
type Mode = Option<OpId>;

struct Dp<'a> {
    problem: &'a SuspendProblem,
    cand: HashMap<(OpId, OpId), &'a GoBackCandidate>,
    /// Memoized frontiers per (operator, mode): without this the
    /// recursion branches twice per level (Free vs Enforced children) and
    /// becomes exponential on deep chains. With it, the state space is the
    /// O(n·h) (op, anchor) pairs of the MIP itself.
    memo: Memo,
}

/// Memoized frontier per (operator, mode).
type Memo = std::cell::RefCell<HashMap<(OpId, Mode), std::rc::Rc<Vec<Point>>>>;

impl<'a> Dp<'a> {
    fn prune(mut pts: Vec<Point>) -> Vec<Point> {
        pts.sort_by(|a, b| a.s.total_cmp(&b.s).then(a.r.total_cmp(&b.r)));
        let mut out: Vec<Point> = Vec::new();
        for p in pts {
            if let Some(last) = out.last() {
                if p.r >= last.r - 1e-12 {
                    continue; // dominated (s is >= last.s by sort order)
                }
            }
            out.push(p);
        }
        if out.len() > MAX_POINTS {
            // Keep extremes plus an even spread.
            let keep_every = out.len() / MAX_POINTS + 1;
            let last = out.len() - 1;
            out = out
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % keep_every == 0 || *i == last)
                .map(|(_, p)| p)
                .collect();
        }
        out
    }

    /// Combine an option's own cost with the children's frontiers.
    fn combine(
        own_s: f64,
        own_r: f64,
        choice: Choice,
        children: &[std::rc::Rc<Vec<Point>>],
    ) -> Vec<Point> {
        let mut acc = vec![Point {
            s: own_s,
            r: own_r,
            choice,
            child_idx: Vec::new(),
        }];
        for child in children {
            if child.is_empty() {
                return Vec::new(); // infeasible subtree under this option
            }
            let mut next = Vec::with_capacity(acc.len() * child.len());
            for a in &acc {
                for (ci, c) in child.iter().enumerate() {
                    let mut idx = a.child_idx.clone();
                    idx.push(ci);
                    next.push(Point {
                        s: a.s + c.s,
                        r: a.r + c.r,
                        choice: a.choice,
                        child_idx: idx,
                    });
                }
            }
            acc = Self::prune(next);
        }
        acc
    }

    /// Frontier for the subtree rooted at `i` in the given mode.
    fn frontier(&self, i: OpId, mode: Mode) -> std::rc::Rc<Vec<Point>> {
        if let Some(hit) = self.memo.borrow().get(&(i, mode)) {
            return hit.clone();
        }
        let computed = std::rc::Rc::new(self.compute_frontier(i, mode));
        self.memo
            .borrow_mut()
            .insert((i, mode), computed.clone());
        computed
    }

    fn compute_frontier(&self, i: OpId, mode: Mode) -> Vec<Point> {
        let spine_children = self.problem.topo.node(i).rebuild_children.clone();
        let mut options: Vec<Point> = Vec::new();

        match mode {
            None => {
                // Free: Dump, or GoBack to self if a candidate exists.
                let dump_children: Vec<std::rc::Rc<Vec<Point>>> = spine_children
                    .iter()
                    .map(|&c| self.frontier(c, None))
                    .collect();
                options.extend(Self::combine(
                    self.problem.d_s(i),
                    self.problem.d_r(i),
                    Choice::Dump,
                    &dump_children,
                ));
                if let Some(cand) = self.cand.get(&(i, i)) {
                    let gb_children: Vec<std::rc::Rc<Vec<Point>>> = spine_children
                        .iter()
                        .map(|&c| self.frontier(c, Some(i)))
                        .collect();
                    options.extend(Self::combine(
                        cand.g_s,
                        cand.g_r,
                        Choice::GoBack(i),
                        &gb_children,
                    ));
                }
            }
            Some(j) => {
                // Enforced by anchor j: GoBack(j), or Dump when c_{i,j}=0.
                if let Some(cand) = self.cand.get(&(i, j)) {
                    let gb_children: Vec<std::rc::Rc<Vec<Point>>> = spine_children
                        .iter()
                        .map(|&c| self.frontier(c, Some(j)))
                        .collect();
                    options.extend(Self::combine(
                        cand.g_s,
                        cand.g_r,
                        Choice::GoBack(j),
                        &gb_children,
                    ));
                    if !cand.c {
                        let dump_children: Vec<std::rc::Rc<Vec<Point>>> = spine_children
                            .iter()
                            .map(|&c| self.frontier(c, None))
                            .collect();
                        options.extend(Self::combine(
                            self.problem.d_s(i),
                            self.problem.d_r(i),
                            Choice::Dump,
                            &dump_children,
                        ));
                    }
                }
                // No candidate: the subtree cannot satisfy the enforced
                // contract — empty frontier marks the parent option
                // infeasible (cannot happen for well-formed graphs).
            }
        }
        Self::prune(options)
    }

    /// Write the choices of `point` (and its subtree) into `plan`.
    fn assign(&self, i: OpId, mode: Mode, frontier: &[Point], idx: usize, plan: &mut SuspendPlan) {
        let p = &frontier[idx];
        match p.choice {
            Choice::Dump => plan.set(i, Strategy::Dump),
            Choice::GoBack(j) => plan.set(i, Strategy::GoBack { to: j }),
        }
        let child_mode = match p.choice {
            Choice::Dump => None,
            Choice::GoBack(j) => Some(j),
        };
        let spine_children = self.problem.topo.node(i).rebuild_children.clone();
        for (k, &c) in spine_children.iter().enumerate() {
            // Recompute the child's frontier deterministically (frontier
            // construction is pure), then descend into the chosen point.
            let cf = self.frontier(c, child_mode);
            self.assign(c, child_mode, &cf, p.child_idx[k], plan);
        }
        let _ = mode;
    }
}

/// Solve the suspend-plan problem exactly with the Pareto tree DP.
pub fn solve(
    problem: &SuspendProblem,
    graph: &ContractGraph,
    cands: &[GoBackCandidate],
    budget: Option<f64>,
) -> SuspendPlan {
    let mut cand = HashMap::new();
    for c in cands {
        cand.insert((c.i, c.j), c);
    }
    let dp = Dp {
        problem,
        cand,
        memo: std::cell::RefCell::new(HashMap::new()),
    };
    if problem.topo.is_empty() {
        return SuspendPlan::new();
    }
    let root = problem.topo.root();
    let frontier = dp.frontier(root, None);

    // Pick the minimum-total point within the budget.
    let mut best: Option<usize> = None;
    for (i, p) in frontier.iter().enumerate() {
        if let Some(cap) = budget {
            if p.s > cap + 1e-9 {
                continue;
            }
        }
        let better = match best {
            Some(b) => p.s + p.r < frontier[b].s + frontier[b].r - 1e-12,
            None => true,
        };
        if better {
            best = Some(i);
        }
    }

    match best {
        Some(idx) => {
            let mut plan = SuspendOptimizer::all_dump(problem);
            dp.assign(root, None, &frontier, idx, &mut plan);
            plan
        }
        // Budget below every achievable suspend cost: best effort.
        None => SuspendOptimizer::all_goback(problem, graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SideSnapshot;
    use crate::optimizer::OpSuspendInputs;
    use crate::topology::{PlanTopology, TopoNode};
    use qsr_storage::CostModel;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Append a random subtree under `parent` in pre-order (dense ids) and
    /// return its root. Shapes mirror the executor's operators: leaf scans,
    /// stateless filters and stateful sorts (one rebuild child), block NLJs
    /// (one rebuild child plus a positional inner subtree) and merge/hash
    /// joins (two rebuild children). A positional subtree is a filter/scan
    /// chain, the only inner input the plan builder accepts.
    fn grow(
        rng: &mut impl Rng,
        nodes: &mut Vec<TopoNode>,
        parent: Option<OpId>,
        depth: usize,
        positional: bool,
    ) -> OpId {
        let op = OpId(nodes.len() as u32);
        nodes.push(TopoNode {
            op,
            parent,
            children: vec![],
            rebuild_children: vec![],
            stateful: false,
            label: String::new(),
        });
        let shape = match (depth, positional) {
            (0, _) => 0,
            (_, true) => 1,
            _ => rng.gen_range(0..5),
        };
        let (label, stateful, rebuild, inner) = match shape {
            0 => ("scan", false, 0, 0),
            1 => ("filter", false, 1, 0),
            2 => ("sort", true, 1, 0),
            3 => ("nlj", true, 1, 1),
            _ => ("join", true, 2, 0),
        };
        let mut children = Vec::new();
        for _ in 0..rebuild {
            children.push(grow(rng, nodes, Some(op), depth - 1, positional));
        }
        let rebuild_children = children.clone();
        for _ in 0..inner {
            let d = rng.gen_range(0..3);
            children.push(grow(rng, nodes, Some(op), d, true));
        }
        let n = &mut nodes[op.0 as usize];
        n.children = children;
        n.rebuild_children = rebuild_children;
        n.stateful = stateful;
        n.label = format!("{label}{}", op.0);
        op
    }

    /// Side snapshots of `op`'s positional subtrees, as a contract signed
    /// with `op` records them.
    fn sides_of(rng: &mut impl Rng, topo: &PlanTopology, op: OpId) -> Vec<SideSnapshot> {
        fn snap(rng: &mut impl Rng, topo: &PlanTopology, op: OpId) -> SideSnapshot {
            SideSnapshot {
                op,
                control: vec![],
                work: rng.gen_range(0.0..5.0),
                children: topo
                    .node(op)
                    .children
                    .iter()
                    .map(|&c| snap(rng, topo, c))
                    .collect(),
            }
        }
        let n = topo.node(op);
        n.children
            .iter()
            .filter(|c| !n.rebuild_children.contains(c))
            .map(|&c| snap(rng, topo, c))
            .collect()
    }

    /// Checkpoint `op` at `work` and sign a contract with every rebuild
    /// child's latest checkpoint.
    fn checkpoint(
        rng: &mut impl Rng,
        topo: &PlanTopology,
        graph: &mut ContractGraph,
        op: OpId,
        work: f64,
    ) {
        let ck = graph.create_checkpoint(op, vec![], work);
        for &c in &topo.node(op).rebuild_children {
            let child_ck = graph.latest_ckpt(c).unwrap();
            let sides = sides_of(rng, topo, c);
            graph
                .sign_contract(ck, c, child_ck, vec![], work, sides)
                .unwrap();
        }
    }

    /// A random plan tree (chains, bushy joins, NLJs with positional
    /// inner subtrees), a coherent contract graph, and randomized sizes
    /// and work.
    fn random_instance(rng: &mut impl Rng) -> (SuspendProblem, ContractGraph) {
        let mut nodes = Vec::new();
        let depth = rng.gen_range(1..5usize);
        grow(rng, &mut nodes, None, depth, false);
        let topo = PlanTopology::new(nodes).unwrap();
        let n = topo.len();

        let mut graph = ContractGraph::new();
        // Initial checkpoints bottom-up (pre-order ids: children are
        // numbered after their parent) with chained contracts.
        for i in (0..n).rev() {
            checkpoint(rng, &topo, &mut graph, OpId(i as u32), 0.0);
        }
        // Randomly re-checkpoint some stateful operators (creating newer
        // chains and c=1 situations for ancestors above them).
        for i in (0..n).rev() {
            let op = OpId(i as u32);
            if topo.node(op).stateful && rng.gen_bool(0.4) {
                let w = rng.gen_range(0.0..20.0);
                checkpoint(rng, &topo, &mut graph, op, w);
                graph.prune_for(op);
            }
        }

        let mut inputs = BTreeMap::new();
        let mut work = std::collections::HashMap::new();
        for node in topo.nodes() {
            inputs.insert(
                node.op,
                OpSuspendInputs {
                    heap_bytes: rng.gen_range(0..40) * 8192,
                    control_bytes: rng.gen_range(0..128),
                    dump_loses_output: node.stateful && rng.gen_bool(0.15),
                },
            );
            work.insert(node.op, rng.gen_range(0.0..200.0));
        }
        let problem = SuspendProblem {
            topo,
            model: CostModel::default(),
            inputs,
            work,
        };
        (problem, graph)
    }

    #[test]
    fn structured_and_mip_agree_on_random_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (mut bushy, mut multi_anchor) = (0, 0);
        for trial in 0..300 {
            let (problem, graph) = random_instance(&mut rng);
            let cands = problem.candidates(&graph);
            bushy += problem
                .topo
                .nodes()
                .iter()
                .any(|n| n.rebuild_children.len() == 2) as usize;
            multi_anchor += cands.iter().any(|c| c.i != c.j) as usize;
            let all_dump_s: f64 = problem.topo.nodes().iter().map(|n| problem.d_s(n.op)).sum();
            let budget = if rng.gen_bool(0.5) {
                None
            } else {
                Some(rng.gen_range(0.0..1.2) * all_dump_s)
            };

            let mip_plan = SuspendOptimizer::solve_mip(&problem, &graph, &cands, budget).unwrap();
            let dp_plan = solve(&problem, &graph, &cands, budget);

            let (ms, mr) = problem.evaluate(&graph, &mip_plan);
            let (ds, dr) = problem.evaluate(&graph, &dp_plan);

            // Feasibility w.r.t. budget must match (both fall back to
            // all-GoBack when the budget is unattainable).
            if let Some(cap) = budget {
                let mip_feasible = ms <= cap + 1e-6;
                let dp_feasible = ds <= cap + 1e-6;
                assert_eq!(
                    mip_feasible, dp_feasible,
                    "trial {trial}: feasibility mismatch (mip s={ms}, dp s={ds}, cap={cap})"
                );
                if !mip_feasible {
                    continue; // both best-effort; totals may differ
                }
            }
            assert!(
                (ms + mr - (ds + dr)).abs() < 1e-6,
                "trial {trial}: objective mismatch mip={} dp={} \
                 (mip plan {:?}, dp plan {:?}, budget {:?})",
                ms + mr,
                ds + dr,
                mip_plan,
                dp_plan,
                budget
            );
        }
        // The generator must reach the shapes the comparison is about.
        assert!(bushy >= 50, "only {bushy} instances with a two-child join");
        assert!(
            multi_anchor >= 100,
            "only {multi_anchor} instances with chained anchors"
        );
    }

    #[test]
    fn structured_handles_large_chains_fast() {
        // 60-op spine: MIP would be sluggish; DP must be instant and valid.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 60usize;
        let mut nodes = Vec::new();
        for i in 0..n {
            let is_leaf = i == n - 1;
            nodes.push(TopoNode {
                op: OpId(i as u32),
                parent: if i == 0 { None } else { Some(OpId(i as u32 - 1)) },
                children: if is_leaf { vec![] } else { vec![OpId(i as u32 + 1)] },
                rebuild_children: if is_leaf { vec![] } else { vec![OpId(i as u32 + 1)] },
                stateful: !is_leaf,
                label: format!("p{i}"),
            });
        }
        let topo = PlanTopology::new(nodes).unwrap();
        let mut graph = ContractGraph::new();
        for i in (0..n).rev() {
            let op = OpId(i as u32);
            let ck = graph.create_checkpoint(op, vec![], 0.0);
            if i + 1 < n {
                let child = OpId(i as u32 + 1);
                let child_ck = graph.latest_ckpt(child).unwrap();
                graph
                    .sign_contract(ck, child, child_ck, vec![], 0.0, vec![])
                    .unwrap();
            }
        }
        let mut inputs = BTreeMap::new();
        let mut work = std::collections::HashMap::new();
        for i in 0..n {
            inputs.insert(
                OpId(i as u32),
                OpSuspendInputs {
                    heap_bytes: rng.gen_range(0..10) * 8192,
                    control_bytes: 32,
                    ..Default::default()
                },
            );
            work.insert(OpId(i as u32), rng.gen_range(0.0..100.0));
        }
        let problem = SuspendProblem {
            topo,
            model: CostModel::default(),
            inputs,
            work,
        };
        let cands = problem.candidates(&graph);
        let start = std::time::Instant::now();
        let plan = solve(&problem, &graph, &cands, Some(50.0));
        assert!(start.elapsed().as_millis() < 2000, "DP too slow");
        let (s, _) = problem.evaluate(&graph, &plan);
        assert!(s <= 50.0 + 1e-6 || plan.num_goback() > 0);
    }
}
