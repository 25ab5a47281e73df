//! Online selection of suspend plans (paper §5).
//!
//! At suspend time the engine snapshots per-operator statistics (heap
//! size, control-state size, cumulative work) plus the live contract
//! graph, and builds the paper's mixed-integer program:
//!
//! * one 0/1 variable `x_{i,j}` per operator `i` and rebuild-ancestor `j`
//!   (self included) whose GoBack chain resolves in the contract graph,
//! * objective (1)+(2): total suspend + resume cost,
//! * constraints (3)–(8), including the suspend budget `C`.
//!
//! Cost attribution (see `DESIGN.md` §4 for the derivation):
//!
//! * `d^s_i` / `d^r_i` — pages of heap state × write/read page cost.
//! * `g^s_{i,j}` — control-state bytes as a page fraction × write cost
//!   ("usually negligible", per the paper).
//! * `g^r_{i,j}` — operator `i`'s own cumulative work since the checkpoint
//!   reachable from `j`'s latest checkpoint, **plus** the repositioning
//!   redo of the positional subtrees of `i`'s rebuild children under the
//!   contracts `i` would enforce (side snapshots). This keeps every unit
//!   of redone work attributed to exactly one variable.
//! * `c_{i,j}` — the paper's freshness condition: a stateful operator may
//!   dump under an enforced contract only if it has not checkpointed
//!   (i.e. rebuilt its heap) since the chain checkpoint; stateless
//!   operators must always relay (their "dump" cannot serve an earlier
//!   contract point).

use crate::graph::{ChainResolution, Contract, ContractGraph, SideSnapshot};
use crate::ids::OpId;
use crate::suspended::{Strategy, SuspendPlan};
use crate::topology::PlanTopology;
use qsr_mip::{
    ConstraintOp, LinearProgram, MipSolution, SolveBudget, SolveObserver, SolveStats, VarId,
};
use qsr_storage::{
    pages_for_bytes, CostModel, Result, StorageError, TraceEvent, Tracer, PAGE_SIZE,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Per-operator statistics snapshotted at suspend time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpSuspendInputs {
    /// Bytes of in-memory heap state held right now.
    pub heap_bytes: usize,
    /// Bytes of control state (cursor positions etc.).
    pub control_bytes: usize,
    /// The operator has delivered output since its inbound contract was
    /// signed that a dump of its *current* state could not regenerate —
    /// the paper's `c_{i,j} = 1` without an intervening checkpoint: if
    /// the parent goes back, this operator must go back with it.
    pub dump_loses_output: bool,
}

/// The full optimization problem, assembled by the lifecycle driver.
#[derive(Debug, Clone)]
pub struct SuspendProblem {
    /// Plan shape.
    pub topo: PlanTopology,
    /// Cost model in effect.
    pub model: CostModel,
    /// Per-operator state sizes.
    pub inputs: BTreeMap<OpId, OpSuspendInputs>,
    /// Per-operator cumulative work, snapshotted now.
    pub work: HashMap<OpId, f64>,
}

/// How the suspend plan should be chosen (paper §6 experiment arms).
#[derive(Debug, Clone, PartialEq)]
pub enum SuspendPolicy {
    /// Every operator dumps (the strawman of §2).
    AllDump,
    /// Every operator goes back to the deepest resolvable anchor.
    AllGoBack,
    /// The online optimizer: solve the §5 MIP, minimizing total overhead
    /// subject to an optional suspend budget.
    Optimized {
        /// Suspend-cost budget `C` in simulated cost units; `None` means
        /// unconstrained.
        budget: Option<f64>,
    },
    /// Use a caller-supplied plan verbatim (tests; the static/offline
    /// baseline of Figure 12 is expressed this way by `qsr-planner`).
    Fixed(SuspendPlan),
}

/// One GoBack candidate `x_{i,j}` with its derived constants.
#[derive(Debug, Clone)]
pub struct GoBackCandidate {
    /// The operator making the choice.
    pub i: OpId,
    /// The ancestor (or self) anchoring the chain.
    pub j: OpId,
    /// Resolved chain (checkpoint of `i`, contract enforced on `i`).
    pub chain: ChainResolution,
    /// The paper's `c_{i,j}` flag: 1 ⇒ dump is not viable for `i` when the
    /// parent goes back to `j`.
    pub c: bool,
    /// GoBack suspend cost `g^s_{i,j}`.
    pub g_s: f64,
    /// GoBack resume cost `g^r_{i,j}`.
    pub g_r: f64,
}

/// Result of choosing a suspend plan.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    /// The chosen plan.
    pub plan: SuspendPlan,
    /// Estimated suspend cost of the plan (cost units).
    pub est_suspend_cost: f64,
    /// Estimated resume cost of the plan (cost units).
    pub est_resume_cost: f64,
    /// Which solver produced it.
    pub solver: SolverKind,
    /// Wall-clock time spent optimizing.
    pub elapsed: std::time::Duration,
    /// Branch-and-bound nodes (MIP path only).
    pub nodes: usize,
    /// Anytime-solver statistics (MIP path only; default elsewhere). When
    /// `stats.budget_exhausted` is set the plan is a best-effort incumbent
    /// or a rounded relaxation, not a proved optimum.
    pub stats: SolveStats,
}

/// Which engine produced a suspend plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// A fixed policy (AllDump / AllGoBack / Fixed).
    Policy,
    /// The mixed-integer program via `qsr-mip`.
    Mip,
    /// The structured Pareto-frontier tree DP (`structured` module).
    Structured,
}

impl SuspendProblem {
    fn work_of(&self, op: OpId) -> f64 {
        self.work.get(&op).copied().unwrap_or(0.0)
    }

    fn inputs_of(&self, op: OpId) -> OpSuspendInputs {
        self.inputs.get(&op).copied().unwrap_or_default()
    }

    /// Dump suspend cost `d^s_i`.
    pub fn d_s(&self, op: OpId) -> f64 {
        pages_for_bytes(self.inputs_of(op).heap_bytes) as f64 * self.model.write_page
    }

    /// Dump resume cost `d^r_i`.
    pub fn d_r(&self, op: OpId) -> f64 {
        pages_for_bytes(self.inputs_of(op).heap_bytes) as f64 * self.model.read_page
    }

    /// GoBack suspend cost `g^s` (control state as a page fraction).
    pub fn g_s(&self, op: OpId) -> f64 {
        self.inputs_of(op).control_bytes as f64 / PAGE_SIZE as f64 * self.model.write_page
    }

    /// Redo cost recorded in a side-snapshot subtree: current work minus
    /// work at the snapshot, summed over the subtree.
    fn side_redo(&self, snap: &SideSnapshot) -> f64 {
        let own = (self.work_of(snap.op) - snap.work).max(0.0);
        own + snap.children.iter().map(|s| self.side_redo(s)).sum::<f64>()
    }

    /// Positional-repositioning redo of a contract's side snapshots.
    fn contract_side_redo(&self, ctr: &Contract) -> f64 {
        ctr.sides.iter().map(|s| self.side_redo(s)).sum()
    }

    /// GoBack resume cost `g^r_{i,j}` for a resolved chain.
    pub fn g_r(&self, graph: &ContractGraph, i: OpId, chain: &ChainResolution) -> f64 {
        let ckpt = match graph.checkpoint(chain.ckpt) {
            Some(c) => c,
            None => return 0.0,
        };
        let own = (self.work_of(i) - ckpt.work).max(0.0);
        // Side addend: the positional subtrees of i's rebuild children are
        // repositioned to the side snapshots of the contracts i enforces
        // (the contracts hanging off i's chain checkpoint).
        let mut sides = 0.0;
        for &c in &self.topo.node(i).rebuild_children {
            if let Some(ctr) = graph.contract_from(chain.ckpt, c) {
                sides += self.contract_side_redo(ctr);
            }
        }
        own + sides
    }

    /// Operators inside positional subtrees: they never carry `x`
    /// variables (their suspend handling is pure repositioning).
    pub fn positional_ops(&self) -> HashSet<OpId> {
        let mut set = HashSet::new();
        fn mark(topo: &PlanTopology, op: OpId, set: &mut HashSet<OpId>) {
            set.insert(op);
            for &c in &topo.node(op).children {
                mark(topo, c, set);
            }
        }
        for n in self.topo.nodes() {
            for &c in &n.children {
                if !n.rebuild_children.contains(&c) {
                    mark(&self.topo, c, &mut set);
                }
            }
        }
        set
    }

    /// Enumerate all GoBack candidates `x_{i,j}` with their constants.
    pub fn candidates(&self, graph: &ContractGraph) -> Vec<GoBackCandidate> {
        let positional = self.positional_ops();
        let mut out = Vec::new();
        for n in self.topo.nodes() {
            let i = n.op;
            if positional.contains(&i) {
                continue;
            }
            for j in self.topo.rebuild_ancestors(i) {
                if !self.topo.node(j).stateful {
                    // Only stateful operators can anchor a GoBack chain:
                    // a chain is rooted at a proactive checkpoint, and
                    // going back to "self" is meaningless for stateless
                    // operators (footnote 2 of the paper).
                    continue;
                }
                let Some(chain) = graph.resolve_chain(&self.topo, j, i) else {
                    continue;
                };
                let c = if j == i {
                    false
                } else if n.stateful {
                    // Paper's c_{i,j}: most recent checkpoint after the
                    // chain checkpoint ⇒ heap rebuilt ⇒ cannot dump. Nor
                    // can an operator that says its current state no
                    // longer reproduces what it emitted under the chain.
                    graph.latest_ckpt(i) != Some(chain.ckpt)
                        || self.inputs_of(i).dump_loses_output
                } else {
                    true
                };
                let g_r = self.g_r(graph, i, &chain);
                out.push(GoBackCandidate {
                    i,
                    j,
                    chain,
                    c,
                    g_s: self.g_s(i),
                    g_r,
                });
            }
        }
        out
    }

    /// Estimate (suspend, resume) cost of an arbitrary plan under this
    /// problem's statistics. The plan is assumed valid.
    pub fn evaluate(&self, graph: &ContractGraph, plan: &SuspendPlan) -> (f64, f64) {
        let positional = self.positional_ops();
        let mut s = 0.0;
        let mut r = 0.0;
        for n in self.topo.nodes() {
            let i = n.op;
            if positional.contains(&i) {
                continue;
            }
            match plan.get(i) {
                Strategy::Dump => {
                    s += self.d_s(i);
                    r += self.d_r(i);
                }
                Strategy::GoBack { to } => {
                    s += self.g_s(i);
                    if let Some(chain) = graph.resolve_chain(&self.topo, to, i) {
                        r += self.g_r(graph, i, &chain);
                    }
                }
            }
        }
        (s, r)
    }
}

/// The suspend-plan chooser.
pub struct SuspendOptimizer;

/// Adapter forwarding [`SolveObserver`] callbacks into the trace journal
/// (`qsr-mip` has no dependencies, so it cannot emit directly).
struct MipTraceObserver<'a>(&'a Tracer);

impl SolveObserver for MipTraceObserver<'_> {
    fn on_root(&self, pivots: usize) {
        self.0.emit(TraceEvent::MipPivot { pivots });
    }
    fn on_node(&self, nodes: usize, pivots: usize, bound: f64) {
        self.0.emit(TraceEvent::MipNode {
            nodes,
            pivots,
            bound,
        });
    }
    fn on_incumbent(&self, objective: f64, nodes: usize) {
        self.0.emit(TraceEvent::MipIncumbent { objective, nodes });
    }
}

impl SuspendOptimizer {
    /// Number of MIP variables above which the structured solver is used
    /// instead of the dense simplex (see `structured`).
    pub const STRUCTURED_THRESHOLD: usize = 600;

    /// The solver budget in effect when the caller specifies none: the
    /// `QSR_SOLVE_NODES` environment knob (a node cap), or the solver's
    /// own defensive default. A malformed value is a hard error naming
    /// the variable, not a silent fall-through.
    pub fn default_solve_budget() -> SolveBudget {
        match qsr_storage::env_parse::<usize>("QSR_SOLVE_NODES") {
            Some(n) => SolveBudget::nodes(n),
            None => SolveBudget::default(),
        }
    }

    /// Choose a suspend plan under `policy` with the default solve budget.
    pub fn choose(
        policy: &SuspendPolicy,
        problem: &SuspendProblem,
        graph: &ContractGraph,
    ) -> Result<OptimizeReport> {
        Self::choose_with_budget(policy, problem, graph, &Self::default_solve_budget())
    }

    /// [`Self::choose`], emitting solver progress to `tracer` when present.
    pub fn choose_traced(
        policy: &SuspendPolicy,
        problem: &SuspendProblem,
        graph: &ContractGraph,
        tracer: Option<&Tracer>,
    ) -> Result<OptimizeReport> {
        Self::choose_with_budget_traced(
            policy,
            problem,
            graph,
            &Self::default_solve_budget(),
            tracer,
        )
    }

    /// Choose a suspend plan under `policy`, bounding the MIP search by
    /// `solve_budget`. The result is always *some* plan: on budget expiry
    /// the anytime solver's incumbent or rounded relaxation is used, and
    /// [`OptimizeReport::stats`] says so.
    pub fn choose_with_budget(
        policy: &SuspendPolicy,
        problem: &SuspendProblem,
        graph: &ContractGraph,
        solve_budget: &SolveBudget,
    ) -> Result<OptimizeReport> {
        Self::choose_with_budget_traced(policy, problem, graph, solve_budget, None)
    }

    /// [`Self::choose_with_budget`], emitting `MipPivot` / `MipNode` /
    /// `MipIncumbent` events to `tracer` while the branch-and-bound runs.
    pub fn choose_with_budget_traced(
        policy: &SuspendPolicy,
        problem: &SuspendProblem,
        graph: &ContractGraph,
        solve_budget: &SolveBudget,
        tracer: Option<&Tracer>,
    ) -> Result<OptimizeReport> {
        let start = Instant::now();
        let report = match policy {
            SuspendPolicy::AllDump => {
                let plan = Self::all_dump(problem);
                Self::report(problem, graph, plan, SolverKind::Policy, start, SolveStats::default())
            }
            SuspendPolicy::AllGoBack => {
                let plan = Self::all_goback(problem, graph);
                Self::report(problem, graph, plan, SolverKind::Policy, start, SolveStats::default())
            }
            SuspendPolicy::Fixed(plan) => Self::report(
                problem,
                graph,
                plan.clone(),
                SolverKind::Policy,
                start,
                SolveStats::default(),
            ),
            SuspendPolicy::Optimized { budget } => {
                let cands = problem.candidates(graph);
                if cands.len() > Self::STRUCTURED_THRESHOLD {
                    let plan = crate::structured::solve(problem, graph, &cands, *budget)?;
                    Self::report(
                        problem,
                        graph,
                        plan,
                        SolverKind::Structured,
                        start,
                        SolveStats::default(),
                    )
                } else {
                    let (plan, stats) = Self::solve_mip_budgeted_observed(
                        problem,
                        graph,
                        &cands,
                        *budget,
                        solve_budget,
                        tracer,
                    )?;
                    Self::report(problem, graph, plan, SolverKind::Mip, start, stats)
                }
            }
        };
        Ok(report)
    }

    fn report(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        plan: SuspendPlan,
        solver: SolverKind,
        start: Instant,
        stats: SolveStats,
    ) -> OptimizeReport {
        let (s, r) = problem.evaluate(graph, &plan);
        OptimizeReport {
            plan,
            est_suspend_cost: s,
            est_resume_cost: r,
            solver,
            elapsed: start.elapsed(),
            nodes: stats.nodes,
            stats,
        }
    }

    /// The strawman: every operator dumps.
    pub fn all_dump(problem: &SuspendProblem) -> SuspendPlan {
        let mut plan = SuspendPlan::new();
        for n in problem.topo.nodes() {
            plan.set(n.op, Strategy::Dump);
        }
        plan
    }

    /// All-GoBack: top-down, each operator inherits its parent's anchor
    /// when the chain resolves, otherwise starts a new segment at itself
    /// (stateful with a checkpoint) or falls back to Dump.
    pub fn all_goback(problem: &SuspendProblem, graph: &ContractGraph) -> SuspendPlan {
        let positional = problem.positional_ops();
        let mut plan = SuspendPlan::new();
        let mut anchor: HashMap<OpId, Option<OpId>> = HashMap::new();
        // Walk ops top-down (ids are pre-order, but be safe: use explicit
        // traversal from the root).
        let mut stack = vec![problem.topo.root()];
        while let Some(i) = stack.pop() {
            let n = problem.topo.node(i);
            for &c in &n.children {
                stack.push(c);
            }
            if positional.contains(&i) {
                plan.set(i, Strategy::Dump);
                anchor.insert(i, None);
                continue;
            }
            let inherited = n
                .parent
                .filter(|p| problem.topo.is_rebuild_edge(*p, i))
                .and_then(|p| anchor.get(&p).copied().flatten());
            let choice = match inherited {
                Some(a) if graph.resolve_chain(&problem.topo, a, i).is_some() => Some(a),
                Some(_) => None, // broken chain: cannot happen by construction; dump
                None => {
                    if n.stateful && graph.resolve_chain(&problem.topo, i, i).is_some() {
                        Some(i)
                    } else {
                        None
                    }
                }
            };
            match choice {
                Some(a) => {
                    plan.set(i, Strategy::GoBack { to: a });
                    anchor.insert(i, Some(a));
                }
                None => {
                    plan.set(i, Strategy::Dump);
                    anchor.insert(i, None);
                }
            }
        }
        plan
    }

    /// Build and solve the §5 MIP with the default solve budget. Returns
    /// the plan and branch-and-bound node count. On budget infeasibility,
    /// falls back to all-GoBack (the cheapest-suspend plan available).
    pub fn solve_mip(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        cands: &[GoBackCandidate],
        budget: Option<f64>,
    ) -> Result<(SuspendPlan, usize)> {
        let (plan, stats) =
            Self::solve_mip_budgeted(problem, graph, cands, budget, &SolveBudget::default())?;
        Ok((plan, stats.nodes))
    }

    /// A pure heuristic plan: round the root LP relaxation without any
    /// branch-and-bound (a zero-node [`SolveBudget`]). This is the
    /// degradation ladder's second rung — cheaper than a full solve, still
    /// budget-aware, always terminates after one LP.
    pub fn heuristic_rounded(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        budget: Option<f64>,
    ) -> Result<OptimizeReport> {
        Self::heuristic_rounded_traced(problem, graph, budget, None)
    }

    /// Estimated cost of suspending this query *right now* — the victim-
    /// choice signal for a preemptive scheduler. One root LP plus
    /// rounding (zero branch-and-bound nodes), so it is cheap enough to
    /// evaluate for every live session at each preemption decision. Falls
    /// back to the all-dump strawman's estimate when the LP is
    /// infeasible, and to `f64::INFINITY` when even that fails — an
    /// unestimable session is never picked over an estimable one.
    pub fn victim_signal(problem: &SuspendProblem, graph: &ContractGraph) -> f64 {
        Self::heuristic_rounded(problem, graph, None)
            .or_else(|_| Self::choose(&SuspendPolicy::AllDump, problem, graph))
            .map(|r| r.est_suspend_cost)
            .unwrap_or(f64::INFINITY)
    }

    /// [`Self::heuristic_rounded`], emitting the root-LP pivot count to
    /// `tracer` when present.
    pub fn heuristic_rounded_traced(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        budget: Option<f64>,
        tracer: Option<&Tracer>,
    ) -> Result<OptimizeReport> {
        let start = Instant::now();
        let cands = problem.candidates(graph);
        let (plan, stats) = Self::solve_mip_budgeted_observed(
            problem,
            graph,
            &cands,
            budget,
            &SolveBudget::nodes(0),
            tracer,
        )?;
        Ok(Self::report(problem, graph, plan, SolverKind::Mip, start, stats))
    }

    /// Build the §5 MIP and solve it with the anytime solver under
    /// `solve_budget`. Always produces a plan: a proved optimum, a
    /// budget-expired incumbent, a rounded relaxation, or — when the
    /// program is infeasible (suspend budget below even the cheapest
    /// suspend) — the all-GoBack plan.
    pub fn solve_mip_budgeted(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        cands: &[GoBackCandidate],
        budget: Option<f64>,
        solve_budget: &SolveBudget,
    ) -> Result<(SuspendPlan, SolveStats)> {
        Self::solve_mip_budgeted_observed(problem, graph, cands, budget, solve_budget, None)
    }

    fn solve_mip_budgeted_observed(
        problem: &SuspendProblem,
        graph: &ContractGraph,
        cands: &[GoBackCandidate],
        budget: Option<f64>,
        solve_budget: &SolveBudget,
        tracer: Option<&Tracer>,
    ) -> Result<(SuspendPlan, SolveStats)> {
        let mut lp = LinearProgram::new();
        let mut var_of: HashMap<(OpId, OpId), VarId> = HashMap::new();
        let mut vars_of_op: BTreeMap<OpId, Vec<(OpId, VarId)>> = BTreeMap::new();

        // Objective: constant Σ_i (d^s+d^r) plus per-variable deltas.
        for c in cands {
            let delta = (c.g_s + c.g_r) - (problem.d_s(c.i) + problem.d_r(c.i));
            let v = lp.add_binary_var(delta);
            var_of.insert((c.i, c.j), v);
            vars_of_op.entry(c.i).or_default().push((c.j, v));
        }

        // (3): at most one GoBack anchor per operator.
        for vars in vars_of_op.values() {
            if vars.len() > 1 {
                lp.add_constraint(
                    vars.iter().map(|&(_, v)| (v, 1.0)).collect(),
                    ConstraintOp::Le,
                    1.0,
                );
            }
        }

        for c in cands {
            if c.j == c.i {
                // (5): x_{i,i} + Σ_j x_{par(i),j} <= 1.
                if let Some(p) = problem.topo.node(c.i).parent {
                    if let Some(pvars) = vars_of_op.get(&p) {
                        let mut terms = vec![(var_of[&(c.i, c.i)], 1.0)];
                        terms.extend(pvars.iter().map(|&(_, v)| (v, 1.0)));
                        lp.add_constraint(terms, ConstraintOp::Le, 1.0);
                    }
                }
            } else {
                let p = problem
                    .topo
                    .node(c.i)
                    .parent
                    .expect("non-self candidate has a parent");
                let parent_var = var_of
                    .get(&(p, c.j))
                    .copied()
                    .ok_or_else(|| StorageError::invalid("parent chain var missing"))?;
                let child_var = var_of[&(c.i, c.j)];
                // (4): x_{i,j} <= x_{par(i),j}.
                lp.add_constraint(
                    vec![(child_var, 1.0), (parent_var, -1.0)],
                    ConstraintOp::Le,
                    0.0,
                );
                // (6): x_{i,j} >= x_{par(i),j} when dump is not viable.
                if c.c {
                    lp.add_constraint(
                        vec![(child_var, 1.0), (parent_var, -1.0)],
                        ConstraintOp::Ge,
                        0.0,
                    );
                }
            }
        }

        // (7): suspend budget.
        if let Some(cap) = budget {
            let all_dump_suspend: f64 =
                problem.topo.nodes().iter().map(|n| problem.d_s(n.op)).sum();
            let terms: Vec<(VarId, f64)> = cands
                .iter()
                .map(|c| (var_of[&(c.i, c.j)], c.g_s - problem.d_s(c.i)))
                .collect();
            if !terms.is_empty() {
                lp.add_constraint(terms, ConstraintOp::Le, cap - all_dump_suspend);
            } else if all_dump_suspend > cap {
                // No candidates at all and the dump cost exceeds the budget:
                // nothing better exists; fall through to all-dump.
            }
        }

        let observer = tracer.map(MipTraceObserver);
        let (sol, stats) = qsr_mip::solve_mip_observed(
            &lp,
            solve_budget,
            observer.as_ref().map(|o| o as &dyn SolveObserver),
        );
        match sol {
            MipSolution::Optimal { x, .. } | MipSolution::Heuristic { x, .. } => {
                let mut plan = Self::all_dump(problem);
                for c in cands {
                    let v = var_of[&(c.i, c.j)];
                    if x[v.0] > 0.5 {
                        plan.set(c.i, Strategy::GoBack { to: c.j });
                    }
                }
                Ok((plan, stats))
            }
            MipSolution::Infeasible => {
                // Budget below even the cheapest suspend (or the solve
                // budget expired before any feasible point was found):
                // best effort is all-GoBack (minimal suspend-time work;
                // paper Figure 14's leftmost points).
                Ok((Self::all_goback(problem, graph), stats))
            }
            MipSolution::Unbounded => Err(StorageError::invalid(
                "suspend-plan MIP unbounded: negative cost cycle in inputs",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::test_util::running_example;

    /// Build the running example mid-execution: NLJ1 full buffer (big
    /// heap), NLJ0 partially filled, scans advanced. Mirrors Example 5.
    struct Fixture {
        problem: SuspendProblem,
        graph: ContractGraph,
    }

    fn fixture(scan_r_work_now: f64, nlj0_heap: usize, nlj1_heap: usize) -> Fixture {
        let topo = running_example();
        let mut graph = ContractGraph::new();
        // t0: initial ckpts bottom-up with chain contracts.
        let ck_r = graph.create_checkpoint(OpId(2), vec![0], 0.0);
        let ck_1 = graph.create_checkpoint(OpId(1), vec![], 0.0);
        graph
            .sign_contract(ck_1, OpId(2), ck_r, vec![0], 0.0, vec![])
            .unwrap();
        let ck_0 = graph.create_checkpoint(OpId(0), vec![], 0.0);
        graph
            .sign_contract(
                ck_0,
                OpId(1),
                ck_1,
                vec![1],
                0.0,
                vec![SideSnapshot {
                    op: OpId(3),
                    control: vec![0],
                    work: 0.0,
                    children: vec![],
                }],
            )
            .unwrap();

        let mut inputs = BTreeMap::new();
        inputs.insert(
            OpId(0),
            OpSuspendInputs {
                heap_bytes: nlj0_heap,
                control_bytes: 32,
                ..Default::default()
            },
        );
        inputs.insert(
            OpId(1),
            OpSuspendInputs {
                heap_bytes: nlj1_heap,
                control_bytes: 32,
                ..Default::default()
            },
        );
        for op in [OpId(2), OpId(3), OpId(4)] {
            inputs.insert(
                op,
                OpSuspendInputs {
                    heap_bytes: 0,
                    control_bytes: 16,
                    ..Default::default()
                },
            );
        }
        let mut work = HashMap::new();
        work.insert(OpId(2), scan_r_work_now);
        work.insert(OpId(3), 40.0);
        work.insert(OpId(4), 10.0);
        work.insert(OpId(0), 0.0);
        work.insert(OpId(1), 0.0);

        let problem = SuspendProblem {
            topo,
            model: CostModel::default(),
            inputs,
            work,
        };
        Fixture { problem, graph }
    }

    #[test]
    fn candidates_cover_rebuild_spine_only() {
        let f = fixture(100.0, 8192, 8192 * 100);
        let cands = f.problem.candidates(&f.graph);
        let pairs: Vec<(u32, u32)> = cands.iter().map(|c| (c.i.0, c.j.0)).collect();
        // NLJ0: self. NLJ1: self + NLJ0. ScanR: NLJ1 + NLJ0 (not self:
        // stateless). ScanS / ScanT: positional, no vars.
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
        assert!(pairs.contains(&(1, 0)));
        assert!(pairs.contains(&(2, 1)));
        assert!(pairs.contains(&(2, 0)));
        assert!(!pairs.iter().any(|&(i, _)| i == 3 || i == 4));
        assert!(!pairs.contains(&(2, 2)));
        assert_eq!(pairs.len(), 5);
    }

    #[test]
    fn scan_redo_cost_tracks_chain_depth() {
        let f = fixture(100.0, 0, 0);
        let cands = f.problem.candidates(&f.graph);
        let gr = |i: u32, j: u32| {
            cands
                .iter()
                .find(|c| c.i.0 == i && c.j.0 == j)
                .map(|c| c.g_r)
                .unwrap()
        };
        // Scan R re-reads everything since the t0 contract (work 0 -> 100).
        assert_eq!(gr(2, 1), 100.0);
        assert_eq!(gr(2, 0), 100.0);
        // NLJ1 going back to NLJ0's chain: the contract NLJ1 enforces on
        // scan R hangs off NLJ1's chain checkpoint; NLJ1's own inner scan S
        // is repositioned via the side snapshot on NLJ0->NLJ1's contract —
        // that addend lands on NLJ0's variable, not NLJ1's. NLJ1's own g^r
        // here is its work delta (0) plus the sides of the contract it
        // enforces on scan R (none): 0.
        assert_eq!(gr(1, 1), 0.0);
        assert_eq!(gr(1, 0), 0.0);
        // NLJ0 going back to itself enforces its contract on NLJ1, whose
        // side snapshot repositions scan S (work 0 -> 40): addend 40.
        assert_eq!(gr(0, 0), 40.0);
    }

    #[test]
    fn optimizer_prefers_dump_when_recompute_is_expensive() {
        // Small heap, huge recompute cost: dumping must win.
        let f = fixture(100_000.0, 8192, 8192 * 2);
        let report = SuspendOptimizer::choose(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert_eq!(report.plan.get(OpId(1)), Strategy::Dump);
        assert_eq!(report.plan.get(OpId(0)), Strategy::Dump);
    }

    #[test]
    fn optimizer_prefers_goback_when_heap_is_huge() {
        // Enormous heap, trivial recompute: go back.
        let f = fixture(2.0, 8192 * 4000, 8192 * 4000);
        let report = SuspendOptimizer::choose(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert!(matches!(report.plan.get(OpId(1)), Strategy::GoBack { .. }));
        assert!(matches!(report.plan.get(OpId(0)), Strategy::GoBack { .. }));
        assert_eq!(report.solver, SolverKind::Mip);
    }

    #[test]
    fn budget_forces_goback() {
        // Dump would be optimal (tiny heaps, huge recompute), but the
        // budget cannot afford even those small dumps.
        let f = fixture(10_000.0, 8192, 8192);
        let unconstrained = SuspendOptimizer::choose(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert_eq!(unconstrained.plan.num_goback(), 0);

        let constrained = SuspendOptimizer::choose(
            &SuspendPolicy::Optimized { budget: Some(1.0) },
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert!(constrained.plan.num_goback() >= 2);
        assert!(constrained.est_suspend_cost <= 1.0 + 1e-9);
    }

    #[test]
    fn all_goback_anchors_at_root_of_spine() {
        let f = fixture(10.0, 100, 100);
        let plan = SuspendOptimizer::all_goback(&f.problem, &f.graph);
        assert_eq!(plan.get(OpId(0)), Strategy::GoBack { to: OpId(0) });
        assert_eq!(plan.get(OpId(1)), Strategy::GoBack { to: OpId(0) });
        assert_eq!(plan.get(OpId(2)), Strategy::GoBack { to: OpId(0) });
        // Positional scans dump (trivially).
        assert_eq!(plan.get(OpId(3)), Strategy::Dump);
        assert_eq!(plan.get(OpId(4)), Strategy::Dump);
    }

    #[test]
    fn all_dump_covers_every_operator() {
        let f = fixture(10.0, 100, 100);
        let plan = SuspendOptimizer::all_dump(&f.problem);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.num_goback(), 0);
    }

    #[test]
    fn evaluate_matches_policy_expectations() {
        let f = fixture(100.0, 8192, 8192 * 10);
        let dump = SuspendOptimizer::all_dump(&f.problem);
        let (s, r) = f.problem.evaluate(&f.graph, &dump);
        // d^s of NLJ0 (1 page) + NLJ1 (10 pages) under write=2.5.
        assert_eq!(s, 11.0 * 2.5);
        assert_eq!(r, 11.0 * 1.0);

        let goback = SuspendOptimizer::all_goback(&f.problem, &f.graph);
        let (s2, r2) = f.problem.evaluate(&f.graph, &goback);
        assert!(s2 < 1.0, "goback suspend cost is tiny, got {s2}");
        // Resume: scan R redo 100 + NLJ1 side addend 40.
        assert!((r2 - 140.0).abs() < 1.0, "got {r2}");
    }

    #[test]
    fn fixed_policy_is_passed_through() {
        let f = fixture(10.0, 100, 100);
        let mut plan = SuspendPlan::new();
        plan.set(OpId(0), Strategy::Dump);
        plan.set(OpId(1), Strategy::GoBack { to: OpId(1) });
        let report = SuspendOptimizer::choose(
            &SuspendPolicy::Fixed(plan.clone()),
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert_eq!(report.plan, plan);
        assert_eq!(report.solver, SolverKind::Policy);
    }

    #[test]
    fn stateless_ops_never_anchor_chains() {
        // A filter in the middle of the spine relays contracts but cannot
        // be a GoBack anchor (footnote 2).
        use crate::topology::TopoNode;
        let topo = PlanTopology::new(vec![
            TopoNode {
                op: OpId(0),
                parent: None,
                children: vec![OpId(1)],
                rebuild_children: vec![OpId(1)],
                stateful: true,
                label: "NLJ".into(),
            },
            TopoNode {
                op: OpId(1),
                parent: Some(OpId(0)),
                children: vec![OpId(2)],
                rebuild_children: vec![OpId(2)],
                stateful: false,
                label: "Filter".into(),
            },
            TopoNode {
                op: OpId(2),
                parent: Some(OpId(1)),
                children: vec![],
                rebuild_children: vec![],
                stateful: false,
                label: "Scan".into(),
            },
        ])
        .unwrap();
        let mut graph = ContractGraph::new();
        let ck_s = graph.create_checkpoint(OpId(2), vec![], 0.0);
        let ck_f = graph.create_checkpoint(OpId(1), vec![], 0.0);
        graph
            .sign_contract(ck_f, OpId(2), ck_s, vec![], 0.0, vec![])
            .unwrap();
        let ck_n = graph.create_checkpoint(OpId(0), vec![], 0.0);
        graph
            .sign_contract(ck_n, OpId(1), ck_f, vec![], 0.0, vec![])
            .unwrap();

        let mut inputs = BTreeMap::new();
        for i in 0..3u32 {
            inputs.insert(
                OpId(i),
                OpSuspendInputs {
                    heap_bytes: if i == 0 { 8192 * 4 } else { 0 },
                    control_bytes: 16,
                    ..Default::default()
                },
            );
        }
        let mut work = HashMap::new();
        work.insert(OpId(2), 50.0);
        let problem = SuspendProblem {
            topo,
            model: CostModel::default(),
            inputs,
            work,
        };
        let cands = problem.candidates(&graph);
        // Anchors must all be the stateful NLJ (op 0) — never the filter.
        assert!(cands.iter().all(|c| c.j == OpId(0)));
        // But the filter and scan both carry x_{i,0} candidates.
        assert!(cands.iter().any(|c| c.i == OpId(1)));
        assert!(cands.iter().any(|c| c.i == OpId(2)));
        // And the MIP solves cleanly over this shape.
        let (plan, _) = SuspendOptimizer::solve_mip(&problem, &graph, &cands, None).unwrap();
        let _ = problem.evaluate(&graph, &plan);
    }

    #[test]
    fn barrier_checkpoints_disable_goback_anchoring() {
        let mut f = fixture(10.0, 8192, 8192);
        // Replace NLJ1's latest checkpoint with a barrier.
        f.graph
            .create_barrier_checkpoint(OpId(1), vec![], 0.0);
        let cands = f.problem.candidates(&f.graph);
        assert!(
            !cands.iter().any(|c| c.j == OpId(1)),
            "no chain may anchor at a barrier checkpoint"
        );
    }

    #[test]
    fn zero_node_budget_still_yields_a_valid_plan() {
        // A zero-node solve budget forces the rounded-relaxation path; the
        // result must still be a complete plan over every operator, and
        // the stats must say the answer is heuristic.
        let f = fixture(100.0, 8192 * 100, 8192 * 100);
        let report = SuspendOptimizer::choose_with_budget(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
            &SolveBudget::nodes(0),
        )
        .unwrap();
        assert_eq!(report.plan.len(), 5, "plan must cover all operators");
        assert_eq!(report.solver, SolverKind::Mip);
        assert!(report.stats.budget_exhausted || report.stats.nodes == 0);
        // Whatever came out must evaluate without panicking.
        let _ = f.problem.evaluate(&f.graph, &report.plan);
    }

    #[test]
    fn anytime_plan_never_beats_the_proved_optimum() {
        let f = fixture(1_000.0, 8192 * 40, 8192 * 40);
        let full = SuspendOptimizer::choose_with_budget(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
            &SolveBudget::unlimited(),
        )
        .unwrap();
        assert!(!full.stats.budget_exhausted);
        let best = full.est_suspend_cost + full.est_resume_cost;
        for nodes in [0usize, 1, 2, 3] {
            let r = SuspendOptimizer::choose_with_budget(
                &SuspendPolicy::Optimized { budget: None },
                &f.problem,
                &f.graph,
                &SolveBudget::nodes(nodes),
            )
            .unwrap();
            let total = r.est_suspend_cost + r.est_resume_cost;
            assert!(
                total >= best - 1e-6,
                "budget {nodes}: anytime total {total} beats optimum {best}"
            );
        }
    }

    #[test]
    fn heuristic_rounded_is_one_lp_deep() {
        let f = fixture(100.0, 8192 * 100, 8192 * 100);
        let report = SuspendOptimizer::heuristic_rounded(&f.problem, &f.graph, None).unwrap();
        assert_eq!(report.stats.nodes, 0, "no branch-and-bound nodes allowed");
        assert_eq!(report.plan.len(), 5);
    }

    #[test]
    fn budgeted_suspend_constraint_respected_by_heuristic() {
        // Same setup as budget_forces_goback, through the anytime path
        // with a tiny solve budget: the plan must still respect the
        // suspend budget (or be the all-GoBack fallback, which trivially
        // does).
        let f = fixture(10_000.0, 8192, 8192);
        let r = SuspendOptimizer::choose_with_budget(
            &SuspendPolicy::Optimized { budget: Some(1.0) },
            &f.problem,
            &f.graph,
            &SolveBudget::nodes(0),
        )
        .unwrap();
        assert!(
            r.est_suspend_cost <= 1.0 + 1e-9,
            "heuristic plan blows the suspend budget: {}",
            r.est_suspend_cost
        );
    }

    #[test]
    fn constraint6_forces_chain_when_heap_rebuilt() {
        // Make NLJ1 checkpoint again (heap rebuilt since NLJ0's contract):
        // c_{1,0} becomes 1, so if NLJ0 goes back, NLJ1 must too.
        let mut f = fixture(10.0, 8192 * 4000, 8192);
        let ck_r2 = f.graph.create_checkpoint(OpId(2), vec![9], 10.0);
        let ck_1b = f.graph.create_checkpoint(OpId(1), vec![], 0.0);
        f.graph
            .sign_contract(ck_1b, OpId(2), ck_r2, vec![9], 10.0, vec![])
            .unwrap();

        let cands = f.problem.candidates(&f.graph);
        let c10 = cands.iter().find(|c| c.i.0 == 1 && c.j.0 == 0).unwrap();
        assert!(c10.c, "NLJ1 checkpointed since NLJ0's chain ckpt");

        // NLJ0 has a massive heap: it will go back; NLJ1 must follow.
        let report = SuspendOptimizer::choose(
            &SuspendPolicy::Optimized { budget: None },
            &f.problem,
            &f.graph,
        )
        .unwrap();
        assert_eq!(report.plan.get(OpId(0)), Strategy::GoBack { to: OpId(0) });
        assert_eq!(report.plan.get(OpId(1)), Strategy::GoBack { to: OpId(0) });
    }
}
