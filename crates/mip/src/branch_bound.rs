//! Best-first branch-and-bound over binary variables, with anytime
//! (budget-bounded) semantics.
//!
//! The LP relaxation (via [`solve_lp_counted`]) provides lower bounds; branching
//! fixes the most fractional binary variable to 0 and 1. For the
//! suspend-plan programs of the paper the relaxation is usually integral
//! or nearly so, so the tree stays tiny — but a hostile program can blow
//! the tree up, and a suspend deadline cannot wait for it. A
//! [`SolveBudget`] caps the search by explored nodes and by total simplex
//! pivots; when the budget expires the solver returns its best incumbent
//! (or an LP-relaxation-rounded heuristic point if no incumbent exists
//! yet) as [`MipSolution::Heuristic`] instead of running unbounded, and
//! [`SolveStats`] reports how hard it tried and how far off the answer
//! may be.

use crate::problem::LinearProgram;
use crate::simplex::{solve_lp_counted, LpOutcome};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Integrality tolerance.
const INT_TOL: f64 = 1e-6;

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of explored nodes (defensive cap).
    pub max_nodes: usize,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self { max_nodes: 100_000 }
    }
}

/// An anytime-search budget: the solve stops as soon as either limit is
/// reached and reports the best answer it has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveBudget {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// Maximum total simplex pivots across all LP relaxations (the actual
    /// unit of solver work; a single hard relaxation can dwarf many easy
    /// nodes).
    pub max_pivots: usize,
}

impl SolveBudget {
    /// A node-count budget with unmetered pivots.
    pub fn nodes(max_nodes: usize) -> Self {
        Self {
            max_nodes,
            max_pivots: usize::MAX,
        }
    }

    /// Effectively unlimited search (still bounded by the defensive
    /// default node cap's numeric range, i.e. never stops early).
    pub fn unlimited() -> Self {
        Self {
            max_nodes: usize::MAX,
            max_pivots: usize::MAX,
        }
    }
}

impl Default for SolveBudget {
    fn default() -> Self {
        Self::nodes(MipOptions::default().max_nodes)
    }
}

/// Statistics describing how a [`solve_mip_with_stats`] run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex pivots spent across all relaxations.
    pub pivots: usize,
    /// True when the budget expired with provably unexplored work left —
    /// the returned solution (if any) is an incumbent, not a proved
    /// optimum.
    pub budget_exhausted: bool,
    /// Relative optimality gap of the returned solution: `(objective -
    /// best_remaining_bound) / max(1, |objective|)`. Zero when the search
    /// completed (the answer is proved optimal).
    pub incumbent_gap: f64,
    /// True when the returned solution came from rounding the root LP
    /// relaxation rather than from the branch-and-bound tree.
    pub rounded: bool,
}

/// Result of a MIP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum MipSolution {
    /// Optimal integral solution found.
    Optimal {
        /// The assignment.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
        /// Number of branch-and-bound nodes explored.
        nodes: usize,
    },
    /// A feasible integral solution that is *not* proved optimal: the
    /// budget expired and this is the best incumbent (or a rounded
    /// LP-relaxation point — see [`SolveStats::rounded`]).
    Heuristic {
        /// The assignment.
        x: Vec<f64>,
        /// Objective value.
        objective: f64,
    },
    /// No feasible integral assignment exists.
    Infeasible,
    /// Objective unbounded below.
    Unbounded,
}

impl MipSolution {
    /// Unwrap the optimal assignment (test helper).
    pub fn expect_optimal(self) -> (Vec<f64>, f64) {
        match self {
            MipSolution::Optimal { x, objective, .. } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}

struct Node {
    bound: f64,
    program: LinearProgram,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    // BinaryHeap is a max-heap; invert so the *lowest* bound pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.bound.total_cmp(&self.bound)
    }
}

fn most_fractional_binary(lp: &LinearProgram, x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &is_bin) in lp.binaries().iter().enumerate() {
        if !is_bin {
            continue;
        }
        let frac = (x[i] - x[i].round()).abs();
        if frac > INT_TOL {
            let dist = (x[i].fract() - 0.5).abs();
            if best.is_none_or(|(_, d)| dist < d) {
                best = Some((i, dist));
            }
        }
    }
    best.map(|(i, _)| i)
}

/// Round the binary coordinates of an LP-relaxation point and keep the
/// best rounding that the model itself accepts as feasible. Continuous
/// variables keep their relaxation values, so a rounding can break a
/// coupled constraint — `is_feasible` is the arbiter.
fn round_relaxation(lp: &LinearProgram, relax: &[f64]) -> Option<(Vec<f64>, f64)> {
    let roundings: [fn(f64) -> f64; 3] = [f64::round, f64::floor, f64::ceil];
    let mut best: Option<(Vec<f64>, f64)> = None;
    for round in roundings {
        let mut x = relax.to_vec();
        for (i, &b) in lp.binaries().iter().enumerate() {
            if b {
                x[i] = round(x[i]).clamp(0.0, 1.0);
            }
        }
        if lp.is_feasible(&x, INT_TOL) {
            let obj = lp.objective_value(&x);
            if best.as_ref().is_none_or(|(_, o)| obj < *o - 1e-12) {
                best = Some((x, obj));
            }
        }
    }
    best
}

/// Solve `lp` to integral optimality over its binary variables.
///
/// Compatibility wrapper over [`solve_mip_with_stats`] with a node-only
/// budget; a budget-expired incumbent is reported as `Optimal` exactly as
/// the pre-anytime solver did.
pub fn solve_mip(lp: &LinearProgram, opts: &MipOptions) -> MipSolution {
    let (sol, stats) = solve_mip_with_stats(lp, &SolveBudget::nodes(opts.max_nodes));
    match sol {
        MipSolution::Heuristic { x, objective } if !stats.rounded => MipSolution::Optimal {
            x,
            objective,
            nodes: stats.nodes,
        },
        // A rounded point is not something the pre-anytime solver could
        // produce; its callers treated budget exhaustion without an
        // incumbent as infeasibility.
        MipSolution::Heuristic { .. } => MipSolution::Infeasible,
        other => other,
    }
}

/// Anytime solve: explore until proved optimal or `budget` expires,
/// whichever comes first, and report what happened in [`SolveStats`].
///
/// On budget expiry the result is [`MipSolution::Heuristic`] — the best
/// incumbent, or a feasible rounding of the root relaxation when the tree
/// produced no incumbent yet. Only when neither exists does an exhausted
/// solve report `Infeasible` (with `budget_exhausted` set, so the caller
/// knows infeasibility was *not* proved).
pub fn solve_mip_with_stats(lp: &LinearProgram, budget: &SolveBudget) -> (MipSolution, SolveStats) {
    let mut stats = SolveStats::default();

    // Root relaxation.
    let (root_outcome, root_pivots) = solve_lp_counted(lp);
    stats.pivots += root_pivots;
    let root = match root_outcome {
        LpOutcome::Optimal(s) => s,
        LpOutcome::Infeasible => return (MipSolution::Infeasible, stats),
        LpOutcome::Unbounded => return (MipSolution::Unbounded, stats),
    };
    let root_bound = root.objective;

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: root_bound,
        program: lp.clone(),
    });

    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let mut budget_hit = false;

    loop {
        if stats.nodes >= budget.max_nodes || stats.pivots >= budget.max_pivots {
            budget_hit = true;
            break;
        }
        let Some(node) = heap.pop() else { break };
        // Prune by bound against the incumbent.
        if let Some((_, inc_obj)) = &incumbent {
            if node.bound >= *inc_obj - 1e-9 {
                continue;
            }
        }
        stats.nodes += 1;
        let (outcome, pivots) = solve_lp_counted(&node.program);
        stats.pivots += pivots;
        let sol = match outcome {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => return (MipSolution::Unbounded, stats),
        };
        if let Some((_, inc_obj)) = &incumbent {
            if sol.objective >= *inc_obj - 1e-9 {
                continue;
            }
        }
        match most_fractional_binary(lp, &sol.x) {
            None => {
                // Integral: round binaries exactly and record incumbent.
                let mut x = sol.x.clone();
                for (i, &b) in lp.binaries().iter().enumerate() {
                    if b {
                        x[i] = x[i].round();
                    }
                }
                let obj = lp.objective_value(&x);
                let better = incumbent.as_ref().is_none_or(|(_, o)| obj < *o - 1e-12);
                if better {
                    incumbent = Some((x, obj));
                }
            }
            Some(v) => {
                for val in [0.0, 1.0] {
                    let child = node.program.with_fixed(crate::problem::VarId(v), val);
                    heap.push(Node {
                        bound: sol.objective,
                        program: child,
                    });
                }
            }
        }
    }

    // The budget only "exhausted" the search if work provably remains: a
    // node whose bound could still beat the incumbent.
    let best_remaining = heap.peek().map(|n| n.bound);
    stats.budget_exhausted = budget_hit
        && match (&incumbent, best_remaining) {
            (_, None) => false,
            (Some((_, obj)), Some(b)) => b < *obj - 1e-9,
            (None, Some(_)) => true,
        };

    if !stats.budget_exhausted {
        return match incumbent {
            Some((x, objective)) => (
                MipSolution::Optimal {
                    x,
                    objective,
                    nodes: stats.nodes,
                },
                stats,
            ),
            None => (MipSolution::Infeasible, stats),
        };
    }

    // Anytime exit: best incumbent first, rounded root relaxation second.
    let gap = |obj: f64, bound: f64| ((obj - bound) / obj.abs().max(1.0)).max(0.0);
    if let Some((x, objective)) = incumbent {
        stats.incumbent_gap = gap(objective, best_remaining.unwrap_or(objective));
        return (MipSolution::Heuristic { x, objective }, stats);
    }
    if let Some((x, objective)) = round_relaxation(lp, &root.x) {
        stats.rounded = true;
        stats.incumbent_gap = gap(objective, root_bound);
        return (MipSolution::Heuristic { x, objective }, stats);
    }
    (MipSolution::Infeasible, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp::*, LinearProgram, VarId};

    fn near(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c with 3a + 4b + 2c <= 6  (min of negation)
        // Optimal integral: a=0, b=1, c=1 => 20.
        let mut lp = LinearProgram::new();
        let a = lp.add_binary_var(-10.0);
        let b = lp.add_binary_var(-13.0);
        let c = lp.add_binary_var(-7.0);
        lp.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Le, 6.0);
        let (x, obj) = solve_mip(&lp, &MipOptions::default()).expect_optimal();
        assert!(near(obj, -20.0), "got {obj}");
        assert_eq!(
            x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
    }

    #[test]
    fn binary_infeasible() {
        let mut lp = LinearProgram::new();
        let a = lp.add_binary_var(1.0);
        lp.add_constraint(vec![(a, 1.0)], Ge, 2.0);
        assert_eq!(solve_mip(&lp, &MipOptions::default()), MipSolution::Infeasible);
    }

    #[test]
    fn mixed_continuous_and_binary() {
        // min 5y + x  s.t. x >= 3 - 10y, x >= 0, y binary.
        // y=0 => x=3, cost 3; y=1 => x=0, cost 5. Optimal 3.
        let mut lp = LinearProgram::new();
        let y = lp.add_binary_var(5.0);
        let x = lp.add_var(1.0, 0.0, f64::INFINITY);
        lp.add_constraint(vec![(x, 1.0), (y, 10.0)], Ge, 3.0);
        let (sol, obj) = solve_mip(&lp, &MipOptions::default()).expect_optimal();
        assert!(near(obj, 3.0), "got {obj}");
        assert!(near(sol[0], 0.0));
        assert!(near(sol[1], 3.0));
    }

    #[test]
    fn at_most_one_structure() {
        // The suspend-plan skeleton: per operator, sum of goback vars <= 1;
        // costs drive selection.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_binary_var(2.0);
        let x2 = lp.add_binary_var(1.0);
        // Choosing neither costs 10 (modeled as constant via objective trick):
        // min 10(1 - x1 - x2) + 2x1 + 1x2 = 10 - 8x1 - 9x2.
        let mut lp2 = LinearProgram::new();
        let y1 = lp2.add_binary_var(-8.0);
        let y2 = lp2.add_binary_var(-9.0);
        lp2.add_constraint(vec![(y1, 1.0), (y2, 1.0)], Le, 1.0);
        let (x, obj) = solve_mip(&lp2, &MipOptions::default()).expect_optimal();
        assert!(near(obj, -9.0));
        assert!(near(x[0], 0.0) && near(x[1], 1.0));
        let _ = (x1, x2, &lp);
    }

    #[test]
    fn exhaustive_agreement_on_random_small_mips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for trial in 0..60 {
            let nv = rng.gen_range(1..=6);
            let mut lp = LinearProgram::new();
            let vars: Vec<VarId> = (0..nv)
                .map(|_| lp.add_binary_var(rng.gen_range(-5.0..5.0)))
                .collect();
            for _ in 0..rng.gen_range(0..=4) {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for &v in &vars {
                    if rng.gen_bool(0.7) {
                        terms.push((v, rng.gen_range(-3.0..3.0)));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let op = if rng.gen_bool(0.5) { Le } else { Ge };
                lp.add_constraint(terms, op, rng.gen_range(-2.0..4.0));
            }

            // Brute force over all 2^nv assignments.
            let mut best: Option<f64> = None;
            for mask in 0..(1u32 << nv) {
                let x: Vec<f64> = (0..nv)
                    .map(|i| ((mask >> i) & 1) as f64)
                    .collect();
                if lp.is_feasible(&x, 1e-9) {
                    let obj = lp.objective_value(&x);
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }

            match (solve_mip(&lp, &MipOptions::default()), best) {
                (MipSolution::Optimal { objective, .. }, Some(b)) => {
                    assert!(
                        near(objective, b),
                        "trial {trial}: solver {objective} vs brute {b}\n{lp}"
                    );
                }
                (MipSolution::Infeasible, None) => {}
                (got, want) => panic!("trial {trial}: solver {got:?} vs brute {want:?}"),
            }
        }
    }

    #[test]
    fn node_count_reported() {
        let mut lp = LinearProgram::new();
        let a = lp.add_binary_var(-1.0);
        let b = lp.add_binary_var(-1.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Le, 1.5);
        match solve_mip(&lp, &MipOptions::default()) {
            MipSolution::Optimal { nodes, .. } => assert!(nodes >= 1),
            other => panic!("{other:?}"),
        }
    }

    /// A knapsack whose relaxation is fractional, so the tree has real work.
    fn fractional_knapsack() -> LinearProgram {
        let mut lp = LinearProgram::new();
        let a = lp.add_binary_var(-10.0);
        let b = lp.add_binary_var(-13.0);
        let c = lp.add_binary_var(-7.0);
        lp.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Le, 6.0);
        lp
    }

    #[test]
    fn completed_search_reports_zero_gap_and_no_exhaustion() {
        let (sol, stats) =
            solve_mip_with_stats(&fractional_knapsack(), &SolveBudget::unlimited());
        match sol {
            MipSolution::Optimal { objective, .. } => assert!(near(objective, -20.0)),
            other => panic!("{other:?}"),
        }
        assert!(!stats.budget_exhausted);
        assert!(!stats.rounded);
        assert!(near(stats.incumbent_gap, 0.0));
        assert!(stats.nodes >= 1 && stats.pivots >= 1);
    }

    #[test]
    fn zero_node_budget_returns_rounded_relaxation() {
        // No tree nodes at all: the solver must fall back to rounding the
        // root relaxation, and the rounding must be model-feasible.
        let lp = fractional_knapsack();
        let (sol, stats) = solve_mip_with_stats(&lp, &SolveBudget::nodes(0));
        assert!(stats.budget_exhausted);
        assert!(stats.rounded);
        match sol {
            MipSolution::Heuristic { x, objective } => {
                assert!(lp.is_feasible(&x, 1e-6), "rounded point infeasible: {x:?}");
                assert!(near(lp.objective_value(&x), objective));
                // Gap is measured against the root bound, which is a true
                // lower bound, so the heuristic can never beat it.
                assert!(stats.incumbent_gap >= -1e-9);
            }
            other => panic!("expected heuristic, got {other:?}"),
        }
    }

    #[test]
    fn pivot_budget_also_stops_the_search() {
        let lp = fractional_knapsack();
        let (sol, stats) = solve_mip_with_stats(
            &lp,
            &SolveBudget {
                max_nodes: usize::MAX,
                max_pivots: 1,
            },
        );
        assert!(stats.budget_exhausted, "one pivot cannot finish this tree");
        match sol {
            MipSolution::Heuristic { x, .. } => assert!(lp.is_feasible(&x, 1e-6)),
            MipSolution::Infeasible => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn heuristic_objective_never_beats_true_optimum() {
        // For every budget size the anytime answer is feasible and its
        // objective is >= the proved optimum (minimization).
        let lp = fractional_knapsack();
        let (opt, _) = solve_mip_with_stats(&lp, &SolveBudget::unlimited());
        let MipSolution::Optimal { objective: best, .. } = opt else {
            panic!("knapsack must be solvable");
        };
        for nodes in 0..6 {
            let (sol, stats) = solve_mip_with_stats(&lp, &SolveBudget::nodes(nodes));
            match sol {
                MipSolution::Optimal { objective, .. } => assert!(near(objective, best)),
                MipSolution::Heuristic { x, objective } => {
                    assert!(lp.is_feasible(&x, 1e-6));
                    assert!(objective >= best - 1e-9, "{objective} beats optimum {best}");
                    assert!(stats.budget_exhausted);
                }
                other => panic!("budget {nodes}: {other:?}"),
            }
        }
    }

    #[test]
    fn legacy_wrapper_maps_budget_incumbent_to_optimal() {
        // The pre-anytime API reported a budget-expired incumbent as
        // Optimal; the wrapper must preserve that for its callers.
        let lp = fractional_knapsack();
        for max_nodes in 1..6 {
            match solve_mip(&lp, &MipOptions { max_nodes }) {
                MipSolution::Optimal { x, .. } => assert!(lp.is_feasible(&x, 1e-6)),
                MipSolution::Infeasible => {} // no incumbent yet at this budget
                other => panic!("max_nodes {max_nodes}: {other:?}"),
            }
        }
    }
}
