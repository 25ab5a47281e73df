//! # qsr-mip
//!
//! A from-scratch linear-programming and 0/1 mixed-integer-programming
//! solver: the reference solver for the suspend-plan program of the paper
//! *Query Suspend and Resume* (SIGMOD 2007, §5). The paper incorporated a
//! mixed-integer-program solver into PREDATOR; this crate solves the same
//! program literally. The engine never runs it: `qsr-core`'s tree DP
//! answers every suspend, and is property-tested equal to this crate's
//! answer (and timed beside it in Table 2).
//!
//! * [`LinearProgram`] — model builder: minimize `c·x` subject to linear
//!   constraints and variable bounds, with any subset of variables marked
//!   binary (0/1).
//! * [`simplex`] — dense two-phase simplex with Bland's anti-cycling rule.
//! * [`branch_bound`] — best-first branch-and-bound over the binary
//!   variables, using the simplex relaxation for bounds.
//!
//! The suspend-plan programs are small (tens to a few hundred variables),
//! so a dense tableau is the right tool: simple, predictable, and easy to
//! trust as a reference.

#![forbid(unsafe_code)]

pub mod branch_bound;
pub mod problem;
pub mod simplex;

pub use branch_bound::{
    solve_mip, solve_mip_with_stats, MipOptions, MipSolution, SolveBudget, SolveStats,
};
pub use problem::{Constraint, ConstraintOp, LinearProgram, VarId};
pub use simplex::{solve_lp, solve_lp_counted, LpOutcome, LpSolution};
