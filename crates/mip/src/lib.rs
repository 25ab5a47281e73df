//! # qsr-mip
//!
//! A from-scratch linear-programming and 0/1 mixed-integer-programming
//! solver, built for the online suspend-plan optimizer of the paper
//! *Query Suspend and Resume* (SIGMOD 2007, §5). The paper incorporated a
//! mixed-integer-program solver into PREDATOR; this crate is that
//! substrate.
//!
//! * [`LinearProgram`] — model builder: minimize `c·x` subject to linear
//!   constraints and variable bounds, with any subset of variables marked
//!   binary (0/1).
//! * [`simplex`] — dense two-phase simplex with Bland's anti-cycling rule.
//! * [`branch_bound`] — best-first branch-and-bound over the binary
//!   variables, using the simplex relaxation for bounds.
//!
//! The suspend-plan programs are small (tens to a few hundred variables),
//! so a dense tableau is the right tool: simple, predictable, and fast at
//! this scale. `qsr-core` additionally provides a structured solver for
//! adversarially large plans and property-tests it against this crate.

#![forbid(unsafe_code)]

pub mod admission;
pub mod branch_bound;
pub mod problem;
pub mod simplex;

pub use admission::admission_price;
pub use branch_bound::{
    solve_mip, solve_mip_observed, solve_mip_with_stats, MipOptions, MipSolution, SolveBudget,
    SolveObserver, SolveStats,
};
pub use problem::{Constraint, ConstraintOp, LinearProgram, VarId};
pub use simplex::{solve_lp, solve_lp_counted, LpOutcome, LpSolution};
