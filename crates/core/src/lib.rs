//! # qsr-core
//!
//! The primary contribution of *Query Suspend and Resume* (SIGMOD 2007):
//! semantics-driven **asynchronous checkpointing** of physical query
//! operators, coordinated through **contracts**, plus the **online
//! suspend-plan optimizer** that picks DumpState/GoBack per operator at
//! suspend time under a suspend-cost budget.
//!
//! The crate is executor-agnostic: `qsr-exec` plugs its operators into
//! these mechanisms through small, explicit data types.
//!
//! * [`ids`] — operator / checkpoint / contract identifiers.
//! * [`topology`] — the shape of a physical plan (parents, children,
//!   which child edges *rebuild* an operator's heap state vs. merely need
//!   repositioning), used by both the contract graph and the optimizer.
//! * [`graph`] — checkpoints (Def. 1), contracts (Def. 2), the contract
//!   graph (§3.1) with inactive-node pruning (§3.4, Theorem 1) and
//!   contract migration (§3.4).
//! * [`suspended`] — the `SuspendedQuery` structure (§2) written at
//!   suspend and read at resume.
//! * [`optimizer`] — the §5 mixed-integer program, generated from the live
//!   contract graph and per-operator statistics, solved via `qsr-mip`;
//!   plus the purist policies (all-DumpState, all-GoBack) and the static
//!   table-statistics baseline of Figure 12.
//! * [`structured`] — an exact Pareto-frontier tree-DP solver for the same
//!   problem, used for very large plans and property-tested against the
//!   MIP path.
//! * [`work`] — per-operator cumulative-work tracking feeding the
//!   optimizer's `g^r` terms.

#![forbid(unsafe_code)]

pub mod batch;
pub mod graph;
pub mod ids;
pub mod optimizer;
pub mod structured;
pub mod suspended;
pub mod topology;
pub mod work;

pub use batch::{Batch, ColumnVec};
pub use graph::{Checkpoint, Contract, ContractGraph, Migration, SideSnapshot};
pub use ids::{CkptId, CtrId, OpId};
pub use optimizer::{
    GoBackCandidate, OpSuspendInputs, OptimizeReport, SolverKind, SuspendOptimizer,
    SuspendPolicy, SuspendProblem,
};
pub use qsr_mip::{SolveBudget, SolveStats};
pub use suspended::{OpSuspendRecord, Strategy, SuspendPlan, SuspendedQuery};
pub use topology::{PlanTopology, TopoNode};
pub use work::WorkTable;
