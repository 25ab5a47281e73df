//! The extended iterator interface (paper §2 and Table 1).
//!
//! Operators are explicit state machines: `next()` returns
//! [`Poll::Suspended`] when a suspend request lands mid-operation, leaving
//! every field intact so the suspend phase can capture the exact state.
//! The interface extensions are `sign_contract`, `suspend` /
//! `suspend(ctr)` (one method with a [`SuspendMode`] argument), and
//! `resume` — plus `side_snapshot` (positional repositioning) and
//! `rewind` (block-NLJ inner rescans), which the paper leaves implicit in
//! its operator descriptions.

use crate::context::ExecContext;
use crate::ops::Predicate;
use qsr_core::{CkptId, CtrId, OpId, OpSuspendInputs, SideSnapshot, SuspendPlan, SuspendedQuery};
use qsr_storage::{Result, Schema, StorageError, Tuple};

/// Result of pulling one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// The next output tuple.
    Tuple(Tuple),
    /// End of stream.
    Done,
    /// A suspend request was observed; the operator tree is frozen at the
    /// suspend point and control returns to the lifecycle driver.
    Suspended,
}

/// How an operator is being suspended (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendMode {
    /// `Suspend()`: suspend to the current point in time.
    Current,
    /// `Suspend(Ctr)`: suspend to the point where contract `Ctr` was
    /// signed; the operator must be able to regenerate its output from
    /// that point on resume.
    Contract(CtrId),
}

/// A suspendable physical operator.
///
/// `Send` is part of the contract: the threaded scheduler moves whole
/// operator trees (inside a live [`crate::QueryExecution`]) between worker
/// threads, so every operator's state must be transferable. Shared
/// infrastructure (`Database`, pool, ledger) is reached through `Arc`s in
/// the [`ExecContext`]; per-operator state is owned.
pub trait Operator: Send {
    /// This operator's id (stable across suspend/resume).
    fn op_id(&self) -> OpId;

    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Open the operator tree for fresh execution: acquire cursors, open
    /// children, and create the initial proactive checkpoint (stateful
    /// operators checkpoint "just before execution starts", Example 8).
    fn open(&mut self, ctx: &mut ExecContext) -> Result<()>;

    /// Pull the next tuple.
    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll>;

    /// Pull the next tuple that satisfies `pred`, for the filter
    /// `filter_op` above this operator: check for a suspend request, pull,
    /// tick `filter_op`, evaluate, until a tuple passes. This body is the
    /// filter's loop; only [`crate::TableScan`] overrides it, to evaluate
    /// each row on its page and copy only the rows that pass, with the
    /// same suspend checks, ticks and page-read attribution in the same
    /// order.
    fn next_where(
        &mut self,
        ctx: &mut ExecContext,
        filter_op: OpId,
        pred: &Predicate,
    ) -> Result<Poll> {
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            let Some(t) = crate::pull!(self, ctx) else {
                return Ok(Poll::Done);
            };
            ctx.tick(filter_op);
            if pred.eval(t.row())? {
                return Ok(Poll::Tuple(t));
            }
        }
    }

    /// Release resources.
    fn close(&mut self, ctx: &mut ExecContext) -> Result<()>;

    /// `SignContract(Ckpt)`: establish a contract for the parent's
    /// checkpoint `parent_ckpt`, returning the contract id. Stateful
    /// operators rely on their latest proactive checkpoint; stateless ones
    /// create a reactive checkpoint and cascade to their children.
    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId>;

    /// Capture a positional side snapshot: control state sufficient to
    /// reposition this subtree to the current point (no replay). Only
    /// required of operators that can appear in positional subtrees
    /// (scans, filters, projections); others may return an error.
    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot>;

    /// Carry out the suspend phase for this subtree: write this operator's
    /// [`qsr_core::OpSuspendRecord`] into `sq` according to `plan`, and
    /// recurse into children with the appropriate modes.
    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()>;

    /// Reconstruct execution state from `sq` (children first), so that the
    /// next `next()` call produces the tuple immediately after the last
    /// pre-suspend output.
    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()>;

    /// Statistics for the suspend-plan optimizer, snapshotted at suspend
    /// time.
    fn suspend_inputs(&self) -> OpSuspendInputs;

    /// Restart this operator's output from the beginning (block-NLJ inner
    /// rescans). Only rescannable subtrees (scan / filter / project chains)
    /// support it.
    fn rewind(&mut self, ctx: &mut ExecContext) -> Result<()> {
        let _ = ctx;
        Err(StorageError::invalid(format!(
            "{} does not support rewind",
            self.op_id()
        )))
    }

    /// Visit this operator and all descendants (driver utility).
    fn visit(&self, f: &mut dyn FnMut(&dyn Operator));

    /// Visit this operator and all descendants mutably. The driver uses
    /// this to run a *shadow* suspend pass on one subtree when generating
    /// GoBack fallback records for an operator whose primary strategy is
    /// DumpState.
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator));
}

/// Pull from a child, forwarding `Suspended`/`Done` upward. Usage:
/// `let t = match child.next(ctx)? { ... }` is verbose; this macro keeps
/// operator code at the paper's pseudocode altitude.
#[macro_export]
macro_rules! pull {
    ($child:expr, $ctx:expr) => {
        match $child.next($ctx)? {
            $crate::operator::Poll::Tuple(t) => Some(t),
            $crate::operator::Poll::Done => None,
            $crate::operator::Poll::Suspended => return Ok($crate::operator::Poll::Suspended),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_equality() {
        assert_eq!(Poll::Done, Poll::Done);
        assert_ne!(Poll::Done, Poll::Suspended);
    }

    #[test]
    fn suspend_mode_carries_contract() {
        let m = SuspendMode::Contract(CtrId(4));
        assert!(matches!(m, SuspendMode::Contract(CtrId(4))));
        assert_eq!(SuspendMode::Current, SuspendMode::Current);
    }
}
