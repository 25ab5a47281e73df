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
//!
//! Table 1 — `Suspend()` / `Suspend(Ctr)` × Dump / GoBack — is written
//! once, as the provided bodies of `sign_contract`, `suspend`, `resume`,
//! [`Operator::checkpoint`] and [`Operator::migrate_past`]. An operator
//! supplies only what differs: its control record, its heap image, the
//! [`Cell`] it picks for a mode and strategy, its roll-forward, and which
//! children its checkpoints sign (DESIGN.md §3).

use crate::context::ExecContext;
use crate::ops::Predicate;
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{BlobId, Decode, Encode, Result, Schema, StorageError, Tuple};
use std::collections::VecDeque;

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

/// Where a resume starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeAt {
    /// The current control record.
    Now,
    /// The enforced contract's control record (the current one under
    /// `Suspend()`).
    Target,
    /// The anchor checkpoint's control record.
    Anchor,
}

/// Which contracts a suspend walk enforces on the children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enforce {
    /// None: every child suspends to now.
    Nothing,
    /// The anchor checkpoint's contract, for each child it signed one
    /// with; a child it did not sign (its input had ended) suspends to now.
    Anchor,
    /// The anchor checkpoint's contract for every child: a reactive
    /// checkpoint signs them all, so a missing one is an error.
    Cascade,
}

/// One cell of Table 1 as an operator fills it in for a mode and a
/// strategy. The *anchor* is the latest checkpoint under `Suspend()` and
/// the enforced contract's fulfilling checkpoint under `Suspend(Ctr)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Where the resume starts.
    pub at: ResumeAt,
    /// What the children are suspended under.
    pub enforce: Enforce,
    /// Whether the record's `aux` carries the anchor's control record: the
    /// state a roll-forward starts from.
    pub ship_anchor: bool,
}

impl Cell {
    /// Resume at the current point; the children suspend to now.
    pub const NOW: Cell = Cell::new(ResumeAt::Now, Enforce::Nothing);
    /// Resume at the target, repositioned from the operator's own state;
    /// the children suspend to now.
    pub const TARGET: Cell = Cell::new(ResumeAt::Target, Enforce::Nothing);
    /// GoBack: resume at the target, the children go back to the anchor.
    pub const GO_BACK: Cell = Cell::new(ResumeAt::Target, Enforce::Anchor);
    /// [`Cell::GO_BACK`], shipping the anchor's control for the roll-forward.
    pub const ROLL_FORWARD: Cell = Cell {
        ship_anchor: true,
        ..Cell::GO_BACK
    };

    /// A cell that ships nothing in `aux`.
    pub const fn new(at: ResumeAt, enforce: Enforce) -> Cell {
        Cell {
            at,
            enforce,
            ship_anchor: false,
        }
    }
}

/// What every operator tracks between signing a contract and being
/// suspended or resumed (§3.4).
#[derive(Debug)]
pub struct ContractState {
    /// The latest incoming contract, the one a checkpoint migrates.
    pub last_in_ctr: Option<CtrId>,
    /// Tuples emitted since that contract was signed: a proactive
    /// checkpoint migrates it only while this is 0.
    pub produced_since_sign: u64,
    /// Whether contract migration is enabled (ablation toggle).
    pub migration_enabled: bool,
    /// Tuples saved in an enforced contract, emitted first after a resume.
    pub pending: VecDeque<Tuple>,
}

impl Default for ContractState {
    fn default() -> Self {
        Self {
            last_in_ctr: None,
            produced_since_sign: 0,
            migration_enabled: true,
            pending: VecDeque::new(),
        }
    }
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

    // ---- What each operator supplies to the one Table 1 body. ----

    /// The children, in walk order.
    fn children(&mut self) -> Vec<&mut dyn Operator>;

    /// The children a checkpoint signs a contract with now: the rebuild
    /// children whose input has not ended. Default: every child.
    fn live_children(&mut self) -> Vec<&mut dyn Operator> {
        self.children()
    }

    /// The shared contract bookkeeping.
    fn state(&mut self) -> &mut ContractState;

    /// The encoded control record at the current point.
    fn control(&self) -> Vec<u8>;

    /// Whether the current point is itself a GoBack target, so signing
    /// takes a reactive checkpoint here; otherwise a contract anchors at
    /// the latest proactive checkpoint. Default: yes (stateless).
    fn reactive(&self) -> bool {
        true
    }

    /// Side snapshots of the positional children, carried by every
    /// contract this operator signs or migrates. Default: none.
    fn sides(&mut self, ctx: &mut ExecContext) -> Result<Vec<SideSnapshot>> {
        let _ = ctx;
        Ok(Vec::new())
    }

    /// Seal in-progress writers before a suspend under `strategy`, so
    /// their handles are part of the control record. Default: none.
    fn seal(&mut self, ctx: &mut ExecContext, strategy: Strategy) -> Result<()> {
        let _ = (ctx, strategy);
        Ok(())
    }

    /// The Table 1 cell for `strategy`; `target` is the enforced
    /// contract's control record under `Suspend(Ctr)`. Default: the
    /// stateless cascade — resume at the target, and relay a contract to
    /// every child through the reactive checkpoint that fulfills it.
    fn cell(&self, strategy: Strategy, target: Option<&[u8]>) -> Result<Cell> {
        let _ = strategy;
        Ok(match target {
            None => Cell::TARGET,
            Some(_) => Cell::new(ResumeAt::Target, Enforce::Cascade),
        })
    }

    /// Whether the current heap still yields everything promised under a
    /// contract whose control record is `target`: the paper's
    /// `c_{i,j} = 0`, checked before a Dump under that contract.
    fn dump_serves(&self, target: &[u8]) -> Result<bool> {
        let _ = target;
        Ok(true)
    }

    /// Write the heap image, if there is one, as a dump blob.
    fn dump_heap(&mut self, ctx: &mut ExecContext) -> Result<Option<BlobId>> {
        let _ = ctx;
        Ok(None)
    }

    /// Rebuild the state `rec` records, the children already resumed:
    /// restore the control record and reload, refill or replay the heap.
    fn restore(&mut self, ctx: &mut ExecContext, rec: &OpSuspendRecord) -> Result<()> {
        let _ = (ctx, rec);
        Ok(())
    }

    // ---- The one Table 1 body. ----

    /// Capture a positional side snapshot: control state sufficient to
    /// reposition this subtree to the current point (no replay). Only
    /// scans, filters and projections can sit in a positional subtree;
    /// they return [`positional_snapshot`].
    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot> {
        let _ = ctx;
        Err(StorageError::invalid(format!(
            "{} cannot appear in a positional subtree",
            self.op_id()
        )))
    }

    /// `SignContract(Ckpt)`: establish a contract for the parent's
    /// checkpoint `parent_ckpt`, anchored on a reactive checkpoint taken
    /// here (cascading to the live children) or on the latest proactive
    /// checkpoint — a barrier when there is none yet (resume without a
    /// persisted graph, §3.3: the contract exists but is never offered as
    /// a GoBack chain until the graph re-forms).
    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let (op, control, work) = (self.op_id(), self.control(), ctx.work.get(self.op_id()));
        let anchor = if self.reactive() {
            let ck = ctx.graph.create_checkpoint(op, control.clone(), work);
            for child in self.live_children() {
                child.sign_contract(ctx, ck)?;
            }
            ctx.graph.prune_for(op);
            ck
        } else {
            match ctx.graph.latest_ckpt(op) {
                Some(ck) => ck,
                None => ctx
                    .graph
                    .create_barrier_checkpoint(op, control.clone(), work),
            }
        };
        let sides = self.sides(ctx)?;
        let ctr = ctx
            .graph
            .sign_contract(parent_ckpt, op, anchor, control, work, sides)?;
        let state = self.state();
        state.last_in_ctr = Some(ctr);
        state.produced_since_sign = 0;
        Ok(ctr)
    }

    /// Carry out the suspend phase for this subtree: write this operator's
    /// [`OpSuspendRecord`] into `sq` according to `plan`, and recurse into
    /// the children in the modes the operator's [`Cell`] gives them.
    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        let op = self.op_id();
        let strategy = plan.get(op);
        self.seal(ctx, strategy)?;
        let ctr = match mode {
            SuspendMode::Current => None,
            SuspendMode::Contract(id) => Some(
                ctx.graph
                    .contract(id)
                    .cloned()
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {id}")))?,
            ),
        };
        if let (Some(c), Strategy::Dump) = (&ctr, strategy) {
            if !self.dump_serves(&c.control)? {
                return Err(StorageError::invalid(format!(
                    "{op}: Dump under contract {} is stale: the operator checkpointed past it",
                    c.id
                )));
            }
        }
        let cell = self.cell(strategy, ctr.as_ref().map(|c| c.control.as_slice()))?;
        let anchor = match &ctr {
            Some(c) => Some(c.child_ckpt),
            None if cell.at == ResumeAt::Anchor || cell.enforce != Enforce::Nothing => Some(
                ctx.graph
                    .latest_ckpt(op)
                    .ok_or_else(|| StorageError::invalid(format!("{op} has no checkpoint")))?,
            ),
            None => None,
        };
        let anchor_control = |ctx: &ExecContext| {
            anchor
                .and_then(|ck| ctx.graph.checkpoint(ck))
                .map(|ck| ck.control.clone())
        };
        let resume_point = match (cell.at, &ctr) {
            (ResumeAt::Target, Some(c)) => c.control.clone(),
            (ResumeAt::Anchor, _) => anchor_control(ctx)
                .ok_or_else(|| StorageError::invalid(format!("{op}: anchor checkpoint missing")))?,
            _ => self.control(),
        };
        let heap_dump = match strategy {
            Strategy::Dump => self.dump_heap(ctx)?,
            Strategy::GoBack { .. } => None,
        };
        let aux = match cell.ship_anchor {
            true => anchor_control(ctx).unwrap_or_default(),
            false => Vec::new(),
        };
        let saved_tuples = ctr.as_ref().map(|c| c.saved_tuples.clone());
        sq.put_record(OpSuspendRecord {
            op,
            strategy,
            resume_point,
            heap_dump,
            saved_tuples: saved_tuples.unwrap_or_default(),
            aux,
        });
        for child in self.children() {
            // A positional child the contract carries a snapshot of is
            // repositioned from it (§3.3, skipping), never re-walked.
            let side = ctr
                .as_ref()
                .and_then(|c| c.sides.iter().find(|s| s.op == child.op_id()));
            if let Some(side) = side {
                record_side_snapshot(sq, side);
                continue;
            }
            let found = anchor
                .filter(|_| cell.enforce != Enforce::Nothing)
                .and_then(|ck| ctx.graph.contract_from(ck, child.op_id()))
                .map(|c| c.id);
            let mode = match (found, cell.enforce) {
                (Some(id), _) => SuspendMode::Contract(id),
                (None, Enforce::Cascade) => {
                    return Err(StorageError::invalid(format!(
                        "{op}: checkpoint missing the contract of child {}",
                        child.op_id()
                    )))
                }
                (None, _) => SuspendMode::Current,
            };
            child.suspend(ctx, mode, plan, sq)?;
        }
        Ok(())
    }

    /// Reconstruct execution state from `sq` (children first), so that the
    /// next `next()` call produces the tuple immediately after the last
    /// pre-suspend output: the contract's saved tuples come first.
    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        for child in self.children() {
            child.resume(ctx, sq)?;
        }
        let rec = sq.record(self.op_id())?;
        self.restore(ctx, rec)?;
        let pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
        let state = self.state();
        state.pending = pending;
        state.last_in_ctr = None;
        state.produced_since_sign = 0;
        Ok(())
    }

    /// A proactive checkpoint at the current point (a minimal-heap-state
    /// point or a materialization point): sign the live children, and
    /// migrate the latest incoming contract here if nothing was emitted
    /// since it was signed (§3.4).
    fn checkpoint(&mut self, ctx: &mut ExecContext) -> Result<()>
    where
        Self: Sized,
    {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        let (op, control, work) = (self.op_id(), self.control(), ctx.work.get(self.op_id()));
        let ck = ctx.graph.create_checkpoint(op, control.clone(), work);
        for child in self.live_children() {
            child.sign_contract(ctx, ck)?;
        }
        let state = self.state();
        let dormant = (state.migration_enabled && state.produced_since_sign == 0)
            .then_some(state.last_in_ctr)
            .flatten();
        if let Some(ctr) = dormant {
            if ctx.graph.contract(ctr).is_some() {
                let sides = self.sides(ctx)?;
                let to = Migration::to(ck).with_control(control).with_work(work);
                ctx.graph.migrate_contract(ctr, to.with_sides(sides))?;
            }
        }
        ctx.graph.prune_for(op);
        Ok(())
    }

    /// Contract migration at an output (§3.4, footnote 3): the first
    /// tuple out after a signing takes a reactive checkpoint just past it,
    /// moves the incoming contract there and saves the tuple in it, so the
    /// child never regenerates the prefix that produced nothing.
    fn migrate_past(&mut self, ctx: &mut ExecContext, out: &Tuple) -> Result<()>
    where
        Self: Sized,
    {
        let Some(ctr) = self.state().last_in_ctr.take() else {
            return Ok(());
        };
        let (op, work) = (self.op_id(), ctx.work.get(self.op_id()));
        let ck = ctx.graph.create_checkpoint(op, self.control(), work);
        for child in self.live_children() {
            child.sign_contract(ctx, ck)?;
        }
        let to = Migration::to(ck).saving(out.encode_to_vec());
        ctx.graph.migrate_contract(ctr, to.with_work(work))?;
        ctx.graph.prune_for(op);
        Ok(())
    }
}

/// The side snapshot of a positional operator: its control record and
/// its children's snapshots.
pub fn positional_snapshot<O: Operator + ?Sized>(
    op: &mut O,
    ctx: &mut ExecContext,
) -> Result<SideSnapshot> {
    let (id, control) = (op.op_id(), op.control());
    let children = op
        .children()
        .into_iter()
        .map(|c| c.side_snapshot(ctx))
        .collect::<Result<_>>()?;
    Ok(SideSnapshot {
        op: id,
        control,
        work: ctx.work.get(id),
        children,
    })
}

/// Write resume records for a positional subtree from its side snapshot:
/// each operator is repositioned to the recorded control state — pure
/// seeking, no replay (this is the mechanics behind §3.3's "skipping").
fn record_side_snapshot(sq: &mut SuspendedQuery, snap: &SideSnapshot) {
    sq.put_record(OpSuspendRecord {
        op: snap.op,
        strategy: Strategy::Dump,
        resume_point: snap.control.clone(),
        heap_dump: None,
        saved_tuples: Vec::new(),
        aux: Vec::new(),
    });
    for child in &snap.children {
        record_side_snapshot(sq, child);
    }
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
