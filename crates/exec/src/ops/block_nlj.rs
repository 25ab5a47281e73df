//! Block-based nested-loop join — the paper's running example.
//!
//! The outer child fills a large in-memory buffer (the *heap state*); the
//! inner child is then rescanned, joining each inner tuple against the
//! buffer. The buffer is discarded at the end of each batch — the
//! *minimal-heap-state point* — where the operator creates its proactive
//! checkpoint and signs fresh contracts with the outer (rebuild) child.
//! The inner child is *positional*: contracts carry a side snapshot of its
//! position, and resume merely seeks it (§3.3, skipping versus redoing).
//!
//! The join emits exactly the nested loop's sequence — for each inner
//! tuple, the equal-key buffered rows in buffer order — but finds them
//! through a key → positions index over the buffer instead of comparing
//! the inner tuple with every buffered row. The control state is the
//! nested loop's: after a match, `cursor` is one past the matched row;
//! when no match is left, `cursor` is the fill level and the inner tuple
//! is dropped.
//!
//! Contract migration (§3.4 case 1): if a whole batch produces no join
//! output, incoming contracts migrate forward to the new checkpoint.
//!
//! ### Suspend semantics under an enforced contract
//!
//! When the parent enforces contract `Ctr` (signed at time `t_s`) and this
//! operator **dumps** (valid only when no checkpoint was created since
//! `Ctr`'s chain checkpoint — the paper's `c_{i,j} = 0` condition):
//!
//! * if the operator was *filling* at `t_s`, it had produced no output
//!   since `t_s`; the dumped (possibly fuller) buffer plus the *current*
//!   control state reproduce all future outputs, so resume continues from
//!   the current fill point;
//! * if it was *joining* at `t_s`, the buffer is unchanged since `t_s`;
//!   resume restores `Ctr`'s cursor / inner tuple over the dumped buffer.
//!
//! When it **goes back**, resume refills the buffer to `Ctr`'s fill level
//! through the outer child (repositioned via the checkpoint's contract)
//! and then restores `Ctr`'s control state directly — no joins are
//! recomputed.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use crate::ops::record_side_snapshot;
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, KeyedRows, Result, RowBuffer, Schema, StorageError, Tuple,
};
use std::collections::VecDeque;

const PHASE_FILL: u8 = 0;
const PHASE_JOIN: u8 = 1;

/// Serializable control state (paper §2: "NLJ's control state consists of
/// a tuple from its inner child and a cursor over the outer buffer" — plus
/// the fill level and phase needed for exact mid-fill suspension).
#[derive(Debug, Clone, PartialEq)]
struct NljControl {
    phase: u8,
    fill: u64,
    cursor: u64,
    inner_tuple: Option<Tuple>,
    outer_done: bool,
}

impl Encode for NljControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.phase);
        enc.put_u64(self.fill);
        enc.put_u64(self.cursor);
        enc.put_option(&self.inner_tuple);
        enc.put_bool(self.outer_done);
    }
}

impl Decode for NljControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(NljControl {
            phase: dec.get_u8()?,
            fill: dec.get_u64()?,
            cursor: dec.get_u64()?,
            inner_tuple: dec.get_option()?,
            outer_done: dec.get_bool()?,
        })
    }
}

/// Block-based nested-loop equi-join.
pub struct BlockNlj {
    op: OpId,
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    outer_key: usize,
    inner_key: usize,
    buffer_size: usize,
    schema: Schema,

    /// The outer rows of the current block, found by join key.
    buffer: KeyedRows,
    phase: u8,
    cursor: usize,
    inner_tuple: Option<Tuple>,
    outer_done: bool,

    /// Latest incoming contract + outputs since, for migration.
    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
}

impl BlockNlj {
    /// Create a block NLJ joining `outer.outer_key == inner.inner_key`
    /// with an outer buffer of `buffer_size` tuples.
    pub fn new(
        op: OpId,
        outer: Box<dyn Operator>,
        inner: Box<dyn Operator>,
        outer_key: usize,
        inner_key: usize,
        buffer_size: usize,
    ) -> Self {
        let schema = outer.schema().join(inner.schema());
        Self {
            op,
            outer,
            inner,
            outer_key,
            inner_key,
            buffer_size,
            schema,
            buffer: KeyedRows::new(outer_key),
            phase: PHASE_FILL,
            cursor: 0,
            inner_tuple: None,
            outer_done: false,
            last_in_ctr: None,
            produced_since_sign: 0,
            migration_enabled: true,
            pending: VecDeque::new(),
        }
    }

    /// Disable contract migration (ablation toggle).
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    fn control(&self) -> NljControl {
        NljControl {
            phase: self.phase,
            fill: self.buffer.rows().len() as u64,
            cursor: self.cursor as u64,
            inner_tuple: self.inner_tuple.clone(),
            outer_done: self.outer_done,
        }
    }

    /// Proactive checkpoint at the minimal-heap-state point (buffer just
    /// cleared), with contract signing on the rebuild (outer) child and
    /// migration of a dormant incoming contract.
    fn checkpoint(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        debug_assert!(self.buffer.rows().is_empty());
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        self.outer.sign_contract(ctx, ck)?;
        if self.migration_enabled && self.produced_since_sign == 0 {
            if let Some(ctr) = self.last_in_ctr {
                if ctx.graph.contract(ctr).is_some() {
                    let sides = vec![self.inner.side_snapshot(ctx)?];
                    ctx.graph.migrate_contract(
                        ctr,
                        Migration::to(ck)
                            .with_control(control)
                            .with_work(work)
                            .with_sides(sides),
                    )?;
                }
            }
        }
        ctx.graph.prune_for(self.op);
        Ok(())
    }

    /// Restore machine state from an encoded control record.
    fn restore_control(&mut self, c: &NljControl) {
        self.phase = c.phase;
        self.cursor = c.cursor as usize;
        self.inner_tuple = c.inner_tuple.clone();
        self.outer_done = c.outer_done;
    }
}

impl Operator for BlockNlj {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.open(ctx)?;
        self.inner.open(ctx)?;
        // Initial proactive checkpoint "just before execution starts".
        self.checkpoint(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            if self.phase == PHASE_FILL {
                if !self.outer_done && self.buffer.rows().len() < self.buffer_size {
                    match self.outer.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.buffer.push(t.row());
                            ctx.tick(self.op);
                        }
                        Poll::Done => self.outer_done = true,
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                } else if self.buffer.rows().is_empty() {
                    debug_assert!(self.outer_done);
                    return Ok(Poll::Done);
                } else {
                    self.inner.rewind(ctx)?;
                    self.inner_tuple = None;
                    self.cursor = 0;
                    self.phase = PHASE_JOIN;
                }
            } else {
                // PHASE_JOIN
                match &self.inner_tuple {
                    None => match self.inner.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.inner_tuple = Some(t);
                            self.cursor = 0;
                        }
                        Poll::Done => {
                            // Batch complete.
                            if self.outer_done {
                                return Ok(Poll::Done);
                            }
                            self.buffer.clear();
                            self.phase = PHASE_FILL;
                            self.checkpoint(ctx)?;
                        }
                        Poll::Suspended => return Ok(Poll::Suspended),
                    },
                    // `cursor` is 0 for a fresh inner tuple and otherwise
                    // one past its last match: where the nested loop would
                    // look next.
                    Some(inner) => match self.buffer.find(inner.get(self.inner_key), self.cursor) {
                        Some(pos) => {
                            self.cursor = pos + 1;
                            self.produced_since_sign += 1;
                            return Ok(Poll::Tuple(self.buffer.rows().row(pos).join(inner.row())));
                        }
                        None => {
                            self.cursor = self.buffer.rows().len();
                            self.inner_tuple = None;
                        }
                    },
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.close(ctx)?;
        self.inner.close(ctx)?;
        self.buffer.clear();
        Ok(())
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let latest = match ctx.graph.latest_ckpt(self.op) {
            Some(ck) => ck,
            // No checkpoint yet (resume without a persisted graph, §3.3):
            // sign against a barrier so the contract exists but is never
            // offered as a GoBack chain; the graph re-forms at the next
            // minimal-heap-state point.
            None => ctx.graph.create_barrier_checkpoint(
                self.op,
                self.control().encode_to_vec(),
                ctx.work.get(self.op),
            ),
        };
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let sides = vec![self.inner.side_snapshot(ctx)?];
        let ctr = ctx
            .graph
            .sign_contract(parent_ckpt, self.op, latest, control, work, sides)?;
        self.last_in_ctr = Some(ctr);
        self.produced_since_sign = 0;
        Ok(ctr)
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "block NLJ cannot appear in a positional subtree",
        ))
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        let strategy = plan.get(self.op);
        match (mode, strategy) {
            (SuspendMode::Current, Strategy::Dump) => {
                let blob = ctx.put_dump_value(self.op, self.buffer.rows())?;
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy,
                    resume_point: self.control().encode_to_vec(),
                    heap_dump: Some(blob),
                    saved_tuples: Vec::new(),
                    aux: Vec::new(),
                });
                self.outer.suspend(ctx, SuspendMode::Current, plan, sq)?;
                self.inner.suspend(ctx, SuspendMode::Current, plan, sq)
            }
            (SuspendMode::Current, Strategy::GoBack { to }) => {
                debug_assert_eq!(to, self.op, "direct suspend can only go back to self");
                let latest = ctx
                    .graph
                    .latest_ckpt(self.op)
                    .ok_or_else(|| StorageError::invalid("NLJ has no checkpoint"))?;
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy,
                    resume_point: self.control().encode_to_vec(),
                    heap_dump: None,
                    saved_tuples: Vec::new(),
                    aux: Vec::new(),
                });
                // Enforce the checkpoint's contract on the rebuild child.
                match ctx
                    .graph
                    .contract_from(latest, self.outer.op_id())
                    .map(|c| c.id)
                {
                    Some(ctr) => self
                        .outer
                        .suspend(ctx, SuspendMode::Contract(ctr), plan, sq)?,
                    None => self.outer.suspend(ctx, SuspendMode::Current, plan, sq)?,
                }
                // The inner child is positional: current position suffices.
                self.inner.suspend(ctx, SuspendMode::Current, plan, sq)
            }
            (SuspendMode::Contract(ctr_id), strat) => {
                let ctr = ctx
                    .graph
                    .contract(ctr_id)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?
                    .clone();
                let target = NljControl::decode_from_slice(&ctr.control)?;
                match strat {
                    Strategy::Dump => {
                        // Valid only when c_{i,j} = 0 (no checkpoint since
                        // the chain checkpoint — buffer never cleared).
                        let resume = if target.phase == PHASE_FILL {
                            // No output since signing: current state
                            // reproduces all promised outputs.
                            self.control()
                        } else {
                            if target.fill != self.buffer.rows().len() as u64 {
                                return Err(StorageError::invalid(format!(
                                    "NLJ buffer diverged from contract {ctr_id}: \
                                     contract fill {} vs current {}",
                                    target.fill,
                                    self.buffer.rows().len()
                                )));
                            }
                            target
                        };
                        let blob = ctx.put_dump_value(self.op, self.buffer.rows())?;
                        sq.put_record(OpSuspendRecord {
                            op: self.op,
                            strategy: strat,
                            resume_point: resume.encode_to_vec(),
                            heap_dump: Some(blob),
                            saved_tuples: ctr.saved_tuples.clone(),
                            aux: Vec::new(),
                        });
                        // Outer position unchanged since the fill that the
                        // contract covers: current position is correct.
                        self.outer.suspend(ctx, SuspendMode::Current, plan, sq)?;
                    }
                    Strategy::GoBack { .. } => {
                        sq.put_record(OpSuspendRecord {
                            op: self.op,
                            strategy: strat,
                            resume_point: ctr.control.clone(),
                            heap_dump: None,
                            saved_tuples: ctr.saved_tuples.clone(),
                            aux: Vec::new(),
                        });
                        match ctx
                            .graph
                            .contract_from(ctr.child_ckpt, self.outer.op_id())
                            .map(|c| c.id)
                        {
                            Some(out_ctr) => {
                                self.outer
                                    .suspend(ctx, SuspendMode::Contract(out_ctr), plan, sq)?
                            }
                            None => self.outer.suspend(ctx, SuspendMode::Current, plan, sq)?,
                        }
                    }
                }
                // The inner child repositions to the contract's side
                // snapshot in both cases.
                for side in &ctr.sides {
                    record_side_snapshot(sq, side);
                }
                Ok(())
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.outer.resume(ctx, sq)?;
        self.inner.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = NljControl::decode_from_slice(&rec.resume_point)?;
        self.buffer.clear();
        match (&rec.strategy, &rec.heap_dump) {
            (Strategy::Dump, Some(blob)) => {
                let rows: RowBuffer = ctx.get_dump_value_for(self.op, *blob)?;
                self.buffer = KeyedRows::from_rows(rows, self.outer_key)?;
                if self.buffer.rows().len() as u64 != control.fill {
                    return Err(StorageError::corrupt(format!(
                        "NLJ buffer dump holds {} tuples but control records fill {}",
                        self.buffer.rows().len(),
                        control.fill
                    )));
                }
            }
            (Strategy::GoBack { .. }, _) => {
                // Refill the buffer through the (repositioned) outer child.
                for _ in 0..control.fill {
                    match self.outer.next(ctx)? {
                        Poll::Tuple(t) => self.buffer.push(t.row()),
                        Poll::Done => {
                            return Err(StorageError::corrupt(
                                "outer child exhausted during GoBack refill",
                            ))
                        }
                        Poll::Suspended => {
                            return Err(StorageError::invalid(
                                "suspend during resume refill is not supported",
                            ))
                        }
                    }
                }
            }
            (Strategy::Dump, None) => {
                return Err(StorageError::corrupt("dump record without heap blob"))
            }
        }
        self.restore_control(&control);
        self.pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
        self.last_in_ctr = None;
        self.produced_since_sign = 0;
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: self.buffer.rows().heap_bytes(),
            control_bytes: 64
                + self
                    .inner_tuple
                    .as_ref()
                    .map(Tuple::heap_bytes)
                    .unwrap_or(0),
            ..Default::default()
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.outer.visit(f);
        self.inner.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.outer.visit_mut(f);
        self.inner.visit_mut(f);
    }
}
