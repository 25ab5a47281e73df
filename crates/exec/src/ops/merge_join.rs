//! Merge join with value packets (paper §4, "Merge Join").
//!
//! Both (sorted) children are **rebuild** children: the current value
//! packets are the heap state, rebuilt on resume by replaying the
//! deterministic advance/build machine from the checkpoint — with the
//! cross-product cursors then restored directly (no join recomputation;
//! §3.3 skipping). Minimal-heap-state points occur when a value packet is
//! exhausted; proactive checkpointing happens there. The one-tuple
//! lookaheads are part of the control state, exactly the "value packet
//! cursor" bookkeeping the paper describes.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, Result, Schema, StorageError, Tuple, TupleBlock, TupleSlice,
};
use std::collections::VecDeque;

const ST_ADVANCE: u8 = 1;
const ST_BUILD_LEFT: u8 = 2;
const ST_BUILD_RIGHT: u8 = 3;
const ST_EMIT: u8 = 4;
const ST_DONE: u8 = 5;

#[derive(Debug, Clone, PartialEq)]
struct MjControl {
    state: u8,
    lfill: u64,
    rfill: u64,
    li: u64,
    ri: u64,
    lahead: Option<Tuple>,
    rahead: Option<Tuple>,
    l_done: bool,
    r_done: bool,
}

impl MjControl {
    /// Machine position ignoring the emission cursors (used as the
    /// roll-forward stop condition; the cursors are restored directly).
    fn machine_eq(&self, other: &MjControl) -> bool {
        self.state == other.state
            && self.lfill == other.lfill
            && self.rfill == other.rfill
            && self.lahead == other.lahead
            && self.rahead == other.rahead
            && self.l_done == other.l_done
            && self.r_done == other.r_done
    }
}

impl Encode for MjControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.state);
        enc.put_u64(self.lfill);
        enc.put_u64(self.rfill);
        enc.put_u64(self.li);
        enc.put_u64(self.ri);
        enc.put_option(&self.lahead);
        enc.put_option(&self.rahead);
        enc.put_bool(self.l_done);
        enc.put_bool(self.r_done);
    }
}

impl Decode for MjControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(MjControl {
            state: dec.get_u8()?,
            lfill: dec.get_u64()?,
            rfill: dec.get_u64()?,
            li: dec.get_u64()?,
            ri: dec.get_u64()?,
            lahead: dec.get_option()?,
            rahead: dec.get_option()?,
            l_done: dec.get_bool()?,
            r_done: dec.get_bool()?,
        })
    }
}

/// One machine transition's outcome.
enum Step {
    /// Keep stepping.
    Continue,
    /// An output tuple is available (state is `ST_EMIT`).
    Output(Tuple),
    /// Input exhausted.
    Finished,
    /// Suspend observed inside a child.
    Suspended,
}

/// Sort-merge equi-join over sorted inputs.
pub struct MergeJoin {
    op: OpId,
    left: Box<dyn Operator>,
    right: Box<dyn Operator>,
    left_key: usize,
    right_key: usize,
    schema: Schema,

    state: u8,
    lpacket: Vec<Tuple>,
    rpacket: Vec<Tuple>,
    li: usize,
    ri: usize,
    lahead: Option<Tuple>,
    rahead: Option<Tuple>,
    l_done: bool,
    r_done: bool,
    heap_bytes: usize,

    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
}

impl MergeJoin {
    /// Create a merge join of sorted inputs on
    /// `left.left_key == right.right_key`.
    pub fn new(
        op: OpId,
        left: Box<dyn Operator>,
        right: Box<dyn Operator>,
        left_key: usize,
        right_key: usize,
    ) -> Self {
        let schema = left.schema().join(right.schema());
        Self {
            op,
            left,
            right,
            left_key,
            right_key,
            schema,
            state: ST_ADVANCE,
            lpacket: Vec::new(),
            rpacket: Vec::new(),
            li: 0,
            ri: 0,
            lahead: None,
            rahead: None,
            l_done: false,
            r_done: false,
            heap_bytes: 0,
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

    fn control(&self) -> MjControl {
        MjControl {
            state: self.state,
            lfill: self.lpacket.len() as u64,
            rfill: self.rpacket.len() as u64,
            li: self.li as u64,
            ri: self.ri as u64,
            lahead: self.lahead.clone(),
            rahead: self.rahead.clone(),
            l_done: self.l_done,
            r_done: self.r_done,
        }
    }

    fn lkey(&self, t: &Tuple) -> Result<i64> {
        t.get(self.left_key).as_int()
    }

    fn rkey(&self, t: &Tuple) -> Result<i64> {
        t.get(self.right_key).as_int()
    }

    /// Proactive checkpoint at a packet boundary (both packets empty).
    fn checkpoint(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        debug_assert!(self.lpacket.is_empty() && self.rpacket.is_empty());
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        if !self.l_done || self.lahead.is_some() {
            self.left.sign_contract(ctx, ck)?;
        }
        if !self.r_done || self.rahead.is_some() {
            self.right.sign_contract(ctx, ck)?;
        }
        if self.migration_enabled && self.produced_since_sign == 0 {
            if let Some(ctr) = self.last_in_ctr {
                if ctx.graph.contract(ctr).is_some() {
                    ctx.graph.migrate_contract(
                        ctr,
                        Migration::to(ck).with_control(control).with_work(work),
                    )?;
                }
            }
        }
        ctx.graph.prune_for(self.op);
        Ok(())
    }

    /// One machine transition. `replay` suppresses checkpointing (used
    /// during resume roll-forward).
    fn step(&mut self, ctx: &mut ExecContext, replay: bool) -> Result<Step> {
        match self.state {
            ST_ADVANCE => {
                // Lazily (re)fill the lookaheads — this also covers the
                // very first call and re-entry after a mid-pull suspension.
                if self.lahead.is_none() && !self.l_done {
                    match self.left.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.lahead = Some(t);
                            ctx.tick(self.op);
                        }
                        Poll::Done => self.l_done = true,
                        Poll::Suspended => return Ok(Step::Suspended),
                    }
                    return Ok(Step::Continue);
                }
                if self.rahead.is_none() && !self.r_done {
                    match self.right.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.rahead = Some(t);
                            ctx.tick(self.op);
                        }
                        Poll::Done => self.r_done = true,
                        Poll::Suspended => return Ok(Step::Suspended),
                    }
                    return Ok(Step::Continue);
                }
                let (Some(l), Some(r)) = (self.lahead.clone(), self.rahead.clone()) else {
                    self.state = ST_DONE;
                    return Ok(Step::Finished);
                };
                let lk = self.lkey(&l)?;
                let rk = self.rkey(&r)?;
                if lk < rk {
                    self.lahead = None; // discarded: no right match
                } else if lk > rk {
                    self.rahead = None;
                } else {
                    self.state = ST_BUILD_LEFT;
                }
                Ok(Step::Continue)
            }
            ST_BUILD_LEFT => {
                if let Some(t) = self.lahead.clone() {
                    let key = if self.lpacket.is_empty() {
                        self.lkey(&t)?
                    } else {
                        self.lkey(&self.lpacket[0])?
                    };
                    if self.lkey(&t)? == key {
                        self.lahead = None;
                        self.heap_bytes += t.heap_bytes();
                        self.lpacket.push(t);
                    } else {
                        self.state = ST_BUILD_RIGHT;
                    }
                } else if self.l_done {
                    self.state = ST_BUILD_RIGHT;
                } else {
                    match self.left.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.lahead = Some(t);
                            ctx.tick(self.op);
                        }
                        Poll::Done => self.l_done = true,
                        Poll::Suspended => return Ok(Step::Suspended),
                    }
                }
                Ok(Step::Continue)
            }
            ST_BUILD_RIGHT => {
                let key = self.lkey(&self.lpacket[0])?;
                if let Some(r) = self.rahead.clone() {
                    if self.rkey(&r)? == key {
                        self.rahead = None;
                        self.heap_bytes += r.heap_bytes();
                        self.rpacket.push(r);
                    } else if self.rpacket.is_empty() {
                        // No right matches: discard the left packet.
                        self.discard_packets(ctx, replay)?;
                    } else {
                        self.li = 0;
                        self.ri = 0;
                        self.state = ST_EMIT;
                    }
                } else if self.r_done {
                    if self.rpacket.is_empty() {
                        self.discard_packets(ctx, replay)?;
                    } else {
                        self.li = 0;
                        self.ri = 0;
                        self.state = ST_EMIT;
                    }
                } else {
                    match self.right.next(ctx)? {
                        Poll::Tuple(t) => {
                            self.rahead = Some(t);
                            ctx.tick(self.op);
                        }
                        Poll::Done => self.r_done = true,
                        Poll::Suspended => return Ok(Step::Suspended),
                    }
                }
                Ok(Step::Continue)
            }
            ST_EMIT => {
                if self.ri < self.rpacket.len() && self.li < self.lpacket.len() {
                    let out = self.lpacket[self.li].join(&self.rpacket[self.ri]);
                    self.li += 1;
                    if self.li >= self.lpacket.len() {
                        self.li = 0;
                        self.ri += 1;
                    }
                    self.produced_since_sign += 1;
                    return Ok(Step::Output(out));
                }
                self.discard_packets(ctx, replay)?;
                Ok(Step::Continue)
            }
            ST_DONE => Ok(Step::Finished),
            s => Err(StorageError::corrupt(format!("bad MJ state {s}"))),
        }
    }

    fn discard_packets(&mut self, ctx: &mut ExecContext, replay: bool) -> Result<()> {
        self.lpacket.clear();
        self.rpacket.clear();
        self.heap_bytes = 0;
        self.li = 0;
        self.ri = 0;
        self.state = ST_ADVANCE;
        if !replay {
            self.checkpoint(ctx)?; // minimal-heap-state point
        }
        Ok(())
    }

    fn restore_control(&mut self, c: &MjControl) {
        self.state = c.state;
        self.li = c.li as usize;
        self.ri = c.ri as usize;
        self.lahead = c.lahead.clone();
        self.rahead = c.rahead.clone();
        self.l_done = c.l_done;
        self.r_done = c.r_done;
    }
}

impl Operator for MergeJoin {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.left.open(ctx)?;
        self.right.open(ctx)?;
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        // Initial checkpoint before execution starts.
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control, work);
        self.left.sign_contract(ctx, ck)?;
        self.right.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            match self.step(ctx, false)? {
                Step::Continue => continue,
                Step::Output(t) => return Ok(Poll::Tuple(t)),
                Step::Finished => return Ok(Poll::Done),
                Step::Suspended => return Ok(Poll::Suspended),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.left.close(ctx)?;
        self.right.close(ctx)
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let latest = match ctx.graph.latest_ckpt(self.op) {
            Some(ck) => ck,
            None => ctx.graph.create_barrier_checkpoint(
                self.op,
                self.control().encode_to_vec(),
                ctx.work.get(self.op),
            ),
        };
        let ctr = ctx.graph.sign_contract(
            parent_ckpt,
            self.op,
            latest,
            self.control().encode_to_vec(),
            ctx.work.get(self.op),
            vec![],
        )?;
        self.last_in_ctr = Some(ctr);
        self.produced_since_sign = 0;
        Ok(ctr)
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "merge join cannot appear in a positional subtree",
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
        // Resolve the target control state and child enforcement.
        let (resume_point, saved, ckpt_for_children) = match mode {
            SuspendMode::Current => match strategy {
                Strategy::Dump => (self.control().encode_to_vec(), Vec::new(), None),
                Strategy::GoBack { .. } => {
                    let latest = ctx
                        .graph
                        .latest_ckpt(self.op)
                        .ok_or_else(|| StorageError::invalid("merge join has no checkpoint"))?;
                    (self.control().encode_to_vec(), Vec::new(), Some(latest))
                }
            },
            SuspendMode::Contract(ctr_id) => {
                let ctr = ctx
                    .graph
                    .contract(ctr_id)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?
                    .clone();
                match strategy {
                    Strategy::Dump => {
                        // c = 0: packets unchanged since signing.
                        (ctr.control.clone(), ctr.saved_tuples.clone(), None)
                    }
                    Strategy::GoBack { .. } => (
                        ctr.control.clone(),
                        ctr.saved_tuples.clone(),
                        Some(ctr.child_ckpt),
                    ),
                }
            }
        };

        let heap_dump = match strategy {
            Strategy::Dump if !self.lpacket.is_empty() || !self.rpacket.is_empty() => {
                Some(ctx.put_dump_value(self.op, &PacketDump {
                    left: self.lpacket.clone(),
                    right: self.rpacket.clone(),
                })?)
            }
            _ => None,
        };
        // For GoBack, the replay starts from the fulfilling checkpoint's
        // own control state (its lookaheads/done flags); ship it in `aux`.
        let aux = match ckpt_for_children {
            Some(ck) => ctx
                .graph
                .checkpoint(ck)
                .map(|c| c.control.clone())
                .unwrap_or_default(),
            None => Vec::new(),
        };
        sq.put_record(OpSuspendRecord {
            op: self.op,
            strategy,
            resume_point,
            heap_dump,
            saved_tuples: saved,
            aux,
        });

        match ckpt_for_children {
            Some(ck) => {
                for (child, _key) in [(&mut self.left, 0usize), (&mut self.right, 1usize)] {
                    match ctx.graph.contract_from(ck, child.op_id()).map(|c| c.id) {
                        Some(ctr) => child.suspend(ctx, SuspendMode::Contract(ctr), plan, sq)?,
                        None => child.suspend(ctx, SuspendMode::Current, plan, sq)?,
                    }
                }
                Ok(())
            }
            None => {
                self.left.suspend(ctx, SuspendMode::Current, plan, sq)?;
                self.right.suspend(ctx, SuspendMode::Current, plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.left.resume(ctx, sq)?;
        self.right.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let target = MjControl::decode_from_slice(&rec.resume_point)?;
        self.lpacket.clear();
        self.rpacket.clear();
        self.heap_bytes = 0;
        match (&rec.strategy, &rec.heap_dump) {
            (Strategy::Dump, Some(blob)) => {
                let PacketDump { left, right } = ctx.get_dump_value_for(self.op, *blob)?;
                for t in left.iter().chain(right.iter()) {
                    self.heap_bytes += t.heap_bytes();
                }
                self.lpacket = left;
                self.rpacket = right;
                self.restore_control(&target);
            }
            (Strategy::Dump, None) => {
                self.restore_control(&target);
            }
            (Strategy::GoBack { .. }, _) => {
                // Replay the deterministic machine from the checkpoint
                // state (children already repositioned) until the machine
                // position matches the target, then restore the cursors.
                // The checkpoint state is the post-discard state: packets
                // empty, ST_ADVANCE, lookaheads re-pulled lazily.
                let ck_control = MjControl {
                    state: ST_ADVANCE,
                    lfill: 0,
                    rfill: 0,
                    li: 0,
                    ri: 0,
                    lahead: None,
                    rahead: None,
                    l_done: false,
                    r_done: false,
                };
                // The checkpoint's own control (with its aheads/dones) is
                // what we actually resume from; it is stored in the graph,
                // but after a process restart the graph may be gone — so
                // the suspend phase recorded the *target*, and replay
                // starts from the machine's reset state with children
                // repositioned to the checkpoint contracts. The aheads at
                // the checkpoint travel in the record's `aux` field.
                self.restore_control(&ck_control);
                // Re-pull aheads: at a packet-boundary checkpoint the
                // aheads were the first tuples of the upcoming packets;
                // the children contracts were signed *after* those tuples
                // were consumed... they are stored in the checkpoint
                // control which travels as `aux`.
                if !rec.aux.is_empty() {
                    let ck = MjControl::decode_from_slice(&rec.aux)?;
                    self.restore_control(&ck);
                }
                loop {
                    if self.control().machine_eq(&target) {
                        break;
                    }
                    match self.step(ctx, true)? {
                        Step::Continue => {}
                        Step::Output(_) => {
                            return Err(StorageError::corrupt(
                                "merge join emitted during roll-forward",
                            ))
                        }
                        Step::Finished => {
                            return Err(StorageError::corrupt(
                                "merge join finished before reaching target",
                            ))
                        }
                        Step::Suspended => {
                            return Err(StorageError::invalid(
                                "suspend during resume roll-forward is not supported",
                            ))
                        }
                    }
                }
                self.li = target.li as usize;
                self.ri = target.ri as usize;
            }
        }
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
            heap_bytes: self.heap_bytes,
            control_bytes: 64
                + self.lahead.as_ref().map(Tuple::heap_bytes).unwrap_or(0)
                + self.rahead.as_ref().map(Tuple::heap_bytes).unwrap_or(0),
            ..Default::default()
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.left.visit(f);
        self.right.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.left.visit_mut(f);
        self.right.visit_mut(f);
    }
}

/// Heap-dump payload: both value packets, each stored as a column-major
/// [`TupleBlock`] (raw value runs, no per-tuple headers).
struct PacketDump {
    left: Vec<Tuple>,
    right: Vec<Tuple>,
}

impl Encode for PacketDump {
    fn encode(&self, enc: &mut Encoder) {
        TupleSlice(&self.left).encode(enc);
        TupleSlice(&self.right).encode(enc);
    }
}

impl Decode for PacketDump {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(PacketDump {
            left: TupleBlock::decode(dec)?.0,
            right: TupleBlock::decode(dec)?.0,
        })
    }
}
