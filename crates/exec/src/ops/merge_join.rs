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
use crate::operator::{Cell, ContractState, Operator, Poll};
use qsr_core::{OpId, OpSuspendInputs, OpSuspendRecord, Strategy};
use qsr_storage::{
    BlobId, Decode, Decoder, Encode, Encoder, Result, RowBuffer, Schema, StorageError, Tuple,
};
use std::cmp::Ordering;

const ST_ADVANCE: u8 = 1;
const ST_BUILD_LEFT: u8 = 2;
const ST_BUILD_RIGHT: u8 = 3;
const ST_EMIT: u8 = 4;
const ST_DONE: u8 = 5;

#[derive(Debug, Clone, Default, PartialEq)]
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

/// A lookahead row with its join key, read once when the row arrives.
struct Keyed {
    key: i64,
    row: Tuple,
}

impl Keyed {
    /// `row`, keyed by its column `col`.
    fn new(row: Tuple, col: usize) -> Result<Keyed> {
        let key = row.get(col).as_int()?;
        Ok(Keyed { key, row })
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
    lpacket: RowBuffer,
    rpacket: RowBuffer,
    /// The join key of every row in `lpacket` (`None` while it is empty).
    packet_key: Option<i64>,
    li: usize,
    ri: usize,
    lahead: Option<Keyed>,
    rahead: Option<Keyed>,
    l_done: bool,
    r_done: bool,

    ctr: ContractState,
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
            lpacket: RowBuffer::new(),
            rpacket: RowBuffer::new(),
            packet_key: None,
            li: 0,
            ri: 0,
            lahead: None,
            rahead: None,
            l_done: false,
            r_done: false,
            ctr: ContractState::default(),
        }
    }

    /// Disable contract migration (ablation toggle).
    pub fn without_migration(mut self) -> Self {
        self.ctr.migration_enabled = false;
        self
    }

    /// True when the machine is where `target` was, emission cursors
    /// aside (the roll-forward stop condition; the cursors are restored
    /// directly).
    fn reached(&self, target: &MjControl) -> bool {
        fn row(k: &Option<Keyed>) -> Option<&Tuple> {
            k.as_ref().map(|k| &k.row)
        }
        self.state == target.state
            && self.lpacket.len() as u64 == target.lfill
            && self.rpacket.len() as u64 == target.rfill
            && row(&self.lahead) == target.lahead.as_ref()
            && row(&self.rahead) == target.rahead.as_ref()
            && self.l_done == target.l_done
            && self.r_done == target.r_done
    }

    /// One machine transition. `replay` suppresses checkpointing (used
    /// during resume roll-forward).
    fn step(&mut self, ctx: &mut ExecContext, replay: bool) -> Result<Step> {
        match self.state {
            ST_ADVANCE => {
                // Lazily (re)fill the lookaheads — this also covers the
                // very first call and re-entry after a mid-pull suspension.
                if self.lahead.is_none() && !self.l_done {
                    return self.pull_left(ctx);
                }
                if self.rahead.is_none() && !self.r_done {
                    return self.pull_right(ctx);
                }
                let (Some(l), Some(r)) = (&self.lahead, &self.rahead) else {
                    self.state = ST_DONE;
                    return Ok(Step::Finished);
                };
                match l.key.cmp(&r.key) {
                    Ordering::Less => self.lahead = None, // discarded: no right match
                    Ordering::Greater => self.rahead = None,
                    Ordering::Equal => self.state = ST_BUILD_LEFT,
                }
                Ok(Step::Continue)
            }
            ST_BUILD_LEFT => {
                let packet_key = self.packet_key;
                if let Some(l) = self
                    .lahead
                    .take_if(|l| packet_key.is_none_or(|k| k == l.key))
                {
                    self.packet_key = Some(l.key);
                    self.lpacket.push(l.row.row());
                } else if self.lahead.is_some() || self.l_done {
                    self.state = ST_BUILD_RIGHT;
                } else {
                    return self.pull_left(ctx);
                }
                Ok(Step::Continue)
            }
            ST_BUILD_RIGHT => {
                let key = self.packet_key.ok_or_else(|| {
                    StorageError::corrupt("merge join builds a right packet without a left one")
                })?;
                if let Some(r) = &self.rahead {
                    if r.key == key {
                        let r = self.rahead.take().expect("checked above").row;
                        self.rpacket.push(r.row());
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
                    return self.pull_right(ctx);
                }
                Ok(Step::Continue)
            }
            ST_EMIT => {
                if self.ri < self.rpacket.len() && self.li < self.lpacket.len() {
                    let out = self.lpacket.row(self.li).join(self.rpacket.row(self.ri));
                    self.li += 1;
                    if self.li >= self.lpacket.len() {
                        self.li = 0;
                        self.ri += 1;
                    }
                    self.ctr.produced_since_sign += 1;
                    return Ok(Step::Output(out));
                }
                self.discard_packets(ctx, replay)?;
                Ok(Step::Continue)
            }
            ST_DONE => Ok(Step::Finished),
            s => Err(StorageError::corrupt(format!("bad MJ state {s}"))),
        }
    }

    /// Pull the left child's next row into the (empty) left lookahead.
    fn pull_left(&mut self, ctx: &mut ExecContext) -> Result<Step> {
        match self.left.next(ctx)? {
            Poll::Tuple(t) => {
                self.lahead = Some(Keyed::new(t, self.left_key)?);
                ctx.tick(self.op);
            }
            Poll::Done => self.l_done = true,
            Poll::Suspended => return Ok(Step::Suspended),
        }
        Ok(Step::Continue)
    }

    /// Pull the right child's next row into the (empty) right lookahead.
    fn pull_right(&mut self, ctx: &mut ExecContext) -> Result<Step> {
        match self.right.next(ctx)? {
            Poll::Tuple(t) => {
                self.rahead = Some(Keyed::new(t, self.right_key)?);
                ctx.tick(self.op);
            }
            Poll::Done => self.r_done = true,
            Poll::Suspended => return Ok(Step::Suspended),
        }
        Ok(Step::Continue)
    }

    fn discard_packets(&mut self, ctx: &mut ExecContext, replay: bool) -> Result<()> {
        self.lpacket.clear();
        self.rpacket.clear();
        self.packet_key = None;
        self.li = 0;
        self.ri = 0;
        self.state = ST_ADVANCE;
        if !replay {
            self.checkpoint(ctx)?; // minimal-heap-state point
        }
        Ok(())
    }

    fn restore_control(&mut self, c: &MjControl) -> Result<()> {
        self.state = c.state;
        self.li = c.li as usize;
        self.ri = c.ri as usize;
        self.lahead = c
            .lahead
            .clone()
            .map(|t| Keyed::new(t, self.left_key))
            .transpose()?;
        self.rahead = c
            .rahead
            .clone()
            .map(|t| Keyed::new(t, self.right_key))
            .transpose()?;
        self.l_done = c.l_done;
        self.r_done = c.r_done;
        Ok(())
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
        // Initial checkpoint before execution starts.
        self.checkpoint(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.ctr.pending.pop_front() {
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

    fn children(&mut self) -> Vec<&mut dyn Operator> {
        vec![self.left.as_mut(), self.right.as_mut()]
    }

    fn live_children(&mut self) -> Vec<&mut dyn Operator> {
        let live = [
            !self.l_done || self.lahead.is_some(),
            !self.r_done || self.rahead.is_some(),
        ];
        let children: [&mut dyn Operator; 2] = [self.left.as_mut(), self.right.as_mut()];
        children
            .into_iter()
            .zip(live)
            .filter_map(|(child, live)| live.then_some(child))
            .collect()
    }

    fn state(&mut self) -> &mut ContractState {
        &mut self.ctr
    }

    fn control(&self) -> Vec<u8> {
        MjControl {
            state: self.state,
            lfill: self.lpacket.len() as u64,
            rfill: self.rpacket.len() as u64,
            li: self.li as u64,
            ri: self.ri as u64,
            lahead: self.lahead.as_ref().map(|k| k.row.clone()),
            rahead: self.rahead.as_ref().map(|k| k.row.clone()),
            l_done: self.l_done,
            r_done: self.r_done,
        }
        .encode_to_vec()
    }

    fn reactive(&self) -> bool {
        false
    }

    /// A Dump keeps the packets (unchanged since a contract's signing
    /// while `c = 0`); a GoBack replays from the anchor's state.
    fn cell(&self, strategy: Strategy, _target: Option<&[u8]>) -> Result<Cell> {
        Ok(match strategy {
            Strategy::Dump => Cell::TARGET,
            Strategy::GoBack { .. } => Cell::ROLL_FORWARD,
        })
    }

    fn dump_heap(&mut self, ctx: &mut ExecContext) -> Result<Option<BlobId>> {
        if self.lpacket.is_empty() && self.rpacket.is_empty() {
            return Ok(None);
        }
        let image = PacketDump(&self.lpacket, &self.rpacket);
        Ok(Some(ctx.put_dump_value(self.op, &image)?))
    }

    fn restore(&mut self, ctx: &mut ExecContext, rec: &OpSuspendRecord) -> Result<()> {
        let target = MjControl::decode_from_slice(&rec.resume_point)?;
        self.lpacket.clear();
        self.rpacket.clear();
        self.packet_key = None;
        match rec.strategy {
            Strategy::Dump => {
                if let Some(blob) = rec.heap_dump {
                    let PacketDump(left, right) = ctx.get_dump_value_for(self.op, blob)?;
                    let key = (!left.is_empty()).then(|| left.row(0).get(self.left_key).as_int());
                    self.packet_key = key.transpose()?;
                    self.lpacket = left;
                    self.rpacket = right;
                }
                self.restore_control(&target)?;
            }
            Strategy::GoBack { .. } => {
                // Replay the deterministic machine from the anchor
                // checkpoint's state — a packet boundary, shipped in `aux`
                // with its lookaheads, or the reset state without one —
                // with the children repositioned to that checkpoint's
                // contracts, until it reaches the target; then restore the
                // emission cursors directly.
                let start = match rec.aux.is_empty() {
                    true => MjControl {
                        state: ST_ADVANCE,
                        ..MjControl::default()
                    },
                    false => MjControl::decode_from_slice(&rec.aux)?,
                };
                self.restore_control(&start)?;
                while !self.reached(&target) {
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
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: self.lpacket.heap_bytes() + self.rpacket.heap_bytes(),
            control_bytes: 64
                + self.lahead.as_ref().map_or(0, |k| k.row.heap_bytes())
                + self.rahead.as_ref().map_or(0, |k| k.row.heap_bytes()),
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

/// Heap-dump image of both value packets: each packet's own block, left
/// then right. It is written from the packets where they are and read
/// back into packets of its own.
struct PacketDump<P>(P, P);

impl Encode for PacketDump<&RowBuffer> {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl Decode for PacketDump<RowBuffer> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let left = RowBuffer::decode(dec)?;
        Ok(PacketDump(left, RowBuffer::decode(dec)?))
    }
}
