//! Grouping with aggregation and duplicate elimination over sorted input
//! (paper §4, "Grouping with aggregation, duplicate elimination").
//!
//! These are the sort-based variants: they stream over input sorted by the
//! group column, carrying only the current group's accumulator — which is
//! "stored as part of any requested contract", so the operators can
//! "resume from the exact point" as the paper says. Hash-based grouping is
//! expressed by composing `HashJoin`-style partitioning with these.

use crate::context::ExecContext;
use crate::operator::{ContractState, Operator, Poll};
use crate::ops::Accum;
use qsr_core::{OpId, OpSuspendInputs, OpSuspendRecord};
use qsr_storage::{
    Column, DataType, Decode, Decoder, Encode, Encoder, Result, Schema, StorageError, Tuple,
    ValueRef,
};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count.
    Count,
    /// Integer sum of a column.
    Sum,
    /// Minimum of a column.
    Min,
    /// Maximum of a column.
    Max,
}

impl AggFn {
    fn tag(self) -> u8 {
        match self {
            AggFn::Count => 0,
            AggFn::Sum => 1,
            AggFn::Min => 2,
            AggFn::Max => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            0 => AggFn::Count,
            1 => AggFn::Sum,
            2 => AggFn::Min,
            3 => AggFn::Max,
            x => return Err(StorageError::corrupt(format!("bad aggfn tag {x}"))),
        })
    }
}

impl Encode for AggFn {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.tag());
    }
}

impl Decode for AggFn {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        AggFn::from_tag(dec.get_u8()?)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct AggControl {
    cur_group: Option<i64>,
    acc: Accum,
    done: bool,
    finished: bool,
}

impl Encode for AggControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(&self.cur_group);
        self.acc.encode(enc);
        enc.put_bool(self.done);
        enc.put_bool(self.finished);
    }
}

impl Decode for AggControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AggControl {
            cur_group: dec.get_option()?,
            acc: Accum::decode(dec)?,
            done: dec.get_bool()?,
            finished: dec.get_bool()?,
        })
    }
}

/// Streaming group-by aggregate over input sorted on the group column.
/// With `group_col = None` it computes one global aggregate.
pub struct StreamAgg {
    op: OpId,
    child: Box<dyn Operator>,
    group_col: Option<usize>,
    agg_col: usize,
    func: AggFn,
    schema: Schema,

    cur_group: Option<i64>,
    acc: Accum,
    done: bool,
    finished: bool,
    ctr: ContractState,
}

impl StreamAgg {
    /// Create a streaming aggregate.
    pub fn new(
        op: OpId,
        child: Box<dyn Operator>,
        group_col: Option<usize>,
        agg_col: usize,
        func: AggFn,
    ) -> Self {
        let mut cols = Vec::new();
        if let Some(g) = group_col {
            cols.push(child.schema().column(g).clone());
        }
        cols.push(Column::new("agg", DataType::Int));
        Self {
            op,
            child,
            group_col,
            agg_col,
            func,
            schema: Schema::new(cols),
            cur_group: None,
            acc: Accum::new(),
            done: false,
            finished: false,
            ctr: ContractState::default(),
        }
    }

    fn emit(&self) -> Tuple {
        let group = self
            .group_col
            .map(|_| ValueRef::Int(self.cur_group.unwrap_or(0)));
        let agg = ValueRef::Int(self.acc.value(self.func));
        Tuple::from_fields(group.into_iter().chain([agg]))
    }
}

impl Operator for StreamAgg {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.ctr.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        if self.finished {
            return Ok(Poll::Done);
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            if self.done {
                self.finished = true;
                // Final group (or the global aggregate, even when empty).
                if self.cur_group.is_some() || self.group_col.is_none() {
                    return Ok(Poll::Tuple(self.emit()));
                }
                return Ok(Poll::Done);
            }
            match self.child.next(ctx)? {
                Poll::Tuple(t) => {
                    ctx.tick(self.op);
                    let v = t.get(self.agg_col).as_int()?;
                    match self.group_col {
                        None => self.acc.add(v),
                        Some(g) => {
                            let key = t.get(g).as_int()?;
                            match self.cur_group {
                                Some(cur) if cur == key => self.acc.add(v),
                                Some(_) => {
                                    let out = self.emit();
                                    self.cur_group = Some(key);
                                    self.acc = Accum::new();
                                    self.acc.add(v);
                                    return Ok(Poll::Tuple(out));
                                }
                                None => {
                                    self.cur_group = Some(key);
                                    self.acc = Accum::new();
                                    self.acc.add(v);
                                }
                            }
                        }
                    }
                }
                Poll::Done => self.done = true,
                Poll::Suspended => return Ok(Poll::Suspended),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&mut self) -> Vec<&mut dyn Operator> {
        vec![self.child.as_mut()]
    }

    fn state(&mut self) -> &mut ContractState {
        &mut self.ctr
    }

    /// The accumulator travels in the control record, and so in every
    /// contract (§4).
    fn control(&self) -> Vec<u8> {
        AggControl {
            cur_group: self.cur_group,
            acc: self.acc,
            done: self.done,
            finished: self.finished,
        }
        .encode_to_vec()
    }

    fn restore(&mut self, _ctx: &mut ExecContext, rec: &OpSuspendRecord) -> Result<()> {
        let control = AggControl::decode_from_slice(&rec.resume_point)?;
        self.cur_group = control.cur_group;
        self.acc = control.acc;
        self.done = control.done;
        self.finished = control.finished;
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: 0,
            control_bytes: 48,
            ..Default::default()
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.child.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.child.visit_mut(f);
    }
}

/// Duplicate elimination over sorted input: emits each distinct tuple
/// once, carrying only "the tuple whose duplicates are currently being
/// eliminated" (paper §4).
pub struct Distinct {
    op: OpId,
    child: Box<dyn Operator>,
    schema: Schema,
    last: Option<Tuple>,
    ctr: ContractState,
}

impl Distinct {
    /// Create a duplicate-eliminating operator over sorted input.
    pub fn new(op: OpId, child: Box<dyn Operator>) -> Self {
        let schema = child.schema().clone();
        Self {
            op,
            child,
            schema,
            last: None,
            ctr: ContractState::default(),
        }
    }
}

impl Operator for Distinct {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.ctr.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            match crate::pull!(self.child, ctx) {
                Some(t) => {
                    ctx.tick(self.op);
                    if self.last.as_ref() != Some(&t) {
                        self.last = Some(t.clone());
                        return Ok(Poll::Tuple(t));
                    }
                }
                None => return Ok(Poll::Done),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn children(&mut self) -> Vec<&mut dyn Operator> {
        vec![self.child.as_mut()]
    }

    fn state(&mut self) -> &mut ContractState {
        &mut self.ctr
    }

    fn control(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_option(&self.last);
        enc.finish()
    }

    fn restore(&mut self, _ctx: &mut ExecContext, rec: &OpSuspendRecord) -> Result<()> {
        self.last = Decoder::new(&rec.resume_point).get_option()?;
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: 0,
            control_bytes: 8 + self.last.as_ref().map(Tuple::heap_bytes).unwrap_or(0),
            ..Default::default()
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.child.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.child.visit_mut(f);
    }
}
