//! Grouping with aggregation and duplicate elimination over sorted input
//! (paper §4, "Grouping with aggregation, duplicate elimination").
//!
//! These are the sort-based variants: they stream over input sorted by the
//! group column, carrying only the current group's accumulator — which is
//! "stored as part of any requested contract", so the operators can
//! "resume from the exact point" as the paper says. Hash-based grouping is
//! expressed by composing `HashJoin`-style partitioning with these.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use crate::ops::Accum;
use qsr_core::{
    CkptId, CtrId, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, SuspendPlan,
    SuspendedQuery,
};
use qsr_storage::{
    Column, DataType, Decode, Decoder, Encode, Encoder, Result, Schema, StorageError, Tuple,
    ValueRef,
};
use std::collections::VecDeque;

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
    pending: VecDeque<Tuple>,
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
            pending: VecDeque::new(),
        }
    }

    fn control(&self) -> AggControl {
        AggControl {
            cur_group: self.cur_group,
            acc: self.acc,
            done: self.done,
            finished: self.finished,
        }
    }

    fn emit(&self) -> Tuple {
        let group = self.group_col.map(|_| ValueRef::Int(self.cur_group.unwrap_or(0)));
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
        if let Some(t) = self.pending.pop_front() {
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

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        // Reactive: the accumulator travels in the contract, as §4 says.
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        self.child.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        ctx.graph
            .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "aggregate cannot appear in a positional subtree",
        ))
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        match mode {
            SuspendMode::Current => {
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: self.control().encode_to_vec(),
                    heap_dump: None,
                    saved_tuples: Vec::new(),
                    aux: Vec::new(),
                });
                self.child.suspend(ctx, SuspendMode::Current, plan, sq)
            }
            SuspendMode::Contract(ctr_id) => {
                let ctr = ctx
                    .graph
                    .contract(ctr_id)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?;
                let (control, saved, my_ckpt) =
                    (ctr.control.clone(), ctr.saved_tuples.clone(), ctr.child_ckpt);
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: control,
                    heap_dump: None,
                    saved_tuples: saved,
                    aux: Vec::new(),
                });
                let child_ctr = ctx
                    .graph
                    .contract_from(my_ckpt, self.child.op_id())
                    .map(|cc| cc.id)
                    .ok_or_else(|| {
                        StorageError::invalid("aggregate checkpoint missing child contract")
                    })?;
                self.child
                    .suspend(ctx, SuspendMode::Contract(child_ctr), plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = AggControl::decode_from_slice(&rec.resume_point)?;
        self.cur_group = control.cur_group;
        self.acc = control.acc;
        self.done = control.done;
        self.finished = control.finished;
        self.pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
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
    pending: VecDeque<Tuple>,
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
            pending: VecDeque::new(),
        }
    }

    fn control_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_option(&self.last);
        enc.finish()
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
        if let Some(t) = self.pending.pop_front() {
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

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let control = self.control_bytes();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        self.child.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        ctx.graph
            .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "distinct cannot appear in a positional subtree",
        ))
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        match mode {
            SuspendMode::Current => {
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: self.control_bytes(),
                    heap_dump: None,
                    saved_tuples: Vec::new(),
                    aux: Vec::new(),
                });
                self.child.suspend(ctx, SuspendMode::Current, plan, sq)
            }
            SuspendMode::Contract(ctr_id) => {
                let ctr = ctx
                    .graph
                    .contract(ctr_id)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?;
                let (control, saved, my_ckpt) =
                    (ctr.control.clone(), ctr.saved_tuples.clone(), ctr.child_ckpt);
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: control,
                    heap_dump: None,
                    saved_tuples: saved,
                    aux: Vec::new(),
                });
                let child_ctr = ctx
                    .graph
                    .contract_from(my_ckpt, self.child.op_id())
                    .map(|cc| cc.id)
                    .ok_or_else(|| {
                        StorageError::invalid("distinct checkpoint missing child contract")
                    })?;
                self.child
                    .suspend(ctx, SuspendMode::Contract(child_ctr), plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let mut dec = Decoder::new(&rec.resume_point);
        self.last = dec.get_option()?;
        self.pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
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
