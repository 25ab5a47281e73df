//! Tuple-based nested-loop join with an index on the inner relation
//! (paper §4, "Tuple-based NLJ with an index on inner").
//!
//! The operator's state is a single outer tuple plus the position within
//! its index-match list, so it uses **reactive checkpointing**: the
//! contract stores that tiny control state; on resume the index is simply
//! re-probed.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, SuspendPlan,
    SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, HeapFile, Result, Schema, SortedIndex, StorageError, Tuple,
    TupleAddr,
};
use std::collections::VecDeque;

#[derive(Debug, Clone, PartialEq)]
struct InljControl {
    cur_outer: Option<Tuple>,
    match_idx: u64,
}

impl Encode for InljControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(&self.cur_outer);
        enc.put_u64(self.match_idx);
    }
}

impl Decode for InljControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(InljControl {
            cur_outer: dec.get_option()?,
            match_idx: dec.get_u64()?,
        })
    }
}

/// Index nested-loop join: outer child stream probed against an indexed
/// base table.
pub struct IndexNlj {
    op: OpId,
    outer: Box<dyn Operator>,
    inner_table: String,
    /// Index column on the inner table.
    inner_key: usize,
    outer_key: usize,
    schema: Schema,

    index: Option<SortedIndex>,
    heap: Option<HeapFile>,
    cur_outer: Option<Tuple>,
    matches: Vec<TupleAddr>,
    match_idx: usize,
    pending: VecDeque<Tuple>,
}

impl IndexNlj {
    /// Create an index NLJ; `inner_schema` comes from the catalog via the
    /// plan builder.
    pub fn new(
        op: OpId,
        outer: Box<dyn Operator>,
        inner_table: String,
        inner_schema: &Schema,
        outer_key: usize,
        inner_key: usize,
    ) -> Self {
        let schema = outer.schema().join(inner_schema);
        Self {
            op,
            outer,
            inner_table,
            inner_key,
            outer_key,
            schema,
            index: None,
            heap: None,
            cur_outer: None,
            matches: Vec::new(),
            match_idx: 0,
            pending: VecDeque::new(),
        }
    }

    fn acquire(&mut self, ctx: &ExecContext) -> Result<()> {
        if self.index.is_none() {
            self.index = Some(ctx.db.open_table_index(&self.inner_table, self.inner_key)?);
        }
        if self.heap.is_none() {
            self.heap = Some(ctx.db.open_table_heap(&self.inner_table)?);
        }
        Ok(())
    }

    fn control(&self) -> InljControl {
        InljControl {
            cur_outer: self.cur_outer.clone(),
            match_idx: self.match_idx as u64,
        }
    }

    /// Probe the index for the current outer tuple, charging the page
    /// reads to this operator.
    fn probe(&mut self, ctx: &mut ExecContext, outer: &Tuple) -> Result<()> {
        let key = outer.get(self.outer_key).as_int()?;
        let before = ctx.db.ledger().snapshot().total_pages_read();
        self.matches = self
            .index
            .as_ref()
            .ok_or_else(|| StorageError::invalid("index-NLJ inner index not open"))?
            .lookup(key)?;
        let delta = ctx.db.ledger().snapshot().total_pages_read() - before;
        ctx.note_page_reads(self.op, delta);
        Ok(())
    }

    fn fetch_match(&mut self, ctx: &mut ExecContext, addr: TupleAddr) -> Result<Tuple> {
        let before = ctx.db.ledger().snapshot().total_pages_read();
        let t = self
            .heap
            .as_ref()
            .ok_or_else(|| StorageError::invalid("index-NLJ inner heap not open"))?
            .fetch(addr)?;
        let delta = ctx.db.ledger().snapshot().total_pages_read() - before;
        ctx.note_page_reads(self.op, delta);
        Ok(t)
    }
}

impl Operator for IndexNlj {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.open(ctx)?;
        self.acquire(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            if let Some(outer) = self.cur_outer.clone() {
                if self.match_idx < self.matches.len() {
                    let addr = self.matches[self.match_idx];
                    self.match_idx += 1;
                    let inner = self.fetch_match(ctx, addr)?;
                    return Ok(Poll::Tuple(outer.join(&inner)));
                }
                self.cur_outer = None;
                self.matches.clear();
                self.match_idx = 0;
            }
            match self.outer.next(ctx)? {
                Poll::Tuple(t) => {
                    ctx.tick(self.op);
                    self.probe(ctx, &t)?;
                    self.cur_outer = Some(t);
                    self.match_idx = 0;
                }
                Poll::Done => return Ok(Poll::Done),
                Poll::Suspended => return Ok(Poll::Suspended),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.outer.close(ctx)
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        // Reactive: checkpoint the tiny control state and cascade.
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        self.outer.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        ctx.graph
            .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "index NLJ cannot appear in a positional subtree",
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
                self.outer.suspend(ctx, SuspendMode::Current, plan, sq)
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
                    .contract_from(my_ckpt, self.outer.op_id())
                    .map(|cc| cc.id)
                    .ok_or_else(|| {
                        StorageError::invalid("index NLJ checkpoint missing outer contract")
                    })?;
                self.outer
                    .suspend(ctx, SuspendMode::Contract(child_ctr), plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.outer.resume(ctx, sq)?;
        self.acquire(ctx)?;
        let rec = sq.record(self.op)?;
        let control = InljControl::decode_from_slice(&rec.resume_point)?;
        self.cur_outer = control.cur_outer.clone();
        self.match_idx = control.match_idx as usize;
        self.matches.clear();
        if let Some(outer) = self.cur_outer.clone() {
            // Re-probe to rebuild the match list (charged resume I/O).
            self.probe(ctx, &outer)?;
        }
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
            control_bytes: 16
                + self.cur_outer.as_ref().map(Tuple::heap_bytes).unwrap_or(0),
            ..Default::default()
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.outer.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.outer.visit_mut(f);
    }
}
