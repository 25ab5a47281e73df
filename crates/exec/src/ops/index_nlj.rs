//! Tuple-based nested-loop join with an index on the inner relation
//! (paper §4, "Tuple-based NLJ with an index on inner").
//!
//! The operator's state is a single outer tuple plus the position within
//! its index-match list, so it uses **reactive checkpointing**: the
//! contract stores that tiny control state; on resume the index is simply
//! re-probed.

use crate::context::ExecContext;
use crate::operator::{ContractState, Operator, Poll};
use qsr_core::{OpId, OpSuspendInputs, OpSuspendRecord};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, HeapFile, Result, Schema, SortedIndex, StorageError, Tuple,
    TupleAddr,
};

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
    ctr: ContractState,
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
            ctr: ContractState::default(),
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
        if let Some(t) = self.ctr.pending.pop_front() {
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

    fn children(&mut self) -> Vec<&mut dyn Operator> {
        vec![self.outer.as_mut()]
    }

    fn state(&mut self) -> &mut ContractState {
        &mut self.ctr
    }

    fn control(&self) -> Vec<u8> {
        InljControl {
            cur_outer: self.cur_outer.clone(),
            match_idx: self.match_idx as u64,
        }
        .encode_to_vec()
    }

    fn restore(&mut self, ctx: &mut ExecContext, rec: &OpSuspendRecord) -> Result<()> {
        self.acquire(ctx)?;
        let control = InljControl::decode_from_slice(&rec.resume_point)?;
        self.cur_outer = control.cur_outer.clone();
        self.match_idx = control.match_idx as usize;
        self.matches.clear();
        if let Some(outer) = self.cur_outer.clone() {
            // Re-probe to rebuild the match list (charged resume I/O).
            self.probe(ctx, &outer)?;
        }
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: 0,
            control_bytes: 16 + self.cur_outer.as_ref().map(Tuple::heap_bytes).unwrap_or(0),
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
