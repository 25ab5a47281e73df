//! Table scan (paper §4, "Table Scan and Index Scan").
//!
//! * Contracting: reactive only — signing a contract stores the current
//!   cursor position (page + slot).
//! * Suspend: `Suspend()` records the current position; `Suspend(Ctr)`
//!   records the position stored in the contract.
//! * Resume: seek the cursor to the recorded position (the page is
//!   re-read on the next `next()` call, which is the charged resume I/O).

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, SuspendPlan,
    SuspendedQuery,
};
use qsr_storage::{
    Decode, Encode, HeapCursor, HeapFile, Result, Schema, StorageError, Tuple, TupleAddr,
};
use std::collections::VecDeque;

/// Sequential scan over a catalog table.
pub struct TableScan {
    op: OpId,
    table: String,
    schema: Schema,
    heap: Option<HeapFile>,
    cursor: Option<HeapCursor>,
    pages_noted: u64,
    pending: VecDeque<Tuple>,
}

impl TableScan {
    /// Create a scan of `table` (schema from the catalog is supplied by
    /// the plan builder).
    pub fn new(op: OpId, table: String, schema: Schema) -> Self {
        Self {
            op,
            table,
            schema,
            heap: None,
            cursor: None,
            pages_noted: 0,
            pending: VecDeque::new(),
        }
    }

    fn acquire(&mut self, ctx: &ExecContext) -> Result<()> {
        if self.heap.is_none() {
            self.heap = Some(ctx.db.open_table_heap(&self.table)?);
        }
        if self.cursor.is_none() {
            let heap = self
                .heap
                .as_ref()
                .ok_or_else(|| StorageError::invalid("scan heap not open"))?;
            self.cursor = Some(heap.cursor());
        }
        Ok(())
    }

    fn cursor_mut(&mut self) -> Result<&mut HeapCursor> {
        self.cursor
            .as_mut()
            .ok_or_else(|| StorageError::invalid("scan not open"))
    }

    fn position(&self) -> TupleAddr {
        self.cursor
            .as_ref()
            .map(|c| c.position())
            .unwrap_or(TupleAddr::ZERO)
    }

    fn control_bytes(&self) -> Vec<u8> {
        self.position().encode_to_vec()
    }

    /// Attribute newly fetched pages to this operator's work counter.
    fn note_io(&mut self, ctx: &mut ExecContext) {
        let fetched = self.cursor.as_ref().map(|c| c.pages_fetched()).unwrap_or(0);
        let delta = fetched.saturating_sub(self.pages_noted);
        self.pages_noted = fetched;
        ctx.note_page_reads(self.op, delta);
    }
}

impl Operator for TableScan {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.acquire(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        if ctx.suspend_pending() {
            return Ok(Poll::Suspended);
        }
        let out = self.cursor_mut()?.next()?;
        self.note_io(ctx);
        match out {
            Some(t) => {
                ctx.tick(self.op);
                Ok(Poll::Tuple(t))
            }
            None => Ok(Poll::Done),
        }
    }

    fn close(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.cursor = None;
        self.heap = None;
        Ok(())
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let control = self.control_bytes();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        ctx.graph.prune_for(self.op);
        ctx.graph
            .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])
    }

    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Ok(SideSnapshot {
            op: self.op,
            control: self.control_bytes(),
            work: ctx.work.get(self.op),
            children: vec![],
        })
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        let (resume_point, saved) = match mode {
            SuspendMode::Current => (self.control_bytes(), Vec::new()),
            SuspendMode::Contract(ctr) => {
                let c = ctx
                    .graph
                    .contract(ctr)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr}")))?;
                (c.control.clone(), c.saved_tuples.clone())
            }
        };
        sq.put_record(OpSuspendRecord {
            op: self.op,
            strategy: plan.get(self.op),
            resume_point,
            heap_dump: None,
            saved_tuples: saved,
            aux: Vec::new(),
        });
        Ok(())
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        let rec = sq.record(self.op)?;
        let addr = TupleAddr::decode_from_slice(&rec.resume_point)?;
        self.acquire(ctx)?;
        self.cursor_mut()?.seek(addr);
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
            control_bytes: 10, // page + slot
            ..Default::default()
        }
    }

    fn rewind(&mut self, _ctx: &mut ExecContext) -> Result<()> {
        self.cursor_mut()?.seek(TupleAddr::ZERO);
        self.pending.clear();
        Ok(())
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
    }
}
