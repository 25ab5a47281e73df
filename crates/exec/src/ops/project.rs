//! Projection: stateless column selection. Suspend/resume behavior is the
//! filter's minus contract migration (projection consumes nothing).

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, SuspendPlan,
    SuspendedQuery,
};
use qsr_storage::{Result, Schema, StorageError};

/// Column projection.
pub struct Project {
    op: OpId,
    columns: Vec<usize>,
    schema: Schema,
    child: Box<dyn Operator>,
}

impl Project {
    /// Project `child` onto `columns` (in the given order).
    pub fn new(op: OpId, columns: Vec<usize>, child: Box<dyn Operator>) -> Self {
        let schema = child.schema().project(&columns);
        Self {
            op,
            columns,
            schema,
            child,
        }
    }
}

impl Operator for Project {
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
        if ctx.suspend_pending() {
            return Ok(Poll::Suspended);
        }
        match crate::pull!(self.child, ctx) {
            Some(t) => {
                ctx.tick(self.op);
                Ok(Poll::Tuple(t.project(&self.columns)))
            }
            None => Ok(Poll::Done),
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, vec![], work);
        self.child.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        ctx.graph
            .sign_contract(parent_ckpt, self.op, ck, vec![], work, vec![])
    }

    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot> {
        let child = self.child.side_snapshot(ctx)?;
        Ok(SideSnapshot {
            op: self.op,
            control: vec![],
            work: ctx.work.get(self.op),
            children: vec![child],
        })
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        sq.put_record(OpSuspendRecord {
            op: self.op,
            strategy: plan.get(self.op),
            resume_point: vec![],
            heap_dump: None,
            saved_tuples: Vec::new(),
            aux: Vec::new(),
        });
        match mode {
            SuspendMode::Current => self.child.suspend(ctx, SuspendMode::Current, plan, sq),
            SuspendMode::Contract(ctr) => {
                let my_ckpt = ctx
                    .graph
                    .contract(ctr)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr}")))?
                    .child_ckpt;
                let child_ctr = ctx
                    .graph
                    .contract_from(my_ckpt, self.child.op_id())
                    .map(|cc| cc.id)
                    .ok_or_else(|| {
                        StorageError::invalid("project checkpoint missing child contract")
                    })?;
                self.child
                    .suspend(ctx, SuspendMode::Contract(child_ctr), plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: 0,
            control_bytes: 0,
            ..Default::default()
        }
    }

    fn rewind(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.rewind(ctx)
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
