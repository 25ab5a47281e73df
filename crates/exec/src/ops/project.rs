//! Projection: stateless column selection. Suspend/resume behavior is the
//! filter's minus contract migration (projection consumes nothing), so
//! its saved tuples are always none.

use crate::context::ExecContext;
use crate::operator::{positional_snapshot, ContractState, Operator, Poll};
use qsr_core::{OpId, OpSuspendInputs, SideSnapshot};
use qsr_storage::{Result, Schema};

/// Column projection.
pub struct Project {
    op: OpId,
    columns: Vec<usize>,
    schema: Schema,
    child: Box<dyn Operator>,
    ctr: ContractState,
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
            ctr: ContractState::default(),
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

    fn children(&mut self) -> Vec<&mut dyn Operator> {
        vec![self.child.as_mut()]
    }

    fn state(&mut self) -> &mut ContractState {
        &mut self.ctr
    }

    fn control(&self) -> Vec<u8> {
        Vec::new()
    }

    fn side_snapshot(&mut self, ctx: &mut ExecContext) -> Result<SideSnapshot> {
        positional_snapshot(self, ctx)
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
