//! Filter (paper §4, "Filter").
//!
//! Stateless: reactive checkpointing only. Implements **contract
//! migration** (§3.4): after signing a contract, the filter migrates it to
//! a fresh reactive checkpoint upon finding the first matching tuple,
//! saving that tuple in the contract (footnote 3) so the child never has
//! to regenerate the non-matching prefix on resume.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, SuspendPlan,
    SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, Result, RowRef, Schema, StorageError, Tuple,
};
use std::collections::VecDeque;

/// A serializable predicate over a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `tuple[col] < value` (integer column). With the workload's `sel`
    /// column this expresses exact-selectivity filters.
    IntLt {
        /// Column index.
        col: usize,
        /// Threshold.
        value: i64,
    },
    /// `tuple[col] >= value`.
    IntGe {
        /// Column index.
        col: usize,
        /// Threshold.
        value: i64,
    },
    /// `tuple[col] == value`.
    IntEq {
        /// Column index.
        col: usize,
        /// Comparand.
        value: i64,
    },
}

impl Predicate {
    /// Evaluate against a row: a tuple's (`t.row()`), or one still on a
    /// scan's page, before any copy is made.
    pub fn eval(&self, row: RowRef<'_>) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::IntLt { col, value } => row.get(*col).as_int()? < *value,
            Predicate::IntGe { col, value } => row.get(*col).as_int()? >= *value,
            Predicate::IntEq { col, value } => row.get(*col).as_int()? == *value,
        })
    }
}

impl Encode for Predicate {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Predicate::True => enc.put_u8(0),
            Predicate::IntLt { col, value } => {
                enc.put_u8(1);
                enc.put_usize(*col);
                enc.put_i64(*value);
            }
            Predicate::IntGe { col, value } => {
                enc.put_u8(2);
                enc.put_usize(*col);
                enc.put_i64(*value);
            }
            Predicate::IntEq { col, value } => {
                enc.put_u8(3);
                enc.put_usize(*col);
                enc.put_i64(*value);
            }
        }
    }
}

impl Decode for Predicate {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => Predicate::True,
            1 => Predicate::IntLt {
                col: dec.get_usize()?,
                value: dec.get_i64()?,
            },
            2 => Predicate::IntGe {
                col: dec.get_usize()?,
                value: dec.get_i64()?,
            },
            3 => Predicate::IntEq {
                col: dec.get_usize()?,
                value: dec.get_i64()?,
            },
            t => return Err(StorageError::corrupt(format!("bad predicate tag {t}"))),
        })
    }
}

/// Filtering operator.
pub struct Filter {
    op: OpId,
    predicate: Predicate,
    child: Box<dyn Operator>,
    schema: Schema,
    pending: VecDeque<Tuple>,
    /// Contract awaiting migration to the next matching tuple.
    pending_migration: Option<CtrId>,
    /// Whether contract migration is enabled (ablation toggle).
    migration_enabled: bool,
}

impl Filter {
    /// Create a filter over `child`.
    pub fn new(op: OpId, predicate: Predicate, child: Box<dyn Operator>) -> Self {
        let schema = child.schema().clone();
        Self {
            op,
            predicate,
            child,
            schema,
            pending: VecDeque::new(),
            pending_migration: None,
            migration_enabled: true,
        }
    }

    /// Disable contract migration (for the ablation benchmark).
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    fn migrate_if_pending(&mut self, ctx: &mut ExecContext, matching: &Tuple) -> Result<()> {
        let Some(ctr) = self.pending_migration.take() else {
            return Ok(());
        };
        // New reactive checkpoint at the current position (just past the
        // matching tuple) with a fresh cascaded contract to the child.
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, vec![], work);
        self.child.sign_contract(ctx, ck)?;
        ctx.graph.migrate_contract(
            ctr,
            Migration::to(ck)
                .saving(matching.encode_to_vec())
                .with_work(work),
        )?;
        ctx.graph.prune_for(self.op);
        Ok(())
    }
}

impl Operator for Filter {
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
        let polled = self.child.next_where(ctx, self.op, &self.predicate)?;
        if let Poll::Tuple(t) = &polled {
            if self.migration_enabled {
                self.migrate_if_pending(ctx, t)?;
            }
        }
        Ok(polled)
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, vec![], work);
        self.child.sign_contract(ctx, ck)?;
        ctx.graph.prune_for(self.op);
        let ctr = ctx
            .graph
            .sign_contract(parent_ckpt, self.op, ck, vec![], work, vec![])?;
        if self.migration_enabled {
            self.pending_migration = Some(ctr);
        }
        Ok(ctr)
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
        match mode {
            SuspendMode::Current => {
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: vec![],
                    heap_dump: None,
                    saved_tuples: Vec::new(),
                    aux: Vec::new(),
                });
                self.child.suspend(ctx, SuspendMode::Current, plan, sq)
            }
            SuspendMode::Contract(ctr) => {
                let c = ctx
                    .graph
                    .contract(ctr)
                    .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr}")))?;
                let saved = c.saved_tuples.clone();
                let my_ckpt = c.child_ckpt;
                sq.put_record(OpSuspendRecord {
                    op: self.op,
                    strategy: plan.get(self.op),
                    resume_point: vec![],
                    heap_dump: None,
                    saved_tuples: saved,
                    aux: Vec::new(),
                });
                // Relay to the child via the cascaded contract of the
                // checkpoint that fulfills ours.
                let child_ctr = ctx
                    .graph
                    .contract_from(my_ckpt, self.child.op_id())
                    .map(|cc| cc.id)
                    .ok_or_else(|| {
                        StorageError::invalid("filter checkpoint missing child contract")
                    })?;
                self.child
                    .suspend(ctx, SuspendMode::Contract(child_ctr), plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        self.pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
        self.pending_migration = None;
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: 0,
            control_bytes: 8,
            ..Default::default()
        }
    }

    fn rewind(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.pending.clear();
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
