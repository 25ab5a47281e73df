//! Filter (paper §4, "Filter").
//!
//! Stateless: reactive checkpointing only. Implements **contract
//! migration** (§3.4): after signing a contract, the filter migrates it to
//! a fresh reactive checkpoint upon finding the first matching tuple,
//! saving that tuple in the contract (footnote 3) so the child never has
//! to regenerate the non-matching prefix on resume.

use crate::context::ExecContext;
use crate::operator::{positional_snapshot, ContractState, Operator, Poll};
use qsr_core::{OpId, OpSuspendInputs, SideSnapshot};
use qsr_storage::{Decode, Decoder, Encode, Encoder, Result, RowRef, Schema, StorageError};

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
    /// `last_in_ctr` is the contract awaiting migration to the next
    /// matching tuple.
    ctr: ContractState,
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
            ctr: ContractState::default(),
        }
    }

    /// Disable contract migration (for the ablation benchmark).
    pub fn without_migration(mut self) -> Self {
        self.ctr.migration_enabled = false;
        self
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
        if let Some(t) = self.ctr.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        let polled = self.child.next_where(ctx, self.op, &self.predicate)?;
        if let Poll::Tuple(t) = &polled {
            if self.ctr.migration_enabled {
                self.migrate_past(ctx, t)?;
            }
        }
        Ok(polled)
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
            control_bytes: 8,
            ..Default::default()
        }
    }

    fn rewind(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.ctr.pending.clear();
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
