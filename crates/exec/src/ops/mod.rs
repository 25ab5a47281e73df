//! Physical operators (paper §4 implements each one's checkpointing,
//! contracting, suspend, and resume behavior).

pub mod agg;
pub mod block_nlj;
pub mod filter;
pub mod hash_agg;
pub mod hash_join;
pub mod index_nlj;
pub mod merge_join;
pub mod project;
pub mod scan;
pub mod sort;

pub use agg::{AggFn, StreamAgg};
pub use block_nlj::BlockNlj;
pub use filter::{Filter, Predicate};
pub use hash_agg::HashAgg;
pub use hash_join::HashJoin;
pub use index_nlj::IndexNlj;
pub use merge_join::MergeJoin;
pub use project::Project;
pub use scan::TableScan;

use crate::operator::Operator;
use qsr_core::{OpSuspendRecord, SideSnapshot, Strategy, SuspendPlan, SuspendedQuery};
use qsr_storage::{Decode, Decoder, Encode, Encoder, Result};

/// The partition a key hashes to — one function for the hash join and the
/// hash aggregate, so both split a key space the same way.
#[inline]
pub(crate) fn hash_partition(key: i64, partitions: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % partitions
}

/// Running state of one aggregate group: every [`AggFn`] is answered from
/// the same four fields, so the stream and hash aggregates share it and
/// its wire form (suspended aggregates carry it in their control state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Accum {
    count: u64,
    sum: i64,
    min: i64,
    max: i64,
}

impl Accum {
    pub(crate) fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    #[inline]
    pub(crate) fn add(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn value(&self, f: AggFn) -> i64 {
        match f {
            AggFn::Count => self.count as i64,
            AggFn::Sum => self.sum,
            AggFn::Min => self.min,
            AggFn::Max => self.max,
        }
    }
}

impl Encode for Accum {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.count);
        enc.put_i64(self.sum);
        enc.put_i64(self.min);
        enc.put_i64(self.max);
    }
}

impl Decode for Accum {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Accum {
            count: dec.get_u64()?,
            sum: dec.get_i64()?,
            min: dec.get_i64()?,
            max: dec.get_i64()?,
        })
    }
}

/// Write resume records for a positional subtree from its side snapshot:
/// each operator is repositioned to the recorded control state — pure
/// seeking, no replay (this is the mechanics behind §3.3's "skipping").
pub fn record_side_snapshot(sq: &mut SuspendedQuery, snap: &SideSnapshot) {
    sq.put_record(OpSuspendRecord {
        op: snap.op,
        strategy: Strategy::Dump,
        resume_point: snap.control.clone(),
        heap_dump: None,
        saved_tuples: Vec::new(),
        aux: Vec::new(),
    });
    for child in &snap.children {
        record_side_snapshot(sq, child);
    }
}

/// The effective strategy for an operator at suspend time: what the plan
/// says, defaulting to Dump (always valid for operators the optimizer did
/// not consider, e.g. positional scans).
pub fn planned_strategy(plan: &SuspendPlan, op: qsr_core::OpId) -> Strategy {
    plan.get(op)
}

/// Boxed operator alias.
pub type BoxedOp = Box<dyn Operator>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_wire_bytes_are_those_of_earlier_builds() {
        // What the stream and the hash aggregate each wrote while they had
        // an accumulator type of their own: suspended aggregates from those
        // builds must still resume.
        let mut acc = Accum::new();
        acc.add(3);
        acc.add(-5);
        let wire = [
            2, 0, 0, 0, 0, 0, 0, 0, 254, 255, 255, 255, 255, 255, 255, 255, 251, 255, 255, 255,
            255, 255, 255, 255, 3, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(acc.encode_to_vec(), wire);
        assert_eq!(Accum::decode_from_slice(&wire).unwrap(), acc);
    }
}
