//! Per-operator cumulative-work tracking.
//!
//! Every operator charges the work *it itself performs* (in simulated cost
//! units — page I/O under the cost model, plus optional per-tuple CPU
//! cost) to this table. Checkpoints and contracts snapshot the counter at
//! creation/signing time; the optimizer's `g^r_{i,j}` term is exactly
//! `work_now(i) - work_at_chain_checkpoint(i, j)` (§5 of the paper:
//! "approximated by tracking the cumulative work").

use crate::ids::OpId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared per-operator work counters.
#[derive(Debug, Clone, Default)]
pub struct WorkTable {
    inner: Arc<Mutex<HashMap<OpId, f64>>>,
}

impl WorkTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `amount` work units to `op`.
    pub fn charge(&self, op: OpId, amount: f64) {
        *self.inner.lock().entry(op).or_insert(0.0) += amount;
    }

    /// Current cumulative work of `op`.
    pub fn get(&self, op: OpId) -> f64 {
        self.inner.lock().get(&op).copied().unwrap_or(0.0)
    }

    /// Sum of all counters, taken under the lock (no copy of the table).
    pub fn total(&self) -> f64 {
        self.inner.lock().values().sum()
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> HashMap<OpId, f64> {
        self.inner.lock().clone()
    }

    /// Reset all counters (a resumed query starts fresh counters; `g^r`
    /// deltas only ever compare values from the same execution epoch).
    pub fn reset(&self) {
        self.inner.lock().clear();
    }

    /// Restore counters from a saved snapshot (resume path: keeps the
    /// suspend-time baselines so later `g^r` deltas stay meaningful).
    pub fn restore(&self, snapshot: impl IntoIterator<Item = (OpId, f64)>) {
        let mut g = self.inner.lock();
        g.clear();
        for (op, w) in snapshot {
            g.insert(op, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_operator() {
        let w = WorkTable::new();
        w.charge(OpId(1), 2.0);
        w.charge(OpId(1), 3.0);
        w.charge(OpId(2), 1.0);
        assert_eq!(w.get(OpId(1)), 5.0);
        assert_eq!(w.get(OpId(2)), 1.0);
        assert_eq!(w.get(OpId(3)), 0.0);
    }

    #[test]
    fn clones_share_state_and_reset_clears() {
        let w = WorkTable::new();
        let w2 = w.clone();
        w2.charge(OpId(0), 4.0);
        assert_eq!(w.get(OpId(0)), 4.0);
        w.reset();
        assert_eq!(w2.get(OpId(0)), 0.0);
    }

    #[test]
    fn total_is_the_sum_of_a_snapshot() {
        let w = WorkTable::new();
        assert_eq!(w.total(), 0.0);
        for (op, amount) in [(0, 0.1), (1, 0.2), (2, 0.7), (0, 1e-3), (7, 12.5)] {
            w.charge(OpId(op), amount);
            // Same addends in the same (table) order: bit-equal, not close.
            assert_eq!(w.total(), w.snapshot().values().sum::<f64>());
        }
    }

    #[test]
    fn snapshot_is_detached() {
        let w = WorkTable::new();
        w.charge(OpId(0), 1.0);
        let snap = w.snapshot();
        w.charge(OpId(0), 1.0);
        assert_eq!(snap[&OpId(0)], 1.0);
        assert_eq!(w.get(OpId(0)), 2.0);
    }
}
