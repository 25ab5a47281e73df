//! Checkpoints, contracts, and the contract graph (paper §3.1, §3.4).
//!
//! * A [`Checkpoint`] (Def. 1) records everything operator `O` needs to
//!   restore its execution state as of the moment it was created: its
//!   control state and its cumulative-work reading (for the optimizer's
//!   `g^r` terms). Stateful operators create them *proactively* at
//!   minimal-heap-state points; stateless operators *reactively* when
//!   asked to sign a contract.
//! * A [`Contract`] (Def. 2) is an edge from a parent's checkpoint to the
//!   child's fulfilling checkpoint. It stores the child's control state at
//!   signing (the roll-forward *target*), side snapshots of the child's
//!   positional subtrees, and any saved tuples from contract migration
//!   (§3.4, footnote 3).
//! * The [`ContractGraph`] tracks the live checkpoints/contracts, prunes
//!   inactive nodes exactly per §3.4, and resolves GoBack chains for the
//!   suspend-plan optimizer. Theorem 1's `O(n·h)` size bound is enforced
//!   by the pruning rule and property-tested.

use crate::ids::{CkptId, CtrId, OpId};
use crate::topology::PlanTopology;
use qsr_storage::{Decode, Decoder, Encode, Encoder, Result, StorageError};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A checkpoint: a node in the contract graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Identifier.
    pub id: CkptId,
    /// Owning operator.
    pub op: OpId,
    /// Global logical creation time (monotone across the whole graph).
    pub seq: u64,
    /// Operator control state at creation (opaque to the framework).
    pub control: Vec<u8>,
    /// Operator cumulative work at creation.
    pub work: f64,
    /// False for *barrier* checkpoints: placeholders created when a
    /// contract must be signed but no usable checkpoint exists (e.g. right
    /// after a resume whose `SuspendedQuery` did not persist the contract
    /// graph — §3.3). Chains through a barrier do not resolve, so the
    /// optimizer never offers GoBack through one; the graph re-forms as
    /// real checkpoints are created.
    pub resumable: bool,
}

/// Recursive snapshot of a positional child subtree at contract-signing
/// time: enough to reposition (not replay) those operators on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct SideSnapshot {
    /// The positional operator.
    pub op: OpId,
    /// Its control state at signing.
    pub control: Vec<u8>,
    /// Its cumulative work at signing (feeds the parent's `g^r`).
    pub work: f64,
    /// Snapshots of its own children, recursively.
    pub children: Vec<SideSnapshot>,
}

impl SideSnapshot {
    /// Total work recorded in this snapshot subtree.
    pub fn total_work(&self) -> f64 {
        self.work + self.children.iter().map(SideSnapshot::total_work).sum::<f64>()
    }
}

/// A contract: an edge in the contract graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Identifier.
    pub id: CtrId,
    /// The parent checkpoint this contract belongs to.
    pub parent_ckpt: CkptId,
    /// The child operator that signed.
    pub child_op: OpId,
    /// The child's checkpoint that fulfills this contract.
    pub child_ckpt: CkptId,
    /// Child control state at signing — the roll-forward target.
    pub control: Vec<u8>,
    /// Child cumulative work at signing.
    pub work_at_signing: f64,
    /// Side snapshots of the child's positional subtrees at signing.
    pub sides: Vec<SideSnapshot>,
    /// Tuples saved by contract migration (returned first on resume).
    pub saved_tuples: Vec<Vec<u8>>,
}

/// Resolution of a GoBack chain from an ancestor's latest checkpoint down
/// to an operator (used by both the optimizer and the suspend executor).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResolution {
    /// The checkpoint of the target operator reachable from the ancestor's
    /// latest checkpoint.
    pub ckpt: CkptId,
    /// The contract enforced *on* the target operator (`None` when the
    /// ancestor is the operator itself).
    pub ctr: Option<CtrId>,
}

/// Parameters of a contract migration (§3.4). `None` fields keep the
/// contract's existing values.
#[derive(Debug, Clone)]
pub struct Migration {
    /// The newer fulfilling checkpoint of the same child operator.
    pub new_child_ckpt: CkptId,
    /// An output tuple already consumed by the parent since the original
    /// signing, to be re-emitted first on resume (footnote 3).
    pub saved_tuple: Option<Vec<u8>>,
    /// Refreshed target control state (the new signing point).
    pub control: Option<Vec<u8>>,
    /// Refreshed work reading at the new signing point.
    pub work_at_signing: Option<f64>,
    /// Refreshed positional side snapshots.
    pub sides: Option<Vec<SideSnapshot>>,
}

impl Migration {
    /// Migration to `ckpt` with no other changes.
    pub fn to(ckpt: CkptId) -> Self {
        Self {
            new_child_ckpt: ckpt,
            saved_tuple: None,
            control: None,
            work_at_signing: None,
            sides: None,
        }
    }

    /// Attach a saved tuple.
    pub fn saving(mut self, tuple: Vec<u8>) -> Self {
        self.saved_tuple = Some(tuple);
        self
    }

    /// Refresh the target control state.
    pub fn with_control(mut self, control: Vec<u8>) -> Self {
        self.control = Some(control);
        self
    }

    /// Refresh the work reading.
    pub fn with_work(mut self, work: f64) -> Self {
        self.work_at_signing = Some(work);
        self
    }

    /// Refresh the side snapshots.
    pub fn with_sides(mut self, sides: Vec<SideSnapshot>) -> Self {
        self.sides = Some(sides);
        self
    }
}

/// The contract graph: checkpoints as nodes, contracts as edges.
#[derive(Debug, Clone)]
pub struct ContractGraph {
    ckpts: BTreeMap<CkptId, Checkpoint>,
    ctrs: BTreeMap<CtrId, Contract>,
    latest: HashMap<OpId, CkptId>,
    /// Contracts whose `child_ckpt` is this checkpoint.
    incoming: HashMap<CkptId, HashSet<CtrId>>,
    /// Contracts whose `parent_ckpt` is this checkpoint.
    outgoing: HashMap<CkptId, Vec<CtrId>>,
    next_ckpt: u64,
    next_ctr: u64,
    next_seq: u64,
    pruning_enabled: bool,
}

impl Default for ContractGraph {
    fn default() -> Self {
        Self {
            ckpts: BTreeMap::new(),
            ctrs: BTreeMap::new(),
            latest: HashMap::new(),
            incoming: HashMap::new(),
            outgoing: HashMap::new(),
            next_ckpt: 0,
            next_ctr: 0,
            next_seq: 0,
            pruning_enabled: true,
        }
    }
}

impl ContractGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggle §3.4 inactive-node pruning (ablation; keep enabled in
    /// production — Theorem 1's bound depends on it).
    pub fn set_pruning(&mut self, enabled: bool) {
        self.pruning_enabled = enabled;
    }

    /// Number of live checkpoints.
    pub fn num_checkpoints(&self) -> usize {
        self.ckpts.len()
    }

    /// Number of live contracts.
    pub fn num_contracts(&self) -> usize {
        self.ctrs.len()
    }

    /// Create a checkpoint for `op` and make it the operator's latest.
    /// (Proactive for stateful operators, reactive for stateless ones —
    /// the graph does not care which.)
    pub fn create_checkpoint(&mut self, op: OpId, control: Vec<u8>, work: f64) -> CkptId {
        self.create_checkpoint_inner(op, control, work, true)
    }

    /// Create a *barrier* checkpoint (see [`Checkpoint::resumable`]).
    pub fn create_barrier_checkpoint(&mut self, op: OpId, control: Vec<u8>, work: f64) -> CkptId {
        self.create_checkpoint_inner(op, control, work, false)
    }

    fn create_checkpoint_inner(
        &mut self,
        op: OpId,
        control: Vec<u8>,
        work: f64,
        resumable: bool,
    ) -> CkptId {
        let id = CkptId(self.next_ckpt);
        self.next_ckpt += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.ckpts.insert(
            id,
            Checkpoint {
                id,
                op,
                seq,
                control,
                work,
                resumable,
            },
        );
        self.latest.insert(op, id);
        id
    }

    /// Record a contract from `parent_ckpt` to the child's fulfilling
    /// checkpoint `child_ckpt`.
    #[allow(clippy::too_many_arguments)]
    pub fn sign_contract(
        &mut self,
        parent_ckpt: CkptId,
        child_op: OpId,
        child_ckpt: CkptId,
        control: Vec<u8>,
        work_at_signing: f64,
        sides: Vec<SideSnapshot>,
    ) -> Result<CtrId> {
        if !self.ckpts.contains_key(&parent_ckpt) {
            return Err(StorageError::invalid(format!("unknown parent {parent_ckpt}")));
        }
        if !self.ckpts.contains_key(&child_ckpt) {
            return Err(StorageError::invalid(format!("unknown child {child_ckpt}")));
        }
        let id = CtrId(self.next_ctr);
        self.next_ctr += 1;
        self.ctrs.insert(
            id,
            Contract {
                id,
                parent_ckpt,
                child_op,
                child_ckpt,
                control,
                work_at_signing,
                sides,
                saved_tuples: Vec::new(),
            },
        );
        self.incoming.entry(child_ckpt).or_default().insert(id);
        self.outgoing.entry(parent_ckpt).or_default().push(id);
        Ok(id)
    }

    /// Contract migration (§3.4): retarget `ctr` to a newer fulfilling
    /// checkpoint of the same child. The migration moves the contract's
    /// effective signing point forward in time, so the stored target
    /// control state, work reading, and side snapshots are refreshed, and
    /// any output tuple already consumed by the parent since the original
    /// signing is saved to be re-emitted first on resume (footnote 3).
    pub fn migrate_contract(&mut self, ctr: CtrId, update: Migration) -> Result<()> {
        let new_op = self
            .ckpts
            .get(&update.new_child_ckpt)
            .ok_or_else(|| {
                StorageError::invalid(format!("unknown ckpt {}", update.new_child_ckpt))
            })?
            .op;
        let contract = self
            .ctrs
            .get_mut(&ctr)
            .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr}")))?;
        if contract.child_op != new_op {
            return Err(StorageError::invalid(format!(
                "migration target {} belongs to {new_op}, contract child is {}",
                update.new_child_ckpt, contract.child_op
            )));
        }
        let old = contract.child_ckpt;
        contract.child_ckpt = update.new_child_ckpt;
        if let Some(t) = update.saved_tuple {
            contract.saved_tuples.push(t);
        }
        if let Some(w) = update.work_at_signing {
            contract.work_at_signing = w;
        }
        if let Some(c) = update.control {
            contract.control = c;
        }
        if let Some(s) = update.sides {
            contract.sides = s;
        }
        let new_ckpt = contract.child_ckpt;
        if let Some(set) = self.incoming.get_mut(&old) {
            set.remove(&ctr);
        }
        self.incoming.entry(new_ckpt).or_default().insert(ctr);
        // The old fulfilling checkpoint may now be inactive.
        self.prune_checkpoint(old);
        Ok(())
    }

    /// Latest checkpoint of `op`, if any.
    pub fn latest_ckpt(&self, op: OpId) -> Option<CkptId> {
        self.latest.get(&op).copied()
    }

    /// Checkpoint by id.
    pub fn checkpoint(&self, id: CkptId) -> Option<&Checkpoint> {
        self.ckpts.get(&id)
    }

    /// Contract by id.
    pub fn contract(&self, id: CtrId) -> Option<&Contract> {
        self.ctrs.get(&id)
    }

    /// The contract from `parent_ckpt` to `child_op`, if one exists.
    pub fn contract_from(&self, parent_ckpt: CkptId, child_op: OpId) -> Option<&Contract> {
        self.outgoing
            .get(&parent_ckpt)?
            .iter()
            .filter_map(|id| self.ctrs.get(id))
            .find(|c| c.child_op == child_op)
    }

    /// Resolve the GoBack chain from ancestor `j`'s latest checkpoint down
    /// the rebuild path to operator `i`. Returns `None` when any link is
    /// missing (in which case `x_{i,j}` simply does not exist in the MIP).
    pub fn resolve_chain(
        &self,
        topo: &PlanTopology,
        j: OpId,
        i: OpId,
    ) -> Option<ChainResolution> {
        let path = topo.rebuild_path(j, i)?;
        let mut ckpt = self.latest_ckpt(j)?;
        if !self.checkpoint(ckpt)?.resumable {
            return None;
        }
        let mut last_ctr = None;
        for step in path.windows(2) {
            let child = step[1];
            let ctr = self.contract_from(ckpt, child)?;
            ckpt = ctr.child_ckpt;
            if !self.checkpoint(ckpt)?.resumable {
                return None;
            }
            last_ctr = Some(ctr.id);
        }
        Some(ChainResolution {
            ckpt,
            ctr: last_ctr,
        })
    }

    /// §3.4 pruning rule: delete `ckpt` if it has no incoming contracts
    /// and is not its operator's most recent checkpoint; cascade through
    /// the children its outgoing contracts pointed at.
    fn prune_checkpoint(&mut self, ckpt: CkptId) {
        let deletable = match self.ckpts.get(&ckpt) {
            Some(c) => {
                self.incoming.get(&ckpt).is_none_or(HashSet::is_empty)
                    && self.latest.get(&c.op) != Some(&ckpt)
            }
            None => false,
        };
        if !deletable {
            return;
        }
        self.ckpts.remove(&ckpt);
        self.incoming.remove(&ckpt);
        let outs = self.outgoing.remove(&ckpt).unwrap_or_default();
        let mut orphaned = Vec::new();
        for ctr_id in outs {
            if let Some(ctr) = self.ctrs.remove(&ctr_id) {
                if let Some(set) = self.incoming.get_mut(&ctr.child_ckpt) {
                    set.remove(&ctr_id);
                }
                orphaned.push(ctr.child_ckpt);
            }
        }
        for child in orphaned {
            self.prune_checkpoint(child);
        }
    }

    /// Run the pruning pass for `op` after it created a new checkpoint:
    /// every older checkpoint of `op` becomes a candidate.
    pub fn prune_for(&mut self, op: OpId) {
        if !self.pruning_enabled {
            return;
        }
        let candidates: Vec<CkptId> = self
            .ckpts
            .values()
            .filter(|c| c.op == op && self.latest.get(&op) != Some(&c.id))
            .map(|c| c.id)
            .collect();
        for c in candidates {
            self.prune_checkpoint(c);
        }
    }

    /// All live checkpoints of `op`, oldest first.
    pub fn checkpoints_of(&self, op: OpId) -> Vec<&Checkpoint> {
        let mut v: Vec<&Checkpoint> = self.ckpts.values().filter(|c| c.op == op).collect();
        v.sort_by_key(|c| c.seq);
        v
    }

    /// Reset the graph (used on resume when the graph was not persisted:
    /// it will gradually re-form, as §3.3 describes).
    pub fn clear(&mut self) {
        *self = Self {
            next_ckpt: self.next_ckpt,
            next_ctr: self.next_ctr,
            next_seq: self.next_seq,
            ..Self::default()
        };
    }
}

impl Encode for SideSnapshot {
    fn encode(&self, enc: &mut Encoder) {
        self.op.encode(enc);
        enc.put_bytes(&self.control);
        enc.put_f64(self.work);
        enc.put_seq(&self.children);
    }
}

impl Decode for SideSnapshot {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SideSnapshot {
            op: OpId::decode(dec)?,
            control: dec.get_bytes()?.to_vec(),
            work: dec.get_f64()?,
            children: dec.get_seq()?,
        })
    }
}

// Checkpoint records cross the disk boundary inside serialized contract
// graphs and operator control state, so each one carries a checksum trailer
// over its own fields: a damaged record surfaces as `ChecksumMismatch` at
// decode time instead of resuming from a garbage position.
impl Checkpoint {
    fn encode_fields(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.op.encode(enc);
        enc.put_u64(self.seq);
        enc.put_bytes(&self.control);
        enc.put_f64(self.work);
        enc.put_bool(self.resumable);
    }
}

impl Encode for Checkpoint {
    fn encode(&self, enc: &mut Encoder) {
        let mut fields = Encoder::new();
        self.encode_fields(&mut fields);
        let fields = fields.finish();
        enc.put_u64(qsr_storage::checksum(&fields));
        enc.put_bytes(&fields);
    }
}

impl Decode for Checkpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let expected = dec.get_u64()?;
        let fields = dec.get_bytes()?;
        qsr_storage::verify_checksum("Checkpoint record", fields, expected)?;
        let mut fdec = Decoder::new(fields);
        let ckpt = Checkpoint {
            id: CkptId::decode(&mut fdec)?,
            op: OpId::decode(&mut fdec)?,
            seq: fdec.get_u64()?,
            control: fdec.get_bytes()?.to_vec(),
            work: fdec.get_f64()?,
            resumable: fdec.get_bool()?,
        };
        if !fdec.is_exhausted() {
            return Err(StorageError::corrupt(format!(
                "Checkpoint record: {} trailing bytes",
                fdec.remaining()
            )));
        }
        Ok(ckpt)
    }
}

impl Encode for Contract {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.parent_ckpt.encode(enc);
        self.child_op.encode(enc);
        self.child_ckpt.encode(enc);
        enc.put_bytes(&self.control);
        enc.put_f64(self.work_at_signing);
        enc.put_seq(&self.sides);
        enc.put_seq(&self.saved_tuples);
    }
}

impl Decode for Contract {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Contract {
            id: CtrId::decode(dec)?,
            parent_ckpt: CkptId::decode(dec)?,
            child_op: OpId::decode(dec)?,
            child_ckpt: CkptId::decode(dec)?,
            control: dec.get_bytes()?.to_vec(),
            work_at_signing: dec.get_f64()?,
            sides: dec.get_seq()?,
            saved_tuples: dec.get_seq()?,
        })
    }
}

impl Encode for ContractGraph {
    fn encode(&self, enc: &mut Encoder) {
        let ckpts: Vec<Checkpoint> = self.ckpts.values().cloned().collect();
        let ctrs: Vec<Contract> = self.ctrs.values().cloned().collect();
        enc.put_seq(&ckpts);
        enc.put_seq(&ctrs);
        enc.put_u32(self.latest.len() as u32);
        let mut latest: Vec<(OpId, CkptId)> = self.latest.iter().map(|(&o, &c)| (o, c)).collect();
        latest.sort();
        for (op, ck) in latest {
            op.encode(enc);
            ck.encode(enc);
        }
        enc.put_u64(self.next_ckpt);
        enc.put_u64(self.next_ctr);
        enc.put_u64(self.next_seq);
    }
}

impl Decode for ContractGraph {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let mut g = ContractGraph::new();
        for c in dec.get_seq::<Checkpoint>()? {
            g.ckpts.insert(c.id, c);
        }
        for c in dec.get_seq::<Contract>()? {
            g.incoming.entry(c.child_ckpt).or_default().insert(c.id);
            g.outgoing.entry(c.parent_ckpt).or_default().push(c.id);
            g.ctrs.insert(c.id, c);
        }
        let n = dec.get_u32()? as usize;
        for _ in 0..n {
            let op = OpId::decode(dec)?;
            let ck = CkptId::decode(dec)?;
            g.latest.insert(op, ck);
        }
        g.next_ckpt = dec.get_u64()?;
        g.next_ctr = dec.get_u64()?;
        g.next_seq = dec.get_u64()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::test_util::running_example;

    /// Convenience: sign with empty payloads.
    fn sign(g: &mut ContractGraph, parent: CkptId, child_op: OpId, child_ckpt: CkptId) -> CtrId {
        g.sign_contract(parent, child_op, child_ckpt, vec![], 0.0, vec![])
            .unwrap()
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            id: CkptId(3),
            op: OpId(1),
            seq: 17,
            control: vec![1, 2, 3, 4],
            work: 12.5,
            resumable: true,
        }
    }

    #[test]
    fn checkpoint_codec_detects_damage() {
        let ck = sample_checkpoint();
        let bytes = ck.encode_to_vec();
        assert_eq!(Checkpoint::decode_from_slice(&bytes).unwrap(), ck);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            if let Ok(back) = Checkpoint::decode_from_slice(&bad) {
                panic!("flip at byte {i} decoded silently: {back:?}");
            }
            assert!(
                Checkpoint::decode_from_slice(&bytes[..i]).is_err(),
                "truncation to {i} bytes decoded silently"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_corrupted_checkpoint_never_panics(idx in 0usize..4096, bit in 0u8..8, truncate: bool) {
            let bytes = sample_checkpoint().encode_to_vec();
            if truncate {
                let cut = idx % bytes.len();
                proptest::prop_assert!(Checkpoint::decode_from_slice(&bytes[..cut]).is_err());
            } else {
                let mut bad = bytes.clone();
                let i = idx % bad.len();
                bad[i] ^= 1 << bit;
                proptest::prop_assert!(Checkpoint::decode_from_slice(&bad).is_err());
            }
        }
    }

    #[test]
    fn example4_checkpointing_and_contracting() {
        // Figure 4: NLJ1 checkpoints at t1 (Ckpt2); NLJ0 checkpoints at t3
        // (Ckpt1) and signs a contract with NLJ1, fulfilled by Ckpt2.
        let t = running_example();
        let mut g = ContractGraph::new();
        let ckpt2 = g.create_checkpoint(OpId(1), vec![], 0.0);
        let ckpt1 = g.create_checkpoint(OpId(0), vec![], 0.0);
        let ctr1 = sign(&mut g, ckpt1, OpId(1), ckpt2);

        assert_eq!(g.num_checkpoints(), 2);
        assert_eq!(g.num_contracts(), 1);
        let res = g.resolve_chain(&t, OpId(0), OpId(1)).unwrap();
        assert_eq!(res.ckpt, ckpt2);
        assert_eq!(res.ctr, Some(ctr1));
        // Self chains are the latest checkpoint with no contract.
        let own = g.resolve_chain(&t, OpId(1), OpId(1)).unwrap();
        assert_eq!(own.ckpt, ckpt2);
        assert_eq!(own.ctr, None);
    }

    #[test]
    fn chain_resolves_through_scan() {
        let t = running_example();
        let mut g = ContractGraph::new();
        // Scan R reactive ckpt, NLJ1 ckpt with contract to scan, NLJ0 ckpt
        // with contract to NLJ1.
        let ck_r = g.create_checkpoint(OpId(2), vec![1], 10.0);
        let ck_1 = g.create_checkpoint(OpId(1), vec![], 5.0);
        sign(&mut g, ck_1, OpId(2), ck_r);
        let ck_0 = g.create_checkpoint(OpId(0), vec![], 0.0);
        sign(&mut g, ck_0, OpId(1), ck_1);

        let res = g.resolve_chain(&t, OpId(0), OpId(2)).unwrap();
        assert_eq!(res.ckpt, ck_r);
        // Chains never cross positional edges.
        assert!(g.resolve_chain(&t, OpId(0), OpId(3)).is_none());
        assert!(g.resolve_chain(&t, OpId(1), OpId(3)).is_none());
    }

    #[test]
    fn missing_link_means_no_chain() {
        let t = running_example();
        let mut g = ContractGraph::new();
        g.create_checkpoint(OpId(0), vec![], 0.0);
        // NLJ0 has a ckpt but no contract with NLJ1.
        assert!(g.resolve_chain(&t, OpId(0), OpId(1)).is_none());
        // Operator without any checkpoint has no self chain either.
        assert!(g.resolve_chain(&t, OpId(1), OpId(1)).is_none());
    }

    #[test]
    fn example8_pruning_over_time() {
        // Left-deep chain of four stateful ops P0..P3 (Figure 5). We model
        // only the chain: P0 -> P1 -> P2 -> P3 (all rebuild edges).
        use crate::topology::TopoNode;
        let t = PlanTopology::new(vec![
            TopoNode {
                op: OpId(0),
                parent: None,
                children: vec![OpId(1)],
                rebuild_children: vec![OpId(1)],
                stateful: true,
                label: "P0".into(),
            },
            TopoNode {
                op: OpId(1),
                parent: Some(OpId(0)),
                children: vec![OpId(2)],
                rebuild_children: vec![OpId(2)],
                stateful: true,
                label: "P1".into(),
            },
            TopoNode {
                op: OpId(2),
                parent: Some(OpId(1)),
                children: vec![OpId(3)],
                rebuild_children: vec![OpId(3)],
                stateful: true,
                label: "P2".into(),
            },
            TopoNode {
                op: OpId(3),
                parent: Some(OpId(2)),
                children: vec![],
                rebuild_children: vec![],
                stateful: true,
                label: "P3".into(),
            },
        ])
        .unwrap();

        let mut g = ContractGraph::new();
        // Initial checkpoints for everyone, chained top-down.
        let c3 = g.create_checkpoint(OpId(3), vec![], 0.0);
        let c2 = g.create_checkpoint(OpId(2), vec![], 0.0);
        sign(&mut g, c2, OpId(3), c3);
        let c1 = g.create_checkpoint(OpId(1), vec![], 0.0);
        sign(&mut g, c1, OpId(2), c2);
        let c0 = g.create_checkpoint(OpId(0), vec![], 0.0);
        sign(&mut g, c0, OpId(1), c1);
        assert_eq!(g.num_checkpoints(), 4);
        assert_eq!(g.num_contracts(), 3);

        // P2 reaches its next minimal-heap-state point: new ckpt + contract
        // with P3's latest ckpt. Old P2 ckpt is kept (incoming from c1).
        let c2b = g.create_checkpoint(OpId(2), vec![], 1.0);
        sign(&mut g, c2b, OpId(3), c3);
        g.prune_for(OpId(2));
        assert!(g.checkpoint(c2).is_some(), "c2 still referenced by c1's contract");

        // P1 checkpoints twice; after the second, the first new one (with no
        // incoming contracts) dies, along with nothing else.
        let c1b = g.create_checkpoint(OpId(1), vec![], 1.0);
        sign(&mut g, c1b, OpId(2), c2b);
        g.prune_for(OpId(1));
        let c1c = g.create_checkpoint(OpId(1), vec![], 2.0);
        sign(&mut g, c1c, OpId(2), c2b);
        g.prune_for(OpId(1));
        assert!(g.checkpoint(c1b).is_none(), "superseded unreferenced ckpt pruned");
        assert!(g.checkpoint(c1).is_some(), "still referenced from c0");

        // When P0 finally checkpoints again, the old chain c0->c1->c2->...
        // collapses: old c0 (root, never referenced) and its descendants
        // not otherwise needed disappear.
        let c0b = g.create_checkpoint(OpId(0), vec![], 1.0);
        sign(&mut g, c0b, OpId(1), c1c);
        g.prune_for(OpId(0));
        assert!(g.checkpoint(c0).is_none());
        assert!(g.checkpoint(c1).is_none());
        assert!(g.checkpoint(c2).is_none(), "cascade reached c2");
        // Live: c3 (latest of P3), c2b (referenced + latest), c1c, c0b.
        assert_eq!(g.num_checkpoints(), 4);
        assert_eq!(g.num_contracts(), 3);
        // Chain still resolves end to end.
        assert!(g.resolve_chain(&t, OpId(0), OpId(3)).is_some());
    }

    #[test]
    fn migration_moves_edge_and_saves_tuple() {
        let t = running_example();
        let mut g = ContractGraph::new();
        let ck_r1 = g.create_checkpoint(OpId(2), vec![1], 1.0);
        let ck_1 = g.create_checkpoint(OpId(1), vec![], 0.0);
        let ctr = sign(&mut g, ck_1, OpId(2), ck_r1);
        // Scan R creates a newer reactive ckpt; the contract migrates with a
        // saved tuple (the filter technicality of footnote 3).
        let ck_r2 = g.create_checkpoint(OpId(2), vec![2], 5.0);
        g.migrate_contract(
            ctr,
            Migration::to(ck_r2).saving(vec![0xAB]).with_work(5.0),
        )
        .unwrap();
        g.prune_for(OpId(2));

        let c = g.contract(ctr).unwrap();
        assert_eq!(c.child_ckpt, ck_r2);
        assert_eq!(c.saved_tuples, vec![vec![0xAB]]);
        assert_eq!(c.work_at_signing, 5.0);
        assert!(g.checkpoint(ck_r1).is_none(), "old target pruned");
        assert_eq!(g.resolve_chain(&t, OpId(1), OpId(2)).unwrap().ckpt, ck_r2);
    }

    #[test]
    fn migration_to_wrong_operator_rejected() {
        let mut g = ContractGraph::new();
        let ck_a = g.create_checkpoint(OpId(2), vec![], 0.0);
        let ck_p = g.create_checkpoint(OpId(1), vec![], 0.0);
        let ctr = sign(&mut g, ck_p, OpId(2), ck_a);
        let ck_other = g.create_checkpoint(OpId(3), vec![], 0.0);
        assert!(g.migrate_contract(ctr, Migration::to(ck_other)).is_err());
    }

    #[test]
    fn graph_codec_roundtrip() {
        let mut g = ContractGraph::new();
        let a = g.create_checkpoint(OpId(1), vec![7], 3.0);
        let b = g.create_checkpoint(OpId(0), vec![], 0.0);
        let ctr = g
            .sign_contract(
                b,
                OpId(1),
                a,
                vec![9, 9],
                2.0,
                vec![SideSnapshot {
                    op: OpId(3),
                    control: vec![1],
                    work: 4.0,
                    children: vec![],
                }],
            )
            .unwrap();

        let bytes = g.encode_to_vec();
        let g2 = ContractGraph::decode_from_slice(&bytes).unwrap();
        assert_eq!(g2.num_checkpoints(), 2);
        assert_eq!(g2.num_contracts(), 1);
        assert_eq!(g2.latest_ckpt(OpId(1)), Some(a));
        assert_eq!(g2.contract(ctr).unwrap(), g.contract(ctr).unwrap());
        // Id counters continue correctly after decode.
        let mut g3 = g2.clone();
        let c = g3.create_checkpoint(OpId(2), vec![], 0.0);
        assert!(c.0 >= 2);
    }

    #[test]
    fn theorem1_size_bound_under_random_execution() {
        // Random left-deep stateful chains of depth h, random checkpoint
        // sequences with chained contracts, pruning after each: the graph
        // must stay within n*(h+1) checkpoints (Theorem 1's O(n*h)).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..8usize);
            // Build chain topology 0 -> 1 -> ... -> n-1 (all rebuild).
            use crate::topology::TopoNode;
            let nodes: Vec<TopoNode> = (0..n)
                .map(|i| TopoNode {
                    op: OpId(i as u32),
                    parent: if i == 0 { None } else { Some(OpId(i as u32 - 1)) },
                    children: if i + 1 < n { vec![OpId(i as u32 + 1)] } else { vec![] },
                    rebuild_children: if i + 1 < n { vec![OpId(i as u32 + 1)] } else { vec![] },
                    stateful: true,
                    label: format!("P{i}"),
                })
                .collect();
            let topo = PlanTopology::new(nodes).unwrap();
            let h = topo.height();

            let mut g = ContractGraph::new();
            // Everyone starts with a checkpoint, chained bottom-up.
            for i in (0..n).rev() {
                let ck = g.create_checkpoint(OpId(i as u32), vec![], 0.0);
                if i + 1 < n {
                    let child_latest = g.latest_ckpt(OpId(i as u32 + 1)).unwrap();
                    sign(&mut g, ck, OpId(i as u32 + 1), child_latest);
                }
            }
            // 200 random checkpoint events.
            for step in 0..200 {
                let op = OpId(rng.gen_range(0..n) as u32);
                let ck = g.create_checkpoint(op, vec![], step as f64);
                if (op.0 as usize) + 1 < n {
                    let child = OpId(op.0 + 1);
                    let child_latest = g.latest_ckpt(child).unwrap();
                    sign(&mut g, ck, child, child_latest);
                }
                g.prune_for(op);
                assert!(
                    g.num_checkpoints() <= n * (h + 1),
                    "graph grew to {} ckpts for n={n}, h={h}",
                    g.num_checkpoints()
                );
                assert!(g.num_contracts() <= n * (h + 1));
            }
        }
    }
}
