//! Hash-based grouping with aggregation (paper §4, "Grouping with
//! aggregation, duplicate elimination": "In case these operators use
//! hashing, the first phase is as before. In the second phase, an entire
//! bucket is brought into memory... We again maintain the current
//! aggregate value while processing the current bucket.").
//!
//! Phase 1 partitions the input to disk by group-key hash (the partitions
//! are materialization points, like the hash join's). Phase 2 loads one
//! partition at a time, aggregates it in memory, and emits its groups in
//! sorted group order (deterministic — required for exact resume).
//! Minimal-heap-state points occur at partition boundaries, where
//! proactive checkpoints are created; mid-emission suspension records the
//! partition number and emission cursor, and resume either reloads the
//! dumped table or re-aggregates the partition (GoBack) and *skips*
//! directly to the cursor.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use crate::ops::agg::AggFn;
use crate::ops::{hash_partition, Accum};
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Column, DataType, Decode, Decoder, Encode, Encoder, Result, RunHandle, RunWriter,
    Schema, StorageError, Tuple, ValueRef,
};
use std::collections::{HashMap, VecDeque};

const PHASE_PARTITION: u8 = 0;
const PHASE_AGG: u8 = 1;
const PHASE_DONE: u8 = 2;

#[derive(Debug, Clone, PartialEq)]
struct HaControl {
    phase: u8,
    runs: Vec<RunHandle>,
    cur_part: u64,
    emit_idx: u64,
    consumed: u64,
}

impl Encode for HaControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.phase);
        enc.put_seq(&self.runs);
        enc.put_u64(self.cur_part);
        enc.put_u64(self.emit_idx);
        enc.put_u64(self.consumed);
    }
}

impl Decode for HaControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(HaControl {
            phase: dec.get_u8()?,
            runs: dec.get_seq()?,
            cur_part: dec.get_u64()?,
            emit_idx: dec.get_u64()?,
            consumed: dec.get_u64()?,
        })
    }
}

/// Hash-partitioned group-by aggregate.
pub struct HashAgg {
    op: OpId,
    child: Box<dyn Operator>,
    group_col: usize,
    agg_col: usize,
    func: AggFn,
    partitions: usize,
    schema: Schema,

    phase: u8,
    writers: Vec<Option<RunWriter>>,
    runs: Vec<RunHandle>,
    cur_part: usize,
    /// Current partition's groups, sorted by key, with emission cursor.
    groups: Vec<(i64, Accum)>,
    emit_idx: usize,
    heap_bytes: usize,
    consumed: u64,

    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
}

impl HashAgg {
    /// Create a hash aggregate grouping on `group_col`, aggregating
    /// `agg_col` with `func`, using `partitions` disk partitions.
    pub fn new(
        op: OpId,
        child: Box<dyn Operator>,
        group_col: usize,
        agg_col: usize,
        func: AggFn,
        partitions: usize,
    ) -> Self {
        let schema = Schema::new(vec![
            child.schema().column(group_col).clone(),
            Column::new("agg", DataType::Int),
        ]);
        Self {
            op,
            child,
            group_col,
            agg_col,
            func,
            partitions: partitions.max(1),
            schema,
            phase: PHASE_PARTITION,
            writers: Vec::new(),
            runs: Vec::new(),
            cur_part: 0,
            groups: Vec::new(),
            emit_idx: 0,
            heap_bytes: 0,
            consumed: 0,
            last_in_ctr: None,
            produced_since_sign: 0,
            migration_enabled: true,
            pending: VecDeque::new(),
        }
    }

    /// Disable contract migration (ablation toggle).
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    fn control(&self) -> HaControl {
        HaControl {
            phase: self.phase,
            runs: self.runs.clone(),
            cur_part: self.cur_part as u64,
            emit_idx: self.emit_idx as u64,
            consumed: self.consumed,
        }
    }

    fn checkpoint(&mut self, ctx: &mut ExecContext, sign_child: bool) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        if sign_child {
            self.child.sign_contract(ctx, ck)?;
        }
        if self.migration_enabled && self.produced_since_sign == 0 {
            if let Some(ctr) = self.last_in_ctr {
                if ctx.graph.contract(ctr).is_some() {
                    ctx.graph.migrate_contract(
                        ctr,
                        Migration::to(ck).with_control(control).with_work(work),
                    )?;
                }
            }
        }
        ctx.graph.prune_for(self.op);
        Ok(())
    }

    fn load_partition(&mut self, ctx: &mut ExecContext, part: usize) -> Result<()> {
        let mut table: HashMap<i64, Accum> = HashMap::new();
        let mut bytes = 0usize;
        let mut r = ctx.read_run(self.runs[part]);
        while let Some(t) = r.next()? {
            let g = t.get(self.group_col).as_int()?;
            let v = t.get(self.agg_col).as_int()?;
            table.entry(g).or_insert_with(Accum::new).add(v);
            bytes += 40;
        }
        ctx.note_page_reads(self.op, r.pages_fetched());
        let mut groups: Vec<(i64, Accum)> = table.into_iter().collect();
        groups.sort_by_key(|(g, _)| *g);
        self.groups = groups;
        self.heap_bytes = bytes;
        Ok(())
    }
}

impl Operator for HashAgg {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.checkpoint(ctx, true)?;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            match self.phase {
                PHASE_PARTITION => {
                    while self.writers.len() < self.partitions {
                        self.writers
                            .push(Some(ctx.create_run()?));
                    }
                    match self.child.next(ctx)? {
                        Poll::Tuple(t) => {
                            ctx.tick(self.op);
                            self.consumed += 1;
                            let g = t.get(self.group_col).as_int()?;
                            let p = hash_partition(g, self.partitions);
                            self.writers[p]
                                .as_mut()
                                .ok_or_else(|| {
                                    StorageError::invalid("hash-agg partition writer missing")
                                })?
                                .append(&t)?;
                        }
                        Poll::Done => {
                            for w in self.writers.drain(..) {
                                let mut w = w.ok_or_else(|| {
                                    StorageError::invalid("hash-agg partition writer missing")
                                })?;
                                self.runs.push(ctx.seal_run(self.op, &mut w)?);
                            }
                            self.phase = PHASE_AGG;
                            self.cur_part = 0;
                            self.emit_idx = 0;
                            self.groups.clear();
                            self.heap_bytes = 0;
                            // Materialization point.
                            self.checkpoint(ctx, false)?;
                        }
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                }
                PHASE_AGG => {
                    if self.cur_part >= self.partitions {
                        self.phase = PHASE_DONE;
                        continue;
                    }
                    if self.groups.is_empty() && self.emit_idx == 0 {
                        self.load_partition(ctx, self.cur_part)?;
                    }
                    if self.emit_idx < self.groups.len() {
                        let (g, acc) = self.groups[self.emit_idx];
                        self.emit_idx += 1;
                        self.produced_since_sign += 1;
                        return Ok(Poll::Tuple(Tuple::from_fields([
                            ValueRef::Int(g),
                            ValueRef::Int(acc.value(self.func)),
                        ])));
                    }
                    // Partition exhausted: minimal-heap-state point.
                    self.groups.clear();
                    self.heap_bytes = 0;
                    self.emit_idx = 0;
                    self.cur_part += 1;
                    self.checkpoint(ctx, false)?;
                }
                PHASE_DONE => return Ok(Poll::Done),
                p => return Err(StorageError::corrupt(format!("bad hash-agg phase {p}"))),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)?;
        self.groups.clear();
        Ok(())
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        let ctr = if self.phase == PHASE_PARTITION {
            let latest = match ctx.graph.latest_ckpt(self.op) {
                Some(ck) => ck,
                None => ctx.graph.create_barrier_checkpoint(
                    self.op,
                    self.control().encode_to_vec(),
                    ctx.work.get(self.op),
                ),
            };
            ctx.graph.sign_contract(
                parent_ckpt,
                self.op,
                latest,
                self.control().encode_to_vec(),
                ctx.work.get(self.op),
                vec![],
            )?
        } else {
            // Reactive in the emission phase: the cursor is the contract.
            let control = self.control().encode_to_vec();
            let work = ctx.work.get(self.op);
            let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
            ctx.graph.prune_for(self.op);
            ctx.graph
                .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])?
        };
        self.last_in_ctr = Some(ctr);
        self.produced_since_sign = 0;
        Ok(ctr)
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "hash aggregate cannot appear in a positional subtree",
        ))
    }

    fn suspend(
        &mut self,
        ctx: &mut ExecContext,
        mode: SuspendMode,
        plan: &SuspendPlan,
        sq: &mut SuspendedQuery,
    ) -> Result<()> {
        let strategy = plan.get(self.op);

        // Seal any in-progress partitions, in place: a writer leaves the
        // vec only after its flush succeeded and its handle is recorded
        // in `self.runs`, so a suspend attempt failing here or in a later
        // operator can be retried by the next degradation-ladder rung
        // without losing buffered tuples or already-sealed handles.
        while let Some(slot) = self.writers.first_mut() {
            let w = slot
                .as_mut()
                .ok_or_else(|| StorageError::invalid("hash-agg partition writer missing"))?;
            let handle = ctx.seal_run_guarded(self.op, w, "partition-seal")?;
            self.runs.push(handle);
            self.writers.remove(0);
        }
        let current = HaControl {
            runs: self.runs.clone(),
            ..self.control()
        };

        let (resume_point, saved, ckpt_for_child): (HaControl, Vec<Vec<u8>>, Option<CkptId>) =
            match mode {
                SuspendMode::Current => match strategy {
                    Strategy::Dump => (current, Vec::new(), None),
                    Strategy::GoBack { .. } => {
                        if self.phase == PHASE_AGG {
                            // Rebuild the table from own runs + skip to the
                            // emission cursor.
                            (current, Vec::new(), None)
                        } else {
                            let latest = ctx.graph.latest_ckpt(self.op).ok_or_else(|| {
                                StorageError::invalid("hash agg has no checkpoint")
                            })?;
                            (current, Vec::new(), Some(latest))
                        }
                    }
                },
                SuspendMode::Contract(ctr_id) => {
                    let ctr = ctx
                        .graph
                        .contract(ctr_id)
                        .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?
                        .clone();
                    let target = HaControl::decode_from_slice(&ctr.control)?;
                    match strategy {
                        Strategy::Dump => {
                            if target.phase == PHASE_AGG {
                                (target, ctr.saved_tuples.clone(), None)
                            } else {
                                (current, ctr.saved_tuples.clone(), None)
                            }
                        }
                        Strategy::GoBack { .. } => {
                            if target.phase == PHASE_AGG {
                                (target, ctr.saved_tuples.clone(), None)
                            } else {
                                (target, ctr.saved_tuples.clone(), Some(ctr.child_ckpt))
                            }
                        }
                    }
                }
            };

        let heap_dump = match strategy {
            Strategy::Dump if !self.groups.is_empty() => {
                Some(ctx.put_dump_value(self.op, &GroupsDump(self.groups.clone()))?)
            }
            _ => None,
        };
        let aux = match ckpt_for_child {
            Some(ck) => ctx
                .graph
                .checkpoint(ck)
                .map(|c| c.control.clone())
                .unwrap_or_default(),
            None => Vec::new(),
        };
        sq.put_record(OpSuspendRecord {
            op: self.op,
            strategy,
            resume_point: resume_point.encode_to_vec(),
            heap_dump,
            saved_tuples: saved,
            aux,
        });

        match ckpt_for_child {
            Some(ck) => match ctx.graph.contract_from(ck, self.child.op_id()).map(|c| c.id) {
                Some(ctr) => self.child.suspend(ctx, SuspendMode::Contract(ctr), plan, sq),
                None => self.child.suspend(ctx, SuspendMode::Current, plan, sq),
            },
            None => self.child.suspend(ctx, SuspendMode::Current, plan, sq),
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = HaControl::decode_from_slice(&rec.resume_point)?;
        self.phase = control.phase;
        self.runs = control.runs.clone();
        self.cur_part = control.cur_part as usize;
        self.emit_idx = control.emit_idx as usize;
        self.consumed = control.consumed;
        self.groups.clear();
        self.heap_bytes = 0;
        self.writers.clear();

        match (&rec.strategy, &rec.heap_dump) {
            (Strategy::Dump, Some(blob)) => {
                let GroupsDump(groups) = ctx.get_dump_value_for(self.op, *blob)?;
                self.heap_bytes = groups.len() * 40;
                self.groups = groups;
            }
            (Strategy::Dump, None) => {
                if self.phase == PHASE_PARTITION {
                    // Reopen partials for appending.
                    self.writers = self
                        .runs
                        .drain(..)
                        .map(|h| ctx.reopen_run(h).map(Some))
                        .collect::<Result<_>>()?;
                } else if self.phase == PHASE_AGG
                    && (self.emit_idx > 0 || self.cur_part < self.partitions)
                {
                    // Empty table was dumped mid-boundary: nothing to load
                    // eagerly; next() reloads lazily when emit_idx == 0.
                    if self.emit_idx > 0 {
                        self.load_partition(ctx, self.cur_part)?;
                    }
                }
            }
            (Strategy::GoBack { .. }, _) => {
                if self.phase == PHASE_PARTITION {
                    // Counters back to the checkpoint baseline; partials
                    // discarded (redone by post-resume execution).
                    if !rec.aux.is_empty() {
                        let start = HaControl::decode_from_slice(&rec.aux)?;
                        self.consumed = start.consumed;
                    }
                    self.runs.clear();
                } else if self.phase == PHASE_AGG && self.emit_idx > 0 {
                    // Re-aggregate the current partition and skip to the
                    // cursor (§3.3 skipping: group order is deterministic).
                    self.load_partition(ctx, self.cur_part)?;
                }
            }
        }
        self.pending = rec
            .saved_tuples
            .iter()
            .map(|b| Tuple::decode_from_slice(b))
            .collect::<Result<_>>()?;
        self.last_in_ctr = None;
        self.produced_since_sign = 0;
        Ok(())
    }

    fn suspend_inputs(&self) -> OpSuspendInputs {
        OpSuspendInputs {
            heap_bytes: self.heap_bytes,
            control_bytes: 40 + 16 * self.runs.len(),
            ..Default::default()
        }
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

/// Heap-dump image of the current partition's groups. Zero-copy layout:
/// one raw little-endian run of the `n` group keys followed by one raw
/// run of `n` fixed-width (32-byte) accumulators — no per-group headers.
struct GroupsDump(Vec<(i64, Accum)>);

const ACC_BYTES: usize = 32;

impl Encode for GroupsDump {
    fn encode(&self, enc: &mut Encoder) {
        let n = self.0.len();
        enc.put_u32(n as u32);
        let mut keys = Vec::with_capacity(n * 8);
        let mut accs = Vec::with_capacity(n * ACC_BYTES);
        for (g, a) in &self.0 {
            keys.extend_from_slice(&g.to_le_bytes());
            accs.extend_from_slice(&a.count.to_le_bytes());
            accs.extend_from_slice(&a.sum.to_le_bytes());
            accs.extend_from_slice(&a.min.to_le_bytes());
            accs.extend_from_slice(&a.max.to_le_bytes());
        }
        enc.put_raw(&keys);
        enc.put_raw(&accs);
    }
}

impl Decode for GroupsDump {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        if n > (1 << 28) {
            return Err(StorageError::corrupt(format!(
                "groups dump claims {n} groups"
            )));
        }
        let keys = dec.get_raw(n * 8)?;
        let accs = dec.get_raw(n * ACC_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for (krow, arow) in keys.chunks_exact(8).zip(accs.chunks_exact(ACC_BYTES)) {
            let g = i64::from_le_bytes(krow.try_into().expect("8-byte key"));
            let word = |i: usize| {
                arow[i * 8..i * 8 + 8]
                    .try_into()
                    .expect("8-byte accumulator word")
            };
            out.push((
                g,
                Accum {
                    count: u64::from_le_bytes(word(0)),
                    sum: i64::from_le_bytes(word(1)),
                    min: i64::from_le_bytes(word(2)),
                    max: i64::from_le_bytes(word(3)),
                },
            ));
        }
        Ok(GroupsDump(out))
    }
}
