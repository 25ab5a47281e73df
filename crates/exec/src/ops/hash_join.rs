//! Partitioned hash join: simple (Grace) and hybrid variants (paper §4).
//!
//! **Simple hash join** runs in two phases. Phase 1 hashes each child into
//! `P` on-disk partitions; the end of phase 1 is a *materialization point*
//! — the partition runs are disk-resident state that survives suspension.
//! Phase 2 loads one build partition into an in-memory table (the heap
//! state) and streams the matching probe partition; minimal-heap-state
//! points occur at partition boundaries, where proactive checkpoints are
//! created.
//!
//! **Hybrid hash join** keeps partition 0 of the build side entirely in
//! memory and probes it on the fly during the probe child's partitioning
//! pass. As the paper notes, suspend is relatively expensive here: the
//! operator either dumps its whole in-memory table or goes back to the
//! beginning of the phase with respect to the build relation; the probe
//! relation still benefits from the materialization point.
//!
//! During the partitioning phases the operator produces nothing (simple
//! variant), so incoming contracts migrate forward across phase
//! boundaries like the sort's.

use crate::context::ExecContext;
use crate::operator::{BatchPoll, Operator, Poll, SuspendMode};
use qsr_core::{
    Batch, CkptId, ColumnVec, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord,
    SideSnapshot, Strategy, SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, Result, RunHandle, RunReader, RunWriter, Schema,
    StorageError, Tuple, TupleAddr, TupleBlock,
};
use std::collections::{HashMap, VecDeque};

const PHASE_BUILD: u8 = 0;
const PHASE_PROBE: u8 = 1;
const PHASE_JOIN: u8 = 2;
const PHASE_DONE: u8 = 3;
/// Grace-mode join phase (`mem_budget > 0`): a work queue of partition
/// tasks replaces the linear partition scan so over-budget partitions can
/// be recursively re-partitioned.
const PHASE_GRACE: u8 = 4;

/// Grace task stages. `TS_JOIN` and `TS_NLJ` emit output; the spill
/// stages only move tuples between runs (no output, so checkpoints and
/// contract migration behave like the partitioning phases).
const TS_JOIN: u8 = 0;
const TS_SPILL_BUILD: u8 = 1;
const TS_SPILL_PROBE: u8 = 2;
const TS_NLJ: u8 = 3;

/// Recursion bound: a task at this level that still exceeds the budget
/// falls back to block nested-loop (chunked build) instead of spilling
/// again — duplicate-heavy keys never split, so depth must be capped.
const MAX_SPILL_DEPTH: u64 = 2;

fn hash_partition(key: i64, partitions: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % partitions
}

/// Level-salted partition hash: re-partitioning one level deeper must not
/// reuse the parent's split (every tuple of a partition shares its parent
/// hash bucket). Level 0 reduces to [`hash_partition`] exactly.
fn hash_partition_at(key: i64, level: u64, partitions: usize) -> usize {
    let salted = (key as u64) ^ level.wrapping_mul(0xC6A4_A793_5BD1_E995);
    (salted.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % partitions
}

/// One node of the grace partition tree: a matched (build, probe) pair of
/// sealed runs awaiting join, spill, or NLJ fallback. `path` is the chain
/// of partition indices from the root (display form `"2.0"`).
#[derive(Debug, Clone, PartialEq)]
struct PartTask {
    level: u64,
    path: Vec<u32>,
    build: RunHandle,
    probe: RunHandle,
}

impl PartTask {
    fn path_string(&self) -> String {
        let parts: Vec<String> = self.path.iter().map(u32::to_string).collect();
        parts.join(".")
    }
}

impl Encode for PartTask {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.level);
        enc.put_u32(self.path.len() as u32);
        for p in &self.path {
            enc.put_u32(*p);
        }
        self.build.encode(enc);
        self.probe.encode(enc);
    }
}

impl Decode for PartTask {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let level = dec.get_u64()?;
        let n = dec.get_u32()? as usize;
        if n > 64 {
            return Err(StorageError::corrupt(format!("partition path depth {n}")));
        }
        let mut path = Vec::with_capacity(n);
        for _ in 0..n {
            path.push(dec.get_u32()?);
        }
        Ok(PartTask {
            level,
            path,
            build: RunHandle::decode(dec)?,
            probe: RunHandle::decode(dec)?,
        })
    }
}

/// One step of the grace task machine (shared by `next` / `next_batch` so
/// tick accounting — and therefore every suspend boundary — is identical
/// in tuple and vectorized execution).
enum GraceStep {
    Emit(Tuple),
    Continue,
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct HjControl {
    phase: u8,
    /// Sealed (or in-progress, at suspend) partition runs per side.
    build_runs: Vec<RunHandle>,
    probe_runs: Vec<RunHandle>,
    /// Join phase: current partition and probe cursor.
    cur_part: u64,
    probe_addr: Option<TupleAddr>,
    cur_probe: Option<Tuple>,
    match_idx: u64,
    build_done: bool,
    probe_done: bool,
    build_consumed: u64,
    probe_consumed: u64,
    /// Grace mode: pending tasks (popped from the back), the in-flight
    /// task and its stage, sealed child runs of an in-progress spill, the
    /// re-partition read cursor, and the NLJ block cursor (current block
    /// start and the precomputed next-block start).
    tasks: Vec<PartTask>,
    cur_task: Option<PartTask>,
    stage: u8,
    spill_build_children: Vec<RunHandle>,
    spill_probe_children: Vec<RunHandle>,
    spill_addr: Option<TupleAddr>,
    nlj_pos: u64,
    nlj_addr: Option<TupleAddr>,
    nlj_next_pos: u64,
    nlj_next_addr: Option<TupleAddr>,
}

impl Encode for HjControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.phase);
        enc.put_seq(&self.build_runs);
        enc.put_seq(&self.probe_runs);
        enc.put_u64(self.cur_part);
        enc.put_option(&self.probe_addr);
        enc.put_option(&self.cur_probe);
        enc.put_u64(self.match_idx);
        enc.put_bool(self.build_done);
        enc.put_bool(self.probe_done);
        enc.put_u64(self.build_consumed);
        enc.put_u64(self.probe_consumed);
        enc.put_seq(&self.tasks);
        enc.put_option(&self.cur_task);
        enc.put_u8(self.stage);
        enc.put_seq(&self.spill_build_children);
        enc.put_seq(&self.spill_probe_children);
        enc.put_option(&self.spill_addr);
        enc.put_u64(self.nlj_pos);
        enc.put_option(&self.nlj_addr);
        enc.put_u64(self.nlj_next_pos);
        enc.put_option(&self.nlj_next_addr);
    }
}

impl Decode for HjControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(HjControl {
            phase: dec.get_u8()?,
            build_runs: dec.get_seq()?,
            probe_runs: dec.get_seq()?,
            cur_part: dec.get_u64()?,
            probe_addr: dec.get_option()?,
            cur_probe: dec.get_option()?,
            match_idx: dec.get_u64()?,
            build_done: dec.get_bool()?,
            probe_done: dec.get_bool()?,
            build_consumed: dec.get_u64()?,
            probe_consumed: dec.get_u64()?,
            tasks: dec.get_seq()?,
            cur_task: dec.get_option()?,
            stage: dec.get_u8()?,
            spill_build_children: dec.get_seq()?,
            spill_probe_children: dec.get_seq()?,
            spill_addr: dec.get_option()?,
            nlj_pos: dec.get_u64()?,
            nlj_addr: dec.get_option()?,
            nlj_next_pos: dec.get_u64()?,
            nlj_next_addr: dec.get_option()?,
        })
    }
}

/// Partitioned (Grace / hybrid) hash equi-join.
pub struct HashJoin {
    op: OpId,
    build: Box<dyn Operator>,
    probe: Box<dyn Operator>,
    build_key: usize,
    probe_key: usize,
    partitions: usize,
    hybrid: bool,
    schema: Schema,

    phase: u8,
    build_writers: Vec<Option<RunWriter>>,
    probe_writers: Vec<Option<RunWriter>>,
    build_runs: Vec<RunHandle>,
    probe_runs: Vec<RunHandle>,
    build_done: bool,
    probe_done: bool,

    /// In-memory hash table: partition 0 during hybrid build/probe, or the
    /// current partition during the join phase.
    table: HashMap<i64, Vec<Tuple>>,
    heap_bytes: usize,
    cur_part: usize,
    probe_reader: Option<RunReader>,
    pages_noted: u64,
    cur_probe: Option<Tuple>,
    cur_probe_addr: Option<TupleAddr>,
    match_idx: usize,
    build_consumed: u64,
    probe_consumed: u64,

    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
    /// Resume-replay stop point: (build_consumed, probe_consumed). When
    /// set, `next()` freezes (returns `Suspended`) upon reaching it.
    replay_stop: Option<(u64, u64)>,

    /// Grace mode: per-partition build budget in tuples (0 = disabled,
    /// bit-identical legacy join phase).
    mem_budget: usize,
    tasks: Vec<PartTask>,
    cur_task: Option<PartTask>,
    stage: u8,
    spill_reader: Option<RunReader>,
    spill_pages_noted: u64,
    spill_build_writers: Vec<Option<RunWriter>>,
    spill_probe_writers: Vec<Option<RunWriter>>,
    spill_build_children: Vec<RunHandle>,
    spill_probe_children: Vec<RunHandle>,
    nlj_pos: u64,
    nlj_addr: Option<TupleAddr>,
    nlj_next_pos: u64,
    nlj_next_addr: Option<TupleAddr>,
}

impl HashJoin {
    /// Create a hash join of `build.build_key == probe.probe_key` with `P`
    /// partitions; `hybrid` keeps build partition 0 in memory.
    pub fn new(
        op: OpId,
        build: Box<dyn Operator>,
        probe: Box<dyn Operator>,
        build_key: usize,
        probe_key: usize,
        partitions: usize,
        hybrid: bool,
    ) -> Self {
        // Output schema follows (probe, build)? Conventionally joins emit
        // (left, right) = (build, probe) here.
        let schema = build.schema().join(probe.schema());
        Self {
            op,
            build,
            probe,
            build_key,
            probe_key,
            partitions: partitions.max(1),
            hybrid,
            schema,
            phase: PHASE_BUILD,
            build_writers: Vec::new(),
            probe_writers: Vec::new(),
            build_runs: Vec::new(),
            probe_runs: Vec::new(),
            build_done: false,
            probe_done: false,
            table: HashMap::new(),
            heap_bytes: 0,
            cur_part: 0,
            probe_reader: None,
            pages_noted: 0,
            cur_probe: None,
            cur_probe_addr: None,
            match_idx: 0,
            build_consumed: 0,
            probe_consumed: 0,
            last_in_ctr: None,
            produced_since_sign: 0,
            migration_enabled: true,
            pending: VecDeque::new(),
            replay_stop: None,
            mem_budget: 0,
            tasks: Vec::new(),
            cur_task: None,
            stage: TS_JOIN,
            spill_reader: None,
            spill_pages_noted: 0,
            spill_build_writers: Vec::new(),
            spill_probe_writers: Vec::new(),
            spill_build_children: Vec::new(),
            spill_probe_children: Vec::new(),
            nlj_pos: 0,
            nlj_addr: None,
            nlj_next_pos: 0,
            nlj_next_addr: None,
        }
    }

    fn replay_reached(&self) -> bool {
        matches!(self.replay_stop, Some((b, p))
            if self.build_consumed >= b && self.probe_consumed >= p)
    }

    /// Disable contract migration (ablation toggle).
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    /// Cap the in-memory build partition at `budget` tuples (0 disables):
    /// over-budget partitions are recursively re-partitioned with a
    /// level-salted hash up to [`MAX_SPILL_DEPTH`], then joined by block
    /// nested-loop in `budget`-tuple build chunks.
    pub fn with_memory_budget(mut self, budget: usize) -> Self {
        self.mem_budget = budget;
        self
    }

    /// Stages that emit output; the spill stages do not, so they can go
    /// back to their task-boundary checkpoint without re-emission.
    fn grace_emitting(stage: u8) -> bool {
        matches!(stage, TS_JOIN | TS_NLJ)
    }

    fn control(&self) -> HjControl {
        HjControl {
            phase: self.phase,
            build_runs: self.build_runs.clone(),
            probe_runs: self.probe_runs.clone(),
            cur_part: self.cur_part as u64,
            probe_addr: self.cur_probe_addr.or_else(|| {
                self.probe_reader.as_ref().map(|r| r.position())
            }),
            cur_probe: self.cur_probe.clone(),
            match_idx: self.match_idx as u64,
            build_done: self.build_done,
            probe_done: self.probe_done,
            build_consumed: self.build_consumed,
            probe_consumed: self.probe_consumed,
            tasks: self.tasks.clone(),
            cur_task: self.cur_task.clone(),
            stage: self.stage,
            spill_build_children: self.spill_build_children.clone(),
            spill_probe_children: self.spill_probe_children.clone(),
            spill_addr: self.spill_reader.as_ref().map(|r| r.position()),
            nlj_pos: self.nlj_pos,
            nlj_addr: self.nlj_addr,
            nlj_next_pos: self.nlj_next_pos,
            nlj_next_addr: self.nlj_next_addr,
        }
    }

    /// A checkpoint with optional migration of the incoming contract.
    fn checkpoint(&mut self, ctx: &mut ExecContext, sign_children: bool) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        if sign_children {
            if !self.build_done {
                self.build.sign_contract(ctx, ck)?;
            }
            if !self.probe_done {
                self.probe.sign_contract(ctx, ck)?;
            }
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
        let _ = ck;
        Ok(())
    }

    fn ensure_writers(
        writers: &mut Vec<Option<RunWriter>>,
        ctx: &mut ExecContext,
        n: usize,
    ) -> Result<()> {
        while writers.len() < n {
            writers.push(Some(ctx.create_run()?));
        }
        Ok(())
    }

    fn table_insert(&mut self, key: i64, t: Tuple) {
        self.heap_bytes += t.heap_bytes();
        self.table.entry(key).or_default().push(t);
    }

    /// Seal in-progress partition writers into `runs`, in place. A writer
    /// leaves the vec only after its flush succeeded and its handle is
    /// recorded in `runs`, so a seal that fails mid-way (quota, injected
    /// fault) can be retried by a later degradation-ladder rung without
    /// losing buffered tuples or already-sealed handles.
    fn seal_writers(
        ctx: &mut ExecContext,
        op: OpId,
        writers: &mut Vec<Option<RunWriter>>,
        runs: &mut Vec<RunHandle>,
    ) -> Result<()> {
        while let Some(slot) = writers.first_mut() {
            let w = slot
                .as_mut()
                .ok_or_else(|| StorageError::invalid("hash-join partition writer missing"))?;
            // Suspend-time seals write outside the dump-blob path; admit
            // the flush against the rung's I/O budget before committing,
            // so a rung cannot overrun via writes the dump watchdog never
            // sees (no-op during execution, when no watchdog is armed).
            let pending = w.pending_pages();
            ctx.guard_suspend_write(pending)?;
            let handle = w.seal()?;
            if pending > 0 {
                ctx.db.ledger().trace(|| qsr_storage::TraceEvent::MetaWrite {
                    label: "partition-seal",
                    pages: pending,
                });
            }
            let pages = ctx.db.pool().num_pages(handle.file)?;
            ctx.note_page_writes(op, pages);
            runs.push(handle);
            writers.remove(0);
        }
        Ok(())
    }

    fn load_build_partition(&mut self, ctx: &mut ExecContext, part: usize) -> Result<()> {
        let handle = self.build_runs[part];
        self.load_build_run(ctx, handle)
    }

    /// Load a whole sealed run into the in-memory table.
    fn load_build_run(&mut self, ctx: &mut ExecContext, handle: RunHandle) -> Result<()> {
        self.table.clear();
        self.heap_bytes = 0;
        let mut r = RunReader::open(ctx.db.pool().clone(), handle);
        while let Some(t) = r.next()? {
            let key = t.get(self.build_key).as_int()?;
            self.table_insert(key, t);
        }
        ctx.note_page_reads(self.op, r.pages_fetched());
        Ok(())
    }

    /// Load the next NLJ build chunk (up to `mem_budget` tuples starting
    /// at `nlj_addr`) into the table and precompute the next block cursor.
    /// Deterministic from (`nlj_pos`, `nlj_addr`), so a GoBack resume can
    /// rebuild the in-flight block by re-running it.
    fn load_nlj_block(&mut self, ctx: &mut ExecContext, task: &PartTask) -> Result<()> {
        self.table.clear();
        self.heap_bytes = 0;
        let mut r = RunReader::open(ctx.db.pool().clone(), task.build);
        if let Some(addr) = self.nlj_addr {
            r.seek(addr);
        }
        let mut loaded = 0u64;
        while (loaded as usize) < self.mem_budget.max(1) {
            match r.next()? {
                Some(t) => {
                    let key = t.get(self.build_key).as_int()?;
                    self.table_insert(key, t);
                    loaded += 1;
                }
                None => break,
            }
        }
        ctx.note_page_reads(self.op, r.pages_fetched());
        self.nlj_next_pos = self.nlj_pos + loaded;
        self.nlj_next_addr = Some(r.position());
        Ok(())
    }

    fn open_probe_reader(&mut self, ctx: &mut ExecContext, part: usize, at: Option<TupleAddr>) {
        let handle = self.probe_runs[part];
        self.open_probe_run(ctx, handle, at);
    }

    fn open_probe_run(&mut self, ctx: &mut ExecContext, handle: RunHandle, at: Option<TupleAddr>) {
        let mut r = RunReader::open(ctx.db.pool().clone(), handle);
        if let Some(addr) = at {
            r.seek(addr);
        }
        self.pages_noted = 0;
        self.probe_reader = Some(r);
    }

    fn note_probe_io(&mut self, ctx: &mut ExecContext) {
        if let Some(r) = &self.probe_reader {
            let fetched = r.pages_fetched();
            let delta = fetched.saturating_sub(self.pages_noted);
            self.pages_noted = fetched;
            ctx.note_page_reads(self.op, delta);
        }
    }

    /// First join-phase partition: 0 for simple, 1 for hybrid (partition 0
    /// was consumed on the fly).
    fn first_join_partition(&self) -> usize {
        if self.hybrid {
            1
        } else {
            0
        }
    }

    /// Emit matches of `probe_tuple` against the in-memory table, resuming
    /// at `self.match_idx`.
    fn next_match(&mut self, probe_tuple: &Tuple, probe_key: usize) -> Result<Option<Tuple>> {
        let key = probe_tuple.get(probe_key).as_int()?;
        if let Some(matches) = self.table.get(&key) {
            if self.match_idx < matches.len() {
                let out = matches[self.match_idx].join(probe_tuple);
                self.match_idx += 1;
                return Ok(Some(out));
            }
        }
        Ok(None)
    }

    /// Seed the grace work queue from the sealed top-level partitions
    /// (pushed in reverse so they pop in partition order; spill children
    /// are pushed the same way, giving a depth-first tree walk).
    fn seed_grace_tasks(&mut self) {
        self.tasks.clear();
        for part in (self.first_join_partition()..self.partitions).rev() {
            self.tasks.push(PartTask {
                level: 0,
                path: vec![part as u32],
                build: self.build_runs[part],
                probe: self.probe_runs[part],
            });
        }
        self.cur_task = None;
        self.stage = TS_JOIN;
    }

    fn note_spill_io(&mut self, ctx: &mut ExecContext) {
        if let Some(r) = &self.spill_reader {
            let fetched = r.pages_fetched();
            let delta = fetched.saturating_sub(self.spill_pages_noted);
            self.spill_pages_noted = fetched;
            ctx.note_page_reads(self.op, delta);
        }
    }

    /// Classify the popped task and set up its stage. Joins and NLJ load
    /// lazily on the first step; a spill opens its re-partition reader
    /// here and announces itself in the trace.
    fn start_task(&mut self, ctx: &mut ExecContext, task: PartTask) {
        self.nlj_pos = 0;
        self.nlj_addr = None;
        self.nlj_next_pos = 0;
        self.nlj_next_addr = None;
        if task.build.tuples as usize > self.mem_budget {
            if task.level >= MAX_SPILL_DEPTH {
                self.stage = TS_NLJ;
            } else {
                self.stage = TS_SPILL_BUILD;
                let (op, level) = (self.op.0, task.level + 1);
                let (path, tuples, pages) = (task.path_string(), task.build.tuples, task.build.pages);
                ctx.db.ledger().trace(|| qsr_storage::TraceEvent::PartitionSpill {
                    op,
                    level,
                    path: path.clone(),
                    tuples,
                    pages,
                });
                self.spill_build_children.clear();
                self.spill_probe_children.clear();
                self.spill_pages_noted = 0;
                self.spill_reader = Some(RunReader::open(ctx.db.pool().clone(), task.build));
            }
        } else {
            self.stage = TS_JOIN;
        }
        self.cur_task = Some(task);
    }

    /// Task complete: minimal-heap-state point, proactive checkpoint.
    fn finish_task(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.table.clear();
        self.heap_bytes = 0;
        self.probe_reader = None;
        self.cur_probe = None;
        self.cur_probe_addr = None;
        self.match_idx = 0;
        self.nlj_pos = 0;
        self.nlj_addr = None;
        self.nlj_next_pos = 0;
        self.nlj_next_addr = None;
        self.cur_task = None;
        self.checkpoint(ctx, false)
    }

    /// One step of the grace task machine. Tick placement matches the
    /// legacy join phase (one tick per probe tuple consumed, plus one per
    /// tuple moved during a spill), so work-unit boundaries are identical
    /// between tuple and batch execution.
    fn grace_step(&mut self, ctx: &mut ExecContext) -> Result<GraceStep> {
        let task = match self.cur_task.clone() {
            Some(t) => t,
            None => match self.tasks.pop() {
                Some(t) => {
                    self.start_task(ctx, t);
                    return Ok(GraceStep::Continue);
                }
                None => return Ok(GraceStep::Done),
            },
        };
        match self.stage {
            TS_JOIN => {
                if self.probe_reader.is_none() {
                    self.load_build_run(ctx, task.build)?;
                    self.open_probe_run(ctx, task.probe, None);
                }
                if let Some(p) = self.cur_probe.clone() {
                    match self.next_match(&p, self.probe_key)? {
                        Some(out) => return Ok(GraceStep::Emit(out)),
                        None => {
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                        }
                    }
                    return Ok(GraceStep::Continue);
                }
                let reader = self
                    .probe_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                let addr = reader.position();
                let t = reader.next()?;
                self.note_probe_io(ctx);
                match t {
                    Some(t) => {
                        ctx.tick(self.op);
                        self.cur_probe = Some(t);
                        self.cur_probe_addr = Some(addr);
                        self.match_idx = 0;
                    }
                    None => self.finish_task(ctx)?,
                }
                Ok(GraceStep::Continue)
            }
            TS_SPILL_BUILD => {
                Self::ensure_writers(&mut self.spill_build_writers, ctx, self.partitions)?;
                let reader = self
                    .spill_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join spill reader not open"))?;
                let t = reader.next()?;
                self.note_spill_io(ctx);
                match t {
                    Some(t) => {
                        ctx.tick(self.op);
                        let key = t.get(self.build_key).as_int()?;
                        let p = hash_partition_at(key, task.level + 1, self.partitions);
                        self.spill_build_writers[p]
                            .as_mut()
                            .ok_or_else(|| {
                                StorageError::invalid("hash-join spill partition writer missing")
                            })?
                            .append(&t)?;
                    }
                    None => {
                        Self::seal_writers(
                            ctx,
                            self.op,
                            &mut self.spill_build_writers,
                            &mut self.spill_build_children,
                        )?;
                        self.spill_pages_noted = 0;
                        self.spill_reader =
                            Some(RunReader::open(ctx.db.pool().clone(), task.probe));
                        self.stage = TS_SPILL_PROBE;
                    }
                }
                Ok(GraceStep::Continue)
            }
            TS_SPILL_PROBE => {
                Self::ensure_writers(&mut self.spill_probe_writers, ctx, self.partitions)?;
                let reader = self
                    .spill_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join spill reader not open"))?;
                let t = reader.next()?;
                self.note_spill_io(ctx);
                match t {
                    Some(t) => {
                        ctx.tick(self.op);
                        let key = t.get(self.probe_key).as_int()?;
                        let p = hash_partition_at(key, task.level + 1, self.partitions);
                        self.spill_probe_writers[p]
                            .as_mut()
                            .ok_or_else(|| {
                                StorageError::invalid("hash-join spill partition writer missing")
                            })?
                            .append(&t)?;
                    }
                    None => {
                        Self::seal_writers(
                            ctx,
                            self.op,
                            &mut self.spill_probe_writers,
                            &mut self.spill_probe_children,
                        )?;
                        self.spill_reader = None;
                        let builds = std::mem::take(&mut self.spill_build_children);
                        let probes = std::mem::take(&mut self.spill_probe_children);
                        for i in (0..self.partitions).rev() {
                            let mut path = task.path.clone();
                            path.push(i as u32);
                            self.tasks.push(PartTask {
                                level: task.level + 1,
                                path,
                                build: builds[i],
                                probe: probes[i],
                            });
                        }
                        self.cur_task = None;
                        self.checkpoint(ctx, false)?;
                    }
                }
                Ok(GraceStep::Continue)
            }
            TS_NLJ => {
                if self.nlj_pos >= task.build.tuples {
                    self.finish_task(ctx)?;
                    return Ok(GraceStep::Continue);
                }
                if self.probe_reader.is_none() {
                    self.load_nlj_block(ctx, &task)?;
                    self.open_probe_run(ctx, task.probe, None);
                    return Ok(GraceStep::Continue);
                }
                if let Some(p) = self.cur_probe.clone() {
                    match self.next_match(&p, self.probe_key)? {
                        Some(out) => return Ok(GraceStep::Emit(out)),
                        None => {
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                        }
                    }
                    return Ok(GraceStep::Continue);
                }
                let reader = self
                    .probe_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                let addr = reader.position();
                let t = reader.next()?;
                self.note_probe_io(ctx);
                match t {
                    Some(t) => {
                        ctx.tick(self.op);
                        self.cur_probe = Some(t);
                        self.cur_probe_addr = Some(addr);
                        self.match_idx = 0;
                    }
                    None => {
                        // Block finished: advance to the precomputed next
                        // block (a minimal-heap point only at task end —
                        // intermediate blocks skip the checkpoint to keep
                        // the block cursor the sole recovery input).
                        self.table.clear();
                        self.heap_bytes = 0;
                        self.probe_reader = None;
                        self.cur_probe = None;
                        self.cur_probe_addr = None;
                        self.match_idx = 0;
                        self.nlj_pos = self.nlj_next_pos;
                        self.nlj_addr = self.nlj_next_addr;
                        if self.nlj_pos >= task.build.tuples {
                            self.finish_task(ctx)?;
                        }
                    }
                }
                Ok(GraceStep::Continue)
            }
            s => Err(StorageError::corrupt(format!("bad grace stage {s}"))),
        }
    }
}

impl Operator for HashJoin {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.build.open(ctx)?;
        self.probe.open(ctx)?;
        // Proactive checkpoint at the beginning of the hash phase.
        self.checkpoint(ctx, true)?;
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() || (self.replay_stop.is_some() && self.replay_reached()) {
                return Ok(Poll::Suspended);
            }
            match self.phase {
                PHASE_BUILD => {
                    Self::ensure_writers(&mut self.build_writers, ctx, self.partitions)?;
                    match self.build.next(ctx)? {
                        Poll::Tuple(t) => {
                            ctx.tick(self.op);
                            self.build_consumed += 1;
                            let key = t.get(self.build_key).as_int()?;
                            let p = hash_partition(key, self.partitions);
                            if self.hybrid && p == 0 {
                                self.table_insert(key, t);
                            } else {
                                self.build_writers[p]
                                    .as_mut()
                                    .ok_or_else(|| {
                                        StorageError::invalid(
                                            "hash-join build partition writer missing",
                                        )
                                    })?
                                    .append(&t)?;
                            }
                        }
                        Poll::Done => {
                            self.build_done = true;
                            Self::seal_writers(
                                ctx,
                                self.op,
                                &mut self.build_writers,
                                &mut self.build_runs,
                            )?;
                            self.phase = PHASE_PROBE;
                            // Materialization point: phase-boundary ckpt —
                            // but NOT for hybrid: its in-memory partition-0
                            // table means this is not a minimal-heap-state
                            // point (the paper's §4 observation that hybrid
                            // can only dump or go back to the beginning
                            // w.r.t. the build relation).
                            if !self.hybrid {
                                self.checkpoint(ctx, true)?;
                            }
                        }
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                }
                PHASE_PROBE => {
                    Self::ensure_writers(&mut self.probe_writers, ctx, self.partitions)?;
                    // Hybrid: finish emitting matches of the current probe
                    // tuple before pulling the next one.
                    if self.hybrid {
                        if let Some(p) = self.cur_probe.clone() {
                            match self.next_match(&p, self.probe_key)? {
                                Some(out) => {
                                    self.produced_since_sign += 1;
                                    return Ok(Poll::Tuple(out));
                                }
                                None => {
                                    self.cur_probe = None;
                                    self.match_idx = 0;
                                }
                            }
                        }
                    }
                    match self.probe.next(ctx)? {
                        Poll::Tuple(t) => {
                            ctx.tick(self.op);
                            self.probe_consumed += 1;
                            let key = t.get(self.probe_key).as_int()?;
                            let p = hash_partition(key, self.partitions);
                            if self.hybrid && p == 0 {
                                self.cur_probe = Some(t);
                                self.match_idx = 0;
                            } else {
                                self.probe_writers[p]
                                    .as_mut()
                                    .ok_or_else(|| {
                                        StorageError::invalid(
                                            "hash-join probe partition writer missing",
                                        )
                                    })?
                                    .append(&t)?;
                            }
                        }
                        Poll::Done => {
                            self.probe_done = true;
                            Self::seal_writers(
                                ctx,
                                self.op,
                                &mut self.probe_writers,
                                &mut self.probe_runs,
                            )?;
                            // Hybrid drops the in-memory partition-0 table
                            // here: minimal-heap-state point.
                            self.table.clear();
                            self.heap_bytes = 0;
                            if self.mem_budget > 0 {
                                self.phase = PHASE_GRACE;
                                self.seed_grace_tasks();
                            } else {
                                self.phase = PHASE_JOIN;
                            }
                            self.cur_part = self.first_join_partition();
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                            self.probe_reader = None;
                            self.checkpoint(ctx, false)?;
                        }
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                }
                PHASE_GRACE => match self.grace_step(ctx)? {
                    GraceStep::Emit(t) => {
                        self.produced_since_sign += 1;
                        return Ok(Poll::Tuple(t));
                    }
                    GraceStep::Continue => {}
                    GraceStep::Done => self.phase = PHASE_DONE,
                },
                PHASE_JOIN => {
                    if self.cur_part >= self.partitions {
                        self.phase = PHASE_DONE;
                        continue;
                    }
                    if self.probe_reader.is_none() {
                        self.load_build_partition(ctx, self.cur_part)?;
                        self.open_probe_reader(ctx, self.cur_part, None);
                    }
                    if let Some(p) = self.cur_probe.clone() {
                        match self.next_match(&p, self.probe_key)? {
                            Some(out) => {
                                self.produced_since_sign += 1;
                                return Ok(Poll::Tuple(out));
                            }
                            None => {
                                self.cur_probe = None;
                                self.cur_probe_addr = None;
                                self.match_idx = 0;
                            }
                        }
                        continue;
                    }
                    let reader = self
                        .probe_reader
                        .as_mut()
                        .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                    let addr = reader.position();
                    let t = reader.next()?;
                    self.note_probe_io(ctx);
                    match t {
                        Some(t) => {
                            ctx.tick(self.op);
                            self.cur_probe = Some(t);
                            self.cur_probe_addr = Some(addr);
                            self.match_idx = 0;
                        }
                        None => {
                            // Partition exhausted: minimal-heap point.
                            self.table.clear();
                            self.heap_bytes = 0;
                            self.probe_reader = None;
                            self.cur_part += 1;
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                            self.checkpoint(ctx, false)?;
                        }
                    }
                }
                PHASE_DONE => return Ok(Poll::Done),
                p => return Err(StorageError::corrupt(format!("bad HJ phase {p}"))),
            }
        }
    }

    /// Vectorized execution. The partitioning phases consume whole child
    /// batches (key extraction runs over the unboxed column slice when the
    /// key column is monomorphic); the join phase emits matches into a
    /// column-major output batch without per-tuple driver dispatch.
    /// Per-tuple `tick` accounting is identical to `next()`, so suspend
    /// triggers land on the same work units. A child batch, once
    /// consumed, is always fully partitioned — in hybrid mode the inline
    /// match emission can overfill the output past `max`, which `Batch`
    /// permits.
    fn next_batch(&mut self, ctx: &mut ExecContext, max: usize) -> Result<BatchPoll> {
        let max = max.max(1);
        let mut out = Batch::with_capacity(self.schema.len(), max);
        while let Some(t) = self.pending.pop_front() {
            out.push(&t);
            if out.len() >= max {
                return Ok(BatchPoll::Batch(out));
            }
        }
        loop {
            if ctx.suspend_pending() || (self.replay_stop.is_some() && self.replay_reached()) {
                return Ok(match out.is_empty() {
                    true => BatchPoll::Suspended,
                    false => BatchPoll::Batch(out),
                });
            }
            match self.phase {
                PHASE_BUILD => {
                    Self::ensure_writers(&mut self.build_writers, ctx, self.partitions)?;
                    match self.build.next_batch(ctx, max)? {
                        BatchPoll::Batch(b) => {
                            let ints = b.column(self.build_key).and_then(ColumnVec::as_ints);
                            let rows: Vec<usize> = b.live_rows().collect();
                            for &r in &rows {
                                ctx.tick(self.op);
                                self.build_consumed += 1;
                                let key = match ints {
                                    Some(ints) => ints[r],
                                    None => b.value(r, self.build_key).as_int()?,
                                };
                                let p = hash_partition(key, self.partitions);
                                let t = b.tuple(r);
                                if self.hybrid && p == 0 {
                                    self.table_insert(key, t);
                                } else {
                                    self.build_writers[p]
                                        .as_mut()
                                        .ok_or_else(|| {
                                            StorageError::invalid(
                                                "hash-join build partition writer missing",
                                            )
                                        })?
                                        .append(&t)?;
                                }
                            }
                        }
                        BatchPoll::Done => {
                            self.build_done = true;
                            Self::seal_writers(
                                ctx,
                                self.op,
                                &mut self.build_writers,
                                &mut self.build_runs,
                            )?;
                            self.phase = PHASE_PROBE;
                            if !self.hybrid {
                                self.checkpoint(ctx, true)?;
                            }
                        }
                        BatchPoll::Suspended => {
                            return Ok(match out.is_empty() {
                                true => BatchPoll::Suspended,
                                false => BatchPoll::Batch(out),
                            })
                        }
                    }
                }
                PHASE_PROBE => {
                    Self::ensure_writers(&mut self.probe_writers, ctx, self.partitions)?;
                    // Hybrid: finish emitting matches of a probe tuple left
                    // over from a previous (possibly tuple-mode) call.
                    if self.hybrid {
                        if let Some(p) = self.cur_probe.clone() {
                            while let Some(m) = self.next_match(&p, self.probe_key)? {
                                self.produced_since_sign += 1;
                                out.push(&m);
                            }
                            self.cur_probe = None;
                            self.match_idx = 0;
                            if out.len() >= max {
                                return Ok(BatchPoll::Batch(out));
                            }
                        }
                    }
                    match self.probe.next_batch(ctx, max)? {
                        BatchPoll::Batch(b) => {
                            let ints = b.column(self.probe_key).and_then(ColumnVec::as_ints);
                            let rows: Vec<usize> = b.live_rows().collect();
                            for &r in &rows {
                                ctx.tick(self.op);
                                self.probe_consumed += 1;
                                let key = match ints {
                                    Some(ints) => ints[r],
                                    None => b.value(r, self.probe_key).as_int()?,
                                };
                                let p = hash_partition(key, self.partitions);
                                let t = b.tuple(r);
                                if self.hybrid && p == 0 {
                                    // All matches are emitted inline, so no
                                    // in-flight probe tuple survives past
                                    // this row.
                                    self.match_idx = 0;
                                    while let Some(m) = self.next_match(&t, self.probe_key)? {
                                        self.produced_since_sign += 1;
                                        out.push(&m);
                                    }
                                    self.match_idx = 0;
                                } else {
                                    self.probe_writers[p]
                                        .as_mut()
                                        .ok_or_else(|| {
                                            StorageError::invalid(
                                                "hash-join probe partition writer missing",
                                            )
                                        })?
                                        .append(&t)?;
                                }
                            }
                            if out.len() >= max {
                                return Ok(BatchPoll::Batch(out));
                            }
                        }
                        BatchPoll::Done => {
                            self.probe_done = true;
                            Self::seal_writers(
                                ctx,
                                self.op,
                                &mut self.probe_writers,
                                &mut self.probe_runs,
                            )?;
                            self.table.clear();
                            self.heap_bytes = 0;
                            if self.mem_budget > 0 {
                                self.phase = PHASE_GRACE;
                                self.seed_grace_tasks();
                            } else {
                                self.phase = PHASE_JOIN;
                            }
                            self.cur_part = self.first_join_partition();
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                            self.probe_reader = None;
                            self.checkpoint(ctx, false)?;
                        }
                        BatchPoll::Suspended => {
                            return Ok(match out.is_empty() {
                                true => BatchPoll::Suspended,
                                false => BatchPoll::Batch(out),
                            })
                        }
                    }
                }
                PHASE_GRACE => match self.grace_step(ctx)? {
                    GraceStep::Emit(t) => {
                        self.produced_since_sign += 1;
                        out.push(&t);
                        if out.len() >= max {
                            return Ok(BatchPoll::Batch(out));
                        }
                    }
                    GraceStep::Continue => {}
                    GraceStep::Done => self.phase = PHASE_DONE,
                },
                PHASE_JOIN => {
                    if self.cur_part >= self.partitions {
                        self.phase = PHASE_DONE;
                        continue;
                    }
                    if self.probe_reader.is_none() {
                        self.load_build_partition(ctx, self.cur_part)?;
                        self.open_probe_reader(ctx, self.cur_part, None);
                    }
                    if let Some(p) = self.cur_probe.clone() {
                        match self.next_match(&p, self.probe_key)? {
                            Some(m) => {
                                self.produced_since_sign += 1;
                                out.push(&m);
                                if out.len() >= max {
                                    return Ok(BatchPoll::Batch(out));
                                }
                            }
                            None => {
                                self.cur_probe = None;
                                self.cur_probe_addr = None;
                                self.match_idx = 0;
                            }
                        }
                        continue;
                    }
                    let reader = self
                        .probe_reader
                        .as_mut()
                        .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                    let addr = reader.position();
                    let t = reader.next()?;
                    self.note_probe_io(ctx);
                    match t {
                        Some(t) => {
                            ctx.tick(self.op);
                            self.cur_probe = Some(t);
                            self.cur_probe_addr = Some(addr);
                            self.match_idx = 0;
                        }
                        None => {
                            self.table.clear();
                            self.heap_bytes = 0;
                            self.probe_reader = None;
                            self.cur_part += 1;
                            self.cur_probe = None;
                            self.cur_probe_addr = None;
                            self.match_idx = 0;
                            self.checkpoint(ctx, false)?;
                        }
                    }
                }
                PHASE_DONE => {
                    return Ok(match out.is_empty() {
                        true => BatchPoll::Done,
                        false => BatchPoll::Batch(out),
                    })
                }
                p => return Err(StorageError::corrupt(format!("bad HJ phase {p}"))),
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.build.close(ctx)?;
        self.probe.close(ctx)?;
        self.table.clear();
        Ok(())
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        // Reactive (fresh-cursor) checkpoints are valid GoBack targets only
        // where state is rebuildable from sealed runs: the legacy join
        // phase, and grace join/NLJ stages or task boundaries. A mid-spill
        // reactive point would reference unsealed child writers, so spill
        // stages anchor at the latest proactive (task-boundary) checkpoint
        // like the partitioning phases do.
        let reactive = self.phase == PHASE_JOIN
            || self.phase == PHASE_DONE
            || (self.phase == PHASE_GRACE
                && (self.cur_task.is_none() || Self::grace_emitting(self.stage)));
        let ctr = if reactive {
            // Reactive: fresh checkpoint capturing the join-phase cursor
            // (bucket number + probe position, §4).
            let control = self.control().encode_to_vec();
            let work = ctx.work.get(self.op);
            let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
            ctx.graph.prune_for(self.op);
            ctx.graph
                .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])?
        } else {
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
        };
        self.last_in_ctr = Some(ctr);
        self.produced_since_sign = 0;
        Ok(ctr)
    }

    fn side_snapshot(&mut self, _ctx: &mut ExecContext) -> Result<SideSnapshot> {
        Err(StorageError::invalid(
            "hash join cannot appear in a positional subtree",
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

        // Seal any in-progress partition writers; their handles are part
        // of the recorded state either way (Dump keeps them; GoBack to a
        // phase-start checkpoint discards in-phase partials, but sealing
        // first is harmless and keeps the accounting simple). Sealing
        // mutates `self` so that a suspend attempt failing *here or in
        // any later operator* leaves the sealed handles recorded — a
        // retried walk (the next ladder rung) resumes sealing where this
        // one stopped instead of dropping runs already on disk.
        Self::seal_writers(ctx, self.op, &mut self.build_writers, &mut self.build_runs)?;
        Self::seal_writers(ctx, self.op, &mut self.probe_writers, &mut self.probe_runs)?;
        // Mid-spill grace suspends seal the child partition writers the
        // same way; the sealed handles ride in the control record (Dump
        // reopens them for appending, GoBack discards them).
        Self::seal_writers(
            ctx,
            self.op,
            &mut self.spill_build_writers,
            &mut self.spill_build_children,
        )?;
        Self::seal_writers(
            ctx,
            self.op,
            &mut self.spill_probe_writers,
            &mut self.spill_probe_children,
        )?;
        let sealed_build = self.build_runs.clone();
        let sealed_probe = self.probe_runs.clone();

        let current_control = HjControl {
            build_runs: sealed_build.clone(),
            probe_runs: sealed_probe.clone(),
            ..self.control()
        };

        let (resume_point, saved, ckpt_for_children): (HjControl, Vec<Vec<u8>>, Option<CkptId>) =
            match mode {
                SuspendMode::Current => match strategy {
                    Strategy::Dump => (current_control, Vec::new(), None),
                    Strategy::GoBack { .. } => {
                        let latest = ctx
                            .graph
                            .latest_ckpt(self.op)
                            .ok_or_else(|| StorageError::invalid("hash join has no checkpoint"))?;
                        let grace_reposition = self.phase == PHASE_GRACE
                            && (self.cur_task.is_none() || Self::grace_emitting(self.stage));
                        if self.phase == PHASE_JOIN || grace_reposition {
                            // Join phase (or a grace join/NLJ stage):
                            // rebuild the table from own runs and
                            // reposition the probe cursor — target is the
                            // current control state.
                            (current_control, Vec::new(), None)
                        } else if self.phase == PHASE_GRACE {
                            // Mid-spill: restart the in-flight task from
                            // its boundary checkpoint (spill stages emit
                            // nothing, so no output is re-delivered).
                            let ck = ctx
                                .graph
                                .checkpoint(latest)
                                .ok_or_else(|| {
                                    StorageError::invalid("missing latest checkpoint")
                                })?
                                .control
                                .clone();
                            (HjControl::decode_from_slice(&ck)?, Vec::new(), None)
                        } else {
                            // Partition phases: go back to the phase-start
                            // checkpoint (shipped via `aux`); the resume
                            // target is the *current* point, so already
                            // delivered output is never re-emitted.
                            (current_control.clone(), Vec::new(), Some(latest))
                        }
                    }
                },
                SuspendMode::Contract(ctr_id) => {
                    let ctr = ctx
                        .graph
                        .contract(ctr_id)
                        .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?
                        .clone();
                    let target = HjControl::decode_from_slice(&ctr.control)?;
                    // Grace targets split like the phases do: join/NLJ
                    // stages (and task boundaries) reposition over sealed
                    // runs; spill-stage targets reference unsealed child
                    // writers and fall back to the boundary state.
                    let target_repositions = target.phase == PHASE_JOIN
                        || (target.phase == PHASE_GRACE
                            && (target.cur_task.is_none()
                                || Self::grace_emitting(target.stage)));
                    match strategy {
                        Strategy::Dump => {
                            // c = 0: no checkpoint since signing. In the
                            // join phase the contract's cursor is the
                            // resume point over the dumped table. In the
                            // partition phases (and mid-spill) the current
                            // state reproduces all outputs only if nothing
                            // was produced since — false once hybrid has
                            // emitted inline partition-0 matches, which
                            // `suspend_inputs` reports so the optimizer
                            // never asks for this.
                            if target_repositions {
                                (target, ctr.saved_tuples.clone(), None)
                            } else if self.produced_since_sign > 0 {
                                return Err(StorageError::invalid(format!(
                                    "{}: Dump under a partition-phase contract would lose {} \
                                     tuples emitted since it was signed",
                                    self.op, self.produced_since_sign
                                )));
                            } else {
                                (current_control, ctr.saved_tuples.clone(), None)
                            }
                        }
                        Strategy::GoBack { .. } => {
                            if target_repositions {
                                (target, ctr.saved_tuples.clone(), None)
                            } else if target.phase == PHASE_GRACE {
                                // Spill-stage target: roll forward from the
                                // fulfilling (task-boundary) checkpoint.
                                let ck = ctx
                                    .graph
                                    .checkpoint(ctr.child_ckpt)
                                    .ok_or_else(|| {
                                        StorageError::invalid("missing fulfilling checkpoint")
                                    })?
                                    .control
                                    .clone();
                                (
                                    HjControl::decode_from_slice(&ck)?,
                                    ctr.saved_tuples.clone(),
                                    None,
                                )
                            } else {
                                (target, ctr.saved_tuples.clone(), Some(ctr.child_ckpt))
                            }
                        }
                    }
                }
            };

        // Heap dump: the in-memory table (hybrid partition 0 or the
        // current join partition).
        let heap_dump = match strategy {
            Strategy::Dump if !self.table.is_empty() => {
                let mut pairs: Vec<(i64, Vec<Tuple>)> =
                    self.table.iter().map(|(k, v)| (*k, v.clone())).collect();
                pairs.sort_by_key(|(k, _)| *k);
                Some(ctx.put_dump_value(self.op, &TableDump(pairs))?)
            }
            _ => None,
        };

        let aux = match ckpt_for_children {
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

        match ckpt_for_children {
            Some(ck) => {
                for child in [&mut self.build, &mut self.probe] {
                    match ctx.graph.contract_from(ck, child.op_id()).map(|c| c.id) {
                        Some(ctr) => child.suspend(ctx, SuspendMode::Contract(ctr), plan, sq)?,
                        None => child.suspend(ctx, SuspendMode::Current, plan, sq)?,
                    }
                }
                Ok(())
            }
            None => {
                self.build.suspend(ctx, SuspendMode::Current, plan, sq)?;
                self.probe.suspend(ctx, SuspendMode::Current, plan, sq)
            }
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.build.resume(ctx, sq)?;
        self.probe.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = HjControl::decode_from_slice(&rec.resume_point)?;

        self.phase = control.phase;
        self.build_done = control.build_done;
        self.probe_done = control.probe_done;
        self.cur_part = control.cur_part as usize;
        self.cur_probe = control.cur_probe.clone();
        self.cur_probe_addr = control.probe_addr;
        self.match_idx = control.match_idx as usize;
        self.table.clear();
        self.heap_bytes = 0;
        self.probe_reader = None;
        self.pages_noted = 0;
        self.tasks = control.tasks.clone();
        self.cur_task = control.cur_task.clone();
        self.stage = control.stage;
        self.spill_build_children = control.spill_build_children.clone();
        self.spill_probe_children = control.spill_probe_children.clone();
        self.spill_reader = None;
        self.spill_pages_noted = 0;
        self.spill_build_writers.clear();
        self.spill_probe_writers.clear();
        self.nlj_pos = control.nlj_pos;
        self.nlj_addr = control.nlj_addr;
        self.nlj_next_pos = control.nlj_next_pos;
        self.nlj_next_addr = control.nlj_next_addr;

        match (&rec.strategy, &rec.heap_dump) {
            (Strategy::Dump, dump) => {
                // Reopen partially written partitions for appending.
                self.build_runs = control.build_runs.clone();
                self.probe_runs = control.probe_runs.clone();
                if self.phase == PHASE_BUILD {
                    self.build_writers = self
                        .build_runs
                        .drain(..)
                        .map(|h| RunWriter::reopen(ctx.db.pool().clone(), h).map(Some))
                        .collect::<Result<_>>()?;
                } else if self.phase == PHASE_PROBE {
                    self.probe_writers = self
                        .probe_runs
                        .drain(..)
                        .map(|h| RunWriter::reopen(ctx.db.pool().clone(), h).map(Some))
                        .collect::<Result<_>>()?;
                } else if self.phase == PHASE_GRACE && self.cur_task.is_some() {
                    // Mid-spill: the stage's child runs were sealed at
                    // suspend; reopen them all as in-progress writers and
                    // reposition the re-partition reader. (In build-spill,
                    // probe children don't exist yet; in probe-spill, the
                    // build children are final and stay sealed.)
                    let task = self.cur_task.clone().expect("checked above");
                    if self.stage == TS_SPILL_BUILD {
                        self.spill_build_writers = self
                            .spill_build_children
                            .drain(..)
                            .map(|h| RunWriter::reopen(ctx.db.pool().clone(), h).map(Some))
                            .collect::<Result<_>>()?;
                        let mut r = RunReader::open(ctx.db.pool().clone(), task.build);
                        if let Some(addr) = control.spill_addr {
                            r.seek(addr);
                        }
                        self.spill_reader = Some(r);
                    } else if self.stage == TS_SPILL_PROBE {
                        self.spill_probe_writers = self
                            .spill_probe_children
                            .drain(..)
                            .map(|h| RunWriter::reopen(ctx.db.pool().clone(), h).map(Some))
                            .collect::<Result<_>>()?;
                        let mut r = RunReader::open(ctx.db.pool().clone(), task.probe);
                        if let Some(addr) = control.spill_addr {
                            r.seek(addr);
                        }
                        self.spill_reader = Some(r);
                    }
                }
                if let Some(blob) = dump {
                    let TableDump(pairs) = ctx.get_dump_value_for(self.op, *blob)?;
                    for (k, vs) in pairs {
                        for t in vs {
                            self.table_insert(k, t);
                        }
                    }
                }
            }
            (Strategy::GoBack { .. }, _) => {
                self.build_runs = control.build_runs.clone();
                self.probe_runs = control.probe_runs.clone();
                if self.phase == PHASE_BUILD || (self.phase == PHASE_PROBE && !self.hybrid) {
                    // Reset counters to the checkpoint baseline: the work
                    // from there to the suspend point is redone by normal
                    // post-resume execution (no output exists in these
                    // phases for the simple variant).
                    if !rec.aux.is_empty() {
                        let start = HjControl::decode_from_slice(&rec.aux)?;
                        self.build_consumed = start.build_consumed;
                        self.probe_consumed = start.probe_consumed;
                    }
                }
                if self.phase == PHASE_BUILD {
                    // Partials discarded: fresh writers are created lazily
                    // by next(); children were repositioned to phase start.
                    self.build_writers.clear();
                    self.build_runs.clear();
                    self.probe_runs.clear();
                    // A build-phase target means nothing was emitted yet;
                    // hybrid's in-memory table is rebuilt by re-execution.
                    self.cur_probe = None;
                    self.cur_probe_addr = None;
                    self.match_idx = 0;
                } else if self.phase == PHASE_PROBE {
                    self.probe_writers.clear();
                    self.probe_runs.clear();
                    if self.hybrid {
                        // Hybrid: the enforced contract is fulfilled by the
                        // build-phase-start checkpoint (hybrid has no probe
                        // boundary checkpoint). Roll forward from there:
                        // replay the deterministic partitioning machine
                        // with output suppressed until the consumed
                        // counters reach the contract point, then restore
                        // the emission cursors (§3.3 skipping).
                        let target = control.clone();
                        let start = if rec.aux.is_empty() {
                            return Err(StorageError::corrupt(
                                "hybrid GoBack record missing checkpoint control",
                            ));
                        } else {
                            HjControl::decode_from_slice(&rec.aux)?
                        };
                        self.phase = start.phase;
                        self.build_done = start.build_done;
                        self.probe_done = start.probe_done;
                        self.build_consumed = start.build_consumed;
                        self.probe_consumed = start.probe_consumed;
                        self.build_runs = start.build_runs.clone();
                        self.probe_runs = start.probe_runs.clone();
                        self.cur_probe = None;
                        self.cur_probe_addr = None;
                        self.match_idx = 0;
                        self.replay_stop =
                            Some((target.build_consumed, target.probe_consumed));
                        while !self.replay_reached() {
                            match self.next(ctx)? {
                                Poll::Tuple(_) => {} // suppressed re-emission
                                Poll::Done => {
                                    self.replay_stop = None;
                                    return Err(StorageError::corrupt(
                                        "hybrid replay finished before target",
                                    ));
                                }
                                Poll::Suspended => {
                                    if self.replay_reached() {
                                        break;
                                    }
                                    self.replay_stop = None;
                                    return Err(StorageError::invalid(
                                        "suspend during resume replay is not supported",
                                    ));
                                }
                            }
                        }
                        self.replay_stop = None;
                        self.cur_probe = target.cur_probe.clone();
                        self.match_idx = target.match_idx as usize;
                    }
                }
            }
        }

        if self.phase == PHASE_JOIN && self.cur_part < self.partitions {
            // Rebuild the current partition's table and reposition the
            // probe cursor (GoBack), or restore from the dump (Dump).
            if rec.heap_dump.is_none() {
                self.load_build_partition(ctx, self.cur_part)?;
            }
            let at = self.cur_probe_addr.or(control.probe_addr);
            self.open_probe_reader(ctx, self.cur_part, at);
            if self.cur_probe.is_some() {
                // The recorded probe tuple was already consumed from the
                // run; skip past it.
                let r = self
                    .probe_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                let _ = r.next()?;
                self.note_probe_io(ctx);
            }
        }

        // Grace join/NLJ stages mirror the legacy join-phase rebuild, but
        // over the in-flight task's runs (the NLJ block reload is
        // deterministic from the recorded block cursor).
        if self.phase == PHASE_GRACE && Self::grace_emitting(self.stage) {
            if let Some(task) = self.cur_task.clone() {
                if rec.heap_dump.is_none() {
                    if self.stage == TS_JOIN {
                        self.load_build_run(ctx, task.build)?;
                    } else if self.nlj_pos < task.build.tuples {
                        self.load_nlj_block(ctx, &task)?;
                    }
                }
                let at = self.cur_probe_addr.or(control.probe_addr);
                self.open_probe_run(ctx, task.probe, at);
                if self.cur_probe.is_some() {
                    let r = self
                        .probe_reader
                        .as_mut()
                        .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                    let _ = r.next()?;
                    self.note_probe_io(ctx);
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
        let grace_entries = self.tasks.len()
            + self.spill_build_children.len()
            + self.spill_probe_children.len()
            + usize::from(self.cur_task.is_some());
        OpSuspendInputs {
            heap_bytes: self.heap_bytes,
            control_bytes: 64
                + 16 * (self.build_runs.len() + self.probe_runs.len())
                + 48 * grace_entries,
            // Hybrid emits partition-0 matches inline while partitioning
            // the probe side, with no checkpoint to anchor them: a dump
            // of the current state resumes *after* them.
            dump_loses_output: self.phase == PHASE_PROBE && self.produced_since_sign > 0,
        }
    }

    fn visit(&self, f: &mut dyn FnMut(&dyn Operator)) {
        f(self);
        self.build.visit(f);
        self.probe.visit(f);
    }

    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut dyn Operator)) {
        f(self);
        self.build.visit_mut(f);
        self.probe.visit_mut(f);
    }
}

/// Heap-dump image of the in-memory hash table. Zero-copy layout: one raw
/// little-endian run of the `n` keys, one raw run of per-key tuple counts,
/// then every tuple flattened into a single column-major [`TupleBlock`] —
/// no per-pair tags or per-tuple headers.
struct TableDump(Vec<(i64, Vec<Tuple>)>);

impl Encode for TableDump {
    fn encode(&self, enc: &mut Encoder) {
        let n = self.0.len();
        enc.put_u32(n as u32);
        let mut keys = Vec::with_capacity(n * 8);
        let mut counts = Vec::with_capacity(n * 4);
        let mut flat = Vec::new();
        for (k, vs) in &self.0 {
            keys.extend_from_slice(&k.to_le_bytes());
            counts.extend_from_slice(&(vs.len() as u32).to_le_bytes());
            flat.extend(vs.iter().cloned());
        }
        enc.put_raw(&keys);
        enc.put_raw(&counts);
        TupleBlock(flat).encode(enc);
    }
}

impl Decode for TableDump {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        if n > (1 << 28) {
            return Err(StorageError::corrupt(format!("table dump claims {n} keys")));
        }
        let keys = dec.get_raw(n * 8)?;
        let counts = dec.get_raw(n * 4)?;
        let TupleBlock(flat) = TupleBlock::decode(dec)?;
        let mut it = flat.into_iter();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let k = i64::from_le_bytes(keys[i * 8..i * 8 + 8].try_into().expect("8-byte key"));
            let c =
                u32::from_le_bytes(counts[i * 4..i * 4 + 4].try_into().expect("4-byte count"))
                    as usize;
            let mut vs = Vec::with_capacity(c.min(1 << 20));
            for _ in 0..c {
                vs.push(it.next().ok_or_else(|| {
                    StorageError::corrupt("table dump truncated: fewer tuples than counts claim")
                })?);
            }
            out.push((k, vs));
        }
        if it.next().is_some() {
            return Err(StorageError::corrupt(
                "table dump has trailing tuples beyond counted groups",
            ));
        }
        Ok(TableDump(out))
    }
}
