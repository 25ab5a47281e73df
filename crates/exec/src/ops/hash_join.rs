//! Partitioned hash join: simple (Grace) and hybrid variants (paper §4).
//!
//! The join runs in three phases. **Build** and **probe** hash each child
//! into `P` on-disk partition runs; the end of each is a *materialization
//! point* — the sealed runs are disk-resident state that survives
//! suspension. The **join phase** is a depth-first walk over partition
//! *tasks*, each a matched (build run, probe run) pair: the top-level
//! partitions in order (the `cur_part` cursor) and, ahead of them, the
//! children a spilled task queued. A task that fits the memory budget
//! loads its build run into the in-memory table (the heap state) and
//! streams its probe run against it. An over-budget task is re-partitioned
//! one level deeper under a level-salted hash or, at [`MAX_SPILL_DEPTH`] —
//! duplicate-heavy keys never split — joined by block nested-loop in
//! budget-sized build chunks. Every task end is a minimal-heap-state
//! point, where a proactive checkpoint is created. A zero budget means no
//! task is ever over budget (as a zero `merge_fanin` never forces a merge
//! pass in `sort.rs`): the walk visits the top-level partitions and
//! nothing else.
//!
//! **Hybrid hash join** keeps partition 0 of the build side entirely in
//! memory and probes it on the fly during the probe child's partitioning
//! pass. As the paper notes, suspend is relatively expensive here: the
//! operator either dumps its whole in-memory table or goes back to the
//! beginning of the phase with respect to the build relation; the probe
//! relation still benefits from the materialization point.
//!
//! During the partitioning phases (simple variant) and the spill stages
//! the operator produces nothing, so incoming contracts migrate forward
//! across phase and task boundaries like the sort's.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use crate::ops::hash_partition;
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, KeyedRows, Result, RowBuffer, RunHandle, RunReader,
    RunWriter, Schema, StorageError, Tuple, TupleAddr, ValueRef, PAGE_SIZE,
};
use std::collections::VecDeque;
use std::iter::repeat_n;

const PHASE_BUILD: u8 = 0;
const PHASE_PROBE: u8 = 1;
const PHASE_DONE: u8 = 3;
/// The join phase: the depth-first walk over partition tasks.
const PHASE_TASKS: u8 = 5;
/// Retired join-phase bytes, still decoded (see [`HjControl::decode`]):
/// the linear partition scan budget-less joins ran, and the task queue
/// that was seeded with every top-level partition up front.
const PHASE_JOIN: u8 = 2;
const PHASE_GRACE: u8 = 4;

/// Task stages. `TS_JOIN` and `TS_NLJ` emit output; the spill stages only
/// move tuples between runs (no output, so checkpoints and contract
/// migration behave like the partitioning phases).
const TS_JOIN: u8 = 0;
const TS_SPILL_BUILD: u8 = 1;
const TS_SPILL_PROBE: u8 = 2;
const TS_NLJ: u8 = 3;

/// Recursion bound: a task at this level that still exceeds the budget
/// falls back to block nested-loop (chunked build) instead of spilling
/// again — duplicate-heavy keys never split, so depth must be capped.
const MAX_SPILL_DEPTH: u64 = 2;

/// Level-salted partition hash: re-partitioning one level deeper must not
/// reuse the parent's split (every tuple of a partition shares its parent
/// hash bucket). Level 0 reduces to [`hash_partition`] exactly.
fn hash_partition_at(key: i64, level: u64, partitions: usize) -> usize {
    let salted = (key as u64) ^ level.wrapping_mul(0xC6A4_A793_5BD1_E995);
    (salted.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % partitions
}

/// One node of the partition tree: a matched (build, probe) pair of
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
    fn top_level(part: usize, build: RunHandle, probe: RunHandle) -> Self {
        PartTask {
            level: 0,
            path: vec![part as u32],
            build,
            probe,
        }
    }

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

/// One step of the task machine.
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
    /// Join phase: the next top-level partition to start, and the probe
    /// cursor of the task in flight.
    cur_part: u64,
    probe_addr: Option<TupleAddr>,
    cur_probe: Option<Tuple>,
    match_idx: u64,
    build_done: bool,
    probe_done: bool,
    build_consumed: u64,
    probe_consumed: u64,
    /// Join phase: queued spill children (popped from the back), the
    /// in-flight task and its stage, sealed child runs of an in-progress
    /// spill, the re-partition read cursor, and the NLJ block cursor
    /// (current block start and the precomputed next-block start).
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

impl HjControl {
    /// Whether a resume can reposition straight onto this join-phase
    /// state: a task boundary or an emitting stage is rebuildable from
    /// sealed runs (bucket + probe position, §4). A mid-spill state would
    /// reference unsealed child writers, so spill stages anchor at the
    /// latest task-boundary checkpoint like the partitioning phases do.
    fn repositions(&self) -> bool {
        self.phase == PHASE_TASKS
            && (self.cur_task.is_none() || matches!(self.stage, TS_JOIN | TS_NLJ))
    }
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
        let mut c = HjControl {
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
        };
        // Records written under a retired join-phase byte map onto the
        // task walk, so queries suspended by an older build still resume.
        match c.phase {
            // Linear scan: `cur_part` named the partition in flight (or
            // next up — that scan loaded either on resume) and no task
            // objects existed.
            PHASE_JOIN => {
                c.phase = PHASE_TASKS;
                let part = c.cur_part as usize;
                if let (Some(&build), Some(&probe)) =
                    (c.build_runs.get(part), c.probe_runs.get(part))
                {
                    c.cur_task = Some(PartTask::top_level(part, build, probe));
                    c.cur_part += 1;
                }
            }
            // Seeded queue: the unstarted top-level partitions sat at the
            // bottom of the queue and `cur_part` never moved.
            PHASE_GRACE => {
                c.phase = PHASE_TASKS;
                let unstarted = c.tasks.iter().filter(|t| t.level == 0).count();
                c.tasks.retain(|t| t.level > 0);
                c.cur_part = c.build_runs.len().saturating_sub(unstarted) as u64;
            }
            _ => {}
        }
        Ok(c)
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
    /// in-flight task's build run (or NLJ block) during the join phase.
    table: KeyedRows,
    cur_part: usize,
    probe_reader: Option<RunReader>,
    pages_noted: u64,
    cur_probe: Option<Tuple>,
    cur_probe_addr: Option<TupleAddr>,
    /// Matches of `cur_probe` emitted so far.
    match_idx: usize,
    /// The table position the search for `cur_probe`'s next match starts
    /// at: one past the last match.
    match_at: usize,
    build_consumed: u64,
    probe_consumed: u64,

    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
    /// Resume-replay stop point: (build_consumed, probe_consumed). When
    /// set, `next()` freezes (returns `Suspended`) upon reaching it.
    replay_stop: Option<(u64, u64)>,

    /// Per-task build budget in tuples (0 = unlimited: no task is ever
    /// over budget).
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
            table: KeyedRows::new(build_key),
            cur_part: 0,
            probe_reader: None,
            pages_noted: 0,
            cur_probe: None,
            cur_probe_addr: None,
            match_idx: 0,
            match_at: 0,
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

    /// Cap the in-memory build side of a partition task at `budget`
    /// tuples (0 = unlimited): over-budget tasks are recursively
    /// re-partitioned with a level-salted hash up to [`MAX_SPILL_DEPTH`],
    /// then joined by block nested-loop in `budget`-tuple build chunks.
    pub fn with_memory_budget(mut self, budget: usize) -> Self {
        self.mem_budget = budget;
        self
    }

    fn control(&self) -> HjControl {
        HjControl {
            phase: self.phase,
            build_runs: self.build_runs.clone(),
            probe_runs: self.probe_runs.clone(),
            cur_part: self.cur_part as u64,
            probe_addr: self
                .cur_probe_addr
                .or_else(|| self.probe_reader.as_ref().map(|r| r.position())),
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

    fn append_to(writers: &mut [Option<RunWriter>], part: usize, record: &[u8]) -> Result<()> {
        writers[part]
            .as_mut()
            .ok_or_else(|| StorageError::invalid("hash-join partition writer missing"))?
            .append_record(record)
    }

    /// Reopen sealed partition runs as in-progress writers (a Dump resume
    /// keeps appending where the suspend sealed them).
    fn reopen_writers(
        ctx: &mut ExecContext,
        runs: &mut Vec<RunHandle>,
    ) -> Result<Vec<Option<RunWriter>>> {
        runs.drain(..)
            .map(|h| ctx.reopen_run(h).map(Some))
            .collect()
    }

    /// Drop the in-memory table and the probe cursor over it.
    fn clear_probe_state(&mut self) {
        self.table.clear();
        self.probe_reader = None;
        self.set_probe(None, None);
    }

    /// Make `t`, read at `addr`, the probe cursor, with no match emitted.
    fn set_probe(&mut self, t: Option<Tuple>, addr: Option<TupleAddr>) {
        self.cur_probe = t;
        self.cur_probe_addr = addr;
        self.match_idx = 0;
        self.match_at = 0;
    }

    fn reset_nlj_cursor(&mut self) {
        self.nlj_pos = 0;
        self.nlj_addr = None;
        self.nlj_next_pos = 0;
        self.nlj_next_addr = None;
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
            // Suspend-time seals write outside the dump-blob path, so a
            // rung cannot overrun via writes the dump watchdog never sees.
            let handle = ctx.seal_run_guarded(op, w, "partition-seal")?;
            runs.push(handle);
            writers.remove(0);
        }
        Ok(())
    }

    /// Route one build tuple: hybrid keeps partition 0 in the in-memory
    /// table, everything else goes to its partition run.
    fn partition_build(&mut self, ctx: &mut ExecContext, key: i64, t: Tuple) -> Result<()> {
        ctx.tick(self.op);
        self.build_consumed += 1;
        let p = hash_partition(key, self.partitions);
        if self.hybrid && p == 0 {
            self.table.push(t.row());
            return Ok(());
        }
        Self::append_to(&mut self.build_writers, p, t.row().record())
    }

    /// Route one probe tuple: a hybrid partition-0 tuple becomes the probe
    /// cursor over the in-memory table (its matches are emitted inline),
    /// everything else goes to its partition run.
    fn partition_probe(&mut self, ctx: &mut ExecContext, key: i64, t: Tuple) -> Result<()> {
        ctx.tick(self.op);
        self.probe_consumed += 1;
        let p = hash_partition(key, self.partitions);
        if self.hybrid && p == 0 {
            self.set_probe(Some(t), None);
            return Ok(());
        }
        Self::append_to(&mut self.probe_writers, p, t.row().record())
    }

    /// Build side exhausted. The phase boundary is a materialization
    /// point with a checkpoint — but NOT for hybrid: its in-memory
    /// partition-0 table means this is not a minimal-heap-state point
    /// (the paper's §4 observation that hybrid can only dump or go back
    /// to the beginning w.r.t. the build relation).
    fn end_build(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.build_done = true;
        Self::seal_writers(ctx, self.op, &mut self.build_writers, &mut self.build_runs)?;
        self.phase = PHASE_PROBE;
        if !self.hybrid {
            self.checkpoint(ctx, true)?;
        }
        Ok(())
    }

    /// Probe side exhausted: enter the join phase at the first on-disk
    /// partition (partition 0 of a hybrid join was consumed on the fly).
    /// Hybrid drops its in-memory table here, so this is a
    /// minimal-heap-state point for both variants.
    fn end_probe(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.probe_done = true;
        Self::seal_writers(ctx, self.op, &mut self.probe_writers, &mut self.probe_runs)?;
        self.clear_probe_state();
        self.phase = PHASE_TASKS;
        self.cur_part = usize::from(self.hybrid);
        self.checkpoint(ctx, false)
    }

    /// Load the in-flight task's build side into the table: the whole run
    /// for a join task; for NLJ the next block (up to `mem_budget` tuples
    /// from `nlj_addr`), precomputing the following block's cursor.
    /// Deterministic from (`nlj_pos`, `nlj_addr`), so a GoBack resume can
    /// rebuild the table by re-running it.
    fn load_table(&mut self, ctx: &mut ExecContext, build: RunHandle) -> Result<()> {
        self.table.clear();
        let nlj = self.stage == TS_NLJ;
        let budget = self.mem_budget.max(1) as u64;
        let limit = if nlj { budget } else { u64::MAX };
        // Room for every row this load takes, at the run's bytes per row
        // (a page's bytes bound its records'), so the rows go in without
        // growing the store.
        let rows = limit.min(build.tuples.saturating_sub(self.nlj_pos)) as usize;
        let per_row =
            (build.pages as usize).saturating_mul(PAGE_SIZE) / build.tuples.max(1) as usize;
        self.table.reserve(rows, rows.saturating_mul(per_row));
        let mut r = ctx.read_run(build);
        if let Some(addr) = self.nlj_addr {
            r.seek(addr);
        }
        let mut loaded = 0u64;
        while loaded < limit {
            let Some(row) = r.next_row()? else { break };
            row.get(self.build_key).as_int()?;
            self.table.push(row);
            loaded += 1;
        }
        ctx.note_page_reads(self.op, r.pages_fetched());
        if nlj {
            self.nlj_next_pos = self.nlj_pos + loaded;
            self.nlj_next_addr = Some(r.position());
        }
        Ok(())
    }

    fn open_probe_run(&mut self, ctx: &mut ExecContext, handle: RunHandle, at: Option<TupleAddr>) {
        let mut r = ctx.read_run(handle);
        if let Some(addr) = at {
            r.seek(addr);
        }
        self.pages_noted = 0;
        self.probe_reader = Some(r);
    }

    /// Charge the pages `reader` fetched since the last call.
    fn note_io(ctx: &mut ExecContext, op: OpId, reader: &Option<RunReader>, noted: &mut u64) {
        if let Some(r) = reader {
            let fetched = r.pages_fetched();
            ctx.note_page_reads(op, fetched.saturating_sub(*noted));
            *noted = fetched;
        }
    }

    /// The next match of the probe cursor against the in-memory table,
    /// searched from `match_at`; clears the cursor once its matches are
    /// exhausted. `None` without a cursor.
    fn next_match(&mut self) -> Result<Option<Tuple>> {
        let Some(p) = &self.cur_probe else {
            return Ok(None);
        };
        let key = ValueRef::Int(p.get(self.probe_key).as_int()?);
        match self.table.find(key, self.match_at) {
            Some(pos) => {
                let out = self.table.rows().row(pos).join(p.row());
                self.match_idx += 1;
                self.match_at = pos + 1;
                Ok(Some(out))
            }
            None => {
                self.set_probe(None, None);
                Ok(None)
            }
        }
    }

    /// The next task of the depth-first walk: queued spill children first
    /// (they were pushed in reverse, so they pop in partition order), then
    /// the next top-level partition.
    fn next_task(&mut self) -> Option<PartTask> {
        self.tasks.pop().or_else(|| {
            let part = self.cur_part;
            (part < self.partitions).then(|| {
                self.cur_part += 1;
                PartTask::top_level(part, self.build_runs[part], self.probe_runs[part])
            })
        })
    }

    /// Classify the task and set up its stage. Joins and NLJ load lazily
    /// on the first step; a spill opens its re-partition reader here and
    /// announces itself in the trace.
    fn start_task(&mut self, ctx: &mut ExecContext, task: PartTask) {
        self.reset_nlj_cursor();
        self.stage = if self.mem_budget == 0 || task.build.tuples as usize <= self.mem_budget {
            TS_JOIN
        } else if task.level >= MAX_SPILL_DEPTH {
            TS_NLJ
        } else {
            let (op, level) = (self.op.0, task.level + 1);
            let (path, tuples, pages) = (task.path_string(), task.build.tuples, task.build.pages);
            ctx.db
                .ledger()
                .trace(|| qsr_storage::TraceEvent::PartitionSpill {
                    op,
                    level,
                    path: path.clone(),
                    tuples,
                    pages,
                });
            self.spill_build_children.clear();
            self.spill_probe_children.clear();
            self.spill_pages_noted = 0;
            self.spill_reader = Some(ctx.read_run(task.build));
            TS_SPILL_BUILD
        };
        self.cur_task = Some(task);
    }

    /// Task complete: minimal-heap-state point, proactive checkpoint.
    fn finish_task(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.clear_probe_state();
        self.reset_nlj_cursor();
        self.cur_task = None;
        self.checkpoint(ctx, false)
    }

    /// One step of the task machine: one tick per probe tuple consumed
    /// and one per tuple moved during a spill.
    fn grace_step(&mut self, ctx: &mut ExecContext) -> Result<GraceStep> {
        let Some(task) = &self.cur_task else {
            return Ok(match self.next_task() {
                Some(t) => {
                    self.start_task(ctx, t);
                    GraceStep::Continue
                }
                None => GraceStep::Done,
            });
        };
        let (level, build, probe) = (task.level, task.build, task.probe);
        match self.stage {
            // The probe loop: join and NLJ tasks differ only in how much
            // of the build run `load_table` takes and what the end of the
            // probe run advances.
            TS_JOIN | TS_NLJ => {
                if self.probe_reader.is_none() {
                    self.load_table(ctx, build)?;
                    self.open_probe_run(ctx, probe, None);
                }
                if self.cur_probe.is_some() {
                    return Ok(match self.next_match()? {
                        Some(out) => GraceStep::Emit(out),
                        None => GraceStep::Continue,
                    });
                }
                let reader = self
                    .probe_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join probe reader not open"))?;
                let addr = reader.position();
                let t = reader.next()?;
                Self::note_io(ctx, self.op, &self.probe_reader, &mut self.pages_noted);
                match t {
                    Some(t) => {
                        ctx.tick(self.op);
                        self.set_probe(Some(t), Some(addr));
                    }
                    // Probe run exhausted. NLJ moves on to the precomputed
                    // next build block — with no checkpoint in between, to
                    // keep the block cursor the sole recovery input — and
                    // the task ends once the build run is exhausted too.
                    None if self.stage == TS_NLJ && self.nlj_next_pos < build.tuples => {
                        self.clear_probe_state();
                        self.nlj_pos = self.nlj_next_pos;
                        self.nlj_addr = self.nlj_next_addr;
                    }
                    None => self.finish_task(ctx)?,
                }
                Ok(GraceStep::Continue)
            }
            // Re-partition one side of the task one level deeper.
            TS_SPILL_BUILD | TS_SPILL_PROBE => {
                let build_side = self.stage == TS_SPILL_BUILD;
                let (writers, children, key_col) = match build_side {
                    true => (
                        &mut self.spill_build_writers,
                        &mut self.spill_build_children,
                        self.build_key,
                    ),
                    false => (
                        &mut self.spill_probe_writers,
                        &mut self.spill_probe_children,
                        self.probe_key,
                    ),
                };
                Self::ensure_writers(writers, ctx, self.partitions)?;
                let reader = self
                    .spill_reader
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("hash-join spill reader not open"))?;
                // The row goes from the reader's page straight into its
                // deeper run. The append lands before the page read is
                // attributed and the tick taken, which only count; a failed
                // key read or append is raised after both, so it leaves the
                // same counts as a move that succeeds.
                let moved = reader.next_row()?.map(|row| {
                    let key = row.get(key_col).as_int()?;
                    let p = hash_partition_at(key, level + 1, self.partitions);
                    Self::append_to(writers, p, row.record())
                });
                Self::note_io(
                    ctx,
                    self.op,
                    &self.spill_reader,
                    &mut self.spill_pages_noted,
                );
                match moved {
                    Some(moved) => {
                        ctx.tick(self.op);
                        moved?;
                    }
                    None if build_side => {
                        Self::seal_writers(ctx, self.op, writers, children)?;
                        self.spill_pages_noted = 0;
                        self.spill_reader = Some(ctx.read_run(probe));
                        self.stage = TS_SPILL_PROBE;
                    }
                    // Both sides split: the children replace the task.
                    None => {
                        Self::seal_writers(ctx, self.op, writers, children)?;
                        self.spill_reader = None;
                        let builds = std::mem::take(&mut self.spill_build_children);
                        let probes = std::mem::take(&mut self.spill_probe_children);
                        let parent = self.cur_task.take().map(|t| t.path).unwrap_or_default();
                        for i in (0..self.partitions).rev() {
                            let mut path = parent.clone();
                            path.push(i as u32);
                            self.tasks.push(PartTask {
                                level: level + 1,
                                path,
                                build: builds[i],
                                probe: probes[i],
                            });
                        }
                        self.checkpoint(ctx, false)?;
                    }
                }
                Ok(GraceStep::Continue)
            }
            s => Err(StorageError::corrupt(format!(
                "bad hash-join task stage {s}"
            ))),
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
            if ctx.suspend_pending() || self.replay_reached() {
                return Ok(Poll::Suspended);
            }
            match self.phase {
                PHASE_BUILD => {
                    Self::ensure_writers(&mut self.build_writers, ctx, self.partitions)?;
                    match self.build.next(ctx)? {
                        Poll::Tuple(t) => {
                            let key = t.get(self.build_key).as_int()?;
                            self.partition_build(ctx, key, t)?;
                        }
                        Poll::Done => self.end_build(ctx)?,
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                }
                PHASE_PROBE => {
                    Self::ensure_writers(&mut self.probe_writers, ctx, self.partitions)?;
                    // Hybrid: finish emitting matches of the current probe
                    // tuple before pulling the next one.
                    if let Some(out) = self.next_match()? {
                        self.produced_since_sign += 1;
                        return Ok(Poll::Tuple(out));
                    }
                    match self.probe.next(ctx)? {
                        Poll::Tuple(t) => {
                            let key = t.get(self.probe_key).as_int()?;
                            self.partition_probe(ctx, key, t)?;
                        }
                        Poll::Done => self.end_probe(ctx)?,
                        Poll::Suspended => return Ok(Poll::Suspended),
                    }
                }
                PHASE_TASKS => match self.grace_step(ctx)? {
                    GraceStep::Emit(t) => {
                        self.produced_since_sign += 1;
                        return Ok(Poll::Tuple(t));
                    }
                    GraceStep::Continue => {}
                    GraceStep::Done => self.phase = PHASE_DONE,
                },
                PHASE_DONE => return Ok(Poll::Done),
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
        let current = self.control();
        let control = current.encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = if self.phase == PHASE_DONE || current.repositions() {
            // Reactive: a fresh checkpoint capturing the join-phase
            // cursor is a valid GoBack target.
            let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
            ctx.graph.prune_for(self.op);
            ck
        } else {
            match ctx.graph.latest_ckpt(self.op) {
                Some(ck) => ck,
                None => ctx
                    .graph
                    .create_barrier_checkpoint(self.op, control.clone(), work),
            }
        };
        let ctr = ctx
            .graph
            .sign_contract(parent_ckpt, self.op, ck, control, work, vec![])?;
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
        // Mid-spill suspends seal the child partition writers the same
        // way; the sealed handles ride in the control record (Dump
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
        let current_control = self.control();
        let ckpt_control = |ctx: &ExecContext, ck: CkptId| -> Result<HjControl> {
            let ck = ctx
                .graph
                .checkpoint(ck)
                .ok_or_else(|| StorageError::invalid("hash join checkpoint missing"))?;
            HjControl::decode_from_slice(&ck.control)
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
                        if current_control.repositions() {
                            // Rebuild the table from own runs and
                            // reposition the probe cursor — target is the
                            // current control state.
                            (current_control, Vec::new(), None)
                        } else if self.phase == PHASE_TASKS {
                            // Mid-spill: restart the in-flight task from
                            // its boundary checkpoint (spill stages emit
                            // nothing, so no output is re-delivered).
                            (ckpt_control(ctx, latest)?, Vec::new(), None)
                        } else {
                            // Partition phases: go back to the phase-start
                            // checkpoint (shipped via `aux`); the resume
                            // target is the *current* point, so already
                            // delivered output is never re-emitted.
                            (current_control, Vec::new(), Some(latest))
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
                    let saved = ctr.saved_tuples;
                    match strategy {
                        // Join-phase targets that reposition resume at the
                        // contract's cursor, over the dumped table or over
                        // one rebuilt from sealed runs.
                        _ if target.repositions() => (target, saved, None),
                        // c = 0: no checkpoint since signing. In the
                        // partition phases (and mid-spill) the current
                        // state reproduces all outputs only if nothing
                        // was produced since — false once hybrid has
                        // emitted inline partition-0 matches, which
                        // `suspend_inputs` reports so the optimizer
                        // never asks for this.
                        Strategy::Dump if self.produced_since_sign > 0 => {
                            return Err(StorageError::invalid(format!(
                                "{}: Dump under a partition-phase contract would lose {} \
                                 tuples emitted since it was signed",
                                self.op, self.produced_since_sign
                            )));
                        }
                        Strategy::Dump => (current_control, saved, None),
                        // Spill-stage target: roll forward from the
                        // fulfilling (task-boundary) checkpoint.
                        Strategy::GoBack { .. } if target.phase == PHASE_TASKS => {
                            (ckpt_control(ctx, ctr.child_ckpt)?, saved, None)
                        }
                        Strategy::GoBack { .. } => (target, saved, Some(ctr.child_ckpt)),
                    }
                }
            };

        // Heap dump: the in-memory table (hybrid partition 0 or the
        // in-flight task's build side).
        let heap_dump = match strategy {
            Strategy::Dump if !self.table.rows().is_empty() => {
                Some(ctx.put_dump_value(self.op, &TableDump(&self.table))?)
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

        for child in [&mut self.build, &mut self.probe] {
            let ctr = ckpt_for_children
                .and_then(|ck| ctx.graph.contract_from(ck, child.op_id()).map(|c| c.id));
            match ctr {
                Some(ctr) => child.suspend(ctx, SuspendMode::Contract(ctr), plan, sq)?,
                None => child.suspend(ctx, SuspendMode::Current, plan, sq)?,
            }
        }
        Ok(())
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.build.resume(ctx, sq)?;
        self.probe.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = HjControl::decode_from_slice(&rec.resume_point)?;
        let repositions = control.repositions();

        self.phase = control.phase;
        self.build_done = control.build_done;
        self.probe_done = control.probe_done;
        self.build_runs = control.build_runs.clone();
        self.probe_runs = control.probe_runs.clone();
        self.cur_part = control.cur_part as usize;
        self.cur_probe = control.cur_probe.clone();
        self.cur_probe_addr = control.probe_addr;
        self.match_idx = control.match_idx as usize;
        self.table.clear();
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
        let in_flight = self.cur_task.as_ref().map(|t| (t.build, t.probe));

        match rec.strategy {
            Strategy::Dump => {
                // Reopen partially written partitions for appending.
                match (self.phase, in_flight) {
                    (PHASE_BUILD, _) => {
                        self.build_writers = Self::reopen_writers(ctx, &mut self.build_runs)?;
                    }
                    (PHASE_PROBE, _) => {
                        self.probe_writers = Self::reopen_writers(ctx, &mut self.probe_runs)?;
                    }
                    // Mid-spill: the stage's child runs were sealed at
                    // suspend; reopen them as in-progress writers and
                    // reposition the re-partition reader. (In build-spill,
                    // probe children don't exist yet; in probe-spill, the
                    // build children are final and stay sealed.)
                    (PHASE_TASKS, Some((build, probe))) if !repositions => {
                        let run = if self.stage == TS_SPILL_BUILD {
                            self.spill_build_writers =
                                Self::reopen_writers(ctx, &mut self.spill_build_children)?;
                            build
                        } else {
                            self.spill_probe_writers =
                                Self::reopen_writers(ctx, &mut self.spill_probe_children)?;
                            probe
                        };
                        let mut r = ctx.read_run(run);
                        if let Some(addr) = control.spill_addr {
                            r.seek(addr);
                        }
                        self.spill_reader = Some(r);
                    }
                    _ => {}
                }
                if let Some(blob) = rec.heap_dump {
                    let image: TableImage = ctx.get_dump_value_for(self.op, blob)?;
                    self.table = image.into_table(self.build_key)?;
                }
            }
            Strategy::GoBack { .. } => {
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
                    self.set_probe(None, None);
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
                        if rec.aux.is_empty() {
                            return Err(StorageError::corrupt(
                                "hybrid GoBack record missing checkpoint control",
                            ));
                        }
                        let start = HjControl::decode_from_slice(&rec.aux)?;
                        self.phase = start.phase;
                        self.build_done = start.build_done;
                        self.probe_done = start.probe_done;
                        self.build_consumed = start.build_consumed;
                        self.probe_consumed = start.probe_consumed;
                        self.build_runs = start.build_runs;
                        self.probe_runs = start.probe_runs;
                        self.set_probe(None, None);
                        self.replay_stop = Some((control.build_consumed, control.probe_consumed));
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
                        self.cur_probe = control.cur_probe.clone();
                        self.match_idx = control.match_idx as usize;
                    }
                }
            }
        }

        // A join or NLJ task in flight: rebuild its table from the build
        // run (the NLJ block reload is deterministic from the recorded
        // block cursor) unless the dump restored it, and reposition the
        // probe cursor.
        if let Some((build, probe)) = in_flight.filter(|_| repositions) {
            if rec.heap_dump.is_none() {
                self.load_table(ctx, build)?;
            }
            self.open_probe_run(ctx, probe, self.cur_probe_addr);
            if self.cur_probe.is_some() {
                // The recorded probe tuple was already consumed from the
                // run; skip past it.
                if let Some(r) = self.probe_reader.as_mut() {
                    r.next()?;
                }
                Self::note_io(ctx, self.op, &self.probe_reader, &mut self.pages_noted);
            }
        }
        // Step past the probe cursor's first `match_idx` matches, where the
        // resumed probe goes on.
        self.match_at = 0;
        if let Some(p) = &self.cur_probe {
            let key = ValueRef::Int(p.get(self.probe_key).as_int()?);
            for _ in 0..self.match_idx {
                let next = self.table.find(key, self.match_at);
                self.match_at = next.map_or(self.table.rows().len(), |pos| pos + 1);
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
        // Control-record entries beyond the fixed part: queued and
        // in-flight spill children and an in-progress spill's child runs.
        // A top-level partition in flight is the `cur_part` cursor; its
        // runs are counted with `build_runs` / `probe_runs`.
        let task_entries = self.tasks.len()
            + self.spill_build_children.len()
            + self.spill_probe_children.len()
            + usize::from(self.cur_task.as_ref().is_some_and(|t| t.level > 0));
        OpSuspendInputs {
            heap_bytes: self.table.rows().heap_bytes(),
            control_bytes: 64
                + 16 * (self.build_runs.len() + self.probe_runs.len())
                + 48 * task_entries,
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

/// Heap-dump image of the in-memory table, in the layout builds that
/// kept the table as a key → rows map wrote: the `n` distinct keys in
/// ascending order as one raw little-endian run, one raw run of per-key
/// row counts, then one block of every row grouped by key, in insertion
/// order within a key. A stable sort of the positions by key gives that
/// order.
struct TableDump<'a>(&'a KeyedRows);

impl Encode for TableDump<'_> {
    fn encode(&self, enc: &mut Encoder) {
        let table = self.0;
        // Every key was read as an integer on its way in.
        let key = |p: usize| table.key(p).as_int().expect("integer join key");
        let mut order: Vec<(i64, usize)> = (0..table.rows().len()).map(|p| (key(p), p)).collect();
        order.sort_by_key(|&(k, _)| k);
        let groups: Vec<&[(i64, usize)]> = order.chunk_by(|a, b| a.0 == b.0).collect();
        enc.put_u32(groups.len() as u32);
        groups.iter().for_each(|g| enc.put_i64(g[0].0));
        groups.iter().for_each(|g| enc.put_u32(g.len() as u32));
        table
            .rows()
            .encode_in_order(order.iter().map(|&(_, p)| p), enc);
    }
}

/// A decoded [`TableDump`]: its groups, as (key, rows), and its rows.
struct TableImage {
    groups: Vec<(i64, u32)>,
    rows: RowBuffer,
}

impl Decode for TableImage {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        if n > (1 << 28) {
            return Err(StorageError::corrupt(format!("table dump claims {n} keys")));
        }
        let mut keys = Decoder::new(dec.get_raw(n * 8)?);
        let mut counts = Decoder::new(dec.get_raw(n * 4)?);
        let mut groups = Vec::with_capacity(n);
        for _ in 0..n {
            groups.push((keys.get_i64()?, counts.get_u32()?));
        }
        let rows = RowBuffer::decode(dec)?;
        Ok(TableImage { groups, rows })
    }
}

impl TableImage {
    /// The table, keyed by column `key_col`. The groups must account for
    /// every row, each in the group of its own key.
    fn into_table(self, key_col: usize) -> Result<KeyedRows> {
        let table = KeyedRows::from_rows(self.rows, key_col)?;
        let mut keys = self
            .groups
            .into_iter()
            .flat_map(|(k, n)| repeat_n(k, n as usize));
        for p in 0..table.rows().len() {
            if keys.next() != Some(table.key(p).as_int()?) {
                return Err(StorageError::corrupt(format!(
                    "table dump row {p} is outside its key group"
                )));
            }
        }
        match keys.next() {
            None => Ok(table),
            Some(_) => Err(StorageError::corrupt(
                "table dump counts more rows than it holds",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanSpec, QueryExecution, SuspendTrigger};
    use qsr_core::SuspendPolicy;
    use qsr_storage::Database;
    use qsr_workload::{generate_table, TableSpec};

    /// The table's dump is the layout of a key → rows map: keys ascending,
    /// their counts, then the rows grouped by key in insertion order. It
    /// decodes to a table that re-encodes to the same bytes, and groups
    /// that do not account for the rows are `Corrupt`.
    #[test]
    fn table_dump_groups_rows_by_key_in_insertion_order() {
        use qsr_storage::Value;
        let rows: Vec<Tuple> = [(2, "a"), (1, "b"), (2, "c")]
            .into_iter()
            .map(|(k, s)| Tuple::new(vec![Value::Str(s.into()), Value::Int(k)]))
            .collect();
        let mut table = KeyedRows::new(1);
        rows.iter().for_each(|r| table.push(r.row()));
        let wire = TableDump(&table).encode_to_vec();
        let mut want = Encoder::new();
        want.put_u32(2);
        [1i64, 2].into_iter().for_each(|k| want.put_i64(k));
        [1u32, 2].into_iter().for_each(|n| want.put_u32(n));
        let mut grouped = RowBuffer::new();
        [1, 0, 2]
            .into_iter()
            .for_each(|i| grouped.push(rows[i].row()));
        grouped.encode(&mut want);
        assert_eq!(wire, want.finish());
        let back = TableImage::decode_from_slice(&wire)
            .unwrap()
            .into_table(1)
            .unwrap();
        assert_eq!(TableDump(&back).encode_to_vec(), wire);

        // Counts of 2 and 1 put row `b` (key 1) in key 2's group; counts of
        // 1 and 3 claim a row that is not there.
        for counts in [[2u32, 1], [1, 3]] {
            let mut bad = wire.clone();
            for (i, n) in counts.into_iter().enumerate() {
                bad[20 + 4 * i..24 + 4 * i].copy_from_slice(&n.to_le_bytes());
            }
            let got = TableImage::decode_from_slice(&bad).unwrap().into_table(1);
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{counts:?}");
        }
    }

    /// A record written under the retired linear-scan phase byte — mid
    /// partition, probe cursor and all — resumes to the same remaining
    /// output as the task-walk record of the same point.
    #[test]
    fn retired_phase_byte_resumes_like_the_task_walk() {
        /// Removed even when an assertion fails.
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            TempDir(std::env::temp_dir().join(format!("qsr-hj-retired-{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).unwrap();
        let db = Database::open_default(&dir.0).unwrap();
        generate_table(&db, &TableSpec::new("b", 300).payload(16).seed(5)).unwrap();
        generate_table(&db, &TableSpec::new("p", 900).payload(16).seed(6)).unwrap();
        let plan = PlanSpec::HashJoin {
            build: Box::new(PlanSpec::TableScan { table: "b".into() }),
            probe: Box::new(PlanSpec::TableScan { table: "p".into() }),
            build_key: 0,
            probe_key: 0,
            partitions: 3,
            hybrid: false,
        };
        let mut base = QueryExecution::start(db.clone(), plan.clone()).unwrap();
        let expected = base.run_to_completion().unwrap();

        // 1 200 partitioning ticks, then half of the 900 probe ticks:
        // the suspend lands inside the second partition.
        let mut exec = QueryExecution::start(db.clone(), plan).unwrap();
        exec.set_trigger(Some(SuspendTrigger::AfterOpTuples {
            op: OpId(0),
            n: 1_200 + 450,
        }));
        let (prefix, done) = exec.run().unwrap();
        assert!(!done);
        let handle = exec.suspend(&SuspendPolicy::AllGoBack).unwrap();

        let blob = db.backend().get_blob(handle.blob).unwrap();
        let mut sq = SuspendedQuery::decode_from_slice(&blob).unwrap();
        let rec = sq.records.get_mut(&OpId(0)).unwrap();
        let walk = HjControl::decode_from_slice(&rec.resume_point).unwrap();
        let part = match &walk.cur_task {
            Some(t) if t.level == 0 => u64::from(t.path[0]),
            t => panic!("expected a top-level partition in flight, got {t:?}"),
        };
        assert!(part > 0 && walk.cur_probe.is_some() && walk.probe_addr.is_some());
        // The same point as the linear scan recorded it: `cur_part` names
        // the partition in flight and there are no task objects.
        let retired = HjControl {
            phase: PHASE_JOIN,
            cur_part: part,
            cur_task: None,
            ..walk.clone()
        };
        rec.resume_point = retired.encode_to_vec();
        assert_eq!(rec.resume_point[0], 2);
        assert_eq!(
            HjControl::decode_from_slice(&rec.resume_point).unwrap(),
            walk
        );
        let retired_blob = db.backend().put_blob(&sq.encode_to_vec()).unwrap();
        // And as the seeded queue recorded it: the unstarted top-level
        // partitions queued, `cur_part` never moved.
        let seeded = HjControl {
            phase: PHASE_GRACE,
            cur_part: 0,
            tasks: (part as usize + 1..3)
                .rev()
                .map(|p| PartTask::top_level(p, walk.build_runs[p], walk.probe_runs[p]))
                .collect(),
            ..walk.clone()
        };
        assert_eq!(
            HjControl::decode_from_slice(&seeded.encode_to_vec()).unwrap(),
            walk
        );

        for blob in [retired_blob, handle.blob] {
            let mut resumed = QueryExecution::resume_from_blob(db.clone(), blob).unwrap();
            let mut all = prefix.clone();
            all.extend(resumed.run_to_completion().unwrap());
            assert_eq!(all, expected);
        }
    }
}
