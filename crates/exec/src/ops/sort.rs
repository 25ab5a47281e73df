//! Two-phase merge sort (paper §4, "Two-Phase Merge Sort").
//!
//! Phase 1 reads the child into a sort buffer, sorts it, and writes each
//! sorted sublist to disk — the sublists are *disk-resident state* and
//! survive suspension untouched (materialization points, footnote 1 of the
//! paper: checkpoints record their locations, never their contents).
//! Proactive checkpoints happen before reading each new sublist; **contract
//! migration is crucial and done at every proactive checkpoint** (§4) —
//! without it, a GoBack would redo every sublist instead of only the
//! current buffer fill.
//!
//! Phase 2 merges the sublists; the operator then "behaves similarly to a
//! table scan": signing a contract creates a reactive checkpoint whose
//! control state is the per-run cursor positions, and resume just seeks.
//!
//! With a merge fan-in cap `F` (0 = unlimited), more than `F` sublists
//! trigger intermediate merge passes: groups of up to `F` runs are merged
//! into new disk-resident runs until at most `F` remain, then the final
//! merge streams to the parent. Every pass output is a materialization
//! point; group boundaries are minimal-heap-state points with proactive
//! checkpoints and contract migration (the operator emits nothing during
//! passes, so migration always applies). Suspend can land mid-group: Dump
//! seals the partial output run and records the group cursor heads, GoBack
//! restarts the group from its boundary checkpoint.

use crate::context::ExecContext;
use crate::operator::{Operator, Poll, SuspendMode};
use qsr_core::{
    CkptId, CtrId, Migration, OpId, OpSuspendInputs, OpSuspendRecord, SideSnapshot, Strategy,
    SuspendPlan, SuspendedQuery,
};
use qsr_storage::{
    Decode, Decoder, Encode, Encoder, Result, RunHandle, RunReader, RunWriter, Schema,
    StorageError, Tuple, TupleAddr, TupleBlock, TupleSlice,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const PHASE_BUILD: u8 = 0;
const PHASE_MERGE: u8 = 1;
const PHASE_PASS: u8 = 2;

#[derive(Debug, Clone, PartialEq)]
struct SortControl {
    phase: u8,
    /// Build: sealed sublists. Pass: runs still queued for the current
    /// pass. Merge: the final merge inputs.
    runs: Vec<RunHandle>,
    /// Phase 1: tuples in the (unsorted) buffer.
    fill: u64,
    child_done: bool,
    /// Phase 2 / in-progress pass group: address of each run's *current
    /// head* tuple (the head is re-read on resume; `None` = exhausted).
    head_addrs: Vec<Option<TupleAddr>>,
    /// Intermediate-pass cursor state (all empty/zero outside PHASE_PASS).
    pass_level: u64,
    /// Completed output runs of the current pass.
    pass_out: Vec<RunHandle>,
    /// Runs of the in-progress merge group (empty at a group boundary).
    group: Vec<RunHandle>,
    /// Sealed image of the in-progress group output (suspend-time Dump
    /// only; reopened for appends on resume).
    pass_run: Option<RunHandle>,
}

impl Encode for SortControl {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.phase);
        enc.put_seq(&self.runs);
        enc.put_u64(self.fill);
        enc.put_bool(self.child_done);
        enc.put_seq(&self.head_addrs);
        enc.put_u64(self.pass_level);
        enc.put_seq(&self.pass_out);
        enc.put_seq(&self.group);
        enc.put_option(&self.pass_run);
    }
}

impl Decode for SortControl {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SortControl {
            phase: dec.get_u8()?,
            runs: dec.get_seq()?,
            fill: dec.get_u64()?,
            child_done: dec.get_bool()?,
            head_addrs: dec.get_seq()?,
            pass_level: dec.get_u64()?,
            pass_out: dec.get_seq()?,
            group: dec.get_seq()?,
            pass_run: dec.get_option()?,
        })
    }
}

/// External (two-phase merge) sort on an integer key column.
pub struct ExternalSort {
    op: OpId,
    child: Box<dyn Operator>,
    key: usize,
    buffer_size: usize,
    /// Merge fan-in cap (0 = unlimited, single-pass merge).
    merge_fanin: usize,
    schema: Schema,

    phase: u8,
    buf: Vec<Tuple>,
    heap_bytes: usize,
    runs: Vec<RunHandle>,
    child_done: bool,

    readers: Vec<RunReader>,
    heads: Vec<Option<Tuple>>,
    head_addrs: Vec<Option<TupleAddr>>,
    /// `(key, run index)` of every run that has a head, smallest on top:
    /// the merge emits keys in order and, among equal keys, the lowest
    /// run first — so equal keys leave in the order they were read in.
    merge_heap: BinaryHeap<Reverse<(i64, usize)>>,

    /// Intermediate-pass state (PHASE_PASS only): pass ordinal, completed
    /// outputs of the current pass, the in-progress group's inputs, its
    /// output writer, and the sealed image of that writer at suspend.
    pass_level: u64,
    pass_out: Vec<RunHandle>,
    group: Vec<RunHandle>,
    pass_writer: Option<RunWriter>,
    pass_run: Option<RunHandle>,

    last_in_ctr: Option<CtrId>,
    produced_since_sign: u64,
    migration_enabled: bool,
    pending: VecDeque<Tuple>,
}

impl ExternalSort {
    /// Sort `child` on integer column `key` with a buffer of
    /// `buffer_size` tuples.
    pub fn new(op: OpId, child: Box<dyn Operator>, key: usize, buffer_size: usize) -> Self {
        let schema = child.schema().clone();
        Self {
            op,
            child,
            key,
            buffer_size,
            merge_fanin: 0,
            schema,
            phase: PHASE_BUILD,
            buf: Vec::new(),
            heap_bytes: 0,
            runs: Vec::new(),
            child_done: false,
            readers: Vec::new(),
            heads: Vec::new(),
            head_addrs: Vec::new(),
            merge_heap: BinaryHeap::new(),
            pass_level: 0,
            pass_out: Vec::new(),
            group: Vec::new(),
            pass_writer: None,
            pass_run: None,
            last_in_ctr: None,
            produced_since_sign: 0,
            migration_enabled: true,
            pending: VecDeque::new(),
        }
    }

    /// Disable contract migration (ablation toggle — dramatic for sort).
    pub fn without_migration(mut self) -> Self {
        self.migration_enabled = false;
        self
    }

    /// Cap the merge fan-in at `fanin` runs (0 = unlimited). More sublists
    /// than the cap trigger intermediate merge passes.
    pub fn with_merge_fanin(mut self, fanin: usize) -> Self {
        self.merge_fanin = fanin;
        self
    }

    fn control(&self) -> SortControl {
        SortControl {
            phase: self.phase,
            runs: self.runs.clone(),
            fill: self.buf.len() as u64,
            child_done: self.child_done,
            head_addrs: self.head_addrs.clone(),
            pass_level: self.pass_level,
            pass_out: self.pass_out.clone(),
            group: self.group.clone(),
            pass_run: self.pass_run,
        }
    }

    fn sort_key(&self, t: &Tuple) -> Result<i64> {
        t.get(self.key).as_int()
    }

    /// Sort the buffer and write it as a sublist. Charges the run writes
    /// to this operator's work.
    fn flush_run(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut keyed: Vec<(i64, Tuple)> = Vec::with_capacity(self.buf.len());
        for t in self.buf.drain(..) {
            let k = t.get(self.key).as_int()?;
            keyed.push((k, t));
        }
        keyed.sort_by_key(|(k, _)| *k);
        let mut w = ctx.create_run()?;
        for (_, t) in &keyed {
            w.append(t)?;
        }
        let handle = w.finish()?;
        let pages = ctx.db.pool().num_pages(handle.file)?;
        ctx.note_page_writes(self.op, pages);
        self.runs.push(handle);
        self.heap_bytes = 0;
        Ok(())
    }

    /// Proactive checkpoint at a phase-1 minimal-heap-state point, with
    /// contract signing on the child and migration of the incoming
    /// contract (sort produces nothing in phase 1, so migration always
    /// applies).
    fn checkpoint(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        debug_assert!(self.buf.is_empty());
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
        if !self.child_done {
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

    fn enter_merge(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.flush_run(ctx)?;
        if self.merge_fanin > 0 && self.runs.len() > self.merge_fanin {
            // Too many sublists for one merge: run intermediate passes.
            // The phase entry is a materialization point (all inputs are
            // sealed on disk) and a minimal-heap-state group boundary.
            self.phase = PHASE_PASS;
            self.checkpoint(ctx)?;
            return Ok(());
        }
        self.open_final_merge(ctx)?;
        // Proactive checkpoint at the phase boundary: the sublists are a
        // materialization point.
        self.checkpoint_merge(ctx)?;
        Ok(())
    }

    fn open_final_merge(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.phase = PHASE_MERGE;
        let runs = self.runs.clone();
        self.open_merge(ctx, &runs)
    }

    /// Open a reader on each of `runs` and load every first tuple as its
    /// run's head.
    fn open_merge(&mut self, ctx: &mut ExecContext, runs: &[RunHandle]) -> Result<()> {
        self.open_readers(ctx, runs);
        for i in 0..self.readers.len() {
            self.advance_head(ctx, i)?;
        }
        Ok(())
    }

    /// Fresh readers over `runs`, no heads yet.
    fn open_readers(&mut self, ctx: &ExecContext, runs: &[RunHandle]) {
        self.readers = runs
            .iter()
            .map(|&h| RunReader::open(ctx.db.pool().clone(), h))
            .collect();
        self.heads = vec![None; runs.len()];
        self.head_addrs = vec![None; runs.len()];
        self.merge_heap.clear();
    }

    /// Resume a merge of `runs` suspended with its heads at `addrs`
    /// (`None` = run exhausted): reopen the readers and re-read each
    /// recorded head.
    fn reopen_merge(
        &mut self,
        ctx: &mut ExecContext,
        runs: &[RunHandle],
        addrs: &[Option<TupleAddr>],
    ) -> Result<()> {
        if addrs.len() != runs.len() {
            return Err(StorageError::corrupt(format!(
                "sort control records {} heads for {} runs",
                addrs.len(),
                runs.len()
            )));
        }
        self.open_readers(ctx, runs);
        let mut pages = 0;
        for (i, addr) in addrs.iter().enumerate() {
            if let Some(addr) = *addr {
                self.readers[i].seek(addr);
                pages += self.load_head(i)?;
                if self.heads[i].is_none() {
                    return Err(StorageError::corrupt("recorded head missing from run"));
                }
            }
        }
        ctx.note_page_reads(self.op, pages);
        Ok(())
    }

    /// One unit of intermediate-pass work: start the next merge group,
    /// merge one tuple into the group's output run, or roll the pass over
    /// when its queue drains. Ticks once per merged tuple, so every
    /// mid-pass position is a suspendable work-unit boundary.
    fn pass_step(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if self.readers.is_empty() {
            if self.runs.is_empty() {
                // Pass complete: its outputs are the next pass's inputs.
                self.runs = std::mem::take(&mut self.pass_out);
                self.pass_level += 1;
                if self.merge_fanin == 0 || self.runs.len() <= self.merge_fanin {
                    self.open_final_merge(ctx)?;
                    self.checkpoint_merge(ctx)?;
                } else {
                    self.checkpoint(ctx)?;
                }
                return Ok(());
            }
            // Start the next merge group.
            let take = self.merge_fanin.min(self.runs.len()).max(1);
            self.group = self.runs.drain(..take).collect();
            let (tuples, pages) = self
                .group
                .iter()
                .fold((0u64, 0u64), |(t, p), h| (t + h.tuples, p + h.pages));
            {
                let (op, pass, runs) = (self.op.0, self.pass_level, self.group.len() as u64);
                ctx.db.ledger().trace(|| qsr_storage::TraceEvent::MergePass {
                    op,
                    pass,
                    runs,
                    tuples,
                    pages,
                });
            }
            let group = self.group.clone();
            self.open_merge(ctx, &group)?;
            self.pass_writer = Some(ctx.create_run()?);
            self.pass_run = None;
            return Ok(());
        }
        match self.pop_min(ctx)? {
            Some(t) => {
                self.pass_writer
                    .as_mut()
                    .ok_or_else(|| StorageError::invalid("sort pass writer missing"))?
                    .append(&t)?;
                ctx.tick(self.op);
            }
            None => {
                // Group exhausted: seal its output — a materialization
                // point — and checkpoint the group boundary (contract
                // migration applies: passes emit nothing).
                let w = self
                    .pass_writer
                    .take()
                    .ok_or_else(|| StorageError::invalid("sort pass writer missing"))?;
                let handle = w.finish()?;
                let pages = ctx.db.pool().num_pages(handle.file)?;
                ctx.note_page_writes(self.op, pages);
                self.pass_out.push(handle);
                self.pass_run = None;
                self.readers.clear();
                self.heads.clear();
                self.head_addrs.clear();
                self.group.clear();
                self.checkpoint(ctx)?;
            }
        }
        Ok(())
    }

    /// Seal the in-progress pass output so its handle can ride in the
    /// suspend control record. Retry-safe: once sealed, the writer is gone
    /// and a re-walked suspend finds `pass_run` already recorded.
    fn seal_pass_writer(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if let Some(w) = self.pass_writer.as_mut() {
            let pending = w.pending_pages();
            ctx.guard_suspend_write(pending)?;
            let handle = w.seal()?;
            if pending > 0 {
                ctx.db.ledger().trace(|| qsr_storage::TraceEvent::MetaWrite {
                    label: "pass-seal",
                    pages: pending,
                });
            }
            let pages = ctx.db.pool().num_pages(handle.file)?;
            ctx.note_page_writes(self.op, pages);
            self.pass_run = Some(handle);
            self.pass_writer = None;
        }
        Ok(())
    }

    /// Phase-2 checkpoint: positions only (reactive-style; "behaves
    /// similarly to a table scan").
    fn checkpoint_merge(&mut self, ctx: &mut ExecContext) -> Result<()> {
        if !ctx.checkpoints_enabled {
            return Ok(());
        }
        let control = self.control().encode_to_vec();
        let work = ctx.work.get(self.op);
        let ck = ctx.graph.create_checkpoint(self.op, control.clone(), work);
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

    /// Read run `i`'s next tuple in as its head: slot, address, and —
    /// with its key cached — merge-heap entry. Returns the page reads the
    /// step cost, for the caller to attribute.
    fn load_head(&mut self, i: usize) -> Result<u64> {
        let reader = &mut self.readers[i];
        let (addr, fetched) = (reader.position(), reader.pages_fetched());
        let t = reader.next()?;
        let pages = reader.pages_fetched() - fetched;
        self.head_addrs[i] = t.as_ref().map(|_| addr);
        if let Some(t) = &t {
            self.merge_heap.push(Reverse((self.sort_key(t)?, i)));
        }
        self.heads[i] = t;
        Ok(pages)
    }

    fn advance_head(&mut self, ctx: &mut ExecContext, i: usize) -> Result<()> {
        let pages = self.load_head(i)?;
        ctx.note_page_reads(self.op, pages);
        Ok(())
    }

    /// The smallest head — of equal keys, the lowest run's — replaced by
    /// its run's next tuple. O(log runs): only the advanced run's key is
    /// extracted and only its reader's pages are counted.
    fn pop_min(&mut self, ctx: &mut ExecContext) -> Result<Option<Tuple>> {
        let Some(Reverse((_, i))) = self.merge_heap.pop() else {
            return Ok(None);
        };
        let t = self.heads[i]
            .take()
            .ok_or_else(|| StorageError::invalid("sort merge head missing"))?;
        self.advance_head(ctx, i)?;
        Ok(Some(t))
    }
}

impl Operator for ExternalSort {
    fn op_id(&self) -> OpId {
        self.op
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.checkpoint(ctx)
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Poll> {
        if let Some(t) = self.pending.pop_front() {
            return Ok(Poll::Tuple(t));
        }
        loop {
            if ctx.suspend_pending() {
                return Ok(Poll::Suspended);
            }
            if self.phase == PHASE_BUILD {
                if self.child_done {
                    self.enter_merge(ctx)?;
                    continue;
                }
                if self.buf.len() >= self.buffer_size {
                    self.flush_run(ctx)?;
                    self.checkpoint(ctx)?;
                    continue;
                }
                match self.child.next(ctx)? {
                    Poll::Tuple(t) => {
                        self.heap_bytes += t.heap_bytes();
                        self.buf.push(t);
                        ctx.tick(self.op);
                    }
                    Poll::Done => self.child_done = true,
                    Poll::Suspended => return Ok(Poll::Suspended),
                }
            } else if self.phase == PHASE_PASS {
                self.pass_step(ctx)?;
            } else {
                return match self.pop_min(ctx)? {
                    Some(t) => {
                        self.produced_since_sign += 1;
                        Ok(Poll::Tuple(t))
                    }
                    None => Ok(Poll::Done),
                };
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)?;
        self.buf.clear();
        self.readers.clear();
        self.merge_heap.clear();
        Ok(())
    }

    fn sign_contract(&mut self, ctx: &mut ExecContext, parent_ckpt: CkptId) -> Result<CtrId> {
        // Build and pass phases anchor contracts at the latest proactive
        // checkpoint (a mid-group reactive point would not be a valid
        // GoBack target: the group's partial output run is unsealed).
        let ctr = if self.phase != PHASE_MERGE {
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
            // Phase 2: fresh reactive checkpoint capturing run positions.
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
            "sort cannot appear in a positional subtree",
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
        // A Dump mid-pass must carry the partial group output: seal it so
        // its handle rides in the control record (no-op otherwise).
        if matches!(strategy, Strategy::Dump) {
            self.seal_pass_writer(ctx)?;
        }
        let (resume_point, saved, enforce_child): (Vec<u8>, Vec<Vec<u8>>, Option<Option<CtrId>>) =
            match mode {
                SuspendMode::Current => match strategy {
                    Strategy::Dump => (self.control().encode_to_vec(), Vec::new(), None),
                    Strategy::GoBack { .. } => {
                        let latest = ctx
                            .graph
                            .latest_ckpt(self.op)
                            .ok_or_else(|| StorageError::invalid("sort has no checkpoint"))?;
                        let child_ctr = ctx
                            .graph
                            .contract_from(latest, self.child.op_id())
                            .map(|c| c.id);
                        (self.control().encode_to_vec(), Vec::new(), Some(child_ctr))
                    }
                },
                SuspendMode::Contract(ctr_id) => {
                    let ctr = ctx
                        .graph
                        .contract(ctr_id)
                        .ok_or_else(|| StorageError::invalid(format!("unknown contract {ctr_id}")))?
                        .clone();
                    let target = SortControl::decode_from_slice(&ctr.control)?;
                    match strategy {
                        Strategy::Dump => {
                            // Build/pass targets produced no output since
                            // signing; current state reproduces everything
                            // (and, mid-pass, carries the sealed partial
                            // run a stale target control could not).
                            let resume = if target.phase != PHASE_MERGE {
                                self.control()
                            } else {
                                target
                            };
                            (resume.encode_to_vec(), ctr.saved_tuples.clone(), None)
                        }
                        Strategy::GoBack { .. } => {
                            if target.phase != PHASE_MERGE {
                                // Roll forward from the *fulfilling*
                                // checkpoint: its control (runs so far,
                                // empty buffer) matches exactly where the
                                // enforced child contract repositions the
                                // input. The work from there to the suspend
                                // point is redone by post-resume execution
                                // — one buffer fill when contract migration
                                // kept the checkpoint fresh, every sublist
                                // without it (the ablation case).
                                let ck_control = ctx
                                    .graph
                                    .checkpoint(ctr.child_ckpt)
                                    .ok_or_else(|| {
                                        StorageError::invalid("missing fulfilling checkpoint")
                                    })?
                                    .control
                                    .clone();
                                let child_ctr = ctx
                                    .graph
                                    .contract_from(ctr.child_ckpt, self.child.op_id())
                                    .map(|c| c.id);
                                (ck_control, ctr.saved_tuples.clone(), Some(child_ctr))
                            } else {
                                // Phase 2: pure repositioning to the
                                // contract point.
                                (ctr.control.clone(), ctr.saved_tuples.clone(), Some(None))
                            }
                        }
                    }
                }
            };

        let heap_dump = match strategy {
            Strategy::Dump if self.phase == PHASE_BUILD && !self.buf.is_empty() => {
                Some(ctx.put_dump_value(self.op, &TupleSlice(&self.buf))?)
            }
            _ => None,
        };
        sq.put_record(OpSuspendRecord {
            op: self.op,
            strategy,
            resume_point,
            heap_dump,
            saved_tuples: saved,
            aux: Vec::new(),
        });
        match enforce_child {
            Some(Some(ctr)) => self.child.suspend(ctx, SuspendMode::Contract(ctr), plan, sq),
            _ => self.child.suspend(ctx, SuspendMode::Current, plan, sq),
        }
    }

    fn resume(&mut self, ctx: &mut ExecContext, sq: &SuspendedQuery) -> Result<()> {
        self.child.resume(ctx, sq)?;
        let rec = sq.record(self.op)?;
        let control = SortControl::decode_from_slice(&rec.resume_point)?;
        self.runs = control.runs.clone();
        self.child_done = control.child_done;
        self.phase = control.phase;
        self.buf.clear();
        self.heap_bytes = 0;
        self.readers.clear();
        self.heads.clear();
        self.head_addrs.clear();
        self.merge_heap.clear();
        self.pass_level = control.pass_level;
        self.pass_out = control.pass_out.clone();
        self.group.clear();
        self.pass_writer = None;
        self.pass_run = None;

        if control.phase == PHASE_BUILD {
            match (&rec.strategy, &rec.heap_dump) {
                (Strategy::Dump, Some(blob)) => {
                    let TupleBlock(tuples) = ctx.get_dump_value_for(self.op, *blob)?;
                    for t in &tuples {
                        self.heap_bytes += t.heap_bytes();
                    }
                    self.buf = tuples;
                }
                (Strategy::Dump, None) => { /* empty buffer at suspend */ }
                (Strategy::GoBack { .. }, _) => {
                    for _ in 0..control.fill {
                        match self.child.next(ctx)? {
                            Poll::Tuple(t) => {
                                self.heap_bytes += t.heap_bytes();
                                self.buf.push(t);
                            }
                            Poll::Done => {
                                return Err(StorageError::corrupt(
                                    "child exhausted during sort GoBack refill",
                                ))
                            }
                            Poll::Suspended => {
                                return Err(StorageError::invalid(
                                    "suspend during resume refill is not supported",
                                ))
                            }
                        }
                    }
                }
            }
        } else if control.phase == PHASE_PASS {
            match &rec.strategy {
                Strategy::Dump => {
                    // Mid-group: reattach the sealed partial output for
                    // appending and reopen the group readers at their
                    // recorded heads. Between groups (empty group) there is
                    // nothing to reopen.
                    self.group = control.group.clone();
                    if let Some(h) = control.pass_run {
                        self.pass_writer = Some(ctx.reopen_run(h)?);
                        self.pass_run = Some(h);
                    }
                    let group = self.group.clone();
                    self.reopen_merge(ctx, &group, &control.head_addrs)?;
                }
                Strategy::GoBack { .. } => {
                    // Checkpoints land at group boundaries, so restart the
                    // in-flight group from scratch: put its inputs back at
                    // the front of the pending-run queue.
                    let mut runs = control.group.clone();
                    runs.append(&mut self.runs);
                    self.runs = runs;
                }
            }
        } else {
            // Final merge: reopen readers and re-read the recorded heads.
            let runs = self.runs.clone();
            self.reopen_merge(ctx, &runs, &control.head_addrs)?;
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
            control_bytes: 32
                + 18
                    * (self.runs.len() + self.pass_out.len() + self.group.len())
                        .max(self.head_addrs.len()),
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
