//! Execution context: the ambient state shared by every operator of one
//! query — database handle, contract graph, work table, suspend trigger.

use crate::writers::{DumpPipeline, PrefetchedDumps};
use qsr_core::{ContractGraph, OpId, WorkTable};
use qsr_storage::{
    checksum, is_delta_frame, pages_for_bytes, BlobId, CostModel, CostSnapshot, Database, Decode,
    DeltaDump, Encode, FileId, Result, RunHandle, RunWriter, StorageError, TraceEvent,
    COMPACT_CHAIN_LEN, PAGE_SIZE,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// When to fire a suspend request, for controlled experiments. In a
/// production deployment the request would arrive from the scheduler (the
/// paper's "suspend exception"); here [`ExecContext::request_suspend`]
/// plays that role, and triggers make experiments deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum SuspendTrigger {
    /// Fire once operator `op` has consumed/produced `n` tuples in total
    /// (tick-counted; e.g. "suspend halfway through filling the outer
    /// buffer" = half the buffer size after the relevant refill count).
    AfterOpTuples {
        /// Observed operator.
        op: OpId,
        /// Tick threshold.
        n: u64,
    },
    /// Fire once total work across all operators reaches `units`.
    AfterTotalWork {
        /// Work threshold in cost units.
        units: f64,
    },
}

/// External observer of work-unit boundaries, installed by test harnesses
/// (the differential oracle) to raise suspends at *exact* tick ordinals
/// without knowing operator ids in advance. Called on every
/// [`ExecContext::tick`]; returning `true` raises a suspend request, same
/// as a fired [`SuspendTrigger`].
pub trait WorkUnitObserver: Send {
    /// `op` is the ticking operator, `seq` the 1-based global work-unit
    /// sequence number within this execution segment (it restarts at 0 on
    /// resume, since resume builds a fresh context).
    fn on_work_unit(&mut self, op: OpId, seq: u64) -> bool;
}

impl<F: FnMut(OpId, u64) -> bool + Send> WorkUnitObserver for F {
    fn on_work_unit(&mut self, op: OpId, seq: u64) -> bool {
        self(op, seq)
    }
}

/// Live I/O-charge watchdog installed by the suspend driver for one
/// degradation-ladder rung: before each dump-blob write the spend since
/// `baseline` (plus the upcoming blob's own write cost) is compared
/// against `budget`, and an overrun surfaces as a typed
/// [`StorageError::DeadlineExceeded`] — the signal that triggers the next
/// rung. Commit bookkeeping (the `SuspendedQuery` blob, the manifest
/// rename) is deliberately not guarded: the ladder's cheapest rung must
/// always be able to commit.
#[derive(Debug, Clone)]
pub struct DumpWatchdog {
    /// The suspend I/O budget for this rung, in cost units.
    pub budget: f64,
    /// Ledger snapshot taken at rung start; spend is measured against it.
    pub baseline: CostSnapshot,
}

/// Checksum-keyed cache of dump blobs salvaged from a failed
/// degradation-ladder rung: blobs whose bytes validated after the failure
/// are reused by the next rung instead of being rewritten (keyed by
/// `(checksum, len)` — the same identity [`BlobId`] carries). Entries are
/// consumed on reuse; whatever remains after the ladder settles is
/// orphaned and deleted.
pub type SalvageCache = HashMap<(u64, u64), BlobId>;

/// The last materialized dump of one operator: the blob it lives under,
/// its full (chain-reconstructed) bytes, and where it sits in its delta
/// chain. Recorded whenever a dump is read back (resume) — at zero I/O
/// cost beyond the read that was happening anyway — so the *next* suspend
/// can diff against it when delta checkpoints are enabled.
#[derive(Debug, Clone)]
pub struct DumpBaseline {
    /// Blob the baseline state is committed under.
    pub id: BlobId,
    /// Fully reconstructed state bytes.
    pub bytes: Vec<u8>,
    /// Number of delta layers between `id` and its full checkpoint
    /// (0 = `id` is itself a full dump).
    pub depth: usize,
    /// Ancestor blobs of `id`, base-first (empty for a full dump). A new
    /// delta written on top of this baseline depends on
    /// `chain + [id]`.
    pub chain: Vec<BlobId>,
}

/// Ambient per-query execution state.
pub struct ExecContext {
    /// The database (disk, ledger, blobs, catalog).
    pub db: Arc<Database>,
    /// The live contract graph.
    pub graph: ContractGraph,
    /// Per-operator cumulative work.
    pub work: WorkTable,
    /// Per-operator tick counters (tuples consumed/produced), for
    /// triggers. Indexed by `OpId` — plan builders assign dense small
    /// ids, and `tick()` is the hottest call in the executor (once per
    /// tuple per operator), so this is a flat vector, not a map.
    ticks: Vec<u64>,
    /// Global work-unit counter across all operators (one per tick).
    work_units: u64,
    trigger: Option<SuspendTrigger>,
    observer: Option<Box<dyn WorkUnitObserver>>,
    suspend_requested: bool,
    /// Per-tuple CPU cost charged as work (0 by default: the experiments
    /// are I/O-dominated, like the paper's).
    pub cpu_tuple_cost: f64,
    /// Ablation toggle: when false, operators create no checkpoints and
    /// sign no contracts (only all-DumpState suspends remain possible).
    /// Used to measure the paper's "negligible overhead during execution"
    /// claim.
    pub checkpoints_enabled: bool,
    /// Background writer pool installed by the driver for the duration of
    /// the suspend phase; operators route dump blobs through it via
    /// [`ExecContext::put_dump_value`]. `None` = serial writes.
    dump_pipeline: Option<Arc<DumpPipeline>>,
    /// Per-rung I/O watchdog (driver-installed; see [`DumpWatchdog`]).
    watchdog: Option<DumpWatchdog>,
    /// Salvaged dump blobs from failed ladder rungs, reusable by checksum.
    /// Interior mutability because consumption happens inside the `&self`
    /// dump-write path.
    salvage: RefCell<SalvageCache>,
    /// Dump blobs pre-read by the parallel resume pool (driver-installed
    /// before `root.resume`). Consumed once per blob; misses fall through
    /// to a plain serial blob read.
    prefetched: RefCell<PrefetchedDumps>,
    /// When true, [`ExecContext::put_dump_value`] may emit delta frames
    /// against recorded baselines (driver-set per suspend rung; always
    /// off during fallback shadow passes, whose scratch dumps must stand
    /// alone).
    delta_enabled: bool,
    /// Last materialized dump per operator, recorded on resume reads.
    baselines: RefCell<HashMap<OpId, DumpBaseline>>,
    /// Parent chains (base-first) of the delta frames written by the
    /// current suspend rung, keyed by operator. Drained by the driver
    /// into `SuspendedQuery::delta_deps`.
    delta_emitted: RefCell<BTreeMap<OpId, Vec<BlobId>>>,
    /// Run files this execution's operators created since it started (or
    /// resumed). No committed suspend generation can reference them — a
    /// commit consumes the execution — so they are garbage once the query
    /// reaches `Done`; a committed suspend hands them to the caller
    /// instead ([`crate::SuspendedHandle::spill_files`]).
    pub(crate) spill_files: Vec<FileId>,
    /// Run files this execution created or reopened for appending since
    /// it started (or resumed): the only files whose pages it can have
    /// dirtied, so the only ones its suspend barrier flushes and syncs —
    /// never a neighbouring execution's in the shared pool.
    pub(crate) written_files: BTreeSet<FileId>,
}

impl ExecContext {
    /// Create a context over `db` with a fresh contract graph.
    pub fn new(db: Arc<Database>) -> Self {
        Self {
            db,
            graph: ContractGraph::new(),
            work: WorkTable::new(),
            ticks: Vec::new(),
            work_units: 0,
            trigger: None,
            observer: None,
            suspend_requested: false,
            cpu_tuple_cost: 0.0,
            checkpoints_enabled: true,
            dump_pipeline: None,
            watchdog: None,
            salvage: RefCell::new(SalvageCache::new()),
            prefetched: RefCell::new(PrefetchedDumps::new()),
            delta_enabled: false,
            baselines: RefCell::new(HashMap::new()),
            delta_emitted: RefCell::new(BTreeMap::new()),
            spill_files: Vec::new(),
            written_files: BTreeSet::new(),
        }
    }

    /// Start a new operator-owned run (sorted sublist, join or aggregate
    /// partition), recording its file for reclaim at query end.
    pub fn create_run(&mut self) -> Result<RunWriter> {
        let w = RunWriter::create(self.db.pool().clone())?;
        self.spill_files.push(w.file_id());
        self.written_files.insert(w.file_id());
        Ok(w)
    }

    /// Reopen a sealed run for further appends (a resumed operator
    /// continuing a partially written run; see [`RunWriter::reopen`]).
    pub fn reopen_run(&mut self, handle: RunHandle) -> Result<RunWriter> {
        let w = RunWriter::reopen(self.db.pool().clone(), handle)?;
        self.written_files.insert(handle.file);
        Ok(w)
    }

    /// Enable or disable delta checkpoint emission (driver-only).
    pub fn set_delta_enabled(&mut self, on: bool) {
        self.delta_enabled = on;
    }

    /// Whether delta checkpoint emission is on.
    pub fn delta_enabled(&self) -> bool {
        self.delta_enabled
    }

    /// Drain the parent chains of delta frames written since the last
    /// drain (driver-only: discarded at rung start so nothing leaks
    /// across degradation-ladder retries, consumed after the rung's
    /// dumps to populate `SuspendedQuery::delta_deps`).
    pub fn take_delta_emitted(&mut self) -> BTreeMap<OpId, Vec<BlobId>> {
        std::mem::take(&mut *self.delta_emitted.borrow_mut())
    }

    /// Install in-flight prefetched dump blobs (driver-only, before
    /// `root.resume`). The pool's reads pipeline with operator rebuilds;
    /// any previous collection is dropped, which waits for its stragglers.
    pub fn install_prefetched(&mut self, dumps: PrefetchedDumps) {
        *self.prefetched.borrow_mut() = dumps;
    }

    /// Barrier: wait for every still-queued prefetch read to land (and
    /// charge the ledger). The driver calls this before leaving
    /// `Phase::Resume`, so a resume that aborts early — or substitutes a
    /// fallback and never consumes a blob — cannot leak charged reads
    /// into the next phase.
    pub fn drain_prefetched(&mut self) {
        *self.prefetched.borrow_mut() = PrefetchedDumps::new();
    }

    /// Load an operator dump blob. A blob the parallel resume pool is
    /// reading is awaited and served (or its read error replayed) from
    /// its prefetch slot — the worker charges the ledger when it reads
    /// the pages, so totals stay identical to a serial resume; anything
    /// else is a plain checksummed blob read.
    pub fn get_dump_value<T: Decode>(&self, id: BlobId) -> Result<T> {
        T::decode_from_slice(&self.fetch_dump_bytes(id)?)
    }

    /// Load an operator dump for `op`, transparently reconstructing delta
    /// chains (a delta frame is applied on top of its recursively
    /// materialized base), and record the materialized state as `op`'s
    /// delta baseline — the read already paid for the bytes, so the next
    /// suspend can diff against them for free.
    pub fn get_dump_value_for<T: Decode>(&self, op: OpId, id: BlobId) -> Result<T> {
        let (bytes, depth, chain) = self.materialize_dump(id)?;
        let value = T::decode_from_slice(&bytes)?;
        self.baselines.borrow_mut().insert(
            op,
            DumpBaseline {
                id,
                bytes,
                depth,
                chain,
            },
        );
        Ok(value)
    }

    /// Raw dump-blob bytes: the prefetch slot if the parallel resume pool
    /// read (or is reading) this blob, else the suspend backend.
    fn fetch_dump_bytes(&self, id: BlobId) -> Result<Vec<u8>> {
        let slot = self.prefetched.borrow_mut().remove(&id);
        if let Some(slot) = slot {
            return slot.take();
        }
        self.db.backend().get_blob(id)
    }

    /// Fully materialize the state stored under `id`: returns the
    /// reconstructed bytes, the number of delta links applied, and the
    /// ancestor blobs (base-first).
    fn materialize_dump(&self, id: BlobId) -> Result<(Vec<u8>, usize, Vec<BlobId>)> {
        let raw = self.fetch_dump_bytes(id)?;
        if !is_delta_frame(&raw) {
            return Ok((raw, 0, Vec::new()));
        }
        let delta = DeltaDump::decode_from_bytes(&raw)?;
        let (base_bytes, depth, mut chain) = self.materialize_dump(delta.base)?;
        let bytes = delta.apply(&base_bytes)?;
        chain.push(delta.base);
        Ok((bytes, depth + 1, chain))
    }

    /// Install (or clear) the per-rung suspend watchdog (driver-only).
    pub fn set_watchdog(&mut self, watchdog: Option<DumpWatchdog>) {
        self.watchdog = watchdog;
    }

    /// Merge salvaged blobs into the reuse cache (driver-only, between
    /// degradation-ladder rungs).
    pub fn add_salvage(&mut self, blobs: impl IntoIterator<Item = BlobId>) {
        let mut cache = self.salvage.borrow_mut();
        for b in blobs {
            cache.insert((b.checksum, b.len), b);
        }
    }

    /// Drain the salvage cache (driver-only, after the ladder settles).
    /// Whatever is still here was never reused and is orphaned.
    pub fn take_salvage(&mut self) -> SalvageCache {
        std::mem::take(&mut *self.salvage.borrow_mut())
    }

    /// Install the suspend-phase dump pipeline (driver-only).
    pub fn set_dump_pipeline(&mut self, pipeline: Option<Arc<DumpPipeline>>) {
        self.dump_pipeline = pipeline;
    }

    /// Detach the dump pipeline, if any (driver-only; done before the
    /// fallback shadow passes, which delete scratch dumps and therefore
    /// must write serially).
    pub fn take_dump_pipeline(&mut self) -> Option<Arc<DumpPipeline>> {
        self.dump_pipeline.take()
    }

    /// Store an operator dump blob. During a pipelined suspend the write
    /// is handed to a background worker (the returned [`BlobId`] is
    /// computed synchronously and is valid once the driver joins the
    /// pipeline); otherwise this is a plain serial blob write.
    ///
    /// Two degradation-ladder mechanisms hook in here, where every dump
    /// byte passes: the salvage cache returns an already-durable blob with
    /// identical bytes (checksum + length) from a failed earlier rung
    /// without writing anything — a free reuse the watchdog must never
    /// veto, so it is consulted *first* — and the [`DumpWatchdog`] rejects
    /// a fresh write with a typed [`StorageError::DeadlineExceeded`] when
    /// the rung's I/O budget cannot cover it.
    pub fn put_dump_value<T: Encode>(&self, op: OpId, value: &T) -> Result<BlobId> {
        let full = value.encode_to_vec();
        let (bytes, deps) = self.delta_encode(op, full);
        let nbytes = bytes.len() as u64;
        let pages = pages_for_bytes(bytes.len()) as u64;
        // The salvage cache is empty on every first rung, so the common
        // suspend never hashes a dump here: whoever writes it computes the
        // one checksum its `BlobId` needs.
        let sum = (!self.salvage.borrow().is_empty()).then(|| checksum(&bytes));
        let salvaged = sum.and_then(|sum| self.salvage.borrow_mut().remove(&(sum, nbytes)));
        if let Some(id) = salvaged {
            self.db.ledger().trace(|| TraceEvent::OpDump {
                op: op.0,
                strategy: "dump",
                bytes: nbytes,
                pages,
                reused: true,
            });
            self.note_delta_deps(op, deps);
            return Ok(id);
        }
        if let Some(wd) = &self.watchdog {
            let spent = self
                .db
                .ledger()
                .snapshot()
                .since(&wd.baseline)
                .total_cost();
            let upcoming = pages as f64 * self.db.ledger().model().write_page;
            if spent + upcoming > wd.budget {
                self.db.ledger().trace(|| TraceEvent::WatchdogVeto {
                    spent,
                    budget: wd.budget,
                    upcoming,
                });
                return Err(StorageError::DeadlineExceeded {
                    spent,
                    budget: wd.budget,
                });
            }
        }
        let backend = self.db.backend();
        let id = match &self.dump_pipeline {
            Some(p) => p.put_checksummed(bytes, sum),
            None => backend.put_blob(&bytes),
        }?;
        self.db.ledger().trace(|| TraceEvent::OpDump {
            op: op.0,
            strategy: "dump",
            bytes: nbytes,
            pages,
            reused: false,
        });
        self.db.ledger().trace(|| TraceEvent::BackendPut {
            backend: backend.name(),
            bytes: nbytes,
            pages,
        });
        self.note_delta_deps(op, deps);
        Ok(id)
    }

    /// Delta-encode `full` against `op`'s baseline when enabled and
    /// profitable. Returns the bytes to persist and, for a delta frame,
    /// the parent chain (base-first) the new blob depends on. A chain
    /// about to reach [`COMPACT_CHAIN_LEN`] links is folded back into a
    /// full dump instead (crash-safe compaction: the fold is just a full
    /// write, committed by the same manifest swap as any other suspend).
    fn delta_encode(&self, op: OpId, full: Vec<u8>) -> (Vec<u8>, Option<Vec<BlobId>>) {
        if !self.delta_enabled {
            return (full, None);
        }
        let baselines = self.baselines.borrow();
        let Some(b) = baselines.get(&op) else {
            return (full, None);
        };
        if b.depth + 1 >= COMPACT_CHAIN_LEN {
            self.db.ledger().trace(|| TraceEvent::ChainCompact {
                op: op.0,
                chain_len: b.depth as u64,
            });
            return (full, None);
        }
        // An unchanged dump still gets a (tiny) delta frame rather than
        // reusing the baseline blob: every generation must own a fresh
        // record blob so generation GC stays a per-generation affair.
        let delta = DeltaDump::diff(&b.bytes, b.id, &full).unwrap_or_else(|| DeltaDump {
            base: b.id,
            full_len: full.len() as u64,
            full_checksum: checksum(&full),
            chunks: vec![None; full.len().div_ceil(PAGE_SIZE)],
        });
        let encoded = delta.encode_to_vec();
        if encoded.len() >= full.len() {
            return (full, None);
        }
        let mut chain = b.chain.clone();
        chain.push(b.id);
        (encoded, Some(chain))
    }

    /// Record (or clear) the parent chain of the blob just written for
    /// `op`, so the driver can persist it as `delta_deps`.
    fn note_delta_deps(&self, op: OpId, deps: Option<Vec<BlobId>>) {
        let mut emitted = self.delta_emitted.borrow_mut();
        match deps {
            Some(chain) => {
                emitted.insert(op, chain);
            }
            None => {
                emitted.remove(&op);
            }
        }
    }

    /// Watchdog admission check for non-dump suspend-phase writes
    /// (partition seals, writer flushes): `pages` page-writes are about to
    /// be charged to the suspend phase outside the dump-blob path, so they
    /// face the same per-rung budget veto as [`Self::put_dump_value`] —
    /// otherwise a rung could overrun its I/O budget through writes the
    /// watchdog never sees.
    pub fn guard_suspend_write(&self, pages: u64) -> Result<()> {
        if pages == 0 {
            return Ok(());
        }
        if let Some(wd) = &self.watchdog {
            let spent = self
                .db
                .ledger()
                .snapshot()
                .since(&wd.baseline)
                .total_cost();
            let upcoming = pages as f64 * self.db.ledger().model().write_page;
            if spent + upcoming > wd.budget {
                self.db.ledger().trace(|| TraceEvent::WatchdogVeto {
                    spent,
                    budget: wd.budget,
                    upcoming,
                });
                return Err(StorageError::DeadlineExceeded {
                    spent,
                    budget: wd.budget,
                });
            }
        }
        Ok(())
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        *self.db.ledger().model()
    }

    /// Install (or clear) the suspend trigger.
    pub fn set_trigger(&mut self, t: Option<SuspendTrigger>) {
        self.trigger = t;
    }

    /// Install (or clear) the work-unit observer.
    pub fn set_work_unit_observer(&mut self, obs: Option<Box<dyn WorkUnitObserver>>) {
        self.observer = obs;
    }

    /// Total work units ticked by this execution segment so far.
    pub fn work_units(&self) -> u64 {
        self.work_units
    }

    /// Raise a suspend request (the paper's suspend exception). Operators
    /// observe it at their next blocking step and unwind with
    /// `Poll::Suspended`.
    pub fn request_suspend(&mut self) {
        self.suspend_requested = true;
    }

    /// Clear the request (driver-only, after the suspend phase completes).
    pub fn clear_suspend_request(&mut self) {
        self.suspend_requested = false;
    }

    /// True if a suspend request is pending.
    pub fn suspend_pending(&self) -> bool {
        self.suspend_requested
    }

    /// Tick counter of `op`.
    pub fn ticks_of(&self, op: OpId) -> u64 {
        self.ticks.get(op.0 as usize).copied().unwrap_or(0)
    }

    /// Record one unit of tuple progress for `op` (a consumed input tuple
    /// for buffering operators, a produced tuple for scans), charge the
    /// per-tuple CPU cost, and evaluate the trigger. Returns `true` if a
    /// suspend request is now pending — operators unwind on this signal.
    pub fn tick(&mut self, op: OpId) -> bool {
        let idx = op.0 as usize;
        if idx >= self.ticks.len() {
            self.ticks.resize(idx + 1, 0);
        }
        self.ticks[idx] += 1;
        let count = self.ticks[idx];
        self.work_units += 1;
        if self.cpu_tuple_cost > 0.0 {
            self.work.charge(op, self.cpu_tuple_cost);
        }
        if let Some(obs) = &mut self.observer {
            if obs.on_work_unit(op, self.work_units) {
                self.suspend_requested = true;
            }
        }
        if !self.suspend_requested {
            self.suspend_requested = match &self.trigger {
                Some(SuspendTrigger::AfterOpTuples { op: top, n }) => *top == op && count >= *n,
                Some(SuspendTrigger::AfterTotalWork { units }) => self.work.total() >= *units,
                None => false,
            };
        }
        self.suspend_requested
    }

    /// Charge `pages` page-reads worth of work to `op` (the ledger was
    /// already charged by the storage layer; this is per-operator
    /// attribution feeding the optimizer's `g^r`).
    pub fn note_page_reads(&mut self, op: OpId, pages: u64) {
        if pages > 0 {
            self.work
                .charge(op, pages as f64 * self.cost_model().read_page);
            self.db.ledger().trace(|| TraceEvent::OpIo {
                op: op.0,
                reads: pages,
                writes: 0,
            });
        }
    }

    /// Charge `pages` page-writes worth of work to `op`.
    pub fn note_page_writes(&mut self, op: OpId, pages: u64) {
        if pages > 0 {
            self.work
                .charge(op, pages as f64 * self.cost_model().write_page);
            self.db.ledger().trace(|| TraceEvent::OpIo {
                op: op.0,
                reads: 0,
                writes: pages,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-ctx-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn ctx() -> (TempDir, ExecContext) {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();
        (d, ExecContext::new(db))
    }

    #[test]
    fn tuple_trigger_fires_at_threshold() {
        let (_d, mut c) = ctx();
        c.set_trigger(Some(SuspendTrigger::AfterOpTuples { op: OpId(1), n: 3 }));
        assert!(!c.tick(OpId(1)));
        assert!(!c.tick(OpId(2))); // other op does not count
        assert!(!c.tick(OpId(1)));
        assert!(c.tick(OpId(1)));
        assert!(c.suspend_pending());
        // Sticky until cleared.
        assert!(c.tick(OpId(2)));
        c.clear_suspend_request();
        assert!(!c.suspend_pending());
    }

    #[test]
    fn work_trigger_fires_on_total_work() {
        let (_d, mut c) = ctx();
        c.set_trigger(Some(SuspendTrigger::AfterTotalWork { units: 5.0 }));
        c.note_page_reads(OpId(0), 4); // 4.0 work at read cost 1.0
        assert!(!c.tick(OpId(0)));
        c.note_page_reads(OpId(0), 2);
        assert!(c.tick(OpId(0)));
    }

    #[test]
    fn work_trigger_fires_on_the_tick_the_snapshot_sum_crosses() {
        // The trigger reads `WorkTable::total`; the reference is the sum
        // over a cloned snapshot, which it used to take on every tick.
        // Fractional charges spread over several operators, so a different
        // order of addition would move the crossing.
        let (_d, mut c) = ctx();
        c.cpu_tuple_cost = 0.1;
        let units = 7.3;
        c.set_trigger(Some(SuspendTrigger::AfterTotalWork { units }));
        let (mut fired_at, mut expected) = (None, None);
        for tick in 1..=200u32 {
            let op = OpId(tick % 5);
            if tick % 7 == 0 {
                c.note_page_reads(op, 1);
            }
            if c.tick(op) && fired_at.is_none() {
                fired_at = Some(tick);
            }
            if c.work.snapshot().values().sum::<f64>() >= units && expected.is_none() {
                expected = Some(tick);
            }
        }
        assert!(expected.is_some_and(|t| t > 1), "crossed at {expected:?}");
        assert_eq!(fired_at, expected);
    }

    #[test]
    fn explicit_request_observed() {
        let (_d, mut c) = ctx();
        assert!(!c.suspend_pending());
        c.request_suspend();
        assert!(c.suspend_pending());
    }

    #[test]
    fn page_notes_attribute_work() {
        let (_d, mut c) = ctx();
        c.note_page_reads(OpId(3), 10);
        c.note_page_writes(OpId(3), 2);
        // Default model: read 1.0, write 2.5.
        assert_eq!(c.work.get(OpId(3)), 10.0 + 5.0);
    }

    #[test]
    fn observer_sees_global_sequence_and_raises_suspend() {
        let (_d, mut c) = ctx();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        c.set_work_unit_observer(Some(Box::new(move |op: OpId, seq: u64| {
            log.lock().unwrap().push((op, seq));
            seq == 3
        })));
        assert!(!c.tick(OpId(1)));
        assert!(!c.tick(OpId(2)));
        assert!(c.tick(OpId(1))); // observer fires at global seq 3
        assert!(c.suspend_pending());
        assert_eq!(c.work_units(), 3);
        assert_eq!(
            *seen.lock().unwrap(),
            vec![(OpId(1), 1), (OpId(2), 2), (OpId(1), 3)]
        );
    }

    #[test]
    fn cpu_tuple_cost_charges_work() {
        let (_d, mut c) = ctx();
        c.cpu_tuple_cost = 0.5;
        c.tick(OpId(0));
        c.tick(OpId(0));
        assert_eq!(c.work.get(OpId(0)), 1.0);
    }
}
