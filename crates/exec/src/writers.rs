//! Overlapped suspend-dump write pipeline.
//!
//! At suspend time every dump-bearing operator serializes its in-memory
//! state into a blob. Writing those blobs one after another puts the full
//! I/O latency on the suspend critical path — exactly the window the paper
//! wants small. The [`DumpPipeline`] is a bounded pool of background
//! writer threads, spawned one per submitted blob up to the bound (most
//! suspends dump nothing, and those pay for no thread): the submitting
//! (operator) thread encodes the payload,
//! creates the backing file, and computes the [`BlobId`] — so operators
//! get their id synchronously, same as the serial path — while the page
//! writes and the per-blob fsync happen on worker threads, overlapping
//! across blobs (the [`DiskManager`](qsr_storage::DiskManager) locks files
//! individually, so writers to distinct files genuinely run in parallel).
//!
//! Crash-safety is unchanged from the serial protocol: the driver joins
//! every writer (via [`DumpPipeline::finish`]) *before* the atomic
//! `SUSPEND.manifest` rename, so nothing the manifest references can still
//! be in flight at the commit point. Under the fault injector the global
//! ordering of write events becomes scheduling-dependent, but the *set*
//! of events — and therefore the total count the crash matrix enumerates —
//! is identical to a serial suspend, and every pre-commit write targets a
//! fresh file that is invisible without the manifest.

use qsr_storage::{
    checksum, BlobId, BufferPool, Database, Encode, FileId, Page, Result, PAGE_SIZE,
};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

/// Write `bytes` as pages of `file`, then fsync it.
struct Job {
    file: FileId,
    bytes: Vec<u8>,
}

struct Writers {
    /// `None` once the pipeline is finished: later blobs are written
    /// inline.
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

/// Bounded background writer pool for suspend-time dump blobs. See the
/// module docs for the protocol.
pub struct DumpPipeline {
    pool: Arc<BufferPool>,
    max_writers: usize,
    rx: Arc<StdMutex<Receiver<Job>>>,
    writers: StdMutex<Writers>,
    errors: Arc<StdMutex<Vec<qsr_storage::StorageError>>>,
}

impl DumpPipeline {
    /// A pipeline of at most `workers` writer threads (at least one; a
    /// serial suspend simply uses no pipeline) over the database's buffer
    /// pool. Threads are spawned as blobs arrive, one per blob up to the
    /// bound, so a suspend that dumps nothing pays for no thread.
    pub fn new(db: &Database, workers: usize) -> Arc<Self> {
        let (tx, rx) = std::sync::mpsc::channel::<Job>();
        Arc::new(Self {
            pool: db.pool().clone(),
            max_writers: workers.max(1),
            rx: Arc::new(StdMutex::new(rx)),
            writers: StdMutex::new(Writers {
                tx: Some(tx),
                handles: Vec::new(),
            }),
            errors: Arc::new(StdMutex::new(Vec::new())),
        })
    }

    /// Encode `value` and schedule it as a new dump blob. The file is
    /// created and the blob id (length + checksum) computed on the calling
    /// thread; page writes and the fsync happen on a worker.
    pub fn put_value<T: Encode>(&self, value: &T) -> Result<BlobId> {
        self.put_encoded(value.encode_to_vec())
    }

    /// Schedule pre-encoded `bytes` as a new dump blob (the caller already
    /// serialized the payload — e.g. to consult the salvage cache by
    /// checksum before paying for a write).
    pub fn put_encoded(&self, bytes: Vec<u8>) -> Result<BlobId> {
        self.put_checksummed(bytes, None)
    }

    /// [`Self::put_encoded`] for a caller that may already hold the
    /// payload's checksum (`sum`): the bytes are hashed here only if not.
    pub(crate) fn put_checksummed(&self, bytes: Vec<u8>, sum: Option<u64>) -> Result<BlobId> {
        let file = self.pool.create_file()?;
        let id = BlobId {
            file,
            len: bytes.len() as u64,
            checksum: sum.unwrap_or_else(|| checksum(&bytes)),
        };
        let mut w = self.writers.lock().expect("pipeline writers poisoned");
        let Some(tx) = &w.tx else {
            // Pipeline already finished: write inline so the returned id
            // is always backed by data.
            drop(w);
            write_blob(&self.pool, file, &bytes)?;
            return Ok(id);
        };
        tx.send(Job { file, bytes })
            .expect("the pipeline itself keeps the receiver alive");
        if w.handles.len() < self.max_writers {
            let (rx, pool, errors) = (self.rx.clone(), self.pool.clone(), self.errors.clone());
            w.handles
                .push(std::thread::spawn(move || worker_loop(&rx, &pool, &errors)));
        }
        Ok(id)
    }

    /// Join every writer. Returns the first error any worker hit (all
    /// submitted jobs are attempted regardless). Idempotent; the driver
    /// MUST call this before committing the suspend manifest.
    pub fn finish(&self) -> Result<()> {
        let handles = {
            let mut w = self.writers.lock().expect("pipeline writers poisoned");
            w.tx = None;
            std::mem::take(&mut w.handles)
        };
        // Join before taking the error list: the writers push onto it.
        let panicked = handles.into_iter().filter_map(|h| h.join().err()).count();
        let mut errs = self.errors.lock().expect("error list poisoned");
        if panicked > 0 {
            errs.push(qsr_storage::StorageError::invalid(
                "a dump writer panicked; its blobs may be unwritten",
            ));
        }
        match errs.is_empty() {
            true => Ok(()),
            false => Err(errs.remove(0)),
        }
    }
}

impl Drop for DumpPipeline {
    fn drop(&mut self) {
        // Never leave detached writers behind: an error path that skips
        // finish() would otherwise race later phases of the test or query.
        let _ = self.finish();
    }
}

/// One in-flight prefetched dump blob: a worker thread fills it once,
/// the consuming operator blocks on [`PrefetchSlot::take`]. This is the
/// rendezvous that lets resume-time blob reads overlap operator state
/// rebuilding instead of forming a read-everything barrier up front.
pub struct PrefetchSlot {
    cell: StdMutex<Option<std::result::Result<Vec<u8>, qsr_storage::StorageError>>>,
    ready: Condvar,
}

impl PrefetchSlot {
    fn new() -> Self {
        Self {
            cell: StdMutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, res: std::result::Result<Vec<u8>, qsr_storage::StorageError>) {
        let mut g = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        *g = Some(res);
        self.ready.notify_all();
    }

    /// Block until the worker's read lands, then move the payload (or its
    /// typed read error, replayed at this consumption site) out.
    pub fn take(&self) -> std::result::Result<Vec<u8>, qsr_storage::StorageError> {
        let mut g = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(res) = g.take() {
                return res;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until the worker's read lands, leaving the payload in place.
    /// The drop-time barrier for slots no operator consumed.
    pub fn wait_filled(&self) {
        let mut g = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        while g.is_none() {
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Dump blobs being pre-read by the parallel resume pool, keyed by id.
/// Dropping the collection blocks until every still-queued read has
/// landed — the driver drops it before leaving `Phase::Resume`, so a
/// resume that aborts early (or substitutes a fallback and never consumes
/// a blob) cannot leak charged reads into the next phase.
#[derive(Default)]
pub struct PrefetchedDumps {
    slots: HashMap<BlobId, Arc<PrefetchSlot>>,
}

impl PrefetchedDumps {
    /// An empty collection (no worker threads attached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs queued.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no blobs are queued.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Detach the slot for `id`, if it was queued. The caller then blocks
    /// on [`PrefetchSlot::take`] for the payload.
    pub fn remove(&mut self, id: &BlobId) -> Option<Arc<PrefetchSlot>> {
        self.slots.remove(id)
    }
}

impl Drop for PrefetchedDumps {
    fn drop(&mut self) {
        for slot in self.slots.values() {
            slot.wait_filled();
        }
    }
}

/// Bounded parallel prefetch of resume-time dump blobs — the read-side
/// mirror of [`DumpPipeline`]. Worker threads pull blob ids off a shared
/// queue and read them through the regular [`qsr_storage::BlobStore`]
/// path, so page reads are charged to the ambient ledger phase
/// (`Phase::Resume` during recovery), checksum verification runs, and
/// fault injection fires exactly as on the serial path; only the
/// wall-clock overlaps. `fetch` returns immediately: reads proceed in the
/// background and *pipeline* with operator state rebuilding — each
/// operator blocks only on its own blob's [`PrefetchSlot`], so on a
/// single core the blob I/O wait hides under the decode CPU of whichever
/// operator resumed first. Errors are never raised here: they replay
/// when the owning operator consumes the blob (via
/// [`ExecContext::get_dump_value`](crate::context::ExecContext::get_dump_value)),
/// preserving the serial error taxonomy and surfacing order.
pub struct ResumePool;

impl ResumePool {
    /// Start reading `blobs` with up to `workers` detached threads (at
    /// least one; capped at the queue length) and return the slot map
    /// immediately. Duplicate ids are fetched once, so charged reads
    /// match a serial first consumption; dropping the returned map waits
    /// for every read to land.
    pub fn fetch(db: &Database, blobs: &[BlobId], workers: usize) -> PrefetchedDumps {
        let mut queue: Vec<BlobId> = Vec::with_capacity(blobs.len());
        for &b in blobs {
            if !queue.contains(&b) {
                queue.push(b);
            }
        }
        if queue.is_empty() {
            return PrefetchedDumps::new();
        }
        let workers = workers.max(1).min(queue.len());
        let slots: HashMap<BlobId, Arc<PrefetchSlot>> = queue
            .iter()
            .map(|&id| (id, Arc::new(PrefetchSlot::new())))
            .collect();
        let queue = Arc::new(queue);
        let next = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for _ in 0..workers {
            let store = db.blobs().clone();
            let queue = queue.clone();
            let next = next.clone();
            let slots = slots.clone();
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let Some(&id) = queue.get(i) else { return };
                let res = store.get(id);
                slots[&id].fill(res);
            });
        }
        PrefetchedDumps { slots }
    }
}

fn worker_loop(
    rx: &StdMutex<Receiver<Job>>,
    pool: &Arc<BufferPool>,
    errors: &StdMutex<Vec<qsr_storage::StorageError>>,
) {
    loop {
        // Hold the receiver lock only while waiting, not while writing.
        let job = match rx.lock() {
            Ok(rx) => match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // sender dropped: pipeline finished
            },
            Err(_) => return,
        };
        if let Err(e) = write_blob(pool, job.file, &job.bytes) {
            if let Ok(mut errs) = errors.lock() {
                errs.push(e);
            }
        }
    }
}

/// Page-by-page blob body write + fsync (the id's checksum was computed
/// at submit time from the same bytes).
fn write_blob(pool: &Arc<BufferPool>, file: FileId, bytes: &[u8]) -> Result<()> {
    // One page buffer for the whole blob; only the last chunk can be
    // short, so only it needs its slack re-zeroed.
    let mut page = Page::zeroed();
    for chunk in bytes.chunks(PAGE_SIZE) {
        let (body, slack) = page.bytes_mut().split_at_mut(chunk.len());
        body.copy_from_slice(chunk);
        slack.fill(0);
        pool.append_page(file, &page)?;
    }
    pool.sync_file(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsr_storage::CostModel;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-writers-test-{}-{}",
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

    #[test]
    fn parallel_blobs_read_back_after_finish() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let pipe = DumpPipeline::new(&db, 4);
        let payloads: Vec<Vec<u8>> = (0..8u8)
            .map(|i| vec![i; (i as usize + 1) * (PAGE_SIZE / 2)])
            .collect();
        let ids: Vec<BlobId> = payloads
            .iter()
            .map(|p| pipe.put_value(p).unwrap())
            .collect();
        pipe.finish().unwrap();
        for (id, p) in ids.iter().zip(&payloads) {
            assert_eq!(db.blobs().get_value::<Vec<u8>>(*id).unwrap(), *p);
        }
    }

    #[test]
    fn writers_are_spawned_per_blob_up_to_the_bound() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let spawned = |p: &DumpPipeline| p.writers.lock().unwrap().handles.len();

        // A suspend that dumps nothing: no thread to spawn or join.
        let idle = DumpPipeline::new(&db, 4);
        assert_eq!(spawned(&idle), 0);
        idle.finish().unwrap();

        let pipe = DumpPipeline::new(&db, 3);
        let mut ids = Vec::new();
        for (n, want) in [(1u8, 1), (2, 2), (3, 3), (4, 3), (5, 3)] {
            ids.push((n, pipe.put_value(&vec![n; PAGE_SIZE + 1]).unwrap()));
            assert_eq!(spawned(&pipe), want, "after {n} blobs of at most 3 writers");
        }
        pipe.finish().unwrap();
        for (n, id) in ids {
            let want = vec![n; PAGE_SIZE + 1];
            assert_eq!(db.blobs().get_value::<Vec<u8>>(id).unwrap(), want);
        }
    }

    #[test]
    fn finish_is_idempotent_and_put_after_finish_writes_inline() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let pipe = DumpPipeline::new(&db, 2);
        pipe.finish().unwrap();
        pipe.finish().unwrap();
        let id = pipe.put_value(&b"late".to_vec()).unwrap();
        assert_eq!(db.blobs().get_value::<Vec<u8>>(id).unwrap(), b"late");
    }

    #[test]
    fn resume_pool_prefetches_payloads_and_captures_errors() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 100 * (i as usize + 1)]).collect();
        let ids: Vec<BlobId> = payloads.iter().map(|p| db.blobs().put(p).unwrap()).collect();
        // A blob whose backing file is gone must surface as a stored
        // error, not a panic or a missing entry.
        db.blobs().delete(ids[2]).unwrap();

        let mut fetched = ResumePool::fetch(&db, &ids, 4);
        assert_eq!(fetched.len(), ids.len());
        for (i, id) in ids.iter().enumerate() {
            match fetched.remove(id).expect("every id gets a slot").take() {
                Ok(bytes) => {
                    assert_ne!(i, 2);
                    assert_eq!(bytes, payloads[i]);
                }
                Err(_) => assert_eq!(i, 2, "only the deleted blob may fail"),
            }
        }
        assert!(fetched.is_empty());
    }

    #[test]
    fn resume_pool_charges_match_serial_reads() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let ids: Vec<BlobId> = (0..5u8)
            .map(|i| db.blobs().put(&vec![i; PAGE_SIZE + 7]).unwrap())
            .collect();

        let before = db.ledger().snapshot();
        for id in &ids {
            db.blobs().get(*id).unwrap();
        }
        let serial = db.ledger().snapshot().since(&before);

        let before = db.ledger().snapshot();
        let fetched = ResumePool::fetch(&db, &ids, 4);
        assert_eq!(fetched.len(), ids.len());
        // Dropping the slot map is the barrier: it waits for every queued
        // read to land, so the snapshot below sees all charges.
        drop(fetched);
        let parallel = db.ledger().snapshot().since(&before);

        assert_eq!(
            serial.total_pages_read(),
            parallel.total_pages_read(),
            "pool must charge exactly the serial read I/O"
        );
    }

    #[test]
    fn charged_writes_match_serial_path() {
        let d = TempDir::new();
        let db = Database::open(&d.0, CostModel::symmetric(1.0)).unwrap();
        let payload = vec![3u8; 2 * PAGE_SIZE + 1];

        let before = db.ledger().snapshot();
        db.blobs().put_value(&payload).unwrap();
        let serial = db.ledger().snapshot().since(&before);

        let before = db.ledger().snapshot();
        let pipe = DumpPipeline::new(&db, 3);
        pipe.put_value(&payload).unwrap();
        pipe.finish().unwrap();
        let parallel = db.ledger().snapshot().since(&before);

        assert_eq!(
            serial.total_pages_written(),
            parallel.total_pages_written(),
            "pipeline must charge exactly the serial I/O"
        );
    }
}
