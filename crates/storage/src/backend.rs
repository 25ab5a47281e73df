//! Pluggable suspend backends.
//!
//! Every byte a suspend commits — operator dump blobs, the serialized
//! `SuspendedQuery`, the generation manifest — flows through a
//! [`SuspendBackend`]. The default [`LocalDiskBackend`] delegates to the
//! same [`BlobStore`] and sidecar protocol the engine always used, so its
//! charged ledger is bit-identical to a build that never heard of
//! backends. [`MemoryBackend`] keeps dumps in RAM (suspends that never
//! outlive the process, e.g. preemptive scheduling inside one server);
//! [`RemoteMockBackend`] wraps any backend with a scriptable
//! [`FaultInjector`], simulated latency, deadline timeouts, and
//! partial-upload torn writes — the stand-in for a real object store; and
//! [`RobustBackend`] layers deadline-aware retry and sticky failover on
//! top of any primary/fallback pair.

use crate::backoff::BackoffSchedule;
use crate::blob::{BlobId, BlobStore};
use crate::checksum::{checksum, verify_checksum};
use crate::cost::CostLedger;
use crate::disk::{DiskManager, FileId};
use crate::error::{Result, StorageError};
use crate::fault::{self, FaultInjector, WriteKind, WriteOutcome};
use crate::page::pages_for_bytes;
use crate::trace::TraceEvent;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where suspend state lives. The object a suspend commits through:
/// dump blobs (put/get/delete/sync) plus the manifest sidecars that form
/// the atomic commit point. Implementations must be thread-safe — the
/// suspend write pipeline and the multi-session server share one backend.
pub trait SuspendBackend: Send + Sync {
    /// Stable label for traces, attribution tables, and benchmarks.
    fn name(&self) -> &'static str;

    /// True for the local-disk backend (and only it): the dump write
    /// pipeline and the resume prefetch pool read and write local page
    /// files directly, so they are only engaged when the backend is the
    /// local disk.
    fn is_local(&self) -> bool {
        false
    }

    /// Persist `bytes` as a new dump blob.
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId>;

    /// Read a blob back, verifying its checksum.
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>>;

    /// Flush a blob to stable storage (part of the pre-manifest
    /// durability barrier). No-op for backends that are never durable.
    fn sync_blob(&self, id: BlobId) -> Result<()>;

    /// Delete a blob. Deleting a blob that is already gone is not an
    /// error — generation GC is idempotent.
    fn delete_blob(&self, id: BlobId) -> Result<()>;

    /// Read the committed manifest `name`. `Ok(None)` is the clean "no
    /// suspend happened" state.
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>>;

    /// Atomically replace manifest `name` with `bytes` — the single
    /// commit point of a suspend generation.
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Remove manifest `name` (generation retirement). Idempotent.
    fn remove_manifest(&self, name: &str) -> Result<()>;

    /// Committed manifest names starting with `prefix`, sorted.
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>>;

    /// Enumerate every dump blob this backend holds, for the orphan sweep.
    /// `Ok(None)` means the backend cannot enumerate blobs as a distinct
    /// class — the local disk keeps dumps in the same directory as table
    /// heaps and spill runs, so "every file nothing references" would
    /// include live data — and the sweep skips it. Backends that track
    /// their own uploads (memory, remote mock) return the full set,
    /// including fragments left behind by torn puts.
    fn list_blobs(&self) -> Result<Option<Vec<BlobId>>> {
        Ok(None)
    }
}

/// Which [`SuspendBackend`] to install, as named by the
/// `QSR_SUSPEND_BACKEND` environment knob and the oracle's `backend=`
/// scenario token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// [`LocalDiskBackend`] — the default; bit-identical to pre-backend
    /// behavior.
    #[default]
    Local,
    /// [`MemoryBackend`] — dumps live in RAM and die with the process.
    Memory,
    /// [`RobustBackend`] over a [`RemoteMockBackend`] with the local disk
    /// as failover target.
    Remote,
}

impl BackendKind {
    /// Stable lowercase name (the token spelling).
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Local => "local",
            BackendKind::Memory => "memory",
            BackendKind::Remote => "remote",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "local" => Ok(BackendKind::Local),
            "memory" => Ok(BackendKind::Memory),
            "remote" => Ok(BackendKind::Remote),
            other => Err(format!(
                "unknown suspend backend {other:?} (expected local, memory, or remote)"
            )),
        }
    }
}

/// The default backend: dump blobs through the shared [`BlobStore`],
/// manifests through the [`DiskManager`]'s atomic sidecar protocol.
/// Every call delegates 1:1 to the pre-backend code path, so charged
/// costs, fault ordinals, and on-disk bytes are unchanged.
pub struct LocalDiskBackend {
    blobs: BlobStore,
    dm: Arc<DiskManager>,
}

impl LocalDiskBackend {
    /// Wrap the database's blob store and disk manager.
    pub fn new(blobs: BlobStore, dm: Arc<DiskManager>) -> Self {
        Self { blobs, dm }
    }
}

impl SuspendBackend for LocalDiskBackend {
    fn name(&self) -> &'static str {
        "local"
    }
    fn is_local(&self) -> bool {
        true
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        self.blobs.put(bytes)
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        self.blobs.get(id)
    }
    fn sync_blob(&self, id: BlobId) -> Result<()> {
        self.blobs.sync(id)
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        self.blobs.delete(id)
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.dm.read_sidecar(name)
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.dm.write_sidecar_atomic(name, bytes)
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        self.dm.remove_sidecar(name)
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        self.dm.list_sidecars(prefix)
    }
}

/// File ids handed out by [`MemoryBackend`] start here, far above any id a
/// real [`DiskManager`] directory will reach, so a memory blob id can
/// never collide with (or be mistaken for) an on-disk file.
pub const MEMORY_FILE_BASE: u64 = 1 << 40;

/// An in-memory backend: dump blobs and manifests live in process RAM and
/// charge no simulated I/O. Suspends through it are exactly as resumable
/// as the process is alive — the preemptive server's "suspend to free
/// memory, resume in the same process" case — and vanish on restart.
#[derive(Default)]
pub struct MemoryBackend {
    blobs: Mutex<BTreeMap<u64, MemoryBlob>>,
    manifests: Mutex<BTreeMap<String, Vec<u8>>>,
    next: AtomicU64,
}

/// A stored blob beside the id minted for it at `put_blob`. The bytes are
/// shared, so a reader holds the backend lock for a refcount bump, never
/// for a copy or a checksum pass.
#[derive(Clone)]
struct MemoryBlob {
    id: BlobId,
    bytes: Arc<[u8]>,
}

impl MemoryBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs currently held.
    pub fn blob_count(&self) -> usize {
        self.blobs.lock().len()
    }
}

impl SuspendBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        let n = self.next.fetch_add(1, Ordering::SeqCst);
        let id = BlobId {
            file: FileId(MEMORY_FILE_BASE + n),
            len: bytes.len() as u64,
            checksum: checksum(bytes),
        };
        let blob = MemoryBlob {
            id,
            bytes: bytes.into(),
        };
        self.blobs.lock().insert(id.file.0, blob);
        Ok(id)
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        let stored = self
            .blobs
            .lock()
            .get(&id.file.0)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(format!("memory blob {}", id.file)))?;
        // Stored bytes are immutable, so the id minted with them still
        // describes them: a caller's id is right iff it equals that one.
        if id != stored.id {
            return Err(StorageError::checksum_mismatch(
                format!("memory blob {}", id.file),
                id.checksum,
                stored.id.checksum,
            ));
        }
        Ok(stored.bytes.to_vec())
    }
    fn sync_blob(&self, _id: BlobId) -> Result<()> {
        Ok(()) // RAM is as durable as it gets here
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        self.blobs.lock().remove(&id.file.0);
        Ok(())
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.manifests.lock().get(name).cloned())
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.manifests.lock().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        self.manifests.lock().remove(name);
        Ok(())
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        Ok(self
            .manifests
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect())
    }
    fn list_blobs(&self) -> Result<Option<Vec<BlobId>>> {
        Ok(Some(self.blobs.lock().values().map(|b| b.id).collect()))
    }
}

/// A mock "remote" backend: wraps any inner backend with its **own**
/// [`FaultInjector`] (scripted independently of the database's local
/// injector), per-page simulated upload latency, deadline timeouts, and
/// partial-upload torn writes. A crash or torn write scripted here means
/// *the remote endpoint died* — every later remote call fails until the
/// injector is cleared — while the local process stays alive, which is
/// exactly the situation [`RobustBackend`] fails over on.
pub struct RemoteMockBackend {
    inner: Arc<dyn SuspendBackend>,
    faults: Arc<FaultInjector>,
    /// Simulated latency units charged per page moved.
    latency_per_page: u64,
    /// Per-operation latency deadline; an op whose latency exceeds it
    /// fails with [`StorageError::BackendTimeout`].
    deadline: Option<u64>,
    /// Accumulated simulated latency units across all operations.
    latency: AtomicU64,
    /// 1-based put ordinals scripted to time out regardless of latency.
    timeout_puts: Mutex<HashSet<u64>>,
    puts: AtomicU64,
    /// Every blob this endpoint has accepted and not yet deleted — the
    /// remote's object listing, keyed by file id. Torn puts record the
    /// surviving fragment too: that is precisely the unreferenced object a
    /// real store would leak forever, and what the orphan sweep reaps.
    uploads: Mutex<BTreeMap<u64, BlobId>>,
}

impl RemoteMockBackend {
    /// Wrap `inner` with a fresh (deterministically seeded) injector and
    /// no latency.
    pub fn new(inner: Arc<dyn SuspendBackend>, seed: u64) -> Self {
        Self {
            inner,
            faults: Arc::new(FaultInjector::seeded(seed)),
            latency_per_page: 0,
            deadline: None,
            latency: AtomicU64::new(0),
            timeout_puts: Mutex::new(HashSet::new()),
            puts: AtomicU64::new(0),
            uploads: Mutex::new(BTreeMap::new()),
        }
    }

    /// Charge `per_page` latency units per page moved; with
    /// `deadline = Some(d)`, any single operation needing more than `d`
    /// units fails with a typed [`StorageError::BackendTimeout`].
    pub fn with_latency(mut self, per_page: u64, deadline: Option<u64>) -> Self {
        self.latency_per_page = per_page;
        self.deadline = deadline;
        self
    }

    /// The remote-side fault injector, for scripting transient errors,
    /// crashes, and torn uploads (`remote:put` / `remote:commit` targets).
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Script the `nth` put (1-based, counted across this backend's
    /// lifetime) to fail with [`StorageError::BackendTimeout`].
    pub fn timeout_put(&self, nth: u64) {
        self.timeout_puts.lock().insert(nth);
    }

    /// Total simulated latency units spent so far.
    pub fn latency_units(&self) -> u64 {
        self.latency.load(Ordering::SeqCst)
    }

    /// Charge latency for moving `pages` pages; errors with a typed
    /// timeout when a deadline is set and exceeded.
    fn charge_latency(&self, what: &str, pages: u64) -> Result<()> {
        let units = pages.saturating_mul(self.latency_per_page);
        self.latency.fetch_add(units, Ordering::SeqCst);
        if let Some(d) = self.deadline {
            if units > d {
                return Err(StorageError::BackendTimeout {
                    what: what.to_string(),
                    units: d,
                });
            }
        }
        Ok(())
    }
}

impl SuspendBackend for RemoteMockBackend {
    fn name(&self) -> &'static str {
        "remote"
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        let ordinal = self.puts.fetch_add(1, Ordering::SeqCst) + 1;
        if self.timeout_puts.lock().remove(&ordinal) {
            return Err(StorageError::BackendTimeout {
                what: format!("put #{ordinal} ({} bytes)", bytes.len()),
                units: self.deadline.unwrap_or(0),
            });
        }
        self.charge_latency("put", pages_for_bytes(bytes.len()))?;
        match self
            .faults
            .before_write_at(Some(("remote:put", WriteKind::Page)), bytes.len())?
        {
            WriteOutcome::Proceed => {
                let id = self.inner.put_blob(bytes)?;
                self.uploads.lock().insert(id.file.0, id);
                Ok(id)
            }
            WriteOutcome::TornPrefix(keep) => {
                // Partial upload: the prefix landed on the remote under an
                // id nothing will ever reference (a leaked fragment), and
                // the endpoint is dead until the injector is cleared. The
                // fragment still shows up in the object listing, so the
                // orphan sweep can reap it once the endpoint recovers.
                if let Ok(id) = self.inner.put_blob(&bytes[..keep]) {
                    self.uploads.lock().insert(id.file.0, id);
                }
                Err(FaultInjector::halt_error())
            }
        }
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        self.charge_latency("get", pages_for_bytes(id.len as usize))?;
        let flip = self.faults.before_read(id.len as usize)?;
        let mut bytes = self.inner.get_blob(id)?;
        if let Some(bit) = flip {
            fault::flip_bit(&mut bytes, bit);
            verify_checksum(format_args!("remote blob {}", id.file), &bytes, id.checksum)?;
        }
        Ok(bytes)
    }
    fn sync_blob(&self, id: BlobId) -> Result<()> {
        self.faults.check_alive()?;
        self.inner.sync_blob(id)
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        if let WriteOutcome::TornPrefix(_) = self
            .faults
            .before_write_at(Some(("remote:delete", WriteKind::Delete)), 0)?
        {
            return Err(FaultInjector::halt_error());
        }
        self.inner.delete_blob(id)?;
        self.uploads.lock().remove(&id.file.0);
        Ok(())
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.faults.check_alive()?;
        let Some(mut bytes) = self.inner.read_manifest(name)? else {
            return Ok(None);
        };
        if let Some(bit) = self.faults.before_read(bytes.len())? {
            fault::flip_bit(&mut bytes, bit);
        }
        Ok(Some(bytes))
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        // One write event: a remote manifest swap is a single conditional
        // PUT. A torn commit never replaces the old manifest — the swap is
        // atomic on the far side — so it is simply a crash of the endpoint.
        if let WriteOutcome::TornPrefix(_) = self
            .faults
            .before_write_at(Some(("remote:commit", WriteKind::SidecarWrite)), bytes.len())?
        {
            return Err(FaultInjector::halt_error());
        }
        self.inner.commit_manifest(name, bytes)
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        if let WriteOutcome::TornPrefix(_) = self
            .faults
            .before_write_at(Some(("remote:remove", WriteKind::SidecarRemove)), 0)?
        {
            return Err(FaultInjector::halt_error());
        }
        self.inner.remove_manifest(name)
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        self.faults.check_alive()?;
        self.inner.list_manifests(prefix)
    }
    fn list_blobs(&self) -> Result<Option<Vec<BlobId>>> {
        self.faults.check_alive()?;
        Ok(Some(self.uploads.lock().values().copied().collect()))
    }
}

/// Retry + failover layered over a primary/fallback backend pair.
///
/// Writes run against the primary under a deadline-aware
/// [`BackoffSchedule`] (transient failures only — a
/// [`StorageError::BackendTimeout`] says nothing about whether the bytes
/// landed, so it is never blindly retried). When the primary fails for
/// good — exhausted transients, a timeout, a dead endpoint — and a
/// fallback exists, the layer **fails over**: the failing write is
/// re-run against the fallback and all later writes go there directly
/// (sticky, like DNS failover). [`StorageError::NoSpace`] propagates
/// instead: it is the degradation ladder's signal, and the fallback is
/// typically the same local disk that is full.
///
/// Reads are served from whichever side has the bytes: the active side
/// first, then the other — a resume after mid-suspend failover finds
/// pre-failover blobs on the primary and post-failover blobs on the
/// fallback.
pub struct RobustBackend {
    primary: Arc<dyn SuspendBackend>,
    fallback: Option<Arc<dyn SuspendBackend>>,
    backoff: BackoffSchedule,
    failed_over: AtomicBool,
    /// Ledger for `BackendRetry` / `Failover` trace events; `None`
    /// disables tracing (never the charged costs — this layer does no
    /// charged I/O of its own).
    ledger: Option<CostLedger>,
}

impl RobustBackend {
    /// Layer retry/failover over `primary`, falling over to `fallback`
    /// when the primary fails for good.
    pub fn new(
        primary: Arc<dyn SuspendBackend>,
        fallback: Option<Arc<dyn SuspendBackend>>,
        backoff: BackoffSchedule,
        ledger: Option<CostLedger>,
    ) -> Self {
        Self {
            primary,
            fallback,
            backoff,
            failed_over: AtomicBool::new(false),
            ledger,
        }
    }

    /// True once a write has failed over to the fallback.
    pub fn failed_over(&self) -> bool {
        self.failed_over.load(Ordering::SeqCst)
    }

    fn trace(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(l) = &self.ledger {
            l.trace(f);
        }
    }

    /// The backend new writes currently target.
    fn active(&self) -> &Arc<dyn SuspendBackend> {
        match self.failed_over() {
            true => self.fallback.as_ref().unwrap_or(&self.primary),
            false => &self.primary,
        }
    }

    /// The other side, for read fall-through.
    fn other(&self) -> Option<&Arc<dyn SuspendBackend>> {
        match self.failed_over() {
            true => Some(&self.primary),
            false => self.fallback.as_ref(),
        }
    }

    /// Primary-write path: bounded transient retry, then sticky failover
    /// for anything except [`StorageError::NoSpace`] (the ladder's
    /// signal) when a fallback exists.
    fn run_write<T>(&self, op: impl Fn(&dyn SuspendBackend) -> Result<T>) -> Result<T> {
        if self.failed_over() {
            return op(self.active().as_ref());
        }
        let mut attempt = 1u32;
        let err = loop {
            match op(self.primary.as_ref()) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => match self.backoff.delay_after(attempt) {
                    Some(d) => {
                        self.trace(|| TraceEvent::BackendRetry {
                            backend: self.primary.name(),
                            attempt,
                            reason: e.to_string(),
                        });
                        std::thread::sleep(d);
                        attempt += 1;
                    }
                    None => break e,
                },
                Err(e) => break e,
            }
        };
        if matches!(err, StorageError::NoSpace { .. }) {
            return Err(err);
        }
        let Some(fb) = &self.fallback else {
            return Err(err);
        };
        self.trace(|| TraceEvent::Failover {
            from: self.primary.name(),
            to: fb.name(),
            reason: err.to_string(),
        });
        self.failed_over.store(true, Ordering::SeqCst);
        op(fb.as_ref())
    }

    /// Read path: active side first, then the other side on any failure.
    fn run_read<T>(&self, op: impl Fn(&dyn SuspendBackend) -> Result<T>) -> Result<T> {
        match op(self.active().as_ref()) {
            Ok(v) => Ok(v),
            Err(e) => match self.other() {
                Some(o) => op(o.as_ref()).map_err(|_| e),
                None => Err(e),
            },
        }
    }
}

impl SuspendBackend for RobustBackend {
    fn name(&self) -> &'static str {
        self.active().name()
    }
    fn is_local(&self) -> bool {
        self.active().is_local()
    }
    fn put_blob(&self, bytes: &[u8]) -> Result<BlobId> {
        self.run_write(|b| b.put_blob(bytes))
    }
    fn get_blob(&self, id: BlobId) -> Result<Vec<u8>> {
        self.run_read(|b| b.get_blob(id))
    }
    fn sync_blob(&self, id: BlobId) -> Result<()> {
        // A rung syncs every blob its manifest references; after a
        // mid-rung failover those straddle both sides.
        self.run_read(|b| b.sync_blob(id))
    }
    fn delete_blob(&self, id: BlobId) -> Result<()> {
        // The blob lives on exactly one side; missing-blob deletes are
        // no-ops, so trying both is safe and GC stays idempotent.
        let first = self.active().delete_blob(id);
        match self.other() {
            Some(o) => first.and(o.delete_blob(id)),
            None => first,
        }
    }
    fn read_manifest(&self, name: &str) -> Result<Option<Vec<u8>>> {
        // `Ok(None)` on the active side still consults the other side: a
        // manifest committed after failover lives on the fallback, and a
        // restart reconstructs this layer with a fresh (non-failed-over)
        // primary.
        match self.active().read_manifest(name) {
            Ok(Some(b)) => Ok(Some(b)),
            Ok(None) => match self.other() {
                Some(o) => o.read_manifest(name),
                None => Ok(None),
            },
            Err(e) => match self.other() {
                Some(o) => o.read_manifest(name).map_err(|_| e),
                None => Err(e),
            },
        }
    }
    fn commit_manifest(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.run_write(|b| b.commit_manifest(name, bytes))
    }
    fn remove_manifest(&self, name: &str) -> Result<()> {
        let first = self.active().remove_manifest(name);
        match self.other() {
            Some(o) => first.and(o.remove_manifest(name)),
            None => first,
        }
    }
    fn list_manifests(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = self.active().list_manifests(prefix)?;
        if let Some(o) = self.other() {
            if let Ok(more) = o.list_manifests(prefix) {
                names.extend(more);
            }
        }
        names.sort();
        names.dedup();
        Ok(names)
    }
    fn list_blobs(&self) -> Result<Option<Vec<BlobId>>> {
        // Union of whichever sides can enumerate; after a mid-suspend
        // failover, orphaned fragments may sit on either one. A side that
        // cannot enumerate (`None`) contributes nothing rather than
        // blocking the sweep of the side that can.
        let mut out: Option<Vec<BlobId>> = None;
        for side in std::iter::once(self.active()).chain(self.other()) {
            if let Ok(Some(ids)) = side.list_blobs() {
                out.get_or_insert_with(Vec::new).extend(ids);
            }
        }
        if let Some(ids) = &mut out {
            // Dedup on full identity, not file id alone: independent sides
            // (e.g. two memory backends) hand out overlapping id spaces.
            ids.sort_by_key(|id| (id.file.0, id.len, id.checksum));
            ids.dedup();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::RESUME_BACKOFF;
    use crate::bufpool::BufferPool;
    use crate::cost::{CostModel, Phase};
    use crate::fault::WriteFault;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-backend-test-{}-{}",
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

    fn local() -> (TempDir, Arc<LocalDiskBackend>, Arc<DiskManager>) {
        let d = TempDir::new();
        let dm = Arc::new(
            DiskManager::open(&d.0, CostLedger::new(CostModel::symmetric(1.0))).unwrap(),
        );
        let blobs = BlobStore::new(BufferPool::passthrough(dm.clone()));
        (d, Arc::new(LocalDiskBackend::new(blobs, dm.clone())), dm)
    }

    #[test]
    fn local_backend_charges_exactly_the_blobstore_path() {
        let (_d, b, dm) = local();
        let payload = vec![7u8; 3 * crate::page::PAGE_SIZE + 1];
        let before = dm.ledger().snapshot();
        let id = b.put_blob(&payload).unwrap();
        let after = dm.ledger().snapshot().since(&before);
        assert_eq!(after.phase(Phase::Execute).pages_written, 4);
        assert_eq!(b.get_blob(id).unwrap(), payload);
        b.sync_blob(id).unwrap();
        b.delete_blob(id).unwrap();
        assert!(b.get_blob(id).is_err());
    }

    #[test]
    fn local_backend_manifest_ops_are_the_sidecar_protocol() {
        let (_d, b, dm) = local();
        b.commit_manifest("SUSPEND.manifest.s1", b"gen-1").unwrap();
        assert_eq!(
            dm.read_sidecar("SUSPEND.manifest.s1").unwrap().as_deref(),
            Some(&b"gen-1"[..])
        );
        assert_eq!(
            b.list_manifests("SUSPEND.manifest").unwrap(),
            vec!["SUSPEND.manifest.s1".to_string()]
        );
        b.remove_manifest("SUSPEND.manifest.s1").unwrap();
        assert_eq!(b.read_manifest("SUSPEND.manifest.s1").unwrap(), None);
    }

    #[test]
    fn memory_backend_roundtrips_without_touching_disk_ids() {
        let m = MemoryBackend::new();
        let id = m.put_blob(b"state").unwrap();
        assert!(id.file.0 >= MEMORY_FILE_BASE, "ids stay out of disk range");
        assert_eq!(m.get_blob(id).unwrap(), b"state");
        m.commit_manifest("M.s1", b"g1").unwrap();
        m.commit_manifest("M.s2", b"g2").unwrap();
        assert_eq!(m.list_manifests("M.").unwrap().len(), 2);
        m.delete_blob(id).unwrap();
        assert!(matches!(m.get_blob(id), Err(StorageError::NotFound(_))));
        m.delete_blob(id).unwrap(); // idempotent
    }

    #[test]
    fn memory_backend_detects_payload_identity_mismatch() {
        let m = MemoryBackend::new();
        let id = m.put_blob(b"abc").unwrap();
        let wrong = BlobId {
            checksum: id.checksum ^ 1,
            ..id
        };
        assert!(m.get_blob(wrong).unwrap_err().is_corruption());
    }

    #[test]
    fn remote_mock_scripts_transient_timeout_and_torn_faults() {
        let inner = Arc::new(MemoryBackend::new());
        let r = RemoteMockBackend::new(inner.clone(), 7).with_latency(10, Some(25));

        // Scripted timeout on put ordinal 1.
        r.timeout_put(1);
        let e = r.put_blob(b"x").unwrap_err();
        assert!(matches!(e, StorageError::BackendTimeout { .. }), "{e}");
        assert!(e.is_resource_pressure());

        // Deadline timeout: 3 pages * 10 units > 25.
        let big = vec![1u8; 2 * crate::page::PAGE_SIZE + 1];
        let e = r.put_blob(&big).unwrap_err();
        assert!(matches!(e, StorageError::BackendTimeout { .. }), "{e}");
        assert_eq!(r.latency_units(), 30, "latency accrues even on timeout");

        // Transient remote failure, then success on retry.
        r.faults().fail_write(1, WriteFault::Transient(1));
        assert!(r.put_blob(b"y").unwrap_err().is_transient());
        let id = r.put_blob(b"y").unwrap();
        assert_eq!(r.get_blob(id).unwrap(), b"y");

        // Torn upload: a prefix leaks on the remote, the endpoint dies.
        let before = inner.blob_count();
        r.faults().fail_write(r.faults().writes_observed() + 1, WriteFault::Torn);
        assert!(r.put_blob(&[2u8; 100]).is_err());
        assert_eq!(inner.blob_count(), before + 1, "partial upload leaked");
        assert!(r.put_blob(b"z").is_err(), "endpoint dead until cleared");
        r.faults().clear();
        r.put_blob(b"z").unwrap();
    }

    #[test]
    fn remote_mock_lists_uploads_including_torn_fragments() {
        let inner = Arc::new(MemoryBackend::new());
        let r = RemoteMockBackend::new(inner.clone(), 11);
        let a = r.put_blob(b"alive").unwrap();
        r.faults().fail_write(2, WriteFault::Torn);
        assert!(r.put_blob(&[9u8; 64]).is_err());
        assert!(r.list_blobs().is_err(), "endpoint dead: listing fails too");
        r.faults().clear();
        let listed = r.list_blobs().unwrap().expect("remote enumerates");
        assert_eq!(listed.len(), 2, "live blob + leaked fragment");
        assert!(listed.contains(&a));
        let frag = *listed.iter().find(|id| **id != a).unwrap();
        assert!(frag.len < 64, "fragment is a strict prefix");
        r.delete_blob(frag).unwrap();
        assert_eq!(r.list_blobs().unwrap().unwrap(), vec![a]);
        assert_eq!(inner.blob_count(), 1);
    }

    #[test]
    fn robust_list_blobs_unions_both_sides() {
        let remote = Arc::new(RemoteMockBackend::new(Arc::new(MemoryBackend::new()), 4));
        let fallback = Arc::new(MemoryBackend::new());
        let rb = RobustBackend::new(remote.clone(), Some(fallback), RESUME_BACKOFF, None);
        let pre = rb.put_blob(b"pre").unwrap();
        remote.timeout_put(2);
        let post = rb.put_blob(b"post").unwrap();
        assert!(rb.failed_over());
        let listed = rb.list_blobs().unwrap().unwrap();
        assert!(listed.contains(&pre) && listed.contains(&post));

        // A local-disk side cannot enumerate and contributes nothing.
        let (_d, lb, _dm) = local();
        let rb2 = RobustBackend::new(lb, None, RESUME_BACKOFF, None);
        rb2.put_blob(b"x").unwrap();
        assert_eq!(rb2.list_blobs().unwrap(), None);
    }

    #[test]
    fn robust_retries_transients_then_succeeds_without_failover() {
        let remote = Arc::new(RemoteMockBackend::new(Arc::new(MemoryBackend::new()), 1));
        remote.faults().fail_write(1, WriteFault::Transient(2));
        let rb = RobustBackend::new(
            remote.clone(),
            Some(Arc::new(MemoryBackend::new())),
            RESUME_BACKOFF,
            None,
        );
        let id = rb.put_blob(b"retry-me").unwrap();
        assert!(!rb.failed_over());
        assert_eq!(rb.get_blob(id).unwrap(), b"retry-me");
        assert_eq!(rb.name(), "remote");
    }

    #[test]
    fn robust_fails_over_on_timeout_and_serves_reads_from_both_sides() {
        let remote = Arc::new(RemoteMockBackend::new(Arc::new(MemoryBackend::new()), 2));
        let fallback = Arc::new(MemoryBackend::new());
        let rb = RobustBackend::new(remote.clone(), Some(fallback), RESUME_BACKOFF, None);

        let pre = rb.put_blob(b"before-failover").unwrap();
        remote.timeout_put(2);
        let post = rb.put_blob(b"after-failover").unwrap();
        assert!(rb.failed_over(), "timeout must flip the sticky switch");
        assert_eq!(rb.name(), "memory");

        // Reads straddle the failover point.
        assert_eq!(rb.get_blob(pre).unwrap(), b"before-failover");
        assert_eq!(rb.get_blob(post).unwrap(), b"after-failover");

        // Manifests committed post-failover are still found.
        rb.commit_manifest("SUSPEND.manifest", b"gen-9").unwrap();
        assert_eq!(
            rb.read_manifest("SUSPEND.manifest").unwrap().as_deref(),
            Some(&b"gen-9"[..])
        );
        rb.remove_manifest("SUSPEND.manifest").unwrap();
        assert_eq!(rb.read_manifest("SUSPEND.manifest").unwrap(), None);
    }

    #[test]
    fn robust_propagates_nospace_instead_of_failing_over() {
        let (_d, lb, dm) = local();
        dm.set_quota(Some(0));
        let rb = RobustBackend::new(
            lb,
            Some(Arc::new(MemoryBackend::new())),
            RESUME_BACKOFF,
            None,
        );
        let e = rb.put_blob(&[0u8; 10]).unwrap_err();
        assert!(matches!(e, StorageError::NoSpace { .. }), "{e}");
        assert!(!rb.failed_over(), "NoSpace is the ladder's signal");
    }

    #[test]
    fn robust_without_fallback_surfaces_the_primary_error() {
        let remote = Arc::new(RemoteMockBackend::new(Arc::new(MemoryBackend::new()), 3));
        remote.timeout_put(1);
        let rb = RobustBackend::new(remote, None, RESUME_BACKOFF, None);
        let e = rb.put_blob(b"x").unwrap_err();
        assert!(matches!(e, StorageError::BackendTimeout { .. }), "{e}");
    }

    #[test]
    fn backend_kind_parses_and_rejects() {
        assert_eq!("local".parse::<BackendKind>().unwrap(), BackendKind::Local);
        assert_eq!(
            "memory".parse::<BackendKind>().unwrap(),
            BackendKind::Memory
        );
        assert_eq!(
            "remote".parse::<BackendKind>().unwrap(),
            BackendKind::Remote
        );
        let e = "s3".parse::<BackendKind>().unwrap_err();
        assert!(e.contains("unknown suspend backend"), "{e}");
        assert_eq!(BackendKind::default(), BackendKind::Local);
        assert_eq!(BackendKind::Remote.to_string(), "remote");
    }
}
