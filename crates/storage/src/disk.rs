//! Page-granular disk manager with cost accounting.
//!
//! All persistent objects in a database — table heaps, sort runs, hash
//! partitions, dump blobs, the catalog, `SuspendedQuery` structures — live
//! in numbered files managed here. Every page read or write is charged to
//! the [`CostLedger`], which is how experiments
//! observe suspend/resume overheads.

use crate::checksum::{checksum, verify_checksum};
use crate::cost::CostLedger;
use crate::error::{Result, StorageError};
use crate::fault::{self, FaultInjector, WriteKind, WriteOutcome};
use crate::trace::TraceEvent;
use crate::page::{Page, PAGE_RECORD, PAGE_SIZE};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
#[cfg(unix)]
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// On disk a page is a [`PAGE_RECORD`]: the [`PAGE_SIZE`] payload plus a
// [`checksum`](crate::checksum) trailer. The trailer is a `DiskManager`
// implementation detail — every layer above sees [`PAGE_SIZE`] pages, and
// all quota / `used_bytes` accounting stays in logical [`PAGE_SIZE`] units
// — but it lets `read_page` detect arbitrary media corruption (bit flips,
// torn overwrites) on tuple-bearing heap and run pages, which unlike blobs
// and sidecars have no payload framing of their own.

/// Identifier of a file managed by the [`DiskManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// One open page file. Reads are lock-free positioned I/O against the
/// shared descriptor; writes and truncates serialize on `write` and
/// publish the new page count with `Release` ordering, so a reader that
/// passes the bounds check always sees fully written extend data.
///
/// Coherence contract: concurrently *overwriting* a page while another
/// thread reads that same page is not atomic (the reader may see a torn
/// mix, which the checksum trailer rejects). No engine layer does this —
/// table heaps are immutable during execution, sort runs are sealed
/// before they are read, and dump blobs are write-once — and the threaded
/// scheduler relies on same-file *reads* never serializing on each other.
struct OpenFile {
    file: File,
    pages: AtomicU64,
    write: Mutex<()>,
}

impl OpenFile {
    fn new(file: File, pages: u64) -> Self {
        Self {
            file,
            pages: AtomicU64::new(pages),
            write: Mutex::new(()),
        }
    }

    fn pages(&self) -> u64 {
        self.pages.load(Ordering::Acquire)
    }

    /// Positioned read of one whole page record. On unix this takes no
    /// lock at all; elsewhere it briefly serializes on the write lock to
    /// share the descriptor's seek cursor safely.
    fn read_record_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _g = self.write.lock();
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }

    /// Positioned write (caller must hold the write lock).
    fn write_record_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            self.file.write_all_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(buf)
        }
    }
}

/// Manages numbered page files in a database directory.
///
/// The file table maps ids to shared handles whose *reads* are lock-free
/// positioned I/O — concurrent scans of the same table never serialize on
/// each other, which is what lets the threaded scheduler's session slices
/// actually run in parallel. Writes serialize per file, so I/O on
/// *different* files proceeds in parallel (the map lock is only held long
/// enough to fetch a handle). The server's worker threads rely on this:
/// one session's suspend writes its blobs while another's slice spills to
/// its own run files.
pub struct DiskManager {
    dir: PathBuf,
    files: Mutex<HashMap<FileId, Arc<OpenFile>>>,
    next_id: AtomicU64,
    ledger: CostLedger,
    /// Optional fault injector consulted before every I/O event. Page
    /// writes, file creates/deletes, and sidecar commit steps are write
    /// events; page and sidecar reads are read events.
    fault: Mutex<Option<Arc<FaultInjector>>>,
    /// Whether `fault` holds an injector, kept beside it by
    /// [`Self::set_fault_injector`] so that every page read and seal with
    /// none attached costs one atomic load, not a lock and a clone. Stored
    /// (`Release`) under the slot's lock, loaded (`Acquire`) before it is
    /// taken: a reader that sees `true` then finds the injector in the
    /// slot, unless a detach has emptied it since.
    fault_attached: AtomicBool,
    /// Optional byte quota over all page files. `None` = unlimited.
    quota: Mutex<Option<u64>>,
    /// Bytes currently held by page files (sidecars are exempt: they are
    /// tiny, bounded in number, and the commit protocol depends on them).
    used_bytes: AtomicU64,
    /// Page files fsynced through [`Self::sync_file`].
    file_syncs: AtomicU64,
}

impl DiskManager {
    /// Open (or create) a disk manager rooted at `dir`. File numbering
    /// continues after the highest existing file so reopening a database
    /// directory never clobbers data.
    pub fn open(dir: impl AsRef<Path>, ledger: CostLedger) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut max_id = 0u64;
        let mut used = 0u64;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            // Only exact `f<digits>.qsr` names participate in numbering.
            // Sidecars (`SUSPEND.manifest`, `*.tmp`, the catalog) and any
            // stray files must neither bump `next_id` (`f9.tmp` is not
            // file 9) nor reset it.
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(num) = name.strip_prefix('f').and_then(|r| r.strip_suffix(".qsr")) else {
                continue;
            };
            if num.is_empty() || !num.bytes().all(|b| b.is_ascii_digit()) {
                continue;
            }
            if let Ok(id) = num.parse::<u64>() {
                max_id = max_id.max(id + 1);
                // Logical bytes: full page records only (a torn trailing
                // fragment was never counted when it was written).
                let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
                used += (len / PAGE_RECORD as u64) * PAGE_SIZE as u64;
            }
        }
        Ok(Self {
            dir,
            files: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(max_id),
            ledger,
            fault: Mutex::new(None),
            fault_attached: AtomicBool::new(false),
            quota: Mutex::new(None),
            used_bytes: AtomicU64::new(used),
            file_syncs: AtomicU64::new(0),
        })
    }

    /// Set (or with `None`, lift) the byte quota over page files. Once the
    /// quota is reached, file-extending page writes fail with a typed
    /// [`StorageError::NoSpace`]; overwrites of existing pages, deletes,
    /// and sidecar commits still proceed, so a full disk can always be
    /// drained back below quota.
    pub fn set_quota(&self, quota: Option<u64>) {
        *self.quota.lock() = quota;
    }

    /// The byte quota in effect, if any.
    pub fn quota(&self) -> Option<u64> {
        *self.quota.lock()
    }

    /// Bytes currently held by page files under this manager.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.load(Ordering::SeqCst)
    }

    /// Reject a file-extending write when it would push `used_bytes` past
    /// the quota.
    fn check_quota_extend(&self) -> Result<()> {
        if let Some(q) = *self.quota.lock() {
            let used = self.used_bytes.load(Ordering::SeqCst);
            if used + PAGE_SIZE as u64 > q {
                return Err(StorageError::NoSpace {
                    requested: PAGE_SIZE as u64,
                    available: q.saturating_sub(used),
                });
            }
        }
        Ok(())
    }

    /// The cost ledger charged by this manager.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Attach (or with `None`, detach) a fault injector. All subsequent
    /// I/O through this manager consults it; see [`crate::fault`].
    pub fn set_fault_injector(&self, fi: Option<Arc<FaultInjector>>) {
        let mut slot = self.fault.lock();
        self.fault_attached.store(fi.is_some(), Ordering::Release);
        *slot = fi;
    }

    /// The currently attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        if !self.fault_attached.load(Ordering::Acquire) {
            return None;
        }
        self.fault.lock().clone()
    }

    /// Consult the injector for one write event of `len` payload bytes
    /// against `target` (a file or sidecar name), classified as `kind`.
    /// A fault that fires here (not the dead-process echo after a halt)
    /// is journaled as a `FaultInjected` trace event.
    fn fault_write(&self, target: &str, kind: WriteKind, len: usize) -> Result<WriteOutcome> {
        match self.fault_injector() {
            None => Ok(WriteOutcome::Proceed),
            Some(fi) => self.consult_write(&fi, target, kind, len),
        }
    }

    /// [`Self::fault_write`] against page file `id`, whose label
    /// (`f<id>.qsr`) is built only when an injector is attached.
    fn fault_write_file(&self, id: FileId, kind: WriteKind, len: usize) -> Result<WriteOutcome> {
        match self.fault_injector() {
            None => Ok(WriteOutcome::Proceed),
            Some(fi) => self.consult_write(&fi, &format!("f{}.qsr", id.0), kind, len),
        }
    }

    fn consult_write(
        &self,
        fi: &FaultInjector,
        target: &str,
        kind: WriteKind,
        len: usize,
    ) -> Result<WriteOutcome> {
        let was_halted = fi.halted();
        let out = fi.before_write_at(Some((target, kind)), len);
        let label = match &out {
            Ok(WriteOutcome::Proceed) => None,
            Ok(WriteOutcome::TornPrefix(_)) => Some("torn-write"),
            Err(_) if was_halted => None,
            Err(e) if e.is_resource_pressure() => Some("nospace-write"),
            Err(e) if e.is_transient() => Some("transient-write"),
            Err(_) => Some("failed-write"),
        };
        if let Some(kind) = label {
            let ordinal = fi.writes_observed();
            self.ledger.trace(|| TraceEvent::FaultInjected {
                target: target.to_string(),
                kind,
                ordinal,
            });
        }
        out
    }

    /// Consult the injector for one read event of `len` payload bytes.
    /// Fired faults (bit flips, transient failures) are journaled like
    /// write faults.
    fn fault_read(&self, len: usize) -> Result<Option<usize>> {
        let Some(fi) = self.fault_injector() else {
            return Ok(None);
        };
        let was_halted = fi.halted();
        let out = fi.before_read(len);
        let label = match &out {
            Ok(None) => None,
            Ok(Some(_)) => Some("read-bit-flip"),
            Err(_) if was_halted => None,
            Err(e) if e.is_transient() => Some("transient-read"),
            Err(_) => Some("failed-read"),
        };
        if let Some(kind) = label {
            let ordinal = fi.reads_observed();
            self.ledger.trace(|| TraceEvent::FaultInjected {
                target: String::new(),
                kind,
                ordinal,
            });
        }
        out
    }

    /// Directory containing the files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, id: FileId) -> PathBuf {
        self.dir.join(format!("f{}.qsr", id.0))
    }

    /// Create a new empty file and return its id. Counts one write event.
    pub fn create_file(&self) -> Result<FileId> {
        // A torn create is indistinguishable from a crash: either the
        // directory entry exists or it does not. The label peeks the next
        // id (exact whenever creates are not racing each other, which
        // covers every recording test; ordering across racing creates is
        // scheduling-dependent anyway).
        let next = FileId(self.next_id.load(Ordering::SeqCst));
        if let WriteOutcome::TornPrefix(_) = self.fault_write_file(next, WriteKind::Create, 0)? {
            return Err(FaultInjector::halt_error());
        }
        let id = FileId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let path = self.path_for(id);
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.files
            .lock()
            .insert(id, Arc::new(OpenFile::new(file, 0)));
        Ok(id)
    }

    /// Fetch (lazily reopening if needed) the shared handle for `id`. The
    /// map lock is released before any I/O happens, so distinct files
    /// never serialize on each other.
    fn file_handle(&self, id: FileId) -> Result<Arc<OpenFile>> {
        let mut files = self.files.lock();
        if let Some(h) = files.get(&id) {
            return Ok(h.clone());
        }
        // Lazily reopen a file that exists on disk (e.g. after resume
        // in a fresh process over the same directory).
        let path = self.path_for(id);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|_| StorageError::NotFound(format!("{id} at {}", path.display())))?;
        let len = file.metadata()?.len();
        if len % PAGE_RECORD as u64 != 0 {
            return Err(StorageError::corrupt(format!(
                "{id} length {len} is not page-aligned"
            )));
        }
        let h = Arc::new(OpenFile::new(file, len / PAGE_RECORD as u64));
        files.insert(id, h.clone());
        Ok(h)
    }

    /// Number of pages currently in `id`.
    pub fn num_pages(&self, id: FileId) -> Result<u64> {
        Ok(self.file_handle(id)?.pages())
    }

    /// Read page `page_no` of file `id`. Charges one page read.
    ///
    /// The on-disk record's checksum trailer is verified against the
    /// payload *after* any injected bit flip, so media corruption of a page
    /// — unlike blobs and sidecars, pages carry raw tuple bytes with no
    /// framing of their own — surfaces as a typed [`StorageError`] instead
    /// of silently feeding garbage to a GoBack re-execution. The record is
    /// read straight into the page it is returned in.
    pub fn read_page(&self, id: FileId, page_no: u64) -> Result<Page> {
        let flip = self.fault_read(PAGE_SIZE)?;
        let of = self.file_handle(id)?;
        let pages = of.pages();
        if page_no >= pages {
            return Err(StorageError::invalid(format!(
                "read past end of {id}: page {page_no} of {pages}"
            )));
        }
        let mut page = Page::zeroed();
        let record = page.record_mut();
        of.read_record_at(record, page_no * PAGE_RECORD as u64)?;
        let stored = u64::from_le_bytes(record[PAGE_SIZE..].try_into().unwrap());
        if let Some(bit) = flip {
            fault::flip_bit(page.bytes_mut(), bit);
        }
        verify_checksum("page", page.bytes(), stored).map_err(|_| {
            StorageError::corrupt(format!("page checksum mismatch on page {page_no} of {id}"))
        })?;
        self.ledger.charge_read(1);
        Ok(page)
    }

    /// Write one page record (caller must hold the file's write lock).
    fn write_locked(
        &self,
        of: &OpenFile,
        id: FileId,
        page_no: u64,
        page: &Page,
        outcome: WriteOutcome,
    ) -> Result<()> {
        let pages = of.pages();
        if page_no > pages {
            return Err(StorageError::invalid(format!(
                "write would leave a hole in {id}: page {page_no} of {pages}"
            )));
        }
        let offset = page_no * PAGE_RECORD as u64;
        match outcome {
            WriteOutcome::Proceed => {
                let mut rec = Vec::with_capacity(PAGE_RECORD);
                rec.extend_from_slice(page.bytes());
                rec.extend_from_slice(&checksum(page.bytes()).to_le_bytes());
                of.write_record_at(&rec, offset)?;
                if page_no == pages {
                    // Release-publish the extension only after the record
                    // landed: lock-free readers bounds-check against this.
                    of.pages.store(pages + 1, Ordering::Release);
                }
                Ok(())
            }
            WriteOutcome::TornPrefix(keep) => {
                // Persist only the prefix that "hit the platter", make
                // it durable, and report the crash. The page count is
                // deliberately not updated: this handle is dead.
                of.write_record_at(&page.bytes()[..keep], offset)?;
                let _ = of.file.sync_all();
                Err(FaultInjector::halt_error())
            }
        }
    }

    /// Write page `page_no` of file `id` (must be ≤ current page count;
    /// writing at the count extends the file). Charges one page write.
    ///
    /// The ledger is charged *before* the quota check: a quota-rejected
    /// write was still attempted, and hiding it from `CacheStats` and the
    /// write-event record would make disk-pressure incidents invisible to
    /// exactly the accounting meant to diagnose them.
    pub fn write_page(&self, id: FileId, page_no: u64, page: &Page) -> Result<()> {
        let outcome = self.fault_write_file(id, WriteKind::Page, PAGE_SIZE)?;
        self.ledger.charge_write(1);
        let of = self.file_handle(id)?;
        let _g = of.write.lock();
        let extends = page_no == of.pages();
        if extends {
            self.check_quota_extend()?;
        }
        self.write_locked(&of, id, page_no, page, outcome)?;
        if extends {
            self.used_bytes.fetch_add(PAGE_SIZE as u64, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Append a page to file `id`, returning its page number. Atomic
    /// under the file's lock, so concurrent appenders cannot clobber each
    /// other's slot. Charges one page write (before the quota check; see
    /// [`DiskManager::write_page`]).
    pub fn append_page(&self, id: FileId, page: &Page) -> Result<u64> {
        let outcome = self.fault_write_file(id, WriteKind::Page, PAGE_SIZE)?;
        self.ledger.charge_write(1);
        let of = self.file_handle(id)?;
        let _g = of.write.lock();
        let page_no = of.pages();
        self.check_quota_extend()?;
        self.write_locked(&of, id, page_no, page, outcome)?;
        self.used_bytes.fetch_add(PAGE_SIZE as u64, Ordering::SeqCst);
        Ok(page_no)
    }

    /// Seal one page record for an extent append to `id`: stamp its
    /// checksum trailer, then do what [`Self::append_page`] does before it
    /// writes — consult the injector, charge one page write, reserve the
    /// page's quota — so an append-only stream written in extents keeps
    /// the write ordinals, charges and bytes of one written page by page.
    /// The record then waits in the caller's extent for
    /// [`Self::append_extent`]. On `TornPrefix(k)` that extent must end
    /// with the record's first `k` bytes; on an error the record is
    /// refused, and the records sealed before it still have to land.
    pub fn seal_page(&self, id: FileId, record: &mut [u8]) -> Result<WriteOutcome> {
        let (page, trailer) = record.split_at_mut(PAGE_SIZE);
        trailer.copy_from_slice(&checksum(page).to_le_bytes());
        let outcome = self.fault_write_file(id, WriteKind::Page, PAGE_SIZE)?;
        self.ledger.charge_write(1);
        self.check_quota_extend()?;
        if outcome == WriteOutcome::Proceed {
            self.used_bytes
                .fetch_add(PAGE_SIZE as u64, Ordering::SeqCst);
        }
        Ok(outcome)
    }

    /// Append page records sealed by [`Self::seal_page`] to `id` in one
    /// positioned write. Not an I/O event — each record was one when it
    /// was sealed — so it also runs in a halted process: the records were
    /// accepted before the crash. A trailing partial record is a torn
    /// page: it lands after the whole ones, the file is synced, and the
    /// call reports the crash, the page count not covering it.
    pub fn append_extent(&self, id: FileId, records: &[u8]) -> Result<()> {
        let of = self.file_handle(id)?;
        let _g = of.write.lock();
        let pages = of.pages();
        of.write_record_at(records, pages * PAGE_RECORD as u64)?;
        let whole = (records.len() / PAGE_RECORD) as u64;
        // Release-publish only after the records landed (see `write_locked`).
        of.pages.store(pages + whole, Ordering::Release);
        if !records.len().is_multiple_of(PAGE_RECORD) {
            let _ = of.file.sync_all();
            return Err(FaultInjector::halt_error());
        }
        Ok(())
    }

    /// Delete file `id` from disk, reclaiming its bytes from the quota.
    /// Counts one write event.
    pub fn delete_file(&self, id: FileId) -> Result<()> {
        if let WriteOutcome::TornPrefix(_) = self.fault_write_file(id, WriteKind::Delete, 0)? {
            return Err(FaultInjector::halt_error());
        }
        self.files.lock().remove(&id);
        let path = self.path_for(id);
        if path.exists() {
            let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            std::fs::remove_file(path)?;
            // Logical bytes of full records only — a torn trailing
            // fragment was never counted when it was written.
            let logical = (len / PAGE_RECORD as u64) * PAGE_SIZE as u64;
            let _ = self
                .used_bytes
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| {
                    Some(u.saturating_sub(logical))
                });
        }
        Ok(())
    }

    /// Flush file `id`'s data to stable storage (fsync). Not counted as an
    /// I/O event — the crash points on either side of it are the
    /// neighbouring writes — but refuses to run in a halted process.
    pub fn sync_file(&self, id: FileId) -> Result<()> {
        if let Some(fi) = self.fault_injector() {
            fi.check_alive()?;
        }
        self.file_handle(id)?.file.sync_all()?;
        self.file_syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Page files fsynced so far by [`Self::sync_file`] — blobs and run
    /// files alike; the sidecar commit's own fsyncs are not counted.
    pub fn file_syncs(&self) -> u64 {
        self.file_syncs.load(Ordering::Relaxed)
    }

    /// Truncate file `id` down to `pages` pages, discarding anything past
    /// that point. A no-op when the file is already that short. Used when
    /// a sealed run is reopened for appending: a crash (or rolled-back
    /// execution slice) after the seal can leave stale pages past the
    /// sealed watermark, and appending would otherwise land *after* them,
    /// splicing phantom tuples into the run. Not an I/O event — it only
    /// discards bytes that were never part of any committed state, and it
    /// is idempotent, so the crash points on either side are the
    /// neighbouring writes — but it refuses to run in a halted process.
    pub fn truncate_pages(&self, id: FileId, pages: u64) -> Result<()> {
        if let Some(fi) = self.fault_injector() {
            fi.check_alive()?;
        }
        let of = self.file_handle(id)?;
        let _g = of.write.lock();
        let current = of.pages();
        if current <= pages {
            return Ok(());
        }
        let dropped = (current - pages) * PAGE_SIZE as u64;
        of.file.set_len(pages * PAGE_RECORD as u64)?;
        of.pages.store(pages, Ordering::Release);
        let _ = self
            .used_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |u| {
                Some(u.saturating_sub(dropped))
            });
        Ok(())
    }

    /// Drop the in-memory handle for `id` (the file stays on disk and can
    /// be reopened lazily). Used when a suspended query releases memory.
    pub fn release_handle(&self, id: FileId) {
        self.files.lock().remove(&id);
    }

    fn sidecar_path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Atomically replace sidecar file `name` (a small named file next to
    /// the page files — e.g. the suspend manifest) with `bytes`:
    /// write `<name>.tmp` → fsync → rename over `name` → fsync directory.
    ///
    /// Counts **two** write events — the tmp-file write and the rename —
    /// so the crash matrix exercises both halves of the commit protocol.
    /// A crash before the rename leaves the previous `name` intact; the
    /// rename itself is atomic, so there is no state in which `name`
    /// holds a mix of old and new bytes.
    pub fn write_sidecar_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let dst = self.sidecar_path(name);

        // Event 1: the tmp-file write (can be torn).
        let outcome = self.fault_write(name, WriteKind::SidecarWrite, bytes.len())?;
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        match outcome {
            WriteOutcome::Proceed => {
                f.write_all(bytes)?;
                f.sync_all()?;
            }
            WriteOutcome::TornPrefix(keep) => {
                f.write_all(&bytes[..keep])?;
                let _ = f.sync_all();
                return Err(FaultInjector::halt_error());
            }
        }
        drop(f);

        // Event 2: the rename. Atomic, so a torn rename is just a crash.
        if let WriteOutcome::TornPrefix(_) = self.fault_write(name, WriteKind::SidecarRename, 0)? {
            return Err(FaultInjector::halt_error());
        }
        std::fs::rename(&tmp, &dst)?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Read sidecar file `name`. `Ok(None)` when it does not exist.
    /// Counts one read event (with bit-flip injection applied).
    pub fn read_sidecar(&self, name: &str) -> Result<Option<Vec<u8>>> {
        if let Some(fi) = self.fault_injector() {
            fi.check_alive()?;
        }
        let path = self.sidecar_path(name);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        if let Some(bit) = self.fault_read(bytes.len())? {
            fault::flip_bit(&mut bytes, bit);
        }
        Ok(Some(bytes))
    }

    /// Names of sidecar files starting with `prefix`, sorted. Directory
    /// enumeration is metadata I/O like the page-file numbering scan at
    /// open: it is not a faultable ledger event (the per-file sidecar
    /// reads that follow are). `.tmp` leftovers of interrupted atomic
    /// commits are skipped — they were never committed.
    pub fn list_sidecars(&self, prefix: &str) -> Result<Vec<String>> {
        if let Some(fi) = self.fault_injector() {
            fi.check_alive()?;
        }
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(prefix) && !name.ends_with(".tmp") {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Remove sidecar file `name` if present. Counts one write event.
    pub fn remove_sidecar(&self, name: &str) -> Result<()> {
        if let WriteOutcome::TornPrefix(_) = self.fault_write(name, WriteKind::SidecarRemove, 0)? {
            return Err(FaultInjector::halt_error());
        }
        let path = self.sidecar_path(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

impl std::fmt::Debug for DiskManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskManager")
            .field("dir", &self.dir)
            .field("open_files", &self.files.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, Phase};

    fn mgr() -> (tempdir::TempDir, DiskManager) {
        let dir = tempdir::TempDir::new();
        let m = DiskManager::open(dir.path(), CostLedger::new(CostModel::symmetric(1.0))).unwrap();
        (dir, m)
    }

    /// Minimal self-contained temp dir (avoids an external dependency).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        static N: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new() -> Self {
                let p = std::env::temp_dir().join(format!(
                    "qsr-disk-test-{}-{}",
                    std::process::id(),
                    N.fetch_add(1, Ordering::SeqCst)
                ));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn write_read_roundtrip_and_charges() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let mut p = Page::zeroed();
        p.write_u32(0, 777);
        m.append_page(f, &p).unwrap();
        let r = m.read_page(f, 0).unwrap();
        assert_eq!(r.read_u32(0), 777);

        let snap = m.ledger().snapshot();
        assert_eq!(snap.phase(Phase::Execute).pages_written, 1);
        assert_eq!(snap.phase(Phase::Execute).pages_read, 1);
    }

    #[test]
    fn read_past_end_is_error() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        assert!(m.read_page(f, 0).is_err());
    }

    #[test]
    fn write_hole_is_error() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        assert!(m.write_page(f, 5, &Page::zeroed()).is_err());
    }

    #[test]
    fn overwrite_does_not_grow_file() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.append_page(f, &Page::zeroed()).unwrap();
        m.write_page(f, 0, &Page::zeroed()).unwrap();
        assert_eq!(m.num_pages(f).unwrap(), 1);
    }

    #[test]
    fn files_survive_handle_release() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let mut p = Page::zeroed();
        p.write_u16(4, 99);
        m.append_page(f, &p).unwrap();
        m.release_handle(f);
        assert_eq!(m.read_page(f, 0).unwrap().read_u16(4), 99);
    }

    #[test]
    fn numbering_continues_after_reopen() {
        let d = tempdir::TempDir::new();
        let id0;
        {
            let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
            id0 = m.create_file().unwrap();
            m.append_page(id0, &Page::zeroed()).unwrap();
        }
        let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
        let id1 = m.create_file().unwrap();
        assert!(id1.0 > id0.0, "new ids must not clobber existing files");
        assert_eq!(m.num_pages(id0).unwrap(), 1);
    }

    #[test]
    fn numbering_ignores_sidecars_and_stray_files() {
        let d = tempdir::TempDir::new();
        let id0;
        {
            let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
            id0 = m.create_file().unwrap();
            m.append_page(id0, &Page::zeroed()).unwrap();
        }
        // Files that must not participate in numbering: sidecars, tmp
        // leftovers, and lookalikes such as `f9.tmp` (not file 9).
        for junk in [
            "SUSPEND.manifest",
            "SUSPEND.manifest.tmp",
            "f9.tmp",
            "f9.qsr.tmp",
            "fabc.qsr",
            "f.qsr",
            "catalog.bin",
        ] {
            std::fs::write(d.path().join(junk), b"junk").unwrap();
        }
        let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
        let id1 = m.create_file().unwrap();
        assert_eq!(id1.0, id0.0 + 1, "junk files must not inflate next_id");
        assert_eq!(m.num_pages(id0).unwrap(), 1, "real file still readable");
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the writers under test run on threads
    fn parallel_writes_to_distinct_files_land_intact() {
        let (_d, m) = mgr();
        let m = std::sync::Arc::new(m);
        let ids: Vec<FileId> = (0..4).map(|_| m.create_file().unwrap()).collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..20u32 {
                        let mut p = Page::zeroed();
                        p.write_u32(0, id.0 as u32 * 1000 + i);
                        m.append_page(id, &p).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for &id in &ids {
            assert_eq!(m.num_pages(id).unwrap(), 20);
            for i in 0..20u32 {
                assert_eq!(
                    m.read_page(id, i as u64).unwrap().read_u32(0),
                    id.0 as u32 * 1000 + i
                );
            }
        }
        let snap = m.ledger().snapshot();
        assert_eq!(snap.phase(Phase::Execute).pages_written, 80);
    }

    #[test]
    fn delete_removes_file() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.append_page(f, &Page::zeroed()).unwrap();
        m.delete_file(f).unwrap();
        assert!(m.read_page(f, 0).is_err());
    }

    #[test]
    fn injected_crash_kills_manager_until_cleared() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let fi = std::sync::Arc::new(crate::fault::FaultInjector::new());
        m.set_fault_injector(Some(fi.clone()));
        // Event 1 is the page write below.
        fi.fail_write(1, crate::fault::WriteFault::Crash);
        assert!(m.append_page(f, &Page::zeroed()).is_err());
        assert!(fi.halted());
        assert!(m.create_file().is_err(), "all I/O dead after crash");
        m.set_fault_injector(None);
        m.append_page(f, &Page::zeroed()).unwrap();
    }

    #[test]
    fn torn_page_write_leaves_unaligned_file() {
        let d = tempdir::TempDir::new();
        let f;
        {
            let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
            f = m.create_file().unwrap();
            m.append_page(f, &Page::zeroed()).unwrap();
            let fi = std::sync::Arc::new(crate::fault::FaultInjector::seeded(3));
            m.set_fault_injector(Some(fi));
            m.fault_injector()
                .unwrap()
                .fail_write(1, crate::fault::WriteFault::Torn);
            assert!(m.append_page(f, &Page::zeroed()).is_err());
        }
        // A fresh manager (the "restarted process") sees a corrupt file.
        let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
        let err = m.read_page(f, 0).unwrap_err();
        assert!(err.is_corruption(), "{err}");
    }

    #[test]
    fn read_bit_flip_corrupts_exactly_one_bit() {
        // The flip is one-shot and the record trailer catches it: the
        // faulted read fails typed, the next read sees the clean page.
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.append_page(f, &Page::zeroed()).unwrap();
        let fi = std::sync::Arc::new(crate::fault::FaultInjector::seeded(9));
        m.set_fault_injector(Some(fi.clone()));
        fi.flip_read_bit(1);
        let err = m.read_page(f, 0).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        let clean = m.read_page(f, 0).unwrap();
        assert!(clean.bytes().iter().all(|&b| b == 0), "flip was one-shot");
    }

    #[test]
    fn sidecar_commit_is_atomic_under_crashes() {
        let (_d, m) = mgr();
        m.write_sidecar_atomic("MANIFEST", b"generation-1").unwrap();
        assert_eq!(
            m.read_sidecar("MANIFEST").unwrap().as_deref(),
            Some(&b"generation-1"[..])
        );

        let fi = std::sync::Arc::new(crate::fault::FaultInjector::new());
        m.set_fault_injector(Some(fi.clone()));

        // Crash during the tmp write: old contents survive.
        fi.fail_write(1, crate::fault::WriteFault::Crash);
        assert!(m.write_sidecar_atomic("MANIFEST", b"generation-2").is_err());
        fi.clear();
        assert_eq!(
            m.read_sidecar("MANIFEST").unwrap().as_deref(),
            Some(&b"generation-1"[..])
        );

        // Torn tmp write: old contents still survive (tmp never renamed).
        fi.fail_write(1, crate::fault::WriteFault::Torn);
        assert!(m.write_sidecar_atomic("MANIFEST", b"generation-2").is_err());
        fi.clear();
        assert_eq!(
            m.read_sidecar("MANIFEST").unwrap().as_deref(),
            Some(&b"generation-1"[..])
        );

        // Crash at the rename: old contents survive.
        fi.fail_write(2, crate::fault::WriteFault::Crash);
        assert!(m.write_sidecar_atomic("MANIFEST", b"generation-2").is_err());
        fi.clear();
        assert_eq!(
            m.read_sidecar("MANIFEST").unwrap().as_deref(),
            Some(&b"generation-1"[..])
        );

        // No fault: the swap happens.
        m.write_sidecar_atomic("MANIFEST", b"generation-2").unwrap();
        assert_eq!(
            m.read_sidecar("MANIFEST").unwrap().as_deref(),
            Some(&b"generation-2"[..])
        );

        m.remove_sidecar("MANIFEST").unwrap();
        assert_eq!(m.read_sidecar("MANIFEST").unwrap(), None);
        m.remove_sidecar("MANIFEST").unwrap();
    }

    #[test]
    fn transient_write_fails_once_then_succeeds_on_retry() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let fi = std::sync::Arc::new(crate::fault::FaultInjector::new());
        m.set_fault_injector(Some(fi.clone()));
        fi.fail_write(1, crate::fault::WriteFault::Transient(1));
        let err = m.append_page(f, &Page::zeroed()).unwrap_err();
        assert!(err.is_transient(), "{err}");
        m.append_page(f, &Page::zeroed()).unwrap();
        assert_eq!(m.num_pages(f).unwrap(), 1);
    }

    #[test]
    fn flipped_page_read_fails_with_typed_corruption() {
        // Pages carry raw tuple bytes with no framing of their own, so the
        // record trailer is the only thing standing between a media bit
        // flip and silently wrong query output (the oracle caught exactly
        // this on a GoBack resume re-reading heap pages).
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        m.append_page(f, &p).unwrap();
        let fi = std::sync::Arc::new(crate::fault::FaultInjector::new());
        m.set_fault_injector(Some(fi.clone()));
        fi.flip_read_bit(1);
        let err = m.read_page(f, 0).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt(_)),
            "expected Corrupt, got {err}"
        );
        assert!(!err.is_transient(), "corruption must not retry");
        // The flip was in-memory only: a clean reread sees the real page.
        m.set_fault_injector(None);
        assert_eq!(m.read_page(f, 0).unwrap().read_u32(0), 42);
    }

    #[test]
    fn torn_overwrite_is_detected_on_later_read() {
        // A torn overwrite splices a new-prefix/old-suffix frankenpage
        // under the *old* trailer; the next read must reject it instead
        // of decoding the splice.
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        m.append_page(f, &p).unwrap();
        let fi = std::sync::Arc::new(crate::fault::FaultInjector::new());
        m.set_fault_injector(Some(fi.clone()));
        fi.fail_write(1, crate::fault::WriteFault::Torn);
        let mut q = Page::zeroed();
        q.write_u32(0, 7);
        assert!(m.write_page(f, 0, &q).is_err(), "torn write halts");
        fi.clear();
        let err = m.read_page(f, 0).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt(_)),
            "expected Corrupt, got {err}"
        );
    }

    #[test]
    fn quota_rejects_extending_write_with_typed_nospace() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.set_quota(Some(PAGE_SIZE as u64));
        m.append_page(f, &Page::zeroed()).unwrap();
        assert_eq!(m.used_bytes(), PAGE_SIZE as u64);
        let err = m.append_page(f, &Page::zeroed()).unwrap_err();
        match err {
            StorageError::NoSpace { available, .. } => assert_eq!(available, 0),
            other => panic!("expected NoSpace, got {other}"),
        }
        assert_eq!(m.num_pages(f).unwrap(), 1, "rejected write left no page");
    }

    #[test]
    fn quota_permits_overwrites_of_existing_pages() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.append_page(f, &Page::zeroed()).unwrap();
        m.set_quota(Some(PAGE_SIZE as u64)); // exactly full
        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        m.write_page(f, 0, &p).unwrap();
        assert_eq!(m.read_page(f, 0).unwrap().read_u32(0), 42);
    }

    #[test]
    fn quota_exempts_sidecars_so_commit_protocol_survives_full_disk() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.set_quota(Some(PAGE_SIZE as u64));
        m.append_page(f, &Page::zeroed()).unwrap();
        // Disk is at quota; the manifest commit path must still work.
        m.write_sidecar_atomic("SUSPEND.manifest", b"gen-1").unwrap();
        assert_eq!(
            m.read_sidecar("SUSPEND.manifest").unwrap().as_deref(),
            Some(&b"gen-1"[..])
        );
    }

    #[test]
    fn delete_reclaims_quota() {
        let (_d, m) = mgr();
        let a = m.create_file().unwrap();
        m.set_quota(Some(PAGE_SIZE as u64));
        m.append_page(a, &Page::zeroed()).unwrap();
        let b = m.create_file().unwrap();
        assert!(m.append_page(b, &Page::zeroed()).is_err(), "disk full");
        m.delete_file(a).unwrap();
        assert_eq!(m.used_bytes(), 0);
        m.append_page(b, &Page::zeroed()).unwrap();
    }

    #[test]
    fn used_bytes_rescanned_on_reopen() {
        let d = tempdir::TempDir::new();
        let f;
        {
            let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
            f = m.create_file().unwrap();
            m.append_page(f, &Page::zeroed()).unwrap();
            m.append_page(f, &Page::zeroed()).unwrap();
        }
        let m = DiskManager::open(d.path(), CostLedger::default()).unwrap();
        assert_eq!(m.used_bytes(), 2 * PAGE_SIZE as u64);
        m.set_quota(Some(2 * PAGE_SIZE as u64));
        assert!(m.append_page(f, &Page::zeroed()).is_err());
    }

    #[test]
    fn quota_rejected_write_is_still_charged_to_the_ledger() {
        let (_d, m) = mgr();
        let f = m.create_file().unwrap();
        m.set_quota(Some(0));
        assert!(m.append_page(f, &Page::zeroed()).is_err());
        let snap = m.ledger().snapshot();
        assert_eq!(
            snap.phase(Phase::Execute).pages_written,
            1,
            "a quota-rejected write must still show up in accounting"
        );
    }
}
