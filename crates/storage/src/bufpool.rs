//! Shared buffer pool: a fixed-capacity frame table over [`DiskManager`]
//! pages with strict-LRU eviction and dirty-page write-back.
//!
//! Every page consumer in the engine — heap scans, sort runs, hash-join
//! partitions, index pages, dump blobs — goes through a [`BufferPool`]
//! instead of the raw disk manager. I/O cost is charged to the
//! [`CostLedger`](crate::cost::CostLedger) only on *actual* disk traffic:
//! a cache hit costs nothing, a miss charges one page read, and a dirty
//! write-back charges one page write. Hit/miss/eviction/write-back counts
//! are folded into the same ledger via
//! [`CostLedger::note_cache`](crate::cost::CostLedger::note_cache), so
//! cache effectiveness is visible in the snapshots the paper's experiments
//! already read.
//!
//! # Capacity 0 = passthrough
//!
//! A pool with capacity 0 is a pure passthrough: every call delegates
//! directly to the [`DiskManager`] without touching the frame table, so
//! the charged I/O counts — and, under the fault injector, the exact
//! sequence of write/read event ordinals — are bit-for-bit identical to
//! the pre-pool engine. Experiment figures default to this mode for paper
//! fidelity (`DESIGN.md` §11).
//!
//! # Frame table
//!
//! No operation but [`BufferPool::flush_all`] does work proportional to
//! the pool's capacity (`DESIGN.md` §11 has the per-operation table):
//!
//! * resident frames live in a dense slab threaded by an intrusive
//!   doubly-linked list in recency order, so a touch is a constant-time
//!   move to the back and the eviction victim is the list head — the
//!   frame whose last touch is oldest, which is strict LRU;
//! * `index` maps `(file, page)` to the frame's slab slot in key order,
//!   so one file's frames are a contiguous range in page order;
//! * `dirty` holds the keys of the frames the disk has not seen, in the
//!   same order, so a flush walks exactly the pages it writes.
//!
//! One mutex covers all three plus the logical file sizes.
//!
//! # Write buffering and flush ordering
//!
//! With capacity > 0, `write_page`/`append_page` buffer into the frame
//! table (marking the frame dirty) and defer the disk write. The pool
//! tracks each file's *logical* page count (`sizes`), which includes
//! buffered appends the disk has not seen yet. Because
//! [`DiskManager::write_page`] refuses writes that would leave a hole,
//! dirty frames of a file are always written back in ascending page
//! order; evicting a dirty frame first flushes every lower-numbered dirty
//! frame of the same file. [`BufferPool::sync_file`] flushes all dirty
//! frames of the file before fsyncing, so the suspend commit protocol's
//! "everything durable before the manifest rename" invariant holds
//! whether or not pages were cached.

use crate::disk::{DiskManager, FileId};
use crate::error::{Result, StorageError};
use crate::page::Page;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Bound, RangeInclusive};
use std::sync::Arc;

type Key = (FileId, u64);

/// "No frame" in the recency list's links.
const NIL: usize = usize::MAX;

/// Every possible key of `id` from page `from` on.
fn pages_from(id: FileId, from: u64) -> RangeInclusive<Key> {
    (id, from)..=(id, u64::MAX)
}

struct Frame {
    key: Key,
    page: Arc<Page>,
    /// Neighbours in the recency list (slab slots, or [`NIL`]).
    prev: usize,
    next: usize,
}

struct Inner {
    /// Resident frames, dense: `slab.len()` is the resident count.
    slab: Vec<Frame>,
    /// Least and most recently touched frame ([`NIL`] when empty).
    head: usize,
    tail: usize,
    /// Slab slot of every resident frame, in `(file, page)` order.
    index: BTreeMap<Key, usize>,
    /// Keys of the resident frames the disk has not seen yet.
    dirty: BTreeSet<Key>,
    /// Logical page count per file, including buffered (dirty) appends
    /// the disk has not seen yet. Populated lazily from the disk manager.
    sizes: HashMap<FileId, u64>,
}

impl Inner {
    fn unlink(&mut self, slot: usize) {
        let Frame { prev, next, .. } = self.slab[slot];
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    /// Point the neighbours of `slot` — or the ends of the list — at it.
    fn attach(&mut self, slot: usize) {
        let Frame { prev, next, .. } = self.slab[slot];
        match prev {
            NIL => self.head = slot,
            p => self.slab[p].next = slot,
        }
        match next {
            NIL => self.tail = slot,
            n => self.slab[n].prev = slot,
        }
    }

    /// Make `slot` the most recently used frame.
    fn touch(&mut self, slot: usize) {
        if self.tail != slot {
            self.unlink(slot);
            (self.slab[slot].prev, self.slab[slot].next) = (self.tail, NIL);
            self.attach(slot);
        }
    }

    /// Add a frame as the most recently used one.
    fn insert(&mut self, key: Key, page: Arc<Page>, dirty: bool) {
        let slot = self.slab.len();
        self.slab.push(Frame {
            key,
            page,
            prev: self.tail,
            next: NIL,
        });
        self.attach(slot);
        self.index.insert(key, slot);
        if dirty {
            self.dirty.insert(key);
        }
    }

    /// Drop the frame in `slot`, dirty or not. The slab stays dense: its
    /// last frame moves into the hole and is re-attached under that slot.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let gone = self.slab.swap_remove(slot);
        self.index.remove(&gone.key);
        self.dirty.remove(&gone.key);
        if slot < self.slab.len() {
            self.attach(slot);
            self.index.insert(self.slab[slot].key, slot);
        }
    }

    /// Drop every frame whose key lies in `keys`.
    fn remove_range(&mut self, keys: RangeInclusive<Key>) {
        while let Some((_, &slot)) = self.index.range(keys.clone()).next() {
            self.remove(slot);
        }
    }
}

/// A shared page cache over a [`DiskManager`]. See the module docs.
pub struct BufferPool {
    dm: Arc<DiskManager>,
    capacity: usize,
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Create a pool holding at most `capacity` frames. Capacity 0 makes
    /// every operation a direct passthrough to the disk manager.
    pub fn new(dm: Arc<DiskManager>, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            dm,
            capacity,
            inner: Mutex::new(Inner {
                slab: Vec::new(),
                head: NIL,
                tail: NIL,
                index: BTreeMap::new(),
                dirty: BTreeSet::new(),
                sizes: HashMap::new(),
            }),
        })
    }

    /// A capacity-0 pool: no caching, identical I/O charging to the raw
    /// disk manager.
    pub fn passthrough(dm: Arc<DiskManager>) -> Arc<Self> {
        Self::new(dm, 0)
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.dm
    }

    /// Frame capacity (0 = passthrough).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frames currently cached (for tests/introspection).
    pub fn cached_frames(&self) -> usize {
        self.inner.lock().slab.len()
    }

    /// Whether `(file, page_no)` is currently cached.
    pub fn is_cached(&self, file: FileId, page_no: u64) -> bool {
        self.inner.lock().index.contains_key(&(file, page_no))
    }

    /// Create a new empty file. Delegates to the disk manager; registers
    /// a logical size of zero so buffered appends count from the start.
    pub fn create_file(&self) -> Result<FileId> {
        let id = self.dm.create_file()?;
        if self.capacity > 0 {
            self.inner.lock().sizes.insert(id, 0);
        }
        Ok(id)
    }

    /// Delete a file, dropping any cached frames (dirty ones included —
    /// the data is going away).
    pub fn delete_file(&self, id: FileId) -> Result<()> {
        if self.capacity > 0 {
            let mut g = self.inner.lock();
            g.remove_range(pages_from(id, 0));
            g.sizes.remove(&id);
        }
        self.dm.delete_file(id)
    }

    /// Truncate `id` down to `pages` pages: cached frames past the
    /// boundary are dropped (dirty ones included — the data is being
    /// discarded) and the disk file shrinks to match. See
    /// [`DiskManager::truncate_pages`].
    pub fn truncate_file(&self, id: FileId, pages: u64) -> Result<()> {
        if self.capacity > 0 {
            let mut g = self.inner.lock();
            g.remove_range(pages_from(id, pages));
            let size = self.logical_size(&mut g, id)?;
            if size > pages {
                g.sizes.insert(id, pages);
            }
        }
        self.dm.truncate_pages(id, pages)
    }

    /// Logical number of pages in `id`, including buffered appends.
    pub fn num_pages(&self, id: FileId) -> Result<u64> {
        if self.capacity == 0 {
            return self.dm.num_pages(id);
        }
        let mut g = self.inner.lock();
        self.logical_size(&mut g, id)
    }

    fn logical_size(&self, g: &mut Inner, id: FileId) -> Result<u64> {
        if let Some(&n) = g.sizes.get(&id) {
            return Ok(n);
        }
        let n = self.dm.num_pages(id)?;
        g.sizes.insert(id, n);
        Ok(n)
    }

    /// Read a page: a cache hit returns the shared frame without disk
    /// traffic; a miss charges one page read and populates a frame.
    pub fn read_page(&self, id: FileId, page_no: u64) -> Result<Arc<Page>> {
        if self.capacity == 0 {
            return Ok(Arc::new(self.dm.read_page(id, page_no)?));
        }
        let mut g = self.inner.lock();
        if let Some(&slot) = g.index.get(&(id, page_no)) {
            g.touch(slot);
            self.dm.ledger().note_cache(1, 0, 0, 0);
            return Ok(g.slab[slot].page.clone());
        }
        let size = self.logical_size(&mut g, id)?;
        if page_no >= size {
            return Err(StorageError::invalid(format!(
                "read past end of {id}: page {page_no} of {size}"
            )));
        }
        let page = Arc::new(self.dm.read_page(id, page_no)?);
        self.dm.ledger().note_cache(0, 1, 0, 0);
        self.install(&mut g, id, page_no, page.clone(), false)?;
        Ok(page)
    }

    /// Write a page: buffered in the frame table (dirty) when caching,
    /// direct disk write in passthrough mode. Writing at the logical page
    /// count extends the file, mirroring [`DiskManager::write_page`].
    pub fn write_page(&self, id: FileId, page_no: u64, page: &Page) -> Result<()> {
        if self.capacity == 0 {
            return self.dm.write_page(id, page_no, page);
        }
        let mut g = self.inner.lock();
        let size = self.logical_size(&mut g, id)?;
        if page_no > size {
            return Err(StorageError::invalid(format!(
                "write would leave a hole in {id}: page {page_no} of {size}"
            )));
        }
        if let Some(&slot) = g.index.get(&(id, page_no)) {
            g.slab[slot].page = Arc::new(page.clone());
            g.dirty.insert((id, page_no));
            g.touch(slot);
            return Ok(());
        }
        self.install(&mut g, id, page_no, Arc::new(page.clone()), true)?;
        if page_no == size {
            g.sizes.insert(id, size + 1);
        }
        Ok(())
    }

    /// Append a page, returning its page number. Atomic under the pool
    /// lock, so concurrent appenders to one file cannot interleave.
    pub fn append_page(&self, id: FileId, page: &Page) -> Result<u64> {
        if self.capacity == 0 {
            return self.dm.append_page(id, page);
        }
        let mut g = self.inner.lock();
        let page_no = self.logical_size(&mut g, id)?;
        // The file grows only once its new page has a frame: a refused
        // victim write-back must leave no logical page without one, or the
        // caller's retry would append past a hole.
        self.install(&mut g, id, page_no, Arc::new(page.clone()), true)?;
        g.sizes.insert(id, page_no + 1);
        Ok(page_no)
    }

    /// Insert a frame as the most recently used one, first evicting the
    /// least recently used frame if the pool is full.
    fn install(
        &self,
        g: &mut Inner,
        id: FileId,
        page_no: u64,
        page: Arc<Page>,
        dirty: bool,
    ) -> Result<()> {
        if g.slab.len() >= self.capacity {
            let victim = g.head;
            let (vf, vp) = g.slab[victim].key;
            let vdirty = g.dirty.contains(&(vf, vp));
            if vdirty {
                self.flush_locked(g, vf, Some(vp))?;
            }
            g.remove(victim);
            self.dm.ledger().note_cache(0, 0, 1, 0);
            self.dm.ledger().trace(|| crate::trace::TraceEvent::PoolEvict {
                file: vf.0,
                page: vp,
                dirty: vdirty,
            });
        }
        g.insert((id, page_no), page, dirty);
        Ok(())
    }

    /// Write back dirty frames of `id` with page number ≤ `up_to` (all of
    /// them when `None`), in ascending page order so the disk manager
    /// never sees a hole. Frames stay cached, now clean. Returns the
    /// number of pages written back.
    fn flush_locked(&self, g: &mut Inner, id: FileId, up_to: Option<u64>) -> Result<u64> {
        let keys = (id, 0)..=(id, up_to.unwrap_or(u64::MAX));
        let mut written = 0u64;
        while let Some(&key) = g.dirty.range(keys.clone()).next() {
            self.dm.write_page(id, key.1, &g.slab[g.index[&key]].page)?;
            g.dirty.remove(&key);
            written += 1;
        }
        if written > 0 {
            self.dm.ledger().note_cache(0, 0, 0, written);
            self.dm.ledger().trace(|| crate::trace::TraceEvent::PoolWriteBack {
                file: id.0,
                pages: written,
            });
        }
        Ok(written)
    }

    /// Write back all dirty frames of `id` (charged as page writes).
    pub fn flush_file(&self, id: FileId) -> Result<u64> {
        if self.capacity == 0 {
            return Ok(0);
        }
        let mut g = self.inner.lock();
        self.flush_locked(&mut g, id, None)
    }

    /// Write back every dirty frame in the pool, file by file in
    /// ascending page order. Returns total pages written back.
    pub fn flush_all(&self) -> Result<u64> {
        if self.capacity == 0 {
            return Ok(0);
        }
        let mut g = self.inner.lock();
        let mut written = 0;
        // Each round leaves its file with no dirty frame (or fails), so
        // the first dirty key moves on to the next file.
        while let Some(&(id, _)) = g.dirty.first() {
            written += self.flush_locked(&mut g, id, None)?;
        }
        Ok(written)
    }

    /// Files that currently hold dirty frames (for overlapped flushing).
    pub fn dirty_files(&self) -> Vec<FileId> {
        if self.capacity == 0 {
            return Vec::new();
        }
        let g = self.inner.lock();
        let mut files = Vec::new();
        let mut after = Bound::Unbounded;
        while let Some(&(id, _)) = g.dirty.range((after, Bound::Unbounded)).next() {
            files.push(id);
            after = Bound::Excluded((id, u64::MAX));
        }
        files
    }

    /// Flush dirty frames of `id`, then fsync it. This is the call the
    /// suspend commit protocol makes for every dump blob before the
    /// manifest rename.
    pub fn sync_file(&self, id: FileId) -> Result<()> {
        self.flush_file(id)?;
        self.dm.sync_file(id)
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("frames", &g.slab.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostLedger, CostModel, Phase};
    use proptest::prelude::*;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-bufpool-test-{}-{}",
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

    fn pool(capacity: usize) -> (TempDir, Arc<BufferPool>) {
        let d = TempDir::new();
        let dm = Arc::new(
            DiskManager::open(&d.0, CostLedger::new(CostModel::symmetric(1.0))).unwrap(),
        );
        (d, BufferPool::new(dm, capacity))
    }

    fn stamped(v: u32) -> Page {
        let mut p = Page::zeroed();
        p.write_u32(0, v);
        p
    }

    #[test]
    fn repeated_reads_charge_once() {
        let (_d, pool) = pool(8);
        let f = pool.create_file().unwrap();
        for i in 0..4 {
            pool.append_page(f, &stamped(i)).unwrap();
        }
        pool.flush_file(f).unwrap();
        let before = pool.disk().ledger().snapshot();
        for _ in 0..10 {
            for i in 0..4 {
                assert_eq!(pool.read_page(f, i).unwrap().read_u32(0), i as u32);
            }
        }
        let delta = pool.disk().ledger().snapshot().since(&before);
        // All four pages were already resident (installed dirty by the
        // appends, still cached after the flush): zero charged reads.
        assert_eq!(delta.total_pages_read(), 0);
        assert_eq!(delta.cache.hits, 40);
        assert_eq!(delta.cache.misses, 0);
    }

    #[test]
    fn passthrough_charges_every_read() {
        let (_d, pool) = pool(0);
        let f = pool.create_file().unwrap();
        pool.append_page(f, &stamped(7)).unwrap();
        let before = pool.disk().ledger().snapshot();
        for _ in 0..5 {
            assert_eq!(pool.read_page(f, 0).unwrap().read_u32(0), 7);
        }
        let delta = pool.disk().ledger().snapshot().since(&before);
        assert_eq!(delta.total_pages_read(), 5);
        assert_eq!(delta.cache, Default::default());
    }

    #[test]
    fn buffered_appends_flush_in_order_and_charge_on_flush() {
        let (_d, pool) = pool(16);
        let f = pool.create_file().unwrap();
        let before = pool.disk().ledger().snapshot();
        for i in 0..5 {
            assert_eq!(pool.append_page(f, &stamped(i)).unwrap(), i as u64);
        }
        assert_eq!(pool.num_pages(f).unwrap(), 5);
        let mid = pool.disk().ledger().snapshot().since(&before);
        assert_eq!(mid.phase(Phase::Execute).pages_written, 0, "buffered");
        assert_eq!(pool.disk().num_pages(f).unwrap(), 0, "disk unaware");

        pool.sync_file(f).unwrap();
        let after = pool.disk().ledger().snapshot().since(&before);
        assert_eq!(after.phase(Phase::Execute).pages_written, 5);
        assert_eq!(after.cache.write_backs, 5);
        assert_eq!(pool.disk().num_pages(f).unwrap(), 5);
        for i in 0..5 {
            assert_eq!(pool.disk().read_page(f, i).unwrap().read_u32(0), i as u32);
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let (_d, pool) = pool(3);
        let f = pool.create_file().unwrap();
        for i in 0..4 {
            pool.append_page(f, &stamped(i)).unwrap();
        }
        pool.flush_file(f).unwrap();
        // Page 3 was appended last, so with capacity 3 page 0 is gone.
        // Re-touch in order 1, 2, 3 then read 0: the miss evicts 1.
        for p in [1u64, 2, 3] {
            pool.read_page(f, p).unwrap();
        }
        pool.read_page(f, 0).unwrap();
        assert!(!pool.is_cached(f, 1), "LRU frame evicted");
        assert!(pool.is_cached(f, 2));
        assert!(pool.is_cached(f, 3));
        assert!(pool.is_cached(f, 0));
    }

    #[test]
    fn dirty_eviction_writes_back_lower_pages_first() {
        // Capacity 2 with 3 buffered appends forces eviction of a dirty
        // appended frame whose lower-numbered neighbours are also dirty;
        // the ordered flush must prevent a "hole" write.
        let (_d, pool) = pool(2);
        let f = pool.create_file().unwrap();
        for i in 0..3 {
            pool.append_page(f, &stamped(i)).unwrap();
        }
        pool.flush_file(f).unwrap();
        pool.disk().sync_file(f).unwrap();
        for i in 0..3 {
            assert_eq!(pool.disk().read_page(f, i).unwrap().read_u32(0), i as u32);
        }
    }

    #[test]
    fn overwrite_through_pool_is_visible_after_flush() {
        let (_d, pool) = pool(4);
        let f = pool.create_file().unwrap();
        pool.append_page(f, &stamped(1)).unwrap();
        pool.flush_file(f).unwrap();
        pool.write_page(f, 0, &stamped(99)).unwrap();
        // Cached view updated immediately; disk only after flush.
        assert_eq!(pool.read_page(f, 0).unwrap().read_u32(0), 99);
        assert_eq!(pool.disk().read_page(f, 0).unwrap().read_u32(0), 1);
        pool.flush_file(f).unwrap();
        assert_eq!(pool.disk().read_page(f, 0).unwrap().read_u32(0), 99);
    }

    #[test]
    fn hole_writes_are_rejected() {
        let (_d, pool) = pool(4);
        let f = pool.create_file().unwrap();
        assert!(pool.write_page(f, 3, &stamped(0)).is_err());
        assert!(pool.read_page(f, 0).is_err(), "read past logical end");
    }

    #[test]
    fn delete_drops_frames_without_write_back() {
        let (_d, pool) = pool(4);
        let f = pool.create_file().unwrap();
        pool.append_page(f, &stamped(1)).unwrap();
        let before = pool.disk().ledger().snapshot();
        pool.delete_file(f).unwrap();
        let delta = pool.disk().ledger().snapshot().since(&before);
        assert_eq!(delta.cache.write_backs, 0);
        assert_eq!(pool.cached_frames(), 0);
        assert!(pool.read_page(f, 0).is_err());
    }

    /// The frame table as it was before the recency list: each frame
    /// carries the tick of its last touch, the victim is whichever frame a
    /// scan of the whole table finds with the smallest tick, and a flush
    /// collects and sorts the file's dirty pages. The reference the pool
    /// must match event for event.
    struct ScanPool {
        dm: Arc<DiskManager>,
        capacity: usize,
        /// `(page, dirty, tick of last touch)` per resident frame.
        frames: HashMap<Key, (Arc<Page>, bool, u64)>,
        sizes: HashMap<FileId, u64>,
        tick: u64,
    }

    impl ScanPool {
        fn new(dm: Arc<DiskManager>, capacity: usize) -> Self {
            Self {
                dm,
                capacity,
                frames: HashMap::new(),
                sizes: HashMap::new(),
                tick: 0,
            }
        }

        fn create_file(&mut self) -> Result<FileId> {
            let id = self.dm.create_file()?;
            self.sizes.insert(id, 0);
            Ok(id)
        }

        fn delete_file(&mut self, id: FileId) -> Result<()> {
            self.frames.retain(|&(f, _), _| f != id);
            self.sizes.remove(&id);
            self.dm.delete_file(id)
        }

        fn truncate_file(&mut self, id: FileId, pages: u64) -> Result<()> {
            self.frames.retain(|&(f, p), _| f != id || p < pages);
            if self.num_pages(id)? > pages {
                self.sizes.insert(id, pages);
            }
            self.dm.truncate_pages(id, pages)
        }

        fn num_pages(&mut self, id: FileId) -> Result<u64> {
            if let Some(&n) = self.sizes.get(&id) {
                return Ok(n);
            }
            let n = self.dm.num_pages(id)?;
            self.sizes.insert(id, n);
            Ok(n)
        }

        fn touch(&mut self, key: Key) {
            self.tick += 1;
            self.frames.get_mut(&key).unwrap().2 = self.tick;
        }

        fn read_page(&mut self, id: FileId, page_no: u64) -> Result<Arc<Page>> {
            if let Some(f) = self.frames.get(&(id, page_no)) {
                let page = f.0.clone();
                self.touch((id, page_no));
                self.dm.ledger().note_cache(1, 0, 0, 0);
                return Ok(page);
            }
            let size = self.num_pages(id)?;
            if page_no >= size {
                return Err(StorageError::invalid("read past end"));
            }
            let page = Arc::new(self.dm.read_page(id, page_no)?);
            self.dm.ledger().note_cache(0, 1, 0, 0);
            self.install((id, page_no), page.clone(), false)?;
            Ok(page)
        }

        fn write_page(&mut self, id: FileId, page_no: u64, page: &Page) -> Result<()> {
            let size = self.num_pages(id)?;
            if page_no > size {
                return Err(StorageError::invalid("hole"));
            }
            if page_no == size {
                self.sizes.insert(id, size + 1);
            }
            if let Some(f) = self.frames.get_mut(&(id, page_no)) {
                (f.0, f.1) = (Arc::new(page.clone()), true);
                self.touch((id, page_no));
                return Ok(());
            }
            self.install((id, page_no), Arc::new(page.clone()), true)
        }

        fn append_page(&mut self, id: FileId, page: &Page) -> Result<u64> {
            let page_no = self.num_pages(id)?;
            self.write_page(id, page_no, page)?;
            Ok(page_no)
        }

        fn install(&mut self, key: Key, page: Arc<Page>, dirty: bool) -> Result<()> {
            if self.frames.len() >= self.capacity {
                let (&(vf, vp), &(_, vdirty, _)) =
                    self.frames.iter().min_by_key(|(_, f)| f.2).unwrap();
                if vdirty {
                    self.flush(vf, Some(vp))?;
                }
                self.frames.remove(&(vf, vp));
                self.dm.ledger().note_cache(0, 0, 1, 0);
                self.dm.ledger().trace(|| crate::trace::TraceEvent::PoolEvict {
                    file: vf.0,
                    page: vp,
                    dirty: vdirty,
                });
            }
            self.tick += 1;
            self.frames.insert(key, (page, dirty, self.tick));
            Ok(())
        }

        fn flush(&mut self, id: FileId, up_to: Option<u64>) -> Result<u64> {
            let mut dirty: Vec<u64> = self
                .frames
                .iter()
                .filter(|(&(f, p), fr)| f == id && fr.1 && up_to.is_none_or(|u| p <= u))
                .map(|(&(_, p), _)| p)
                .collect();
            dirty.sort_unstable();
            for &p in &dirty {
                let frame = self.frames.get_mut(&(id, p)).unwrap();
                self.dm.write_page(id, p, &frame.0)?;
                frame.1 = false;
            }
            let written = dirty.len() as u64;
            if written > 0 {
                self.dm.ledger().note_cache(0, 0, 0, written);
                self.dm.ledger().trace(|| crate::trace::TraceEvent::PoolWriteBack {
                    file: id.0,
                    pages: written,
                });
            }
            Ok(written)
        }

        fn flush_all(&mut self) -> Result<u64> {
            let mut files: Vec<FileId> = self
                .frames
                .iter()
                .filter(|(_, f)| f.1)
                .map(|(&(id, _), _)| id)
                .collect();
            files.sort_unstable();
            files.dedup();
            let mut written = 0;
            for id in files {
                written += self.flush(id, None)?;
            }
            Ok(written)
        }
    }

    /// A traced disk manager in a fresh directory: every pool event is
    /// captured together with the ledger snapshot at the time.
    fn traced_disk() -> (TempDir, Arc<DiskManager>, Arc<crate::trace::Tracer>) {
        let d = TempDir::new();
        let ledger = CostLedger::new(CostModel::symmetric(1.0));
        let tracer = Arc::new(crate::trace::Tracer::new(ledger.clone()));
        tracer.enable_full_capture();
        ledger.set_tracer(&tracer);
        let dm = Arc::new(DiskManager::open(&d.0, ledger).unwrap());
        (d, dm, tracer)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// The list-and-index pool against the scan-for-min reference,
        /// operation by operation: same results, same victims in the same
        /// order with the same write-backs (the trace stream, which also
        /// carries the ledger — `CacheStats` and per-phase pages — at
        /// every event), same residents, and the same bytes on disk.
        #[test]
        fn prop_pool_matches_scan_for_min_reference(
            ops in proptest::collection::vec((0u8..12, 0usize..4, 0u64..12, any::<u32>()), 1..120),
            nfiles in 2usize..=4,
            cap in 1usize..=16,
        ) {
            let (_d1, dm, trace) = traced_disk();
            let (_d2, ref_dm, ref_trace) = traced_disk();
            let pool = BufferPool::new(dm, cap);
            let mut model = ScanPool::new(ref_dm, cap);
            let mut files: Vec<FileId> = (0..nfiles)
                .map(|_| {
                    let id = pool.create_file().unwrap();
                    assert_eq!(id, model.create_file().unwrap());
                    id
                })
                .collect();
            let stamp = |r: Result<Arc<Page>>| r.map(|p| p.read_u32(0)).map_err(|_| ());
            for (kind, file, page, val) in ops {
                let f = files[file % nfiles];
                let n = pool.num_pages(f).unwrap();
                prop_assert_eq!(n, model.num_pages(f).unwrap());
                let v = &stamped(val);
                match kind {
                    0 => prop_assert_eq!(
                        pool.append_page(f, v).map_err(|_| ()),
                        model.append_page(f, v).map_err(|_| ())
                    ),
                    // Any page: an overwrite, an extension, or a refused hole.
                    1 => prop_assert_eq!(
                        pool.write_page(f, page, v).is_ok(),
                        model.write_page(f, page, v).is_ok()
                    ),
                    2 if n > 0 => prop_assert_eq!(
                        pool.write_page(f, page % n, v).is_ok(),
                        model.write_page(f, page % n, v).is_ok()
                    ),
                    3 => prop_assert_eq!(
                        pool.flush_file(f).map_err(|_| ()),
                        model.flush(f, None).map_err(|_| ())
                    ),
                    4 => prop_assert_eq!(
                        pool.flush_all().map_err(|_| ()),
                        model.flush_all().map_err(|_| ())
                    ),
                    5 => {
                        pool.delete_file(f).unwrap();
                        model.delete_file(f).unwrap();
                        files[file % nfiles] = pool.create_file().unwrap();
                        prop_assert_eq!(files[file % nfiles], model.create_file().unwrap());
                    }
                    6 => prop_assert_eq!(
                        pool.truncate_file(f, page).is_ok(),
                        model.truncate_file(f, page).is_ok()
                    ),
                    // Any page, past the end included.
                    7 => prop_assert_eq!(
                        stamp(pool.read_page(f, page)),
                        stamp(model.read_page(f, page))
                    ),
                    _ if n > 0 => prop_assert_eq!(
                        stamp(pool.read_page(f, page % n)),
                        stamp(model.read_page(f, page % n))
                    ),
                    _ => {}
                }
                prop_assert!(pool.cached_frames() <= cap);
                prop_assert_eq!(pool.dirty_files(), {
                    let mut dirty: Vec<FileId> =
                        model.frames.iter().filter(|(_, f)| f.1).map(|(k, _)| k.0).collect();
                    dirty.sort_unstable();
                    dirty.dedup();
                    dirty
                });
            }
            for &f in &files {
                for p in 0..12 {
                    prop_assert_eq!(pool.is_cached(f, p), model.frames.contains_key(&(f, p)));
                }
            }
            prop_assert_eq!(pool.flush_all().unwrap(), model.flush_all().unwrap());
            prop_assert_eq!(trace.take_full(), ref_trace.take_full());
            prop_assert_eq!(
                pool.disk().ledger().snapshot(),
                model.dm.ledger().snapshot()
            );
            for &f in &files {
                let n = pool.disk().num_pages(f).unwrap();
                prop_assert_eq!(n, pool.num_pages(f).unwrap());
                prop_assert_eq!(n, model.dm.num_pages(f).unwrap());
                for p in 0..n {
                    prop_assert!(
                        pool.disk().read_page(f, p).unwrap().bytes()
                            == model.dm.read_page(f, p).unwrap().bytes()
                    );
                }
            }
        }

    }

    proptest! {
        /// Any interleaving of appends, overwrites, and reads over a tiny
        /// pool must equal the passthrough (uncached) result after a
        /// final flush — dirty write-back loses nothing.
        #[test]
        fn prop_pool_matches_passthrough(
            ops in proptest::collection::vec((0u8..3, 0u64..6, any::<u32>()), 1..60),
            cap in 1usize..5,
        ) {
            let (_d1, cached) = pool(cap);
            let (_d2, plain) = pool(0);
            let fc = cached.create_file().unwrap();
            let fp = plain.create_file().unwrap();
            for (op, page, val) in ops {
                match op {
                    0 => {
                        cached.append_page(fc, &stamped(val)).unwrap();
                        plain.append_page(fp, &stamped(val)).unwrap();
                    }
                    1 => {
                        let n = cached.num_pages(fc).unwrap();
                        prop_assert_eq!(n, plain.num_pages(fp).unwrap());
                        if n > 0 {
                            let p = page % n;
                            cached.write_page(fc, p, &stamped(val)).unwrap();
                            plain.write_page(fp, p, &stamped(val)).unwrap();
                        }
                    }
                    _ => {
                        let n = cached.num_pages(fc).unwrap();
                        if n > 0 {
                            let p = page % n;
                            prop_assert_eq!(
                                cached.read_page(fc, p).unwrap().read_u32(0),
                                plain.read_page(fp, p).unwrap().read_u32(0)
                            );
                        }
                    }
                }
            }
            cached.flush_file(fc).unwrap();
            let n = cached.num_pages(fc).unwrap();
            prop_assert_eq!(n, cached.disk().num_pages(fc).unwrap());
            for p in 0..n {
                prop_assert_eq!(
                    cached.disk().read_page(fc, p).unwrap().read_u32(0),
                    plain.disk().read_page(fp, p).unwrap().read_u32(0)
                );
            }
        }

        /// The pool never exceeds capacity, and
        /// eviction order respects LRU: after a sequence of reads over a
        /// file larger than the pool, the most recently touched pages are
        /// exactly the resident ones.
        #[test]
        fn prop_lru_keeps_most_recent(
            reads in proptest::collection::vec(0u64..10, 1..80),
            cap in 1usize..6,
        ) {
            let (_d, pool) = pool(cap);
            let f = pool.create_file().unwrap();
            for i in 0..10 {
                pool.append_page(f, &stamped(i)).unwrap();
            }
            pool.flush_file(f).unwrap();
            // Drop the append-time residents so only `reads` decide LRU.
            for p in 0..10u64 {
                pool.read_page(f, p).unwrap();
            }
            let mut order: Vec<u64> = (0..10).collect();
            for &p in &reads {
                pool.read_page(f, p).unwrap();
                order.retain(|&q| q != p);
                order.push(p);
            }
            prop_assert!(pool.cached_frames() <= cap);
            let expect: Vec<u64> = order[order.len() - cap..].to_vec();
            for &p in &expect {
                prop_assert!(pool.is_cached(f, p), "page {} should be resident", p);
            }
        }
    }
}
