//! Sequential tuple runs: sorted sublists, hash-join partitions, and any
//! other operator-created *disk-resident state*.
//!
//! The paper (§3.1, footnote 1) observes that disk-resident state is
//! written once and never modified, so checkpoints never copy it — they
//! only record locations. A [`RunHandle`] is exactly such a location: it is
//! `Encode`/`Decode` and travels inside checkpoints, contracts, and
//! `SuspendedQuery`, surviving suspension (the paper's *materialization
//! points*).

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::bufpool::BufferPool;
use crate::disk::FileId;
use crate::error::Result;
use crate::heap::{HeapCursor, HeapFile, TupleAddr};
use crate::tuple::Tuple;
use std::sync::Arc;

/// A completed, immutable run on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHandle {
    /// Backing file.
    pub file: FileId,
    /// Number of tuples in the run.
    pub tuples: u64,
    /// Number of pages the run occupied when sealed. Anything past this
    /// watermark is not part of the run: a crash (or rolled-back slice)
    /// between the seal and a later reopen can leave stale appended pages
    /// behind, and [`RunWriter::reopen`] truncates back to this count so
    /// they can never be spliced into the tuple stream.
    pub pages: u64,
}

impl Encode for RunHandle {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.file.0);
        enc.put_u64(self.tuples);
        enc.put_u64(self.pages);
    }
}

impl Decode for RunHandle {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(RunHandle {
            file: FileId(dec.get_u64()?),
            tuples: dec.get_u64()?,
            pages: dec.get_u64()?,
        })
    }
}

/// Writes a run sequentially, then seals it into a [`RunHandle`].
///
/// Over a capacity-0 pool (the [`Database::run_pool`] every operator
/// uses) the run is an append-only stream: full pages are sealed into an
/// extent — each one charged, quota-checked and counted as a write event
/// as it is sealed — and the extent is written in one positioned write.
/// [`Self::seal`] writes whatever the extent still holds, so every page a
/// [`RunHandle`] covers is in the file when the handle exists.
///
/// [`Database::run_pool`]: crate::Database::run_pool
pub struct RunWriter {
    heap: HeapFile,
}

impl RunWriter {
    /// Start a new run.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        Ok(Self {
            heap: HeapFile::create(pool)?,
        })
    }

    /// Reopen a sealed run for further appends (used when a suspended
    /// operator resumes a partially written partition). The backing file
    /// first truncates to the handle's sealed page count — a crash or a
    /// rolled-back execution slice after the seal can leave stale pages
    /// past the watermark, and appending after them would splice phantom
    /// tuples into the run. Appends then continue on fresh pages; the
    /// sealed tail page keeps its short count, which readers handle
    /// naturally.
    pub fn reopen(pool: Arc<BufferPool>, handle: RunHandle) -> Result<Self> {
        pool.truncate_file(handle.file, handle.pages)?;
        Ok(Self {
            heap: HeapFile::open(pool, handle.file, handle.tuples),
        })
    }

    /// The run's backing file.
    pub fn file_id(&self) -> FileId {
        self.heap.file_id()
    }

    /// Append one tuple.
    pub fn append(&mut self, tuple: &Tuple) -> Result<()> {
        self.append_record(tuple.record())
    }

    /// Append one row given as its codec record (see
    /// [`HeapFile::append_record`]).
    pub fn append_record(&mut self, record: &[u8]) -> Result<()> {
        self.heap.append_record(record)
    }

    /// Number of tuples appended so far.
    pub fn len(&self) -> u64 {
        self.heap.tuple_count()
    }

    /// True if no tuple has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Page writes [`Self::seal`] would still charge (0 or 1: the open
    /// tail; pages waiting in the extent were charged when they were
    /// sealed). Lets a suspend-time caller pass the exact upcoming write
    /// volume to an I/O-budget admission check before committing to the
    /// seal.
    pub fn pending_pages(&self) -> u64 {
        u64::from(self.heap.has_unflushed_tail())
    }

    /// Flush and seal the run without consuming the writer. On failure
    /// the unflushed tail stays buffered, so sealing can be retried (the
    /// degradation ladder re-seals partitions after a `NoSpace` rung).
    /// Sealing twice is a no-op returning the same handle.
    pub fn seal(&mut self) -> Result<RunHandle> {
        self.heap.finish()?;
        Ok(RunHandle {
            file: self.heap.file_id(),
            tuples: self.heap.tuple_count(),
            pages: self.heap.pages()?,
        })
    }

    /// Flush and seal the run.
    pub fn finish(mut self) -> Result<RunHandle> {
        self.seal()
    }
}

/// Sequential reader over a sealed run. The cursor position is a
/// [`TupleAddr`], usable as operator control state.
pub struct RunReader {
    cursor: HeapCursor,
    handle: RunHandle,
}

impl RunReader {
    /// Open a reader at the beginning of the run.
    pub fn open(pool: Arc<BufferPool>, handle: RunHandle) -> Self {
        let heap = HeapFile::open(pool, handle.file, handle.tuples);
        Self {
            cursor: heap.cursor(),
            handle,
        }
    }

    /// Open a reader positioned at `addr`.
    pub fn open_at(pool: Arc<BufferPool>, handle: RunHandle, addr: TupleAddr) -> Self {
        let mut r = Self::open(pool, handle);
        r.cursor.seek(addr);
        r
    }

    /// The run being read.
    pub fn handle(&self) -> RunHandle {
        self.handle
    }

    /// Address of the next tuple to be returned.
    pub fn position(&self) -> TupleAddr {
        self.cursor.position()
    }

    /// Reposition the reader.
    pub fn seek(&mut self, addr: TupleAddr) {
        self.cursor.seek(addr);
    }

    /// Next tuple, or `None` at end of run.
    #[allow(clippy::should_implement_trait)] // fallible pull, not an Iterator
    pub fn next(&mut self) -> Result<Option<Tuple>> {
        self.cursor.next()
    }

    /// Page reads performed by this reader (for work attribution).
    pub fn pages_fetched(&self) -> u64 {
        self.cursor.pages_fetched()
    }
}

/// Delete a run's backing file (used when an operator's disk-resident
/// state is finally garbage: the owning query finished or was shed).
pub fn delete_run(pool: &BufferPool, file: FileId) -> Result<()> {
    pool.delete_file(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostLedger, CostModel};
    use crate::value::Value;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-run-test-{}-{}",
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

    fn dm() -> (TempDir, Arc<BufferPool>) {
        let d = TempDir::new();
        let m = Arc::new(
            crate::disk::DiskManager::open(&d.0, CostLedger::new(CostModel::symmetric(1.0)))
                .unwrap(),
        );
        (d, BufferPool::passthrough(m))
    }

    fn tup(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k)])
    }

    #[test]
    fn write_seal_read() {
        let (_d, dm) = dm();
        let mut w = RunWriter::create(dm.clone()).unwrap();
        for k in 0..777 {
            w.append(&tup(k)).unwrap();
        }
        let h = w.finish().unwrap();
        assert_eq!(h.tuples, 777);

        let mut r = RunReader::open(dm, h);
        for k in 0..777 {
            assert_eq!(r.next().unwrap().unwrap(), tup(k));
        }
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn reader_survives_suspend_style_reposition() {
        let (_d, dm) = dm();
        let mut w = RunWriter::create(dm.clone()).unwrap();
        for k in 0..300 {
            w.append(&tup(k)).unwrap();
        }
        let h = w.finish().unwrap();

        let mut r = RunReader::open(dm.clone(), h);
        for _ in 0..100 {
            r.next().unwrap();
        }
        let pos = r.position();
        drop(r);
        // Handle + position round-trip through the codec, like a contract.
        let pos2 = crate::codec::roundtrip(&pos).unwrap();
        let h2 = crate::codec::roundtrip(&h).unwrap();
        let mut r2 = RunReader::open_at(dm, h2, pos2);
        assert_eq!(r2.next().unwrap().unwrap(), tup(100));
    }

    #[test]
    fn reopen_truncates_stale_pages_past_the_sealed_watermark() {
        let (_d, dm) = dm();
        let mut w = RunWriter::create(dm.clone()).unwrap();
        for k in 0..500 {
            w.append(&tup(k)).unwrap();
        }
        let h = w.seal().unwrap();
        // A crashed (or rolled-back) slice appended past the seal; its
        // pages were never part of any committed state.
        for k in 9_000..9_500 {
            w.append(&tup(k)).unwrap();
        }
        w.seal().unwrap();
        drop(w);

        // Resume from the committed handle: the stale pages must vanish,
        // and new appends must continue directly after the sealed data.
        let mut w2 = RunWriter::reopen(dm.clone(), h).unwrap();
        assert_eq!(w2.len(), 500);
        for k in 500..700 {
            w2.append(&tup(k)).unwrap();
        }
        let h2 = w2.finish().unwrap();
        assert_eq!(h2.tuples, 700);

        let mut r = RunReader::open(dm, h2);
        for k in 0..700 {
            assert_eq!(r.next().unwrap().unwrap(), tup(k), "tuple {k}");
        }
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn empty_run_reads_none() {
        let (_d, dm) = dm();
        let w = RunWriter::create(dm.clone()).unwrap();
        assert!(w.is_empty());
        let h = w.finish().unwrap();
        assert_eq!(h.tuples, 0);
        let mut r = RunReader::open(dm, h);
        assert!(r.next().unwrap().is_none());
    }

    #[test]
    fn delete_run_removes_file() {
        let (_d, dm) = dm();
        let mut w = RunWriter::create(dm.clone()).unwrap();
        w.append(&tup(1)).unwrap();
        let h = w.finish().unwrap();
        delete_run(&dm, h.file).unwrap();
        let mut r = RunReader::open(dm, h);
        assert!(r.next().is_err());
    }
}
