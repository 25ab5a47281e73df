//! Table heap files: append-only slotted pages of encoded tuples.
//!
//! A heap file is the on-disk representation of a base table. Tuples are
//! packed into pages in insertion order; a [`HeapCursor`] scans them
//! sequentially and its position — a [`TupleAddr`] — is exactly the control
//! state a table-scan operator stores in contracts and in the
//! `SuspendedQuery` structure (paper §4, "Table Scan and Index Scan").

use crate::bufpool::BufferPool;
use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::disk::FileId;
use crate::error::{Result, StorageError};
use crate::fault::WriteOutcome;
use crate::page::{Page, PAGE_RECORD, PAGE_SIZE};
use crate::tuple::Tuple;
use std::sync::Arc;

/// Page layout: `[count: u16][(len: u32, tuple bytes)...]`.
const PAGE_HEADER: usize = 2;

/// Address of a tuple: page number and slot within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleAddr {
    /// Page number within the heap file.
    pub page: u64,
    /// Slot index within the page.
    pub slot: u16,
}

impl TupleAddr {
    /// The address of the first tuple.
    pub const ZERO: TupleAddr = TupleAddr { page: 0, slot: 0 };
}

impl Encode for TupleAddr {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.page);
        enc.put_u16(self.slot);
    }
}

impl Decode for TupleAddr {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(TupleAddr {
            page: dec.get_u64()?,
            slot: dec.get_u16()?,
        })
    }
}

/// Pages a heap on a capacity-0 pool seals before it writes them, in one
/// positioned write ([`DiskManager::append_extent`]).
///
/// [`DiskManager::append_extent`]: crate::DiskManager::append_extent
const EXTENT_PAGES: usize = 16;

/// A heap file of tuples. All page I/O goes through a [`BufferPool`]:
/// table heaps use the shared one, so repeated scans of a hot table are
/// served from memory (and charged nothing) when it has capacity; runs use
/// a capacity-0 pool, on which a heap is an append-only stream written in
/// extents of up to `EXTENT_PAGES` pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    file: FileId,
    tuple_count: u64,
    /// Build side: the page records sealed and not yet written (only on a
    /// capacity-0 pool; a caching pool takes each page as it is sealed),
    /// then the page being filled — its count slot, then its records —
    /// encoded where it will be written from.
    out: Vec<u8>,
    /// Whole page records at the front of `out`.
    sealed: usize,
    /// Rows on the page being filled, if one is open.
    tail_rows: Option<u16>,
}

impl HeapFile {
    /// Create a new empty heap file.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
        let file = pool.create_file()?;
        Ok(Self::open(pool, file, 0))
    }

    /// Open an existing heap file. `tuple_count` comes from the catalog.
    pub fn open(pool: Arc<BufferPool>, file: FileId, tuple_count: u64) -> Self {
        Self {
            pool,
            file,
            tuple_count,
            out: Vec::new(),
            sealed: 0,
            tail_rows: None,
        }
    }

    /// The underlying file id (stored in the catalog).
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Total number of tuples appended.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Number of pages in the file (excluding any unflushed tail and any
    /// sealed page still waiting for its extent write; includes pages
    /// still buffered in the pool).
    pub fn pages(&self) -> Result<u64> {
        self.pool.num_pages(self.file)
    }

    /// Append a tuple; may seal a full page. The tuple's record is copied
    /// straight into the tail page's buffer, behind its length prefix.
    pub fn append(&mut self, tuple: &Tuple) -> Result<()> {
        self.append_record(tuple.record())
    }

    /// Append one row given as its codec record (the bytes a [`Tuple`]
    /// holds, e.g. a [`RowBuffer`](crate::RowBuffer) row); may seal a
    /// full page. The bytes are stored as they are: a malformed record is
    /// refused where every row is checked, when it is read back.
    pub fn append_record(&mut self, record: &[u8]) -> Result<()> {
        let len = record.len();
        if PAGE_HEADER + 4 + len > PAGE_SIZE {
            return Err(StorageError::invalid(format!(
                "tuple of {len} bytes does not fit a page"
            )));
        }
        let start = self.sealed * PAGE_RECORD;
        if self.tail_rows.is_some() && self.out.len() - start + 4 + len > PAGE_SIZE {
            self.seal_tail()?;
        }
        let rows = match &mut self.tail_rows {
            Some(rows) => rows,
            None => {
                if self.out.capacity() == 0 {
                    let pages = if self.pool.capacity() == 0 {
                        EXTENT_PAGES
                    } else {
                        1
                    };
                    self.out.reserve_exact(pages * PAGE_RECORD);
                }
                // Count slot, stamped when the page is sealed.
                self.out.extend_from_slice(&[0; PAGE_HEADER]);
                self.tail_rows.insert(0)
            }
        };
        *rows += 1;
        self.out.extend_from_slice(&(len as u32).to_le_bytes());
        self.out.extend_from_slice(record);
        self.tuple_count += 1;
        Ok(())
    }

    /// Seal the page being filled — count stamped, slack zeroed — and hand
    /// it on: to the pool, or (capacity 0) into the extent, which is
    /// written once it holds `EXTENT_PAGES` pages.
    fn seal_tail(&mut self) -> Result<()> {
        let Some(rows) = self.tail_rows else {
            return Ok(());
        };
        let start = self.sealed * PAGE_RECORD;
        let used = self.out.len();
        self.out[start..start + PAGE_HEADER].copy_from_slice(&rows.to_le_bytes());
        self.out.resize(start + PAGE_RECORD, 0);
        let sealed = if self.pool.capacity() > 0 {
            let page = Page::from_bytes(&self.out[start..start + PAGE_SIZE]);
            self.pool
                .append_page(self.file, &page)
                .map(|_| WriteOutcome::Proceed)
        } else {
            self.pool
                .disk()
                .seal_page(self.file, &mut self.out[start..])
        };
        match sealed {
            Ok(WriteOutcome::Proceed) => {
                self.tail_rows = None;
                if self.pool.capacity() > 0 {
                    self.out.clear();
                } else {
                    self.sealed += 1;
                    if self.sealed == EXTENT_PAGES {
                        self.write_extent()?;
                    }
                }
                Ok(())
            }
            // A torn page: the pages sealed before it land, then its
            // prefix, and the process halts.
            Ok(WriteOutcome::TornPrefix(keep)) => self
                .pool
                .disk()
                .append_extent(self.file, &self.out[..start + keep]),
            // The page stays open until it is accepted: a refused page
            // (quota, injected fault) keeps its rows so a later retry — e.g.
            // a cheaper degradation-ladder rung re-sealing a partition — can
            // write them instead of silently losing them. The pages sealed
            // before it were accepted, so they land now.
            Err(e) => {
                self.out.truncate(used);
                self.write_extent()?;
                Err(e)
            }
        }
    }

    /// Write the sealed page records as one extent; the open page, if any,
    /// moves to the front of the buffer.
    fn write_extent(&mut self) -> Result<()> {
        if self.sealed == 0 {
            return Ok(());
        }
        let end = self.sealed * PAGE_RECORD;
        self.pool
            .disk()
            .append_extent(self.file, &self.out[..end])?;
        self.out.drain(..end);
        self.sealed = 0;
        Ok(())
    }

    /// Seal any partially filled page and write every sealed one. Must be
    /// called after bulk loading.
    pub fn finish(&mut self) -> Result<()> {
        self.seal_tail()?;
        self.write_extent()
    }

    /// True when a partially filled page is still buffered in memory (the
    /// page [`Self::finish`] would seal).
    pub fn has_unflushed_tail(&self) -> bool {
        self.tail_rows.is_some()
    }

    /// Open a sequential cursor at the beginning.
    pub fn cursor(&self) -> HeapCursor {
        HeapCursor::new(self.pool.clone(), self.file)
    }

    /// Open a sequential cursor positioned at `addr`.
    pub fn cursor_at(&self, addr: TupleAddr) -> HeapCursor {
        let mut c = self.cursor();
        c.seek(addr);
        c
    }

    /// Fetch the single tuple at `addr` (one page read on a pool miss).
    /// Records are length-prefixed, so the slots before it are skipped,
    /// not decoded.
    pub fn fetch(&self, addr: TupleAddr) -> Result<Tuple> {
        let page = self.pool.read_page(self.file, addr.page)?;
        if addr.slot >= page.read_u16(0) {
            return Err(StorageError::invalid(format!(
                "no slot {} on page {}",
                addr.slot, addr.page
            )));
        }
        let mut dec = Decoder::new(&page.bytes()[PAGE_HEADER..]);
        for _ in 0..addr.slot {
            dec.get_bytes()?;
        }
        Tuple::from_record(dec.get_bytes()?)
    }
}

impl Drop for HeapFile {
    /// Sealed pages were charged and accepted, so they reach the file even
    /// when the writer is dropped unfinished — unless an injected crash
    /// halted the process, which then never wrote them.
    fn drop(&mut self) {
        let halted = || {
            self.pool
                .disk()
                .fault_injector()
                .is_some_and(|fi| fi.halted())
        };
        if self.sealed > 0 && !halted() {
            let _ = self.write_extent();
        }
    }
}

/// The page the cursor is positioned on: the page itself (shared with the
/// buffer pool, read and charged once) and a byte position among its
/// records. Rows are cut out of the page bytes one at a time; nothing is
/// decoded ahead of the cursor.
struct CurrentPage {
    page_no: u64,
    page: Arc<Page>,
    /// Rows on the page (its count header).
    rows: usize,
    /// Byte offset of the record in slot `at_slot`. Records are
    /// length-prefixed, so moving forward skips prefixes, not rows.
    at: usize,
    at_slot: usize,
}

impl CurrentPage {
    /// The record in `slot` (which the page has), unchecked beyond its
    /// length prefix. Leaves the byte position just past it.
    fn record(&mut self, slot: usize) -> Result<&[u8]> {
        if slot < self.at_slot {
            (self.at, self.at_slot) = (PAGE_HEADER, 0);
        }
        let area = &self.page.bytes()[self.at..];
        let mut dec = Decoder::new(area);
        for _ in self.at_slot..slot {
            dec.get_bytes()?;
        }
        let record = dec.get_bytes()?;
        self.at += area.len() - dec.remaining();
        self.at_slot = slot + 1;
        Ok(record)
    }
}

/// Sequential scan cursor over a heap file.
///
/// Page reads go through the shared [`BufferPool`]; the cursor itself only
/// keeps the current page, so a full scan charges exactly one page read
/// per page (and zero on pool hits). `position()` returns
/// the address of the *next* tuple to be returned — the value a table scan
/// records in contracts — and `seek()` repositions to such an address.
pub struct HeapCursor {
    pool: Arc<BufferPool>,
    file: FileId,
    next: TupleAddr,
    current: Option<CurrentPage>,
    pages_fetched: u64,
}

impl HeapCursor {
    fn new(pool: Arc<BufferPool>, file: FileId) -> Self {
        Self {
            pool,
            file,
            next: TupleAddr::ZERO,
            current: None,
            pages_fetched: 0,
        }
    }

    /// Number of page reads this cursor has performed (for per-operator
    /// work attribution).
    pub fn pages_fetched(&self) -> u64 {
        self.pages_fetched
    }

    /// Address of the next tuple `next()` would return.
    pub fn position(&self) -> TupleAddr {
        self.next
    }

    /// Reposition so the next `next()` returns the tuple at `addr`.
    /// The current page is dropped; the page will be re-fetched (charged
    /// unless the pool still holds it) on the next call — this is
    /// precisely the resume-time read the paper describes for table scans.
    pub fn seek(&mut self, addr: TupleAddr) {
        self.next = addr;
        self.current = None;
    }

    /// Return the next tuple together with its *exact* address, or `None`
    /// at end of file. Unlike [`HeapCursor::position`] — which may point
    /// one-past-the-end of a page until the cursor rolls over — the
    /// returned address is always directly fetchable, which is what index
    /// builders need.
    pub fn next_with_addr(&mut self) -> Result<Option<(TupleAddr, Tuple)>> {
        match self.next()? {
            None => Ok(None),
            Some(t) => {
                // `next` advanced one slot past the served tuple (page
                // rollover, if any, happened before serving).
                let addr = TupleAddr {
                    page: self.next.page,
                    slot: self.next.slot - 1,
                };
                Ok(Some((addr, t)))
            }
        }
    }

    /// Ensure the page under the cursor is held, reading (and charging)
    /// it at most once. Returns `None` at end of file.
    fn load_current_page(&mut self) -> Result<Option<&mut CurrentPage>> {
        let page_no = self.next.page;
        if self.current.as_ref().map(|c| c.page_no) != Some(page_no) {
            if page_no >= self.pool.num_pages(self.file)? {
                return Ok(None);
            }
            let page = self.pool.read_page(self.file, page_no)?;
            self.pages_fetched += 1;
            self.current = Some(CurrentPage {
                page_no,
                rows: page.read_u16(0) as usize,
                page,
                at: PAGE_HEADER,
                at_slot: 0,
            });
        }
        Ok(self.current.as_mut())
    }

    /// Return the next tuple, or `None` at end of file: a checked copy of
    /// its record off the page, one allocation.
    #[allow(clippy::should_implement_trait)] // fallible pull, not an Iterator
    pub fn next(&mut self) -> Result<Option<Tuple>> {
        loop {
            let slot = self.next.slot as usize;
            let Some(cur) = self.load_current_page()? else {
                return Ok(None);
            };
            if slot < cur.rows {
                let t = Tuple::from_record(cur.record(slot)?)?;
                self.next.slot += 1;
                return Ok(Some(t));
            }
            // Move to the next page.
            self.next = TupleAddr {
                page: self.next.page + 1,
                slot: 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostLedger, CostModel};
    use crate::value::Value;

    fn test_dm() -> (TempDir, Arc<BufferPool>) {
        test_pool(0)
    }

    fn test_pool(capacity: usize) -> (TempDir, Arc<BufferPool>) {
        let dir = TempDir::new();
        let dm = Arc::new(
            crate::disk::DiskManager::open(
                dir.path(),
                CostLedger::new(CostModel::symmetric(1.0)),
            )
            .unwrap(),
        );
        (dir, BufferPool::new(dm, capacity))
    }

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-heap-test-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
            ));
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tup(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Str(format!("payload-{k}"))])
    }

    fn build(pool: &Arc<BufferPool>, n: i64) -> HeapFile {
        let mut h = HeapFile::create(pool.clone()).unwrap();
        for k in 0..n {
            h.append(&tup(k)).unwrap();
        }
        h.finish().unwrap();
        h
    }

    #[test]
    fn scan_returns_all_tuples_in_order() {
        let (_d, dm) = test_dm();
        let h = build(&dm, 1000);
        assert_eq!(h.tuple_count(), 1000);
        assert!(h.pages().unwrap() > 1, "must span multiple pages");
        let mut c = h.cursor();
        for k in 0..1000 {
            assert_eq!(c.next().unwrap().unwrap(), tup(k));
        }
        assert!(c.next().unwrap().is_none());
    }

    #[test]
    fn scan_charges_one_read_per_page() {
        let (_d, dm) = test_dm();
        let h = build(&dm, 2000);
        let pages = h.pages().unwrap();
        let before = dm.disk().ledger().snapshot();
        let mut c = h.cursor();
        while c.next().unwrap().is_some() {}
        let delta = dm.disk().ledger().snapshot().since(&before);
        assert_eq!(delta.total_pages_read(), pages);
    }

    #[test]
    fn cached_rescan_charges_at_least_5x_fewer_reads() {
        // The ISSUE's headline number: with a pool large enough to hold
        // the table, repeated scans are served from memory, so charged
        // reads drop by far more than 5× vs. the uncached baseline.
        let scan_twice = |pool: &Arc<BufferPool>| -> u64 {
            let h = build(pool, 2000);
            let before = pool.disk().ledger().snapshot();
            for _ in 0..2 {
                let mut c = h.cursor();
                while c.next().unwrap().is_some() {}
            }
            pool.disk().ledger().snapshot().since(&before).total_pages_read()
        };
        let (_d1, uncached) = test_pool(0);
        let (_d2, cached) = test_pool(256);
        let cold = scan_twice(&uncached);
        let warm = scan_twice(&cached);
        assert!(cold >= 2, "baseline must actually read pages");
        assert!(
            warm * 5 <= cold,
            "cached rescan read {warm} pages vs uncached {cold}"
        );
    }

    #[test]
    fn position_and_seek_resume_a_scan_exactly() {
        let (_d, dm) = test_dm();
        let h = build(&dm, 500);
        let mut c = h.cursor();
        let mut first = Vec::new();
        for _ in 0..123 {
            first.push(c.next().unwrap().unwrap());
        }
        let pos = c.position();

        // "Suspend": throw away the cursor. "Resume": seek a fresh one.
        let mut c2 = h.cursor_at(pos);
        let mut rest = Vec::new();
        while let Some(t) = c2.next().unwrap() {
            rest.push(t);
        }
        assert_eq!(first.len() + rest.len(), 500);
        assert_eq!(rest[0], tup(123));

        // Every position a scan passes through, including one past the
        // last slot of a page (rollover to the next page is lazy), seeks a
        // fresh cursor to exactly the next row.
        let mut c = h.cursor();
        let mut page_ends = 0;
        for k in 0..500 {
            let pos = c.position();
            assert_eq!(h.cursor_at(pos).next().unwrap(), Some(tup(k)), "seek to {pos:?}");
            let (addr, t) = c.next_with_addr().unwrap().unwrap();
            assert_eq!(t, tup(k));
            if addr.page != pos.page {
                page_ends += 1;
            }
        }
        assert!(page_ends > 1, "the scan must stop at several page ends");
    }

    #[test]
    fn seek_to_end_yields_none() {
        let (_d, dm) = test_dm();
        let h = build(&dm, 10);
        let mut c = h.cursor();
        while c.next().unwrap().is_some() {}
        let end = c.position();
        let mut c2 = h.cursor_at(end);
        assert!(c2.next().unwrap().is_none());
    }

    #[test]
    fn fetch_by_address() {
        let (_d, dm) = test_dm();
        let h = build(&dm, 300);
        // Walk with a cursor recording addresses, then fetch a few back.
        let mut c = h.cursor();
        let mut addrs = Vec::new();
        while let Some(at) = c.next_with_addr().unwrap() {
            addrs.push(at);
        }
        for (addr, expect) in addrs.iter().step_by(37) {
            assert_eq!(&h.fetch(*addr).unwrap(), expect);
        }
        // The last slot of a full page, and the slot one past it: the
        // count in the page header bounds the skip, so a slot the page
        // does not have is a typed error, not a decode of zero padding.
        let (last, expect) = addrs.iter().rfind(|(a, _)| a.page == 0).unwrap();
        assert_eq!(&h.fetch(*last).unwrap(), expect);
        let past = TupleAddr {
            page: 0,
            slot: last.slot + 1,
        };
        match h.fetch(past) {
            Err(StorageError::InvalidArgument(m)) => {
                assert_eq!(m, format!("no slot {} on page 0", past.slot))
            }
            other => panic!("expected a typed no-slot error, got {other:?}"),
        }
    }

    /// Tuples of very different widths, so records meet the page end at
    /// many different offsets.
    fn mixed(k: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(k),
            Value::Str("w".repeat((k as usize * 37) % 900)),
            Value::Bool(k % 3 == 0),
            Value::Float(k as f64 / 8.0),
        ])
    }

    /// The append sequence this file used before tuples were encoded in
    /// place — encode to a `Vec`, then `put_bytes` it into the tail, then
    /// copy the tail into a zeroed page — kept as the reference for what
    /// a heap page's bytes are.
    fn reference_pages(tuples: &[Tuple]) -> Vec<Vec<u8>> {
        fn seal(count: u16, body: &Encoder) -> Vec<u8> {
            let mut page = Page::zeroed();
            page.write_u16(0, count);
            page.bytes_mut()[PAGE_HEADER..PAGE_HEADER + body.len()]
                .copy_from_slice(body.as_slice());
            page.bytes().to_vec()
        }
        let mut pages = Vec::new();
        let (mut body, mut count) = (Encoder::new(), 0u16);
        for t in tuples {
            let bytes = t.encode_to_vec();
            if PAGE_HEADER + body.len() + 4 + bytes.len() > PAGE_SIZE {
                pages.push(seal(count, &body));
                (body, count) = (Encoder::new(), 0);
            }
            body.put_bytes(&bytes);
            count += 1;
        }
        if count > 0 {
            pages.push(seal(count, &body));
        }
        pages
    }

    fn pages_of(h: &HeapFile) -> Vec<Vec<u8>> {
        (0..h.pages().unwrap())
            .map(|p| h.pool.read_page(h.file, p).unwrap().bytes().to_vec())
            .collect()
    }

    #[test]
    fn in_place_append_writes_the_same_page_bytes() {
        let (_d, pool) = test_dm();
        let tuples: Vec<Tuple> = (0..400).map(mixed).collect();
        let mut h = HeapFile::create(pool).unwrap();
        for t in &tuples {
            h.append(t).unwrap();
        }
        h.finish().unwrap();
        let expect = reference_pages(&tuples);
        assert!(expect.len() > 5, "must cross several page boundaries");
        assert_eq!(pages_of(&h), expect);
    }

    #[test]
    fn oversized_tuple_is_rejected_and_leaves_the_tail_untouched() {
        let (_d, pool) = test_dm();
        let tuples: Vec<Tuple> = (0..20).map(mixed).collect();
        let mut h = HeapFile::create(pool).unwrap();
        let huge = Tuple::new(vec![Value::Str("x".repeat(PAGE_SIZE))]);
        let huge_len = huge.encode_to_vec().len();
        for (i, t) in tuples.iter().enumerate() {
            h.append(t).unwrap();
            if i % 5 == 0 {
                match h.append(&huge) {
                    Err(StorageError::InvalidArgument(m)) => {
                        assert_eq!(m, format!("tuple of {huge_len} bytes does not fit a page"))
                    }
                    other => panic!("expected a typed does-not-fit error, got {other:?}"),
                }
            }
        }
        h.finish().unwrap();
        assert_eq!(h.tuple_count(), 20);
        assert_eq!(pages_of(&h), reference_pages(&tuples));
    }

    #[test]
    fn failed_flush_keeps_the_buffered_tuples_for_a_retry() {
        use crate::fault::{FaultInjector, WriteFault};
        let tuples: Vec<Tuple> = (0..60).map(mixed).collect();

        // Quota: the page-filling append fails with `NoSpace` and must not
        // have consumed the tail; once space is back, the same append and
        // everything after it land as if nothing had happened.
        let (_d, pool) = test_dm();
        let mut h = HeapFile::create(pool.clone()).unwrap();
        pool.disk().set_quota(Some(0));
        let mut refused = 0;
        for t in &tuples {
            if let Err(e) = h.append(t) {
                assert!(matches!(e, StorageError::NoSpace { .. }), "{e}");
                assert!(h.has_unflushed_tail());
                refused += 1;
                pool.disk().set_quota(None);
                h.append(t).unwrap();
                pool.disk().set_quota(Some(0));
            }
        }
        assert!(refused > 0, "the quota must have refused a page");
        assert!(matches!(h.finish(), Err(StorageError::NoSpace { .. })));
        assert!(h.has_unflushed_tail(), "a refused seal keeps the tail");
        pool.disk().set_quota(None);
        h.finish().unwrap();
        assert_eq!(pages_of(&h), reference_pages(&tuples));

        // Injected transient fault on the sealing write: same contract.
        let (_d, pool) = test_dm();
        let mut h = HeapFile::create(pool.clone()).unwrap();
        for t in &tuples[..3] {
            h.append(t).unwrap();
        }
        let fi = Arc::new(FaultInjector::new());
        pool.disk().set_fault_injector(Some(fi.clone()));
        fi.fail_write(1, WriteFault::Transient(1));
        assert!(h.finish().unwrap_err().is_transient());
        assert!(h.has_unflushed_tail());
        h.finish().unwrap();
        assert_eq!(pages_of(&h), reference_pages(&tuples[..3]));
    }

    #[test]
    fn empty_heap_scans_to_none() {
        let (_d, dm) = test_dm();
        let mut h = HeapFile::create(dm).unwrap();
        h.finish().unwrap();
        assert!(h.cursor().next().unwrap().is_none());
    }

    #[test]
    fn addr_roundtrips_through_codec() {
        use crate::codec::roundtrip;
        let a = TupleAddr { page: 7, slot: 42 };
        assert_eq!(roundtrip(&a).unwrap(), a);
    }
}
