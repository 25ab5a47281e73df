//! Regression tests for the disk-quota accounting blind spot.
//!
//! A quota-rejected write must still be *visible*: it charges the cost
//! ledger and appears in the fault injector's write-event record before
//! the quota check runs. Without this ordering, disk-pressure incidents
//! are invisible to exactly the accounting meant to diagnose them — the
//! ledger would claim the engine wrote nothing while the disk reported
//! `NoSpace`, and fault-schedule ordinals would drift between a quota'd
//! run and an unquota'd one.

use qsr_storage::{
    BlobStore, BufferPool, CostLedger, CostModel, DiskManager, FaultInjector, Page, Phase,
    StorageError, WriteKind, PAGE_SIZE,
};
use std::path::PathBuf;
use std::sync::Arc;

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-quota-test-{}-{}",
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

fn disk() -> (TempDir, Arc<DiskManager>) {
    let d = TempDir::new();
    let dm =
        Arc::new(DiskManager::open(&d.0, CostLedger::new(CostModel::symmetric(1.0))).unwrap());
    (d, dm)
}

#[test]
fn rejected_append_is_charged_before_the_quota_check() {
    let (_d, dm) = disk();
    let f = dm.create_file().unwrap();
    dm.set_quota(Some(0));
    let before = dm.ledger().snapshot();
    let err = dm.append_page(f, &Page::zeroed()).unwrap_err();
    assert!(matches!(err, StorageError::NoSpace { .. }), "{err}");
    let delta = dm.ledger().snapshot().since(&before);
    assert_eq!(
        delta.phase(Phase::Execute).pages_written,
        1,
        "the rejected write must appear in the ledger"
    );
    assert_eq!(dm.num_pages(f).unwrap(), 0, "but no page landed on disk");
}

#[test]
fn rejected_write_page_is_charged_before_the_quota_check() {
    let (_d, dm) = disk();
    let f = dm.create_file().unwrap();
    dm.append_page(f, &Page::zeroed()).unwrap();
    dm.set_quota(Some(PAGE_SIZE as u64));
    let before = dm.ledger().snapshot();
    // Extending write at the page count: quota-rejected, still charged.
    let err = dm.write_page(f, 1, &Page::zeroed()).unwrap_err();
    assert!(matches!(err, StorageError::NoSpace { .. }), "{err}");
    let delta = dm.ledger().snapshot().since(&before);
    assert_eq!(delta.phase(Phase::Execute).pages_written, 1);
}

#[test]
fn rejected_write_still_appears_in_the_write_event_record() {
    let (_d, dm) = disk();
    let f = dm.create_file().unwrap();
    dm.set_quota(Some(0));
    let fi = Arc::new(FaultInjector::new());
    dm.set_fault_injector(Some(fi.clone()));
    fi.record_events(true);
    assert!(dm.append_page(f, &Page::zeroed()).is_err());
    let events = fi.take_events();
    assert_eq!(events.len(), 1, "rejected write recorded exactly once");
    assert_eq!(events[0].kind, WriteKind::Page);
    assert_eq!(events[0].len, PAGE_SIZE);
    assert_eq!(
        fi.writes_observed(),
        1,
        "quota rejection must not shift fault-schedule write ordinals"
    );
}

#[test]
fn blob_put_at_quota_fails_typed_and_is_fully_accounted() {
    let (_d, dm) = disk();
    dm.set_quota(Some(2 * PAGE_SIZE as u64));
    let bs = BlobStore::new(BufferPool::passthrough(dm.clone()));
    let before = dm.ledger().snapshot();
    // Three pages of payload against a two-page quota: the third page
    // write is rejected with a typed NoSpace and still charged.
    let err = bs.put(&vec![7u8; 2 * PAGE_SIZE + 1]).unwrap_err();
    match err {
        StorageError::NoSpace { available, .. } => assert_eq!(available, 0),
        other => panic!("expected NoSpace, got {other}"),
    }
    let delta = dm.ledger().snapshot().since(&before);
    assert_eq!(
        delta.phase(Phase::Execute).pages_written,
        3,
        "two landed pages + one rejected attempt, all visible"
    );
    // A failed put deletes its partial file: the two landed pages are
    // reclaimed, so the quota is free for a cheaper retry.
    assert_eq!(dm.used_bytes(), 0, "failed blob put must leak no bytes");
}

#[test]
fn quota_lift_restores_writes_without_reopen() {
    let (_d, dm) = disk();
    let f = dm.create_file().unwrap();
    dm.set_quota(Some(0));
    assert!(dm.append_page(f, &Page::zeroed()).is_err());
    dm.set_quota(None);
    dm.append_page(f, &Page::zeroed()).unwrap();
    assert_eq!(dm.num_pages(f).unwrap(), 1);
}

#[test]
fn cached_pool_surfaces_nospace_at_flush_and_stays_consistent() {
    let (_d, dm) = disk();
    dm.set_quota(Some(PAGE_SIZE as u64));
    let pool = BufferPool::new(dm.clone(), 8);
    let f = pool.create_file().unwrap();
    // Two buffered appends fit in the frame table; the quota bites when
    // the pool writes them back.
    pool.append_page(f, &Page::zeroed()).unwrap();
    pool.append_page(f, &Page::zeroed()).unwrap();
    let err = pool.flush_file(f).unwrap_err();
    assert!(matches!(err, StorageError::NoSpace { .. }), "{err}");
    assert_eq!(dm.used_bytes(), PAGE_SIZE as u64, "first page landed");
    // Lifting the quota lets the remaining dirty frame drain.
    dm.set_quota(None);
    pool.flush_file(f).unwrap();
    assert_eq!(dm.num_pages(f).unwrap(), 2);
}

/// A buffered append (or extending write) whose eviction victim cannot be
/// written back fails *without growing the file*: the retry lands on the
/// same page number, and the file ends up byte-identical to one written
/// without a cache. Growing first left a logical page with no frame, and
/// every later append then sat beyond a hole the disk refuses to write.
#[test]
fn refused_victim_write_back_does_not_grow_the_file() {
    type Extend = fn(&BufferPool, qsr_storage::FileId, &Page) -> qsr_storage::Result<u64>;
    let by_append: Extend = |pool, f, page| pool.append_page(f, page);
    let by_write: Extend = |pool, f, page| {
        let at = pool.num_pages(f)?;
        pool.write_page(f, at, page).map(|()| at)
    };
    let stamped = |v: u32| {
        let mut p = Page::zeroed();
        p.write_u32(0, v);
        p
    };
    for extend in [by_append, by_write] {
        let (_d, dm) = disk();
        dm.set_quota(Some(PAGE_SIZE as u64));
        let pool = BufferPool::new(dm.clone(), 2);
        let f = pool.create_file().unwrap();
        // Pages 0 and 1 fill the pool; page 2 evicts page 0, which fits
        // the quota; page 3 needs page 1 written back, which does not.
        for v in 0..3 {
            assert_eq!(extend(&pool, f, &stamped(v)).unwrap(), v as u64);
        }
        let err = extend(&pool, f, &stamped(3)).unwrap_err();
        assert!(matches!(err, StorageError::NoSpace { .. }), "{err}");
        assert_eq!(pool.num_pages(f).unwrap(), 3, "the file did not grow");

        dm.set_quota(None);
        assert_eq!(extend(&pool, f, &stamped(3)).unwrap(), 3, "the retry");
        assert_eq!(extend(&pool, f, &stamped(4)).unwrap(), 4);
        pool.flush_all().unwrap();

        let (_d2, plain_dm) = disk();
        let plain = BufferPool::passthrough(plain_dm.clone());
        let g = plain.create_file().unwrap();
        for v in 0..5 {
            plain.append_page(g, &stamped(v)).unwrap();
        }
        assert_eq!(dm.num_pages(f).unwrap(), 5);
        for p in 0..5 {
            assert!(
                dm.read_page(f, p).unwrap().bytes() == plain_dm.read_page(g, p).unwrap().bytes(),
                "page {p} differs from the uncached file"
            );
        }
    }
}
