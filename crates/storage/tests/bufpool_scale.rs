//! The buffer pool at sizes and thread counts its unit tests do not reach:
//! what a miss costs must not depend on how many frames the pool holds,
//! and several threads sharing a small pool must lose nothing.

use qsr_storage::{BufferPool, CostLedger, CostModel, DiskManager, FileId, Page};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

struct TempDir(PathBuf);
impl TempDir {
    fn new() -> Self {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let p = std::env::temp_dir().join(format!(
            "qsr-bufpool-scale-{}-{}",
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

fn disk(dir: &TempDir) -> Arc<DiskManager> {
    Arc::new(DiskManager::open(&dir.0, CostLedger::new(CostModel::symmetric(1.0))).unwrap())
}

/// Page `page_no` of the file `tag` names, recognisable at both ends.
fn page_of(tag: u32, page_no: u64) -> Page {
    let mut p = Page::zeroed();
    p.write_u32(0, tag);
    p.write_u32(4, page_no as u32);
    p.write_u32(qsr_storage::PAGE_SIZE - 4, tag ^ page_no as u32);
    p
}

/// Streaming a file much larger than the pool makes every read a miss
/// with an eviction. Its cost is the page read plus the pool's own
/// bookkeeping, and the bookkeeping must not grow with the pool: when the
/// victim was found by scanning the frame table, the large pool below was
/// about a hundred times slower per miss than the small one.
#[test]
fn a_miss_costs_the_same_in_a_small_and_a_large_pool() {
    const PAGES: u64 = 20_000;
    const LARGE: usize = 8_192;
    let dir = TempDir::new();
    let dm = disk(&dir);
    let f = dm.create_file().unwrap();
    for p in 0..PAGES {
        dm.append_page(f, &page_of(1, p)).unwrap();
    }
    // Best of three passes, timed only once the pool is full. Reading in
    // page order defeats LRU, so later passes miss on every page too.
    let per_miss = |capacity: usize| -> Duration {
        let pool = BufferPool::new(dm.clone(), capacity);
        let before = dm.ledger().snapshot();
        let best = (0..3)
            .map(|_| {
                for p in 0..LARGE as u64 {
                    pool.read_page(f, p).unwrap();
                }
                let start = Instant::now();
                for p in LARGE as u64..PAGES {
                    assert_eq!(pool.read_page(f, p).unwrap().read_u32(4), p as u32);
                }
                start.elapsed()
            })
            .min()
            .unwrap();
        let cache = dm.ledger().snapshot().since(&before).cache;
        assert_eq!((cache.hits, cache.misses), (0, 3 * PAGES));
        assert_eq!(cache.evictions, 3 * PAGES - capacity as u64);
        best / (PAGES as u32 - LARGE as u32)
    };
    let (small, large) = (per_miss(64), per_miss(LARGE));
    assert!(
        large < 3 * small,
        "per miss: {large:?} with {LARGE} frames, {small:?} with 64"
    );
}

/// Four threads share a 32-frame pool. Each appends to its own file and
/// reads its own earlier pages back — many of them evicted, dirty, by the
/// other threads in the meantime — and all scan one read-only file.
#[test]
fn threads_sharing_a_small_pool_lose_no_page() {
    const THREADS: u32 = 4;
    const ROUNDS: u64 = 400;
    const SHARED_PAGES: u64 = 96;
    const SHARED_TAG: u32 = 99;
    let dir = TempDir::new();
    let dm = disk(&dir);
    let pool = BufferPool::new(dm.clone(), 32);
    let shared = pool.create_file().unwrap();
    for p in 0..SHARED_PAGES {
        pool.append_page(shared, &page_of(SHARED_TAG, p)).unwrap();
    }
    pool.flush_file(shared).unwrap();
    let own: Vec<FileId> = (0..THREADS).map(|_| pool.create_file().unwrap()).collect();

    let before = dm.ledger().snapshot();
    let start = Barrier::new(THREADS as usize);
    let reads: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, start, f) = (&pool, &start, own[t as usize]);
                s.spawn(move || {
                    let check = |file, tag, p: u64| {
                        let page = pool.read_page(file, p).unwrap();
                        assert!(page.bytes() == page_of(tag, p).bytes(), "{file} page {p}");
                    };
                    start.wait();
                    for i in 0..ROUNDS {
                        assert_eq!(pool.append_page(f, &page_of(t, i)).unwrap(), i);
                        check(f, t, i);
                        check(f, t, i / 2);
                        check(f, t, i * 7 % (i + 1));
                        check(shared, SHARED_TAG, (i * 13 + t as u64) % SHARED_PAGES);
                    }
                    4 * ROUNDS
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let cache = dm.ledger().snapshot().since(&before).cache;
    assert_eq!(cache.hits + cache.misses, reads);
    assert!(pool.cached_frames() <= 32);

    // After a flush, a fresh process finds every file exactly as a run
    // without a cache would have written it.
    pool.flush_all().unwrap();
    assert_eq!(pool.flush_all().unwrap(), 0, "nothing is left dirty");
    drop(pool);
    drop(dm);
    let reopened = disk(&dir);
    let twin_dir = TempDir::new();
    let twin = BufferPool::passthrough(disk(&twin_dir));
    let files = std::iter::once((shared, SHARED_TAG, SHARED_PAGES))
        .chain(own.iter().zip(0..).map(|(&f, t)| (f, t, ROUNDS)));
    for (f, tag, pages) in files {
        let g = twin.create_file().unwrap();
        assert_eq!(reopened.num_pages(f).unwrap(), pages);
        for p in 0..pages {
            twin.append_page(g, &page_of(tag, p)).unwrap();
            assert!(
                reopened.read_page(f, p).unwrap().bytes() == twin.read_page(g, p).unwrap().bytes(),
                "{f} page {p} differs from its uncached twin"
            );
        }
    }
}
