//! The `Database`: a directory bundling the disk manager, catalog, cost
//! ledger, and blob store — the single handle higher layers hold.

use crate::backend::{
    BackendKind, LocalDiskBackend, MemoryBackend, RemoteMockBackend, RobustBackend, SuspendBackend,
};
use crate::backoff::RESUME_BACKOFF;
use crate::blob::BlobStore;
use crate::bufpool::BufferPool;
use crate::catalog::{Catalog, TableInfo};
use crate::cost::{CostLedger, CostModel};
use crate::disk::DiskManager;
use crate::error::Result;
use crate::heap::HeapFile;
use crate::index::{IndexMeta, SortedIndex};
use crate::trace::Tracer;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

/// A database instance rooted at a directory.
///
/// Cloning the `Arc<Database>` shares all state; the cost ledger is the
/// one place experiments read simulated costs from.
pub struct Database {
    dm: Arc<DiskManager>,
    pool: Arc<BufferPool>,
    runs: Arc<BufferPool>,
    catalog: Mutex<Catalog>,
    blobs: BlobStore,
    /// Where suspend state (dump blobs + manifests) lives. Opens on the
    /// local disk; [`Database::install_backend`] or
    /// [`Database::set_backend`] swaps it.
    backend: Mutex<Arc<dyn SuspendBackend>>,
    /// The strong owner of an installed tracer; the ledger only holds a
    /// weak reference (see [`CostLedger::set_tracer`]).
    tracer: Mutex<Option<Arc<Tracer>>>,
}

impl Database {
    /// Open (or create) a database at `dir` with the given cost model and
    /// no page caching (a capacity-0 passthrough pool): charged I/O is
    /// bit-for-bit what the paper's cost analysis expects.
    pub fn open(dir: impl AsRef<Path>, model: CostModel) -> Result<Arc<Self>> {
        Self::open_with_pool(dir, model, 0)
    }

    /// Open (or create) a database at `dir` with a buffer pool of
    /// `pool_pages` frames shared by every page consumer (`pool_pages`
    /// 0 = uncached passthrough).
    pub fn open_with_pool(
        dir: impl AsRef<Path>,
        model: CostModel,
        pool_pages: usize,
    ) -> Result<Arc<Self>> {
        let ledger = CostLedger::new(model);
        let dm = Arc::new(DiskManager::open(dir.as_ref(), ledger)?);
        let pool = BufferPool::new(dm.clone(), pool_pages);
        let catalog = Mutex::new(Catalog::open(dir.as_ref())?);
        let blobs = BlobStore::new(pool.clone());
        let backend: Arc<dyn SuspendBackend> =
            Arc::new(LocalDiskBackend::new(blobs.clone(), dm.clone()));
        Ok(Arc::new(Self {
            runs: BufferPool::passthrough(dm.clone()),
            dm,
            pool,
            catalog,
            blobs,
            backend: Mutex::new(backend),
            tracer: Mutex::new(None),
        }))
    }

    /// Install the suspend backend selected by `kind`, constructed over
    /// this database's blob store and disk manager. `Remote` builds the
    /// full robustness stack: a [`RemoteMockBackend`] primary (seeded
    /// deterministically, zero injected latency until scripted) with the
    /// local disk as sticky failover target.
    pub fn install_backend(self: &Arc<Self>, kind: BackendKind) -> Arc<dyn SuspendBackend> {
        let local =
            || Arc::new(LocalDiskBackend::new(self.blobs.clone(), self.dm.clone()));
        let backend: Arc<dyn SuspendBackend> = match kind {
            BackendKind::Local => local(),
            BackendKind::Memory => Arc::new(MemoryBackend::new()),
            BackendKind::Remote => Arc::new(RobustBackend::new(
                Arc::new(RemoteMockBackend::new(local(), 0)),
                Some(local()),
                RESUME_BACKOFF,
                Some(self.ledger().clone()),
            )),
        };
        self.set_backend(backend.clone());
        backend
    }

    /// Swap in a suspend backend (tests and the oracle script custom
    /// fault-injected stacks this way).
    pub fn set_backend(&self, backend: Arc<dyn SuspendBackend>) {
        *self.backend.lock() = backend;
    }

    /// The suspend backend all suspend/resume/GC I/O goes through.
    pub fn backend(&self) -> Arc<dyn SuspendBackend> {
        self.backend.lock().clone()
    }

    /// Install (or with `None`, remove) a tracer. The database owns the
    /// strong reference; the cost ledger gets a weak one so every layer
    /// with ledger access can emit. With no tracer installed, emit sites
    /// cost one atomic load and ledger totals are bit-identical to a
    /// build that never heard of tracing.
    pub fn install_tracer(&self, tracer: Option<Arc<Tracer>>) {
        match &tracer {
            Some(t) => self.ledger().set_tracer(t),
            None => self.ledger().clear_tracer(),
        }
        *self.tracer.lock() = tracer;
    }

    /// The installed tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.lock().clone()
    }

    /// Open with the default (paper-calibrated) cost model.
    pub fn open_default(dir: impl AsRef<Path>) -> Result<Arc<Self>> {
        Self::open(dir, CostModel::default())
    }

    /// The disk manager.
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.dm
    }

    /// The shared buffer pool table, index and blob pages go through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The capacity-0 pool run files (sort sublists, join and aggregate
    /// partitions) go through, whatever the shared pool's size: a run is
    /// written once and read back in order, so caching it would only evict
    /// table pages, and its pages leave the process in extents as they
    /// are written (`DESIGN.md` §11).
    pub fn run_pool(&self) -> &Arc<BufferPool> {
        &self.runs
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        self.dm.ledger()
    }

    /// The blob store (dump files, SuspendedQuery structures).
    pub fn blobs(&self) -> &BlobStore {
        &self.blobs
    }

    /// Run `f` with read access to the catalog.
    pub fn with_catalog<T>(&self, f: impl FnOnce(&Catalog) -> T) -> T {
        f(&self.catalog.lock())
    }

    /// Run `f` with write access to the catalog.
    pub fn with_catalog_mut<T>(&self, f: impl FnOnce(&mut Catalog) -> Result<T>) -> Result<T> {
        f(&mut self.catalog.lock())
    }

    /// Table metadata by name.
    pub fn table(&self, name: &str) -> Result<TableInfo> {
        self.with_catalog(|c| c.table(name).cloned())
    }

    /// Open the heap file of a table.
    pub fn open_table_heap(&self, name: &str) -> Result<HeapFile> {
        let info = self.table(name)?;
        Ok(HeapFile::open(self.pool.clone(), info.file, info.tuple_count))
    }

    /// Open a sorted index of a table on the given column index.
    pub fn open_table_index(&self, name: &str, column: usize) -> Result<SortedIndex> {
        let info = self.table(name)?;
        let meta: IndexMeta = info
            .indexes
            .iter()
            .find(|(c, _)| *c == column)
            .map(|(_, m)| *m)
            .ok_or_else(|| {
                crate::error::StorageError::NotFound(format!(
                    "index on column {column} of table '{name}'"
                ))
            })?;
        Ok(SortedIndex::open(self.pool.clone(), meta))
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("dir", &self.dm.dir())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::tuple::Tuple;
    use crate::value::{DataType, Value};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-db-test-{}-{}",
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
    fn create_table_and_scan_via_db_handle() {
        let d = TempDir::new();
        let db = Database::open_default(&d.0).unwrap();

        let schema = Schema::new(vec![Column::new("key", DataType::Int)]);
        let mut heap = HeapFile::create(db.pool().clone()).unwrap();
        for k in 0..50 {
            heap.append(&Tuple::new(vec![Value::Int(k)])).unwrap();
        }
        heap.finish().unwrap();
        db.with_catalog_mut(|c| {
            c.create_table(TableInfo {
                name: "r".into(),
                file: heap.file_id(),
                schema: schema.clone(),
                tuple_count: heap.tuple_count(),
                indexes: vec![],
                sorted_on: None,
            })
        })
        .unwrap();

        let h = db.open_table_heap("r").unwrap();
        let mut c = h.cursor();
        let mut n = 0;
        while c.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
        assert!(db.open_table_index("r", 0).is_err());
    }

    #[test]
    fn database_reopens_with_catalog() {
        let d = TempDir::new();
        {
            let db = Database::open_default(&d.0).unwrap();
            let mut heap = HeapFile::create(db.pool().clone()).unwrap();
            heap.append(&Tuple::new(vec![Value::Int(1)])).unwrap();
            heap.finish().unwrap();
            db.with_catalog_mut(|c| {
                c.create_table(TableInfo {
                    name: "t".into(),
                    file: heap.file_id(),
                    schema: Schema::new(vec![Column::new("key", DataType::Int)]),
                    tuple_count: 1,
                    indexes: vec![],
                    sorted_on: None,
                })
            })
            .unwrap();
        }
        let db = Database::open_default(&d.0).unwrap();
        assert_eq!(db.table("t").unwrap().tuple_count, 1);
        let h = db.open_table_heap("t").unwrap();
        assert_eq!(
            h.cursor().next().unwrap().unwrap(),
            Tuple::new(vec![Value::Int(1)])
        );
    }
}
