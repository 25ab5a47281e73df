//! # qsr-storage
//!
//! The storage substrate for the `qsr` query engine: a from-scratch paged
//! storage manager playing the role SHORE played for PREDATOR in the paper
//! *Query Suspend and Resume* (SIGMOD 2007).
//!
//! The crate provides:
//!
//! * a row model ([`Value`]/[`ValueRef`], [`DataType`], [`Schema`], and
//!   [`Tuple`] — a row kept as the bytes it has on a page),
//! * a hand-rolled binary codec ([`codec`]) used for tuples, operator
//!   control state, checkpoints, contracts, and the `SuspendedQuery`
//!   structure,
//! * a page-granular [`DiskManager`] whose every read and write is charged
//!   to the active query-lifecycle phase under a configurable [`CostModel`]
//!   (this is the simulated-I/O substitution documented in `DESIGN.md`),
//! * table heaps ([`HeapFile`]), sequential tuple runs ([`RunWriter`] /
//!   [`RunReader`]; sort sublists and hash partitions), dump blobs
//!   ([`BlobStore`]), and a persistent sorted index ([`SortedIndex`]),
//! * a [`Catalog`] persisting table metadata inside a database directory.
//!
//! All higher layers (`qsr-core`, `qsr-exec`) perform I/O exclusively
//! through this crate, so the cost ledger observes every byte that moves —
//! which is what makes the paper's experiments reproducible on any host.

#![forbid(unsafe_code)]

pub mod backend;
pub mod backoff;
pub mod blob;
pub mod bufpool;
pub mod catalog;
pub mod checksum;
pub mod codec;
pub mod colblock;
pub mod cost;
pub mod db;
pub mod delta;
pub mod disk;
pub mod error;
pub mod fault;
pub mod heap;
pub mod index;
pub mod page;
pub mod run;
pub mod schema;
pub mod trace;
pub mod tuple;
pub mod value;

pub use backend::{
    BackendKind, LocalDiskBackend, MemoryBackend, RemoteMockBackend, RobustBackend, SuspendBackend,
    MEMORY_FILE_BASE,
};
pub use backoff::{with_backoff, with_retries, BackoffSchedule, MAX_RETRIES, RESUME_BACKOFF};
pub use blob::{BlobId, BlobStore};
pub use bufpool::BufferPool;
pub use catalog::{Catalog, TableInfo};
pub use checksum::{checksum, fnv1a, verify_checksum};
pub use codec::{Decode, Decoder, Encode, Encoder};
pub use colblock::{KeyedRows, RowBuffer};
pub use cost::{CacheStats, CostLedger, CostModel, CostSnapshot, Phase, PhaseCost};
pub use db::Database;
pub use delta::{is_delta_frame, DeltaDump, COMPACT_CHAIN_LEN, DELTA_MAGIC, DELTA_VERSION};
pub use disk::{DiskManager, FileId};
pub use error::{Result, StorageError};
pub use fault::{
    splitmix64, FaultInjector, FaultSchedule, WriteEvent, WriteFault, WriteKind, WriteOutcome,
    MAX_SCHEDULED_TRANSIENTS,
};
pub use heap::{HeapCursor, HeapFile, TupleAddr};
pub use index::{IndexBuilder, IndexMeta, SortedIndex};
pub use page::{pages_for_bytes, Page, PAGE_SIZE};
pub use run::{delete_run, RunHandle, RunReader, RunWriter};
pub use schema::{Column, Schema};
pub use trace::{install_json_tracer, record_json, TraceEvent, TraceRecord, Tracer};
pub use tuple::{RowRef, Tuple};
pub use value::{DataType, Value, ValueRef};
