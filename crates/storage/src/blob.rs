//! Blob store: arbitrary byte payloads written page-by-page.
//!
//! Blobs carry the two kinds of suspend-time output in the paper:
//! dumped operator heap state (the DumpState strategy) and the serialized
//! `SuspendedQuery` structure itself. Writing a blob charges
//! `ceil(len / PAGE_SIZE)` page writes; reading charges the same in reads —
//! this is where the suspend/resume cost of DumpState comes from.

use crate::bufpool::BufferPool;
use crate::checksum::{checksum, verify_checksum};
use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::disk::FileId;
use crate::error::{Result, StorageError};
use crate::page::{Page, PAGE_SIZE};
use std::sync::Arc;

/// Identifier of a stored blob. Carries the payload's [`checksum`] so
/// any on-disk corruption is detected at read time — dumped operator heap
/// state and `SuspendedQuery` structures must never silently decode into
/// garbage positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlobId {
    /// Backing file.
    pub file: FileId,
    /// Exact payload length in bytes.
    pub len: u64,
    /// [`checksum`] of the payload (FNV-1a in ids minted by builds that
    /// predate it; [`verify_checksum`] accepts both).
    pub checksum: u64,
}

impl Encode for BlobId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.file.0);
        enc.put_u64(self.len);
        enc.put_u64(self.checksum);
    }
}

impl Decode for BlobId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(BlobId {
            file: FileId(dec.get_u64()?),
            len: dec.get_u64()?,
            checksum: dec.get_u64()?,
        })
    }
}

/// Page-charged blob storage routed through the shared [`BufferPool`].
#[derive(Clone)]
pub struct BlobStore {
    pool: Arc<BufferPool>,
}

impl BlobStore {
    /// Create a blob store over `pool`.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self { pool }
    }

    /// Write `bytes` as a new blob. Charges one page write per page. If a
    /// page write fails (disk quota, injected fault), the partial backing
    /// file is deleted best-effort so a rejected blob never leaks an
    /// unreferenced file — the degradation ladder retries with a cheaper
    /// plan and must start from accounted-for state.
    pub fn put(&self, bytes: &[u8]) -> Result<BlobId> {
        let file = self.pool.create_file()?;
        // One page buffer for the whole blob; only the last chunk can be
        // short, so only it needs its slack re-zeroed.
        let mut page = Page::zeroed();
        for chunk in bytes.chunks(PAGE_SIZE) {
            let (body, slack) = page.bytes_mut().split_at_mut(chunk.len());
            body.copy_from_slice(chunk);
            slack.fill(0);
            if let Err(e) = self.pool.append_page(file, &page) {
                let _ = self.pool.delete_file(file);
                return Err(e);
            }
        }
        Ok(BlobId {
            file,
            len: bytes.len() as u64,
            checksum: checksum(bytes),
        })
    }

    /// Read a blob back. Charges one page read per page.
    pub fn get(&self, id: BlobId) -> Result<Vec<u8>> {
        let pages = self.pool.num_pages(id.file)?;
        let expected_pages = crate::page::pages_for_bytes(id.len as usize);
        if pages < expected_pages {
            return Err(StorageError::corrupt(format!(
                "blob {:?} expects {expected_pages} pages, file has {pages}",
                id
            )));
        }
        let mut out = Vec::with_capacity(id.len as usize);
        for p in 0..expected_pages {
            let page = self.pool.read_page(id.file, p)?;
            let remaining = id.len as usize - out.len();
            let take = remaining.min(PAGE_SIZE);
            out.extend_from_slice(&page.bytes()[..take]);
        }
        verify_checksum(format_args!("blob {:?}", id.file), &out, id.checksum)?;
        Ok(out)
    }

    /// Flush a blob's backing file to stable storage. Part of the suspend
    /// commit protocol: every dump blob is synced before the manifest that
    /// references it is renamed into place.
    pub fn sync(&self, id: BlobId) -> Result<()> {
        self.pool.sync_file(id.file)
    }

    /// Delete a blob.
    pub fn delete(&self, id: BlobId) -> Result<()> {
        self.pool.delete_file(id.file)
    }

    /// Encode a value and store it as a blob.
    pub fn put_value<T: Encode>(&self, value: &T) -> Result<BlobId> {
        self.put(&value.encode_to_vec())
    }

    /// Load and decode a blob stored by [`BlobStore::put_value`].
    pub fn get_value<T: Decode>(&self, id: BlobId) -> Result<T> {
        T::decode_from_slice(&self.get(id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostLedger, CostModel, Phase};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "qsr-blob-test-{}-{}",
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

    fn store() -> (TempDir, BlobStore, Arc<crate::disk::DiskManager>) {
        let d = TempDir::new();
        let dm = Arc::new(
            crate::disk::DiskManager::open(&d.0, CostLedger::new(CostModel::symmetric(1.0)))
                .unwrap(),
        );
        (d, BlobStore::new(BufferPool::passthrough(dm.clone())), dm)
    }

    #[test]
    fn roundtrip_small_and_multi_page() {
        let (_d, bs, _) = store();
        for len in [0usize, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 3 * PAGE_SIZE + 17] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let id = bs.put(&data).unwrap();
            assert_eq!(bs.get(id).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn put_charges_page_writes() {
        let (_d, bs, dm) = store();
        let before = dm.ledger().snapshot();
        bs.put(&vec![7u8; 2 * PAGE_SIZE + 1]).unwrap();
        let delta = dm.ledger().snapshot().since(&before);
        assert_eq!(delta.phase(Phase::Execute).pages_written, 3);
    }

    #[test]
    fn typed_values_roundtrip() {
        let (_d, bs, _) = store();
        let v = "suspended-query".to_string();
        let id = bs.put_value(&v).unwrap();
        assert_eq!(bs.get_value::<String>(id).unwrap(), v);
    }

    #[test]
    fn deleted_blob_is_gone() {
        let (_d, bs, _) = store();
        let id = bs.put(b"x").unwrap();
        bs.delete(id).unwrap();
        assert!(bs.get(id).is_err());
    }

    #[test]
    fn blob_id_roundtrips_through_codec() {
        use crate::codec::roundtrip;
        let id = BlobId {
            file: FileId(9),
            len: 12345,
            checksum: 0xDEAD_BEEF,
        };
        assert_eq!(roundtrip(&id).unwrap(), id);
    }
}
