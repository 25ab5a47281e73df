//! Delta checkpoint encoding.
//!
//! A repeated suspend of the same session (the preemptive server's steady
//! state) mostly re-dumps bytes that have not changed since the previous
//! committed generation. A [`DeltaDump`] stores only the changed
//! [`PAGE_SIZE`]-granular chunks of an operator's state plus a reference
//! to the *base* blob it diffs against — which may itself be a delta,
//! forming a chain back to the last full checkpoint. Resume replays the
//! chain newest-wins: a chunk present in a newer layer shadows every
//! older one. When a chain reaches [`COMPACT_CHAIN_LEN`] layers the exec
//! layer folds it back into a full dump (compaction) so resume cost stays
//! bounded; that fold is just "write a full dump", so it is crash-safe
//! for free — the old chain stays valid until the new manifest commits.
//!
//! Crucially a delta frame is **self-describing** (own magic + version +
//! whole-frame checksum) and carries the length and checksum of the full
//! state it reconstructs, so a resumed process can tell delta dumps from
//! full dumps without any manifest-side flag and verifies the replayed
//! bytes end-to-end.

use crate::blob::BlobId;
use crate::checksum::{checksum, verify_checksum};
use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Result, StorageError};
use crate::page::PAGE_SIZE;

/// Frame magic for delta dumps ("QSRD" little-endian). Distinct from every
/// other frame magic in the tree so `is_delta_frame` can classify a blob
/// from its first four bytes.
pub const DELTA_MAGIC: u32 = 0x4452_5351;

/// Delta frame codec version this build reads and writes.
pub const DELTA_VERSION: u32 = 1;

/// A delta chain that reaches this many delta layers on top of its full
/// base is folded back into a full checkpoint at the next suspend.
pub const COMPACT_CHAIN_LEN: usize = 3;

/// One delta layer: the chunks of an operator dump that changed relative
/// to `base`, at [`PAGE_SIZE`] granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaDump {
    /// The blob this delta patches — the previous generation's dump for
    /// the same operator (full or itself a delta).
    pub base: BlobId,
    /// Length of the full reconstructed state in bytes.
    pub full_len: u64,
    /// [`checksum`] of the full reconstructed state.
    pub full_checksum: u64,
    /// One slot per [`PAGE_SIZE`] chunk of the full state: `Some(bytes)`
    /// where this generation changed the chunk, `None` where the base's
    /// bytes still stand. The final chunk may be short.
    pub chunks: Vec<Option<Vec<u8>>>,
}

impl DeltaDump {
    /// Diff `new` against `base_bytes` (the fully reconstructed previous
    /// state identified by `base`). Returns `None` when nothing changed
    /// *and* lengths match — the caller can then reuse the base blob
    /// outright instead of writing an empty delta.
    pub fn diff(base_bytes: &[u8], base: BlobId, new: &[u8]) -> Option<DeltaDump> {
        let n_chunks = new.len().div_ceil(PAGE_SIZE);
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut changed = false;
        for i in 0..n_chunks {
            let lo = i * PAGE_SIZE;
            let hi = (lo + PAGE_SIZE).min(new.len());
            let new_chunk = &new[lo..hi];
            let same = base_bytes.len() >= hi && &base_bytes[lo..hi] == new_chunk;
            if same {
                chunks.push(None);
            } else {
                changed = true;
                chunks.push(Some(new_chunk.to_vec()));
            }
        }
        if !changed && base_bytes.len() == new.len() {
            return None;
        }
        Some(DeltaDump {
            base,
            full_len: new.len() as u64,
            full_checksum: checksum(new),
            chunks,
        })
    }

    /// Reconstruct the full state from this layer over `base_bytes` (the
    /// fully reconstructed base — newer layers win by construction since
    /// each layer's `Some` chunks overwrite everything below). Verifies
    /// the end-to-end checksum of the result.
    pub fn apply(&self, base_bytes: &[u8]) -> Result<Vec<u8>> {
        let full_len = self.full_len as usize;
        let mut out = vec![0u8; full_len];
        for (i, chunk) in self.chunks.iter().enumerate() {
            let lo = i * PAGE_SIZE;
            let hi = (lo + PAGE_SIZE).min(full_len);
            match chunk {
                Some(bytes) => {
                    if bytes.len() != hi - lo {
                        return Err(StorageError::corrupt(format!(
                            "delta chunk {i} is {} bytes, expected {}",
                            bytes.len(),
                            hi - lo
                        )));
                    }
                    out[lo..hi].copy_from_slice(bytes);
                }
                None => {
                    if base_bytes.len() < hi {
                        return Err(StorageError::corrupt(format!(
                            "delta chunk {i} inherits from a base of only {} bytes",
                            base_bytes.len()
                        )));
                    }
                    out[lo..hi].copy_from_slice(&base_bytes[lo..hi]);
                }
            }
        }
        verify_checksum("delta-reconstructed dump", &out, self.full_checksum)?;
        Ok(out)
    }

    /// Bytes this layer actually stores (the changed chunks), the number
    /// that decides whether a delta is worth writing over a full dump.
    pub fn changed_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.as_ref().map_or(0, Vec::len))
            .sum()
    }

    /// Serialize to a self-describing frame.
    pub fn encode_to_vec(&self) -> Vec<u8> {
        let mut body = Encoder::new();
        self.base.encode(&mut body);
        body.put_u64(self.full_len);
        body.put_u64(self.full_checksum);
        body.put_usize(self.chunks.len());
        for chunk in &self.chunks {
            match chunk {
                Some(bytes) => {
                    body.put_u8(1);
                    body.put_bytes(bytes);
                }
                None => body.put_u8(0),
            }
        }
        let body = body.finish();
        let mut e = Encoder::with_capacity(body.len() + 24);
        e.put_u32(DELTA_MAGIC);
        e.put_u32(DELTA_VERSION);
        e.put_raw(&body);
        e.put_u64(checksum(&body));
        e.finish()
    }

    /// Decode a frame previously produced by [`DeltaDump::encode_to_vec`].
    pub fn decode_from_bytes(bytes: &[u8]) -> Result<DeltaDump> {
        if !is_delta_frame(bytes) {
            return Err(StorageError::corrupt("not a delta frame"));
        }
        if bytes.len() < 16 {
            return Err(StorageError::corrupt("delta frame truncated"));
        }
        let mut d = Decoder::new(&bytes[4..8]);
        let version = d.get_u32()?;
        if version != DELTA_VERSION {
            return Err(StorageError::VersionMismatch {
                what: "DeltaDump".into(),
                expected: DELTA_VERSION,
                actual: version,
            });
        }
        let body = &bytes[8..bytes.len() - 8];
        let mut tail = Decoder::new(&bytes[bytes.len() - 8..]);
        let expected = tail.get_u64()?;
        verify_checksum("delta frame", body, expected)?;
        let mut d = Decoder::new(body);
        let base = BlobId::decode(&mut d)?;
        let full_len = d.get_u64()?;
        let full_checksum = d.get_u64()?;
        let n = d.get_usize()?;
        let max_chunks = (full_len as usize).div_ceil(PAGE_SIZE);
        // Each chunk slot takes at least its tag byte, so a table larger
        // than the rest of the frame is forged; reject it before reserving.
        if n != max_chunks || n > d.remaining() {
            return Err(StorageError::corrupt(format!(
                "delta frame declares {n} chunks for a {full_len}-byte state"
            )));
        }
        let mut chunks = Vec::with_capacity(n);
        for _ in 0..n {
            match d.get_u8()? {
                0 => chunks.push(None),
                1 => chunks.push(Some(d.get_bytes()?.to_vec())),
                t => return Err(StorageError::corrupt(format!("bad delta chunk tag {t}"))),
            }
        }
        if !d.is_exhausted() {
            return Err(StorageError::corrupt("trailing bytes after delta frame"));
        }
        Ok(DeltaDump {
            base,
            full_len,
            full_checksum,
            chunks,
        })
    }
}

/// True when `bytes` starts with the delta frame magic — the classifier
/// resume uses to tell a delta layer from a full operator dump.
pub fn is_delta_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == DELTA_MAGIC.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::FileId;

    fn id(n: u64) -> BlobId {
        BlobId {
            file: FileId(n),
            len: 0,
            checksum: 0,
        }
    }

    #[test]
    fn diff_apply_roundtrips_growth_shrink_and_mutation() {
        let base: Vec<u8> = (0..3 * PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();

        // Mutate one page, grow by half a page.
        let mut new = base.clone();
        new[PAGE_SIZE + 7] ^= 0xff;
        new.extend(std::iter::repeat_n(9u8, PAGE_SIZE / 2));
        let d = DeltaDump::diff(&base, id(1), &new).unwrap();
        assert_eq!(d.chunks[0], None, "untouched page is inherited");
        assert!(d.chunks[1].is_some(), "mutated page is stored");
        assert!(d.changed_bytes() < new.len(), "delta beats full re-dump");
        assert_eq!(d.apply(&base).unwrap(), new);

        // Shrink below the base length.
        let short = base[..PAGE_SIZE + 10].to_vec();
        let d = DeltaDump::diff(&base, id(1), &short).unwrap();
        assert_eq!(d.apply(&base).unwrap(), short);

        // Identical state: no delta at all, reuse the base.
        assert!(DeltaDump::diff(&base, id(1), &base).is_none());
    }

    #[test]
    fn frame_roundtrips_and_is_classified() {
        let base = vec![1u8; PAGE_SIZE * 2];
        let mut new = base.clone();
        new[0] = 2;
        let d = DeltaDump::diff(&base, id(7), &new).unwrap();
        let bytes = d.encode_to_vec();
        assert!(is_delta_frame(&bytes));
        assert!(!is_delta_frame(&base));
        assert!(!is_delta_frame(b"QSR"));
        let back = DeltaDump::decode_from_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.apply(&base).unwrap(), new);
    }

    #[test]
    fn corruption_is_always_detected() {
        let base = vec![3u8; PAGE_SIZE + 5];
        let mut new = base.clone();
        new[PAGE_SIZE] = 0;
        let d = DeltaDump::diff(&base, id(2), &new).unwrap();
        let bytes = d.encode_to_vec();

        // Every single-bit flip fails to decode or fails to apply cleanly.
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            if let Ok(dd) = DeltaDump::decode_from_bytes(&bad) {
                // Frame checksum covers the body; only the magic/version
                // words sit outside it, and flips there fail above. A
                // surviving decode can only happen if the flip landed in
                // the trailing checksum AND matched — impossible for 1 bit.
                assert!(dd.apply(&base).is_err(), "bit {bit} slipped through");
            }
        }

        // A wrong base reconstructs to a checksum mismatch, not garbage.
        let wrong_base = vec![4u8; PAGE_SIZE + 5];
        assert!(d.apply(&wrong_base).unwrap_err().is_corruption());

        // Truncations never panic.
        for cut in 0..bytes.len() {
            assert!(DeltaDump::decode_from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn version_and_chunk_count_are_validated() {
        let d = DeltaDump::diff(&[0u8; 10], id(1), &[1u8; 10]).unwrap();
        let mut bytes = d.encode_to_vec();
        bytes[4] = 99;
        assert!(matches!(
            DeltaDump::decode_from_bytes(&bytes),
            Err(StorageError::VersionMismatch { expected, actual, .. })
                if expected == DELTA_VERSION && actual == 99
        ));
    }
}
