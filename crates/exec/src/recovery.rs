//! Crash recovery for suspended queries.
//!
//! The suspend phase commits through a **generation-numbered manifest**: a
//! small sidecar file next to the page files, replaced atomically
//! (write-temp → fsync → rename → directory fsync) once the
//! `SuspendedQuery` blob and every dump blob it references are durable.
//! The manifest is therefore the single commit point — a crash at any
//! suspend-phase write leaves either the previous manifest (old resumable
//! state) or no manifest (clean "no suspend" state), never a torn mix.
//!
//! Recovery ([`QueryExecution::recover`](crate::QueryExecution::recover))
//! reads the manifest, validates the `SuspendedQuery` (frame checksum,
//! codec version, plan decode, catalog compatibility) and resumes it.
//! Transient I/O errors are retried with bounded exponential backoff; a
//! missing or corrupt dump blob degrades to the operator's GoBack fallback
//! records when the suspend phase recorded an admissible contract chain,
//! and surfaces as [`ResumeError::DumpUnavailable`] otherwise.

use qsr_core::OpId;
use qsr_storage::{
    checksum, verify_checksum, BlobId, Database, Decode, Decoder, Encode, Encoder, Result,
    StorageError,
};
use std::fmt;

// Hoisted into `qsr-storage` in PR 9 so the suspend-backend robustness
// layer shares the schedule type; re-exported here for existing callers.
pub use qsr_storage::{with_backoff, with_retries, BackoffSchedule, MAX_RETRIES, RESUME_BACKOFF};

/// Sidecar file name of the suspend manifest.
pub const SUSPEND_MANIFEST: &str = "SUSPEND.manifest";

/// Magic number opening a serialized manifest ("QSRM" little-endian).
const MANIFEST_MAGIC: u32 = 0x4d52_5351;

/// Newest manifest codec version this build reads and writes. v1 carries
/// generation + query blob; v2 appends the delta-chain length and the
/// retained-generation list. A manifest with no chain and no retained
/// generations is written as v1, byte-identical to pre-PR-9 builds.
const MANIFEST_VERSION: u32 = 2;

/// The commit record of a suspend: which `SuspendedQuery` blob is current.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuspendManifest {
    /// Monotone suspend counter for this database directory. Each suspend
    /// commits generation `n + 1` and then garbage-collects generation
    /// `n`'s blobs, except those the new generation's delta chains reach.
    pub generation: u64,
    /// Blob holding the committed `SuspendedQuery`.
    pub query: BlobId,
    /// Longest delta chain under this generation (0 = every dump is a
    /// full checkpoint). Drives compaction and lets tools report resume
    /// depth without decoding the `SuspendedQuery`.
    pub chain_len: u64,
    /// Older generations kept recoverable, newest first: `(generation,
    /// SuspendedQuery blob)`. This build writes it empty; older builds
    /// could keep the last N generations, and their manifests still decode
    /// here. Every blob closure listed (records, fallbacks, delta parents)
    /// is collected by the next commit, by retirement and by the orphan
    /// sweep's keep-set until then.
    pub retained: Vec<(u64, BlobId)>,
}

impl SuspendManifest {
    /// A v1-shaped manifest: no delta chain, nothing retained.
    pub fn new(generation: u64, query: BlobId) -> Self {
        SuspendManifest {
            generation,
            query,
            chain_len: 0,
            retained: Vec::new(),
        }
    }
}

// Framed like `SuspendedQuery`: magic, version, checksum, length-prefixed
// body. A bit flip anywhere in the file decodes to a clean error.
impl Encode for SuspendManifest {
    fn encode(&self, enc: &mut Encoder) {
        let v1 = self.chain_len == 0 && self.retained.is_empty();
        let mut body = Encoder::new();
        body.put_u64(self.generation);
        self.query.encode(&mut body);
        if !v1 {
            body.put_u64(self.chain_len);
            body.put_u32(self.retained.len() as u32);
            for (g, q) in &self.retained {
                body.put_u64(*g);
                q.encode(&mut body);
            }
        }
        let body = body.finish();
        enc.put_u32(MANIFEST_MAGIC);
        enc.put_u32(if v1 { 1 } else { MANIFEST_VERSION });
        enc.put_u64(checksum(&body));
        enc.put_bytes(&body);
    }
}

impl Decode for SuspendManifest {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let magic = dec.get_u32()?;
        if magic != MANIFEST_MAGIC {
            return Err(StorageError::corrupt(format!(
                "not a suspend manifest: bad magic {magic:#010x}"
            )));
        }
        let version = dec.get_u32()?;
        if !(1..=MANIFEST_VERSION).contains(&version) {
            return Err(StorageError::VersionMismatch {
                what: "SuspendManifest".into(),
                expected: MANIFEST_VERSION,
                actual: version,
            });
        }
        let expected = dec.get_u64()?;
        let body = dec.get_bytes()?;
        verify_checksum("SuspendManifest body", body, expected)?;
        let mut bdec = Decoder::new(body);
        let mut m = SuspendManifest::new(bdec.get_u64()?, BlobId::decode(&mut bdec)?);
        if version >= 2 {
            m.chain_len = bdec.get_u64()?;
            let n = bdec.get_u32()? as usize;
            for _ in 0..n {
                let g = bdec.get_u64()?;
                let q = BlobId::decode(&mut bdec)?;
                m.retained.push((g, q));
            }
        }
        if !bdec.is_exhausted() {
            return Err(StorageError::corrupt(format!(
                "SuspendManifest body: {} trailing bytes",
                bdec.remaining()
            )));
        }
        Ok(m)
    }
}

/// Read the committed manifest, if any. `Ok(None)` is the clean "no
/// suspend happened" state.
pub fn read_manifest(db: &Database) -> std::result::Result<Option<SuspendManifest>, ResumeError> {
    read_manifest_named(db, SUSPEND_MANIFEST)
}

/// [`read_manifest`] for an explicitly named manifest sidecar. The
/// multi-session server gives each session its own manifest name, so N
/// suspended sessions commit N independent generation chains in one
/// database directory.
pub fn read_manifest_named(
    db: &Database,
    name: &str,
) -> std::result::Result<Option<SuspendManifest>, ResumeError> {
    let backend = db.backend();
    let bytes = with_retries(|| backend.read_manifest(name)).map_err(ResumeError::Storage)?;
    match bytes {
        None => Ok(None),
        Some(b) => SuspendManifest::decode_from_slice(&b)
            .map(Some)
            .map_err(ResumeError::ManifestCorrupt),
    }
}

/// Atomically commit `manifest` as the current suspend state.
pub fn commit_manifest(db: &Database, manifest: &SuspendManifest) -> Result<()> {
    commit_manifest_named(db, SUSPEND_MANIFEST, manifest)
}

/// [`commit_manifest`] under an explicit manifest sidecar name.
pub fn commit_manifest_named(db: &Database, name: &str, manifest: &SuspendManifest) -> Result<()> {
    db.backend().commit_manifest(name, &manifest.encode_to_vec())
}

/// Remove the manifest, returning the directory to the clean "no suspend"
/// state. Called after a resumed query runs to completion.
pub fn clear_manifest(db: &Database) -> Result<()> {
    clear_manifest_named(db, SUSPEND_MANIFEST)
}

/// [`clear_manifest`] under an explicit manifest sidecar name.
pub fn clear_manifest_named(db: &Database, name: &str) -> Result<()> {
    db.backend().remove_manifest(name)
}

/// Structured resume failures. Everything the resume path can hit maps to
/// one of these, so callers can distinguish "retry elsewhere" from "state
/// is gone" from "wrong database".
#[derive(Debug)]
pub enum ResumeError {
    /// The manifest file exists but does not decode (torn by a crash the
    /// atomic-commit protocol should have prevented, or rotted on disk).
    ManifestCorrupt(StorageError),
    /// The committed `SuspendedQuery` blob is missing, fails its checksum,
    /// or was written by an incompatible codec version.
    SuspendedQueryUnreadable(StorageError),
    /// The plan specification inside the `SuspendedQuery` does not decode.
    IncompatiblePlan(String),
    /// The plan references a table this database does not have.
    MissingTable(String),
    /// An operator's dump blob is missing or corrupt and no GoBack
    /// fallback was recorded for it at suspend time.
    DumpUnavailable {
        /// The operator whose dump is gone.
        op: OpId,
        /// The underlying storage failure.
        source: StorageError,
    },
    /// Any other storage failure (including transient errors that
    /// exhausted their retry budget).
    Storage(StorageError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::ManifestCorrupt(e) => write!(f, "suspend manifest is corrupt: {e}"),
            ResumeError::SuspendedQueryUnreadable(e) => {
                write!(f, "SuspendedQuery is unreadable: {e}")
            }
            ResumeError::IncompatiblePlan(m) => write!(f, "plan spec does not decode: {m}"),
            ResumeError::MissingTable(t) => {
                write!(f, "plan references table '{t}' which this database lacks")
            }
            ResumeError::DumpUnavailable { op, source } => write!(
                f,
                "dump blob for {op} is unavailable and no GoBack fallback exists: {source}"
            ),
            ResumeError::Storage(e) => write!(f, "storage failure during resume: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::ManifestCorrupt(e)
            | ResumeError::SuspendedQueryUnreadable(e)
            | ResumeError::DumpUnavailable { source: e, .. }
            | ResumeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ResumeError {
    fn from(e: StorageError) -> Self {
        ResumeError::Storage(e)
    }
}

// Legacy `Result<_, StorageError>` entry points funnel structured resume
// failures back into the storage error space without losing the message.
impl From<ResumeError> for StorageError {
    fn from(e: ResumeError) -> Self {
        match e {
            ResumeError::ManifestCorrupt(s)
            | ResumeError::SuspendedQueryUnreadable(s)
            | ResumeError::Storage(s) => s,
            ResumeError::IncompatiblePlan(m) => StorageError::corrupt(m),
            ResumeError::MissingTable(t) => StorageError::NotFound(format!("table '{t}'")),
            ResumeError::DumpUnavailable { op, source } => StorageError::corrupt(format!(
                "dump blob for {op} unavailable ({source}) with no fallback"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsr_storage::FileId;

    fn sample() -> SuspendManifest {
        SuspendManifest::new(
            3,
            BlobId {
                file: FileId(12),
                len: 4096,
                checksum: 0xFEED,
            },
        )
    }

    #[test]
    fn manifest_roundtrips_and_detects_damage() {
        let m = sample();
        let bytes = m.encode_to_vec();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            1,
            "no chain, nothing retained: the frame stays v1"
        );
        assert_eq!(SuspendManifest::decode_from_slice(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                SuspendManifest::decode_from_slice(&bad).is_err(),
                "flip at byte {i} decoded silently"
            );
            assert!(
                SuspendManifest::decode_from_slice(&bytes[..i]).is_err(),
                "truncation to {i} bytes decoded silently"
            );
        }
    }

    #[test]
    fn manifest_v2_roundtrips_chain_and_retention() {
        let mut m = sample();
        m.chain_len = 2;
        m.retained = vec![
            (
                2,
                BlobId {
                    file: FileId(9),
                    len: 10,
                    checksum: 0xBEEF,
                },
            ),
            (
                1,
                BlobId {
                    file: FileId(4),
                    len: 20,
                    checksum: 0xCAFE,
                },
            ),
        ];
        let bytes = m.encode_to_vec();
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 2);
        assert_eq!(SuspendManifest::decode_from_slice(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                SuspendManifest::decode_from_slice(&bad).is_err(),
                "flip at byte {i} of a v2 manifest decoded silently"
            );
            assert!(SuspendManifest::decode_from_slice(&bytes[..i]).is_err());
        }
    }
}
