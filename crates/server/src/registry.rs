//! Crash-safe session registry.
//!
//! Every admitted session owns two sidecar files in the shared database
//! directory, both written with the atomic write-temp → fsync → rename
//! protocol:
//!
//! - `session-<id>.meta` — the admission record ([`SessionMeta`]): tenant,
//!   priority, and the encoded plan. Written once at admit, removed when
//!   the session finishes or is shed.
//! - `session-<id>.suspend` — the session's private generation-numbered
//!   suspend manifest, committed by the exec driver
//!   ([`QueryExecution::set_manifest_name`]). Giving each session its own
//!   manifest name is what makes N concurrent suspended sessions safe: the
//!   single global `SUSPEND.manifest` would let one session's suspend
//!   garbage-collect another's committed generation.
//!
//! Recovery is a directory scan ([`SessionRegistry::scan`]): every
//! decodable `.meta` sidecar reconstructs one in-flight session, and its
//! suspend manifest (present → resume from that generation; absent →
//! restart from scratch) tells the scheduler where the session left off. A
//! crash at any write ordinal leaves each session with exactly one valid
//! generation — old or new, never a torn mix — because both sidecars
//! commit via rename.
//!
//! [`QueryExecution::set_manifest_name`]: qsr_exec::QueryExecution::set_manifest_name

use qsr_exec::QueryExecution;
use qsr_storage::{
    checksum, verify_checksum, Database, Decode, Decoder, Encode, Encoder, Result, StorageError,
};
use std::fmt;
use std::sync::Arc;

/// Prefix shared by all session sidecars (the recovery scan's filter key).
pub const SESSION_PREFIX: &str = "session-";

/// Magic number opening a serialized session meta record ("QSSN" LE).
const META_MAGIC: u32 = 0x4e53_5351;

/// Session meta codec version.
const META_VERSION: u32 = 1;

/// Identifier of one admitted session, unique within a server directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// The durable admission record of one session. Everything recovery needs
/// to reconstruct the session lives here; the suspend manifest (if any)
/// supplies the execution state itself.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session identifier (also embedded in the sidecar names).
    pub id: u64,
    /// Owning tenant, for fairness accounting and reporting.
    pub tenant: String,
    /// Scheduling priority; higher is more important. The server-level
    /// degradation ladder sheds the lowest-priority session first.
    pub priority: u32,
    /// The session's `PlanSpec`, encoded — recovery restarts a session
    /// that never committed a suspend from this plan.
    pub plan_bytes: Vec<u8>,
}

// Framed like `SuspendManifest`: magic, version, checksum, length-prefixed
// body, so a torn or bit-flipped sidecar decodes to a clean error instead
// of a garbage session.
impl Encode for SessionMeta {
    fn encode(&self, enc: &mut Encoder) {
        let mut body = Encoder::new();
        body.put_u64(self.id);
        body.put_str(&self.tenant);
        body.put_u32(self.priority);
        body.put_bytes(&self.plan_bytes);
        let body = body.finish();
        enc.put_u32(META_MAGIC);
        enc.put_u32(META_VERSION);
        enc.put_u64(checksum(&body));
        enc.put_bytes(&body);
    }
}

impl Decode for SessionMeta {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let magic = dec.get_u32()?;
        if magic != META_MAGIC {
            return Err(StorageError::corrupt(format!(
                "not a session meta record: bad magic {magic:#010x}"
            )));
        }
        let version = dec.get_u32()?;
        if version != META_VERSION {
            return Err(StorageError::VersionMismatch {
                what: "SessionMeta".into(),
                expected: META_VERSION,
                actual: version,
            });
        }
        let expected = dec.get_u64()?;
        let body = dec.get_bytes()?;
        verify_checksum("SessionMeta body", body, expected)?;
        let mut bdec = Decoder::new(body);
        let m = SessionMeta {
            id: bdec.get_u64()?,
            tenant: bdec.get_str()?,
            priority: bdec.get_u32()?,
            plan_bytes: bdec.get_bytes()?.to_vec(),
        };
        if !bdec.is_exhausted() {
            return Err(StorageError::corrupt(format!(
                "SessionMeta body: {} trailing bytes",
                bdec.remaining()
            )));
        }
        Ok(m)
    }
}

/// The registry: admit/remove/scan over the per-session sidecars of one
/// database directory.
pub struct SessionRegistry {
    db: Arc<Database>,
}

impl SessionRegistry {
    /// Attach to (not create — the sidecars are the registry) a database
    /// directory.
    pub fn new(db: Arc<Database>) -> Self {
        Self { db }
    }

    /// Sidecar name of a session's admission record.
    pub fn meta_name(id: SessionId) -> String {
        format!("{SESSION_PREFIX}{}.meta", id.0)
    }

    /// Sidecar name of a session's private suspend manifest.
    pub fn manifest_name(id: SessionId) -> String {
        format!("{SESSION_PREFIX}{}.suspend", id.0)
    }

    /// Durably admit a session: atomically write its meta sidecar. After
    /// this returns, a crash at any point reconstructs the session.
    pub fn admit(&self, meta: &SessionMeta) -> Result<()> {
        self.db
            .disk()
            .write_sidecar_atomic(&Self::meta_name(SessionId(meta.id)), &meta.encode_to_vec())
    }

    /// Read one session's admission record (`Ok(None)` when not admitted).
    pub fn read_meta(&self, id: SessionId) -> Result<Option<SessionMeta>> {
        match self.db.disk().read_sidecar(&Self::meta_name(id))? {
            None => Ok(None),
            Some(b) => SessionMeta::decode_from_slice(&b).map(Some),
        }
    }

    /// Remove a session from the registry: retire its committed suspend
    /// generation (manifest + blobs), then delete the meta sidecar. The
    /// meta removal is last so a crash mid-removal still leaves the
    /// session discoverable (re-removal is idempotent).
    pub fn remove(&self, id: SessionId) -> Result<()> {
        QueryExecution::retire_generation_named(&self.db, &Self::manifest_name(id))?;
        self.db.disk().remove_sidecar(&Self::meta_name(id))
    }

    /// Recovery scan: decode every admitted session's meta record, sorted
    /// by session id. An undecodable meta sidecar is a hard error — it
    /// means a non-atomic write path touched the registry, which the
    /// commit protocol rules out.
    pub fn scan(&self) -> Result<Vec<SessionMeta>> {
        let mut out = Vec::new();
        for name in self.db.disk().list_sidecars(SESSION_PREFIX)? {
            if !name.ends_with(".meta") {
                continue;
            }
            let Some(bytes) = self.db.disk().read_sidecar(&name)? else {
                continue;
            };
            out.push(SessionMeta::decode_from_slice(&bytes)?);
        }
        out.sort_by_key(|m| m.id);
        Ok(out)
    }
}
