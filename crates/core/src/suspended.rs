//! The `SuspendedQuery` structure (paper §2): everything needed to resume
//! a suspended query, written to disk (or shipped to another node) at the
//! end of the suspend phase.

use crate::ids::OpId;
use qsr_storage::{
    checksum, verify_checksum, BlobId, BlobStore, Decode, Decoder, Encode, Encoder, Result,
    StorageError,
};
use std::collections::BTreeMap;

/// Magic number opening every serialized [`SuspendedQuery`] ("QSRQ" in
/// little-endian). Anything else is not a suspended query at all.
pub const SUSPENDED_QUERY_MAGIC: u32 = 0x5152_5351;

/// Newest codec version this build writes and reads. v1 was the unframed
/// format (no magic/version/CRC); v2 wraps the body in a length + checksum
/// frame and adds per-operator GoBack fallback records; v3 appends the
/// delta-chain dependency section. A structure with no delta chains is
/// written as v2, byte-identical to pre-delta builds, and v2 frames decode
/// with empty `delta_deps` — only structures that actually carry deltas
/// pay the new section.
pub const SUSPENDED_QUERY_VERSION: u32 = 3;

/// Oldest codec version this build still reads.
pub const SUSPENDED_QUERY_MIN_VERSION: u32 = 2;

/// The per-operator suspend strategy (paper §3: DumpState / GoBack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Write heap state to disk now; read it back at resume.
    Dump,
    /// Discard heap state; at resume, rebuild it by enforcing the contract
    /// chain that starts at operator `to`'s latest checkpoint (`to` may be
    /// the operator itself).
    GoBack {
        /// The ancestor (or self) whose checkpoint anchors the chain.
        to: OpId,
    },
}

impl Encode for Strategy {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Strategy::Dump => enc.put_u8(0),
            Strategy::GoBack { to } => {
                enc.put_u8(1);
                to.encode(enc);
            }
        }
    }
}

impl Decode for Strategy {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            0 => Ok(Strategy::Dump),
            1 => Ok(Strategy::GoBack {
                to: OpId::decode(dec)?,
            }),
            t => Err(StorageError::corrupt(format!("bad strategy tag {t}"))),
        }
    }
}

/// A complete suspend plan: one strategy per operator (paper Table 1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuspendPlan {
    decisions: BTreeMap<OpId, Strategy>,
}

impl SuspendPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the strategy for `op`.
    pub fn set(&mut self, op: OpId, strategy: Strategy) {
        self.decisions.insert(op, strategy);
    }

    /// Strategy for `op`; defaults to [`Strategy::Dump`] when unspecified
    /// (the conservative choice — always valid).
    pub fn get(&self, op: OpId) -> Strategy {
        self.decisions.get(&op).copied().unwrap_or(Strategy::Dump)
    }

    /// All explicit decisions, in operator order.
    pub fn decisions(&self) -> impl Iterator<Item = (OpId, Strategy)> + '_ {
        self.decisions.iter().map(|(&o, &s)| (o, s))
    }

    /// Number of explicit decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True if no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Count of operators choosing GoBack.
    pub fn num_goback(&self) -> usize {
        self.decisions
            .values()
            .filter(|s| matches!(s, Strategy::GoBack { .. }))
            .count()
    }
}

impl Encode for SuspendPlan {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.decisions.len() as u32);
        for (op, s) in &self.decisions {
            op.encode(enc);
            s.encode(enc);
        }
    }
}

impl Decode for SuspendPlan {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        let mut plan = SuspendPlan::new();
        for _ in 0..n {
            let op = OpId::decode(dec)?;
            let s = Strategy::decode(dec)?;
            plan.set(op, s);
        }
        Ok(plan)
    }
}

/// Per-operator entry in the `SuspendedQuery` structure.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSuspendRecord {
    /// The operator.
    pub op: OpId,
    /// The strategy carried out at suspend.
    pub strategy: Strategy,
    /// Control state to resume at. For Dump this is the state to restore
    /// directly; for GoBack it is the roll-forward *target* (§3.3,
    /// skipping versus redoing).
    pub resume_point: Vec<u8>,
    /// Location of the dumped heap state (Dump only).
    pub heap_dump: Option<BlobId>,
    /// Tuples saved by contract migration, to be emitted first on resume
    /// (footnote 3 of the paper).
    pub saved_tuples: Vec<Vec<u8>>,
    /// Operator-specific extra bytes (e.g. run handles, phase markers).
    pub aux: Vec<u8>,
}

impl Encode for OpSuspendRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.op.encode(enc);
        self.strategy.encode(enc);
        enc.put_bytes(&self.resume_point);
        enc.put_option(&self.heap_dump);
        enc.put_seq(&self.saved_tuples);
        enc.put_bytes(&self.aux);
    }
}

impl Decode for OpSuspendRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(OpSuspendRecord {
            op: OpId::decode(dec)?,
            strategy: Strategy::decode(dec)?,
            resume_point: dec.get_bytes()?.to_vec(),
            heap_dump: dec.get_option()?,
            saved_tuples: dec.get_seq()?,
            aux: dec.get_bytes()?.to_vec(),
        })
    }
}

/// Everything needed to resume a suspended query (paper Figure 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SuspendedQuery {
    /// The serialized execution plan (a `qsr-exec` `PlanSpec`); the resumed
    /// query uses the same plan (paper assumption 1).
    pub plan_bytes: Vec<u8>,
    /// The suspend plan that was carried out.
    pub suspend_plan: SuspendPlan,
    /// Per-operator resume records.
    pub records: BTreeMap<OpId, OpSuspendRecord>,
    /// The serialized contract graph, kept so a resumed query can be
    /// suspended again immediately with full flexibility (§3.3,
    /// "Suspend During or After Resume").
    pub graph_bytes: Option<Vec<u8>>,
    /// Number of result tuples the query had already delivered; resume
    /// continues with tuple `tuples_emitted + 1`.
    pub tuples_emitted: u64,
    /// Per-operator cumulative-work snapshot at suspend time, restored on
    /// resume so a later re-suspension still has correct `g^r` baselines.
    pub work_snapshot: Vec<(OpId, f64)>,
    /// Degradation plan: for operators whose primary strategy is Dump but
    /// whose contract admits GoBack, the complete alternative record set
    /// that resume substitutes when the dump blob turns out to be missing
    /// or corrupt. Keyed by the operator whose dump the fallback replaces;
    /// the value covers every operator whose record differs under the
    /// fallback (the operator itself plus repositioned children).
    pub fallbacks: BTreeMap<OpId, Vec<OpSuspendRecord>>,
    /// For operators whose `heap_dump` is a delta layer: the parent blobs
    /// the layer patches, base-first (full checkpoint, then each older
    /// delta). Resume replays `deps + [heap_dump]` newest-wins; generation
    /// GC must keep every blob listed here alive as long as this
    /// generation is recoverable. Empty for full dumps and pre-delta
    /// structures.
    pub delta_deps: BTreeMap<OpId, Vec<BlobId>>,
}

impl SuspendedQuery {
    /// Insert a per-operator record.
    pub fn put_record(&mut self, rec: OpSuspendRecord) {
        self.records.insert(rec.op, rec);
    }

    /// Fetch the record for `op`.
    pub fn record(&self, op: OpId) -> Result<&OpSuspendRecord> {
        self.records
            .get(&op)
            .ok_or_else(|| StorageError::NotFound(format!("suspend record for {op}")))
    }

    /// Persist to the blob store; charges page writes to the active phase
    /// (this is the "write SuspendedQuery to disk" step of §3.2).
    pub fn save(&self, blobs: &BlobStore) -> Result<BlobId> {
        blobs.put_value(self)
    }

    /// Load a previously saved structure.
    pub fn load(blobs: &BlobStore, id: BlobId) -> Result<SuspendedQuery> {
        blobs.get_value(id)
    }
}

impl SuspendedQuery {
    fn encode_body(&self, enc: &mut Encoder) {
        enc.put_bytes(&self.plan_bytes);
        self.suspend_plan.encode(enc);
        let recs: Vec<OpSuspendRecord> = self.records.values().cloned().collect();
        enc.put_seq(&recs);
        enc.put_option(&self.graph_bytes);
        enc.put_u64(self.tuples_emitted);
        enc.put_u32(self.work_snapshot.len() as u32);
        for (op, w) in &self.work_snapshot {
            op.encode(enc);
            enc.put_f64(*w);
        }
        enc.put_u32(self.fallbacks.len() as u32);
        for (op, recs) in &self.fallbacks {
            op.encode(enc);
            enc.put_seq(recs);
        }
        // v3 section — only present when a delta chain exists, so frames
        // without deltas stay byte-identical to v2.
        if !self.delta_deps.is_empty() {
            enc.put_u32(self.delta_deps.len() as u32);
            for (op, deps) in &self.delta_deps {
                op.encode(enc);
                enc.put_seq(deps);
            }
        }
    }

    fn decode_body(dec: &mut Decoder<'_>, version: u32) -> Result<Self> {
        let plan_bytes = dec.get_bytes()?.to_vec();
        let suspend_plan = SuspendPlan::decode(dec)?;
        let recs: Vec<OpSuspendRecord> = dec.get_seq()?;
        let mut records = BTreeMap::new();
        for r in recs {
            records.insert(r.op, r);
        }
        let graph_bytes = dec.get_option()?;
        let tuples_emitted = dec.get_u64()?;
        let n = dec.get_u32()? as usize;
        let mut work_snapshot = Vec::with_capacity(n.min(dec.remaining()));
        for _ in 0..n {
            let op = OpId::decode(dec)?;
            let w = dec.get_f64()?;
            work_snapshot.push((op, w));
        }
        let nf = dec.get_u32()? as usize;
        let mut fallbacks = BTreeMap::new();
        for _ in 0..nf {
            let op = OpId::decode(dec)?;
            let recs: Vec<OpSuspendRecord> = dec.get_seq()?;
            fallbacks.insert(op, recs);
        }
        let mut delta_deps = BTreeMap::new();
        if version >= 3 {
            let nd = dec.get_u32()? as usize;
            for _ in 0..nd {
                let op = OpId::decode(dec)?;
                let deps: Vec<BlobId> = dec.get_seq()?;
                delta_deps.insert(op, deps);
            }
        }
        Ok(SuspendedQuery {
            plan_bytes,
            suspend_plan,
            records,
            graph_bytes,
            tuples_emitted,
            work_snapshot,
            fallbacks,
            delta_deps,
        })
    }
}

// The on-disk form is framed: magic, codec version, length-prefixed body,
// `qsr_storage::checksum` of the body. A flipped bit or truncation anywhere in the
// frame surfaces as `Corrupt` / `ChecksumMismatch` / `VersionMismatch` —
// never a panic, never silent garbage.
impl Encode for SuspendedQuery {
    fn encode(&self, enc: &mut Encoder) {
        let mut body = Encoder::new();
        self.encode_body(&mut body);
        let body = body.finish();
        enc.put_u32(SUSPENDED_QUERY_MAGIC);
        enc.put_u32(if self.delta_deps.is_empty() {
            SUSPENDED_QUERY_MIN_VERSION
        } else {
            SUSPENDED_QUERY_VERSION
        });
        enc.put_u64(checksum(&body));
        enc.put_bytes(&body);
    }
}

impl Decode for SuspendedQuery {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let magic = dec.get_u32()?;
        if magic != SUSPENDED_QUERY_MAGIC {
            return Err(StorageError::corrupt(format!(
                "not a SuspendedQuery: bad magic {magic:#010x}"
            )));
        }
        let version = dec.get_u32()?;
        if !(SUSPENDED_QUERY_MIN_VERSION..=SUSPENDED_QUERY_VERSION).contains(&version) {
            return Err(StorageError::VersionMismatch {
                what: "SuspendedQuery".into(),
                expected: SUSPENDED_QUERY_VERSION,
                actual: version,
            });
        }
        let expected = dec.get_u64()?;
        let body = dec.get_bytes()?;
        verify_checksum("SuspendedQuery body", body, expected)?;
        let mut body_dec = Decoder::new(body);
        let sq = Self::decode_body(&mut body_dec, version)?;
        if !body_dec.is_exhausted() {
            return Err(StorageError::corrupt(format!(
                "SuspendedQuery body: {} trailing bytes",
                body_dec.remaining()
            )));
        }
        Ok(sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsr_storage::codec::roundtrip;
    use qsr_storage::FileId;

    #[test]
    fn strategy_and_plan_roundtrip() {
        assert_eq!(roundtrip(&Strategy::Dump).unwrap(), Strategy::Dump);
        let gb = Strategy::GoBack { to: OpId(3) };
        assert_eq!(roundtrip(&gb).unwrap(), gb);

        let mut plan = SuspendPlan::new();
        plan.set(OpId(0), Strategy::Dump);
        plan.set(OpId(1), Strategy::GoBack { to: OpId(0) });
        assert_eq!(roundtrip(&plan).unwrap(), plan);
        assert_eq!(plan.num_goback(), 1);
        assert_eq!(plan.get(OpId(9)), Strategy::Dump, "default is Dump");
    }

    #[test]
    fn suspended_query_roundtrip() {
        let mut sq = SuspendedQuery {
            plan_bytes: vec![1, 2, 3],
            tuples_emitted: 42,
            graph_bytes: Some(vec![9]),
            ..Default::default()
        };
        sq.suspend_plan.set(OpId(0), Strategy::Dump);
        sq.put_record(OpSuspendRecord {
            op: OpId(0),
            strategy: Strategy::Dump,
            resume_point: vec![5, 5],
            heap_dump: Some(BlobId {
                file: FileId(8),
                len: 100,
                checksum: 7,
            }),
            saved_tuples: vec![vec![1], vec![2]],
            aux: vec![7],
        });
        let back = roundtrip(&sq).unwrap();
        assert_eq!(back, sq);
        assert!(back.record(OpId(0)).is_ok());
        assert!(back.record(OpId(1)).is_err());
    }

    fn sample_sq() -> SuspendedQuery {
        let mut sq = SuspendedQuery {
            plan_bytes: vec![1, 2, 3, 4, 5],
            tuples_emitted: 42,
            graph_bytes: Some(vec![9, 8, 7]),
            work_snapshot: vec![(OpId(0), 1.5), (OpId(1), 2.5)],
            ..Default::default()
        };
        sq.suspend_plan.set(OpId(0), Strategy::Dump);
        sq.put_record(OpSuspendRecord {
            op: OpId(0),
            strategy: Strategy::Dump,
            resume_point: vec![5, 5],
            heap_dump: Some(BlobId {
                file: FileId(8),
                len: 100,
                checksum: 7,
            }),
            saved_tuples: vec![vec![1], vec![2]],
            aux: vec![7],
        });
        sq.fallbacks.insert(
            OpId(0),
            vec![OpSuspendRecord {
                op: OpId(0),
                strategy: Strategy::GoBack { to: OpId(0) },
                resume_point: vec![3],
                heap_dump: None,
                saved_tuples: vec![],
                aux: vec![],
            }],
        );
        sq
    }

    #[test]
    fn fallbacks_roundtrip() {
        let sq = sample_sq();
        let back = roundtrip(&sq).unwrap();
        assert_eq!(back, sq);
        assert_eq!(back.fallbacks[&OpId(0)].len(), 1);
    }

    #[test]
    fn delta_deps_roundtrip_as_v3_and_absence_stays_v2() {
        // No delta chains → the frame is written as v2, byte-identical to
        // what a pre-delta build produced.
        let plain = sample_sq();
        let bytes = plain.encode_to_vec();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            SUSPENDED_QUERY_MIN_VERSION
        );

        // With a chain, the frame upgrades to v3 and roundtrips.
        let mut sq = sample_sq();
        sq.delta_deps.insert(
            OpId(0),
            vec![
                BlobId {
                    file: FileId(3),
                    len: 10,
                    checksum: 1,
                },
                BlobId {
                    file: FileId(5),
                    len: 4,
                    checksum: 2,
                },
            ],
        );
        let bytes = sq.encode_to_vec();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            SUSPENDED_QUERY_VERSION
        );
        let back = SuspendedQuery::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, sq);
        assert_eq!(back.delta_deps[&OpId(0)].len(), 2);

        // Every flip/truncation of a v3 frame also fails cleanly.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            assert!(
                SuspendedQuery::decode_from_slice(&bad).is_err(),
                "flip at byte {i} of a v3 frame decoded silently"
            );
            assert!(SuspendedQuery::decode_from_slice(&bytes[..i]).is_err());
        }
    }

    #[test]
    fn frame_rejects_bad_magic_version_and_checksum() {
        let bytes = sample_sq().encode_to_vec();

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            SuspendedQuery::decode_from_slice(&bad),
            Err(StorageError::Corrupt(_))
        ));

        let mut bad = bytes.clone();
        bad[4] = 99; // version field
        match SuspendedQuery::decode_from_slice(&bad) {
            Err(StorageError::VersionMismatch {
                expected, actual, ..
            }) => {
                assert_eq!(expected, SUSPENDED_QUERY_VERSION);
                assert_eq!(actual, 99);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }

        let mut bad = bytes.clone();
        let last = bad.len() - 1; // inside the body
        bad[last] ^= 0x10;
        assert!(matches!(
            SuspendedQuery::decode_from_slice(&bad),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    // Satellite guarantee: any single-byte flip or truncation of an encoded
    // SuspendedQuery decodes to a clean error — never a panic, never an Ok
    // with silently different contents.
    #[test]
    fn every_flip_and_truncation_fails_cleanly() {
        let sq = sample_sq();
        let bytes = sq.encode_to_vec();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            if let Ok(back) = SuspendedQuery::decode_from_slice(&bad) {
                panic!("flip at byte {i} decoded silently: {back:?}");
            }
            assert!(
                SuspendedQuery::decode_from_slice(&bytes[..i]).is_err(),
                "truncation to {i} bytes decoded silently"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_corrupted_sq_never_panics(idx in 0usize..4096, bit in 0u8..8, truncate: bool) {
            let bytes = sample_sq().encode_to_vec();
            if truncate {
                let cut = idx % bytes.len();
                proptest::prop_assert!(SuspendedQuery::decode_from_slice(&bytes[..cut]).is_err());
            } else {
                let mut bad = bytes.clone();
                let i = idx % bad.len();
                bad[i] ^= 1 << bit;
                proptest::prop_assert!(SuspendedQuery::decode_from_slice(&bad).is_err());
            }
        }
    }

    #[test]
    fn save_and_load_through_blob_store() {
        struct TempDir(std::path::PathBuf);
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = TempDir(std::env::temp_dir().join(format!(
            "qsr-sq-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        )));
        std::fs::create_dir_all(&dir.0).unwrap();
        let db = qsr_storage::Database::open_default(&dir.0).unwrap();

        let sq = SuspendedQuery {
            plan_bytes: vec![4; 10_000],
            tuples_emitted: 7,
            ..Default::default()
        };
        let id = sq.save(db.blobs()).unwrap();
        let back = SuspendedQuery::load(db.blobs(), id).unwrap();
        assert_eq!(back, sq);
    }
}
