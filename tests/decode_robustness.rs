//! Decoder robustness: everything a resumed process reads back from disk
//! or from a remote endpoint — row blocks, tuples, the `SuspendedQuery`,
//! the suspend manifest, delta frames — turns arbitrary bytes into `Ok` or
//! a typed `Err`. Never a panic, and never an allocation sized by a count
//! the input merely claims: a decode may allocate in proportion to the
//! bytes it was handed, not to a header field.

mod counting_alloc;

use counting_alloc::requested_bytes;
use proptest::prelude::*;
use qsr::core::{
    Checkpoint, ContractGraph, OpId, OpSuspendRecord, Strategy as OpStrategy, SuspendedQuery,
};
use qsr::exec::SuspendManifest;
use qsr::server::SessionMeta;
use qsr::storage::{
    checksum, fnv1a, BlobId, BlobStore, BufferPool, CostLedger, Decode, Decoder, DeltaDump,
    DiskManager, Encode, Encoder, FileId, HeapFile, RowBuffer, StorageError, Tuple, Value,
    DELTA_MAGIC, DELTA_VERSION, PAGE_SIZE,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Self-cleaning scratch directory, removed even when an assertion fails.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("qsr-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// No input here is longer than `MAX_INPUT` bytes, and no decode of one
/// may request more than `ALLOC_BOUND` bytes from the allocator in total.
/// The worst honest blow-up is one reserved 24-byte `Value` slot per input
/// byte (measured: 6 KB for 256 bytes), so 64 KiB leaves an order of
/// magnitude of room and is four orders below what a forged count used to
/// reserve.
const MAX_INPUT: usize = 512;
const ALLOC_BOUND: usize = 64 << 10;

/// Feed `bytes` to every decoder. A panic fails the test by itself; the
/// allocation bound is asserted here.
fn decode_all(bytes: &[u8]) {
    fn one<T>(what: &str, bytes: &[u8], decode: impl FnOnce(&[u8]) -> Result<T, StorageError>) {
        assert!(bytes.len() <= MAX_INPUT);
        let before = requested_bytes();
        drop(decode(bytes));
        let requested = requested_bytes() - before;
        assert!(
            requested <= ALLOC_BOUND,
            "{what}: decoding {} bytes requested {requested} bytes of memory: {bytes:?}",
            bytes.len()
        );
    }
    one("RowBuffer", bytes, RowBuffer::decode_from_slice);
    one("Tuple", bytes, Tuple::decode_from_slice);
    one("SuspendedQuery", bytes, SuspendedQuery::decode_from_slice);
    one("SuspendManifest", bytes, SuspendManifest::decode_from_slice);
    one("DeltaDump", bytes, DeltaDump::decode_from_bytes);
}

fn blob(n: u64) -> BlobId {
    BlobId {
        file: FileId(n),
        len: 4096 * n,
        checksum: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    }
}

/// A block of row records read row by row: the format byte, then the
/// rows as a sequence of `Tuple`s, each checked by `Tuple::decode`. The
/// reference `RowBuffer::decode` is held to.
#[derive(Debug)]
struct RowsOneByOne(Vec<Tuple>);

impl Decode for RowsOneByOne {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, StorageError> {
        match dec.get_u8()? {
            1 => Ok(RowsOneByOne(dec.get_seq()?)),
            f => Err(StorageError::corrupt(format!("bad tuple block format {f}"))),
        }
    }
}

/// `rows` in a row buffer.
fn buffer(rows: &[Tuple]) -> RowBuffer {
    let mut buf = RowBuffer::new();
    rows.iter().for_each(|r| buf.push(r.row()));
    buf
}

/// `rows` as a dump block.
fn block(rows: &[Tuple]) -> Vec<u8> {
    buffer(rows).encode_to_vec()
}

/// Row `i` of the blocks below: one column of each type.
fn row(i: i64) -> Tuple {
    let name = Value::Str(format!("r{i}"));
    Tuple::new(vec![
        Value::Int(i),
        Value::Float(i as f64 / 4.0),
        name,
        Value::Bool(i % 2 == 0),
    ])
}

/// Rows `0..n` as the column-major block earlier builds wrote (format
/// byte 0, rows, columns, then one tagged raw run per column), built by
/// hand: no write path of this build emits the format any more.
fn columnar_block(n: i64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(0);
    enc.put_u32(n as u32);
    enc.put_u32(4);
    enc.put_u8(0);
    (0..n).for_each(|i| enc.put_i64(i));
    enc.put_u8(1);
    (0..n).for_each(|i| enc.put_f64(i as f64 / 4.0));
    enc.put_u8(3);
    let names: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
    names.iter().for_each(|s| enc.put_u32(s.len() as u32));
    enc.put_bytes(names.concat().as_bytes());
    enc.put_u8(2);
    (0..n).for_each(|i| enc.put_u8(u8::from(i % 2 == 0)));
    let bytes = enc.finish();
    let rows: Vec<Tuple> = (0..n).map(row).collect();
    assert_eq!(RowBuffer::decode_from_slice(&bytes).unwrap(), buffer(&rows));
    bytes
}

/// One valid encoding per decoder and per wire shape (columnar and
/// row-major blocks, v1 and v2 manifests, v2 and v3 suspended queries).
fn valid_encodings() -> Vec<Vec<u8>> {
    let ragged = vec![row(1), Tuple::new(vec![Value::Int(7)])];
    let record = OpSuspendRecord {
        op: OpId(1),
        strategy: OpStrategy::GoBack { to: OpId(0) },
        resume_point: vec![1, 2, 3],
        heap_dump: Some(blob(3)),
        saved_tuples: vec![row(9).encode_to_vec()],
        aux: vec![4, 5],
    };
    let mut query = SuspendedQuery {
        plan_bytes: vec![0xAB; 12],
        tuples_emitted: 17,
        work_snapshot: vec![(OpId(0), 1.5), (OpId(1), 2.5)],
        ..SuspendedQuery::default()
    };
    query.put_record(record.clone());
    query.fallbacks.insert(OpId(1), vec![record]);
    let mut chained = query.clone();
    chained.delta_deps.insert(OpId(1), vec![blob(1), blob(2)]);
    let mut manifest = SuspendManifest::new(4, blob(5));
    let v1_manifest = manifest.encode_to_vec();
    manifest.chain_len = 2;
    manifest.retained = vec![(3, blob(6))];
    let delta = DeltaDump::diff(&[0u8; 100], blob(7), &[1u8; 90]).expect("the states differ");
    vec![
        columnar_block(3),
        block(&(0..3).map(row).collect::<Vec<_>>()),
        block(&ragged),
        row(5).encode_to_vec(),
        query.encode_to_vec(),
        chained.encode_to_vec(),
        v1_manifest,
        manifest.encode_to_vec(),
        delta.encode_to_vec(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_decode_to_ok_or_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        decode_all(&bytes);
    }

    #[test]
    fn damaged_valid_encodings_decode_to_ok_or_typed_error(
        which: usize,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut: usize,
    ) {
        let valid = valid_encodings();
        let mut bytes = valid[which % valid.len()].clone();
        decode_all(&bytes);
        for (at, value) in edits {
            let at = at % bytes.len();
            bytes[at] = value;
        }
        decode_all(&bytes);
        decode_all(&bytes[..cut % bytes.len()]);
    }
}

/// A delta frame whose frame checksum is valid but whose body claims a
/// 2^60-byte state in 2^48 chunks: the chunk table used to be reserved up
/// front. (The other named input, a columnar block header of 2^26 rows
/// and no columns, sits with the block's unit tests in `colblock.rs`.)
#[test]
fn forged_delta_chunk_count_is_rejected_before_allocating() {
    let mut body = Encoder::new();
    blob(1).encode(&mut body);
    body.put_u64(1 << 60);
    body.put_u64(0);
    body.put_usize(1 << 48);
    let body = body.finish();
    let mut frame = Encoder::new();
    frame.put_u32(DELTA_MAGIC);
    frame.put_u32(DELTA_VERSION);
    frame.put_raw(&body);
    frame.put_u64(fnv1a(&body));
    let frame = frame.finish();
    decode_all(&frame);
    let decoded = DeltaDump::decode_from_bytes(&frame);
    assert!(
        matches!(decoded, Err(StorageError::Corrupt(_))),
        "got {decoded:?}"
    );
}

/// A buffering operator's dump image is decoded straight into a
/// `RowBuffer`, whose every record is checked before it enters — the walk
/// and the typed errors of `Tuple::decode`. Truncation anywhere and
/// trailing bytes are `Corrupt`. A single flipped bit either still spells
/// a valid block (a bit of an integer or float payload: catching that is
/// the blob checksum's job, not the block's), and then the buffer holds
/// exactly the rows the row-by-row reference reads, or it is rejected
/// with the same typed error the reference gives. Blocks of both formats;
/// a flip that spells the column-major format, which has no per-record
/// reference, must still give `Ok` or `Corrupt`.
#[test]
fn row_buffer_decode_rejects_truncation_trailing_bytes_and_bit_flips() {
    let rows: Vec<Tuple> = (0..3).map(row).collect();
    let expected = buffer(&rows);
    let wire = expected.encode_to_vec();
    let mut records = vec![1, 3, 0, 0, 0];
    rows.iter()
        .for_each(|r| records.extend_from_slice(&r.encode_to_vec()));
    assert_eq!(wire, records);
    assert_eq!(RowsOneByOne::decode_from_slice(&wire).unwrap().0, rows);
    for wire in [wire, columnar_block(3)] {
        assert_eq!(RowBuffer::decode_from_slice(&wire).unwrap(), expected);
        for cut in 0..wire.len() {
            let got = RowBuffer::decode_from_slice(&wire[..cut]);
            assert!(
                matches!(got, Err(StorageError::Corrupt(_))),
                "cut at {cut}: {got:?}"
            );
        }
        let mut trailing = wire.clone();
        trailing.push(0);
        match RowBuffer::decode_from_slice(&trailing) {
            Err(StorageError::Corrupt(m)) => assert_eq!(m, "1 trailing bytes after decode"),
            other => panic!("trailing byte: {other:?}"),
        }
        let mut rejected = 0;
        for bit in 0..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = RowBuffer::decode_from_slice(&bad);
            if bad[0] == 0 {
                match got {
                    Ok(_) => {}
                    Err(StorageError::Corrupt(_)) => rejected += 1,
                    got => panic!("bit {bit}: column-major block gave {got:?}"),
                }
                continue;
            }
            match (got, RowsOneByOne::decode_from_slice(&bad)) {
                (Ok(buf), Ok(RowsOneByOne(rows))) => {
                    assert_eq!(buf, buffer(&rows), "bit {bit}");
                }
                (Err(StorageError::Corrupt(got)), Err(StorageError::Corrupt(want))) => {
                    assert_eq!(got, want, "bit {bit}");
                    rejected += 1;
                }
                (got, want) => panic!("bit {bit}: row buffer {got:?}, reference {want:?}"),
            }
        }
        assert!(rejected > 0);
    }
}

/// Malformed row records, one per way a record can be wrong. A row is
/// adopted as bytes, so the check at the door is all that stands between
/// these and the accessors that trust the bytes: each must be a typed
/// `Corrupt` — from `from_record`, from the codec entry point, and from a
/// scan that finds the record on a heap page — and never a panic.
#[test]
fn malformed_row_records_are_typed_corrupt_errors() {
    let good = Tuple::new(vec![
        Value::Int(7),
        Value::Str("naïve".into()),
        Value::Bool(true),
    ]);
    let rec = good.encode_to_vec();
    // Layout: arity(4) | 0,i64(9) | 2,len(4),"naïve"(6) | 3,bool(1).
    assert_eq!(rec.len(), 4 + 9 + 5 + 6 + 2);
    let edit = |at: usize, byte: u8| {
        let mut bad = rec.clone();
        bad[at] = byte;
        bad
    };
    let mut trailing = rec.clone();
    trailing.extend_from_slice(&[0, 0]);
    let cases: [(&str, Vec<u8>, &str); 9] = [
        ("empty", Vec::new(), "decode past end: need 4 bytes, have 0"),
        (
            "truncated body",
            rec[..rec.len() - 1].to_vec(),
            "decode past end: need 1 bytes, have 0",
        ),
        (
            "truncated scalar",
            rec[..9].to_vec(),
            "decode past end: need 8 bytes, have 4",
        ),
        ("bad tag", edit(4, 0x7f), "bad value tag 127"),
        (
            "arity overrun",
            edit(0, 4),
            "decode past end: need 1 bytes, have 0",
        ),
        (
            "string length past the end",
            edit(14, 0xff),
            "decode past end: need 255 bytes, have 8",
        ),
        ("invalid utf-8", edit(20, b'x'), "invalid utf-8 in string"),
        ("bad bool byte", edit(rec.len() - 1, 2), "bad bool byte 2"),
        ("trailing bytes", trailing, "2 trailing bytes after decode"),
    ];

    let dir = TempDir::new("bad-rows");
    let dir = &dir.0;
    for (n, (what, bytes, message)) in cases.iter().enumerate() {
        decode_all(bytes);
        for got in [Tuple::from_record(bytes), Tuple::decode_from_slice(bytes)] {
            match got {
                Err(StorageError::Corrupt(m)) => assert_eq!(&m, message, "{what}"),
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        // The same bytes as the second record of a heap page (the trailer
        // is this build's checksum, so only the record is wrong): the scan
        // serves the first row and fails, typed, at the bad one.
        let mut page = Encoder::new();
        page.put_u16(2);
        page.put_bytes(&rec);
        page.put_bytes(bytes);
        let mut page = page.finish();
        page.resize(PAGE_SIZE, 0);
        let sum = checksum(&page);
        page.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(dir.join(format!("f{n}.qsr")), page).unwrap();
        let dm = DiskManager::open(dir, CostLedger::default()).unwrap();
        let pool = BufferPool::passthrough(Arc::new(dm));
        let heap = HeapFile::open(pool, FileId(n as u64), 2);
        let mut cursor = heap.cursor();
        assert_eq!(cursor.next().unwrap(), Some(good.clone()), "{what}");
        let got = cursor.next();
        assert!(
            matches!(got, Err(StorageError::Corrupt(_))),
            "{what}: scan gave {got:?}"
        );
        let fetched = heap.fetch(qsr::storage::TupleAddr { page: 0, slot: 1 });
        assert!(
            matches!(fetched, Err(StorageError::Corrupt(_))),
            "{what}: fetch gave {fetched:?}"
        );
    }
}

/// A frame exactly as f25e1d4 wrote it: the same bytes with FNV-1a of
/// `body` in the eight-byte checksum slot at `slot`. (Body encodings did
/// not change; only the function that fills the slot did.)
fn legacy_frame(mut frame: Vec<u8>, slot: usize, body: std::ops::Range<usize>) -> Vec<u8> {
    let new = u64::from_le_bytes(frame[slot..slot + 8].try_into().unwrap());
    assert_eq!(
        new,
        checksum(&frame[body.clone()]),
        "slot/body layout of the frame"
    );
    let old = fnv1a(&frame[body]);
    assert_ne!(
        old, new,
        "the two functions must disagree for the test to mean anything"
    );
    frame[slot..slot + 8].copy_from_slice(&old.to_le_bytes());
    frame
}

/// Everything a build before the word-parallel checksum persisted — frames
/// of every kind, a blob, a heap page — still verifies on this one (the
/// fallback arm of `verify_checksum`), and damage to it is still rejected
/// with the same typed error: the legacy arm widens what is accepted by
/// exactly the legacy value, nothing else.
#[test]
fn data_written_with_the_legacy_checksum_still_reads_and_still_rejects_damage() {
    // --- Frames: `magic, version, sum, len-prefixed body` for all but the
    // delta frame (`magic, version, body, sum`) and the bare checkpoint
    // record (`sum, len-prefixed fields`).
    fn check<T: std::fmt::Debug + PartialEq>(
        what: &str,
        frame: Vec<u8>,
        slot: usize,
        body: std::ops::Range<usize>,
        decode: impl Fn(&[u8]) -> Result<T, StorageError>,
    ) {
        let value = decode(&frame).unwrap_or_else(|e| panic!("{what}: fresh frame: {e}"));
        let old = legacy_frame(frame, slot, body.clone());
        let back = decode(&old).unwrap_or_else(|e| panic!("{what}: legacy frame: {e}"));
        assert_eq!(back, value, "{what}");
        for bit in (slot * 8..slot * 8 + 64).chain(body.start * 8..body.end * 8) {
            let mut bad = old.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = decode(&bad);
            assert!(
                matches!(got, Err(StorageError::ChecksumMismatch { .. })),
                "{what}: bit {bit} flipped in a legacy frame: {got:?}"
            );
        }
    }
    let frames = valid_encodings();
    let [.., query, chained, v1_manifest, v2_manifest, delta] = &frames[..] else {
        panic!("valid_encodings ends with the five framed structures");
    };
    for (what, frame) in [("SuspendedQuery v2", query), ("SuspendedQuery v3", chained)] {
        check(
            what,
            frame.clone(),
            8,
            20..frame.len(),
            SuspendedQuery::decode_from_slice,
        );
    }
    for (what, frame) in [("manifest v1", v1_manifest), ("manifest v2", v2_manifest)] {
        check(
            what,
            frame.clone(),
            8,
            20..frame.len(),
            SuspendManifest::decode_from_slice,
        );
    }
    let n = delta.len();
    check(
        "delta frame",
        delta.clone(),
        n - 8,
        8..n - 8,
        DeltaDump::decode_from_bytes,
    );
    let mut graph = ContractGraph::new();
    let ckpt = graph.create_checkpoint(OpId(2), vec![9, 8, 7], 3.5);
    let record = graph
        .checkpoint(ckpt)
        .expect("just created")
        .encode_to_vec();
    check(
        "checkpoint record",
        record.clone(),
        0,
        12..record.len(),
        Checkpoint::decode_from_slice,
    );
    let meta = SessionMeta {
        id: 3,
        tenant: "t".into(),
        priority: 1,
        plan_bytes: vec![1, 2, 3],
    };
    let meta = meta.encode_to_vec();
    check(
        "session meta",
        meta.clone(),
        8,
        20..meta.len(),
        SessionMeta::decode_from_slice,
    );

    // --- Pages and blobs: page files as f25e1d4 laid them out, each 8 KiB
    // payload followed by FNV-1a of it.
    let dir = TempDir::new("legacy-sum");
    let dir = &dir.0;
    let write_file = |n: u64, payloads: &[Vec<u8>]| {
        let mut bytes = Vec::new();
        for p in payloads {
            assert_eq!(p.len(), PAGE_SIZE);
            bytes.extend_from_slice(p);
            bytes.extend_from_slice(&fnv1a(p).to_le_bytes());
        }
        std::fs::write(dir.join(format!("f{n}.qsr")), bytes).unwrap();
    };
    let open = || {
        let dm = DiskManager::open(dir, CostLedger::default()).unwrap();
        BufferPool::passthrough(Arc::new(dm))
    };

    // One heap page holding two tuples: `[count u16][len u32, tuple]...`.
    let rows = [
        Tuple::new(vec![Value::Int(7), Value::Str("legacy".into())]),
        Tuple::new(vec![Value::Int(8), Value::Str("page".into())]),
    ];
    let mut page = Encoder::new();
    page.put_u16(rows.len() as u16);
    for r in &rows {
        page.put_bytes(&r.encode_to_vec());
    }
    let mut page = page.finish();
    page.resize(PAGE_SIZE, 0);
    write_file(0, std::slice::from_ref(&page));
    let mut cursor = HeapFile::open(open(), FileId(0), 2).cursor();
    assert_eq!(cursor.next().unwrap().as_ref(), Some(&rows[0]));
    assert_eq!(cursor.next().unwrap().as_ref(), Some(&rows[1]));
    assert_eq!(cursor.next().unwrap(), None);
    // A flipped payload bit under the legacy trailer: still `Corrupt`.
    let mut rotten = page.clone();
    rotten[40] ^= 0x10;
    let mut record = rotten;
    record.extend_from_slice(&fnv1a(&page).to_le_bytes());
    std::fs::write(dir.join("f0.qsr"), &record).unwrap();
    let got = HeapFile::open(open(), FileId(0), 2).cursor().next();
    assert!(
        matches!(got, Err(StorageError::Corrupt(_))),
        "rotten legacy page: {got:?}"
    );

    // One blob spanning two pages, named by a legacy `BlobId`.
    let payload: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
    let pages = |payload: &[u8]| -> Vec<Vec<u8>> {
        payload
            .chunks(PAGE_SIZE)
            .map(|c| {
                let mut p = c.to_vec();
                p.resize(PAGE_SIZE, 0);
                p
            })
            .collect()
    };
    write_file(1, &pages(&payload));
    let id = BlobId {
        file: FileId(1),
        len: payload.len() as u64,
        checksum: fnv1a(&payload),
    };
    assert_eq!(BlobStore::new(open()).get(id).unwrap(), payload);
    // Damage the page trailers cannot see (pages rewritten consistently,
    // payload no longer what the id names): still `ChecksumMismatch`.
    let mut swapped = payload.clone();
    swapped[PAGE_SIZE + 5] ^= 1;
    write_file(1, &pages(&swapped));
    let got = BlobStore::new(open()).get(id);
    assert!(
        matches!(got, Err(StorageError::ChecksumMismatch { .. })),
        "swapped legacy blob: {got:?}"
    );
}
