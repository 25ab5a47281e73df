//! Buffered rows and their dump blocks.
//!
//! A block is the format byte [`FORMAT_ROWS`], a `u32` row count, then
//! each row's codec record back to back — the bytes a [`Tuple`] holds
//! and a heap page stores behind its length prefix. Every operator that
//! buffers rows keeps them as one such block in memory, a [`RowBuffer`]:
//! the sort's buffer and the merge join's value packets as they are, the
//! block NLJ's outer buffer and the hash join's table inside a
//! [`KeyedRows`], which adds a lookup by one key column. A buffer is its
//! own dump image: writing it is one copy in all; reading it back checks
//! every record with the same walk [`Tuple::decode`] runs and copies
//! them in one piece. Blob-level integrity is the enclosing blob's
//! checksum, as for every dump.
//!
//! Builds before this layout wrote a column-major block behind
//! [`FORMAT_COLUMNAR`] whenever the rows had one arity: one raw byte run
//! per column (`rows × 8` for `i64`/`f64`, `rows × 1` for bools, a
//! length run plus one byte arena for strings, per-value tagged fields
//! for a column of mixed types). It saved the per-row header and the
//! type tags, but once a row became its record it cost a transpose on
//! the way out and another on the way back. Nothing writes it any more;
//! it is still read, because suspended queries stored by those builds
//! must resume (`tests/golden/`).

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Result, StorageError};
use crate::tuple::{take_record, RowRef, Tuple};
use crate::value::ValueRef;
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Format byte of a column-major block; read, never written.
const FORMAT_COLUMNAR: u8 = 0;
/// Format byte of a block of row records.
const FORMAT_ROWS: u8 = 1;

const COL_INT: u8 = 0;
const COL_FLOAT: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_STR: u8 = 3;
/// Mixed-type column: per-value tagged encoding (same as `Value`).
const COL_MIXED: u8 = 4;

/// Bytes of a block's header: the format byte and the row count.
const BLOCK_HEADER: usize = 5;

/// Write a block: its header, then `records` back to back.
fn put_block<'a>(enc: &mut Encoder, rows: usize, records: impl Iterator<Item = &'a [u8]>) {
    enc.put_u8(FORMAT_ROWS);
    enc.put_u32(u32::try_from(rows).expect("a dump block holds fewer than 2^32 rows"));
    records.for_each(|rec| enc.put_raw(rec));
}

/// Read a block's format byte: `true` for a column-major block written
/// by an earlier build, `false` for row records. The one place a decoder
/// tells the two apart.
fn is_columnar(dec: &mut Decoder<'_>) -> Result<bool> {
    match dec.get_u8()? {
        FORMAT_ROWS => Ok(false),
        FORMAT_COLUMNAR => Ok(true),
        f => Err(StorageError::corrupt(format!("bad tuple block format {f}"))),
    }
}

/// Rows kept as one block of records: each row's codec record back to
/// back in one `Vec<u8>`, with the offset where each starts. A row costs
/// its bytes and one offset — no allocation of its own — and the buffer
/// is its own dump image: [`Encode`] writes the block with a single copy,
/// and [`Decode`] checks every record before it enters and then copies
/// them in one piece.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBuffer {
    bytes: Vec<u8>,
    starts: Vec<usize>,
    heap_bytes: usize,
}

impl RowBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True if the buffer holds no row.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Append a copy of `row`'s record.
    pub fn push(&mut self, row: RowRef<'_>) {
        self.starts.push(self.bytes.len());
        self.bytes.extend_from_slice(row.record());
        self.heap_bytes += row.heap_bytes();
    }

    /// Make room for `rows` more rows of `bytes` record bytes in all.
    pub fn reserve(&mut self, rows: usize, bytes: usize) {
        self.bytes.reserve(bytes);
        self.starts.reserve(rows);
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.starts.clear();
        self.heap_bytes = 0;
    }

    /// Row `i`'s codec record. Panics if there is none.
    pub fn record(&self, i: usize) -> &[u8] {
        let end = self.starts.get(i + 1).copied().unwrap_or(self.bytes.len());
        &self.bytes[self.starts[i]..end]
    }

    /// Row `i`, borrowed. Panics if there is none.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        // Every record was checked on its way in (`push`, `decode`).
        RowRef::trusted(self.record(i))
    }

    /// Sum of [`Tuple::heap_bytes`] over the rows held — the same
    /// formula, kept as a running total.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Write the block of the rows `order` names, in that order: the
    /// bytes of a buffer those rows were pushed into in that order.
    pub fn encode_in_order(&self, order: impl ExactSizeIterator<Item = usize>, enc: &mut Encoder) {
        put_block(enc, order.len(), order.map(|i| self.record(i)));
    }
}

impl Encode for RowBuffer {
    fn encode(&self, enc: &mut Encoder) {
        put_block(enc, self.len(), std::iter::once(&self.bytes[..]));
    }

    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::with_capacity(BLOCK_HEADER + self.bytes.len());
        self.encode(&mut enc);
        enc.finish()
    }
}

impl Decode for RowBuffer {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        if is_columnar(dec)? {
            return decode_columnar(dec);
        }
        let rows = dec.get_u32()? as usize;
        let span = dec.rest();
        // A record takes at least its four header bytes, so the bytes left
        // bound the offsets worth reserving.
        let mut starts = Vec::with_capacity(rows.min(span.len() / 4));
        let (mut len, mut heap_bytes) = (0, 0);
        for _ in 0..rows {
            let row = take_record(dec)?;
            starts.push(len);
            len += row.record().len();
            heap_bytes += row.heap_bytes();
        }
        Ok(RowBuffer {
            bytes: span[..len].to_vec(),
            starts,
            heap_bytes,
        })
    }
}

/// End of a chain in [`KeyedRows`].
const END: usize = usize::MAX;

/// The hasher of `KeyedRows::chains`, whose keys are hashes already.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, hash: &[u8]) {
        self.0 = u64::from_ne_bytes(hash.try_into().expect("a chain key is one u64"));
    }
}

/// Rows kept in a [`RowBuffer`] and found by the value of one column,
/// their key. Positions are grouped by the hash of their key, each group
/// a chain in push order. Equal keys hash alike (`-0.0` as `0.0`), so
/// every row equal to a probe key is on that key's chain; rows of other
/// keys that share the hash are skipped by comparing keys on the walk. A
/// NaN key equals nothing and goes on no chain. The chains are derived
/// from the rows alone and are never dumped or counted, so the store's
/// dump image and `heap_bytes` are those of [`KeyedRows::rows`].
pub struct KeyedRows {
    rows: RowBuffer,
    key_col: usize,
    /// Key hash → first and last position of its chain.
    chains: HashMap<u64, (usize, usize), BuildHasherDefault<PreHashed>>,
    /// Hashes keys for `chains`, randomly keyed so that keys cannot be
    /// picked to pile onto one chain.
    hasher: RandomState,
    /// `next[p]`: the position after `p` on `p`'s chain, or [`END`].
    next: Vec<usize>,
}

impl KeyedRows {
    /// An empty store keyed by column `key_col`.
    pub fn new(key_col: usize) -> Self {
        KeyedRows {
            rows: RowBuffer::new(),
            key_col,
            chains: HashMap::default(),
            hasher: RandomState::new(),
            next: Vec::new(),
        }
    }

    /// The rows of a decoded dump block, keyed by column `key_col`: the
    /// block is adopted as it is and each row is linked onto its chain as
    /// [`KeyedRows::push`] links it. A row without that column is
    /// `Corrupt`.
    pub fn from_rows(rows: RowBuffer, key_col: usize) -> Result<Self> {
        let mut store = KeyedRows::new(key_col);
        store.next.reserve_exact(rows.len());
        store.chains.reserve(rows.len());
        for i in 0..rows.len() {
            let key = rows.row(i).values().nth(key_col);
            let missing = || StorageError::corrupt(format!("row {i} has no key column {key_col}"));
            store.link(key.ok_or_else(missing)?);
        }
        store.rows = rows;
        Ok(store)
    }

    /// The rows, in push order: the store's dump image.
    pub fn rows(&self) -> &RowBuffer {
        &self.rows
    }

    /// Row `i`'s key. Panics if there is no row `i`.
    pub fn key(&self, i: usize) -> ValueRef<'_> {
        self.rows.row(i).get(self.key_col)
    }

    /// Append a copy of `row`'s record and link it onto its key's chain.
    /// Panics if the row has no key column.
    pub fn push(&mut self, row: RowRef<'_>) {
        self.link(row.get(self.key_col));
        self.rows.push(row);
    }

    /// Make room for `rows` more rows of `bytes` record bytes in all.
    pub fn reserve(&mut self, rows: usize, bytes: usize) {
        self.rows.reserve(rows, bytes);
        self.next.reserve(rows);
        self.chains.reserve(rows);
    }

    /// Drop every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.chains.clear();
        self.next.clear();
    }

    /// The first position at or after `from` whose key equals `key`. From
    /// one past a row of this key, that row's chain successor is the next
    /// candidate; from anywhere else the walk starts at the chain's head,
    /// which is right for any `from`.
    pub fn find(&self, key: ValueRef<'_>, from: usize) -> Option<usize> {
        let mut pos = match from.checked_sub(1) {
            Some(prev) if prev < self.rows.len() && self.key(prev) == key => self.next[prev],
            _ => self
                .chains
                .get(&self.hasher.hash_one(key))
                .map_or(END, |&(first, _)| first),
        };
        while pos != END {
            if pos >= from && self.key(pos) == key {
                return Some(pos);
            }
            pos = self.next[pos];
        }
        None
    }

    /// Link the next position, whose key is `key`, onto its chain.
    fn link(&mut self, key: ValueRef<'_>) {
        let pos = self.next.len();
        self.next.push(END);
        if matches!(key, ValueRef::Float(f) if f.is_nan()) {
            return;
        }
        match self.chains.entry(self.hasher.hash_one(key)) {
            Entry::Occupied(mut chain) => {
                let last = &mut chain.get_mut().1;
                self.next[*last] = pos;
                *last = pos;
            }
            Entry::Vacant(slot) => {
                slot.insert((pos, pos));
            }
        }
    }
}

/// Read the body of a column-major block (after its format byte).
fn decode_columnar(dec: &mut Decoder<'_>) -> Result<RowBuffer> {
    let rows = dec.get_u32()?;
    let cols = dec.get_u32()?;
    // Bound the shape by the bytes actually present before allocating for
    // it (the blob checksum usually catches a corrupt header, but blocks
    // are also decoded from unchecksummed contexts): every column layout
    // stores a tag byte plus at least one byte per row, and no build wrote
    // a columnar block of rows without columns.
    let min_payload = u64::from(cols) * (u64::from(rows) + 1);
    if min_payload > dec.remaining() as u64 || (cols == 0 && rows > 0) {
        return Err(StorageError::corrupt(format!(
            "tuple block shape {rows}x{cols} exceeds its {} payload bytes",
            dec.remaining()
        )));
    }
    let columns = (0..cols)
        .map(|_| decode_column(dec, rows as usize))
        .collect::<Result<Vec<_>>>()?;
    // Each row's fields, already checked, are written into a record of
    // their own, which the buffer then takes.
    let mut buf = RowBuffer::new();
    for r in 0..rows as usize {
        buf.push(Tuple::from_fields(columns.iter().map(|col| col[r])).row());
    }
    Ok(buf)
}

/// Read one column of `rows` values, borrowing strings from the block's
/// bytes: every value is checked here, none is copied.
fn decode_column<'a>(dec: &mut Decoder<'a>, rows: usize) -> Result<Vec<ValueRef<'a>>> {
    let mut out = Vec::with_capacity(rows);
    match dec.get_u8()? {
        COL_INT => {
            let raw = dec.get_raw(rows * 8)?;
            out.extend(raw.chunks_exact(8).map(|chunk| {
                ValueRef::Int(i64::from_le_bytes(
                    chunk.try_into().expect("chunks_exact(8)"),
                ))
            }));
        }
        COL_FLOAT => {
            let raw = dec.get_raw(rows * 8)?;
            out.extend(raw.chunks_exact(8).map(|chunk| {
                let bits = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                ValueRef::Float(f64::from_bits(bits))
            }));
        }
        COL_BOOL => {
            for b in dec.get_raw(rows)? {
                match b {
                    0 => out.push(ValueRef::Bool(false)),
                    1 => out.push(ValueRef::Bool(true)),
                    b => return Err(StorageError::corrupt(format!("bad bool byte {b}"))),
                }
            }
        }
        COL_STR => {
            let lens = dec
                .get_raw(rows * 4)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize);
            let mut bytes = dec.get_bytes()?;
            if lens.clone().sum::<usize>() != bytes.len() {
                return Err(StorageError::corrupt(
                    "string column lengths disagree with payload size",
                ));
            }
            for len in lens {
                let (s, rest) = bytes.split_at(len);
                let s = std::str::from_utf8(s)
                    .map_err(|_| StorageError::corrupt("invalid utf-8 in string column"))?;
                out.push(ValueRef::Str(s));
                bytes = rest;
            }
        }
        COL_MIXED => {
            for _ in 0..rows {
                out.push(ValueRef::decode(dec)?);
            }
        }
        t => return Err(StorageError::corrupt(format!("bad column tag {t}"))),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use crate::value::Value;
    use proptest::prelude::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    fn buffer<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> RowBuffer {
        let mut buf = RowBuffer::new();
        rows.into_iter().for_each(|r| buf.push(r.row()));
        buf
    }

    /// Two rows as the columnar encoder of earlier builds wrote them: an
    /// int column, a string column and a bool column.
    const COLUMNAR_WIRE: &[u8] = &[
        0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 254, 255, 255, 255, 255, 255, 255,
        255, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 97, 98, 99, 2, 1, 0,
    ];

    fn columnar_rows() -> Vec<Tuple> {
        vec![
            t(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Bool(true),
            ]),
            t(vec![
                Value::Int(-2),
                Value::Str("bc".into()),
                Value::Bool(false),
            ]),
        ]
    }

    #[test]
    fn blocks_are_the_rows_records_back_to_back() {
        let rows = columnar_rows();
        let mut wire = vec![FORMAT_ROWS, 2, 0, 0, 0];
        rows.iter().for_each(|r| wire.extend_from_slice(r.record()));
        let buf = buffer(&rows);
        assert_eq!(buf.encode_to_vec(), wire);
        // The sized fast path and the streaming encoder agree.
        let mut enc = Encoder::new();
        buf.encode(&mut enc);
        assert_eq!(enc.finish(), wire);
        assert_eq!(RowBuffer::decode_from_slice(&wire).unwrap(), buf);
        // Rows written in another order are the block of a buffer filled
        // in that order.
        let mut enc = Encoder::new();
        buf.encode_in_order([1, 0, 1].into_iter(), &mut enc);
        let reordered = buffer([&rows[1], &rows[0], &rows[1]]);
        assert_eq!(enc.finish(), reordered.encode_to_vec());
    }

    #[test]
    fn columnar_blocks_of_earlier_builds_still_decode() {
        let rows = columnar_rows();
        let buf = RowBuffer::decode_from_slice(COLUMNAR_WIRE).unwrap();
        assert_eq!(buf, buffer(&rows));
        assert_eq!(
            buf.heap_bytes(),
            rows.iter().map(Tuple::heap_bytes).sum::<usize>()
        );
    }

    #[test]
    fn empty_ragged_and_special_float_blocks_roundtrip() {
        assert_eq!(RowBuffer::new().encode_to_vec(), [FORMAT_ROWS, 0, 0, 0, 0]);
        assert_eq!(roundtrip(&RowBuffer::new()).unwrap(), RowBuffer::new());
        let ragged = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Str("two".into()), Value::Bool(true)]),
            t(vec![]),
            t(vec![Value::Float(f64::NAN), Value::Float(-0.0)]),
        ];
        let buf = buffer(&ragged);
        let back = roundtrip(&buf).unwrap();
        for (i, row) in ragged.iter().enumerate() {
            assert_eq!(back.record(i), row.record());
        }
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        assert!(RowBuffer::decode_from_slice(&[9]).is_err());
        // Shapes the payload cannot back: absurd counts, rows without
        // columns (2^26 of them used to decode to as many empty tuples),
        // and one row more than the column bytes present.
        for (rows, cols, payload) in [
            (u32::MAX, u32::MAX, &[][..]),
            (1 << 26, 0, &[]),
            (3, 1, &[COL_BOOL, 1, 0]),
        ] {
            let mut enc = Encoder::new();
            enc.put_u8(FORMAT_COLUMNAR);
            enc.put_u32(rows);
            enc.put_u32(cols);
            enc.put_raw(payload);
            let got = RowBuffer::decode_from_slice(&enc.finish());
            assert!(
                matches!(got, Err(StorageError::Corrupt(_))),
                "{rows}x{cols}: {got:?}"
            );
        }
    }

    #[test]
    fn keyed_rows_reject_a_decoded_row_without_the_key_column() {
        let short = t(vec![Value::Int(1)]);
        let rows = buffer([&short]);
        assert!(matches!(
            KeyedRows::from_rows(rows, 1),
            Err(StorageError::Corrupt(_))
        ));
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            ".{0,12}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        /// The buffer against the rows it was given: every record, field
        /// and `heap_bytes` total, and its dump bytes, are those of the
        /// `Tuple`s.
        #[test]
        fn prop_row_buffer_matches_its_tuples(
            rows in proptest::collection::vec(proptest::collection::vec(arb_value(), 0..5), 0..12),
        ) {
            let rows: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
            let buf = buffer(&rows);
            prop_assert_eq!(buf.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(buf.record(i), row.record());
                for col in 0..row.arity() {
                    let (a, b) = (buf.row(i).get(col).to_value(), row.get(col).to_value());
                    prop_assert_eq!(a.encode_to_vec(), b.encode_to_vec());
                }
            }
            prop_assert_eq!(buf.heap_bytes(), rows.iter().map(Tuple::heap_bytes).sum::<usize>());
            let wire = buf.encode_to_vec();
            let mut want = vec![FORMAT_ROWS];
            want.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            rows.iter().for_each(|r| want.extend_from_slice(r.record()));
            prop_assert_eq!(&wire, &want);
            let back = RowBuffer::decode_from_slice(&wire).unwrap();
            prop_assert_eq!(back.encode_to_vec(), wire);
            prop_assert_eq!(back.heap_bytes(), buf.heap_bytes());
        }

        /// The keyed store against a scan of its rows: from every start,
        /// `find` returns the first row at or after it whose key equals the
        /// probe (none for NaN), whether the rows were pushed one by one
        /// or adopted from a decoded block; its dump image and size are
        /// its buffer's.
        #[test]
        fn prop_keyed_rows_find_the_scan_answer(
            keys in proptest::collection::vec(0..6u8, 0..40),
        ) {
            // Few distinct keys, so chains are long and interleave; one
            // key is a NaN and one a negative zero.
            let value = |k: u8| match k {
                4 => Value::Float(f64::NAN),
                5 => Value::Float(-0.0),
                k => Value::Int(i64::from(k)),
            };
            let rows: Vec<Tuple> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| t(vec![Value::Int(i as i64), value(k)]))
                .collect();
            let mut pushed = KeyedRows::new(1);
            rows.iter().for_each(|r| pushed.push(r.row()));
            let buf = buffer(&rows);
            prop_assert_eq!(pushed.rows(), &buf);
            let adopted = KeyedRows::from_rows(buf, 1).unwrap();
            let probes = [value(0), value(3), value(4), Value::Float(0.0), Value::Str("0".into())];
            for store in [&pushed, &adopted] {
                for probe in &probes {
                    let probe = probe.as_ref();
                    for from in 0..=rows.len() + 1 {
                        let want = (from..rows.len()).find(|&p| rows[p].get(1) == probe);
                        prop_assert_eq!(store.find(probe, from), want, "{:?} from {}", probe, from);
                    }
                }
            }
        }
    }
}
