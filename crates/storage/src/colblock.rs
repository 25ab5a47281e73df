//! Dump blocks: an operator's buffered rows as the rows' own records.
//!
//! A block is the format byte [`FORMAT_ROWS`], a `u32` row count, then
//! each row's codec record back to back — the bytes a [`Tuple`] holds
//! and a heap page stores behind its length prefix. Writing a buffer is
//! therefore one copy per row ([`TupleSlice`]) or, for a buffer that
//! already keeps its rows in one block of records ([`RowBuffer`]), one
//! copy in all; reading it back checks every record with the same walk
//! [`Tuple::decode`] runs and copies it. Blob-level integrity is the
//! enclosing blob's checksum, as for every dump.
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
use std::borrow::Borrow;

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

/// A run of tuples as a dump block; decoding returns them in their
/// original order. Encode operator state through [`TupleSlice`] instead
/// of moving it into a `TupleBlock`.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBlock(pub Vec<Tuple>);

/// The encode-only borrowed form of a [`TupleBlock`] — the dump image of
/// an operator's tuple buffer, written straight from the buffer. The wire
/// bytes are those of `TupleBlock(rows.to_vec())`, so it decodes as a
/// `TupleBlock`. Rows may be `Tuple`s or `&Tuple`s (state that is not
/// contiguous in memory, e.g. the groups of a hash table).
#[derive(Debug, Clone, Copy)]
pub struct TupleSlice<'a, T = Tuple>(pub &'a [T]);

/// Write a block's header and its records into an encoder sized for
/// exactly that.
fn encode_block<'a>(rows: usize, records: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
    let len = BLOCK_HEADER + records.clone().map(<[u8]>::len).sum::<usize>();
    let mut enc = Encoder::with_capacity(len);
    put_block(&mut enc, rows, records);
    enc.finish()
}

fn put_block<'a>(enc: &mut Encoder, rows: usize, records: impl Iterator<Item = &'a [u8]>) {
    enc.put_u8(FORMAT_ROWS);
    enc.put_u32(u32::try_from(rows).expect("a dump block holds fewer than 2^32 rows"));
    records.for_each(|rec| enc.put_raw(rec));
}

impl<T: Borrow<Tuple>> TupleSlice<'_, T> {
    fn records(&self) -> impl Iterator<Item = &[u8]> + Clone {
        self.0.iter().map(|t| t.borrow().record())
    }
}

impl<T: Borrow<Tuple>> Encode for TupleSlice<'_, T> {
    fn encode(&self, enc: &mut Encoder) {
        put_block(enc, self.0.len(), self.records());
    }

    fn encode_to_vec(&self) -> Vec<u8> {
        encode_block(self.0.len(), self.records())
    }
}

impl Encode for TupleBlock {
    fn encode(&self, enc: &mut Encoder) {
        TupleSlice(&self.0).encode(enc);
    }
}

impl Decode for TupleBlock {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        if is_columnar(dec)? {
            return decode_columnar(dec).map(TupleBlock);
        }
        Ok(TupleBlock(dec.get_seq()?))
    }
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
/// is its own dump image: [`Encode`] writes the bytes [`TupleSlice`]
/// writes for the same rows with a single copy, and [`Decode`] checks
/// every record before it enters and then copies them in one piece.
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

    /// Append a copy of `row`.
    pub fn push(&mut self, row: &Tuple) {
        let row = row.row();
        self.starts.push(self.bytes.len());
        self.bytes.extend_from_slice(row.record());
        self.heap_bytes += row.heap_bytes();
    }

    /// Make room for `rows` more rows of about the size of those held
    /// (nothing to go by when empty, so only the offsets are reserved).
    pub fn reserve(&mut self, rows: usize) {
        if let Some(per_row) = self.bytes.len().checked_div(self.len()) {
            self.bytes.reserve(rows * per_row);
        }
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

    /// Field `col` of row `i`. Panics if there is none.
    pub fn get(&self, i: usize, col: usize) -> ValueRef<'_> {
        // Every record was checked on its way in (`push`, `decode`).
        RowRef::trusted(self.record(i)).get(col)
    }

    /// Sum of [`Tuple::heap_bytes`] over the rows held — the same
    /// formula, kept as a running total.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }
}

impl<'a> FromIterator<&'a Tuple> for RowBuffer {
    fn from_iter<I: IntoIterator<Item = &'a Tuple>>(rows: I) -> Self {
        let mut buf = RowBuffer::new();
        rows.into_iter().for_each(|t| buf.push(t));
        buf
    }
}

impl Encode for RowBuffer {
    fn encode(&self, enc: &mut Encoder) {
        put_block(enc, self.len(), std::iter::once(&self.bytes[..]));
    }

    fn encode_to_vec(&self) -> Vec<u8> {
        encode_block(self.len(), std::iter::once(&self.bytes[..]))
    }
}

impl Decode for RowBuffer {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        if is_columnar(dec)? {
            return Ok(decode_columnar(dec)?.iter().collect());
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

/// Read the body of a column-major block (after its format byte).
fn decode_columnar(dec: &mut Decoder<'_>) -> Result<Vec<Tuple>> {
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
    // A row is one allocation: its fields, already checked, are written
    // straight into its record.
    let row = |r| Tuple::from_fields(columns.iter().map(move |col| col[r]));
    Ok((0..rows as usize).map(row).collect())
}

/// Read one column of `rows` values, borrowing strings from the block's
/// bytes: every value is checked here, none is copied.
fn decode_column<'a>(dec: &mut Decoder<'a>, rows: usize) -> Result<Vec<ValueRef<'a>>> {
    let mut out = Vec::with_capacity(rows);
    match dec.get_u8()? {
        COL_INT => {
            let raw = dec.get_raw(rows * 8)?;
            out.extend(raw.chunks_exact(8).map(|chunk| {
                ValueRef::Int(i64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)")))
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
            let lens = dec.get_raw(rows * 4)?.chunks_exact(4).map(|c| {
                u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize
            });
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

    /// Two rows as the columnar encoder of earlier builds wrote them: an
    /// int column, a string column and a bool column.
    const COLUMNAR_WIRE: &[u8] = &[
        0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 254, 255, 255, 255, 255, 255, 255,
        255, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 97, 98, 99, 2, 1, 0,
    ];

    fn columnar_rows() -> Vec<Tuple> {
        vec![
            t(vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)]),
            t(vec![Value::Int(-2), Value::Str("bc".into()), Value::Bool(false)]),
        ]
    }

    #[test]
    fn blocks_are_the_rows_records_back_to_back() {
        let rows = columnar_rows();
        let mut wire = vec![FORMAT_ROWS, 2, 0, 0, 0];
        rows.iter().for_each(|r| wire.extend_from_slice(r.record()));
        assert_eq!(TupleBlock(rows.clone()).encode_to_vec(), wire);
        assert_eq!(TupleSlice(&rows).encode_to_vec(), wire);
        let refs: Vec<&Tuple> = rows.iter().collect();
        assert_eq!(TupleSlice(&refs).encode_to_vec(), wire);
        assert_eq!(rows.iter().collect::<RowBuffer>().encode_to_vec(), wire);
        // The sized fast path and the streaming encoder agree.
        let mut enc = Encoder::new();
        TupleSlice(&rows).encode(&mut enc);
        assert_eq!(enc.finish(), wire);
        assert_eq!(TupleBlock::decode_from_slice(&wire).unwrap().0, rows);
    }

    #[test]
    fn columnar_blocks_of_earlier_builds_still_decode() {
        let rows = columnar_rows();
        assert_eq!(TupleBlock::decode_from_slice(COLUMNAR_WIRE).unwrap().0, rows);
        let buf = RowBuffer::decode_from_slice(COLUMNAR_WIRE).unwrap();
        assert_eq!(buf, rows.iter().collect::<RowBuffer>());
        assert_eq!(buf.heap_bytes(), rows.iter().map(Tuple::heap_bytes).sum::<usize>());
    }

    #[test]
    fn empty_and_ragged_blocks_roundtrip() {
        let empty = TupleBlock(Vec::new());
        assert_eq!(roundtrip(&empty).unwrap().0, Vec::<Tuple>::new());
        assert_eq!(empty.encode_to_vec(), [FORMAT_ROWS, 0, 0, 0, 0]);
        assert_eq!(roundtrip(&RowBuffer::new()).unwrap(), RowBuffer::new());

        let ragged = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Int(2), Value::Bool(true)]),
            t(vec![]),
        ];
        assert_eq!(roundtrip(&TupleBlock(ragged.clone())).unwrap().0, ragged);
        let buf: RowBuffer = ragged.iter().collect();
        assert_eq!(roundtrip(&buf).unwrap(), buf);
    }

    #[test]
    fn mixed_type_column_roundtrips() {
        let rows = vec![
            t(vec![Value::Int(1), Value::Int(10)]),
            t(vec![Value::Str("two".into()), Value::Int(20)]),
            t(vec![Value::Float(3.0), Value::Int(30)]),
        ];
        assert_eq!(roundtrip(&TupleBlock(rows.clone())).unwrap().0, rows);
    }

    #[test]
    fn nan_and_special_floats_survive() {
        let rows = vec![
            t(vec![Value::Float(f64::NAN)]),
            t(vec![Value::Float(f64::NEG_INFINITY)]),
            t(vec![Value::Float(-0.0)]),
        ];
        let back = roundtrip(&TupleBlock(rows.clone())).unwrap().0;
        for (a, b) in rows.iter().zip(&back) {
            let (ValueRef::Float(x), ValueRef::Float(y)) = (a.get(0), b.get(0)) else {
                panic!("expected floats");
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        assert!(TupleBlock::decode_from_slice(&[9]).is_err());
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
            let bytes = enc.finish();
            let got = TupleBlock::decode_from_slice(&bytes);
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{rows}x{cols}: {got:?}");
            let got = RowBuffer::decode_from_slice(&bytes);
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{rows}x{cols}: {got:?}");
        }
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
            let buf: RowBuffer = rows.iter().collect();
            prop_assert_eq!(buf.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(buf.record(i), row.record());
                for col in 0..row.arity() {
                    let (a, b) = (buf.get(i, col).to_value(), row.get(col).to_value());
                    prop_assert_eq!(a.encode_to_vec(), b.encode_to_vec());
                }
            }
            prop_assert_eq!(buf.heap_bytes(), rows.iter().map(Tuple::heap_bytes).sum::<usize>());
            let wire = buf.encode_to_vec();
            prop_assert_eq!(&wire, &TupleSlice(&rows).encode_to_vec());
            let back = RowBuffer::decode_from_slice(&wire).unwrap();
            prop_assert_eq!(back.encode_to_vec(), wire);
            prop_assert_eq!(back.heap_bytes(), buf.heap_bytes());
        }
    }
}
