//! Zero-copy columnar encoding for operator dump blobs.
//!
//! Suspend-time dumps used to serialize buffered tuples one value at a
//! time (a type tag plus a little-endian scalar per value), which made the
//! dump pipeline serialization-bound. A [`TupleBlock`] instead lays a
//! run of tuples out column-major: each column is one contiguous raw byte
//! slice (`i64`/`f64` columns are `rows × 8` bytes copied straight out of
//! memory, bools are `rows × 1`), written with `Encoder::put_raw` — no
//! per-value tags, no per-tuple headers. Strings store one length run
//! followed by the concatenated bytes. Blob-level integrity is unchanged:
//! the enclosing [`BlobStore`](crate::BlobStore) checksums the whole
//! encoded block, so torn or bit-flipped dumps are still detected.
//!
//! Tuples with heterogeneous arity (or an empty run or zero-column
//! tuples, where there is no column layout to write) fall back to the old
//! row-major encoding behind a format byte, so every `Vec<Tuple>`
//! round-trips.

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Result, StorageError};
use crate::tuple::Tuple;
use crate::value::{ValueRef, TAG_BOOL, TAG_FLOAT, TAG_INT};
use std::borrow::Borrow;

const FORMAT_COLUMNAR: u8 = 0;
const FORMAT_ROWS: u8 = 1;

const COL_INT: u8 = 0;
const COL_FLOAT: u8 = 1;
const COL_BOOL: u8 = 2;
const COL_STR: u8 = 3;
/// Mixed-type column: per-value tagged encoding (same as `Value`).
const COL_MIXED: u8 = 4;

/// A run of tuples encoded column-major with raw (untagged, unprefixed)
/// per-column byte slices; decoding returns the tuples in their original
/// order. Encode operator state through [`TupleSlice`] instead of moving
/// it into a `TupleBlock`.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBlock(pub Vec<Tuple>);

/// The encode-only borrowed form of a [`TupleBlock`] — the dump image of
/// an operator's tuple buffer, written straight from the buffer. The wire
/// bytes are those of `TupleBlock(rows.to_vec())`, so it decodes as a
/// `TupleBlock`. Rows may be `Tuple`s or `&Tuple`s (state that is not
/// contiguous in memory, e.g. the groups of a hash table).
#[derive(Debug, Clone, Copy)]
pub struct TupleSlice<'a, T = Tuple>(pub &'a [T]);

/// Write one column: `column` yields each row's encoded field (value tag
/// and payload, as the row's record holds it). A column whose rows all
/// hold the same variant is written as that variant's raw payloads — the
/// bytes are already little-endian in the record, so this is a copy per
/// row — and a mixed one as the tagged fields themselves.
fn encode_column<'a>(enc: &mut Encoder, column: impl Iterator<Item = &'a [u8]> + Clone) {
    let first = column.clone().next().expect("columnar blocks have rows")[0];
    if !column.clone().all(|f| f[0] == first) {
        enc.put_u8(COL_MIXED);
        column.for_each(|f| enc.put_raw(f));
        return;
    }
    match first {
        TAG_INT | TAG_FLOAT => {
            enc.put_u8(if first == TAG_INT { COL_INT } else { COL_FLOAT });
            column.for_each(|f| enc.put_raw(&f[1..9]));
        }
        TAG_BOOL => {
            enc.put_u8(COL_BOOL);
            column.for_each(|f| enc.put_raw(&f[1..2]));
        }
        _ => {
            // One run of u32 lengths, then the concatenated bytes behind
            // their total length.
            enc.put_u8(COL_STR);
            column.clone().for_each(|f| enc.put_raw(&f[1..5]));
            let total: usize = column.clone().map(|f| f.len() - 5).sum();
            enc.put_u32(total as u32);
            column.for_each(|f| enc.put_raw(&f[5..]));
        }
    }
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

impl Encode for TupleBlock {
    fn encode(&self, enc: &mut Encoder) {
        TupleSlice(&self.0).encode(enc);
    }
}

impl<T: Borrow<Tuple>> Encode for TupleSlice<'_, T> {
    fn encode(&self, enc: &mut Encoder) {
        let rows = || self.0.iter().map(Borrow::borrow);
        let cols = rows().next().map_or(0, Tuple::arity);
        if cols == 0 || rows().any(|t| t.arity() != cols) {
            enc.put_u8(FORMAT_ROWS);
            enc.put_u32(self.0.len() as u32);
            rows().for_each(|t| t.encode(enc));
            return;
        }
        enc.put_u8(FORMAT_COLUMNAR);
        enc.put_u32(self.0.len() as u32);
        enc.put_u32(cols as u32);
        // Each row's record is walked once; `fields` is row-major.
        let fields: Vec<&[u8]> = rows().flat_map(Tuple::fields).collect();
        for c in 0..cols {
            encode_column(enc, fields[c..].iter().copied().step_by(cols));
        }
    }
}

impl Decode for TupleBlock {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            FORMAT_ROWS => Ok(TupleBlock(dec.get_seq()?)),
            FORMAT_COLUMNAR => {
                let rows = dec.get_u32()?;
                let cols = dec.get_u32()?;
                // Bound the shape by the bytes actually present before
                // allocating for it (the blob checksum usually catches a
                // corrupt header, but TupleBlock is also decoded from
                // unchecksummed contexts): every column layout stores a
                // tag byte plus at least one byte per row, and the encoder
                // never writes a columnar block of rows without columns.
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
                // A row is one allocation: its fields, already checked,
                // are written straight into its record.
                let row = |r| Tuple::from_fields(columns.iter().map(move |col| col[r]));
                Ok(TupleBlock((0..rows as usize).map(row).collect()))
            }
            f => Err(StorageError::corrupt(format!("bad tuple block format {f}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use crate::value::Value;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn homogeneous_block_roundtrips_columnar() {
        let rows: Vec<Tuple> = (0..100)
            .map(|i| {
                t(vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 0.5),
                    Value::Str(format!("row-{i}")),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        let block = TupleBlock(rows.clone());
        assert_eq!(roundtrip(&block).unwrap().0, rows);
        assert_eq!(block.encode_to_vec()[0], FORMAT_COLUMNAR);
    }

    #[test]
    fn columnar_is_denser_than_tagged_rows() {
        let rows: Vec<Tuple> = (0..256)
            .map(|i| t(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect();
        let columnar = TupleBlock(rows.clone()).encode_to_vec().len();
        let mut enc = Encoder::new();
        enc.put_seq(&rows);
        let tagged = enc.finish().len();
        assert!(
            columnar < tagged,
            "columnar {columnar} bytes should beat tagged {tagged}"
        );
    }

    #[test]
    fn empty_and_ragged_blocks_fall_back_to_rows() {
        let empty = TupleBlock(Vec::new());
        assert_eq!(roundtrip(&empty).unwrap().0, Vec::<Tuple>::new());
        assert_eq!(empty.encode_to_vec()[0], FORMAT_ROWS);

        let ragged = vec![
            t(vec![Value::Int(1)]),
            t(vec![Value::Int(2), Value::Bool(true)]),
        ];
        let block = TupleBlock(ragged.clone());
        assert_eq!(block.encode_to_vec()[0], FORMAT_ROWS);
        assert_eq!(roundtrip(&block).unwrap().0, ragged);
    }

    #[test]
    fn borrowed_encode_is_wire_identical_to_owned() {
        // Bytes the owned encoder wrote before `TupleSlice` existed, one
        // block per format: existing blobs, delta baselines and
        // checksum-keyed salvage entries depend on them not moving.
        let columnar = vec![
            t(vec![Value::Int(1), Value::Str("a".into()), Value::Bool(true)]),
            t(vec![Value::Int(-2), Value::Str("bc".into()), Value::Bool(false)]),
        ];
        let columnar_wire: &[u8] = &[
            0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 254, 255, 255, 255, 255, 255,
            255, 255, 3, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 97, 98, 99, 2, 1, 0,
        ];
        let ragged = vec![t(vec![Value::Int(1)]), t(vec![Value::Int(2), Value::Bool(true)])];
        let ragged_wire: &[u8] = &[
            1, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0,
            0, 0, 3, 1,
        ];
        for (rows, wire) in [(columnar, columnar_wire), (ragged, ragged_wire)] {
            assert_eq!(TupleBlock(rows.clone()).encode_to_vec(), wire);
            assert_eq!(TupleSlice(&rows).encode_to_vec(), wire);
            let refs: Vec<&Tuple> = rows.iter().collect();
            assert_eq!(TupleSlice(&refs).encode_to_vec(), wire);
            assert_eq!(TupleBlock::decode_from_slice(wire).unwrap().0, rows);
        }
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
            let got = TupleBlock::decode_from_slice(&enc.finish());
            assert!(matches!(got, Err(StorageError::Corrupt(_))), "{rows}x{cols}: {got:?}");
        }
    }

    #[test]
    fn zero_column_tuples_roundtrip_row_major() {
        // No plan buffers them (every dumped buffer is keyed on a column),
        // but the block type still round-trips every `Vec<Tuple>`.
        let rows = vec![t(vec![]); 3];
        let block = TupleBlock(rows.clone());
        assert_eq!(block.encode_to_vec()[0], FORMAT_ROWS);
        assert_eq!(roundtrip(&block).unwrap().0, rows);
    }
}
