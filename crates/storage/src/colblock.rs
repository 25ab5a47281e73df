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
use crate::value::Value;
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

/// The column layout to use for column `c`: a single tag if every row
/// holds the same variant there, otherwise `COL_MIXED`.
fn column_tag(rows: &[&Tuple], c: usize) -> u8 {
    let tag_of = |v: &Value| match v {
        Value::Int(_) => COL_INT,
        Value::Float(_) => COL_FLOAT,
        Value::Bool(_) => COL_BOOL,
        Value::Str(_) => COL_STR,
    };
    let first = tag_of(rows[0].get(c));
    for t in &rows[1..] {
        if tag_of(t.get(c)) != first {
            return COL_MIXED;
        }
    }
    first
}

fn encode_column(enc: &mut Encoder, rows: &[&Tuple], c: usize, tag: u8) {
    enc.put_u8(tag);
    match tag {
        COL_INT => {
            let mut raw = Vec::with_capacity(rows.len() * 8);
            for t in rows {
                let v = match t.get(c) {
                    Value::Int(v) => *v,
                    _ => unreachable!("column_tag verified Int"),
                };
                raw.extend_from_slice(&v.to_le_bytes());
            }
            enc.put_raw(&raw);
        }
        COL_FLOAT => {
            let mut raw = Vec::with_capacity(rows.len() * 8);
            for t in rows {
                let v = match t.get(c) {
                    Value::Float(v) => *v,
                    _ => unreachable!("column_tag verified Float"),
                };
                raw.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            enc.put_raw(&raw);
        }
        COL_BOOL => {
            let mut raw = Vec::with_capacity(rows.len());
            for t in rows {
                let v = match t.get(c) {
                    Value::Bool(v) => *v,
                    _ => unreachable!("column_tag verified Bool"),
                };
                raw.push(v as u8);
            }
            enc.put_raw(&raw);
        }
        COL_STR => {
            // One run of u32 lengths, then the concatenated bytes.
            let mut lens = Vec::with_capacity(rows.len() * 4);
            let mut total = 0usize;
            for t in rows {
                let s = match t.get(c) {
                    Value::Str(s) => s,
                    _ => unreachable!("column_tag verified Str"),
                };
                lens.extend_from_slice(&(s.len() as u32).to_le_bytes());
                total += s.len();
            }
            enc.put_raw(&lens);
            let mut bytes = Vec::with_capacity(total);
            for t in rows {
                if let Value::Str(s) = t.get(c) {
                    bytes.extend_from_slice(s.as_bytes());
                }
            }
            enc.put_bytes(&bytes);
        }
        _ => {
            for t in rows {
                t.get(c).encode(enc);
            }
        }
    }
}

fn decode_column(dec: &mut Decoder<'_>, rows: usize, out: &mut [Vec<Value>]) -> Result<()> {
    match dec.get_u8()? {
        COL_INT => {
            let raw = dec.get_raw(rows * 8)?;
            for (r, chunk) in raw.chunks_exact(8).enumerate() {
                let v = i64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                out[r].push(Value::Int(v));
            }
        }
        COL_FLOAT => {
            let raw = dec.get_raw(rows * 8)?;
            for (r, chunk) in raw.chunks_exact(8).enumerate() {
                let bits = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
                out[r].push(Value::Float(f64::from_bits(bits)));
            }
        }
        COL_BOOL => {
            let raw = dec.get_raw(rows)?;
            for (r, b) in raw.iter().enumerate() {
                match b {
                    0 => out[r].push(Value::Bool(false)),
                    1 => out[r].push(Value::Bool(true)),
                    b => return Err(StorageError::corrupt(format!("bad bool byte {b}"))),
                }
            }
        }
        COL_STR => {
            let lens_raw = dec.get_raw(rows * 4)?;
            let lens: Vec<usize> = lens_raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize)
                .collect();
            let bytes = dec.get_bytes()?;
            if lens.iter().sum::<usize>() != bytes.len() {
                return Err(StorageError::corrupt(
                    "string column lengths disagree with payload size",
                ));
            }
            let mut off = 0usize;
            for (r, len) in lens.iter().enumerate() {
                let s = std::str::from_utf8(&bytes[off..off + len])
                    .map_err(|_| StorageError::corrupt("invalid utf-8 in string column"))?;
                out[r].push(Value::Str(s.to_string()));
                off += len;
            }
        }
        COL_MIXED => {
            for slot in out.iter_mut().take(rows) {
                slot.push(Value::decode(dec)?);
            }
        }
        t => return Err(StorageError::corrupt(format!("bad column tag {t}"))),
    }
    Ok(())
}

impl Encode for TupleBlock {
    fn encode(&self, enc: &mut Encoder) {
        TupleSlice(&self.0).encode(enc);
    }
}

impl<T: Borrow<Tuple>> Encode for TupleSlice<'_, T> {
    fn encode(&self, enc: &mut Encoder) {
        let rows: Vec<&Tuple> = self.0.iter().map(Borrow::borrow).collect();
        let rows = rows.as_slice();
        let uniform = !rows.is_empty()
            && rows[0].arity() > 0
            && rows.iter().all(|t| t.arity() == rows[0].arity());
        if !uniform {
            enc.put_u8(FORMAT_ROWS);
            enc.put_u32(rows.len() as u32);
            for t in rows {
                t.encode(enc);
            }
            return;
        }
        let cols = rows[0].arity();
        enc.put_u8(FORMAT_COLUMNAR);
        enc.put_u32(rows.len() as u32);
        enc.put_u32(cols as u32);
        for c in 0..cols {
            let tag = column_tag(rows, c);
            encode_column(enc, rows, c, tag);
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
                let (rows, cols) = (rows as usize, cols as usize);
                let mut out: Vec<Vec<Value>> = vec![Vec::with_capacity(cols); rows];
                for _ in 0..cols {
                    decode_column(dec, rows, &mut out)?;
                }
                Ok(TupleBlock(out.into_iter().map(Tuple::new).collect()))
            }
            f => Err(StorageError::corrupt(format!("bad tuple block format {f}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;

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
            let (Value::Float(x), Value::Float(y)) = (a.get(0), b.get(0)) else {
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
