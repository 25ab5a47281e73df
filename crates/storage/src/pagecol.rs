//! Column-major heap-page decode for the vectorized scan path.
//!
//! The tuple-at-a-time path copies each row's record off the page into a
//! [`Tuple`] — one allocation per row. A batch-mode scan instead decodes
//! the same page bytes straight into [`PageColumns`]: scalars land in
//! unboxed `Vec<i64>`/`Vec<f64>` runs, and string fields stay as one
//! concatenated byte arena plus an offset run — no per-row allocation at
//! all. The executor's `Batch` copies column ranges out of this (or moves
//! them) and reads a string only when a consumer actually asks for one.

use crate::codec::Decoder;
use crate::error::{Result, StorageError};
use crate::tuple::Tuple;
use crate::value::{Value, ValueRef, TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_STR};

/// One column of a decoded page.
#[derive(Debug, Clone, PartialEq)]
pub enum RawColumn {
    /// Unboxed integers.
    Int(Vec<i64>),
    /// Unboxed floats.
    Float(Vec<f64>),
    /// Unboxed booleans.
    Bool(Vec<bool>),
    /// UTF-8 strings: `rows + 1` offsets into one concatenated arena.
    /// Validated at decode; materialized on read.
    Str {
        /// Byte offsets; string `r` is `data[offsets[r]..offsets[r+1]]`.
        offsets: Vec<u32>,
        /// Concatenated string bytes.
        data: Vec<u8>,
    },
    /// Mixed-variant column (boxed fallback).
    Val(Vec<Value>),
}

impl RawColumn {
    /// A column holding `v` as its first row, typed by `v`'s variant and
    /// sized for `cap` rows.
    fn seeded(v: ValueRef<'_>, cap: usize) -> Self {
        match v {
            ValueRef::Int(x) => {
                let mut vec = Vec::with_capacity(cap);
                vec.push(x);
                RawColumn::Int(vec)
            }
            ValueRef::Float(x) => {
                let mut vec = Vec::with_capacity(cap);
                vec.push(x);
                RawColumn::Float(vec)
            }
            ValueRef::Bool(x) => {
                let mut vec = Vec::with_capacity(cap);
                vec.push(x);
                RawColumn::Bool(vec)
            }
            ValueRef::Str(s) => RawColumn::Str {
                offsets: vec![0, s.len() as u32],
                data: s.as_bytes().to_vec(),
            },
        }
    }

    /// Rows stored.
    pub fn len(&self) -> usize {
        match self {
            RawColumn::Int(v) => v.len(),
            RawColumn::Float(v) => v.len(),
            RawColumn::Bool(v) => v.len(),
            RawColumn::Str { offsets, .. } => offsets.len() - 1,
            RawColumn::Val(v) => v.len(),
        }
    }

    /// True if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string at `row` of a `Str` column, as raw (validated) bytes.
    pub fn str_bytes(&self, row: usize) -> Option<&[u8]> {
        match self {
            RawColumn::Str { offsets, data } => {
                Some(&data[offsets[row] as usize..offsets[row + 1] as usize])
            }
            _ => None,
        }
    }

    /// The value at `row`, borrowed from the column.
    pub fn value(&self, row: usize) -> ValueRef<'_> {
        match self {
            RawColumn::Int(v) => ValueRef::Int(v[row]),
            RawColumn::Float(v) => ValueRef::Float(v[row]),
            RawColumn::Bool(v) => ValueRef::Bool(v[row]),
            RawColumn::Str { .. } => ValueRef::Str(
                std::str::from_utf8(self.str_bytes(row).expect("Str column"))
                    .expect("validated at decode"),
            ),
            RawColumn::Val(v) => v[row].as_ref(),
        }
    }

    /// Box every stored value (the mixed-column escape hatch).
    fn promote(&mut self) {
        let vals: Vec<Value> = (0..self.len()).map(|r| self.value(r).to_value()).collect();
        *self = RawColumn::Val(vals);
    }

    /// Decode one value off `dec` into this column, promoting to `Val`
    /// on a variant mismatch.
    fn push_from(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let tag = dec.get_u8()?;
        match (&mut *self, tag) {
            (RawColumn::Int(v), TAG_INT) => v.push(dec.get_i64()?),
            (RawColumn::Float(v), TAG_FLOAT) => v.push(dec.get_f64()?),
            (RawColumn::Bool(v), TAG_BOOL) => v.push(dec.get_bool()?),
            (RawColumn::Str { offsets, data }, TAG_STR) => {
                let len = dec.get_u32()? as usize;
                let bytes = dec.get_raw(len)?;
                std::str::from_utf8(bytes)
                    .map_err(|_| StorageError::corrupt("invalid utf-8 in string"))?;
                data.extend_from_slice(bytes);
                offsets.push(data.len() as u32);
            }
            (RawColumn::Val(v), TAG_INT) => v.push(Value::Int(dec.get_i64()?)),
            (RawColumn::Val(v), TAG_FLOAT) => v.push(Value::Float(dec.get_f64()?)),
            (RawColumn::Val(v), TAG_BOOL) => v.push(Value::Bool(dec.get_bool()?)),
            (RawColumn::Val(v), TAG_STR) => v.push(Value::Str(dec.get_str()?)),
            (_, TAG_INT | TAG_FLOAT | TAG_BOOL | TAG_STR) => {
                self.promote();
                // Re-dispatch with the tag already consumed.
                match (&mut *self, tag) {
                    (RawColumn::Val(v), TAG_INT) => v.push(Value::Int(dec.get_i64()?)),
                    (RawColumn::Val(v), TAG_FLOAT) => v.push(Value::Float(dec.get_f64()?)),
                    (RawColumn::Val(v), TAG_BOOL) => v.push(Value::Bool(dec.get_bool()?)),
                    (RawColumn::Val(v), TAG_STR) => v.push(Value::Str(dec.get_str()?)),
                    _ => unreachable!("promote yields Val"),
                }
            }
            (_, t) => return Err(StorageError::corrupt(format!("bad value tag {t}"))),
        }
        Ok(())
    }
}

/// A whole heap page decoded column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct PageColumns {
    rows: usize,
    cols: Vec<RawColumn>,
}

impl PageColumns {
    /// Number of rows on the page.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (0 on an empty page).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[RawColumn] {
        &self.cols
    }

    /// Materialize physical row `row` as a [`Tuple`].
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::from_fields(self.cols.iter().map(|c| c.value(row)))
    }
}

/// Decode the tuple area of a heap page (everything after the count
/// header) into columns. `None` when the rows are ragged — a heap that
/// does not hold a single-schema table — in which case the caller falls
/// back to the row decode.
pub fn decode_page_columns(tuple_area: &[u8], count: usize) -> Result<Option<PageColumns>> {
    let mut outer = Decoder::new(tuple_area);
    let mut cols: Vec<RawColumn> = Vec::new();
    for r in 0..count {
        let bytes = outer.get_bytes()?;
        let mut dec = Decoder::new(bytes);
        let arity = dec.get_u32()? as usize;
        if r == 0 {
            if arity > (1 << 16) {
                return Err(StorageError::corrupt(format!(
                    "implausible tuple arity {arity}"
                )));
            }
            // The first row decides each column's representation.
            cols.reserve(arity);
            for _ in 0..arity {
                cols.push(RawColumn::seeded(ValueRef::decode(&mut dec)?, count));
            }
        } else {
            if arity != cols.len() {
                return Ok(None);
            }
            for col in cols.iter_mut() {
                col.push_from(&mut dec)?;
            }
        }
    }
    Ok(Some(PageColumns { rows: count, cols }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_roundtrip(rows: &[Tuple]) -> PageColumns {
        // Encode exactly like HeapFile::append does per tuple.
        let mut enc = crate::codec::Encoder::new();
        for t in rows {
            enc.put_bytes(&t.encode_to_vec());
        }
        let bytes = enc.finish();
        decode_page_columns(&bytes, rows.len())
            .expect("decode")
            .expect("uniform rows")
    }

    use crate::codec::Encode;

    #[test]
    fn scalar_and_string_columns_roundtrip() {
        let rows: Vec<Tuple> = (0..50)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Float(i as f64 / 2.0),
                    Value::Str(format!("p-{i}")),
                    Value::Bool(i % 3 == 0),
                ])
            })
            .collect();
        let pc = decode_roundtrip(&rows);
        assert_eq!(pc.rows(), 50);
        assert_eq!(pc.arity(), 4);
        assert!(matches!(pc.columns()[0], RawColumn::Int(_)));
        assert!(matches!(pc.columns()[2], RawColumn::Str { .. }));
        for (r, t) in rows.iter().enumerate() {
            assert_eq!(&pc.tuple(r), t);
        }
    }

    #[test]
    fn mixed_variant_column_promotes_to_val() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Str("two".into())]),
            Tuple::new(vec![Value::Int(3)]),
        ];
        let pc = decode_roundtrip(&rows);
        assert!(matches!(pc.columns()[0], RawColumn::Val(_)));
        for (r, t) in rows.iter().enumerate() {
            assert_eq!(&pc.tuple(r), t);
        }
    }

    #[test]
    fn ragged_rows_fall_back() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Int(2), Value::Int(3)]),
        ];
        let mut enc = crate::codec::Encoder::new();
        for t in &rows {
            enc.put_bytes(&t.encode_to_vec());
        }
        let bytes = enc.finish();
        assert!(decode_page_columns(&bytes, 2).expect("decode").is_none());
    }

    #[test]
    fn corrupt_tag_is_typed_error() {
        let mut enc = crate::codec::Encoder::new();
        let mut inner = crate::codec::Encoder::new();
        inner.put_u32(1);
        inner.put_u8(9); // bad tag
        enc.put_bytes(&inner.finish());
        assert!(decode_page_columns(&enc.finish(), 1).is_err());
    }
}
