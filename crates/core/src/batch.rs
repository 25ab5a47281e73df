//! Columnar tuple batches for vectorized execution.
//!
//! The executor's original interface is tuple-at-a-time: one virtual
//! `next()` call, one `Poll` allocation, and one row record per row.
//! A [`Batch`] amortizes all three: operators exchange fixed-capacity
//! column vectors ([`ColumnVec`]) plus an optional *selection mask*, so
//! inner loops run per-column over unboxed `i64`/`f64` slices and filters
//! mark rows dead instead of copying survivors.
//!
//! Batches are an **execution-time** representation only. No operator
//! holds a `Batch` across a suspend: rows an operator has consumed but not
//! yet emitted live in the same row-oriented `pending`/buffer structures
//! the tuple path uses, so every existing suspend record, checkpoint, and
//! resume path is untouched by batch mode.

use qsr_storage::{PageColumns, RawColumn, Tuple, Value, ValueRef};
use std::sync::Arc;

/// One column of a [`Batch`]. Monomorphic variants store unboxed scalars
/// (the fast path for vectorized predicates and arithmetic); `Val` is the
/// escape hatch for columns that mix variants across rows; `Rows` is a
/// *late-materialized* column that shares the source tuples (one `Arc`'d
/// record each) and only reads a field out when a consumer actually asks
/// for it — the batch-mode answer to payload columns that a downstream
/// projection will drop unread.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// Unboxed 64-bit integers.
    Int(Vec<i64>),
    /// Unboxed 64-bit floats.
    Float(Vec<f64>),
    /// Unboxed booleans.
    Bool(Vec<bool>),
    /// Strings kept as raw UTF-8 (validated where they came from): one
    /// concatenated arena plus `rows + 1` offsets. This is the zero-copy
    /// landing zone for [`Batch::append_page_columns`] — a payload column
    /// arrives as two `memcpy`s — and no `String` is built per row.
    StrRaw {
        /// Byte offsets; string `r` is `data[offsets[r]..offsets[r+1]]`.
        offsets: Vec<u32>,
        /// Concatenated string bytes.
        data: Vec<u8>,
    },
    /// Heterogeneous column (mixed variants across rows).
    Val(Vec<Value>),
    /// Field `col` of shared source rows, extracted lazily on read.
    Rows {
        /// The source rows (shared with sibling `Rows` columns).
        rows: Arc<[Tuple]>,
        /// Which field of each row this column exposes.
        col: usize,
    },
}

impl ColumnVec {
    fn with_capacity_like(v: ValueRef<'_>, cap: usize) -> Self {
        match v {
            ValueRef::Int(_) => ColumnVec::Int(Vec::with_capacity(cap)),
            ValueRef::Float(_) => ColumnVec::Float(Vec::with_capacity(cap)),
            ValueRef::Bool(_) => ColumnVec::Bool(Vec::with_capacity(cap)),
            ValueRef::Str(_) => ColumnVec::StrRaw {
                offsets: vec![0],
                data: Vec::new(),
            },
        }
    }

    /// Rows stored in this column.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Float(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::StrRaw { offsets, .. } => offsets.len() - 1,
            ColumnVec::Val(v) => v.len(),
            ColumnVec::Rows { rows, .. } => rows.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `v`, promoting the column to `Val` on a variant mismatch.
    pub fn push(&mut self, v: ValueRef<'_>) {
        match (&mut *self, v) {
            (ColumnVec::Int(col), ValueRef::Int(x)) => col.push(x),
            (ColumnVec::Float(col), ValueRef::Float(x)) => col.push(x),
            (ColumnVec::Bool(col), ValueRef::Bool(x)) => col.push(x),
            (ColumnVec::StrRaw { offsets, data }, ValueRef::Str(x)) => {
                data.extend_from_slice(x.as_bytes());
                offsets.push(data.len() as u32);
            }
            (ColumnVec::Val(col), v) => col.push(v.to_value()),
            (_, v) => {
                self.promote();
                self.push(v);
            }
        }
    }

    /// Rewrite the column as `Val`, boxing each scalar (and materializing
    /// every lazy row reference).
    fn promote(&mut self) {
        let vals = (0..self.len()).map(|r| self.value(r).to_value()).collect();
        *self = ColumnVec::Val(vals);
    }

    /// The value at `row`, borrowed from the column.
    pub fn value(&self, row: usize) -> ValueRef<'_> {
        match self {
            ColumnVec::Int(v) => ValueRef::Int(v[row]),
            ColumnVec::Float(v) => ValueRef::Float(v[row]),
            ColumnVec::Bool(v) => ValueRef::Bool(v[row]),
            ColumnVec::StrRaw { offsets, data } => ValueRef::Str(
                std::str::from_utf8(&data[offsets[row] as usize..offsets[row + 1] as usize])
                    .expect("validated where the bytes came from"),
            ),
            ColumnVec::Val(v) => v[row].as_ref(),
            ColumnVec::Rows { rows, col } => rows[row].get(*col),
        }
    }

    /// The raw `i64` slice when every row is an `Int` — the vectorized
    /// fast path for integer predicates and keys.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            ColumnVec::Int(v) => Some(v),
            _ => None,
        }
    }

    /// An empty column shaped like page column `rc`, reserving `cap` rows.
    fn with_capacity_like_raw(rc: &RawColumn, cap: usize) -> Self {
        match rc {
            RawColumn::Int(_) => ColumnVec::Int(Vec::with_capacity(cap)),
            RawColumn::Float(_) => ColumnVec::Float(Vec::with_capacity(cap)),
            RawColumn::Bool(_) => ColumnVec::Bool(Vec::with_capacity(cap)),
            RawColumn::Str { .. } => ColumnVec::StrRaw {
                offsets: vec![0],
                data: Vec::new(),
            },
            RawColumn::Val(_) => ColumnVec::Val(Vec::with_capacity(cap)),
        }
    }

    /// Bulk-append rows `[start, start + len)` of page column `rc`.
    /// Matching representations copy as slices (strings as one offset
    /// rebase plus one byte `memcpy`); a representation mismatch — a page
    /// whose column type differs from the pages already appended — falls
    /// back to value-wise pushes, promoting as needed.
    fn append_raw(&mut self, rc: &RawColumn, start: usize, len: usize) {
        match (&mut *self, rc) {
            (ColumnVec::Int(dst), RawColumn::Int(src)) => {
                dst.extend_from_slice(&src[start..start + len]);
            }
            (ColumnVec::Float(dst), RawColumn::Float(src)) => {
                dst.extend_from_slice(&src[start..start + len]);
            }
            (ColumnVec::Bool(dst), RawColumn::Bool(src)) => {
                dst.extend_from_slice(&src[start..start + len]);
            }
            (
                ColumnVec::StrRaw { offsets, data },
                RawColumn::Str {
                    offsets: src_off,
                    data: src_data,
                },
            ) => {
                let base = data.len() as u32;
                let first = src_off[start];
                data.extend_from_slice(&src_data[first as usize..src_off[start + len] as usize]);
                offsets.extend((start + 1..=start + len).map(|r| base + (src_off[r] - first)));
            }
            (ColumnVec::Val(dst), RawColumn::Val(src)) => {
                dst.extend_from_slice(&src[start..start + len]);
            }
            _ => {
                for r in start..start + len {
                    self.push(rc.value(r));
                }
            }
        }
    }
}

/// A fixed-capacity run of rows stored column-major, with an optional
/// selection mask. `sel == None` means all rows are live; otherwise `sel`
/// lists the live row indices in order (filters compose by shrinking it —
/// no row is moved until the batch is torn back into [`Tuple`]s at a
/// row-oriented consumer).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    capacity: usize,
    arity: usize,
    columns: Vec<ColumnVec>,
    sel: Option<Vec<u32>>,
    /// When the batch was built from whole source rows
    /// ([`Batch::from_rows`]), the rows themselves — `tuple()` and
    /// `to_tuples()` then hand back `Arc` clones instead of rebuilding
    /// rows value by value. Cleared by any mutation that breaks the
    /// column/row correspondence (`push*`, `project`).
    rows: Option<Arc<[Tuple]>>,
}

impl Batch {
    /// Default number of rows per batch (the `QSR_BATCH_SIZE` knob and
    /// `--batch-size` flag override it).
    pub const DEFAULT_SIZE: usize = 1024;

    /// An empty batch of `arity` columns reserving `capacity` rows.
    /// Capacity is a reservation hint, not a hard bound: `push` past it
    /// grows the columns (operators that merge inputs may briefly overfill
    /// by one child batch).
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        Self {
            capacity,
            arity,
            columns: Vec::new(),
            sel: None,
            rows: None,
        }
    }

    /// Build a batch from whole source rows without deep-copying heap
    /// values: scalar fields (`Int`/`Float`/`Bool`, judged by the first
    /// row) are unboxed into monomorphic columns for vectorized loops,
    /// while string and mixed fields become lazy [`ColumnVec::Rows`]
    /// views over the shared rows. A payload column a downstream
    /// projection drops is therefore never cloned at all, and row
    /// consumers get the original tuples back as `Arc` clones.
    pub fn from_rows(arity: usize, rows: Vec<Tuple>) -> Self {
        let capacity = rows.len();
        if rows.is_empty() {
            return Self::with_capacity(arity, capacity);
        }
        let rows: Arc<[Tuple]> = rows.into();
        debug_assert_eq!(rows[0].arity(), arity, "from_rows arity mismatch");
        // Field `c` of every row through `pick`, if it takes them all.
        fn unboxed<T>(
            rows: &[Tuple],
            c: usize,
            pick: impl Fn(ValueRef<'_>) -> Option<T>,
        ) -> Option<Vec<T>> {
            rows.iter().map(|t| pick(t.get(c))).collect()
        }
        let columns = (0..arity)
            .map(|c| {
                let column = match rows[0].get(c) {
                    ValueRef::Int(_) => unboxed(&rows, c, |v| v.as_int().ok()).map(ColumnVec::Int),
                    ValueRef::Float(_) => {
                        unboxed(&rows, c, |v| v.as_float().ok()).map(ColumnVec::Float)
                    }
                    ValueRef::Bool(_) => {
                        unboxed(&rows, c, |v| v.as_bool().ok()).map(ColumnVec::Bool)
                    }
                    ValueRef::Str(_) => None,
                };
                column.unwrap_or_else(|| ColumnVec::Rows {
                    rows: rows.clone(),
                    col: c,
                })
            })
            .collect();
        Self {
            capacity,
            arity,
            columns,
            sel: None,
            rows: Some(rows),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Reserved row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Physical rows stored (ignores the selection mask).
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnVec::len)
    }

    /// True if no physical rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the physical row count reached the reservation.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Rows surviving the selection mask.
    pub fn live_len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.len(),
        }
    }

    /// The selection mask (live row indices), if one is set.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Replace the selection mask. Callers must pass in-bounds, strictly
    /// increasing indices (typically a shrunk copy of the previous mask).
    pub fn set_selection(&mut self, sel: Option<Vec<u32>>) {
        self.sel = sel;
    }

    /// Append a row of owned values. Panics if `values.len() != arity`
    /// (an internal invariant — schemas are checked at plan build).
    pub fn push_row(&mut self, values: Vec<Value>) {
        assert_eq!(values.len(), self.arity, "batch row arity mismatch");
        self.push_fields(values.iter().map(Value::as_ref));
    }

    /// Append a [`Tuple`]'s fields (no intermediate row vector).
    pub fn push(&mut self, t: &Tuple) {
        assert_eq!(t.arity(), self.arity, "batch row arity mismatch");
        self.push_fields(t.values());
    }

    fn push_fields<'a>(&mut self, fields: impl Iterator<Item = ValueRef<'a>> + Clone) {
        self.rows = None;
        if self.columns.is_empty() {
            self.columns = fields
                .clone()
                .map(|v| ColumnVec::with_capacity_like(v, self.capacity))
                .collect();
        }
        for (col, v) in self.columns.iter_mut().zip(fields) {
            col.push(v);
        }
    }

    /// Bulk-append rows `[start, start + len)` of a columnar-decoded heap
    /// page. Scalar page columns copy as unboxed slices and string columns
    /// as raw bytes, so appending a page run costs two `memcpy`s per
    /// column — no per-row `Value` or `String` is built. This is the
    /// vectorized table scan's inner loop.
    pub fn append_page_columns(&mut self, pc: &PageColumns, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        assert_eq!(pc.arity(), self.arity, "batch/page arity mismatch");
        self.rows = None;
        if self.columns.is_empty() {
            self.columns = pc
                .columns()
                .iter()
                .map(|rc| ColumnVec::with_capacity_like_raw(rc, self.capacity))
                .collect();
        }
        for (col, rc) in self.columns.iter_mut().zip(pc.columns()) {
            col.append_raw(rc, start, len);
        }
    }

    /// Column `c`, if any row has been pushed.
    pub fn column(&self, c: usize) -> Option<&ColumnVec> {
        self.columns.get(c)
    }

    /// The value at (`row`, `col`) ignoring the selection mask.
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.columns[col].value(row)
    }

    /// Materialize physical row `row` as a [`Tuple`] (ignores selection).
    /// For a [`Batch::from_rows`] batch this is an `Arc` clone of the
    /// source row, not a value-by-value rebuild.
    pub fn tuple(&self, row: usize) -> Tuple {
        if let Some(rows) = &self.rows {
            return rows[row].clone();
        }
        Tuple::from_fields((0..self.arity).map(|c| self.value(row, c)))
    }

    /// Iterate the live row indices in order.
    pub fn live_rows(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.sel {
            Some(sel) => Box::new(sel.iter().map(|&r| r as usize)),
            None => Box::new(0..self.len()),
        }
    }

    /// Tear the batch into row [`Tuple`]s, selection applied, in order.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.live_rows().map(|r| self.tuple(r)).collect()
    }

    /// Columnar projection: keep `indices` columns, in order. Columns used
    /// once are moved; repeats are cloned. O(width), never O(rows) for the
    /// move case — this is the batch-mode win for `Project`.
    pub fn project(mut self, indices: &[usize]) -> Batch {
        let mut slots: Vec<Option<ColumnVec>> = self.columns.drain(..).map(Some).collect();
        let columns: Vec<ColumnVec> = indices
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                if indices[k + 1..].contains(&i) {
                    // Referenced again later: leave the column in place
                    // and hand out a clone; the final reference moves it.
                    slots[i].clone().expect("projected column vanished")
                } else {
                    slots[i].take().expect("projected column vanished")
                }
            })
            .collect();
        let _ = slots;
        Batch {
            capacity: self.capacity,
            arity: indices.len(),
            columns,
            sel: self.sel,
            // The column/row correspondence is gone after a projection.
            rows: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(i),
            Value::Str(format!("s{i}")),
            Value::Float(i as f64),
        ])
    }

    #[test]
    fn push_and_read_back() {
        let mut b = Batch::with_capacity(3, 4);
        assert!(b.is_empty());
        for i in 0..4 {
            b.push(&row(i));
        }
        assert!(b.is_full());
        assert_eq!(b.len(), 4);
        assert_eq!(b.live_len(), 4);
        assert_eq!(b.to_tuples(), (0..4).map(row).collect::<Vec<_>>());
        assert_eq!(b.column(0).unwrap().as_ints(), Some(&[0, 1, 2, 3][..]));
    }

    #[test]
    fn selection_masks_rows_without_moving_them() {
        let mut b = Batch::with_capacity(1, 8);
        for i in 0..8 {
            b.push_row(vec![Value::Int(i)]);
        }
        b.set_selection(Some(vec![1, 4, 6]));
        assert_eq!(b.len(), 8);
        assert_eq!(b.live_len(), 3);
        let vals: Vec<i64> = b
            .to_tuples()
            .iter()
            .map(|t| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 4, 6]);
    }

    #[test]
    fn mixed_column_promotes() {
        let mut b = Batch::with_capacity(1, 2);
        b.push_row(vec![Value::Int(1)]);
        b.push_row(vec![Value::Str("x".into())]);
        assert_eq!(b.column(0).unwrap().as_ints(), None);
        assert_eq!(b.value(0, 0), ValueRef::Int(1));
        assert_eq!(b.value(1, 0), ValueRef::Str("x"));
    }

    #[test]
    fn project_moves_columns_and_keeps_selection() {
        let mut b = Batch::with_capacity(3, 4);
        for i in 0..4 {
            b.push(&row(i));
        }
        b.set_selection(Some(vec![0, 3]));
        let p = b.project(&[2, 0, 0]);
        assert_eq!(p.arity(), 3);
        assert_eq!(p.live_len(), 2);
        let rows = p.to_tuples();
        assert_eq!(
            rows[1],
            Tuple::new(vec![Value::Float(3.0), Value::Int(3), Value::Int(3)])
        );
    }

    #[test]
    fn overfill_past_capacity_is_allowed() {
        let mut b = Batch::with_capacity(1, 2);
        for i in 0..5 {
            b.push_row(vec![Value::Int(i)]);
        }
        assert_eq!(b.len(), 5);
        assert!(b.is_full());
    }
}
