//! Tuples: rows kept as the bytes they are on a page.
//!
//! A row's bytes are its codec record — a little-endian `u32` arity, then
//! one tagged value per field (`0` + 8 bytes `Int`, `1` + 8 bytes `Float`,
//! `2` + `u32` length + UTF-8 `Str`, `3` + one byte `Bool`). These are the
//! bytes [`HeapFile::append`] puts behind a record's length prefix and the
//! bytes a scan finds there. A row read off a page is a [`RowRef`]: a
//! checked view of those bytes where they lie, until a parent keeps it —
//! then it becomes a [`Tuple`], one `Arc<[u8]>` holding a copy of the
//! record. Reading a row costs one checking pass, keeping it one
//! allocation, spilling it one copy, and joining two a header plus two
//! copies into one allocation — none per field.
//!
//! The record is checked once, where it enters: [`RowRef::from_record`]
//! (and `Decode`) walks the tags, lengths, bool bytes and UTF-8 and
//! returns the codec's typed `Corrupt` errors; the constructors that
//! start from values write a valid record by construction. Every accessor
//! after that trusts the bytes — in safe code, so a broken invariant
//! would be a panic, never undefined behaviour. Fields are read through
//! the borrowed [`ValueRef`]; `get(i)` skips `i` fields (arities are
//! single digits), and a `Str` is re-checked by `from_utf8` when — and
//! only when — it is read. `Tuple`'s accessors are its `RowRef`'s, so
//! there is one walker of the layout.
//!
//! Equality, ordering and hashing are value-wise — those of the
//! `[Value]` slice this type used to hold, floats included — not
//! byte-wise, and [`Tuple::heap_bytes`] keeps its formula, so optimizer
//! inputs and every ledger count are what they were.
//!
//! [`HeapFile::append`]: crate::HeapFile::append

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Result, StorageError};
use crate::value::{Value, ValueRef, TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_STR};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Bytes of the arity header.
const HEADER: usize = 4;

/// A row. Tuples are immutable and cheap to clone: the record lives
/// behind an `Arc`, so buffering operators (NLJ outer buffers, sort
/// buffers) can hold hundreds of thousands of tuples without deep copies.
#[derive(Clone)]
pub struct Tuple {
    /// The validated codec record: arity header, then the tagged fields.
    rec: Arc<[u8]>,
}

/// A row borrowed in place: a checked codec record in bytes someone else
/// owns — the page a cursor holds, a [`Tuple`], a
/// [`RowBuffer`](crate::RowBuffer). Reading it allocates nothing;
/// [`RowRef::to_tuple`] is the one copy, made only for a row that is kept.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    /// The checked record: arity header, then the tagged fields.
    rec: &'a [u8],
}

/// Write cursor over a freshly allocated record.
struct Fill<'b>(&'b mut [u8]);

impl Fill<'_> {
    fn put(&mut self, bytes: &[u8]) {
        let (head, tail) = std::mem::take(&mut self.0).split_at_mut(bytes.len());
        head.copy_from_slice(bytes);
        self.0 = tail;
    }
}

/// Length of the encoded field at the front of `bytes`, by its tag and —
/// for a string — its length prefix; `None` for an unknown tag or a field
/// that runs past the end. The one walker of the layout: a record being
/// checked and a checked record being read both step through it.
#[inline]
fn field_len(bytes: &[u8]) -> Option<usize> {
    let len = match *bytes.first()? {
        TAG_INT | TAG_FLOAT => 9,
        TAG_BOOL => 2,
        TAG_STR => {
            let len: [u8; 4] = bytes.get(1..5)?.try_into().ok()?;
            5 + u32::from_le_bytes(len) as usize
        }
        _ => return None,
    };
    (len <= bytes.len()).then_some(len)
}

/// Length of the well-formed record at the front of `bytes`, or `None`.
/// This is the check every row read off a page goes through, so it says
/// only yes or no; [`Tuple::decode`] asks the codec's own readers to name
/// the fault when the answer is no.
fn record_len(bytes: &[u8]) -> Option<usize> {
    let header: [u8; HEADER] = bytes.get(..HEADER)?.try_into().ok()?;
    let mut rest = &bytes[HEADER..];
    for _ in 0..u32::from_le_bytes(header) {
        let (field, tail) = rest.split_at(field_len(rest)?);
        let sound = match field[0] {
            TAG_BOOL => field[1] <= 1,
            // ASCII is UTF-8, and the common case costs one pass.
            TAG_STR => field[5..].is_ascii() || std::str::from_utf8(&field[5..]).is_ok(),
            _ => true,
        };
        if !sound {
            return None;
        }
        rest = tail;
    }
    Some(bytes.len() - rest.len())
}

/// Check the record at the front of `dec` and consume it: the door every
/// row read back from a dump passes, naming the fault in the codec's
/// typed `Corrupt` error when there is one.
pub(crate) fn take_record<'a>(dec: &mut Decoder<'a>) -> Result<RowRef<'a>> {
    match record_len(dec.rest()) {
        Some(len) => dec.get_raw(len).map(RowRef::trusted),
        None => Err(malformed(dec)),
    }
}

/// The encoded fields of a record, one slice (tag and payload) each.
#[derive(Clone)]
struct Fields<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let len = field_len(self.rest).expect("record checked at construction");
        let (field, rest) = self.rest.split_at(len);
        self.rest = rest;
        Some(field)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Fields<'_> {}

/// The value an encoded field (checked when its record was built) holds.
#[inline]
fn read_field(field: &[u8]) -> ValueRef<'_> {
    let scalar = || {
        let payload: [u8; 8] = field[1..9].try_into().expect("eight payload bytes");
        u64::from_le_bytes(payload)
    };
    match field[0] {
        TAG_INT => ValueRef::Int(scalar() as i64),
        TAG_FLOAT => ValueRef::Float(f64::from_bits(scalar())),
        TAG_BOOL => ValueRef::Bool(field[1] != 0),
        _ => ValueRef::Str(
            std::str::from_utf8(&field[5..]).expect("record checked at construction"),
        ),
    }
}

impl<'a> RowRef<'a> {
    /// Borrow `bytes` — one whole codec record, as [`Encode`] writes it —
    /// after checking it: arity, tags, lengths, bool bytes, UTF-8 and the
    /// absence of trailing bytes. Malformed input is a typed `Corrupt`
    /// error.
    #[inline]
    pub fn from_record(bytes: &'a [u8]) -> Result<Self> {
        if record_len(bytes) == Some(bytes.len()) {
            return Ok(RowRef { rec: bytes });
        }
        // Anything else — a malformed field, bytes after the record — goes
        // to the general decoder to be named.
        Err(Tuple::decode_from_slice(bytes)
            .err()
            .unwrap_or_else(|| StorageError::corrupt("malformed row record")))
    }

    /// A record this crate checked when it took the bytes in.
    pub(crate) fn trusted(rec: &'a [u8]) -> Self {
        RowRef { rec }
    }

    /// The whole record.
    #[inline]
    pub fn record(self) -> &'a [u8] {
        self.rec
    }

    /// Number of fields.
    #[inline]
    pub fn arity(self) -> usize {
        let header: [u8; HEADER] = self.rec[..HEADER].try_into().expect("record has a header");
        u32::from_le_bytes(header) as usize
    }

    /// Every encoded field (tag and payload) in order.
    #[inline]
    fn fields(self) -> Fields<'a> {
        Fields {
            rest: &self.rec[HEADER..],
            left: self.arity(),
        }
    }

    /// The encoded field at `idx`. Panics if there is none.
    #[inline]
    fn field(self, idx: usize) -> &'a [u8] {
        self.fields()
            .nth(idx)
            .unwrap_or_else(|| panic!("field {idx} of a tuple of arity {}", self.arity()))
    }

    /// Field at `idx`. Panics if there is none.
    #[inline]
    pub fn get(self, idx: usize) -> ValueRef<'a> {
        read_field(self.field(idx))
    }

    /// All fields in order.
    pub fn values(self) -> impl ExactSizeIterator<Item = ValueRef<'a>> + Clone {
        self.fields().map(read_field)
    }

    /// Approximate in-memory footprint of the row as a [`Tuple`], in
    /// bytes: what the suspend-plan optimizer is told a buffered row
    /// costs. Every `heap_bytes` of a row is this one formula.
    pub fn heap_bytes(self) -> usize {
        // [`ValueRef::heap_bytes`] of each field, off the tags: the payload
        // of a scalar, the bytes of a string plus 8.
        let field = |f: &[u8]| match f[0] {
            TAG_STR => f.len() - 5 + 8,
            _ => f.len() - 1,
        };
        16 + self.fields().map(field).sum::<usize>()
    }

    /// Keep the row: copy its record into a [`Tuple`], one allocation.
    #[inline]
    pub fn to_tuple(self) -> Tuple {
        Tuple {
            rec: Arc::from(self.rec),
        }
    }
}

impl PartialEq for RowRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl Tuple {
    /// Allocate a record of `HEADER + body` bytes — the only allocation
    /// of any constructor — and let `fill` write the body.
    fn build(arity: usize, body: usize, fill: impl FnOnce(&mut Fill<'_>)) -> Tuple {
        let arity = u32::try_from(arity).expect("arity fits the record header");
        let mut rec: Arc<[u8]> = std::iter::repeat_n(0u8, HEADER + body).collect();
        let mut w = Fill(Arc::get_mut(&mut rec).expect("freshly built, not yet shared"));
        w.put(&arity.to_le_bytes());
        fill(&mut w);
        assert!(w.0.is_empty(), "record body shorter than sized");
        Tuple { rec }
    }

    /// Construct a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self::from_fields(values.iter().map(Value::as_ref))
    }

    /// Construct a tuple from borrowed values. The fields are walked
    /// twice — once to size the record, once to write it — so the
    /// iterator must be `Clone` (and cheap to restart).
    pub fn from_fields<'a, I>(fields: I) -> Self
    where
        I: IntoIterator<Item = ValueRef<'a>>,
        I::IntoIter: Clone,
    {
        let fields = fields.into_iter();
        let (mut arity, mut body) = (0, 0);
        for v in fields.clone() {
            arity += 1;
            body += v.encoded_len();
        }
        Self::build(arity, body, |w| {
            for v in fields {
                v.encode_with(|bytes| w.put(bytes));
            }
        })
    }

    /// Adopt a copy of `bytes` — one whole codec record — after
    /// [`RowRef::from_record`] has checked it. Malformed input is a typed
    /// `Corrupt` error, and no row is allocated for it.
    pub fn from_record(bytes: &[u8]) -> Result<Self> {
        RowRef::from_record(bytes).map(RowRef::to_tuple)
    }

    /// The row, borrowed: every accessor below reads through it.
    #[inline]
    pub fn row(&self) -> RowRef<'_> {
        RowRef { rec: &self.rec }
    }

    /// The whole record.
    pub(crate) fn record(&self) -> &[u8] {
        &self.rec
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.row().arity()
    }

    /// Field at `idx`. Panics if there is none.
    #[inline]
    pub fn get(&self, idx: usize) -> ValueRef<'_> {
        self.row().get(idx)
    }

    /// All fields in order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = ValueRef<'_>> + Clone {
        self.row().values()
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let (left, right) = (&self.rec[HEADER..], &other.rec[HEADER..]);
        Self::build(self.arity() + other.arity(), left.len() + right.len(), |w| {
            w.put(left);
            w.put(right);
        })
    }

    /// Project onto the given field indices, in order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        let picked = indices.iter().map(|&i| self.row().field(i));
        let body = picked.clone().map(<[u8]>::len).sum();
        Self::build(indices.len(), body, |w| picked.for_each(|f| w.put(f)))
    }

    /// Approximate in-memory footprint in bytes (for heap-state sizing
    /// reported to the suspend-plan optimizer).
    pub fn heap_bytes(&self) -> usize {
        self.row().heap_bytes()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.row() == other.row()
    }
}

impl Eq for Tuple {}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Lexicographic over the fields, a prefix before its extensions.
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

impl std::hash::Hash for Tuple {
    /// As a slice of values hashes: the length, then each field.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_usize(self.arity());
        self.values().for_each(|v| v.hash(state));
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.row().fmt(f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl Encode for Tuple {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.rec);
    }
}

impl Decode for Tuple {
    /// Check one record off `dec` and copy it: this is where a row's
    /// bytes are validated, and the one allocation of a decode.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        take_record(dec).map(RowRef::to_tuple)
    }
}

/// Why the record at the front of `dec` is malformed: the error the
/// codec's readers raise when they walk it value by value.
#[cold]
fn malformed(dec: &mut Decoder<'_>) -> StorageError {
    let mut walk = || -> Result<()> {
        for _ in 0..dec.get_u32()? {
            ValueRef::decode(dec)?;
        }
        Ok(())
    };
    walk()
        .err()
        .unwrap_or_else(|| StorageError::corrupt("malformed row record"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use proptest::prelude::*;
    use std::hash::{DefaultHasher, Hash, Hasher};

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn basic_accessors() {
        let x = t(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(x.arity(), 2);
        assert_eq!(x.get(0), ValueRef::Int(1));
        assert_eq!(x.get(1).as_str().unwrap(), "a");
        assert_eq!(x.values().len(), 2);
    }

    #[test]
    fn join_concatenates() {
        let a = t(vec![Value::Int(1)]);
        let b = t(vec![Value::Int(2), Value::Bool(true)]);
        let j = a.join(&b);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.get(2), ValueRef::Bool(true));
    }

    #[test]
    fn project_reorders() {
        let x = t(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let p = x.project(&[2, 0]);
        assert_eq!(p, t(vec![Value::Int(3), Value::Int(1)]));
    }

    #[test]
    fn clones_share_storage() {
        let x = t(vec![Value::Str("big".repeat(100))]);
        let y = x.clone();
        assert!(Arc::ptr_eq(&x.rec, &y.rec));
    }

    #[test]
    fn display_and_debug_are_readable() {
        let x = t(vec![Value::Int(5), Value::Str("a".into())]);
        assert_eq!(x.to_string(), "[5, \"a\"]");
        assert_eq!(format!("{x:?}"), "[Int(5), Str(\"a\")]");
    }

    #[test]
    #[should_panic(expected = "field 2 of a tuple of arity 2")]
    fn get_past_the_arity_panics_by_name() {
        t(vec![Value::Int(5), Value::Int(6)]).get(2);
    }

    #[test]
    fn from_record_rejects_every_malformation_with_the_codec_errors() {
        let good = t(vec![Value::Int(7), Value::Str("héllo".into()), Value::Bool(true)]);
        let rec = good.encode_to_vec();
        assert_eq!(Tuple::from_record(&rec).unwrap(), good);
        let corrupt = |bytes: &[u8]| match Tuple::from_record(bytes) {
            Err(StorageError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // Truncated anywhere: header, tag, scalar, string length, string.
        for cut in 0..rec.len() {
            assert!(corrupt(&rec[..cut]).starts_with("decode past end"), "cut at {cut}");
        }
        let mut bad = rec.clone();
        bad[4] = 9;
        assert_eq!(corrupt(&bad), "bad value tag 9");
        let mut bad = rec.clone();
        bad[0] = 4; // one field more than the bytes hold
        assert_eq!(corrupt(&bad), "decode past end: need 1 bytes, have 0");
        let mut bad = rec.clone();
        bad[14] = 200; // string length past the end
        assert_eq!(corrupt(&bad), "decode past end: need 200 bytes, have 8");
        let mut bad = rec.clone();
        bad[19] = 0xff; // inside the two-byte é
        assert_eq!(corrupt(&bad), "invalid utf-8 in string");
        let mut bad = rec.clone();
        *bad.last_mut().unwrap() = 2;
        assert_eq!(corrupt(&bad), "bad bool byte 2");
        let mut bad = rec.clone();
        bad.push(0);
        assert_eq!(corrupt(&bad), "1 trailing bytes after decode");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            // The cases equality, order and hash disagree about.
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(0.0)),
            Just(Value::Str(String::new())),
            ".{0,24}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    fn arb_row() -> impl Strategy<Value = Vec<Value>> {
        proptest::collection::vec(arb_value(), 0..8)
    }

    /// String payloads that are not all ASCII: multi-byte characters,
    /// and bytes that are no UTF-8 — stray continuation and invalid bytes,
    /// overlong forms, surrogates, and a character cut short — among
    /// ASCII.
    fn arb_str_payload() -> impl Strategy<Value = Vec<u8>> {
        const PIECES: &[&[u8]] = &[
            b"ab",
            "é".as_bytes(),
            "€".as_bytes(),
            "𝄞".as_bytes(),
            b"\x80",
            b"\xff",
            b"\xc0\xaf",
            b"\xe0\x80\xaf",
            b"\xed\xa0\x80",
            b"\xed\xbf\xbf",
            b"\xf4\x90\x80\x80",
            b"\xe2\x82",
        ];
        proptest::collection::vec(0..PIECES.len(), 1..5).prop_map(|picks| {
            picks
                .into_iter()
                .flat_map(|i| PIECES[i].iter().copied())
                .collect()
        })
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// The record `Tuple` encoded to when it held its values: the arity,
    /// then each value's own encoding.
    fn reference_record(vals: &[Value]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u32(vals.len() as u32);
        for v in vals {
            v.encode(&mut enc);
        }
        enc.finish()
    }

    proptest! {
        #[test]
        fn prop_tuple_roundtrip(vals in arb_row()) {
            let x = Tuple::new(vals);
            let y = roundtrip(&x).unwrap();
            // Compare via encoded bytes so NaN payloads survive equality.
            prop_assert_eq!(x.encode_to_vec(), y.encode_to_vec());
        }

        /// The yes/no check a decode runs first and the codec's value-by-
        /// value walk it falls back on accept the same byte strings, at
        /// the same length — so the fallback always has a fault to name.
        #[test]
        fn prop_the_record_check_agrees_with_the_codec_walk(
            vals in arb_row(),
            edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            strs in proptest::collection::vec(arb_str_payload(), 0..3),
            cut: usize,
            junk in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let mut enc = Encoder::new();
            enc.put_u32((vals.len() + strs.len()) as u32);
            for v in &vals {
                v.encode(&mut enc);
            }
            for s in &strs {
                enc.put_u8(TAG_STR);
                enc.put_bytes(s);
            }
            let mut damaged = enc.finish();
            damaged.extend_from_slice(&junk[..junk.len() / 2]);
            for (at, byte) in edits {
                let at = at % damaged.len();
                damaged[at] = byte;
            }
            for bytes in [&damaged[..], &damaged[..cut % damaged.len()], &junk[..]] {
                let mut dec = Decoder::new(bytes);
                let walked = (|| {
                    for _ in 0..dec.get_u32()? {
                        ValueRef::decode(&mut dec)?;
                    }
                    Ok::<_, StorageError>(bytes.len() - dec.remaining())
                })();
                prop_assert_eq!(record_len(bytes), walked.as_ref().ok().copied());
                let mut dec = Decoder::new(bytes);
                match (Tuple::decode(&mut dec), walked) {
                    (Ok(t), Ok(len)) => prop_assert_eq!(t.record(), &bytes[..len]),
                    (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => prop_assert!(false, "decode {got:?}, walk {want:?}"),
                }
            }
        }

        /// The raw row against the `Vec<Value>` it replaces: every
        /// observable agrees with the slice-of-values model.
        #[test]
        fn prop_raw_row_matches_the_value_slice_model(
            a in arb_row(),
            b in arb_row(),
            picks in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let (x, y) = (Tuple::new(a.clone()), Tuple::new(b.clone()));
            prop_assert_eq!(x.arity(), a.len());
            prop_assert_eq!(x.values().len(), a.len());
            for (i, v) in a.iter().enumerate() {
                // Bit-exact, so NaN payloads and the sign of zero count.
                prop_assert_eq!(x.get(i).to_value().encode_to_vec(), v.encode_to_vec());
            }
            let listed: Vec<Value> = x.values().map(ValueRef::to_value).collect();
            prop_assert_eq!(reference_record(&listed), reference_record(&a));
            prop_assert_eq!(x.encode_to_vec(), reference_record(&a));
            prop_assert_eq!(
                x.heap_bytes(),
                16 + a.iter().map(Value::heap_bytes).sum::<usize>()
            );

            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x == x.clone(), a == a.clone()); // false with a NaN inside
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
            prop_assert_eq!(hash_of(&x), hash_of(&a));

            let joined: Vec<Value> = a.iter().chain(&b).cloned().collect();
            prop_assert_eq!(x.join(&y).encode_to_vec(), reference_record(&joined));
            if !a.is_empty() {
                let idx: Vec<usize> = picks.iter().map(|p| p % a.len()).collect();
                let picked: Vec<Value> = idx.iter().map(|&i| a[i].clone()).collect();
                prop_assert_eq!(x.project(&idx).encode_to_vec(), reference_record(&picked));
            }
            prop_assert_eq!(x.project(&[]).encode_to_vec(), reference_record(&[]));
        }
    }
}
