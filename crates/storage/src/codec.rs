//! Hand-rolled binary codec.
//!
//! Everything that crosses the memory/disk boundary in this system —
//! tuples on heap pages, operator control state, checkpoints, contracts,
//! and the `SuspendedQuery` structure — is encoded with this codec.
//! The format is little-endian, length-prefixed for variable-size data,
//! and deliberately simple: the suspend/resume machinery depends on exact,
//! predictable round-trips, which the property tests below pin down.

use crate::error::{Result, StorageError};

/// Append-only byte-buffer writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Continue writing after the bytes already in `buf` (the inverse of
    /// [`Encoder::finish`]).
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the encoder and return the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far without consuming the encoder.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Write a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `usize` as a `u64` (portable across platforms).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write raw bytes with **no** length prefix. The reader must know the
    /// exact length from context (e.g. a row count written earlier) and
    /// read it back with [`Decoder::get_raw`]. This is the zero-copy
    /// building block for columnar dump blobs: a whole column of `i64`s is
    /// one `put_raw` of its memory, not N tagged `put_i64` calls.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write an `Option<T>` as a presence byte followed by the value.
    pub fn put_option<T: Encode>(&mut self, v: &Option<T>) {
        match v {
            Some(inner) => {
                self.put_bool(true);
                inner.encode(self);
            }
            None => self.put_bool(false),
        }
    }

    /// Write a length-prefixed sequence.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        self.put_u32(items.len() as u32);
        for item in items {
            item.encode(self);
        }
    }
}

/// Cursor-based reader over an encoded byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Create a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// True if the cursor has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::corrupt(format!(
                "decode past end: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a boolean byte, rejecting anything but 0/1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StorageError::corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Read a `usize` stored as `u64`.
    pub fn get_usize(&mut self) -> Result<usize> {
        Ok(self.get_u64()? as usize)
    }

    /// Read length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read exactly `n` raw bytes written by [`Encoder::put_raw`] (no
    /// length prefix; the caller supplies the length from context).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        // Validate the borrowed bytes first: corrupt input allocates nothing.
        std::str::from_utf8(self.get_bytes()?)
            .map(str::to_owned)
            .map_err(|_| StorageError::corrupt("invalid utf-8 in string"))
    }

    /// Read an `Option<T>` written by [`Encoder::put_option`].
    pub fn get_option<T: Decode>(&mut self) -> Result<Option<T>> {
        if self.get_bool()? {
            Ok(Some(T::decode(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed sequence written by [`Encoder::put_seq`].
    pub fn get_seq<T: Decode>(&mut self) -> Result<Vec<T>> {
        let len = self.get_u32()? as usize;
        // Reserve for what the bytes left can hold (an element takes at
        // least one), not for what the prefix claims.
        let mut out = Vec::with_capacity(len.min(self.remaining()));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// Types that can serialize themselves into an [`Encoder`].
pub trait Encode {
    /// Append this value's encoding to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Encode into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

/// Types that can deserialize themselves from a [`Decoder`].
pub trait Decode: Sized {
    /// Decode one value, advancing the cursor.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self>;

    /// Decode from a complete byte slice, requiring full consumption.
    fn decode_from_slice(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let v = Self::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(StorageError::corrupt(format!(
                "{} trailing bytes after decode",
                dec.remaining()
            )));
        }
        Ok(v)
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}
impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_u64()
    }
}
impl Encode for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i64(*self);
    }
}
impl Decode for i64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_i64()
    }
}
impl Encode for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
}
impl Decode for f64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_f64()
    }
}
impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
}
impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_bool()
    }
}
impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
}
impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_str()
    }
}
impl Encode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
}
impl Decode for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(dec.get_bytes()?.to_vec())
    }
}
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_option(self);
    }
}
impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_option()
    }
}

/// Encode then decode a value; used pervasively in tests.
pub fn roundtrip<T: Encode + Decode>(v: &T) -> Result<T> {
    T::decode_from_slice(&v.encode_to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitive_roundtrips() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX);
        enc.put_i64(i64::MIN);
        enc.put_f64(-0.0);
        enc.put_bool(true);
        enc.put_bytes(b"raw");
        enc.put_str("text");
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_i64().unwrap(), i64::MIN);
        assert_eq!(dec.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.get_bool().unwrap());
        assert_eq!(dec.get_bytes().unwrap(), b"raw");
        assert_eq!(dec.get_str().unwrap(), "text");
        assert!(dec.is_exhausted());
    }

    #[test]
    fn raw_slices_roundtrip_without_prefix() {
        let mut enc = Encoder::new();
        enc.put_u32(4);
        enc.put_raw(&[9, 8, 7, 6]);
        let bytes = enc.finish();
        assert_eq!(bytes.len(), 8, "put_raw must add no framing");
        let mut dec = Decoder::new(&bytes);
        let n = dec.get_u32().unwrap() as usize;
        assert_eq!(dec.get_raw(n).unwrap(), &[9, 8, 7, 6]);
        assert!(dec.is_exhausted());
        assert!(dec.get_raw(1).is_err());
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut dec = Decoder::new(&[1, 2]);
        assert!(dec.get_u32().is_err());
        // A failed read must not advance the cursor past the end.
        assert_eq!(dec.remaining(), 2);
    }

    #[test]
    fn bad_bool_byte_rejected() {
        let mut dec = Decoder::new(&[7]);
        assert!(dec.get_bool().is_err());
    }

    #[test]
    fn options_and_sequences() {
        let mut enc = Encoder::new();
        enc.put_option(&Some(42u64));
        enc.put_option::<u64>(&None);
        enc.put_seq(&[1i64, -2, 3]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_option::<u64>().unwrap(), Some(42));
        assert_eq!(dec.get_option::<u64>().unwrap(), None);
        assert_eq!(dec.get_seq::<i64>().unwrap(), vec![1, -2, 3]);
    }

    #[test]
    fn decode_from_slice_rejects_trailing_bytes() {
        let mut enc = Encoder::new();
        enc.put_u64(5);
        enc.put_u8(0xFF);
        let bytes = enc.finish();
        assert!(u64::decode_from_slice(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) {
            prop_assert_eq!(roundtrip(&v).unwrap(), v);
        }

        #[test]
        fn prop_i64_roundtrip(v: i64) {
            prop_assert_eq!(roundtrip(&v).unwrap(), v);
        }

        #[test]
        fn prop_f64_bits_roundtrip(bits: u64) {
            let v = f64::from_bits(bits);
            prop_assert_eq!(roundtrip(&v).unwrap().to_bits(), bits);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            prop_assert_eq!(roundtrip(&s.to_string()).unwrap(), s);
        }

        #[test]
        fn prop_bytes_roundtrip(b: Vec<u8>) {
            prop_assert_eq!(roundtrip(&b).unwrap(), b);
        }

        #[test]
        fn prop_interleaved_stream(
            ints in proptest::collection::vec(any::<i64>(), 0..32),
            strs in proptest::collection::vec(".*", 0..8),
        ) {
            let mut enc = Encoder::new();
            for v in &ints { enc.put_i64(*v); }
            for s in &strs { enc.put_str(s); }
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            for v in &ints { prop_assert_eq!(dec.get_i64().unwrap(), *v); }
            for s in &strs { prop_assert_eq!(&dec.get_str().unwrap(), s); }
            prop_assert!(dec.is_exhausted());
        }
    }
}
