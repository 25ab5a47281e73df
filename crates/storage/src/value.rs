//! Scalar values and data types for the row model.

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::{Result, StorageError};
use std::cmp::Ordering;
use std::fmt;

/// Logical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STR"),
            DataType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A scalar value, owned. Floats use total ordering so values can be used
/// as sort/join keys without panics. Comparison, hashing, display and the
/// typed accessors are those of the borrowed view, [`ValueRef`] — there is
/// one definition of each.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// A scalar value borrowed from wherever it lives — a field of a raw-row
/// [`Tuple`](crate::Tuple), a column of a dump block, an owned [`Value`].
/// Scalars are held by value, a string as a `&str`; the view is `Copy`.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Borrow this value.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Str(v) => ValueRef::Str(v),
            Value::Bool(v) => ValueRef::Bool(*v),
        }
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        self.as_ref().data_type()
    }

    /// Extract an `i64`, erroring on any other type.
    pub fn as_int(&self) -> Result<i64> {
        self.as_ref().as_int()
    }

    /// Extract an `f64`, erroring on any other type.
    pub fn as_float(&self) -> Result<f64> {
        self.as_ref().as_float()
    }

    /// Extract a `&str`, erroring on any other type.
    pub fn as_str(&self) -> Result<&str> {
        self.as_ref().as_str()
    }

    /// Extract a `bool`, erroring on any other type.
    pub fn as_bool(&self) -> Result<bool> {
        self.as_ref().as_bool()
    }

    /// Approximate in-memory footprint of the value in bytes. Used by
    /// operators to report heap-state sizes to the suspend-plan optimizer.
    pub fn heap_bytes(&self) -> usize {
        self.as_ref().heap_bytes()
    }
}

impl<'a> ValueRef<'a> {
    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(v) => Value::Str(v.to_owned()),
            ValueRef::Bool(v) => Value::Bool(v),
        }
    }

    /// The [`DataType`] of this value.
    pub fn data_type(self) -> DataType {
        match self {
            ValueRef::Int(_) => DataType::Int,
            ValueRef::Float(_) => DataType::Float,
            ValueRef::Str(_) => DataType::Str,
            ValueRef::Bool(_) => DataType::Bool,
        }
    }

    #[cold]
    fn expected(self, want: DataType) -> StorageError {
        StorageError::invalid(format!("expected {want}, got {}", self.data_type()))
    }

    /// Extract an `i64`, erroring on any other type.
    #[inline]
    pub fn as_int(self) -> Result<i64> {
        match self {
            ValueRef::Int(v) => Ok(v),
            other => Err(other.expected(DataType::Int)),
        }
    }

    /// Extract an `f64`, erroring on any other type.
    #[inline]
    pub fn as_float(self) -> Result<f64> {
        match self {
            ValueRef::Float(v) => Ok(v),
            other => Err(other.expected(DataType::Float)),
        }
    }

    /// Extract a `&str`, erroring on any other type.
    #[inline]
    pub fn as_str(self) -> Result<&'a str> {
        match self {
            ValueRef::Str(v) => Ok(v),
            other => Err(other.expected(DataType::Str)),
        }
    }

    /// Extract a `bool`, erroring on any other type.
    #[inline]
    pub fn as_bool(self) -> Result<bool> {
        match self {
            ValueRef::Bool(v) => Ok(v),
            other => Err(other.expected(DataType::Bool)),
        }
    }

    /// Approximate in-memory footprint of the value in bytes. Used by
    /// operators to report heap-state sizes to the suspend-plan optimizer.
    pub fn heap_bytes(self) -> usize {
        match self {
            ValueRef::Int(_) | ValueRef::Float(_) => 8,
            ValueRef::Bool(_) => 1,
            ValueRef::Str(s) => s.len() + 8,
        }
    }

    /// The tagged encoding — the bytes a row record holds for this field
    /// — handed to `put` piece by piece. The one writer of the format.
    pub(crate) fn encode_with(self, mut put: impl FnMut(&[u8])) {
        match self {
            ValueRef::Int(v) => {
                put(&[TAG_INT]);
                put(&v.to_le_bytes());
            }
            ValueRef::Float(v) => {
                put(&[TAG_FLOAT]);
                put(&v.to_bits().to_le_bytes());
            }
            ValueRef::Str(v) => {
                put(&[TAG_STR]);
                put(&(v.len() as u32).to_le_bytes());
                put(v.as_bytes());
            }
            ValueRef::Bool(v) => put(&[TAG_BOOL, v as u8]),
        }
    }

    /// Exact number of bytes [`ValueRef::encode_with`] hands out.
    pub(crate) fn encoded_len(self) -> usize {
        let mut len = 0;
        self.encode_with(|bytes| len += bytes.len());
        len
    }

    /// Read one tagged value off `dec`, borrowing a string from its
    /// buffer: every check [`Value::decode`] makes, no allocation.
    pub(crate) fn decode(dec: &mut Decoder<'a>) -> Result<Self> {
        match dec.get_u8()? {
            TAG_INT => Ok(ValueRef::Int(dec.get_i64()?)),
            TAG_FLOAT => Ok(ValueRef::Float(dec.get_f64()?)),
            TAG_STR => std::str::from_utf8(dec.get_bytes()?)
                .map(ValueRef::Str)
                .map_err(|_| StorageError::corrupt("invalid utf-8 in string")),
            TAG_BOOL => Ok(ValueRef::Bool(dec.get_bool()?)),
            t => Err(StorageError::corrupt(format!("bad value tag {t}"))),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    /// Same-variant payload equality; floats compare as IEEE numbers
    /// (`NaN != NaN`, `-0.0 == 0.0`), unlike [`Ord`]'s total order.
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Float(a), ValueRef::Float(b)) => a == b,
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    /// Total order: values of the same type compare naturally (floats via
    /// IEEE total order); across types the order is Int < Float < Str < Bool.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Int(_) => 0,
                ValueRef::Float(_) => 1,
                ValueRef::Str(_) => 2,
                ValueRef::Bool(_) => 3,
            }
        }
        match (*self, *other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(&b),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(&b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for ValueRef<'_> {
    /// Agrees with [`PartialEq`]: equal values hash alike. A float hashes
    /// its bit pattern, except that `-0.0` hashes as `0.0`, which it
    /// equals (NaN equals nothing, so its bits are free to differ).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match *self {
            ValueRef::Int(v) => {
                state.write_u8(0);
                v.hash(state);
            }
            ValueRef::Float(v) => {
                state.write_u8(1);
                let v = if v == 0.0 { 0.0 } else { v };
                v.to_bits().hash(state);
            }
            ValueRef::Str(v) => {
                state.write_u8(2);
                v.hash(state);
            }
            ValueRef::Bool(v) => {
                state.write_u8(3);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
            ValueRef::Str(v) => write!(f, "{v:?}"),
            ValueRef::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

pub(crate) const TAG_INT: u8 = 0;
pub(crate) const TAG_FLOAT: u8 = 1;
pub(crate) const TAG_STR: u8 = 2;
pub(crate) const TAG_BOOL: u8 = 3;

impl Encode for Value {
    fn encode(&self, enc: &mut Encoder) {
        self.as_ref().encode_with(|bytes| enc.put_raw(bytes));
    }
}

impl Decode for Value {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        ValueRef::decode(dec).map(ValueRef::to_value)
    }
}

impl Encode for DataType {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            DataType::Int => TAG_INT,
            DataType::Float => TAG_FLOAT,
            DataType::Str => TAG_STR,
            DataType::Bool => TAG_BOOL,
        });
    }
}

impl Decode for DataType {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            TAG_INT => Ok(DataType::Int),
            TAG_FLOAT => Ok(DataType::Float),
            TAG_STR => Ok(DataType::Str),
            TAG_BOOL => Ok(DataType::Bool),
            t => Err(StorageError::corrupt(format!("bad datatype tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use crate::tuple::Tuple;
    use proptest::prelude::*;
    use std::hash::{DefaultHasher, Hash, Hasher};

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert!(Value::Int(7).as_str().is_err());
        assert_eq!(Value::Float(1.5).as_float().unwrap(), 1.5);
        assert_eq!(Value::Str("x".into()).as_str().unwrap(), "x");
        assert!(Value::Bool(true).as_bool().unwrap());
        assert!(Value::Bool(true).as_int().is_err());
    }

    #[test]
    fn ordering_is_total_and_natural_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(0.0));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        // NaN participates in total order without panicking.
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
        // Cross-type ordering is stable.
        assert!(Value::Int(100) < Value::Float(0.0));
        assert!(Value::Float(0.0) < Value::Str("".into()));
    }

    #[test]
    fn value_roundtrips_through_codec() {
        for v in [
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::MIN_POSITIVE),
            Value::Str(String::new()),
            Value::Str("hello µ world".into()),
            Value::Bool(true),
            Value::Bool(false),
        ] {
            assert_eq!(roundtrip(&v).unwrap(), v);
        }
    }

    #[test]
    fn datatype_roundtrips_through_codec() {
        for dt in [DataType::Int, DataType::Float, DataType::Str, DataType::Bool] {
            assert_eq!(roundtrip(&dt).unwrap(), dt);
        }
    }

    #[test]
    fn heap_bytes_reflects_payload() {
        assert_eq!(Value::Int(0).heap_bytes(), 8);
        assert_eq!(Value::Str("abcd".into()).heap_bytes(), 12);
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Floats where IEEE equality and bit identity part ways, subnormals,
    /// and integers whose float twin is exact.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-3i64..3).prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            (-3i64..3).prop_map(|v| Value::Float(v as f64)),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(-f64::NAN)),
            (1u64..1 << 52).prop_map(|b| Value::Float(f64::from_bits(b))),
            (1u64..1 << 52).prop_map(|b| Value::Float(-f64::from_bits(b))),
            ".{0,3}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// `b` is usually a near relative of `a`, so equal pairs are common.
    fn relative(a: &Value, how: u8) -> Value {
        match (a, how % 4) {
            (Value::Float(f), 0) => Value::Float(-f),
            (Value::Float(f), 1) if f.fract() == 0.0 && f.abs() < 1e15 => Value::Int(*f as i64),
            (Value::Int(i), 1) => Value::Float(*i as f64),
            (Value::Float(f), 2) => Value::Float(f + 0.0),
            _ => a.clone(),
        }
    }

    #[test]
    fn signed_zeros_are_equal_and_hash_alike() {
        let (pos, neg) = (Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(pos, neg);
        assert_eq!(hash_of(&pos), hash_of(&neg));
        assert_eq!(hash_of(&pos.as_ref()), hash_of(&neg.as_ref()));
        // Numeric twins of different types are not equal.
        assert_ne!(Value::Int(0), pos);
        assert_ne!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The contract a hashed lookup relies on: `a == b ⇒ hash(a) ==
        /// hash(b)`, for owned values, borrowed views and rows alike.
        #[test]
        fn prop_equal_values_hash_alike(a in arb_value(), other in arb_value(), how: u8) {
            let b = if how % 8 < 6 { relative(&a, how) } else { other };
            if a == b {
                prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} == {:?}", a, b);
                prop_assert_eq!(hash_of(&a.as_ref()), hash_of(&b.as_ref()));
                let (x, y) = (Tuple::new(vec![a.clone()]), Tuple::new(vec![b.clone()]));
                prop_assert_eq!(hash_of(&x), hash_of(&y));
            }
            prop_assert_eq!(hash_of(&a), hash_of(&a.as_ref()));
        }
    }

    #[test]
    fn decoding_bad_tag_is_corrupt_error() {
        let mut enc = Encoder::new();
        enc.put_u8(99);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            Value::decode(&mut dec),
            Err(StorageError::Corrupt(_))
        ));
    }
}
