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

/// A scalar value. Floats use total ordering so values can be used as
/// sort/join keys without panics.
#[derive(Debug, Clone, PartialEq)]
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

impl Value {
    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Extract an `i64`, erroring on any other type.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(StorageError::invalid(format!(
                "expected INT, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract an `f64`, erroring on any other type.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            other => Err(StorageError::invalid(format!(
                "expected FLOAT, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a `&str`, erroring on any other type.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(StorageError::invalid(format!(
                "expected STR, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a `bool`, erroring on any other type.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(StorageError::invalid(format!(
                "expected BOOL, got {}",
                other.data_type()
            ))),
        }
    }

    /// Approximate in-memory footprint of the value in bytes. Used by
    /// operators to report heap-state sizes to the suspend-plan optimizer.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() + 8,
        }
    }

    /// Exact number of bytes [`Encode::encode`] appends for this value:
    /// the tag byte plus the payload. Lets a writer that must know whether
    /// a record fits reserve its length prefix before encoding in place.
    pub(crate) fn encoded_len(&self) -> usize {
        1 + match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: values of the same type compare naturally (floats via
    /// IEEE total order); across types the order is Int < Float < Str < Bool.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Int(_) => 0,
                Value::Float(_) => 1,
                Value::Str(_) => 2,
                Value::Bool(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                state.write_u8(0);
                v.hash(state);
            }
            Value::Float(v) => {
                state.write_u8(1);
                v.to_bits().hash(state);
            }
            Value::Str(v) => {
                state.write_u8(2);
                v.hash(state);
            }
            Value::Bool(v) => {
                state.write_u8(3);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
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
        match self {
            Value::Int(v) => {
                enc.put_u8(TAG_INT);
                enc.put_i64(*v);
            }
            Value::Float(v) => {
                enc.put_u8(TAG_FLOAT);
                enc.put_f64(*v);
            }
            Value::Str(v) => {
                enc.put_u8(TAG_STR);
                enc.put_str(v);
            }
            Value::Bool(v) => {
                enc.put_u8(TAG_BOOL);
                enc.put_bool(*v);
            }
        }
    }
}

impl Decode for Value {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        match dec.get_u8()? {
            TAG_INT => Ok(Value::Int(dec.get_i64()?)),
            TAG_FLOAT => Ok(Value::Float(dec.get_f64()?)),
            TAG_STR => Ok(Value::Str(dec.get_str()?)),
            TAG_BOOL => Ok(Value::Bool(dec.get_bool()?)),
            t => Err(StorageError::corrupt(format!("bad value tag {t}"))),
        }
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
