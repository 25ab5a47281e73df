//! Tuples: ordered collections of [`Value`]s.

use crate::codec::{Decode, Decoder, Encode, Encoder};
use crate::error::Result;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A row. Tuples are immutable and cheap to clone: the values live behind
/// an `Arc`, so buffering operators (NLJ outer buffers, sort buffers) can
/// hold hundreds of thousands of tuples without deep copies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Construct a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field at `idx`.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All fields in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Concatenate two tuples (join output).
    pub fn join(&self, other: &Tuple) -> Tuple {
        let mut vals = Vec::with_capacity(self.arity() + other.arity());
        vals.extend_from_slice(&self.values);
        vals.extend_from_slice(&other.values);
        Tuple::new(vals)
    }

    /// Project onto the given field indices, in order.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Exact number of bytes [`Encode::encode`] appends for this tuple.
    pub(crate) fn encoded_len(&self) -> usize {
        4 + self.values.iter().map(Value::encoded_len).sum::<usize>()
    }

    /// Approximate in-memory footprint in bytes (for heap-state sizing
    /// reported to the suspend-plan optimizer).
    pub fn heap_bytes(&self) -> usize {
        16 + self.values.iter().map(Value::heap_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
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
        enc.put_u32(self.values.len() as u32);
        for v in self.values.iter() {
            v.encode(enc);
        }
    }
}

impl Decode for Tuple {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let n = dec.get_u32()? as usize;
        let mut vals = Vec::with_capacity(n.min(dec.remaining()));
        for _ in 0..n {
            vals.push(Value::decode(dec)?);
        }
        Ok(Tuple::new(vals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::roundtrip;
    use proptest::prelude::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn basic_accessors() {
        let x = t(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(x.arity(), 2);
        assert_eq!(x.get(0), &Value::Int(1));
        assert_eq!(x.values().len(), 2);
    }

    #[test]
    fn join_concatenates() {
        let a = t(vec![Value::Int(1)]);
        let b = t(vec![Value::Int(2), Value::Bool(true)]);
        let j = a.join(&b);
        assert_eq!(j.arity(), 3);
        assert_eq!(j.get(2), &Value::Bool(true));
    }

    #[test]
    fn project_reorders() {
        let x = t(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let p = x.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn clones_share_storage() {
        let x = t(vec![Value::Str("big".repeat(100))]);
        let y = x.clone();
        assert!(Arc::ptr_eq(
            &x.values as &Arc<[Value]>,
            &y.values as &Arc<[Value]>
        ));
    }

    #[test]
    fn display_is_readable() {
        let x = t(vec![Value::Int(5), Value::Str("a".into())]);
        assert_eq!(x.to_string(), "[5, \"a\"]");
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            any::<u64>().prop_map(|b| Value::Float(f64::from_bits(b))),
            ".{0,24}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    proptest! {
        #[test]
        fn prop_tuple_roundtrip(vals in proptest::collection::vec(arb_value(), 0..12)) {
            let x = Tuple::new(vals);
            let y = roundtrip(&x).unwrap();
            // Compare via encoded bytes so NaN payloads survive equality.
            prop_assert_eq!(x.encode_to_vec(), y.encode_to_vec());
        }

        #[test]
        fn prop_join_preserves_fields(
            a in proptest::collection::vec(arb_value(), 0..6),
            b in proptest::collection::vec(arb_value(), 0..6),
        ) {
            let x = Tuple::new(a.clone());
            let y = Tuple::new(b.clone());
            let j = x.join(&y);
            prop_assert_eq!(j.arity(), a.len() + b.len());
        }
    }
}
