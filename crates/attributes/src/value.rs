//! Typed attribute values and the comparison semantics used by predicates.

use std::cmp::Ordering;
use std::fmt;

/// A typed attribute value.
///
/// Integers and floats compare numerically with each other (`CPU-Util <
/// 50` must work whether the agent reported `49` or `49.5`); booleans and
/// strings compare only within their own type.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A boolean flag, e.g. `(ServiceX, true)`.
    Bool(bool),
    /// A signed integer, e.g. `(CPU-Mhz, 3000)`.
    Int(i64),
    /// A float, e.g. `(Mem-Util, 42.5)`. NaN is rejected at construction
    /// by the query parser; stores treat NaN as incomparable.
    Float(f64),
    /// A string, e.g. `(OS, "Linux")`.
    Str(String),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// True if this is `Int` or `Float`.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// Compares two values under predicate semantics:
    ///
    /// * numbers compare numerically across `Int`/`Float`;
    /// * booleans compare with `false < true`;
    /// * strings compare lexicographically;
    /// * mixed non-numeric types (and NaN) are incomparable (`None`).
    pub fn cmp_num(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
            _ => None,
        }
    }

    /// Equality under predicate semantics (`Int(3) == Float(3.0)`).
    pub fn eq_num(&self, other: &Value) -> bool {
        self.cmp_num(other) == Some(Ordering::Equal)
    }

    /// A deterministic total order, used to break ties in aggregates such
    /// as top-k (incomparable pairs order by type rank: Bool < Int/Float <
    /// Str; NaN sorts last among numbers).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Bool(_) => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (a, b) if a.is_numeric() && b.is_numeric() => {
                let x = a.as_f64().expect("numeric");
                let y = b.as_f64().expect("numeric");
                x.total_cmp(&y)
            }
            (a, b) => rank(a)
                .cmp(&rank(b))
                .then_with(|| a.cmp_num(b).unwrap_or(Ordering::Equal)),
        }
    }

    /// Exact serialized size in bytes (delegates to the `moara-wire`
    /// codec, so there is a single size accounting in the tree).
    pub fn wire_size(&self) -> usize {
        moara_wire::Wire::encoded_len(self)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl moara_wire::Wire for Value {
    fn encode(&self, out: &mut impl moara_wire::Sink) {
        match self {
            Value::Bool(b) => {
                out.push(0);
                b.encode(out);
            }
            Value::Int(i) => {
                out.push(1);
                i.encode(out);
            }
            Value::Float(f) => {
                out.push(2);
                f.encode(out);
            }
            Value::Str(s) => {
                out.push(3);
                s.encode(out);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, moara_wire::WireError> {
        match u8::decode(buf)? {
            0 => Ok(Value::Bool(bool::decode(buf)?)),
            1 => Ok(Value::Int(i64::decode(buf)?)),
            2 => Ok(Value::Float(f64::decode(buf)?)),
            3 => Ok(Value::Str(String::decode(buf)?)),
            _ => Err(moara_wire::WireError::Invalid("Value tag")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(3).cmp_num(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert!(Value::Int(3).eq_num(&Value::Float(3.0)));
        assert_eq!(
            Value::Float(2.5).cmp_num(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(4).cmp_num(&Value::Float(3.5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn mixed_types_incomparable() {
        assert_eq!(Value::Bool(true).cmp_num(&Value::Int(1)), None);
        assert_eq!(Value::str("x").cmp_num(&Value::Int(1)), None);
        assert_eq!(Value::Float(f64::NAN).cmp_num(&Value::Int(1)), None);
    }

    #[test]
    fn bool_and_string_ordering() {
        assert_eq!(
            Value::Bool(false).cmp_num(&Value::Bool(true)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("a").cmp_num(&Value::str("b")),
            Some(Ordering::Less)
        );
        assert!(Value::str("apache").eq_num(&Value::str("apache")));
    }

    #[test]
    fn total_cmp_is_total_and_antisymmetric() {
        let vals = [
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Float(0.5),
            Value::Int(2),
            Value::Float(f64::NAN),
            Value::str("a"),
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::str("hi"));
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Int(3).to_string(), "3");
    }

    #[test]
    fn wire_sizes_match_the_codec() {
        // One byte of variant tag plus the payload encoding.
        assert_eq!(Value::Bool(true).wire_size(), 1 + 1);
        assert_eq!(Value::Int(1).wire_size(), 1 + 8);
        assert_eq!(Value::str("abc").wire_size(), 1 + 4 + 3);
        for v in [Value::Bool(false), Value::Float(1.5), Value::str("x")] {
            assert_eq!(v.wire_size(), moara_wire::Wire::encoded_len(&v));
        }
    }
}
