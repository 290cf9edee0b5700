//! Interned attribute names.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An attribute name such as `CPU-Util` or `ServiceX`.
///
/// Names are reference-counted so the protocol layers can clone them into
/// per-predicate state maps and messages without copying the string.
/// Comparison is case-sensitive, matching the paper's examples.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrName(Arc<str>);

impl AttrName {
    /// Creates (or clones into) an attribute name.
    pub fn new(name: impl AsRef<str>) -> AttrName {
        AttrName(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> AttrName {
        AttrName::new(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> AttrName {
        AttrName(Arc::from(s))
    }
}

impl Borrow<str> for AttrName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for AttrName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl moara_wire::Wire for AttrName {
    /// Encoded like a plain string; interning is a process-local detail.
    fn encode(&self, out: &mut impl moara_wire::Sink) {
        let s = self.as_str();
        let len = u32::try_from(s.len()).expect("attribute name too long for wire");
        moara_wire::Wire::encode(&len, out);
        out.extend_from_slice(s.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, moara_wire::WireError> {
        <String as moara_wire::Wire>::decode(buf).map(AttrName::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equality_and_hash_lookup_by_str() {
        let n = AttrName::new("CPU-Util");
        assert_eq!(n, AttrName::from("CPU-Util"));
        assert_ne!(n, AttrName::from("cpu-util"));
        let mut m: HashMap<AttrName, u32> = HashMap::new();
        m.insert(n.clone(), 1);
        // Borrow<str> lets us look up with a &str key.
        assert_eq!(m.get("CPU-Util"), Some(&1));
    }

    #[test]
    fn clone_is_cheap_pointer_copy() {
        let a = AttrName::new("x");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn display_round_trips() {
        assert_eq!(AttrName::new("ServiceX").to_string(), "ServiceX");
    }
}
