//! The per-node `(attribute, value)` tuple store.

use std::collections::BTreeMap;

use crate::name::AttrName;
use crate::value::Value;

/// A Moara node's local attribute store.
///
/// The Moara agent on each machine monitors the node and populates these
/// tuples (paper Section 3.1). A version counter advances on every visible
/// change so the protocol layer can cheaply detect "local attribute churn"
/// and re-evaluate predicate satisfaction.
///
/// A node holds a handful of attributes, so they sit in an ordered map: a
/// lookup is a few string comparisons, not a hash of the name, and names
/// chosen to collide cost nothing extra.
#[derive(Clone, Debug, Default)]
pub struct AttrStore {
    map: BTreeMap<AttrName, Value>,
    version: u64,
}

impl AttrStore {
    /// An empty store.
    pub fn new() -> AttrStore {
        AttrStore::default()
    }

    /// Sets `attr` to `value`. Returns the previous value, if any. The
    /// version advances only if the stored value actually changed.
    pub fn set(&mut self, attr: impl Into<AttrName>, value: impl Into<Value>) -> Option<Value> {
        let attr = attr.into();
        let value = value.into();
        if self.map.get(&attr) == Some(&value) {
            return Some(value);
        }
        self.version += 1;
        self.map.insert(attr, value)
    }

    /// Removes `attr`. Returns the removed value, if present.
    pub fn remove(&mut self, attr: &str) -> Option<Value> {
        let old = self.map.remove(attr);
        if old.is_some() {
            self.version += 1;
        }
        old
    }

    /// The value of `attr`, if present.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.map.get(attr)
    }

    /// Whether `attr` is present.
    pub fn contains(&self, attr: &str) -> bool {
        self.map.contains_key(attr)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Monotonic change counter; bumps on every effective set/remove.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterates over all tuples in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &Value)> {
        self.map.iter()
    }
}

impl<A: Into<AttrName>, V: Into<Value>> FromIterator<(A, V)> for AttrStore {
    fn from_iter<T: IntoIterator<Item = (A, V)>>(iter: T) -> AttrStore {
        let mut s = AttrStore::new();
        for (a, v) in iter {
            s.set(a, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove_roundtrip() {
        let mut s = AttrStore::new();
        assert!(s.is_empty());
        assert_eq!(s.set("CPU-Util", 55i64), None);
        assert_eq!(s.get("CPU-Util"), Some(&Value::Int(55)));
        assert_eq!(s.set("CPU-Util", 60i64), Some(Value::Int(55)));
        assert_eq!(s.remove("CPU-Util"), Some(Value::Int(60)));
        assert_eq!(s.get("CPU-Util"), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn version_advances_only_on_change() {
        let mut s = AttrStore::new();
        let v0 = s.version();
        s.set("A", true);
        let v1 = s.version();
        assert!(v1 > v0);
        s.set("A", true); // no-op
        assert_eq!(s.version(), v1);
        s.set("A", false);
        assert!(s.version() > v1);
        s.remove("missing");
        let v3 = s.version();
        s.remove("A");
        assert!(s.version() > v3);
    }

    #[test]
    fn from_iterator_collects() {
        let s: AttrStore = [("a", Value::Int(1)), ("b", Value::Bool(true))]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert!(s.contains("a") && s.contains("b"));
        assert_eq!(s.iter().count(), 2);
    }
}
