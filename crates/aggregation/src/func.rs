//! Aggregation kinds, partial states, and merge rules.

use std::fmt;

use moara_attributes::Value;

/// Identifies the node a contribution came from, for aggregates that carry
/// attribution (enumeration, top-k). Core maps DHT ids onto this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeRef(pub u64);

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:x}", self.0)
    }
}

/// The aggregation functions Moara supports (all partially aggregatable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Number of contributing nodes.
    Count,
    /// Numeric sum (integer-preserving when all inputs are integers).
    Sum,
    /// Minimum value (with node attribution).
    Min,
    /// Maximum value (with node attribution).
    Max,
    /// Arithmetic mean, implemented as sum + count as in the paper.
    Avg,
    /// Population standard deviation, implemented as sum +
    /// sum-of-squares + count. An extension beyond the paper's function
    /// list: still partially aggregatable (all three moments add), and
    /// delta-friendly — a subtree's contribution can be replaced without
    /// touching its siblings', which is what threshold subscriptions
    /// watch.
    Std,
    /// The `k` largest values with their nodes ("top-3 loaded hosts").
    TopK(usize),
    /// The `k` smallest values with their nodes.
    BottomK(usize),
    /// Enumeration of all contributing nodes.
    Enumerate,
    /// Fixed-width histogram of a numeric attribute over `[lo, hi)`, with
    /// two extra buckets for underflow and overflow. An extension beyond
    /// the paper's function list — still partially aggregatable (bucket
    /// counts add), so it composes with the trees unchanged.
    Histogram {
        /// Inclusive lower bound of the bucketed range.
        lo: i64,
        /// Exclusive upper bound of the bucketed range.
        hi: i64,
        /// Number of equal-width buckets in `[lo, hi)`.
        buckets: u32,
    },
}

impl AggKind {
    /// Parses a function name as used in the query language (`count`,
    /// `sum`, `min`, `max`, `avg`, `enum`; `top`/`bottom` take `k` via the
    /// parser). Case-insensitive.
    pub fn from_name(name: &str) -> Option<AggKind> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggKind::Count),
            "sum" => Some(AggKind::Sum),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            "avg" | "average" | "mean" => Some(AggKind::Avg),
            "std" | "stddev" | "stdev" => Some(AggKind::Std),
            "enum" | "enumerate" | "list" => Some(AggKind::Enumerate),
            _ => None,
        }
    }

    /// The identity element for this function's merge.
    pub fn identity(&self) -> AggState {
        AggState::Null
    }

    /// Finalizes a partial state, mapping the empty aggregate to this
    /// function's natural zero: `count`/`sum` of nothing is 0, ranked and
    /// enumerated results are empty lists, and order statistics
    /// (`min`/`max`/`avg`) are [`AggResult::Empty`].
    pub fn finalize(&self, state: AggState) -> AggResult {
        if state.is_null() {
            return match self {
                AggKind::Count | AggKind::Sum => AggResult::Value(Value::Int(0)),
                AggKind::Enumerate => AggResult::Nodes(Vec::new()),
                AggKind::TopK(_) | AggKind::BottomK(_) => AggResult::Ranked(Vec::new()),
                AggKind::Histogram { lo, hi, buckets } => AggResult::Histogram {
                    lo: *lo,
                    hi: *hi,
                    counts: vec![0; *buckets as usize + 2],
                },
                _ => AggResult::Empty,
            };
        }
        state.finish()
    }

    /// Builds the partial state for a single node's contribution.
    ///
    /// # Errors
    ///
    /// [`AggError::NonNumeric`] if a numeric function (`sum`, `avg`) is
    /// applied to a non-numeric value, and [`AggError::Incomparable`] if an
    /// ordering function meets NaN.
    pub fn seed(&self, node: NodeRef, value: &Value) -> Result<AggState, AggError> {
        match self {
            AggKind::Count => Ok(AggState::Count(1)),
            AggKind::Sum => match value {
                Value::Int(i) => Ok(AggState::SumInt(*i)),
                Value::Float(f) if !f.is_nan() => Ok(AggState::SumFloat(*f)),
                _ => Err(AggError::NonNumeric(value.clone())),
            },
            AggKind::Avg => {
                let f = value
                    .as_f64()
                    .ok_or_else(|| AggError::NonNumeric(value.clone()))?;
                if f.is_nan() {
                    return Err(AggError::NonNumeric(value.clone()));
                }
                Ok(AggState::Avg { sum: f, count: 1 })
            }
            AggKind::Std => {
                let f = value
                    .as_f64()
                    .ok_or_else(|| AggError::NonNumeric(value.clone()))?;
                if f.is_nan() {
                    return Err(AggError::NonNumeric(value.clone()));
                }
                Ok(AggState::Std {
                    sum: f,
                    sum_sq: f * f,
                    count: 1,
                })
            }
            AggKind::Min | AggKind::Max => {
                if matches!(value, Value::Float(f) if f.is_nan()) {
                    return Err(AggError::Incomparable(value.clone()));
                }
                let item = (value.clone(), node);
                Ok(if *self == AggKind::Min {
                    AggState::Min(item)
                } else {
                    AggState::Max(item)
                })
            }
            AggKind::TopK(k) | AggKind::BottomK(k) => {
                if matches!(value, Value::Float(f) if f.is_nan()) {
                    return Err(AggError::Incomparable(value.clone()));
                }
                Ok(AggState::Ranked {
                    k: *k,
                    descending: matches!(self, AggKind::TopK(_)),
                    items: vec![(value.clone(), node)],
                })
            }
            AggKind::Enumerate => Ok(AggState::Nodes(vec![node])),
            AggKind::Histogram { lo, hi, buckets } => {
                assert!(hi > lo && *buckets > 0, "histogram needs a positive range");
                let v = value
                    .as_f64()
                    .ok_or_else(|| AggError::NonNumeric(value.clone()))?;
                if v.is_nan() {
                    return Err(AggError::NonNumeric(value.clone()));
                }
                // counts[0] = underflow, counts[1..=buckets] = range,
                // counts[buckets+1] = overflow.
                let mut counts = vec![0u64; *buckets as usize + 2];
                let idx = if v < *lo as f64 {
                    0
                } else if v >= *hi as f64 {
                    *buckets as usize + 1
                } else {
                    let width = (*hi - *lo) as f64 / *buckets as f64;
                    1 + (((v - *lo as f64) / width) as usize).min(*buckets as usize - 1)
                };
                counts[idx] = 1;
                Ok(AggState::Hist {
                    lo: *lo,
                    hi: *hi,
                    counts,
                })
            }
        }
    }

    /// Merges two partial states of this kind. [`AggState::Null`] is the
    /// identity; merge is associative and commutative (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the two states belong to different aggregation kinds —
    /// a protocol bug, not an input error.
    pub fn merge(&self, a: AggState, b: AggState) -> AggState {
        use AggState::*;
        match (a, b) {
            (Null, x) | (x, Null) => x,
            (Count(x), Count(y)) => Count(x + y),
            (SumInt(x), SumInt(y)) => SumInt(x.wrapping_add(y)),
            (SumInt(x), SumFloat(y)) | (SumFloat(y), SumInt(x)) => SumFloat(x as f64 + y),
            (SumFloat(x), SumFloat(y)) => SumFloat(x + y),
            (Avg { sum: s1, count: c1 }, Avg { sum: s2, count: c2 }) => Avg {
                sum: s1 + s2,
                count: c1 + c2,
            },
            (
                Std {
                    sum: s1,
                    sum_sq: q1,
                    count: c1,
                },
                Std {
                    sum: s2,
                    sum_sq: q2,
                    count: c2,
                },
            ) => Std {
                sum: s1 + s2,
                sum_sq: q1 + q2,
                count: c1 + c2,
            },
            (Min(x), Min(y)) => Min(pick(x, y, false)),
            (Max(x), Max(y)) => Max(pick(x, y, true)),
            (
                Ranked {
                    k,
                    descending,
                    items: mut xs,
                },
                Ranked { items: ys, .. },
            ) => {
                xs.extend(ys);
                sort_ranked(&mut xs, descending);
                xs.truncate(k);
                Ranked {
                    k,
                    descending,
                    items: xs,
                }
            }
            (
                Hist {
                    lo,
                    hi,
                    counts: mut xs,
                },
                Hist { counts: ys, .. },
            ) => {
                assert_eq!(xs.len(), ys.len(), "histogram shape mismatch");
                for (a, b) in xs.iter_mut().zip(ys) {
                    *a += b;
                }
                Hist { lo, hi, counts: xs }
            }
            (Nodes(mut xs), Nodes(ys)) => {
                xs.extend(ys);
                xs.sort_unstable();
                xs.dedup();
                Nodes(xs)
            }
            (a, b) => panic!("cannot merge mismatched aggregate states {a:?} and {b:?}"),
        }
    }
}

/// Deterministically picks the min/max of two attributed values, breaking
/// value ties toward the smaller node id (merge-order independence).
fn pick(x: (Value, NodeRef), y: (Value, NodeRef), want_max: bool) -> (Value, NodeRef) {
    let ord = x.0.total_cmp(&y.0).then(x.1.cmp(&y.1).reverse());
    let x_wins = if want_max {
        ord.is_ge()
    } else {
        // min: smaller value wins; tie toward smaller node id.
        x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).is_le()
    };
    if x_wins {
        x
    } else {
        y
    }
}

fn sort_ranked(items: &mut [(Value, NodeRef)], descending: bool) {
    items.sort_by(|a, b| {
        let v = if descending {
            b.0.total_cmp(&a.0)
        } else {
            a.0.total_cmp(&b.0)
        };
        v.then(a.1.cmp(&b.1))
    });
}

/// A mergeable partial aggregate.
#[derive(Clone, Debug, PartialEq)]
pub enum AggState {
    /// No contribution (the merge identity, and a node's "null reply").
    Null,
    /// Partial count.
    Count(u64),
    /// Integer-preserving partial sum.
    SumInt(i64),
    /// Floating partial sum.
    SumFloat(f64),
    /// Partial average.
    Avg {
        /// Sum of contributions so far.
        sum: f64,
        /// Number of contributions so far.
        count: u64,
    },
    /// Partial standard deviation (first two moments plus count).
    Std {
        /// Sum of contributions so far.
        sum: f64,
        /// Sum of squared contributions so far.
        sum_sq: f64,
        /// Number of contributions so far.
        count: u64,
    },
    /// Current minimum with its node.
    Min((Value, NodeRef)),
    /// Current maximum with its node.
    Max((Value, NodeRef)),
    /// Top-k / bottom-k ranked list.
    Ranked {
        /// Capacity.
        k: usize,
        /// True for top-k, false for bottom-k.
        descending: bool,
        /// Sorted, capped items.
        items: Vec<(Value, NodeRef)>,
    },
    /// Enumerated contributing nodes (sorted, deduplicated).
    Nodes(Vec<NodeRef>),
    /// Histogram bucket counts (underflow + buckets + overflow).
    Hist {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
        /// Bucket counts.
        counts: Vec<u64>,
    },
}

impl AggState {
    /// Whether this state carries no contribution.
    pub fn is_null(&self) -> bool {
        matches!(self, AggState::Null)
    }

    /// Finalizes the partial state into a queryable result.
    pub fn finish(self) -> AggResult {
        match self {
            AggState::Null => AggResult::Empty,
            AggState::Count(c) => AggResult::Value(Value::Int(c as i64)),
            AggState::SumInt(s) => AggResult::Value(Value::Int(s)),
            AggState::SumFloat(s) => AggResult::Value(Value::Float(s)),
            AggState::Avg { sum, count } => {
                if count == 0 {
                    AggResult::Empty
                } else {
                    AggResult::Value(Value::Float(sum / count as f64))
                }
            }
            AggState::Std { sum, sum_sq, count } => {
                if count == 0 {
                    AggResult::Empty
                } else {
                    let mean = sum / count as f64;
                    // Clamp the catastrophic-cancellation case to zero.
                    let var = (sum_sq / count as f64 - mean * mean).max(0.0);
                    AggResult::Value(Value::Float(var.sqrt()))
                }
            }
            AggState::Min((v, n)) | AggState::Max((v, n)) => AggResult::Attributed(v, n),
            AggState::Ranked { items, .. } => AggResult::Ranked(items),
            AggState::Nodes(ns) => AggResult::Nodes(ns),
            AggState::Hist { lo, hi, counts } => AggResult::Histogram { lo, hi, counts },
        }
    }

    /// Exact wire size of this state (delegates to the `moara-wire`
    /// codec, so there is a single size accounting in the tree).
    pub fn wire_size(&self) -> usize {
        moara_wire::Wire::encoded_len(self)
    }
}

/// A finalized aggregation result.
#[derive(Clone, Debug, PartialEq)]
pub enum AggResult {
    /// No node contributed.
    Empty,
    /// A plain value (count, sum, avg).
    Value(Value),
    /// A value attributed to the node holding it (min, max).
    Attributed(Value, NodeRef),
    /// Ranked values with nodes (top-k, bottom-k).
    Ranked(Vec<(Value, NodeRef)>),
    /// Enumerated nodes.
    Nodes(Vec<NodeRef>),
    /// Histogram of a numeric attribute.
    Histogram {
        /// Inclusive lower bound of the bucketed range.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
        /// Bucket counts: underflow, the buckets, overflow.
        counts: Vec<u64>,
    },
}

impl AggResult {
    /// The scalar value as `f64`, when the result has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AggResult::Value(v) | AggResult::Attributed(v, _) => v.as_f64(),
            _ => None,
        }
    }

    /// The count of entries for list-shaped results.
    pub fn len(&self) -> usize {
        match self {
            AggResult::Empty => 0,
            AggResult::Value(_) | AggResult::Attributed(..) => 1,
            AggResult::Ranked(v) => v.len(),
            AggResult::Nodes(v) => v.len(),
            AggResult::Histogram { counts, .. } => counts.iter().sum::<u64>() as usize,
        }
    }

    /// True for [`AggResult::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, AggResult::Empty)
    }
}

impl fmt::Display for AggResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggResult::Empty => write!(f, "(empty)"),
            AggResult::Value(v) => write!(f, "{v}"),
            AggResult::Attributed(v, n) => write!(f, "{v} at {n}"),
            AggResult::Ranked(items) => {
                write!(f, "[")?;
                for (i, (v, n)) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} at {n}")?;
                }
                write!(f, "]")
            }
            AggResult::Nodes(ns) => write!(f, "{} nodes", ns.len()),
            AggResult::Histogram { lo, hi, counts } => {
                write!(f, "hist[{lo},{hi}) {counts:?}")
            }
        }
    }
}

/// Errors surfaced when seeding a partial aggregate from a local value.
#[derive(Clone, Debug, PartialEq)]
pub enum AggError {
    /// A numeric aggregate met a non-numeric (or NaN) value.
    NonNumeric(Value),
    /// An ordering aggregate met an incomparable value (NaN).
    Incomparable(Value),
}

impl fmt::Display for AggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggError::NonNumeric(v) => write!(f, "non-numeric value {v} in numeric aggregate"),
            AggError::Incomparable(v) => write!(f, "incomparable value {v} in ordered aggregate"),
        }
    }
}

impl std::error::Error for AggError {}

mod wire {
    //! Wire-format impls, so aggregates can cross real sockets.

    use moara_wire::{Sink, Wire, WireError};

    use super::{AggKind, AggState, NodeRef};

    impl Wire for NodeRef {
        fn encode(&self, out: &mut impl Sink) {
            self.0.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            u64::decode(buf).map(NodeRef)
        }
    }

    impl Wire for AggKind {
        fn encode(&self, out: &mut impl Sink) {
            match self {
                AggKind::Count => out.push(0),
                AggKind::Sum => out.push(1),
                AggKind::Min => out.push(2),
                AggKind::Max => out.push(3),
                AggKind::Avg => out.push(4),
                AggKind::TopK(k) => {
                    out.push(5);
                    k.encode(out);
                }
                AggKind::BottomK(k) => {
                    out.push(6);
                    k.encode(out);
                }
                AggKind::Enumerate => out.push(7),
                AggKind::Histogram { lo, hi, buckets } => {
                    out.push(8);
                    lo.encode(out);
                    hi.encode(out);
                    buckets.encode(out);
                }
                AggKind::Std => out.push(9),
            }
        }

        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(match u8::decode(buf)? {
                0 => AggKind::Count,
                1 => AggKind::Sum,
                2 => AggKind::Min,
                3 => AggKind::Max,
                4 => AggKind::Avg,
                5 => AggKind::TopK(usize::decode(buf)?),
                6 => AggKind::BottomK(usize::decode(buf)?),
                7 => AggKind::Enumerate,
                8 => AggKind::Histogram {
                    lo: i64::decode(buf)?,
                    hi: i64::decode(buf)?,
                    buckets: u32::decode(buf)?,
                },
                9 => AggKind::Std,
                _ => return Err(WireError::Invalid("AggKind tag")),
            })
        }
    }

    impl Wire for AggState {
        fn encode(&self, out: &mut impl Sink) {
            match self {
                AggState::Null => out.push(0),
                AggState::Count(c) => {
                    out.push(1);
                    c.encode(out);
                }
                AggState::SumInt(s) => {
                    out.push(2);
                    s.encode(out);
                }
                AggState::SumFloat(s) => {
                    out.push(3);
                    s.encode(out);
                }
                AggState::Avg { sum, count } => {
                    out.push(4);
                    sum.encode(out);
                    count.encode(out);
                }
                AggState::Min(item) => {
                    out.push(5);
                    item.encode(out);
                }
                AggState::Max(item) => {
                    out.push(6);
                    item.encode(out);
                }
                AggState::Ranked {
                    k,
                    descending,
                    items,
                } => {
                    out.push(7);
                    k.encode(out);
                    descending.encode(out);
                    items.encode(out);
                }
                AggState::Nodes(ns) => {
                    out.push(8);
                    ns.encode(out);
                }
                AggState::Hist { lo, hi, counts } => {
                    out.push(9);
                    lo.encode(out);
                    hi.encode(out);
                    counts.encode(out);
                }
                AggState::Std { sum, sum_sq, count } => {
                    out.push(10);
                    sum.encode(out);
                    sum_sq.encode(out);
                    count.encode(out);
                }
            }
        }

        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(match u8::decode(buf)? {
                0 => AggState::Null,
                1 => AggState::Count(u64::decode(buf)?),
                2 => AggState::SumInt(i64::decode(buf)?),
                3 => AggState::SumFloat(f64::decode(buf)?),
                4 => AggState::Avg {
                    sum: f64::decode(buf)?,
                    count: u64::decode(buf)?,
                },
                5 => AggState::Min(Wire::decode(buf)?),
                6 => AggState::Max(Wire::decode(buf)?),
                7 => AggState::Ranked {
                    k: usize::decode(buf)?,
                    descending: bool::decode(buf)?,
                    items: Wire::decode(buf)?,
                },
                8 => AggState::Nodes(Wire::decode(buf)?),
                9 => AggState::Hist {
                    lo: i64::decode(buf)?,
                    hi: i64::decode(buf)?,
                    counts: Wire::decode(buf)?,
                },
                10 => AggState::Std {
                    sum: f64::decode(buf)?,
                    sum_sq: f64::decode(buf)?,
                    count: u64::decode(buf)?,
                },
                _ => return Err(WireError::Invalid("AggState tag")),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seed_all(kind: AggKind, vals: &[(u64, Value)]) -> Vec<AggState> {
        vals.iter()
            .map(|(n, v)| kind.seed(NodeRef(*n), v).unwrap())
            .collect()
    }

    fn merge_left(kind: AggKind, states: Vec<AggState>) -> AggState {
        states
            .into_iter()
            .fold(AggState::Null, |acc, s| kind.merge(acc, s))
    }

    #[test]
    fn count_counts() {
        let kind = AggKind::Count;
        let s = merge_left(
            kind,
            seed_all(kind, &[(1, Value::Bool(true)), (2, Value::Int(5))]),
        );
        assert_eq!(s.finish(), AggResult::Value(Value::Int(2)));
    }

    #[test]
    fn sum_preserves_integers_and_promotes_floats() {
        let kind = AggKind::Sum;
        let ints = merge_left(
            kind,
            seed_all(kind, &[(1, Value::Int(2)), (2, Value::Int(3))]),
        );
        assert_eq!(ints.finish(), AggResult::Value(Value::Int(5)));
        let mixed = merge_left(
            kind,
            seed_all(kind, &[(1, Value::Int(2)), (2, Value::Float(0.5))]),
        );
        assert_eq!(mixed.finish(), AggResult::Value(Value::Float(2.5)));
    }

    #[test]
    fn avg_is_sum_over_count() {
        let kind = AggKind::Avg;
        let s = merge_left(
            kind,
            seed_all(
                kind,
                &[(1, Value::Int(1)), (2, Value::Int(2)), (3, Value::Int(6))],
            ),
        );
        assert_eq!(s.finish().as_f64(), Some(3.0));
    }

    #[test]
    fn min_max_attribute_the_node() {
        let vals = [(7, Value::Int(5)), (3, Value::Int(1)), (9, Value::Int(9))];
        let min = merge_left(AggKind::Min, seed_all(AggKind::Min, &vals));
        assert_eq!(
            min.finish(),
            AggResult::Attributed(Value::Int(1), NodeRef(3))
        );
        let max = merge_left(AggKind::Max, seed_all(AggKind::Max, &vals));
        assert_eq!(
            max.finish(),
            AggResult::Attributed(Value::Int(9), NodeRef(9))
        );
    }

    #[test]
    fn min_tie_breaks_to_smaller_node() {
        let vals = [(9, Value::Int(1)), (2, Value::Int(1))];
        let min = merge_left(AggKind::Min, seed_all(AggKind::Min, &vals));
        assert_eq!(
            min.finish(),
            AggResult::Attributed(Value::Int(1), NodeRef(2))
        );
        let max = merge_left(AggKind::Max, seed_all(AggKind::Max, &vals));
        // max tie also breaks toward smaller node id.
        assert_eq!(
            max.finish(),
            AggResult::Attributed(Value::Int(1), NodeRef(2))
        );
    }

    #[test]
    fn topk_keeps_k_largest_sorted() {
        let kind = AggKind::TopK(2);
        let vals = [
            (1, Value::Int(5)),
            (2, Value::Int(9)),
            (3, Value::Int(7)),
            (4, Value::Int(1)),
        ];
        let s = merge_left(kind, seed_all(kind, &vals));
        assert_eq!(
            s.finish(),
            AggResult::Ranked(vec![
                (Value::Int(9), NodeRef(2)),
                (Value::Int(7), NodeRef(3)),
            ])
        );
    }

    #[test]
    fn bottomk_keeps_k_smallest() {
        let kind = AggKind::BottomK(2);
        let vals = [(1, Value::Int(5)), (2, Value::Int(9)), (3, Value::Int(7))];
        let s = merge_left(kind, seed_all(kind, &vals));
        assert_eq!(
            s.finish(),
            AggResult::Ranked(vec![
                (Value::Int(5), NodeRef(1)),
                (Value::Int(7), NodeRef(3)),
            ])
        );
    }

    #[test]
    fn enumerate_collects_sorted_nodes() {
        let kind = AggKind::Enumerate;
        let vals = [(9, Value::Bool(true)), (1, Value::Bool(true))];
        let s = merge_left(kind, seed_all(kind, &vals));
        assert_eq!(s.finish(), AggResult::Nodes(vec![NodeRef(1), NodeRef(9)]));
    }

    #[test]
    fn null_is_identity() {
        for kind in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Max] {
            let s = kind.seed(NodeRef(1), &Value::Int(4)).unwrap();
            assert_eq!(kind.merge(s.clone(), AggState::Null), s);
            assert_eq!(kind.merge(AggState::Null, s.clone()), s);
        }
        assert_eq!(
            AggKind::Count.merge(AggState::Null, AggState::Null),
            AggState::Null
        );
        assert_eq!(AggState::Null.finish(), AggResult::Empty);
    }

    #[test]
    fn seed_errors_on_bad_input() {
        assert!(AggKind::Sum.seed(NodeRef(1), &Value::Bool(true)).is_err());
        assert!(AggKind::Avg.seed(NodeRef(1), &Value::str("x")).is_err());
        assert!(AggKind::Sum
            .seed(NodeRef(1), &Value::Float(f64::NAN))
            .is_err());
        assert!(AggKind::Max
            .seed(NodeRef(1), &Value::Float(f64::NAN))
            .is_err());
        let e = AggKind::Sum
            .seed(NodeRef(1), &Value::Bool(true))
            .unwrap_err();
        assert!(e.to_string().contains("non-numeric"));
    }

    #[test]
    fn from_name_parses() {
        assert_eq!(AggKind::from_name("COUNT"), Some(AggKind::Count));
        assert_eq!(AggKind::from_name("Avg"), Some(AggKind::Avg));
        assert_eq!(AggKind::from_name("enumerate"), Some(AggKind::Enumerate));
        assert_eq!(AggKind::from_name("std"), Some(AggKind::Std));
        assert_eq!(AggKind::from_name("STDDEV"), Some(AggKind::Std));
        assert_eq!(AggKind::from_name("nope"), None);
    }

    #[test]
    fn std_is_population_standard_deviation() {
        let kind = AggKind::Std;
        // Values 2, 4, 4, 4, 5, 5, 7, 9 → σ = 2 (the classic example).
        let vals: Vec<(u64, Value)> = [2, 4, 4, 4, 5, 5, 7, 9]
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, Value::Int(v)))
            .collect();
        let s = merge_left(kind, seed_all(kind, &vals));
        assert!((s.finish().as_f64().unwrap() - 2.0).abs() < 1e-9);
        // A single value has zero spread; the empty aggregate is Empty.
        let one = kind.seed(NodeRef(1), &Value::Int(7)).unwrap();
        assert_eq!(one.finish().as_f64(), Some(0.0));
        assert_eq!(kind.finalize(AggState::Null), AggResult::Empty);
        assert!(kind.seed(NodeRef(1), &Value::Bool(true)).is_err());
    }

    #[test]
    #[should_panic(expected = "mismatched aggregate states")]
    fn mismatched_merge_panics() {
        AggKind::Count.merge(AggState::Count(1), AggState::SumInt(2));
    }

    fn arb_kind() -> impl Strategy<Value = AggKind> {
        prop_oneof![
            Just(AggKind::Count),
            Just(AggKind::Sum),
            Just(AggKind::Avg),
            Just(AggKind::Std),
            Just(AggKind::Min),
            Just(AggKind::Max),
            (1usize..5).prop_map(AggKind::TopK),
            (1usize..5).prop_map(AggKind::BottomK),
            Just(AggKind::Enumerate),
        ]
    }

    proptest! {
        /// The invariant the aggregation tree relies on: merging the same
        /// contributions in any association/order yields the same state.
        #[test]
        fn merge_is_order_independent(
            kind in arb_kind(),
            vals in proptest::collection::vec((0u64..50, -1000i64..1000), 1..20),
            perm_seed in any::<u64>(),
        ) {
            // distinct node refs
            let vals: Vec<(u64, Value)> = vals
                .iter()
                .enumerate()
                .map(|(i, (_, v))| (i as u64, Value::Int(*v)))
                .collect();
            let states = seed_all(kind, &vals);
            let left = merge_left(kind, states.clone());

            // random permutation + right-fold
            let mut permuted = states;
            let mut s = perm_seed;
            for i in (1..permuted.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                permuted.swap(i, j);
            }
            let right = permuted
                .into_iter()
                .rev()
                .fold(AggState::Null, |acc, st| kind.merge(st, acc));
            prop_assert_eq!(left, right);
        }

        /// Pairwise tree-shaped merging equals flat folding.
        #[test]
        fn tree_merge_equals_flat_merge(
            kind in arb_kind(),
            n in 1usize..24,
        ) {
            let vals: Vec<(u64, Value)> =
                (0..n as u64).map(|i| (i, Value::Int((i as i64 * 37) % 100 - 50))).collect();
            let mut states = seed_all(kind, &vals);
            let flat = merge_left(kind, states.clone());
            // binary-tree reduction
            while states.len() > 1 {
                let mut next = Vec::new();
                for pair in states.chunks(2) {
                    next.push(match pair {
                        [a, b] => kind.merge(a.clone(), b.clone()),
                        [a] => a.clone(),
                        _ => unreachable!(),
                    });
                }
                states = next;
            }
            prop_assert_eq!(states.pop().unwrap(), flat);
        }
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    fn hist_kind() -> AggKind {
        AggKind::Histogram {
            lo: 0,
            hi: 100,
            buckets: 4,
        }
    }

    #[test]
    fn buckets_values_with_under_and_overflow() {
        let kind = hist_kind();
        let inputs = [
            (-5.0, 0usize), // underflow
            (0.0, 1),
            (24.9, 1),
            (25.0, 2),
            (74.9, 3),
            (99.9, 4),
            (100.0, 5), // overflow
            (1e9, 5),
        ];
        for (v, want) in inputs {
            let st = kind.seed(NodeRef(1), &Value::Float(v)).unwrap();
            let AggState::Hist { counts, .. } = st else {
                panic!("not a histogram state")
            };
            let got = counts.iter().position(|&c| c == 1).unwrap();
            assert_eq!(got, want, "value {v}");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let kind = hist_kind();
        let a = kind.seed(NodeRef(1), &Value::Int(10)).unwrap();
        let b = kind.seed(NodeRef(2), &Value::Int(12)).unwrap();
        let c = kind.seed(NodeRef(3), &Value::Int(90)).unwrap();
        let merged = kind.merge(kind.merge(a, b), c);
        assert_eq!(
            merged.clone().finish(),
            AggResult::Histogram {
                lo: 0,
                hi: 100,
                counts: vec![0, 2, 0, 0, 1, 0],
            }
        );
        assert!(merged.wire_size() > 8);
    }

    #[test]
    fn empty_histogram_finalizes_to_zero_counts() {
        let kind = hist_kind();
        match kind.finalize(AggState::Null) {
            AggResult::Histogram { counts, .. } => {
                assert_eq!(counts, vec![0; 6]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_numeric_rejected() {
        assert!(hist_kind().seed(NodeRef(1), &Value::Bool(true)).is_err());
        assert!(hist_kind()
            .seed(NodeRef(1), &Value::Float(f64::NAN))
            .is_err());
    }

    #[test]
    fn display_shows_range() {
        let kind = hist_kind();
        let st = kind.seed(NodeRef(1), &Value::Int(50)).unwrap();
        let shown = st.finish().to_string();
        assert!(shown.contains("hist[0,100)"), "{shown}");
    }
}
