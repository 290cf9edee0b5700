//! The query and predicate AST, and its evaluation semantics.

use std::fmt;

use moara_aggregation::AggKind;
use moara_attributes::{AttrName, AttrStore, Value};

/// A comparison operator: `op ∈ {<, >, ≤, ≥, =, ≠}` (paper Section 3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Applies the operator to an observed value vs. the predicate literal.
    ///
    /// Semantics: a missing or type-incomparable observation satisfies
    /// nothing — including `!=`, which the paper describes as implicit
    /// `not` *within the population that carries the attribute*.
    pub fn eval(self, observed: &Value, literal: &Value) -> bool {
        match self {
            CmpOp::Eq => observed.eq_num(literal),
            CmpOp::Ne => observed.cmp_num(literal).is_some() && !observed.eq_num(literal),
            _ => match observed.cmp_num(literal) {
                Some(ord) => match self {
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                },
                None => false,
            },
        }
    }

    /// The operator with its comparison direction flipped (`< ↔ >` etc.);
    /// `=` and `!=` are symmetric.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }

    /// The logical negation of the operator over a totally ordered domain.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A simple group predicate `(group-attribute op value)` — the unit from
/// which groups (and their aggregation trees) are defined.
#[derive(Clone, Debug, PartialEq)]
pub struct SimplePredicate {
    /// The group attribute, e.g. `ServiceX`.
    pub attr: AttrName,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal to compare against.
    pub value: Value,
}

impl SimplePredicate {
    /// Builds a simple predicate.
    pub fn new(attr: impl Into<AttrName>, op: CmpOp, value: impl Into<Value>) -> SimplePredicate {
        SimplePredicate {
            attr: attr.into(),
            op,
            value: value.into(),
        }
    }

    /// Evaluates the predicate against a node's attribute store. A node
    /// lacking the attribute satisfies nothing.
    pub fn eval(&self, store: &AttrStore) -> bool {
        store
            .get(self.attr.as_str())
            .is_some_and(|v| self.op.eval(v, &self.value))
    }

    /// A canonical string key identifying this predicate — the protocol
    /// layer keys its per-predicate tree state by this.
    pub fn key(&self) -> String {
        let mut key = String::new();
        self.write_key(&mut key).expect("writing to a String");
        key
    }

    /// Whether [`SimplePredicate::key`] equals `key`, decided without
    /// building the key string.
    pub fn has_key(&self, key: &str) -> bool {
        /// Consumes the expected key as the pieces are written; errs at
        /// the first mismatch.
        struct Expect<'a>(&'a str);
        impl fmt::Write for Expect<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Expect(key);
        self.write_key(&mut rest).is_ok() && rest.0.is_empty()
    }

    fn write_key(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "{}{}{}", self.attr, self.op, self.value)
    }
}

impl fmt::Display for SimplePredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op, self.value)
    }
}

/// A group predicate: a boolean combination of simple predicates.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// No group specified: aggregate over all nodes in the system.
    All,
    /// A simple predicate.
    Atom(SimplePredicate),
    /// Conjunction (`and`, set intersection).
    And(Vec<Predicate>),
    /// Disjunction (`or`, set union).
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Convenience constructor for an atom.
    pub fn atom(attr: impl Into<AttrName>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate::Atom(SimplePredicate::new(attr, op, value))
    }

    /// Evaluates the predicate at a node.
    pub fn eval(&self, store: &AttrStore) -> bool {
        match self {
            Predicate::All => true,
            Predicate::Atom(a) => a.eval(store),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(store)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(store)),
        }
    }

    /// All simple predicates appearing in the expression.
    pub fn atoms(&self) -> Vec<&SimplePredicate> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a SimplePredicate>) {
        match self {
            Predicate::All => {}
            Predicate::Atom(a) => out.push(a),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.collect_atoms(out);
                }
            }
        }
    }

    /// True if the predicate contains no `and`/`or` structure.
    pub fn is_simple(&self) -> bool {
        matches!(self, Predicate::All | Predicate::Atom(_))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, ps: &[Predicate], sep: &str) -> fmt::Result {
            write!(f, "(")?;
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    write!(f, " {sep} ")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")
        }
        match self {
            Predicate::All => write!(f, "*"),
            Predicate::Atom(a) => write!(f, "{a}"),
            Predicate::And(ps) => join(f, ps, "and"),
            Predicate::Or(ps) => join(f, ps, "or"),
        }
    }
}

/// A full Moara query: `(query-attribute, aggregation function,
/// group-predicate)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The attribute being aggregated. `None` for node-oriented aggregates
    /// (`count(*)`, `enumerate(*)`), which need no local value.
    pub attr: Option<AttrName>,
    /// The aggregation function.
    pub agg: AggKind,
    /// The group predicate selecting the target machines.
    pub predicate: Predicate,
}

impl Query {
    /// Builds a query.
    pub fn new(attr: Option<AttrName>, agg: AggKind, predicate: Predicate) -> Query {
        Query {
            attr,
            agg,
            predicate,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.attr {
            Some(a) => write!(f, "({a}, {:?}, {})", self.agg, self.predicate),
            None => write!(f, "(*, {:?}, {})", self.agg, self.predicate),
        }
    }
}

mod wire {
    //! Wire-format impls: queries travel whole inside `QueryDown` messages
    //! (every node evaluates the full composite predicate, Section 7.2).

    use moara_wire::{Sink, Wire, WireError};

    use super::{CmpOp, Predicate, Query, SimplePredicate};

    impl Wire for CmpOp {
        fn encode(&self, out: &mut impl Sink) {
            out.push(match self {
                CmpOp::Lt => 0,
                CmpOp::Le => 1,
                CmpOp::Gt => 2,
                CmpOp::Ge => 3,
                CmpOp::Eq => 4,
                CmpOp::Ne => 5,
            });
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(match u8::decode(buf)? {
                0 => CmpOp::Lt,
                1 => CmpOp::Le,
                2 => CmpOp::Gt,
                3 => CmpOp::Ge,
                4 => CmpOp::Eq,
                5 => CmpOp::Ne,
                _ => return Err(WireError::Invalid("CmpOp tag")),
            })
        }
    }

    impl Wire for SimplePredicate {
        fn encode(&self, out: &mut impl Sink) {
            self.attr.encode(out);
            self.op.encode(out);
            self.value.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(SimplePredicate {
                attr: Wire::decode(buf)?,
                op: Wire::decode(buf)?,
                value: Wire::decode(buf)?,
            })
        }
    }

    /// Deepest and/or nesting the decoder accepts — ample for real
    /// queries (the CNF rewriter refuses far smaller ones), and it bounds
    /// decode recursion on frames from untrusted sockets.
    const MAX_PRED_DEPTH: usize = 128;

    fn decode_pred_at(buf: &mut &[u8], depth: usize) -> Result<Predicate, WireError> {
        if depth >= MAX_PRED_DEPTH {
            return Err(WireError::Invalid("Predicate nesting too deep"));
        }
        Ok(match u8::decode(buf)? {
            0 => Predicate::All,
            1 => Predicate::Atom(Wire::decode(buf)?),
            tag @ (2 | 3) => {
                let n = u32::decode(buf)? as usize;
                let mut ps = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ps.push(decode_pred_at(buf, depth + 1)?);
                }
                if tag == 2 {
                    Predicate::And(ps)
                } else {
                    Predicate::Or(ps)
                }
            }
            _ => return Err(WireError::Invalid("Predicate tag")),
        })
    }

    impl Wire for Predicate {
        fn encode(&self, out: &mut impl Sink) {
            match self {
                Predicate::All => out.push(0),
                Predicate::Atom(a) => {
                    out.push(1);
                    a.encode(out);
                }
                Predicate::And(ps) => {
                    out.push(2);
                    ps.encode(out);
                }
                Predicate::Or(ps) => {
                    out.push(3);
                    ps.encode(out);
                }
            }
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            decode_pred_at(buf, 0)
        }
    }

    impl Wire for Query {
        fn encode(&self, out: &mut impl Sink) {
            self.attr.encode(out);
            self.agg.encode(out);
            self.predicate.encode(out);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Query {
                attr: Wire::decode(buf)?,
                agg: Wire::decode(buf)?,
                predicate: Wire::decode(buf)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> AttrStore {
        [
            ("CPU-Util", Value::Float(42.0)),
            ("ServiceX", Value::Bool(true)),
            ("OS", Value::str("Linux")),
            ("Cores", Value::Int(8)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn op_eval_over_numbers() {
        let s = store();
        assert!(SimplePredicate::new("CPU-Util", CmpOp::Lt, 50i64).eval(&s));
        assert!(!SimplePredicate::new("CPU-Util", CmpOp::Gt, 50i64).eval(&s));
        assert!(SimplePredicate::new("CPU-Util", CmpOp::Le, 42i64).eval(&s));
        assert!(SimplePredicate::new("CPU-Util", CmpOp::Ge, 42.0).eval(&s));
        assert!(SimplePredicate::new("Cores", CmpOp::Eq, 8i64).eval(&s));
        assert!(SimplePredicate::new("Cores", CmpOp::Ne, 4i64).eval(&s));
    }

    #[test]
    fn missing_attribute_satisfies_nothing() {
        let s = store();
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert!(!SimplePredicate::new("Absent", op, 1i64).eval(&s), "{op}");
        }
    }

    #[test]
    fn incomparable_types_satisfy_nothing() {
        let s = store();
        // OS is a string; comparing to an int matches nothing, even !=.
        assert!(!SimplePredicate::new("OS", CmpOp::Ne, 5i64).eval(&s));
        assert!(SimplePredicate::new("OS", CmpOp::Ne, "Windows").eval(&s));
        assert!(SimplePredicate::new("OS", CmpOp::Eq, "Linux").eval(&s));
    }

    #[test]
    fn composite_eval() {
        let s = store();
        let p = Predicate::And(vec![
            Predicate::atom("ServiceX", CmpOp::Eq, true),
            Predicate::Or(vec![
                Predicate::atom("CPU-Util", CmpOp::Gt, 90i64),
                Predicate::atom("OS", CmpOp::Eq, "Linux"),
            ]),
        ]);
        assert!(p.eval(&s));
        assert!(Predicate::All.eval(&s));
        assert_eq!(p.atoms().len(), 3);
        assert!(!p.is_simple());
        assert!(Predicate::atom("x", CmpOp::Eq, 1i64).is_simple());
    }

    #[test]
    fn op_flip_and_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Lt.negate(), CmpOp::Ge);
        assert_eq!(CmpOp::Ne.negate(), CmpOp::Eq);
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn canonical_key_is_stable() {
        let p = SimplePredicate::new("CPU-Util", CmpOp::Lt, 50i64);
        assert_eq!(p.key(), "CPU-Util<50");
        let q = SimplePredicate::new("ServiceX", CmpOp::Eq, true);
        assert_eq!(q.key(), "ServiceX=true");
    }

    #[test]
    fn has_key_agrees_with_key() {
        let preds = [
            SimplePredicate::new("CPU-Util", CmpOp::Lt, 50i64),
            SimplePredicate::new("ServiceX", CmpOp::Eq, true),
            SimplePredicate::new("OS", CmpOp::Ne, "Linux"),
            SimplePredicate::new("Load", CmpOp::Ge, 0.5f64),
        ];
        for p in &preds {
            for q in &preds {
                assert_eq!(p.has_key(&q.key()), p.key() == q.key(), "{p} vs {q}");
            }
            let key = p.key();
            assert!(!p.has_key(&key[..key.len() - 1]), "a prefix is not the key");
            assert!(!p.has_key(&format!("{key}0")), "nor is an extension");
            assert!(!p.has_key(""));
        }
    }

    #[test]
    fn display_forms() {
        let p = Predicate::And(vec![
            Predicate::atom("A", CmpOp::Eq, true),
            Predicate::atom("B", CmpOp::Ne, 1i64),
        ]);
        assert_eq!(p.to_string(), "(A = true and B != 1)");
        assert_eq!(Predicate::All.to_string(), "*");
    }
}
