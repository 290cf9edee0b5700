//! Conjunctive-normal-form rewriting and structural covers (paper
//! Section 6.3).
//!
//! Moara transforms a composite predicate into CNF using the distributive
//! laws. In the CNF of a predicate, **each disjunctive clause is a
//! structural cover**: a set of groups that together contain every node
//! satisfying the whole predicate (the paper proves the cheapest CNF
//! clause is the minimum-cost structural cover). Query planning therefore
//! reduces to costing each clause and picking the cheapest.

use std::collections::BTreeSet;
use std::fmt;

use crate::ast::{Predicate, SimplePredicate};

/// A disjunction of simple predicates — one structural cover candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct Clause {
    /// The disjoined atoms (no duplicates, ordered by canonical key).
    pub atoms: Vec<SimplePredicate>,
}

impl Clause {
    fn normalize(mut atoms: Vec<SimplePredicate>) -> Clause {
        atoms.sort_by_key(|a| a.key());
        atoms.dedup_by(|a, b| a.key() == b.key());
        Clause { atoms }
    }

    /// The canonical key set of this clause.
    fn key_set(&self) -> BTreeSet<String> {
        self.atoms.iter().map(SimplePredicate::key).collect()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A predicate in conjunctive normal form: an `and` of [`Clause`]s.
///
/// No clauses at all means the predicate is a tautology (query the whole
/// system — the paper's "no group specified" default).
#[derive(Clone, Debug, PartialEq)]
pub struct Cnf {
    /// The conjoined clauses.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// The tautological CNF (matches everything).
    pub fn all() -> Cnf {
        Cnf {
            clauses: Vec::new(),
        }
    }

    /// True if this CNF matches every node.
    pub fn is_all(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Drops duplicate clauses and applies absorption: a clause that is a
    /// superset of another clause is redundant (`(A) and (A or B)` ≡ `A`).
    pub fn simplify(mut self) -> Cnf {
        let sets: Vec<BTreeSet<String>> = self.clauses.iter().map(Clause::key_set).collect();
        let mut keep = vec![true; self.clauses.len()];
        for i in 0..sets.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..sets.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // Drop j if it's a strict superset of i, or an equal set
                // with a higher index (dedup).
                if sets[j].is_superset(&sets[i]) && (sets[j] != sets[i] || j > i) {
                    keep[j] = false;
                }
            }
        }
        let mut idx = 0;
        self.clauses.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "*");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// CNF conversion failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CnfError {
    /// Distribution would exceed `MAX_CLAUSES` (4096) clauses.
    TooLarge {
        /// The number of clauses the conversion reached before aborting.
        reached: usize,
    },
}

/// Upper bound on CNF size; beyond this the planner falls back to querying
/// the union of all mentioned groups (always a valid cover).
pub const MAX_CLAUSES: usize = 4096;

impl fmt::Display for CnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CnfError::TooLarge { reached } => {
                write!(
                    f,
                    "CNF conversion exceeded {MAX_CLAUSES} clauses (reached {reached})"
                )
            }
        }
    }
}

impl std::error::Error for CnfError {}

impl Predicate {
    /// Converts the predicate to CNF via the distributive laws, with
    /// duplicate-atom, duplicate-clause, and absorption simplification.
    ///
    /// # Errors
    ///
    /// [`CnfError::TooLarge`] if distribution blows past `MAX_CLAUSES`.
    pub fn to_cnf(&self) -> Result<Cnf, CnfError> {
        let clauses = cnf_rec(self)?;
        Ok(Cnf { clauses }.simplify())
    }
}

fn cnf_rec(p: &Predicate) -> Result<Vec<Clause>, CnfError> {
    match p {
        Predicate::All => Ok(Vec::new()),
        Predicate::Atom(a) => Ok(vec![Clause {
            atoms: vec![a.clone()],
        }]),
        Predicate::And(ps) => {
            let mut out = Vec::new();
            for p in ps {
                out.extend(cnf_rec(p)?);
                if out.len() > MAX_CLAUSES {
                    return Err(CnfError::TooLarge { reached: out.len() });
                }
            }
            Ok(out)
        }
        Predicate::Or(ps) => {
            // (C11 and C12 ...) or (C21 and ...) or ... distributes to the
            // cross product of clauses.
            let mut acc: Vec<Clause> = vec![Clause { atoms: Vec::new() }];
            let mut any_all = false;
            for p in ps {
                let rhs = cnf_rec(p)?;
                if rhs.is_empty() {
                    // Or-term that matches everything: whole Or is All.
                    any_all = true;
                    break;
                }
                let mut next = Vec::with_capacity(acc.len() * rhs.len());
                for left in &acc {
                    for right in &rhs {
                        let mut atoms = left.atoms.clone();
                        atoms.extend(right.atoms.iter().cloned());
                        next.push(Clause::normalize(atoms));
                        if next.len() > MAX_CLAUSES {
                            return Err(CnfError::TooLarge {
                                reached: next.len(),
                            });
                        }
                    }
                }
                acc = next;
            }
            if any_all {
                return Ok(Vec::new());
            }
            Ok(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use moara_attributes::AttrStore;
    use proptest::prelude::*;

    fn atom(name: &str) -> Predicate {
        Predicate::atom(name, CmpOp::Eq, true)
    }

    #[test]
    fn paper_figure6_example() {
        // ((A or B) and (A or C)) or D  →  (A or B or D) and (A or C or D)
        let p = Predicate::Or(vec![
            Predicate::And(vec![
                Predicate::Or(vec![atom("A"), atom("B")]),
                Predicate::Or(vec![atom("A"), atom("C")]),
            ]),
            atom("D"),
        ]);
        let cnf = p.to_cnf().unwrap();
        assert_eq!(cnf.clauses.len(), 2);
        let names: Vec<Vec<&str>> = cnf
            .clauses
            .iter()
            .map(|c| c.atoms.iter().map(|a| a.attr.as_str()).collect())
            .collect();
        assert!(names.contains(&vec!["A", "B", "D"]));
        assert!(names.contains(&vec!["A", "C", "D"]));
    }

    #[test]
    fn simple_forms() {
        assert!(Predicate::All.to_cnf().unwrap().is_all());
        let single = atom("A").to_cnf().unwrap();
        assert_eq!(single.clauses.len(), 1);
        assert_eq!(single.clauses[0].atoms.len(), 1);
        let and = Predicate::And(vec![atom("A"), atom("B")]).to_cnf().unwrap();
        assert_eq!(and.clauses.len(), 2);
        let or = Predicate::Or(vec![atom("A"), atom("B")]).to_cnf().unwrap();
        assert_eq!(or.clauses.len(), 1);
        assert_eq!(or.clauses[0].atoms.len(), 2);
    }

    #[test]
    fn or_with_all_term_is_all() {
        let p = Predicate::Or(vec![atom("A"), Predicate::All]);
        assert!(p.to_cnf().unwrap().is_all());
    }

    #[test]
    fn duplicate_atoms_and_clauses_removed() {
        let p = Predicate::And(vec![
            Predicate::Or(vec![atom("A"), atom("A"), atom("B")]),
            Predicate::Or(vec![atom("B"), atom("A")]),
        ]);
        let cnf = p.to_cnf().unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].atoms.len(), 2);
    }

    #[test]
    fn absorption_drops_superset_clause() {
        // (A) and (A or B) ≡ A
        let p = Predicate::And(vec![atom("A"), Predicate::Or(vec![atom("A"), atom("B")])]);
        let cnf = p.to_cnf().unwrap();
        assert_eq!(cnf.clauses.len(), 1);
        assert_eq!(cnf.clauses[0].atoms.len(), 1);
        assert_eq!(cnf.clauses[0].atoms[0].attr.as_str(), "A");
    }

    #[test]
    fn blowup_is_detected() {
        // (a1 and b1) or (a2 and b2) or ... distributes to 2^n clauses.
        let terms: Vec<Predicate> = (0..16)
            .map(|i| Predicate::And(vec![atom(&format!("a{i}")), atom(&format!("b{i}"))]))
            .collect();
        let p = Predicate::Or(terms);
        assert!(matches!(p.to_cnf(), Err(CnfError::TooLarge { .. })));
    }

    #[test]
    fn display_renders() {
        let cnf = Predicate::And(vec![Predicate::Or(vec![atom("A"), atom("B")]), atom("C")])
            .to_cnf()
            .unwrap();
        let s = cnf.to_string();
        assert!(s.contains("or"));
        assert!(s.contains("and"));
        assert_eq!(Cnf::all().to_string(), "*");
    }

    /// Strategy for small random predicates over 4 boolean attributes.
    fn arb_pred(depth: u32) -> BoxedStrategy<Predicate> {
        let leaf = (0..4u8)
            .prop_map(|i| Predicate::atom(["A", "B", "C", "D"][i as usize], CmpOp::Eq, true));
        leaf.prop_recursive(depth, 24, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Predicate::And),
                proptest::collection::vec(inner, 1..4).prop_map(Predicate::Or),
            ]
        })
        .boxed()
    }

    proptest! {
        /// CNF preserves the predicate's truth table over all assignments.
        #[test]
        fn cnf_preserves_semantics(p in arb_pred(3), assignment in 0u8..16) {
            let mut store = AttrStore::new();
            for (i, name) in ["A", "B", "C", "D"].iter().enumerate() {
                store.set(*name, (assignment >> i) & 1 == 1);
            }
            let cnf = p.to_cnf().unwrap();
            let cnf_val = cnf
                .clauses
                .iter()
                .all(|c| c.atoms.iter().any(|a| a.eval(&store)));
            prop_assert_eq!(p.eval(&store), cnf_val);
        }
    }
}
