//! CNF formula container.

use std::fmt;

use crate::{Clause, Lit, Var};

/// A CNF formula: a conjunction of clauses over variables `0..num_vars`.
///
/// Mirrors the paper's Section 2 definition: a set of clauses, each a set
/// of literals. Duplicate literals within a clause are removed on insertion
/// and tautological clauses (containing `l` and `¬l`) are dropped, so the
/// stored clause set matches the paper's set-of-sets semantics.
///
/// All literals live in one buffer, clause after clause, and `ends[i]` is
/// where clause `i` stops: adding a clause allocates nothing per clause,
/// and [`Self::clauses`] hands out slices of that buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    lits: Vec<Lit>,
    ends: Vec<usize>,
}

impl CnfFormula {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            ..CnfFormula::default()
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Clause `i`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_clauses()`.
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.lits[start..self.ends[i]]
    }

    /// The clauses, in insertion order.
    pub fn clauses(
        &self,
    ) -> impl ExactSizeIterator<Item = &[Lit]> + DoubleEndedIterator + Clone + '_ {
        (0..self.ends.len()).map(|i| self.clause(i))
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn grow_to(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Adds a clause. Duplicate literals are removed; tautologies are
    /// silently dropped; variables beyond the current count grow the
    /// formula. Returns `true` if the clause was kept.
    ///
    /// An **empty clause is kept** — it makes the formula trivially
    /// unsatisfiable, matching the paper's definition of an inconsistent
    /// sub-formula.
    pub fn add_clause(&mut self, clause: Clause) -> bool {
        self.add_lits(clause)
    }

    /// [`Self::add_clause`] from any literal source, such as an array or
    /// a copied slice, without building a `Vec` for the clause.
    pub fn add_lits(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        let start = self.lits.len();
        self.lits.extend(lits);
        let clause = &mut self.lits[start..];
        clause.sort_unstable();
        // Deduplicate in place; after sorting, `l` and `!l` are adjacent.
        let mut kept = 0;
        for i in 0..clause.len() {
            let l = clause[i];
            if kept > 0 && clause[kept - 1] == l {
                continue;
            }
            if kept > 0 && clause[kept - 1].var() == l.var() {
                self.lits.truncate(start);
                return false; // l and !l: tautology
            }
            clause[kept] = l;
            kept += 1;
        }
        self.lits.truncate(start + kept);
        if let Some(max) = self.lits[start..].last() {
            self.grow_to(max.var().index() + 1);
        }
        self.ends.push(self.lits.len());
        true
    }

    /// Pushes a clause verbatim: no sorting, deduplication, tautology
    /// filtering, and no variable growth.
    ///
    /// For trusted loaders that normalize separately, and for building the
    /// malformed formulas `atpg-easy-lint` exercises its CNF passes
    /// against. The stored formula may afterwards violate every invariant
    /// documented on [`Self::add_clause`] — including referencing
    /// variables at or beyond [`Self::num_vars`]; run the lint passes to
    /// detect that.
    pub fn add_clause_unchecked(&mut self, clause: Clause) {
        self.lits.extend(clause);
        self.ends.push(self.lits.len());
    }

    /// Whether the formula contains an empty clause (trivially UNSAT).
    pub fn has_empty_clause(&self) -> bool {
        self.clauses().any(<[Lit]>::is_empty)
    }

    /// Evaluates under a partial assignment (`None` = unassigned).
    ///
    /// Returns `Some(true)` if every clause has a true literal,
    /// `Some(false)` if some clause has all literals false, and `None`
    /// otherwise (undetermined).
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < num_vars`.
    pub fn eval(&self, assignment: &[Option<bool>]) -> Option<bool> {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        let mut all_sat = true;
        for clause in self.clauses() {
            let mut sat = false;
            let mut undecided = false;
            for &lit in clause {
                match assignment[lit.var().index()] {
                    Some(v) if v == lit.asserted_value() => {
                        sat = true;
                        break;
                    }
                    Some(_) => {}
                    None => undecided = true,
                }
            }
            if sat {
                continue;
            }
            if undecided {
                all_sat = false;
            } else {
                return Some(false);
            }
        }
        if all_sat {
            Some(true)
        } else {
            None
        }
    }

    /// Evaluates under a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() < num_vars`.
    pub fn eval_complete(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars, "assignment too short");
        self.clauses().all(|c| {
            c.iter()
                .any(|&l| assignment[l.var().index()] == l.asserted_value())
        })
    }

    /// Maximum clause length.
    pub fn max_clause_len(&self) -> usize {
        self.clauses().map(<[Lit]>::len).max().unwrap_or(0)
    }
}

impl Extend<Clause> for CnfFormula {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

impl FromIterator<Clause> for CnfFormula {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        let mut f = CnfFormula::new(0);
        f.extend(iter);
        f
    }
}

impl fmt::Debug for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CnfFormula")
            .field("num_vars", &self.num_vars)
            .field("clauses", &self.clauses().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "(")?;
            for (j, lit) in clause.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∨ ")?;
                }
                write!(f, "{lit}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    #[test]
    fn add_and_count() {
        let mut f = CnfFormula::new(0);
        assert!(f.add_clause(vec![lit(0, true), lit(1, false)]));
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.num_literals(), 2);
    }

    #[test]
    fn tautology_dropped_duplicates_merged() {
        let mut f = CnfFormula::new(2);
        assert!(!f.add_clause(vec![lit(0, true), lit(0, false)]));
        assert_eq!(f.num_clauses(), 0);
        assert!(f.add_clause(vec![lit(1, true), lit(1, true)]));
        assert_eq!(f.clause(0).len(), 1);
    }

    #[test]
    fn eval_partial() {
        // (x0 | !x1) & (x1 | x2)
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, false)]);
        f.add_clause(vec![lit(1, true), lit(2, true)]);
        assert_eq!(f.eval(&[None, None, None]), None);
        assert_eq!(f.eval(&[Some(true), None, Some(true)]), Some(true));
        assert_eq!(f.eval(&[Some(false), Some(true), None]), Some(false));
        assert!(f.eval_complete(&[true, true, false]));
        assert!(!f.eval_complete(&[false, true, false]));
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![]);
        assert!(f.has_empty_clause());
        assert_eq!(f.eval(&[None]), Some(false));
    }

    #[test]
    fn from_iterator() {
        let f: CnfFormula = vec![vec![lit(0, true)], vec![lit(1, false)]]
            .into_iter()
            .collect();
        assert_eq!(f.num_clauses(), 2);
        assert_eq!(f.num_vars(), 2);
    }

    /// How one proptest step adds its clause.
    #[derive(Debug, Clone, Copy)]
    enum Add {
        Vec,
        Slice,
        Unchecked,
    }

    /// Clause additions over few variables, so duplicates, tautologies
    /// and empty clauses are common.
    fn ops_strategy() -> impl Strategy<Value = (usize, Vec<(Add, Clause)>)> {
        let clause = proptest::collection::vec((0usize..8, any::<bool>()), 0..6)
            .prop_map(|lits| lits.into_iter().map(|(v, pos)| lit(v, pos)).collect());
        let add = (0u8..3).prop_map(|k| [Add::Vec, Add::Slice, Add::Unchecked][k as usize]);
        (0usize..6, proptest::collection::vec((add, clause), 0..24))
    }

    /// The formula `ops` build, and the same formula as the clause lists
    /// and variable count of the `Vec<Vec<Lit>>` formula it replaced.
    fn build(num_vars: usize, ops: &[(Add, Clause)]) -> (CnfFormula, Vec<Clause>, usize) {
        let mut f = CnfFormula::new(num_vars);
        let (mut reference, mut vars) = (Vec::new(), num_vars);
        for (add, clause) in ops {
            let kept = match add {
                Add::Vec => f.add_clause(clause.clone()),
                Add::Slice => f.add_lits(clause.as_slice().iter().copied()),
                Add::Unchecked => {
                    f.add_clause_unchecked(clause.clone());
                    reference.push(clause.clone());
                    continue;
                }
            };
            let mut norm = clause.clone();
            norm.sort_unstable();
            norm.dedup();
            let tautology = norm.windows(2).any(|w| w[0].var() == w[1].var());
            assert_eq!(kept, !tautology, "{clause:?}");
            if !tautology {
                if let Some(max) = norm.iter().map(|l| l.var().index()).max() {
                    vars = vars.max(max + 1);
                }
                reference.push(norm);
            }
        }
        (f, reference, vars)
    }

    proptest! {
        /// The flat buffer stores what the per-clause `Vec`s stored:
        /// normalized clauses (verbatim ones from `add_clause_unchecked`),
        /// their literal count, the grown variable count, the empty-clause
        /// flag, and `==` exactly when the clause lists and counts agree.
        #[test]
        fn flat_formula_matches_clause_lists(
            (n, ops) in ops_strategy(),
            (other_n, other_ops) in ops_strategy(),
        ) {
            let (f, reference, vars) = build(n, &ops);
            prop_assert_eq!(f.clauses().collect::<Vec<_>>(), reference.iter().map(Vec::as_slice).collect::<Vec<_>>());
            prop_assert_eq!(f.num_clauses(), reference.len());
            for (i, c) in reference.iter().enumerate() {
                prop_assert_eq!(f.clause(i), c.as_slice());
            }
            prop_assert_eq!(f.num_literals(), reference.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(f.num_vars(), vars);
            prop_assert_eq!(f.has_empty_clause(), reference.iter().any(Vec::is_empty));
            let (g, other_reference, other_vars) = build(other_n, &other_ops);
            prop_assert_eq!(f == g, (&reference, vars) == (&other_reference, other_vars));
            let mut again = CnfFormula::new(vars);
            for c in &reference {
                again.add_clause_unchecked(c.clone());
            }
            prop_assert_eq!(&again, &f);
        }
    }

    #[test]
    fn display() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, false)]);
        assert_eq!(f.to_string(), "(x0 ∨ !x1)");
    }
}
