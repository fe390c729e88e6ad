//! Recognition of the polynomial-time SAT classes of Section 3.1:
//! Horn, renamable (hidden) Horn, 2-SAT, and q-Horn.
//!
//! The paper argues (Section 3.1) that these classes cannot explain the
//! ease of ATPG because even simple circuits yield ATPG-SAT formulas
//! outside q-Horn — the most general of them. These recognizers let us
//! reproduce that claim mechanically (experiment **S3.1** in DESIGN.md).
//!
//! q-Horn recognition uses the Boros–Crama–Hammer characterization: `f` is
//! q-Horn iff there is a valuation `β : V → [0,1]` with, for every clause,
//! `Σ_{x∈C} β_x + Σ_{¬x∈C} (1−β_x) ≤ 1`; feasibility over `[0,1]` is
//! equivalent to feasibility over `{0, ½, 1}`, which we decide exactly with
//! a small backtracking search over a two-bit encoding per variable.

use crate::{CnfFormula, Lit};

/// The most specific polynomial SAT class a formula belongs to, among the
/// classes discussed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SatClass {
    /// Every clause has at most one positive literal.
    Horn,
    /// Horn after complementing some subset of variables.
    RenamableHorn,
    /// Every clause has at most two literals.
    TwoSat,
    /// Satisfies the Boros–Crama–Hammer q-Horn condition.
    QHorn,
    /// None of the above.
    General,
}

/// Whether every clause has at most one positive literal.
pub fn is_horn(f: &CnfFormula) -> bool {
    f.clauses()
        .all(|c| c.iter().filter(|l| l.is_positive()).count() <= 1)
}

/// Whether every clause has at most two literals.
pub fn is_two_sat(f: &CnfFormula) -> bool {
    f.clauses().all(|c| c.len() <= 2)
}

/// Whether the formula is Horn after complementing some variable subset
/// (also called *hidden Horn*). Decided via a 2-SAT reduction: clause
/// `(t_i ∨ t_j)` for every literal pair within a source clause, where `t`
/// of a positive literal `x` is the switch variable `s_x` and `t` of `¬x`
/// is `¬s_x`.
pub fn is_renamable_horn(f: &CnfFormula) -> bool {
    let n = f.num_vars();
    let mut two_sat = TwoSat::new(n);
    for clause in f.clauses() {
        for (i, &li) in clause.iter().enumerate() {
            for &lj in &clause[i + 1..] {
                let ti = (li.var().index(), li.is_positive());
                let tj = (lj.var().index(), lj.is_positive());
                two_sat.add_clause(ti, tj);
            }
        }
    }
    two_sat.satisfiable()
}

/// Whether the formula is q-Horn.
///
/// Exact, but exponential in the worst case in the number of *distinct
/// variables* (the search is over two bits per variable with strong unit
/// propagation); practical for the formula sizes the reproduction uses.
pub fn is_q_horn(f: &CnfFormula) -> bool {
    // Meta-variables: for each source var v, h_v := (β_v ≥ ½) and
    // f_v := (β_v = 1), with f_v → h_v.
    //
    // For a literal l, weight(l) = β if l positive else 1−β:
    //   ge_half(l) = h_v if positive else ¬f_v
    //   is_one(l)  = f_v if positive else ¬h_v
    //
    // Clause feasibility (Σ weights ≤ 1) over {0,½,1} is equivalent to:
    //   (a) for each ordered pair i≠j: ¬(is_one_i ∧ ge_half_j)
    //   (b) for each triple i<j<k: ¬(ge_half_i ∧ ge_half_j ∧ ge_half_k)
    let n = f.num_vars();
    let h = |v: usize| Lit::positive(crate::Var::from_index(v));
    let one = |v: usize| Lit::positive(crate::Var::from_index(n + v));
    let mut meta = CnfFormula::new(2 * n);
    for v in 0..n {
        meta.add_clause(vec![!one(v), h(v)]); // f_v → h_v
    }
    let ge_half = |l: Lit| {
        if l.is_positive() {
            h(l.var().index())
        } else {
            !one(l.var().index())
        }
    };
    let is_one = |l: Lit| {
        if l.is_positive() {
            one(l.var().index())
        } else {
            !h(l.var().index())
        }
    };
    for clause in f.clauses() {
        for (i, &li) in clause.iter().enumerate() {
            for (j, &lj) in clause.iter().enumerate() {
                if i != j {
                    meta.add_clause(vec![!is_one(li), !ge_half(lj)]);
                }
            }
        }
        for i in 0..clause.len() {
            for j in i + 1..clause.len() {
                for k in j + 1..clause.len() {
                    meta.add_clause(vec![
                        !ge_half(clause[i]),
                        !ge_half(clause[j]),
                        !ge_half(clause[k]),
                    ]);
                }
            }
        }
    }
    mini_sat(&meta)
}

/// Classifies a formula into the most specific of the paper's classes.
pub fn classify(f: &CnfFormula) -> SatClass {
    if is_horn(f) {
        SatClass::Horn
    } else if is_renamable_horn(f) {
        SatClass::RenamableHorn
    } else if is_two_sat(f) {
        SatClass::TwoSat
    } else if is_q_horn(f) {
        SatClass::QHorn
    } else {
        SatClass::General
    }
}

/// Minimal recursive DPLL with unit propagation, used only for the q-Horn
/// meta-formula (kept local to avoid a dependency cycle with the solver
/// crate).
fn mini_sat(f: &CnfFormula) -> bool {
    fn go(f: &CnfFormula, assign: &mut Vec<Option<bool>>) -> bool {
        // Unit propagation to fixpoint.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut changed = false;
            for clause in f.clauses() {
                let mut unassigned: Option<Lit> = None;
                let mut count = 0usize;
                let mut sat = false;
                for &l in clause {
                    match assign[l.var().index()] {
                        Some(v) if v == l.asserted_value() => {
                            sat = true;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            unassigned = Some(l);
                            count += 1;
                        }
                    }
                }
                if sat {
                    continue;
                }
                match count {
                    0 => {
                        for &v in &trail {
                            assign[v] = None;
                        }
                        return false;
                    }
                    1 => {
                        let l = unassigned.expect("one unassigned literal");
                        assign[l.var().index()] = Some(l.asserted_value());
                        trail.push(l.var().index());
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        let next = assign.iter().position(Option::is_none);
        let result = match next {
            None => f.eval(assign) == Some(true),
            Some(v) => {
                let mut ok = false;
                for val in [true, false] {
                    assign[v] = Some(val);
                    if go(f, assign) {
                        ok = true;
                        break;
                    }
                    assign[v] = None;
                }
                ok
            }
        };
        if !result {
            for &v in &trail {
                assign[v] = None;
            }
        }
        result
    }
    let mut assign = vec![None; f.num_vars()];
    go(f, &mut assign)
}

/// A 2-SAT instance decided by Kosaraju-style strongly-connected-component
/// analysis of the implication graph.
struct TwoSat {
    n: usize,
    /// adjacency: node 2v = "s_v true", 2v+1 = "s_v false".
    adj: Vec<Vec<usize>>,
    radj: Vec<Vec<usize>>,
}

impl TwoSat {
    fn new(n: usize) -> Self {
        TwoSat {
            n,
            adj: vec![Vec::new(); 2 * n.max(1)],
            radj: vec![Vec::new(); 2 * n.max(1)],
        }
    }

    fn node(&self, (var, positive): (usize, bool)) -> usize {
        2 * var + usize::from(!positive)
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        self.adj[a].push(b);
        self.radj[b].push(a);
    }

    /// Adds clause `(a ∨ b)` where each side is `(var, polarity)`.
    fn add_clause(&mut self, a: (usize, bool), b: (usize, bool)) {
        let (na, nb) = (self.node(a), self.node(b));
        self.add_edge(na ^ 1, nb); // ¬a → b
        self.add_edge(nb ^ 1, na); // ¬b → a
    }

    fn satisfiable(&self) -> bool {
        let m = 2 * self.n.max(1);
        // Iterative first pass: finish order.
        let mut visited = vec![false; m];
        let mut order = Vec::with_capacity(m);
        for s in 0..m {
            if visited[s] {
                continue;
            }
            let mut stack = vec![(s, 0usize)];
            visited[s] = true;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.adj[u].len() {
                    let v = self.adj[u][*i];
                    *i += 1;
                    if !visited[v] {
                        visited[v] = true;
                        stack.push((v, 0));
                    }
                } else {
                    order.push(u);
                    stack.pop();
                }
            }
        }
        // Second pass on the reverse graph in reverse finish order.
        let mut comp = vec![usize::MAX; m];
        let mut c = 0usize;
        for &s in order.iter().rev() {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut stack = vec![s];
            comp[s] = c;
            while let Some(u) = stack.pop() {
                for &v in &self.radj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = c;
                        stack.push(v);
                    }
                }
            }
            c += 1;
        }
        (0..self.n).all(|v| comp[2 * v] != comp[2 * v + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    #[test]
    fn horn_detection() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, false), lit(2, false)]);
        f.add_clause(vec![lit(1, false)]);
        assert!(is_horn(&f));
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        assert!(!is_horn(&f));
    }

    #[test]
    fn renamable_horn_by_flipping() {
        // (x0 ∨ x1) has two positive literals but flipping x0 makes it Horn.
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        assert!(!is_horn(&f));
        assert!(is_renamable_horn(&f));
    }

    #[test]
    fn not_renamable_horn() {
        // All four polarity combinations over (x0, x1): no renaming works.
        let mut f = CnfFormula::new(3);
        for a in [true, false] {
            for b in [true, false] {
                f.add_clause(vec![lit(0, a), lit(1, b), lit(2, a ^ b)]);
            }
        }
        // Complete cross-polarity 3-clauses: renaming cannot make all ≤1-pos.
        // Construct explicitly contradictory pair constraints instead:
        let mut g = CnfFormula::new(2);
        g.add_clause(vec![lit(0, true), lit(1, true), lit(0, true)]);
        g.add_clause(vec![lit(0, true), lit(1, false), lit(1, false)]);
        g.add_clause(vec![lit(0, false), lit(1, true), lit(0, false)]);
        g.add_clause(vec![lit(0, false), lit(1, false), lit(1, false)]);
        // After dedup these are 2-clauses covering all polarity pairs:
        // s-constraints demand ¬(p_i∧p_j) for each pair — impossible for
        // the pair that is positive in every renaming.
        assert!(!is_renamable_horn(&g));
    }

    #[test]
    fn two_sat_is_q_horn() {
        let mut f = CnfFormula::new(4);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        f.add_clause(vec![lit(1, false), lit(2, true)]);
        f.add_clause(vec![lit(2, false), lit(3, false)]);
        assert!(is_two_sat(&f));
        assert!(is_q_horn(&f), "every 2-SAT formula is q-Horn (β = ½)");
    }

    #[test]
    fn horn_is_q_horn() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, false), lit(2, false)]);
        f.add_clause(vec![lit(2, true), lit(0, false)]);
        assert!(is_horn(&f));
        assert!(is_q_horn(&f), "every Horn formula is q-Horn (β = 1)");
    }

    #[test]
    fn non_q_horn_formula() {
        // Two 3-clauses sharing all variables with clashing polarities:
        // (x0 ∨ x1 ∨ x2) needs β_0+β_1+β_2 ≤ 1,
        // (¬x0 ∨ ¬x1 ∨ ¬x2) needs (1−β_0)+(1−β_1)+(1−β_2) ≤ 1, i.e. Σβ ≥ 2.
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        f.add_clause(vec![lit(0, false), lit(1, false), lit(2, false)]);
        assert!(!is_q_horn(&f));
        assert_eq!(classify(&f), SatClass::General);
    }

    #[test]
    fn classify_priority() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, false)]);
        assert_eq!(classify(&f), SatClass::Horn);
        let mut g = CnfFormula::new(2);
        g.add_clause(vec![lit(0, true), lit(1, true)]);
        assert_eq!(classify(&g), SatClass::RenamableHorn);
    }

    #[test]
    fn mini_sat_agrees_on_tiny_formulas() {
        // (x0) ∧ (¬x0) is UNSAT; (x0 ∨ x1) ∧ (¬x0) is SAT.
        let mut u = CnfFormula::new(1);
        u.add_clause(vec![lit(0, true)]);
        u.add_clause(vec![lit(0, false)]);
        assert!(!mini_sat(&u));
        let mut s = CnfFormula::new(2);
        s.add_clause(vec![lit(0, true), lit(1, true)]);
        s.add_clause(vec![lit(0, false)]);
        assert!(mini_sat(&s));
    }
}
