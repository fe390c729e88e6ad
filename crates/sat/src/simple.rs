//! Simple (chronological, fixed-order) backtracking, plus the shared
//! residual-formula bookkeeping used by the caching variant.

use std::time::Instant;

use atpg_easy_cnf::{CnfFormula, Lit, Var};

use crate::{
    probe_outcome, Deadline, Limits, NoProbe, NoProof, Outcome, Probe, ProofSink, Solution, Solver,
    SolverStats,
};

/// Emits the resolution lowering of a refuted decision prefix: the
/// clause `¬prefix` (plus `extra`, if any). A leaf conflict clause is
/// RUP because the falsified original clause empties under the asserted
/// prefix; an interior `¬prefix` is RUP because the two child clauses
/// become contradictory units under the prefix.
pub(crate) fn emit_refutation<S: ProofSink + ?Sized>(
    sink: &mut S,
    prefix: &[Lit],
    extra: Option<Lit>,
) {
    let mut clause: Vec<Lit> = prefix.iter().map(|&l| !l).collect();
    if let Some(l) = extra {
        clause.push(!l);
    }
    sink.add_clause(&clause);
}

/// Incremental view of a formula under a partial assignment.
///
/// Tracks, per clause, how many literals are currently true and how many
/// are unassigned, so conflicts ("null clauses" in the paper) and full
/// satisfaction are detected in O(occurrences) per assignment. Also
/// maintains commutative per-clause content hashes so the caching solver
/// can key its UNSAT table by the residual clause set.
pub(crate) struct Residual {
    clauses: Vec<Vec<Lit>>,
    /// Per variable: (clause index, literal as it appears).
    occ: Vec<Vec<(usize, Lit)>>,
    true_count: Vec<u32>,
    unassigned_count: Vec<u32>,
    /// Clauses with no true literal yet.
    open_clauses: usize,
    /// Clauses with no true literal and no unassigned literal.
    empty_clauses: usize,
    pub(crate) assign: Vec<Option<bool>>,
    /// Commutative content accumulators for residual-clause hashing.
    hash_sum: Vec<u64>,
    hash_xor: Vec<u64>,
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn lit_hash(l: Lit) -> u64 {
    splitmix64(l.code() as u64 ^ 0xD1B5_4A32_D192_ED03)
}

impl Residual {
    pub(crate) fn new(f: &CnfFormula) -> Self {
        let n = f.num_vars();
        let m = f.num_clauses();
        let mut r = Residual {
            clauses: f.clauses().map(<[Lit]>::to_vec).collect(),
            occ: vec![Vec::new(); n],
            true_count: vec![0; m],
            unassigned_count: vec![0; m],
            open_clauses: m,
            empty_clauses: 0,
            assign: vec![None; n],
            hash_sum: vec![0; m],
            hash_xor: vec![0; m],
        };
        for (ci, clause) in r.clauses.iter().enumerate() {
            r.unassigned_count[ci] = clause.len() as u32;
            if clause.is_empty() {
                r.empty_clauses += 1;
            }
            for &l in clause {
                r.occ[l.var().index()].push((ci, l));
                r.hash_sum[ci] = r.hash_sum[ci].wrapping_add(lit_hash(l));
                r.hash_xor[ci] ^= lit_hash(l);
            }
        }
        r
    }

    /// Whether the current partial assignment falsifies some clause
    /// entirely (a "null clause").
    pub(crate) fn has_conflict(&self) -> bool {
        self.empty_clauses > 0
    }

    /// Whether every clause already contains a true literal.
    pub(crate) fn all_satisfied(&self) -> bool {
        self.open_clauses == 0
    }

    pub(crate) fn assign(&mut self, var: Var, value: bool) {
        debug_assert!(self.assign[var.index()].is_none());
        self.assign[var.index()] = Some(value);
        // Iterate by index to sidestep the borrow of `self.occ`.
        for k in 0..self.occ[var.index()].len() {
            let (ci, l) = self.occ[var.index()][k];
            self.unassigned_count[ci] -= 1;
            let h = lit_hash(l);
            self.hash_sum[ci] = self.hash_sum[ci].wrapping_sub(h);
            self.hash_xor[ci] ^= h;
            if l.asserted_value() == value {
                if self.true_count[ci] == 0 {
                    self.open_clauses -= 1;
                }
                self.true_count[ci] += 1;
            } else if self.true_count[ci] == 0 && self.unassigned_count[ci] == 0 {
                self.empty_clauses += 1;
            }
        }
    }

    pub(crate) fn unassign(&mut self, var: Var) {
        let value = self.assign[var.index()].expect("variable was assigned");
        for k in 0..self.occ[var.index()].len() {
            let (ci, l) = self.occ[var.index()][k];
            if l.asserted_value() == value {
                self.true_count[ci] -= 1;
                if self.true_count[ci] == 0 {
                    self.open_clauses += 1;
                }
            } else if self.true_count[ci] == 0 && self.unassigned_count[ci] == 0 {
                self.empty_clauses -= 1;
            }
            self.unassigned_count[ci] += 1;
            let h = lit_hash(l);
            self.hash_sum[ci] = self.hash_sum[ci].wrapping_add(h);
            self.hash_xor[ci] ^= h;
        }
        self.assign[var.index()] = None;
    }

    /// A 128-bit fingerprint of the residual formula *as a set of clauses*:
    /// satisfied clauses are dropped, false literals are dropped, and
    /// clauses that reduce to identical literal sets are merged — exactly
    /// the identity the paper's footnote 2 specifies.
    pub(crate) fn state_fingerprint(&self) -> u128 {
        let mut active: Vec<u64> = (0..self.clauses.len())
            .filter(|&ci| self.true_count[ci] == 0)
            .map(|ci| {
                let content = self.hash_sum[ci]
                    .rotate_left(17)
                    .wrapping_add(splitmix64(self.hash_xor[ci]))
                    .wrapping_add(self.unassigned_count[ci] as u64);
                splitmix64(content)
            })
            .collect();
        active.sort_unstable();
        active.dedup();
        let mut a: u64 = 0x243F_6A88_85A3_08D3;
        let mut b: u64 = 0x1319_8A2E_0370_7344;
        for (i, h) in active.iter().enumerate() {
            a = splitmix64(a ^ h.wrapping_mul(i as u64 | 1));
            b = b.wrapping_add(splitmix64(h ^ 0xA409_3822_299F_31D0));
        }
        ((a as u128) << 64) | b as u128
    }

    /// The completed model: unassigned variables default to `false`.
    pub(crate) fn model(&self) -> Vec<bool> {
        self.assign.iter().map(|v| v.unwrap_or(false)).collect()
    }

    /// The canonical residual clause set behind [`Residual::state_fingerprint`]:
    /// every active clause (no true literal) as its sorted remaining-literal
    /// codes, the clause list itself sorted and deduplicated, flattened with
    /// `u32::MAX` separators. Two residuals are the same sub-formula (under
    /// the paper's footnote-2 identity) iff their canonical keys are equal —
    /// unlike the fingerprint, which can collide.
    pub(crate) fn canonical_key(&self) -> Box<[u32]> {
        let mut active: Vec<Vec<u32>> = (0..self.clauses.len())
            .filter(|&ci| self.true_count[ci] == 0)
            .map(|ci| {
                let mut lits: Vec<u32> = self.clauses[ci]
                    .iter()
                    .filter(|l| self.assign[l.var().index()].is_none())
                    .map(|l| l.code() as u32)
                    .collect();
                lits.sort_unstable();
                lits
            })
            .collect();
        active.sort_unstable();
        active.dedup();
        let mut flat = Vec::with_capacity(active.iter().map(|c| c.len() + 1).sum());
        for clause in active {
            flat.extend_from_slice(&clause);
            flat.push(u32::MAX);
        }
        flat.into_boxed_slice()
    }
}

/// Fixed-order chronological backtracking without caching — the
/// "simple backtracking" baseline of the paper's Section 4.
///
/// The variable order defaults to variable index order; supply another
/// permutation with [`SimpleBacktracking::with_order`] (the paper's `h`).
#[derive(Debug, Clone, Default)]
pub struct SimpleBacktracking {
    order: Option<Vec<Var>>,
    limits: Limits,
    stats: SolverStats,
}

impl SimpleBacktracking {
    /// Solver with index variable order and no limits.
    pub fn new() -> Self {
        SimpleBacktracking::default()
    }

    /// Sets the static variable order `h`.
    ///
    /// # Panics
    ///
    /// At solve time, panics if the order is not a permutation of the
    /// formula's variables.
    pub fn with_order(mut self, order: Vec<Var>) -> Self {
        self.order = Some(order);
        self
    }

    /// Sets a resource budget.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }
}

pub(crate) fn check_order(order: &[Var], num_vars: usize) {
    assert_eq!(order.len(), num_vars, "order must cover every variable");
    let mut seen = vec![false; num_vars];
    for v in order {
        assert!(!seen[v.index()], "order must not repeat variables");
        seen[v.index()] = true;
    }
}

enum Verdict {
    Sat,
    Unsat,
    Aborted,
}

#[allow(clippy::too_many_arguments)]
fn rec<P: Probe + ?Sized, S: ProofSink + ?Sized>(
    res: &mut Residual,
    order: &[Var],
    depth: usize,
    stats: &mut SolverStats,
    limits: &Limits,
    deadline: &mut Deadline,
    probe: &mut P,
    sink: &mut S,
    prefix: &mut Vec<Lit>,
) -> Verdict {
    if res.all_satisfied() || depth == order.len() {
        // All variables assigned with no null clause means every
        // clause is satisfied.
        return Verdict::Sat;
    }
    let v = order[depth];
    for value in [false, true] {
        // Deadline first, before the node is counted: an already-expired
        // deadline must abort with zero decisions on the books.
        probe.deadline_check();
        if deadline.expired() {
            return Verdict::Aborted;
        }
        stats.nodes += 1;
        stats.decisions += 1;
        probe.decision(depth);
        if let Some(max) = limits.max_nodes {
            if stats.nodes > max {
                return Verdict::Aborted;
            }
        }
        let decision = Lit::with_value(v, value);
        res.assign(v, value);
        if res.has_conflict() {
            stats.conflicts += 1;
            probe.conflict();
            if sink.enabled() {
                emit_refutation(sink, prefix, Some(decision));
            }
        } else {
            if sink.enabled() {
                prefix.push(decision);
            }
            let verdict = rec(
                res,
                order,
                depth + 1,
                stats,
                limits,
                deadline,
                probe,
                sink,
                prefix,
            );
            if sink.enabled() {
                prefix.pop();
            }
            match verdict {
                Verdict::Unsat => {}
                other => return other,
            }
        }
        res.unassign(v);
        probe.backtrack(depth);
    }
    if sink.enabled() {
        emit_refutation(sink, prefix, None);
    }
    Verdict::Unsat
}

impl SimpleBacktracking {
    fn solve_with<P: Probe + ?Sized, S: ProofSink + ?Sized>(
        &mut self,
        formula: &CnfFormula,
        probe: &mut P,
        sink: &mut S,
    ) -> Solution {
        // The stats field outlives this call on a reused solver; reset it
        // before counting so the previous solve's effort never leaks in.
        self.stats = SolverStats::default();
        let start = probe.enabled().then(Instant::now);
        probe.instance_begin(formula.num_vars(), formula.num_clauses());
        let order: Vec<Var> = match &self.order {
            Some(o) => {
                check_order(o, formula.num_vars());
                o.clone()
            }
            None => (0..formula.num_vars()).map(Var::from_index).collect(),
        };
        let mut res = Residual::new(formula);
        let outcome = if res.has_conflict() {
            // An empty clause is already an axiom; re-deriving it is RUP.
            sink.add_clause(&[]);
            Outcome::Unsat
        } else {
            let mut deadline = Deadline::start(&self.limits);
            let mut prefix: Vec<Lit> = Vec::new();
            let verdict = rec(
                &mut res,
                &order,
                0,
                &mut self.stats,
                &self.limits,
                &mut deadline,
                probe,
                sink,
                &mut prefix,
            );
            match verdict {
                Verdict::Sat => {
                    let model = res.model();
                    sink.model(&model);
                    Outcome::Sat(model)
                }
                Verdict::Unsat => Outcome::Unsat,
                Verdict::Aborted => Outcome::Aborted,
            }
        };
        probe.instance_end(
            probe_outcome(&outcome),
            start.map(|s| s.elapsed()).unwrap_or_default(),
        );
        Solution {
            outcome,
            stats: self.stats,
        }
    }
}

impl Solver for SimpleBacktracking {
    fn solve(&mut self, formula: &CnfFormula) -> Solution {
        self.solve_with(formula, &mut NoProbe, &mut NoProof)
    }

    fn solve_probed(&mut self, formula: &CnfFormula, probe: &mut dyn Probe) -> Solution {
        self.solve_with(formula, probe, &mut NoProof)
    }

    fn solve_certified(
        &mut self,
        formula: &CnfFormula,
        probe: &mut dyn Probe,
        sink: &mut dyn ProofSink,
    ) -> Solution {
        // Dispatch on the sink once: the disabled case re-monomorphizes
        // at the `NoProof` ZST so proof hooks compile away exactly as in
        // `solve_probed`, instead of paying a vtable `enabled()` check
        // per emission site.
        if sink.enabled() {
            self.solve_with(formula, probe, sink)
        } else {
            self.solve_probed(formula, probe)
        }
    }

    fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "simple-backtracking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_cnf::Lit;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    #[test]
    fn sat_and_model() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        f.add_clause(vec![lit(0, false)]);
        let sol = SimpleBacktracking::new().solve(&f);
        let model = sol.outcome.model().expect("SAT").to_vec();
        assert!(f.eval_complete(&model));
        assert!(!model[0] && model[1]);
    }

    #[test]
    fn unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![lit(0, true)]);
        f.add_clause(vec![lit(0, false)]);
        let sol = SimpleBacktracking::new().solve(&f);
        assert!(sol.outcome.is_unsat());
        assert!(sol.stats.conflicts > 0);
    }

    #[test]
    fn empty_clause_immediate_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![]);
        let sol = SimpleBacktracking::new().solve(&f);
        assert!(sol.outcome.is_unsat());
        assert_eq!(sol.stats.nodes, 0);
    }

    #[test]
    fn trivially_sat_empty_formula() {
        let f = CnfFormula::new(3);
        let sol = SimpleBacktracking::new().solve(&f);
        assert!(sol.outcome.is_sat());
    }

    #[test]
    fn respects_node_budget() {
        // Pigeonhole-ish hard instance: x_i pairwise constraints.
        let mut f = CnfFormula::new(12);
        for i in 0..12 {
            for j in i + 1..12 {
                f.add_clause(vec![lit(i, false), lit(j, false)]);
            }
        }
        f.add_clause((0..12).map(|i| lit(i, true)).collect());
        f.add_clause((0..12).map(|i| lit(i, true)).collect::<Vec<_>>());
        // Force UNSAT by demanding two distinct trues:
        // (handled by an auxiliary pair clause per variable)
        let sol = SimpleBacktracking::new()
            .with_limits(Limits::nodes(5))
            .solve(&f);
        // With only 5 nodes the solver must either finish instantly or abort.
        assert!(sol.stats.nodes <= 6);
    }

    #[test]
    fn custom_order_used() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(2, true)]);
        let order = vec![Var::from_index(2), Var::from_index(0), Var::from_index(1)];
        let sol = SimpleBacktracking::new().with_order(order).solve(&f);
        // First decision (x2=false) conflicts, second (x2=true) satisfies.
        assert!(sol.outcome.is_sat());
        assert_eq!(sol.stats.nodes, 2);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn bad_order_panics() {
        let f = CnfFormula::new(2);
        SimpleBacktracking::new()
            .with_order(vec![Var::from_index(0)])
            .solve(&f);
    }

    #[test]
    fn residual_fingerprint_merges_identical_clauses() {
        // (x0 ∨ x2) ∧ (x1 ∨ x2): after x0=false, x1=false both clauses
        // reduce to (x2) and must fingerprint as ONE clause — the same as
        // the single-clause formula (x2) with x0, x1 assigned.
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(2, true)]);
        f.add_clause(vec![lit(1, true), lit(2, true)]);
        let mut r = Residual::new(&f);
        r.assign(Var::from_index(0), false);
        r.assign(Var::from_index(1), false);
        let fp = r.state_fingerprint();

        let mut g = CnfFormula::new(3);
        g.add_clause(vec![lit(2, true)]);
        let mut r2 = Residual::new(&g);
        r2.assign(Var::from_index(0), false);
        r2.assign(Var::from_index(1), false);
        assert_eq!(fp, r2.state_fingerprint());
    }

    #[test]
    fn canonical_key_matches_fingerprint_identity() {
        // Same reduction as the fingerprint test: two clauses collapsing
        // to (x2) must produce the same canonical key as the one-clause
        // formula, and a different formula must produce a different key.
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(2, true)]);
        f.add_clause(vec![lit(1, true), lit(2, true)]);
        let mut r = Residual::new(&f);
        r.assign(Var::from_index(0), false);
        r.assign(Var::from_index(1), false);

        let mut g = CnfFormula::new(3);
        g.add_clause(vec![lit(2, true)]);
        let mut r2 = Residual::new(&g);
        r2.assign(Var::from_index(0), false);
        r2.assign(Var::from_index(1), false);
        assert_eq!(r.canonical_key(), r2.canonical_key());

        let mut h = CnfFormula::new(3);
        h.add_clause(vec![lit(2, false)]);
        let mut r3 = Residual::new(&h);
        r3.assign(Var::from_index(0), false);
        r3.assign(Var::from_index(1), false);
        assert_ne!(r.canonical_key(), r3.canonical_key());
    }

    #[test]
    fn residual_assign_unassign_roundtrip() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, false), lit(2, true)]);
        f.add_clause(vec![lit(1, true)]);
        let mut r = Residual::new(&f);
        let before = r.state_fingerprint();
        r.assign(Var::from_index(0), true);
        r.assign(Var::from_index(2), false);
        r.unassign(Var::from_index(2));
        r.unassign(Var::from_index(0));
        assert_eq!(r.state_fingerprint(), before);
        assert!(!r.has_conflict());
        assert!(!r.all_satisfied());
    }
}
