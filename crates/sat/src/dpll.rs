//! DPLL: backtracking with unit propagation.
//!
//! The classic refinement sitting between the paper's simple backtracking
//! model and the modern CDCL solvers inside tools like TEGUS or GRASP.
//! Used by the solver-ablation experiments (S4.1 in DESIGN.md).

use std::time::Instant;

use atpg_easy_cnf::{CnfFormula, Lit, Var};

use crate::{
    probe_outcome, Deadline, Limits, NoProbe, NoProof, Outcome, Probe, ProofSink, Solution, Solver,
    SolverStats,
};

/// DPLL with unit propagation and static branching order.
#[derive(Debug, Clone, Default)]
pub struct Dpll {
    order: Option<Vec<Var>>,
    limits: Limits,
    stats: SolverStats,
}

impl Dpll {
    /// Solver with index branching order and no limits.
    pub fn new() -> Self {
        Dpll::default()
    }

    /// Sets the static branching order.
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

struct State {
    clauses: Vec<Vec<Lit>>,
    occ: Vec<Vec<(usize, Lit)>>,
    true_count: Vec<u32>,
    unassigned_count: Vec<u32>,
    open_clauses: usize,
    assign: Vec<Option<bool>>,
    trail: Vec<Var>,
}

enum Verdict {
    Sat,
    Unsat,
    Aborted,
}

impl State {
    fn new(f: &CnfFormula) -> Self {
        let n = f.num_vars();
        let m = f.num_clauses();
        let mut s = State {
            clauses: f.clauses().map(<[Lit]>::to_vec).collect(),
            occ: vec![Vec::new(); n],
            true_count: vec![0; m],
            unassigned_count: vec![0; m],
            open_clauses: m,
            assign: vec![None; n],
            trail: Vec::new(),
        };
        for (ci, clause) in s.clauses.iter().enumerate() {
            s.unassigned_count[ci] = clause.len() as u32;
            for &l in clause {
                s.occ[l.var().index()].push((ci, l));
            }
        }
        s
    }

    /// Assigns and records on the trail. Returns `false` on conflict.
    fn assign(&mut self, var: Var, value: bool) -> bool {
        self.assign[var.index()] = Some(value);
        self.trail.push(var);
        let mut ok = true;
        for k in 0..self.occ[var.index()].len() {
            let (ci, l) = self.occ[var.index()][k];
            self.unassigned_count[ci] -= 1;
            if l.asserted_value() == value {
                if self.true_count[ci] == 0 {
                    self.open_clauses -= 1;
                }
                self.true_count[ci] += 1;
            } else if self.true_count[ci] == 0 && self.unassigned_count[ci] == 0 {
                ok = false;
            }
        }
        ok
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("trail non-empty");
            let value = self.assign[var.index()].expect("assigned");
            for k in 0..self.occ[var.index()].len() {
                let (ci, l) = self.occ[var.index()][k];
                if l.asserted_value() == value {
                    self.true_count[ci] -= 1;
                    if self.true_count[ci] == 0 {
                        self.open_clauses += 1;
                    }
                }
                self.unassigned_count[ci] += 1;
            }
            self.assign[var.index()] = None;
        }
    }

    /// Propagates unit clauses to fixpoint. Returns `false` on conflict.
    ///
    /// Ticks `deadline` once per propagated literal; on expiry the fixpoint
    /// loop stops early (no conflict is reported) and the caller's deadline
    /// check aborts the search.
    fn propagate<P: Probe + ?Sized>(
        &mut self,
        stats: &mut SolverStats,
        deadline: &mut Deadline,
        probe: &mut P,
    ) -> bool {
        loop {
            let mut unit: Option<Lit> = None;
            for ci in 0..self.clauses.len() {
                if self.true_count[ci] == 0 {
                    match self.unassigned_count[ci] {
                        0 => return false,
                        1 => {
                            let l = self.clauses[ci]
                                .iter()
                                .copied()
                                .find(|l| self.assign[l.var().index()].is_none())
                                .expect("one unassigned literal");
                            unit = Some(l);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            match unit {
                None => return true,
                Some(l) => {
                    stats.propagations += 1;
                    probe.propagation();
                    probe.deadline_check();
                    if deadline.expired() {
                        return true;
                    }
                    if !self.assign(l.var(), l.asserted_value()) {
                        return false;
                    }
                }
            }
        }
    }
}

use crate::simple::emit_refutation;

#[allow(clippy::too_many_arguments)]
fn rec<P: Probe + ?Sized, S: ProofSink + ?Sized>(
    st: &mut State,
    order: &[Var],
    depth: usize,
    stats: &mut SolverStats,
    limits: &Limits,
    deadline: &mut Deadline,
    probe: &mut P,
    sink: &mut S,
    prefix: &mut Vec<Lit>,
) -> Verdict {
    let mark = st.trail.len();
    if !st.propagate(stats, deadline, probe) {
        stats.conflicts += 1;
        probe.conflict();
        st.undo_to(mark);
        if sink.enabled() {
            emit_refutation(sink, prefix, None);
        }
        return Verdict::Unsat;
    }
    probe.deadline_check();
    if deadline.expired() {
        st.undo_to(mark);
        return Verdict::Aborted;
    }
    if st.open_clauses == 0 {
        return Verdict::Sat;
    }
    let Some(&v) = order.iter().find(|v| st.assign[v.index()].is_none()) else {
        // Every variable assigned without conflict: all clauses satisfied.
        return Verdict::Sat;
    };
    for value in [false, true] {
        stats.nodes += 1;
        stats.decisions += 1;
        probe.decision(depth);
        if let Some(max) = limits.max_nodes {
            if stats.nodes > max {
                st.undo_to(mark);
                return Verdict::Aborted;
            }
        }
        let decision_mark = st.trail.len();
        let decision = Lit::with_value(v, value);
        let ok = st.assign(v, value);
        if ok {
            if sink.enabled() {
                prefix.push(decision);
            }
            let verdict = rec(
                st,
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
        } else {
            stats.conflicts += 1;
            probe.conflict();
            if sink.enabled() {
                emit_refutation(sink, prefix, Some(decision));
            }
        }
        st.undo_to(decision_mark);
        probe.backtrack(depth);
    }
    st.undo_to(mark);
    // Both branches refuted: their two emitted clauses become units under
    // the prefix, so `¬prefix` is RUP (empty at the root).
    if sink.enabled() {
        emit_refutation(sink, prefix, None);
    }
    Verdict::Unsat
}

impl Dpll {
    fn solve_with<P: Probe + ?Sized, S: ProofSink + ?Sized>(
        &mut self,
        formula: &CnfFormula,
        probe: &mut P,
        sink: &mut S,
    ) -> Solution {
        // Reset the persistent counters so a reused solver starts clean.
        self.stats = SolverStats::default();
        let start = probe.enabled().then(Instant::now);
        probe.instance_begin(formula.num_vars(), formula.num_clauses());
        let order: Vec<Var> = match &self.order {
            Some(o) => {
                crate::simple::check_order(o, formula.num_vars());
                o.clone()
            }
            None => (0..formula.num_vars()).map(Var::from_index).collect(),
        };
        let mut st = State::new(formula);
        let outcome = if formula.has_empty_clause() {
            // The empty clause is an axiom; re-deriving it is trivially RUP.
            sink.add_clause(&[]);
            Outcome::Unsat
        } else {
            let mut deadline = Deadline::start(&self.limits);
            let mut prefix: Vec<Lit> = Vec::new();
            let verdict = rec(
                &mut st,
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
                    let model: Vec<bool> = st.assign.iter().map(|v| v.unwrap_or(false)).collect();
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

impl Solver for Dpll {
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

    fn stats(&self) -> SolverStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "dpll"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    #[test]
    fn unit_propagation_chains() {
        // x0, x0→x1, x1→x2, x2→x3: solved without a single decision.
        let mut f = CnfFormula::new(4);
        f.add_clause(vec![lit(0, true)]);
        for i in 0..3 {
            f.add_clause(vec![lit(i, false), lit(i + 1, true)]);
        }
        let sol = Dpll::new().solve(&f);
        let model = sol.outcome.model().expect("SAT").to_vec();
        assert!(model.iter().all(|&b| b));
        assert_eq!(sol.stats.decisions, 0);
        assert_eq!(sol.stats.propagations, 4);
    }

    #[test]
    fn unsat_by_propagation() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true)]);
        f.add_clause(vec![lit(0, false), lit(1, true)]);
        f.add_clause(vec![lit(0, false), lit(1, false)]);
        let sol = Dpll::new().solve(&f);
        assert!(sol.outcome.is_unsat());
        assert_eq!(sol.stats.decisions, 0);
    }

    #[test]
    fn decisions_needed() {
        let mut f = CnfFormula::new(3);
        f.add_clause(vec![lit(0, true), lit(1, true), lit(2, true)]);
        let sol = Dpll::new().solve(&f);
        assert!(sol.outcome.is_sat());
        assert!(sol.stats.decisions >= 1);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![]);
        assert!(Dpll::new().solve(&f).outcome.is_unsat());
    }

    #[test]
    fn budget_respected() {
        let mut f = CnfFormula::new(30);
        // Random-ish disjunctions with no units: forces decisions.
        for i in 0..28 {
            f.add_clause(vec![lit(i, true), lit(i + 1, false), lit(i + 2, true)]);
            f.add_clause(vec![lit(i, false), lit(i + 1, true), lit(i + 2, false)]);
        }
        let sol = Dpll::new().with_limits(Limits::nodes(2)).solve(&f);
        assert!(matches!(sol.outcome, Outcome::Sat(_) | Outcome::Aborted));
        assert!(sol.stats.nodes <= 3);
    }
}
