//! The paper's Algorithm 1: caching-based backtracking.
//!
//! Simple backtracking with a fixed variable order, except that whenever
//! the search backtracks from an unsatisfiable sub-formula, the sub-formula
//! is cached; before a sub-formula is expanded it is looked up and, if
//! present, diagnosed UNSAT immediately. Sub-formulas are identified by
//! their residual clause set (satisfied clauses removed, false literals
//! removed, duplicate clauses merged), per footnote 2 of the paper.
//!
//! Theorem 4.1: on a CIRCUIT-SAT formula `f(C)` this solver expands
//! `O(n · 2^(2·k_fo·W(C,h)))` nodes under ordering `h`.

use std::collections::HashMap;
use std::time::Instant;

use atpg_easy_cnf::{CnfFormula, Lit, Var};

use crate::simple::{check_order, emit_refutation, Residual};
use crate::{
    probe_outcome, Deadline, Limits, NoProbe, NoProof, Outcome, Probe, ProofSink, Solution, Solver,
    SolverStats,
};

/// What happened at one backtracking-tree node (see [`TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The assignment produced a null clause: immediate backtrack.
    Conflict,
    /// The residual sub-formula was found in the UNSAT cache.
    CacheHit,
    /// The node was expanded (children follow at depth + 1).
    Expanded,
    /// Every clause became satisfied: SAT leaf.
    Satisfied,
}

/// One node of the backtracking tree, as drawn in the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Depth in the tree (0 = first variable of the ordering).
    pub depth: usize,
    /// The variable assigned at this node.
    pub var: Var,
    /// The value tried.
    pub value: bool,
    /// How the node resolved.
    pub outcome: TraceOutcome,
}

/// Renders a trace as an indented tree, one line per node.
pub fn render_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for e in events {
        let marker = match e.outcome {
            TraceOutcome::Conflict => "✗ conflict",
            TraceOutcome::CacheHit => "⊘ cache hit",
            TraceOutcome::Expanded => "",
            TraceOutcome::Satisfied => "✓ SAT",
        };
        let _ = writeln!(
            s,
            "{}{}={} {}",
            "  ".repeat(e.depth),
            e.var,
            u8::from(e.value),
            marker
        );
    }
    s
}

/// Caching-based backtracking (the paper's Algorithm 1).
///
/// The cache is "perfect" in the sense of the paper's analysis: lookups and
/// insertions hash a 128-bit fingerprint of the residual clause set and
/// then compare the canonical residual key exactly, so each access is
/// O(active clauses) — constant per node for bounded-width formulas — and
/// a fingerprint collision can never smuggle in a wrong UNSAT verdict.
#[derive(Debug, Clone, Default)]
pub struct CachingBacktracking {
    order: Option<Vec<Var>>,
    limits: Limits,
    tracing: bool,
    trace: Vec<TraceEvent>,
    stats: SolverStats,
}

impl CachingBacktracking {
    /// Solver with index variable order and no limits.
    pub fn new() -> Self {
        CachingBacktracking::default()
    }

    /// Sets the static variable order `h` (a permutation of all variables).
    ///
    /// # Panics
    ///
    /// At solve time, panics if the order is not a permutation.
    pub fn with_order(mut self, order: Vec<Var>) -> Self {
        self.order = Some(order);
        self
    }

    /// Sets a resource budget.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Records every backtracking-tree node of the next solve; read it
    /// back with [`Self::trace`]. Tracing costs memory proportional to
    /// the tree, so leave it off for experiments.
    pub fn with_trace(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// The backtracking tree of the most recent solve (empty unless
    /// [`Self::with_trace`] was set).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}

enum Verdict {
    Sat,
    Unsat,
    Aborted,
}

/// The UNSAT sub-formula cache: fingerprint-indexed buckets of canonical
/// residual keys.
///
/// A bare `HashSet<u128>` of fingerprints — the previous implementation —
/// silently returns a wrong UNSAT verdict when two distinct residual
/// clause sets collide on the 128-bit hash. Here the fingerprint only
/// selects a bucket; a hit additionally requires an exact match on the
/// canonical key ([`Residual::canonical_key`]), so collisions cost one
/// extra slice comparison instead of soundness.
#[derive(Debug, Clone, Default)]
struct UnsatCache {
    buckets: HashMap<u128, Vec<Box<[u32]>>>,
    entries: usize,
}

impl UnsatCache {
    /// Whether `key` was previously inserted (under `fingerprint`).
    fn contains(&self, fingerprint: u128, key: &[u32]) -> bool {
        self.buckets
            .get(&fingerprint)
            .is_some_and(|keys| keys.iter().any(|k| **k == *key))
    }

    /// Inserts `key` under `fingerprint`; `false` if it was already present.
    fn insert(&mut self, fingerprint: u128, key: Box<[u32]>) -> bool {
        let bucket = self.buckets.entry(fingerprint).or_default();
        if bucket.iter().any(|k| **k == *key) {
            return false;
        }
        bucket.push(key);
        self.entries += 1;
        true
    }

    /// Number of cached UNSAT sub-formulas (exact keys, not buckets).
    fn len(&self) -> usize {
        self.entries
    }
}

/// Everything one backtracking search carries besides the residual: the
/// ordering, cache, budgets and observers.
struct Search<'a, P: Probe + ?Sized, S: ProofSink + ?Sized> {
    order: Vec<Var>,
    cache: UnsatCache,
    stats: &'a mut SolverStats,
    limits: Limits,
    deadline: Deadline,
    trace: Option<&'a mut Vec<TraceEvent>>,
    probe: &'a mut P,
    sink: &'a mut S,
    /// Decision literals on the current branch (maintained only when the
    /// sink is enabled), for the decision-tree-to-resolution lowering.
    prefix: Vec<Lit>,
}

impl<P: Probe + ?Sized, S: ProofSink + ?Sized> Search<'_, P, S> {
    fn record(&mut self, depth: usize, v: Var, value: bool, outcome: TraceOutcome) {
        if let Some(events) = &mut self.trace {
            events.push(TraceEvent {
                depth,
                var: v,
                value,
                outcome,
            });
        }
    }

    fn cache_sat(&mut self, res: &mut Residual, depth: usize) -> Verdict {
        if res.all_satisfied() || depth == self.order.len() {
            return Verdict::Sat;
        }
        let v = self.order[depth];
        let mut aborted = false;
        for value in [false, true] {
            // Deadline first, before the node is counted: an already-
            // expired deadline must abort with zero decisions on the books.
            self.probe.deadline_check();
            if self.deadline.expired() {
                return Verdict::Aborted;
            }
            self.stats.nodes += 1;
            self.stats.decisions += 1;
            self.probe.decision(depth);
            if let Some(max) = self.limits.max_nodes {
                if self.stats.nodes > max {
                    return Verdict::Aborted;
                }
            }
            let decision = Lit::with_value(v, value);
            res.assign(v, value);
            if res.has_conflict() {
                self.stats.conflicts += 1;
                self.probe.conflict();
                self.record(depth, v, value, TraceOutcome::Conflict);
                if self.sink.enabled() {
                    emit_refutation(self.sink, &self.prefix, Some(decision));
                }
            } else if res.all_satisfied() {
                self.record(depth, v, value, TraceOutcome::Satisfied);
                return Verdict::Sat;
            } else {
                let fingerprint = res.state_fingerprint();
                let key = res.canonical_key();
                // A cache hit serves an UNSAT verdict without a derivation,
                // so under an enabled proof sink the hit-prune branch is
                // skipped: the sub-formula is re-expanded and its refutation
                // re-derived (and emitted). Verdicts are unchanged; only
                // the node counts differ.
                if !self.sink.enabled() && self.cache.contains(fingerprint, &key) {
                    self.stats.cache_hits += 1;
                    self.probe.cache_hit();
                    self.record(depth, v, value, TraceOutcome::CacheHit);
                } else {
                    self.probe.cache_miss();
                    self.record(depth, v, value, TraceOutcome::Expanded);
                    if self.sink.enabled() {
                        self.prefix.push(decision);
                    }
                    let verdict = self.cache_sat(res, depth + 1);
                    if self.sink.enabled() {
                        self.prefix.pop();
                    }
                    match verdict {
                        Verdict::Unsat => {
                            if self.cache.insert(fingerprint, key) {
                                self.probe.cache_insert();
                            }
                        }
                        Verdict::Sat => return Verdict::Sat,
                        Verdict::Aborted => {
                            aborted = true;
                            res.unassign(v);
                            break;
                        }
                    }
                }
            }
            res.unassign(v);
            self.probe.backtrack(depth);
        }
        if aborted {
            Verdict::Aborted
        } else {
            if self.sink.enabled() {
                emit_refutation(self.sink, &self.prefix, None);
            }
            Verdict::Unsat
        }
    }
}

impl CachingBacktracking {
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
                check_order(o, formula.num_vars());
                o.clone()
            }
            None => (0..formula.num_vars()).map(Var::from_index).collect(),
        };
        let mut res = Residual::new(formula);
        self.trace.clear();
        let outcome = if res.has_conflict() {
            // An empty clause is already an axiom; re-deriving it is RUP.
            sink.add_clause(&[]);
            Outcome::Unsat
        } else {
            let mut search = Search {
                order,
                cache: UnsatCache::default(),
                stats: &mut self.stats,
                limits: self.limits,
                deadline: Deadline::start(&self.limits),
                trace: self.tracing.then_some(&mut self.trace),
                probe: &mut *probe,
                sink: &mut *sink,
                prefix: Vec::new(),
            };
            let verdict = search.cache_sat(&mut res, 0);
            search.stats.cache_entries = search.cache.len() as u64;
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

impl Solver for CachingBacktracking {
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
        "caching-backtracking"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimpleBacktracking;
    use atpg_easy_cnf::Lit;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_value(Var::from_index(i), pos)
    }

    /// The paper's Formula 4.1 (Figure 4(a) CIRCUIT-SAT instance), with the
    /// variable order A = (b, c, f, a, h, d, e, g, i) used in Figure 5.
    /// Variables: b=0 c=1 f=2 a=3 h=4 d=5 e=6 g=7 i=8.
    fn formula_41() -> (CnfFormula, Vec<Var>) {
        let (b, c, f, a, h, d, e, g, i) = (0, 1, 2, 3, 4, 5, 6, 7, 8);
        let mut cnf = CnfFormula::new(9);
        // f = OR(!b, c): (b + f)(c̄ + f)(b̄ + c + f̄) — a polarity variant of
        // the paper's first gate; structure and clause counts match.
        cnf.add_clause(vec![lit(b, true), lit(f, true)]);
        cnf.add_clause(vec![lit(c, false), lit(f, true)]);
        cnf.add_clause(vec![lit(b, false), lit(c, true), lit(f, false)]);
        // g = NAND(d, e): (d + g)(e + g)(d̄ + ē + ḡ)
        cnf.add_clause(vec![lit(d, true), lit(g, true)]);
        cnf.add_clause(vec![lit(e, true), lit(g, true)]);
        cnf.add_clause(vec![lit(d, false), lit(e, false), lit(g, false)]);
        // h = AND(a, f): (a + h̄)(f + h̄)(ā + f̄ + h)
        cnf.add_clause(vec![lit(a, true), lit(h, false)]);
        cnf.add_clause(vec![lit(f, true), lit(h, false)]);
        cnf.add_clause(vec![lit(a, false), lit(f, false), lit(h, true)]);
        // i = AND(h, g): (h + ī)(g + ī)(h̄ + ḡ + i)
        cnf.add_clause(vec![lit(h, true), lit(i, false)]);
        cnf.add_clause(vec![lit(g, true), lit(i, false)]);
        cnf.add_clause(vec![lit(h, false), lit(g, false), lit(i, true)]);
        // output: (i)
        cnf.add_clause(vec![lit(i, true)]);
        let order = [b, c, f, a, h, d, e, g, i]
            .into_iter()
            .map(Var::from_index)
            .collect();
        (cnf, order)
    }

    #[test]
    fn formula_41_is_sat_and_model_checks() {
        let (f, order) = formula_41();
        let sol = CachingBacktracking::new().with_order(order).solve(&f);
        let model = sol.outcome.model().expect("Formula 4.1 is satisfiable");
        assert!(f.eval_complete(model));
    }

    #[test]
    fn cache_prunes_on_unsat_instance() {
        // Make Formula 4.1 UNSAT by also requiring h false and f true and
        // a true (h = AND(a, f) forces h true: contradiction).
        let (mut f, order) = formula_41();
        f.add_clause(vec![lit(4, false)]); // !h
        f.add_clause(vec![lit(2, true)]); // f
        f.add_clause(vec![lit(3, true)]); // a
        let simple = SimpleBacktracking::new()
            .with_order(order.clone())
            .solve(&f);
        let cached = CachingBacktracking::new().with_order(order).solve(&f);
        assert!(simple.outcome.is_unsat());
        assert!(cached.outcome.is_unsat());
        assert!(cached.stats.nodes <= simple.stats.nodes);
    }

    #[test]
    fn cache_hits_occur_on_shared_subformulas() {
        // Chain of disconnected UNSAT blocks forces the same residual
        // sub-formula to appear under many prefixes.
        //   block: (x ∨ y)(¬x ∨ y)(x ∨ ¬y)(¬x ∨ ¬y)  over trailing vars,
        //   with irrelevant leading variables z0..z3.
        let mut f = CnfFormula::new(6);
        for (a, b) in [(true, true), (false, true), (true, false), (false, false)] {
            f.add_clause(vec![lit(4, a), lit(5, b)]);
        }
        let sol = CachingBacktracking::new().solve(&f);
        assert!(sol.outcome.is_unsat());
        assert!(sol.stats.cache_hits > 0, "{:?}", sol.stats);
        assert!(sol.stats.cache_entries > 0);
        // Simple backtracking explores the UNSAT block once per prefix.
        let simple = SimpleBacktracking::new().solve(&f);
        assert!(sol.stats.nodes < simple.stats.nodes);
    }

    #[test]
    fn budget_aborts() {
        let mut f = CnfFormula::new(20);
        // Unsatisfiable parity-ish instance that needs deep search.
        for i in 0..19 {
            f.add_clause(vec![lit(i, true), lit(i + 1, true)]);
            f.add_clause(vec![lit(i, false), lit(i + 1, false)]);
        }
        f.add_clause(vec![lit(0, true)]);
        f.add_clause(vec![lit(19, true)]);
        let sol = CachingBacktracking::new()
            .with_limits(Limits::nodes(3))
            .solve(&f);
        assert_eq!(sol.outcome, Outcome::Aborted);
    }

    #[test]
    fn empty_formula_sat() {
        let f = CnfFormula::new(0);
        assert!(CachingBacktracking::new().solve(&f).outcome.is_sat());
    }

    #[test]
    fn trace_records_the_tree() {
        let (f, order) = formula_41();
        let mut solver = CachingBacktracking::new().with_order(order).with_trace();
        let sol = solver.solve(&f);
        assert!(sol.outcome.is_sat());
        let trace = solver.trace();
        assert_eq!(trace.len() as u64, sol.stats.nodes, "one event per node");
        let hits = trace
            .iter()
            .filter(|e| e.outcome == crate::TraceOutcome::CacheHit)
            .count() as u64;
        assert_eq!(hits, sol.stats.cache_hits);
        assert!(trace
            .iter()
            .any(|e| e.outcome == crate::TraceOutcome::Satisfied));
        let rendered = crate::render_trace(trace);
        assert!(rendered.contains("SAT"), "{rendered}");
        assert!(rendered.lines().count() == trace.len());
    }

    #[test]
    fn forced_fingerprint_collision_is_not_a_hit() {
        // Two different residual clause sets filed under the SAME forced
        // fingerprint — the exact situation where the old HashSet<u128>
        // cache answered a wrong UNSAT. The canonical keys must keep the
        // entries apart.
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        let key_a = Residual::new(&f).canonical_key();
        let mut g = CnfFormula::new(2);
        g.add_clause(vec![lit(0, false), lit(1, false)]);
        let key_b = Residual::new(&g).canonical_key();
        assert_ne!(key_a, key_b, "test needs two distinct residuals");

        let forced_fp: u128 = 0xDEAD_BEEF;
        let mut cache = UnsatCache::default();
        assert!(cache.insert(forced_fp, key_a.clone()));
        assert!(cache.contains(forced_fp, &key_a));
        assert!(
            !cache.contains(forced_fp, &key_b),
            "a fingerprint collision must not report a cache hit"
        );
        assert!(
            cache.insert(forced_fp, key_b.clone()),
            "colliding key coexists"
        );
        assert!(cache.contains(forced_fp, &key_b));
        assert_eq!(cache.len(), 2, "both residuals cached under one bucket");
        assert!(!cache.insert(forced_fp, key_a), "re-insert is idempotent");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn tracing_off_by_default() {
        let (f, _) = formula_41();
        let mut solver = CachingBacktracking::new();
        solver.solve(&f);
        assert!(solver.trace().is_empty());
    }
}
