//! SAT solvers for the *atpg-easy* reproduction of "Why is ATPG Easy?".
//!
//! Four solvers over [`atpg_easy_cnf::CnfFormula`]:
//!
//! - [`SimpleBacktracking`]: fixed-order chronological backtracking — the
//!   baseline the paper's Algorithm 1 augments.
//! - [`CachingBacktracking`]: **the paper's Algorithm 1**: simple
//!   backtracking with a cache of UNSAT sub-formulas, keyed by the residual
//!   clause *set* (footnote 2 of the paper: two sub-formulas are identical
//!   iff they have the same set of clauses). Theorem 4.1 bounds this
//!   solver's node count by `n · 2^(2·k_fo·W(C,h))`.
//! - [`Dpll`]: DPLL with unit propagation, the classic improvement.
//! - [`Cdcl`]: conflict-driven clause learning with watched literals,
//!   1UIP learning, VSIDS, phase saving and Luby restarts — the stand-in
//!   for the tuned solver inside TEGUS used for the Figure-1 experiment.
//!
//! All solvers implement [`Solver`], report machine-independent work
//! counters in [`SolverStats`], and respect a node/conflict [`Limits`]
//! budget so experiment harnesses can bound worst-case instances.
//!
//! # Example
//!
//! ```
//! use atpg_easy_cnf::{CnfFormula, Lit, Var};
//! use atpg_easy_sat::{Cdcl, Outcome, Solver};
//!
//! let mut f = CnfFormula::new(2);
//! let (a, b) = (Var::from_index(0), Var::from_index(1));
//! f.add_clause(vec![Lit::positive(a), Lit::positive(b)]);
//! f.add_clause(vec![Lit::negative(a)]);
//! let solution = Cdcl::new().solve(&f);
//! match solution.outcome {
//!     Outcome::Sat(model) => assert!(model[b.index()]),
//!     _ => panic!("satisfiable"),
//! }
//! ```

#![forbid(unsafe_code)]

mod caching;
mod cdcl;
mod dpll;
mod proof;
mod result;
mod simple;

pub use caching::{render_trace, CachingBacktracking, TraceEvent, TraceOutcome};
pub use cdcl::{Cdcl, IncrementalCdcl};
pub use dpll::Dpll;
pub use proof::{DratProof, NoProof, ProofSink, ProofStep};
pub use result::{Deadline, Limits, Outcome, Solution, SolverStats};
pub use simple::SimpleBacktracking;

// Re-exported so downstream crates can probe solvers without naming the
// obs crate separately.
pub use atpg_easy_obs::{Counters, CountingProbe, NoProbe, Probe, ProbeOutcome};

use atpg_easy_cnf::CnfFormula;

/// Common interface for all solvers.
///
/// `Send` is a supertrait so `Box<dyn Solver>` can be owned by worker
/// threads in parallel campaign engines; every solver here is plain owned
/// data, so the bound is free.
///
/// Each solver implements both entry points through one internal body
/// generic over `P: Probe + ?Sized`: [`Solver::solve`] instantiates it at
/// [`NoProbe`] (a zero-sized type whose event methods are empty, so the
/// calls monomorphize away — the `probe` bench guards this), while
/// [`Solver::solve_probed`] instantiates it at `dyn Probe` and pays one
/// virtual call per event only when someone is listening.
pub trait Solver: Send {
    /// Decides satisfiability of `formula` with no observer attached.
    fn solve(&mut self, formula: &CnfFormula) -> Solution;

    /// Decides satisfiability of `formula`, streaming typed events
    /// (decisions, conflicts, cache traffic, instance begin/end) into
    /// `probe`.
    fn solve_probed(&mut self, formula: &CnfFormula, probe: &mut dyn Probe) -> Solution;

    /// Decides satisfiability of `formula` with both a probe and a
    /// proof sink attached: derived clauses, deletions and the SAT
    /// model stream into `sink` so an independent checker (the `proof`
    /// crate) can re-derive the verdict. Pass [`NoProbe`]/[`NoProof`]
    /// to disable either half.
    fn solve_certified(
        &mut self,
        formula: &CnfFormula,
        probe: &mut dyn Probe,
        sink: &mut dyn ProofSink,
    ) -> Solution;

    /// Replaces the resource budget of every later solve. A solver kept
    /// across instances takes a tighter budget this way without being
    /// rebuilt.
    fn set_limits(&mut self, limits: Limits);

    /// Work counters of the most recent `solve`/`solve_probed` call on
    /// this instance. Counters are reset at the start of every solve, so
    /// a reused solver never leaks effort across calls.
    fn stats(&self) -> SolverStats;

    /// A short, stable identifier for reports.
    fn name(&self) -> &'static str;
}

/// Maps a solve outcome to its probe-level summary.
pub(crate) fn probe_outcome(outcome: &Outcome) -> ProbeOutcome {
    match outcome {
        Outcome::Sat(_) => ProbeOutcome::Sat,
        Outcome::Unsat => ProbeOutcome::Unsat,
        Outcome::Aborted => ProbeOutcome::Aborted,
    }
}

#[cfg(test)]
mod cross_tests {
    use super::*;
    use atpg_easy_cnf::{Lit, Var};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_formula(rng: &mut StdRng, vars: usize, clauses: usize, k: usize) -> CnfFormula {
        let mut f = CnfFormula::new(vars);
        for _ in 0..clauses {
            let len = rng.random_range(1..=k);
            let clause: Vec<Lit> = (0..len)
                .map(|_| {
                    Lit::with_value(
                        Var::from_index(rng.random_range(0..vars)),
                        rng.random_bool(0.5),
                    )
                })
                .collect();
            f.add_clause(clause);
        }
        f
    }

    fn brute_force(f: &CnfFormula) -> bool {
        let n = f.num_vars();
        assert!(n <= 16);
        (0u32..(1 << n)).any(|m| {
            let assign: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
            f.eval_complete(&assign)
        })
    }

    #[test]
    fn all_solvers_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(0xA7B6);
        for round in 0..120 {
            let vars = 3 + round % 8;
            let clauses = 2 + (round * 7) % 24;
            let f = random_formula(&mut rng, vars, clauses, 3);
            let expect = brute_force(&f);
            let solvers: Vec<Box<dyn Solver>> = vec![
                Box::new(SimpleBacktracking::new()),
                Box::new(CachingBacktracking::new()),
                Box::new(Dpll::new()),
                Box::new(Cdcl::new()),
            ];
            for mut s in solvers {
                let sol = s.solve(&f);
                match sol.outcome {
                    Outcome::Sat(model) => {
                        assert!(expect, "{} claimed SAT on UNSAT (round {round})", s.name());
                        assert!(
                            f.eval_complete(&model),
                            "{} returned a non-model (round {round})",
                            s.name()
                        );
                    }
                    Outcome::Unsat => {
                        assert!(!expect, "{} claimed UNSAT on SAT (round {round})", s.name());
                    }
                    Outcome::Aborted => panic!("no limits were set (round {round})"),
                }
            }
        }
    }

    #[test]
    fn wall_deadline_aborts_all_solvers() {
        // PHP(10,9): hard enough that no solver could finish before its
        // first deadline tick — and the first tick always reads the
        // clock, so a zero deadline aborts before any decision.
        let n_p = 10;
        let n_h = 9;
        let v = |i: usize, j: usize, pos: bool| Lit::with_value(Var::from_index(i * n_h + j), pos);
        let mut f = CnfFormula::new(n_p * n_h);
        for i in 0..n_p {
            f.add_clause((0..n_h).map(|j| v(i, j, true)).collect());
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    f.add_clause(vec![v(i1, j, false), v(i2, j, false)]);
                }
            }
        }
        let limits = Limits::wall(std::time::Duration::ZERO);
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(SimpleBacktracking::new().with_limits(limits)),
            Box::new(CachingBacktracking::new().with_limits(limits)),
            Box::new(Dpll::new().with_limits(limits)),
            Box::new(Cdcl::new().with_limits(limits)),
        ];
        for mut s in solvers {
            let sol = s.solve(&f);
            assert_eq!(
                sol.outcome,
                Outcome::Aborted,
                "{} must abort on an already-expired deadline",
                s.name()
            );
            // The first deadline tick reads the clock, so an
            // already-expired deadline grants zero free decisions — no
            // amortization window before the first check.
            assert_eq!(
                sol.stats.decisions,
                0,
                "{} made decisions past an expired deadline",
                s.name()
            );
        }
    }

    /// Regression: a reused solver must reset its stats counters between
    /// `solve()` calls — the second solve of the same formula must report
    /// exactly what a fresh solver reports, not the running total, and
    /// the `stats()` accessor must agree with the returned solution.
    #[test]
    fn reused_solver_resets_stats_between_solves() {
        // PHP(4,3): UNSAT and forces real search work out of every solver.
        let n_p = 4;
        let n_h = 3;
        let v = |i: usize, j: usize, pos: bool| Lit::with_value(Var::from_index(i * n_h + j), pos);
        let mut f = CnfFormula::new(n_p * n_h);
        for i in 0..n_p {
            f.add_clause((0..n_h).map(|j| v(i, j, true)).collect());
        }
        for j in 0..n_h {
            for i1 in 0..n_p {
                for i2 in i1 + 1..n_p {
                    f.add_clause(vec![v(i1, j, false), v(i2, j, false)]);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let g = random_formula(&mut rng, 7, 18, 3);
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(SimpleBacktracking::new()),
            Box::new(CachingBacktracking::new()),
            Box::new(Dpll::new()),
            Box::new(Cdcl::new()),
        ];
        for mut reused in solvers {
            let fresh_f = reused.solve(&f).stats;
            assert!(
                fresh_f.nodes + fresh_f.propagations > 0,
                "{}: trivial fixture",
                reused.name()
            );
            // Interleave another formula, then re-solve the first.
            let _ = reused.solve(&g);
            let again = reused.solve(&f);
            assert_eq!(
                again.stats,
                fresh_f,
                "{}: stats leaked across solve() calls on a reused solver",
                reused.name()
            );
            assert_eq!(
                reused.stats(),
                again.stats,
                "{}: stats() accessor out of sync with last solution",
                reused.name()
            );
        }
    }

    /// The probe stream must agree with the legacy stats counters on
    /// every solver, and the un-probed path must report identical work.
    #[test]
    fn probe_counters_match_stats_on_all_solvers() {
        use atpg_easy_obs::CountingProbe;
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for round in 0..20 {
            let vars = 4 + round % 6;
            let clauses = 6 + (round * 5) % 20;
            let f = random_formula(&mut rng, vars, clauses, 3);
            let solvers: Vec<Box<dyn Solver>> = vec![
                Box::new(SimpleBacktracking::new()),
                Box::new(CachingBacktracking::new()),
                Box::new(Dpll::new()),
                Box::new(Cdcl::new()),
            ];
            for mut s in solvers {
                let plain = s.solve(&f);
                let mut probe = CountingProbe::new();
                let probed = s.solve_probed(&f, &mut probe);
                assert_eq!(plain.outcome, probed.outcome, "{}", s.name());
                assert_eq!(plain.stats, probed.stats, "{}", s.name());
                assert_eq!(probe.vars, f.num_vars(), "{}", s.name());
                assert_eq!(probe.clauses, f.num_clauses(), "{}", s.name());
                assert_eq!(
                    probe.outcome.map(|o| o.label()),
                    Some(match &probed.outcome {
                        Outcome::Sat(_) => "sat",
                        Outcome::Unsat => "unsat",
                        Outcome::Aborted => "aborted",
                    }),
                    "{}",
                    s.name()
                );
                let c = probe.counters;
                assert_eq!(c.decisions, probed.stats.decisions, "{}", s.name());
                assert_eq!(c.propagations, probed.stats.propagations, "{}", s.name());
                assert_eq!(c.conflicts, probed.stats.conflicts, "{}", s.name());
                assert_eq!(c.cache_hits, probed.stats.cache_hits, "{}", s.name());
                assert_eq!(c.cache_inserts, probed.stats.cache_entries, "{}", s.name());
                // `learnt_clauses` counts clauses resident at the end
                // (units are never attached, reduce_db deletes), so the
                // event count only bounds it.
                assert!(c.learned >= probed.stats.learnt_clauses, "{}", s.name());
                assert_eq!(c.restarts, probed.stats.restarts, "{}", s.name());
            }
        }
    }

    /// Differential check for the incremental front-end: one warm
    /// [`IncrementalCdcl`] instance, reused across many random formulas
    /// layered as activation-guarded clause groups, must agree with a
    /// from-scratch [`Cdcl`] and a [`Dpll`] oracle on every query —
    /// including queries under disjoint assumption sets, which exercise
    /// the soundness of learnt clauses retained from earlier solves.
    #[test]
    fn incremental_agrees_with_fresh_cdcl_and_dpll_oracle() {
        let mut rng = StdRng::seed_from_u64(0x1C4E);
        let vars = 8;
        let base = random_formula(&mut rng, vars, 12, 3);
        let mut warm = IncrementalCdcl::new(vars);
        assert!(warm.add_formula(&base));
        let sat = |model: &[bool], clause: &[Lit]| {
            clause
                .iter()
                .any(|l| model[l.var().index()] == l.asserted_value())
        };
        for round in 0..30 {
            // A fresh activation-guarded clause group per round; earlier
            // groups stay in the database but deactivate because their
            // activation variables are free under this round's
            // assumptions — exactly the per-fault encoding discipline.
            let act = warm.new_var();
            let group = random_formula(&mut rng, vars, 4 + round % 5, 3);
            for clause in group.clauses() {
                let mut guarded = vec![Lit::negative(act)];
                guarded.extend_from_slice(clause);
                assert!(warm.add_clause(guarded));
            }
            // Oracle formula: base ∧ group, unguarded.
            let mut oracle_f = base.clone();
            for clause in group.clauses() {
                oracle_f.add_lits(clause.iter().copied());
            }
            let extra = Lit::with_value(
                Var::from_index(rng.random_range(0..vars)),
                rng.random_bool(0.5),
            );
            for assumptions in [vec![Lit::positive(act)], vec![Lit::positive(act), extra]] {
                let mut query_f = oracle_f.clone();
                if assumptions.len() == 2 {
                    query_f.add_clause(vec![extra]);
                }
                let warm_sol = warm.solve_assuming(&assumptions);
                let fresh = Cdcl::new().solve(&query_f);
                let oracle = Dpll::new().solve(&query_f);
                assert_eq!(
                    fresh.outcome.is_sat(),
                    oracle.outcome.is_sat(),
                    "fresh CDCL vs DPLL oracle disagree (round {round})"
                );
                match &warm_sol.outcome {
                    Outcome::Sat(model) => {
                        assert!(
                            oracle.outcome.is_sat(),
                            "warm claimed SAT on UNSAT (round {round})"
                        );
                        for clause in base.clauses().chain(group.clauses()) {
                            assert!(sat(model, clause), "warm model violates a clause");
                        }
                        for a in &assumptions {
                            assert!(
                                model[a.var().index()] == a.asserted_value(),
                                "warm model violates an assumption (round {round})"
                            );
                        }
                    }
                    Outcome::Unsat => {
                        assert!(
                            !oracle.outcome.is_sat(),
                            "warm claimed UNSAT on SAT (round {round}); retained learnt \
                             clauses are unsound"
                        );
                    }
                    Outcome::Aborted => panic!("no limits were set (round {round})"),
                }
            }
        }
    }

    #[test]
    fn caching_never_explores_more_than_simple() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let f = random_formula(&mut rng, 8, 20, 3);
            let simple = SimpleBacktracking::new().solve(&f);
            let cached = CachingBacktracking::new().solve(&f);
            assert!(
                cached.stats.nodes <= simple.stats.nodes,
                "cache pruning can only shrink the tree: {} vs {}",
                cached.stats.nodes,
                simple.stats.nodes
            );
        }
    }
}
