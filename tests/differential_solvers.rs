//! Differential testing across the whole solver stack: on the same
//! instance, all four solvers must return the same SAT/UNSAT verdict, and
//! every verdict must carry a certificate that the independent
//! `atpg-easy-proof` checker accepts — SAT models are re-evaluated
//! against the DIMACS clauses, UNSAT runs must stream a DRAT refutation
//! that survives step-by-step RUP checking and ends in the empty clause.
//!
//! Two instance sources, matching the two ways the workspace reaches the
//! solvers: raw random CNF (checked against a brute-force oracle, so a
//! *unanimous wrong* answer is also caught), and ATPG miters of random
//! faults on random circuits from `circuits::random` — structurally the
//! instances the campaign engine emits, with plenty of Tseitin structure
//! the uniform-random CNF strategy never produces.

use atpg_easy::atpg::campaign::FaultOutcome;
use atpg_easy::atpg::{fault, miter, AtpgConfig, IncrementalAtpg};
use atpg_easy::circuits::random::{self, RandomCircuitConfig};
use atpg_easy::cnf::{circuit, CnfFormula, Lit, Var};
use atpg_easy::netlist::decompose;
use atpg_easy::proof::{model_satisfies, Checker};
use atpg_easy::sat::{
    CachingBacktracking, Cdcl, Dpll, DratProof, IncrementalCdcl, NoProbe, Outcome,
    SimpleBacktracking, Solver,
};
use proptest::prelude::*;

fn all_solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(SimpleBacktracking::new()),
        Box::new(CachingBacktracking::new()),
        Box::new(Dpll::new()),
        Box::new(Cdcl::new()),
    ]
}

/// The formula's clauses in DIMACS literal convention, as the
/// solver-independent proof crate consumes them.
fn dimacs_clauses(f: &CnfFormula) -> Vec<Vec<i64>> {
    f.clauses()
        .map(|c| c.iter().map(|l| l.to_dimacs()).collect())
        .collect()
}

/// Replays a streamed DRAT refutation of `f` through the independent
/// checker: every addition must be RUP over the active database, every
/// deletion must name an active clause, and the empty clause must appear.
fn check_refutation(f: &CnfFormula, proof: &DratProof, solver: &str) {
    let mut checker = Checker::new();
    for clause in &dimacs_clauses(f) {
        checker
            .add_axiom(clause)
            .unwrap_or_else(|e| panic!("{solver}: bad axiom: {e}"));
    }
    for step in proof.steps() {
        if step.delete {
            checker
                .check_delete(&step.lits)
                .unwrap_or_else(|e| panic!("{solver}: proof deletion rejected: {e}"));
        } else {
            checker
                .check_and_add(&step.lits)
                .unwrap_or_else(|e| panic!("{solver}: proof step rejected: {e}"));
        }
    }
    assert!(
        checker.has_empty(),
        "{solver}: UNSAT verdict without an empty-clause derivation"
    );
}

/// Solves `f` with every solver under proof logging; asserts agreement
/// and that every verdict certifies (SAT: the model satisfies the DIMACS
/// clauses; UNSAT: the DRAT stream RUP-checks to the empty clause);
/// returns the unanimous verdict.
fn differential_verdict(f: &CnfFormula) -> bool {
    let mut verdicts = Vec::new();
    for mut s in all_solvers() {
        let mut proof = DratProof::new();
        match s.solve_certified(f, &mut NoProbe, &mut proof).outcome {
            Outcome::Sat(model) => {
                assert!(
                    f.eval_complete(&model),
                    "{} returned a non-satisfying model",
                    s.name()
                );
                model_satisfies(&dimacs_clauses(f), &[], &model)
                    .unwrap_or_else(|e| panic!("{}: model fails the auditor: {e}", s.name()));
                verdicts.push((s.name(), true));
            }
            Outcome::Unsat => {
                check_refutation(f, &proof, s.name());
                verdicts.push((s.name(), false));
            }
            Outcome::Aborted => panic!("{} aborted without limits", s.name()),
        }
    }
    let first = verdicts[0].1;
    for (name, v) in &verdicts {
        assert_eq!(*v, first, "{} disagrees with {}", name, verdicts[0].0);
    }
    first
}

fn clause_strategy(vars: usize, max_len: usize) -> impl Strategy<Value = Vec<Lit>> {
    prop::collection::vec((0..vars, any::<bool>()), 1..=max_len).prop_map(|lits| {
        lits.into_iter()
            .map(|(v, pos)| Lit::with_value(Var::from_index(v), pos))
            .collect()
    })
}

fn formula_strategy() -> impl Strategy<Value = CnfFormula> {
    (2usize..10).prop_flat_map(|vars| {
        prop::collection::vec(clause_strategy(vars, 3), 0..28).prop_map(move |clauses| {
            let mut f = CnfFormula::new(vars);
            for c in clauses {
                f.add_clause(c);
            }
            f
        })
    })
}

fn brute_force(f: &CnfFormula) -> bool {
    let n = f.num_vars();
    (0u32..(1 << n)).any(|m| {
        let assign: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
        f.eval_complete(&assign)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_cnf_verdicts_match_brute_force(f in formula_strategy()) {
        let verdict = differential_verdict(&f);
        prop_assert_eq!(verdict, brute_force(&f), "unanimous but wrong verdict");
    }

    #[test]
    fn random_circuit_miters_agree(
        gates in 8usize..40,
        inputs in 3usize..8,
        seed in 0u64..1024,
        fault_pick in any::<u64>(),
    ) {
        let nl = random::generate(&RandomCircuitConfig {
            gates,
            inputs,
            seed,
            ..Default::default()
        })
        .expect("random config is valid");
        let nl = decompose::decompose(&nl, 3).expect("decomposes");
        let faults = fault::collapse(&nl);
        assert!(!faults.is_empty(), "every gate yields collapsed faults");
        let f = faults[(fault_pick % faults.len() as u64) as usize];
        let m = miter::build(&nl, f);
        let enc = circuit::encode(&m.circuit).expect("miter encodes");
        differential_verdict(&enc.formula);
    }

    /// One warm `IncrementalCdcl` is fed a random base formula and a
    /// sequence of clause groups, each guarded by its own activation
    /// literal and solved under that single (disjoint) assumption. Every
    /// verdict must match a fresh CDCL *and* the DPLL oracle on the
    /// equivalent unguarded formula — if a clause learnt for one group
    /// leaks unsoundly into a later one, the warm solver over-reports
    /// UNSAT and this test catches it.
    #[test]
    fn warm_solve_assuming_matches_fresh_cdcl_and_dpll(
        base in formula_strategy(),
        groups in prop::collection::vec(
            prop::collection::vec(clause_strategy(8, 3), 1..6), 1..6),
    ) {
        let mut warm = IncrementalCdcl::new(base.num_vars());
        warm.add_formula(&base);
        // Group clauses draw from vars 0..8; reserve that range so the
        // activation variables below never collide with problem vars.
        warm.grow_to(8);
        for group in &groups {
            let act = warm.new_var();
            for clause in group {
                let mut guarded = vec![Lit::negative(act)];
                guarded.extend_from_slice(clause);
                warm.add_clause(guarded);
            }
            let warm_sat = match warm.solve_assuming(&[Lit::positive(act)]).outcome {
                Outcome::Sat(model) => {
                    prop_assert!(base.eval_complete(&model[..base.num_vars()]),
                        "warm model violates the base formula");
                    for clause in group {
                        prop_assert!(
                            clause.iter().any(|l| model[l.var().index()] == l.asserted_value()),
                            "warm model violates a group clause"
                        );
                    }
                    true
                }
                Outcome::Unsat => false,
                Outcome::Aborted => panic!("no limits set"),
            };
            // Oracle: base + this group's clauses, unguarded.
            let vars = warm.num_vars();
            let mut oracle = CnfFormula::new(vars);
            for clause in base.clauses() {
                oracle.add_clause(clause.to_vec());
            }
            for clause in group {
                oracle.add_clause(clause.clone());
            }
            let fresh_sat = Cdcl::new().solve(&oracle).outcome.is_sat();
            let dpll_sat = Dpll::new().solve(&oracle).outcome.is_sat();
            prop_assert_eq!(fresh_sat, dpll_sat, "fresh CDCL disagrees with DPLL");
            prop_assert_eq!(warm_sat, fresh_sat,
                "warm solve_assuming disagrees with from-scratch solvers \
                 (retained learnt clauses are unsound)");
            // Retire the group before the next disjoint assumption set.
            warm.add_clause(vec![Lit::negative(act)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The warm incremental ATPG engine, solving every collapsed fault of
    /// a random circuit in sequence (maximum learnt-clause carry-over),
    /// must reach the verdict of the from-scratch miter path — checked
    /// against fresh CDCL and the DPLL oracle per fault.
    #[test]
    fn warm_incremental_atpg_matches_miter_verdicts(
        gates in 8usize..32,
        inputs in 3usize..8,
        seed in 0u64..1024,
    ) {
        let nl = random::generate(&RandomCircuitConfig {
            gates,
            inputs,
            seed,
            ..Default::default()
        })
        .expect("random config is valid");
        let nl = decompose::decompose(&nl, 3).expect("decomposes");
        let config = AtpgConfig::default();
        let mut warm = IncrementalAtpg::new(&nl, &config);
        for f in fault::collapse(&nl) {
            let record = warm.solve_fault(f, &config, None);
            let warm_sat = matches!(record.outcome, FaultOutcome::Detected(_));
            let m = miter::build(&nl, f);
            let enc = circuit::encode(&m.circuit).expect("miter encodes");
            let fresh_sat = Cdcl::new().solve(&enc.formula).outcome.is_sat();
            let dpll_sat = Dpll::new().solve(&enc.formula).outcome.is_sat();
            prop_assert_eq!(fresh_sat, dpll_sat, "fresh CDCL disagrees with DPLL");
            prop_assert_eq!(warm_sat, fresh_sat,
                "warm ATPG verdict diverges from the miter path on {}",
                f.describe(&nl));
        }
    }
}
