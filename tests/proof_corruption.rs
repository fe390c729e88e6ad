//! Adversarial tests for the independent proof auditor: take proof
//! streams that certify cleanly, hand-corrupt them, and require the
//! audit to reject every mutation. A checker that cannot tell a damaged
//! proof from a valid one certifies nothing, so each corruption class
//! the ISSUE names is exercised under proptest randomization:
//!
//! - **dropped proof step** — the derivation that discharges an UNSAT
//!   verdict is removed, leaving the claim without a certificate;
//! - **reordered deletion** — a clause is deleted *before* the step that
//!   derives it, so the deletion names a clause that is not active;
//! - **flipped literal** — one literal of the culminating derivation is
//!   negated, so the step is no longer RUP (and no longer covers the
//!   failing assumptions);
//! - **falsified model** — a SAT verdict's claimed model is mutated to
//!   falsify an axiom.
//!
//! The streams are produced by the real certified solver paths (a warm
//! [`IncrementalCdcl`] under a contradictory activation assumption, and
//! a from-scratch [`Cdcl`] SAT solve), so the corruptions land on
//! exactly the artifacts campaigns emit.

use atpg_easy::atpg::StreamSink;
use atpg_easy::cnf::{CnfFormula, Lit, Var};
use atpg_easy::proof::{audit_stream, Event};
use atpg_easy::sat::{Cdcl, IncrementalCdcl, NoProbe, Outcome, Solver};
use proptest::prelude::*;

/// Random clauses over `vars` variables, each patched to contain at
/// least one positive literal so the all-true assignment satisfies the
/// whole formula: the corruption scenarios need a satisfiable base (the
/// UNSAT verdict must hinge on the activation assumption, and the SAT
/// scenario needs a model to falsify).
fn satisfiable_formula() -> impl Strategy<Value = CnfFormula> {
    (2usize..8).prop_flat_map(|vars| {
        prop::collection::vec(
            prop::collection::vec((0..vars, any::<bool>()), 1..=3),
            1..16,
        )
        .prop_map(move |clauses| {
            let mut f = CnfFormula::new(vars);
            for lits in clauses {
                let mut clause: Vec<Lit> = lits
                    .into_iter()
                    .map(|(v, pos)| Lit::with_value(Var::from_index(v), pos))
                    .collect();
                if clause.iter().all(|l| !l.asserted_value()) {
                    clause[0] = Lit::positive(clause[0].var());
                }
                f.add_clause(clause);
            }
            f
        })
    })
}

fn lit_set(lits: &[i64]) -> Vec<i64> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Solves `base ∧ act ⇒ (x ∧ ¬x)` under the assumption `act` through the
/// certified warm path: the verdict is UNSAT with failing subset
/// `{¬act}`, and the returned stream certifies cleanly. Also returns the
/// DIMACS literal for `act`.
fn certified_unsat_events(base: &CnfFormula, x_index: usize) -> (Vec<Event>, i64) {
    let mut solver = IncrementalCdcl::new(base.num_vars());
    solver.add_formula(base);
    let act = solver.new_var();
    let x = Var::from_index(x_index % base.num_vars());

    let mut sink = StreamSink::new();
    sink.reset();
    for clause in base.clauses() {
        sink.axiom(clause);
    }
    for guarded in [
        vec![Lit::negative(act), Lit::positive(x)],
        vec![Lit::negative(act), Lit::negative(x)],
    ] {
        sink.axiom(&guarded);
        solver.add_clause(guarded);
    }
    let assumptions = [Lit::positive(act)];
    sink.begin_solve(0, &assumptions);
    let sol = solver.solve_assuming_certified(&assumptions, &mut NoProbe, &mut sink);
    sink.end_solve(&sol.outcome);
    assert!(
        matches!(sol.outcome, Outcome::Unsat),
        "activation forces x ∧ ¬x"
    );
    (sink.into_events(), Lit::positive(act).to_dimacs())
}

/// A certified from-scratch SAT solve of the (satisfiable) base.
fn certified_sat_events(base: &CnfFormula) -> Vec<Event> {
    let mut sink = StreamSink::new();
    sink.reset();
    for clause in base.clauses() {
        sink.axiom(clause);
    }
    sink.begin_solve(0, &[]);
    let sol = Cdcl::new().solve_certified(base, &mut NoProbe, &mut sink);
    sink.end_solve(&sol.outcome);
    assert!(sol.outcome.is_sat(), "base is satisfiable by construction");
    sink.into_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Baseline: the uncorrupted streams certify — otherwise the
    /// corruption tests below would pass vacuously.
    #[test]
    fn uncorrupted_streams_certify(base in satisfiable_formula(), x in any::<usize>()) {
        let (events, _) = certified_unsat_events(&base, x);
        let audit = audit_stream(&events);
        prop_assert!(audit.ok(), "valid UNSAT stream rejected: {audit:?}");
        prop_assert_eq!(audit.certified(), 1);

        let audit = audit_stream(&certified_sat_events(&base));
        prop_assert!(audit.ok(), "valid SAT stream rejected: {audit:?}");
        prop_assert_eq!(audit.certified(), 1);
    }

    /// Dropping the derivation(s) that discharge the failing assumption
    /// leaves an UNSAT claim with no empty clause and no covering final
    /// derive — the audit must mark the instance failed, never certified.
    #[test]
    fn dropped_proof_step_is_rejected(base in satisfiable_formula(), x in any::<usize>()) {
        let (events, act) = certified_unsat_events(&base, x);
        let covering = lit_set(&[-act]);
        let corrupted: Vec<Event> = events
            .into_iter()
            .filter(|e| !matches!(e, Event::Derive(lits) if lit_set(lits) == covering))
            .collect();
        let audit = audit_stream(&corrupted);
        prop_assert_eq!(audit.failed(), 1, "dropped step not caught: {:?}", audit);
        prop_assert_eq!(audit.certified(), 0);
    }

    /// Deleting a clause before the step that derives it must fail: the
    /// deletion names a clause that is not yet in the active database.
    #[test]
    fn reordered_deletion_is_rejected(base in satisfiable_formula(), x in any::<usize>()) {
        let (events, _) = certified_unsat_events(&base, x);
        let axioms: Vec<Vec<i64>> = events
            .iter()
            .filter_map(|e| match e {
                Event::Axiom(lits) => Some(lit_set(lits)),
                _ => None,
            })
            .collect();
        // The first derived clause that no axiom duplicates; the final
        // failing-subset clause always qualifies, so one must exist.
        let (pos, lits) = events
            .iter()
            .enumerate()
            .find_map(|(i, e)| match e {
                Event::Derive(lits) if !axioms.contains(&lit_set(lits)) => {
                    Some((i, lits.clone()))
                }
                _ => None,
            })
            .expect("an UNSAT stream derives at least the failing-subset clause");
        let mut corrupted = events;
        corrupted.insert(pos, Event::Delete(lits));
        let audit = audit_stream(&corrupted);
        prop_assert_eq!(audit.failed(), 1, "early deletion not caught: {:?}", audit);
        prop_assert_eq!(audit.certified(), 0);
    }

    /// Negating one literal of the culminating derivation (`¬act` → `act`)
    /// makes the step non-RUP — the database stays satisfiable when the
    /// flipped clause's negation is asserted — so the audit must fail it.
    #[test]
    fn flipped_literal_is_rejected(base in satisfiable_formula(), x in any::<usize>()) {
        let (events, act) = certified_unsat_events(&base, x);
        let covering = lit_set(&[-act]);
        let last = events
            .iter()
            .rposition(|e| matches!(e, Event::Derive(lits) if lit_set(lits) == covering))
            .expect("the failing-subset clause is derived");
        let mut corrupted = events;
        corrupted[last] = Event::Derive(vec![act]);
        let audit = audit_stream(&corrupted);
        prop_assert_eq!(audit.failed(), 1, "flipped literal not caught: {:?}", audit);
        prop_assert_eq!(audit.certified(), 0);
    }

    /// Mutating a SAT verdict's claimed model to falsify the first axiom
    /// must fail the model check.
    #[test]
    fn falsified_model_is_rejected(base in satisfiable_formula()) {
        let mut events = certified_sat_events(&base);
        let falsify: Vec<Lit> = base.clauses().next().expect("at least one clause").to_vec();
        for e in &mut events {
            if let Event::SolveEnd {
                model: Some(model), ..
            } = e
            {
                for l in &falsify {
                    model[l.var().index()] = !l.asserted_value();
                }
            }
        }
        let audit = audit_stream(&events);
        prop_assert_eq!(audit.failed(), 1, "bad model not caught: {:?}", audit);
        prop_assert_eq!(audit.certified(), 0);
    }
}
