//! `P*` passes: certified-verdict auditing of campaign proof streams.
//!
//! The solvers in `atpg-easy-sat` can log every derivation they make as a
//! DRAT-style proof stream; this pass replays such a stream through the
//! *independent* checker in `atpg-easy-proof` (which shares no code with
//! the solvers) and turns the audit into diagnostics:
//!
//! - `P001`: the stream itself is malformed — errors outside any
//!   `SolveBegin`/`SolveEnd` bracket (a broken base derivation poisons
//!   every verdict after it).
//! - `P002`: an UNSAT verdict whose derivation chain fails the RUP check
//!   or never culminates in a refutation.
//! - `P003`: a SAT verdict whose claimed model falsifies an axiom or an
//!   assumption of that solve.
//! - `P004` (warning): a verdict reported without any certificate — an
//!   aborted solve, or a shortcut the solver explicitly marked
//!   uncertified. Reported, never silently passed.
//!
//! [`lint_proof_stream`] audits one event stream; [`lint_standalone_drat`]
//! checks a classic single-instance DIMACS + DRAT pair (the `lint` CLI's
//! `--dimacs`/`--drat` mode) by lowering it onto the same stream auditor.

use atpg_easy_proof::{audit_stream, Event, InstanceStatus, StreamAudit, Verdict};

use crate::diag::{Code, Location, Report};

/// Audits a campaign proof stream and reports every defect. The
/// [`StreamAudit`] is returned alongside the report so callers can keep
/// the counts (steps checked, axioms, certified instances).
pub fn lint_proof_stream(events: &[Event]) -> (Report, StreamAudit) {
    let audit = audit_stream(events);
    let report = report_from_audit(&audit);
    (report, audit)
}

/// Converts a finished [`StreamAudit`] into `P*` diagnostics. Instance
/// diagnostics use [`Location::Position`] with the instance's
/// `SolveBegin` index.
pub fn report_from_audit(audit: &StreamAudit) -> Report {
    let mut report = Report::new();
    for err in &audit.stray_errors {
        report.add(Code::P001, Location::General, err.clone());
    }
    for inst in &audit.instances {
        let loc = Location::Position { index: inst.index };
        match &inst.status {
            InstanceStatus::Certified => {}
            InstanceStatus::Failed { error } => {
                let code = match inst.verdict {
                    Verdict::Sat => Code::P003,
                    Verdict::Unsat | Verdict::Aborted => Code::P002,
                };
                report.add(
                    code,
                    loc,
                    format!("{} verdict not certified: {error}", inst.verdict.label()),
                );
            }
            InstanceStatus::Uncertified { reason } => {
                report.add(
                    Code::P004,
                    loc,
                    format!("{} verdict uncertified: {reason}", inst.verdict.label()),
                );
            }
        }
    }
    report
}

/// Checks a standalone DIMACS formula against a DRAT proof text: every
/// step must be RUP (or name an active clause, for deletions) and the
/// proof must end in the empty clause for the refutation to certify.
pub fn lint_standalone_drat(dimacs: &str, drat: &str) -> Report {
    let formula = match atpg_easy_cnf::dimacs::parse(dimacs) {
        Ok(f) => f,
        Err(e) => {
            let mut r = Report::new();
            r.add(Code::P001, Location::General, format!("DIMACS: {e}"));
            return r;
        }
    };
    let steps = match atpg_easy_proof::parse_drat(drat) {
        Ok(s) => s,
        Err(e) => {
            let mut r = Report::new();
            r.add(Code::P001, Location::General, format!("DRAT: {e}"));
            return r;
        }
    };
    let mut events: Vec<Event> = formula
        .clauses()
        .map(|c| Event::Axiom(c.iter().map(|l| l.to_dimacs()).collect()))
        .collect();
    events.push(Event::SolveBegin {
        index: 0,
        assumptions: Vec::new(),
    });
    for step in steps {
        events.push(if step.delete {
            Event::Delete(step.lits)
        } else {
            Event::Derive(step.lits)
        });
    }
    events.push(Event::SolveEnd {
        verdict: Verdict::Unsat,
        model: None,
    });
    lint_proof_stream(&events).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_passes() {
        let events = vec![
            Event::Axiom(vec![1]),
            Event::Axiom(vec![-1]),
            Event::SolveBegin {
                index: 0,
                assumptions: vec![],
            },
            Event::Derive(vec![]),
            Event::SolveEnd {
                verdict: Verdict::Unsat,
                model: None,
            },
        ];
        let (report, audit) = lint_proof_stream(&events);
        assert!(report.is_empty(), "{}", report.render_human());
        assert_eq!(audit.certified(), 1);
    }

    #[test]
    fn stray_error_is_p001() {
        // A bogus derivation outside any bracket poisons the database.
        let events = vec![Event::Axiom(vec![1, 2]), Event::Derive(vec![2])];
        let (report, _) = lint_proof_stream(&events);
        assert!(report.has_code(Code::P001), "{}", report.render_human());
        assert!(report.has_errors());
    }

    #[test]
    fn bad_unsat_proof_is_p002() {
        let events = vec![
            Event::Axiom(vec![1, 2]),
            Event::SolveBegin {
                index: 4,
                assumptions: vec![],
            },
            Event::SolveEnd {
                verdict: Verdict::Unsat,
                model: None,
            },
        ];
        let (report, _) = lint_proof_stream(&events);
        let d = report.with_code(Code::P002).next().expect("one P002");
        assert_eq!(d.location, Location::Position { index: 4 });
    }

    #[test]
    fn bad_model_is_p003() {
        let events = vec![
            Event::Axiom(vec![1]),
            Event::SolveBegin {
                index: 0,
                assumptions: vec![],
            },
            Event::SolveEnd {
                verdict: Verdict::Sat,
                model: Some(vec![false]),
            },
        ];
        let (report, _) = lint_proof_stream(&events);
        assert!(report.has_code(Code::P003), "{}", report.render_human());
    }

    #[test]
    fn uncertified_is_p004_warning() {
        let events = vec![
            Event::Axiom(vec![1]),
            Event::SolveBegin {
                index: 0,
                assumptions: vec![],
            },
            Event::SolveEnd {
                verdict: Verdict::Aborted,
                model: None,
            },
        ];
        let (report, _) = lint_proof_stream(&events);
        assert!(report.has_code(Code::P004));
        assert!(!report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn standalone_drat_accepts_valid_refutation() {
        let dimacs = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n";
        let drat = "1 0\n0\n";
        let report = lint_standalone_drat(dimacs, drat);
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn standalone_drat_rejects_bogus_step() {
        let dimacs = "p cnf 2 1\n1 2 0\n";
        let drat = "1 0\n";
        let report = lint_standalone_drat(dimacs, drat);
        assert!(report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn standalone_drat_rejects_garbage_inputs() {
        assert!(lint_standalone_drat("not dimacs", "0\n").has_code(Code::P001));
        assert!(lint_standalone_drat("p cnf 1 1\n1 0\n", "1 x 0\n").has_code(Code::P001));
    }
}
