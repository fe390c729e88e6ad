//! Certified campaigns: DRAT proof logging for every ATPG-SAT verdict.
//!
//! [`StreamSink`] adapts the solver-side [`ProofSink`] interface to the
//! campaign proof-stream format of `atpg-easy-proof`
//! ([`Event`]): the campaign records axioms (the
//! encoder's clauses, *before* any solver-side normalization) and
//! `SolveBegin`/`SolveEnd` brackets, while the solver pushes its
//! derivations, deletions and models through the `ProofSink` methods.
//! The resulting event stream is exactly what
//! [`audit_stream`](atpg_easy_proof::audit_stream) — and the lint `P*`
//! pass built on it — replays through the independent checker.
//!
//! Both campaign engines speak this format:
//!
//! - the **from-scratch** path emits [`Event::Reset`] and re-records the
//!   instance's formula before each solve;
//! - the **incremental** path records the fault-free base encoding once,
//!   then each fault's activation-guarded clauses (and the retiring
//!   `¬a_ψ` clamp) as further axioms, with each solve bracketed under
//!   its assumption — so learnt clauses carried across faults check
//!   against the same live database the warm solver saw.
//!
//! Entry points: [`campaign::run_certified`](crate::campaign::run_certified)
//! (sequential, one stream) and
//! [`AtpgCampaign::with_certification`](crate::AtpgCampaign::with_certification)
//! (parallel, one independently-auditable stream per worker).

use atpg_easy_cnf::Lit;
use atpg_easy_obs::InstanceTrace;
use atpg_easy_proof::{Event, Verdict};
use atpg_easy_sat::{Outcome, ProofSink};

use crate::campaign::CampaignResult;

/// A proof-logging sink that accumulates one campaign proof stream.
///
/// Implements [`ProofSink`] (receiving the solver's derivations,
/// deletions and models) and exposes campaign-side methods for the
/// events only the encoder knows: [`StreamSink::axiom`],
/// [`StreamSink::reset`], and the [`StreamSink::begin_solve`] /
/// [`StreamSink::end_solve`] bracket.
#[derive(Debug, Default)]
pub struct StreamSink {
    events: Vec<Event>,
    /// Model delivered by the solver between `begin_solve` and
    /// `end_solve`; consumed into the `SolveEnd` event.
    pending_model: Option<Vec<bool>>,
    /// Rendered-DRAT byte count of derivations and deletions since the
    /// last [`StreamSink::take_instance_bytes`] — the per-instance proof
    /// size the traces report.
    instance_bytes: u64,
}

/// Decimal digit count of `x` including a sign for negatives — the
/// rendered width of one DIMACS literal.
fn lit_width(l: i64) -> u64 {
    let mut width = u64::from(l < 0);
    let mut x = l.unsigned_abs();
    loop {
        width += 1;
        x /= 10;
        if x == 0 {
            return width;
        }
    }
}

/// Rendered DRAT line length of one step: literals and the terminating
/// `0`, space-separated, newline-terminated, `d `-prefixed deletions.
fn drat_line_bytes(lits: &[i64], delete: bool) -> u64 {
    let mut bytes = if delete { 2 } else { 0 };
    for &l in lits {
        bytes += lit_width(l) + 1;
    }
    bytes + 2
}

fn to_dimacs(clause: &[Lit]) -> Vec<i64> {
    clause.iter().map(|l| l.to_dimacs()).collect()
}

impl StreamSink {
    /// An empty stream.
    pub fn new() -> Self {
        StreamSink::default()
    }

    /// Records a database reset: the next instance starts from a fresh
    /// formula (from-scratch engines emit one per fault).
    pub fn reset(&mut self) {
        self.events.push(Event::Reset);
    }

    /// Records one original-formula clause, exactly as the encoder built
    /// it (before solver-side normalization).
    pub fn axiom(&mut self, clause: &[Lit]) {
        self.events.push(Event::Axiom(to_dimacs(clause)));
    }

    /// Opens one instance's solve bracket.
    pub fn begin_solve(&mut self, index: usize, assumptions: &[Lit]) {
        self.pending_model = None;
        self.events.push(Event::SolveBegin {
            index,
            assumptions: to_dimacs(assumptions),
        });
    }

    /// Closes the bracket with the solver's verdict, attaching the model
    /// the solver delivered through [`ProofSink::model`] (falling back to
    /// the outcome's own model if the solver skipped the sink).
    pub fn end_solve(&mut self, outcome: &Outcome) {
        let (verdict, model) = match outcome {
            Outcome::Sat(m) => {
                let model = self.pending_model.take().unwrap_or_else(|| m.clone());
                (Verdict::Sat, Some(model))
            }
            Outcome::Unsat => (Verdict::Unsat, None),
            Outcome::Aborted => (Verdict::Aborted, None),
        };
        self.events.push(Event::SolveEnd { verdict, model });
    }

    /// Marks the open instance as taking a shortcut the auditor cannot
    /// re-derive; it will be reported uncertified instead of failing.
    pub fn uncertified(&mut self, reason: impl Into<String>) {
        self.events.push(Event::Uncertified {
            reason: reason.into(),
        });
    }

    /// Proof bytes (rendered DRAT length of derivations and deletions)
    /// accumulated since the last call; resets the counter.
    pub fn take_instance_bytes(&mut self) -> u64 {
        std::mem::take(&mut self.instance_bytes)
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink into its event stream.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl ProofSink for StreamSink {
    fn add_clause(&mut self, clause: &[Lit]) {
        let lits = to_dimacs(clause);
        self.instance_bytes += drat_line_bytes(&lits, false);
        self.events.push(Event::Derive(lits));
    }

    fn delete_clause(&mut self, clause: &[Lit]) {
        let lits = to_dimacs(clause);
        self.instance_bytes += drat_line_bytes(&lits, true);
        self.events.push(Event::Delete(lits));
    }

    fn model(&mut self, model: &[bool]) {
        self.pending_model = Some(model.to_vec());
    }
}

/// A certified sequential campaign: the ordinary result and traces plus
/// the proof stream that re-derives every verdict.
#[derive(Debug)]
pub struct CertifiedRun {
    /// Identical to [`campaign::run`](crate::campaign::run)'s result:
    /// proof logging changes no search step.
    pub result: CampaignResult,
    /// One trace per SAT instance, with `proof_bytes` filled in.
    pub traces: Vec<InstanceTrace>,
    /// The proof stream certifying every solver verdict of the run, in
    /// solve order.
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_cnf::Var;
    use atpg_easy_proof::{audit_stream, render_drat, Step};

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v)
    }

    #[test]
    fn sink_builds_a_checkable_stream() {
        let mut sink = StreamSink::new();
        sink.reset();
        sink.axiom(&[lit(1)]);
        sink.axiom(&[lit(-1)]);
        sink.begin_solve(3, &[]);
        sink.add_clause(&[]);
        sink.end_solve(&Outcome::Unsat);
        let audit = audit_stream(sink.events());
        assert!(audit.ok(), "{audit:?}");
        assert_eq!(audit.certified(), 1);
        assert_eq!(audit.instances[0].index, 3);
    }

    #[test]
    fn model_flows_from_solver_to_solve_end() {
        let mut sink = StreamSink::new();
        sink.axiom(&[lit(1), lit(2)]);
        sink.begin_solve(0, &[lit(-2)]);
        sink.model(&[true, false]);
        sink.end_solve(&Outcome::Sat(vec![false, false]));
        let audit = audit_stream(sink.events());
        assert!(audit.ok(), "the sink's model wins over the outcome's");
        assert_eq!(audit.certified(), 1);
    }

    #[test]
    fn instance_bytes_match_rendered_drat() {
        let mut sink = StreamSink::new();
        let clauses: [&[Lit]; 3] = [&[lit(1), lit(-22)], &[lit(-303)], &[]];
        let mut steps = Vec::new();
        for c in clauses {
            sink.add_clause(c);
            steps.push(Step {
                delete: false,
                lits: c.iter().map(|l| l.to_dimacs()).collect(),
            });
        }
        sink.delete_clause(&[lit(1), lit(-22)]);
        steps.push(Step {
            delete: true,
            lits: vec![1, -22],
        });
        assert_eq!(sink.take_instance_bytes(), render_drat(&steps).len() as u64);
        assert_eq!(sink.take_instance_bytes(), 0, "counter resets");
    }

    #[test]
    fn uncertified_marker_is_reported_not_failed() {
        let mut sink = StreamSink::new();
        sink.axiom(&[Lit::positive(Var::from_index(0))]);
        sink.begin_solve(0, &[]);
        sink.uncertified("cache-served verdict");
        sink.end_solve(&Outcome::Unsat);
        let audit = audit_stream(&sink.into_events());
        assert_eq!(audit.uncertified(), 1);
        assert!(audit.ok());
    }
}
