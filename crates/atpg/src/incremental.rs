//! Incremental ATPG-SAT: one persistent CDCL solver per campaign (or per
//! parallel worker), with the fault-free circuit encoded **once** and
//! each fault's logic added as activation-guarded clauses.
//!
//! This is the MiniSat-style incremental interface applied to the TEGUS
//! loop. The from-scratch path
//! ([`campaign::solve_one`](crate::campaign::solve_one)) encodes a fresh
//! CNF per fault; this path instead keeps one [`IncrementalCdcl`] alive
//! across the whole fault list:
//!
//! - The **base** is `encode_consistency` of the fault-free circuit —
//!   variable `i` is net `i`, exactly the paper's CIRCUIT-SAT variable
//!   correspondence. It is loaded into the solver once per campaign.
//! - Per fault `ψ(X, B)`, a fresh **activation literal** `a_ψ` guards
//!   everything fault-specific: the miter's faulty-cone half, written by
//!   the same code as a fresh instance's (the fan-out cone of `X` on fresh
//!   variables with `X` clamped to `B`, the XORs of the affected outputs,
//!   the big OR), and the Larrabee activation unit (`X = ¬B` in the good
//!   circuit). Each such clause is added as `(¬a_ψ ∨ clause)` and the
//!   instance is solved under the single assumption `a_ψ`.
//! - After the verdict, the permanent unit `(¬a_ψ)` retires the fault's
//!   clauses; they are satisfied forever and cost nothing but a watch.
//!
//! Because conflict analysis never resolves on assumption literals (they
//! have no reason clause), every clause learnt while solving fault `ψ` is
//! a consequence of the clause database alone and stays valid for every
//! later fault — the warm-start effect the `incremental_ab` bench
//! measures against the from-scratch path.
//!
//! The per-fault SAT verdicts are engine-independent, so
//! [`CampaignResult::detection_report`](crate::CampaignResult::detection_report)
//! is byte-identical between this path and the from-scratch path, at any
//! thread count. (Full [`canonical_report`](crate::CampaignResult::canonical_report)s
//! differ: a warm solver finds different models and spends different
//! effort.)

use std::time::Instant;

use atpg_easy_cnf::{circuit, CnfFormula, Lit, Var};
use atpg_easy_netlist::{topo, GateId, NetId, Netlist};
use atpg_easy_obs::{CountingProbe, NoProbe};
use atpg_easy_sat::{IncrementalCdcl, Limits, Outcome};

use crate::campaign::{AtpgConfig, FaultOutcome, FaultRecord};
use crate::certify::StreamSink;
use crate::{miter, verify, Fault};

/// A persistent per-campaign (or per-worker) incremental ATPG solver.
///
/// Construction encodes the fault-free circuit; [`IncrementalAtpg::solve_fault`]
/// then answers one fault at a time against the shared, warm solver. The
/// netlist is cloned in, so the handle is `'static` and can be parked in
/// long-lived structures (the serving layer's resumable campaign drivers).
pub struct IncrementalAtpg {
    nl: Netlist,
    order: Vec<GateId>,
    base_vars: usize,
    base_clauses: usize,
    /// The fault-free consistency encoding as built — kept so certified
    /// runs can record it as proof-stream axioms.
    base_formula: CnfFormula,
    solver: IncrementalCdcl,
    activation_vars: Vec<Var>,
}

impl IncrementalAtpg {
    /// Encodes the fault-free `nl` once and readies a persistent solver.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not encode (wide XORs) or is cyclic;
    /// the campaign preflight rejects both earlier.
    pub fn new(nl: &Netlist, config: &AtpgConfig) -> Self {
        let enc = circuit::encode_consistency(nl).expect("campaign circuits encode cleanly");
        let mut solver = IncrementalCdcl::new(enc.formula.num_vars()).with_limits(config.limits);
        let ok = solver.add_formula(&enc.formula);
        debug_assert!(ok, "consistency clauses are always satisfiable");
        IncrementalAtpg {
            nl: nl.clone(),
            order: topo::topo_order(nl).expect("validated netlist"),
            base_vars: enc.formula.num_vars(),
            base_clauses: enc.formula.num_clauses(),
            base_formula: enc.formula,
            solver,
            activation_vars: Vec::new(),
        }
    }

    /// Records the fault-free base encoding as proof-stream axioms (after
    /// a reset). Certified campaigns call this once per warm solver,
    /// before the first fault; every later derivation checks against
    /// these clauses plus the per-fault guarded groups.
    pub fn record_base_axioms(&self, sink: &mut StreamSink) {
        sink.reset();
        for clause in self.base_formula.clauses() {
            sink.axiom(clause);
        }
    }

    /// Variable range of the base (fault-free) encoding: `0..base_vars`.
    pub fn base_vars(&self) -> usize {
        self.base_vars
    }

    /// Activation variables allocated so far, one per solved fault, in
    /// solve order — the lint activation-hygiene pass checks these.
    pub fn activation_vars(&self) -> &[Var] {
        &self.activation_vars
    }

    /// Access to the underlying solver (read-only, for introspection).
    pub fn solver(&self) -> &IncrementalCdcl {
        &self.solver
    }

    /// Replaces the per-solve budget of the warm solver without
    /// discarding its clause database. The serving layer maps what
    /// remains of a request deadline onto [`Limits`] before each
    /// scheduling quantum; campaign configs keep their own copy, so
    /// callers should tighten both (see
    /// [`CampaignDriver::clamp_wall`](crate::CampaignDriver::clamp_wall)).
    pub fn set_limits(&mut self, limits: Limits) {
        self.solver.set_limits(limits);
    }

    /// Solves one fault against the warm solver, returning a record
    /// shaped exactly like the from-scratch path's. `sat_vars`/
    /// `sat_clauses` report the live database size at solve time (the
    /// instance the solver actually works on), not a per-fault formula.
    pub fn solve_fault(
        &mut self,
        f: Fault,
        config: &AtpgConfig,
        probe: Option<&mut CountingProbe>,
    ) -> FaultRecord {
        let cone = topo::fanout_cone_gates(&self.nl, &self.order, f.net);
        self.solve_fault_with(f, config, &cone, probe, None)
    }

    /// [`IncrementalAtpg::solve_fault`] with optional certification: with
    /// `cert` present, every guarded clause (and the retiring clamp) is
    /// recorded as a proof-stream axiom, the solve runs under a
    /// `SolveBegin(index)`/`SolveEnd` bracket with the activation literal
    /// as its assumption, and the solver streams its derivations into the
    /// sink — including the failing-subset clause that certifies an
    /// assumption-level UNSAT. The sink must have recorded the base
    /// encoding first ([`IncrementalAtpg::record_base_axioms`]).
    pub(crate) fn solve_fault_with(
        &mut self,
        f: Fault,
        config: &AtpgConfig,
        cone: &[GateId],
        probe: Option<&mut CountingProbe>,
        mut cert: Option<(usize, &mut StreamSink)>,
    ) -> FaultRecord {
        let (fo, sub) = miter::cone_nets(&self.nl, f.net, cone);
        let sub_size = sub.iter().filter(|&&b| b).count();

        let act = self.solver.new_var();
        self.activation_vars.push(act);
        let first_cone_var = self.solver.num_vars();

        // Fault-specific clauses, built unguarded in a scratch formula
        // (which normalizes them), then attached with the ¬a_ψ guard.
        let mut scratch = CnfFormula::new(first_cone_var);
        if self.nl.outputs().iter().any(|o| fo[o.index()]) {
            // The miter's faulty-cone half over the base variables, then
            // the Larrabee activation `X = ¬B` — guarded, unlike the
            // from-scratch path's global unit.
            let good = |n: NetId| Var::from_index(n.index());
            miter::faulty_cone(&self.nl, f, cone, &fo, good, &mut scratch);
            if config.activation_clause {
                scratch.add_clause(vec![Lit::with_value(good(f.net), !f.stuck)]);
            }
            self.solver.grow_to(scratch.num_vars());
        } else {
            // Unobservable fault: no output can differ, so the guarded
            // group is the empty disjunction — `a_ψ` alone is
            // contradictory, mirroring the Const0 miter of the
            // from-scratch path.
            scratch.add_clause(Vec::new());
        }

        let added = scratch.num_clauses();
        for clause in scratch.clauses() {
            let mut guarded = Vec::with_capacity(clause.len() + 1);
            guarded.push(Lit::negative(act));
            guarded.extend_from_slice(clause);
            if let Some((_, sink)) = cert.as_mut() {
                sink.axiom(&guarded);
            }
            let ok = self.solver.add_clause(guarded);
            debug_assert!(ok, "guarded clauses cannot refute the database");
        }

        let assumptions = [Lit::positive(act)];
        let started = Instant::now();
        let sol = match (probe, cert.as_mut()) {
            (Some(p), None) => self.solver.solve_assuming_probed(&assumptions, p),
            (None, None) => self.solver.solve_assuming(&assumptions),
            (probe, Some((index, sink))) => {
                sink.begin_solve(*index, &assumptions);
                let sol = match probe {
                    Some(p) => self.solver.solve_assuming_certified(&assumptions, p, *sink),
                    None => self
                        .solver
                        .solve_assuming_certified(&assumptions, &mut NoProbe, *sink),
                };
                sink.end_solve(&sol.outcome);
                sol
            }
        };
        let solve_time = started.elapsed();

        let outcome = match sol.outcome {
            Outcome::Sat(model) => {
                let vector: Vec<bool> = self
                    .nl
                    .inputs()
                    .iter()
                    .map(|pi| model[pi.index()])
                    .collect();
                debug_assert!(
                    verify::detects(&self.nl, f, &vector),
                    "model must be a test"
                );
                FaultOutcome::Detected(vector)
            }
            Outcome::Unsat => {
                debug_assert!(
                    !self.solver.failed_assumptions().is_empty(),
                    "the database alone is satisfiable; only the assumption can fail"
                );
                FaultOutcome::Untestable
            }
            Outcome::Aborted => FaultOutcome::Aborted,
        };

        // Retire the fault: the permanent unit ¬a_ψ satisfies every
        // guarded clause of this group forever, which makes the cone and
        // difference variables dead — retire them so later solves never
        // branch on them (every clause mentioning them carries ¬a_ψ,
        // including clauses learnt during this solve).
        if let Some((_, sink)) = cert.as_mut() {
            sink.axiom(&[Lit::negative(act)]);
        }
        let ok = self.solver.add_clause(vec![Lit::negative(act)]);
        debug_assert!(ok, "clamping an activation literal is always consistent");
        let cone_vars = (first_cone_var..self.solver.num_vars()).map(Var::from_index);
        self.solver.retire_vars(cone_vars);

        FaultRecord {
            fault: f,
            outcome,
            sat_vars: self.solver.num_vars(),
            sat_clauses: self.base_clauses + added,
            sub_size,
            solve_time,
            stats: sol.stats,
        }
    }
}

impl std::fmt::Debug for IncrementalAtpg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalAtpg")
            .field("circuit", &self.nl.name())
            .field("base_vars", &self.base_vars)
            .field("base_clauses", &self.base_clauses)
            .field("faults_solved", &self.activation_vars.len())
            .finish()
    }
}
