//! TEGUS-style ATPG campaigns: one ATPG-SAT instance per fault, with
//! random-pattern seeding and fault dropping.
//!
//! This is the experiment engine behind the paper's Figure 1: run ATPG on
//! a circuit, record per-SAT-instance size and effort, and report
//! coverage.

use std::time::{Duration, Instant};

use atpg_easy_cnf::{CnfFormula, Var};
use atpg_easy_netlist::sim::PatternBlock;
use atpg_easy_netlist::{topo, Netlist};
use atpg_easy_obs::{CountingProbe, InstanceTrace, NoProbe};
use atpg_easy_sat::{Cdcl, Limits, Outcome, Solver, SolverStats};

use crate::certify::{CertifiedRun, StreamSink};
use crate::driver::CampaignDriver;
use crate::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use crate::miter::AtpgMiter;
use crate::{miter, verify, Fault};

/// The solver that backs a campaign: CDCL, the stand-in for TEGUS.
///
/// Campaigns take no solver choice. The paper bounds its Algorithm 1
/// only under a fixed variable order of small cut-width (Theorem 4.1),
/// and a campaign supplies no such order, so the other solvers serve the
/// experiment bins instead. This one-variant type remains only because
/// the `campaign_bench` benchmark names it; a benchmark-side change that
/// stops naming it deletes it together with [`AtpgConfig::solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// CDCL (the TEGUS proxy).
    #[default]
    Cdcl,
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Solver backing each ATPG-SAT instance: always CDCL. Kept, like
    /// [`SolverChoice`], only until the benchmark stops naming it.
    pub solver: SolverChoice,
    /// Per-instance resource budget.
    pub limits: Limits,
    /// Add the Larrabee activation clause (`X = ¬B` in the good circuit).
    pub activation_clause: bool,
    /// Simulate every generated test against the remaining faults and drop
    /// the ones it detects.
    pub fault_dropping: bool,
    /// Collapse structurally equivalent faults first.
    pub collapse: bool,
    /// Additionally drop dominance-collapsed faults (implies `collapse`);
    /// shrinks the target list further. Coverage is preserved when no
    /// kept dominating fault is redundant
    /// ([`collapse_with_dominance`](crate::fault::collapse_with_dominance)).
    pub dominance: bool,
    /// Random patterns simulated before any SAT call (0 disables); easy
    /// faults are retired without generating a SAT instance.
    pub random_patterns: usize,
    /// Seed for the random-pattern phase.
    pub seed: u64,
    /// Lint the netlist before fault enumeration and fail fast with a
    /// diagnostic report instead of panicking mid-campaign (default on).
    pub preflight: bool,
    /// Solve faults against one persistent assumption-based CDCL solver
    /// (per campaign, or per worker in the parallel engine) instead of a
    /// fresh solver per fault: the fault-free circuit is encoded once
    /// and per-fault logic rides on activation literals (see
    /// [`crate::incremental`]). Detection verdicts are identical to the
    /// from-scratch path (compare [`CampaignResult::detection_report`]);
    /// models, effort counters and instance sizes differ.
    pub incremental: bool,
    /// Run the static implication pre-pass (`atpg_easy_implic`) before
    /// the campaign and retire statically-proved-redundant faults as
    /// [`FaultOutcome::StaticallyRedundant`] without building a SAT
    /// instance. Sound by construction: a pruned fault is untestable,
    /// so [`CampaignResult::detection_report`] is byte-identical with
    /// the pass on or off (only per-record solver annotations differ).
    pub static_prune: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            solver: SolverChoice::Cdcl,
            limits: Limits::none(),
            activation_clause: true,
            fault_dropping: true,
            collapse: true,
            dominance: false,
            random_patterns: 0,
            seed: 1,
            preflight: true,
            incremental: false,
            static_prune: false,
        }
    }
}

/// How a fault was resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// ATPG-SAT found a test vector (recorded per primary input).
    Detected(Vec<bool>),
    /// A previously generated or random vector already detected it.
    DetectedBySimulation,
    /// ATPG-SAT proved the fault untestable (redundant).
    Untestable,
    /// The static implication pre-pass proved the fault untestable
    /// before any SAT instance was built (see `atpg_easy_implic`).
    /// Semantically equivalent to [`FaultOutcome::Untestable`].
    StaticallyRedundant,
    /// The solver hit its budget.
    Aborted,
}

/// Per-fault campaign record — one point of the paper's Figure 1.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The fault.
    pub fault: Fault,
    /// Resolution.
    pub outcome: FaultOutcome,
    /// Variables in the ATPG-SAT instance (0 when no instance was built).
    pub sat_vars: usize,
    /// Clauses in the ATPG-SAT instance.
    pub sat_clauses: usize,
    /// `|C_ψ^sub|` in nets.
    pub sub_size: usize,
    /// Wall-clock solve time (zero when no instance was built).
    pub solve_time: Duration,
    /// Machine-independent solver counters.
    pub stats: SolverStats,
}

impl FaultRecord {
    /// The record of a fault retired without a SAT instance: by
    /// simulation or by the static pre-pass.
    pub(crate) fn unsolved(fault: Fault, outcome: FaultOutcome) -> Self {
        FaultRecord {
            fault,
            outcome,
            sat_vars: 0,
            sat_clauses: 0,
            sub_size: 0,
            solve_time: Duration::ZERO,
            stats: SolverStats::default(),
        }
    }
}

/// The outcome of a whole campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// One record per targeted fault.
    pub records: Vec<FaultRecord>,
    /// The generated test set (SAT models plus effective random patterns).
    pub tests: Vec<Vec<bool>>,
}

impl CampaignResult {
    /// Faults resolved as detected (by SAT or simulation).
    pub fn detected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation
                )
            })
            .count()
    }

    /// Faults proved untestable (by the solver or the static pre-pass).
    pub fn untestable(&self) -> usize {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant
                )
            })
            .count()
    }

    /// Faults retired by the static implication pre-pass.
    pub fn statically_pruned(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::StaticallyRedundant)
            .count()
    }

    /// Faults aborted on budget.
    pub fn aborted(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::Aborted)
            .count()
    }

    /// Fault coverage: detected / (total − untestable).
    pub fn coverage(&self) -> f64 {
        let testable = self.records.len() - self.untestable();
        if testable == 0 {
            1.0
        } else {
            self.detected() as f64 / testable as f64
        }
    }

    /// Records that actually ran a SAT instance (the Figure-1 population).
    pub fn sat_records(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(|r| r.sat_vars > 0)
    }

    /// Canonical textual rendering of everything deterministic in the
    /// result. Wall-clock `solve_time` is excluded (it varies run to run),
    /// and so are the caching solver's `cache_hits` and `cache_entries`,
    /// which a campaign's CDCL solver never sets; every other field —
    /// outcomes, test vectors, instance sizes, solver counters — is
    /// included. Two campaigns are behaviorally identical iff their
    /// canonical reports are byte-identical; the parallel engine uses this
    /// to assert thread-count independence.
    pub fn canonical_report(&self) -> String {
        use std::fmt::Write as _;
        fn bits(v: &[bool]) -> String {
            v.iter().map(|&b| if b { '1' } else { '0' }).collect()
        }
        let mut out = String::new();
        for r in &self.records {
            let outcome = match &r.outcome {
                FaultOutcome::Detected(v) => format!("detected:{}", bits(v)),
                FaultOutcome::DetectedBySimulation => "sim".to_string(),
                FaultOutcome::Untestable => "untestable".to_string(),
                FaultOutcome::StaticallyRedundant => "untestable-static".to_string(),
                FaultOutcome::Aborted => "aborted".to_string(),
            };
            let s = &r.stats;
            writeln!(
                out,
                "fault net={} sa{} {} vars={} clauses={} sub={} nodes={} decisions={} \
                 props={} conflicts={} learnt={} restarts={}",
                r.fault.net.index(),
                u8::from(r.fault.stuck),
                outcome,
                r.sat_vars,
                r.sat_clauses,
                r.sub_size,
                s.nodes,
                s.decisions,
                s.propagations,
                s.conflicts,
                s.learnt_clauses,
                s.restarts
            )
            .expect("writing to a String cannot fail");
        }
        for t in &self.tests {
            writeln!(out, "test {}", bits(t)).expect("writing to a String cannot fail");
        }
        out
    }

    /// Canonical rendering of the **semantic** per-fault verdicts only:
    /// one line per fault, `detected` / `untestable` / `aborted`, with
    /// no test vectors, solver counters or instance sizes. Detected-by-
    /// SAT and detected-by-simulation collapse to `detected` — which
    /// vector retires a fault (and therefore which faults ever reach the
    /// solver) depends on the engine and on solver warm state, but a
    /// fault's detectability does not.
    ///
    /// This is the report that is byte-identical across the sequential,
    /// parallel (any thread count), from-scratch and incremental
    /// engines; [`CampaignResult::canonical_report`] is only stable
    /// within one engine.
    pub fn detection_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.records {
            let verdict = match &r.outcome {
                FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation => "detected",
                FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant => "untestable",
                FaultOutcome::Aborted => "aborted",
            };
            writeln!(
                out,
                "fault net={} sa{} {verdict}",
                r.fault.net.index(),
                u8::from(r.fault.stuck)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Runs a full ATPG campaign on `nl`.
///
/// # Panics
///
/// With `config.preflight` set (the default), panics with a rendered
/// diagnostic report if the netlist fails the lint preflight (cycles,
/// undriven or multiply-driven nets, bad fanin, no outputs). With
/// preflight disabled, a malformed netlist instead panics wherever the
/// campaign first trips over it. Also panics on XOR/XNOR gates wider
/// than two inputs (decompose first).
pub fn run(nl: &Netlist, config: &AtpgConfig) -> CampaignResult {
    let mut driver = build_driver(nl, config, false, false);
    while driver.step().is_some() {}
    driver.into_result()
}

/// Runs a full campaign like [`run`], additionally emitting one
/// [`InstanceTrace`] per SAT instance, sequence-numbered by record index
/// (so traces line up with the records of the returned result).
///
/// Traces are probe-derived: each solve goes through
/// [`Solver::solve_probed`] with a [`CountingProbe`], so the counters in
/// the trace are the per-instance event totals. The campaign result is
/// identical to what [`run`] produces (probes only observe).
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_traced(nl: &Netlist, config: &AtpgConfig) -> (CampaignResult, Vec<InstanceTrace>) {
    let mut driver = build_driver(nl, config, true, false);
    while driver.step().is_some() {}
    let (result, traces, _) = driver.into_parts();
    (result, traces)
}

/// Runs a full campaign like [`run_traced`], additionally logging a
/// proof stream that certifies every solver verdict: each SAT instance's
/// formula is recorded as axioms, each verdict is bracketed by
/// `SolveBegin`/`SolveEnd`, and the solver emits every derivation through
/// its [`ProofSink`](atpg_easy_sat::ProofSink). The returned
/// [`CertifiedRun::events`] replays through
/// [`audit_stream`](atpg_easy_proof::audit_stream) (or the lint `P*`
/// pass).
///
/// Proof logging changes no search step, so the result is identical to
/// [`run`]'s. Traces report the per-instance proof size in
/// `proof_bytes`.
///
/// # Panics
///
/// Same conditions as [`run`]; additionally, with `config.preflight` set
/// the proof stream is audited after the run (the campaign *postflight*)
/// and a stream that fails certification panics with the rendered `P*`
/// diagnostics.
pub fn run_certified(nl: &Netlist, config: &AtpgConfig) -> CertifiedRun {
    let mut driver = build_driver(nl, config, true, true);
    while driver.step().is_some() {}
    let (result, traces, sink) = driver.into_parts();
    let events = sink
        .expect("certified drivers always carry a sink")
        .into_events();
    if config.preflight {
        let (report, _) = atpg_easy_lint::proof::lint_proof_stream(&events);
        assert!(
            !report.has_errors(),
            "campaign on `{}` failed proof postflight:\n{}",
            nl.name(),
            report.render_human()
        );
    }
    CertifiedRun {
        result,
        traces,
        events,
    }
}

/// Builds a [`CampaignDriver`] with the library entry points' panic
/// behavior: a preflight failure dies with the rendered report rather
/// than returning the typed error the serving layer consumes.
fn build_driver(
    nl: &Netlist,
    config: &AtpgConfig,
    tracing: bool,
    certified: bool,
) -> CampaignDriver {
    CampaignDriver::try_new(nl.clone(), config, tracing, certified)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Encodes the ATPG-SAT instance for one fault straight into CNF (no
/// miter netlist) and solves it.
///
/// Deterministic apart from the wall-clock `solve_time` field (and any
/// wall-clock limit in `config.limits`): identical inputs produce an
/// identical record. From-scratch campaign solves do the same.
pub fn solve_one(nl: &Netlist, f: Fault, config: &AtpgConfig) -> FaultRecord {
    let order = topo::topo_order(nl).expect("validated netlist");
    let cone = topo::fanout_cone_gates(nl, &order, f.net);
    let m = miter::encode(nl, f, &order, &cone, config.activation_clause);
    let mut solver = Cdcl::new().with_limits(config.limits);
    solve_instance(nl, &m, &mut solver, None, None)
}

/// The Figure-1 outcome label of a fault record: `"SAT"`, `"UNSAT"`,
/// `"ABORT"`, `"SIM"` for faults retired by simulation, or
/// `"REDUNDANT"` for faults retired by the static pre-pass.
pub fn outcome_label(outcome: &FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::Detected(_) => "SAT",
        FaultOutcome::DetectedBySimulation => "SIM",
        FaultOutcome::Untestable => "UNSAT",
        FaultOutcome::StaticallyRedundant => "REDUNDANT",
        FaultOutcome::Aborted => "ABORT",
    }
}

/// Solves the fresh ATPG-SAT instance `m` of `nl` ([`miter::encode`])
/// with `solver`, observing the solve through `probe` and logging it into
/// the proof stream of `cert` (a [`Reset`](atpg_easy_proof::Event::Reset),
/// the formula as axioms, and a `SolveBegin(index)`/`SolveEnd` bracket
/// around the solver's derivations) when given. The solver's own budget
/// applies; each solve starts it from a clean state, so one solver serves
/// every fault of a campaign.
pub(crate) fn solve_instance(
    nl: &Netlist,
    m: &AtpgMiter<CnfFormula, Var>,
    solver: &mut Cdcl,
    probe: Option<&mut CountingProbe>,
    cert: Option<(usize, &mut StreamSink)>,
) -> FaultRecord {
    let (f, formula) = (m.fault, &m.circuit);
    let started = Instant::now();
    let sol = match (probe, cert) {
        (None, None) => solver.solve(formula),
        (Some(p), None) => solver.solve_probed(formula, p),
        (probe, Some((index, sink))) => {
            sink.reset();
            for clause in formula.clauses() {
                sink.axiom(clause);
            }
            sink.begin_solve(index, &[]);
            let sol = match probe {
                Some(p) => solver.solve_certified(formula, p, sink),
                None => solver.solve_certified(formula, &mut NoProbe, sink),
            };
            sink.end_solve(&sol.outcome);
            sol
        }
    };
    let solve_time = started.elapsed();
    let outcome = match sol.outcome {
        Outcome::Sat(model) => {
            let vector: Vec<bool> = (nl.inputs().iter())
                .map(|pi| m.good_of[pi.index()].is_some_and(|v| model[v.index()]))
                .collect();
            debug_assert!(verify::detects(nl, f, &vector), "model must be a test");
            FaultOutcome::Detected(vector)
        }
        Outcome::Unsat => FaultOutcome::Untestable,
        Outcome::Aborted => FaultOutcome::Aborted,
    };
    FaultRecord {
        fault: f,
        outcome,
        sat_vars: formula.num_vars(),
        sat_clauses: formula.num_clauses(),
        sub_size: m.sub_size(),
        solve_time,
        stats: sol.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault;
    use crate::faultsim::pack_vectors;
    use atpg_easy_netlist::parser::bench;

    /// Per fault, whether any of `vectors` detects it, by the
    /// whole-circuit sweep [`FaultSimulator::detect_mask_full`], 64
    /// vectors at a time (patterns past the last vector of a chunk
    /// simulate the all-zero vector, as in
    /// [`FaultSimulator::detect_batch_with`]). It shares no code with the
    /// cone path that compaction and fault dropping use, so it is their
    /// coverage oracle.
    pub(super) fn detected_by_full_sweep(
        nl: &Netlist,
        vectors: &[Vec<bool>],
        faults: &[Fault],
    ) -> Vec<bool> {
        let fs = FaultSimulator::with_cones(nl);
        let mut det = vec![false; faults.len()];
        for chunk in vectors.chunks(64) {
            let words: Vec<u64> = pack_vectors(nl, chunk);
            let good = fs.good_values(nl, &words);
            for (d, &f) in det.iter_mut().zip(faults) {
                *d |= fs.detect_mask_full(nl, &words, &good, f) != 0;
            }
        }
        det
    }

    fn c17() -> Netlist {
        bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn c17_full_coverage() {
        // c17 is fully testable: coverage 100%, no untestable faults.
        let res = run(&c17(), &AtpgConfig::default());
        assert_eq!(res.untestable(), 0);
        assert_eq!(res.aborted(), 0);
        assert!((res.coverage() - 1.0).abs() < 1e-9);
        assert!(!res.tests.is_empty());
    }

    #[test]
    fn every_generated_test_verifies() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                fault_dropping: false,
                ..AtpgConfig::default()
            },
        );
        for r in &res.records {
            if let FaultOutcome::Detected(v) = &r.outcome {
                assert!(
                    verify::detects(&nl, r.fault, v),
                    "{}",
                    r.fault.describe(&nl)
                );
            }
        }
    }

    #[test]
    fn random_patterns_retire_faults_without_sat() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                random_patterns: 128,
                ..AtpgConfig::default()
            },
        );
        let by_sim = res
            .records
            .iter()
            .filter(|r| r.outcome == FaultOutcome::DetectedBySimulation)
            .count();
        assert!(by_sim > 0, "128 random patterns retire most c17 faults");
        assert!((res.coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_faults_reported_untestable() {
        // y = OR(a, NOT a): constant 1; its s-a-1 is redundant.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Not, vec![a], "na")
            .unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Or, vec![a, na], "y")
            .unwrap();
        nl.add_output(y);
        let res = run(
            &nl,
            &AtpgConfig {
                collapse: false,
                ..AtpgConfig::default()
            },
        );
        assert!(res.untestable() > 0);
        assert!(res.coverage() > 0.0);
    }

    #[test]
    fn dominance_shrinks_the_target_list_same_coverage() {
        let nl = c17();
        let plain = run(&nl, &AtpgConfig::default());
        let dom = run(
            &nl,
            &AtpgConfig {
                dominance: true,
                ..AtpgConfig::default()
            },
        );
        assert!(dom.records.len() < plain.records.len());
        assert!((dom.coverage() - 1.0).abs() < 1e-9);
        // The dominance-collapsed test set still covers every fault.
        let det = detected_by_full_sweep(&nl, &dom.tests, &fault::all_faults(&nl));
        // Every *testable* fault is detected (c17 has no redundant faults).
        assert!(det.iter().all(|&d| d), "full coverage from dominance set");
    }

    /// An undriven net feeding an output: trips N002 before any miter
    /// is built.
    fn ghost() -> Netlist {
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost").unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::And, vec![a, ghost], "y")
            .unwrap();
        nl.add_output(y);
        nl
    }

    #[test]
    #[should_panic(expected = "failed ATPG preflight")]
    fn preflight_rejects_malformed_netlist() {
        run(&ghost(), &AtpgConfig::default());
    }

    #[test]
    #[should_panic(expected = "failed ATPG preflight")]
    fn parallel_preflight_rejects_malformed_netlist() {
        crate::AtpgCampaign::new(AtpgConfig::default())
            .with_threads(2)
            .run(&ghost());
    }

    #[test]
    fn run_traced_matches_run_and_covers_every_sat_record() {
        let nl = c17();
        let config = AtpgConfig {
            random_patterns: 16,
            seed: 3,
            ..AtpgConfig::default()
        };
        let plain = run(&nl, &config);
        let (traced, traces) = run_traced(&nl, &config);
        assert_eq!(
            plain.canonical_report(),
            traced.canonical_report(),
            "probes must not change campaign behavior"
        );
        assert_eq!(traces.len(), traced.sat_records().count());
        for t in &traces {
            let r = &traced.records[t.seq as usize];
            assert_eq!(t.circuit, "c17");
            assert_eq!(t.fault, r.fault.describe(&nl));
            assert_eq!(t.vars, r.sat_vars as u64);
            assert_eq!(t.clauses, r.sat_clauses as u64);
            assert_eq!(t.outcome, outcome_label(&r.outcome));
            assert_eq!(t.worker, 0);
            // Probe counters agree with the legacy per-record stats.
            assert_eq!(t.counters.decisions, r.stats.decisions);
            assert_eq!(t.counters.propagations, r.stats.propagations);
            assert_eq!(t.counters.conflicts, r.stats.conflicts);
        }
    }

    #[test]
    fn certified_run_audits_clean() {
        let nl = c17();
        let config = AtpgConfig {
            fault_dropping: false,
            ..AtpgConfig::default()
        };
        let certified = run_certified(&nl, &config);
        let audit = atpg_easy_proof::audit_stream(&certified.events);
        assert!(audit.ok(), "{:?}", audit.stray_errors);
        assert_eq!(audit.failed(), 0);
        assert_eq!(audit.uncertified(), 0, "no shortcuts on c17");
        assert_eq!(
            audit.certified(),
            certified.result.sat_records().count(),
            "every SAT instance is certified"
        );
        assert_eq!(
            certified.result.detection_report(),
            run(&nl, &config).detection_report(),
            "proof logging must not change verdicts"
        );
        assert_eq!(
            certified.traces.len(),
            certified.result.sat_records().count()
        );
    }

    #[test]
    fn certified_run_re_derives_unsat_verdicts() {
        // y = OR(a, NOT a): redundant faults give real UNSAT verdicts,
        // which must come with checkable refutations — from scratch and
        // (failing-subset form) incrementally.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Not, vec![a], "na")
            .unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Or, vec![a, na], "y")
            .unwrap();
        nl.add_output(y);
        for incremental in [false, true] {
            let config = AtpgConfig {
                collapse: false,
                fault_dropping: false,
                incremental,
                ..AtpgConfig::default()
            };
            let certified = run_certified(&nl, &config);
            assert!(certified.result.untestable() > 0);
            let audit = atpg_easy_proof::audit_stream(&certified.events);
            assert!(audit.ok(), "incremental={incremental}: {audit:?}");
            assert_eq!(audit.uncertified(), 0, "incremental={incremental}");
            assert_eq!(
                audit.certified(),
                certified.result.sat_records().count(),
                "incremental={incremental}"
            );
        }
    }

    #[test]
    fn certified_incremental_matches_detection_report() {
        let nl = c17();
        let config = AtpgConfig {
            incremental: true,
            random_patterns: 16,
            seed: 3,
            ..AtpgConfig::default()
        };
        let certified = run_certified(&nl, &config);
        let audit = atpg_easy_proof::audit_stream(&certified.events);
        assert!(audit.ok(), "{:?}", audit.stray_errors);
        assert_eq!(audit.uncertified(), 0);
        assert_eq!(audit.certified(), certified.result.sat_records().count());
        assert_eq!(
            certified.result.detection_report(),
            run(&nl, &config).detection_report()
        );
        // Instances that learnt clauses report their proof sizes.
        let logged: u64 = certified.traces.iter().map(|t| t.proof_bytes).sum();
        let derived = certified
            .events
            .iter()
            .any(|e| matches!(e, atpg_easy_proof::Event::Derive(_)));
        assert_eq!(derived, logged > 0, "proof_bytes mirrors derivations");
    }

    #[test]
    fn sat_records_expose_instance_sizes() {
        let nl = c17();
        let res = run(&nl, &AtpgConfig::default());
        for r in res.sat_records() {
            assert!(r.sat_vars > 0);
            assert!(r.sat_clauses > 0);
            assert!(r.sub_size > 0);
        }
    }
}

/// Greedy reverse-order test-set compaction.
///
/// Classic static compaction: vectors are considered newest-first (later
/// vectors target harder faults and tend to cover many easy ones), and a
/// vector is kept only if it detects a fault no newer kept vector
/// detects — so each fault keeps its first detector in that order.
/// Returns the kept vectors, oldest-first.
///
/// `tests` is simulated from the end in slices of up to
/// [`WIDE_PATTERNS`] vectors, one block-parallel pass per slice against
/// the faults no newer vector detects; a fault's first detector is the
/// highest detecting lane of its slice.
///
/// Every fault the all-zero input vector detects is credited to the
/// newest vector, so the kept set need not detect it: the credit that
/// [`FaultSimulator::detect_batch_with`] gives its lanes past the last
/// vector, made once and explicitly. The slices mask their unused lanes.
///
/// # Panics
///
/// Panics if a vector has the wrong width or the netlist is cyclic.
pub fn compact_tests(nl: &Netlist, tests: &[Vec<bool>], faults: &[Fault]) -> Vec<Vec<bool>> {
    let Some(newest) = tests.len().checked_sub(1) else {
        return Vec::new();
    };
    let fs = FaultSimulator::with_cones(nl);
    let mut bufs = SimBuffers::default();
    let mut keep = vec![false; tests.len()];
    // Faults no newer kept vector detects.
    let mut live: Vec<Fault> = faults.to_vec();
    // The all-zero credit: a word with no vectors simulates only the
    // all-zero vector.
    let mut zero = fs.detect_batch_with(nl, &[], &live, &mut bufs).into_iter();
    live.retain(|_| zero.next() != Some(true));
    keep[newest] = live.len() < faults.len();
    let mut end = tests.len();
    while end > 0 && !live.is_empty() {
        let start = end.saturating_sub(WIDE_PATTERNS);
        let slice = &tests[start..end];
        let masks = fs.detect_batch_in(nl, slice, live.iter().copied(), &mut bufs.blocks);
        let mut masks = masks.iter();
        live.retain(|_| {
            let lane = masks.next().and_then(|m| newest_lane(m, slice.len()));
            if let Some(p) = lane {
                keep[start + p] = true;
            }
            lane.is_none()
        });
        end = start;
    }
    tests
        .iter()
        .zip(keep)
        .filter(|&(_, kept)| kept)
        .map(|(vector, _)| vector.clone())
        .collect()
}

/// The highest of the first `lanes` patterns set in `mask`: in a slice
/// of `lanes` vectors, the newest one that detects the fault.
fn newest_lane(mask: &PatternBlock, lanes: usize) -> Option<usize> {
    (0..lanes.div_ceil(64)).rev().find_map(|w| {
        let used = lanes - w * 64;
        let valid = if used >= 64 { !0 } else { (1u64 << used) - 1 };
        let bits = mask[w] & valid;
        (bits != 0).then(|| w * 64 + 63 - bits.leading_zeros() as usize)
    })
}

#[cfg(test)]
mod compaction_tests {
    use super::tests::detected_by_full_sweep;
    use super::*;
    use crate::fault;
    use atpg_easy_circuits::suite;
    use atpg_easy_netlist::parser::bench;
    use atpg_easy_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference: the per-vector greedy loop. Each vector, newest
    /// first, rides alone on one 64-pattern word against the faults no
    /// newer kept vector detects, and is kept iff it retires one of them.
    fn reference_compact(nl: &Netlist, tests: &[Vec<bool>], faults: &[Fault]) -> Vec<Vec<bool>> {
        let fs = FaultSimulator::with_cones(nl);
        let mut undetected: Vec<Fault> = faults.to_vec();
        let mut kept: Vec<Vec<bool>> = Vec::new();
        let mut bufs = SimBuffers::default();
        for vector in tests.iter().rev() {
            if undetected.is_empty() {
                break;
            }
            let hits =
                fs.detect_batch_with(nl, std::slice::from_ref(vector), &undetected, &mut bufs);
            let before = undetected.len();
            let mut keep_faults = Vec::with_capacity(before);
            for (f, hit) in undetected.into_iter().zip(&hits) {
                if !hit {
                    keep_faults.push(f);
                }
            }
            undetected = keep_faults;
            if undetected.len() < before {
                kept.push(vector.clone());
            }
        }
        kept.reverse();
        kept
    }

    fn assert_matches_reference(nl: &Netlist, tests: &[Vec<bool>], faults: &[Fault], what: &str) {
        assert_eq!(
            compact_tests(nl, tests, faults),
            reference_compact(nl, tests, faults),
            "{what}"
        );
    }

    fn detected_faults(result: &CampaignResult) -> Vec<Fault> {
        result
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation
                )
            })
            .map(|r| r.fault)
            .collect()
    }

    #[test]
    fn matches_the_per_vector_loop_on_suite_campaigns() {
        // 4096 random patterns keep sets larger than one 256-vector
        // slice, so the slices split.
        let config = AtpgConfig {
            random_patterns: 4096,
            ..AtpgConfig::default()
        };
        let mut circuits = suite::mcnc_like();
        circuits.extend(suite::iscas_like());
        circuits.push(suite::c6288_like());
        let mut split = 0;
        for c in circuits {
            let res = run(&c.netlist, &config);
            split += usize::from(res.tests.len() > WIDE_PATTERNS);
            let what = format!("{} against its detected faults", c.name);
            assert_matches_reference(&c.netlist, &res.tests, &detected_faults(&res), &what);
            let what = format!("{} against the collapsed list", c.name);
            assert_matches_reference(&c.netlist, &res.tests, &fault::collapse(&c.netlist), &what);
        }
        assert!(split > 0, "some test set spans several slices");
    }

    #[test]
    fn matches_the_per_vector_loop_on_a_short_last_slice() {
        // 300 = 256 + 44: the oldest slice masks its 212 unused lanes.
        let nl = suite::priority_encoder(8);
        let mut rng = StdRng::seed_from_u64(5);
        let tests: Vec<Vec<bool>> = (0..300)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
            .collect();
        let faults = fault::all_faults(&nl);
        assert_matches_reference(&nl, &tests, &faults, "300 vectors");
        assert_matches_reference(&nl, &tests[..44], &faults, "44 vectors");
    }

    #[test]
    fn matches_the_per_vector_loop_on_a_doubled_set() {
        let nl = c17();
        let res = run(&nl, &AtpgConfig::default());
        let mut doubled = res.tests.clone();
        doubled.extend(res.tests.iter().cloned());
        assert_matches_reference(&nl, &doubled, &fault::collapse(&nl), "doubled c17");
    }

    #[test]
    fn the_all_zero_vector_is_credited_to_the_newest_vector() {
        // y = NOR(a, b) tested by [1, 0] alone: only the all-zero vector
        // detects y s-a-0, a s-a-1 and b s-a-1.
        let mut nl = Netlist::new("nor");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::Nor, vec![a, b], "y").unwrap();
        nl.add_output(y);
        let tests = vec![vec![true, false]];
        let zero_only = [
            Fault::stuck_at_0(y),
            Fault::stuck_at_1(a),
            Fault::stuck_at_1(b),
        ];
        assert!(zero_only
            .iter()
            .all(|&f| !verify::detects(&nl, f, &tests[0])));
        assert_eq!(compact_tests(&nl, &tests, &zero_only), tests);
        assert_matches_reference(&nl, &tests, &zero_only, "zero-only faults");
        assert_matches_reference(&nl, &tests, &fault::all_faults(&nl), "all faults");
    }

    fn c17() -> Netlist {
        bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn compaction_preserves_coverage() {
        let nl = c17();
        let res = run(
            &nl,
            &AtpgConfig {
                random_patterns: 64,
                ..AtpgConfig::default()
            },
        );
        let faults = fault::collapse(&nl);
        let compact = compact_tests(&nl, &res.tests, &faults);
        assert!(compact.len() <= res.tests.len());
        // Coverage after compaction is unchanged.
        let covered = |tests: &[Vec<bool>]| -> usize {
            detected_by_full_sweep(&nl, tests, &faults)
                .iter()
                .filter(|&&d| d)
                .count()
        };
        assert_eq!(covered(&res.tests), covered(&compact));
    }

    #[test]
    fn compaction_drops_redundant_vectors() {
        // Duplicate every vector: at least half must be dropped.
        let nl = c17();
        let res = run(&nl, &AtpgConfig::default());
        let mut doubled = res.tests.clone();
        doubled.extend(res.tests.iter().cloned());
        let faults = fault::collapse(&nl);
        let compact = compact_tests(&nl, &doubled, &faults);
        assert!(compact.len() <= res.tests.len());
        assert!(!compact.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let nl = c17();
        assert!(compact_tests(&nl, &[], &fault::collapse(&nl)).is_empty());
        let res = run(&nl, &AtpgConfig::default());
        assert!(compact_tests(&nl, &res.tests, &[]).is_empty());
    }
}
