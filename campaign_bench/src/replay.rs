//! The traced replay: one campaign rebuilt from the program's public
//! calls, with a span around each call.
//!
//! The loop mirrors `CampaignDriver` (which `campaign::run` wraps):
//! preflight, collapse, the optional static prune, cone building, the
//! random phase, then one solve per fault not yet retired (a fresh CDCL
//! instance, or the warm incremental solver) with fault dropping after
//! every detecting vector. Each traced campaign's `detection_report` is
//! compared with the untraced engine's, and its [`Work`] — which faults
//! reached the solver, with what instances and counters — with the same
//! configuration through the program's sequential engine, so a replay
//! that drifts from the program shows up as a failed campaign.

use std::time::Duration;

use atpg_easy_atpg::campaign::{self, AtpgConfig, CampaignResult, FaultOutcome, FaultRecord};
use atpg_easy_atpg::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use atpg_easy_atpg::{fault, miter, Fault, IncrementalAtpg, SolverChoice};
use atpg_easy_cnf::circuit;
use atpg_easy_netlist::parser::bench;
use atpg_easy_sat::{Cdcl, Outcome, Solver, SolverStats};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::trace::{SpanId, Tracer};

/// Work counts of one or more replayed campaigns.
#[derive(Debug, Default)]
pub struct Counts {
    pub targets: u64,
    pub pruned: u64,
    pub random_batches: u64,
    pub random_generated: u64,
    pub random_kept: u64,
    pub random_retired: u64,
    pub drop_calls: u64,
    pub dropped: u64,
    pub miter_builds: u64,
    pub sub_nets: u64,
    pub cnf_vars: u64,
    pub cnf_clauses: u64,
    pub sat_solves: u64,
    pub sat_unsat: u64,
    pub sat_decisions: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub inc_solves: u64,
    pub inc_decisions: u64,
    pub inc_conflicts: u64,
    pub compact_in: u64,
    pub compact_out: u64,
}

/// The work a campaign's records describe: the outcome label of every
/// record in order (so which faults reached the solver), and the
/// instance sizes and solver counters summed. Everything but solve
/// times, which only vary with the host.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Work {
    labels: Vec<&'static str>,
    sub_size: usize,
    sat_vars: usize,
    sat_clauses: usize,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
}

impl Work {
    pub fn of(result: &CampaignResult) -> Work {
        let mut w = Work::default();
        for r in &result.records {
            w.labels.push(campaign::outcome_label(&r.outcome));
            w.sub_size += r.sub_size;
            w.sat_vars += r.sat_vars;
            w.sat_clauses += r.sat_clauses;
            w.decisions += r.stats.decisions;
            w.conflicts += r.stats.conflicts;
            w.propagations += r.stats.propagations;
        }
        w
    }
}

/// The record of a fault retired without a SAT instance.
fn unsolved(fault: Fault, outcome: FaultOutcome) -> FaultRecord {
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

/// Replays one campaign on `text` under `config`, recording spans under
/// a root `campaign` span tagged `campaign_id`, and returns its result.
/// With `compact`, the test set is compacted against the faults the
/// campaign detected.
///
/// # Panics
///
/// Panics on configurations the replay does not mirror (a solver other
/// than CDCL, dominance collapsing, solver budgets) and on netlists the
/// program would reject: workloads never generate either.
pub fn replay(
    text: &str,
    config: &AtpgConfig,
    compact: bool,
    tr: &mut Tracer,
    campaign_id: usize,
    counts: &mut Counts,
) -> CampaignResult {
    assert!(
        config.solver == SolverChoice::Cdcl
            && config.collapse
            && !config.dominance
            && config.limits == atpg_easy_sat::Limits::none(),
        "the replay mirrors unbudgeted, collapsed CDCL campaigns only"
    );
    let root = tr.root("campaign", campaign_id);
    let nl = tr.time("netlist.parse", root, || {
        bench::parse(text).expect("workload text parses")
    });
    if config.preflight {
        let report = tr.time("lint.preflight", root, || atpg_easy_lint::preflight(&nl));
        assert!(!report.has_errors(), "workload circuits pass preflight");
    }
    let faults = tr.time("fault.collapse", root, || fault::collapse(&nl));
    counts.targets += faults.len() as u64;
    let pruned: Vec<bool> = if config.static_prune {
        let analysis = tr.time("implic.analyze", root, || atpg_easy_implic::analyze(&nl));
        faults
            .iter()
            .map(|f| analysis.is_redundant(f.net, f.stuck))
            .collect()
    } else {
        vec![false; faults.len()]
    };
    counts.pruned += pruned.iter().filter(|&&p| p).count() as u64;
    let fs = tr.time("faultsim.cones", root, || FaultSimulator::with_cones(&nl));
    let mut bufs = SimBuffers::default();
    let mut detected = vec![false; faults.len()];
    let mut tests: Vec<Vec<bool>> = Vec::new();
    if config.random_patterns > 0 && nl.num_inputs() > 0 {
        let span = tr.open("faultsim.random", root);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut remaining = config.random_patterns;
        while remaining > 0 {
            let batch = remaining.min(WIDE_PATTERNS);
            remaining -= batch;
            let vectors: Vec<Vec<bool>> = (0..batch)
                .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
                .collect();
            let hits = fs.detect_batch_wide(&nl, &vectors, &faults, &mut bufs);
            counts.random_batches += 1;
            counts.random_generated += batch as u64;
            let mut useful = false;
            for (i, hit) in hits.into_iter().enumerate() {
                if hit && !detected[i] {
                    detected[i] = true;
                    useful = true;
                    counts.random_retired += 1;
                }
            }
            if useful {
                counts.random_kept += batch as u64;
                tests.extend(vectors);
            }
        }
        tr.close(span);
    }
    let mut warm = config.incremental.then(|| {
        tr.time("incremental.base", root, || {
            IncrementalAtpg::new(&nl, config)
        })
    });

    let mut result = CampaignResult {
        records: Vec::with_capacity(faults.len()),
        tests,
    };
    for i in 0..faults.len() {
        let f = faults[i];
        if pruned[i] {
            result
                .records
                .push(unsolved(f, FaultOutcome::StaticallyRedundant));
            continue;
        }
        if detected[i] {
            result
                .records
                .push(unsolved(f, FaultOutcome::DetectedBySimulation));
            continue;
        }
        let record = match warm.as_mut() {
            Some(warm) => solve_warm(tr, root, warm, f, config, counts),
            None => solve_fresh(tr, root, &nl, f, config.activation_clause, counts),
        };
        if let FaultOutcome::Detected(vector) = &record.outcome {
            detected[i] = true;
            if config.fault_dropping {
                let hits = tr.time("faultsim.drop", root, || {
                    fs.detect_batch_with(&nl, std::slice::from_ref(vector), &faults, &mut bufs)
                });
                counts.drop_calls += 1;
                for (j, hit) in hits.into_iter().enumerate() {
                    if hit && !detected[j] {
                        detected[j] = true;
                        counts.dropped += 1;
                    }
                }
            }
            result.tests.push(vector.clone());
        }
        result.records.push(record);
    }
    if compact {
        let hit: Vec<Fault> = result
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation
                )
            })
            .map(|r| r.fault)
            .collect();
        let kept = tr.time("campaign.compact", root, || {
            campaign::compact_tests(&nl, &result.tests, &hit)
        });
        counts.compact_in += result.tests.len() as u64;
        counts.compact_out += kept.len() as u64;
    }
    tr.close(root);
    result
}

fn solve_fresh(
    tr: &mut Tracer,
    root: SpanId,
    nl: &atpg_easy_netlist::Netlist,
    f: Fault,
    activation_clause: bool,
    counts: &mut Counts,
) -> FaultRecord {
    let m = tr.time("miter.build", root, || miter::build(nl, f));
    let enc = tr.time("cnf.encode", root, || {
        let mut enc = circuit::encode(&m.circuit).expect("miter circuits encode cleanly");
        if activation_clause {
            if let Some(clause) = miter::activation_clause(&m, &enc) {
                enc.formula.add_clause(clause);
            }
        }
        enc
    });
    let sol = tr.time("sat.solve", root, || Cdcl::new().solve(&enc.formula));
    counts.miter_builds += 1;
    counts.sub_nets += m.sub_size() as u64;
    counts.cnf_vars += enc.formula.num_vars() as u64;
    counts.cnf_clauses += enc.formula.num_clauses() as u64;
    counts.sat_solves += 1;
    counts.sat_decisions += sol.stats.decisions;
    counts.sat_conflicts += sol.stats.conflicts;
    counts.sat_propagations += sol.stats.propagations;
    let outcome = match sol.outcome {
        Outcome::Sat(model) => FaultOutcome::Detected(m.extract_test(&enc, &model, nl)),
        Outcome::Unsat => {
            counts.sat_unsat += 1;
            FaultOutcome::Untestable
        }
        Outcome::Aborted => FaultOutcome::Aborted,
    };
    FaultRecord {
        fault: f,
        outcome,
        sat_vars: enc.formula.num_vars(),
        sat_clauses: enc.formula.num_clauses(),
        sub_size: m.sub_size(),
        // Timed by its span; [`Work`] leaves times out.
        solve_time: Duration::ZERO,
        stats: sol.stats,
    }
}

fn solve_warm(
    tr: &mut Tracer,
    root: SpanId,
    warm: &mut IncrementalAtpg,
    f: Fault,
    config: &AtpgConfig,
    counts: &mut Counts,
) -> FaultRecord {
    let span = tr.open("incremental.solve_fault", root);
    let record = warm.solve_fault(f, config, None);
    tr.close(span);
    // `solve_fault` times its own solver call; the rest of the span is
    // the per-fault cone and clause building.
    tr.record_tail("incremental.solve", span, record.solve_time);
    counts.inc_solves += 1;
    counts.inc_decisions += record.stats.decisions;
    counts.inc_conflicts += record.stats.conflicts;
    record
}
