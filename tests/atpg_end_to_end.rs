//! End-to-end ATPG integration tests across generators, miter, solvers,
//! fault simulation and verification.

use std::collections::HashMap;

use atpg_easy::atpg::campaign::{self, run, AtpgConfig, FaultOutcome, SolverChoice};
use atpg_easy::atpg::parallel::AtpgCampaign;
use atpg_easy::atpg::{fault, miter, verify, Fault, IncrementalAtpg};
use atpg_easy::circuits::{adders, comparator, mux, parity, random, suite};
use atpg_easy::cnf::circuit;
use atpg_easy::netlist::{decompose, sim, Netlist};
use atpg_easy::sat::{Cdcl, Solver};

/// Exhaustive ground truth (inputs ≤ 12): is any vector a test for ψ?
fn detectable_exhaustive(nl: &Netlist, f: Fault) -> bool {
    let n = nl.num_inputs();
    assert!(n <= 12);
    let s = sim::Simulator::new(nl);
    let forced = if f.stuck { !0u64 } else { 0 };
    (0u32..(1 << n)).any(|m| {
        let ins: Vec<u64> = (0..n)
            .map(|i| if m >> i & 1 != 0 { !0 } else { 0 })
            .collect();
        let good = s.run(nl, &ins);
        let bad = s.run_with_forced(nl, &ins, f.net, forced);
        nl.outputs()
            .iter()
            .any(|&o| good[o.index()] & 1 != bad[o.index()] & 1)
    })
}

#[test]
fn miter_matches_exhaustive_on_random_circuits() {
    // Every fault through three paths: the netlist miter, the fresh
    // engine's CNF instance (`solve_one`) and the warm engine's guarded
    // groups (one `IncrementalAtpg` per circuit, faults in list order).
    // The engines share their construction code, so they are checked
    // against exhaustive simulation, which shares nothing with them.
    let config = AtpgConfig::default();
    for seed in 0..4 {
        let raw = random::generate(&random::RandomCircuitConfig {
            gates: 25,
            inputs: 6,
            seed,
            ..Default::default()
        })
        .unwrap();
        let nl = decompose::decompose(&raw, 3).unwrap();
        let mut warm = IncrementalAtpg::new(&nl, &config);
        for f in fault::all_faults(&nl) {
            let truth = detectable_exhaustive(&nl, f);
            let at = format!("seed {seed}, fault {}", f.describe(&nl));
            let m = miter::build(&nl, f);
            let enc = circuit::encode(&m.circuit).unwrap();
            let outcome = Cdcl::new().solve(&enc.formula).outcome;
            assert_eq!(outcome.is_sat(), truth, "miter: {at}");
            if let Some(model) = outcome.model() {
                let vector = m.extract_test(&enc, model, &nl);
                assert!(verify::detects(&nl, f, &vector), "miter: {at}");
            }
            let fresh = campaign::solve_one(&nl, f, &config);
            let warmed = warm.solve_fault(f, &config, None);
            for (engine, record) in [("fresh", fresh), ("warm", warmed)] {
                match &record.outcome {
                    FaultOutcome::Detected(v) => {
                        assert!(truth, "{engine}: {at} is untestable");
                        assert!(verify::detects(&nl, f, v), "{engine}: {at}");
                    }
                    FaultOutcome::Untestable => assert!(!truth, "{engine}: {at} is testable"),
                    other => panic!("{engine}: {at}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn campaign_verdicts_match_exhaustive_on_random_circuits() {
    // Every record of whole campaigns, through each engine fresh and
    // warm: sequential with and without random patterns, certified, and
    // parallel at 2 threads with windows 1 and 16. Dropping and random
    // patterns retire faults by simulation, so this checks the verdicts
    // the campaigns report, not only single solves.
    for seed in 0..20 {
        let raw = random::generate(&random::RandomCircuitConfig {
            gates: 30,
            inputs: 6 + seed as usize % 7,
            seed,
            ..Default::default()
        })
        .unwrap();
        let nl = decompose::decompose(&raw, 3).unwrap();
        let mut truth = HashMap::new();
        for incremental in [false, true] {
            let config = AtpgConfig {
                incremental,
                ..AtpgConfig::default()
            };
            let parallel = |window| {
                AtpgCampaign::new(config)
                    .with_threads(2)
                    .with_commit_window(window)
                    .run(&nl)
                    .result
            };
            let runs = [
                ("patterns 0", run(&nl, &config)),
                (
                    "patterns 64",
                    run(
                        &nl,
                        &AtpgConfig {
                            random_patterns: 64,
                            ..config
                        },
                    ),
                ),
                ("certified", campaign::run_certified(&nl, &config).result),
                ("window 1", parallel(1)),
                ("window 16", parallel(16)),
            ];
            for (engine, result) in &runs {
                for r in &result.records {
                    let f = r.fault;
                    let testable = *truth
                        .entry(f)
                        .or_insert_with(|| detectable_exhaustive(&nl, f));
                    let at = format!(
                        "seed {seed}, incremental {incremental}, {engine}, fault {}",
                        f.describe(&nl)
                    );
                    match &r.outcome {
                        FaultOutcome::Detected(v) => {
                            assert!(testable, "{at}: untestable fault detected");
                            assert!(verify::detects(&nl, f, v), "{at}: vector is no test");
                        }
                        FaultOutcome::DetectedBySimulation => {
                            assert!(testable, "{at}: untestable fault detected");
                        }
                        FaultOutcome::Untestable | FaultOutcome::StaticallyRedundant => {
                            assert!(!testable, "{at}: testable fault called untestable");
                        }
                        FaultOutcome::Aborted => panic!("{at}: aborted"),
                    }
                }
            }
        }
    }
}

#[test]
fn campaign_full_coverage_on_testable_circuits() {
    // These generators produce irredundant logic: everything testable.
    for raw in [
        adders::ripple_carry(6),
        parity::parity_tree(12),
        comparator::comparator(5),
    ] {
        let nl = decompose::decompose(&raw, 3).unwrap();
        let res = run(&nl, &AtpgConfig::default());
        assert_eq!(res.aborted(), 0, "{}", nl.name());
        assert!(
            (res.coverage() - 1.0).abs() < 1e-9,
            "{}: coverage {}",
            nl.name(),
            res.coverage()
        );
        for r in &res.records {
            if let FaultOutcome::Detected(v) = &r.outcome {
                assert!(verify::detects(&nl, r.fault, v));
            }
        }
    }
}

#[test]
fn solver_choices_agree_on_verdicts() {
    let nl = decompose::decompose(&mux::mux_tree(2), 3).unwrap();
    let mut verdicts: Option<Vec<bool>> = None;
    for solver in [
        SolverChoice::Cdcl,
        SolverChoice::Dpll,
        SolverChoice::Caching,
    ] {
        let res = run(
            &nl,
            &AtpgConfig {
                solver,
                fault_dropping: false,
                ..AtpgConfig::default()
            },
        );
        let v: Vec<bool> = res
            .records
            .iter()
            .map(|r| matches!(r.outcome, FaultOutcome::Detected(_)))
            .collect();
        match &verdicts {
            None => verdicts = Some(v),
            Some(expect) => assert_eq!(expect, &v, "{solver:?}"),
        }
    }
}

#[test]
fn random_patterns_plus_sat_equals_sat_only_coverage() {
    let nl = decompose::decompose(&suite::priority_encoder(10), 3).unwrap();
    let sat_only = run(&nl, &AtpgConfig::default());
    let seeded = run(
        &nl,
        &AtpgConfig {
            random_patterns: 256,
            ..AtpgConfig::default()
        },
    );
    assert_eq!(sat_only.detected(), seeded.detected());
    assert_eq!(sat_only.untestable(), seeded.untestable());
    // Seeding must strictly reduce the number of SAT calls here.
    assert!(seeded.sat_records().count() < sat_only.sat_records().count());
}

#[test]
fn decomposition_preserves_campaign_results() {
    // Coverage of a circuit and its decomposed form agree on shared nets.
    let raw = comparator::comparator(4);
    let dec = decompose::decompose(&raw, 2).unwrap();
    let res_raw = run(&raw, &AtpgConfig::default());
    let res_dec = run(&dec, &AtpgConfig::default());
    assert!((res_raw.coverage() - 1.0).abs() < 1e-9);
    assert!((res_dec.coverage() - 1.0).abs() < 1e-9);
}

#[test]
fn c17_known_fault_statistics() {
    // c17 has 34 potential faults (2 per net × 11 nets = 22 stem faults
    // in our net model), all testable; collapsing shrinks the list.
    let nl = suite::c17();
    let all = fault::all_faults(&nl);
    assert_eq!(all.len(), 2 * nl.num_nets());
    let collapsed = fault::collapse(&nl);
    assert!(collapsed.len() < all.len());
    let res = run(
        &nl,
        &AtpgConfig {
            collapse: false,
            ..AtpgConfig::default()
        },
    );
    assert_eq!(res.records.len(), all.len());
    assert_eq!(res.untestable(), 0);
    assert!((res.coverage() - 1.0).abs() < 1e-9);
}
