//! The random-pattern phase against a full-list reference.
//!
//! `CampaignDriver` simulates each 256-pattern batch against the live
//! faults only and stops once none is left. The reference below is the
//! plain loop built from public calls: every batch is generated and
//! simulated against every collapsed fault, and a batch is kept iff it
//! retires a fault no earlier batch retired. The driver must keep the
//! same tests and report the same retirement count, with the static
//! prune off and on.

use atpg_easy_atpg::campaign::AtpgConfig;
use atpg_easy_atpg::{fault, CampaignDriver, FaultSimulator, SimBuffers, WIDE_PATTERNS};
use atpg_easy_circuits::suite::{self, NamedCircuit};
use atpg_easy_netlist::Netlist;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The kept tests and the number of faults they retire.
fn reference(nl: &Netlist, config: &AtpgConfig) -> (Vec<Vec<bool>>, usize) {
    let faults = fault::collapse(nl);
    let fs = FaultSimulator::with_cones(nl);
    let mut bufs = SimBuffers::default();
    let mut detected = vec![false; faults.len()];
    let mut tests = Vec::new();
    if nl.num_inputs() == 0 {
        return (tests, 0);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut remaining = config.random_patterns;
    while remaining > 0 {
        let batch = remaining.min(WIDE_PATTERNS);
        remaining -= batch;
        let vectors: Vec<Vec<bool>> = (0..batch)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
            .collect();
        let hits = fs.detect_batch_wide(nl, &vectors, &faults, &mut bufs);
        let mut useful = false;
        for (i, hit) in hits.into_iter().enumerate() {
            if hit && !detected[i] {
                detected[i] = true;
                useful = true;
            }
        }
        if useful {
            tests.extend(vectors);
        }
    }
    (tests, detected.iter().filter(|&&d| d).count())
}

fn check(c: &NamedCircuit, patterns: usize) {
    for static_prune in [false, true] {
        let config = AtpgConfig {
            random_patterns: patterns,
            static_prune,
            ..AtpgConfig::default()
        };
        let (tests, retired) = reference(&c.netlist, &config);
        let d = CampaignDriver::try_new(c.netlist.clone(), &config, false, false).unwrap();
        let what = format!(
            "{} at {patterns} patterns, static_prune={static_prune}",
            c.name
        );
        assert_eq!(d.result().tests, tests, "{what}: kept tests");
        assert_eq!(d.sim_detected(), retired, "{what}: retired faults");
    }
}

fn suite_circuits() -> Vec<NamedCircuit> {
    let mut circuits = suite::mcnc_like();
    circuits.extend(suite::iscas_like());
    circuits.push(suite::c6288_like());
    circuits
}

fn check_suite(patterns: usize) {
    for c in suite_circuits() {
        check(&c, patterns);
    }
}

/// One full batch.
#[test]
fn driver_matches_the_full_list_reference_at_256_patterns() {
    check_suite(256);
}

/// Three full batches and a 232-pattern one.
#[test]
fn driver_matches_the_full_list_reference_at_1000_patterns() {
    check_suite(1000);
}

/// 16 batches: the live list empties after the first on most circuits
/// and lasts all 16 on a few (`prio12`, `cmp20`, `c2670w`, the random
/// DAGs).
#[test]
fn driver_matches_the_full_list_reference_at_4096_patterns() {
    check_suite(4096);
}
