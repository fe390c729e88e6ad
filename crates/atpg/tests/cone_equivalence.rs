//! Cone-limited fault simulation must be indistinguishable from
//! whole-circuit resimulation on the full built-in suite, at both widths.
//!
//! `detect_mask_cone` re-evaluates only the fault's transitive fan-out;
//! `detect_mask_full` sweeps every gate. For every suite circuit, every
//! collapsed fault, and one word of random patterns — 64 on `u64`, 256
//! on a `PatternBlock` — the two detection words must be bit-identical,
//! and the shared scratch buffer must come back clean.

use atpg_easy_atpg::fault;
use atpg_easy_atpg::faultsim::{pack_vectors, FaultSimulator};
use atpg_easy_circuits::suite;
use atpg_easy_netlist::{Lanes, Netlist, PatternBlock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_vectors(nl: &Netlist, rng: &mut StdRng, count: usize) -> Vec<Vec<bool>> {
    (0..count)
        .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
        .collect()
}

fn check_circuit<W: Lanes>(name: &str, nl: &Netlist, rng: &mut StdRng) {
    let fs = FaultSimulator::with_cones(nl);
    let vectors = random_vectors(nl, rng, W::PATTERNS);
    let words: Vec<W> = pack_vectors(nl, &vectors);
    let good = fs.good_values(nl, &words);
    let mut scratch = good.clone();
    for f in fault::collapse(nl) {
        let cone = fs.detect_mask_cone(nl, &good, &mut scratch, f);
        let full = fs.detect_mask_full(nl, &words, &good, f);
        assert_eq!(
            cone,
            full,
            "{name} at {} patterns: cone and full resim disagree on {}",
            W::PATTERNS,
            f.describe(nl)
        );
        assert_eq!(
            scratch,
            good,
            "{name} at {} patterns: scratch not restored after {}",
            W::PATTERNS,
            f.describe(nl)
        );
    }
}

fn check_both_widths(name: &str, nl: &Netlist, rng: &mut StdRng) {
    check_circuit::<u64>(name, nl, rng);
    check_circuit::<PatternBlock>(name, nl, rng);
}

#[test]
fn cone_equals_full_on_mcnc_suite() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for c in suite::mcnc_like() {
        check_both_widths(&c.name, &c.netlist, &mut rng);
    }
}

#[test]
fn cone_equals_full_on_iscas_suite() {
    let mut rng = StdRng::seed_from_u64(0xC0DF);
    for c in suite::iscas_like() {
        check_both_widths(&c.name, &c.netlist, &mut rng);
    }
}

#[test]
fn cone_equals_full_on_multiplier() {
    let mut rng = StdRng::seed_from_u64(0xC0E0);
    let c = suite::c6288_like();
    check_both_widths(&c.name, &c.netlist, &mut rng);
}
