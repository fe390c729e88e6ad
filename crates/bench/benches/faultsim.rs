//! Criterion bench: 64-pattern-parallel fault simulation (the fault-
//! dropping engine behind the campaign loop), and the campaign layers
//! built on it: the setup with its random-pattern phase, and test-set
//! compaction.

use atpg_easy_atpg::campaign::{self, AtpgConfig, FaultOutcome};
use atpg_easy_atpg::fault::all_faults;
use atpg_easy_atpg::faultsim::FaultSimulator;
use atpg_easy_atpg::{CampaignDriver, Fault};
use atpg_easy_circuits::{alu, multiplier, suite};
use atpg_easy_netlist::{decompose, sim::Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_faultsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_simulation");
    for (name, raw) in [
        ("alu8", alu::alu(8)),
        ("mul4", multiplier::array_multiplier(4)),
    ] {
        let nl = decompose::decompose(&raw, 3).expect("decomposes");
        let fs = FaultSimulator::new(&nl);
        let fs_cones = FaultSimulator::with_cones(&nl);
        let faults = all_faults(&nl);
        let vectors: Vec<Vec<bool>> = (0..64u64)
            .map(|p| {
                (0..nl.num_inputs())
                    .map(|i| (p >> (i % 64)) & 1 != 0)
                    .collect()
            })
            .collect();
        group.bench_function(format!("{name}_64pat_{}faults_full", faults.len()), |b| {
            b.iter(|| black_box(fs.detect_batch(&nl, &vectors, &faults)))
        });
        group.bench_function(format!("{name}_64pat_{}faults_cone", faults.len()), |b| {
            b.iter(|| black_box(fs_cones.detect_batch(&nl, &vectors, &faults)))
        });
    }
    group.finish();
}

fn bench_good_sim(c: &mut Criterion) {
    let nl = decompose::decompose(&multiplier::array_multiplier(8), 3).expect("decomposes");
    let s = Simulator::new(&nl);
    let words: Vec<u64> = (0..nl.num_inputs() as u64)
        .map(|i| i.wrapping_mul(0x9E37))
        .collect();
    c.bench_function("good_sim_mul8_64pat", |b| {
        b.iter(|| black_box(s.run(&nl, &words)))
    });
}

/// The setup of a `par_warm` campaign (preflight, collapse, static
/// prune, cones and 4096 random patterns; no warm solver), and the
/// compaction of that campaign's tests against the faults it detected.
/// `rca24`'s live fault list empties after the first batch; `c2670w`
/// keeps live faults through all 16.
fn bench_campaign_setup(c: &mut Criterion) {
    let config = AtpgConfig {
        random_patterns: 4096,
        static_prune: true,
        ..AtpgConfig::default()
    };
    let mut group = c.benchmark_group("campaign_setup");
    let circuits = suite::mcnc_like().into_iter().chain(suite::iscas_like());
    for circuit in circuits.filter(|c| ["rca24", "c2670w"].contains(&c.name.as_str())) {
        let nl = circuit.netlist;
        group.bench_function(format!("{}_try_new", circuit.name), |b| {
            b.iter(|| black_box(CampaignDriver::try_new(nl.clone(), &config, false, false)))
        });
        let result = campaign::run(&nl, &config);
        let detected: Vec<Fault> = result
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
        group.bench_function(
            format!("{}_compact_{}tests", circuit.name, result.tests.len()),
            |b| b.iter(|| black_box(campaign::compact_tests(&nl, &result.tests, &detected))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_faultsim,
    bench_good_sim,
    bench_campaign_setup
);
criterion_main!(benches);
