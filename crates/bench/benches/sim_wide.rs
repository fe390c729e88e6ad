//! Criterion bench: 64-wide vs 256-wide bit-parallel simulation.
//!
//! Measures patterns/sec of the one simulation kernel instantiated on a
//! `u64` word per net against the 4-lane [`PatternBlock`], on
//! good-circuit simulation and on the fault-dropping batch path.
//! Throughput is reported in patterns, so the two widths are directly
//! comparable: the block layout amortizes the per-gate dispatch and
//! gather over four lanes and the lane loops autovectorize, so it should
//! clear 2x the 64-wide patterns/sec. Run with
//! `cargo bench -p atpg-easy-bench --bench sim_wide`.

use atpg_easy_atpg::fault::all_faults;
use atpg_easy_atpg::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use atpg_easy_circuits::{alu, multiplier};
use atpg_easy_netlist::{decompose, sim::Simulator, PatternBlock};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn bench_good_sim_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("good_sim_width");
    for (name, raw) in [
        ("alu8", alu::alu(8)),
        ("mul8", multiplier::array_multiplier(8)),
    ] {
        let nl = decompose::decompose(&raw, 3).expect("decomposes");
        let s = Simulator::new(&nl);
        let mut state = 0x5eed_u64;
        let words: Vec<u64> = (0..nl.num_inputs()).map(|_| splitmix(&mut state)).collect();
        let blocks: Vec<PatternBlock> = (0..nl.num_inputs())
            .map(|_| {
                [
                    splitmix(&mut state),
                    splitmix(&mut state),
                    splitmix(&mut state),
                    splitmix(&mut state),
                ]
            })
            .collect();
        let mut word_buf = Vec::new();
        let mut block_buf = Vec::new();

        group.throughput(Throughput::Elements(64));
        group.bench_function(format!("{name}_64wide"), |b| {
            b.iter(|| {
                s.run_into(&nl, black_box(&words), &mut word_buf);
                black_box(&word_buf);
            })
        });
        group.throughput(Throughput::Elements(256));
        group.bench_function(format!("{name}_256wide"), |b| {
            b.iter(|| {
                s.run_into(&nl, black_box(&blocks), &mut block_buf);
                black_box(&block_buf);
            })
        });
    }
    group.finish();
}

fn bench_fault_drop_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_drop_width");
    let nl = decompose::decompose(&alu::alu(8), 3).expect("decomposes");
    let fs = FaultSimulator::with_cones(&nl);
    let faults = all_faults(&nl);
    let vectors: Vec<Vec<bool>> = (0..WIDE_PATTERNS as u64)
        .map(|p| {
            (0..nl.num_inputs())
                .map(|i| (p >> (i as u64 % 64)) & 1 != 0)
                .collect()
        })
        .collect();
    let mut bufs = SimBuffers::default();

    group.throughput(Throughput::Elements(WIDE_PATTERNS as u64));
    group.bench_function(format!("alu8_{}faults_4x64wide", faults.len()), |b| {
        b.iter(|| {
            // The classic path: four independent 64-pattern batches.
            for chunk in vectors.chunks(64) {
                black_box(fs.detect_batch_with(&nl, chunk, &faults, &mut bufs));
            }
        })
    });
    group.bench_function(format!("alu8_{}faults_256wide", faults.len()), |b| {
        b.iter(|| black_box(fs.detect_batch_wide(&nl, &vectors, &faults, &mut bufs)))
    });
    group.finish();
}

criterion_group!(benches, bench_good_sim_width, bench_fault_drop_width);
criterion_main!(benches);
