//! Criterion bench + guard: telemetry probes must be free when disabled.
//!
//! Every solver routes through `solve_with<P: Probe + ?Sized>`, so the
//! probe hooks are *always* in the source. The zero-cost claim is that
//! instantiating at [`NoProbe`] (a ZST whose `enabled()` is a constant
//! `false`) monomorphizes the hooks away entirely, so `solve()` costs no
//! more than 1% over the dynamically-dispatched no-op path — in practice
//! it should be at or below it, since `dyn Probe` pays a vtable call per
//! event site.
//!
//! The `probe_overhead_guard` bench enforces this with min-of-batches
//! statistics (minima are robust against scheduler noise) and panics if
//! the monomorphized path exceeds the budget. CI compiles this target
//! (`cargo bench -p atpg-easy-bench --no-run`); run
//! `cargo bench -p atpg-easy-bench --bench probe` to execute the guard
//! and the comparison groups.

use std::hint::black_box;
use std::time::Instant;

use atpg_easy_atpg::{fault, miter};
use atpg_easy_circuits::suite;
use atpg_easy_cnf::{circuit, CnfFormula};
use atpg_easy_netlist::decompose;
use atpg_easy_obs::{CountingProbe, NoProbe};
use atpg_easy_sat::{Cdcl, Dpll, Solver};
use criterion::{criterion_group, criterion_main, Criterion};

fn atpg_instance() -> CnfFormula {
    let nl = decompose::decompose(&suite::c17(), 3).expect("decomposes");
    let f = fault::collapse(&nl)[3];
    let m = miter::build(&nl, f);
    circuit::encode(&m.circuit).expect("encodes").formula
}

/// Minimum per-call times for two alternatives, measured in alternating
/// batches of `iters` calls so both sides see the same thermal and
/// scheduler conditions. The minimum across batches filters out
/// preemption and frequency wobble, which only ever make a batch slower.
fn min_batch_ns_pair<A: FnMut(), B: FnMut()>(
    mut a: A,
    mut b: B,
    batches: usize,
    iters: usize,
) -> (f64, f64) {
    // Warm both paths (code, caches, allocator) before timing anything.
    for _ in 0..iters {
        a();
        b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..iters {
            a();
        }
        best_a = best_a.min(start.elapsed().as_nanos() as f64 / iters as f64);
        let start = Instant::now();
        for _ in 0..iters {
            b();
        }
        best_b = best_b.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    (best_a, best_b)
}

/// Panics unless the monomorphized `NoProbe` path stays within 1% of the
/// dynamically-dispatched no-op path on DPLL and CDCL.
fn probe_overhead_guard(_c: &mut Criterion) {
    let formula = atpg_instance();
    type Check = (&'static str, fn(&CnfFormula) -> (f64, f64));
    let checks: [Check; 2] = [
        ("dpll", |f| {
            min_batch_ns_pair(
                || drop(black_box(Dpll::new().solve(f))),
                || drop(black_box(Dpll::new().solve_probed(f, &mut NoProbe))),
                60,
                200,
            )
        }),
        ("cdcl", |f| {
            min_batch_ns_pair(
                || drop(black_box(Cdcl::new().solve(f))),
                || drop(black_box(Cdcl::new().solve_probed(f, &mut NoProbe))),
                60,
                200,
            )
        }),
    ];
    for (name, bench_pair) in checks {
        let (static_ns, dyn_ns) = bench_pair(&formula);
        let ratio = static_ns / dyn_ns;
        println!("probe_overhead_guard {name}: static {static_ns:.0}ns dyn {dyn_ns:.0}ns ratio {ratio:.3}");
        assert!(
            ratio <= 1.01,
            "{name}: monomorphized NoProbe path is {:.1}% slower than the \
             dyn no-op path — the probe hooks are no longer compiled away",
            (ratio - 1.0) * 100.0
        );
    }
}

fn bench_probe_paths(c: &mut Criterion) {
    let formula = atpg_instance();
    let mut group = c.benchmark_group("probe_paths_c17_fault");
    group.bench_function("dpll_noprobe_static", |b| {
        b.iter(|| black_box(Dpll::new().solve(&formula)))
    });
    group.bench_function("dpll_noprobe_dyn", |b| {
        b.iter(|| black_box(Dpll::new().solve_probed(&formula, &mut NoProbe)))
    });
    group.bench_function("dpll_counting_dyn", |b| {
        b.iter(|| {
            let mut probe = CountingProbe::default();
            black_box(Dpll::new().solve_probed(&formula, &mut probe))
        })
    });
    group.bench_function("cdcl_noprobe_static", |b| {
        b.iter(|| black_box(Cdcl::new().solve(&formula)))
    });
    group.bench_function("cdcl_counting_dyn", |b| {
        b.iter(|| {
            let mut probe = CountingProbe::default();
            black_box(Cdcl::new().solve_probed(&formula, &mut probe))
        })
    });
    group.finish();
}

criterion_group!(benches, probe_overhead_guard, bench_probe_paths);
criterion_main!(benches);
