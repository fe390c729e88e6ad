//! Criterion bench + guard: DRAT proof logging must be free when the
//! sink is disabled.
//!
//! Every solver routes through `solve_with<P: Probe, S: ProofSink>`, so
//! the proof hooks are *always* in the source. `solve_certified`
//! dispatches on `sink.enabled()` exactly once: a disabled sink re-enters
//! the very same [`NoProof`]-monomorphized instantiation `solve_probed`
//! uses, where the ZST's constant-`false` `enabled()` compiles every
//! emission site away. The zero-cost claim is therefore that
//! `solve_certified` with [`NoProof`] costs nothing measurable over
//! `solve_probed` — one extra `enabled()` test per solve.
//!
//! The `proof_overhead_guard` bench enforces this with a paired variant
//! of the probe guard's min-of-batches statistics — the ratio is taken
//! per adjacent batch pair, then the median is used, so clock drift
//! cancels and preemption spikes are filtered — and panics when the
//! budget is exceeded. The
//! guard lives in its own bench target — sharing a binary with the probe
//! guard shifts code layout enough (~3% on the 7µs c17 instance) to
//! destabilize both 1% assertions. CI compiles this target
//! (`cargo bench -p atpg-easy-bench --no-run`); run
//! `cargo bench -p atpg-easy-bench --bench proof` to execute the guard
//! and the comparison group.

use std::hint::black_box;
use std::time::Instant;

use atpg_easy_atpg::{fault, miter};
use atpg_easy_circuits::suite;
use atpg_easy_cnf::{circuit, CnfFormula, Lit, Var};
use atpg_easy_netlist::decompose;
use atpg_easy_obs::NoProbe;
use atpg_easy_sat::{Cdcl, Dpll, DratProof, NoProof, Solver};
use criterion::{criterion_group, criterion_main, Criterion};

fn atpg_instance() -> CnfFormula {
    let nl = decompose::decompose(&suite::c17(), 3).expect("decomposes");
    let f = fault::collapse(&nl)[3];
    let m = miter::build(&nl, f);
    circuit::encode(&m.circuit).expect("encodes").formula
}

/// The pigeonhole principle PHP(`pigeons`, `pigeons − 1`) as CNF —
/// unsatisfiable, with no short resolution refutation, so every solver
/// grinds through many conflicts per solve. The guard instance wants
/// exactly that: proof emission fires per conflict, so a sink that is no
/// longer compiled away costs a large, unmistakable fraction of the
/// solve — far above the few-percent code-placement bias that plagues
/// microsecond-scale timing comparisons.
fn pigeonhole(pigeons: usize) -> CnfFormula {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut f = CnfFormula::new(pigeons * holes);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))).collect());
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                f.add_clause(vec![Lit::negative(var(p, h)), Lit::negative(var(q, h))]);
            }
        }
    }
    f
}

/// Median per-batch time ratio of two alternatives, measured in adjacent
/// batches of `iters` calls so both sides of every pair see the same
/// frequency and scheduler state. Pairing cancels the slow clock drift
/// that makes independent minima wander by a few percent on shared
/// machines; alternating which side runs first cancels within-pair order
/// bias; and the median over pairs is robust against preemption spikes
/// in either direction — while a genuine constant overhead on side `a`
/// inflates *every* pair's ratio and shifts the median with it. Also
/// returns the minimum per-call times seen, for reporting.
fn median_batch_ratio<A: FnMut(), B: FnMut()>(
    mut a: A,
    mut b: B,
    batches: usize,
    iters: usize,
) -> (f64, f64, f64) {
    for _ in 0..iters {
        a();
        b();
    }
    let mut ratios = Vec::with_capacity(batches);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for batch in 0..batches {
        let time = |side: &mut dyn FnMut()| {
            let start = Instant::now();
            for _ in 0..iters {
                side();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        };
        let (ns_a, ns_b) = if batch % 2 == 0 {
            let ns_a = time(&mut a);
            (ns_a, time(&mut b))
        } else {
            let ns_b = time(&mut b);
            (time(&mut a), ns_b)
        };
        ratios.push(ns_a / ns_b);
        best_a = best_a.min(ns_a);
        best_b = best_b.min(ns_b);
    }
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], best_a, best_b)
}

/// Panics unless `solve_certified` with the disabled [`NoProof`] sink
/// stays within the noise floor of `solve_probed` on DPLL and CDCL.
/// Both sides run the identical inner instantiation, so the only
/// difference under test is the sink dispatch; the probe dimension is
/// covered by the probe bench's `probe_overhead_guard`.
///
/// The budget is 5%, not 1%: repeated runs of *identical* code on this
/// comparison show a per-process code-placement bias of up to ~3%
/// (different ASLR/layout each run shifts one loop's alignment), which
/// no amount of in-process statistics can cancel. The pigeonhole
/// instance makes the budget strict anyway — proof emission fires at
/// every one of its thousands of conflicts, so a sink that is no longer
/// compiled away costs far more than 5% (the pre-dispatch `dyn` sink
/// measured ~2.8% on a near-conflict-free instance; conflict-dense
/// instances multiply that), while the true dispatch cost is one
/// `enabled()` call per solve — well under 1%, invisible here.
fn proof_overhead_guard(_c: &mut Criterion) {
    let formula = pigeonhole(7);
    type Check = (&'static str, fn(&CnfFormula) -> (f64, f64, f64));
    let checks: [Check; 2] = [
        ("dpll", |f| {
            median_batch_ratio(
                || {
                    drop(black_box(Dpll::new().solve_certified(
                        f,
                        &mut NoProbe,
                        &mut NoProof,
                    )))
                },
                || drop(black_box(Dpll::new().solve_probed(f, &mut NoProbe))),
                40,
                8,
            )
        }),
        ("cdcl", |f| {
            median_batch_ratio(
                || {
                    drop(black_box(Cdcl::new().solve_certified(
                        f,
                        &mut NoProbe,
                        &mut NoProof,
                    )))
                },
                || drop(black_box(Cdcl::new().solve_probed(f, &mut NoProbe))),
                40,
                8,
            )
        }),
    ];
    for (name, bench_pair) in checks {
        let (ratio, certified_ns, probed_ns) = bench_pair(&formula);
        println!(
            "proof_overhead_guard {name}: certified(NoProof) {certified_ns:.0}ns \
             probed {probed_ns:.0}ns ratio {ratio:.3}"
        );
        assert!(
            ratio <= 1.05,
            "{name}: the disabled-sink certified path is {:.1}% slower than the \
             probed path — proof logging is no longer free when off",
            (ratio - 1.0) * 100.0
        );
    }
}

/// What certification costs when it is *on*: the disabled-sink path vs
/// recording a full [`DratProof`] per solve.
fn bench_proof_paths(c: &mut Criterion) {
    let formula = atpg_instance();
    let mut group = c.benchmark_group("proof_paths_c17_fault");
    group.bench_function("cdcl_noproof_certified", |b| {
        b.iter(|| black_box(Cdcl::new().solve_certified(&formula, &mut NoProbe, &mut NoProof)))
    });
    group.bench_function("cdcl_drat_certified", |b| {
        b.iter(|| {
            let mut proof = DratProof::new();
            black_box(Cdcl::new().solve_certified(&formula, &mut NoProbe, &mut proof))
        })
    });
    group.bench_function("dpll_noproof_certified", |b| {
        b.iter(|| black_box(Dpll::new().solve_certified(&formula, &mut NoProbe, &mut NoProof)))
    });
    group.bench_function("dpll_drat_certified", |b| {
        b.iter(|| {
            let mut proof = DratProof::new();
            black_box(Dpll::new().solve_certified(&formula, &mut NoProbe, &mut proof))
        })
    });
    group.finish();
}

criterion_group!(benches, proof_overhead_guard, bench_proof_paths);
criterion_main!(benches);
