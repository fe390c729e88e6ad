//! Criterion bench: the four solvers on the same ATPG-SAT instances
//! (the S4.1 ablation, timed), CDCL scaling, and what reusing one CDCL
//! engine across a campaign's fresh instances saves.

use atpg_easy_atpg::{fault, miter};
use atpg_easy_circuits::suite;
use atpg_easy_cnf::{circuit, CnfFormula};
use atpg_easy_netlist::{decompose, Netlist};
use atpg_easy_sat::{CachingBacktracking, Cdcl, Dpll, SimpleBacktracking, Solver};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn atpg_instance() -> CnfFormula {
    let nl = decompose::decompose(&suite::c17(), 3).expect("decomposes");
    let f = fault::collapse(&nl)[3];
    let m = miter::build(&nl, f);
    circuit::encode(&m.circuit).expect("encodes").formula
}

fn bench_solvers(c: &mut Criterion) {
    let formula = atpg_instance();
    let mut group = c.benchmark_group("solvers_c17_fault");
    group.bench_function("simple", |b| {
        b.iter(|| black_box(SimpleBacktracking::new().solve(&formula)))
    });
    group.bench_function("caching", |b| {
        b.iter(|| black_box(CachingBacktracking::new().solve(&formula)))
    });
    group.bench_function("dpll", |b| {
        b.iter(|| black_box(Dpll::new().solve(&formula)))
    });
    group.bench_function("cdcl", |b| {
        b.iter(|| black_box(Cdcl::new().solve(&formula)))
    });
    group.finish();
}

fn bench_cdcl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdcl_adder_scaling");
    for n in [4usize, 8, 16] {
        let nl = decompose::decompose(&atpg_easy_circuits::adders::ripple_carry(n), 3)
            .expect("decomposes");
        let f = *fault::collapse(&nl).last().expect("faults exist");
        let m = miter::build(&nl, f);
        let formula = circuit::encode(&m.circuit).expect("encodes").formula;
        group.bench_function(format!("rca{n}"), |b| {
            b.iter(|| black_box(Cdcl::new().solve(&formula)))
        });
    }
    group.finish();
}

/// The fresh instance `campaign::run` solves for every collapsed fault
/// of `nl` when no random pattern or dropping retires it: the miter's
/// CIRCUIT-SAT clauses plus the activation unit.
fn campaign_instances(nl: &Netlist) -> Vec<CnfFormula> {
    let nl = decompose::decompose(nl, 3).expect("decomposes");
    fault::collapse(&nl)
        .into_iter()
        .map(|f| {
            let m = miter::build(&nl, f);
            let mut enc = circuit::encode(&m.circuit).expect("encodes");
            if let Some(unit) = miter::activation_clause(&m, &enc) {
                enc.formula.add_clause(unit);
            }
            enc.formula
        })
        .collect()
}

/// Every fresh instance of a circuit, solved by a new `Cdcl` each, and
/// by one `Cdcl` whose engine every solve resets and reuses.
fn bench_cdcl_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdcl_engine_reuse");
    let circuits = suite::iscas_like().into_iter().chain(suite::mcnc_like());
    for named in circuits.filter(|c| ["c880w", "c7552w", "rand240"].contains(&c.name.as_str())) {
        let instances = campaign_instances(&named.netlist);
        group.bench_function(format!("{}/new_per_instance", named.name), |b| {
            b.iter(|| {
                for f in &instances {
                    black_box(Cdcl::new().solve(f));
                }
            })
        });
        let mut reused = Cdcl::new();
        group.bench_function(format!("{}/reused", named.name), |b| {
            b.iter(|| {
                for f in &instances {
                    black_box(reused.solve(f));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_cdcl_scaling, bench_cdcl_reuse);
criterion_main!(benches);
