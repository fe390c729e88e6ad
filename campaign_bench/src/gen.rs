//! Seeded workload inputs: circuits rendered to `.bench` text.
//!
//! The program under test only ever sees the rendered text, so every
//! campaign pays for parsing exactly as a user feeding files would.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use atpg_easy_circuits::random::RandomCircuitConfig;
use atpg_easy_circuits::{
    adders, alu, cellular, comparator, decoder, multiplier, mux, parity, random, suite,
};
use atpg_easy_netlist::decompose::decompose;
use atpg_easy_netlist::parser::bench;
use atpg_easy_netlist::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// One workload circuit.
#[derive(Debug, Clone)]
pub struct Circuit {
    pub name: String,
    pub text: String,
}

/// Suite circuits the serving mix leaves out: the five largest, whose
/// single campaigns would dominate a mix of many small ones.
const SERVE_EXCLUDED: [&str; 5] = ["rand240", "rand480", "cell1d96", "c5315w", "c7552w"];

fn render(name: &str, mut nl: Netlist) -> Circuit {
    // The campaign engines reject XOR/XNOR wider than two inputs.
    if nl
        .gates()
        .any(|(_, g)| matches!(g.kind, GateKind::Xor | GateKind::Xnor) && g.inputs.len() > 2)
    {
        nl = decompose(&nl, 2).expect("generated circuits decompose");
    }
    nl.set_name(name);
    Circuit {
        name: name.to_string(),
        text: bench::write(&nl).expect("bench rendering is infallible"),
    }
}

/// The bundled 32-circuit suite: `mcnc_like`, `iscas_like`, `c6288_like`.
pub fn suite() -> Vec<Circuit> {
    suite::mcnc_like()
        .into_iter()
        .chain(suite::iscas_like())
        .chain([suite::c6288_like()])
        .map(|c| render(&c.name, c.netlist))
        .collect()
}

/// The 27 small and medium suite circuits the serving mix draws from.
pub fn serve_pool() -> Vec<Circuit> {
    suite()
        .into_iter()
        .filter(|c| !SERVE_EXCLUDED.contains(&c.name.as_str()))
        .collect()
}

/// A generator call of the `circuits` crate with its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// The embedded ISCAS85 `c17`, which has no size parameter.
    C17,
    Decoder(usize),
    Mux(usize),
    Parity(usize),
    ParityChecker(usize, usize),
    RippleCarry(usize),
    CarryLookahead(usize),
    Comparator(usize),
    Cellular1d(usize),
    Cellular2d(usize, usize),
    Priority(usize),
    Alu(usize),
    Multiplier(usize),
    /// A random DAG with the suite's wiring profile.
    Random {
        gates: usize,
        inputs: usize,
        seed: u64,
    },
}

/// The suite as generator calls, in [`suite`] order. A unit test checks
/// that each call renders exactly the suite circuit of its name.
const SUITE_CALLS: [(&str, Call); 32] = [
    ("dec3", Call::Decoder(3)),
    ("dec4", Call::Decoder(4)),
    ("mux8", Call::Mux(3)),
    ("mux16", Call::Mux(4)),
    ("par16", Call::Parity(16)),
    ("rca8", Call::RippleCarry(8)),
    ("cla6", Call::CarryLookahead(6)),
    ("cmp8", Call::Comparator(8)),
    ("cell1d32", Call::Cellular1d(32)),
    ("cell1d96", Call::Cellular1d(96)),
    ("cell2d4x4", Call::Cellular2d(4, 4)),
    ("prio12", Call::Priority(12)),
    ("alu4", Call::Alu(4)),
    ("alu12", Call::Alu(12)),
    ("par64", Call::Parity(64)),
    ("rca24", Call::RippleCarry(24)),
    ("mux32", Call::Mux(5)),
    ("cmp20", Call::Comparator(20)),
    (
        "rand60",
        Call::Random {
            gates: 60,
            inputs: 12,
            seed: 1000,
        },
    ),
    (
        "rand120",
        Call::Random {
            gates: 120,
            inputs: 16,
            seed: 1001,
        },
    ),
    (
        "rand240",
        Call::Random {
            gates: 240,
            inputs: 20,
            seed: 1002,
        },
    ),
    (
        "rand480",
        Call::Random {
            gates: 480,
            inputs: 24,
            seed: 1003,
        },
    ),
    ("c17", Call::C17),
    ("c432w", Call::Priority(27)),
    ("c499w", Call::ParityChecker(8, 5)),
    ("c880w", Call::Alu(8)),
    ("c1355w", Call::Parity(41)),
    ("c1908w", Call::ParityChecker(4, 8)),
    ("c2670w", Call::Comparator(32)),
    ("c5315w", Call::Alu(24)),
    ("c7552w", Call::RippleCarry(48)),
    ("c6288w", Call::Multiplier(6)),
];

/// The `k`-th of `of` evenly spaced sizes in `[⌈p/2⌉, p]`.
fn resize(p: usize, k: usize, of: usize) -> usize {
    let lo = p.div_ceil(2);
    lo + k * (p - lo + 1) / of
}

/// The `k`-th of `of` evenly spaced cells of `[⌈a/2⌉, a] × [⌈b/2⌉, b]`.
fn resize2(a: usize, b: usize, k: usize, of: usize) -> (usize, usize) {
    let (lo_a, lo_b) = (a.div_ceil(2), b.div_ceil(2));
    let cols = b - lo_b + 1;
    let cell = k * (a - lo_a + 1) * cols / of;
    (lo_a + cell / cols, lo_b + cell % cols)
}

impl Call {
    /// The `k`-th of `of` variants of this call: every size parameter
    /// taken evenly from half the suite's size up to the suite's size,
    /// and a random DAG re-seeded from `rng`. Sizes do not depend on the
    /// seed, so every seed does about the same work.
    fn variant(self, k: usize, of: usize, rng: &mut StdRng) -> Call {
        let r = |p| resize(p, k, of);
        match self {
            Call::C17 => Call::C17,
            Call::Decoder(n) => Call::Decoder(r(n)),
            Call::Mux(n) => Call::Mux(r(n)),
            Call::Parity(n) => Call::Parity(r(n)),
            Call::ParityChecker(w, b) => {
                let (w, b) = resize2(w, b, k, of);
                Call::ParityChecker(w, b)
            }
            Call::RippleCarry(n) => Call::RippleCarry(r(n)),
            Call::CarryLookahead(n) => Call::CarryLookahead(r(n)),
            Call::Comparator(n) => Call::Comparator(r(n)),
            Call::Cellular1d(n) => Call::Cellular1d(r(n)),
            Call::Cellular2d(rows, cols) => {
                let (rows, cols) = resize2(rows, cols, k, of);
                Call::Cellular2d(rows, cols)
            }
            Call::Priority(n) => Call::Priority(r(n)),
            Call::Alu(n) => Call::Alu(r(n)),
            Call::Multiplier(n) => Call::Multiplier(r(n)),
            Call::Random { gates, inputs, .. } => {
                let g = r(gates);
                Call::Random {
                    gates: g,
                    // Inputs keep the suite circuit's ratio to gates.
                    inputs: (inputs * g).div_ceil(gates),
                    seed: rng.random_range(0..u64::MAX / 2),
                }
            }
        }
    }

    fn build(self) -> Netlist {
        match self {
            Call::C17 => suite::c17(),
            Call::Decoder(n) => decoder::decoder(n),
            Call::Mux(n) => mux::mux_tree(n),
            Call::Parity(n) => parity::parity_tree(n),
            Call::ParityChecker(w, b) => parity::parity_checker(w, b),
            Call::RippleCarry(n) => adders::ripple_carry(n),
            Call::CarryLookahead(n) => adders::carry_lookahead(n),
            Call::Comparator(n) => comparator::comparator(n),
            Call::Cellular1d(n) => cellular::cellular_1d(n),
            Call::Cellular2d(rows, cols) => cellular::cellular_2d(rows, cols),
            Call::Priority(n) => suite::priority_encoder(n),
            Call::Alu(n) => alu::alu(n),
            Call::Multiplier(n) => multiplier::array_multiplier(n),
            Call::Random {
                gates,
                inputs,
                seed,
            } => random::generate(&RandomCircuitConfig {
                gates,
                inputs,
                locality: 0.95,
                window: 12,
                far_window: 48,
                seed,
                ..RandomCircuitConfig::default()
            })
            .expect("generator config is valid"),
        }
    }
}

/// The text of a rendered circuit without its leading name comment, so
/// renamed copies of one netlist count as the same.
fn body(text: &str) -> &str {
    text.split_once('\n').map_or("", |(_, body)| body)
}

fn body_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    body(text).hash(&mut h);
    h.finish()
}

/// `text` with its input lines and its gate lines each in a seeded
/// order: the same circuit, but the parser numbers its nets, and so the
/// campaign orders its faults, differently.
fn relabel(text: &str, rng: &mut StdRng) -> String {
    let mut lines = text.lines();
    let head = lines.next().unwrap_or_default();
    let (mut inputs, mut outputs, mut gates) = (Vec::new(), Vec::new(), Vec::new());
    for line in lines {
        if line.starts_with("INPUT(") {
            inputs.push(line);
        } else if line.starts_with("OUTPUT(") {
            outputs.push(line);
        } else {
            gates.push(line);
        }
    }
    inputs.shuffle(rng);
    gates.shuffle(rng);
    let mut out = String::with_capacity(text.len());
    for line in [head].into_iter().chain(inputs).chain(outputs).chain(gates) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The batch pool: the bundled suite plus `drawn` variants of it, in a
/// seeded order.
///
/// Draw `i` is a variant of suite circuit `i mod 32`, so the drawn
/// circuits keep the suite's mix of families and sizes: its generator
/// call at sizes spread evenly from half the suite circuit's size up to
/// it, with random DAGs re-seeded. Fixed-function generators are
/// deterministic in their size, and `c17` has none, so a variant whose
/// text is already in the pool is relabelled ([`relabel`]) until it is
/// new: no text repeats, though such variants are isomorphic to an
/// earlier one.
pub fn batch_pool(seed: u64, drawn: usize) -> Vec<Circuit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6261_7463_685f_706f);
    let mut pool = suite();
    let mut seen: HashSet<u64> = pool.iter().map(|c| body_hash(&c.text)).collect();
    let n = SUITE_CALLS.len();
    for i in 0..drawn {
        let (template, call) = SUITE_CALLS[i % n];
        let of = (drawn - i % n).div_ceil(n);
        let mut c = render(
            &format!("d{i}_{template}"),
            call.variant(i / n, of, &mut rng).build(),
        );
        while !seen.insert(body_hash(&c.text)) {
            c.text = relabel(&c.text, &mut rng);
        }
        pool.push(c);
    }
    pool.shuffle(&mut rng);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_calls_render_the_suite() {
        for (c, (name, call)) in suite().iter().zip(SUITE_CALLS) {
            assert_eq!(c.name, name);
            assert_eq!(body(&render(name, call.build()).text), body(&c.text), "{name}");
        }
    }

    #[test]
    fn variants_stay_within_half_to_full_suite_size() {
        for of in [1, 5, 31, 32, 40] {
            let sizes: Vec<usize> = (0..of).map(|k| resize(24, k, of)).collect();
            assert!(sizes.iter().all(|s| (12..=24).contains(s)), "{sizes:?}");
            assert_eq!(sizes[0], 12);
            if of >= 13 {
                assert_eq!(*sizes.last().unwrap(), 24);
            }
            let cells: Vec<(usize, usize)> = (0..of).map(|k| resize2(8, 5, k, of)).collect();
            assert!(cells
                .iter()
                .all(|&(w, b)| (4..=8).contains(&w) && (3..=5).contains(&b)));
        }
    }

    #[test]
    fn batch_pool_is_seeded_and_never_repeats_a_text() {
        let a = batch_pool(5, 100);
        let b = batch_pool(5, 100);
        let c = batch_pool(6, 100);
        assert_eq!(a.len(), 132);
        let texts = |p: &[Circuit]| p.iter().map(|c| c.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        let distinct: HashSet<&str> = a.iter().map(|c| body(&c.text)).collect();
        assert_eq!(distinct.len(), a.len());
        let names: HashSet<&str> = a.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), a.len());
        for c in &a {
            bench::parse(&c.text).expect("rendered circuits parse back");
        }
    }

    #[test]
    fn relabelling_keeps_the_function() {
        let c = render("c", adders::ripple_carry(3));
        let nl = bench::parse(&c.text).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let relabelled = relabel(&c.text, &mut rng);
        assert_ne!(relabelled, c.text);
        let other = bench::parse(&relabelled).unwrap();
        // Inputs may be declared in another order: map them by name.
        let at: Vec<usize> = other
            .inputs()
            .iter()
            .map(|&i| {
                let name = &other.net(i).name;
                nl.inputs()
                    .iter()
                    .position(|&j| &nl.net(j).name == name)
                    .unwrap()
            })
            .collect();
        for m in 0u32..1 << nl.num_inputs() {
            let ins: Vec<bool> = (0..nl.num_inputs()).map(|i| m >> i & 1 == 1).collect();
            let permuted: Vec<bool> = at.iter().map(|&j| ins[j]).collect();
            assert_eq!(
                atpg_easy_netlist::sim::eval_outputs(&nl, &ins),
                atpg_easy_netlist::sim::eval_outputs(&other, &permuted)
            );
        }
    }

    #[test]
    fn serve_pool_keeps_the_27_small_and_medium_circuits() {
        let pool = serve_pool();
        assert_eq!(pool.len(), 27);
        assert!(pool
            .iter()
            .all(|c| !SERVE_EXCLUDED.contains(&c.name.as_str())));
    }
}
