//! Cross-crate consistency: simulation ↔ CNF encoding ↔ decomposition ↔
//! parser round-trips, on randomly generated circuits.

use atpg_easy::circuits::random::{self, RandomCircuitConfig};
use atpg_easy::cnf::circuit;
use atpg_easy::netlist::parser::{bench, blif};
use atpg_easy::netlist::{decompose, sim, Netlist};
use proptest::prelude::*;

fn small_circuit() -> impl Strategy<Value = Netlist> {
    (5usize..40, 2usize..7, 0u64..500).prop_map(|(gates, inputs, seed)| {
        random::generate(&RandomCircuitConfig {
            gates,
            inputs,
            seed,
            ..Default::default()
        })
        .expect("valid config")
    })
}

fn outputs_for_all_minterms(nl: &Netlist) -> Vec<Vec<bool>> {
    let n = nl.num_inputs();
    (0u32..(1 << n))
        .map(|m| {
            let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
            sim::eval_outputs(nl, &ins)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulation_satisfies_gate_clauses(nl in small_circuit()) {
        let enc = circuit::encode_consistency(&nl).expect("encodes");
        let n = nl.num_inputs();
        for m in 0u32..(1 << n).min(64) {
            let ins: Vec<bool> = (0..n).map(|i| m >> i & 1 != 0).collect();
            let values = sim::eval(&nl, &ins);
            prop_assert!(enc.formula.eval_complete(&values));
        }
    }

    #[test]
    fn circuit_sat_matches_simulation(nl in small_circuit()) {
        // CIRCUIT-SAT is satisfiable iff some input vector raises an output.
        let enc = circuit::encode(&nl).expect("encodes");
        let reachable = outputs_for_all_minterms(&nl)
            .iter()
            .any(|outs| outs.iter().any(|&b| b));
        use atpg_easy::sat::Solver as _;
        let sol = atpg_easy::sat::Cdcl::new().solve(&enc.formula);
        prop_assert_eq!(sol.outcome.is_sat(), reachable);
    }

    #[test]
    fn decomposition_is_equivalent(nl in small_circuit()) {
        let dec = decompose::decompose(&nl, 3).expect("decomposes");
        prop_assert!(dec.max_fanin() <= 3);
        prop_assert_eq!(outputs_for_all_minterms(&nl), outputs_for_all_minterms(&dec));
    }

    #[test]
    fn bench_roundtrip_preserves_function(nl in small_circuit()) {
        let text = bench::write(&nl).expect("no constants in random circuits");
        let back = bench::parse(&text).expect("own output parses");
        prop_assert_eq!(outputs_for_all_minterms(&nl), outputs_for_all_minterms(&back));
    }

    #[test]
    fn blif_roundtrip_preserves_function(nl in small_circuit()) {
        let text = blif::write(&nl).expect("narrow gates");
        let back = blif::parse(&text).expect("own output parses");
        prop_assert_eq!(outputs_for_all_minterms(&nl), outputs_for_all_minterms(&back));
    }

    #[test]
    fn sweep_preserves_function(nl in small_circuit()) {
        use atpg_easy::netlist::sweep;
        let (swept, report) = sweep::sweep(&nl).expect("sweep succeeds");
        prop_assert!(swept.num_gates() <= nl.num_gates() + 2,
            "sweep may add at most constant nets: {} -> {} ({report:?})",
            nl.num_gates(), swept.num_gates());
        prop_assert_eq!(outputs_for_all_minterms(&nl), outputs_for_all_minterms(&swept));
        // Structural idempotence: a second sweep cannot shrink further.
        let (again, _) = sweep::sweep(&swept).expect("sweep succeeds");
        prop_assert_eq!(again.num_gates(), swept.num_gates());
        prop_assert_eq!(outputs_for_all_minterms(&swept), outputs_for_all_minterms(&again));
    }

    #[test]
    fn chain_decomposition_equivalent(nl in small_circuit()) {
        use atpg_easy::netlist::decompose::{decompose_with, Strategy};
        let chain = decompose_with(&nl, 2, Strategy::Chain).expect("decomposes");
        prop_assert!(chain.max_fanin() <= 2);
        prop_assert_eq!(outputs_for_all_minterms(&nl), outputs_for_all_minterms(&chain));
    }

    #[test]
    fn parallel_simulation_matches_serial(nl in small_circuit()) {
        let s = sim::Simulator::new(&nl);
        let n = nl.num_inputs();
        // Pack the first 64 minterms into one parallel run.
        let words: Vec<u64> = (0..n)
            .map(|i| {
                let mut w = 0u64;
                for p in 0..64u32 {
                    if p >> (i as u32 % 32) & 1 != 0 {
                        w |= 1 << p;
                    }
                }
                w
            })
            .collect();
        let par = s.run(&nl, &words);
        for p in 0..4usize {
            let ins: Vec<bool> = (0..n).map(|i| words[i] >> p & 1 != 0).collect();
            let serial = sim::eval(&nl, &ins);
            for (net, &v) in serial.iter().enumerate() {
                prop_assert_eq!(par[net] >> p & 1 != 0, v);
            }
        }
    }

    #[test]
    fn wide_simulation_matches_four_word_runs(nl in small_circuit(), seed in any::<u64>()) {
        // One 256-pattern block run must agree bit-for-bit with four
        // independent 64-pattern word runs over the same patterns.
        let s = sim::Simulator::new(&nl);
        let n = nl.num_inputs();
        let mut state = seed;
        let mut next = move || {
            // splitmix64 — cheap deterministic fill for the pattern bits.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let blocks: Vec<sim::PatternBlock> =
            (0..n).map(|_| [next(), next(), next(), next()]).collect();
        let wide = s.run(&nl, &blocks);
        for lane in 0..sim::LANES {
            let words: Vec<u64> = blocks.iter().map(|b| b[lane]).collect();
            let narrow = s.run(&nl, &words);
            for (net, &word) in narrow.iter().enumerate() {
                prop_assert_eq!(
                    wide[net][lane], word,
                    "net {} lane {} diverges between wide and word runs", net, lane
                );
            }
        }
    }
}
