//! Soundness of the static implication engine and the FIRE-style
//! redundancy pre-pass, on randomly generated circuits.
//!
//! Three contracts, each checked against an independent oracle:
//!
//! 1. every derived implication (and every infeasibility verdict) holds
//!    under 256-wide [`PatternBlock`](sim::PatternBlock) simulation —
//!    simulated net values are consistent assignments by construction,
//!    so a pattern where `a` holds and `b` fails refutes `a ⇒ b`;
//! 2. every fault the pre-pass calls redundant comes back UNSAT from
//!    the certified solver path, with the DRAT proof stream audited by
//!    the independent checker;
//! 3. a campaign with `static_prune` on renders a detection report
//!    byte-identical to the plain campaign's.

use atpg_easy::atpg::campaign::{self, AtpgConfig, FaultOutcome};
use atpg_easy::circuits::random::{self, RandomCircuitConfig};
use atpg_easy::implic::{self, ImplicationEngine, Lit};
use atpg_easy::netlist::{sim, Netlist};
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

/// Per-lane mask of the patterns where the literal holds.
fn lit_mask(values: &[sim::PatternBlock], lit: Lit) -> sim::PatternBlock {
    let block = values[lit.net.index()];
    let mut mask = block;
    if !lit.value {
        for w in &mut mask {
            *w = !*w;
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn implications_hold_under_wide_simulation(nl in small_circuit(), seed in any::<u64>()) {
        let eng = ImplicationEngine::build(&nl);
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
        // 256 random patterns, with the first 64 lanes overwritten by the
        // exhaustive minterm enumeration when it fits (n <= 6): word 0 of
        // input i then carries bit i of the pattern index.
        let blocks: Vec<sim::PatternBlock> = (0..n)
            .map(|i| {
                let mut b = [next(), next(), next(), next()];
                if n <= 6 {
                    let mut w = 0u64;
                    for m in 0..64u64 {
                        if m >> i & 1 != 0 {
                            w |= 1 << m;
                        }
                    }
                    b[0] = w;
                }
                b
            })
            .collect();
        let values = s.run(&nl, &blocks);
        for net in nl.net_ids() {
            for value in [false, true] {
                let a = Lit::new(net, value);
                let ma = lit_mask(&values, a);
                if eng.infeasible(a) {
                    // An infeasible literal may never be observed: every
                    // simulated assignment is consistent.
                    prop_assert_eq!(ma, [0u64; 4], "infeasible {} observed", a);
                    continue;
                }
                for b in eng.implied(a) {
                    let mb = lit_mask(&values, b);
                    for lane in 0..sim::LANES {
                        prop_assert_eq!(
                            ma[lane] & !mb[lane], 0,
                            "implication {} => {} refuted in lane {}", a, b, lane
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    // Certified runs solve every fault with proof logging; keep the
    // case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn redundant_faults_come_back_unsat_certified(nl in small_circuit()) {
        let analysis = implic::analyze(&nl);
        // Full fault list, no dropping, no random phase: every fault
        // gets a genuine solver verdict backed by an auditable proof.
        let config = AtpgConfig {
            collapse: false,
            fault_dropping: false,
            ..AtpgConfig::default()
        };
        let certified = campaign::run_certified(&nl, &config);
        let audit = atpg_easy::proof::audit_stream(&certified.events);
        prop_assert!(audit.ok(), "{:?}", audit.stray_errors);
        prop_assert_eq!(audit.uncertified(), 0);
        for r in &analysis.redundant {
            let record = certified
                .result
                .records
                .iter()
                .find(|rec| rec.fault.net == r.net && rec.fault.stuck == r.stuck)
                .expect("full fault list covers every net twice");
            prop_assert!(
                matches!(record.outcome, FaultOutcome::Untestable),
                "static {} proof for {}/s-a-{} but solver said {:?}",
                r.reason.label(),
                r.net.index(),
                u8::from(r.stuck),
                record.outcome
            );
        }
    }

    #[test]
    fn detection_report_is_identical_with_prune(nl in small_circuit(), seed in any::<u64>()) {
        let base_config = AtpgConfig {
            random_patterns: 16,
            seed,
            ..AtpgConfig::default()
        };
        let prune_config = AtpgConfig {
            static_prune: true,
            ..base_config
        };
        let base = campaign::run(&nl, &base_config);
        let pruned = campaign::run(&nl, &prune_config);
        prop_assert_eq!(base.detection_report(), pruned.detection_report());
        // Same fault list in the same order: every pruned fault must
        // carry a solver UNSAT in the baseline.
        for (b, p) in base.records.iter().zip(&pruned.records) {
            if matches!(p.outcome, FaultOutcome::StaticallyRedundant) {
                prop_assert!(
                    matches!(b.outcome, FaultOutcome::Untestable),
                    "pruned fault {}/s-a-{} was {:?} in the baseline",
                    b.fault.net.index(),
                    u8::from(b.fault.stuck),
                    b.outcome
                );
            }
        }
    }
}
