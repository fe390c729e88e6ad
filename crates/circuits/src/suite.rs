//! Named circuit suites standing in for the paper's benchmark sets.
//!
//! The genuine ISCAS85 `c17` is embedded verbatim. The remaining suite
//! members are structural stand-ins generated at reduced, laptop-friendly
//! sizes: each mirrors the documented function of its namesake (C499/C1355
//! are ECC/parity circuits, C880 is an ALU, C6288 is an array multiplier,
//! C7552 is an adder/comparator, …). DESIGN.md records this substitution;
//! the real suites can be loaded through
//! [`parser::bench`](atpg_easy_netlist::parser::bench) /
//! [`parser::blif`](atpg_easy_netlist::parser::blif) when available.

use atpg_easy_netlist::{parser::bench, GateKind, NetId, Netlist};

use crate::random::{self, RandomCircuitConfig};
use crate::{adders, alu, cellular, comparator, decoder, multiplier, mux, parity};

/// A named benchmark circuit.
#[derive(Debug, Clone)]
pub struct NamedCircuit {
    /// Suite-level name (e.g. `c880w` for the C880-like ALU).
    pub name: String,
    /// The circuit.
    pub netlist: Netlist,
}

fn named(name: &str, netlist: Netlist) -> NamedCircuit {
    NamedCircuit {
        name: name.to_string(),
        netlist,
    }
}

/// The genuine ISCAS85 `c17` netlist.
pub fn c17() -> Netlist {
    bench::parse(
        "# c17 (ISCAS85)\n\
         INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
         OUTPUT(22)\nOUTPUT(23)\n\
         10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
         19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
    )
    .expect("embedded c17 parses")
}

/// An `n`-line priority encoder (C432 is a 27-channel interrupt
/// controller: priority logic plus decoding): outputs the one-hot grant of
/// the highest-priority active request plus a `valid` flag.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn priority_encoder(n: usize) -> Netlist {
    assert!(n > 0, "need at least one request line");
    let mut nl = Netlist::new(format!("prio{n}"));
    let req: Vec<NetId> = (0..n).map(|i| nl.add_input(format!("r{i}"))).collect();
    // grant_i = r_i AND NOT r_{i+1} AND ... AND NOT r_{n-1}  (line n-1 wins)
    let nreq: Vec<NetId> = (0..n)
        .map(|i| {
            nl.add_gate_named(GateKind::Not, vec![req[i]], format!("nr{i}"))
                .expect("unique")
        })
        .collect();
    for (i, &r) in req.iter().enumerate() {
        let mut ins = vec![r];
        ins.extend((i + 1..n).map(|j| nreq[j]));
        let g = if ins.len() == 1 {
            nl.add_gate_named(GateKind::Buf, ins, format!("grant{i}"))
                .expect("unique")
        } else {
            nl.add_gate_named(GateKind::And, ins, format!("grant{i}"))
                .expect("unique")
        };
        nl.add_output(g);
    }
    let valid = nl
        .add_gate_named(GateKind::Or, req, "valid")
        .expect("unique");
    nl.add_output(valid);
    nl
}

/// ISCAS85-like suite: nine circuits plus `c17`, mirroring the families of
/// the real suite (the paper analyzed 9 ISCAS85 circuits, omitting C3540
/// and C6288; we generate the multiplier anyway for the contrast
/// experiments, tagged `c6288w`).
pub fn iscas_like() -> Vec<NamedCircuit> {
    vec![
        named("c17", c17()),
        named("c432w", priority_encoder(27)),
        named("c499w", parity::parity_checker(8, 5)),
        named("c880w", alu::alu(8)),
        named("c1355w", parity::parity_tree(41)),
        named("c1908w", parity::parity_checker(4, 8)),
        named("c2670w", comparator::comparator(32)),
        named("c5315w", alu::alu(24)),
        named("c7552w", adders::ripple_carry(48)),
    ]
}

/// The array multiplier the paper *omitted* from its Figure-8 study
/// ("due to limitations in our min-cut linear arrangement procedure") —
/// kept separate so the reproduction can show the √n-width contrast.
pub fn c6288_like() -> NamedCircuit {
    named("c6288w", multiplier::array_multiplier(6))
}

/// MCNC91-logic-like suite: a batch of small/medium combinational
/// circuits covering the structural variety of the MCNC91 logic set.
pub fn mcnc_like() -> Vec<NamedCircuit> {
    let mut out = vec![
        named("dec3", decoder::decoder(3)),
        named("dec4", decoder::decoder(4)),
        named("mux8", mux::mux_tree(3)),
        named("mux16", mux::mux_tree(4)),
        named("par16", parity::parity_tree(16)),
        named("rca8", adders::ripple_carry(8)),
        named("cla6", adders::carry_lookahead(6)),
        named("cmp8", comparator::comparator(8)),
        named("cell1d32", cellular::cellular_1d(32)),
        named("cell1d96", cellular::cellular_1d(96)),
        named("cell2d4x4", cellular::cellular_2d(4, 4)),
        named("prio12", priority_encoder(12)),
        named("alu4", alu::alu(4)),
        named("alu12", alu::alu(12)),
        named("par64", parity::parity_tree(64)),
        named("rca24", adders::ripple_carry(24)),
        named("mux32", mux::mux_tree(5)),
        named("cmp20", comparator::comparator(20)),
    ];
    for (i, (gates, locality)) in [(60usize, 0.95f64), (120, 0.95), (240, 0.95), (480, 0.95)]
        .into_iter()
        .enumerate()
    {
        let nl = random::generate(&RandomCircuitConfig {
            gates,
            inputs: 12 + 4 * i,
            locality,
            window: 12,
            far_window: 48,
            seed: 1000 + i as u64,
            ..RandomCircuitConfig::default()
        })
        .expect("generator config is valid");
        out.push(named(&format!("rand{gates}"), nl));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::sim;

    #[test]
    fn c17_matches_known_structure() {
        let nl = c17();
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.num_inputs(), 5);
        assert_eq!(nl.num_outputs(), 2);
    }

    #[test]
    fn priority_encoder_grants_highest() {
        let nl = priority_encoder(4);
        assert!(nl.validate().is_ok());
        for m in 0u32..16 {
            let ins: Vec<bool> = (0..4).map(|i| m >> i & 1 != 0).collect();
            let outs = sim::eval_outputs(&nl, &ins);
            let highest = (0..4).rev().find(|&i| ins[i]);
            for (i, &out) in outs.iter().take(4).enumerate() {
                assert_eq!(out, highest == Some(i), "m={m} line={i}");
            }
            assert_eq!(outs[4], m != 0, "valid flag m={m}");
        }
    }

    #[test]
    fn suites_are_valid_and_named_uniquely() {
        let mut names = std::collections::HashSet::new();
        for c in iscas_like()
            .into_iter()
            .chain(mcnc_like())
            .chain([c6288_like()])
        {
            assert!(c.netlist.validate().is_ok(), "{} does not validate", c.name);
            assert!(c.netlist.num_outputs() > 0, "{} has no outputs", c.name);
            assert!(names.insert(c.name.clone()), "duplicate name {}", c.name);
        }
    }

    #[test]
    fn suites_have_size_spread() {
        let sizes: Vec<usize> = iscas_like().iter().map(|c| c.netlist.num_gates()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(
            *max > *min * 10,
            "sizes must span an order of magnitude: {sizes:?}"
        );
    }
}
