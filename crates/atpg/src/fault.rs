//! Single stuck-at faults: enumeration and structural equivalence
//! collapsing.

use std::fmt;

use atpg_easy_netlist::{GateId, GateKind, NetId, Netlist};

/// A single stuck-at fault `ψ(X, B)`: net `X` permanently at value `B`
/// (the paper's Section 2 definition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// The faulted net.
    pub net: NetId,
    /// The stuck value `B`.
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at-0 on `net`.
    pub fn stuck_at_0(net: NetId) -> Self {
        Fault { net, stuck: false }
    }

    /// Stuck-at-1 on `net`.
    pub fn stuck_at_1(net: NetId) -> Self {
        Fault { net, stuck: true }
    }

    /// Renders the fault with the net's name, e.g. `f/s-a-1`.
    pub fn describe(&self, nl: &Netlist) -> String {
        format!(
            "{}/s-a-{}",
            nl.net(self.net).name,
            if self.stuck { 1 } else { 0 }
        )
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/s-a-{}", self.net, u8::from(self.stuck))
    }
}

/// Every potential fault of the circuit: two per net, in net order.
pub fn all_faults(nl: &Netlist) -> Vec<Fault> {
    nl.net_ids()
        .flat_map(|n| [Fault::stuck_at_0(n), Fault::stuck_at_1(n)])
        .collect()
}

/// Structural fault-equivalence collapsing.
///
/// Two faults are equivalent when every test for one tests the other. The
/// classic *local* rules are applied across single-reader nets (a net read
/// by exactly one gate and not a primary output):
///
/// - `BUF`: input s-a-v ≡ output s-a-v; `NOT`: input s-a-v ≡ output s-a-v̄;
/// - `AND`: any input s-a-0 ≡ output s-a-0 (controlling value);
///   `NAND`: any input s-a-0 ≡ output s-a-1;
/// - `OR`: any input s-a-1 ≡ output s-a-1; `NOR`: input s-a-1 ≡ output s-a-0.
///
/// Returns one representative per equivalence class (the class member
/// closest to the primary outputs, which keeps `C_ψ^sub` smallest).
pub fn collapse(nl: &Netlist) -> Vec<Fault> {
    let faults = all_faults(nl);
    let index = |f: &Fault| f.net.index() * 2 + usize::from(f.stuck);
    let mut parent: Vec<usize> = (0..faults.len()).collect();

    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Keep the later net (closer to the outputs) as representative.
            if ra < rb {
                parent[ra] = rb;
            } else {
                parent[rb] = ra;
            }
        }
    };

    let fanouts = nl.fanouts();
    for (gid, gate) in nl.gates() {
        let out = gate.output;
        for &inp in &gate.inputs {
            // Only collapse across nets whose sole reader is this gate.
            if !sole_reader(nl, &fanouts, inp, gid) {
                continue;
            }
            match gate.kind {
                GateKind::Buf => {
                    for v in [false, true] {
                        union(
                            &mut parent,
                            index(&Fault { net: inp, stuck: v }),
                            index(&Fault { net: out, stuck: v }),
                        );
                    }
                }
                GateKind::Not => {
                    for v in [false, true] {
                        union(
                            &mut parent,
                            index(&Fault { net: inp, stuck: v }),
                            index(&Fault {
                                net: out,
                                stuck: !v,
                            }),
                        );
                    }
                }
                GateKind::And => union(
                    &mut parent,
                    index(&Fault::stuck_at_0(inp)),
                    index(&Fault::stuck_at_0(out)),
                ),
                GateKind::Nand => union(
                    &mut parent,
                    index(&Fault::stuck_at_0(inp)),
                    index(&Fault::stuck_at_1(out)),
                ),
                GateKind::Or => union(
                    &mut parent,
                    index(&Fault::stuck_at_1(inp)),
                    index(&Fault::stuck_at_1(out)),
                ),
                GateKind::Nor => union(
                    &mut parent,
                    index(&Fault::stuck_at_1(inp)),
                    index(&Fault::stuck_at_0(out)),
                ),
                _ => {}
            }
        }
    }

    let mut reps: Vec<Fault> = Vec::new();
    for (i, f) in faults.iter().enumerate() {
        if find(&mut parent, i) == i {
            reps.push(*f);
        }
    }
    reps
}

/// Whether gate `gid` is the only reader of `net` and `net` is not a
/// primary output: then every fault effect on `net` reaches the outputs
/// only through that gate.
fn sole_reader(nl: &Netlist, fanouts: &[Vec<GateId>], net: NetId, gid: GateId) -> bool {
    fanouts[net.index()] == [gid] && !nl.is_output(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::GateKind;

    #[test]
    fn all_faults_two_per_net() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate_named(GateKind::Not, vec![a], "y").unwrap();
        nl.add_output(y);
        let faults = all_faults(&nl);
        assert_eq!(faults.len(), 4);
        assert!(faults.contains(&Fault::stuck_at_0(a)));
        assert!(faults.contains(&Fault::stuck_at_1(y)));
    }

    #[test]
    fn inverter_chain_collapses_fully() {
        // a -> NOT -> NOT -> y : all 6 faults collapse to 2 classes.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let m = nl.add_gate_named(GateKind::Not, vec![a], "m").unwrap();
        let y = nl.add_gate_named(GateKind::Not, vec![m], "y").unwrap();
        nl.add_output(y);
        let reps = collapse(&nl);
        assert_eq!(reps.len(), 2);
        // Representatives live on the output net.
        assert!(reps.iter().all(|f| f.net == y));
    }

    #[test]
    fn and_gate_collapse() {
        // y = AND(a, b): a/0 ≡ b/0 ≡ y/0, so 6 faults → 4 classes.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::And, vec![a, b], "y").unwrap();
        nl.add_output(y);
        let reps = collapse(&nl);
        assert_eq!(reps.len(), 4);
        assert!(reps.contains(&Fault::stuck_at_0(y)));
        assert!(!reps.contains(&Fault::stuck_at_0(a)));
        assert!(reps.contains(&Fault::stuck_at_1(a)));
    }

    #[test]
    fn fanout_stems_not_collapsed() {
        // a feeds two gates: faults on a must stay distinct from the gate
        // output faults.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_gate_named(GateKind::Not, vec![a], "x").unwrap();
        let y = nl.add_gate_named(GateKind::Buf, vec![a], "y").unwrap();
        nl.add_output(x);
        nl.add_output(y);
        let reps = collapse(&nl);
        assert!(reps.contains(&Fault::stuck_at_0(a)));
        assert!(reps.contains(&Fault::stuck_at_1(a)));
    }

    #[test]
    fn describe_uses_names() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("alpha");
        assert_eq!(Fault::stuck_at_1(a).describe(&nl), "alpha/s-a-1");
        assert_eq!(Fault::stuck_at_0(a).describe(&nl), "alpha/s-a-0");
    }
}

/// Equivalence collapsing followed by classic *dominance* collapsing.
///
/// A fault `f` dominates `g` when every test for `g` also detects `f`; a
/// dominated-only `f` can then be dropped from the target list (covering
/// `g` covers it). The structural rules, per multi-input gate
/// `y = G(x…)`:
///
/// - `AND`: `y/1` is dominated by each `x_i/1`;
/// - `NAND`: `y/0` by each `x_i/1`;
/// - `OR`: `y/0` by each `x_i/0`;
/// - `NOR`: `y/1` by each `x_i/0`.
///
/// A rule applies only when some `x_i` is read by this gate alone and is
/// not a primary output. A fault on a fan-out stem can be detected
/// through another reader, by a test that never sensitizes `y`, so it
/// dominates nothing here. Dominance is transitive along these chains,
/// which bottom out at fault sites that are kept.
///
/// Coverage is preserved only if those kept sites are testable. When
/// every dominator of a dropped fault is redundant, no test for a kept
/// fault need detect it, although it may be testable: random circuits
/// with redundant logic show this. The list suits irredundant logic.
pub fn collapse_with_dominance(nl: &Netlist) -> Vec<Fault> {
    let mut kept = collapse(nl);
    // Faults dominated by gate-input faults.
    let fanouts = nl.fanouts();
    let mut dominated: Vec<Fault> = Vec::new();
    for (gid, gate) in nl.gates() {
        let branch_input = gate
            .inputs
            .iter()
            .any(|&x| sole_reader(nl, &fanouts, x, gid));
        if gate.inputs.len() < 2 || !branch_input {
            continue;
        }
        match gate.kind {
            GateKind::And => dominated.push(Fault::stuck_at_1(gate.output)),
            GateKind::Nand => dominated.push(Fault::stuck_at_0(gate.output)),
            GateKind::Or => dominated.push(Fault::stuck_at_0(gate.output)),
            GateKind::Nor => dominated.push(Fault::stuck_at_1(gate.output)),
            _ => {}
        }
    }
    kept.retain(|f| !dominated.contains(f));
    kept
}

#[cfg(test)]
mod dominance_tests {
    use super::*;
    use atpg_easy_circuits::random::{self, RandomCircuitConfig};
    use atpg_easy_netlist::{sim, GateKind};

    /// Bitmask over all input minterms of the vectors detecting `f`.
    fn test_set(nl: &Netlist, f: Fault) -> u64 {
        let n = nl.num_inputs();
        assert!(n <= 6);
        let s = sim::Simulator::new(nl);
        let forced = if f.stuck { !0u64 } else { 0 };
        let mut mask = 0u64;
        for m in 0u64..(1 << n) {
            let ins: Vec<u64> = (0..n)
                .map(|i| if m >> i & 1 != 0 { !0 } else { 0 })
                .collect();
            let good = s.run(nl, &ins);
            let bad = s.run_with_forced(nl, &ins, f.net, forced);
            if nl
                .outputs()
                .iter()
                .any(|&o| good[o.index()] & 1 != bad[o.index()] & 1)
            {
                mask |= 1 << m;
            }
        }
        mask
    }

    /// Every testable fault must be covered by some kept fault whose test
    /// set is a subset of its own.
    fn assert_coverage_preserving(nl: &Netlist) {
        let kept = collapse_with_dominance(nl);
        let kept_sets: Vec<u64> = kept.iter().map(|&f| test_set(nl, f)).collect();
        for f in all_faults(nl) {
            let tf = test_set(nl, f);
            if tf == 0 {
                continue; // untestable: nothing to cover
            }
            let covered = kept_sets.iter().any(|&tc| tc != 0 && tc & !tf == 0);
            assert!(
                covered,
                "{} not covered by the collapsed list",
                f.describe(nl)
            );
        }
    }

    #[test]
    fn dominance_is_coverage_preserving_on_gates() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let mut nl = Netlist::new("g");
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let c = nl.add_input("c");
            let y = nl.add_gate_named(kind, vec![a, b, c], "y").unwrap();
            nl.add_output(y);
            assert_coverage_preserving(&nl);
            // One fault fewer than the equivalence-only collapse.
            assert_eq!(
                collapse_with_dominance(&nl).len() + 1,
                collapse(&nl).len(),
                "{kind}"
            );
        }
    }

    #[test]
    fn dominance_is_coverage_preserving_on_c17() {
        let nl = atpg_easy_netlist::parser::bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap();
        assert_coverage_preserving(&nl);
        assert!(collapse_with_dominance(&nl).len() < collapse(&nl).len());
    }

    /// Small random circuits (3–6 inputs, every gate kind the collapse
    /// rules cover), so exhaustive test sets are cheap.
    fn random_small_circuits() -> impl Iterator<Item = Netlist> {
        (0..400u64).map(|seed| {
            random::generate(&RandomCircuitConfig {
                gates: 6 + (seed as usize % 15),
                inputs: 3 + (seed as usize % 4),
                max_fanin: 3,
                locality: 0.7,
                window: 6,
                far_window: 32,
                seed,
            })
            .expect("valid random circuit")
        })
    }

    /// Equivalence collapsing drops only faults equivalent to a kept one:
    /// every dropped fault has exactly the test set of some kept fault.
    #[test]
    fn collapse_merges_only_equivalent_faults_on_random_circuits() {
        let mut dropped_total = 0;
        for nl in random_small_circuits() {
            let kept = collapse(&nl);
            let kept_sets: Vec<u64> = kept.iter().map(|&f| test_set(&nl, f)).collect();
            for f in all_faults(&nl).into_iter().filter(|f| !kept.contains(f)) {
                dropped_total += 1;
                let tf = test_set(&nl, f);
                assert!(
                    kept_sets.contains(&tf),
                    "{}: dropped {} has a test set no kept fault has",
                    nl.name(),
                    f.describe(&nl)
                );
            }
        }
        assert!(dropped_total > 100, "only {dropped_total} faults dropped");
    }

    /// Dominance collapsing preserves coverage on every random circuit
    /// whose kept list has no untestable fault. One that has can leave a
    /// testable fault uncovered (see [`collapse_with_dominance`]).
    #[test]
    fn dominance_is_coverage_preserving_on_random_circuits() {
        let mut checked = 0;
        for nl in random_small_circuits() {
            let kept = collapse_with_dominance(&nl);
            if kept.iter().any(|&f| test_set(&nl, f) == 0) {
                continue;
            }
            assert_coverage_preserving(&nl);
            checked += 1;
        }
        assert!(checked >= 30, "only {checked} circuits checked");
    }

    #[test]
    fn dominance_is_coverage_preserving_on_mixed_logic() {
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let t1 = nl.add_gate_named(GateKind::Or, vec![a, b], "t1").unwrap();
        let t2 = nl.add_gate_named(GateKind::Nand, vec![c, d], "t2").unwrap();
        let t3 = nl
            .add_gate_named(GateKind::Xor, vec![t1, t2], "t3")
            .unwrap();
        let y = nl.add_gate_named(GateKind::And, vec![t3, a], "y").unwrap();
        nl.add_output(y);
        assert_coverage_preserving(&nl);
    }
}
