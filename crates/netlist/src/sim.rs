//! Bit-parallel logic simulation.
//!
//! Each net carries one word of bit-parallel patterns ([`Lanes`]): bit `p`
//! of every word belongs to simulation pattern `p`, so one pass evaluates
//! [`Lanes::PATTERNS`] input vectors at once. This is the classic
//! parallel-pattern technique ATPG tools (including TEGUS) use for fault
//! dropping.
//!
//! Every entry point is generic over the word: `u64` carries 64 patterns
//! per net, [`PatternBlock`] carries 256 in [`LANES`] lanes that never
//! interact, so every gate evaluates as straight-line lane-wise bit logic
//! the compiler vectorizes. The `_into` variant reuses a caller-owned
//! buffer, so a campaign's fault-dropping hot loop performs no per-call
//! result allocation.

pub use crate::gate::{Lanes, PatternBlock, LANES};
use crate::{topo, GateId, NetId, Netlist};

/// A reusable simulator for one netlist.
///
/// Construction performs the topological sort once; each
/// [`Simulator::run`] is then a linear sweep.
#[derive(Debug, Clone)]
pub struct Simulator {
    order: Vec<GateId>,
    num_nets: usize,
}

impl Simulator {
    /// Prepares a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is cyclic; call
    /// [`Netlist::validate`](crate::Netlist::validate) first.
    pub fn new(nl: &Netlist) -> Self {
        Simulator {
            order: topo::topo_order(nl).expect("simulation requires an acyclic netlist"),
            num_nets: nl.num_nets(),
        }
    }

    /// Evaluates all nets for [`Lanes::PATTERNS`] parallel patterns.
    ///
    /// `inputs[i]` supplies the word for `nl.inputs()[i]`. Returns one
    /// word per net, indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != nl.num_inputs()` or the netlist does
    /// not match the one the simulator was built for.
    pub fn run<W: Lanes>(&self, nl: &Netlist, inputs: &[W]) -> Vec<W> {
        let mut values = Vec::new();
        self.run_into(nl, inputs, &mut values);
        values
    }

    /// Like [`Self::run`], but writing into a caller-owned buffer instead
    /// of allocating the result — the fault-dropping hot path calls this
    /// once per test batch, so reusing `values` across calls removes the
    /// per-call allocation entirely. The buffer is resized as needed; any
    /// previous contents are overwritten.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::run`].
    pub fn run_into<W: Lanes>(&self, nl: &Netlist, inputs: &[W], values: &mut Vec<W>) {
        self.sweep(nl, inputs, values, None);
    }

    /// The topological gate order this simulator evaluates in.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Like [`Self::run`] but forcing net `forced` to the constant word
    /// `forced_value` regardless of its driver — i.e. simulating a stuck-at
    /// fault ([`Lanes::ZERO`] for s-a-0, [`Lanes::ONES`] for s-a-1).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::run`].
    pub fn run_with_forced<W: Lanes>(
        &self,
        nl: &Netlist,
        inputs: &[W],
        forced: NetId,
        forced_value: W,
    ) -> Vec<W> {
        let mut values = Vec::new();
        self.sweep(nl, inputs, &mut values, Some((forced, forced_value)));
        values
    }

    /// Event-driven faulty resimulation limited to the fan-out cone of the
    /// fault net.
    ///
    /// `good` holds the fault-free value of every net (from [`Self::run`]);
    /// `scratch` must be equal to `good` on entry. The net `forced` is set
    /// to `forced_value` and only the gates in `cone` — the topologically
    /// ordered fan-out cone from
    /// [`topo::fanout_cone_gates`] — are
    /// re-evaluated. This is sound because every net outside the cone is
    /// unreachable from the fault and therefore keeps its good value, which
    /// `scratch` already holds.
    ///
    /// Returns the detection word: bit `p` is set iff pattern `p` observes
    /// a difference on at least one primary output. `scratch` is restored
    /// to `good` before returning, so it can be reused across faults.
    ///
    /// # Panics
    ///
    /// Panics if `good` / `scratch` are not sized for this netlist.
    pub fn resim_cone_forced<W: Lanes>(
        &self,
        nl: &Netlist,
        good: &[W],
        scratch: &mut [W],
        forced: NetId,
        forced_value: W,
        cone: &[GateId],
    ) -> W {
        assert_eq!(good.len(), self.num_nets, "good values cover every net");
        assert_eq!(scratch.len(), self.num_nets, "scratch covers every net");
        scratch[forced.index()] = forced_value;
        eval_gates(nl, cone, scratch, None);
        let detect = nl.outputs().iter().fold(W::ZERO, |d, &o| {
            d.or(scratch[o.index()].xor(good[o.index()]))
        });
        scratch[forced.index()] = good[forced.index()];
        for &gid in cone {
            let out = nl.gate(gid).output;
            scratch[out.index()] = good[out.index()];
        }
        detect
    }

    /// One whole-circuit sweep into `values`, with the net of `forced`
    /// (if any) held at its value instead of its driver's.
    fn sweep<W: Lanes>(
        &self,
        nl: &Netlist,
        inputs: &[W],
        values: &mut Vec<W>,
        forced: Option<(NetId, W)>,
    ) {
        assert_eq!(inputs.len(), nl.num_inputs(), "one word per input");
        assert_eq!(nl.num_nets(), self.num_nets, "netlist/simulator mismatch");
        values.clear();
        values.resize(self.num_nets, W::ZERO);
        for (&net, &w) in nl.inputs().iter().zip(inputs) {
            values[net.index()] = w;
        }
        let skip = forced.map(|(net, value)| {
            values[net.index()] = value;
            net
        });
        eval_gates(nl, &self.order, values, skip);
    }
}

/// Evaluates `gates` in order over `values`, leaving the driver of `skip`
/// unevaluated (the fault overrides it).
fn eval_gates<W: Lanes>(nl: &Netlist, gates: &[GateId], values: &mut [W], skip: Option<NetId>) {
    let mut in_buf: Vec<W> = Vec::with_capacity(8);
    for &gid in gates {
        let gate = nl.gate(gid);
        if Some(gate.output) == skip {
            continue;
        }
        in_buf.clear();
        in_buf.extend(gate.inputs.iter().map(|&n| values[n.index()]));
        values[gate.output.index()] = gate.kind.eval(&in_buf);
    }
}

/// Convenience single-pattern evaluation: returns the boolean value of every
/// net under the given input assignment.
///
/// # Panics
///
/// Panics if `inputs.len() != nl.num_inputs()` or the netlist is cyclic.
pub fn eval(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
    Simulator::new(nl)
        .run(nl, &words)
        .into_iter()
        .map(|w| w & 1 != 0)
        .collect()
}

/// Evaluates only the primary outputs for one input assignment.
///
/// # Panics
///
/// Same as [`eval`].
pub fn eval_outputs(nl: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let all = eval(nl, inputs);
    nl.outputs().iter().map(|&o| all[o.index()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, Netlist};

    fn xor2() -> Netlist {
        let mut nl = Netlist::new("xor2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::Xor, vec![a, b], "y").unwrap();
        nl.add_output(y);
        nl
    }

    #[test]
    fn single_pattern_eval() {
        let nl = xor2();
        assert_eq!(eval_outputs(&nl, &[false, false]), vec![false]);
        assert_eq!(eval_outputs(&nl, &[true, false]), vec![true]);
        assert_eq!(eval_outputs(&nl, &[true, true]), vec![false]);
    }

    #[test]
    fn parallel_matches_serial() {
        let nl = xor2();
        let sim = Simulator::new(&nl);
        // Pack all four minterms into the low bits of the words.
        let a = 0b1010u64;
        let b = 0b1100u64;
        let vals = sim.run(&nl, &[a, b]);
        let y = nl.find_net("y").unwrap();
        assert_eq!(vals[y.index()] & 0xF, 0b0110);
    }

    #[test]
    fn forced_net_overrides_driver() {
        let nl = xor2();
        let sim = Simulator::new(&nl);
        let y = nl.find_net("y").unwrap();
        let vals = sim.run_with_forced(&nl, &[0, 0], y, !0);
        assert_eq!(vals[y.index()], !0, "stuck-at-1 on the output");
    }

    #[test]
    fn forced_internal_net_propagates() {
        // y = AND(a, b); force a=1 regardless of the supplied 0 word.
        let mut nl = Netlist::new("and2");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::And, vec![a, b], "y").unwrap();
        nl.add_output(y);
        let sim = Simulator::new(&nl);
        let vals = sim.run_with_forced(&nl, &[0, !0], a, !0);
        assert_eq!(vals[y.index()], !0);
    }

    #[test]
    #[should_panic(expected = "one word per input")]
    fn wrong_input_count_panics() {
        let nl = xor2();
        Simulator::new(&nl).run(&nl, &[0]);
    }

    #[test]
    fn cone_resim_matches_full_forced_resim() {
        // A two-output circuit so the cone is a strict subset of the gates:
        // y0 = AND(a, b); y1 = OR(b, c). A fault on the AND cannot touch y1.
        let mut nl = Netlist::new("two_cones");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y0 = nl.add_gate_named(GateKind::And, vec![a, b], "y0").unwrap();
        let y1 = nl.add_gate_named(GateKind::Or, vec![b, c], "y1").unwrap();
        nl.add_output(y0);
        nl.add_output(y1);
        let sim = Simulator::new(&nl);
        let inputs = [0xF0F0u64, 0xCCCCu64, 0xAAAAu64];
        let good = sim.run(&nl, &inputs);
        let mut scratch = good.clone();
        for (net, stuck) in [(y0, 0u64), (y0, !0u64), (a, 0), (a, !0), (b, 0), (b, !0)] {
            let cone = crate::topo::fanout_cone_gates(&nl, sim.order(), net);
            let fast = sim.resim_cone_forced(&nl, &good, &mut scratch, net, stuck, &cone);
            let full = sim.run_with_forced(&nl, &inputs, net, stuck);
            let slow = nl
                .outputs()
                .iter()
                .fold(0u64, |m, &o| m | (full[o.index()] ^ good[o.index()]));
            assert_eq!(fast, slow, "cone resim must match whole-circuit resim");
            assert_eq!(scratch, good, "scratch is restored after each fault");
        }
        // Sanity: the fault on y0 has a two-gate circuit but a one-gate cone.
        assert!(crate::topo::fanout_cone_gates(&nl, sim.order(), y0).is_empty());
        assert_eq!(crate::topo::fanout_cone_gates(&nl, sim.order(), b).len(), 2);
    }

    #[test]
    fn run_into_reuses_buffer_and_matches_run() {
        let nl = xor2();
        let sim = Simulator::new(&nl);
        let mut buf = vec![0xDEADu64; 1]; // wrong size and stale contents
        sim.run_into(&nl, &[0b1010, 0b1100], &mut buf);
        assert_eq!(buf, sim.run(&nl, &[0b1010, 0b1100]));
        let ptr = buf.as_ptr();
        sim.run_into(&nl, &[0b0011, 0b0101], &mut buf);
        assert_eq!(ptr, buf.as_ptr(), "right-sized buffer is not reallocated");
        assert_eq!(buf, sim.run(&nl, &[0b0011, 0b0101]));
    }

    #[test]
    fn block_run_matches_four_lane_wise_word_runs() {
        let nl = xor2();
        let sim = Simulator::new(&nl);
        let a: PatternBlock = [0xF0F0, 0xAAAA, 0x1234, !0];
        let b: PatternBlock = [0xCCCC, 0x5555, 0x4321, 0];
        let blocks = sim.run(&nl, &[a, b]);
        for l in 0..LANES {
            let words = sim.run(&nl, &[a[l], b[l]]);
            for (net, &w) in words.iter().enumerate() {
                assert_eq!(blocks[net][l], w, "net {net} lane {l}");
            }
        }
    }

    #[test]
    fn block_cone_resim_matches_word_cone_resim_per_lane() {
        let mut nl = Netlist::new("two_cones");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y0 = nl.add_gate_named(GateKind::And, vec![a, b], "y0").unwrap();
        let y1 = nl.add_gate_named(GateKind::Or, vec![b, c], "y1").unwrap();
        nl.add_output(y0);
        nl.add_output(y1);
        let sim = Simulator::new(&nl);
        let ins: Vec<PatternBlock> = (0..3u64)
            .map(|i| core::array::from_fn(|l| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 << l)))
            .collect();
        let good = sim.run(&nl, &ins);
        let mut scratch = good.clone();
        for (net, stuck) in [(y0, false), (b, true), (a, false), (c, true)] {
            let cone = crate::topo::fanout_cone_gates(&nl, sim.order(), net);
            let forced = if stuck {
                PatternBlock::ONES
            } else {
                PatternBlock::ZERO
            };
            let det = sim.resim_cone_forced(&nl, &good, &mut scratch, net, forced, &cone);
            assert_eq!(scratch, good, "scratch restored");
            for l in 0..LANES {
                let lane_ins: Vec<u64> = ins.iter().map(|b| b[l]).collect();
                let lane_good = sim.run(&nl, &lane_ins);
                let mut lane_scratch = lane_good.clone();
                let want = sim.resim_cone_forced(
                    &nl,
                    &lane_good,
                    &mut lane_scratch,
                    net,
                    if stuck { !0 } else { 0 },
                    &cone,
                );
                assert_eq!(det[l], want, "net {net:?} lane {l}");
            }
        }
    }
}
