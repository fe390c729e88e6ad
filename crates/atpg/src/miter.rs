//! The `C_ψ^ATPG` miter construction (the paper's Figure 3).
//!
//! Given circuit `C` and fault `ψ(X, B)`:
//!
//! - `C_ψ^fo` is the transitive fan-out of `X`, duplicated with `X`
//!   replaced by the constant `B`;
//! - `C_ψ^sub` is the subcircuit of `C` over the transitive fan-in of that
//!   fan-out (the "good" logic both copies share);
//! - `C_ψ^ATPG` is `C_ψ^sub` and `C_ψ^fo` with each affected primary
//!   output pair combined by XOR.
//!
//! A satisfying assignment of CIRCUIT-SAT on `C_ψ^ATPG` is exactly a test
//! for `ψ` (Larrabee's formulation).
//!
//! The construction is written once, over a target: [`build`] writes a
//! named [`Netlist`]; a fresh campaign solve writes a [`CnfFormula`],
//! clause for clause what [`circuit::encode`] makes of that netlist; a
//! warm solve ([`crate::incremental`]) writes only the faulty-cone half,
//! over the fault-free circuit's variables.

use atpg_easy_cnf::{circuit, CircuitSatEncoding, CnfFormula, Lit, Var};
use atpg_easy_netlist::{topo, GateId, GateKind, NetId, Netlist};

use crate::Fault;

/// The constructed ATPG miter and its correspondence to the original
/// circuit: a named [`Netlist`] over [`NetId`]s by default, or a
/// CIRCUIT-SAT formula over [`Var`]s.
#[derive(Debug, Clone)]
pub struct AtpgMiter<C = Netlist, N = NetId> {
    /// The miter circuit `C_ψ^ATPG`; its primary outputs are the XOR
    /// difference signals.
    pub circuit: C,
    /// The fault the miter tests.
    pub fault: Fault,
    /// Per original net: the corresponding good-copy net, for nets in
    /// `C_ψ^sub`.
    pub good_of: Vec<Option<N>>,
    /// Per original net: the corresponding faulty-copy net, for nets in
    /// the fan-out cone of the fault.
    pub faulty_of: Vec<Option<N>>,
    /// Per original primary-output position: the XOR difference net.
    pub xor_of_output: Vec<Option<N>>,
    /// Marker over original nets: membership in `C_ψ^sub`.
    pub sub_nets: Vec<bool>,
    /// `true` when the fault reaches no primary output (trivially
    /// untestable); the miter then consists of a constant-0 output.
    pub unobservable: bool,
}

impl<C, N> AtpgMiter<C, N> {
    /// Number of nets of `C_ψ^sub` — the paper's measure of ATPG-SAT
    /// instance size (Section 5.2.1).
    pub fn sub_size(&self) -> usize {
        self.sub_nets.iter().filter(|&&b| b).count()
    }
}

impl AtpgMiter {
    /// Projects a model of the miter's CIRCUIT-SAT formula onto the
    /// original circuit's primary inputs, producing a test vector (inputs
    /// outside `C_ψ^sub` default to `false`).
    ///
    /// # Panics
    ///
    /// Panics if `model` is shorter than the encoding's variable count.
    pub fn extract_test(
        &self,
        enc: &CircuitSatEncoding,
        model: &[bool],
        original: &Netlist,
    ) -> Vec<bool> {
        original
            .inputs()
            .iter()
            .map(|&pi| self.good_of[pi.index()].is_some_and(|m| model[enc.var_of(m).index()]))
            .collect()
    }
}

/// What the construction writes into: nets are numbered in the order
/// they are created, gates in the order they are driven.
pub(crate) trait MiterTarget {
    type Net: Copy;
    /// A new net, a primary input if `input`; only a netlist calls `name`.
    fn net(&mut self, input: bool, name: impl FnOnce() -> String) -> Self::Net;
    /// Drives `output` by a gate of `kind` over `inputs`.
    fn gate(&mut self, kind: GateKind, inputs: &[Self::Net], output: Self::Net);
    /// Makes `nets` the primary outputs, of which some must be 1.
    fn outputs(&mut self, nets: &[Self::Net]);
}

impl MiterTarget for Netlist {
    type Net = NetId;
    fn net(&mut self, input: bool, name: impl FnOnce() -> String) -> NetId {
        let net = self.add_net(name()).expect("unique names");
        if input {
            self.mark_input(net).expect("a new net is undriven");
        }
        net
    }
    fn gate(&mut self, kind: GateKind, inputs: &[NetId], output: NetId) {
        self.drive_net(output, kind, inputs.to_vec())
            .expect("construction is well-formed");
    }
    fn outputs(&mut self, nets: &[NetId]) {
        nets.iter().for_each(|&z| self.add_output(z));
    }
}

/// Variable `i` is net `i`; clauses come as [`circuit::encode`] emits them.
impl MiterTarget for CnfFormula {
    type Net = Var;
    fn net(&mut self, _input: bool, _name: impl FnOnce() -> String) -> Var {
        self.new_var()
    }
    fn gate(&mut self, kind: GateKind, inputs: &[Var], output: Var) {
        circuit::gate_clauses(self, kind, inputs, output)
            .expect("preflighted circuits have no wide XORs");
    }
    fn outputs(&mut self, nets: &[Var]) {
        self.add_lits(nets.iter().map(|&z| Lit::positive(z)));
    }
}

/// Builds the `C_ψ^ATPG` miter for `fault` on `nl`.
///
/// # Panics
///
/// Panics if the netlist is invalid (cyclic / undriven nets); call
/// [`Netlist::validate`] first.
pub fn build(nl: &Netlist, fault: Fault) -> AtpgMiter {
    let order = topo::topo_order(nl).expect("validated netlist");
    let cone = topo::fanout_cone_gates(nl, &order, fault.net);
    let circuit = Netlist::new(format!("{}@{}", nl.name(), fault));
    build_in(nl, fault, &order, &cone, circuit)
}

/// A fresh campaign instance: the clauses of [`circuit::encode`] of
/// [`build`], then, with `activation`, the [`activation_clause`].
pub(crate) fn encode(
    nl: &Netlist,
    fault: Fault,
    order: &[GateId],
    cone: &[GateId],
    activation: bool,
) -> AtpgMiter<CnfFormula, Var> {
    let mut m = build_in(nl, fault, order, cone, CnfFormula::default());
    if let Some(x) = m.good_of[fault.net.index()].filter(|_| activation) {
        m.circuit.add_lits([Lit::with_value(x, !fault.stuck)]);
    }
    m
}

/// [`build`] into `circuit`, given a topological `order` of `nl` and the
/// fault net's fan-out `cone` in it ([`topo::fanout_cone_gates`]): the
/// good copy's primary inputs, then its other nets, each by original id,
/// and its gates in `order`, then the [`faulty_cone`]. Numbering the
/// inputs first is what lets a one-shot CDCL solve, which breaks activity
/// ties towards the lowest variable, decide primary inputs first.
pub(crate) fn build_in<C: MiterTarget>(
    nl: &Netlist,
    fault: Fault,
    order: &[GateId],
    cone: &[GateId],
    mut circuit: C,
) -> AtpgMiter<C, C::Net> {
    let (fo, sub_nets) = cone_nets(nl, fault.net, cone);
    let mut good_of = vec![None; nl.num_nets()];
    let unobservable = !nl.outputs().iter().any(|o| fo[o.index()]);
    let (faulty_of, xor_of_output) = if unobservable {
        // The fault cannot reach any output: CIRCUIT-SAT must be UNSAT.
        let z = circuit.net(false, || "unobservable".into());
        circuit.gate(GateKind::Const0, &[], z);
        circuit.outputs(&[z]);
        (vec![None; nl.num_nets()], vec![None; nl.num_outputs()])
    } else {
        // Good copy: every net of C_ψ^sub, primary inputs first, original
        // names preserved, driven in topological order (C_ψ^sub is fan-in
        // closed).
        for input in [true, false] {
            let nets = nl
                .nets()
                .filter(|(id, net)| sub_nets[id.index()] && net.driver.is_none() == input);
            for (id, net) in nets {
                good_of[id.index()] = Some(circuit.net(input, || net.name.clone()));
            }
        }
        let mut inputs = Vec::new();
        for gate in order.iter().map(|&g| nl.gate(g)) {
            if let Some(out) = good_of[gate.output.index()] {
                inputs.clear();
                inputs.extend(
                    (gate.inputs.iter())
                        .map(|&i| good_of[i.index()].expect("sub is fan-in closed")),
                );
                circuit.gate(gate.kind, &inputs, out);
            }
        }
        let good = |n: NetId| good_of[n.index()].expect("inputs of fan-out gates are in sub");
        faulty_cone(nl, fault, cone, &fo, good, &mut circuit)
    };
    AtpgMiter {
        circuit,
        fault,
        good_of,
        faulty_of,
        xor_of_output,
        sub_nets,
        unobservable,
    }
}

/// `C_ψ^fo` and `C_ψ^sub` as per-net markers: `x` with the outputs of its
/// fan-out `cone`, and their transitive fan-in.
pub(crate) fn cone_nets(nl: &Netlist, x: NetId, cone: &[GateId]) -> (Vec<bool>, Vec<bool>) {
    let roots: Vec<NetId> = std::iter::once(x)
        .chain(cone.iter().map(|&g| nl.gate(g).output))
        .collect();
    let mut fo = vec![false; nl.num_nets()];
    roots.iter().for_each(|r| fo[r.index()] = true);
    (fo, topo::transitive_fanin(nl, &roots))
}

/// The faulty copy per original net, and the XOR per output position.
pub(crate) type FaultyCone<N> = (Vec<Option<N>>, Vec<Option<N>>);

/// The faulty half of `C_ψ^ATPG`: a net per `fo` net by id, `X` clamped
/// to `B`, the `cone` gates reading faulty nets or else `good(n)`, one
/// XOR per affected output, and the clause that some XOR is 1.
pub(crate) fn faulty_cone<C: MiterTarget>(
    nl: &Netlist,
    fault: Fault,
    cone: &[GateId],
    fo: &[bool],
    good: impl Fn(NetId) -> C::Net,
    circuit: &mut C,
) -> FaultyCone<C::Net> {
    let mut faulty_of = vec![None; nl.num_nets()];
    for (id, net) in nl.nets().filter(|(id, _)| fo[id.index()]) {
        faulty_of[id.index()] = Some(circuit.net(false, || format!("{}@f", net.name)));
    }
    let stuck = if fault.stuck {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    let x = faulty_of[fault.net.index()].expect("x is in its own fan-out");
    circuit.gate(stuck, &[], x);
    let mut inputs = Vec::new();
    for gate in cone.iter().map(|&g| nl.gate(g)) {
        inputs.clear();
        inputs
            .extend((gate.inputs.iter()).map(|&i| faulty_of[i.index()].unwrap_or_else(|| good(i))));
        let out = faulty_of[gate.output.index()].expect("cone outputs are in fo");
        circuit.gate(gate.kind, &inputs, out);
    }
    // XOR the affected output pairs; unaffected outputs cannot differ.
    let mut xor_of_output = vec![None; nl.num_outputs()];
    let mut diffs = Vec::new();
    for (pos, &o) in nl.outputs().iter().enumerate() {
        if let Some(f) = faulty_of[o.index()] {
            let z = circuit.net(false, || format!("{}@d", nl.net(o).name));
            circuit.gate(GateKind::Xor, &[good(o), f], z);
            xor_of_output[pos] = Some(z);
            diffs.push(z);
        }
    }
    circuit.outputs(&diffs);
    (faulty_of, xor_of_output)
}

/// The unit clause asserting the fault is *activated* in the good circuit
/// (`X = ¬B`). Implied by the miter, but adding it prunes the search the
/// way Larrabee's formulation does.
///
/// Returns `None` for unobservable faults.
pub fn activation_clause(m: &AtpgMiter, enc: &CircuitSatEncoding) -> Option<Vec<Lit>> {
    let good_x = m.good_of[m.fault.net.index()]?;
    Some(vec![Lit::with_value(enc.var_of(good_x), !m.fault.stuck)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_cnf::circuit;
    use atpg_easy_netlist::sim;
    use atpg_easy_sat::{Cdcl, Solver};

    fn c17() -> Netlist {
        atpg_easy_netlist::parser::bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    /// Ground truth by exhaustive simulation: is any input vector a test?
    fn detectable_exhaustive(nl: &Netlist, fault: Fault) -> bool {
        let n = nl.num_inputs();
        assert!(n <= 12);
        let s = sim::Simulator::new(nl);
        let forced = if fault.stuck { !0u64 } else { 0u64 };
        for m in 0u32..(1 << n) {
            let ins: Vec<u64> = (0..n)
                .map(|i| if m >> i & 1 != 0 { !0u64 } else { 0 })
                .collect();
            let good = s.run(nl, &ins);
            let bad = s.run_with_forced(nl, &ins, fault.net, forced);
            if nl
                .outputs()
                .iter()
                .any(|&o| good[o.index()] & 1 != bad[o.index()] & 1)
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn miter_sat_iff_detectable_on_c17() {
        let nl = c17();
        for fault in crate::fault::all_faults(&nl) {
            let m = build(&nl, fault);
            m.circuit.validate().expect("miter is well-formed");
            let enc = circuit::encode(&m.circuit).unwrap();
            let sol = Cdcl::new().solve(&enc.formula);
            let expect = detectable_exhaustive(&nl, fault);
            assert_eq!(
                sol.outcome.is_sat(),
                expect,
                "{} detectability mismatch",
                fault.describe(&nl)
            );
            if let Some(model) = sol.outcome.model() {
                // The extracted vector must actually detect the fault.
                let vec = m.extract_test(&enc, model, &nl);
                assert!(
                    crate::verify::detects(&nl, fault, &vec),
                    "{} extracted vector fails",
                    fault.describe(&nl)
                );
            }
        }
    }

    #[test]
    fn redundant_fault_unsat() {
        // y = OR(a, NOT a) is constantly 1: y s-a-1 is untestable.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl.add_gate_named(GateKind::Not, vec![a], "na").unwrap();
        let y = nl.add_gate_named(GateKind::Or, vec![a, na], "y").unwrap();
        nl.add_output(y);
        let m = build(&nl, Fault::stuck_at_1(y));
        let enc = circuit::encode(&m.circuit).unwrap();
        assert!(Cdcl::new().solve(&enc.formula).outcome.is_unsat());
        // ... while y s-a-0 is testable by any vector.
        let m0 = build(&nl, Fault::stuck_at_0(y));
        let enc0 = circuit::encode(&m0.circuit).unwrap();
        assert!(Cdcl::new().solve(&enc0.formula).outcome.is_sat());
    }

    /// A dangling net: `z` is driven from `a` but never observed.
    fn dangle() -> (Netlist, NetId) {
        let mut nl = Netlist::new("dangle");
        let a = nl.add_input("a");
        let z = nl.add_gate_named(GateKind::Not, vec![a], "z").unwrap();
        let y = nl.add_gate_named(GateKind::Buf, vec![a], "y").unwrap();
        nl.add_output(y);
        (nl, z)
    }

    #[test]
    fn unobservable_fault_handled() {
        let (nl, z) = dangle();
        let m = build(&nl, Fault::stuck_at_0(z));
        assert!(m.unobservable);
        let enc = circuit::encode(&m.circuit).unwrap();
        assert!(Cdcl::new().solve(&enc.formula).outcome.is_unsat());
    }

    #[test]
    fn unobservable_fault_keeps_its_shape_in_both_engines() {
        use crate::campaign::{self, AtpgConfig, FaultOutcome};
        let (nl, z) = dangle();
        let f = Fault::stuck_at_0(z);
        let config = AtpgConfig::default();
        // Fresh: the constant-0 miter, one variable and the clauses ¬z, z.
        let fresh = campaign::solve_one(&nl, f, &config);
        assert_eq!((fresh.sat_vars, fresh.sat_clauses), (1, 2));
        assert_eq!(fresh.outcome, FaultOutcome::Untestable);
        // Warm: a_ψ and one guarded empty clause; no cone variables.
        let base = circuit::encode_consistency(&nl).unwrap().formula;
        let mut warm = crate::IncrementalAtpg::new(&nl, &config);
        let rec = warm.solve_fault(f, &config, None);
        assert_eq!(rec.sat_vars, base.num_vars() + 1);
        assert_eq!(rec.sat_clauses, base.num_clauses() + 1);
        assert_eq!(rec.outcome, FaultOutcome::Untestable);
    }

    /// Per-net map as plain indices, so both targets' maps compare.
    fn indices<N: Copy>(map: &[Option<N>], index: impl Fn(N) -> usize) -> Vec<Option<usize>> {
        map.iter().map(|n| n.map(&index)).collect()
    }

    #[test]
    fn cnf_target_matches_the_encoded_netlist_miter() {
        // Uncollapsed faults of the MCNC-like suite, from the cone arena
        // a campaign builds: the fresh engine's formula is
        // `circuit::encode` of the netlist miter plus the activation unit,
        // clause for clause, over the same net maps (every third fault,
        // to keep debug runs short). The totals over every fault pin what
        // both targets share to what the construction has always built.
        let (mut vars, mut clauses, mut lits, mut sub) = (0, 0, 0, 0);
        for c in atpg_easy_circuits::suite::mcnc_like() {
            let nl = &c.netlist;
            let fs = crate::FaultSimulator::with_cones(nl);
            for (i, f) in crate::fault::all_faults(nl).into_iter().enumerate() {
                let got = encode(nl, f, fs.order(), fs.cone(f.net), true);
                vars += got.circuit.num_vars();
                clauses += got.circuit.num_clauses();
                lits += got.circuit.num_literals();
                sub += got.sub_size();
                if i % 3 != 0 {
                    continue;
                }
                let m = build(nl, f);
                let enc = circuit::encode(&m.circuit).unwrap();
                let net = |n: NetId| enc.var_of(n).index();
                for activation in [false, true] {
                    let got = encode(nl, f, fs.order(), fs.cone(f.net), activation);
                    let mut want = enc.formula.clone();
                    if let Some(act) = activation_clause(&m, &enc).filter(|_| activation) {
                        want.add_clause(act);
                    }
                    let at = || format!("{} {} activation={activation}", c.name, f);
                    assert!(got.circuit == want, "{}", at());
                    assert_eq!(got.sub_size(), m.sub_size(), "{}", at());
                    assert_eq!(got.unobservable, m.unobservable, "{}", at());
                    let var = |v: Var| v.index();
                    assert_eq!(indices(&got.good_of, var), indices(&m.good_of, net));
                    assert_eq!(indices(&got.faulty_of, var), indices(&m.faulty_of, net));
                    assert_eq!(
                        indices(&got.xor_of_output, var),
                        indices(&m.xor_of_output, net)
                    );
                }
            }
        }
        assert_eq!(
            (vars, clauses, lits, sub),
            (1_280_842, 3_839_998, 9_865_714, 885_656)
        );
    }

    #[test]
    fn good_copy_numbers_primary_inputs_first() {
        // Inputs declared after the gates that read them get net ids
        // between the gates' nets; the miter still numbers them first.
        let nl = atpg_easy_netlist::parser::bench::parse(
            "OUTPUT(y)\ny = AND(t, c)\nt = OR(a, b)\nINPUT(a)\nINPUT(b)\nINPUT(c)\n",
        )
        .unwrap();
        let mut ids: Vec<usize> = nl.inputs().iter().map(|pi| pi.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 3, 4]);
        let y = nl.find_net("y").unwrap();
        let fs = crate::FaultSimulator::with_cones(&nl);
        let f = Fault::stuck_at_0(y);
        let fresh = encode(&nl, f, fs.order(), fs.cone(y), true);
        let built = build(&nl, f);
        let enc = circuit::encode(&built.circuit).unwrap();
        for (target, var_of) in [
            ("cnf", indices(&fresh.good_of, Var::index)),
            (
                "netlist",
                indices(&built.good_of, |n| enc.var_of(n).index()),
            ),
        ] {
            let mut vars: Vec<_> = nl.inputs().iter().map(|pi| var_of[pi.index()]).collect();
            vars.sort_unstable();
            assert_eq!(vars, [0, 1, 2].map(Some), "{target}");
        }
    }

    #[test]
    fn sub_size_reasonable() {
        let nl = c17();
        // Fault on an output net: sub = fan-in cone of that output only.
        let out22 = nl.find_net("22").unwrap();
        let m = build(&nl, Fault::stuck_at_0(out22));
        assert!(m.sub_size() < nl.num_nets());
        // Fault on input 3 (feeds both outputs): sub = everything.
        let n3 = nl.find_net("3").unwrap();
        let m3 = build(&nl, Fault::stuck_at_0(n3));
        assert_eq!(m3.sub_size(), nl.num_nets());
    }

    #[test]
    fn activation_clause_prunes() {
        let nl = c17();
        let n10 = nl.find_net("10").unwrap();
        let m = build(&nl, Fault::stuck_at_1(n10));
        let mut enc = circuit::encode(&m.circuit).unwrap();
        let act = activation_clause(&m, &enc).unwrap();
        enc.formula.add_clause(act);
        let sol = Cdcl::new().solve(&enc.formula);
        let model = sol.outcome.model().expect("testable fault");
        let vec = m.extract_test(&enc, model, &nl);
        assert!(crate::verify::detects(&nl, Fault::stuck_at_1(n10), &vec));
    }

    #[test]
    fn miter_stays_within_size_bound() {
        // |C_ψ^ATPG| ≤ 2·|C| + #outputs + 1 nets.
        let nl = c17();
        for fault in crate::fault::all_faults(&nl) {
            let m = build(&nl, fault);
            assert!(m.circuit.num_nets() <= 2 * nl.num_nets() + nl.num_outputs());
        }
    }
}
