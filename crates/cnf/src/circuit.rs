//! CIRCUIT-SAT encoding: one variable per net, the Figure-2 clause
//! template per gate, and a clause asserting some primary output is 1.
//!
//! The paper's cut-width analysis (Lemma 4.1) relies on the formula being
//! in one-to-one correspondence with the circuit topology: variable `i` is
//! net `i`, and every clause mentions only one gate's nets. [`encode`]
//! preserves this exactly.

use std::error::Error;
use std::fmt;

use atpg_easy_netlist::{GateKind, NetId, Netlist};

use crate::{CnfFormula, Lit, Var};

/// Errors from CNF encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// XOR/XNOR gates must have fan-in ≤ 2 (run
    /// [`decompose`](atpg_easy_netlist::decompose::decompose) first).
    WideXor {
        /// Offending fan-in.
        fanin: usize,
    },
    /// The circuit has no primary outputs, so CIRCUIT-SAT is undefined.
    NoOutputs,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::WideXor { fanin } => {
                write!(f, "cannot encode {fanin}-input XOR/XNOR; decompose first")
            }
            EncodeError::NoOutputs => write!(f, "circuit has no primary outputs"),
        }
    }
}

impl Error for EncodeError {}

/// Result of encoding a circuit: the formula plus the net↔variable
/// correspondence (which is the identity on indices).
#[derive(Debug, Clone)]
pub struct CircuitSatEncoding {
    /// The CNF formula `f(C)`.
    pub formula: CnfFormula,
    /// Indices of the primary-input variables, in input order.
    pub input_vars: Vec<Var>,
    /// Indices of the primary-output variables, in output order.
    pub output_vars: Vec<Var>,
}

impl CircuitSatEncoding {
    /// The variable carrying the value of `net`.
    pub fn var_of(&self, net: NetId) -> Var {
        Var::from_index(net.index())
    }

    /// The net corresponding to a formula variable.
    pub fn net_of(&self, var: Var) -> NetId {
        NetId::from_index(var.index())
    }

    /// Projects a complete model onto the primary inputs, yielding the
    /// input vector (in `Netlist::inputs()` order) that realizes the model.
    ///
    /// # Panics
    ///
    /// Panics if `model.len() < formula.num_vars()`.
    pub fn input_vector(&self, model: &[bool]) -> Vec<bool> {
        self.input_vars.iter().map(|v| model[v.index()]).collect()
    }
}

/// Emits the Figure-2 consistency clauses for one gate into `formula`.
///
/// # Errors
///
/// [`EncodeError::WideXor`] for XOR/XNOR with more than two inputs.
pub fn gate_clauses(
    formula: &mut CnfFormula,
    kind: GateKind,
    inputs: &[Var],
    output: Var,
) -> Result<(), EncodeError> {
    let y = Lit::positive(output);
    let pos = |v: Var| Lit::positive(v);
    let neg = |v: Var| Lit::negative(v);
    match kind {
        GateKind::And | GateKind::Nand => {
            // AND: y ↔ x1∧…∧xn. NAND: the same with y complemented.
            let yl = if kind == GateKind::And { y } else { !y };
            for &x in inputs {
                formula.add_lits([!yl, pos(x)]);
            }
            formula.add_lits(inputs.iter().map(|&x| neg(x)).chain([yl]));
        }
        GateKind::Or | GateKind::Nor => {
            let yl = if kind == GateKind::Or { y } else { !y };
            for &x in inputs {
                formula.add_lits([yl, neg(x)]);
            }
            formula.add_lits(inputs.iter().map(|&x| pos(x)).chain([!yl]));
        }
        GateKind::Xor | GateKind::Xnor => match inputs {
            [x] => {
                // 1-input XOR is a buffer; XNOR an inverter.
                let yl = if kind == GateKind::Xor { y } else { !y };
                formula.add_lits([!yl, pos(*x)]);
                formula.add_lits([yl, neg(*x)]);
            }
            [a, b] => {
                let yl = if kind == GateKind::Xor { y } else { !y };
                formula.add_lits([!yl, pos(*a), pos(*b)]);
                formula.add_lits([!yl, neg(*a), neg(*b)]);
                formula.add_lits([yl, pos(*a), neg(*b)]);
                formula.add_lits([yl, neg(*a), pos(*b)]);
            }
            _ => {
                return Err(EncodeError::WideXor {
                    fanin: inputs.len(),
                })
            }
        },
        GateKind::Not => {
            formula.add_lits([!y, neg(inputs[0])]);
            formula.add_lits([y, pos(inputs[0])]);
        }
        GateKind::Buf => {
            formula.add_lits([!y, pos(inputs[0])]);
            formula.add_lits([y, neg(inputs[0])]);
        }
        GateKind::Const0 => {
            formula.add_lits([!y]);
        }
        GateKind::Const1 => {
            formula.add_lits([y]);
        }
    }
    Ok(())
}

/// Encodes the gate-consistency clauses of `nl` only (no output clause).
/// Variable `i` is net `i`; useful when the caller adds its own objective.
///
/// # Errors
///
/// See [`gate_clauses`].
pub fn encode_consistency(nl: &Netlist) -> Result<CircuitSatEncoding, EncodeError> {
    let mut formula = CnfFormula::new(nl.num_nets());
    let mut ins: Vec<Var> = Vec::new();
    for (_, gate) in nl.gates() {
        ins.clear();
        ins.extend(gate.inputs.iter().map(|&n| Var::from_index(n.index())));
        gate_clauses(
            &mut formula,
            gate.kind,
            &ins,
            Var::from_index(gate.output.index()),
        )?;
    }
    Ok(CircuitSatEncoding {
        formula,
        input_vars: nl
            .inputs()
            .iter()
            .map(|&n| Var::from_index(n.index()))
            .collect(),
        output_vars: nl
            .outputs()
            .iter()
            .map(|&n| Var::from_index(n.index()))
            .collect(),
    })
}

/// Full CIRCUIT-SAT encoding: gate clauses plus the clause asserting at
/// least one primary output is 1 (the paper's `f(C)`).
///
/// # Errors
///
/// [`EncodeError::NoOutputs`] if the circuit has no outputs; otherwise see
/// [`gate_clauses`].
pub fn encode(nl: &Netlist) -> Result<CircuitSatEncoding, EncodeError> {
    if nl.num_outputs() == 0 {
        return Err(EncodeError::NoOutputs);
    }
    let mut enc = encode_consistency(nl)?;
    let outputs = enc.output_vars.iter().map(|&v| Lit::positive(v));
    enc.formula.add_lits(outputs);
    Ok(enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg_easy_netlist::sim;

    /// Exhaustively checks that the consistency formula is satisfied exactly
    /// by net valuations arising from simulation.
    fn check_consistency(nl: &Netlist) {
        let enc = encode_consistency(nl).unwrap();
        let n_in = nl.num_inputs();
        assert!(n_in <= 10);
        for m in 0u32..(1 << n_in) {
            let ins: Vec<bool> = (0..n_in).map(|i| m >> i & 1 != 0).collect();
            let values = sim::eval(nl, &ins);
            assert!(
                enc.formula.eval_complete(&values),
                "simulation valuation must satisfy gate clauses (minterm {m})"
            );
            // Flipping any internal net value must violate the formula.
            for (id, net) in nl.nets() {
                if net.driver.is_some() {
                    let mut bad = values.clone();
                    bad[id.index()] = !bad[id.index()];
                    assert!(
                        !enc.formula.eval_complete(&bad),
                        "flipping {} must falsify (minterm {m})",
                        net.name
                    );
                }
            }
        }
    }

    #[test]
    fn all_gate_kinds_consistent() {
        use atpg_easy_netlist::GateKind::*;
        for kind in [And, Or, Nand, Nor, Not, Buf, Xor, Xnor] {
            let mut nl = Netlist::new("k");
            let n = if matches!(kind, Not | Buf) { 1 } else { 2 };
            let ins: Vec<_> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
            let y = nl.add_gate_named(kind, ins, "y").unwrap();
            nl.add_output(y);
            check_consistency(&nl);
        }
    }

    #[test]
    fn three_input_gates_consistent() {
        use atpg_easy_netlist::GateKind::*;
        for kind in [And, Or, Nand, Nor] {
            let mut nl = Netlist::new("k3");
            let ins: Vec<_> = (0..3).map(|i| nl.add_input(format!("x{i}"))).collect();
            let y = nl.add_gate_named(kind, ins, "y").unwrap();
            nl.add_output(y);
            check_consistency(&nl);
        }
    }

    #[test]
    fn constants_consistent() {
        use atpg_easy_netlist::GateKind::*;
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let k1 = nl.add_gate_named(Const1, vec![], "k1").unwrap();
        let y = nl.add_gate_named(And, vec![a, k1], "y").unwrap();
        nl.add_output(y);
        check_consistency(&nl);
    }

    #[test]
    fn formula_matches_paper_size() {
        // The paper's Formula 4.1 for Figure 4(a) has 13 clauses over 9
        // variables (one clause per gate input + one big clause per gate +
        // the output unit clause). Our version of the circuit has an extra
        // explicit inverter net, so: nets = 5 PI + 5 gate outputs = 10;
        // clauses = NOT:2 + OR(2):3 + NAND(2):3 + AND(2):3 + AND(2):3 + out:1 = 15.
        let nl = atpg_easy_netlist::parser::bench::parse(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(i)\n\
             cn = NOT(c)\nf = OR(b, cn)\ng = NAND(d, e)\nh = AND(a, f)\ni = AND(h, g)\n",
        )
        .unwrap();
        let enc = encode(&nl).unwrap();
        assert_eq!(enc.formula.num_vars(), 10);
        assert_eq!(enc.formula.num_clauses(), 15);
    }

    #[test]
    fn circuit_sat_requires_output_one() {
        // y = AND(a, b): the only satisfying assignment sets a=b=1.
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::And, vec![a, b], "y").unwrap();
        nl.add_output(y);
        let enc = encode(&nl).unwrap();
        assert!(enc.formula.eval_complete(&[true, true, true]));
        assert!(!enc.formula.eval_complete(&[true, false, false]));
        // a=1,b=0,y=0 satisfies gates but not the output clause.
        let cons = encode_consistency(&nl).unwrap();
        assert!(cons.formula.eval_complete(&[true, false, false]));
    }

    #[test]
    fn wide_xor_rejected() {
        let mut nl = Netlist::new("x3");
        let ins: Vec<_> = (0..3).map(|i| nl.add_input(format!("x{i}"))).collect();
        let y = nl.add_gate_named(GateKind::Xor, ins, "y").unwrap();
        nl.add_output(y);
        assert!(matches!(
            encode(&nl),
            Err(EncodeError::WideXor { fanin: 3 })
        ));
    }

    #[test]
    fn no_outputs_rejected() {
        let mut nl = Netlist::new("e");
        nl.add_input("a");
        assert!(matches!(encode(&nl), Err(EncodeError::NoOutputs)));
    }

    #[test]
    fn input_vector_projection() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::Or, vec![a, b], "y").unwrap();
        nl.add_output(y);
        let enc = encode(&nl).unwrap();
        let model = vec![true, false, true];
        assert_eq!(enc.input_vector(&model), vec![true, false]);
    }
}
