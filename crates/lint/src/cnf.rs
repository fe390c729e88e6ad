//! CNF formula passes (`C*` codes).
//!
//! [`lint`] checks a formula in isolation: tautologies, duplicate
//! clauses, repeated literals, variable-index gaps, out-of-range
//! literals, empty clauses. [`lint_encoding`] additionally checks a
//! *consistency* encoding of a netlist (variable `i` ↔ net `i`, as
//! produced by `cnf::circuit::encode_consistency`) against each gate's
//! truth table — the Tseitin groups of the paper's Figure 2.

use std::collections::HashMap;

use atpg_easy_cnf::{CnfFormula, Lit};
use atpg_easy_netlist::Netlist;

use crate::diag::{Code, Location, Report};

/// Gates wider than this are skipped by the truth-table comparison in
/// [`lint_encoding`] (the check enumerates `2^(fanin+1)` assignments).
pub const MAX_TRUTH_TABLE_FANIN: usize = 12;

/// Runs the standalone formula passes.
pub fn lint(f: &CnfFormula) -> Report {
    let mut report = Report::new();
    let mut used = vec![false; f.num_vars()];
    let mut seen: HashMap<Vec<Lit>, usize> = HashMap::new();

    for (ci, clause) in f.clauses().enumerate() {
        let loc = Location::Clause { index: ci };
        if clause.is_empty() {
            report.add(
                Code::C007,
                loc,
                "empty clause: the formula is trivially unsatisfiable",
            );
            continue;
        }
        for &lit in clause {
            let v = lit.var().index();
            if v >= f.num_vars() {
                report.add(
                    Code::C005,
                    Location::Clause { index: ci },
                    format!(
                        "literal references variable {v} but the formula has only {} variables",
                        f.num_vars()
                    ),
                );
            } else {
                used[v] = true;
            }
        }
        let mut norm = clause.to_vec();
        norm.sort_unstable();
        let before = norm.len();
        norm.dedup();
        if norm.len() < before {
            report.add(
                Code::C003,
                Location::Clause { index: ci },
                format!("clause repeats {} literal(s)", before - norm.len()),
            );
        }
        if norm
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0] != w[1])
        {
            report.add(
                Code::C001,
                Location::Clause { index: ci },
                "tautological clause contains a literal and its negation",
            );
        }
        if let Some(&first) = seen.get(&norm) {
            report.add(
                Code::C002,
                Location::Clause { index: ci },
                format!("clause duplicates clause #{first} (as a literal set)"),
            );
        } else {
            seen.insert(norm, ci);
        }
    }

    let gaps: Vec<usize> = used
        .iter()
        .enumerate()
        .filter(|(_, &u)| !u)
        .map(|(i, _)| i)
        .collect();
    if !gaps.is_empty() {
        let shown: Vec<String> = gaps.iter().take(5).map(usize::to_string).collect();
        let suffix = if gaps.len() > 5 { ", …" } else { "" };
        report.add(
            Code::C004,
            Location::General,
            format!(
                "{} variable(s) occur in no clause (indices {}{suffix})",
                gaps.len(),
                shown.join(", "),
            ),
        );
    }
    report
}

/// Checks a consistency encoding of `nl` (`C006`): for every gate whose
/// fan-in is at most [`MAX_TRUTH_TABLE_FANIN`], the clauses over exactly
/// that gate's variables that mention its output must be satisfied by
/// precisely the valuations where the output equals
/// `GateKind::eval_bool` of the inputs.
///
/// The formula must be a *consistency* encoding (no output-assertion
/// clause), with variable `i` carrying net `i` — the invariant
/// `cnf::circuit::encode_consistency` documents.
pub fn lint_encoding(nl: &Netlist, f: &CnfFormula) -> Report {
    let mut report = Report::new();
    if f.num_vars() < nl.num_nets() {
        report.add(
            Code::C006,
            Location::General,
            format!(
                "encoding has {} variables but the netlist has {} nets; not a net↔variable encoding",
                f.num_vars(),
                nl.num_nets()
            ),
        );
        return report;
    }

    // Clause indices by variable, to collect each gate's candidate group
    // without rescanning the whole formula per gate.
    let mut by_var: Vec<Vec<usize>> = vec![Vec::new(); f.num_vars()];
    for (ci, clause) in f.clauses().enumerate() {
        for &lit in clause {
            if lit.var().index() < f.num_vars() {
                by_var[lit.var().index()].push(ci);
            }
        }
    }

    for (gid, gate) in nl.gates() {
        if gate.fanin() > MAX_TRUTH_TABLE_FANIN {
            continue;
        }
        // The gate's variable set: inputs (deduplicated) plus output.
        let out_var = gate.output.index();
        let mut vars: Vec<usize> = gate.inputs.iter().map(|n| n.index()).collect();
        vars.push(out_var);
        vars.sort_unstable();
        vars.dedup();

        // Candidate clauses: mention the output, variables ⊆ the gate set.
        let in_set = |v: usize| vars.binary_search(&v).is_ok();
        let group: Vec<&[Lit]> = by_var[out_var]
            .iter()
            .map(|&ci| f.clause(ci))
            .filter(|clause| clause.iter().all(|l| in_set(l.var().index())))
            .collect();

        if group.is_empty() {
            report.add(
                Code::C006,
                Location::Gate { index: gid.index() },
                format!(
                    "no clauses constrain the {} gate driving `{}`",
                    gate.kind,
                    nl.net(gate.output).name
                ),
            );
            continue;
        }

        // Enumerate all assignments over the distinct gate variables.
        let mut assignment: HashMap<usize, bool> = HashMap::new();
        let mut fault: Option<String> = None;
        'assignments: for bits in 0u64..(1u64 << vars.len()) {
            for (i, &v) in vars.iter().enumerate() {
                assignment.insert(v, bits >> i & 1 != 0);
            }
            let inputs: Vec<bool> = gate.inputs.iter().map(|n| assignment[&n.index()]).collect();
            let expected = gate.kind.eval_bool(&inputs);
            let out_val = assignment[&out_var];
            let satisfied = group.iter().all(|clause| {
                clause
                    .iter()
                    .any(|l| assignment[&l.var().index()] == l.asserted_value())
            });
            if out_val == expected && !satisfied {
                fault = Some(format!(
                    "clause group rejects a valid valuation of the {} gate driving `{}` \
                     (inputs {inputs:?}, output {out_val})",
                    gate.kind,
                    nl.net(gate.output).name
                ));
                break 'assignments;
            }
            if out_val != expected && satisfied {
                fault = Some(format!(
                    "clause group fails to constrain the {} gate driving `{}` \
                     (inputs {inputs:?} admit output {out_val}, expected {expected})",
                    gate.kind,
                    nl.net(gate.output).name
                ));
                break 'assignments;
            }
        }
        if let Some(message) = fault {
            report.add(Code::C006, Location::Gate { index: gid.index() }, message);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use atpg_easy_cnf::{circuit, Var};
    use atpg_easy_netlist::GateKind;

    fn lit(v: usize, positive: bool) -> Lit {
        Lit::with_value(Var::from_index(v), positive)
    }

    #[test]
    fn clean_formula_has_no_findings() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, false)]);
        f.add_clause(vec![lit(0, false), lit(1, true)]);
        let report = lint(&f);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn c001_tautology_detected() {
        let mut f = CnfFormula::new(2);
        f.add_clause_unchecked(vec![lit(0, true), lit(0, false), lit(1, true)]);
        let report = lint(&f);
        assert!(report.has_code(Code::C001), "{report}");
    }

    #[test]
    fn c002_duplicate_clause_detected() {
        let mut f = CnfFormula::new(2);
        f.add_clause(vec![lit(0, true), lit(1, true)]);
        f.add_clause(vec![lit(1, true), lit(0, true)]);
        let report = lint(&f);
        assert_eq!(report.with_code(Code::C002).count(), 1, "{report}");
    }

    #[test]
    fn c003_repeated_literal_detected() {
        let mut f = CnfFormula::new(2);
        f.add_clause_unchecked(vec![lit(0, true), lit(0, true), lit(1, true)]);
        let report = lint(&f);
        assert!(report.has_code(Code::C003), "{report}");
        // Repetition is not a tautology.
        assert!(!report.has_code(Code::C001), "{report}");
    }

    #[test]
    fn c004_variable_gap_detected() {
        let mut f = CnfFormula::new(5);
        f.add_clause(vec![lit(0, true), lit(4, false)]);
        let report = lint(&f);
        let gap: Vec<_> = report.with_code(Code::C004).collect();
        assert_eq!(gap.len(), 1, "{report}");
        assert!(
            gap[0].message.contains("3 variable(s)"),
            "{}",
            gap[0].message
        );
    }

    #[test]
    fn c005_out_of_range_literal_detected() {
        let mut f = CnfFormula::new(2);
        f.add_clause_unchecked(vec![lit(0, true), lit(7, true)]);
        let report = lint(&f);
        assert!(report.has_code(Code::C005), "{report}");
        assert!(report.has_errors());
    }

    #[test]
    fn c007_empty_clause_detected() {
        let mut f = CnfFormula::new(1);
        f.add_clause(vec![]);
        let report = lint(&f);
        assert!(report.has_code(Code::C007), "{report}");
    }

    fn and_gate_netlist() -> Netlist {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate_named(GateKind::And, vec![a, b], "y").unwrap();
        nl.add_output(y);
        nl
    }

    #[test]
    fn real_encodings_pass_c006_for_every_kind() {
        use GateKind::*;
        for kind in [And, Or, Nand, Nor, Xor, Xnor, Not, Buf] {
            let mut nl = Netlist::new("k");
            let n = if matches!(kind, Not | Buf) { 1 } else { 2 };
            let ins: Vec<_> = (0..n).map(|i| nl.add_input(format!("x{i}"))).collect();
            let y = nl.add_gate_named(kind, ins, "y").unwrap();
            nl.add_output(y);
            let enc = circuit::encode_consistency(&nl).unwrap();
            let report = lint_encoding(&nl, &enc.formula);
            assert!(report.is_empty(), "{kind}: {report}");
        }
    }

    #[test]
    fn c006_wrong_gate_encoding_detected() {
        // Netlist says AND; encode the clauses of OR instead.
        let nl = and_gate_netlist();
        let mut f = CnfFormula::new(nl.num_nets());
        circuit::gate_clauses(
            &mut f,
            GateKind::Or,
            &[Var::from_index(0), Var::from_index(1)],
            Var::from_index(2),
        )
        .unwrap();
        let report = lint_encoding(&nl, &f);
        assert!(report.has_code(Code::C006), "{report}");
    }

    #[test]
    fn c006_missing_constraint_detected() {
        // Only half of the AND clauses: (¬y ∨ a) — y=1,a=1,b=0 slips through.
        let nl = and_gate_netlist();
        let mut f = CnfFormula::new(nl.num_nets());
        f.add_clause(vec![lit(2, false), lit(0, true)]);
        let report = lint_encoding(&nl, &f);
        assert!(report.has_code(Code::C006), "{report}");
    }

    #[test]
    fn c006_unconstrained_gate_detected() {
        let nl = and_gate_netlist();
        let f = CnfFormula::new(nl.num_nets());
        let report = lint_encoding(&nl, &f);
        assert!(report.has_code(Code::C006), "{report}");
        assert!(
            report.diagnostics()[0].message.contains("no clauses"),
            "{report}"
        );
    }

    #[test]
    fn c006_variable_count_mismatch_detected() {
        let nl = and_gate_netlist();
        let f = CnfFormula::new(1);
        let report = lint_encoding(&nl, &f);
        assert!(report.has_code(Code::C006), "{report}");
    }

    #[test]
    fn constant_gates_checked() {
        let mut nl = Netlist::new("c");
        let k1 = nl.add_gate_named(GateKind::Const1, vec![], "k1").unwrap();
        nl.add_output(k1);
        let enc = circuit::encode_consistency(&nl).unwrap();
        assert!(lint_encoding(&nl, &enc.formula).is_empty());
        // A Const1 encoded as Const0 is caught.
        let mut wrong = CnfFormula::new(nl.num_nets());
        wrong.add_clause(vec![lit(0, false)]);
        assert!(lint_encoding(&nl, &wrong).has_code(Code::C006));
    }
}
