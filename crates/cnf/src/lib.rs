//! CNF Boolean formulas and the CIRCUIT-SAT encoding used by the paper.
//!
//! Section 2 of *"Why is ATPG Easy?"* casts CIRCUIT-SAT on a circuit `C` as
//! satisfiability of a formula `f(C)` with **one variable per signal net**
//! and a fixed clause template per gate (the paper's Figure 2), plus a
//! clause asserting that at least one primary output is 1. That one-to-one
//! correspondence between formula variables and circuit nets is what makes
//! the cut-width analysis work, so this crate preserves it exactly: see
//! [`circuit::encode`].
//!
//! Also provided: DIMACS I/O ([`dimacs`]), recognition of the polynomial
//! SAT classes discussed in Section 3.1 ([`horn`]: Horn, renamable Horn,
//! q-Horn), and the Purdom–Brown average-case parameterization of
//! Section 3.3 ([`params`]).
//!
//! # Example
//!
//! ```
//! use atpg_easy_cnf::{CnfFormula, Lit, Var};
//!
//! let mut f = CnfFormula::new(2);
//! let x = Var::from_index(0);
//! let y = Var::from_index(1);
//! f.add_clause(vec![Lit::positive(x), Lit::negative(y)]);
//! assert_eq!(f.num_clauses(), 1);
//! assert_eq!(f.eval(&[Some(false), Some(false)]), Some(true));
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod dimacs;
mod formula;
pub mod horn;
mod lit;
pub mod params;
pub mod simplify;

pub use circuit::{encode, CircuitSatEncoding};
pub use formula::CnfFormula;
pub use lit::{Lit, Var};

/// A clause is a disjunction of literals.
pub type Clause = Vec<Lit>;
