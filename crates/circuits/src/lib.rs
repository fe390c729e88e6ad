//! Benchmark-circuit generators for the *atpg-easy* reproduction.
//!
//! The paper evaluates on the MCNC91 and ISCAS85 suites plus circ/gen-style
//! parameterized random circuits (Sections 1, 5.2). This crate generates
//! the same *structural families* from scratch at controlled sizes:
//!
//! - [`adders`]: ripple-carry (Fujiwara's k-bounded example) and
//!   carry-lookahead adders;
//! - [`multiplier`]: array multipliers (the C6288 family);
//! - [`alu`]: a 74181-flavoured ALU slice array (the C880 family);
//! - [`decoder`], [`mux`], [`parity`], [`comparator`]: the small
//!   combinational families populating MCNC91;
//! - [`cellular`]: one- and two-dimensional cellular arrays (the other
//!   k-bounded examples of Fujiwara \[10\]);
//! - [`random`]: a parameterized random-DAG generator standing in for
//!   Hutton et al.'s circ/gen;
//! - [`kbounded`]: random k-bounded circuits with their block-tree
//!   certificate (Theorem 5.1 experiments);
//! - [`trees`]: random k-ary tree circuits (Lemma 5.2 experiments);
//! - [`suite`]: named circuit collections (`iscas_like`, `mcnc_like`)
//!   including the genuine ISCAS85 `c17`.
//!
//! All generators are deterministic in their parameters (random ones take
//! an explicit seed).

#![forbid(unsafe_code)]

pub mod adders;
pub mod alu;
pub mod cellular;
pub mod comparator;
pub mod decoder;
pub mod kbounded;
pub mod multiplier;
pub mod mux;
pub mod parity;
pub mod random;
pub mod suite;
pub mod trees;
