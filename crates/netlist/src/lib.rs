//! Combinational Boolean network representation for the *atpg-easy* project,
//! a reproduction of "Why is ATPG Easy?" (Prasad, Chong, Keutzer, DAC 1999).
//!
//! The central type is [`Netlist`]: a directed acyclic network of logic
//! gates ([`Gate`], [`GateKind`]) connected by nets ([`NetId`]). Nets are
//! driven either by a primary input or by exactly one gate, and may fan out
//! to any number of gate inputs and/or primary outputs.
//!
//! On top of the core data structure this crate provides:
//!
//! - topological analysis: gate ordering, logic levels, transitive fan-in /
//!   fan-out cones and subcircuit extraction ([`topo`]) — the machinery
//!   behind the paper's `C_ψ^sub` and `C_ψ^fo` constructions;
//! - 64-way bit-parallel logic simulation ([`sim`]);
//! - technology decomposition to bounded-fan-in AND/OR/INV networks
//!   ([`decompose`]), the stand-in for SIS `tech_decomp` that the paper uses
//!   to pre-process every benchmark (Section 5.2.2);
//! - parsers and writers for the ISCAS85 `.bench` format and a BLIF subset
//!   ([`parser`]);
//! - a cleanup sweep — constant propagation, buffer collapsing, dead-logic
//!   removal ([`sweep`]).
//!
//! # Example
//!
//! ```
//! use atpg_easy_netlist::{GateKind, Netlist};
//!
//! # fn main() -> Result<(), atpg_easy_netlist::NetlistError> {
//! // The example circuit of Figure 4(a) in the paper: f = OR(b, !c),
//! // g = OR(d, e) with an inverted output sense handled by gate choice,
//! // h = AND(a, f) ... here we just build a tiny AND-OR network.
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let f = nl.add_gate_named(GateKind::And, vec![a, b], "f")?;
//! nl.add_output(f);
//! nl.validate()?;
//! assert_eq!(nl.num_gates(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod decompose;
mod error;
mod gate;
mod id;
mod netlist;
pub mod parser;
pub mod sim;
pub mod stats;
pub mod sweep;
pub mod topo;

pub use error::NetlistError;
pub use gate::{splat_block, Gate, GateKind, PatternBlock, LANES, ZERO_BLOCK};
pub use id::{GateId, NetId};
pub use netlist::{Net, Netlist};
pub use stats::CircuitStats;
