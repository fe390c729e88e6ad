//! SAT-based automatic test pattern generation (ATPG) — the system the
//! paper analyzes.
//!
//! This crate rebuilds the Larrabee \[18\] / TEGUS \[24\] formulation from
//! scratch:
//!
//! - [`Fault`]: single stuck-at faults on nets, enumeration and structural
//!   equivalence collapsing ([`fault`]);
//! - [`miter::build`]: the `C_ψ^ATPG` construction of the paper's Figure 3 —
//!   the good subcircuit `C_ψ^sub`, the faulty fan-out cone `C_ψ^fo`, and a
//!   pairwise XOR of the affected outputs. The construction is written
//!   once: it makes this netlist, a fresh campaign instance's CNF (no
//!   netlist in between) and, for its faulty-cone half, a warm solve's
//!   guarded clauses;
//! - [`faultsim`]: pattern-parallel fault simulation — 64 patterns per
//!   word, 256 per pass in a campaign's random phase and in test-set
//!   compaction ([`WIDE_PATTERNS`]) — used for fault dropping and for
//!   verifying generated tests;
//! - [`podem`]: the PODEM structural baseline (decisions at primary
//!   inputs only, objective/backtrace), cross-checked against the SAT
//!   engines;
//! - [`campaign`]: the TEGUS-style loop — one ATPG-SAT instance per fault,
//!   solved by CDCL, optional fault dropping —
//!   which is exactly the experiment behind the paper's Figure 1;
//! - [`driver`]: the one campaign state machine, in three parts — a
//!   read-only setup (preflight, collapse, static prune, cone simulator,
//!   random phase), a solver context that is the only place a fault gets
//!   solved, and a commit state that applies drop hits and emits records
//!   — which [`campaign::run`], the `serve` daemon and [`parallel`] all
//!   run on;
//! - [`incremental`]: the same loop against one persistent
//!   assumption-based CDCL solver — fault-free circuit encoded once,
//!   per-fault logic on activation literals, learnt clauses retained
//!   across faults (enable with [`AtpgConfig::incremental`]);
//! - [`parallel`]: the fault-parallel campaign engine — the driver's
//!   setup shared by worker threads that each own a solver context and
//!   take faults from one shared atomic cursor, with fault dropping
//!   coordinated through a drop-bitmap and committed in fault order so
//!   the output is byte-identical at any thread count;
//! - [`certify`]: DRAT proof logging for every verdict — campaigns
//!   record axioms and solve brackets while the solvers stream their
//!   derivations, producing proof streams the independent
//!   `atpg-easy-proof` checker (and the lint `P*` pass) re-derives.
//!
//! # Example: test a stuck-at fault
//!
//! ```
//! use atpg_easy_atpg::{miter, Fault};
//! use atpg_easy_cnf::circuit;
//! use atpg_easy_netlist::{GateKind, Netlist};
//! use atpg_easy_sat::{Cdcl, Solver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("and2");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_gate_named(GateKind::And, vec![a, b], "y")?;
//! nl.add_output(y);
//!
//! let m = miter::build(&nl, Fault::stuck_at_0(y));
//! let enc = circuit::encode(&m.circuit)?;
//! let solution = Cdcl::new().solve(&enc.formula);
//! assert!(solution.outcome.is_sat(), "y s-a-0 is testable by a=b=1");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod campaign;
pub mod certify;
pub mod driver;
pub mod fault;
pub mod faultsim;
pub mod incremental;
pub mod miter;
pub mod parallel;
pub mod podem;
pub mod verify;

pub use campaign::{AtpgConfig, CampaignResult, FaultOutcome, FaultRecord, SolverChoice};
pub use certify::{CertifiedRun, StreamSink};
pub use driver::{CampaignDriver, DriverError};
pub use fault::Fault;
pub use faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
pub use incremental::IncrementalAtpg;
pub use miter::AtpgMiter;
pub use parallel::{AtpgCampaign, DropBitmap, ParallelReport, ParallelRun, WorkerReport};
