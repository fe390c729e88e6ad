//! Independent certification of SAT/UNSAT verdicts.
//!
//! The paper's Figure-1 argument counts ~11k per-fault verdicts, and the
//! redundant-fault claims are exactly the UNSAT miters of Lemma 4.2 — so
//! every number downstream of the campaign rests on trusting solver
//! answers. This crate re-derives those answers from scratch:
//!
//! - [`drat`] parses and renders the textual DRAT proof format (clause
//!   additions plus `d`-prefixed deletions over DIMACS literals).
//! - [`checker`] is a stateful RUP (reverse unit propagation) checker
//!   with deletion handling: every added clause must follow from the
//!   current database by unit propagation alone.
//! - [`model`] evaluates a claimed SAT model against the original
//!   clauses and the assumptions of the solve.
//! - [`stream`] replays a whole campaign's proof event stream — axioms,
//!   derivations, deletions, per-instance solve brackets — and produces
//!   a [`StreamAudit`] classifying every instance as certified,
//!   uncertified (with a reason), or failed.
//! - [`audit`] aggregates per-circuit stream audits into the
//!   `results/audit.json` report the `audit` bench bin writes.
//!
//! # Independence
//!
//! This crate deliberately depends on **nothing** from the workspace —
//! in particular not on `atpg-easy-sat` or `atpg-easy-cnf`. Clauses are
//! plain `Vec<i64>` of DIMACS literals (positive/negative non-zero
//! integers), models are plain `Vec<bool>`. A bug shared between solver
//! and checker would defeat certification; the only shared artifact is
//! the integer encoding of a literal.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

pub mod audit;
pub mod checker;
pub mod drat;
pub mod model;
pub mod stream;

pub use audit::{Audit, CircuitAudit};
pub use checker::{CheckError, Checker};
pub use drat::{parse_drat, render_drat, DratParseError, Step};
pub use model::{model_satisfies, ModelError};
pub use stream::{audit_stream, Event, InstanceAudit, InstanceStatus, StreamAudit, Verdict};
