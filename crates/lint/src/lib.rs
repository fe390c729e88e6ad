//! Structural static analysis ("lint") for the ATPG workspace.
//!
//! The paper's central claim — that industrial ATPG instances are easy
//! because real circuits have small cut-width — is an empirical argument
//! built on three artifact kinds: netlists, their CNF encodings, and
//! width certificates (orderings plus claimed widths). A silent defect
//! in any of them (a combinational cycle, a mis-encoded gate, a
//! non-permutation ordering) invalidates downstream measurements without
//! failing loudly. This crate makes those defects loud.
//!
//! # Pass families
//!
//! | Module | Codes | Subject |
//! |---|---|---|
//! | [`netlist`] | `N001`–`N007` | structural netlist health |
//! | [`cnf`] | `C001`–`C007` | CNF formulas and Tseitin encodings |
//! | [`cert`] | `O001`–`O004` | cut-width and miter certificates |
//! | [`json`] | `T001`–`T004` | JSONL solver-telemetry traces |
//! | [`activation`] | `A001`–`A004` | activation-literal hygiene in incremental encodings |
//! | [`proof`] | `P001`–`P004` | certified verdicts: DRAT streams and claimed models |
//! | [`source`] | `S001`–`S004` | the workspace's own Rust source: unsafe/atomic hygiene |
//! | [`redundancy`] | `R001`–`R005` | static implications, testability, redundant faults |
//!
//! Every diagnostic carries a stable [`Code`], a [`Severity`], a
//! [`Location`], and a human-readable message; a [`Report`] renders as
//! rustc-style text ([`Report::render_human`]) or JSON
//! ([`Report::render_json`]).
//!
//! # Preflight
//!
//! [`preflight`] bundles the checks a netlist must pass before fault
//! enumeration, encoding, or width measurement make sense. The ATPG
//! campaign driver runs it before building miters so that malformed
//! inputs fail with a diagnostic report instead of a mid-campaign panic.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

pub mod activation;
pub mod cert;
pub mod cnf;
pub mod diag;
pub mod json;
pub mod netlist;
pub mod proof;
pub mod redundancy;
pub mod source;

pub use diag::{Code, Diagnostic, Location, Report, Severity};
pub use netlist::NetlistLintConfig;
pub use source::SourceLintConfig;

/// Runs the netlist pass family with default configuration — the
/// standard gate before ATPG campaigns and encodings.
pub fn preflight(nl: &atpg_easy_netlist::Netlist) -> Report {
    netlist::lint(nl)
}
