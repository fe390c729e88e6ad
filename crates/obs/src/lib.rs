//! Solver telemetry for the *atpg-easy* workspace.
//!
//! The paper's core empirical artifact (Figure 1) is a *per-SAT-instance*
//! scatter of solve time versus instance size over thousands of ATPG
//! instances. Producing it faithfully — and correlating it with cut-width
//! — needs a uniform event stream from every solver, at zero cost when
//! nobody is listening. This crate is that layer:
//!
//! - [`Probe`]: a trait of typed solver events (decision, backtrack,
//!   cache hit/miss, learned clause, deadline check, instance begin/end).
//!   Every method has a no-op default; the zero-sized [`NoProbe`]
//!   monomorphizes every call site away, so an un-probed solve compiles
//!   to exactly the code it would be without this crate.
//! - [`CountingProbe`]: aggregates the stream into [`Counters`], the
//!   probe-derived per-instance summary reported by campaign engines.
//! - [`InstanceTrace`] / [`CampaignMeta`]: one JSONL line per SAT
//!   instance (plus one gauge line per campaign), with a parser for the
//!   same schema so traces round-trip. Campaign engines keep the traces
//!   of committed solves with the rest of their commit state.
//! - Sinks ([`JsonlSink`], [`CsvSink`], [`SummarySink`]): stream traces
//!   to JSONL, to the Figure-1 CSV schema, or into an in-process
//!   log-scale histogram/percentile summary ([`TraceSummary`]).
//! - [`json`]: the one flat-JSON codec — scanner, typed field reader
//!   and `,"key":value` writers — shared by the trace lines and the
//!   `serve` wire protocol. Its [`json_escape_into`] is the workspace's
//!   one JSON string escaper outside the dependency-free `proof` checker.
//!
//! No dependencies beyond the `syncx` facade (for [`SharedSink`]'s
//! mutex).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]

mod hist;
pub mod json;
mod probe;
mod sink;
mod trace;

pub use hist::LogHistogram;
pub use json::{json_escape, json_escape_into};
pub use probe::{Counters, CountingProbe, NoProbe, Probe, ProbeOutcome};
pub use sink::{CsvSink, JsonlSink, SharedSink, SummarySink, TraceSink, TraceSummary};
pub use trace::{parse_jsonl, parse_jsonl_line, CampaignMeta, InstanceTrace, TraceLine};
