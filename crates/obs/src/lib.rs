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
//! - [`RecordingProbe`]: captures the raw [`Event`] stream (bounded) for
//!   tests and debugging.
//! - [`Collector`] + [`LocalBuf`]: thread-local trace buffers with a
//!   lock-free (Treiber-stack) hand-off, so parallel campaign workers
//!   record without contention.
//! - [`InstanceTrace`] / [`CampaignMeta`]: one JSONL line per SAT
//!   instance (plus one gauge line per campaign), with a parser for the
//!   same schema so traces round-trip.
//! - Sinks ([`JsonlSink`], [`CsvSink`], [`SummarySink`]): stream traces
//!   to JSONL, to the Figure-1 CSV schema, or into an in-process
//!   log-scale histogram/percentile summary ([`TraceSummary`]).
//!
//! No dependencies; JSON is hand-rolled like the rest of the workspace's
//! report output.

#![warn(clippy::unwrap_used)]

mod buffer;
mod hist;
mod probe;
mod sink;
mod trace;

pub use buffer::{Collector, LocalBuf};
pub use hist::LogHistogram;
pub use probe::{
    Counters, CountingProbe, Event, NoProbe, Probe, ProbeOutcome, RecordingProbe, Tee,
};
pub use sink::{CsvSink, JsonlSink, SharedSink, SummarySink, TraceSink, TraceSummary};
pub use trace::{
    json_escape, parse_jsonl, parse_jsonl_line, CampaignMeta, InstanceTrace, TraceLine,
};
