//! ATPG-as-a-service: a long-lived campaign daemon over line-delimited
//! JSON.
//!
//! The paper's thesis — ATPG instances are easy, so campaigns are
//! dominated by orchestration, not solving — makes test generation a
//! natural *service*: many small, short-lived SAT problems multiplex
//! well onto a shared worker pool. This crate is that service, built
//! entirely on the workspace (no external runtime):
//!
//! - [`proto`]: the wire protocol — flat JSONL requests/responses with
//!   typed error codes. One request line in, a stream of response lines
//!   out (`accepted`, `start`, per-fault `verdict`s, optional `cert`
//!   and `audit` for certified campaigns, terminal `done`).
//! - `Scheduler` (via [`Server`]): a bounded, tenant-fair,
//!   deadline-aware executor driving [`CampaignDriver`] state machines
//!   a quantum of faults at a time — admission-time shedding instead of
//!   unbounded queues, round-robin across connections, cooperative
//!   cancellation, `catch_unwind` bug shields.
//! - [`Server`]: connection plumbing over TCP or in-memory pipes; the
//!   same framing/dispatch code serves both, so tests exercise the real
//!   daemon in-process.
//! - [`Client`]: the in-process client the test harness hammers the
//!   daemon with; [`CampaignOutcome::detection_report`] reconstructs
//!   the library report byte-for-byte from the wire.
//! - [`FakeClock`]: injectable time, so deadline semantics are tested
//!   by arithmetic, not by racing real workers.
//!
//! Byte-identity contract: a campaign streamed through this daemon
//! yields the same `detection_report` as [`campaign::run`] on the same
//! netlist and configuration, at any worker count — the driver refactor
//! makes both paths literally the same loop.
//!
//! [`CampaignDriver`]: atpg_easy_atpg::CampaignDriver
//! [`campaign::run`]: atpg_easy_atpg::campaign::run

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod pipe;
pub mod proto;
pub(crate) mod sched;
pub mod server;

pub use client::{
    AuditLine, CampaignOutcome, Client, DoneLine, PipeClient, Submission, VerdictLine,
};
pub use clock::{Clock, FakeClock, SystemClock};
pub use pipe::{pipe, PipeReader, PipeWriter};
pub use proto::{
    CampaignOptions, DoneStatus, ErrorCode, ProtoError, Request, Response, StatsSnapshot,
};
pub use sched::{PoolStats, ServeConfig};
pub use server::Server;
