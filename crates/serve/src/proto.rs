//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One JSON object per line, flat (no nesting), with string, unsigned
//! integer and boolean values only. Lines are scanned and written by
//! `obs::json`, the workspace's one flat-JSON codec, which the trace
//! lines share. The parser is total: every malformed input maps to a
//! typed [`ProtoError`] with a stable machine-readable code, never a
//! panic — the protocol robustness proptests pin this.
//!
//! Requests (client → server):
//!
//! | `type`     | fields                                                  |
//! |------------|---------------------------------------------------------|
//! | `campaign` | `id`, `netlist` (ISCAS-89 bench text), option fields;   |
//! |            | `patterns` at most [`MAX_PATTERNS`], else `bad_field`;  |
//! |            | `solver` only `cdcl` (campaigns solve with CDCL), any   |
//! |            | other name `bad_field`                                  |
//! | `cancel`   | `id`                                                    |
//! | `ping`     | —                                                       |
//! | `stats`    | —                                                       |
//!
//! Responses (server → client) are described on [`Response`].

use atpg_easy_atpg::{AtpgConfig, SolverChoice};
use atpg_easy_obs::json::{self, push_bool, push_num, push_str, JsonError};
use atpg_easy_sat::Limits;

/// Default cap on one request line (netlists ride inside a line).
pub const DEFAULT_MAX_LINE_BYTES: usize = 4 << 20;

/// Default cap on the `netlist` field of a campaign request.
pub const DEFAULT_MAX_NETLIST_BYTES: usize = 1 << 20;

/// Cap on a campaign's `patterns`. The random phase runs while the
/// campaign is built, before its first deadline or cancel check, so this
/// bounds the time a request can hold a worker uninterruptibly.
pub const MAX_PATTERNS: u64 = 1 << 16;

/// Stable machine-readable error codes carried by `error` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not a flat JSON object of strings/integers/booleans.
    Json,
    /// The line is not valid UTF-8.
    Utf8,
    /// The line exceeds the server's line cap.
    LineTooLong,
    /// The `type` field is missing or names no known request.
    UnknownType,
    /// A required field is absent.
    MissingField,
    /// A field is present but has the wrong type or an invalid value.
    BadField,
    /// The netlist exceeds the server's netlist cap.
    Oversize,
    /// The netlist failed the ATPG preflight lint.
    Preflight,
    /// A cancel names a request id this connection never submitted (or
    /// one that already finished).
    UnknownId,
    /// A campaign reuses an id that is still in flight on this
    /// connection.
    DuplicateId,
    /// The campaign died inside the engine (a bug shield: workers never
    /// crash on one request's behalf).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Json => "json",
            ErrorCode::Utf8 => "utf8",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::UnknownType => "unknown_type",
            ErrorCode::MissingField => "missing_field",
            ErrorCode::BadField => "bad_field",
            ErrorCode::Oversize => "oversize",
            ErrorCode::Preflight => "preflight",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::DuplicateId => "duplicate_id",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling back (client side).
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "json" => ErrorCode::Json,
            "utf8" => ErrorCode::Utf8,
            "line_too_long" => ErrorCode::LineTooLong,
            "unknown_type" => ErrorCode::UnknownType,
            "missing_field" => ErrorCode::MissingField,
            "bad_field" => ErrorCode::BadField,
            "oversize" => ErrorCode::Oversize,
            "preflight" => ErrorCode::Preflight,
            "unknown_id" => ErrorCode::UnknownId,
            "duplicate_id" => ErrorCode::DuplicateId,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed protocol failure: code plus human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail (free text, may change).
    pub msg: String,
}

impl ProtoError {
    /// A new error.
    pub fn new(code: ErrorCode, msg: impl Into<String>) -> Self {
        ProtoError {
            code,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.msg)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        let code = match e {
            JsonError::Syntax { .. } => ErrorCode::Json,
            JsonError::Missing { .. } => ErrorCode::MissingField,
            JsonError::WrongType { .. } => ErrorCode::BadField,
        };
        ProtoError::new(code, e.to_string())
    }
}

/// Reads the `type` field; a missing or non-string one is `unknown_type`.
fn line_type(fields: &json::Fields) -> Result<String, ProtoError> {
    fields
        .req("type")
        .map_err(|e| ProtoError::new(ErrorCode::UnknownType, e.to_string()))
}

/// Campaign options carried by a `campaign` request; every field has a
/// wire default so minimal requests stay minimal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Random patterns before the SAT phase (`patterns`, default 0, at
    /// most [`MAX_PATTERNS`]).
    pub patterns: u64,
    /// Random-phase seed (`seed`, default 1).
    pub seed: u64,
    /// Solver backend: always CDCL. The wire field `solver` accepts only
    /// `cdcl`, so clients that send it keep working; any other name is
    /// `bad_field`. The field remains only because the `campaign_bench`
    /// benchmark names it, and [`Request::render`] never writes it.
    pub solver: SolverChoice,
    /// Warm incremental solving (`incremental`, default false).
    pub incremental: bool,
    /// Static-implication redundancy pre-pass (`static_prune`).
    pub static_prune: bool,
    /// DRAT certification events + postflight audit (`certify`).
    pub certify: bool,
    /// Request-scoped `obs` instance traces (`trace`).
    pub trace: bool,
    /// Fault dropping (`dropping`, default true).
    pub dropping: bool,
    /// Structural fault collapsing (`collapse`, default true).
    pub collapse: bool,
    /// Dominance collapsing (`dominance`, default false).
    pub dominance: bool,
    /// Per-request wall deadline in milliseconds (`deadline_ms`).
    pub deadline_ms: Option<u64>,
    /// Per-instance node budget (`max_nodes`).
    pub max_nodes: Option<u64>,
    /// Per-instance conflict budget (`max_conflicts`).
    pub max_conflicts: Option<u64>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            patterns: 0,
            seed: 1,
            solver: SolverChoice::Cdcl,
            incremental: false,
            static_prune: false,
            certify: false,
            trace: false,
            dropping: true,
            collapse: true,
            dominance: false,
            deadline_ms: None,
            max_nodes: None,
            max_conflicts: None,
        }
    }
}

impl CampaignOptions {
    /// The [`AtpgConfig`] these options denote. Preflight is always on —
    /// a shared daemon must reject malformed netlists with a typed
    /// error, never panic a worker. The wall component of the request
    /// deadline is clamped in later, per scheduling quantum.
    pub fn to_config(&self) -> AtpgConfig {
        AtpgConfig {
            limits: Limits {
                max_nodes: self.max_nodes,
                max_conflicts: self.max_conflicts,
                max_wall: None,
            },
            fault_dropping: self.dropping,
            collapse: self.collapse,
            dominance: self.dominance,
            random_patterns: self.patterns as usize,
            seed: self.seed,
            preflight: true,
            incremental: self.incremental,
            static_prune: self.static_prune,
            ..AtpgConfig::default()
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a campaign: run ATPG on `netlist` under `options`,
    /// streaming per-fault verdicts tagged with `id`.
    Campaign {
        /// Client-chosen id echoed on every response for this campaign.
        id: String,
        /// ISCAS-89 `.bench` netlist text.
        netlist: String,
        /// Campaign options.
        options: CampaignOptions,
    },
    /// Cancel an in-flight campaign by id.
    Cancel {
        /// The id of the campaign to cancel.
        id: String,
    },
    /// Liveness probe; answered with `pong`.
    Ping,
    /// Worker-pool counters; answered with a `stats` response.
    Stats,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let f = json::parse_flat_object(line)?;
        match line_type(&f)?.as_str() {
            "campaign" => {
                let id = f.req("id")?;
                let netlist = f.req("netlist")?;
                let mut options = CampaignOptions::default();
                if let Some(n) = f.opt("patterns")? {
                    options.patterns = n;
                }
                if let Some(n) = f.opt("seed")? {
                    options.seed = n;
                }
                if let Some(s) = f.opt::<String>("solver")? {
                    if s != "cdcl" {
                        return Err(ProtoError::new(
                            ErrorCode::BadField,
                            format!("unknown solver `{s}`: campaigns solve with cdcl"),
                        ));
                    }
                }
                if let Some(b) = f.opt("incremental")? {
                    options.incremental = b;
                }
                if let Some(b) = f.opt("static_prune")? {
                    options.static_prune = b;
                }
                if let Some(b) = f.opt("certify")? {
                    options.certify = b;
                }
                if let Some(b) = f.opt("trace")? {
                    options.trace = b;
                }
                if let Some(b) = f.opt("dropping")? {
                    options.dropping = b;
                }
                if let Some(b) = f.opt("collapse")? {
                    options.collapse = b;
                }
                if let Some(b) = f.opt("dominance")? {
                    options.dominance = b;
                }
                options.deadline_ms = f.opt("deadline_ms")?;
                options.max_nodes = f.opt("max_nodes")?;
                options.max_conflicts = f.opt("max_conflicts")?;
                Ok(Request::Campaign {
                    id,
                    netlist,
                    options,
                })
            }
            "cancel" => Ok(Request::Cancel { id: f.req("id")? }),
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            other => Err(ProtoError::new(
                ErrorCode::UnknownType,
                format!("unknown request type `{other}`"),
            )),
        }
    }

    /// Renders as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Campaign {
                id,
                netlist,
                options,
            } => {
                let mut s = String::from("{\"type\":\"campaign\"");
                push_str(&mut s, "id", id);
                push_str(&mut s, "netlist", netlist);
                let d = CampaignOptions::default();
                if options.patterns != d.patterns {
                    push_num(&mut s, "patterns", options.patterns);
                }
                if options.seed != d.seed {
                    push_num(&mut s, "seed", options.seed);
                }
                if options.incremental != d.incremental {
                    push_bool(&mut s, "incremental", options.incremental);
                }
                if options.static_prune != d.static_prune {
                    push_bool(&mut s, "static_prune", options.static_prune);
                }
                if options.certify != d.certify {
                    push_bool(&mut s, "certify", options.certify);
                }
                if options.trace != d.trace {
                    push_bool(&mut s, "trace", options.trace);
                }
                if options.dropping != d.dropping {
                    push_bool(&mut s, "dropping", options.dropping);
                }
                if options.collapse != d.collapse {
                    push_bool(&mut s, "collapse", options.collapse);
                }
                if options.dominance != d.dominance {
                    push_bool(&mut s, "dominance", options.dominance);
                }
                if let Some(n) = options.deadline_ms {
                    push_num(&mut s, "deadline_ms", n);
                }
                if let Some(n) = options.max_nodes {
                    push_num(&mut s, "max_nodes", n);
                }
                if let Some(n) = options.max_conflicts {
                    push_num(&mut s, "max_conflicts", n);
                }
                s.push('}');
                s
            }
            Request::Cancel { id } => {
                let mut s = String::from("{\"type\":\"cancel\"");
                push_str(&mut s, "id", id);
                s.push('}');
                s
            }
            Request::Ping => "{\"type\":\"ping\"}".to_string(),
            Request::Stats => "{\"type\":\"stats\"}".to_string(),
        }
    }
}

/// Terminal status of a campaign, carried by `done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneStatus {
    /// Every fault got a solver/simulation verdict.
    Ok,
    /// The request deadline expired; remaining faults were flushed as
    /// `deadline` verdicts (or, when it expired before the campaign
    /// started, no verdicts were emitted at all).
    Deadline,
    /// Cancelled by request or client disconnect.
    Cancelled,
    /// The campaign failed (preflight or internal error).
    Failed,
}

impl DoneStatus {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            DoneStatus::Ok => "ok",
            DoneStatus::Deadline => "deadline",
            DoneStatus::Cancelled => "cancelled",
            DoneStatus::Failed => "failed",
        }
    }

    fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => DoneStatus::Ok,
            "deadline" => DoneStatus::Deadline,
            "cancelled" => DoneStatus::Cancelled,
            "failed" => DoneStatus::Failed,
            _ => return None,
        })
    }
}

/// Worker-pool counters, as carried by a `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Campaigns admitted into the in-flight window.
    pub admitted: u64,
    /// Campaigns refused with a `shed` response.
    pub shed: u64,
    /// Campaigns that ran to `done status=ok`.
    pub completed: u64,
    /// Campaigns cancelled (request or disconnect).
    pub cancelled: u64,
    /// Campaigns that failed (preflight/internal).
    pub failed: u64,
    /// Campaigns terminated by their deadline.
    pub deadline_expired: u64,
    /// SAT instances solved across all campaigns.
    pub solves: u64,
    /// Driver steps executed (solved + sim-retired faults).
    pub steps: u64,
    /// Campaigns currently in flight (admitted, not yet finalized).
    pub active: u64,
    /// The configured in-flight capacity.
    pub capacity: u64,
    /// Campaigns that found their netlist's setup in the setup cache.
    pub cache_hits: u64,
    /// Campaigns that built their netlist's setup (a failed build too).
    pub cache_misses: u64,
    /// Setups the cache dropped to stay within its byte budget.
    pub cache_evictions: u64,
    /// The cache's current size, by its entries' byte estimates.
    pub cache_bytes: u64,
}

/// A parsed server response. Fault verdicts stream one line per fault in
/// record order, so a client can rebuild
/// [`detection_report`](atpg_easy_atpg::CampaignResult::detection_report)
/// byte-for-byte from `verdict` lines alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The campaign entered the in-flight window.
    Accepted {
        /// Campaign id.
        id: String,
    },
    /// Backpressure: the in-flight window is full; retry later.
    Shed {
        /// Campaign id.
        id: String,
        /// Campaigns currently in flight.
        in_flight: u64,
        /// The configured window size.
        capacity: u64,
    },
    /// The campaign was built: preflight passed, faults enumerated and
    /// the random phase done. Streaming of verdicts begins.
    Start {
        /// Campaign id.
        id: String,
        /// Targeted (collapsed) faults — exactly this many `verdict`
        /// lines follow on an `ok` campaign.
        faults: u64,
        /// Faults already retired by the random-pattern phase.
        sim_detected: u64,
        /// Random vectors kept as tests by the random phase.
        random_tests: u64,
    },
    /// One fault's verdict.
    Verdict {
        /// Campaign id.
        id: String,
        /// Record index (fault order); dense from 0 on `ok` campaigns.
        seq: u64,
        /// Net index of the fault site.
        net: u64,
        /// Stuck-at value (0 or 1).
        stuck: u64,
        /// `detected` / `untestable` / `aborted` / `deadline`.
        verdict: String,
        /// The SAT-generated test vector (`'0'`/`'1'` per primary
        /// input), present only for SAT-detected faults.
        vector: Option<String>,
    },
    /// Proof bookkeeping for the preceding certified solve.
    Cert {
        /// Campaign id.
        id: String,
        /// Record index of the solve this certifies.
        seq: u64,
        /// Rendered DRAT bytes logged for the instance.
        proof_bytes: u64,
    },
    /// Postflight audit verdict of a certified campaign.
    Audit {
        /// Campaign id.
        id: String,
        /// Instances whose proof/model checked out.
        certified: u64,
        /// Instances whose certification failed.
        failed: u64,
        /// Instances that carried no certificate.
        uncertified: u64,
        /// Overall audit verdict.
        ok: bool,
    },
    /// Terminal line of a campaign; exactly one per accepted campaign.
    Done {
        /// Campaign id.
        id: String,
        /// Terminal status.
        status: DoneStatus,
        /// Faults detected (SAT + simulation).
        detected: u64,
        /// Faults proved untestable.
        untestable: u64,
        /// Faults aborted on per-instance budget.
        aborted: u64,
        /// Faults flushed as `deadline` verdicts.
        deadlined: u64,
        /// SAT instances solved for this campaign.
        solves: u64,
        /// Wall time from admission to finalization, in milliseconds.
        wall_ms: u64,
    },
    /// A typed protocol or campaign error. `id` is present when the
    /// error is scoped to one campaign.
    Error {
        /// Campaign id, when scoped.
        id: Option<String>,
        /// Stable machine-readable code.
        code: ErrorCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Liveness answer.
    Pong,
    /// Worker-pool counters.
    Stats(StatsSnapshot),
}

impl Response {
    /// Renders as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    /// Appends the wire line [`Response::render`] returns to `out`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Response::Accepted { id } => {
                out.push_str("{\"type\":\"accepted\"");
                push_str(out, "id", id);
            }
            Response::Shed {
                id,
                in_flight,
                capacity,
            } => {
                out.push_str("{\"type\":\"shed\"");
                push_str(out, "id", id);
                push_num(out, "in_flight", *in_flight);
                push_num(out, "capacity", *capacity);
            }
            Response::Start {
                id,
                faults,
                sim_detected,
                random_tests,
            } => {
                out.push_str("{\"type\":\"start\"");
                push_str(out, "id", id);
                push_num(out, "faults", *faults);
                push_num(out, "sim_detected", *sim_detected);
                push_num(out, "random_tests", *random_tests);
            }
            Response::Verdict {
                id,
                seq,
                net,
                stuck,
                verdict,
                vector,
            } => {
                out.push_str("{\"type\":\"verdict\"");
                push_str(out, "id", id);
                push_num(out, "seq", *seq);
                push_num(out, "net", *net);
                push_num(out, "stuck", *stuck);
                push_str(out, "verdict", verdict);
                if let Some(v) = vector {
                    push_str(out, "vector", v);
                }
            }
            Response::Cert {
                id,
                seq,
                proof_bytes,
            } => {
                out.push_str("{\"type\":\"cert\"");
                push_str(out, "id", id);
                push_num(out, "seq", *seq);
                push_num(out, "proof_bytes", *proof_bytes);
            }
            Response::Audit {
                id,
                certified,
                failed,
                uncertified,
                ok,
            } => {
                out.push_str("{\"type\":\"audit\"");
                push_str(out, "id", id);
                push_num(out, "certified", *certified);
                push_num(out, "failed", *failed);
                push_num(out, "uncertified", *uncertified);
                push_bool(out, "ok", *ok);
            }
            Response::Done {
                id,
                status,
                detected,
                untestable,
                aborted,
                deadlined,
                solves,
                wall_ms,
            } => {
                out.push_str("{\"type\":\"done\"");
                push_str(out, "id", id);
                push_str(out, "status", status.as_str());
                push_num(out, "detected", *detected);
                push_num(out, "untestable", *untestable);
                push_num(out, "aborted", *aborted);
                push_num(out, "deadlined", *deadlined);
                push_num(out, "solves", *solves);
                push_num(out, "wall_ms", *wall_ms);
            }
            Response::Error { id, code, msg } => {
                out.push_str("{\"type\":\"error\"");
                if let Some(id) = id {
                    push_str(out, "id", id);
                }
                push_str(out, "code", code.as_str());
                push_str(out, "msg", msg);
            }
            Response::Pong => out.push_str("{\"type\":\"pong\""),
            Response::Stats(t) => {
                out.push_str("{\"type\":\"stats\"");
                push_num(out, "admitted", t.admitted);
                push_num(out, "shed", t.shed);
                push_num(out, "completed", t.completed);
                push_num(out, "cancelled", t.cancelled);
                push_num(out, "failed", t.failed);
                push_num(out, "deadline_expired", t.deadline_expired);
                push_num(out, "solves", t.solves);
                push_num(out, "steps", t.steps);
                push_num(out, "active", t.active);
                push_num(out, "capacity", t.capacity);
                push_num(out, "cache_hits", t.cache_hits);
                push_num(out, "cache_misses", t.cache_misses);
                push_num(out, "cache_evictions", t.cache_evictions);
                push_num(out, "cache_bytes", t.cache_bytes);
            }
        }
        out.push('}');
    }

    /// Parses one response line (client side).
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let f = json::parse_flat_object(line)?;
        match line_type(&f)?.as_str() {
            "accepted" => Ok(Response::Accepted { id: f.req("id")? }),
            "shed" => Ok(Response::Shed {
                id: f.req("id")?,
                in_flight: f.req("in_flight")?,
                capacity: f.req("capacity")?,
            }),
            "start" => Ok(Response::Start {
                id: f.req("id")?,
                faults: f.req("faults")?,
                sim_detected: f.req("sim_detected")?,
                random_tests: f.req("random_tests")?,
            }),
            "verdict" => Ok(Response::Verdict {
                id: f.req("id")?,
                seq: f.req("seq")?,
                net: f.req("net")?,
                stuck: f.req("stuck")?,
                verdict: f.req("verdict")?,
                vector: f.opt("vector")?,
            }),
            "cert" => Ok(Response::Cert {
                id: f.req("id")?,
                seq: f.req("seq")?,
                proof_bytes: f.req("proof_bytes")?,
            }),
            "audit" => Ok(Response::Audit {
                id: f.req("id")?,
                certified: f.req("certified")?,
                failed: f.req("failed")?,
                uncertified: f.req("uncertified")?,
                ok: f.req("ok")?,
            }),
            "done" => {
                let status: String = f.req("status")?;
                Ok(Response::Done {
                    id: f.req("id")?,
                    status: DoneStatus::from_wire(&status).ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadField, format!("unknown status `{status}`"))
                    })?,
                    detected: f.req("detected")?,
                    untestable: f.req("untestable")?,
                    aborted: f.req("aborted")?,
                    deadlined: f.req("deadlined")?,
                    solves: f.req("solves")?,
                    wall_ms: f.req("wall_ms")?,
                })
            }
            "error" => {
                let code: String = f.req("code")?;
                Ok(Response::Error {
                    id: f.opt("id")?,
                    code: ErrorCode::from_wire(&code).ok_or_else(|| {
                        ProtoError::new(ErrorCode::BadField, format!("unknown code `{code}`"))
                    })?,
                    msg: f.req("msg")?,
                })
            }
            "pong" => Ok(Response::Pong),
            "stats" => Ok(Response::Stats(StatsSnapshot {
                admitted: f.req("admitted")?,
                shed: f.req("shed")?,
                completed: f.req("completed")?,
                cancelled: f.req("cancelled")?,
                failed: f.req("failed")?,
                deadline_expired: f.req("deadline_expired")?,
                solves: f.req("solves")?,
                steps: f.req("steps")?,
                active: f.req("active")?,
                capacity: f.req("capacity")?,
                // An older daemon sends no cache counters.
                cache_hits: f.opt("cache_hits")?.unwrap_or(0),
                cache_misses: f.opt("cache_misses")?.unwrap_or(0),
                cache_evictions: f.opt("cache_evictions")?.unwrap_or(0),
                cache_bytes: f.opt("cache_bytes")?.unwrap_or(0),
            })),
            other => Err(ProtoError::new(
                ErrorCode::UnknownType,
                format!("unknown response type `{other}`"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_campaign_request_round_trips() {
        let req = Request::Campaign {
            id: "j1".into(),
            netlist: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into(),
            options: CampaignOptions::default(),
        };
        let line = req.render();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn full_campaign_request_round_trips() {
        let req = Request::Campaign {
            id: "j\"2\\weird\nid".into(),
            netlist: "INPUT(1)\nOUTPUT(2)\n2 = NOT(1)\n".into(),
            options: CampaignOptions {
                patterns: 64,
                seed: 9,
                solver: SolverChoice::Cdcl,
                incremental: true,
                static_prune: true,
                certify: true,
                trace: true,
                dropping: false,
                collapse: false,
                dominance: true,
                deadline_ms: Some(1500),
                max_nodes: Some(10_000),
                max_conflicts: Some(100),
            },
        };
        let line = req.render();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn every_response_round_trips() {
        let all = vec![
            Response::Accepted { id: "a".into() },
            Response::Shed {
                id: "a".into(),
                in_flight: 1,
                capacity: 1,
            },
            Response::Start {
                id: "a".into(),
                faults: 22,
                sim_detected: 3,
                random_tests: 2,
            },
            Response::Verdict {
                id: "a".into(),
                seq: 0,
                net: 7,
                stuck: 1,
                verdict: "detected".into(),
                vector: Some("0101".into()),
            },
            Response::Verdict {
                id: "a".into(),
                seq: 1,
                net: 8,
                stuck: 0,
                verdict: "untestable".into(),
                vector: None,
            },
            Response::Cert {
                id: "a".into(),
                seq: 1,
                proof_bytes: 99,
            },
            Response::Audit {
                id: "a".into(),
                certified: 5,
                failed: 0,
                uncertified: 0,
                ok: true,
            },
            Response::Done {
                id: "a".into(),
                status: DoneStatus::Deadline,
                detected: 4,
                untestable: 1,
                aborted: 0,
                deadlined: 17,
                solves: 5,
                wall_ms: 12,
            },
            Response::Error {
                id: None,
                code: ErrorCode::Json,
                msg: "expected '{'".into(),
            },
            Response::Error {
                id: Some("a".into()),
                code: ErrorCode::Preflight,
                msg: "N002".into(),
            },
            Response::Pong,
            Response::Stats(StatsSnapshot {
                admitted: 3,
                shed: 1,
                completed: 2,
                cancelled: 1,
                failed: 0,
                deadline_expired: 0,
                solves: 40,
                steps: 66,
                active: 0,
                capacity: 4,
                cache_hits: 2,
                cache_misses: 1,
                cache_evictions: 0,
                cache_bytes: 4096,
            }),
        ];
        for r in all {
            let line = r.render();
            assert_eq!(Response::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn stats_cache_counters_round_trip_and_default_to_zero() {
        let stats = StatsSnapshot {
            admitted: 5,
            completed: 5,
            steps: 40,
            capacity: 16,
            cache_hits: 3,
            cache_misses: 2,
            cache_evictions: 1,
            cache_bytes: 123_456,
            ..StatsSnapshot::default()
        };
        let line = Response::Stats(stats).render();
        assert!(line.ends_with(
            ",\"cache_hits\":3,\"cache_misses\":2,\"cache_evictions\":1,\"cache_bytes\":123456}"
        ));
        assert_eq!(Response::parse(&line).unwrap(), Response::Stats(stats));
        // A stats line from a daemon without the setup cache.
        let old = "{\"type\":\"stats\",\"admitted\":5,\"shed\":0,\"completed\":5,\
                   \"cancelled\":0,\"failed\":0,\"deadline_expired\":0,\"solves\":7,\
                   \"steps\":40,\"active\":0,\"capacity\":16}";
        let Ok(Response::Stats(parsed)) = Response::parse(old) else {
            panic!("an older stats line must parse");
        };
        assert_eq!(
            parsed,
            StatsSnapshot {
                cache_hits: 0,
                cache_misses: 0,
                cache_evictions: 0,
                cache_bytes: 0,
                solves: 7,
                ..stats
            }
        );
    }

    #[test]
    fn malformed_lines_give_typed_errors() {
        for (line, code) in [
            ("", ErrorCode::Json),
            ("not json", ErrorCode::Json),
            ("{\"type\":\"campaign\"", ErrorCode::Json),
            ("{\"type\":3}", ErrorCode::UnknownType),
            ("{}", ErrorCode::UnknownType),
            ("{\"type\":\"warp\"}", ErrorCode::UnknownType),
            (
                "{\"type\":\"campaign\",\"id\":\"x\"}",
                ErrorCode::MissingField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":7,\"netlist\":\"\"}",
                ErrorCode::BadField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"solver\":\"brick\"}",
                ErrorCode::BadField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"solver\":\"dpll\"}",
                ErrorCode::BadField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"solver\":\"caching\"}",
                ErrorCode::BadField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"solver\":\"simple\"}",
                ErrorCode::BadField,
            ),
            (
                "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"seed\":true}",
                ErrorCode::BadField,
            ),
            ("{\"type\":\"ping\",\"n\":1.5}", ErrorCode::Json),
            ("{\"type\":\"ping\",\"n\":-1}", ErrorCode::Json),
            ("{\"type\":\"ping\",\"n\":null}", ErrorCode::Json),
            ("{\"type\":\"ping\",\"n\":[1]}", ErrorCode::Json),
            ("{\"type\":\"ping\"} trailing", ErrorCode::Json),
            (
                "{\"type\":\"ping\",\"n\":99999999999999999999999}",
                ErrorCode::Json,
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code, code, "line: {line} -> {err}");
        }
        // Campaigns solve with CDCL; clients that name it still parse.
        let line = "{\"type\":\"campaign\",\"id\":\"x\",\"netlist\":\"\",\"solver\":\"cdcl\"}";
        let Ok(Request::Campaign { options, .. }) = Request::parse(line) else {
            panic!("`solver: cdcl` must parse");
        };
        assert_eq!(options, CampaignOptions::default());
    }
}
