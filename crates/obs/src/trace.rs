//! The JSONL trace schema: one line per SAT instance, plus one gauge
//! line per campaign, with a parser so traces round-trip.
//!
//! Lines are flat objects of strings and non-negative integers, written
//! and scanned by the crate's one flat-JSON codec, [`crate::json`].

use crate::json::{self, push_num, push_str, Fields, JsonError};
use crate::probe::Counters;

/// One solved SAT instance, as recorded by a campaign engine.
///
/// `seq` is the fault's position in the campaign's deterministic commit
/// order, so traces from different thread counts can be compared after a
/// sort. `wall_ns` and `worker` are machine- and schedule-dependent and
/// are excluded from [`InstanceTrace::canonical`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceTrace {
    /// Commit-order index of the fault within its campaign.
    pub seq: u64,
    /// Source circuit name.
    pub circuit: String,
    /// Fault description (e.g. `n3/s-a-0`).
    pub fault: String,
    /// SAT variables of the instance.
    pub vars: u64,
    /// SAT clauses of the instance.
    pub clauses: u64,
    /// Fault-cone subcircuit size in nets.
    pub sub_size: u64,
    /// `"SAT"`, `"UNSAT"` or `"ABORT"` (Figure-1 labels).
    pub outcome: String,
    /// Wall-clock solve time in nanoseconds (machine-dependent).
    pub wall_ns: u64,
    /// Id of the worker that solved it (schedule-dependent).
    pub worker: u64,
    /// Rendered DRAT byte count of the instance's proof (0 when the
    /// campaign ran without proof logging).
    pub proof_bytes: u64,
    /// Probe-derived event totals for the solve.
    pub counters: Counters,
}

impl InstanceTrace {
    /// Encodes as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"type\":\"instance\"");
        push_num(&mut s, "seq", self.seq);
        push_str(&mut s, "circuit", &self.circuit);
        push_str(&mut s, "fault", &self.fault);
        push_num(&mut s, "vars", self.vars);
        push_num(&mut s, "clauses", self.clauses);
        push_num(&mut s, "sub_size", self.sub_size);
        push_str(&mut s, "outcome", &self.outcome);
        push_num(&mut s, "wall_ns", self.wall_ns);
        push_num(&mut s, "worker", self.worker);
        push_num(&mut s, "proof_bytes", self.proof_bytes);
        let c = &self.counters;
        push_num(&mut s, "decisions", c.decisions);
        push_num(&mut s, "propagations", c.propagations);
        push_num(&mut s, "conflicts", c.conflicts);
        push_num(&mut s, "backtracks", c.backtracks);
        push_num(&mut s, "cache_hits", c.cache_hits);
        push_num(&mut s, "cache_misses", c.cache_misses);
        push_num(&mut s, "cache_inserts", c.cache_inserts);
        push_num(&mut s, "learned", c.learned);
        push_num(&mut s, "learned_lits", c.learned_lits);
        push_num(&mut s, "assumptions", c.assumptions);
        push_num(&mut s, "learnt_reused", c.learnt_reused);
        push_num(&mut s, "restarts", c.restarts);
        push_num(&mut s, "deadline_checks", c.deadline_checks);
        push_num(&mut s, "max_depth", c.max_depth);
        s.push('}');
        s
    }

    /// A canonical rendering excluding the machine-dependent fields
    /// (`wall_ns`, `worker`), for order-insensitive cross-run comparison.
    pub fn canonical(&self) -> String {
        let mut t = self.clone();
        t.wall_ns = 0;
        t.worker = 0;
        t.to_jsonl()
    }
}

/// Campaign-level gauges: one `"type":"campaign"` line per circuit run,
/// carrying what per-instance lines cannot (queue depth, wasted solves).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignMeta {
    /// Source circuit name.
    pub circuit: String,
    /// Worker threads used.
    pub threads: u64,
    /// Commit-window width (1 = strict in-order committing).
    pub commit_window: u64,
    /// Targeted faults.
    pub queue_depth: u64,
    /// Committed solver calls that detected their fault (SAT).
    pub committed_sat: u64,
    /// Committed solver calls that proved their fault untestable or hit a
    /// budget (UNSAT/abort) — useful work, distinct from wasted solves.
    pub committed_unsat: u64,
    /// Faults retired without a committed solver call.
    pub dropped: u64,
    /// Speculative solves superseded by fault dropping at commit time.
    pub wasted_solves: u64,
    /// Faults retired by the static implication pre-pass before any
    /// solver ran (0 when the pre-pass is disabled; absent in traces
    /// written before the pass existed).
    pub static_pruned: u64,
    /// Estimated cut-width of the circuit, when computed.
    pub cutwidth_estimate: Option<u64>,
}

impl CampaignMeta {
    /// Encodes as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::from("{\"type\":\"campaign\"");
        push_str(&mut s, "circuit", &self.circuit);
        push_num(&mut s, "threads", self.threads);
        push_num(&mut s, "commit_window", self.commit_window);
        push_num(&mut s, "queue_depth", self.queue_depth);
        push_num(&mut s, "committed_sat", self.committed_sat);
        push_num(&mut s, "committed_unsat", self.committed_unsat);
        push_num(&mut s, "dropped", self.dropped);
        push_num(&mut s, "wasted_solves", self.wasted_solves);
        if self.static_pruned > 0 {
            push_num(&mut s, "static_pruned", self.static_pruned);
        }
        if let Some(w) = self.cutwidth_estimate {
            push_num(&mut s, "cutwidth_estimate", w);
        }
        s.push('}');
        s
    }
}

/// One parsed trace line.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A `"type":"instance"` record.
    Instance(InstanceTrace),
    /// A `"type":"campaign"` record.
    Campaign(CampaignMeta),
}

/// Parses one trace line; returns an error naming the offending byte or
/// field for malformed input.
pub fn parse_jsonl_line(line: &str) -> Result<TraceLine, String> {
    let f = json::parse_flat_object(line).map_err(|e| e.to_string())?;
    let ty: String = f.req("type").map_err(|e| e.to_string())?;
    let parsed = match ty.as_str() {
        "instance" => instance(&f).map(TraceLine::Instance),
        "campaign" => campaign(&f).map(TraceLine::Campaign),
        other => return Err(format!("unknown trace line type '{other}'")),
    };
    parsed.map_err(|e| e.to_string())
}

fn instance(f: &Fields) -> Result<InstanceTrace, JsonError> {
    Ok(InstanceTrace {
        seq: f.req("seq")?,
        circuit: f.req("circuit")?,
        fault: f.req("fault")?,
        vars: f.req("vars")?,
        clauses: f.req("clauses")?,
        sub_size: f.req("sub_size")?,
        outcome: f.req("outcome")?,
        wall_ns: f.req("wall_ns")?,
        worker: f.req("worker")?,
        // Proof logging postdates the original schema; absent in old
        // traces means the campaign did not log proofs.
        proof_bytes: f.opt("proof_bytes")?.unwrap_or(0),
        counters: Counters {
            decisions: f.req("decisions")?,
            propagations: f.req("propagations")?,
            conflicts: f.req("conflicts")?,
            backtracks: f.req("backtracks")?,
            cache_hits: f.req("cache_hits")?,
            cache_misses: f.req("cache_misses")?,
            cache_inserts: f.req("cache_inserts")?,
            learned: f.req("learned")?,
            learned_lits: f.req("learned_lits")?,
            // Incremental-solver counters postdate the original
            // schema; absent in old traces means zero.
            assumptions: f.opt("assumptions")?.unwrap_or(0),
            learnt_reused: f.opt("learnt_reused")?.unwrap_or(0),
            restarts: f.req("restarts")?,
            deadline_checks: f.req("deadline_checks")?,
            max_depth: f.req("max_depth")?,
        },
    })
}

fn campaign(f: &Fields) -> Result<CampaignMeta, JsonError> {
    Ok(CampaignMeta {
        circuit: f.req("circuit")?,
        threads: f.req("threads")?,
        // Postdates the original schema: strict in-order committing
        // (width 1) was the only mode before windows existed.
        commit_window: f.opt("commit_window")?.unwrap_or(1),
        queue_depth: f.req("queue_depth")?,
        committed_sat: f.req("committed_sat")?,
        // Postdates the original schema: old traces folded UNSAT
        // commits into committed_sat, so absent means zero.
        committed_unsat: f.opt("committed_unsat")?.unwrap_or(0),
        dropped: f.req("dropped")?,
        wasted_solves: f.req("wasted_solves")?,
        static_pruned: f.opt("static_pruned")?.unwrap_or(0),
        cutwidth_estimate: f.opt("cutwidth_estimate")?,
    })
}

/// Parses a whole JSONL document, skipping blank lines. Errors carry the
/// 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceLine>, String> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", ln + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InstanceTrace {
        InstanceTrace {
            seq: 7,
            circuit: "c17".into(),
            fault: "n3/s-a-0".into(),
            vars: 11,
            clauses: 24,
            sub_size: 9,
            outcome: "SAT".into(),
            wall_ns: 120_500,
            worker: 3,
            proof_bytes: 812,
            counters: Counters {
                decisions: 5,
                propagations: 17,
                conflicts: 2,
                backtracks: 2,
                max_depth: 4,
                ..Counters::default()
            },
        }
    }

    #[test]
    fn instance_round_trips() {
        let t = sample();
        let line = t.to_jsonl();
        assert!(line.starts_with("{\"type\":\"instance\""), "{line}");
        match parse_jsonl_line(&line) {
            Ok(TraceLine::Instance(back)) => assert_eq!(back, t),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn campaign_round_trips_with_and_without_width() {
        for width in [None, Some(6)] {
            let m = CampaignMeta {
                circuit: "b9".into(),
                threads: 8,
                commit_window: 16,
                queue_depth: 310,
                committed_sat: 110,
                committed_unsat: 10,
                dropped: 190,
                wasted_solves: 14,
                static_pruned: 3,
                cutwidth_estimate: width,
            };
            match parse_jsonl_line(&m.to_jsonl()) {
                Ok(TraceLine::Campaign(back)) => assert_eq!(back, m),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn campaign_without_commit_window_parses_as_strict_in_order() {
        // A pre-window trace line: commit_window must default to 1.
        let line = "{\"type\":\"campaign\",\"circuit\":\"c17\",\"threads\":2,\
                    \"queue_depth\":22,\"committed_sat\":20,\"dropped\":2,\
                    \"wasted_solves\":0}";
        match parse_jsonl_line(line) {
            Ok(TraceLine::Campaign(m)) => assert_eq!(m.commit_window, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn canonical_zeroes_machine_fields_only() {
        let a = sample();
        let mut b = sample();
        b.wall_ns = 999;
        b.worker = 0;
        assert_eq!(a.canonical(), b.canonical());
        b.counters.decisions += 1;
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn string_escapes_survive() {
        let mut t = sample();
        t.fault = "odd \"name\"\twith\\slashes\u{1}".into();
        match parse_jsonl_line(&t.to_jsonl()) {
            Ok(TraceLine::Instance(back)) => assert_eq!(back.fault, t.fault),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        let line = sample().to_jsonl().replace("n3/s-a-0", "n3\t/s-a-0");
        let e = parse_jsonl_line(&line).expect_err("a raw tab is not JSON");
        assert!(e.contains("raw control character"), "{e}");
    }

    #[test]
    fn a_repeated_key_keeps_its_last_value() {
        let line = sample().to_jsonl().replace("}", ",\"seq\":99}");
        match parse_jsonl_line(&line) {
            Ok(TraceLine::Instance(back)) => assert_eq!(back.seq, 99),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn whole_document_parses_and_reports_bad_lines() {
        let doc = format!(
            "{}\n\n{}\n",
            CampaignMeta {
                circuit: "c17".into(),
                threads: 1,
                commit_window: 1,
                queue_depth: 22,
                committed_sat: 20,
                committed_unsat: 2,
                dropped: 0,
                wasted_solves: 0,
                static_pruned: 0,
                cutwidth_estimate: None,
            }
            .to_jsonl(),
            sample().to_jsonl()
        );
        let lines = parse_jsonl(&doc).expect("valid document");
        assert_eq!(lines.len(), 2);
        assert!(matches!(lines[0], TraceLine::Campaign(_)));
        assert!(matches!(lines[1], TraceLine::Instance(_)));

        let bad = "{\"type\":\"instance\",\"seq\":1}";
        let e = parse_jsonl(&format!("{}\n{bad}\n", sample().to_jsonl()))
            .expect_err("missing fields must fail");
        assert!(e.starts_with("line 2:"), "{e}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "[1]",
            "{\"type\":\"instance\"} trailing",
            "{\"type\":42}",
            "{\"type\":\"instance\",\"seq\":-1}",
            "{\"type\":\"instance\",\"seq\":1.5}",
            "{\"type\":\"nope\"}",
            "{\"unterminated",
        ] {
            assert!(parse_jsonl_line(bad).is_err(), "accepted: {bad}");
        }
    }
}
