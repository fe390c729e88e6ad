//! The JSONL trace schema: one line per SAT instance, plus one gauge
//! line per campaign, with a parser so traces round-trip.
//!
//! No serde in this workspace — lines are flat objects of strings and
//! non-negative integers, hand-encoded like `core::report::scaling_json`
//! and parsed with a small recursive-descent scanner.

use std::fmt::Write as _;

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
    /// Fault-queue depth (targeted faults).
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

fn push_num(s: &mut String, key: &str, v: u64) {
    let _ = write!(s, ",\"{key}\":{v}");
}

fn push_str(s: &mut String, key: &str, v: &str) {
    let _ = write!(s, ",\"{key}\":\"");
    json_escape_into(s, v);
    s.push('"');
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`, `\r` and `\t` get their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A scanned value in a flat trace object.
enum Scalar {
    Str(String),
    Num(u64),
}

/// Parses one flat JSON object (`{"key": "str" | uint, ...}`) into
/// key/value pairs. Rejects nesting, floats, negatives, booleans — the
/// trace schema uses none of them.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let err = |i: usize, what: &str| format!("byte {i}: {what}");
    let skip_ws = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        i
    };
    i = skip_ws(bytes, i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return Err(err(i, "expected '{'"));
    }
    i += 1;
    let mut out = Vec::new();
    loop {
        i = skip_ws(bytes, i);
        if i < bytes.len() && bytes[i] == b'}' && out.is_empty() {
            i += 1;
            break;
        }
        let (key, next) = parse_string(line, i)?;
        i = skip_ws(bytes, next);
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(err(i, "expected ':'"));
        }
        i = skip_ws(bytes, i + 1);
        if i >= bytes.len() {
            return Err(err(i, "expected value"));
        }
        let value = if bytes[i] == b'"' {
            let (v, next) = parse_string(line, i)?;
            i = next;
            Scalar::Str(v)
        } else if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let n: u64 = line[start..i]
                .parse()
                .map_err(|_| err(start, "integer out of range"))?;
            Scalar::Num(n)
        } else {
            return Err(err(i, "expected string or unsigned integer"));
        };
        out.push((key, value));
        i = skip_ws(bytes, i);
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(err(i, "expected ',' or '}'")),
        }
    }
    i = skip_ws(bytes, i);
    if i != bytes.len() {
        return Err(err(i, "trailing input after object"));
    }
    Ok(out)
}

/// Parses a quoted JSON string starting at byte `i`; returns the decoded
/// string and the index just past the closing quote.
fn parse_string(line: &str, i: usize) -> Result<(String, usize), String> {
    let bytes = line.as_bytes();
    if i >= bytes.len() || bytes[i] != b'"' {
        return Err(format!("byte {i}: expected '\"'"));
    }
    let mut out = String::new();
    let mut chars = line[i + 1..].char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1 + off + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| format!("byte {i}: truncated \\u escape"))?;
                        code = code * 16
                            + h.to_digit(16)
                                .ok_or_else(|| format!("byte {i}: bad \\u digit"))?;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("byte {i}: invalid \\u code point"))?,
                    );
                }
                _ => return Err(format!("byte {i}: bad escape")),
            },
            c => out.push(c),
        }
    }
    Err(format!("byte {i}: unterminated string"))
}

struct Fields {
    pairs: Vec<(String, Scalar)>,
}

impl Fields {
    fn num(&self, key: &str) -> Result<u64, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, Scalar::Num(n))) => Ok(*n),
            Some((_, Scalar::Str(_))) => Err(format!("field '{key}' is a string, wanted integer")),
            None => Err(format!("missing field '{key}'")),
        }
    }

    fn num_opt(&self, key: &str) -> Result<Option<u64>, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, Scalar::Num(n))) => Ok(Some(*n)),
            Some((_, Scalar::Str(_))) => Err(format!("field '{key}' is a string, wanted integer")),
            None => Ok(None),
        }
    }

    fn str(&self, key: &str) -> Result<String, String> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            Some((_, Scalar::Str(s))) => Ok(s.clone()),
            Some((_, Scalar::Num(_))) => Err(format!("field '{key}' is a number, wanted string")),
            None => Err(format!("missing field '{key}'")),
        }
    }
}

/// Parses one trace line; returns an error naming the offending field for
/// malformed input.
pub fn parse_jsonl_line(line: &str) -> Result<TraceLine, String> {
    let f = Fields {
        pairs: parse_flat_object(line)?,
    };
    match f.str("type")?.as_str() {
        "instance" => Ok(TraceLine::Instance(InstanceTrace {
            seq: f.num("seq")?,
            circuit: f.str("circuit")?,
            fault: f.str("fault")?,
            vars: f.num("vars")?,
            clauses: f.num("clauses")?,
            sub_size: f.num("sub_size")?,
            outcome: f.str("outcome")?,
            wall_ns: f.num("wall_ns")?,
            worker: f.num("worker")?,
            // Proof logging postdates the original schema; absent in old
            // traces means the campaign did not log proofs.
            proof_bytes: f.num_opt("proof_bytes")?.unwrap_or(0),
            counters: Counters {
                decisions: f.num("decisions")?,
                propagations: f.num("propagations")?,
                conflicts: f.num("conflicts")?,
                backtracks: f.num("backtracks")?,
                cache_hits: f.num("cache_hits")?,
                cache_misses: f.num("cache_misses")?,
                cache_inserts: f.num("cache_inserts")?,
                learned: f.num("learned")?,
                learned_lits: f.num("learned_lits")?,
                // Incremental-solver counters postdate the original
                // schema; absent in old traces means zero.
                assumptions: f.num_opt("assumptions")?.unwrap_or(0),
                learnt_reused: f.num_opt("learnt_reused")?.unwrap_or(0),
                restarts: f.num("restarts")?,
                deadline_checks: f.num("deadline_checks")?,
                max_depth: f.num("max_depth")?,
            },
        })),
        "campaign" => Ok(TraceLine::Campaign(CampaignMeta {
            circuit: f.str("circuit")?,
            threads: f.num("threads")?,
            // Postdates the original schema: strict in-order committing
            // (width 1) was the only mode before windows existed.
            commit_window: f.num_opt("commit_window")?.unwrap_or(1),
            queue_depth: f.num("queue_depth")?,
            committed_sat: f.num("committed_sat")?,
            // Postdates the original schema: old traces folded UNSAT
            // commits into committed_sat, so absent means zero.
            committed_unsat: f.num_opt("committed_unsat")?.unwrap_or(0),
            dropped: f.num("dropped")?,
            wasted_solves: f.num("wasted_solves")?,
            static_pruned: f.num_opt("static_pruned")?.unwrap_or(0),
            cutwidth_estimate: f.num_opt("cutwidth_estimate")?,
        })),
        other => Err(format!("unknown trace line type '{other}'")),
    }
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
