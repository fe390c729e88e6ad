//! Trace sinks: stream [`InstanceTrace`] records to JSONL or into an
//! in-process percentile summary. `core::report` renders the Figure-1
//! CSV from the same records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::time::Duration;

use atpg_easy_syncx::{Arc, Mutex};

use crate::hist::LogHistogram;
use crate::trace::{CampaignMeta, InstanceTrace};

/// A consumer of trace records. Sinks are infallible on the record path
/// only for the in-memory summarizer; I/O sinks surface errors so
/// harnesses can abort instead of silently truncating traces.
pub trait TraceSink {
    /// Consumes one instance record.
    fn instance(&mut self, t: &InstanceTrace) -> io::Result<()>;

    /// Consumes one campaign gauge record.
    fn campaign(&mut self, m: &CampaignMeta) -> io::Result<()>;

    /// Flushes buffered output.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one JSON object per line to any `io::Write`.
pub struct JsonlSink<W: io::Write> {
    writer: W,
    /// Lines written so far.
    pub lines: u64,
}

impl<W: io::Write> JsonlSink<W> {
    /// A sink writing to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, lines: 0 }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> TraceSink for JsonlSink<W> {
    fn instance(&mut self, t: &InstanceTrace) -> io::Result<()> {
        self.lines += 1;
        writeln!(self.writer, "{}", t.to_jsonl())
    }

    fn campaign(&mut self, m: &CampaignMeta) -> io::Result<()> {
        self.lines += 1;
        writeln!(self.writer, "{}", m.to_jsonl())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A cloneable, thread-safe handle over any sink: every clone appends to
/// the same underlying sink, record-atomically (one mutex acquisition
/// per record, so JSONL lines from concurrent producers interleave but
/// never tear). The serving layer hands one clone to each request so
/// per-request telemetry from many connections lands in one artifact.
pub struct SharedSink {
    inner: Arc<Mutex<dyn TraceSink + Send>>,
}

impl SharedSink {
    /// Wraps `sink` for shared multi-producer use.
    pub fn new(sink: impl TraceSink + Send + 'static) -> Self {
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
        }
    }
}

impl Clone for SharedSink {
    fn clone(&self) -> Self {
        SharedSink {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl TraceSink for SharedSink {
    fn instance(&mut self, t: &InstanceTrace) -> io::Result<()> {
        self.inner.lock().expect("sink mutex").instance(t)
    }

    fn campaign(&mut self, m: &CampaignMeta) -> io::Result<()> {
        self.inner.lock().expect("sink mutex").campaign(m)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.lock().expect("sink mutex").finish()
    }
}

/// In-process summarizer: per-outcome and per-circuit instance counts
/// plus a log-scale wall-time histogram — everything needed for the
/// paper's headline claim ("over 90% solved in under 1/100th of a
/// second") straight from a trace stream.
#[derive(Clone, Debug, Default)]
pub struct SummarySink {
    /// The accumulated summary; read it after the stream ends.
    pub summary: TraceSummary,
}

/// The aggregate a [`SummarySink`] builds.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Instance records seen.
    pub instances: u64,
    /// Instance count per outcome label.
    pub by_outcome: BTreeMap<String, u64>,
    /// Instance count per circuit.
    pub by_circuit: BTreeMap<String, u64>,
    /// Campaign gauge records seen.
    pub campaigns: u64,
    /// Sum of `committed_sat` across campaign records.
    pub committed_sat: u64,
    /// Sum of `committed_unsat` across campaign records.
    pub committed_unsat: u64,
    /// Sum of `wasted_solves` across campaign records.
    pub wasted_solves: u64,
    /// Wall-time distribution in nanoseconds.
    pub wall: LogHistogram,
    /// Decision-count distribution (machine-independent effort).
    pub decisions: LogHistogram,
}

impl TraceSummary {
    /// Fraction of instances with wall time at or under `threshold`
    /// (bucket-conservative, see [`LogHistogram::fraction_le`]).
    pub fn fast_fraction(&self, threshold: Duration) -> f64 {
        self.wall
            .fraction_le(threshold.as_nanos().min(u64::MAX as u128) as u64)
    }

    /// Renders the summary as a small fixed-width report.
    pub fn render(&self, fast_threshold: Duration) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} instances across {} circuits ({} campaign records)",
            self.instances,
            self.by_circuit.len(),
            self.campaigns
        );
        for (outcome, n) in &self.by_outcome {
            let _ = writeln!(s, "  {outcome:<8} {n}");
        }
        let _ = writeln!(
            s,
            "wall: min {:?} p50 {:?} p90 {:?} p99 {:?} max {:?}",
            Duration::from_nanos(self.wall.min()),
            Duration::from_nanos(self.wall.percentile(0.50)),
            Duration::from_nanos(self.wall.percentile(0.90)),
            Duration::from_nanos(self.wall.percentile(0.99)),
            Duration::from_nanos(self.wall.max()),
        );
        let _ = writeln!(
            s,
            "{:.1}% solved within {:?}; committed SAT {} / UNSAT {}; wasted solves {}",
            100.0 * self.fast_fraction(fast_threshold),
            fast_threshold,
            self.committed_sat,
            self.committed_unsat,
            self.wasted_solves
        );
        s
    }
}

impl SummarySink {
    /// An empty summarizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for SummarySink {
    fn instance(&mut self, t: &InstanceTrace) -> io::Result<()> {
        let s = &mut self.summary;
        s.instances += 1;
        *s.by_outcome.entry(t.outcome.clone()).or_insert(0) += 1;
        *s.by_circuit.entry(t.circuit.clone()).or_insert(0) += 1;
        s.wall.record(t.wall_ns);
        s.decisions.record(t.counters.decisions);
        Ok(())
    }

    fn campaign(&mut self, m: &CampaignMeta) -> io::Result<()> {
        let s = &mut self.summary;
        s.campaigns += 1;
        s.committed_sat += m.committed_sat;
        s.committed_unsat += m.committed_unsat;
        s.wasted_solves += m.wasted_solves;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Counters;
    use crate::trace::{parse_jsonl, TraceLine};

    fn trace(circuit: &str, seq: u64, wall_ns: u64, outcome: &str) -> InstanceTrace {
        InstanceTrace {
            seq,
            circuit: circuit.into(),
            fault: format!("n{seq}/s-a-0"),
            vars: 10 + seq,
            clauses: 20 + seq,
            sub_size: 8,
            outcome: outcome.into(),
            wall_ns,
            worker: 0,
            proof_bytes: 0,
            counters: Counters {
                decisions: 3 + seq,
                propagations: 9,
                conflicts: 1,
                ..Counters::default()
            },
        }
    }

    fn meta() -> CampaignMeta {
        CampaignMeta {
            circuit: "c17".into(),
            threads: 2,
            commit_window: 1,
            queue_depth: 22,
            committed_sat: 2,
            committed_unsat: 1,
            dropped: 19,
            wasted_solves: 1,
            static_pruned: 0,
            cutwidth_estimate: Some(4),
        }
    }

    #[test]
    fn jsonl_sink_output_parses_back() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.campaign(&meta())
            .expect("writing to a Vec cannot fail");
        sink.instance(&trace("c17", 0, 1000, "SAT"))
            .expect("writing to a Vec cannot fail");
        sink.instance(&trace("c17", 1, 2000, "UNSAT"))
            .expect("writing to a Vec cannot fail");
        sink.finish().expect("writing to a Vec cannot fail");
        assert_eq!(sink.lines, 3);
        let text = String::from_utf8(sink.into_inner()).expect("sink writes UTF-8");
        let lines = parse_jsonl(&text).expect("sink output parses back");
        assert_eq!(lines.len(), 3);
        match &lines[1] {
            TraceLine::Instance(t) => assert_eq!(t.seq, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn summary_sink_aggregates() {
        let mut sink = SummarySink::new();
        for i in 0..90 {
            sink.instance(&trace("c17", i, 1_000_000, "SAT"))
                .expect("summary sink does no I/O");
        }
        for i in 0..10 {
            sink.instance(&trace("b9", 90 + i, 1_000_000_000, "ABORT"))
                .expect("summary sink does no I/O");
        }
        sink.campaign(&meta()).expect("summary sink does no I/O");
        let s = &sink.summary;
        assert_eq!(s.instances, 100);
        assert_eq!(s.by_outcome["SAT"], 90);
        assert_eq!(s.by_outcome["ABORT"], 10);
        assert_eq!(s.by_circuit.len(), 2);
        assert_eq!(s.campaigns, 1);
        assert_eq!(s.committed_sat, 2);
        assert_eq!(s.committed_unsat, 1);
        let fast = s.fast_fraction(Duration::from_millis(10));
        assert!((fast - 0.9).abs() < 1e-9, "{fast}");
        let report = s.render(Duration::from_millis(10));
        assert!(report.contains("100 instances"), "{report}");
        assert!(report.contains("90.0% solved"), "{report}");
    }
}
