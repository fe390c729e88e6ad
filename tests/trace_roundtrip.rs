//! End-to-end test of the telemetry pipeline's acceptance criterion: a
//! traced campaign, serialized to JSONL and parsed back, must rebuild
//! Figure-1 points and summary counts that match the campaign result
//! *exactly* — and the trace must lint clean under the `T*` passes.

use std::collections::BTreeSet;
use std::time::Duration;

use atpg_easy::analysis::report::{fig1_points_from_traces, figure1_csv};
use atpg_easy::atpg::campaign::{self, AtpgConfig};
use atpg_easy::atpg::parallel::AtpgCampaign;
use atpg_easy::circuits::suite;
use atpg_easy::lint;
use atpg_easy::netlist::decompose;
use atpg_easy::obs::{parse_jsonl, JsonlSink, SummarySink, TraceLine, TraceSink};

fn config() -> AtpgConfig {
    AtpgConfig {
        random_patterns: 16,
        seed: 99,
        ..AtpgConfig::default()
    }
}

#[test]
fn jsonl_round_trip_reproduces_campaign_counts_exactly() {
    let nl = decompose::decompose(&suite::priority_encoder(6), 3).expect("decomposes");
    let run = AtpgCampaign::new(config())
        .with_threads(2)
        .with_tracing(true)
        .run(&nl);
    assert!(!run.traces.is_empty(), "campaign produced no SAT instances");
    assert_eq!(run.traces.len(), run.report.committed_solves());
    let meta = run.report.campaign_meta(nl.name(), None);

    // Serialize: instance lines plus the campaign gauge line.
    let mut sink = JsonlSink::new(Vec::new());
    for t in &run.traces {
        sink.instance(t).expect("Vec write");
    }
    sink.campaign(&meta).expect("Vec write");
    sink.finish().expect("Vec flush");
    let text = String::from_utf8(sink.into_inner()).expect("UTF-8");

    // The emitted document lints clean under the T* passes.
    let lint_report = lint::json::lint_trace(&text);
    assert!(lint_report.is_empty(), "{}", lint_report.render_human());

    // Parse back and re-summarize.
    let lines = parse_jsonl(&text).expect("round-trip parse");
    let mut summary = SummarySink::new();
    let mut traces = Vec::new();
    for line in lines {
        match line {
            TraceLine::Instance(t) => {
                summary.instance(&t).expect("infallible");
                traces.push(t);
            }
            TraceLine::Campaign(m) => {
                assert_eq!(m, meta, "campaign gauges survive the round-trip");
                summary.campaign(&m).expect("infallible");
            }
        }
    }
    assert_eq!(traces, run.traces, "instance traces survive the round-trip");

    // Summary counts match the campaign result exactly.
    let s = &summary.summary;
    assert_eq!(s.instances, run.traces.len() as u64);
    assert_eq!(s.committed_sat, meta.committed_sat);
    assert_eq!(s.campaigns, 1);
    assert_eq!(
        s.by_circuit.get(nl.name()).copied(),
        Some(meta.committed_sat + meta.committed_unsat)
    );
    let outcome_total: u64 = s.by_outcome.values().sum();
    assert_eq!(outcome_total, s.instances);
    for (label, count) in &s.by_outcome {
        let expect = run
            .result
            .records
            .iter()
            .filter(|r| r.sat_vars > 0 && campaign::outcome_label(&r.outcome) == label)
            .count() as u64;
        assert_eq!(*count, expect, "outcome {label} count drifted");
    }

    // Figure-1 points rebuilt from the parsed traces match the trace set
    // one-for-one, and the CSV renderer writes every column of every
    // trace byte-for-byte.
    let points = fig1_points_from_traces(&traces);
    assert_eq!(points.len(), traces.len());
    for (p, t) in points.iter().zip(&traces) {
        assert_eq!(p.fault, t.fault);
        assert_eq!(p.vars, t.vars as usize);
        assert_eq!(p.time, Duration::from_nanos(t.wall_ns));
        assert_eq!(p.decisions, t.counters.decisions);
    }
    let mut expected =
        "circuit,fault,vars,clauses,time_us,decisions,propagations,conflicts,outcome\n".to_string();
    for t in &traces {
        expected += &format!(
            "{},{},{},{},{:.3},{},{},{},{}\n",
            t.circuit,
            t.fault,
            t.vars,
            t.clauses,
            t.wall_ns as f64 / 1e3,
            t.counters.decisions,
            t.counters.propagations,
            t.counters.conflicts,
            t.outcome
        );
    }
    assert_eq!(figure1_csv(&points), expected);
}

#[test]
fn sequential_and_parallel_traces_tell_the_same_story() {
    let nl = decompose::decompose(&suite::c17(), 3).expect("decomposes");
    let (result, seq_traces) = campaign::run_traced(&nl, &config());
    let run = AtpgCampaign::new(config())
        .with_threads(4)
        .with_tracing(true)
        .run(&nl);
    assert_eq!(result.canonical_report(), run.result.canonical_report());
    let a: BTreeSet<String> = seq_traces.iter().map(|t| t.canonical()).collect();
    let b: BTreeSet<String> = run.traces.iter().map(|t| t.canonical()).collect();
    assert_eq!(a, b, "per-fault trace sets must not depend on threading");
}
