//! Runs a traced ATPG campaign over a benchmark suite and streams the
//! per-instance telemetry through the obs sinks (JSONL and the
//! in-process percentile summarizer), optionally writing the Figure-1
//! CSV that `core::report::figure1_csv` renders from the parsed JSONL.
//!
//! ```text
//! cargo run -p atpg-easy-bench --release --bin trace -- [mcnc|iscas|all|mult]
//!     [--threads N] [--patterns P] [--jsonl FILE] [--csv FILE]
//!     [--threshold-ms T] [--width 1]
//! ```
//!
//! The harness cross-checks itself: the JSONL it writes is parsed back
//! and re-summarized, and the rebuilt instance counts must match every
//! campaign report exactly (the trace pipeline's acceptance criterion).
//! Exits 1 on any mismatch, 2 on usage errors.

use std::process::ExitCode;
use std::time::Duration;

use atpg_easy_atpg::campaign::AtpgConfig;
use atpg_easy_atpg::parallel::AtpgCampaign;
use atpg_easy_bench::{flag, parse_args, resolve_suite};
use atpg_easy_core::report::{fig1_points_from_traces, figure1_csv};
use atpg_easy_cutwidth::mla::{self, MlaConfig};
use atpg_easy_netlist::decompose;
use atpg_easy_obs::{
    parse_jsonl, CampaignMeta, InstanceTrace, JsonlSink, SummarySink, TraceLine, TraceSink,
};

fn main() -> ExitCode {
    let (pos, flags) = parse_args(std::env::args().skip(1));
    let suite_name = pos.first().map(String::as_str).unwrap_or("mcnc");
    let Some(circuits) = resolve_suite(suite_name) else {
        eprintln!(
            "usage: trace [mcnc|iscas|all|mult] [--threads N] [--patterns P] \
             [--jsonl FILE] [--csv FILE] [--threshold-ms T] [--width 1]"
        );
        return ExitCode::from(2);
    };
    let threads: usize = flag(&flags, "threads").unwrap_or(2);
    let patterns: usize = flag(&flags, "patterns").unwrap_or(32);
    let threshold = Duration::from_millis(flag(&flags, "threshold-ms").unwrap_or(10));
    let jsonl_path: Option<String> = flag(&flags, "jsonl");
    let csv_path: Option<String> = flag(&flags, "csv");
    let want_width = flag::<u8>(&flags, "width").unwrap_or(0) != 0;

    let config = AtpgConfig {
        random_patterns: patterns,
        seed: 1,
        ..AtpgConfig::default()
    };

    println!("== traced ATPG campaign ({suite_name}, {threads} threads) ==");
    let mut traces: Vec<InstanceTrace> = Vec::new();
    let mut metas: Vec<CampaignMeta> = Vec::new();
    for c in &circuits {
        let nl = decompose::decompose(&c.netlist, 3).expect("suite circuits decompose");
        let width = want_width.then(|| mla::netlist_cutwidth(&nl, &MlaConfig::default()) as u64);
        let run = AtpgCampaign::new(config)
            .with_threads(threads)
            .with_tracing(true)
            .run(&nl);
        if run.traces.len() != run.report.committed_solves() {
            eprintln!(
                "error: {}: {} traces for {} committed instances",
                c.name,
                run.traces.len(),
                run.report.committed_solves()
            );
            return ExitCode::from(1);
        }
        println!(
            "{:<12} faults {:>5} | committed SAT {:>4} / UNSAT {:>3} | dropped {:>5} | wasted {:>3} | wall {:?}",
            c.name,
            run.report.queue_depth,
            run.report.committed_sat,
            run.report.committed_unsat,
            run.report.dropped,
            run.report.wasted_solves,
            run.report.wall
        );
        metas.push(run.report.campaign_meta(&c.name, width));
        let mut per_circuit = run.traces;
        // The netlist is named by the generator; stamp the suite name so
        // traces of decomposed circuits group under the familiar label.
        for t in &mut per_circuit {
            t.circuit.clone_from(&c.name);
        }
        traces.extend(per_circuit);
    }

    // Stream everything through the sinks.
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut summary = SummarySink::new();
    for t in &traces {
        jsonl.instance(t).expect("writing to a Vec cannot fail");
        summary.instance(t).expect("summary sink is infallible");
    }
    for m in &metas {
        jsonl.campaign(m).expect("writing to a Vec cannot fail");
        summary.campaign(m).expect("summary sink is infallible");
    }
    jsonl.finish().expect("flushing a Vec cannot fail");
    let text = String::from_utf8(jsonl.into_inner()).expect("JSONL is UTF-8");

    // Round-trip check: parse the JSONL back, re-summarize, and compare
    // the rebuilt per-circuit instance counts against the campaign
    // reports.
    let lines = match parse_jsonl(&text) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: emitted JSONL does not parse: {e}");
            return ExitCode::from(1);
        }
    };
    let mut reparsed = SummarySink::new();
    let mut round_tripped: Vec<InstanceTrace> = Vec::new();
    for line in lines {
        match line {
            TraceLine::Instance(t) => {
                reparsed.instance(&t).expect("summary sink is infallible");
                round_tripped.push(t);
            }
            TraceLine::Campaign(m) => {
                reparsed.campaign(&m).expect("summary sink is infallible");
            }
        }
    }
    let rebuilt = &reparsed.summary;
    let mut ok = rebuilt.instances == traces.len() as u64
        && rebuilt.instances == rebuilt.committed_sat + rebuilt.committed_unsat
        && rebuilt.campaigns == metas.len() as u64;
    for m in &metas {
        let count = rebuilt.by_circuit.get(&m.circuit).copied().unwrap_or(0);
        if count != m.committed_sat + m.committed_unsat {
            eprintln!(
                "error: {}: trace has {count} instances, campaign committed {}",
                m.circuit,
                m.committed_sat + m.committed_unsat
            );
            ok = false;
        }
    }
    let points = fig1_points_from_traces(&round_tripped);
    if points.len() != traces.len() {
        eprintln!(
            "error: Figure-1 pipeline rebuilt {} points from {} traces",
            points.len(),
            traces.len()
        );
        ok = false;
    }
    if !ok {
        eprintln!("error: trace round-trip failed");
        return ExitCode::from(1);
    }

    println!();
    print!("{}", rebuilt.render(threshold));
    println!(
        "round-trip OK: {} instances rebuilt from JSONL",
        points.len()
    );

    if let Some(path) = &jsonl_path {
        std::fs::write(path, &text).expect("jsonl path writable");
        println!("(trace written to {path})");
    }
    if let Some(path) = &csv_path {
        std::fs::write(path, figure1_csv(&points)).expect("csv path writable");
        println!("(Figure-1 CSV written to {path})");
    }
    ExitCode::SUCCESS
}
