//! Thread-scaling measurement for the parallel campaign engine.
//!
//! ```text
//! cargo run -p atpg-easy-bench --release --bin scaling -- [mcnc|iscas|all] \
//!     [--threads 1,2,4,8] [--patterns N] [--window W] [--incremental] \
//!     [--assert-speedup X] [--out results/scaling.json]
//! ```
//!
//! Runs the suite's campaigns at each thread count and writes wall time,
//! speedup, drop rate and per-worker instance counts to
//! `results/scaling.json`, together with the host CPU count — runs with
//! more threads than host CPUs are annotated as oversubscribed, because
//! their speedups measure scheduler contention, not scaling. The file is
//! written before the waste and speedup gates are checked, so a failed
//! gate still leaves its numbers.
//!
//! Determinism is checked per run: in the strict legacy configuration
//! (`--window 1`, no `--incremental`) every thread count must be
//! byte-identical to the baseline; with a commit window or warm
//! incremental solvers the byte-level test order is schedule-dependent
//! and the cross-thread invariant is the per-fault detection report.
//! Waste is regression-checked: the highest thread count may not waste
//! more than twice the baseline's speculative solves (plus a small
//! additive floor for tiny suites). `--assert-speedup X` additionally
//! fails the run if the 4-thread speedup lands below `X` — for CI
//! runners with enough cores; meaningless on a 1-CPU host.

use std::num::{NonZeroUsize, ParseIntError};
use std::str::FromStr;
use std::time::Duration;

use atpg_easy_atpg::parallel::AtpgCampaign;
use atpg_easy_atpg::AtpgConfig;
use atpg_easy_bench::{flag, has_flag, parse_args, resolve_suite};
use atpg_easy_core::report::{ScalingReport, ScalingRun};

/// The `--threads` value: a comma-separated, non-empty list of positive
/// thread counts. An empty entry, a 0 or a non-number fails the parse,
/// so [`flag`] stops the run with a usage error.
struct ThreadCounts(Vec<usize>);

impl FromStr for ThreadCounts {
    type Err = ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.split(',')
            .map(|t| t.trim().parse().map(NonZeroUsize::get))
            .collect::<Result<_, _>>()
            .map(ThreadCounts)
    }
}

fn main() {
    let (pos, flags) = parse_args(std::env::args().skip(1));
    let suite_name = pos.first().map(String::as_str).unwrap_or("mcnc");
    let Some(circuits) = resolve_suite(suite_name) else {
        eprintln!(
            "usage: scaling [mcnc|iscas|all] [--threads 1,2,4,8] [--patterns N] \
             [--window W] [--incremental] [--assert-speedup X] [--out FILE]"
        );
        std::process::exit(2);
    };
    let thread_counts =
        flag::<ThreadCounts>(&flags, "threads").map_or_else(|| vec![1, 2, 4, 8], |t| t.0);
    let patterns: usize = flag(&flags, "patterns").unwrap_or(64);
    let window: usize = flag(&flags, "window").unwrap_or(16);
    let incremental = has_flag(&flags, "incremental");
    let assert_speedup: Option<f64> = flag(&flags, "assert-speedup");
    let out = flag::<String>(&flags, "out").unwrap_or_else(|| "results/scaling.json".to_string());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Window 1 without warm solvers is the strict mode whose output is
    // byte-identical at any thread count; anything else only pins the
    // per-fault verdicts.
    let strict = window == 1 && !incremental;

    let config = AtpgConfig {
        random_patterns: patterns,
        incremental,
        ..AtpgConfig::default()
    };

    println!(
        "== campaign thread scaling ({suite_name}, {host_cpus} host CPUs, \
         window={window}, incremental={incremental}) =="
    );
    let mut runs: Vec<ScalingRun> = Vec::new();
    let mut baseline_reports: Vec<String> = Vec::new();
    for &threads in &thread_counts {
        let mut wall = Duration::ZERO;
        let mut targeted = 0usize;
        let mut dropped = 0usize;
        let mut committed_sat = 0usize;
        let mut committed_unsat = 0usize;
        let mut wasted = 0usize;
        let mut per_worker = vec![0usize; threads];
        for (ci, c) in circuits.iter().enumerate() {
            let run = AtpgCampaign::new(config)
                .with_threads(threads)
                .with_commit_window(window)
                .run(&c.netlist);
            let report = if strict {
                run.result.canonical_report()
            } else {
                run.result.detection_report()
            };
            if threads == thread_counts[0] {
                baseline_reports.push(report);
            } else {
                assert_eq!(
                    baseline_reports[ci], report,
                    "{}: {threads}-thread run diverged from baseline \
                     (window={window}, incremental={incremental})",
                    c.name
                );
            }
            let r = &run.report;
            wall += r.wall;
            targeted += r.queue_depth;
            dropped += r.dropped;
            committed_sat += r.committed_sat;
            committed_unsat += r.committed_unsat;
            wasted += r.wasted_solves;
            for w in &r.workers {
                per_worker[w.id] += w.solved;
            }
        }
        let drop_rate = if targeted == 0 {
            0.0
        } else {
            dropped as f64 / targeted as f64
        };
        let speedup = runs
            .first()
            .map(|b: &ScalingRun| b.wall.as_secs_f64() / wall.as_secs_f64().max(1e-12))
            .unwrap_or(1.0);
        let note = if threads > host_cpus {
            "  (oversubscribed)"
        } else {
            ""
        };
        println!(
            "threads={threads:<3} wall={wall:>10.3?} speedup={speedup:>5.2}x \
             drop_rate={:.1}% sat={committed_sat} unsat={committed_unsat} \
             wasted={wasted}{note}",
            100.0 * drop_rate
        );
        runs.push(ScalingRun {
            threads,
            wall,
            drop_rate,
            committed_sat,
            committed_unsat,
            wasted_solves: wasted,
            per_worker_solved: per_worker,
        });
    }

    // The numbers are written before the gates below, so a run that fails
    // a gate still leaves them on disk.
    let report = ScalingReport {
        suite: suite_name.to_string(),
        host_cpus,
        commit_window: window,
        incremental,
        runs,
    };
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("results directory creatable");
    }
    std::fs::write(&out, report.to_json()).expect("scaling.json writable");
    let invariant = if strict {
        "byte-identical"
    } else {
        "detection-identical"
    };
    println!("(written to {out}; all thread counts {invariant} to baseline)");
    let runs = &report.runs;

    // Waste regression gate: speculative-solve waste must not blow up
    // with parallelism now that workers check the drop bitmap before
    // every solve and commits apply tests inside the window. The
    // gate only covers runs that fit the host — on an oversubscribed run
    // workers sit descheduled between the bitmap re-check and the solve,
    // so its waste measures the kernel scheduler, not the engine. The
    // additive floor keeps tiny suites (a handful of wasted solves) from
    // tripping on noise.
    let gated = runs.iter().rev().find(|r| r.threads <= host_cpus);
    if let (Some(first), Some(last)) = (runs.first(), gated) {
        if last.threads > first.threads {
            let budget = 2 * first.wasted_solves + 8;
            assert!(
                last.wasted_solves <= budget,
                "wasted solves regressed: {} at {} threads vs {} at {} threads \
                 (budget 2x + 8 = {budget})",
                last.wasted_solves,
                last.threads,
                first.wasted_solves,
                first.threads,
            );
        } else {
            println!(
                "(waste gate vacuous: every multi-thread run oversubscribes \
                 this {host_cpus}-CPU host)"
            );
        }
    }
    // Optional speedup gate for multi-core CI runners.
    if let Some(min) = assert_speedup {
        let four = runs
            .iter()
            .find(|r| r.threads == 4)
            .expect("--assert-speedup needs a 4-thread run");
        let base = runs.first().expect("at least one run").wall.as_secs_f64();
        let got = base / four.wall.as_secs_f64().max(1e-12);
        assert!(
            host_cpus >= 4,
            "--assert-speedup is meaningless on a {host_cpus}-CPU host"
        );
        assert!(
            got >= min,
            "4-thread speedup {got:.2}x below required {min:.2}x on a {host_cpus}-CPU host"
        );
        println!("4-thread speedup {got:.2}x >= {min:.2}x — ok");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_lists_reject_empty_zero_and_non_numeric_entries() {
        let parse = |v: &str| v.parse::<ThreadCounts>().ok().map(|t| t.0);
        assert_eq!(parse("1,2,4"), Some(vec![1, 2, 4]));
        assert_eq!(parse(" 1, 8 "), Some(vec![1, 8]));
        for bad in ["1,x", "0", "1,0", "", "1,,2"] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }
}
