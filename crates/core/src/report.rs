//! Plain-text renderings of the series the paper plots, plus execution
//! reports for the parallel campaign engine (per-worker breakdowns and
//! the `scaling.json` schema).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use atpg_easy_atpg::parallel::ParallelReport;
use atpg_easy_obs::{json_escape, InstanceTrace};

use crate::experiment::{fig1_summary, Fig1Point, Fig8Point};
use crate::predictor;

/// Renders the Figure-1 population as a per-circuit table plus the
/// headline summary line ("N instances, P% under T").
pub fn figure1_table(points: &[Fig1Point], fast_threshold: Duration) -> String {
    let mut per: BTreeMap<&str, Vec<&Fig1Point>> = BTreeMap::new();
    for p in points {
        per.entry(&p.circuit).or_default().push(p);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>9} {:>10} {:>10} {:>12} {:>8}",
        "circuit", "instances", "max vars", "fast %", "max time", "aborted"
    );
    for (name, pts) in &per {
        let fast = pts.iter().filter(|p| p.time <= fast_threshold).count();
        let max_vars = pts.iter().map(|p| p.vars).max().unwrap_or(0);
        let max_time = pts.iter().map(|p| p.time).max().unwrap_or(Duration::ZERO);
        let aborted = pts.iter().filter(|p| p.outcome == "ABORT").count();
        let _ = writeln!(
            s,
            "{:<12} {:>9} {:>10} {:>9.1}% {:>12?} {:>8}",
            name,
            pts.len(),
            max_vars,
            100.0 * fast as f64 / pts.len().max(1) as f64,
            max_time,
            aborted
        );
    }
    let owned: Vec<Fig1Point> = points.to_vec();
    let sum = fig1_summary(&owned, fast_threshold);
    let _ = writeln!(
        s,
        "TOTAL: {} instances; {:.1}% solved within {:?}; largest instance {} vars",
        sum.instances,
        100.0 * sum.fast_fraction,
        fast_threshold,
        sum.max_vars
    );
    s
}

/// Renders the Figure-8 scatter summary: the three least-squares fits and
/// the winner, per the paper's model-selection methodology.
pub fn figure8_fits(points: &[Fig8Point]) -> String {
    let scatter = crate::experiment::fig8_scatter(points);
    let mut s = String::new();
    let _ = writeln!(s, "{} data points", points.len());
    match predictor::classify(&scatter) {
        None => {
            let _ = writeln!(s, "not enough data to fit");
        }
        Some(c) => {
            for f in &c.fits {
                let marker = if f.model == c.best.model {
                    " <== best"
                } else {
                    ""
                };
                let _ = writeln!(s, "  {f}{marker}");
            }
            let _ = writeln!(
                s,
                "log-bounded-width: {}{}",
                c.is_log_bounded(),
                c.log2_coefficient()
                    .map(|k| format!(" (W ≈ {k:.2}·log₂ size)"))
                    .unwrap_or_default()
            );
        }
    }
    s
}

/// A coarse ASCII scatter plot (log-x), for eyeballing figure shapes in a
/// terminal.
pub fn ascii_scatter(points: &[(f64, f64)], width: usize, height: usize) -> String {
    if points.is_empty() {
        return "(no data)\n".into();
    }
    let min_x = points.iter().map(|p| p.0).fold(f64::MAX, f64::min).max(1.0);
    let max_x = points.iter().map(|p| p.0).fold(1.0f64, f64::max);
    let max_y = points.iter().map(|p| p.1).fold(1.0f64, f64::max);
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let fx = if max_x > min_x {
            (x.max(min_x).ln() - min_x.ln()) / (max_x.ln() - min_x.ln())
        } else {
            0.0
        };
        let fy = y / max_y;
        let col = ((fx * (width - 1) as f64).round() as usize).min(width - 1);
        let row = height - 1 - ((fy * (height - 1) as f64).round() as usize).min(height - 1);
        grid[row][col] = b'*';
    }
    let mut s = String::new();
    let _ = writeln!(s, "y: 0..{max_y:.0}   x (log): {min_x:.0}..{max_x:.0}");
    for row in grid {
        let _ = writeln!(s, "|{}", String::from_utf8_lossy(&row));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(circuit: &str, vars: usize, ms: u64) -> Fig1Point {
        Fig1Point {
            circuit: circuit.into(),
            fault: "x/s-a-0".into(),
            vars,
            clauses: vars * 3,
            time: Duration::from_millis(ms),
            decisions: 1,
            propagations: 2,
            conflicts: 0,
            outcome: "SAT",
        }
    }

    #[test]
    fn fig1_table_renders() {
        let pts = vec![pt("a", 10, 1), pt("a", 20, 50), pt("b", 5, 0)];
        let t = figure1_table(&pts, Duration::from_millis(10));
        assert!(t.contains("TOTAL: 3 instances"));
        assert!(t.contains('a') && t.contains('b'));
    }

    #[test]
    fn fig8_fits_renders() {
        let pts: Vec<Fig8Point> = (2..100)
            .map(|i| Fig8Point {
                circuit: "t".into(),
                sub_size: i * 10,
                cutwidth: ((i * 10) as f64).log2() as usize + 2,
            })
            .collect();
        let s = figure8_fits(&pts);
        assert!(s.contains("best"));
        assert!(s.contains("log-bounded-width: true"), "{s}");
    }

    #[test]
    fn scatter_draws() {
        let s = ascii_scatter(&[(1.0, 1.0), (100.0, 5.0), (1000.0, 8.0)], 40, 10);
        assert!(s.matches('*').count() >= 2);
        assert_eq!(ascii_scatter(&[], 10, 5), "(no data)\n");
    }
}

/// Figure-1 points as CSV (`circuit,fault,vars,clauses,time_us,decisions,
/// propagations,conflicts,outcome`) — for external plotting of the
/// scatter exactly as the paper draws it.
pub fn figure1_csv(points: &[Fig1Point]) -> String {
    let mut s = String::from(
        "circuit,fault,vars,clauses,time_us,decisions,propagations,conflicts,outcome\n",
    );
    for p in points {
        let _ = writeln!(
            s,
            "{},{},{},{},{:.3},{},{},{},{}",
            p.circuit,
            p.fault,
            p.vars,
            p.clauses,
            p.time.as_secs_f64() * 1e6,
            p.decisions,
            p.propagations,
            p.conflicts,
            p.outcome
        );
    }
    s
}

/// Rebuilds the Figure-1 population from per-instance traces, so the
/// paper's scatter can be regenerated offline from a JSONL trace file
/// instead of a live campaign: `parse_jsonl` → this → [`figure1_csv`].
/// Instance counts, sizes and counters round-trip exactly; `time` is the
/// trace's recorded `wall_ns`.
///
/// # Panics
///
/// Panics if a trace carries an outcome label outside the Figure-1 set
/// (`SAT`, `UNSAT`, `ABORT`, `SIM`, `REDUNDANT`) — campaign-produced
/// traces never do.
pub fn fig1_points_from_traces(traces: &[InstanceTrace]) -> Vec<Fig1Point> {
    traces
        .iter()
        .map(|t| Fig1Point {
            circuit: t.circuit.clone(),
            fault: t.fault.clone(),
            vars: t.vars as usize,
            clauses: t.clauses as usize,
            time: Duration::from_nanos(t.wall_ns),
            decisions: t.counters.decisions,
            propagations: t.counters.propagations,
            conflicts: t.counters.conflicts,
            outcome: match t.outcome.as_str() {
                "SAT" => "SAT",
                "UNSAT" => "UNSAT",
                "ABORT" => "ABORT",
                "SIM" => "SIM",
                "REDUNDANT" => "REDUNDANT",
                other => panic!("unknown Figure-1 outcome label '{other}'"),
            },
        })
        .collect()
}

/// Figure-8 points as CSV (`circuit,sub_size,cutwidth`).
pub fn figure8_csv(points: &[Fig8Point]) -> String {
    let mut s = String::from("circuit,sub_size,cutwidth\n");
    for p in points {
        let _ = writeln!(s, "{},{},{}", p.circuit, p.sub_size, p.cutwidth);
    }
    s
}

/// Per-worker breakdown of one parallel campaign, plus the headline
/// queue/drop counters.
pub fn worker_table(report: &ParallelReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<7} {:>7} {:>7} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "worker", "popped", "stolen", "solved", "skipped", "solve time", "decisions", "conflicts"
    );
    for w in &report.workers {
        let _ = writeln!(
            s,
            "{:<7} {:>7} {:>7} {:>8} {:>8} {:>12?} {:>10} {:>10}",
            w.id,
            w.popped,
            w.stolen,
            w.solved,
            w.skipped,
            w.solve_time,
            w.counters.decisions,
            w.counters.conflicts
        );
    }
    let _ = writeln!(
        s,
        "queue depth {} | committed SAT {} / UNSAT {} | dropped {} ({:.1}%) | wasted solves {} | wall {:?}",
        report.queue_depth,
        report.committed_sat,
        report.committed_unsat,
        report.dropped,
        100.0 * report.drop_rate(),
        report.wasted_solves,
        report.wall
    );
    s
}

/// One aggregated scaling measurement: a whole benchmark suite run at one
/// thread count.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// Worker threads.
    pub threads: usize,
    /// Total wall-clock across the suite.
    pub wall: Duration,
    /// Faults retired without a committed SAT call / targeted faults.
    pub drop_rate: f64,
    /// Committed SAT instances across the suite.
    pub committed_sat: usize,
    /// Committed UNSAT/abort verdicts across the suite (useful work,
    /// distinct from `wasted_solves`).
    pub committed_unsat: usize,
    /// Speculative solves discarded at commit time.
    pub wasted_solves: usize,
    /// SAT instances solved per worker id, summed across circuits.
    pub per_worker_solved: Vec<usize>,
}

/// A whole scaling experiment: the suite it ran, the host it ran on, the
/// engine configuration, and one [`ScalingRun`] per thread count.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Benchmark suite name.
    pub suite: String,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// the honest context for every speedup number in the file.
    pub host_cpus: usize,
    /// Commit-window width the campaigns ran with (1 = strict in-order).
    pub commit_window: usize,
    /// Whether workers kept warm incremental solvers across faults.
    pub incremental: bool,
    /// One measurement per thread count; the first is the speedup
    /// baseline (1 thread by convention).
    pub runs: Vec<ScalingRun>,
}

impl ScalingReport {
    /// Renders as JSON (`results/scaling.json` schema). Speedup is
    /// relative to the first run. Runs with more threads than
    /// `host_cpus` are annotated `"oversubscribed": true` — their
    /// speedups measure scheduler contention, not scaling. No serde in
    /// this workspace — the schema is flat enough to hand-roll.
    pub fn to_json(&self) -> String {
        let base = self.runs.first().map(|r| r.wall.as_secs_f64());
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"suite\": \"{}\",", json_escape(&self.suite));
        let _ = writeln!(s, "  \"host_cpus\": {},", self.host_cpus);
        let _ = writeln!(s, "  \"commit_window\": {},", self.commit_window);
        let _ = writeln!(s, "  \"incremental\": {},", self.incremental);
        let _ = writeln!(s, "  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let wall = r.wall.as_secs_f64();
            let speedup = match base {
                Some(b) if wall > 0.0 => b / wall,
                _ => 1.0,
            };
            let workers: Vec<String> = r.per_worker_solved.iter().map(|n| n.to_string()).collect();
            let _ = write!(
                s,
                "    {{\"threads\": {}, \"oversubscribed\": {}, \"wall_s\": {:.6}, \
                 \"speedup\": {:.3}, \"drop_rate\": {:.4}, \"committed_sat\": {}, \
                 \"committed_unsat\": {}, \"wasted_solves\": {}, \
                 \"per_worker_solved\": [{}]}}",
                r.threads,
                r.threads > self.host_cpus,
                wall,
                speedup,
                r.drop_rate,
                r.committed_sat,
                r.committed_unsat,
                r.wasted_solves,
                workers.join(", ")
            );
            let _ = writeln!(s, "{}", if i + 1 < self.runs.len() { "," } else { "" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// One side of the serve-throughput comparison: a workload measured
/// either through the library path or over the daemon's wire protocol.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchSide {
    /// Total wall-clock for the whole workload.
    pub wall: Duration,
    /// Fault verdicts produced across the workload.
    pub faults: u64,
}

impl ServeBenchSide {
    /// Verdicts per second of wall-clock.
    pub fn faults_per_sec(&self) -> f64 {
        self.faults as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// The serve-throughput benchmark: the same campaign workload timed
/// through `campaign::run` (sequential, in-process) and through the
/// daemon (N workers, M concurrent wire clients), plus the headline
/// served/library throughput ratio (`results/serve.json` schema).
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Benchmark suite name.
    pub suite: String,
    /// Daemon worker threads.
    pub workers: usize,
    /// Concurrent wire clients.
    pub clients: usize,
    /// Campaigns per client (each client runs the whole suite this many
    /// times, so the served workload is `clients ×` the library one —
    /// rates are per-fault and stay comparable).
    pub repeats: usize,
    /// Measurement passes per side; the recorded side is the fastest
    /// pass (capability, not host-scheduler noise).
    pub passes: usize,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_cpus: usize,
    /// The sequential library-path measurement.
    pub library: ServeBenchSide,
    /// The concurrent wire measurement.
    pub served: ServeBenchSide,
}

impl ServeBenchReport {
    /// Served faults/sec over library faults/sec — the number the
    /// acceptance gate reads.
    pub fn ratio(&self) -> f64 {
        self.served.faults_per_sec() / self.library.faults_per_sec().max(1e-12)
    }

    /// Renders as JSON (`results/serve.json` schema). No serde in this
    /// workspace — the schema is flat enough to hand-roll.
    pub fn to_json(&self) -> String {
        fn side(s: &mut String, name: &str, b: &ServeBenchSide, comma: bool) {
            let _ = writeln!(
                s,
                "  \"{name}\": {{\"wall_s\": {:.6}, \"faults\": {}, \
                 \"faults_per_sec\": {:.3}}}{}",
                b.wall.as_secs_f64(),
                b.faults,
                b.faults_per_sec(),
                if comma { "," } else { "" }
            );
        }
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"suite\": \"{}\",", json_escape(&self.suite));
        let _ = writeln!(s, "  \"workers\": {},", self.workers);
        let _ = writeln!(s, "  \"clients\": {},", self.clients);
        let _ = writeln!(s, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(s, "  \"passes\": {},", self.passes);
        let _ = writeln!(s, "  \"host_cpus\": {},", self.host_cpus);
        side(&mut s, "library", &self.library, true);
        side(&mut s, "served", &self.served, true);
        let _ = writeln!(s, "  \"ratio\": {:.3}", self.ratio());
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod parallel_report_tests {
    use super::*;
    use atpg_easy_atpg::parallel::AtpgCampaign;
    use atpg_easy_atpg::AtpgConfig;
    use atpg_easy_circuits::suite;

    #[test]
    fn worker_table_renders() {
        let run = AtpgCampaign::new(AtpgConfig::default())
            .with_threads(2)
            .run(&suite::c17());
        let t = worker_table(&run.report);
        assert!(t.contains("worker"), "{t}");
        assert!(t.contains("queue depth"), "{t}");
        assert_eq!(t.lines().count(), 2 + 2, "header + 2 workers + summary");
    }

    #[test]
    fn scaling_json_shape() {
        let runs = vec![
            ScalingRun {
                threads: 1,
                wall: Duration::from_millis(100),
                drop_rate: 0.5,
                committed_sat: 10,
                committed_unsat: 0,
                wasted_solves: 0,
                per_worker_solved: vec![10],
            },
            ScalingRun {
                threads: 2,
                wall: Duration::from_millis(50),
                drop_rate: 0.5,
                committed_sat: 10,
                committed_unsat: 1,
                wasted_solves: 2,
                per_worker_solved: vec![7, 5],
            },
        ];
        let j = ScalingReport {
            suite: "mcnc".into(),
            host_cpus: 4,
            commit_window: 1,
            incremental: false,
            runs,
        }
        .to_json();
        assert!(j.contains("\"suite\": \"mcnc\""), "{j}");
        assert!(j.contains("\"host_cpus\": 4"), "{j}");
        assert!(j.contains("\"commit_window\": 1"), "{j}");
        assert!(j.contains("\"incremental\": false"), "{j}");
        assert!(j.contains("\"speedup\": 2.000"), "{j}");
        assert!(j.contains("\"per_worker_solved\": [7, 5]"), "{j}");
        assert!(!j.contains("\"oversubscribed\": true"), "{j}");
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn serve_bench_json_shape() {
        let report = ServeBenchReport {
            suite: "iscas".into(),
            workers: 4,
            clients: 4,
            repeats: 1,
            passes: 2,
            host_cpus: 8,
            library: ServeBenchSide {
                wall: Duration::from_secs(2),
                faults: 1000,
            },
            served: ServeBenchSide {
                wall: Duration::from_secs(4),
                faults: 4000,
            },
        };
        // 4000/4s served vs 1000/2s library → 1000 vs 500 faults/sec.
        assert!((report.ratio() - 2.0).abs() < 1e-9);
        let j = report.to_json();
        assert!(j.contains("\"suite\": \"iscas\""), "{j}");
        assert!(j.contains("\"workers\": 4"), "{j}");
        assert!(j.contains("\"clients\": 4"), "{j}");
        assert!(j.contains("\"faults_per_sec\": 500.000"), "{j}");
        assert!(j.contains("\"faults_per_sec\": 1000.000"), "{j}");
        assert!(j.contains("\"ratio\": 2.000"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn suite_names_are_escaped_as_json_strings() {
        let scaling = ScalingReport {
            suite: "a\u{1}b\"c\\".into(),
            host_cpus: 1,
            commit_window: 1,
            incremental: false,
            runs: Vec::new(),
        }
        .to_json();
        assert!(
            scaling.contains(r#""suite": "a\u0001b\"c\\","#),
            "{scaling}"
        );
        let serve = ServeBenchReport {
            suite: "x\ny".into(),
            workers: 1,
            clients: 1,
            repeats: 1,
            passes: 1,
            host_cpus: 1,
            library: ServeBenchSide {
                wall: Duration::from_secs(1),
                faults: 1,
            },
            served: ServeBenchSide {
                wall: Duration::from_secs(1),
                faults: 1,
            },
        }
        .to_json();
        assert!(serve.contains(r#""suite": "x\ny","#), "{serve}");
        for j in [&scaling, &serve] {
            assert!(
                !j.chars().any(|c| c < ' ' && c != '\n'),
                "raw control character in {j:?}"
            );
        }
    }

    #[test]
    fn scaling_report_annotates_oversubscription_and_config() {
        let run = |threads: usize| ScalingRun {
            threads,
            wall: Duration::from_millis(100),
            drop_rate: 0.5,
            committed_sat: 10,
            committed_unsat: 0,
            wasted_solves: 0,
            per_worker_solved: vec![10],
        };
        let j = ScalingReport {
            suite: "mcnc".into(),
            host_cpus: 2,
            commit_window: 16,
            incremental: true,
            runs: vec![run(1), run(2), run(4)],
        }
        .to_json();
        assert!(j.contains("\"commit_window\": 16"), "{j}");
        assert!(j.contains("\"incremental\": true"), "{j}");
        // 1 and 2 threads fit the 2-cpu host; 4 does not.
        assert_eq!(j.matches("\"oversubscribed\": false").count(), 2, "{j}");
        assert_eq!(j.matches("\"oversubscribed\": true").count(), 1, "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}

#[cfg(test)]
mod csv_tests {
    use super::*;

    #[test]
    fn fig1_csv_shape() {
        let p = Fig1Point {
            circuit: "c17".into(),
            fault: "x/s-a-1".into(),
            vars: 10,
            clauses: 20,
            time: Duration::from_micros(42),
            decisions: 3,
            propagations: 7,
            conflicts: 1,
            outcome: "SAT",
        };
        let csv = figure1_csv(&[p]);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("circuit,fault"));
        let row = lines.next().unwrap();
        assert!(
            row.starts_with("c17,x/s-a-1,10,20,42.000,3,7,1,SAT"),
            "{row}"
        );
    }

    #[test]
    fn fig8_csv_shape() {
        let p = Fig8Point {
            circuit: "rca8".into(),
            sub_size: 100,
            cutwidth: 6,
        };
        assert_eq!(figure8_csv(&[p]), "circuit,sub_size,cutwidth\nrca8,100,6\n");
    }
}
