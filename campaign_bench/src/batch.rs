//! The batch workloads, `seq_fresh` and `par_warm`, over one seeded
//! circuit pool.
//!
//! `seq_fresh` calls `bench::parse` then `campaign::run` per circuit:
//! a fresh CDCL solver per fault and no random phase, so miter building,
//! encoding, solving and per-vector dropping do the work. Its harness
//! spawns no thread: glibc leaves its single-threaded malloc fast path
//! at the first spawn, so a library change that starts a thread shows
//! its real cost here.
//!
//! `par_warm` runs the same pool through `parallel::AtpgCampaign` with
//! warm incremental workers, the static prune and a 4096-pattern random
//! phase, then compacts each test set against the faults that campaign
//! detected, as a user shipping the tests would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use atpg_easy_atpg::campaign::{self, AtpgConfig, CampaignResult, FaultOutcome};
use atpg_easy_atpg::{AtpgCampaign, Fault, ParallelReport};
use atpg_easy_netlist::parser::bench;

use crate::checks::{self, Class, Packed, Reference, Verdicts};
use crate::gen::{self, Circuit};
use crate::layers::{self, Parallel, Serving};
use crate::replay::{self, Counts, Work};
use crate::stats::{self, frac, median, ms, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Args;

/// Worker threads of `par_warm`: fixed, so every host does the same work.
const THREADS: usize = 2;
/// Commit window of `par_warm`.
const WINDOW: usize = 16;
/// Random patterns of `par_warm`'s first phase.
const RANDOM_PATTERNS: usize = 4096;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `seq_fresh`.
    Fresh,
    /// `par_warm`.
    Warm,
}

/// Every campaign option of `par_warm`, set explicitly.
pub fn warm_config() -> AtpgConfig {
    AtpgConfig {
        random_patterns: RANDOM_PATTERNS,
        incremental: true,
        static_prune: true,
        ..checks::fresh_config()
    }
}

impl Engine {
    fn config(self) -> AtpgConfig {
        match self {
            Engine::Fresh => checks::fresh_config(),
            Engine::Warm => warm_config(),
        }
    }
}

/// Campaigns per second of `--seconds`, never fewer than 1000 a run, so
/// that p99 has ten samples beyond it.
const CAMPAIGNS_PER_SECOND: u64 = 50;

/// Drawn circuits beside the 32 of the suite.
fn drawn(seconds: u64) -> usize {
    (CAMPAIGNS_PER_SECOND * seconds).max(1000) as usize - 32
}

/// Faults a campaign reported detected.
fn detected_faults(result: &CampaignResult) -> Vec<Fault> {
    result
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.outcome,
                FaultOutcome::Detected(_) | FaultOutcome::DetectedBySimulation
            )
        })
        .map(|r| r.fault)
        .collect()
}

/// One campaign's outputs as the program returned them.
struct Run {
    result: CampaignResult,
    /// The compacted test set (`par_warm`; empty in `seq_fresh`).
    compacted: Vec<Vec<bool>>,
    report: Option<ParallelReport>,
    /// Parse to the campaign report, which carries every verdict.
    reported: Duration,
}

/// Runs one campaign; `None` when the program panicked. The duration is
/// parse to the campaign's final output (the compacted set in
/// `par_warm`).
fn run_campaign(engine: Engine, config: &AtpgConfig, text: &str) -> (Option<Run>, Duration) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| {
        let nl = bench::parse(text).expect("workload text parses");
        match engine {
            Engine::Fresh => Run {
                result: campaign::run(&nl, config),
                compacted: Vec::new(),
                report: None,
                reported: t0.elapsed(),
            },
            Engine::Warm => {
                let run = AtpgCampaign::new(*config)
                    .with_threads(THREADS)
                    .with_commit_window(WINDOW)
                    .run(&nl);
                let reported = t0.elapsed();
                let detected = detected_faults(&run.result);
                Run {
                    compacted: campaign::compact_tests(&nl, &run.result.tests, &detected),
                    result: run.result,
                    report: Some(run.report),
                    reported,
                }
            }
        }
    }));
    (out.ok(), t0.elapsed())
}

/// What the timed pass keeps of one campaign: only what the checks and
/// metrics read, packed, so that `peak_rss_mb` follows the program.
struct Timed {
    /// `None` when the program panicked on this campaign.
    verdicts: Option<Verdicts>,
    compacted: Packed,
    /// Vectors handed to the user: the campaign's tests in `seq_fresh`,
    /// the compacted set in `par_warm`.
    shipped: usize,
    campaign_ms: f64,
    first_verdict_ms: f64,
}

impl Timed {
    fn keep(engine: Engine, run: Option<Run>, took: Duration) -> Timed {
        let campaign_ms = ms(took);
        let Some(run) = run else {
            return Timed {
                verdicts: None,
                compacted: Packed::default(),
                shipped: 0,
                campaign_ms,
                first_verdict_ms: campaign_ms,
            };
        };
        let mut compacted = Packed::default();
        for v in &run.compacted {
            compacted.push(v.iter().copied());
        }
        Timed {
            verdicts: Some(Verdicts::of(&run.result)),
            compacted,
            shipped: match engine {
                Engine::Fresh => run.result.tests.len(),
                Engine::Warm => run.compacted.len(),
            },
            campaign_ms,
            first_verdict_ms: ms(run.reported),
        }
    }
}

/// Checks one campaign's outputs; `true` when all hold.
fn check(engine: Engine, circuit: &Circuit, timed: &Timed) -> bool {
    let Some(verdicts) = &timed.verdicts else {
        return false;
    };
    let (nl, report_ok) = match engine {
        // The measured engine is the sequential from-scratch reference,
        // so exhaustive simulation is the independent check of its
        // verdicts.
        Engine::Fresh => {
            let nl = bench::parse(&circuit.text).expect("workload text parses");
            let ok = verdicts.agree_with_exhaustive(&nl);
            (nl, ok)
        }
        Engine::Warm => {
            let reference = Reference::compute(&circuit.text);
            let ok = reference.exhaustive_ok && reference.verdicts.same_report(verdicts);
            (reference.netlist, ok)
        }
    };
    report_ok
        && verdicts.count(Class::Aborted) == 0
        && verdicts.vectors_detect(&nl)
        && (engine == Engine::Fresh
            || checks::tests_cover(&nl, &timed.compacted, &verdicts.detected_faults()))
}

/// Checks every campaign of the pass; returns how many failed.
fn check_all(engine: Engine, pool: &[Circuit], timed: &[Timed]) -> u64 {
    let failures = |range: std::ops::Range<usize>| {
        range
            .filter(|&i| !check(engine, &pool[i], &timed[i]))
            .count()
    };
    let failed = match engine {
        // `seq_fresh` starts no thread at all, and needs no reference run.
        Engine::Fresh => failures(0..pool.len()),
        // `par_warm` is multi-threaded already; its reference runs, as
        // long as a `seq_fresh` pass, are split over the worker count.
        Engine::Warm => std::thread::scope(|scope| {
            let mid = pool.len() / THREADS;
            let rest = scope.spawn(move || failures(mid..pool.len()));
            failures(0..mid) + rest.join().expect("check threads do not panic")
        }),
    };
    failed as u64
}

/// Runs one batch workload.
pub fn run(engine: Engine, args: &Args) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pool = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        pool = gen::batch_pool(args.seed, drawn(args.seconds));
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    let config = engine.config();
    if args.trace {
        return traced(engine, &config, &pool, args);
    }

    let started = Instant::now();
    let timed: Vec<Timed> = pool
        .iter()
        .map(|c| {
            let (run, took) = run_campaign(engine, &config, &c.text);
            Timed::keep(engine, run, took)
        })
        .collect();
    let wall = started.elapsed();
    let peak_rss_mb = stats::peak_rss_mb();

    let failed = check_all(engine, &pool, &timed);

    let (mut faults, mut detected, mut untestable, mut vectors) = (0usize, 0, 0, 0);
    for t in &timed {
        let Some(v) = &t.verdicts else { continue };
        faults += v.len();
        detected += v.count(Class::Detected);
        untestable += v.count(Class::Untestable);
        vectors += t.shipped;
    }
    let campaign_ms: Vec<f64> = timed.iter().map(|t| t.campaign_ms).collect();
    let first_ms: Vec<f64> = timed.iter().map(|t| t.first_verdict_ms).collect();

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", wall.as_secs_f64(), "s");
    m.put("faults_per_s", faults as f64 / wall.as_secs_f64(), "1/s");
    m.put_pct("campaign_p50_ms", &campaign_ms, 0.50, "ms");
    m.put_pct("campaign_p90_ms", &campaign_ms, 0.90, "ms");
    m.put_pct("campaign_p99_ms", &campaign_ms, 0.99, "ms");
    m.put_pct("first_verdict_p50_ms", &first_ms, 0.50, "ms");
    m.put_pct("first_verdict_p99_ms", &first_ms, 0.99, "ms");
    m.put(
        "coverage",
        frac(detected as f64, (faults - untestable) as f64),
        "frac",
    );
    m.put("test_vectors", vectors as f64, "count");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    Outcome {
        attempted: pool.len() as u64,
        failed,
        metrics: m,
    }
}

/// The traced run: per campaign, the untraced engine (its outputs
/// checked as in the timed pass), then the same configuration through
/// the program's sequential engine — the untraced base of the overhead
/// and, for `par_warm`, the run the replay must match — then the traced
/// replay. The replay's `detection_report` must equal the untraced
/// engine's, and its [`Work`] the sequential run's.
fn traced(engine: Engine, config: &AtpgConfig, pool: &[Circuit], args: &Args) -> Outcome {
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut par = Parallel {
        threads: THREADS,
        ..Parallel::default()
    };
    let (mut base, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let mut failed = vec![false; pool.len()];
    for (i, c) in pool.iter().enumerate() {
        let (run, took) = run_campaign(engine, config, &c.text);
        let Some(run) = run else {
            failed[i] = true;
            continue;
        };
        let report = run.result.detection_report();
        let (sequential, base_time) = match engine {
            Engine::Fresh => (Work::of(&run.result), took),
            Engine::Warm => {
                let t = Instant::now();
                let nl = bench::parse(&c.text).expect("workload text parses");
                let result = campaign::run(&nl, config);
                campaign::compact_tests(&nl, &result.tests, &detected_faults(&result));
                (Work::of(&result), t.elapsed())
            }
        };
        base += base_time;
        if let Some(r) = &run.report {
            par.run += r.wall;
            par.committed += r.committed_solves() as u64;
            par.wasted += r.wasted_solves as u64;
            for w in &r.workers {
                par.solved += w.solved as u64;
                par.stolen += w.stolen as u64;
                par.skipped += w.skipped as u64;
                par.solve_time += w.solve_time;
            }
        }
        let ok = check(engine, c, &Timed::keep(engine, Some(run), took));
        let t = Instant::now();
        let replayed = replay::replay(
            &c.text,
            config,
            engine == Engine::Warm,
            &mut tr,
            i,
            &mut counts,
        );
        traced_wall += t.elapsed();
        failed[i] = !(ok && replayed.detection_report() == report && Work::of(&replayed) == sequential);
    }
    for i in tr.unreconciled() {
        failed[i] = true;
    }
    let overhead = traced_wall.as_secs_f64() / base.as_secs_f64() - 1.0;
    crate::write_spans(&tr, args);
    Outcome {
        attempted: pool.len() as u64,
        failed: failed.iter().filter(|&&f| f).count() as u64,
        metrics: layers::metrics(&tr, &counts, &par, &Serving::default(), overhead),
    }
}
