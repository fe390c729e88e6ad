//! Fault-parallel campaign engine.
//!
//! [`AtpgCampaign`] runs the campaign of
//! [`campaign::run`](crate::campaign::run) on the parts of the sequential
//! [`CampaignDriver`](crate::CampaignDriver) (see [`crate::driver`]): one
//! read-only setup (preflight, collapse, static prune, cone simulator and
//! random phase), built once on the calling thread and shared by
//! reference with every worker; one solver context per worker, the only
//! place a fault gets solved; and one commit state behind a mutex, which
//! a worker takes once per solve to commit it. What this module adds is
//! the parallel machinery: the shared fault cursor, the drop bitmap,
//! speculative workers and windowed in-order emission. It keeps that
//! machinery at every thread count, 1 included, and runs it on exactly
//! as many threads as it has workers.
//!
//! With from-scratch solving the output is **byte-identical** to the
//! sequential engine for any thread count (compare
//! [`CampaignResult::canonical_report`]); only wall-clock fields differ.
//! With [`AtpgConfig::incremental`] each worker keeps its own warm
//! solver, whose state depends on which faults it happened to take —
//! models and effort counters then vary with the schedule, and the
//! cross-engine / cross-thread-count guarantee is on the semantic
//! verdicts instead ([`CampaignResult::detection_report`]).
//!
//! # How determinism survives fault dropping
//!
//! Fault dropping makes the workload only *nearly* embarrassingly
//! parallel: whether fault `i` needs a SAT call depends on the tests
//! generated for faults `< i`, so a naive parallel run would give
//! interleaving-dependent results. This engine keeps the sequential
//! semantics with *speculative solve + in-order commit*:
//!
//! - Workers take fault indices one at a time from one shared atomic
//!   cursor, so every worker speculates just ahead of the commit
//!   frontier. A worker skips an index whose bit in a shared drop-bitmap
//!   is already set and speculatively solves the others, finding the
//!   drop hits of each test vector against the faults whose drop bit it
//!   still sees clear. A set bit marks a fault already retired (pruned or
//!   detected), so committing the vector's hits on it would change
//!   nothing; a stale clear bit only adds one cone simulation. Which
//!   faults a worker simulates therefore varies with the schedule, but
//!   what a commit applies does not.
//! - A worker commits its own solves. Under the commit lock it files the
//!   solve by fault index, then applies filed verdicts to the drop state
//!   and emits records strictly in fault-index order, as far as the filed
//!   solves reach. Drop bits are set only there, from committed tests, so
//!   the bitmap content — and therefore every outcome — is independent of
//!   worker interleaving. A speculative solve for a fault that an earlier
//!   committed test already covers is simply discarded (counted as
//!   `wasted_solves`).
//! - [`AtpgCampaign::with_commit_window`] relaxes *when* tests are
//!   applied: with width `W`, a filed solve for any fault within `W`
//!   of the frontier commits immediately (its test starts dropping
//!   faults), while its record is still emitted in index order. `W = 1`
//!   (the default) is the strict mode described above, byte-identical to
//!   the sequential engine; wider windows keep per-fault verdicts
//!   ([`CampaignResult::detection_report`]) identical but let test order
//!   and drop attribution vary with the schedule.
//!
//! Workers reading a *set* bit is always sound (bits are monotone and
//! only reflect committed state); workers missing a set bit merely wastes
//! work. No worker waits for another except for the lock, which it holds
//! for one commit. Every index goes to one worker, which either files a
//! solve for it or skips it because it is already retired, so once the
//! workers are joined one last commit on the calling thread emits every
//! record still missing — all of them when the setup retired every fault.
//!
//! The random-pattern phase runs single-threaded in the setup, before the
//! fan-out, so workers need no RNG streams — the solve phase is entirely
//! deterministic given the committed test order.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use atpg_easy_syncx::atomic::{AtomicU64, AtomicUsize, Ordering};
use atpg_easy_syncx::Mutex;

use atpg_easy_netlist::Netlist;
use atpg_easy_obs::{CampaignMeta, InstanceTrace};
use atpg_easy_proof::Event;

use crate::campaign::{AtpgConfig, CampaignResult, FaultOutcome, FaultRecord};
use crate::certify::StreamSink;
use crate::driver::{CampaignSetup, CommitState, NetlistSetup, Solved, SolverContext};

/// A parallel ATPG campaign: configuration plus a thread count.
#[derive(Debug, Clone)]
pub struct AtpgCampaign {
    config: AtpgConfig,
    threads: usize,
    window: usize,
    tracing: bool,
    certified: bool,
}

impl AtpgCampaign {
    /// A campaign over `config` with one worker thread.
    pub fn new(config: AtpgConfig) -> Self {
        AtpgCampaign {
            config,
            threads: 1,
            window: 1,
            tracing: false,
            certified: false,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1). The result is
    /// byte-identical for every value; only wall-clock time changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the commit-window width (clamped to at least 1; default 1).
    ///
    /// With width 1 commits apply test vectors strictly in fault order —
    /// the legacy mode, whose canonical report is byte-identical to the
    /// sequential engine at any thread count. A wider window lets a
    /// finished solve for any fault in `[frontier, frontier + window)`
    /// commit (apply its test to the drop state) before the frontier
    /// reaches it, trading the byte-level test-order guarantee for less
    /// head-of-line blocking. Records are still *emitted* strictly in
    /// fault order, so per-fault verdicts
    /// ([`CampaignResult::detection_report`]) stay identical across every
    /// thread count and window width.
    pub fn with_commit_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Enables per-instance trace collection: each solve carries its
    /// [`InstanceTrace`], stamped with the solving worker's id, and
    /// committing the solve keeps the trace; a speculative solve that
    /// never commits leaves none. [`ParallelRun::traces`] carries the
    /// committed traces in fault-index order, not commit order. Off by
    /// default (tracing observes every solve through a counting probe and
    /// costs one trace record per solve).
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Enables proof logging: each worker keeps its own [`StreamSink`]
    /// and [`ParallelRun::streams`] carries one proof stream per worker,
    /// each independently auditable with
    /// [`audit_stream`](atpg_easy_proof::audit_stream). A worker's stream
    /// certifies every solve that worker performed — including
    /// speculative solves later discarded at commit time, whose verdicts
    /// are still true statements about their instances. `SolveBegin`
    /// indices are fault indices, matching trace `seq` numbers. Off by
    /// default.
    pub fn with_certification(mut self, certified: bool) -> Self {
        self.certified = certified;
        self
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured commit-window width.
    pub fn commit_window(&self) -> usize {
        self.window
    }

    /// Runs the campaign. See the module docs for the execution model.
    ///
    /// # Panics
    ///
    /// Same conditions as [`campaign::run`](crate::campaign::run): a
    /// netlist that fails the preflight panics with the driver's
    /// [`DriverError::Preflight`](crate::DriverError::Preflight) report.
    pub fn run(&self, nl: &Netlist) -> ParallelRun {
        let started = Instant::now();
        let shared = NetlistSetup::borrowed(nl, &self.config).unwrap_or_else(|e| panic!("{e}"));
        let (setup, commit) = CampaignSetup::new(&shared, &self.config);
        let faults = setup.faults().len();
        // The next fault index to hand out, shared by every worker.
        let next = AtomicUsize::new(0);
        let drop_bits = DropBitmap::new(faults);
        for i in 0..faults {
            if !commit.needs_solve(&setup, i) {
                drop_bits.set(i);
            }
        }
        let committer = Mutex::new(Committer {
            commit,
            pending: HashMap::new(),
            held: HashMap::new(),
        });

        let (workers, streams): (Vec<WorkerReport>, Vec<Vec<Event>>) =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|id| {
                        let (setup, next, bits, committer) =
                            (&setup, &next, &drop_bits, &committer);
                        scope.spawn(move || run_worker(id, self, setup, next, bits, committer))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker threads do not panic"))
                    .unzip()
            });
        // Emits what no worker's commit reached: every record when the
        // setup retired every fault.
        let mut committer = committer.into_inner().expect("worker threads do not panic");
        committer.drain(&setup, &drop_bits, self.window);
        let (result, mut traces) = (committer.commit.result, committer.commit.traces);
        assert_eq!(result.records.len(), faults, "every fault emits one record");
        // A window wider than 1 commits out of index order.
        traces.sort_unstable_by_key(|t| t.seq);

        // Every fault emits exactly one record, so the record outcomes
        // are the commit tallies. A solve is wasted only when it was never
        // committed at all — committed UNSAT/abort verdicts are useful
        // work, not waste.
        let count = |kind: fn(&FaultOutcome) -> bool| {
            result.records.iter().filter(|r| kind(&r.outcome)).count()
        };
        let committed_sat = count(|o| matches!(o, FaultOutcome::Detected(_)));
        let committed_unsat =
            count(|o| matches!(o, FaultOutcome::Untestable | FaultOutcome::Aborted));
        let solved: usize = workers.iter().map(|w| w.solved).sum();
        let report = ParallelReport {
            threads: self.threads,
            commit_window: self.window,
            wall: started.elapsed(),
            queue_depth: faults,
            workers,
            committed_sat,
            committed_unsat,
            dropped: count(|o| *o == FaultOutcome::DetectedBySimulation),
            static_pruned: count(|o| *o == FaultOutcome::StaticallyRedundant),
            wasted_solves: solved - (committed_sat + committed_unsat),
        };
        ParallelRun {
            result,
            report,
            traces,
            streams: if self.certified { streams } else { Vec::new() },
        }
    }
}

/// A completed parallel campaign: the (thread-count-independent) result
/// plus the (machine-dependent) execution report.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Identical to what [`campaign::run`](crate::campaign::run) produces,
    /// modulo `solve_time`.
    pub result: CampaignResult,
    /// How the run was executed: per-worker counters, wall time.
    pub report: ParallelReport,
    /// Per-instance traces in fault-index order (ascending `seq`, which
    /// is not commit order once the window is wider than 1), when tracing
    /// was enabled with [`AtpgCampaign::with_tracing`]; empty otherwise.
    /// One trace per committed solver call, whatever its verdict
    /// (`traces.len() == report.committed_solves()`), with `seq` equal
    /// to the record index in `result.records`.
    pub traces: Vec<InstanceTrace>,
    /// One proof stream per worker when certification was enabled with
    /// [`AtpgCampaign::with_certification`]; empty otherwise. Each stream
    /// independently certifies every solve its worker performed
    /// (committed or speculative).
    pub streams: Vec<Vec<Event>>,
}

/// Observability counters for one parallel campaign.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Worker threads used.
    pub threads: usize,
    /// Commit-window width used (1 = strict in-order committing).
    pub commit_window: usize,
    /// Wall-clock time for the whole campaign (both phases).
    pub wall: Duration,
    /// Targeted faults: the indices the workers' shared cursor hands out,
    /// each to exactly one worker.
    pub queue_depth: usize,
    /// One entry per worker.
    pub workers: Vec<WorkerReport>,
    /// Committed solver calls that detected their fault (SAT verdicts
    /// that made it into the result).
    pub committed_sat: usize,
    /// Committed solver calls that proved their fault untestable or hit
    /// a budget (UNSAT/abort verdicts that made it into the result) —
    /// useful work, distinct from `wasted_solves`.
    pub committed_unsat: usize,
    /// Faults retired without a committed solver call (random patterns or
    /// fault dropping).
    pub dropped: usize,
    /// Faults retired by the static implication pre-pass (0 unless
    /// `static_prune` was configured); disjoint from `dropped`.
    pub static_pruned: usize,
    /// Speculative solves discarded at commit time because an earlier
    /// committed test already covered the fault — the price of keeping
    /// dropping deterministic under parallelism. Exactly
    /// `solved − committed_solves()`.
    pub wasted_solves: usize,
}

impl ParallelReport {
    /// All committed solver calls, whatever the verdict.
    pub fn committed_solves(&self) -> usize {
        self.committed_sat + self.committed_unsat
    }

    /// The campaign-level trace gauges (queue depth, wasted solves, …) as
    /// a [`CampaignMeta`] line for the JSONL trace. `cutwidth_estimate`
    /// is the caller's, when one was computed for the circuit.
    pub fn campaign_meta(&self, circuit: &str, cutwidth_estimate: Option<u64>) -> CampaignMeta {
        CampaignMeta {
            circuit: circuit.to_string(),
            threads: self.threads as u64,
            commit_window: self.commit_window as u64,
            queue_depth: self.queue_depth as u64,
            committed_sat: self.committed_sat as u64,
            committed_unsat: self.committed_unsat as u64,
            dropped: self.dropped as u64,
            wasted_solves: self.wasted_solves as u64,
            static_pruned: self.static_pruned as u64,
            cutwidth_estimate,
        }
    }
}

/// Per-worker execution counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Worker index.
    pub id: usize,
    /// Always 0: every worker takes faults from one shared cursor, so no
    /// worker steals from another. Kept because `campaign_bench` reports
    /// it as the per-layer metric `parallel.stolen`.
    pub stolen: usize,
    /// SAT instances actually solved (the rest were drop-bit skips).
    /// `solved + skipped` is the number of fault indices this worker took.
    pub solved: usize,
    /// Fault indices skipped because their drop-bitmap bit was already set.
    pub skipped: usize,
    /// Wall-clock time spent inside the solver.
    pub solve_time: Duration,
}

/// Shared fault-drop bitmap. Bits are monotone (set-only); once workers
/// run they are set only under the commit lock, from committed tests, so
/// a set bit always reflects committed state. A worker skips a set bit
/// twice over: it does not solve that fault, and it does not simulate
/// that fault when dropping with its own test vector. Correctness never
/// depends on a worker *seeing* a bit — a missed bit only costs a wasted
/// speculative solve or one extra cone simulation — but `set` uses
/// Release and `get` Acquire so that a worker which *does* observe a bit
/// also observes everything the commit published before setting it.
/// That pairing is cheap (free on x86, a lightweight barrier on ARM) and
/// it is the happens-before edge that the
/// `bitmap_later_bit_implies_earlier_bit` loom scenario and any future
/// cross-worker clause-migration work rely on.
///
/// Public so the `loom_parallel` model tests can exhaustively explore
/// publish/read interleavings on the production type.
pub struct DropBitmap {
    words: Vec<AtomicU64>,
}

impl DropBitmap {
    /// An all-clear bitmap over `bits` fault indices.
    pub fn new(bits: usize) -> Self {
        DropBitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Sets bit `i` (monotone; only a commit calls this once workers run).
    pub fn set(&self, i: usize) {
        // ORDERING: Release — pairs with the Acquire load in `get`, making
        // the commit's writes before the publish visible to any worker
        // that observes the bit. `fetch_or` (not `store`) keeps sibling
        // bits in the word intact, which is what makes bits monotone.
        self.words[i / 64].fetch_or(1 << (i % 64), Ordering::Release);
    }

    /// Whether bit `i` is set. A `false` may be stale (costing a wasted
    /// speculative solve or a needless drop simulation); a `true` is
    /// definitive — bits are monotone.
    pub fn get(&self, i: usize) -> bool {
        // ORDERING: Acquire — pairs with the Release `fetch_or` in `set`;
        // see the type-level docs for why Relaxed would also be *sound*
        // today and why the stronger edge is kept anyway.
        self.words[i / 64].load(Ordering::Acquire) >> (i % 64) & 1 != 0
    }
}

/// One worker: takes fault indices from the shared cursor `next` until
/// they run out and solves every index whose drop bit is still clear
/// through its own [`SolverContext`] — its own warm solver and proof
/// stream — finding each test vector's drop hits against the faults
/// whose bit is still clear, and commits each solve itself under the
/// `committer` lock.
fn run_worker(
    id: usize,
    campaign: &AtpgCampaign,
    setup: &CampaignSetup,
    next: &AtomicUsize,
    drop_bits: &DropBitmap,
    committer: &Mutex<Committer>,
) -> (WorkerReport, Vec<Event>) {
    let mut report = WorkerReport {
        id,
        ..WorkerReport::default()
    };
    let trace_worker = campaign.tracing.then_some(id as u64);
    let mut solver = SolverContext::new(
        setup.netlist(),
        &campaign.config,
        trace_worker,
        campaign.certified,
    );
    loop {
        // ORDERING: Relaxed — one atomic hands each index to exactly one
        // worker under any ordering, because its read-modify-writes are
        // totally ordered. The index guards no data: workers read
        // `faults`/`nl`, which are frozen before `thread::scope` spawns
        // them, and the spawn itself is the happens-before edge for that
        // state.
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= setup.faults().len() {
            break;
        }
        if drop_bits.get(index) {
            report.skipped += 1;
            continue;
        }
        let live = (0..setup.faults().len()).filter(|&j| !drop_bits.get(j));
        let solved = solver.solve(&campaign.config, setup, index, live);
        report.solved += 1;
        report.solve_time += solved.record.solve_time;
        let mut locked = committer.lock().expect("no worker panics while committing");
        // A fault the frontier already passed was retired without a solve.
        if solved.index >= locked.commit.result.records.len() {
            locked.pending.insert(solved.index, solved);
        }
        locked.drain(setup, drop_bits, campaign.window);
    }
    let events = solver
        .into_sink()
        .map_or_else(Vec::new, StreamSink::into_events);
    (report, events)
}

/// The commit state and the solves filed ahead of its frontier: the
/// lowest fault index not yet emitted, `commit.result.records.len()`.
struct Committer {
    commit: CommitState,
    /// Filed solves not yet committed, keyed by fault index.
    pending: HashMap<usize, Solved>,
    /// Records committed ahead of the frontier (window > 1): their effects
    /// are already applied, the record waits for in-order emission.
    held: HashMap<usize, FaultRecord>,
}

impl Committer {
    /// Commits filed solves and emits records as far as they reach. This
    /// is the only writer of the commit state and, once workers run, of
    /// `drop_bits`.
    ///
    /// Committing a fault means applying its verdict to the shared drop
    /// state; emitting it means appending its record to the result.
    /// Emission is *always* strict index order — that is the
    /// reconciliation that keeps per-fault verdicts schedule-independent.
    /// With `window == 1` commit and emission coincide (the strict
    /// in-order mode, byte-identical to the sequential engine). With a
    /// wider window, a filed solve for any fault in
    /// `[frontier, frontier + window)` commits as soon as it is eligible —
    /// its test starts dropping faults without waiting for the frontier —
    /// and its record is held until the frontier reaches it. Within one
    /// pass, eligible window entries commit in ascending index order.
    fn drain(&mut self, setup: &CampaignSetup, drop_bits: &DropBitmap, window: usize) {
        let faults = setup.faults().len();
        let publish = |j| drop_bits.set(j);
        // Drain to a fixpoint: emitting at the frontier widens the window,
        // and a speculative commit can drop the fault the frontier waits
        // on, so the two passes feed each other until a window pass
        // commits nothing.
        loop {
            // Emit in strict index order as far as the state allows. A
            // held record comes first: its own commit marked it detected.
            while self.commit.result.records.len() < faults {
                let frontier = self.commit.result.records.len();
                let record = if let Some(record) = self.held.remove(&frontier) {
                    record
                } else if let Some(record) = self.commit.retired(setup, frontier) {
                    // Pruned (never queued: its drop bit was pre-set) or
                    // dropped; a speculative solve for it is superseded.
                    self.pending.remove(&frontier);
                    record
                } else if let Some(solved) = self.pending.remove(&frontier) {
                    self.commit.commit(solved, publish)
                } else {
                    break;
                };
                self.commit.result.records.push(record);
            }
            // Speculative commits inside the window, ascending so the
            // committed state is a deterministic function of the filed
            // set, not the filing order.
            let held = self.held.len();
            if window > 1 {
                let frontier = self.commit.result.records.len();
                let mut eligible: Vec<usize> = (self.pending.keys().copied())
                    .filter(|&i| i < frontier + window)
                    .collect();
                eligible.sort_unstable();
                for i in eligible {
                    if !self.commit.needs_solve(setup, i) {
                        // Superseded by a commit earlier in this pass; the
                        // frontier will emit a simulated record for it.
                        continue;
                    }
                    let solved = self.pending.remove(&i).expect("eligible keys are pending");
                    self.held.insert(i, self.commit.commit(solved, publish));
                }
            }
            if self.held.len() == held {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign;
    use atpg_easy_netlist::parser::bench;

    fn c17() -> Netlist {
        bench::parse(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\nOUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n19 = NAND(11, 7)\n\
             22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn drop_bitmap_set_get() {
        let b = DropBitmap::new(130);
        assert!(!b.get(0) && !b.get(64) && !b.get(129));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65) && !b.get(128));
    }

    #[test]
    fn parallel_matches_sequential_and_thread_counts_agree() {
        let nl = c17();
        let config = AtpgConfig {
            random_patterns: 32,
            seed: 7,
            ..AtpgConfig::default()
        };
        let sequential = campaign::run(&nl, &config).canonical_report();
        // 24 workers outnumber c17's faults: the surplus ones find the
        // cursor already exhausted and must still exit cleanly.
        for threads in [1, 2, 8, 24] {
            let run = AtpgCampaign::new(config).with_threads(threads).run(&nl);
            assert_eq!(
                run.result.canonical_report(),
                sequential,
                "threads={threads} must reproduce the sequential campaign"
            );
            assert!(threads < 24 || run.report.queue_depth < threads);
            assert_eq!(run.report.threads, threads);
            assert_eq!(run.report.workers.len(), threads);
            let taken: usize = run
                .report
                .workers
                .iter()
                .map(|w| w.solved + w.skipped)
                .sum();
            assert_eq!(taken, run.report.queue_depth, "every fault taken once");
        }
    }

    #[test]
    fn commit_window_preserves_detection_report_at_any_width() {
        let nl = c17();
        let config = AtpgConfig {
            random_patterns: 32,
            seed: 7,
            ..AtpgConfig::default()
        };
        let sequential = campaign::run(&nl, &config);
        let want = sequential.detection_report();
        let canon = sequential.canonical_report();
        for window in [1, 4, 16] {
            for threads in [1, 2, 4] {
                let run = AtpgCampaign::new(config)
                    .with_threads(threads)
                    .with_commit_window(window)
                    .run(&nl);
                assert_eq!(
                    run.result.detection_report(),
                    want,
                    "threads={threads} window={window}: detection must match sequential"
                );
                assert_eq!(run.report.commit_window, window);
                let r = &run.report;
                assert_eq!(r.committed_solves() + r.dropped, r.queue_depth);
                if window == 1 {
                    assert_eq!(
                        run.result.canonical_report(),
                        canon,
                        "threads={threads}: window 1 keeps byte identity"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_without_dropping_matches_sequential() {
        let nl = c17();
        let config = AtpgConfig {
            fault_dropping: false,
            ..AtpgConfig::default()
        };
        let sequential = campaign::run(&nl, &config).canonical_report();
        let run = AtpgCampaign::new(config).with_threads(3).run(&nl);
        assert_eq!(run.result.canonical_report(), sequential);
        assert_eq!(run.report.wasted_solves, 0, "nothing drops, nothing wasted");
    }

    #[test]
    fn report_counters_are_consistent() {
        let nl = c17();
        let run = AtpgCampaign::new(AtpgConfig::default())
            .with_threads(4)
            .run(&nl);
        let r = &run.report;
        assert_eq!(r.committed_solves() + r.dropped, r.queue_depth);
        assert_eq!(r.committed_unsat, 0, "c17 has no untestable faults");
        assert!(r.dropped > 0, "c17 fault dropping retires faults");
        let solved: usize = r.workers.iter().map(|w| w.solved).sum();
        assert_eq!(r.wasted_solves, solved - r.committed_solves());
        assert!(run.traces.is_empty(), "tracing is off by default");
        let meta = r.campaign_meta(nl.name(), None);
        assert_eq!(meta.queue_depth as usize, r.queue_depth);
        assert_eq!(meta.committed_sat as usize, r.committed_sat);
        assert_eq!(meta.committed_unsat as usize, r.committed_unsat);
    }

    /// Regression: committed UNSAT verdicts are useful work, not waste —
    /// `committed_sat` must count only detected faults, with untestable
    /// commits in `committed_unsat` and neither inflating
    /// `wasted_solves`.
    #[test]
    fn untestable_faults_commit_as_unsat_not_waste() {
        // y = OR(a, NOT a) is constantly 1: its s-a-1 (and the cone
        // faults dominated by it) are redundant, so the campaign commits
        // real UNSAT verdicts.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let na = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Not, vec![a], "na")
            .unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::Or, vec![a, na], "y")
            .unwrap();
        nl.add_output(y);
        // Dropping off: every solver call must be committed, so a
        // correct report shows zero waste no matter how commits split
        // between SAT and UNSAT.
        let config = AtpgConfig {
            collapse: false,
            fault_dropping: false,
            ..AtpgConfig::default()
        };
        let run = AtpgCampaign::new(config).with_threads(2).run(&nl);
        let r = &run.report;
        let detected = run
            .result
            .records
            .iter()
            .filter(|rec| matches!(rec.outcome, FaultOutcome::Detected(_)))
            .count();
        let untestable = run
            .result
            .records
            .iter()
            .filter(|rec| rec.outcome == FaultOutcome::Untestable)
            .count();
        assert!(untestable > 0, "fixture must exercise UNSAT commits");
        assert_eq!(r.committed_sat, detected);
        assert_eq!(r.committed_unsat, untestable);
        assert_eq!(r.committed_solves() + r.dropped, r.queue_depth);
        let solved: usize = r.workers.iter().map(|w| w.solved).sum();
        assert_eq!(r.wasted_solves, solved - r.committed_solves());
        // Every solve was committed here (UNSAT faults cannot be dropped
        // by any test vector), so nothing may be reported as wasted.
        assert_eq!(r.wasted_solves, 0, "UNSAT commits are not waste");
    }

    #[test]
    fn incremental_campaign_matches_detection_report_at_any_thread_count() {
        let nl = c17();
        let scratch = AtpgConfig {
            random_patterns: 32,
            seed: 7,
            ..AtpgConfig::default()
        };
        let incremental = AtpgConfig {
            incremental: true,
            ..scratch
        };
        let want = campaign::run(&nl, &scratch).detection_report();
        assert_eq!(
            campaign::run(&nl, &incremental).detection_report(),
            want,
            "sequential incremental detection must match from-scratch"
        );
        for threads in [1, 2, 8] {
            let run = AtpgCampaign::new(incremental)
                .with_threads(threads)
                .run(&nl);
            assert_eq!(
                run.result.detection_report(),
                want,
                "threads={threads} incremental detection must match from-scratch"
            );
            let r = &run.report;
            assert_eq!(r.committed_solves() + r.dropped, r.queue_depth);
        }
    }

    #[test]
    fn certified_parallel_streams_audit_clean_per_worker() {
        let nl = c17();
        for (incremental, static_prune) in [(false, false), (true, false), (true, true)] {
            let config = AtpgConfig {
                incremental,
                static_prune,
                ..AtpgConfig::default()
            };
            let run = AtpgCampaign::new(config)
                .with_threads(3)
                .with_certification(true)
                .run(&nl);
            assert_eq!(run.streams.len(), 3, "one stream per worker");
            let mut certified = 0;
            for (w, stream) in run.streams.iter().enumerate() {
                let audit = atpg_easy_proof::audit_stream(stream);
                assert!(
                    audit.ok(),
                    "incremental={incremental} worker {w}: {:?}",
                    audit.stray_errors
                );
                assert_eq!(audit.uncertified(), 0, "incremental={incremental}");
                certified += audit.certified();
            }
            let solved: usize = run.report.workers.iter().map(|r| r.solved).sum();
            assert_eq!(
                certified, solved,
                "incremental={incremental}: every solve — committed or \
                 speculative — is certified"
            );
        }
    }

    #[test]
    fn uncertified_runs_carry_no_streams() {
        let nl = c17();
        let run = AtpgCampaign::new(AtpgConfig::default())
            .with_threads(2)
            .run(&nl);
        assert!(run.streams.is_empty());
    }

    #[test]
    fn traced_run_records_every_committed_sat_instance() {
        let nl = c17();
        let config = AtpgConfig {
            random_patterns: 32,
            seed: 7,
            ..AtpgConfig::default()
        };
        let (_, sequential) = campaign::run_traced(&nl, &config);
        for threads in [1, 3] {
            let run = AtpgCampaign::new(config)
                .with_threads(threads)
                .with_tracing(true)
                .run(&nl);
            assert_eq!(run.traces.len(), run.report.committed_solves());
            for t in &run.traces {
                assert!(run.result.records[t.seq as usize].sat_vars > 0);
            }
            let canon: Vec<String> = run.traces.iter().map(|t| t.canonical()).collect();
            let want: Vec<String> = sequential.iter().map(|t| t.canonical()).collect();
            assert_eq!(canon, want, "threads={threads} traces match sequential");
        }
    }
}
