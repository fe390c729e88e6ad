//! The campaign state machine: the TEGUS loop of [`campaign::run`]
//! unrolled into a handle that is driven one fault at a time, built from
//! the parts every campaign engine shares.
//!
//! - **Setup** is read-only once built, in two layers. The per-netlist
//!   [`NetlistSetup`] depends only on the netlist and the fault-list
//!   options: the preflight verdict, fault collapse, the cone
//!   [`FaultSimulator`] and the static-prune mask, computed on first
//!   `static_prune` use. The per-campaign `CampaignSetup` applies the
//!   prune or not and runs the random-pattern phase. The parallel engine
//!   builds one of each and shares them by reference with every worker;
//!   the serving layer keeps one [`NetlistSetup`] per netlist behind an
//!   [`Arc`] and starts every campaign on it.
//! - **Solver context** (`SolverContext`) owns the optional warm
//!   [`IncrementalAtpg`], the optional [`StreamSink`] proof stream and
//!   whether each solve yields an [`InstanceTrace`], observed through a
//!   counting probe. It is the only place a fault gets solved; each
//!   parallel worker owns one.
//! - **Commit state** (`CommitState`) holds the detected bits, the tests,
//!   the records and the traces. Applying a verdict's drop hits, keeping
//!   its trace and emitting records go through it, from
//!   [`CampaignDriver::step`] and from the parallel workers' commits
//!   alike, so a solve that never commits leaves no trace.
//!
//! [`CampaignDriver`] is the sequential composition of the three and the
//! primitive the serving layer schedules: construction builds the setup;
//! every [`CampaignDriver::step`] then solves (or retires) exactly one
//! fault and returns its record. Between steps a scheduler can park the
//! driver, tighten its wall budget against an approaching deadline
//! ([`CampaignDriver::clamp_wall`]), or abandon the remaining faults
//! ([`CampaignDriver::abandon`]).
//!
//! The library entry points [`campaign::run`], [`campaign::run_traced`]
//! and [`campaign::run_certified`] are thin loops over this driver, so
//! stepping a driver to completion is *by construction* byte-identical to
//! the library path — the contract the serve e2e golden test pins.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use atpg_easy_netlist::sim::{Lanes, PatternBlock};
use atpg_easy_netlist::Netlist;
use atpg_easy_obs::{Counters, CountingProbe, InstanceTrace};
use atpg_easy_sat::{Cdcl, Limits};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::campaign::{self, AtpgConfig, CampaignResult, FaultOutcome, FaultRecord};
use crate::certify::StreamSink;
use crate::faultsim::{FaultSimulator, SimBuffers, WIDE_PATTERNS};
use crate::incremental::IncrementalAtpg;
use crate::{fault, miter, Fault};

/// Why a [`CampaignDriver`] could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The netlist failed the lint preflight; the payload is the full
    /// rendered diagnostic report (the same text [`campaign::run`] panics
    /// with).
    Preflight(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Preflight(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DriverError {}

/// The part of a campaign's setup that depends only on the netlist and
/// the fault-list options (`collapse` and `dominance`): the preflight
/// verdict, the collapsed fault list, the cone [`FaultSimulator`] and the
/// static-prune mask, which `implic` computes on first `static_prune`
/// use.
///
/// Campaigns only read it, so one serves any number of them: the `serve`
/// daemon caches one per netlist behind an [`Arc`] and starts each
/// campaign on it with [`CampaignDriver::with_setup`].
/// [`CampaignDriver::try_new`] and the parallel engine build an unshared
/// one per run through the same code, over the netlist they own or
/// borrow.
pub struct NetlistSetup<'n> {
    nl: Cow<'n, Netlist>,
    /// The fault-list options the setup was built with.
    collapse: bool,
    dominance: bool,
    /// Whether the netlist passed the preflight (`false`: not run).
    preflighted: bool,
    faults: Vec<Fault>,
    fs: FaultSimulator,
    /// Per fault, whether `implic` proves it redundant.
    redundant: OnceLock<Vec<bool>>,
}

impl NetlistSetup<'static> {
    /// Runs the preflight (with `config.preflight`), fault collapse (by
    /// `config.collapse` and `config.dominance`) and the cone
    /// precomputation over `nl`, which the setup keeps.
    ///
    /// # Errors
    ///
    /// With `config.preflight` set, a netlist that fails the lint
    /// preflight returns [`DriverError::Preflight`].
    pub fn new(nl: Netlist, config: &AtpgConfig) -> Result<Self, DriverError> {
        Self::build(Cow::Owned(nl), config)
    }
}

impl<'n> NetlistSetup<'n> {
    /// Like [`NetlistSetup::new`], over a borrowed netlist.
    pub(crate) fn borrowed(nl: &'n Netlist, config: &AtpgConfig) -> Result<Self, DriverError> {
        Self::build(Cow::Borrowed(nl), config)
    }

    fn build(nl: Cow<'n, Netlist>, config: &AtpgConfig) -> Result<Self, DriverError> {
        if config.preflight {
            let report = atpg_easy_lint::preflight(&nl);
            if report.has_errors() {
                return Err(DriverError::Preflight(format!(
                    "netlist `{}` failed ATPG preflight:\n{}",
                    nl.name(),
                    report.render_human()
                )));
            }
        }
        let faults = if config.dominance {
            fault::collapse_with_dominance(&nl)
        } else if config.collapse {
            fault::collapse(&nl)
        } else {
            fault::all_faults(&nl)
        };
        let fs = FaultSimulator::with_cones(&nl);
        Ok(NetlistSetup {
            nl,
            collapse: config.collapse,
            dominance: config.dominance,
            preflighted: config.preflight,
            faults,
            fs,
            redundant: OnceLock::new(),
        })
    }

    /// The circuit.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Whether a campaign under `config` may run on this setup: it was
    /// built with the same fault-list options, and with the preflight if
    /// `config` asks for one.
    pub fn serves(&self, config: &AtpgConfig) -> bool {
        self.collapse == config.collapse
            && self.dominance == config.dominance
            && (self.preflighted || !config.preflight)
    }

    /// Heap bytes the setup holds once its prune mask exists, counted by
    /// capacity: the netlist when owned, the fault list, the cone
    /// simulator and one byte per fault for the mask, computed or not.
    pub fn heap_bytes(&self) -> usize {
        let nl = match &self.nl {
            Cow::Owned(nl) => nl.heap_bytes(),
            Cow::Borrowed(_) => 0,
        };
        nl + self.faults.capacity() * std::mem::size_of::<Fault>()
            + self.fs.heap_bytes()
            + self.faults.len()
    }

    /// The static-prune mask, computed on the first call.
    fn redundant(&self) -> &[bool] {
        self.redundant.get_or_init(|| {
            let analysis = atpg_easy_implic::analyze(&self.nl);
            self.faults
                .iter()
                .map(|f| analysis.is_redundant(f.net, f.stuck))
                .collect()
        })
    }
}

/// One campaign's view of its [`NetlistSetup`]: the shared part plus the
/// static-prune mask the campaign applies, if any.
#[derive(Clone, Copy)]
pub(crate) struct CampaignSetup<'s> {
    shared: &'s NetlistSetup<'s>,
    pruned: Option<&'s [bool]>,
}

impl<'s> CampaignSetup<'s> {
    /// Applies `config.static_prune` to `shared` and runs the
    /// random-pattern phase. Returns the view and the commit state the
    /// random phase seeds: its detected bits and the batches that
    /// retired at least one fault.
    pub(crate) fn new(shared: &'s NetlistSetup<'s>, config: &AtpgConfig) -> (Self, CommitState) {
        let setup = Self::view(shared, config.static_prune);
        let faults = setup.faults().len();
        let mut detected = vec![false; faults];
        let tests = random_phase(config, &setup, &mut detected);
        let commit = CommitState {
            detected,
            result: CampaignResult {
                records: Vec::with_capacity(faults),
                tests,
            },
            traces: Vec::new(),
        };
        (setup, commit)
    }

    /// The view of `shared` with the prune applied or not.
    fn view(shared: &'s NetlistSetup<'s>, static_prune: bool) -> Self {
        CampaignSetup {
            shared,
            pruned: static_prune.then(|| shared.redundant()),
        }
    }

    pub(crate) fn netlist(&self) -> &'s Netlist {
        &self.shared.nl
    }

    pub(crate) fn faults(&self) -> &'s [Fault] {
        &self.shared.faults
    }

    fn fs(&self) -> &'s FaultSimulator {
        &self.shared.fs
    }

    /// Whether fault `i` is statically pruned in this campaign.
    fn is_pruned(&self, i: usize) -> bool {
        self.pruned.is_some_and(|p| p[i])
    }
}

/// Simulates up to `config.random_patterns` random vectors against the
/// live faults, marking the ones they retire in `detected`, and returns
/// the batches that retired at least one fault. Deterministic in
/// `config.seed`.
///
/// The live faults are those neither statically pruned nor already
/// retired, in list order: each batch is simulated against them alone,
/// and the phase stops generating batches once none is left. Detection is
/// monotone and the prune is sound (no vector detects a pruned fault), so
/// `detected` and the kept batches are those of simulating every batch
/// against the whole fault list.
///
/// Batches are [`WIDE_PATTERNS`] (256) patterns wide: one block-parallel
/// pass per batch retires four word-widths of patterns at the cost of a
/// single cone resimulation per live fault, with every per-net buffer
/// reused across batches.
fn random_phase(
    config: &AtpgConfig,
    setup: &CampaignSetup,
    detected: &mut [bool],
) -> Vec<Vec<bool>> {
    let mut tests = Vec::new();
    let (nl, faults) = (setup.netlist(), setup.faults());
    if config.random_patterns == 0 || nl.num_inputs() == 0 {
        return tests;
    }
    let mut live: Vec<usize> = (0..faults.len()).filter(|&i| !setup.is_pruned(i)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut bufs = SimBuffers::default();
    let mut remaining = config.random_patterns;
    while remaining > 0 && !live.is_empty() {
        let batch = remaining.min(WIDE_PATTERNS);
        remaining -= batch;
        let vectors: Vec<Vec<bool>> = (0..batch)
            .map(|_| (0..nl.num_inputs()).map(|_| rng.random_bool(0.5)).collect())
            .collect();
        let live_faults = live.iter().map(|&i| faults[i]);
        let masks = setup
            .fs()
            .detect_batch_in(nl, &vectors, live_faults, &mut bufs.blocks);
        let before = live.len();
        let mut masks = masks.iter();
        live.retain(|&i| {
            let hit = masks.next().is_some_and(|&m| m != PatternBlock::ZERO);
            detected[i] |= hit;
            !hit
        });
        if live.len() < before {
            tests.extend(vectors);
        }
    }
    tests
}

/// One solved fault on its way to the commit state.
pub(crate) struct Solved {
    /// Fault index in the setup's fault list.
    pub(crate) index: usize,
    pub(crate) record: FaultRecord,
    /// For a detected fault with dropping on: the live faults its test
    /// vector detects, as ascending indices into the setup's fault list
    /// (empty otherwise).
    hits: Vec<usize>,
    /// Proof bytes the solve logged (0 unless certified).
    pub(crate) proof_bytes: u64,
    /// The instance's trace line, when the context traces.
    trace: Option<InstanceTrace>,
}

impl Solved {
    /// The instance's trace line with the solve's probe `counters`; `seq`
    /// is the fault index, which is also the record's index in the
    /// campaign result.
    fn instance_trace(&self, nl: &Netlist, worker: u64, counters: Counters) -> InstanceTrace {
        let r = &self.record;
        InstanceTrace {
            seq: self.index as u64,
            circuit: nl.name().to_string(),
            fault: r.fault.describe(nl),
            vars: r.sat_vars as u64,
            clauses: r.sat_clauses as u64,
            sub_size: r.sub_size as u64,
            outcome: campaign::outcome_label(&r.outcome).to_string(),
            wall_ns: r.solve_time.as_nanos() as u64,
            worker,
            proof_bytes: self.proof_bytes,
            counters,
        }
    }
}

/// The solver a context answers its faults with.
enum Backend {
    /// One persistent incremental solver (`config.incremental`).
    Warm(Box<IncrementalAtpg>),
    /// One CDCL solver, reused for every fault's fresh instance.
    Fresh(Box<Cdcl>),
}

/// Everything a solve mutates: the solver, the optional proof stream and
/// the scratch buffers for drop-hit simulation.
pub(crate) struct SolverContext {
    backend: Backend,
    sink: Option<StreamSink>,
    /// The worker id stamped on each solve's trace; `None` when the
    /// campaign does not trace, and then solves are not probed.
    trace_worker: Option<u64>,
    bufs: SimBuffers,
    /// The live fault indices of the current drop, reused across solves.
    live: Vec<usize>,
}

impl SolverContext {
    /// A context over `nl`. With `config.incremental` it encodes a warm
    /// solver, else it builds one [`Cdcl`] for every fresh instance;
    /// with `certified` it logs every solve into its own proof stream;
    /// with `trace_worker` it observes every solve through a
    /// [`CountingProbe`] and each solve carries its [`InstanceTrace`],
    /// stamped with that worker id (an untraced solve stays unprobed).
    pub(crate) fn new(
        nl: &Netlist,
        config: &AtpgConfig,
        trace_worker: Option<u64>,
        certified: bool,
    ) -> Self {
        let mut sink = certified.then(StreamSink::new);
        let backend = if config.incremental {
            let warm = IncrementalAtpg::new(nl, config);
            if let Some(s) = sink.as_mut() {
                warm.record_base_axioms(s);
            }
            Backend::Warm(Box::new(warm))
        } else {
            Backend::Fresh(Box::new(Cdcl::new().with_limits(config.limits)))
        };
        SolverContext {
            backend,
            sink,
            trace_worker,
            bufs: SimBuffers::default(),
            live: Vec::new(),
        }
    }

    /// Builds and solves fault `index` of `setup`, and for a detected
    /// fault with dropping on, simulates its test against the `live`
    /// faults: the ascending indices whose outcome the test can still
    /// change. A fault left out must be one whose commit would change
    /// nothing; one included needlessly costs a cone simulation, never a
    /// verdict.
    pub(crate) fn solve(
        &mut self,
        config: &AtpgConfig,
        setup: &CampaignSetup,
        index: usize,
        live: impl IntoIterator<Item = usize>,
    ) -> Solved {
        let (nl, fs) = (setup.netlist(), setup.fs());
        let f = setup.faults()[index];
        let mut probe = CountingProbe::default();
        let counting = self.trace_worker.is_some().then_some(&mut probe);
        let cert = self.sink.as_mut().map(|s| (index, s));
        let cone = fs.cone(f.net);
        let record = match &mut self.backend {
            Backend::Warm(warm) => warm.solve_fault_with(f, config, cone, counting, cert),
            Backend::Fresh(solver) => {
                let order = fs.order();
                let m = miter::encode(nl, f, order, cone, config.activation_clause);
                campaign::solve_instance(nl, &m, solver, counting, cert)
            }
        };
        let proof_bytes = self
            .sink
            .as_mut()
            .map_or(0, StreamSink::take_instance_bytes);
        let hits = match &record.outcome {
            FaultOutcome::Detected(vector) if config.fault_dropping => {
                self.live.clear();
                self.live.extend(live);
                let masks = fs.detect_batch_in(
                    nl,
                    std::slice::from_ref(vector),
                    self.live.iter().map(|&j| setup.faults()[j]),
                    &mut self.bufs.words,
                );
                self.live
                    .iter()
                    .zip(masks)
                    .filter(|&(_, &mask)| mask != 0)
                    .map(|(&j, _)| j)
                    .collect()
            }
            _ => Vec::new(),
        };
        let mut solved = Solved {
            index,
            record,
            hits,
            proof_bytes,
            trace: None,
        };
        solved.trace = self
            .trace_worker
            .map(|worker| solved.instance_trace(nl, worker, probe.counters));
        solved
    }

    /// Replaces the solver's budget in place, keeping its state (the
    /// config copy is the caller's).
    fn set_limits(&mut self, limits: Limits) {
        match &mut self.backend {
            Backend::Warm(warm) => warm.set_limits(limits),
            Backend::Fresh(solver) => solver.set_limits(limits),
        }
    }

    /// The proof stream, present iff built certified.
    pub(crate) fn into_sink(self) -> Option<StreamSink> {
        self.sink
    }
}

/// The committed campaign: detected bits, the result (records and tests)
/// and the traces of committed solves, in commit order.
pub(crate) struct CommitState {
    detected: Vec<bool>,
    pub(crate) result: CampaignResult,
    pub(crate) traces: Vec<InstanceTrace>,
}

impl CommitState {
    /// Whether fault `i` still needs a solve: neither statically pruned
    /// nor detected by a committed test.
    pub(crate) fn needs_solve(&self, setup: &CampaignSetup, i: usize) -> bool {
        !setup.is_pruned(i) && !self.detected[i]
    }

    /// The record of fault `i` if it needs no solve.
    pub(crate) fn retired(&self, setup: &CampaignSetup, i: usize) -> Option<FaultRecord> {
        let outcome = if setup.is_pruned(i) {
            FaultOutcome::StaticallyRedundant
        } else if self.detected[i] {
            FaultOutcome::DetectedBySimulation
        } else {
            return None;
        };
        Some(FaultRecord::unsolved(setup.faults()[i], outcome))
    }

    /// Applies a solved verdict: a detected fault and every fault its
    /// test drops are marked detected (`publish` sees each newly marked
    /// index), the test is appended and the solve's trace, if any, is
    /// kept. Returns the record to emit.
    pub(crate) fn commit(&mut self, solved: Solved, mut publish: impl FnMut(usize)) -> FaultRecord {
        if let FaultOutcome::Detected(vector) = &solved.record.outcome {
            for j in std::iter::once(solved.index).chain(solved.hits) {
                if !self.detected[j] {
                    self.detected[j] = true;
                    publish(j);
                }
            }
            self.result.tests.push(vector.clone());
        }
        self.traces.extend(solved.trace);
        solved.record
    }
}

/// A campaign paused between faults.
///
/// Owns everything the loop needs — a shared [`NetlistSetup`], solver
/// context and commit state — so the handle is `'static`: it can be
/// queued, moved across worker threads and resumed later.
pub struct CampaignDriver {
    setup: Arc<NetlistSetup<'static>>,
    config: AtpgConfig,
    solver: SolverContext,
    commit: CommitState,
    next: usize,
    last_proof_bytes: u64,
    sim_detected: usize,
}

impl CampaignDriver {
    /// Builds a driver over `nl`, running the preflight, fault collapse
    /// and the random-pattern phase. With `tracing`, each solved instance
    /// also yields an [`InstanceTrace`]; with `certified`, every solve is
    /// logged into an internal [`StreamSink`] proof stream (retrieve it
    /// via [`CampaignDriver::into_parts`]).
    ///
    /// # Errors
    ///
    /// With `config.preflight` set, a netlist that fails the lint
    /// preflight returns [`DriverError::Preflight`] instead of panicking
    /// — the serving layer turns this into a typed error response.
    pub fn try_new(
        nl: Netlist,
        config: &AtpgConfig,
        tracing: bool,
        certified: bool,
    ) -> Result<Self, DriverError> {
        let setup = Arc::new(NetlistSetup::new(nl, config)?);
        Ok(Self::with_setup(setup, config, tracing, certified))
    }

    /// Builds a driver like [`CampaignDriver::try_new`] on a netlist
    /// setup that other campaigns may share: only the per-campaign part
    /// runs — the prune applied or not, the random-pattern phase, the
    /// solver context and the commit state. The first campaign with
    /// `static_prune` computes the setup's prune mask.
    ///
    /// # Panics
    ///
    /// Panics unless `setup` [serves](NetlistSetup::serves) `config`.
    pub fn with_setup(
        setup: Arc<NetlistSetup<'static>>,
        config: &AtpgConfig,
        tracing: bool,
        certified: bool,
    ) -> Self {
        assert!(
            setup.serves(config),
            "the netlist setup was built with other fault-list or preflight options"
        );
        let (view, commit) = CampaignSetup::new(&setup, config);
        let solver = SolverContext::new(view.netlist(), config, tracing.then_some(0), certified);
        let sim_detected = commit.detected.iter().filter(|&&d| d).count();
        CampaignDriver {
            setup,
            config: *config,
            solver,
            commit,
            next: 0,
            last_proof_bytes: 0,
            sim_detected,
        }
    }

    /// The circuit this campaign targets.
    pub fn netlist(&self) -> &Netlist {
        self.setup.netlist()
    }

    /// The (possibly tightened) configuration driving the loop.
    pub fn config(&self) -> &AtpgConfig {
        &self.config
    }

    /// Total faults targeted (collapsed list length).
    pub fn total_faults(&self) -> usize {
        self.setup.faults.len()
    }

    /// Index of the next fault to step; equals the number of records
    /// emitted so far.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Faults not yet stepped (or abandoned).
    pub fn pending(&self) -> &[Fault] {
        &self.setup.faults[self.next..]
    }

    /// Faults the random-pattern phase retired, counted when the driver
    /// was built; stepping does not change it. The serving layer reports
    /// it in its `start` line.
    pub fn sim_detected(&self) -> usize {
        self.sim_detected
    }

    /// Faults the static implication pre-pass proved redundant (0 unless
    /// `config.static_prune`); these are retired without a SAT instance.
    pub fn static_pruned(&self) -> usize {
        let setup = CampaignSetup::view(&self.setup, self.config.static_prune);
        setup.pruned.map_or(0, |p| p.iter().filter(|&&p| p).count())
    }

    /// Whether every fault has been stepped or abandoned.
    pub fn is_done(&self) -> bool {
        self.next >= self.setup.faults.len()
    }

    /// The result accumulated so far.
    pub fn result(&self) -> &CampaignResult {
        &self.commit.result
    }

    /// Instance traces accumulated so far (empty unless built tracing).
    pub fn traces(&self) -> &[InstanceTrace] {
        &self.commit.traces
    }

    /// Proof bytes logged by the most recent [`CampaignDriver::step`]
    /// (0 for sim-retired faults or non-certified drivers).
    pub fn last_proof_bytes(&self) -> u64 {
        self.last_proof_bytes
    }

    /// Tightens the per-solve wall budget to at most `budget` for every
    /// later step — both the config copy and the context's solver, warm
    /// or fresh, which keeps its state. Budgets only ever shrink
    /// ([`atpg_easy_sat::Limits::clamp_wall`]), so repeated calls with a
    /// shrinking deadline remainder are safe.
    pub fn clamp_wall(&mut self, budget: Duration) {
        self.config.limits = self.config.limits.clamp_wall(budget);
        self.solver.set_limits(self.config.limits);
    }

    /// Gives up on every pending fault: no more records are emitted and
    /// [`CampaignDriver::is_done`] becomes true. The records and tests
    /// already produced stay valid — the serving layer flushes `deadline`
    /// verdicts for [`CampaignDriver::pending`] before calling this.
    pub fn abandon(&mut self) {
        self.next = self.setup.faults.len();
    }

    /// Resolves the next fault: pruned and sim-retired faults get their
    /// record without a solve; everything else is solved, and its verdict
    /// committed, exactly as [`campaign::run`] does. Returns the record
    /// just emitted, or `None` when the campaign is complete.
    pub fn step(&mut self) -> Option<&FaultRecord> {
        let i = self.next;
        if i >= self.setup.faults.len() {
            return None;
        }
        self.next = i + 1;
        let setup = CampaignSetup::view(&self.setup, self.config.static_prune);
        let record = match self.commit.retired(&setup, i) {
            Some(record) => {
                self.last_proof_bytes = 0;
                record
            }
            None => {
                // Every fault at or behind the cursor already has its
                // record, so only later faults that still need a solve
                // can be dropped.
                let commit = &self.commit;
                let live = (i + 1..setup.faults().len()).filter(|&j| commit.needs_solve(&setup, j));
                let solved = self.solver.solve(&self.config, &setup, i, live);
                self.last_proof_bytes = solved.proof_bytes;
                self.commit.commit(solved, |_| {})
            }
        };
        self.commit.result.records.push(record);
        self.commit.result.records.last()
    }

    /// Consumes the driver, returning the accumulated result.
    pub fn into_result(self) -> CampaignResult {
        self.commit.result
    }

    /// Consumes the driver, returning the result, the traces (empty
    /// unless built tracing) and the proof sink (present iff built
    /// certified).
    pub fn into_parts(self) -> (CampaignResult, Vec<InstanceTrace>, Option<StreamSink>) {
        (
            self.commit.result,
            self.commit.traces,
            self.solver.into_sink(),
        )
    }
}

impl std::fmt::Debug for CampaignDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignDriver")
            .field("circuit", &self.netlist().name())
            .field("faults", &self.setup.faults.len())
            .field("position", &self.next)
            .field("tracing", &self.solver.trace_worker.is_some())
            .field("certified", &self.solver.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn stepping_to_completion_matches_run() {
        for incremental in [false, true] {
            let nl = c17();
            let config = AtpgConfig {
                random_patterns: 16,
                seed: 3,
                incremental,
                ..AtpgConfig::default()
            };
            let want = campaign::run(&nl, &config);
            let mut d = CampaignDriver::try_new(nl.clone(), &config, false, false).unwrap();
            assert_eq!(d.total_faults(), want.records.len());
            let mut steps = 0;
            while d.step().is_some() {
                steps += 1;
            }
            assert_eq!(steps, d.total_faults());
            assert!(d.is_done());
            let got = d.into_result();
            assert_eq!(got.canonical_report(), want.canonical_report());
        }
    }

    #[test]
    fn sim_detected_is_the_random_phase_count() {
        let config = AtpgConfig {
            random_patterns: 16,
            seed: 4,
            ..AtpgConfig::default()
        };
        let mut d = CampaignDriver::try_new(c17(), &config, false, false).unwrap();
        let before = d.sim_detected();
        assert!(
            before > 0 && before < d.total_faults(),
            "the random phase leaves work for the solver"
        );
        while d.step().is_some() {}
        assert_eq!(d.sim_detected(), before, "stepping does not change it");
    }

    /// Dropping is maximal although each vector is simulated only
    /// against the live faults: no fault reaches the solver after an
    /// earlier test already detects it.
    #[test]
    fn no_solved_fault_is_detected_by_an_earlier_test() {
        for circuit in atpg_easy_circuits::suite::mcnc_like().into_iter().take(8) {
            for incremental in [false, true] {
                let nl = &circuit.netlist;
                let config = AtpgConfig {
                    incremental,
                    ..AtpgConfig::default()
                };
                let result = campaign::run(nl, &config);
                let fs = FaultSimulator::with_cones(nl);
                let mut bufs = SimBuffers::default();
                let mut earlier: Vec<&Vec<bool>> = Vec::new();
                for r in &result.records {
                    let FaultOutcome::Detected(vector) = &r.outcome else {
                        continue;
                    };
                    for &test in &earlier {
                        let hit = fs.detect_batch_with(
                            nl,
                            std::slice::from_ref(test),
                            &[r.fault],
                            &mut bufs,
                        );
                        assert!(
                            !hit[0],
                            "{} (incremental={incremental}): {} was solved after a test detected it",
                            circuit.name,
                            r.fault.describe(nl)
                        );
                    }
                    earlier.push(vector);
                }
            }
        }
    }

    /// One netlist setup reused across campaigns gives each the driver
    /// `try_new` builds: neither the prune mask an earlier campaign
    /// computed nor its random phase shows in a later one.
    #[test]
    fn shared_setup_drives_like_a_fresh_one() {
        use atpg_easy_circuits::suite;
        for circuit in suite::mcnc_like().into_iter().chain(suite::iscas_like()) {
            let nl = &circuit.netlist;
            let shared = Arc::new(NetlistSetup::new(nl.clone(), &AtpgConfig::default()).unwrap());
            for random_patterns in [0, 64, 256] {
                for incremental in [false, true] {
                    for static_prune in [false, true] {
                        let config = AtpgConfig {
                            random_patterns,
                            incremental,
                            static_prune,
                            ..AtpgConfig::default()
                        };
                        let run = |mut d: CampaignDriver| {
                            let counts = (d.sim_detected(), d.static_pruned());
                            while d.step().is_some() {}
                            (d.into_result(), counts)
                        };
                        let fresh = CampaignDriver::try_new(nl.clone(), &config, false, false);
                        let (want, want_counts) = run(fresh.unwrap());
                        let reused =
                            CampaignDriver::with_setup(shared.clone(), &config, false, false);
                        let (got, got_counts) = run(reused);
                        let at = format!("{} under {config:?}", circuit.name);
                        assert_eq!(got.canonical_report(), want.canonical_report(), "{at}");
                        assert_eq!(got.tests, want.tests, "{at}");
                        assert_eq!(got_counts, want_counts, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "other fault-list or preflight options")]
    fn a_setup_refuses_other_fault_list_options() {
        let shared = Arc::new(NetlistSetup::new(c17(), &AtpgConfig::default()).unwrap());
        let config = AtpgConfig {
            dominance: true,
            ..AtpgConfig::default()
        };
        CampaignDriver::with_setup(shared, &config, false, false);
    }

    #[test]
    fn preflight_failure_is_a_typed_error() {
        let mut nl = Netlist::new("ghost");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost").unwrap();
        let y = nl
            .add_gate_named(atpg_easy_netlist::GateKind::And, vec![a, ghost], "y")
            .unwrap();
        nl.add_output(y);
        let err = CampaignDriver::try_new(nl, &AtpgConfig::default(), false, false).unwrap_err();
        let DriverError::Preflight(msg) = err;
        assert!(msg.contains("failed ATPG preflight"), "{msg}");
    }

    #[test]
    fn abandon_freezes_the_result() {
        let nl = c17();
        let mut d = CampaignDriver::try_new(nl, &AtpgConfig::default(), false, false).unwrap();
        d.step().unwrap();
        d.step().unwrap();
        let pending = d.pending().len();
        assert!(pending > 0);
        d.abandon();
        assert!(d.is_done());
        assert!(d.step().is_none());
        assert_eq!(d.into_result().records.len(), 2);
    }

    #[test]
    fn clamp_wall_only_tightens() {
        let nl = c17();
        let config = AtpgConfig {
            limits: atpg_easy_sat::Limits::wall(Duration::from_millis(5)),
            ..AtpgConfig::default()
        };
        let mut d = CampaignDriver::try_new(nl, &config, false, false).unwrap();
        d.clamp_wall(Duration::from_secs(10));
        assert_eq!(
            d.config().limits.max_wall,
            Some(Duration::from_millis(5)),
            "a looser deadline must not loosen the configured budget"
        );
        d.clamp_wall(Duration::from_millis(1));
        assert_eq!(d.config().limits.max_wall, Some(Duration::from_millis(1)));
    }
}
