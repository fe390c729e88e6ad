//! The campaign scheduler: a bounded, fair, cancellable M:N executor.
//!
//! This is the "hand-rolled epoll-free executor" of the serving layer.
//! Campaigns are not OS threads and not futures — they are
//! [`CampaignDriver`] state machines, parked in per-tenant run queues
//! and driven cooperatively by a fixed pool of worker threads, one
//! *quantum* (a small batch of faults) at a time. Everything the daemon
//! promises lives here:
//!
//! - **Bounded admission.** At most `capacity` campaigns are in flight;
//!   a request beyond that is refused with a well-formed `shed`
//!   response at admission time — explicit backpressure, not an
//!   unbounded queue.
//! - **Fair round-robin across tenants.** Each connection (tenant) has
//!   its own FIFO of runnable campaigns, and tenants take turns in a
//!   ring: after each quantum a campaign goes back to the *front* of
//!   its tenant's queue while the tenant rotates to the back of the
//!   ring (no tenant starves another). A tenant whose campaign is on a
//!   worker is *held* out of the ring, so at most one of its campaigns
//!   runs at a time — run-to-completion within a tenant, and the hold
//!   is released only after the campaign's `done` line is queued, which
//!   makes per-tenant completion order equal submission order even on a
//!   multi-worker pool. A tenant that wants intra-connection
//!   parallelism opens more connections.
//! - **Small-job batching.** A quantum is `quantum` faults, so cheap
//!   campaigns finish in one slice instead of ping-ponging through the
//!   ring, while an expensive campaign cannot monopolize a worker.
//! - **Deadlines.** A request deadline is fixed at admission; between
//!   quanta the remaining budget is clamped onto the driver's
//!   [`sat::Limits`](atpg_easy_sat::Limits) wall budget, and an expired
//!   deadline flushes every pending fault as a `deadline` verdict
//!   without solving anything further.
//! - **Cancellation.** A cancel request, a client disconnect (reader
//!   EOF) or a failed response write flips a per-campaign flag that is
//!   checked between faults; the campaign finalizes as `cancelled` and
//!   its worker moves on.
//! - **Panic shielding.** Building and stepping run under
//!   `catch_unwind`: a pathological request yields a typed `internal`
//!   error for that campaign, never a dead worker.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::time::Duration;

use atpg_easy_atpg::{CampaignDriver, DriverError, FaultOutcome};
use atpg_easy_netlist::parser::bench;
use atpg_easy_obs::{CampaignMeta, SharedSink, TraceSink};
use atpg_easy_syncx::atomic::{AtomicBool, AtomicU64, Ordering};
use atpg_easy_syncx::{Arc, Mutex};

use crate::clock::Clock;
use crate::proto::{
    CampaignOptions, DoneStatus, ErrorCode, Response, StatsSnapshot, DEFAULT_MAX_LINE_BYTES,
    DEFAULT_MAX_NETLIST_BYTES, MAX_PATTERNS,
};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads driving campaigns.
    pub workers: usize,
    /// In-flight campaign window; admissions beyond it are shed.
    pub capacity: usize,
    /// Faults per scheduling quantum.
    pub quantum: usize,
    /// Per-line byte cap on the wire.
    pub max_line_bytes: usize,
    /// Byte cap on the `netlist` field of a campaign request.
    pub max_netlist_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            capacity: 16,
            quantum: 8,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_netlist_bytes: DEFAULT_MAX_NETLIST_BYTES,
        }
    }
}

/// Worker-pool counters, updated lock-free and readable at any time —
/// the deadline/cancellation tests assert worker liveness through these.
#[derive(Debug, Default)]
pub struct PoolStats {
    // ORDERING: all counters are Relaxed — they are monotone event
    // counts (plus the `active` gauge) with no data published alongside
    // them; readers only need eventually-consistent totals, and the
    // tests that assert exact values synchronize externally (they wait
    // for the jobs themselves to finish first).
    admitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    deadline_expired: AtomicU64,
    solves: AtomicU64,
    steps: AtomicU64,
    active: AtomicU64,
}

impl PoolStats {
    /// A point-in-time copy, with `capacity` stamped in from config.
    pub fn snapshot(&self, capacity: u64) -> StatsSnapshot {
        // ORDERING: Relaxed — see the struct-level note.
        StatsSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            capacity,
        }
    }
}

/// A campaign's progress through the executor.
enum Work {
    /// Admitted but not yet built; the first quantum parses the netlist
    /// and constructs the driver (so even building happens on a worker,
    /// not on the connection's reader thread).
    Unbuilt {
        netlist: String,
        options: CampaignOptions,
    },
    /// Built and partially run.
    Running(Box<CampaignDriver>),
}

/// One in-flight campaign.
struct Job {
    /// Scheduler-assigned id; tags the request's rows in the shared
    /// telemetry sink.
    id: u64,
    /// Owning connection.
    tenant: u64,
    /// Client-chosen request id, echoed on every response.
    req_id: String,
    /// The connection's response channel (held open until finalize).
    reply: Sender<String>,
    // ORDERING: Relaxed — the flag is a latch checked between faults;
    // no data is transferred through it, and a slightly-late observation
    // only costs one extra fault of work.
    cancelled: Arc<AtomicBool>,
    /// Absolute deadline (clock ms), fixed at admission.
    deadline_at: Option<u64>,
    /// Admission timestamp (clock ms), for `wall_ms` in `done`.
    admitted_ms: u64,
    certify: bool,
    trace: bool,
    /// Faults flushed as `deadline` verdicts.
    deadlined: u64,
    /// SAT instances solved for this campaign.
    solves: u64,
    work: Work,
}

/// Runnable-set state under the scheduler mutex.
#[derive(Default)]
struct Ready {
    /// Round-robin ring of tenants. Invariant: a tenant is in the ring
    /// exactly once iff its `runnable` queue is non-empty *and* it is
    /// not in `held`.
    ring: VecDeque<u64>,
    /// Per-tenant FIFO of runnable campaigns.
    runnable: HashMap<u64, VecDeque<Job>>,
    /// Tenants whose head-of-line campaign is currently on a worker. A
    /// held tenant is not schedulable: at most one of its campaigns runs
    /// at a time, which is what makes per-tenant completion order equal
    /// submission order even on a multi-worker pool.
    held: HashSet<u64>,
    /// Admitted, not yet finalized (includes jobs held by workers).
    in_flight: usize,
    /// Cancellation flags of every in-flight campaign, keyed by
    /// (tenant, request id) — how cancel requests and disconnects reach
    /// campaigns currently held by a worker.
    index: HashMap<(u64, String), Arc<AtomicBool>>,
    shutdown: bool,
}

/// The shared executor. One per [`Server`](crate::Server); worker
/// threads loop in [`Scheduler::worker_loop`].
pub(crate) struct Scheduler {
    ready: Mutex<Ready>,
    work_ready: std::sync::Condvar,
    pub(crate) stats: PoolStats,
    pub(crate) config: ServeConfig,
    clock: Arc<dyn Clock>,
    /// Request-scoped telemetry tee, if the daemon was started with one.
    trace_sink: Option<SharedSink>,
    next_job: AtomicU64,
}

/// What a worker decided after one scheduling slice.
enum SliceEnd {
    Requeue,
    Finalize(DoneStatus),
}

impl Scheduler {
    pub(crate) fn new(
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        trace_sink: Option<SharedSink>,
    ) -> Self {
        Scheduler {
            ready: Mutex::new(Ready::default()),
            work_ready: std::sync::Condvar::new(),
            stats: PoolStats::default(),
            config,
            clock,
            trace_sink,
            next_job: AtomicU64::new(0),
        }
    }

    /// Admission control: into the in-flight window, or shed. `Some` is
    /// a refusal for the connection to write back; `None` means the
    /// campaign was admitted and its `accepted` line already streamed —
    /// queued ahead of the job becoming runnable, so it is on the wire
    /// before any worker can race a `start` past it.
    pub(crate) fn try_admit(
        &self,
        tenant: u64,
        req_id: String,
        netlist: String,
        options: CampaignOptions,
        reply: Sender<String>,
    ) -> Option<Response> {
        if netlist.len() > self.config.max_netlist_bytes {
            return Some(Response::Error {
                id: Some(req_id),
                code: ErrorCode::Oversize,
                msg: format!(
                    "netlist is {} bytes; this server accepts at most {}",
                    netlist.len(),
                    self.config.max_netlist_bytes
                ),
            });
        }
        if options.patterns > MAX_PATTERNS {
            return Some(Response::Error {
                id: Some(req_id),
                code: ErrorCode::BadField,
                msg: format!(
                    "patterns is {}; this server runs at most {MAX_PATTERNS}",
                    options.patterns
                ),
            });
        }
        let mut ready = self.lock_ready();
        if ready.shutdown {
            return Some(Response::Error {
                id: Some(req_id),
                code: ErrorCode::Internal,
                msg: "server is shutting down".into(),
            });
        }
        if ready.in_flight >= self.config.capacity {
            // ORDERING: Relaxed — see PoolStats.
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Some(Response::Shed {
                id: req_id,
                in_flight: ready.in_flight as u64,
                capacity: self.config.capacity as u64,
            });
        }
        let key = (tenant, req_id.clone());
        if ready.index.contains_key(&key) {
            return Some(Response::Error {
                id: Some(req_id),
                code: ErrorCode::DuplicateId,
                msg: "a campaign with this id is still in flight on this connection".into(),
            });
        }
        let cancelled = Arc::new(AtomicBool::new(false));
        ready.index.insert(key, Arc::clone(&cancelled));
        ready.in_flight += 1;
        // ORDERING: Relaxed — see PoolStats.
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        self.stats.active.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_ms();
        let job = Job {
            id: self.next_job.fetch_add(1, Ordering::Relaxed),
            tenant,
            req_id: req_id.clone(),
            reply,
            cancelled,
            deadline_at: options.deadline_ms.map(|d| now.saturating_add(d)),
            admitted_ms: now,
            certify: options.certify,
            trace: options.trace,
            deadlined: 0,
            solves: 0,
            work: Work::Unbuilt { netlist, options },
        };
        // The `accepted` line enters the reply queue under the ready
        // lock, strictly before the enqueue that makes the job runnable:
        // no worker can put a `start` on the wire ahead of it. A failed
        // send means the connection is already gone — admit anyway; the
        // reader's EOF path cancels the tenant and the first failed
        // flush finalizes the campaign as cancelled.
        send_line(&job.reply, &Response::Accepted { id: req_id });
        Self::enqueue(&mut ready, job, /* front = */ false);
        drop(ready);
        self.work_ready.notify_one();
        None
    }

    /// Flags one campaign for cancellation; `false` if no such id is in
    /// flight for this tenant.
    pub(crate) fn cancel(&self, tenant: u64, req_id: &str) -> bool {
        let ready = self.lock_ready();
        match ready.index.get(&(tenant, req_id.to_string())) {
            Some(flag) => {
                // ORDERING: Relaxed — see the Job.cancelled note.
                flag.store(true, Ordering::Relaxed);
                drop(ready);
                self.work_ready.notify_all();
                true
            }
            None => false,
        }
    }

    /// Flags every in-flight campaign of a tenant (client disconnect).
    pub(crate) fn cancel_tenant(&self, tenant: u64) {
        let ready = self.lock_ready();
        for ((t, _), flag) in ready.index.iter() {
            if *t == tenant {
                // ORDERING: Relaxed — see the Job.cancelled note.
                flag.store(true, Ordering::Relaxed);
            }
        }
        drop(ready);
        self.work_ready.notify_all();
    }

    /// Stops the pool: workers exit once the runnable set is drained of
    /// their current slice.
    pub(crate) fn shutdown(&self) {
        self.lock_ready().shutdown = true;
        self.work_ready.notify_all();
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(self.config.capacity as u64)
    }

    fn lock_ready(&self) -> std::sync::MutexGuard<'_, Ready> {
        self.ready.lock().expect("scheduler mutex")
    }

    fn enqueue(ready: &mut Ready, job: Job, front: bool) {
        let tenant = job.tenant;
        let queue = ready.runnable.entry(tenant).or_default();
        let was_empty = queue.is_empty();
        if front {
            queue.push_front(job);
        } else {
            queue.push_back(job);
        }
        // A held tenant stays out of the ring; it rejoins in `release`
        // when its in-flight slice returns.
        if was_empty && !ready.held.contains(&tenant) {
            ready.ring.push_back(tenant);
        }
    }

    /// Pops the next runnable campaign, honoring the tenant ring. The
    /// tenant is marked held — not schedulable again — until the worker
    /// calls [`Scheduler::release`] for it.
    fn pop_next(ready: &mut Ready) -> Option<Job> {
        let tenant = ready.ring.pop_front()?;
        let queue = ready
            .runnable
            .get_mut(&tenant)
            .expect("ring tenants have a queue");
        let job = queue.pop_front().expect("ring tenants have jobs");
        if queue.is_empty() {
            ready.runnable.remove(&tenant);
        }
        ready.held.insert(tenant);
        Some(job)
    }

    /// Releases a tenant's hold after a slice; if campaigns queued up
    /// behind the held one, the tenant rejoins the *back* of the ring
    /// (fair rotation across tenants).
    fn release(ready: &mut Ready, tenant: u64) {
        if ready.held.remove(&tenant) && ready.runnable.get(&tenant).is_some_and(|q| !q.is_empty())
        {
            // Held implies absent from the ring, so this push is the
            // tenant's only entry.
            ready.ring.push_back(tenant);
        }
    }

    /// The worker thread body: pull a campaign, drive one slice, repeat.
    pub(crate) fn worker_loop(&self) {
        loop {
            let job = {
                let mut ready = self.lock_ready();
                loop {
                    if ready.shutdown {
                        return;
                    }
                    if let Some(job) = Self::pop_next(&mut ready) {
                        break job;
                    }
                    ready = self.work_ready.wait(ready).expect("scheduler mutex");
                }
            };
            self.run_slice(job);
        }
    }

    /// Drives `job` for one scheduling slice: build it if fresh, then up
    /// to `quantum` faults, with cancellation and deadline checks
    /// between faults.
    fn run_slice(&self, mut job: Job) {
        // ORDERING: Relaxed — see the Job.cancelled note.
        if job.cancelled.load(Ordering::Relaxed) {
            return self.finalize(job, DoneStatus::Cancelled);
        }
        if let Work::Unbuilt { .. } = job.work {
            // An already-expired deadline never builds, never solves: the
            // request finalizes with `done status=deadline` directly.
            if self.deadline_expired(&job) {
                return self.finalize(job, DoneStatus::Deadline);
            }
            if let Some(end) = self.build(&mut job) {
                return self.finalize(job, end);
            }
        }
        let end = panic::catch_unwind(AssertUnwindSafe(|| self.run_quantum(&mut job)));
        match end {
            Ok(SliceEnd::Requeue) => {
                let mut ready = self.lock_ready();
                let tenant = job.tenant;
                // Enqueue before releasing the hold: the front push must
                // not race another worker into this tenant's queue.
                Self::enqueue(&mut ready, job, /* front = */ true);
                Self::release(&mut ready, tenant);
                drop(ready);
                self.work_ready.notify_one();
            }
            Ok(SliceEnd::Finalize(status)) => self.finalize(job, status),
            Err(_) => {
                send_line(
                    &job.reply,
                    &Response::Error {
                        id: Some(job.req_id.clone()),
                        code: ErrorCode::Internal,
                        msg: "campaign engine panicked; the worker survives".into(),
                    },
                );
                self.finalize(job, DoneStatus::Failed);
            }
        }
    }

    fn deadline_expired(&self, job: &Job) -> bool {
        job.deadline_at.is_some_and(|at| self.clock.now_ms() >= at)
    }

    /// Parses the netlist and constructs the driver (under a panic
    /// shield). `Some(status)` short-circuits to finalization.
    fn build(&self, job: &mut Job) -> Option<DoneStatus> {
        let Work::Unbuilt { netlist, options } = &job.work else {
            return None;
        };
        let (netlist, options) = (netlist.clone(), options.clone());
        let req_id = job.req_id.clone();
        let built =
            panic::catch_unwind(AssertUnwindSafe(|| -> Result<CampaignDriver, Response> {
                let nl = bench::parse(&netlist).map_err(|e| Response::Error {
                    id: Some(req_id.clone()),
                    code: ErrorCode::BadField,
                    msg: format!("netlist does not parse: {e}"),
                })?;
                let config = options.to_config();
                CampaignDriver::try_new(nl, &config, options.trace, options.certify).map_err(
                    |DriverError::Preflight(msg)| Response::Error {
                        id: Some(req_id.clone()),
                        code: ErrorCode::Preflight,
                        msg,
                    },
                )
            }));
        match built {
            Ok(Ok(driver)) => {
                let start = Response::Start {
                    id: job.req_id.clone(),
                    faults: driver.total_faults() as u64,
                    sim_detected: driver.sim_detected() as u64,
                    random_tests: driver.result().tests.len() as u64,
                };
                job.work = Work::Running(Box::new(driver));
                if !send_line(&job.reply, &start) {
                    return Some(DoneStatus::Cancelled);
                }
                None
            }
            Ok(Err(error)) => {
                send_line(&job.reply, &error);
                Some(DoneStatus::Failed)
            }
            Err(_) => {
                send_line(
                    &job.reply,
                    &Response::Error {
                        id: Some(job.req_id.clone()),
                        code: ErrorCode::Internal,
                        msg: "netlist build panicked; the worker survives".into(),
                    },
                );
                Some(DoneStatus::Failed)
            }
        }
    }

    /// Runs up to `quantum` faults of a built campaign. Verdict and cert
    /// lines accumulate into one channel message per quantum — batching
    /// is what keeps the writer thread from being woken per fault. A
    /// dead connection is therefore noticed at flush granularity, one
    /// quantum late at worst.
    fn run_quantum(&self, job: &mut Job) -> SliceEnd {
        let mut batch = String::new();
        for _ in 0..self.config.quantum.max(1) {
            // ORDERING: Relaxed — see the Job.cancelled note.
            if job.cancelled.load(Ordering::Relaxed) {
                flush_batch(&job.reply, &mut batch);
                return SliceEnd::Finalize(DoneStatus::Cancelled);
            }
            if let Some(at) = job.deadline_at {
                let now = self.clock.now_ms();
                if now >= at {
                    flush_batch(&job.reply, &mut batch);
                    self.flush_deadline(job);
                    return SliceEnd::Finalize(DoneStatus::Deadline);
                }
                let Work::Running(driver) = &mut job.work else {
                    unreachable!("run_quantum only sees built jobs");
                };
                driver.clamp_wall(Duration::from_millis(at - now));
            }
            let Work::Running(driver) = &mut job.work else {
                unreachable!("run_quantum only sees built jobs");
            };
            // Copy the wire-relevant record fields out so the borrow of
            // the driver ends before lines are rendered and sent.
            let (solved, net, stuck, verdict, vector) = {
                let Some(record) = driver.step() else {
                    return SliceEnd::Finalize(DoneStatus::Ok);
                };
                let (verdict, vector) = match &record.outcome {
                    FaultOutcome::Detected(v) => (
                        "detected",
                        Some(v.iter().map(|&b| if b { '1' } else { '0' }).collect()),
                    ),
                    FaultOutcome::DetectedBySimulation => ("detected", None),
                    FaultOutcome::Untestable => ("untestable", None),
                    FaultOutcome::Aborted => ("aborted", None),
                    FaultOutcome::StaticallyRedundant => ("redundant", None),
                };
                (
                    record.sat_vars > 0,
                    record.fault.net.index() as u64,
                    u64::from(record.fault.stuck),
                    verdict,
                    vector,
                )
            };
            // ORDERING: Relaxed — see PoolStats.
            self.stats.steps.fetch_add(1, Ordering::Relaxed);
            if solved {
                job.solves += 1;
                self.stats.solves.fetch_add(1, Ordering::Relaxed);
            }
            let seq = (driver.position() - 1) as u64;
            let proof_bytes = driver.last_proof_bytes();
            let done = driver.is_done();
            let line = Response::Verdict {
                id: job.req_id.clone(),
                seq,
                net,
                stuck,
                verdict: verdict.into(),
                vector,
            };
            push_line(&mut batch, &line);
            if job.certify && solved {
                let cert = Response::Cert {
                    id: job.req_id.clone(),
                    seq,
                    proof_bytes,
                };
                push_line(&mut batch, &cert);
            }
            if done {
                return if flush_batch(&job.reply, &mut batch) {
                    SliceEnd::Finalize(DoneStatus::Ok)
                } else {
                    SliceEnd::Finalize(DoneStatus::Cancelled)
                };
            }
        }
        if !flush_batch(&job.reply, &mut batch) {
            return SliceEnd::Finalize(DoneStatus::Cancelled);
        }
        SliceEnd::Requeue
    }

    /// Flushes every pending fault as a `deadline` verdict (no solving)
    /// and abandons the driver.
    fn flush_deadline(&self, job: &mut Job) {
        let Work::Running(driver) = &mut job.work else {
            return;
        };
        let start = driver.position() as u64;
        let pending = driver.pending().to_vec();
        driver.abandon();
        let mut batch = String::new();
        for (k, f) in pending.iter().enumerate() {
            job.deadlined += 1;
            let line = Response::Verdict {
                id: job.req_id.clone(),
                seq: start + k as u64,
                net: f.net.index() as u64,
                stuck: u64::from(f.stuck),
                verdict: "deadline".into(),
                vector: None,
            };
            push_line(&mut batch, &line);
            if batch.len() >= 64 * 1024 && !flush_batch(&job.reply, &mut batch) {
                return;
            }
        }
        flush_batch(&job.reply, &mut batch);
    }

    /// Terminal bookkeeping: audit + telemetry for built campaigns, the
    /// `done` line, counter updates, and release of the in-flight slot.
    fn finalize(&self, job: Job, status: DoneStatus) {
        // ORDERING: Relaxed — see PoolStats.
        match status {
            DoneStatus::Ok => self.stats.completed.fetch_add(1, Ordering::Relaxed),
            DoneStatus::Cancelled => self.stats.cancelled.fetch_add(1, Ordering::Relaxed),
            DoneStatus::Failed => self.stats.failed.fetch_add(1, Ordering::Relaxed),
            DoneStatus::Deadline => self.stats.deadline_expired.fetch_add(1, Ordering::Relaxed),
        };
        let (mut detected, mut untestable, mut aborted) = (0u64, 0u64, 0u64);
        if let Work::Running(driver) = &job.work {
            let r = driver.result();
            detected = r.detected() as u64;
            untestable = r.untestable() as u64;
            aborted = r.aborted() as u64;
        }
        // Audit + per-request telemetry want the driver by value.
        if let Work::Running(driver) = job.work {
            let circuit = driver.netlist().name().to_string();
            let total = driver.total_faults() as u64;
            let (result, traces, sink) = driver.into_parts();
            if job.certify {
                if let Some(sink) = sink {
                    let audit = atpg_easy_proof::audit_stream(&sink.into_events());
                    send_line(
                        &job.reply,
                        &Response::Audit {
                            id: job.req_id.clone(),
                            certified: audit.certified() as u64,
                            failed: audit.failed() as u64,
                            uncertified: audit.uncertified() as u64,
                            ok: audit.ok(),
                        },
                    );
                }
            }
            if let Some(shared) = &self.trace_sink {
                let mut shared = shared.clone();
                let sat_detected = result
                    .records
                    .iter()
                    .filter(|r| matches!(r.outcome, FaultOutcome::Detected(_)))
                    .count() as u64;
                let sim_detected = detected - sat_detected;
                // Request-scoped meta: the circuit field carries the
                // request id so rows from concurrent campaigns stay
                // attributable in the shared JSONL artifact.
                let meta = CampaignMeta {
                    circuit: format!("{circuit}@{}", job.req_id),
                    threads: 1,
                    commit_window: 1,
                    queue_depth: total,
                    committed_sat: sat_detected,
                    committed_unsat: untestable + aborted,
                    dropped: sim_detected,
                    wasted_solves: 0,
                    static_pruned: result.statically_pruned() as u64,
                    cutwidth_estimate: None,
                };
                let _ = shared.campaign(&meta);
                if job.trace {
                    for t in &traces {
                        let mut t = t.clone();
                        // The worker field tags the scheduler job id —
                        // the per-request key of the artifact.
                        t.worker = job.id;
                        let _ = shared.instance(&t);
                    }
                }
                let _ = shared.finish();
            }
        }
        let done = Response::Done {
            id: job.req_id.clone(),
            status,
            detected,
            untestable,
            aborted,
            deadlined: job.deadlined,
            solves: job.solves,
            wall_ms: self.clock.now_ms().saturating_sub(job.admitted_ms),
        };
        // Free the slot, then queue `done`, then release the tenant's
        // hold, all under the ready lock. Freeing first means a client
        // that reacts to `done` by submitting again (or by reading the
        // stats gauge) observes the freed capacity. Queueing `done` before
        // the release means no worker can pop, run and finish the
        // tenant's next campaign and put its `done` on the wire first, so
        // per-tenant completion order stays submission order. The channel
        // send never blocks.
        let mut ready = self.lock_ready();
        ready.index.remove(&(job.tenant, job.req_id.clone()));
        ready.in_flight -= 1;
        // ORDERING: Relaxed — see PoolStats.
        self.stats.active.fetch_sub(1, Ordering::Relaxed);
        send_line(&job.reply, &done);
        Self::release(&mut ready, job.tenant);
        drop(ready);
        // A campaign the tenant pipelined behind this one may have just
        // become schedulable.
        self.work_ready.notify_one();
    }
}

/// Writes one response line into a connection's outbound channel;
/// `false` means the connection is gone (writer thread exited). Channel
/// messages are newline-terminated — the writer forwards them verbatim,
/// which is what lets a worker batch a whole quantum into one message.
pub(crate) fn send_line(reply: &Sender<String>, response: &Response) -> bool {
    let mut line = response.render();
    line.push('\n');
    reply.send(line).is_ok()
}

/// Appends one response line to a pending batch.
fn push_line(batch: &mut String, response: &Response) {
    batch.push_str(&response.render());
    batch.push('\n');
}

/// Sends a pending batch (one channel message, many lines); `false`
/// means the connection is gone. An empty batch is a no-op success.
fn flush_batch(reply: &Sender<String>, batch: &mut String) -> bool {
    if batch.is_empty() {
        return true;
    }
    reply.send(std::mem::take(batch)).is_ok()
}
