//! The `serve_mix` workload: many small campaigns through an in-process
//! `serve::Server` over pipes, which share the TCP path's dispatch code.
//!
//! One worker serves two tenant connections, each driven by its own
//! client thread in a closed loop that keeps two campaigns in flight: a
//! tenant submits again only when one of its campaigns is `done`, as a
//! CI job waiting for results would. The two tenants queue behind each
//! other on the one worker. Netlists come with skewed popularity, so
//! some repeat; options vary per request.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use atpg_easy_atpg::SolverChoice;
use atpg_easy_atpg::{CampaignDriver, Fault};
use atpg_easy_netlist::parser::bench;
use atpg_easy_serve::proto::{DEFAULT_MAX_LINE_BYTES, DEFAULT_MAX_NETLIST_BYTES};
use atpg_easy_serve::{
    AuditLine, CampaignOptions, DoneLine, DoneStatus, PipeClient, Request, Response, ServeConfig,
    Server,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::checks::{self, Class, Reference, Verdicts};
use crate::gen::{self, Circuit};
use crate::layers::{self, Parallel, Serving};
use crate::replay::{self, Counts, Work};
use crate::stats::{self, frac, median, ms, us, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Args;

const TENANTS: usize = 2;
const IN_FLIGHT: usize = 2;
const WORKERS: usize = 1;
const SETUPS: usize = 9;
/// Campaigns per second of `--seconds`, never fewer than 1000 a run.
const CAMPAIGNS_PER_SECOND: u64 = 150;

/// Every server option, set explicitly; the window admits exactly the
/// campaigns the tenants keep in flight, so nothing is shed.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        capacity: TENANTS * IN_FLIGHT,
        quantum: 8,
        max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        max_netlist_bytes: DEFAULT_MAX_NETLIST_BYTES,
    }
}

/// One planned request.
#[derive(Debug, Clone)]
struct Planned {
    circuit: usize,
    options: CampaignOptions,
}

/// Popularity weights inside each tier of three circuits of similar
/// size, smallest first: some netlists repeat four times as often as
/// others, and every tier carries the same share of the traffic.
const TIER_WEIGHTS: [usize; 3] = [4, 2, 1];

/// The request plan: `n` campaigns in exact proportions — netlists by
/// popularity, and each option at its stated rate (`patterns` one third
/// each of 0, 64 and 256; `incremental` on half; `static_prune` on a
/// third; `certify` on a tenth) — paired and ordered by the seed. Exact
/// proportions keep the work of a pass the same under every seed; the
/// seed decides which netlist gets which options, and when.
fn plan(seed: u64, pool: &[Circuit], n: usize) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7276_655f_6d69);
    let mut by_size: Vec<usize> = (0..pool.len()).collect();
    by_size.sort_by_key(|&i| (pool[i].text.len(), i));
    let mut weights = vec![0usize; pool.len()];
    for tier in by_size.chunks(TIER_WEIGHTS.len()) {
        for (&c, &w) in tier.iter().zip(&TIER_WEIGHTS) {
            weights[c] = w;
        }
    }
    let total: usize = weights.iter().sum();
    // Largest-remainder apportionment of `n` requests over the weights.
    let mut counts: Vec<usize> = weights.iter().map(|w| n * w / total).collect();
    let mut by_remainder: Vec<usize> = (0..pool.len()).collect();
    by_remainder.sort_by_key(|&c| (std::cmp::Reverse(n * weights[c] % total), c));
    let short = n - counts.iter().sum::<usize>();
    for &c in &by_remainder[..short] {
        counts[c] += 1;
    }
    let mut circuits: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(c, &k)| std::iter::repeat_n(c, k))
        .collect();
    circuits.shuffle(&mut rng);
    // Options in a full factorial over 3 × 2 × 3 × 10 = 180 cells.
    let mut cells: Vec<usize> = (0..n).map(|i| i % 180).collect();
    cells.shuffle(&mut rng);
    circuits
        .into_iter()
        .zip(cells)
        .map(|(circuit, cell)| Planned {
            circuit,
            options: CampaignOptions {
                patterns: [0, 64, 256][cell % 3],
                seed: rng.random_range(1..=1000),
                solver: SolverChoice::Cdcl,
                incremental: cell / 3 % 2 == 0,
                static_prune: cell / 6 % 3 == 0,
                certify: cell / 18 == 0,
                trace: false,
                dropping: true,
                collapse: true,
                dominance: false,
                deadline_ms: None,
                max_nodes: None,
                max_conflicts: None,
            },
        })
        .collect()
}

/// One campaign as its client saw it. Of what it streamed back, only
/// what the checks and metrics read is kept, packed, so that
/// `peak_rss_mb` follows the server rather than the clients.
struct Served {
    planned: usize,
    sent: Instant,
    accepted: Option<Instant>,
    start: Option<Instant>,
    first_verdict: Option<Instant>,
    last_verdict: Option<Instant>,
    done: Option<Instant>,
    /// Gaps between consecutive `verdict` lines (traced pass only).
    gaps_us: Vec<f64>,
    /// Shed, or rejected before admission.
    refused: bool,
    bytes: u64,
    /// Faults and kept random tests, from the `start` line.
    faults: u64,
    random_tests: u64,
    verdicts: Verdicts,
    cert_bytes: u64,
    audit: Option<AuditLine>,
    errors: usize,
    done_line: DoneLine,
}

/// Client-side protocol timings of the traced pass.
#[derive(Debug, Default)]
struct ProtoTimes {
    render: Duration,
    renders: u64,
    parse: Duration,
    parses: u64,
}

fn response_id(r: &Response) -> Option<&str> {
    match r {
        Response::Accepted { id }
        | Response::Shed { id, .. }
        | Response::Start { id, .. }
        | Response::Verdict { id, .. }
        | Response::Cert { id, .. }
        | Response::Audit { id, .. }
        | Response::Done { id, .. } => Some(id),
        Response::Error { id, .. } => id.as_deref(),
        Response::Pong | Response::Stats(_) => None,
    }
}

/// Renders and sends planned request `i` as campaign `c{i}`.
fn submit(
    client: &mut PipeClient,
    pool: &[Circuit],
    plan: &[Planned],
    i: usize,
    traced: bool,
    proto: &mut ProtoTimes,
) -> Served {
    let request = Request::Campaign {
        id: format!("c{i}"),
        netlist: pool[plan[i].circuit].text.clone(),
        options: plan[i].options.clone(),
    };
    let t = Instant::now();
    let line = request.render();
    if traced {
        proto.render += t.elapsed();
        proto.renders += 1;
    }
    let sent = Instant::now();
    client
        .send_raw(&line)
        .expect("the server reads every request");
    Served {
        planned: i,
        sent,
        accepted: None,
        start: None,
        first_verdict: None,
        last_verdict: None,
        done: None,
        gaps_us: Vec::new(),
        refused: false,
        bytes: line.len() as u64 + 1,
        faults: 0,
        random_tests: 0,
        verdicts: Verdicts::default(),
        cert_bytes: 0,
        audit: None,
        errors: 0,
        done_line: DoneLine {
            status: DoneStatus::Failed,
            detected: 0,
            untestable: 0,
            aborted: 0,
            deadlined: 0,
            solves: 0,
            wall_ms: 0,
        },
    }
}

/// Drives one tenant connection through its share of the plan in a
/// closed loop. Returns the campaigns it ran (in completion order), the
/// protocol timings and verdict gaps (when `traced`) and a count of
/// stray lines.
fn drive(
    client: &mut PipeClient,
    pool: &[Circuit],
    plan: &[Planned],
    mine: &[usize],
    traced: bool,
) -> (Vec<Served>, ProtoTimes, u64) {
    let mut proto = ProtoTimes::default();
    let mut live: HashMap<String, Served> = HashMap::new();
    let mut finished = Vec::with_capacity(mine.len());
    let mut queue = mine.iter().copied();
    let mut stray = 0u64;
    for _ in 0..IN_FLIGHT {
        if let Some(i) = queue.next() {
            let s = submit(client, pool, plan, i, traced, &mut proto);
            live.insert(format!("c{i}"), s);
        }
    }
    while !live.is_empty() {
        let line = client
            .recv_raw()
            .expect("the server answers every campaign");
        let now = Instant::now();
        let parsed = Response::parse(&line);
        if traced {
            proto.parse += now.elapsed();
            proto.parses += 1;
        }
        let Ok(response) = parsed else {
            stray += 1;
            continue;
        };
        let Some(s) = response_id(&response).and_then(|id| live.get_mut(id)) else {
            stray += 1;
            continue;
        };
        s.bytes += line.len() as u64 + 1;
        let mut over = false;
        match response {
            Response::Accepted { .. } => s.accepted = Some(now),
            Response::Shed { .. } => {
                s.refused = true;
                over = true;
            }
            Response::Start {
                faults,
                random_tests,
                ..
            } => {
                s.start = Some(now);
                s.faults = faults;
                s.random_tests = random_tests;
            }
            Response::Verdict {
                net,
                stuck,
                verdict,
                vector,
                ..
            } => {
                s.first_verdict.get_or_insert(now);
                if let (true, Some(last)) = (traced, s.last_verdict) {
                    s.gaps_us.push(us(now - last));
                }
                s.last_verdict = Some(now);
                s.verdicts.push(
                    net,
                    stuck == 1,
                    Class::of_verdict(&verdict),
                    vector.as_ref().map(|bits| bits.bytes().map(|b| b == b'1')),
                );
            }
            Response::Cert { proof_bytes, .. } => s.cert_bytes += proof_bytes,
            Response::Audit {
                certified,
                failed,
                uncertified,
                ok,
                ..
            } => {
                s.audit = Some(AuditLine {
                    certified,
                    failed,
                    uncertified,
                    ok,
                })
            }
            Response::Error { .. } => {
                s.errors += 1;
                if s.accepted.is_none() {
                    s.refused = true;
                    over = true;
                }
            }
            Response::Done {
                status,
                detected,
                untestable,
                aborted,
                deadlined,
                solves,
                wall_ms,
                ..
            } => {
                s.done = Some(now);
                s.done_line = DoneLine {
                    status,
                    detected,
                    untestable,
                    aborted,
                    deadlined,
                    solves,
                    wall_ms,
                };
                over = true;
            }
            Response::Pong | Response::Stats(_) => stray += 1,
        }
        if over {
            let id = format!("c{}", s.planned);
            finished.push(live.remove(&id).expect("live campaign"));
            if let Some(i) = queue.next() {
                let s = submit(client, pool, plan, i, traced, &mut proto);
                live.insert(format!("c{i}"), s);
            }
        }
    }
    (finished, proto, stray)
}

/// A started server with its tenant connections.
struct Daemon {
    server: Server,
    clients: Vec<PipeClient>,
}

fn start_daemon() -> Daemon {
    let server = Server::start(serve_config());
    let clients = (0..TENANTS).map(|_| PipeClient::connect(&server)).collect();
    Daemon { server, clients }
}

/// One pass of the whole plan through `daemon`.
struct Pass {
    wall: Duration,
    served: Vec<Served>,
    proto: ProtoTimes,
    stray: u64,
    stats: atpg_easy_serve::StatsSnapshot,
}

fn pass(daemon: &mut Daemon, pool: &[Circuit], plan: &[Planned], traced: bool) -> Pass {
    let shares: Vec<Vec<usize>> = (0..TENANTS)
        .map(|t| (t..plan.len()).step_by(TENANTS).collect())
        .collect();
    let started = Instant::now();
    let results: Vec<(Vec<Served>, ProtoTimes, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(&shares)
            .map(|(client, mine)| scope.spawn(move || drive(client, pool, plan, mine, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let wall = started.elapsed();
    let stats = daemon.clients[0]
        .stats()
        .expect("the server answers a stats request");
    let mut out = Pass {
        wall,
        served: Vec::with_capacity(plan.len()),
        proto: ProtoTimes::default(),
        stray: 0,
        stats,
    };
    for (served, proto, stray) in results {
        out.served.extend(served);
        out.proto.render += proto.render;
        out.proto.renders += proto.renders;
        out.proto.parse += proto.parse;
        out.proto.parses += proto.parses;
        out.stray += stray;
    }
    out.served.sort_by_key(|s| s.planned);
    out
}

/// A SAT vector for a fault of one pool circuit: `(circuit, fault,
/// vector)`. Popular netlists stream the same vectors again and again,
/// so each is verified once.
type VectorKey = (usize, Fault, Vec<bool>);

/// Checks one served campaign; `true` when all hold. `verified` caches
/// the verdict of every vector already simulated.
fn check(
    s: &Served,
    plan: &[Planned],
    refs: &[Reference],
    verified: &mut HashMap<VectorKey, bool>,
) -> bool {
    let p = &plan[s.planned];
    let reference = &refs[p.circuit];
    let v = &s.verdicts;
    let ok = !s.refused
        && s.errors == 0
        && s.done_line.status == DoneStatus::Ok
        && v.len() as u64 == s.faults
        && v.all_resolved()
        && (!p.options.certify || s.audit.is_some_and(|a| a.ok))
        && reference.exhaustive_ok
        && reference.verdicts.same_report(v);
    let nl = &reference.netlist;
    ok && !v.malformed()
        && v.sat_vectors().all(|(fault, vector)| {
            *verified
                .entry((p.circuit, fault, vector))
                .or_insert_with_key(|(_, fault, vector)| checks::detects(nl, *fault, vector))
        })
}

fn campaign_ms(s: &Served) -> Option<f64> {
    s.done.map(|d| ms(d - s.sent))
}

/// Runs the `serve_mix` workload.
pub fn run(args: &Args) -> Outcome {
    let n = (CAMPAIGNS_PER_SECOND * args.seconds).max(1000) as usize;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let pool = gen::serve_pool();
        let plan = plan(args.seed, &pool, n);
        let daemon = start_daemon();
        setups.push(t.elapsed().as_secs_f64());
        if let Some((_, _, old)) = inputs.replace((pool, plan, daemon)) {
            old.server.shutdown();
        }
    }
    let setup_s = median(&setups);
    let (pool, plan, mut daemon) = inputs.expect("at least one set-up");

    let timed = pass(&mut daemon, &pool, &plan, false);
    let peak_rss_mb = stats::peak_rss_mb();
    daemon.server.shutdown();

    let refs: Vec<Reference> = pool.iter().map(|c| Reference::compute(&c.text)).collect();
    let mut failed = failures(&timed, &plan, &refs);

    if args.trace {
        return traced(&timed, &pool, &plan, &refs, &mut failed, args);
    }

    let campaign: Vec<f64> = timed.served.iter().filter_map(campaign_ms).collect();
    let first: Vec<f64> = timed
        .served
        .iter()
        .filter_map(|s| s.first_verdict.map(|f| ms(f - s.sent)))
        .collect();
    let served = || timed.served.iter();
    let faults: u64 = served().map(|s| s.faults).sum();
    let detected: u64 = served().map(|s| s.done_line.detected).sum();
    let untestable: u64 = served().map(|s| s.done_line.untestable).sum();
    let vectors: u64 = served()
        .map(|s| s.random_tests + s.verdicts.sat_count() as u64)
        .sum();

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", timed.wall.as_secs_f64(), "s");
    m.put(
        "faults_per_s",
        faults as f64 / timed.wall.as_secs_f64(),
        "1/s",
    );
    m.put_pct("campaign_p50_ms", &campaign, 0.50, "ms");
    m.put_pct("campaign_p90_ms", &campaign, 0.90, "ms");
    m.put_pct("campaign_p99_ms", &campaign, 0.99, "ms");
    m.put_pct("first_verdict_p50_ms", &first, 0.50, "ms");
    m.put_pct("first_verdict_p99_ms", &first, 0.99, "ms");
    m.put(
        "coverage",
        frac(detected as f64, (faults - untestable) as f64),
        "frac",
    );
    m.put("test_vectors", vectors as f64, "count");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    Outcome {
        attempted: plan.len() as u64,
        failed: count(&failed),
        metrics: m,
    }
}

/// Per planned request, whether it failed in `pass`: never completed,
/// failed a check, or shared its connection with a line no campaign
/// claimed.
fn failures(pass: &Pass, plan: &[Planned], refs: &[Reference]) -> Vec<bool> {
    let mut failed = vec![pass.stray > 0; plan.len()];
    let mut seen = vec![false; plan.len()];
    let mut verified = HashMap::new();
    for s in &pass.served {
        seen[s.planned] = true;
        failed[s.planned] |= !check(s, plan, refs, &mut verified);
    }
    for (f, seen) in failed.iter_mut().zip(seen) {
        *f |= !seen;
    }
    failed
}

fn count(flags: &[bool]) -> u64 {
    flags.iter().filter(|&&f| f).count() as u64
}

/// The traced run: a second pass on a fresh daemon with the protocol
/// calls timed, then every request replayed offline twice — through
/// `bench::parse` + `CampaignDriver::try_new` + `step` for the service
/// time serving adds to, and through the layer replay for the split of
/// that service time.
fn traced(
    untraced: &Pass,
    pool: &[Circuit],
    plan: &[Planned],
    refs: &[Reference],
    failed: &mut [bool],
    args: &Args,
) -> Outcome {
    let mut daemon = start_daemon();
    let traced = pass(&mut daemon, pool, plan, true);
    daemon.server.shutdown();
    for (f, t) in failed.iter_mut().zip(failures(&traced, plan, refs)) {
        *f |= t;
    }

    let mut serving = Serving::default();
    let mut offline = Vec::with_capacity(plan.len());
    for p in plan {
        let text = &pool[p.circuit].text;
        let config = p.options.to_config();
        let t = Instant::now();
        let nl = bench::parse(text).expect("workload text parses");
        let mut driver = CampaignDriver::try_new(nl, &config, p.options.trace, p.options.certify)
            .expect("workload circuits pass preflight");
        serving.build += t.elapsed();
        while driver.step().is_some() {}
        let (result, _, sink) = driver.into_parts();
        if let Some(sink) = sink {
            std::hint::black_box(atpg_easy_proof::audit_stream(&sink.into_events()));
        }
        serving.service += t.elapsed();
        offline.push(Work::of(&result));
    }
    serving.tax_frac =
        1.0 - serving.service.as_secs_f64() / (untraced.wall.as_secs_f64() * WORKERS as f64);

    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    for (i, p) in plan.iter().enumerate() {
        let replayed = replay::replay(
            &pool[p.circuit].text,
            &p.options.to_config(),
            false,
            &mut tr,
            i,
            &mut counts,
        );
        failed[i] |= !refs[p.circuit]
            .verdicts
            .same_report(&Verdicts::of(&replayed))
            || Work::of(&replayed) != offline[i];
    }
    for i in tr.unreconciled() {
        failed[i] = true;
    }

    let s = &traced.served;
    serving.admit_ms = s
        .iter()
        .filter_map(|s| s.accepted.map(|a| ms(a - s.sent)))
        .collect();
    serving.start_wait_ms = s
        .iter()
        .filter_map(|s| Some(ms(s.start? - s.accepted?)))
        .collect();
    serving.verdict_gaps_us = s.iter().flat_map(|s| s.gaps_us.iter().copied()).collect();
    serving.steps = traced.stats.steps;
    serving.solves = traced.stats.solves;
    serving.shed = traced.stats.shed;
    serving.render_us = us(traced.proto.render) / traced.proto.renders.max(1) as f64;
    serving.parse_us = us(traced.proto.parse) / traced.proto.parses.max(1) as f64;
    serving.bytes_per_campaign = s.iter().map(|s| s.bytes).sum::<u64>() as f64 / s.len() as f64;
    serving.cert_bytes = s.iter().map(|s| s.cert_bytes).sum();
    serving.certified = s.iter().filter_map(|s| s.audit.map(|a| a.certified)).sum();
    serving.certified_campaign_ms = s
        .iter()
        .filter(|s| plan[s.planned].options.certify)
        .filter_map(campaign_ms)
        .collect();
    let overhead = traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0;
    crate::write_spans(&tr, args);
    Outcome {
        attempted: plan.len() as u64,
        failed: count(failed),
        metrics: layers::metrics(&tr, &counts, &Parallel::default(), &serving, overhead),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_has_exact_proportions_and_skewed_popularity() {
        let pool = gen::serve_pool();
        let plan = plan(9, &pool, 1800);
        let count = |f: &dyn Fn(&Planned) -> bool| plan.iter().filter(|p| f(p)).count();
        assert_eq!(count(&|p| p.options.patterns == 64), 600);
        assert_eq!(count(&|p| p.options.incremental), 900);
        assert_eq!(count(&|p| p.options.static_prune), 600);
        assert_eq!(count(&|p| p.options.certify), 180);
        let mut per_circuit = vec![0usize; pool.len()];
        for p in &plan {
            per_circuit[p.circuit] += 1;
        }
        let (min, max) = (
            per_circuit.iter().min().unwrap(),
            per_circuit.iter().max().unwrap(),
        );
        assert!(*min > 0 && *max > 3 * *min, "{per_circuit:?}");
        let again: Vec<usize> = super::plan(9, &pool, 1800)
            .iter()
            .map(|p| p.circuit)
            .collect();
        assert_eq!(again, plan.iter().map(|p| p.circuit).collect::<Vec<_>>());
    }
}
