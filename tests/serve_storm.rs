//! Multi-client storm against the serve daemon: randomized concurrent
//! tenants hammer a deliberately tiny server and every promise must
//! hold under contention —
//!
//! - **backpressure**: against a capacity-1 in-flight window, overload
//!   is refused with well-formed `shed` responses (never a hang, never
//!   a protocol error), and shed-then-retry eventually completes every
//!   campaign: no work is silently lost at admission;
//! - **no verdict lost or duplicated**: every completed campaign's
//!   verdict stream is densely sequenced and its reconstructed report
//!   is byte-identical to [`campaign::run`] on the same netlist — under
//!   worker contention, interleaving, and shed-retry loops;
//! - **per-tenant completion order**: campaigns a tenant pipelines onto
//!   one connection finish in submission order (the scheduler runs a
//!   tenant's queue to completion before rotating), even while other
//!   tenants' work interleaves on the same workers;
//! - **counters reconcile**: admitted = completed, active drains to 0,
//!   and the shed counter matches what clients saw;
//! - **costly requests are refused up front**: a campaign that names a
//!   solver other than CDCL gets a typed error at parse and is never
//!   admitted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use atpg_easy::atpg::campaign;
use atpg_easy::circuits::suite;
use atpg_easy::netlist::parser::bench;
use atpg_easy::serve::{
    CampaignOptions, DoneStatus, ErrorCode, PipeClient, Request, Response, ServeConfig, Server,
    Submission,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Small circuits with genuinely different fault lists, as wire text.
fn corpus() -> Vec<(String, String)> {
    suite::iscas_like()
        .into_iter()
        .filter(|c| c.netlist.num_gates() <= 120)
        .map(|c| {
            let text = bench::write(&c.netlist).expect("suite renders");
            (c.name, text)
        })
        .collect()
}

/// A per-tenant randomized option mix (solver knobs that stay cheap).
fn random_options(rng: &mut StdRng) -> CampaignOptions {
    CampaignOptions {
        patterns: [0u64, 8, 32][rng.random_range(0usize..3)],
        seed: rng.random_range(1u64..1000),
        incremental: rng.random_bool(0.5),
        dropping: rng.random_bool(0.8),
        ..CampaignOptions::default()
    }
}

/// The library-path report for the exact netlist text the server builds.
fn reference_report(text: &str, options: &CampaignOptions) -> String {
    let parsed = bench::parse(text).expect("corpus round-trips");
    campaign::run(&parsed, &options.to_config()).detection_report()
}

fn assert_streamed_exactly(
    outcome: &atpg_easy::serve::CampaignOutcome,
    text: &str,
    options: &CampaignOptions,
    ctx: &str,
) {
    assert_eq!(outcome.done.status, DoneStatus::Ok, "{ctx}");
    assert_eq!(
        outcome.verdicts.len() as u64,
        outcome.faults,
        "{ctx}: verdict count"
    );
    for (k, v) in outcome.verdicts.iter().enumerate() {
        assert_eq!(v.seq, k as u64, "{ctx}: dense seq — no loss, no dupes");
    }
    assert_eq!(
        outcome.detection_report(),
        reference_report(text, options),
        "{ctx}: wire report diverged from the library under contention"
    );
}

/// N tenants, each shed-retrying sequential campaigns against a
/// capacity-1 window on 2 workers.
#[test]
fn storm_capacity_one_sheds_cleanly_and_loses_nothing() {
    const TENANTS: u64 = 6;
    const PER_TENANT: usize = 3;
    let server = Server::start(ServeConfig {
        workers: 2,
        capacity: 1,
        quantum: 2,
        ..ServeConfig::default()
    });
    let corpus = corpus();
    assert!(corpus.len() >= 3, "storm needs circuit variety");
    let sheds_seen = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..TENANTS {
            let server = &server;
            let corpus = &corpus;
            let sheds_seen = &sheds_seen;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBAD5EED ^ t);
                let mut client = PipeClient::connect(server);
                client.set_recv_timeout(Some(RECV_TIMEOUT));
                for j in 0..PER_TENANT {
                    let (name, text) = &corpus[rng.random_range(0usize..corpus.len())];
                    let options = random_options(&mut rng);
                    let id = format!("t{t}-{j}-{name}");
                    loop {
                        let sub = client
                            .run_campaign(&id, text, options.clone())
                            .expect("stream");
                        match sub {
                            Submission::Completed(outcome) => {
                                assert_streamed_exactly(&outcome, text, &options, &id);
                                break;
                            }
                            Submission::Shed {
                                in_flight,
                                capacity,
                            } => {
                                // Well-formed shed: it names the real
                                // window and the window really was full.
                                assert_eq!(capacity, 1, "{id}");
                                assert!(in_flight >= 1, "{id}");
                                sheds_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Submission::Rejected(e) => {
                                panic!("{id}: storm traffic is valid, got {e}")
                            }
                        }
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.admitted, TENANTS * PER_TENANT as u64);
    assert_eq!(stats.completed, TENANTS * PER_TENANT as u64);
    assert_eq!(stats.cancelled, 0);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.active, 0, "the pool drained");
    assert_eq!(
        stats.shed,
        sheds_seen.load(Ordering::Relaxed),
        "server-side shed count matches what clients were told"
    );
}

/// Tenants that pipeline several campaigns onto one connection get them
/// back in submission order, even under cross-tenant interleaving.
#[test]
fn pipelined_campaigns_complete_in_submission_order_per_tenant() {
    const TENANTS: u64 = 4;
    const PER_TENANT: usize = 4;
    let server = Server::start(ServeConfig {
        workers: 3,
        capacity: 32,
        quantum: 2,
        ..ServeConfig::default()
    });
    let corpus = corpus();
    std::thread::scope(|s| {
        for t in 0..TENANTS {
            let server = &server;
            let corpus = &corpus;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xF00D ^ t);
                let mut client = PipeClient::connect(server);
                client.set_recv_timeout(Some(RECV_TIMEOUT));
                // Pipeline the whole batch before reading anything.
                let mut batch = Vec::new();
                for j in 0..PER_TENANT {
                    let (name, text) = &corpus[rng.random_range(0usize..corpus.len())];
                    let options = random_options(&mut rng);
                    let id = format!("t{t}-{j}");
                    client
                        .send(&Request::Campaign {
                            id: id.clone(),
                            netlist: text.clone(),
                            options: options.clone(),
                        })
                        .expect("submit");
                    batch.push((id, name.clone(), text.clone(), options));
                }
                // Raw drain: record the order `done` lines arrive in.
                let mut done_order = Vec::new();
                let mut verdicts: HashMap<String, Vec<u64>> = HashMap::new();
                while done_order.len() < PER_TENANT {
                    match client.recv().expect("response") {
                        Response::Done { id, status, .. } => {
                            assert_eq!(status, DoneStatus::Ok, "{id}");
                            done_order.push(id);
                        }
                        Response::Verdict { id, seq, .. } => {
                            verdicts.entry(id).or_default().push(seq);
                        }
                        Response::Shed { id, .. } => {
                            panic!("{id}: capacity 32 must absorb this batch")
                        }
                        Response::Error { id, code, msg } => {
                            panic!("unexpected error for {id:?}: {code:?} {msg}")
                        }
                        _ => {}
                    }
                }
                let want_order: Vec<String> = batch.iter().map(|(id, ..)| id.clone()).collect();
                assert_eq!(
                    done_order, want_order,
                    "tenant {t}: completion order is submission order"
                );
                // And nothing was lost or duplicated along the way.
                for (id, _, text, options) in &batch {
                    let seqs = verdicts.remove(id).unwrap_or_default();
                    let parsed = bench::parse(text).expect("round-trips");
                    let want = campaign::run(&parsed, &options.to_config());
                    assert_eq!(seqs.len(), want.records.len(), "{id}");
                    for (k, seq) in seqs.iter().enumerate() {
                        assert_eq!(*seq, k as u64, "{id}: dense, ordered, exactly-once");
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.admitted, TENANTS * PER_TENANT as u64);
    assert_eq!(stats.completed, TENANTS * PER_TENANT as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.active, 0);
}

/// The costliest request the `solver` field used to admit: the 6×6 array
/// multiplier under the caching solver, which once ran past 300 s and
/// 1.5 GiB in the daemon. Campaigns solve with CDCL, so the line is
/// refused at parse: an id-less `bad_field`, nothing admitted, and the
/// connection keeps serving.
#[test]
fn caching_solver_request_is_refused_at_parse() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = PipeClient::connect(&server);
    client.set_recv_timeout(Some(RECV_TIMEOUT));
    let netlist = bench::write(&suite::c6288_like().netlist).expect("suite renders");
    let line = Request::Campaign {
        id: "c6288w".into(),
        netlist,
        options: CampaignOptions::default(),
    }
    .render();
    let object = line.strip_suffix('}').expect("a JSON object");
    client
        .send_raw(&format!("{object},\"solver\":\"caching\"}}"))
        .expect("send");
    match client.recv().expect("a reply") {
        Response::Error { id, code, msg } => {
            assert_eq!(code, ErrorCode::BadField, "{msg}");
            assert_eq!(id, None, "refused at parse: {msg}");
        }
        other => panic!("expected a bad_field error, got {other:?}"),
    }
    assert_eq!(server.stats().admitted, 0);
    client.ping().expect("the connection still answers");
}
