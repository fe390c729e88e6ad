//! Golden end-to-end test of the serve daemon: the full bundled
//! ISCAS-like suite goes over the wire through the in-process client,
//! and the detection report reconstructed from the streamed verdicts
//! must be **byte-identical** to [`campaign::run`] on the same netlist
//! — at 1 worker and at 8, with campaigns interleaved across tenants.
//!
//! The wire round-trip renumbers nets (`bench::write`/`bench::parse`
//! assign dense indices), so the library reference runs on the *parsed*
//! text — exactly the netlist the server builds — not on the original
//! `Netlist` object.
//!
//! The daemon builds each netlist's setup once and shares it across
//! campaigns; repeating every suite netlist checks that a shared setup
//! streams the same report as a fresh one.

use std::collections::HashSet;
use std::time::Duration;

use atpg_easy::atpg::{campaign, SolverChoice};
use atpg_easy::circuits::suite;
use atpg_easy::netlist::parser::bench;
use atpg_easy::serve::{CampaignOptions, DoneStatus, PipeClient, ServeConfig, Server, Submission};

const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// The suite as wire text plus the netlist the server will actually
/// build from it.
fn wire_suite() -> Vec<(String, String, atpg_easy::netlist::Netlist)> {
    suite::iscas_like()
        .into_iter()
        .map(|c| {
            let text = bench::write(&c.netlist).expect("suite renders");
            let parsed = bench::parse(&text).expect("suite round-trips");
            (c.name, text, parsed)
        })
        .collect()
}

fn options() -> CampaignOptions {
    CampaignOptions {
        patterns: 32,
        seed: 7,
        ..CampaignOptions::default()
    }
}

/// Runs the whole suite through one server and returns per-circuit
/// reports. Every circuit goes over its *own* connection (its own
/// tenant), all submitted before anything is collected — the scheduler
/// runs one campaign per tenant at a time, so separate tenants is what
/// makes worker scheduling genuinely concurrent at `workers > 1`.
fn reports_via_server(workers: usize) -> Vec<(String, String)> {
    let server = Server::start(ServeConfig {
        workers,
        capacity: 32,
        quantum: 4,
        ..ServeConfig::default()
    });
    let suite = wire_suite();
    let mut clients: Vec<PipeClient> = suite
        .iter()
        .map(|(name, text, _)| {
            let mut client = PipeClient::connect(&server);
            client.set_recv_timeout(Some(RECV_TIMEOUT));
            client
                .send(&atpg_easy::serve::Request::Campaign {
                    id: name.clone(),
                    netlist: text.clone(),
                    options: options(),
                })
                .expect("submit");
            client
        })
        .collect();
    suite
        .iter()
        .zip(clients.iter_mut())
        .map(|((name, _, _), client)| {
            let sub = client.collect(name).expect("campaign stream");
            let Submission::Completed(outcome) = sub else {
                panic!("{name}: expected completion, got {sub:?}");
            };
            assert_eq!(outcome.done.status, DoneStatus::Ok, "{name}");
            assert_eq!(
                outcome.verdicts.len() as u64,
                outcome.faults,
                "{name}: every targeted fault streams exactly one verdict"
            );
            // seq is dense and in fault order on an ok campaign.
            for (k, v) in outcome.verdicts.iter().enumerate() {
                assert_eq!(v.seq, k as u64, "{name}: verdict order");
            }
            (name.clone(), outcome.detection_report())
        })
        .collect()
}

#[test]
fn wire_reports_are_byte_identical_to_library_at_any_worker_count() {
    // Library reference, on the same parsed netlists the server builds.
    let config = options().to_config();
    let want: Vec<(String, String)> = wire_suite()
        .into_iter()
        .map(|(name, _, parsed)| {
            let result = campaign::run(&parsed, &config);
            (name, result.detection_report())
        })
        .collect();

    for workers in [1, 8] {
        let got = reports_via_server(workers);
        assert_eq!(got.len(), want.len());
        for ((gname, greport), (wname, wreport)) in got.iter().zip(&want) {
            assert_eq!(gname, wname);
            assert_eq!(
                greport, wreport,
                "{gname}: wire report diverged from campaign::run at {workers} workers"
            );
        }
    }
}

/// Certified campaigns stream `cert` lines for every SAT-phase solve and
/// a clean `audit` verdict, and stay byte-identical to the library path.
#[test]
fn certified_wire_campaign_audits_clean() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut client = PipeClient::connect(&server);
    client.set_recv_timeout(Some(RECV_TIMEOUT));
    let text = bench::write(&suite::c17()).expect("c17 renders");
    let parsed = bench::parse(&text).expect("c17 round-trips");
    let opts = CampaignOptions {
        patterns: 8,
        seed: 3,
        certify: true,
        incremental: true,
        solver: SolverChoice::Cdcl,
        ..CampaignOptions::default()
    };
    let want = campaign::run(&parsed, &opts.to_config());
    let sub = client
        .run_campaign("cert", &text, opts)
        .expect("campaign stream");
    let Submission::Completed(outcome) = sub else {
        panic!("expected completion, got {sub:?}");
    };
    assert_eq!(outcome.done.status, DoneStatus::Ok);
    assert_eq!(outcome.detection_report(), want.detection_report());
    let audit = outcome.audit.expect("certified campaigns audit");
    assert!(audit.ok, "audit must pass: {audit:?}");
    assert_eq!(audit.failed, 0);
    // One cert line per solved instance, and solves were counted.
    assert_eq!(outcome.certs.len() as u64, outcome.done.solves);
    assert!(outcome.done.solves > 0, "c17 has SAT-phase work");
    // (No assertion on proof *bytes*: c17's instances are easy enough
    // to solve conflict-free, and a conflict-free solve renders zero
    // DRAT derivations — the audit above already checked the stream.)
}

/// The static redundancy pre-pass over the wire: pruned faults stream
/// `redundant` verdicts (skipping the solver entirely), while the
/// reconstructed detection report stays byte-identical to both the
/// unpruned wire campaign and the library path — a statically pruned
/// fault renders exactly like a solver-proved untestable one.
#[test]
fn static_prune_streams_redundant_verdicts_and_preserves_the_report() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // `nr0` is dangling: both of its stuck-at faults are unobservable,
    // which the implication engine proves without a single SAT call.
    let text = "INPUT(r0)\nINPUT(r1)\nOUTPUT(g)\n\
                nr0 = NOT(r0)\nnr1 = NOT(r1)\ng = AND(r0, nr1)\n";
    let parsed = bench::parse(text).expect("smoke netlist parses");

    let run = |static_prune: bool| {
        let mut client = PipeClient::connect(&server);
        client.set_recv_timeout(Some(RECV_TIMEOUT));
        let opts = CampaignOptions {
            patterns: 8,
            seed: 5,
            static_prune,
            ..CampaignOptions::default()
        };
        let sub = client
            .run_campaign(if static_prune { "prune" } else { "plain" }, text, opts)
            .expect("campaign stream");
        let Submission::Completed(outcome) = sub else {
            panic!("expected completion, got {sub:?}");
        };
        assert_eq!(outcome.done.status, DoneStatus::Ok);
        outcome
    };

    let plain = run(false);
    let pruned = run(true);

    let redundant: Vec<_> = pruned
        .verdicts
        .iter()
        .filter(|v| v.verdict == "redundant")
        .collect();
    assert!(
        !redundant.is_empty(),
        "the dangling NOT's faults must be statically pruned"
    );
    assert!(redundant.iter().all(|v| {
        plain
            .verdicts
            .iter()
            .any(|p| p.net == v.net && p.stuck == v.stuck && p.verdict == "untestable")
    }));
    assert!(plain.verdicts.iter().all(|v| v.verdict != "redundant"));

    // Pruned faults never reach the solver, and the report is stable.
    assert!(pruned.done.solves < plain.done.solves);
    assert_eq!(pruned.detection_report(), plain.detection_report());
    let opts = CampaignOptions {
        patterns: 8,
        seed: 5,
        ..CampaignOptions::default()
    };
    let want = campaign::run(&parsed, &opts.to_config());
    assert_eq!(pruned.detection_report(), want.detection_report());
}

/// Every suite netlist sent four times on its own connection, with
/// `static_prune` off, on, off and on: all but the first campaign on a
/// text take its setup from the cache, whose counters say so, and every
/// report stays byte-identical to `campaign::run` on the parsed text.
#[test]
fn repeated_netlists_share_their_setup_and_keep_reports_identical() {
    let suite: Vec<(String, String, atpg_easy::netlist::Netlist)> = suite::mcnc_like()
        .into_iter()
        .chain(suite::iscas_like())
        .map(|c| {
            let text = bench::write(&c.netlist).expect("suite renders");
            let parsed = bench::parse(&text).expect("suite round-trips");
            (c.name, text, parsed)
        })
        .collect();
    let prunes = [false, true, false, true];
    let opts = |static_prune: bool| CampaignOptions {
        static_prune,
        ..options()
    };
    let want: Vec<[String; 2]> = suite
        .iter()
        .map(|(_, _, parsed)| {
            [false, true].map(|p| campaign::run(parsed, &opts(p).to_config()).detection_report())
        })
        .collect();
    let texts = suite
        .iter()
        .map(|(_, text, _)| text)
        .collect::<HashSet<_>>();
    let sent = (suite.len() * prunes.len()) as u64;

    for workers in [1, 8] {
        let server = Server::start(ServeConfig {
            workers,
            capacity: sent as usize,
            quantum: 4,
            ..ServeConfig::default()
        });
        let mut clients: Vec<PipeClient> = suite
            .iter()
            .map(|(name, text, _)| {
                let mut client = PipeClient::connect(&server);
                client.set_recv_timeout(Some(RECV_TIMEOUT));
                for (k, &static_prune) in prunes.iter().enumerate() {
                    client
                        .send(&atpg_easy::serve::Request::Campaign {
                            id: format!("{name}#{k}"),
                            netlist: text.clone(),
                            options: opts(static_prune),
                        })
                        .expect("submit");
                }
                client
            })
            .collect();
        for (((name, _, _), client), want) in suite.iter().zip(&mut clients).zip(&want) {
            for (k, &static_prune) in prunes.iter().enumerate() {
                let id = format!("{name}#{k}");
                let sub = client.collect(&id).expect("campaign stream");
                let Submission::Completed(outcome) = sub else {
                    panic!("{id}: expected completion, got {sub:?}");
                };
                assert_eq!(outcome.done.status, DoneStatus::Ok, "{id}");
                assert_eq!(
                    outcome.detection_report(),
                    want[usize::from(static_prune)],
                    "{id}: a served report diverged from campaign::run at {workers} workers"
                );
            }
        }
        let stats = clients[0].stats().expect("stats");
        assert_eq!(stats.cache_hits + stats.cache_misses, sent, "{stats:?}");
        // Two tenants with one text may both miss when they build at once.
        let distinct = texts.len() as u64;
        assert!(stats.cache_misses >= distinct, "{stats:?}");
        if workers == 1 {
            assert_eq!(stats.cache_misses, distinct, "{stats:?}");
        }
        assert_eq!(stats.cache_evictions, 0, "{stats:?}");
        assert!(stats.cache_bytes > 0, "{stats:?}");
    }
}
