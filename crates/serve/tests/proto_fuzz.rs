//! Protocol robustness under adversarial input: the daemon must answer
//! every malformed line with a *typed* error response and keep serving —
//! never panic, never wedge the connection, never kill a worker.
//!
//! Each server property drives random garbage through a real in-process
//! server (real scheduler, real workers, real framing) and then proves
//! liveness by round-tripping a `ping` on the same connection. Every
//! receive carries a timeout, so a hang is a test failure, not a stuck
//! CI job. The codec properties call `obs::json`, the flat-JSON codec
//! the wire and the trace lines share, directly.

use std::time::Duration;

use atpg_easy_circuits::suite;
use atpg_easy_netlist::parser::bench;
use atpg_easy_obs::json::{self, push_bool, push_num, push_str};
use atpg_easy_obs::{parse_jsonl_line, Counters, InstanceTrace, TraceLine};
use atpg_easy_serve::proto::MAX_PATTERNS;
use atpg_easy_serve::{
    CampaignOptions, ErrorCode, PipeClient, Request, Response, ServeConfig, Server, Submission,
};
use proptest::prelude::*;

/// Every receive is bounded: a protocol hang fails fast.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

fn small_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        capacity: 16,
        quantum: 4,
        ..ServeConfig::default()
    })
}

fn client(server: &Server) -> PipeClient {
    let mut c = PipeClient::connect(server);
    c.set_recv_timeout(Some(RECV_TIMEOUT));
    c
}

/// The bundled c17 as wire-ready bench text.
fn c17_text() -> String {
    bench::write(&suite::c17()).expect("c17 renders")
}

/// Drains responses until the liveness `pong`, requiring every line on
/// the way to be a well-formed protocol response.
fn drain_to_pong(c: &mut PipeClient) -> Vec<Response> {
    let mut seen = Vec::new();
    loop {
        let r = c.recv().expect("well-formed response before the timeout");
        if matches!(r, Response::Pong) {
            return seen;
        }
        seen.push(r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary bytes — truncated fragments, binary noise, invalid
    /// UTF-8, stray newlines — never panic the daemon and never wedge
    /// the connection: a `ping` sent afterwards still gets its `pong`,
    /// and everything the server said in between parses as a typed
    /// response.
    #[test]
    fn garbage_bytes_never_panic_or_wedge(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let server = small_server();
        let mut c = client(&server);
        c.send_bytes(&bytes).unwrap();
        // Terminate any dangling fragment so the ping below frames
        // cleanly, then prove liveness.
        c.send_bytes(b"\n").unwrap();
        c.send(&Request::Ping).unwrap();
        for r in drain_to_pong(&mut c) {
            prop_assert!(
                matches!(r, Response::Error { .. }),
                "garbage must only ever produce typed errors, got {r:?}"
            );
        }
    }

    /// Truncating a *valid* campaign request at any byte boundary yields
    /// a typed protocol error (never `internal`, never silence), and the
    /// connection keeps serving.
    #[test]
    fn truncated_requests_get_typed_errors(cut in 0usize..1000) {
        let line = Request::Campaign {
            id: "trunc".into(),
            netlist: c17_text(),
            options: CampaignOptions::default(),
        }
        .render();
        let mut cut = cut % line.len();
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let server = small_server();
        let mut c = client(&server);
        c.send_raw(&line[..cut]).unwrap();
        c.send(&Request::Ping).unwrap();
        let before_pong = drain_to_pong(&mut c);
        if cut == 0 {
            prop_assert!(before_pong.is_empty(), "a blank line is silently skipped");
        } else {
            prop_assert_eq!(before_pong.len(), 1);
            let Response::Error { code, .. } = &before_pong[0] else {
                panic!("expected an error, got {:?}", before_pong[0]);
            };
            prop_assert!(
                matches!(code, ErrorCode::Json | ErrorCode::UnknownType | ErrorCode::MissingField | ErrorCode::BadField),
                "truncation is a *protocol* error, got {code:?}"
            );
        }
    }

    /// Invalid UTF-8 in a frame is reported as `utf8`, not `json`, and
    /// does not poison subsequent frames.
    #[test]
    fn invalid_utf8_is_a_typed_error(
        prefix in prop::collection::vec(97u8..123, 0usize..10),
        pick in 0usize..4,
    ) {
        const BAD: [&[u8]; 4] = [&[0xff], &[0xc3, 0x28], &[0xe2, 0x82], &[0xf0, 0x9f, 0x92]];
        let server = small_server();
        let mut c = client(&server);
        let mut line = prefix;
        line.extend_from_slice(BAD[pick]);
        line.push(b'\n');
        c.send_bytes(&line).unwrap();
        c.send(&Request::Ping).unwrap();
        let before_pong = drain_to_pong(&mut c);
        prop_assert_eq!(before_pong.len(), 1);
        prop_assert!(
            matches!(&before_pong[0], Response::Error { code: ErrorCode::Utf8, .. }),
            "expected a utf8 error, got {:?}",
            before_pong[0]
        );
    }

    /// A netlist beyond the server's cap is refused with `oversize`
    /// *before* parsing or admission — the in-flight window is untouched.
    #[test]
    fn oversized_netlists_are_refused(extra in 1usize..2048) {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_netlist_bytes: 256,
            ..ServeConfig::default()
        });
        let mut c = client(&server);
        let netlist = "x".repeat(256 + extra);
        let sub = c
            .run_campaign("big", &netlist, CampaignOptions::default())
            .unwrap();
        let Submission::Rejected(err) = sub else {
            panic!("oversize netlist must be rejected, got {sub:?}");
        };
        prop_assert_eq!(err.code, ErrorCode::Oversize);
        prop_assert_eq!(server.stats().active, 0);
    }

    /// A `patterns` count beyond the cap, from one past it to huge, is
    /// refused with `bad_field`, scoped to the request id, before
    /// admission: the random phase runs while a campaign is built, before
    /// any deadline or cancel check.
    #[test]
    fn excessive_patterns_are_refused(
        patterns in (0u64..4, (MAX_PATTERNS + 1)..u64::MAX)
            .prop_map(|(edge, huge)| if edge < 2 { MAX_PATTERNS + 1 + edge } else { huge }),
    ) {
        let server = small_server();
        let mut c = client(&server);
        c.send(&Request::Campaign {
            id: "many".into(),
            netlist: c17_text(),
            options: CampaignOptions {
                patterns,
                deadline_ms: Some(200),
                ..CampaignOptions::default()
            },
        })
        .unwrap();
        let r = c.recv().unwrap();
        prop_assert!(
            matches!(
                &r,
                Response::Error { id: Some(id), code: ErrorCode::BadField, .. } if id == "many"
            ),
            "expected a bad_field error for `many`, got {r:?}"
        );
        c.ping().unwrap();
        prop_assert_eq!(server.stats().admitted, 0);
    }

    /// A line beyond the byte cap answers `line_too_long` and the framer
    /// resynchronizes at the next newline: the next request still works.
    #[test]
    fn overlong_lines_resync(len in 513usize..4096) {
        let server = Server::start(ServeConfig {
            workers: 1,
            max_line_bytes: 512,
            ..ServeConfig::default()
        });
        let mut c = client(&server);
        c.send_raw(&"x".repeat(len)).unwrap();
        c.send(&Request::Ping).unwrap();
        let before_pong = drain_to_pong(&mut c);
        prop_assert_eq!(before_pong.len(), 1);
        prop_assert!(
            matches!(&before_pong[0], Response::Error { code: ErrorCode::LineTooLong, .. }),
            "expected line_too_long, got {:?}",
            before_pong[0]
        );
    }

    /// A request delivered in arbitrary chunk splits (interleaved
    /// frames from the transport's point of view) reassembles and runs
    /// exactly like one delivered whole.
    #[test]
    fn chunked_delivery_reassembles(splits in prop::collection::vec(1usize..50, 0..8)) {
        let line = format!(
            "{}\n",
            Request::Campaign {
                id: "chunked".into(),
                netlist: c17_text(),
                options: CampaignOptions::default(),
            }
            .render()
        );
        let server = small_server();
        let mut c = client(&server);
        let bytes = line.as_bytes();
        let mut at = 0;
        for s in splits {
            let end = (at + s).min(bytes.len());
            c.send_bytes(&bytes[at..end]).unwrap();
            at = end;
        }
        c.send_bytes(&bytes[at..]).unwrap();
        let sub = c.collect("chunked").unwrap();
        let Submission::Completed(outcome) = sub else {
            panic!("chunked campaign must complete, got {sub:?}");
        };
        prop_assert_eq!(outcome.verdicts.len() as u64, outcome.faults);
    }
}

/// Strings mixing control characters, ASCII (quotes and backslashes
/// included), the BMP and non-BMP planes. The vendored proptest has no
/// string strategy, so two low bits of each `u32` pick the range.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..40).prop_map(|xs| {
        xs.into_iter()
            .filter_map(|x| {
                let v = x >> 2;
                char::from_u32(match x & 3 {
                    0 => v % 0x20,
                    1 => v % 0x80,
                    2 => v % 0x1_0000,
                    _ => v % 0x11_0000,
                })
            })
            .collect()
    })
}

/// Bytes that are mostly JSON punctuation, escape letters and digits,
/// so the scanner gets past the first byte; bytes from 0x80 up stay raw
/// and become U+FFFD or multi-byte text under the lossy conversion.
fn jsonish_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}[]\":,\\/ubfnrtael0123456789dD8. \t\n-";
    prop::collection::vec(any::<u8>(), 0..120).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| {
                if b < 0x80 {
                    ALPHABET[usize::from(b) % ALPHABET.len()]
                } else {
                    b
                }
            })
            .collect()
    })
}

/// A line holding one `type` field, then whatever `fill` appends.
fn object(fill: impl FnOnce(&mut String)) -> String {
    let mut line = String::from("{\"type\":\"t\"");
    fill(&mut line);
    line.push('}');
    line
}

proptest! {
    /// Any string the string appender writes scans back equal.
    #[test]
    fn appended_strings_scan_back_equal(s in text()) {
        let line = object(|l| push_str(l, "s", &s));
        let fields = json::parse_flat_object(&line).expect("the writer's output scans");
        prop_assert_eq!(fields.req::<String>("s").expect("a string"), s);
    }

    /// Any `u64` and any `bool` round-trip.
    #[test]
    fn integers_and_booleans_round_trip(n in any::<u64>(), b in any::<bool>()) {
        let line = object(|l| {
            push_num(l, "n", n);
            push_bool(l, "b", b);
        });
        let fields = json::parse_flat_object(&line).expect("the writer's output scans");
        prop_assert_eq!(fields.req::<u64>("n"), Ok(n));
        prop_assert_eq!(fields.req::<bool>("b"), Ok(b));
    }

    /// Arbitrary text scans to `Ok` or `Err`, never a panic.
    #[test]
    fn arbitrary_text_never_panics_the_scanner(bytes in jsonish_bytes()) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = json::parse_flat_object(&line);
    }

    /// An instance trace with arbitrary names round-trips through its
    /// JSONL line.
    #[test]
    fn instance_traces_round_trip(circuit in text(), fault in text(), seq in any::<u64>()) {
        let t = InstanceTrace {
            seq,
            circuit,
            fault,
            vars: 11,
            clauses: 24,
            sub_size: 9,
            outcome: "SAT".into(),
            wall_ns: 120_500,
            worker: 3,
            proof_bytes: 0,
            counters: Counters::default(),
        };
        match parse_jsonl_line(&t.to_jsonl()) {
            Ok(TraceLine::Instance(back)) => prop_assert_eq!(back, t),
            other => panic!("{other:?}"),
        }
    }
}

/// Two campaigns interleaved on one connection both stream to clean
/// terminal lines, and a malformed line between them harms neither.
#[test]
fn interleaved_campaigns_share_a_connection() {
    let server = small_server();
    let mut c = client(&server);
    let netlist = c17_text();
    for id in ["a", "b"] {
        c.send(&Request::Campaign {
            id: id.into(),
            netlist: netlist.clone(),
            options: CampaignOptions::default(),
        })
        .unwrap();
    }
    c.send_raw("{\"type\":\"no-such-request\"}").unwrap();
    let Submission::Completed(a) = c.collect("a").unwrap() else {
        panic!("campaign a must complete")
    };
    let Submission::Completed(b) = c.collect("b").unwrap() else {
        panic!("campaign b must complete")
    };
    assert_eq!(a.verdicts.len() as u64, a.faults);
    assert_eq!(b.verdicts.len() as u64, b.faults);
    assert_eq!(a.detection_report(), b.detection_report());
}

/// A netlist the builder rejects — here an undriven net, caught at
/// parse/validate — is a typed `bad_field` error plus
/// `done status=failed`, not a worker death: a fresh campaign on the
/// same server still runs. (A netlist that parses but flunks the lint
/// preflight would surface as `preflight` through the same path; with
/// the default lint config every structural error is already a parse
/// error, so the wire test pins the reachable variant.)
#[test]
fn build_failures_are_typed_and_workers_survive() {
    let server = small_server();
    let mut c = client(&server);
    let sub = c
        .run_campaign(
            "bad",
            "INPUT(1)\nOUTPUT(3)\n3 = AND(1, 2)\n",
            CampaignOptions::default(),
        )
        .unwrap();
    let Submission::Completed(outcome) = sub else {
        panic!("build failure still terminates with done, got {sub:?}");
    };
    assert_eq!(outcome.done.status, atpg_easy_serve::DoneStatus::Failed);
    assert!(
        outcome.errors.iter().any(|e| e.code == ErrorCode::BadField),
        "expected a bad_field error, got {:?}",
        outcome.errors
    );
    assert!(
        outcome.verdicts.is_empty(),
        "no verdicts for a failed build"
    );
    // The worker survived: a fresh campaign on the same server runs.
    let sub = c
        .run_campaign("good", &c17_text(), CampaignOptions::default())
        .unwrap();
    assert!(
        matches!(sub, Submission::Completed(o) if o.done.status == atpg_easy_serve::DoneStatus::Ok)
    );
}
