//! End-to-end daemon tests over real TCP on ephemeral ports.
//!
//! Each test starts its own daemon on `127.0.0.1:0`, so they are
//! parallel-safe and leave nothing behind.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use swp_fuzz::{gen_case, write_regression, GenConfig};
use swp_incr::EditOp;
use swp_swpd::{Daemon, DaemonConfig, Reply, ReplyStatus, Request, SolveRequest, SwpdClient};

fn guaranteed_case(seed: u64, i: usize) -> String {
    let cfg = GenConfig {
        seed,
        adversarial_fraction: 0.0,
        max_nodes: 5,
        ..GenConfig::default()
    };
    write_regression(&gen_case(&cfg, i), None)
}

fn adversarial_case(seed: u64, i: usize, max_nodes: usize) -> String {
    let cfg = GenConfig {
        seed,
        adversarial_fraction: 1.0,
        max_nodes,
        ..GenConfig::default()
    };
    write_regression(&gen_case(&cfg, i), None)
}

/// A case whose ILP solve (heuristic disabled) grinds for minutes —
/// 27 adversarial nodes on single-copy units. Pinned by measurement so
/// the cancellation tests have something real to interrupt.
fn slow_request(id: &str) -> SolveRequest {
    let cfg = GenConfig {
        seed: 0x510,
        adversarial_fraction: 1.0,
        max_nodes: 28,
        max_classes: 2,
        max_count: 1,
        max_latency: 6,
        max_distance: 2,
        ..GenConfig::default()
    };
    let mut r = SolveRequest::new(id, write_regression(&gen_case(&cfg, 1), None));
    r.heuristic = Some(false);
    r.max_t = Some(64);
    r.timeout_ms = Some(120_000);
    r
}

fn start(config: DaemonConfig) -> (swp_swpd::DaemonHandle, String) {
    let handle = Daemon::start(config).expect("daemon start");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn default_config() -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    }
}

/// One HTTP/1.1 exchange with the daemon: `(status code, body)`.
fn http(addr: &str, request: &str) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    split_http_response(&response)
}

/// An HTTP response as `(status code, trimmed body)`.
fn split_http_response(response: &str) -> (u32, String) {
    let code: u32 = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no HTTP status in {response:?}"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or("")
        .trim()
        .to_string();
    (code, body)
}

#[test]
fn ping_stats_and_counters() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);
    let pong = client.ping().expect("ping");
    assert_eq!(pong.status, ReplyStatus::Ok);
    let stats = client.stats().expect("stats");
    // ping + this stats request, both classified in the snapshot.
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.classified_total(), 2);
    assert!(!stats.draining);
    handle.shutdown();
}

#[test]
fn solve_then_cached_repeat() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);
    let req = SolveRequest::new("it-0", guaranteed_case(0x5EED, 0));

    let first = client.solve(&req).expect("solve");
    assert_eq!(first.status, ReplyStatus::Solved, "reply: {first:?}");
    assert!(first.period.is_some());
    assert_eq!(first.proven, Some(true));

    let second = client.solve(&req).expect("repeat");
    assert_eq!(second.status, ReplyStatus::Cached, "reply: {second:?}");
    assert_eq!(second.period, first.period);

    // Same DDG under a different id still hits: the key is the
    // fingerprint, not the request id.
    let renamed = SolveRequest::new("it-renamed", guaranteed_case(0x5EED, 0));
    let third = client.solve(&renamed).expect("renamed");
    assert_eq!(third.status, ReplyStatus::Cached);

    let stats = handle.stats();
    assert_eq!(stats.solved, 1);
    assert_eq!(stats.cached, 2);
    handle.shutdown();
}

#[test]
fn portfolio_engine_solves_and_reports_races() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);

    // Heuristic off so the exact engines settle every period — that is
    // what makes the portfolio actually race.
    let mut req = SolveRequest::new("race-0", guaranteed_case(0xCAFE, 0));
    req.heuristic = Some(false);
    req.engine = Some(swp_core::Engine::Portfolio);
    let reply = client.solve(&req).expect("portfolio solve");
    assert_eq!(reply.status, ReplyStatus::Solved, "reply: {reply:?}");
    assert_eq!(reply.proven, Some(true));
    let by = reply.solved_by.as_deref().expect("solved_by");
    assert!(by == "ilp" || by == "cp", "race winner was {by}");

    let stats = handle.stats();
    assert!(stats.races > 0, "portfolio solve ran no races");
    assert!(stats.race_cp_wins + stats.race_ilp_wins <= stats.races);

    // The engine is part of the cache fingerprint: the same case under
    // the default (ILP) engine is a fresh solve, not a cache hit.
    let mut ilp = SolveRequest::new("race-0-ilp", guaranteed_case(0xCAFE, 0));
    ilp.heuristic = Some(false);
    let reply = client.solve(&ilp).expect("ilp solve");
    assert_eq!(reply.status, ReplyStatus::Solved, "reply: {reply:?}");

    // A repeat of the portfolio request *is* a hit.
    let reply = client.solve(&req).expect("portfolio repeat");
    assert_eq!(reply.status, ReplyStatus::Cached, "reply: {reply:?}");
    handle.shutdown();
}

#[test]
fn unknown_engine_is_a_bad_request() {
    let (handle, addr) = start(default_config());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(
            b"{\"op\": \"solve\", \"id\": \"x\", \"case\": \"c\", \"engine\": \"quantum\"}\n",
        )
        .expect("write");
    writer.flush().expect("flush");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read");
    let reply = Reply::from_json_line(out.trim()).expect("parse reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest, "reply: {reply:?}");
    assert!(
        reply.error.as_deref().unwrap_or("").contains("quantum"),
        "error should name the bad engine: {reply:?}"
    );
    assert_eq!(handle.stats().bad_requests, 1);
    handle.shutdown();
}

#[test]
fn bad_requests_are_refused_not_fatal() {
    let (handle, addr) = start(default_config());

    // Malformed JSON, unknown op, and an unparseable case all come back
    // as bad_request on the same connection, which stays usable.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ask = |line: &str| -> Reply {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write nl");
        writer.flush().expect("flush");
        let mut out = String::new();
        reader.read_line(&mut out).expect("read");
        Reply::from_json_line(out.trim()).expect("parse reply")
    };

    assert_eq!(ask("this is not json").status, ReplyStatus::BadRequest);
    assert_eq!(
        ask(r#"{"op": "frobnicate", "id": "x"}"#).status,
        ReplyStatus::BadRequest
    );
    assert_eq!(
        ask(r#"{"op": "solve", "id": "x", "case": "garbage"}"#).status,
        ReplyStatus::BadRequest
    );
    // Fault injection without opt-in is a client error, not a panic.
    let mut inject = SolveRequest::new("x", guaranteed_case(1, 0));
    inject.inject_panic = true;
    let line = Request::Solve(inject).to_json_line();
    assert_eq!(ask(&line).status, ReplyStatus::BadRequest);
    // The connection is still healthy.
    assert_eq!(
        ask(r#"{"op": "ping", "id": "still-alive"}"#).status,
        ReplyStatus::Ok
    );

    let stats = handle.stats();
    assert_eq!(stats.bad_requests, 4);
    assert_eq!(stats.panics, 0);
    handle.shutdown();
}

#[test]
fn http_front_door() {
    let (handle, addr) = start(default_config());

    let (code, _) = http(&addr, "GET /health HTTP/1.1\r\nhost: x\r\n\r\n");
    assert_eq!(code, 200);

    let (code, body) = http(&addr, "GET /stats HTTP/1.1\r\nhost: x\r\n\r\n");
    assert_eq!(code, 200);
    let stats_reply = Reply::from_json_line(&body).expect("stats body");
    let counters = stats_reply.counters.expect("counters");
    assert_eq!(counters.requests, counters.classified_total());

    // POST /solve with a bare JSON body (no `op`): solves and returns
    // 200 with the reply object.
    let solve = SolveRequest::new("http-0", guaranteed_case(0x177, 0));
    let body_line = Request::Solve(solve).to_json_line();
    let (code, body) = http(
        &addr,
        &format!(
            "POST /solve HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body_line}",
            body_line.len()
        ),
    );
    assert_eq!(code, 200, "body: {body}");
    let reply = Reply::from_json_line(&body).expect("solve body");
    assert_eq!(reply.status, ReplyStatus::Solved);

    let (code, _) = http(&addr, "GET /nowhere HTTP/1.1\r\nhost: x\r\n\r\n");
    assert_eq!(code, 400);

    handle.shutdown();
}

#[test]
fn oversized_content_length_is_refused_before_allocation() {
    let (handle, addr) = start(default_config());

    // A header claiming ~1 TB: allocating it would abort the daemon.
    let (code, body) = http(
        &addr,
        "POST /solve HTTP/1.1\r\nhost: x\r\nContent-Length: 999999999999\r\n\r\n",
    );
    assert_eq!(code, 400, "body: {body}");
    let reply = Reply::from_json_line(&body).expect("typed reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest);

    // The daemon survived and its accounting identity still holds.
    assert_eq!(assert_healthy_and_balanced(&addr).bad_requests, 1);

    // A non-numeric length is refused too, not read as an empty body.
    let (code, body) = http(
        &addr,
        "POST /solve HTTP/1.1\r\nhost: x\r\nContent-Length: lots\r\n\r\n",
    );
    assert_eq!(code, 400, "body: {body}");
    assert!(body.contains("Content-Length"), "body: {body}");
    assert_eq!(assert_healthy_and_balanced(&addr).bad_requests, 2);

    handle.shutdown();
}

#[test]
fn oversized_unit_fields_are_refused_before_solving() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr.clone(), 7);
    // Unbounded, these abort the process: a 2^31-unit IMS reservation
    // table, and an 8 GiB allocation inside `T_res`.
    for (i, unit) in [
        "count=2147483648 latency=2 table[X..X]",
        "count=1 latency=4000000000 nonpipelined",
    ]
    .into_iter()
    .enumerate()
    {
        let case = format!(
            "machine m {{\n    unit C0 {unit}\n}}\nddg {{\n    node n0 class=0 latency=2\n}}\n"
        );
        let reply = client
            .solve(&SolveRequest::new(format!("huge-{i}"), case))
            .expect("typed reply");
        assert_eq!(reply.status, ReplyStatus::BadRequest, "reply: {reply:?}");
        assert!(
            reply.error.as_deref().unwrap_or("").contains("exceeds"),
            "error should name the cap: {reply:?}"
        );
    }
    assert_eq!(assert_healthy_and_balanced(&addr).bad_requests, 2);
    handle.shutdown();
}

/// Sends `prefix` followed by 2 MiB with no newline from a helper
/// thread, and returns everything the daemon answers before it closes
/// the connection (within the client read timeout).
fn send_endless_line(addr: &str, prefix: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let prefix = prefix.to_string();
    let sender = std::thread::spawn(move || {
        // The daemon stops reading at its cap and closes, so the tail of
        // this write may fail; that is expected.
        let _ = writer.write_all(prefix.as_bytes());
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
        let _ = writer.flush();
    });
    let mut response = Vec::new();
    let _ = (&stream).read_to_end(&mut response);
    sender.join().expect("sender thread");
    String::from_utf8_lossy(&response).into_owned()
}

/// The daemon is still up and `requests == classified_total` holds.
fn assert_healthy_and_balanced(addr: &str) -> swp_swpd::StatsSnapshot {
    let (code, _) = http(addr, "GET /health HTTP/1.1\r\nhost: x\r\n\r\n");
    assert_eq!(code, 200);
    let (code, body) = http(addr, "GET /stats HTTP/1.1\r\nhost: x\r\n\r\n");
    assert_eq!(code, 200);
    let counters = Reply::from_json_line(&body)
        .expect("stats body")
        .counters
        .expect("counters");
    assert_eq!(counters.requests, counters.classified_total());
    counters
}

#[test]
fn endless_jsonl_line_is_refused_at_the_cap() {
    let (handle, addr) = start(default_config());
    let response = send_endless_line(&addr, r#"{"op":"ping","id":""#);
    let reply = Reply::from_json_line(response.trim()).expect("typed reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest, "reply: {reply:?}");
    assert!(
        reply.error.as_deref().unwrap_or("").contains("limit"),
        "reply: {reply:?}"
    );
    assert_eq!(assert_healthy_and_balanced(&addr).bad_requests, 1);
    handle.shutdown();
}

#[test]
fn endless_http_header_line_is_refused_at_the_cap() {
    let (handle, addr) = start(default_config());
    let response = send_endless_line(&addr, "GET /health HTTP/1.1\r\nx-padding: ");
    let (code, body) = split_http_response(&response);
    assert_eq!(code, 400, "response: {response}");
    let reply = Reply::from_json_line(&body).expect("typed reply");
    assert_eq!(reply.status, ReplyStatus::BadRequest);
    assert_eq!(assert_healthy_and_balanced(&addr).bad_requests, 1);
    handle.shutdown();
}

#[test]
fn zero_capacity_queue_sheds_with_retry_hint() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 0,
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    client.max_retries = 2;
    client.fallback_backoff_ms = 1;

    let req = SolveRequest::new("shed-0", guaranteed_case(0x0bad, 0));
    let reply = client.solve(&req).expect("solve");
    assert_eq!(reply.status, ReplyStatus::Overloaded, "reply: {reply:?}");
    assert!(reply.retry_after_ms.is_some(), "hint missing: {reply:?}");

    // Every attempt (first + 2 retries) was counted and shed.
    let stats = handle.stats();
    assert_eq!(stats.overloaded, 3);
    assert_eq!(stats.requests, 3);
    handle.shutdown();
}

#[test]
fn injected_panic_is_isolated() {
    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        allow_fault_injection: true,
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);

    let mut boom = SolveRequest::new("boom-0", guaranteed_case(0xB00, 0));
    boom.inject_panic = true;
    let reply = client.solve(&boom).expect("solve");
    assert_eq!(reply.status, ReplyStatus::InternalPanic, "reply: {reply:?}");
    assert!(reply.error.unwrap_or_default().contains("injected fault"));

    // The daemon took the hit on one request only: the pool still
    // serves, and the poisoned fingerprint was never cached.
    let ok = client
        .solve(&SolveRequest::new("after-0", guaranteed_case(0xB00, 1)))
        .expect("solve after panic");
    assert_eq!(ok.status, ReplyStatus::Solved);
    let retry = client
        .solve(&SolveRequest::new("boom-retry", guaranteed_case(0xB00, 0)))
        .expect("clean retry of the panicked fingerprint");
    assert_eq!(retry.status, ReplyStatus::Solved);

    let stats = handle.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.solved, 2);
    assert_eq!(stats.internal_errors, 0);
    handle.shutdown();
}

#[test]
fn starved_budget_reports_exhaustion() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 7);

    let mut req = SolveRequest::new("starved-0", adversarial_case(0x7167, 0, 8));
    req.ticks = Some(1);
    req.timeout_ms = Some(0);
    req.heuristic = Some(false);
    let reply = client.solve(&req).expect("solve");
    assert_eq!(
        reply.status,
        ReplyStatus::BudgetExhausted,
        "reply: {reply:?}"
    );
    // Exhausted answers are not deterministic; they must not be cached.
    let again = client.solve(&req).expect("repeat");
    assert_eq!(again.status, ReplyStatus::BudgetExhausted);
    assert_eq!(handle.stats().cached, 0);
    handle.shutdown();
}

#[test]
fn admission_pool_refuses_when_dry() {
    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        // Too small to fund even one worker share after try_slice.
        admission_ticks: Some(1),
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    let reply = client
        .solve(&SolveRequest::new("dry-0", guaranteed_case(0xD5, 0)))
        .expect("solve");
    assert_eq!(
        reply.status,
        ReplyStatus::BudgetExhausted,
        "reply: {reply:?}"
    );
    assert!(reply.error.unwrap_or_default().contains("admission pool"));
    handle.shutdown();
}

#[test]
fn drain_then_restart_replays_artifact() {
    let artifact =
        std::env::temp_dir().join(format!("swpd-test-replay-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&artifact);

    let (handle, addr) = start(DaemonConfig {
        workers: 2,
        artifact: Some(artifact.clone()),
        ..DaemonConfig::default()
    });
    let mut client = SwpdClient::new(addr, 7);
    let reqs: Vec<SolveRequest> = (0..3)
        .map(|i| SolveRequest::new(format!("warm-{i}"), guaranteed_case(0x4E57, i)))
        .collect();
    let mut solved = 0;
    for r in &reqs {
        let reply = client.solve(r).expect("solve");
        if reply.status == ReplyStatus::Solved {
            solved += 1;
        }
    }
    assert!(solved > 0, "mix produced no proven solves");

    // Remote-initiated drain: the daemon latches `draining` and the
    // handle's join returns.
    let bye = client.shutdown().expect("shutdown request");
    assert_eq!(bye.status, ReplyStatus::Ok);
    let final_stats = handle.wait();
    assert!(final_stats.draining);
    assert_eq!(final_stats.in_flight, 0);
    assert_eq!(final_stats.queue_depth, 0);

    // Crash-only recovery: a new daemon over the same artifact serves
    // every solved fingerprint warm.
    let (handle2, addr2) = start(DaemonConfig {
        workers: 2,
        artifact: Some(artifact.clone()),
        resume: true,
        ..DaemonConfig::default()
    });
    assert_eq!(handle2.stats().replayed, solved);
    let mut client2 = SwpdClient::new(addr2, 8);
    for r in &reqs {
        let reply = client2.solve(r).expect("replay solve");
        assert_eq!(reply.status, ReplyStatus::Cached, "id {}: {reply:?}", r.id);
    }
    handle2.shutdown();
    let _ = std::fs::remove_file(&artifact);
}

#[test]
fn hard_drain_cancels_stuck_solves() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        drain_grace: Duration::from_millis(0),
        default_timeout_ms: 120_000,
        ..DaemonConfig::default()
    });

    // Park a heavyweight solve on the single worker.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let line = Request::Solve(slow_request("slow-0")).to_json_line();
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write nl");
    stream.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));

    // With zero grace the drain must hard-cancel it almost instantly;
    // if the token were not wired through, this join would sit for the
    // full two-minute deadline.
    let started = Instant::now();
    let stats = handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "drain took {:?} — hard-cancel did not fire",
        started.elapsed()
    );
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.queue_depth, 0);

    // The parked request was classified (cancelled), not lost.
    let mut reply_line = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    BufReader::new(stream)
        .read_line(&mut reply_line)
        .expect("read reply");
    let reply = Reply::from_json_line(reply_line.trim()).expect("parse");
    assert_eq!(reply.id, "slow-0");
    assert!(
        matches!(
            reply.status,
            ReplyStatus::Cancelled | ReplyStatus::BudgetExhausted | ReplyStatus::Unscheduled
        ),
        "unexpected terminal status: {reply:?}"
    );
}

#[test]
fn disconnect_cancels_in_flight_solve() {
    let (handle, addr) = start(DaemonConfig {
        workers: 1,
        default_timeout_ms: 120_000,
        ..DaemonConfig::default()
    });

    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let line = Request::Solve(slow_request("gone-0")).to_json_line();
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write nl");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(200));
        // Hang up mid-solve.
    }

    // The EOF fires the request's cancel token; the worker must free up
    // long before the two-minute deadline. Prove it by getting a fresh
    // solve through the single worker promptly.
    let started = Instant::now();
    let mut client = SwpdClient::new(addr, 9);
    client.read_timeout = Some(Duration::from_secs(60));
    let reply = client
        .solve(&SolveRequest::new("after-gone", guaranteed_case(0x90E, 1)))
        .expect("solve after disconnect");
    assert_eq!(reply.status, ReplyStatus::Solved);
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "worker stayed wedged {:?} after client disconnect",
        started.elapsed()
    );
    handle.shutdown();
}

#[test]
fn session_lifecycle_edit_solve_replay_and_telemetry() {
    let (handle, addr) = start(default_config());
    let mut client = SwpdClient::new(addr, 31);
    let before = client.stats().expect("stats");

    let opened = client
        .session_open("sess-0", &guaranteed_case(0x5E55, 2))
        .expect("open");
    assert_eq!(opened.status, ReplyStatus::Ok, "{:?}", opened.error);
    let sid = opened.session.expect("session handle");
    let nodes = opened.nodes.expect("node count");

    let first = client.session_solve(sid).expect("solve");
    assert_eq!(first.status, ReplyStatus::Solved, "{:?}", first.error);
    let first_period = first.period.expect("period");

    if nodes >= 2 {
        let edit = EditOp::AddEdge {
            src: 0,
            dst: nodes as usize - 1,
            distance: 1,
        };
        let edited = client.session_edit(sid, edit.clone()).expect("edit");
        assert_eq!(edited.status, ReplyStatus::Ok, "{:?}", edited.error);
        assert!(edited.cone.is_some());
        let second = client.session_solve(sid).expect("solve 2");
        assert_eq!(second.status, ReplyStatus::Solved, "{:?}", second.error);

        // Reverting the edit restores the fingerprint: the third solve
        // replays the first answer.
        let reverted = client
            .session_edit(
                sid,
                EditOp::RemoveEdge {
                    src: 0,
                    dst: nodes as usize - 1,
                    distance: 1,
                },
            )
            .expect("revert");
        assert_eq!(reverted.status, ReplyStatus::Ok);
        let third = client.session_solve(sid).expect("solve 3");
        assert_eq!(third.status, ReplyStatus::Solved);
        assert_eq!(
            third.period,
            Some(first_period),
            "replay changed the answer"
        );
    }

    let closed = client.session_close(sid).expect("close");
    assert_eq!(closed.status, ReplyStatus::Ok);
    let gone = client.session_solve(sid).expect("solve after close");
    assert_eq!(gone.status, ReplyStatus::BadRequest);

    let after = client.stats().expect("stats");
    assert_eq!(after.monotone_regression_from(&before), None);
    assert_eq!(after.sessions_opened, before.sessions_opened + 1);
    assert!(after.session_solves >= before.session_solves + 2);
    if nodes >= 2 {
        assert_eq!(after.session_edits, before.session_edits + 2);
        assert!(
            after.reuse_replays > before.reuse_replays,
            "revert solve must be an exact replay"
        );
    }
    handle.shutdown();
}

#[test]
fn session_http_round_trip() {
    let (handle, addr) = start(default_config());
    let post = |path: &str, body: String| -> (u32, String) {
        http(
            &addr,
            &format!(
                "POST {path} HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    };

    let open_body = Request::SessionOpen {
        id: "h-open".into(),
        case: guaranteed_case(0x177E, 3),
    }
    .to_json_line();
    let (code, body) = post("/session", open_body);
    assert_eq!(code, 200, "body: {body}");
    let opened = Reply::from_json_line(&body).expect("open reply");
    assert_eq!(opened.status, ReplyStatus::Ok);
    let sid = opened.session.expect("handle");
    let nodes = opened.nodes.expect("nodes");

    // Solve with an empty body: the path carries op and session.
    let (code, body) = post(&format!("/session/{sid}/solve"), String::new());
    assert_eq!(code, 200, "body: {body}");
    let solved = Reply::from_json_line(&body).expect("solve reply");
    assert_eq!(solved.status, ReplyStatus::Solved, "{:?}", solved.error);
    assert!(solved.period.is_some());

    // Edit: add a node, then re-solve.
    let (code, body) = post(
        &format!("/session/{sid}/edit"),
        format!(r#"{{"id":"h-edit","edit":"add_node","name":"x","class":0,"latency":1}}"#),
    );
    assert_eq!(code, 200, "body: {body}");
    let edited = Reply::from_json_line(&body).expect("edit reply");
    assert_eq!(edited.status, ReplyStatus::Ok, "{:?}", edited.error);
    assert_eq!(edited.nodes, Some(nodes + 1));

    let (code, body) = post(&format!("/session/{sid}/solve"), String::new());
    assert_eq!(code, 200, "body: {body}");
    let second = Reply::from_json_line(&body).expect("second solve");
    assert_eq!(second.status, ReplyStatus::Solved, "{:?}", second.error);

    let (code, _) = post(&format!("/session/{sid}/close"), String::new());
    assert_eq!(code, 200);
    let (code, _) = post(&format!("/session/{sid}/warp"), String::new());
    assert_eq!(code, 400);
    let (code, _) = post("/session/notanumber/solve", String::new());
    assert_eq!(code, 400);

    handle.shutdown();
}

#[test]
fn session_capacity_sheds_and_frees_on_close() {
    let (handle, addr) = start(DaemonConfig {
        session_capacity: 1,
        ..default_config()
    });
    let mut client = SwpdClient::new(addr, 77);
    let first = client
        .session_open("cap-0", &guaranteed_case(0xCA9, 0))
        .expect("open");
    assert_eq!(first.status, ReplyStatus::Ok);
    let refused = client
        .session_open("cap-1", &guaranteed_case(0xCA9, 1))
        .expect("open refused");
    assert_eq!(refused.status, ReplyStatus::Overloaded);
    assert!(refused.retry_after_ms.is_some());

    client
        .session_close(first.session.expect("handle"))
        .expect("close");
    let reopened = client
        .session_open("cap-2", &guaranteed_case(0xCA9, 2))
        .expect("open again");
    assert_eq!(reopened.status, ReplyStatus::Ok);
    handle.shutdown();
}
