//! Chaos suite: drives the full server ↔ client loop under every
//! injected fault class and asserts three things each time —
//!
//! 1. the *documented* diagnostic code reaches the client,
//! 2. the server stays serviceable afterwards (a healthy request
//!    succeeds), and
//! 3. shutdown still drains cleanly (every test ends in
//!    [`ServerHandle::shutdown`], which joins every thread; a hang here
//!    fails the suite by timeout).
//!
//! Faults are injected deterministically through the wire `fault` member
//! (honored only because the servers here start with
//! [`ServerConfig::chaos`]) and the seeded generators in
//! [`lintra::diag::fault`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lintra::diag::fault;
use lintra::ErrorClass;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::{start, Client, RetryPolicy, ServerConfig, ServerHandle};

/// Server tuning for fast, deterministic chaos runs.
fn chaos_config() -> ServerConfig {
    ServerConfig {
        jobs: Some(2),
        max_inflight: 8,
        default_deadline: Duration::from_secs(5),
        stall_budget: Duration::from_millis(80),
        chaos: true,
        chaos_point_delay: Duration::from_millis(25),
        breaker: lintra_serve::BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(150),
        },
        ..ServerConfig::default()
    }
}

/// A client with fast backoff so retries don't slow the suite down.
fn fast_client(server: &ServerHandle) -> Client {
    Client::with_policy(
        server.addr().to_string(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
    )
}

#[allow(clippy::expect_used)] // test helper; a transport failure should abort the test
fn ping(client: &Client, id: &str) -> WireResponse {
    client
        .request(&WireRequest::new(id, WireOp::Ping))
        .expect("ping transport")
}

fn healthy_optimize(id: &str) -> WireRequest {
    WireRequest::new(
        id,
        WireOp::Optimize {
            design: "chemical".to_string(),
            strategy: "single".to_string(),
            v0: 3.3,
            processors: None,
        },
    )
}

/// Asserts the server still answers a liveness probe *and* real work.
#[allow(clippy::expect_used)] // test helper; a transport failure should abort the test
fn assert_serviceable(client: &Client, tag: &str) {
    let resp = ping(client, &format!("live-{tag}"));
    assert!(
        resp.outcome.is_ok(),
        "{tag}: ping must succeed after the fault"
    );
    let resp = client
        .request(&healthy_optimize(&format!("work-{tag}")))
        .expect("transport");
    let result = resp
        .outcome
        .unwrap_or_else(|f| panic!("{tag}: healthy work failed: {f}"));
    assert!(
        result.get("power_reduction").is_some(),
        "{tag}: result payload intact"
    );
}

#[test]
fn malformed_requests_get_val_malformed_and_the_connection_survives() {
    let server = start(chaos_config()).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    for (k, bad) in fault::malformed_request_lines(11).into_iter().enumerate() {
        stream.write_all(bad.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("server answers each bad line");
        let resp = WireResponse::parse(&line).expect("response parses");
        let failure = resp.outcome.expect_err("malformed must fail");
        assert_eq!(failure.code, "VAL-MALFORMED-REQUEST", "line {k}: {bad:?}");
        assert_eq!(failure.class, ErrorClass::Validation);
        assert_eq!(failure.exit_code(), 2);
    }

    // The same connection still serves valid requests afterwards.
    stream
        .write_all(
            WireRequest::new("after", WireOp::Ping)
                .render_line()
                .as_bytes(),
        )
        .expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = WireResponse::parse(&line).expect("parse");
    assert_eq!(resp.id, "after");
    assert!(resp.outcome.is_ok());

    drop(stream);
    assert_serviceable(&fast_client(&server), "malformed");
    server.shutdown();
}

#[test]
fn deeply_nested_lines_get_val_malformed_and_the_server_keeps_answering() {
    let server = start(chaos_config()).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // 40 KB lines, far inside the frame cap: before the parser bounded
    // its nesting, the first one overflowed a connection thread's stack
    // and aborted the whole server.
    let arrays = "[".repeat(20_000) + &"]".repeat(20_000);
    let objects = "{\"a\":".repeat(8_000) + "1" + &"}".repeat(8_000);
    for deep in [arrays, objects] {
        stream.write_all(deep.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("server answers");
        let resp = WireResponse::parse(&line).expect("response parses");
        let failure = resp.outcome.expect_err("deep nesting must be refused");
        assert_eq!(failure.code, "VAL-MALFORMED-REQUEST", "{}", failure.message);
        assert!(
            failure.message.contains("nested too deep"),
            "{}",
            failure.message
        );
    }

    let ping = WireRequest::new("after-deep", WireOp::Ping).render_line();
    stream.write_all(ping.as_bytes()).expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = WireResponse::parse(&line).expect("parse");
    assert_eq!(resp.id, "after-deep");
    assert!(resp.outcome.is_ok(), "{resp:?}");

    drop(stream);
    assert_serviceable(&fast_client(&server), "deep");
    server.shutdown();
}

#[test]
fn a_client_dying_mid_write_leaves_the_server_serviceable() {
    let server = start(chaos_config()).expect("server starts");
    for seed in [3, 17, 99] {
        let full = WireRequest::new("gone", WireOp::Ping).render_line();
        let cut = fault::truncated_request(&full, seed);
        let stream = TcpStream::connect(server.addr()).expect("connect");
        (&stream).write_all(cut.as_bytes()).expect("write partial");
        stream.shutdown(Shutdown::Write).expect("half-close");
        // Server must treat half a request + EOF as a dead client, not a
        // crash; it closes without an answer.
        let mut rest = Vec::new();
        let mut s = stream;
        s.read_to_end(&mut rest).expect("read");
        assert!(
            rest.is_empty(),
            "no response to half a request, got {rest:?}"
        );
    }
    assert_serviceable(&fast_client(&server), "truncated");
    server.shutdown();
}

#[test]
fn slow_loris_partial_frame_is_cut_off_with_res_deadline() {
    // A short default deadline keeps the test fast; the guard measures
    // from the first partial byte, so an idle connection is unaffected.
    let server = start(ServerConfig {
        default_deadline: Duration::from_millis(200),
        ..chaos_config()
    })
    .expect("server starts");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Drip half a request and then go silent — the classic slow loris.
    let full = WireRequest::new("loris", WireOp::Ping).render_line();
    let half = &full.as_bytes()[..full.len() / 2];
    stream.write_all(half).expect("write partial frame");

    // The server must answer RES-DEADLINE and close instead of letting
    // the unfinished frame pin the handler thread forever.
    let started = Instant::now();
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server answers the stalled frame");
    let resp = WireResponse::parse(&line).expect("response parses");
    let failure = resp.outcome.expect_err("partial frame must be rejected");
    assert_eq!(failure.code, "RES-DEADLINE");
    assert_eq!(failure.class, ErrorClass::Resource);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "guard took {:?}; the deadline is 200 ms",
        started.elapsed()
    );

    // ... and the connection is actually closed, not half-open.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "connection stayed open: {rest:?}");

    // The guard only trims the abusive connection; the server is fine.
    assert_serviceable(&fast_client(&server), "loris");
    server.shutdown();
}

#[test]
fn a_newline_free_megabyte_flood_is_rejected_with_val_frame_too_large() {
    let server = start(chaos_config()).expect("server starts");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A sender that never produces a newline: the frame-size guard must
    // cut it off just past MAX_FRAME_BYTES instead of buffering forever
    // (the slow-loris guard would only fire after the full deadline).
    let junk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= lintra_serve::MAX_FRAME_BYTES + junk.len() {
        if stream.write_all(&junk).is_err() {
            break; // server already slammed the door mid-flood
        }
        sent += junk.len();
    }

    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server answers the oversized frame");
    let resp = WireResponse::parse(&line).expect("response parses");
    let failure = resp.outcome.expect_err("oversized frame must be rejected");
    assert_eq!(failure.code, "VAL-FRAME-TOO-LARGE");
    assert_eq!(failure.class, ErrorClass::Validation);
    assert_eq!(failure.exit_code(), 2);

    // ... and the connection is closed, not left half-open. Flood bytes
    // still in flight when the server slams the door surface as a
    // reset, which is just as closed as a clean EOF.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "connection stayed open: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    // The guard trims only the abusive connection; the server is fine.
    assert_serviceable(&fast_client(&server), "frame-too-large");
    server.shutdown();
}

#[test]
fn injected_slow_worker_is_flagged_as_res_worker_stall() {
    let server = start(chaos_config()).expect("server starts");
    let client = fast_client(&server);

    let mut req = healthy_optimize("stall");
    req.fault = Some("slow-worker".to_string());
    let resp = client.request(&req).expect("transport");
    let failure = resp.outcome.expect_err("stalled point must be flagged");
    assert_eq!(failure.code, "RES-WORKER-STALL");
    assert_eq!(failure.class, ErrorClass::Resource);
    assert_eq!(failure.exit_code(), 4);

    assert_serviceable(&client, "stall");
    server.shutdown();
}

#[test]
fn deadline_expiring_mid_sweep_returns_res_deadline_within_twice_the_deadline() {
    let server = start(chaos_config()).expect("server starts");
    let client = fast_client(&server);

    // ~200 points × 25 ms against a 300 ms budget: the token retires
    // mid-sweep; remaining points are skipped between points, so the
    // response lands within one point's latency of the deadline — well
    // inside the documented 2× bound.
    let deadline_ms = 300;
    let req = WireRequest {
        deadline_ms: Some(deadline_ms),
        fault: Some("slow-sweep".to_string()),
        ..WireRequest::new(
            "deadline",
            WireOp::Sweep {
                design: "chemical".to_string(),
                max_i: 200,
            },
        )
    };
    let started = Instant::now();
    let resp = client.request(&req).expect("transport");
    let elapsed = started.elapsed();
    let failure = resp.outcome.expect_err("deadline must expire");
    assert_eq!(failure.code, "RES-DEADLINE");
    assert_eq!(failure.class, ErrorClass::Resource);
    assert!(
        elapsed < Duration::from_millis(deadline_ms * 2),
        "must answer within 2x the deadline, took {elapsed:?}"
    );

    assert_serviceable(&client, "deadline");
    server.shutdown();
}

#[test]
fn an_already_expired_deadline_never_hangs() {
    let server = start(chaos_config()).expect("server starts");
    let client = fast_client(&server);
    let req = WireRequest {
        deadline_ms: Some(1),
        fault: Some("slow-sweep".to_string()),
        ..WireRequest::new(
            "tiny",
            WireOp::Sweep {
                design: "iir5".to_string(),
                max_i: 64,
            },
        )
    };
    let started = Instant::now();
    let resp = client.request(&req).expect("transport");
    let failure = resp.outcome.expect_err("1 ms budget must expire");
    assert_eq!(failure.code, "RES-DEADLINE");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "no hang on expired budgets"
    );
    server.shutdown();
}

#[test]
fn consecutive_worker_panics_open_the_breaker_then_a_probe_recovers_it() {
    let server = start(chaos_config()).expect("server starts");
    let client = fast_client(&server);

    // Three consecutive injected panics: each is isolated per point and
    // reported, while the breaker counts the streak.
    for k in 0..3 {
        let mut req = healthy_optimize(&format!("panic-{k}"));
        req.fault = Some("worker-panic".to_string());
        let resp = client.request(&req).expect("transport");
        let failure = resp.outcome.expect_err("injected panic must fail");
        assert_eq!(failure.code, "RES-WORKER-PANIC", "panic {k}");
        assert_eq!(failure.exit_code(), 4);
    }

    // The breaker is now open: even a healthy request is rejected fast.
    let resp = client
        .request(&healthy_optimize("rejected"))
        .expect("transport");
    let failure = resp.outcome.expect_err("open breaker rejects");
    assert_eq!(failure.code, "RES-CIRCUIT-OPEN");
    assert_eq!(failure.class, ErrorClass::Resource);

    // Liveness probes bypass the breaker.
    assert!(
        ping(&client, "bypass").outcome.is_ok(),
        "ping must bypass the breaker"
    );

    // After the cooldown, the next request is the half-open probe; it
    // succeeds and closes the breaker for everyone.
    std::thread::sleep(Duration::from_millis(200));
    let resp = client
        .request(&healthy_optimize("probe"))
        .expect("transport");
    assert!(
        resp.outcome.is_ok(),
        "probe closes the breaker: {:?}",
        resp.outcome
    );
    assert_serviceable(&client, "breaker");
    server.shutdown();
}

#[test]
fn overload_is_shed_with_res_overload_not_queued() {
    let mut config = chaos_config();
    config.max_inflight = 1;
    config.jobs = Some(1);
    let server = start(config).expect("server starts");
    let addr = server.addr().to_string();

    // One slow filler occupies the only admission slot...
    let filler = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let client = Client::new(addr);
            let req = WireRequest {
                fault: Some("slow-sweep".to_string()),
                ..WireRequest::new(
                    "filler",
                    WireOp::Sweep {
                        design: "chemical".to_string(),
                        max_i: 30,
                    },
                )
            };
            client.request(&req).expect("transport")
        }
    });
    std::thread::sleep(Duration::from_millis(150)); // filler is admitted and sweeping

    // ... so an impatient client (retries disabled) is shed immediately.
    let impatient = Client::with_policy(
        addr.clone(),
        RetryPolicy {
            max_attempts: 1,
            retry_overload: false,
            ..RetryPolicy::default()
        },
    );
    let resp = impatient
        .request(&healthy_optimize("shed"))
        .expect("transport");
    let failure = resp.outcome.expect_err("must be shed");
    assert_eq!(failure.code, "RES-OVERLOAD");
    assert_eq!(failure.class, ErrorClass::Resource);

    // A patient client with backoff+jitter rides out the overload window.
    let patient = Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(60),
            max_backoff: Duration::from_millis(400),
            retry_overload: true,
            ..RetryPolicy::default()
        },
    );
    let resp = patient
        .request(&healthy_optimize("patient"))
        .expect("transport");
    assert!(
        resp.outcome.is_ok(),
        "retry-with-backoff must eventually land: {:?}",
        resp.outcome
    );

    assert!(filler.join().expect("filler thread").outcome.is_ok());
    let stats = server.shutdown();
    assert!(stats.shed >= 1, "the shed counter must record the overload");
}

#[test]
fn conn_drop_injection_closes_without_response_and_server_survives() {
    let server = start(chaos_config()).expect("server starts");

    let mut req = WireRequest::new("dropme", WireOp::Ping);
    req.fault = Some("conn-drop".to_string());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(req.render_line().as_bytes())
        .expect("write");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read");
    assert!(
        buf.is_empty(),
        "conn-drop must close without a response, got {buf:?}"
    );

    assert_serviceable(&fast_client(&server), "conn-drop");
    server.shutdown();
}

#[test]
fn client_retry_with_backoff_recovers_from_a_dropped_connection() {
    // A hand-rolled flaky server: drops the first connection mid-request,
    // answers the second — the client's retry loop must bridge the gap.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        // Connection 1: read a little, then slam the door.
        let (mut c1, _) = listener.accept().expect("accept 1");
        let mut scratch = [0u8; 8];
        let _ = c1.read(&mut scratch);
        drop(c1);
        // Connection 2: answer properly.
        let (c2, _) = listener.accept().expect("accept 2");
        let mut reader = BufReader::new(c2.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read request");
        let req = WireRequest::parse(&line).expect("valid request");
        let resp = WireResponse::ok(req.id, Json::obj([("pong", Json::Bool(true))]));
        let mut c2 = c2;
        c2.write_all(resp.render_line().as_bytes())
            .expect("write response");
    });

    let client = Client::with_policy(
        addr.to_string(),
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            ..RetryPolicy::default()
        },
    );
    let resp = client
        .request(&WireRequest::new("retry", WireOp::Ping))
        .expect("retry bridges");
    assert!(resp.outcome.is_ok());
    fake.join().expect("fake server");
}

#[test]
fn shutdown_drains_inflight_requests_and_rejects_new_work() {
    let server = start(chaos_config()).expect("server starts");
    let addr = server.addr().to_string();

    // A slow in-flight request that must be allowed to finish.
    let inflight = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let client = Client::new(addr);
            let req = WireRequest {
                fault: Some("slow-sweep".to_string()),
                ..WireRequest::new(
                    "inflight",
                    WireOp::Sweep {
                        design: "chemical".to_string(),
                        max_i: 20,
                    },
                )
            };
            client.request(&req).expect("transport")
        }
    });
    std::thread::sleep(Duration::from_millis(120)); // definitely executing

    let started = Instant::now();
    let stats = server.shutdown(); // blocks until the drain completes
    let drained_in = started.elapsed();

    // The in-flight sweep completed with a real result, not an error.
    let resp = inflight.join().expect("in-flight thread");
    let result = resp
        .outcome
        .expect("in-flight request must complete during drain");
    assert_eq!(
        result.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
        Some(21),
        "full sweep delivered"
    );
    assert!(stats.requests_ok >= 1);
    assert!(
        drained_in < Duration::from_secs(5),
        "drain is bounded, took {drained_in:?}"
    );

    // After the drain, the server is gone: new work cannot land.
    let late = Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
    );
    match late.request(&WireRequest::new("late", WireOp::Ping)) {
        Err(_) => {} // connection refused — listener closed
        Ok(resp) => {
            let failure = resp.outcome.expect_err("a drained server takes no work");
            assert_eq!(failure.code, "RES-SHUTDOWN");
        }
    }
}

#[test]
fn every_documented_serve_code_appears_in_the_diag_registry() {
    // The codes this suite asserts over the wire must all be documented
    // pipeline codes — chaos coverage and the registry cannot drift.
    let registry = lintra::diag::documented_codes();
    for code in [
        "VAL-MALFORMED-REQUEST",
        "VAL-CONFIG",
        "RES-OVERLOAD",
        "RES-DEADLINE",
        "RES-WORKER-STALL",
        "RES-WORKER-PANIC",
        "RES-CIRCUIT-OPEN",
        "RES-SHUTDOWN",
        "RES-CANCELLED",
    ] {
        assert!(
            registry.iter().any(|(c, _)| *c == code),
            "{code} is asserted by chaos tests but missing from documented_codes()"
        );
    }
}
