//! Real-TCP integration tests for the sharded router (`lintra route`):
//! live routing across two shard groups, the `{"router":"status"}`
//! aggregated cluster view, and graceful partial degradation — a dead
//! shard group refuses *its* keys with `RES-SHARD-DOWN` while the other
//! group keeps serving. (Timing-sensitive behavior — hedging, retry
//! budgets under blackout, failover convergence — lives in the
//! deterministic simulation: `tests/sim.rs` and `lintra sim --shards`.)

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use lintra::ErrorClass;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::{
    start, start_router, BreakerConfig, Client, RouterConfig, ServerConfig, ServerHandle,
    ShardRing, MAX_FRAME_BYTES,
};

/// A lightweight standalone shard server (it answers replication status
/// probes as `stateless`, which the router treats as "serving").
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn shard_server() -> ServerHandle {
    start(ServerConfig {
        jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("shard server starts")
}

/// Router tuning for fast tests: quick probes, a short connect budget
/// (the dead-endpoint walks must fail fast), and a two-failure breaker
/// so the prober opens a dead shard within a couple of rounds.
fn router_over(shards: Vec<Vec<String>>) -> RouterConfig {
    RouterConfig {
        shards,
        probe_interval: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(250),
        request_timeout: Duration::from_secs(5),
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(400),
        },
        ..RouterConfig::default()
    }
}

/// One raw request/response exchange (no client retry machinery — the
/// router's own verdict must come back on the first attempt).
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn raw_line(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to router");
    stream.write_all(line.as_bytes()).expect("write");
    if !line.ends_with('\n') {
        stream.write_all(b"\n").expect("write newline");
    }
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    reader.read_line(&mut out).expect("router answers");
    out
}

#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn cluster_status(addr: &str) -> Json {
    let line = raw_line(addr, "{\"router\":\"status\"}");
    Json::parse(&line).expect("cluster status parses")
}

#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn shard_entries(status: &Json) -> Vec<Json> {
    status
        .get("shards")
        .and_then(Json::as_arr)
        .expect("status has a shards array")
        .to_vec()
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// Mines `count` keys that the ring places on `group` — the same
/// `ShardRing::new(2, 16)` arithmetic the router config above uses, so
/// the test knows *a priori* which shard must serve each key.
fn keys_for_group(ring: &ShardRing, group: usize, count: usize, tag: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut i = 0u64;
    while keys.len() < count {
        let key = format!("{tag}-{i}");
        if ring.shard_of(&key) == Some(group) {
            keys.push(key);
        }
        i += 1;
        assert!(i < 10_000, "ring never mapped {count} keys onto {group}");
    }
    keys
}

fn keyed_ping(key: &str) -> WireRequest {
    WireRequest::new(key, WireOp::Ping).with_request_id(key)
}

/// An endpoint that refuses every connect: bind, learn the port, drop
/// the listener.
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn dead_endpoint() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

/// An endpoint that takes connections into its backlog but never
/// answers: every forward to it waits out the router's request timeout.
/// Keep the listener alive for as long as the endpoint should hang.
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn hung_endpoint() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    (listener, addr)
}

#[test]
fn keyed_requests_route_to_both_shard_groups_and_forward_verbatim() {
    let s0 = shard_server();
    let s1 = shard_server();
    let router = start_router(router_over(vec![
        vec![s0.addr().to_string()],
        vec![s1.addr().to_string()],
    ]))
    .expect("router starts");

    // Mine 4 keys per group with the same ring arithmetic the router
    // uses, then send them all through one client at the router.
    let ring = ShardRing::new(2, 16);
    let client = Client::new(router.addr().to_string());
    for group in 0..2 {
        for key in keys_for_group(&ring, group, 4, "route") {
            let resp = client.request(&keyed_ping(&key)).expect("transport");
            assert!(resp.outcome.is_ok(), "{key}: {resp:?}");
            // Verbatim passthrough: the shard's response id survives.
            assert_eq!(resp.id, key);
        }
    }

    let (requests, forwarded, _retries, shed, shard_down, _hedges, _wins) = router.stats();
    assert_eq!(requests, 8, "every request was counted");
    assert_eq!(forwarded, 8, "every request was forwarded to a shard");
    assert_eq!(shed, 0);
    assert_eq!(shard_down, 0);

    router.shutdown();
    // The split was real: each group executed its own 4 keys (pings
    // count into requests_ok; the router's status probes do not).
    let st0 = s0.shutdown();
    let st1 = s1.shutdown();
    assert!(st0.requests_ok >= 4, "group 0 served {}", st0.requests_ok);
    assert!(st1.requests_ok >= 4, "group 1 served {}", st1.requests_ok);
}

#[test]
fn cluster_status_aggregates_shard_health_budget_and_counters() {
    let s0 = shard_server();
    let s1 = shard_server();
    let router = start_router(router_over(vec![
        vec![s0.addr().to_string()],
        vec![s1.addr().to_string()],
    ]))
    .expect("router starts");
    let addr = router.addr().to_string();

    // The background prober marks both live groups healthy on its own —
    // no client traffic has been sent yet.
    wait_for(
        || {
            shard_entries(&cluster_status(&addr))
                .iter()
                .all(|s| s.get("probed_healthy").and_then(Json::as_bool) == Some(true))
        },
        "both shards probed healthy",
    );

    // One real request so the counters have something to show.
    let client = Client::new(addr.clone());
    let resp = client.request(&keyed_ping("status-1")).expect("transport");
    assert!(resp.outcome.is_ok());

    let status = cluster_status(&addr);
    assert_eq!(
        status.get("router").and_then(Json::as_str),
        Some("status-reply")
    );
    let shards = shard_entries(&status);
    assert_eq!(shards.len(), 2);
    for (g, shard) in shards.iter().enumerate() {
        assert_eq!(
            shard.get("shard").and_then(Json::as_num),
            Some(g as f64),
            "shards listed in order"
        );
        assert_eq!(
            shard.get("breaker").and_then(Json::as_str),
            Some("closed"),
            "a live shard's breaker stays closed"
        );
        let endpoints = shard
            .get("endpoints")
            .and_then(Json::as_arr)
            .expect("endpoints");
        let preferred = shard
            .get("preferred")
            .and_then(Json::as_str)
            .expect("preferred");
        assert!(
            endpoints.iter().any(|e| e.as_str() == Some(preferred)),
            "preferred endpoint comes from the shard's own list"
        );
    }
    // Budget balance and the monotone counters are all present.
    let budget = status
        .get("retry_budget_milli")
        .and_then(Json::as_num)
        .expect("budget balance");
    assert!(budget >= 0.0);
    for counter in [
        "requests",
        "forwarded",
        "retries",
        "shed_retry_budget",
        "shard_down",
        "hedges",
        "hedge_wins",
    ] {
        assert!(
            status.get(counter).and_then(Json::as_num).is_some(),
            "{counter} missing from cluster status"
        );
    }
    assert!(status.get("requests").and_then(Json::as_num) >= Some(1.0));

    router.shutdown();
    s0.shutdown();
    s1.shutdown();
}

#[test]
fn a_dead_shard_group_degrades_only_its_own_keys() {
    let live = shard_server();
    let router = start_router(router_over(vec![
        vec![live.addr().to_string()],
        vec![dead_endpoint()],
    ]))
    .expect("router starts");
    let addr = router.addr().to_string();
    let ring = ShardRing::new(2, 16);

    // The prober alone opens the dead group's breaker — zero client
    // traffic is sacrificed to discover the outage.
    wait_for(
        || {
            shard_entries(&cluster_status(&addr))
                .get(1)
                .and_then(|s| s.get("breaker").and_then(Json::as_str).map(str::to_string))
                .as_deref()
                == Some("open")
        },
        "the dead shard's breaker to open",
    );

    // Keys hashing to the dead group are refused with RES-SHARD-DOWN on
    // the first attempt (fail fast, not a connect-timeout crawl)...
    for key in keys_for_group(&ring, 1, 3, "dead") {
        let line = raw_line(&addr, &keyed_ping(&key).render_line());
        let resp = WireResponse::parse(&line).expect("response parses");
        let failure = resp.outcome.expect_err("dead shard must refuse its keys");
        assert_eq!(failure.code, "RES-SHARD-DOWN", "{key}");
        assert_eq!(failure.class, ErrorClass::Resource);
        assert_eq!(failure.exit_code(), 4);
        assert!(
            failure.message.contains("other shards keep serving"),
            "degradation message tells the operator the blast radius: {}",
            failure.message
        );
    }

    // ...while the live group's keys are completely unaffected.
    let client = Client::new(addr.clone());
    for key in keys_for_group(&ring, 0, 3, "live") {
        let resp = client.request(&keyed_ping(&key)).expect("transport");
        assert!(resp.outcome.is_ok(), "{key} must keep serving: {resp:?}");
    }

    let (_requests, forwarded, _retries, _shed, shard_down, _hedges, _wins) = router.stats();
    assert!(shard_down >= 3, "refusals counted: {shard_down}");
    assert!(forwarded >= 3, "live traffic forwarded: {forwarded}");

    router.shutdown();
    live.shutdown();
}

#[test]
fn a_hung_shards_walks_never_delay_another_connections_reply() {
    let (s0, s1) = (shard_server(), shard_server());
    let (_hung0, h0) = hung_endpoint();
    let (_hung1, h1) = hung_endpoint();
    let router = start_router(RouterConfig {
        request_timeout: Duration::from_millis(500),
        // Never opens, so every request for the hung shard walks it.
        breaker: BreakerConfig {
            threshold: u32::MAX,
            cooldown: Duration::from_millis(400),
        },
        ..router_over(vec![
            vec![s0.addr().to_string(), s1.addr().to_string()],
            vec![h0, h1],
        ])
    })
    .expect("router starts");
    let addr = router.addr().to_string();
    let ring = ShardRing::new(2, 16);

    // Unkeyed requests for the hung shard: each walks both endpoints
    // (500 ms a forward) and re-walks twice after a backoff.
    let hung: Vec<_> = keys_for_group(&ring, 1, 3, "hung")
        .into_iter()
        .map(|id| {
            let addr = addr.clone();
            let line = WireRequest::new(id, WireOp::Ping).render_line();
            std::thread::spawn(move || raw_line(&addr, &line))
        })
        .collect();

    // Meanwhile one connection sends keyed requests for the healthy
    // replicated shard back to back. Its thread waits on each reply
    // while the hung shard's retries come due, and must never run one.
    let mut stream = TcpStream::connect(&addr).expect("connect to router");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (mut answered, mut slowest, mut i) = (0u32, Duration::ZERO, 0u64);
    while !hung.iter().all(std::thread::JoinHandle::is_finished) {
        i += 1;
        let key = format!("live-{i}");
        if ring.shard_of(&key) != Some(0) {
            continue;
        }
        let started = Instant::now();
        let line = keyed_ping(&key).render_line();
        stream.write_all(line.as_bytes()).expect("write");
        let mut out = String::new();
        reader.read_line(&mut out).expect("router answers");
        slowest = slowest.max(started.elapsed());
        let resp = WireResponse::parse(&out).expect("response parses");
        assert!(resp.outcome.is_ok(), "{key}: {resp:?}");
        answered += 1;
    }
    assert!(answered > 0);
    assert!(
        slowest < Duration::from_millis(400),
        "a healthy-shard reply waited {slowest:?}, as long as a forward to the hung shard"
    );
    for t in hung {
        let resp = WireResponse::parse(&t.join().expect("joins")).expect("response parses");
        let failure = resp.outcome.expect_err("the hung shard cannot answer");
        assert_eq!(failure.code, "RES-SHARD-DOWN");
    }
    let (_requests, _forwarded, retries, _shed, _down, _hedges, _wins) = router.stats();
    assert_eq!(retries, 6, "each hung-shard request re-walked twice");

    router.shutdown();
    s0.shutdown();
    s1.shutdown();
}

/// A router over one single-replica shard that probes once, at start,
/// and then not again while a test runs.
#[allow(clippy::expect_used)] // test helper; a failure should abort the test
fn quiet_router_over(shard: &str) -> lintra_serve::RouterHandle {
    let router = start_router(RouterConfig {
        probe_interval: Duration::from_secs(600),
        ..router_over(vec![vec![shard.to_string()]])
    })
    .expect("router starts");
    let addr = router.addr().to_string();
    wait_for(
        || {
            shard_entries(&cluster_status(&addr))
                .iter()
                .all(|s| s.get("probed_healthy").and_then(Json::as_bool) == Some(true))
        },
        "the first probe round",
    );
    router
}

#[test]
fn sequential_forwards_reuse_one_shard_connection() {
    let shard = shard_server();
    let router = quiet_router_over(&shard.addr().to_string());
    let before = shard.stats().connections;
    let client = Client::new(router.addr().to_string());
    for i in 0..20 {
        let resp = client
            .request(&keyed_ping(&format!("reuse-{i}")))
            .expect("transport");
        assert!(resp.outcome.is_ok(), "{resp:?}");
    }
    let opened = shard.stats().connections - before;
    assert!(opened <= 2, "20 forwards opened {opened} shard connections");
    router.shutdown();
    shard.shutdown();
}

#[test]
fn a_forward_after_the_shard_restarts_reconnects_without_a_retry() {
    let dir = std::env::temp_dir().join(format!("lintra-router-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |addr: &str| {
        start(ServerConfig {
            addr: addr.to_string(),
            jobs: Some(2),
            journal_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .expect("durable shard starts")
    };
    let sweep = |key: &str| {
        let op = WireOp::Sweep {
            design: "iir5".to_string(),
            max_i: 4,
        };
        WireRequest::new(key, op).with_request_id(key).render_line()
    };
    let shard = durable("127.0.0.1:0");
    let shard_addr = shard.addr().to_string();
    let router = quiet_router_over(&shard_addr);
    let addr = router.addr().to_string();
    let first = raw_line(&addr, &sweep("restart-1"));
    let resp = WireResponse::parse(&first).expect("response parses");
    assert!(resp.outcome.is_ok(), "{resp:?}");

    // The router's idle connection now leads to a closed socket.
    shard.shutdown();
    let shard = durable(&shard_addr);
    let resp = WireResponse::parse(&raw_line(&addr, &sweep("restart-2"))).expect("parses");
    assert!(resp.outcome.is_ok(), "{resp:?}");
    let (_requests, _forwarded, retries, _shed, _down, _hedges, _wins) = router.stats();
    assert_eq!(retries, 0, "the stale connection cost no budgeted retry");
    // The restarted shard recovered the first key from its journal.
    assert_eq!(raw_line(&addr, &sweep("restart-1")), first);

    router.shutdown();
    shard.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_gets_val_malformed_from_the_router_itself() {
    let live = shard_server();
    let router =
        start_router(router_over(vec![vec![live.addr().to_string()]])).expect("router starts");

    let line = raw_line(router.addr(), "this is not a wire request");
    let resp = WireResponse::parse(&line).expect("response parses");
    let failure = resp.outcome.expect_err("garbage must be rejected");
    assert_eq!(failure.code, "VAL-MALFORMED-REQUEST");
    assert_eq!(failure.class, ErrorClass::Validation);

    // The rejection is router-authored: no shard ever saw the line.
    router.shutdown();
    let stats = live.shutdown();
    assert_eq!(stats.requests_failed, 0, "the shard never saw the garbage");
}

#[test]
fn deeply_nested_lines_are_refused_and_the_router_keeps_answering() {
    let live = shard_server();
    let router = quiet_router_over(&live.addr().to_string());
    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // The router parses every line itself (status query, then request)
    // before it forwards anything.
    let arrays = "[".repeat(20_000) + &"]".repeat(20_000);
    let objects = "{\"router\":".repeat(8_000) + "1" + &"}".repeat(8_000);
    for deep in [arrays, objects] {
        stream.write_all(deep.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        let mut line = String::new();
        reader.read_line(&mut line).expect("router answers");
        let resp = WireResponse::parse(&line).expect("response parses");
        let failure = resp.outcome.expect_err("deep nesting must be refused");
        assert_eq!(failure.code, "VAL-MALFORMED-REQUEST", "{}", failure.message);
        assert_eq!(failure.class, ErrorClass::Validation);
    }

    let ping = keyed_ping("after-deep").render_line();
    stream.write_all(ping.as_bytes()).expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = WireResponse::parse(&line).expect("parse");
    assert!(resp.outcome.is_ok(), "{resp:?}");

    router.shutdown();
    let stats = live.shutdown();
    assert_eq!(stats.requests_failed, 0, "no shard saw the deep lines");
}

#[test]
fn the_router_caps_newline_free_floods_with_val_frame_too_large() {
    let live = shard_server();
    let router =
        start_router(router_over(vec![vec![live.addr().to_string()]])).expect("router starts");

    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let junk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= MAX_FRAME_BYTES + junk.len() {
        if stream.write_all(&junk).is_err() {
            break; // router already slammed the door mid-flood
        }
        sent += junk.len();
    }

    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("router answers the oversized frame");
    let resp = WireResponse::parse(&line).expect("response parses");
    let failure = resp.outcome.expect_err("oversized frame must be rejected");
    assert_eq!(failure.code, "VAL-FRAME-TOO-LARGE");
    assert_eq!(failure.class, ErrorClass::Validation);

    router.shutdown();
    live.shutdown();
}

#[test]
fn the_router_cuts_off_a_slow_loris_with_res_deadline() {
    let live = shard_server();
    let router = start_router(RouterConfig {
        request_timeout: Duration::from_millis(300),
        ..router_over(vec![vec![live.addr().to_string()]])
    })
    .expect("router starts");

    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Half a request line, then silence: a slow loris.
    let full = WireRequest::new("loris", WireOp::Ping).render_line();
    stream
        .write_all(&full.as_bytes()[..full.len() / 2])
        .expect("write partial frame");

    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("router answers the stalled frame");
    let resp = WireResponse::parse(&line).expect("response parses");
    let failure = resp.outcome.expect_err("partial frame must be rejected");
    assert_eq!(failure.code, "RES-DEADLINE");
    assert_eq!(failure.class, ErrorClass::Resource);

    // ... and the connection is closed, not half-open.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "connection stayed open: {rest:?}");

    router.shutdown();
    live.shutdown();
}
