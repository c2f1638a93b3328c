//! Durability integration tests: journal replay, idempotent retries,
//! torn-tail recovery, and corruption quarantine — the in-process half
//! of the crash-recovery gate (`scripts/crash.sh` drives the same
//! contract through real `kill -9`ed processes).
//!
//! The contract under test (ISSUE 5):
//!
//! * a keyed request is journaled (fsync) before execution, so a server
//!   that dies mid-request replays it on restart;
//! * a retry of a settled key is answered from the journal —
//!   bit-identical bytes, zero sweep recompute;
//! * a torn journal tail (the normal `kill -9` artifact) is truncated
//!   and service continues; a corrupt record quarantines the whole
//!   file — the server always starts, never panics;
//! * the journal is the only thing a durable server writes: sweep
//!   caches stay in memory.

#![allow(clippy::expect_used)] // tests: a failed precondition should abort loudly

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use lintra_bench::json::Json;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::journal::{Journal, RecordKind, JOURNAL_FILE};
use lintra_serve::{start, ServerConfig, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lintra-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        jobs: Some(2),
        journal_dir: Some(dir.to_path_buf()),
        default_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// Sends one raw line and returns the raw response line (no trailing
/// newline) — raw so byte-identity can be asserted.
fn raw_request(server: &ServerHandle, line: &str) -> String {
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.write_all(line.as_bytes()).expect("write");
    if !line.ends_with('\n') {
        s.write_all(b"\n").expect("write newline");
    }
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => buf.push(byte[0]),
            Err(e) => panic!("read: {e}"),
        }
    }
    String::from_utf8(buf).expect("utf8 response")
}

fn keyed_sweep(id: &str, rid: &str, max_i: u32) -> String {
    WireRequest::new(
        id,
        WireOp::Sweep {
            design: "chemical".to_string(),
            max_i,
        },
    )
    .with_request_id(rid)
    .render_line()
}

#[test]
fn retried_key_is_answered_bit_identically_with_zero_recompute_across_restart() {
    let dir = temp_dir("dedup");
    let req = keyed_sweep("corr-1", "sweep-job-1", 12);

    // First life: execute the keyed sweep for real.
    let server = start(durable_config(&dir)).expect("first start");
    let first = raw_request(&server, &req);
    let parsed = WireResponse::parse(&first).expect("parseable");
    assert!(parsed.outcome.is_ok(), "sweep succeeds: {first}");
    let warm = server.cache_stats();
    assert!(warm.misses > 0, "first execution computed the chain");
    server.shutdown();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read durability dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(
        files,
        [JOURNAL_FILE],
        "a sweep writes nothing but the journal"
    );

    // Second life: the key is settled in the journal; a retry with the
    // same correlation id must be answered with the journaled bytes —
    // and the caches must not move (zero recompute).
    let server = start(durable_config(&dir)).expect("second start");
    let rec = server.recovery().expect("durable server").clone();
    assert_eq!(rec.answered, 1, "one settled key loaded: {rec:?}");
    assert_eq!(rec.replayed, 0, "nothing was unfinished: {rec:?}");

    let before = server.cache_stats();
    let second = raw_request(&server, &req);
    assert_eq!(second, first, "journaled answer is bit-identical");
    let after = server.cache_stats();
    assert_eq!(after, before, "dedup-served retry touches no cache");
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 1, "served from the journal: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn admitted_but_unfinished_requests_replay_on_restart_and_then_dedup() {
    let dir = temp_dir("replay");
    // Simulate a server that died after the admit fsync but before
    // completing: journal the admit by hand, with no completion record.
    let req_line = keyed_sweep("corr-r", "replay-job-1", 8);
    {
        let (mut journal, _) = Journal::open_dir(&dir).expect("open journal");
        journal
            .append(RecordKind::Admit, "replay-job-1", req_line.trim_end())
            .expect("append admit");
    }

    let server = start(durable_config(&dir)).expect("start");
    let rec = server.recovery().expect("durable server").clone();
    assert_eq!(
        rec.replayed, 1,
        "the orphaned admit was re-executed: {rec:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.replayed, 1, "{stats:?}");

    // The replay settled the key: a retry dedups instead of recomputing.
    let before = server.cache_stats();
    let resp = raw_request(&server, &req_line);
    let parsed = WireResponse::parse(&resp).expect("parseable");
    assert!(parsed.outcome.is_ok(), "replayed result served: {resp}");
    assert_eq!(
        server.cache_stats(),
        before,
        "retry after replay recomputes nothing"
    );
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_is_truncated_and_the_settled_prefix_survives() {
    let dir = temp_dir("torn");
    let req = keyed_sweep("corr-t", "torn-job-1", 6);
    {
        let server = start(durable_config(&dir)).expect("first start");
        let resp = raw_request(&server, &req);
        assert!(WireResponse::parse(&resp)
            .expect("parseable")
            .outcome
            .is_ok());
        server.shutdown();
    }
    // Tear the tail: a partial record after the settled ones, exactly
    // what `kill -9` between write and fsync leaves behind.
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).expect("read journal");
    bytes.extend_from_slice(&[0x55, 0x00, 0x00, 0x00, 0xAA]); // half a header
    std::fs::write(&path, &bytes).expect("tear");

    let server = start(durable_config(&dir)).expect("restart");
    let rec = server.recovery().expect("durable server").clone();
    assert!(rec.torn_tail, "tear detected: {rec:?}");
    assert!(
        rec.journal_quarantined.is_none(),
        "a tear is not corruption: {rec:?}"
    );
    assert_eq!(rec.answered, 1, "settled prefix survived: {rec:?}");

    // And the truncation healed the file: a retry still dedups.
    let resp = raw_request(&server, &req);
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_is_quarantined_and_the_server_still_starts() {
    let dir = temp_dir("corrupt-journal");
    let req = keyed_sweep("corr-c", "corrupt-job-1", 6);
    {
        let server = start(durable_config(&dir)).expect("first start");
        raw_request(&server, &req);
        server.shutdown();
    }
    // Flip one bit inside a fully-present record's payload.
    let path = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&path).expect("read journal");
    let target = bytes.len() - 4;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt");

    let server = start(durable_config(&dir)).expect("restart despite corruption");
    let rec = server.recovery().expect("durable server").clone();
    let quarantined = rec
        .journal_quarantined
        .clone()
        .expect("journal quarantined");
    assert!(quarantined.exists(), "quarantine file kept for forensics");
    assert_eq!(
        rec.answered, 0,
        "a quarantined journal contributes nothing: {rec:?}"
    );

    // Fresh journal: the same key executes fresh (no dedup), succeeds.
    let resp = raw_request(&server, &req);
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 0, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_failures_are_journaled_and_dedup_served() {
    let dir = temp_dir("fail-dedup");
    let req = WireRequest::new(
        "corr-f",
        WireOp::Optimize {
            design: "nonesuch".to_string(),
            strategy: "single".to_string(),
            v0: 3.3,
            processors: None,
        },
    )
    .with_request_id("bad-design-1")
    .render_line();

    let server = start(durable_config(&dir)).expect("start");
    let first = raw_request(&server, &req);
    let failure = WireResponse::parse(&first)
        .expect("parseable")
        .outcome
        .expect_err("unknown design fails deterministically");
    assert_eq!(failure.code, "VAL-CONFIG");
    // The retry is answered from the journal, not revalidated.
    let second = raw_request(&server, &req);
    assert_eq!(
        second, first,
        "deterministic failure dedups bit-identically"
    );
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_duplicate_keys_are_rejected_while_the_first_executes() {
    let dir = temp_dir("dup-inflight");
    let config = ServerConfig {
        chaos: true,
        chaos_point_delay: Duration::from_millis(25),
        ..durable_config(&dir)
    };
    let server = start(config).expect("start");
    let addr = server.addr();

    // A slow keyed sweep occupies the key...
    let slow = std::thread::spawn({
        let mut req = WireRequest::new(
            "corr-slow",
            WireOp::Sweep {
                design: "chemical".to_string(),
                max_i: 60,
            },
        )
        .with_request_id("contended-key");
        req.fault = Some("slow-sweep".to_string());
        let line = req.render_line();
        move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(line.as_bytes()).expect("write");
            let mut buf = Vec::new();
            let mut byte = [0u8; 1];
            loop {
                match s.read(&mut byte) {
                    Ok(0) => break,
                    Ok(_) if byte[0] == b'\n' => break,
                    Ok(_) => buf.push(byte[0]),
                    Err(e) => panic!("read: {e}"),
                }
            }
            String::from_utf8(buf).expect("utf8")
        }
    });
    std::thread::sleep(Duration::from_millis(150)); // definitely executing

    // ... so the same key from a second client is rejected, not queued.
    let resp = raw_request(&server, &keyed_sweep("corr-dup", "contended-key", 60));
    let failure = WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .expect_err("duplicate in-flight key rejected");
    assert_eq!(failure.code, "RES-DUPLICATE-REQUEST");

    // The first attempt completes untouched; afterwards the key dedups.
    let first = slow.join().expect("slow thread");
    assert!(
        WireResponse::parse(&first)
            .expect("parseable")
            .outcome
            .is_ok(),
        "{first}"
    );
    let retry = raw_request(&server, &keyed_sweep("corr-slow", "contended-key", 60));
    assert_eq!(retry, first, "settled key now dedups bit-identically");
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_version_negotiation_is_explicit_never_garbage() {
    let server = start(ServerConfig {
        jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("stateless server");

    // A v1 frame (no `wire`, no `request_id`) works unchanged.
    let resp = raw_request(&server, "{\"id\":\"v1\",\"op\":\"ping\"}");
    let parsed = WireResponse::parse(&resp).expect("parseable");
    assert_eq!(
        parsed.outcome.expect("pong").get("pong"),
        Some(&Json::Bool(true))
    );

    // An explicit v2 frame works too.
    let resp = raw_request(
        &server,
        "{\"wire\":\"lintra-wire/v2\",\"id\":\"v2\",\"op\":\"ping\",\"request_id\":\"k1\"}",
    );
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());

    // An unknown version is rejected with VAL-CONFIG and the right
    // correlation id — not VAL-MALFORMED-REQUEST, not a hang.
    let resp = raw_request(
        &server,
        "{\"wire\":\"lintra-wire/v9\",\"id\":\"future\",\"op\":\"ping\"}",
    );
    let parsed = WireResponse::parse(&resp).expect("parseable");
    assert_eq!(parsed.id, "future");
    let failure = parsed.outcome.expect_err("unknown version rejected");
    assert_eq!(failure.code, "VAL-CONFIG");
    assert!(
        failure.message.contains("lintra-wire/v9"),
        "{}",
        failure.message
    );
    server.shutdown();
}

#[test]
fn keyed_requests_against_a_stateless_server_execute_without_dedup() {
    let server = start(ServerConfig {
        jobs: Some(2),
        ..ServerConfig::default()
    })
    .expect("stateless server");
    let req = keyed_sweep("corr-nd", "no-journal-key", 4);
    let first = raw_request(&server, &req);
    assert!(WireResponse::parse(&first)
        .expect("parseable")
        .outcome
        .is_ok());
    let second = raw_request(&server, &req);
    // Bit-identical because sweeps are deterministic — but *recomputed*,
    // not journal-served: the dedup counter stays zero.
    assert_eq!(second, first);
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 0, "{stats:?}");
    assert_eq!(stats.requests_ok, 2, "{stats:?}");
}

#[test]
fn aborted_attempts_settle_the_admit_but_retries_recompute() {
    let dir = temp_dir("abort-retry");
    let req_line = keyed_sweep("corr-a", "aborted-key", 5);
    {
        // Hand-journal an attempt that ended in a resource abort (say,
        // the process was drained mid-request on its previous life).
        let (mut journal, _) = Journal::open_dir(&dir).expect("open journal");
        journal
            .append(RecordKind::Admit, "aborted-key", req_line.trim_end())
            .expect("append admit");
        let aborted = WireResponse::err(
            "corr-a",
            lintra_bench::wire::WireFailure {
                class: lintra::ErrorClass::Resource,
                code: "RES-SHUTDOWN".to_string(),
                message: "server drained mid-request".to_string(),
            },
        );
        journal
            .append(
                RecordKind::Abort,
                "aborted-key",
                aborted.render_line().trim_end(),
            )
            .expect("append abort");
    }

    let server = start(durable_config(&dir)).expect("start");
    let rec = server.recovery().expect("durable server").clone();
    assert_eq!(rec.replayed, 0, "an abort settles the admit: {rec:?}");

    // The retry executes for real and succeeds this time.
    let resp = raw_request(&server, &req_line);
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());
    let stats = server.shutdown();
    assert_eq!(stats.deduped, 0, "aborts are not dedup-served: {stats:?}");
    assert_eq!(stats.requests_ok, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
