//! Replication integration tests: WAL shipping, deterministic chaos
//! (link drop, lagging follower, stale epoch), arbitration, promotion,
//! and the failover-aware client — the in-process half of the failover
//! gate (`scripts/failover.sh` drives the same contract through real
//! `kill -9`ed processes).
//!
//! The contract under test (ISSUE 6):
//!
//! * a follower's journal converges to a **byte-identical** copy of the
//!   primary's, CRC-verified and fsync'd before each ack;
//! * lower epochs are always refused (`RES-STALE-EPOCH`) and a deposed
//!   primary fences itself — no split brain;
//! * promotion replays unsettled records before taking writes, so a
//!   retried `request_id` settled before the failover is answered
//!   byte-identically with zero recompute;
//! * the client walks its endpoint list past dead and non-primary
//!   replicas without burning backoff sleeps on redirects.

#![allow(clippy::expect_used)] // tests: a failed precondition should abort loudly

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::journal::{payload_bytes, JOURNAL_FILE};
use lintra_serve::replicate::store_epoch;
use lintra_serve::{
    load_epoch_state, prefix_crc, query_status, start, Client, RecordKind, ReplChaos, ReplMsg,
    ServerConfig, MAX_FRAME_BYTES,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lintra-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replication-friendly durable config: fast heartbeats and a short
/// failover grace so tests settle quickly, but all timing-dependent
/// assertions still go through [`wait_until`], never bare sleeps.
fn repl_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        jobs: Some(2),
        journal_dir: Some(dir.to_path_buf()),
        default_deadline: Duration::from_secs(10),
        heartbeat: Duration::from_millis(50),
        failover_grace: Duration::from_millis(400),
        ..ServerConfig::default()
    }
}

fn follower_config(dir: &Path, primary: &str) -> ServerConfig {
    ServerConfig {
        replica_of: Some(primary.to_string()),
        ..repl_config(dir)
    }
}

fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// Sends one raw line and returns the raw response line (no trailing
/// newline) — raw so byte-identity can be asserted.
fn raw_request(addr: &str, line: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
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

fn journal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(JOURNAL_FILE)).expect("journal exists")
}

/// An address nothing listens on (bound once, then released).
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

#[test]
fn follower_converges_to_a_byte_identical_journal_and_redirects_compute() {
    let (pdir, fdir) = (temp_dir("basic-p"), temp_dir("basic-f"));
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    let faddr = follower.addr().to_string();

    let resp = raw_request(&paddr, &keyed_sweep("corr-1", "repl-basic-1", 8));
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());

    let want = primary.role_info().expect("replicated").seq;
    assert!(want >= 2, "admit + done journaled");
    wait_until("follower catch-up", || {
        query_status(&faddr, Duration::from_millis(250)).is_some_and(|st| st.seq >= want)
    });
    assert_eq!(
        journal_bytes(&fdir),
        journal_bytes(&pdir),
        "acked follower journal is byte-identical"
    );

    // The follower answers status and pings but redirects compute.
    let st = query_status(&faddr, Duration::from_millis(250)).expect("status");
    assert_eq!(st.role, "follower");
    assert_eq!(st.answered, 1, "settled key visible on the replica: {st:?}");
    assert_eq!(st.primary.as_deref(), Some(paddr.as_str()));
    let ping = raw_request(&faddr, "{\"id\":\"p\",\"op\":\"ping\"}");
    assert!(WireResponse::parse(&ping)
        .expect("parseable")
        .outcome
        .is_ok());
    let compute = raw_request(&faddr, &keyed_sweep("corr-2", "repl-basic-2", 4));
    let failure = WireResponse::parse(&compute)
        .expect("parseable")
        .outcome
        .expect_err("replicas reject compute");
    assert_eq!(failure.code, "RES-NOT-PRIMARY");
    assert!(
        failure.message.contains(&paddr),
        "redirect names the primary: {}",
        failure.message
    );

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn dropped_link_resyncs_from_the_acked_prefix() {
    let (pdir, fdir) = (temp_dir("drop-p"), temp_dir("drop-f"));
    // Fault::ReplLinkDrop, deterministically: the primary tears one
    // follower connection down after two records.
    let primary = start(ServerConfig {
        repl_chaos: Some(ReplChaos {
            drop_link_after: Some(2),
            lag: None,
        }),
        ..repl_config(&pdir)
    })
    .expect("primary");
    let paddr = primary.addr().to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    let faddr = follower.addr().to_string();

    for (rid, max_i) in [("drop-key-1", 6), ("drop-key-2", 7)] {
        let resp = raw_request(&paddr, &keyed_sweep(rid, rid, max_i));
        assert!(WireResponse::parse(&resp)
            .expect("parseable")
            .outcome
            .is_ok());
    }
    let want = primary.role_info().expect("replicated").seq;
    assert_eq!(want, 4, "two sweeps, four records");
    wait_until("resync past the injected drop", || {
        query_status(&faddr, Duration::from_millis(250)).is_some_and(|st| st.seq >= want)
    });
    assert_eq!(
        journal_bytes(&fdir),
        journal_bytes(&pdir),
        "no record lost or duplicated across the drop"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn lagging_follower_never_slows_the_primary_and_catches_up() {
    let (pdir, fdir) = (temp_dir("lag-p"), temp_dir("lag-f"));
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    // Fault::LaggingFollower: the follower stalls half a second before
    // acking record 2 (the first sweep's completion). The failover grace
    // sits above the worst-case stall — the operator contract — so the
    // lag must not read as primary death.
    let follower = start(ServerConfig {
        repl_chaos: Some(ReplChaos {
            drop_link_after: None,
            lag: Some((2, Duration::from_millis(500))),
        }),
        failover_grace: Duration::from_secs(2),
        ..follower_config(&fdir, &paddr)
    })
    .expect("follower");
    let faddr = follower.addr().to_string();

    let first = raw_request(&paddr, &keyed_sweep("lag-key-1", "lag-key-1", 6));
    assert!(WireResponse::parse(&first)
        .expect("parseable")
        .outcome
        .is_ok());
    // While the follower sits in its injected stall, the primary keeps
    // serving at full speed — replication is not in the write path.
    let t0 = Instant::now();
    let second = raw_request(&paddr, &keyed_sweep("lag-key-2", "lag-key-2", 6));
    assert!(WireResponse::parse(&second)
        .expect("parseable")
        .outcome
        .is_ok());
    assert!(
        t0.elapsed() < Duration::from_millis(450),
        "a lagging follower must not backpressure the primary"
    );

    let want = primary.role_info().expect("replicated").seq;
    wait_until("lagging follower catch-up", || {
        query_status(&faddr, Duration::from_millis(250)).is_some_and(|st| st.seq >= want)
    });
    assert_eq!(
        journal_bytes(&fdir),
        journal_bytes(&pdir),
        "the stall cleared into a byte-identical journal"
    );

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn stale_epoch_primary_fences_itself_and_the_follower_promotes() {
    let (pdir, fdir) = (temp_dir("stale-p"), temp_dir("stale-f"));
    // Fault::StaleEpochPrimary: the follower has already lived through
    // epoch 2 (persisted), so the epoch-1 primary it dials is stale.
    std::fs::create_dir_all(&fdir).expect("mkdir");
    store_epoch(&fdir.join("epoch"), 2).expect("seed epoch");

    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    assert_eq!(primary.role_info().expect("replicated").epoch, 1);
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");

    // The follower's hello carries epoch 2: the primary fences itself on
    // sight and every subsequent request — pings included — is refused.
    wait_until("primary fenced", || {
        primary.role_info().expect("replicated").role == "fenced"
    });
    let ping = raw_request(&paddr, "{\"id\":\"p\",\"op\":\"ping\"}");
    let failure = WireResponse::parse(&ping)
        .expect("parseable")
        .outcome
        .expect_err("fenced servers refuse everything");
    assert_eq!(failure.code, "RES-STALE-EPOCH");
    assert_eq!(failure.exit_code(), 4, "resource-class exit");

    // Having proven its primary stale, the follower arbitrates (no
    // peers → promotes) with an epoch above everything it observed.
    wait_until("follower promoted", || {
        follower
            .role_info()
            .is_some_and(|ri| ri.role == "primary" && ri.epoch >= 3)
    });

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn promotion_serves_retries_from_the_replicated_journal_with_zero_recompute() {
    let (pdir, fdir) = (temp_dir("promote-p"), temp_dir("promote-f"));
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    let faddr = follower.addr().to_string();

    let req = keyed_sweep("corr-p", "promoted-key", 10);
    let first = raw_request(&paddr, &req);
    assert!(WireResponse::parse(&first)
        .expect("parseable")
        .outcome
        .is_ok());
    let want = primary.role_info().expect("replicated").seq;
    wait_until("settled key replicated", || {
        query_status(&faddr, Duration::from_millis(250)).is_some_and(|st| st.seq >= want)
    });

    // The primary goes away; the follower promotes with a higher epoch.
    primary.shutdown();
    wait_until("follower promoted", || {
        follower
            .role_info()
            .is_some_and(|ri| ri.role == "primary" && ri.epoch >= 2)
    });

    // The retry does not move the caches at all: it is answered from
    // the journal.
    let before = follower.cache_stats();
    let retry = raw_request(&faddr, &req);
    assert_eq!(
        retry, first,
        "the promoted follower answers the retried key byte-identically"
    );
    assert_eq!(
        follower.cache_stats(),
        before,
        "dedup-served retry recomputes nothing"
    );
    let stats = follower.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn promotion_replays_records_the_old_primary_admitted_but_never_settled() {
    let dir = temp_dir("promote-replay");
    let req = keyed_sweep("corr-u", "unsettled-key", 5);
    {
        // The replicated journal holds an admit with no completion: the
        // primary died mid-request after the admit was shipped and acked.
        let (mut journal, _) = lintra_serve::Journal::open_dir(&dir).expect("open journal");
        journal
            .append(RecordKind::Admit, "unsettled-key", req.trim_end())
            .expect("append admit");
    }

    // A follower of a dead primary: grace expires, it promotes, and the
    // orphaned admit replays *before* it takes client traffic.
    let follower = start(follower_config(&dir, &dead_addr())).expect("follower");
    let faddr = follower.addr().to_string();
    wait_until("promotion with replay", || {
        follower
            .role_info()
            .is_some_and(|ri| ri.role == "primary" && ri.promoted_replayed == 1)
    });
    assert_eq!(follower.stats().replayed, 1);

    // The replay settled the key: the retry dedups.
    let resp = raw_request(&faddr, &req);
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());
    let stats = follower.shutdown();
    assert_eq!(stats.deduped, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_promotion_resolves_to_exactly_one_primary() {
    let (adir, bdir) = (temp_dir("race-a"), temp_dir("race-b"));
    let dead = dead_addr();
    // Two followers of the same dead primary, each naming the other as a
    // peer (addresses reserved up front so both configs can be
    // complete). Both grace timers expire around the same time; the
    // tiebreak (acked seq, then lexicographic address) must leave
    // exactly one primary and the other following it.
    let (a_addr, b_addr) = (dead_addr(), dead_addr());
    let a = start(ServerConfig {
        addr: a_addr.clone(),
        peers: vec![b_addr.clone()],
        ..follower_config(&adir, &dead)
    })
    .expect("follower a");
    let b = start(ServerConfig {
        addr: b_addr.clone(),
        peers: vec![a_addr.clone()],
        ..follower_config(&bdir, &dead)
    })
    .expect("follower b");
    let a_addr = a.addr().to_string();
    let b_addr = b.addr().to_string();

    wait_until("exactly one primary", || {
        let ra = a.role_info().expect("replicated");
        let rb = b.role_info().expect("replicated");
        let primaries = [&ra, &rb].iter().filter(|ri| ri.role == "primary").count();
        let followers: Vec<_> = [&ra, &rb]
            .iter()
            .filter(|ri| ri.role == "follower")
            .map(|ri| ri.primary.clone())
            .collect();
        let winner = if ra.role == "primary" {
            a_addr.as_str()
        } else {
            b_addr.as_str()
        };
        primaries == 1 && followers.len() == 1 && followers[0].as_deref() == Some(winner)
    });
    let winner_epoch = [a.role_info(), b.role_info()]
        .into_iter()
        .flatten()
        .find(|ri| ri.role == "primary")
        .map(|ri| ri.epoch)
        .expect("one primary");
    assert!(winner_epoch >= 2, "promotion bumped the epoch");

    b.shutdown();
    a.shutdown();
    let _ = std::fs::remove_dir_all(&adir);
    let _ = std::fs::remove_dir_all(&bdir);
}

#[test]
fn divergent_follower_is_refused_at_hello_and_never_promotes() {
    let (pdir, fdir) = (temp_dir("diverge-p"), temp_dir("diverge-f"));
    // The primary settles one keyed sweep: two journal records.
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    let resp = raw_request(&paddr, &keyed_sweep("corr-d", "diverge-key", 6));
    assert!(WireResponse::parse(&resp)
        .expect("parseable")
        .outcome
        .is_ok());

    // The follower's journal holds a record the primary never wrote —
    // the shape of a deposed primary with an unreplicated acked suffix
    // rejoined with --replica-of. Resyncing from `have + 1` would
    // silently keep the divergent record forever.
    {
        let (mut journal, _) = lintra_serve::Journal::open_dir(&fdir).expect("open journal");
        journal
            .append(
                RecordKind::Admit,
                "ghost-key",
                "{\"id\":\"g\",\"op\":\"ping\"}",
            )
            .expect("append divergent record");
    }
    let follower = start(ServerConfig {
        failover_grace: Duration::from_millis(300),
        ..follower_config(&fdir, &paddr)
    })
    .expect("follower");

    // The hello's prefix checksum betrays the divergence: the primary
    // refuses with IO-REPL-CORRUPT and the follower parks itself.
    wait_until("divergence detected", || {
        follower.role_info().is_some_and(|ri| ri.diverged)
    });
    // Well past the failover grace, the diverged follower has neither
    // promoted nor resynced: its journal still holds exactly the one
    // divergent record, and the role is still follower.
    std::thread::sleep(Duration::from_millis(900));
    let ri = follower.role_info().expect("replicated");
    assert_eq!(ri.role, "follower", "a diverged journal never promotes");
    assert!(ri.diverged);
    assert_eq!(ri.seq, 1, "no records were shipped to a diverged journal");

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn a_rotating_primary_refuses_followers_at_first_contact() {
    let (pdir, fdir) = (temp_dir("rotate-p"), temp_dir("rotate-f"));
    // Rotation rewrites journal.log, so a follower mirroring it byte for
    // byte would silently drift from the primary's history.
    let primary = start(ServerConfig {
        journal_rotate_bytes: Some(2048),
        ..repl_config(&pdir)
    })
    .expect("rotating primary");
    let paddr = primary.addr().to_string();
    for i in 0..4 {
        let rid = format!("rotate-key-{i}");
        let resp = raw_request(&paddr, &keyed_sweep(&rid, &rid, 6));
        assert!(WireResponse::parse(&resp)
            .expect("parseable")
            .outcome
            .is_ok());
    }
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    // The hello is refused with IO-REPL-CORRUPT on first contact: the
    // follower parks before a single record is shipped.
    wait_until("the follower parks at its first hello", || {
        follower.role_info().is_some_and(|ri| ri.diverged)
    });
    let ri = follower.role_info().expect("replicated");
    assert_eq!(ri.seq, 0, "no record was shipped from a rotating journal");
    assert_eq!(ri.role, "follower");

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn fencing_is_durable_across_a_restart() {
    let (pdir, fdir) = (temp_dir("refence-p"), temp_dir("refence-f"));
    // A follower that already lived through epoch 2 fences the epoch-1
    // primary on first contact (same setup as the stale-epoch test).
    std::fs::create_dir_all(&fdir).expect("mkdir");
    store_epoch(&fdir.join("epoch"), 2).expect("seed epoch");
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    wait_until("primary fenced", || {
        primary.role_info().expect("replicated").role == "fenced"
    });
    follower.shutdown();
    primary.shutdown();

    // The fence survived: the epoch file records the superseding epoch
    // plus the marker, and a plain restart comes back *fenced* — not
    // primary — so it cannot accept (and later lose) writes.
    let state = load_epoch_state(&pdir.join("epoch")).expect("epoch file readable");
    assert!(state.fenced, "the fence was persisted: {state:?}");
    // The follower fences the primary on first contact (epoch 2) and
    // again after promoting (epoch 3); either way the file carries the
    // highest superseding epoch seen, never the server's own stale 1.
    assert!(state.epoch >= 2, "the superseding epoch was persisted");
    let revived = start(repl_config(&pdir)).expect("revived");
    let ri = revived.role_info().expect("replicated");
    assert_eq!(ri.role, "fenced", "a fenced server restarts fenced");
    let ping = raw_request(
        &revived.addr().to_string(),
        "{\"id\":\"p\",\"op\":\"ping\"}",
    );
    let failure = WireResponse::parse(&ping)
        .expect("parseable")
        .outcome
        .expect_err("still fenced");
    assert_eq!(failure.code, "RES-STALE-EPOCH");
    revived.shutdown();

    // An explicit --replica-of rejoin clears the marker: the operator
    // chose a primary to resync from.
    let surrogate = start(follower_config(&pdir, &dead_addr())).expect("rejoin");
    let state = load_epoch_state(&pdir.join("epoch")).expect("epoch file readable");
    assert!(!state.fenced, "an explicit rejoin clears the fence marker");
    surrogate.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn corrupt_epoch_file_fails_startup_instead_of_resetting() {
    let dir = temp_dir("epoch-garbage");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("epoch"), "not-an-epoch").expect("write");
    let err = start(repl_config(&dir)).expect_err("corrupt epoch file must not start");
    assert_eq!(err.class(), lintra::ErrorClass::Io, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn self_alias_in_the_peer_list_never_blocks_promotion() {
    let dir = temp_dir("self-alias");
    // The operator lists this very server under `0.0.0.0:<port>` — an
    // alias that sorts lexicographically below the bound
    // `127.0.0.1:<port>`, so an address-string tiebreak would defer to
    // it every round and never promote. The status nonce sees through
    // the alias.
    let own = dead_addr();
    let port = own.rsplit(':').next().expect("port");
    let follower = start(ServerConfig {
        addr: own.clone(),
        peers: vec![format!("0.0.0.0:{port}")],
        ..follower_config(&dir, &dead_addr())
    })
    .expect("follower");
    wait_until("promotion past the self-alias", || {
        follower.role_info().is_some_and(|ri| ri.role == "primary")
    });
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn equal_epoch_primaries_resolve_to_exactly_one() {
    let (adir, bdir) = (temp_dir("duel-a"), temp_dir("duel-b"));
    // Promotion epochs are collision-free, so an equal-epoch duel can
    // only be seeded by operator error: both servers hand-seeded into
    // epoch 5 and started as primaries of the same cluster. The guard
    // loops must resolve it deterministically — the lexicographically
    // larger address fences itself.
    for dir in [&adir, &bdir] {
        std::fs::create_dir_all(dir).expect("mkdir");
        store_epoch(&dir.join("epoch"), 5).expect("seed epoch");
    }
    let (a_addr, b_addr) = (dead_addr(), dead_addr());
    let a = start(ServerConfig {
        addr: a_addr.clone(),
        peers: vec![b_addr.clone()],
        ..repl_config(&adir)
    })
    .expect("primary a");
    let b = start(ServerConfig {
        addr: b_addr.clone(),
        peers: vec![a_addr.clone()],
        ..repl_config(&bdir)
    })
    .expect("primary b");
    let loser_first = a.addr().to_string() > b.addr().to_string();
    let (winner, loser) = if loser_first { (&b, &a) } else { (&a, &b) };
    wait_until("the larger address fences itself", || {
        loser.role_info().is_some_and(|ri| ri.role == "fenced")
    });
    assert_eq!(
        winner.role_info().expect("replicated").role,
        "primary",
        "exactly one primary survives the duel"
    );
    b.shutdown();
    a.shutdown();
    let _ = std::fs::remove_dir_all(&adir);
    let _ = std::fs::remove_dir_all(&bdir);
}

#[test]
fn client_walks_the_endpoint_list_past_replicas_and_dead_servers() {
    let (pdir, fdir) = (temp_dir("walk-p"), temp_dir("walk-f"));
    let primary = start(repl_config(&pdir)).expect("primary");
    let paddr = primary.addr().to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");
    let faddr = follower.addr().to_string();

    // Dead server first, then the follower (which redirects), then the
    // primary: one request walks all three without exhausting retries.
    let client = Client::new(format!("{}, {faddr}, {paddr}", dead_addr()));
    assert_eq!(client.endpoints.len(), 3);
    let resp = client
        .request(&WireRequest::new(
            "walk",
            WireOp::Sweep {
                design: "chemical".to_string(),
                max_i: 4,
            },
        ))
        .expect("the walk reaches the primary");
    assert!(resp.outcome.is_ok(), "{resp:?}");

    follower.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&fdir);
}

/// Asymmetric partition from the client's point of view: its first
/// endpoint is a fenced ex-primary (reachable, but only redirects), its
/// second is unreachable, and only the third serves. The walk must
/// converge inside a *single* attempt — redirects and refused connects
/// never burn the retry/backoff budget.
#[test]
fn client_walks_past_a_fenced_ex_primary_within_one_attempt() {
    let (fenced_dir, pdir) = (temp_dir("part-fenced"), temp_dir("part-p"));
    // Seed a durable fence marker so the server starts *fenced*, exactly
    // as a deposed primary restarts after losing an epoch race.
    std::fs::create_dir_all(&fenced_dir).expect("mkdir");
    lintra_serve::store_epoch_state(
        &fenced_dir.join("epoch"),
        lintra_serve::EpochState {
            epoch: 3,
            fenced: true,
        },
    )
    .expect("seed fence");
    let fenced = start(repl_config(&fenced_dir)).expect("fenced server");
    assert_eq!(
        fenced.role_info().expect("replicated").role,
        "fenced",
        "precondition: the first endpoint refuses writes"
    );
    let primary = start(repl_config(&pdir)).expect("primary");

    // max_attempts = 1: success proves the whole walk — redirect,
    // refused connect, answer — fit in one attempt with zero backoff.
    let client = Client::with_policy(
        format!("{}, {}, {}", fenced.addr(), dead_addr(), primary.addr()),
        lintra_serve::RetryPolicy {
            max_attempts: 1,
            ..lintra_serve::RetryPolicy::default()
        },
    );
    let resp = client
        .request(&WireRequest::new("part-walk", WireOp::Ping).with_request_id("part-walk"))
        .expect("the walk converges in one attempt");
    assert!(resp.outcome.is_ok(), "{resp:?}");

    primary.shutdown();
    fenced.shutdown();
    let _ = std::fs::remove_dir_all(&fenced_dir);
    let _ = std::fs::remove_dir_all(&pdir);
}

/// Full partition: every endpoint is unreachable. The client must fail
/// fast with the deadline-classified error once the request's response
/// budget is spent, instead of grinding through the whole exponential
/// backoff schedule.
#[test]
fn fully_partitioned_client_fails_fast_with_deadline_exhausted() {
    let client = Client::with_policy(
        format!("{}, {}", dead_addr(), dead_addr()),
        lintra_serve::RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(2),
            ..lintra_serve::RetryPolicy::default()
        },
    );
    let mut req = WireRequest::new("part-dead", WireOp::Ping).with_request_id("part-dead");
    req.deadline_ms = Some(50); // response budget: 2*50 + 500 = 600 ms

    let started = Instant::now();
    let err = client.request(&req).expect_err("every endpoint is dead");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, lintra_serve::ClientError::DeadlineExhausted { .. }),
        "expected the fast RES-DEADLINE failure, got {err:?}"
    );
    assert_eq!(err.exit_code(), lintra::ErrorClass::Resource.exit_code());
    // The full 10-attempt schedule would sleep for many seconds; the
    // budget cap must stop it well short of that.
    assert!(
        elapsed < Duration::from_secs(3),
        "client ground through the backoff schedule: {elapsed:?}"
    );
}

#[test]
fn corrupt_stream_records_are_refused_never_appended() {
    // This test acts as the *primary*: it accepts the follower's dials
    // and feeds it records by hand, one of them with a poisoned CRC.
    let fdir = temp_dir("corrupt-stream");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake primary");
    let paddr = listener.local_addr().expect("addr").to_string();
    let follower = start(follower_config(&fdir, &paddr)).expect("follower");

    let good_line = "{\"id\":\"x\",\"op\":\"ping\"}";
    let good_crc = lintra::engine::crc32(&payload_bytes(RecordKind::Admit, "crc-key", good_line));
    let rec = |crc: u32| ReplMsg::Rec {
        epoch: 1,
        seq: 1,
        crc,
        kind: RecordKind::Admit,
        rid: "crc-key".to_string(),
        line: good_line.to_string(),
    };

    let read_reply = |stream: &mut TcpStream| -> Option<ReplMsg> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => return None,
                Ok(_) if byte[0] == b'\n' => break,
                Ok(_) => buf.push(byte[0]),
                Err(e) => panic!("read: {e}"),
            }
        }
        ReplMsg::parse(String::from_utf8_lossy(&buf).trim_end())
    };

    // First dial: hello, then a record whose CRC does not match.
    let (mut conn, _) = listener.accept().expect("follower dials");
    assert!(matches!(
        read_reply(&mut conn),
        Some(ReplMsg::Hello { have: 0, .. })
    ));
    conn.write_all(rec(good_crc ^ 0xFFFF).render_line().as_bytes())
        .expect("send poisoned record");
    match read_reply(&mut conn).expect("refusal comes back") {
        ReplMsg::Err { code, .. } => assert_eq!(code, "IO-REPL-CORRUPT"),
        other => panic!("expected IO-REPL-CORRUPT, got {other:?}"),
    }
    drop(conn);

    // The poisoned record was never appended: the reconnect still says
    // `have: 0`, and this time the valid CRC is acked and made durable.
    let (mut conn, _) = listener.accept().expect("follower redials");
    assert!(matches!(
        read_reply(&mut conn),
        Some(ReplMsg::Hello { have: 0, .. })
    ));
    conn.write_all(rec(good_crc).render_line().as_bytes())
        .expect("send valid record");
    assert!(matches!(
        read_reply(&mut conn),
        Some(ReplMsg::Ack { seq: 1 })
    ));
    let ri = follower.role_info().expect("replicated");
    assert_eq!(ri.seq, 1, "exactly the verified record is durable");

    drop(conn);
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fdir);
}

#[test]
fn a_flooded_follower_stream_is_closed() {
    // A follower stream is framed like every other connection: a peer
    // that says a valid hello and then streams newline-free bytes past
    // the frame cap is cut off, instead of growing the primary's buffer
    // without bound.
    let dir = temp_dir("flood-p");
    let primary = start(repl_config(&dir)).expect("primary");
    let mut stream = TcpStream::connect(primary.addr()).expect("connect");
    let hello = ReplMsg::Hello {
        epoch: 1,
        have: 0,
        pcrc: prefix_crc(&[]),
        from: "flood".to_string(),
    };
    stream
        .write_all(hello.render_line().as_bytes())
        .expect("send hello");
    stream
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("the stream is live");
    assert!(
        matches!(ReplMsg::parse(first.trim_end()), Some(ReplMsg::Hb { .. })),
        "expected a heartbeat, got {first:?}"
    );

    let flood = std::thread::spawn(move || {
        let junk = vec![b'x'; 64 * 1024];
        let mut sent = 0usize;
        while sent <= MAX_FRAME_BYTES + junk.len() {
            if stream.write_all(&junk).is_err() {
                break; // the primary already closed the stream
            }
            sent += junk.len();
        }
    });
    let started = Instant::now();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            _ => assert!(
                started.elapsed() < Duration::from_secs(30),
                "the flooded stream is still open after 30 s"
            ),
        }
    }
    flood.join().expect("flood thread");
    assert_eq!(primary.role_info().expect("replicated").role, "primary");
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
