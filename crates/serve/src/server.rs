//! The `lintra-serve` TCP server.
//!
//! Transport: newline-delimited JSON over TCP (see
//! [`lintra_bench::wire`]), one thread per connection, requests handled
//! inline on the connection thread: `tables` fans out over the shared
//! engine [`ThreadPool`], and each request's points (a sweep's unfolding
//! factors, an optimization's one point) run in order on one worker
//! under the watchdog. Robustness machinery, outermost first:
//!
//! 1. **Malformed input** never crosses the parse boundary: any
//!    unparseable or invalid request line is answered with a
//!    `VAL-MALFORMED-REQUEST` failure and the connection stays usable.
//! 2. **Admission control**: at most [`ServerConfig::max_inflight`]
//!    requests execute at once; excess load is *shed* immediately with
//!    `RES-OVERLOAD` (never queued unboundedly, so latency stays bounded
//!    under overload).
//! 3. **Deadlines**: every request gets a [`CancelToken`] fixed at
//!    admission ([`WireRequest::deadline_ms`] or the server default).
//!    Sweeps observe it between points, so an expired request returns
//!    `RES-DEADLINE` within one sweep point of its budget — the "2× the
//!    deadline" service guarantee.
//! 4. **Watchdog**: a sweep point whose run, from its start to its
//!    return, exceeds [`ServerConfig::stall_budget`] is flagged
//!    `RES-WORKER-STALL` rather than trusted.
//! 5. **Circuit breaker**: consecutive engine worker panics open the
//!    breaker ([`crate::breaker`]); requests are rejected with
//!    `RES-CIRCUIT-OPEN` until a cooldown and a successful probe.
//! 6. **Graceful drain**: [`ServerHandle::shutdown`] stops accepting,
//!    answers new requests with `RES-SHUTDOWN`, lets every in-flight
//!    request finish and its response flush, then joins all threads.
//!
//! Chaos testing: a server started with [`ServerConfig::chaos`] honors
//! the request's `fault` member (`slow-worker`, `slow-sweep`,
//! `worker-panic`, `conn-drop`) so the full failure matrix can be driven
//! deterministically from a test. Production servers reject the member
//! with `VAL-CONFIG`.
//!
//! # Durability
//!
//! A server started with [`ServerConfig::journal_dir`] is *durable*:
//!
//! * every request carrying a `lintra-wire/v2` `request_id` is appended
//!   to a write-ahead journal and **fsync'd before execution begins**
//!   ([`crate::journal`]);
//! * completions are journaled too, so a retry of a settled key is
//!   answered with the journaled, bit-identical result — zero sweep
//!   recompute ([`ServerStats::deduped`]) — while the *same* key
//!   arriving twice concurrently is rejected with
//!   `RES-DUPLICATE-REQUEST`;
//! * on restart, admitted-but-unfinished requests are re-executed
//!   before the listener opens ([`ServerStats::replayed`],
//!   [`RecoveryReport`]);
//! * a corrupt journal is quarantined (`IO-JOURNAL-CORRUPT`) — the
//!   server always starts;
//! * sweep caches stay in memory: a restart or a promotion starts them
//!   cold, because recomputing a sweep costs less than an fsync'd
//!   checkpoint of its cache.
//!
//! # Replication
//!
//! A durable server can replicate ([`crate::replicate`]): started with
//! [`ServerConfig::replica_of`] it is a *follower* — it streams the
//! primary's journal into its own (fsync-before-ack), answers pings and
//! replication status queries, rejects compute with `RES-NOT-PRIMARY`,
//! and promotes itself (new epoch, replay of unsettled records) when
//! the primary stays silent past [`ServerConfig::failover_grace`]. A
//! deposed primary is *fenced*: once a higher epoch exists, every
//! request it receives — pings included — is refused with
//! `RES-STALE-EPOCH`.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use lintra::engine::{
    CacheStats, CancelReason, CancelToken, EngineError, SweepCache, SweepCtl, ThreadPool,
};
use lintra::matrix::rng::SplitMix64;
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, Strategy, TechConfig};
use lintra::suite::by_name;
use lintra::{ErrorClass, LintraError};
use lintra_bench::json::Json;
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::wire::{WireFailure, WireOp, WireRequest, WireResponse};
use lintra_bench::{
    table2_rows_engine, table3_rows_engine, table4_rows_engine, unfold_sweep_point, SuiteCaches,
};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::clock::{Clock, SystemClock};
use crate::journal::Journal;
use crate::protocol::{Core, CoreConfig, Input, Output};
use crate::replicate::{self, Disk, Repl, ReplChaos, ReplMsg, StatusView};
use crate::signal;
use crate::transport::{accept_loop, serve_connection, Conn, Listener};

/// The fault names a chaos server honors.
const KNOWN_FAULTS: [&str; 4] = ["slow-worker", "slow-sweep", "worker-panic", "conn-drop"];

/// Server tuning; [`ServerConfig::default`] is production-shaped. The
/// server serves TCP and reads time from a [`SystemClock`] of its own:
/// the simulator drives its replication core ([`crate::protocol`])
/// directly, so nothing here substitutes the network or the clock.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port `0` to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission bound: requests executing at once before load is shed
    /// with `RES-OVERLOAD`.
    pub max_inflight: usize,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline: Duration,
    /// Ceiling on client-requested deadlines (a client cannot pin a
    /// worker for longer than this).
    pub max_deadline: Duration,
    /// Watchdog budget per sweep point (`RES-WORKER-STALL` beyond it).
    pub stall_budget: Duration,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Engine worker threads for `tables` (`None` = `LINTRA_JOBS` /
    /// auto-detect). A sweep runs on one worker whatever this says.
    pub jobs: Option<usize>,
    /// Honor the wire `fault` member (chaos testing only).
    pub chaos: bool,
    /// Per-point delay injected by the `slow-sweep` fault (and the sleep
    /// used by `slow-worker`, which sleeps `3 × stall_budget`).
    pub chaos_point_delay: Duration,
    /// Durability directory (`None` = stateless). When set, the server
    /// keeps a write-ahead request journal (`journal.log`) here, replays
    /// unfinished work on startup, and answers retried `request_id`s
    /// from the journal.
    pub journal_dir: Option<PathBuf>,
    /// Size-capped journal rotation: when `Some(t)`, an append that
    /// leaves `journal.log` above `t` bytes compacts settled records
    /// into a `journal.seg-N` segment and truncates the live log.
    /// Requires [`ServerConfig::journal_dir`] and is incompatible with
    /// replication — followers mirror the primary's journal *file*
    /// byte-for-byte, and rotation rewrites it.
    pub journal_rotate_bytes: Option<u64>,
    /// Replicate from this primary (`host:port`). Requires
    /// [`ServerConfig::journal_dir`]; the server starts as a follower.
    pub replica_of: Option<String>,
    /// Peer replica addresses consulted during failover arbitration and
    /// watched for higher epochs (a primary self-fences when a peer
    /// reports one). Requires [`ServerConfig::journal_dir`].
    pub peers: Vec<String>,
    /// Where the epoch file lives (`None` = the journal directory).
    pub epoch_dir: Option<PathBuf>,
    /// How long a follower tolerates primary silence before arbitrating
    /// a failover.
    pub failover_grace: Duration,
    /// Primary→follower heartbeat interval while the stream is idle.
    pub heartbeat: Duration,
    /// Deterministic replication-fault injection (tests only).
    pub repl_chaos: Option<ReplChaos>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 32,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(300),
            stall_budget: Duration::from_secs(10),
            breaker: BreakerConfig::default(),
            jobs: None,
            chaos: false,
            chaos_point_delay: Duration::from_millis(20),
            journal_dir: None,
            journal_rotate_bytes: None,
            replica_of: None,
            peers: Vec::new(),
            epoch_dir: None,
            failover_grace: Duration::from_secs(2),
            heartbeat: Duration::from_millis(250),
            repl_chaos: None,
        }
    }
}

/// Monotonic counters, readable at any time and returned by
/// [`ServerHandle::shutdown`] as the drain report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered with a result.
    pub requests_ok: u64,
    /// Requests answered with a classified failure.
    pub requests_failed: u64,
    /// Requests shed with `RES-OVERLOAD`.
    pub shed: u64,
    /// Retried `request_id`s answered from the journal (zero recompute).
    pub deduped: u64,
    /// Journaled requests re-executed during startup recovery.
    pub replayed: u64,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    connections: AtomicU64,
    requests_ok: AtomicU64,
    requests_failed: AtomicU64,
    shed: AtomicU64,
    deduped: AtomicU64,
    pub(crate) replayed: AtomicU64,
}

/// What startup recovery found in the durability directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Settled keys loaded from the journal (servable to retries).
    pub answered: usize,
    /// Admitted-but-unfinished requests re-executed before the listener
    /// opened.
    pub replayed: usize,
    /// True when a torn journal tail was truncated away (the normal
    /// `kill -9` artifact; not corruption).
    pub torn_tail: bool,
    /// Where a corrupt journal was moved, if one was found
    /// (`IO-JOURNAL-CORRUPT`).
    pub journal_quarantined: Option<PathBuf>,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    /// The server's one time base: every instant its core and breaker
    /// see is read here.
    pub(crate) clock: SystemClock,
    pool: ThreadPool,
    breaker: CircuitBreaker,
    inflight: AtomicUsize,
    pub(crate) draining: AtomicBool,
    pub(crate) stats: Counters,
    /// Shared per-design sweep caches: repeated sweeps reuse the
    /// incremental-unfold chain.
    pub(crate) caches: Mutex<HashMap<String, SweepCache>>,
    /// The journal and the replication core (`Some` iff durable — every
    /// durable server can stream to followers; only configured followers
    /// dial out).
    pub(crate) repl: Option<Repl>,
}

/// A replicated server's role, epoch, and progress — the operator's view
/// ([`ServerHandle::role_info`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoleInfo {
    /// Role label: `primary`, `follower`, `promoting`, or `fenced`.
    pub role: &'static str,
    /// Current epoch (term).
    pub epoch: u64,
    /// Journal records held (the replication sequence number).
    pub seq: u64,
    /// The primary a follower replicates from, if any.
    pub primary: Option<String>,
    /// The higher epoch that fenced this server, if fenced.
    pub fenced_by: Option<u64>,
    /// Requests replayed during a promotion on this process.
    pub promoted_replayed: u64,
    /// True when this follower's journal was proven to have diverged
    /// from its primary's (`IO-REPL-CORRUPT` at hello): replication
    /// stopped and it will never promote; wipe and re-seed.
    pub diverged: bool,
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// initiates a drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
    repl_threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (resolves port `0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.stats;
        ServerStats {
            connections: c.connections.load(Ordering::SeqCst),
            requests_ok: c.requests_ok.load(Ordering::SeqCst),
            requests_failed: c.requests_failed.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            deduped: c.deduped.load(Ordering::SeqCst),
            replayed: c.replayed.load(Ordering::SeqCst),
        }
    }

    /// What startup recovery found (`None` on a stateless server).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Replication role, epoch, and progress (`None` on a stateless
    /// server — replication requires durability).
    pub fn role_info(&self) -> Option<RoleInfo> {
        let node = self.shared.repl.as_ref()?.lock();
        let core = &node.core;
        Some(RoleInfo {
            role: core.role().label(),
            epoch: core.epoch(),
            seq: core.seq(),
            primary: core.primary().map(str::to_string),
            fenced_by: core.fenced_by(),
            promoted_replayed: core.promoted_replayed(),
            diverged: core.diverged(),
        })
    }

    /// Aggregate hit/miss counters across the shared sweep caches —
    /// the crash gate's "zero recompute" witness: a dedup-served retry
    /// adds no misses here.
    pub fn cache_stats(&self) -> CacheStats {
        let caches = lock_unpoisoned(&self.shared.caches);
        caches.values().fold(CacheStats::default(), |acc, c| {
            let s = c.stats();
            CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            }
        })
    }

    /// Graceful drain: stop accepting, answer new requests with
    /// `RES-SHUTDOWN`, let every in-flight request finish and flush its
    /// response, join all threads. Returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake any idle follower streams so they observe the drain.
        if let Some(repl) = &self.shared.repl {
            repl.notify();
        }
        // The accept loop returns once every connection thread is done.
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in std::mem::take(&mut self.repl_threads) {
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Idempotent: makes a forgotten handle wind its threads down on
        // their next poll instead of leaking them hot.
        self.shared.draining.store(true, Ordering::SeqCst);
    }
}

pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Binds and starts serving in background threads.
///
/// A durable server ([`ServerConfig::journal_dir`]) recovers *before*
/// the listener opens: the journal is scanned (torn tail truncated,
/// corruption quarantined) and admitted-but-unfinished requests are
/// re-executed — so the first client to connect sees a consistent
/// service.
///
/// # Errors
///
/// Returns an `IO-FAILURE` error when the bind fails (or the durability
/// directory is unusable) and a `VAL-CONFIG` error for an invalid
/// worker-count configuration (explicit `Some(0)` or a garbage
/// `LINTRA_JOBS`). Damaged journal *content* never fails startup — it
/// is quarantined and reported in [`RecoveryReport`].
pub fn start(config: ServerConfig) -> Result<ServerHandle, LintraError> {
    if (config.replica_of.is_some() || !config.peers.is_empty()) && config.journal_dir.is_none() {
        return Err(LintraError::new(
            ErrorClass::Validation,
            "VAL-CONFIG",
            "replication requires durability: set journal_dir alongside replica_of/peers",
        ));
    }
    if config.journal_rotate_bytes.is_some() {
        if config.journal_dir.is_none() {
            return Err(LintraError::new(
                ErrorClass::Validation,
                "VAL-CONFIG",
                "journal rotation requires durability: set journal_dir",
            ));
        }
        if config.replica_of.is_some() || !config.peers.is_empty() {
            return Err(LintraError::new(
                ErrorClass::Validation,
                "VAL-CONFIG",
                "journal rotation is incompatible with replication: followers mirror \
                 the primary's journal byte-for-byte and rotation rewrites it",
            ));
        }
    }
    let pool = match config.jobs {
        Some(0) => {
            return Err(LintraError::new(
                ErrorClass::Validation,
                "VAL-CONFIG",
                "server worker count must be at least 1",
            ))
        }
        Some(n) => ThreadPool::new(n),
        None => ThreadPool::from_env().map_err(LintraError::from)?,
    };

    // Recover durable state before anything can observe the server.
    let mut recovery = None;
    let mut durable = None;
    if let Some(dir) = &config.journal_dir {
        let (journal, rec) =
            Journal::open_dir_with(dir, config.journal_rotate_bytes).map_err(LintraError::from)?;
        recovery = Some(RecoveryReport {
            answered: rec.completed.len(),
            torn_tail: rec.torn_tail,
            journal_quarantined: rec.quarantined,
            ..RecoveryReport::default()
        });
        let epoch_dir = config.epoch_dir.as_ref().unwrap_or(dir);
        std::fs::create_dir_all(epoch_dir).map_err(LintraError::from)?;
        // A corrupt epoch file is a startup error: silently resetting
        // it to epoch 1 could revive a fenced primary at a stale term.
        let epoch_path = epoch_dir.join(replicate::EPOCH_FILE);
        let state = replicate::load_epoch_state(&epoch_path)
            .map_err(|e| LintraError::from(e).context("loading the replication epoch file"))?;
        let folded = (rec.completed, rec.incomplete);
        durable = Some((journal, rec.records, folded, state, epoch_path));
    }
    let timer_thread = config.replica_of.is_some() || !config.peers.is_empty();

    let listener = Listener::bind(&config.addr)?;
    let addr = listener.addr;
    let clock = SystemClock::new();

    let mut boot = Vec::new();
    let repl = durable.map(|(journal, records, folded, state, epoch_path)| {
        let cfg = CoreConfig {
            self_addr: addr.to_string(),
            peers: config.peers.clone(),
            replica_of: config.replica_of.clone(),
            heartbeat: config.heartbeat,
            grace: config.failover_grace,
            peer_timeout: replicate::PEER_TIMEOUT,
            nonce: process_nonce(&epoch_path, &clock),
            source: config.journal_rotate_bytes.is_none(),
        };
        let mut disk = Disk {
            journal,
            epoch_path,
        };
        let (core, replays) = Core::new(cfg, clock.now(), records, folded, state, &mut disk);
        boot = replays;
        Repl::new(core, disk, timer_thread)
    });

    let shared = Arc::new(Shared {
        breaker: CircuitBreaker::new(config.breaker),
        config,
        clock,
        pool,
        inflight: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        stats: Counters::default(),
        caches: Mutex::new(HashMap::new()),
        repl,
    });

    // Replay unfinished admissions synchronously: each settles with a
    // journaled completion, so a retry of its key dedups instead of
    // recomputing. Only a primary boots with replays — a follower's
    // unsettled records replay at promotion. A shutdown signal aborts
    // the replay at the next record boundary.
    let mut replayed = 0usize;
    if let Some(repl) = &shared.repl {
        for out in boot {
            let Output::Execute { rid, line, .. } = out else {
                continue;
            };
            if signal::shutdown_requested() {
                break;
            }
            let resp = replay_response(&shared, &line);
            repl.drive(shared.clock.now(), Input::Settle { rid, resp });
            shared.stats.replayed.fetch_add(1, Ordering::SeqCst);
            replayed += 1;
        }
    }
    if let Some(report) = recovery.as_mut() {
        report.replayed = replayed;
    }

    let accept = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let sh = Arc::clone(&shared);
            let serve = move |conn| connection(&sh, conn);
            accept_loop(listener, &shared.draining, &shared.clock, serve);
        })
    };

    let mut repl_threads = Vec::new();
    if shared.repl.is_some() && timer_thread {
        let sh = Arc::clone(&shared);
        repl_threads.push(thread::spawn(move || replicate::repl_loop(&sh)));
    }

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        recovery,
        repl_threads,
    })
}

/// Re-executes one journaled-but-unfinished request (startup recovery
/// or promotion). The original client is gone; what matters is that the
/// key settles so retries are answered from the journal.
pub(crate) fn replay_response(shared: &Arc<Shared>, line: &str) -> WireResponse {
    match WireRequest::parse(line) {
        Ok(req) => {
            let budget = req
                .deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(shared.config.default_deadline)
                .min(shared.config.max_deadline);
            let token = CancelToken::with_deadline(budget);
            match execute(shared, &req, &token) {
                Ok(result) => WireResponse::ok(req.id, result),
                Err(e) => WireResponse::err(req.id, failure_of(&e)),
            }
        }
        // A journaled line that no longer parses settles as a
        // deterministic validation failure (it would never succeed).
        Err(reason) => WireResponse::err(
            "",
            WireFailure {
                class: ErrorClass::Validation,
                code: "VAL-MALFORMED-REQUEST".to_string(),
                message: format!("journaled request no longer parses: {reason}"),
            },
        ),
    }
}

/// A per-process identity for status replies, so a status query that
/// loops back to this very server (hostname vs IP alias, `0.0.0.0`
/// bind) is recognized as self, not a peer. A process-wide counter keeps
/// it unique within this process even under a frozen clock, the pid
/// separates processes on one host, and the monotonic clock separates
/// hosts.
fn process_nonce(epoch_path: &std::path::Path, clock: &dyn Clock) -> u64 {
    static NONCE_SEQ: AtomicU64 = AtomicU64::new(0);
    let mut hasher = DefaultHasher::new();
    std::process::id().hash(&mut hasher);
    epoch_path.hash(&mut hasher);
    NONCE_SEQ.fetch_add(1, Ordering::SeqCst).hash(&mut hasher);
    clock.now().hash(&mut hasher);
    // JSON numbers are f64: keep the nonce within 2^53 so it round-trips
    // the wire exactly.
    SplitMix64::new(hasher.finish()).next_u64() & ((1 << 53) - 1)
}

/// What to do with one request line.
enum LineOutcome {
    Respond(WireResponse),
    /// Close the connection without responding (`conn-drop` chaos).
    Drop,
}

/// Serves one client connection; a frame either guard refuses counts as
/// a failed request.
fn connection(shared: &Arc<Shared>, mut conn: Box<dyn Conn>) {
    shared.stats.connections.fetch_add(1, Ordering::SeqCst);
    let (clock, draining) = (&shared.clock, &shared.draining);
    let deadline = shared.config.default_deadline;
    let answer = |conn: &mut dyn Conn, line: &str| answer_line(shared, conn, line);
    if serve_connection(conn.as_mut(), clock, draining, deadline, answer) {
        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
    }
}

/// Answers one line on `conn`; `false` closes the connection.
fn answer_line(shared: &Arc<Shared>, conn: &mut dyn Conn, line: &str) -> bool {
    // Replication messages share the listener with client traffic; a
    // `"repl"`-keyed line never reaches handle_line. Status is answered
    // even without replication configured — health probers (the sharded
    // router's, an operator's) must be able to ask a standalone server
    // who it is, and the reply's `stateless` role is how they learn it
    // serves.
    if let Some(msg) = ReplMsg::parse(line) {
        return match (msg, &shared.repl) {
            (ReplMsg::Status, repl) => {
                let reply = match repl {
                    Some(repl) => repl.lock().core.status(),
                    None => stateless_status(),
                };
                conn.send(reply.render_line().as_bytes()).is_ok()
            }
            (hello @ ReplMsg::Hello { .. }, Some(repl)) => {
                // The connection becomes a follower stream.
                replicate::serve_stream(shared, repl, conn, hello);
                false
            }
            // Anything else arriving cold — or a follower handshake aimed
            // at an unreplicated server — is a protocol violation: close.
            _ => false,
        };
    }
    match handle_line(shared, line) {
        LineOutcome::Drop => false,
        LineOutcome::Respond(resp) => conn.send(resp.render_line().as_bytes()).is_ok(),
    }
}

/// A stateless server's answer to a status query: health probers (the
/// sharded router's, an operator's) learn from the role that it serves.
fn stateless_status() -> ReplMsg {
    ReplMsg::StatusReply(StatusView {
        role: "stateless".to_string(),
        ..StatusView::default()
    })
}

fn failure_of(e: &LintraError) -> WireFailure {
    // The wire form re-renders the `error[CODE] class:` prefix on the
    // client side, so carry only the bare message + flattened context.
    let mut message = e.message().to_string();
    for frame in e.context_frames() {
        message.push_str("; while ");
        message.push_str(frame);
    }
    WireFailure {
        class: e.class(),
        code: e.code().to_string(),
        message,
    }
}

fn reject(id: &str, class: ErrorClass, code: &str, message: impl Into<String>) -> LineOutcome {
    LineOutcome::Respond(WireResponse::err(
        id,
        WireFailure {
            class,
            code: code.to_string(),
            message: message.into(),
        },
    ))
}

/// Decrements the in-flight gauge on scope exit, even on panic.
struct Permit<'g> {
    gauge: &'g AtomicUsize,
}

impl<'g> Permit<'g> {
    fn try_acquire(gauge: &'g AtomicUsize, cap: usize) -> Option<Permit<'g>> {
        gauge
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Permit { gauge })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_line(shared: &Arc<Shared>, line: &str) -> LineOutcome {
    let req = match WireRequest::parse(line) {
        Ok(req) => req,
        Err(reason) => {
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            // Best-effort id echo so pipelined clients can correlate.
            let id = Json::parse(line)
                .ok()
                .and_then(|doc| doc.get("id").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            return reject(
                &id,
                ErrorClass::Validation,
                "VAL-MALFORMED-REQUEST",
                format!("malformed request: {reason}"),
            );
        }
    };

    // Version negotiation: a frame declaring a version this build does
    // not speak is a *configuration* disagreement (VAL-CONFIG), answered
    // with the right correlation id — never misread as a v1/v2 frame.
    if let Err(reason) = req.check_version() {
        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
        return reject(&req.id, ErrorClass::Validation, "VAL-CONFIG", reason);
    }

    // Replication role gate (the core's): a fenced server refuses
    // everything, pings included; a follower answers pings but sends
    // compute to the primary.
    let ping = matches!(req.op, WireOp::Ping);
    if let Some(f) = shared
        .repl
        .as_ref()
        .and_then(|r| r.lock().core.refusal(ping))
    {
        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
        return LineOutcome::Respond(WireResponse::err(req.id, f));
    }

    // Chaos gate: reject typos always, reject injection on production
    // servers, honor conn-drop by closing without a response.
    if let Some(fault) = req.fault.as_deref() {
        if !KNOWN_FAULTS.contains(&fault) {
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            return reject(
                &req.id,
                ErrorClass::Validation,
                "VAL-CONFIG",
                format!(
                    "unknown fault `{fault}`; known: {}",
                    KNOWN_FAULTS.join(", ")
                ),
            );
        }
        if !shared.config.chaos {
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            return reject(
                &req.id,
                ErrorClass::Validation,
                "VAL-CONFIG",
                "fault injection is disabled on this server (start with chaos enabled)",
            );
        }
        if fault == "conn-drop" {
            return LineOutcome::Drop;
        }
    }

    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
        return reject(
            &req.id,
            ErrorClass::Resource,
            "RES-SHUTDOWN",
            "server is draining and no longer accepts work",
        );
    }

    // Liveness probe: outside admission control and the breaker, so
    // health checks keep answering under overload or an open circuit.
    if ping {
        shared.stats.requests_ok.fetch_add(1, Ordering::SeqCst);
        return LineOutcome::Respond(WireResponse::ok(
            req.id,
            Json::obj([("pong", Json::Bool(true))]),
        ));
    }

    // Admission control: shed, never queue.
    let Some(_permit) = Permit::try_acquire(&shared.inflight, shared.config.max_inflight) else {
        shared.stats.shed.fetch_add(1, Ordering::SeqCst);
        return reject(
            &req.id,
            ErrorClass::Resource,
            "RES-OVERLOAD",
            format!(
                "admission queue full ({} requests in flight); shed — retry with backoff",
                shared.config.max_inflight
            ),
        );
    };

    // Circuit breaker around the engine.
    if let Err(retry_in) = shared.breaker.admit(shared.clock.now()) {
        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
        return reject(
            &req.id,
            ErrorClass::Resource,
            "RES-CIRCUIT-OPEN",
            format!(
                "circuit open after consecutive worker panics; retry in ~{} ms",
                retry_in.as_millis().max(1)
            ),
        );
    }

    // Durable idempotency (keyed requests on a durable server only),
    // decided by the core: a settled key answers from the journal
    // bit-identically with zero recompute; a key still executing is
    // rejected; a fresh key is journaled and fsync'd *before* execution
    // begins, so a crash between here and the response replays it.
    let mut journaled = None;
    if let (Some(repl), Some(rid)) = (&shared.repl, req.request_id.as_deref()) {
        let admit = Input::Admit {
            from: String::new(),
            id: req.id.clone(),
            rid: rid.to_string(),
            line: line.to_string(),
        };
        for out in repl.drive(shared.clock.now(), admit) {
            match out {
                Output::Reply { resp, dedup, .. } => {
                    let counter = if resp.outcome.is_ok() {
                        &shared.stats.requests_ok
                    } else {
                        &shared.stats.requests_failed
                    };
                    counter.fetch_add(1, Ordering::SeqCst);
                    if dedup {
                        shared.stats.deduped.fetch_add(1, Ordering::SeqCst);
                    }
                    return LineOutcome::Respond(resp);
                }
                Output::Execute { rid, .. } => journaled = Some((repl, rid)),
                _ => {}
            }
        }
    }

    // Deadline fixed at admission; observed between sweep points.
    let budget = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.config.default_deadline)
        .min(shared.config.max_deadline);
    let token = CancelToken::with_deadline(budget);

    let outcome = execute(shared, &req, &token);
    // Only engine worker panics feed the breaker; every other outcome
    // (success, deadline, validation error) proves the engine itself is
    // healthy and resets the streak.
    if matches!(&outcome, Err(e) if e.code() == "RES-WORKER-PANIC") {
        shared.breaker.record_failure(shared.clock.now());
    } else {
        shared.breaker.record_success();
    }

    let resp = match outcome {
        Ok(result) => {
            shared.stats.requests_ok.fetch_add(1, Ordering::SeqCst);
            WireResponse::ok(req.id.clone(), result)
        }
        Err(e) => {
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            WireResponse::err(req.id.clone(), failure_of(&e))
        }
    };
    if let Some((repl, rid)) = journaled {
        let settle = Input::Settle {
            rid,
            resp: resp.clone(),
        };
        repl.drive(shared.clock.now(), settle);
    }
    LineOutcome::Respond(resp)
}

/// Injected misbehavior for one sweep point (chaos servers only).
fn chaos_delay(fault: Option<&str>, point: usize, target: usize, shared: &Shared) {
    let cfg = &shared.config;
    match fault {
        Some("slow-sweep") => shared.clock.sleep(cfg.chaos_point_delay),
        Some("slow-worker") if point == target => shared.clock.sleep(cfg.stall_budget * 3),
        Some("worker-panic") if point == target => {
            panic!("injected worker panic (chaos fault, sweep point {point})")
        }
        _ => {}
    }
}

/// Turns a retired token into the engine error the pool would produce,
/// for code paths (like `tables`) that check the token between coarse
/// stages rather than through `map_ctl`.
fn token_error(reason: CancelReason, stage: usize) -> LintraError {
    LintraError::from(match reason {
        CancelReason::Cancelled => EngineError::Cancelled { task: stage },
        CancelReason::DeadlineExpired => EngineError::DeadlineExpired { task: stage },
    })
}

fn config_error(message: impl Into<String>) -> LintraError {
    LintraError::new(ErrorClass::Validation, "VAL-CONFIG", message)
}

fn checked_v0(v0: f64) -> Result<f64, LintraError> {
    if v0.is_finite() && v0 > 0.0 {
        Ok(v0)
    } else {
        Err(config_error(format!(
            "v0 must be a positive voltage, got {v0}"
        )))
    }
}

fn execute(
    shared: &Arc<Shared>,
    req: &WireRequest,
    token: &CancelToken,
) -> Result<Json, LintraError> {
    let cfg = &shared.config;
    let fault = req.fault.as_deref();
    let ctl = SweepCtl {
        token: Some(token),
        stall_budget: Some(cfg.stall_budget),
    };
    match &req.op {
        WireOp::Ping => Ok(Json::obj([("pong", Json::Bool(true))])), // handled earlier; kept total
        WireOp::Optimize {
            design,
            strategy,
            v0,
            processors,
        } => {
            let strategy = Strategy::parse(strategy).map_err(LintraError::from)?;
            let d = by_name(design)
                .ok_or_else(|| config_error(format!("unknown design `{design}`")))?;
            let v0 = checked_v0(*v0)?;
            let tech = TechConfig::dac96(v0);
            let processors = *processors;
            // One sweep point through the pool: panics become
            // RES-WORKER-PANIC, stalls RES-WORKER-STALL, an
            // already-expired deadline RES-DEADLINE — uniformly with the
            // sweep paths.
            let results = shared.pool.map_ctl(
                vec![()],
                |()| {
                    chaos_delay(fault, 0, 0, shared);
                    match strategy {
                        Strategy::Single => single::optimize(&d.system, &tech).map(|r| {
                            Json::obj([
                                ("strategy", Json::Str("single".to_string())),
                                ("design", Json::Str(d.name.to_string())),
                                ("unfolding", Json::Num(r.real.unfolding as f64)),
                                ("speedup", Json::Num(r.real.speedup)),
                                ("voltage", Json::Num(r.real.scaling.voltage)),
                                ("power_reduction", Json::Num(r.real.power_reduction())),
                                ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                            ])
                        }),
                        Strategy::Multi => {
                            let selection = match processors {
                                Some(n) => ProcessorSelection::SearchBest { max: n },
                                None => ProcessorSelection::StatesCount,
                            };
                            multi::optimize(&d.system, &tech, selection).map(|r| {
                                Json::obj([
                                    ("strategy", Json::Str("multi".to_string())),
                                    ("design", Json::Str(d.name.to_string())),
                                    ("processors", Json::Num(r.processors as f64)),
                                    ("unfolding", Json::Num(r.unfolding as f64)),
                                    ("speedup", Json::Num(r.speedup)),
                                    ("voltage", Json::Num(r.scaling.voltage)),
                                    ("power_reduction", Json::Num(r.power_reduction())),
                                    ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                                ])
                            })
                        }
                        Strategy::Asic => {
                            asic::optimize(&d.system, &tech, &asic::AsicConfig::default()).map(
                                |r| {
                                    Json::obj([
                                        ("strategy", Json::Str("asic".to_string())),
                                        ("design", Json::Str(d.name.to_string())),
                                        ("unfolding", Json::Num(f64::from(r.unfolding))),
                                        ("voltage", Json::Num(r.voltage)),
                                        ("muls_removed", Json::Num(r.mcm.muls_removed as f64)),
                                        ("improvement", Json::Num(r.improvement())),
                                        ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                                    ])
                                },
                            )
                        }
                        Strategy::Egraph => saturate::optimize(
                            &d.system,
                            &tech,
                            &saturate::SaturateConfig::default(),
                        )
                        .map(|r| {
                            Json::obj([
                                ("strategy", Json::Str("egraph".to_string())),
                                ("design", Json::Str(d.name.to_string())),
                                ("unfolding", Json::Num(f64::from(r.unfolding))),
                                ("voltage", Json::Num(r.voltage)),
                                ("improvement", Json::Num(r.improvement())),
                                ("vs_script", Json::Num(r.vs_script())),
                                ("saturated", Json::Bool(r.stats.saturated())),
                                ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                            ])
                        }),
                    }
                },
                ctl,
            );
            let point = results
                .into_iter()
                .next()
                .ok_or_else(|| config_error("engine returned no result for a one-point sweep"))?;
            point.map_err(LintraError::from)?.map_err(LintraError::from)
        }
        WireOp::Sweep { design, max_i } => {
            let d = by_name(design)
                .ok_or_else(|| config_error(format!("unknown design `{design}`")))?;
            // Chaos target: a deterministic mid-sweep point, so injected
            // stalls/panics land after some healthy points completed.
            let target = (*max_i as usize) / 2;
            let points: Vec<u32> = (0..=*max_i).collect();
            // Each point extends the design's chain under the shared
            // cache lock, so the points run in index order on one
            // worker: a second one would only wait on the lock inside
            // its watchdog-timed region (DESIGN §5d).
            let results = ThreadPool::new(1).map_ctl(
                points,
                |i| {
                    // Chaos faults fire BEFORE the cache lock: a stalled
                    // point never holds other sweeps out of the cache,
                    // and an injected panic never lands while the cache
                    // is mid-update. Cached unfolds are bit-identical to
                    // from-scratch `unfold` (the cache's contract), so
                    // rerouting the sweep changes no response bytes.
                    chaos_delay(fault, i as usize, target, shared);
                    let mut caches = lock_unpoisoned(&shared.caches);
                    let cache = caches
                        .entry(d.name.to_string())
                        .or_insert_with(|| SweepCache::new(&d.system));
                    unfold_sweep_point(i, cache)
                },
                ctl,
            );
            let mut rows = Vec::with_capacity(results.len());
            for point in results {
                let (i, muls, adds) = point
                    .map_err(LintraError::from)?
                    .map_err(|e| e.context(format!("sweeping {design}")))?;
                rows.push(Json::Arr(vec![
                    Json::Num(f64::from(i)),
                    Json::Num(muls),
                    Json::Num(adds),
                ]));
            }
            Ok(Json::obj([
                ("design", Json::Str(d.name.to_string())),
                ("rows", Json::Arr(rows)),
            ]))
        }
        WireOp::Tables { v0 } => {
            let v0 = checked_v0(*v0)?;
            // Tables run through the parallel engine internally; the
            // deadline is observed between the three table stages.
            let live = |stage: usize| match token.reason() {
                Some(reason) => Err(token_error(reason, stage)),
                None => Ok(()),
            };
            // One registry for all three tables, so Table 3 and Table 4
            // reuse each design's chain that Table 2 built.
            let caches = SuiteCaches::new();
            live(0)?;
            let (t2, _) = table2_rows_engine(v0, &shared.pool, &caches)?;
            live(1)?;
            let (t3, _) = table3_rows_engine(v0, &shared.pool, &caches)?;
            live(2)?;
            let (t4, _) = table4_rows_engine(v0, &shared.pool, &caches)?;
            Ok(Json::obj([
                ("table2", Json::Str(render_table2(&t2, v0, false))),
                ("table3", Json::Str(render_table3(&t3, v0))),
                ("table4", Json::Str(render_table4(&t4, v0))),
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// In-process config shaped for fast unit checks.
    fn test_config() -> ServerConfig {
        ServerConfig {
            jobs: Some(2),
            default_deadline: Duration::from_secs(5),
            stall_budget: Duration::from_millis(200),
            ..ServerConfig::default()
        }
    }

    fn raw_round_trip(addr: SocketAddr, line: &str) -> String {
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
        String::from_utf8(buf).expect("utf8 response")
    }

    #[test]
    fn ping_round_trips_over_tcp() {
        let handle = start(test_config()).expect("server starts");
        let resp = raw_round_trip(handle.addr(), "{\"id\":\"p1\",\"op\":\"ping\"}\n");
        let resp = WireResponse::parse(&resp).expect("valid response");
        assert_eq!(resp.id, "p1");
        let result = resp.outcome.expect("pong");
        assert_eq!(result.get("pong"), Some(&Json::Bool(true)));
        let stats = handle.shutdown();
        assert_eq!(stats.requests_ok, 1);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn zero_jobs_is_a_config_error() {
        let err = start(ServerConfig {
            jobs: Some(0),
            ..ServerConfig::default()
        })
        .expect_err("zero workers rejected");
        assert_eq!(err.code(), "VAL-CONFIG");
        assert_eq!(err.class(), ErrorClass::Validation);
    }

    #[test]
    fn unknown_design_and_strategy_are_config_errors() {
        let handle = start(test_config()).expect("server starts");
        let resp = raw_round_trip(
            handle.addr(),
            "{\"id\":\"a\",\"op\":\"optimize\",\"design\":\"nonesuch\"}\n",
        );
        let resp = WireResponse::parse(&resp).expect("valid response");
        let failure = resp.outcome.expect_err("unknown design fails");
        assert_eq!(failure.code, "VAL-CONFIG");

        let resp = raw_round_trip(
            handle.addr(),
            "{\"id\":\"b\",\"op\":\"optimize\",\"design\":\"chemical\",\"strategy\":\"dual\"}\n",
        );
        let resp = WireResponse::parse(&resp).expect("valid response");
        let failure = resp.outcome.expect_err("unknown strategy fails");
        assert_eq!(failure.code, "VAL-CONFIG");
        assert!(
            failure.message.contains("single, multi, asic"),
            "{}",
            failure.message
        );
        handle.shutdown();
    }

    #[test]
    fn a_long_sweep_on_several_workers_is_never_starved_into_a_stall() {
        // Every point extends one design's chain under the shared cache
        // lock. Spread over two workers, one worker's point waited out
        // the other's whole run of points and was flagged as a stall.
        let handle = start(ServerConfig {
            jobs: Some(2),
            stall_budget: Duration::from_millis(400),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let line = "{\"id\":\"s\",\"op\":\"sweep\",\"design\":\"iir10\",\"max_i\":600}\n";
        let resp = WireResponse::parse(&raw_round_trip(handle.addr(), line)).expect("response");
        let result = resp.outcome.expect("no point may stall");
        let rows = result.get("rows").and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(rows, Some(601));
        handle.shutdown();
    }

    #[test]
    fn fault_member_is_rejected_without_chaos_mode() {
        let handle = start(test_config()).expect("server starts");
        let resp = raw_round_trip(
            handle.addr(),
            "{\"id\":\"f\",\"op\":\"ping\",\"fault\":\"worker-panic\"}\n",
        );
        let resp = WireResponse::parse(&resp).expect("valid response");
        let failure = resp.outcome.expect_err("fault injection disabled");
        assert_eq!(failure.code, "VAL-CONFIG");
        assert!(failure.message.contains("disabled"), "{}", failure.message);
        handle.shutdown();
    }
}
