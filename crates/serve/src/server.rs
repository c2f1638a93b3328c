//! The `lintra-serve` TCP server.
//!
//! Transport: newline-delimited JSON over TCP (see
//! [`lintra_bench::wire`]), one thread per connection, requests handled
//! inline on the connection thread with sweeps fanned out through the
//! shared engine [`ThreadPool`]. Robustness machinery, outermost first:
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
//! 4. **Watchdog**: a sweep point exceeding
//!    [`ServerConfig::stall_budget`] is flagged `RES-WORKER-STALL`
//!    rather than trusted.
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
//! * sweep caches are checkpointed to crash-safe snapshots
//!   ([`lintra::engine::snapshot`]) and reloaded on restart; a corrupt
//!   snapshot or journal is quarantined (`IO-SNAPSHOT-CORRUPT` /
//!   `IO-JOURNAL-CORRUPT`) — the server always starts.
//!
//! # Replication
//!
//! A durable server can replicate ([`crate::replicate`]): started with
//! [`ServerConfig::replica_of`] it is a *follower* — it streams the
//! primary's journal into its own (fsync-before-ack), keeps caches warm,
//! answers pings and replication status queries, rejects compute with
//! `RES-NOT-PRIMARY`, and promotes itself (new epoch, snapshot install,
//! replay of unsettled records) when the primary stays silent past
//! [`ServerConfig::failover_grace`]. A deposed primary is *fenced*: once
//! a higher epoch exists, every request it receives — pings included —
//! is refused with `RES-STALE-EPOCH`.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use lintra::engine::{
    snapshot, CacheStats, CancelReason, CancelToken, EngineError, SweepCache, SweepCtl, ThreadPool,
};
use lintra::linsys::count::{op_count, TrivialityRule};
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, Strategy, TechConfig};
use lintra::suite::by_name;
use lintra::{ErrorClass, LintraError};
use lintra_bench::json::Json;
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::wire::{WireFailure, WireOp, WireRequest, WireResponse};
use lintra_bench::{table2_rows_engine, table3_rows_engine, table4_rows_engine, SuiteCaches};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::clock::{Clock, SystemClock};
use crate::journal::{Journal, JournalRecord, RecordKind, SNAPSHOT_DIR};
use crate::replicate::{self, ReplChaos, ReplMsg, ReplState, Role};
use crate::signal;
use crate::transport::{Acceptor, Conn, NetError, TcpTransport, Transport};

/// How often blocked reads and the accept loop re-check the drain flag.
const POLL: Duration = Duration::from_millis(20);

/// The fault names a chaos server honors.
const KNOWN_FAULTS: [&str; 4] = ["slow-worker", "slow-sweep", "worker-panic", "conn-drop"];

/// Server tuning; [`ServerConfig::default`] is production-shaped.
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
    /// Engine worker threads (`None` = `LINTRA_JOBS` / auto-detect).
    pub jobs: Option<usize>,
    /// Honor the wire `fault` member (chaos testing only).
    pub chaos: bool,
    /// Per-point delay injected by the `slow-sweep` fault (and the sleep
    /// used by `slow-worker`, which sleeps `3 × stall_budget`).
    pub chaos_point_delay: Duration,
    /// Durability directory (`None` = stateless). When set, the server
    /// keeps a write-ahead request journal (`journal.log`) and cache
    /// snapshots (`snapshots/*.snap`) here, replays unfinished work on
    /// startup, and answers retried `request_id`s from the journal.
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
    /// Time source: every `now`/`sleep`/deadline in the server goes
    /// through this seam so the simulator can substitute virtual time.
    pub clock: Arc<dyn Clock>,
    /// Network: every connect/accept/read/write goes through this seam
    /// so the simulator can substitute an in-memory network.
    pub transport: Arc<dyn Transport>,
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
            clock: Arc::new(SystemClock::new()),
            transport: Arc::new(TcpTransport),
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
    /// Cache snapshots loaded and warm.
    pub snapshots_loaded: usize,
    /// Corrupt cache snapshots quarantined (`IO-SNAPSHOT-CORRUPT`).
    pub snapshots_quarantined: usize,
}

/// Idempotency state guarded by one lock: the journal's append handle,
/// the settled-key map, and the keys currently executing.
pub(crate) struct Durability {
    pub(crate) journal: Journal,
    /// Settled keys → (how they settled, the exact response line).
    pub(crate) completed: HashMap<String, (RecordKind, String)>,
    /// Keys admitted but not yet settled (concurrent duplicates are
    /// rejected with `RES-DUPLICATE-REQUEST`).
    inflight_ids: HashSet<String>,
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pool: ThreadPool,
    breaker: CircuitBreaker,
    inflight: AtomicUsize,
    pub(crate) draining: AtomicBool,
    pub(crate) stats: Counters,
    /// Shared per-design sweep caches: repeated sweeps reuse the
    /// incremental-unfold chain, and durable servers snapshot them.
    pub(crate) caches: Mutex<HashMap<String, SweepCache>>,
    /// `Some` iff [`ServerConfig::journal_dir`] was set.
    pub(crate) durability: Option<Mutex<Durability>>,
    /// Replication state (`Some` iff durable — every durable server can
    /// stream to followers; only configured followers dial out).
    pub(crate) repl: Option<Arc<ReplState>>,
    /// Feed of acked sweep admits for the follower's cache warmer.
    pub(crate) warm_tx: Option<std::sync::mpsc::Sender<(String, u32)>>,
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
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
        let repl = self.shared.repl.as_ref()?;
        let rs = repl.role_state();
        let fenced_by = repl.fenced_by.load(Ordering::SeqCst);
        Some(RoleInfo {
            role: rs.role.label(),
            epoch: repl.epoch(),
            seq: repl.seq(),
            primary: rs.primary,
            fenced_by: (fenced_by != 0).then_some(fenced_by),
            promoted_replayed: repl.promoted_replayed.load(Ordering::SeqCst),
            diverged: repl.diverged(),
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
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Wake any idle follower streams so they observe the drain.
        if let Some(repl) = &self.shared.repl {
            repl.log_grew.notify_all();
        }
        for h in std::mem::take(&mut self.repl_threads) {
            let _ = h.join();
        }
        let handles = {
            let mut conns = lock_unpoisoned(&self.conns);
            std::mem::take(&mut *conns)
        };
        for h in handles {
            let _ = h.join();
        }
        // Checkpoint the warm caches so the next start resumes them.
        persist_snapshots(&self.shared);
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
/// corruption quarantined), snapshots are loaded (corruption
/// quarantined), and admitted-but-unfinished requests are re-executed —
/// so the first client to connect sees a consistent service.
///
/// # Errors
///
/// Returns an `IO-FAILURE` error when the bind fails (or the durability
/// directory is unusable) and a `VAL-CONFIG` error for an invalid
/// worker-count configuration (explicit `Some(0)` or a garbage
/// `LINTRA_JOBS`). Damaged journal or snapshot *content* never fails
/// startup — it is quarantined and reported in [`RecoveryReport`].
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
    let mut durability = None;
    let mut repl = None;
    let mut caches: HashMap<String, SweepCache> = HashMap::new();
    let mut incomplete: Vec<(String, String)> = Vec::new();
    if let Some(dir) = &config.journal_dir {
        let (journal, rec) =
            Journal::open_dir_with(dir, config.journal_rotate_bytes).map_err(LintraError::from)?;
        let mut report = RecoveryReport {
            answered: rec.completed.len(),
            torn_tail: rec.torn_tail,
            journal_quarantined: rec.quarantined,
            ..RecoveryReport::default()
        };
        load_snapshots(&dir.join(SNAPSHOT_DIR), &mut caches, &mut report)
            .map_err(LintraError::from)?;
        incomplete = rec.incomplete;
        recovery = Some(report);
        let epoch_dir = config.epoch_dir.as_ref().unwrap_or(dir);
        std::fs::create_dir_all(epoch_dir).map_err(LintraError::from)?;
        // A corrupt epoch file is a startup error: silently resetting
        // it to epoch 1 could revive a fenced primary at a stale term.
        repl = Some(Arc::new(
            ReplState::new(
                epoch_dir.join(replicate::EPOCH_FILE),
                config.replica_of.clone(),
                rec.records,
                config.clock.as_ref(),
            )
            .map_err(|e| LintraError::from(e).context("loading the replication epoch file"))?,
        ));
        durability = Some(Mutex::new(Durability {
            journal,
            completed: rec.completed,
            inflight_ids: HashSet::new(),
        }));
    }
    let is_follower = config.replica_of.is_some();

    let listener = config
        .transport
        .bind(config.addr.as_str())
        .map_err(|e| LintraError::new(ErrorClass::Io, "IO-FAILURE", e.to_string()))?;
    let addr: SocketAddr = listener.local_addr().parse().map_err(|_| {
        LintraError::new(
            ErrorClass::Io,
            "IO-FAILURE",
            format!(
                "transport reported an unparseable address {}",
                listener.local_addr()
            ),
        )
    })?;
    if let Some(repl) = &repl {
        *lock_unpoisoned(&repl.self_addr) = addr.to_string();
    }

    let spawn_warmer = is_follower;
    let (warm_tx, warm_rx) = if spawn_warmer {
        let (tx, rx) = std::sync::mpsc::channel();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };

    let shared = Arc::new(Shared {
        breaker: CircuitBreaker::new(config.breaker),
        config,
        pool,
        inflight: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        stats: Counters::default(),
        caches: Mutex::new(caches),
        durability,
        repl,
        warm_tx,
    });

    // Replay unfinished admissions synchronously: each settles with a
    // journaled completion, so a retry of its key dedups instead of
    // recomputing. A follower skips this — its unsettled records replay
    // at promotion, when it becomes the one answering for them. A
    // shutdown signal aborts the replay at the next record boundary.
    let mut replayed = 0usize;
    if !is_follower {
        for (rid, line) in incomplete {
            if signal::shutdown_requested() {
                break;
            }
            replay_request(&shared, &rid, &line);
            shared.stats.replayed.fetch_add(1, Ordering::SeqCst);
            replayed += 1;
        }
    }
    if let Some(report) = recovery.as_mut() {
        report.replayed = replayed;
    }

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let shared = Arc::clone(&shared);
        let conns = Arc::clone(&conns);
        thread::spawn(move || accept_loop(&shared, listener, &conns))
    };

    let mut repl_threads = Vec::new();
    if is_follower {
        let sh = Arc::clone(&shared);
        repl_threads.push(thread::spawn(move || replicate::follower_loop(sh)));
        if let Some(rx) = warm_rx {
            let sh = Arc::clone(&shared);
            repl_threads.push(thread::spawn(move || replicate::warm_loop(&sh, &rx)));
        }
    } else if shared.repl.is_some() && !shared.config.peers.is_empty() {
        let sh = Arc::clone(&shared);
        repl_threads.push(thread::spawn(move || replicate::guard_loop(&sh)));
    }

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        conns,
        recovery,
        repl_threads,
    })
}

/// Loads every `*.snap` in `dir` into `caches` via the engine's shared
/// install path ([`snapshot::install_dir`] — also used at promotion); a
/// snapshot that fails its checksum or invariants is quarantined, never
/// trusted and never fatal.
fn load_snapshots(
    dir: &std::path::Path,
    caches: &mut HashMap<String, SweepCache>,
    report: &mut RecoveryReport,
) -> Result<(), std::io::Error> {
    let installed = snapshot::install_dir(dir, caches)?;
    report.snapshots_loaded += installed.loaded;
    report.snapshots_quarantined += installed.quarantined;
    Ok(())
}

/// Appends one record to the in-memory replication log and wakes idle
/// follower streams. Called with the durability lock held, right after
/// the matching journal append succeeded, so the log mirrors the journal
/// byte-for-byte and in order.
fn publish_record(shared: &Shared, kind: RecordKind, rid: &str, line: &str) {
    let Some(repl) = &shared.repl else { return };
    let mut log = lock_unpoisoned(&repl.log);
    log.push(JournalRecord {
        kind,
        rid: rid.to_string(),
        line: line.trim_end_matches('\n').to_string(),
    });
    repl.log_grew.notify_all();
}

/// Re-executes one journaled-but-unfinished request at startup and
/// journals its completion. The original client is gone; what matters
/// is that the key settles so retries are answered from the journal.
pub(crate) fn replay_request(shared: &Arc<Shared>, rid: &str, line: &str) {
    let resp = match WireRequest::parse(line) {
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
    };
    settle(shared, rid, &resp);
}

/// How a completed attempt is recorded: deterministic outcomes serve
/// retries; resource/I-O outcomes settle the admit but let retries
/// recompute.
fn completion_kind(resp: &WireResponse) -> RecordKind {
    match &resp.outcome {
        Ok(_) => RecordKind::Done,
        Err(f) => match f.class {
            ErrorClass::Validation | ErrorClass::Numerical | ErrorClass::Convergence => {
                RecordKind::Fail
            }
            ErrorClass::Resource | ErrorClass::Io => RecordKind::Abort,
        },
    }
}

/// Journals a completion and publishes it to the dedup map. Append
/// errors are tolerated: the admit record alone means a crash replays
/// the request, which is the safe direction.
fn settle(shared: &Arc<Shared>, rid: &str, resp: &WireResponse) {
    let Some(dur) = &shared.durability else {
        return;
    };
    let kind = completion_kind(resp);
    let line = resp.render_line();
    let trimmed = line.trim_end().to_string();
    let mut d = lock_unpoisoned(dur);
    d.inflight_ids.remove(rid);
    if d.journal.append(kind, rid, &trimmed).is_ok() {
        publish_record(shared, kind, rid, &trimmed);
    }
    d.completed.insert(rid.to_string(), (kind, trimmed));
}

/// Best-effort checkpoint of every warm sweep cache into the durability
/// directory (atomic write-rename per design). Snapshots are an
/// optimization: a failed save costs recompute, never correctness.
pub(crate) fn persist_snapshots(shared: &Arc<Shared>) {
    let Some(dir) = &shared.config.journal_dir else {
        return;
    };
    let snap_dir = dir.join(SNAPSHOT_DIR);
    if std::fs::create_dir_all(&snap_dir).is_err() {
        return;
    }
    let caches = lock_unpoisoned(&shared.caches);
    for (design, cache) in caches.iter() {
        let _ = snapshot::save(cache, &snap_dir.join(format!("{design}.snap")));
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    mut listener: Box<dyn Acceptor>,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(conn)) => {
                shared.stats.connections.fetch_add(1, Ordering::SeqCst);
                let sh = Arc::clone(shared);
                let handle = thread::spawn(move || connection_loop(&sh, conn));
                let mut guard = lock_unpoisoned(conns);
                // Reap finished connection threads so a long-lived server
                // does not accumulate handles without bound.
                let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut *guard)
                    .into_iter()
                    .partition(JoinHandle::is_finished);
                *guard = live;
                guard.push(handle);
                drop(guard);
                for h in done {
                    let _ = h.join();
                }
            }
            // Nothing to accept, or a transient listener error — either
            // way, back off one poll tick and re-check drain.
            Ok(None) | Err(_) => shared.config.clock.sleep(POLL),
        }
    }
}

/// What to do with one request line.
enum LineOutcome {
    Respond(WireResponse),
    /// Close the connection without responding (`conn-drop` chaos).
    Drop,
}

fn connection_loop(shared: &Arc<Shared>, mut conn: Box<dyn Conn>) {
    let clock = shared.config.clock.as_ref();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Slow-loris guard: the moment a partial frame starts accumulating,
    // the sender is on the clock. A connection holding an unfinished
    // line past the default deadline is answered `RES-DEADLINE` and
    // closed, so it cannot pin this handler thread indefinitely. Idle
    // connections (empty buffer) stay open.
    let mut partial_since: Option<Duration> = None;
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            let line = line.trim_end();
            // Replication messages share the listener with client
            // traffic; a `"repl"`-keyed line never reaches handle_line.
            // Status is answered even without replication configured —
            // health probers (the sharded router's, an operator's) must
            // be able to ask a standalone server who it is, and the
            // reply's `stateless` role is how they learn it serves.
            if let Some(msg) = ReplMsg::parse(line) {
                match msg {
                    ReplMsg::Status => {
                        let reply = status_reply(shared);
                        if conn.send(reply.render_line().as_bytes()).is_err() {
                            return;
                        }
                        continue;
                    }
                    ReplMsg::Hello {
                        epoch,
                        have,
                        pcrc,
                        from,
                    } if shared.repl.is_some() => {
                        // The connection becomes a follower stream.
                        replicate::stream_to_follower(shared, conn, epoch, have, pcrc, from);
                        return;
                    }
                    // Anything else arriving cold — or a follower
                    // handshake aimed at an unreplicated server — is a
                    // protocol violation: close.
                    _ => return,
                }
            }
            match handle_line(shared, line) {
                LineOutcome::Drop => return,
                LineOutcome::Respond(resp) => {
                    if conn.send(resp.render_line().as_bytes()).is_err() {
                        return;
                    }
                }
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Idle (or fully-answered) connection during a drain: close.
            // In-flight requests never reach here — they are executing
            // inside handle_line above and flush their response first.
            return;
        }
        // Frame-size guard, the slow loris's fast sibling: a sender that
        // streams past MAX_FRAME_BYTES without ever producing a newline
        // is answered VAL-FRAME-TOO-LARGE and closed before its frame
        // can grow the buffer without bound.
        if buf.len() > crate::transport::MAX_FRAME_BYTES {
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            let resp = WireResponse::err(
                "",
                WireFailure {
                    class: ErrorClass::Validation,
                    code: "VAL-FRAME-TOO-LARGE".to_string(),
                    message: format!(
                        "request frame exceeds {} bytes without a newline; closing the connection",
                        crate::transport::MAX_FRAME_BYTES
                    ),
                },
            );
            let _ = conn.send(resp.render_line().as_bytes());
            return;
        }
        match (buf.is_empty(), partial_since) {
            (true, _) => partial_since = None,
            (false, None) => partial_since = Some(clock.now()),
            (false, Some(since)) => {
                if clock.now().saturating_sub(since) > shared.config.default_deadline {
                    let resp = WireResponse::err(
                        "",
                        WireFailure {
                            class: ErrorClass::Resource,
                            code: "RES-DEADLINE".to_string(),
                            message: format!(
                                "request frame incomplete after {} ms; closing the connection",
                                shared.config.default_deadline.as_millis()
                            ),
                        },
                    );
                    let _ = conn.send(resp.render_line().as_bytes());
                    return;
                }
            }
        }
        match conn.recv(&mut chunk, POLL) {
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(NetError::Timeout) => {}
            // EOF — client gone (possibly mid-line; drop the partial) —
            // or a torn link: either way the conversation is over.
            Err(_) => return,
        }
    }
}

/// Renders this server's replication status (role, epoch, sequence,
/// answered keys) for a `{"repl":"status"}` query.
fn status_reply(shared: &Arc<Shared>) -> ReplMsg {
    let answered = shared
        .durability
        .as_ref()
        .map(|d| lock_unpoisoned(d).completed.len() as u64)
        .unwrap_or(0);
    match &shared.repl {
        Some(repl) => {
            let rs = repl.role_state();
            ReplMsg::StatusReply {
                role: rs.role.label().to_string(),
                epoch: repl.epoch(),
                seq: repl.seq(),
                answered,
                nonce: repl.nonce,
                primary: rs.primary,
            }
        }
        None => ReplMsg::StatusReply {
            role: "stateless".to_string(),
            epoch: 0,
            seq: 0,
            answered,
            nonce: 0,
            primary: None,
        },
    }
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

    // Replication role gate. A fenced server refuses everything — pings
    // included — so nothing keeps trusting a deposed primary. A
    // follower answers pings (health) but sends compute to the primary.
    if let Some(repl) = &shared.repl {
        let rs = repl.role_state();
        match rs.role {
            Role::Fenced => {
                shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
                let by = repl.fenced_by.load(Ordering::SeqCst);
                let epoch = repl.epoch();
                // After a restart the superseded epoch is no longer
                // known — the epoch file only carries the superseding
                // one — so name just the fence in that case.
                let message = if epoch < by {
                    format!(
                        "epoch {epoch} was superseded by epoch {by}; this server is \
                         fenced — talk to the current primary"
                    )
                } else {
                    format!(
                        "this server is durably fenced as of epoch {by} — talk to the \
                         current primary, or rejoin it with --replica-of"
                    )
                };
                return reject(&req.id, ErrorClass::Resource, "RES-STALE-EPOCH", message);
            }
            Role::Follower | Role::Promoting if !matches!(req.op, WireOp::Ping) => {
                shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
                let hint = rs
                    .primary
                    .map(|p| format!("; the primary is {p}"))
                    .unwrap_or_default();
                return reject(
                    &req.id,
                    ErrorClass::Resource,
                    "RES-NOT-PRIMARY",
                    format!(
                        "this server is a {} replica and does not accept compute \
                         requests{hint}",
                        rs.role.label()
                    ),
                );
            }
            _ => {}
        }
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
    if matches!(req.op, WireOp::Ping) {
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
    if let Err(retry_in) = shared.breaker.admit(shared.config.clock.now()) {
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

    // Durable idempotency (keyed requests on a durable server only):
    // a settled key answers from the journal bit-identically with zero
    // recompute; a key still executing is rejected; a fresh key is
    // journaled and fsync'd *before* execution begins, so a crash
    // between here and the response replays it on restart.
    let mut journaled = false;
    if let (Some(dur), Some(rid)) = (&shared.durability, req.request_id.as_deref()) {
        let mut d = lock_unpoisoned(dur);
        if let Some((kind, stored)) = d.completed.get(rid) {
            if kind.serves_retries() {
                let stored = stored.clone();
                drop(d);
                shared.stats.deduped.fetch_add(1, Ordering::SeqCst);
                return match WireResponse::parse(&stored) {
                    Ok(mut resp) => {
                        // The result bytes are the journaled bytes; only
                        // the correlation id echoes the retry's.
                        resp.id = req.id.clone();
                        if resp.outcome.is_ok() {
                            shared.stats.requests_ok.fetch_add(1, Ordering::SeqCst);
                        } else {
                            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
                        }
                        LineOutcome::Respond(resp)
                    }
                    Err(e) => {
                        shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
                        reject(
                            &req.id,
                            ErrorClass::Io,
                            "IO-FAILURE",
                            format!("journaled response for request_id `{rid}` is unreadable: {e}"),
                        )
                    }
                };
            }
            // An aborted attempt (resource/I-O) settles the admit but
            // earns the retry a fresh execution: fall through.
        }
        if !d.inflight_ids.insert(rid.to_string()) {
            drop(d);
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            return reject(
                &req.id,
                ErrorClass::Resource,
                "RES-DUPLICATE-REQUEST",
                format!("request_id `{rid}` is already executing; await its outcome, then retry"),
            );
        }
        if let Err(e) = d.journal.append(RecordKind::Admit, rid, line) {
            d.inflight_ids.remove(rid);
            drop(d);
            shared.stats.requests_failed.fetch_add(1, Ordering::SeqCst);
            return reject(
                &req.id,
                ErrorClass::Io,
                "IO-FAILURE",
                format!("write-ahead journal append failed: {e}"),
            );
        }
        publish_record(shared, RecordKind::Admit, rid, line);
        journaled = true;
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
        shared.breaker.record_failure(shared.config.clock.now());
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
    if journaled {
        if let Some(rid) = req.request_id.as_deref() {
            settle(shared, rid, &resp);
        }
    }
    LineOutcome::Respond(resp)
}

/// Injected misbehavior for one sweep point (chaos servers only).
fn chaos_delay(fault: Option<&str>, point: usize, target: usize, cfg: &ServerConfig) {
    match fault {
        Some("slow-sweep") => cfg.clock.sleep(cfg.chaos_point_delay),
        Some("slow-worker") if point == target => cfg.clock.sleep(cfg.stall_budget * 3),
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
                    chaos_delay(fault, 0, 0, cfg);
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
            let results = shared.pool.map_ctl(
                points,
                |i| {
                    // Chaos faults fire BEFORE the cache lock: a stalled
                    // point never blocks siblings out of the cache, and
                    // an injected panic never lands while the cache is
                    // mid-update. Cached unfolds are bit-identical to
                    // from-scratch `unfold` (the cache's contract), so
                    // rerouting the sweep changes no response bytes.
                    chaos_delay(fault, i as usize, target, cfg);
                    let mut caches = lock_unpoisoned(&shared.caches);
                    let cache = caches
                        .entry(d.name.to_string())
                        .or_insert_with(|| SweepCache::new(&d.system));
                    cache.unfolded(i).map(|u| {
                        let c = op_count(&u.system, TrivialityRule::ZeroOne);
                        let n = f64::from(i + 1);
                        (i, c.muls as f64 / n, c.adds as f64 / n)
                    })
                },
                ctl,
            );
            let mut rows = Vec::with_capacity(results.len());
            for point in results {
                let (i, muls, adds) = point
                    .map_err(LintraError::from)?
                    .map_err(|e| LintraError::from(e).context(format!("sweeping {design}")))?;
                rows.push(Json::Arr(vec![
                    Json::Num(f64::from(i)),
                    Json::Num(muls),
                    Json::Num(adds),
                ]));
            }
            // A durable server checkpoints the freshly-warmed cache so a
            // crash-restart resumes it instead of recomputing the chain.
            if cfg.journal_dir.is_some() {
                persist_snapshots(shared);
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
