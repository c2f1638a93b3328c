//! Health-aware consistent-hash routing across replicated shard groups.
//!
//! A router is a thin, stateless tier in front of N *shard groups*,
//! each an independent replicated cluster (a primary plus followers
//! sharing one journal lineage). Requests are sharded by routing key —
//! the idempotency key when one is present, else the design name — on
//! a consistent-hash ring, so a key always lands on the same group and
//! its journaled dedup guarantee keeps holding end to end.
//!
//! Per shard the router keeps exactly the machinery one client keeps
//! for one cluster:
//!
//! * an **endpoint walk cursor** — forwarded requests walk the shard's
//!   replica list past dead endpoints and `RES-NOT-PRIMARY` /
//!   `RES-STALE-EPOCH` redirects, remembering who answered last;
//! * a **circuit breaker** ([`crate::CircuitBreaker`]) fed by both a
//!   background status prober and real forwarding outcomes — a shard
//!   whose breaker is open answers `RES-SHARD-DOWN` *for its keys
//!   only*, while every other shard keeps serving (graceful partial
//!   degradation);
//! * a **latency ring** whose P99 derives the hedging delay.
//!
//! Two cluster-wide guards bound the router's own failure amplification:
//!
//! * a **retry budget** ([`RetryBudget`]): re-walks of a shard's
//!   replica list after a full failure earn no sympathy once retry
//!   volume exceeds ~10% of recent request volume — excess retries are
//!   shed with `RES-RETRY-BUDGET` instead of stampeding a struggling
//!   shard;
//! * **hedged requests**: a keyed request still unanswered after the
//!   shard's P99 latency is raced against the next replica; the first
//!   answer wins. Only *keyed* requests hedge — an unkeyed request has
//!   no journal identity, so its hedge could double-execute. A hedge
//!   that lands while the original still executes is answered
//!   `RES-DUPLICATE-REQUEST` by the journal and is never forwarded as
//!   the winner.
//!
//! The routing core ([`ShardRing`], [`RetryBudget`], [`LatencyTracker`],
//! [`routing_key`]) is pure — no clocks, no sockets — so the
//! deterministic simulator drives the identical arithmetic under
//! virtual time while this module's threaded front end drives it over
//! real TCP.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lintra::{ErrorClass, LintraError};
use lintra_bench::json::Json;
use lintra_bench::wire::{WireFailure, WireRequest, WireResponse};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::clock::{Clock, SystemClock};
use crate::replicate::{query_status_via, ReplMsg, StatusView};
use crate::transport::{read_line, Conn, NetError, TcpTransport, Transport};

/// Poll slice for reads, matching the server's.
const POLL: Duration = Duration::from_millis(20);

// --- pure routing core ----------------------------------------------------

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
/// the ring must hash identically in the router, the simulator, and any
/// future external tooling that predicts placements.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // FNV-1a alone avalanches poorly on short, near-identical strings
    // (exactly what vnode labels are): finish with the SplitMix64
    // mixer so ring points spread uniformly.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The request member the ring hashes: the idempotency key when the
/// request carries one (so retries and hedges of one logical request
/// always reach the same journal), else the design name (so one
/// design's cache locality stays on one shard), else the correlation
/// id.
pub fn routing_key(req: &WireRequest) -> String {
    if let Some(rid) = &req.request_id {
        return rid.clone();
    }
    match &req.op {
        lintra_bench::wire::WireOp::Optimize { design, .. }
        | lintra_bench::wire::WireOp::Sweep { design, .. } => design.clone(),
        _ => req.id.clone(),
    }
}

/// A consistent-hash ring over shard indices with virtual nodes.
///
/// Each shard contributes `vnodes` points hashed from
/// `"shard-{g}/vnode-{v}"`; a key belongs to the first point clockwise
/// from its own hash. Adding or removing one shard moves only the keys
/// adjacent to its points — the property that makes resharding an
/// incremental migration instead of a full reshuffle.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// (point, shard index), sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRing {
    /// A ring over `shards` groups with `vnodes` points each. Zero
    /// shards yields an empty ring ([`ShardRing::shard_of`] returns
    /// `None`).
    pub fn new(shards: usize, vnodes: usize) -> ShardRing {
        let mut points = Vec::with_capacity(shards * vnodes);
        for g in 0..shards {
            for v in 0..vnodes.max(1) {
                points.push((fnv1a64(format!("shard-{g}/vnode-{v}").as_bytes()), g));
            }
        }
        points.sort_unstable();
        ShardRing { points, shards }
    }

    /// Number of shard groups on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard a key belongs to; `None` only for an empty ring.
    pub fn shard_of(&self, key: &str) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = fnv1a64(key.as_bytes());
        let idx = self.points.partition_point(|(p, _)| *p < h);
        let (_, shard) = self.points[idx % self.points.len()];
        Some(shard)
    }
}

/// A volume-coupled retry budget in integer milli-tokens (determinism:
/// no floats, no clocks — the simulator replays it exactly).
///
/// Every first attempt deposits `ratio_milli` (100 = each request earns
/// a tenth of a retry); every retry withdraws 1000. The balance is
/// capped so an idle period cannot bank an unbounded burst. When the
/// balance cannot cover a withdrawal the retry is *shed*: during a
/// blackout, retry volume stays ≤ roughly `ratio_milli`/1000 of recent
/// request volume instead of multiplying it.
#[derive(Debug)]
pub struct RetryBudget {
    ratio_milli: u64,
    cap_milli: u64,
    tokens_milli: u64,
}

impl RetryBudget {
    /// A budget earning `ratio_milli` per request, capped at
    /// `cap_retries` banked retries. Starts full: a cold router can
    /// retry immediately.
    pub fn new(ratio_milli: u64, cap_retries: u64) -> RetryBudget {
        let cap_milli = cap_retries.saturating_mul(1000).max(1000);
        RetryBudget {
            ratio_milli,
            cap_milli,
            tokens_milli: cap_milli,
        }
    }

    /// Deposits one first attempt's earnings.
    pub fn on_request(&mut self) {
        self.tokens_milli = self
            .tokens_milli
            .saturating_add(self.ratio_milli)
            .min(self.cap_milli);
    }

    /// Withdraws one retry; `false` means the budget is exhausted and
    /// the retry must be shed.
    pub fn try_retry(&mut self) -> bool {
        if self.tokens_milli >= 1000 {
            self.tokens_milli -= 1000;
            true
        } else {
            false
        }
    }

    /// Current balance in milli-tokens (status reporting).
    pub fn balance_milli(&self) -> u64 {
        self.tokens_milli
    }
}

/// Fixed-size latency ring; its P99 (max of the window, practically,
/// at this size) derives the hedging delay.
#[derive(Debug)]
pub struct LatencyTracker {
    samples: [u64; 128],
    len: usize,
    pos: usize,
}

impl Default for LatencyTracker {
    fn default() -> LatencyTracker {
        LatencyTracker {
            samples: [0; 128],
            len: 0,
            pos: 0,
        }
    }
}

impl LatencyTracker {
    /// Records one observed response latency.
    pub fn record_ms(&mut self, ms: u64) {
        self.samples[self.pos] = ms;
        self.pos = (self.pos + 1) % self.samples.len();
        self.len = (self.len + 1).min(self.samples.len());
    }

    /// The 99th-percentile latency of the window; `None` before any
    /// sample lands.
    pub fn p99_ms(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut window: Vec<u64> = self.samples[..self.len].to_vec();
        window.sort_unstable();
        let idx = (self.len * 99) / 100;
        Some(window[idx.min(self.len - 1)])
    }

    /// The hedge delay: P99 floored at `min_ms` (a cold tracker hedges
    /// at the floor; hedging *earlier* than the typical tail would
    /// double traffic for no win).
    pub fn hedge_delay_ms(&self, min_ms: u64) -> u64 {
        self.p99_ms().unwrap_or(min_ms).max(min_ms)
    }
}

// --- threaded front end ---------------------------------------------------

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`host:port`; port 0 picks).
    pub addr: String,
    /// One entry per shard group: that group's ordered replica
    /// endpoints (primary first, by convention).
    pub shards: Vec<Vec<String>>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Background status-probe interval.
    pub probe_interval: Duration,
    /// Per-forward TCP connect budget.
    pub connect_timeout: Duration,
    /// Per-forward response wait.
    pub request_timeout: Duration,
    /// Milli-tokens earned per first attempt (100 ⇒ retries ≤ ~10% of
    /// request volume).
    pub retry_ratio_milli: u64,
    /// Banked-retry cap (burst ceiling).
    pub retry_cap: u64,
    /// Re-walks of a shard's replica list after a full failure, per
    /// request (budget permitting).
    pub max_retries: u32,
    /// Hedge keyed requests that outlive the shard's P99.
    pub hedge: bool,
    /// Hedge-delay floor.
    pub hedge_min: Duration,
    /// Per-shard breaker tuning (fed by probes and outcomes).
    pub breaker: BreakerConfig,
    /// Time seam.
    pub clock: Arc<dyn Clock>,
    /// Network seam.
    pub transport: Arc<dyn Transport>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: 16,
            probe_interval: Duration::from_millis(250),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(60),
            retry_ratio_milli: 100,
            retry_cap: 8,
            max_retries: 2,
            hedge: true,
            hedge_min: Duration::from_millis(50),
            breaker: BreakerConfig::default(),
            clock: Arc::new(SystemClock::new()),
            transport: Arc::new(TcpTransport),
        }
    }
}

/// Monotonic router counters.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Requests received (any kind).
    pub requests: AtomicU64,
    /// Responses forwarded from a shard (success or classified failure).
    pub forwarded: AtomicU64,
    /// Budgeted re-walks after a full shard-walk failure.
    pub retries: AtomicU64,
    /// Retries shed with `RES-RETRY-BUDGET`.
    pub shed_retry_budget: AtomicU64,
    /// Requests answered `RES-SHARD-DOWN`.
    pub shard_down: AtomicU64,
    /// Hedges launched.
    pub hedges: AtomicU64,
    /// Hedges that answered first.
    pub hedge_wins: AtomicU64,
}

/// Per-shard routing state.
#[derive(Debug)]
struct ShardState {
    endpoints: Vec<String>,
    /// Preferred endpoint index (the replica that last answered, or the
    /// primary the prober found).
    cursor: AtomicUsize,
    breaker: CircuitBreaker,
    /// Last probe round found a serving primary (status display; the
    /// breaker is the authority for admission).
    probed_healthy: AtomicBool,
    latency: Mutex<LatencyTracker>,
}

#[derive(Debug)]
struct RouterShared {
    config: RouterConfig,
    ring: ShardRing,
    shards: Vec<ShardState>,
    budget: Mutex<RetryBudget>,
    stats: RouterStats,
    draining: AtomicBool,
    nonce: u64,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running router; dropping the handle does not stop it — call
/// [`RouterHandle::shutdown`].
#[derive(Debug)]
pub struct RouterHandle {
    addr: String,
    shared: Arc<RouterShared>,
    accept_thread: Option<JoinHandle<()>>,
    probe_thread: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        let s = &self.shared.stats;
        (
            s.requests.load(Ordering::SeqCst),
            s.forwarded.load(Ordering::SeqCst),
            s.retries.load(Ordering::SeqCst),
            s.shed_retry_budget.load(Ordering::SeqCst),
            s.shard_down.load(Ordering::SeqCst),
            s.hedges.load(Ordering::SeqCst),
            s.hedge_wins.load(Ordering::SeqCst),
        )
    }

    /// Stops accepting, joins the service threads.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.probe_thread.take() {
            let _ = t.join();
        }
    }
}

/// Starts the router: binds, spawns the accept loop and the status
/// prober.
///
/// # Errors
///
/// `VAL-CONFIG` for an empty or degenerate shard map, `IO-FAILURE` when
/// the bind fails.
pub fn start_router(config: RouterConfig) -> Result<RouterHandle, LintraError> {
    if config.shards.is_empty() {
        return Err(LintraError::new(
            ErrorClass::Validation,
            "VAL-CONFIG",
            "a router needs at least one shard group (--shards)",
        ));
    }
    if config.shards.iter().any(Vec::is_empty) {
        return Err(LintraError::new(
            ErrorClass::Validation,
            "VAL-CONFIG",
            "every shard group needs at least one endpoint",
        ));
    }
    let ring = ShardRing::new(config.shards.len(), config.vnodes);
    let shards: Vec<ShardState> = config
        .shards
        .iter()
        .map(|endpoints| ShardState {
            endpoints: endpoints.clone(),
            cursor: AtomicUsize::new(0),
            breaker: CircuitBreaker::new(config.breaker),
            probed_healthy: AtomicBool::new(false),
            latency: Mutex::new(LatencyTracker::default()),
        })
        .collect();
    let mut acceptor = config
        .transport
        .bind(config.addr.as_str())
        .map_err(|e| LintraError::new(ErrorClass::Io, "IO-FAILURE", e.to_string()))?;
    let addr = acceptor.local_addr();

    let mut hasher = DefaultHasher::new();
    addr.hash(&mut hasher);
    std::process::id().hash(&mut hasher);
    let shared = Arc::new(RouterShared {
        budget: Mutex::new(RetryBudget::new(config.retry_ratio_milli, config.retry_cap)),
        ring,
        shards,
        stats: RouterStats::default(),
        draining: AtomicBool::new(false),
        nonce: hasher.finish() >> 11, // fits the wire's f64-exact range
        config,
    });

    let probe_shared = Arc::clone(&shared);
    let probe_thread = std::thread::spawn(move || probe_loop(&probe_shared));

    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        while !accept_shared.draining.load(Ordering::SeqCst) {
            match acceptor.accept() {
                Ok(Some(conn)) => {
                    let shared = Arc::clone(&accept_shared);
                    conn_threads.push(std::thread::spawn(move || connection_loop(&shared, conn)));
                }
                Ok(None) | Err(_) => accept_shared.config.clock.sleep(POLL),
            }
            conn_threads.retain(|t| !t.is_finished());
        }
        for t in conn_threads {
            let _ = t.join();
        }
    });

    Ok(RouterHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        probe_thread: Some(probe_thread),
    })
}

/// Background health prober: per shard, queries every replica's status
/// and aims the cursor at whichever answers as primary (or stateless —
/// an unreplicated single-node shard is its own primary). A round with
/// no serving replica feeds the breaker a failure, so a dead shard's
/// breaker opens even with zero client traffic; a serving one feeds
/// success, so a healed shard closes it again without sacrificing a
/// live request as the probe.
fn probe_loop(shared: &Arc<RouterShared>) {
    let clock = shared.config.clock.as_ref();
    let transport = shared.config.transport.as_ref();
    while !shared.draining.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            let mut serving = None;
            for (i, endpoint) in shard.endpoints.iter().enumerate() {
                let view =
                    query_status_via(transport, clock, endpoint, shared.config.connect_timeout);
                if let Some(view) = view {
                    if view.role == "primary" || view.role == "stateless" {
                        serving = Some(i);
                        break;
                    }
                }
            }
            match serving {
                Some(i) => {
                    shard.cursor.store(i, Ordering::SeqCst);
                    shard.probed_healthy.store(true, Ordering::SeqCst);
                    shard.breaker.record_success();
                }
                None => {
                    shard.probed_healthy.store(false, Ordering::SeqCst);
                    shard.breaker.record_failure(clock.now());
                }
            }
        }
        clock.sleep(shared.config.probe_interval);
    }
}

fn render_failure(id: &str, class: ErrorClass, code: &str, message: String) -> String {
    WireResponse::err(
        id,
        WireFailure {
            class,
            code: code.to_string(),
            message,
        },
    )
    .render_line()
}

fn connection_loop(shared: &Arc<RouterShared>, mut conn: Box<dyn Conn>) {
    let clock = shared.config.clock.as_ref();
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let line = match read_line(conn.as_mut(), &mut buf, POLL, POLL, clock) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            Err(NetError::Timeout) => continue,
            Err(NetError::FrameTooLarge) => {
                let _ = conn.send(
                    render_failure(
                        "",
                        ErrorClass::Validation,
                        "VAL-FRAME-TOO-LARGE",
                        format!(
                            "request frame exceeds {} bytes without a newline; closing the connection",
                            crate::transport::MAX_FRAME_BYTES
                        ),
                    )
                    .as_bytes(),
                );
                return;
            }
            Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        // Replication-style status query: identify as a router.
        if let Some(ReplMsg::Status) = ReplMsg::parse(&line) {
            let reply = ReplMsg::StatusReply(StatusView {
                role: "router".to_string(),
                nonce: shared.nonce,
                ..StatusView::default()
            });
            if conn.send(reply.render_line().as_bytes()).is_err() {
                return;
            }
            continue;
        }
        // Aggregated cluster view for monitoring tools.
        if Json::parse(&line)
            .ok()
            .and_then(|d| d.get("router").and_then(Json::as_str).map(str::to_string))
            .as_deref()
            == Some("status")
        {
            if conn.send(cluster_status_line(shared).as_bytes()).is_err() {
                return;
            }
            continue;
        }
        let response_line = handle_request(shared, &line);
        if conn.send(response_line.as_bytes()).is_err() {
            return;
        }
    }
}

/// The `{"router":"status"}` answer: one JSON line aggregating every
/// shard's health, cursor, breaker state, and P99 alongside the global
/// budget balance and counters.
fn cluster_status_line(shared: &Arc<RouterShared>) -> String {
    let shards: Vec<Json> = shared
        .shards
        .iter()
        .enumerate()
        .map(|(g, s)| {
            let cursor = s.cursor.load(Ordering::SeqCst) % s.endpoints.len().max(1);
            let p99 = lock_unpoisoned(&s.latency).p99_ms();
            Json::obj([
                ("shard", Json::Num(g as f64)),
                (
                    "endpoints",
                    Json::Arr(
                        s.endpoints
                            .iter()
                            .map(|e| Json::Str(e.clone()))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("preferred", Json::Str(s.endpoints[cursor].clone())),
                ("breaker", Json::Str(s.breaker.state_label().to_string())),
                (
                    "probed_healthy",
                    Json::Bool(s.probed_healthy.load(Ordering::SeqCst)),
                ),
                ("p99_ms", p99.map_or(Json::Null, |ms| Json::Num(ms as f64))),
            ])
        })
        .collect();
    let st = &shared.stats;
    let doc = Json::obj([
        ("router", Json::Str("status-reply".to_string())),
        ("shards", Json::Arr(shards)),
        (
            "retry_budget_milli",
            Json::Num(lock_unpoisoned(&shared.budget).balance_milli() as f64),
        ),
        (
            "requests",
            Json::Num(st.requests.load(Ordering::SeqCst) as f64),
        ),
        (
            "forwarded",
            Json::Num(st.forwarded.load(Ordering::SeqCst) as f64),
        ),
        (
            "retries",
            Json::Num(st.retries.load(Ordering::SeqCst) as f64),
        ),
        (
            "shed_retry_budget",
            Json::Num(st.shed_retry_budget.load(Ordering::SeqCst) as f64),
        ),
        (
            "shard_down",
            Json::Num(st.shard_down.load(Ordering::SeqCst) as f64),
        ),
        ("hedges", Json::Num(st.hedges.load(Ordering::SeqCst) as f64)),
        (
            "hedge_wins",
            Json::Num(st.hedge_wins.load(Ordering::SeqCst) as f64),
        ),
    ]);
    let mut line = doc.render_compact();
    line.push('\n');
    line
}

/// Routes one request line end to end, returning the newline-terminated
/// response line to send (a shard's answer forwarded verbatim, or a
/// router-authored rejection).
fn handle_request(shared: &Arc<RouterShared>, line: &str) -> String {
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    let req = match WireRequest::parse(line) {
        Ok(req) => req,
        Err(detail) => {
            return render_failure(
                "",
                ErrorClass::Validation,
                "VAL-MALFORMED-REQUEST",
                format!("router could not parse the request: {detail}"),
            );
        }
    };
    let key = routing_key(&req);
    let Some(shard_idx) = shared.ring.shard_of(&key) else {
        return render_failure(
            &req.id,
            ErrorClass::Validation,
            "VAL-CONFIG",
            "router has no shards on its ring".to_string(),
        );
    };
    let shard = &shared.shards[shard_idx];
    let clock = shared.config.clock.as_ref();

    // Graceful partial degradation: an open breaker rejects this
    // shard's keys immediately — other shards are untouched.
    if let Err(retry_in) = shard.breaker.admit(clock.now()) {
        shared.stats.shard_down.fetch_add(1, Ordering::SeqCst);
        return render_failure(
            &req.id,
            ErrorClass::Resource,
            "RES-SHARD-DOWN",
            format!(
                "shard {shard_idx} (keys like \"{key}\") has no serving replica; \
                 next probe in {} ms — other shards keep serving",
                retry_in.as_millis()
            ),
        );
    }
    lock_unpoisoned(&shared.budget).on_request();

    let started = clock.now();
    let mut walk_result = forward_with_hedge(shared, shard_idx, &req, line);
    let mut retries_used = 0u32;
    while walk_result.is_err() && retries_used < shared.config.max_retries {
        // The whole replica list failed: one more walk is a *retry* and
        // must fit the global budget, or the stampede stops here.
        if !lock_unpoisoned(&shared.budget).try_retry() {
            shared
                .stats
                .shed_retry_budget
                .fetch_add(1, Ordering::SeqCst);
            return render_failure(
                &req.id,
                ErrorClass::Resource,
                "RES-RETRY-BUDGET",
                format!(
                    "retry budget exhausted after {retries_used} retr{} — shedding instead \
                     of stampeding shard {shard_idx}",
                    if retries_used == 1 { "y" } else { "ies" }
                ),
            );
        }
        shared.stats.retries.fetch_add(1, Ordering::SeqCst);
        retries_used += 1;
        clock.sleep(Duration::from_millis(25 * u64::from(retries_used)));
        walk_result = forward_with_hedge(shared, shard_idx, &req, line);
    }
    match walk_result {
        Ok(response_line) => {
            let elapsed = clock.now().saturating_sub(started);
            lock_unpoisoned(&shard.latency).record_ms(elapsed.as_millis() as u64);
            shard.breaker.record_success();
            shared.stats.forwarded.fetch_add(1, Ordering::SeqCst);
            response_line
        }
        Err(last_error) => {
            shard.breaker.record_failure(clock.now());
            shared.stats.shard_down.fetch_add(1, Ordering::SeqCst);
            render_failure(
                &req.id,
                ErrorClass::Resource,
                "RES-SHARD-DOWN",
                format!(
                    "no replica of shard {shard_idx} answered ({last_error}); \
                     other shards keep serving"
                ),
            )
        }
    }
}

/// One walk of a shard's replica list, hedged for keyed requests: if
/// the preferred replica has not answered within the shard's P99, the
/// same line races to the next replica and the first answer wins.
///
/// Hedging is safe *only* because hedged requests carry an idempotency
/// key: whichever copy reaches the journal second is answered
/// `RES-DUPLICATE-REQUEST` (while executing) or byte-identically from
/// the journal (when settled) — never executed twice. A
/// `RES-DUPLICATE-REQUEST` answer is therefore treated as "the other
/// copy is still running", not forwarded as the winner.
fn forward_with_hedge(
    shared: &Arc<RouterShared>,
    shard_idx: usize,
    req: &WireRequest,
    line: &str,
) -> Result<String, String> {
    let shard = &shared.shards[shard_idx];
    let clock = shared.config.clock.as_ref();
    let hedgeable = shared.config.hedge && req.request_id.is_some() && shard.endpoints.len() > 1;
    if !hedgeable {
        return walk_shard(shared, shard_idx, line, 0);
    }

    let hedge_after = Duration::from_millis(
        lock_unpoisoned(&shard.latency).hedge_delay_ms(shared.config.hedge_min.as_millis() as u64),
    );
    let (tx, rx) = mpsc::channel::<(bool, Result<String, String>)>();
    {
        let tx = tx.clone();
        let shared = Arc::clone(shared);
        let line = line.to_string();
        std::thread::spawn(move || {
            let _ = tx.send((false, walk_shard(&shared, shard_idx, &line, 0)));
        });
    }
    let started = clock.now();
    let mut hedged = false;
    let mut outstanding = 1u32;
    // A RES-DUPLICATE-REQUEST line held back while the other copy (the
    // one actually executing) is still in flight.
    let mut duplicate_fallback: Option<String> = None;
    let mut last_error = String::new();
    let overall = shared
        .config
        .request_timeout
        .saturating_add(shared.config.connect_timeout);
    loop {
        match rx.recv_timeout(POLL) {
            Ok((is_hedge, Ok(response))) => {
                outstanding = outstanding.saturating_sub(1);
                let duplicate = WireResponse::parse(response.trim_end()).ok().is_some_and(
                    |r| matches!(&r.outcome, Err(f) if f.code == "RES-DUPLICATE-REQUEST"),
                );
                if duplicate {
                    // The other copy owns the execution; keep waiting
                    // for it. Only when nothing else is coming does the
                    // duplicate verdict reach the client (whose keyed
                    // retry will be served from the journal).
                    if outstanding == 0 {
                        return Ok(response);
                    }
                    duplicate_fallback = Some(response);
                    continue;
                }
                if is_hedge {
                    shared.stats.hedge_wins.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(response);
            }
            Ok((_, Err(e))) => {
                outstanding = outstanding.saturating_sub(1);
                last_error = e;
                if outstanding == 0 {
                    return match duplicate_fallback {
                        Some(dup) => Ok(dup),
                        None => Err(last_error),
                    };
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let waited = clock.now().saturating_sub(started);
                if waited >= overall {
                    return Err(format!(
                        "no replica answered within {} ms",
                        overall.as_millis()
                    ));
                }
                if !hedged && waited >= hedge_after {
                    // P99 exceeded: race the next replica. A hedge is
                    // speculative retry traffic, so it draws from the
                    // same global budget; an empty budget skips the
                    // hedge but never sheds the original.
                    if lock_unpoisoned(&shared.budget).try_retry() {
                        shared.stats.hedges.fetch_add(1, Ordering::SeqCst);
                        launch_hedge(shared, shard_idx, line, &tx);
                        outstanding += 1;
                    }
                    hedged = true;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return match duplicate_fallback {
                    Some(dup) => Ok(dup),
                    None if last_error.is_empty() => {
                        Err("every forwarding thread died".to_string())
                    }
                    None => Err(last_error),
                };
            }
        }
    }
}

fn launch_hedge(
    shared: &Arc<RouterShared>,
    shard_idx: usize,
    line: &str,
    tx: &mpsc::Sender<(bool, Result<String, String>)>,
) {
    let tx = tx.clone();
    let shared = Arc::clone(shared);
    let line = line.to_string();
    std::thread::spawn(move || {
        // Start one past the preferred replica so the hedge explores a
        // different path first (its walk still reaches the primary via
        // redirects if the follower it hits is not serving).
        let _ = tx.send((true, walk_shard(&shared, shard_idx, &line, 1)));
    });
}

/// Walks one shard's replica list once, starting `offset` past the
/// cursor: forwards the raw line, advances past dead endpoints and
/// `RES-NOT-PRIMARY` / `RES-STALE-EPOCH` redirects, and returns the
/// first authoritative response line verbatim (byte-identical
/// passthrough — the router never re-renders a shard's answer).
fn walk_shard(
    shared: &Arc<RouterShared>,
    shard_idx: usize,
    line: &str,
    offset: usize,
) -> Result<String, String> {
    let shard = &shared.shards[shard_idx];
    let n = shard.endpoints.len();
    let mut last_error = "shard has no endpoints".to_string();
    for step in 0..n {
        let at = (shard.cursor.load(Ordering::SeqCst) + offset + step) % n;
        let endpoint = &shard.endpoints[at];
        match forward_once(shared, endpoint, line) {
            Ok(response) => {
                let redirect = WireResponse::parse(response.trim_end())
                    .ok()
                    .is_some_and(|r| {
                        matches!(
                            &r.outcome,
                            Err(f) if f.code == "RES-NOT-PRIMARY" || f.code == "RES-STALE-EPOCH"
                        )
                    });
                if redirect {
                    last_error = format!("{endpoint} is not primary");
                    continue;
                }
                if offset == 0 {
                    // Remember who answered: the next request starts here.
                    shard.cursor.store(at, Ordering::SeqCst);
                }
                return Ok(response);
            }
            Err(e) => {
                // A dead endpoint is skipped without sleeping.
                last_error = format!("{endpoint}: {e}");
            }
        }
    }
    Err(last_error)
}

/// Forwards one raw request line to one endpoint and reads one response
/// line.
fn forward_once(shared: &Arc<RouterShared>, endpoint: &str, line: &str) -> Result<String, String> {
    let clock = shared.config.clock.as_ref();
    let mut conn = shared
        .config
        .transport
        .connect(endpoint, shared.config.connect_timeout)
        .map_err(|e| e.to_string())?;
    let mut framed = line.trim_end().to_string();
    framed.push('\n');
    conn.send(framed.as_bytes())
        .map_err(|e| format!("sending: {e}"))?;
    let mut buf = Vec::new();
    match read_line(
        conn.as_mut(),
        &mut buf,
        shared.config.request_timeout,
        POLL,
        clock,
    ) {
        Ok(Some(mut response)) => {
            response.push('\n');
            Ok(response)
        }
        Ok(None) => Err("connection closed before a response".to_string()),
        Err(e) => Err(format!("reading response: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_bench::wire::WireOp;

    #[test]
    fn the_ring_is_deterministic_and_total() {
        let ring = ShardRing::new(3, 16);
        for key in ["a", "chemical", "iir5", "req-42", ""] {
            let a = ring.shard_of(key);
            let b = ring.shard_of(key);
            assert_eq!(a, b, "stable for {key:?}");
            assert!(a.is_some_and(|s| s < 3));
        }
        assert_eq!(ShardRing::new(0, 16).shard_of("x"), None);
    }

    #[test]
    fn every_shard_owns_a_reasonable_key_share() {
        let ring = ShardRing::new(4, 32);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            if let Some(s) = ring.shard_of(&format!("key-{i}")) {
                counts[s] += 1;
            }
        }
        for (g, c) in counts.iter().enumerate() {
            assert!(
                (400..=2200).contains(c),
                "shard {g} owns {c} of 4000 keys — ring is badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_own_keys() {
        let before = ShardRing::new(4, 32);
        let after = ShardRing::new(3, 32);
        let mut moved = 0usize;
        let mut total = 0usize;
        for i in 0..2000 {
            let key = format!("key-{i}");
            let (Some(b), Some(a)) = (before.shard_of(&key), after.shard_of(&key)) else {
                continue;
            };
            total += 1;
            if b < 3 && a != b {
                moved += 1;
            }
        }
        // Consistent hashing: keys on surviving shards overwhelmingly
        // stay put (an ordinary mod-N split would move ~2/3 of them).
        assert!(
            moved * 5 < total,
            "{moved} of {total} surviving-shard keys moved"
        );
    }

    #[test]
    fn routing_keys_prefer_the_idempotency_key() {
        let keyed = WireRequest::new("c1", WireOp::Ping).with_request_id("rid-7");
        assert_eq!(routing_key(&keyed), "rid-7");
        let design = WireRequest::new(
            "c2",
            WireOp::Sweep {
                design: "iir5".to_string(),
                max_i: 4,
            },
        );
        assert_eq!(routing_key(&design), "iir5");
        let bare = WireRequest::new("c3", WireOp::Ping);
        assert_eq!(routing_key(&bare), "c3");
    }

    #[test]
    fn the_retry_budget_caps_retry_volume_at_the_ratio() {
        let mut b = RetryBudget::new(100, 2); // 10%, burst of 2
                                              // Drain the initial burst allowance.
        assert!(b.try_retry());
        assert!(b.try_retry());
        assert!(!b.try_retry(), "burst cap exhausted");
        // 100 requests earn exactly 10 retries at a 10% ratio.
        let mut granted = 0;
        for _ in 0..100 {
            b.on_request();
            if b.try_retry() {
                granted += 1;
            }
        }
        assert_eq!(granted, 10, "retries must track 10% of request volume");
    }

    #[test]
    fn the_budget_banks_at_most_the_cap() {
        let mut b = RetryBudget::new(100, 3);
        for _ in 0..10_000 {
            b.on_request();
        }
        let mut granted = 0;
        while b.try_retry() {
            granted += 1;
        }
        assert_eq!(granted, 3, "an idle hour cannot bank an unbounded burst");
    }

    #[test]
    fn p99_tracks_the_tail_and_floors_the_hedge_delay() {
        let mut t = LatencyTracker::default();
        assert_eq!(t.p99_ms(), None);
        assert_eq!(t.hedge_delay_ms(50), 50, "cold tracker hedges at the floor");
        for _ in 0..99 {
            t.record_ms(10);
        }
        t.record_ms(400);
        let p99 = t.p99_ms().unwrap_or(0);
        assert!(p99 >= 400, "the tail sample dominates P99: {p99}");
        assert_eq!(t.hedge_delay_ms(50), p99);
        let mut fast = LatencyTracker::default();
        fast.record_ms(3);
        assert_eq!(
            fast.hedge_delay_ms(50),
            50,
            "P99 below the floor is floored"
        );
    }

    #[test]
    fn a_router_with_no_shards_is_a_config_error() {
        let err = start_router(RouterConfig::default()).expect_err("no shards");
        assert_eq!(err.code(), "VAL-CONFIG");
        let err = start_router(RouterConfig {
            shards: vec![vec!["127.0.0.1:9001".to_string()], vec![]],
            ..RouterConfig::default()
        })
        .expect_err("empty group");
        assert_eq!(err.code(), "VAL-CONFIG");
    }
}
