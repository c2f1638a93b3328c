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
//! Every routing decision is made by one sans-IO state machine,
//! [`RouterCore`], shaped like [`crate::protocol::Core`]: it never
//! reads a clock, sleeps, or touches a socket, and its outputs depend
//! only on (state, `now`, input). Attempt deadlines, hedge delays and
//! retry backoff are its timers ([`RouterCore::poll_timeout`]). The
//! threaded router below drives it over the server's socket layer
//! ([`crate::transport`]: one accept loop, one connection loop with the
//! frame-size and slow-loris guards, one exchange per forward on a
//! connection it keeps open), and the deterministic simulator
//! (`lintra-sim`) drives the same core under virtual time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lintra::{ErrorClass, LintraError};
use lintra_bench::json::Json;
use lintra_bench::wire::{WireFailure, WireRequest, WireResponse};

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::clock::{Clock, SystemClock};
use crate::replicate::{exchange, ReplMsg, StatusView};
use crate::server::lock_unpoisoned;
use crate::transport::{
    accept_loop, send_and_read, serve_connection, Conn, Listener, TcpTransport, Transport, POLL,
};

// --- routing arithmetic ---------------------------------------------------

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

// --- the sans-IO router core -----------------------------------------------

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
        }
    }
}

/// Monotonic router counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RouterStats {
    /// Requests received (any kind).
    pub requests: u64,
    /// Requests the breaker admitted; each deposits into the retry
    /// budget.
    pub admitted: u64,
    /// Responses forwarded from a shard (success or classified failure).
    pub forwarded: u64,
    /// Budgeted re-walks after a full shard-walk failure.
    pub retries: u64,
    /// Retries shed with `RES-RETRY-BUDGET`.
    pub shed_retry_budget: u64,
    /// Requests answered `RES-SHARD-DOWN`.
    pub shard_down: u64,
    /// Hedges launched.
    pub hedges: u64,
    /// Hedges that answered first.
    pub hedge_wins: u64,
}

/// Backoff before the n-th re-walk of a shard is n times this.
const BACKOFF_STEP: Duration = Duration::from_millis(25);

/// True for a probed role that serves compute: a primary, or a
/// standalone server, which is its own primary.
pub fn serves(role: &str) -> bool {
    role == "primary" || role == "stateless"
}

/// One event for [`RouterCore`].
#[derive(Debug, Clone)]
pub enum Input {
    /// `(from, line)`: a line arrived on client connection `from`; its
    /// answer is an [`Output::Reply`] to `from`.
    Line(String, String),
    /// `(attempt, result)`: what the [`Output::Forward`] numbered
    /// `attempt` got back — the shard's response line, or why none
    /// came.
    Answer(u64, Result<String, String>),
    /// A probe round over `shard` found the endpoint at index `serving`
    /// serving, or (`None`) no replica serving.
    Probed {
        /// The probed shard.
        shard: usize,
        /// Index of the first serving endpoint, if any.
        serving: Option<usize>,
    },
    /// A deadline reported by [`RouterCore::poll_timeout`] may have
    /// passed (an early call is harmless). `Some(conn)` runs the timers
    /// of `conn`'s requests only, so no connection's thread does another
    /// connection's work; `None` runs every due timer.
    Timeout(Option<String>),
}

/// One side effect for the driver, carried out in order.
#[derive(Debug, Clone)]
pub enum Output {
    /// Send the newline-terminated `line` to client connection `to`.
    Reply {
        /// The connection named in [`Input::Line`].
        to: String,
        /// The answer.
        line: String,
    },
    /// Send `line` to endpoint `to` and feed the one response line back
    /// as [`Input::Answer`] under `attempt`.
    Forward {
        /// Names this send in its [`Input::Answer`].
        attempt: u64,
        /// The shard endpoint.
        to: String,
        /// The request line.
        line: String,
        /// Another copy of the request may be sent while this one is
        /// outstanding (the request is hedgeable), so a driver must
        /// keep running timers while it waits.
        racing: bool,
    },
}

#[derive(Debug)]
struct Shard {
    endpoints: Vec<String>,
    /// Preferred endpoint index (the replica that last answered, or the
    /// primary the prober found).
    cursor: usize,
    breaker: CircuitBreaker,
    /// The last probe round's verdict: `Some(true)` found a serving
    /// replica, `Some(false)` found none, `None` before the first round.
    /// The breaker is the authority for admission; this one gates hedges.
    probed: Option<bool>,
    latency: LatencyTracker,
}

impl Shard {
    fn endpoint(&self, at: usize) -> String {
        self.endpoints.get(at).cloned().unwrap_or_default()
    }
}

/// One copy of a request walking its shard's replica list.
#[derive(Debug)]
struct Walk {
    /// The outstanding forward.
    attempt: u64,
    /// Hedge walks start one past the cursor and never move it.
    hedge: bool,
    /// Endpoint index of the outstanding forward.
    at: usize,
    /// Endpoints still to try after this one.
    left: usize,
    deadline: Duration,
}

/// One admitted request, from admission to its reply.
#[derive(Debug)]
struct Pending {
    to: String,
    id: String,
    line: String,
    shard: usize,
    /// Keyed, hedging on, and more than one replica.
    racing: bool,
    started: Duration,
    retries: u32,
    /// The copies of the current walk round still outstanding.
    walks: Vec<Walk>,
    hedge_at: Option<Duration>,
    retry_at: Option<Duration>,
    /// A `RES-DUPLICATE-REQUEST` answer held while another copy (the
    /// one actually executing) is still outstanding.
    duplicate: Option<String>,
    last_error: String,
}

/// The router as one sans-IO state machine: admission, the endpoint
/// walk, hedging, retries under the budget, the per-shard breakers and
/// cursors, and the counters. A driver feeds it [`Input`]s stamped with
/// the current time and carries out the [`Output`]s, in order.
#[derive(Debug)]
pub struct RouterCore {
    ring: ShardRing,
    shards: Vec<Shard>,
    budget: RetryBudget,
    stats: RouterStats,
    /// Admitted requests by admission number (a deterministic order).
    pending: BTreeMap<u64, Pending>,
    /// Last admission or attempt number handed out.
    next: u64,
    nonce: u64,
    /// Patience per forward: connect plus response wait.
    forward_budget: Duration,
    max_retries: u32,
    hedge: bool,
    hedge_min: Duration,
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn failure_code(line: &str) -> Option<String> {
    WireResponse::parse(line.trim_end())
        .ok()
        .and_then(|r| r.outcome.err())
        .map(|f| f.code)
}

impl RouterCore {
    /// A core over `config`'s shard groups; `nonce` identifies this
    /// router in status replies. The address and probe interval are the
    /// driver's.
    pub fn new(config: &RouterConfig, nonce: u64) -> RouterCore {
        let shards = config.shards.iter().map(|endpoints| Shard {
            endpoints: endpoints.clone(),
            cursor: 0,
            breaker: CircuitBreaker::new(config.breaker),
            probed: None,
            latency: LatencyTracker::default(),
        });
        RouterCore {
            ring: ShardRing::new(config.shards.len(), config.vnodes),
            shards: shards.collect(),
            budget: RetryBudget::new(config.retry_ratio_milli, config.retry_cap),
            stats: RouterStats::default(),
            pending: BTreeMap::new(),
            next: 0,
            nonce,
            forward_budget: config
                .connect_timeout
                .saturating_add(config.request_timeout)
                .max(Duration::from_millis(1)),
            max_retries: config.max_retries,
            hedge: config.hedge,
            hedge_min: config.hedge_min,
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// The next instant [`Input::Timeout`] has work to do for `conn`'s
    /// requests, or (`None`) for any request.
    pub fn poll_timeout(&self, conn: Option<&str>) -> Option<Duration> {
        self.pending
            .values()
            .filter(|p| conn.is_none_or(|c| c == p.to))
            .flat_map(|p| {
                let deadlines = p.walks.iter().map(|w| w.deadline);
                deadlines.chain(p.hedge_at).chain(p.retry_at)
            })
            .min()
    }

    /// Handles one input.
    pub fn step(&mut self, now: Duration, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        match input {
            Input::Line(from, line) => self.on_line(now, from, &line, &mut out),
            Input::Answer(attempt, result) => self.on_answer(now, attempt, result, &mut out),
            Input::Probed { shard, serving } => self.on_probed(now, shard, serving),
            Input::Timeout(conn) => self.on_timeout(now, conn.as_deref(), &mut out),
        }
        out
    }

    fn on_line(&mut self, now: Duration, from: String, line: &str, out: &mut Vec<Output>) {
        let reply = |line: String| Output::Reply {
            to: from.clone(),
            line,
        };
        let refuse =
            |id: &str, class, code, message| reply(render_failure(id, class, code, message));
        // Replication-style status query: identify as a router.
        if let Some(ReplMsg::Status) = ReplMsg::parse(line) {
            let st = ReplMsg::StatusReply(StatusView {
                role: "router".to_string(),
                nonce: self.nonce,
                ..StatusView::default()
            });
            return out.push(reply(st.render_line()));
        }
        // Aggregated cluster view for monitoring tools.
        let query = Json::parse(line).ok();
        if query.as_ref().and_then(|d| d.get("router")?.as_str()) == Some("status") {
            return out.push(reply(self.cluster_status()));
        }
        self.stats.requests += 1;
        let req = match WireRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let message = format!("router could not parse the request: {e}");
                return out.push(refuse(
                    "",
                    ErrorClass::Validation,
                    "VAL-MALFORMED-REQUEST",
                    message,
                ));
            }
        };
        let key = routing_key(&req);
        let Some(g) = self.ring.shard_of(&key) else {
            let message = "router has no shards on its ring".to_string();
            return out.push(refuse(
                &req.id,
                ErrorClass::Validation,
                "VAL-CONFIG",
                message,
            ));
        };
        let shard = &self.shards[g];
        // Graceful partial degradation: an open breaker rejects this
        // shard's keys immediately — other shards are untouched.
        if let Err(retry_in) = shard.breaker.admit(now) {
            self.stats.shard_down += 1;
            let message = format!(
                "shard {g} (keys like \"{key}\") has no serving replica; \
                 next probe in {} ms — other shards keep serving",
                retry_in.as_millis()
            );
            return out.push(refuse(
                &req.id,
                ErrorClass::Resource,
                "RES-SHARD-DOWN",
                message,
            ));
        }
        self.budget.on_request();
        self.stats.admitted += 1;
        self.next += 1;
        let pending = Pending {
            to: from,
            id: req.id,
            line: line.to_string(),
            shard: g,
            racing: self.hedge && req.request_id.is_some() && shard.endpoints.len() > 1,
            started: now,
            retries: 0,
            walks: Vec::new(),
            hedge_at: None,
            retry_at: None,
            duplicate: None,
            last_error: String::new(),
        };
        self.pending.insert(self.next, pending);
        self.start_round(now, self.next, out);
    }

    /// One walk of the shard's replica list from its cursor; a racing
    /// request also arms its hedge at the shard's P99, floored at
    /// `hedge_min` and capped below the forward deadline: retried
    /// requests can lift the P99 past that deadline, and a lost first
    /// forward would then never be raced.
    fn start_round(&mut self, now: Duration, id: u64, out: &mut Vec<Output>) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if p.racing {
            let delay = self.shards[p.shard]
                .latency
                .hedge_delay_ms(millis(self.hedge_min));
            let cap = self.forward_budget.saturating_sub(Duration::from_millis(1));
            p.hedge_at = Some(now + Duration::from_millis(delay).min(cap));
        }
        self.launch(now, id, false, out);
    }

    /// Starts one copy's walk: the original at the cursor, a hedge one
    /// past it, so the hedge explores a different path first (its walk
    /// still reaches the primary via redirects).
    fn launch(&mut self, now: Duration, id: u64, hedge: bool, out: &mut Vec<Output>) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        let shard = &self.shards[p.shard];
        let n = shard.endpoints.len().max(1);
        p.walks.push(Walk {
            attempt: 0,
            hedge,
            at: (shard.cursor + usize::from(hedge)) % n,
            left: n - 1,
            deadline: now,
        });
        let i = p.walks.len() - 1;
        self.send(now, id, i, out);
    }

    /// Forwards request `id` to the endpoint its walk `i` stands at,
    /// under a fresh attempt number and deadline.
    fn send(&mut self, now: Duration, id: u64, i: usize, out: &mut Vec<Output>) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        let w = &mut p.walks[i];
        self.next += 1;
        w.attempt = self.next;
        w.deadline = now + self.forward_budget;
        out.push(Output::Forward {
            attempt: w.attempt,
            to: self.shards[p.shard].endpoint(w.at),
            line: p.line.clone(),
            racing: p.racing,
        });
    }

    fn on_answer(
        &mut self,
        now: Duration,
        attempt: u64,
        result: Result<String, String>,
        out: &mut Vec<Output>,
    ) {
        let found = self.pending.iter().find_map(|(id, p)| {
            let i = p.walks.iter().position(|w| w.attempt == attempt)?;
            Some((*id, i))
        });
        // A straggler: its request was answered or its deadline passed.
        let Some((id, i)) = found else {
            return;
        };
        match result {
            Ok(line) => match failure_code(&line).as_deref() {
                Some("RES-NOT-PRIMARY" | "RES-STALE-EPOCH") => {
                    self.advance(now, id, i, "not primary", out);
                }
                code => {
                    let duplicate = code == Some("RES-DUPLICATE-REQUEST");
                    self.answered(now, id, i, line, duplicate, out);
                }
            },
            Err(e) => self.advance(now, id, i, &e, out),
        }
    }

    /// Walk `i` of request `id` got an authoritative answer: the first
    /// one wins, except that a `RES-DUPLICATE-REQUEST` waits for the
    /// other copy still in flight — that copy owns the execution. Only
    /// when nothing else is coming does the duplicate verdict reach the
    /// client (whose keyed retry will be served from the journal).
    fn answered(
        &mut self,
        now: Duration,
        id: u64,
        i: usize,
        line: String,
        duplicate: bool,
        out: &mut Vec<Output>,
    ) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        let walk = p.walks.remove(i);
        if !walk.hedge {
            // Remember who answered: the next request starts here.
            self.shards[p.shard].cursor = walk.at;
        }
        if duplicate {
            if !p.walks.is_empty() {
                p.duplicate = Some(line);
                return;
            }
        } else if walk.hedge {
            self.stats.hedge_wins += 1;
        }
        self.finish(now, id, line, out);
    }

    /// Forwards a shard's answer verbatim (byte-identical passthrough —
    /// the router never re-renders a shard's answer).
    fn finish(&mut self, now: Duration, id: u64, mut line: String, out: &mut Vec<Output>) {
        let Some(p) = self.pending.remove(&id) else {
            return;
        };
        let shard = &mut self.shards[p.shard];
        shard
            .latency
            .record_ms(millis(now.saturating_sub(p.started)));
        shard.breaker.record_success();
        self.stats.forwarded += 1;
        if !line.ends_with('\n') {
            line.push('\n');
        }
        out.push(Output::Reply { to: p.to, line });
    }

    /// Walk `i`'s endpoint failed — it is dead, silent past its
    /// deadline, or redirected us. The walk moves to its next endpoint
    /// without sleeping, or ends; the round fails with its last copy.
    /// Every forward has its own deadline, in a hedged round too: the
    /// round has no deadline of its own (R1 regression seeds 235 and
    /// 1867 in `tests/sim.rs`).
    fn advance(&mut self, now: Duration, id: u64, i: usize, why: &str, out: &mut Vec<Output>) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        let shard = &self.shards[p.shard];
        let w = &mut p.walks[i];
        p.last_error = format!("{}: {why}", shard.endpoint(w.at));
        if w.left > 0 {
            w.left -= 1;
            w.at = (w.at + 1) % shard.endpoints.len().max(1);
            return self.send(now, id, i, out);
        }
        p.walks.remove(i);
        if p.walks.is_empty() {
            self.round_failed(now, id, out);
        }
    }

    /// Every copy of the round failed on every endpoint. That counts one
    /// breaker failure, whatever follows; then the request re-walks the
    /// shard after a backoff if the global budget pays for it, is shed,
    /// or gives the shard up.
    fn round_failed(&mut self, now: Duration, id: u64, out: &mut Vec<Output>) {
        let Some(p) = self.pending.get_mut(&id) else {
            return;
        };
        if let Some(duplicate) = p.duplicate.take() {
            return self.finish(now, id, duplicate, out);
        }
        let g = p.shard;
        self.shards[g].breaker.record_failure(now);
        p.hedge_at = None;
        let gave_up = p.retries >= self.max_retries || self.shards[g].breaker.admit(now).is_err();
        let (code, message) = if gave_up {
            self.stats.shard_down += 1;
            let message = format!(
                "no replica of shard {g} answered ({}); other shards keep serving",
                p.last_error
            );
            ("RES-SHARD-DOWN", message)
        } else if self.budget.try_retry() {
            self.stats.retries += 1;
            p.retries += 1;
            p.retry_at = Some(now + BACKOFF_STEP * p.retries);
            return;
        } else {
            self.stats.shed_retry_budget += 1;
            let r = p.retries;
            let message = format!(
                "retry budget exhausted after {r} retr{} — shedding instead of stampeding \
                 shard {g}",
                if r == 1 { "y" } else { "ies" }
            );
            ("RES-RETRY-BUDGET", message)
        };
        let line = render_failure(&p.id, ErrorClass::Resource, code, message);
        let to = p.to.clone();
        self.pending.remove(&id);
        out.push(Output::Reply { to, line });
    }

    fn on_timeout(&mut self, now: Duration, conn: Option<&str>, out: &mut Vec<Output>) {
        let mine = |(id, p): (&u64, &Pending)| conn.is_none_or(|c| c == p.to).then_some(*id);
        let ids: Vec<u64> = self.pending.iter().filter_map(mine).collect();
        for id in ids {
            let due = |p: &Pending| p.walks.iter().position(|w| w.deadline <= now);
            while let Some(i) = self.pending.get(&id).and_then(due) {
                self.advance(now, id, i, "no response before the deadline", out);
            }
            let Some(p) = self.pending.get_mut(&id) else {
                continue;
            };
            let hedge = p.hedge_at.take_if(|at| *at <= now).is_some();
            let retry = p.retry_at.take_if(|at| *at <= now).is_some();
            // P99 exceeded: race the next replica. A hedge is speculative
            // retry traffic, so it draws from the same global budget; an
            // empty budget skips the hedge but never sheds the original.
            // Nor is a shard hedged whose last probe round found no serving
            // replica: hedges raced against a blacked-out shard, before its
            // breaker opened, drained the budget that a healthy shard's
            // lost forward then needed (R1 regression seed 3327).
            let down = self.shards[p.shard].probed == Some(false);
            if hedge && !down && self.budget.try_retry() {
                self.stats.hedges += 1;
                self.launch(now, id, true, out);
            }
            if retry {
                self.start_round(now, id, out);
            }
        }
    }

    /// A probe round's verdict: a serving replica re-aims the cursor
    /// and closes the breaker, so a healed shard recovers without
    /// sacrificing a live request; a round with none feeds the breaker a
    /// failure, so a dead shard's breaker opens with zero client
    /// traffic.
    fn on_probed(&mut self, now: Duration, shard: usize, serving: Option<usize>) {
        let Some(s) = self.shards.get_mut(shard) else {
            return;
        };
        match serving.filter(|i| *i < s.endpoints.len()) {
            Some(i) => {
                s.cursor = i;
                s.probed = Some(true);
                s.breaker.record_success();
            }
            None => {
                s.probed = Some(false);
                s.breaker.record_failure(now);
            }
        }
    }

    /// The `{"router":"status"}` answer: one JSON line aggregating every
    /// shard's health, cursor, breaker state, and P99 alongside the
    /// global budget balance and counters.
    fn cluster_status(&self) -> String {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(g, s)| {
                let endpoints = s.endpoints.iter().map(|e| Json::Str(e.clone()));
                let p99 = s.latency.p99_ms();
                Json::obj([
                    ("shard", Json::Num(g as f64)),
                    ("endpoints", Json::Arr(endpoints.collect())),
                    ("preferred", Json::Str(s.endpoint(s.cursor))),
                    ("breaker", Json::Str(s.breaker.state_label().to_string())),
                    ("probed_healthy", Json::Bool(s.probed == Some(true))),
                    ("p99_ms", p99.map_or(Json::Null, |ms| Json::Num(ms as f64))),
                ])
            })
            .collect();
        let st = &self.stats;
        let count = |n: u64| Json::Num(n as f64);
        let doc = Json::obj([
            ("router", Json::Str("status-reply".to_string())),
            ("shards", Json::Arr(shards)),
            ("retry_budget_milli", count(self.budget.balance_milli())),
            ("requests", count(st.requests)),
            ("forwarded", count(st.forwarded)),
            ("retries", count(st.retries)),
            ("shed_retry_budget", count(st.shed_retry_budget)),
            ("shard_down", count(st.shard_down)),
            ("hedges", count(st.hedges)),
            ("hedge_wins", count(st.hedge_wins)),
        ]);
        let mut line = doc.render_compact();
        line.push('\n');
        line
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

// --- the threaded driver ----------------------------------------------------

/// Idle connections kept per shard endpoint. Each one holds a connection
/// thread open on the shard server, so the bound keeps what concurrent
/// forwards to one endpoint reuse and no more. On the benchmark's
/// `routed_replicated` workload (10 s runs on a 2-vCPU host), a bound of
/// 1 answered 84–90 closed-loop requests/s (5 seeds) and bounds of 2, 4
/// and 8 answered 91–97 (3 to 5 seeds each), with latency and peak
/// memory inside their run-to-run spread; 4 is the middle of that
/// plateau. A forward that finds none idle connects, and a connection
/// past the bound closes after its reply.
const IDLE_PER_ENDPOINT: usize = 4;

/// The router's idle connections to its shard endpoints, shared by every
/// forward. One pool, not a connection per client connection: clients
/// such as `lintra request` open a connection per request, so an
/// upstream connection tied to one would never be reused.
struct Pool {
    /// `None` once the pool is closed.
    idle: Mutex<Option<IdleConns>>,
}

/// Endpoint → its idle connections.
type IdleConns = HashMap<String, Vec<Box<dyn Conn>>>;

impl Pool {
    fn new() -> Pool {
        Pool {
            idle: Mutex::new(Some(HashMap::new())),
        }
    }

    /// An idle connection to `endpoint`, the most recently used first.
    fn take(&self, endpoint: &str) -> Option<Box<dyn Conn>> {
        lock_unpoisoned(&self.idle)
            .as_mut()?
            .get_mut(endpoint)?
            .pop()
    }

    /// Keeps `conn`, whose last reply was complete, for the next forward
    /// to `endpoint`; past the bound or once closed, it closes instead.
    fn put(&self, endpoint: &str, conn: Box<dyn Conn>) {
        let mut idle = lock_unpoisoned(&self.idle);
        let Some(map) = idle.as_mut() else {
            return;
        };
        let conns = map.entry(endpoint.to_string()).or_default();
        if conns.len() < IDLE_PER_ENDPOINT {
            conns.push(conn);
        }
    }

    /// Closes `endpoint`'s idle connections: it failed to answer, so
    /// they may lead to a dead or vanished host.
    fn purge(&self, endpoint: &str) {
        if let Some(map) = lock_unpoisoned(&self.idle).as_mut() {
            map.remove(endpoint);
        }
    }

    /// Closes every idle connection and keeps none from now on.
    fn close(&self) {
        *lock_unpoisoned(&self.idle) = None;
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct RouterShared {
    config: RouterConfig,
    /// The router's one time base: every instant its core sees is read
    /// here.
    clock: SystemClock,
    core: Mutex<RouterCore>,
    pool: Pool,
    next_conn: AtomicU64,
    draining: AtomicBool,
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

    /// A point-in-time copy of the counters: requests, forwarded,
    /// retries, shed, shard-down, hedges, hedge wins.
    pub fn stats(&self) -> (u64, u64, u64, u64, u64, u64, u64) {
        let s = lock_unpoisoned(&self.shared.core).stats();
        (
            s.requests,
            s.forwarded,
            s.retries,
            s.shed_retry_budget,
            s.shard_down,
            s.hedges,
            s.hedge_wins,
        )
    }

    /// Stops accepting, joins the service threads, and closes the idle
    /// shard connections, so the shards' connection threads see EOF at
    /// once.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.pool.close();
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
    let listener = Listener::bind(&config.addr)?;
    let addr = listener.addr.to_string();

    let mut hasher = DefaultHasher::new();
    addr.hash(&mut hasher);
    std::process::id().hash(&mut hasher);
    // The nonce fits the wire's f64-exact range.
    let core = RouterCore::new(&config, hasher.finish() >> 11);
    let shared = Arc::new(RouterShared {
        clock: SystemClock::new(),
        core: Mutex::new(core),
        pool: Pool::new(),
        next_conn: AtomicU64::new(0),
        draining: AtomicBool::new(false),
        config,
    });

    let probe_shared = Arc::clone(&shared);
    let probe_thread = std::thread::spawn(move || probe_loop(&probe_shared));

    let sh = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        let conn_shared = Arc::clone(&sh);
        let serve = move |conn| connection(&conn_shared, conn);
        accept_loop(listener, &sh.draining, &sh.clock, serve);
    });

    Ok(RouterHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        probe_thread: Some(probe_thread),
    })
}

/// Background health prober: per shard, queries the replicas in order
/// until one answers as serving, and hands the round's verdict to the
/// core (a verdict has no outputs). Each probe opens a connection of its
/// own, so it also checks that the endpoint still accepts them; an
/// endpoint that does not answer as serving loses its idle connections.
fn probe_loop(shared: &Arc<RouterShared>) {
    let clock = &shared.clock;
    let timeout = shared.config.connect_timeout;
    let draining = || shared.draining.load(Ordering::SeqCst);
    while !draining() {
        for (shard, endpoints) in shared.config.shards.iter().enumerate() {
            if draining() {
                return;
            }
            let serving = endpoints.iter().position(|endpoint| {
                let reply = exchange(clock, endpoint, &ReplMsg::Status, timeout);
                let serving =
                    matches!(reply, Some(ReplMsg::StatusReply(view)) if serves(&view.role));
                if !serving {
                    shared.pool.purge(endpoint);
                }
                serving
            });
            let probed = Input::Probed { shard, serving };
            lock_unpoisoned(&shared.core).step(clock.now(), probed);
        }
        // Sleep out the interval a poll at a time, so a shutdown never
        // waits for a whole one.
        let wake = clock.deadline(shared.config.probe_interval);
        while !draining() && !clock.expired(wake) {
            clock.sleep(POLL.min(wake.saturating_sub(clock.now())));
        }
    }
}

/// Serves one client connection under both guards; a slow loris gets
/// the router's `request_timeout`. Blank lines are skipped.
fn connection(shared: &Arc<RouterShared>, mut conn: Box<dyn Conn>) {
    let key = format!("conn#{}", shared.next_conn.fetch_add(1, Ordering::SeqCst));
    let (tx, rx) = mpsc::channel();
    let (clock, draining) = (&shared.clock, &shared.draining);
    let deadline = shared.config.request_timeout;
    serve_connection(conn.as_mut(), clock, draining, deadline, |conn, line| {
        line.trim().is_empty() || {
            let reply = route(shared, &key, line.to_string(), &tx, &rx);
            conn.send(reply.as_bytes()).is_ok()
        }
    });
}

/// Routes one line from connection `key` to its reply. No other thread
/// steps the core for this connection's request: this one runs an
/// unhedged request's forwards itself, and gives each forward of a
/// racing request a thread whose answer comes back on `rx`, so that it
/// can run the request's hedge, deadline and backoff timers meanwhile.
/// Every output it gets is for this request, and its wait ends at the
/// request's next timer or answer.
fn route(
    shared: &Arc<RouterShared>,
    key: &str,
    line: String,
    tx: &mpsc::Sender<Input>,
    rx: &mpsc::Receiver<Input>,
) -> String {
    let clock = &shared.clock;
    let step = |input| lock_unpoisoned(&shared.core).step(clock.now(), input);
    let mut todo: VecDeque<Output> = step(Input::Line(key.to_string(), line)).into();
    loop {
        while let Some(out) = todo.pop_front() {
            match out {
                Output::Reply { line, .. } => return line,
                Output::Forward {
                    attempt,
                    to,
                    line,
                    racing: true,
                } => {
                    let (shared, tx) = (Arc::clone(shared), tx.clone());
                    std::thread::spawn(move || {
                        let result = forward_once(&shared, &to, &line);
                        let _ = tx.send(Input::Answer(attempt, result));
                    });
                }
                Output::Forward {
                    attempt, to, line, ..
                } => {
                    let result = forward_once(shared, &to, &line);
                    todo.extend(step(Input::Answer(attempt, result)));
                }
            }
        }
        let next = lock_unpoisoned(&shared.core).poll_timeout(Some(key));
        let wait = next.map_or(POLL, |at| at.saturating_sub(clock.now()));
        let timeout = || Input::Timeout(Some(key.to_string()));
        todo.extend(step(rx.recv_timeout(wait).unwrap_or_else(|_| timeout())));
    }
}

/// Forwards one raw request line to one endpoint and reads one response
/// line, on an idle connection from the pool when there is one. The
/// connection goes back to the pool only when its reply was complete and
/// nothing came past it; any failure closes it and purges the endpoint's
/// idle connections.
///
/// A reused connection may have been closed by the shard while it sat
/// idle. Only when it fails before any reply byte arrives (the send
/// fails, or EOF or a reset comes with nothing read) is the line sent
/// once more, on a fresh connection. The request did not run on the closed one: a
/// server closes an idle connection only when it drains, and it checks
/// for a drain before each read (`transport::serve_connection`); the
/// `conn-drop` chaos fault closes before executing. If the shard process
/// died instead, the fresh connect fails. A reply timeout or a partial
/// reply is never retried here: the shard may have read the line.
fn forward_once(shared: &RouterShared, endpoint: &str, line: &str) -> Result<String, String> {
    let (cfg, pool) = (&shared.config, &shared.pool);
    let send = |mut conn: Box<dyn Conn>| {
        let mut buf = Vec::new();
        let reply = cfg.request_timeout;
        let answer = send_and_read(conn.as_mut(), &mut buf, &shared.clock, line, reply);
        if answer.is_err() {
            pool.purge(endpoint);
        } else if buf.is_empty() {
            pool.put(endpoint, conn);
        }
        answer
    };
    match pool.take(endpoint).map(send) {
        Some(Err(e)) if e.stale => {}
        Some(answer) => return answer.map_err(|e| e.reason),
        None => {}
    }
    match TcpTransport.connect(endpoint, cfg.connect_timeout) {
        Ok(conn) => send(conn).map_err(|e| e.reason),
        Err(e) => {
            pool.purge(endpoint);
            Err(e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::NetError;
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

    // --- RouterCore, one step at a time ------------------------------------

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A core over one shard group: a 100 ms forward budget, a 50 ms
    /// hedge floor, `retry_cap` banked retries and a `threshold`-failure,
    /// 500 ms breaker.
    fn core_over(endpoints: &[&str], retry_cap: u64, threshold: u32) -> RouterCore {
        let config = RouterConfig {
            shards: vec![endpoints.iter().map(|e| (*e).to_string()).collect()],
            connect_timeout: Duration::ZERO,
            request_timeout: ms(100),
            retry_cap,
            hedge_min: ms(50),
            breaker: BreakerConfig {
                threshold,
                cooldown: ms(500),
            },
            ..RouterConfig::default()
        };
        RouterCore::new(&config, 7)
    }

    fn line(from: &str, rid: &str, keyed: bool) -> Input {
        let req = WireRequest::new(rid, WireOp::Ping);
        let req = if keyed { req.with_request_id(rid) } else { req };
        Input::Line(from.to_string(), req.render_line())
    }

    fn ok(id: &str) -> String {
        let resp = WireResponse::ok(id, Json::obj([("pong", Json::Bool(true))]));
        resp.render_line().trim_end().to_string()
    }

    fn refusal(id: &str, code: &str) -> String {
        let f = WireFailure {
            class: ErrorClass::Resource,
            code: code.to_string(),
            message: String::new(),
        };
        WireResponse::err(id, f)
            .render_line()
            .trim_end()
            .to_string()
    }

    /// The first forward among `outs`, as (attempt, endpoint).
    fn forward(outs: &[Output]) -> (u64, String) {
        outs.iter()
            .find_map(|o| match o {
                Output::Forward { attempt, to, .. } => Some((*attempt, to.clone())),
                Output::Reply { .. } => None,
            })
            .expect("a forward")
    }

    /// The replies among `outs`, as (connection, failure code or "ok").
    fn replies(outs: &[Output]) -> Vec<(&str, String)> {
        outs.iter()
            .filter_map(|o| match o {
                Output::Reply { to, line } => {
                    let code = failure_code(line).unwrap_or_else(|| "ok".to_string());
                    Some((to.as_str(), code))
                }
                Output::Forward { .. } => None,
            })
            .collect()
    }

    fn message(outs: &[Output]) -> String {
        match outs {
            [Output::Reply { line, .. }] => line.clone(),
            _ => panic!("expected one reply, got {outs:?}"),
        }
    }

    #[test]
    fn a_hedge_is_a_second_walk_that_follows_redirects_and_never_fails_the_original() {
        let mut core = core_over(&["a", "b"], 8, 3);
        let outs = core.step(ms(0), line("c", "k1", true));
        let original = forward(&outs);
        assert_eq!(original.1, "a");
        assert_eq!(
            core.poll_timeout(None),
            Some(ms(50)),
            "cold: the hedge floor"
        );
        // The hedge starts one past the cursor...
        let outs = core.step(ms(50), Input::Timeout(None));
        let hedge = forward(&outs);
        assert_eq!(hedge.1, "b");
        // ...follows a redirect to the next endpoint...
        let outs = core.step(
            ms(55),
            Input::Answer(hedge.0, Ok(refusal("k1", "RES-NOT-PRIMARY"))),
        );
        let hedge = forward(&outs);
        assert_eq!(hedge.1, "a");
        // ...and, walking off the end, fails nothing while the original
        // is still out.
        let outs = core.step(ms(60), Input::Answer(hedge.0, Err("refused".to_string())));
        assert!(outs.is_empty(), "{outs:?}");
        let outs = core.step(ms(70), Input::Answer(original.0, Ok(ok("k1"))));
        assert_eq!(replies(&outs), [("c", "ok".to_string())]);
        // Each reply reaches only the attempt that sent it.
        assert!(core
            .step(ms(75), Input::Answer(hedge.0, Ok(ok("k1"))))
            .is_empty());

        // A second request hedges at the P99 (70 ms, above the floor);
        // the hedge wins, and the cursor stays where the original went.
        let outs = core.step(ms(100), line("c", "k2", true));
        assert_eq!(forward(&outs).1, "a");
        assert_eq!(core.poll_timeout(None), Some(ms(170)));
        let outs = core.step(ms(170), Input::Timeout(None));
        let hedge = forward(&outs);
        let outs = core.step(ms(180), Input::Answer(hedge.0, Ok(ok("k2"))));
        assert_eq!(replies(&outs), [("c", "ok".to_string())]);
        let outs = core.step(ms(200), line("c", "k3", true));
        assert_eq!(forward(&outs).1, "a");
        let st = core.stats();
        assert_eq!((st.hedges, st.hedge_wins, st.forwarded), (2, 1, 2));
    }

    #[test]
    fn each_forward_of_a_hedged_round_has_its_own_deadline() {
        let mut core = core_over(&["a", "b"], 8, 3);
        let original = forward(&core.step(ms(0), line("c", "k", true)));
        let hedge = forward(&core.step(ms(50), Input::Timeout(None)));
        let redirect = Ok(refusal("k", "RES-NOT-PRIMARY"));
        let redirected = forward(&core.step(ms(60), Input::Answer(hedge.0, redirect)));
        assert_eq!(redirected.1, "a");
        // The original's forward times out and its walk moves on; the
        // round itself has no deadline that would end the hedge too.
        let outs = core.step(ms(100), Input::Timeout(None));
        assert_eq!(forward(&outs).1, "b");
        assert_ne!(forward(&outs).0, original.0);
        assert_eq!(core.poll_timeout(None), Some(ms(160)));
        let outs = core.step(ms(130), Input::Answer(redirected.0, Ok(ok("k"))));
        assert_eq!(replies(&outs), [("c", "ok".to_string())]);
        assert_eq!(core.stats().hedge_wins, 1);
    }

    #[test]
    fn a_timeout_for_one_connection_runs_only_its_timers() {
        let mut core = core_over(&["a"], 8, 3);
        forward(&core.step(ms(0), line("c1", "u1", false)));
        forward(&core.step(ms(10), line("c2", "u2", false)));
        assert_eq!(core.poll_timeout(Some("c1")), Some(ms(100)));
        assert_eq!(core.poll_timeout(Some("c2")), Some(ms(110)));
        assert_eq!(core.poll_timeout(None), Some(ms(100)));
        // c2's forward times out and its retry waits out the backoff;
        // c1's forward, also past its deadline, is left alone.
        let c2 = Some("c2".to_string());
        assert!(core.step(ms(120), Input::Timeout(c2)).is_empty());
        assert_eq!(core.poll_timeout(Some("c1")), Some(ms(100)));
        assert_eq!(core.poll_timeout(Some("c2")), Some(ms(145)));
        // c1's timeout leaves c2's due retry for c2.
        let c1 = Some("c1".to_string());
        assert!(core.step(ms(150), Input::Timeout(c1)).is_empty());
        assert_eq!(core.poll_timeout(Some("c1")), Some(ms(175)));
        // With no connection named, every due timer runs.
        let outs = core.step(ms(175), Input::Timeout(None));
        let sent = outs.iter().filter(|o| matches!(o, Output::Forward { .. }));
        assert_eq!(sent.count(), 2, "{outs:?}");
        assert_eq!(core.stats().retries, 2);
    }

    #[test]
    fn failed_probe_rounds_re_arm_an_open_breaker_and_half_open_admits_one_request() {
        let mut core = core_over(&["a"], 8, 3);
        for t in [0, 100, 200] {
            core.step(
                ms(t),
                Input::Probed {
                    shard: 0,
                    serving: None,
                },
            );
        }
        let outs = core.step(ms(300), line("c", "k1", true));
        assert!(message(&outs).contains("next probe in 400 ms"), "{outs:?}");
        // A probe round with no serving replica re-arms the cooldown.
        core.step(
            ms(450),
            Input::Probed {
                shard: 0,
                serving: None,
            },
        );
        let outs = core.step(ms(700), line("c", "k1", true));
        assert!(message(&outs).contains("next probe in 250 ms"), "{outs:?}");
        // Past the cooldown exactly one request goes through, as the probe.
        let outs = core.step(ms(950), line("c", "k1", true));
        forward(&outs);
        let outs = core.step(ms(951), line("d", "k2", true));
        assert!(message(&outs).contains("next probe in 0 ms"), "{outs:?}");
        assert_eq!(core.stats().shard_down, 3);
    }

    #[test]
    fn only_requests_the_breaker_admits_deposit_into_the_budget() {
        let mut core = core_over(&["a"], 1, 3);
        assert!(core.budget.try_retry(), "drain the one banked retry");
        for t in [0, 1, 2] {
            core.step(
                ms(t),
                Input::Probed {
                    shard: 0,
                    serving: None,
                },
            );
        }
        for i in 0..20 {
            let outs = core.step(ms(10), line("c", &format!("k{i}"), true));
            assert_eq!(replies(&outs), [("c", "RES-SHARD-DOWN".to_string())]);
        }
        assert_eq!((core.budget.balance_milli(), core.stats().admitted), (0, 0));
        core.step(
            ms(20),
            Input::Probed {
                shard: 0,
                serving: Some(0),
            },
        );
        let outs = core.step(ms(30), line("c", "k", true));
        forward(&outs);
        assert_eq!(
            (core.budget.balance_milli(), core.stats().admitted),
            (100, 1)
        );
    }

    #[test]
    fn a_retry_re_walks_every_endpoint_after_a_growing_backoff() {
        let mut core = core_over(&["a", "b"], 8, 3);
        // Unkeyed, so never hedged: each round is one walk over a and b.
        let mut outs = core.step(ms(0), line("c", "u", false));
        let mut t = 0;
        for (round, backoff) in [(0, 25), (1, 50), (2, 0)] {
            for endpoint in ["a", "b"] {
                let (attempt, to) = forward(&outs);
                assert_eq!(to, endpoint, "round {round}");
                t += 10;
                outs = core.step(ms(t), Input::Answer(attempt, Err("refused".to_string())));
            }
            if backoff > 0 {
                assert!(outs.is_empty(), "{outs:?}");
                assert_eq!(core.poll_timeout(None), Some(ms(t + backoff)));
                assert!(core
                    .step(ms(t + backoff - 1), Input::Timeout(None))
                    .is_empty());
                t += backoff;
                outs = core.step(ms(t), Input::Timeout(None));
            }
        }
        assert_eq!(replies(&outs), [("c", "RES-SHARD-DOWN".to_string())]);
        assert_eq!(core.stats().retries, 2);
        // Every failed walk counted toward the breaker.
        assert_eq!(core.shards[0].breaker.state_label(), "open");
    }

    #[test]
    fn a_duplicate_answer_waits_for_the_copy_still_outstanding() {
        let mut core = core_over(&["a", "b"], 8, 3);
        let original = forward(&core.step(ms(0), line("c", "k", true)));
        let hedge = forward(&core.step(ms(50), Input::Timeout(None)));
        let dup = refusal("k", "RES-DUPLICATE-REQUEST");
        assert!(core
            .step(ms(60), Input::Answer(hedge.0, Ok(dup.clone())))
            .is_empty());
        let outs = core.step(ms(70), Input::Answer(original.0, Ok(ok("k"))));
        assert_eq!(replies(&outs), [("c", "ok".to_string())]);

        // With no other copy left, the held duplicate is the answer.
        let mut core = core_over(&["a", "b"], 8, 3);
        let original = forward(&core.step(ms(0), line("c", "k", true)));
        let hedge = forward(&core.step(ms(50), Input::Timeout(None)));
        assert!(core
            .step(ms(60), Input::Answer(original.0, Ok(dup)))
            .is_empty());
        let err = || Err("refused".to_string());
        let next = forward(&core.step(ms(70), Input::Answer(hedge.0, err())));
        let outs = core.step(ms(80), Input::Answer(next.0, err()));
        assert_eq!(replies(&outs), [("c", "RES-DUPLICATE-REQUEST".to_string())]);
        assert_eq!(core.stats().forwarded, 1);
    }

    #[test]
    fn each_connection_is_routed_on_its_own() {
        let mut core = core_over(&["a"], 8, 3);
        let first = forward(&core.step(ms(0), line("c1", "k", true)));
        let resend = forward(&core.step(ms(5), line("c2", "k", true)));
        assert_ne!(first.0, resend.0, "two forwards, two attempts");
        let dup = refusal("k", "RES-DUPLICATE-REQUEST");
        let outs = core.step(ms(10), Input::Answer(resend.0, Ok(dup)));
        assert_eq!(
            replies(&outs),
            [("c2", "RES-DUPLICATE-REQUEST".to_string())]
        );
        let outs = core.step(ms(40), Input::Answer(first.0, Ok(ok("k"))));
        assert_eq!(replies(&outs), [("c1", "ok".to_string())]);
    }

    #[test]
    fn a_p99_past_the_forward_deadline_still_hedges_before_that_deadline() {
        let mut core = core_over(&["a", "b"], 8, 3);
        // An unkeyed request answered only after a re-walk, 140 ms in:
        // the shard's P99 is now past its 100 ms forward deadline.
        let refused = || Err("refused".to_string());
        let first = forward(&core.step(ms(0), line("c", "u", false)));
        let second = forward(&core.step(ms(10), Input::Answer(first.0, refused())));
        assert!(core
            .step(ms(20), Input::Answer(second.0, refused()))
            .is_empty());
        let retry = forward(&core.step(ms(45), Input::Timeout(None)));
        core.step(ms(140), Input::Answer(retry.0, Ok(ok("u"))));
        assert_eq!(core.shards[0].latency.p99_ms(), Some(140));
        // A keyed request's first forward is due by 300 ms; its hedge
        // goes out before then, so a lost forward is always raced.
        let original = forward(&core.step(ms(200), line("c", "k", true)));
        let hedge_at = core.poll_timeout(None).expect("a timer is armed");
        assert!(hedge_at < ms(300), "hedge armed at {hedge_at:?}");
        let hedge = forward(&core.step(hedge_at, Input::Timeout(None)));
        assert_ne!(hedge.0, original.0);
        assert_eq!(hedge.1, "b");
        assert_eq!(core.stats().hedges, 1);
    }

    #[test]
    fn a_shard_its_last_probe_round_found_down_is_not_hedged() {
        let mut core = core_over(&["a", "b"], 8, 3);
        let probed = |serving| Input::Probed { shard: 0, serving };
        core.step(ms(0), probed(None));
        forward(&core.step(ms(10), line("c", "k1", true)));
        assert_eq!(core.poll_timeout(None), Some(ms(60)));
        assert!(core.step(ms(60), Input::Timeout(None)).is_empty());
        assert_eq!(core.budget.balance_milli(), 8000, "no token spent");
        // A round that finds a serving replica lets hedges race again.
        core.step(ms(70), probed(Some(0)));
        forward(&core.step(ms(80), line("c", "k2", true)));
        let hedge = forward(&core.step(ms(130), Input::Timeout(None)));
        assert_eq!(hedge.1, "b");
        assert_eq!(core.stats().hedges, 1);
    }

    // --- the threaded router's connection pool --------------------------------

    /// A scripted connection that answers every line with its own name.
    struct Named(String);

    impl Conn for Named {
        fn send(&mut self, _bytes: &[u8]) -> Result<(), NetError> {
            Ok(())
        }
        fn recv(&mut self, buf: &mut [u8], _timeout: Duration) -> Result<usize, NetError> {
            let line = format!("{}\n", self.0);
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    fn named(name: &str) -> Box<dyn Conn> {
        Box::new(Named(name.to_string()))
    }

    /// The name of the connection `pool` hands out for `endpoint`.
    fn reused(pool: &Pool, endpoint: &str) -> Option<String> {
        let mut conn = pool.take(endpoint)?;
        let clock = SystemClock::new();
        send_and_read(conn.as_mut(), &mut Vec::new(), &clock, "who", ms(100)).ok()
    }

    #[test]
    fn the_pool_hands_back_what_it_kept_up_to_its_bound() {
        let pool = Pool::new();
        assert_eq!(reused(&pool, "a"), None);
        for i in 0..=IDLE_PER_ENDPOINT {
            pool.put("a", named(&format!("a{i}")));
        }
        pool.put("b", named("b0"));
        // The most recently kept first; the one past the bound was closed.
        for i in (0..IDLE_PER_ENDPOINT).rev() {
            assert_eq!(reused(&pool, "a"), Some(format!("a{i}")));
        }
        assert_eq!(reused(&pool, "a"), None);
        assert_eq!(reused(&pool, "b").as_deref(), Some("b0"));
    }

    #[test]
    fn a_purge_closes_one_endpoints_idle_connections_and_close_keeps_none() {
        let pool = Pool::new();
        pool.put("a", named("a0"));
        pool.put("b", named("b0"));
        pool.purge("a");
        assert_eq!(reused(&pool, "a"), None);
        assert_eq!(reused(&pool, "b").as_deref(), Some("b0"));
        pool.put("b", named("b1"));
        pool.close();
        assert_eq!(reused(&pool, "b"), None);
        pool.put("b", named("b2"));
        assert_eq!(reused(&pool, "b"), None, "a closed pool keeps nothing");
    }

    #[test]
    fn a_walk_shed_by_the_budget_still_feeds_the_breaker() {
        let mut core = core_over(&["a"], 1, 2);
        assert!(core.budget.try_retry(), "drain the one banked retry");
        let fail = |core: &mut RouterCore, t: u64, rid: &str| {
            let outs = core.step(ms(t), line("c", rid, false));
            let (attempt, _) = forward(&outs);
            let outs = core.step(
                ms(t + 10),
                Input::Answer(attempt, Err("refused".to_string())),
            );
            replies(&outs)[0].1.clone()
        };
        assert_eq!(fail(&mut core, 0, "u1"), "RES-RETRY-BUDGET");
        // The shed walk counted: this second failure opens the breaker.
        assert_eq!(fail(&mut core, 20, "u2"), "RES-SHARD-DOWN");
        assert_eq!(core.shards[0].breaker.state_label(), "open");
        // The half-open probe request fails too: the breaker re-opens for
        // a full cooldown instead of refusing with "next probe in 0 ms".
        assert_eq!(fail(&mut core, 600, "u3"), "RES-SHARD-DOWN");
        let outs = core.step(ms(620), line("c", "u4", false));
        assert!(message(&outs).contains("next probe in 490 ms"), "{outs:?}");
    }
}
