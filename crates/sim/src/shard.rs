//! Sharded-cluster simulation: a deterministic, single-threaded model
//! of the `lintra route` front end over M replicated shard groups.
//!
//! The router model is *not* a reimplementation of the routing math —
//! it runs the real [`ShardRing`], the real [`RetryBudget`] arithmetic,
//! and the real [`routing_key`] precedence, while the shard groups are
//! the shipping replication cores on the event loop the cluster
//! simulation shares ([`crate::world`]). What this harness adds is the failure surface the threaded
//! router cannot schedule deterministically: a shard blackout racing a
//! hedge, a retry landing during a failover, the budget draining while
//! a breaker is half-open.
//!
//! Machine-checked invariants, audited after **every** event:
//!
//! - **R1 (partial degradation)**: while one shard is blacked out,
//!   every request whose key routes to a *healthy* shard still settles
//!   before the heal barrier — an outage never spreads across the ring.
//! - **R2 (retry budget)**: total retry + hedge volume never exceeds
//!   the budget bound `cap + requests × ratio`, even during a blackout
//!   when every attempt is failing. [`RouterSimBug::UnboundedRetries`]
//!   re-introduces the retry-storm bug this invariant exists to catch.
//! - **R3 (no double execution)**: a journaled `request_id` is never
//!   executed twice — not by a hedge, not by a duplicate — on any node
//!   of its group, except across an explicit failover replay (the
//!   documented at-least-once caveat the real cluster shares).
//! - **R4 (re-convergence)**: once faults stop, every shard group ends
//!   with exactly one unfenced primary, every key — including the
//!   blacked-out shard's and the post-heal probes — settles, and
//!   settled keys answer byte-identically across retries.
//!
//! A run is a pure function of `(seed, ShardSimConfig)`.

use std::collections::{HashMap, HashSet};

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::wire::{WireRequest, WireResponse};
use lintra_serve::replicate::{status_query, ReplMsg};
use lintra_serve::router::{routing_key, RetryBudget, ShardRing};

use crate::world::{failure, keyed_request, terminal, Actors, Labels, Net, World};

/// Consecutive attempt failures before a shard's breaker opens.
const BREAKER_THRESHOLD: u64 = 3;

/// Deliberately re-introducible router bugs; each must be caught by an
/// invariant under a checked-in regression seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterSimBug {
    /// The faithful router model.
    #[default]
    None,
    /// A router with no backpressure: retries and hedges never consult
    /// the retry budget and the breaker never opens, so a dead shard
    /// turns every timeout into a retry storm — the amplification
    /// failure invariant R2 exists to catch.
    UnboundedRetries,
}

/// The scripted outage for one run. Faults land at 1/8 of the run and
/// heal at the 3/5 barrier, after which full convergence is demanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardScenario {
    /// No faults: a smoke run over the happy path.
    #[default]
    None,
    /// Kill one shard group's primary. The follower must promote, the
    /// router must converge onto it, and *every* key — this group's
    /// included — must settle before the heal barrier (R1 with an
    /// empty affected set).
    PrimaryCrash {
        /// Group index, wrapped modulo the group count.
        group: usize,
    },
    /// Kill every replica of one shard group. Its keys degrade to
    /// `RES-SHARD-DOWN` while other shards keep serving (R1), and they
    /// settle after the heal (R4).
    Blackout {
        /// Group index, wrapped modulo the group count.
        group: usize,
    },
}

/// Everything that parameterizes a sharded run. All times are virtual
/// milliseconds.
#[derive(Debug, Clone)]
pub struct ShardSimConfig {
    /// Shard groups on the ring.
    pub groups: usize,
    /// Replicas per group; node 0 starts as the group's primary.
    pub nodes_per_group: usize,
    /// Concurrent clients, all talking to the router.
    pub clients: usize,
    /// Keyed requests each client works through.
    pub requests_per_client: usize,
    /// Total virtual run length.
    pub sim_ms: u64,
    /// Each node's heartbeat interval; arbitration waits twice this.
    pub tick_ms: u64,
    /// Follower silence tolerance before arbitration.
    pub grace_ms: u64,
    /// Virtual cost of executing one request.
    pub exec_ms: u64,
    /// Base one-way message latency.
    pub net_ms: u64,
    /// Additional random per-message latency (uniform, exclusive).
    pub jitter_ms: u64,
    /// Message loss rate, per mille, until the heal barrier.
    pub drop_permille: u64,
    /// Client patience before re-sending the current key.
    pub client_timeout_ms: u64,
    /// Router patience per forwarded attempt.
    pub router_timeout_ms: u64,
    /// Hedge delay (the real router derives this from its P99 tracker;
    /// the sim pins it so runs are comparable across seeds).
    pub hedge_ms: u64,
    /// Router health-probe cadence (`ReplMsg::Status` per endpoint; a
    /// `primary` reply re-aims the shard cursor, like the real prober).
    pub probe_ms: u64,
    /// How long an open shard breaker blocks before admitting a probe.
    pub breaker_cooldown_ms: u64,
    /// Retry budget deposit per request, in milli-tokens (100 = 10%).
    pub retry_ratio_milli: u64,
    /// Retry budget bank cap, in whole retries.
    pub retry_cap: u64,
    /// Per-request retry ceiling (budget permitting).
    pub max_retries: u64,
    /// Virtual vnodes per shard on the ring.
    pub vnodes: usize,
    /// The scripted outage.
    pub scenario: ShardScenario,
    /// The injected router bug, if any.
    pub bug: RouterSimBug,
}

impl Default for ShardSimConfig {
    fn default() -> ShardSimConfig {
        ShardSimConfig {
            groups: 3,
            nodes_per_group: 2,
            clients: 3,
            requests_per_client: 4,
            sim_ms: 8000,
            tick_ms: 50,
            grace_ms: 300,
            exec_ms: 40,
            net_ms: 5,
            jitter_ms: 10,
            drop_permille: 10,
            client_timeout_ms: 400,
            router_timeout_ms: 250,
            hedge_ms: 120,
            probe_ms: 250,
            breaker_cooldown_ms: 500,
            retry_ratio_milli: 100,
            retry_cap: 8,
            max_retries: 2,
            vnodes: 16,
            scenario: ShardScenario::None,
            bug: RouterSimBug::None,
        }
    }
}

/// What one sharded run produced. Bit-reproducible from
/// `(seed, config)`, trace lines included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// Terminal responses clients received.
    pub answered: u64,
    /// Distinct `request_id`s settled.
    pub settled: u64,
    /// Requests the router admitted (deposits into the budget).
    pub requests: u64,
    /// Requests forwarded to a terminal backend answer.
    pub forwarded: u64,
    /// Retries the router issued (withdrawals from the budget).
    pub retries: u64,
    /// Hedged duplicates the router issued (also budget withdrawals).
    pub hedges: u64,
    /// Requests shed with `RES-RETRY-BUDGET`.
    pub shed: u64,
    /// Requests answered `RES-SHARD-DOWN` (breaker or exhausted walk).
    pub shard_down: u64,
    /// Follower promotions across all groups.
    pub promotions: u64,
    /// Fencing transitions across all groups.
    pub fences: u64,
    /// Invariant violations, in detection order. Empty means PASS.
    pub violations: Vec<String>,
    /// Compact fault/role/violation schedule with virtual timestamps.
    pub trace: Vec<String>,
}

impl ShardSimReport {
    /// True when every invariant held for the whole run.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The failure artifact: seed plus the compact schedule trace.
    pub fn repro(&self) -> String {
        let header = format!(
            "shard sim seed {} ({} events, {} retries, {} hedges, {} shed, {} shard-down)",
            self.seed, self.events, self.retries, self.hedges, self.shed, self.shard_down
        );
        crate::world::repro(header, &self.trace, &self.violations)
    }
}

/// Runs one sharded simulation to completion under virtual time.
pub fn run_shard_sim(seed: u64, config: &ShardSimConfig) -> ShardSimReport {
    let (groups, npg) = (config.groups.max(1), config.nodes_per_group.max(1));
    let mut h = ShardHarness::new(config, groups, npg);
    let net = Net {
        net_ms: config.net_ms,
        jitter_ms: config.jitter_ms,
        exec_ms: config.exec_ms,
        drop_permille: config.drop_permille,
        dup_permille: 0,
        heartbeat_ms: config.tick_ms,
        grace_ms: config.grace_ms,
    };
    let labels = Labels {
        split: "invariant R4",
        recompute: "invariant R3",
        frozen: "invariant R4",
        answer: "invariant R4",
    };
    let clusters: Vec<Vec<String>> = h.node_addrs.chunks(npg).map(<[_]>::to_vec).collect();
    let rng = SplitMix64::new(seed ^ 0x5AA2_D0E5_EED1);
    let mut w = World::new(rng, &clusters, net, labels, false);
    h.setup(&mut w);
    w.run(&mut h);
    ShardSimReport {
        seed,
        events: w.events,
        answered: h.answered,
        settled: w.settled.len() as u64,
        requests: h.stats.requests,
        forwarded: h.stats.forwarded,
        retries: h.stats.retries,
        hedges: h.stats.hedges,
        shed: h.stats.shed,
        shard_down: h.stats.shard_down,
        promotions: w.nodes.iter().map(|n| n.promotions).sum(),
        fences: w.nodes.iter().map(|n| n.fences).sum(),
        violations: w.violations,
        trace: w.trace,
    }
}

enum Ev {
    /// Client resend of its current key (timeout or shed backoff).
    ClientRetry {
        client: usize,
        token: u64,
    },
    /// A forwarded attempt went unanswered.
    RouterTimeout {
        id: u64,
        token: u64,
    },
    /// The hedge delay elapsed with no answer yet.
    RouterHedge {
        id: u64,
    },
    /// Backoff after `RES-DUPLICATE-REQUEST`: re-ask; the journal will
    /// serve the settled answer byte-identically.
    RouterAskAgain {
        id: u64,
        token: u64,
    },
    /// The router's periodic health probe of every shard endpoint.
    RouterProbe,
    Crash(usize),
    HealAll,
    End,
}

/// One simulated client: works through its keys in order, but rotates
/// a key to the back of the queue when the router reports its shard
/// degraded — other work continues while one shard is down.
struct ShardClient {
    name: String,
    queue: Vec<String>,
    token: u64,
    waiting: bool,
}

/// One in-flight request inside the router model.
struct Pending {
    id: u64,
    /// The wire envelope id responses correlate on (clients set it to
    /// their idempotency key, like the real client does).
    rid: String,
    line: String,
    client: String,
    group: usize,
    /// Endpoint offset past the group cursor for the current copy.
    walk: usize,
    /// Redirect hops within the current attempt (capped at group size).
    redirects: usize,
    retries: u64,
    hedged: bool,
    /// Attempt guard: stale timeouts carry an older token.
    token: u64,
}

/// Per-group breaker state, the sim's equivalent of the real router's
/// per-shard [`CircuitBreaker`](lintra_serve::CircuitBreaker).
#[derive(Clone, Copy, Default)]
struct GroupHealth {
    consec_fail: u64,
    open_until: u64,
}

#[derive(Default)]
struct Stats {
    requests: u64,
    forwarded: u64,
    retries: u64,
    hedges: u64,
    shed: u64,
    shard_down: u64,
}

struct ShardHarness<'a> {
    cfg: &'a ShardSimConfig,
    groups: usize,
    npg: usize,
    node_addrs: Vec<String>,
    clients: Vec<ShardClient>,
    ring: ShardRing,
    budget: RetryBudget,
    budget_cap_milli: u64,
    cursors: Vec<usize>,
    health: Vec<GroupHealth>,
    pending: Vec<Pending>,
    next_id: u64,
    next_token: u64,
    stats: Stats,
    answered: u64,
    /// Every key any client will ever work through (probes included).
    all_work: Vec<String>,
    /// Groups the scenario takes down wholesale (R1 exempts their keys
    /// from the settle-by-heal demand).
    affected: HashSet<usize>,
}

impl<'a> ShardHarness<'a> {
    fn new(cfg: &'a ShardSimConfig, groups: usize, npg: usize) -> ShardHarness<'a> {
        let clients: Vec<ShardClient> = (0..cfg.clients)
            .map(|i| ShardClient {
                name: format!("c{i}"),
                queue: (0..cfg.requests_per_client)
                    .map(|j| format!("c{i}-r{j}"))
                    .collect(),
                token: 0,
                waiting: false,
            })
            .collect();
        let all_work = clients.iter().flat_map(|c| c.queue.clone()).collect();
        let affected = match cfg.scenario {
            ShardScenario::Blackout { group } => HashSet::from([group % groups]),
            _ => HashSet::new(),
        };
        ShardHarness {
            cfg,
            groups,
            npg,
            node_addrs: (0..groups * npg)
                .map(|n| format!("s{}n{}", n / npg, n % npg))
                .collect(),
            clients,
            ring: ShardRing::new(groups, cfg.vnodes),
            budget: RetryBudget::new(cfg.retry_ratio_milli, cfg.retry_cap),
            budget_cap_milli: (cfg.retry_cap.saturating_mul(1000)).max(1000),
            cursors: vec![0; groups],
            health: vec![GroupHealth::default(); groups],
            pending: Vec::new(),
            next_id: 0,
            next_token: 0,
            stats: Stats::default(),
            answered: 0,
            all_work,
            affected,
        }
    }

    fn setup(&mut self, w: &mut World<Ev>) {
        for i in 0..w.nodes.len() {
            w.start(i, false);
        }
        for ci in 0..self.clients.len() {
            self.client_send(w, ci);
        }
        w.schedule(self.cfg.probe_ms / 2, Ev::RouterProbe);
        let start = self.cfg.sim_ms / 8;
        match self.cfg.scenario {
            ShardScenario::None => {}
            ShardScenario::PrimaryCrash { group } => {
                w.schedule(start, Ev::Crash(group % self.groups * self.npg));
            }
            ShardScenario::Blackout { group } => {
                for i in 0..self.npg {
                    w.schedule(start, Ev::Crash(group % self.groups * self.npg + i));
                }
            }
        }
        w.schedule(self.cfg.sim_ms * 3 / 5, Ev::HealAll);
        w.schedule(self.cfg.sim_ms, Ev::End);
    }

    // ---- the router model -------------------------------------------

    /// A probe answered: a serving primary re-aims the shard cursor and
    /// counts as a breaker success, exactly like the real prober — so a
    /// failover converges without sacrificing a live request.
    fn router_on_probe_reply(&mut self, ni: usize, role: &str) {
        if role == "primary" {
            let (g, i) = (ni / self.npg, ni % self.npg);
            self.cursors[g] = i;
            self.health[g].consec_fail = 0;
        }
    }

    fn router_on_request(&mut self, w: &mut World<Ev>, ci: usize, line: &str) {
        let client = self.clients[ci].name.clone();
        let req = match WireRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let resp = WireResponse::err(
                    "",
                    failure(ErrorClass::Validation, "VAL-MALFORMED-REQUEST", e),
                );
                return w.route("router", &client, &resp.render_line());
            }
        };
        self.stats.requests += 1;
        self.budget.on_request();
        let key = routing_key(&req);
        let Some(group) = self.ring.shard_of(&key) else {
            let resp = WireResponse::err(
                req.id,
                failure(ErrorClass::Validation, "VAL-CONFIG", "empty shard ring"),
            );
            return w.route("router", &client, &resp.render_line());
        };
        // A resend of a key the router is already working on attaches
        // to the existing slot instead of double-forwarding (the real
        // router serves each connection independently; the journal
        // dedups — here one reply to the one client suffices).
        if let Some(p) = self.pending.iter_mut().find(|p| p.rid == req.id) {
            p.client = client;
            return;
        }
        // Breaker admit: an open shard fast-fails its keys while other
        // shards keep serving — the graceful-degradation contract.
        let h = self.health[group];
        if self.cfg.bug != RouterSimBug::UnboundedRetries
            && h.consec_fail >= BREAKER_THRESHOLD
            && w.now < h.open_until
        {
            self.stats.shard_down += 1;
            let retry_in = h.open_until - w.now;
            let resp = WireResponse::err(
                req.id,
                failure(
                    ErrorClass::Resource,
                    "RES-SHARD-DOWN",
                    format!(
                        "shard {group} is unreachable; next probe in {retry_in} ms — \
                         other shards keep serving"
                    ),
                ),
            );
            return w.route("router", &client, &resp.render_line());
        }
        self.next_id += 1;
        self.pending.push(Pending {
            id: self.next_id,
            rid: req.id.clone(),
            line: line.to_string(),
            client,
            group,
            walk: 0,
            redirects: 0,
            retries: 0,
            hedged: false,
            token: 0,
        });
        self.forward(w, self.pending.len() - 1);
        if self.npg > 1 && req.request_id.is_some() {
            // Hedging is keyed-requests-only, like the real router.
            let id = self.next_id;
            w.schedule(w.now + self.cfg.hedge_ms, Ev::RouterHedge { id });
        }
    }

    /// The address `offset` endpoints past the group cursor.
    fn endpoint(&self, group: usize, offset: usize) -> String {
        self.node_addrs[group * self.npg + (self.cursors[group] + offset) % self.npg].clone()
    }

    /// Sends the current copy of slot `idx` to its next endpoint and
    /// arms the attempt timeout.
    fn forward(&mut self, w: &mut World<Ev>, idx: usize) {
        self.next_token += 1;
        let p = &mut self.pending[idx];
        p.token = self.next_token;
        let (id, token, line, group, walk) = (p.id, p.token, p.line.clone(), p.group, p.walk);
        let endpoint = self.endpoint(group, walk);
        w.route("router", &endpoint, &line);
        w.schedule(
            w.now + self.cfg.router_timeout_ms,
            Ev::RouterTimeout { id, token },
        );
    }

    fn router_on_response(&mut self, w: &mut World<Ev>, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let Some(idx) = self.pending.iter().position(|p| p.rid == resp.id) else {
            return; // a straggler for a settled slot (hedge loser)
        };
        if terminal(&resp) {
            let p = self.pending.swap_remove(idx);
            self.health[p.group].consec_fail = 0;
            self.cursors[p.group] = (self.cursors[p.group] + p.walk) % self.npg;
            self.stats.forwarded += 1;
            return w.route("router", &p.client, line);
        }
        match resp.outcome.err().map(|f| f.code).as_deref() {
            // Redirects name the wrong server: walk the shard's
            // endpoint list without charging the budget, exactly like
            // the real `walk_shard`.
            Some("RES-NOT-PRIMARY" | "RES-STALE-EPOCH") => {
                let p = &mut self.pending[idx];
                p.walk += 1;
                p.redirects += 1;
                if p.redirects >= self.npg {
                    p.redirects = 0;
                    self.attempt_failed(w, idx);
                } else {
                    self.forward(w, idx);
                }
            }
            // Our other copy (or an earlier attempt) is executing
            // there: wait out the execution, then re-ask — the journal
            // serves the settled answer byte-identically.
            Some("RES-DUPLICATE-REQUEST") => {
                let (id, token) = (self.pending[idx].id, self.pending[idx].token);
                let at = w.now + self.cfg.exec_ms * 2;
                w.schedule(at, Ev::RouterAskAgain { id, token });
            }
            _ => self.attempt_failed(w, idx),
        }
    }

    /// One forwarded attempt failed (timeout, exhausted redirect walk,
    /// or a non-terminal error): feed the breaker, then retry under the
    /// budget, shed, or give up on the shard.
    fn attempt_failed(&mut self, w: &mut World<Ev>, idx: usize) {
        let group = self.pending[idx].group;
        self.health[group].consec_fail += 1;
        if self.health[group].consec_fail >= BREAKER_THRESHOLD {
            self.health[group].open_until = w.now + self.cfg.breaker_cooldown_ms;
        }
        let can_retry = self.pending[idx].retries < self.cfg.max_retries;
        let budget_ok = self.cfg.bug == RouterSimBug::UnboundedRetries
            || (can_retry && self.budget.try_retry());
        if can_retry && budget_ok {
            self.stats.retries += 1;
            let p = &mut self.pending[idx];
            p.retries += 1;
            p.walk += 1;
            p.redirects = 0;
            return self.forward(w, idx);
        }
        let p = self.pending.swap_remove(idx);
        let (code, message) = if can_retry {
            self.stats.shed += 1;
            (
                "RES-RETRY-BUDGET",
                format!("retry budget exhausted routing `{}`; backing off", p.rid),
            )
        } else {
            self.stats.shard_down += 1;
            (
                "RES-SHARD-DOWN",
                format!("no replica of shard {group} answered for `{}`", p.rid),
            )
        };
        let resp = WireResponse::err(p.rid, failure(ErrorClass::Resource, code, message));
        w.route("router", &p.client, &resp.render_line());
    }

    /// The hedge delay elapsed: if the slot is still unanswered and the
    /// budget allows, race a duplicate copy against the first.
    fn maybe_hedge(&mut self, w: &mut World<Ev>, id: u64) {
        let Some(idx) = self.pending.iter().position(|p| p.id == id) else {
            return;
        };
        if self.pending[idx].hedged {
            return;
        }
        let budget_ok = self.cfg.bug == RouterSimBug::UnboundedRetries || self.budget.try_retry();
        if !budget_ok {
            return; // an empty budget skips the hedge, never the original
        }
        self.stats.hedges += 1;
        let p = &mut self.pending[idx];
        p.hedged = true;
        let (line, group, walk) = (p.line.clone(), p.group, p.walk);
        let endpoint = self.endpoint(group, walk + 1);
        w.route("router", &endpoint, &line);
    }

    // ---- clients ----------------------------------------------------

    fn client_send(&mut self, w: &mut World<Ev>, ci: usize) {
        let c = &mut self.clients[ci];
        let Some(rid) = c.queue.first() else {
            c.waiting = false;
            return;
        };
        c.token += 1;
        c.waiting = true;
        let (token, line) = (c.token, keyed_request(rid));
        w.route(&c.name, "router", &line);
        let at = w.now + self.cfg.client_timeout_ms;
        w.schedule(at, Ev::ClientRetry { client: ci, token });
    }

    fn client_on_line(&mut self, w: &mut World<Ev>, ci: usize, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let settles = terminal(&resp);
        if settles {
            // The byte-identity oracle holds for every terminal answer,
            // current or straggler.
            w.answered(&resp.id, line);
            self.answered += 1;
        }
        let c = &mut self.clients[ci];
        if !c.waiting || c.queue.first() != Some(&resp.id) {
            return; // a straggler for an earlier key
        }
        if settles {
            c.queue.remove(0);
            return self.client_send(w, ci);
        }
        // The router says this key's shard is degraded: rotate the key
        // to the back and keep working the rest of the queue — one dead
        // shard must not stall the client's other work.
        let degraded = resp
            .outcome
            .err()
            .is_some_and(|f| f.code == "RES-SHARD-DOWN" || f.code == "RES-RETRY-BUDGET");
        if degraded && c.queue.len() > 1 {
            let rid = c.queue.remove(0);
            c.queue.push(rid);
        }
        c.token += 1;
        let token = c.token;
        let at = w.now + self.cfg.client_timeout_ms / 2;
        w.schedule(at, Ev::ClientRetry { client: ci, token });
    }

    // ---- faults and invariants --------------------------------------

    fn heal_all(&mut self, w: &mut World<Ev>) {
        w.net.drop_permille = 0;
        let line = format!(
            "t={}ms fault: heal-all (crashed replicas restart, loss off)",
            w.now
        );
        w.trace.push(line);
        // R1, checked at the barrier: every key owned by a healthy
        // shard settled while the outage was live.
        for rid in &self.all_work {
            let owner = self.ring.shard_of(rid);
            let exempt = owner.is_some_and(|g| self.affected.contains(&g));
            if !exempt && !w.settled.contains_key(rid) {
                w.violate(format!(
                    "invariant R1: healthy-shard request `{rid}` (shard {owner:?}) \
                     did not settle during the outage window"
                ));
            }
        }
        for i in 0..w.nodes.len() {
            w.start(i, true);
        }
        // Convergence probes: every client completes one more keyed
        // request before the run ends (R4).
        for ci in 0..self.clients.len() {
            let probe = format!("probe-{}", self.clients[ci].name);
            self.all_work.push(probe.clone());
            self.clients[ci].queue.push(probe);
            if !self.clients[ci].waiting {
                self.client_send(w, ci);
            }
        }
    }

    fn check_end(&mut self, w: &mut World<Ev>) {
        let mut found = Vec::new();
        for g in 0..self.groups {
            let group = &w.nodes[g * self.npg..(g + 1) * self.npg];
            let primaries = group.iter().filter_map(|n| n.serving()).count();
            if primaries != 1 {
                found.push(format!(
                    "invariant R4: shard {g} ended with {primaries} unfenced primaries \
                     (want exactly 1)"
                ));
            }
            // R3: a rid executes at most once inside its group unless
            // an explicit failover replayed it.
            let promotions: u64 = group.iter().map(|n| n.promotions).sum();
            let mut execs: HashMap<String, u64> = HashMap::new();
            for (rid, count) in group.iter().flat_map(|n| &n.exec_count) {
                *execs.entry(rid.clone()).or_insert(0) += count;
            }
            let mut over: Vec<(String, u64)> = execs.into_iter().filter(|(_, c)| *c > 1).collect();
            over.sort_unstable();
            for (rid, count) in over.into_iter().filter(|_| promotions == 0) {
                found.push(format!(
                    "invariant R3: `{rid}` executed {count} times on shard {g} \
                     with no failover to explain the replay"
                ));
            }
        }
        for v in found {
            w.violate(v);
        }
        w.demand_settled("invariant R4", self.all_work.iter());
    }
}

impl Actors for ShardHarness<'_> {
    type Ev = Ev;

    fn on_event(&mut self, w: &mut World<Ev>, ev: Ev) -> bool {
        match ev {
            Ev::ClientRetry { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    self.client_send(w, client);
                }
            }
            Ev::RouterTimeout { id, token } => {
                if let Some(idx) = self
                    .pending
                    .iter()
                    .position(|p| (p.id, p.token) == (id, token))
                {
                    self.attempt_failed(w, idx);
                }
            }
            Ev::RouterHedge { id } => self.maybe_hedge(w, id),
            Ev::RouterAskAgain { id, token } => {
                if let Some(idx) = self
                    .pending
                    .iter()
                    .position(|p| (p.id, p.token) == (id, token))
                {
                    self.forward(w, idx);
                }
            }
            Ev::RouterProbe => {
                let probe = status_query();
                for addr in &self.node_addrs {
                    w.route("router", addr, &probe);
                }
                w.schedule(w.now + self.cfg.probe_ms, Ev::RouterProbe);
            }
            Ev::Crash(i) => w.crash(i),
            Ev::HealAll => self.heal_all(w),
            Ev::End => {
                self.check_end(w);
                return true;
            }
        }
        false
    }

    fn on_line(&mut self, w: &mut World<Ev>, from: &str, to: &str, line: &str) {
        if to == "router" {
            if let Some(ni) = w.node_index(from) {
                match ReplMsg::parse(line) {
                    Some(ReplMsg::StatusReply(st)) => self.router_on_probe_reply(ni, &st.role),
                    _ => self.router_on_response(w, line),
                }
            } else if let Some(ci) = self.clients.iter().position(|c| c.name == from) {
                self.router_on_request(w, ci, line);
            }
        } else if let Some(ci) = self.clients.iter().position(|c| c.name == to) {
            self.client_on_line(w, ci, line);
        }
    }

    /// R2, checked after every event: retry and hedge volume stays under
    /// the budget bound.
    fn check(&mut self, w: &mut World<Ev>) {
        let spent = (self.stats.retries + self.stats.hedges).saturating_mul(1000);
        let bound = self.budget_cap_milli.saturating_add(
            self.stats
                .requests
                .saturating_mul(self.cfg.retry_ratio_milli),
        );
        if spent > bound {
            w.violate(format!(
                "invariant R2: retry volume exceeded the budget bound \
                 ({} retries + {} hedges = {spent} milli-tokens > cap {} + {} requests × {})",
                self.stats.retries,
                self.stats.hedges,
                self.budget_cap_milli,
                self.stats.requests,
                self.cfg.retry_ratio_milli
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fault_free_run_settles_everything() {
        let report = run_shard_sim(3, &ShardSimConfig::default());
        assert!(report.passed(), "{}", report.repro());
        assert_eq!(report.settled, 3 * 4 + 3, "work + probes");
        assert!(report.forwarded > 0);
    }

    #[test]
    fn shard_reports_are_bit_reproducible() {
        let config = ShardSimConfig {
            scenario: ShardScenario::Blackout { group: 1 },
            ..ShardSimConfig::default()
        };
        let a = run_shard_sim(9, &config);
        let b = run_shard_sim(9, &config);
        assert_eq!(a, b);
    }
}
