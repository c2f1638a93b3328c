//! Sharded-cluster simulation: the router core `lintra route` ships
//! ([`RouterCore`]) over M replicated shard groups, single-threaded
//! under virtual time.
//!
//! Every routing decision — admission, the endpoint walk, hedges,
//! retries under the budget, the breakers — is the core's; the shard
//! groups are the shipping replication cores on the event loop the
//! cluster simulation shares ([`crate::world`]). This harness supplies
//! what the threaded router's driver supplies in production: a
//! connection per forward (`router#<attempt>`, so a reply reaches the
//! attempt that sent it), a status prober, and the core's timers. It
//! adds its clients, its scripted outages, and the failure surface the
//! threaded router cannot schedule deterministically: a shard blackout
//! racing a hedge, a retry landing during a failover, the budget
//! draining while a breaker is half-open.
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

use std::collections::HashMap;
use std::time::Duration;

use lintra::matrix::rng::SplitMix64;
use lintra_bench::wire::WireResponse;
use lintra_serve::replicate::{status_query, ReplMsg};
use lintra_serve::router::{serves, Input, Output, RouterCore, ShardRing};
use lintra_serve::{BreakerConfig, RouterConfig};

use crate::world::{keyed_request, terminal, Actors, Labels, Net, World};

/// Deliberately re-introducible router bugs; each must be caught by an
/// invariant under a checked-in regression seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterSimBug {
    /// The shipping router core, configured as is.
    #[default]
    None,
    /// A router with no backpressure: the real core gets a retry budget
    /// that never runs dry and a breaker threshold that is never
    /// reached, so a dead shard turns every timeout into a retry storm —
    /// the amplification failure invariant R2 exists to catch.
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
    /// Router patience per forwarded attempt (the core's
    /// `request_timeout`; connects are instant here).
    pub router_timeout_ms: u64,
    /// Hedge-delay floor (the core's `hedge_min`: it hedges at the
    /// shard's P99 latency, floored here).
    pub hedge_ms: u64,
    /// Router health-probe cadence (`ReplMsg::Status` per endpoint; a
    /// serving reply re-aims the shard cursor, and a round that finds
    /// none by the next one feeds the shard's breaker a failure).
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
    let rng = SplitMix64::new(seed ^ 0x5AA2_D0E5_EED1);
    let mut w = World::new(rng, &h.clusters, net, labels, false);
    h.setup(&mut w);
    w.run(&mut h);
    let stats = h.router.stats();
    ShardSimReport {
        seed,
        events: w.events,
        answered: h.answered,
        settled: w.settled.len() as u64,
        requests: stats.admitted,
        forwarded: stats.forwarded,
        retries: stats.retries,
        hedges: stats.hedges,
        shed: stats.shed_retry_budget,
        shard_down: stats.shard_down,
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
    /// The router core's next deadline.
    RouterWake,
    /// A probe round begins; shards the last one never found serving
    /// are reported unserved.
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

struct ShardHarness<'a> {
    cfg: &'a ShardSimConfig,
    groups: usize,
    npg: usize,
    /// Each group's replica addresses, node 0 first.
    clusters: Vec<Vec<String>>,
    clients: Vec<ShardClient>,
    router: RouterCore,
    /// The virtual instant the core's next wake-up is queued for.
    wake_at: Option<u64>,
    /// The probe round in flight, and the shards it has yet to find
    /// serving.
    probe: (u64, Vec<bool>),
    answered: u64,
    /// Every key any client will ever work through (probes included).
    all_work: Vec<String>,
    /// The group the scenario takes down wholesale (R1 exempts its keys
    /// from the settle-by-heal demand).
    blackout: Option<usize>,
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
        let clusters: Vec<Vec<String>> = (0..groups)
            .map(|g| (0..npg).map(|i| format!("s{g}n{i}")).collect())
            .collect();
        let unbounded = cfg.bug == RouterSimBug::UnboundedRetries;
        let threshold = BreakerConfig::default().threshold;
        let config = RouterConfig {
            shards: clusters.clone(),
            vnodes: cfg.vnodes,
            connect_timeout: Duration::ZERO,
            request_timeout: Duration::from_millis(cfg.router_timeout_ms),
            retry_ratio_milli: cfg.retry_ratio_milli,
            retry_cap: if unbounded { u64::MAX } else { cfg.retry_cap },
            max_retries: u32::try_from(cfg.max_retries).unwrap_or(u32::MAX),
            hedge: true,
            hedge_min: Duration::from_millis(cfg.hedge_ms),
            breaker: BreakerConfig {
                threshold: if unbounded { u32::MAX } else { threshold },
                cooldown: Duration::from_millis(cfg.breaker_cooldown_ms),
            },
            ..RouterConfig::default()
        };
        ShardHarness {
            cfg,
            groups,
            npg,
            router: RouterCore::new(&config, 0),
            clusters,
            clients,
            wake_at: None,
            probe: (0, vec![false; groups]),
            answered: 0,
            all_work,
            blackout: match cfg.scenario {
                ShardScenario::Blackout { group } => Some(group % groups),
                _ => None,
            },
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

    // ---- the router's driver ----------------------------------------

    /// Steps the router core at the current virtual time, puts what it
    /// sends on the wire, and queues its next deadline.
    fn route(&mut self, w: &mut World<Ev>, input: Input) {
        for out in self.router.step(Duration::from_millis(w.now), input) {
            match out {
                Output::Reply { to, line } => w.route("router", &to, &line),
                Output::Forward {
                    attempt, to, line, ..
                } => w.route(&format!("router#{attempt}"), &to, &line),
            }
        }
        let Some(next) = self.router.poll_timeout(None) else {
            return;
        };
        let at = u64::try_from(next.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX);
        let at = at.max(w.now);
        if self.wake_at.is_none_or(|t| at < t) {
            self.wake_at = Some(at);
            w.schedule(at, Ev::RouterWake);
        }
    }

    /// A new probe round: every replica is asked for its status, and
    /// a shard the previous round never found serving is reported so.
    fn probe_round(&mut self, w: &mut World<Ev>) {
        let serving = None;
        for shard in 0..self.groups {
            if std::mem::take(&mut self.probe.1[shard]) {
                self.route(w, Input::Probed { shard, serving });
            }
        }
        self.probe = (self.probe.0 + 1, vec![true; self.groups]);
        let from = format!("prober#{}", self.probe.0);
        for addr in self.clusters.iter().flatten() {
            w.route(&from, addr, &status_query());
        }
        w.schedule(w.now + self.cfg.probe_ms, Ev::RouterProbe);
    }

    /// A status reply to the current round: the first serving replica
    /// of a shard settles that shard's round.
    fn probed(&mut self, w: &mut World<Ev>, from: &str, line: &str) {
        let (Some(ni), Some(ReplMsg::StatusReply(st))) = (w.node_index(from), ReplMsg::parse(line))
        else {
            return;
        };
        let shard = ni / self.npg;
        if serves(&st.role) && std::mem::take(&mut self.probe.1[shard]) {
            let serving = Some(ni % self.npg);
            self.route(w, Input::Probed { shard, serving });
        }
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
        let ring = ShardRing::new(self.groups, self.cfg.vnodes);
        for rid in &self.all_work {
            let owner = ring.shard_of(rid);
            let exempt = owner.is_some() && owner == self.blackout;
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
            Ev::RouterWake => {
                if self.wake_at == Some(w.now) {
                    self.wake_at = None;
                    self.route(w, Input::Timeout(None));
                }
            }
            Ev::RouterProbe => self.probe_round(w),
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
        if let Some(attempt) = to.strip_prefix("router#").and_then(|a| a.parse().ok()) {
            self.route(w, Input::Answer(attempt, Ok(line.to_string())));
        } else if to == format!("prober#{}", self.probe.0) {
            self.probed(w, from, line);
        } else if to == "router" {
            self.route(w, Input::Line(from.to_string(), line.to_string()));
        } else if let Some(ci) = self.clients.iter().position(|c| c.name == to) {
            self.client_on_line(w, ci, line);
        }
    }

    /// R2, checked after every event: retry and hedge volume stays under
    /// the budget bound at the configured ratio and cap.
    fn check(&mut self, w: &mut World<Ev>) {
        let stats = self.router.stats();
        let cap_milli = self.cfg.retry_cap.saturating_mul(1000).max(1000);
        let spent = (stats.retries + stats.hedges).saturating_mul(1000);
        let bound =
            cap_milli.saturating_add(stats.admitted.saturating_mul(self.cfg.retry_ratio_milli));
        if spent > bound {
            w.violate(format!(
                "invariant R2: retry volume exceeded the budget bound \
                 ({} retries + {} hedges = {spent} milli-tokens > cap {} + {} requests × {})",
                stats.retries, stats.hedges, cap_milli, stats.admitted, self.cfg.retry_ratio_milli
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
