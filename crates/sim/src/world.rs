//! The event loop both simulations share. One binary heap of
//! timestamped events drives simulated nodes — each one the shipping
//! replication core ([`lintra_serve::protocol::Core`]) over a journal
//! and an epoch file kept in memory — through a seeded network:
//! partitions, loss, duplication and jitter, crashes and restarts,
//! per-node clock skew.
//! Each harness adds its own actors (clients, the router core's driver) through
//! [`Actors`], and its own invariants on top of the node-level ones
//! checked here after every event:
//!
//! - at most one unfenced primary per epoch in each group;
//! - every acked journal prefix is byte-identical to the primary's
//!   (checked at each ack send);
//! - a settled `request_id` is never executed again on the node that
//!   holds its completion;
//! - a fenced or diverged journal never grows.
//!
//! Everything is a pure function of the seed: events are ordered by
//! `(virtual time, insertion seq)`, all randomness comes from one
//! `SplitMix64` consumed in event order, and no hash-map iteration order
//! reaches the queue.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireFailure, WireOp, WireRequest, WireResponse};
use lintra_serve::journal::{fold_records, JournalRecord};
use lintra_serve::protocol::{Core, CoreConfig, Input, Output, Storage};
use lintra_serve::replicate::{EpochState, ReplMsg, Role};

/// Sentinel incarnation for deliveries to actors (they never crash).
const ACTOR_INC: u64 = u64::MAX;

/// Hard ceiling on processed events: a scheduling bug must fail the
/// run, not hang the test suite.
const MAX_EVENTS: u64 = 2_000_000;

/// Stop collecting after this many violations; one broken invariant
/// tends to echo.
const MAX_VIOLATIONS: usize = 32;

/// One scheduled event: node work, a delivery, or a harness event.
enum Ev<E> {
    Wake {
        node: usize,
        inc: u64,
    },
    Exec {
        node: usize,
        inc: u64,
        rid: String,
        line: String,
        reply_to: String,
    },
    Deliver {
        from: String,
        to: String,
        to_inc: u64,
        line: String,
    },
    Actor(E),
}

struct Scheduled<E> {
    at: u64,
    seq: u64,
    ev: Ev<E>,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Scheduled<E>) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Scheduled<E>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Scheduled<E>) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// What a crash keeps: the journal and the epoch file.
struct Disk {
    journal: Vec<JournalRecord>,
    epoch: EpochState,
}

impl Storage for Disk {
    fn append(&mut self, rec: &JournalRecord) -> Result<(), String> {
        self.journal.push(rec.clone());
        Ok(())
    }

    fn persist_epoch(&mut self, state: EpochState) {
        self.epoch = state;
    }
}

/// One simulated server: the shipping core plus its durable state.
pub(crate) struct Node {
    pub addr: String,
    group: usize,
    cfg: CoreConfig,
    disk: Disk,
    /// `None` while crashed.
    core: Option<Core>,
    inc: u64,
    /// The follower link: its target and connection number. Messages on
    /// the link travel as `addr#link`, so a reconnect, like a new TCP
    /// connection, never sees what was in flight on the old one.
    link: (Option<String>, u64),
    /// Timers run at `10 / skew` of real rate.
    pub skew: u64,
    wake_at: Option<u64>,
    /// Journal length when this node was fenced or parked diverged.
    frozen: Option<usize>,
    /// Times each rid was executed here.
    pub exec_count: HashMap<String, u64>,
    pub promotions: u64,
    pub fences: u64,
    pub deduped: u64,
}

impl Node {
    /// The epoch this node serves as an unfenced primary, if it does.
    pub fn serving(&self) -> Option<u64> {
        let core = self.core.as_ref()?;
        (core.role() == Role::Primary).then(|| core.epoch())
    }
}

/// How the invariants a harness reports are named.
pub(crate) struct Labels {
    pub split: &'static str,
    pub recompute: &'static str,
    pub frozen: &'static str,
    pub answer: &'static str,
}

/// The network and timing every node shares (virtual milliseconds).
pub(crate) struct Net {
    pub net_ms: u64,
    pub jitter_ms: u64,
    pub exec_ms: u64,
    pub drop_permille: u64,
    pub dup_permille: u64,
    pub heartbeat_ms: u64,
    pub grace_ms: u64,
}

/// The harness-specific half of a simulation.
pub(crate) trait Actors {
    type Ev;
    /// Handles one harness event; `true` ends the run.
    fn on_event(&mut self, w: &mut World<Self::Ev>, ev: Self::Ev) -> bool;
    /// A line reached an address that is not a node.
    fn on_line(&mut self, w: &mut World<Self::Ev>, from: &str, to: &str, line: &str);
    /// Harness invariants, re-checked after every event.
    fn check(&mut self, _w: &mut World<Self::Ev>) {}
}

pub(crate) struct World<E> {
    pub now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<Scheduled<E>>>,
    pub rng: SplitMix64,
    pub nodes: Vec<Node>,
    groups: usize,
    pub net: Net,
    pub cuts: HashSet<(String, String)>,
    /// Last delivery time per connection: each one is FIFO, like TCP.
    fifo: HashMap<(String, String), u64>,
    labels: Labels,
    /// First terminal answer per rid: the byte-identity oracle.
    pub settled: HashMap<String, String>,
    pub violations: Vec<String>,
    seen: HashSet<String>,
    pub trace: Vec<String>,
    pub events: u64,
}

impl<E> World<E> {
    /// Boots one replicated group per address list: its first node the
    /// configured primary, the rest its followers. `peerless` starts
    /// every node with an empty peer list, so arbitration asks nobody
    /// and promotion epochs collapse to the naive `observed + 1`.
    pub fn new(
        rng: SplitMix64,
        groups: &[Vec<String>],
        net: Net,
        labels: Labels,
        peerless: bool,
    ) -> World<E> {
        let mut nodes = Vec::new();
        for (group, cluster) in groups.iter().enumerate() {
            for (i, addr) in cluster.iter().enumerate() {
                let peers = cluster.iter().filter(|p| *p != addr && !peerless);
                nodes.push(Node {
                    addr: addr.clone(),
                    group,
                    cfg: CoreConfig {
                        self_addr: addr.clone(),
                        peers: peers.cloned().collect(),
                        replica_of: (i != 0).then(|| cluster[0].clone()),
                        heartbeat: Duration::from_millis(net.heartbeat_ms),
                        grace: Duration::from_millis(net.grace_ms),
                        peer_timeout: Duration::from_millis(net.heartbeat_ms * 2),
                        nonce: nodes.len() as u64 + 1,
                        source: true,
                    },
                    disk: Disk {
                        journal: Vec::new(),
                        epoch: EpochState {
                            epoch: 1,
                            fenced: false,
                        },
                    },
                    core: None,
                    inc: 0,
                    link: (None, 0),
                    skew: 10,
                    wake_at: None,
                    frozen: None,
                    exec_count: HashMap::new(),
                    promotions: 0,
                    fences: 0,
                    deduped: 0,
                });
            }
        }
        World {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            rng,
            nodes,
            groups: groups.len(),
            net,
            cuts: HashSet::new(),
            fifo: HashMap::new(),
            labels,
            settled: HashMap::new(),
            violations: Vec::new(),
            seen: HashSet::new(),
            trace: Vec::new(),
            events: 0,
        }
    }

    /// Runs events until a harness event ends the run, the violation
    /// budget is spent, or the queue drains.
    pub fn run<A: Actors<Ev = E>>(&mut self, actors: &mut A) {
        while let Some(Reverse(s)) = self.queue.pop() {
            self.now = s.at;
            self.events += 1;
            let mut end = false;
            match s.ev {
                Ev::Actor(ev) => end = actors.on_event(self, ev),
                Ev::Deliver {
                    from,
                    to,
                    to_inc,
                    line,
                } => match self.node_index(&to) {
                    Some(ni) => self.deliver(ni, &from, &to, to_inc, &line),
                    None => actors.on_line(self, &from, &to, &line),
                },
                Ev::Wake { node, inc } => {
                    if self.nodes[node].inc == inc && self.nodes[node].wake_at == Some(s.at) {
                        self.nodes[node].wake_at = None;
                        self.step(node, Input::Timeout);
                    }
                }
                Ev::Exec {
                    node,
                    inc,
                    rid,
                    line,
                    reply_to,
                } => {
                    if self.nodes[node].inc == inc && self.nodes[node].core.is_some() {
                        self.exec(node, rid, &line, Some(reply_to));
                    }
                }
            }
            self.check_nodes();
            actors.check(self);
            if end || self.violations.len() >= MAX_VIOLATIONS {
                break;
            }
            if self.events >= MAX_EVENTS {
                self.violate("harness: event budget exhausted (runaway schedule)".to_string());
                break;
            }
        }
    }

    pub fn schedule(&mut self, at: u64, ev: E) {
        self.push(at, Ev::Actor(ev));
    }

    fn push(&mut self, at: u64, ev: Ev<E>) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            ev,
        }));
    }

    /// The node behind an address or a follower-link endpoint.
    pub fn node_index(&self, addr: &str) -> Option<usize> {
        let addr = addr.split_once('#').map_or(addr, |(node, _)| node);
        self.nodes.iter().position(|n| n.addr == addr)
    }

    /// Records a violation once (checks re-fire every event).
    pub fn violate(&mut self, v: String) {
        if self.seen.insert(v.clone()) {
            self.trace.push(format!("t={}ms VIOLATION {v}", self.now));
            self.violations.push(v);
        }
    }

    /// Feeds a client's terminal answer to the oracle: a settled key is
    /// answered with the same bytes forever.
    pub fn answered(&mut self, rid: &str, line: &str) {
        let first = self
            .settled
            .entry(rid.to_string())
            .or_insert_with(|| line.to_string());
        if first != line {
            let v = format!(
                "{}: `{rid}` answered differently across retries (first `{first}`, then `{line}`)",
                self.labels.answer
            );
            self.violate(v);
        }
    }

    /// Reports every key of `work` that never settled.
    pub fn demand_settled<'k>(&mut self, label: &str, work: impl Iterator<Item = &'k String>) {
        let within = self.now;
        let missing: Vec<String> = work
            .filter(|rid| !self.settled.contains_key(*rid))
            .map(|rid| format!("{label}: request `{rid}` never settled within {within} virtual ms"))
            .collect();
        for v in missing {
            self.violate(v);
        }
    }

    pub fn chance(&mut self, permille: u64) -> bool {
        permille > 0 && self.rng.next_u64() % 1000 < permille
    }

    /// Puts one line on the wire: partitions, loss, duplication and
    /// jitter, stamped with the receiver's incarnation. Follower acks
    /// are intercepted to check the acked prefix at the source. An empty
    /// line is the hangup of a follower link.
    pub fn route(&mut self, from: &str, to: &str, line: &str) {
        if let (Some(fi), Some(ti)) = (self.node_index(from), self.node_index(to)) {
            if let Some(ReplMsg::Ack { seq }) = ReplMsg::parse(line) {
                self.check_acked_prefix(fi, ti, seq);
            }
            let link = (self.nodes[fi].addr.clone(), self.nodes[ti].addr.clone());
            if self.cuts.contains(&link) {
                return;
            }
        }
        if self.chance(self.net.drop_permille) {
            return;
        }
        let delay = self.net.net_ms + self.rng.next_u64() % self.net.jitter_ms.max(1);
        let to_inc = self.node_index(to).map_or(ACTOR_INC, |i| self.nodes[i].inc);
        let copies = if self.chance(self.net.dup_permille) {
            2
        } else {
            1
        };
        let last = self
            .fifo
            .entry((from.to_string(), to.to_string()))
            .or_default();
        let at = (self.now + delay).max(*last);
        *last = at + (copies - 1) * self.net.net_ms.max(1);
        for copy in 0..copies {
            let ev = Ev::Deliver {
                from: from.to_string(),
                to: to.to_string(),
                to_inc,
                line: line.trim_end().to_string(),
            };
            self.push(at + copy * self.net.net_ms.max(1), ev);
        }
    }

    /// Ends the node's follower link; its primary hears the hangup.
    fn hang_up(&mut self, ni: usize) {
        let node = &mut self.nodes[ni];
        let (to, gen) = (node.link.0.take(), node.link.1);
        node.link.1 += 1;
        if let Some(to) = to {
            let from = format!("{}#{gen}", node.addr);
            self.route(&from, &to, "");
        }
    }

    pub fn crash(&mut self, ni: usize) {
        self.hang_up(ni);
        let node = &mut self.nodes[ni];
        if node.core.take().is_some() {
            node.inc += 1;
            node.wake_at = None;
            let line = format!("t={}ms fault: crash {}", self.now, node.addr);
            self.trace.push(line);
        }
    }

    /// Boots a node from its durable state (a no-op while it is up).
    pub fn start(&mut self, ni: usize, restart: bool) {
        if self.nodes[ni].core.is_some() {
            return;
        }
        let local = self.local_now(ni);
        let node = &mut self.nodes[ni];
        node.inc += 1;
        let (core, outs) = Core::new(
            node.cfg.clone(),
            local,
            node.disk.journal.clone(),
            fold_records(&node.disk.journal),
            node.disk.epoch,
            &mut node.disk,
        );
        if restart {
            let line = format!(
                "t={}ms {}: restarted as {} (epoch {})",
                self.now,
                node.addr,
                core.role().label(),
                core.epoch()
            );
            self.trace.push(line);
        }
        let role = core.role();
        self.nodes[ni].core = Some(core);
        self.apply(ni, role, outs);
    }

    fn local_now(&self, ni: usize) -> Duration {
        Duration::from_millis(self.now * 10 / self.nodes[ni].skew)
    }

    /// Steps one live node's core and carries out what it asks for.
    fn step(&mut self, ni: usize, input: Input) {
        let local = self.local_now(ni);
        let node = &mut self.nodes[ni];
        let Some(core) = node.core.as_mut() else {
            return;
        };
        let was = core.role();
        let outs = core.step(local, input, &mut node.disk);
        self.apply(ni, was, outs);
    }

    fn apply(&mut self, ni: usize, was: Role, outs: Vec<Output>) {
        let node = &mut self.nodes[ni];
        let addr = node.addr.clone();
        if let Some(core) = &node.core {
            if core.role() == Role::Fenced && was != Role::Fenced {
                node.fences += 1;
                let by = core.fenced_by().unwrap_or_default();
                self.trace
                    .push(format!("t={}ms {addr}: fenced by epoch {by}", self.now));
            }
            node.frozen = (core.role() == Role::Fenced || core.diverged())
                .then(|| node.frozen.unwrap_or(node.disk.journal.len()));
        }
        for out in outs {
            match out {
                Output::Connect(to, msg) => {
                    self.hang_up(ni);
                    let node = &mut self.nodes[ni];
                    node.link.0 = Some(to.clone());
                    let from = format!("{addr}#{}", node.link.1);
                    self.route(&from, &to, &msg.render_line());
                }
                Output::Send(to, msg @ ReplMsg::Ack { .. }) => {
                    let from = format!("{addr}#{}", self.nodes[ni].link.1);
                    self.route(&from, &to, &msg.render_line());
                }
                Output::Send(to, msg) | Output::Query(to, msg) => {
                    self.route(&addr, &to, &msg.render_line());
                }
                Output::Close(_) => self.hang_up(ni),
                Output::Execute {
                    rid,
                    line,
                    reply_to: None,
                } => self.exec(ni, rid, &line, None),
                Output::Execute {
                    rid,
                    line,
                    reply_to: Some(reply_to),
                } => {
                    let node = &self.nodes[ni];
                    let at = self.now + (self.net.exec_ms * node.skew / 10).max(1);
                    let inc = node.inc;
                    self.push(
                        at,
                        Ev::Exec {
                            node: ni,
                            inc,
                            rid,
                            line,
                            reply_to,
                        },
                    );
                }
                Output::Reply { to, resp, dedup } => {
                    self.nodes[ni].deduped += u64::from(dedup);
                    self.route(&addr, &to, &resp.render_line());
                }
                Output::Promoted(epoch) => {
                    self.nodes[ni].promotions += 1;
                    let line = format!("t={}ms {addr}: promoted to epoch {epoch}", self.now);
                    self.trace.push(line);
                }
                Output::Log(line) => self.trace.push(format!("t={}ms {addr}: {line}", self.now)),
            }
        }
        self.rearm(ni);
    }

    /// Schedules the node's next deadline, converted from its skewed
    /// local clock to virtual time.
    fn rearm(&mut self, ni: usize) {
        let node = &self.nodes[ni];
        let Some(next) = node.core.as_ref().and_then(Core::poll_timeout) else {
            return;
        };
        let local_ms = u64::try_from(next.as_nanos().div_ceil(1_000_000)).unwrap_or(u64::MAX);
        let at = local_ms
            .saturating_mul(node.skew)
            .div_ceil(10)
            .max(self.now);
        if node.wake_at.is_none_or(|w| at < w) {
            let inc = node.inc;
            self.nodes[ni].wake_at = Some(at);
            self.push(at, Ev::Wake { node: ni, inc });
        }
    }

    /// Runs the stand-in optimizer for an admitted or replayed request
    /// and settles it.
    fn exec(&mut self, ni: usize, rid: String, line: &str, reply_to: Option<String>) {
        let node = &mut self.nodes[ni];
        let addr = node.addr.clone();
        let settled = node.core.as_ref().and_then(|c| c.settled(&rid));
        if settled.is_some_and(|(kind, _)| kind.serves_retries()) {
            let v = format!(
                "{}: {addr}: recomputed settled request_id `{rid}`",
                self.labels.recompute
            );
            self.violate(v);
        }
        *self.nodes[ni].exec_count.entry(rid.clone()).or_insert(0) += 1;
        let resp = compute_response(&rid, line);
        let line = resp.render_line();
        self.step(ni, Input::Settle { rid, resp });
        if let Some(to) = reply_to {
            self.route(&addr, &to, &line);
        }
    }

    /// A line reached a node: replication messages go to its core, wire
    /// requests through the same gates the server applies.
    fn deliver(&mut self, ni: usize, from: &str, to: &str, to_inc: u64, line: &str) {
        let node = &self.nodes[ni];
        // The partition also swallows frames already in flight, and a
        // connection dies with the process it reached, or its reconnect.
        let sender = self.node_index(from).map(|i| self.nodes[i].addr.clone());
        let cut = self
            .cuts
            .contains(&(sender.unwrap_or_default(), node.addr.clone()));
        let stale = to
            .split_once('#')
            .is_some_and(|(_, gen)| *gen != node.link.1.to_string());
        let Some(core) = node
            .core
            .as_ref()
            .filter(|_| node.inc == to_inc && !cut && !stale)
        else {
            return;
        };
        if line.is_empty() {
            let peer = from.to_string();
            return self.step(ni, Input::Closed(peer));
        }
        if let Some(msg) = ReplMsg::parse(line) {
            let from = from.to_string();
            return self.step(ni, Input::Msg(from, msg));
        }
        let addr = node.addr.clone();
        let req = match WireRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let f = failure(ErrorClass::Validation, "VAL-MALFORMED-REQUEST", e);
                return self.route(&addr, from, &WireResponse::err("", f).render_line());
            }
        };
        let ping = matches!(req.op, WireOp::Ping);
        let answer = match (core.refusal(ping), &req.request_id) {
            (Some(f), _) => WireResponse::err(req.id, f),
            (None, _) if ping => WireResponse::ok(req.id, Json::obj([("pong", Json::Bool(true))])),
            (None, Some(rid)) => {
                let admit = Input::Admit {
                    from: from.to_string(),
                    id: req.id.clone(),
                    rid: rid.clone(),
                    line: line.to_string(),
                };
                return self.step(ni, admit);
            }
            // Unkeyed work executes without the journal.
            (None, None) => compute_response(&req.id, line),
        };
        self.route(&addr, from, &answer.render_line());
    }

    /// Invariant: every acked prefix is byte-identical to the primary's.
    fn check_acked_prefix(&mut self, fi: usize, pi: usize, seq: u64) {
        let seq = usize::try_from(seq).unwrap_or(usize::MAX);
        let (f, p) = (&self.nodes[fi], &self.nodes[pi]);
        if f.disk.journal.get(..seq).is_none()
            || f.disk.journal.get(..seq) != p.disk.journal.get(..seq)
        {
            let v = format!(
                "invariant 2: {} acked seq {seq} but its journal prefix is not \
                 byte-identical to {}'s",
                f.addr, p.addr
            );
            self.violate(v);
        }
    }

    /// Split brain and frozen journals, re-checked after every event.
    fn check_nodes(&mut self) {
        let mut found = Vec::new();
        for g in 0..self.groups {
            let mut epochs = Vec::new();
            for epoch in self
                .nodes
                .iter()
                .filter(|n| n.group == g)
                .filter_map(Node::serving)
            {
                if epochs.contains(&epoch) {
                    let place = if self.groups > 1 {
                        format!(" on shard {g}")
                    } else {
                        String::new()
                    };
                    found.push(format!(
                        "{}: two unfenced primaries{place} share epoch {epoch}",
                        self.labels.split
                    ));
                }
                epochs.push(epoch);
            }
        }
        for n in &self.nodes {
            if let Some(frozen) = n.frozen.filter(|f| *f != n.disk.journal.len()) {
                found.push(format!(
                    "{}: fenced/diverged {} journal changed ({frozen} records frozen, now {})",
                    self.labels.frozen,
                    n.addr,
                    n.disk.journal.len()
                ));
            }
        }
        for v in found {
            self.violate(v);
        }
    }
}

/// A run's failure artifact: the header, the schedule trace, then every
/// violation, one per line.
pub(crate) fn repro(header: String, trace: &[String], violations: &[String]) -> String {
    let lines = trace.iter().cloned();
    let violations = violations.iter().map(|v| format!("VIOLATION {v}"));
    std::iter::once(header)
        .chain(lines)
        .chain(violations)
        .map(|l| l + "\n")
        .collect()
}

/// The keyed request every simulated client sends: a sweep, which the
/// server journals (a ping it would answer before the journal).
pub(crate) fn keyed_request(rid: &str) -> String {
    let op = WireOp::Sweep {
        design: "chemical".to_string(),
        max_i: 4,
    };
    WireRequest::new(rid, op).with_request_id(rid).render_line()
}

/// True for a response that settles its key: a result, or the stand-in
/// optimizer's deterministic failure.
pub(crate) fn terminal(resp: &WireResponse) -> bool {
    resp.outcome
        .as_ref()
        .map_or_else(|f| f.class == ErrorClass::Numerical, |_| true)
}

pub(crate) fn failure(class: ErrorClass, code: &str, message: impl Into<String>) -> WireFailure {
    WireFailure {
        class,
        code: code.to_string(),
        message: message.into(),
    }
}

/// The simulated optimizer: a pure function of the request key, so a
/// replay or a recompute on another node produces byte-identical output
/// — which lets the harness check response identity structurally while
/// `exec_count` separately proves zero recompute. One in seven keys
/// fails deterministically (a classified `Fail` completion), so the
/// retry-serving path covers failures too.
pub(crate) fn compute_response(rid: &str, line: &str) -> WireResponse {
    let mut hasher = DefaultHasher::new();
    rid.hash(&mut hasher);
    line.hash(&mut hasher);
    let mut rng = SplitMix64::new(hasher.finish());
    let value = rng.next_u64() & ((1 << 53) - 1);
    if value.is_multiple_of(7) {
        WireResponse::err(
            rid,
            failure(
                ErrorClass::Numerical,
                "NUM-NONFINITE",
                format!("simulated deterministic failure for `{rid}`"),
            ),
        )
    } else {
        WireResponse::ok(rid, Json::obj([("sim_result", Json::Num(value as f64))]))
    }
}
