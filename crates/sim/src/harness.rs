//! The cluster simulation: N replicated nodes and M clients driven
//! through a seeded fault schedule — partitions (full, asymmetric,
//! partial), message loss, duplication and jitter, node crashes and
//! restarts, per-node clock skew — on the shared event loop
//! ([`crate::world`]), which machine-checks the node-level invariants
//! after **every** event:
//!
//! 1. at most one unfenced primary per epoch;
//! 2. every acked journal prefix is byte-identical to the journal of
//!    the primary it was acked to;
//! 3. a settled `request_id` is answered byte-identically with zero
//!    recompute, forever (checked both in-node and across the wire);
//! 4. a fenced or diverged journal never grows;
//! 5. once faults stop, the cluster re-converges to exactly one
//!    unfenced primary and every request — including post-heal probes —
//!    settles within the run's virtual-time bound.

use lintra::matrix::rng::SplitMix64;
use lintra_bench::wire::WireResponse;

use crate::world::{keyed_request, terminal, Actors, Labels, Net, World};
use crate::{Scripted, SimBug, SimConfig, SimReport};

enum Ev {
    ClientTimeout {
        client: usize,
        token: u64,
    },
    ClientRetry {
        client: usize,
        token: u64,
    },
    Crash(usize),
    Restart(usize),
    /// Directed link cut: messages `from → to` are dropped.
    Cut(String, String),
    Uncut(String, String),
    /// Faults stop: clear every cut, zero loss/duplication, restart
    /// every crashed node, and issue the convergence probes.
    HealAll,
    End,
}

/// One simulated client: walks the endpoint list on refusals and
/// timeouts, retries its idempotency key across failovers, and
/// deliberately re-sends settled keys to exercise the dedup path.
struct SimClient {
    name: String,
    cursor: usize,
    work: Vec<String>,
    idx: usize,
    /// The settled-key duplicate probe for the current rid was sent.
    dup_done: bool,
    /// Attempt guard: stale timeouts/retries carry an older token.
    token: u64,
    waiting: bool,
}

struct Harness<'a> {
    cfg: &'a SimConfig,
    addrs: Vec<String>,
    clients: Vec<SimClient>,
    answered: u64,
    final_primaries: usize,
}

pub(crate) fn run(seed: u64, cfg: &SimConfig) -> SimReport {
    let addrs: Vec<String> = (0..cfg.nodes.max(1)).map(|i| format!("n{i}")).collect();
    let net = Net {
        net_ms: cfg.net_ms,
        jitter_ms: cfg.jitter_ms,
        exec_ms: cfg.exec_ms,
        drop_permille: cfg.drop_permille,
        dup_permille: cfg.dup_permille,
        heartbeat_ms: cfg.tick_ms,
        grace_ms: cfg.grace_ms,
    };
    let labels = Labels {
        split: "invariant 1",
        recompute: "invariant 3",
        frozen: "invariant 4",
        answer: "invariant 3",
    };
    let rng = SplitMix64::new(seed ^ 0x5EED_0F5E_ED00);
    let peerless = cfg.bug == SimBug::CollidingPromotionEpoch;
    let mut w = World::new(rng, std::slice::from_ref(&addrs), net, labels, peerless);
    let clients = (0..cfg.clients)
        .map(|i| SimClient {
            name: format!("c{i}"),
            cursor: 0,
            work: (0..cfg.requests_per_client)
                .map(|j| format!("c{i}-r{j}"))
                .collect(),
            idx: 0,
            dup_done: false,
            token: 0,
            waiting: false,
        })
        .collect();
    let mut h = Harness {
        cfg,
        addrs,
        clients,
        answered: 0,
        final_primaries: 0,
    };
    h.setup(&mut w);
    w.run(&mut h);
    SimReport {
        seed,
        events: w.events,
        answered: h.answered,
        settled: w.settled.len() as u64,
        deduped: w.nodes.iter().map(|n| n.deduped).sum(),
        promotions: w.nodes.iter().map(|n| n.promotions).sum(),
        fences: w.nodes.iter().map(|n| n.fences).sum(),
        final_primaries: h.final_primaries,
        violations: w.violations,
        trace: w.trace,
    }
}

impl Harness<'_> {
    fn setup(&mut self, w: &mut World<Ev>) {
        if self.cfg.skew {
            for node in &mut w.nodes {
                // Timers on this node run 0.8x–1.2x real rate.
                node.skew = 8 + w.rng.next_u64() % 5;
            }
        }
        self.plan_faults(w);
        for i in 0..w.nodes.len() {
            w.start(i, false);
        }
        for ci in 0..self.clients.len() {
            self.client_send(w, ci);
        }
        w.schedule(self.cfg.sim_ms, Ev::End);
    }

    /// Seeds the fault schedule: randomized crashes and partitions when
    /// `auto_faults` is on, plus any scripted faults, plus the heal
    /// barrier at 3/5 of the run after which convergence is demanded.
    fn plan_faults(&mut self, w: &mut World<Ev>) {
        let end = (self.cfg.sim_ms * 3 / 5).max(1);
        let lo = self.cfg.sim_ms / 8;
        let span = end.saturating_sub(lo).max(1);
        let n = self.addrs.len();
        let addr = |i: usize| self.addrs[i % n].clone();
        if self.cfg.auto_faults {
            for _ in 0..self.cfg.crash_faults {
                let t = lo + w.rng.next_u64() % span;
                let i = (w.rng.next_u64() % n as u64) as usize;
                let dur = self.cfg.sim_ms / 10 + w.rng.next_u64() % (self.cfg.sim_ms / 5).max(1);
                w.schedule(t, Ev::Crash(i));
                w.schedule((t + dur).min(end - 1), Ev::Restart(i));
            }
            for _ in 0..self.cfg.partition_faults {
                let t = lo + w.rng.next_u64() % span;
                let dur = self.cfg.sim_ms / 10 + w.rng.next_u64() % (self.cfg.sim_ms / 5).max(1);
                let until = (t + dur).min(end - 1);
                let a = (w.rng.next_u64() % n as u64) as usize;
                let b = (a + 1 + (w.rng.next_u64() % (n as u64 - 1).max(1)) as usize) % n;
                let others = (0..n).filter(|p| *p != a);
                let links: Vec<(String, String)> = match w.rng.next_u64() % 3 {
                    // Full isolation: node `a` loses both directions.
                    0 => others
                        .flat_map(|p| [(addr(a), addr(p)), (addr(p), addr(a))])
                        .collect(),
                    // Asymmetric: `a` can send but hears nothing back.
                    1 => others.map(|p| (addr(p), addr(a))).collect(),
                    // Partial: one pair severed both ways.
                    _ => vec![(addr(a), addr(b)), (addr(b), addr(a))],
                };
                for (x, y) in links {
                    w.schedule(t, Ev::Cut(x.clone(), y.clone()));
                    w.schedule(until, Ev::Uncut(x, y));
                }
            }
        }
        for (t, s) in self.cfg.scripted.clone() {
            let t = t.min(end.saturating_sub(1));
            match s {
                Scripted::Crash(i) => w.schedule(t, Ev::Crash(i % n)),
                Scripted::Restart(i) => w.schedule(t, Ev::Restart(i % n)),
                Scripted::CutOneWay(a, b) => w.schedule(t, Ev::Cut(addr(a), addr(b))),
                Scripted::CutBoth(a, b) => {
                    w.schedule(t, Ev::Cut(addr(a), addr(b)));
                    w.schedule(t, Ev::Cut(addr(b), addr(a)));
                }
            }
        }
        w.schedule(end, Ev::HealAll);
    }

    fn client_send(&mut self, w: &mut World<Ev>, ci: usize) {
        let c = &mut self.clients[ci];
        let Some(rid) = c.work.get(c.idx) else {
            c.waiting = false;
            return;
        };
        c.token += 1;
        c.waiting = true;
        let (token, line) = (c.token, keyed_request(rid));
        let endpoint = &self.addrs[c.cursor % self.addrs.len()];
        w.route(&c.name, endpoint, &line);
        let at = w.now + self.cfg.client_timeout_ms;
        w.schedule(at, Ev::ClientTimeout { client: ci, token });
    }

    fn client_on_line(&mut self, w: &mut World<Ev>, ci: usize, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let c = &self.clients[ci];
        if !c.waiting || c.work.get(c.idx) != Some(&resp.id) {
            return; // a straggler for an earlier key
        }
        if terminal(&resp) {
            w.answered(&resp.id, line);
            self.answered += 1;
            let c = &mut self.clients[ci];
            if !c.dup_done && c.idx.is_multiple_of(2) {
                // Dedup teeth: immediately re-send the settled key; the
                // answer must come back byte-identical (and, on any node
                // that holds the record, with zero recompute).
                c.dup_done = true;
            } else {
                c.dup_done = false;
                c.idx += 1;
            }
            return self.client_send(w, ci);
        }
        match resp.outcome.err().map(|f| f.code).as_deref() {
            // Our own earlier attempt is still executing there: give it
            // time to settle, then retry the same key (dedup answers).
            Some("RES-DUPLICATE-REQUEST") => {
                let token = self.clients[ci].token;
                let at = w.now + self.cfg.exec_ms * 2;
                w.schedule(at, Ev::ClientRetry { client: ci, token });
            }
            // Refusals that name the wrong server, and anything else:
            // walk on immediately.
            _ => {
                self.clients[ci].cursor += 1;
                self.client_send(w, ci);
            }
        }
    }
}

impl Actors for Harness<'_> {
    type Ev = Ev;

    fn on_event(&mut self, w: &mut World<Ev>, ev: Ev) -> bool {
        match ev {
            Ev::ClientTimeout { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    // No answer within the budget: walk to the next
                    // endpoint and retry the same idempotency key.
                    self.clients[client].cursor += 1;
                    self.client_send(w, client);
                }
            }
            Ev::ClientRetry { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    self.client_send(w, client);
                }
            }
            Ev::Crash(i) => w.crash(i),
            Ev::Restart(i) => w.start(i, true),
            Ev::Cut(a, b) => {
                let line = format!("t={}ms fault: cut {a}->{b}", w.now);
                if w.cuts.insert((a, b)) {
                    w.trace.push(line);
                }
            }
            Ev::Uncut(a, b) => {
                let line = format!("t={}ms fault: heal {a}->{b}", w.now);
                if w.cuts.remove(&(a, b)) {
                    w.trace.push(line);
                }
            }
            Ev::HealAll => {
                w.cuts.clear();
                w.net.drop_permille = 0;
                w.net.dup_permille = 0;
                let line = format!(
                    "t={}ms fault: heal-all (partitions cleared, loss/dup off)",
                    w.now
                );
                w.trace.push(line);
                for i in 0..w.nodes.len() {
                    w.start(i, true);
                }
                // Convergence probes: every client must complete one
                // more keyed request before the run ends (invariant 5).
                for ci in 0..self.clients.len() {
                    let probe = format!("probe-{}", self.clients[ci].name);
                    self.clients[ci].work.push(probe);
                    if !self.clients[ci].waiting {
                        self.client_send(w, ci);
                    }
                }
            }
            Ev::End => {
                self.final_primaries = w.nodes.iter().filter_map(|n| n.serving()).count();
                if self.final_primaries != 1 {
                    w.violate(format!(
                        "invariant 5: {} unfenced primaries at end of run (want exactly 1)",
                        self.final_primaries
                    ));
                }
                w.demand_settled("invariant 5", self.clients.iter().flat_map(|c| &c.work));
                return true;
            }
        }
        false
    }

    fn on_line(&mut self, w: &mut World<Ev>, _from: &str, to: &str, line: &str) {
        if let Some(ci) = self.clients.iter().position(|c| c.name == to) {
            self.client_on_line(w, ci, line);
        }
    }
}
