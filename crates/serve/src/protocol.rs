//! The replication protocol as one sans-IO state machine.
//!
//! [`Core`] holds everything a replicated server decides with: its role
//! and epoch, the in-memory image of its journal, the settled map and
//! the in-flight set. It never blocks, sleeps, reads a clock, or touches
//! a socket, and it reaches its journal and epoch file only through the
//! driver's [`Storage`]. A driver feeds it [`Input`]s stamped with the
//! current time through [`Core::step`] and carries out the [`Output`]s
//! it returns, in order. Outputs depend only on (state, `now`, input,
//! each write's result), so the threaded server ([`crate::server`]) and
//! the deterministic simulator (`lintra-sim`) run the very same
//! decisions.
//!
//! **Durability ordering.** The core writes where it decides, inside
//! the step: no record reaches the journal image, the follower streams,
//! the settled map, an [`Output::Execute`] or an ack before its
//! [`Storage::append`] returned, and an epoch change is persisted before
//! the state that depends on it changes, so a `<epoch> fenced` write
//! lands before anyone can observe the fence.
//!
//! **Timers.** The core takes no tick: [`Core::poll_timeout`] reports
//! its next deadline and the driver answers it with [`Input::Timeout`]
//! (an early call is harmless).

use std::collections::HashSet;
use std::time::Duration;

use lintra::engine::crc32;
use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::wire::{WireFailure, WireResponse};

use crate::client::RetryPolicy;
use crate::journal::{
    fold_records, payload_bytes, CompletedMap, Folded, JournalRecord, RecordKind,
};
use crate::replicate::{chain_crc, promotion_epoch, EpochState, ReplMsg, Role, StatusView};
use crate::router::fnv1a64;

/// Unacked records a primary keeps in flight to one follower. A slow
/// follower stalls its own stream at this bound; it never slows the
/// primary or grows its memory.
pub const WINDOW: u64 = 256;

/// Floor on the guard's peer-probing cadence.
const GUARD_FLOOR: Duration = Duration::from_millis(100);

/// What parameterizes one node.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// This node's own listen address (tiebreaks, slot arithmetic).
    pub self_addr: String,
    /// Peer replicas consulted by arbitration and watched by the guard.
    pub peers: Vec<String>,
    /// The configured primary (`--replica-of`); `Some` starts a follower.
    pub replica_of: Option<String>,
    /// Primary→follower heartbeat interval while a stream is idle.
    pub heartbeat: Duration,
    /// Primary silence a follower tolerates before arbitrating.
    pub grace: Duration,
    /// How long arbitration waits for peers to answer.
    pub peer_timeout: Duration,
    /// This process's identity in status replies (alias detection).
    pub nonce: u64,
    /// False for a rotating journal: no journal image is kept and every
    /// hello is refused, because rotation rewrites the file a follower
    /// would mirror.
    pub source: bool,
}

/// One event for the core.
#[derive(Debug, Clone)]
pub enum Input {
    /// `(from, msg)`: a replication message arrived from a peer
    /// address, a follower stream, or a querier.
    Msg(String, ReplMsg),
    /// The connection to or from this peer (an address or a stream key)
    /// is gone, or never came up.
    Closed(String),
    /// A deadline reported by [`Core::poll_timeout`] may have passed.
    Timeout,
    /// A keyed client request asks to be admitted.
    Admit {
        /// Where the answer goes.
        from: String,
        /// The wire correlation id.
        id: String,
        /// The idempotency key.
        rid: String,
        /// The request line, journaled as the admit record.
        line: String,
    },
    /// An [`Output::Execute`] finished with this response.
    Settle {
        /// The idempotency key.
        rid: String,
        /// The computed response.
        resp: WireResponse,
    },
}

/// One side effect for the driver, carried out in order.
#[derive(Debug, Clone)]
pub enum Output {
    /// `(to, msg)`: send on the follower link or stream to `to`, or
    /// answer `to`.
    Send(String, ReplMsg),
    /// `(to, msg)`: one-shot exchange — dial `to`, send, and feed the one
    /// reply line back as [`Input::Msg`] (or [`Input::Closed`] when none
    /// comes).
    Query(String, ReplMsg),
    /// `(to, hello)`: open the follower link to this primary and send the
    /// hello on it.
    Connect(String, ReplMsg),
    /// Drop the follower link to this primary.
    Close(String),
    /// Execute an admitted or replayed request, then report
    /// [`Input::Settle`]. `reply_to` is `None` for replays.
    Execute {
        /// The idempotency key.
        rid: String,
        /// The request line.
        line: String,
        /// Where the answer goes (`None`: a replay nobody awaits).
        reply_to: Option<String>,
    },
    /// Answer a client without executing anything.
    Reply {
        /// Destination.
        to: String,
        /// The response.
        resp: WireResponse,
        /// True when a settled key was served from the journal.
        dedup: bool,
    },
    /// This node took over this epoch; the replays that follow settle
    /// under it.
    Promoted(u64),
    /// An operator-facing line (stderr in the server, the trace in the
    /// simulator).
    Log(String),
}

/// The durable half of a driver: the journal and the epoch file.
/// [`Core::new`] and [`Core::step`] write through it at the point of
/// decision, and act on each append's result before they return.
pub trait Storage {
    /// Appends and fsyncs one record.
    ///
    /// # Errors
    ///
    /// A description of the failed write.
    fn append(&mut self, rec: &JournalRecord) -> Result<(), String>;
    /// Persists the epoch state (best effort).
    fn persist_epoch(&mut self, state: EpochState);
}

/// What one step does: the writes it makes through the driver's
/// [`Storage`], and the outputs it returns.
struct Effects<'s> {
    storage: &'s mut dyn Storage,
    outputs: Vec<Output>,
}

impl Effects<'_> {
    fn push(&mut self, output: Output) {
        self.outputs.push(output);
    }
}

#[derive(Debug)]
struct Stream {
    peer: String,
    next: u64,
    acked: u64,
    last_sent: Duration,
}

impl Stream {
    fn in_flight(&self) -> u64 {
        (self.next - 1).saturating_sub(self.acked)
    }
}

#[derive(Debug)]
struct Link {
    up: bool,
    since: Duration,
    last_contact: Duration,
    retry_at: Duration,
    attempt: u32,
}

#[derive(Debug)]
struct Arb {
    deadline: Duration,
    waiting: Vec<String>,
    replies: Vec<(String, StatusView)>,
}

/// The replication state machine of one durable server.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    epoch: u64,
    fenced_by: u64,
    role: Role,
    primary: Option<String>,
    former_primary: Option<String>,
    log: Vec<JournalRecord>,
    /// [`crate::replicate::prefix_crc`] of `log[..i]` at index `i`, as
    /// far as a hello has needed it.
    chain: Vec<u32>,
    seq: u64,
    settled: CompletedMap,
    inflight: HashSet<String>,
    replaying: HashSet<String>,
    streams: Vec<Stream>,
    link: Link,
    arb: Option<Arb>,
    next_probe: Duration,
    diverged: bool,
    promoted_replayed: u64,
    rng: SplitMix64,
}

impl Core {
    /// Boots a node from its durable state, the way a restart does: a
    /// configured `replica_of` starts a follower (clearing a persisted
    /// fence), a fenced standalone stays fenced, and an unfenced
    /// standalone is primary and replays its admitted-but-unsettled
    /// records (the returned [`Output::Execute`]s) before serving.
    ///
    /// `folded` must be [`fold_records`]`(&records)`. Journal recovery
    /// has already computed it, so a restart folds its history once.
    /// `storage` holds `records` and `state`; a rejoin's cleared fence is
    /// persisted through it.
    pub fn new(
        cfg: CoreConfig,
        now: Duration,
        records: Vec<JournalRecord>,
        folded: Folded,
        state: EpochState,
        storage: &mut dyn Storage,
    ) -> (Core, Vec<Output>) {
        let (settled, incomplete) = folded;
        let (role, fenced_by) = match (&cfg.replica_of, state.fenced) {
            (Some(_), fenced) => {
                // An explicit `replica_of` rejoin clears a persisted
                // fence: the operator chose a primary to resync from.
                if fenced {
                    storage.persist_epoch(EpochState {
                        epoch: state.epoch,
                        fenced: false,
                    });
                }
                (Role::Follower, 0)
            }
            (None, true) => (Role::Fenced, state.epoch),
            (None, false) => (Role::Primary, 0),
        };
        let mut core = Core {
            rng: SplitMix64::new(0x0F01_10E5 ^ fnv1a64(cfg.self_addr.as_bytes())),
            primary: cfg.replica_of.clone(),
            seq: records.len() as u64,
            log: if cfg.source { records } else { Vec::new() },
            chain: vec![0],
            cfg,
            epoch: state.epoch,
            fenced_by,
            role,
            former_primary: None,
            settled,
            inflight: HashSet::new(),
            replaying: HashSet::new(),
            streams: Vec::new(),
            link: Link {
                up: false,
                since: now,
                last_contact: now,
                retry_at: now,
                attempt: 0,
            },
            arb: None,
            next_probe: now,
            diverged: false,
            promoted_replayed: 0,
        };
        let mut out = Vec::new();
        if role == Role::Primary {
            for (rid, line) in incomplete {
                core.inflight.insert(rid.clone());
                out.push(Output::Execute {
                    rid,
                    line,
                    reply_to: None,
                });
            }
        }
        (core, out)
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current epoch (a fence leaves it at the superseded value).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Durable journal records (the replication sequence number).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The primary a follower replicates from.
    pub fn primary(&self) -> Option<&str> {
        self.primary.as_deref()
    }

    /// The epoch that fenced this node, if fenced.
    pub fn fenced_by(&self) -> Option<u64> {
        (self.role == Role::Fenced).then_some(self.fenced_by)
    }

    /// True once this follower's journal was proven not to be a prefix
    /// of its primary's: it never resyncs or promotes.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Requests replayed by promotions of this node.
    pub fn promoted_replayed(&self) -> u64 {
        self.promoted_replayed
    }

    /// How `rid` settled, if it did.
    pub fn settled(&self, rid: &str) -> Option<&(RecordKind, String)> {
        self.settled.get(rid)
    }

    /// True while a follower stream to `peer` is open.
    pub fn streams_to(&self, peer: &str) -> bool {
        self.streams.iter().any(|s| s.peer == peer)
    }

    /// This node's answer to a status query. A diverged follower says
    /// so: it will never promote, so arbitration must not defer to it.
    pub fn status(&self) -> ReplMsg {
        let role = if self.diverged {
            "diverged"
        } else {
            self.role.label()
        };
        ReplMsg::StatusReply(StatusView {
            role: role.to_string(),
            epoch: self.epoch,
            seq: self.seq,
            answered: self.settled.len() as u64,
            nonce: self.cfg.nonce,
            primary: self.primary.clone(),
        })
    }

    /// The role gate every client request passes first: a fenced node
    /// refuses everything, pings included; a follower answers pings but
    /// sends compute to the primary.
    pub fn refusal(&self, ping: bool) -> Option<WireFailure> {
        let (code, message) = match self.role {
            Role::Fenced => {
                let (epoch, by) = (self.epoch, self.fenced_by);
                // After a restart the superseded epoch is no longer
                // known, so name just the fence.
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
                ("RES-STALE-EPOCH", message)
            }
            Role::Follower | Role::Promoting if !ping => {
                let hint = self
                    .primary
                    .as_ref()
                    .map(|p| format!("; the primary is {p}"))
                    .unwrap_or_default();
                (
                    "RES-NOT-PRIMARY",
                    format!(
                        "this server is a {} replica and does not accept compute \
                         requests{hint}",
                        self.role.label()
                    ),
                )
            }
            _ => return None,
        };
        Some(failure(ErrorClass::Resource, code, message))
    }

    /// The next instant [`Input::Timeout`] has work to do.
    pub fn poll_timeout(&self) -> Option<Duration> {
        match self.role {
            Role::Primary => {
                let beats = self
                    .streams
                    .iter()
                    .filter(|s| s.in_flight() < WINDOW)
                    .map(|s| s.last_sent + self.cfg.heartbeat);
                let probe = self.guards().then_some(self.next_probe);
                beats.chain(probe).min()
            }
            Role::Follower if !self.diverged => Some(match &self.arb {
                Some(arb) => arb.deadline,
                None if self.link.up => {
                    self.link.last_contact.max(self.link.since)
                        + self.cfg.grace
                        + Duration::from_nanos(1)
                }
                None => self.link.retry_at,
            }),
            _ => None,
        }
    }

    /// Handles one input, writing each journal append and epoch change
    /// it decides on through `storage` before it goes on, and returns
    /// what the driver must carry out, in order.
    pub fn step(&mut self, now: Duration, input: Input, storage: &mut dyn Storage) -> Vec<Output> {
        let mut out = Effects {
            storage,
            outputs: Vec::new(),
        };
        match input {
            Input::Msg(from, msg) => self.on_msg(now, from, msg, &mut out),
            Input::Closed(peer) => self.on_closed(now, &peer, &mut out),
            Input::Timeout => self.on_timeout(now, &mut out),
            Input::Admit {
                from,
                id,
                rid,
                line,
            } => self.on_admit(now, from, id, rid, &line, &mut out),
            Input::Settle { rid, resp } => self.on_settle(now, rid, &resp, &mut out),
        }
        out.outputs
    }

    fn on_msg(&mut self, now: Duration, from: String, msg: ReplMsg, out: &mut Effects<'_>) {
        match msg {
            ReplMsg::Status => out.push(Output::Send(from, self.status())),
            ReplMsg::Hello {
                epoch, have, pcrc, ..
            } => self.on_hello(now, from, epoch, have, pcrc, out),
            ReplMsg::Ack { seq } => {
                if let Some(i) = self.streams.iter().position(|s| s.peer == from) {
                    self.streams[i].acked = self.streams[i].acked.max(seq);
                    self.pump(i, now, out);
                }
            }
            ReplMsg::StatusReply(st) => self.on_status_reply(now, from, st, out),
            // A higher epoch answering our fencing hello deposes us.
            ReplMsg::Rec { epoch, .. } | ReplMsg::Hb { epoch, .. }
                if self.role == Role::Primary && epoch > self.epoch =>
            {
                self.fence(epoch, out);
            }
            msg if self.role == Role::Follower
                && self.link.up
                && self.primary.as_deref() == Some(from.as_str()) =>
            {
                self.on_link(now, msg, out);
            }
            _ => {}
        }
    }

    /// A hello: a higher epoch fences us on sight; otherwise only a
    /// primary streams, and only to a follower whose journal is a
    /// verified prefix of ours.
    fn on_hello(
        &mut self,
        now: Duration,
        from: String,
        epoch: u64,
        have: u64,
        pcrc: u32,
        out: &mut Effects<'_>,
    ) {
        let refuse = if !self.cfg.source {
            Some("IO-REPL-CORRUPT")
        } else if epoch > self.epoch {
            self.fence(epoch, out);
            Some("RES-STALE-EPOCH")
        } else {
            match self.role {
                Role::Primary => None,
                Role::Fenced => Some("RES-STALE-EPOCH"),
                _ => Some("RES-NOT-PRIMARY"),
            }
        };
        let refuse = match refuse {
            None if self.pcrc(have) != Some(pcrc) => Some("IO-REPL-CORRUPT"),
            refuse => refuse,
        };
        if let Some(code) = refuse {
            out.push(self.err(from, code));
            return;
        }
        self.streams.retain(|s| s.peer != from);
        self.streams.push(Stream {
            peer: from,
            next: have + 1,
            acked: have,
            last_sent: now,
        });
        self.pump(self.streams.len() - 1, now, out);
    }

    /// Streams journal records to one follower, up to its window.
    fn pump(&mut self, i: usize, now: Duration, out: &mut Effects<'_>) {
        let (epoch, log, s) = (self.epoch, &self.log, &mut self.streams[i]);
        while s.in_flight() < WINDOW {
            let Some(rec) = usize::try_from(s.next - 1).ok().and_then(|i| log.get(i)) else {
                break;
            };
            out.push(Output::Send(
                s.peer.clone(),
                ReplMsg::Rec {
                    epoch,
                    seq: s.next,
                    crc: crc32(&payload_bytes(rec.kind, &rec.rid, &rec.line)),
                    kind: rec.kind,
                    rid: rec.rid.clone(),
                    line: rec.line.clone(),
                },
            ));
            s.next += 1;
            s.last_sent = now;
        }
    }

    /// One message on the follower link from the primary.
    fn on_link(&mut self, now: Duration, msg: ReplMsg, out: &mut Effects<'_>) {
        match msg {
            ReplMsg::Rec {
                epoch,
                seq,
                crc,
                kind,
                rid,
                line,
            } => {
                if epoch < self.epoch {
                    // Records from a lower epoch are refused, always.
                    out.push(self.err(self.primary.clone().unwrap_or_default(), "RES-STALE-EPOCH"));
                    return self.lose_link(now, true, out);
                }
                self.contact(now, epoch, out);
                if seq <= self.seq {
                    // Already durable (reconnect overlap): re-ack.
                    let msg = ReplMsg::Ack { seq: self.seq };
                    out.push(self.to_primary(msg));
                } else if seq > self.seq + 1 {
                    // A gap: the stream lost sync; resync fresh.
                    self.lose_link(now, false, out);
                } else if crc32(&payload_bytes(kind, &rid, &line)) != crc {
                    // Never append a record that fails its checksum.
                    out.push(self.err(self.primary.clone().unwrap_or_default(), "IO-REPL-CORRUPT"));
                    self.lose_link(now, false, out);
                } else {
                    // Acked once durable; a failed write resyncs.
                    let ack = self.to_primary(ReplMsg::Ack { seq });
                    let rec = JournalRecord { kind, rid, line };
                    if self.append(now, rec, Some(ack), out).is_err() {
                        self.lose_link(now, false, out);
                    }
                }
            }
            // The heartbeat's `seq` is not consulted: only records move a
            // follower's journal, and a gap shows on the next record.
            ReplMsg::Hb { epoch, .. } => {
                if epoch < self.epoch {
                    // The sender is provably deposed: no reply, arbitrate.
                    return self.lose_link(now, true, out);
                }
                self.contact(now, epoch, out);
            }
            ReplMsg::Err { code, epoch } => {
                self.adopt(epoch, out);
                match code.as_str() {
                    "RES-STALE-EPOCH" => self.lose_link(now, true, out),
                    "IO-REPL-CORRUPT" => self.park(out),
                    _ => self.lose_link(now, false, out),
                }
            }
            // Anything else on a follower link is a protocol violation.
            _ => self.lose_link(now, false, out),
        }
    }

    fn contact(&mut self, now: Duration, epoch: u64, out: &mut Effects<'_>) {
        self.adopt(epoch, out);
        self.link.last_contact = now;
        self.link.attempt = 0;
    }

    fn adopt(&mut self, epoch: u64, out: &mut Effects<'_>) {
        if epoch > self.epoch {
            out.storage.persist_epoch(EpochState {
                epoch,
                fenced: false,
            });
            self.epoch = epoch;
        }
    }

    /// The link is gone. A provably stale primary, or one silent past
    /// the grace, triggers arbitration; anything else a backoff redial.
    fn lose_link(&mut self, now: Duration, stale: bool, out: &mut Effects<'_>) {
        self.close_link(out);
        if stale || now.saturating_sub(self.link.last_contact) > self.cfg.grace {
            return self.arbitrate(now, out);
        }
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(25),
            max_backoff: (self.cfg.grace / 4).max(Duration::from_millis(25)),
            ..RetryPolicy::default()
        };
        self.link.retry_at = now + policy.backoff(self.link.attempt.min(16), &mut self.rng);
        self.link.attempt = self.link.attempt.saturating_add(1);
    }

    /// Divergence: resyncing would silently fork journals and promotion
    /// would serve a history the cluster never agreed on, so park as a
    /// read-only follower until the operator re-seeds this journal.
    fn park(&mut self, out: &mut Effects<'_>) {
        let primary = self.close_link(out);
        self.diverged = true;
        out.push(Output::Log(format!(
            "replication: journal diverged from primary {primary} (IO-REPL-CORRUPT): this \
             follower's journal is not a prefix of the primary's; replication stopped and \
             promotion disabled — wipe the journal directory and re-seed"
        )));
    }

    /// Drops the follower link if it is up; returns the primary.
    fn close_link(&mut self, out: &mut Effects<'_>) -> String {
        let primary = self.primary.clone().unwrap_or_default();
        if std::mem::take(&mut self.link.up) {
            out.push(Output::Close(primary.clone()));
        }
        primary
    }

    fn connect(&mut self, now: Duration, out: &mut Effects<'_>) {
        let Some(to) = self.primary.clone() else {
            return;
        };
        self.link.up = true;
        self.link.since = now;
        let hello = self.hello();
        out.push(Output::Connect(to, hello));
    }

    fn on_closed(&mut self, now: Duration, peer: &str, out: &mut Effects<'_>) {
        self.streams.retain(|s| s.peer != peer);
        if self.arb_answer(now, peer, None, out) {
            return;
        }
        if self.role == Role::Follower && self.link.up && self.primary.as_deref() == Some(peer) {
            self.lose_link(now, false, out);
        }
    }

    fn on_timeout(&mut self, now: Duration, out: &mut Effects<'_>) {
        match self.role {
            Role::Primary => {
                for i in 0..self.streams.len() {
                    self.pump(i, now, out);
                    let s = &mut self.streams[i];
                    if s.in_flight() < WINDOW && now >= s.last_sent + self.cfg.heartbeat {
                        s.last_sent = now;
                        out.push(Output::Send(
                            s.peer.clone(),
                            ReplMsg::Hb {
                                epoch: self.epoch,
                                seq: self.seq,
                            },
                        ));
                    }
                }
                // The guard: keep the deposed primary fenced, and watch
                // every peer for a higher epoch.
                if self.guards() && now >= self.next_probe {
                    self.next_probe = now + self.cfg.heartbeat.max(GUARD_FLOOR);
                    if let Some(to) = self.former_primary.clone() {
                        let hello = self.hello();
                        out.push(Output::Query(to, hello));
                    }
                    for to in self.others() {
                        out.push(Output::Query(to, ReplMsg::Status));
                    }
                }
            }
            Role::Follower if !self.diverged => match &self.arb {
                Some(arb) if now >= arb.deadline => self.decide(now, out),
                Some(_) => {}
                None if self.link.up => {
                    let since = self.link.last_contact.max(self.link.since);
                    if now.saturating_sub(since) > self.cfg.grace {
                        self.lose_link(now, false, out);
                    }
                }
                None if now >= self.link.retry_at => self.connect(now, out),
                None => {}
            },
            _ => {}
        }
    }

    /// Failure detection fired: ask every peer at once; [`Core::decide`]
    /// runs once all have answered (or failed) or the peer timeout
    /// passed. An unreachable peer never blocks failover.
    fn arbitrate(&mut self, now: Duration, out: &mut Effects<'_>) {
        let waiting = self.others();
        for to in &waiting {
            out.push(Output::Query(to.clone(), ReplMsg::Status));
        }
        let empty = waiting.is_empty();
        self.arb = Some(Arb {
            deadline: now + self.cfg.peer_timeout,
            waiting,
            replies: Vec::new(),
        });
        if empty {
            self.decide(now, out);
        }
    }

    fn on_status_reply(
        &mut self,
        now: Duration,
        from: String,
        st: StatusView,
        out: &mut Effects<'_>,
    ) {
        // A matching nonce is this very server under an alias: deferring
        // to it, or fencing on it, would deadlock failover.
        let alias = st.nonce == self.cfg.nonce;
        if self.arb.is_some() {
            self.arb_answer(now, &from, (!alias).then_some(st), out);
            return;
        }
        // The guard: a higher epoch anywhere — or a primary at the same
        // epoch with a smaller address — supersedes us.
        let (epoch, role) = (st.epoch, st.role);
        let superseded = epoch > self.epoch
            || (epoch == self.epoch && role == "primary" && from < self.cfg.self_addr);
        if !alias && self.role == Role::Primary && superseded {
            out.push(Output::Log(format!(
                "replication: peer {from} holds epoch {epoch} (role {role}) against our \
                 epoch {}: fencing ourselves",
                self.epoch
            )));
            self.fence(epoch, out);
        }
    }

    /// Records a peer's answer (`None`: it failed) to an open
    /// arbitration, deciding once nobody is left to wait for. False when
    /// `peer` was not being waited on.
    fn arb_answer(
        &mut self,
        now: Duration,
        peer: &str,
        reply: Option<StatusView>,
        out: &mut Effects<'_>,
    ) -> bool {
        let waiting = |arb: &&mut Arb| arb.waiting.iter().any(|p| p == peer);
        let Some(arb) = self.arb.as_mut().filter(waiting) else {
            return false;
        };
        arb.waiting.retain(|p| p != peer);
        arb.replies.extend(reply.map(|st| (peer.to_string(), st)));
        if arb.waiting.is_empty() {
            self.decide(now, out);
        }
        true
    }

    /// Adopts a peer that already promoted, defers to a better-acked
    /// one (ties: the smaller address), or promotes.
    fn decide(&mut self, now: Duration, out: &mut Effects<'_>) {
        let Some(arb) = self.arb.take() else { return };
        if self.role != Role::Follower || self.diverged {
            return;
        }
        let (my_epoch, my_seq) = (self.epoch, self.seq);
        let mut replies = arb.replies;
        replies.sort_by_key(|r| self.cfg.peers.iter().position(|p| *p == r.0));
        let mut max_epoch = my_epoch;
        let mut defer = false;
        self.link.last_contact = now;
        for (
            peer,
            StatusView {
                role, epoch, seq, ..
            },
        ) in replies
        {
            max_epoch = max_epoch.max(epoch);
            if role == "primary" && epoch >= my_epoch {
                self.primary = Some(peer);
                self.link.attempt = 0;
                return self.connect(now, out);
            }
            let candidate = role == "follower" || role == "promoting";
            if candidate && (seq > my_seq || (seq == my_seq && peer < self.cfg.self_addr)) {
                out.push(Output::Log(format!(
                    "replication: arbitration deferring to {peer} (peer seq {seq} epoch \
                     {epoch} vs ours seq {my_seq} epoch {my_epoch})"
                )));
                defer = true;
            }
        }
        if defer {
            // Wait a beat; the deferred-to peer either promotes (adopted
            // next round) or dies (no longer deferred to).
            self.link.retry_at = now + self.cfg.heartbeat;
            return;
        }
        self.promote(now, max_epoch, out);
    }

    /// New collision-free epoch, then replay of every unsettled record;
    /// the node serves as primary once the last replay settles.
    fn promote(&mut self, now: Duration, observed: u64, out: &mut Effects<'_>) {
        let epoch = promotion_epoch(
            observed.max(self.epoch),
            &self.cfg.peers,
            &self.cfg.self_addr,
        );
        out.storage.persist_epoch(EpochState {
            epoch,
            fenced: false,
        });
        self.epoch = epoch;
        self.former_primary = self.primary.take();
        self.role = Role::Promoting;
        self.next_probe = now;
        out.push(Output::Promoted(epoch));
        for (rid, line) in fold_records(&self.log).1 {
            self.inflight.insert(rid.clone());
            self.replaying.insert(rid.clone());
            out.push(Output::Execute {
                rid,
                line,
                reply_to: None,
            });
        }
        if self.replaying.is_empty() {
            self.role = Role::Primary;
        }
    }

    /// A higher epoch exists. The persisted fence precedes the role flip
    /// so a restart comes back fenced, not primary.
    fn fence(&mut self, by: u64, out: &mut Effects<'_>) {
        out.storage.persist_epoch(EpochState {
            epoch: by.max(self.epoch),
            fenced: true,
        });
        self.fenced_by = by;
        self.role = Role::Fenced;
        self.primary = None;
        self.arb = None;
        self.streams.clear();
    }

    /// The keyed-request gate: a settled key answers from the journal
    /// bit-identically with zero recompute; a key still executing is
    /// refused; a fresh key is journaled before it may execute, and a
    /// failed journal write is answered `IO-FAILURE`.
    fn on_admit(
        &mut self,
        now: Duration,
        from: String,
        id: String,
        rid: String,
        line: &str,
        out: &mut Effects<'_>,
    ) {
        let answer = if let Some(f) = self.refusal(false) {
            Some((WireResponse::err(id.clone(), f), false))
        } else if let Some((_, stored)) = self.settled.get(&rid).filter(|(k, _)| k.serves_retries())
        {
            let resp = match WireResponse::parse(stored) {
                // The result bytes are the journaled bytes; only the
                // correlation id echoes the retry's.
                Ok(resp) => WireResponse {
                    id: id.clone(),
                    ..resp
                },
                Err(e) => WireResponse::err(
                    id.clone(),
                    failure(
                        ErrorClass::Io,
                        "IO-FAILURE",
                        format!("journaled response for request_id `{rid}` is unreadable: {e}"),
                    ),
                ),
            };
            Some((resp, true))
        } else if !self.inflight.insert(rid.clone()) {
            let message =
                format!("request_id `{rid}` is already executing; await its outcome, then retry");
            let f = failure(ErrorClass::Resource, "RES-DUPLICATE-REQUEST", message);
            Some((WireResponse::err(id.clone(), f), false))
        } else {
            None
        };
        match answer {
            Some((resp, dedup)) => out.push(Output::Reply {
                to: from,
                resp,
                dedup,
            }),
            None => {
                let line = line.trim_end_matches('\n').to_string();
                let execute = Output::Execute {
                    rid: rid.clone(),
                    line: line.clone(),
                    reply_to: Some(from.clone()),
                };
                let rec = JournalRecord {
                    kind: RecordKind::Admit,
                    rid: rid.clone(),
                    line,
                };
                if let Err(e) = self.append(now, rec, Some(execute), out) {
                    self.inflight.remove(&rid);
                    let message = format!("write-ahead journal append failed: {e}");
                    out.push(Output::Reply {
                        to: from,
                        resp: WireResponse::err(id, failure(ErrorClass::Io, "IO-FAILURE", message)),
                        dedup: false,
                    });
                }
            }
        }
    }

    /// An execution finished. Only a serving node journals the outcome:
    /// a fenced journal never grows. A failed write settles nothing: the
    /// admit replays the request after a crash, the safe direction.
    fn on_settle(
        &mut self,
        now: Duration,
        rid: String,
        resp: &WireResponse,
        out: &mut Effects<'_>,
    ) {
        self.inflight.remove(&rid);
        let replayed = self.replaying.remove(&rid);
        if matches!(self.role, Role::Primary | Role::Promoting) {
            let rec = JournalRecord {
                kind: completion_kind(resp),
                rid,
                line: resp.render_line().trim_end().to_string(),
            };
            let _ = self.append(now, rec, None, out);
        }
        if replayed {
            self.promoted_replayed += 1;
            if self.replaying.is_empty() && self.role == Role::Promoting {
                self.role = Role::Primary;
            }
        }
    }

    /// Appends and fsyncs `rec` through the driver's storage. Once it is
    /// durable it joins the journal image and, unless it is an admit,
    /// the settled map; then `first` goes out and every follower stream
    /// is fed. A failed write changes nothing and returns its error.
    fn append(
        &mut self,
        now: Duration,
        rec: JournalRecord,
        first: Option<Output>,
        out: &mut Effects<'_>,
    ) -> Result<(), String> {
        out.storage.append(&rec)?;
        self.seq += 1;
        if rec.kind != RecordKind::Admit {
            self.settled
                .insert(rec.rid.clone(), (rec.kind, rec.line.clone()));
        }
        if self.cfg.source {
            self.log.push(rec);
        }
        out.outputs.extend(first);
        for i in 0..self.streams.len() {
            self.pump(i, now, out);
        }
        Ok(())
    }

    /// Peers other than this node, in configuration order.
    fn others(&self) -> Vec<String> {
        let me = &self.cfg.self_addr;
        self.cfg
            .peers
            .iter()
            .filter(|p| *p != me)
            .cloned()
            .collect()
    }

    fn guards(&self) -> bool {
        let me = &self.cfg.self_addr;
        self.former_primary.is_some() || self.cfg.peers.iter().any(|p| p != me)
    }

    fn hello(&mut self) -> ReplMsg {
        let have = self.log.len() as u64;
        ReplMsg::Hello {
            epoch: self.epoch,
            have,
            pcrc: self.pcrc(have).unwrap_or_default(),
            from: self.cfg.self_addr.clone(),
        }
    }

    /// [`crate::replicate::prefix_crc`] of the first `have` journal
    /// records, `None` past the journal's end. The kept chain is extended
    /// only as far as asked, one link per record it has not seen.
    fn pcrc(&mut self, have: u64) -> Option<u32> {
        let have = usize::try_from(have).ok()?;
        let chained = self.chain.len() - 1;
        let mut acc = self.chain[chained];
        for rec in self.log.get(chained..have).unwrap_or_default() {
            acc = chain_crc(acc, rec);
            self.chain.push(acc);
        }
        self.chain.get(have).copied()
    }

    fn to_primary(&self, msg: ReplMsg) -> Output {
        Output::Send(self.primary.clone().unwrap_or_default(), msg)
    }

    fn err(&self, to: String, code: &str) -> Output {
        Output::Send(
            to,
            ReplMsg::Err {
                code: code.to_string(),
                epoch: self.epoch,
            },
        )
    }
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

fn failure(class: ErrorClass, code: &str, message: impl Into<String>) -> WireFailure {
    WireFailure {
        class,
        code: code.to_string(),
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A journal and an epoch file in memory. While `fail` is set, every
    /// append fails with it and writes nothing.
    #[derive(Debug, Default)]
    struct Mem {
        journal: Vec<JournalRecord>,
        epochs: Vec<EpochState>,
        fail: Option<&'static str>,
    }

    impl Storage for Mem {
        fn append(&mut self, rec: &JournalRecord) -> Result<(), String> {
            match self.fail {
                Some(e) => Err(e.to_string()),
                None => {
                    self.journal.push(rec.clone());
                    Ok(())
                }
            }
        }

        fn persist_epoch(&mut self, state: EpochState) {
            self.epochs.push(state);
        }
    }

    /// A core over its own [`Mem`], stepped through it.
    struct Node {
        core: Core,
        disk: Mem,
    }

    impl Node {
        /// Boots from `records` and `state` the way a restart does.
        fn boot(cfg: CoreConfig, records: Vec<JournalRecord>, state: EpochState) -> Node {
            let mut disk = Mem {
                journal: records.clone(),
                ..Mem::default()
            };
            let folded = fold_records(&records);
            let (core, _) = Core::new(cfg, ms(0), records, folded, state, &mut disk);
            Node { core, disk }
        }

        fn step(&mut self, now: Duration, input: Input) -> Vec<Output> {
            self.core.step(now, input, &mut self.disk)
        }
    }

    impl std::ops::Deref for Node {
        type Target = Core;

        fn deref(&self) -> &Core {
            &self.core
        }
    }

    fn config(addr: &str, peers: &[&str], replica_of: Option<&str>) -> CoreConfig {
        CoreConfig {
            self_addr: addr.to_string(),
            peers: peers.iter().map(|p| p.to_string()).collect(),
            replica_of: replica_of.map(str::to_string),
            heartbeat: ms(50),
            grace: ms(300),
            peer_timeout: ms(100),
            nonce: 7,
            source: true,
        }
    }

    fn node(addr: &str, peers: &[&str], replica_of: Option<&str>, epoch: u64) -> Node {
        let state = EpochState {
            epoch,
            fenced: false,
        };
        Node::boot(config(addr, peers, replica_of), Vec::new(), state)
    }

    /// A follower of `p` whose link is up.
    fn linked(addr: &str, peers: &[&str], epoch: u64) -> Node {
        let mut core = node(addr, peers, Some("p"), epoch);
        let out = core.step(ms(0), Input::Timeout);
        assert!(
            matches!(&out[..], [Output::Connect(to, _)] if to == "p"),
            "{out:?}"
        );
        core
    }

    fn msg(from: &str, msg: ReplMsg) -> Input {
        Input::Msg(from.to_string(), msg)
    }

    fn status(role: &str, seq: u64) -> ReplMsg {
        ReplMsg::StatusReply(StatusView {
            role: role.to_string(),
            epoch: 1,
            seq,
            ..StatusView::default()
        })
    }

    fn promoted(out: &[Output]) -> bool {
        out.iter().any(|o| matches!(o, Output::Promoted(_)))
    }

    fn code(out: &[Output]) -> Option<&str> {
        out.iter().find_map(|o| match o {
            Output::Send(_, ReplMsg::Err { code, .. }) => Some(code.as_str()),
            _ => None,
        })
    }

    #[test]
    fn a_follower_answers_pings_and_a_fenced_node_refuses_them() {
        let follower = node("f", &[], Some("p"), 1);
        assert!(follower.refusal(true).is_none(), "followers answer pings");
        let compute = follower.refusal(false).expect("compute is refused");
        assert_eq!(compute.code, "RES-NOT-PRIMARY");
        assert!(
            compute.message.contains("the primary is p"),
            "{}",
            compute.message
        );
        let mut primary = node("p", &[], None, 1);
        assert!(primary.refusal(true).is_none() && primary.refusal(false).is_none());
        let hello = ReplMsg::Hello {
            epoch: 2,
            have: 0,
            pcrc: 0,
            from: "f".to_string(),
        };
        primary.step(ms(0), msg("f", hello));
        let ping = primary.refusal(true).expect("a fenced node refuses pings");
        assert_eq!(ping.code, "RES-STALE-EPOCH");
    }

    #[test]
    fn arbitration_asks_every_peer_at_once_and_decides_on_the_last_answer() {
        let mut core = linked("a", &["b", "c"], 1);
        // The primary stays silent past the grace: both peers are asked
        // in one step, nobody is waited on one at a time.
        let out = core.step(ms(400), Input::Timeout);
        let asked: Vec<&str> = out
            .iter()
            .filter_map(|o| match o {
                Output::Query(to, ReplMsg::Status) => Some(to.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(asked, ["b", "c"], "{out:?}");
        assert!(!promoted(
            &core.step(ms(410), msg("b", status("follower", 0)))
        ));
        assert!(
            core.step(ms(450), Input::Timeout).is_empty(),
            "c may still answer"
        );
        assert!(promoted(
            &core.step(ms(460), msg("c", status("follower", 0)))
        ));
        assert_eq!(core.role(), Role::Primary);
    }

    #[test]
    fn arbitration_decides_when_the_peer_timeout_passes() {
        let mut core = linked("a", &["b", "c"], 1);
        core.step(ms(400), Input::Timeout);
        core.step(ms(410), msg("b", status("follower", 0)));
        assert_eq!(core.poll_timeout(), Some(ms(500)), "the peer timeout");
        assert!(promoted(&core.step(ms(500), Input::Timeout)));
    }

    #[test]
    fn arbitration_defers_to_a_better_follower_but_never_to_a_diverged_one() {
        let mut core = linked("a", &["b"], 1);
        core.step(ms(400), Input::Timeout);
        let out = core.step(ms(410), msg("b", status("follower", 9)));
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Log(l) if l.contains("deferring to b"))));
        assert_eq!(core.role(), Role::Follower);
        // A diverged peer never promotes, so deferring to it would stall
        // failover forever.
        let mut core = linked("a", &["b"], 1);
        core.step(ms(400), Input::Timeout);
        assert!(promoted(
            &core.step(ms(410), msg("b", status("diverged", 9)))
        ));
    }

    #[test]
    fn a_heartbeat_ahead_of_the_journal_is_only_liveness() {
        let mut core = linked("f", &[], 1);
        let out = core.step(ms(200), msg("p", ReplMsg::Hb { epoch: 1, seq: 10 }));
        assert!(out.is_empty(), "no resync on a heartbeat's seq: {out:?}");
        assert_eq!(core.seq(), 0);
        assert!(
            core.poll_timeout() > Some(ms(500)),
            "the heartbeat refreshed the grace"
        );
    }

    #[test]
    fn a_lower_epoch_heartbeat_gets_no_reply_and_starts_arbitration() {
        let mut core = linked("f", &["x"], 3);
        let out = core.step(ms(10), msg("p", ReplMsg::Hb { epoch: 2, seq: 0 }));
        assert!(
            code(&out).is_none(),
            "the stale sender gets no reply: {out:?}"
        );
        assert!(
            matches!(&out[..], [Output::Close(to), Output::Query(q, _)] if to == "p" && q == "x")
        );
    }

    fn admit(rid: &str) -> Input {
        Input::Admit {
            from: "c".to_string(),
            id: rid.to_string(),
            rid: rid.to_string(),
            line: "{\"op\":\"sweep\"}".to_string(),
        }
    }

    fn settle(rid: &str) -> Input {
        Input::Settle {
            rid: rid.to_string(),
            resp: WireResponse::ok(rid, lintra_bench::json::Json::obj([])),
        }
    }

    #[test]
    fn nothing_acks_executes_streams_or_settles_before_its_fsync() {
        let mut primary = node("p", &[], None, 1);
        let hello = ReplMsg::Hello {
            epoch: 1,
            have: 0,
            pcrc: 0,
            from: "f".to_string(),
        };
        assert!(primary.step(ms(0), msg("f", hello)).is_empty());
        // A failed admit write is answered at once; nothing executes or
        // streams, and the key is free for a retry.
        primary.disk.fail = Some("disk full");
        let out = primary.step(ms(1), admit("k"));
        let [Output::Reply { resp, dedup, .. }] = &out[..] else {
            panic!("{out:?}");
        };
        let failed = resp.outcome.as_ref().expect_err("the write failed");
        assert_eq!((failed.code.as_str(), *dedup), ("IO-FAILURE", false));
        assert!(failed.message.contains("disk full"), "{}", failed.message);
        assert_eq!(primary.seq(), 0);
        primary.disk.fail = None;
        let out = primary.step(ms(2), admit("k"));
        assert_eq!(
            primary.disk.journal.len(),
            1,
            "journaled before it executes"
        );
        assert!(matches!(&out[0], Output::Execute { .. }), "{out:?}");
        assert!(matches!(
            &out[1],
            Output::Send(_, ReplMsg::Rec { seq: 1, .. })
        ));
        primary.disk.fail = Some("disk full");
        assert!(primary.step(ms(3), settle("k")).is_empty());
        assert!(
            primary.settled("k").is_none(),
            "a failed fsync settles nothing"
        );
        primary.disk.fail = None;
        primary.step(ms(4), admit("k2"));
        let out = primary.step(ms(5), settle("k2"));
        assert!(
            matches!(&out[..], [Output::Send(_, ReplMsg::Rec { seq: 3, .. })]),
            "{out:?}"
        );
        assert!(primary.settled("k2").is_some(), "settled once durable");

        let rec = |seq, crc| ReplMsg::Rec {
            epoch: 1,
            seq,
            crc,
            kind: RecordKind::Admit,
            rid: "k".to_string(),
            line: "{}".to_string(),
        };
        let crc = crc32(&payload_bytes(RecordKind::Admit, "k", "{}"));
        let mut follower = linked("f", &[], 1);
        follower.disk.fail = Some("disk full");
        let out = follower.step(ms(5), msg("p", rec(1, crc)));
        assert!(
            matches!(&out[..], [Output::Close(to)] if to == "p"),
            "no ack, and the link drops to resync: {out:?}"
        );
        assert_eq!(follower.seq(), 0);
        let mut follower = linked("f", &[], 1);
        let out = follower.step(ms(6), msg("p", rec(1, crc)));
        assert!(matches!(
            &out[..],
            [Output::Send(_, ReplMsg::Ack { seq: 1 })]
        ));
        assert_eq!(follower.disk.journal.len(), 1, "durable before the ack");
    }

    #[test]
    fn an_admit_executes_before_the_record_it_streams_goes_out() {
        let mut primary = node("p", &[], None, 1);
        let hello = ReplMsg::Hello {
            epoch: 1,
            have: 0,
            pcrc: 0,
            from: "f".to_string(),
        };
        assert!(primary.step(ms(0), msg("f", hello)).is_empty());
        let out = primary.step(ms(1), admit("k"));
        assert!(
            matches!(
                &out[..],
                [
                    Output::Execute { rid, .. },
                    Output::Send(to, ReplMsg::Rec { seq: 1, rid: streamed, .. }),
                ] if rid == "k" && to == "f" && streamed == "k"
            ),
            "{out:?}"
        );
    }

    #[test]
    fn a_followers_ack_goes_out_before_anything_its_append_streams() {
        // A follower refuses hellos, so it never streams to a peer; the
        // stream planted here pins `append`'s order for every caller: the
        // step's own follow-up first, then the streams.
        let mut follower = linked("f", &[], 1);
        follower.core.streams.push(Stream {
            peer: "g".to_string(),
            next: 1,
            acked: 0,
            last_sent: ms(0),
        });
        let rec = ReplMsg::Rec {
            epoch: 1,
            seq: 1,
            crc: crc32(&payload_bytes(RecordKind::Admit, "k", "{}")),
            kind: RecordKind::Admit,
            rid: "k".to_string(),
            line: "{}".to_string(),
        };
        let out = follower.step(ms(1), msg("p", rec));
        assert!(
            matches!(
                &out[..],
                [
                    Output::Send(to, ReplMsg::Ack { seq: 1 }),
                    Output::Send(peer, ReplMsg::Rec { seq: 1, .. }),
                ] if to == "p" && peer == "g"
            ),
            "{out:?}"
        );
    }

    #[test]
    fn a_slow_follower_holds_at_most_a_window_of_records_in_flight() {
        let records: Vec<JournalRecord> = (0..WINDOW + 44)
            .map(|i| JournalRecord {
                kind: RecordKind::Abort,
                rid: format!("k{i}"),
                line: "{}".to_string(),
            })
            .collect();
        let state = EpochState {
            epoch: 1,
            fenced: false,
        };
        let mut primary = Node::boot(config("p", &[], None), records, state);
        let hello = ReplMsg::Hello {
            epoch: 1,
            have: 0,
            pcrc: 0,
            from: "f".to_string(),
        };
        let sent = |out: &[Output]| {
            out.iter()
                .filter(|o| matches!(o, Output::Send(_, ReplMsg::Rec { .. })))
                .count() as u64
        };
        assert_eq!(sent(&primary.step(ms(0), msg("f", hello))), WINDOW);
        // No ack, no more records — and no heartbeats piling up either.
        assert_eq!(primary.poll_timeout(), None);
        assert!(primary.step(ms(500), Input::Timeout).is_empty());
        let out = primary.step(ms(501), msg("f", ReplMsg::Ack { seq: 10 }));
        assert_eq!(sent(&out), 10, "each ack opens the window by what it acked");
    }

    #[test]
    fn hellos_and_prefix_checks_match_prefix_crc_at_every_prefix_length() {
        use crate::replicate::prefix_crc;

        let state = EpochState {
            epoch: 1,
            fenced: false,
        };
        let boot: Vec<JournalRecord> = (0..3)
            .map(|i| JournalRecord {
                kind: RecordKind::Admit,
                rid: format!("b{i}"),
                line: format!("{{\"n\":{i}}}"),
            })
            .collect();
        let mut primary = Node::boot(config("p", &[], None), boot, state);
        for input in [admit("k1"), admit("k2"), settle("k1"), settle("k2")] {
            primary.step(ms(1), input);
        }
        let all = primary.disk.journal.clone();
        assert_eq!(all.len(), 7);
        assert_eq!(primary.chain.len(), 1, "nothing is chained before a hello");
        // Out of order, so later checks read back links earlier ones kept.
        for have in [4, 0, 7, 2, 6, 1, 5, 3] {
            let hello = |pcrc| ReplMsg::Hello {
                epoch: 1,
                have,
                pcrc,
                from: "f".to_string(),
            };
            let pcrc = prefix_crc(&all[..have as usize]);
            let out = primary.step(ms(2), msg("x", hello(pcrc ^ 1)));
            assert_eq!(code(&out), Some("IO-REPL-CORRUPT"), "have {have}");
            let follower = format!("f{have}");
            primary.step(ms(2), msg(&follower, hello(pcrc)));
            assert!(primary.streams_to(&follower), "have {have}");
        }
        assert_eq!(primary.chain.len(), all.len() + 1);
        let past = ReplMsg::Hello {
            epoch: 1,
            have: 8,
            pcrc: prefix_crc(&all),
            from: "g".to_string(),
        };
        let out = primary.step(ms(3), msg("g", past));
        assert_eq!(code(&out), Some("IO-REPL-CORRUPT"), "past the journal");

        // A follower booted at every length, redialling after each record
        // it appends: every hello covers its whole journal.
        for booted in 0..=all.len() {
            let cfg = config("f", &[], Some("p"));
            let mut follower = Node::boot(cfg, all[..booted].to_vec(), state);
            let mut now = ms(0);
            let mut out = follower.step(now, Input::Timeout);
            for len in booted..=all.len() {
                let want = (len as u64, prefix_crc(&all[..len]));
                assert!(
                    matches!(&out[..], [Output::Connect(_, ReplMsg::Hello { have, pcrc, .. })]
                        if (*have, *pcrc) == want),
                    "booted with {booted}, journal {len}: {out:?}"
                );
                let Some(r) = all.get(len) else { break };
                let rec = ReplMsg::Rec {
                    epoch: 1,
                    seq: len as u64 + 1,
                    crc: crc32(&payload_bytes(r.kind, &r.rid, &r.line)),
                    kind: r.kind,
                    rid: r.rid.clone(),
                    line: r.line.clone(),
                };
                follower.step(now, msg("p", rec));
                follower.step(now, Input::Closed("p".to_string()));
                now = follower.poll_timeout().expect("a redial is due");
                out = follower.step(now, Input::Timeout);
            }
        }
    }

    #[test]
    fn a_rejoin_clears_a_persisted_fence_through_storage() {
        let fenced = EpochState {
            epoch: 3,
            fenced: true,
        };
        let rejoin = Node::boot(config("f", &[], Some("p")), Vec::new(), fenced);
        assert_eq!(rejoin.role(), Role::Follower);
        let cleared = EpochState {
            epoch: 3,
            fenced: false,
        };
        assert_eq!(rejoin.disk.epochs, [cleared]);
        let standalone = Node::boot(config("f", &[], None), Vec::new(), fenced);
        assert_eq!(standalone.fenced_by(), Some(3));
        assert!(standalone.disk.epochs.is_empty(), "it stays fenced");
    }

    #[test]
    fn a_fence_is_persisted_before_the_refusal_and_a_rotating_journal_refuses_hellos() {
        let mut core = node("p", &[], None, 1);
        let hello = |epoch| ReplMsg::Hello {
            epoch,
            have: 0,
            pcrc: 0,
            from: "f".to_string(),
        };
        let out = core.step(ms(0), msg("f", hello(4)));
        let fence = EpochState {
            epoch: 4,
            fenced: true,
        };
        assert_eq!(core.disk.epochs, [fence], "persisted within the step");
        assert_eq!(code(&out), Some("RES-STALE-EPOCH"));
        assert_eq!(core.fenced_by(), Some(4));
        // A request that finishes after the fence is not journaled: a
        // fenced journal never grows.
        let resp = WireResponse::ok("k", lintra_bench::json::Json::obj([]));
        let settle = Input::Settle {
            rid: "k".to_string(),
            resp,
        };
        assert!(core.step(ms(1), settle).is_empty());

        let cfg = CoreConfig {
            source: false,
            ..core.cfg.clone()
        };
        let state = EpochState {
            epoch: 1,
            fenced: false,
        };
        let mut rotating = Node::boot(cfg, Vec::new(), state);
        let out = rotating.step(ms(0), msg("f", hello(1)));
        assert_eq!(code(&out), Some("IO-REPL-CORRUPT"));
        assert!(!rotating.streams_to("f"));
    }
}
