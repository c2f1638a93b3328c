//! Primary→follower WAL shipping, failover, and epoch fencing.
//!
//! A durable server ([`crate::ServerConfig::journal_dir`]) can replicate:
//! the **primary** streams its write-ahead journal records — the same
//! `[u32 len][u32 crc32][JSON]` records `journal.log` holds, framed for
//! transport with a monotonically increasing *epoch* and *sequence
//! number* — to any follower that dials in. A **follower** (started with
//! [`crate::ServerConfig::replica_of`]) connects to its primary, appends
//! each shipped record to its own journal, **CRC-verifies and fsyncs it
//! before acking**, keeps its dedup map current from the acked records,
//! and answers read-only `recover`-style status queries — while
//! rejecting compute requests with `RES-NOT-PRIMARY`. It computes
//! nothing until it promotes, so its sweep caches start cold then.
//!
//! Every decision below is made by the sans-IO core in
//! [`crate::protocol`]; this module holds the wire codec, the epoch
//! file, and the thin threaded driver, which steps the core with the
//! journal and epoch file as its [`Storage`] and carries the core's
//! outputs out over sockets and the engine.
//!
//! # Transport
//!
//! Replication rides the server's ordinary newline-delimited-JSON TCP
//! listener. A line whose top-level object carries a `"repl"` member is
//! a replication message ([`ReplMsg`]); everything else is a normal wire
//! request. The follower dials the primary and sends
//! `{"repl":"hello","epoch":E,"have":S}`; the primary answers with a
//! stream of `rec` messages from sequence `S+1` (sequence numbers are
//! 1-based journal record indices), interleaving `hb` heartbeats while
//! idle, and reads `ack` messages back on the same socket.
//!
//! Each `rec` carries the CRC32 of the record's canonical payload bytes
//! ([`crate::journal::payload_bytes`]). The follower re-encodes and
//! re-checksums before appending, so an acked follower journal is
//! **byte-identical** to the primary's — a checksum mismatch is
//! `IO-REPL-CORRUPT`: the record is refused and the link torn down to
//! resync from the acked prefix.
//!
//! # Epochs and fencing
//!
//! Every replicated deployment lives in an *epoch* (term), persisted in
//! a small atomically-replaced `epoch` file. All replication messages
//! carry the sender's epoch, and **lower epochs are always refused**:
//!
//! * a follower that observes records from a lower epoch than its own
//!   refuses them (`RES-STALE-EPOCH`) and treats the sender as deposed;
//! * a primary that receives a `hello` carrying a higher epoch knows it
//!   was deposed while away: it **fences itself** — every subsequent
//!   request, pings included, is answered `RES-STALE-EPOCH`;
//! * a server started with [`crate::ServerConfig::peers`] also polls
//!   peer status and self-fences the moment any peer reports a higher
//!   epoch — or a *primary at the same epoch* with a
//!   lexicographically smaller address (the equal-epoch tiebreak; it
//!   can only arise through operator error, because promotion epochs
//!   are collision-free, see below) — so a revived stale primary is
//!   fenced even before the new primary dials it.
//!
//! Fencing is **durable**: the core persists the superseding epoch together with a `fenced` marker, so a fenced
//! server that restarts (without `--replica-of`) comes back fenced
//! instead of re-opening for writes at its stale epoch. An epoch file
//! that exists but does not parse is a **startup error** — silently
//! resetting to epoch 1 could un-fence a deposed primary.
//!
//! # Failure detection and promotion
//!
//! The follower expects a record or heartbeat within
//! [`crate::ServerConfig::failover_grace`]; reconnects use the client's
//! jittered exponential backoff ([`crate::RetryPolicy::backoff`]). When
//! the grace expires, the follower arbitrates: it queries every peer's
//! `(role, epoch, seq)` at once (skipping any peer whose status nonce
//! proves it is this very server under an alias), decides once all
//! have answered or the peer timeout passed, and
//!
//! * **adopts** a peer that already promoted (follows it instead),
//! * **defers** to any live follower with more acked records (or, on a
//!   tie, the lexicographically smaller address) — so the
//!   *highest-acked* follower wins and a double promotion resolves
//!   deterministically; each deferral is logged, and a follower parked
//!   diverged (it will never promote) is never deferred to,
//! * otherwise **promotes**: bumps the epoch past every epoch it has
//!   observed — to the next epoch *congruent to this node's slot* in
//!   the sorted cluster membership (`peers` ∪ self), so two nodes can
//!   never promote to the **same** epoch — persists it, replays
//!   admitted-but-unsettled journal records, and only then serves as
//!   primary. Retried `request_id`s settled before the failover are
//!   answered from the replicated journal byte-identically, with zero
//!   recompute.
//!
//! Arbitration is quorum-less: an unreachable peer never blocks
//! failover, which is what lets a two-node pair fail over at all. The
//! price is that during a *full partition* both sides of a pair may
//! serve an epoch each (never the same epoch). The duel resolves
//! deterministically the moment connectivity heals — the strictly
//! lower epoch fences — and writes accepted by the losing side are
//! never silently merged: its journal has diverged, which the resync
//! handshake detects (below) and refuses with `IO-REPL-CORRUPT`.
//!
//! # Divergence detection
//!
//! The resync protocol only works when the follower's journal is a
//! strict prefix of the primary's. That is not a matter of trust: the
//! `hello` carries a chained **prefix checksum** over the follower's
//! whole journal, and the primary verifies it against the same prefix
//! of its own log, read from the chain its core keeps (and checks that
//! `have` does not exceed its own sequence), before streaming a single
//! record. A mismatch — e.g. a deposed primary with an unreplicated
//! acked suffix restarted with `--replica-of` the new primary — is
//! refused with `IO-REPL-CORRUPT`; the refused follower marks itself
//! *diverged*, stops resyncing, and will never promote. The operator
//! wipes its journal directory and re-seeds it from the live primary.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use lintra::engine::{crc32, crc32_update};
use lintra_bench::json::Json;

use crate::clock::{Clock, SystemClock};
use crate::journal::{payload_bytes, Journal, JournalRecord, RecordKind};
use crate::protocol::{Core, Input, Output, Storage};
use crate::server::{lock_unpoisoned, replay_response, Shared};
use crate::signal;
use crate::transport::{read_line, round_trip, Conn, NetError, TcpTransport, Transport, POLL};

/// File name of the persisted epoch inside the epoch directory.
pub const EPOCH_FILE: &str = "epoch";

/// Connect/read budget for one-shot peer queries (status, fence hello).
pub(crate) const PEER_TIMEOUT: Duration = Duration::from_millis(250);

/// Connect budget for the follower link.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// What a replicated server currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, streams its journal to followers.
    Primary,
    /// Replicates from a primary; answers pings and status queries,
    /// rejects compute with `RES-NOT-PRIMARY`.
    Follower,
    /// Mid-promotion: replaying unsettled records before taking writes.
    Promoting,
    /// Deposed: a higher epoch exists; every request is refused with
    /// `RES-STALE-EPOCH`.
    Fenced,
}

impl Role {
    /// Stable lowercase label (wire + logs).
    pub fn label(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Promoting => "promoting",
            Role::Fenced => "fenced",
        }
    }
}

/// Deterministic replication-fault knobs, for chaos tests only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplChaos {
    /// Primary side: tear the follower link down once, right after this
    /// many records were streamed on one connection
    /// (`Fault::ReplLinkDrop`). The follower must resync from its acked
    /// prefix on reconnect.
    pub drop_link_after: Option<u64>,
    /// Follower side: stall for the given duration before acking the
    /// record at the given sequence number (`Fault::LaggingFollower`).
    /// The primary must keep serving at full speed meanwhile.
    pub lag: Option<(u64, Duration)>,
}

// --- epoch persistence ----------------------------------------------------

/// The persisted epoch file content: the term, plus whether this server
/// was fenced in it (`<epoch>\n` or `<epoch> fenced\n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochState {
    /// The epoch (term), at least 1.
    pub epoch: u64,
    /// True when this server was fenced: a restart must come back
    /// fenced, not primary.
    pub fenced: bool,
}

/// Loads the persisted epoch state. A missing file is a fresh
/// deployment (epoch 1, not fenced).
///
/// # Errors
///
/// An epoch file that exists but cannot be read **or parsed** is an
/// error, never a silent reset to epoch 1: a reset could revive a
/// fenced or deposed primary at a stale term and lose acked writes.
pub fn load_epoch_state(path: &Path) -> Result<EpochState, std::io::Error> {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return Ok(EpochState {
                epoch: 1,
                fenced: false,
            })
        }
        Err(e) => return Err(e),
    };
    let mut tokens = raw.split_whitespace();
    let epoch = tokens
        .next()
        .and_then(|t| t.parse::<u64>().ok())
        .filter(|&e| e >= 1);
    let fenced = match tokens.next() {
        None => Some(false),
        Some("fenced") => Some(true),
        Some(_) => None,
    };
    match (epoch, fenced, tokens.next()) {
        (Some(epoch), Some(fenced), None) => Ok(EpochState { epoch, fenced }),
        _ => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "epoch file {} is unparseable ({raw:?}); refusing to guess — \
                 restore it or remove it to restart the deployment at epoch 1",
                path.display()
            ),
        )),
    }
}

/// Atomically persists the epoch state (write temp sibling, fsync,
/// rename).
///
/// # Errors
///
/// Propagates the underlying filesystem failure.
pub fn store_epoch_state(path: &Path, state: EpochState) -> Result<(), std::io::Error> {
    let tmp = path.with_extension("tmp");
    let marker = if state.fenced { " fenced" } else { "" };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("{}{marker}\n", state.epoch).as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Atomically persists an un-fenced epoch.
///
/// # Errors
///
/// Propagates the underlying filesystem failure.
pub fn store_epoch(path: &Path, epoch: u64) -> Result<(), std::io::Error> {
    store_epoch_state(
        path,
        EpochState {
            epoch,
            fenced: false,
        },
    )
}

// --- wire messages --------------------------------------------------------

/// One replication message (a JSON line with a `"repl"` discriminator).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Follower → primary: start streaming after `have`.
    Hello {
        /// Sender's epoch.
        epoch: u64,
        /// Records the follower already holds.
        have: u64,
        /// Chained prefix checksum ([`prefix_crc`]) over all `have`
        /// records, so the primary can prove the follower's journal is
        /// a strict prefix of its own before streaming (a mismatch is
        /// divergence: `IO-REPL-CORRUPT`, not resyncable).
        pcrc: u32,
        /// Follower's own listen address (ack bookkeeping).
        from: String,
    },
    /// Primary → follower: one journal record.
    Rec {
        /// Sender's epoch.
        epoch: u64,
        /// 1-based journal position of this record.
        seq: u64,
        /// CRC32 of the record's canonical payload bytes.
        crc: u32,
        /// Record kind.
        kind: RecordKind,
        /// Idempotency key.
        rid: String,
        /// Journaled wire line.
        line: String,
    },
    /// Primary → follower: liveness while idle.
    Hb {
        /// Sender's epoch.
        epoch: u64,
        /// Sender's current sequence number.
        seq: u64,
    },
    /// Follower → primary: records up to `seq` are fsync'd.
    Ack {
        /// Highest durable sequence.
        seq: u64,
    },
    /// Either direction: refusal with a diagnostic code
    /// (`RES-STALE-EPOCH`, `RES-NOT-PRIMARY`, `IO-REPL-CORRUPT`).
    Err {
        /// Diagnostic code.
        code: String,
        /// Sender's epoch.
        epoch: u64,
    },
    /// Read-only status query (any peer).
    Status,
    /// Answer to [`ReplMsg::Status`].
    StatusReply(StatusView),
}

fn num(doc: &Json, key: &str) -> Option<u64> {
    let v = doc.get(key).and_then(Json::as_num)?;
    (v.is_finite() && v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
}

fn text(doc: &Json, key: &str) -> Option<String> {
    doc.get(key).and_then(Json::as_str).map(str::to_string)
}

impl ReplMsg {
    /// Parses a wire line as a replication message. `None` when the line
    /// is not a replication message at all (no `"repl"` member);
    /// `Some(Err)`-like malformed replication frames also return `None`
    /// — the caller treats them as protocol violations and drops the
    /// link.
    pub fn parse(line: &str) -> Option<ReplMsg> {
        let doc = Json::parse(line).ok()?;
        let tag = doc.get("repl").and_then(Json::as_str)?.to_string();
        match tag.as_str() {
            "hello" => Some(ReplMsg::Hello {
                epoch: num(&doc, "epoch")?,
                have: num(&doc, "have")?,
                pcrc: u32::try_from(num(&doc, "pcrc")?).ok()?,
                from: text(&doc, "from").unwrap_or_default(),
            }),
            "rec" => Some(ReplMsg::Rec {
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
                crc: u32::try_from(num(&doc, "crc")?).ok()?,
                kind: RecordKind::from_tag(&text(&doc, "t")?)?,
                rid: text(&doc, "rid")?,
                line: text(&doc, "line")?,
            }),
            "hb" => Some(ReplMsg::Hb {
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
            }),
            "ack" => Some(ReplMsg::Ack {
                seq: num(&doc, "seq")?,
            }),
            "err" => Some(ReplMsg::Err {
                code: text(&doc, "code")?,
                epoch: num(&doc, "epoch")?,
            }),
            "status" => Some(ReplMsg::Status),
            "status-reply" => Some(ReplMsg::StatusReply(StatusView {
                role: text(&doc, "role")?,
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
                answered: num(&doc, "answered")?,
                nonce: num(&doc, "nonce")?,
                primary: text(&doc, "primary"),
            })),
            _ => None,
        }
    }

    /// Renders the message as one newline-terminated wire line.
    pub fn render_line(&self) -> String {
        let obj = match self {
            ReplMsg::Hello {
                epoch,
                have,
                pcrc,
                from,
            } => Json::obj([
                ("repl", Json::Str("hello".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("have", Json::Num(*have as f64)),
                ("pcrc", Json::Num(f64::from(*pcrc))),
                ("from", Json::Str(from.clone())),
            ]),
            ReplMsg::Rec {
                epoch,
                seq,
                crc,
                kind,
                rid,
                line,
            } => Json::obj([
                ("repl", Json::Str("rec".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("seq", Json::Num(*seq as f64)),
                ("crc", Json::Num(f64::from(*crc))),
                ("t", Json::Str(kind.tag().to_string())),
                ("rid", Json::Str(rid.clone())),
                ("line", Json::Str(line.clone())),
            ]),
            ReplMsg::Hb { epoch, seq } => Json::obj([
                ("repl", Json::Str("hb".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("seq", Json::Num(*seq as f64)),
            ]),
            ReplMsg::Ack { seq } => Json::obj([
                ("repl", Json::Str("ack".to_string())),
                ("seq", Json::Num(*seq as f64)),
            ]),
            ReplMsg::Err { code, epoch } => Json::obj([
                ("repl", Json::Str("err".to_string())),
                ("code", Json::Str(code.clone())),
                ("epoch", Json::Num(*epoch as f64)),
            ]),
            ReplMsg::Status => Json::obj([("repl", Json::Str("status".to_string()))]),
            ReplMsg::StatusReply(st) => {
                let mut members = vec![
                    ("repl", Json::Str("status-reply".to_string())),
                    ("role", Json::Str(st.role.clone())),
                    ("epoch", Json::Num(st.epoch as f64)),
                    ("seq", Json::Num(st.seq as f64)),
                    ("answered", Json::Num(st.answered as f64)),
                    ("nonce", Json::Num(st.nonce as f64)),
                ];
                if let Some(p) = &st.primary {
                    members.push(("primary", Json::Str(p.clone())));
                }
                Json::obj(members)
            }
        };
        let mut line = obj.render_compact();
        line.push('\n');
        line
    }
}

/// A server's answer to a status query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusView {
    /// Role label ([`Role::label`], `diverged` for a parked follower,
    /// `stateless` or `router` for servers that do not replicate).
    pub role: String,
    /// Current epoch.
    pub epoch: u64,
    /// Current sequence number (durable records).
    pub seq: u64,
    /// Settled keys servable to retries.
    pub answered: u64,
    /// The answering process's identity nonce: a querier whose own nonce
    /// matches is talking to itself through an address alias.
    pub nonce: u64,
    /// The primary the peer replicates from, if it is a follower.
    pub primary: Option<String>,
}

/// Chained CRC32 over a run of journal records: each record's canonical
/// payload bytes ([`payload_bytes`]) are checksummed together with the
/// accumulator so far, so two journals share a prefix checksum iff they
/// share the prefix byte-for-byte. The empty prefix is 0.
pub fn prefix_crc(records: &[JournalRecord]) -> u32 {
    records.iter().fold(0, chain_crc)
}

/// One link of [`prefix_crc`]'s chain: the checksum of a prefix whose
/// checksum is `acc`, extended by `rec`.
pub(crate) fn chain_crc(acc: u32, rec: &JournalRecord) -> u32 {
    let head = crc32(&acc.to_le_bytes());
    crc32_update(head, &payload_bytes(rec.kind, &rec.rid, &rec.line))
}

// --- socket plumbing ------------------------------------------------------

/// The status query line health probers send to any server.
pub fn status_query() -> String {
    ReplMsg::Status.render_line()
}

/// One-shot status query against any server over TCP. `None` when the
/// peer is unreachable or answers garbage.
pub fn query_status(addr: &str, timeout: Duration) -> Option<StatusView> {
    match exchange(&SystemClock::new(), addr, &ReplMsg::Status, timeout)? {
        ReplMsg::StatusReply(st) => Some(st),
        _ => None,
    }
}

/// One replication message and its reply over a fresh connection, each
/// step within `timeout`.
pub(crate) fn exchange(
    clock: &dyn Clock,
    addr: &str,
    msg: &ReplMsg,
    timeout: Duration,
) -> Option<ReplMsg> {
    let line = msg.render_line();
    let reply = round_trip(&TcpTransport, clock, addr, &line, timeout, timeout).ok()?;
    ReplMsg::parse(&reply)
}

// --- the threaded driver --------------------------------------------------

/// Everything the protocol core decides with, plus the journal and epoch
/// file it writes and the outboxes of the follower streams it feeds.
pub(crate) struct Node {
    pub(crate) core: Core,
    disk: Disk,
    /// Messages for each open follower stream, drained by the stream's
    /// connection thread; the core's window bounds each one.
    outbox: HashMap<String, Vec<ReplMsg>>,
}

/// A durable server's [`Storage`]: its journal and its epoch file.
pub(crate) struct Disk {
    pub(crate) journal: Journal,
    pub(crate) epoch_path: PathBuf,
}

impl Storage for Disk {
    fn append(&mut self, rec: &JournalRecord) -> Result<(), String> {
        self.journal
            .append(rec.kind, &rec.rid, &rec.line)
            .map_err(|e| e.to_string())
    }

    fn persist_epoch(&mut self, state: EpochState) {
        // Best effort: an unpersistable epoch costs a deferral after the
        // next restart, never a split brain (every message carries it).
        let _ = store_epoch_state(&self.epoch_path, state);
    }
}

/// The replication half of a durable server: the core behind one lock,
/// stepped by every thread that has news for it.
pub(crate) struct Repl {
    node: Mutex<Node>,
    /// Signalled when an outbox grows.
    wake: Condvar,
    /// True when a replication thread ([`repl_loop`]) owns the core's
    /// timers; otherwise the follower streams answer them.
    timer_thread: bool,
    streams: AtomicU64,
    chaos_dropped: AtomicBool,
}

impl Repl {
    /// `core` was booted from `disk` ([`Core::new`]).
    pub(crate) fn new(core: Core, disk: Disk, timer_thread: bool) -> Repl {
        Repl {
            node: Mutex::new(Node {
                core,
                disk,
                outbox: HashMap::new(),
            }),
            wake: Condvar::new(),
            timer_thread,
            streams: AtomicU64::new(0),
            chaos_dropped: AtomicBool::new(false),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Node> {
        lock_unpoisoned(&self.node)
    }

    /// Steps the core with its appends and epoch writes done under the
    /// lock, so no thread observes a role or record before it is
    /// durable. Sends to open follower streams go to their outboxes;
    /// every other output is returned to the caller.
    pub(crate) fn drive(&self, now: Duration, input: Input) -> Vec<Output> {
        let mut node = self.lock();
        let Node { core, disk, outbox } = &mut *node;
        let mut rest = Vec::new();
        let mut woke = false;
        for out in core.step(now, input, disk) {
            match out {
                Output::Send(to, msg) => match outbox.get_mut(&to) {
                    Some(queue) => {
                        queue.push(msg);
                        woke = true;
                    }
                    None => rest.push(Output::Send(to, msg)),
                },
                out => rest.push(out),
            }
        }
        if woke {
            self.wake.notify_all();
        }
        rest
    }

    pub(crate) fn notify(&self) {
        self.wake.notify_all();
    }
}

/// Serves one follower stream on the connection that sent `hello`:
/// writes what the core queues for it and feeds the acks back, until
/// the link drops, the follower overruns [`crate::MAX_FRAME_BYTES`]
/// without a newline, the core ends the stream, or the server drains.
pub(crate) fn serve_stream(shared: &Shared, repl: &Repl, conn: &mut dyn Conn, hello: ReplMsg) {
    let clock = &shared.clock;
    let ReplMsg::Hello { from, .. } = &hello else {
        return;
    };
    let key = format!("{from}#{}", repl.streams.fetch_add(1, Ordering::SeqCst));
    repl.lock().outbox.insert(key.clone(), Vec::new());
    repl.drive(clock.now(), Input::Msg(key.clone(), hello));
    let drop_after = shared.config.repl_chaos.and_then(|c| c.drop_link_after);
    let idle = shared.config.heartbeat.min(Duration::from_millis(100));
    let (mut sent, mut buf) = (0u64, Vec::new());
    'stream: loop {
        let (batch, live) = {
            let mut node = repl.lock();
            if node.outbox.get(&key).is_some_and(Vec::is_empty) && node.core.streams_to(&key) {
                let wait = match node.core.poll_timeout() {
                    Some(at) if !repl.timer_thread => at.saturating_sub(clock.now()).min(idle),
                    _ => idle,
                };
                node = repl
                    .wake
                    .wait_timeout(node, wait)
                    .map_or_else(|e| e.into_inner().0, |(guard, _)| guard);
            }
            let batch = node.outbox.get_mut(&key).map(std::mem::take);
            (batch.unwrap_or_default(), node.core.streams_to(&key))
        };
        for msg in batch {
            if matches!(msg, ReplMsg::Rec { .. }) {
                if drop_after.is_some_and(|n| sent >= n)
                    && !repl.chaos_dropped.swap(true, Ordering::SeqCst)
                {
                    break 'stream; // injected ReplLinkDrop, once
                }
                sent += 1;
            }
            if conn.send(msg.render_line().as_bytes()).is_err() {
                break 'stream;
            }
        }
        if !live || shared.draining.load(Ordering::SeqCst) {
            break;
        }
        // Wait a moment for the first ack, then take every buffered one.
        let mut wait = Duration::from_millis(1);
        loop {
            match read_line(conn, &mut buf, wait, wait, clock) {
                Ok(Some(line)) => {
                    if let Some(msg @ ReplMsg::Ack { .. }) = ReplMsg::parse(&line) {
                        repl.drive(clock.now(), Input::Msg(key.clone(), msg));
                    }
                    wait = Duration::ZERO;
                }
                Err(NetError::Timeout) => break,
                Ok(None) | Err(_) => break 'stream,
            }
        }
        let due = repl
            .lock()
            .core
            .poll_timeout()
            .is_some_and(|at| clock.now() >= at);
        if due && !repl.timer_thread {
            repl.drive(clock.now(), Input::Timeout);
        }
    }
    repl.lock().outbox.remove(&key);
    repl.drive(clock.now(), Input::Closed(key));
}

/// The replication thread of a follower, or of a primary with peers: it
/// owns the core's timers, the follower link and every one-shot peer
/// exchange, and runs promotion replays.
pub(crate) fn repl_loop(shared: &Arc<Shared>) {
    let Some(repl) = &shared.repl else { return };
    let clock = &shared.clock;
    let lag = shared.config.repl_chaos.and_then(|c| c.lag);
    let mut link: Option<(String, Box<dyn Conn>)> = None;
    let mut buf = Vec::new();
    let mut todo: VecDeque<Output> = VecDeque::new();
    while !shared.draining.load(Ordering::SeqCst) {
        let next = repl.lock().core.poll_timeout();
        let wait = next.map_or(POLL, |at| at.saturating_sub(clock.now()).min(POLL));
        let input = match &mut link {
            Some((peer, conn)) => {
                match read_line(
                    conn.as_mut(),
                    &mut buf,
                    wait.max(Duration::from_millis(1)),
                    POLL,
                    clock,
                ) {
                    Err(NetError::Timeout) => None,
                    Ok(Some(line)) => match ReplMsg::parse(&line) {
                        Some(msg) => Some(Input::Msg(peer.clone(), msg)),
                        None => Some(Input::Closed(peer.clone())),
                    },
                    _ => Some(Input::Closed(peer.clone())),
                }
            }
            None => {
                clock.sleep(wait);
                None
            }
        };
        if let Some(input) = input {
            if matches!(input, Input::Closed(_)) {
                link = None;
            }
            todo.extend(repl.drive(clock.now(), input));
        }
        if next.is_some_and(|at| clock.now() >= at) {
            todo.extend(repl.drive(clock.now(), Input::Timeout));
        }
        while let Some(out) = todo.pop_front() {
            let input = match out {
                Output::Connect(to, msg) => {
                    buf.clear();
                    link = TcpTransport
                        .connect(&to, CONNECT_TIMEOUT)
                        .ok()
                        .and_then(|mut conn| {
                            conn.send(msg.render_line().as_bytes())
                                .ok()
                                .map(|()| (to.clone(), conn))
                        });
                    link.is_none().then_some(Input::Closed(to))
                }
                Output::Send(to, msg) => match &mut link {
                    Some((peer, conn)) if *peer == to => {
                        if let (ReplMsg::Ack { seq }, Some((lag_seq, delay))) = (&msg, lag) {
                            if *seq == lag_seq {
                                clock.sleep(delay); // injected LaggingFollower
                            }
                        }
                        conn.send(msg.render_line().as_bytes()).is_err().then(|| {
                            link = None;
                            Input::Closed(to)
                        })
                    }
                    _ => None,
                },
                Output::Close(to) => {
                    if link.as_ref().is_some_and(|(peer, _)| *peer == to) {
                        link = None;
                    }
                    None
                }
                Output::Query(to, msg) => Some(match exchange(clock, &to, &msg, PEER_TIMEOUT) {
                    Some(msg) => Input::Msg(to, msg),
                    None => Input::Closed(to),
                }),
                Output::Execute { rid, line, .. } if !signal::shutdown_requested() => {
                    let resp = replay_response(shared, &line);
                    shared.stats.replayed.fetch_add(1, Ordering::SeqCst);
                    Some(Input::Settle { rid, resp })
                }
                Output::Log(line) => {
                    eprintln!("{line}");
                    None
                }
                _ => None,
            };
            if let Some(input) = input {
                todo.extend(repl.drive(clock.now(), input));
            }
        }
    }
}

// --- promotion epochs ----------------------------------------------------

/// The epoch a node at `self_addr` promotes to after observing
/// `observed` as the highest epoch anywhere: the next epoch congruent to
/// this node's slot in the sorted, deduplicated cluster (`peers` ∪
/// self), modulo the cluster size. Collision-free by construction — even
/// two followers partitioned from each other promote to *different*
/// epochs, and the strictly-higher-epoch fencing paths resolve the duel
/// once the partition heals.
pub fn promotion_epoch(observed: u64, peers: &[String], self_addr: &str) -> u64 {
    let mut cluster: Vec<&str> = peers.iter().map(String::as_str).collect();
    cluster.push(self_addr);
    cluster.sort_unstable();
    cluster.dedup();
    let stride = cluster.len() as u64;
    let slot = cluster
        .iter()
        .position(|a| *a == self_addr)
        .unwrap_or_default() as u64;
    let next = observed + 1;
    next + (slot + stride - next % stride) % stride
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_messages_round_trip_the_wire() {
        let msgs = [
            ReplMsg::Hello {
                epoch: 3,
                have: 17,
                pcrc: 0x1234_5678,
                from: "127.0.0.1:9000".to_string(),
            },
            ReplMsg::Rec {
                epoch: 2,
                seq: 5,
                crc: 0xDEAD_BEEF,
                kind: RecordKind::Admit,
                rid: "k1".to_string(),
                line: "{\"id\":\"a\",\"op\":\"ping\"}".to_string(),
            },
            ReplMsg::Hb { epoch: 2, seq: 9 },
            ReplMsg::Ack { seq: 5 },
            ReplMsg::Err {
                code: "RES-STALE-EPOCH".to_string(),
                epoch: 4,
            },
            ReplMsg::Status,
            ReplMsg::StatusReply(StatusView {
                role: "follower".to_string(),
                epoch: 2,
                seq: 5,
                answered: 3,
                nonce: (1 << 53) - 1,
                primary: Some("127.0.0.1:9001".to_string()),
            }),
        ];
        for msg in msgs {
            let line = msg.render_line();
            assert!(line.ends_with('\n'));
            let parsed = ReplMsg::parse(line.trim_end()).expect("parses");
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn non_repl_lines_are_not_repl_messages() {
        assert_eq!(ReplMsg::parse("{\"id\":\"a\",\"op\":\"ping\"}"), None);
        assert_eq!(ReplMsg::parse("not json"), None);
        assert_eq!(ReplMsg::parse("{\"repl\":\"bogus\"}"), None);
        // Negative / fractional numbers are rejected, not truncated.
        assert_eq!(ReplMsg::parse("{\"repl\":\"ack\",\"seq\":-1}"), None);
        assert_eq!(ReplMsg::parse("{\"repl\":\"ack\",\"seq\":1.5}"), None);
    }

    #[test]
    fn epoch_file_round_trips_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("lintra-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(EPOCH_FILE);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            load_epoch_state(&path).expect("missing file is fine"),
            EpochState {
                epoch: 1,
                fenced: false
            },
            "missing file is a fresh deployment"
        );
        store_epoch(&path, 7).expect("store");
        assert_eq!(
            load_epoch_state(&path).expect("readable"),
            EpochState {
                epoch: 7,
                fenced: false
            }
        );
        store_epoch_state(
            &path,
            EpochState {
                epoch: 9,
                fenced: true,
            },
        )
        .expect("store fenced");
        assert_eq!(
            load_epoch_state(&path).expect("readable"),
            EpochState {
                epoch: 9,
                fenced: true
            },
            "the fenced marker survives a restart"
        );
        // An existing-but-unparseable file must be an error, never a
        // silent reset to epoch 1 (that could un-fence a deposed
        // primary).
        for garbage in ["garbage", "0", "-3", "7 fenced extra", "7 sideways"] {
            std::fs::write(&path, garbage).expect("write");
            assert!(
                load_epoch_state(&path).is_err(),
                "{garbage:?} must not parse"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_crc_distinguishes_divergent_prefixes() {
        let rec = |rid: &str, line: &str| JournalRecord {
            kind: RecordKind::Admit,
            rid: rid.to_string(),
            line: line.to_string(),
        };
        let a = [
            rec("k1", "{\"op\":\"ping\"}"),
            rec("k2", "{\"op\":\"ping\"}"),
        ];
        let b = [
            rec("k1", "{\"op\":\"ping\"}"),
            rec("k2", "{\"op\":\"pong\"}"),
        ];
        assert_eq!(prefix_crc(&[]), 0, "empty prefix is 0");
        let cloned = a.to_vec();
        assert_eq!(prefix_crc(&a), prefix_crc(&cloned));
        assert_eq!(
            prefix_crc(&a[..1]),
            prefix_crc(&b[..1]),
            "identical prefixes agree"
        );
        assert_ne!(prefix_crc(&a), prefix_crc(&b), "divergent tails disagree");
        assert_ne!(
            prefix_crc(&a[..1]),
            prefix_crc(&a),
            "a longer journal has a different checksum"
        );
    }

    #[test]
    fn prefix_crc_equals_the_concatenating_definition() {
        // The chained checksum as first defined: CRC32 of the previous
        // value's little-endian bytes followed by the record's payload.
        fn concatenated(records: &[JournalRecord]) -> u32 {
            let mut acc: u32 = 0;
            for rec in records {
                let mut bytes = acc.to_le_bytes().to_vec();
                bytes.extend_from_slice(&payload_bytes(rec.kind, &rec.rid, &rec.line));
                acc = crc32(&bytes);
            }
            acc
        }
        let kinds = [
            RecordKind::Admit,
            RecordKind::Done,
            RecordKind::Fail,
            RecordKind::Abort,
        ];
        let records: Vec<JournalRecord> = (0..40)
            .map(|i| JournalRecord {
                kind: kinds[i % 4],
                rid: format!("key-{i}"),
                line: format!("{{\"id\":\"r{i}\",\"op\":\"sweep\",\"max\":{i}}}\n"),
            })
            .collect();
        for n in 0..=records.len() {
            assert_eq!(
                prefix_crc(&records[..n]),
                concatenated(&records[..n]),
                "n {n}"
            );
        }
    }

    #[test]
    fn promotion_epochs_are_collision_free_across_the_cluster() {
        let a = "127.0.0.1:9000".to_string();
        let b = "127.0.0.1:9001".to_string();
        let c = "127.0.0.1:9002".to_string();
        // Each member computes its slot from its own peer list (which
        // omits itself); the cluster view must still agree.
        let pick = |observed: u64, me: &String| {
            let peers: Vec<String> = [&a, &b, &c]
                .into_iter()
                .filter(|p| *p != me)
                .cloned()
                .collect();
            promotion_epoch(observed, &peers, me)
        };
        for observed in 1..20 {
            let picks = [pick(observed, &a), pick(observed, &b), pick(observed, &c)];
            for i in 0..picks.len() {
                for j in i + 1..picks.len() {
                    assert_ne!(
                        picks[i], picks[j],
                        "two members promoted from epoch {observed} to the same epoch"
                    );
                }
            }
            for p in picks {
                assert!(
                    p > observed && p <= observed + 3,
                    "promotion must advance the epoch"
                );
            }
        }
        // No peers configured: the classic observed + 1.
        assert_eq!(promotion_epoch(1, &[], &a), 2);
        // A self-alias in the peer list only widens the stride.
        let aliased = [a.clone(), "0.0.0.0:9000".to_string()];
        assert_eq!(promotion_epoch(1, &aliased, &a), 3);
    }

    #[test]
    fn role_labels_are_stable() {
        assert_eq!(Role::Primary.label(), "primary");
        assert_eq!(Role::Follower.label(), "follower");
        assert_eq!(Role::Promoting.label(), "promoting");
        assert_eq!(Role::Fenced.label(), "fenced");
    }
}
