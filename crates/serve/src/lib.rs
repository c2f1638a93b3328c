//! `lintra-serve` — a fault-tolerant optimization service.
//!
//! Turns the unfold → Horner → MCM pipeline into a long-running TCP
//! service speaking newline-delimited JSON (the
//! [`lintra_bench::wire`] schema), with the robustness machinery a
//! service needs and a library client that matches it:
//!
//! | layer | mechanism | diagnostic at the client |
//! |---|---|---|
//! | parse | strict wire validation | `VAL-MALFORMED-REQUEST` |
//! | admission | bounded in-flight gauge, load shedding | `RES-OVERLOAD` |
//! | execution | per-request deadline token, observed between sweep points | `RES-DEADLINE` |
//! | execution | per-point stall watchdog | `RES-WORKER-STALL` |
//! | execution | per-point panic isolation (engine) | `RES-WORKER-PANIC` |
//! | engine | circuit breaker on consecutive panics | `RES-CIRCUIT-OPEN` |
//! | lifecycle | graceful drain on shutdown/SIGTERM | `RES-SHUTDOWN` |
//! | durability | write-ahead journal + idempotency keys | `RES-DUPLICATE-REQUEST` |
//! | durability | quarantine of a damaged journal | `IO-JOURNAL-CORRUPT` |
//! | replication | WAL shipping, epoch fencing, automatic failover | `RES-NOT-PRIMARY`, `RES-STALE-EPOCH`, `IO-REPL-CORRUPT` |
//!
//! With [`ServerConfig::journal_dir`] set, the server also survives
//! `kill -9`: requests are fsynced to a write-ahead journal before
//! execution, and on restart orphaned requests replay while completed
//! `request_id`s are answered from the journal byte-identically
//! ([`server::RecoveryReport`]). Sweep caches stay in memory. See
//! [`journal`] for the record format and damage taxonomy.
//!
//! A durable server can also *replicate*: a follower started with
//! [`ServerConfig::replica_of`] streams the primary's journal into its
//! own (CRC-verified, fsync-before-ack), promotes itself with a higher
//! collision-free epoch when the primary goes silent, and durably
//! fences the deposed primary — no two servers ever serve the same
//! epoch, divergent journals are refused at resync, and any duel
//! resolves to the strictly higher epoch — while [`Client`] walks an
//! ordered endpoint list and carries its idempotency key across the
//! failover, so retries of settled work are answered byte-identically
//! with zero recompute. See [`replicate`] for the protocol and its
//! partition caveat.
//!
//! Every failure crosses the wire with the same class/code taxonomy local
//! [`lintra::LintraError`]s carry, so the CLI maps remote failures to the
//! identical exit codes (validation 2, numerical 3, resource 4,
//! convergence 5, I/O 6).
//!
//! # Quickstart
//!
//! ```
//! use lintra_bench::wire::{WireOp, WireRequest};
//! use lintra_serve::{start, Client, ServerConfig};
//!
//! let server = start(ServerConfig {
//!     jobs: Some(2),
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! let client = Client::new(server.addr().to_string());
//! let resp = client
//!     .request(&WireRequest::new("hello", WireOp::Ping))
//!     .expect("server is up");
//! assert!(resp.outcome.is_ok());
//! let stats = server.shutdown(); // graceful drain
//! assert_eq!(stats.requests_ok, 1);
//! ```

pub mod breaker;
pub mod client;
pub mod clock;
pub mod journal;
pub mod protocol;
pub mod replicate;
pub mod router;
pub mod server;
pub mod signal;
pub mod transport;

pub use breaker::{BreakerConfig, CircuitBreaker};
pub use client::{Client, ClientError, RetryPolicy};
pub use clock::{Clock, SystemClock};
pub use journal::{Journal, JournalRecovery, RecordKind, ScanOutcome};
pub use replicate::{
    load_epoch_state, prefix_crc, promotion_epoch, query_status, status_query, store_epoch,
    store_epoch_state, EpochState, ReplChaos, ReplMsg, Role, StatusView,
};
pub use router::{
    fnv1a64, routing_key, start_router, LatencyTracker, RetryBudget, RouterConfig, RouterCore,
    RouterHandle, ShardRing,
};
pub use server::{start, RecoveryReport, RoleInfo, ServerConfig, ServerHandle, ServerStats};
pub use transport::{
    read_line, round_trip, Conn, NetError, TcpTransport, Transport, MAX_FRAME_BYTES,
};
