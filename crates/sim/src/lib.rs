//! `lintra-sim` — deterministic simulation testing for the replicated
//! `lintra-serve` cluster.
//!
//! The replication protocol's hardest bugs live in interleavings real
//! integration tests cannot schedule: a promotion racing a delayed
//! heartbeat, a retry landing on a fenced ex-primary mid-partition, an
//! ack crossing a crash. This crate runs an N-node cluster plus clients
//! **in one process, single-threaded, under virtual time**, with every
//! source of nondeterminism — message delay, reordering, duplication,
//! loss, partitions (full, asymmetric, partial), node crashes and
//! restarts, per-node clock skew — drawn from one seeded
//! [`SplitMix64`](lintra::matrix::rng::SplitMix64) stream. A run is a
//! pure function of `(seed, config)`: the same seed replays the same
//! fault schedule, event for event, which turns any failure into a
//! one-line repro (`lintra sim --seed N --trace`).
//!
//! Two layers:
//!
//! - [`vclock`]: simulated implementations of the two seams of
//!   [`lintra_serve::Client`] — [`SimClock`] (a virtual
//!   [`lintra_serve::Clock`] whose `sleep` advances a counter) and
//!   [`ScriptedNet`] (an in-memory [`lintra_serve::Transport`]). These
//!   run the *real* client against scripted endpoints with zero real
//!   sleeping.
//! - [`run_sim`]: the discrete-event cluster simulation. Every node is
//!   the replication core the server ships
//!   ([`lintra_serve::protocol::Core`]) over an in-memory journal and
//!   epoch file, driven through seeded fault swarms while the harness
//!   machine-checks five invariants after every event (one unfenced
//!   primary per epoch; acked prefixes byte-identical; settled
//!   `request_id`s answered byte-identically with zero recompute;
//!   fenced/diverged journals frozen; bounded re-convergence after
//!   faults stop).
//!
//! [`SimBug`] can re-introduce a known-fatal bug (colliding promotion
//! epochs) to prove the invariant checks have teeth; the checked-in
//! regression seed in `tests/sim.rs` catches it every time.
//!
//! A third layer, [`run_shard_sim`], runs on the same event loop: M
//! groups of replication cores behind the router core `lintra route`
//! ships ([`lintra_serve::RouterCore`]), driven under virtual time, with
//! its own invariants (partial degradation, bounded retry volume, no
//! double execution, re-convergence) and its own injectable bug
//! ([`RouterSimBug::UnboundedRetries`], a configuration of the real
//! core).

pub mod vclock;

mod harness;
mod shard;
mod world;

pub use shard::{run_shard_sim, RouterSimBug, ShardScenario, ShardSimConfig, ShardSimReport};
pub use vclock::{Reply, ScriptedNet, SimClock};

/// Deliberately re-introducible bugs: each one must be caught by an
/// invariant under at least one checked-in regression seed, proving the
/// harness detects the class of failure it claims to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimBug {
    /// No injected bug: the shipping protocol core, configured as is.
    #[default]
    None,
    /// Start every node with an empty peer list, so the real core
    /// promotes to `observed + 1` instead of the collision-free
    /// stride/slot epoch: two partitioned followers can then promote
    /// into the *same* epoch — the split-brain invariant 1 exists to
    /// catch.
    CollidingPromotionEpoch,
}

/// One scripted fault, pinned to a virtual-time instant via
/// [`SimConfig::scripted`]. Node indices wrap modulo the cluster size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scripted {
    /// Kill the node: volatile state lost, journal and epoch survive.
    Crash(usize),
    /// Bring a crashed node back (no-op if it is up).
    Restart(usize),
    /// Sever one direction: messages `from → to` are dropped.
    CutOneWay(usize, usize),
    /// Sever both directions between two nodes.
    CutBoth(usize, usize),
}

/// Everything that parameterizes a run. A report is a pure function of
/// `(seed, SimConfig)`; all times are virtual milliseconds.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster size; node 0 starts as the configured primary, the rest
    /// as its followers.
    pub nodes: usize,
    /// Concurrent clients walking the endpoint list.
    pub clients: usize,
    /// Keyed requests each client works through.
    pub requests_per_client: usize,
    /// Total virtual run length. Faults stop at 3/5 of it; the cluster
    /// must re-converge and settle everything in the remainder.
    pub sim_ms: u64,
    /// Each node's heartbeat interval (the core's `heartbeat`; it also
    /// paces guard probes). Arbitration waits twice this for peers.
    pub tick_ms: u64,
    /// Silence a follower tolerates before arbitrating a failover.
    pub grace_ms: u64,
    /// Virtual cost of executing one request.
    pub exec_ms: u64,
    /// Base one-way message latency.
    pub net_ms: u64,
    /// Additional random per-message latency (uniform, exclusive).
    pub jitter_ms: u64,
    /// Message loss rate, per mille, until faults stop.
    pub drop_permille: u64,
    /// Message duplication rate, per mille, until faults stop.
    pub dup_permille: u64,
    /// Randomized crash/restart pairs (when [`SimConfig::auto_faults`]).
    pub crash_faults: usize,
    /// Randomized partitions: full, asymmetric, or partial, at random.
    pub partition_faults: usize,
    /// Client patience before walking to the next endpoint.
    pub client_timeout_ms: u64,
    /// Scale each node's timers by a random factor in 0.8x–1.2x.
    pub skew: bool,
    /// Generate the seeded fault schedule (off for scripted-only runs).
    pub auto_faults: bool,
    /// Additional scripted faults at fixed virtual times.
    pub scripted: Vec<(u64, Scripted)>,
    /// The injected bug, if any.
    pub bug: SimBug,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            nodes: 3,
            clients: 2,
            requests_per_client: 6,
            sim_ms: 8000,
            tick_ms: 50,
            grace_ms: 300,
            exec_ms: 40,
            net_ms: 5,
            jitter_ms: 15,
            drop_permille: 20,
            dup_permille: 10,
            crash_faults: 2,
            partition_faults: 2,
            client_timeout_ms: 500,
            skew: true,
            auto_faults: true,
            scripted: Vec::new(),
            bug: SimBug::None,
        }
    }
}

/// What one run produced. Byte-for-byte reproducible from
/// `(seed, config)`: two runs with the same inputs yield identical
/// reports, trace lines included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// Terminal responses clients received (including dedup re-serves).
    pub answered: u64,
    /// Distinct `request_id`s settled.
    pub settled: u64,
    /// Retries served from journals with zero recompute.
    pub deduped: u64,
    /// Follower promotions.
    pub promotions: u64,
    /// Fencing transitions.
    pub fences: u64,
    /// Up, unfenced primaries when the run ended (1 on a passing run).
    pub final_primaries: usize,
    /// Invariant violations, in detection order. Empty means PASS.
    pub violations: Vec<String>,
    /// Compact fault/role/violation schedule with virtual timestamps —
    /// the repro artifact a failing seed prints.
    pub trace: Vec<String>,
}

impl SimReport {
    /// True when every invariant held for the whole run.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The failure artifact: seed plus the compact fault-schedule
    /// trace, ready to paste into a bug report.
    pub fn repro(&self) -> String {
        let header = format!(
            "sim seed {} ({} events, {} promotions, {} fences)",
            self.seed, self.events, self.promotions, self.fences
        );
        world::repro(header, &self.trace, &self.violations)
    }
}

/// Runs one simulation to completion under virtual time. Wall-clock
/// cost is milliseconds; virtual coverage is [`SimConfig::sim_ms`].
pub fn run_sim(seed: u64, config: &SimConfig) -> SimReport {
    harness::run(seed, config)
}

/// Runs `count` consecutive seeds starting at `first`, returning every
/// report (the swarm primitive; callers apply wall-clock budgets).
pub fn run_seed_range(first: u64, count: u64, config: &SimConfig) -> Vec<SimReport> {
    (first..first.saturating_add(count))
        .map(|seed| run_sim(seed, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_single_seed_passes() {
        let report = run_sim(42, &SimConfig::default());
        assert!(report.passed(), "{}", report.repro());
        assert_eq!(report.final_primaries, 1);
        assert!(report.settled > 0, "clients settled nothing");
    }

    #[test]
    fn reports_are_bit_reproducible() {
        let config = SimConfig::default();
        let a = run_sim(7, &config);
        let b = run_sim(7, &config);
        assert_eq!(a, b);
    }
}
