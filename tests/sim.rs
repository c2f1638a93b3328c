//! Deterministic-simulation tests for the replicated cluster
//! (`lintra-sim`): bit-reproducibility, the fixed-seed swarm smoke, a
//! checked-in regression seed that catches a deliberately re-introduced
//! fencing bug, and the *real* `lintra-serve::Client` driven under
//! virtual time with zero real sleeping.

use std::sync::Arc;
use std::time::Duration;

use lintra::ErrorClass;
use lintra_bench::wire::{WireFailure, WireOp, WireRequest, WireResponse};
use lintra_serve::{Client, ClientError, Clock, RetryPolicy};
use lintra_sim::{
    run_seed_range, run_shard_sim, run_sim, Reply, RouterSimBug, Scripted, ScriptedNet,
    ShardScenario, ShardSimConfig, SimBug, SimClock, SimConfig,
};

/// The checked-in regression seed: with `SimBug::CollidingPromotionEpoch`
/// this exact run splits the brain; with the real promotion arithmetic it
/// passes. Bump only alongside a config change that re-verifies both.
const REGRESSION_SEED: u64 = 11;

/// The scripted regression scenario: the primary dies while its two
/// followers are partitioned from each other, so both arbitrate alone
/// and promote blind.
fn split_brain_config(bug: SimBug) -> SimConfig {
    SimConfig {
        auto_faults: false,
        scripted: vec![(400, Scripted::CutBoth(1, 2)), (500, Scripted::Crash(0))],
        bug,
        ..SimConfig::default()
    }
}

#[test]
fn same_seed_and_config_reproduce_bit_identical_reports() {
    let config = SimConfig {
        crash_faults: 3,
        partition_faults: 3,
        ..SimConfig::default()
    };
    let first = run_sim(1234, &config);
    let second = run_sim(1234, &config);
    // The whole report — event counts, counters, violations, and the
    // full trace — must be byte-identical across invocations.
    assert_eq!(first, second);
    assert!(first.events > 0);
}

#[test]
fn different_seeds_explore_different_schedules() {
    let config = SimConfig::default();
    let a = run_sim(1, &config);
    let b = run_sim(2, &config);
    assert_ne!(
        (a.events, a.trace.clone()),
        (b.events, b.trace.clone()),
        "two seeds produced the same run; the fault schedule is not seeded"
    );
}

#[test]
fn swarm_smoke_fifty_seeds_hold_all_invariants() {
    let config = SimConfig::default();
    let reports = run_seed_range(1, 50, &config);
    for report in &reports {
        assert!(
            report.passed(),
            "seed {} violated invariants:\n{}",
            report.seed,
            report.repro()
        );
        assert_eq!(report.final_primaries, 1, "seed {}", report.seed);
    }
    // The swarm must actually exercise the interesting machinery, not
    // coast through quiet schedules.
    assert!(
        reports.iter().any(|r| r.promotions > 0),
        "no seed produced a failover"
    );
    assert!(
        reports.iter().any(|r| r.deduped > 0),
        "no seed served a settled retry from the journal"
    );
    assert!(reports.iter().all(|r| r.settled > 0));
}

#[test]
fn regression_seed_catches_colliding_promotion_epochs() {
    let buggy = run_sim(
        REGRESSION_SEED,
        &split_brain_config(SimBug::CollidingPromotionEpoch),
    );
    assert!(
        !buggy.passed(),
        "the injected promotion-epoch collision went undetected"
    );
    assert!(
        buggy.violations.iter().any(|v| v.contains("invariant 1")),
        "expected a split-brain (invariant 1) violation, got:\n{}",
        buggy.repro()
    );
    // The same run under the real collision-free epoch arithmetic is
    // clean: the violation comes from the injected bug, not the model.
    let clean = run_sim(REGRESSION_SEED, &split_brain_config(SimBug::None));
    assert!(clean.passed(), "{}", clean.repro());
}

#[test]
fn failover_serves_settled_retries_with_zero_recompute() {
    let config = SimConfig {
        auto_faults: false,
        scripted: vec![(1000, Scripted::Crash(0)), (4000, Scripted::Restart(0))],
        ..SimConfig::default()
    };
    let report = run_sim(5, &config);
    assert!(report.passed(), "{}", report.repro());
    assert!(
        report.promotions >= 1,
        "the crash never triggered a failover"
    );
    assert!(
        report.deduped >= 1,
        "no settled retry was served from the journal"
    );
    assert!(
        report.fences >= 1,
        "the restarted ex-primary was never fenced"
    );
}

/// The checked-in liveness regression seed: a follower parks diverged,
/// then the primary it diverged from comes back as a follower and must
/// promote past it. An arbitration that deferred to every non-fenced
/// peer with more records waited on the parked follower forever, and
/// the run ended with no primary.
const DIVERGED_PEER_SEED: u64 = 1009;

#[test]
fn a_follower_parked_diverged_never_stalls_failover() {
    let report = run_sim(DIVERGED_PEER_SEED, &SimConfig::default());
    assert!(report.passed(), "{}", report.repro());
    assert!(
        report.trace.iter().any(|l| l.contains("journal diverged")),
        "the seed no longer parks a follower:\n{}",
        report.repro()
    );
}

/// The checked-in fencing regression seed: the deposed primary is fenced
/// while it still executes an admitted request. A node that journaled
/// that late completion would grow a fenced journal (invariant 4).
const LATE_COMPLETION_SEED: u64 = 1;

#[test]
fn a_fenced_node_never_journals_a_late_completion() {
    let report = run_sim(LATE_COMPLETION_SEED, &SimConfig::default());
    assert!(report.passed(), "{}", report.repro());
    assert!(
        report.fences >= 1,
        "the seed no longer fences:\n{}",
        report.repro()
    );
}

// --- the sharded router simulation -----------------------------------------

/// The checked-in router regression seed: with
/// `RouterSimBug::UnboundedRetries` this exact blackout run blows the
/// retry-volume bound (invariant R2); with the real budget arithmetic
/// it passes. Bump only alongside a config change re-verifying both.
const ROUTER_REGRESSION_SEED: u64 = 7;

/// Scenario configs lengthen the workload so clients are still sending
/// when the outage lands at 1/8 of the run (the default 4-key queues
/// drain before any fault fires).
fn shard_config(scenario: ShardScenario, bug: RouterSimBug) -> ShardSimConfig {
    ShardSimConfig {
        requests_per_client: 16,
        scenario,
        bug,
        ..ShardSimConfig::default()
    }
}

#[test]
fn shard_swarm_holds_router_invariants_across_both_outage_shapes() {
    for seed in 1..=12u64 {
        for scenario in [
            ShardScenario::PrimaryCrash { group: 0 },
            ShardScenario::Blackout { group: 1 },
        ] {
            let config = shard_config(scenario, RouterSimBug::None);
            let report = run_shard_sim(seed, &config);
            assert!(
                report.passed(),
                "seed {seed} / {scenario:?} violated invariants:\n{}",
                report.repro()
            );
            assert!(report.settled > 0, "seed {seed} settled nothing");
        }
    }
}

#[test]
fn a_blacked_out_shard_degrades_its_keys_while_the_others_keep_serving() {
    let config = shard_config(ShardScenario::Blackout { group: 1 }, RouterSimBug::None);
    let report = run_shard_sim(ROUTER_REGRESSION_SEED, &config);
    assert!(report.passed(), "{}", report.repro());
    // The dead shard's keys were refused with RES-SHARD-DOWN during the
    // outage (graceful degradation, not silence)...
    assert!(
        report.shard_down > 0,
        "the blackout never surfaced RES-SHARD-DOWN:\n{}",
        report.repro()
    );
    // ...yet every key — the dead shard's included — settled by the end
    // of the run, and retry volume stayed under the budget bound (R2 is
    // machine-checked after every event inside the run).
    assert_eq!(
        report.settled,
        report.answered.min(report.settled),
        "sanity"
    );
}

#[test]
fn a_crashed_primary_fails_over_behind_the_router() {
    let config = shard_config(ShardScenario::PrimaryCrash { group: 0 }, RouterSimBug::None);
    let report = run_shard_sim(ROUTER_REGRESSION_SEED, &config);
    assert!(report.passed(), "{}", report.repro());
    assert!(
        report.promotions >= 1,
        "the crash never triggered a failover:\n{}",
        report.repro()
    );
    assert!(
        report.fences >= 1,
        "the restarted ex-primary was never fenced:\n{}",
        report.repro()
    );
}

#[test]
fn router_regression_seed_catches_unbounded_retries() {
    let buggy_config = shard_config(
        ShardScenario::Blackout { group: 1 },
        RouterSimBug::UnboundedRetries,
    );
    let buggy = run_shard_sim(ROUTER_REGRESSION_SEED, &buggy_config);
    assert!(
        !buggy.passed(),
        "the injected retry storm went undetected:\n{}",
        buggy.repro()
    );
    assert!(
        buggy.violations.iter().any(|v| v.contains("invariant R2")),
        "expected a retry-budget (R2) violation, got:\n{}",
        buggy.repro()
    );
    // The same run with the core configured as shipped is clean: the
    // violation comes from the injected bug.
    let clean_config = shard_config(ShardScenario::Blackout { group: 1 }, RouterSimBug::None);
    let clean = run_shard_sim(ROUTER_REGRESSION_SEED, &clean_config);
    assert!(clean.passed(), "{}", clean.repro());
}

/// The checked-in R1 regression seeds, with the config `lintra sim
/// --shards N --scenario blackout` uses. Under a hand-written router
/// model, a healthy shard's key reached its client as `RES-RETRY-BUDGET`
/// on 2-shard seeds 337 and 343. The shipping router failed 3-shard
/// seeds 220 and 369 the same way: retry walks against a shard whose
/// breaker was already open drained the shared budget, so one lost
/// forward on a healthy shard was shed. A retry now passes the breaker
/// first. Given one deadline for a whole hedged round, as the threaded
/// router once had, the router failed 2-shard seeds 235 and 1867: the
/// round ended while a redirected copy was still due to answer, or, with
/// the shard's P99 above the deadline, after a single forward; the shed
/// retry left the key unsettled. Each forward now has its own deadline.
/// On 2-shard seed 3327, hedges raced against the blacked-out shard,
/// sent before its breaker opened, drained the budget; a healthy shard's
/// lost forward then found no token for its hedge or its retry. A shard
/// whose last probe round found no serving replica is no longer hedged.
const R1_SEEDS: [(usize, u64); 7] = [
    (2, 337),
    (2, 343),
    (2, 235),
    (2, 1867),
    (2, 3327),
    (3, 220),
    (3, 369),
];

#[test]
fn r1_regression_seeds_keep_healthy_shards_serving_through_a_blackout() {
    for (groups, seed) in R1_SEEDS {
        let config = ShardSimConfig {
            groups,
            ..shard_config(ShardScenario::Blackout { group: 0 }, RouterSimBug::None)
        };
        let report = run_shard_sim(seed, &config);
        assert!(
            report.passed(),
            "{groups} shards, seed {seed}:\n{}",
            report.repro()
        );
    }
}

// --- the real Client under virtual time -----------------------------------

fn keyed_ping(id: &str) -> WireRequest {
    WireRequest::new(id, WireOp::Ping).with_request_id(id)
}

/// Asymmetric-partition endpoint walk: the client can reach the fenced
/// ex-primary (which redirects) but its preferred endpoint is dead; the
/// promoted primary sits last in the list. The walk must converge in
/// one attempt without burning any backoff sleep.
#[test]
fn client_walks_past_fenced_ex_primary_without_burning_backoff() {
    let clock = SimClock::new();
    let net = ScriptedNet::new(Arc::clone(&clock));
    net.serve("fenced:1", |line| {
        let id = WireRequest::parse(line).map(|r| r.id).unwrap_or_default();
        let resp = WireResponse::err(
            id,
            WireFailure {
                class: ErrorClass::Resource,
                code: "RES-STALE-EPOCH".to_string(),
                message: "this server was deposed at epoch 3".to_string(),
            },
        );
        Reply::LineAfter(
            resp.render_line().trim_end().to_string(),
            Duration::from_millis(2),
        )
    });
    net.serve("primary:1", |line| {
        let id = WireRequest::parse(line).map(|r| r.id).unwrap_or_default();
        let resp = WireResponse::ok(id, lintra_bench::json::Json::obj([]));
        Reply::LineAfter(
            resp.render_line().trim_end().to_string(),
            Duration::from_millis(2),
        )
    });
    // "dead:1" is never registered: connects to it are refused.
    let mut client = Client::new("fenced:1,dead:1,primary:1");
    client.transport = Arc::new(net);
    client.clock = Arc::clone(&clock) as Arc<dyn Clock>;

    let resp = client
        .request(&keyed_ping("walk-1"))
        .expect("the walk converges");
    assert!(resp.outcome.is_ok(), "{resp:?}");
    // The whole walk — redirect, refused connect, answer — happened
    // inside the first attempt: no backoff sleep was burned (default
    // base backoff is 50 ms; the walk spent only per-hop latency).
    assert!(
        clock.now() < Duration::from_millis(50),
        "walk burned backoff: {:?} of virtual time elapsed",
        clock.now()
    );
}

/// Fully partitioned: every endpoint refuses. The client must fail fast
/// with the deadline-classified error instead of sleeping past the
/// caller's budget — and the whole retry schedule runs in virtual time
/// (the test itself never sleeps).
#[test]
fn client_fails_fast_with_deadline_error_when_fully_partitioned() {
    let clock = SimClock::new();
    let net = ScriptedNet::new(Arc::clone(&clock));
    let mut client = Client::with_policy(
        "dead-a:1,dead-b:1",
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        },
    );
    client.transport = Arc::new(net);
    client.clock = Arc::clone(&clock) as Arc<dyn Clock>;

    let mut req = keyed_ping("partitioned-1");
    req.deadline_ms = Some(50); // response budget: 2*50 + 500 = 600 ms

    let err = client.request(&req).expect_err("every endpoint is dead");
    assert!(
        matches!(err, ClientError::DeadlineExhausted { .. }),
        "expected the fast RES-DEADLINE failure, got {err:?}"
    );
    assert_eq!(err.exit_code(), ErrorClass::Resource.exit_code());
    // Fail-fast means the client never slept past the response budget.
    assert!(
        clock.now() < Duration::from_millis(600),
        "client slept past its budget: {:?} virtual elapsed",
        clock.now()
    );
}

/// Deep swarm for manual/CI-extended runs: `cargo test -p lintra-sim
/// --test sim -- --ignored` sweeps 500 seeds of the cluster, 500 seeds
/// of a 2-shard primary crash behind the router, and 2000 seeds of a
/// 2-shard blackout, where every R1 bug so far was found (~half a
/// minute of wall clock in release).
#[test]
#[ignore = "extended sweep; run explicitly via --ignored or scripts/sim_swarm.sh"]
fn deep_swarm_sweeps_crashes_and_blackouts() {
    let config = SimConfig::default();
    for report in run_seed_range(1, 500, &config) {
        assert!(
            report.passed(),
            "seed {} violated invariants:\n{}",
            report.seed,
            report.repro()
        );
    }
    for (scenario, seeds) in [
        (ShardScenario::PrimaryCrash { group: 0 }, 500),
        (ShardScenario::Blackout { group: 0 }, 2000),
    ] {
        let config = ShardSimConfig {
            groups: 2,
            ..shard_config(scenario, RouterSimBug::None)
        };
        for seed in 1..=seeds {
            let report = run_shard_sim(seed, &config);
            assert!(
                report.passed(),
                "{scenario:?} seed {seed}:\n{}",
                report.repro()
            );
        }
    }
}
