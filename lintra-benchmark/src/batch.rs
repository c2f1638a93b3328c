//! The batch workloads: closed-loop passes over the paper suite and over
//! seeded synthetic designs. Traced runs finish with an outside-in
//! replay that times each strategy call and then re-runs the layers it
//! is built from at the operating point the strategy chose.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, CacheCounts, EgraphRun, Pool, SuiteCaches, System};
use crate::cpus;
use crate::report::{is_service_layer, Report};
use crate::stats;
use crate::trace::{self, Open, Span, Tracer};
use crate::Ctx;

/// Trace ids at and above this belong to the post-stage replay.
const REPLAY_TRACE: u64 = 1 << 40;

/// Results one paper-suite pass produces: Tables 2–4 and the e-graph
/// suite, eight designs each.
const PAPER_RESULTS: u64 = 32;

/// Synthetic designs per pass.
const SYNTH_DESIGNS: usize = 24;

/// Set-up repetitions `setup_s` is measured over: the set-up is well
/// under a millisecond, so many repetitions keep its medians steady.
const SETUP_REPS: usize = 200;

/// The layer calls a replay times, in pipeline order.
const LAYERS: [&str; 7] = [
    "transform.horner",
    "transform.mcm_pass",
    "linsys.unfold",
    "dfg.build",
    "egraph.seed",
    "egraph.saturate",
    "egraph.extract",
];

/// What one timed pass produced.
struct Pass {
    seconds: f64,
    results: u64,
    gains: Vec<f64>,
    egraph: Vec<EgraphRun>,
    cache: CacheCounts,
    mults: u64,
}

fn setup_reps(ctx: &Ctx) -> usize {
    if ctx.smoke {
        1
    } else {
        SETUP_REPS
    }
}

/// Runs passes closed-loop (the next starts when the previous ends)
/// until the stage time is spent, at least one pass.
fn closed_loop(ctx: &Ctx, mut pass: impl FnMut(u64) -> Option<Pass>) -> Vec<Pass> {
    let stage = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    for k in 1.. {
        if let Some(p) = pass(k) {
            passes.push(p);
        }
        if ctx.smoke || start.elapsed() >= stage {
            break;
        }
    }
    passes
}

fn check_egraph(rep: &mut Report, what: &str, run: &EgraphRun) {
    if !(run.vs_script >= 1.0 && run.gain > 1.0 && run.gain.is_finite()) {
        rep.fail(
            1,
            format!(
                "{what}: e-graph result vs script {} (must be ≥ 1), improvement {}",
                run.vs_script, run.gain
            ),
        );
    }
}

/// End-to-end metrics common to the batch workloads: the pass time is
/// the median of the run's passes.
fn batch_e2e(ctx: &Ctx, rep: &mut Report, setup_s: f64, rss_mb: f64, passes: &[Pass]) {
    let secs: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let p50 = stats::median(&secs).unwrap_or(0.0);
    let (q1, q3) = stats::quartiles(&secs).unwrap_or((p50, p50));
    let per_pass = passes.first().map_or(0, |p| p.results) as f64;
    let gains: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.gains.iter().copied())
        .collect();
    rep.e2e.insert("setup_s", setup_s);
    rep.e2e.insert("latency_ms", p50 * 1e3);
    rep.e2e.insert(
        "throughput_per_s",
        if p50 > 0.0 { per_pass / p50 } else { 0.0 },
    );
    rep.e2e.insert("peak_rss_mb", rss_mb);
    rep.e2e
        .insert("energy_gain_x", stats::geomean(&gains).unwrap_or(0.0));
    rep.note(format!(
        "{} passes of {per_pass} results on {} engine workers; pass q1 {:.1} ms, \
         median {:.1} ms, q3 {:.1} ms",
        passes.len(),
        ctx.jobs,
        q1 * 1e3,
        p50 * 1e3,
        q3 * 1e3
    ));
    rep.note(format!(
        "peak RSS {rss_mb:.1} MB after the first pass from a cold process, {:.1} MB after \
         the last; energy gain over {} results",
        crate::report::peak_rss_mb().unwrap_or(0.0),
        gains.len()
    ));
}

/// Peak RSS once the first pass is done: what one cold `lintra tables`
/// style process needs. Later passes in the same process only add
/// allocator fragmentation that varies from run to run.
fn first_pass_rss() -> f64 {
    crate::report::peak_rss_mb().unwrap_or(0.0)
}

/// Layer metrics from the replay spans and the first timed pass.
fn batch_layers(rep: &mut Report, spans: &[Span], passes: &[Pass]) {
    let replay: Vec<Span> = spans
        .iter()
        .filter(|s| s.trace >= REPLAY_TRACE)
        .cloned()
        .collect();
    let total = trace::self_seconds_by_name(&replay);
    let mut counts: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for s in &replay {
        for (k, v) in &s.counts {
            *counts.entry((s.name, k)).or_default() += v;
        }
    }
    let t = |name: &str| total.get(name).copied().unwrap_or(0.0);
    let c = |name: &'static str, key: &'static str| counts.get(&(name, key)).copied().unwrap_or(0);
    let strategies = ["opt.single", "opt.multi", "opt.asic", "opt.egraph"];
    for s in strategies {
        rep.layers.insert(metric_s(s), t(s));
    }
    for l in LAYERS {
        rep.layers.insert(metric_s(l), t(l));
    }
    let strategy_s: f64 = strategies.iter().map(|s| t(s)).sum();
    let layer_s: f64 = LAYERS.iter().map(|l| t(l)).sum();
    rep.layers.insert("opt.residual_s", strategy_s - layer_s);
    for (metric, key) in [
        ("egraph.match_s", "match_ns"),
        ("egraph.apply_s", "apply_ns"),
        ("egraph.rebuild_s", "rebuild_ns"),
    ] {
        rep.layers
            .insert(metric, c("opt.egraph", key) as f64 * 1e-9);
    }
    rep.layers
        .insert("egraph.enodes", c("opt.egraph", "enodes") as f64);
    rep.layers
        .insert("egraph.iterations", c("opt.egraph", "iterations") as f64);
    rep.layers.insert(
        "mcm.muls_removed",
        c("transform.mcm_pass", "muls_removed") as f64,
    );

    let pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let p50 = stats::median(&pass_s).unwrap_or(0.0);
    let speedup = if p50 > 0.0 { strategy_s / p50 } else { 0.0 };
    rep.layers.insert("engine.parallel_speedup", speedup);
    if let Some(first) = passes.first() {
        let improved = first.egraph.iter().filter(|r| r.vs_script > 1.0).count();
        let n = first.egraph.len();
        rep.layers.insert(
            "egraph.improved_share",
            if n > 0 {
                improved as f64 / n as f64
            } else {
                0.0
            },
        );
        rep.layers.insert("egraph.results", n as f64);
        let lookups = first.cache.hits + first.cache.misses;
        rep.layers.insert(
            "engine.cache_hit_rate",
            if lookups > 0 {
                first.cache.hits as f64 / lookups as f64
            } else {
                0.0
            },
        );
        rep.layers
            .insert("engine.cache_hits", first.cache.hits as f64);
        rep.layers
            .insert("engine.cache_misses", first.cache.misses as f64);
        rep.layers.insert("matrix.mults", first.mults as f64);
    }
    rep.note(format!(
        "replayed strategies {strategy_s:.4} s = layers {layer_s:.4} s + residual {:.4} s \
         (unfolding search, voltage, accounting); pass median {p50:.4} s x parallel speedup \
         {speedup:.2} = the same work",
        strategy_s - layer_s
    ));
    rep.zero_layers(is_service_layer);
}

/// `opt.egraph` → `opt.egraph_s`.
fn metric_s(span: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| n.strip_suffix("_s") == Some(span))
        .expect("every replayed span has a per-layer metric")
}

/// Times the e-graph strategy on one design, then replays its layers
/// and checks the replay reaches the strategy's energy bit for bit.
fn egraph_with_replay(
    tracer: &Tracer,
    parent: &Open,
    sys: &System,
    v0: f64,
    cache: &mut adapter::Cache,
    rep: &mut Report,
    what: &str,
) -> Result<EgraphRun, String> {
    let span = tracer.open(parent.trace(), Some(parent));
    let run = adapter::egraph_optimize(sys, v0, cache);
    let counts = run.as_ref().map_or(Vec::new(), |r| {
        vec![
            ("enodes", r.enodes as u64),
            ("iterations", r.iterations as u64),
            ("match_ns", (r.phases_s[0] * 1e9) as u64),
            ("apply_ns", (r.phases_s[1] * 1e9) as u64),
            ("rebuild_ns", (r.phases_s[2] * 1e9) as u64),
        ]
    });
    tracer.close(span, "opt.egraph", &counts);
    let run = run?;
    check_egraph(rep, what, &run);
    let replay = adapter::replay_egraph(sys, &run)?;
    if replay.optimized != Some(run.optimized) {
        rep.fail(
            1,
            format!("{what}: the replayed e-graph energy differs from the strategy's"),
        );
    }
    record_steps(tracer, &span, &replay);
    Ok(run)
}

fn record_steps(tracer: &Tracer, parent: &Open, replay: &adapter::Replay) {
    for s in &replay.steps {
        let counts: &[(&str, u64)] = if s.name == "transform.mcm_pass" {
            &[("muls_removed", replay.muls_removed)]
        } else {
            &[]
        };
        tracer.record_between(parent, s.name, s.start, s.end, counts);
    }
}

// --- paper_suite ------------------------------------------------------------

fn paper_pass(pool: &Pool, tracer: &Tracer, k: u64, rep: &mut Report) -> Option<Pass> {
    rep.attempted += PAPER_RESULTS;
    let mults = adapter::matrix_mults();
    let open = tracer.open(k, None);
    let start = Instant::now();
    let out = (|| {
        let caches = tracer.time(&open, "bench.suite_caches", SuiteCaches::new);
        let t2 = tracer.time(&open, "bench.table2_rows", || {
            adapter::table2(pool, &caches)
        })?;
        let t3 = tracer.time(&open, "bench.table3_rows", || {
            adapter::table3(pool, &caches)
        })?;
        let t4 = tracer.time(&open, "bench.table4_rows", || {
            adapter::table4(pool, &caches)
        })?;
        let eg = tracer.time(&open, "bench.egraph_rows", || {
            adapter::egraph_suite(pool, &caches)
        })?;
        Ok::<_, String>((t2, t3, t4, eg))
    })();
    let seconds = start.elapsed().as_secs_f64();
    let mults = adapter::matrix_mults().saturating_sub(mults);
    tracer.close(open, "pass", &[("results", PAPER_RESULTS)]);
    let (t2, t3, t4, (egraph, eg_cache)) = match out {
        Ok(out) => out,
        Err(e) => {
            rep.fail(PAPER_RESULTS, format!("pass {k}: {e}"));
            return None;
        }
    };
    for (n, (table, golden)) in [&t2, &t3, &t4]
        .into_iter()
        .zip(adapter::GOLDEN_TABLES)
        .enumerate()
    {
        if table.text != golden {
            let line = table
                .text
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .map_or("its length".to_string(), |l| format!("line {}", l + 1));
            rep.fail(
                8,
                format!(
                    "pass {k}: Table {} differs from tests/golden/table{}.txt at {line}",
                    n + 2,
                    n + 2
                ),
            );
        }
    }
    for (i, run) in egraph.iter().enumerate() {
        check_egraph(rep, &format!("pass {k}, e-graph row {}", i + 1), run);
    }
    let gains = [&t2, &t3, &t4]
        .iter()
        .flat_map(|t| t.gains.iter().copied())
        .chain(egraph.iter().map(|r| r.gain))
        .collect();
    Some(Pass {
        seconds,
        results: PAPER_RESULTS,
        gains,
        cache: t2.cache + t3.cache + t4.cache + eg_cache,
        egraph,
        mults,
    })
}

/// Replays one pass's strategy calls design by design on one thread:
/// Table 2's single-processor search, Table 3's single + multi, Table
/// 4's ASIC script (with its Horner and MCM layers replayed) and the
/// e-graph strategy (with all its layers replayed).
fn paper_replay(ctx: &Ctx, tracer: &Tracer, rep: &mut Report) {
    let inner = adapter::pool(1);
    // A smoke run only checks the report's shape: two designs suffice.
    let designs = adapter::paper_designs()
        .into_iter()
        .take(if ctx.smoke { 2 } else { usize::MAX });
    for (k, (name, sys)) in designs.enumerate() {
        let root = tracer.open(REPLAY_TRACE + k as u64, None);
        let mut cache = adapter::new_cache(&sys);
        let v0 = adapter::TABLE_V0;
        let mut replay = || -> Result<(), String> {
            for _ in 0..2 {
                tracer.time(&root, "opt.single", || {
                    adapter::single_optimize(&sys, v0, &mut cache)
                })?;
            }
            tracer.time(&root, "opt.multi", || {
                adapter::multi_optimize(&sys, v0, &inner)
            })?;
            let asic = tracer.open(root.trace(), Some(&root));
            let out = adapter::asic_optimize(&sys, v0, &mut cache);
            tracer.close(asic, "opt.asic", &[]);
            let (unfolding, _) = out?;
            record_steps(tracer, &asic, &adapter::replay_asic(&sys, unfolding)?);
            egraph_with_replay(
                tracer,
                &root,
                &sys,
                adapter::EGRAPH_SUITE_V0,
                &mut cache,
                rep,
                &format!("replay of {name}"),
            )?;
            Ok(())
        };
        let out = replay();
        tracer.close(root, "replay.design", &[]);
        if let Err(e) = out {
            rep.fail(1, format!("replaying {name}: {e}"));
        }
    }
}

/// `paper_suite`: Tables 2–4 plus the e-graph suite through the engine,
/// each pass from cold caches, like each `lintra tables` run.
pub fn paper_suite(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut rep = Report::new("paper_suite", ctx.trace);
    // `SuiteCaches::new` builds every suite design and its cache: the
    // set-up a `lintra tables` run pays before its first table.
    let setup_s = cpus::time_on_each_cpu(setup_reps(ctx), || {
        (adapter::pool(ctx.jobs), SuiteCaches::new())
    });
    let pool = adapter::pool(ctx.jobs);
    let mut rss_mb = None;
    if !ctx.smoke {
        paper_pass(&pool, &Tracer::new(false), 0, &mut rep);
        rss_mb = Some(first_pass_rss());
    }
    let passes = closed_loop(ctx, |k| {
        let pass = paper_pass(&pool, tracer, k, &mut rep);
        rss_mb.get_or_insert_with(first_pass_rss);
        pass
    });
    batch_e2e(ctx, &mut rep, setup_s, rss_mb.unwrap_or(0.0), &passes);
    if ctx.trace {
        paper_replay(ctx, tracer, &mut rep);
    }
    finish_batch(rep, tracer, &passes)
}

fn finish_batch(mut rep: Report, tracer: &Tracer, passes: &[Pass]) -> Report {
    if rep.traced {
        batch_layers(&mut rep, &tracer.snapshot(), passes);
    }
    rep
}

// --- synth_egraph ------------------------------------------------------------

/// One pass's synthetic designs: shapes cycle through `p, q ∈ {1, 2}`
/// and `r ∈ [4, 12]`, and sparsity is stratified over `[0.3, 0.7]`, so
/// every pass has the same spread of sizes while the seed's stream draws
/// the coefficients.
pub fn synth_designs(rng: &mut adapter::Rng, n: usize) -> Vec<System> {
    (0..n)
        .map(|k| {
            let sparsity = 0.3 + 0.4 * (k as f64 + rng.next_f64()) / n as f64;
            adapter::random_design(
                1 + k % 2,
                1 + (k / 2) % 2,
                4 + k % 9,
                sparsity,
                rng.next_u64(),
            )
        })
        .collect()
}

fn synth_pass(pool: &Pool, tracer: &Tracer, k: u64, designs: &[System], rep: &mut Report) -> Pass {
    rep.attempted += designs.len() as u64;
    let mults = adapter::matrix_mults();
    let open = tracer.open(k, None);
    let start = Instant::now();
    let outs = adapter::pool_map(pool, designs.iter().collect(), |sys| {
        let mut cache = adapter::new_cache(sys);
        let run = tracer.time(&open, "opt.egraph", || {
            adapter::egraph_optimize(sys, adapter::TABLE_V0, &mut cache)
        });
        (run, adapter::cache_counts(&cache))
    });
    let seconds = start.elapsed().as_secs_f64();
    let mults = adapter::matrix_mults().saturating_sub(mults);
    tracer.close(open, "pass", &[("results", designs.len() as u64)]);
    let mut pass = Pass {
        seconds,
        results: designs.len() as u64,
        gains: Vec::new(),
        egraph: Vec::new(),
        cache: CacheCounts::default(),
        mults,
    };
    for (i, out) in outs.into_iter().enumerate() {
        match out.and_then(|(run, cache)| run.map(|r| (r, cache))) {
            Ok((run, cache)) => {
                check_egraph(rep, &format!("pass {k}, design {i}"), &run);
                pass.gains.push(run.gain);
                pass.cache = pass.cache + cache;
                pass.egraph.push(run);
            }
            Err(e) => rep.fail(1, format!("pass {k}, design {i}: {e}")),
        }
    }
    pass
}

/// `synth_egraph`: the e-graph strategy over seeded random stable
/// designs, a fresh draw from the seed's stream every pass. One fixed set
/// per run would make the run's energy gain and memory those of 24
/// designs, which vary far more from seed to seed than the stream does.
pub fn synth_egraph(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut rep = Report::new("synth_egraph", ctx.trace);
    let n = if ctx.smoke { 4 } else { SYNTH_DESIGNS };
    // Set-up: the pool and the first pass's designs, drawn from the start
    // of the seed's stream; later passes continue the stream.
    let setup_s = cpus::time_on_each_cpu(setup_reps(ctx), || {
        let first = synth_designs(&mut adapter::Rng::new(ctx.seed), n);
        (adapter::pool(ctx.jobs), first)
    });
    let pool = adapter::pool(ctx.jobs);
    let mut rng = adapter::Rng::new(ctx.seed);
    let first = synth_designs(&mut rng, n);
    let mut rss_mb = None;
    if !ctx.smoke {
        synth_pass(&pool, &Tracer::new(false), 0, &first, &mut rep);
        rss_mb = Some(first_pass_rss());
    }
    let mut replayed = None;
    let passes = closed_loop(ctx, |k| {
        let designs = synth_designs(&mut rng, n);
        let pass = synth_pass(&pool, tracer, k, &designs, &mut rep);
        rss_mb.get_or_insert_with(first_pass_rss);
        replayed.get_or_insert(designs);
        Some(pass)
    });
    batch_e2e(ctx, &mut rep, setup_s, rss_mb.unwrap_or(0.0), &passes);
    if ctx.trace {
        let designs = replayed.unwrap_or_default();
        for (i, sys) in designs.iter().enumerate() {
            let root = tracer.open(REPLAY_TRACE + i as u64, None);
            let mut cache = adapter::new_cache(sys);
            if let Err(e) = egraph_with_replay(
                tracer,
                &root,
                sys,
                adapter::TABLE_V0,
                &mut cache,
                &mut rep,
                &format!("replay of design {i}"),
            ) {
                rep.fail(1, format!("replaying design {i}: {e}"));
            }
            tracer.close(root, "replay.design", &[]);
        }
    }
    finish_batch(rep, tracer, &passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_draws_the_same_designs_and_another_differs() {
        let draw = |seed| synth_designs(&mut adapter::Rng::new(seed), 6);
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // The stream continues: a second pass draws new designs.
        let mut rng = adapter::Rng::new(1);
        let first = synth_designs(&mut rng, 6);
        assert_ne!(first, synth_designs(&mut rng, 6));
    }
}
