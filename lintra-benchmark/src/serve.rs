//! The service workloads, driven open-loop over real TCP: one durable
//! server with a pre-seeded journal (`serve_light`), and a router over
//! two replicated shard groups (`routed_replicated`).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{self, Cache, CacheCounts, Json, Router, RouterCounts, Server, ServerCounts};
use crate::loadgen::{self, Check, Generator, Planned, Settled, StageRun};
use crate::report::{is_service_layer, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;

/// Open-loop rate of the latency stages, requests/s.
const RATE: f64 = 40.0;

/// Set-up repetitions whose median is `setup_s` (`serve_light`).
const SETUP_REPS: usize = 15;

/// Clusters `routed_replicated` splits its stages over.
///
/// The router and the shard servers each accept new connections on
/// their own `ACCEPT_POLL` tick, and the router opens a new connection
/// to the primary for every request it forwards. A forwarded request
/// therefore waits for the primary's next tick after the router's: a
/// fixed offset set by when the two were started. One cluster per run
/// would make that offset, and with it the latency, one random draw per
/// run. Each cluster instead starts its router at its own, evenly
/// spread phase of the poll, so a run covers every offset a deployment
/// could have.
const PHASES: usize = 16;

/// The accept poll period of `lintra_serve`'s servers and router.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Share of `serve_light` requests that retry a settled key.
const RETRY_SHARE: f64 = 0.2;

/// Settled keys the `serve_light` journal starts with.
const SETTLED_KEYS: usize = 2000;

/// How a run's `--seconds` is split: an open-loop warm-up, the
/// open-loop latency stage at a fixed rate, and the closed-loop
/// capacity stage.
struct Stages {
    warm: Duration,
    fixed: Duration,
    capacity: Duration,
}

impl Stages {
    /// The stages of a run, split evenly into `parts`.
    fn of(ctx: &Ctx, parts: usize) -> Stages {
        let (warm, fixed, capacity) = if ctx.smoke {
            (0.0, 0.5, 0.5)
        } else {
            (0.1, 0.6, 0.3)
        };
        let part = |share: f64| Duration::from_secs_f64(share * ctx.seconds / parts as f64);
        Stages {
            warm: part(warm),
            fixed: part(fixed),
            capacity: part(capacity),
        }
    }
}

/// In-process answers the service must match, computed on demand.
#[derive(Default)]
struct References {
    caches: HashMap<&'static str, Cache>,
    sweeps: HashMap<(&'static str, u32), Json>,
    optimize: HashMap<(&'static str, &'static str), (Json, f64)>,
}

impl References {
    /// The warm unfold cache of `design`, as the server keeps one.
    fn cache(&mut self, design: &'static str) -> Result<&mut Cache, String> {
        Ok(match self.caches.entry(design) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(adapter::design_cache(design)?),
        })
    }

    fn sweep(&mut self, design: &'static str, max_i: u32) -> Result<&Json, String> {
        if !self.sweeps.contains_key(&(design, max_i)) {
            let result = adapter::sweep_result(design, max_i, self.cache(design)?)?;
            self.sweeps.insert((design, max_i), result);
        }
        Ok(&self.sweeps[&(design, max_i)])
    }

    fn optimize(
        &mut self,
        design: &'static str,
        strategy: &'static str,
    ) -> Result<&(Json, f64), String> {
        Ok(match self.optimize.entry((design, strategy)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(adapter::optimize_result(design, strategy)?),
        })
    }
}

/// Everything checked and counted across a workload's stages.
struct Checker<'a> {
    refs: References,
    settled: &'a [Settled],
    /// Power reduction per distinct `(design, strategy)` answered.
    gains: BTreeMap<(&'static str, &'static str), f64>,
}

impl Checker<'_> {
    /// Checks every answer of a stage against its reference.
    fn check(&mut self, rep: &mut Report, plan: &[Planned], run: &StageRun) {
        for s in &run.sent {
            rep.attempted += 1;
            let p = &plan[s.idx];
            let id = adapter::request_id(&p.req);
            let resp = match &s.response {
                Ok(resp) => resp,
                Err(e) => {
                    rep.fail(1, format!("{id}: no response: {e}"));
                    continue;
                }
            };
            let result = match adapter::outcome(resp) {
                Ok(result) => result,
                Err(code) => {
                    rep.fail(1, format!("{id}: answered {code}"));
                    continue;
                }
            };
            if let Err(e) = self.verify(&p.check, id, resp, result) {
                rep.fail(1, format!("{id}: {e}"));
            }
        }
    }

    fn verify(
        &mut self,
        check: &Check,
        id: &str,
        resp: &adapter::Response,
        result: &Json,
    ) -> Result<(), String> {
        match *check {
            Check::Sweep { design, max_i } => {
                if !adapter::json_covers(result, self.refs.sweep(design, max_i)?) {
                    return Err(format!("sweep {design} {max_i} differs from the library's"));
                }
            }
            Check::Optimize { design, strategy } => {
                let (expected, gain) = self.refs.optimize(design, strategy)?.clone();
                if !adapter::json_covers(result, &expected) {
                    return Err(format!(
                        "optimize {design} {strategy} differs from the library's"
                    ));
                }
                self.gains.insert((design, strategy), gain);
            }
            Check::Retry(k) => {
                let first = self.first_answer(k)?;
                let expected = adapter::response_line(&adapter::with_id(&first, id));
                if adapter::response_line(resp) != expected {
                    return Err(format!(
                        "retry of {} is not byte-identical to its first answer",
                        self.settled[k].key
                    ));
                }
            }
        }
        Ok(())
    }

    /// The answer a settled key was first given (and journaled with).
    fn first_answer(&mut self, k: usize) -> Result<adapter::Response, String> {
        let s = &self.settled[k];
        let result = self.refs.sweep(s.design, s.max_i)?.clone();
        Ok(adapter::ok_response(&s.key, result))
    }

    fn energy_gain(&self) -> f64 {
        let gains: Vec<f64> = self.gains.values().copied().collect();
        stats::geomean(&gains).unwrap_or(0.0)
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn ping_ok(addr: &str, id: String) -> Result<Duration, String> {
    let start = Instant::now();
    let resp = adapter::client(addr).send(&adapter::ping(id))?;
    adapter::outcome(&resp).map_err(|code| format!("ping answered {code}"))?;
    Ok(start.elapsed())
}

/// What the stages measured, over every part they were split into.
#[derive(Default)]
struct Measured {
    fixed_plan: Vec<Planned>,
    fixed: StageRun,
    capacity: StageRun,
}

/// Warm-up, the open-loop latency stage and the closed-loop capacity
/// stage against `addr`, checking every answer and appending to `m`.
/// `between` runs before and after the latency stage (counter
/// snapshots).
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    tracer: &Tracer,
    rep: &mut Report,
    addr: &str,
    stages: &Stages,
    gen: &mut Generator,
    checker: &mut Checker,
    m: &mut Measured,
    mut between: impl FnMut(),
) {
    let senders = ctx.jobs;
    if !stages.warm.is_zero() {
        let plan = gen.plan(RATE, stages.warm);
        let run = loadgen::open_loop(addr, &plan, senders, &Tracer::new(false), 0);
        checker.check(rep, &plan, &run);
    }
    between();
    let plan = gen.plan(RATE, stages.fixed);
    let offset = m.fixed_plan.len();
    let fixed = loadgen::open_loop(addr, &plan, senders, tracer, offset as u64);
    checker.check(rep, &plan, &fixed);
    m.fixed_plan.extend(plan);
    m.fixed.append(fixed, offset);
    between();
    let (plan, capacity) = loadgen::closed_loop(addr, gen, senders, stages.capacity);
    checker.check(rep, &plan, &capacity);
    let offset = m.capacity.sent.len();
    m.capacity.append(capacity, offset);
}

/// End-to-end metrics common to the service workloads.
fn serve_e2e(rep: &mut Report, setup_s: f64, m: &Measured, checker: &Checker) {
    let lat = m.fixed.latencies_ms();
    let p50 = stats::median(&lat).unwrap_or(0.0);
    let answered = m.capacity.sent.len() as f64;
    let capacity = answered / m.capacity.elapsed.as_secs_f64().max(1e-9);
    rep.e2e.insert("setup_s", setup_s);
    rep.e2e.insert("latency_ms", p50);
    rep.e2e.insert("throughput_per_s", capacity);
    rep.e2e
        .insert("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(0.0));
    rep.e2e.insert("energy_gain_x", checker.energy_gain());
    let tail = stats::tail(&lat).map_or("no resolvable tail".to_string(), |(p, v)| {
        format!("p{p} {v:.2} ms")
    });
    rep.note(format!(
        "latency stage: {} requests open-loop at {RATE} rps, p50 {p50:.2} ms, {tail}, \
         generator late ≤ {:.1} ms",
        lat.len(),
        m.fixed.late_max_ms()
    ));
    rep.note(format!(
        "capacity stage: {answered} requests closed-loop in {:.2} s, {capacity:.1} requests/s",
        m.capacity.elapsed.as_secs_f64()
    ));
    rep.note(format!(
        "energy gain over {} distinct (design, strategy) answers",
        checker.gains.len()
    ));
}

/// Fixed-stage requests that journal fresh work: `(key, request line,
/// response line)`.
fn journaled(m: &Measured) -> Vec<(String, String, String)> {
    m.fixed
        .sent
        .iter()
        .filter_map(|s| {
            let p = &m.fixed_plan[s.idx];
            let key = adapter::request_key(&p.req)?;
            let resp = s.response.as_ref().ok()?;
            matches!(p.check, Check::Sweep { .. }).then(|| {
                (
                    key.to_string(),
                    adapter::request_line(&p.req),
                    adapter::response_line(resp),
                )
            })
        })
        .collect()
}

/// Service layers measured outside the timed stages, given the probe
/// pings' median: the codec on the stage's frames, journal appends
/// replayed on a scratch journal, and the in-process compute of every
/// request.
fn probe_layers(
    rep: &mut Report,
    ping_ms: f64,
    m: &Measured,
    refs: &mut References,
    scratch: &Path,
) -> Result<(), String> {
    rep.layers.insert("serve.transport.ping_p50_ms", ping_ms);
    let mut codec = Vec::new();
    let mut compute = Vec::new();
    for s in &m.fixed.sent {
        let p = &m.fixed_plan[s.idx];
        if let Ok(resp) = &s.response {
            codec.push(adapter::codec_round_trip(&p.req, resp)?.as_secs_f64() * 1e6);
        }
        let start = Instant::now();
        match p.check {
            Check::Sweep { design, max_i } => {
                adapter::sweep_result(design, max_i, refs.cache(design)?)?;
            }
            Check::Optimize { design, strategy } => {
                adapter::optimize_result(design, strategy)?;
            }
            // Answered from the journal: nothing to compute.
            Check::Retry(_) => continue,
        }
        compute.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let codec_us = stats::median(&codec).unwrap_or(0.0);
    let compute_ms = stats::median(&compute).unwrap_or(0.0);
    rep.layers.insert("wire.codec_us", codec_us);
    rep.layers.insert("serve.compute_p50_ms", compute_ms);

    let records = journaled(m);
    let appends: Vec<f64> = adapter::time_journal_appends(scratch, &records)?
        .into_iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let append_p50 = stats::median(&appends).unwrap_or(0.0);
    rep.layers.insert("serve.journal.append_p50_ms", append_p50);
    rep.layers.insert(
        "serve.journal.append_p99_ms",
        stats::percentile(&appends, 990).unwrap_or(0.0),
    );

    // A fresh keyed request fsyncs twice (admit, done) before replying.
    let sent = m.fixed.sent.len();
    let journal_share = records.len() as f64 / sent.max(1) as f64;
    let p50 = stats::median(&m.fixed.latencies_ms()).unwrap_or(0.0);
    let attributed = ping_ms + journal_share * 2.0 * append_p50 + compute_ms + codec_us * 1e-3;
    rep.layers.insert("serve.unattributed_ms", p50 - attributed);
    rep.layers
        .insert("loadgen.late_max_ms", m.fixed.late_max_ms());
    rep.layers.insert("loadgen.sent", sent as f64);
    rep.note(format!(
        "p50 {p50:.3} ms = ping {ping_ms:.3} + journal {:.3} ({:.0}% of requests x 2 appends) \
         + compute {compute_ms:.3} + codec {:.3} + unattributed {:.3} ms",
        journal_share * 2.0 * append_p50,
        journal_share * 100.0,
        codec_us * 1e-3,
        p50 - attributed
    ));
    Ok(())
}

/// Probe pings after `sent` stage requests: one per ten.
fn probe_pings(ctx: &Ctx, sent: usize) -> usize {
    if ctx.smoke {
        5
    } else {
        (sent / 10).clamp(5, 100)
    }
}

/// `n` sequential pings from one client, in milliseconds. Each waits a
/// random pause first, so pings land at random phases of the servers'
/// accept polls, as independent requests do.
fn pings_ms(addr: &str, n: usize, tag: &str, rng: &mut adapter::Rng) -> Result<Vec<f64>, String> {
    let mut client = adapter::client(addr);
    let mut ms = Vec::with_capacity(n);
    for k in 0..n {
        std::thread::sleep(Duration::from_secs_f64(0.025 * rng.next_f64()));
        let start = Instant::now();
        let resp = client.send(&adapter::ping(format!("{tag}{k}")))?;
        adapter::outcome(&resp).map_err(|code| format!("ping answered {code}"))?;
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ms)
}

/// Server, sweep-cache, kernel and router counters, summed over a
/// stage's servers, so that deltas over the latency stage can be taken
/// and added up.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    server: ServerCounts,
    cache: CacheCounts,
    mults: u64,
    router: RouterCounts,
}

impl Counts {
    fn of(servers: &[&Server], router: Option<&Router>) -> Counts {
        let mut c = Counts {
            mults: adapter::matrix_mults(),
            router: router.map(Router::stats).unwrap_or_default(),
            ..Counts::default()
        };
        for srv in servers {
            let s = srv.stats();
            c.server.failed += s.failed;
            c.server.shed += s.shed;
            c.server.deduped += s.deduped;
            c.cache = c.cache + srv.cache();
        }
        c
    }

    /// Adds what changed from `before` to `after`.
    fn add_delta(&mut self, before: Counts, after: Counts) {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        self.server.failed += d(before.server.failed, after.server.failed);
        self.server.shed += d(before.server.shed, after.server.shed);
        self.server.deduped += d(before.server.deduped, after.server.deduped);
        self.cache.hits += d(before.cache.hits, after.cache.hits);
        self.cache.misses += d(before.cache.misses, after.cache.misses);
        self.mults += d(before.mults, after.mults);
        self.router.retries += d(before.router.retries, after.router.retries);
        self.router.hedges += d(before.router.hedges, after.router.hedges);
        self.router.hedge_wins += d(before.router.hedge_wins, after.router.hedge_wins);
    }
}

/// Counter deltas over the latency stage.
fn server_layers(rep: &mut Report, delta: Counts, sent: usize) {
    let sent = sent.max(1) as f64;
    rep.layers.insert(
        "serve.server.dedup_share",
        delta.server.deduped as f64 / sent,
    );
    rep.layers
        .insert("serve.server.shed", delta.server.shed as f64);
    rep.layers
        .insert("serve.server.failed", delta.server.failed as f64);
    let CacheCounts { hits, misses } = delta.cache;
    rep.layers.insert("engine.cache_hits", hits as f64);
    rep.layers.insert("engine.cache_misses", misses as f64);
    rep.layers.insert(
        "engine.cache_hit_rate",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    rep.layers.insert("matrix.mults", delta.mults as f64 / sent);
}

// --- serve_light -------------------------------------------------------------

/// `serve_light`: one durable server, journal pre-seeded with settled
/// keys, a fifth of requests retrying them.
pub fn serve_light(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut rep = Report::new("serve_light", ctx.trace);
    let dir = ctx
        .run_dir
        .join(format!("serve_light-{}", std::process::id()));
    if let Err(e) = serve_light_in(ctx, tracer, &mut rep, &dir) {
        rep.fail(1, e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

fn serve_light_in(ctx: &Ctx, tracer: &Tracer, rep: &mut Report, dir: &Path) -> Result<(), String> {
    fresh_dir(dir)?;
    let journal = dir.join("journal");
    let designs = adapter::design_names();
    let mut refs = References::default();

    // The settled keys: sweeps whose answers are already journaled.
    let n_settled = if ctx.smoke { 200 } else { SETTLED_KEYS };
    let mut rng = adapter::Rng::new(ctx.seed ^ 0x5E77_1ED0);
    let (lo, hi) = loadgen::SWEEP_MAX_I;
    let settled: Vec<Settled> = (0..n_settled)
        .map(|k| Settled {
            key: format!("s{k}"),
            design: designs[rng.next_below(designs.len() as u64) as usize],
            max_i: lo + rng.next_below(u64::from(hi - lo + 1)) as u32,
        })
        .collect();
    let mut records = Vec::with_capacity(settled.len());
    for s in &settled {
        let req = adapter::sweep(s.key.clone(), s.design, s.max_i, Some(s.key.clone()));
        let resp = adapter::ok_response(&s.key, refs.sweep(s.design, s.max_i)?.clone());
        records.push((
            s.key.clone(),
            adapter::request_line(&req),
            adapter::response_line(&resp),
        ));
    }
    adapter::write_settled_journal(&journal, &records)?;

    // Set-up is the server's start: journal recovery, snapshot loading,
    // bind; the median of several starts, all but the last shut down
    // again. The first ping only proves it serves; its wait is the accept
    // poll's phase, which would make set-up time bimodal.
    let mut starts = Vec::new();
    let mut server = None;
    for _ in 0..if ctx.smoke { 1 } else { SETUP_REPS } {
        if let Some(previous) = server.take() {
            Server::shutdown(previous);
        }
        let start = Instant::now();
        let started = adapter::start_server(ctx.jobs, &journal, None)?;
        starts.push(start.elapsed().as_secs_f64());
        ping_ok(&started.addr(), "setup".to_string())?;
        server = Some(started);
    }
    let setup_s = stats::median(&starts).unwrap_or(0.0);
    let server = server.ok_or("no server started")?;
    if server.recovered_keys() != n_settled {
        rep.fail(
            0,
            format!(
                "recovered {} settled keys from the journal, expected {n_settled}",
                server.recovered_keys()
            ),
        );
    }
    let addr = server.addr();
    let mut gen = Generator::new(ctx.seed, designs, RETRY_SHARE, settled.clone());
    let mut checker = Checker {
        refs,
        settled: &settled,
        gains: BTreeMap::new(),
    };
    let mut counts = Vec::new();
    let mut measured = Measured::default();
    drive(
        ctx,
        tracer,
        rep,
        &addr,
        &Stages::of(ctx, 1),
        &mut gen,
        &mut checker,
        &mut measured,
        || counts.push(Counts::of(&[&server], None)),
    );
    serve_e2e(rep, setup_s, &measured, &checker);

    if ctx.trace {
        let n = probe_pings(ctx, measured.fixed.sent.len());
        let mut rng = adapter::Rng::new(ctx.seed);
        let ping_ms = stats::median(&pings_ms(&addr, n, "probe", &mut rng)?).unwrap_or(0.0);
        let scratch = dir.join("scratch-journal");
        probe_layers(rep, ping_ms, &measured, &mut checker.refs, &scratch)?;
        if let [before, after] = counts[..] {
            let mut delta = Counts::default();
            delta.add_delta(before, after);
            server_layers(rep, delta, measured.fixed.sent.len());
        }
    }
    server.shutdown();
    if ctx.trace {
        let (t, keys) = adapter::time_journal_recovery(&journal)?;
        rep.layers
            .insert("serve.journal.recover_s", t.as_secs_f64());
        rep.note(format!("journal recovery: {keys} settled keys"));
        // No router and no replication on a lone server.
        rep.zero_layers(|name| {
            !is_service_layer(name)
                || name.starts_with("serve.router.")
                || name.starts_with("serve.replicate.")
        });
    }
    Ok(())
}

// --- routed_replicated ---------------------------------------------------------

/// Two shard groups (a primary and its follower each) behind a router.
struct Cluster {
    base: PathBuf,
    router: Router,
    primaries: Vec<Server>,
    followers: Vec<Server>,
}

impl Cluster {
    /// Starts the shard groups, waits `router_after`, then starts the
    /// router. Returns the cluster and the seconds spent starting it,
    /// the wait excluded.
    fn start(base: PathBuf, router_after: Duration) -> Result<(f64, Cluster), String> {
        let start = Instant::now();
        let mut primaries = Vec::new();
        let mut followers = Vec::new();
        for g in 0..2 {
            let p = adapter::start_server(1, &base.join(format!("p{g}")), None)?;
            let f = adapter::start_server(1, &base.join(format!("f{g}")), Some(p.addr()))?;
            primaries.push(p);
            followers.push(f);
        }
        let shards = primaries
            .iter()
            .zip(&followers)
            .map(|(p, f)| vec![p.addr(), f.addr()])
            .collect();
        let mut setup_s = start.elapsed().as_secs_f64();
        std::thread::sleep(router_after);
        let start = Instant::now();
        let router = adapter::start_router(shards)?;
        setup_s += start.elapsed().as_secs_f64();
        let cluster = Cluster {
            base,
            router,
            primaries,
            followers,
        };
        Ok((setup_s, cluster))
    }

    /// Records the primaries hold that their followers do not yet.
    fn lag(&self) -> u64 {
        self.primaries
            .iter()
            .zip(&self.followers)
            .map(|(p, f)| p.seq().saturating_sub(f.seq()))
            .max()
            .unwrap_or(0)
    }

    /// Both shards healthy at the router and every follower caught up.
    fn ready(&self) -> bool {
        adapter::healthy_shards(&self.router.addr()) == Some(2) && self.lag() == 0
    }

    fn counts(&self) -> Counts {
        let primaries: Vec<&Server> = self.primaries.iter().collect();
        Counts::of(&primaries, Some(&self.router))
    }

    fn shutdown(self) {
        self.router.shutdown();
        for f in self.followers {
            f.shutdown();
        }
        for p in self.primaries {
            p.shutdown();
        }
    }
}

fn wait_until(limit: Duration, mut ok: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < limit {
        if ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// `routed_replicated`: client → router → shard primary → journal →
/// compute → replication → reply, fresh keys only.
pub fn routed_replicated(ctx: &Ctx, tracer: &Tracer) -> Report {
    let mut rep = Report::new("routed_replicated", ctx.trace);
    let dir = ctx
        .run_dir
        .join(format!("routed_replicated-{}", std::process::id()));
    if let Err(e) = routed_in(ctx, tracer, &mut rep, &dir) {
        rep.fail(1, e);
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep
}

/// What the traced probes of `routed_replicated` collect over its
/// clusters.
#[derive(Default)]
struct RoutedProbes {
    routed_ms: Vec<f64>,
    direct_ms: Vec<f64>,
    catchup_ms: Vec<f64>,
    lag_max: u64,
    delta: Counts,
}

fn routed_in(ctx: &Ctx, tracer: &Tracer, rep: &mut Report, dir: &Path) -> Result<(), String> {
    fresh_dir(dir)?;
    let phases = if ctx.smoke { 2 } else { PHASES };
    let stages = Stages::of(ctx, phases);
    let mut rng = adapter::Rng::new(ctx.seed ^ 0x0A11_0C47);
    let phase = rng.next_f64();
    let mut gen = Generator::new(ctx.seed, adapter::design_names(), 0.0, Vec::new());
    let mut checker = Checker {
        refs: References::default(),
        settled: &[],
        gains: BTreeMap::new(),
    };
    let mut measured = Measured::default();
    let mut probes = RoutedProbes::default();
    let mut setups = Vec::new();
    let mut phase_p50 = Vec::new();
    let mut last_base = None;
    for k in 0..phases {
        // Set-up is starting every server and the router. Waiting for
        // the router's prober to see both shards is not timed: it is
        // paced by the probe interval and the accept polls, not by work.
        let router_after = ACCEPT_POLL.mul_f64((k as f64 + phase) / phases as f64);
        let (setup_s, cluster) = Cluster::start(dir.join(format!("cluster{k}")), router_after)?;
        setups.push(setup_s);
        if !wait_until(Duration::from_secs(10), || cluster.ready()) {
            cluster.shutdown();
            return Err("the cluster did not become ready within 10 s".to_string());
        }
        let sent_before = measured.fixed.sent.len();
        let out = routed_phase(
            ctx,
            tracer,
            rep,
            &cluster,
            &stages,
            &mut gen,
            &mut checker,
            &mut measured,
            &mut probes,
            &mut rng,
        );
        last_base = Some(cluster.base.clone());
        cluster.shutdown();
        out?;
        let lat = measured.fixed.latencies_ms();
        phase_p50.push(stats::median(&lat[sent_before..]).unwrap_or(0.0));
    }
    let setup_s = stats::median(&setups).unwrap_or(0.0);
    serve_e2e(rep, setup_s, &measured, &checker);
    let p50s: Vec<String> = phase_p50.iter().map(|v| format!("{v:.1}")).collect();
    rep.note(format!(
        "{phases} clusters, the router started at evenly spread phases of the shards' \
         {} ms accept poll; latency p50 per cluster [{}] ms",
        ACCEPT_POLL.as_millis(),
        p50s.join(", ")
    ));

    if ctx.trace {
        let routed_ping = stats::median(&probes.routed_ms).unwrap_or(0.0);
        let direct_ping = stats::median(&probes.direct_ms).unwrap_or(0.0);
        let scratch = dir.join("scratch-journal");
        probe_layers(rep, routed_ping, &measured, &mut checker.refs, &scratch)?;
        // Both paths cross one accept poll (the primary's), so the
        // difference is the router's own cost.
        rep.layers
            .insert("serve.router.hop_ms", routed_ping - direct_ping);
        server_layers(rep, probes.delta, measured.fixed.sent.len());
        let r = probes.delta.router;
        rep.layers.insert("serve.router.retries", r.retries as f64);
        rep.layers.insert("serve.router.hedges", r.hedges as f64);
        rep.layers
            .insert("serve.router.hedge_wins", r.hedge_wins as f64);
        rep.layers.insert(
            "serve.replicate.catchup_ms",
            stats::median(&probes.catchup_ms).unwrap_or(0.0),
        );
        rep.layers
            .insert("serve.replicate.lag_max_records", probes.lag_max as f64);
        let shard0 = last_base.ok_or("no cluster ran")?.join("p0");
        let (t, keys) = adapter::time_journal_recovery(&shard0)?;
        rep.layers
            .insert("serve.journal.recover_s", t.as_secs_f64());
        rep.note(format!(
            "journal recovery of the last cluster's shard-0 primary: {keys} settled keys"
        ));
        rep.zero_layers(|name| !is_service_layer(name));
    }
    Ok(())
}

/// One cluster's share of the stages, and in traced runs its probes:
/// replication lag sampled every 100 ms during the latency stage, the
/// followers' catch-up after the stages, and pings through the router
/// and straight to a primary.
#[allow(clippy::too_many_arguments)]
fn routed_phase(
    ctx: &Ctx,
    tracer: &Tracer,
    rep: &mut Report,
    cluster: &Cluster,
    stages: &Stages,
    gen: &mut Generator,
    checker: &mut Checker,
    measured: &mut Measured,
    probes: &mut RoutedProbes,
    rng: &mut adapter::Rng,
) -> Result<(), String> {
    let addr = cluster.router.addr();
    let sent_before = measured.fixed.sent.len();
    let mut counts = Vec::new();
    let lag_max = AtomicU64::new(0);
    let sampling = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        if ctx.trace {
            s.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    if sampling.load(Ordering::SeqCst) {
                        lag_max.fetch_max(cluster.lag(), Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        drive(
            ctx,
            tracer,
            rep,
            &addr,
            stages,
            gen,
            checker,
            measured,
            || {
                counts.push(cluster.counts());
                // Sample replication lag during the latency stage only.
                sampling.store(counts.len() == 1, Ordering::SeqCst);
            },
        );
        done.store(true, Ordering::SeqCst);
    });
    if !ctx.trace {
        return Ok(());
    }
    probes.lag_max = probes.lag_max.max(lag_max.load(Ordering::SeqCst));
    if let [before, after] = counts[..] {
        probes.delta.add_delta(before, after);
    }
    let start = Instant::now();
    if !wait_until(Duration::from_secs(10), || cluster.lag() == 0) {
        rep.fail(0, "followers did not catch up within 10 s".to_string());
    }
    probes.catchup_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let n = probe_pings(ctx, measured.fixed.sent.len() - sent_before);
    probes.routed_ms.extend(pings_ms(&addr, n, "probe", rng)?);
    let primary = cluster.primaries[0].addr();
    probes
        .direct_ms
        .extend(pings_ms(&primary, n, "direct", rng)?);
    Ok(())
}
