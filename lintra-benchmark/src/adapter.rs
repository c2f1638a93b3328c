//! The benchmark's only door into lintra. Every call into the pipeline,
//! the suite harness, the wire codec and the service goes through this
//! module and comes back as benchmark-owned data, so an API
//! consolidation has exactly one file to follow.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use lintra::dfg::{build, OpCounts};
use lintra::egraph::{EGraph, RuleSet};
use lintra::engine::{CacheStats, SweepCache, ThreadPool};
use lintra::linsys::{unfold, StateSpace};
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, TechConfig};
use lintra::power::EnergyBreakdown;
use lintra::transform::horner::HornerForm;
use lintra::transform::mcm_pass::{expand_multiplications, McmPassConfig};
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_bench::{
    egraph_rows_engine, table2_rows_engine, table3_rows_engine, table4_rows_engine,
    unfold_sweep_cached,
};
use lintra_serve::journal::{encode_record, JOURNAL_FILE};
use lintra_serve::{
    read_line, Journal, RecordKind, RetryPolicy, RouterConfig, RouterHandle, ServerConfig,
    ServerHandle, SystemClock, TcpTransport, Transport,
};

pub use lintra::matrix::rng::SplitMix64 as Rng;
pub use lintra_bench::json::Json;
pub use lintra_bench::SuiteCaches;

/// A linear system handed to the optimizers.
pub type System = StateSpace;
/// The engine's work-stealing pool.
pub type Pool = ThreadPool;
/// One design's incremental unfold cache.
pub type Cache = SweepCache;
/// Energy per sample, broken down by operation (compared bit for bit).
pub type Energy = EnergyBreakdown;
/// One wire request.
pub type Request = WireRequest;
/// One wire response.
pub type Response = WireResponse;

/// Initial supply voltage of the paper's Tables 2–4.
pub const TABLE_V0: f64 = 3.3;
/// Initial supply voltage of the e-graph suite (`bench_report`'s).
pub const EGRAPH_SUITE_V0: f64 = 5.0;

/// The committed reference renderings of Tables 2–4, in table order.
pub const GOLDEN_TABLES: [&str; 3] = [
    include_str!("../../tests/golden/table2.txt"),
    include_str!("../../tests/golden/table3.txt"),
    include_str!("../../tests/golden/table4.txt"),
];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// --- engine and designs ---------------------------------------------------

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Products served from a cache.
    pub hits: u64,
    /// Products computed.
    pub misses: u64,
}

impl std::ops::Add for CacheCounts {
    type Output = CacheCounts;
    fn add(self, o: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
        }
    }
}

fn cache_counts_of(s: CacheStats) -> CacheCounts {
    CacheCounts {
        hits: s.hits,
        misses: s.misses,
    }
}

/// A pool with `jobs` workers.
pub fn pool(jobs: usize) -> Pool {
    ThreadPool::new(jobs)
}

/// Evaluates `f` over `items` on the pool, results in input order; an
/// item whose evaluation panicked comes back as an error.
pub fn pool_map<I, T, F>(pool: &Pool, items: Vec<I>, f: F) -> Vec<Result<T, String>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    pool.map(items, f)
        .into_iter()
        .map(|r| r.map_err(err))
        .collect()
}

/// The Table-1 designs, in suite order, as `(name, system)`.
pub fn paper_designs() -> Vec<(&'static str, System)> {
    lintra::suite::suite()
        .into_iter()
        .map(|d| (d.name, d.system))
        .collect()
}

/// A seeded random stable system (see `lintra::suite::random_stable`).
pub fn random_design(p: usize, q: usize, r: usize, sparsity: f64, seed: u64) -> System {
    lintra::suite::random_stable(p, q, r, sparsity, seed)
}

/// A cold unfold cache for `sys`.
pub fn new_cache(sys: &System) -> Cache {
    SweepCache::new(sys)
}

/// A cache's cumulative counters.
pub fn cache_counts(cache: &Cache) -> CacheCounts {
    cache_counts_of(cache.stats())
}

/// Scalar multiplications the matrix kernels have performed so far in
/// this process.
pub fn matrix_mults() -> u64 {
    lintra::matrix::kernel_counters().mults
}

// --- the paper suite through the engine -----------------------------------

/// One table generator run over the suite.
#[derive(Debug, Clone)]
pub struct TableRun {
    /// The table exactly as `lintra tables` prints it.
    pub text: String,
    /// Per-row improvement factor (power or energy reduction).
    pub gains: Vec<f64>,
    /// Cache counters this call accumulated.
    pub cache: CacheCounts,
}

/// Table 2 (single processor) over the suite.
pub fn table2(pool: &Pool, caches: &SuiteCaches) -> Result<TableRun, String> {
    let (rows, stats) = table2_rows_engine(TABLE_V0, pool, caches).map_err(err)?;
    Ok(TableRun {
        text: render_table2(&rows, TABLE_V0, false),
        gains: rows
            .iter()
            .map(|r| r.result.real.power_reduction())
            .collect(),
        cache: cache_counts_of(stats),
    })
}

/// Table 3 (single processor plus `N = R` processors) over the suite.
pub fn table3(pool: &Pool, caches: &SuiteCaches) -> Result<TableRun, String> {
    let (rows, stats) = table3_rows_engine(TABLE_V0, pool, caches).map_err(err)?;
    Ok(TableRun {
        text: render_table3(&rows, TABLE_V0),
        gains: rows.iter().map(|r| r.multi.power_reduction()).collect(),
        cache: cache_counts_of(stats),
    })
}

/// Table 4 (the §5 ASIC script) over the suite.
pub fn table4(pool: &Pool, caches: &SuiteCaches) -> Result<TableRun, String> {
    let (rows, stats) = table4_rows_engine(TABLE_V0, pool, caches).map_err(err)?;
    Ok(TableRun {
        text: render_table4(&rows, TABLE_V0),
        gains: rows.iter().map(|r| r.result.improvement()).collect(),
        cache: cache_counts_of(stats),
    })
}

/// One equality-saturation result.
#[derive(Debug, Clone)]
pub struct EgraphRun {
    /// Unfolding factor the strategy chose.
    pub unfolding: u32,
    /// Operating voltage it reached.
    pub voltage: f64,
    /// Initial voltage it started from.
    pub v0: f64,
    /// Energy improvement over the original datapath.
    pub gain: f64,
    /// Improvement over the fixed §5 script (≥ 1 by construction).
    pub vs_script: f64,
    /// Energy per sample of the winning realization.
    pub optimized: Energy,
    /// Energy per sample of the fixed script's realization.
    pub script: Energy,
    /// E-nodes the saturation created.
    pub enodes: usize,
    /// Rule sweeps it ran.
    pub iterations: usize,
    /// Seconds in the match / apply / rebuild phases.
    pub phases_s: [f64; 3],
}

fn egraph_run(r: &saturate::SaturateResult, v0: f64) -> EgraphRun {
    EgraphRun {
        unfolding: r.unfolding,
        voltage: r.voltage,
        v0,
        gain: r.improvement(),
        vs_script: r.vs_script(),
        optimized: r.optimized,
        script: r.script,
        enodes: r.stats.enodes,
        iterations: r.stats.iterations,
        phases_s: [r.stats.match_s, r.stats.apply_s, r.stats.rebuild_s],
    }
}

/// The e-graph suite (`egraph_rows_engine` at 5.0 V).
pub fn egraph_suite(
    pool: &Pool,
    caches: &SuiteCaches,
) -> Result<(Vec<EgraphRun>, CacheCounts), String> {
    let (rows, stats) = egraph_rows_engine(EGRAPH_SUITE_V0, pool, caches).map_err(err)?;
    let runs = rows
        .iter()
        .map(|r| egraph_run(&r.result, EGRAPH_SUITE_V0))
        .collect();
    Ok((runs, cache_counts_of(stats)))
}

// --- single strategy calls --------------------------------------------------

fn tech(v0: f64) -> TechConfig {
    TechConfig::dac96(v0)
}

/// §3 on one processor; returns the power reduction.
pub fn single_optimize(sys: &System, v0: f64, cache: &mut Cache) -> Result<f64, String> {
    single::optimize_cached(sys, &tech(v0), cache)
        .map(|r| r.real.power_reduction())
        .map_err(err)
}

/// §4 with `N = R` processors; returns the power reduction.
pub fn multi_optimize(sys: &System, v0: f64, inner: &Pool) -> Result<f64, String> {
    multi::optimize_with_pool(sys, &tech(v0), ProcessorSelection::StatesCount, inner)
        .map(|r| r.power_reduction())
        .map_err(err)
}

/// The §5 script; returns `(unfolding, improvement)`.
pub fn asic_optimize(sys: &System, v0: f64, cache: &mut Cache) -> Result<(u32, f64), String> {
    asic::optimize_cached(sys, &tech(v0), &asic::AsicConfig::default(), cache)
        .map(|r| (r.unfolding, r.improvement()))
        .map_err(err)
}

/// The equality-saturation strategy.
pub fn egraph_optimize(sys: &System, v0: f64, cache: &mut Cache) -> Result<EgraphRun, String> {
    saturate::optimize_cached(sys, &tech(v0), &saturate::SaturateConfig::default(), cache)
        .map(|r| egraph_run(&r, v0))
        .map_err(err)
}

// --- outside-in layer replay ------------------------------------------------

/// One replayed layer call and when it ran.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Layer span name (`transform.mcm_pass`, `egraph.saturate`, …).
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// End of the call.
    pub end: Instant,
}

/// What a replay of one strategy's layers found.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// The layer calls, in order.
    pub steps: Vec<Step>,
    /// Multipliers the MCM pass removed.
    pub muls_removed: u64,
    /// The energy the replayed e-graph strategy arrives at (e-graph
    /// replays only).
    pub optimized: Option<Energy>,
}

fn step<T>(steps: &mut Vec<Step>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    steps.push(Step {
        name,
        start,
        end: Instant::now(),
    });
    out
}

/// Replays the §5 script's transformations at the unfolding a strategy
/// chose: `HornerForm::new` → `to_dfg` → `expand_multiplications`.
/// Returns the replay plus the Horner and shift-add graphs.
fn replay_script(
    sys: &System,
    unfolding: u32,
    replay: &mut Replay,
) -> Result<(lintra::dfg::Dfg, lintra::dfg::Dfg), String> {
    let cfg = asic::AsicConfig::default();
    let horner = step(&mut replay.steps, "transform.horner", || {
        HornerForm::new(sys, unfolding)
            .map_err(err)
            .and_then(|h| h.to_dfg().map_err(err))
    })?;
    let (shifted, report) = step(&mut replay.steps, "transform.mcm_pass", || {
        expand_multiplications(
            &horner,
            McmPassConfig {
                frac_bits: cfg.frac_bits,
                recoding: cfg.recoding,
            },
        )
        .map_err(err)
    })?;
    replay.muls_removed = report.muls_removed;
    Ok((horner, shifted))
}

/// Replays the ASIC script's layers at `unfolding`.
pub fn replay_asic(sys: &System, unfolding: u32) -> Result<Replay, String> {
    let mut replay = Replay::default();
    replay_script(sys, unfolding, &mut replay)?;
    Ok(replay)
}

/// Replays the e-graph strategy's layers at the operating point `run`
/// chose — script transformations, unfold and DFG build, e-graph seeding,
/// saturation, extraction and the per-sample accounting — and reports
/// the energy the replay arrives at, for a bit-for-bit comparison with
/// `run.optimized`.
pub fn replay_egraph(sys: &System, run: &EgraphRun) -> Result<Replay, String> {
    let cfg = saturate::SaturateConfig::default();
    let mut replay = Replay::default();
    let (horner, shifted) = replay_script(sys, run.unfolding, &mut replay)?;
    let steps = &mut replay.steps;
    let unfolded = step(steps, "linsys.unfold", || {
        unfold(sys, run.unfolding).map_err(err)
    })?;
    let unfolded = step(steps, "dfg.build", || {
        build::from_unfolded(&unfolded).map_err(err)
    })?;
    let (mut eg, roots) = step(steps, "egraph.seed", || {
        let (mut eg, roots) = EGraph::from_dfg(&horner).map_err(err)?;
        let u = eg.add_dfg(&unfolded).map_err(err)?;
        eg.union_roots(&roots, &u).map_err(err)?;
        let s = eg.add_dfg(&shifted).map_err(err)?;
        eg.union_roots(&roots, &s).map_err(err)?;
        Ok::<_, String>((eg, roots))
    })?;
    step(steps, "egraph.saturate", || {
        eg.saturate(
            &RuleSet::asic(cfg.asic.frac_bits, cfg.asic.recoding),
            &cfg.budget,
        )
    });
    let optimized = step(steps, "egraph.extract", || {
        let model = tech(run.v0).energy_cost(run.voltage);
        let extraction = eg.extract(&roots, &model).map_err(err)?;
        let n = u64::from(run.unfolding) + 1;
        let (p, q, r) = sys.dims();
        let per = |x: u64| x.div_ceil(n);
        let oc = extraction.dfg.op_counts();
        let extracted = model.breakdown(&OpCounts {
            adds: per(oc.adds),
            muls: per(oc.muls),
            shifts: per(oc.shifts),
            delays: per(r as u64) + (p + q) as u64,
            negs: 0,
        });
        Ok::<_, String>(if extracted.total_j() <= run.script.total_j() {
            extracted
        } else {
            run.script
        })
    })?;
    replay.optimized = Some(optimized);
    Ok(replay)
}

// --- wire ---------------------------------------------------------------------

/// Wire names of the designs the service knows, in suite order.
pub fn design_names() -> Vec<&'static str> {
    lintra::suite::suite().into_iter().map(|d| d.name).collect()
}

/// A liveness probe.
pub fn ping(id: String) -> Request {
    WireRequest::new(id, WireOp::Ping)
}

/// An unfolding sweep, keyed for journal dedup when `key` is given.
pub fn sweep(id: String, design: &str, max_i: u32, key: Option<String>) -> Request {
    let req = WireRequest::new(
        id,
        WireOp::Sweep {
            design: design.to_string(),
            max_i,
        },
    );
    match key {
        Some(k) => req.with_request_id(k),
        None => req,
    }
}

/// One optimizer strategy on one design at 3.3 V.
pub fn optimize(id: String, design: &str, strategy: &str) -> Request {
    WireRequest::new(
        id,
        WireOp::Optimize {
            design: design.to_string(),
            strategy: strategy.to_string(),
            v0: TABLE_V0,
            processors: None,
        },
    )
}

/// The request's correlation id.
pub fn request_id(req: &Request) -> &str {
    &req.id
}

/// The request's idempotency key, if keyed.
pub fn request_key(req: &Request) -> Option<&str> {
    req.request_id.as_deref()
}

/// The one-line wire form of a request.
pub fn request_line(req: &Request) -> String {
    req.render_line()
}

/// The one-line wire form of a response.
pub fn response_line(resp: &Response) -> String {
    resp.render_line()
}

/// A success response carrying `result`.
pub fn ok_response(id: &str, result: Json) -> Response {
    WireResponse::ok(id, result)
}

/// A response with its correlation id replaced (dedup answers echo the
/// retry's id around the journaled bytes).
pub fn with_id(resp: &Response, id: &str) -> Response {
    let mut r = resp.clone();
    r.id = id.to_string();
    r
}

/// The result of a success response, or the failure code.
pub fn outcome(resp: &Response) -> Result<&Json, &str> {
    resp.outcome.as_ref().map_err(|f| f.code.as_str())
}

/// Times one full codec round trip of a request/response pair: render
/// and parse both frames, as client and server each do once.
pub fn codec_round_trip(req: &Request, resp: &Response) -> Result<Duration, String> {
    let start = Instant::now();
    let req_line = req.render_line();
    let parsed_req = WireRequest::parse(&req_line)?;
    let resp_line = resp.render_line();
    let parsed_resp = WireResponse::parse(&resp_line)?;
    let elapsed = start.elapsed();
    if parsed_req != *req || parsed_resp != *resp {
        return Err("codec round trip changed a frame".to_string());
    }
    Ok(elapsed)
}

// --- in-process references ----------------------------------------------------

fn design(name: &str) -> Result<System, String> {
    lintra::suite::by_name(name)
        .map(|d| d.system)
        .ok_or_else(|| format!("unknown design {name}"))
}

/// What the service answers a `sweep` with, computed in-process.
pub fn sweep_result(design_name: &str, max_i: u32, cache: &mut Cache) -> Result<Json, String> {
    let rows = unfold_sweep_cached(max_i, cache).map_err(err)?;
    Ok(Json::obj([
        ("design", Json::Str(design_name.to_string())),
        (
            "rows",
            Json::Arr(
                rows.into_iter()
                    .map(|(i, muls, adds)| {
                        Json::Arr(vec![
                            Json::Num(f64::from(i)),
                            Json::Num(muls),
                            Json::Num(adds),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// A cold cache for a named design.
pub fn design_cache(name: &str) -> Result<Cache, String> {
    Ok(SweepCache::new(&design(name)?))
}

/// What the service answers `optimize` (single or multi, 3.3 V) with,
/// computed in-process: `(result members, power reduction)`.
pub fn optimize_result(design_name: &str, strategy: &str) -> Result<(Json, f64), String> {
    let sys = design(design_name)?;
    let t = tech(TABLE_V0);
    let name = Json::Str(design_name.to_string());
    match strategy {
        "single" => {
            let r = single::optimize(&sys, &t).map_err(err)?;
            let gain = r.real.power_reduction();
            Ok((
                Json::obj([
                    ("strategy", Json::Str("single".to_string())),
                    ("design", name),
                    ("unfolding", Json::Num(r.real.unfolding as f64)),
                    ("speedup", Json::Num(r.real.speedup)),
                    ("voltage", Json::Num(r.real.scaling.voltage)),
                    ("power_reduction", Json::Num(gain)),
                ]),
                gain,
            ))
        }
        "multi" => {
            let r = multi::optimize(&sys, &t, ProcessorSelection::StatesCount).map_err(err)?;
            let gain = r.power_reduction();
            Ok((
                Json::obj([
                    ("strategy", Json::Str("multi".to_string())),
                    ("design", name),
                    ("processors", Json::Num(r.processors as f64)),
                    ("unfolding", Json::Num(r.unfolding as f64)),
                    ("speedup", Json::Num(r.speedup)),
                    ("voltage", Json::Num(r.scaling.voltage)),
                    ("power_reduction", Json::Num(gain)),
                ]),
                gain,
            ))
        }
        other => Err(format!("no reference for strategy {other}")),
    }
}

/// True when every member of `expected` appears in `got` with an equal
/// value (responses may carry more members than the reference pins).
pub fn json_covers(got: &Json, expected: &Json) -> bool {
    match expected {
        Json::Obj(members) => members
            .iter()
            .all(|(k, v)| got.get(k).is_some_and(|g| json_covers(g, v))),
        _ => got == expected,
    }
}

// --- the service ----------------------------------------------------------------

/// Server counters, as `ServerHandle::stats` reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounts {
    /// Requests answered with a failure.
    pub failed: u64,
    /// Requests shed with `RES-OVERLOAD`.
    pub shed: u64,
    /// Retries answered from the journal.
    pub deduped: u64,
}

/// One in-process durable server.
pub struct Server(ServerHandle);

/// Starts a durable server journaling into `journal_dir` (recovering
/// whatever is there), optionally as a follower of `replica_of`.
pub fn start_server(
    jobs: usize,
    journal_dir: &Path,
    replica_of: Option<String>,
) -> Result<Server, String> {
    lintra_serve::start(ServerConfig {
        jobs: Some(jobs),
        journal_dir: Some(journal_dir.to_path_buf()),
        replica_of,
        ..ServerConfig::default()
    })
    .map(Server)
    .map_err(err)
}

impl Server {
    /// The bound `host:port`.
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// Current counters.
    pub fn stats(&self) -> ServerCounts {
        let s = self.0.stats();
        ServerCounts {
            failed: s.requests_failed,
            shed: s.shed,
            deduped: s.deduped,
        }
    }

    /// The server's sweep-cache counters.
    pub fn cache(&self) -> CacheCounts {
        cache_counts_of(self.0.cache_stats())
    }

    /// Journal records held (the replication sequence number).
    pub fn seq(&self) -> u64 {
        self.0.role_info().map_or(0, |r| r.seq)
    }

    /// Settled keys recovered from the journal at start.
    pub fn recovered_keys(&self) -> usize {
        self.0.recovery().map_or(0, |r| r.answered)
    }

    /// Graceful drain.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounts {
    /// Budgeted re-walks after a shard-walk failure.
    pub retries: u64,
    /// Hedges launched.
    pub hedges: u64,
    /// Hedges that answered first.
    pub hedge_wins: u64,
}

/// One in-process sharded router.
pub struct Router(RouterHandle);

/// Starts a router over shard groups (each: primary first, then its
/// followers).
pub fn start_router(shards: Vec<Vec<String>>) -> Result<Router, String> {
    lintra_serve::start_router(RouterConfig {
        shards,
        ..RouterConfig::default()
    })
    .map(Router)
    .map_err(err)
}

impl Router {
    /// The bound `host:port`.
    pub fn addr(&self) -> String {
        self.0.addr().to_string()
    }

    /// Current counters.
    pub fn stats(&self) -> RouterCounts {
        let (_, _, retries, _, _, hedges, hedge_wins) = self.0.stats();
        RouterCounts {
            retries,
            hedges,
            hedge_wins,
        }
    }

    /// Stops accepting and joins the router's threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// Shards the router at `addr` reports healthy with a closed breaker,
/// or `None` when it does not answer.
pub fn healthy_shards(addr: &str) -> Option<usize> {
    let timeout = Duration::from_secs(2);
    let mut conn = TcpTransport.connect(addr, timeout).ok()?;
    conn.send(b"{\"router\":\"status\"}\n").ok()?;
    let mut buf = Vec::new();
    let line = read_line(
        conn.as_mut(),
        &mut buf,
        timeout,
        Duration::from_millis(5),
        &SystemClock::new(),
    )
    .ok()??;
    let doc = Json::parse(&line).ok()?;
    Some(
        doc.get("shards")?
            .as_arr()?
            .iter()
            .filter(|s| {
                s.get("probed_healthy").and_then(Json::as_bool) == Some(true)
                    && s.get("breaker").and_then(Json::as_str) == Some("closed")
            })
            .count(),
    )
}

/// The shipped `lintra_serve::Client`: a new connection per request, as
/// `lintra request` makes, and exactly one attempt.
pub struct Client(lintra_serve::Client);

/// A client for `addr`, retries off: the load generator counts a failed
/// attempt as a failure instead of hiding it behind backoff.
pub fn client(addr: &str) -> Client {
    Client(lintra_serve::Client {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(10),
        ..lintra_serve::Client::with_policy(
            addr,
            RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
        )
    })
}

impl Client {
    /// Sends one request and waits for its response.
    pub fn send(&mut self, req: &Request) -> Result<Response, String> {
        self.0.request(req).map_err(err)
    }
}

// --- the journal ------------------------------------------------------------------

/// Writes a journal of settled keys — `(key, request line, response
/// line)` each as an admit plus a done record — into `dir`, in one
/// write and one fsync.
pub fn write_settled_journal(
    dir: &Path,
    settled: &[(String, String, String)],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let mut bytes = Vec::new();
    for (key, req, resp) in settled {
        bytes.extend(encode_record(RecordKind::Admit, key, req));
        bytes.extend(encode_record(RecordKind::Done, key, resp));
    }
    let mut f = std::fs::File::create(dir.join(JOURNAL_FILE)).map_err(err)?;
    f.write_all(&bytes).map_err(err)?;
    f.sync_all().map_err(err)
}

/// Appends each `(key, request line, response line)` as an admit and a
/// done record to a fresh journal in `dir`, timing every append (each
/// one fsyncs).
pub fn time_journal_appends(
    dir: &Path,
    records: &[(String, String, String)],
) -> Result<Vec<Duration>, String> {
    let (mut journal, _) = Journal::open_dir(dir).map_err(err)?;
    let mut times = Vec::with_capacity(2 * records.len());
    for (key, req, resp) in records {
        for (kind, line) in [(RecordKind::Admit, req), (RecordKind::Done, resp)] {
            let start = Instant::now();
            journal.append(kind, key, line.trim_end()).map_err(err)?;
            times.push(start.elapsed());
        }
    }
    Ok(times)
}

/// Times recovering the journal in `dir`; returns the time and the
/// settled keys found.
pub fn time_journal_recovery(dir: &Path) -> Result<(Duration, usize), String> {
    let start = Instant::now();
    let (_, recovery) = Journal::open_dir(dir).map_err(err)?;
    Ok((start.elapsed(), recovery.completed.len()))
}

/// Worker count matching the machine.
pub fn nproc() -> usize {
    ThreadPool::auto().jobs()
}
