//! Implementation of the `lintra` command-line tool (kept in a library so
//! the argument handling and command output are unit-testable).

use lintra::engine::{SweepCache, ThreadPool};
use lintra::linsys::count::{op_count, TrivialityRule};
use lintra::mcm::{naive_cost, synthesize, Recoding};
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, Strategy, TechConfig};
use lintra::suite::{by_name, suite, Design};
use lintra::{ErrorClass, LintraError};
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::wire::{WireFailure, WireOp, WireRequest};
use lintra_bench::{table2_rows_engine, table3_rows_engine, table4_rows_engine, SuiteCaches};
use lintra_serve::{signal, Client, RetryPolicy, RouterConfig, ServerConfig};
use std::fmt;
use std::io::Write;
use std::time::Duration;

/// Error from [`run`].
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments; the message explains what was wrong.
    Usage(String),
    /// Writing output failed.
    Io(std::io::Error),
    /// A pipeline stage failed; carries the classified error.
    Pipeline(LintraError),
    /// A remote `lintra serve` instance answered with a classified
    /// failure; carries the wire form so exit codes match local runs.
    Remote(WireFailure),
}

impl CliError {
    /// Process exit code: `2` for usage errors, the class-specific code
    /// ([`ErrorClass::exit_code`]) for pipeline failures — local and
    /// remote failures of the same class exit identically.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => ErrorClass::Io.exit_code(),
            CliError::Pipeline(e) => e.exit_code(),
            CliError::Remote(f) => f.exit_code(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io(e) => Some(e),
            CliError::Pipeline(e) => Some(e),
            CliError::Usage(_) | CliError::Remote(_) => None,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

impl From<LintraError> for CliError {
    fn from(e: LintraError) -> CliError {
        CliError::Pipeline(e)
    }
}

impl From<lintra::opt::OptError> for CliError {
    fn from(e: lintra::opt::OptError) -> CliError {
        CliError::Pipeline(e.into())
    }
}

impl From<lintra::linsys::LinsysError> for CliError {
    fn from(e: lintra::linsys::LinsysError) -> CliError {
        CliError::Pipeline(e.into())
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Looks up a flag's value in `args` (e.g. `--v0 3.3`).
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse_f64(args: &[String], name: &str, default: f64) -> Result<f64, CliError> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("{name} expects a number, got `{v}`"))),
    }
}

fn parse_usize(args: &[String], name: &str) -> Result<Option<usize>, CliError> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| usage(format!("{name} expects an integer, got `{v}`"))),
    }
}

/// Parses `--jobs N` into a worker pool (`None` when the flag is absent).
fn parse_jobs(args: &[String]) -> Result<Option<ThreadPool>, CliError> {
    match parse_usize(args, "--jobs")? {
        None => Ok(None),
        Some(0) => Err(usage("--jobs expects a positive worker count, got `0`")),
        Some(n) => Ok(Some(ThreadPool::new(n))),
    }
}

fn design_arg(args: &[String]) -> Result<Design, CliError> {
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| usage("expected a design name"))?;
    by_name(name).ok_or_else(|| {
        let names: Vec<&str> = suite().iter().map(|d| d.name).collect();
        usage(format!(
            "unknown design `{name}`; available: {}",
            names.join(", ")
        ))
    })
}

/// Entry point shared by `main` and the tests.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines and
/// [`CliError::Io`] when writing to `out` fails.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => help(out),
        Some("suite") => cmd_suite(out),
        Some("show") => cmd_show(&args[1..], out),
        Some("optimize") => cmd_optimize(&args[1..], out),
        Some("sweep") => cmd_sweep(&args[1..], out),
        Some("tables") => cmd_tables(&args[1..], out),
        Some("mcm") => cmd_mcm(&args[1..], out),
        Some("serve") => cmd_serve(&args[1..], out),
        Some("route") => cmd_route(&args[1..], out),
        Some("cluster-status") => cmd_cluster_status(&args[1..], out),
        Some("request") => cmd_request(&args[1..], out),
        Some("recover") => cmd_recover(&args[1..], out),
        Some("sim") => cmd_sim(&args[1..], out),
        Some(other) => Err(usage(format!("unknown command `{other}`"))),
    }
}

fn help(out: &mut impl Write) -> Result<(), CliError> {
    writeln!(
        out,
        "lintra — transformation-based power optimization of linear systems\n\n\
         commands:\n\
         \x20 suite                         list the benchmark designs\n\
         \x20 show <design>                 print a design's dimensions and stats\n\
         \x20 optimize <design> [--strategy single|multi|asic|egraph] [--v0 V] [--processors N] [--jobs N]\n\
         \x20 sweep <design> [--max I]      ops/sample vs unfolding factor\n\
         \x20 tables [--v0 V] [--jobs N]      regenerate paper Tables 2-4\n\
         \x20 mcm <c1> <c2> ... [--binary]  synthesize a shared shift-add network\n\
         \x20 serve [--addr A] [--jobs N] [--max-inflight N] [--chaos] [--journal-dir DIR]\n\
         \x20       [--journal-rotate-bytes T] [--replica-of P] [--peers A,B] [--epoch-dir DIR]\n\
         \x20       [--failover-grace-ms G] [--heartbeat-ms H]\n\
         \x20                               run the optimization service (drains on SIGTERM);\n\
         \x20                               --journal-dir makes it durable: write-ahead journal,\n\
         \x20                               crash recovery, request_id dedup, cache snapshots;\n\
         \x20                               --replica-of makes it a follower that replicates the\n\
         \x20                               primary's journal and promotes itself on failover;\n\
         \x20                               --peers lets replicas arbitrate and fence stale epochs\n\
         \x20 route --shards a:1,a:2;b:1,b:2 [--addr A] [--probe-ms P] [--hedge-min-ms H]\n\
         \x20       [--retry-ratio-milli R] [--retry-cap C] [--vnodes V] [--no-hedge]\n\
         \x20                               route requests across replicated shard groups by\n\
         \x20                               consistent hash: health-probed endpoints, per-shard\n\
         \x20                               circuit breakers (RES-SHARD-DOWN degrades one shard,\n\
         \x20                               not the cluster), a global retry budget\n\
         \x20                               (RES-RETRY-BUDGET), and P99-hedged keyed requests\n\
         \x20 cluster-status --addr A       one-line-per-shard health view from a running router\n\
         \x20 request <ping|optimize|sweep|tables> [design] --addr A[,B,...]\n\
         \x20         [--strategy S] [--v0 V] [--processors N] [--max I]\n\
         \x20         [--deadline-ms D] [--retries N] [--request-id K]\n\
         \x20                               send one request to a running server;\n\
         \x20                               --addr takes an ordered endpoint list — the client\n\
         \x20                               walks past dead or non-primary replicas;\n\
         \x20                               --request-id K makes the request idempotent\n\
         \x20 recover <dir>                 inspect a durability directory read-only\n\
         \x20 sim [--seed N] [--swarm K] [--seconds S] [--nodes N] [--clients C]\n\
         \x20     [--sim-ms MS] [--bug none|colliding-epoch] [--trace]\n\
         \x20                               deterministically simulate the replicated cluster\n\
         \x20                               under seeded faults; every run reproduces from its\n\
         \x20                               seed, failures print the fault schedule and exit 5\n\
         \x20 sim --shards G [--replicas R] [--scenario none|primary-crash|blackout] [--group I]\n\
         \x20     [--requests N] [--bug none|unbounded-retries] [--seed N] [--swarm K] [--trace]\n\
         \x20                               simulate the sharded router over G replicated shard\n\
         \x20                               groups: blackouts, failovers, retry-budget and\n\
         \x20                               degradation invariants, all under virtual time\n\n\
         `--jobs N` fans work out over the parallel sweep engine; output is\n\
         bit-identical at every worker count."
    )?;
    Ok(())
}

fn cmd_suite(out: &mut impl Write) -> Result<(), CliError> {
    for d in suite() {
        let (p, q, r) = d.dims();
        writeln!(out, "{:<10} P={p} Q={q} R={r:<3} {}", d.name, d.description)?;
    }
    Ok(())
}

fn cmd_show(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(args)?;
    let (p, q, r) = d.dims();
    let ops = op_count(&d.system, TrivialityRule::ZeroOne);
    writeln!(out, "{} — {}", d.name, d.description)?;
    writeln!(out, "dimensions: P={p} Q={q} R={r}")?;
    writeln!(out, "stable: {}", d.system.is_stable())?;
    writeln!(out, "sparsity: {:.0}%", d.system.sparsity() * 100.0)?;
    writeln!(out, "ops/sample: {} muls + {} adds", ops.muls, ops.adds)?;
    writeln!(out, "A =\n{}", d.system.a())?;
    Ok(())
}

fn warn(out: &mut impl Write, diagnostics: &[lintra::opt::Diagnostic]) -> std::io::Result<()> {
    for d in diagnostics {
        writeln!(out, "{d}")?;
    }
    Ok(())
}

fn cmd_optimize(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(args)?;
    let v0 = parse_f64(args, "--v0", 3.3)?;
    if !v0.is_finite() || v0 <= 0.0 {
        return Err(usage(format!("--v0 must be a positive voltage, got {v0}")));
    }
    let tech = TechConfig::dac96(v0);
    // Strategy names are validated centrally: an unknown one is a
    // `VAL-CONFIG` classified diagnostic (exit code 2), not ad-hoc text.
    let strategy = Strategy::parse(flag_value(args, "--strategy").unwrap_or("single"))
        .map_err(LintraError::from)?;
    match strategy {
        Strategy::Single => {
            let r = single::optimize(&d.system, &tech)?;
            writeln!(out, "strategy: single processor at {v0} V")?;
            warn(out, &r.diagnostics)?;
            writeln!(
                out,
                "unfolding i = {} -> throughput x{:.3} -> {:.2} V -> power / {:.2}",
                r.real.unfolding,
                r.real.speedup,
                r.real.scaling.voltage,
                r.real.power_reduction()
            )?;
            writeln!(
                out,
                "(no-voltage-scaling fallback: power / {:.2})",
                r.real.power_reduction_frequency_only()
            )?;
        }
        Strategy::Multi => {
            // A zero processor count flows through as a classified
            // resource error (exit code 4) rather than a usage error.
            let selection = match parse_usize(args, "--processors")? {
                Some(n) => ProcessorSelection::SearchBest { max: n },
                None => ProcessorSelection::StatesCount,
            };
            let pool = parse_jobs(args)?.unwrap_or_else(|| ThreadPool::new(1));
            let r = multi::optimize_with_pool(&d.system, &tech, selection, &pool)?;
            writeln!(out, "strategy: {} processors at {v0} V", r.processors)?;
            warn(out, &r.diagnostics)?;
            writeln!(
                out,
                "unfolding i = {} -> S_max(N,i) = {:.2} -> {:.2} V -> power / {:.2}",
                r.unfolding,
                r.speedup,
                r.scaling.voltage,
                r.power_reduction()
            )?;
        }
        Strategy::Asic => {
            let r = asic::optimize(&d.system, &tech, &asic::AsicConfig::default())?;
            writeln!(out, "strategy: ASIC (unfold -> Horner -> MCM) from {v0} V")?;
            warn(out, &r.diagnostics)?;
            writeln!(
                out,
                "batch n = {} -> {:.2} V; {} multipliers removed",
                r.unfolding + 1,
                r.voltage,
                r.mcm.muls_removed
            )?;
            writeln!(out, "initial:   {}", r.initial)?;
            writeln!(out, "optimized: {}", r.optimized)?;
            writeln!(out, "energy improvement: x{:.1}", r.improvement())?;
        }
        Strategy::Egraph => {
            let r = saturate::optimize(&d.system, &tech, &saturate::SaturateConfig::default())?;
            writeln!(
                out,
                "strategy: equality saturation over the ASIC script from {v0} V"
            )?;
            warn(out, &r.diagnostics)?;
            writeln!(
                out,
                "batch n = {} -> {:.2} V; saturation: {}",
                r.unfolding + 1,
                r.voltage,
                r.stats
            )?;
            writeln!(out, "initial:   {}", r.initial)?;
            writeln!(out, "script:    {}", r.script)?;
            writeln!(out, "optimized: {}", r.optimized)?;
            writeln!(
                out,
                "energy improvement: x{:.1} (x{:.3} vs fixed script)",
                r.improvement(),
                r.vs_script()
            )?;
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(args)?;
    let max = parse_usize(args, "--max")?.unwrap_or(16) as u32;
    // Incremental unfolding: step i -> i+1 reuses the A^i / [A^{i-1}B|...]
    // prefixes instead of re-unfolding from scratch (bit-identical counts).
    let mut cache = SweepCache::new(&d.system);
    writeln!(out, "i,muls_per_sample,adds_per_sample,total")?;
    for i in 0..=max {
        let u = cache.unfolded(i)?;
        let c = op_count(&u.system, TrivialityRule::ZeroOne);
        let n = (i + 1) as f64;
        let (m, a) = (c.muls as f64 / n, c.adds as f64 / n);
        writeln!(out, "{i},{m:.2},{a:.2},{:.2}", m + a)?;
    }
    Ok(())
}

fn cmd_tables(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let v0 = parse_f64(args, "--v0", 3.3)?;
    if !v0.is_finite() || v0 <= 0.0 {
        return Err(usage(format!("--v0 must be a positive voltage, got {v0}")));
    }
    let pool = parse_jobs(args)?.unwrap_or_else(ThreadPool::auto);
    // One registry for all three tables: Table 3's §3 search and Table 4's
    // power chain reuse what Table 2 already built for each design.
    let caches = SuiteCaches::new();
    let (t2, _) = table2_rows_engine(v0, &pool, &caches)?;
    let (t3, _) = table3_rows_engine(v0, &pool, &caches)?;
    let (t4, _) = table4_rows_engine(v0, &pool, &caches)?;
    write!(out, "{}", render_table2(&t2, v0, false))?;
    writeln!(out)?;
    write!(out, "{}", render_table3(&t3, v0))?;
    writeln!(out)?;
    write!(out, "{}", render_table4(&t4, v0))?;
    Ok(())
}

fn cmd_mcm(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let recoding = if args.iter().any(|a| a == "--binary") {
        Recoding::Binary
    } else {
        Recoding::Csd
    };
    let constants: Vec<i64> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| {
            a.parse()
                .map_err(|_| usage(format!("`{a}` is not an integer constant")))
        })
        .collect::<Result<_, _>>()?;
    if constants.is_empty() {
        return Err(usage("mcm expects at least one integer constant"));
    }
    let naive = naive_cost(&constants, recoding);
    let sol = synthesize(&constants, recoding);
    sol.verify().map_err(|e| {
        CliError::Pipeline(
            LintraError::from(e).context(format!("verifying the mcm plan for {constants:?}")),
        )
    })?;
    writeln!(out, "naive: {} adds + {} shifts", naive.adds, naive.shifts)?;
    writeln!(
        out,
        "shared: {} adds + {} shifts",
        sol.cost().adds,
        sol.cost().shifts
    )?;
    write!(out, "{sol}")?;
    Ok(())
}

/// Positional (non-flag) arguments, skipping each value-taking flag's
/// value so `--addr 127.0.0.1:80` does not masquerade as a positional.
fn positionals(args: &[String]) -> Vec<&str> {
    const BOOLEAN_FLAGS: [&str; 4] = ["--binary", "--chaos", "--trace", "--no-hedge"];
    let mut found = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if BOOLEAN_FLAGS.contains(&args[i].as_str()) {
                1
            } else {
                2
            };
        } else {
            found.push(args[i].as_str());
            i += 1;
        }
    }
    found
}

fn parse_millis(args: &[String], name: &str) -> Result<Option<u64>, CliError> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| usage(format!("{name} expects milliseconds, got `{v}`"))),
    }
}

/// `lintra serve`: runs the fault-tolerant optimization service until
/// SIGTERM/SIGINT, then drains in-flight requests and reports stats.
fn cmd_serve(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let mut config = ServerConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        jobs: parse_usize(args, "--jobs")?,
        chaos: args.iter().any(|a| a == "--chaos"),
        ..ServerConfig::default()
    };
    if let Some(n) = parse_usize(args, "--max-inflight")? {
        config.max_inflight = n;
    }
    if let Some(ms) = parse_millis(args, "--deadline-ms")? {
        config.default_deadline = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_millis(args, "--stall-budget-ms")? {
        config.stall_budget = Duration::from_millis(ms);
    }
    if let Some(dir) = flag_value(args, "--journal-dir") {
        config.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(bytes) = flag_value(args, "--journal-rotate-bytes") {
        config.journal_rotate_bytes = Some(bytes.parse().map_err(|_| {
            usage(format!(
                "--journal-rotate-bytes expects a byte count, got `{bytes}`"
            ))
        })?);
    }
    if let Some(primary) = flag_value(args, "--replica-of") {
        config.replica_of = Some(primary.to_string());
    }
    if let Some(peers) = flag_value(args, "--peers") {
        config.peers = peers
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
    }
    if let Some(dir) = flag_value(args, "--epoch-dir") {
        config.epoch_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(ms) = parse_millis(args, "--failover-grace-ms")? {
        config.failover_grace = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_millis(args, "--heartbeat-ms")? {
        config.heartbeat = Duration::from_millis(ms);
    }

    signal::install();
    let server = lintra_serve::start(config)?;
    // Recovery happens inside start(), before the listener opened; the
    // report line is parsed by the crash-recovery gate.
    if let Some(rec) = server.recovery() {
        writeln!(
            out,
            "recovered: {} answered, {} replayed, torn_tail={}, journal_quarantined={}, \
             snapshots {} loaded / {} quarantined",
            rec.answered,
            rec.replayed,
            rec.torn_tail,
            rec.journal_quarantined.is_some(),
            rec.snapshots_loaded,
            rec.snapshots_quarantined
        )?;
    }
    // The port line is parsed by scripts (`--addr` port 0 binds an
    // ephemeral port), so flush past any pipe buffering immediately.
    writeln!(out, "listening on {}", server.addr())?;
    if let Some(info) = server.role_info() {
        if let Some(primary) = &info.primary {
            writeln!(out, "replicating from {primary} at epoch {}", info.epoch)?;
        }
    }
    out.flush()?;
    // Role transitions (promotion, fencing) are reported as they happen;
    // failover scripts grep these lines.
    let mut last_role = server.role_info().map(|i| i.role);
    let mut diverged_reported = false;
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
        let info = server.role_info();
        if !diverged_reported && info.as_ref().is_some_and(|i| i.diverged) {
            writeln!(
                out,
                "diverged: journal is not a prefix of the primary's (IO-REPL-CORRUPT); \
                 replication stopped, promotion disabled — wipe the journal dir and re-seed"
            )?;
            out.flush()?;
            diverged_reported = true;
        }
        let role = info.as_ref().map(|i| i.role);
        if role != last_role {
            if let Some(info) = &info {
                match info.role {
                    "primary" => writeln!(
                        out,
                        "promoted: epoch {} ({} replayed)",
                        info.epoch, info.promoted_replayed
                    )?,
                    "fenced" => writeln!(
                        out,
                        "fenced: epoch {} superseded by epoch {}",
                        info.epoch,
                        info.fenced_by.unwrap_or_default()
                    )?,
                    other => writeln!(out, "role: {other} at epoch {}", info.epoch)?,
                }
                out.flush()?;
            }
            last_role = role;
        }
    }
    writeln!(out, "shutdown requested; draining in-flight requests")?;
    let stats = server.shutdown();
    writeln!(
        out,
        "drained: {} connections, {} ok, {} failed, {} shed, {} deduped, {} replayed",
        stats.connections,
        stats.requests_ok,
        stats.requests_failed,
        stats.shed,
        stats.deduped,
        stats.replayed
    )?;
    Ok(())
}

/// `lintra route`: runs the sharded-cluster router until SIGTERM.
fn cmd_route(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let shards_arg = flag_value(args, "--shards").ok_or_else(|| {
        usage(
            "route needs --shards `a:1,a:2;b:1,b:2` — shard groups separated by `;`, \
             each group an ordered replica endpoint list",
        )
    })?;
    let shards: Vec<Vec<String>> = shards_arg
        .split(';')
        .map(|group| {
            group
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect::<Vec<String>>()
        })
        .filter(|g| !g.is_empty())
        .collect();
    let mut config = RouterConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        shards,
        hedge: !args.iter().any(|a| a == "--no-hedge"),
        ..RouterConfig::default()
    };
    if let Some(ms) = parse_millis(args, "--probe-ms")? {
        config.probe_interval = Duration::from_millis(ms);
    }
    if let Some(ms) = parse_millis(args, "--hedge-min-ms")? {
        config.hedge_min = Duration::from_millis(ms);
    }
    if let Some(n) = parse_usize(args, "--retry-ratio-milli")? {
        config.retry_ratio_milli = n as u64;
    }
    if let Some(n) = parse_usize(args, "--retry-cap")? {
        config.retry_cap = n as u64;
    }
    if let Some(n) = parse_usize(args, "--vnodes")? {
        config.vnodes = n;
    }
    let shard_count = config.shards.len();

    signal::install();
    let router = lintra_serve::start_router(config)?;
    writeln!(out, "routing {shard_count} shard group(s)")?;
    // The port line is parsed by scripts, exactly like `serve`'s.
    writeln!(out, "listening on {}", router.addr())?;
    out.flush()?;
    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    writeln!(out, "shutdown requested; stopping the router")?;
    let (requests, forwarded, retries, shed, shard_down, hedges, hedge_wins) = router.stats();
    router.shutdown();
    writeln!(
        out,
        "routed: {requests} requests, {forwarded} forwarded, {retries} retries, \
         {shed} shed (retry budget), {shard_down} shard-down, {hedges} hedges \
         ({hedge_wins} won)"
    )?;
    Ok(())
}

/// `lintra cluster-status`: one-shot aggregated health view from a
/// running router — the runbook's first stop during an incident.
fn cmd_cluster_status(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_bench::json::Json;
    use lintra_serve::{read_line, SystemClock, TcpTransport, Transport};

    let addr = flag_value(args, "--addr").ok_or_else(|| {
        usage("cluster-status needs --addr host:port of a running `lintra route`")
    })?;
    let timeout = Duration::from_millis(parse_millis(args, "--timeout-ms")?.unwrap_or(2000));
    let clock = SystemClock::new();
    let mut conn = TcpTransport
        .connect(addr, timeout)
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    conn.send(b"{\"router\":\"status\"}\n")
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    let mut buf = Vec::new();
    let line = read_line(
        conn.as_mut(),
        &mut buf,
        timeout,
        Duration::from_millis(20),
        &clock,
    )
    .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?
    .ok_or_else(|| CliError::Io(std::io::Error::other("router closed without answering")))?;
    let doc = Json::parse(&line)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("unparseable status: {e}"))))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64;
    writeln!(out, "cluster status from {addr}")?;
    if let Some(Json::Arr(shards)) = doc.get("shards") {
        for s in shards {
            let idx = s.get("shard").and_then(Json::as_num).unwrap_or(-1.0) as i64;
            let breaker = s.get("breaker").and_then(Json::as_str).unwrap_or("?");
            let healthy = matches!(s.get("probed_healthy"), Some(Json::Bool(true)));
            let preferred = s.get("preferred").and_then(Json::as_str).unwrap_or("?");
            let p99 = match s.get("p99_ms").and_then(Json::as_num) {
                Some(ms) => format!("{ms:.0} ms"),
                None => "n/a".to_string(),
            };
            let endpoints = match s.get("endpoints") {
                Some(Json::Arr(es)) => es
                    .iter()
                    .filter_map(Json::as_str)
                    .collect::<Vec<_>>()
                    .join(","),
                _ => String::new(),
            };
            writeln!(
                out,
                "shard {idx}: {} breaker={breaker} preferred={preferred} p99={p99} [{endpoints}]",
                if healthy { "healthy" } else { "DOWN" },
            )?;
        }
    }
    writeln!(
        out,
        "budget: {} milli-tokens; requests={} forwarded={} retries={} \
         shed={} shard_down={} hedges={} hedge_wins={}",
        num("retry_budget_milli"),
        num("requests"),
        num("forwarded"),
        num("retries"),
        num("shed_retry_budget"),
        num("shard_down"),
        num("hedges"),
        num("hedge_wins")
    )?;
    Ok(())
}

/// `lintra request`: sends one wire request to a running server and
/// prints the JSON result; remote failures exit with their class code.
fn cmd_request(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let addr = flag_value(args, "--addr")
        .ok_or_else(|| usage("request needs --addr host:port of a running `lintra serve`"))?;
    let pos = positionals(args);
    let op_name = *pos
        .first()
        .ok_or_else(|| usage("request expects an operation: ping, optimize, sweep, or tables"))?;
    let design_name = || -> Result<String, CliError> {
        let d = by_name(pos.get(1).copied().unwrap_or("")).ok_or_else(|| {
            let names: Vec<&str> = suite().iter().map(|d| d.name).collect();
            usage(format!(
                "request {op_name} expects a design; available: {}",
                names.join(", ")
            ))
        })?;
        Ok(d.name.to_string())
    };
    let op = match op_name {
        "ping" => WireOp::Ping,
        "optimize" => WireOp::Optimize {
            design: design_name()?,
            strategy: Strategy::parse(flag_value(args, "--strategy").unwrap_or("single"))
                .map_err(LintraError::from)?
                .name()
                .to_string(),
            v0: parse_f64(args, "--v0", 3.3)?,
            processors: parse_usize(args, "--processors")?,
        },
        "sweep" => WireOp::Sweep {
            design: design_name()?,
            max_i: parse_usize(args, "--max")?.unwrap_or(16) as u32,
        },
        "tables" => WireOp::Tables {
            v0: parse_f64(args, "--v0", 3.3)?,
        },
        other => return Err(usage(format!("unknown request operation `{other}`"))),
    };
    let mut req = WireRequest::new(flag_value(args, "--id").unwrap_or("cli"), op);
    req.deadline_ms = parse_millis(args, "--deadline-ms")?;
    req.fault = flag_value(args, "--fault").map(str::to_string);
    if let Some(rid) = flag_value(args, "--request-id") {
        req = req.with_request_id(rid);
    }

    let retries = parse_usize(args, "--retries")?.unwrap_or(3).max(1) as u32;
    let client = Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: retries,
            ..RetryPolicy::default()
        },
    );
    let resp = client
        .request(&req)
        .map_err(|e| CliError::Io(std::io::Error::other(e.to_string())))?;
    match resp.outcome {
        Ok(result) => {
            writeln!(out, "{}", result.render_compact())?;
            Ok(())
        }
        Err(failure) => Err(CliError::Remote(failure)),
    }
}

/// `lintra recover`: read-only inspection of a durability directory —
/// what a durable server would find there, without starting one.
fn cmd_recover(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_serve::journal::{scan, RecordKind, ScanOutcome, JOURNAL_FILE, SNAPSHOT_DIR};

    let dir = positionals(args)
        .first()
        .map(std::path::PathBuf::from)
        .ok_or_else(|| usage("recover expects a durability directory"))?;
    if !dir.is_dir() {
        return Err(usage(format!("`{}` is not a directory", dir.display())));
    }

    let journal_path = dir.join(JOURNAL_FILE);
    if journal_path.exists() {
        let bytes = std::fs::read(&journal_path)?;
        let (records, outcome) = scan(&bytes);
        let mut settled: std::collections::HashMap<&str, RecordKind> =
            std::collections::HashMap::new();
        let mut admitted: Vec<&str> = Vec::new();
        for r in &records {
            match r.kind {
                RecordKind::Admit => {
                    if !settled.contains_key(r.rid.as_str()) && !admitted.contains(&r.rid.as_str())
                    {
                        admitted.push(&r.rid);
                    }
                }
                kind => {
                    admitted.retain(|rid| *rid != r.rid);
                    settled.insert(&r.rid, kind);
                }
            }
        }
        let state = match &outcome {
            ScanOutcome::Clean => "clean".to_string(),
            ScanOutcome::TornTail { valid_len } => {
                format!("torn tail (valid through byte {valid_len}; a restart truncates it)")
            }
            ScanOutcome::Corrupt { offset, detail } => {
                format!("CORRUPT at byte {offset}: {detail} (a restart quarantines it)")
            }
        };
        writeln!(out, "journal: {} records, {state}", records.len())?;
        writeln!(
            out,
            "keys: {} settled, {} incomplete",
            settled.len(),
            admitted.len()
        )?;
        for rid in &admitted {
            writeln!(out, "incomplete: {rid} (will replay on restart)")?;
        }
    } else {
        writeln!(out, "journal: none at {}", journal_path.display())?;
    }

    let snap_dir = dir.join(SNAPSHOT_DIR);
    if snap_dir.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&snap_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("snap"))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            match lintra::engine::snapshot::load(&path) {
                Ok(cache) => {
                    let s = cache.stats();
                    writeln!(
                        out,
                        "snapshot {name}: ok ({} cached products)",
                        s.hits + s.misses
                    )?;
                }
                Err(lintra::engine::SnapshotError::Corrupt { detail }) => {
                    writeln!(out, "snapshot {name}: CORRUPT ({detail})")?;
                }
                Err(lintra::engine::SnapshotError::Io(e)) => return Err(CliError::Io(e)),
            }
        }
    } else {
        writeln!(out, "snapshots: none")?;
    }
    Ok(())
}

/// `lintra sim`: deterministic simulation of the replicated cluster —
/// one seed, a fixed swarm (`--swarm K`), or a wall-clock-budgeted
/// swarm (`--seconds S`). Every run is a pure function of
/// `(seed, config)`; a violated invariant prints the seed plus the
/// compact fault-schedule trace and exits 5 with `CNV-SIM-INVARIANT`.
fn cmd_sim(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_sim::{run_sim, SimBug, SimConfig};

    if flag_value(args, "--shards").is_some() {
        return cmd_sim_shards(args, out);
    }

    let parse_u64 = |name: &str, default: u64| -> Result<u64, CliError> {
        match flag_value(args, name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("{name} expects an integer, got `{v}`"))),
        }
    };
    let first = parse_u64("--seed", 1)?;
    let swarm = parse_u64("--swarm", 1)?.max(1);
    let seconds = match flag_value(args, "--seconds") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| usage(format!("--seconds expects a wall-clock budget, got `{v}`")))?,
        ),
    };
    let trace = args.iter().any(|a| a == "--trace");
    let mut config = SimConfig::default();
    if let Some(n) = parse_usize(args, "--nodes")? {
        if n < 2 {
            return Err(usage("--nodes expects a cluster of at least 2"));
        }
        config.nodes = n;
    }
    if let Some(n) = parse_usize(args, "--clients")? {
        config.clients = n;
    }
    if let Some(ms) = parse_millis(args, "--sim-ms")? {
        config.sim_ms = ms.max(100);
    }
    if let Some(bug) = flag_value(args, "--bug") {
        config.bug = match bug {
            "none" => SimBug::None,
            "colliding-epoch" => SimBug::CollidingPromotionEpoch,
            other => {
                return Err(usage(format!(
                    "--bug expects none|colliding-epoch, got `{other}`"
                )))
            }
        };
    }

    let started = std::time::Instant::now();
    let mut first_failure: Option<lintra_sim::SimReport> = None;
    let mut ran = 0u64;
    for seed in first..first.saturating_add(swarm) {
        if let Some(budget) = seconds {
            if started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let report = run_sim(seed, &config);
        ran += 1;
        writeln!(
            out,
            "seed {:>6} {} — {} events, {} settled, {} deduped, {} promotions, {} fences",
            report.seed,
            if report.passed() { "PASS" } else { "FAIL" },
            report.events,
            report.settled,
            report.deduped,
            report.promotions,
            report.fences
        )?;
        if trace || !report.passed() {
            for line in &report.trace {
                writeln!(out, "  {line}")?;
            }
        }
        if !report.passed() && first_failure.is_none() {
            first_failure = Some(report);
        }
    }
    writeln!(
        out,
        "{ran} seed(s) simulated in {:.2}s wall clock",
        started.elapsed().as_secs_f64()
    )?;
    if let Some(report) = first_failure {
        return Err(CliError::Remote(WireFailure {
            class: ErrorClass::Convergence,
            code: "CNV-SIM-INVARIANT".to_string(),
            message: format!(
                "seed {} violated {} invariant(s): {}; reproduce with `lintra sim --seed {} --trace`",
                report.seed,
                report.violations.len(),
                report.violations.join("; "),
                report.seed
            ),
        }));
    }
    Ok(())
}

/// `sim --shards`: the sharded-router simulation — M replicated shard
/// groups behind a deterministic model of the `route` front end.
fn cmd_sim_shards(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_sim::{run_shard_sim, RouterSimBug, ShardScenario, ShardSimConfig};

    let parse_u64 = |name: &str, default: u64| -> Result<u64, CliError> {
        match flag_value(args, name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("{name} expects an integer, got `{v}`"))),
        }
    };
    let first = parse_u64("--seed", 1)?;
    let swarm = parse_u64("--swarm", 1)?.max(1);
    let seconds = match flag_value(args, "--seconds") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| usage(format!("--seconds expects a wall-clock budget, got `{v}`")))?,
        ),
    };
    let trace = args.iter().any(|a| a == "--trace");
    let mut config = ShardSimConfig {
        // Long enough a queue that clients are still sending when the
        // scenario fault lands at 1/8 of the run.
        requests_per_client: 16,
        ..ShardSimConfig::default()
    };
    if let Some(g) = parse_usize(args, "--shards")? {
        if g < 2 {
            return Err(usage("--shards expects at least 2 shard groups"));
        }
        config.groups = g;
    }
    if let Some(r) = parse_usize(args, "--replicas")? {
        config.nodes_per_group = r.max(1);
    }
    if let Some(c) = parse_usize(args, "--clients")? {
        config.clients = c;
    }
    if let Some(n) = parse_usize(args, "--requests")? {
        config.requests_per_client = n;
    }
    if let Some(ms) = parse_millis(args, "--sim-ms")? {
        config.sim_ms = ms.max(100);
    }
    let group = parse_usize(args, "--group")?.unwrap_or(0);
    if let Some(s) = flag_value(args, "--scenario") {
        config.scenario = match s {
            "none" => ShardScenario::None,
            "primary-crash" => ShardScenario::PrimaryCrash { group },
            "blackout" => ShardScenario::Blackout { group },
            other => {
                return Err(usage(format!(
                    "--scenario expects none|primary-crash|blackout, got `{other}`"
                )))
            }
        };
    }
    if let Some(bug) = flag_value(args, "--bug") {
        config.bug = match bug {
            "none" => RouterSimBug::None,
            "unbounded-retries" => RouterSimBug::UnboundedRetries,
            other => {
                return Err(usage(format!(
                    "--bug expects none|unbounded-retries, got `{other}`"
                )))
            }
        };
    }

    let started = std::time::Instant::now();
    let mut first_failure: Option<lintra_sim::ShardSimReport> = None;
    let mut ran = 0u64;
    for seed in first..first.saturating_add(swarm) {
        if let Some(budget) = seconds {
            if started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let report = run_shard_sim(seed, &config);
        ran += 1;
        writeln!(
            out,
            "seed {:>6} {} — {} events, {} settled, {} forwarded, {} retries, {} hedges, \
             {} shed, {} shard-down, {} promotions",
            report.seed,
            if report.passed() { "PASS" } else { "FAIL" },
            report.events,
            report.settled,
            report.forwarded,
            report.retries,
            report.hedges,
            report.shed,
            report.shard_down,
            report.promotions
        )?;
        if trace || !report.passed() {
            for line in &report.trace {
                writeln!(out, "  {line}")?;
            }
        }
        if !report.passed() && first_failure.is_none() {
            first_failure = Some(report);
        }
    }
    writeln!(
        out,
        "{ran} seed(s) simulated in {:.2}s wall clock",
        started.elapsed().as_secs_f64()
    )?;
    if let Some(report) = first_failure {
        return Err(CliError::Remote(WireFailure {
            class: ErrorClass::Convergence,
            code: "CNV-SIM-INVARIANT".to_string(),
            message: format!(
                "seed {} violated {} invariant(s): {}; reproduce with \
                 `lintra sim --shards {} --seed {} --trace`",
                report.seed,
                report.violations.len(),
                report.violations.join("; "),
                config.groups,
                report.seed
            ),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).expect("command succeeds");
        String::from_utf8(buf).expect("utf8 output")
    }

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&args, &mut buf).expect_err("command should fail")
    }

    fn usage_msg(args: &[&str]) -> String {
        let err = run_err(args);
        assert_eq!(err.exit_code(), 2, "expected a usage error, got {err:?}");
        err.to_string()
    }

    #[test]
    fn help_and_empty() {
        assert!(run_ok(&[]).contains("commands:"));
        assert!(run_ok(&["help"]).contains("optimize"));
    }

    #[test]
    fn suite_lists_all_designs() {
        let out = run_ok(&["suite"]);
        for name in [
            "ellip", "iir5", "iir6", "iir10", "iir12", "steam", "dist", "chemical",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn show_prints_stats() {
        let out = run_ok(&["show", "chemical"]);
        assert!(out.contains("P=1 Q=1 R=4"));
        assert!(out.contains("stable: true"));
    }

    #[test]
    fn unknown_design_is_usage_error() {
        let msg = usage_msg(&["show", "nonesuch"]);
        assert!(msg.contains("unknown design"));
        assert!(msg.contains("ellip"));
    }

    #[test]
    fn optimize_single_and_multi() {
        let out = run_ok(&["optimize", "chemical"]);
        assert!(out.contains("single processor"));
        assert!(out.contains("power /"));
        let out = run_ok(&["optimize", "chemical", "--strategy", "multi"]);
        assert!(out.contains("processors"));
        let out = run_ok(&[
            "optimize",
            "chemical",
            "--strategy",
            "multi",
            "--processors",
            "2",
        ]);
        assert!(out.contains("power /"));
    }

    #[test]
    fn optimize_rejects_bad_flags() {
        assert!(usage_msg(&["optimize", "chemical", "--strategy", "bogus"]).contains("strategy"));
        assert!(usage_msg(&["optimize", "chemical", "--v0", "abc"]).contains("--v0"));
        assert!(usage_msg(&["optimize", "chemical", "--v0", "nan"]).contains("positive"));
    }

    #[test]
    fn zero_processors_is_a_resource_error_with_exit_code_4() {
        let err = run_err(&[
            "optimize",
            "chemical",
            "--strategy",
            "multi",
            "--processors",
            "0",
        ]);
        assert_eq!(err.exit_code(), 4, "got {err:?}");
        assert!(err.to_string().contains("at least one processor"), "{err}");
    }

    #[test]
    fn error_classes_keep_distinct_exit_codes() {
        use lintra::linsys::LinsysError;
        let numerical = CliError::Pipeline(
            LinsysError::UnstableSystem {
                spectral_radius: 2.0,
            }
            .into(),
        );
        assert_eq!(numerical.exit_code(), 3);
        let io = CliError::Io(std::io::Error::other("disk full"));
        assert_eq!(io.exit_code(), 6);
        let usage = CliError::Usage("bad flag".into());
        assert_eq!(usage.exit_code(), 2);
    }

    #[test]
    fn sweep_emits_csv() {
        let out = run_ok(&["sweep", "chemical", "--max", "4"]);
        assert_eq!(out.lines().count(), 6); // header + 5 rows
        assert!(out.starts_with("i,muls_per_sample"));
    }

    #[test]
    fn tables_renders_all_three_paper_tables() {
        let out = run_ok(&["tables", "--jobs", "2"]);
        assert!(
            out.contains("Table 2: Power Reduction in a Single Processor"),
            "{out}"
        );
        assert!(
            out.contains("Table 3: Power Reduction with Unfolding"),
            "{out}"
        );
        assert!(
            out.contains("Table 4: Improvements in energy per sample"),
            "{out}"
        );
    }

    #[test]
    fn tables_parallel_output_is_bit_identical_to_sequential() {
        assert_eq!(
            run_ok(&["tables", "--jobs", "3"]),
            run_ok(&["tables", "--jobs", "1"])
        );
    }

    #[test]
    fn tables_rejects_bad_flags() {
        assert!(usage_msg(&["tables", "--jobs", "0"]).contains("--jobs"));
        assert!(usage_msg(&["tables", "--jobs", "abc"]).contains("--jobs"));
        assert!(usage_msg(&["tables", "--v0", "-1"]).contains("positive"));
    }

    #[test]
    fn optimize_multi_with_jobs_matches_sequential() {
        let base = &[
            "optimize",
            "iir5",
            "--strategy",
            "multi",
            "--processors",
            "3",
        ];
        let seq = run_ok(base);
        let par = run_ok(&[base as &[&str], &["--jobs", "2"]].concat());
        assert_eq!(seq, par);
        assert!(
            usage_msg(&["optimize", "iir5", "--strategy", "multi", "--jobs", "0"])
                .contains("--jobs")
        );
    }

    #[test]
    fn mcm_paper_example() {
        let out = run_ok(&["mcm", "185", "235", "--binary"]);
        assert!(out.contains("naive: 9 adds + 9 shifts"), "{out}");
        assert!(out.contains("out(185)"));
    }

    #[test]
    fn mcm_rejects_non_integers() {
        assert!(usage_msg(&["mcm", "12", "abc"]).contains("not an integer"));
        assert!(usage_msg(&["mcm"]).contains("at least one"));
    }

    #[test]
    fn unknown_command() {
        assert!(usage_msg(&["frobnicate"]).contains("unknown command"));
    }

    #[test]
    fn unknown_strategy_is_a_val_config_diagnostic() {
        let err = run_err(&["optimize", "chemical", "--strategy", "turbo"]);
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("VAL-CONFIG"), "{msg}");
        assert!(msg.contains("single, multi, asic"), "{msg}");
    }

    #[test]
    fn positionals_skip_flag_values() {
        let args: Vec<String> = [
            "--addr",
            "127.0.0.1:9",
            "ping",
            "--v0",
            "3.3",
            "--chaos",
            "extra",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(positionals(&args), vec!["ping", "extra"]);
    }

    #[test]
    fn request_round_trips_against_a_live_server() {
        let server = lintra_serve::start(ServerConfig {
            jobs: Some(2),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();

        let out = run_ok(&["request", "ping", "--addr", &addr]);
        assert!(out.contains("\"pong\""), "{out}");

        let out = run_ok(&["request", "optimize", "chemical", "--addr", &addr]);
        assert!(out.contains("power_reduction"), "{out}");

        // A remote classified failure surfaces with the class exit code.
        let err = run_err(&["request", "optimize", "nonesuch", "--addr", &addr]);
        assert_eq!(err.exit_code(), 2, "got {err:?}");
        assert!(
            matches!(err, CliError::Usage(_)),
            "design validated locally: {err:?}"
        );

        let err = run_err(&[
            "request",
            "sweep",
            "chemical",
            "--addr",
            &addr,
            "--fault",
            "conn-drop",
        ]);
        assert_eq!(err.exit_code(), 2, "chaos off => VAL-CONFIG, got {err:?}");
        assert!(
            matches!(&err, CliError::Remote(f) if f.code == "VAL-CONFIG"),
            "{err:?}"
        );

        server.shutdown();
    }

    #[test]
    fn request_rejects_bad_command_lines() {
        assert!(usage_msg(&["request", "ping"]).contains("--addr"));
        assert!(usage_msg(&["request", "--addr", "127.0.0.1:9"]).contains("operation"));
        assert!(
            usage_msg(&["request", "warp", "--addr", "127.0.0.1:9"]).contains("unknown request")
        );
        let err = run_err(&[
            "request",
            "optimize",
            "chemical",
            "--addr",
            "127.0.0.1:9",
            "--strategy",
            "bogus",
        ]);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("VAL-CONFIG"), "{err}");
    }

    #[test]
    fn recover_reports_an_empty_directory_and_rejects_bad_args() {
        let dir = std::env::temp_dir().join(format!("lintra-cli-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_ok(&["recover", dir.to_str().expect("utf8 path")]);
        assert!(out.contains("journal: none"), "{out}");
        assert!(out.contains("snapshots: none"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);

        assert!(usage_msg(&["recover"]).contains("durability directory"));
        assert!(usage_msg(&["recover", "/nonesuch-lintra-dir"]).contains("not a directory"));
    }

    #[test]
    fn serve_with_a_journal_dir_reports_recovery_and_dedup_counters() {
        lintra_serve::signal::request_shutdown();
        let dir = std::env::temp_dir().join(format!("lintra-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_ok(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--journal-dir",
            dir.to_str().expect("utf8 path"),
        ]);
        assert!(
            out.contains("recovered: 0 answered, 0 replayed"),
            "fresh directory recovers empty: {out}"
        );
        assert!(out.contains("deduped"), "{out}");
        // The directory (and an empty journal) now exists for next time.
        assert!(dir.join("journal.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_drains_immediately_once_shutdown_is_requested() {
        // The signal flag is process-global and sticky; setting it first
        // turns `serve` into a start → drain round trip.
        lintra_serve::signal::request_shutdown();
        let out = run_ok(&["serve", "--addr", "127.0.0.1:0", "--jobs", "1"]);
        assert!(out.contains("listening on 127.0.0.1:"), "{out}");
        assert!(out.contains("draining"), "{out}");
        assert!(out.contains("drained:"), "{out}");
    }
    #[test]
    fn sim_single_seed_reports_pass_and_counters() {
        let out = run_ok(&["sim", "--seed", "42", "--sim-ms", "4000"]);
        assert!(out.contains("seed     42 PASS"), "{out}");
        assert!(out.contains("1 seed(s) simulated"), "{out}");
    }

    #[test]
    fn sim_with_injected_bug_exits_convergence_class_with_the_repro_seed() {
        let args: Vec<String> = ["sim", "--seed", "10", "--bug", "colliding-epoch"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).expect_err("the injected bug must fail a seed");
        assert_eq!(err.exit_code(), ErrorClass::Convergence.exit_code());
        let msg = err.to_string();
        assert!(msg.contains("CNV-SIM-INVARIANT"), "{msg}");
        assert!(msg.contains("reproduce with `lintra sim --seed"), "{msg}");
        // The failing run printed its fault-schedule trace.
        let out = String::from_utf8(buf).expect("utf8 output");
        assert!(out.contains("FAIL"), "{out}");
        assert!(out.contains("fault:"), "{out}");
    }

    #[test]
    fn sim_rejects_unknown_bug_names() {
        let args: Vec<String> = ["sim", "--bug", "nonesuch"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut buf = Vec::new();
        let err = run(&args, &mut buf).expect_err("unknown bug name");
        assert_eq!(err.exit_code(), 2);
    }
}
