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
use lintra_bench::{
    table2_rows_engine, table3_rows_engine, table4_rows_engine, unfold_sweep_cached, SuiteCaches,
};
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

/// Parses an integer flag (`None` when the flag is absent). A value that
/// does not fit `T` is a usage error, never a wrapped-around value.
fn parse_int<T>(args: &[String], name: &str) -> Result<Option<T>, CliError>
where
    T: std::str::FromStr<Err = std::num::ParseIntError>,
{
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| usage(format!("{name} expects an integer, got `{v}` ({e})"))),
    }
}

/// Parses `--jobs N` into a worker pool (`None` when the flag is absent).
fn parse_jobs(args: &[String]) -> Result<Option<ThreadPool>, CliError> {
    match parse_int(args, "--jobs")? {
        None => Ok(None),
        Some(0) => Err(usage("--jobs expects a positive worker count, got `0`")),
        Some(n) => Ok(Some(ThreadPool::new(n))),
    }
}

fn design_arg(operands: &[&str]) -> Result<Design, CliError> {
    let name = operands
        .first()
        .ok_or_else(|| usage("expected a design name"))?;
    by_name(name).ok_or_else(|| {
        let names: Vec<&str> = suite().iter().map(|d| d.name).collect();
        usage(format!(
            "unknown design `{name}`; available: {}",
            names.join(", ")
        ))
    })
}

/// One command as `run` checks it and `help` lists it. Every flag a
/// command takes is declared here once.
struct Command {
    name: &'static str,
    /// Flags this form needs, `help` shows them unbracketed. A line that
    /// gives them all picks this form: `sim --shards G` is one of its own.
    required: Flags,
    operands: &'static str,
    flags: Flags,
    about: &'static str,
}

/// `(flag, value)`: the name `help` gives the flag's value, empty for a
/// flag that takes none.
type Flags = &'static [(&'static str, &'static str)];

const COMMANDS: &[Command] = &[
    Command {
        name: "suite",
        required: &[],
        operands: "",
        flags: &[],
        about: "list the benchmark designs",
    },
    Command {
        name: "show",
        required: &[],
        operands: "<design>",
        flags: &[],
        about: "print a design's dimensions and stats",
    },
    Command {
        name: "optimize",
        required: &[],
        operands: "<design>",
        flags: &[
            ("--strategy", "single|multi|asic|egraph"),
            ("--v0", "V"),
            ("--processors", "N"),
            ("--jobs", "N"),
        ],
        about: "optimize one design with a strategy of the paper (or the e-graph search)",
    },
    Command {
        name: "sweep",
        required: &[],
        operands: "<design>",
        flags: &[("--max", "I")],
        about: "ops/sample vs unfolding factor",
    },
    Command {
        name: "tables",
        required: &[],
        operands: "",
        flags: &[("--v0", "V"), ("--jobs", "N")],
        about: "regenerate paper Tables 2-4",
    },
    Command {
        name: "mcm",
        required: &[],
        operands: "<c1> <c2> ...",
        flags: &[("--binary", "")],
        about: "synthesize a shared shift-add network",
    },
    Command {
        name: "serve",
        required: &[],
        operands: "",
        flags: &[
            ("--addr", "A"),
            ("--jobs", "N"),
            ("--max-inflight", "N"),
            ("--deadline-ms", "D"),
            ("--stall-budget-ms", "S"),
            ("--chaos", ""),
            ("--journal-dir", "DIR"),
            ("--journal-rotate-bytes", "T"),
            ("--replica-of", "P"),
            ("--peers", "A,B"),
            ("--epoch-dir", "DIR"),
            ("--failover-grace-ms", "G"),
            ("--heartbeat-ms", "H"),
        ],
        about: "run the optimization service (drains on SIGTERM);\n\
                --journal-dir makes it durable: write-ahead journal,\n\
                crash recovery, request_id dedup;\n\
                --replica-of makes it a follower that replicates the\n\
                primary's journal and promotes itself on failover;\n\
                --peers lets replicas arbitrate and fence stale epochs",
    },
    Command {
        name: "route",
        required: &[("--shards", "a:1,a:2;b:1,b:2")],
        operands: "",
        flags: &[
            ("--addr", "A"),
            ("--probe-ms", "P"),
            ("--hedge-min-ms", "H"),
            ("--retry-ratio-milli", "R"),
            ("--retry-cap", "C"),
            ("--vnodes", "V"),
            ("--no-hedge", ""),
        ],
        about: "route requests across replicated shard groups by\n\
                consistent hash: health-probed endpoints, per-shard\n\
                circuit breakers (RES-SHARD-DOWN degrades one shard,\n\
                not the cluster), a global retry budget\n\
                (RES-RETRY-BUDGET), and P99-hedged keyed requests",
    },
    Command {
        name: "cluster-status",
        required: &[("--addr", "A")],
        operands: "",
        flags: &[("--timeout-ms", "T")],
        about: "one-line-per-shard health view from a running router",
    },
    Command {
        name: "request",
        required: &[("--addr", "A[,B,...]")],
        operands: "<ping|optimize|sweep|tables> [design]",
        flags: &[
            ("--strategy", "S"),
            ("--v0", "V"),
            ("--processors", "N"),
            ("--max", "I"),
            ("--deadline-ms", "D"),
            ("--retries", "N"),
            ("--request-id", "K"),
            ("--id", "ID"),
            ("--fault", "F"),
        ],
        about: "send one request to a running server;\n\
                --addr takes an ordered endpoint list — the client\n\
                walks past dead or non-primary replicas;\n\
                --request-id K makes the request idempotent;\n\
                --id sets the wire correlation id, --fault asks a\n\
                chaos server to inject a fault",
    },
    Command {
        name: "recover",
        required: &[],
        operands: "<dir>",
        flags: &[],
        about: "inspect a durability directory read-only",
    },
    Command {
        name: "sim",
        required: &[],
        operands: "",
        flags: &[
            ("--seed", "N"),
            ("--swarm", "K"),
            ("--seconds", "S"),
            ("--nodes", "N"),
            ("--clients", "C"),
            ("--sim-ms", "MS"),
            ("--bug", "none|colliding-epoch"),
            ("--trace", ""),
        ],
        about: "deterministically simulate the replicated cluster\n\
                under seeded faults; every run reproduces from its\n\
                seed, failures print the fault schedule and exit 5",
    },
    Command {
        name: "sim",
        required: &[("--shards", "G")],
        operands: "",
        flags: &[
            ("--replicas", "R"),
            ("--scenario", "none|primary-crash|blackout"),
            ("--group", "I"),
            ("--clients", "C"),
            ("--requests", "N"),
            ("--sim-ms", "MS"),
            ("--bug", "none|unbounded-retries"),
            ("--seed", "N"),
            ("--swarm", "K"),
            ("--seconds", "S"),
            ("--trace", ""),
        ],
        about: "simulate the sharded router over G replicated shard\n\
                groups: blackouts, failovers, retry-budget and\n\
                degradation invariants, all under virtual time",
    },
];

impl Command {
    /// The declared command a command line names: of the forms whose
    /// required flags it gives, the one that requires most; else the
    /// first form, which reports what is missing when it runs.
    fn of(name: &str, rest: &[String]) -> Option<&'static Command> {
        let given = |flag: &str| rest.iter().any(|a| a == flag);
        let forms = || COMMANDS.iter().filter(|c| c.name == name);
        forms()
            .filter(|c| c.required.iter().all(|(flag, _)| given(flag)))
            .max_by_key(|c| c.required.len())
            .or_else(|| forms().next())
    }

    /// Every flag this form takes, the required ones first.
    fn all_flags(&self) -> impl Iterator<Item = &'static (&'static str, &'static str)> {
        self.required.iter().chain(self.flags)
    }

    /// `Some(true)` for a declared flag that takes a value, `Some(false)`
    /// for one that takes none, `None` for a flag this command lacks.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        self.all_flags()
            .find(|(f, _)| *f == flag)
            .map(|(_, value)| !value.is_empty())
    }

    /// The operands of `rest` (what is neither a flag nor a flag's
    /// value), once every flag is checked against the declaration.
    ///
    /// # Errors
    ///
    /// A usage error for a flag this command does not take, or for a
    /// flag that takes a value and has none.
    fn operands<'a>(&self, rest: &'a [String]) -> Result<Vec<&'a str>, CliError> {
        let mut operands = Vec::new();
        let mut rest = rest.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                operands.push(arg.as_str());
                continue;
            }
            match self.takes_value(arg) {
                None => {
                    let known: Vec<&str> = self.all_flags().map(|f| f.0).collect();
                    let known = if known.is_empty() {
                        "no flags".to_string()
                    } else {
                        known.join(", ")
                    };
                    return Err(usage(format!(
                        "`{}` does not take `{arg}`; it takes {known}",
                        self.name
                    )));
                }
                Some(true) if rest.next().is_none() => {
                    return Err(usage(format!("{arg} expects a value")));
                }
                Some(_) => {}
            }
        }
        Ok(operands)
    }

    /// Writes the synopsis, wrapped, then what the command does.
    fn write_usage(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut line = format!("  {}", self.name);
        let indent = " ".repeat(line.len());
        let flag = |(flag, value): &(&str, &str)| match *value {
            "" => flag.to_string(),
            value => format!("{flag} {value}"),
        };
        let required = self.required.iter().map(flag);
        let operands = (!self.operands.is_empty()).then(|| self.operands.to_string());
        let optional = self.flags.iter().map(|f| format!("[{}]", flag(f)));
        for word in operands.into_iter().chain(required).chain(optional) {
            if line.len() + 1 + word.len() > 78 && line.len() > indent.len() {
                writeln!(out, "{line}")?;
                line.clone_from(&indent);
            }
            line.push(' ');
            line.push_str(&word);
        }
        writeln!(out, "{line}")?;
        for about in self.about.lines() {
            writeln!(out, "      {about}")?;
        }
        Ok(())
    }
}

/// Entry point shared by `main` and the tests. A command line is checked
/// against its command's declared flags before the command runs, and
/// `--help` or `-h` after a command prints its usage and runs nothing.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed command lines and
/// [`CliError::Io`] when writing to `out` fails.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let Some((name, rest)) = args.split_first() else {
        return help(out);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return help(out);
    }
    let cmd = Command::of(name, rest).ok_or_else(|| usage(format!("unknown command `{name}`")))?;
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        cmd.write_usage(out)?;
        return Ok(());
    }
    let operands = cmd.operands(rest)?;
    match cmd.name {
        "suite" => cmd_suite(out),
        "show" => cmd_show(&operands, out),
        "optimize" => cmd_optimize(rest, &operands, out),
        "sweep" => cmd_sweep(rest, &operands, out),
        "tables" => cmd_tables(rest, out),
        "mcm" => cmd_mcm(rest, &operands, out),
        "serve" => cmd_serve(rest, out),
        "route" => cmd_route(rest, out),
        "cluster-status" => cmd_cluster_status(rest, out),
        "request" => cmd_request(rest, &operands, out),
        "recover" => cmd_recover(&operands, out),
        _ => cmd_sim(rest, out),
    }
}

fn help(out: &mut impl Write) -> Result<(), CliError> {
    writeln!(
        out,
        "lintra — transformation-based power optimization of linear systems\n\ncommands:"
    )?;
    for cmd in COMMANDS {
        cmd.write_usage(out)?;
    }
    writeln!(
        out,
        "\n`--jobs N` fans work out over the parallel sweep engine; output is\n\
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

fn cmd_show(operands: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(operands)?;
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

fn cmd_optimize(args: &[String], operands: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(operands)?;
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
            let selection = match parse_int(args, "--processors")? {
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

fn cmd_sweep(args: &[String], operands: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    let d = design_arg(operands)?;
    let max = parse_int(args, "--max")?.unwrap_or(16);
    writeln!(out, "i,muls_per_sample,adds_per_sample,total")?;
    // Incremental unfolding: step i -> i+1 reuses the A^i / [A^{i-1}B|...]
    // prefixes instead of re-unfolding from scratch (bit-identical counts).
    for (i, m, a) in unfold_sweep_cached(max, &mut SweepCache::new(&d.system))? {
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

fn cmd_mcm(args: &[String], operands: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    let recoding = if args.iter().any(|a| a == "--binary") {
        Recoding::Binary
    } else {
        Recoding::Csd
    };
    let constants: Vec<i64> = operands
        .iter()
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
        jobs: parse_int(args, "--jobs")?,
        chaos: args.iter().any(|a| a == "--chaos"),
        ..ServerConfig::default()
    };
    if let Some(n) = parse_int(args, "--max-inflight")? {
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
            "recovered: {} answered, {} replayed, torn_tail={}, journal_quarantined={}",
            rec.answered,
            rec.replayed,
            rec.torn_tail,
            rec.journal_quarantined.is_some()
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
    if let Some(n) = parse_int(args, "--retry-ratio-milli")? {
        config.retry_ratio_milli = n;
    }
    if let Some(n) = parse_int(args, "--retry-cap")? {
        config.retry_cap = n;
    }
    if let Some(n) = parse_int(args, "--vnodes")? {
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
    use lintra_serve::{round_trip, SystemClock, TcpTransport};

    let addr = flag_value(args, "--addr").ok_or_else(|| {
        usage("cluster-status needs --addr host:port of a running `lintra route`")
    })?;
    let timeout = Duration::from_millis(parse_millis(args, "--timeout-ms")?.unwrap_or(2000));
    let (query, clock) = ("{\"router\":\"status\"}", SystemClock::new());
    let line = round_trip(&TcpTransport, &clock, addr, query, timeout, timeout)
        .map_err(|e| CliError::Io(std::io::Error::other(e)))?;
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
fn cmd_request(args: &[String], pos: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    let addr = flag_value(args, "--addr")
        .ok_or_else(|| usage("request needs --addr host:port of a running `lintra serve`"))?;
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
            processors: parse_int(args, "--processors")?,
        },
        "sweep" => WireOp::Sweep {
            design: design_name()?,
            max_i: parse_int(args, "--max")?.unwrap_or(16),
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

    let retries = parse_int(args, "--retries")?.unwrap_or(3).max(1);
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
/// what a durable server would find there (rotated segments, then the
/// live journal), without starting one.
fn cmd_recover(operands: &[&str], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_serve::journal::{fold_records, scan_dir, ScanOutcome, JOURNAL_FILE};

    let dir = operands
        .first()
        .map(std::path::PathBuf::from)
        .ok_or_else(|| usage("recover expects a durability directory"))?;
    if !dir.is_dir() {
        return Err(usage(format!("`{}` is not a directory", dir.display())));
    }

    let journal_path = dir.join(JOURNAL_FILE);
    let read = scan_dir(&dir)?;
    if read.segments.is_empty() && !journal_path.exists() {
        writeln!(out, "journal: none at {}", journal_path.display())?;
        return Ok(());
    }
    let (settled, incomplete) = fold_records(&read.records);
    let state = match &read.outcome {
        ScanOutcome::Clean => "clean".to_string(),
        ScanOutcome::TornTail { valid_len } => {
            format!("torn tail (valid through byte {valid_len}; a restart truncates it)")
        }
        ScanOutcome::Corrupt { offset, detail } => {
            format!("CORRUPT at byte {offset}: {detail} (a restart quarantines it)")
        }
    };
    writeln!(out, "journal: {} records, {state}", read.records.len())?;
    writeln!(
        out,
        "keys: {} settled, {} incomplete",
        settled.len(),
        incomplete.len()
    )?;
    for (rid, _) in &incomplete {
        writeln!(out, "incomplete: {rid} (will replay on restart)")?;
    }
    Ok(())
}

/// `lintra sim`: deterministic simulation of the replicated cluster, or
/// with `--shards` of the sharded router — one seed, a fixed swarm
/// (`--swarm K`), or a wall-clock-budgeted swarm (`--seconds S`). Every
/// run is a pure function of `(seed, config)`; a violated invariant
/// prints the seed plus the compact fault-schedule trace and exits 5
/// with `CNV-SIM-INVARIANT`, naming the command that replays it.
fn cmd_sim(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use lintra_sim::{run_shard_sim, run_sim};

    if flag_value(args, "--shards").is_some() {
        let config = shard_sim_config(args)?;
        sim_swarm(args, out, |seed| {
            let r = run_shard_sim(seed, &config);
            SeedRun {
                counters: format!(
                    "{} events, {} settled, {} forwarded, {} retries, {} hedges, \
                     {} shed, {} shard-down, {} promotions",
                    r.events,
                    r.settled,
                    r.forwarded,
                    r.retries,
                    r.hedges,
                    r.shed,
                    r.shard_down,
                    r.promotions
                ),
                violations: r.violations,
                trace: r.trace,
            }
        })
    } else {
        let config = cluster_sim_config(args)?;
        sim_swarm(args, out, |seed| {
            let r = run_sim(seed, &config);
            SeedRun {
                counters: format!(
                    "{} events, {} settled, {} deduped, {} promotions, {} fences",
                    r.events, r.settled, r.deduped, r.promotions, r.fences
                ),
                violations: r.violations,
                trace: r.trace,
            }
        })
    }
}

/// The replicated-cluster simulation's flags.
fn cluster_sim_config(args: &[String]) -> Result<lintra_sim::SimConfig, CliError> {
    use lintra_sim::{SimBug, SimConfig};

    let mut config = SimConfig::default();
    if let Some(n) = parse_int(args, "--nodes")? {
        if n < 2 {
            return Err(usage("--nodes expects a cluster of at least 2"));
        }
        config.nodes = n;
    }
    if let Some(n) = parse_int(args, "--clients")? {
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
    Ok(config)
}

/// `sim --shards`: the sharded-router simulation's flags — M replicated
/// shard groups behind the router core `route` runs, under virtual time.
fn shard_sim_config(args: &[String]) -> Result<lintra_sim::ShardSimConfig, CliError> {
    use lintra_sim::{RouterSimBug, ShardScenario, ShardSimConfig};

    let mut config = ShardSimConfig {
        // Long enough a queue that clients are still sending when the
        // scenario fault lands at 1/8 of the run.
        requests_per_client: 16,
        ..ShardSimConfig::default()
    };
    if let Some(g) = parse_int(args, "--shards")? {
        if g < 2 {
            return Err(usage("--shards expects at least 2 shard groups"));
        }
        config.groups = g;
    }
    if let Some(r) = parse_int::<usize>(args, "--replicas")? {
        config.nodes_per_group = r.max(1);
    }
    if let Some(c) = parse_int(args, "--clients")? {
        config.clients = c;
    }
    if let Some(n) = parse_int(args, "--requests")? {
        config.requests_per_client = n;
    }
    if let Some(ms) = parse_millis(args, "--sim-ms")? {
        config.sim_ms = ms.max(100);
    }
    let group = parse_int(args, "--group")?.unwrap_or(0);
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
    Ok(config)
}

/// One simulated seed, as the swarm loop prints and judges it.
struct SeedRun {
    /// The counters printed after the seed's verdict.
    counters: String,
    /// Invariant violations, in detection order. Empty means PASS.
    violations: Vec<String>,
    /// The compact fault-schedule trace.
    trace: Vec<String>,
}

/// The swarm loop both simulations share: runs `run_seed` over the seed
/// range (`--seed`, `--swarm`) until the optional `--seconds` budget is
/// spent, prints one line per seed (plus its trace when it failed or
/// `--trace` is set), and turns the first failing seed into a
/// `CNV-SIM-INVARIANT` failure whose repro replays that seed.
fn sim_swarm(
    args: &[String],
    out: &mut impl Write,
    run_seed: impl Fn(u64) -> SeedRun,
) -> Result<(), CliError> {
    let first = parse_int(args, "--seed")?.unwrap_or(1u64);
    let swarm = parse_int(args, "--swarm")?.unwrap_or(1u64).max(1);
    // A budget that is spent before the first seed would pass vacuously.
    let seconds = match flag_value(args, "--seconds") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .ok_or_else(|| {
                    usage(format!(
                        "--seconds expects a positive, finite wall-clock budget, got `{v}`"
                    ))
                })?,
        ),
    };
    let trace = args.iter().any(|a| a == "--trace");

    let started = std::time::Instant::now();
    let mut first_failure: Option<(u64, Vec<String>)> = None;
    let mut ran = 0u64;
    for seed in first..first.saturating_add(swarm) {
        if let Some(budget) = seconds {
            if started.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let run = run_seed(seed);
        ran += 1;
        let passed = run.violations.is_empty();
        writeln!(
            out,
            "seed {seed:>6} {} — {}",
            if passed { "PASS" } else { "FAIL" },
            run.counters
        )?;
        if trace || !passed {
            for line in &run.trace {
                writeln!(out, "  {line}")?;
            }
        }
        if !passed && first_failure.is_none() {
            first_failure = Some((seed, run.violations));
        }
    }
    writeln!(
        out,
        "{ran} seed(s) simulated in {:.2}s wall clock",
        started.elapsed().as_secs_f64()
    )?;
    if let Some((seed, violations)) = first_failure {
        return Err(CliError::Remote(WireFailure {
            class: ErrorClass::Convergence,
            code: "CNV-SIM-INVARIANT".to_string(),
            message: format!(
                "seed {seed} violated {} invariant(s): {}; reproduce with `{}`",
                violations.len(),
                violations.join("; "),
                sim_repro(args, seed)
            ),
        }));
    }
    Ok(())
}

/// The command that replays `seed` alone, with its trace: every flag of
/// the `sim` command line `args` except the swarm's `--swarm` and
/// `--seconds`, with `--seed` set to `seed`.
fn sim_repro(args: &[String], seed: u64) -> String {
    let seed = seed.to_string();
    let mut cmd = vec!["lintra", "sim", "--seed", &seed];
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        match arg {
            "--trace" => {}
            "--seed" | "--swarm" | "--seconds" => {
                rest.next();
            }
            flag if flag.starts_with("--") => {
                cmd.push(flag);
                cmd.extend(rest.next());
            }
            // `sim` takes no positional arguments.
            _ => {}
        }
    }
    cmd.push("--trace");
    cmd.join(" ")
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
    fn integers_that_do_not_fit_their_flag_are_usage_errors() {
        // 2^32 and 2^32 + 2 once wrapped to a sweep of 0 and 0..=2.
        for max in ["4294967296", "4294967298"] {
            assert!(usage_msg(&["sweep", "chemical", "--max", max]).contains("--max"));
            assert!(usage_msg(&[
                "request",
                "sweep",
                "chemical",
                "--addr",
                "127.0.0.1:9",
                "--max",
                max
            ])
            .contains("--max"));
        }
        assert!(usage_msg(&[
            "request",
            "ping",
            "--addr",
            "127.0.0.1:9",
            "--retries",
            "4294967296"
        ])
        .contains("--retries"));
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
    fn optimize_rejects_a_flag_it_does_not_take() {
        let msg = usage_msg(&["optimize", "iir5", "--bogus"]);
        assert!(msg.contains("`--bogus`"), "{msg}");
        assert!(msg.contains("--strategy"), "names what it takes: {msg}");
    }

    #[test]
    fn a_misspelt_flag_never_falls_back_to_its_default() {
        let msg = usage_msg(&["sweep", "iir5", "--maxx", "3"]);
        assert!(msg.contains("`--maxx`"), "{msg}");
        assert!(usage_msg(&["sweep", "iir5", "--max"]).contains("--max expects a value"));
    }

    #[test]
    fn a_misspelt_serve_flag_never_starts_a_server() {
        // Were the server to start, a requested shutdown drains it at once.
        lintra_serve::signal::request_shutdown();
        let msg = usage_msg(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--journal-dri",
            "/nonesuch",
        ]);
        assert!(msg.contains("`--journal-dri`"), "{msg}");
    }

    #[test]
    fn help_after_a_command_runs_nothing() {
        lintra_serve::signal::request_shutdown();
        let out = run_ok(&["serve", "--help"]);
        assert!(!out.contains("listening on"), "no server starts: {out}");
        assert!(out.contains("--journal-dir"), "{out}");
        let out = run_ok(&["optimize", "iir5", "-h"]);
        assert!(!out.contains("single processor"), "nothing runs: {out}");
        assert!(out.contains("--strategy"), "{out}");
    }

    #[test]
    fn help_lists_every_flag_a_command_accepts() {
        let listed = [
            (&["serve"][..], &["--deadline-ms", "--stall-budget-ms"][..]),
            (&["request"], &["--id", "--fault"]),
            (&["cluster-status"], &["--timeout-ms"]),
            (
                &["sim", "--shards", "2"],
                &["--clients", "--sim-ms", "--seconds"],
            ),
        ];
        lintra_serve::signal::request_shutdown();
        for (command, flags) in listed {
            let out = run_ok(&[command, &["--help"]].concat());
            for flag in flags {
                assert!(
                    out.contains(&format!("[{flag} ")),
                    "{command:?} {flag}: {out}"
                );
            }
        }
    }

    #[test]
    fn every_declared_flag_is_in_help_and_none_twice() {
        let help = run_ok(&["help"]);
        for cmd in COMMANDS {
            let mut flags: Vec<&str> = cmd.all_flags().map(|f| f.0).collect();
            for flag in &flags {
                assert!(help.contains(flag), "{} {flag}", cmd.name);
            }
            flags.sort_unstable();
            flags.dedup();
            assert_eq!(
                flags.len(),
                cmd.required.len() + cmd.flags.len(),
                "{}",
                cmd.name
            );
        }
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
        let strings =
            |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        let args = strings(&["--addr", "127.0.0.1:9", "ping", "--v0", "3.3", "extra"]);
        let request = Command::of("request", &args).expect("declared");
        assert_eq!(request.operands(&args).unwrap(), vec!["ping", "extra"]);
        // A flag that takes no value does not swallow the next operand.
        let args = strings(&["--binary", "185", "-235"]);
        let mcm = Command::of("mcm", &args).expect("declared");
        assert_eq!(mcm.operands(&args).unwrap(), vec!["185", "-235"]);
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
        let _ = std::fs::remove_dir_all(&dir);

        assert!(usage_msg(&["recover"]).contains("durability directory"));
        assert!(usage_msg(&["recover", "/nonesuch-lintra-dir"]).contains("not a directory"));
    }

    #[test]
    fn recover_reads_rotated_segments_like_a_restart() {
        use lintra_serve::journal::{Journal, RecordKind, SEGMENT_PREFIX};

        let dir = std::env::temp_dir().join(format!("lintra-cli-rotated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            // A small cap rotates every few appends, so the open admit is
            // compacted into a segment and carried through each rotation.
            let (mut journal, _) = Journal::open_dir_with(&dir, Some(64)).expect("open");
            journal
                .append(RecordKind::Admit, "open-key", "req-open")
                .expect("admit");
            for i in 0..8 {
                let rid = format!("k{i}");
                journal
                    .append(RecordKind::Admit, &rid, "req")
                    .expect("admit");
                journal
                    .append(RecordKind::Done, &rid, "resp")
                    .expect("done");
            }
        }
        let rotated = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with(SEGMENT_PREFIX));
        assert!(rotated, "the journal rotated into a segment");

        let out = run_ok(&["recover", dir.to_str().expect("utf8 path")]);
        assert!(out.contains("keys: 8 settled, 1 incomplete"), "{out}");
        assert!(out.contains("incomplete: open-key"), "{out}");
        // A restart finds the same keys.
        let (_, rec) = Journal::open_dir(&dir).expect("reopen");
        assert_eq!(rec.completed.len(), 8);
        assert_eq!(
            rec.incomplete,
            vec![("open-key".to_string(), "req-open".to_string())]
        );
        let _ = std::fs::remove_dir_all(&dir);
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

    /// Runs a `sim` command line that fails `seed`, then the repro its
    /// failure names, and checks that the repro fails the same seed.
    fn assert_printed_repro_reproduces(args: &[&str], seed: u64) {
        let err = run_err(args);
        assert_eq!(err.exit_code(), ErrorClass::Convergence.exit_code());
        let msg = err.to_string();
        assert!(msg.contains(&format!("seed {seed} violated")), "{msg}");
        let repro = msg
            .rsplit_once("reproduce with `")
            .and_then(|(_, r)| r.strip_suffix('`'))
            .unwrap_or_else(|| panic!("no repro in {msg}"));
        let argv: Vec<&str> = repro.split(' ').collect();
        assert_eq!(argv[..2], ["lintra", "sim"], "{repro}");
        let replay = run_err(&argv[1..]);
        let replayed = replay.to_string();
        assert!(replayed.contains("CNV-SIM-INVARIANT"), "{replayed}");
        assert!(
            replayed.contains(&format!("seed {seed} violated")),
            "{replayed}"
        );
        assert!(
            replayed.ends_with(&format!("reproduce with `{repro}`")),
            "{replayed}"
        );
    }

    #[test]
    fn cluster_sim_repro_replays_the_failing_seed() {
        assert_printed_repro_reproduces(
            &[
                "sim",
                "--seed",
                "10",
                "--swarm",
                "2",
                "--seconds",
                "600",
                "--bug",
                "colliding-epoch",
            ],
            10,
        );
    }

    #[test]
    fn shard_sim_repro_replays_the_failing_seed() {
        assert_printed_repro_reproduces(
            &[
                "sim",
                "--shards",
                "2",
                "--scenario",
                "blackout",
                "--group",
                "1",
                "--seed",
                "7",
                "--bug",
                "unbounded-retries",
            ],
            7,
        );
    }

    #[test]
    fn sim_rejects_budgets_that_are_not_positive_and_finite() {
        for budget in ["0", "-0", "-1", "-0.5", "nan", "inf", "-inf", "soon"] {
            for shards in [
                &[][..],
                &["--shards", "2", "--bug", "unbounded-retries"][..],
            ] {
                let mut args = vec!["sim", "--swarm", "4", "--seconds", budget];
                if shards.is_empty() {
                    args.extend(["--bug", "colliding-epoch"]);
                }
                args.extend(shards);
                let err = run_err(&args);
                assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
                assert!(err.to_string().contains("--seconds"), "{args:?}: {err}");
            }
        }
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
