//! `lintra-benchmark` — the end-to-end benchmark of lintra, with
//! outside-in layer tracing. See `README.md` in this directory.
//!
//! ```text
//! lintra-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! lintra-benchmark run [--seed N | --seeds A,B,…] [--seconds S] [--trace]
//!                      [--smoke] [--workloads W,…] [--out DIR]
//! lintra-benchmark compare DIR_A DIR_B
//! ```

pub mod adapter;
pub mod batch;
mod cpus;
pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use adapter::Json;
use report::{Report, RunRecord, END_TO_END};
use trace::Tracer;

/// What one workload run is asked to do.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the timed stages may take.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny stages, for checking the report shape only.
    pub smoke: bool,
    /// Batch engine workers, server workers and load-generator threads:
    /// the machine's cores.
    pub jobs: usize,
    /// Scratch space for journals and span files.
    pub run_dir: PathBuf,
}

type Workload = fn(&Ctx, &Tracer) -> Report;

/// Every workload, in the order `run` executes them.
const WORKLOADS: [(&str, Workload); 4] = [
    ("paper_suite", batch::paper_suite),
    ("synth_egraph", batch::synth_egraph),
    ("serve_light", serve::serve_light),
    ("routed_replicated", serve::routed_replicated),
];

/// Scratch space: `bench_run/` in the build directory this binary was
/// built into (`<target>/<profile>/lintra-benchmark`), which is already
/// kept out of version control.
fn run_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("bench_run"))
        .ok_or_else(|| format!("{} has no build directory", exe.display()))
}

/// Seconds per run when `run` is not told otherwise: the value the
/// benchmark declares in `BENCHMARK.json`.
fn default_seconds() -> f64 {
    Json::parse(include_str!("../../BENCHMARK.json"))
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_num))
        .unwrap_or(20.0)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: lintra-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]\n       \
         lintra-benchmark run [--seed N | --seeds A,B,…] [--seconds S] [--trace] [--smoke] \
         [--workloads W,…] [--out DIR]\n       \
         lintra-benchmark compare DIR_A DIR_B"
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare `--switch`es.
struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

fn parse_args(args: &[String], switches: &[&str]) -> Result<Args, String> {
    let mut out = Args {
        values: BTreeMap::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        if switches.contains(&name) {
            out.switches.push(name.to_string());
        } else {
            let v = it.next().ok_or(format!("--{name} needs a value"))?;
            out.values.insert(name.to_string(), v.clone());
        }
    }
    Ok(out)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Runs the command line `args` (without the program name).
pub fn cli(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => cmd_workload(args),
    };
    result.unwrap_or_else(|e| usage(&e))
}

/// One workload in this process: the interface `BENCHMARK.json` declares.
fn cmd_workload(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(args, &["smoke"])?;
    let name: String = a.get("workload")?.ok_or("--workload is required")?;
    let (_, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    let trace = match a.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    let seconds: f64 = a.get("seconds")?.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let ctx = Ctx {
        seed: a.get("seed")?.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke: a.has("smoke"),
        jobs: adapter::nproc(),
        run_dir: run_dir()?,
    };
    let tracer = Tracer::new(trace);
    let mut rep = workload(&ctx, &tracer);
    rep.note(format!("nproc {}; seed {}", ctx.jobs, ctx.seed));
    if trace {
        let e2e: Vec<String> = rep
            .e2e
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        // The `run` command reads this back to report tracing overhead.
        println!("traced end_to_end {{{}}}", e2e.join(","));
        let spans = tracer.finish();
        let path = ctx
            .run_dir
            .join("spans")
            .join(format!("{name}-seed{}.jsonl", ctx.seed));
        match trace::write_jsonl(&spans, &path) {
            Ok(()) => rep.note(format!(
                "{} spans written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => rep.fail(0, format!("writing {}: {e}", path.display())),
        }
    }
    print!("{}", rep.render());
    let _ = std::io::stdout().flush();
    Ok(if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload run in its own process.
struct Child {
    /// Everything it printed.
    stdout: String,
    /// Its last line, the result.
    result: Json,
    /// End-to-end values a traced run measured alongside its layers.
    traced_e2e: Option<Json>,
}

/// Runs one workload in a fresh process and waits for it.
fn spawn_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("starting {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{name}: unreadable result line: {e}"))?;
    let traced_e2e = stdout
        .lines()
        .find_map(|l| l.strip_prefix("traced end_to_end "))
        .and_then(|j| Json::parse(j).ok());
    Ok(Child {
        stdout,
        result,
        traced_e2e,
    })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

fn parse_seeds(a: &Args) -> Result<Vec<u64>, String> {
    if let Some(list) = a.values.get("seeds") {
        if let Some((lo, hi)) = list.split_once("..") {
            let lo: u64 = lo
                .parse()
                .map_err(|_| format!("--seeds: bad range `{list}`"))?;
            let hi: u64 = hi
                .parse()
                .map_err(|_| format!("--seeds: bad range `{list}`"))?;
            return Ok((lo..=hi).collect());
        }
        return list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: bad seed `{s}`"))
            })
            .collect();
    }
    Ok(vec![a.get("seed")?.unwrap_or(1)])
}

/// Appends one result line, tagged with its workload, seed and mode.
fn store(dir: &Path, name: &str, seed: u64, trace: bool, result: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let Json::Obj(mut doc) = result.clone() else {
        return Err(format!("{name}: result is not an object"));
    };
    doc.insert("workload".to_string(), Json::Str(name.to_string()));
    doc.insert("seed".to_string(), Json::Num(seed as f64));
    doc.insert("trace".to_string(), Json::Bool(trace));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(format!("{name}.jsonl")))
        .map_err(|e| e.to_string())?;
    writeln!(f, "{}", Json::Obj(doc).render_compact()).map_err(|e| e.to_string())
}

/// Every workload (each in its own process) for every seed; exits
/// non-zero when any output was wrong.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(args, &["trace", "smoke"])?;
    let smoke = a.has("smoke");
    let seconds: f64 = a
        .get("seconds")?
        .unwrap_or(if smoke { 0.5 } else { default_seconds() });
    let seeds = parse_seeds(&a)?;
    let names: Vec<String> = match a.values.get("workloads") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => WORKLOADS.iter().map(|(n, _)| n.to_string()).collect(),
    };
    let out_dir = a.values.get("out").map(PathBuf::from);
    let modes: &[bool] = if a.has("trace") {
        &[false, true]
    } else {
        &[false]
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for &seed in &seeds {
        for name in &names {
            let runs: Vec<Result<Child, String>> = if smoke {
                // A smoke run only checks the report's shape, so the
                // untraced and traced runs may share the machine.
                std::thread::scope(|s| {
                    let handles: Vec<_> = modes
                        .iter()
                        .map(|&trace| {
                            s.spawn(move || spawn_workload(name, seed, seconds, trace, true))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join()
                                .unwrap_or_else(|_| Err("runner thread panicked".into()))
                        })
                        .collect()
                })
            } else {
                modes
                    .iter()
                    .map(|&trace| spawn_workload(name, seed, seconds, trace, false))
                    .collect()
            };
            let mut line = format!("{name:<18} seed {seed:<3}");
            let mut plain = None;
            for (&trace, run) in modes.iter().zip(runs) {
                let run = run?;
                print!("{}", run.stdout);
                ok &= run.result.get("correct") == Some(&Json::Bool(true));
                if let Some(dir) = &out_dir {
                    store(dir, name, seed, trace, &run.result)?;
                }
                if !trace {
                    for d in END_TO_END {
                        let v = metric_value(&run.result, d.name).unwrap_or(f64::NAN);
                        line.push_str(&format!(" {}={v:.4}{}", d.name, d.unit));
                    }
                    plain = Some(run.result);
                    continue;
                }
                line.push_str("\n    tracing overhead:");
                for d in END_TO_END {
                    let base = plain.as_ref().and_then(|p| metric_value(p, d.name));
                    let with = run
                        .traced_e2e
                        .as_ref()
                        .and_then(|t| t.get(d.name)?.as_num());
                    if let (Some(b), Some(t)) = (base, with) {
                        if b != 0.0 {
                            line.push_str(&format!(" {} {:+.1}%", d.name, 100.0 * (t - b) / b));
                        }
                    }
                }
            }
            summary.push(line);
        }
    }
    println!("== summary ({} s per run) ==", seconds);
    for line in summary {
        println!("{line}");
    }
    println!(
        "{}",
        if ok {
            "all outputs correct"
        } else {
            "WRONG OUTPUTS: see above"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_records(dir: &Path) -> Result<Vec<RunRecord>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let doc = Json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
            let metrics = match doc.get("metrics") {
                Some(Json::Obj(m)) => m
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
                    .collect(),
                _ => BTreeMap::new(),
            };
            out.push(RunRecord {
                workload: doc
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                traced: doc.get("trace").and_then(Json::as_bool).unwrap_or(false),
                metrics,
            });
        }
    }
    Ok(out)
}

/// Per workload × end-to-end metric: each side's median and quartiles
/// and the verdict of B against A.
fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".to_string());
    };
    let (ra, rb) = (read_records(Path::new(a))?, read_records(Path::new(b))?);
    let (table, worse) = report::compare_table(&ra, &rb);
    print!("{table}");
    println!(
        "{}",
        if worse {
            "B is worse than A beyond a bound"
        } else {
            "B is nowhere worse than A beyond a bound"
        }
    );
    Ok(ExitCode::SUCCESS)
}
