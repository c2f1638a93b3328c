//! Metric definitions, one workload run's report, and the `compare`
//! verdicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, gains).
    Higher,
}

/// One metric's name, unit and direction; end-to-end metrics carry the
/// share of the parent's median by which they may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("energy_gain_x", "x", Higher, 0.06),
];

/// The bound `compare` holds each workload to, per end-to-end metric in
/// `END_TO_END` order: three times the metric's spread over ten seeds on
/// that workload, at least 0.05 and at most 0.25. A metric's bound in
/// `BENCHMARK.json` is the largest of its workloads', so that one bound
/// fits every workload.
pub const WORKLOAD_BOUNDS: [(&str, [f64; END_TO_END.len()]); 4] = [
    ("paper_suite", [0.25, 0.25, 0.25, 0.18, 0.05]),
    ("synth_egraph", [0.25, 0.25, 0.25, 0.25, 0.06]),
    ("serve_light", [0.25, 0.05, 0.21, 0.05, 0.05]),
    ("routed_replicated", [0.25, 0.12, 0.19, 0.09, 0.05]),
];

/// The bound of metric `END_TO_END[i]` on `workload`; a workload without
/// its own bounds gets the metric's declared one.
pub fn workload_bound(workload: &str, i: usize) -> f64 {
    WORKLOAD_BOUNDS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(END_TO_END[i].bound.unwrap_or(0.0), |(_, b)| b[i])
}

/// Single layers, measured by a traced run. Batch workloads report
/// pipeline layers per pass; service workloads report service layers;
/// a layer a workload never enters reads 0.
pub const PER_LAYER: [MetricDef; 43] = [
    layer("opt.single_s", "s", Lower),
    layer("opt.multi_s", "s", Lower),
    layer("opt.asic_s", "s", Lower),
    layer("opt.egraph_s", "s", Lower),
    layer("opt.residual_s", "s", Lower),
    layer("transform.horner_s", "s", Lower),
    layer("transform.mcm_pass_s", "s", Lower),
    layer("linsys.unfold_s", "s", Lower),
    layer("dfg.build_s", "s", Lower),
    layer("egraph.seed_s", "s", Lower),
    layer("egraph.saturate_s", "s", Lower),
    layer("egraph.extract_s", "s", Lower),
    layer("egraph.match_s", "s", Lower),
    layer("egraph.apply_s", "s", Lower),
    layer("egraph.rebuild_s", "s", Lower),
    layer("egraph.enodes", "count", Lower),
    layer("egraph.iterations", "count", Lower),
    layer("egraph.improved_share", "fraction", Higher),
    layer("egraph.results", "count", Higher),
    layer("mcm.muls_removed", "count", Higher),
    layer("engine.cache_hit_rate", "fraction", Higher),
    layer("engine.cache_hits", "count", Higher),
    layer("engine.cache_misses", "count", Lower),
    layer("engine.parallel_speedup", "x", Higher),
    layer("matrix.mults", "count", Lower),
    layer("serve.transport.ping_p50_ms", "ms", Lower),
    layer("wire.codec_us", "us", Lower),
    layer("serve.journal.append_p50_ms", "ms", Lower),
    layer("serve.journal.append_p99_ms", "ms", Lower),
    layer("serve.journal.recover_s", "s", Lower),
    layer("serve.compute_p50_ms", "ms", Lower),
    layer("serve.server.dedup_share", "fraction", Higher),
    layer("serve.server.shed", "count", Lower),
    layer("serve.server.failed", "count", Lower),
    layer("serve.router.hop_ms", "ms", Lower),
    layer("serve.router.retries", "count", Lower),
    layer("serve.router.hedges", "count", Lower),
    layer("serve.router.hedge_wins", "count", Higher),
    layer("serve.replicate.lag_max_records", "count", Lower),
    layer("serve.replicate.catchup_ms", "ms", Lower),
    layer("loadgen.late_max_ms", "ms", Lower),
    layer("loadgen.sent", "count", Higher),
    layer("serve.unattributed_ms", "ms", Lower),
];

/// True for the service's per-layer metrics; the rest are pipeline
/// layers.
pub fn is_service_layer(name: &str) -> bool {
    ["serve.", "wire.", "loadgen."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// One workload run.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether the run was traced.
    pub traced: bool,
    /// Operations attempted (results computed or requests sent).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Every wrong output, described.
    pub problems: Vec<String>,
    /// End-to-end metric values.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable context: sample counts, percentiles, accounting.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Report {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records `n` operations that failed or answered wrongly.
    pub fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Reads 0 for every per-layer metric `absent` selects that is not
    /// set: the layers this workload never enters.
    pub fn zero_layers(&mut self, absent: impl Fn(&str) -> bool) {
        for d in PER_LAYER.iter().filter(|d| absent(d.name)) {
            self.layers.entry(d.name).or_insert(0.0);
        }
    }

    /// True when every output was checked correct.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The metrics this run reports: end-to-end untraced, per-layer
    /// traced. A metric the workload never set is a benchmark bug.
    fn reported(&self) -> Vec<(MetricDef, Option<f64>)> {
        let (defs, values): (&[MetricDef], _) = if self.traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.e2e)
        };
        defs.iter()
            .map(|d| (*d, values.get(d.name).copied()))
            .collect()
    }

    /// The human-readable block followed by the one-line JSON result.
    pub fn render(&mut self) -> String {
        let reported = self.reported();
        if self.attempted == 0 {
            self.fail(0, "the workload attempted nothing".to_string());
        }
        for (def, value) in &reported {
            match value {
                Some(v) if v.is_finite() => {}
                Some(v) => self.fail(0, format!("metric {} is not finite ({v})", def.name)),
                None => self.fail(0, format!("metric {} was not measured", def.name)),
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} ({})",
            self.workload,
            if self.traced { "traced" } else { "untraced" }
        );
        for (def, value) in &reported {
            let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {:<32} {:>16} {}",
                def.name,
                format_value(v),
                def.unit
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  WRONG: {p}");
        }
        let metrics: Vec<String> = reported
            .iter()
            .map(|(def, value)| {
                let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name,
                    format_value(v),
                    def.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        out
    }
}

/// Every digit `f64` formatting gives; never an exponent, so the value is
/// always a plain JSON number.
fn format_value(v: f64) -> String {
    format!("{v}")
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// --- compare ------------------------------------------------------------------

/// The verdict on one workload × metric between a parent set `a` and a
/// change set `b` of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins clearly: its median beats the parent's by more
    /// than the parent's own spread, and at least 90% of cross pairs.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Neither better nor worse beyond the bound.
    WithinBound,
    /// The spread of either side exceeds the bound, so a difference
    /// within it cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// The printed label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for a metric with `better` direction and
/// `bound` (share of `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    // Positive = the change is better, as a share of the parent median.
    let sign = if better == Better::Higher { 1.0 } else { -1.0 };
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let gain = sign * (mb - ma) / scale;
    let beats = |x: f64, y: f64| sign * (x - y) > 0.0;
    let pairs = a.len() * b.len();
    let wins = b
        .iter()
        .flat_map(|y| a.iter().map(move |x| (x, y)))
        .filter(|(x, y)| beats(**y, **x))
        .count();
    let losses = b
        .iter()
        .flat_map(|y| a.iter().map(move |x| (x, y)))
        .filter(|(x, y)| beats(**x, **y))
        .count();
    let spread_a = stats::relative_spread(a);
    let spread = spread_a.max(stats::relative_spread(b));
    if pairs > 0 && wins == pairs {
        return Verdict::Better;
    }
    if spread > bound {
        return if pairs > 0 && losses == pairs {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > spread_a && wins * 10 >= pairs * 9 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// One run's result line as `run --out` stores it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub traced: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The `compare` table: per workload × end-to-end metric, each side's
/// median and quartiles and the verdict.
pub fn compare_table(a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut out = String::new();
    let mut worse = false;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:>5} {:>32} {:>32}  verdict",
        "workload", "metric", "bound", "A median [q1, q3] (n)", "B median [q1, q3] (n)"
    );
    for w in workloads {
        for (i, def) in END_TO_END.iter().enumerate() {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == w && !r.traced)
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            let bound = workload_bound(w, i);
            let v = verdict(&va, &vb, def.better, bound);
            worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<18} {:<18} {:>5.2} {:>32} {:>32}  {}",
                w,
                def.name,
                bound,
                summary(&va),
                summary(&vb),
                v.label()
            );
        }
    }
    (out, worse)
}

fn summary(xs: &[f64]) -> String {
    match (stats::median(xs), stats::quartiles(xs)) {
        (Some(m), Some((q1, q3))) => {
            format!("{} [{}, {}] ({})", sig4(m), sig4(q1), sig4(q3), xs.len())
        }
        (Some(m), None) => format!("{} ({})", sig4(m), xs.len()),
        _ => "-".to_string(),
    }
}

/// `x` to four significant digits, so sub-millisecond set-up times and
/// request rates read alike.
fn sig4(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (3 - magnitude).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Json;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(j.get("bound").and_then(Json::as_num), d.bound, "{}", d.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }

    #[test]
    fn each_declared_bound_is_the_largest_workload_bound() {
        for (i, d) in END_TO_END.iter().enumerate() {
            let largest = WORKLOAD_BOUNDS
                .iter()
                .map(|(_, b)| b[i])
                .fold(0.0, f64::max);
            assert_eq!(d.bound, Some(largest), "{}", d.name);
            assert!(WORKLOAD_BOUNDS
                .iter()
                .all(|(_, b)| (0.05..=0.25).contains(&b[i])));
        }
        assert_eq!(workload_bound("serve_light", 1), 0.05);
        assert_eq!(workload_bound("another", 1), 0.25);
    }

    #[test]
    fn render_ends_with_one_json_line_of_every_metric() {
        let mut r = Report::new("paper_suite", false);
        r.attempted = 3;
        for d in END_TO_END {
            r.e2e.insert(d.name, 1.25);
        }
        let text = r.render();
        let last = text.lines().last().expect("a last line");
        let doc = Json::parse(last).expect("last line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").expect("metrics");
        for d in END_TO_END {
            let m = metrics.get(d.name).expect(d.name);
            assert_eq!(m.get("value").and_then(Json::as_num), Some(1.25));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report::new("serve_light", true);
        let text = r.render();
        assert!(!r.correct());
        assert!(text.lines().last().unwrap().contains("\"correct\":false"));
    }

    #[test]
    fn summaries_keep_four_significant_digits() {
        assert_eq!(sig4(0.000_427_3), "0.0004273");
        assert_eq!(sig4(15.8242), "15.82");
        assert_eq!(sig4(1596.85), "1597");
        assert_eq!(sig4(0.0), "0.000");
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: within bound.
        assert_eq!(
            verdict(&a, &[100.2, 99.8, 100.1, 100.4, 99.7], Better::Lower, 0.05),
            Verdict::WithinBound
        );
        // 10% slower on a 5% bound: worse.
        assert_eq!(
            verdict(
                &a,
                &[110.0, 111.0, 109.0, 110.5, 109.5],
                Better::Lower,
                0.05
            ),
            Verdict::Worse
        );
        // Every change run beats every parent run: better.
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.5, 89.5], Better::Lower, 0.05),
            Verdict::Better
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 90.5, 89.5], Better::Higher, 0.05),
            Verdict::Worse
        );
        // A spread wider than the bound leaves an overlap unresolved.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            verdict(
                &noisy,
                &[85.0, 125.0, 101.0, 95.0, 105.0],
                Better::Lower,
                0.05
            ),
            Verdict::Unresolved
        );
    }
}
