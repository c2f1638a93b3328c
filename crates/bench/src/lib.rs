//! Shared row generators for the table-reproduction binaries, the CLI,
//! the service and the `lintra-benchmark` harness — one function per paper
//! table/figure, so every surface prints exactly the same numbers. The
//! suite tables fan out over a [`ThreadPool`] and are served by a
//! [`SuiteCaches`] registry; "sequential" is a 1-worker pool.

pub mod json;
pub mod render;
pub mod wire;

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lintra::engine::{CacheStats, SweepCache, ThreadPool};
use lintra::linsys::count::{op_count, TrivialityRule};
use lintra::linsys::StateSpace;
use lintra::matrix::rng::SplitMix64;
use lintra::mcm::{synthesize, McmSolution};
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, TechConfig};
use lintra::power::VoltageModel;
use lintra::suite::{random_stable, suite, Design};
use lintra::transform::mcm_pass::constant_groups;
use lintra::LintraError;

/// Fig. 1: `(voltage, normalized delay)` samples over `[1.2 V, 5.0 V]`.
pub fn fig1_series() -> Vec<(f64, f64)> {
    let m = VoltageModel::dac96();
    let mut out = Vec::new();
    let mut v = 1.2;
    while v <= 5.0 + 1e-9 {
        out.push((v, m.normalized_delay(v)));
        v += 0.05;
    }
    out
}

/// One row of Table 1.
pub struct Table1Row {
    /// Design name.
    pub name: &'static str,
    /// Table-1 description.
    pub description: &'static str,
    /// Inputs.
    pub p: usize,
    /// Outputs.
    pub q: usize,
    /// States.
    pub r: usize,
}

/// Table 1: the example-suite description.
pub fn table1_rows() -> Vec<Table1Row> {
    suite()
        .into_iter()
        .map(|d| {
            let (p, q, r) = d.dims();
            Table1Row {
                name: d.name,
                description: d.description,
                p,
                q,
                r,
            }
        })
        .collect()
}

/// One row of Table 2 (single processor).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The design.
    pub name: &'static str,
    /// Dimensions `(P, Q, R)`.
    pub dims: (usize, usize, usize),
    /// The §3 result (dense analysis + real-coefficient heuristic).
    pub result: single::SingleProcessorResult,
}

/// One row of Table 3 (multiple processors).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// The design.
    pub name: &'static str,
    /// Single-processor reduction (Table 2 baseline).
    pub single: single::SingleProcessorResult,
    /// Multiprocessor result with `N = R`.
    pub multi: multi::MultiProcessorResult,
}

/// One row of Table 4 (ASIC flow).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// The design.
    pub name: &'static str,
    /// The ASIC flow result.
    pub result: asic::AsicResult,
}

/// One row of the equality-saturation comparison: the fixed §5 script
/// next to the e-graph search seeded from the same flow.
#[derive(Debug, Clone, PartialEq)]
pub struct EgraphRow {
    /// The design.
    pub name: &'static str,
    /// The saturation result (carries the fixed-script baseline in
    /// `result.script`).
    pub result: saturate::SaturateResult,
}

/// One row of the synthetic e-graph comparison: a seeded random stable
/// design and the e-graph search over it.
#[derive(Debug, Clone, PartialEq)]
pub struct EgraphSynthRow {
    /// Dimensions `(P, Q, R)`.
    pub dims: (usize, usize, usize),
    /// The saturation result (carries the fixed-script baseline in
    /// `result.script`).
    pub result: saturate::SaturateResult,
}

/// One distinct MCM instance of a suite design: a constant group the §5
/// script's MCM pass hands [`synthesize`] at the unfolding
/// [`asic::optimize`] picks, and the plan it gets back.
#[derive(Debug, Clone, PartialEq)]
pub struct McmPlanRow {
    /// The design.
    pub name: &'static str,
    /// The unfolding the script picked.
    pub unfolding: u32,
    /// Distinct quantized constants in the group.
    pub constants: usize,
    /// The synthesized shift-add plan.
    pub plan: McmSolution,
}

/// One design's unfolding sweep: `(i, muls/sample, adds/sample)` per
/// unfolding factor.
pub type SweepRow = Vec<(u32, f64, f64)>;

/// One point of an unfolding sweep: `(i, muls/sample, adds/sample)` of
/// the design unfolded `i` times, served by its incremental
/// [`SweepCache`]. The CLI's `sweep`, the served sweep and
/// [`unfold_sweep_cached`] all compute their rows here.
///
/// # Errors
///
/// Propagates unfolding failures (unstable system).
pub fn unfold_sweep_point(i: u32, cache: &mut SweepCache) -> Result<(u32, f64, f64), LintraError> {
    let u = cache.unfolded(i)?;
    let c = op_count(&u.system, TrivialityRule::ZeroOne);
    let n = f64::from(i) + 1.0;
    Ok((i, c.muls as f64 / n, c.adds as f64 / n))
}

/// The §2 phenomenon: per-sample operation counts of one design across an
/// unfolding sweep, one [`unfold_sweep_point`] per unfolding factor
/// `0..=max_i`.
///
/// # Errors
///
/// Propagates unfolding failures (unstable system).
pub fn unfold_sweep_cached(max_i: u32, cache: &mut SweepCache) -> Result<SweepRow, LintraError> {
    (0..=max_i).map(|i| unfold_sweep_point(i, cache)).collect()
}

/// One persistent [`SweepCache`] per suite design, shared across the
/// tables, the e-graph suite and repeated calls.
///
/// The tables and the e-graph suite all sweep the same eight designs, and
/// each optimizer pass asks for unfold chains that are prefixes of chains
/// another pass already built — so keying the caches by *design* (instead
/// of rebuilding one per generator call) turns Table 3's §3 search (Table
/// 2's, again) and repeated calls into pure hits. Each design's cache sits behind its
/// own mutex, so the per-design fan-out never contends: two workers only
/// share a lock if they are somehow handed the same design.
pub struct SuiteCaches {
    caches: Vec<Mutex<SweepCache>>,
}

fn lock(m: &Mutex<SweepCache>) -> MutexGuard<'_, SweepCache> {
    // A worker panic can poison a cache mutex, but the cache itself can
    // only be *behind* (a panicked pass never publishes a partial chain
    // step), so the data is still valid — recover it.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SuiteCaches {
    /// A cold registry with one cache per design of [`suite()`], in
    /// suite order.
    pub fn new() -> SuiteCaches {
        SuiteCaches {
            caches: suite()
                .iter()
                .map(|d| Mutex::new(SweepCache::new(&d.system)))
                .collect(),
        }
    }

    /// Cumulative hit/miss counters across every design's cache.
    pub fn stats(&self) -> CacheStats {
        self.caches
            .iter()
            .fold(CacheStats::default(), |acc, c| acc + lock(c).stats())
    }

    fn with<T>(&self, idx: usize, f: impl FnOnce(&mut SweepCache) -> T) -> T {
        f(&mut lock(&self.caches[idx]))
    }
}

impl Default for SuiteCaches {
    fn default() -> Self {
        SuiteCaches::new()
    }
}

/// Fans one closure per suite design out over the pool, serving each
/// design from its persistent slot in `caches`. Designs are *submitted*
/// heaviest-first — most states, then widest interface — so the design
/// that bounds the wall clock starts immediately instead of queueing
/// behind quick ones (LPT scheduling; the suite has one dominant entry,
/// and with it submitted last a second worker spends most of the run
/// idle). Results are still merged *in suite order*, so row order, and
/// which design's error surfaces when several fail, are those of a
/// `for d in suite()` loop at every worker count (the deterministic merge
/// of the engine's determinism contract). A worker panic surfaces as a
/// resource-class [`LintraError`] naming the design. The returned
/// statistics are the registry's counters accumulated *by this call* —
/// a warm registry reports only the increment.
fn suite_fanout<T, F>(
    pool: &ThreadPool,
    caches: &SuiteCaches,
    per_design: F,
) -> Result<(Vec<T>, CacheStats), LintraError>
where
    T: Send,
    F: Fn(&Design, &mut SweepCache) -> Result<T, LintraError> + Sync,
{
    let before = caches.stats();
    let mut items: Vec<(usize, Design)> = suite().into_iter().enumerate().collect();
    items.sort_by_key(|(i, d)| {
        let (p, q, r) = d.dims();
        (std::cmp::Reverse((r, p + q)), *i)
    });
    let order: Vec<(usize, &'static str)> = items.iter().map(|(i, d)| (*i, d.name)).collect();
    let results = pool.map(items, |(idx, d)| {
        let row = caches
            .with(idx, |cache| per_design(&d, cache))
            .map_err(|e| e.context(format!("design {}", d.name)))?;
        Ok::<_, LintraError>(row)
    });
    // Tag each result with its suite index and sort back: first error in
    // suite order wins.
    let mut tagged: Vec<(usize, Result<T, LintraError>)> = results
        .into_iter()
        .zip(order)
        .map(|(res, (idx, name))| {
            let flat = res
                .map_err(|e| LintraError::from(e).context(format!("design {name}")))
                .and_then(|r| r);
            (idx, flat)
        })
        .collect();
    tagged.sort_by_key(|(i, _)| *i);
    let mut rows = Vec::with_capacity(tagged.len());
    for (_, res) in tagged {
        rows.push(res?);
    }
    Ok((rows, caches.stats().since(before)))
}

/// Table 2: unfolding-driven voltage–throughput trade-off on one
/// processor. One sweep point per design, the optimizer search served by
/// the design's persistent cache in `caches`. Returns the rows plus the
/// cache counters this call accumulated. The rows are bit-identical at
/// every worker count and on a warm or cold registry (asserted by
/// `tests/parallel_equivalence.rs`).
///
/// # Errors
///
/// Propagates optimizer failures as a classified [`LintraError`] naming
/// the design; reports a worker panic as a resource-class error.
pub fn table2_rows_engine(
    initial_voltage: f64,
    pool: &ThreadPool,
    caches: &SuiteCaches,
) -> Result<(Vec<Table2Row>, CacheStats), LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    suite_fanout(pool, caches, |d, cache| {
        Ok(Table2Row {
            name: d.name,
            dims: d.dims(),
            result: single::optimize_cached(&d.system, &tech, cache)?,
        })
    })
}

/// Table 3: unfolding plus `N = R` processors (see [`table2_rows_engine`]
/// for the contract).
///
/// # Errors
///
/// Identical to [`table2_rows_engine`].
pub fn table3_rows_engine(
    initial_voltage: f64,
    pool: &ThreadPool,
    caches: &SuiteCaches,
) -> Result<(Vec<Table3Row>, CacheStats), LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    // The inner N sweep is a single point under `StatesCount`; the fan-out
    // across designs is where the parallelism lives, so the inner path
    // runs on one worker.
    let inner = ThreadPool::new(1);
    suite_fanout(pool, caches, |d, cache| {
        Ok(Table3Row {
            name: d.name,
            single: single::optimize_cached(&d.system, &tech, cache)?,
            multi: multi::optimize_with_pool(
                &d.system,
                &tech,
                ProcessorSelection::StatesCount,
                &inner,
            )?,
        })
    })
}

/// Table 4: energy per sample before/after unfold → Horner → MCM (see
/// [`table2_rows_engine`] for the contract).
///
/// # Errors
///
/// Identical to [`table2_rows_engine`].
pub fn table4_rows_engine(
    initial_voltage: f64,
    pool: &ThreadPool,
    caches: &SuiteCaches,
) -> Result<(Vec<Table4Row>, CacheStats), LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    let cfg = asic::AsicConfig::default();
    suite_fanout(pool, caches, |d, cache| {
        Ok(Table4Row {
            name: d.name,
            result: asic::optimize_cached(&d.system, &tech, &cfg, cache)?,
        })
    })
}

/// Equality-saturation search over every suite design: extracted energy
/// next to the fixed §5 script's energy, at the script's own operating
/// point. By construction `result.vs_script() ≥ 1` for every row (see
/// [`table2_rows_engine`] for the contract).
///
/// # Errors
///
/// Identical to [`table2_rows_engine`].
pub fn egraph_rows_engine(
    initial_voltage: f64,
    pool: &ThreadPool,
    caches: &SuiteCaches,
) -> Result<(Vec<EgraphRow>, CacheStats), LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    let cfg = saturate::SaturateConfig::default();
    suite_fanout(pool, caches, |d, cache| {
        Ok(EgraphRow {
            name: d.name,
            result: saturate::optimize_cached(&d.system, &tech, &cfg, cache)?,
        })
    })
}

/// `n` seeded synthetic designs, drawn as one pass of `lintra-benchmark`'s
/// `synth_egraph` workload draws them: shapes cycle through
/// `P, Q ∈ {1, 2}` and `R ∈ [4, 12]`, sparsity is stratified over
/// `[0.3, 0.7]`, and `rng` draws the rest. A fresh `SplitMix64::new(s)`
/// gives the first pass of the workload's seed `s`.
pub fn synth_designs(rng: &mut SplitMix64, n: usize) -> Vec<StateSpace> {
    (0..n)
        .map(|k| {
            let sparsity = 0.3 + 0.4 * (k as f64 + rng.next_f64()) / n as f64;
            random_stable(
                1 + k % 2,
                1 + (k / 2) % 2,
                4 + k % 9,
                sparsity,
                rng.next_u64(),
            )
        })
        .collect()
}

/// The equality-saturation strategy over each of `designs`, each from a
/// cold [`SweepCache`] with the default saturation settings, as
/// `synth_egraph` runs it. Rows come back in `designs` order at every
/// worker count.
///
/// # Errors
///
/// The first failing design's error, in `designs` order, naming its
/// index; a worker panic is a resource-class error.
pub fn egraph_synth_rows(
    designs: &[StateSpace],
    initial_voltage: f64,
    pool: &ThreadPool,
) -> Result<Vec<EgraphSynthRow>, LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    let cfg = saturate::SaturateConfig::default();
    let results = pool.map(designs.iter().collect(), |sys| {
        let result = saturate::optimize_cached(sys, &tech, &cfg, &mut SweepCache::new(sys))?;
        Ok::<_, LintraError>(EgraphSynthRow {
            dims: sys.dims(),
            result,
        })
    });
    results
        .into_iter()
        .enumerate()
        .map(|(k, res)| {
            res.map_err(LintraError::from)
                .and_then(|r| r)
                .map_err(|e| e.context(format!("synthetic design {k}")))
        })
        .collect()
}

/// Every distinct MCM instance of the §5 script over the suite: per
/// design, in suite order, the sorted distinct constant groups of the
/// Horner graph at the unfolding [`asic::optimize`] picks (CSD, 12
/// fractional bits), each with the plan [`synthesize`] returns. These are
/// the plans behind Table 4 (3.3 V) and the e-graph suite's script
/// baseline (5.0 V); see [`table2_rows_engine`] for the contract.
///
/// # Errors
///
/// Identical to [`table2_rows_engine`].
pub fn mcm_plan_rows_engine(
    initial_voltage: f64,
    pool: &ThreadPool,
    caches: &SuiteCaches,
) -> Result<(Vec<McmPlanRow>, CacheStats), LintraError> {
    let tech = TechConfig::dac96(initial_voltage);
    let cfg = asic::AsicConfig::default();
    let (per_design, stats) = suite_fanout(pool, caches, |d, cache| {
        let unfolding = asic::optimize_cached(&d.system, &tech, &cfg, cache)?.unfolding;
        let g = cache.horner(unfolding)?.to_dfg()?;
        let groups: BTreeSet<Vec<i64>> = constant_groups(&g, cfg.frac_bits).into_values().collect();
        Ok(groups
            .into_iter()
            .map(|consts| McmPlanRow {
                name: d.name,
                unfolding,
                constants: consts.len(),
                plan: synthesize(&consts, cfg.recoding),
            })
            .collect::<Vec<_>>())
    })?;
    Ok((per_design.into_iter().flatten().collect(), stats))
}

/// The `--v0 <volts>` initial supply voltage from a bin's command line:
/// 3.3 V when the flag is absent, `None` when its value is missing or not
/// a positive number.
pub fn v0_arg(args: &[String]) -> Option<f64> {
    match args.iter().position(|a| a == "--v0") {
        None => Some(3.3),
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite() && *v > 0.0),
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a slice (averaging the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_series_shape() {
        let s = fig1_series();
        assert!(s.len() > 70);
        // Normalized to 1 at 5 V, large near the floor.
        let last = s.last().unwrap();
        assert!((last.1 - 1.0).abs() < 0.02);
        assert!(s[0].1 > 20.0);
    }

    #[test]
    fn tables_have_eight_rows() {
        let pool = ThreadPool::new(2);
        let caches = SuiteCaches::new();
        assert_eq!(table1_rows().len(), 8);
        assert_eq!(table2_rows_engine(3.3, &pool, &caches).unwrap().0.len(), 8);
        assert_eq!(table3_rows_engine(3.3, &pool, &caches).unwrap().0.len(), 8);
        assert_eq!(table4_rows_engine(5.0, &pool, &caches).unwrap().0.len(), 8);
    }

    #[test]
    fn v0_arg_defaults_and_rejects_bad_values() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(v0_arg(&args(&["table2"])), Some(3.3));
        assert_eq!(v0_arg(&args(&["table2", "--v0", "5.0"])), Some(5.0));
        for bad in [
            &["--v0", "abc"][..],
            &["--v0", "-1"],
            &["--v0", "nan"],
            &["--v0"],
        ] {
            assert_eq!(v0_arg(&args(bad)), None, "{bad:?}");
        }
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
