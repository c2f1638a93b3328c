//! §5 — the ASIC transformation script: unfold → generalized Horner → MCM.
//!
//! The script produces a computation whose only cross-iteration cycle is
//! the precomputed `A^n·S` product, so arbitrarily many pipeline stages
//! can be inserted in the feed-forward part and the supply voltage can be
//! driven to the technology minimum. Energy per sample is then the
//! (shift-add) operation census at `V_min`, compared against the original
//! multiply-accumulate datapath at the initial voltage.

use crate::{scale_or_fallback, DiagCode, Diagnostic, OptError, TechConfig};
use lintra_dfg::{build, CostModel, CriticalPathCost, Dfg, OpCounts, OpTiming};
use lintra_engine::SweepCache;
use lintra_linsys::StateSpace;
use lintra_mcm::Recoding;
use lintra_power::EnergyBreakdown;
use lintra_transform::mcm_pass::{expand_multiplications, McmPassConfig, McmPassReport};

/// Configuration of the ASIC flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsicConfig {
    /// Fixed-point fractional bits for the MCM quantization.
    pub frac_bits: u32,
    /// MCM digit recoding.
    pub recoding: Recoding,
    /// Cap on the unfolding search (batch = unfolding + 1).
    pub max_unfolding: u32,
    /// Datapath timing used for the pipelining/voltage feasibility check.
    pub timing: OpTiming,
}

impl Default for AsicConfig {
    fn default() -> Self {
        AsicConfig {
            frac_bits: 12,
            recoding: Recoding::Csd,
            max_unfolding: 127,
            timing: OpTiming {
                t_mul: 2.0,
                t_add: 1.0,
                t_shift: 0.0,
            },
        }
    }
}

/// Result of the ASIC flow on one design (one Table-4 row).
#[derive(Debug, Clone, PartialEq)]
pub struct AsicResult {
    /// Unfolding factor chosen (batch = `unfolding + 1`).
    pub unfolding: u32,
    /// Operating voltage of the transformed design.
    pub voltage: f64,
    /// Energy per sample of the original multiply-accumulate datapath at
    /// the initial voltage.
    pub initial: EnergyBreakdown,
    /// Energy per sample of the transformed (Horner + MCM shift-add)
    /// datapath at the reduced voltage.
    pub optimized: EnergyBreakdown,
    /// MCM pass statistics.
    pub mcm: McmPassReport,
    /// Non-fatal warnings (unfolding capped, voltage clamped,
    /// frequency-only fallback).
    pub diagnostics: Vec<Diagnostic>,
}

impl AsicResult {
    /// Improvement factor (Table 4's last column).
    pub fn improvement(&self) -> f64 {
        self.initial.total_j() / self.optimized.total_j()
    }
}

/// Smallest unfolding whose pipelined feed-forward leaves enough slack to
/// run the feedback cycle at `V_min`, with the Horner graph the search
/// built at that unfolding.
///
/// The original design's clock period is its full critical path at the
/// initial voltage; the transformed design must only close the (constant)
/// feedback path within `n` sample periods, so the available slowdown is
/// `n·CP_original/CP_feedback`.
fn required_unfolding(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &AsicConfig,
    diags: &mut Vec<Diagnostic>,
    cache: &mut SweepCache,
) -> Result<(u32, Dfg), OptError> {
    let clock = CriticalPathCost { timing: cfg.timing };
    let base_cp = clock.graph_cost(&build::from_state_space(sys)?).max(1.0);
    let v0 = tech.initial_voltage;
    // A supply at (or below) the threshold or the floor has no voltage
    // headroom for unfolding to buy; ask for no slowdown rather than
    // evaluating the delay curve outside its domain.
    let needed = if v0.is_finite() && v0 > tech.voltage.vt() && v0 > tech.voltage.v_min() {
        tech.voltage.slowdown_between(v0, tech.voltage.v_min())
    } else {
        1.0
    };
    // The feedback path of the Horner form is independent of the unfolding
    // depth (only A^n·S is in the cycle), so solve for n in closed form
    // from the depth at n = 1 and verify, bumping if the measured path at
    // the chosen depth differs by a rounding level.
    let fb1 = cache
        .horner(0)?
        .to_dfg()?
        .feedback_critical_path(&cfg.timing)
        .max(1.0);
    let mut i = ((needed * fb1 / base_cp).ceil() as i64 - 1).max(0) as u32;
    loop {
        i = i.min(cfg.max_unfolding);
        let horner = cache.horner(i)?.to_dfg()?;
        let fb = horner.feedback_critical_path(&cfg.timing).max(1.0);
        let available = (i as f64 + 1.0) * base_cp / fb;
        if available >= needed {
            return Ok((i, horner));
        }
        if i >= cfg.max_unfolding {
            diags.push(Diagnostic {
                code: DiagCode::UnfoldingCapped,
                message: format!(
                    "unfolding capped at {i}: available slowdown {available:.2}x is short of \
                     the {needed:.2}x needed to reach the voltage floor"
                ),
            });
            return Ok((i, horner));
        }
        i += 1;
    }
}

/// Runs the full §5 script and accounts energy per sample.
///
/// # Errors
///
/// Returns [`OptError::Linsys`] for an unstable or non-finite system and
/// [`OptError::Dfg`] when a transformation pass produces an invalid graph.
/// Hitting the unfolding cap or the voltage floor is *not* an error — the
/// flow degrades to the deepest/lowest feasible point and records a
/// diagnostic.
pub fn optimize(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &AsicConfig,
) -> Result<AsicResult, OptError> {
    optimize_cached(sys, tech, cfg, &mut SweepCache::new(sys))
}

/// [`optimize`] with every Horner restructuring served by a caller-owned
/// [`SweepCache`] — the unfolding search re-derives `A^n`/`C·A^k` dozens
/// of times per design, and the cache computes each power exactly once.
/// A warm cache returns exactly what a cold one does (the cache's Horner
/// forms are checked against
/// [`HornerForm::new`](lintra_transform::horner::HornerForm::new) by the
/// differential test layer).
///
/// # Errors
///
/// Identical to [`optimize`].
pub fn optimize_cached(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &AsicConfig,
    cache: &mut SweepCache,
) -> Result<AsicResult, OptError> {
    Ok(script_with_graphs(sys, tech, cfg, cache)?.result)
}

/// Everything [`optimize`] computes plus the intermediate graphs, so the
/// equality-saturation strategy can seed its e-graph with the script's
/// realizations instead of re-deriving them.
pub(crate) struct ScriptArtifacts {
    /// The fixed-script result exactly as [`optimize`] returns it.
    pub result: AsicResult,
    /// The unfolded generalized-Horner graph (pre-MCM, real multipliers).
    pub horner_dfg: Dfg,
    /// The post-MCM shift-add graph the script's accounting prices.
    pub shifted: Dfg,
}

pub(crate) fn script_with_graphs(
    sys: &StateSpace,
    tech: &TechConfig,
    cfg: &AsicConfig,
    cache: &mut SweepCache,
) -> Result<ScriptArtifacts, OptError> {
    let (p, q, r) = sys.dims();
    let mut diagnostics = Vec::new();

    // Initial design: maximally fast multiply-accumulate datapath at V0,
    // priced through the unified energy cost model.
    let base = build::from_state_space(sys)?;
    let bc = base.op_counts();
    let regs0 = (r + p + q) as u64;
    let initial = tech.energy_cost(tech.initial_voltage).breakdown(&OpCounts {
        delays: regs0,
        ..bc
    });

    // Transformed design.
    let (unfolding, horner_dfg) = required_unfolding(sys, tech, cfg, &mut diagnostics, cache)?;
    let n = unfolding as u64 + 1;
    let (shifted, mcm) = expand_multiplications(
        &horner_dfg,
        McmPassConfig {
            frac_bits: cfg.frac_bits,
            recoding: cfg.recoding,
        },
    )?;
    let oc = shifted.op_counts();
    debug_assert_eq!(oc.muls, 0, "mcm pass must remove every multiplier");

    // Feasible voltage: everything the unfolding earned, clamped at V_min.
    let clock = CriticalPathCost { timing: cfg.timing };
    let base_cp = clock.graph_cost(&base).max(1.0);
    let fb = shifted.feedback_critical_path(&cfg.timing).max(1.0);
    let available = n as f64 * base_cp / fb;
    let scaling = scale_or_fallback(
        &tech.voltage,
        tech.initial_voltage,
        available,
        &mut diagnostics,
    )?;

    // Per-sample counts: one batch of the transformed graph serves n
    // samples; registers: state registers once per batch + I/O registers
    // per sample.
    let per = |x: u64| -> u64 { x.div_ceil(n) };
    let regs = per(r as u64) + (p + q) as u64;
    let optimized = tech.energy_cost(scaling.voltage).breakdown(&OpCounts {
        adds: per(oc.adds),
        muls: 0,
        shifts: per(oc.shifts),
        delays: regs,
        negs: 0,
    });

    Ok(ScriptArtifacts {
        result: AsicResult {
            unfolding,
            voltage: scaling.voltage,
            initial,
            optimized,
            mcm,
            diagnostics,
        },
        horner_dfg,
        shifted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_suite::{by_name, suite};

    /// 3.3 V keeps the required unfolding (and test time) moderate; the
    /// single-design floor test below uses 5.0 V.
    fn tech() -> TechConfig {
        TechConfig::dac96(3.3)
    }

    #[test]
    fn asic_flow_reaches_the_voltage_floor() {
        let d = by_name("iir5").unwrap();
        let r = optimize(&d.system, &TechConfig::dac96(5.0), &AsicConfig::default()).unwrap();
        assert!(
            (r.voltage - 1.1).abs() < 1e-6,
            "expected V_min, got {} (unfolding {})",
            r.voltage,
            r.unfolding
        );
    }

    #[test]
    fn asic_improvements_are_large() {
        // Table 4: average/median improvement factors in the tens.
        let cfg = AsicConfig::default();
        let t = tech();
        let mut factors = Vec::new();
        for d in suite() {
            let r = optimize(&d.system, &t, &cfg).unwrap();
            assert!(r.improvement() > 1.0, "{} got {}", d.name, r.improvement());
            factors.push(r.improvement());
        }
        let avg = factors.iter().sum::<f64>() / factors.len() as f64;
        assert!(avg > 10.0, "average improvement {avg} ({factors:?})");
    }

    #[test]
    fn multipliers_are_fully_eliminated() {
        let d = by_name("chemical").unwrap();
        let r = optimize(&d.system, &tech(), &AsicConfig::default()).unwrap();
        assert!(r.mcm.muls_removed > 0);
        assert_eq!(r.optimized.mults_j, 0.0);
    }

    #[test]
    fn improvement_grows_with_initial_voltage() {
        let d = by_name("iir6").unwrap();
        let cfg = AsicConfig::default();
        let lo = optimize(&d.system, &TechConfig::dac96(3.3), &cfg).unwrap();
        let hi = optimize(&d.system, &TechConfig::dac96(5.0), &cfg).unwrap();
        assert!(hi.improvement() > lo.improvement());
    }

    #[test]
    fn tight_unfolding_cap_degrades_with_diagnostic() {
        // A cap of 1 cannot possibly buy the ~92x slowdown 5.0 V needs;
        // the flow must still return a (shallow) result and say why.
        let d = by_name("iir5").unwrap();
        let cfg = AsicConfig {
            max_unfolding: 1,
            ..AsicConfig::default()
        };
        let r = optimize(&d.system, &TechConfig::dac96(5.0), &cfg).unwrap();
        assert!(r.unfolding <= 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|di| di.code == DiagCode::UnfoldingCapped));
        assert!(
            r.voltage > 1.1,
            "capped flow should not reach the floor, got {}",
            r.voltage
        );
    }

    #[test]
    fn warm_cache_horner_path_is_bit_identical_to_cold() {
        let t = tech();
        let cfg = AsicConfig::default();
        for d in suite() {
            let mut cache = SweepCache::new(&d.system);
            let cold = optimize_cached(&d.system, &t, &cfg, &mut cache).unwrap();
            assert!(
                cache.stats().hits > 0,
                "{}: deep search should reuse powers",
                d.name
            );
            let warm = optimize_cached(&d.system, &t, &cfg, &mut cache).unwrap();
            assert_eq!(warm, cold, "{}", d.name);
        }
    }

    #[test]
    fn unfolding_is_bounded_and_sufficient() {
        // Reaching the 1.1 V floor from 5.0 V needs a ~92x slowdown, which
        // the constant feedback path converts into a batch of roughly
        // 92·CP_fb/CP_base samples — large but finite and under the cap.
        for d in suite() {
            let r = optimize(&d.system, &tech(), &AsicConfig::default()).unwrap();
            assert!(
                r.unfolding <= 127,
                "{} used unfolding {}",
                d.name,
                r.unfolding
            );
            assert!(
                r.unfolding >= 8,
                "{} suspiciously shallow: {}",
                d.name,
                r.unfolding
            );
        }
    }
}
