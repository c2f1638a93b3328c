//! §3 — single-processor power reduction via unfolding-driven
//! voltage–throughput trade-off.
//!
//! On one programmable processor throughput is decided solely by the
//! instruction count per sample. Unfolding to `i_opt` minimizes it, the
//! clock is slowed by the earned factor `S_max`, and the supply voltage is
//! dropped to the lowest value that still meets the slower clock. Power
//! falls by `(V₀/V₁)²·S_max`; if voltage scaling is unavailable, the same
//! `S_max` still buys a *linear* reduction via clock slowdown or shutdown.

use crate::{scale_or_fallback, Diagnostic, OptError, TechConfig};
use lintra_dfg::{CostModel, CycleCost, OpCounts};
use lintra_engine::SweepCache;
use lintra_linsys::count::{dense_iopt, dense_op_count, op_count, OpCount, TrivialityRule};
use lintra_linsys::StateSpace;
use lintra_power::VoltageScaling;

/// Prices a linsys instruction census through the unified cycle model.
/// Bit-identical to `OpCount::cycles` (the census default multiplies
/// first; parity is pinned in `lintra_dfg::cost`'s tests).
fn instr_cycles(model: &CycleCost, ops: &OpCount) -> f64 {
    model.census_cost(&OpCounts {
        adds: ops.adds,
        muls: ops.muls,
        shifts: ops.shifts,
        delays: 0,
        negs: 0,
    })
}

/// One column group of Table 2 (either the dense-analysis columns or the
/// real-coefficient heuristic columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnfoldingOutcome {
    /// Operations of the original (`i = 0`) system per iteration.
    pub ops_initial: OpCount,
    /// Chosen unfolding factor.
    pub unfolding: u64,
    /// Operations of one unfolded iteration (`i + 1` samples).
    pub ops_unfolded: OpCount,
    /// Throughput improvement `S_max` (per-sample cycle ratio).
    pub speedup: f64,
    /// The voltage scaling applied.
    pub scaling: VoltageScaling,
}

impl UnfoldingOutcome {
    /// Relative clock frequency after the trade-off (`1/S_max`; Table 2's
    /// "Frq" column).
    pub fn frequency_ratio(&self) -> f64 {
        1.0 / self.speedup
    }

    /// Power-reduction factor with voltage scaling (Table 2's "Pwr").
    pub fn power_reduction(&self) -> f64 {
        self.scaling.power_reduction()
    }

    /// Power-reduction factor when the voltage cannot be changed: the §3
    /// frequency-reduction/shutdown fallback (linear in `S_max`).
    pub fn power_reduction_frequency_only(&self) -> f64 {
        self.speedup
    }
}

/// Full result of the single-processor strategy on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleProcessorResult {
    /// `(P, Q, R)` of the design.
    pub dims: (usize, usize, usize),
    /// Predicted outcome assuming dense coefficient matrices (closed
    /// forms, EQ 4/5).
    pub dense: UnfoldingOutcome,
    /// Measured outcome on the actual coefficients (§3 heuristic).
    pub real: UnfoldingOutcome,
    /// Non-fatal warnings (voltage clamped at the floor, frequency-only
    /// fallback).
    pub diagnostics: Vec<Diagnostic>,
}

/// Runs the §3 strategy: dense closed-form prediction plus the empirical
/// heuristic on the actual coefficients, both followed by the
/// voltage-scaling step.
///
/// # Errors
///
/// Returns [`OptError::Linsys`] when the unfolding analysis rejects the
/// system (unstable `A`, non-finite coefficients) and [`OptError::Voltage`]
/// when a computed speedup is non-finite. A supply voltage at or below
/// threshold is *not* an error: the optimizer degrades to the §3
/// frequency-only fallback and records a diagnostic.
pub fn optimize(sys: &StateSpace, tech: &TechConfig) -> Result<SingleProcessorResult, OptError> {
    optimize_cached(sys, tech, &mut SweepCache::new(sys))
}

/// [`optimize`] with the unfolding search served by a caller-owned
/// [`SweepCache`], so the suite drivers can share one cache per design
/// across strategies. A warm cache returns exactly what a cold one does
/// (asserted by the differential test layer against the from-scratch
/// [`lintra_linsys::count::best_unfolding`]).
///
/// # Errors
///
/// Identical to [`optimize`].
pub fn optimize_cached(
    sys: &StateSpace,
    tech: &TechConfig,
    cache: &mut SweepCache,
) -> Result<SingleProcessorResult, OptError> {
    let (p, q, r) = sys.dims();
    let cycles = tech.cycle_cost();
    let (wm, wa) = (cycles.w_mul, cycles.w_add);
    let mut diagnostics = Vec::new();

    // Dense analysis.
    let (pu, qu, ru) = (p as u64, q as u64, r as u64);
    let iopt = dense_iopt(pu, qu, ru, wm, wa);
    let ops0 = dense_op_count(pu, qu, ru, 0);
    let opsi = dense_op_count(pu, qu, ru, iopt);
    let dense_speedup =
        instr_cycles(&cycles, &ops0) / (instr_cycles(&cycles, &opsi) / (iopt + 1) as f64);
    let dense = UnfoldingOutcome {
        ops_initial: ops0,
        unfolding: iopt,
        ops_unfolded: opsi,
        speedup: dense_speedup,
        scaling: scale_or_fallback(
            &tech.voltage,
            tech.initial_voltage,
            dense_speedup,
            &mut diagnostics,
        )?,
    };

    // Real coefficients.
    let choice = lintra_engine::best_unfolding(cache, TrivialityRule::ZeroOne, wm, wa)?;
    let real = UnfoldingOutcome {
        ops_initial: op_count(sys, TrivialityRule::ZeroOne),
        unfolding: choice.unfolding,
        ops_unfolded: choice.ops,
        speedup: choice.speedup(),
        scaling: scale_or_fallback(
            &tech.voltage,
            tech.initial_voltage,
            choice.speedup(),
            &mut diagnostics,
        )?,
    };

    Ok(SingleProcessorResult {
        dims: (p, q, r),
        dense,
        real,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_suite::{by_name, dense_synthetic, suite};

    #[test]
    fn worked_example_matches_paper_numbers() {
        // §3: P = Q = 1, R = 5, initial 3.0 V.
        let sys = dense_synthetic(1, 1, 5);
        let r = optimize(&sys, &TechConfig::dac96(3.0)).unwrap();
        assert_eq!(r.dense.unfolding, 6);
        assert!(
            (r.dense.speedup - 1.975).abs() < 0.01,
            "S_max {}",
            r.dense.speedup
        );
        // Voltage drops substantially below 3.0 and power reduction beats
        // the linear fallback.
        assert!(r.dense.scaling.voltage < 2.5);
        assert!(r.dense.power_reduction() > r.dense.power_reduction_frequency_only());
        // Dense synthetic system: the heuristic should agree with the
        // closed form.
        assert_eq!(r.real.unfolding, 6);
        assert!((r.real.speedup - r.dense.speedup).abs() < 0.02);
    }

    #[test]
    fn higher_initial_voltage_gives_larger_reduction() {
        // §3: "If the initial voltage was 5.0 ... an even larger power
        // reduction".
        let sys = dense_synthetic(1, 1, 5);
        let r33 = optimize(&sys, &TechConfig::dac96(3.3)).unwrap();
        let r50 = optimize(&sys, &TechConfig::dac96(5.0)).unwrap();
        assert!(r50.dense.power_reduction() > r33.dense.power_reduction());
    }

    #[test]
    fn dist_gets_no_reduction() {
        let d = by_name("dist").unwrap();
        let r = optimize(&d.system, &TechConfig::dac96(3.3)).unwrap();
        assert_eq!(r.real.unfolding, 0);
        assert!((r.real.power_reduction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dense_designs_match_dense_prediction() {
        for name in ["ellip", "steam"] {
            let d = by_name(name).unwrap();
            let r = optimize(&d.system, &TechConfig::dac96(3.3)).unwrap();
            assert_eq!(r.real.unfolding, r.dense.unfolding, "{name}");
            assert!(
                (r.real.power_reduction() - r.dense.power_reduction()).abs()
                    < 0.05 * r.dense.power_reduction(),
                "{name}: real {} vs dense {}",
                r.real.power_reduction(),
                r.dense.power_reduction()
            );
        }
    }

    #[test]
    fn suite_average_reduction_is_substantial() {
        // The paper reports a meaningful average power reduction at 3.3 V
        // with at least one design (dist) getting none.
        let results: Vec<f64> = suite()
            .iter()
            .map(|d| {
                optimize(&d.system, &TechConfig::dac96(3.3))
                    .unwrap()
                    .real
                    .power_reduction()
            })
            .collect();
        let avg = results.iter().sum::<f64>() / results.len() as f64;
        assert!(avg > 1.5, "average reduction {avg} ({results:?})");
        assert!(
            results.iter().any(|&x| (x - 1.0).abs() < 1e-9),
            "dist should be 1.0"
        );
    }

    #[test]
    fn frequency_only_fallback_is_linear() {
        let sys = dense_synthetic(1, 1, 8);
        let r = optimize(&sys, &TechConfig::dac96(3.3)).unwrap();
        assert!((r.dense.power_reduction_frequency_only() - r.dense.speedup).abs() < 1e-12);
        assert!((r.dense.frequency_ratio() - 1.0 / r.dense.speedup).abs() < 1e-12);
    }

    #[test]
    fn warm_cache_search_is_bit_identical_to_cold() {
        let tech = TechConfig::dac96(3.3);
        for d in suite() {
            let cold = optimize(&d.system, &tech).unwrap();
            let mut cache = SweepCache::new(&d.system);
            cache.unfolded(cold.real.unfolding as u32 + 3).unwrap();
            let warm = optimize_cached(&d.system, &tech, &mut cache).unwrap();
            assert_eq!(warm, cold, "{}", d.name);
        }
    }

    #[test]
    fn real_never_beats_what_its_own_speedup_allows() {
        for d in suite() {
            let r = optimize(&d.system, &TechConfig::dac96(3.3)).unwrap();
            let bound = (3.3 / 1.1_f64).powi(2) * r.real.speedup;
            assert!(r.real.power_reduction() <= bound + 1e-9, "{}", d.name);
        }
    }
}
