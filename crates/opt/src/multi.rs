//! §4 — unfolding plus multiple processors.
//!
//! Adding processors multiplies switched capacitance by `N` but (for
//! `N ≤ R`, under the zero-communication-cost assumption) speeds the
//! unfolded computation up by `N`, so the voltage term wins:
//! `Power(N)/Power(1) = N·(V(N)/V₀)²/S_max(N, i)`. The speedup is
//! *measured* here by list scheduling the unfolded dataflow graph rather
//! than assumed.

use crate::{scale_or_fallback, Diagnostic, OptError, TechConfig};
use lintra_dfg::build;
use lintra_engine::{SweepCache, ThreadPool};
use lintra_linsys::count::TrivialityRule;
use lintra_linsys::{unfold, StateSpace};
use lintra_power::VoltageScaling;
use lintra_sched::list_schedule;

/// How the number of processors is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcessorSelection {
    /// The paper's conservative choice `N = R` (speedup provably linear up
    /// to there).
    #[default]
    StatesCount,
    /// Sweep `N` and keep the power minimum.
    SearchBest {
        /// Largest `N` to consider.
        max: usize,
    },
}

/// Result of the §4 strategy on one design.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiProcessorResult {
    /// Unfolding factor used (the §3 optimum).
    pub unfolding: u64,
    /// Number of processors.
    pub processors: usize,
    /// Measured `S_max(N, i)`: throughput of `N` processors on the
    /// unfolded computation over one processor on the original.
    pub speedup: f64,
    /// Voltage scaling applied to all processors.
    pub scaling: VoltageScaling,
    /// Cycles per sample on one processor, original computation.
    pub base_cycles_per_sample: f64,
    /// Cycles per sample on `N` processors, unfolded computation.
    pub cycles_per_sample: f64,
    /// Non-fatal warnings (voltage clamped at the floor, frequency-only
    /// fallback).
    pub diagnostics: Vec<Diagnostic>,
}

impl MultiProcessorResult {
    /// Power-reduction factor relative to the original single-processor
    /// implementation: `(V₀/V₁)²·S_max/N` (the `N` extra capacitance is
    /// charged here).
    pub fn power_reduction(&self) -> f64 {
        self.scaling.power_reduction() / self.processors as f64
    }
}

/// Measures `S_max(N, i)` for a given unfolding and processor count.
///
/// # Errors
///
/// Propagates unfolding failures (unstable or non-finite system), graph
/// construction failures, and [`lintra_sched::ScheduleError::NoProcessors`]
/// when `n` is zero.
pub fn measured_speedup(
    sys: &StateSpace,
    unfolding: u64,
    n: usize,
    tech: &TechConfig,
) -> Result<f64, OptError> {
    let base_graph = build::from_state_space(sys)?;
    let base = list_schedule(&base_graph, 1, &tech.processor)?.length as f64;
    let unfolded = build::from_unfolded(&unfold(sys, unfolding as u32)?)?;
    let len = list_schedule(&unfolded, n, &tech.processor)?.length as f64;
    Ok(base / (len / (unfolding + 1) as f64))
}

/// Runs the §4 strategy: unfold to the §3 optimum, add processors, slow
/// all of them down by the measured `S_max(N, i)` via voltage reduction.
///
/// # Errors
///
/// Returns [`OptError::Linsys`] / [`OptError::Dfg`] when analysis or graph
/// construction fails, and [`OptError::Schedule`] when the processor
/// selection yields zero processors
/// (`ProcessorSelection::SearchBest { max: 0 }` — resource starvation is
/// reported, not papered over). Voltage-floor clamping and
/// threshold-limited supplies degrade gracefully with diagnostics.
pub fn optimize(
    sys: &StateSpace,
    tech: &TechConfig,
    selection: ProcessorSelection,
) -> Result<MultiProcessorResult, OptError> {
    optimize_with_pool(sys, tech, selection, &ThreadPool::new(1))
}

/// The `SearchBest` tie-break: an earlier (smaller-`n`) candidate wins
/// ties, so folding pool results in ascending `n` order makes the choice
/// independent of the worker count.
fn fold_candidate(
    best: Option<MultiProcessorResult>,
    cand: MultiProcessorResult,
) -> Option<MultiProcessorResult> {
    Some(match best {
        Some(b) if b.power_reduction() >= cand.power_reduction() => b,
        _ => cand,
    })
}

/// [`optimize`] with the `N` sweep fanned out over the engine's
/// [`ThreadPool`] and the unfolding analysis served by an incremental
/// [`SweepCache`]. Candidates are evaluated concurrently, then folded in
/// ascending `n` order, so the result is bit-identical at every worker
/// count (asserted by the differential test layer).
///
/// # Errors
///
/// Identical to [`optimize`], plus [`OptError::Engine`] if a sweep worker
/// panics. When several `n` fail, the lowest `n`'s error is reported,
/// whatever the worker count.
pub fn optimize_with_pool(
    sys: &StateSpace,
    tech: &TechConfig,
    selection: ProcessorSelection,
    pool: &ThreadPool,
) -> Result<MultiProcessorResult, OptError> {
    let cycles = tech.cycle_cost();
    let mut cache = SweepCache::new(sys);
    let choice = lintra_engine::best_unfolding(
        &mut cache,
        TrivialityRule::ZeroOne,
        cycles.w_mul,
        cycles.w_add,
    )?;
    let i = choice.unfolding;

    // Hoisted out of the per-n sweep: both graphs and the base schedule
    // are n-independent, and build is deterministic, so every worker
    // schedules the same graph.
    let base_graph = build::from_state_space(sys)?;
    let base = list_schedule(&base_graph, 1, &tech.processor)?.length as f64;
    let unfolded = build::from_unfolded(&cache.unfolded(i as u32)?)?;

    let evaluate = |n: usize| -> Result<MultiProcessorResult, OptError> {
        let len = list_schedule(&unfolded, n, &tech.processor)?.length as f64;
        let per_sample = len / (i + 1) as f64;
        let speedup = base / per_sample;
        let mut diagnostics = Vec::new();
        let scaling = scale_or_fallback(
            &tech.voltage,
            tech.initial_voltage,
            speedup,
            &mut diagnostics,
        )?;
        Ok(MultiProcessorResult {
            unfolding: i,
            processors: n,
            speedup,
            scaling,
            base_cycles_per_sample: base,
            cycles_per_sample: per_sample,
            diagnostics,
        })
    };

    match selection {
        ProcessorSelection::StatesCount => evaluate(sys.num_states().max(1)),
        ProcessorSelection::SearchBest { max } => {
            let candidates = pool.try_map((1..=max).collect(), evaluate)?;
            let mut best: Option<MultiProcessorResult> = None;
            for cand in candidates {
                best = fold_candidate(best, cand?);
            }
            best.ok_or(OptError::Schedule(
                lintra_sched::ScheduleError::NoProcessors,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single;
    use lintra_suite::{by_name, dense_synthetic, suite};

    #[test]
    fn worked_example_two_processors() {
        // §4: dense P = Q = 1, R = 5, i = 6, N = 2 at 3.0 V lands near
        // S ≈ 3.95 and V ≈ 1.7 V.
        let sys = dense_synthetic(1, 1, 5);
        let tech = TechConfig::dac96(3.0);
        let s2 = measured_speedup(&sys, 6, 2, &tech).unwrap();
        assert!(
            s2 > 2.0 * 1.8 && s2 <= 2.0 * 1.975 + 1e-9,
            "S(2,6) = {s2}, expected close to 3.95"
        );
        let v = tech.voltage.scale_for_slowdown(3.0, s2).unwrap().voltage;
        assert!((v - 1.7).abs() < 0.15, "voltage {v}");
    }

    #[test]
    fn multiprocessor_beats_single_processor_on_dense_designs() {
        let tech = TechConfig::dac96(3.3);
        for name in ["ellip", "steam", "iir5"] {
            let d = by_name(name).unwrap();
            let s = single::optimize(&d.system, &tech).unwrap();
            let m = optimize(&d.system, &tech, ProcessorSelection::StatesCount).unwrap();
            assert!(
                m.power_reduction() >= s.real.power_reduction() * 0.95,
                "{name}: multi {} vs single {}",
                m.power_reduction(),
                s.real.power_reduction()
            );
        }
    }

    #[test]
    fn speedup_close_to_linear_for_n_up_to_r() {
        let sys = dense_synthetic(1, 1, 4);
        let tech = TechConfig::dac96(3.3);
        let s1 = measured_speedup(&sys, 4, 1, &tech).unwrap();
        for n in 2..=4 {
            let sn = measured_speedup(&sys, 4, n, &tech).unwrap();
            assert!(
                sn >= 0.85 * n as f64 * s1,
                "S({n}) = {sn} not near-linear (S(1) = {s1})"
            );
        }
    }

    #[test]
    fn search_best_at_least_matches_states_count() {
        let d = by_name("chemical").unwrap();
        let tech = TechConfig::dac96(3.3);
        let fixed = optimize(&d.system, &tech, ProcessorSelection::StatesCount).unwrap();
        let best = optimize(
            &d.system,
            &tech,
            ProcessorSelection::SearchBest {
                max: d.system.num_states() + 2,
            },
        )
        .unwrap();
        assert!(best.power_reduction() >= fixed.power_reduction() - 1e-9);
    }

    #[test]
    fn suite_average_is_large() {
        // The paper's abstract: about 8x for multiprocessor on average.
        let tech = TechConfig::dac96(3.3);
        let reductions: Vec<f64> = suite()
            .iter()
            .map(|d| {
                optimize(&d.system, &tech, ProcessorSelection::StatesCount)
                    .unwrap()
                    .power_reduction()
            })
            .collect();
        let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
        assert!(
            avg > 2.0,
            "average multiprocessor reduction {avg} ({reductions:?})"
        );
    }

    #[test]
    fn pooled_search_is_bit_identical_to_sequential() {
        let tech = TechConfig::dac96(3.3);
        let pool = ThreadPool::new(4);
        for d in suite() {
            for selection in [
                ProcessorSelection::StatesCount,
                ProcessorSelection::SearchBest {
                    max: d.system.num_states() + 2,
                },
            ] {
                let seq = optimize(&d.system, &tech, selection).unwrap();
                let par = optimize_with_pool(&d.system, &tech, selection, &pool).unwrap();
                assert_eq!(par, seq, "{} with {selection:?}", d.name);
            }
        }
    }

    #[test]
    fn pooled_zero_processor_search_is_a_typed_error() {
        let sys = dense_synthetic(1, 1, 3);
        let tech = TechConfig::dac96(3.3);
        let err = optimize_with_pool(
            &sys,
            &tech,
            ProcessorSelection::SearchBest { max: 0 },
            &ThreadPool::new(2),
        )
        .unwrap_err();
        assert!(matches!(err, OptError::Schedule(_)), "{err}");
    }

    #[test]
    fn zero_processor_search_is_a_typed_error() {
        let sys = dense_synthetic(1, 1, 3);
        let tech = TechConfig::dac96(3.3);
        let err = optimize(&sys, &tech, ProcessorSelection::SearchBest { max: 0 }).unwrap_err();
        assert!(matches!(err, OptError::Schedule(_)), "{err}");
    }

    #[test]
    fn below_threshold_supply_degrades_to_frequency_only() {
        // A supply at the threshold voltage cannot be inverted; the
        // optimizer must fall back to a linear frequency reduction and say
        // so, not panic.
        let sys = dense_synthetic(1, 1, 5);
        let tech = TechConfig::dac96(0.9);
        let m = optimize(&sys, &tech, ProcessorSelection::StatesCount).unwrap();
        assert_eq!(m.scaling.voltage, 0.9);
        assert!((m.power_reduction() - m.speedup / m.processors as f64).abs() < 1e-9);
        assert!(m
            .diagnostics
            .iter()
            .any(|d| d.code == crate::DiagCode::FrequencyOnlyFallback));
    }

    #[test]
    fn voltage_never_below_floor() {
        let tech = TechConfig::dac96(5.0);
        for d in suite() {
            let m = optimize(&d.system, &tech, ProcessorSelection::StatesCount).unwrap();
            assert!(
                m.scaling.voltage >= tech.voltage.v_min() - 1e-12,
                "{}",
                d.name
            );
        }
    }
}
