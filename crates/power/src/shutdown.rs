//! Shutdown and duty-cycling: the §1/§3 linear knobs.
//!
//! When voltage scaling is not available, surplus throughput can still be
//! converted to power linearly, either by slowing the clock (`f` term of
//! `P = α·C·V²·f`) or by finishing early and gating the clock / supply for
//! the rest of the sample period. This module models both, including an
//! idle overhead factor for imperfect gating (leakage, PLL, retention).

/// How surplus throughput is converted to power when `V` is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdleStrategy {
    /// Reduce the clock so computation exactly fills the sample period.
    SlowClock,
    /// Run at full speed, then gate the clock; gated power is
    /// `idle_fraction` of active power (0 = perfect gating).
    ClockGate {
        /// Relative power while gated, in `[0, 1]`.
        idle_fraction: f64,
    },
    /// Run at full speed, then cut the supply; restart costs
    /// `wakeup_overhead` of a sample period's active energy per sample.
    PowerDown {
        /// Energy overhead per wake-up, as a fraction of one active
        /// sample-period energy.
        wakeup_overhead: f64,
    },
}

/// Relative power (new/old) of an implementation whose work per sample
/// shrank by `speedup ≥ 1`, at a fixed voltage, under the given idle
/// strategy.
///
/// # Panics
///
/// Panics if `speedup < 1` or a strategy parameter is out of range.
pub fn relative_power(speedup: f64, strategy: IdleStrategy) -> f64 {
    assert!(speedup >= 1.0, "speedup must be >= 1, got {speedup}");
    let busy = 1.0 / speedup;
    match strategy {
        IdleStrategy::SlowClock => busy,
        IdleStrategy::ClockGate { idle_fraction } => {
            assert!(
                (0.0..=1.0).contains(&idle_fraction),
                "idle fraction out of range"
            );
            busy + (1.0 - busy) * idle_fraction
        }
        IdleStrategy::PowerDown { wakeup_overhead } => {
            assert!(
                wakeup_overhead >= 0.0,
                "wakeup overhead must be non-negative"
            );
            busy + wakeup_overhead * busy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_clock_is_exactly_linear() {
        for &s in &[1.0, 1.6, 2.0, 10.0] {
            assert!((relative_power(s, IdleStrategy::SlowClock) - 1.0 / s).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_iir_example_37_percent() {
        // §3: a x1.6 op reduction gives a power reduction of x1.6 — "37%"
        // — at unchanged voltage.
        let rel = relative_power(1.6, IdleStrategy::SlowClock);
        assert!((rel - 0.625).abs() < 1e-12);
        assert!(((1.0 - rel) * 100.0 - 37.5).abs() < 0.6);
    }

    #[test]
    fn perfect_gating_matches_slow_clock() {
        let s = 2.5;
        let a = relative_power(s, IdleStrategy::SlowClock);
        let b = relative_power(s, IdleStrategy::ClockGate { idle_fraction: 0.0 });
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn leaky_gating_is_worse() {
        let s = 3.0;
        let perfect = relative_power(s, IdleStrategy::ClockGate { idle_fraction: 0.0 });
        let leaky = relative_power(s, IdleStrategy::ClockGate { idle_fraction: 0.2 });
        assert!(leaky > perfect);
        assert!(leaky < 1.0);
    }

    #[test]
    fn power_down_overhead_accounted() {
        let s = 4.0;
        let free = relative_power(
            s,
            IdleStrategy::PowerDown {
                wakeup_overhead: 0.0,
            },
        );
        let costly = relative_power(
            s,
            IdleStrategy::PowerDown {
                wakeup_overhead: 0.5,
            },
        );
        assert!((free - 0.25).abs() < 1e-12);
        assert!((costly - 0.375).abs() < 1e-12);
    }
}
