//! CMOS voltage/delay and power/energy models.
//!
//! This crate implements the power background of §1 of the paper:
//!
//! * the switching-power law `P = α·C_L·V_dd²·f` ([`switching_power`]),
//! * the normalized gate-delay-vs-voltage curve of Fig. 1
//!   ([`VoltageModel::normalized_delay`], first-order long-channel model
//!   `d(V) ∝ V / (V − V_t)²`),
//! * its inversion ([`VoltageModel::voltage_for_slowdown`]): given a clock
//!   slowdown budget earned by a transformation, find the lowest feasible
//!   supply voltage, clamped at the technology minimum,
//! * the voltage-scaling bookkeeping used by all three optimization
//!   strategies ([`VoltageScaling`]), and
//! * a per-operation energy model ([`EnergyModel`]) used for the ASIC
//!   experiments of Table 4, exposed to optimizers and the e-graph
//!   extractor through the unified [`lintra_dfg::CostModel`] trait as
//!   [`EnergyCost`].
//!
//! # Examples
//!
//! ```
//! use lintra_power::VoltageModel;
//!
//! # fn main() -> Result<(), lintra_power::VoltageError> {
//! let tech = VoltageModel::dac96();
//! // A 2x reduction in operations per sample lets the clock run 2x slower;
//! // find the voltage where gates are exactly 2x slower than at 3.3 V.
//! let scaled = tech.scale_for_slowdown(3.3, 2.0)?;
//! assert!(scaled.voltage < 3.3 && scaled.voltage >= tech.v_min());
//! assert!(scaled.power_reduction() > 2.0); // quadratic beats linear
//! # Ok(())
//! # }
//! ```

mod cost;
mod energy;
pub mod shutdown;
mod voltage;

pub use cost::EnergyCost;
pub use energy::{EnergyBreakdown, EnergyModel, OpEnergy};
pub use shutdown::{relative_power, IdleStrategy};
pub use voltage::{VoltageError, VoltageModel, VoltageModelError, VoltageScaling};

/// Average switching power `P = α·C_L·V_dd²·f` (EQ 1 of the paper).
///
/// * `alpha` — switching activity (probability of a 0→1 transition/cycle),
/// * `c_load` — load capacitance in farads,
/// * `vdd` — supply voltage in volts,
/// * `freq` — clock frequency in hertz.
///
/// Returns watts.
///
/// # Examples
///
/// ```
/// let p = lintra_power::switching_power(0.5, 1e-12, 3.3, 100e6);
/// assert!((p - 0.5 * 1e-12 * 3.3 * 3.3 * 100e6).abs() < 1e-18);
/// ```
pub fn switching_power(alpha: f64, c_load: f64, vdd: f64, freq: f64) -> f64 {
    alpha * c_load * vdd * vdd * freq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switching_power_is_quadratic_in_voltage() {
        let p1 = switching_power(0.5, 1e-12, 2.0, 1e6);
        let p2 = switching_power(0.5, 1e-12, 4.0, 1e6);
        assert!((p2 / p1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn switching_power_is_linear_in_frequency() {
        let p1 = switching_power(0.5, 1e-12, 3.0, 1e6);
        let p2 = switching_power(0.5, 1e-12, 3.0, 3e6);
        assert!((p2 / p1 - 3.0).abs() < 1e-12);
    }
}
