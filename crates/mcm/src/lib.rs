//! Multiple constant multiplication (MCM) by shifts and additions.
//!
//! Implements the §5 building block of the paper: replacing the products of
//! one variable with many constants (`y_k = c_k · x`) by a shared network of
//! shifts and additions, using the **iterative pairwise matching** algorithm
//! of Potkonjak, Srivastava and Chandrakasan (DAC'94, \[Pot94\] in the
//! paper).
//!
//! The crate provides:
//!
//! * [`csd`]: binary and canonical-signed-digit (CSD) recoding of integer
//!   constants, and the cost of decomposing a *single* constant
//!   multiplication into shifts and adds,
//! * [`synthesize`]: the full MCM optimization returning an explicit,
//!   numerically verifiable shift-add plan ([`McmSolution`]),
//! * [`naive_cost`]: the per-constant decomposition baseline the paper
//!   compares against,
//! * [`quantize`]: fixed-point quantization of `f64` coefficients, the
//!   bridge from state-space matrices to integer MCM instances.
//!
//! # The paper's worked example
//!
//! `y₁ = 185·x` and `y₂ = 235·x` cost 9 shifts + 9 additions when
//! decomposed independently (binary recoding); pairwise matching discovers
//! the shared subexpression `y₃ = 169·x = x≪7 + x≪5 + x≪3 + x` and realizes
//! both products with 6 shifts + 6 additions. (Iterating the matching one
//! step further than the paper's illustration shares `33·x = x + x≪5` too
//! and lands at 5 + 5.)
//!
//! ```
//! use lintra_mcm::{naive_cost, synthesize, Recoding};
//!
//! let naive = naive_cost(&[185, 235], Recoding::Binary);
//! assert_eq!((naive.adds, naive.shifts), (9, 9));
//!
//! let sol = synthesize(&[185, 235], Recoding::Binary);
//! assert!(sol.cost().adds <= 6);
//! assert!(sol.cost().shifts <= 6);
//! sol.verify().unwrap();
//! ```

pub mod csd;
pub mod optimal;
mod pairwise;
mod plan;

pub use pairwise::{naive_cost, synthesize, synthesize_reference};
pub use plan::{Expr, McmSolution, OutputRef, Source, Term, VerifyMcmError};

/// How constants are recoded into signed digits before matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Recoding {
    /// Plain binary expansion (digits in `{0, 1}`); what the paper's §5
    /// example uses.
    Binary,
    /// Canonical signed digit (digits in `{-1, 0, 1}`, no two adjacent
    /// nonzeros); minimal digit count, the default.
    #[default]
    Csd,
}

/// Cost of a shift-add realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Number of two-operand additions/subtractions.
    pub adds: usize,
    /// Number of (distinct, shareable) constant shifts.
    pub shifts: usize,
}

impl Cost {
    /// Total operation count `adds + shifts`.
    pub fn total(&self) -> usize {
        self.adds + self.shifts
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        Cost {
            adds: self.adds + rhs.adds,
            shifts: self.shifts + rhs.shifts,
        }
    }
}

/// Quantizes a real coefficient to a fixed-point integer with `frac_bits`
/// fractional bits (round to nearest, ties away from zero).
///
/// This is how the workspace turns state-space coefficient matrices into
/// MCM instances: `c ≈ quantize(c, w) / 2^w`.
///
/// # Examples
///
/// ```
/// assert_eq!(lintra_mcm::quantize(0.75, 8), 192);
/// assert_eq!(lintra_mcm::quantize(-1.0, 4), -16);
/// ```
pub fn quantize(c: f64, frac_bits: u32) -> i64 {
    let scaled = c * (1u64 << frac_bits) as f64;
    scaled.round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trip_of_dyadic() {
        for &(c, w, q) in &[
            (0.5, 4, 8i64),
            (-0.375, 8, -96),
            (1.0, 12, 4096),
            (0.0, 8, 0),
        ] {
            assert_eq!(quantize(c, w), q, "c={c} w={w}");
            assert!((q as f64 / (1u64 << w) as f64 - c).abs() < 1e-12);
        }
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        // 0.1 * 16 = 1.6 -> 2
        assert_eq!(quantize(0.1, 4), 2);
        // -1.6 -> -2
        assert_eq!(quantize(-0.1, 4), -2);
    }

    #[test]
    fn cost_addition() {
        let a = Cost { adds: 1, shifts: 2 };
        let b = Cost { adds: 3, shifts: 4 };
        assert_eq!(a + b, Cost { adds: 4, shifts: 6 });
        assert_eq!((a + b).total(), 10);
    }
}
