//! Small dense linear-algebra substrate for the `lintra` workspace.
//!
//! The paper's analysis lives entirely in the world of small, real-valued,
//! constant coefficient matrices (a handful to a few dozen rows), so this
//! crate provides exactly what the rest of the workspace needs and nothing
//! more:
//!
//! * [`Matrix`] — an owned, row-major, `f64` dense matrix with the usual
//!   arithmetic, [`Matrix::pow`], and block composition helpers,
//! * LU factorization with partial pivoting ([`lu::Lu`]) for linear solves
//!   and determinants,
//! * the matrix exponential ([`expm`]) via scaling-and-squaring with a
//!   Padé approximant, used to discretize the continuous-time plant models
//!   behind the controller benchmarks (`steam`, `dist`, `chemical`, `ellip`),
//! * norms and a spectral-radius estimate used in stability checks.
//!
//! # Examples
//!
//! ```
//! use lintra_matrix::Matrix;
//!
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[-0.5, 1.2]]);
//! let a2 = a.pow(2);
//! assert_eq!(a2, &a * &a);
//! ```

pub mod eigen;
mod expm;
pub mod lu;
mod matrix;
mod norms;
pub mod rng;
mod stats;

pub use eigen::{eigenvalues, spectral_radius_exact};
pub use expm::{expm, expm_with, ExpmWorkspace};
pub use matrix::Matrix;
pub use norms::{spectral_radius_estimate, SpectralRadius};
pub use stats::{kernel_counters, reset_kernel_counters, KernelCounters};

/// Error type for shape mismatches and singular systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable operation name, e.g. `"mul"`.
        op: &'static str,
        /// Shape of the left operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A factorization or solve encountered a (numerically) singular matrix.
    Singular,
    /// The operation requires a square matrix.
    NotSquare {
        /// Shape of the offending matrix as `(rows, cols)`.
        shape: (usize, usize),
    },
    /// An operand or result contained a NaN or infinite entry.
    NonFinite {
        /// Human-readable operation name, e.g. `"expm"`.
        op: &'static str,
    },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MatrixError::Singular => write!(f, "matrix is singular to working precision"),
            MatrixError::NotSquare { shape } => {
                write!(
                    f,
                    "operation requires a square matrix, got {}x{}",
                    shape.0, shape.1
                )
            }
            MatrixError::NonFinite { op } => {
                write!(f, "non-finite (NaN or infinite) entry encountered in {op}")
            }
        }
    }
}

impl std::error::Error for MatrixError {}
