//! From-scratch IIR filter design.
//!
//! The paper's DSP benchmarks (`iir5`, `iir6`, `iir10`, `iir12` of Table 1)
//! are real filters — a 5th-order elliptic, a 6th-order low-pass elliptic
//! cascade, a 10th-order band-stop Butterworth and a 12th-order band-pass
//! Chebyshev. Their coefficient matrices are not printed in the paper, so
//! this crate rebuilds the whole classical design chain needed to regenerate
//! them, with no external dependencies:
//!
//! 1. analog low-pass prototypes ([`butterworth`], [`chebyshev1`],
//!    [`elliptic`]) in zero-pole-gain form, the elliptic case via
//!    from-scratch Jacobi elliptic functions ([`jacobi`]),
//! 2. spectral transforms low-pass → low-pass/band-pass/band-stop
//!    ([`Zpk::to_lowpass`] and friends),
//! 3. the bilinear transform to discrete time ([`Zpk::bilinear`]),
//! 4. realization as cascaded second-order sections ([`Sos`]) and
//!    conversion to state-space matrices ([`ss::sos_to_state_space`],
//!    [`ss::sos_to_coupled_state_space`]) for the rest of the workspace.
//!
//! # Examples
//!
//! Design the suite's `iir6` (6th-order elliptic low-pass, cascade form):
//!
//! ```
//! use lintra_filters::{elliptic, FilterKind};
//!
//! let analog = elliptic(6, 0.5, 60.0).unwrap();
//! let digital = analog.to_lowpass(0.3 * std::f64::consts::PI).bilinear(1.0);
//! let h0 = digital.freq_response(0.0).norm();
//! assert!((h0 - 1.0).abs() < 0.07); // passband ripple only
//! let hs = digital.freq_response(0.8 * std::f64::consts::PI).norm();
//! assert!(hs < 1e-2); // deep stopband
//! # let _ = FilterKind::Lowpass;
//! ```

mod complex;
pub mod jacobi;
mod poly;
mod proto;
mod sos;
pub mod ss;
mod zpk;

pub use complex::Complex;
pub use poly::Poly;
pub use proto::{butterworth, chebyshev1, elliptic, DesignFilterError};
pub use sos::{Biquad, Sos};
pub use zpk::Zpk;

/// The four classical magnitude-response shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// Pass below the cutoff.
    Lowpass,
    /// Pass above the cutoff.
    Highpass,
    /// Pass between the two edges.
    Bandpass,
    /// Reject between the two edges.
    Bandstop,
}
