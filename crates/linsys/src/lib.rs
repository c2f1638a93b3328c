//! Linear systems, operation counting, and the unfolding transformation.
//!
//! This crate is the semantic core of the reproduction. It provides:
//!
//! * [`StateSpace`] — the paper's EQ 2 representation
//!   (`S[n] = A·S[n−1] + B·X[n]`, `Y[n] = C·S[n−1] + D·X[n]`) with
//!   simulation and validation,
//! * [`count`] — classification of coefficients into trivial/shift/general
//!   and empirical operation counting, plus the paper's dense closed forms
//!   (EQ 4/5 and the `i_opt` expression of §3),
//! * [`unfold`] — the unfolding transformation (EQ 3): batch-processing
//!   `i+1` samples per iteration, with a property-tested equivalence to the
//!   original system,
//! * [`best_unfolding`](count::best_unfolding) — the §3 search heuristic
//!   for non-dense (real-life) coefficient matrices,
//! * [`c2d`] — zero-order-hold discretization of continuous plants (used to
//!   regenerate the controller benchmarks).
//!
//! # Examples
//!
//! The headline phenomenon — operations per sample fall, bottom out at
//! `i_opt`, then rise:
//!
//! ```
//! use lintra_linsys::{count::dense_ops_per_sample, count::dense_iopt};
//!
//! let (p, q, r) = (1, 1, 5);
//! let iopt = dense_iopt(p, q, r, 1.0, 1.0);
//! assert_eq!(iopt, 6); // the paper's §3 worked example
//! let at = |i| dense_ops_per_sample(p, q, r, i).total();
//! assert!(at(iopt) < at(0));
//! assert!(at(iopt) <= at(iopt + 1));
//! assert!(at(iopt) <= at(iopt.saturating_sub(1)));
//! ```

pub mod c2d;
pub mod count;
mod statespace;
mod unfold;

pub use statespace::{LinsysError, StateSpace};
pub use unfold::{unfold, UnfoldedSystem};
