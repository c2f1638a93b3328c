//! Conversion of digital filters to state-space coefficient matrices.
//!
//! Two cascade realizations are provided, both composing second-order
//! sections in series (block lower-triangular `A`):
//!
//! * [`sos_to_state_space`] — biquads in transposed direct form II;
//! * [`sos_to_coupled_state_space`] — biquads in the coupled (normalized)
//!   form, where every `A` coefficient is a genuine multiplication. The
//!   suite's filter benchmarks use this one.

use crate::{Biquad, Sos};
use lintra_matrix::Matrix;

/// State-space matrices `(A, B, C, D)` of a single-input single-output
/// digital filter.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpaceParts {
    /// State matrix, `R × R`.
    pub a: Matrix,
    /// Input matrix, `R × 1`.
    pub b: Matrix,
    /// Output matrix, `1 × R`.
    pub c: Matrix,
    /// Feed-through, `1 × 1`.
    pub d: Matrix,
}

impl StateSpaceParts {
    /// Simulates the filter over an input block (zero initial state);
    /// reference implementation for the equivalence tests.
    pub fn simulate(&self, input: &[f64]) -> Vec<f64> {
        let r = self.a.rows();
        let mut state = vec![0.0; r];
        let mut out = Vec::with_capacity(input.len());
        for &u in input {
            let y = self.c.mul_vec(&state)[0] + self.d[(0, 0)] * u;
            let mut next = self.a.mul_vec(&state);
            for (i, n) in next.iter_mut().enumerate() {
                *n += self.b[(i, 0)] * u;
            }
            state = next;
            out.push(y);
        }
        out
    }
}

/// Realizes one biquad in transposed direct form II; degenerate
/// first-order sections (`a₂ = b₂ = 0`) get a minimal one-state
/// realization.
pub fn biquad_to_state_space(q: &Biquad) -> StateSpaceParts {
    let (b0, b1, b2) = (q.b[0], q.b[1], q.b[2]);
    let (a1, a2) = (q.a[1], q.a[2]);
    if a2 == 0.0 && b2 == 0.0 {
        return StateSpaceParts {
            a: Matrix::from_rows(&[&[-a1]]),
            b: Matrix::from_rows(&[&[b1 - a1 * b0]]),
            c: Matrix::from_rows(&[&[1.0]]),
            d: Matrix::from_rows(&[&[b0]]),
        };
    }
    StateSpaceParts {
        a: Matrix::from_rows(&[&[-a1, 1.0], &[-a2, 0.0]]),
        b: Matrix::from_rows(&[&[b1 - a1 * b0], &[b2 - a2 * b0]]),
        c: Matrix::from_rows(&[&[1.0, 0.0]]),
        d: Matrix::from_rows(&[&[b0]]),
    }
}

/// Series composition `second ∘ first` (the output of `first` feeds
/// `second`).
pub fn series(first: &StateSpaceParts, second: &StateSpaceParts) -> StateSpaceParts {
    let n1 = first.a.rows();
    let n2 = second.a.rows();
    let mut a = Matrix::zeros(n1 + n2, n1 + n2);
    a.set_block(0, 0, &first.a);
    a.set_block(n1, n1, &second.a);
    a.set_block(n1, 0, &(&second.b * &first.c));
    let mut b = Matrix::zeros(n1 + n2, 1);
    b.set_block(0, 0, &first.b);
    b.set_block(n1, 0, &(&second.b * &first.d));
    let mut c = Matrix::zeros(1, n1 + n2);
    c.set_block(0, 0, &(&second.d * &first.c));
    c.set_block(0, n1, &second.c);
    let d = &second.d * &first.d;
    StateSpaceParts { a, b, c, d }
}

/// Realizes a biquad cascade as one state-space system (series
/// composition, block lower-triangular `A`).
///
/// # Panics
///
/// Panics if the cascade has no sections.
pub fn sos_to_state_space(sos: &Sos) -> StateSpaceParts {
    let mut it = sos.sections.iter();
    let first = it.next().expect("cascade must have at least one section");
    let mut acc = biquad_to_state_space(first);
    for s in it {
        acc = series(&acc, &biquad_to_state_space(s));
    }
    acc
}

/// Realizes one biquad in the *coupled* (normalized) form, the classical
/// low-coefficient-sensitivity structure used by wave-digital and lattice
/// filters:
///
/// ```text
/// A = [σ  −ω]    B = [1]    σ = −a₁/2,  ω = √(a₂ − σ²)
///     [ω   σ]        [0]
/// ```
///
/// with `C` fitted so the transfer function matches exactly. Unlike the
/// transposed-direct-form realization, every `A` coefficient is a genuine
/// multiplication — which is what makes these structures profitable to
/// unfold (§3 of the paper).
///
/// Falls back to [`biquad_to_state_space`] for sections with real poles
/// (where the rotation form does not exist).
pub fn coupled_biquad_to_state_space(q: &Biquad) -> StateSpaceParts {
    let (b0, b1, b2) = (q.b[0], q.b[1], q.b[2]);
    let (a1, a2) = (q.a[1], q.a[2]);
    let sigma = -a1 / 2.0;
    let disc = a2 - sigma * sigma;
    if disc <= 1e-12 {
        // Real poles (or first-order): no rotation form.
        return biquad_to_state_space(q);
    }
    let omega = disc.sqrt();
    // H(z) - b0 = (r1 z + r2) / (z^2 + a1 z + a2) with the residues below;
    // C (zI - A)^{-1} B = (c1 (z - sigma) + c2 omega) / ((z-sigma)^2 + omega^2).
    let r1 = b1 - a1 * b0;
    let r2 = b2 - a2 * b0;
    let c1 = r1;
    let c2 = (r2 + r1 * sigma) / omega;
    StateSpaceParts {
        a: Matrix::from_rows(&[&[sigma, -omega], &[omega, sigma]]),
        b: Matrix::from_rows(&[&[1.0], &[0.0]]),
        c: Matrix::from_rows(&[&[c1, c2]]),
        d: Matrix::from_rows(&[&[b0]]),
    }
}

/// Realizes a biquad cascade with coupled-form sections (series
/// composition). This is the realization used for the paper's filter
/// benchmarks: structurally rich like a wave digital filter, so unfolding
/// has multiplications to amortize.
///
/// # Panics
///
/// Panics if the cascade has no sections.
pub fn sos_to_coupled_state_space(sos: &Sos) -> StateSpaceParts {
    let mut it = sos.sections.iter();
    let first = it.next().expect("cascade must have at least one section");
    let mut acc = coupled_biquad_to_state_space(first);
    for s in it {
        acc = series(&acc, &coupled_biquad_to_state_space(s));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{butterworth, elliptic, Sos};

    fn impulse(n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        x
    }

    #[test]
    fn biquad_state_space_matches_biquad_filter() {
        let q = Biquad {
            b: [0.2, 0.4, 0.2],
            a: [1.0, -0.5, 0.25],
        };
        let ss = biquad_to_state_space(&q);
        let x = impulse(50);
        let want = q.filter(&x);
        let got = ss.simulate(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn cascade_state_space_matches_sos_filter() {
        let f = elliptic(6, 0.5, 50.0)
            .unwrap()
            .to_lowpass(0.25 * std::f64::consts::PI)
            .bilinear(1.0);
        let sos = Sos::from_zpk(&f);
        let ss = sos_to_state_space(&sos);
        assert_eq!(ss.a.rows(), 6);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.37).sin()).collect();
        let want = sos.filter(&x);
        let got = ss.simulate(&x);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-9, "sample {k}: {g} vs {w}");
        }
    }

    #[test]
    fn cascade_a_is_block_lower_triangular() {
        let f = butterworth(6)
            .unwrap()
            .to_lowpass(0.3 * std::f64::consts::PI)
            .bilinear(1.0);
        let ss = sos_to_state_space(&Sos::from_zpk(&f));
        // Upper-right 2x2 blocks above the diagonal are zero.
        for bi in 0..3 {
            for bj in (bi + 1)..3 {
                for i in 0..2 {
                    for j in 0..2 {
                        assert_eq!(ss.a[(2 * bi + i, 2 * bj + j)], 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn coupled_biquad_matches_difference_equation() {
        // Complex poles: 0.6 e^{±j 0.9}.
        let (rr, th) = (0.6_f64, 0.9_f64);
        let q = Biquad {
            b: [0.3, -0.1, 0.2],
            a: [1.0, -2.0 * rr * th.cos(), rr * rr],
        };
        let ss = coupled_biquad_to_state_space(&q);
        // All four A entries are non-trivial multiplications.
        assert!(ss.a.as_slice().iter().all(|&x| x != 0.0 && x.abs() != 1.0));
        let x: Vec<f64> = (0..80).map(|i| ((i * 5 % 17) as f64) * 0.2 - 1.0).collect();
        let want = q.filter(&x);
        let got = ss.simulate(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn coupled_biquad_falls_back_for_real_poles() {
        let q = Biquad {
            b: [1.0, 0.3, 0.02],
            a: [1.0, -0.7, 0.12],
        }; // poles 0.3, 0.4
        let ss = coupled_biquad_to_state_space(&q);
        let df = biquad_to_state_space(&q);
        assert_eq!(ss.a, df.a);
    }

    #[test]
    fn coupled_cascade_matches_sos_filter() {
        let f = elliptic(6, 0.5, 50.0)
            .unwrap()
            .to_lowpass(0.25 * std::f64::consts::PI)
            .bilinear(1.0);
        let sos = Sos::from_zpk(&f);
        let ss = sos_to_coupled_state_space(&sos);
        assert_eq!(ss.a.rows(), 6);
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.29).sin()).collect();
        let want = sos.filter(&x);
        let got = ss.simulate(&x);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-8, "sample {k}: {g} vs {w}");
        }
    }

    #[test]
    fn series_composition_is_series_filtering() {
        let q1 = Biquad {
            b: [1.0, 0.5, 0.0],
            a: [1.0, -0.3, 0.0],
        };
        let q2 = Biquad {
            b: [0.7, 0.0, 0.1],
            a: [1.0, 0.2, -0.1],
        };
        let ss = series(&biquad_to_state_space(&q1), &biquad_to_state_space(&q2));
        let x = impulse(40);
        let want = q2.filter(&q1.filter(&x));
        let got = ss.simulate(&x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }
}
