//! Analog low-pass prototypes (cutoff 1 rad/s) in zero-pole-gain form.

use crate::jacobi::{asc, cd_complex, ellipk, sn_cn_dn};
use crate::{Complex, Zpk};
use std::fmt;

/// Error from a filter-design entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignFilterError {
    /// Order must be at least 1.
    ZeroOrder,
    /// Ripple/attenuation parameters out of range.
    BadRipple {
        /// Explanation of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for DesignFilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignFilterError::ZeroOrder => write!(f, "filter order must be at least 1"),
            DesignFilterError::BadRipple { what } => write!(f, "invalid ripple spec: {what}"),
        }
    }
}

impl std::error::Error for DesignFilterError {}

/// Butterworth (maximally flat) prototype of order `n`.
///
/// # Errors
///
/// Returns [`DesignFilterError::ZeroOrder`] for `n = 0`.
///
/// # Examples
///
/// ```
/// let f = lintra_filters::butterworth(4)?;
/// // -3 dB at the cutoff, by construction.
/// let h = f.freq_response(1.0).norm();
/// assert!((h - 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
/// # Ok::<(), lintra_filters::DesignFilterError>(())
/// ```
pub fn butterworth(n: usize) -> Result<Zpk, DesignFilterError> {
    if n == 0 {
        return Err(DesignFilterError::ZeroOrder);
    }
    let poles: Vec<Complex> = (1..=n)
        .map(|i| {
            let theta = std::f64::consts::PI * (2 * i + n - 1) as f64 / (2 * n) as f64;
            Complex::from_polar(1.0, theta)
        })
        .collect();
    Ok(Zpk::analog(vec![], poles, 1.0))
}

/// Chebyshev type-I prototype of order `n` with passband ripple
/// `ripple_db` (> 0 dB).
///
/// # Errors
///
/// Returns an error for `n = 0` or a non-positive ripple.
pub fn chebyshev1(n: usize, ripple_db: f64) -> Result<Zpk, DesignFilterError> {
    if n == 0 {
        return Err(DesignFilterError::ZeroOrder);
    }
    if ripple_db.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(DesignFilterError::BadRipple {
            what: "passband ripple must be > 0 dB",
        });
    }
    let eps = (10f64.powf(ripple_db / 10.0) - 1.0).sqrt();
    let a = (1.0 / eps).asinh() / n as f64;
    let poles: Vec<Complex> = (1..=n)
        .map(|i| {
            let theta = std::f64::consts::PI * (2 * i - 1) as f64 / (2 * n) as f64;
            Complex::new(-a.sinh() * theta.sin(), a.cosh() * theta.cos())
        })
        .collect();
    // H(0) = 1 for odd n, 1/sqrt(1+eps^2) for even n.
    let prod = poles.iter().fold(Complex::ONE, |acc, &p| acc * (-p));
    let mut gain = prod.re;
    if n.is_multiple_of(2) {
        gain /= (1.0 + eps * eps).sqrt();
    }
    Ok(Zpk::analog(vec![], poles, gain))
}

/// Elliptic (Cauer) prototype of order `n` with passband ripple
/// `ripple_db` and stopband attenuation `atten_db`, following the standard
/// Landen/Jacobi construction (Orfanidis' formulation of the classical
/// design): the passband edge is 1 rad/s and the stopband edge is `1/k`
/// where `k` solves the degree equation.
///
/// # Errors
///
/// Returns an error for `n = 0`, non-positive ripple, or
/// `atten_db <= ripple_db`.
pub fn elliptic(n: usize, ripple_db: f64, atten_db: f64) -> Result<Zpk, DesignFilterError> {
    if n == 0 {
        return Err(DesignFilterError::ZeroOrder);
    }
    if ripple_db.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(DesignFilterError::BadRipple {
            what: "passband ripple must be > 0 dB",
        });
    }
    if atten_db <= ripple_db {
        return Err(DesignFilterError::BadRipple {
            what: "stopband attenuation must exceed passband ripple",
        });
    }

    let eps_p = (10f64.powf(ripple_db / 10.0) - 1.0).sqrt();
    let eps_s = (10f64.powf(atten_db / 10.0) - 1.0).sqrt();
    // Discrimination factor; solve the degree equation for the selectivity
    // k with the exact product form in complementary moduli (Orfanidis'
    // `ellipdeg`): k' = k1'^N · (Π sn(u_i·K(k1'), k1'))⁴.
    let k1 = eps_p / eps_s;
    let l = n / 2;
    let odd = n % 2 == 1;
    let k1p = (1.0 - k1 * k1).sqrt();
    let kk1p = ellipk(k1p);
    let mut prod = 1.0_f64;
    for i in 1..=l {
        let ui = (2 * i - 1) as f64 / n as f64;
        let (sn, _, _) = sn_cn_dn(ui * kk1p, k1p);
        prod *= sn;
    }
    let kp = k1p.powi(n as i32) * prod.powi(4);
    let k = (1.0 - kp * kp).sqrt().min(1.0 - 1e-12);

    let kk = ellipk(k);

    // Transmission zeros at j/(k·cd(u_i·K, k)) — just beyond the stopband
    // edge 1/k.
    let mut zeros = Vec::with_capacity(2 * l);
    for i in 1..=l {
        let ui = (2 * i - 1) as f64 / n as f64;
        let (_, cn, dn) = sn_cn_dn(ui * kk, k);
        let z_im = 1.0 / (k * (cn / dn));
        zeros.push(Complex::new(0.0, z_im));
        zeros.push(Complex::new(0.0, -z_im));
    }

    // v0 from the inverse sn at j/eps_p with modulus k1:
    // sn(j w, k1) = j sc(w, k1') = j/eps_p  =>  w = asc(1/eps_p, k1').
    let w = asc(1.0 / eps_p, k1p);
    let v0 = w / (n as f64 * ellipk(k1));

    // Poles p_i = j cd((u_i - j v0) K, k).
    let mut poles = Vec::with_capacity(n);
    for i in 1..=l {
        let ui = (2 * i - 1) as f64 / n as f64;
        let arg = Complex::new(ui, -v0).scale(kk);
        let p = Complex::I * cd_complex(arg, k);
        poles.push(p);
        poles.push(p.conj());
    }
    if odd {
        let arg = Complex::new(1.0, -v0).scale(kk);
        let p = Complex::I * cd_complex(arg, k);
        debug_assert!(
            p.im.abs() < 1e-8 * (1.0 + p.re.abs()),
            "real pole has residue {p}"
        );
        poles.push(Complex::from(p.re));
    }

    // Gain: H(0) = 1 for odd n, 1/sqrt(1+eps_p^2) for even n.
    let num0 = zeros.iter().fold(Complex::ONE, |acc, &z| acc * (-z));
    let den0 = poles.iter().fold(Complex::ONE, |acc, &p| acc * (-p));
    let h0_unit = (den0 / num0).re;
    let mut gain = h0_unit;
    if !odd {
        gain /= (1.0 + eps_p * eps_p).sqrt();
    }
    Ok(Zpk::analog(zeros, poles, gain))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mag(f: &Zpk, w: f64) -> f64 {
        f.freq_response(w).norm()
    }

    #[test]
    fn butterworth_flat_and_monotone() {
        let f = butterworth(5).unwrap();
        assert!((mag(&f, 0.0) - 1.0).abs() < 1e-12);
        assert!((mag(&f, 1.0) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        let mut prev = mag(&f, 0.0);
        let mut w = 0.1;
        while w < 5.0 {
            let m = mag(&f, w);
            assert!(m <= prev + 1e-12, "not monotone at {w}");
            prev = m;
            w += 0.1;
        }
        // 20*n dB/decade rolloff.
        let ratio = mag(&f, 10.0) / mag(&f, 100.0);
        assert!((ratio.log10() - 5.0).abs() < 0.01, "rolloff {ratio}");
    }

    #[test]
    fn butterworth_poles_left_half_plane_unit_circle() {
        for n in 1..=8 {
            let f = butterworth(n).unwrap();
            for &p in f.poles() {
                assert!(p.re < 0.0, "pole {p} not in LHP (n={n})");
                assert!((p.norm() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn chebyshev_equiripple_passband() {
        let rp = 1.0;
        let f = chebyshev1(6, rp).unwrap();
        let floor = 10f64.powf(-rp / 20.0);
        let mut min_seen = f64::INFINITY;
        let mut max_seen = 0.0_f64;
        let mut w = 0.0;
        while w <= 1.0 {
            let m = mag(&f, w);
            min_seen = min_seen.min(m);
            max_seen = max_seen.max(m);
            w += 0.002;
        }
        assert!(max_seen <= 1.0 + 1e-9, "passband exceeds unity: {max_seen}");
        assert!(
            (min_seen - floor).abs() < 1e-3,
            "ripple floor {min_seen} vs {floor}"
        );
        // Even order: H(0) at the ripple floor.
        assert!((mag(&f, 0.0) - floor).abs() < 1e-9);
        // Odd order: H(0) = 1.
        let f7 = chebyshev1(7, rp).unwrap();
        assert!((mag(&f7, 0.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chebyshev_beats_butterworth_in_stopband() {
        let b = butterworth(5).unwrap();
        let c = chebyshev1(5, 0.5).unwrap();
        assert!(mag(&c, 3.0) < mag(&b, 3.0));
    }

    #[test]
    fn elliptic_passband_and_stopband_spec() {
        for &(n, rp, rs) in &[(5usize, 0.5, 40.0), (6, 1.0, 60.0), (3, 0.1, 30.0)] {
            let f = elliptic(n, rp, rs).unwrap();
            let floor = 10f64.powf(-rp / 20.0);
            let stop = 10f64.powf(-rs / 20.0);
            // Passband within the ripple channel.
            let mut w = 0.0;
            while w <= 1.0 {
                let m = mag(&f, w);
                assert!(m <= 1.0 + 1e-6, "n={n}: passband overshoot {m} at {w}");
                assert!(m >= floor - 1e-6, "n={n}: passband droop {m} at {w}");
                w += 0.002;
            }
            // Stopband: the first transmission zero sits just beyond the
            // stopband edge 1/k, so everything from there on is at or
            // below the spec.
            let edge = f
                .zeros()
                .iter()
                .map(|z| z.norm())
                .fold(f64::INFINITY, f64::min);
            assert!(edge.is_finite() && edge > 1.0, "n={n}: zero edge {edge}");
            let mut ws = edge;
            while ws <= 20.0 {
                let m = mag(&f, ws);
                assert!(
                    m <= stop * 1.05,
                    "n={n}: stopband {m} at {ws} (spec {stop})"
                );
                ws += 0.05;
            }
            // Poles stable.
            for &p in f.poles() {
                assert!(p.re < 0.0, "unstable pole {p} for n={n}");
            }
        }
    }

    #[test]
    fn elliptic_edge_exactly_at_ripple_floor() {
        let (rp, rs) = (0.5, 50.0);
        let f = elliptic(5, rp, rs).unwrap();
        let floor = 10f64.powf(-rp / 20.0);
        let m = mag(&f, 1.0);
        assert!(
            (m - floor).abs() < 1e-6,
            "edge magnitude {m} vs floor {floor}"
        );
    }

    #[test]
    fn elliptic_much_sharper_than_butterworth() {
        // Same order: elliptic reaches 40 dB long before Butterworth.
        let e = elliptic(5, 0.5, 40.0).unwrap();
        let b = butterworth(5).unwrap();
        assert!(mag(&e, 1.6) < mag(&b, 1.6) / 5.0);
    }

    #[test]
    fn design_error_cases() {
        assert_eq!(butterworth(0).unwrap_err(), DesignFilterError::ZeroOrder);
        assert_eq!(
            chebyshev1(0, 1.0).unwrap_err(),
            DesignFilterError::ZeroOrder
        );
        assert!(matches!(
            chebyshev1(3, 0.0),
            Err(DesignFilterError::BadRipple { .. })
        ));
        assert!(matches!(
            elliptic(3, 1.0, 0.5),
            Err(DesignFilterError::BadRipple { .. })
        ));
        assert!(matches!(
            elliptic(3, -1.0, 40.0),
            Err(DesignFilterError::BadRipple { .. })
        ));
    }

    #[test]
    fn odd_elliptic_has_real_pole_and_unit_dc() {
        let f = elliptic(5, 0.5, 40.0).unwrap();
        assert_eq!(f.poles().len(), 5);
        let reals = f.poles().iter().filter(|p| p.im == 0.0).count();
        assert_eq!(reals, 1);
        assert!((mag(&f, 0.0) - 1.0).abs() < 1e-9);
    }
}
