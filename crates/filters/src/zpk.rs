//! Zero-pole-gain filter representation, spectral transforms, and the
//! bilinear transform.

use crate::Complex;

/// Which variable a [`Zpk`] lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Continuous time (Laplace `s`).
    Analog,
    /// Discrete time (`z`).
    Digital,
}

/// A rational filter `H = gain · Π(v − zᵢ) / Π(v − pⱼ)` in zero-pole-gain
/// form (`v` is `s` or `z` depending on [`Zpk::domain`]).
///
/// Zeros and poles are stored with both members of every conjugate pair
/// present, so expansion into real polynomials is always possible.
#[derive(Debug, Clone, PartialEq)]
pub struct Zpk {
    zeros: Vec<Complex>,
    poles: Vec<Complex>,
    gain: f64,
    domain: Domain,
}

impl Zpk {
    /// Creates an analog zero-pole-gain filter.
    pub fn analog(zeros: Vec<Complex>, poles: Vec<Complex>, gain: f64) -> Zpk {
        Zpk {
            zeros,
            poles,
            gain,
            domain: Domain::Analog,
        }
    }

    /// Creates a digital zero-pole-gain filter.
    pub fn digital(zeros: Vec<Complex>, poles: Vec<Complex>, gain: f64) -> Zpk {
        Zpk {
            zeros,
            poles,
            gain,
            domain: Domain::Digital,
        }
    }

    /// The zeros.
    pub fn zeros(&self) -> &[Complex] {
        &self.zeros
    }

    /// The poles.
    pub fn poles(&self) -> &[Complex] {
        &self.poles
    }

    /// The gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Which domain the filter lives in.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Filter order (number of poles).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// Evaluates `H` at an arbitrary complex point.
    pub fn eval(&self, v: Complex) -> Complex {
        let num = self
            .zeros
            .iter()
            .fold(Complex::from(self.gain), |acc, &z| acc * (v - z));
        let den = self
            .poles
            .iter()
            .fold(Complex::ONE, |acc, &p| acc * (v - p));
        num / den
    }

    /// Frequency response: at `jω` for analog filters, at `e^{jω}` for
    /// digital ones (`ω` in rad/s or rad/sample respectively).
    pub fn freq_response(&self, omega: f64) -> Complex {
        match self.domain {
            Domain::Analog => self.eval(Complex::new(0.0, omega)),
            Domain::Digital => self.eval(Complex::from_polar(1.0, omega)),
        }
    }

    fn assert_analog(&self, what: &str) {
        assert_eq!(
            self.domain,
            Domain::Analog,
            "{what} applies to analog filters only"
        );
    }

    /// `Π(−zᵢ)/Π(−pⱼ)` as a real number (imaginary residue asserted small);
    /// the band-stop transform's gain correction.
    fn reflection_ratio(&self) -> f64 {
        let num = self.zeros.iter().fold(Complex::ONE, |acc, &z| acc * (-z));
        let den = self.poles.iter().fold(Complex::ONE, |acc, &p| acc * (-p));
        let r = num / den;
        assert!(
            r.im.abs() <= 1e-9 * (1.0 + r.re.abs()),
            "pole/zero set not conjugate-closed: ratio {r}"
        );
        r.re
    }

    /// Low-pass prototype (cutoff 1 rad/s) → low-pass with cutoff `w0`
    /// (`s ← s/ω₀`).
    ///
    /// # Panics
    ///
    /// Panics when applied to a digital filter or `w0 <= 0`.
    pub fn to_lowpass(&self, w0: f64) -> Zpk {
        self.assert_analog("to_lowpass");
        assert!(w0 > 0.0, "cutoff must be positive");
        let relative_degree = self.poles.len() - self.zeros.len();
        Zpk {
            zeros: self.zeros.iter().map(|&z| z.scale(w0)).collect(),
            poles: self.poles.iter().map(|&p| p.scale(w0)).collect(),
            gain: self.gain * w0.powi(relative_degree as i32),
            domain: Domain::Analog,
        }
    }

    /// Low-pass prototype → band-pass with center `w0` and bandwidth `bw`
    /// (`s ← (s² + ω₀²)/(bw·s)`); doubles the order.
    ///
    /// # Panics
    ///
    /// Panics when applied to a digital filter or on non-positive
    /// parameters.
    pub fn to_bandpass(&self, w0: f64, bw: f64) -> Zpk {
        self.assert_analog("to_bandpass");
        assert!(
            w0 > 0.0 && bw > 0.0,
            "center and bandwidth must be positive"
        );
        let relative_degree = self.poles.len() - self.zeros.len();
        let split = |a: Complex| -> [Complex; 2] {
            // Roots of s^2 - a*bw*s + w0^2.
            let half = a.scale(bw / 2.0);
            let disc = (half * half - Complex::from(w0 * w0)).sqrt();
            [half + disc, half - disc]
        };
        let mut zeros: Vec<Complex> = self.zeros.iter().flat_map(|&z| split(z)).collect();
        zeros.extend(std::iter::repeat_n(Complex::ZERO, relative_degree));
        Zpk {
            zeros,
            poles: self.poles.iter().flat_map(|&p| split(p)).collect(),
            gain: self.gain * bw.powi(relative_degree as i32),
            domain: Domain::Analog,
        }
    }

    /// Low-pass prototype → band-stop with center `w0` and bandwidth `bw`
    /// (`s ← bw·s/(s² + ω₀²)`); doubles the order.
    ///
    /// # Panics
    ///
    /// Panics when applied to a digital filter or on non-positive
    /// parameters.
    pub fn to_bandstop(&self, w0: f64, bw: f64) -> Zpk {
        self.assert_analog("to_bandstop");
        assert!(
            w0 > 0.0 && bw > 0.0,
            "center and bandwidth must be positive"
        );
        let relative_degree = self.poles.len() - self.zeros.len();
        let split = |a: Complex| -> [Complex; 2] {
            // Roots of s^2 - (bw/a)*s + w0^2.
            let half = Complex::from(bw / 2.0) / a;
            let disc = (half * half - Complex::from(w0 * w0)).sqrt();
            [half + disc, half - disc]
        };
        let gain = self.gain * self.reflection_ratio();
        let mut zeros: Vec<Complex> = self.zeros.iter().flat_map(|&z| split(z)).collect();
        for _ in 0..relative_degree {
            zeros.push(Complex::new(0.0, w0));
            zeros.push(Complex::new(0.0, -w0));
        }
        Zpk {
            zeros,
            poles: self.poles.iter().flat_map(|&p| split(p)).collect(),
            gain,
            domain: Domain::Analog,
        }
    }

    /// Bilinear transform `s = 2·fs·(z−1)/(z+1)` to discrete time at sample
    /// rate `fs`; adds the usual zeros at `z = −1`.
    ///
    /// # Panics
    ///
    /// Panics when applied to a digital filter or `fs <= 0`.
    pub fn bilinear(&self, fs: f64) -> Zpk {
        self.assert_analog("bilinear");
        assert!(fs > 0.0, "sample rate must be positive");
        let c = Complex::from(2.0 * fs);
        let map = |a: Complex| (c + a) / (c - a);
        let relative_degree = self.poles.len() - self.zeros.len();
        let mut zeros: Vec<Complex> = self.zeros.iter().map(|&z| map(z)).collect();
        zeros.extend(std::iter::repeat_n(Complex::from(-1.0), relative_degree));
        let poles: Vec<Complex> = self.poles.iter().map(|&p| map(p)).collect();
        // Gain factor Π(c − z)/Π(c − p) — real for conjugate-closed sets.
        let num = self
            .zeros
            .iter()
            .fold(Complex::ONE, |acc, &z| acc * (c - z));
        let den = self
            .poles
            .iter()
            .fold(Complex::ONE, |acc, &p| acc * (c - p));
        let factor = num / den;
        assert!(
            factor.im.abs() <= 1e-9 * (1.0 + factor.re.abs()),
            "pole/zero set not conjugate-closed under bilinear"
        );
        Zpk {
            zeros,
            poles,
            gain: self.gain * factor.re,
            domain: Domain::Digital,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple 2nd-order analog low-pass prototype (Butterworth n=2).
    fn proto2() -> Zpk {
        let p = Complex::from_polar(1.0, 3.0 * std::f64::consts::FRAC_PI_4);
        Zpk::analog(vec![], vec![p, p.conj()], 1.0)
    }

    /// A prototype with finite zeros (elliptic-like) for transform tests.
    fn proto_with_zeros() -> Zpk {
        let p = Complex::new(-0.5, 0.7);
        let z = Complex::new(0.0, 2.0);
        Zpk::analog(vec![z, z.conj()], vec![p, p.conj()], 0.3)
    }

    #[test]
    fn eval_matches_definition() {
        let f = proto_with_zeros();
        let s = Complex::new(0.2, 1.3);
        let manual = Complex::from(0.3) * (s - f.zeros()[0]) * (s - f.zeros()[1])
            / ((s - f.poles()[0]) * (s - f.poles()[1]));
        assert!(f.eval(s).approx_eq(manual, 1e-12));
    }

    #[test]
    fn lowpass_transform_identity() {
        // H_lp(jw) == H_proto(j w/w0)
        let f = proto_with_zeros();
        let g = f.to_lowpass(3.0);
        for &w in &[0.1, 1.0, 2.5, 7.0] {
            let lhs = g.freq_response(w);
            let rhs = f.freq_response(w / 3.0);
            assert!(lhs.approx_eq(rhs, 1e-9 * (1.0 + rhs.norm())), "w={w}");
        }
    }

    #[test]
    fn bandpass_transform_identity() {
        let f = proto_with_zeros();
        let (w0, bw) = (2.0, 0.5);
        let g = f.to_bandpass(w0, bw);
        assert_eq!(g.order(), 2 * f.order());
        for &w in &[0.5, 1.5, 2.0, 3.0, 8.0] {
            let s = Complex::new(0.0, w);
            let mapped = (s * s + Complex::from(w0 * w0)) / (s.scale(bw));
            let lhs = g.freq_response(w);
            let rhs = f.eval(mapped);
            assert!(
                lhs.approx_eq(rhs, 1e-8 * (1.0 + rhs.norm())),
                "w={w}: {lhs} vs {rhs}"
            );
        }
        // Center frequency maps to the prototype's DC.
        let center = g.freq_response(w0);
        let dc = f.freq_response(0.0);
        assert!(center.approx_eq(dc, 1e-8));
    }

    #[test]
    fn bandstop_transform_identity() {
        let f = proto2();
        let (w0, bw) = (1.5, 0.4);
        let g = f.to_bandstop(w0, bw);
        assert_eq!(g.order(), 2 * f.order());
        for &w in &[0.2, 1.0, 1.4, 2.0, 6.0] {
            let s = Complex::new(0.0, w);
            let mapped = s.scale(bw) / (s * s + Complex::from(w0 * w0));
            let lhs = g.freq_response(w);
            let rhs = f.eval(mapped);
            assert!(
                lhs.approx_eq(rhs, 1e-8 * (1.0 + rhs.norm())),
                "w={w}: {lhs} vs {rhs}"
            );
        }
        // Deep notch at the center.
        assert!(g.freq_response(w0).norm() < 1e-9);
    }

    #[test]
    fn bilinear_preserves_dc_and_maps_stably() {
        let f = proto2().to_lowpass(0.2 * std::f64::consts::PI);
        let g = f.bilinear(1.0);
        assert_eq!(g.domain(), Domain::Digital);
        // DC: z=1 maps to s=0.
        let dc_d = g.freq_response(0.0);
        let dc_a = f.freq_response(0.0);
        assert!(dc_d.approx_eq(dc_a, 1e-9));
        // Stable poles stay inside the unit circle.
        for &p in g.poles() {
            assert!(p.norm() < 1.0, "unstable digital pole {p}");
        }
        // Relative-degree zeros land at z = -1 (Nyquist null).
        assert!(g.freq_response(std::f64::consts::PI).norm() < 1e-12);
    }

    #[test]
    fn bilinear_frequency_warping_identity() {
        // H_d(e^{jw}) == H_a(j * 2 fs tan(w/2)).
        let f = proto_with_zeros();
        let fs = 2.0;
        let g = f.bilinear(fs);
        for &w in &[0.1, 0.5, 1.0, 2.0] {
            let lhs = g.freq_response(w);
            let rhs = f.freq_response(2.0 * fs * (w / 2.0).tan());
            assert!(lhs.approx_eq(rhs, 1e-9 * (1.0 + rhs.norm())), "w={w}");
        }
    }

    #[test]
    #[should_panic(expected = "analog filters only")]
    fn digital_rejects_analog_transform() {
        let g = proto2().to_lowpass(1.0).bilinear(1.0);
        let _ = g.to_lowpass(2.0);
    }
}
