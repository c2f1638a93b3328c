//! The generalized Horner scheme (Fig. 3 of the paper).
//!
//! After `n−1` unfoldings (batch size `n`), the direct unfolded equations
//! need `Θ(n²)` input-coupling products per batch. Horner's nesting
//! replaces them by the running accumulator
//!
//! ```text
//! V₀ = 0,   V_j = A·V_{j−1} + B·U_j
//! Y_j = C·A^{j−1}·S + C·V_{j−1} + D·U_j
//! S'  = A^n·S + V_n
//! ```
//!
//! so each additional unfolding costs only multiplications by `A`, `B`, `C`
//! and one vector addition (linear growth), while the *only* cross-iteration
//! cycle is the precomputed `A^n·S` — its length does not grow with `n`,
//! which is what lets the feed-forward part be pipelined arbitrarily deep
//! and the voltage driven to the technology minimum.

use lintra_dfg::{build, Dfg, DfgError, NodeId, NodeKind};
use lintra_linsys::count::{classify, CoeffClass, CLASSIFY_TOL};
use lintra_linsys::{LinsysError, StateSpace};
use lintra_matrix::Matrix;

/// The Horner-restructured form of an unfolded linear computation.
#[derive(Debug, Clone, PartialEq)]
pub struct HornerForm {
    /// Batch size `n` (unfolding factor + 1).
    pub batch: usize,
    /// Precomputed `A^n`.
    pub a_n: Matrix,
    /// Precomputed `[C·A⁰, C·A¹, …, C·A^{n−1}]`.
    pub c_powers: Vec<Matrix>,
    original: StateSpace,
}

impl HornerForm {
    /// Restructures `sys` unfolded `i` times (batch `i + 1`).
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::UnstableSystem`] when the estimated spectral
    /// radius of `A` is ≥ 1 — the Horner form precomputes `A^n` and
    /// `C·A^k`, which diverge for unstable `A` (same guardrail as
    /// [`lintra_linsys::unfold`]) — and [`LinsysError::NonFinite`] if a
    /// precomputed power still contains a NaN/∞ entry.
    pub fn new(sys: &StateSpace, unfolding: u32) -> Result<HornerForm, LinsysError> {
        let rho = sys.spectral_radius();
        if rho >= 1.0 {
            return Err(LinsysError::UnstableSystem {
                spectral_radius: rho,
            });
        }
        let n = unfolding as usize + 1;
        let r = sys.num_states();
        let mut c_powers = Vec::with_capacity(n);
        let mut power = Matrix::identity(r);
        for _ in 0..n {
            c_powers.push(sys.c() * &power);
            power = &power * sys.a();
        }
        if !power.is_finite() || c_powers.iter().any(|m| !m.is_finite()) {
            return Err(LinsysError::NonFinite { what: "A" });
        }
        Ok(HornerForm {
            batch: n,
            a_n: power,
            c_powers,
            original: sys.clone(),
        })
    }

    /// Reassembles a Horner form from precomputed parts — `a_n = A^n` and
    /// `c_powers = [C·A⁰, …, C·A^{n−1}]` with `n = c_powers.len()` — as
    /// produced by an incremental power-chain cache. Runs the same
    /// stability and finiteness guardrails as [`HornerForm::new`], so a
    /// cache-assembled form fails exactly when the from-scratch one would.
    ///
    /// # Errors
    ///
    /// [`LinsysError::UnstableSystem`] when the estimated spectral radius
    /// of `A` is ≥ 1; [`LinsysError::NonFinite`] when `a_n` or any
    /// `c_powers` entry contains a NaN/∞.
    pub fn from_parts(
        sys: &StateSpace,
        a_n: Matrix,
        c_powers: Vec<Matrix>,
    ) -> Result<HornerForm, LinsysError> {
        let rho = sys.spectral_radius();
        if rho >= 1.0 {
            return Err(LinsysError::UnstableSystem {
                spectral_radius: rho,
            });
        }
        if !a_n.is_finite() || c_powers.iter().any(|m| !m.is_finite()) {
            return Err(LinsysError::NonFinite { what: "A" });
        }
        Ok(HornerForm {
            batch: c_powers.len(),
            a_n,
            c_powers,
            original: sys.clone(),
        })
    }

    /// The original (non-unfolded) system.
    pub fn original(&self) -> &StateSpace {
        &self.original
    }

    /// Simulates per-sample inputs (length must be a multiple of the
    /// batch), following the Horner recurrences literally.
    ///
    /// # Panics
    ///
    /// Panics if the input length is not a multiple of the batch or a
    /// sample has the wrong width.
    pub fn simulate_samples(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let (p, _, r) = self.original.dims();
        assert_eq!(
            inputs.len() % self.batch,
            0,
            "input length must be a batch multiple"
        );
        let a = self.original.a();
        let b = self.original.b();
        let d = self.original.d();
        let mut s = vec![0.0_f64; r];
        let mut out = Vec::with_capacity(inputs.len());
        for chunk in inputs.chunks(self.batch) {
            let mut v = vec![0.0_f64; r];
            for (j, u) in chunk.iter().enumerate() {
                assert_eq!(u.len(), p, "input sample width");
                // Y_j = C A^{j-1} S + C V_{j-1} + D U_j
                let mut y = self.c_powers[j].mul_vec(&s);
                for (yi, ci) in y.iter_mut().zip(self.original.c().mul_vec(&v)) {
                    *yi += ci;
                }
                for (yi, di) in y.iter_mut().zip(d.mul_vec(u)) {
                    *yi += di;
                }
                out.push(y);
                // V_j = A V_{j-1} + B U_j
                let mut vn = a.mul_vec(&v);
                for (vi, bi) in vn.iter_mut().zip(b.mul_vec(u)) {
                    *vi += bi;
                }
                v = vn;
            }
            // S' = A^n S + V_n
            let mut sn = self.a_n.mul_vec(&s);
            for (si, vi) in sn.iter_mut().zip(&v) {
                *si += vi;
            }
            s = sn;
        }
        out
    }

    /// The constants multiplying state variable `j` across the whole
    /// state-dependent part (`A^n` column `j` and every `C·A^k` column
    /// `j`), excluding trivial values — the per-state MCM instances of the
    /// paper's transformation step (3).
    pub fn state_column_constants(&self, j: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let mut push = |c: f64| match classify(c, CLASSIFY_TOL) {
            CoeffClass::Zero | CoeffClass::One | CoeffClass::MinusOne => {}
            _ => out.push(c),
        };
        for r in 0..self.a_n.rows() {
            push(self.a_n[(r, j)]);
        }
        for cp in &self.c_powers {
            for q in 0..cp.rows() {
                push(cp[(q, j)]);
            }
        }
        out
    }

    /// Builds the Horner-structured dataflow graph of one batch.
    ///
    /// Inputs are labelled `(sample, channel)`; outputs likewise; states
    /// are shared across the batch. The graph is bit-true with
    /// [`HornerForm::simulate_samples`] (verified in tests).
    ///
    /// # Errors
    ///
    /// Propagates [`DfgError`] from node insertion; the finished graph is
    /// re-validated before being returned.
    pub fn to_dfg(&self) -> Result<Dfg, DfgError> {
        let (p, q, r) = self.original.dims();
        let mut g = Dfg::new();
        let mut states: Vec<NodeId> = Vec::with_capacity(r);
        for i in 0..r {
            states.push(g.push(NodeKind::StateIn { index: i }, &[])?);
        }
        let mut inputs: Vec<Vec<NodeId>> = Vec::with_capacity(self.batch);
        for s in 0..self.batch {
            let mut row = Vec::with_capacity(p);
            for ch in 0..p {
                row.push(g.push(
                    NodeKind::Input {
                        sample: s,
                        channel: ch,
                    },
                    &[],
                )?);
            }
            inputs.push(row);
        }

        // V accumulator nodes, per state entry; None while V = 0.
        let mut v: Vec<Option<NodeId>> = vec![None; r];
        #[allow(clippy::needless_range_loop)] // `j` also indexes `c_powers`
        for j in 0..self.batch {
            // Y_j rows: state part (C A^{j-1}), V part (C), input part (D).
            for row in 0..q {
                let mut terms = build::row_terms(&mut g, self.c_powers[j].row(row), &states)?;
                let v_nodes: Vec<NodeId> = v.iter().flatten().copied().collect();
                let v_coeffs: Vec<f64> = self
                    .original
                    .c()
                    .row(row)
                    .iter()
                    .zip(&v)
                    .filter(|(_, n)| n.is_some())
                    .map(|(c, _)| *c)
                    .collect();
                let vterms = build::row_terms(&mut g, &v_coeffs, &v_nodes)?;
                let dterms = build::row_terms(&mut g, self.original.d().row(row), &inputs[j])?;
                terms.extend(build::sum_to_term(&mut g, vterms)?);
                terms.extend(build::sum_to_term(&mut g, dterms)?);
                let root = build::sum_to_node(&mut g, terms)?;
                g.push(
                    NodeKind::Output {
                        sample: j,
                        channel: row,
                    },
                    &[root],
                )?;
            }
            // V_j = A V_{j-1} + B U_j.
            let mut vnext: Vec<Option<NodeId>> = Vec::with_capacity(r);
            for row in 0..r {
                let v_nodes: Vec<NodeId> = v.iter().flatten().copied().collect();
                let a_coeffs: Vec<f64> = self
                    .original
                    .a()
                    .row(row)
                    .iter()
                    .zip(&v)
                    .filter(|(_, n)| n.is_some())
                    .map(|(c, _)| *c)
                    .collect();
                let mut terms = build::row_terms(&mut g, &a_coeffs, &v_nodes)?;
                terms.extend(build::row_terms(
                    &mut g,
                    self.original.b().row(row),
                    &inputs[j],
                )?);
                vnext.push(match build::sum_to_term(&mut g, terms)? {
                    Some(t) => Some(build::term_to_node(&mut g, t)?),
                    None => None,
                });
            }
            v = vnext;
        }
        // S' = A^n S + V_n.
        for (row, vn) in v.iter().enumerate().take(r) {
            let mut terms = build::row_terms(&mut g, self.a_n.row(row), &states)?;
            if let Some(vn) = *vn {
                terms.push(build::plain_term(vn));
            }
            let root = build::sum_to_node(&mut g, terms)?;
            g.push(NodeKind::StateOut { index: row }, &[root])?;
        }
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_dfg::OpTiming;
    use lintra_linsys::unfold;
    use std::collections::HashMap;

    fn sys_mimo() -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[0.4, 0.12, 0.0], &[0.22, -0.3, 0.41], &[0.0, 0.2, 0.15]]),
            Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 1.0], &[0.25, -0.75]]),
            Matrix::from_rows(&[&[1.0, 0.0, 0.3], &[0.0, 0.45, -0.2]]),
            Matrix::from_rows(&[&[0.0, 0.1], &[0.2, 0.0]]),
        )
        .unwrap()
    }

    fn inputs(n: usize, p: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|k| (0..p).map(|c| ((k * 3 + c) as f64 * 0.7).sin()).collect())
            .collect()
    }

    #[test]
    fn horner_simulation_matches_original() {
        let sys = sys_mimo();
        let xs = inputs(24, 2);
        let want = sys.simulate(&xs).unwrap();
        for i in [0u32, 1, 2, 3, 5] {
            let h = HornerForm::new(&sys, i).unwrap();
            let take = (xs.len() / h.batch) * h.batch;
            let got = h.simulate_samples(&xs[..take]);
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                for (a, b) in g.iter().zip(w) {
                    assert!((a - b).abs() < 1e-9, "i={i} sample {k}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn horner_dfg_matches_simulation() {
        let sys = sys_mimo();
        let h = HornerForm::new(&sys, 3).unwrap();
        let g = h.to_dfg().unwrap();
        let xs = inputs(h.batch, 2);
        let want = h.simulate_samples(&xs);
        let mut m = HashMap::new();
        for (s, x) in xs.iter().enumerate() {
            for (c, &v) in x.iter().enumerate() {
                m.insert((s, c), v);
            }
        }
        let state = [0.0, 0.0, 0.0];
        let (outs, _) = g.simulate(&state, &m).unwrap();
        for (s, w) in want.iter().enumerate() {
            for (c, &wv) in w.iter().enumerate() {
                assert!((outs[&(s, c)] - wv).abs() < 1e-10, "({s},{c})");
            }
        }
    }

    #[test]
    fn horner_dfg_with_state_matches_original_over_batches() {
        let sys = sys_mimo();
        let h = HornerForm::new(&sys, 2).unwrap();
        let g = h.to_dfg().unwrap();
        let xs = inputs(12, 2);
        let want = sys.simulate(&xs).unwrap();
        let mut state = vec![0.0; 3];
        let mut got = Vec::new();
        for chunk in xs.chunks(h.batch) {
            let mut m = HashMap::new();
            for (s, x) in chunk.iter().enumerate() {
                for (c, &v) in x.iter().enumerate() {
                    m.insert((s, c), v);
                }
            }
            let (outs, next) = g.simulate(&state, &m).unwrap();
            for s in 0..h.batch {
                got.push(vec![outs[&(s, 0)], outs[&(s, 1)]]);
            }
            state = (0..3).map(|i| next[&i]).collect();
        }
        for (g, w) in got.iter().zip(&want) {
            for (a, b) in g.iter().zip(w) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn op_growth_is_linear_not_quadratic() {
        // Direct unfolding has Θ(n²) multiplications per batch; Horner is
        // linear. Compare growth between n = 4 and n = 8.
        let sys = sys_mimo();
        let direct = |i: u32| {
            lintra_dfg::build::from_unfolded(&unfold(&sys, i).unwrap())
                .unwrap()
                .op_counts()
                .muls as f64
        };
        let horner = |i: u32| {
            HornerForm::new(&sys, i)
                .unwrap()
                .to_dfg()
                .unwrap()
                .op_counts()
                .muls as f64
        };
        let d_growth = direct(7) / direct(3);
        let h_growth = horner(7) / horner(3);
        assert!(
            h_growth < d_growth,
            "horner {h_growth} vs direct {d_growth}"
        );
        // Horner growth ratio should be close to the batch ratio 8/4 = 2.
        assert!(h_growth < 2.3, "horner growth {h_growth}");
    }

    #[test]
    fn feedback_path_constant_in_unfolding() {
        let sys = sys_mimo();
        let t = OpTiming {
            t_mul: 2.0,
            t_add: 1.0,
            t_shift: 0.0,
        };
        let base = HornerForm::new(&sys, 0)
            .unwrap()
            .to_dfg()
            .unwrap()
            .feedback_critical_path(&t);
        for i in [1u32, 3, 6, 10] {
            let cp = HornerForm::new(&sys, i)
                .unwrap()
                .to_dfg()
                .unwrap()
                .feedback_critical_path(&t);
            assert!(
                cp <= base + 1.0,
                "feedback CP grew with unfolding: {cp} vs {base} at i={i}"
            );
        }
        // Meanwhile the total (pipelineable) path grows.
        let cp_big = HornerForm::new(&sys, 10)
            .unwrap()
            .to_dfg()
            .unwrap()
            .critical_path(&t);
        let cp_small = HornerForm::new(&sys, 0)
            .unwrap()
            .to_dfg()
            .unwrap()
            .critical_path(&t);
        assert!(cp_big > cp_small);
    }

    #[test]
    fn state_column_constants_collect_nontrivial_values() {
        let sys = sys_mimo();
        let h = HornerForm::new(&sys, 2).unwrap();
        for j in 0..3 {
            let consts = h.state_column_constants(j);
            // Expected count: non-trivial entries in column j of A^3 and
            // C·A^k for k = 0..2.
            let mut expected = 0;
            for r in 0..3 {
                if !matches!(
                    classify(h.a_n[(r, j)], CLASSIFY_TOL),
                    CoeffClass::Zero | CoeffClass::One | CoeffClass::MinusOne
                ) {
                    expected += 1;
                }
            }
            for cp in &h.c_powers {
                for q in 0..2 {
                    if !matches!(
                        classify(cp[(q, j)], CLASSIFY_TOL),
                        CoeffClass::Zero | CoeffClass::One | CoeffClass::MinusOne
                    ) {
                        expected += 1;
                    }
                }
            }
            assert_eq!(consts.len(), expected, "column {j}");
        }
    }
}
