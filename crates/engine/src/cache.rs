//! Incremental caches for sweep evaluation.
//!
//! Every sweep the paper runs (unfolding factor `i`, processor count `N`,
//! the 8-design suite) re-derives the same intermediates: the powers
//! `A^k`, the input couplings `A^k·B`, the output couplings `C·A^k`, the
//! Toeplitz sub-diagonal blocks `C·A^k·B` of `D_u`, and (for the ASIC
//! path) the Horner precomputations `A^n` / `[C·A^0 … C·A^{n−1}]`.
//! This module memoizes them *without changing a single bit* of any
//! result: each cached value is produced by exactly the expression the
//! from-scratch code uses — the same operand matrices, multiplied in the
//! same order by the same kernel — so reuse is bit-identical, not merely
//! tolerance-equal. The differential and property tests assert `==` on
//! the produced systems, never `approx_eq`.
//!
//! Cache-key discipline: a [`SweepCache`] is keyed by *owning* its
//! [`StateSpace`] (one cache per design), so there is no hash collision
//! to reason about.

use lintra_linsys::{LinsysError, StateSpace, UnfoldedSystem};
use lintra_matrix::Matrix;
use lintra_transform::horner::HornerForm;

/// Hit/miss counters for a cache. A "hit" is one matrix product that was
/// *not* recomputed thanks to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Products served from the cache.
    pub hits: u64,
    /// Products actually computed.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn absorb(&mut self, required: u64, computed: u64) {
        self.hits += required - computed;
        self.misses += computed;
    }

    /// Counters accumulated since an `earlier` snapshot of the same
    /// cache — the per-call increment of a long-lived cache. Saturating,
    /// so a cache reset between snapshots reads as zero rather than
    /// wrapping.
    #[must_use]
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
        }
    }
}

/// Incremental unfolding: stepping `i → i+1` reuses every block computed
/// for `i` and adds only the new power, coupling column/row, and Toeplitz
/// sub-diagonal.
///
/// `unfolded(i)` is bit-identical to [`lintra_linsys::unfold`]`(sys, i)`:
/// both build `A^k` by the same left-to-right product chain and every
/// block from the same operand expressions, so the assembled
/// [`UnfoldedSystem`]s compare `==`.
#[derive(Debug, Clone)]
pub struct SweepCache {
    sys: StateSpace,
    rho: f64,
    /// `powers[k] = A^k`, grown on demand.
    powers: Vec<Matrix>,
    /// `ab[k] = A^k · B` — columns of `B_u`.
    ab: Vec<Matrix>,
    /// `ca[k] = C · A^k` — rows of `C_u`.
    ca: Vec<Matrix>,
    /// `cab[k] = (C · A^k) · B` — the `D_u` sub-diagonal at offset `k+1`.
    cab: Vec<Matrix>,
    stats: CacheStats,
}

impl SweepCache {
    /// A cache dedicated to `sys`. The spectral radius is computed once
    /// here and reused by every subsequent call.
    pub fn new(sys: &StateSpace) -> SweepCache {
        SweepCache {
            rho: sys.spectral_radius(),
            sys: sys.clone(),
            powers: vec![Matrix::identity(sys.num_states())],
            ab: Vec::new(),
            ca: Vec::new(),
            cab: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The design this cache serves.
    pub fn sys(&self) -> &StateSpace {
        &self.sys
    }

    /// Cached spectral-radius estimate of `A`.
    pub fn spectral_radius(&self) -> f64 {
        self.rho
    }

    /// Hit/miss counters (one unit = one matrix product).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Grows `powers` to hold `A^0..=A^n`; returns the number computed.
    fn ensure_powers(&mut self, n: usize) -> u64 {
        let mut computed = 0;
        for k in self.powers.len()..=n {
            self.powers.push(&self.powers[k - 1] * self.sys.a());
            computed += 1;
        }
        computed
    }

    /// Unfolds the design `i` times, reusing all previously computed
    /// blocks. Bit-identical to [`lintra_linsys::unfold`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`lintra_linsys::unfold`]:
    /// [`LinsysError::UnstableSystem`] when `ρ(A) ≥ 1`, and
    /// [`LinsysError::NonFinite`] if an assembled block fails the NaN/∞
    /// sentinel in [`StateSpace::new`].
    pub fn unfolded(&mut self, i: u32) -> Result<UnfoldedSystem, LinsysError> {
        if self.rho >= 1.0 {
            return Err(LinsysError::UnstableSystem {
                spectral_radius: self.rho,
            });
        }
        let (p, q, r) = self.sys.dims();
        let n = i as usize + 1;

        // Products required by a from-scratch unfold at this i: n powers
        // (A^1..A^n), n input couplings, n output couplings, and n−1
        // two-product sub-diagonals.
        let required = (n as u64) * 3 + 2 * (n as u64 - 1);
        let mut computed = self.ensure_powers(n);
        for k in self.ab.len()..n {
            self.ab.push(&self.powers[k] * self.sys.b());
            computed += 1;
        }
        for j in self.ca.len()..n {
            self.ca.push(self.sys.c() * &self.powers[j]);
            computed += 1;
        }
        for m in self.cab.len()..n.saturating_sub(1) {
            // Same value chain as `&(sys.c() * &powers[m]) * sys.b()`:
            // `ca[m]` holds the bit-identical inner product already, so
            // only the outer product is computed here — the inner one is
            // an honest cache hit even on a cold chain.
            self.cab.push(&self.ca[m] * self.sys.b());
            computed += 1;
        }
        self.stats.absorb(required, computed);

        let a_u = self.powers[n].clone();

        // B' = [A^i B | ... | A^0 B]
        let mut b_u = Matrix::zeros(r, n * p);
        for k in 0..n {
            b_u.set_block(0, k * p, &self.ab[n - 1 - k]);
        }

        // C' = [C A^0; C A^1; ...; C A^i]
        let mut c_u = Matrix::zeros(n * q, r);
        for (j, blk) in self.ca.iter().enumerate().take(n) {
            c_u.set_block(j * q, 0, blk);
        }

        // D' block lower-triangular Toeplitz.
        let mut d_u = Matrix::zeros(n * q, n * p);
        for j in 0..n {
            for k in 0..=j {
                if j == k {
                    d_u.set_block(j * q, k * p, self.sys.d());
                } else {
                    d_u.set_block(j * q, k * p, &self.cab[j - k - 1]);
                }
            }
        }

        let system = StateSpace::new(a_u, b_u, c_u, d_u)?;
        Ok(UnfoldedSystem {
            system,
            unfolding: i,
            original_dims: (p, q, r),
        })
    }

    /// The Horner restructuring of the design at `unfolding`, assembled
    /// from the cached power chain. Bit-identical to
    /// [`HornerForm::new`]`(sys, unfolding)`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`HornerForm::new`]:
    /// [`LinsysError::UnstableSystem`] and [`LinsysError::NonFinite`].
    pub fn horner(&mut self, unfolding: u32) -> Result<HornerForm, LinsysError> {
        if self.rho >= 1.0 {
            return Err(LinsysError::UnstableSystem {
                spectral_radius: self.rho,
            });
        }
        let n = unfolding as usize + 1;
        // HornerForm::new computes n C·A^k products and n A-multiplies.
        let required = 2 * n as u64;
        let mut computed = self.ensure_powers(n);
        for j in self.ca.len()..n {
            self.ca.push(self.sys.c() * &self.powers[j]);
            computed += 1;
        }
        self.stats.absorb(required, computed);
        HornerForm::from_parts(&self.sys, self.powers[n].clone(), self.ca[..n].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lintra_linsys::unfold;

    fn sys_mimo() -> StateSpace {
        StateSpace::new(
            Matrix::from_rows(&[&[0.4, 0.12, 0.0], &[0.22, -0.3, 0.41], &[0.0, 0.2, 0.15]]),
            Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 1.0], &[0.25, -0.75]]),
            Matrix::from_rows(&[&[1.0, 0.0, 0.3], &[0.0, 0.45, -0.2]]),
            Matrix::from_rows(&[&[0.0, 0.1], &[0.2, 0.0]]),
        )
        .unwrap()
    }

    #[test]
    fn incremental_unfold_is_bit_identical_ascending() {
        let sys = sys_mimo();
        let mut cache = SweepCache::new(&sys);
        for i in 0..10u32 {
            let want = unfold(&sys, i).unwrap();
            let got = cache.unfolded(i).unwrap();
            assert_eq!(got, want, "i = {i}");
        }
    }

    #[test]
    fn incremental_unfold_is_bit_identical_any_order() {
        let sys = sys_mimo();
        let mut cache = SweepCache::new(&sys);
        for i in [7u32, 0, 3, 9, 3, 1] {
            assert_eq!(
                cache.unfolded(i).unwrap(),
                unfold(&sys, i).unwrap(),
                "i = {i}"
            );
        }
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let mut cache = SweepCache::new(&sys_mimo());
        cache.unfolded(5).unwrap();
        let after_first = cache.stats();
        // Even a cold unfold reuses the cached `C·A^k` inside each of the
        // n−1 sub-diagonals, where from-scratch recomputes it.
        assert_eq!(after_first.hits, 5, "cold cache hits only via C·A^k");
        cache.unfolded(5).unwrap();
        let after_second = cache.stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "warm repeat computes nothing"
        );
        assert!(after_second.hits > 0);
        assert!(cache.stats().hit_rate() > 0.4);
    }

    #[test]
    fn stepping_up_computes_only_the_increment() {
        let mut cache = SweepCache::new(&sys_mimo());
        cache.unfolded(6).unwrap();
        let before = cache.stats().misses;
        cache.unfolded(7).unwrap();
        // i=7 adds one power, one A^kB, one C·A^k, and one sub-diagonal
        // outer product (its inner `C·A^k` is served from the cache).
        assert_eq!(cache.stats().misses - before, 4);
    }

    #[test]
    fn unstable_design_fails_identically() {
        let sys = StateSpace::new(
            Matrix::from_diag(&[1.5, 0.2]),
            Matrix::from_rows(&[&[1.0], &[1.0]]),
            Matrix::from_rows(&[&[1.0, 1.0]]),
            Matrix::from_rows(&[&[0.0]]),
        )
        .unwrap();
        let mut cache = SweepCache::new(&sys);
        assert_eq!(cache.unfolded(3).unwrap_err(), unfold(&sys, 3).unwrap_err());
    }

    #[test]
    fn cached_horner_is_bit_identical() {
        let sys = sys_mimo();
        let mut cache = SweepCache::new(&sys);
        for i in [0u32, 4, 2, 8] {
            let want = HornerForm::new(&sys, i).unwrap();
            let got = cache.horner(i).unwrap();
            assert_eq!(got.batch, want.batch, "i = {i}");
            assert_eq!(got.a_n, want.a_n, "i = {i}");
            assert_eq!(got.c_powers, want.c_powers, "i = {i}");
            assert_eq!(got.original(), want.original(), "i = {i}");
        }
    }

    #[test]
    fn horner_and_unfold_share_the_power_chain() {
        let mut cache = SweepCache::new(&sys_mimo());
        cache.unfolded(8).unwrap();
        let before = cache.stats().misses;
        cache.horner(8).unwrap();
        // All 9 powers and 9 C·A^k rows were already cached.
        assert_eq!(cache.stats().misses, before);
    }
}
