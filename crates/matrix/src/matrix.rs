use crate::{stats, MatrixError};
use std::cell::RefCell;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Flop threshold below which [`Matrix::try_mul_into`] uses the plain
/// `ikj` loop: for tiny operands the transpose pass costs more than the
/// locality it buys.
const MUL_SMALL_FLOPS: usize = 4096;

/// Column-tile width of the blocked kernel: one tile of transposed-RHS
/// rows (`MUL_BLOCK × k` doubles) stays cache-resident while every LHS
/// row streams past it once.
const MUL_BLOCK: usize = 64;

thread_local! {
    /// Transposed-RHS scratch reused by every [`Matrix::try_mul_into`]
    /// call on this thread, so steady-state products allocate nothing.
    static RHS_T: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// An owned, row-major, dense `f64` matrix.
///
/// `Matrix` is the coefficient container used throughout the workspace for
/// the state-space matrices `A`, `B`, `C`, `D` and their unfolded block
/// forms. Shapes are validated eagerly; arithmetic on mismatched shapes
/// panics (the fallible entry points live in [`crate::lu`] where numerical
/// failure is a real possibility).
///
/// # Examples
///
/// ```
/// use lintra_matrix::Matrix;
///
/// let i = Matrix::identity(3);
/// let z = Matrix::zeros(3, 3);
/// assert_eq!(&i + &z, i);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, &v)| (k / cols, k % cols, v))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols,
            "vector length {} != cols {}",
            v.len(),
            self.cols
        );
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Raises a square matrix to a non-negative integer power by repeated
    /// squaring.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn pow(&self, mut e: u32) -> Matrix {
        assert!(
            self.is_square(),
            "pow requires a square matrix, got {:?}",
            self.shape()
        );
        let mut base = self.clone();
        let mut acc = Matrix::identity(self.rows);
        while e > 0 {
            if e & 1 == 1 {
                acc = &acc * &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Extracts the sub-matrix of rows `r0..r0+nr` and columns `c0..c0+nc`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_block out of bounds"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Maximum absolute entry (`max |a_ij|`); 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` when every entry is finite (no NaN or ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// NaN/Inf sentinel: reports [`MatrixError::NonFinite`] (naming the
    /// operation for diagnostics) if any entry is NaN or infinite.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::NonFinite`] when a non-finite entry exists.
    pub fn check_finite(&self, op: &'static str) -> Result<(), crate::MatrixError> {
        if self.is_finite() {
            Ok(())
        } else {
            Err(crate::MatrixError::NonFinite { op })
        }
    }

    /// Fallible matrix product, reporting shape mismatches as an error
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn try_mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        self.count_product_mults(rhs.cols);
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Destination-passing matrix product: writes `self * rhs` into
    /// `out`, reusing `out`'s backing storage and a thread-local
    /// transposed copy of `rhs`, so steady-state callers allocate
    /// nothing. Large products run a cache-blocked, transposed-RHS
    /// kernel (contiguous dot products, one register accumulator per
    /// output entry); tiny ones keep the plain `ikj` loop.
    ///
    /// The result is **bit-identical** to [`Matrix::try_mul`]: each
    /// output entry accumulates over `k` in the same ascending order with
    /// the same exact-zero skip, so the sequence of f64 operations per
    /// entry is the naive kernel's. The differential tests assert
    /// `to_bits` equality, never a tolerance.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::ShapeMismatch`] when
    /// `self.cols() != rhs.rows()`; `out` is left untouched in that case.
    pub fn try_mul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, inner, n) = (self.rows, self.cols, rhs.cols);
        out.reset_zeros(m, n);
        if m == 0 || n == 0 || inner == 0 {
            return Ok(());
        }
        self.count_product_mults(n);
        if m * inner * n <= MUL_SMALL_FLOPS {
            // The `try_mul` loop verbatim, minus the fresh allocation.
            for (arow, orow) in self
                .data
                .chunks_exact(inner)
                .zip(out.data.chunks_exact_mut(n))
            {
                for (a, brow) in arow.iter().zip(rhs.data.chunks_exact(n)) {
                    if *a == 0.0 {
                        continue;
                    }
                    for (o, b) in orow.iter_mut().zip(brow) {
                        *o += a * b;
                    }
                }
            }
            return Ok(());
        }
        RHS_T.with(|cell| {
            let mut bt = cell.borrow_mut();
            if !bt.is_empty() && bt.capacity() >= inner * n {
                stats::count_allocs_saved(1);
            }
            bt.clear();
            bt.resize(inner * n, 0.0);
            for (k, brow) in rhs.data.chunks_exact(n).enumerate() {
                for (j, &v) in brow.iter().enumerate() {
                    bt[j * inner + k] = v;
                }
            }
            let mut jb = 0;
            while jb < n {
                let je = (jb + MUL_BLOCK).min(n);
                for (arow, orow) in self
                    .data
                    .chunks_exact(inner)
                    .zip(out.data.chunks_exact_mut(n))
                {
                    for j in jb..je {
                        let btj = &bt[j * inner..(j + 1) * inner];
                        let mut acc = 0.0;
                        for (a, b) in arow.iter().zip(btj) {
                            if *a == 0.0 {
                                continue;
                            }
                            acc += a * b;
                        }
                        orow[j] = acc;
                    }
                }
                jb = je;
            }
        });
        Ok(())
    }

    /// Reshapes `self` in place to an all-zero `rows × cols` matrix,
    /// reusing the backing storage when its capacity suffices.
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        if rows * cols > 0 && self.data.capacity() >= rows * cols {
            stats::count_allocs_saved(1);
        }
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Destination-passing [`Matrix::scale`]: writes `self · s` into
    /// `out`, reusing its storage. Bit-identical to `scale`.
    pub fn scale_into(&self, s: f64, out: &mut Matrix) {
        if !self.data.is_empty() && out.data.capacity() >= self.data.len() {
            stats::count_allocs_saved(1);
        }
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|x| x * s));
    }

    /// One counter update per product: the kernels skip exact-zero LHS
    /// entries, so the multiply count is `nnz(self) · rhs_cols`.
    fn count_product_mults(&self, rhs_cols: usize) {
        let nnz = self.data.iter().filter(|&&a| a != 0.0).count();
        stats::count_mults(nnz as u64 * rhs_cols as u64);
    }

    /// Returns `true` when every entry of `self - other` has absolute value
    /// at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Fraction of exactly-zero entries, in `[0, 1]`; `0` for empty matrices.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&x| x == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix — the natural starting destination for
    /// the `*_into` kernels.
    fn default() -> Matrix {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt, $assign:tt, $name:literal) => {
        impl $trait for &Matrix {
            type Output = Matrix;

            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("shape mismatch in ", $name)
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        // By value the owned left-hand buffer is updated in place and
        // moved out, so `a + b` costs zero allocations instead of one.
        impl $trait<&Matrix> for Matrix {
            type Output = Matrix;

            fn $method(mut self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("shape mismatch in ", $name)
                );
                for (a, b) in self.data.iter_mut().zip(&rhs.data) {
                    *a $assign *b;
                }
                stats::count_allocs_saved(1);
                self
            }
        }

        impl $trait for Matrix {
            type Output = Matrix;

            fn $method(self, rhs: Matrix) -> Matrix {
                self.$method(&rhs)
            }
        }
    };
}

elementwise!(Add, add, +, +=, "add");
elementwise!(Sub, sub, -, -=, "sub");

macro_rules! elementwise_assign {
    ($trait:ident, $method:ident, $assign:tt, $name:literal) => {
        impl $trait<&Matrix> for Matrix {
            fn $method(&mut self, rhs: &Matrix) {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("shape mismatch in ", $name)
                );
                for (a, b) in self.data.iter_mut().zip(&rhs.data) {
                    *a $assign *b;
                }
                stats::count_allocs_saved(1);
            }
        }
    };
}

elementwise_assign!(AddAssign, add_assign, +=, "add_assign");
elementwise_assign!(SubAssign, sub_assign, -=, "sub_assign");

impl Mul for &Matrix {
    type Output = Matrix;

    /// Runs the blocked destination-passing kernel
    /// ([`Matrix::try_mul_into`]), which is differentially tested
    /// bit-identical to [`Matrix::try_mul`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch; use [`Matrix::try_mul`] for a
    /// fallible variant.
    fn mul(self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.try_mul_into(rhs, &mut out)
            .expect("matrix product shape mismatch");
        out
    }
}

impl Mul for Matrix {
    type Output = Matrix;

    fn mul(self, rhs: Matrix) -> Matrix {
        &self * &rhs
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Neg for Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn product_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn try_mul_reports_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.try_mul(&b).unwrap_err();
        assert_eq!(
            err,
            MatrixError::ShapeMismatch {
                op: "mul",
                lhs: (2, 3),
                rhs: (2, 3)
            }
        );
    }

    #[test]
    fn identity_is_multiplicative_neutral() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-0.5, 1.2]]);
        assert_eq!(a.pow(0), Matrix::identity(2));
        assert_eq!(a.pow(1), a);
        let mut acc = a.clone();
        for e in 2..=6 {
            acc = &acc * &a;
            assert!(a.pow(e).approx_eq(&acc, 1e-12), "pow({e}) mismatch");
        }
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 4.0]]);
        let v = vec![2.0, 1.0, -1.0];
        assert_eq!(a.mul_vec(&v), vec![1.0, -5.0]);
    }

    #[test]
    fn block_extraction_and_insertion() {
        let mut m = Matrix::zeros(4, 4);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.set_block(1, 2, &b);
        assert_eq!(m.block(1, 2, 2, 2), b);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 3)], 4.0);
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        assert_eq!(m.sparsity(), 0.75);
        assert_eq!(Matrix::identity(4).sparsity(), 0.75);
    }

    #[test]
    fn scale_and_neg() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(m.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        assert_eq!(-&m, Matrix::from_rows(&[&[-1.0, 2.0]]));
    }

    #[test]
    fn add_sub_inverse() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn from_diag_layout() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d.shape(), (3, 3));
    }

    #[test]
    fn entries_iterates_row_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let e: Vec<_> = m.entries().collect();
        assert_eq!(e, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)]);
    }

    #[test]
    fn max_abs_empty_and_filled() {
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
        let m = Matrix::from_rows(&[&[-3.0, 2.0]]);
        assert_eq!(m.max_abs(), 3.0);
    }

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Random matrix with exact zeros (≈20%) and negative zeros (≈10%)
    /// mixed in, so the kernels' zero-skip and sign-of-zero paths are
    /// both exercised.
    fn random_matrix(rng: &mut crate::rng::SplitMix64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.next_below(10) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => rng.range_f64(-2.0, 2.0),
        })
    }

    #[test]
    fn mul_into_is_bit_identical_to_try_mul() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x6d75_6c69);
        let mut out = Matrix::default(); // reused destination across cases
        for case in 0..60 {
            let m = rng.next_below(40) as usize + 1;
            let k = rng.next_below(40) as usize + 1;
            let n = rng.next_below(90) as usize + 1; // crosses the 64-col tile
            let a = random_matrix(&mut rng, m, k);
            let b = random_matrix(&mut rng, k, n);
            let want = a.try_mul(&b).unwrap();
            a.try_mul_into(&b, &mut out).unwrap();
            assert!(bits_eq(&want, &out), "case {case}: {m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn mul_into_handles_degenerate_shapes() {
        let mut out = Matrix::default();
        for (m, k, n) in [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, k);
            let b = Matrix::zeros(k, n);
            let want = a.try_mul(&b).unwrap();
            a.try_mul_into(&b, &mut out).unwrap();
            assert_eq!(out, want, "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn mul_into_leaves_out_untouched_on_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let sentinel = Matrix::from_rows(&[&[7.0, 8.0]]);
        let mut out = sentinel.clone();
        assert_eq!(
            a.try_mul_into(&b, &mut out).unwrap_err(),
            MatrixError::ShapeMismatch {
                op: "mul",
                lhs: (2, 3),
                rhs: (2, 3)
            }
        );
        assert_eq!(out, sentinel);
    }

    #[test]
    fn by_value_add_sub_match_by_ref() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x6164_6473);
        for _ in 0..20 {
            let m = rng.next_below(12) as usize + 1;
            let n = rng.next_below(12) as usize + 1;
            let a = random_matrix(&mut rng, m, n);
            let b = random_matrix(&mut rng, m, n);
            assert!(bits_eq(&(&a + &b), &(a.clone() + b.clone())));
            assert!(bits_eq(&(&a + &b), &(a.clone() + &b)));
            assert!(bits_eq(&(&a - &b), &(a.clone() - b.clone())));
            assert!(bits_eq(&(&a - &b), &(a.clone() - &b)));
            let mut acc = a.clone();
            acc += &b;
            assert!(bits_eq(&(&a + &b), &acc));
            let mut acc = a.clone();
            acc -= &b;
            assert!(bits_eq(&(&a - &b), &acc));
        }
    }

    #[test]
    fn scale_into_matches_scale() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[0.0, 0.5]]);
        let mut out = Matrix::default();
        m.scale_into(0.3, &mut out);
        assert!(bits_eq(&out, &m.scale(0.3)));
        m.scale_into(-1.5, &mut out); // reuse the same destination
        assert!(bits_eq(&out, &m.scale(-1.5)));
    }

    #[test]
    fn kernel_counters_track_mults_and_reuse() {
        // Counters are process-global and other tests run concurrently,
        // so assert monotone lower bounds over a local snapshot delta.
        let before = crate::kernel_counters();
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 3.0]]);
        let b = Matrix::identity(2);
        let mut out = Matrix::default();
        a.try_mul_into(&b, &mut out).unwrap(); // 3 nonzeros * 2 cols
        a.try_mul_into(&b, &mut out).unwrap(); // destination reused
        let d = crate::kernel_counters().since(before);
        assert!(d.mults >= 12, "mults delta {} too small", d.mults);
        assert!(d.allocs_saved >= 1, "no reuse recorded");
    }
}
