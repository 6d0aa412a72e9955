//! Sparse approximate inverse of a Cholesky factor — **Algorithm 1** of
//! Liu & Yu, DAC 2022.
//!
//! Let `Z = L⁻¹ = [z₁ … zₙ]`. The paper's two structural observations
//! (Propositions 1–2) are:
//!
//! 1. for an SDD matrix, `L` has positive diagonal and non-positive
//!    off-diagonal entries, hence `Z` is lower triangular with
//!    **non-negative** entries;
//! 2. the columns obey the recurrence
//!    `z_j = (1/L_jj)·e_j + Σ_{i>j, L_ij≠0} (−L_ij/L_jj)·z_i`.
//!
//! Processing columns back to front and *pruning* each computed column to
//! its dominant entries yields a sparse `Z̃ ≈ L⁻¹` with `O(n log n)`
//! nonzeros in practice (δ = 0.1), while the recurrence keeps the error
//! bounded: `‖z̃_j − z_j‖ ≤ ε` propagates because the coefficient sum
//! `Σ −L_ij/L_jj ≤ 1` for SDD matrices (paper Eq. 19).

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::sparsevec::{SparseVecRef, Workspace};

/// Options for the approximate-inverse construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaiOptions {
    /// Relative pruning threshold δ: entries below `δ · max(z*_j)` are
    /// dropped. The paper uses `0.1`.
    pub threshold: f64,
    /// Columns with at most this many nonzeros are kept unpruned. The
    /// paper uses `log n`; `None` selects that default.
    pub keep_small: Option<usize>,
}

impl Default for SpaiOptions {
    fn default() -> Self {
        SpaiOptions { threshold: 0.1, keep_small: None }
    }
}

impl SpaiOptions {
    /// Creates options with the given pruning threshold and the paper's
    /// `log n` small-column exemption.
    pub fn with_threshold(threshold: f64) -> Self {
        SpaiOptions { threshold, ..Default::default() }
    }
}

/// A sparse approximation `Z̃ ≈ L⁻¹` to the inverse of a lower-triangular
/// Cholesky factor, stored as one flat compressed-column matrix.
///
/// Indices live in the same (permuted) space as the factor itself; callers
/// that work with original node ids must map through the factor's
/// permutation.
///
/// # Example
///
/// ```
/// use tracered_sparse::{CooMatrix, CholeskyFactor, ApproxInverse, SpaiOptions};
/// use tracered_sparse::order::Ordering;
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0)?; coo.push(1, 1, 2.0)?;
/// coo.push_symmetric(0, 1, -1.0)?;
/// let a = coo.to_csc().add_diagonal(&[0.1, 0.1])?;
/// let f = CholeskyFactor::factorize(&a, Ordering::Natural)?;
/// let z = ApproxInverse::build(f.l(), SpaiOptions::default())?;
/// assert_eq!(z.n(), 2);
/// assert!(z.nnz() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxInverse {
    z: CscMatrix,
}

impl ApproxInverse {
    /// Runs Algorithm 1 on a lower-triangular factor `l` whose diagonal is
    /// the first entry of every column (the layout produced by
    /// [`crate::CholeskyFactor`]).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] if `l` is rectangular, and
    /// [`SparseError::InvalidValue`] if the threshold is negative or not
    /// finite, a diagonal entry is not positive, or an entry of `Z̃`
    /// overflows.
    pub fn build(l: &CscMatrix, options: SpaiOptions) -> Result<Self, SparseError> {
        if l.nrows() != l.ncols() {
            return Err(SparseError::NotSquare { nrows: l.nrows(), ncols: l.ncols() });
        }
        if !options.threshold.is_finite() || options.threshold < 0.0 {
            return Err(SparseError::InvalidValue {
                what: format!("pruning threshold {} must be finite and >= 0", options.threshold),
            });
        }
        let n = l.ncols();
        let keep_small =
            options.keep_small.unwrap_or_else(|| (n.max(2) as f64).ln().ceil() as usize);
        // Columns are computed back to front and appended as they finish,
        // so during the build column j occupies `off[j + 1]..off[j]`.
        let mut off = vec![0usize; n + 1];
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        let mut work = Workspace::new(n);
        for j in (0..n).rev() {
            let (rows, vals) = l.col(j);
            if rows.is_empty() || rows[0] != j {
                return Err(SparseError::InvalidFormat {
                    what: format!("column {j} of L does not start with its diagonal"),
                });
            }
            let ljj = vals[0];
            if ljj <= 0.0 || !ljj.is_finite() {
                return Err(SparseError::InvalidValue {
                    what: format!("non-positive diagonal {ljj} in column {j}"),
                });
            }
            // z*_j = (1/L_jj) e_j + Σ_{i>j} (−L_ij/L_jj) z̃_i
            work.add(j, 1.0 / ljj);
            for (&i, &lij) in rows.iter().zip(vals.iter()).skip(1) {
                let coef = -lij / ljj;
                if coef == 0.0 {
                    continue;
                }
                let col = off[i + 1]..off[i];
                for (&r, &v) in rowidx[col.clone()].iter().zip(&values[col]) {
                    work.add(r, coef * v);
                }
            }
            // Prune: keep everything when the column is small, otherwise
            // drop entries below δ·max.
            let cutoff = if work.touched_len() <= keep_small {
                0.0
            } else {
                options.threshold * work.max_value()
            };
            work.gather_and_clear(cutoff, &mut rowidx, &mut values);
            off[j] = rowidx.len();
        }
        // Reversing both arrays puts the columns front to back (each one
        // now descending), `nnz − off[j]` is then the column pointer, and
        // reversing every column restores increasing row order — all in
        // place, so no second copy of `Z̃` ever exists.
        let nnz = rowidx.len();
        rowidx.reverse();
        values.reverse();
        for o in &mut off {
            *o = nnz - *o;
        }
        for j in 0..n {
            rowidx[off[j]..off[j + 1]].reverse();
            values[off[j]..off[j + 1]].reverse();
        }
        Ok(ApproxInverse { z: CscMatrix::from_raw_parts(n, n, off, rowidx, values)? })
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.z.ncols()
    }

    /// Total number of stored nonzeros across all columns.
    pub fn nnz(&self) -> usize {
        self.z.nnz()
    }

    /// Column `j` of `Z̃` (an approximation to `L⁻¹ e_j`), borrowed from
    /// the flat storage.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.n()`.
    pub fn column(&self, j: usize) -> SparseVecRef<'_> {
        let (rows, vals) = self.z.col(j);
        SparseVecRef::new(self.n(), rows, vals)
    }

    /// Memory footprint of the stored arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.z.memory_bytes()
    }

    /// A copy of `Z̃` as a CSC matrix (mainly for inspection and tests).
    pub fn to_csc(&self) -> CscMatrix {
        self.z.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::CholeskyFactor;
    use crate::coo::CooMatrix;
    use crate::order::Ordering;

    /// Shifted Laplacian of a path graph: the canonical SDD test matrix.
    fn path_sdd(n: usize, shift: f64) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
            coo.push(i, i, 1.0).unwrap();
            coo.push(i + 1, i + 1, 1.0).unwrap();
        }
        let base = coo.to_csc();
        base.add_diagonal(&vec![shift; n]).unwrap()
    }

    #[test]
    fn zero_threshold_reproduces_exact_inverse() {
        let a = path_sdd(8, 0.5);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let ld = f.l().to_dense();
        let zinv = ld.matmul(&z.to_csc().to_dense());
        // L · Z must be the identity.
        for r in 0..8 {
            for c in 0..8 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!(
                    (zinv[(r, c)] - expect).abs() < 1e-10,
                    "L·Z mismatch at ({r},{c}): {}",
                    zinv[(r, c)]
                );
            }
        }
    }

    #[test]
    fn entries_are_nonnegative_and_lower_triangular() {
        let a = path_sdd(12, 0.3);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::default()).unwrap();
        for j in 0..z.n() {
            for (i, v) in z.column(j).iter() {
                assert!(i >= j, "Z must be lower triangular");
                assert!(v >= 0.0, "Z entries must be non-negative (Proposition 1)");
            }
        }
    }

    #[test]
    fn pruning_reduces_nnz_monotonically() {
        let a = path_sdd(40, 0.05);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let coarse = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.3)).unwrap();
        let fine = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.05)).unwrap();
        assert!(coarse.nnz() <= fine.nnz());
        assert!(fine.nnz() <= exact.nnz());
    }

    #[test]
    fn column_error_is_small_for_moderate_threshold() {
        let a = path_sdd(30, 0.5);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let approx = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.1)).unwrap();
        for j in 0..30 {
            let d = exact.column(j) - approx.column(j);
            let rel = d.view().norm_sq().sqrt() / exact.column(j).norm_sq().sqrt();
            assert!(rel < 0.3, "column {j} relative error {rel}");
        }
    }

    #[test]
    fn flat_columns_match_the_dense_csc_copy() {
        let a = path_sdd(10, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::MinDegree).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::default()).unwrap();
        let csc = z.to_csc();
        assert_eq!(csc.nnz(), z.nnz());
        for j in 0..z.n() {
            let (rows, vals) = csc.col(j);
            assert_eq!(z.column(j).indices(), rows);
            assert_eq!(z.column(j).values(), vals);
        }
        let words = std::mem::size_of::<usize>();
        assert_eq!(z.memory_bytes(), (z.n() + 1) * words + z.nnz() * (words + 8));
    }

    #[test]
    fn column_diff_matches_manual_subtraction() {
        let a = path_sdd(10, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let z = ApproxInverse::build(f.l(), SpaiOptions::default()).unwrap();
        let d = (z.column(7) - z.column(3)).to_dense();
        let dense = z.to_csc().to_dense();
        for i in 0..10 {
            assert_eq!(d[i], dense[(i, 7)] - dense[(i, 3)], "row {i}");
        }
    }

    #[test]
    fn rejects_bad_threshold() {
        let a = path_sdd(4, 0.4);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        assert!(ApproxInverse::build(f.l(), SpaiOptions::with_threshold(-1.0)).is_err());
        assert!(ApproxInverse::build(f.l(), SpaiOptions::with_threshold(f64::NAN)).is_err());
    }

    #[test]
    fn rejects_rectangular() {
        let l = CscMatrix::zeros(2, 3);
        assert!(ApproxInverse::build(&l, SpaiOptions::default()).is_err());
    }

    #[test]
    fn keep_small_override_keeps_columns_dense() {
        let a = path_sdd(16, 0.01);
        let f = CholeskyFactor::factorize(&a, Ordering::Natural).unwrap();
        let opts = SpaiOptions { threshold: 0.9, keep_small: Some(16) };
        let z = ApproxInverse::build(f.l(), opts).unwrap();
        // With keep_small = n no pruning ever happens: Z̃ is exact.
        let exact = ApproxInverse::build(f.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        assert_eq!(z.nnz(), exact.nnz());
    }
}
