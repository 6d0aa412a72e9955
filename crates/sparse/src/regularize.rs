//! Boosted (regularized) Cholesky factorization — the retry layer that
//! turns `NotPositiveDefinite` from a fatal error into a classified,
//! recoverable event.
//!
//! Production sparse solvers (CHOLMOD's `beta` shift, PETSc's
//! `PCFactorSetShiftType`) recover from marginally indefinite or
//! near-singular matrices by adding a small multiple of the identity to
//! the diagonal and refactorizing. [`FactorOptions::factorize`] with a
//! ladder brings that discipline here: on a pivot failure it climbs a
//! geometric shift ladder ([`BoostSchedule`]) — `σ₀·s, σ₀·g·s,
//! σ₀·g²·s, …` where `s` is the mean absolute diagonal — until a
//! factorization succeeds, and reports the applied shift in the
//! returned [`RegularizedFactor`] so callers can account for the
//! perturbation (e.g. by using the boosted factor as a preconditioner
//! rather than a direct solve).
//!
//! The boost is applied to the **input matrix** (one
//! [`CscMatrix::add_diagonal`] per rung), not smuggled into the numeric
//! kernel, so the bit-identity contract of
//! [`CholeskyFactor::factorize_with_perm_kernel`] is untouched: serial and
//! parallel factorizations of the same boosted matrix agree bit for bit
//! at every thread count.
//!
//! With a ladder, a cheap non-finite input scan ([`scan_non_finite`])
//! runs first: NaN or infinite entries are input corruption, not
//! conditioning, and no shift recovers them — they surface immediately
//! as the typed [`SparseError::NonFiniteValue`].

#![warn(clippy::unwrap_used)]

use crate::chol::CholeskyFactor;
use crate::csc::{CscMatrix, Fnv64};
use crate::error::SparseError;
use crate::order::Ordering;
use crate::supernode::KernelVariant;

/// Geometric diagonal-boost ladder of [`FactorOptions::boost`].
///
/// Rung `k` (0-based) shifts the diagonal by
/// `initial_relative · growthᵏ · scale`, where `scale` is the mean
/// absolute diagonal of the input (1.0 for an all-zero diagonal). The
/// defaults start ten orders of magnitude below the diagonal scale and
/// climb fast: eight rungs reach `10⁶ · scale`, far past the point where
/// any SDD-like matrix factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostSchedule {
    /// First shift, relative to the diagonal scale (default `1e-10`).
    pub initial_relative: f64,
    /// Geometric growth factor between rungs (default `100.0`).
    pub growth: f64,
    /// Number of boosted retries after the unshifted attempt (default 8).
    pub max_boosts: usize,
}

impl Default for BoostSchedule {
    fn default() -> Self {
        BoostSchedule { initial_relative: 1e-10, growth: 100.0, max_boosts: 8 }
    }
}

impl BoostSchedule {
    /// Validates the ladder parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidValue`] when the initial shift is not
    /// finite and positive, the growth factor is not finite and > 1, or
    /// the ladder has no rungs.
    pub fn validate(&self) -> Result<(), SparseError> {
        if !self.initial_relative.is_finite() || self.initial_relative <= 0.0 {
            return Err(SparseError::InvalidValue {
                what: format!(
                    "boost initial_relative {} must be finite and > 0",
                    self.initial_relative
                ),
            });
        }
        if !self.growth.is_finite() || self.growth <= 1.0 {
            return Err(SparseError::InvalidValue {
                what: format!("boost growth {} must be finite and > 1", self.growth),
            });
        }
        if self.max_boosts == 0 {
            return Err(SparseError::InvalidValue {
                what: "boost max_boosts must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// The absolute shift applied at rung `attempt` (0-based) for a
    /// matrix with diagonal scale `scale`.
    pub fn shift_at(&self, attempt: usize, scale: f64) -> f64 {
        self.initial_relative * self.growth.powi(attempt as i32) * scale
    }
}

/// A Cholesky factorization that may have required a diagonal boost,
/// carrying the applied shift so no perturbation goes unreported.
#[derive(Debug, Clone)]
pub struct RegularizedFactor {
    /// The successful factorization (of `A + applied_shift · I`).
    pub factor: CholeskyFactor,
    /// Diagonal shift that was added before the successful attempt
    /// (`0.0` when the matrix factored as given).
    pub applied_shift: f64,
    /// Total factorization attempts, counting the unshifted one (`1`
    /// means no boost was needed).
    pub attempts: usize,
}

impl RegularizedFactor {
    /// `true` when the matrix factored without any boost.
    pub fn is_unboosted(&self) -> bool {
        self.applied_shift == 0.0
    }

    /// Unwraps the factorization.
    pub fn into_factor(self) -> CholeskyFactor {
        self.factor
    }
}

/// Scans every stored entry for NaN or infinite values — the cheap input
/// hygiene check run before factorizations and robust solves, `O(nnz)`
/// with no allocation.
///
/// # Errors
///
/// Returns [`SparseError::NonFiniteValue`] locating the first offending
/// entry in column-major order.
pub fn scan_non_finite(a: &CscMatrix) -> Result<(), SparseError> {
    for (row, col, v) in a.iter() {
        if !v.is_finite() {
            return Err(SparseError::NonFiniteValue { row, col });
        }
    }
    Ok(())
}

/// Mean absolute diagonal — the scale the boost ladder's relative shifts
/// multiply (1.0 for an empty, all-zero or non-finite diagonal).
pub fn diagonal_scale(a: &CscMatrix) -> f64 {
    let d = a.diagonal();
    if d.is_empty() {
        return 1.0;
    }
    let mean = d.iter().map(|v| v.abs()).sum::<f64>() / d.len() as f64;
    if mean.is_finite() && mean > 0.0 {
        mean
    } else {
        1.0
    }
}

/// Everything that defines one factorization: the fill-reducing
/// ordering, the numeric kernel, the worker-thread budget and the
/// optional diagonal-boost ladder — the choices CHOLMOD keeps in one
/// `cholmod_common`. Every option-driven factorization in the workspace
/// (sparsifier rounds, solver contexts, the robust escalation chain,
/// contingency fallbacks) goes through [`FactorOptions::factorize`], and
/// every config that embeds it keys caches on
/// [`FactorOptions::fingerprint`].
///
/// The default is [`Ordering::MinDegree`], [`KernelVariant::Scalar`], one
/// thread and no ladder (fail fast on a non-positive pivot).
///
/// # Example
///
/// An unshifted graph Laplacian is singular — the fail-fast default
/// surfaces the pivot failure, while a ladder recovers with a reported
/// shift:
///
/// ```
/// use tracered_sparse::{BoostSchedule, CooMatrix, FactorOptions, SparseError};
///
/// # fn main() -> Result<(), SparseError> {
/// // Path-graph Laplacian: positive *semi*-definite, singular.
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 0, 1.0)?;
/// coo.push(1, 1, 2.0)?;
/// coo.push(2, 2, 1.0)?;
/// coo.push_symmetric(0, 1, -1.0)?;
/// coo.push_symmetric(1, 2, -1.0)?;
/// let l = coo.to_csc();
///
/// let fail_fast = FactorOptions::default();
/// assert!(matches!(fail_fast.factorize(&l), Err(SparseError::NotPositiveDefinite { .. })));
/// let boosted = FactorOptions { boost: Some(BoostSchedule::default()), ..fail_fast };
/// let rf = boosted.factorize(&l)?;
/// assert!(rf.applied_shift > 0.0, "recovery must report its shift");
/// assert!(rf.attempts >= 2);
/// // The boosted factor solves the regularized system accurately.
/// let x = rf.factor.solve(&[1.0, 0.0, -1.0]);
/// assert!(x.iter().all(|v| v.is_finite()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorOptions {
    /// Fill-reducing ordering, computed once per factorization.
    pub ordering: Ordering,
    /// Numeric Cholesky kernel. The kernels agree only up to rounding, so
    /// this is part of the fingerprint.
    pub kernel: KernelVariant,
    /// Pool workers for the numeric factorization (`None` = the global
    /// pool size). Every kernel is bit-identical at every count, so this
    /// is *not* part of the fingerprint.
    pub threads: Option<usize>,
    /// Diagonal-boost ladder climbed on a non-positive pivot; `None`
    /// surfaces the pivot failure as [`SparseError::NotPositiveDefinite`].
    pub boost: Option<BoostSchedule>,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            ordering: Ordering::MinDegree,
            kernel: KernelVariant::Scalar,
            threads: Some(1),
            boost: None,
        }
    }
}

impl FactorOptions {
    /// Validates the thread budget and the ladder.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidValue`] for `threads == Some(0)` or
    /// an invalid [`BoostSchedule`].
    pub fn validate(&self) -> Result<(), SparseError> {
        if self.threads == Some(0) {
            return Err(SparseError::InvalidValue {
                what: "factor threads must be at least 1 (use None for auto-detect)".into(),
            });
        }
        match &self.boost {
            Some(ladder) => ladder.validate(),
            None => Ok(()),
        }
    }

    /// A 64-bit FNV-1a fingerprint over every option that can change the
    /// factor's values: ordering, kernel and ladder. `threads` is left
    /// out because the kernels are bit-identical at every thread count,
    /// so factors that differ only in threads may share a cache slot.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::default();
        // Exhaustive on purpose: a wildcard arm once collapsed distinct
        // variants onto one tag and let two configs share a cached
        // factor. A new variant must be a compile error here.
        h.mix(match self.ordering {
            Ordering::Natural => 0,
            Ordering::Rcm => 1,
            Ordering::MinDegree => 2,
            Ordering::NestedDissection => 3,
        });
        h.mix(match self.kernel {
            KernelVariant::Scalar => 0,
            KernelVariant::Supernodal => 1,
        });
        match &self.boost {
            None => h.mix(0),
            Some(BoostSchedule { initial_relative, growth, max_boosts }) => {
                h.mix(1);
                h.mix(initial_relative.to_bits());
                h.mix(growth.to_bits());
                h.mix(*max_boosts as u64);
            }
        }
        h.finish()
    }

    /// Factorizes `a` under these options.
    ///
    /// Without a ladder this is exactly `ordering.compute(a)` followed by
    /// [`CholeskyFactor::factorize_with_perm_kernel`] — no input scan —
    /// reported as one attempt with no shift.
    ///
    /// With a ladder, the ladder is validated and the input scanned for
    /// NaN/Inf ([`scan_non_finite`]) first; a pivot failure then climbs
    /// the geometric shift ladder until a factorization succeeds. The
    /// permutation is computed once (the boost never changes the
    /// sparsity pattern) and reused across rungs. Each rung factors an
    /// explicitly boosted copy of the input, so the result is
    /// bit-identical across thread counts, exactly like the kernels.
    ///
    /// # Errors
    ///
    /// - [`SparseError::NonFiniteValue`] if the ladder's input scan finds
    ///   NaN/Inf;
    /// - [`SparseError::InvalidValue`] for an invalid [`BoostSchedule`];
    /// - [`SparseError::NotPositiveDefinite`] without a ladder, or when
    ///   even its top rung fails (the last pivot failure is reported);
    /// - any structural error of the underlying factorization
    ///   ([`SparseError::NotSquare`] etc.).
    pub fn factorize(&self, a: &CscMatrix) -> Result<RegularizedFactor, SparseError> {
        let threads = tracered_par::effective_threads(self.threads);
        let Some(ladder) = &self.boost else {
            let perm = self.ordering.compute(a)?;
            let factor = CholeskyFactor::factorize_with_perm_kernel(a, perm, self.kernel, threads)?;
            return Ok(RegularizedFactor { factor, applied_shift: 0.0, attempts: 1 });
        };
        ladder.validate()?;
        scan_non_finite(a)?;
        let perm = self.ordering.compute(a)?;
        let mut attempt = 0;
        loop {
            // Rung 0 is the matrix as given; rung k > 0 shifts by the
            // ladder's (k − 1)-th shift.
            let (shift, boosted) = match attempt {
                0 => (0.0, None),
                k => {
                    let shift = ladder.shift_at(k - 1, diagonal_scale(a));
                    (shift, Some(a.add_diagonal(&vec![shift; a.ncols()])?))
                }
            };
            let m = boosted.as_ref().unwrap_or(a);
            match CholeskyFactor::factorize_with_perm_kernel(m, perm.clone(), self.kernel, threads)
            {
                Ok(factor) => {
                    return Ok(RegularizedFactor {
                        factor,
                        applied_shift: shift,
                        attempts: attempt + 1,
                    })
                }
                Err(SparseError::NotPositiveDefinite { .. }) if attempt < ladder.max_boosts => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn spd() -> CscMatrix {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 3.0).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(2, 3, -1.0).unwrap();
        coo.to_csc()
    }

    fn singular_laplacian() -> CscMatrix {
        let mut coo = CooMatrix::new(4, 4);
        let deg = [1.0, 2.0, 2.0, 1.0];
        for i in 0..4 {
            coo.push(i, i, deg[i]).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(2, 3, -1.0).unwrap();
        coo.to_csc()
    }

    /// Default options with the default ladder and the given ordering.
    fn laddered(ordering: Ordering) -> FactorOptions {
        FactorOptions { ordering, boost: Some(BoostSchedule::default()), ..Default::default() }
    }

    #[test]
    fn spd_input_takes_one_attempt_and_no_shift() {
        let a = spd();
        let rf = laddered(Ordering::MinDegree).factorize(&a).unwrap();
        assert!(rf.is_unboosted());
        assert_eq!(rf.attempts, 1);
        let x = rf.factor.solve(&[1.0, 2.0, 3.0, 4.0]);
        assert!(a.residual_inf_norm(&x, &[1.0, 2.0, 3.0, 4.0]) < 1e-12);
    }

    #[test]
    fn singular_input_recovers_with_reported_shift() {
        let l = singular_laplacian();
        assert!(matches!(
            CholeskyFactor::factorize(&l, Ordering::Natural),
            Err(SparseError::NotPositiveDefinite { .. })
        ));
        let rf = laddered(Ordering::Natural).factorize(&l).unwrap();
        assert!(rf.applied_shift > 0.0);
        assert!(!rf.is_unboosted());
        assert!(rf.attempts >= 2);
        // The shift is part of the input: the factor solves L + σI exactly.
        let boosted = l.add_diagonal(&[rf.applied_shift; 4]).unwrap();
        let x = rf.factor.solve(&[1.0, -1.0, 1.0, -1.0]);
        assert!(boosted.residual_inf_norm(&x, &[1.0, -1.0, 1.0, -1.0]) < 1e-9);
    }

    #[test]
    fn boosted_factor_is_bit_identical_across_thread_counts() {
        let l = singular_laplacian();
        let serial = laddered(Ordering::MinDegree).factorize(&l).unwrap();
        for threads in [2usize, 4] {
            let opts = FactorOptions { threads: Some(threads), ..laddered(Ordering::MinDegree) };
            let par = opts.factorize(&l).unwrap();
            assert_eq!(par.applied_shift, serial.applied_shift);
            assert_eq!(par.attempts, serial.attempts);
            assert_eq!(par.factor.l().values(), serial.factor.l().values());
        }
    }

    #[test]
    fn non_finite_entries_are_typed_errors() {
        let mut a = spd();
        a.values_mut()[2] = f64::NAN;
        assert!(matches!(scan_non_finite(&a), Err(SparseError::NonFiniteValue { .. })));
        let err = laddered(Ordering::Natural).factorize(&a).expect_err("NaN input must not factor");
        assert!(matches!(err, SparseError::NonFiniteValue { .. }));
        let mut b = spd();
        *b.values_mut().last_mut().unwrap() = f64::INFINITY;
        assert!(matches!(scan_non_finite(&b), Err(SparseError::NonFiniteValue { .. })));
        assert!(scan_non_finite(&spd()).is_ok());
    }

    #[test]
    fn hopeless_matrix_reports_last_pivot_failure() {
        // -I is indefinite at any positive shift the default ladder
        // reaches relative to its unit diagonal scale... unless the ladder
        // climbs past 1.0. Pin a short ladder so it genuinely fails.
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let short = BoostSchedule { initial_relative: 1e-10, growth: 10.0, max_boosts: 3 };
        let err = FactorOptions { boost: Some(short), ..laddered(Ordering::Natural) }
            .factorize(&a)
            .expect_err("short ladder cannot rescue -I");
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
        // A ladder that climbs past |diag| does rescue it.
        let tall = BoostSchedule { initial_relative: 1e-2, growth: 100.0, max_boosts: 4 };
        let rf = FactorOptions { boost: Some(tall), ..laddered(Ordering::Natural) }
            .factorize(&a)
            .unwrap();
        assert!(rf.applied_shift > 1.0);
    }

    #[test]
    fn invalid_schedules_are_rejected() {
        let a = spd();
        for bad in [
            BoostSchedule { initial_relative: 0.0, ..Default::default() },
            BoostSchedule { initial_relative: f64::NAN, ..Default::default() },
            BoostSchedule { growth: 1.0, ..Default::default() },
            BoostSchedule { growth: f64::INFINITY, ..Default::default() },
            BoostSchedule { max_boosts: 0, ..Default::default() },
        ] {
            let opts = FactorOptions { boost: Some(bad), ..laddered(Ordering::Natural) };
            assert!(matches!(opts.validate(), Err(SparseError::InvalidValue { .. })));
            assert!(matches!(opts.factorize(&a), Err(SparseError::InvalidValue { .. })));
        }
        let zero_threads = FactorOptions { threads: Some(0), ..Default::default() };
        assert!(matches!(zero_threads.validate(), Err(SparseError::InvalidValue { .. })));
        assert!(FactorOptions { threads: None, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn shift_ladder_is_geometric() {
        let s = BoostSchedule::default();
        let scale = 2.0;
        assert!((s.shift_at(1, scale) / s.shift_at(0, scale) - s.growth).abs() < 1e-9);
        assert!((s.shift_at(3, scale) / s.shift_at(2, scale) - s.growth).abs() < 1e-9);
    }

    #[test]
    fn fail_fast_surfaces_the_pivot_failure_a_ladder_recovers() {
        let l = singular_laplacian();
        for kernel in [KernelVariant::Scalar, KernelVariant::Supernodal] {
            let fail_fast = FactorOptions { kernel, ..Default::default() };
            let err = fail_fast.factorize(&l).expect_err("singular input must not factor");
            assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
            let laddered = FactorOptions { boost: Some(BoostSchedule::default()), ..fail_fast };
            assert!(laddered.factorize(&l).unwrap().applied_shift > 0.0);
        }
        // On SPD input the fail-fast path is exactly the kernel entry point.
        let a = spd();
        let rf = FactorOptions::default().factorize(&a).unwrap();
        assert_eq!((rf.attempts, rf.applied_shift), (1, 0.0));
        let perm = Ordering::MinDegree.compute(&a).unwrap();
        let direct =
            CholeskyFactor::factorize_with_perm_kernel(&a, perm, KernelVariant::Scalar, 1).unwrap();
        assert_eq!(rf.factor.l().values(), direct.l().values());
        // It runs no input scan: a NaN pivot fails in the kernel.
        let mut nan = spd();
        nan.values_mut()[0] = f64::NAN;
        let err = FactorOptions::default().factorize(&nan).expect_err("NaN pivot cannot factor");
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn fingerprints_are_pairwise_distinct_and_thread_blind() {
        let mut seen: Vec<(FactorOptions, u64)> = Vec::new();
        for ordering in
            [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree, Ordering::NestedDissection]
        {
            for kernel in [KernelVariant::Scalar, KernelVariant::Supernodal] {
                for boost in [None, Some(BoostSchedule::default())] {
                    let opts = FactorOptions { ordering, kernel, threads: Some(1), boost };
                    let fp = opts.fingerprint();
                    for threads in [Some(4), None] {
                        assert_eq!(fp, FactorOptions { threads, ..opts }.fingerprint());
                    }
                    assert!(seen.iter().all(|&(_, other)| other != fp), "{opts:?} collides");
                    seen.push((opts, fp));
                }
            }
        }
        assert_eq!(seen.len(), 16);
    }
}
