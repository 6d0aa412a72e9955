//! Shared, immutable solver contexts: the ownership layer under the
//! solver service.
//!
//! Historically every entry point in this workspace threaded matrices and
//! factors **by value or fresh reference** through free functions —
//! [`crate::robust::robust_solve`] refactorized the preconditioner matrix
//! on every call, and each batch engine rebuilt its own operators. That is
//! fine for one-shot batch programs and wrong for a long-running service,
//! where thousands of requests share one topology and the factorization
//! must be paid once.
//!
//! [`SolverContext`] bundles the immutable pieces of a solve — system
//! matrix, preconditioner matrix, and the factorized preconditioner —
//! behind `Arc`s, so concurrent request handlers share them at pointer
//! cost. The context is strictly read-only after construction (the lazily
//! built direct factor is memoized through a [`OnceLock`], preserving
//! `Sync`), and a compile-time assertion pins the `Send + Sync` audit.
//!
//! [`robust_solve_shared`] is the context-reusing twin of
//! [`crate::robust::robust_solve`]: stage 1 runs against the prebuilt
//! preconditioner instead of refactorizing, and performs exactly the same
//! arithmetic — both entry points drive one shared escalation core.

use std::sync::{Arc, OnceLock};

use tracered_sparse::order::Ordering;
use tracered_sparse::regularize::{factorize_regularized_kernel, scan_non_finite};
use tracered_sparse::{BoostSchedule, CholeskyFactor, CscMatrix, KernelVariant, SparseError};

use crate::precond::{CholPreconditioner, Preconditioner};
use crate::robust::{robust_core, RobustSolution, RobustSolveConfig};

/// An immutable, `Arc`-shared bundle of everything a solve needs besides
/// the right-hand side: the system matrix, the preconditioner matrix it
/// was built from, and the factorized preconditioner.
///
/// Cloning a `SolverContext` (or wrapping it in another `Arc`) is cheap:
/// all heavy state is behind shared pointers. Contexts are the unit the
/// service layer caches and publishes per epoch.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tracered_graph::gen::{grid2d, WeightProfile};
/// use tracered_graph::laplacian::laplacian_with_shifts;
/// use tracered_solver::context::{robust_solve_shared, SolverContext};
/// use tracered_solver::RobustSolveConfig;
/// use tracered_sparse::order::Ordering;
/// use tracered_sparse::{BoostSchedule, KernelVariant};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let g = grid2d(8, 8, WeightProfile::Unit, 3);
/// let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 64]));
/// let boost = BoostSchedule::default();
/// let ctx = SolverContext::build_with(
///     Arc::clone(&a),
///     a,
///     &boost,
///     1,
///     Ordering::MinDegree,
///     KernelVariant::Scalar,
/// )?;
/// // The factorization above is paid once; every request reuses it.
/// let cfg = RobustSolveConfig::default();
/// for seed in 0..3u64 {
///     let b: Vec<f64> = (0..64).map(|i| ((i as u64 * 7 + seed) % 5) as f64 - 2.0).collect();
///     assert!(robust_solve_shared(&ctx, &b, &cfg)?.converged());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SolverContext {
    system: Arc<CscMatrix>,
    precond_matrix: Arc<CscMatrix>,
    preconditioner: Arc<CholPreconditioner>,
    applied_shift: f64,
    boost: BoostSchedule,
    factor_threads: usize,
    ordering: Ordering,
    kernel: KernelVariant,
    /// Direct factorization of the system matrix, built on first use by
    /// [`SolverContext::direct_factor`] and shared afterwards.
    direct: Arc<OnceLock<Result<Arc<CholeskyFactor>, SparseError>>>,
}

// Shared-handle audit: request handlers on arbitrary threads hold these.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolverContext>();
    assert_send_sync::<CholPreconditioner>();
};

impl SolverContext {
    /// Builds a context by factorizing `precond_matrix` through the
    /// boosted ladder of [`tracered_sparse::regularize`] — the same
    /// factorization `robust_solve`'s stage 1 would perform per call,
    /// paid once here. The fill-reducing `ordering` and numeric `kernel`
    /// are used for the preconditioner factorization here *and*
    /// remembered for the lazy [`SolverContext::direct_factor`].
    ///
    /// # Errors
    ///
    /// - [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`]
    ///   on shape mismatches;
    /// - [`SparseError::NonFiniteValue`] for NaN/Inf matrix entries,
    ///   [`SparseError::InvalidValue`] for an invalid ladder;
    /// - the factorization error when every rung of the ladder fails on
    ///   the preconditioner matrix (unlike `robust_solve`, a context
    ///   build is strict: a service must not publish a context whose
    ///   preconditioner does not exist).
    pub fn build_with(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        boost: &BoostSchedule,
        factor_threads: usize,
        ordering: Ordering,
        kernel: KernelVariant,
    ) -> Result<Self, SparseError> {
        let n = system.ncols();
        if system.nrows() != n {
            return Err(SparseError::NotSquare { nrows: system.nrows(), ncols: n });
        }
        if precond_matrix.nrows() != n || precond_matrix.ncols() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: precond_matrix.ncols(),
            });
        }
        boost.validate()?;
        scan_non_finite(&system)?;
        scan_non_finite(&precond_matrix)?;
        let ft = factor_threads.max(1);
        let rf = factorize_regularized_kernel(&precond_matrix, ordering, kernel, ft, boost)?;
        Ok(SolverContext {
            system,
            precond_matrix,
            preconditioner: Arc::new(CholPreconditioner::from_factor(rf.factor)),
            applied_shift: rf.applied_shift,
            boost: *boost,
            factor_threads: ft,
            ordering,
            kernel,
            direct: Arc::new(OnceLock::new()),
        })
    }

    /// Problem dimension `n`.
    pub fn dimension(&self) -> usize {
        self.system.ncols()
    }

    /// The system matrix.
    pub fn system(&self) -> &CscMatrix {
        &self.system
    }

    /// The system matrix as a shared handle.
    pub fn system_shared(&self) -> Arc<CscMatrix> {
        Arc::clone(&self.system)
    }

    /// The matrix the preconditioner was factorized from.
    pub fn precond_matrix(&self) -> &CscMatrix {
        &self.precond_matrix
    }

    /// The factorized preconditioner.
    pub fn preconditioner(&self) -> &CholPreconditioner {
        &self.preconditioner
    }

    /// The factorized preconditioner as a shared handle — what the batch
    /// transient engines ([`simulate_pcg_batch`] and friends) borrow.
    ///
    /// [`simulate_pcg_batch`]: https://docs.rs/tracered-powergrid
    pub fn preconditioner_shared(&self) -> Arc<CholPreconditioner> {
        Arc::clone(&self.preconditioner)
    }

    /// Diagonal shift the boost ladder applied to the preconditioner
    /// matrix (`0.0` when it factorized cleanly).
    pub fn applied_shift(&self) -> f64 {
        self.applied_shift
    }

    /// The boost ladder used for escalation-stage factorizations.
    pub fn boost(&self) -> &BoostSchedule {
        &self.boost
    }

    /// Worker threads for factorizations performed through this context.
    pub fn factor_threads(&self) -> usize {
        self.factor_threads
    }

    /// Fill-reducing ordering for factorizations through this context.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Numeric Cholesky kernel for factorizations through this context.
    pub fn kernel(&self) -> KernelVariant {
        self.kernel
    }

    /// A direct (boosted) factorization of the *system* matrix, built on
    /// first call and memoized — the multi-RHS direct engine of the
    /// service layer. Concurrent first calls may race to factorize; one
    /// result wins and the rest are dropped, so the cached factor is
    /// deterministic (the kernel is bit-identical at every thread count).
    ///
    /// # Errors
    ///
    /// The factorization error when every rung of the ladder fails on the
    /// system matrix; the failure is memoized like a success.
    pub fn direct_factor(&self) -> Result<Arc<CholeskyFactor>, SparseError> {
        self.direct
            .get_or_init(|| {
                factorize_regularized_kernel(
                    &self.system,
                    self.ordering,
                    self.kernel,
                    self.factor_threads,
                    &self.boost,
                )
                .map(|rf| Arc::new(rf.factor))
            })
            .clone()
    }

    /// Estimated resident footprint: matrices plus preconditioner factor
    /// (the lazy direct factor is counted once built).
    pub fn memory_bytes(&self) -> usize {
        let direct = match self.direct.get() {
            Some(Ok(f)) => f.memory_bytes(),
            _ => 0,
        };
        self.system.memory_bytes()
            + self.precond_matrix.memory_bytes()
            + self.preconditioner.memory_bytes()
            + direct
    }
}

/// [`crate::robust::robust_solve`] against a prebuilt [`SolverContext`]:
/// identical escalation chain and arithmetic, but stage 1 reuses the
/// context's factorized preconditioner instead of refactorizing the
/// preconditioner matrix per call. This is the entry point the service
/// layer drives — under request aggregation the stage-1 factorization
/// would otherwise dominate every solve.
///
/// # Errors
///
/// [`SparseError::DimensionMismatch`] / [`SparseError::InvalidValue`] for
/// a malformed right-hand side or ladder, plus the direct stage's
/// factorization error when the entire ladder fails on the system matrix.
pub fn robust_solve_shared(
    ctx: &SolverContext,
    b: &[f64],
    cfg: &RobustSolveConfig,
) -> Result<RobustSolution, SparseError> {
    let n = ctx.dimension();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: b.len() });
    }
    cfg.boost.validate()?;
    if let Some(i) = b.iter().position(|v| !v.is_finite()) {
        return Err(SparseError::InvalidValue {
            what: format!("non-finite right-hand side entry at index {i}"),
        });
    }
    robust_core(
        ctx.system(),
        ctx.precond_matrix(),
        Some((ctx.preconditioner(), ctx.applied_shift())),
        b,
        cfg,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::robust::robust_solve;
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;

    fn system() -> (Arc<CscMatrix>, Arc<CscMatrix>, Vec<f64>) {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 100]));
        let m = Arc::clone(&a);
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        (a, m, b)
    }

    #[test]
    fn shared_solve_matches_by_value_solve_bitwise() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(
            Arc::clone(&a),
            Arc::clone(&m),
            &cfg.boost,
            1,
            Ordering::MinDegree,
            KernelVariant::Scalar,
        )
        .unwrap();
        let shared = robust_solve_shared(&ctx, &b, &cfg).unwrap();
        let owned = robust_solve(&a, &b, &m, &cfg).unwrap();
        assert_eq!(shared.strategy, owned.strategy);
        assert_eq!(shared.reason, owned.reason);
        assert_eq!(shared.attempts.len(), owned.attempts.len());
        for (s, o) in shared.x.iter().zip(owned.x.iter()) {
            assert!((s - o).abs() == 0.0, "shared context must not change the arithmetic");
        }
    }

    #[test]
    fn context_reuse_shares_one_factorization() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(
            a,
            m,
            &cfg.boost,
            1,
            Ordering::MinDegree,
            KernelVariant::Scalar,
        )
        .unwrap();
        let pre_before = Arc::as_ptr(&ctx.preconditioner_shared());
        for _ in 0..3 {
            assert!(robust_solve_shared(&ctx, &b, &cfg).unwrap().converged());
        }
        // The preconditioner handle is the same allocation across solves.
        assert_eq!(pre_before, Arc::as_ptr(&ctx.preconditioner_shared()));
    }

    #[test]
    fn direct_factor_is_memoized_and_solves() {
        let (a, m, b) = system();
        let ctx = SolverContext::build_with(
            Arc::clone(&a),
            m,
            &BoostSchedule::default(),
            1,
            Ordering::MinDegree,
            KernelVariant::Scalar,
        )
        .unwrap();
        let f1 = ctx.direct_factor().unwrap();
        let f2 = ctx.direct_factor().unwrap();
        assert_eq!(Arc::as_ptr(&f1), Arc::as_ptr(&f2), "second call must hit the memo");
        let x = f1.solve(&b);
        assert!(a.residual_inf_norm(&x, &b) < 1e-8);
    }

    #[test]
    fn build_rejects_malformed_inputs() {
        let (a, _, _) = system();
        let g = grid2d(3, 3, WeightProfile::Unit, 1);
        let small = Arc::new(laplacian_with_shifts(&g, &[0.1; 9]));
        assert!(matches!(
            SolverContext::build_with(
                Arc::clone(&a),
                small,
                &BoostSchedule::default(),
                1,
                Ordering::MinDegree,
                KernelVariant::Scalar
            ),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut bad = (*a).clone();
        bad.values_mut()[0] = f64::NAN;
        assert!(matches!(
            SolverContext::build_with(
                Arc::new(bad),
                a,
                &BoostSchedule::default(),
                1,
                Ordering::MinDegree,
                KernelVariant::Scalar
            ),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn shared_solve_validates_rhs() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(
            a,
            m,
            &cfg.boost,
            1,
            Ordering::MinDegree,
            KernelVariant::Scalar,
        )
        .unwrap();
        assert!(matches!(
            robust_solve_shared(&ctx, &b[..50], &cfg),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut bad = b;
        bad[7] = f64::INFINITY;
        assert!(matches!(
            robust_solve_shared(&ctx, &bad, &cfg),
            Err(SparseError::InvalidValue { .. })
        ));
    }
}
