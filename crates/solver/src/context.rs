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

use tracered_sparse::regularize::scan_non_finite;
use tracered_sparse::{CholeskyFactor, CscMatrix, FactorOptions, SparseError};

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
/// use tracered_sparse::{BoostSchedule, FactorOptions};
///
/// # fn main() -> Result<(), tracered_sparse::SparseError> {
/// let g = grid2d(8, 8, WeightProfile::Unit, 3);
/// let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 64]));
/// let factor = FactorOptions { boost: Some(BoostSchedule::default()), ..Default::default() };
/// let ctx = SolverContext::build_with(Arc::clone(&a), a, &factor)?;
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
    factor: FactorOptions,
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
    /// Builds a context by factorizing `precond_matrix` with `factor` —
    /// the same factorization `robust_solve`'s stage 1 would perform per
    /// call, paid once here. The options are remembered for every later
    /// factorization through this context: the lazy
    /// [`SolverContext::direct_factor`] and the escalation stages of
    /// [`robust_solve_shared`].
    ///
    /// # Errors
    ///
    /// - [`SparseError::NotSquare`] / [`SparseError::DimensionMismatch`]
    ///   on shape mismatches;
    /// - [`SparseError::NonFiniteValue`] for NaN/Inf matrix entries,
    ///   [`SparseError::InvalidValue`] for invalid options;
    /// - the factorization error when the preconditioner matrix does not
    ///   factor, with a ladder when every rung fails (unlike
    ///   `robust_solve`, a context build is strict: a service must not
    ///   publish a context whose preconditioner does not exist).
    pub fn build_with(
        system: Arc<CscMatrix>,
        precond_matrix: Arc<CscMatrix>,
        factor: &FactorOptions,
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
        factor.validate()?;
        scan_non_finite(&system)?;
        // With a ladder, `factorize` scans the preconditioner matrix itself.
        if factor.boost.is_none() {
            scan_non_finite(&precond_matrix)?;
        }
        let rf = factor.factorize(&precond_matrix)?;
        Ok(SolverContext {
            system,
            precond_matrix,
            preconditioner: Arc::new(CholPreconditioner::from_factor(rf.factor)),
            applied_shift: rf.applied_shift,
            factor: *factor,
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

    /// The options of every factorization through this context: the
    /// preconditioner, the lazy direct factor and the escalation stages
    /// of [`robust_solve_shared`].
    pub fn factor_options(&self) -> &FactorOptions {
        &self.factor
    }

    /// A direct factorization of the *system* matrix, built on
    /// first call and memoized — the multi-RHS direct engine of the
    /// service layer. Concurrent first calls may race to factorize; one
    /// result wins and the rest are dropped, so the cached factor is
    /// deterministic (the kernel is bit-identical at every thread count).
    ///
    /// # Errors
    ///
    /// The factorization error when the system matrix does not factor
    /// under [`SolverContext::factor_options`]; the failure is memoized
    /// like a success.
    pub fn direct_factor(&self) -> Result<Arc<CholeskyFactor>, SparseError> {
        self.direct
            .get_or_init(|| self.factor.factorize(&self.system).map(|rf| Arc::new(rf.factor)))
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
/// preconditioner matrix per call, and stages 2–3 factorize with
/// [`SolverContext::factor_options`]. This is the entry point the service
/// layer drives — under request aggregation the stage-1 factorization
/// would otherwise dominate every solve.
///
/// # Errors
///
/// [`SparseError::DimensionMismatch`] / [`SparseError::InvalidValue`] for
/// a malformed right-hand side, plus the direct stage's factorization
/// error when the system matrix does not factor.
pub fn robust_solve_shared(
    ctx: &SolverContext,
    b: &[f64],
    cfg: &RobustSolveConfig,
) -> Result<RobustSolution, SparseError> {
    let n = ctx.dimension();
    if b.len() != n {
        return Err(SparseError::DimensionMismatch { expected: n, found: b.len() });
    }
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
        ctx.factor_options(),
        cfg,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pcg::PcgOptions;
    use crate::robust::{robust_solve, SolveStrategy};
    use tracered_graph::gen::{grid2d, WeightProfile};
    use tracered_graph::laplacian::laplacian_with_shifts;
    use tracered_sparse::order::Ordering;
    use tracered_sparse::{BoostSchedule, KernelVariant};

    fn system() -> (Arc<CscMatrix>, Arc<CscMatrix>, Vec<f64>) {
        let g = grid2d(10, 10, WeightProfile::Unit, 2);
        let a = Arc::new(laplacian_with_shifts(&g, &vec![0.05; 100]));
        let m = Arc::clone(&a);
        let b: Vec<f64> = (0..100).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        (a, m, b)
    }

    /// The default factor options with the default boost ladder.
    fn laddered() -> FactorOptions {
        FactorOptions { boost: Some(BoostSchedule::default()), ..Default::default() }
    }

    #[test]
    fn shared_solve_matches_by_value_solve_bitwise() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(Arc::clone(&a), Arc::clone(&m), &laddered()).unwrap();
        let shared = robust_solve_shared(&ctx, &b, &cfg).unwrap();
        let owned = robust_solve(&a, &b, &m, &laddered(), &cfg).unwrap();
        assert_eq!(shared.strategy, owned.strategy);
        assert_eq!(shared.reason, owned.reason);
        assert_eq!(shared.attempts.len(), owned.attempts.len());
        for (s, o) in shared.x.iter().zip(owned.x.iter()) {
            assert!((s - o).abs() == 0.0, "shared context must not change the arithmetic");
        }
    }

    /// Every stage of the shared chain factorizes with the context's
    /// options: forced to the direct stage under non-default options,
    /// it matches the by-value chain with the same options bit for bit.
    #[test]
    fn escalated_shared_solve_uses_the_context_options() {
        let (a, _, b) = system();
        // A Jacobi-grade preconditioner and a 1-iteration cap force the
        // chain through stage 2 to the direct stage.
        let m = {
            let mut coo = tracered_sparse::CooMatrix::new(a.nrows(), a.ncols());
            for (i, &d) in a.diagonal().iter().enumerate() {
                coo.push(i, i, d).unwrap();
            }
            Arc::new(coo.to_csc())
        };
        let factor = FactorOptions {
            ordering: Ordering::NestedDissection,
            kernel: KernelVariant::Supernodal,
            threads: Some(1),
            boost: Some(BoostSchedule { initial_relative: 1e-8, growth: 10.0, max_boosts: 4 }),
        };
        let cfg = RobustSolveConfig {
            pcg: PcgOptions { rel_tolerance: 1e-12, max_iterations: 1, ..Default::default() },
            ..Default::default()
        };
        let ctx = SolverContext::build_with(Arc::clone(&a), Arc::clone(&m), &factor).unwrap();
        assert_eq!(ctx.factor_options(), &factor);
        let shared = robust_solve_shared(&ctx, &b, &cfg).unwrap();
        let owned = robust_solve(&a, &b, &m, &factor, &cfg).unwrap();
        assert_eq!(shared.strategy, SolveStrategy::Direct);
        assert_eq!(shared.attempts, owned.attempts);
        assert_eq!(shared.rel_residual.to_bits(), owned.rel_residual.to_bits());
        assert!(shared.x.iter().zip(&owned.x).all(|(s, o)| s.to_bits() == o.to_bits()));
        // The default-option chain takes a different summation order.
        let default_chain = robust_solve(&a, &b, &m, &laddered(), &cfg).unwrap();
        assert!(shared.x.iter().zip(&default_chain.x).any(|(s, d)| s.to_bits() != d.to_bits()));
    }

    #[test]
    fn context_reuse_shares_one_factorization() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(a, m, &laddered()).unwrap();
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
        let ctx = SolverContext::build_with(Arc::clone(&a), m, &laddered()).unwrap();
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
            SolverContext::build_with(Arc::clone(&a), small, &laddered()),
            Err(SparseError::DimensionMismatch { .. })
        ));
        let mut bad = (*a).clone();
        bad.values_mut()[0] = f64::NAN;
        assert!(matches!(
            SolverContext::build_with(Arc::new(bad), a, &laddered()),
            Err(SparseError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn nan_preconditioner_is_a_typed_error_with_and_without_a_ladder() {
        // The entry points leave the scan of the preconditioner matrix to
        // `factorize` when it has a ladder; the error must not change.
        let (a, m, b) = system();
        let mut bad = (*m).clone();
        bad.values_mut()[5] = f64::NAN;
        let bad = Arc::new(bad);
        for opts in [FactorOptions::default(), laddered()] {
            assert!(matches!(
                SolverContext::build_with(Arc::clone(&a), Arc::clone(&bad), &opts),
                Err(SparseError::NonFiniteValue { .. })
            ));
            assert!(matches!(
                robust_solve(&a, &b, &bad, &opts, &RobustSolveConfig::default()),
                Err(SparseError::NonFiniteValue { .. })
            ));
        }
    }

    #[test]
    fn shared_solve_validates_rhs() {
        let (a, m, b) = system();
        let cfg = RobustSolveConfig::default();
        let ctx = SolverContext::build_with(a, m, &laddered()).unwrap();
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
