//! End-to-end sweep of the `kernel` knob: the supernodal blocked
//! Cholesky must be a drop-in numeric replacement for the scalar
//! up-looking kernel. Within a variant results are bit-identical at
//! every `factor_threads` count; across variants the blocked panel
//! updates reassociate sums, so pipelines agree only to rounding — the
//! documented cross-variant tolerance on solution vectors is `1e-5`
//! relative (each run converges PCG to `1e-6`, so the two answers sit
//! within a small multiple of the solve tolerance of each other).

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, simulate_direct, TransientConfig};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::robust::{robust_solve, RobustSolveConfig, SolveStrategy};
use tracered_sparse::order::Ordering;
use tracered_sparse::{BoostSchedule, CholeskyFactor, FactorOptions, KernelVariant};

/// Documented cross-variant tolerance: relative `∞`-norm gap between
/// solution vectors produced under the two kernels.
const CROSS_KERNEL_TOL: f64 = 1e-5;

#[test]
fn sparsify_then_pcg_supernodal_matches_scalar() {
    let g = tri_mesh(16, 14, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 9);
    let n = g.num_nodes();
    let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();

    let mut solutions = Vec::new();
    for kernel in [KernelVariant::Scalar, KernelVariant::Supernodal] {
        let cfg = SparsifyConfig::new(Method::TraceReduction).kernel(kernel);
        let sp = sparsify(&g, &cfg).unwrap();
        let lg = sp.graph_laplacian(&g);
        let ls = sp.laplacian(&g);
        // Route the preconditioner factorization itself through the
        // kernel under test.
        let f = CholeskyFactor::factorize_with_perm_kernel(
            &ls,
            Ordering::MinDegree.compute(&ls).unwrap(),
            kernel,
            1,
        )
        .unwrap();
        let pre = CholPreconditioner::from_factor(f);
        let sol = pcg(&lg, &b, &pre, &PcgOptions::with_tolerance(1e-6));
        assert!(sol.converged, "{kernel:?} pipeline must converge");
        solutions.push(sol.x);
    }
    let scale = solutions[0].iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    for (s, v) in solutions[0].iter().zip(solutions[1].iter()) {
        assert!(
            (s - v).abs() <= CROSS_KERNEL_TOL * scale,
            "kernels disagree beyond the documented tolerance: {s} vs {v}"
        );
    }
}

#[test]
fn supernodal_transient_waveforms_bit_identical_across_factor_threads() {
    let pg = synthesize(&SynthConfig { mesh: 9, source_fraction: 0.2, ..Default::default() });
    let (near, far) = probe_pair(&pg);
    let base_cfg = TransientConfig {
        t_end: 5e-10,
        fixed_step: Some(2.5e-11),
        kernel: KernelVariant::Supernodal,
        ..Default::default()
    };
    let baseline = simulate_direct(&pg, &base_cfg, &[near, far]).unwrap();
    for threads in [2usize, 4] {
        let cfg = TransientConfig { factor_threads: threads, ..base_cfg };
        let run = simulate_direct(&pg, &cfg, &[near, far]).unwrap();
        assert_eq!(run.times, baseline.times);
        for (a, b) in run.probes.iter().flatten().zip(baseline.probes.iter().flatten()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "supernodal waveform changed at {threads} threads"
            );
        }
    }
}

#[test]
fn robust_escalation_honors_configured_ordering_and_kernel() {
    // A Jacobi-grade preconditioner and a 1-iteration cap force the chain
    // all the way to the direct stage, which must factor with the
    // caller's ordering and kernel (it used to hardcode min-degree).
    let g = tri_mesh(12, 12, WeightProfile::Unit, 3);
    let n = g.num_nodes();
    let a = tracered_graph::laplacian::laplacian_with_shifts(&g, &vec![0.05; 144]);
    let m = {
        let mut coo = tracered_sparse::CooMatrix::new(n, n);
        for (i, &d) in a.diagonal().iter().enumerate() {
            coo.push(i, i, d).unwrap();
        }
        coo.to_csc()
    };
    let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
    let cfg = RobustSolveConfig {
        pcg: PcgOptions { rel_tolerance: 1e-10, max_iterations: 1, ..Default::default() },
        ..Default::default()
    };
    let factor = FactorOptions {
        ordering: Ordering::NestedDissection,
        kernel: KernelVariant::Supernodal,
        threads: Some(1),
        boost: Some(BoostSchedule::default()),
    };
    let sol = robust_solve(&a, &b, &m, &factor, &cfg).unwrap();
    assert!(sol.converged());
    assert_eq!(sol.strategy, SolveStrategy::Direct);
    assert!(a.residual_inf_norm(&sol.x, &b) < 1e-6);
}
