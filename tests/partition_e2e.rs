//! End-to-end spectral-partitioning test mirroring the paper's Table 3
//! methodology at test scale.

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
use tracered_graph::laplacian::ShiftPolicy;
use tracered_partition::{bisect_direct_threads, bisect_pcg, partition_shift, relative_error};
use tracered_solver::precond::CholPreconditioner;

#[test]
fn all_methods_reproduce_the_direct_partition() {
    let g = tri_mesh(24, 15, WeightProfile::Unit, 13);
    let direct = bisect_direct_threads(&g, 5, 99, 1).unwrap();
    let s = partition_shift(&g);
    for method in [Method::TraceReduction, Method::Grass, Method::EffectiveResistance] {
        let sp = sparsify(&g, &SparsifyConfig::new(method).shift(ShiftPolicy::Uniform(s))).unwrap();
        let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
        let bis = bisect_pcg(&g, &pre, 5, 99, 1e-3).unwrap();
        let err = relative_error(&direct.side, &bis.side);
        assert!(err < 0.05, "{method:?}: RelErr {err} (paper reports ~1e-3)");
        assert!(bis.inner_iterations > 0);
    }
}

#[test]
fn rectangular_grid_cut_is_near_optimal() {
    // For an r×c grid with r > c the optimal bisection cuts c edges.
    let g = grid2d(30, 10, WeightProfile::Unit, 3);
    let b = bisect_direct_threads(&g, 8, 5, 1).unwrap();
    assert!(b.cut_weight <= 14.0, "cut {} too heavy for a 30x10 grid", b.cut_weight);
    assert!((b.balance - 0.5).abs() < 0.01);
}

#[test]
fn proposed_needs_no_more_inner_iterations_than_grass() {
    let g = tri_mesh(22, 22, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 21);
    let s = partition_shift(&g);
    let inner = |method: Method| -> usize {
        let sp = sparsify(&g, &SparsifyConfig::new(method).shift(ShiftPolicy::Uniform(s))).unwrap();
        let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
        bisect_pcg(&g, &pre, 5, 7, 1e-3).unwrap().inner_iterations
    };
    let tr = inner(Method::TraceReduction);
    let gr = inner(Method::Grass);
    assert!(tr as f64 <= gr as f64 * 1.3 + 5.0, "proposed {tr} inner iterations vs GRASS {gr}");
}
