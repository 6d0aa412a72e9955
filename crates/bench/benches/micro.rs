//! Criterion micro-benchmarks for the computational kernels behind every
//! table: sparse Cholesky factorization, Algorithm 1 (SPAI), tree-phase
//! and subgraph-phase trace-reduction scoring, PCG stepping, and the κ
//! estimator.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tracered_core::criticality::{subgraph_phase_scores_threads, tree_phase_scores_threads};
use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
use tracered_graph::lca::tree_resistances;
use tracered_graph::mst::{spanning_tree, TreeKind};
use tracered_graph::{Graph, RootedTree};
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_sparse::order::Ordering;
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

struct Fixture {
    g: Graph,
    shifts: Vec<f64>,
    tree: RootedTree,
    tree_edges: Vec<usize>,
    off_tree: Vec<usize>,
}

fn fixture() -> Fixture {
    let g = tri_mesh(40, 40, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 99);
    let n = g.num_nodes();
    let shift = 1e-3 * 2.0 * g.total_weight() / n as f64;
    let shifts = vec![shift; n];
    let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
    let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
    Fixture { g, shifts, tree, tree_edges: st.tree_edges, off_tree: st.off_tree_edges }
}

fn bench_cholesky(c: &mut Criterion) {
    let f = fixture();
    let lg = laplacian_with_shifts(&f.g, &f.shifts);
    c.bench_function("cholesky_factorize_full_mesh", |b| {
        b.iter(|| CholeskyFactor::factorize(black_box(&lg), Ordering::MinDegree).unwrap())
    });
    let ls = subgraph_laplacian(&f.g, &f.tree_edges, &f.shifts);
    c.bench_function("cholesky_factorize_tree", |b| {
        b.iter(|| CholeskyFactor::factorize(black_box(&ls), Ordering::MinDegree).unwrap())
    });
}

fn bench_spai(c: &mut Criterion) {
    let f = fixture();
    let mut sub = f.tree_edges.clone();
    sub.extend(f.off_tree.iter().take(f.g.num_nodes() / 50).copied());
    let ls = subgraph_laplacian(&f.g, &sub, &f.shifts);
    let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
    c.bench_function("spai_build_delta_0.1", |b| {
        b.iter(|| {
            ApproxInverse::build(black_box(factor.l()), SpaiOptions::with_threshold(0.1)).unwrap()
        })
    });
}

fn bench_scoring(c: &mut Criterion) {
    let f = fixture();
    let pairs: Vec<(usize, usize)> =
        f.off_tree.iter().map(|&id| (f.g.edge(id).u, f.g.edge(id).v)).collect();
    let rs = tree_resistances(&f.tree, &pairs);
    c.bench_function("tree_phase_scores_beta5", |b| {
        b.iter(|| tree_phase_scores_threads(black_box(&f.g), &f.tree, &f.off_tree, &rs, 5, 1))
    });
    let mut sub = f.tree_edges.clone();
    sub.extend(f.off_tree.iter().take(f.g.num_nodes() / 50).copied());
    let candidates: Vec<usize> = f.off_tree.iter().skip(f.g.num_nodes() / 50).copied().collect();
    let ls = subgraph_laplacian(&f.g, &sub, &f.shifts);
    let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
    let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.1)).unwrap();
    let subgraph = f.g.edge_subgraph(&sub);
    c.bench_function("subgraph_phase_scores_beta5", |b| {
        b.iter(|| {
            subgraph_phase_scores_threads(
                black_box(&f.g),
                &subgraph,
                &factor,
                &zinv,
                &candidates,
                5,
                1,
            )
        })
    });
}

fn bench_sparsify(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("sparsify_full_pipeline");
    group.sample_size(10);
    group.bench_function("trace_reduction", |b| {
        b.iter(|| sparsify(black_box(&f.g), &SparsifyConfig::new(Method::TraceReduction)).unwrap())
    });
    group.bench_function("grass", |b| {
        b.iter(|| sparsify(black_box(&f.g), &SparsifyConfig::new(Method::Grass)).unwrap())
    });
    group.bench_function("effective_resistance", |b| {
        b.iter(|| {
            sparsify(black_box(&f.g), &SparsifyConfig::new(Method::EffectiveResistance)).unwrap()
        })
    });
    group.finish();
}

fn bench_pcg(c: &mut Criterion) {
    let f = fixture();
    let sp = sparsify(&f.g, &SparsifyConfig::default()).unwrap();
    let lg = sp.graph_laplacian(&f.g);
    let pre = CholPreconditioner::from_matrix(&sp.laplacian(&f.g)).unwrap();
    let b_vec = tracered_bench::random_rhs(f.g.num_nodes(), 3);
    c.bench_function("pcg_solve_tol_1e-3", |b| {
        b.iter(|| pcg(black_box(&lg), &b_vec, &pre, &PcgOptions::with_tolerance(1e-3)))
    });
    let mut group = c.benchmark_group("kappa_estimator");
    group.sample_size(10);
    group.bench_function("power_iteration_60", |b| {
        b.iter(|| relative_condition_number(black_box(&lg), pre.factor(), 60, 1))
    });
    group.finish();
}

fn bench_parallel_scoring(c: &mut Criterion) {
    let f = fixture();
    let pairs: Vec<(usize, usize)> =
        f.off_tree.iter().map(|&id| (f.g.edge(id).u, f.g.edge(id).v)).collect();
    let rs = tree_resistances(&f.tree, &pairs);
    let mut group = c.benchmark_group("tree_phase_scores_threads");
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("{threads}t"), |b| {
            b.iter(|| {
                tree_phase_scores_threads(black_box(&f.g), &f.tree, &f.off_tree, &rs, 5, threads)
            })
        });
    }
    group.finish();
}

fn bench_parallel_spmv(c: &mut Criterion) {
    let f = fixture();
    let lg = laplacian_with_shifts(&f.g, &f.shifts);
    let n = f.g.num_nodes();
    let x: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut y = vec![0.0; n];
    let mut group = c.benchmark_group("sym_matvec");
    group.bench_function("serial_scatter", |b| b.iter(|| lg.matvec_into(black_box(&x), &mut y)));
    for threads in [1usize, 2, 4] {
        group.bench_function(&format!("gather_{threads}t"), |b| {
            b.iter(|| lg.sym_matvec_into_threads(black_box(&x), &mut y, threads))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cholesky,
    bench_spai,
    bench_scoring,
    bench_parallel_scoring,
    bench_parallel_spmv,
    bench_sparsify,
    bench_pcg
);
criterion_main!(benches);
