//! `order::min_degree` keeps its quotient graph, element absorption and
//! mass elimination exact: on every input it must return the permutation
//! of the plain greedy algorithm that merges explicit cliques into sorted
//! adjacency lists. `reference_min_degree` below is that algorithm, kept
//! verbatim as the oracle, together with the `adjacency` helper it uses.
//!
//! The cases cover random symmetric patterns (with duplicate entries),
//! disconnected graphs, hub graphs, mesh Laplacians, the power-grid
//! conductance matrix and sparsifier Laplacians. The two largest meshes
//! take seconds under the reference and are `#[ignore]`d; run them with
//! `cargo test --release -p tracered-sparse --test min_degree_oracle --
//! --include-ignored`.

// The reference is kept as it was written, under the library's lint
// settings.
#![allow(clippy::needless_range_loop)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::gen::{grid2d, grid3d, tri_mesh, WeightProfile};
use tracered_graph::laplacian::{laplacian, ShiftPolicy};
use tracered_graph::Graph;
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_sparse::order::min_degree;
use tracered_sparse::{CooMatrix, CscMatrix, Permutation};

/// Builds an off-diagonal adjacency list from the pattern of a symmetric
/// CSC matrix.
fn adjacency(a: &CscMatrix) -> Vec<Vec<usize>> {
    let n = a.ncols();
    let mut adj = vec![Vec::new(); n];
    for c in 0..n {
        let (rows, _) = a.col(c);
        for &r in rows {
            if r != c {
                adj[c].push(r);
            }
        }
    }
    adj
}

/// Greedy minimum-degree ordering.
///
/// Eliminates, at each step, a vertex of minimum degree in the current
/// *elimination graph* (the graph updated with clique fill between the
/// eliminated vertex's neighbours). Uses sorted adjacency vectors and a
/// lazy-deletion binary heap.
///
/// Vertices whose elimination-graph degree exceeds an AMD-style *dense
/// cutoff* are deferred and numbered last as a dense block: on 3-D meshes
/// the late elimination graph develops huge cliques whose explicit merges
/// would make the ordering itself quadratic.
pub fn reference_min_degree(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let mut adj = adjacency(a);
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    // AMD-flavoured dense-row threshold: a multiple of the average degree
    // with a sqrt(n) floor.
    let avg_degree = if n == 0 { 0.0 } else { a.nnz() as f64 / n as f64 };
    let dense_cutoff = ((16.0 * avg_degree).max(4.0 * (n as f64).sqrt()).max(16.0) as usize).min(n);
    let mut eliminated = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(n * 2);
    for (v, list) in adj.iter().enumerate() {
        heap.push(Reverse((list.len(), v)));
    }
    let mut order = Vec::with_capacity(n);
    let mut deferred = Vec::new();
    let mut scratch: Vec<usize> = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || adj[v].len() != deg {
            continue; // stale heap entry
        }
        eliminated[v] = true;
        if deg > dense_cutoff {
            // Dense row: exclude from further updates, number it last.
            deferred.push(v);
            adj[v] = Vec::new();
            continue;
        }
        order.push(v);
        // Active neighbours of v.
        let nv: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
        // Form the clique on nv: for each u in nv, new adjacency is
        // (adj[u] \ {v, eliminated}) ∪ (nv \ {u}).
        for &u in &nv {
            scratch.clear();
            // Merge the two sorted lists, dropping v, u and eliminated nodes.
            let (aa, bb) = (&adj[u], &nv);
            let (mut i, mut j) = (0usize, 0usize);
            while i < aa.len() || j < bb.len() {
                let pick_a = if i >= aa.len() {
                    false
                } else if j >= bb.len() {
                    true
                } else {
                    aa[i] <= bb[j]
                };
                let x = if pick_a {
                    if j < bb.len() && aa[i] == bb[j] {
                        j += 1;
                    }
                    let x = aa[i];
                    i += 1;
                    x
                } else {
                    let x = bb[j];
                    j += 1;
                    x
                };
                if x != u && x != v && !eliminated[x] {
                    scratch.push(x);
                }
            }
            scratch.dedup();
            std::mem::swap(&mut adj[u], &mut scratch);
            heap.push(Reverse((adj[u].len(), u)));
        }
        adj[v] = Vec::new(); // release memory of the eliminated vertex
    }
    order.extend(deferred);
    Permutation::from_vec(order).expect("min-degree eliminates every vertex exactly once")
}

fn assert_same(a: &CscMatrix, what: &str) {
    let want = reference_min_degree(a);
    let got = min_degree(a);
    if got != want {
        let k = (0..a.ncols()).find(|&k| got.new_to_old(k) != want.new_to_old(k)).unwrap_or(0);
        panic!(
            "{what} (n = {}, nnz = {}): permutations first differ at position {k}: {} vs reference {}",
            a.ncols(),
            a.nnz(),
            got.new_to_old(k),
            want.new_to_old(k)
        );
    }
}

/// SplitMix64: a fixed, dependency-free stream for the random patterns.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A symmetric matrix with a full diagonal and the given off-diagonal
/// pairs; repeated pairs are pushed twice and summed by the conversion.
fn symmetric(n: usize, pairs: &[(usize, usize)]) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + n as f64).unwrap();
    }
    for &(i, j) in pairs {
        if i != j {
            coo.push_symmetric(i, j, -1.0).unwrap();
        }
    }
    coo.to_csc()
}

/// `m` random pairs over `0..n`, plus a repeat of every eighth one.
fn random_pairs(n: usize, m: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..m).map(|_| (rng.below(n), rng.below(n))).collect();
    let repeats: Vec<(usize, usize)> = pairs.iter().step_by(8).map(|&(i, j)| (j, i)).collect();
    pairs.extend(repeats);
    pairs
}

fn graph_laplacian(g: &Graph) -> CscMatrix {
    laplacian(g, ShiftPolicy::None).unwrap()
}

#[test]
fn random_symmetric_patterns() {
    // Fill on random graphs grows fast: at n = 1000 with 2 or more edges
    // per vertex, the last few hundred rows pass the dense cutoff and are
    // deferred, so these cases also pin the lazy counting of deferred rows.
    let mut rng = Rng(1);
    for n in [0usize, 1, 2, 3, 5, 17, 64, 200, 1000] {
        for density in [0.5, 1.0, 2.0, 4.0, 12.0] {
            for rep in 0..3 {
                let m = (density * n as f64) as usize;
                let pairs = if n == 0 { Vec::new() } else { random_pairs(n, m, &mut rng) };
                assert_same(
                    &symmetric(n, &pairs),
                    &format!("random n={n} density={density} #{rep}"),
                );
            }
        }
    }
}

#[test]
fn disconnected_graphs() {
    let mut rng = Rng(3);
    // Paths, random blocks and isolated vertices, interleaved in id order.
    let n = 600;
    let mut pairs = Vec::new();
    for i in (0..200).step_by(4) {
        pairs.push((i, i + 4));
    }
    for block in 0..4 {
        let lo = 200 + 100 * block;
        for _ in 0..(60 + 80 * block) {
            pairs.push((lo + rng.below(80), lo + rng.below(80)));
        }
    }
    assert_same(&symmetric(n, &pairs), "paths, random blocks and isolated vertices");
    assert_same(&symmetric(40, &[]), "no edges at all");
    let two_cliques: Vec<(usize, usize)> = (0..30)
        .flat_map(|i| (0..30).filter(move |j| j / 15 == i / 15).map(move |j| (i, j)))
        .collect();
    assert_same(&symmetric(30, &two_cliques), "two cliques");
}

#[test]
fn hub_graphs() {
    let n = 3000;
    // Stars with the hub first and last.
    let star_first: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    assert_same(&symmetric(n, &star_first), "star, hub first");
    let star_last: Vec<(usize, usize)> = (0..n - 1).map(|i| (n - 1, i)).collect();
    assert_same(&symmetric(n, &star_last), "star, hub last");
    // A wheel: a hub on a cycle.
    let mut wheel: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    wheel.extend((1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 })));
    assert_same(&symmetric(n, &wheel), "wheel");
    // Hubs tied to every vertex of a random graph and to overlapping
    // halves of it, and to each other.
    let mut rng = Rng(4);
    for (m, hubs) in [(1000usize, 3usize), (400, 12)] {
        let mut pairs = random_pairs(m, 2 * m, &mut rng);
        for h in 0..hubs {
            let hub = m + h;
            pairs.extend((0..m).filter(|&i| h % 3 == 0 || i % 2 == h % 2).map(|i| (hub, i)));
            pairs.extend((0..h).map(|o| (hub, m + o)));
        }
        assert_same(&symmetric(m + hubs, &pairs), &format!("{hubs} hubs over random n={m}"));
    }
    // Many small stars joined at their hubs through a path.
    let mut joined = Vec::new();
    for s in 0..20 {
        let hub = s * 150;
        joined.extend((1..150).map(|i| (hub, hub + i)));
        if s > 0 {
            joined.push((hub - 150, hub));
        }
    }
    assert_same(&symmetric(3000, &joined), "20 joined stars");
}

#[test]
fn mesh_laplacians() {
    let w = WeightProfile::Unit;
    for (r, c) in [(1, 1), (1, 40), (7, 9), (40, 40), (100, 100)] {
        assert_same(&graph_laplacian(&grid2d(r, c, w, 1)), &format!("grid2d {r}x{c}"));
    }
    for (x, y, z) in [(2, 3, 4), (8, 8, 8), (12, 10, 9)] {
        assert_same(&graph_laplacian(&grid3d(x, y, z, w, 1)), &format!("grid3d {x}x{y}x{z}"));
    }
    for (r, c) in [(5, 5), (40, 30), (150, 88)] {
        let g = tri_mesh(r, c, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 1);
        assert_same(&graph_laplacian(&g), &format!("tri_mesh {r}x{c}"));
    }
}

#[test]
#[ignore = "takes seconds under the reference ordering"]
fn large_grid2d() {
    assert_same(&graph_laplacian(&grid2d(300, 300, WeightProfile::Unit, 1)), "grid2d 300x300");
}

#[test]
#[ignore = "takes seconds under the reference ordering"]
fn large_grid3d() {
    assert_same(&graph_laplacian(&grid3d(25, 25, 20, WeightProfile::Unit, 1)), "grid3d 25x25x20");
}

#[test]
fn power_grid_conductance_matrices() {
    for seed in [1, 2] {
        for mesh in [32, 100] {
            let pg = synthesize(&SynthConfig { mesh, seed, ..Default::default() });
            assert_same(&pg.conductance_shared(), &format!("power grid G mesh={mesh} seed={seed}"));
        }
    }
}

#[test]
fn sparsifier_laplacians() {
    for seed in [1, 2] {
        let g = tri_mesh(150, 88, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, seed);
        let sp = sparsify(&g, &SparsifyConfig::default().seed(seed)).unwrap();
        assert_same(&sp.laplacian(&g), &format!("mesh sparsifier seed={seed}"));

        let pg = synthesize(&SynthConfig { mesh: 100, seed, ..Default::default() });
        let cfg = SparsifyConfig::new(Method::TraceReduction)
            .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()))
            .seed(seed);
        let sp = sparsify(pg.graph(), &cfg).unwrap();
        assert_same(&sp.laplacian(pg.graph()), &format!("power-grid sparsifier seed={seed}"));
    }
}
