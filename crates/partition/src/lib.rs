//! Spectral graph partitioning (paper §4.3).
//!
//! The Fiedler vector — the eigenvector of the smallest nonzero Laplacian
//! eigenvalue — orders the nodes along the graph's "softest" direction;
//! splitting at the median yields the classic spectral bisection of
//! Spielman & Teng. Computing it requires repeated Laplacian solves
//! (inverse power iteration), which is exactly where the paper plugs in
//! its sparsifier-preconditioned PCG and measures speedups over the
//! direct solver at matching partition quality (`RelErr`).
//!
//! # Example
//!
//! ```
//! use tracered_graph::gen::{grid2d, WeightProfile};
//! use tracered_partition::{bisect_direct_threads, relative_error};
//!
//! # fn main() -> Result<(), tracered_sparse::SparseError> {
//! // A rectangular grid: λ₂ is simple (a square grid's is degenerate),
//! // so every random start converges to the same partition.
//! let g = grid2d(12, 5, WeightProfile::Unit, 1);
//! let a = bisect_direct_threads(&g, 8, 1, 1)?;
//! let b = bisect_direct_threads(&g, 8, 2, 1)?;
//! // Different random starts, same partition (up to side swap).
//! assert!(relative_error(&a.side, &b.side) < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

use tracered_graph::laplacian::laplacian_with_shifts;
use tracered_graph::{Edge, Graph};
use tracered_solver::eigen::fiedler_vector;
use tracered_solver::pcg::{pcg, PcgOptions};
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::DirectSolver;
use tracered_sparse::{CscMatrix, KernelVariant, SparseError};

/// A two-way partition of a graph's nodes.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Side assignment per node (`true` = upper-median Fiedler half).
    pub side: Vec<bool>,
    /// The Fiedler vector estimate used for the split.
    pub fiedler: Vec<f64>,
    /// Total weight of edges crossing the cut.
    pub cut_weight: f64,
    /// `|side_true| / n` — 0.5 for a perfectly balanced split.
    pub balance: f64,
    /// Total inner solver iterations (0 for direct solves; the paper's
    /// `N_e` aggregated over the 5 inverse-power steps for PCG).
    pub inner_iterations: usize,
}

/// Shift used to keep the Laplacian invertible while preserving its
/// eigenvectors: a uniform fraction of the mean weighted degree.
fn uniform_shift(g: &Graph) -> f64 {
    let n = g.num_nodes().max(1);
    1e-3 * 2.0 * g.total_weight() / n as f64
}

/// Builds the uniformly-shifted Laplacian used by both solver paths.
fn shifted_laplacian(g: &Graph) -> (CscMatrix, f64) {
    let s = uniform_shift(g);
    (laplacian_with_shifts(g, &vec![s; g.num_nodes()]), s)
}

/// Splits at the median of a Fiedler vector and computes quality metrics.
fn split(g: &Graph, fiedler: Vec<f64>, inner_iterations: usize) -> Bisection {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    // total_cmp: a NaN entry (solver breakdown upstream) must not feed the
    // sort an inconsistent comparator — it sorts last instead.
    order.sort_by(|&a, &b| fiedler[a].total_cmp(&fiedler[b]));
    let mut side = vec![false; n];
    for &i in order.iter().skip(n / 2) {
        side[i] = true;
    }
    let cut_weight = g.edges().iter().filter(|e| side[e.u] != side[e.v]).map(|e| e.weight).sum();
    let balance = side.iter().filter(|&&s| s).count() as f64 / n.max(1) as f64;
    Bisection { side, fiedler, cut_weight, balance, inner_iterations }
}

/// Spectral bisection with a direct solver for the inverse-power steps
/// (the paper's "Direct" column in Table 3), the Laplacian factorization
/// running on up to `factor_threads` pool workers. The parallel factor is
/// bit-identical to the serial one, so the bisection is unchanged at
/// every count.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] for degenerate inputs.
pub fn bisect_direct_threads(
    g: &Graph,
    steps: usize,
    seed: u64,
    factor_threads: usize,
) -> Result<Bisection, SparseError> {
    let (l, _) = shifted_laplacian(g);
    let solver = DirectSolver::new_kernel(&l, KernelVariant::Scalar, factor_threads)?;
    let res = fiedler_vector(g.num_nodes(), |b| (solver.solve(b), 0), steps, seed);
    Ok(split(g, res.vector, 0))
}

/// Spectral bisection with sparsifier-preconditioned PCG for the
/// inverse-power steps. `precond` must be built from a sparsifier of `g`
/// sharing the same uniform shift (see [`partition_shift`]).
///
/// # Errors
///
/// Currently infallible once the preconditioner exists, but returns
/// `Result` for interface symmetry with [`bisect_direct_threads`].
pub fn bisect_pcg(
    g: &Graph,
    precond: &CholPreconditioner,
    steps: usize,
    seed: u64,
    tol: f64,
) -> Result<Bisection, SparseError> {
    let (l, _) = shifted_laplacian(g);
    let opts = PcgOptions::with_tolerance(tol);
    let res = fiedler_vector(
        g.num_nodes(),
        |b| {
            let s = pcg(&l, b, precond, &opts);
            (s.x, s.iterations)
        },
        steps,
        seed,
    );
    Ok(split(g, res.vector, res.total_inner_iterations))
}

/// The uniform diagonal shift [`bisect_direct_threads`] / [`bisect_pcg`] apply —
/// build sparsifier preconditioners under the same shift so the
/// preconditioned operator stays spectrally matched.
pub fn partition_shift(g: &Graph) -> f64 {
    uniform_shift(g)
}

/// A k-way partition produced by recursive spectral bisection.
#[derive(Debug, Clone)]
pub struct KWayPartition {
    /// Part index (`0..k`) per node.
    pub assignment: Vec<usize>,
    /// Number of parts.
    pub parts: usize,
    /// Total weight of edges crossing between different parts.
    pub cut_weight: f64,
}

/// Quality metrics of a partition's edge cut (see
/// [`KWayPartition::edge_cut`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeCut {
    /// Number of edges whose endpoints lie in different parts.
    pub count: usize,
    /// Total weight of those edges.
    pub weight: f64,
    /// `weight / total graph weight` (0 when the graph has no edges).
    pub fraction: f64,
}

/// One part's extracted subgraph with its local↔global index maps.
#[derive(Debug, Clone)]
pub struct PartitionPiece {
    /// Which part (`0..k`) this piece is.
    pub part: usize,
    /// The induced subgraph, nodes relabeled to `0..nodes.len()`.
    pub graph: Graph,
    /// `nodes[local] = global` node-id map.
    pub nodes: Vec<usize>,
    /// `edges[local] = global` edge-id map (strictly increasing).
    pub edges: Vec<usize>,
}

/// A full k-way decomposition: one [`PartitionPiece`] per part plus the
/// separator structure between them.
#[derive(Debug, Clone)]
pub struct PartitionSubgraphs {
    /// Extracted per-part subgraphs, in part order.
    pub pieces: Vec<PartitionPiece>,
    /// Global ids of the boundary edges (endpoints in different parts),
    /// in increasing id order.
    pub boundary_edges: Vec<usize>,
    /// Global ids of the separator nodes (incident to at least one
    /// boundary edge), in increasing id order.
    pub separator_nodes: Vec<usize>,
}

impl KWayPartition {
    /// Sizes of the parts.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }

    /// Node ids of each part, in increasing id order per part.
    pub fn part_nodes(&self) -> Vec<Vec<usize>> {
        let mut nodes = vec![Vec::new(); self.parts];
        for (v, &p) in self.assignment.iter().enumerate() {
            nodes[p].push(v);
        }
        nodes
    }

    /// Cut metrics of this partition measured on `g`: how many edges
    /// (and how much conductance) the decomposition severs.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different node count than the partition.
    pub fn edge_cut(&self, g: &Graph) -> EdgeCut {
        assert_eq!(
            g.num_nodes(),
            self.assignment.len(),
            "partition and graph node counts must agree"
        );
        let mut count = 0usize;
        let mut weight = 0.0f64;
        for e in g.edges() {
            if self.assignment[e.u] != self.assignment[e.v] {
                count += 1;
                weight += e.weight;
            }
        }
        let total = g.total_weight();
        EdgeCut { count, weight, fraction: if total > 0.0 { weight / total } else { 0.0 } }
    }

    /// Load-balance ratio: largest part size over the ideal `n / k`
    /// (1.0 = perfectly balanced, 2.0 = one part twice the ideal size).
    ///
    /// Returns 1.0 for empty partitions.
    pub fn balance_ratio(&self) -> f64 {
        let n = self.assignment.len();
        if n == 0 || self.parts == 0 {
            return 1.0;
        }
        let max = self.part_sizes().into_iter().max().unwrap_or(0);
        max as f64 * self.parts as f64 / n as f64
    }

    /// Extracts every part's induced subgraph with local↔global node and
    /// edge maps, plus the boundary edges and separator nodes between
    /// parts — the decomposition the partition-parallel sparsifier
    /// densifies concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different node count than the partition.
    pub fn extract_subgraphs(&self, g: &Graph) -> PartitionSubgraphs {
        assert_eq!(
            g.num_nodes(),
            self.assignment.len(),
            "partition and graph node counts must agree"
        );
        // One pass over the nodes and one over the edges (parts have
        // disjoint node sets, so a single local-id array serves them all).
        let part_nodes = self.part_nodes();
        let mut local_id = vec![0usize; g.num_nodes()];
        for nodes in &part_nodes {
            for (li, &v) in nodes.iter().enumerate() {
                local_id[v] = li;
            }
        }
        let mut part_edges: Vec<Vec<Edge>> = vec![Vec::new(); self.parts];
        let mut part_edge_maps: Vec<Vec<usize>> = vec![Vec::new(); self.parts];
        let mut boundary_edges = Vec::new();
        let mut on_separator = vec![false; g.num_nodes()];
        for (id, e) in g.edges().iter().enumerate() {
            let (pu, pv) = (self.assignment[e.u], self.assignment[e.v]);
            if pu == pv {
                part_edges[pu].push(Edge::new(local_id[e.u], local_id[e.v], e.weight));
                part_edge_maps[pu].push(id);
            } else {
                boundary_edges.push(id);
                on_separator[e.u] = true;
                on_separator[e.v] = true;
            }
        }
        let pieces = part_nodes
            .into_iter()
            .zip(part_edges.into_iter().zip(part_edge_maps))
            .enumerate()
            .map(|(part, (nodes, (edges, edge_map)))| {
                let graph = Graph::from_edge_list(nodes.len(), edges)
                    .expect("relabeled edges of a valid graph are valid");
                PartitionPiece { part, graph, nodes, edges: edge_map }
            })
            .collect();
        let separator_nodes = (0..g.num_nodes()).filter(|&v| on_separator[v]).collect();
        PartitionSubgraphs { pieces, boundary_edges, separator_nodes }
    }
}

/// Recursive spectral bisection into `k` parts (`k ≥ 1`), the standard
/// extension of Fiedler bisection used by spectral partitioners. Each
/// level splits the induced subgraph at a size-proportional quantile of
/// its Fiedler vector; disconnected pieces fall back to balanced
/// component packing.
///
/// The per-level [`DirectSolver`] factorizations run on up to
/// `factor_threads` pool workers (see [`DirectSolver::new_kernel`]). The
/// partitioner's own full-size factorization dominates setup time on one
/// core, so this is where the parallel numeric Cholesky pays off first.
/// The parallel factor is bit-identical to the serial one, so the
/// resulting partition is **the same** at every thread count.
///
/// # Errors
///
/// Returns [`SparseError::NotPositiveDefinite`] for degenerate inputs.
///
/// # Panics
///
/// Panics if `k == 0` or the graph is empty.
pub fn recursive_bisection_threads(
    g: &Graph,
    k: usize,
    steps: usize,
    seed: u64,
    factor_threads: usize,
) -> Result<KWayPartition, SparseError> {
    assert!(k > 0, "at least one part is required");
    assert!(g.num_nodes() > 0, "graph must be non-empty");
    let mut assignment = vec![0usize; g.num_nodes()];
    let all: Vec<usize> = (0..g.num_nodes()).collect();
    let mut next_part = 0usize;
    partition_rec(g, &all, k, steps, seed, factor_threads, &mut assignment, &mut next_part)?;
    let cut_weight =
        g.edges().iter().filter(|e| assignment[e.u] != assignment[e.v]).map(|e| e.weight).sum();
    Ok(KWayPartition { assignment, parts: next_part, cut_weight })
}

/// Recursive helper: partitions the node subset `nodes` into `k` parts,
/// writing final part ids through `assignment` / `next_part`.
#[allow(clippy::too_many_arguments)]
fn partition_rec(
    g: &Graph,
    nodes: &[usize],
    k: usize,
    steps: usize,
    seed: u64,
    factor_threads: usize,
    assignment: &mut [usize],
    next_part: &mut usize,
) -> Result<(), SparseError> {
    if k == 1 || nodes.len() <= 1 {
        let id = *next_part;
        *next_part += 1;
        for &v in nodes {
            assignment[v] = id;
        }
        return Ok(());
    }
    let k_left = k / 2;
    let k_right = k - k_left;
    // Target size of the left side, proportional to its part count.
    let left_target = nodes.len() * k_left / k;
    let (sub, map) = g.induced_subgraph(nodes);
    let (left, right): (Vec<usize>, Vec<usize>) = if sub.is_connected() && sub.num_edges() > 0 {
        // Split at the size-proportional quantile of the Fiedler vector.
        let shift = 1e-3 * 2.0 * sub.total_weight() / sub.num_nodes().max(1) as f64;
        let l = laplacian_with_shifts(&sub, &vec![shift; sub.num_nodes()]);
        let solver = DirectSolver::new_kernel(&l, KernelVariant::Scalar, factor_threads)?;
        let res = fiedler_vector(sub.num_nodes(), |b| (solver.solve(b), 0), steps, seed);
        let mut order: Vec<usize> = (0..sub.num_nodes()).collect();
        order.sort_by(|&a, &b| res.vector[a].total_cmp(&res.vector[b]));
        let left: Vec<usize> = order[..left_target].iter().map(|&i| map[i]).collect();
        let right: Vec<usize> = order[left_target..].iter().map(|&i| map[i]).collect();
        (left, right)
    } else {
        // Disconnected (or edgeless) piece: pack components greedily into
        // the smaller side first.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for comp in sub.components() {
            let target =
                if left.len() <= left_target.saturating_sub(1) { &mut left } else { &mut right };
            target.extend(comp.iter().map(|&i| map[i]));
        }
        if left.is_empty() {
            left.push(right.pop().expect("at least two nodes in this branch"));
        }
        (left, right)
    };
    partition_rec(
        g,
        &left,
        k_left,
        steps,
        seed.wrapping_add(1),
        factor_threads,
        assignment,
        next_part,
    )?;
    partition_rec(
        g,
        &right,
        k_right,
        steps,
        seed.wrapping_add(2),
        factor_threads,
        assignment,
        next_part,
    )
}

/// Fraction of nodes assigned to different sides, minimised over the
/// global side swap (partitions are defined up to relabeling). This is
/// the paper's `RelErr`.
///
/// # Panics
///
/// Panics if the two assignments have different lengths.
pub fn relative_error(a: &[bool], b: &[bool]) -> f64 {
    assert_eq!(a.len(), b.len(), "assignments must have equal length");
    if a.is_empty() {
        return 0.0;
    }
    let diff = a.iter().zip(b.iter()).filter(|(x, y)| x != y).count();
    let n = a.len();
    (diff.min(n - diff)) as f64 / n as f64
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tracered_core::{sparsify, SparsifyConfig};
    use tracered_graph::gen::{grid2d, tri_mesh, WeightProfile};
    use tracered_graph::laplacian::ShiftPolicy;

    #[test]
    fn grid_bisection_is_balanced_contiguous_cut() {
        // Rectangular grid: λ₂ is simple (a square grid's Fiedler pair is
        // degenerate, making the cut direction depend on the random
        // start), so every seed converges to the across-the-short-axis cut.
        let g = grid2d(10, 9, WeightProfile::Unit, 1);
        let b = bisect_direct_threads(&g, 8, 3, 1).unwrap();
        assert!((b.balance - 0.5).abs() < 0.02);
        // Optimal cut of a 10×9 grid is 9; spectral should be close.
        assert!(b.cut_weight <= 12.0, "cut weight {}", b.cut_weight);
    }

    #[test]
    fn two_cluster_graph_is_split_on_the_weak_edge() {
        let mut edges = Vec::new();
        for a in 0..8 {
            for b in (a + 1)..8 {
                edges.push((a, b, 1.0));
                edges.push((a + 8, b + 8, 1.0));
            }
        }
        edges.push((0, 8, 0.01));
        let g = Graph::from_edges(16, &edges).unwrap();
        let b = bisect_direct_threads(&g, 10, 1, 1).unwrap();
        assert!((b.cut_weight - 0.01).abs() < 1e-9, "cut {}", b.cut_weight);
        assert_eq!(b.side[0..8].iter().filter(|&&s| s).count() % 8, 0);
    }

    #[test]
    fn pcg_bisection_matches_direct() {
        let g = tri_mesh(12, 12, WeightProfile::Unit, 5);
        let direct = bisect_direct_threads(&g, 5, 7, 1).unwrap();
        let s = partition_shift(&g);
        let sp = sparsify(&g, &SparsifyConfig::default().shift(ShiftPolicy::Uniform(s))).unwrap();
        let pre = CholPreconditioner::from_matrix(&sp.laplacian(&g)).unwrap();
        let iter = bisect_pcg(&g, &pre, 5, 7, 1e-3).unwrap();
        let err = relative_error(&direct.side, &iter.side);
        assert!(err < 0.05, "RelErr {err} too large");
        assert!(iter.inner_iterations > 0);
    }

    #[test]
    fn relative_error_handles_side_swap() {
        let a = vec![true, true, false, false];
        let b: Vec<bool> = a.iter().map(|x| !x).collect();
        assert_eq!(relative_error(&a, &b), 0.0);
        let c = vec![true, false, false, false];
        assert_eq!(relative_error(&a, &c), 0.25);
        assert_eq!(relative_error(&[], &[]), 0.0);
    }

    #[test]
    fn four_way_partition_of_grid_is_balanced_quadrants() {
        // Rectangular at every recursion level so each Fiedler problem has
        // a simple λ₂ (12×10 splits into 6×10 halves, then 6×5 quarters).
        let g = grid2d(12, 10, WeightProfile::Unit, 4);
        let p = recursive_bisection_threads(&g, 4, 8, 1, 1).unwrap();
        assert_eq!(p.parts, 4);
        assert_eq!(p.part_sizes(), vec![30; 4]);
        // Quadrant cut of a 12×10 grid costs 10 + 6 + 6 = 22; allow slack.
        assert!(p.cut_weight <= 32.0, "cut weight {}", p.cut_weight);
        // Every part must be contiguous-ish: its induced subgraph connected.
        for part in 0..4 {
            let nodes: Vec<usize> = (0..120).filter(|&v| p.assignment[v] == part).collect();
            let (sub, _) = g.induced_subgraph(&nodes);
            assert!(sub.is_connected(), "part {part} is disconnected");
        }
    }

    #[test]
    fn k_equals_one_puts_everything_in_one_part() {
        let g = grid2d(4, 4, WeightProfile::Unit, 1);
        let p = recursive_bisection_threads(&g, 1, 5, 0, 1).unwrap();
        assert_eq!(p.parts, 1);
        assert_eq!(p.cut_weight, 0.0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn odd_k_produces_proportional_sizes() {
        let g = grid2d(9, 10, WeightProfile::Unit, 2);
        let p = recursive_bisection_threads(&g, 3, 6, 3, 1).unwrap();
        assert_eq!(p.parts, 3);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 90);
        for &s in &sizes {
            assert!((25..=35).contains(&s), "part sizes {sizes:?} unbalanced");
        }
    }

    #[test]
    fn k_exceeding_nodes_degenerates_gracefully() {
        let g = Graph::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let p = recursive_bisection_threads(&g, 8, 3, 0, 1).unwrap();
        assert!(p.parts <= 8);
        assert_eq!(p.assignment.len(), 3);
    }

    #[test]
    fn balance_is_exact_for_even_node_counts() {
        let g = grid2d(6, 6, WeightProfile::Unit, 2);
        let b = bisect_direct_threads(&g, 6, 1, 1).unwrap();
        assert_eq!(b.side.iter().filter(|&&s| s).count(), 18);
    }

    #[test]
    fn edge_cut_counts_and_weighs_crossing_edges() {
        // Path 0-1-2-3 with parts {0,1} and {2,3}: only edge (1,2) crosses.
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.5), (2, 3, 3.0)]).unwrap();
        let p = KWayPartition { assignment: vec![0, 0, 1, 1], parts: 2, cut_weight: 2.5 };
        let cut = p.edge_cut(&g);
        assert_eq!(cut.count, 1);
        assert!((cut.weight - 2.5).abs() < 1e-12);
        assert!((cut.fraction - 2.5 / 6.5).abs() < 1e-12);
        // The construction-time cut_weight field agrees with the metric.
        let rb = recursive_bisection_threads(&g, 2, 5, 0, 1).unwrap();
        assert!((rb.edge_cut(&g).weight - rb.cut_weight).abs() < 1e-12);
    }

    #[test]
    fn edge_cut_of_single_part_is_empty() {
        let g = grid2d(4, 4, WeightProfile::Unit, 1);
        let p = recursive_bisection_threads(&g, 1, 5, 0, 1).unwrap();
        let cut = p.edge_cut(&g);
        assert_eq!(cut.count, 0);
        assert_eq!(cut.weight, 0.0);
        assert_eq!(cut.fraction, 0.0);
    }

    #[test]
    #[should_panic(expected = "node counts must agree")]
    fn edge_cut_rejects_mismatched_graph() {
        let g = grid2d(4, 4, WeightProfile::Unit, 1);
        let p = KWayPartition { assignment: vec![0, 1], parts: 2, cut_weight: 0.0 };
        p.edge_cut(&g);
    }

    #[test]
    fn balance_ratio_measures_worst_part() {
        let balanced = KWayPartition { assignment: vec![0, 0, 1, 1], parts: 2, cut_weight: 0.0 };
        assert!((balanced.balance_ratio() - 1.0).abs() < 1e-12);
        let skewed = KWayPartition { assignment: vec![0, 0, 0, 1], parts: 2, cut_weight: 0.0 };
        assert!((skewed.balance_ratio() - 1.5).abs() < 1e-12);
        let quad = recursive_bisection_threads(&grid2d(12, 10, WeightProfile::Unit, 4), 4, 8, 1, 1)
            .unwrap();
        assert!((quad.balance_ratio() - 1.0).abs() < 1e-12, "quadrants are exactly balanced");
    }

    #[test]
    fn extract_subgraphs_partitions_nodes_and_edges() {
        let g = grid2d(10, 8, WeightProfile::LogUniform { lo: 0.5, hi: 2.0 }, 6);
        let p = recursive_bisection_threads(&g, 4, 8, 2, 1).unwrap();
        let subs = p.extract_subgraphs(&g);
        assert_eq!(subs.pieces.len(), p.parts);
        // Node maps tile the node set exactly.
        let mut seen_nodes = vec![false; g.num_nodes()];
        for piece in &subs.pieces {
            assert_eq!(piece.graph.num_nodes(), piece.nodes.len());
            assert_eq!(piece.graph.num_edges(), piece.edges.len());
            for &v in &piece.nodes {
                assert_eq!(p.assignment[v], piece.part);
                assert!(!seen_nodes[v], "node {v} appears in two pieces");
                seen_nodes[v] = true;
            }
            // Edge maps translate endpoints and weights faithfully.
            for (local, &global) in piece.edges.iter().enumerate() {
                let le = piece.graph.edge(local);
                let ge = g.edge(global);
                assert_eq!(ge.weight, le.weight);
                assert_eq!((piece.nodes[le.u], piece.nodes[le.v]), (ge.u, ge.v));
            }
        }
        assert!(seen_nodes.iter().all(|&s| s));
        // Internal edges + boundary edges tile the edge set exactly.
        let internal: usize = subs.pieces.iter().map(|p| p.edges.len()).sum();
        assert_eq!(internal + subs.boundary_edges.len(), g.num_edges());
        assert_eq!(subs.boundary_edges.len(), p.edge_cut(&g).count);
        for &id in &subs.boundary_edges {
            let e = g.edge(id);
            assert_ne!(p.assignment[e.u], p.assignment[e.v]);
            assert!(subs.separator_nodes.binary_search(&e.u).is_ok());
            assert!(subs.separator_nodes.binary_search(&e.v).is_ok());
        }
        // Every separator node is incident to some boundary edge.
        for &v in &subs.separator_nodes {
            assert!(subs.boundary_edges.iter().any(|&id| {
                let e = g.edge(id);
                e.u == v || e.v == v
            }));
        }
    }

    #[test]
    fn part_nodes_matches_assignment() {
        let g = grid2d(9, 7, WeightProfile::Unit, 3);
        let p = recursive_bisection_threads(&g, 3, 7, 5, 1).unwrap();
        let nodes = p.part_nodes();
        assert_eq!(nodes.len(), p.parts);
        let sizes: Vec<usize> = nodes.iter().map(Vec::len).collect();
        assert_eq!(sizes, p.part_sizes());
        for (part, list) in nodes.iter().enumerate() {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "part {part} nodes unsorted");
            assert!(list.iter().all(|&v| p.assignment[v] == part));
        }
    }
}
