//! The trace-reduction spectral-criticality metric (paper §3.1–3.2).
//!
//! Recovering off-subgraph edge `(p, q)` with weight `w` changes the trace
//! of `L_S⁻¹ L_G` by (paper Eq. 11)
//!
//! ```text
//!                  w · Σ_{(i,j)∈E} w_ij (e_ijᵀ L_S⁻¹ e_pq)²
//! TrRed_S(p, q) = ───────────────────────────────────────────
//!                           1 + w · R_S(p, q)
//! ```
//!
//! Computing the full sum for every candidate is `Ω(m²)`; the paper's
//! physics-inspired truncation keeps only the terms where
//! `e_ijᵀ L_S⁻¹ e_pq` is large — edges near the injection points. In the
//! electrical analogy, `e_ijᵀ L_S⁻¹ e_pq` is the voltage drop across
//! `(i, j)` when a unit current enters the subgraph at `p` and leaves at
//! `q`; the significant drops occur between the high-voltage region around
//! `p` and the low-voltage region around `q`, hence the β-layer BFS
//! neighbourhood restriction of Eq. 12.
//!
//! Two evaluators are provided:
//!
//! - [`tree_phase_scores_threads`]: exact voltage propagation when `S` is a tree
//!   (Eqs. 13–15) — current flows only along the unique `p→q` tree path,
//!   so node voltages follow from BFS with the path edges marked;
//! - [`subgraph_phase_scores_threads`]: general subgraphs via the sparse
//!   approximate inverse `Z̃ ≈ L⁻¹` of the Cholesky factor (Eq. 20).
//!
//! # Parallel evaluation
//!
//! Each candidate's score depends only on read-only shared state (graph,
//! tree, factor, approximate inverse) plus private scratch, so scoring is
//! embarrassingly parallel. The `_threads` variants
//! ([`tree_phase_scores_threads`], [`subgraph_phase_scores_threads`])
//! fan candidates out over a work-stealing chunk scheduler
//! ([`tracered_par`]) with one scratch arena per worker; outputs stay
//! index-aligned and **bit-identical** to the serial path for every
//! thread count, because each score is computed by exactly the same
//! per-candidate code either way.

use std::collections::VecDeque;

use tracered_graph::{Graph, RootedTree};
use tracered_sparse::{ApproxInverse, CholeskyFactor};

/// Minimum candidates per chunk: a β-layer BFS costs far more than queue
/// traffic, so modest chunks still amortise scratch reuse while giving
/// the scheduler enough pieces to balance skewed neighbourhood sizes.
const MIN_CHUNK: usize = 16;

/// Reusable scratch for tree-phase scoring — one arena per worker.
struct TreeScratch {
    stamp: u64,
    member_p: Vec<u64>,
    member_q: Vec<u64>,
    volt_p: Vec<f64>,
    volt_q: Vec<f64>,
    path_stamp: Vec<u64>,
    edge_stamp: Vec<u64>,
    nbr_p: Vec<usize>,
    queue: VecDeque<(usize, usize)>,
}

impl TreeScratch {
    fn new(n: usize, m: usize) -> Self {
        TreeScratch {
            stamp: 0,
            member_p: vec![0; n],
            member_q: vec![0; n],
            volt_p: vec![0.0; n],
            volt_q: vec![0.0; n],
            path_stamp: vec![0; m],
            edge_stamp: vec![0; m],
            nbr_p: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Recycling factory for the pool's per-worker scratch cache: a
    /// cached arena is valid whenever its dimensions match — the stamp
    /// counter keeps incrementing, which is exactly how stale entries
    /// are invalidated within a region already. Anything else (other
    /// graph, other densification level) is rebuilt from scratch.
    fn recycle(cached: Option<Self>, n: usize, m: usize) -> Self {
        match cached {
            Some(s) if s.member_p.len() == n && s.path_stamp.len() == m => s,
            _ => TreeScratch::new(n, m),
        }
    }
}

/// Scores one candidate against the spanning tree (the body of the
/// serial loop, shared verbatim by the serial and parallel paths).
fn tree_phase_score_one(
    g: &Graph,
    tree: &RootedTree,
    eid: usize,
    r: f64,
    beta: usize,
    s: &mut TreeScratch,
) -> f64 {
    let e = g.edge(eid);
    let (p, q, w) = (e.u, e.v, e.weight);
    s.stamp += 1;
    let stamp = s.stamp;
    // Mark the unique tree path p→q.
    for pe in tree.path_edges(p, q) {
        s.path_stamp[pe] = stamp;
    }
    // BFS β layers from p in the tree; v(p) = R, dropping across path
    // edges only (Eq. 13).
    s.nbr_p.clear();
    tree_bfs_voltages(
        g,
        tree,
        p,
        beta,
        r,
        -1.0,
        stamp,
        &s.path_stamp,
        &mut s.member_p,
        &mut s.volt_p,
        &mut s.queue,
        Some(&mut s.nbr_p),
    );
    // BFS β layers from q; v(q) = 0, rising across path edges (Eq. 14).
    tree_bfs_voltages(
        g,
        tree,
        q,
        beta,
        0.0,
        1.0,
        stamp,
        &s.path_stamp,
        &mut s.member_q,
        &mut s.volt_q,
        &mut s.queue,
        None,
    );
    // Σ over graph edges (i, j) with i ∈ N(p, β), j ∈ N(q, β).
    let mut sum = 0.0;
    for &i in &s.nbr_p {
        for &(j, cross_eid) in g.neighbors(i) {
            if s.member_q[j] != stamp || s.edge_stamp[cross_eid] == stamp {
                continue;
            }
            s.edge_stamp[cross_eid] = stamp;
            let drop = s.volt_p[i] - s.volt_q[j];
            sum += g.edge(cross_eid).weight * drop * drop;
        }
    }
    w * sum / (1.0 + w * r)
}

/// Scores all `candidates` (off-tree edge ids of `g`) against the spanning
/// tree using the truncated trace reduction of Eq. 15, on `threads`
/// workers.
///
/// `resistances[k]` must hold the tree effective resistance
/// `R_T(p_k, q_k)` of candidate `k` (batch-computed with
/// [`tracered_graph::lca::tree_resistances`]). `beta` is the BFS
/// truncation radius.
///
/// Returns one score per candidate, aligned with the input order.
/// Candidates are chunked onto a work-stealing queue; each worker owns a
/// private scratch arena (stamps, voltages, BFS queue), so scores are
/// bit-identical to the serial path (`threads == 1`) in the original
/// candidate order.
///
/// # Panics
///
/// Panics if `resistances.len() != candidates.len()` or an edge id is out
/// of bounds.
pub fn tree_phase_scores_threads(
    g: &Graph,
    tree: &RootedTree,
    candidates: &[usize],
    resistances: &[f64],
    beta: usize,
    threads: usize,
) -> Vec<f64> {
    assert_eq!(candidates.len(), resistances.len(), "one resistance per candidate is required");
    let n = g.num_nodes();
    let m = g.num_edges();
    let mut scores = vec![0.0f64; candidates.len()];
    let chunk = tracered_par::chunk_size(candidates.len(), threads, MIN_CHUNK);
    tracered_par::par_chunks_mut_scratch(
        &mut scores,
        chunk,
        threads,
        |cached| TreeScratch::recycle(cached, n, m),
        |scratch, start, out| {
            for (off, slot) in out.iter_mut().enumerate() {
                let k = start + off;
                *slot = tree_phase_score_one(g, tree, candidates[k], resistances[k], beta, scratch);
            }
        },
    );
    scores
}

/// BFS over the tree adjacency (parent + children links), assigning node
/// voltages per Eqs. 13–14: the voltage changes by `sign / w_edge` across
/// path edges and is copied verbatim across non-path edges.
#[allow(clippy::too_many_arguments)]
fn tree_bfs_voltages(
    g: &Graph,
    tree: &RootedTree,
    start: usize,
    beta: usize,
    start_voltage: f64,
    sign: f64,
    stamp: u64,
    path_stamp: &[u64],
    member: &mut [u64],
    volt: &mut [f64],
    queue: &mut VecDeque<(usize, usize)>,
    mut collect: Option<&mut Vec<usize>>,
) {
    member[start] = stamp;
    volt[start] = start_voltage;
    if let Some(list) = collect.as_deref_mut() {
        list.push(start);
    }
    queue.clear();
    queue.push_back((start, 0));
    while let Some((x, d)) = queue.pop_front() {
        if d == beta {
            continue;
        }
        // Tree neighbours of x: its parent and its children.
        let parent = tree.parent(x);
        let parent_iter = if parent != tracered_graph::tree::NO_NODE {
            Some((parent, tree.parent_edge(x)))
        } else {
            None
        };
        let children_iter = tree.children(x).iter().map(|&c| (c, tree.parent_edge(c)));
        for (nbr, tree_edge) in parent_iter.into_iter().chain(children_iter) {
            if member[nbr] == stamp {
                continue;
            }
            member[nbr] = stamp;
            volt[nbr] = if path_stamp[tree_edge] == stamp {
                volt[x] + sign / g.edge(tree_edge).weight
            } else {
                volt[x]
            };
            if let Some(list) = collect.as_deref_mut() {
                list.push(nbr);
            }
            queue.push_back((nbr, d + 1));
        }
    }
}

/// Reusable scratch for subgraph-phase scoring — one arena per worker.
struct SubgraphScratch {
    stamp: u64,
    member_p: Vec<u64>,
    member_q: Vec<u64>,
    edge_stamp: Vec<u64>,
    nbr_p: Vec<usize>,
    nbr_q: Vec<usize>,
    queue: VecDeque<(usize, usize)>,
    /// Dense scatter of z̃_pq (in permuted index space).
    zpq_dense: Vec<f64>,
    zpq_touched: Vec<usize>,
}

impl SubgraphScratch {
    fn new(n: usize, m: usize) -> Self {
        SubgraphScratch {
            stamp: 0,
            member_p: vec![0; n],
            member_q: vec![0; n],
            edge_stamp: vec![0; m],
            nbr_p: Vec::new(),
            nbr_q: Vec::new(),
            queue: VecDeque::new(),
            zpq_dense: vec![0.0; n],
            zpq_touched: Vec::new(),
        }
    }

    /// Recycling factory (see [`TreeScratch::recycle`]): dimension match
    /// suffices — stamps stay monotone and `zpq_dense` is rezeroed via
    /// `zpq_touched` after every candidate, so a cached arena meets the
    /// same invariants as a fresh one.
    fn recycle(cached: Option<Self>, n: usize, m: usize) -> Self {
        match cached {
            Some(s) if s.member_p.len() == n && s.edge_stamp.len() == m => s,
            _ => SubgraphScratch::new(n, m),
        }
    }
}

/// Scores one candidate against the current subgraph (the body of the
/// serial loop, shared verbatim by the serial and parallel paths).
fn subgraph_phase_score_one(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    eid: usize,
    beta: usize,
    s: &mut SubgraphScratch,
) -> f64 {
    let perm = factor.perm();
    let e = g.edge(eid);
    let (p, q, w) = (e.u, e.v, e.weight);
    s.stamp += 1;
    let stamp = s.stamp;
    // z̃_pq = z̃_p − z̃_q in permuted space.
    let pp = perm.old_to_new(p);
    let qq = perm.old_to_new(q);
    let zp = zinv.column(pp);
    let zq = zinv.column(qq);
    // Scatter and record touched entries for cheap clearing.
    for (i, v) in zp.iter() {
        if s.zpq_dense[i] == 0.0 {
            s.zpq_touched.push(i);
        }
        s.zpq_dense[i] += v;
    }
    for (i, v) in zq.iter() {
        if s.zpq_dense[i] == 0.0 {
            s.zpq_touched.push(i);
        }
        s.zpq_dense[i] -= v;
    }
    // R̃(p, q) = ‖z̃_pq‖² (since e_pqᵀ L_S⁻¹ e_pq = ‖L⁻¹ e_pq‖²).
    let r_approx: f64 = zp.norm_sq() - 2.0 * zp.dot(zq) + zq.norm_sq();
    // β-layer neighbourhoods in the subgraph.
    s.nbr_p.clear();
    s.nbr_q.clear();
    subgraph_bfs(subgraph, p, beta, stamp, &mut s.member_p, &mut s.queue, &mut s.nbr_p);
    subgraph_bfs(subgraph, q, beta, stamp, &mut s.member_q, &mut s.queue, &mut s.nbr_q);
    // Σ over graph edges (i, j), i ∈ N_S(p, β), j ∈ N_S(q, β).
    let mut sum = 0.0;
    for &i in &s.nbr_p {
        for &(j, cross_eid) in g.neighbors(i) {
            if s.member_q[j] != stamp || s.edge_stamp[cross_eid] == stamp {
                continue;
            }
            s.edge_stamp[cross_eid] = stamp;
            let ii = perm.old_to_new(i);
            let jj = perm.old_to_new(j);
            let di = zinv.column(ii).dot_dense(&s.zpq_dense);
            let dj = zinv.column(jj).dot_dense(&s.zpq_dense);
            let drop = di - dj;
            sum += g.edge(cross_eid).weight * drop * drop;
        }
    }
    // Clear the scatter buffer.
    for &i in &s.zpq_touched {
        s.zpq_dense[i] = 0.0;
    }
    s.zpq_touched.clear();
    w * sum / (1.0 + w * r_approx)
}

/// Scores all `candidates` (off-subgraph edge ids of `g`) against a
/// general subgraph using the SPAI-based approximation of Eq. 20, on
/// `threads` workers.
///
/// Arguments:
///
/// - `subgraph`: the current sparsifier as a graph over the same node set
///   (used for the β-layer BFS — the electrical model lives in `S`);
/// - `factor`: Cholesky factorization of the subgraph Laplacian `L_S`;
/// - `zinv`: Algorithm 1 output for `factor.l()`;
/// - `beta`: BFS truncation radius.
///
/// Returns one score per candidate, aligned with the input order. Same
/// work-stealing decomposition and determinism contract as
/// [`tree_phase_scores_threads`]: one scratch arena (stamps, BFS queue,
/// z̃ scatter buffer) per worker, bit-identical index-aligned output.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn subgraph_phase_scores_threads(
    g: &Graph,
    subgraph: &Graph,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    candidates: &[usize],
    beta: usize,
    threads: usize,
) -> Vec<f64> {
    let n = g.num_nodes();
    assert_eq!(subgraph.num_nodes(), n, "subgraph must share the node set");
    assert_eq!(factor.n(), n, "factor dimension must match the graph");
    assert_eq!(zinv.n(), n, "approximate inverse dimension must match");
    let m = g.num_edges();
    let mut scores = vec![0.0f64; candidates.len()];
    let chunk = tracered_par::chunk_size(candidates.len(), threads, MIN_CHUNK);
    tracered_par::par_chunks_mut_scratch(
        &mut scores,
        chunk,
        threads,
        |cached| SubgraphScratch::recycle(cached, n, m),
        |scratch, start, out| {
            for (off, slot) in out.iter_mut().enumerate() {
                let k = start + off;
                *slot = subgraph_phase_score_one(
                    g,
                    subgraph,
                    factor,
                    zinv,
                    candidates[k],
                    beta,
                    scratch,
                );
            }
        },
    );
    scores
}

/// β-layer BFS over the subgraph, collecting members (exposed to tests).
fn subgraph_bfs(
    subgraph: &Graph,
    start: usize,
    beta: usize,
    stamp: u64,
    member: &mut [u64],
    queue: &mut VecDeque<(usize, usize)>,
    out: &mut Vec<usize>,
) {
    member[start] = stamp;
    out.push(start);
    queue.clear();
    queue.push_back((start, 0));
    while let Some((x, d)) = queue.pop_front() {
        if d == beta {
            continue;
        }
        for &(nbr, _) in subgraph.neighbors(x) {
            if member[nbr] != stamp {
                member[nbr] = stamp;
                out.push(nbr);
                queue.push_back((nbr, d + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracered_graph::gen::{random_connected, WeightProfile};
    use tracered_graph::laplacian::subgraph_laplacian;
    use tracered_graph::lca::tree_resistances;
    use tracered_graph::mst::{spanning_tree, TreeKind};
    use tracered_sparse::order::Ordering;
    use tracered_sparse::SpaiOptions;

    /// Cycle graph 0-1-…-(n-1)-0, tree = the path, one off-tree edge.
    fn cycle(n: usize) -> (Graph, RootedTree, usize) {
        let mut edges: Vec<(usize, usize, f64)> = (0..n - 1).map(|i| (i, i + 1, 1.0)).collect();
        edges.push((0, n - 1, 1.0));
        let g = Graph::from_edges(n, &edges).unwrap();
        let ids: Vec<usize> = (0..n - 1).collect();
        let tree = RootedTree::build(&g, &ids, 0).unwrap();
        (g, tree, n - 1)
    }

    #[test]
    fn cycle_closing_edge_score_matches_hand_computation() {
        // Cycle of 4: off-tree edge (0,3), R_T = 3. With β ≥ diameter the
        // sum runs over all edges; the voltage profile is v = [3,2,1,0],
        // every tree edge drops 1 and the off-tree edge drops 3:
        // sum = 3·1² + 3² = 12, score = 1·12 / (1 + 3) = 3.
        let (g, tree, off) = cycle(4);
        let scores = tree_phase_scores_threads(&g, &tree, &[off], &[3.0], 10, 1);
        assert!((scores[0] - 3.0).abs() < 1e-12, "got {}", scores[0]);
    }

    #[test]
    fn beta_zero_keeps_only_the_candidate_edge_term() {
        // With β = 0 the neighbourhoods are {p} and {q}: only edges
        // directly between p and q survive — here just the candidate
        // itself: score = w·(w_pq R²)/(1+wR) = 9/4.
        let (g, tree, off) = cycle(4);
        let scores = tree_phase_scores_threads(&g, &tree, &[off], &[3.0], 0, 1);
        assert!((scores[0] - 9.0 / 4.0).abs() < 1e-12, "got {}", scores[0]);
    }

    #[test]
    fn scores_grow_monotonically_with_beta() {
        let g = random_connected(30, 40, WeightProfile::LogUniform { lo: 0.3, hi: 3.0 }, 8);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        let mut prev: Option<Vec<f64>> = None;
        for beta in [0usize, 1, 2, 4, 8] {
            let s = tree_phase_scores_threads(&g, &tree, &st.off_tree_edges, &rs, beta, 1);
            if let Some(p) = prev {
                for (a, b) in s.iter().zip(p.iter()) {
                    assert!(a + 1e-12 >= *b, "score must grow with beta: {a} < {b}");
                }
            }
            prev = Some(s);
        }
    }

    #[test]
    fn tree_and_subgraph_phases_agree_on_a_tree_subgraph() {
        // Scoring against the tree with the subgraph-phase machinery
        // (exact inverse, full beta) must match the tree-phase scores.
        let g = random_connected(18, 20, WeightProfile::Uniform { lo: 0.5, hi: 2.0 }, 15);
        let n = g.num_nodes();
        let st = spanning_tree(&g, TreeKind::MaxWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        let tree_scores = tree_phase_scores_threads(&g, &tree, &st.off_tree_edges, &rs, n, 1);
        let shifts = vec![1e-9; n];
        let ls = subgraph_laplacian(&g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.0)).unwrap();
        let sub = g.edge_subgraph(&st.tree_edges);
        let sub_scores =
            subgraph_phase_scores_threads(&g, &sub, &factor, &zinv, &st.off_tree_edges, n, 1);
        for (k, (a, b)) in tree_scores.iter().zip(sub_scores.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-4 * (1.0 + a.abs()),
                "edge {k}: tree phase {a} vs subgraph phase {b}"
            );
        }
    }

    #[test]
    fn scores_are_finite_and_nonnegative() {
        let g = random_connected(40, 80, WeightProfile::LogUniform { lo: 0.1, hi: 10.0 }, 77);
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let tree = RootedTree::build(&g, &st.tree_edges, 0).unwrap();
        let pairs: Vec<(usize, usize)> =
            st.off_tree_edges.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
        let rs = tree_resistances(&tree, &pairs);
        for beta in [1usize, 3, 5] {
            for s in tree_phase_scores_threads(&g, &tree, &st.off_tree_edges, &rs, beta, 1) {
                assert!(s.is_finite() && s >= 0.0);
            }
        }
    }

    #[test]
    fn empty_candidate_list_yields_empty_scores() {
        let (g, tree, _) = cycle(5);
        assert!(tree_phase_scores_threads(&g, &tree, &[], &[], 3, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "one resistance per candidate")]
    fn mismatched_resistances_panic() {
        let (g, tree, off) = cycle(5);
        tree_phase_scores_threads(&g, &tree, &[off], &[], 3, 1);
    }
}
