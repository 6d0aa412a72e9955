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

/// Minimum candidates per chunk: scoring one candidate costs far more than
/// queue traffic, so modest chunks still amortise scratch reuse while
/// giving the scheduler enough pieces to balance skewed neighbourhood
/// sizes.
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

/// Budget of the neighbourhood table, in arena entries per node plus
/// edge of `g`. Measured at β = 5, the lists of all candidate endpoints
/// hold Σ|N_S(v, β)| ≈ 17.5–22·n entries per densification round on a
/// weighted `tri_mesh(150, 88)` (budget 8·(n + m) ≈ 31.7·n) and 16–19·n on
/// a synthetic power grid (budget ≈ 23.8·n). A hub graph (a wheel's β-ball
/// is the whole graph) would need O(n²) entries, so endpoints past the
/// budget are searched per candidate instead.
const TABLE_ENTRIES_PER_NODE_AND_EDGE: usize = 8;

/// The β-layer BFS lists `N_S(v, β)` of the candidate endpoints, built
/// once per scoring call into one flat arena of node ids.
struct Neighbourhoods<'g> {
    subgraph: &'g Graph,
    beta: usize,
    /// `(start, len)` of `v`'s list in `arena`; `len == 0` (lists hold at
    /// least `v` itself) marks a node without one.
    spans: Vec<(u32, u32)>,
    arena: Vec<u32>,
}

/// Arena cap of the neighbourhood table for a graph with `n` nodes and
/// `m` edges.
fn table_cap(n: usize, m: usize) -> usize {
    (TABLE_ENTRIES_PER_NODE_AND_EDGE * (n + m)).min(u32::MAX as usize)
}

impl<'g> Neighbourhoods<'g> {
    /// Tabulates the endpoints of `candidates` in candidate order until
    /// the next list would push the arena past its cap.
    fn build(g: &Graph, subgraph: &'g Graph, candidates: &[usize], beta: usize) -> Self {
        let n = subgraph.num_nodes();
        let cap = table_cap(n, g.num_edges());
        let mut table =
            Neighbourhoods { subgraph, beta, spans: vec![(0, 0); n], arena: Vec::new() };
        let mut seen = vec![0u32; n];
        let mut list = Vec::new();
        // One stamp per tabulated endpoint: at most n, so it cannot wrap.
        let mut stamp = 0u32;
        for &eid in candidates {
            let e = g.edge(eid);
            for v in [e.u, e.v] {
                if table.spans[v].1 != 0 {
                    continue;
                }
                stamp += 1;
                list.clear();
                subgraph_bfs(subgraph, v, beta, stamp, &mut seen, &mut list);
                if table.arena.len() + list.len() > cap {
                    return table;
                }
                table.spans[v] = (table.arena.len() as u32, list.len() as u32);
                table.arena.extend_from_slice(&list);
            }
        }
        table
    }

    /// `N_S(v, β)` in BFS order: `v`'s stored list, or for a node without
    /// one a fresh BFS into `out` that stamps `member` with `stamp`.
    fn neighbourhood<'a>(
        &'a self,
        v: usize,
        stamp: u32,
        member: &mut [u32],
        out: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        let (start, len) = self.spans[v];
        if len > 0 {
            return &self.arena[start as usize..(start + len) as usize];
        }
        out.clear();
        subgraph_bfs(self.subgraph, v, self.beta, stamp, member, out);
        out
    }
}

/// Reusable scratch for subgraph-phase scoring — one arena per worker.
struct SubgraphScratch {
    /// Generation counter for the stamp arrays below; they are zeroed
    /// whenever it wraps, since the pool keeps a worker's scratch for the
    /// life of the process.
    stamp: u32,
    /// Marks of a BFS from p that missed the table (visited set only).
    member_p: Vec<u32>,
    /// Membership of N_S(q, β), also the visited set of its BFS.
    member_q: Vec<u32>,
    /// Nodes of N_S(p, β) whose incident edges were already summed.
    done_p: Vec<u32>,
    /// `(stamp, z̃_i·z̃_pq)` per node: each dot product once per candidate.
    memo: Vec<(u32, f64)>,
    nbr_p: Vec<u32>,
    nbr_q: Vec<u32>,
    /// Dense scatter of z̃_pq (in permuted index space), zero between
    /// candidates.
    zpq_dense: Vec<f64>,
}

impl SubgraphScratch {
    fn new(n: usize) -> Self {
        SubgraphScratch {
            stamp: 0,
            member_p: vec![0; n],
            member_q: vec![0; n],
            done_p: vec![0; n],
            memo: vec![(0, 0.0); n],
            nbr_p: Vec::new(),
            nbr_q: Vec::new(),
            zpq_dense: vec![0.0; n],
        }
    }

    /// Recycling factory (see [`TreeScratch::recycle`]): dimension match
    /// suffices — stamps stay monotone (wraps reset every stamp array)
    /// and `zpq_dense` is rezeroed over the patterns of z̃_p and z̃_q
    /// after every candidate, so a cached arena meets the same invariants
    /// as a fresh one.
    fn recycle(cached: Option<Self>, n: usize) -> Self {
        match cached {
            Some(s) if s.member_p.len() == n => s,
            _ => SubgraphScratch::new(n),
        }
    }

    /// The next stamp, after zeroing every stamp array if the counter
    /// would wrap.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.member_p.fill(0);
            self.member_q.fill(0);
            self.done_p.fill(0);
            self.memo.fill((0, 0.0));
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }
}

/// Scores one candidate against the current subgraph (the body of the
/// serial loop, shared verbatim by the serial and parallel paths).
fn subgraph_phase_score_one(
    g: &Graph,
    hoods: &Neighbourhoods<'_>,
    factor: &CholeskyFactor,
    zinv: &ApproxInverse,
    eid: usize,
    s: &mut SubgraphScratch,
) -> f64 {
    let perm = factor.perm();
    let e = g.edge(eid);
    let (p, q, w) = (e.u, e.v, e.weight);
    let stamp = s.next_stamp();
    // z̃_pq = z̃_p − z̃_q in permuted space.
    let zp = zinv.column(perm.old_to_new(p));
    let zq = zinv.column(perm.old_to_new(q));
    for (i, v) in zp.iter() {
        s.zpq_dense[i] += v;
    }
    for (i, v) in zq.iter() {
        s.zpq_dense[i] -= v;
    }
    // R̃(p, q) = ‖z̃_pq‖² (since e_pqᵀ L_S⁻¹ e_pq = ‖L⁻¹ e_pq‖²).
    let r_approx: f64 = zp.norm_sq() - 2.0 * zp.dot(zq) + zq.norm_sq();
    // β-layer neighbourhoods in the subgraph; only N_S(q, β) needs a
    // membership test.
    let nq = hoods.neighbourhood(q, stamp, &mut s.member_q, &mut s.nbr_q);
    for &j in nq {
        s.member_q[j as usize] = stamp;
    }
    let np = hoods.neighbourhood(p, stamp, &mut s.member_p, &mut s.nbr_p);
    // z̃_i·z̃_pq, computed once per node and candidate.
    let zpq = &s.zpq_dense;
    let memo = &mut s.memo;
    let mut voltage = |i: usize| {
        if memo[i].0 != stamp {
            memo[i] = (stamp, zinv.column(perm.old_to_new(i)).dot_dense(zpq));
        }
        memo[i].1
    };
    // Σ over graph edges (i, j), i ∈ N_S(p, β), j ∈ N_S(q, β), each edge
    // once: at its first visit in N_S(p, β) order. A visit i → j repeats
    // one made from j exactly when j was walked earlier and i ∈ N_S(q, β).
    let mut sum = 0.0;
    for &i in np {
        let i = i as usize;
        let i_in_q = s.member_q[i] == stamp;
        s.done_p[i] = stamp;
        for &(j, cross_eid) in g.neighbors(i) {
            if s.member_q[j] != stamp || (i_in_q && s.done_p[j] == stamp) {
                continue;
            }
            let drop = voltage(i) - voltage(j);
            sum += g.edge(cross_eid).weight * drop * drop;
        }
    }
    for i in zp.indices().iter().chain(zq.indices()) {
        s.zpq_dense[*i] = 0.0;
    }
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
/// Returns one score per candidate, aligned with the input order. The
/// β-layer neighbourhood of every candidate endpoint is computed once per
/// call into a shared table (up to a fixed budget of entries; see
/// `ARCHITECTURE.md`), and `z̃_i·z̃_pq` once per node and candidate. Same
/// work-stealing decomposition and determinism contract as
/// [`tree_phase_scores_threads`]: one scratch arena (stamps, memo, BFS
/// lists, z̃ scatter buffer) per worker, bit-identical index-aligned
/// output.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or the graph has `u32::MAX`
/// nodes or more.
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
    assert!(n < u32::MAX as usize, "node ids must fit in u32");
    let hoods = Neighbourhoods::build(g, subgraph, candidates, beta);
    let mut scores = vec![0.0f64; candidates.len()];
    let chunk = tracered_par::chunk_size(candidates.len(), threads, MIN_CHUNK);
    tracered_par::par_chunks_mut_scratch(
        &mut scores,
        chunk,
        threads,
        |cached| SubgraphScratch::recycle(cached, n),
        |scratch, start, out| {
            for (off, slot) in out.iter_mut().enumerate() {
                *slot = subgraph_phase_score_one(
                    g,
                    &hoods,
                    factor,
                    zinv,
                    candidates[start + off],
                    scratch,
                );
            }
        },
    );
    scores
}

/// β-layer BFS over the subgraph from `start`, appending members to
/// `out` in visiting order; the appended part of `out` doubles as the
/// FIFO queue, expanded one layer at a time.
fn subgraph_bfs(
    subgraph: &Graph,
    start: usize,
    beta: usize,
    stamp: u32,
    member: &mut [u32],
    out: &mut Vec<u32>,
) {
    member[start] = stamp;
    let mut layer = out.len()..out.len() + 1;
    out.push(start as u32);
    for _ in 0..beta {
        let next = out.len();
        for k in layer {
            for &(nbr, _) in subgraph.neighbors(out[k] as usize) {
                if member[nbr] != stamp {
                    member[nbr] = stamp;
                    out.push(nbr as u32);
                }
            }
        }
        if next == out.len() {
            break;
        }
        layer = next..out.len();
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

    /// A spanning-tree subgraph of `g` with its factor and `Z̃` (δ = 0.1).
    fn tree_round(g: &Graph) -> (Graph, CholeskyFactor, ApproxInverse, Vec<usize>) {
        let st = spanning_tree(g, TreeKind::MaxEffectiveWeight).unwrap();
        let shifts = vec![1e-3; g.num_nodes()];
        let ls = subgraph_laplacian(g, &st.tree_edges, &shifts);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(0.1)).unwrap();
        (g.edge_subgraph(&st.tree_edges), factor, zinv, st.off_tree_edges)
    }

    #[test]
    fn stamp_wraparound_resets_the_stamp_arrays() {
        let g = random_connected(40, 60, WeightProfile::LogUniform { lo: 0.2, hi: 5.0 }, 3);
        let n = g.num_nodes();
        let (sub, factor, zinv, cands) = tree_round(&g);
        // A full table, and an empty one that sends every lookup to the
        // scratch BFS (and so through `member_p` and `member_q`).
        for hoods in
            [Neighbourhoods::build(&g, &sub, &cands, 3), Neighbourhoods::build(&g, &sub, &[], 3)]
        {
            let mut fresh = SubgraphScratch::new(n);
            let mut s = SubgraphScratch::new(n);
            for &e in &cands {
                let expect = subgraph_phase_score_one(&g, &hoods, &factor, &zinv, e, &mut fresh);
                // Every entry stamped 1 long ago, and a counter about to
                // wrap back to 1: only a reset keeps them from matching.
                s.member_p.fill(1);
                s.member_q.fill(1);
                s.done_p.fill(1);
                s.memo.fill((1, f64::NAN));
                s.stamp = u32::MAX;
                let got = subgraph_phase_score_one(&g, &hoods, &factor, &zinv, e, &mut s);
                assert_eq!(got.to_bits(), expect.to_bits(), "candidate {e}");
                assert_eq!(s.stamp, 1);
            }
        }
    }

    #[test]
    fn hub_neighbourhoods_stay_within_the_table_cap() {
        // Wheel with heavy spokes: the spanning tree is the star, so every
        // β ≥ 2 neighbourhood is the whole graph and the table fills up.
        let n = 3000;
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((0, i, 10.0));
            edges.push((i, if i + 1 < n { i + 1 } else { 1 }, 1.0));
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let (sub, _, _, cands) = tree_round(&g);
        let beta = 3;
        let hoods = Neighbourhoods::build(&g, &sub, &cands, beta);
        assert!(hoods.arena.len() <= table_cap(n, g.num_edges()));
        let tabled = hoods.spans.iter().filter(|s| s.1 > 0).count();
        assert!(tabled > 0 && tabled < n - 1, "{tabled} lists: the cap must bind");
        // Stored and searched lists agree node for node.
        let mut member = vec![0u32; n];
        let (mut out, mut fresh) = (Vec::new(), Vec::new());
        for (k, &v) in [0, 1, n / 2, n - 1].iter().enumerate() {
            fresh.clear();
            subgraph_bfs(&sub, v, beta, k as u32 + 1, &mut member, &mut fresh);
            let got = hoods.neighbourhood(v, k as u32 + 100, &mut member, &mut out);
            assert_eq!(got, &fresh[..], "node {v}");
        }
    }
}
