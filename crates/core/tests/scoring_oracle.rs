//! Oracle for the subgraph-phase scorer (paper Eq. 20).
//!
//! `oracle_scores` is the per-candidate scorer as it stood before the
//! shared neighbourhood table and the per-candidate dot-product memo: two
//! β-layer BFS runs and two `z̃·z̃_pq` dot products per cross edge for
//! every candidate, written here against public APIs only. The library's
//! [`subgraph_phase_scores_threads`] must reproduce it bit for bit on
//! every input family, β, SPAI threshold and thread count — including a
//! hub graph whose neighbourhoods overflow the table's budget.

use std::collections::VecDeque;

use proptest::prelude::*;
use tracered_core::criticality::subgraph_phase_scores_threads;
use tracered_graph::gen::{grid2d, random_connected, tri_mesh, WeightProfile};
use tracered_graph::laplacian::subgraph_laplacian;
use tracered_graph::mst::{spanning_tree, TreeKind};
use tracered_graph::Graph;
use tracered_sparse::order::Ordering;
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

/// Per-candidate scratch of the reference scorer.
struct SubgraphScratch {
    stamp: u64,
    member_p: Vec<u64>,
    member_q: Vec<u64>,
    edge_stamp: Vec<u64>,
    nbr_p: Vec<usize>,
    nbr_q: Vec<usize>,
    queue: VecDeque<(usize, usize)>,
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
}

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
    let pp = perm.old_to_new(p);
    let qq = perm.old_to_new(q);
    let zp = zinv.column(pp);
    let zq = zinv.column(qq);
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
    let r_approx: f64 = zp.norm_sq() - 2.0 * zp.dot(zq) + zq.norm_sq();
    s.nbr_p.clear();
    s.nbr_q.clear();
    subgraph_bfs(subgraph, p, beta, stamp, &mut s.member_p, &mut s.queue, &mut s.nbr_p);
    subgraph_bfs(subgraph, q, beta, stamp, &mut s.member_q, &mut s.queue, &mut s.nbr_q);
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
    for &i in &s.zpq_touched {
        s.zpq_dense[i] = 0.0;
    }
    s.zpq_touched.clear();
    w * sum / (1.0 + w * r_approx)
}

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

/// A scored round: the subgraph (spanning tree plus every third off-tree
/// edge), its factor and `Z̃`, and the remaining off-tree candidates.
struct Round {
    g: Graph,
    subgraph: Graph,
    factor: CholeskyFactor,
    zinv: ApproxInverse,
    candidates: Vec<usize>,
}

impl Round {
    fn new(g: Graph, delta: f64) -> Self {
        let st = spanning_tree(&g, TreeKind::MaxEffectiveWeight).unwrap();
        let mut sub_edges = st.tree_edges.clone();
        let mut candidates = Vec::new();
        for (k, &id) in st.off_tree_edges.iter().enumerate() {
            if k % 3 == 2 {
                sub_edges.push(id);
            } else {
                candidates.push(id);
            }
        }
        let shift = 1e-3 * 2.0 * g.total_weight() / g.num_nodes() as f64;
        let ls = subgraph_laplacian(&g, &sub_edges, &vec![shift; g.num_nodes()]);
        let factor = CholeskyFactor::factorize(&ls, Ordering::MinDegree).unwrap();
        let zinv = ApproxInverse::build(factor.l(), SpaiOptions::with_threshold(delta)).unwrap();
        let subgraph = g.edge_subgraph(&sub_edges);
        Round { g, subgraph, factor, zinv, candidates }
    }

    fn oracle_scores(&self, beta: usize) -> Vec<f64> {
        let mut s = SubgraphScratch::new(self.g.num_nodes(), self.g.num_edges());
        self.candidates
            .iter()
            .map(|&eid| {
                subgraph_phase_score_one(
                    &self.g,
                    &self.subgraph,
                    &self.factor,
                    &self.zinv,
                    eid,
                    beta,
                    &mut s,
                )
            })
            .collect()
    }

    fn assert_matches_oracle(&self, beta: usize) {
        let oracle = self.oracle_scores(beta);
        for threads in [1, 3] {
            let got = subgraph_phase_scores_threads(
                &self.g,
                &self.subgraph,
                &self.factor,
                &self.zinv,
                &self.candidates,
                beta,
                threads,
            );
            assert_eq!(got.len(), oracle.len());
            for (k, (a, b)) in got.iter().zip(&oracle).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "candidate {k}: {a} vs oracle {b}, beta {beta}, {threads} threads"
                );
            }
        }
    }
}

/// Wheel: hub 0 joined to every rim node `1..n`, rim nodes in a cycle.
/// Spokes are heavier than rim edges, so the maximum-weight spanning tree
/// is the star and every β ≥ 2 neighbourhood is the whole graph.
fn wheel(n: usize, seed: u64) -> Graph {
    let mut edges = Vec::with_capacity(2 * (n - 1));
    for i in 1..n {
        let jitter = ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed) % 1000;
        edges.push((0, i, 10.0 + jitter as f64 / 1000.0));
        edges.push((i, if i + 1 < n { i + 1 } else { 1 }, 0.5 + jitter as f64 / 2000.0));
    }
    Graph::from_edges(n, &edges).unwrap()
}

/// One of the input families, sized by `a` and `b`; the last one is a
/// multigraph (every third edge of a random graph doubled).
fn family_graph(family: usize, a: usize, b: usize, seed: u64) -> Graph {
    let profile = WeightProfile::LogUniform { lo: 0.2, hi: 5.0 };
    match family {
        0 => random_connected(4 * a, 2 * b, profile, seed),
        1 => tri_mesh(a, b, profile, seed),
        2 => grid2d(a, b, profile, seed),
        3 => wheel(4 * a, seed),
        _ => {
            let g = random_connected(4 * a, 2 * b, profile, seed);
            let mut edges: Vec<(usize, usize, f64)> =
                g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect();
            edges.extend(g.edges().iter().step_by(3).map(|e| (e.v, e.u, 2.0 * e.weight)));
            Graph::from_edges(g.num_nodes(), &edges).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn subgraph_scores_are_bit_identical_to_the_oracle(
        family in 0usize..5,
        a in 3usize..12,
        b in 3usize..12,
        seed in 0u64..500,
        beta in 0usize..7,
        delta in 0usize..2,
    ) {
        let g = family_graph(family, a, b, seed);
        Round::new(g, [0.0, 0.1][delta]).assert_matches_oracle(beta);
    }
}

#[test]
fn hub_graph_past_the_table_budget_matches_the_oracle() {
    let g = wheel(3000, 7);
    let (n, m) = (g.num_nodes(), g.num_edges());
    let mut round = Round::new(g, 0.1);
    round.candidates.truncate(40);
    let beta = 3;
    // Precondition: the endpoints' neighbourhoods together exceed the
    // table's 8·(n + m) budget, so some are searched per candidate.
    let mut endpoints: Vec<usize> =
        round.candidates.iter().flat_map(|&id| [round.g.edge(id).u, round.g.edge(id).v]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    let mut member = vec![0u64; n];
    let mut queue = VecDeque::new();
    let mut total = 0;
    for (k, &v) in endpoints.iter().enumerate() {
        let mut list = Vec::new();
        subgraph_bfs(&round.subgraph, v, beta, k as u64 + 1, &mut member, &mut queue, &mut list);
        total += list.len();
    }
    assert!(total > 8 * (n + m), "{total} neighbourhood entries must exceed the budget");
    round.assert_matches_oracle(beta);
}
