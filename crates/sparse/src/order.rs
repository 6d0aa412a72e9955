//! Fill-reducing orderings for sparse Cholesky factorization.
//!
//! Two orderings are implemented from scratch:
//!
//! - **Reverse Cuthill–McKee** ([`rcm`]): a bandwidth-reducing BFS ordering,
//!   good for mesh-like matrices;
//! - **Minimum degree** ([`min_degree`]): a greedy fill-reducing ordering
//!   (the classic algorithm without supernode/indistinguishable-node
//!   refinements), standing in for CHOLMOD's AMD. On the ultra-sparse
//!   tree-plus-a-few-edges systems this workspace factorizes, it produces
//!   near-optimal fill.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::perm::Permutation;

/// Choice of fill-reducing ordering used before factorization.
///
/// Deliberately **not** `#[non_exhaustive]`: downstream config
/// fingerprints match on this exhaustively so that adding an ordering is
/// a compile error at every tag site instead of a silent cache collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// Keep the natural (input) order.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Greedy minimum-degree (default; best fill on sparsifier Laplacians).
    #[default]
    MinDegree,
    /// Level-set nested dissection — asymptotically optimal fill on 2-D/3-D
    /// meshes, where greedy minimum degree falls behind (this is where the
    /// "Direct" baselines of the paper's Tables 2–3 get their factor from).
    NestedDissection,
}

impl Ordering {
    /// Computes the permutation for a square symmetric matrix `a` (the full
    /// matrix, not a triangle; only the pattern is used).
    ///
    /// Runs inside an `order` span (`n`, `nnz`) when tracing is on.
    ///
    /// Every fill-reducing ordering is refined by
    /// [`etree_postorder_refine`] before being returned — the composition
    /// CHOLMOD applies after AMD. [`Ordering::Natural`] is exempt: its
    /// contract is "keep the input order" verbatim.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::NotSquare`] for rectangular inputs.
    pub fn compute(self, a: &CscMatrix) -> Result<Permutation, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare { nrows: a.nrows(), ncols: a.ncols() });
        }
        let _span = tracered_obs::span!("order", { n: a.ncols(), nnz: a.nnz() });
        let base = match self {
            Ordering::Natural => return Ok(Permutation::identity(a.ncols())),
            Ordering::Rcm => rcm(a),
            Ordering::MinDegree => min_degree(a),
            Ordering::NestedDissection => nested_dissection(a),
        };
        etree_postorder_refine(a, base)
    }
}

/// Refines a fill-reducing permutation by composing the depth-first
/// postorder of the permuted matrix's elimination tree into it — the
/// AMD-then-postorder composition CHOLMOD performs during analysis.
///
/// Relabeling the columns along any topological order of the elimination
/// tree leaves the factor's fill and flop counts exactly unchanged (Liu's
/// equivalent-reordering result); what it buys is *contiguity*: after the
/// postorder, every single-child chain of the etree occupies consecutive
/// column numbers. That contiguity is what the supernodal kernel's
/// fundamental-supernode detection (`parent[j-1] == j` with nested
/// patterns) keys on — without it a greedy min-degree order scatters chain
/// columns and the partition degenerates to width-1 panels.
///
/// Returns the input permutation unchanged when the etree is already in
/// postorder (always the case for a second application, so the refinement
/// is idempotent).
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular inputs.
pub fn etree_postorder_refine(
    a: &CscMatrix,
    perm: Permutation,
) -> Result<Permutation, SparseError> {
    let upper = a.symmetric_perm_upper(&perm)?;
    let parent = crate::etree::elimination_tree(&upper);
    let post = crate::etree::postorder(&parent);
    if post.iter().enumerate().all(|(k, &v)| k == v) {
        return Ok(perm);
    }
    let post_perm = Permutation::from_vec(post).expect("postorder is a bijection");
    // Final position k takes permuted column post[k], i.e. original column
    // perm.new_to_old(post[k]).
    Ok(post_perm.compose(&perm))
}

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

/// Finds a pseudo-peripheral vertex of the component containing `start`
/// by repeated BFS to the farthest level.
fn pseudo_peripheral(
    adj: &[Vec<usize>],
    start: usize,
    scratch: &mut [usize],
    round: usize,
) -> usize {
    let mut node = start;
    let mut last_ecc = 0usize;
    loop {
        // BFS from `node`, tracking eccentricity and the last low-degree
        // vertex in the final level.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((node, 0usize));
        scratch[node] = round;
        let mut far_node = node;
        let mut far_dist = 0usize;
        while let Some((v, d)) = queue.pop_front() {
            if d > far_dist || (d == far_dist && adj[v].len() < adj[far_node].len()) {
                far_dist = d;
                far_node = v;
            }
            for &u in &adj[v] {
                if scratch[u] != round {
                    scratch[u] = round;
                    queue.push_back((u, d + 1));
                }
            }
        }
        if far_dist <= last_ecc {
            return node;
        }
        last_ecc = far_dist;
        node = far_node;
        // Reset marks for the next sweep by bumping the round is handled by
        // caller passing distinct rounds; here we reuse the same round, so
        // clear the component marks.
        // (Cheap: re-BFS the component.)
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(node);
        let mut comp = vec![node];
        // marks are all == round in this component; flip them back.
        scratch[node] = round - 1;
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if scratch[u] == round {
                    scratch[u] = round - 1;
                    queue.push_back(u);
                    comp.push(u);
                }
            }
        }
        let _ = comp;
    }
}

/// Reverse Cuthill–McKee ordering.
///
/// Handles disconnected matrices by ordering each connected component from
/// a pseudo-peripheral start vertex.
pub fn rcm(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let adj = adjacency(a);
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut scratch = vec![0usize; n];
    let mut round = 2usize;
    let mut neighbors = Vec::new();
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let start = pseudo_peripheral(&adj, s, &mut scratch, round);
        round += 2;
        // Cuthill–McKee BFS with neighbors sorted by degree.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        visited[start] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            neighbors.clear();
            neighbors.extend(adj[v].iter().copied().filter(|&u| !visited[u]));
            neighbors.sort_unstable_by_key(|&u| adj[u].len());
            for &u in &neighbors {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_vec(order).expect("RCM visits every vertex exactly once")
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
pub fn min_degree(a: &CscMatrix) -> Permutation {
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

/// Picks the candidate ordering with the smallest *symbolic* factor fill
/// (nonzeros of `L`), the cheap analysis CHOLMOD performs when choosing
/// between AMD and nested dissection. Returns the winning ordering, its
/// permutation and the predicted `nnz(L)`.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular inputs.
///
/// # Panics
///
/// Panics if `candidates` is empty.
pub fn select_ordering(
    a: &CscMatrix,
    candidates: &[Ordering],
) -> Result<(Ordering, Permutation, usize), SparseError> {
    assert!(!candidates.is_empty(), "at least one candidate ordering is required");
    let mut best: Option<(Ordering, Permutation, usize)> = None;
    for &ord in candidates {
        let perm = ord.compute(a)?;
        let upper = a.symmetric_perm_upper(&perm)?;
        let parent = crate::etree::elimination_tree(&upper);
        let fill: usize = crate::etree::column_counts(&upper, &parent).iter().sum();
        if best.as_ref().map(|b| fill < b.2).unwrap_or(true) {
            best = Some((ord, perm, fill));
        }
    }
    Ok(best.expect("candidates is non-empty"))
}

/// Level-set nested dissection.
///
/// Recursively bisects each connected piece through a BFS level-set
/// separator: run BFS from a pseudo-peripheral vertex, pick the level that
/// splits the piece into halves, order both halves recursively and number
/// the separator *last*. Leaves (≤ 48 vertices) are ordered by degree.
/// `O(n log n)` time on bounded-degree graphs.
pub fn nested_dissection(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    let adj = adjacency(a);
    let mut order = Vec::with_capacity(n);
    let mut level = vec![usize::MAX; n];
    let mut stamp = vec![0u64; n];
    let mut round = 0u64;
    // Work stack: subsets still to dissect, plus separators to emit after
    // both of their halves have been ordered.
    enum Item {
        Dissect(Vec<usize>),
        Emit(Vec<usize>),
    }
    let mut stack: Vec<Item> = vec![Item::Dissect((0..n).collect())];
    while let Some(item) = stack.pop() {
        let nodes = match item {
            Item::Emit(sep) => {
                order.extend(sep);
                continue;
            }
            Item::Dissect(nodes) => nodes,
        };
        if nodes.is_empty() {
            continue;
        }
        if nodes.len() <= 48 {
            let mut leaf = nodes;
            leaf.sort_unstable_by_key(|&v| (adj[v].len(), v));
            order.extend(leaf);
            continue;
        }
        // BFS within the subset from the first node; splits off one
        // connected component at a time.
        round += 1;
        for &v in &nodes {
            stamp[v] = round;
        }
        let start = nodes[0];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        level[start] = 0;
        let mut component = vec![start];
        let mut max_level = 0usize;
        // Mark visited by bumping stamp to round + <big offset>? Use a
        // second marker value: level != MAX within this round. Reset below.
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if stamp[u] == round && level[u] == usize::MAX {
                    level[u] = level[v] + 1;
                    max_level = max_level.max(level[u]);
                    component.push(u);
                    queue.push_back(u);
                }
            }
        }
        if component.len() < nodes.len() {
            // Disconnected subset: handle this component, requeue the rest.
            let rest: Vec<usize> =
                nodes.iter().copied().filter(|&v| level[v] == usize::MAX).collect();
            stack.push(Item::Dissect(rest));
        }
        if max_level < 2 {
            // Too shallow to split usefully; emit by degree.
            let mut leaf = component.clone();
            leaf.sort_unstable_by_key(|&v| (adj[v].len(), v));
            order.extend(leaf);
            for v in component {
                level[v] = usize::MAX;
            }
            continue;
        }
        // Choose the separator level whose below-count is closest to half.
        let mut counts = vec![0usize; max_level + 1];
        for &v in &component {
            counts[level[v]] += 1;
        }
        let half = component.len() as i64 / 2;
        let mut below = 0i64;
        let mut best = (i64::MAX, 1usize);
        for l in 1..max_level {
            below += counts[l - 1] as i64;
            let imbalance = (below - half).abs();
            if imbalance < best.0 {
                best = (imbalance, l);
            }
        }
        let sep_level = best.1;
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut sep = Vec::new();
        for &v in &component {
            match level[v].cmp(&sep_level) {
                std::cmp::Ordering::Less => left.push(v),
                std::cmp::Ordering::Equal => sep.push(v),
                std::cmp::Ordering::Greater => right.push(v),
            }
            // Reset for future rounds.
        }
        for &v in &component {
            level[v] = usize::MAX;
        }
        if left.is_empty() || right.is_empty() {
            let mut leaf = component;
            leaf.sort_unstable_by_key(|&v| (adj[v].len(), v));
            order.extend(leaf);
            continue;
        }
        // Separator is numbered last: push Emit first (LIFO).
        stack.push(Item::Emit(sep));
        stack.push(Item::Dissect(right));
        stack.push(Item::Dissect(left));
    }
    Permutation::from_vec(order).expect("nested dissection orders every vertex exactly once")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn path_laplacian(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        coo.to_csc()
    }

    fn star(n: usize) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for i in 1..n {
            coo.push_symmetric(0, i, -1.0).unwrap();
        }
        coo.to_csc()
    }

    fn grid2d(k: usize) -> CscMatrix {
        let n = k * k;
        let mut coo = CooMatrix::new(n, n);
        let id = |r: usize, c: usize| r * k + c;
        for r in 0..k {
            for c in 0..k {
                coo.push(id(r, c), id(r, c), 4.0).unwrap();
                if c + 1 < k {
                    coo.push_symmetric(id(r, c), id(r, c + 1), -1.0).unwrap();
                }
                if r + 1 < k {
                    coo.push_symmetric(id(r, c), id(r + 1, c), -1.0).unwrap();
                }
            }
        }
        coo.to_csc()
    }

    fn fill_of(a: &CscMatrix, perm: &Permutation) -> usize {
        let upper = a.symmetric_perm_upper(perm).unwrap();
        let parent = crate::etree::elimination_tree(&upper);
        crate::etree::column_counts(&upper, &parent).iter().sum()
    }

    #[test]
    fn orderings_are_permutations() {
        for a in [path_laplacian(10), star(10), grid2d(5)] {
            for ord in [Ordering::Natural, Ordering::Rcm, Ordering::MinDegree] {
                let p = ord.compute(&a).unwrap();
                assert_eq!(p.len(), a.ncols());
            }
        }
    }

    #[test]
    fn min_degree_star_eliminates_hub_last() {
        // Natural order on a star with the hub first gives dense fill;
        // min-degree must eliminate leaves first (zero fill).
        let a = star(20);
        let p = min_degree(&a);
        // The hub must survive until its degree drops to that of a leaf,
        // i.e. be one of the last two vertices eliminated.
        assert!(
            p.new_to_old(19) == 0 || p.new_to_old(18) == 0,
            "hub must be eliminated among the last two"
        );
        assert_eq!(fill_of(&a, &p), 2 * 20 - 1, "star under min-degree has zero fill-in");
    }

    #[test]
    fn min_degree_beats_natural_on_grid() {
        let a = grid2d(8);
        let natural = fill_of(&a, &Permutation::identity(64));
        let md = fill_of(&a, &min_degree(&a));
        assert!(md <= natural, "min-degree fill {md} must not exceed natural {natural}");
    }

    #[test]
    fn rcm_reduces_bandwidth_fill_on_grid() {
        let a = grid2d(8);
        let natural = fill_of(&a, &Permutation::identity(64));
        let r = fill_of(&a, &rcm(&a));
        // RCM should not be catastrophically worse than natural on a grid.
        assert!(r <= natural * 2);
    }

    #[test]
    fn nested_dissection_is_a_permutation() {
        for a in [path_laplacian(200), star(50), grid2d(13)] {
            let p = nested_dissection(&a);
            assert_eq!(p.len(), a.ncols());
        }
    }

    #[test]
    fn nested_dissection_beats_natural_on_grids() {
        let a = grid2d(20);
        let natural = fill_of(&a, &Permutation::identity(400));
        let nd = fill_of(&a, &nested_dissection(&a));
        assert!(nd < natural, "ND fill {nd} must beat natural {natural}");
    }

    #[test]
    fn nested_dissection_competitive_with_min_degree_on_grids() {
        let a = grid2d(24);
        let md = fill_of(&a, &min_degree(&a));
        let nd = fill_of(&a, &nested_dissection(&a));
        // On regular 2-D grids the two should be within a small factor.
        assert!(nd <= 2 * md, "ND fill {nd} vs min-degree {md}");
    }

    #[test]
    fn nested_dissection_handles_disconnected_graphs() {
        let mut coo = CooMatrix::new(120, 120);
        for i in 0..120 {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..59 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        for i in 60..119 {
            coo.push_symmetric(i, i + 1, -1.0).unwrap();
        }
        let a = coo.to_csc();
        let p = nested_dissection(&a);
        assert_eq!(p.len(), 120);
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint paths.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push_symmetric(0, 1, -1.0).unwrap();
        coo.push_symmetric(1, 2, -1.0).unwrap();
        coo.push_symmetric(3, 4, -1.0).unwrap();
        coo.push_symmetric(4, 5, -1.0).unwrap();
        let a = coo.to_csc();
        for ord in [Ordering::Rcm, Ordering::MinDegree] {
            let p = ord.compute(&a).unwrap();
            assert_eq!(p.len(), 6);
        }
    }

    #[test]
    fn rejects_rectangular() {
        let a = CscMatrix::zeros(2, 3);
        assert!(matches!(Ordering::MinDegree.compute(&a), Err(SparseError::NotSquare { .. })));
    }

    #[test]
    fn compute_postorders_the_elimination_tree() {
        use crate::etree;
        let a = grid2d(12);
        for ord in [Ordering::Rcm, Ordering::MinDegree, Ordering::NestedDissection] {
            let p = ord.compute(&a).unwrap();
            let upper = a.symmetric_perm_upper(&p).unwrap();
            let parent = etree::elimination_tree(&upper);
            let post = etree::postorder(&parent);
            assert!(
                post.iter().enumerate().all(|(k, &v)| k == v),
                "{ord:?}: etree of the computed ordering must already be postordered"
            );
        }
    }

    #[test]
    fn postorder_refinement_is_fill_neutral_and_idempotent() {
        let a = grid2d(12);
        let raw = min_degree(&a);
        let refined = etree_postorder_refine(&a, raw.clone()).unwrap();
        assert_eq!(fill_of(&a, &raw), fill_of(&a, &refined), "relabeling must not change fill");
        let twice = etree_postorder_refine(&a, refined.clone()).unwrap();
        assert_eq!(twice, refined, "second application must be the identity");
    }

    #[test]
    fn path_min_degree_zero_fill() {
        let a = path_laplacian(16);
        let p = min_degree(&a);
        assert_eq!(fill_of(&a, &p), 2 * 16 - 1, "paths factor with zero fill under min-degree");
    }
}
