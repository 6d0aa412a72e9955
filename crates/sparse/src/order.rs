//! Fill-reducing orderings for sparse Cholesky factorization.
//!
//! Three orderings are implemented from scratch:
//!
//! - **Reverse Cuthill–McKee** ([`rcm`]): a bandwidth-reducing BFS ordering,
//!   good for mesh-like matrices;
//! - **Minimum degree** ([`min_degree`]): the greedy fill-reducing
//!   ordering, standing in for CHOLMOD's AMD. It runs on a quotient graph
//!   with exact external degrees and mass elimination of indistinguishable
//!   vertices (George & Liu, SIAM Review 1989), which speeds it up without
//!   changing a single pivot: the permutation is the plain greedy
//!   algorithm's, where AMD's approximate degrees would not be. On the
//!   ultra-sparse tree-plus-a-few-edges systems this workspace factorizes,
//!   it produces near-optimal fill;
//! - **Nested dissection** ([`nested_dissection`]): level-set separators,
//!   less fill than minimum degree on full 2-D/3-D mesh Laplacians.

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
/// eliminated vertex's neighbours), ties going to the smaller vertex id.
///
/// The elimination graph is held as a *quotient graph*: an eliminated
/// vertex becomes an *element* standing for the clique on its neighbours,
/// and absorbs every element it was adjacent to. Degrees are exact
/// external degrees, counted by a stamped union over a vertex's adjacent
/// variables and elements each time it is a pivot's neighbour.
///
/// **Mass elimination** keeps the permutation exact. Let pivot `v` have
/// neighbour set `N(v)`. After `v`, a vertex outside `N(v)` keeps its
/// degree, at least `deg(v) ≥ |N(v)|` since `v` was a minimum, while a
/// neighbour `u` has degree at least `|N(v)| − 1`, since it is adjacent
/// to the rest of `N(v)`. The neighbours that reach `|N(v)| − 1` are adjacent to
/// exactly `N(v) \ {u}`. They are therefore the next pivots, in
/// increasing id order: eliminating one of them lowers the degree of each
/// of the others by exactly one and any other vertex's degree by at most
/// one, so they stay strictly below every other vertex. They are
/// eliminated together, with one degree pass for the rest of `N(v)`.
///
/// Vertices whose elimination-graph degree exceeds an AMD-style *dense
/// cutoff* are deferred and numbered last as a dense block: on 3-D meshes
/// the late elimination graph develops huge cliques. Every vertex left
/// then has at least that degree and no further vertex is eliminated, so
/// the rest follow in (degree, id) order with their degrees unchanged: a
/// vertex keeps counting the deferred rows among its neighbours.
///
/// Only the pattern is read, and it must be symmetric; an asymmetric
/// pattern still yields a valid permutation.
pub fn min_degree(a: &CscMatrix) -> Permutation {
    let n = a.ncols();
    // AMD-flavoured dense-row threshold: a multiple of the average degree
    // with a sqrt(n) floor.
    let avg_degree = if n == 0 { 0.0 } else { a.nnz() as f64 / n as f64 };
    let dense_cutoff = ((16.0 * avg_degree).max(4.0 * (n as f64).sqrt()).max(16.0) as usize).min(n);
    let mut q = QuotientGraph::new(a);
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::with_capacity(n * 2);
    heap.extend((0..n).map(|v| Reverse((q.deg[v], v as u32))));
    let mut order = Vec::with_capacity(n);
    let mut deferred = Vec::new();
    while let Some(Reverse((deg, v))) = heap.pop() {
        let v = v as usize;
        if q.status[v] != VAR || q.deg[v] != deg {
            continue; // stale heap entry
        }
        if deg as usize > dense_cutoff {
            // Dense row: number it last. Every vertex left has at least this
            // degree and none is eliminated after it, so the rest of the
            // heap is deferred in (degree, id) order, each vertex still
            // counting the deferred rows among its neighbours.
            q.status[v] = DEAD;
            deferred.push(v);
            continue;
        }
        order.push(v);
        q.eliminate(v, &mut order, &mut heap);
    }
    order.extend(deferred);
    Permutation::from_vec(order).expect("min-degree eliminates every vertex exactly once")
}

/// A vertex not yet eliminated.
const VAR: u8 = 0;
/// An eliminated vertex standing for the clique on its variables.
const ELEMENT: u8 = 1;
/// An absorbed element, or a vertex that left the graph without becoming
/// an element (mass-eliminated, a leaf pivot or a deferred dense row).
const DEAD: u8 = 2;

/// The quotient graph of [`min_degree`], in one flat `u32` array.
///
/// Vertex `i`'s segment `iw[pe[i]..pe[i] + len[i]]` holds, for a variable,
/// its `elen[i]` adjacent elements followed by its adjacent variables;
/// for an element, its variables. A variable's lists may hold vertices
/// that have since died, which readers skip by `status`. A live element
/// lists only live variables, at least two, and lists `i` exactly when
/// `i` lists it. No vertex is eliminated after the first deferred dense
/// row, so deferral never touches these lists.
struct QuotientGraph {
    iw: Vec<u32>,
    pe: Vec<usize>,
    len: Vec<u32>,
    elen: Vec<u32>,
    status: Vec<u8>,
    /// Exact external degree of each variable.
    deg: Vec<u32>,
    /// Stamps: the pivot's variables carry the step's base stamp, each
    /// updated variable's union a stamp of its own, and each element the
    /// base stamp once its `w` is set.
    mark: Vec<u32>,
    stamp: u32,
    /// Per element, its live variables outside the pivot's element.
    w: Vec<u32>,
    /// Entries of `iw` that no live segment covers.
    garbage: usize,
    /// Variables of the pivot's element adjacent to it alone: the pivot's
    /// mass-eliminated companions.
    indist: Vec<u32>,
}

impl QuotientGraph {
    fn new(a: &CscMatrix) -> Self {
        let n = a.ncols();
        // Segment heads are tagged `n + id` during garbage collection.
        assert!(n < (u32::MAX / 2) as usize, "min-degree handles fewer than 2^31 vertices");
        let mut iw = Vec::with_capacity(a.nnz() + n);
        let mut pe = Vec::with_capacity(n);
        let mut len = Vec::with_capacity(n);
        for c in 0..n {
            let start = iw.len();
            // Rows are sorted and unique within a column.
            iw.extend(a.col(c).0.iter().filter(|&&r| r != c).map(|&r| r as u32));
            pe.push(start);
            len.push((iw.len() - start) as u32);
        }
        QuotientGraph {
            iw,
            pe,
            deg: len.clone(),
            len,
            elen: vec![0; n],
            status: vec![VAR; n],
            mark: vec![0; n],
            stamp: 1,
            w: vec![0; n],
            garbage: 0,
            indist: Vec::new(),
        }
    }

    /// Eliminates pivot `v`, appends the vertices mass-eliminated with it
    /// to `order`, and pushes the new degrees of its other neighbours.
    fn eliminate(
        &mut self,
        v: usize,
        order: &mut Vec<usize>,
        heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
    ) {
        let n = self.status.len();
        if self.stamp > u32::MAX - n as u32 - 2 {
            self.mark.fill(0);
            self.stamp = 1;
        }
        let base = self.stamp;
        let lv = self.form_element(v, base);
        self.stamp = base + lv as u32 + 1;
        match lv {
            0 => {
                self.status[v] = DEAD;
                return;
            }
            1 => {
                // A leaf pivot: its neighbour `u` loses `v` and gains no one,
                // and a one-variable element would add nothing, so none is
                // kept. If `v` was `u`'s only neighbour, `u` goes with it.
                let u = self.iw[self.pe[v]] as usize;
                self.status[v] = DEAD;
                self.garbage += 1;
                if self.deg[u] <= 1 {
                    self.status[u] = DEAD;
                    self.garbage += self.len[u] as usize;
                    order.push(u);
                } else {
                    self.deg[u] -= 1;
                    heap.push(Reverse((self.deg[u], u as u32)));
                }
                return;
            }
            _ => {}
        }
        // Scan 1: `w[e]` = live variables of `e` outside element `v`.
        for t in 0..lv {
            let i = self.iw[self.pe[v] + t] as usize;
            let p = self.pe[i];
            for k in p..p + self.elen[i] as usize {
                let e = self.iw[k] as usize;
                if self.status[e] == ELEMENT {
                    if self.mark[e] != base {
                        self.mark[e] = base;
                        self.w[e] = self.len[e];
                    }
                    self.w[e] -= 1;
                }
            }
        }
        // Scan 2: prune and re-degree every variable of `v`.
        for t in 0..lv {
            let i = self.iw[self.pe[v] + t] as usize;
            self.update(i, v, base, base + 1 + t as u32, lv as u32);
        }
        let k = self.indist.len() as u32;
        self.indist.sort_unstable();
        for &u in &self.indist {
            let u = u as usize;
            self.status[u] = DEAD;
            self.garbage += self.len[u] as usize;
            order.push(u);
        }
        self.indist.clear();
        let p = self.pe[v];
        let mut out = p;
        for t in p..p + lv {
            let i = self.iw[t] as usize;
            if self.status[i] == VAR {
                self.iw[out] = i as u32;
                out += 1;
                self.deg[i] -= k;
                heap.push(Reverse((self.deg[i], i as u32)));
            }
        }
        let live = out - p;
        self.garbage += lv - live;
        self.len[v] = live as u32;
        if live <= 1 {
            // An element with one variable adds nothing to its degree.
            self.status[v] = DEAD;
            self.garbage += live;
        }
    }

    /// Turns variable `v` into an element: its segment becomes the union of
    /// its adjacent variables and its adjacent elements' variables, each
    /// stamped `base`; those elements are absorbed. Returns the union's
    /// size.
    fn form_element(&mut self, v: usize, base: u32) -> usize {
        self.status[v] = ELEMENT;
        let (el, l) = (self.elen[v] as usize, self.len[v] as usize);
        let mut bound = l - el;
        let mut absorbs = false;
        for k in self.pe[v]..self.pe[v] + el {
            let e = self.iw[k] as usize;
            if self.status[e] == ELEMENT {
                absorbs = true;
                bound += self.len[e] as usize;
            }
        }
        let (start, lv) = if absorbs {
            self.reserve(bound);
            let p = self.pe[v];
            let start = self.iw.len();
            for k in p + el..p + l {
                self.push_unmarked(self.iw[k] as usize, base);
            }
            for k in p..p + el {
                let e = self.iw[k] as usize;
                if self.status[e] != ELEMENT {
                    continue;
                }
                for t in self.pe[e]..self.pe[e] + self.len[e] as usize {
                    self.push_unmarked(self.iw[t] as usize, base);
                }
                self.status[e] = DEAD;
                self.garbage += self.len[e] as usize;
            }
            self.garbage += l;
            (start, self.iw.len() - start)
        } else {
            // No element to absorb: compact the variables in place.
            let p = self.pe[v];
            let mut out = p;
            for k in p + el..p + l {
                let j = self.iw[k] as usize;
                if self.status[j] == VAR {
                    self.mark[j] = base;
                    self.iw[out] = j as u32;
                    out += 1;
                }
            }
            self.garbage += l - (out - p);
            (p, out - p)
        };
        self.pe[v] = start;
        self.len[v] = lv as u32;
        self.elen[v] = 0;
        lv
    }

    fn push_unmarked(&mut self, j: usize, base: u32) {
        if self.status[j] == VAR && self.mark[j] != base {
            self.mark[j] = base;
            self.iw.push(j as u32);
        }
    }

    /// Updates variable `i` of the new element `v` (of `lv` variables
    /// stamped `base`): drops dead entries, elements inside `v` (absorbed)
    /// and variables inside `v`, adds `v`, and recomputes the exact degree.
    /// A variable left adjacent to `v` alone goes on `indist`.
    fn update(&mut self, i: usize, v: usize, base: u32, own: u32, lv: u32) {
        let (p, el, l) = (self.pe[i], self.elen[i] as usize, self.len[i] as usize);
        let mut out = p;
        for k in p..p + el {
            let e = self.iw[k] as usize;
            if self.status[e] != ELEMENT {
                continue;
            }
            if self.w[e] == 0 {
                // Every live variable of `e` is in `v`.
                self.status[e] = DEAD;
                self.garbage += self.len[e] as usize;
                continue;
            }
            self.iw[out] = e as u32;
            out += 1;
        }
        let others = out - p;
        for k in p + el..p + l {
            let j = self.iw[k] as usize;
            if self.status[j] == VAR && self.mark[j] != base {
                self.iw[out] = j as u32;
                out += 1;
            }
        }
        let vars = (out - p - others) as u32;
        self.deg[i] = match others {
            0 => lv - 1 + vars,
            1 if vars == 0 => lv - 1 + self.w[self.iw[p] as usize],
            _ => {
                for k in p + others..out {
                    self.mark[self.iw[k] as usize] = own;
                }
                let mut count = vars;
                for k in p..p + others {
                    let e = self.iw[k] as usize;
                    for t in self.pe[e]..self.pe[e] + self.len[e] as usize {
                        let j = self.iw[t] as usize;
                        if self.status[j] == VAR && self.mark[j] != base && self.mark[j] != own {
                            self.mark[j] = own;
                            count += 1;
                        }
                    }
                }
                lv - 1 + count
            }
        };
        if others == 0 && vars == 0 {
            self.indist.push(i as u32);
        }
        // Insert `v` as the first variable slot's element.
        let new_len = out - p + 1;
        if new_len <= l {
            if vars > 0 {
                self.iw[out] = self.iw[p + others];
            }
            self.iw[p + others] = v as u32;
            self.garbage += l - new_len;
        } else {
            // Only an asymmetric pattern gets here: move the list to the end.
            self.len[i] = (out - p) as u32;
            self.reserve(new_len);
            let p = self.pe[i];
            let start = self.iw.len();
            self.iw.extend_from_within(p..p + others);
            self.iw.push(v as u32);
            self.iw.extend_from_within(p + others..p + new_len - 1);
            self.garbage += new_len - 1;
            self.pe[i] = start;
        }
        self.len[i] = new_len as u32;
        self.elen[i] = others as u32 + 1;
    }

    /// Makes room for `extra` entries at the end of `iw`, compacting it
    /// first when at least half of it is garbage.
    fn reserve(&mut self, extra: usize) {
        if self.iw.len() + extra <= self.iw.capacity() {
            return;
        }
        if 2 * self.garbage >= self.iw.len() {
            self.collect_garbage();
        }
        self.iw.reserve(extra);
    }

    /// Slides every live segment down over the garbage, in place.
    fn collect_garbage(&mut self) {
        let n = self.status.len();
        // Tag each live segment's head with `n + id`, parking the head
        // entry in `pe`; every other entry of `iw` is below `n`. An empty
        // segment points at 0 so that its (empty) range stays in bounds.
        for j in 0..n {
            if self.status[j] == DEAD {
                continue;
            }
            if self.len[j] == 0 {
                self.pe[j] = 0;
                continue;
            }
            let p = self.pe[j];
            self.pe[j] = self.iw[p] as usize;
            self.iw[p] = (n + j) as u32;
        }
        let (mut src, mut dst) = (0, 0);
        while src < self.iw.len() {
            let Some(j) = (self.iw[src] as usize).checked_sub(n) else {
                src += 1;
                continue;
            };
            let l = self.len[j] as usize;
            self.iw[dst] = self.pe[j] as u32;
            self.iw.copy_within(src + 1..src + l, dst + 1);
            self.pe[j] = dst;
            src += l;
            dst += l;
        }
        self.iw.truncate(dst);
        self.garbage = 0;
    }
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
    fn min_degree_orders_asymmetric_patterns() {
        // Only symmetric patterns are supported, but a one-sided entry must
        // still give a permutation rather than corrupt the quotient graph.
        for n in [2usize, 9, 60] {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0).unwrap();
                coo.push((i * 7 + 3) % n, i, 1.0).unwrap();
                if i % 3 == 0 {
                    coo.push_symmetric(i, (i + 1) % n, 1.0).unwrap();
                }
            }
            coo.push(n - 1, 0, 1.0).unwrap();
            assert_eq!(min_degree(&coo.to_csc()).len(), n);
        }
    }

    #[test]
    fn path_min_degree_zero_fill() {
        let a = path_laplacian(16);
        let p = min_degree(&a);
        assert_eq!(fill_of(&a, &p), 2 * 16 - 1, "paths factor with zero fill under min-degree");
    }
}
