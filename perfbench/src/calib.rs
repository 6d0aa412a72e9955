//! Machine-speed calibration: a fixed loop, part of the benchmark rather
//! than the library, timed between jobs so a run can tell how fast the
//! host ran it.
//!
//! The loop does four kinds of work the library does, on working sets of a
//! few MiB like the workloads': sparse matrix-vector products over a grid
//! Laplacian whose nodes are randomly relabelled (irregular gathers), a
//! banded Cholesky factorization (dense floating point), a sort of
//! pseudo-random keys and a shortest-path search with a binary heap
//! (branchy integer work). Each takes a few milliseconds. The loop never
//! changes, so the ratio of a job's time to the loop's time measured in
//! the same run moves when the library's speed does, not when the host's
//! does.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The sparse and shortest-path grids are `SIDE × SIDE` nodes.
const SIDE: usize = 160;
/// Matrix-vector products per pass.
const PRODUCTS: usize = 9;
/// The banded factorization's grid is `BAND × BAND` nodes, in natural
/// order, so its bandwidth is `BAND`.
const BAND: usize = 40;
/// Keys sorted per pass.
const KEYS: usize = 1 << 17;

pub struct Calibration {
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Row `i` holds `L(i, i - k)` at `k`, for `k` in `0..=BAND`.
    band: Vec<f64>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    /// Weight of the edge from a node to its right (even) and lower (odd)
    /// neighbour.
    weights: Vec<u64>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut r = (*z ^ (*z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    r = (r ^ (r >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    r ^ (r >> 31)
}

/// The grid neighbours of node `u` with the weight index of each edge.
fn neighbours(u: usize) -> impl Iterator<Item = (usize, usize)> {
    let (r, c) = (u / SIDE, u % SIDE);
    [
        (c + 1 < SIDE).then(|| (u + 1, 2 * u)),
        (r + 1 < SIDE).then(|| (u + SIDE, 2 * u + 1)),
        (c > 0).then(|| (u - 1, 2 * (u - 1))),
        (r > 0).then(|| (u - SIDE, 2 * (u - SIDE) + 1)),
    ]
    .into_iter()
    .flatten()
}

impl Calibration {
    pub fn new() -> Self {
        let n = SIDE * SIDE;
        // A fixed random relabelling of the grid nodes (Fisher–Yates).
        let mut state = 0x5eed_u64;
        let mut label: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            label.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for u in 0..n {
            let mut degree = 0.0;
            for (v, _) in neighbours(u) {
                rows[label[u] as usize].push((label[v], -1.0));
                degree += 1.0;
            }
            rows[label[u] as usize].push((label[u], degree + 0.01));
        }
        let mut cal = Calibration {
            row_ptr: vec![0],
            col: Vec::new(),
            val: Vec::new(),
            x: vec![1.0; n],
            y: vec![0.0; n],
            band: vec![0.0; BAND * BAND * (BAND + 1)],
            keys: (0..KEYS).map(|_| splitmix(&mut state)).collect(),
            sorted: Vec::with_capacity(KEYS),
            weights: (0..2 * n).map(|_| splitmix(&mut state) % 1000 + 1).collect(),
            dist: vec![u64::MAX; n],
            heap: BinaryHeap::new(),
        };
        for mut row in rows {
            row.sort_by_key(|e| e.0);
            cal.col.extend(row.iter().map(|e| e.0));
            cal.val.extend(row.iter().map(|e| e.1));
            cal.row_ptr.push(cal.col.len() as u32);
        }
        cal
    }

    /// Runs one pass of the loop and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        self.products();
        self.factorize();
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.shortest_paths();
        let elapsed = t.elapsed().as_secs_f64();
        // Keep the results observable so no part is optimised away.
        assert!(
            self.x[0].is_finite()
                && self.band[0] > 0.0
                && self.sorted[0] <= self.sorted[KEYS - 1]
                && self.dist[SIDE * SIDE - 1] < u64::MAX
        );
        elapsed
    }

    /// Power iteration: `x ← A x / ‖A x‖`.
    fn products(&mut self) {
        self.x.fill(1.0);
        for _ in 0..PRODUCTS {
            for (i, y) in self.y.iter_mut().enumerate() {
                let (a, b) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
                *y = self.col[a..b]
                    .iter()
                    .zip(&self.val[a..b])
                    .map(|(&j, v)| v * self.x[j as usize])
                    .sum();
            }
            let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt();
            for (x, y) in self.x.iter_mut().zip(&self.y) {
                *x = y / norm;
            }
        }
    }

    /// Row-by-row Cholesky of the shifted `BAND × BAND` grid Laplacian.
    fn factorize(&mut self) {
        const W: usize = BAND + 1;
        let l = &mut self.band;
        l.fill(0.0);
        for i in 0..BAND * BAND {
            l[i * W] = 4.01;
            if i % BAND > 0 {
                l[i * W + 1] = -1.0;
            }
            if i >= BAND {
                l[i * W + BAND] = -1.0;
            }
        }
        for i in 0..BAND * BAND {
            let reach = BAND.min(i);
            for k in (1..=reach).rev() {
                // L(i, j) for j = i - k, from the entries left of it.
                let j = i - k;
                let mut s = l[i * W + k];
                for m in k + 1..=reach.min(k + BAND.min(j)) {
                    s -= l[i * W + m] * l[j * W + (m - k)];
                }
                l[i * W + k] = s / l[j * W];
            }
            let d = l[i * W] - (1..=reach).map(|k| l[i * W + k] * l[i * W + k]).sum::<f64>();
            l[i * W] = d.sqrt();
        }
    }

    /// Dijkstra from node 0 over the weighted grid.
    fn shortest_paths(&mut self) {
        self.dist.fill(u64::MAX);
        self.dist[0] = 0;
        self.heap.push(Reverse((0, 0)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.dist[u] {
                continue;
            }
            for (v, e) in neighbours(u) {
                let nd = d + self.weights[e];
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.heap.push(Reverse((nd, v as u32)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_factor_reproduces_the_matrix() {
        const W: usize = BAND + 1;
        let mut cal = Calibration::new();
        cal.factorize();
        let l = |i: usize, j: usize| {
            if i >= j && i - j <= BAND {
                cal.band[i * W + i - j]
            } else {
                0.0
            }
        };
        for i in [0, 1, BAND, BAND + 1, BAND * BAND / 2, BAND * BAND - 1] {
            for j in i.saturating_sub(BAND)..=i {
                let a: f64 = (0..=j).map(|k| l(i, k) * l(j, k)).sum();
                let want = match i - j {
                    0 => 4.01,
                    1 if i % BAND > 0 => -1.0,
                    d if d == BAND => -1.0,
                    _ => 0.0,
                };
                assert!((a - want).abs() < 1e-12, "({i}, {j}): {a} != {want}");
            }
        }
    }

    #[test]
    fn shortest_paths_reach_every_node() {
        let mut cal = Calibration::new();
        cal.shortest_paths();
        assert!(cal.dist.iter().all(|&d| d < u64::MAX));
        assert!(cal.time() > 0.0);
    }
}
