//! Sparse vectors and a dense-workspace accumulator for sparse kernels.

/// A sparse vector stored as parallel `(index, value)` arrays with strictly
/// increasing indices.
///
/// The owned form of [`SparseVecRef`]; its kernels run on
/// [`SparseVec::view`]. The columns of the approximate inverse (paper's
/// Algorithm 1) are views of one flat array, while differences such as
/// `z̃_p − z̃_q` are owned.
///
/// # Example
///
/// ```
/// use tracered_sparse::sparsevec::SparseVec;
///
/// let a = SparseVec::from_entries(4, vec![(0, 1.0), (2, 3.0)]);
/// let b = SparseVec::from_entries(4, vec![(2, 2.0), (3, 5.0)]);
/// assert_eq!(a.view().dot(b.view()), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseVec {
    /// Builds a sparse vector from `(index, value)` entries.
    ///
    /// Entries are sorted and deduplicated by summation; exact zeros are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= dim`.
    pub fn from_entries(dim: usize, mut entries: Vec<(usize, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut iter = entries.into_iter().peekable();
        while let Some((i, mut v)) = iter.next() {
            assert!(i < dim, "index {i} out of bounds for dimension {dim}");
            while let Some(&(j, w)) = iter.peek() {
                if j == i {
                    v += w;
                    iter.next();
                } else {
                    break;
                }
            }
            if v != 0.0 {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVec { dim, indices, values }
    }

    /// Borrowed view of this vector, which carries the kernels.
    pub fn view(&self) -> SparseVecRef<'_> {
        SparseVecRef { dim: self.dim, indices: &self.indices, values: &self.values }
    }

    /// Stored indices (strictly increasing).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Converts to a dense vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        for (i, v) in self.view().iter() {
            out[i] = v;
        }
        out
    }
}

/// A borrowed sparse vector: the layout of [`SparseVec`] (strictly
/// increasing indices) over storage owned elsewhere, such as a column of
/// a flat [`crate::ApproxInverse`]. The sparse kernels live here, for
/// owned vectors and views alike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseVecRef<'a> {
    dim: usize,
    indices: &'a [usize],
    values: &'a [f64],
}

impl<'a> SparseVecRef<'a> {
    /// Views `(indices, values)` as a vector of dimension `dim`; the
    /// caller guarantees strictly increasing indices below `dim`.
    pub(crate) fn new(dim: usize, indices: &'a [usize], values: &'a [f64]) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        SparseVecRef { dim, indices, values }
    }

    /// Dimension of the vector.
    pub fn dim(self) -> usize {
        self.dim
    }

    /// Number of stored nonzeros.
    pub fn nnz(self) -> usize {
        self.indices.len()
    }

    /// Stored indices (strictly increasing).
    pub fn indices(self) -> &'a [usize] {
        self.indices
    }

    /// Stored values.
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// Iterates over `(index, value)` pairs in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Sparse–sparse dot product (merge join on indices).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(self, other: SparseVecRef<'_>) -> f64 {
        assert_eq!(self.dim, other.dim, "dimensions must match");
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] * other.values[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product against a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != self.dim()`.
    pub fn dot_dense(self, dense: &[f64]) -> f64 {
        assert_eq!(dense.len(), self.dim, "dimensions must match");
        self.iter().map(|(i, v)| v * dense[i]).sum()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

impl std::ops::Sub for SparseVecRef<'_> {
    type Output = SparseVec;

    /// `self − other` as a new sparse vector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    fn sub(self, other: Self) -> SparseVec {
        assert_eq!(self.dim, other.dim, "dimensions must match");
        let mut entries = Vec::with_capacity(self.nnz() + other.nnz());
        entries.extend(self.iter());
        entries.extend(other.iter().map(|(i, v)| (i, -v)));
        SparseVec::from_entries(self.dim, entries)
    }
}

/// A dense workspace with a touched-index list, enabling O(nnz) sparse
/// accumulation without clearing the whole buffer between uses.
///
/// This is the classic SPA (sparse accumulator) pattern from sparse matrix
/// codes: `add` scatters into a dense buffer while recording first-touched
/// indices; `gather_and_clear` harvests the result and resets only the
/// touched positions.
#[derive(Debug, Clone)]
pub struct Workspace {
    dense: Vec<f64>,
    touched: Vec<usize>,
    flags: Vec<bool>,
}

impl Workspace {
    /// Creates a workspace of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Workspace { dense: vec![0.0; dim], touched: Vec::new(), flags: vec![false; dim] }
    }

    /// Dimension of the workspace.
    pub fn dim(&self) -> usize {
        self.dense.len()
    }

    /// Adds `value` at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn add(&mut self, index: usize, value: f64) {
        if !self.flags[index] {
            self.flags[index] = true;
            self.touched.push(index);
        }
        self.dense[index] += value;
    }

    /// Current value at `index` (0.0 if untouched).
    pub fn get(&self, index: usize) -> f64 {
        self.dense[index]
    }

    /// Number of touched positions.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Largest accumulated value (0.0 when nothing was touched).
    pub fn max_value(&self) -> f64 {
        self.touched.iter().map(|&i| self.dense[i]).fold(0.0, f64::max)
    }

    /// Appends all touched entries with `|value| > threshold` to
    /// `indices`/`values` in increasing index order, then clears the
    /// workspace for reuse.
    pub fn gather_and_clear(
        &mut self,
        threshold: f64,
        indices: &mut Vec<usize>,
        values: &mut Vec<f64>,
    ) {
        self.touched.sort_unstable();
        for &i in &self.touched {
            let v = self.dense[i];
            if v.abs() > threshold {
                indices.push(i);
                values.push(v);
            }
            self.dense[i] = 0.0;
            self.flags[i] = false;
        }
        self.touched.clear();
    }

    /// Clears the workspace without harvesting.
    pub fn clear(&mut self) {
        for &i in &self.touched {
            self.dense[i] = 0.0;
            self.flags[i] = false;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_sorts_dedupes_drops_zero() {
        let v = SparseVec::from_entries(5, vec![(3, 1.0), (1, 2.0), (3, -1.0), (0, 4.0)]);
        assert_eq!(v.indices(), &[0, 1]);
        assert_eq!(v.values(), &[4.0, 2.0]);
    }

    #[test]
    fn dot_merge_join() {
        let a = SparseVec::from_entries(6, vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let b = SparseVec::from_entries(6, vec![(2, 4.0), (3, 9.0), (5, -1.0)]);
        assert_eq!(a.view().dot(b.view()), 8.0 - 3.0);
    }

    #[test]
    fn sub_and_norm() {
        let a = SparseVec::from_entries(4, vec![(0, 1.0), (1, 2.0)]);
        let b = SparseVec::from_entries(4, vec![(1, 2.0), (2, -1.0)]);
        let d = a.view() - b.view();
        assert_eq!(d.indices(), &[0, 2]);
        assert_eq!(d.values(), &[1.0, 1.0]);
        assert_eq!(d.view().norm_sq(), 2.0);
    }

    #[test]
    fn dense_roundtrip() {
        let a = SparseVec::from_entries(4, vec![(1, 5.0), (3, -2.0)]);
        assert_eq!(a.to_dense(), vec![0.0, 5.0, 0.0, -2.0]);
        assert_eq!(a.view().dot_dense(&[1.0, 1.0, 1.0, 1.0]), 3.0);
    }

    #[test]
    fn workspace_accumulates_and_clears() {
        let mut w = Workspace::new(5);
        w.add(3, 1.0);
        w.add(1, 2.0);
        w.add(3, 0.5);
        assert_eq!(w.touched_len(), 2);
        assert_eq!(w.max_value(), 2.0);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        w.gather_and_clear(0.0, &mut idx, &mut val);
        assert_eq!(idx, [1, 3]);
        assert_eq!(val, [2.0, 1.5]);
        // Reusable after clear; later gathers append.
        assert_eq!(w.touched_len(), 0);
        w.add(0, 7.0);
        w.gather_and_clear(0.0, &mut idx, &mut val);
        assert_eq!(idx, [1, 3, 0]);
    }

    #[test]
    fn workspace_threshold_prunes() {
        let mut w = Workspace::new(4);
        w.add(0, 1.0);
        w.add(1, 0.001);
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        w.gather_and_clear(0.01, &mut idx, &mut val);
        assert_eq!(idx, [0]);
        // Pruned position must still be reset.
        w.add(1, 0.0);
        assert_eq!(w.get(1), 0.0);
    }
}
