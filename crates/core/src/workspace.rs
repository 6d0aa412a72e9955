//! Shared per-worker workspace shapes for the parallel drivers.
//!
//! The pool's per-thread scratch cache keys on the scratch **type**
//! ([`tracered_par::par_chunks_mut_scratch`]), so every call site using
//! the same type shares one slot per thread. Giving that shared slot a
//! named type (rather than an anonymous tuple) makes the coupling
//! visible and states the contract once: the value is a **capacity
//! donor only**, and every user must fully overwrite the workspace per
//! job.

/// Two `f64` workspaces recycled together through the scratch cache.
///
/// Shared by the GRASS probe evaluator (`grass::grass_scores_threads`:
/// probe + power-iteration temp) and the Hutchinson trace estimator
/// (`metrics::trace_proxy_hutchinson_threads`: `L_G z` + solve output). Both
/// resize to the region's `n` and fully overwrite each vector per job,
/// so only capacity carries over between regions — never values.
#[derive(Default)]
pub(crate) struct VecPair {
    /// First workspace (probe / matvec output).
    pub a: Vec<f64>,
    /// Second workspace (iteration temp / solve output).
    pub b: Vec<f64>,
}

/// Recycling factory: returns a [`VecPair`] of two length-`n` zeroed
/// vectors, reusing the cached pair's allocations when present.
pub(crate) fn vec_pair_factory(n: usize) -> impl Fn(Option<VecPair>) -> VecPair + Sync {
    move |cached| {
        let mut pair = cached.unwrap_or_default();
        pair.a.clear();
        pair.a.resize(n, 0.0);
        pair.b.clear();
        pair.b.resize(n, 0.0);
        pair
    }
}
