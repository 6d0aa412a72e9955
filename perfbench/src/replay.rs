//! Traced replay of `tracered_core::sparsify` (paper Algorithm 2) through
//! the public calls it is built from, timing each call under its layer.
//!
//! The replay must select exactly the edges `sparsify` selects; the
//! workloads compare the two edge lists and mark the per-layer numbers
//! invalid on any difference, so a restructured `sparsify` cannot silently
//! skew the attribution.

use std::time::Instant;

use tracered_core::criticality::{subgraph_phase_scores_threads, tree_phase_scores_threads};
use tracered_core::similarity::SimilarityExclusion;
use tracered_core::{CoreError, Method, SparsifyConfig};
use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
use tracered_graph::lca::tree_resistances_threads;
use tracered_graph::mst::spanning_tree;
use tracered_graph::{Graph, RootedTree};
use tracered_sparse::{ApproxInverse, CholeskyFactor, SpaiOptions};

use crate::report::Spans;

/// Replays trace-reduction sparsification, adding every call's time to
/// `spans`, and returns the selected edge ids (spanning tree first) and
/// the shift vector.
///
/// Recorded: `graph.{mst,lca,laplacian,subgraph}.s`,
/// `core.criticality.{tree_s,subgraph_s,candidates}` and the per-candidate
/// scoring costs,
/// `core.similarity.{s,skips}`, `core.rank.s`, `sparse.{order,chol,spai}.s`,
/// `sparse.spai.nnz` (largest factor inverse), `sparsify.s` (the whole
/// replay) and `sparsify.unattributed_s` (its time outside every layer).
pub fn sparsify(
    g: &Graph,
    cfg: &SparsifyConfig,
    spans: &mut Spans,
) -> Result<(Vec<usize>, Vec<f64>), CoreError> {
    assert_eq!(cfg.method(), Method::TraceReduction, "the replay covers trace reduction only");
    assert!(
        cfg.pivot_boost_value().is_none() && !cfg.track_trace_enabled(),
        "the replay covers the default fail-fast, untracked configuration"
    );
    let start = Instant::now();
    let before = spans.timed();
    let n = g.num_nodes();
    let shifts = spans.time("graph.laplacian.s", || cfg.shift_value().shifts(g))?;
    let (st, tree) = spans.time("graph.mst.s", || -> Result<_, CoreError> {
        let st = spanning_tree(g, cfg.tree_kind_value())?;
        let root = (0..n)
            .max_by(|&a, &b| g.weighted_degree(a).total_cmp(&g.weighted_degree(b)))
            .unwrap_or(0);
        let tree = RootedTree::build(g, &st.tree_edges, root)?;
        Ok((st, tree))
    })?;
    let budget =
        ((cfg.edge_fraction_value() * n as f64).round() as usize).min(st.off_tree_edges.len());
    let nr = cfg.num_iterations();
    // `sparsify` assembles L_G up front whatever the method reads.
    let _lg = spans.time("graph.laplacian.s", || laplacian_with_shifts(g, &shifts));
    let threads = tracered_par::effective_threads(cfg.threads_value());
    let factor_threads = tracered_par::effective_threads(cfg.factor_threads_value());

    let mut selected = st.tree_edges.clone();
    let mut candidates = st.off_tree_edges;
    let mut excl = SimilarityExclusion::new(n, cfg.similarity_layers_value());
    let mut remaining = budget;
    let (mut tree_cands, mut subgraph_cands) = (0, 0);
    for iter_idx in 0..nr {
        if remaining == 0 || candidates.is_empty() {
            break;
        }
        let quota = remaining.div_ceil(nr - iter_idx).min(remaining);
        spans.add("core.criticality.candidates", candidates.len() as f64);
        let scores = if iter_idx == 0 {
            let rs = spans.time("graph.lca.s", || {
                let pairs: Vec<(usize, usize)> =
                    candidates.iter().map(|&id| (g.edge(id).u, g.edge(id).v)).collect();
                tree_resistances_threads(&tree, &pairs, threads)
            });
            tree_cands += candidates.len();
            spans.time("core.criticality.tree_s", || {
                tree_phase_scores_threads(g, &tree, &candidates, &rs, cfg.beta_value(), threads)
            })
        } else {
            let ls = spans.time("graph.laplacian.s", || subgraph_laplacian(g, &selected, &shifts));
            let perm = spans.time("sparse.order.s", || cfg.ordering_value().compute(&ls))?;
            let factor = spans.time("sparse.chol.s", || {
                CholeskyFactor::factorize_with_perm_kernel(
                    &ls,
                    perm,
                    cfg.kernel_value(),
                    factor_threads,
                )
            })?;
            let zinv = spans.time("sparse.spai.s", || {
                ApproxInverse::build(
                    factor.l(),
                    SpaiOptions::with_threshold(cfg.spai_threshold_value()),
                )
            })?;
            spans.set("sparse.spai.nnz", spans.get("sparse.spai.nnz").max(zinv.nnz() as f64));
            let subgraph = spans.time("graph.subgraph.s", || g.edge_subgraph(&selected));
            subgraph_cands += candidates.len();
            spans.time("core.criticality.subgraph_s", || {
                subgraph_phase_scores_threads(
                    g,
                    &subgraph,
                    &factor,
                    &zinv,
                    &candidates,
                    cfg.beta_value(),
                    threads,
                )
            })
        };

        let order = spans.time("core.rank.s", || {
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_unstable_by(|&a, &b| {
                scores[b].total_cmp(&scores[a]).then_with(|| candidates[a].cmp(&candidates[b]))
            });
            order
        });
        let mut picked_flags = vec![false; candidates.len()];
        let mut picked = 0usize;
        if cfg.similarity_exclusion_enabled() {
            let skips = spans.time("core.similarity.s", || {
                let mut skips = 0;
                excl.begin_iteration();
                let mark_graph = g.edge_subgraph(&selected);
                for &ci in &order {
                    if picked == quota {
                        break;
                    }
                    let e = g.edge(candidates[ci]);
                    if excl.is_excluded(e.u, e.v) {
                        skips += 1;
                        continue;
                    }
                    picked_flags[ci] = true;
                    picked += 1;
                    excl.mark_recovered(&mark_graph, e.u, e.v);
                }
                skips
            });
            spans.add("core.similarity.skips", f64::from(skips));
        }
        candidates = spans.time("core.rank.s", || {
            for &ci in &order {
                if picked == quota {
                    break;
                }
                if !picked_flags[ci] {
                    picked_flags[ci] = true;
                    picked += 1;
                }
            }
            let mut next = Vec::with_capacity(candidates.len() - picked);
            for (ci, &id) in candidates.iter().enumerate() {
                if picked_flags[ci] {
                    selected.push(id);
                } else {
                    next.push(id);
                }
            }
            next
        });
        remaining -= picked;
    }
    let total = start.elapsed().as_secs_f64();
    spans.add("sparsify.s", total);
    spans.add("sparsify.unattributed_s", total - (spans.timed() - before));
    for (time, count, out) in [
        ("core.criticality.tree_s", tree_cands, "core.criticality.tree_us_per_cand"),
        ("core.criticality.subgraph_s", subgraph_cands, "core.criticality.subgraph_us_per_cand"),
    ] {
        if count > 0 {
            spans.set(out, spans.get(time) * 1e6 / count as f64);
        }
    }
    Ok((selected, shifts))
}
