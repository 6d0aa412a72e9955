//! `mesh-solve`: the paper's Table 1 path on a weighted triangular mesh —
//! sparsify, factor L_P, solve with PCG to 1e-3, estimate κ(L_G, L_P).

use std::time::Instant;

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, SparsifyConfig};
use tracered_graph::gen::{tri_mesh, WeightProfile};
use tracered_graph::laplacian::{laplacian_with_shifts, subgraph_laplacian};
use tracered_graph::Graph;
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::{pcg, PcgOptions};
use tracered_sparse::chol::SymbolicCholesky;
use tracered_sparse::CscMatrix;

use crate::report::{Samples, Spans};
use crate::{derive_seed, random_vector, Checks, Workload};

const ROWS: usize = 150;
const COLS: usize = 88;
const PCG_TOL: f64 = 1e-3;
const KAPPA_ITERS: usize = 60;
const KAPPA_SEED: u64 = 2024;

/// What one untraced job produced; the traced replay must reproduce it.
struct Reference {
    edges: Vec<usize>,
    x: Vec<f64>,
    kappa: f64,
}

pub struct MeshSolve {
    g: Graph,
    b: Vec<f64>,
    cfg: SparsifyConfig,
    reference: Option<Reference>,
}

/// `‖b − A x‖₂ / ‖b‖₂`, recomputed here rather than trusted from PCG.
fn true_rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    let r: f64 = ax.iter().zip(b).map(|(p, q)| (q - p) * (q - p)).sum::<f64>().sqrt();
    r / b.iter().map(|v| v * v).sum::<f64>().sqrt()
}

impl MeshSolve {
    pub fn setup(seed: u64) -> Self {
        let g = tri_mesh(
            ROWS,
            COLS,
            WeightProfile::LogUniform { lo: 0.2, hi: 5.0 },
            derive_seed(seed, 1),
        );
        let b = random_vector(g.num_nodes(), derive_seed(seed, 2));
        MeshSolve { g, b, cfg: SparsifyConfig::default(), reference: None }
    }
}

impl Workload for MeshSolve {
    fn size(&self) -> (usize, usize) {
        (self.g.num_nodes(), self.g.num_edges())
    }

    fn job(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let g = &self.g;
        let t0 = Instant::now();
        let sp = match sparsify(g, &self.cfg) {
            Ok(sp) => sp,
            Err(e) => return checks.fail(format!("sparsify failed: {e}")),
        };
        let t1 = Instant::now();
        let pre = match CholPreconditioner::from_matrix(&sp.laplacian(g)) {
            Ok(p) => p,
            Err(e) => return checks.fail(format!("L_P factorization failed: {e}")),
        };
        let lg = sp.graph_laplacian(g);
        let sol = pcg(&lg, &self.b, &pre, &PcgOptions::with_tolerance(PCG_TOL));
        let t2 = Instant::now();
        let kappa = relative_condition_number(&lg, pre.factor(), KAPPA_ITERS, KAPPA_SEED);

        let build = (t1 - t0).as_secs_f64();
        let total = (t2 - t0).as_secs_f64();
        samples.push("build_s", build);
        samples.push("solve_s", total - build);
        samples.push("time_to_result_s", total);
        samples.push("sparsify_s", build);
        samples.push("time_to_solution_s", total);
        samples.push("kappa", kappa);
        samples.push("pcg_iters", sol.iterations as f64);

        let n = g.num_nodes();
        checks.check(sp.as_graph(g).is_connected(), "sparsifier is disconnected");
        let budget = ((0.1 * n as f64).round() as usize).min(g.num_edges() + 1 - n);
        checks.check(
            sp.tree_edge_count() == n - 1 && sp.edge_ids().len() == n - 1 + budget,
            format!(
                "sparsifier has {} edges, expected tree {} + budget {budget}",
                sp.edge_ids().len(),
                n - 1
            ),
        );
        checks.check(sol.converged, "PCG did not converge");
        let rel = true_rel_residual(&lg, &sol.x, &self.b);
        checks.check(rel <= PCG_TOL, format!("recomputed relative residual {rel:e} > {PCG_TOL:e}"));
        checks.check(kappa.is_finite() && kappa >= 1.0 - 1e-9, format!("κ = {kappa} is not ≥ 1"));
        match &self.reference {
            None => {
                self.reference = Some(Reference { edges: sp.edge_ids().to_vec(), x: sol.x, kappa });
            }
            Some(r) => checks.check(
                r.edges == sp.edge_ids() && bits_equal(&r.x, &sol.x) && r.kappa == kappa,
                "repeated job changed the sparsifier, the solution or κ",
            ),
        }
    }

    fn traced_job(&mut self, spans: &mut Spans, checks: &mut Checks) -> bool {
        let g = &self.g;
        let Some(reference) = self.reference.as_ref() else {
            checks.fail("no untraced output to compare the replay with");
            return false;
        };
        let start = Instant::now();
        let (edges, shifts) = match crate::replay::sparsify(g, &self.cfg, spans) {
            Ok(out) => out,
            Err(e) => {
                checks.fail(format!("replayed sparsify failed: {e}"));
                return false;
            }
        };
        let lp = spans.time("graph.laplacian.s", || subgraph_laplacian(g, &edges, &shifts));
        let pre = match spans.time("solver.precond.s", || CholPreconditioner::from_matrix(&lp)) {
            Ok(p) => p,
            Err(e) => {
                checks.fail(format!("L_P factorization failed: {e}"));
                return false;
            }
        };
        let lg = spans.time("graph.laplacian.s", || laplacian_with_shifts(g, &shifts));
        let sol = spans
            .time("solver.pcg.s", || pcg(&lg, &self.b, &pre, &PcgOptions::with_tolerance(PCG_TOL)));
        spans.set("pipeline.s", start.elapsed().as_secs_f64());
        let kappa = spans.time("core.metrics.kappa_s", || {
            relative_condition_number(&lg, pre.factor(), KAPPA_ITERS, KAPPA_SEED)
        });
        spans.set(
            "solver.pcg.us_per_iter",
            spans.get("solver.pcg.s") * 1e6 / sol.iterations.max(1) as f64,
        );
        spans.set("quality.kappa", kappa);
        spans.set("quality.pcg_iters", sol.iterations as f64);
        spans.set("sparse.chol.nnz_l", pre.factor().nnz() as f64);
        spans.set("sparse.chol.flops", factor_flops(&lp, &pre));
        checks.check(sol.converged, "replayed PCG did not converge");
        edges == reference.edges && bits_equal(&sol.x, &reference.x) && kappa == reference.kappa
    }
}

/// Bitwise equality of two vectors.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Flop model of a factorization: the sum of
/// [`SymbolicCholesky::column_costs`] over the permuted matrix.
pub fn factor_flops(a: &CscMatrix, pre: &CholPreconditioner) -> f64 {
    a.symmetric_perm_upper(pre.factor().perm())
        .and_then(|upper| SymbolicCholesky::analyze(&upper))
        .map_or(0.0, |s| s.column_costs().iter().sum::<u64>() as f64)
}
