//! `pg-transient`: the paper's Table 2 path — sparsify the pad-grounded
//! power-grid mesh, factor the sparsifier once, and run the variable-step
//! PCG transient over 5 ns.

use std::time::Instant;

use tracered_core::metrics::relative_condition_number;
use tracered_core::{sparsify, Method, SparsifyConfig};
use tracered_graph::laplacian::{subgraph_laplacian, ShiftPolicy};
use tracered_powergrid::synth::{synthesize, SynthConfig};
use tracered_powergrid::transient::{probe_pair, simulate_pcg, TransientConfig, TransientResult};
use tracered_powergrid::waveform::merged_time_grid;
use tracered_powergrid::PowerGrid;
use tracered_solver::block_pcg_with_guess;
use tracered_solver::precond::CholPreconditioner;
use tracered_solver::PcgOptions;
use tracered_sparse::order::{select_ordering, Ordering};
use tracered_sparse::{CholeskyFactor, MultiVec};

use crate::mesh::{bits_equal, factor_flops};
use crate::report::{percentile, Samples, Spans};
use crate::{derive_seed, Checks, Workload};

/// The grid is `MESH × MESH` nodes.
pub const MESH: usize = 100;
/// The paper's transient accuracy bound: PCG waveforms stay within 16 mV
/// of a direct solve. Each step converges only to a relative residual, so a
/// node beside a pad may overshoot `vdd` by a few microvolts.
const ACCURACY_V: f64 = 0.016;
/// Iteration cap `simulate_pcg` gives every step.
const STEP_MAX_ITERATIONS: usize = 10_000;

pub struct PgTransient {
    pg: PowerGrid,
    probes: Vec<usize>,
    cfg: SparsifyConfig,
    tcfg: TransientConfig,
    reference: Option<(Vec<usize>, TransientResult)>,
}

/// A synthetic `MESH × MESH` grid with its conductance matrix assembled,
/// and the near-pad and worst-droop probe nodes.
pub fn grid(seed: u64) -> (PowerGrid, Vec<usize>) {
    let pg = synthesize(&SynthConfig { mesh: MESH, seed, ..Default::default() });
    let _ = pg.conductance_shared();
    let (near, far) = probe_pair(&pg);
    (pg, vec![near, far])
}

impl PgTransient {
    pub fn setup(seed: u64) -> Self {
        let (pg, probes) = grid(derive_seed(seed, 11));
        let cfg = SparsifyConfig::new(Method::TraceReduction)
            .shift(ShiftPolicy::PerNode(pg.pad_conductance().to_vec()));
        PgTransient { pg, probes, cfg, tcfg: TransientConfig::default(), reference: None }
    }
}

impl Workload for PgTransient {
    fn size(&self) -> (usize, usize) {
        (self.pg.num_nodes(), self.pg.graph().num_edges())
    }

    fn job(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let g = self.pg.graph();
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
        let t2 = Instant::now();
        let res = match simulate_pcg(&self.pg, &self.tcfg, &pre, &self.probes) {
            Ok(r) => r,
            Err(e) => return checks.fail(format!("simulate_pcg failed: {e}")),
        };
        let t3 = Instant::now();

        let build = (t1 - t0).as_secs_f64();
        let total = (t3 - t0).as_secs_f64();
        samples.push("build_s", build);
        samples.push("solve_s", total - build);
        samples.push("time_to_result_s", total);
        samples.push("sparsify_s", build);
        samples.push("transient_s", (t3 - t2).as_secs_f64());
        samples.push("time_to_waveform_s", total);
        samples.push("pcg_iters", res.stats.total_pcg_iterations as f64);

        // A step that exhausted its iteration cap alone would push the
        // total past the cap, so a smaller total proves every step
        // converged (the traced replay checks each step directly).
        checks.check(
            res.stats.total_pcg_iterations < STEP_MAX_ITERATIONS,
            format!(
                "{} PCG iterations: a step may have hit the cap",
                res.stats.total_pcg_iterations
            ),
        );
        checks.check(
            res.stats.steps + 1 == res.times.len(),
            "step count disagrees with the time grid",
        );
        let vdd = self.pg.vdd();
        let bad: Vec<f64> = res
            .probes
            .iter()
            .flatten()
            .copied()
            .filter(|&v| !crate::in_supply_range(v, vdd, ACCURACY_V))
            .collect();
        checks.check(
            bad.is_empty(),
            format!("{} probe voltages outside (0, vdd], e.g. {:?}", bad.len(), bad.first()),
        );
        match &self.reference {
            None => self.reference = Some((sp.edge_ids().to_vec(), res)),
            Some((edges, r)) => checks.check(
                edges == sp.edge_ids()
                    && r.probes.iter().zip(&res.probes).all(|(a, b)| bits_equal(a, b)),
                "repeated job changed the sparsifier or the waveforms",
            ),
        }
    }

    fn traced_job(&mut self, spans: &mut Spans, checks: &mut Checks) -> bool {
        let pg = &self.pg;
        let g = pg.graph();
        let Some((ref_edges, reference)) = self.reference.as_ref() else {
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

        // `simulate_pcg`, call by call: DC operating point through the
        // direct solver's ordering selection, then the step loop.
        let t_run = Instant::now();
        let n = pg.num_nodes();
        let waveforms: Vec<_> = pg.sources().iter().map(|s| s.waveform).collect();
        let grid = spans.time("transient.grid_s", || {
            merged_time_grid(&waveforms, self.tcfg.t_end, self.tcfg.max_step)
        });
        let gm = pg.conductance_shared();
        let order = spans.time("sparse.order.full_s", || {
            select_ordering(&gm, &[Ordering::MinDegree, Ordering::NestedDissection])
        });
        let factor = order.and_then(|(_, perm, _)| {
            spans.time("sparse.chol.full_s", || {
                CholeskyFactor::factorize_with_perm_kernel(&gm, perm, self.tcfg.kernel, 1)
            })
        });
        let factor = match factor {
            Ok(f) => f,
            Err(e) => {
                checks.fail(format!("DC factorization failed: {e}"));
                return false;
            }
        };
        spans.set("sparse.chol.full_nnz_l", factor.nnz() as f64);
        let mut b = MultiVec::zeros(n, 1);
        b.col_mut(0).copy_from_slice(&pg.dc_rhs_scaled(None));
        let mut v = spans.time("solver.direct.solve_s", || factor.solve_multi(&b));
        let mut probes: Vec<Vec<f64>> = self.probes.iter().map(|&p| vec![v.col(0)[p]]).collect();
        let opts = PcgOptions {
            rel_tolerance: self.tcfg.pcg_tol,
            max_iterations: STEP_MAX_ITERATIONS,
            threads: self.tcfg.threads.max(1),
        };
        let cap = pg.capacitance();
        let mut rhs = MultiVec::zeros(n, 1);
        let mut step_ms = Vec::with_capacity(grid.len());
        let mut iters = 0usize;
        let mut unconverged = 0usize;
        for w in grid.windows(2) {
            let t_step = Instant::now();
            let h = w[1] - w[0];
            let a = spans.time("sparse.csc.add_diagonal_s", || {
                let shifts: Vec<f64> = cap.iter().map(|&c| c / h).collect();
                gm.add_diagonal(&shifts)
            });
            let a = a.expect("conductance matrix is square");
            spans.time("transient.rhs_s", || {
                pg.transient_rhs_scaled(w[1], h, v.col(0), None, rhs.col_mut(0))
            });
            let sol = spans.time("solver.block_pcg.s", || {
                block_pcg_with_guess(&a, &rhs, Some(&v), &pre, &opts)
            });
            iters += sol.iterations[0];
            unconverged += usize::from(!sol.converged[0]);
            v = sol.x;
            for (trace, &p) in probes.iter_mut().zip(&self.probes) {
                trace.push(v.col(0)[p]);
            }
            step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
        }
        spans.add("transient.s", t_run.elapsed().as_secs_f64());
        spans.set("pipeline.s", start.elapsed().as_secs_f64());
        spans.set("sparse.chol.nnz_l", pre.factor().nnz() as f64);
        spans.set("sparse.chol.flops", factor_flops(&lp, &pre));
        let steps = step_ms.len();
        spans.set("transient.steps", steps as f64);
        spans.set("transient.step_p50_ms", percentile(&step_ms, 0.5));
        spans.set("transient.step_p90_ms", percentile(&step_ms, 0.9));
        spans.set("solver.block_pcg.iters_per_step", iters as f64 / steps.max(1) as f64);
        spans.set("quality.pcg_iters", iters as f64);
        let kappa = spans.time("core.metrics.kappa_s", || {
            relative_condition_number(&gm, pre.factor(), 60, 2024)
        });
        spans.set("quality.kappa", kappa);
        checks.check(unconverged == 0, format!("{unconverged} transient steps did not converge"));
        edges == *ref_edges
            && reference.probes.iter().zip(&probes).all(|(a, b)| bits_equal(a, b))
            && reference.stats.total_pcg_iterations == iters
    }
}
