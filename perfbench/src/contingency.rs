//! `pg-contingency`: the contingency screening path — one
//! `simulate_contingency_batch` call over 512 outages of a synthetic
//! power grid (three quarters line outages and reweights, a quarter load
//! steps), timed per outage from outside through an [`EpochHook`].

use std::cell::RefCell;
use std::time::Instant;

use tracered_powergrid::{
    simulate_contingency_batch, simulate_contingency_refactor, ContingencyConfig, ContingencySweep,
    EpochHook, Outage, OutageEvent, OutageOutcome, PowerGrid,
};
use tracered_sparse::order::Ordering;
use tracered_sparse::CholeskyFactor;

use crate::mesh::bits_equal;
use crate::report::{percentile, Samples, Spans};
use crate::transient::grid;
use crate::{derive_seed, Checks, Workload};

const OUTAGES: usize = 512;
/// Outages re-solved by the refactor-per-outage reference: a line
/// outage, a reweight and a load step.
const REFERENCE_SUBSET: [usize; 3] = [0, 1, 3];
/// Relative agreement required between the batch and the reference.
const REFERENCE_TOL: f64 = 1e-6;

/// Records when each matrix perturbation was applied and reverted.
struct Clock {
    start: Instant,
    events: RefCell<Vec<(bool, f64)>>,
}

impl Clock {
    fn new() -> Self {
        Clock { start: Instant::now(), events: RefCell::new(Vec::with_capacity(2 * OUTAGES)) }
    }

    fn stamp(&self, applied: bool) {
        self.events.borrow_mut().push((applied, self.start.elapsed().as_secs_f64()));
    }

    fn first_apply(&self) -> Option<f64> {
        self.events.borrow().iter().find(|e| e.0).map(|e| e.1)
    }

    /// Per outage: time from the previous revert to this apply (the
    /// update/downdate) and from this apply to its revert (solve and
    /// revert), both in ms. The first apply has no previous revert.
    fn intervals(&self) -> (Vec<f64>, Vec<f64>) {
        let ev = self.events.borrow();
        let mut apply = Vec::new();
        let mut hold = Vec::new();
        for w in ev.windows(2) {
            match (w[0].0, w[1].0) {
                (false, true) => apply.push((w[1].1 - w[0].1) * 1e3),
                (true, false) => hold.push((w[1].1 - w[0].1) * 1e3),
                _ => {}
            }
        }
        (apply, hold)
    }
}

impl EpochHook for Clock {
    fn outage_applied(&self, _event: &OutageEvent) {
        self.stamp(true);
    }

    fn outage_reverted(&self, _event: &OutageEvent) {
        self.stamp(false);
    }
}

pub struct PgContingency {
    pg: PowerGrid,
    probes: Vec<usize>,
    outages: Vec<Outage>,
    cfg: ContingencyConfig,
    reference: Option<ContingencySweep>,
}

/// The outage list: a fixed pattern of strides over edges and nodes whose
/// offsets come from the seed.
fn outage_list(pg: &PowerGrid, seed: u64) -> Vec<Outage> {
    let m = pg.graph().num_edges();
    let n = pg.num_nodes();
    let off: Vec<usize> = (0..4).map(|k| derive_seed(seed, 100 + k) as usize).collect();
    (0..OUTAGES)
        .map(|i| match i % 4 {
            0 => Outage::LineOutage { edge: (i * 37 + off[0] % m) % m },
            1 => Outage::Reweight { edge: (i * 53 + off[1] % m) % m, new_weight: 2.0 },
            2 => Outage::Reweight { edge: (i * 101 + off[2] % m) % m, new_weight: 0.5 },
            _ => Outage::LoadStep { node: (i * 71 + off[3] % n) % n, extra_current: 2e-3 },
        })
        .collect()
}

impl PgContingency {
    pub fn setup(seed: u64) -> Self {
        let (pg, probes) = grid(derive_seed(seed, 21));
        let outages = outage_list(&pg, derive_seed(seed, 22));
        PgContingency { pg, probes, outages, cfg: ContingencyConfig::default(), reference: None }
    }

    fn sweep(&self, clock: &Clock) -> Result<ContingencySweep, String> {
        simulate_contingency_batch(&self.pg, &self.outages, &self.probes, &self.cfg, Some(clock))
            .map_err(|e| format!("contingency sweep failed: {e}"))
    }

    fn check_sweep(&self, sweep: &ContingencySweep, checks: &mut Checks) {
        let r = &sweep.report;
        checks.check(
            r.completed == OUTAGES && r.failures == 0,
            format!("{} outages completed, {} failed", r.completed, r.failures),
        );
        let vdd = self.pg.vdd();
        let bad: Vec<f64> = sweep
            .outcomes
            .iter()
            .filter_map(OutageOutcome::result)
            .flat_map(|s| s.probes.iter().copied())
            .filter(|&v| !crate::in_supply_range(v, vdd, vdd * self.cfg.residual_tol))
            .collect();
        checks.check(
            bad.is_empty(),
            format!("{} probe voltages outside (0, vdd], e.g. {:?}", bad.len(), bad.first()),
        );
    }

    /// Re-solves [`REFERENCE_SUBSET`] by refactorization and compares.
    fn check_against_refactor(&self, sweep: &ContingencySweep, checks: &mut Checks) {
        let subset: Vec<Outage> = REFERENCE_SUBSET.iter().map(|&i| self.outages[i]).collect();
        let naive = match simulate_contingency_refactor(&self.pg, &subset, &self.probes, &self.cfg)
        {
            Ok(s) => s,
            Err(e) => return checks.fail(format!("refactor reference failed: {e}")),
        };
        for (k, &i) in REFERENCE_SUBSET.iter().enumerate() {
            let agree = match (sweep.outcomes[i].result(), naive.outcomes[k].result()) {
                (Some(a), Some(b)) => a
                    .probes
                    .iter()
                    .zip(&b.probes)
                    .all(|(x, y)| (x - y).abs() <= REFERENCE_TOL * y.abs().max(1.0)),
                _ => false,
            };
            checks.check(agree, format!("outage {i}: batch and refactor probes disagree"));
        }
    }
}

fn same_outcomes(a: &ContingencySweep, b: &ContingencySweep) -> bool {
    a.outcomes.len() == b.outcomes.len()
        && a.outcomes.iter().zip(&b.outcomes).all(|(x, y)| match (x.result(), y.result()) {
            (Some(p), Some(q)) => {
                bits_equal(&p.probes, &q.probes)
                    && p.min_voltage.to_bits() == q.min_voltage.to_bits()
                    && p.used_fallback == q.used_fallback
            }
            (None, None) => x.failure() == y.failure(),
            _ => false,
        })
}

impl Workload for PgContingency {
    fn size(&self) -> (usize, usize) {
        (self.pg.num_nodes(), self.pg.graph().num_edges())
    }

    fn job(&mut self, samples: &mut Samples, checks: &mut Checks) {
        let clock = Clock::new();
        let sweep = match self.sweep(&clock) {
            Ok(s) => s,
            Err(e) => return checks.fail(e),
        };
        let total = clock.start.elapsed().as_secs_f64();
        let build = clock.first_apply().unwrap_or(total);
        samples.push("build_s", build);
        samples.push("solve_s", total - build);
        samples.push("time_to_result_s", total);
        samples.push("outages_per_s", OUTAGES as f64 / total);
        self.check_sweep(&sweep, checks);
        match &self.reference {
            None => {
                self.check_against_refactor(&sweep, checks);
                self.reference = Some(sweep);
            }
            Some(r) => {
                checks.check(same_outcomes(r, &sweep), "repeated sweep changed its outcomes")
            }
        }
    }

    fn traced_job(&mut self, spans: &mut Spans, checks: &mut Checks) -> bool {
        let clock = Clock::new();
        let sweep = match self.sweep(&clock) {
            Ok(s) => s,
            Err(e) => {
                checks.fail(e);
                return false;
            }
        };
        spans.add("contingency.s", clock.start.elapsed().as_secs_f64());
        spans.set("pipeline.s", spans.get("contingency.s"));
        self.check_sweep(&sweep, checks);
        let (apply, hold) = clock.intervals();
        spans.set("contingency.apply_p50_ms", percentile(&apply, 0.5));
        spans.set("contingency.solve_revert_p50_ms", percentile(&hold, 0.5));
        spans.set("contingency.solve_revert_p95_ms", percentile(&hold, 0.95));
        let r = &sweep.report;
        spans.set("contingency.rhs_only", r.rhs_only as f64);
        spans.set("contingency.refactorizations", r.refactorizations as f64);
        spans.set("sparse.update.applied", r.applied_updates as f64);
        spans.set("sparse.update.fallbacks", r.update_fallbacks as f64);
        let attempts = (r.applied_updates + r.update_fallbacks).max(1);
        spans.set("sparse.update.success_ratio", r.applied_updates as f64 / attempts as f64);

        // The base factor the sweep builds inside, replayed call by call.
        let g = self.pg.conductance_shared();
        let factor = spans
            .time("sparse.order.full_s", || Ordering::MinDegree.compute(&g))
            .and_then(|perm| {
                spans.time("sparse.chol.full_s", || {
                    CholeskyFactor::factorize_with_perm_kernel(&g, perm, self.cfg.kernel, 1)
                })
            });
        match factor {
            Ok(f) => spans.set("sparse.chol.full_nnz_l", f.nnz() as f64),
            Err(e) => checks.fail(format!("base factorization failed: {e}")),
        }
        match &self.reference {
            Some(r) => same_outcomes(r, &sweep),
            None => {
                checks.fail("no untraced output to compare the replay with");
                false
            }
        }
    }
}
