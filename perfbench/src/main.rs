//! The tracered benchmark: three closed-loop workloads, each job one full
//! call of the pipeline it exercises, timed from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh-solve --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the pipeline untraced and reports the end-to-end
//! metrics; `--trace 1` replays it call by call and reports the per-layer
//! metrics. `--workload all` runs every workload in a process of its own
//! and forwards their output.
//! Every run prints a detailed `record {...}` line and, last, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod calib;
mod contingency;
mod mesh;
mod replay;
mod report;
mod transient;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{median, Kind, Metric, Samples, Spans};

/// The seed claims are made at.
const BENCH_SEED: u64 = 1;
/// A second seed, kept out of tuning, to check claims on.
const HELD_OUT_SEED: u64 = 2;
/// Input instances per run, each generated from its own seed derived from
/// the run's seed; jobs rotate over them, so a run's medians average over
/// inputs rather than resting on one. `setup_s` is the median of their
/// set-ups.
const INSTANCES: u64 = 4;
/// Calibration passes run before every set-up and after every job.
const CALIBRATION_PASSES: usize = 3;
/// Median time of one calibration pass on the machine the benchmark was
/// tuned on (a 2.1 GHz Xeon VM with 2 vCPUs, unloaded). Timed metrics are
/// reported at that machine's speed: each sample is scaled by this over
/// the median pass time around the step that recorded it.
const REFERENCE_PASS_S: f64 = 12.0e-3;
/// Steps on each side of a step whose passes make up its median: the
/// host's speed changes within seconds, so a step is scaled by the passes
/// made just before and after it rather than by the whole run's.
const CALIBRATION_WINDOW: usize = 1;

const WORKLOADS: [&str; 3] = ["mesh-solve", "pg-transient", "pg-contingency"];

/// End-to-end metrics every workload reports (`--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("time_to_result_s", "s"),
    ("build_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The workload-specific end-to-end figures, reported in the record.
const RECORD_ONLY: [(&str, &str); 8] = [
    ("sparsify_s", "s"),
    ("time_to_solution_s", "s"),
    ("transient_s", "s"),
    ("time_to_waveform_s", "s"),
    ("outages_per_s", "1/s"),
    ("kappa", "ratio"),
    ("pcg_iters", "count"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`); 0 where a workload does not exercise
/// the layer.
const PER_LAYER: [(&str, &str); 49] = [
    ("core.criticality.subgraph_s", "s"),
    ("core.criticality.tree_s", "s"),
    ("core.criticality.subgraph_us_per_cand", "us"),
    ("core.criticality.tree_us_per_cand", "us"),
    ("core.criticality.candidates", "count"),
    ("core.similarity.s", "s"),
    ("core.similarity.skips", "count"),
    ("core.rank.s", "s"),
    ("core.metrics.kappa_s", "s"),
    ("graph.mst.s", "s"),
    ("graph.lca.s", "s"),
    ("graph.laplacian.s", "s"),
    ("graph.subgraph.s", "s"),
    ("sparse.order.s", "s"),
    ("sparse.chol.s", "s"),
    ("sparse.chol.nnz_l", "count"),
    ("sparse.chol.flops", "count"),
    ("sparse.spai.s", "s"),
    ("sparse.spai.nnz", "count"),
    ("sparse.order.full_s", "s"),
    ("sparse.chol.full_s", "s"),
    ("sparse.chol.full_nnz_l", "count"),
    ("sparse.csc.add_diagonal_s", "s"),
    ("sparse.update.applied", "count"),
    ("sparse.update.fallbacks", "count"),
    ("sparse.update.success_ratio", "ratio"),
    ("solver.precond.s", "s"),
    ("solver.pcg.s", "s"),
    ("solver.pcg.us_per_iter", "us"),
    ("solver.block_pcg.s", "s"),
    ("solver.block_pcg.iters_per_step", "count"),
    ("solver.direct.solve_s", "s"),
    ("transient.s", "s"),
    ("transient.steps", "count"),
    ("transient.step_p50_ms", "ms"),
    ("transient.step_p90_ms", "ms"),
    ("transient.grid_s", "s"),
    ("transient.rhs_s", "s"),
    ("contingency.s", "s"),
    ("contingency.apply_p50_ms", "ms"),
    ("contingency.solve_revert_p50_ms", "ms"),
    ("contingency.solve_revert_p95_ms", "ms"),
    ("contingency.rhs_only", "count"),
    ("contingency.refactorizations", "count"),
    ("sparsify.s", "s"),
    ("sparsify.unattributed_s", "s"),
    ("quality.kappa", "ratio"),
    ("quality.pcg_iters", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Extra per-layer metrics computed from the run rather than a layer.
const PER_LAYER_RUN: [(&str, &str); 2] =
    [("replay.bit_identical", "bool"), ("failed_frac", "ratio")];

/// One workload: an input set built by its `setup`, a full pipeline call
/// per job, and a traced replay of that call.
pub trait Workload {
    /// Nodes and edges of the input graph.
    fn size(&self) -> (usize, usize);
    /// One untraced job: pushes its end-to-end samples and checks its
    /// outputs. The first job's outputs become the replay reference.
    fn job(&mut self, samples: &mut Samples, checks: &mut Checks);
    /// One traced replay: adds every layer's time to `spans`, sets
    /// `pipeline.s` to the time of the calls the untraced job times, and
    /// returns whether the replay reproduced the reference bit for bit.
    fn traced_job(&mut self, spans: &mut Spans, checks: &mut Checks) -> bool;
}

/// Output checks, counted per job: a job fails if any of its checks does.
#[derive(Debug, Default)]
pub struct Checks {
    jobs: usize,
    failed_jobs: usize,
    job_failed: bool,
    messages: Vec<String>,
}

impl Checks {
    fn begin_job(&mut self) {
        self.jobs += 1;
        self.job_failed = false;
    }

    fn end_job(&mut self) {
        self.failed_jobs += usize::from(self.job_failed);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.fail(what);
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.job_failed = true;
        self.messages.push(what);
    }
}

/// SplitMix64 of `seed` mixed with a stream number: independent sub-seeds
/// for each input a workload derives from its seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether a node voltage is finite and within `(0, vdd]`, up to the
/// accuracy `slack` (volts) of the solve that produced it: a node next to
/// a pad sits at `vdd` in exact arithmetic, so an accurate solution may
/// land just above it.
pub fn in_supply_range(v: f64, vdd: f64, slack: f64) -> bool {
    v.is_finite() && v > 0.0 && v <= vdd + slack
}

/// `n` values uniform in `[-0.5, 0.5)`, determined by `seed`.
pub fn random_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64).map(|i| (derive_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64 - 0.5).collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: BENCH_SEED, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "mesh-solve" => Box::new(mesh::MeshSolve::setup(seed)),
        "pg-transient" => Box::new(transient::PgTransient::setup(seed)),
        _ => Box::new(contingency::PgContingency::setup(seed)),
    }
}

/// Every sample of `name`, at the reference machine's speed: a time is
/// multiplied by its step's scale and a rate divided by it. `scales`
/// empty leaves the values unscaled.
fn scaled(samples: &Samples, name: &str, unit: &str, scales: &[f64]) -> Vec<f64> {
    samples.map(name, |v, step| match (unit, scales.get(step)) {
        ("s" | "ms" | "us", Some(f)) => v * f,
        ("1/s", Some(f)) => v / f,
        _ => v,
    })
}

/// The median of `name`, scaled as [`scaled`] does.
fn metric(samples: &Samples, name: &str, unit: &'static str, scales: &[f64]) -> Metric {
    let values = scaled(samples, name, unit, scales);
    let kind = if matches!(unit, "s" | "ms" | "us" | "1/s") { Kind::Timed } else { Kind::Computed };
    Metric { name: name.to_string(), unit, value: median(&values), samples: values.len(), kind }
}

/// Each step's scale: [`REFERENCE_PASS_S`] over the median of the passes
/// made within [`CALIBRATION_WINDOW`] steps of it.
fn step_scales(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes.len())
        .map(|i| {
            let window = &passes[i.saturating_sub(CALIBRATION_WINDOW)
                ..(i + CALIBRATION_WINDOW + 1).min(passes.len())];
            REFERENCE_PASS_S / median(&window.concat())
        })
        .collect()
}

fn run(args: &Args) {
    let mut samples = Samples::default();
    let mut checks = Checks::default();
    // The host's speed drifts by tens of percent within a minute, so every
    // set-up and job (a step) sits beside passes of a fixed calibration
    // loop, and its timings are scaled by the loop's pass time around it
    // (see calib.rs). `passes[step]` holds the passes beside a step.
    let mut cal = calib::Calibration::new();
    let mut calibrate = || (0..CALIBRATION_PASSES).map(|_| cal.time()).collect::<Vec<f64>>();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    // Set-up: every instance generates its inputs from the seed and runs
    // one warm-up job, whose outputs become that instance's reference.
    // Each set-up's passes run just before it.
    let mut warm = Samples::default();
    let mut instances: Vec<Box<dyn Workload>> = (0..INSTANCES)
        .map(|k| {
            samples.set_step(passes.len());
            passes.push(calibrate());
            let t = Instant::now();
            let mut w = setup(&args.workload, derive_seed(args.seed, 1000 + k));
            checks.begin_job();
            w.job(&mut warm, &mut checks);
            checks.end_job();
            samples.push("setup_s", t.elapsed().as_secs_f64());
            w
        })
        .collect();
    let (n, m) = instances[0].size();
    let setup_steps = passes.len();

    // Jobs rotate over the instances, each followed by its passes. A traced
    // run pairs every traced replay with an untraced job on the same
    // instance, so the tracing overhead compares runs made side by side.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut identical = true;
    let mut round = 0;
    while start.elapsed() < budget || round == 0 {
        let w = &mut instances[round as usize % INSTANCES as usize];
        samples.set_step(passes.len());
        checks.begin_job();
        w.job(&mut samples, &mut checks);
        checks.end_job();
        if args.trace {
            checks.begin_job();
            let mut spans = Spans::default();
            identical &= w.traced_job(&mut spans, &mut checks);
            samples.push_spans(&spans);
            checks.end_job();
        }
        passes.push(calibrate());
        round += 1;
    }
    let failed_frac = checks.failed_jobs as f64 / checks.jobs as f64;
    samples.push("failed_frac", failed_frac);
    samples.push("peak_rss_mib", report::peak_rss_mib());
    // Set-ups and jobs are calibrated apart: a job's window never reaches
    // back into the set-up phase.
    let mut scales = step_scales(&passes[..setup_steps]);
    scales.extend(step_scales(&passes[setup_steps..]));

    let mut metrics: Vec<Metric> = Vec::new();
    let mut record: Vec<Metric> = Vec::new();
    let mut overhead_s = 0.0;
    if args.trace {
        if !identical {
            eprintln!(
                "per-layer numbers are INVALID: the traced replay did not reproduce \
                 the library's output bit for bit"
            );
        }
        let untraced = median(&scaled(&samples, "time_to_result_s", "s", &scales));
        let traced = median(&scaled(&samples, "pipeline.s", "s", &scales));
        overhead_s = traced - untraced;
        samples.push("trace.overhead_ratio", traced / untraced);
        samples.push("replay.bit_identical", f64::from(u8::from(identical)));
        for (name, unit) in PER_LAYER.iter().chain(&PER_LAYER_RUN) {
            metrics.push(metric(&samples, name, unit, &scales));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push(metric(&samples, name, unit, &scales));
            if unit == "s" {
                // The unscaled wall-clock median, for the record.
                let mut wall = metric(&samples, name, unit, &[]);
                wall.name.push_str(".wall");
                record.push(wall);
            }
        }
        for (name, unit) in RECORD_ONLY {
            let m = metric(&samples, name, unit, &scales);
            if m.samples > 0 {
                record.push(m);
            }
        }
        // The highest of p90/p75 with at least ten jobs beyond it.
        let jobs = scaled(&samples, "time_to_result_s", "s", &scales);
        if let Some(q) = [90, 75].into_iter().find(|&q| jobs.len() * (100 - q) >= 1000) {
            record.push(Metric {
                name: format!("time_to_result_s.p{q}"),
                unit: "s",
                value: report::percentile(&jobs, q as f64 / 100.0),
                samples: jobs.len(),
                kind: Kind::Timed,
            });
        }
    }
    record.splice(0..0, metrics.iter().cloned());
    for (name, steps) in [
        ("calibration.setup_pass_s", &passes[..setup_steps]),
        ("calibration.pass_s", &passes[setup_steps..]),
    ] {
        let all = steps.concat();
        record.push(Metric {
            name: name.to_string(),
            unit: "s",
            value: median(&all),
            samples: all.len(),
            kind: Kind::Timed,
        });
    }
    let header = [
        ("workload", report::string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("trace", args.trace.to_string()),
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("available_parallelism", available_parallelism().to_string()),
        ("pool_size", tracered_par::global_pool_size().to_string()),
        ("threads", "1".to_string()),
        ("jobs", checks.jobs.to_string()),
        ("per_layer_valid", (identical || !args.trace).to_string()),
        ("trace_overhead_s", report::num(overhead_s)),
        ("reference_pass_s", report::num(REFERENCE_PASS_S)),
        ("setup_time_scale", report::num(median(&scales[..setup_steps]))),
        ("time_scale", report::num(median(&scales[setup_steps..]))),
        (
            "failed_checks",
            format!(
                "[{}]",
                checks.messages.iter().map(|m| report::string(m)).collect::<Vec<_>>().join(", ")
            ),
        ),
    ];
    println!("{}", report::record_line(&header, &record));
    let correct = checks.failed_jobs == 0;
    println!("{}", report::result_line(correct, checks.jobs, checks.failed_jobs, &metrics));
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs every workload in a child process of its own, so each reports its
/// own peak RSS, and forwards their output with the workload as a prefix.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
    for name in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        if let Some(out) = child.stdout.take() {
            for line in BufReader::new(out).lines().map_while(Result::ok) {
                println!("{name}: {line}");
            }
        }
        let status = child.wait().map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} exited with {status}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <mesh-solve|pg-transient|pg-contingency|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // A run that printed its result exits 0 even when a check failed:
    // `correct` carries the verdict.
    if args.workload != "all" {
        run(&args);
    } else if let Err(e) = run_all(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
