//! Samples, summary statistics and the JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile `q ∈ [0, 1]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Per-job accumulator of layer times and counts: a traced job adds the
/// wall time of every public call it makes under the call's layer name.
#[derive(Debug, Default)]
pub struct Spans {
    sums: BTreeMap<&'static str, f64>,
    timed: f64,
}

impl Spans {
    /// Runs `f`, adding its wall time in seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let elapsed = t.elapsed().as_secs_f64();
        self.add(name, elapsed);
        self.timed += elapsed;
        out
    }

    /// Total wall time of every [`Spans::time`] call so far.
    pub fn timed(&self) -> f64 {
        self.timed
    }

    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.sums.insert(name, value);
    }

    /// The accumulated value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Samples of every metric a run records, keyed by metric name. Each
/// sample is tagged with the step (a set-up or a job) that recorded it, so
/// it can be scaled by the host's speed at that step.
#[derive(Debug, Default)]
pub struct Samples {
    values: BTreeMap<String, Vec<(f64, usize)>>,
    step: usize,
}

impl Samples {
    /// Tags the samples pushed from now on with `step`.
    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Appends one sample of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push((value, self.step));
    }

    /// Appends every value of a traced job's [`Spans`].
    pub fn push_spans(&mut self, spans: &Spans) {
        for (k, v) in &spans.sums {
            self.push(k, *v);
        }
    }

    /// Every sample of `name`, each as `f(value, step)`.
    pub fn map(&self, name: &str, f: impl Fn(f64, usize) -> f64) -> Vec<f64> {
        self.values.get(name).map_or(Vec::new(), |v| v.iter().map(|&(x, s)| f(x, s)).collect())
    }
}

/// How a value came about: timed from the wall clock or computed (a count
/// or ratio that repeats exactly for a given input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Timed,
    Computed,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub kind: Kind,
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values cannot be JSON and become 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(&m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The detailed record printed before the final line: one schema for
/// every workload, each metric with its unit, value, sample count and
/// whether it was timed or computed.
pub fn record_line(header: &[(&str, String)], metrics: &[Metric]) -> String {
    let mut fields: Vec<String> =
        header.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    let ms: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}, \"kind\": {}}}",
                string(&m.name),
                string(m.unit),
                num(m.value),
                m.samples,
                string(if m.kind == Kind::Timed { "timed" } else { "computed" })
            )
        })
        .collect();
    fields.push(format!("\"metrics\": [{}]", ms.join(", ")));
    format!("record {{{}}}", fields.join(", "))
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_is_well_formed() {
        let m =
            Metric { name: "a.s".into(), unit: "s", value: 0.25, samples: 2, kind: Kind::Timed };
        assert_eq!(
            result_line(true, 2, 0, &[m]),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"a.s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(num(f64::NAN), "0.0");
    }
}
