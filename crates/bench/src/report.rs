//! The one timing loop and the one result document behind every perf
//! binary in this crate.
//!
//! [`sample_ns`] is the only repeat-and-time loop: it calibrates an
//! iteration count, then returns one ns-per-iteration figure per
//! sample. [`Report`] is the only JSON writer: a binary records its
//! parameters and each metric's samples, then prints one
//! `iustitia-bench/1` document to stdout, while every recorded metric
//! is echoed as a human-readable line on stderr.
//!
//! The layout mirrors perfbench's `iustitia-perfbench/1` document:
//!
//! ```json
//! {
//!   "schema": "iustitia-bench/1",
//!   "bench": "kernel_bench",
//!   "mode": "full",
//!   "host": {"cpu_model": "...", "nproc": 2, "clocksource": "tsc", "kernel": "...", "git_rev": "..."},
//!   "params": {"packet_bytes": 512},
//!   "metrics": {
//!     "kernel/b=256/full/new/oneshot": {"unit": "ns", "median": 1.0, "q1": 1.0, "q3": 1.0, "samples": [1.0]}
//!   }
//! }
//! ```
//!
//! Quartiles use the exclusive method of Python's
//! `statistics.quantiles(samples, n=4)`, as perfbench does. Non-finite
//! values are written as `null`. Perfbench is a separate workspace and
//! cannot depend on this crate, so the layout is mirrored, not shared.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

/// Identifies this document layout.
pub const SCHEMA: &str = "iustitia-bench/1";

/// A calibrated sample lasts at least this long.
const MIN_SAMPLE_NS: u128 = 20_000_000;

/// Samples taken after calibration.
const SAMPLES: usize = 9;

/// Times `f`, returning one ns-per-iteration figure per sample.
///
/// Doubles the iteration count until one sample takes at least 20 ms,
/// then takes 9 samples of that many iterations. Under `smoke` it takes
/// one sample of one iteration. Every result of `f` goes through
/// [`black_box`], so the work cannot be optimized away.
pub fn sample_ns<R>(smoke: bool, mut f: impl FnMut() -> R) -> Vec<f64> {
    let mut time = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_nanos()
    };
    if smoke {
        return vec![time(1) as f64];
    }
    let mut iters: u64 = 1;
    while time(iters) < MIN_SAMPLE_NS {
        iters *= 2;
    }
    (0..SAMPLES).map(|_| time(iters) as f64 / iters as f64).collect()
}

/// Quartiles `[q1, median, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. A single value is its own
/// quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Not clamped: like Python, small samples extrapolate.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of a sample (the middle of [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// One benchmark run's results, written as an `iustitia-bench/1`
/// document.
#[derive(Debug)]
pub struct Report {
    bench: String,
    smoke: bool,
    params: Vec<(String, Value)>,
    metrics: Vec<(String, String, Vec<f64>)>,
}

impl Report {
    /// An empty report for the benchmark `bench`; `smoke` marks a
    /// `--smoke` run, whose timings take one iteration each.
    pub fn new(bench: &str, smoke: bool) -> Report {
        Report { bench: bench.to_string(), smoke, params: Vec::new(), metrics: Vec::new() }
    }

    /// Whether this is a `--smoke` run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Records a run parameter: a number, string, boolean or `None`.
    pub fn param(&mut self, name: &str, value: impl Serialize) -> &mut Report {
        self.params.push((name.to_string(), value.to_value()));
        self
    }

    /// Records a metric's samples and echoes its median and quartiles
    /// on stderr. Returns the median.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a name already recorded.
    pub fn metric(&mut self, name: &str, unit: &str, samples: Vec<f64>) -> f64 {
        assert!(!samples.is_empty(), "metric {name} has no samples");
        assert!(self.metrics.iter().all(|(n, _, _)| n != name), "metric {name} recorded twice");
        let [q1, median, q3] = quartiles(&samples);
        eprintln!(
            "{name:<52} {median:>14.1} {unit:<5} (q1 {q1:.1}, q3 {q3:.1}, n={})",
            samples.len()
        );
        self.metrics.push((name.to_string(), unit.to_string(), samples));
        median
    }

    /// Times `f` with [`sample_ns`] and records the samples as `name`,
    /// in ns per call. Returns the median.
    pub fn time_ns<R>(&mut self, name: &str, f: impl FnMut() -> R) -> f64 {
        let samples = sample_ns(self.smoke, f);
        self.metric(name, "ns", samples)
    }

    /// The document as JSON: one line per parameter and per metric.
    pub fn to_json(&self) -> String {
        let host = Value::Obj(vec![
            ("cpu_model".into(), Value::Str(cpu_model())),
            (
                "nproc".into(),
                std::thread::available_parallelism().map_or(0, usize::from).to_value(),
            ),
            ("clocksource".into(), Value::Str(read_trimmed(CLOCKSOURCE))),
            ("kernel".into(), Value::Str(read_trimmed("/proc/sys/kernel/osrelease"))),
            ("git_rev".into(), Value::Str(git_rev().unwrap_or_else(|| UNKNOWN.into()))),
        ]);
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, unit, samples)| {
                let [q1, median, q3] = quartiles(samples);
                let summary = Value::Obj(vec![
                    ("unit".into(), Value::Str(unit.clone())),
                    ("median".into(), Value::Float(median)),
                    ("q1".into(), Value::Float(q1)),
                    ("q3".into(), Value::Float(q3)),
                    ("samples".into(), samples.to_value()),
                ]);
                (name.clone(), summary)
            })
            .collect();
        let mode = if self.smoke { "smoke" } else { "full" };
        let mut o = String::from("{\n");
        o.push_str(&format!("  \"schema\": {},\n", compact(&SCHEMA.to_value())));
        o.push_str(&format!("  \"bench\": {},\n", compact(&self.bench.to_value())));
        o.push_str(&format!("  \"mode\": {},\n", compact(&mode.to_value())));
        o.push_str(&format!("  \"host\": {},\n", compact(&host)));
        push_map(&mut o, "params", &self.params);
        o.push_str(",\n");
        push_map(&mut o, "metrics", &metrics);
        o.push_str("\n}\n");
        o
    }

    /// Prints the document to stdout.
    pub fn print(&self) {
        print!("{}", self.to_json());
    }
}

/// One value as single-line JSON.
fn compact(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

/// `"key": {` then one `"name": value` line per entry, then `}`.
fn push_map(o: &mut String, key: &str, entries: &[(String, Value)]) {
    o.push_str(&format!("  \"{key}\": {{"));
    for (i, (name, value)) in entries.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        o.push_str(&format!("{sep}    {}: {}", compact(&name.to_value()), compact(value)));
    }
    o.push_str(if entries.is_empty() { "}" } else { "\n  }" });
}

const UNKNOWN: &str = "unknown";
const CLOCKSOURCE: &str = "/sys/devices/system/clocksource/clocksource0/current_clocksource";

/// A file's contents without surrounding whitespace, or `"unknown"`.
fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| UNKNOWN.into(), |s| s.trim().to_string())
}

/// `model name` from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| UNKNOWN.into())
}

/// The checked-out commit of the git work tree around the current
/// directory, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let git = cwd.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir())?;
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&git.join("HEAD"))?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Some(rev) = read(&git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = read(&git.join("packed-refs"))?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[7.5]), [7.5; 3]);
    }

    #[test]
    fn document_parses_back_with_names_units_and_samples() {
        let mut report = Report::new("unit_test", false);
        report.param("packet_bytes", 512u64).param("widths", "svm").param("threshold", None::<f64>);
        report.metric("kernel/b=256/\"quoted\"", "ns", vec![3.0, 1.0, 2.0]);
        report.metric("replay/pkts_per_s", "1/s", vec![f64::INFINITY]);
        report.metric("curve/accuracy", "ratio", vec![0.5, f64::NAN, 0.25, 0.75]);

        let doc = serde_json::parse_value(&report.to_json()).expect("valid JSON");
        let obj = doc.as_obj().expect("object");
        let field = |o: &[(String, Value)], k: &str| serde::get_field(o, k).cloned().unwrap();
        assert_eq!(field(obj, "schema").as_str(), Some(SCHEMA));
        assert_eq!(field(obj, "bench").as_str(), Some("unit_test"));
        assert_eq!(field(obj, "mode").as_str(), Some("full"));
        let host = field(obj, "host");
        let host_keys: Vec<&str> = host.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(host_keys, ["cpu_model", "nproc", "clocksource", "kernel", "git_rev"]);
        let params = field(obj, "params");
        let params = params.as_obj().unwrap();
        assert_eq!(field(params, "packet_bytes").as_int(), Some(512));
        assert_eq!(field(params, "widths").as_str(), Some("svm"));
        assert_eq!(field(params, "threshold"), Value::Null);

        let metrics = field(obj, "metrics");
        let metrics = metrics.as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["kernel/b=256/\"quoted\"", "replay/pkts_per_s", "curve/accuracy"]);
        let summary = |name: &str| field(metrics, name).as_obj().unwrap().to_vec();
        let kernel = summary("kernel/b=256/\"quoted\"");
        assert_eq!(field(&kernel, "unit").as_str(), Some("ns"));
        assert_eq!(field(&kernel, "median").as_f64(), Some(2.0));
        assert_eq!(field(&kernel, "q1").as_f64(), Some(1.0));
        assert_eq!(field(&kernel, "q3").as_f64(), Some(3.0));
        assert_eq!(field(&kernel, "samples").as_arr().unwrap().len(), 3);
        let replay = summary("replay/pkts_per_s");
        assert_eq!(field(&replay, "unit").as_str(), Some("1/s"));
        assert_eq!(field(&replay, "median"), Value::Null);
        assert_eq!(field(&replay, "samples").as_arr().unwrap(), [Value::Null]);
        let curve = summary("curve/accuracy");
        assert_eq!(field(&curve, "samples").as_arr().unwrap().len(), 4);
        assert_eq!(field(&curve, "samples").as_arr().unwrap()[1], Value::Null);
    }

    #[test]
    fn smoke_measurement_is_one_sample() {
        let mut calls = 0u32;
        let samples = sample_ns(true, || calls += 1);
        assert_eq!(samples.len(), 1);
        assert_eq!(calls, 1);
        let mut report = Report::new("unit_test", true);
        report.time_ns("tiny", || std::hint::black_box(3u64).pow(2));
        let doc = serde_json::parse_value(&report.to_json()).unwrap();
        assert!(report.to_json().contains("\"mode\": \"smoke\""));
        let metrics = serde::get_field(doc.as_obj().unwrap(), "metrics").cloned().unwrap();
        let tiny = serde::get_field(metrics.as_obj().unwrap(), "tiny").cloned().unwrap();
        let samples = serde::get_field(tiny.as_obj().unwrap(), "samples").cloned().unwrap();
        assert_eq!(samples.as_arr().unwrap().len(), 1);
    }

    #[test]
    fn calibrated_measurement_takes_nine_samples() {
        let samples = sample_ns(false, || std::hint::black_box(1u64) + 1);
        assert_eq!(samples.len(), SAMPLES);
        assert!(samples.iter().all(|s| s.is_finite() && *s >= 0.0));
    }
}
