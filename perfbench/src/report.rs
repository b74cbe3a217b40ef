//! The result schema: one JSON document per run, with the host
//! fingerprint and the median and quartiles of every metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::procfs::Host;
use crate::stats::quartiles;

/// Identifies this document layout.
pub const SCHEMA: &str = "iustitia-perfbench/1";

/// Summary of one metric over a run's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Unit, as in `BENCHMARK.json`.
    pub unit: String,
    /// Median of the samples (the reported value).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// One sample per repetition (or per measurement).
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarizes samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(unit: &str, samples: Vec<f64>) -> Summary {
        let [q1, median, q3] = quartiles(&samples);
        Summary { unit: unit.to_string(), median, q1, q3, samples }
    }
}

/// One run's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Requested measuring time, in seconds.
    pub seconds: u64,
    /// Repetitions measured.
    pub reps: usize,
    /// Where it ran.
    pub host: Host,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Packets submitted.
    pub attempted: u64,
    /// Packets refused or dropped.
    pub failed: u64,
    /// Every metric by name.
    pub metrics: BTreeMap<String, Summary>,
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
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
}

/// A finite float in its shortest round-trip form (`null` otherwise).
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x:?}");
    } else {
        out.push_str("null");
    }
}

impl Report {
    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n  \"schema\": ");
        push_str(&mut o, SCHEMA);
        o.push_str(",\n  \"workload\": ");
        push_str(&mut o, &self.workload);
        let _ = write!(
            o,
            ",\n  \"seed\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \"reps\": {},",
            self.seed, self.trace, self.seconds, self.reps
        );
        o.push_str("\n  \"host\": {\"cpu_model\": ");
        push_str(&mut o, &self.host.cpu_model);
        let _ = write!(o, ", \"nproc\": {}, \"clocksource\": ", self.host.nproc);
        push_str(&mut o, &self.host.clocksource);
        o.push_str(", \"kernel\": ");
        push_str(&mut o, &self.host.kernel);
        o.push_str(", \"git_rev\": ");
        push_str(&mut o, &self.host.git_rev);
        let _ = write!(
            o,
            "}},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, s)) in self.metrics.iter().enumerate() {
            o.push_str(if i == 0 { "\n    " } else { ",\n    " });
            push_str(&mut o, name);
            o.push_str(": {\"unit\": ");
            push_str(&mut o, &s.unit);
            for (key, v) in [("median", s.median), ("q1", s.q1), ("q3", s.q3)] {
                let _ = write!(o, ", \"{key}\": ");
                push_f64(&mut o, v);
            }
            o.push_str(", \"samples\": [");
            for (j, v) in s.samples.iter().enumerate() {
                if j > 0 {
                    o.push_str(", ");
                }
                push_f64(&mut o, *v);
            }
            o.push_str("]}");
        }
        o.push_str("\n  }\n}\n");
        o
    }

    /// Parses a document written by [`to_json`](Self::to_json), for
    /// tools that compare runs.
    ///
    /// # Errors
    ///
    /// Malformed JSON, another schema, or a missing field.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn from_json(text: &str) -> Result<Report, String> {
        let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let obj = doc.as_obj().ok_or("not an object")?;
        let get = |o: &[(String, Value)], k: &str| -> Result<Value, String> {
            o.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()).ok_or(format!("missing {k}"))
        };
        let text_of = |v: Value| v.as_str().map(str::to_string).ok_or("not a string".to_string());
        let num = |v: Value| v.as_f64().ok_or("not a number".to_string());
        let flag = |v: Value| match v {
            Value::Bool(b) => Ok(b),
            _ => Err("not a boolean".to_string()),
        };
        if text_of(get(obj, "schema")?)? != SCHEMA {
            return Err("unknown schema".into());
        }
        let host = get(obj, "host")?;
        let host = host.as_obj().ok_or("host is not an object")?;
        let mut metrics = BTreeMap::new();
        let m = get(obj, "metrics")?;
        for (name, v) in m.as_obj().ok_or("metrics is not an object")? {
            let s = v.as_obj().ok_or("metric is not an object")?;
            let samples = get(s, "samples")?
                .as_arr()
                .ok_or("samples is not an array")?
                .iter()
                .map(|x| x.as_f64().ok_or("sample is not a number".to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            metrics.insert(
                name.clone(),
                Summary {
                    unit: text_of(get(s, "unit")?)?,
                    median: num(get(s, "median")?)?,
                    q1: num(get(s, "q1")?)?,
                    q3: num(get(s, "q3")?)?,
                    samples,
                },
            );
        }
        Ok(Report {
            workload: text_of(get(obj, "workload")?)?,
            seed: num(get(obj, "seed")?)? as u64,
            trace: flag(get(obj, "trace")?)?,
            seconds: num(get(obj, "seconds")?)? as u64,
            reps: num(get(obj, "reps")?)? as usize,
            host: Host {
                cpu_model: text_of(get(host, "cpu_model")?)?,
                nproc: num(get(host, "nproc")?)? as usize,
                clocksource: text_of(get(host, "clocksource")?)?,
                kernel: text_of(get(host, "kernel")?)?,
                git_rev: text_of(get(host, "git_rev")?)?,
            },
            correct: flag(get(obj, "correct")?)?,
            attempted: num(get(obj, "attempted")?)? as u64,
            failed: num(get(obj, "failed")?)? as u64,
            metrics,
        })
    }
}

/// The line the benchmark ends with: correctness, counts, and the
/// median of each named metric with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            o.push_str(", ");
        }
        push_str(&mut o, name);
        o.push_str(": {\"value\": ");
        push_f64(&mut o, *value);
        o.push_str(", \"unit\": ");
        push_str(&mut o, unit);
        o.push('}');
    }
    o.push_str("}}");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "throughput_pps".to_string(),
            Summary::of("1/s", vec![412_345.5, 398_001.25, 405_000.0]),
        );
        metrics.insert("accuracy".to_string(), Summary::of("ratio", vec![0.875]));
        metrics.insert("setup_s".to_string(), Summary::of("s", vec![1.0, 3.0]));
        Report {
            workload: "headline_flat".into(),
            seed: 7,
            trace: false,
            seconds: 10,
            reps: 3,
            host: Host {
                cpu_model: "Intel(R) Xeon(R) \"Processor\"".into(),
                nproc: 2,
                clocksource: "tsc".into(),
                kernel: "6.1.0".into(),
                git_rev: "unknown".into(),
            },
            correct: true,
            attempted: 720_000,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn schema_round_trips() {
        let report = sample();
        let back = Report::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn summaries_hold_median_and_quartiles() {
        let s = Summary::of("ms", vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn rejects_other_schemas() {
        let text = sample().to_json().replace(SCHEMA, "other/1");
        assert!(Report::from_json(&text).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 10, 0, &[("latency_ms", "ms", 1.25), ("setup_s", "s", 0.5)]);
        assert!(!line.contains('\n'));
        let v = serde_json::parse_value(&line).expect("valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
