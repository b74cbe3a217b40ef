//! The Iustitia benchmark: drives the in-process serve stack over
//! loopback with one of three workloads, checks every verdict against
//! a reference pipeline, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics) by name and unit.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload headline_flat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--manifest` prints the `BENCHMARK.json` this catalogue implies.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The full result,
//! with host fingerprint and quartiles, goes to `perfbench/out/`.

mod client;
mod heap;
mod procfs;
mod replay;
mod report;
mod run;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use report::{Report, Summary};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
use workload::{Pace, WORKLOADS};

/// Whether larger or smaller values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the server sees.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: Better,
    /// Share of the baseline median by which it may worsen.
    bound: f64,
}

/// The end-to-end metrics, reported by every workload.
const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "throughput_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "server_cpu_ns_per_pkt", unit: "ns", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "verdict_latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "bytes_to_verdict_mean", unit: "B", better: Better::Lower, bound: 0.1 },
    EndToEnd { name: "accuracy", unit: "ratio", better: Better::Higher, bound: 0.05 },
    EndToEnd { name: "peak_heap_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

/// The per-layer metrics of the traced run: `(name, unit, better)`.
const PER_LAYER: [(&str, &str, Better); 36] = [
    ("serve.reactor.cpu_ns_per_pkt", "ns", Better::Lower),
    ("serve.reactor.runq_ns_per_pkt", "ns", Better::Lower),
    ("serve.shard.cpu_ns_per_pkt", "ns", Better::Lower),
    ("serve.shard.runq_ns_per_pkt", "ns", Better::Lower),
    ("serve.unattributed_ns_per_pkt", "ns", Better::Lower),
    ("serve.proto.decode_ns", "ns", Better::Lower),
    ("serve.proto.verdict_encode_ns", "ns", Better::Lower),
    ("serve.queue.push_pop_ns_per_pkt", "ns", Better::Lower),
    ("serve.queue.locks_per_pkt", "count", Better::Lower),
    ("serve.queue.batch_size_p50", "count", Better::Higher),
    ("serve.queue.flows_per_batch_p50", "count", Better::Higher),
    ("core.sha1.flow_id_ns", "ns", Better::Lower),
    ("core.cdb.lookup_ns", "ns", Better::Lower),
    ("core.cdb.insert_ns", "ns", Better::Lower),
    ("core.cdb.purge_ns", "ns", Better::Lower),
    ("core.cdb.hit_ratio", "ratio", Better::Higher),
    ("entropy.incremental.update_ns_per_kib", "ns", Better::Lower),
    ("entropy.incremental.finish_ns", "ns", Better::Lower),
    ("entropy.randomness.update_ns_per_kib", "ns", Better::Lower),
    ("entropy.randomness.finish_ns", "ns", Better::Lower),
    ("core.features.update_ns_per_kib", "ns", Better::Lower),
    ("core.features.finish_ns", "ns", Better::Lower),
    ("core.features.resident_bytes_per_flow", "B", Better::Lower),
    ("ml.compiled.predict_ns", "ns", Better::Lower),
    ("ml.compiled.predict_margin_ns", "ns", Better::Lower),
    ("core.pipeline.process_batch_ns_per_pkt", "ns", Better::Lower),
    ("core.pipeline.unattributed_ns_per_pkt", "ns", Better::Lower),
    ("core.pipeline.state_pool_hit_ratio", "ratio", Better::Higher),
    ("core.pipeline.peak_pending_flows", "count", Better::Lower),
    ("core.pipeline.peak_resident_mb", "MB", Better::Lower),
    ("serve.verdicts_per_flow", "ratio", Better::Lower),
    ("latency.verdict_p99_us", "us", Better::Lower),
    ("bench.client.cpu_ns_per_pkt", "ns", Better::Lower),
    ("bench.gen_lag_p99_us", "us", Better::Lower),
    ("trace.clock_pair_ns", "ns", Better::Lower),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Metrics reported in the results file and summary but not on the
/// result line, because they only exist on some workloads:
/// `(name, unit)`.
const EXTRA: [(&str, &str); 6] = [
    ("loss_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("gate.swept_early", "count"),
    ("ml.confidence.score_ns", "ns"),
    ("core.pipeline.early_exit_ratio", "ratio"),
    ("replay.layers_ns_per_pkt", "ns"),
];

/// Seconds one run measures by default (and `BENCHMARK.json`'s
/// `run_seconds`).
const RUN_SECONDS: u64 = 20;

/// Repetitions per run: at least this many set-ups and passes...
const MIN_REPS: usize = 3;
/// ...and never more than this many.
const MAX_REPS: usize = 16;
/// Set-ups timed per run, counting the one each repetition makes.
const SETUP_SAMPLES: usize = 9;

/// `BENCHMARK.json`, from the catalogue above.
fn manifest() -> String {
    let mut o = String::from("{\n");
    o.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    o.push_str("  \"paths\": [\"perfbench\"],\n");
    o.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    o.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        o.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n", w.name, w.why));
    }
    o.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    o.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        o.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{sep}\n",
            better.as_str()
        ));
    }
    o.push_str("  ]\n}\n");
    o
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <headline_flat|headline_paced|churn_anytime> \
                     --seed <n> --seconds <n> --trace <0|1>\n       perfbench --manifest";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 1, seconds: RUN_SECONDS, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .chain(EXTRA.iter().copied())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--manifest") {
        print!("{}", manifest());
        return;
    }
    let code = match parse_args(&args) {
        Ok(args) => match execute(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Adds a metric's summary unless it has no samples.
fn collect(metrics: &mut BTreeMap<String, Summary>, name: &str, samples: Vec<f64>) {
    if !samples.is_empty() {
        metrics.insert(name.to_string(), Summary::of(unit_of(name), samples));
    }
}

/// Runs the benchmark; returns whether every check passed.
fn execute(args: &Args) -> Result<bool, String> {
    let w = workload::find(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
    let host = procfs::host();
    let seed = args.seed;

    // Traced runs ask for Stats 16 times per pass on every other
    // repetition, so the same run also measures what sampling costs.
    let trace_cfg = w.trace(seed);
    let expected =
        trace_cfg.n_flows as f64 * trace_cfg.mean_data_packets / trace_cfg.data_packet_fraction;
    let sample_every = (expected as usize / 16).max(1);

    let mut prepared = None;
    let mut reps = Vec::new();
    let mut measured = 0.0;
    let started = Instant::now();
    while reps.len() < MIN_REPS || (measured < args.seconds as f64 && reps.len() < MAX_REPS) {
        let sampled = args.trace && reps.len() % 2 == 1;
        let t = Instant::now();
        // A workload with a fresh trace per repetition derives each
        // one from the run's seed.
        let mut trace_seed = seed;
        if w.trace_per_rep && !reps.is_empty() {
            prepared = None;
            trace_seed ^= (reps.len() as u64) << 32;
        }
        let rep = run::repetition(
            &w,
            &mut prepared,
            |trained| workload::prepare(&w, trace_seed, trained),
            sampled.then_some(sample_every),
            reps.is_empty(),
        )?;
        let wall = rep.packets as f64 / rep.values["throughput_pps"];
        measured += wall;
        eprintln!(
            "rep {}: {} packets in {wall:.2} s, set-up {:.3} s, {:.2} s total, {} mismatches, \
             cpu {:.0} ns/pkt, p50 {:.0} us, heap +{:.1} MB",
            reps.len(),
            rep.packets,
            rep.values["setup_s"],
            t.elapsed().as_secs_f64(),
            rep.gate.mismatch_count,
            rep.values["server_cpu_ns_per_pkt"],
            rep.values.get("verdict_latency_p50_us").copied().unwrap_or(0.0),
            rep.values["peak_heap_mb"],
        );
        reps.push((sampled, rep));
    }
    let prepared = prepared.expect("the first repetition prepares the inputs");
    // Set-up is cheap next to a pass on some workloads: time a few more
    // so its median rests on at least SETUP_SAMPLES set-ups.
    let mut setups: Vec<f64> = reps.iter().map(|(_, r)| r.values["setup_s"]).collect();
    while setups.len() < SETUP_SAMPLES {
        let (_, server, secs) = workload::set_up(&w).map_err(|e| format!("set-up: {e}"))?;
        server.shutdown();
        setups.push(secs);
    }

    // Correctness over every repetition.
    let attempted: u64 = reps.iter().map(|(_, r)| r.packets).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.lost).sum();
    let mut correct = true;
    for (i, (_, rep)) in reps.iter().enumerate() {
        for m in &rep.gate.mismatches {
            eprintln!("rep {i}: verdict mismatch: {m}");
        }
        if rep.gate.mismatch_count > 0 {
            correct = false;
        }
        if rep.lost > 0 {
            eprintln!(
                "rep {i}: {} packets refused or dropped; this workload expects none",
                rep.lost
            );
            correct = false;
        }
        if !rep.generator_on_time {
            eprintln!("rep {i}: the generator fell behind its schedule; the run is invalid");
            correct = false;
        }
        if rep.gate.checked == 0 {
            eprintln!("rep {i}: no verdict could be checked against the reference");
            correct = false;
        }
    }

    let mut metrics: BTreeMap<String, Summary> = BTreeMap::new();
    let names: Vec<&'static str> = reps
        .iter()
        .flat_map(|(_, r)| r.values.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for name in names {
        collect(
            &mut metrics,
            name,
            reps.iter().filter_map(|(_, r)| r.values.get(name).copied()).collect(),
        );
    }
    collect(&mut metrics, "setup_s", setups);
    collect(&mut metrics, "loss_ratio", vec![failed as f64 / attempted.max(1) as f64]);

    if args.trace {
        let server_cpu = |sampled: bool| {
            let v: Vec<f64> = reps
                .iter()
                .filter(|(s, _)| *s == sampled)
                .map(|(_, r)| r.values["server_cpu_ns_per_pkt"])
                .collect();
            stats::median(&v)
        };
        collect(&mut metrics, "trace.overhead_ratio", vec![server_cpu(true) / server_cpu(false)]);
        let median_of = |name: &str| metrics.get(name).map_or(0.0, |s| s.median);
        let observed = replay::Observed {
            batch_size: median_of("serve.queue.batch_size_p50").max(1.0) as usize,
            server_cpu_ns_per_pkt: median_of("server_cpu_ns_per_pkt"),
        };
        let trained = &reps[0].1.trained;
        // One spans file per workload (the latest traced run's): a
        // paced replay records about a million spans.
        let spans = out_dir().join(format!("{}.spans.tsv", w.name));
        let layers = replay::replay(&w, trained, &prepared, &observed, &spans);
        for (name, samples) in layers {
            collect(&mut metrics, name, samples);
        }
    }

    let value_of = |name: &str| metrics.get(name).map_or(f64::NAN, |s| s.median);
    let line: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u, value_of(n))).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, value_of(m.name))).collect()
    };
    let missing: Vec<&str> =
        line.iter().filter(|(_, _, v)| !v.is_finite()).map(|(n, _, _)| *n).collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
        correct = false;
    }

    let report = Report {
        workload: w.name.to_string(),
        seed,
        trace: args.trace,
        seconds: args.seconds,
        reps: reps.len(),
        host,
        correct,
        attempted,
        failed,
        metrics,
    };
    print_summary(&w, &report, &prepared, &reps[0].1, started.elapsed().as_secs_f64());
    write_report(&report);
    println!("{}", report::result_line(correct, attempted, failed, &line));
    Ok(correct)
}

fn print_summary(
    w: &workload::Workload,
    report: &Report,
    prepared: &workload::Prepared,
    first: &run::Rep,
    elapsed: f64,
) {
    let h = &report.host;
    println!(
        "workload {} (seed {}, {} reps, {elapsed:.1} s): {}",
        w.name, report.seed, report.reps, w.why
    );
    println!(
        "host: {} | nproc {} | clocksource {} | kernel {} | rev {}",
        h.cpu_model, h.nproc, h.clocksource, h.kernel, h.git_rev
    );
    let pace = match w.pace {
        Pace::Flat => "flat-out".to_string(),
        Pace::Rate(r) => format!("open loop at {r:.0} pkt/s"),
    };
    let g = &first.gate;
    println!(
        "trace (last repetition's): {} packets, {} flows ({} with data), {} reference \
         verdicts; {pace}",
        prepared.packets(),
        prepared.truth.len(),
        prepared.data_flows,
        prepared.reference_verdicts
    );
    println!(
        "gate (rep 0): {} first verdicts checked, {} mismatches, {} swept before their reference \
         verdict; reference causes full {} early {} close {} idle {} drain {}",
        g.checked,
        g.mismatch_count,
        g.swept_early,
        g.by_cause[0],
        g.by_cause[1],
        g.by_cause[2],
        g.by_cause[3],
        g.by_cause[4]
    );
    println!("{:<42} {:>6} {:>14} {:>14} {:>14}", "metric", "unit", "median", "q1", "q3");
    let show = |name: &str| {
        if let Some(s) = report.metrics.get(name) {
            println!("{name:<42} {:>6} {:>14.4} {:>14.4} {:>14.4}", s.unit, s.median, s.q1, s.q3);
        }
    };
    for m in &END_TO_END {
        show(m.name);
    }
    show("loss_ratio");
    show("peak_rss_mb");
    show("gate.swept_early");
    if report.trace {
        println!("-- per layer --");
        for (name, _, _) in &PER_LAYER {
            show(name);
        }
        show("ml.confidence.score_ns");
        show("core.pipeline.early_exit_ratio");
        let get = |n: &str| report.metrics.get(n).map_or(0.0, |s| s.median);
        println!(
            "budget: server_cpu_ns_per_pkt {:.0} = reactor {:.0} + shards {:.0}; replayed layers {:.0} \
             (decode {:.0} + sha1 {:.0} + queue {:.0} + process_batch {:.0} + verdict encode {:.0}/verdict) \
             + unattributed {:.0}",
            get("server_cpu_ns_per_pkt"),
            get("serve.reactor.cpu_ns_per_pkt"),
            get("serve.shard.cpu_ns_per_pkt"),
            get("replay.layers_ns_per_pkt"),
            get("serve.proto.decode_ns"),
            get("core.sha1.flow_id_ns"),
            get("serve.queue.push_pop_ns_per_pkt"),
            get("core.pipeline.process_batch_ns_per_pkt"),
            get("serve.proto.verdict_encode_ns"),
            get("serve.unattributed_ns_per_pkt"),
        );
    }
}

/// Where results and spans go: `perfbench/out/`, created on demand.
fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes the full result under `perfbench/out/`; a failure to write
/// is reported but does not fail the run.
fn write_report(report: &Report) {
    let dir = out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        report.workload,
        report.seed,
        u8::from(report.trace)
    ));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest(), "regenerate with `perfbench --manifest`");
    }

    #[test]
    fn manifest_is_valid_json() {
        serde_json::parse_value(&manifest()).expect("valid JSON");
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args: Vec<String> =
            ["--workload", "churn_anytime", "--seed", "9", "--seconds", "5", "--trace", "1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let a = parse_args(&args).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn_anytime", 9, 5, true)
        );
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn every_reported_metric_has_a_unit() {
        for (name, _, _) in &PER_LAYER {
            assert!(!unit_of(name).is_empty(), "{name}");
        }
    }
}
