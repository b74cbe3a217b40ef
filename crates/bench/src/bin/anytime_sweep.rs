//! Anytime early-exit calibration sweep: accuracy vs mean
//! bytes-to-verdict across the emission-threshold grid, against the
//! fixed-`b` baseline, plus an end-to-end pipeline replay comparing
//! throughput with the calibrated threshold on and off.
//!
//! Run: `cargo run --release -p iustitia-bench --bin anytime_sweep`
//! (stdout is one `iustitia-bench/1` document, committed as
//! `results/BENCH_anytime.json`).
//!
//! Flags:
//! - `--smoke` — tiny corpus and trace, for CI: exercises the full
//!   code path in a few seconds and asserts the replay invariants, but
//!   the numbers are not meaningful at that scale.

use std::time::Instant;

use iustitia::features::FeatureMode;
use iustitia::model::{train_anytime_from_corpus, AnytimeTrainReport, ANYTIME_THRESHOLD_DISABLED};
use iustitia::pipeline::{AnytimeConfig, Iustitia, PipelineConfig};
use iustitia_bench::report::Report;
use iustitia_bench::{paper_cart, scaled};
use iustitia_corpus::{CorpusBuilder, FileClass};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, Packet, TraceConfig, TraceGenerator};

/// One timed pass of the trace through a fresh pipeline. Returns
/// (wall seconds, verdicts, early exits, mean bytes at verdict).
fn replay(report: &AnytimeTrainReport, b: usize, packets: &[Packet], anytime: bool) -> Replay {
    let mut config =
        PipelineConfig { buffer_size: b, battery: true, ..PipelineConfig::headline(33) };
    if anytime {
        config.anytime = Some(AnytimeConfig::calibrated(&report.anytime.confidence));
    }
    let mut pipeline = Iustitia::new(report.model.clone(), config);
    if anytime {
        pipeline = pipeline.with_anytime(report.anytime.clone());
    }
    let start = Instant::now();
    for packet in packets {
        pipeline.process_packet(packet);
    }
    pipeline.sweep_idle(f64::INFINITY);
    let wall_s = start.elapsed().as_secs_f64();
    let log = pipeline.take_log();
    let verdicts = log.len();
    let bytes: u64 = log.iter().map(|f| f.buffered_bytes as u64).sum();
    Replay {
        wall_s,
        verdicts,
        early_exits: pipeline.early_exit_verdicts(),
        mean_bytes_at_verdict: bytes as f64 / verdicts.max(1) as f64,
    }
}

struct Replay {
    wall_s: f64,
    verdicts: usize,
    early_exits: u64,
    mean_bytes_at_verdict: f64,
}

impl Replay {
    /// Records this replay's metrics under `replay/{name}/`.
    fn record(&self, report: &mut Report, name: &str, packets: usize) {
        let metric = |report: &mut Report, what: &str, unit: &str, value: f64| {
            report.metric(&format!("replay/{name}/{what}"), unit, vec![value]);
        };
        metric(report, "wall_s", "s", self.wall_s);
        metric(report, "pkts_per_s", "1/s", packets as f64 / self.wall_s);
        metric(report, "verdicts", "count", self.verdicts as f64);
        metric(report, "early_exit_verdicts", "count", self.early_exits as f64);
        metric(report, "mean_bytes_at_verdict", "B", self.mean_bytes_at_verdict);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The size range brackets the buffer: most files can fill it (the
    // fixed-`b` rule pays the full `b` for them) but a short tail
    // cannot, mirroring the mixed transfer sizes of the paper's pool.
    let (per_class, min_size, max_size, b, n_flows) =
        if smoke { (12, 512, 2048, 512, 150) } else { (160, 1024, 16384, 4096, scaled(1500)) };

    eprintln!("training anytime model (CART, b={b}, {per_class} files/class)...");
    let corpus =
        CorpusBuilder::new(33).files_per_class(per_class).size_range(min_size, max_size).build();
    let trained = train_anytime_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        b,
        FeatureMode::Exact,
        &paper_cart(),
        33,
        true,
        0.01,
    )
    .expect("balanced corpus");

    let threshold = trained.anytime.confidence.threshold();
    let calibrated = trained.curve.iter().find(|p| p.threshold == threshold).copied();

    eprintln!("generating {n_flows}-flow trace for the pipeline replay...");
    let mut trace = TraceConfig::small_test(42);
    trace.n_flows = n_flows;
    trace.duration = 20.0;
    trace.mean_data_packets = 24.0;
    trace.content = ContentMode::Realistic;
    trace.content_budget = 2 * b;
    let packets: Vec<Packet> = TraceGenerator::new(trace).collect();

    eprintln!("replaying {} packets (fixed-b, then anytime)...", packets.len());
    let fixed = replay(&trained, b, &packets, false);
    let any = replay(&trained, b, &packets, true);

    // Invariants every run (including --smoke) must satisfy before
    // its numbers are written: anytime never loses verdicts, and when
    // the calibration found a usable threshold the replay must actually
    // exit early.
    assert_eq!(fixed.verdicts, any.verdicts, "anytime must not lose verdicts");
    assert_eq!(fixed.early_exits, 0, "fixed-b path must never exit early");
    if calibrated.is_some() {
        assert!(any.early_exits > 0, "calibrated threshold should fire on the replay trace");
        assert!(
            any.mean_bytes_at_verdict < fixed.mean_bytes_at_verdict,
            "early exits must reduce mean bytes at verdict"
        );
    } else {
        assert_eq!(
            threshold, ANYTIME_THRESHOLD_DISABLED,
            "threshold off the grid must be the disabled sentinel"
        );
    }

    let mut report = Report::new("anytime_sweep", smoke);
    report
        .param("corpus_seed", 33)
        .param("files_per_class", per_class)
        .param("min_file_bytes", min_size)
        .param("max_file_bytes", max_size)
        .param("buffer_size", b)
        .param("accuracy_floor", 0.01)
        .param("flows", n_flows)
        .param("packets", packets.len())
        .param("calibrated_threshold", calibrated.map(|p| p.threshold));
    let confidence = &trained.anytime.confidence;
    for (class, floor) in FileClass::ALL.iter().zip(confidence.class_floor()) {
        report.param(&format!("exit_policy/class_floor_bytes/{}", class.name()), *floor);
    }
    let trusted = confidence.trusted_bytes();
    report.param("exit_policy/trusted_bytes", (trusted != u64::MAX).then_some(trusted));

    let mut point = |name: &str, unit: &str, value: f64| report.metric(name, unit, vec![value]);
    point("fixed_b/accuracy", "ratio", trained.full_accuracy);
    point("fixed_b/mean_bytes_to_verdict", "B", trained.full_mean_bytes);
    if let Some(p) = calibrated {
        point("calibrated/accuracy", "ratio", p.accuracy);
        point("calibrated/mean_bytes_to_verdict", "B", p.mean_bytes_to_verdict);
        point("calibrated/early_fraction", "ratio", p.early_fraction);
    }
    for p in &trained.curve {
        let at = format!("curve/threshold={}", p.threshold);
        point(&format!("{at}/accuracy"), "ratio", p.accuracy);
        point(&format!("{at}/mean_bytes_to_verdict"), "B", p.mean_bytes_to_verdict);
        point(&format!("{at}/early_fraction"), "ratio", p.early_fraction);
    }
    fixed.record(&mut report, "fixed_b", packets.len());
    any.record(&mut report, "anytime", packets.len());
    report.print();
}
