//! Table 3: time and space of exact entropy-vector calculation vs
//! `(δ,ε)` estimation, at b = 1024 and b = 32.
//!
//! Paper (C++ on Athlon64): at b=1024 estimation needs ≈ 3× less memory
//! but ≈ 3× more time (5.4 ms → 16.4 ms for the SVM feature set,
//! 5.1 KB → 1.6 KB); at b=32 exact calculation takes ≈ 300 µs and
//! ≈ 195 B, and estimation is not applicable. Absolute times differ on
//! modern hardware; the *ratios* are the reproduction target.
//!
//! Run: `cargo run --release -p iustitia-bench --bin table3_calc_vs_estimate`

use iustitia::features::{FeatureExtractor, FeatureMode};
use iustitia_bench::print_table;
use iustitia_bench::report::{median, sample_ns};
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{EstimatorConfig, FeatureWidths};
use rand::rngs::StdRng;
use rand::SeedableRng;

use iustitia::features::BYTES_PER_COUNTER;

fn measure(widths: &FeatureWidths, mode: FeatureMode, data: &[u8]) -> (f64, usize) {
    let mut fx = FeatureExtractor::new(widths.clone(), mode, 1);
    let us = median(&sample_ns(false, || {
        std::hint::black_box(fx.extract(std::hint::black_box(data)));
    })) / 1e3;
    let counters = fx.counters_for_buffer(data);
    (us, counters * BYTES_PER_COUNTER)
}

/// Same vector via an incremental per-flow session fed 512-byte
/// chunks, as the streaming pipeline computes it. Returns time and the
/// session's resident footprint while pending.
fn measure_stream(widths: &FeatureWidths, mode: FeatureMode, data: &[u8]) -> (f64, usize) {
    let fx = FeatureExtractor::new(widths.clone(), mode, 1);
    let us = median(&sample_ns(false, || {
        let mut session = fx.begin_flow(data.len());
        for chunk in data.chunks(512) {
            session.update(std::hint::black_box(chunk));
        }
        session.finish()
    })) / 1e3;
    let mut session = fx.begin_flow(data.len());
    session.update(data);
    (us, session.resident_bytes())
}

fn main() {
    println!("Table 3 — exact calculation vs (δ,ε) estimation");
    let mut rng = StdRng::seed_from_u64(3);
    let data_1k = generate_file(FileClass::Binary, 1024, &mut rng);
    let data_32 = generate_file(FileClass::Binary, 32, &mut rng);

    let svm_cfg = EstimatorConfig::svm_optimal(); // ε=0.25, δ=0.75
    let cart_cfg = EstimatorConfig::cart_optimal(); // ε=0.5, δ=0.1

    let mut rows = Vec::new();
    let mut stream_rows = Vec::new();
    let mut remembered: Vec<(String, f64, usize)> = Vec::new();
    for (label, widths, cfg, data) in [
        ("b=1024 SVM", FeatureWidths::svm_selected(), svm_cfg, &data_1k),
        ("b=1024 CART", FeatureWidths::cart_selected(), cart_cfg, &data_1k),
        ("b=32 SVM", FeatureWidths::svm_selected(), svm_cfg, &data_32),
        ("b=32 CART", FeatureWidths::cart_selected(), cart_cfg, &data_32),
    ] {
        let (t_exact, s_exact) = measure(&widths, FeatureMode::Exact, data);
        let is_small = data.len() <= 32;
        let (t_est, s_est) = if is_small {
            // Paper: the sketch requires |f_k| >> b and is not applied
            // to 32-byte buffers.
            (f64::NAN, 0)
        } else {
            measure(&widths, FeatureMode::Estimated(cfg), data)
        };
        remembered.push((label.to_string(), t_exact, s_exact));
        rows.push(vec![
            label.to_string(),
            format!("{t_exact:.1}µs"),
            format!("{s_exact}B"),
            if is_small { "-".into() } else { format!("{t_est:.1}µs") },
            if is_small { "-".into() } else { format!("{s_est}B") },
            if is_small { "-".into() } else { format!("×{:.2}", t_est / t_exact) },
            if is_small { "-".into() } else { format!("×{:.2}", s_exact as f64 / s_est as f64) },
        ]);

        // Buffered vs incremental: a pending flow used to hold
        // `data.len()` payload bytes; the streaming session holds only
        // its counters/trackers and computes the identical vector.
        let (t_stream, s_stream) = measure_stream(&widths, FeatureMode::Exact, data);
        let (t_stream_est, s_stream_est) = if is_small {
            (f64::NAN, 0)
        } else {
            measure_stream(&widths, FeatureMode::Estimated(cfg), data)
        };
        stream_rows.push(vec![
            label.to_string(),
            format!("{}B", data.len()),
            format!("{t_stream:.1}µs"),
            format!("{s_stream}B"),
            if is_small { "-".into() } else { format!("{t_stream_est:.1}µs") },
            if is_small { "-".into() } else { format!("{s_stream_est}B") },
        ]);
    }
    print_table(
        "Table 3 (paper ratios at b=1024: time ×3 slower, space ×3 smaller)",
        &[
            "config",
            "calc time",
            "calc space",
            "est time",
            "est space",
            "time ratio",
            "space saving",
        ],
        &rows,
    );

    print_table(
        "Streaming sessions (identical vectors, no payload buffering): \
         per-flow resident state vs buffered payload",
        &[
            "config",
            "buffered payload",
            "stream time",
            "stream resident",
            "est time",
            "est resident",
        ],
        &stream_rows,
    );

    println!(
        "\nnotes: the paper's absolute numbers (5428 µs calc at b=1024, 326 µs at b=32) come \
         from 2009 hardware; compare ratios. Estimation trades ≈3× time for ≈3× space, and \
         b=32 is exact-only, matching the paper's deployment guidance."
    );
}
