//! Figure 5: entropy-vector calculation time and space vs buffer size.
//!
//! The paper implements its classifier in C++ on a 2009-era Athlon64
//! and reports both curves growing linearly in `b`, with the `b = 32`
//! point ≈ 10× cheaper in time and ≈ 30× smaller in space than
//! `b = 1024`. Absolute numbers differ on modern hardware; the *shape*
//! (linearity, the ratios between buffer sizes) is what we reproduce.
//!
//! Run: `cargo run --release -p iustitia-bench --bin fig5_calc_cost`

use iustitia::features::{FeatureExtractor, FeatureMode, BYTES_PER_COUNTER};
use iustitia_bench::print_series;
use iustitia_bench::report::{median, sample_ns};
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{FeatureWidths, GramHistogram};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Packet-sized chunks for the streaming-session comparison.
const CHUNK: usize = 512;

fn main() {
    println!("Figure 5 — entropy vector calculation cost (φ'_SVM features)");
    let widths = FeatureWidths::svm_selected();
    let mut rng = StdRng::seed_from_u64(5);
    let buffer_sizes: [usize; 9] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

    let mut time_points = Vec::new();
    let mut space_points = Vec::new();
    let mut stream_points = Vec::new();
    for &b in &buffer_sizes {
        // Binary content is the middle case for distinct-gram counts.
        let data = generate_file(FileClass::Binary, b, &mut rng);
        let mut fx = FeatureExtractor::new(widths.clone(), FeatureMode::Exact, 0);
        let us = median(&sample_ns(false, || {
            std::hint::black_box(fx.extract(std::hint::black_box(&data)));
        })) / 1e3;
        let counters: usize =
            widths.iter().map(|k| GramHistogram::from_bytes(&data, k).counters_used()).sum();
        time_points.push((format!("{b}"), vec![us]));
        space_points
            .push((format!("{b}"), vec![counters as f64, (counters * BYTES_PER_COUNTER) as f64]));

        // The same vector computed incrementally, as the streaming
        // pipeline does: a per-flow session fed packet-sized chunks.
        // Resident bytes while the flow is pending: the old
        // buffer-then-compute path holds `b` payload bytes; the
        // streaming path holds only the gram counters.
        let stream_us = median(&sample_ns(false, || {
            let mut session = fx.begin_flow(b);
            for chunk in data.chunks(CHUNK) {
                session.update(std::hint::black_box(chunk));
            }
            session.finish()
        })) / 1e3;
        let mut session = fx.begin_flow(b);
        session.update(&data);
        stream_points
            .push((format!("{b}"), vec![stream_us, session.resident_bytes() as f64, b as f64]));
    }
    print_series(
        "Figure 5(a): calculation time (µs; paper shape: linear in b, ~10x from 32→1024)",
        "buffer b",
        &["time_us"],
        &time_points,
    );
    print_series(
        "Figure 5(b): calculation space (counters / approx bytes; paper shape: linear)",
        "buffer b",
        &["counters", "bytes"],
        &space_points,
    );
    print_series(
        "Figure 5(c): streaming session (512B chunks) vs buffered resident bytes per flow",
        "buffer b",
        &["stream_us", "stream_resident_B", "buffered_resident_B"],
        &stream_points,
    );

    let t32 = time_points[0].1[0];
    let t1k = time_points[5].1[0];
    let s32 = space_points[0].1[1];
    let s1k = space_points[5].1[1];
    println!(
        "\nratios b=1024 vs b=32: time ×{:.1} (paper ≈ 10–17), space ×{:.1} (paper ≈ 26–30)",
        t1k / t32,
        s1k / s32
    );
}
