//! Exact entropy-vector calculation (Figure 5 / Table 3 timing side),
//! plus the dense-vs-hashmap h1 ablation called out in DESIGN.md.
//!
//! Run: `cargo bench -p iustitia-bench --bench entropy_calc`. Each case
//! is timed by `report::sample_ns`; stderr gets one line per case and
//! stdout one `iustitia-bench/1` document.

use std::hint::black_box;

use iustitia::features::{FeatureExtractor, FeatureMode};
use iustitia_bench::report::Report;
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{entropy, FeatureWidths, GramHistogram};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_entropy_vector(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(1);
    for b in [32usize, 256, 1024, 8192] {
        let data = generate_file(FileClass::Binary, b, &mut rng);
        let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
        report.time_ns(&format!("entropy_vector_exact/svm_widths/{b}"), || {
            fx.extract(black_box(&data))
        });
    }
}

fn bench_single_widths(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(2);
    let data = generate_file(FileClass::Binary, 1024, &mut rng);
    for k in [1usize, 2, 3, 5, 10] {
        report.time_ns(&format!("entropy_hk/hk/{k}"), || entropy(black_box(&data), k));
    }
}

/// Dense 256-entry table for h1, the ablation baseline against the
/// generic hashmap histogram.
fn dense_h1(data: &[u8]) -> f64 {
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let m = data.len() as f64;
    if data.len() <= 1 {
        return 0.0;
    }
    let s: f64 = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let c = c as f64;
            c * c.log2()
        })
        .sum();
    ((m.log2() - s / m) / 8.0).clamp(0.0, 1.0)
}

fn bench_dense_vs_hashmap(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(3);
    let data = generate_file(FileClass::Encrypted, 1024, &mut rng);
    report.time_ns("h1_dense_vs_hashmap/dense_array", || dense_h1(black_box(&data)));
    report.time_ns("h1_dense_vs_hashmap/hashmap_histogram", || {
        let h = GramHistogram::from_bytes(black_box(&data), 1);
        iustitia_entropy::vector::entropy_of_histogram(&h)
    });
}

fn main() {
    let mut report = Report::new("entropy_calc", false);
    bench_entropy_vector(&mut report);
    bench_single_widths(&mut report);
    bench_dense_vs_hashmap(&mut report);
    report.print();
}
