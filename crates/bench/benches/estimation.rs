//! `(δ,ε)` streaming entropy estimation vs exact calculation
//! (Table 3's time column).
//!
//! Run: `cargo bench -p iustitia-bench --bench estimation`. Each case
//! is timed by `report::sample_ns`; stderr gets one line per case and
//! stdout one `iustitia-bench/1` document.

use std::hint::black_box;

use iustitia_bench::report::Report;
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{entropy, EstimatorConfig, FeatureWidths, StreamingEntropyEstimator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_estimate_vs_exact(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(1);
    let data = generate_file(FileClass::Binary, 1024, &mut rng);

    report.time_ns("estimate_vs_exact_b1024/exact_h3", || entropy(black_box(&data), 3));
    let mut est = StreamingEntropyEstimator::with_seed(EstimatorConfig::svm_optimal(), 7);
    report.time_ns("estimate_vs_exact_b1024/estimated_h3_svm_params", || {
        est.estimate_hk(black_box(&data), 3).expect("k>=2")
    });
    let mut est_cart = StreamingEntropyEstimator::with_seed(EstimatorConfig::cart_optimal(), 7);
    report.time_ns("estimate_vs_exact_b1024/estimated_h3_cart_params", || {
        est_cart.estimate_hk(black_box(&data), 3).expect("k>=2")
    });
}

fn bench_estimate_vector(report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(2);
    let data = generate_file(FileClass::Binary, 1024, &mut rng);
    let widths = FeatureWidths::svm_selected();
    for (name, eps, delta) in
        [("loose", 1.0, 0.75), ("paper_svm", 0.25, 0.75), ("tight", 0.25, 0.1)]
    {
        let cfg = EstimatorConfig::new(eps, delta).expect("valid");
        let mut est = StreamingEntropyEstimator::with_seed(cfg, 3);
        report.time_ns(&format!("estimate_vector/config/{name}"), || {
            est.estimate_vector(black_box(&data), &widths)
        });
    }
}

fn main() {
    let mut report = Report::new("estimation", false);
    bench_estimate_vs_exact(&mut report);
    bench_estimate_vector(&mut report);
    report.print();
}
