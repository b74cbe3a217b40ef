//! Randomness-battery kernel benchmark: one-shot vs incremental cost
//! of the HEDGE-style test battery (chi-square distance, bit-runs
//! test, byte autocorrelation, longest byte run) that rides alongside
//! the entropy vector when `PipelineConfig::battery` is on.
//!
//! A startup sanity pass asserts, for every [`FileClass`] and buffer
//! size, that feeding a payload packet-by-packet through
//! [`RandomnessBattery`] produces bit-identical features to the
//! one-shot [`battery_features`] call, and that a recycled (reset)
//! battery matches a fresh one — the invariants the streaming pipeline
//! relies on — before anything is timed.
//!
//! Timed matrix: one-shot battery over 256 B / 2 KiB / 16 KiB
//! payloads, incremental update in 64 B packets plus finish, and the
//! marginal cost next to the entropy kernel it accompanies. Stdout is
//! one `iustitia-bench/1` document; stderr carries one line per metric.
//!
//! `--smoke` runs the whole matrix with minimal iteration counts so CI
//! can verify the harness (including the sanity pass) end-to-end.
//!
//! Run: `cargo run --release -p iustitia-bench --bin randomness_bench`

use iustitia_bench::report::Report;
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{battery_features, entropy_vector, FeatureWidths, RandomnessBattery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The streaming path: feed `data` in `packet`-byte chunks through a
/// pooled battery, then finish.
fn incremental(battery: &mut RandomnessBattery, data: &[u8], packet: usize) -> [f64; 6] {
    battery.reset();
    for chunk in data.chunks(packet) {
        battery.update(chunk);
    }
    battery.finish()
}

fn main() {
    let mut report = Report::new("randomness_bench", std::env::args().any(|a| a == "--smoke"));
    let sizes = [256usize, 2048, 16384];
    let packet = 64usize;

    // Sanity: incremental ≡ one-shot and recycled ≡ fresh, for every
    // class and size, before any timing is trusted.
    let mut rng = StdRng::seed_from_u64(7);
    let mut pooled = RandomnessBattery::new();
    for &b in &sizes {
        for class in FileClass::ALL {
            let data = generate_file(class, b, &mut rng);
            let oneshot = battery_features(&data);
            assert_eq!(oneshot, incremental(&mut pooled, &data, packet));
            assert_eq!(oneshot, incremental(&mut pooled, &data, 1));
            let mut fresh = RandomnessBattery::new();
            fresh.update(&data);
            assert_eq!(oneshot, fresh.finish());
        }
    }
    eprintln!(
        "sanity: incremental, recycled, and one-shot batteries agree on all {} cells",
        sizes.len() * FileClass::ALL.len()
    );

    let widths: Vec<usize> = FeatureWidths::svm_selected().iter().collect();
    report.param("packet_bytes", packet).param("entropy_widths", "svm");
    for &b in &sizes {
        let data = generate_file(FileClass::Compressed, b, &mut rng);
        report.time_ns(&format!("battery/oneshot/b={b}"), || battery_features(&data));
        report.time_ns(&format!("battery/incremental/b={b}"), || {
            incremental(&mut pooled, &data, packet)
        });
        report.time_ns(&format!("battery/entropy_vector/b={b}"), || entropy_vector(&data, &widths));
    }

    report.print();
}
