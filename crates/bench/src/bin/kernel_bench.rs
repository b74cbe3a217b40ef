//! Entropy-kernel microbenchmark: old vs new counting kernel.
//!
//! Compares the pre-overhaul kernel — SipHash `std` HashMap histograms
//! plus per-width carry rescans — against the current tiered kernel
//! (dense `k≤2` tables, Fx open addressing, single-pass multi-width
//! rolling window). The old kernel is replicated in this binary so one
//! build measures both sides; a startup sanity pass asserts the two
//! produce bit-identical entropy vectors before anything is timed.
//!
//! Matrix: buffer size b ∈ {256, 2048, 16384} × width set
//! {full, svm, cart} × {oneshot, incremental (512-byte packets)}.
//! Stdout is one `iustitia-bench/1` document (`results/BENCH_kernel.json`);
//! stderr carries one line per metric and the speedups.
//!
//! `--smoke` runs the whole matrix with minimal iteration counts so CI
//! can verify the harness end-to-end in ~2 seconds.

use iustitia_bench::report::Report;
use iustitia_corpus::{generate_file, FileClass};
use iustitia_entropy::{EntropyVector, FeatureWidths, IncrementalVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replica of the pre-overhaul kernel, kept verbatim-in-spirit: one
/// SipHash-hashed `HashMap<u128, u64>` per width, fed by a per-width
/// rescan of every chunk (plus a shared carry for straddling grams).
mod old_kernel {
    use std::collections::HashMap;

    pub struct OldHistogram {
        k: usize,
        counts: HashMap<u128, u64>,
        windows: u64,
    }

    impl OldHistogram {
        pub fn new(k: usize) -> Self {
            OldHistogram { k, counts: HashMap::new(), windows: 0 }
        }

        pub fn extend_from_bytes(&mut self, data: &[u8]) {
            if data.len() < self.k {
                return;
            }
            let mask: u128 = if self.k >= 16 { u128::MAX } else { (1u128 << (8 * self.k)) - 1 };
            let mut key: u128 = 0;
            for &b in &data[..self.k - 1] {
                key = (key << 8) | u128::from(b);
            }
            for &b in &data[self.k - 1..] {
                key = ((key << 8) | u128::from(b)) & mask;
                *self.counts.entry(key).or_insert(0) += 1;
            }
            self.windows += (data.len() - self.k + 1) as u64;
        }

        /// Sorted-order Σ m·log2(m) — same summation contract as the
        /// new kernel, so entropies compare bit-for-bit.
        pub fn entropy(&self) -> f64 {
            let m = self.windows;
            if m <= 1 || self.counts.len() <= 1 {
                return 0.0;
            }
            let mut counts: Vec<u64> = self.counts.values().copied().collect();
            counts.sort_unstable();
            let s: f64 = counts
                .into_iter()
                .map(|c| {
                    let c = c as f64;
                    c * c.log2()
                })
                .sum();
            let m = m as f64;
            ((m.log2() - s / m) / (8.0 * self.k as f64)).clamp(0.0, 1.0)
        }
    }

    /// The old incremental builder: every chunk is rescanned once per
    /// width, with a `max(k)−1`-byte carry re-fed ahead of each scan.
    pub struct OldIncremental {
        hists: Vec<OldHistogram>,
        carry: Vec<u8>,
        carry_cap: usize,
        scratch: Vec<u8>,
    }

    impl OldIncremental {
        pub fn new(widths: &[usize]) -> Self {
            let max_k = widths.iter().copied().max().unwrap_or(1);
            OldIncremental {
                hists: widths.iter().map(|&k| OldHistogram::new(k)).collect(),
                carry: Vec::new(),
                carry_cap: max_k.saturating_sub(1),
                scratch: Vec::new(),
            }
        }

        pub fn update(&mut self, chunk: &[u8]) {
            if chunk.is_empty() {
                return;
            }
            for hist in &mut self.hists {
                let tail = self.carry.len().min(hist.k - 1);
                let carry = &self.carry[self.carry.len() - tail..];
                if carry.is_empty() {
                    hist.extend_from_bytes(chunk);
                } else {
                    // Scan carry ++ chunk: the carry is shorter than k,
                    // so every window of the concatenation ends inside
                    // `chunk` and is counted exactly once.
                    self.scratch.clear();
                    self.scratch.extend_from_slice(carry);
                    self.scratch.extend_from_slice(chunk);
                    hist.extend_from_bytes(&self.scratch);
                }
            }
            if chunk.len() >= self.carry_cap {
                self.carry.clear();
                self.carry.extend_from_slice(&chunk[chunk.len() - self.carry_cap..]);
            } else {
                let keep = self.carry_cap - chunk.len();
                if self.carry.len() > keep {
                    let drop = self.carry.len() - keep;
                    self.carry.drain(..drop);
                }
                self.carry.extend_from_slice(chunk);
            }
        }

        pub fn finish(&self) -> Vec<f64> {
            self.hists.iter().map(OldHistogram::entropy).collect()
        }
    }
}

/// 512 bytes: the packet size used by the serve load generator.
const PACKET: usize = 512;

fn old_oneshot(data: &[u8], widths: &[usize]) -> Vec<f64> {
    widths
        .iter()
        .map(|&k| {
            let mut h = old_kernel::OldHistogram::new(k);
            h.extend_from_bytes(data);
            h.entropy()
        })
        .collect()
}

fn old_incremental(data: &[u8], widths: &[usize]) -> Vec<f64> {
    let mut inc = old_kernel::OldIncremental::new(widths);
    for chunk in data.chunks(PACKET) {
        inc.update(chunk);
    }
    inc.finish()
}

fn new_oneshot(data: &[u8], widths: &FeatureWidths) -> Vec<f64> {
    EntropyVector::compute(data, widths).values().to_vec()
}

fn new_incremental(data: &[u8], widths: &FeatureWidths) -> Vec<f64> {
    // The pipeline knows the classification window b up front
    // (`begin_flow(b_hint)`), so the hinted constructor is the path
    // that actually runs in production.
    let mut inc = IncrementalVector::with_byte_hint(widths, data.len());
    for chunk in data.chunks(PACKET) {
        inc.update(chunk);
    }
    inc.finish().values().to_vec()
}

fn new_incremental_chunked(data: &[u8], widths: &FeatureWidths, chunk: usize) -> Vec<f64> {
    let mut inc = IncrementalVector::with_byte_hint(widths, data.len());
    for c in data.chunks(chunk) {
        inc.update(c);
    }
    inc.finish().values().to_vec()
}

fn main() {
    let mut report = Report::new("kernel_bench", std::env::args().any(|a| a == "--smoke"));

    let width_sets: [(&str, FeatureWidths); 3] = [
        ("full", FeatureWidths::full()),
        ("svm", FeatureWidths::svm_selected()),
        ("cart", FeatureWidths::cart_selected()),
    ];
    let sizes = [256usize, 2048, 16384];

    // Sanity: the old replica and the new kernel must agree bit-for-bit
    // on every cell before any timing is trusted.
    let mut rng = StdRng::seed_from_u64(7);
    for &b in &sizes {
        for class in FileClass::ALL {
            let data = generate_file(class, b, &mut rng);
            for (_, widths) in &width_sets {
                let ws: Vec<usize> = widths.iter().collect();
                assert_eq!(old_oneshot(&data, &ws), new_oneshot(&data, widths));
                assert_eq!(old_incremental(&data, &ws), new_incremental(&data, widths));
                assert_eq!(new_oneshot(&data, widths), new_incremental(&data, widths));
            }
        }
    }
    eprintln!("sanity: old and new kernels are bit-identical on all {} cells", 3 * 4 * 3);

    report.param("packet_bytes", PACKET);
    for &b in &sizes {
        let data = generate_file(FileClass::Binary, b, &mut rng);
        for (name, widths) in &width_sets {
            let ws: Vec<usize> = widths.iter().collect();
            let cell = format!("kernel/b={b}/{name}");
            let old_one =
                report.time_ns(&format!("{cell}/old/oneshot"), || old_oneshot(&data, &ws));
            let old_inc =
                report.time_ns(&format!("{cell}/old/incremental"), || old_incremental(&data, &ws));
            let new_one =
                report.time_ns(&format!("{cell}/new/oneshot"), || new_oneshot(&data, widths));
            let new_inc = report
                .time_ns(&format!("{cell}/new/incremental"), || new_incremental(&data, widths));
            eprintln!(
                "{cell}  speedup: oneshot {:.2}x, incremental {:.2}x",
                old_one / new_one,
                old_inc / new_inc
            );
        }
    }

    // Chunk-size sweep: how the fixed-width-lane slab kernel amortizes
    // per-call overhead as feed granularity grows. Each cell is
    // asserted bit-identical to the one-shot vector before timing.
    let sweep_b = 16384usize;
    let sweep_widths = FeatureWidths::svm_selected();
    let sweep_data = generate_file(FileClass::Binary, sweep_b, &mut rng);
    let sweep_baseline = new_oneshot(&sweep_data, &sweep_widths);
    report.param("chunk_sweep_b", sweep_b).param("chunk_sweep_widths", "svm");
    for chunk in [1usize, 8, 32, 128, 512] {
        assert_eq!(
            new_incremental_chunked(&sweep_data, &sweep_widths, chunk),
            sweep_baseline,
            "chunked feed (chunk={chunk}) must stay bit-identical to one-shot"
        );
        report.time_ns(&format!("kernel/chunk_sweep/b={sweep_b}/svm/chunk={chunk}"), || {
            new_incremental_chunked(&sweep_data, &sweep_widths, chunk)
        });
    }

    report.print();
}
