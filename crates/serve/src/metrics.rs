//! Live service metrics: atomic counters, per-shard gauges and latency
//! histograms, snapshotted on demand by the `Stats` request.
//!
//! Every metric is declared once, as one row of the registry table at
//! the bottom of this module: its doc comment, its name and its unit,
//! in a `counters`, `histograms` or `shard_gauges` section. From that
//! table `registry!` generates the live atomics ([`ServeMetrics`],
//! [`ShardGauges`]), their point-in-time copies ([`StatsSnapshot`],
//! [`ShardStats`]), `snapshot()`, the per-shard totals, the wire codec
//! and the text exposition ([`StatsSnapshot`]'s `Display`). Adding a
//! metric is one row plus the code that records it.
//!
//! The `Stats` wire body is positional: the [`WIRE_LAYOUT`] word, then
//! every counter, every histogram's buckets, and the shard section
//! (shard count, then each shard's gauges), all big-endian `u64` in
//! row order. [`WIRE_LAYOUT`] is an FNV-1a hash of the rows' kinds and
//! names (and the bucket count), computed at compile time, so adding,
//! removing, renaming or reordering a row fails a mismatched peer's
//! decode loudly instead of silently shifting words.
//!
//! Latencies use power-of-two bucketed histograms (bucket `i` holds
//! samples in `[2^i, 2^(i+1))` nanoseconds), so recording is a single
//! relaxed atomic increment on the packet path and quantiles are
//! reconstructed from bucket counts with at most 2× resolution error —
//! the classic HdrHistogram-style tradeoff, reduced to its cheapest
//! form.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::{FieldReader, ProtoError};

/// Number of power-of-two buckets: covers 1 ns .. ~585 years.
pub const BUCKETS: usize = 64;

/// Pipeline stages with dedicated latency histograms.
///
/// The packet path attributes each packet's processing time to the
/// stage that *terminated* it: a CDB hit never reaches the buffer, a
/// buffered packet never reaches the classifier. `Hash` is measured
/// separately on the reactor thread, where the flow ID is resolved for
/// shard routing.
///
/// Every stage records one sample per data packet, timed as the mean
/// over the batch the packet was processed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Flow-ID resolution on the reactor thread (memo, SHA-1 on a
    /// miss): one sample per data packet, timed as the mean over each
    /// dispatch batch.
    Hash = 0,
    /// CDB lookup resolving to a hit (worker thread).
    CdbLookup = 1,
    /// Payload appended to a partially filled buffer (worker thread).
    BufferFill = 2,
    /// Buffer completed: feature extraction + model inference + CDB
    /// insert (worker thread).
    Classify = 3,
}

/// The histogram row a [`Stage`] records into, on either the live
/// [`ServeMetrics`] or a [`StatsSnapshot`] (both carry the same rows).
macro_rules! stage_row {
    ($metrics:expr, $stage:expr) => {
        match $stage {
            Stage::Hash => &$metrics.hash,
            Stage::CdbLookup => &$metrics.cdb_lookup,
            Stage::BufferFill => &$metrics.buffer_fill,
            Stage::Classify => &$metrics.classify,
        }
    };
}

/// Lock-free latency histogram with power-of-two buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Records one sample of `nanos` nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.record_n(nanos, 1);
    }

    /// Records `n` samples of `nanos` nanoseconds each, with one atomic
    /// add (none when `n == 0`).
    pub fn record_n(&self, nanos: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = nanos.checked_ilog2().unwrap_or(0) as usize;
        // lint: allow(L008) — ilog2 of a u64 is at most 63 < BUCKETS
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Copies the current bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Immutable copy of a histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` ns.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS] }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate `q`-quantile in nanoseconds (`q` in `[0, 1]`),
    /// using each bucket's geometric-ish midpoint (`1.5 × 2^i`).
    /// Returns `None` when the histogram is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let low = 1u64 << i;
                return Some(low + low / 2);
            }
        }
        None
    }

    /// Approximate median latency in ns.
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// Approximate 99th-percentile latency in ns.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Writes the histogram's exposition lines: `<name>_count`, then
    /// `<name>_p50_<unit>` and `<name>_p99_<unit>` (`NaN` when empty).
    fn expose(&self, f: &mut fmt::Formatter<'_>, name: &str, unit: &str) -> fmt::Result {
        writeln!(f, "{name}_count {}", self.count())?;
        for (label, value) in [("p50", self.p50()), ("p99", self.p99())] {
            match value {
                Some(v) => writeln!(f, "{name}_{label}_{unit} {v}")?,
                None => writeln!(f, "{name}_{label}_{unit} NaN")?,
            }
        }
        Ok(())
    }
}

/// FNV-1a over `bytes`, continuing from `hash` (a `const fn`, so the
/// wire layout word is computed at compile time).
const fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0100_0000_01b3);
        i += 1;
    }
    hash
}

/// Generates every metric type and method from the registry table.
///
/// Each row is `/// doc` + `name: "unit",`. Counters (monotone totals
/// and reactor-level gauges) are one `AtomicU64` each; histograms are
/// one [`LatencyHistogram`] each; shard gauges are one `AtomicU64` per
/// shard, summed across shards by a same-named [`StatsSnapshot`]
/// method.
macro_rules! registry {
    (
        counters { $( $(#[$cmeta:meta])* $counter:ident: $cunit:literal, )* }
        histograms { $( $(#[$hmeta:meta])* $hist:ident: $hunit:literal, )* }
        shard_gauges { $( $(#[$gmeta:meta])* $gauge:ident: $gunit:literal, )* }
    ) => {
        /// Leading word of the `Stats` wire body: an FNV-1a hash of
        /// every registry row's kind and name, in order, and of the
        /// histogram bucket count. Peers built from different
        /// registries disagree on it and refuse each other's stats.
        pub const WIRE_LAYOUT: u64 = fnv1a(
            fnv1a(
                0xcbf2_9ce4_8422_2325,
                concat!(
                    $( "counter ", stringify!($counter), ";", )*
                    $( "histogram ", stringify!($hist), ";", )*
                    $( "shard_gauge ", stringify!($gauge), ";", )*
                )
                .as_bytes(),
            ),
            &(BUCKETS as u64).to_be_bytes(),
        );

        /// Gauges per shard in the wire's shard section.
        const SHARD_GAUGES: usize = [$( stringify!($gauge) ),*].len();

        /// Per-shard gauges, refreshed by each shard worker after every
        /// batch it drains. Unlike the counters these are *levels*
        /// mirrored from the shard's pipeline.
        #[derive(Debug, Default)]
        pub struct ShardGauges {
            $( $(#[$gmeta])* #[doc = concat!("\n\nUnit: ", $gunit, ".")] pub $gauge: AtomicU64, )*
        }

        /// Point-in-time copy of one shard's gauges.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ShardStats {
            $( $(#[$gmeta])* #[doc = concat!("\n\nUnit: ", $gunit, ".")] pub $gauge: u64, )*
        }

        /// Live counters and histograms for a running server.
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $( $(#[$cmeta])* #[doc = concat!("\n\nUnit: ", $cunit, ".")] pub $counter: AtomicU64, )*
            $( $(#[$hmeta])* #[doc = concat!("\n\nUnit: ", $hunit, ".")] pub $hist: LatencyHistogram, )*
            /// Per-shard gauges, indexed by shard id (empty until
            /// [`with_shards`](Self::with_shards)).
            pub shards: Vec<ShardGauges>,
        }

        /// Point-in-time copy of all server metrics, as returned by the
        /// `Stats` request. Its `Display` is the text exposition: one
        /// `name value` line per counter and per shard-gauge total,
        /// then `name_count`, `name_p50_<unit>` and `name_p99_<unit>`
        /// per histogram.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $( $(#[$cmeta])* #[doc = concat!("\n\nUnit: ", $cunit, ".")] pub $counter: u64, )*
            $( $(#[$hmeta])* #[doc = concat!("\n\nUnit: ", $hunit, ".")] pub $hist: HistogramSnapshot, )*
            /// Per-shard gauges, indexed by shard id.
            pub shards: Vec<ShardStats>,
        }

        impl ShardGauges {
            /// Stores all gauge levels (Relaxed; the values are
            /// advisory).
            pub fn store(&self, levels: ShardStats) {
                $( self.$gauge.store(levels.$gauge, Ordering::Relaxed); )*
            }
        }

        impl ServeMetrics {
            /// Copies every counter, histogram and shard gauge.
            ///
            /// `queue_lock_acquisitions` lives on the shard queues, not
            /// in this block; the server fills it in via
            /// [`StatsSnapshot::with_queue_locks`].
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $counter: self.$counter.load(Ordering::Relaxed), )*
                    $( $hist: self.$hist.snapshot(), )*
                    shards: self
                        .shards
                        .iter()
                        .map(|g| ShardStats { $( $gauge: g.$gauge.load(Ordering::Relaxed), )* })
                        .collect(),
                }
            }
        }

        impl StatsSnapshot {
            $(
                #[doc = concat!("`", stringify!($gauge), "` summed across all shards.")]
                #[must_use]
                pub fn $gauge(&self) -> u64 {
                    self.shards.iter().map(|s| s.$gauge).sum()
                }
            )*

            /// Wire encoding, big-endian `u64`s: [`WIRE_LAYOUT`], every
            /// counter, every histogram's buckets, the shard count and
            /// each shard's gauges, all in registry order.
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let mut put = |word: u64| out.extend_from_slice(&word.to_be_bytes());
                put(WIRE_LAYOUT);
                $( put(self.$counter); )*
                $( self.$hist.buckets.iter().for_each(|&b| put(b)); )*
                put(self.shards.len() as u64);
                for shard in &self.shards {
                    $( put(shard.$gauge); )*
                }
            }

            /// Inverse of [`encode_into`](Self::encode_into).
            ///
            /// # Errors
            ///
            /// Returns [`ProtoError::Malformed`] if the body is
            /// truncated, leads with another registry's layout word, or
            /// declares more shards than the rest of the body can hold.
            pub(crate) fn decode(r: &mut FieldReader<'_>) -> Result<Self, ProtoError> {
                let layout = r.u64()?;
                if layout != WIRE_LAYOUT {
                    return Err(ProtoError::Malformed(format!(
                        "stats layout {layout:#018x}, this build speaks {WIRE_LAYOUT:#018x}"
                    )));
                }
                let mut snapshot = StatsSnapshot {
                    $( $counter: r.u64()?, )*
                    ..StatsSnapshot::default()
                };
                $(
                    for bucket in &mut snapshot.$hist.buckets {
                        *bucket = r.u64()?;
                    }
                )*
                let count = r.u64()?;
                let left = r.remaining();
                let fits = usize::try_from(count)
                    .ok()
                    .and_then(|c| c.checked_mul(8 * SHARD_GAUGES))
                    .is_some_and(|need| need <= left);
                if !fits {
                    return Err(ProtoError::Malformed(format!(
                        "shard count {count} exceeds the {left} bytes left in the stats body"
                    )));
                }
                snapshot.shards = (0..count)
                    .map(|_| Ok(ShardStats { $( $gauge: r.u64()?, )* }))
                    .collect::<Result<_, ProtoError>>()?;
                Ok(snapshot)
            }
        }

        impl fmt::Display for StatsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $( writeln!(f, concat!(stringify!($counter), " {}"), self.$counter)?; )*
                $( writeln!(f, concat!(stringify!($gauge), " {}"), self.$gauge())?; )*
                $( self.$hist.expose(f, stringify!($hist), $hunit)?; )*
                Ok(())
            }
        }
    };
}

impl ServeMetrics {
    /// Metrics block with one gauge set per shard.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        ServeMetrics { shards: (0..n).map(|_| ShardGauges::default()).collect(), ..Self::default() }
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a stage latency sample.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.record_n(stage, nanos, 1);
    }

    /// Records `n` stage latency samples of `nanos` each (a batch's
    /// mean per packet, once for each of its `n` packets).
    pub fn record_n(&self, stage: Stage, nanos: u64, n: u64) {
        stage_row!(self, stage).record_n(nanos, n);
    }
}

impl StatsSnapshot {
    /// Histogram for one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        stage_row!(self, stage)
    }

    /// Fills in the queue-lock counter (summed across shard queues by
    /// the server, which owns the queues).
    #[must_use]
    pub fn with_queue_locks(mut self, acquisitions: u64) -> Self {
        self.queue_lock_acquisitions = acquisitions;
        self
    }
}

registry! {
    counters {
        /// Packets accepted into shard queues.
        packets: "packets",
        /// CDB hits on the packet path.
        hits: "packets",
        /// Flows classified (one verdict each).
        flows_classified: "flows",
        /// Packets rejected with `Busy` (RejectBusy admission).
        busy_rejects: "packets",
        /// Packets evicted from full queues (DropOldest admission).
        dropped_oldest: "packets",
        /// One-shot `ClassifyBuffer` requests served.
        classify_requests: "requests",
        /// `Drain` barriers completed.
        drains: "barriers",
        /// Connections accepted since start.
        connections: "connections",
        /// UDP datagrams ingested by the reactor's datagram adapter.
        udp_datagrams: "datagrams",
        /// Gauge: connections currently registered with the reactor
        /// (TCP sockets plus live UDP pseudo-peers).
        open_connections: "connections",
        /// Gauge: bytes parked in per-connection reassembly buffers
        /// (partial frames awaiting more reads), summed over connections.
        reassembly_buffer_bytes: "bytes",
        /// Shard-queue mutex acquisitions, summed over all shard queues
        /// at snapshot time (the live atomic stays 0; see
        /// [`StatsSnapshot::with_queue_locks`]). Compare against
        /// `packets` to see the batch amortization: the ratio stays far
        /// below one acquisition per packet.
        queue_lock_acquisitions: "acquisitions",
    }
    histograms {
        /// [`Stage::Hash`] latency per data packet.
        hash: "ns",
        /// [`Stage::CdbLookup`] latency per data packet.
        cdb_lookup: "ns",
        /// [`Stage::BufferFill`] latency per data packet.
        buffer_fill: "ns",
        /// [`Stage::Classify`] latency per data packet (and per
        /// one-shot `ClassifyBuffer` request).
        classify: "ns",
        /// Accept-to-verdict latency: time from a connection's accept
        /// (or a UDP peer's first datagram) to each flow verdict written
        /// back on it.
        accept_to_verdict: "ns",
        /// Packets per batch dispatched into a shard pipeline (the
        /// power-of-two buckets hold batch sizes, not nanoseconds). A
        /// healthy batching path shows mass well above bucket 0.
        batch_size: "packets",
        /// Distinct flows per dispatched batch. Together with
        /// `batch_size` this shows the amortization ratio:
        /// packets-per-flow-group per batch.
        flows_per_batch: "flows",
        /// Buffered bytes at the moment each flow got its verdict (the
        /// power-of-two buckets hold byte counts). With anytime early
        /// exit enabled the mass sits below `b`; without it every
        /// full-buffer verdict lands at `b` and only idle/close
        /// leftovers fall short.
        bytes_at_verdict: "bytes",
    }
    shard_gauges {
        /// Flows currently buffered in this shard, awaiting a verdict
        /// (mirrors `Iustitia::pending_flows`).
        pending_flows: "flows",
        /// Estimated heap bytes resident across this shard's pending
        /// flows: feature counters + header staging (mirrors
        /// `Iustitia::resident_feature_bytes`).
        resident_feature_bytes: "bytes",
        /// Flows whose feature state was recycled from the shard
        /// pipeline's free list instead of freshly allocated.
        state_pool_hits: "flows",
        /// Feature states currently parked on the shard pipeline's free
        /// list.
        state_pool_size: "states",
        /// Verdicts this shard's pipeline emitted from an anytime probe
        /// before the fixed-`b` buffer filled (mirrors
        /// `Iustitia::early_exit_verdicts`; stays 0 with anytime off).
        early_exit_verdicts: "verdicts",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2, "0 and 1 land in bucket 0");
        assert_eq!(s.buckets[1], 2, "2 and 3 land in bucket 1");
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn record_n_equals_n_single_records() {
        for (nanos, n) in [(0, 1), (1, 7), (250, 64), (1 << 20, 3), (u64::MAX, 2), (96, 0)] {
            let batched = LatencyHistogram::default();
            batched.record_n(nanos, n);
            let single = LatencyHistogram::default();
            for _ in 0..n {
                single.record(nanos);
            }
            assert_eq!(batched.snapshot(), single.snapshot(), "{n} x {nanos} ns");
        }
        let m = ServeMetrics::default();
        m.record_n(Stage::Hash, 300, 5);
        assert_eq!(m.snapshot().stage(Stage::Hash).count(), 5);
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20); // one outlier
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(96), "1.5 * 64");
        assert_eq!(s.p99(), Some(96));
        assert_eq!(s.quantile(1.0), Some((1 << 20) + (1 << 19)));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        assert_eq!(HistogramSnapshot::default().p50(), None);
        assert_eq!(HistogramSnapshot::default().count(), 0);
    }

    #[test]
    fn metrics_snapshot_reflects_counters() {
        let m = ServeMetrics::default();
        ServeMetrics::add(&m.packets, 10);
        ServeMetrics::add(&m.hits, 3);
        m.record(Stage::Classify, 5000);
        let s = m.snapshot();
        assert_eq!(s.packets, 10);
        assert_eq!(s.hits, 3);
        assert_eq!(s.stage(Stage::Classify).count(), 1);
        assert_eq!(s.stage(Stage::Hash).count(), 0);
    }

    /// Row counts of the registry: (counters, histograms, shard gauges).
    const ROWS: (usize, usize, usize) = (12, 8, SHARD_GAUGES);

    /// A snapshot of `shards` shards in which every registry row, and
    /// every shard's copy of each gauge, holds a value no other row
    /// holds.
    fn distinct_snapshot(shards: usize) -> StatsSnapshot {
        let mut body = Vec::new();
        StatsSnapshot { shards: vec![ShardStats::default(); shards], ..Default::default() }
            .encode_into(&mut body);
        for (i, word) in body.chunks_exact_mut(8).enumerate().skip(1) {
            word.copy_from_slice(&(1000 + i as u64).to_be_bytes());
        }
        let count_at = body.len() - 8 * (1 + shards * SHARD_GAUGES);
        body[count_at..count_at + 8].copy_from_slice(&(shards as u64).to_be_bytes());
        StatsSnapshot::decode(&mut FieldReader::new(&body)).unwrap()
    }

    #[test]
    fn snapshot_wire_round_trip() {
        for shards in [0, 1, 3] {
            let snapshot = distinct_snapshot(shards);
            let mut body = Vec::new();
            snapshot.encode_into(&mut body);
            // Version 3's size: layout word, counters, histograms, shard
            // count, five gauges per shard.
            assert_eq!(body.len(), 8 * (1 + 12 + 8 * 64 + 1 + 5 * shards));
            let mut reader = FieldReader::new(&body);
            let back = StatsSnapshot::decode(&mut reader).unwrap();
            reader.finish().unwrap();
            assert_eq!(back, snapshot);
        }

        // Every row carries its own value through the live metrics too.
        let m = ServeMetrics::with_shards(2);
        ServeMetrics::add(&m.packets, 12345);
        m.open_connections.store(1000, Ordering::Relaxed);
        m.record(Stage::BufferFill, 999);
        m.bytes_at_verdict.record(512);
        m.shards[0].store(ShardStats {
            pending_flows: 4,
            early_exit_verdicts: 17,
            ..Default::default()
        });
        m.shards[1].store(ShardStats {
            state_pool_hits: 41,
            early_exit_verdicts: 5,
            ..Default::default()
        });
        let back = m.snapshot().with_queue_locks(77);
        assert_eq!(
            (back.packets, back.open_connections, back.queue_lock_acquisitions),
            (12345, 1000, 77)
        );
        assert_eq!(back.stage(Stage::BufferFill).count(), 1);
        assert_eq!((back.pending_flows(), back.state_pool_hits()), (4, 41));
        assert_eq!((back.bytes_at_verdict.count(), back.early_exit_verdicts()), (1, 22));
    }

    #[test]
    fn shardless_snapshot_round_trips_empty_gauge_section() {
        let snapshot = ServeMetrics::default().snapshot();
        assert!(snapshot.shards.is_empty());
        let mut body = Vec::new();
        snapshot.encode_into(&mut body);
        let mut reader = FieldReader::new(&body);
        let back = StatsSnapshot::decode(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, snapshot);

        // Text exposition: one line per counter and gauge total, three
        // per histogram; the anytime early-exit metrics stay exposed by
        // name.
        let text = distinct_snapshot(2).to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), ROWS.0 + ROWS.2 + 3 * ROWS.1, "{text}");
        assert!(lines.iter().all(|l| l.split(' ').count() == 2), "{text}");
        assert!(lines.contains(&"packets 1001"), "{text}");
        assert!(lines.iter().any(|l| l.starts_with("early_exit_verdicts ")), "{text}");
        for suffix in ["count", "p50_bytes", "p99_bytes"] {
            let name = format!("bytes_at_verdict_{suffix} ");
            assert!(lines.iter().any(|l| l.starts_with(&name)), "{name}missing:\n{text}");
        }
        assert!(snapshot.to_string().contains("\nhash_p50_ns NaN\n"));
    }

    #[test]
    fn decode_rejects_mismatched_version() {
        let mut body = Vec::new();
        StatsSnapshot::default().encode_into(&mut body);
        assert_eq!(body[..8], WIRE_LAYOUT.to_be_bytes());
        // A peer built from another registry: same payload, different
        // leading layout word.
        body[..8].copy_from_slice(&(WIRE_LAYOUT ^ 1).to_be_bytes());
        let mut reader = FieldReader::new(&body);
        let err = StatsSnapshot::decode(&mut reader).unwrap_err();
        assert!(err.to_string().contains("layout"), "got: {err}");
    }

    #[test]
    fn decode_rejects_implausible_shard_count() {
        let mut body = Vec::new();
        distinct_snapshot(2).encode_into(&mut body);
        let count_at = body.len() - 8 * (1 + 2 * SHARD_GAUGES);
        // Two shards fit exactly; one more, or an absurd count, is
        // rejected before any gauge is read or reserved.
        for (count, ok) in [(2, true), (3, false), (u64::MAX, false)] {
            body[count_at..count_at + 8].copy_from_slice(&u64::to_be_bytes(count));
            match StatsSnapshot::decode(&mut FieldReader::new(&body)) {
                Ok(s) => assert!(ok && s.shards.len() == 2),
                Err(err) => assert!(!ok && err.to_string().contains("shard count"), "{err}"),
            }
        }
    }
}
