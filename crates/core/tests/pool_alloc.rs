//! Steady-state allocation test for flow-state pooling.
//!
//! The pooling acceptance criterion: once the pipeline is warm (the
//! flow table, gram tables, scratch vectors, and state pool have
//! reached their working capacity), processing a *recycled* flow from
//! first packet through classification must perform zero heap
//! allocations — the per-packet hot path is indexed adds into
//! pre-sized tables, and the verdict comes from the compiled model's
//! owned-scratch predict.
//!
//! A counting wrapper around the system allocator measures this
//! directly. This file deliberately contains a single `#[test]` so no
//! concurrent test can perturb the global allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iustitia::cdb::{FlowId, FlowIdCache};
use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{train_anytime_from_corpus, train_from_corpus_battery, ModelKind};
use iustitia::pipeline::{AnytimeConfig, BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
use std::net::Ipv4Addr;

struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator plus a relaxed
// counter increment; no layout or pointer is altered.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn data_packet(port: u16, t: f64, payload: &[u8]) -> Packet {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 443);
    Packet { timestamp: t, tuple, flags: TcpFlags::ACK, payload: payload.to_vec() }
}

#[test]
fn recycled_flow_packets_allocate_nothing_through_classification() {
    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(20).size_range(1024, 4096).build();
    // Battery on: the randomness battery must hold the zero-alloc
    // guarantee too (its state is fixed-size integer accumulators).
    let model = train_from_corpus_battery(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 2048 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
    )
    .expect("balanced corpus");
    let mut config = PipelineConfig::headline(33);
    config.buffer_size = 2048;
    config.battery = true;
    let mut pipeline = Iustitia::new(model, config);

    // Every flow streams the same realistic payload, so the warm-up
    // flows grow each gram table to exactly the capacity the measured
    // flow needs.
    let payload: Vec<u8> = (0..512u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();

    // Warm-up: nine complete flows populate the pool, grow the flow
    // table, size the recycled gram tables and finish scratch, and put
    // the classification log (Vec, cap 16 after 9 pushes) and CDB hash
    // map (cap 14 after 9 inserts) far enough from their growth points
    // that the measured flow's bookkeeping cannot reallocate them.
    let mut t = 0.0;
    for port in 1u16..=9 {
        for seq in 0..4 {
            t += 0.001;
            let verdict = pipeline.process_packet(&data_packet(port, t, &payload));
            if seq < 3 {
                assert_eq!(verdict, Verdict::Buffering);
            } else {
                assert!(matches!(verdict, Verdict::Classified(_)));
            }
        }
    }
    assert!(pipeline.state_pool_hits() >= 8, "warm-up flows must recycle state");
    assert!(pipeline.state_pool_size() >= 1);

    // Measured flow: a fresh flow whose state comes from the pool. All
    // four packets — three buffering, plus the fourth that completes
    // the window, finishes the feature vector into owned scratch, and
    // classifies through the compiled model — must not touch the
    // allocator.
    let hits_before = pipeline.state_pool_hits();
    let packets: Vec<Packet> =
        (0..4).map(|seq| data_packet(100, t + 0.01 + seq as f64 * 0.001, &payload)).collect();
    let before = alloc_calls();
    for (seq, packet) in packets.iter().enumerate() {
        let verdict = pipeline.process_packet(packet);
        if seq < 3 {
            assert_eq!(verdict, Verdict::Buffering);
        } else {
            assert!(matches!(verdict, Verdict::Classified(_)));
        }
    }
    let during = alloc_calls() - before;
    assert_eq!(pipeline.state_pool_hits(), hits_before + 1, "measured flow must be a pool hit");
    assert_eq!(
        during, 0,
        "a steady-state recycled flow must not allocate from first packet \
         through classification (saw {during} allocator calls across 4 packets)"
    );

    // ── Anytime phase ────────────────────────────────────────────────
    // The probe path must hold the same guarantee: both the probe that
    // only arms the patience rule (first packet) and the one that fires
    // the early verdict re-finish the feature vector into owned scratch,
    // predict through a compiled stage model, and score against the
    // centroid stages — none of which may touch the allocator.
    let report = train_anytime_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        2048,
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
        true,
        0.01,
    )
    .expect("balanced corpus");
    let mut anytime = report.anytime.clone();
    // Pure raw-score gating with an always-pass threshold: every packet
    // runs the full probe (stage predict + centroid score), and the
    // first two consecutive agreeing probes fire the verdict.
    anytime.confidence.set_exit_policy(Vec::new(), u64::MAX);
    anytime.confidence.set_threshold(0.0);
    let mut config = PipelineConfig::headline(33);
    config.buffer_size = 2048;
    config.battery = true;
    config.anytime = Some(AnytimeConfig::calibrated(&anytime.confidence));
    let mut pipeline =
        Iustitia::new(report.model.clone(), config.clone()).with_anytime(anytime.clone());

    // Drives one flow to its verdict, returning how many packets it took.
    fn classify(pipeline: &mut Iustitia, port: u16, t0: f64, payload: &[u8]) -> usize {
        for seq in 0..4 {
            let verdict =
                pipeline.process_packet(&data_packet(port, t0 + seq as f64 * 0.001, payload));
            if matches!(verdict, Verdict::Classified(_)) {
                return seq + 1;
            }
        }
        unreachable!("the fourth packet fills the 2048-byte window");
    }

    let mut t = 100.0;
    for port in 1u16..=9 {
        classify(&mut pipeline, port, t, &payload);
        t += 0.01;
    }
    assert!(pipeline.state_pool_hits() >= 8, "warm-up flows must recycle state");
    assert!(pipeline.early_exit_verdicts() > 0, "warm-up probes must fire early");

    let hits_before = pipeline.state_pool_hits();
    let exits_before = pipeline.early_exit_verdicts();
    // Pre-built packets: the measured window must contain only pipeline
    // work, and an early exit is expected before the fourth packet.
    let probe_packets: Vec<Packet> =
        (0..4).map(|seq| data_packet(100, t + 1.0 + seq as f64 * 0.001, &payload)).collect();
    let before = alloc_calls();
    let mut packets_used = 0;
    for packet in &probe_packets {
        packets_used += 1;
        if matches!(pipeline.process_packet(packet), Verdict::Classified(_)) {
            break;
        }
    }
    let during = alloc_calls() - before;
    assert_eq!(pipeline.state_pool_hits(), hits_before + 1, "measured flow must be a pool hit");
    assert!(
        pipeline.early_exit_verdicts() > exits_before,
        "the measured verdict must come from a probe, not the fed >= b fallback"
    );
    assert!(packets_used < 4, "early exit must beat the fixed-b window");
    assert_eq!(
        during, 0,
        "a recycled flow probed to an early verdict must not allocate \
         (saw {during} allocator calls across {packets_used} packets)"
    );

    // ── Multi-flow batch phase ───────────────────────────────────────
    // The amortized run phases must hold the guarantee too. One
    // steady-state `process_batch` segment carries three same-flow
    // runs back to back: CDB hits on a classified flow, a flow whose
    // second packet fills the 2048-byte window (its first probe only
    // arms the patience rule), and a flow that a probe classifies early.
    let mut pipeline = Iustitia::new(report.model.clone(), config).with_anytime(anytime);
    let hit_flow: Vec<Packet> =
        (0..4).map(|seq| data_packet(200, 300.0 + seq as f64 * 0.001, &payload)).collect();
    for packet in &hit_flow {
        pipeline.process_packet(packet);
    }
    let window_head: Vec<u8> = payload.iter().copied().cycle().take(1536).collect();
    let segment = |port: u16, t: f64| -> Vec<Packet> {
        let mut packets: Vec<Packet> = (0..3).map(|_| data_packet(200, t, &payload)).collect();
        packets.push(data_packet(port, t, &window_head));
        packets.push(data_packet(port, t + 0.001, &payload));
        packets.extend((0..4).map(|seq| data_packet(port + 1, t + seq as f64 * 0.001, &payload)));
        packets
    };
    // Warm-up: five segments of the same shape grow the verdict
    // buffer, classification log (11 entries, cap 16) and CDB (11
    // records, cap 14) to sizes the measured segment's two verdicts fit
    // into.
    let mut verdicts = Vec::new();
    for k in 0..5u16 {
        let packets = segment(300 + 2 * k, 300.1 + f64::from(k) * 0.01);
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        pipeline.process_batch(&items, &mut verdicts);
    }
    let exits_before = pipeline.early_exit_verdicts();
    let packets = segment(400, 301.0);
    let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
    let before = alloc_calls();
    pipeline.process_batch(&items, &mut verdicts);
    let during = alloc_calls() - before;
    assert!(verdicts[..3].iter().all(|v| matches!(v, Verdict::Hit(_))), "{verdicts:?}");
    assert_eq!(verdicts[3], Verdict::Buffering, "{verdicts:?}");
    assert!(matches!(verdicts[4], Verdict::Classified(_)), "{verdicts:?}");
    assert_eq!(pipeline.early_exit_verdicts(), exits_before + 1, "one probe verdict");
    let log = pipeline.take_log();
    let [.., at_b, early] = &log[..] else { panic!("two verdicts expected, got {log:?}") };
    assert!(!at_b.early_exit && at_b.buffered_bytes == 2048, "{at_b:?}");
    assert!(early.early_exit && early.buffered_bytes < 2048, "{early:?}");
    assert_eq!(
        during, 0,
        "a steady-state multi-flow segment (hit run, full-window run, early-exit \
         run) must not allocate (saw {during} allocator calls)"
    );

    // ── Flow-ID memo phase ───────────────────────────────────────────
    // The reactor's `FlowIdCache` allocates its slots once, at
    // construction: resolving a tuple allocates nothing, whether the
    // slot holds it (hit) or SHA-1 runs and overwrites the slot (miss).
    let mut cache = FlowIdCache::new();
    let tuples: Vec<FiveTuple> = (0..64u16)
        .map(|port| {
            FiveTuple::udp(Ipv4Addr::new(10, 0, 1, 1), port, Ipv4Addr::new(10, 0, 1, 2), 53)
        })
        .collect();
    let before = alloc_calls();
    for tuple in &tuples {
        assert_eq!(cache.resolve(tuple), FlowId::of_tuple(tuple));
    }
    let on_miss = alloc_calls() - before;
    let before = alloc_calls();
    for tuple in &tuples {
        assert_eq!(cache.resolve(tuple), FlowId::of_tuple(tuple));
    }
    let on_hit = alloc_calls() - before;
    assert_eq!(on_miss, 0, "FlowIdCache::resolve on a miss allocated {on_miss} times");
    assert_eq!(on_hit, 0, "FlowIdCache::resolve on a hit allocated {on_hit} times");
}
