//! Loopback load generator for the `iustitia-serve` subsystem.
//!
//! Starts an in-process [`Server`] on `127.0.0.1:0`, trains a CART
//! model on a synthetic corpus, streams a netsim trace through the
//! client library, and reports throughput plus the server's per-stage
//! latency histograms.
//!
//! Run: `cargo run --release -p iustitia-bench --bin serve_loadgen`
//! (the default mode prints a human-readable report on stdout).
//!
//! Modes (mutually exclusive). The first three print one
//! `iustitia-bench/1` document on stdout and their progress on stderr;
//! every whole-pass wall clock is a sample in that document:
//! - `--sweep-batch` — batch-limit sweep (1, 8, 32, 128, 512): asserts
//!   the pipeline's batch path is bit-identical to per-packet dispatch,
//!   then measures throughput at each reader batch limit, 3 passes per
//!   limit (`results/BENCH_batch.json`).
//! - `--connections N` — many-socket scenario: N concurrent sockets,
//!   one small flow each, measuring per-connection submit-to-verdict
//!   latency client-side plus the server's accept-to-verdict histogram
//!   (`results/BENCH_epoll.json` at N = 1000).
//! - `--flow-churn` — anytime early-exit scenario: larger flows against
//!   a `b = 2048` buffer, streamed through the server with the
//!   calibrated anytime threshold off then on, 3 passes each, comparing
//!   throughput, early-exit counts, and bytes-at-verdict
//!   (`results/BENCH_churn.json`).
//! - `--pcap FILE` — replay a capture file through the single-client
//!   path instead of a generated trace.
//! - `--write-pcap FILE` — export the generated trace as a classic
//!   pcap (LINKTYPE_RAW) and exit.
//!
//! Environment knobs:
//! - `IUSTITIA_SCALE` — scales the generated trace's flow count
//!   (default 1.0; see [`iustitia_bench::scaled`]).
//! - `SERVE_SHARDS` — shard worker count (default 4).

use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use iustitia::features::{FeatureMode, TrainingMethod};
use iustitia::model::{train_anytime_from_corpus, train_from_corpus, NatureModel};
use iustitia::pipeline::{AnytimeConfig, BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_bench::report::Report;
use iustitia_bench::{paper_cart, prefix_corpus, scaled};
use iustitia_corpus::CorpusBuilder;
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, FiveTuple, Packet, TcpFlags, TraceConfig, TraceGenerator};
use iustitia_serve::{
    Client, ClientEvent, FrameAssembler, Request, Response, Server, ServerConfig, StatsSnapshot,
};

/// Feeds the trace through two freshly built pipelines — one per
/// packet, one through `process_batch` over flow-grouped segments (the
/// shard worker's dispatch shape) — and asserts verdicts and every
/// observable gauge are bit-identical. Runs before any timing so a
/// broken batch path can never produce a "fast" number.
fn assert_batch_bit_identity(model: &NatureModel, packets: &[Packet], segment: usize) {
    let config = PipelineConfig::headline(33);
    let mut per_packet = Iustitia::new(model.clone(), config.clone());
    let mut batched = Iustitia::new(model.clone(), config);
    let mut verdicts = Vec::new();
    for chunk in packets.chunks(segment) {
        let mut items: Vec<BatchPacket<'_>> = chunk.iter().map(BatchPacket::new).collect();
        items.sort_by_key(|a| a.flow); // stable: arrival order per flow
        let expected: Vec<Verdict> =
            items.iter().map(|bp| per_packet.process_packet(bp.packet)).collect();
        batched.process_batch(&items, &mut verdicts);
        assert_eq!(verdicts, expected, "batch verdicts must be bit-identical to per-packet");
    }
    assert_eq!(batched.queues(), per_packet.queues());
    assert_eq!(batched.pending_flows(), per_packet.pending_flows());
    assert_eq!(batched.resident_feature_bytes(), per_packet.resident_feature_bytes());
    assert_eq!(batched.cdb().stats(), per_packet.cdb().stats());
    assert_eq!(batched.take_log(), per_packet.take_log());
    eprintln!(
        "bit-identity: batch == per-packet over {} packets ({}-packet segments)",
        packets.len(),
        segment
    );
}

/// One timed pass of `packets` through a fresh server built from
/// `config`, as one blocking client. Returns the wall seconds from the
/// first submit until the server has drained, and the final stats.
fn timed_pass(
    model: &NatureModel,
    config: ServerConfig,
    packets: &[Packet],
) -> (f64, StatsSnapshot) {
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let start = Instant::now();
    for packet in packets {
        client.submit_packet(packet).expect("submit");
        if client.poll_events().iter().any(|e| matches!(e, ClientEvent::Busy(_))) {
            panic!("queues sized to never reject");
        }
    }
    client.flush().expect("flush");
    client.drain().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    client.close().expect("close");
    server.shutdown();
    (elapsed, stats)
}

/// A histogram quantile as a sample; an empty histogram is `NaN`,
/// written as `null`.
fn quantile(q: Option<u64>) -> f64 {
    q.map_or(f64::NAN, |v| v as f64)
}

/// A named stats reading, taken once per timed pass: (name, unit, read).
type Reading = (&'static str, &'static str, fn(&StatsSnapshot) -> f64);

/// Records one cell of `reps` timed passes under `cell/`: throughput
/// plus one sample per pass of each named stats reading. Returns the
/// median throughput.
fn record_passes(
    report: &mut Report,
    cell: &str,
    packets: usize,
    passes: &[(f64, StatsSnapshot)],
    readings: &[Reading],
) -> f64 {
    let tput = passes.iter().map(|(secs, _)| packets as f64 / secs).collect();
    let median = report.metric(&format!("{cell}/pkts_per_s"), "1/s", tput);
    for (name, unit, read) in readings {
        let samples = passes.iter().map(|(_, stats)| read(stats)).collect();
        report.metric(&format!("{cell}/{name}"), unit, samples);
    }
    median
}

fn sweep_batch(model: &NatureModel, packets: &[Packet], shards: usize) {
    assert_batch_bit_identity(model, packets, 512);

    let reps = 3;
    let mut report = Report::new("serve_loadgen --sweep-batch", false);
    report
        .param("shards", shards)
        .param("packets", packets.len())
        .param("reps_per_cell", reps)
        .param("bit_identity", "batch == per-packet asserted on the full trace before timing");
    for batch_limit in [1usize, 8, 32, 128, 512] {
        let mut config = ServerConfig::new(PipelineConfig::headline(33));
        config.shards = shards;
        config.queue_capacity = 1 << 14;
        config.batch_limit = batch_limit;
        let passes: Vec<_> =
            (0..reps).map(|_| timed_pass(model, config.clone(), packets)).collect();
        record_passes(
            &mut report,
            &format!("batch_limit={batch_limit}"),
            packets.len(),
            &passes,
            &[
                ("batch_size_p50", "count", |s| quantile(s.batch_size.p50())),
                ("flows_per_batch_p50", "count", |s| quantile(s.flows_per_batch.p50())),
                ("queue_lock_acquisitions", "count", |s| s.queue_lock_acquisitions as f64),
                ("cdb_hits", "count", |s| s.hits as f64),
            ],
        );
    }
    report.print();
}

/// The anytime early-exit scenario: a trace of larger flows against a
/// `b = 2048` buffer, streamed through the server with the calibrated
/// anytime threshold off then on. The fixed-`b` baseline pays the full
/// buffer fill per flow; the anytime run converts the tail of each
/// flow's buffer fill into CDB hits. Prints a JSON document on stdout.
fn flow_churn(shards: usize) {
    let b = 2048usize;
    eprintln!("training anytime model (CART, b={b}, 96 files/class)...");
    let corpus = CorpusBuilder::new(33).files_per_class(96).size_range(1024, 16384).build();
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
    eprintln!("calibrated threshold: {threshold}");

    let n_flows = scaled(1500);
    eprintln!("generating {n_flows}-flow churn trace...");
    let mut trace = TraceConfig::small_test(42);
    trace.n_flows = n_flows;
    trace.duration = 20.0;
    trace.mean_data_packets = 24.0;
    trace.content = ContentMode::Realistic;
    trace.content_budget = 4096;
    let packets: Vec<Packet> = TraceGenerator::new(trace).collect();
    let reps = 3;
    eprintln!("streaming {} packets, threshold off then on ({reps} reps each)...", packets.len());

    let mut report = Report::new("serve_loadgen --flow-churn", false);
    report
        .param("shards", shards)
        .param("buffer_size", b)
        .param("calibrated_threshold", threshold)
        .param("packets", packets.len())
        .param("flows", n_flows)
        .param("reps_per_cell", reps);
    let mut medians = Vec::new();
    for anytime in [false, true] {
        let mut pc =
            PipelineConfig { buffer_size: b, battery: true, ..PipelineConfig::headline(33) };
        if anytime {
            pc.anytime = Some(AnytimeConfig::calibrated(&trained.anytime.confidence));
        }
        let mut config = ServerConfig::new(pc);
        config.shards = shards;
        config.queue_capacity = 1 << 14;
        if anytime {
            config.anytime = Some(trained.anytime.clone());
        }
        let passes: Vec<_> =
            (0..reps).map(|_| timed_pass(&trained.model, config.clone(), &packets)).collect();
        medians.push(record_passes(
            &mut report,
            if anytime { "anytime" } else { "fixed_b" },
            packets.len(),
            &passes,
            &[
                ("flows_classified", "count", |s| s.flows_classified as f64),
                ("early_exit_verdicts", "count", |s| s.early_exit_verdicts() as f64),
                ("bytes_at_verdict_p50", "B", |s| quantile(s.bytes_at_verdict.p50())),
                ("bytes_at_verdict_p99", "B", |s| quantile(s.bytes_at_verdict.p99())),
                ("cdb_hits", "count", |s| s.hits as f64),
            ],
        ));
    }
    eprintln!("anytime vs fixed_b median throughput: {:.3}x", medians[1] / medians[0]);
    report.print();
}

/// Client-side state for one socket in the many-connections scenario.
struct ConnProbe {
    stream: TcpStream,
    asm: FrameAssembler,
    submitted: Instant,
    verdict_us: Option<u64>,
    dead: bool,
}

/// The two 16-byte-payload packets that complete one probe flow
/// (headline buffer target b = 32).
fn probe_frames(index: usize) -> Vec<u8> {
    let tuple = FiveTuple::udp(
        std::net::Ipv4Addr::new(10, (index >> 16) as u8, (index >> 8) as u8, index as u8),
        1024 + (index % 50_000) as u16,
        std::net::Ipv4Addr::new(10, 99, 99, 99),
        9999,
    );
    let mut bytes = Vec::with_capacity(160);
    for seq in 0..2u8 {
        let packet = Packet {
            timestamp: f64::from(seq) * 1e-3,
            tuple,
            flags: TcpFlags::empty(),
            payload: vec![0x40 + seq; 16],
        };
        let (t, body) = Request::SubmitPacket(packet).encode().expect("encode");
        iustitia_serve::proto::write_frame(&mut bytes, t, body.as_slice()).expect("frame");
    }
    bytes
}

/// The many-socket scenario: `n_conns` concurrent sockets, one small
/// flow each, submit-to-verdict latency per connection. Prints a JSON
/// document on stdout.
fn many_connections(model: &NatureModel, shards: usize, n_conns: usize) {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = shards;
    config.queue_capacity = 1 << 15; // never reject: lost verdicts must mean lost, not busy
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let addr = server.local_addr();

    eprintln!("connecting {n_conns} sockets...");
    let wall_start = Instant::now();
    let mut probes: Vec<ConnProbe> = Vec::with_capacity(n_conns);
    for _ in 0..n_conns {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        probes.push(ConnProbe {
            stream,
            asm: FrameAssembler::new(),
            submitted: wall_start,
            verdict_us: None,
            dead: false,
        });
    }
    let connect_wall = wall_start.elapsed().as_secs_f64();
    eprintln!("connected in {connect_wall:.3} s; submitting one flow per socket...");

    let submit_start = Instant::now();
    for (i, probe) in probes.iter_mut().enumerate() {
        let frames = probe_frames(i);
        probe.submitted = Instant::now();
        probe.stream.write_all(&frames).expect("submit");
        probe.stream.set_nonblocking(true).expect("nonblocking");
    }
    let submit_wall = submit_start.elapsed().as_secs_f64();

    // Sweep all sockets until every verdict arrived (or a generous
    // deadline passes and the shortfall is reported as lost).
    let mut remaining = probes.len();
    let mut busy_seen = 0u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut scratch = vec![0u8; 4096];
    while remaining > 0 && Instant::now() < deadline {
        let mut progressed = false;
        for probe in probes.iter_mut() {
            if probe.verdict_us.is_some() || probe.dead {
                continue;
            }
            loop {
                match probe.asm.fill_from(&mut probe.stream, &mut scratch) {
                    Ok(0) => {
                        probe.dead = true;
                        remaining -= 1;
                        break;
                    }
                    Ok(_) => {
                        progressed = true;
                        while let Ok(Some((t, body))) = probe.asm.next_frame() {
                            match Response::decode(t, &body) {
                                Ok(Response::FlowVerdict(_)) => {
                                    probe.verdict_us =
                                        Some(probe.submitted.elapsed().as_micros() as u64);
                                    remaining -= 1;
                                }
                                Ok(Response::Busy(_)) => busy_seen += 1,
                                _ => {}
                            }
                        }
                        if probe.verdict_us.is_some() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        probe.dead = true;
                        remaining -= 1;
                        break;
                    }
                }
            }
        }
        if !progressed && remaining > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let total_wall = wall_start.elapsed().as_secs_f64();

    // Server-side view while the probe sockets are still open.
    let mut control = Client::connect(addr).expect("control connect");
    let stats = control.stats().expect("stats");
    control.close().expect("close");

    // One sample per connection that got its verdict.
    let mut latencies: Vec<f64> =
        probes.iter().filter_map(|p| p.verdict_us).map(|us| us as f64).collect();
    let verdicts = latencies.len();
    let lost = n_conns - verdicts;

    drop(probes);
    server.shutdown();

    eprintln!(
        "{verdicts}/{n_conns} verdicts ({lost} lost, {busy_seen} busy), total {total_wall:.3} s"
    );
    let mut report = Report::new("serve_loadgen --connections", false);
    report.param("connections", n_conns).param("shards", shards).param("packets_per_conn", 2);
    let mut once = |name: &str, unit: &str, value: f64| report.metric(name, unit, vec![value]);
    once("connect_wall_s", "s", connect_wall);
    once("submit_wall_s", "s", submit_wall);
    once("total_wall_s", "s", total_wall);
    once("verdicts", "count", verdicts as f64);
    once("lost_verdicts", "count", lost as f64);
    once("busy_rejects", "count", busy_seen as f64);
    once("server/connections_accepted", "count", stats.connections as f64);
    once("server/open_connections", "count", stats.open_connections as f64);
    once("server/reassembly_buffer_bytes", "B", stats.reassembly_buffer_bytes as f64);
    once("server/accept_to_verdict_p50", "ns", quantile(stats.accept_to_verdict.p50()));
    once("server/accept_to_verdict_p99", "ns", quantile(stats.accept_to_verdict.p99()));
    once("server/accept_to_verdict_count", "count", stats.accept_to_verdict.count() as f64);
    if latencies.is_empty() {
        latencies.push(f64::NAN);
    }
    report.metric("client/submit_to_verdict", "us", latencies);
    report.print();
}

/// Streams `packets` through a single blocking client and prints the
/// human-readable report (the default mode, also used for `--pcap`).
fn stream_single_client(model: &NatureModel, packets: &[Packet], shards: usize) {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = shards;
    config.queue_capacity = 1 << 14;
    let server = Server::start("127.0.0.1:0", model.clone(), config).expect("bind loopback");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let mut verdicts = 0u64;
    let mut busy = 0u64;

    // Sample the per-shard gauges mid-stream to observe the streaming
    // pipeline's peak memory (flows pending × feature state), the
    // number the buffered design paid `b` payload bytes for.
    let mut peak_pending = 0u64;
    let mut peak_resident = 0u64;
    let sample_every = (packets.len() / 16).max(1);

    let start = Instant::now();
    for (i, packet) in packets.iter().enumerate() {
        client.submit_packet(packet).expect("submit");
        for event in client.poll_events() {
            match event {
                ClientEvent::Verdict(_) => verdicts += 1,
                ClientEvent::Busy(_) => busy += 1,
            }
        }
        if i % sample_every == sample_every - 1 {
            let s = client.stats().expect("stats");
            peak_pending = peak_pending.max(s.pending_flows());
            peak_resident = peak_resident.max(s.resident_feature_bytes());
        }
    }
    client.flush().expect("flush");
    client.drain().expect("drain");
    for event in client.poll_events() {
        match event {
            ClientEvent::Verdict(_) => verdicts += 1,
            ClientEvent::Busy(_) => busy += 1,
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");

    println!("shards:           {shards}");
    println!("packets sent:     {}", packets.len());
    println!("wall time:        {elapsed:.3} s");
    println!("throughput:       {:.0} packets/s", packets.len() as f64 / elapsed);
    println!("verdicts:         {verdicts}");
    println!("busy rejects:     {busy}");
    let b = 32u64; // headline config buffer size
    println!(
        "peak pending:     {peak_pending} flows, {peak_resident} B resident feature state \
         (buffered design would hold ~{} B payload)",
        peak_pending * b
    );
    println!("server stats:");
    print!("{stats}");

    client.close().expect("close");
    server.shutdown();
}

fn generated_trace(n_flows: usize) -> Vec<Packet> {
    eprintln!("generating {n_flows}-flow trace...");
    let mut trace = TraceConfig::small_test(42);
    trace.n_flows = n_flows;
    trace.duration = 30.0;
    trace.content = ContentMode::Realistic;
    TraceGenerator::new(trace).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sweep = false;
    let mut churn = false;
    let mut connections: Option<usize> = None;
    let mut pcap_in: Option<String> = None;
    let mut pcap_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sweep-batch" => sweep = true,
            "--flow-churn" => churn = true,
            "--connections" => {
                let v = it.next().expect("--connections needs a count");
                connections = Some(v.parse().expect("--connections takes an integer"));
            }
            "--pcap" => pcap_in = Some(it.next().expect("--pcap needs a path").clone()),
            "--write-pcap" => {
                pcap_out = Some(it.next().expect("--write-pcap needs a path").clone());
            }
            other => panic!("unknown flag {other} (try --sweep-batch, --flow-churn, --connections N, --pcap FILE, --write-pcap FILE)"),
        }
    }

    let shards: usize =
        std::env::var("SERVE_SHARDS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let n_flows = scaled(2000);

    if let Some(path) = pcap_out {
        let packets = generated_trace(n_flows);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create pcap"));
        iustitia_netsim::write_pcap(&mut file, &packets).expect("write pcap");
        file.flush().expect("flush pcap");
        eprintln!("wrote {} packets to {path}", packets.len());
        return;
    }

    if churn {
        flow_churn(shards);
        return;
    }

    eprintln!("training model (CART, 32-byte prefixes)...");
    let corpus = prefix_corpus(33, 80, 4096);
    let widths = FeatureWidths::svm_selected();
    let model = train_from_corpus(
        &corpus,
        &widths,
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &paper_cart(),
        33,
    )
    .expect("balanced corpus");

    if let Some(n_conns) = connections {
        many_connections(&model, shards, n_conns);
        return;
    }

    let packets = if let Some(path) = pcap_in {
        let mut file = std::io::BufReader::new(std::fs::File::open(&path).expect("open pcap"));
        let trace = iustitia_netsim::read_pcap(&mut file).expect("parse pcap");
        eprintln!(
            "replaying {} packets from {path} ({} records skipped)",
            trace.packets.len(),
            trace.skipped
        );
        trace.packets
    } else {
        generated_trace(n_flows)
    };

    if sweep {
        sweep_batch(&model, &packets, shards);
        return;
    }

    stream_single_client(&model, &packets, shards);
}
