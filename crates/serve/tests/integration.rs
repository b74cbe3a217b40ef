//! End-to-end tests: a real server on loopback, driven through the
//! client library with synthetic iustitia-netsim traffic.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Duration;

use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, ModelKind, NatureModel};
use iustitia::pipeline::PipelineConfig;
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::trace::{ContentMode, TraceConfig, TraceGenerator};
use iustitia_netsim::{FiveTuple, Packet, Protocol, TcpFlags};
use iustitia_serve::{AdmissionPolicy, Client, ClientEvent, Server, ServerConfig, Stage};

fn trained_model() -> NatureModel {
    let corpus =
        iustitia_corpus::CorpusBuilder::new(33).files_per_class(80).size_range(1024, 4096).build();
    train_from_corpus(
        &corpus,
        &FeatureWidths::svm_selected(),
        TrainingMethod::Prefix { b: 32 },
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        33,
    )
    .expect("balanced corpus")
}

fn server_config() -> ServerConfig {
    let mut config = ServerConfig::new(PipelineConfig::headline(33));
    config.shards = 4;
    config.queue_capacity = 1 << 14; // ample: this test asserts zero rejects
    config
}

/// The acceptance scenario: ≥ 4 shards, ≥ 10k synthetic packets pushed
/// through the client library, one verdict per data flow, and stats
/// consistent with what the client sent.
#[test]
fn serves_synthetic_trace_end_to_end() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();

    let mut trace_config = TraceConfig::small_test(42);
    trace_config.n_flows = 640;
    trace_config.duration = 12.0;
    trace_config.content = ContentMode::Realistic;
    let mut generator = TraceGenerator::new(trace_config);
    let packets: Vec<Packet> = generator.by_ref().collect();
    assert!(packets.len() >= 10_000, "trace too small: {} packets", packets.len());

    // Tuples that carried at least one data packet, ignoring those only
    // seen on a closing packet (the pipeline drops a closing packet's
    // payload, so such a flow never opens a buffer).
    let mut data_tuples: HashSet<FiveTuple> = HashSet::new();
    for p in &packets {
        if p.is_data() && !p.flags.closes_flow() {
            data_tuples.insert(p.tuple);
        }
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut events = Vec::new();
    for packet in &packets {
        client.submit_packet(packet).unwrap();
        events.extend(client.poll_events());
    }
    client.flush().unwrap();

    // The drain barrier: all submitted packets processed, all in-flight
    // flows classified, every verdict on the wire before the reply.
    client.drain().unwrap();
    events.extend(client.poll_events());

    let mut verdicts: HashMap<FiveTuple, iustitia_corpus::FileClass> = HashMap::new();
    let mut busy = 0u64;
    for event in &events {
        match event {
            ClientEvent::Verdict(v) => {
                let prev = verdicts.insert(v.tuple, v.label);
                assert!(prev.is_none(), "duplicate verdict for {:?}", v.tuple);
                assert!(v.packets > 0);
                assert!(v.buffered_bytes > 0);
                assert!(v.fill_time >= 0.0);
            }
            ClientEvent::Busy(_) => busy += 1,
        }
    }
    assert_eq!(busy, 0, "queues were sized to never reject");

    // Every completed flow got exactly one verdict.
    let verdict_tuples: HashSet<FiveTuple> = verdicts.keys().copied().collect();
    assert_eq!(verdict_tuples, data_tuples, "one verdict per data flow");

    // The model should beat chance comfortably on realistic content.
    let truth = generator.ground_truth();
    let correct =
        verdicts.iter().filter(|(tuple, &label)| truth.get(*tuple) == Some(&label)).count();
    let accuracy = correct as f64 / verdicts.len() as f64;
    assert!(accuracy > 0.5, "accuracy {accuracy:.2} suspiciously low");

    // Stats agree with what this (only) client sent and received.
    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, packets.len() as u64);
    assert_eq!(stats.busy_rejects, 0);
    assert_eq!(stats.dropped_oldest, 0);
    assert_eq!(stats.flows_classified, verdicts.len() as u64);
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.drains, 1);
    assert_eq!(stats.stage(Stage::Hash).count(), packets.len() as u64);
    assert_eq!(stats.stage(Stage::CdbLookup).count(), stats.hits);
    assert_eq!(
        stats.stage(Stage::Classify).count() + stats.stage(Stage::BufferFill).count(),
        stats.packets - stats.hits - ignored_count(&packets) as u64
    );
    assert!(stats.hits > 0, "repeat packets on classified flows must hit the CDB");
    assert!(stats.stage(Stage::Hash).p99().is_some());

    // Per-shard gauges: one entry per shard, and after the drain
    // barrier every shard's pipeline is empty.
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.pending_flows(), 0, "drain leaves no pending flows");
    assert_eq!(stats.resident_feature_bytes(), 0);

    // Flow-state pooling: with hundreds of flows per shard, almost all
    // of them must have recycled a pooled state instead of allocating,
    // and the drained pipelines hold their states parked for reuse.
    assert!(
        stats.state_pool_hits() > 0,
        "steady-state flows must reuse pooled feature state (hits={})",
        stats.state_pool_hits()
    );
    assert!(stats.state_pool_size() > 0, "drained pipelines must park their flow states for reuse");
    assert!(
        stats.state_pool_hits() + stats.state_pool_size() >= stats.flows_classified,
        "every classified flow's state was pooled or reused: hits={} parked={} flows={}",
        stats.state_pool_hits(),
        stats.state_pool_size(),
        stats.flows_classified
    );

    client.close().unwrap();
    server.shutdown();
}

/// Packets the pipeline ignores outright: closing packets and empty
/// (pure-ACK/handshake) packets.
fn ignored_count(packets: &[Packet]) -> usize {
    packets.iter().filter(|p| p.flags.closes_flow() || !p.is_data()).count()
}

/// Graceful shutdown classifies in-flight flows from the bytes they
/// have buffered and pushes final verdicts to connected clients.
#[test]
fn shutdown_drains_in_flight_flows() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 8 bytes buffered of a 32-byte target: flow stays in flight.
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(10, 0, 0, 2), 443);
    let packet =
        Packet { timestamp: 0.5, tuple, flags: TcpFlags::ACK, payload: b"partial!".to_vec() };
    client.submit_packet(&packet).unwrap();
    client.flush().unwrap();

    // No verdict while the buffer is short of b bytes...
    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, 1);
    assert!(client.poll_events().is_empty());

    // ...until shutdown flushes it.
    server.shutdown();
    let event = client.recv_event_timeout(Duration::from_secs(10));
    match event {
        Some(ClientEvent::Verdict(v)) => {
            assert_eq!(v.tuple, tuple);
            assert_eq!(v.packets, 1);
            assert_eq!(v.buffered_bytes, 8);
        }
        other => panic!("expected a shutdown verdict, got {other:?}"),
    }
}

/// A drain barrier reports how many of the flushed flows belonged to
/// the requesting connection.
#[test]
fn drain_flushes_and_counts_own_flows() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for port in 0..5u16 {
        let packet = Packet {
            timestamp: 0.1,
            tuple: FiveTuple::udp(
                Ipv4Addr::new(172, 16, 0, 1),
                9000 + port,
                Ipv4Addr::new(172, 16, 0, 2),
                53,
            ),
            flags: TcpFlags::empty(),
            payload: vec![0x55; 4],
        };
        client.submit_packet(&packet).unwrap();
    }
    let flushed = client.drain().unwrap();
    assert_eq!(flushed, 5, "all five short flows flushed for this connection");

    let verdicts = client.poll_events();
    assert_eq!(verdicts.len(), 5);

    // A second drain has nothing left to flush.
    assert_eq!(client.drain().unwrap(), 0);

    client.close().unwrap();
    server.shutdown();
}

/// RejectBusy admission: overload produces Busy events, and the
/// accounting always balances.
#[test]
fn reject_busy_accounting_balances() {
    let mut config = server_config();
    config.shards = 1;
    config.queue_capacity = 1;
    config.admission = AdmissionPolicy::RejectBusy;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 9, 8, 7), 1234, Ipv4Addr::new(10, 9, 8, 6), 80);
    let n = 256u64;
    for i in 0..n {
        let packet = Packet {
            timestamp: i as f64 * 1e-4,
            tuple,
            flags: TcpFlags::ACK,
            payload: vec![0xAB], // 1-byte payloads: the buffer fills slowly
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.packets + stats.busy_rejects, n, "every packet admitted or rejected");
    let busy = client
        .poll_events()
        .iter()
        .filter(|e| matches!(e, ClientEvent::Busy(t) if *t == tuple))
        .count() as u64;
    assert_eq!(busy, stats.busy_rejects, "one Busy frame per reject");

    client.close().unwrap();
    server.shutdown();
}

/// Batch amortization regression test: a burst of N packets must cost
/// far fewer than N shard-queue lock acquisitions. Readers push whole
/// batches under one lock and the worker drains everything per wakeup,
/// so the counter stays an order of magnitude below the packet count;
/// a lock-per-packet regression on either side would blow past N.
#[test]
fn burst_takes_far_fewer_lock_acquisitions_than_packets() {
    let mut config = server_config();
    config.shards = 1;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let n = 2048u64;
    for i in 0..n {
        let packet = Packet {
            timestamp: i as f64 * 1e-4,
            tuple: FiveTuple::udp(
                Ipv4Addr::new(172, 20, 0, 1),
                7000 + (i % 64) as u16,
                Ipv4Addr::new(172, 20, 0, 2),
                4433,
            ),
            flags: TcpFlags::empty(),
            payload: vec![0x33; 4],
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();
    client.drain().unwrap();

    let stats = client.stats().unwrap();
    assert_eq!(stats.packets, n, "ample queue admits the whole burst");
    assert!(stats.queue_lock_acquisitions > 0, "the counter must be wired up");
    assert!(
        stats.queue_lock_acquisitions < n / 4,
        "burst of {} packets cost {} lock acquisitions; batching should amortize \
         to roughly n / batch_limit",
        n,
        stats.queue_lock_acquisitions
    );

    // The batch-dispatch stage records its shape per segment.
    assert!(stats.batch_size.count() > 0, "batched dispatch must record batch sizes");
    assert_eq!(
        stats.batch_size.count(),
        stats.flows_per_batch.count(),
        "each dispatched segment records both histograms"
    );

    client.close().unwrap();
    server.shutdown();
}

/// One-shot ClassifyBuffer bypasses flow state and matches a local
/// model run bit-for-bit (exact entropy features are deterministic).
#[test]
fn classify_buffer_matches_local_model() {
    let model = trained_model();
    let server = Server::start("127.0.0.1:0", model.clone(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut extractor = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 0);
    let samples: [&[u8]; 3] = [
        b"The quick brown fox jumps over the lazy dog, twice over.",
        &[
            0u8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
            24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
        ],
        &[
            0xE7, 0x12, 0x9C, 0x44, 0xD0, 0x5B, 0xF3, 0x2E, 0x81, 0x6A, 0xC5, 0x0F, 0xB8, 0x93,
            0x27, 0xDC, 0x4E, 0xA1, 0x78, 0x35, 0xEB, 0x52, 0x0D, 0xC6, 0x99, 0x3F, 0x84, 0x61,
            0xF2, 0x1B, 0xAE, 0x47, 0x70, 0x8D,
        ],
    ];
    for data in samples {
        let remote = client.classify_buffer(data).unwrap();
        let local = model.predict(&extractor.extract(&data[..data.len().min(32)]));
        assert_eq!(remote, local);
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.classify_requests, samples.len() as u64);
    assert_eq!(stats.packets, 0, "no flow state was touched");

    client.close().unwrap();
    server.shutdown();
}

/// Junk on the wire gets a descriptive Error frame back.
#[test]
fn malformed_frame_yields_error_response() {
    use iustitia_serve::proto::{read_frame, write_frame};

    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, 0x7F, b"???").unwrap();
    let (type_byte, _body) = read_frame(&mut stream).unwrap().expect("an error frame");
    assert_eq!(type_byte, 0x86, "0x86 is the Error frame type");
    server.shutdown();
}

/// Shutdown regression: the reactor is unblocked by its wakeup
/// eventfd, not by the old hack of dialing a throwaway TCP connection
/// to its own listener. An idle server must shut down promptly, with
/// zero connections ever accepted, and leave the port closed.
#[test]
fn shutdown_completes_without_self_connection() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let addr = server.local_addr();

    // Nothing ever connected — and nothing may connect during
    // shutdown either (the stop phase closes the listener before the
    // reactor exits, so a self-connect would deadlock, not help).
    assert_eq!(server.stats().connections, 0);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown must complete without a self-connection to unblock accept");

    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2));
    assert!(refused.is_err(), "listener must be gone after shutdown");
}

/// Many-connections smoke: one reactor serves hundreds of sockets
/// concurrently — every probe's flow classifies, nothing is lost, and
/// the accept-to-verdict histogram sees every verdict.
#[test]
fn many_connections_smoke() {
    use iustitia_serve::proto::{read_frame, write_frame, Request, Response};

    const CONNS: usize = 256;
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();

    // Phase 1: every probe connects and submits one 2-packet flow
    // (2 × 16 bytes fills the b = 32 buffer) before anyone reads, so
    // all sockets are genuinely concurrent.
    let mut probes = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 1, (i / 256) as u8, (i % 256) as u8),
            40_000 + i as u16,
            Ipv4Addr::new(10, 99, 99, 99),
            9999,
        );
        probes.push((stream, tuple));
    }
    for (stream, tuple) in &mut probes {
        for k in 0..2u8 {
            let packet = Packet {
                timestamp: 0.01 * f64::from(k),
                tuple: *tuple,
                flags: TcpFlags::empty(),
                payload: vec![0xC3 ^ k; 16],
            };
            let (t, body) = Request::SubmitPacket(packet).encode().unwrap();
            write_frame(stream, t, &body).unwrap();
        }
    }

    // Phase 2: every probe gets exactly its own verdict back.
    for (stream, tuple) in &mut probes {
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let (type_byte, body) = read_frame(stream).unwrap().expect("a verdict frame");
        match Response::decode(type_byte, &body).unwrap() {
            Response::FlowVerdict(v) => assert_eq!(v.tuple, *tuple, "verdict routed to its owner"),
            other => panic!("expected a verdict, got {other:?}"),
        }
    }

    let mut control = Client::connect(server.local_addr()).unwrap();
    let stats = control.stats().unwrap();
    assert_eq!(stats.connections, CONNS as u64 + 1, "every probe (and this client) accepted");
    assert_eq!(stats.packets, 2 * CONNS as u64, "no packet lost across {CONNS} sockets");
    assert_eq!(stats.busy_rejects, 0);
    assert!(
        stats.accept_to_verdict.count() >= CONNS as u64,
        "accept-to-verdict latency recorded per verdict: {}",
        stats.accept_to_verdict.count()
    );
    assert!(
        stats.open_connections >= 1 && stats.open_connections <= CONNS as u64 + 1,
        "open-connection gauge in range: {}",
        stats.open_connections
    );

    drop(probes);
    control.close().unwrap();
    server.shutdown();
}

/// The UDP adapter end to end: one-frame datagrams carry the same
/// requests as the stream transport, and verdicts come back as
/// datagrams to the submitting peer.
#[test]
fn udp_datagram_ingest_yields_verdict() {
    use iustitia_serve::proto::{Request, Response};
    use std::io::Cursor;

    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let server_udp = server.udp_addr().expect("UDP adapter enabled by default");

    let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let tuple = FiveTuple::udp(Ipv4Addr::new(10, 7, 7, 7), 7777, Ipv4Addr::new(10, 8, 8, 8), 8888);
    for k in 0..2u8 {
        let packet = Packet {
            timestamp: 0.05 * f64::from(k),
            tuple,
            flags: TcpFlags::empty(),
            payload: vec![0x5A ^ k; 16], // 2 × 16 = 32 ≥ b
        };
        let (t, body) = Request::SubmitPacket(packet).encode().unwrap();
        let mut datagram = Vec::new();
        iustitia_serve::proto::write_frame(&mut datagram, t, &body).unwrap();
        socket.send_to(&datagram, server_udp).unwrap();
    }

    let mut buf = vec![0u8; 64 * 1024];
    let (n, from) = socket.recv_from(&mut buf).expect("a verdict datagram");
    assert_eq!(from, server_udp);
    let mut cursor = Cursor::new(&buf[..n]);
    let (type_byte, body) =
        iustitia_serve::proto::read_frame(&mut cursor).unwrap().expect("one frame per datagram");
    match Response::decode(type_byte, &body).unwrap() {
        Response::FlowVerdict(v) => {
            assert_eq!(v.tuple, tuple);
            assert_eq!(v.packets, 2, "32 bytes arrive with the second datagram");
        }
        other => panic!("expected a verdict, got {other:?}"),
    }

    // The datagram path shows up in stats, queried over TCP.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.udp_datagrams, 2);
    assert_eq!(stats.packets, 2);
    client.close().unwrap();
    server.shutdown();
}

/// A stream of distinct UDP source addresses beyond the peer-table cap
/// must recycle table slots (LRU eviction), not permanently reject new
/// peers: every peer still gets its verdict.
#[test]
fn udp_peer_table_evicts_instead_of_wedging() {
    use iustitia_serve::proto::{Request, Response};
    use std::io::Cursor;

    let mut config = server_config();
    config.max_udp_peers = 2;
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let server_udp = server.udp_addr().expect("UDP adapter enabled by default");

    let peers = 5u8;
    for p in 0..peers {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let tuple = FiveTuple::udp(
            Ipv4Addr::new(10, 9, 9, p),
            6000 + u16::from(p),
            Ipv4Addr::new(10, 8, 8, 8),
            8888,
        );
        for k in 0..2u8 {
            let packet = Packet {
                timestamp: 0.05 * f64::from(k),
                tuple,
                flags: TcpFlags::empty(),
                payload: vec![(0x30 + p) ^ k; 16], // 2 × 16 = 32 ≥ b
            };
            let (t, body) = Request::SubmitPacket(packet).encode().unwrap();
            let mut datagram = Vec::new();
            iustitia_serve::proto::write_frame(&mut datagram, t, &body).unwrap();
            socket.send_to(&datagram, server_udp).unwrap();
        }
        let mut buf = vec![0u8; 64 * 1024];
        let (n, _) = socket
            .recv_from(&mut buf)
            .unwrap_or_else(|e| panic!("peer {p} of {peers} got no reply (cap 2): {e}"));
        let mut cursor = Cursor::new(&buf[..n]);
        let (type_byte, body) =
            iustitia_serve::proto::read_frame(&mut cursor).unwrap().expect("one frame per reply");
        match Response::decode(type_byte, &body).unwrap() {
            Response::FlowVerdict(v) => assert_eq!(v.tuple, tuple),
            other => panic!("peer {p} expected a verdict, got {other:?}"),
        }
    }

    let mut client = Client::connect(server.local_addr()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.udp_datagrams, u64::from(peers) * 2);
    assert_eq!(stats.packets, u64::from(peers) * 2, "no datagram was rejected");
    assert!(
        stats.open_connections <= 3,
        "gauge counts at most the TCP probe plus 2 live peers, got {}",
        stats.open_connections
    );
    client.close().unwrap();
    server.shutdown();
}

/// UDP flows work exactly like TCP flows (no flags, no close).
#[test]
fn udp_flow_classifies_on_full_buffer() {
    let server = Server::start("127.0.0.1:0", trained_model(), server_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let tuple =
        FiveTuple::udp(Ipv4Addr::new(192, 168, 1, 5), 5353, Ipv4Addr::new(192, 168, 1, 9), 5353);
    for i in 0..4 {
        let packet = Packet {
            timestamp: 0.1 * f64::from(i),
            tuple,
            flags: TcpFlags::empty(),
            payload: vec![b'a' + i as u8; 16], // 4 × 16 = 64 ≥ b = 32
        };
        client.submit_packet(&packet).unwrap();
    }
    client.flush().unwrap();

    let event = client.recv_event_timeout(Duration::from_secs(10));
    match event {
        Some(ClientEvent::Verdict(v)) => {
            assert_eq!(v.tuple, tuple);
            assert_eq!(v.tuple.protocol, Protocol::Udp);
            assert_eq!(v.packets, 2, "32 bytes arrive with the second packet");
        }
        other => panic!("expected a verdict, got {other:?}"),
    }

    client.close().unwrap();
    server.shutdown();
}

/// Submits `packets` (all of one flow) in one batch, drains, and
/// returns the drain count plus the `(packets, buffered_bytes)` of
/// every verdict the connection received, in arrival order.
fn episodes_after_drain(config: ServerConfig, packets: &[Packet]) -> (u32, Vec<(u32, u32)>) {
    let server = Server::start("127.0.0.1:0", trained_model(), config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for packet in packets {
        client.submit_packet(packet).unwrap();
    }
    let flushed = client.drain().unwrap();
    let verdicts = client
        .poll_events()
        .into_iter()
        .map(|event| match event {
            ClientEvent::Verdict(v) => {
                assert_eq!(v.tuple, packets[0].tuple);
                (v.packets, v.buffered_bytes)
            }
            other => panic!("expected only verdicts, got {other:?}"),
        })
        .collect();
    client.close().unwrap();
    server.shutdown();
    (flushed, verdicts)
}

fn episode_packet(tuple: FiveTuple, timestamp: f64, flags: TcpFlags, len: usize) -> Packet {
    Packet {
        timestamp,
        tuple,
        flags,
        payload: b"episode ".iter().copied().cycle().take(len).collect(),
    }
}

/// A flow idle-swept mid-batch that then buffers again owes two
/// verdicts: the swept episode's, delivered while the batch is
/// processed, and the new episode's, flushed (and counted) by the drain.
#[test]
fn idle_swept_flow_that_buffers_again_gets_each_verdict_once() {
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 7, 0, 1), 41000, Ipv4Addr::new(10, 7, 0, 2), 443);
    let packets = [
        episode_packet(tuple, 0.0, TcpFlags::ACK, 8),
        // One idle timeout later: the sweep due at this packet evicts
        // the stalled flow, and the FIN drops its fresh CDB record.
        episode_packet(tuple, 10.0, TcpFlags::FIN | TcpFlags::ACK, 0),
        episode_packet(tuple, 10.1, TcpFlags::ACK, 8),
    ];
    let (flushed, verdicts) = episodes_after_drain(server_config(), &packets);
    assert_eq!(verdicts, vec![(1, 8), (1, 8)], "one verdict per episode");
    assert_eq!(flushed, 1, "the drain flushes the second episode");
}

/// A flow classified again after its CDB record expires owes one
/// verdict per classification episode, however the batch is split.
#[test]
fn ttl_reclassified_flow_gets_each_verdict_once() {
    let mut config = server_config();
    config.pipeline.cdb.reclassify_after = Some(1.0);
    let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 7, 0, 3), 42000, Ipv4Addr::new(10, 7, 0, 4), 443);
    let packets = [
        episode_packet(tuple, 0.0, TcpFlags::ACK, 40), // classifies at b = 32
        episode_packet(tuple, 0.5, TcpFlags::ACK, 8),  // hit
        episode_packet(tuple, 2.0, TcpFlags::ACK, 40), // expired: classifies again
        episode_packet(tuple, 2.5, TcpFlags::ACK, 8),  // hit
        episode_packet(tuple, 4.0, TcpFlags::ACK, 8),  // expired: buffers again
    ];
    let (flushed, verdicts) = episodes_after_drain(config, &packets);
    assert_eq!(verdicts, vec![(1, 32), (1, 32), (1, 8)], "one verdict per episode");
    assert_eq!(flushed, 1, "the drain flushes the third episode");
}

/// A flood of one-packet flows with distinct tuples, more than the
/// reactor's 4096-slot flow-ID memo holds, interleaved with repeat
/// packets of live flows across three connections. Memo collisions
/// and overwrites must not change a single flow ID: every flow gets
/// exactly one verdict, on the connection that submitted it, equal to
/// a reference pipeline keyed by `FlowId::of_tuple`.
#[test]
fn tuple_flood_keeps_verdicts_exact_and_routed() {
    use iustitia::cdb::FlowId;
    use iustitia::pipeline::Iustitia;

    const CONNS: usize = 3;
    const FLOOD: u32 = 6000;
    const LIVE: u32 = 60;
    const LIVE_PACKETS: u32 = 12; // 4 × 8 bytes fill b = 32; 8 more CDB hits

    // Payload bytes from a per-flow LCG: half random, half ASCII text.
    let payload = |flow: u32, len: usize| -> Vec<u8> {
        let mut x = u64::from(flow).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let byte = (x >> 56) as u8;
                if flow.is_multiple_of(2) {
                    byte
                } else {
                    b' ' + byte % 95
                }
            })
            .collect()
    };
    let flood_tuple = |i: u32| {
        let src = Ipv4Addr::new(10, 100 + (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        if i.is_multiple_of(2) {
            FiveTuple::tcp(src, 30_000 + (i % 1000) as u16, dst, 443)
        } else {
            FiveTuple::udp(src, 30_000 + (i % 1000) as u16, dst, 53)
        }
    };
    let live_tuple = |j: u32| {
        FiveTuple::tcp(Ipv4Addr::new(10, 50, 0, j as u8), 50_000, Ipv4Addr::new(192, 0, 2, 2), 80)
    };

    // (connection, packet) in submission order: chunks of flood flows,
    // each followed by the next packet of every live flow.
    let mut schedule: Vec<(usize, Packet)> = Vec::new();
    let chunk = FLOOD / LIVE_PACKETS;
    for step in 0..LIVE_PACKETS {
        for i in step * chunk..(step + 1) * chunk {
            let packet = Packet {
                timestamp: schedule.len() as f64 * 1e-4,
                tuple: flood_tuple(i),
                flags: if i % 2 == 0 { TcpFlags::ACK } else { TcpFlags::empty() },
                payload: payload(i, 40),
            };
            schedule.push((i as usize % CONNS, packet));
        }
        for j in 0..LIVE {
            let packet = Packet {
                timestamp: schedule.len() as f64 * 1e-4,
                tuple: live_tuple(j),
                flags: TcpFlags::ACK,
                payload: payload(FLOOD + j * LIVE_PACKETS + step, 8),
            };
            schedule.push((j as usize % CONNS, packet));
        }
    }
    let total = schedule.len() as u64;
    assert_eq!(total, u64::from(FLOOD + LIVE * LIVE_PACKETS));

    // Reference: one offline pipeline over the same packets.
    let model = trained_model();
    let mut reference = Iustitia::new(model.clone(), PipelineConfig::headline(33));
    for (_, packet) in &schedule {
        reference.process_packet(packet);
    }
    reference.sweep_idle(1e9);
    let log = reference.take_log();
    assert_eq!(log.len(), (FLOOD + LIVE) as usize, "reference classifies every flow once");
    let expected: HashMap<FlowId, (iustitia_corpus::FileClass, u32, u32)> =
        log.iter().map(|f| (f.id, (f.label, f.packets, f.buffered_bytes as u32))).collect();

    let server = Server::start("127.0.0.1:0", model, server_config()).unwrap();
    let mut clients: Vec<Client> =
        (0..CONNS).map(|_| Client::connect(server.local_addr()).unwrap()).collect();
    let mut owner: HashMap<FiveTuple, usize> = HashMap::new();
    for (conn, packet) in &schedule {
        owner.insert(packet.tuple, *conn);
        clients[*conn].submit_packet(packet).unwrap();
    }
    for client in &mut clients {
        client.flush().unwrap();
    }
    // A drain sweeps every pending flow on every shard, whichever
    // connection sent it: drain only once the reactor has dispatched
    // all three connections' packets, so no live flow is swept early.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while clients[0].stats().unwrap().packets < total {
        assert!(std::time::Instant::now() < deadline, "packets never reached the shards");
        std::thread::sleep(Duration::from_millis(5));
    }
    for client in &mut clients {
        client.drain().unwrap();
    }

    let mut got: HashMap<FlowId, (iustitia_corpus::FileClass, u32, u32)> = HashMap::new();
    for (conn, client) in clients.iter_mut().enumerate() {
        for event in client.poll_events() {
            match event {
                ClientEvent::Verdict(v) => {
                    assert_eq!(
                        owner.get(&v.tuple),
                        Some(&conn),
                        "verdict for {} misrouted",
                        v.tuple
                    );
                    let prev = got
                        .insert(FlowId::of_tuple(&v.tuple), (v.label, v.packets, v.buffered_bytes));
                    assert!(prev.is_none(), "duplicate verdict for {}", v.tuple);
                }
                ClientEvent::Busy(t) => panic!("queues were sized to never reject, got Busy({t})"),
            }
        }
    }
    assert_eq!(got.len(), expected.len(), "one verdict per flow");
    assert!(got == expected, "served verdicts differ from the reference pipeline");

    let stats = clients[0].stats().unwrap();
    assert_eq!(stats.packets, total);
    assert_eq!(stats.stage(Stage::Hash).count(), total, "one Hash sample per data packet");
    assert_eq!(stats.hits, u64::from(LIVE * (LIVE_PACKETS - 4)));
    assert_eq!(stats.flows_classified, u64::from(FLOOD + LIVE));

    for client in clients {
        client.close().unwrap();
    }
    server.shutdown();
}
