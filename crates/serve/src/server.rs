//! The multi-threaded classification server.
//!
//! # Architecture
//!
//! ```text
//!  clients ── TCP ──┐   ┌───────────┐   per-shard bounded queues
//!  clients ── TCP ──┼─► │  reactor  │ ──┬──► [queue 0] ─► worker 0 (Iustitia + CDB)
//!      ...          │   │  (epoll,  │   ├──► [queue 1] ─► worker 1 (Iustitia + CDB)
//!  peers ─── UDP ───┘   │ 1 thread) │   ├──► [queue 2] ─► worker 2 (Iustitia + CDB)
//!  clients ◄────────────│  outbox   │   └──► [queue 3] ─► worker 3 (Iustitia + CDB)
//!                       └───────────┘          (verdicts fan back via the outbox)
//! ```
//!
//! A single [`Reactor`] thread owns every socket: it accepts
//! connections, reassembles frames from nonblocking reads, resolves
//! flow IDs, and batches packets per shard. A flow ID is the paper's
//! SHA-1 of the 5-tuple, memoized by a fixed-size
//! [`FlowIdCache`](iustitia::cdb::FlowIdCache), so SHA-1 runs about
//! once per flow instead of once per packet and every ID is still
//! bit-identical to it. Flow-affine work is routed by
//! [`shard_index`](iustitia::concurrent::shard_index) to one of `N`
//! *shard workers*, each owning an independent [`Iustitia`] pipeline
//! and CDB, so no classification state is ever shared and the packet
//! path takes no locks beyond its own shard queue. A worker sorts each
//! drained segment of packets by flow, classifies it with one
//! [`Iustitia::process_batch`] call, and routes every verdict to the
//! connection that submitted the flow: a flow holds a route exactly
//! while it is pending in the pipeline. Jobs and routes carry only the
//! connection id; workers push responses into the reactor's one
//! `Outbox` and wake its eventfd, and the reactor serializes them
//! onto the owning socket.
//!
//! Backpressure is per shard: bounded ingress queues with a
//! configurable [`AdmissionPolicy`]. The reactor batches every frame
//! already buffered on a socket (up to [`ServerConfig::batch_limit`])
//! and pushes each shard's share under a single lock acquisition —
//! exactly the dispatch the old per-connection reader threads
//! performed, minus the threads.
//!
//! Shutdown is graceful and has two phases: *stop* closes the listener
//! and the queues, letting every worker drain its backlog, classify
//! all in-flight flows from the bytes they have buffered, and emit
//! final verdicts; *finish* then flushes those verdicts to
//! still-connected clients before the reactor exits. The `Drain`
//! request offers the same barrier per connection at runtime.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use iustitia::cdb::FlowId;
use iustitia::model::AnytimeModel;
use iustitia::model::NatureModel;
use iustitia::pipeline::{BatchPacket, Iustitia, PipelineConfig, Verdict};
use iustitia_netsim::{FiveTuple, Packet};

use crate::metrics::{ServeMetrics, ShardGauges, ShardStats, Stage};
use crate::proto::{FlowVerdict, Response};
use crate::queue::{AdmissionPolicy, BoundedQueue};
use crate::reactor::{FanInGate, Outbox, Reactor};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of shard workers (each with its own pipeline + CDB).
    pub shards: usize,
    /// Per-shard ingress queue capacity, in packets.
    pub queue_capacity: usize,
    /// What to do when a shard queue is full.
    pub admission: AdmissionPolicy,
    /// Maximum frames the reactor decodes per connection batch before
    /// dispatching to the shards.
    pub batch_limit: usize,
    /// Also bind a UDP socket on the same port and serve one-frame
    /// datagrams through the reactor.
    pub udp: bool,
    /// Cap on distinct UDP peers holding verdict routes at once. Under
    /// cap pressure the reactor evicts idle peers (least-recently-seen
    /// first) rather than rejecting new ones, so a burst of spoofed
    /// source addresses cannot permanently wedge the datagram adapter.
    pub max_udp_peers: usize,
    /// Pipeline configuration replicated into every shard (each shard
    /// gets a decorrelated RNG seed).
    pub pipeline: PipelineConfig,
    /// Calibrated anytime model (confidence scorer plus per-stage
    /// classifiers), attached to every shard pipeline. Early-exit
    /// probes only run when [`PipelineConfig::anytime`] is also set on
    /// `pipeline`.
    pub anytime: Option<AnytimeModel>,
}

impl ServerConfig {
    /// Defaults: 4 shards, 1024-packet queues, `RejectBusy`, 64-frame
    /// batches, UDP enabled with a 65 536-peer table.
    #[must_use]
    pub fn new(pipeline: PipelineConfig) -> Self {
        ServerConfig {
            shards: 4,
            queue_capacity: 1024,
            admission: AdmissionPolicy::default(),
            batch_limit: 64,
            udp: true,
            max_udp_peers: 65_536,
            pipeline,
            anytime: None,
        }
    }
}

/// Work item on a shard queue.
pub(crate) enum Job {
    /// One packet to classify, with the connection that submitted it.
    Packet {
        /// The packet itself.
        packet: Packet,
        /// Its flow id (resolved on the reactor thread).
        flow: FlowId,
        /// The submitting connection, where its flow's verdict goes.
        conn_id: u64,
    },
    /// Barrier: classify all in-flight flows now; the last shard's ack
    /// replies `DrainComplete` through the gate.
    Drain {
        /// The draining connection.
        conn_id: u64,
        /// Fan-in gate counting one ack per shard.
        gate: Arc<FanInGate>,
    },
    /// The connection went away: forget its verdict routes. The last
    /// shard's ack lets the reactor close the socket.
    Disconnect {
        /// The departed connection.
        conn_id: u64,
        /// Fan-in gate counting one ack per shard.
        gate: Arc<FanInGate>,
    },
}

/// Where a pending flow's verdict must be delivered.
struct Route {
    tuple: FiveTuple,
    conn_id: u64,
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    pub(crate) model: Arc<NatureModel>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) queues: Vec<BoundedQueue<Job>>,
    /// Phase 1 of shutdown: stop accepting connections.
    pub(crate) stop: AtomicBool,
    /// Phase 2 of shutdown: workers have drained; flush and exit.
    pub(crate) finish: AtomicBool,
    pub(crate) next_conn_id: AtomicU64,
    /// The worker→reactor mailbox (also carries the wakeup eventfd).
    pub(crate) outbox: Arc<Outbox>,
}

impl Shared {
    /// Full stats snapshot, including the queue-lock counter summed
    /// across the shard queues (which live outside [`ServeMetrics`]).
    pub(crate) fn snapshot(&self) -> crate::metrics::StatsSnapshot {
        let locks = self.queues.iter().map(BoundedQueue::lock_acquisitions).sum();
        self.metrics.snapshot().with_queue_locks(locks)
    }
}

/// A running classification server; dropping it (or calling
/// [`shutdown`](Server::shutdown)) drains and joins all threads.
pub struct Server {
    addr: SocketAddr,
    udp_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (TCP, plus UDP on the same port when
    /// `config.udp`) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding the listener or setting
    /// up the reactor's epoll instance and wakeup eventfd.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `config.batch_limit == 0`.
    pub fn start(
        addr: impl ToSocketAddrs,
        model: NatureModel,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.batch_limit > 0, "batch limit must be positive");
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // UDP shares the port number (distinct protocol namespace); a
        // bind failure degrades to TCP-only rather than failing start.
        let udp_socket = if config.udp {
            UdpSocket::bind(addr).ok().filter(|s| s.set_nonblocking(true).is_ok())
        } else {
            None
        };
        let udp_addr = udp_socket.as_ref().and_then(|s| s.local_addr().ok());

        let queues = (0..config.shards)
            .map(|_| BoundedQueue::new(config.queue_capacity, config.admission))
            .collect();
        let metrics = ServeMetrics::with_shards(config.shards);
        let outbox = Arc::new(Outbox::new()?);
        let shared = Arc::new(Shared {
            config,
            model: Arc::new(model),
            metrics,
            queues,
            stop: AtomicBool::new(false),
            finish: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            outbox,
        });

        let mut worker_handles = Vec::with_capacity(shared.config.shards);
        let mut spawn_error = None;
        for shard in 0..shared.config.shards {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("iustitia-shard-{shard}"))
                .spawn(move || shard_worker(&shared, shard))
            {
                Ok(handle) => worker_handles.push(handle),
                Err(e) => {
                    spawn_error = Some(e);
                    break;
                }
            }
        }
        let reactor_result = match spawn_error {
            Some(e) => Err(e),
            None => Reactor::new(listener, udp_socket, Arc::clone(&shared)).and_then(|reactor| {
                std::thread::Builder::new()
                    .name("iustitia-reactor".into())
                    .spawn(move || reactor.run())
            }),
        };
        let reactor_handle = match reactor_result {
            Ok(handle) => handle,
            Err(e) => {
                // Unwind the partial start: close the queues so any
                // already-running workers drain and exit, then report.
                shared.stop.store(true, Ordering::SeqCst);
                for queue in &shared.queues {
                    queue.close();
                }
                for handle in worker_handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        };

        Ok(Server { addr, udp_addr, shared, reactor_handle: Some(reactor_handle), worker_handles })
    }

    /// The bound TCP address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound UDP address, when the datagram adapter is enabled.
    #[must_use]
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// A metrics snapshot, equivalent to the `Stats` request.
    #[must_use]
    pub fn stats(&self) -> crate::metrics::StatsSnapshot {
        self.shared.snapshot()
    }

    /// Stops accepting, closes the shard queues, waits for every
    /// worker to drain its backlog, classify in-flight flows, and emit
    /// final verdicts, then flushes those verdicts to still-connected
    /// clients before tearing the reactor down.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // Phase 1: no new connections, no new work. The eventfd wake
        // replaces the old hack of connecting a throwaway TCP socket
        // to the listener just to unblock a blocking accept.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.outbox.wake();
        for queue in &self.shared.queues {
            queue.close();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        // Phase 2: workers have emitted every verdict into the outbox;
        // let the reactor flush them to the sockets and exit.
        self.shared.finish.store(true, Ordering::SeqCst);
        self.shared.outbox.wake();
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A packet job pulled off the shard queue, awaiting batched dispatch.
struct PacketJob {
    packet: Packet,
    flow: FlowId,
    /// Arrival position within the segment: the tie-break that keeps
    /// the in-place sort by flow ID stable.
    seq: usize,
    conn_id: u64,
}

/// One shard's classification state: an [`Iustitia`] pipeline (with its
/// own CDB), the verdict routes of its pending flows, and scratch
/// reused across segments.
struct Shard {
    pipeline: Iustitia,
    /// Where each flow's verdict goes. A flow holds a route exactly
    /// while it is pending in the pipeline.
    routes: HashMap<FlowId, Route>,
    /// Latest packet timestamp seen; the drain sweep runs past it.
    last_t: f64,
    /// Packet jobs of the current segment.
    segment: Vec<PacketJob>,
    /// The allocation behind each segment's batch view, kept empty
    /// between segments.
    items: Vec<BatchPacket<'static>>,
    verdicts: Vec<Verdict>,
}

/// One shard worker: owns a [`Shard`] and processes its queue until the
/// server shuts down, then drains.
///
/// Each condvar wakeup drains the whole backlog with a single
/// [`BoundedQueue::pop_all`]. Contiguous stretches of packet jobs form
/// a *segment*; control jobs (drain barriers, disconnects) dispatch the
/// pending segment first, so their ordering guarantees are unchanged.
fn shard_worker(shared: &Arc<Shared>, shard: usize) {
    let mut config = shared.config.pipeline.clone();
    // Decorrelate per-shard RNG streams.
    config.seed = config.seed.wrapping_add(shard as u64);
    let mut pipeline = Iustitia::new((*shared.model).clone(), config);
    if let Some(anytime) = &shared.config.anytime {
        pipeline = pipeline.with_anytime(anytime.clone());
    }
    let mut state = Shard {
        pipeline,
        routes: HashMap::new(),
        last_t: 0.0,
        segment: Vec::new(),
        items: Vec::new(),
        verdicts: Vec::new(),
    };
    let gauges = &shared.metrics.shards[shard];

    while let Some(batch) = shared.queues[shard].pop_all() {
        for job in batch {
            match job {
                Job::Packet { packet, flow, conn_id } => {
                    let seq = state.segment.len();
                    state.segment.push(PacketJob { packet, flow, seq, conn_id });
                }
                Job::Drain { conn_id, gate } => {
                    // Barrier: everything submitted before the drain is
                    // dispatched before the sweep.
                    state.dispatch_segment(shared);
                    let flushed = state.sweep_all(shared, Some(conn_id));
                    // Refresh gauges before acking so a Stats request
                    // issued right after the drain sees the swept state.
                    state.publish(gauges);
                    gate.ack(flushed);
                }
                Job::Disconnect { conn_id, gate } => {
                    // Dispatch first: packets this connection submitted
                    // before going away still get processed, and their
                    // routes must exist to be forgotten here.
                    state.dispatch_segment(shared);
                    state.routes.retain(|_, route| route.conn_id != conn_id);
                    gate.ack(0);
                }
            }
        }
        state.dispatch_segment(shared);
        // Refresh this shard's gauges once per drained batch: cheap
        // (a few relaxed stores) and fresh enough for a Stats poll.
        state.publish(gauges);
    }

    // Queue closed: graceful shutdown. Classify every in-flight flow
    // from the bytes it has buffered and emit final verdicts.
    state.sweep_all(shared, None);
    state.publish(gauges);
}

impl Shard {
    /// Dispatches the pending segment through one
    /// [`Iustitia::process_batch`] call, then delivers its verdicts.
    ///
    /// The segment is sorted by flow ID, each flow keeping its arrival
    /// order, so `process_batch` resolves every flow's state once per
    /// run. Cross-flow order within one drained segment is a scheduling
    /// detail — concurrent connections already interleave arbitrarily
    /// in the queue.
    ///
    /// Verdicts follow one rule: a flow holds a route exactly while it
    /// is pending. Log entries are delivered in log order through the
    /// flow's route; when that route was already used (or the flow got
    /// its verdict within this segment) the entry goes to the flow's
    /// job in the sorted segment. Afterwards each of the segment's
    /// flows keeps or gains a route iff the pipeline still has it
    /// pending.
    fn dispatch_segment(&mut self, shared: &Shared) {
        if self.segment.is_empty() {
            return;
        }
        self.segment.sort_unstable_by(|a, b| a.flow.cmp(&b.flow).then(a.seq.cmp(&b.seq)));
        let mut items = reuse(std::mem::take(&mut self.items));
        // lint: allow(L009) — fills the allocation reused across segments; grows only to the largest segment seen
        items.extend(self.segment.iter().map(|j| BatchPacket { flow: j.flow, packet: &j.packet }));
        let t0 = Instant::now();
        self.pipeline.process_batch(&items, &mut self.verdicts);
        // Attribute the mean per-packet cost to the stage that
        // terminated each packet.
        let per_packet = t0.elapsed().as_nanos() as u64 / items.len().max(1) as u64;
        self.items = reuse(items);

        let (mut hits, mut fills, mut classified) = (0, 0, 0);
        for verdict in &self.verdicts {
            match verdict {
                Verdict::Hit(_) => hits += 1,
                Verdict::Buffering => fills += 1,
                Verdict::Classified(_) => classified += 1,
                Verdict::Ignored => {}
            }
        }
        shared.metrics.record_n(Stage::CdbLookup, per_packet, hits);
        shared.metrics.record_n(Stage::BufferFill, per_packet, fills);
        shared.metrics.record_n(Stage::Classify, per_packet, classified);
        ServeMetrics::add(&shared.metrics.hits, hits);
        self.deliver_log(shared, None);

        let mut flows = 0;
        let mut prev = None;
        for job in &self.segment {
            self.last_t = self.last_t.max(job.packet.timestamp);
            if prev == Some(job.flow) {
                continue;
            }
            prev = Some(job.flow);
            flows += 1;
            if self.pipeline.is_pending(&job.flow) {
                self.routes
                    .entry(job.flow)
                    .or_insert(Route { tuple: job.packet.tuple, conn_id: job.conn_id });
            } else {
                // lint: allow(L008) — HashMap::remove never panics (the KB is conservative for Vec::remove)
                self.routes.remove(&job.flow);
            }
        }
        shared.metrics.batch_size.record(self.segment.len() as u64);
        shared.metrics.flows_per_batch.record(flows);
        self.segment.clear();
    }

    /// Delivers every newly logged classification, in log order, and
    /// returns how many went to `count_conn`.
    fn deliver_log(&mut self, shared: &Shared, count_conn: Option<u64>) -> u32 {
        let log = self.pipeline.take_log();
        if log.is_empty() {
            return 0;
        }
        ServeMetrics::add(&shared.metrics.flows_classified, log.len() as u64);
        let mut counted = 0;
        for entry in &log {
            shared.metrics.bytes_at_verdict.record(entry.buffered_bytes as u64);
            // lint: allow(L008) — HashMap::remove never panics (the KB is conservative for Vec::remove)
            let (tuple, conn_id) = match self.routes.remove(&entry.id) {
                Some(route) => (route.tuple, route.conn_id),
                None => {
                    // lint: allow(L008) — a binary search over the sorted segment; it never panics
                    let at = self.segment.partition_point(|j| j.flow < entry.id);
                    match self.segment.get(at).filter(|j| j.flow == entry.id) {
                        Some(job) => (job.packet.tuple, job.conn_id),
                        None => continue,
                    }
                }
            };
            if count_conn == Some(conn_id) {
                counted += 1;
            }
            shared.outbox.reply(
                conn_id,
                Response::FlowVerdict(FlowVerdict {
                    tuple,
                    label: entry.label,
                    packets: entry.packets,
                    buffered_bytes: entry.buffered_bytes as u32,
                    fill_time: entry.fill_time,
                }),
            );
        }
        counted
    }

    /// Classifies every in-flight flow from the bytes it has buffered
    /// (the drain and shutdown barrier) and delivers the verdicts;
    /// returns how many went to `count_conn`.
    fn sweep_all(&mut self, shared: &Shared, count_conn: Option<u64>) -> u32 {
        let idle_timeout = self.pipeline.config().idle_timeout;
        self.pipeline.sweep_idle(self.last_t + idle_timeout + 1.0);
        let counted = self.deliver_log(shared, count_conn);
        // Flows the sweep dropped without a verdict release their
        // routes too.
        let pipeline = &self.pipeline;
        self.routes.retain(|flow, _| pipeline.is_pending(flow));
        counted
    }

    /// Publishes this shard's pipeline gauges.
    fn publish(&self, gauges: &ShardGauges) {
        let p = &self.pipeline;
        gauges.store(ShardStats {
            pending_flows: p.pending_flows() as u64,
            resident_feature_bytes: p.resident_feature_bytes() as u64,
            state_pool_hits: p.state_pool_hits(),
            state_pool_size: p.state_pool_size() as u64,
            early_exit_verdicts: p.early_exit_verdicts(),
        });
    }
}

/// Empties `items` and retypes it for batch views of another lifetime,
/// keeping its allocation (an in-place collect reuses the buffer).
fn reuse<'a>(mut items: Vec<BatchPacket<'_>>) -> Vec<BatchPacket<'a>> {
    items.clear();
    // lint: allow(L008) — an adaptor over an empty Vec; the closure never runs
    items.into_iter().map_while(|_| None).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_keeps_the_allocation() {
        let packet = Packet {
            timestamp: 0.0,
            tuple: FiveTuple::tcp([10, 0, 0, 1].into(), 1, [10, 0, 0, 2].into(), 2),
            flags: iustitia_netsim::TcpFlags::ACK,
            payload: vec![1],
        };
        let mut items = Vec::with_capacity(64);
        items.push(BatchPacket::new(&packet));
        let buffer = items.as_ptr() as usize;
        let reused: Vec<BatchPacket<'static>> = reuse(items);
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), 64);
        assert_eq!(reused.as_ptr() as usize, buffer);
    }
}
