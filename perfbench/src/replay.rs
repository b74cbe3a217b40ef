//! The traced run's per-layer replay.
//!
//! The workload's frames are replayed single-threaded through each
//! layer's public calls in pipeline order, on the run's model and
//! configuration: decode, flow-ID hash, queue handoff, the shard
//! pipeline's `process_batch`, and verdict encoding. The pipeline's own
//! verdicts then drive isolated replays of its children — CDB, feature
//! kernel (and its entropy and battery parts separately), predict and
//! the anytime probe — over the same packets in the same order.
//!
//! Spans go around batches of calls, never single cheap calls: one
//! clock pair costs about as much as a CDB lookup. The one exception
//! is a kernel finish, which costs microseconds and is timed alone as
//! a child of its batch's update span, so the update's self time
//! excludes it. Every span is kept in memory and written out at the
//! end of the run.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::time::Instant;

use iustitia::cdb::{ClassificationDatabase, FlowId};
use iustitia::concurrent::shard_index;
use iustitia::features::{FeatureExtractor, FlowFeatureState};
use iustitia::model::CompiledNatureModel;
use iustitia::pipeline::{BatchPacket, ClassifiedFlow, Iustitia, Verdict};
use iustitia_entropy::{IncrementalVector, RandomnessBattery};
use iustitia_netsim::Packet;
use iustitia_serve::{
    AdmissionPolicy, BoundedQueue, FlowVerdict, FrameAssembler, Request, Response, WriteBuffer,
};

use crate::workload::{Prepared, Trained, Workload, SHARDS};

/// What the end-to-end passes observed that the replay reproduces or
/// reconciles with.
pub struct Observed {
    /// Median shard batch size.
    pub batch_size: usize,
    /// Median server (reactor + shard) CPU per packet.
    pub server_cpu_ns_per_pkt: f64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` at the root.
    parent: u32,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        let parent = parent.map_or(u32::MAX, |p| p as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Per name: `(spans, total ns, self ns)`, where self time excludes
    /// the time covered by child spans. Each span's duration is first
    /// reduced by `clock_ns`, the clock read it contains.
    fn totals(&self, clock_ns: f64) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let duration = |s: &Span| ((s.end_ns - s.start_ns) as f64 - clock_ns).max(0.0);
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                child_ns[s.parent as usize] += duration(s) + clock_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += duration(s);
            e.2 += (duration(s) - child).max(0.0);
        }
        out
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Cost of one `Instant::now()` plus `elapsed()` pair, in nanoseconds.
fn clock_pair_ns() -> f64 {
    let n = 200_000u32;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..n {
        let t = Instant::now();
        sink = sink.wrapping_add(t.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(n)
}

/// What the kernel replays do for one packet of a batch.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Feed `len` classification-window bytes of batch item `item`.
    Feed { flow: FlowId, item: usize, len: usize },
    /// Finish a partial vector for an anytime probe (the state lives on
    /// unless `last`, when the probe's verdict ends the flow).
    Probe { flow: FlowId, fed: usize, last: bool },
    /// Finish the flow's vector for its verdict and drop its state.
    Final { flow: FlowId },
}

/// A streaming feature kernel the replay can drive.
trait Kernel {
    fn update(&mut self, chunk: &[u8]);
    fn finish(&self, out: &mut Vec<f64>, counts: &mut Vec<u64>);
    fn resident_bytes(&self) -> usize;
}

impl Kernel for FlowFeatureState {
    fn update(&mut self, chunk: &[u8]) {
        FlowFeatureState::update(self, chunk);
    }
    fn finish(&self, out: &mut Vec<f64>, counts: &mut Vec<u64>) {
        self.finish_into(out, counts);
    }
    fn resident_bytes(&self) -> usize {
        FlowFeatureState::resident_bytes(self)
    }
}

impl Kernel for IncrementalVector {
    fn update(&mut self, chunk: &[u8]) {
        IncrementalVector::update(self, chunk);
    }
    fn finish(&self, out: &mut Vec<f64>, counts: &mut Vec<u64>) {
        self.finish_entropies_into(out, counts);
    }
    fn resident_bytes(&self) -> usize {
        0
    }
}

impl Kernel for RandomnessBattery {
    fn update(&mut self, chunk: &[u8]) {
        RandomnessBattery::update(self, chunk);
    }
    fn finish(&self, out: &mut Vec<f64>, _counts: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&RandomnessBattery::finish(self));
    }
    fn resident_bytes(&self) -> usize {
        0
    }
}

/// Replays kernel events through one kernel type, recording an update
/// span per batch with each finish as a child span.
struct KernelReplay<K> {
    update_span: &'static str,
    finish_span: &'static str,
    fresh: Box<dyn Fn() -> K>,
    states: HashMap<FlowId, K>,
    pool: Vec<K>,
    reset: Box<dyn Fn(&mut K)>,
    bytes: u64,
    finishes: u64,
    /// Resident bytes of each flow's state when its verdict ended it.
    resident_at_end: u64,
    ended: u64,
    out: Vec<f64>,
    counts: Vec<u64>,
}

impl<K> KernelReplay<K> {
    fn new(
        update_span: &'static str,
        finish_span: &'static str,
        fresh: Box<dyn Fn() -> K>,
        reset: Box<dyn Fn(&mut K)>,
    ) -> Self {
        KernelReplay {
            update_span,
            finish_span,
            fresh,
            states: HashMap::new(),
            pool: Vec::new(),
            reset,
            bytes: 0,
            finishes: 0,
            resident_at_end: 0,
            ended: 0,
            out: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl<K: Kernel> KernelReplay<K> {
    /// Applies one batch's events. Finished vectors are handed to
    /// `sink` (with the bytes fed, and whether it was a probe).
    fn run(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        items: &[BatchPacket<'_>],
        events: &[Event],
        mut sink: impl FnMut(&[f64], usize, bool),
    ) {
        let span = tracer.begin(self.update_span, Some(parent));
        for event in events {
            match *event {
                Event::Feed { flow, item, len } => {
                    let state = match self.states.get_mut(&flow) {
                        Some(s) => s,
                        None => {
                            let s = self.pool.pop().map_or_else(
                                || (self.fresh)(),
                                |mut s| {
                                    (self.reset)(&mut s);
                                    s
                                },
                            );
                            self.states.entry(flow).or_insert(s)
                        }
                    };
                    state.update(&items[item].packet.payload[..len]);
                    self.bytes += len as u64;
                }
                Event::Probe { flow, fed, last } => {
                    let Some(state) = self.states.get(&flow) else { continue };
                    let f = tracer.begin(self.finish_span, Some(span));
                    state.finish(&mut self.out, &mut self.counts);
                    tracer.end(f);
                    self.finishes += 1;
                    sink(&self.out, fed, true);
                    if last {
                        if let Some(s) = self.states.remove(&flow) {
                            self.resident_at_end += s.resident_bytes() as u64;
                            self.ended += 1;
                            self.pool.push(s);
                        }
                    }
                }
                Event::Final { flow } => {
                    let Some(state) = self.states.remove(&flow) else { continue };
                    self.resident_at_end += state.resident_bytes() as u64;
                    self.ended += 1;
                    let f = tracer.begin(self.finish_span, Some(span));
                    state.finish(&mut self.out, &mut self.counts);
                    tracer.end(f);
                    self.finishes += 1;
                    sink(&self.out, 0, false);
                    self.pool.push(state);
                }
            }
        }
        tracer.end(span);
    }
}

/// Per-flow progress the event schedule tracks: window bytes fed and
/// the `fed` of the last probe.
#[derive(Default, Clone, Copy)]
struct Progress {
    fed: usize,
    probed: usize,
}

/// Turns one processed batch into kernel events, from the verdicts the
/// pipeline returned and the verdicts it logged.
fn schedule(
    trained: &Trained,
    items: &[BatchPacket<'_>],
    verdicts: &[Verdict],
    log: &[ClassifiedFlow],
    progress: &mut HashMap<FlowId, Progress>,
    events: &mut Vec<Event>,
) {
    let b = trained.config.buffer_size;
    let anytime = trained.config.anytime.filter(|_| trained.anytime.is_some());
    let early: Vec<FlowId> = log.iter().filter(|e| e.early_exit).map(|e| e.id).collect();
    events.clear();
    for (i, (item, verdict)) in items.iter().zip(verdicts).enumerate() {
        let flow = item.flow;
        let fed_now =
            matches!(verdict, Verdict::Buffering | Verdict::Classified(_)) && item.packet.is_data();
        if fed_now {
            let p = progress.entry(flow).or_default();
            let len = item.packet.payload.len().min(b - p.fed);
            p.fed += len;
            if len > 0 {
                events.push(Event::Feed { flow, item: i, len });
            }
        }
        let probe_due = |p: &Progress| {
            anytime.is_some_and(|a| p.fed >= a.min_bytes && p.fed - p.probed >= a.probe_stride)
        };
        match verdict {
            Verdict::Classified(_) if early.contains(&flow) => {
                let fed = progress.remove(&flow).map_or(0, |p| p.fed);
                events.push(Event::Probe { flow, fed, last: true });
            }
            Verdict::Classified(_) => {
                progress.remove(&flow);
                events.push(Event::Final { flow });
            }
            Verdict::Buffering => {
                if let Some(p) = progress.get_mut(&flow) {
                    if probe_due(p) {
                        p.probed = p.fed;
                        events.push(Event::Probe { flow, fed: p.fed, last: false });
                    }
                }
            }
            _ => {}
        }
    }
    // Closes and idle sweeps classify flows without a Classified verdict.
    for entry in log {
        if progress.remove(&entry.id).is_some() {
            events.push(Event::Final { flow: entry.id });
        }
    }
}

/// Replays the workload's frames through every layer and returns one
/// sample per per-layer metric.
pub fn replay(
    w: &Workload,
    trained: &Trained,
    prepared: &Prepared,
    observed: &Observed,
    spans_path: &std::path::Path,
) -> Vec<(&'static str, Vec<f64>)> {
    let clock_pair = clock_pair_ns();
    let mut tracer = Tracer::new();
    let root = tracer.begin("replay", None);
    let config = &trained.config;
    let b = config.buffer_size;

    let mut pipelines: Vec<Iustitia> = (0..SHARDS)
        .map(|shard| {
            let mut t = trained.clone();
            t.config.seed = t.config.seed.wrapping_add(shard as u64);
            t.pipeline()
        })
        .collect();
    let mut cdbs: Vec<ClassificationDatabase> =
        (0..SHARDS).map(|_| ClassificationDatabase::new(config.cdb)).collect();
    let queue: BoundedQueue<(FlowId, Packet)> =
        BoundedQueue::new(1 << 14, AdmissionPolicy::RejectBusy);
    let extractor = FeatureExtractor::new(config.widths.clone(), config.mode.clone(), config.seed)
        .with_battery(config.battery);
    let widths = config.widths.clone();
    let mut features = KernelReplay::<FlowFeatureState>::new(
        "core.features.update",
        "core.features.finish",
        Box::new({
            let e = extractor.clone();
            move || e.begin_flow(b)
        }),
        Box::new(move |state| extractor.reset_flow(state, b)),
    );
    let mut incremental = KernelReplay::<IncrementalVector>::new(
        "entropy.incremental.update",
        "entropy.incremental.finish",
        Box::new(move || IncrementalVector::with_byte_hint(&widths, b)),
        Box::new(IncrementalVector::reset),
    );
    let mut battery = KernelReplay::<RandomnessBattery>::new(
        "entropy.randomness.update",
        "entropy.randomness.finish",
        Box::new(RandomnessBattery::new),
        Box::new(RandomnessBattery::reset),
    );
    let mut compiled: CompiledNatureModel = trained.model.compile();
    let mut stages: Vec<(u64, CompiledNatureModel)> = trained
        .anytime
        .as_ref()
        .map(|a| a.stage_models().iter().map(|s| (s.bytes, s.model.compile())).collect())
        .unwrap_or_default();

    let mut progress: Vec<HashMap<FlowId, Progress>> = vec![HashMap::new(); SHARDS];
    let mut pending: Vec<Vec<(FlowId, Packet)>> = vec![Vec::new(); SHARDS];
    let mut verdicts = Vec::new();
    let mut events = Vec::new();
    let mut finals: Vec<Vec<f64>> = Vec::new();
    let mut probes: Vec<(Vec<f64>, usize)> = Vec::new();
    let mut wire = WriteBuffer::new();
    let mut sink = std::io::sink();
    let mut asm = FrameAssembler::new();
    let mut decoded: Vec<Packet> = Vec::new();
    let mut ids: Vec<FlowId> = Vec::new();
    let (mut lookups, mut hits, mut inserts, mut verdict_count) = (0u64, 0u64, 0u64, 0u64);
    let (mut predicts, mut margins, mut scores) = (0u64, 0u64, 0u64);
    let batch = observed.batch_size.max(1);

    let mut dispatch = |tracer: &mut Tracer, shard: usize, jobs: Vec<(FlowId, Packet)>| {
        let s = tracer.begin("serve.queue.push_pop", Some(root));
        let _ = queue.push_batch(jobs);
        let mut popped = queue.pop_all().unwrap_or_default();
        tracer.end(s);
        // The shard's own bookkeeping (sorting by flow, building the
        // batch view) is left to the unattributed remainder.
        popped.sort_by_key(|job| job.0);
        let items: Vec<BatchPacket<'_>> =
            popped.iter().map(|(flow, packet)| BatchPacket { flow: *flow, packet }).collect();
        let s = tracer.begin("core.pipeline.process_batch", Some(root));
        pipelines[shard].process_batch(&items, &mut verdicts);
        tracer.end(s);
        let log = pipelines[shard].take_log();

        let s = (!log.is_empty()).then(|| tracer.begin("serve.proto.verdict_encode", Some(root)));
        for entry in &log {
            let response = Response::FlowVerdict(FlowVerdict {
                tuple: items[0].packet.tuple,
                label: entry.label,
                packets: entry.packets,
                buffered_bytes: entry.buffered_bytes as u32,
                fill_time: entry.fill_time,
            });
            if let Ok((t, body)) = response.encode() {
                let _ = wire.push_frame(t, &body);
            }
        }
        if let Some(s) = s {
            tracer.end(s);
        }
        let _ = wire.flush_to(&mut sink);
        verdict_count += log.len() as u64;

        // CDB child: one lookup per same-flow run (the pipeline resolves
        // each run's record once), a removal per close, an insert per
        // verdict.
        let now = items.last().map_or(0.0, |i| i.packet.timestamp);
        let cdb = &mut cdbs[shard];
        let s = tracer.begin("core.cdb.lookup", Some(root));
        let mut prev: Option<FlowId> = None;
        for item in &items {
            if item.packet.flags.closes_flow() {
                cdb.remove_on_close(&item.flow);
            } else if item.packet.is_data() && prev != Some(item.flow) {
                lookups += 1;
                hits += u64::from(cdb.lookup(&item.flow, item.packet.timestamp).is_some());
            }
            prev = Some(item.flow);
        }
        tracer.end(s);
        if !log.is_empty() {
            let s = tracer.begin("core.cdb.insert", Some(root));
            for entry in &log {
                cdb.insert(entry.id, entry.label, now);
            }
            tracer.end(s);
        }
        inserts += log.len() as u64;

        // Kernel children, driven by what the pipeline did.
        schedule(trained, &items, &verdicts, &log, &mut progress[shard], &mut events);
        finals.clear();
        probes.clear();
        features.run(tracer, root, &items, &events, |v, fed, probe| {
            if probe {
                probes.push((v.to_vec(), fed));
            } else {
                finals.push(v.to_vec());
            }
        });
        incremental.run(tracer, root, &items, &events, |_, _, _| {});
        battery.run(tracer, root, &items, &events, |_, _, _| {});

        if !finals.is_empty() {
            let s = tracer.begin("ml.compiled.predict", Some(root));
            for v in &finals {
                let _ = std::hint::black_box(compiled.try_predict(v));
            }
            tracer.end(s);
            predicts += finals.len() as u64;
        }
        if stages.is_empty() && !finals.is_empty() {
            // No anytime model: time the margin form on the verdicts.
            let s = tracer.begin("ml.compiled.predict_margin", Some(root));
            for v in &finals {
                let _ = std::hint::black_box(compiled.try_predict_with_margin(v));
            }
            tracer.end(s);
            margins += finals.len() as u64;
        } else if let (Some(anytime), false) = (&trained.anytime, probes.is_empty()) {
            let mut predicted = Vec::with_capacity(probes.len());
            let s = tracer.begin("ml.compiled.predict_margin", Some(root));
            for (v, fed) in &probes {
                let idx = stages.iter().rposition(|(bytes, _)| *bytes <= *fed as u64).unwrap_or(0);
                predicted.push(stages[idx].1.try_predict_with_margin(v).ok());
            }
            tracer.end(s);
            let s = tracer.begin("ml.confidence.score", Some(root));
            for ((v, fed), p) in probes.iter().zip(&predicted) {
                if let Some((label, margin)) = p {
                    let score = anytime.confidence.score(v, *fed as u64, label.index(), *margin);
                    std::hint::black_box(score);
                }
            }
            tracer.end(s);
            margins += probes.len() as u64;
            scores += probes.len() as u64;
        }
    };

    for slice in prepared.frames.chunks(1 << 16) {
        let s = tracer.begin("serve.proto.decode", Some(root));
        asm.extend(slice);
        while let Ok(Some((t, body))) = asm.next_frame() {
            if let Ok(Request::SubmitPacket(packet)) = Request::decode(t, &body) {
                decoded.push(packet);
            }
        }
        tracer.end(s);
        let s = tracer.begin("core.sha1.flow_id", Some(root));
        ids.extend(decoded.iter().map(|p| FlowId::of_tuple(&p.tuple)));
        tracer.end(s);
        for (flow, packet) in ids.drain(..).zip(decoded.drain(..)) {
            let shard = shard_index(&flow, SHARDS);
            pending[shard].push((flow, packet));
            if pending[shard].len() >= batch {
                let jobs = std::mem::take(&mut pending[shard]);
                dispatch(&mut tracer, shard, jobs);
            }
        }
    }
    for (shard, slot) in pending.iter_mut().enumerate() {
        let jobs = std::mem::take(slot);
        if !jobs.is_empty() {
            dispatch(&mut tracer, shard, jobs);
        }
    }
    let now = f64::MAX / 4.0;
    let mut purges = 0u64;
    for cdb in &mut cdbs {
        let s = tracer.begin("core.cdb.purge", Some(root));
        std::hint::black_box(cdb.purge_obsolete(now));
        tracer.end(s);
        purges += 1;
    }
    tracer.end(root);

    let packets = prepared.packets() as f64;
    // A span's interval contains about one clock read: half a pair.
    let totals = tracer.totals(clock_pair / 2.0);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.2);
    let per = |x: f64, n: u64| x / n.max(1) as f64;
    let kib = |bytes: u64| (bytes as f64 / 1024.0).max(1e-9);

    let decode = total("serve.proto.decode") / packets;
    let sha1 = total("core.sha1.flow_id") / packets;
    let queue_ns = total("serve.queue.push_pop") / packets;
    let batch_ns = total("core.pipeline.process_batch") / packets;
    let encode_ns = per(total("serve.proto.verdict_encode"), verdict_count);
    let layers =
        decode + sha1 + queue_ns + batch_ns + total("serve.proto.verdict_encode") / packets;
    let children = total("core.cdb.lookup")
        + total("core.cdb.insert")
        + total("core.features.update")
        + total("ml.compiled.predict")
        + if stages.is_empty() {
            0.0
        } else {
            total("ml.compiled.predict_margin") + total("ml.confidence.score")
        };

    if let Err(e) = tracer.write_tsv(spans_path) {
        eprintln!("perfbench: could not write {}: {e}", spans_path.display());
    }
    eprintln!(
        "replay of {} ({} packets, batches of {batch}): {} spans",
        w.name,
        prepared.packets(),
        tracer.spans.len()
    );

    let mut out: Vec<(&'static str, f64)> = vec![
        ("trace.clock_pair_ns", clock_pair),
        ("serve.proto.decode_ns", decode),
        ("core.sha1.flow_id_ns", sha1),
        ("serve.queue.push_pop_ns_per_pkt", queue_ns),
        ("core.pipeline.process_batch_ns_per_pkt", batch_ns),
        ("core.pipeline.unattributed_ns_per_pkt", batch_ns - children / packets),
        ("serve.proto.verdict_encode_ns", encode_ns),
        ("replay.layers_ns_per_pkt", layers),
        ("serve.unattributed_ns_per_pkt", observed.server_cpu_ns_per_pkt - layers),
        ("core.cdb.lookup_ns", per(total("core.cdb.lookup"), lookups)),
        ("core.cdb.insert_ns", per(total("core.cdb.insert"), inserts)),
        ("core.cdb.purge_ns", per(total("core.cdb.purge"), purges)),
        ("core.cdb.hit_ratio", per(hits as f64, lookups)),
        ("core.features.update_ns_per_kib", self_ns("core.features.update") / kib(features.bytes)),
        ("core.features.finish_ns", per(total("core.features.finish"), features.finishes)),
        (
            "core.features.resident_bytes_per_flow",
            per(features.resident_at_end as f64, features.ended),
        ),
        (
            "entropy.incremental.update_ns_per_kib",
            self_ns("entropy.incremental.update") / kib(incremental.bytes),
        ),
        (
            "entropy.incremental.finish_ns",
            per(total("entropy.incremental.finish"), incremental.finishes),
        ),
        (
            "entropy.randomness.update_ns_per_kib",
            self_ns("entropy.randomness.update") / kib(battery.bytes),
        ),
        ("entropy.randomness.finish_ns", per(total("entropy.randomness.finish"), battery.finishes)),
        ("ml.compiled.predict_ns", per(total("ml.compiled.predict"), predicts)),
        ("ml.compiled.predict_margin_ns", per(total("ml.compiled.predict_margin"), margins)),
    ];
    if scores > 0 {
        out.push(("ml.confidence.score_ns", per(total("ml.confidence.score"), scores)));
    }
    out.into_iter().map(|(name, v)| (name, vec![v])).collect()
}
