//! A paper-literal reference for the online classifier of Figure 1
//! (§4.5), diffed against the production [`Iustitia`] engine on random
//! netsim traces.
//!
//! The reference does everything the obvious way. Each pending flow
//! buffers its raw payload bytes. The header skip is decided over the
//! buffered bytes. The entropy vector is one one-shot
//! [`FeatureExtractor::extract`] over the classification window, the
//! label comes from the boxed [`NatureModel`], and the flow table is a
//! plain `HashMap`. Only the CDB and the header scanners are shared with
//! the production pipeline.
//!
//! The production engine streams payload into incremental feature
//! state, predicts through the compiled model, recycles flow state and
//! amortizes CDB and flow-table lookups over same-flow runs. None of
//! that may change the verdict sequence, the classification log, the
//! queue counters or the CDB churn the reference computes.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iustitia::cdb::{CdbConfig, ClassificationDatabase, FlowId};
use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{train_from_corpus, train_from_corpus_battery, ModelKind, NatureModel};
use iustitia::pipeline::{
    BatchPacket, ClassifiedFlow, HeaderPolicy, Iustitia, PipelineConfig, QueueCounters, Verdict,
};
use iustitia_corpus::{
    scan_application_header, strip_application_header, AppProtocol, FileClass, HeaderGenerator,
    HeaderScan,
};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{FiveTuple, Packet, TraceConfig, TraceGenerator};

/// One pending flow: its first `b + allowance` payload bytes, verbatim.
struct PendingFlow {
    data: Vec<u8>,
    /// Bytes to skip under the policies that fix it at flow creation.
    skip: usize,
    first_ts: f64,
    last_ts: f64,
    packets: u32,
}

struct Reference {
    config: PipelineConfig,
    model: NatureModel,
    extractor: FeatureExtractor,
    cdb: ClassificationDatabase,
    flows: HashMap<FlowId, PendingFlow>,
    rng: StdRng,
    queues: QueueCounters,
    log: Vec<ClassifiedFlow>,
    last_sweep: f64,
    /// Flows evicted by idle sweeps.
    swept: usize,
}

impl Reference {
    fn new(model: NatureModel, config: PipelineConfig) -> Self {
        let extractor =
            FeatureExtractor::new(config.widths.clone(), config.mode.clone(), config.seed)
                .with_battery(config.battery);
        Reference {
            cdb: ClassificationDatabase::new(config.cdb),
            // The production pipeline's random-skip stream, so both
            // draw the same skip for the same flow.
            rng: StdRng::seed_from_u64(config.seed ^ 0xDEFE45E),
            config,
            model,
            extractor,
            flows: HashMap::new(),
            queues: QueueCounters::default(),
            log: Vec::new(),
            last_sweep: f64::NEG_INFINITY,
            swept: 0,
        }
    }

    fn capacity(&self) -> usize {
        self.config.buffer_size + self.config.header_policy.allowance()
    }

    /// Where the classification window starts, once that is decided.
    fn header_end(&self, flow: &PendingFlow) -> Option<usize> {
        match self.config.header_policy {
            HeaderPolicy::StripKnown { t } => match scan_application_header(&flow.data) {
                HeaderScan::Resolved(_, offset) => Some(offset),
                HeaderScan::Unknown => Some(t),
                HeaderScan::NeedMore => None,
            },
            _ => Some(flow.skip),
        }
    }

    /// The `b` bytes the entropy vector is computed over.
    fn window<'a>(&self, flow: &'a PendingFlow) -> &'a [u8] {
        // A header still undecided at eviction is stripped as far as
        // the buffered bytes allow.
        let start = self.header_end(flow).unwrap_or_else(|| {
            strip_application_header(&flow.data)
                .map_or(self.config.header_policy.allowance(), |(_, offset)| offset)
        });
        let start = start.min(flow.data.len());
        let end = (start + self.config.buffer_size).min(flow.data.len());
        &flow.data[start..end]
    }

    /// Full: `b` window bytes past the header, or the whole buffer.
    fn is_full(&self, flow: &PendingFlow) -> bool {
        let len = flow.data.len();
        len >= self.capacity()
            || self
                .header_end(flow)
                .is_some_and(|start| len.saturating_sub(start) >= self.config.buffer_size)
    }

    fn process(&mut self, packet: &Packet) -> Verdict {
        let id = FlowId::of_tuple(&packet.tuple);
        let now = packet.timestamp;
        if now - self.last_sweep >= self.config.idle_timeout {
            if self.last_sweep.is_finite() {
                self.sweep_idle(now);
            }
            self.last_sweep = now;
        }
        if packet.flags.closes_flow() {
            self.cdb.remove_on_close(&id);
            if self.flows.contains_key(&id) {
                self.classify(id, now);
            }
            self.queues.passed_through += 1;
            return Verdict::Ignored;
        }
        if !packet.is_data() {
            self.queues.passed_through += 1;
            return Verdict::Ignored;
        }
        if let Some(label) = self.cdb.lookup(&id, now) {
            self.queues.forwarded[label.index()] += 1;
            return Verdict::Hit(label);
        }
        if !self.flows.contains_key(&id) {
            let skip = match self.config.header_policy {
                HeaderPolicy::None | HeaderPolicy::StripKnown { .. } => 0,
                HeaderPolicy::SkipThreshold { t } => t,
                HeaderPolicy::RandomSkip { t_max } => self.rng.gen_range(0..=t_max),
            };
            let flow =
                PendingFlow { data: Vec::new(), skip, first_ts: now, last_ts: now, packets: 0 };
            self.flows.insert(id, flow);
        }
        let capacity = self.capacity();
        let flow = self.flows.get_mut(&id).expect("flow was just ensured");
        flow.packets += 1;
        flow.last_ts = now;
        let room = capacity - flow.data.len();
        flow.data.extend_from_slice(&packet.payload[..room.min(packet.payload.len())]);
        self.queues.buffered += 1;
        if self.is_full(&self.flows[&id]) {
            return self.classify(id, now).map_or(Verdict::Ignored, Verdict::Classified);
        }
        Verdict::Buffering
    }

    fn sweep_idle(&mut self, now: f64) {
        let timeout = self.config.idle_timeout;
        let mut idle: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| now - f.last_ts > timeout)
            .map(|(id, _)| *id)
            .collect();
        idle.sort_unstable();
        self.swept += idle.len();
        for id in idle {
            self.classify(id, now);
        }
    }

    fn classify(&mut self, id: FlowId, now: f64) -> Option<FileClass> {
        let flow = self.flows.remove(&id)?;
        let window = self.window(&flow);
        if window.is_empty() {
            return None;
        }
        let label = self.model.predict(&self.extractor.extract(window));
        self.cdb.insert(id, label, now);
        self.queues.forwarded[label.index()] += u64::from(flow.packets);
        self.log.push(ClassifiedFlow {
            id,
            label,
            packets: flow.packets,
            fill_time: flow.last_ts - flow.first_ts,
            buffered_bytes: flow.data.len(),
            early_exit: false,
        });
        Some(label)
    }
}

fn model(b: usize, battery: bool) -> NatureModel {
    let corpus =
        iustitia_corpus::CorpusBuilder::new(61).files_per_class(30).size_range(1024, 4096).build();
    let train = if battery { train_from_corpus_battery } else { train_from_corpus };
    let method = TrainingMethod::Prefix { b };
    train(
        &corpus,
        &FeatureWidths::svm_selected(),
        method,
        FeatureMode::Exact,
        &ModelKind::paper_cart(),
        61,
    )
    .expect("balanced corpus")
}

/// A small netsim trace in which every other data flow's payload stream
/// starts with an application header, re-cut to the original packet
/// sizes so headers span packets.
fn trace(seed: u64) -> Vec<Packet> {
    let mut config = TraceConfig::small_test(seed);
    config.n_flows = 70;
    config.duration = 6.0;
    let mut packets: Vec<Packet> = TraceGenerator::new(config).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut streams: HashMap<FiveTuple, Vec<u8>> = HashMap::new();
    let mut seen: HashSet<FiveTuple> = HashSet::new();
    for packet in packets.iter_mut().filter(|p| p.is_data()) {
        if seen.insert(packet.tuple) && rng.gen_bool(0.5) {
            let protocol = AppProtocol::ALL[rng.gen_range(0..AppProtocol::ALL.len())];
            streams.insert(packet.tuple, HeaderGenerator::new(protocol).generate(&mut rng));
        }
        if let Some(stream) = streams.get_mut(&packet.tuple) {
            stream.extend_from_slice(&packet.payload);
            let rest = stream.split_off(packet.payload.len());
            packet.payload = std::mem::replace(stream, rest);
        }
    }
    packets
}

#[test]
fn production_pipeline_matches_paper_literal_reference() {
    let b = 64;
    let models = [model(b, false), model(b, true)];
    let policies = [
        HeaderPolicy::None,
        HeaderPolicy::StripKnown { t: 48 },
        HeaderPolicy::SkipThreshold { t: 24 },
        HeaderPolicy::RandomSkip { t_max: 40 },
    ];
    let (mut classified, mut forwarded, mut closes, mut expired, mut swept) = (0, 0, 0, 0, 0);
    for (p, policy) in policies.into_iter().enumerate() {
        for battery in [false, true] {
            for seed in 0..2u64 {
                let case = p as u64 * 4 + u64::from(battery) * 2 + seed;
                let mut rng = StdRng::seed_from_u64(case);
                let config = PipelineConfig {
                    buffer_size: b,
                    header_policy: policy,
                    battery,
                    idle_timeout: [0.2, 0.6, 5.0][rng.gen_range(0..3)],
                    cdb: CdbConfig {
                        reclassify_after: [None, Some(0.4)][rng.gen_range(0..2)],
                        purge_trigger: 16,
                        ..CdbConfig::default()
                    },
                    ..PipelineConfig::headline(case)
                };
                let model = models[usize::from(battery)].clone();
                let mut reference = Reference::new(model.clone(), config.clone());
                let mut production = Iustitia::new(model, config);

                // Random segments, half of them stable-sorted by flow
                // ID the way serve shards dispatch them.
                let mut packets = trace(case);
                let mut start = 0;
                while start < packets.len() {
                    let end = (start + rng.gen_range(1..48)).min(packets.len());
                    if rng.gen_bool(0.5) {
                        packets[start..end].sort_by_key(|p| FlowId::of_tuple(&p.tuple));
                    }
                    let segment = &packets[start..end];
                    let expected: Vec<Verdict> =
                        segment.iter().map(|p| reference.process(p)).collect();
                    let items: Vec<BatchPacket<'_>> =
                        segment.iter().map(BatchPacket::new).collect();
                    let mut verdicts = Vec::new();
                    production.process_batch(&items, &mut verdicts);
                    assert_eq!(verdicts, expected, "case {case}: packets {start}..{end}");
                    start = end;
                }
                let logged = reference.log.len();
                swept += reference.swept;
                assert_eq!(production.take_log(), reference.log, "case {case}: classification log");
                reference.log.clear();
                production.sweep_idle(f64::INFINITY);
                reference.sweep_idle(f64::INFINITY);
                assert_eq!(production.take_log(), reference.log, "case {case}: final sweep");
                assert_eq!(*production.queues(), reference.queues, "case {case}: queue counters");
                assert_eq!(
                    *production.cdb().stats(),
                    *reference.cdb.stats(),
                    "case {case}: CDB churn"
                );
                assert_eq!(production.pending_flows(), 0);

                classified += logged;
                forwarded += reference.queues.forwarded.iter().sum::<u64>();
                closes += reference.cdb.stats().removed_by_close;
                expired += reference.cdb.stats().removed_by_ttl;
            }
        }
    }
    // The traces must actually exercise every path being compared.
    assert!(classified > 500, "{classified} flows classified");
    assert!(forwarded > 1000, "{forwarded} packets forwarded");
    assert!(
        closes > 0 && expired > 0 && swept > 0,
        "{closes} closes, {expired} expiries, {swept} swept"
    );
}
