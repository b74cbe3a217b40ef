//! The three workloads, the model set-up each needs, and the inputs a
//! run generates from its seed: pre-encoded request frames plus the
//! reference pipeline's verdict for every flow.

use std::collections::HashMap;
use std::time::Instant;

use iustitia::cdb::FlowId;
use iustitia::features::{FeatureExtractor, FeatureMode, TrainingMethod};
use iustitia::model::{
    train_anytime_from_corpus, train_from_corpus, AnytimeModel, ModelKind, NatureModel,
};
use iustitia::pipeline::{AnytimeConfig, ClassifiedFlow, Iustitia, PipelineConfig, Verdict};
use iustitia_corpus::{CorpusBuilder, FileClass};
use iustitia_entropy::FeatureWidths;
use iustitia_netsim::{ContentMode, FiveTuple, Packet, TraceConfig, TraceGenerator};
use iustitia_serve::proto::write_frame;
use iustitia_serve::{Request, Server, ServerConfig};

/// Shard workers the server runs (the benchmark host's `nproc`).
pub const SHARDS: usize = 2;

/// Seed of the training corpus: the deployed model is the same in every
/// run; the workload seed only changes the traffic.
const MODEL_SEED: u64 = 33;

/// How the client offers packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// As fast as TCP accepts them.
    Flat,
    /// Open loop at a fixed rate, in packets per second.
    Rate(f64),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in results.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// Offered load.
    pub pace: Pace,
    /// `b = 2048` with the battery and the calibrated anytime policy,
    /// over the flow-churn trace shape; otherwise the paper's headline
    /// point over the small-test trace shape.
    pub churn: bool,
    /// Generate a new trace for every repetition. The churn trace is
    /// small enough that one trace decides its peak memory (the most
    /// flows ever pending at once), so a run samples several.
    pub trace_per_rep: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "headline_flat",
        why: "b=32 headline trace sent flat-out: decode, SHA-1, queue handoff and CDB hits dominate, in large batches",
        pace: Pace::Flat,
        churn: false,
        trace_per_rep: false,
    },
    Workload {
        name: "headline_paced",
        why: "same trace open-loop at 150k pkt/s: small batches and frequent wake-ups, so latency costs of batching show",
        pace: Pace::Rate(150_000.0),
        churn: false,
        trace_per_rep: false,
    },
    Workload {
        name: "churn_anytime",
        why: "b=2048 churn trace with battery and anytime exit at 40k pkt/s: entropy kernel, probes, predict and flow state dominate",
        pace: Pace::Rate(40_000.0),
        churn: true,
        trace_per_rep: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The trace this workload replays for `seed`.
    pub fn trace(&self, seed: u64) -> TraceConfig {
        let mut trace = TraceConfig::small_test(seed);
        trace.content = ContentMode::Realistic;
        if self.churn {
            // The `--flow-churn` shape: ~24 data packets and 4 KiB of
            // content per flow, arriving over 20 trace-seconds.
            trace.n_flows = 3_000;
            trace.duration = 20.0;
            trace.mean_data_packets = 24.0;
            trace.content_budget = 4096;
        } else {
            trace.n_flows = 40_000;
            trace.duration = 600.0;
        }
        trace
    }
}

/// A trained deployment: the model, its anytime companion, and the
/// pipeline configuration every shard and the reference use.
#[derive(Clone)]
pub struct Trained {
    /// The nature model.
    pub model: NatureModel,
    /// Calibrated anytime model (churn only).
    pub anytime: Option<AnytimeModel>,
    /// Pipeline configuration.
    pub config: PipelineConfig,
}

impl Trained {
    /// A fresh reference pipeline with this deployment.
    pub fn pipeline(&self) -> Iustitia {
        let mut p = Iustitia::new(self.model.clone(), self.config.clone());
        if let Some(anytime) = &self.anytime {
            p = p.with_anytime(anytime.clone());
        }
        p
    }
}

impl Trained {
    /// The label the deployment gives a flow classified from exactly
    /// `window` (what an idle sweep renders for a partial buffer).
    pub fn classify_prefix(&self, window: &[u8]) -> FileClass {
        let mut extractor = FeatureExtractor::new(
            self.config.widths.clone(),
            self.config.mode.clone(),
            self.config.seed,
        )
        .with_battery(self.config.battery);
        self.model.predict(&extractor.extract(window))
    }
}

/// Trains the workload's model (and calibrates the anytime policy).
pub fn train(w: &Workload) -> Trained {
    let widths = FeatureWidths::svm_selected();
    if w.churn {
        let b = 2048;
        let corpus =
            CorpusBuilder::new(MODEL_SEED).files_per_class(96).size_range(1024, 16384).build();
        let report = train_anytime_from_corpus(
            &corpus,
            &widths,
            b,
            FeatureMode::Exact,
            &ModelKind::paper_cart(),
            MODEL_SEED,
            true,
            0.01,
        )
        .expect("the generated corpus covers every class");
        let config = PipelineConfig {
            buffer_size: b,
            battery: true,
            anytime: Some(AnytimeConfig::calibrated(&report.anytime.confidence)),
            ..PipelineConfig::headline(MODEL_SEED)
        };
        Trained { model: report.model, anytime: Some(report.anytime), config }
    } else {
        let corpus =
            CorpusBuilder::new(MODEL_SEED).files_per_class(80).size_range(1024, 4096).build();
        let model = train_from_corpus(
            &corpus,
            &widths,
            TrainingMethod::Prefix { b: 32 },
            FeatureMode::Exact,
            &ModelKind::paper_cart(),
            MODEL_SEED,
        )
        .expect("the generated corpus covers every class");
        Trained { model, anytime: None, config: PipelineConfig::headline(MODEL_SEED) }
    }
}

/// The server configuration of every workload: 2 shards and queues
/// deep enough that a flat-out client on loopback is never refused.
pub fn server_config(trained: &Trained) -> ServerConfig {
    let mut config = ServerConfig::new(trained.config.clone());
    config.shards = SHARDS;
    config.queue_capacity = 1 << 14;
    config.anytime = trained.anytime.clone();
    config
}

/// One timed set-up: train, calibrate, compile, start the server.
pub fn set_up(w: &Workload) -> std::io::Result<(Trained, Server, f64)> {
    let start = Instant::now();
    let trained = train(w);
    let compiled = std::hint::black_box(trained.model.compile());
    drop(compiled);
    let server = Server::start("127.0.0.1:0", trained.model.clone(), server_config(&trained))?;
    Ok((trained, server, start.elapsed().as_secs_f64()))
}

/// Why a flow received its (first) verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// `b` window bytes arrived.
    Full,
    /// An anytime probe fired before `b` bytes.
    Early,
    /// A FIN/RST classified what the flow had.
    Close,
    /// An idle sweep, run while another packet was processed.
    Idle,
    /// The end-of-trace drain.
    Drain,
}

/// The reference pipeline's first verdict for one flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefVerdict {
    /// Assigned label.
    pub label: FileClass,
    /// Bytes buffered at the verdict.
    pub buffered_bytes: u32,
    /// What produced it.
    pub cause: Cause,
    /// Index of the packet whose processing produced it (the packet
    /// that completed the verdict's bytes, or the closing packet).
    pub trigger: Option<u32>,
}

/// Attributes one reference log entry, produced while processing a
/// packet of flow `this_flow`, to its cause. Returns the cause and
/// whether that packet triggered the verdict.
///
/// A verdict for the packet's own flow is `Full` or `Early` when the
/// packet was classified in place, `Close` when the packet closed the
/// flow; a verdict for any other flow came from the idle sweep the
/// packet happened to run.
pub fn attribute(
    this_flow: FlowId,
    closes: bool,
    verdict: Verdict,
    entry: &ClassifiedFlow,
) -> (Cause, bool) {
    if entry.id != this_flow {
        return (Cause::Idle, false);
    }
    match verdict {
        Verdict::Classified(_) if entry.early_exit => (Cause::Early, true),
        Verdict::Classified(_) => (Cause::Full, true),
        _ if closes => (Cause::Close, true),
        // The packet's own flow, swept idle by its own sweep-due
        // packet before the packet re-created the flow.
        _ => (Cause::Idle, false),
    }
}

/// What a run sends and what it expects back.
pub struct Prepared {
    /// Every `SubmitPacket` frame back to back, one per packet.
    pub frames: Vec<u8>,
    /// End offset in `frames` of each packet's frame.
    pub ends: Vec<usize>,
    /// Index of every data packet, in order.
    pub data_packets: Vec<u32>,
    /// Flow index of every tuple in the trace.
    pub flow_of: HashMap<FiveTuple, u32>,
    /// Ground-truth class per flow.
    pub truth: Vec<FileClass>,
    /// The reference's first verdict per flow (`None`: no verdict).
    pub reference: Vec<Option<RefVerdict>>,
    /// The first `b` payload bytes of each flow: the classification
    /// window every verdict of the flow is computed over a prefix of.
    pub window: Vec<Vec<u8>>,
    /// Flows that carry at least one data packet.
    pub data_flows: usize,
    /// Total reference verdicts (all flows, all causes).
    pub reference_verdicts: usize,
}

impl Prepared {
    /// Packets in the run.
    pub fn packets(&self) -> usize {
        self.ends.len()
    }
}

/// Generates the trace for `seed`, encodes its frames, and replays it
/// through an in-process reference pipeline.
pub fn prepare(w: &Workload, seed: u64, trained: &Trained) -> Prepared {
    let mut generator = TraceGenerator::new(w.trace(seed));
    let mut reference = trained.pipeline();
    let idle_timeout = trained.config.idle_timeout;
    let mut frames = Vec::new();
    let mut ends = Vec::new();
    let mut data_packets = Vec::new();
    let mut flow_of: HashMap<FiveTuple, u32> = HashMap::new();
    let mut flow_ids: HashMap<FlowId, u32> = HashMap::new();
    let mut first: Vec<Option<RefVerdict>> = Vec::new();
    let mut window: Vec<Vec<u8>> = Vec::new();
    let capacity = trained.config.buffer_size + trained.config.header_policy.allowance();
    let mut has_data: Vec<bool> = Vec::new();
    let mut reference_verdicts = 0usize;
    let mut last_t = 0.0f64;

    let record =
        |first: &mut Vec<Option<RefVerdict>>, flow: u32, entry: &ClassifiedFlow, cause, trigger| {
            let slot = &mut first[flow as usize];
            if slot.is_none() {
                *slot = Some(RefVerdict {
                    label: entry.label,
                    buffered_bytes: entry.buffered_bytes as u32,
                    cause,
                    trigger,
                });
            }
        };

    for (index, packet) in (&mut generator).enumerate() {
        let packet: Packet = packet;
        let next = flow_of.len() as u32;
        let flow = *flow_of.entry(packet.tuple).or_insert(next);
        let id = FlowId::of_tuple(&packet.tuple);
        if flow == next {
            flow_ids.insert(id, flow);
            first.push(None);
            window.push(Vec::new());
            has_data.push(false);
        }
        let f = flow as usize;
        let room = capacity.saturating_sub(window[f].len()).min(packet.payload.len());
        window[f].extend_from_slice(&packet.payload[..room]);
        has_data[f] |= packet.is_data();
        if packet.is_data() {
            data_packets.push(index as u32);
        }
        last_t = last_t.max(packet.timestamp);

        let closes = packet.flags.closes_flow();
        let verdict = reference.process_packet(&packet);
        let log = reference.take_log();
        // Only the packet's last verdict for its own flow can be the one
        // it completed; an earlier one came from the sweep it ran.
        let own_last = log.iter().rposition(|e| e.id == id);
        for (i, entry) in log.iter().enumerate() {
            reference_verdicts += 1;
            let (cause, triggered) = if Some(i) == own_last {
                attribute(id, closes, verdict, entry)
            } else {
                attribute(id, false, Verdict::Buffering, entry)
            };
            if let Some(&owner) = flow_ids.get(&entry.id) {
                record(&mut first, owner, entry, cause, triggered.then_some(index as u32));
            }
        }

        let (t, body) = Request::SubmitPacket(packet).encode().expect("trace packets fit a frame");
        write_frame(&mut frames, t, &body).expect("writing to a Vec cannot fail");
        ends.push(frames.len());
    }
    reference.sweep_idle(last_t + idle_timeout + 1.0);
    for entry in reference.take_log() {
        reference_verdicts += 1;
        if let Some(&owner) = flow_ids.get(&entry.id) {
            record(&mut first, owner, &entry, Cause::Drain, None);
        }
    }

    let mut truth = vec![FileClass::Text; first.len()];
    for (tuple, class) in generator.ground_truth() {
        if let Some(&flow) = flow_of.get(tuple) {
            truth[flow as usize] = *class;
        }
    }
    let data_flows = has_data.iter().filter(|&&d| d).count();
    Prepared {
        frames,
        ends,
        data_packets,
        flow_of,
        truth,
        reference: first,
        window,
        data_flows,
        reference_verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iustitia_netsim::FiveTuple;
    use std::net::Ipv4Addr;

    fn flow(n: u8) -> FlowId {
        FlowId::of_tuple(&FiveTuple::udp(
            Ipv4Addr::new(10, 0, 0, n),
            1000,
            Ipv4Addr::new(10, 0, 0, 99),
            80,
        ))
    }

    fn entry(id: FlowId, early_exit: bool) -> ClassifiedFlow {
        ClassifiedFlow {
            id,
            label: FileClass::Binary,
            packets: 3,
            fill_time: 0.5,
            buffered_bytes: 32,
            early_exit,
        }
    }

    #[test]
    fn classified_packet_triggers_its_own_verdict() {
        let c = Verdict::Classified(FileClass::Binary);
        assert_eq!(attribute(flow(1), false, c, &entry(flow(1), false)), (Cause::Full, true));
        assert_eq!(attribute(flow(1), false, c, &entry(flow(1), true)), (Cause::Early, true));
    }

    #[test]
    fn closing_packet_triggers_a_close_verdict() {
        let entry = entry(flow(1), false);
        assert_eq!(attribute(flow(1), true, Verdict::Ignored, &entry), (Cause::Close, true));
    }

    #[test]
    fn other_flows_verdicts_are_idle_sweeps() {
        let c = Verdict::Classified(FileClass::Binary);
        assert_eq!(attribute(flow(1), false, c, &entry(flow(2), false)), (Cause::Idle, false));
        assert_eq!(
            attribute(flow(1), true, Verdict::Ignored, &entry(flow(2), false)),
            (Cause::Idle, false)
        );
        // The packet's own flow swept by the packet's own sweep, then
        // re-created by it: the packet did not complete that verdict.
        assert_eq!(
            attribute(flow(1), false, Verdict::Buffering, &entry(flow(1), false)),
            (Cause::Idle, false)
        );
    }
}
