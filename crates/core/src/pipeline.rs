//! The online classification pipeline of Figure 1.
//!
//! Per packet: hash the header into a flow ID, look the flow up in the
//! [CDB](crate::cdb); on a hit, forward to the flow's output queue.
//! Otherwise fold the payload into the flow's *incremental feature
//! state*; once `b` classification-window bytes have streamed through —
//! or the flow goes idle — finish the entropy vector, classify, store
//! the label in the CDB, and drain the flow to the right queue. FIN/RST
//! packets remove CDB records.
//!
//! Pending flows do **not** hold their payload: a flow buffers raw
//! bytes only while the [`HeaderPolicy`] skip/strip decision is still
//! unresolved (bounded by the buffer capacity, and only under
//! [`HeaderPolicy::StripKnown`]). Once resolved, per-flow heap is the
//! feature state alone — O(distinct grams) in exact mode, the fixed
//! `g·z` sketch in estimated mode — independent of `b`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iustitia_corpus::{scan_application_header, strip_application_header, FileClass, HeaderScan};
use iustitia_netsim::Packet;

use crate::cdb::{CdbConfig, ClassificationDatabase, FlowId};
use crate::features::{FeatureExtractor, FeatureMode, FlowFeatureState};
use crate::model::{AnytimeModel, CompiledNatureModel, NatureModel};
use iustitia_entropy::FeatureWidths;
use iustitia_ml::ConfidenceModel;

/// How application-layer headers are handled before classification
/// (§4.3 and the §4.6 padding defense).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum HeaderPolicy {
    /// Classify from the first payload byte (header-free deployments:
    /// FTP-data, most P2P transfer flows).
    None,
    /// Strip recognized HTTP/SMTP/POP3/IMAP headers by signature; for
    /// unrecognized flows fall back to skipping `t` bytes (the paper's
    /// threshold `T` policy for unknown headers).
    StripKnown {
        /// Fallback threshold `T` for unknown applications.
        t: usize,
    },
    /// Always treat byte `t + 1` as the start of the flow.
    SkipThreshold {
        /// Threshold `T`.
        t: usize,
    },
    /// Defense: skip a *random* number of bytes in `[0, t_max]` so an
    /// attacker cannot know which bytes will be classified.
    RandomSkip {
        /// Maximum skip `T`.
        t_max: usize,
    },
}

impl HeaderPolicy {
    /// Extra bytes that must be buffered beyond `b` to cover the
    /// largest possible header/skip.
    pub fn allowance(&self) -> usize {
        match *self {
            HeaderPolicy::None => 0,
            HeaderPolicy::StripKnown { t } => t,
            HeaderPolicy::SkipThreshold { t } => t,
            HeaderPolicy::RandomSkip { t_max } => t_max,
        }
    }
}

/// Anytime early-exit policy: when present (and an
/// [`AnytimeModel`] is attached via
/// [`Iustitia::with_anytime`]), the pipeline probes each buffering
/// flow's partial feature vector after qualifying packets and emits a
/// verdict as soon as the confidence score clears `threshold` —
/// instead of always waiting for `b` bytes. The `fed >= b` rule stays
/// as the fallback cap, so flows that never look confident classify
/// exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnytimeConfig {
    /// Emission threshold on the combined confidence score (scores are
    /// clamped to `[0, 1]`, so
    /// [`ANYTIME_THRESHOLD_DISABLED`](crate::model::ANYTIME_THRESHOLD_DISABLED)
    /// keeps probes running but never firing).
    pub threshold: f64,
    /// Do not probe before this many classification-window bytes have
    /// been fed (below the first centroid stage the score would be an
    /// extrapolation).
    pub min_bytes: usize,
    /// Minimum newly fed bytes between consecutive probes of one flow,
    /// bounding probe cost on flows of tiny packets.
    pub probe_stride: usize,
}

impl AnytimeConfig {
    /// An operating point taken from a calibrated model: its threshold,
    /// probing from the first fitted centroid stage, with a default
    /// 64-byte stride (each probe re-finishes the feature vector, so
    /// the stride is the knob trading verdict latency for probe cost).
    pub fn calibrated(confidence: &ConfidenceModel) -> Self {
        AnytimeConfig {
            threshold: confidence.threshold(),
            min_bytes: confidence.min_stage_bytes() as usize,
            probe_stride: 64,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PipelineConfig {
    /// Classification buffer size `b` in bytes (paper: 32 for
    /// header-free flows, 1024+ with header handling).
    pub buffer_size: usize,
    /// Entropy-vector feature widths (must match the trained model).
    pub widths: FeatureWidths,
    /// Exact or `(δ,ε)`-estimated features.
    pub mode: FeatureMode,
    /// Header handling.
    pub header_policy: HeaderPolicy,
    /// CDB policy.
    pub cdb: CdbConfig,
    /// Classify a partially filled buffer after this much idle time
    /// (the paper classifies "when the buffer of a flow is full" or
    /// "stops receiving packets for a certain period").
    pub idle_timeout: f64,
    /// RNG seed (random skip offsets, estimator sampling).
    pub seed: u64,
    /// Append the randomness-test battery to every feature vector (the
    /// compressed-vs-encrypted discriminator; must match the trained
    /// model's feature set).
    pub battery: bool,
    /// Anytime early-exit policy; `None` (the default) reproduces the
    /// fixed-`b` pipeline bit for bit — no probes run at all.
    pub anytime: Option<AnytimeConfig>,
}

impl PipelineConfig {
    /// The paper's headline operating point: `b = 32`, exact entropy
    /// vectors over `φ′_SVM`, no header handling, no battery (the
    /// paper's 3-class feature set).
    pub fn headline(seed: u64) -> Self {
        PipelineConfig {
            buffer_size: 32,
            widths: FeatureWidths::svm_selected(),
            mode: FeatureMode::Exact,
            header_policy: HeaderPolicy::None,
            cdb: CdbConfig::default(),
            idle_timeout: 5.0,
            seed,
            battery: false,
            anytime: None,
        }
    }
}

/// One packet of a batch, paired with its precomputed flow ID.
///
/// The serve layer resolves flow IDs on its reactor thread, so the
/// shard-side batch path should not redo the SHA-1 per packet;
/// [`FlowId::of_tuple`] is deterministic, so precomputing the ID
/// changes no verdict.
#[derive(Debug, Clone, Copy)]
pub struct BatchPacket<'a> {
    /// SHA-1 flow ID of `packet.tuple`.
    pub flow: FlowId,
    /// The packet itself.
    pub packet: &'a Packet,
}

impl<'a> BatchPacket<'a> {
    /// Pairs a packet with its computed flow ID.
    pub fn new(packet: &'a Packet) -> Self {
        BatchPacket { flow: FlowId::of_tuple(&packet.tuple), packet }
    }
}

/// What the pipeline did with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// CDB hit — forwarded straight to the labeled queue.
    Hit(FileClass),
    /// Unknown flow, payload buffered, classification pending.
    Buffering,
    /// This packet completed the buffer; the flow was classified now.
    Classified(FileClass),
    /// Control packet (no payload) or close signal — passed through.
    Ignored,
}

/// A completed per-flow classification, with the delay-analysis
/// quantities of §4.5 (`c` packets to fill the buffer, `τ_b` fill
/// time).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassifiedFlow {
    /// Flow ID.
    pub id: FlowId,
    /// Assigned label.
    pub label: FileClass,
    /// Number of data packets needed to fill the buffer (`c`).
    pub packets: u32,
    /// Buffer fill time `τ_b` (first data packet → classification).
    pub fill_time: f64,
    /// Bytes that were in the buffer when classified.
    pub buffered_bytes: usize,
    /// Whether an anytime probe emitted this verdict before the
    /// fixed-`b` buffer filled.
    pub early_exit: bool,
}

/// Where a pending flow is in its lifecycle.
// The Streaming variant inlines the whole feature state (histograms +
// battery accumulators) on purpose: states cycle through the flow pool
// by value, and an indirection here would put an allocation back on
// the recycled-flow path the pool exists to keep allocation-free.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum FlowStage {
    /// Raw prefix retained verbatim until the header skip/strip
    /// decision resolves (only [`HeaderPolicy::StripKnown`] flows pass
    /// through this stage; it is bounded by the buffer capacity).
    Staging(Vec<u8>),
    /// Header decision resolved: payload streams straight into the
    /// incremental feature state, nothing is retained.
    Streaming(Stream),
}

/// The feature session of a flow whose header decision has resolved.
#[derive(Debug)]
struct Stream {
    /// Per-flow incremental feature session.
    features: FlowFeatureState,
    /// Classification-window bytes fed so far (`≤ b`).
    fed: usize,
    /// Header/skip bytes still to discard before feeding.
    skip_remaining: usize,
    /// `fed` as of the last anytime probe (0 before any probe); gates
    /// the probe stride. Stays 0 when anytime is off.
    probed: usize,
    /// Label the previous anytime probe predicted, if any: the patience
    /// rule only emits a verdict when two consecutive probes agree.
    /// Stays `None` when anytime is off.
    last_probe: Option<FileClass>,
}

impl Stream {
    /// Discards `skip_remaining` leading bytes of `chunk`, then feeds
    /// up to the remaining classification window into the feature state.
    fn feed(&mut self, mut chunk: &[u8], b: usize) {
        if self.skip_remaining > 0 {
            let skipped = self.skip_remaining.min(chunk.len());
            self.skip_remaining -= skipped;
            // lint: allow(L008) — skipped <= chunk.len() by the min() above
            chunk = &chunk[skipped..];
        }
        let take = b.saturating_sub(self.fed).min(chunk.len());
        if take > 0 {
            // lint: allow(L008) — take <= chunk.len() by the min() above
            self.features.update(&chunk[..take]);
            self.fed += take;
        }
    }
}

/// Free list of feature states from closed flows: new flows reset and
/// reuse these instead of allocating, so steady-state packet processing
/// touches the allocator only while the pool is warming.
#[derive(Debug, Default)]
struct StatePool {
    free: Vec<FlowFeatureState>,
    /// Number of flows whose feature state came from the pool.
    hits: u64,
}

impl StatePool {
    /// Starts a stream that skips `skip` bytes, on a feature state from
    /// the free list (reset) or a fresh one.
    fn stream(&mut self, extractor: &FeatureExtractor, b: usize, skip: usize) -> Stream {
        let features = match self.free.pop() {
            Some(mut state) => {
                extractor.reset_flow(&mut state, b);
                self.hits += 1;
                state
            }
            None => extractor.begin_flow(b),
        };
        Stream { features, fed: 0, skip_remaining: skip, probed: 0, last_probe: None }
    }

    /// Returns a closed flow's feature state to the free list.
    fn recycle(&mut self, state: FlowFeatureState) {
        if self.free.len() < MAX_POOLED_STATES {
            self.free.push(state);
        }
    }
}

/// Reused buffers for finishing feature vectors, so steady-state
/// classification and anytime probes never allocate.
#[derive(Debug, Default)]
struct Scratch {
    /// The finished feature vector of the flow being classified.
    features: Vec<f64>,
    /// Exact-histogram count sorting inside feature finishes (see
    /// `GramHistogram::sum_m_log_m_with`).
    counts: Vec<u64>,
    /// The estimated sketches' per-finish median buffers (see
    /// `FlowFeatureState::finish_into_with`).
    means: Vec<f64>,
}

#[derive(Debug)]
struct FlowBuffer {
    stage: FlowStage,
    first_ts: f64,
    last_ts: f64,
    packets: u32,
    /// Payload bytes observed for this flow, saturating at the buffer
    /// capacity (the old `data.len()`; still reported as
    /// `buffered_bytes` for the §4.5 delay analysis).
    seen: usize,
}

impl FlowBuffer {
    /// Estimated heap resident for this flow: staged raw bytes, or the
    /// feature state's counter footprint once streaming.
    fn resident_bytes(&self) -> usize {
        match &self.stage {
            FlowStage::Staging(staged) => staged.len(),
            FlowStage::Streaming(stream) => stream.features.resident_bytes(),
        }
    }
}

/// Throughput counters for the per-class output queues plus
/// pass-through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct QueueCounters {
    /// Data packets forwarded per class queue
    /// `[text, binary, encrypted, compressed]`.
    pub forwarded: [u64; 4],
    /// Data packets held in flow buffers awaiting classification.
    pub buffered: u64,
    /// Control/close packets passed through unclassified.
    pub passed_through: u64,
}

/// The Iustitia online classifier (Figure 1's left half).
///
/// # Examples
///
/// ```
/// use iustitia::features::{FeatureMode, TrainingMethod};
/// use iustitia::model::{train_from_corpus, ModelKind};
/// use iustitia::pipeline::{Iustitia, PipelineConfig, Verdict};
/// use iustitia_corpus::CorpusBuilder;
/// use iustitia_entropy::FeatureWidths;
/// use iustitia_netsim::{FiveTuple, Packet, TcpFlags};
/// use std::net::Ipv4Addr;
///
/// // Offline: train on 32-byte prefixes of a labeled corpus.
/// let corpus = CorpusBuilder::new(1).files_per_class(20).size_range(512, 2048).build();
/// let model = train_from_corpus(
///     &corpus,
///     &FeatureWidths::svm_selected(),
///     TrainingMethod::Prefix { b: 32 },
///     FeatureMode::Exact,
///     &ModelKind::paper_cart(),
///     1,
/// )
/// .expect("balanced corpus");
/// let mut iustitia = Iustitia::new(model, PipelineConfig::headline(1));
///
/// // Online: the first data packet already carries ≥ 32 bytes.
/// let tuple = FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), 9999, Ipv4Addr::new(10, 0, 0, 2), 443);
/// let packet = Packet {
///     timestamp: 0.0,
///     tuple,
///     flags: TcpFlags::ACK,
///     payload: b"the cat sat on the mat and then sat again onward".to_vec(),
/// };
/// assert!(matches!(iustitia.process_packet(&packet), Verdict::Classified(_)));
/// ```
#[derive(Debug)]
pub struct Iustitia {
    config: PipelineConfig,
    model: NatureModel,
    /// The model's compiled inference form (flattened tree / packed
    /// shared support vectors); every verdict comes from this path.
    compiled: CompiledNatureModel,
    cdb: ClassificationDatabase,
    buffers: HashMap<FlowId, FlowBuffer>,
    extractor: FeatureExtractor,
    rng: StdRng,
    queues: QueueCounters,
    log: Vec<ClassifiedFlow>,
    /// Running sum of every pending flow's [`FlowBuffer::resident_bytes`].
    resident: usize,
    /// Timestamp of the last opportunistic idle sweep.
    last_sweep: f64,
    pool: StatePool,
    scratch: Scratch,
    /// Scratch verdict buffer for the batch-of-one
    /// [`process_packet`](Self::process_packet) wrapper, so the wrapper
    /// stays allocation-free once warm.
    verdict_scratch: Vec<Verdict>,
    /// Calibrated anytime model (confidence stages plus per-stage
    /// nature models); probes only run when both this and
    /// [`PipelineConfig::anytime`] are present.
    anytime_model: Option<AnytimeModel>,
    /// The anytime model's per-stage nature models in compiled form,
    /// ascending in bytes (compiled once when the model is attached).
    /// Probes predict with the stage fitted nearest below the bytes
    /// fed — the full-`b` model is near chance on small prefixes.
    anytime_compiled: Vec<(u64, CompiledNatureModel)>,
    /// Verdicts emitted by anytime probes before the buffer filled.
    early_exits: u64,
}

/// Whether `p` may join a phase of `flow`: a same-flow data packet with
/// certainly no idle sweep due (a NaN comparison ends the phase, which
/// is always safe: the next phase re-resolves the packet from scratch).
fn joins(p: &BatchPacket<'_>, flow: FlowId, last_sweep: f64, idle_timeout: f64) -> bool {
    p.flow == flow
        && p.packet.is_data()
        && !p.packet.flags.closes_flow()
        && p.packet.timestamp - last_sweep < idle_timeout
}

/// Upper bound on pooled [`FlowFeatureState`]s, so a burst of
/// concurrent flows cannot pin its high-water mark of histogram tables
/// forever. 256 comfortably covers the steady-state pending-flow count
/// of every bench/serve configuration while capping worst-case retained
/// memory.
const MAX_POOLED_STATES: usize = 256;

impl Iustitia {
    /// Builds a pipeline around a trained model.
    pub fn new(model: NatureModel, config: PipelineConfig) -> Self {
        let extractor =
            FeatureExtractor::new(config.widths.clone(), config.mode.clone(), config.seed)
                .with_battery(config.battery);
        let cdb = ClassificationDatabase::new(config.cdb);
        let rng = StdRng::seed_from_u64(config.seed ^ 0xDEFE45E);
        let compiled = model.compile();
        Iustitia {
            config,
            model,
            compiled,
            cdb,
            buffers: HashMap::new(),
            extractor,
            rng,
            queues: QueueCounters::default(),
            log: Vec::new(),
            resident: 0,
            last_sweep: f64::NEG_INFINITY,
            pool: StatePool::default(),
            scratch: Scratch::default(),
            verdict_scratch: Vec::new(),
            anytime_model: None,
            anytime_compiled: Vec::new(),
            early_exits: 0,
        }
    }

    /// Attaches a calibrated anytime model (confidence stages plus
    /// per-stage nature models), compiling the stage models once.
    /// Probes only run when [`PipelineConfig::anytime`] is also set;
    /// attaching a model without it changes nothing.
    pub fn with_anytime(mut self, anytime: AnytimeModel) -> Self {
        self.anytime_compiled =
            anytime.stage_models().iter().map(|s| (s.bytes, s.model.compile())).collect();
        self.anytime_model = Some(anytime);
        self
    }

    /// Probes one buffering flow's partial feature vector once the
    /// policy's floor and stride allow: finish it into scratch, predict
    /// with margin using the stage model fitted nearest below `fed`,
    /// score against the centroid stages, and return the label when the
    /// score clears the threshold AND the previous probe of this flow
    /// predicted the same label (the patience rule: two consecutive
    /// agreeing probes, so a single unstable early prediction can never
    /// classify the flow). An associated function over disjoint fields,
    /// so the flow-table entry borrow can stay live at the call site;
    /// allocation-free once the scratch buffers are warm.
    fn probe_anytime(
        policy: &AnytimeConfig,
        confidence: &ConfidenceModel,
        stages: &mut [(u64, CompiledNatureModel)],
        stream: &mut Stream,
        scratch: &mut Scratch,
    ) -> Option<FileClass> {
        let fed = stream.fed;
        if fed < policy.min_bytes || fed - stream.probed < policy.probe_stride {
            return None;
        }
        stream.probed = fed;
        // The stage fitted nearest below `fed` bytes (the first when
        // `fed` undershoots them all), mirroring the centroid stage
        // selection inside `ConfidenceModel::score`.
        let mut idx = 0;
        for (i, (bytes, _)) in stages.iter().enumerate() {
            if *bytes <= fed as u64 {
                idx = i;
            } else {
                break;
            }
        }
        let (_, stage) = stages.get_mut(idx)?;
        stream.features.finish_into_with(
            &mut scratch.features,
            &mut scratch.counts,
            &mut scratch.means,
        );
        let (label, margin) = stage.try_predict_with_margin(&scratch.features).ok()?;
        let agreed = stream.last_probe == Some(label);
        stream.last_probe = Some(label);
        if !agreed {
            return None;
        }
        let score = confidence.score(&scratch.features, fed as u64, label.index(), margin);
        (score >= policy.threshold).then_some(label)
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The trained model behind this pipeline. Verdicts come from its
    /// compiled form, built once at construction; the boxed original is
    /// kept for serialization and introspection.
    pub fn model(&self) -> &NatureModel {
        &self.model
    }

    /// The classification database (read access for monitoring).
    pub fn cdb(&self) -> &ClassificationDatabase {
        &self.cdb
    }

    /// Output-queue counters.
    pub fn queues(&self) -> &QueueCounters {
        &self.queues
    }

    /// Number of flows currently buffering (pre-classification).
    pub fn pending_flows(&self) -> usize {
        self.buffers.len()
    }

    /// Whether `flow` is buffering, i.e. its verdict is still owed.
    pub fn is_pending(&self, flow: &FlowId) -> bool {
        self.buffers.contains_key(flow)
    }

    /// Estimated heap bytes resident across all pending flows' feature
    /// state and header staging buffers (maintained incrementally; the
    /// quantity the §4.4 estimation trades against).
    pub fn resident_feature_bytes(&self) -> usize {
        self.resident
    }

    /// Number of flows whose feature state was recycled from the pool
    /// instead of freshly allocated (a steady-state pipeline trends
    /// toward `pool_hits ≈ flows classified`).
    pub fn state_pool_hits(&self) -> u64 {
        self.pool.hits
    }

    /// Feature states currently parked on the free list.
    pub fn state_pool_size(&self) -> usize {
        self.pool.free.len()
    }

    /// Number of verdicts emitted by anytime probes before the
    /// fixed-`b` buffer filled (0 whenever anytime is off).
    pub fn early_exit_verdicts(&self) -> u64 {
        self.early_exits
    }

    /// Drains the per-flow classification log (each entry carries the
    /// `c` and `τ_b` quantities of the delay analysis).
    pub fn take_log(&mut self) -> Vec<ClassifiedFlow> {
        std::mem::take(&mut self.log)
    }

    /// Total bytes to buffer before classifying: `b` plus the header
    /// allowance.
    pub fn buffer_capacity(&self) -> usize {
        self.config.buffer_size + self.config.header_policy.allowance()
    }

    /// Processes one packet, returning what happened to it.
    ///
    /// This is the batch-of-one wrapper around
    /// [`process_batch`](Self::process_batch): a single-element batch
    /// walks exactly the same code as a large one, so every per-packet
    /// test exercises the batch path and the zero-alloc steady-state
    /// guarantee extends to it.
    pub fn process_packet(&mut self, packet: &Packet) -> Verdict {
        let mut verdicts = std::mem::take(&mut self.verdict_scratch);
        self.process_batch(&[BatchPacket::new(packet)], &mut verdicts);
        // `process_batch` pushes exactly one verdict per input packet,
        // so a batch of one always yields exactly one; the
        // `unwrap_or` fallback below is unreachable and exists only to
        // keep this hot path free of a panicking branch.
        debug_assert_eq!(verdicts.len(), 1, "batch-of-one must yield exactly one verdict");
        let verdict = verdicts.pop().unwrap_or(Verdict::Ignored);
        self.verdict_scratch = verdicts;
        verdict
    }

    /// Processes a batch of packets in order, pushing exactly one
    /// verdict per packet into `verdicts` (cleared first).
    ///
    /// Every packet goes through the one ingest step of Figure 1
    /// ([`Self::ingest`]). Consecutive same-flow data packets share a
    /// *phase*: its CDB record or flow-table entry is resolved once
    /// instead of once per packet, and payload slices stream
    /// back-to-back into the same feature state.
    ///
    /// **Bit-identity invariant:** for any batch, the verdict sequence,
    /// every gauge and counter, the CDB contents, and the classification
    /// log are bit-for-bit what sequential
    /// [`process_packet`](Self::process_packet) calls over the same
    /// packets would produce. A phase only elides hash-map
    /// re-resolutions whose outcomes are provably unchanged within it:
    /// repeated CDB misses while a flow is buffering have no side
    /// effects, and repeated hits mutate only the record the phase
    /// already holds. A packet with an idle sweep due or an expired CDB
    /// record starts a new phase, which resolves it from scratch.
    pub fn process_batch(&mut self, batch: &[BatchPacket<'_>], verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        // lint: allow(L009) — caller-owned scratch: grows once to the largest batch seen, then reused
        verdicts.reserve(batch.len());
        let mut rest = batch;
        while let Some((first, tail)) = rest.split_first() {
            let joined = self.ingest(first, tail, verdicts);
            rest = tail.get(joined..).unwrap_or_default();
        }
    }

    /// The per-flow state machine of Figure 1, run for one phase of
    /// `first`'s flow: a due idle sweep, then close or control
    /// pass-through, a CDB hit, or buffering through header staging, the
    /// full-`b` check and the anytime probe. Same-flow data packets at
    /// the head of `tail` join the phase while no sweep falls due; a
    /// buffering phase ends at the flow's verdict. Pushes one verdict
    /// per packet and returns how many packets of `tail` joined.
    fn ingest(
        &mut self,
        first: &BatchPacket<'_>,
        tail: &[BatchPacket<'_>],
        verdicts: &mut Vec<Verdict>,
    ) -> usize {
        let (flow, now) = (first.flow, first.packet.timestamp);
        let idle_timeout = self.config.idle_timeout;

        // Opportunistic idle sweep, at most once per idle_timeout: the
        // configured timeout is enforced even when nobody calls
        // `sweep_idle` explicitly, so stalled flows cannot pin their
        // state forever.
        if now - self.last_sweep >= idle_timeout {
            if self.last_sweep.is_finite() {
                self.sweep_idle(now);
            }
            self.last_sweep = now;
        }

        let closes = first.packet.flags.closes_flow();
        if closes {
            self.cdb.remove_on_close(&flow);
            // A close while still buffering classifies what we have.
            if self.buffers.contains_key(&flow) {
                self.classify_flow(flow, now, None);
            }
        }
        if closes || !first.packet.is_data() {
            self.queues.passed_through += 1;
            // lint: allow(L009) — within the capacity reserved by process_batch
            verdicts.push(Verdict::Ignored);
            return 0;
        }

        let last_sweep = self.last_sweep;

        // --- Hit phase: the flow is already classified. Joining packets
        // refresh the held record in place — the `lookup` body minus the
        // re-hash; the label cannot change while the record lives.
        if let Some(label) = self.cdb.lookup(&flow, now) {
            let ttl = self.config.cdb.reclassify_after;
            let mut joined = 0;
            if let Some(rec) = self.cdb.record_mut(&flow) {
                for p in tail {
                    let t = p.packet.timestamp;
                    // Expired: the next phase's `lookup` removes the
                    // record and counts the eviction.
                    let expired = ttl.is_some_and(|ttl| t - rec.classified_at > ttl);
                    if expired || !joins(p, flow, last_sweep, idle_timeout) {
                        break;
                    }
                    rec.last_iat = Some((t - rec.last_seen).max(0.0));
                    rec.last_seen = t;
                    joined += 1;
                }
            }
            // lint: allow(L008) — forwarded has FileClass::ALL.len() slots; label.index() is always in range
            self.queues.forwarded[label.index()] += 1 + joined as u64;
            for _ in 0..=joined {
                // lint: allow(L009) — within the capacity reserved by process_batch
                verdicts.push(Verdict::Hit(label));
            }
            return joined;
        }

        // --- Buffering phase: resolve the flow-table entry once and
        // stream joining packets into the same state. While a flow is
        // buffering it has no CDB record (inserts only happen at
        // classification, which evicts the buffer), so the per-packet
        // lookups elided here would all miss with zero side effects.
        let b = self.config.buffer_size;
        let capacity = self.buffer_capacity();
        let policy = self.config.header_policy;
        let buf = match self.buffers.entry(flow) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                // Every policy except StripKnown knows its skip up
                // front, so those flows stream from the first byte and
                // never stage payload.
                let skip = match policy {
                    HeaderPolicy::None => Some(0),
                    HeaderPolicy::StripKnown { .. } => None,
                    HeaderPolicy::SkipThreshold { t } => Some(t),
                    // lint: allow(L008) — 0..=t_max is an inclusive range, never empty
                    HeaderPolicy::RandomSkip { t_max } => Some(self.rng.gen_range(0..=t_max)),
                };
                let stage = match skip {
                    None => FlowStage::Staging(Vec::new()),
                    Some(skip) => FlowStage::Streaming(self.pool.stream(&self.extractor, b, skip)),
                };
                let buf = v.insert(FlowBuffer {
                    stage,
                    first_ts: now,
                    last_ts: now,
                    packets: 0,
                    seen: 0,
                });
                // A fresh estimated-mode flow allocates its sketch
                // trackers up front: its whole footprint is new.
                self.resident += buf.resident_bytes();
                buf
            }
        };

        let mut joined = 0;
        let mut packet = first.packet;
        loop {
            let t = packet.timestamp;
            buf.packets += 1;
            buf.last_ts = t;
            self.queues.buffered += 1;
            let before = buf.resident_bytes();
            let room = capacity.saturating_sub(buf.seen);
            // lint: allow(L008) — slice end is min'd with payload.len()
            let intake = &packet.payload[..room.min(packet.payload.len())];
            buf.seen += intake.len();
            match &mut buf.stage {
                FlowStage::Staging(staging) => {
                    // lint: allow(L009) — staging buffers only the bounded pre-resolution prefix (see L006), once per flow
                    staging.extend_from_slice(intake);
                    let skip = match scan_application_header(staging) {
                        HeaderScan::Resolved(_, offset) => Some(offset),
                        // Unknown application: the threshold-T
                        // fallback is now final too.
                        HeaderScan::Unknown => Some(policy.allowance()),
                        HeaderScan::NeedMore => None,
                    };
                    if let Some(skip) = skip {
                        let staged = std::mem::take(staging);
                        let mut stream = self.pool.stream(&self.extractor, b, skip);
                        stream.feed(&staged, b);
                        buf.stage = FlowStage::Streaming(stream);
                    }
                }
                FlowStage::Streaming(stream) => stream.feed(intake, b),
            }
            self.resident = self.resident - before + buf.resident_bytes();

            // Full at `b` window bytes. A resolved header longer than
            // the allowance can leave fewer than `b` window bytes in the
            // first `capacity` payload bytes; `seen >= capacity`
            // classifies those flows (and still-staging ones) from what
            // fits.
            if buf.seen >= capacity || matches!(&buf.stage, FlowStage::Streaming(s) if s.fed >= b) {
                let verdict =
                    self.classify_flow(flow, t, None).map_or(Verdict::Ignored, Verdict::Classified);
                // lint: allow(L009) — within the capacity reserved by process_batch
                verdicts.push(verdict);
                return joined;
            }
            // Anytime probe: a confident partial vector classifies the
            // flow now instead of waiting for the full-`b` cap above.
            if let (Some(any), Some(model), FlowStage::Streaming(stream)) =
                (&self.config.anytime, &self.anytime_model, &mut buf.stage)
            {
                let confidence = &model.confidence;
                let stages = &mut self.anytime_compiled;
                if let Some(label) =
                    Self::probe_anytime(any, confidence, stages, stream, &mut self.scratch)
                {
                    self.classify_flow(flow, t, Some(label));
                    // lint: allow(L009) — within the capacity reserved by process_batch
                    verdicts.push(Verdict::Classified(label));
                    return joined;
                }
            }
            // lint: allow(L009) — within the capacity reserved by process_batch
            verdicts.push(Verdict::Buffering);
            match tail.get(joined) {
                Some(next) if joins(next, flow, last_sweep, idle_timeout) => {
                    packet = next.packet;
                    joined += 1;
                }
                _ => return joined,
            }
        }
    }

    /// Classifies-or-drops every flow idle longer than the configured
    /// timeout. Called opportunistically by
    /// [`process_batch`](Self::process_batch) and available publicly
    /// as the serve layer's drain barrier. Returns the number of flows
    /// evicted (a flow whose effective payload is empty is dropped
    /// without a verdict but still counts).
    pub fn sweep_idle(&mut self, now: f64) -> usize {
        let mut idle: Vec<FlowId> = self
            .buffers
            .iter()
            .filter(|(_, b)| now - b.last_ts > self.config.idle_timeout)
            .map(|(&id, _)| id)
            // lint: allow(L009) — idle sweep is the periodic maintenance path, not per-packet work
            .collect();
        // Evict in flow-ID order, not HashMap order: two pipelines fed
        // identical traffic then produce identical classification logs
        // regardless of per-instance hash seeds — the property the
        // batch ≡ per-packet equivalence suite (and the bench's
        // pre-timing assertion) compares against.
        idle.sort_unstable();
        let n = idle.len();
        for id in idle {
            self.classify_flow(id, now, None);
        }
        n
    }

    /// Evicts one buffered flow and records its verdict (used by the
    /// full-buffer, idle, close, and anytime paths). An anytime probe
    /// passes the `early` label it already predicted from the partial
    /// vector; otherwise the flow's vector is finished and predicted
    /// here. A flow with no classification-window bytes is dropped
    /// without a verdict.
    fn classify_flow(
        &mut self,
        id: FlowId,
        now: f64,
        early: Option<FileClass>,
    ) -> Option<FileClass> {
        // lint: allow(L008) — HashMap::remove never panics (the KB is conservative for Vec::remove)
        let buf = self.buffers.remove(&id)?;
        self.resident -= buf.resident_bytes();
        // A model trained on a different feature width than the
        // pipeline extracts cannot render a verdict; such flows are
        // left unclassified (the CDB miss path treats them as
        // Ignored) rather than taking the hot path down with a panic.
        let label = match buf.stage {
            // Header decision never resolved (StripKnown flow evicted
            // while staging): classify one-shot from the staged prefix,
            // exactly like the historical buffer-then-compute path.
            FlowStage::Staging(staged) => {
                let payload = self.staged_payload(&staged);
                if payload.is_empty() {
                    return None;
                }
                let vector = self.extractor.extract(payload);
                self.scratch.features.clear();
                // lint: allow(L006, L009) — finished f64 features (one per width) into reused scratch, not payload
                self.scratch.features.extend_from_slice(&vector);
                self.compiled.try_predict(&self.scratch.features).ok()
            }
            FlowStage::Streaming(stream) => {
                // `fed == 0`: all observed bytes were header/skip,
                // nothing to classify on — but the state still returns
                // to the pool.
                let label = early.or_else(|| {
                    (stream.fed > 0).then(|| {
                        let scratch = &mut self.scratch;
                        stream.features.finish_into(&mut scratch.features, &mut scratch.counts);
                        self.compiled.try_predict(&scratch.features).ok()
                    })?
                });
                self.pool.recycle(stream.features);
                label
            }
        }?;
        self.cdb.insert(id, label, now);
        // lint: allow(L008) — forwarded has FileClass::ALL.len() slots; label.index() is always in range
        self.queues.forwarded[label.index()] += u64::from(buf.packets);
        if early.is_some() {
            self.early_exits += 1;
        }
        self.log.push(ClassifiedFlow {
            id,
            label,
            packets: buf.packets,
            fill_time: buf.last_ts - buf.first_ts,
            buffered_bytes: buf.seen,
            early_exit: early.is_some(),
        });
        Some(label)
    }

    /// Applies the header policy to a still-staged prefix, yielding the
    /// `b` bytes the entropy vector is computed over (the one-shot
    /// fallback for flows evicted before their header resolved).
    fn staged_payload<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        let b = self.config.buffer_size;
        let start = match self.config.header_policy {
            HeaderPolicy::None => 0,
            HeaderPolicy::SkipThreshold { t } => t.min(data.len()),
            // Non-StripKnown flows never stage; arms kept for totality.
            HeaderPolicy::RandomSkip { .. } => 0,
            HeaderPolicy::StripKnown { t } => match strip_application_header(data) {
                Some((_, offset)) => offset.min(data.len()),
                None => t.min(data.len()),
            },
        };
        let end = (start + b).min(data.len());
        // lint: allow(L008) — start <= end <= data.len() by the min() clamps above
        &data[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iustitia_netsim::{FiveTuple, TcpFlags};
    use std::net::Ipv4Addr;

    /// A CART model trained on `b`-byte prefixes of a real synthetic
    /// corpus, so its decision bands match what `b`-byte buffers can
    /// actually produce (h1 of a 32-byte window is capped at
    /// log2(32)/8 ≈ 0.625).
    fn trained_model(b: usize) -> NatureModel {
        let corpus = iustitia_corpus::CorpusBuilder::new(33)
            .files_per_class(80)
            .size_range(1024, 4096)
            .build();
        crate::model::train_from_corpus(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            crate::features::TrainingMethod::Prefix { b },
            crate::features::FeatureMode::Exact,
            &crate::model::ModelKind::paper_cart(),
            33,
        )
        .expect("train")
    }

    fn toy_model() -> NatureModel {
        trained_model(32)
    }

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple::tcp(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 443)
    }

    fn data_packet(port: u16, t: f64, payload: &[u8]) -> Packet {
        Packet { timestamp: t, tuple: tuple(port), flags: TcpFlags::ACK, payload: payload.to_vec() }
    }

    // Representative prose: the 4-class b=32 model puts degenerate
    // ultra-low-entropy 32-byte windows (e.g. "the cat sat on the
    // mat…") below the text band, next to armored-ciphertext headers.
    fn text_payload(n: usize) -> Vec<u8> {
        b"Dear colleagues, please review the quarterly budget report.\n"
            .iter()
            .cycle()
            .take(n)
            .copied()
            .collect()
    }

    fn encrypted_payload(n: usize) -> Vec<u8> {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u8
            })
            .collect()
    }

    #[test]
    fn classifies_when_buffer_fills_then_hits_cdb() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(1));
        // Consecutive halves of the prose, so the filled 32-byte
        // buffer is the sentence prefix, not a 16-byte stutter.
        let prose = text_payload(32);
        let p1 = data_packet(1000, 0.0, &prose[..16]);
        assert_eq!(ius.process_packet(&p1), Verdict::Buffering);
        let p2 = data_packet(1000, 0.1, &prose[16..]);
        assert_eq!(ius.process_packet(&p2), Verdict::Classified(FileClass::Text));
        let p3 = data_packet(1000, 0.2, &text_payload(100));
        assert_eq!(ius.process_packet(&p3), Verdict::Hit(FileClass::Text));
        assert_eq!(ius.cdb().len(), 1);
        assert_eq!(ius.pending_flows(), 0);
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].packets, 2);
        assert!((log[0].fill_time - 0.1).abs() < 1e-9);
    }

    #[test]
    fn encrypted_flow_labeled_encrypted() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(2));
        let p = data_packet(2000, 0.0, &encrypted_payload(64));
        assert_eq!(ius.process_packet(&p), Verdict::Classified(FileClass::Encrypted));
    }

    #[test]
    fn control_packets_pass_through() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(3));
        let syn = Packet { timestamp: 0.0, tuple: tuple(1), flags: TcpFlags::SYN, payload: vec![] };
        assert_eq!(ius.process_packet(&syn), Verdict::Ignored);
        assert_eq!(ius.queues().passed_through, 1);
    }

    #[test]
    fn fin_removes_cdb_record() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(4));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        assert_eq!(ius.cdb().len(), 1);
        let fin = Packet {
            timestamp: 1.0,
            tuple: tuple(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            payload: vec![],
        };
        assert_eq!(ius.process_packet(&fin), Verdict::Ignored);
        assert_eq!(ius.cdb().len(), 0);
    }

    #[test]
    fn close_during_buffering_classifies_partial() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(5));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(16)));
        assert_eq!(ius.pending_flows(), 1);
        let rst = Packet { timestamp: 0.5, tuple: tuple(1), flags: TcpFlags::RST, payload: vec![] };
        ius.process_packet(&rst);
        assert_eq!(ius.pending_flows(), 0);
        // Classified from the 16 bytes we had, then removed by the RST
        // itself? No: close removes CDB record *before* classification
        // of leftovers inserts it, so the record remains.
        assert_eq!(ius.take_log().len(), 1);
    }

    #[test]
    fn idle_flush_classifies_stalled_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(6));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(8)));
        assert_eq!(ius.sweep_idle(1.0), 0, "not idle long enough");
        assert_eq!(ius.sweep_idle(10.0), 1);
        assert_eq!(ius.pending_flows(), 0);
        assert_eq!(ius.take_log().len(), 1);
    }

    #[test]
    fn strip_known_header_classifies_payload_not_header() {
        let model = trained_model(64);
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::StripKnown { t: 128 },
            ..PipelineConfig::headline(7)
        };
        let mut ius = Iustitia::new(model, config);
        // HTTP header (text) followed by ciphertext payload.
        let mut payload =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n".to_vec();
        let header_len = payload.len();
        payload.extend_from_slice(&encrypted_payload(ius.buffer_capacity()));
        let verdict = ius.process_packet(&data_packet(1, 0.0, &payload));
        assert_eq!(
            verdict,
            Verdict::Classified(FileClass::Encrypted),
            "header {header_len}B must be ignored"
        );
    }

    #[test]
    fn skip_threshold_ignores_prefix_padding() {
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::SkipThreshold { t: 100 },
            ..PipelineConfig::headline(8)
        };
        let mut ius = Iustitia::new(trained_model(64), config);
        // 100 bytes of text "padding", then ciphertext.
        let mut payload = text_payload(100);
        payload.extend_from_slice(&encrypted_payload(64));
        let verdict = ius.process_packet(&data_packet(1, 0.0, &payload));
        assert_eq!(verdict, Verdict::Classified(FileClass::Encrypted));
    }

    #[test]
    fn buffer_capacity_includes_allowance() {
        let config = PipelineConfig {
            buffer_size: 32,
            header_policy: HeaderPolicy::SkipThreshold { t: 1468 },
            ..PipelineConfig::headline(9)
        };
        let ius = Iustitia::new(toy_model(), config);
        assert_eq!(ius.buffer_capacity(), 1500);
    }

    #[test]
    fn udp_flows_classify_like_tcp() {
        use std::net::Ipv4Addr;
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(11));
        let tuple = iustitia_netsim::FiveTuple::udp(
            Ipv4Addr::new(1, 2, 3, 4),
            53,
            Ipv4Addr::new(5, 6, 7, 8),
            5060,
        );
        let p =
            Packet { timestamp: 0.0, tuple, flags: TcpFlags::empty(), payload: text_payload(64) };
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
        assert_eq!(ius.cdb().len(), 1);
    }

    #[test]
    fn estimated_mode_pipeline_classifies() {
        use iustitia_entropy::EstimatorConfig;
        let config = PipelineConfig {
            buffer_size: 1024,
            mode: crate::features::FeatureMode::Estimated(EstimatorConfig::svm_optimal()),
            ..PipelineConfig::headline(12)
        };
        // Model trained on exact features of 1024-byte prefixes;
        // estimated features at matched parameters stay close.
        let mut ius = Iustitia::new(trained_model(1024), config);
        let p = data_packet(7, 0.0, &encrypted_payload(1024));
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
    }

    #[test]
    fn random_skip_adds_allowance() {
        let config = PipelineConfig {
            buffer_size: 64,
            header_policy: HeaderPolicy::RandomSkip { t_max: 256 },
            ..PipelineConfig::headline(13)
        };
        let ius = Iustitia::new(toy_model(), config);
        assert_eq!(ius.buffer_capacity(), 320);
    }

    #[test]
    fn oversized_first_packet_is_truncated_to_capacity() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(14));
        let p = data_packet(9, 0.0, &text_payload(5000));
        assert!(matches!(ius.process_packet(&p), Verdict::Classified(_)));
        let log = ius.take_log();
        assert_eq!(log[0].buffered_bytes, 32);
    }

    #[test]
    fn queue_counters_accumulate() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(10));
        ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        ius.process_packet(&data_packet(1, 0.1, &text_payload(10)));
        ius.process_packet(&data_packet(1, 0.2, &text_payload(10)));
        assert_eq!(ius.queues().forwarded[FileClass::Text.index()], 3);
    }

    /// Regression for the pending-flow leak: a stalled flow must be
    /// evicted by traffic on *other* flows, without anyone calling
    /// `sweep_idle` explicitly.
    #[test]
    fn opportunistic_sweep_evicts_stalled_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(15));
        // Flow A stalls with a partial buffer at t=0.
        ius.process_packet(&data_packet(1, 0.0, &text_payload(8)));
        assert_eq!(ius.pending_flows(), 1);
        // A packet for unrelated flow B, one idle-timeout later,
        // triggers the opportunistic sweep that classifies A.
        ius.process_packet(&data_packet(2, 10.0, &text_payload(8)));
        assert_eq!(ius.pending_flows(), 1, "A evicted, B pending");
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].id, FlowId::of_tuple(&tuple(1)));
        assert_eq!(log[0].buffered_bytes, 8);
    }

    /// Flow-state pooling: a classified flow's feature state must be
    /// recycled into the next flow, with identical verdicts.
    #[test]
    fn flow_state_pool_recycles_across_flows() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(17));
        assert_eq!(ius.state_pool_size(), 0);
        assert_eq!(ius.state_pool_hits(), 0);
        // First flow allocates fresh state; classifying parks it.
        let v1 = ius.process_packet(&data_packet(1, 0.0, &text_payload(64)));
        assert_eq!(v1, Verdict::Classified(FileClass::Text));
        assert_eq!(ius.state_pool_size(), 1);
        assert_eq!(ius.state_pool_hits(), 0);
        // Second flow reuses it and still classifies correctly.
        let v2 = ius.process_packet(&data_packet(2, 0.1, &encrypted_payload(64)));
        assert_eq!(v2, Verdict::Classified(FileClass::Encrypted));
        assert_eq!(ius.state_pool_hits(), 1);
        assert_eq!(ius.state_pool_size(), 1);
        // Many sequential flows keep hitting the single pooled state.
        for (i, port) in (3u16..40).enumerate() {
            ius.process_packet(&data_packet(port, 0.2 + i as f64 * 0.001, &text_payload(64)));
        }
        assert_eq!(ius.state_pool_hits(), 38);
        assert_eq!(ius.state_pool_size(), 1);
    }

    /// The 4-class vertical slice: a battery-enabled pipeline with a
    /// battery-trained model separates compressed streams from
    /// ciphertext, which the entropy vector alone cannot do.
    #[test]
    fn battery_pipeline_classifies_compressed_streams() {
        use rand::SeedableRng;
        let corpus = iustitia_corpus::CorpusBuilder::new(33)
            .files_per_class(60)
            .size_range(1024, 4096)
            .build();
        let model = crate::model::train_from_corpus_battery(
            &corpus,
            &iustitia_entropy::FeatureWidths::svm_selected(),
            crate::features::TrainingMethod::Prefix { b: 2048 },
            crate::features::FeatureMode::Exact,
            &crate::model::ModelKind::paper_cart(),
            33,
        )
        .expect("train");
        let config =
            PipelineConfig { buffer_size: 2048, battery: true, ..PipelineConfig::headline(44) };
        let mut ius = Iustitia::new(model, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut right = 0;
        for port in 0..20u16 {
            let data = iustitia_corpus::compressed::generate(4096, &mut rng);
            let v = ius.process_packet(&data_packet(
                3000 + port,
                f64::from(port) * 0.01,
                &data[..2048.min(data.len())],
            ));
            if v == Verdict::Classified(FileClass::Compressed) {
                right += 1;
            }
        }
        assert!(right >= 14, "compressed streams classified as compressed: {right}/20");
    }

    /// The tentpole invariant: a pending flow's heap footprint is the
    /// feature state (O(distinct grams)), not the payload (O(b)).
    #[test]
    fn pending_flow_state_does_not_scale_with_buffer_size() {
        let config = PipelineConfig { buffer_size: 2048, ..PipelineConfig::headline(16) };
        let mut ius = Iustitia::new(toy_model(), config);
        let constant = vec![0x61u8; 1024];
        assert_eq!(ius.process_packet(&data_packet(1, 0.0, &constant)), Verdict::Buffering);
        assert_eq!(ius.process_packet(&data_packet(1, 0.1, &constant[..512])), Verdict::Buffering);
        let resident = ius.resident_feature_bytes();
        assert!(
            resident > 0 && resident <= 8 * crate::features::BYTES_PER_COUNTER,
            "1536 buffered bytes should be resident as a handful of gram \
             counters, got {resident}B"
        );
        // Filling the window classifies and releases all state.
        assert!(matches!(
            ius.process_packet(&data_packet(1, 0.2, &constant[..512])),
            Verdict::Classified(_)
        ));
        assert_eq!(ius.resident_feature_bytes(), 0);
        assert_eq!(ius.pending_flows(), 0);
    }

    /// One `process_batch` call over a same-flow run: the first packets
    /// fill the buffer, the completing packet classifies, and the rest
    /// of the run forwards as CDB hits off the held record — with the
    /// same counters sequential processing would leave.
    #[test]
    fn batch_run_classifies_then_forwards_hits() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(18));
        let prose = text_payload(32);
        let packets: Vec<Packet> = vec![
            data_packet(1, 0.00, &prose[..16]),
            data_packet(1, 0.01, &prose[16..]),
            data_packet(1, 0.02, &text_payload(10)),
            data_packet(1, 0.03, &text_payload(10)),
            data_packet(1, 0.04, &text_payload(10)),
        ];
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        ius.process_batch(&items, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![
                Verdict::Buffering,
                Verdict::Classified(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Hit(FileClass::Text),
            ]
        );
        // 2 buffered packets forwarded at classification + 3 hits.
        assert_eq!(ius.queues().forwarded[FileClass::Text.index()], 5);
        assert_eq!(ius.pending_flows(), 0);
        assert_eq!(ius.take_log().len(), 1);
    }

    /// Close and control packets inside a batch stay un-grouped and keep
    /// their ordering semantics (close removes the CDB record even with
    /// same-flow data packets on both sides).
    #[test]
    fn batch_with_interleaved_close_matches_sequential_semantics() {
        let mut ius = Iustitia::new(toy_model(), PipelineConfig::headline(19));
        let fin = Packet {
            timestamp: 0.02,
            tuple: tuple(1),
            flags: TcpFlags::FIN | TcpFlags::ACK,
            payload: vec![],
        };
        let packets: Vec<Packet> = vec![
            data_packet(1, 0.00, &text_payload(64)), // classifies (b = 32)
            data_packet(1, 0.01, &text_payload(8)),  // hit
            fin,                                     // removes the record
            data_packet(1, 0.03, &text_payload(8)),  // miss again → buffering
        ];
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        ius.process_batch(&items, &mut verdicts);
        assert_eq!(
            verdicts,
            vec![
                Verdict::Classified(FileClass::Text),
                Verdict::Hit(FileClass::Text),
                Verdict::Ignored,
                Verdict::Buffering,
            ]
        );
        assert_eq!(ius.cdb().len(), 0);
        assert_eq!(ius.pending_flows(), 1);
    }

    /// A model trained on a different feature width than the pipeline
    /// extracts must leave flows unclassified (Ignored), not panic the
    /// hot path.
    #[test]
    fn width_mismatched_model_yields_ignored_not_panic() {
        let mut ds = iustitia_ml::Dataset::new(1, FileClass::names());
        for i in 0..10 {
            let x = i as f64 / 50.0;
            ds.push(vec![0.45 + x], FileClass::Text.index());
            ds.push(vec![0.70 + x], FileClass::Binary.index());
            ds.push(vec![0.97 + x / 10.0], FileClass::Encrypted.index());
            ds.push(vec![0.92 + x / 10.0], FileClass::Compressed.index());
        }
        let narrow =
            NatureModel::train(&ds, &crate::model::ModelKind::paper_cart()).expect("train");
        // headline() extracts 4 svm-selected widths; the model wants 1.
        let mut ius = Iustitia::new(narrow, PipelineConfig::headline(7));
        assert_eq!(ius.process_packet(&data_packet(1, 0.0, &text_payload(16))), Verdict::Buffering);
        assert_eq!(ius.process_packet(&data_packet(1, 0.1, &text_payload(16))), Verdict::Ignored);
        assert_eq!(ius.pending_flows(), 0, "the flow is still evicted");
        assert_eq!(ius.cdb().len(), 0, "no verdict is cached");
        assert!(ius.take_log().is_empty());
    }

    /// A one-stage anytime model over the headline extractor's feature
    /// width. Its centroids don't matter for these tests: with
    /// threshold 0.0 every probe clears the score bar, so the patience
    /// rule alone decides (the second consecutive agreeing probe
    /// fires), and with
    /// [`ANYTIME_THRESHOLD_DISABLED`](crate::model::ANYTIME_THRESHOLD_DISABLED)
    /// none ever does.
    fn toy_anytime() -> AnytimeModel {
        let mut fx = FeatureExtractor::new(FeatureWidths::svm_selected(), FeatureMode::Exact, 1);
        let mut ds =
            iustitia_ml::Dataset::new(fx.extract(&text_payload(64)).len(), FileClass::names());
        // All four classes must be covered for training, and they must
        // be separable enough that consecutive probes of one payload
        // agree (the patience rule needs stable labels): binary is a
        // constant byte, compressed a short repeating cycle.
        for i in 0..8 {
            ds.push(fx.extract(&text_payload(64 + i)), FileClass::Text.index());
            ds.push(fx.extract(&encrypted_payload(64 + i)), FileClass::Encrypted.index());
            ds.push(fx.extract(&vec![0x7f; 64 + i]), FileClass::Binary.index());
            let cycle: Vec<u8> = (0..64 + i).map(|j| (j % 7) as u8).collect();
            ds.push(fx.extract(&cycle), FileClass::Compressed.index());
        }
        let stage_model = NatureModel::train(&ds, &crate::model::ModelKind::paper_cart())
            .expect("two-class toy dataset");
        AnytimeModel::new(
            ConfidenceModel::fit(&[(16, &ds)], 0.0),
            vec![crate::model::AnytimeStageModel { bytes: 16, model: stage_model }],
        )
    }

    #[test]
    fn anytime_probe_classifies_before_buffer_fills() {
        let config = PipelineConfig {
            buffer_size: 2048,
            anytime: Some(AnytimeConfig { threshold: 0.0, min_bytes: 16, probe_stride: 1 }),
            ..PipelineConfig::headline(9)
        };
        let mut ius = Iustitia::new(toy_model(), config).with_anytime(toy_anytime());
        // First probe only arms the patience rule; the second
        // consecutive agreeing probe renders the verdict. A constant
        // payload keeps both probes' labels stable (its feature vector
        // is degenerate at any prefix length).
        let payload = [0x7f; 64];
        let first = ius.process_packet(&data_packet(1, 0.0, &payload[..32]));
        assert_eq!(first, Verdict::Buffering, "one probe never fires alone");
        let verdict = ius.process_packet(&data_packet(1, 0.01, &payload[32..]));
        assert!(matches!(verdict, Verdict::Classified(_)), "fires at 64 of 2048 B: {verdict:?}");
        assert_eq!(ius.early_exit_verdicts(), 1);
        assert_eq!(ius.pending_flows(), 0);
        let log = ius.take_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].early_exit);
        assert_eq!(log[0].buffered_bytes, 64, "verdict from 64 bytes, not b");
        // The early label went into the CDB like any other verdict.
        let next = ius.process_packet(&data_packet(1, 0.1, &encrypted_payload(32)));
        assert!(matches!(next, Verdict::Hit(_)), "{next:?}");
    }

    /// With the disabled sentinel the probes run (stride bookkeeping
    /// and all) but can never fire, so the pipeline is observably
    /// identical to one with no anytime machinery at all.
    #[test]
    fn disabled_threshold_never_fires_and_matches_fixed_b() {
        let model = trained_model(256);
        let disabled = AnytimeConfig {
            threshold: crate::model::ANYTIME_THRESHOLD_DISABLED,
            min_bytes: 16,
            probe_stride: 1,
        };
        let mut plain = Iustitia::new(
            model.clone(),
            PipelineConfig { buffer_size: 256, ..PipelineConfig::headline(10) },
        );
        let mut probed = Iustitia::new(
            model,
            PipelineConfig {
                buffer_size: 256,
                anytime: Some(disabled),
                ..PipelineConfig::headline(10)
            },
        )
        .with_anytime(toy_anytime());
        for port in 1..6u16 {
            let payload = if port % 2 == 0 { encrypted_payload(512) } else { text_payload(512) };
            for (i, chunk) in payload.chunks(96).enumerate() {
                let p = data_packet(port, i as f64 * 0.01, chunk);
                assert_eq!(plain.process_packet(&p), probed.process_packet(&p));
            }
        }
        assert_eq!(probed.early_exit_verdicts(), 0);
        assert_eq!(plain.take_log(), probed.take_log());
        assert_eq!(plain.queues(), probed.queues());
        assert_eq!(plain.cdb().len(), probed.cdb().len());
    }

    /// Early exits fire at the same packet — and record the same
    /// bytes-at-verdict — whether the flow arrives as one batch or as
    /// single packets.
    #[test]
    fn batch_early_exit_matches_per_packet() {
        let model = toy_model();
        let config = PipelineConfig {
            buffer_size: 2048,
            anytime: Some(AnytimeConfig { threshold: 0.0, min_bytes: 16, probe_stride: 1 }),
            ..PipelineConfig::headline(11)
        };
        let mut seq = Iustitia::new(model.clone(), config.clone()).with_anytime(toy_anytime());
        let mut bat = Iustitia::new(model, config).with_anytime(toy_anytime());
        let payload = encrypted_payload(40);
        let packets: Vec<Packet> = payload
            .chunks(8)
            .enumerate()
            .map(|(i, c)| data_packet(7, i as f64 * 0.001, c))
            .collect();
        let expected: Vec<Verdict> = packets.iter().map(|p| seq.process_packet(p)).collect();
        let items: Vec<BatchPacket<'_>> = packets.iter().map(BatchPacket::new).collect();
        let mut verdicts = Vec::new();
        bat.process_batch(&items, &mut verdicts);
        assert_eq!(verdicts, expected);
        // 8 B is below min_bytes — no probe; the second packet (fed =
        // 16) probes and arms the patience rule; the third's agreeing
        // probe fires; the rest hit the CDB.
        assert!(matches!(expected[0], Verdict::Buffering), "{expected:?}");
        assert!(matches!(expected[1], Verdict::Buffering), "{expected:?}");
        assert!(matches!(expected[2], Verdict::Classified(_)), "{expected:?}");
        assert!(matches!(expected[3], Verdict::Hit(_)), "{expected:?}");
        assert_eq!(seq.take_log(), bat.take_log());
        assert_eq!(seq.early_exit_verdicts(), 1);
        assert_eq!(bat.early_exit_verdicts(), 1);
        assert_eq!(seq.queues(), bat.queues());
    }
}
