//! One end-to-end repetition: set up, send the trace, drain, and turn
//! what came back into metrics and a correctness verdict.

use std::collections::BTreeMap;

use crate::client::{run_pass, Pass};
use crate::procfs;
use crate::stats::percentile_sorted;
use crate::workload::{set_up, Cause, Pace, Prepared, Trained, Workload};

/// Outcome of comparing the server's verdicts with the reference's.
#[derive(Debug, Default)]
pub struct Gate {
    /// Flows whose first verdict was compared.
    pub checked: usize,
    /// Human-readable mismatches (first few only).
    pub mismatches: Vec<String>,
    /// Total mismatching flows.
    pub mismatch_count: usize,
    /// Checked flows the server classified from fewer bytes than the
    /// reference did, with the label the model gives that prefix: an
    /// idle sweep reached them first.
    pub swept_early: usize,
    /// First verdicts by reference cause, in `Cause` order.
    pub by_cause: [usize; 5],
    /// Verdict latencies (ns) of flows whose verdict matched: arrival
    /// minus the due time of the packet that completed its bytes.
    pub latencies_ns: Vec<u64>,
}

fn cause_index(cause: Cause) -> usize {
    match cause {
        Cause::Full => 0,
        Cause::Early => 1,
        Cause::Close => 2,
        Cause::Idle => 3,
        Cause::Drain => 4,
    }
}

/// Checks the first verdict per flow wherever the reference's verdict
/// was buffer-full or early-exit, and times the verdicts that match.
///
/// The server must return the reference's label and byte count. The
/// one allowed difference is a verdict from fewer bytes: shards sweep
/// idle flows on their own schedule, over batches sorted by flow, so a
/// flow the reference saw complete may be swept first. Such a verdict
/// must carry the label the model gives exactly that prefix.
pub fn check(prepared: &Prepared, pass: &Pass, trained: &Trained) -> Gate {
    let mut gate = Gate::default();
    let mut first: Vec<Option<usize>> = vec![None; prepared.truth.len()];
    for (i, v) in pass.verdicts.iter().enumerate() {
        first[v.flow as usize].get_or_insert(i);
    }
    for (flow, reference) in prepared.reference.iter().enumerate() {
        let Some(reference) = reference else { continue };
        gate.by_cause[cause_index(reference.cause)] += 1;
        if !matches!(reference.cause, Cause::Full | Cause::Early) {
            continue;
        }
        gate.checked += 1;
        let got = first[flow].map(|i| pass.verdicts[i]);
        let verdict = match got {
            Some(v)
                if v.buffered_bytes == reference.buffered_bytes && v.label == reference.label =>
            {
                if let Some(trigger) = reference.trigger {
                    let due = pass.due_ns.get(trigger as usize).copied().unwrap_or(0);
                    gate.latencies_ns.push(v.at_ns.saturating_sub(due));
                }
                continue;
            }
            Some(v) if v.buffered_bytes < reference.buffered_bytes => {
                let prefix = &prepared.window[flow][..v.buffered_bytes as usize];
                if trained.classify_prefix(prefix) == v.label {
                    gate.swept_early += 1;
                    continue;
                }
                Some(v)
            }
            other => other,
        };
        gate.mismatch_count += 1;
        if gate.mismatches.len() < 5 {
            gate.mismatches.push(format!(
                "flow {flow}: reference {:?} from {} B ({:?}), server {:?}",
                reference.label,
                reference.buffered_bytes,
                reference.cause,
                verdict.map(|v| (v.label, v.buffered_bytes))
            ));
        }
    }
    gate
}

/// The measurements of one repetition.
pub struct Rep {
    /// Named values of this repetition (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Packets submitted.
    pub packets: u64,
    /// Packets refused or dropped by admission control.
    pub lost: u64,
    /// The correctness gate.
    pub gate: Gate,
    /// Whether the generator kept its schedule.
    pub generator_on_time: bool,
    /// The deployment this repetition trained.
    pub trained: Trained,
}

/// A paced generator whose median packet went out later than this
/// did not offer the load it claims. (Its 99th percentile is reported,
/// not judged: a host hiccup of a few milliseconds delays a burst of
/// packets without changing the offered rate.)
pub const MAX_GEN_LAG_P50_NS: u64 = 1_000_000;

/// One full repetition. `prepare` builds the inputs when `prepared` is
/// empty (after set-up, which trains the model the reference needs).
pub fn repetition(
    w: &Workload,
    prepared: &mut Option<Prepared>,
    prepare: impl FnOnce(&Trained) -> Prepared,
    sample_every: Option<usize>,
    first: bool,
) -> Result<Rep, String> {
    let (trained, server, setup_s) = set_up(w).map_err(|e| format!("set-up: {e}"))?;
    let prepared = &*prepared.get_or_insert_with(|| prepare(&trained));

    let pass = Pass::with_room(prepared);
    let rss0 = procfs::reset_peak_rss()?;
    let heap0 = crate::heap::reset_peak();
    let threads0 = procfs::threads();
    let client0 = procfs::main_thread_cpu_ns();
    let result = run_pass(server.local_addr(), prepared, w.pace, sample_every, pass);
    let client1 = procfs::main_thread_cpu_ns();
    let threads1 = procfs::threads();
    let heap_peak = crate::heap::peak() - heap0;
    let rss_peak = procfs::peak_rss().saturating_sub(rss0);
    server.shutdown();
    let pass = result?;

    let stats = pass.last_stats.as_deref().ok_or("no final stats")?;
    let packets = prepared.packets() as u64;
    let per_pkt = |ns: u64| ns as f64 / packets as f64;
    let layers = procfs::layer_deltas(&threads0, &threads1);
    let (reactor_cpu, reactor_runq) = layers.get("serve.reactor").copied().unwrap_or((0, 0));
    let (shard_cpu, shard_runq) = layers.get("serve.shard").copied().unwrap_or((0, 0));

    let gate = check(prepared, &pass, &trained);
    let mut latencies = gate.latencies_ns.clone();
    latencies.sort_unstable();
    let mut lags = pass.lag_ns.clone();
    lags.sort_unstable();
    let lag = |q| if lags.is_empty() { 0 } else { percentile_sorted(&lags, q) };
    let lag_p99 = lag(0.99);
    let generator_on_time = matches!(w.pace, Pace::Flat) || lag(0.5) <= MAX_GEN_LAG_P50_NS;

    let verdicts = pass.verdicts.len().max(1) as f64;
    let correct_labels =
        pass.verdicts.iter().filter(|v| v.label == prepared.truth[v.flow as usize]).count();
    let bytes: u64 = pass.verdicts.iter().map(|v| u64::from(v.buffered_bytes)).sum();

    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("throughput_pps", packets as f64 / pass.wall_s);
    values.insert("server_cpu_ns_per_pkt", per_pkt(reactor_cpu + shard_cpu));
    if !latencies.is_empty() {
        values.insert("verdict_latency_p50_us", percentile_sorted(&latencies, 0.5) as f64 / 1e3);
        values.insert("latency.verdict_p99_us", percentile_sorted(&latencies, 0.99) as f64 / 1e3);
    }
    values.insert("bytes_to_verdict_mean", bytes as f64 / verdicts);
    values.insert("accuracy", correct_labels as f64 / verdicts);
    let mib = |bytes: f64| bytes / (1024.0 * 1024.0);
    values.insert("peak_heap_mb", mib(heap_peak as f64));
    // Resident-set growth counts on the first repetition only (see
    // `heap`); live heap growth counts on every one.
    if first {
        values.insert("peak_rss_mb", mib(rss_peak as f64));
    }
    values.insert("serve.reactor.cpu_ns_per_pkt", per_pkt(reactor_cpu));
    values.insert("serve.reactor.runq_ns_per_pkt", per_pkt(reactor_runq));
    values.insert("serve.shard.cpu_ns_per_pkt", per_pkt(shard_cpu));
    values.insert("serve.shard.runq_ns_per_pkt", per_pkt(shard_runq));
    values
        .insert("serve.queue.locks_per_pkt", stats.queue_lock_acquisitions as f64 / packets as f64);
    values.insert("serve.queue.batch_size_p50", stats.batch_size.p50().unwrap_or(0) as f64);
    values
        .insert("serve.queue.flows_per_batch_p50", stats.flows_per_batch.p50().unwrap_or(0) as f64);
    values.insert(
        "serve.verdicts_per_flow",
        pass.verdicts.len() as f64 / prepared.data_flows.max(1) as f64,
    );
    values.insert(
        "core.pipeline.state_pool_hit_ratio",
        stats.state_pool_hits() as f64 / stats.flows_classified.max(1) as f64,
    );
    values.insert(
        "core.pipeline.early_exit_ratio",
        stats.early_exit_verdicts() as f64 / stats.flows_classified.max(1) as f64,
    );
    // Only passes that sampled Stats mid-stream saw the pending state.
    if pass.stats_replies > 1 {
        values.insert("core.pipeline.peak_pending_flows", pass.peak_pending as f64);
        values.insert(
            "core.pipeline.peak_resident_mb",
            pass.peak_resident as f64 / (1024.0 * 1024.0),
        );
    }
    values.insert("bench.client.cpu_ns_per_pkt", per_pkt(client1.saturating_sub(client0)));
    values.insert("bench.gen_lag_p99_us", lag_p99 as f64 / 1e3);
    values.insert("gate.swept_early", gate.swept_early as f64);

    Ok(Rep {
        values,
        packets,
        lost: pass.busy + stats.dropped_oldest,
        gate,
        generator_on_time,
        trained,
    })
}
