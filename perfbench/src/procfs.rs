//! What the benchmark reads about its own process and host from
//! `/proc` and `/sys`: per-thread CPU and run-queue time, peak resident
//! memory, and the host fingerprint recorded with every result.

use std::collections::BTreeMap;
use std::fs;

/// CPU accounting of one thread, from `/proc/self/task/<tid>/schedstat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTimes {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name as the kernel keeps it (at most 15 bytes).
    pub comm: String,
    /// Nanoseconds spent running on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub runq_ns: u64,
}

/// Parses a schedstat line: `<cpu ns> <run-queue ns> <timeslices>`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let cpu = fields.next()?.parse().ok()?;
    let runq = fields.next()?.parse().ok()?;
    Some((cpu, runq))
}

/// The layer a server thread belongs to, from its name. The kernel
/// truncates names to 15 bytes, so `iustitia-reactor` reads as
/// `iustitia-reacto` and every `iustitia-shard-N` as `iustitia-shard-`
/// once `N` has two digits.
pub fn layer_of(comm: &str) -> Option<&'static str> {
    if "iustitia-reactor".starts_with(comm) && comm.starts_with("iustitia-reac") {
        Some("serve.reactor")
    } else if comm.starts_with("iustitia-shard") {
        Some("serve.shard")
    } else {
        None
    }
}

/// Snapshot of every thread of this process.
pub fn threads() -> Vec<ThreadTimes> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(stat), Ok(comm)) =
            (fs::read_to_string(path.join("schedstat")), fs::read_to_string(path.join("comm")))
        else {
            continue; // the thread exited between listing and reading
        };
        if let Some((cpu_ns, runq_ns)) = parse_schedstat(&stat) {
            out.push(ThreadTimes { tid, comm: comm.trim_end().to_string(), cpu_ns, runq_ns });
        }
    }
    out
}

/// CPU and run-queue nanoseconds per layer accrued between two
/// snapshots. Threads absent from `before` started in between and
/// count from zero; threads absent from `after` are not counted.
pub fn layer_deltas(
    before: &[ThreadTimes],
    after: &[ThreadTimes],
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for t in after {
        let Some(layer) = layer_of(&t.comm) else { continue };
        let (cpu0, runq0) =
            before.iter().find(|b| b.tid == t.tid).map_or((0, 0), |b| (b.cpu_ns, b.runq_ns));
        let slot = out.entry(layer).or_insert((0u64, 0u64));
        slot.0 += t.cpu_ns.saturating_sub(cpu0);
        slot.1 += t.runq_ns.saturating_sub(runq0);
    }
    out
}

/// CPU nanoseconds of the calling process's main thread.
pub fn main_thread_cpu_ns() -> u64 {
    let path = format!("/proc/self/task/{}/schedstat", std::process::id());
    fs::read_to_string(path).ok().and_then(|s| parse_schedstat(&s)).map_or(0, |(cpu, _)| cpu)
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Resets the process's peak resident size (`VmHWM`) to its current
/// resident size, and returns that size in bytes.
///
/// # Errors
///
/// Fails where `/proc/self/clear_refs` is not writable or `VmHWM` is
/// not reported; a peak-memory figure is then impossible.
pub fn reset_peak_rss() -> Result<u64, String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))?;
    status_bytes("VmHWM:").ok_or_else(|| "VmHWM not reported".to_string())
}

/// Peak resident size in bytes since the last [`reset_peak_rss`].
pub fn peak_rss() -> u64 {
    status_bytes("VmHWM:").unwrap_or(0)
}

/// The host a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// The kernel's current clocksource.
    pub clocksource: String,
    /// Kernel release.
    pub kernel: String,
    /// Git revision of the checkout, when it is a git work tree.
    pub git_rev: String,
}

/// Reads the host fingerprint; unknown fields read `"unknown"`.
pub fn host() -> Host {
    let read = |path: &str| fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        cpu_model,
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        clocksource: read("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .unwrap_or_else(|| "unknown".into()),
        kernel: read("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
        git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_lines() {
        assert_eq!(parse_schedstat("4561277 65226 9\n"), Some((4_561_277, 65_226)));
        assert_eq!(parse_schedstat("12 34"), Some((12, 34)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn groups_truncated_thread_names() {
        assert_eq!(layer_of("iustitia-reacto"), Some("serve.reactor"));
        assert_eq!(layer_of("iustitia-reactor"), Some("serve.reactor"));
        assert_eq!(layer_of("iustitia-shard-"), Some("serve.shard"));
        assert_eq!(layer_of("iustitia-shard-1"), Some("serve.shard"));
        assert_eq!(layer_of("iustitia-client-"), None);
        assert_eq!(layer_of("iustitia-reacts"), None);
        assert_eq!(layer_of("iustitia-perfbe"), None);
    }

    #[test]
    fn deltas_sum_threads_per_layer() {
        let t = |tid, comm: &str, cpu, runq| ThreadTimes {
            tid,
            comm: comm.into(),
            cpu_ns: cpu,
            runq_ns: runq,
        };
        let before = vec![
            t(1, "iustitia-perfbe", 100, 0),
            t(2, "iustitia-reacto", 1_000, 10),
            t(3, "iustitia-shard-", 2_000, 20),
            t(4, "iustitia-shard-", 3_000, 30),
        ];
        let after = vec![
            t(1, "iustitia-perfbe", 900, 0),
            t(2, "iustitia-reacto", 1_500, 15),
            t(3, "iustitia-shard-", 2_700, 27),
            t(4, "iustitia-shard-", 3_300, 33),
            t(5, "iustitia-shard-", 50, 5), // started in between
        ];
        let d = layer_deltas(&before, &after);
        assert_eq!(d.get("serve.reactor"), Some(&(500, 5)));
        assert_eq!(d.get("serve.shard"), Some(&(1_050, 15)));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn reads_own_threads() {
        let me = threads();
        assert!(me.iter().any(|t| t.tid == std::process::id()));
    }
}
