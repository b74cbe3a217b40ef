//! Deterministic data-parallel execution for training loops.
//!
//! Every parallel site in this crate (kernel-matrix rows, per-feature
//! split scans, pairwise SVM fits, cross-validation folds, forward-search
//! candidates) is an *embarrassingly parallel* map over an index range:
//! the work at index `i` depends only on `i` and shared read-only
//! inputs. [`run_indexed`] evaluates such a map on scoped threads
//! (`std::thread::scope`, no extra dependencies) and returns the results
//! **in index order**, so a caller that reduces the returned vector
//! left-to-right performs exactly the reduction the serial loop would —
//! the cornerstone of the crate-wide "parallel ≡ serial, bit for bit"
//! guarantee (see DESIGN.md row #26).
//!
//! Thread counts come from [`Parallelism`], which training parameter
//! structs ([`crate::svm::SvmParams`], [`crate::cart::CartParams`])
//! embed with an `auto` default.

/// How many worker threads a training loop may use.
///
/// `threads == 0` means "resolve from
/// [`std::thread::available_parallelism`] at run time"; `1` is exactly
/// the historical serial path (no threads are spawned at all); any
/// other value is used verbatim. Because every parallel loop in this
/// crate is deterministic, the thread count never changes results —
/// only wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Parallelism {
    /// Worker thread count; `0` = auto-detect.
    pub threads: usize,
}

impl Parallelism {
    /// Resolve the thread count from the machine (`threads = 0`).
    pub fn auto() -> Self {
        Parallelism { threads: 0 }
    }

    /// Single-threaded: byte-for-byte the historical serial code path.
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// Exactly `n` worker threads (`0` behaves like [`auto`](Self::auto)).
    pub fn fixed(n: usize) -> Self {
        Parallelism { threads: n }
    }

    /// The concrete worker count: `threads`, or the machine's available
    /// parallelism when `threads == 0` (falling back to 1 if the
    /// platform cannot report it).
    pub fn resolve(&self) -> usize {
        if self.threads == 0 {
            // lint: allow(L008) — returns a Result, handled below; on the reactor path only via `.resolve()` name fan-out
            match std::thread::available_parallelism() {
                Ok(n) => n.get(),
                Err(_) => 1,
            }
        } else {
            self.threads
        }
    }
}

impl Default for Parallelism {
    /// Auto-detect (`threads = 0`).
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Evaluates `f(0), f(1), …, f(n - 1)` on up to `threads` scoped worker
/// threads and returns the results in index order.
///
/// Worker `w` handles indices `w, w + threads, w + 2·threads, …`
/// (interleaved distribution, so expensive early indices spread across
/// workers); results are tagged with their index and sorted before
/// returning, making the output independent of scheduling. With
/// `threads <= 1` or `n <= 1` no thread is spawned and the map runs
/// inline — the exact serial path.
///
/// # Panics
///
/// Re-raises (via [`std::panic::resume_unwind`]) any panic raised by
/// `f` on a worker thread.
pub fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let mut tagged: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut part = Vec::with_capacity(n / workers + 1);
                let mut i = w;
                while i < n {
                    part.push((i, f(i)));
                    i += workers;
                }
                part
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok(part) => tagged.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_threads() {
        assert_eq!(Parallelism::serial().resolve(), 1);
        assert_eq!(Parallelism::fixed(7).resolve(), 7);
        assert!(Parallelism::auto().resolve() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::auto());
    }

    #[test]
    fn run_indexed_preserves_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn run_indexed_handles_edges() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn parallel_matches_serial_on_float_work() {
        let work = |i: usize| {
            let x = i as f64 * 0.37 + 1.0;
            x.ln() * x.sqrt() - (x * 3.1).sin()
        };
        let serial = run_indexed(1, 500, work);
        let parallel = run_indexed(6, 500, work);
        assert_eq!(serial, parallel, "bit-identical across thread counts");
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(3, 10, |i| {
                assert!(i != 7, "boom at 7");
                i
            })
        });
        assert!(caught.is_err());
    }
}
