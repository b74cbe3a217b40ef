//! A counting global allocator: the process's live heap bytes and
//! their peak since the last reset.
//!
//! Resident-set peaks cannot be measured more than once per process:
//! glibc keeps the freed top of an exited thread's arena resident, and
//! the next server's threads reuse those arenas, so a second server's
//! growth barely moves `VmHWM`. Live heap bytes have no such memory,
//! so every repetition measures its own peak.
//!
//! Each thread keeps a private running delta and publishes it to the
//! shared counters only once it exceeds [`FLUSH`] bytes either way, so
//! the server under test pays a thread-local add per allocation rather
//! than a contended atomic. The peak is exact to within `FLUSH` bytes
//! per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// Bytes a thread accumulates before publishing.
const FLUSH: i64 = 64 * 1024;

/// Live heap bytes published so far. Statistics only, so `Relaxed`.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Largest `LIVE` seen since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static LOCAL: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // A thread's slot is gone while it exits; publish directly then.
    let publish = LOCAL
        .try_with(|local| {
            let v = local.get() + delta;
            if v.abs() < FLUSH {
                local.set(v);
                None
            } else {
                local.set(0);
                Some(v)
            }
        })
        .unwrap_or(Some(delta));
    if let Some(v) = publish {
        let live = LIVE.fetch_add(v, Ordering::Relaxed) + v;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`
// and returns its result; the bookkeeping beside it neither allocates
// nor touches the memory, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by
        // `System`, for this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came
        // from `System` for `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Starts a new peak at the current live heap size; returns that size.
pub fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak live heap bytes since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
