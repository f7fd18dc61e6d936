//! The benchmark's counting global allocator.
//!
//! Every `*_allocs` / `*_bytes` per-layer metric is a difference of two
//! [`snapshot`]s taken around calls into a crate. Counting is switched on
//! only for traced runs, so an end-to-end run pays one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Plain statistics: no other memory is published through these, so
// `Relaxed` is enough.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            count_alloc(layout.size() as u64);
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            // Saturating: a block allocated before counting was switched
            // on may be freed after.
            let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| {
                Some(l.saturating_sub(layout.size() as u64))
            });
        }
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            let _ = LIVE.fetch_update(Relaxed, Relaxed, |l| {
                Some(l.saturating_sub(layout.size() as u64))
            });
            count_alloc(new_size as u64);
        }
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

/// Switch counting on or off; returns the previous setting.
pub fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Relaxed)
}

/// Cumulative counters since counting was first switched on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
    /// Most bytes that were ever allocated while counting was on and not
    /// yet freed.
    pub peak_live: u64,
}

pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live: PEAK_LIVE.load(Relaxed),
    }
}

impl AllocSnapshot {
    /// Allocations and bytes requested since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Wall nanoseconds one counted allocate-and-free pair costs beyond an
/// uncounted one — the term `bench.alloc_counter_overhead_share` scales by
/// the run's allocation count.
pub fn counting_cost_ns() -> f64 {
    fn pairs(n: u32) -> f64 {
        let t = std::time::Instant::now();
        for i in 0..n {
            std::hint::black_box(Box::new(std::hint::black_box(i)));
        }
        t.elapsed().as_nanos() as f64 / f64::from(n)
    }
    const N: u32 = 200_000;
    let was = set_counting(false);
    pairs(N); // warm the allocator's free lists
    let off = pairs(N);
    set_counting(true);
    let on = pairs(N);
    set_counting(was);
    (on - off).max(0.0)
}
