//! A counting global allocator for the tests that bound what code costs
//! the allocator (`recompute_allocs.rs`, `node_state.rs`,
//! `fleet_memory.rs`). A test binary installs it by including this file:
//! `#[path = "common/alloc.rs"] mod alloc;`.
//!
//! Counts are kept per thread, because the tests of one binary run on
//! parallel threads: calls (`alloc` and `realloc`), bytes asked for, live
//! bytes and the high-water mark of live bytes. A `realloc` moves the live
//! count by the difference of the sizes. A block freed on another thread
//! than the one that allocated it moves the freeing thread's live count,
//! so live bytes are exact for work that allocates and frees on one
//! thread, such as a serial fleet run.
#![allow(dead_code)] // each test binary reads its own subset

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's allocator traffic since it started.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// `alloc` and `realloc` calls.
    pub calls: u64,
    /// Bytes asked for: each `alloc`'s size and each `realloc`'s new size.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: i64,
    /// The most `live` has been since the thread started or since the last
    /// [`reset_peak`].
    pub peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { calls: 0, bytes: 0, live: 0, peak: 0 })
    };
}

fn note(f: impl FnOnce(&mut Counts)) {
    // `try_with`: allocations during thread teardown find the slot gone.
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        counts.peak = counts.peak.max(counts.live);
        c.set(counts);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the counts
// are a `const`-initialised thread-local `Cell` without a destructor,
// which touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(|c| {
            c.calls += 1;
            c.bytes += layout.size() as u64;
            c.live += layout.size() as i64;
        });
        // SAFETY: the layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|c| c.live -= layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|c| {
            c.calls += 1;
            c.bytes += new_size as u64;
            c.live += new_size as i64 - layout.size() as i64;
        });
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's counts.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Restart this thread's high-water mark at its live bytes, and return
/// them.
pub fn reset_peak() -> i64 {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts.peak = counts.live;
        c.set(counts);
        counts.live
    })
}
