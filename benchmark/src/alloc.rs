//! A counting global allocator that counts only while switched on.
//!
//! End-to-end runs never switch it on, so they pay one relaxed load per
//! allocation and nothing else. The traced run switches it on for its
//! traced passes only; those are single-threaded, so the counts each span
//! records are exact and repeat from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], counting `alloc` and `realloc` calls while on.
pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    #[inline]
    fn note(&self) {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only two atomics and never the memory being managed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from `System` with `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on (traced passes) or off.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
