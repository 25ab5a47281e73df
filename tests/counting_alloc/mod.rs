#![allow(dead_code)] // each test binary reads one of the two counters
//! A counting `#[global_allocator]` for the test binaries that assert on
//! allocation behaviour: how many bytes a decode requests
//! (`decode_robustness`), how many allocations a row operation makes
//! (`alloc_budget`). Declaring this module installs it for the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// What this thread has asked of the allocator (the harness runs tests
    /// on parallel threads; process-wide counts would mix them).
    static REQUESTED_BYTES: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract (the default `realloc` goes
// through `alloc`, so a growing buffer counts once per growth); the
// counters touch no allocator state, and `const`-initialised
// `Cell<usize>` thread-locals never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = REQUESTED_BYTES.try_with(|r| r.set(r.get().saturating_add(layout.size())));
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread has requested from the allocator so far.
pub fn requested_bytes() -> usize {
    REQUESTED_BYTES.with(Cell::get)
}

/// Allocations this thread has made so far.
pub fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}
