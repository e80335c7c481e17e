//! Traced benchmark runs: the per-layer metrics. Installs a counting
//! global allocator for `connect.allocs_per_node`; it counts only while
//! a traced phase runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

/// [`System`] that counts allocations while tracing is on.
struct CountingAlloc;

fn count() {
    if perfbench::ALLOC_COUNTING.load(Ordering::Relaxed) {
        perfbench::ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update touches no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main_with(true)
}
