//! A global allocator that counts heap allocations, for the benches that
//! report them (`bench_probe`, `bench_connect`). A bin opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: mcs_bench::CountingAlloc = mcs_bench::CountingAlloc;
//! ```
//!
//! and reads [`CountingAlloc::allocations`] and
//! [`CountingAlloc::bytes`] before and after the measured code.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// [`System`] with process-wide counters of allocation calls (`alloc`
/// and `realloc`) and of the bytes they requested.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Allocation calls so far. Counts only when `CountingAlloc` is the
    /// global allocator.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Bytes requested by those calls.
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter updates touch no memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
