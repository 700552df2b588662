//! A counting `#[global_allocator]` for the allocation-budget tests
//! (`collective_alloc_budget`, `indep_alloc_budget`), included by each with
//! `#[path]`. It counts what the benchmark's allocator counts — heap bytes
//! requested, a `realloc` at its new size — plus the number of allocation
//! calls, the largest single request while watched, and how many
//! allocations larger than [`LARGE`] are alive.
//!
//! The allocator is process-wide: a test binary that uses it holds one
//! `#[test]`, so nothing else is counted beside it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Allocations above this size count as large: the most a dataset's
/// recycled staging may keep between blocking calls.
pub const LARGE: usize = 1 << 20;

static REQUESTED: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LIVE_LARGE: AtomicI64 = AtomicI64::new(0);

/// Heap bytes requested so far.
pub fn requested() -> u64 {
    REQUESTED.load(Ordering::SeqCst)
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::SeqCst)
}

/// Start or stop tracking the largest single request.
pub fn watch_largest(on: bool) {
    WATCHING.store(on, Ordering::SeqCst);
}

/// The largest single request made while watched.
pub fn largest() -> usize {
    LARGEST.load(Ordering::SeqCst)
}

/// The largest single request made while watched, starting a new window:
/// the next [`largest`] counts only what is requested after this call.
pub fn take_largest() -> usize {
    LARGEST.swap(0, Ordering::SeqCst)
}

/// Allocations larger than [`LARGE`] currently alive.
pub fn live_large() -> i64 {
    LIVE_LARGE.load(Ordering::SeqCst)
}

fn born(size: usize) {
    REQUESTED.fetch_add(size as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    if WATCHING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
    if size > LARGE {
        LIVE_LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

fn died(size: usize) {
    if size > LARGE {
        LIVE_LARGE.fetch_sub(1, Ordering::Relaxed);
    }
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics and never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        born(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        born(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        died(layout.size());
        born(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        died(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;
