//! A counting `#[global_allocator]`: heap bytes requested, allocation
//! calls, live bytes and their peak, over all threads.
//!
//! Counts, unlike times, repeat exactly on a noisy host, so
//! `alloc_bytes_per_byte` is the host-cost number two runs of the same
//! code agree on to the last digit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts on the way.
pub struct Counting;

// Statistics only: no other memory is published through these counters,
// so `Relaxed` is enough (readers sample them between iterations, after
// the rank threads have been joined).
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(n: u64) {
    BYTES.fetch_add(n, Ordering::Relaxed);
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            CALLS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc requests `new_size` bytes (the old block may be
            // copied), so it counts as a call for the whole new size.
            CALLS.fetch_add(1, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size as u64);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Bytes requested since process start (alloc + realloc new sizes).
    pub bytes: u64,
    /// Allocation calls since process start (alloc + alloc_zeroed + realloc).
    pub calls: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` seen since process start or the last [`reset_peak`].
    pub peak: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Start a new high-water mark at what is allocated now, and return that
/// reading. The peak of an interval is then `snapshot().peak` at its end
/// minus `live` at its start: what the interval added on top of what its
/// caller already held. Call it while no other thread allocates.
pub fn reset_peak() -> Snapshot {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    snapshot()
}

impl Snapshot {
    /// Bytes and calls requested between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> (u64, u64) {
        (self.bytes - earlier.bytes, self.calls - earlier.calls)
    }
}

/// The counters are process-global and `cargo test` runs tests on parallel
/// threads: every test that reads them, and every test elsewhere in the
/// crate that allocates megabytes, holds this lock meanwhile.
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A test that failed while holding it poisons nothing: there is no data.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests that do not take `serial()` allocate nothing near a
    // megabyte, so sizes this large stand out of their noise.
    const NOISE: u64 = 1 << 20;

    #[test]
    fn alloc_realloc_dealloc_balance() {
        let _g = serial();
        const A: u64 = 32 << 20;
        const B: u64 = 48 << 20;
        let before = snapshot();
        let mut v: Vec<u8> = Vec::with_capacity(A as usize);
        let held = snapshot();
        assert!(held.since(&before).0 >= A && held.calls > before.calls);
        assert!(held.live + NOISE >= before.live + A, "alloc raises live");
        v.reserve_exact(B as usize); // len 0: capacity becomes exactly B
        let grown = snapshot();
        assert!(grown.since(&held).0 >= B, "realloc counts its new size");
        assert!(
            grown.live + NOISE >= before.live + B,
            "realloc swaps A for B"
        );
        assert!(grown.live < before.live + A + B, "and does not keep A");
        drop(v);
        let after = snapshot();
        assert!(
            after.live < before.live + NOISE,
            "dealloc returns live to where it was"
        );
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let _g = serial();
        const N: usize = 64 << 20;
        let before = snapshot();
        let v = vec![1u8; N];
        std::hint::black_box(&v);
        drop(v);
        let after = snapshot();
        // Another test may free a few KiB between the two lines above.
        assert!(after.peak + NOISE >= before.live + N as u64);
        assert!(after.live < before.live + N as u64, "peak is not live");
        let (bytes, calls) = after.since(&before);
        assert!(bytes >= N as u64 && calls >= 1);
    }

    #[test]
    fn reset_peak_forgets_what_was_freed_before_it() {
        let _g = serial();
        const BIG: u64 = 64 << 20;
        const SMALL: u64 = 8 << 20;
        drop(std::hint::black_box(vec![1u8; BIG as usize]));
        let start = reset_peak();
        assert!(start.peak < start.live + NOISE, "the old peak is gone");
        drop(std::hint::black_box(vec![1u8; SMALL as usize]));
        let above = snapshot().peak - start.live;
        assert!(
            (SMALL..SMALL + NOISE).contains(&above),
            "the interval's peak is its own 8 MiB, not the earlier 64: {above}"
        );
    }
}
