//! The process's one byte pool: freed buffers kept for the next user of
//! their size, so their pages stay resident instead of leaving glibc's
//! mmap and trim thresholds to decide whether the next user faults them
//! in afresh.
//!
//! It has two users. [`crate::storage::StripeStore`] gives it the stripes
//! of a removed file or a dropped store and takes a stripe's buffer at its
//! first write; core's queue of nonblocking puts stages each `iput` into a
//! buffer it takes here and gives every one back when the wait call has
//! flushed them. Free lists are kept per exact size, and a buffer is
//! allocated only when the list of its size is empty, so the pool never
//! holds more buffers of a size than were live at once earlier in the
//! process: it needs no cap and has no knob.
//!
//! A pooled buffer holds whatever its last user left in it. A taker
//! overwrites every byte it will read.
//!
//! [`advise_huge`] serves the buffers the pool does not hold: a large one
//! the library allocates fresh for a get to fill asks for transparent huge
//! pages, so its first touch takes one fault per 2 MiB instead of one per
//! 4 KiB.

use std::collections::BTreeMap;

use parking_lot::Mutex;

/// Freed buffers of the process, by size.
pub(crate) static POOL: Mutex<BTreeMap<usize, Vec<Box<[u8]>>>> = Mutex::new(BTreeMap::new());

/// A buffer of `len` bytes: a pooled one, holding its last user's bytes,
/// or a fresh zeroed one when the pool has none of that size.
pub fn take(len: usize) -> Vec<u8> {
    reuse(len).unwrap_or_else(|| vec![0u8; len])
}

/// A pooled buffer of `len` bytes, if the pool has one: for a taker that
/// needs to know, as a stripe's first write does, whether the buffer is
/// zeroed already.
pub(crate) fn reuse(len: usize) -> Option<Vec<u8>> {
    Some(POOL.lock().get_mut(&len)?.pop()?.into_vec())
}

/// Keep `buf` for the next [`take`] of its capacity. A buffer its user
/// left shorter than that (a conversion that failed partway) is filled out
/// to it, so whatever takes it gets every byte it asked for.
pub fn give(mut buf: Vec<u8>) {
    let size = buf.capacity();
    if size == 0 {
        return;
    }
    buf.resize(size, 0);
    let buf = buf.into_boxed_slice();
    POOL.lock().entry(size).or_default().push(buf);
}

/// The smallest buffer [`advise_huge`] advises, NumPy's threshold for its
/// own arrays.
const HUGE_MIN: usize = 4 << 20;

/// The bytes of a `len`-byte buffer at `addr` that [`advise_huge`]
/// advises, as (start, length): from its first 4 KiB page boundary to its
/// last, which covers every whole 2 MiB extent of the buffer. `None` below
/// [`HUGE_MIN`].
fn huge_range(addr: usize, len: usize) -> Option<(usize, usize)> {
    const PAGE: usize = 4096;
    if len < HUGE_MIN {
        return None;
    }
    let start = addr.next_multiple_of(PAGE);
    let end = (addr + len) / PAGE * PAGE;
    Some((start, end - start))
}

/// Ask the kernel to back `buf`, a buffer the library has just allocated
/// and not yet written, with transparent huge pages, if it is at least
/// 4 MiB: its first touch then faults 2 MiB at a time instead of 4 KiB.
/// Advice only: no byte changes. A kernel with huge pages off takes it
/// and backs the buffer with small pages, or, built without them, refuses
/// it; either leaves the buffer as it was. Does nothing off Linux.
pub fn advise_huge(buf: &mut [u8]) {
    #[cfg(target_os = "linux")]
    if let Some((start, len)) = huge_range(buf.as_mut_ptr() as usize, buf.len()) {
        use std::ffi::{c_int, c_void};
        const MADV_HUGEPAGE: c_int = 14;
        unsafe extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        // SAFETY: `huge_range` puts [start, start + len) inside `buf`,
        // memory this exclusive borrow owns, and page-aligns `start` as
        // madvise requires. MADV_HUGEPAGE changes no byte and no mapping's
        // validity, only how the kernel backs the pages, so no reference
        // into `buf` or anywhere else is affected. A refusal leaves the
        // memory as it was, so the result is not read.
        unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = buf;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Buffers of `size` bytes in the pool.
    fn held(size: usize) -> usize {
        POOL.lock().get(&size).map_or(0, Vec::len)
    }

    #[test]
    fn a_given_buffer_serves_the_next_take_of_its_size() {
        // Sizes no other test uses: nothing else takes from or gives to
        // their lists while this test runs.
        const S: usize = 4091;
        let mut buf = take(S);
        assert_eq!(buf.len(), S);
        buf.fill(0x5A);
        let at = buf.as_ptr();
        give(buf);
        let again = take(S);
        assert_eq!(again.as_ptr(), at, "the take allocated");
        assert_eq!(again.len(), S);
        assert!(again.iter().all(|&b| b == 0x5A), "the bytes moved");
        give(again);
        // A buffer left short goes back at its capacity, filled out to it.
        let mut short = take(S);
        short.truncate(7);
        give(short);
        let full = take(S);
        assert_eq!((full.as_ptr(), full.len()), (at, S));
        assert!(full[7..].iter().all(|&b| b == 0), "the tail is not zeroed");
        give(full);
        // An empty vector owns no buffer and leaves no list.
        give(Vec::new());
        assert_eq!(held(0), 0);
    }

    #[test]
    fn a_size_is_never_held_beyond_its_live_peak() {
        const S: usize = 4079;
        let cycle = |n: usize| (0..n).map(|_| take(S)).collect::<Vec<_>>();
        cycle(3).into_iter().for_each(give);
        assert_eq!(held(S), 3);
        for _ in 0..4 {
            let live = cycle(2);
            assert_eq!(held(S), 1);
            live.into_iter().for_each(give);
            assert_eq!(held(S), 3, "a smaller peak grew the list");
        }
        cycle(5).into_iter().for_each(give);
        assert_eq!(held(S), 5, "the list is not the new peak");
        assert_eq!(held(S + 1), 0, "another size's list filled");
    }

    #[test]
    fn the_advised_range_is_whole_pages_inside_the_buffer() {
        const PAGE: usize = 4096;
        const EXTENT: usize = 2 << 20;
        assert_eq!(huge_range(PAGE, HUGE_MIN - 1), None);
        assert_eq!(huge_range(0x7f00_0000_0010, HUGE_MIN - 1), None);
        assert_eq!(huge_range(PAGE, HUGE_MIN), Some((PAGE, HUGE_MIN)));
        for addr in [
            0x7f00_0000_0010,
            0x7f00_001f_f001,
            0x7f00_0020_0000,
            0x7f00_0000_0fff,
        ] {
            for len in [
                HUGE_MIN,
                HUGE_MIN + 12,
                (32 << 20) + 4096 - 16,
                (9 << 20) + 3,
            ] {
                let (start, n) = huge_range(addr, len).expect("a buffer of at least 4 MiB");
                assert_eq!(start % PAGE, 0, "start {start:#x} of {addr:#x}+{len}");
                assert_eq!(n % PAGE, 0, "length {n} of {addr:#x}+{len}");
                assert!(start >= addr && start + n <= addr + len, "{addr:#x}+{len}");
                // Every 2 MiB extent wholly inside the buffer is advised.
                let first = addr.next_multiple_of(EXTENT);
                let extents = (addr + len).saturating_sub(first) / EXTENT;
                assert!(extents >= 1, "{addr:#x}+{len} holds no whole extent");
                assert!(
                    start <= first && first + extents * EXTENT <= start + n,
                    "{addr:#x}+{len}"
                );
            }
        }
    }

    #[test]
    fn advice_changes_no_byte() {
        let pattern = |i: usize| (i * 31 + i / 4093) as u8;
        let mut buf: Vec<u8> = (0..8 << 20).map(pattern).collect();
        advise_huge(&mut buf);
        advise_huge(&mut buf[5..]);
        assert!(
            buf.iter().enumerate().all(|(i, &b)| b == pattern(i)),
            "advice moved a byte"
        );
    }
}
