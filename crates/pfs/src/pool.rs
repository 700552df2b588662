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
}
