//! Per-rank virtual clocks with collective synchronization.
//!
//! Every simulated MPI rank owns one slot. Blocking operations advance the
//! owning rank's clock; a collective operation synchronizes the clocks of all
//! participants to their maximum (everyone waits for the slowest) before the
//! collective's own cost is added. The structure is shared between the MPI
//! layer (communication costs) and the MPI-IO/PFS layers (I/O costs).
//!
//! # Why no lock
//!
//! A slot is two atomics, the rank's clock and its client link, and every
//! access is `Relaxed`. That is enough because a slot has one writer at a
//! time: its own rank, or a collective's finisher while that rank is parked
//! in the rendezvous ([`SharedClocks::sync_max`] and the collective I/O that
//! sets the group's clocks). The rendezvous's mutex orders the rank's last
//! write before the finisher's reads and writes, and those before the
//! rank's first read after it wakes; `run_world` joins the rank threads
//! before it reads [`SharedClocks::makespan`] and
//! [`SharedClocks::snapshot`]. So every read sees the latest write to the
//! slot, and an update needs no read-modify-write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::Time;

/// One rank's slot, on a cache line of its own so ranks running in parallel
/// do not contend for one line.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    /// The rank's virtual clock, in nanoseconds.
    clock: AtomicU64,
    /// When the rank's inbound client link is next free, in nanoseconds:
    /// the end of the last read its page caches issued, which may lie ahead
    /// of its clock while a readahead is in flight.
    link: AtomicU64,
}

/// Shared array of per-rank virtual clocks.
#[derive(Clone)]
pub struct SharedClocks {
    slots: Arc<[Slot]>,
}

impl SharedClocks {
    /// Create clocks for `nprocs` ranks, all at `Time::ZERO`.
    pub fn new(nprocs: usize) -> SharedClocks {
        SharedClocks {
            slots: (0..nprocs).map(|_| Slot::default()).collect(),
        }
    }

    /// When `rank`'s client link is free to carry its next read.
    pub fn link_free(&self, rank: usize) -> Time {
        Time::from_nanos(self.slots[rank].link.load(Ordering::Relaxed))
    }

    /// Record that `rank`'s client link carries reads until `t`.
    pub fn set_link_free(&self, rank: usize, t: Time) {
        self.slots[rank].link.store(t.as_nanos(), Ordering::Relaxed);
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no ranks (never the case in a real world).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> Time {
        Time::from_nanos(self.slots[rank].clock.load(Ordering::Relaxed))
    }

    fn set(&self, rank: usize, t: Time) -> Time {
        self.slots[rank]
            .clock
            .store(t.as_nanos(), Ordering::Relaxed);
        t
    }

    /// Advance `rank`'s clock by `dt` and return the new time.
    pub fn advance(&self, rank: usize, dt: Time) -> Time {
        self.set(rank, self.now(rank) + dt)
    }

    /// Move `rank`'s clock forward to `t` if `t` is later (never backwards).
    pub fn advance_to(&self, rank: usize, t: Time) -> Time {
        self.set(rank, self.now(rank).max(t))
    }

    /// Synchronize the given ranks to `max(clock) + extra`, returning the
    /// resulting common time. This is the clock effect of a collective.
    pub fn sync_max(&self, ranks: &[usize], extra: Time) -> Time {
        let m = ranks
            .iter()
            .map(|&r| self.now(r))
            .fold(Time::ZERO, Time::max);
        let t = m + extra;
        for &r in ranks {
            self.set(r, t);
        }
        t
    }

    /// Maximum clock over all ranks — the virtual makespan of the run.
    pub fn makespan(&self) -> Time {
        self.snapshot().into_iter().fold(Time::ZERO, Time::max)
    }

    /// Reset every clock, and every link, to zero (used between benchmark
    /// phases).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.clock.store(0, Ordering::Relaxed);
            slot.link.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of all clocks.
    pub fn snapshot(&self) -> Vec<Time> {
        (0..self.len()).map(|r| self.now(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_now() {
        let c = SharedClocks::new(3);
        assert_eq!(c.now(1), Time::ZERO);
        c.advance(1, Time::from_micros(5));
        assert_eq!(c.now(1), Time::from_micros(5));
        assert_eq!(c.now(0), Time::ZERO);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SharedClocks::new(1);
        c.advance(0, Time::from_millis(10));
        c.advance_to(0, Time::from_millis(5));
        assert_eq!(c.now(0), Time::from_millis(10));
        c.advance_to(0, Time::from_millis(20));
        assert_eq!(c.now(0), Time::from_millis(20));
    }

    #[test]
    fn sync_max_aligns_participants() {
        let c = SharedClocks::new(4);
        c.advance(0, Time::from_millis(1));
        c.advance(2, Time::from_millis(7));
        let t = c.sync_max(&[0, 1, 2], Time::from_micros(100));
        assert_eq!(t, Time::from_millis(7) + Time::from_micros(100));
        assert_eq!(c.now(0), t);
        assert_eq!(c.now(1), t);
        assert_eq!(c.now(2), t);
        // Rank 3 did not participate.
        assert_eq!(c.now(3), Time::ZERO);
    }

    #[test]
    fn makespan_and_reset() {
        let c = SharedClocks::new(2);
        c.advance(1, Time::from_millis(3));
        assert_eq!(c.makespan(), Time::from_millis(3));
        c.set_link_free(0, Time::from_millis(4));
        c.reset();
        assert_eq!(c.makespan(), Time::ZERO);
        assert_eq!(c.link_free(0), Time::ZERO);
    }

    #[test]
    fn threads_advance_their_own_ranks_exactly() {
        // Each thread owns one rank and moves it with both calls; then a
        // subset synchronizes. With no lock, nothing may be lost or mixed.
        for n in 2..=8usize {
            let c = SharedClocks::new(n);
            std::thread::scope(|s| {
                for r in 0..n {
                    let c = &c;
                    s.spawn(move || {
                        for i in 1..=10_000u64 {
                            c.advance(r, Time::from_nanos(r as u64 + 1));
                            c.advance_to(r, Time::from_nanos(2 * i * (r as u64 + 1)));
                            c.advance_to(r, Time::ZERO);
                            c.set_link_free(r, Time::from_nanos(i));
                        }
                    });
                }
            });
            let expect = |r: usize| Time::from_nanos(20_000 * (r as u64 + 1));
            let snap: Vec<Time> = (0..n).map(expect).collect();
            assert_eq!(c.snapshot(), snap);
            assert_eq!(c.makespan(), expect(n - 1));
            let subset: Vec<usize> = (0..n).step_by(2).collect();
            let t = c.sync_max(&subset, Time::from_nanos(7));
            assert_eq!(t, expect(*subset.last().unwrap()) + Time::from_nanos(7));
            for r in 0..n {
                let want = if r % 2 == 0 { t } else { expect(r) };
                assert_eq!(c.now(r), want, "rank {r} of {n}");
                assert_eq!(c.link_free(r), Time::from_nanos(10_000));
            }
            assert_eq!(c.makespan(), t.max(expect(n - 1)));
            c.reset();
            assert_eq!(c.snapshot(), vec![Time::ZERO; n]);
            assert!((0..n).all(|r| c.link_free(r) == Time::ZERO));
        }
    }
}
