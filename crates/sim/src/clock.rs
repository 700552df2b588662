//! Per-rank virtual clocks with collective synchronization.
//!
//! Every simulated MPI rank owns one slot. Blocking operations advance the
//! owning rank's clock; a collective operation synchronizes the clocks of all
//! participants to their maximum (everyone waits for the slowest) before the
//! collective's own cost is added. The structure is shared between the MPI
//! layer (communication costs) and the MPI-IO/PFS layers (I/O costs).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::time::Time;

/// Shared array of per-rank virtual clocks.
#[derive(Clone)]
pub struct SharedClocks {
    inner: Arc<Mutex<Vec<Time>>>,
    /// Per rank, in nanoseconds, when its inbound client link is next free:
    /// the end of the last read its page caches issued, which may lie ahead
    /// of its clock while a readahead is in flight. Only the rank's own
    /// thread reads or writes its entry, and it publishes nothing else, so
    /// it needs no lock — and every cached put reads and writes it.
    links: Arc<[AtomicU64]>,
}

impl SharedClocks {
    /// Create clocks for `nprocs` ranks, all at `Time::ZERO`.
    pub fn new(nprocs: usize) -> SharedClocks {
        SharedClocks {
            inner: Arc::new(Mutex::new(vec![Time::ZERO; nprocs])),
            links: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// When `rank`'s client link is free to carry its next read.
    pub fn link_free(&self, rank: usize) -> Time {
        Time::from_nanos(self.links[rank].load(Ordering::Relaxed))
    }

    /// Record that `rank`'s client link carries reads until `t`.
    pub fn set_link_free(&self, rank: usize, t: Time) {
        self.links[rank].store(t.as_nanos(), Ordering::Relaxed);
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if there are no ranks (never the case in a real world).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current virtual time of `rank`.
    pub fn now(&self, rank: usize) -> Time {
        self.inner.lock()[rank]
    }

    /// Advance `rank`'s clock by `dt` and return the new time.
    pub fn advance(&self, rank: usize, dt: Time) -> Time {
        let mut g = self.inner.lock();
        g[rank] += dt;
        g[rank]
    }

    /// Move `rank`'s clock forward to `t` if `t` is later (never backwards).
    pub fn advance_to(&self, rank: usize, t: Time) -> Time {
        let mut g = self.inner.lock();
        g[rank] = g[rank].max(t);
        g[rank]
    }

    /// Synchronize the given ranks to `max(clock) + extra`, returning the
    /// resulting common time. This is the clock effect of a collective.
    pub fn sync_max(&self, ranks: &[usize], extra: Time) -> Time {
        let mut g = self.inner.lock();
        let mut m = Time::ZERO;
        for &r in ranks {
            m = m.max(g[r]);
        }
        let t = m + extra;
        for &r in ranks {
            g[r] = t;
        }
        t
    }

    /// Maximum clock over all ranks — the virtual makespan of the run.
    pub fn makespan(&self) -> Time {
        self.inner
            .lock()
            .iter()
            .copied()
            .fold(Time::ZERO, Time::max)
    }

    /// Reset every clock, and every link, to zero (used between benchmark
    /// phases).
    pub fn reset(&self) {
        for t in self.inner.lock().iter_mut() {
            *t = Time::ZERO;
        }
        for link in self.links.iter() {
            link.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshot of all clocks.
    pub fn snapshot(&self) -> Vec<Time> {
        self.inner.lock().clone()
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
}
