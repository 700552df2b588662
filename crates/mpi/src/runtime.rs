//! The SPMD runtime: spawn `nprocs` ranks as threads and run a closure on
//! each, exactly as `mpirun -np P ./prog` would start P processes.
//!
//! If any rank panics, the world is *poisoned*: the flag is set, every
//! blocked receiver and collective waiter is woken and returns
//! [`crate::error::MpiError::Poisoned`], and [`run_world`] re-raises the original panic
//! after all threads have exited — a hung test instead becomes a failed one.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hpc_sim::{SharedClocks, SimConfig, Time};

use crate::collective::CollContext;
use crate::comm::Comm;
use crate::p2p::Mailbox;

pub(crate) struct WorldInner {
    pub nprocs: usize,
    /// One shared handle: every collective's [`crate::CollEnv`] clones the
    /// `Arc`, never the configuration (whose fault plan owns a `Vec`).
    pub config: Arc<SimConfig>,
    pub clocks: SharedClocks,
    pub mailboxes: Vec<Mailbox>,
    pub poisoned: Arc<AtomicBool>,
    /// All live collective contexts, so poisoning can wake their waiters.
    pub contexts: Mutex<Vec<Arc<CollContext>>>,
    next_ctx_id: AtomicU64,
}

impl WorldInner {
    pub fn new_context(&self, size: usize) -> Arc<CollContext> {
        let id = self.next_ctx_id.fetch_add(1, Ordering::Relaxed);
        let ctx = Arc::new(CollContext::new(id, size, self.poisoned.clone()));
        self.contexts.lock().push(ctx.clone());
        ctx
    }

    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            mb.poison_notify();
        }
        for ctx in self.contexts.lock().iter() {
            ctx.poison_notify();
        }
    }
}

/// Everything a finished world run reports back.
pub struct WorldRun<T> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<T>,
    /// The virtual makespan: `max` over all rank clocks at exit.
    pub makespan: Time,
    /// Final per-rank virtual clocks.
    pub clocks: Vec<Time>,
}

/// Run `body` on `nprocs` ranks (threads) under `config`, returning each
/// rank's result plus the virtual-time accounting.
///
/// `body` receives this rank's `MPI_COMM_WORLD` handle. Panics in any rank
/// poison the world and are re-raised here.
pub fn run_world<T, F>(nprocs: usize, config: SimConfig, body: F) -> WorldRun<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(nprocs > 0, "a world needs at least one rank");
    let inner = Arc::new(WorldInner {
        nprocs,
        config: Arc::new(config),
        clocks: SharedClocks::new(nprocs),
        mailboxes: (0..nprocs).map(|_| Mailbox::new()).collect(),
        poisoned: Arc::new(AtomicBool::new(false)),
        contexts: Mutex::new(Vec::new()),
        next_ctx_id: AtomicU64::new(1),
    });
    // One shared context for MPI_COMM_WORLD.
    let world_ctx = inner.new_context(nprocs);

    let results: Vec<T> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nprocs)
            .map(|rank| {
                let inner = inner.clone();
                let world_ctx = world_ctx.clone();
                let body = &body;
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(2 * 1024 * 1024)
                    .spawn_scoped(s, move || {
                        struct Guard<'a>(&'a WorldInner);
                        impl Drop for Guard<'_> {
                            fn drop(&mut self) {
                                if std::thread::panicking() {
                                    self.0.poison();
                                }
                            }
                        }
                        let _g = Guard(&inner);
                        let mut comm = Comm::world(inner.clone(), world_ctx, rank);
                        body(&mut comm)
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });

    WorldRun {
        makespan: inner.clocks.makespan(),
        clocks: inner.clocks.snapshot(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let run = run_world(1, SimConfig::test_small(), |c| {
            assert_eq!(c.rank(), 0);
            assert_eq!(c.size(), 1);
            42u32
        });
        assert_eq!(run.results, vec![42]);
    }

    #[test]
    fn ranks_are_distinct() {
        let run = run_world(8, SimConfig::test_small(), |c| c.rank());
        assert_eq!(run.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "rank 3 exploded")]
    fn panic_in_one_rank_propagates() {
        run_world(4, SimConfig::test_small(), |c| {
            if c.rank() == 3 {
                panic!("rank 3 exploded");
            }
            // Other ranks block in a collective; poisoning must wake them.
            let _ = c.barrier();
        });
    }
}
