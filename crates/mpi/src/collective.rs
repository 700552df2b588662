//! The collective rendezvous primitive.
//!
//! Every collective operation in this MPI reduces to one generic pattern:
//! all members of a communicator *lend* the rendezvous a [`Loan`] (a typed
//! descriptor, a gather list of payload segments to read, a destination to
//! fill and two plain words),
//! the *last* member to arrive runs a `finish` closure over every member's
//! loan (this is where clocks are synchronized, costs are charged, and —
//! for collective I/O — the file system is driven deterministically), and
//! every member receives a shared `Arc` to the closure's result.
//!
//! Nothing a member lends is copied: it stays where the member keeps it,
//! and the member stays blocked inside [`CollContext::rendezvous`] until
//! `finish` has returned, so the finisher may read `src` and write `dst`
//! of every member in place.
//!
//! The slot is generation-counted so it can be reused immediately: a rank
//! collects its result under the same lock acquisition in which it observes
//! the generation bump, so a later generation can never overwrite a result
//! that has not been read by everyone. The last rank to collect drops the
//! slot's reference, so a result lives no longer than its callers keep it.

use parking_lot::{Condvar, Mutex};
use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{MpiError, MpiResult};

/// What one member lends to a collective for its duration.
///
/// `M` describes the request (`()` for a barrier, `[(u64, u64)]` file runs
/// for collective I/O); it is `'static`, so a loan can hold no borrow but
/// its own three (the segments `src` lists are borrowed for `'a` too), and
/// all three are covariant in `'a` — which is what lets the finisher view
/// every member's loan at one common, shorter lifetime.
pub struct Loan<'a, M: ?Sized> {
    /// The typed description of this member's request.
    pub meta: &'a M,
    /// Bytes this member contributes, as a gather list: the payload is the
    /// segments laid end to end, each read where the member keeps it. A
    /// contiguous payload is a list of one; a member that sends nothing
    /// lends an empty list.
    pub src: &'a [&'a [u8]],
    /// Where this member wants bytes delivered (empty when it expects none).
    pub dst: &'a mut [u8],
    /// A caller-defined word that rides along (the MPI-IO layer sends the
    /// member's trace id: thread-local context cannot cross the rendezvous).
    pub tag: u64,
    /// A second caller-defined word, as opaque to this crate as `tag` (the
    /// MPI-IO layer sends the element width the segments of `src` are to be
    /// read with: it rides on to the file system, which converts the
    /// elements to the file's byte order as it stores them).
    pub aux: u64,
}

impl<'a, M: ?Sized> Loan<'a, M> {
    /// Lend a description and no bytes: the finisher reads `meta` where
    /// the member keeps it.
    pub fn describe(meta: &'a M) -> Loan<'a, M> {
        Loan {
            meta,
            src: &[],
            dst: &mut [],
            tag: 0,
            aux: 0,
        }
    }
}

impl Loan<'static, ()> {
    /// The loan of a collective that moves nothing (barrier, open, sync).
    pub fn nothing() -> Loan<'static, ()> {
        Loan::send(&[])
    }
}

impl<'a> Loan<'a, ()> {
    /// Lend the segments of `src` for reading and nothing else.
    pub fn send(src: &'a [&'a [u8]]) -> Loan<'a, ()> {
        Loan {
            meta: &(),
            src,
            dst: &mut [],
            tag: 0,
            aux: 0,
        }
    }
}

/// One member's entry in the slot: the address of the `Option<Loan<'_, M>>`
/// it keeps on its own stack while blocked, and the `M` it was built with.
struct Lent {
    at: *mut (),
    meta_type: TypeId,
}

// SAFETY: `at` is only ever dereferenced by the finisher under the slot
// mutex, as an `Option<Loan<'_, M>>` with `M: Sync` (checked against
// `meta_type`): a `Loan` is then `Send` (`&M`, `&[&[u8]]`, `&mut [u8]` and
// two `u64`s), so taking it from another thread is sound. `meta_type` is
// plain data.
unsafe impl Send for Lent {}

/// Published instead of a result when members lent different `M`s; no `R`
/// can be this type, so every waiter's downcast fails with a mismatch error.
struct LoanMismatch;

struct CollState {
    gen: u64,
    arrived: usize,
    lent: Vec<Option<Lent>>,
    result: Option<Arc<dyn Any + Send + Sync>>,
    /// Members that have yet to collect `result`.
    readers: usize,
}

/// Rendezvous state shared by the members of one communicator.
pub struct CollContext {
    /// Unique id; doubles as the communicator id for point-to-point matching.
    pub id: u64,
    size: usize,
    m: Mutex<CollState>,
    cv: Condvar,
    poisoned: Arc<AtomicBool>,
}

/// Poisons the context if `finish` unwinds, so the members it would have
/// released return [`MpiError::Poisoned`] instead of waiting forever.
struct PoisonOnUnwind<'a>(&'a CollContext);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
            self.0.cv.notify_all();
        }
    }
}

impl CollContext {
    pub(crate) fn new(id: u64, size: usize, poisoned: Arc<AtomicBool>) -> CollContext {
        CollContext {
            id,
            size,
            m: Mutex::new(CollState {
                gen: 0,
                arrived: 0,
                lent: (0..size).map(|_| None).collect(),
                result: None,
                readers: 0,
            }),
            cv: Condvar::new(),
            poisoned,
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Wake all waiters so they can observe the poison flag.
    pub(crate) fn poison_notify(&self) {
        self.cv.notify_all();
    }

    /// Enter the collective as member `me`, lending `loan` until the call
    /// returns. The last arriver runs `finish` on every member's loan
    /// (indexed by member); everyone gets an `Arc` of the result.
    ///
    /// All members must pass the same `M` and a type-compatible `R` (SPMD
    /// discipline); a mismatch yields [`MpiError::CollectiveMismatch`].
    /// A member that finds the world poisoned withdraws its loan and
    /// returns [`MpiError::Poisoned`]; `finish` never sees a withdrawn loan.
    pub fn rendezvous<M, R, F>(&self, me: usize, loan: Loan<'_, M>, finish: F) -> MpiResult<Arc<R>>
    where
        M: ?Sized + Sync + 'static,
        R: Send + Sync + 'static,
        F: for<'x> FnOnce(&mut [Loan<'x, M>]) -> R,
    {
        let mut g = self.m.lock();
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(MpiError::Poisoned);
        }
        let my_gen = g.gen;
        assert!(
            g.lent[me].is_none(),
            "rank {me} entered a collective twice concurrently"
        );
        // The loan stays in this frame; the slot only learns where. From
        // here until the entry is removed again — by the finisher, or by
        // this member withdrawing — this frame neither touches `mine` nor
        // returns.
        let mut mine = Some(loan);
        g.lent[me] = Some(Lent {
            at: (&raw mut mine).cast(),
            meta_type: TypeId::of::<M>(),
        });
        g.arrived += 1;

        if g.arrived == self.size {
            // Last arriver. Empty the slot first: whatever happens below,
            // no address of a member's stack outlives this lock hold.
            g.arrived = 0;
            let same_meta = (g.lent.iter().flatten()).all(|e| e.meta_type == TypeId::of::<M>());
            let entries = g.lent.iter_mut().map(|e| e.take().expect("all arrived"));
            let published: Arc<dyn Any + Send + Sync>;
            let outcome: MpiResult<Arc<R>>;
            if !same_meta {
                entries.for_each(drop);
                published = Arc::new(LoanMismatch);
                outcome = Err(MpiError::CollectiveMismatch(
                    "loan type mismatch across ranks".into(),
                ));
            } else {
                let _poison = PoisonOnUnwind(self);
                // SAFETY: each `at` was stored, under this mutex, by a
                // member inside this function, and points at the live
                // `Option<Loan<'_, M>>` of that member's frame:
                // * type — the member's `M` is ours (`meta_type`, checked
                //   just above), and `Loan<'a, M>` is covariant in `'a`
                //   with `M: 'static` (`src: &'a [&'a [u8]]` is a shared
                //   borrow of shared borrows, covariant at both levels), so
                //   reading each at the one lifetime `'x` of this block
                //   only shortens borrows;
                // * liveness — a member leaves its frame only after seeing
                //   `gen` move on (stored below, after `loans` is dropped)
                //   or after withdrawing its entry on poison; either takes
                //   this mutex, which we hold from before the entries were
                //   taken until after `loans` is gone. A withdrawn entry is
                //   no longer in the slot, so it is never read;
                // * exclusivity — a blocked member does not touch its
                //   `mine`, and each entry is taken exactly once, so every
                //   `Loan` (and its `&mut dst`) has one owner: `loans`; the
                //   list `src` and the segments it names are only read, by
                //   the finisher and — at most — by their blocked owner;
                // * no escape — `finish` is higher-ranked in `'x` and `R`
                //   is `'static`, so nothing borrowed from a loan can be
                //   kept past `finish`, and `M: 'static` leaves a loan
                //   nowhere to hide another member's borrow;
                // * unwinding — if `finish` panics, `loans` (declared after
                //   `g`) is dropped before the mutex is released, the slot
                //   is already empty with `gen` unmoved, and the members
                //   still blocked find their entry gone when poison wakes
                //   them and return without touching anything.
                let mut loans: Vec<Loan<'_, M>> = entries
                    .map(|e| unsafe {
                        (*e.at.cast::<Option<Loan<'_, M>>>())
                            .take()
                            .expect("a lent entry holds its loan")
                    })
                    .collect();
                let r = Arc::new(finish(&mut loans));
                drop(loans);
                published = r.clone();
                outcome = Ok(r);
            }
            g.readers = self.size - 1;
            g.result = (g.readers > 0).then_some(published);
            g.gen = g.gen.wrapping_add(1);
            self.cv.notify_all();
            return outcome;
        }

        while g.gen == my_gen {
            if self.poisoned.load(Ordering::SeqCst) {
                // Withdraw under the lock (unless a panicking finisher
                // already emptied the slot): after this nobody can reach
                // `mine`, so the frame may go.
                if g.lent[me].take().is_some() {
                    g.arrived -= 1;
                }
                return Err(MpiError::Poisoned);
            }
            self.cv.wait(&mut g);
        }
        let any = g.result.clone().expect("result published with gen bump");
        g.readers -= 1;
        if g.readers == 0 {
            g.result = None;
        }
        drop(g);
        any.downcast::<R>()
            .map_err(|_| MpiError::CollectiveMismatch("type mismatch across ranks".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ctx(n: usize) -> Arc<CollContext> {
        Arc::new(CollContext::new(0, n, Arc::new(AtomicBool::new(false))))
    }

    /// Block until `n` members are waiting in `c` (a spin on the slot, not
    /// a sleep on a guess).
    fn wait_for_arrivals(c: &CollContext, n: usize) {
        while c.m.lock().arrived < n {
            thread::yield_now();
        }
    }

    fn slot_is_empty(c: &CollContext) -> bool {
        let g = c.m.lock();
        g.arrived == 0 && g.lent.iter().all(Option::is_none)
    }

    #[test]
    fn all_members_see_same_result() {
        let c = ctx(4);
        let outs: Vec<u64> = thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || {
                        let mine = [r as u8];
                        let res = c
                            .rendezvous(r, Loan::send(&[&mine]), |loans| {
                                loans.iter().map(|l| l.src[0][0] as u64).sum::<u64>()
                            })
                            .unwrap();
                        *res
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outs, vec![6, 6, 6, 6]);
    }

    #[test]
    fn slot_is_reusable_across_rounds() {
        let c = ctx(3);
        let outs: Vec<Vec<u64>> = thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for round in 0..50u64 {
                            let mine = round.to_ne_bytes();
                            let res = c
                                .rendezvous(r, Loan::send(&[&mine]), |loans| {
                                    loans
                                        .iter()
                                        .map(|l| u64::from_ne_bytes(l.src[0].try_into().unwrap()))
                                        .sum::<u64>()
                                })
                                .unwrap();
                            got.push(*res);
                        }
                        got
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in outs {
            let expect: Vec<u64> = (0..50).map(|r| r * 3).collect();
            assert_eq!(o, expect);
        }
    }

    #[test]
    fn poisoned_context_errors() {
        let flag = Arc::new(AtomicBool::new(true));
        let c = CollContext::new(0, 2, flag);
        assert!(matches!(
            c.rendezvous(0, Loan::nothing(), |_| 0u8),
            Err(MpiError::Poisoned)
        ));
    }

    /// The finisher reads every member's `src` and `meta` where the member
    /// keeps them and fills every member's `dst` in place.
    #[test]
    fn loans_are_read_and_filled_in_place() {
        let c = ctx(3);
        let outs: Vec<Vec<u8>> = thread::scope(|s| {
            let hs: Vec<_> = (0..3usize)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || {
                        let runs = [(r as u64, 2u64)];
                        let src = vec![r as u8 + 1; 2];
                        let mut dst = vec![0u8; 3];
                        let loan = Loan {
                            meta: &runs[..],
                            src: &[&src],
                            dst: &mut dst,
                            tag: 10 + r as u64,
                            aux: 20 + r as u64,
                        };
                        c.rendezvous(r, loan, |loans: &mut [Loan<'_, [(u64, u64)]>]| {
                            // Rotate: member i receives member i+1's word.
                            let words: Vec<u8> = loans
                                .iter()
                                .map(|l| {
                                    l.src[0][0] + l.meta[0].0 as u8 + l.tag as u8 + l.aux as u8
                                })
                                .collect();
                            for (i, l) in loans.iter_mut().enumerate() {
                                l.dst.fill(words[(i + 1) % 3]);
                            }
                        })
                        .unwrap();
                        dst
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // word(r) = (r + 1) + r + (10 + r) + (20 + r).
        assert_eq!(outs, vec![vec![35; 3], vec![39; 3], vec![31; 3]]);
        assert!(slot_is_empty(&c));
    }

    /// The slot drops its reference once the last member has collected the
    /// result: afterwards only the callers' own handles keep it alive.
    #[test]
    fn result_is_released_after_the_last_reader() {
        let c = ctx(3);
        let payload = Arc::new(vec![7u8; 64]);
        let results: Vec<Arc<Arc<Vec<u8>>>> = thread::scope(|s| {
            let hs: Vec<_> = (0..3)
                .map(|r| {
                    let c = c.clone();
                    let payload = payload.clone();
                    s.spawn(move || c.rendezvous(r, Loan::nothing(), move |_| payload).unwrap())
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(c.m.lock().result.is_none(), "slot still holds the result");
        // One outer Arc shared by the three callers, holding one handle on
        // the payload next to ours.
        assert_eq!(Arc::strong_count(&results[0]), 3);
        assert_eq!(Arc::strong_count(&payload), 2);
        drop(results);
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn loan_type_mismatch_is_an_error_on_every_member() {
        let c = ctx(2);
        let (a, b) = thread::scope(|s| {
            let c0 = c.clone();
            let a = s.spawn(move || c0.rendezvous(0, Loan::nothing(), |_| 1u8).map(|r| *r));
            let c1 = c.clone();
            let b = s.spawn(move || {
                let runs = [(0u64, 1u64)];
                let loan = Loan {
                    meta: &runs[..],
                    src: &[],
                    dst: &mut [],
                    tag: 0,
                    aux: 0,
                };
                c1.rendezvous(1, loan, |_| 1u8).map(|r| *r)
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(matches!(a, Err(MpiError::CollectiveMismatch(_))), "{a:?}");
        assert!(matches!(b, Err(MpiError::CollectiveMismatch(_))), "{b:?}");
        assert!(slot_is_empty(&c));
    }

    /// A member blocked with its buffers lent is woken by poison, withdraws,
    /// and `finish` never runs on what it lent.
    #[test]
    fn poisoned_waiters_withdraw_their_loans() {
        let flag = Arc::new(AtomicBool::new(false));
        let c = Arc::new(CollContext::new(0, 3, flag.clone()));
        let ran = AtomicBool::new(false);
        let outs: Vec<MpiResult<()>> = thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|r| {
                    let (c, ran) = (c.clone(), &ran);
                    s.spawn(move || {
                        let src = vec![r as u8; 1 << 16];
                        let mut dst = vec![0u8; 1 << 16];
                        let loan = Loan {
                            meta: &(),
                            src: &[&src],
                            dst: &mut dst,
                            tag: 0,
                            aux: 0,
                        };
                        let res = c.rendezvous(r, loan, |_| ran.store(true, Ordering::SeqCst));
                        assert!(dst.iter().all(|&b| b == 0), "dst written after withdrawal");
                        res.map(|_| ())
                    })
                })
                .collect();
            // Member 2 never arrives: it "dies" and the world is poisoned.
            wait_for_arrivals(&c, 2);
            flag.store(true, Ordering::SeqCst);
            c.poison_notify();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outs.iter().all(|o| matches!(o, Err(MpiError::Poisoned))));
        assert!(!ran.load(Ordering::SeqCst), "finish ran on withdrawn loans");
        assert!(slot_is_empty(&c), "slot keeps a dangling entry");
    }

    /// A panic inside `finish` poisons the context by itself: the members
    /// it would have released return `Poisoned`, and the slot is clean.
    #[test]
    fn panic_in_finish_releases_the_waiters() {
        let c = ctx(3);
        let outs: Vec<thread::Result<MpiResult<()>>> = thread::scope(|s| {
            let mut hs: Vec<_> = (0..2)
                .map(|r| {
                    let c = c.clone();
                    s.spawn(move || {
                        let src = vec![r as u8; 4096];
                        c.rendezvous(r, Loan::send(&[&src]), |_| ()).map(|_| ())
                    })
                })
                .collect();
            wait_for_arrivals(&c, 2);
            let c2 = c.clone();
            hs.push(s.spawn(move || {
                c2.rendezvous(2, Loan::send(&[&[9]]), |loans| -> () {
                    assert_eq!(loans[0].src[0].len(), 4096);
                    panic!("finish exploded")
                })
                .map(|_| ())
            }));
            hs.into_iter().map(|h| h.join()).collect()
        });
        assert!(matches!(outs[0], Ok(Err(MpiError::Poisoned))));
        assert!(matches!(outs[1], Ok(Err(MpiError::Poisoned))));
        assert!(outs[2].is_err(), "the finisher's panic propagates");
        assert!(slot_is_empty(&c));
        assert!(c.m.lock().result.is_none());
    }
}
