//! Integration tests for communicator semantics: collectives, point-to-point,
//! dup/split, and virtual-clock behaviour, all run in multi-rank worlds.

use hpc_sim::{SimConfig, Time};
use pnetcdf_mpi::{run_world, Loan, MpiError, ReduceOp, ANY_SOURCE, ANY_TAG};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

#[test]
fn barrier_synchronizes_clocks() {
    let run = run_world(4, cfg(), |c| {
        // Skew the clocks, then barrier.
        c.advance(Time::from_millis(c.rank() as u64));
        c.barrier().unwrap();
        c.now()
    });
    let t0 = run.results[0];
    assert!(run.results.iter().all(|&t| t == t0));
    assert!(t0 >= Time::from_millis(3));
}

#[test]
fn bcast_delivers_root_payload() {
    let run = run_world(5, cfg(), |c| {
        let mine = if c.rank() == 2 {
            vec![9, 8, 7]
        } else {
            Vec::new()
        };
        c.bcast_bytes(2, mine).unwrap()
    });
    for r in run.results {
        assert_eq!(r, vec![9, 8, 7]);
    }
}

#[test]
fn allgather_collects_in_rank_order() {
    let run = run_world(6, cfg(), |c| {
        let all = c.allgather_bytes(vec![c.rank() as u8; c.rank()]).unwrap();
        all.iter().map(Vec::len).collect::<Vec<_>>()
    });
    for r in run.results {
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }
}

#[test]
fn alltoallv_transposes() {
    let n = 4;
    let run = run_world(n, cfg(), |c| {
        // Rank i sends [i, j] to rank j.
        let parts: Vec<Vec<u8>> = (0..n).map(|j| vec![c.rank() as u8, j as u8]).collect();
        c.alltoallv_bytes(parts).unwrap()
    });
    for (j, incoming) in run.results.iter().enumerate() {
        for (i, msg) in incoming.iter().enumerate() {
            assert_eq!(msg, &vec![i as u8, j as u8]);
        }
    }
}

#[test]
fn allreduce_sum_min_max() {
    let run = run_world(7, cfg(), |c| {
        let r = c.rank() as i64;
        let sum = c.allreduce_scalar(ReduceOp::Sum, r).unwrap();
        let min = c.allreduce_scalar(ReduceOp::Min, r - 3).unwrap();
        let max = c.allreduce_scalar(ReduceOp::Max, r).unwrap();
        (sum, min, max)
    });
    for (sum, min, max) in run.results {
        assert_eq!(sum, 21);
        assert_eq!(min, -3);
        assert_eq!(max, 6);
    }
}

#[test]
fn allreduce_elementwise_vector() {
    let run = run_world(3, cfg(), |c| {
        let vals = vec![c.rank() as u64, 10 + c.rank() as u64];
        c.allreduce(ReduceOp::Max, &vals).unwrap()
    });
    for r in run.results {
        assert_eq!(r, vec![2, 12]);
    }
}

#[test]
fn p2p_ring() {
    let n = 5;
    let run = run_world(n, cfg(), |c| {
        let next = (c.rank() + 1) % n;
        let prev = (c.rank() + n - 1) % n;
        c.send_bytes(next, 42, vec![c.rank() as u8]).unwrap();
        let (data, st) = c.recv_bytes(prev as i32, 42).unwrap();
        assert_eq!(st.source, prev);
        assert_eq!(st.tag, 42);
        data[0]
    });
    assert_eq!(run.results, vec![4, 0, 1, 2, 3]);
}

#[test]
fn p2p_wildcards_and_probe() {
    let run = run_world(2, cfg(), |c| {
        if c.rank() == 0 {
            c.send_scalars::<u32>(1, 7, &[123, 456]).unwrap();
            0
        } else {
            // Spin until probe sees the message (sender may lag in wall time).
            let st = loop {
                if let Some(st) = c.probe(ANY_SOURCE, ANY_TAG) {
                    break st;
                }
                std::thread::yield_now();
            };
            assert_eq!(st.len, 8);
            let (vals, st) = c.recv_scalars::<u32>(ANY_SOURCE, ANY_TAG).unwrap();
            assert_eq!(st.source, 0);
            assert_eq!(vals, vec![123, 456]);
            1
        }
    });
    assert_eq!(run.results, vec![0, 1]);
}

#[test]
fn recv_advances_clock_past_send() {
    let run = run_world(2, cfg(), |c| {
        if c.rank() == 0 {
            c.advance(Time::from_millis(50));
            c.send_bytes(1, 0, vec![0; 1000]).unwrap();
        } else {
            let _ = c.recv_bytes(0, 0).unwrap();
            assert!(c.now() > Time::from_millis(50));
        }
        c.now()
    });
    assert!(run.makespan >= run.results[1]);
}

#[test]
fn dup_isolates_traffic() {
    let run = run_world(2, cfg(), |c| {
        let c2 = c.dup().unwrap();
        if c.rank() == 0 {
            // Same tag on both communicators; receiver must match per-comm.
            c.send_bytes(1, 5, vec![1]).unwrap();
            c2.send_bytes(1, 5, vec![2]).unwrap();
            (0, 0)
        } else {
            let (on_dup, _) = c2.recv_bytes(0, 5).unwrap();
            let (on_orig, _) = c.recv_bytes(0, 5).unwrap();
            (on_orig[0], on_dup[0])
        }
    });
    assert_eq!(run.results[1], (1, 2));
}

#[test]
fn split_forms_subgroups() {
    let run = run_world(6, cfg(), |c| {
        let color = (c.rank() % 2) as i64;
        let sub = c.split(color, c.rank() as i64).unwrap().unwrap();
        let members = sub.allgather_scalar::<u64>(c.rank() as u64).unwrap();
        (sub.rank(), sub.size(), members)
    });
    // Evens: world ranks 0,2,4; odds: 1,3,5.
    assert_eq!(run.results[0], (0, 3, vec![0, 2, 4]));
    assert_eq!(run.results[3], (1, 3, vec![1, 3, 5]));
    assert_eq!(run.results[5], (2, 3, vec![1, 3, 5]));
}

#[test]
fn split_undefined_color_returns_none() {
    let run = run_world(3, cfg(), |c| {
        let color = if c.rank() == 0 { -1 } else { 0 };
        c.split(color, 0).unwrap().is_none()
    });
    assert_eq!(run.results, vec![true, false, false]);
}

#[test]
fn split_key_reorders() {
    let run = run_world(4, cfg(), |c| {
        // All one color; key reverses the rank order.
        let sub = c.split(0, -(c.rank() as i64)).unwrap().unwrap();
        sub.rank()
    });
    assert_eq!(run.results, vec![3, 2, 1, 0]);
}

#[test]
fn profile_counts_messages_and_rendezvous() {
    let cfg = cfg();
    cfg.profile.set_enabled(true);
    run_world(3, cfg.clone(), |c| {
        c.barrier().unwrap();
        if c.rank() == 0 {
            c.send_bytes(1, 0, vec![0; 64]).unwrap();
        }
        if c.rank() == 1 {
            let _ = c.recv_bytes(0, 0).unwrap();
        }
        c.barrier().unwrap();
    });
    let mpi = cfg.profile.mpi_counters();
    assert_eq!(mpi.messages, 1);
    assert_eq!(mpi.message_bytes, 64);
    // Each rank counts its entry into each of 2 barriers.
    assert_eq!(mpi.rendezvous, 6);
}

#[test]
fn makespan_is_max_clock() {
    let run = run_world(4, cfg(), |c| {
        c.advance(Time::from_millis(c.rank() as u64 * 10));
    });
    assert_eq!(run.makespan, Time::from_millis(30));
    assert_eq!(run.clocks.len(), 4);
}

#[test]
fn large_world_collectives() {
    // Exercise the rendezvous machinery with many ranks (the FLASH bench
    // runs up to 512).
    let run = run_world(64, cfg(), |c| {
        let sum = c.allreduce_scalar(ReduceOp::Sum, 1u64).unwrap();
        c.barrier().unwrap();
        sum
    });
    assert!(run.results.iter().all(|&s| s == 64));
}

/// The generic collective lends buffers instead of copying them: `finish`
/// reads every rank's `src` and `meta` and fills every rank's `dst` where
/// the rank keeps them, and the ranks find the bytes there on return.
#[test]
fn lent_buffers_are_filled_in_place() {
    let run = run_world(4, cfg(), |c| {
        let runs = [(c.rank() as u64 * 8, 8u64)];
        let src = vec![c.rank() as u8; 8];
        let mut dst = vec![0xffu8; 8];
        let loan = Loan {
            meta: &runs[..],
            src: &[&src],
            dst: &mut dst,
            tag: c.rank() as u64,
            aux: 0,
        };
        c.collective(loan, |loans: &mut [Loan<'_, [(u64, u64)]>]| {
            // Everyone receives the payload of the rank to its right.
            let n = loans.len();
            let payloads: Vec<Vec<u8>> = loans.iter().map(|l| l.src.concat()).collect();
            for (i, l) in loans.iter_mut().enumerate() {
                assert_eq!((l.meta[0].0, l.tag), (i as u64 * 8, i as u64));
                l.dst.copy_from_slice(&payloads[(i + 1) % n]);
            }
        })
        .unwrap();
        dst
    });
    for (r, got) in run.results.iter().enumerate() {
        assert_eq!(got, &vec![((r + 1) % 4) as u8; 8]);
    }
}

/// One rank panics while the others are blocked in a collective with their
/// buffers lent. Every survivor withdraws its loan and returns `Poisoned`;
/// `finish` never runs, so nothing is read from (or written to) a
/// withdrawn loan; and `run_world` re-raises the panic.
#[test]
fn panic_while_buffers_are_lent_poisons_every_survivor() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let finish_ran = AtomicBool::new(false);
    let poisoned = AtomicUsize::new(0);
    let blocked = std::sync::Barrier::new(4);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_world(4, cfg(), |c| {
            if c.rank() == 3 {
                // Let the others get as far as the collective first (they
                // pass the gate just before entering it), then die.
                blocked.wait();
                panic!("rank 3 died with loans outstanding");
            }
            let src = vec![c.rank() as u8; 1 << 16];
            let mut dst = vec![0u8; 1 << 16];
            let loan = Loan {
                meta: &(),
                src: &[&src],
                dst: &mut dst,
                tag: 0,
                aux: 0,
            };
            blocked.wait();
            let res = c.collective(loan, |loans| {
                finish_ran.store(true, Ordering::SeqCst);
                loans.iter_mut().for_each(|l| l.dst.fill(1));
            });
            assert!(
                matches!(res, Err(MpiError::Poisoned)),
                "survivor got {res:?}"
            );
            assert!(dst.iter().all(|&b| b == 0), "a withdrawn loan was written");
            poisoned.fetch_add(1, Ordering::SeqCst);
            // The communicator stays poisoned: no dangling entry lets a
            // later collective match against the dead one.
            assert!(matches!(c.barrier(), Err(MpiError::Poisoned)));
        })
    }));
    let panic = outcome.err().expect("run_world re-raises the rank's panic");
    let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "rank 3 died with loans outstanding");
    assert!(
        !finish_ran.load(Ordering::SeqCst),
        "finish ran without rank 3"
    );
    assert_eq!(
        poisoned.load(Ordering::SeqCst),
        3,
        "every survivor reports Poisoned"
    );
}
