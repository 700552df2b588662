//! Tier-1 guard for what a collective call allocates beyond its payload, on
//! the FLASH-shaped path `collective_alloc_budget` does not take: many
//! variables queued with `iput_vara` and flushed by one `wait_all`, then
//! read back one `get_vara_all` at a time from one open file.
//!
//! The benchmark (`perf_bench`, workload `flash_ckpt`) sat at 3.09 heap
//! bytes per payload byte while `wait_all` merged the queue's staged
//! buffers into one more copy and every collective call allocated its own
//! collective buffer; 2.12 since the flush lends the staged buffers as a
//! gather list and the buffer belongs to the open file. This test pins the
//! two mechanisms, not only the total, with the counting allocator of
//! `support/counting_alloc.rs`:
//!
//! * nothing allocated inside `wait_all` comes near the collective buffer:
//!   its windows have no holes, so they gather straight from the staged
//!   buffers and need none — the merged staging of this queue would be
//!   6 MiB, a collective buffer 4 MiB;
//! * the second to eighth `get_vara_all` on an open file request their
//!   returned vectors and run lists, no collective buffer — one per call
//!   would add 512 KiB each;
//! * the whole run requests 1.774 B/B (2.055 while every open file's first
//!   write allocated its collective buffer, 3.024 with both copies back).
//!
//! One `#[test]` only: the allocator is process-wide, and a second test
//! running beside it would be counted too.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const NPROCS: usize = 2;
const NVARS: usize = 24;
/// Doubles per rank and variable: 256 KiB.
const PER_RANK: u64 = 32 * 1024;
const VAR_BYTES: u64 = NPROCS as u64 * PER_RANK * 8;
const GETS: usize = 8;
/// Everything written plus everything read.
const PAYLOAD: u64 = (NVARS + GETS) as u64 * VAR_BYTES;
/// What calls 2..8 may request beyond the vectors they return: 14 KiB
/// measured (run lists, window plans, agreement payloads); one collective
/// buffer per call is 3.5 MiB.
const GET_SLACK: u64 = 64 * 1024;
/// 1.774 measured, plus 10 % headroom (2.26 while a hole-free write
/// allocated the collective buffer).
const RATIO_BUDGET: f64 = 1.95;

#[test]
fn queued_puts_and_repeated_gets_allocate_no_second_copy() {
    let cfg = SimConfig::asci_frost();
    // A quarter of the default cb_buffer_size; 256 KiB measured.
    let budget = 1024 * 1024;
    let vals: Vec<f64> = (0..PER_RANK).map(|i| i as f64 * 0.5).collect();
    let start = counting_alloc::requested();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(NPROCS, cfg, |c| {
        let mut ds = Dataset::create(c, &pfs, "q.nc", Version::Cdf2, &Info::new()).unwrap();
        let n = ds.def_dim("n", NPROCS as u64 * PER_RANK).unwrap();
        let vars: Vec<usize> = (0..NVARS)
            .map(|i| ds.def_var(&format!("v{i}"), NcType::Double, &[n]).unwrap())
            .collect();
        ds.enddef().unwrap();
        let (at, count) = ([c.rank() as u64 * PER_RANK], [PER_RANK]);
        for &v in &vars {
            ds.iput_vara(v, &at, &count, &vals).unwrap();
        }
        // Whatever a rank would merge it merges before the rendezvous, and
        // no rank leaves the rendezvous (and stops the watch) before every
        // rank has entered it.
        c.barrier().unwrap();
        counting_alloc::watch_largest(true);
        ds.wait_all().unwrap();
        counting_alloc::watch_largest(false);
        ds.close().unwrap();

        let mut ds = Dataset::open(c, &pfs, "q.nc", true, &Info::new()).unwrap();
        let mut before = 0;
        for (k, &v) in vars.iter().take(GETS).enumerate() {
            if k == 1 {
                // The earliest `before` precedes every rank's second get,
                // the latest `after` follows every rank's last.
                c.barrier().unwrap();
                before = counting_alloc::requested();
            }
            let back: Vec<f64> = ds.get_vara_all(v, &at, &count).unwrap();
            assert!(back == vals, "read-back differs");
        }
        c.barrier().unwrap();
        let after = counting_alloc::requested();
        ds.close().unwrap();
        (before, after)
    });
    drop(pfs);
    let ratio = (counting_alloc::requested() - start) as f64 / PAYLOAD as f64;

    let largest = counting_alloc::largest();
    assert!(
        largest <= budget,
        "wait_all made a single allocation of {largest} bytes \
         (budget: cb_buffer_size / 4 = {budget})"
    );
    // The instrument saw the call.
    assert!(largest >= 64 * 1024, "largest was only {largest}");

    let before = run.results.iter().map(|r| r.0).min().unwrap();
    let after = run.results.iter().map(|r| r.1).max().unwrap();
    let (requested, returned) = (after - before, (GETS as u64 - 1) * VAR_BYTES);
    assert!(
        requested <= returned + GET_SLACK,
        "{} get_vara_all on an open file requested {requested} heap bytes, \
         {} beyond the vectors they return (slack {GET_SLACK})",
        GETS - 1,
        requested - returned
    );
    assert!(
        requested >= returned,
        "the returned Vecs alone are {returned}"
    );

    assert!(
        ratio <= RATIO_BUDGET,
        "queued puts + gets requested {ratio:.3} heap bytes per payload byte (budget {RATIO_BUDGET})"
    );
    assert!(ratio >= 1.0, "allocator counted {ratio:.3} B/B — too few");
}
