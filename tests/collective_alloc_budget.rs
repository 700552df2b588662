//! Tier-1 guard for the zero-copy collective path: how many heap bytes a
//! collective put + get requests per payload byte, how large the largest
//! single allocation inside `write_runs_at_all` (without and with holes)
//! and inside `put_vara_all` is, and how much a `get_vara_all` requests
//! beyond the `Vec` it returns.
//!
//! The benchmark (`perf_bench`, workload `coll3d_x`) measures the same
//! ratio on a 64 MiB array: 5.24 B/B before the exchange lent its buffers,
//! 2.22 while a put still staged a big-endian copy of its values and a get
//! read into a staging vector beside its result, 1.22 since both use the
//! caller's memory, 1.13 since the window planner counts a window's pieces
//! before it allocates their vector (the floor is 1.0: the stripe store
//! keeps what was written and the get returns its `Vec`). This test repeats
//! the measurement on 8 MiB with the counting allocator of
//! `support/counting_alloc.rs` — 2.775 B/B with the staged copies, 1.775
//! without, 1.369 since the put and the get share the open file's one
//! collective buffer and the piece vectors no longer double their way up,
//! 1.400 since a read window scatters straight into the ranks' memory (the
//! get adds its scatter list, 16 B per piece as it doubles its way up),
//! 1.213 since a write window gathers straight from the ranks' payloads
//! and only a window with holes uses the collective buffer: this put has
//! none, so no 4 MiB buffer is allocated — so a change that brings a
//! per-collective copy or a per-call buffer back fails `cargo test` instead
//! of waiting for a benchmark run. What is left above the floor of 1.0 is
//! run lists, window plans and gather and scatter lists (a 16 B run, a
//! 32 B piece and a 32 B segment per 512 B of payload). The same get on a
//! read-only open requests the payload and 2.50 MiB of lists and plans,
//! 6.00 MiB before reads scattered.
//!
//! One `#[test]` only: the allocator is process-wide, and a second test
//! running beside it would be counted too.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::{run_world, Comm};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const NPROCS: usize = 2;
/// `tt(64, 128, 256)` f32 = 8 MiB, split along X (the fastest dimension):
/// 8192 runs of 512 B per rank, the least contiguous partition of Fig. 6.
const DIMS: [u64; 3] = [64, 128, 256];
const PAYLOAD: u64 = 64 * 128 * 256 * 4;
/// 1.213 measured, plus 5 % headroom: one copy coming back adds 0.5, a
/// collective buffer allocated by a hole-free write 0.25.
const RATIO_BUDGET: f64 = 1.27;

/// Rank `r`'s share of an X-partitioned `dims` array (`NPROCS` ranks), as
/// `(start, count)`.
fn x_share(dims: [u64; 3], r: usize) -> ([u64; 3], [u64; 3]) {
    let x_per_rank = dims[2] / NPROCS as u64;
    (
        [0, 0, r as u64 * x_per_rank],
        [dims[0], dims[1], x_per_rank],
    )
}

/// Every rank's values for its share. They exist before counting starts,
/// as in the benchmark.
fn inputs(dims: [u64; 3]) -> Vec<Vec<f32>> {
    (0..NPROCS)
        .map(|r| {
            let n: u64 = x_share(dims, r).1.iter().product();
            (0..n).map(|i| (i * 3 + r as u64) as f32).collect()
        })
        .collect()
}

/// Create `name` holding one float variable `tt(z, y, x)` of `dims`.
fn create_tt(c: &Comm, pfs: &Pfs, name: &str, dims: [u64; 3]) -> (Dataset, usize) {
    let mut ds = Dataset::create(c, pfs, name, Version::Cdf1, &Info::new()).unwrap();
    let ids: Vec<_> = ["z", "y", "x"]
        .iter()
        .zip(dims)
        .map(|(name, len)| ds.def_dim(name, len).unwrap())
        .collect();
    let v = ds.def_var("tt", NcType::Float, &ids).unwrap();
    ds.enddef().unwrap();
    (ds, v)
}

/// Heap bytes requested per payload byte moved (written + read) by one
/// fresh-`Pfs` create → `put_vara_all` → `get_vara_all` → close iteration.
fn put_get_alloc_ratio() -> f64 {
    let cfg = SimConfig::sdsc_blue_horizon();
    let inputs = inputs(DIMS);
    let start = counting_alloc::requested();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(NPROCS, cfg, |c| {
        let (mut ds, v) = create_tt(c, &pfs, "tt.nc", DIMS);
        let (at, count) = x_share(DIMS, c.rank());
        ds.put_vara_all(v, &at, &count, &inputs[c.rank()]).unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &at, &count).unwrap();
        assert!(back == inputs[c.rank()], "read-back differs");
        ds.close().unwrap();
    });
    drop(pfs);
    let requested = counting_alloc::requested() - start;
    requested as f64 / (2 * PAYLOAD) as f64
}

/// The largest single allocation any rank makes between entering and
/// leaving `write_runs_at_all` on a 16 MiB, four-window collective write:
/// the two ranks' 512 B runs interleave and cover every byte, or, with
/// `holed`, rank 1's runs are 256 B shorter, so that every window has holes.
fn largest_allocation_inside_write_runs_at_all(holed: bool) -> usize {
    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let len = |rank: usize| if holed && rank == 1 { 256 } else { 512 };
    counting_alloc::take_largest();
    run_world(NPROCS, cfg, |c| {
        let f = MpiFile::open(c, &pfs, "w.bin", OpenMode::Create, &Info::new()).unwrap();
        let runs: Vec<Run> = (0..16384u64)
            .map(|i| (i * 1024 + c.rank() as u64 * 512, len(c.rank())))
            .collect();
        let data = vec![c.rank() as u8 + 1; 16384 * len(c.rank()) as usize];
        c.barrier().unwrap();
        counting_alloc::watch_largest(true);
        f.write_runs_at_all(&runs, &data).unwrap();
        counting_alloc::watch_largest(false);
    });
    counting_alloc::largest()
}

/// On `tt(128, 128, 256)` f32 = 16 MiB, 8 MiB per rank — twice what one
/// collective buffer holds, so an external copy of a rank's share cannot
/// hide under any budget near it: the largest single allocation any rank makes
/// between entering and leaving `put_vara_all`, the heap bytes all ranks
/// together request across `get_vara_all`, the same across the same get
/// on a read-only reopen, and the payload.
fn largest_inside_put_and_requested_across_get() -> (usize, u64, u64, u64) {
    const BIG: [u64; 3] = [128, 128, 256];
    let cfg = SimConfig::sdsc_blue_horizon();
    let inputs = inputs(BIG);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(NPROCS, cfg, |c| {
        let (mut ds, v) = create_tt(c, &pfs, "big.nc", BIG);
        let (at, count) = x_share(BIG, c.rank());
        // Whatever a rank would stage it stages before the rendezvous, and
        // no rank leaves the rendezvous (and stops the watch) before every
        // rank has entered it.
        c.barrier().unwrap();
        counting_alloc::watch_largest(true);
        ds.put_vara_all(v, &at, &count, &inputs[c.rank()]).unwrap();
        counting_alloc::watch_largest(false);
        // The earliest `before` precedes every rank's get, the latest
        // `after` follows them all.
        let get = |ds: &mut Dataset| {
            c.barrier().unwrap();
            let before = counting_alloc::requested();
            let back: Vec<f32> = ds.get_vara_all(v, &at, &count).unwrap();
            c.barrier().unwrap();
            let after = counting_alloc::requested();
            assert!(back == inputs[c.rank()], "read-back differs");
            (before, after)
        };
        let written = get(&mut ds);
        ds.close().unwrap();
        let mut ds = Dataset::open(c, &pfs, "big.nc", true, &Info::new()).unwrap();
        let reopened = get(&mut ds);
        ds.close().unwrap();
        [written, reopened]
    });
    let across = |get: usize| {
        let before = run.results.iter().map(|r| r[get].0).min().unwrap();
        let after = run.results.iter().map(|r| r[get].1).max().unwrap();
        after - before
    };
    let payload = BIG.iter().product::<u64>() * 4;
    (counting_alloc::largest(), across(0), across(1), payload)
}

#[test]
fn collective_put_get_stays_within_its_allocation_budget() {
    let ratio = put_get_alloc_ratio();
    assert!(
        ratio <= RATIO_BUDGET,
        "a collective put + get requested {ratio:.3} heap bytes per payload byte (budget {RATIO_BUDGET})"
    );
    // Sanity of the instrument: the file system's own copy and the read
    // result alone are one byte per byte moved.
    assert!(ratio >= 1.0, "allocator counted {ratio:.3} B/B — too few");

    // No window of a hole-free write uses the collective buffer, so no
    // allocation comes near it: the largest is a run list, a window's
    // pieces or its gather list (256 KiB measured).
    let cb_buffer_size = 4 * 1024 * 1024;
    let largest = largest_allocation_inside_write_runs_at_all(false);
    assert!(
        largest <= cb_buffer_size / 4,
        "a hole-free write_runs_at_all made a single allocation of {largest} bytes \
         (budget: cb_buffer_size / 4)"
    );
    // Holes are what the buffer is for: the holed write allocates it, at
    // most one stripe larger than cb_buffer_size.
    let budget = cb_buffer_size + SimConfig::sdsc_blue_horizon().stripe_size;
    let largest = largest_allocation_inside_write_runs_at_all(true);
    assert!(
        (cb_buffer_size..=budget).contains(&largest),
        "a holed write_runs_at_all made a largest allocation of {largest} bytes \
         (the collective buffer: cb_buffer_size up to one stripe more = {budget})"
    );

    // A put that staged its 8 MiB share, or a buffer for its hole-free
    // windows, would show here (512 KiB measured: a run list).
    counting_alloc::take_largest();
    let (largest, requested, reopened, payload) = largest_inside_put_and_requested_across_get();
    assert!(
        largest <= cb_buffer_size / 4,
        "put_vara_all made a single allocation of {largest} bytes \
         (budget: cb_buffer_size / 4)"
    );
    // The returned Vecs, the run lists, the window plans and the scatter
    // lists; the put allocated no buffer for the get to find, and a
    // staging vector beside the result would make it twice the payload.
    assert!(
        requested < payload + (2 << 20),
        "get_vara_all requested {requested} heap bytes for a payload of {payload}"
    );
    assert!(
        requested >= payload,
        "the returned Vecs alone are {payload}"
    );
    // A read-only open whose read windows have no holes allocates no
    // collective buffer: the returned Vecs, the run lists, the window plans
    // and the scatter lists (2.50 MiB beyond the payload); the buffer would
    // add 4 MiB.
    assert!(
        reopened < payload + (3 << 20),
        "get_vara_all on a read-only open requested {reopened} heap bytes for a payload of {payload}"
    );
}
