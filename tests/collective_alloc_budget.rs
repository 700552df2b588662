//! Tier-1 guard for the zero-copy collective exchange: how many heap bytes
//! a collective put + get requests per payload byte, and how large the
//! largest single allocation inside `write_runs_at_all` is.
//!
//! The benchmark (`perf_bench`, workload `coll3d_x`) measures the same
//! ratio on a 64 MiB array: 5.24 B/B before the exchange lent its buffers,
//! 2.22 after. This test repeats the measurement on 8 MiB with the counting
//! allocator of `support/counting_alloc.rs`, so a change that brings a
//! per-collective copy back fails `cargo test` instead of waiting for a
//! benchmark run.
//!
//! One `#[test]` only: the allocator is process-wide, and a second test
//! running beside it would be counted too.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

const NPROCS: usize = 2;
/// `tt(64, 128, 256)` f32 = 8 MiB, split along X (the fastest dimension):
/// 8192 runs of 512 B per rank, the least contiguous partition of Fig. 6.
const DIMS: [u64; 3] = [64, 128, 256];
const PAYLOAD: u64 = 64 * 128 * 256 * 4;

/// Heap bytes requested per payload byte moved (written + read) by one
/// fresh-`Pfs` create → `put_vara_all` → `get_vara_all` → close iteration.
fn put_get_alloc_ratio() -> f64 {
    let cfg = SimConfig::sdsc_blue_horizon();
    let x_per_rank = DIMS[2] / NPROCS as u64;
    // The inputs exist before counting starts, as in the benchmark.
    let inputs: Vec<Vec<f32>> = (0..NPROCS)
        .map(|r| {
            (0..DIMS[0] * DIMS[1] * x_per_rank)
                .map(|i| (i * 3 + r as u64) as f32)
                .collect()
        })
        .collect();
    let start = counting_alloc::requested();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(NPROCS, cfg, |c| {
        let mut ds = Dataset::create(c, &pfs, "tt.nc", Version::Cdf1, &Info::new()).unwrap();
        let dims: Vec<_> = ["z", "y", "x"]
            .iter()
            .zip(DIMS)
            .map(|(name, len)| ds.def_dim(name, len).unwrap())
            .collect();
        let v = ds.def_var("tt", NcType::Float, &dims).unwrap();
        ds.enddef().unwrap();
        let at = [0, 0, c.rank() as u64 * x_per_rank];
        let count = [DIMS[0], DIMS[1], x_per_rank];
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
/// leaving `write_runs_at_all` on a 16 MiB, four-window collective write.
fn largest_allocation_inside_write_runs_at_all() -> (usize, usize) {
    let cfg = SimConfig::sdsc_blue_horizon();
    let budget = 4 * 1024 * 1024 + cfg.stripe_size; // default cb_buffer_size + one stripe
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(NPROCS, cfg, |c| {
        let f = MpiFile::open(c, &pfs, "w.bin", OpenMode::Create, &Info::new()).unwrap();
        let runs: Vec<Run> = (0..16384u64)
            .map(|i| (i * 1024 + c.rank() as u64 * 512, 512))
            .collect();
        let data = vec![c.rank() as u8 + 1; 16384 * 512];
        c.barrier().unwrap();
        counting_alloc::watch_largest(true);
        f.write_runs_at_all(&runs, &data).unwrap();
        counting_alloc::watch_largest(false);
    });
    (counting_alloc::largest(), budget)
}

#[test]
fn collective_put_get_stays_within_its_allocation_budget() {
    let ratio = put_get_alloc_ratio();
    assert!(
        ratio <= 3.0,
        "a collective put + get requested {ratio:.3} heap bytes per payload byte (budget 3.0)"
    );
    // Sanity of the instrument: the file system's own copy and the read
    // result alone are one byte per byte moved.
    assert!(ratio >= 1.0, "allocator counted {ratio:.3} B/B — too few");

    let (largest, budget) = largest_allocation_inside_write_runs_at_all();
    assert!(
        largest <= budget,
        "write_runs_at_all made a single allocation of {largest} bytes \
         (budget: cb_buffer_size + one stripe = {budget})"
    );
    // The collective buffer itself must have been seen.
    assert!(largest >= 4 * 1024 * 1024, "largest was only {largest}");
}
