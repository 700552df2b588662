//! Tier-1 guard that queued puts stage from the process's byte pool in
//! steady state: `queue_alloc_budget`'s program (24 variables queued with
//! `iput_vara` on 2 ranks and flushed by one `wait_all`, then read back)
//! runs twice in one process, each on a file system of its own.
//!
//! The first run's `iput`s take fresh buffers for their staging, so its
//! puts and `wait_all` request at least the staged bytes. The wait call
//! gives them to the pool, the dropped file system gives its stripes, and
//! the second run's puts and `wait_all` take both from there: they request
//! under 5 % of the staged bytes (the merge's run and gather lists, the
//! collective's plans). Before the pool each run requested the staging
//! afresh, and `perf_bench`'s `flash_ckpt` faulted it in again per file.
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
/// What every run stages: each variable once.
const STAGED: u64 = NVARS as u64 * VAR_BYTES;

/// `queue_alloc_budget`'s program on a fresh file system, dropped at the
/// end. Returns the heap bytes its `iput`s and `wait_all` requested.
fn run() -> u64 {
    let cfg = SimConfig::asci_frost();
    let vals: Vec<f64> = (0..PER_RANK).map(|i| i as f64 * 0.5).collect();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(NPROCS, cfg, |c| {
        let mut ds = Dataset::create(c, &pfs, "q.nc", Version::Cdf2, &Info::new()).unwrap();
        let n = ds.def_dim("n", NPROCS as u64 * PER_RANK).unwrap();
        let vars: Vec<usize> = (0..NVARS)
            .map(|i| ds.def_var(&format!("v{i}"), NcType::Double, &[n]).unwrap())
            .collect();
        ds.enddef().unwrap();
        let (at, count) = ([c.rank() as u64 * PER_RANK], [PER_RANK]);
        // The earliest `before` precedes every rank's first put, the latest
        // `after` follows every rank's `wait_all`.
        c.barrier().unwrap();
        let before = counting_alloc::requested();
        for &v in &vars {
            ds.iput_vara(v, &at, &count, &vals).unwrap();
        }
        ds.wait_all().unwrap();
        c.barrier().unwrap();
        let after = counting_alloc::requested();
        ds.close().unwrap();

        let mut ds = Dataset::open(c, &pfs, "q.nc", true, &Info::new()).unwrap();
        for &v in vars.iter().take(GETS) {
            let back: Vec<f64> = ds.get_vara_all(v, &at, &count).unwrap();
            assert!(back == vals, "read-back differs");
        }
        ds.close().unwrap();
        (before, after)
    });
    drop(pfs);
    let before = run.results.iter().map(|r| r.0).min().unwrap();
    let after = run.results.iter().map(|r| r.1).max().unwrap();
    after - before
}

#[test]
fn second_run_stages_its_puts_in_pooled_buffers() {
    let first = run();
    assert!(
        first >= STAGED,
        "the first run's puts and wait_all requested {first} heap bytes, \
         less than the {STAGED} they staged"
    );
    let second = run();
    assert!(
        second * 20 < STAGED,
        "the second run's puts and wait_all requested {second} heap bytes, \
         not under 5 % of the {STAGED} they staged (first run: {first})"
    );
}
