//! Independent sieved writes of one open file by several ranks at once.
//! A sieve window reads its extent, overlays the rank's runs and writes the
//! extent back; the holes it writes back are the other ranks' runs. Unless
//! the window's read and its write-back exclude every peer's sieved write
//! (ROMIO's extent lock), a peer's runs that land between them are
//! overwritten with what the window read before they arrived.

use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

use hpc_sim::SimConfig;

const NPROCS: usize = 3;
const RUNS: u64 = 200;
const LEN: u64 = 8;
const TRIALS: usize = 20;

/// Rank `r`'s runs: `RUNS` runs of `LEN` bytes, interleaved with the other
/// ranks' so that every hole of its sieve windows is a peer's run.
fn runs_of(r: usize) -> Vec<Run> {
    (0..RUNS)
        .map(|i| ((i * NPROCS as u64 + r as u64) * LEN, LEN))
        .collect()
}

/// The byte rank `r` writes at file offset `off`: never zero, so a run
/// that did not land shows.
fn byte(r: usize, off: u64) -> u8 {
    (off as u8).wrapping_mul(31).wrapping_add(r as u8) | 1
}

#[test]
fn concurrent_sieved_writes_keep_every_run() {
    let mut lost = Vec::new();
    for trial in 0..TRIALS {
        let cfg = SimConfig::test_small();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs_in = pfs.clone();
        run_world(NPROCS, cfg, move |c| {
            let f = MpiFile::open(c, &pfs_in, "s", OpenMode::Create, &Info::new()).unwrap();
            let runs = runs_of(c.rank());
            let data: Vec<u8> = runs
                .iter()
                .flat_map(|&(off, len)| (off..off + len).map(|o| byte(c.rank(), o)))
                .collect();
            // No barrier: the ranks' sieves run at the same time.
            f.write_runs_at(&runs, &data).unwrap();
        });
        let bytes = pfs.open("s").unwrap().to_bytes();
        let missing = (0..NPROCS)
            .flat_map(|r| runs_of(r).into_iter().map(move |run| (r, run)))
            .filter(|&(r, (off, len))| {
                (off..off + len).any(|o| bytes.get(o as usize) != Some(&byte(r, o)))
            })
            .count();
        if missing > 0 {
            lost.push((trial, missing));
        }
    }
    assert!(
        lost.is_empty(),
        "(trial, runs lost) of {TRIALS} trials: {lost:?}"
    );
}
