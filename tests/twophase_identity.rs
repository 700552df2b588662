//! Property-based identity of the two collective engines: for arbitrary
//! run lists, the pipelined round engine (`pnc_cb_pipeline=enable`) must
//! leave exactly the same bytes in the file — and return exactly the same
//! bytes to readers — as the serial exchange-then-access engine, at the
//! MPI-IO layer and through PnetCDF's nonblocking `wait_all` path. Also
//! exercises the lent-request round trip the engines share: what a rank
//! lends to a collective write comes back from a collective read.

use proptest::collection::vec;
use proptest::prelude::*;

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// Sorted, disjoint, nonempty run lists within a small region.
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    vec((0u64..700, 1u64..50), 1..10).prop_map(|mut raw| {
        raw.sort();
        let mut out: Vec<Run> = Vec::new();
        let mut next_free = 0u64;
        for (off, len) in raw {
            let off = off.max(next_free) + 1; // strictly disjoint with gaps
            out.push((off, len));
            next_free = off + len;
        }
        out
    })
}

fn data_for(runs: &[Run], seed: u8) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| (i as u8).wrapping_mul(41).wrapping_add(seed))
        .collect()
}

/// Give each rank a private region so concurrent writes stay defined;
/// regions still interleave across aggregator file domains.
fn rebase(per_rank: &[Vec<Run>]) -> Vec<Vec<Run>> {
    per_rank
        .iter()
        .enumerate()
        .map(|(r, runs)| {
            let base = r as u64 * 2048;
            let mut next_free = base;
            runs.iter()
                .map(|&(off, len)| {
                    let o = (base + off).max(next_free);
                    next_free = o + len;
                    (o, len)
                })
                .collect()
        })
        .collect()
}

fn hints(cb_buffer: usize, pipeline: bool) -> Info {
    let info = Info::new().with("cb_buffer_size", &cb_buffer.to_string());
    if pipeline {
        info.with("pnc_cb_pipeline", "enable")
    } else {
        info.with("pnc_cb_pipeline", "disable")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lent_requests_roundtrip(
        per_rank in vec(arb_runs(), 2..5),
        cb_buffer in 16usize..384,
        pipeline in any::<bool>(),
    ) {
        // Each rank lends its runs + payload to a collective write, then
        // lends the same runs + a destination to a collective read: every
        // rank must get exactly its own payload back, whatever the window
        // size and engine, and nobody else's bytes.
        let cfg = SimConfig::test_small();
        let rank_runs = rebase(&per_rank);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let info = hints(cb_buffer, pipeline);
        let runs_in = rank_runs.clone();
        let run = run_world(rank_runs.len(), cfg, move |c| {
            let f = MpiFile::open(c, &pfs, "t", OpenMode::Create, &info).unwrap();
            let runs = &runs_in[c.rank()];
            let data = data_for(runs, c.rank() as u8);
            f.write_runs_at_all(runs, &data).unwrap();
            (f.read_runs_at_all(runs).unwrap(), data)
        });
        for (rank, (got, sent)) in run.results.iter().enumerate() {
            prop_assert_eq!(got, sent, "rank {}", rank);
        }
    }

    #[test]
    fn pipelined_write_bytes_equal_serial(
        per_rank in vec(arb_runs(), 3..5),
        cb_buffer in 16usize..384,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();
        let rank_runs = rebase(&per_rank);

        let write = |pipeline: bool| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            let pfs_in = pfs.clone();
            let rank_runs = rank_runs.clone();
            let info = hints(cb_buffer, pipeline);
            run_world(n, cfg.clone(), move |c| {
                let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
                let runs = &rank_runs[c.rank()];
                let data = data_for(runs, c.rank() as u8);
                f.write_runs_at_all(runs, &data).unwrap();
            });
            pfs.open("t").unwrap().to_bytes()
        };
        prop_assert_eq!(write(true), write(false));
    }

    #[test]
    fn pipelined_read_bytes_equal_serial(
        per_rank in vec(arb_runs(), 3..5),
        cb_buffer in 16usize..384,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();
        let rank_runs = rebase(&per_rank);
        let max_end = rank_runs.iter().flatten().map(|&(o, l)| o + l).max().unwrap();
        let content: Vec<u8> = (0..max_end).map(|i| (i % 249) as u8).collect();

        let read = |pipeline: bool| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            pfs.create("t").import_bytes(&content);
            let rank_runs = rank_runs.clone();
            let info = hints(cb_buffer, pipeline);
            let run = run_world(n, cfg.clone(), move |c| {
                let f = MpiFile::open(c, &pfs, "t", OpenMode::ReadOnly, &info).unwrap();
                f.read_runs_at_all(&rank_runs[c.rank()]).unwrap()
            });
            run.results
        };
        let pipelined = read(true);
        let serial = read(false);
        prop_assert_eq!(&pipelined, &serial);
        // Both must also be the seeded pattern.
        for (rank, runs) in rank_runs.iter().enumerate() {
            let mut want = Vec::new();
            for &(off, len) in runs {
                want.extend_from_slice(&content[off as usize..(off + len) as usize]);
            }
            prop_assert_eq!(&pipelined[rank], &want);
        }
    }
}

/// The engines must also agree end to end through PnetCDF: aggregated
/// nonblocking puts flushed by one `wait_all`, then read back — same file
/// bytes, same values, under both hint settings.
#[test]
fn wait_all_results_identical_across_engines() {
    const NPROCS: usize = 4;
    const PER_RANK: u64 = 300; // not stripe-aligned: ragged domains
    const CHUNKS: u64 = 3;
    let cfg = SimConfig::test_small();

    let run = |pipeline: bool| {
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs_in = pfs.clone();
        let info = hints(512, pipeline);
        let run = run_world(NPROCS, cfg.clone(), move |comm| {
            let mut ds = Dataset::create(comm, &pfs_in, "id.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
            let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
            ds.enddef().unwrap();
            let r = comm.rank() as u64;
            // Several queued puts per rank, merged by one wait_all.
            let chunk = PER_RANK / CHUNKS;
            for i in 0..CHUNKS {
                let start = r * PER_RANK + i * chunk;
                let count = if i == CHUNKS - 1 {
                    PER_RANK - i * chunk
                } else {
                    chunk
                };
                let vals: Vec<f32> = (0..count).map(|j| (start + j) as f32).collect();
                ds.iput_vara(v, &[start], &[count], &vals).unwrap();
            }
            ds.wait_all().unwrap();
            // Read the neighbour's slice back collectively.
            let peer = ((r + 1) % NPROCS as u64) * PER_RANK;
            let req = ds.iget_vara(v, &[peer], &[PER_RANK]).unwrap();
            ds.wait_all().unwrap();
            let got: Vec<f32> = ds.take_result(req).unwrap();
            ds.close().unwrap();
            got
        });
        (pfs.open("id.nc").unwrap().to_bytes(), run.results)
    };

    let (bytes_p, vals_p) = run(true);
    let (bytes_s, vals_s) = run(false);
    assert_eq!(bytes_p, bytes_s, "engines wrote different file bytes");
    assert_eq!(vals_p, vals_s, "engines returned different get results");
    for (rank, got) in vals_p.iter().enumerate() {
        let peer = ((rank as u64 + 1) % NPROCS as u64) * PER_RANK;
        let want: Vec<f32> = (0..PER_RANK).map(|j| (peer + j) as f32).collect();
        assert_eq!(got, &want, "rank {rank} read wrong values");
    }
}
