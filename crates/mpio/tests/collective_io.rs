//! End-to-end MPI-IO tests: multi-rank worlds writing and reading one file
//! through run lists, independent ops, and two-phase collective ops.

use hpc_sim::SimConfig;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

fn byte_buf(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Rank `rank` of `n`'s share of a file of `block`-byte blocks dealt round
/// robin — the strided pattern a resized one-block filetype tiles, as the
/// run list ROMIO flattens that view to.
fn interleaved(rank: usize, n: usize, block: usize, rounds: usize) -> Vec<Run> {
    (0..rounds)
        .map(|k| (((k * n + rank) * block) as u64, block as u64))
        .collect()
}

#[test]
fn collective_open_create_and_reopen() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(4, cfg(), |c| {
        let f = MpiFile::open(c, &pfs, "f.dat", OpenMode::Create, &Info::new()).unwrap();
        assert_eq!(f.size(), 0);
        drop(f);
        let f2 = MpiFile::open(c, &pfs, "f.dat", OpenMode::ReadWrite, &Info::new()).unwrap();
        assert_eq!(f2.size(), 0);
        assert!(MpiFile::open(c, &pfs, "f.dat", OpenMode::CreateExcl, &Info::new()).is_err());
        assert!(MpiFile::open(c, &pfs, "nope.dat", OpenMode::ReadOnly, &Info::new()).is_err());
    });
}

#[test]
fn contiguous_collective_write_then_read() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let n = 4;
    let chunk = 8192usize;
    run_world(n, cfg(), |c| {
        let f = MpiFile::open(c, &pfs, "cont.dat", OpenMode::Create, &Info::new()).unwrap();
        let mine = byte_buf(chunk, c.rank() as u8);
        let run = ((c.rank() * chunk) as u64, chunk as u64);
        f.write_runs_at_all(&[run], &mine).unwrap();

        let mut back = vec![0u8; chunk];
        f.read_runs_into_all(&[run], &mut back).unwrap();
        assert_eq!(back, mine);
    });
    // The file as a whole is each rank's pattern in order.
    let bytes = pfs.open("cont.dat").unwrap().to_bytes();
    assert_eq!(bytes.len(), n * chunk);
    for r in 0..n {
        assert_eq!(
            &bytes[r * chunk..(r + 1) * chunk],
            &byte_buf(chunk, r as u8)[..]
        );
    }
}

#[test]
fn interleaved_views_collective_write() {
    // Each rank owns every n-th block of 64 bytes (a strided view's run
    // list): the classic pattern where two-phase I/O shines.
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let n = 4;
    let block = 64usize;
    let blocks_per_rank = 32usize;
    run_world(n, cfg(), |c| {
        let f = MpiFile::open(c, &pfs, "inter.dat", OpenMode::Create, &Info::new()).unwrap();
        let mine: Vec<u8> = (0..block * blocks_per_rank)
            .map(|i| (c.rank() * 10 + i / block) as u8)
            .collect();
        let runs = interleaved(c.rank(), n, block, blocks_per_rank);
        f.write_runs_at_all(&runs, &mine).unwrap();
    });
    let bytes = pfs.open("inter.dat").unwrap().to_bytes();
    assert_eq!(bytes.len(), n * block * blocks_per_rank);
    for (i, b) in bytes.iter().enumerate() {
        let blk = i / block;
        let rank = blk % n;
        let round = blk / n;
        assert_eq!(*b as usize, rank * 10 + round, "byte {i}");
    }
}

#[test]
fn collective_read_with_interleaved_views() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let n = 3;
    let block = 16usize;
    let rounds = 8usize;
    // Seed the file serially.
    let all: Vec<u8> = (0..n * block * rounds).map(|i| (i % 251) as u8).collect();
    pfs.create("r.dat").import_bytes(&all);

    let all2 = all.clone();
    run_world(n, cfg(), move |c| {
        let f = MpiFile::open(c, &pfs, "r.dat", OpenMode::ReadOnly, &Info::new()).unwrap();
        let mut buf = vec![0u8; block * rounds];
        let runs = interleaved(c.rank(), n, block, rounds);
        f.read_runs_into_all(&runs, &mut buf).unwrap();
        for round in 0..rounds {
            let src = (round * n + c.rank()) * block;
            assert_eq!(
                &buf[round * block..(round + 1) * block],
                &all2[src..src + block]
            );
        }
    });
}

#[test]
fn readonly_rejects_writes() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        {
            let f = MpiFile::open(c, &pfs, "ro.dat", OpenMode::Create, &Info::new()).unwrap();
            // Every rank writes the same four bytes.
            f.write_runs_at_all(&[(0, 4)], &[1, 2, 3, 4]).unwrap();
        }
        let f = MpiFile::open(c, &pfs, "ro.dat", OpenMode::ReadOnly, &Info::new()).unwrap();
        assert!(f.write_runs_at(&[(0, 4)], &[9; 4]).is_err());
        let mut buf = [0u8; 4];
        f.read_runs_into(&[(0, 4)], &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    });
}

#[test]
fn two_phase_beats_disabled_collective_buffering() {
    // Interleaved small blocks: with two-phase the file sees large ordered
    // writes; without, every rank issues many small strided writes.
    let block = 512usize;
    let rounds = 64usize;
    let n = 4;

    let time_with = |info: Info| {
        let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
        let run = run_world(n, cfg(), move |c| {
            let f = MpiFile::open(c, &pfs, "x", OpenMode::Create, &info).unwrap();
            let mine = vec![7u8; block * rounds];
            let runs = interleaved(c.rank(), n, block, rounds);
            f.write_runs_at_all(&runs, &mine).unwrap();
        });
        run.makespan
    };

    let t_two_phase = time_with(Info::new());
    let t_disabled = time_with(
        Info::new()
            .with("romio_cb_write", "disable")
            .with("romio_ds_write", "disable"),
    );
    assert!(
        t_two_phase < t_disabled,
        "two-phase {t_two_phase:?} should beat disabled {t_disabled:?}"
    );
}

#[test]
fn collective_matches_independent_bytes() {
    // Same interleaved pattern written via collective two-phase and via
    // independent writes must produce identical files.
    let n = 3;
    let block = 128usize;
    let rounds = 16usize;

    let write = |collective: bool| {
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(n, cfg(), move |c| {
            let f = MpiFile::open(c, &pfs2, "y", OpenMode::Create, &Info::new()).unwrap();
            let mine: Vec<u8> = (0..block * rounds)
                .map(|i| (c.rank() + 3 * i) as u8)
                .collect();
            let runs = interleaved(c.rank(), n, block, rounds);
            if collective {
                f.write_runs_at_all(&runs, &mine).unwrap();
            } else {
                // One rank at a time: a sieved independent write
                // read-modify-writes the whole extent around its pieces,
                // so concurrent writers of interleaved blocks would lose
                // each other's updates (ROMIO locks the file for this).
                for turn in 0..n {
                    if c.rank() == turn {
                        f.write_runs_at(&runs, &mine).unwrap();
                    }
                    c.barrier().unwrap();
                }
            }
        });
        pfs.open("y").unwrap().to_bytes()
    };

    assert_eq!(write(true), write(false));
}

#[test]
fn set_size_and_sync() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let f = MpiFile::open(c, &pfs, "s", OpenMode::Create, &Info::new()).unwrap();
        f.set_size(4096).unwrap();
        assert_eq!(f.size(), 4096);
        f.sync().unwrap();
    });
}

#[test]
fn cb_nodes_hint_changes_aggregation() {
    // Sanity: restricting to 1 aggregator still produces correct bytes.
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let n = 4;
    let info = Info::new()
        .with("cb_nodes", "1")
        .with("cb_buffer_size", "256");
    run_world(n, cfg(), move |c| {
        let f = MpiFile::open(c, &pfs, "z", OpenMode::Create, &info).unwrap();
        let run = ((c.rank() * 1000) as u64, 1000);
        let mine = vec![c.rank() as u8 + 1; 1000];
        f.write_runs_at_all(&[run], &mine).unwrap();
        let mut buf = vec![0u8; 1000];
        f.read_runs_into_all(&[run], &mut buf).unwrap();
        assert_eq!(buf, mine);
    });
}

/// `pnc_cb_affinity`, `pnc_page_size` and `pnc_readahead` are not hints:
/// an open names each as an unknown `pnc_` key, counts it, and runs exactly
/// as an open without them — the same clock and the same bytes, through a
/// collective write and a cached sequential read stream.
#[test]
fn the_removed_domain_and_cache_hints_are_rejected_and_change_nothing() {
    let run = |removed: bool| {
        let cfg = cfg();
        cfg.profile.set_enabled(true);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let mut info = Info::new()
            .with("pnc_cache", "enable")
            .with("cb_buffer_size", "2048");
        if removed {
            info = info
                .with("pnc_cb_affinity", "disable")
                .with("pnc_page_size", "512")
                .with("pnc_readahead", "0");
        }
        let pfs_in = pfs.clone();
        let run = run_world(1, cfg.clone(), move |c| {
            let f = MpiFile::open(c, &pfs_in, "h", OpenMode::Create, &info).unwrap();
            let runs = interleaved(0, 2, 700, 12);
            f.write_runs_at_all(&runs, &byte_buf(12 * 700, 5)).unwrap();
            (0..8u64)
                .map(|k| f.read_runs_at(&[(k * 1000, 1000)]).unwrap())
                .collect::<Vec<_>>()
        });
        let bytes = pfs.open("h").unwrap().to_bytes();
        let c = cfg.profile.cache_counters();
        let counted = (c.readahead_issued, c.misses, cfg.profile.hints_rejected());
        (run.makespan, bytes, run.results, counted)
    };
    let (plain, with_removed) = (run(false), run(true));
    assert_eq!(plain.3 .2, 0);
    assert_eq!(
        with_removed.3 .2, 3,
        "each removed key is one rejected hint"
    );
    assert!(plain.3 .0 > 0, "the read stream never read ahead");
    assert_eq!(with_removed.3 .0, plain.3 .0);
    assert_eq!(with_removed.3 .1, plain.3 .1);
    assert_eq!(with_removed.0, plain.0);
    assert!(with_removed.1 == plain.1 && with_removed.2 == plain.2);
}

/// A write whose runs span more stripes than affine planning walks (4 Mi:
/// 4 GiB of `test_small`'s 1 KiB stripes) falls back to contiguous domains,
/// and its windows leave through the same run-list door as one-run lists.
/// The bytes land where they were sent — checked in place, since the file
/// is over 10 GiB long — and a collective read returns them.
#[test]
fn a_write_beyond_the_affine_span_limit_lands_its_runs() {
    const GIB: u64 = 1 << 30;
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let per_rank: [Vec<Run>; 2] = [
        vec![(10, 300), (10 * GIB + 5, 200)],
        vec![(5 * GIB + 7, 400)],
    ];
    let payload = |rank: usize| byte_buf(if rank == 0 { 500 } else { 400 }, 9 + rank as u8);
    let runs = per_rank.clone();
    run_world(2, cfg(), move |c| {
        let info = Info::new().with("cb_nodes", "2");
        let f = MpiFile::open(c, &pfs, "far", OpenMode::Create, &info).unwrap();
        let mine = &runs[c.rank()];
        f.write_runs_at_all(mine, &payload(c.rank())).unwrap();
        assert_eq!(f.size(), 10 * GIB + 205);
        assert_eq!(f.read_runs_at_all(mine).unwrap(), payload(c.rank()));
        if c.rank() == 0 {
            let file = f.raw();
            for (rank, runs) in runs.iter().enumerate() {
                let mut pos = 0usize;
                for &(off, len) in runs {
                    let mut got = vec![0u8; len as usize];
                    file.peek_at(off, &mut got);
                    assert_eq!(got, payload(rank)[pos..][..len as usize], "run at {off}");
                    pos += len as usize;
                }
            }
            // Nothing lands between the runs.
            let mut gap = [0xffu8; 64];
            file.peek_at(3 * GIB, &mut gap);
            assert_eq!(gap, [0u8; 64]);
        }
    });
}
