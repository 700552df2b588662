//! Property-based tests of the I/O algorithms: data sieving and two-phase
//! collective writes must leave exactly the same bytes in the file as plain
//! direct writes, for arbitrary run lists and data.

use proptest::collection::vec;
use proptest::prelude::*;

use hpc_sim::{SimConfig, Time};
use pnetcdf_format::swap::swap_to_vec;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::sieve::{self, CollBuf};
use pnetcdf_mpio::twophase::Req;
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// Sorted, disjoint, nonempty run lists within a small file.
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    vec((0u64..512, 1u64..40), 1..12).prop_map(|mut raw| {
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
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A payload of `width`-byte elements in host byte order, lent as
    /// segments cut at random element boundaries, lands as the direct
    /// width-1 write of its big-endian form does — sieved or not, with
    /// windows cutting elements anywhere.
    #[test]
    fn sieved_write_equals_direct_write(
        runs in arb_runs(),
        bufsize in 8usize..256,
        prefill in proptest::bool::ANY,
        width_exp in 0u32..4,
        cuts in vec(0usize..1000, 0..4),
    ) {
        let cfg = SimConfig::test_small();
        let width = 1usize << width_exp;
        // Whole elements: the last run is lengthened to the next one.
        let mut runs = runs;
        let total = runs.iter().map(|r| r.1 as usize).sum::<usize>();
        runs.last_mut().unwrap().1 += ((width - total % width) % width) as u64;
        let data = data_for(&runs, 11);
        let elems = data.len() / width;
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (elems + 1) * width).collect();
        at.extend([0, data.len()]);
        at.sort_unstable();
        let segs: Vec<&[u8]> = at.windows(2).map(|w| &data[w[0]..w[1]]).collect();

        let mk = |sieved: bool, src: &[&[u8]], width: usize| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            let f = pfs.create("x");
            if prefill {
                f.write_at(Time::ZERO, 0, &[0xAB; 2048]);
            }
            let payload = Req { src, aux: width as u64, ..Req::describe(&runs) };
            sieve::write(&f, &mut CollBuf::default(), bufsize, sieved, Time::ZERO, &payload).unwrap();
            f.to_bytes()
        };
        let want = mk(false, &[&swap_to_vec(&data, width)], 1);
        prop_assert_eq!(mk(true, &segs, width), want.clone());
        prop_assert_eq!(mk(false, &segs, width), want);
    }

    #[test]
    fn sieved_read_returns_written_bytes(
        runs in arb_runs(),
        bufsize in 8usize..256,
    ) {
        let cfg = SimConfig::test_small();
        let data = data_for(&runs, 99);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let f = pfs.create("x");
        let payload = Req { src: &[&data], aux: 1, ..Req::describe(&runs) };
        sieve::write(&f, &mut CollBuf::default(), 4096, true, Time::ZERO, &payload).unwrap();
        let mut buf = CollBuf::default();
        for sieved in [true, false] {
            // Stale bytes in the lent buffer must all be overwritten.
            let mut got = vec![0xEEu8; data.len()];
            sieve::read(&f, &mut buf, bufsize, sieved, Time::ZERO, &runs, &mut got).unwrap();
            prop_assert_eq!(&got, &data);
        }
    }

    #[test]
    fn two_phase_write_equals_independent_write(
        per_rank in vec(arb_runs(), 2..5),
        cb_buffer in 16usize..512,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();

        // Overlapping concurrent writes are undefined in MPI, so give each
        // rank a private 2 KiB region; runs stay interesting within it
        // (the regions still interleave across aggregator domains).
        let rank_runs: Vec<Vec<Run>> = per_rank
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
            .collect();

        let write = |collective: bool, info: Info| {
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            let pfs_in = pfs.clone();
            let rank_runs = rank_runs.clone();
            run_world(n, cfg.clone(), move |c| {
                let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
                let runs = &rank_runs[c.rank()];
                let data = data_for(runs, c.rank() as u8);
                if collective {
                    f.write_runs_at_all(runs, &data).unwrap();
                } else {
                    f.write_runs_at(runs, &data).unwrap();
                    c.barrier().unwrap();
                }
            });
            pfs.open("t").unwrap().to_bytes()
        };

        let info = Info::new().with("cb_buffer_size", &cb_buffer.to_string());
        let collective = write(true, info);
        let independent = write(false, Info::new());
        prop_assert_eq!(collective, independent);
    }

    #[test]
    fn collective_read_returns_exact_bytes(
        per_rank in vec((arb_runs(), 0u64..3), 2..5),
        common in (0u64..1500, 1u64..200),
        cb_buffer in 16usize..512,
        cb_nodes in 1usize..5,
        pipeline in proptest::bool::ANY,
    ) {
        let cfg = SimConfig::test_small();
        let n = per_rank.len();
        // Overlapping collective reads are legal: every rank also reads
        // the `common` run, and ranks whose bases collide share more.
        let (clo, chi) = (common.0, common.0 + common.1);
        let rank_runs: Vec<Vec<Run>> = per_rank
            .iter()
            .map(|(runs, base)| {
                let mut out: Vec<Run> = runs
                    .iter()
                    .map(|&(off, len)| (base * 512 + off, len))
                    .filter(|&(off, len)| off + len <= clo || off >= chi)
                    .collect();
                out.push(common);
                out.sort();
                out
            })
            .collect();

        // Seed the file with a known pattern.
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let max_end = rank_runs
            .iter()
            .flatten()
            .map(|&(o, l)| o + l)
            .max()
            .unwrap();
        let content: Vec<u8> = (0..max_end).map(|i| (i % 251) as u8).collect();
        pfs.create("t").import_bytes(&content);

        let toggle = if pipeline { "enable" } else { "disable" };
        let info = Info::new()
            .with("cb_buffer_size", &cb_buffer.to_string())
            .with("cb_nodes", &cb_nodes.to_string())
            .with("pnc_cb_pipeline", toggle);
        let rr = rank_runs.clone();
        let content2 = content.clone();
        run_world(n, cfg.clone(), move |c| {
            let f = MpiFile::open(c, &pfs, "t", OpenMode::ReadOnly, &info).unwrap();
            let runs = &rr[c.rank()];
            let total: u64 = runs.iter().map(|r| r.1).sum();
            // Stale bytes in the lent buffer must all be overwritten.
            let mut buf = vec![0xEEu8; total as usize];
            f.read_runs_into_all(runs, &mut buf).unwrap();
            // Verify against the seeded pattern.
            let mut pos = 0usize;
            for &(off, len) in runs {
                for i in 0..len {
                    assert_eq!(
                        buf[pos],
                        content2[(off + i) as usize],
                        "rank {} byte {} of run ({off},{len})",
                        c.rank(),
                        i
                    );
                    pos += 1;
                }
            }
        });
    }
}
