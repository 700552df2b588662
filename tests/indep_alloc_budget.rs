//! Tier-1 guard for the heap-free request path: a blocking independent put
//! reaches the stripe store without allocating, a get allocates the
//! `Vec<T>` it returns and nothing else, and staging recycled between
//! calls never pins more than 1 MiB.
//!
//! The benchmark (`perf_bench`, workload `indep_rows`) measures heap bytes
//! requested per payload byte on 262 144 puts of 512 B and 1024 gets of
//! 128 KiB: 2.584 while every request built its run list, its external
//! bytes and its per-server chunk vectors afresh, 0.627 since. This test
//! repeats the workload at a sixteenth of the size with the counting
//! allocator of `support/counting_alloc.rs`, and counts allocation *calls*
//! as well, so one `Vec` creeping back into the path fails `cargo test`.
//!
//! One `#[test]` only: the allocator is process-wide, and a second test
//! running beside it would be counted too.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

/// `tt(64, 64, 128)` f32 = 2 MiB: 4096 rows of 512 B, 64 planes of 32 KiB.
const DIMS: [u64; 3] = [64, 64, 128];
const ROW: usize = 128;
const PLANE: usize = 64 * 128;
const PASSES: usize = 4;

#[test]
fn independent_puts_and_gets_stay_within_their_allocation_budget() {
    let cfg = SimConfig::sdsc_blue_horizon();
    // The inputs exist before counting starts, as in the benchmark.
    let input: Vec<f32> = (0..DIMS.iter().product::<u64>())
        .map(|i| (i * 7 % 1013) as f32)
        .collect();
    let rows = || (0..DIMS[0]).flat_map(|z| (0..DIMS[1]).map(move |y| (z, y)));
    let row_of = |z: u64, y: u64| &input[(z * DIMS[1] + y) as usize * ROW..][..ROW];

    let start = counting_alloc::requested();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(1, cfg, |c| {
        let mut ds = Dataset::create(c, &pfs, "tt.nc", Version::Cdf2, &Info::new()).unwrap();
        let dims: Vec<_> = ["z", "y", "x"]
            .iter()
            .zip(DIMS)
            .map(|(name, len)| ds.def_dim(name, len).unwrap())
            .collect();
        let v = ds.def_var("tt", NcType::Float, &dims).unwrap();
        ds.enddef().unwrap();
        ds.begin_indep_data().unwrap();

        // The first pass touches every stripe for the first time (the
        // store allocates them) and warms the recycled request up; from
        // then on a one-row put allocates nothing, anywhere.
        for pass in 0..PASSES {
            let before = counting_alloc::calls();
            for (z, y) in rows() {
                ds.put_vara(v, &[z, y, 0], &[1, 1, DIMS[2]], row_of(z, y))
                    .unwrap();
            }
            let calls = counting_alloc::calls() - before;
            if pass > 0 {
                assert_eq!(calls, 0, "4096 one-row puts of pass {pass} allocated");
            }
        }

        // A one-plane get allocates exactly the `Vec<f32>` it returns.
        for pass in 0..PASSES {
            for z in 0..DIMS[0] {
                let before = counting_alloc::calls();
                let plane: Vec<f32> = ds.get_vara(v, &[z, 0, 0], &[1, DIMS[1], DIMS[2]]).unwrap();
                let calls = counting_alloc::calls() - before;
                assert!(
                    plane == input[z as usize * PLANE..][..PLANE],
                    "plane {z} differs"
                );
                if pass > 0 || z >= 2 {
                    assert_eq!(calls, 1, "get of plane {z}, pass {pass}");
                }
            }
        }

        // A 2 MiB put is lent where it lies, in host byte order, and the
        // file system converts it as it stores it: no staging, no call to
        // the allocator. Nothing large is alive after it, and the small
        // puts after it are heap-free too.
        let large = counting_alloc::live_large();
        let before = counting_alloc::calls();
        ds.put_vara(v, &[0, 0, 0], &DIMS, &input).unwrap();
        assert_eq!(counting_alloc::calls() - before, 0, "the 2 MiB put");
        ds.put_vara(v, &[0, 0, 0], &[1, 1, DIMS[2]], row_of(0, 0))
            .unwrap();
        assert_eq!(
            counting_alloc::live_large(),
            large,
            "staging above 1 MiB is still alive after a small put"
        );
        let before = counting_alloc::calls();
        for (z, y) in rows().take(64) {
            ds.put_vara(v, &[z, y, 0], &[1, 1, DIMS[2]], row_of(z, y))
                .unwrap();
        }
        assert_eq!(
            counting_alloc::calls() - before,
            0,
            "puts after a large put"
        );

        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
    drop(pfs);

    // The whole run: every pass of puts and gets, the large put and its
    // followers, over everything allocated since the file system was built.
    let moved = (2 * PASSES as u64 + 1) * DIMS.iter().product::<u64>() * 4 + 65 * 512;
    let ratio = (counting_alloc::requested() - start) as f64 / moved as f64;
    assert!(
        ratio <= 0.60,
        "independent puts + gets requested {ratio:.3} heap bytes per payload byte (budget 0.60)"
    );
    // Sanity of the instrument: the returned `Vec<T>`s alone are 4/9 of it.
    assert!(ratio >= 0.44, "allocator counted {ratio:.3} B/B — too few");
}
