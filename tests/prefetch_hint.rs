//! The `nc_prefetch_vars` hint (paper §4.1): named variables are read once
//! at open time and served from local memory afterwards.

use hpc_sim::{SimConfig, Time};
use pnetcdf::{Dataset, Datatype, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

fn make_file(pfs: &Pfs) {
    let pfs = pfs.clone();
    run_world(2, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs, "f.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let grid = ds.def_var("grid", NcType::Float, &[x]).unwrap();
        let aux = ds.def_var("aux", NcType::Int, &[x]).unwrap();
        let series = ds.def_var("series", NcType::Float, &[t, x]).unwrap();
        ds.enddef().unwrap();
        let s = c.rank() as u64 * 4;
        let f32s: Vec<f32> = (0..4).map(|i| (s + i) as f32).collect();
        let i32s: Vec<i32> = (0..4).map(|i| (s + i) as i32 * 10).collect();
        ds.put_vara_all(grid, &[s], &[4], &f32s).unwrap();
        ds.put_vara_all(aux, &[s], &[4], &i32s).unwrap();
        ds.put_vara_all(series, &[0, s], &[1, 4], &f32s).unwrap();
        ds.close().unwrap();
    });
}

#[test]
fn prefetched_reads_are_correct_and_local() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    make_file(&pfs);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let info = Info::new().with("nc_prefetch_vars", "grid, aux, series, missing");
        let mut ds = Dataset::open(c, &pfs2, "f.nc", true, &info).unwrap();
        let grid = ds.inq_varid("grid").unwrap();
        let aux = ds.inq_varid("aux").unwrap();
        let series = ds.inq_varid("series").unwrap();
        assert!(ds.is_prefetched(grid));
        assert!(ds.is_prefetched(aux));
        // Record variables are never cached; unknown names are ignored.
        assert!(!ds.is_prefetched(series));

        // Cached reads return the right data...
        let g: Vec<f32> = ds.get_vara_all(grid, &[2], &[4]).unwrap();
        assert_eq!(g, vec![2.0, 3.0, 4.0, 5.0]);
        let a: Vec<i32> = ds.get_vara_all(aux, &[0], &[8]).unwrap();
        assert_eq!(a, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        // ...including strided selections.
        let s: Vec<f32> = ds.get_vars_all(grid, &[0], &[4], &[2]).unwrap();
        assert_eq!(s, vec![0.0, 2.0, 4.0, 6.0]);
        // Bounds are still enforced on the cached path.
        assert!(ds.get_vara_all::<f32>(grid, &[6], &[4]).is_err());
        ds.close().unwrap();
    });
}

#[test]
fn cached_reads_cost_less_than_uncached() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    make_file(&pfs);

    let read_time = |info: Info| -> Time {
        let pfs = pfs.clone();
        pfs.reset_timing();
        let run = run_world(2, cfg(), move |c| {
            let mut ds = Dataset::open(c, &pfs, "f.nc", true, &info).unwrap();
            let grid = ds.inq_varid("grid").unwrap();
            // Many small reads — the access pattern the hint exists for.
            let t0 = c.now();
            for _ in 0..50 {
                let _: Vec<f32> = ds.get_vara_all(grid, &[0], &[8]).unwrap();
            }
            let t = c.now() - t0;
            ds.close().unwrap();
            t
        });
        run.results.into_iter().max().unwrap()
    };

    let cached = read_time(Info::new().with("nc_prefetch_vars", "grid"));
    let uncached = read_time(Info::new());
    assert!(
        cached.as_secs_f64() < uncached.as_secs_f64() / 5.0,
        "cached {cached} should be far below uncached {uncached}"
    );
}

#[test]
fn write_invalidates_cache() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    make_file(&pfs);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let info = Info::new().with("nc_prefetch_vars", "grid");
        let mut ds = Dataset::open(c, &pfs2, "f.nc", false, &info).unwrap();
        let grid = ds.inq_varid("grid").unwrap();
        assert!(ds.is_prefetched(grid));
        // A collective write drops the cache on every rank...
        ds.put_vara_all(grid, &[c.rank() as u64 * 4], &[4], &[9.0f32; 4])
            .unwrap();
        assert!(!ds.is_prefetched(grid));
        // ...and subsequent reads see the new data.
        let g: Vec<f32> = ds.get_vara_all(grid, &[0], &[8]).unwrap();
        assert_eq!(g, vec![9.0; 8]);
        ds.close().unwrap();
    });
}

/// The cache serves an access, whichever call made it: a flexible get of a
/// prefetched variable returns the cached values, into packed and into
/// strided memory, at the cost of the typed get — a conversion pass, no I/O.
#[test]
fn flexible_gets_are_served_from_the_cache_too() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    make_file(&pfs);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let info = Info::new().with("nc_prefetch_vars", "aux");
        let mut ds = Dataset::open(c, &pfs2, "f.nc", true, &info).unwrap();
        let aux = ds.inq_varid("aux").unwrap();
        let t0 = c.now();
        let typed: Vec<i32> = ds.get_vara_all(aux, &[2], &[4]).unwrap();
        let typed_cost = c.now() - t0;
        assert_eq!(typed, vec![20, 30, 40, 50]);

        let ints = |buf: &[u8], step: usize| -> Vec<i32> {
            buf.chunks(step)
                .map(|c| i32::from_ne_bytes(c[..4].try_into().unwrap()))
                .collect()
        };
        let t0 = c.now();
        let mut buf = [0u8; 16];
        ds.get_vara_all_flexible(aux, &[2], &[4], &mut buf, 4, &Datatype::int())
            .unwrap();
        assert_eq!(
            c.now() - t0,
            typed_cost,
            "a cached get did more than convert"
        );
        assert_eq!(ints(&buf, 4), typed);

        let every_other = Datatype::vector(4, 1, 2, Datatype::int());
        let mut buf = [0u8; 32];
        ds.get_vara_all_flexible(aux, &[2], &[4], &mut buf, 1, &every_other)
            .unwrap();
        assert_eq!(ints(&buf, 8), typed);
        ds.close().unwrap();
    });
}
