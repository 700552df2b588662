//! Record (unlimited-dimension) variable behaviour: interleaved layout,
//! growth, numrecs reconciliation across ranks, multi-variable records.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

#[test]
fn records_interleave_on_disk() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "r.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 2).unwrap();
        let a = ds.def_var("a", NcType::Int, &[t, x]).unwrap();
        let b = ds.def_var("b", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();
        for r in 0..3u64 {
            ds.put_vara_all(a, &[r, 0], &[1, 2], &[(10 * r) as i32, (10 * r + 1) as i32])
                .unwrap();
            ds.put_vara_all(
                b,
                &[r, 0],
                &[1, 2],
                &[(100 * r) as i32, (100 * r + 1) as i32],
            )
            .unwrap();
        }
        ds.close().unwrap();
    });

    // On disk: a record of `a` then a record of `b`, repeating.
    let bytes = pfs.open("r.nc").unwrap().to_bytes();
    let mut f = netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
    let layout = f.layout();
    assert_eq!(
        layout.recsize, 16,
        "two vars x 2 ints each = 16 bytes/record"
    );
    let a = f.var_id("a").unwrap();
    let b = f.var_id("b").unwrap();
    let va: Vec<i32> = f.get_var(a).unwrap();
    assert_eq!(va, vec![0, 1, 10, 11, 20, 21]);
    let vb: Vec<i32> = f.get_var(b).unwrap();
    assert_eq!(vb, vec![0, 1, 100, 101, 200, 201]);
}

#[test]
fn collective_record_growth_reconciles_numrecs() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(4, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "g.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("ts", NcType::Double, &[t, x]).unwrap();
        ds.enddef().unwrap();

        // Each rank writes a different record: rank r writes record r.
        let r = c.rank() as u64;
        ds.put_vara_all(v, &[r, 0], &[1, 4], &[r as f64; 4])
            .unwrap();
        // After the collective write every rank agrees on numrecs.
        assert_eq!(ds.numrecs(), 4);

        // A later record leaves a gap; numrecs covers it.
        ds.put_vara_all(v, &[7, 0], &[1, 4], &[70.0; 4]).unwrap();
        assert_eq!(ds.numrecs(), 8);

        // Unwritten record reads as zeros.
        let gap: Vec<f64> = ds.get_vara_all(v, &[5, 0], &[1, 4]).unwrap();
        assert_eq!(gap, vec![0.0; 4]);
        ds.close().unwrap();
    });
}

#[test]
fn independent_record_growth_reconciles_at_end_indep() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(3, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "i.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let v = ds.def_var("s", NcType::Int, &[t]).unwrap();
        ds.enddef().unwrap();
        ds.begin_indep_data().unwrap();
        // Rank r writes record 2r; local numrecs views diverge.
        let r = c.rank() as u64;
        ds.put_vara(v, &[2 * r], &[1], &[r as i32]).unwrap();
        ds.end_indep_data().unwrap();
        // Reconciled to the max: last record is 4, so numrecs = 5.
        assert_eq!(ds.numrecs(), 5);
        let all: Vec<i32> = ds.get_vara_all(v, &[0], &[5]).unwrap();
        assert_eq!(all, vec![0, 0, 1, 0, 2]);
        ds.close().unwrap();
    });
}

#[test]
fn numrecs_persists_through_close_and_open() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        {
            let mut ds = Dataset::create(c, &pfs, "n.nc", Version::Cdf1, &Info::new()).unwrap();
            let t = ds.def_dim("time", 0).unwrap();
            let v = ds.def_var("s", NcType::Short, &[t]).unwrap();
            ds.enddef().unwrap();
            ds.put_vara_all(v, &[(c.rank() * 3) as u64], &[3], &[1i16, 2, 3])
                .unwrap();
            ds.close().unwrap();
        }
        {
            let mut ds = Dataset::open(c, &pfs, "n.nc", true, &Info::new()).unwrap();
            assert_eq!(ds.numrecs(), 6);
            let (name, len) = ds.inq_dim(0).unwrap();
            assert_eq!(name, "time");
            assert_eq!(len, 6);
            let all: Vec<i16> = ds.get_vara_all(0, &[0], &[6]).unwrap();
            assert_eq!(all, vec![1, 2, 3, 1, 2, 3]);
            ds.close().unwrap();
        }
    });
}

#[test]
fn record_reads_past_numrecs_fail() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "b.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let v = ds.def_var("s", NcType::Int, &[t]).unwrap();
        ds.enddef().unwrap();
        ds.put_vara_all(v, &[0], &[2], &[1, 2]).unwrap();
        assert!(ds.get_vara_all::<i32>(v, &[2], &[1]).is_err());
        ds.close().unwrap();
    });
}

#[test]
fn mixed_fixed_and_record_vars() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "mix.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let fixed = ds.def_var("grid", NcType::Float, &[x]).unwrap();
        let rec = ds.def_var("series", NcType::Float, &[t, x]).unwrap();
        ds.enddef().unwrap();

        let half = (c.rank() * 2) as u64;
        ds.put_vara_all(fixed, &[half], &[2], &[half as f32, half as f32 + 1.0])
            .unwrap();
        for r in 0..2u64 {
            ds.put_vara_all(
                rec,
                &[r, half],
                &[1, 2],
                &[r as f32 * 10.0, r as f32 * 10.0 + 1.0],
            )
            .unwrap();
        }

        let g: Vec<f32> = ds.get_vara_all(fixed, &[0], &[4]).unwrap();
        assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0]);
        let s: Vec<f32> = ds.get_vara_all(rec, &[1, 0], &[1, 4]).unwrap();
        assert_eq!(s, vec![10.0, 11.0, 10.0, 11.0]);
        ds.close().unwrap();
    });
}

/// A collective put that another rank's validation rejects writes nothing,
/// so it must not leave the record count grown on the ranks whose own
/// arguments were fine: every rank returns the same error, `numrecs` stays
/// where it was, and the closed file reports the old count.
#[test]
fn rejected_collective_put_does_not_grow_numrecs() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let world = run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "rej.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("ts", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();
        let r = c.rank() as u64;
        ds.put_vara_all(v, &[r, 0], &[1, 4], &[r as i32; 4])
            .unwrap();
        assert_eq!(ds.numrecs(), 2);

        // Rank 0 asks for record 5 correctly; rank 1 overruns `x`.
        let count = if c.rank() == 0 { [1, 4] } else { [1, 9] };
        let vals = vec![7i32; count[1] as usize];
        let err = ds.put_vara_all(v, &[5, 0], &count, &vals).unwrap_err();
        assert_eq!(ds.numrecs(), 2, "rank {r} kept records nobody wrote");
        ds.close().unwrap();

        let ds = Dataset::open(c, &pfs, "rej.nc", true, &Info::new()).unwrap();
        assert_eq!(ds.numrecs(), 2, "the file reports records nobody wrote");
        ds.close().unwrap();
        err.to_string()
    });
    assert_eq!(world.results[0], world.results[1]);
}
