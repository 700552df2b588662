//! Cost-structure tests: the HDF5-sim baseline must be a fair one — close
//! to PnetCDF-style raw collective I/O for one big dataset, slower only
//! through the structural overheads the paper names.

use hdf5_sim::{H5File, H5Type, TransferMode};
use hpc_sim::{SimConfig, Time};
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode};
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::asci_frost()
}

/// Time for one large contiguous collective write through raw MPI-IO.
fn raw_mpiio_time(nprocs: usize, total_elems: u64) -> Time {
    let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
    let run = run_world(nprocs, cfg(), move |c| {
        let f = MpiFile::open(c, &pfs, "raw", OpenMode::Create, &Info::new()).unwrap();
        let slab = (total_elems / nprocs as u64) as usize;
        let data = vec![0u8; slab * 8];
        let run = ((c.rank() * slab * 8) as u64, data.len() as u64);
        let t0 = c.now();
        f.write_runs_at_all(&[run], &data).unwrap();
        c.now() - t0
    });
    run.results.into_iter().max().unwrap()
}

/// Time for the same volume through HDF5-sim as one dataset.
fn h5_single_dataset_time(nprocs: usize, total_elems: u64, xfer: TransferMode) -> Time {
    let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
    let run = run_world(nprocs, cfg(), move |c| {
        let mut f = H5File::create(c, &pfs, "one.h5", &Info::new()).unwrap();
        let slab = total_elems / nprocs as u64;
        let vals = vec![0f64; slab as usize];
        let t0 = c.now();
        let mut d = f.create_dataset("x", H5Type::F64, &[total_elems]).unwrap();
        d.set_transfer_mode(xfer);
        d.write_all(&mut f, &[c.rank() as u64 * slab], &[slab], &vals)
            .unwrap();
        d.close(&mut f).unwrap();
        let t = c.now() - t0;
        f.close().unwrap();
        t
    });
    run.results.into_iter().max().unwrap()
}

#[test]
fn single_large_dataset_collective_is_close_to_raw_mpiio() {
    // One 32 MiB dataset on 4 ranks with the collective transfer mode:
    // HDF5-sim overhead must be modest (< 40% over raw collective MPI-IO)
    // — the baseline is not a strawman; its gap comes from its structure,
    // not a crippled data path.
    let elems = 4 * 1024 * 1024; // f64
    let raw = raw_mpiio_time(4, elems);
    let h5 = h5_single_dataset_time(4, elems, TransferMode::Collective);
    assert!(h5 >= raw, "HDF5 can't beat the raw path it sits on");
    let ratio = h5.as_secs_f64() / raw.as_secs_f64();
    assert!(
        ratio < 1.4,
        "single-dataset HDF5 overhead too large: {ratio:.2}x over raw"
    );
}

#[test]
fn independent_default_matches_hdf5_1_4_5() {
    // The default transfer mode is independent, as in HDF5 1.4.5.
    let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
    run_world(2, cfg(), move |c| {
        let mut f = H5File::create(c, &pfs, "m.h5", &Info::new()).unwrap();
        let d = f.create_dataset("x", H5Type::F32, &[8]).unwrap();
        assert_eq!(d.transfer_mode(), TransferMode::Independent);
        d.close(&mut f).unwrap();
        f.close().unwrap();
    });
}

#[test]
fn dataset_create_costs_grow_with_count() {
    let time_n_creates = |n: usize| {
        let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
        let run = run_world(4, cfg(), move |c| {
            let mut f = H5File::create(c, &pfs, "n.h5", &Info::new()).unwrap();
            let t0 = c.now();
            for i in 0..n {
                let d = f
                    .create_dataset(&format!("d{i}"), H5Type::F32, &[16])
                    .unwrap();
                d.close(&mut f).unwrap();
            }
            let t = c.now() - t0;
            f.close().unwrap();
            t
        });
        run.results.into_iter().max().unwrap()
    };
    let t4 = time_n_creates(4);
    let t16 = time_n_creates(16);
    // Cost per create is roughly constant, so 16 creates cost ~4x 4 creates.
    let ratio = t16.as_secs_f64() / t4.as_secs_f64();
    assert!(
        (2.5..6.0).contains(&ratio),
        "create scaling ratio {ratio:.2} outside the linear band"
    );
}

#[test]
fn write_costs_more_than_read_due_to_metadata_sync() {
    // The paper's §6 conjecture in miniature: same selection, write pays
    // the metadata update + synchronization, read does not.
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let run = run_world(4, cfg(), move |c| {
        let mut f = H5File::create(c, &pfs, "rw.h5", &Info::new()).unwrap();
        let mut d = f.create_dataset("x", H5Type::F64, &[4096]).unwrap();
        d.set_transfer_mode(TransferMode::Collective);
        let slab = 1024u64;
        let vals = vec![1.0f64; slab as usize];
        let s = c.rank() as u64 * slab;

        let t0 = c.now();
        d.write_all(&mut f, &[s], &[slab], &vals).unwrap();
        let t_write = c.now() - t0;

        let t1 = c.now();
        let _back: Vec<f64> = d.read_all(&mut f, &[s], &[slab]).unwrap();
        let t_read = c.now() - t1;
        d.close(&mut f).unwrap();
        f.close().unwrap();
        (t_write, t_read)
    });
    for (w, r) in run.results {
        assert!(
            w > r,
            "write ({w}) should exceed read ({r}) via the metadata sync"
        );
    }
}

#[test]
fn namespace_iteration_cost_grows_with_position() {
    // Opening the last of many datasets costs more than opening the first
    // (rank 0 walks the symbol table).
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let run = run_world(2, cfg(), move |c| {
        let mut f = H5File::create(c, &pfs, "ns.h5", &Info::new()).unwrap();
        for i in 0..64 {
            let d = f
                .create_dataset(&format!("d{i:02}"), H5Type::I32, &[4])
                .unwrap();
            d.close(&mut f).unwrap();
        }
        let t0 = c.now();
        let d = f.open_dataset("d00").unwrap();
        let t_first = c.now() - t0;
        drop(d);
        let t1 = c.now();
        let d = f.open_dataset("d63").unwrap();
        let t_last = c.now() - t1;
        drop(d);
        f.close().unwrap();
        (t_first, t_last)
    });
    for (first, last) in run.results {
        assert!(
            last > first,
            "opening d63 ({last}) should cost more than d00 ({first})"
        );
    }
}
