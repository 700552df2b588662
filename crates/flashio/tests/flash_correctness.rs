//! Correctness of the FLASH I/O writers: the PnetCDF-produced checkpoint is
//! a valid netCDF file whose contents match the generated mesh, and both
//! writers run all three output kinds.

use flash_io::{run_flash_io, BlockMesh, FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::SimConfig;
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

#[test]
fn pnetcdf_checkpoint_contents_verify_serially() {
    // Tiny mesh so the file stays small: 4 blocks of 4^3 per proc.
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let mesh = BlockMesh {
        nxb: 4,
        blocks_per_proc: 4,
        nprocs: 2,
    };
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        flash_io::writers::pnetcdf::write(c, &pfs2, &mesh, OutputKind::Checkpoint, "ck.nc")
            .unwrap();
    });

    let bytes = pfs.open("ck.nc").unwrap().to_bytes();
    let mut f = netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
    // 5 metadata vars + 24 unknowns.
    assert_eq!(f.header().vars.len(), 29);

    let dens = f.var_id("dens").unwrap();
    let v: Vec<f64> = f.get_vara(dens, &[5, 0, 0, 0], &[1, 4, 4, 4]).unwrap();
    // Global block 5 belongs to rank 1; var "dens" is index 0.
    for (cell, &got) in v.iter().enumerate() {
        assert_eq!(got, mesh.cell_value(0, 5, cell as u64));
    }

    let lref = f.var_id("lrefine").unwrap();
    let levels: Vec<i32> = f.get_var(lref).unwrap();
    assert_eq!(levels.len(), 8);
    assert_eq!(levels[0], 1);
    assert_eq!(levels[5], 1 + 5_i32);

    let bnd = f.var_id("bndbox").unwrap();
    let bb: Vec<f64> = f.get_vara(bnd, &[3, 0, 0], &[1, 3, 2]).unwrap();
    assert!(bb[0] < bb[1]);
}

#[test]
fn both_writers_handle_all_output_kinds() {
    for lib in [IoLibrary::Pnetcdf, IoLibrary::Hdf5] {
        for kind in [
            OutputKind::Checkpoint,
            OutputKind::Plotfile,
            OutputKind::PlotfileCorners,
        ] {
            let config = FlashConfig {
                nxb: 4,
                nprocs: 2,
                kind,
                lib,
                blocks_per_proc: 2,
                attributes: true,
            };
            let (res, _) = run_flash_io(config, &cfg(), StorageMode::Full, WriteMode::default());
            assert!(res.bytes > 0, "{lib:?} {kind:?}");
            assert!(res.bandwidth_mb_s > 0.0, "{lib:?} {kind:?}");
        }
    }
}

#[test]
fn hdf5_checkpoint_reads_back() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let mesh = BlockMesh {
        nxb: 4,
        blocks_per_proc: 2,
        nprocs: 2,
    };
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        flash_io::writers::hdf5::write(c, &pfs2, &mesh, OutputKind::Checkpoint, "ck.h5", false)
            .unwrap();
        // Re-open and verify a block of the first unknown.
        let mut f =
            hdf5_sim::H5File::open(c, &pfs2, "ck.h5", true, &pnetcdf_mpi::Info::new()).unwrap();
        let d = f.open_dataset("dens").unwrap();
        assert_eq!(d.dims(), &[4, 4, 4, 4]);
        let vals: Vec<f64> = d.read_all(&mut f, &[2, 0, 0, 0], &[1, 4, 4, 4]).unwrap();
        for (cell, &got) in vals.iter().enumerate() {
            assert_eq!(got, mesh.cell_value(0, 2, cell as u64));
        }
        f.close().unwrap();
    });
}

#[test]
fn pnetcdf_beats_hdf5_on_flash_pattern() {
    // The headline qualitative claim of Figure 7, at miniature scale.
    let mk = |lib| FlashConfig {
        nxb: 8,
        nprocs: 4,
        kind: OutputKind::Checkpoint,
        lib,
        blocks_per_proc: 8,
        attributes: false,
    };
    let sim = SimConfig::asci_frost();
    let run = |lib| run_flash_io(mk(lib), &sim, StorageMode::CostOnly, WriteMode::default()).0;
    let (p, h) = (run(IoLibrary::Pnetcdf), run(IoLibrary::Hdf5));
    assert!(
        p.bandwidth_mb_s > h.bandwidth_mb_s,
        "PnetCDF {:.1} MB/s should beat HDF5 {:.1} MB/s",
        p.bandwidth_mb_s,
        h.bandwidth_mb_s
    );
}
