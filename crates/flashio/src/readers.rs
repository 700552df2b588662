//! FLASH restart (read-back) kernels — the paper's future work, §6: "we
//! are interested in seeing how read performance compares between PnetCDF
//! and HDF5; perhaps without the additional synchronization of writes the
//! performance is more comparable."
//!
//! Restart inverts the checkpoint pattern: every processor reads its 80
//! blocks of all unknowns plus the block metadata from an existing file.

use hdf5_sim::H5File;
use pnetcdf::{Dataset, Info};
use pnetcdf_mpi::Comm;
use pnetcdf_pfs::Pfs;

use crate::harness::OutputKind;
use crate::mesh::{BlockMesh, NUNK, UNK_NAMES};

/// Read a checkpoint back through PnetCDF; returns bytes read by all ranks.
pub fn read_pnetcdf(
    comm: &Comm,
    pfs: &Pfs,
    mesh: &BlockMesh,
    path: &str,
) -> pnetcdf::NcmpiResult<u64> {
    let bpp = mesh.blocks_per_proc;
    let first = mesh.first_block(comm.rank());
    let side = mesh.nxb;

    let mut ds = Dataset::open(comm, pfs, path, true, &Info::new())?;
    let mut bytes = 0u64;
    let lref = ds.inq_varid("lrefine")?;
    let levels: Vec<i32> = ds.get_vara_all(lref, &[first], &[bpp])?;
    bytes += levels.len() as u64 * 4;
    let coord = ds.inq_varid("coordinates")?;
    let coords: Vec<f64> = ds.get_vara_all(coord, &[first, 0], &[bpp, 3])?;
    bytes += coords.len() as u64 * 8;

    let start = [first, 0, 0, 0];
    let count = [bpp, side, side, side];
    for name in UNK_NAMES.iter().take(NUNK) {
        let v = ds.inq_varid(name)?;
        let vals: Vec<f64> = ds.get_vara_all(v, &start, &count)?;
        bytes += vals.len() as u64 * 8;
    }
    ds.close()?;
    Ok(bytes * comm.size() as u64)
}

/// Read a checkpoint back through HDF5-sim.
pub fn read_hdf5(comm: &Comm, pfs: &Pfs, mesh: &BlockMesh, path: &str) -> hdf5_sim::H5Result<u64> {
    let bpp = mesh.blocks_per_proc;
    let first = mesh.first_block(comm.rank());
    let side = mesh.nxb;

    let mut f = H5File::open(comm, pfs, path, true, &Info::new())?;
    let mut bytes = 0u64;
    {
        let d = f.open_dataset("lrefine")?;
        let levels: Vec<i32> = d.read_all(&mut f, &[first], &[bpp])?;
        bytes += levels.len() as u64 * 4;
    }
    {
        let d = f.open_dataset("coordinates")?;
        let coords: Vec<f64> = d.read_all(&mut f, &[first, 0], &[bpp, 3])?;
        bytes += coords.len() as u64 * 8;
    }
    let start = [first, 0, 0, 0];
    let count = [bpp, side, side, side];
    for name in UNK_NAMES.iter().take(NUNK) {
        let d = f.open_dataset(name)?;
        let vals: Vec<f64> = d.read_all(&mut f, &start, &count)?;
        bytes += vals.len() as u64 * 8;
    }
    f.close()?;
    Ok(bytes * comm.size() as u64)
}

/// Write a checkpoint then read it back, timing only the read phase.
/// Returns `(bytes_read, read_time)`.
pub fn run_restart(
    lib: crate::harness::IoLibrary,
    mesh: BlockMesh,
    sim: hpc_sim::SimConfig,
    storage: pnetcdf_pfs::StorageMode,
) -> (u64, hpc_sim::Time) {
    use crate::harness::IoLibrary;
    let pfs = Pfs::new(sim.clone(), storage);
    let run = pnetcdf_mpi::run_world(mesh.nprocs, sim, move |comm| {
        match lib {
            IoLibrary::Pnetcdf => {
                crate::writers::pnetcdf::write(comm, &pfs, &mesh, OutputKind::Checkpoint, "ck")
                    .expect("write");
            }
            IoLibrary::Hdf5 => {
                crate::writers::hdf5::write(comm, &pfs, &mesh, OutputKind::Checkpoint, "ck", false)
                    .expect("write");
            }
        }
        let t0 = comm.now();
        let bytes = match lib {
            IoLibrary::Pnetcdf => read_pnetcdf(comm, &pfs, &mesh, "ck").expect("read"),
            IoLibrary::Hdf5 => read_hdf5(comm, &pfs, &mesh, "ck").expect("read"),
        };
        (bytes, comm.now() - t0)
    });
    let bytes = run.results[0].0;
    let time = run.results.iter().map(|r| r.1).max().unwrap();
    (bytes, time)
}
