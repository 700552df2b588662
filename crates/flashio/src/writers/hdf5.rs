//! FLASH output through HDF5-sim (the benchmark's original path: "produces
//! a checkpoint file, a plotfile with centered data, and a plotfile with
//! corner data, using parallel HDF5").

use hdf5_sim::{H5File, H5Result, H5Type};
use pnetcdf_mpi::{Comm, Info};
use pnetcdf_pfs::Pfs;

use crate::harness::OutputKind;
use crate::mesh::{BlockMesh, NPLOT, NUNK, UNK_NAMES};

/// Write one FLASH output file through HDF5-sim, optionally restoring the
/// per-variable attributes the original benchmark carried (the paper's port
/// has none). In HDF5 each attribute is its own dispersed metadata write
/// plus a synchronization. Returns the bytes of array data written by all
/// ranks.
pub fn write(
    comm: &Comm,
    pfs: &Pfs,
    mesh: &BlockMesh,
    kind: OutputKind,
    path: &str,
    attributes: bool,
) -> H5Result<u64> {
    let tot = mesh.total_blocks();
    let bpp = mesh.blocks_per_proc;
    let first = mesh.first_block(comm.rank());
    let side = match kind {
        OutputKind::PlotfileCorners => mesh.nxb + 1,
        _ => mesh.nxb,
    };
    let nvars = match kind {
        OutputKind::Checkpoint => NUNK,
        _ => NPLOT,
    };

    let mut f = H5File::create(comm, pfs, path, &Info::new())?;

    // Block metadata: each becomes its own dataset with its own collective
    // create/write/close — the HDF5 way.
    {
        let mut d = f.create_dataset("lrefine", H5Type::I32, &[tot])?;
        d.write_all(&mut f, &[first], &[bpp], &mesh.refine_levels(comm.rank()))?;
        d.close(&mut f)?;
    }
    {
        let mut d = f.create_dataset("node type", H5Type::I32, &[tot])?;
        d.write_all(&mut f, &[first], &[bpp], &mesh.node_types(comm.rank()))?;
        d.close(&mut f)?;
    }
    {
        let mut d = f.create_dataset("coordinates", H5Type::F64, &[tot, 3])?;
        d.write_all(
            &mut f,
            &[first, 0],
            &[bpp, 3],
            &mesh.coordinates(comm.rank()),
        )?;
        d.close(&mut f)?;
    }
    {
        let mut d = f.create_dataset("block size", H5Type::F64, &[tot, 3])?;
        d.write_all(
            &mut f,
            &[first, 0],
            &[bpp, 3],
            &mesh.block_sizes(comm.rank()),
        )?;
        d.close(&mut f)?;
    }
    {
        let mut d = f.create_dataset("bounding box", H5Type::F64, &[tot, 3, 2])?;
        d.write_all(
            &mut f,
            &[first, 0, 0],
            &[bpp, 3, 2],
            &mesh.bounding_boxes(comm.rank()),
        )?;
        d.close(&mut f)?;
    }

    // One dataset per unknown, created/opened/closed collectively each.
    let start = [first, 0, 0, 0];
    let count = [bpp, side, side, side];
    let dims = [tot, side, side, side];
    for (var, name) in UNK_NAMES.iter().take(nvars).enumerate() {
        let buf = mesh.interior_buffer(comm.rank(), var, side);
        match kind {
            OutputKind::Checkpoint => {
                let mut d = f.create_dataset(name, H5Type::F64, &dims)?;
                if attributes {
                    d.write_attribute(&mut f, "units", b"code units")?;
                    d.write_attribute(&mut f, "long_name", name.as_bytes())?;
                    d.write_attribute(&mut f, "minimum", &0.0f64.to_ne_bytes())?;
                    d.write_attribute(&mut f, "maximum", &1.0e10f64.to_ne_bytes())?;
                }
                d.write_all(&mut f, &start, &count, &buf)?;
                d.close(&mut f)?;
            }
            _ => {
                let f32buf: Vec<f32> = buf.iter().map(|&v| v as f32).collect();
                let mut d = f.create_dataset(name, H5Type::F32, &dims)?;
                if attributes {
                    d.write_attribute(&mut f, "units", b"code units")?;
                    d.write_attribute(&mut f, "long_name", name.as_bytes())?;
                }
                d.write_all(&mut f, &start, &count, &f32buf)?;
                d.close(&mut f)?;
            }
        }
    }
    f.close()?;

    let esize = match kind {
        OutputKind::Checkpoint => 8,
        _ => 4,
    };
    let meta_bytes = tot * (4 + 4 + 24 + 24 + 48);
    let data_bytes = tot * side * side * side * nvars as u64 * esize;
    Ok(meta_bytes + data_bytes)
}
