//! FLASH output through PnetCDF (the port described in paper §5.2: "we
//! modified this benchmark, removed the part of code writing attributes,
//! ported it to PnetCDF").

use pnetcdf::{Dataset, NcType, NcmpiResult, Version};
use pnetcdf_mpi::Comm;
use pnetcdf_pfs::Pfs;

use crate::harness::{OutputKind, Puts, WriteMode};
use crate::mesh::{BlockMesh, NPLOT, NUNK, UNK_NAMES};

/// Write one FLASH output file through PnetCDF the way the paper's port
/// does (no attributes, aggregated puts, no hints). Returns the bytes of
/// array data written by all ranks.
pub fn write(
    comm: &Comm,
    pfs: &Pfs,
    mesh: &BlockMesh,
    kind: OutputKind,
    path: &str,
) -> NcmpiResult<u64> {
    write_as(comm, pfs, mesh, kind, path, false, &WriteMode::default())
}

/// Like [`write`], with the puts and `ncmpi_create` hints of `mode`, and
/// optionally the per-variable attributes the original benchmark carried.
/// In PnetCDF every attribute lands in the one header that rank 0 writes at
/// `enddef` — near-free.
pub fn write_as(
    comm: &Comm,
    pfs: &Pfs,
    mesh: &BlockMesh,
    kind: OutputKind,
    path: &str,
    attributes: bool,
    mode: &WriteMode,
) -> NcmpiResult<u64> {
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

    let mut ds = Dataset::create(comm, pfs, path, Version::Cdf2, &mode.info)?;
    let d_blocks = ds.def_dim("blocks", tot)?;
    let d_z = ds.def_dim("z", side)?;
    let d_y = ds.def_dim("y", side)?;
    let d_x = ds.def_dim("x", side)?;
    let d_mdim = ds.def_dim("mdim", 3)?;
    let d_two = ds.def_dim("two", 2)?;

    let v_lref = ds.def_var("lrefine", NcType::Int, &[d_blocks])?;
    let v_node = ds.def_var("nodetype", NcType::Int, &[d_blocks])?;
    let v_coord = ds.def_var("coordinates", NcType::Double, &[d_blocks, d_mdim])?;
    let v_bsize = ds.def_var("blocksize", NcType::Double, &[d_blocks, d_mdim])?;
    let v_bnd = ds.def_var("bndbox", NcType::Double, &[d_blocks, d_mdim, d_two])?;
    let elem_type = match kind {
        OutputKind::Checkpoint => NcType::Double,
        _ => NcType::Float,
    };
    let mut unk_ids = Vec::with_capacity(nvars);
    for name in UNK_NAMES.iter().take(nvars) {
        let id = ds.def_var(name, elem_type, &[d_blocks, d_z, d_y, d_x])?;
        if attributes {
            ds.put_vatt_text(id, "units", "code units")?;
            ds.put_vatt_text(id, "long_name", name)?;
            ds.put_vatt(id, "minimum", pnetcdf::AttrValue::Double(vec![0.0]))?;
            ds.put_vatt(id, "maximum", pnetcdf::AttrValue::Double(vec![1.0e10]))?;
        }
        unk_ids.push(id);
    }
    if attributes {
        ds.put_gatt_text("file_creation_time", "2003-11-15 12:00:00")?;
        ds.put_gatt("time", pnetcdf::AttrValue::Double(vec![0.5]))?;
        ds.put_gatt("timestep", pnetcdf::AttrValue::Int(vec![42]))?;
    }
    ds.enddef()?;

    // Block metadata and unknowns. On the aggregated path every access is
    // queued as a nonblocking write and flushed by one collective `wait_all`
    // — a single two-phase round replaces the ~29 per-variable collective
    // rounds (5 metadata + NUNK/NPLOT unknowns) of the blocking port. The
    // independent port issues each access on its own in independent mode.
    if mode.puts == Puts::IndependentBlocks {
        ds.begin_indep_data()?;
    }
    macro_rules! put {
        ($vid:expr, $start:expr, $count:expr, $vals:expr) => {
            match mode.puts {
                Puts::Aggregate => ds.iput_vara($vid, $start, $count, $vals).map(|_| ())?,
                Puts::Blocking => ds.put_vara_all($vid, $start, $count, $vals)?,
                Puts::IndependentBlocks => ds.put_vara($vid, $start, $count, $vals)?,
            }
        };
    }
    put!(v_lref, &[first], &[bpp], &mesh.refine_levels(comm.rank()));
    put!(v_node, &[first], &[bpp], &mesh.node_types(comm.rank()));
    put!(
        v_coord,
        &[first, 0],
        &[bpp, 3],
        &mesh.coordinates(comm.rank())
    );
    put!(
        v_bsize,
        &[first, 0],
        &[bpp, 3],
        &mesh.block_sizes(comm.rank())
    );
    put!(
        v_bnd,
        &[first, 0, 0],
        &[bpp, 3, 2],
        &mesh.bounding_boxes(comm.rank())
    );

    // Unknowns. The aggregate/blocking ports issue one access per variable
    // from a contiguous stripped buffer; the independent port issues one
    // access per block, which is what FLASH's own loop structure produces.
    // Every unknown is stripped into the same array (and narrowed into the
    // same single-precision one for a plotfile): a put, queued or not, has
    // copied what it was given when it returns.
    let start = [first, 0, 0, 0];
    let count = [bpp, side, side, side];
    let s3 = (side * side * side) as usize;
    let (mut buf, mut f32buf, mut guarded) = (Vec::<f64>::new(), Vec::<f32>::new(), Vec::new());
    for (var, &vid) in unk_ids.iter().enumerate() {
        mesh.interior_buffer_into(comm.rank(), var, side, &mut buf, &mut guarded);
        if mode.puts == Puts::IndependentBlocks {
            for b in 0..bpp {
                let bstart = [first + b, 0, 0, 0];
                let bcount = [1, side, side, side];
                let block = &buf[b as usize * s3..(b as usize + 1) * s3];
                match kind {
                    OutputKind::Checkpoint => ds.put_vara(vid, &bstart, &bcount, block)?,
                    _ => {
                        f32buf.clear();
                        f32buf.extend(block.iter().map(|&v| v as f32));
                        ds.put_vara(vid, &bstart, &bcount, &f32buf)?
                    }
                }
            }
        } else {
            match kind {
                OutputKind::Checkpoint => put!(vid, &start, &count, &buf),
                _ => {
                    f32buf.clear();
                    f32buf.extend(buf.iter().map(|&v| v as f32));
                    put!(vid, &start, &count, &f32buf)
                }
            };
        }
    }
    match mode.puts {
        Puts::Aggregate => ds.wait_all()?,
        Puts::IndependentBlocks => ds.end_indep_data()?,
        Puts::Blocking => {}
    }
    // Freed after the collective flush, not before it: every rank then
    // reaches the flush holding the same buffers, and the process's heap
    // peaks there, where the ranks wait for each other, rather than when one
    // rank strips an unknown while the others have got further or less far.
    drop((buf, f32buf, guarded));
    ds.close()?;

    let meta_bytes = tot * (4 + 4 + 24 + 24 + 48);
    let data_bytes = tot * side * side * side * nvars as u64 * elem_type.size();
    Ok(meta_bytes + data_bytes)
}
