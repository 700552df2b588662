//! Datasets: hyperslab-selected data access.
//!
//! HDF5 1.4.5's default data transfer mode was
//! `H5FD_MPIO_INDEPENDENT`: each process writes its selection with its own
//! MPI-IO request, with no cross-process aggregation — and the FLASH I/O
//! benchmark of the era used that default. This is a large part of the
//! Figure 7 gap: PnetCDF's collective writes aggregate the interleaved
//! per-rank slabs into large ordered requests, while HDF5's independent
//! writes land interleaved on the I/O servers. `TransferMode::Collective`
//! is available as the opt-in it was in real HDF5.

use crate::error::H5Result;
use crate::file::H5File;
use crate::format::{H5Type, ObjectHeader};
use crate::hyperslab::{self, PACK_COST_MULTIPLIER};

/// Native scalar types storable in HDF5-sim datasets (stored native-endian,
/// as real HDF5 does with native datatypes).
pub trait H5Native: Copy {
    /// The corresponding file type.
    const TYPE: H5Type;
    /// Encode a slice to bytes.
    fn slice_to_bytes(vals: &[Self]) -> Vec<u8>;
    /// Decode bytes to values.
    fn bytes_to_vec(bytes: &[u8]) -> Vec<Self>;
}

macro_rules! impl_native {
    ($t:ty, $code:expr) => {
        impl H5Native for $t {
            const TYPE: H5Type = $code;
            fn slice_to_bytes(vals: &[Self]) -> Vec<u8> {
                let mut out = Vec::with_capacity(vals.len() * std::mem::size_of::<$t>());
                for v in vals {
                    out.extend_from_slice(&v.to_ne_bytes());
                }
                out
            }
            fn bytes_to_vec(bytes: &[u8]) -> Vec<Self> {
                bytes
                    .chunks_exact(std::mem::size_of::<$t>())
                    .map(|c| <$t>::from_ne_bytes(c.try_into().unwrap()))
                    .collect()
            }
        }
    };
}

impl_native!(f32, H5Type::F32);
impl_native!(f64, H5Type::F64);
impl_native!(i32, H5Type::I32);

/// Data transfer mode (`H5FD_MPIO_*`). Independent is the 1.4.5 default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Each process issues its own MPI-IO request (the default).
    #[default]
    Independent,
    /// Two-phase collective I/O (opt-in, as in real HDF5).
    Collective,
}

/// An open dataset (per rank).
pub struct H5Dataset {
    pub(crate) name: String,
    pub(crate) header_addr: u64,
    pub(crate) header: ObjectHeader,
    pub(crate) xfer: TransferMode,
    pub(crate) attributes: Vec<(String, Vec<u8>)>,
}

impl H5Dataset {
    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataspace extents.
    pub fn dims(&self) -> &[u64] {
        &self.header.dims
    }

    /// Set the data transfer mode (`H5Pset_dxpl_mpio`).
    pub fn set_transfer_mode(&mut self, xfer: TransferMode) {
        self.xfer = xfer;
    }

    /// Current transfer mode.
    pub fn transfer_mode(&self) -> TransferMode {
        self.xfer
    }

    /// Element type.
    pub fn dtype(&self) -> H5Type {
        self.header.dtype
    }

    fn prepare(&self, start: &[u64], count: &[u64]) -> H5Result<Vec<(u64, u64)>> {
        hyperslab::runs(
            &self.header.dims,
            start,
            count,
            self.header.dtype.size(),
            self.header.data_addr,
        )
    }

    /// Collective hyperslab write of raw bytes.
    ///
    /// Data flows through the same collective MPI-IO path as PnetCDF, with
    /// two structural differences: the hyperslab is packed recursively
    /// (higher CPU cost) and the object header is updated afterwards with a
    /// synchronization ("HDF5 metadata is updated during data writes ...
    /// additional synchronization is necessary at write time").
    pub fn write_hyperslab_all(
        &mut self,
        file: &mut H5File,
        start: &[u64],
        count: &[u64],
        data: &[u8],
    ) -> H5Result<()> {
        let runs = self.prepare(start, count)?;
        let total: u64 = runs.iter().map(|r| r.1).sum();
        if total != data.len() as u64 {
            return Err(crate::error::H5Error::InvalidArgument(format!(
                "buffer has {} bytes, selection needs {total}",
                data.len()
            )));
        }
        // Recursive hyperslab packing cost.
        let cfg = file.comm.config().clone();
        file.comm
            .advance(cfg.cpu.pack(data.len(), PACK_COST_MULTIPLIER));

        match self.xfer {
            TransferMode::Independent => file.file.write_runs_at(&runs, data)?,
            TransferMode::Collective => file.file.write_runs_at_all(&runs, data)?,
        };

        // Metadata update at write time + synchronization.
        self.header.mtime += 1;
        if file.comm.rank() == 0 {
            let hdr = self.header.encode();
            file.write_meta(self.header_addr, &hdr)?;
        }
        file.comm.barrier()?;
        Ok(())
    }

    /// Collective hyperslab read of raw bytes.
    pub fn read_hyperslab_all(
        &self,
        file: &mut H5File,
        start: &[u64],
        count: &[u64],
        out: &mut [u8],
    ) -> H5Result<()> {
        let runs = self.prepare(start, count)?;
        let total: u64 = runs.iter().map(|r| r.1).sum();
        if total != out.len() as u64 {
            return Err(crate::error::H5Error::InvalidArgument(format!(
                "buffer has {} bytes, selection needs {total}",
                out.len()
            )));
        }
        match self.xfer {
            TransferMode::Independent => file.file.read_runs_into(&runs, out)?,
            TransferMode::Collective => file.file.read_runs_into_all(&runs, out)?,
        }
        // Unpacking the hyperslab is recursive too, but reads skip the
        // write-time metadata synchronization.
        let cfg = file.comm.config().clone();
        file.comm
            .advance(cfg.cpu.pack(out.len(), PACK_COST_MULTIPLIER));
        Ok(())
    }

    /// Typed collective hyperslab write.
    pub fn write_all<T: H5Native>(
        &mut self,
        file: &mut H5File,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> H5Result<()> {
        debug_assert_eq!(T::TYPE.size(), self.header.dtype.size());
        self.write_hyperslab_all(file, start, count, &T::slice_to_bytes(vals))
    }

    /// Typed collective hyperslab read.
    pub fn read_all<T: H5Native>(
        &self,
        file: &mut H5File,
        start: &[u64],
        count: &[u64],
    ) -> H5Result<Vec<T>> {
        let total: u64 = count.iter().product::<u64>() * self.header.dtype.size();
        let mut out = vec![0u8; total as usize];
        self.read_hyperslab_all(file, start, count, &mut out)?;
        Ok(T::bytes_to_vec(&out))
    }

    /// Collectively attach a small attribute to this dataset (`H5Acreate` +
    /// `H5Awrite`). Attributes live in dispersed metadata: rank 0 writes an
    /// attribute block at the end of file and updates the superblock's
    /// allocation pointer, then everyone synchronizes — each attribute is
    /// two small metadata writes plus a barrier, which is why the paper's
    /// benchmark port "removed the part of code writing attributes" to
    /// focus on data I/O.
    pub fn write_attribute(&mut self, file: &mut H5File, name: &str, value: &[u8]) -> H5Result<()> {
        let addr = file.allocate_metadata_block(8 + name.len() as u64 + value.len() as u64);
        if file.comm.rank() == 0 && !file.readonly {
            let mut block = Vec::with_capacity(8 + name.len() + value.len());
            block.extend_from_slice(&(name.len() as u32).to_be_bytes());
            block.extend_from_slice(&(value.len() as u32).to_be_bytes());
            block.extend_from_slice(name.as_bytes());
            block.extend_from_slice(value);
            file.write_meta(addr, &block)?;
            // The object header gains an attribute-message pointer.
            self.header.mtime += 1;
            let hdr = self.header.encode();
            file.write_meta(self.header_addr, &hdr)?;
        }
        self.attributes.push((name.to_string(), value.to_vec()));
        file.comm.barrier()?;
        Ok(())
    }

    /// Attribute values attached in this session.
    pub fn attributes(&self) -> &[(String, Vec<u8>)] {
        &self.attributes
    }

    /// Collectively close the dataset: in parallel HDF5 1.4.5 the close of
    /// every object is collective, forcing a synchronization even when
    /// nothing changed.
    pub fn close(self, file: &mut H5File) -> H5Result<()> {
        if file.comm.rank() == 0 && !file.readonly {
            let hdr = self.header.encode();
            file.write_meta(self.header_addr, &hdr)?;
        }
        file.comm.barrier()?;
        Ok(())
    }
}
