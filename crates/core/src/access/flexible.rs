//! The flexible data access API (paper §4.1).
//!
//! "The flexible API provides the user with the ability to describe
//! noncontiguous regions in memory, which is missing from the original
//! interface. These regions are described using MPI datatypes." The file
//! region is still described by `start/count/stride`; the memory side is
//! `(buf, bufcount, mpi_datatype)`. All the high-level routines could be
//! written over these (and in the reference implementation they are; here
//! the typed path shares `put_region` instead to avoid double conversion).
//!
//! The memory datatype's element width must equal the variable's external
//! type width (the common usage); the conversion is then an endianness swap.

use pnetcdf_mpi::Datatype;

use crate::convert;
use crate::dataset::Dataset;
use crate::error::{NcmpiError, NcmpiResult};

impl Dataset {
    pub(crate) fn flexible_common(
        &mut self,
        varid: usize,
        count: &[u64],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<(pnetcdf_format::NcType, usize)> {
        let nctype = self
            .header
            .vars
            .get(varid)
            .map(|v| v.nctype)
            .ok_or_else(|| NcmpiError::NotFound(format!("variable id {varid}")))?;
        let esize = nctype.size() as usize;
        let mem_bytes = memtype.size() as usize * bufcount;
        let sel: u64 = count.iter().product::<u64>() * esize as u64;
        if mem_bytes as u64 != sel {
            return Err(NcmpiError::InvalidArgument(format!(
                "memory datatype describes {mem_bytes} bytes but the access selects {sel}"
            )));
        }
        if mem_bytes % esize != 0 {
            return Err(NcmpiError::InvalidArgument(format!(
                "memory datatype size {mem_bytes} is not a multiple of element size {esize}"
            )));
        }
        Ok((nctype, mem_bytes))
    }

    /// Collective flexible write (`ncmpi_put_vara_all` in the C API).
    pub fn put_vara_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(varid, start, count, None, buf, bufcount, memtype, true)
    }

    /// Independent flexible write (`ncmpi_put_vara`).
    pub fn put_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(varid, start, count, None, buf, bufcount, memtype, false)
    }

    /// Collective flexible strided write (`ncmpi_put_vars_all`).
    #[allow(clippy::too_many_arguments)]
    pub fn put_vars_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            true,
        )
    }

    /// Independent flexible strided write (`ncmpi_put_vars`).
    #[allow(clippy::too_many_arguments)]
    pub fn put_vars_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.put_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn put_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
        collective: bool,
    ) -> NcmpiResult<()> {
        if collective {
            self.require_collective()?;
        } else {
            self.require_independent()?;
        }
        self.require_writable()?;
        let (nctype, _) = self.flexible_common(varid, count, bufcount, memtype)?;

        // Gather the (possibly noncontiguous) native memory and swap to
        // external byte order in one fused pass. The simulator still
        // charges the datatype walk and the conversion separately — the
        // work happens, only the intermediate buffer is gone.
        let ext = convert::pack_to_external(buf, bufcount, memtype, nctype)?;
        self.comm
            .config()
            .profile
            .record_bytepath(|b| b.fused_pack_bytes += ext.len() as u64);
        if !memtype.is_contiguous() {
            self.comm
                .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        }
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));

        self.with_staging(|ds, req| {
            req.buffer = ext;
            ds.lower_put(req, varid, start, count, stride)?;
            ds.execute_put_now(req, collective)
        })
    }

    /// Collective flexible read (`ncmpi_get_vara_all`).
    pub fn get_vara_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(varid, start, count, None, buf, bufcount, memtype, true)
    }

    /// Independent flexible read (`ncmpi_get_vara`).
    pub fn get_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(varid, start, count, None, buf, bufcount, memtype, false)
    }

    /// Collective flexible strided read (`ncmpi_get_vars_all`, as in the
    /// paper's Figure 4 READ example).
    #[allow(clippy::too_many_arguments)]
    pub fn get_vars_all_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            true,
        )
    }

    /// Independent flexible strided read (`ncmpi_get_vars`).
    #[allow(clippy::too_many_arguments)]
    pub fn get_vars_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.get_flexible(
            varid,
            start,
            count,
            Some(stride),
            buf,
            bufcount,
            memtype,
            false,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn get_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
        collective: bool,
    ) -> NcmpiResult<()> {
        if collective {
            self.require_collective()?;
        } else {
            self.require_independent()?;
        }
        let (nctype, _) = self.flexible_common(varid, count, bufcount, memtype)?;
        self.with_staging(|ds, req| {
            ds.lower_get(req, varid, start, count, stride)?;
            ds.execute_get_now(req, collective)?;
            let ext = &req.buffer;
            ds.comm.advance(ds.comm.config().cpu.pack(ext.len(), 1.0));
            ds.comm
                .config()
                .profile
                .record_bytepath(|b| b.fused_unpack_bytes += ext.len() as u64);
            // Fused convert+scatter back into the user's memory description.
            convert::unpack_from_external(ext, buf, bufcount, memtype, nctype)?;
            Ok(())
        })
    }
}
