//! The flexible data access API (paper §4.1).
//!
//! "The flexible API provides the user with the ability to describe
//! noncontiguous regions in memory, which is missing from the original
//! interface. These regions are described using MPI datatypes." The file
//! region is still described by `start/count/stride`; the memory side is
//! `(buf, bufcount, mpi_datatype)`. All the high-level routines could be
//! written over these (and in the reference implementation they are; here
//! the typed and the flexible calls are two lowerings into the same
//! blocking put and get bodies of [`super::request`], so neither converts
//! twice and both agree on errors the same way).
//!
//! Memory that is contiguous from its lower bound is used in place: a
//! collective put lends it in host byte order, a get reads into it and
//! swaps there. Strided memory is packed into (unpacked from) the recycled
//! request's staging in one fused gather+swap pass.
//!
//! The memory datatype's element width must equal the variable's external
//! type width (the common usage); the conversion is then an endianness swap.

use pnetcdf_format::swap::swap_inplace;
use pnetcdf_mpi::{Datatype, MpiError};

use crate::access::request::{can_lend, size_for_read, AccessReq, Lent};
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
        self.put_blocking(collective, |ds, req| {
            ds.require_writable()?;
            let (nctype, bytes) = ds.flexible_common(varid, count, bufcount, memtype)?;
            let width = nctype.size() as usize;
            let lent = if in_place(memtype) && can_lend(collective, width) {
                // Contiguous memory is the packed payload already: lend it
                // as it is, still in host byte order.
                let native = buf.get(..bytes).ok_or(MpiError::Truncated {
                    needed: bytes,
                    available: buf.len(),
                })?;
                Some(Lent {
                    bytes: native,
                    width,
                })
            } else {
                // Gather the (possibly noncontiguous) native memory and swap
                // to external byte order in one fused pass.
                req.buffer = convert::pack_to_external(buf, bufcount, memtype, nctype)?;
                ds.comm
                    .config()
                    .profile
                    .record_bytepath(|b| b.fused_pack_bytes += bytes as u64);
                None
            };
            // The simulator charges the datatype walk and the conversion
            // separately — the work happens, wherever the host does it.
            if !memtype.is_contiguous() {
                ds.comm.advance(ds.comm.config().cpu.pack(bytes, 1.0));
            }
            ds.comm.advance(ds.comm.config().cpu.pack(bytes, 1.0));
            ds.lower_put(req, varid, start, count, stride, bytes)?;
            Ok(lent)
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
        self.require_mode(collective)?;
        self.with_staging(|ds, req| {
            // Everything one rank alone can get wrong is checked before the
            // agreement, the room in `buf` for an in-place read included.
            let lowered = (|| {
                let (nctype, bytes) = ds.flexible_common(varid, count, bufcount, memtype)?;
                if in_place(memtype) && buf.len() < bytes {
                    return Err(NcmpiError::Mpi(MpiError::Truncated {
                        needed: bytes,
                        available: buf.len(),
                    }));
                }
                ds.lower_get(req, varid, start, count, stride)?;
                Ok((nctype, bytes))
            })();
            let (nctype, bytes) = ds.agree_if(collective, lowered)?;
            let AccessReq { runs, buffer, .. } = req;
            if in_place(memtype) {
                // Contiguous memory takes the external bytes where the
                // caller wants the values and swaps them there.
                let dst = &mut buf[..bytes];
                ds.get_blocking(varid, runs, dst, collective)?;
                swap_inplace(dst, nctype.size() as usize);
                return Ok(());
            }
            size_for_read(buffer, bytes);
            ds.get_blocking(varid, runs, buffer, collective)?;
            ds.comm
                .config()
                .profile
                .record_bytepath(|b| b.fused_unpack_bytes += bytes as u64);
            // Fused convert+scatter back into the user's memory description.
            convert::unpack_from_external(buffer, buf, bufcount, memtype, nctype)?;
            Ok(())
        })
    }
}

/// Is one instance after another of `memtype` simply the packed bytes, so
/// that a flexible access can use the caller's memory in place?
fn in_place(memtype: &Datatype) -> bool {
    memtype.is_contiguous() && memtype.lb() == 0
}
