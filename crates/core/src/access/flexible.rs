//! The flexible data access API (paper §4.1).
//!
//! "The flexible API provides the user with the ability to describe
//! noncontiguous regions in memory, which is missing from the original
//! interface. These regions are described using MPI datatypes." The file
//! region is still described by `start/count/stride`; the memory side is
//! `(buf, bufcount, mpi_datatype)`. All the high-level routines could be
//! written over these (and in the reference implementation they are; here
//! a typed and a flexible call are the same request of [`super::request`]
//! with two memory descriptions, so neither converts twice and both agree
//! on errors the same way).
//!
//! Memory that is contiguous from its lower bound is used in place: a
//! collective put lends it in host byte order, a get reads into it and
//! swaps there. Strided memory is packed into (unpacked from) the recycled
//! request's staging in one fused gather+swap pass.
//!
//! The memory datatype's element width must equal the variable's external
//! type width (the common usage); the conversion is then an endianness swap.

use pnetcdf_mpi::Datatype;

use crate::access::request::{GetMem, PutMem, Sel};
use crate::dataset::Dataset;
use crate::error::NcmpiResult;

impl Dataset {
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
        let mem = PutMem::<u8>::Described(buf, bufcount, memtype);
        self.put_blocking(Sel::new(varid, start, count, None), mem, true)
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
        let mem = PutMem::<u8>::Described(buf, bufcount, memtype);
        self.put_blocking(Sel::new(varid, start, count, None), mem, false)
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
        let mem = PutMem::<u8>::Described(buf, bufcount, memtype);
        self.put_blocking(Sel::new(varid, start, count, Some(stride)), mem, true)
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
        let mem = PutMem::<u8>::Described(buf, bufcount, memtype);
        self.put_blocking(Sel::new(varid, start, count, Some(stride)), mem, false)
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
        let mem = GetMem::<u8>::Described(buf, bufcount, memtype);
        self.get_blocking(Sel::new(varid, start, count, None), mem, true)
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
        let mem = GetMem::<u8>::Described(buf, bufcount, memtype);
        self.get_blocking(Sel::new(varid, start, count, None), mem, false)
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
        let mem = GetMem::<u8>::Described(buf, bufcount, memtype);
        self.get_blocking(Sel::new(varid, start, count, Some(stride)), mem, true)
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
        let mem = GetMem::<u8>::Described(buf, bufcount, memtype);
        self.get_blocking(Sel::new(varid, start, count, Some(stride)), mem, false)
    }
}
