//! The high-level (typed) data access API.
//!
//! These calls mirror the original netCDF data access functions — single
//! element (`var1`), whole array (`var`), subarray (`vara`), strided
//! subarray (`vars`), mapped strided subarray (`varm`) — with the paper's
//! key change: each exists in a **collective** flavor (suffix `_all`,
//! requiring collective data mode) and an **independent** flavor (requiring
//! independent data mode entered via `begin_indep_data`).

use std::borrow::Cow;

use pnetcdf_format::swap::swap_inplace;
use pnetcdf_format::types::{from_external, to_external_into};
use pnetcdf_format::NcValue;
use pnetcdf_mpio::view::runs_total;

use crate::access::map::{gather_by_imap, scatter_by_imap};
use crate::access::request::{can_lend, size_for_read, AccessReq, Lent};
use crate::dataset::Dataset;
use crate::error::{NcmpiError, NcmpiResult};

/// `count` of a single-element access of rank `ndims`: all ones, without
/// allocating for any rank a netCDF variable plausibly has.
fn ones(ndims: usize) -> Cow<'static, [u64]> {
    const ONES: [u64; 16] = [1; 16];
    match ONES.get(..ndims) {
        Some(ones) => Cow::Borrowed(ones),
        None => Cow::Owned(vec![1; ndims]),
    }
}

impl Dataset {
    fn put_region<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
        collective: bool,
    ) -> NcmpiResult<()> {
        self.put_blocking(collective, |ds, req| {
            ds.require_writable()?;
            ds.check_count(count, vals.len())?;
            let nctype = ds.var_nctype(varid)?;
            let width = nctype.size() as usize;
            // A same-type put lends the values where they are; only a
            // converting one (which must raise `NC_ERANGE` before any byte
            // moves) and an independent one stage their external form.
            let lent = if nctype == T::NATURAL && can_lend(collective, width) {
                Some(Lent {
                    bytes: T::as_bytes(vals),
                    width,
                })
            } else {
                to_external_into(vals, nctype, &mut req.buffer)?;
                None
            };
            let payload = lent.map_or(req.buffer.len(), |l| l.bytes.len());
            // Native→external conversion is real CPU work, wherever the
            // host ends up doing it.
            ds.comm.advance(ds.comm.config().cpu.pack(payload, 1.0));
            ds.lower_put(req, varid, start, count, stride, payload)?;
            Ok(lent)
        })
    }

    fn get_region<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        collective: bool,
    ) -> NcmpiResult<Vec<T>> {
        self.require_mode(collective)?;
        // The prefetch cache serves reads from local memory — no file I/O,
        // no synchronization (the §4.1 hint optimization). Bounds are
        // validated before the cache is consulted.
        if self.is_prefetched(varid) {
            pnetcdf_format::layout::check_access(
                &self.header,
                varid,
                start,
                count,
                stride,
                Some(self.header.numrecs),
            )?;
            let ext = self
                .cached_read(varid, start, count, stride)
                .expect("cache present");
            self.comm
                .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
            return Ok(from_external(&ext, self.var_nctype(varid)?)?);
        }
        self.with_staging(|ds, req| {
            // Agree on the lowering before the collective execution, then
            // on the execution outcome itself (see `put_blocking`).
            let lowered = ds.lower_get(req, varid, start, count, stride);
            ds.agree_if(collective, lowered)?;
            let AccessReq {
                runs,
                buffer,
                nctype,
                ..
            } = req;
            let total = runs_total(runs) as usize;
            if *nctype == T::NATURAL {
                // The external bytes are delivered into the `Vec<T>` the
                // call returns — its one allocation — and swapped where
                // they lie, on this rank's own thread.
                let width = nctype.size() as usize;
                let mut out = vec![T::ZERO; total / width];
                let dst = T::as_bytes_mut(&mut out);
                ds.get_blocking(varid, runs, dst, collective)?;
                swap_inplace(dst, width);
                return Ok(out);
            }
            // A converting get decodes element by element from the
            // external bytes, staged in the recycled request.
            size_for_read(buffer, total);
            ds.get_blocking(varid, runs, buffer, collective)?;
            Ok(from_external(buffer, *nctype)?)
        })
    }

    // ---- vara: subarray ---------------------------------------------------

    /// Collective subarray write (`ncmpi_put_vara_<type>_all`).
    pub fn put_vara_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, None, vals, true)
    }

    /// Independent subarray write (`ncmpi_put_vara_<type>`).
    pub fn put_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, None, vals, false)
    }

    /// Collective subarray read (`ncmpi_get_vara_<type>_all`).
    pub fn get_vara_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, None, true)
    }

    /// Independent subarray read (`ncmpi_get_vara_<type>`).
    pub fn get_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, None, false)
    }

    // ---- vars: strided subarray ---------------------------------------------

    /// Collective strided write (`ncmpi_put_vars_<type>_all`).
    pub fn put_vars_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, Some(stride), vals, true)
    }

    /// Independent strided write.
    pub fn put_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        self.put_region(varid, start, count, Some(stride), vals, false)
    }

    /// Collective strided read (`ncmpi_get_vars_<type>_all`).
    pub fn get_vars_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, Some(stride), true)
    }

    /// Independent strided read.
    pub fn get_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        self.get_region(varid, start, count, Some(stride), false)
    }

    // ---- var1: single element -----------------------------------------------

    /// Collective single-element write.
    pub fn put_var1_all<T: NcValue>(
        &mut self,
        varid: usize,
        index: &[u64],
        val: T,
    ) -> NcmpiResult<()> {
        let count = ones(index.len());
        self.put_region(varid, index, &count, None, &[val], true)
    }

    /// Independent single-element write (`ncmpi_put_var1_<type>`).
    pub fn put_var1<T: NcValue>(&mut self, varid: usize, index: &[u64], val: T) -> NcmpiResult<()> {
        let count = ones(index.len());
        self.put_region(varid, index, &count, None, &[val], false)
    }

    /// Collective single-element read.
    pub fn get_var1_all<T: NcValue>(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<T> {
        let count = ones(index.len());
        Ok(self.get_region::<T>(varid, index, &count, None, true)?[0])
    }

    /// Independent single-element read.
    pub fn get_var1<T: NcValue>(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<T> {
        let count = ones(index.len());
        Ok(self.get_region::<T>(varid, index, &count, None, false)?[0])
    }

    // ---- var: whole variable ----------------------------------------------------

    /// Collective whole-variable write. For record variables, the number of
    /// records written is derived from the value count.
    pub fn put_var_all<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<()> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.put_region(varid, &start, &count, None, vals, true)
    }

    /// Independent whole-variable write.
    pub fn put_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<()> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.put_region(varid, &start, &count, None, vals, false)
    }

    /// Collective whole-variable read.
    pub fn get_var_all<T: NcValue>(&mut self, varid: usize) -> NcmpiResult<Vec<T>> {
        let (start, count) = self.whole(varid, None)?;
        self.get_region(varid, &start, &count, None, true)
    }

    /// Independent whole-variable read.
    pub fn get_var<T: NcValue>(&mut self, varid: usize) -> NcmpiResult<Vec<T>> {
        let (start, count) = self.whole(varid, None)?;
        self.get_region(varid, &start, &count, None, false)
    }

    pub(crate) fn whole(
        &self,
        varid: usize,
        vals_len: Option<usize>,
    ) -> NcmpiResult<(Vec<u64>, Vec<u64>)> {
        if varid >= self.header.vars.len() {
            return Err(NcmpiError::NotFound(format!("variable id {varid}")));
        }
        let mut count = self.header.var_shape(varid);
        let start = vec![0u64; count.len()];
        if let (Some(len), true) = (vals_len, self.header.is_record_var(varid)) {
            let per_rec = self.header.record_elems(varid).max(1);
            if len as u64 % per_rec != 0 {
                return Err(NcmpiError::InvalidArgument(format!(
                    "whole-variable access of {len} values is not a multiple of the \
                     {per_rec} values per record"
                )));
            }
            count[0] = len as u64 / per_rec;
        }
        Ok((start, count))
    }

    // ---- varm: mapped strided subarray ---------------------------------------------

    /// Collective mapped write (`ncmpi_put_varm_<type>_all`).
    pub fn put_varm_all<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        let canonical = gather_by_imap(count, imap, vals)?;
        self.put_region(varid, start, count, stride, &canonical, true)
    }

    /// Independent mapped write.
    pub fn put_varm<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
        vals: &[T],
    ) -> NcmpiResult<()> {
        let canonical = gather_by_imap(count, imap, vals)?;
        self.put_region(varid, start, count, stride, &canonical, false)
    }

    /// Collective mapped read (`ncmpi_get_varm_<type>_all`).
    pub fn get_varm_all<T: NcValue + Default>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        let canonical = self.get_region::<T>(varid, start, count, stride, true)?;
        scatter_by_imap(count, imap, &canonical)
    }

    /// Independent mapped read.
    pub fn get_varm<T: NcValue + Default>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        imap: &[u64],
    ) -> NcmpiResult<Vec<T>> {
        let canonical = self.get_region::<T>(varid, start, count, stride, false)?;
        scatter_by_imap(count, imap, &canonical)
    }
}
