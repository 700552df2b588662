//! The high-level (typed) data access API.
//!
//! These calls mirror the original netCDF data access functions — single
//! element (`var1`), whole array (`var`), subarray (`vara`), strided
//! subarray (`vars`), mapped strided subarray (`varm`) — with the paper's
//! key change: each exists in a **collective** flavor (suffix `_all`,
//! requiring collective data mode) and an **independent** flavor (requiring
//! independent data mode entered via `begin_indep_data`).

use std::borrow::Cow;

use pnetcdf_format::types::{from_external, to_external_into};
use pnetcdf_format::NcValue;

use crate::access::map::{gather_by_imap, scatter_by_imap};
use crate::access::request::{self, AccessReq};
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
        if collective {
            self.require_collective()?;
        } else {
            self.require_independent()?;
        }
        // A blocking call is a queue-depth-one flush of the unified request
        // engine, staged in the dataset's recycled request.
        self.with_staging(|ds, req| {
            ds.put_staged(req, varid, start, count, stride, vals, collective)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn put_staged<T: NcValue>(
        &mut self,
        req: &mut AccessReq,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
        collective: bool,
    ) -> NcmpiResult<()> {
        // Validate and lower locally, then (in collective mode) agree on the
        // outcome *before* entering the collective execution: if any rank
        // failed validation, every rank returns that same error and nobody
        // enters the two-phase exchange alone.
        let numrecs = self.header.numrecs;
        let lowered = (|| {
            self.require_writable()?;
            self.check_count(count, vals.len())?;
            to_external_into(vals, self.var_nctype(varid)?, &mut req.buffer)?;
            // Native→external conversion is real CPU work.
            self.comm
                .advance(self.comm.config().cpu.pack(req.buffer.len(), 1.0));
            self.lower_put(req, varid, start, count, stride)
        })();
        let lowered = if collective {
            self.agree(lowered)
        } else {
            lowered
        };
        if let Err(e) = lowered {
            // Nothing was written: the records this rank's lowering counted
            // (while another rank's failed) do not exist.
            self.header.numrecs = numrecs;
            return Err(e);
        }
        let done = self.execute_put_now(req, collective);
        // Execution faults can be aggregator-local (a storage fault that
        // exhausted one rank's retry budget), so agree on those too.
        let mut done = if collective { self.agree(done) } else { done };
        // Server failover: the agreed (or, independently, local) verdict
        // says a crashed server is coverable by parity — mark it down
        // (idempotent) and re-issue the same write once in degraded mode.
        if let Some(server) = request::agreed_server_lost(&done) {
            self.file.raw().mark_server_down(server);
            let retried = self.execute_put_now(req, collective);
            done = if collective {
                self.agree(retried)
            } else {
                retried
            };
        }
        done
    }

    fn get_region<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        collective: bool,
    ) -> NcmpiResult<Vec<T>> {
        if collective {
            self.require_collective()?;
        } else {
            self.require_independent()?;
        }
        let nctype = self.var_nctype(varid)?;
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
            return Ok(from_external(&ext, nctype)?);
        }
        // The external bytes land in the recycled request's staging; the
        // `Vec<T>` decoded from it is the call's one allocation.
        self.with_staging(|ds, req| {
            ds.get_staged(req, varid, start, count, stride, collective)?;
            ds.comm
                .advance(ds.comm.config().cpu.pack(req.buffer.len(), 1.0));
            Ok(from_external(&req.buffer, nctype)?)
        })
    }

    /// Lower a blocking get into `req` and execute it: on success
    /// `req.buffer` holds the selection's external bytes.
    fn get_staged(
        &mut self,
        req: &mut AccessReq,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        collective: bool,
    ) -> NcmpiResult<()> {
        // Agree on the lowering before the collective execution, then on the
        // execution outcome itself (see `put_staged`).
        let lowered = self.lower_get(req, varid, start, count, stride);
        if collective {
            self.agree(lowered)?
        } else {
            lowered?
        };
        let got = self.execute_get_now(req, collective);
        let mut got = if collective { self.agree(got) } else { got };
        // Server failover on reads: degraded mode reconstructs the lost
        // server's chunks from surviving data + parity.
        if let Some(server) = request::agreed_server_lost(&got) {
            self.file.raw().mark_server_down(server);
            let retried = self.execute_get_now(req, collective);
            got = if collective {
                self.agree(retried)
            } else {
                retried
            };
        }
        got
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
