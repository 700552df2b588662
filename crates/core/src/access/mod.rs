//! Data access functions — the "major effort of this work" (paper §4.2.2).
//!
//! Every access is translated from `(variable, start[], count[], stride[])`
//! into an MPI file view built from the variable's metadata in the cached
//! header (shape, element size, `begin`, record size), then handed to
//! MPI-IO. Collective calls (`*_all`) go through two-phase collective I/O;
//! independent calls use data sieving.
//!
//! * [`highlevel`] — the typed API mirroring serial netCDF (`put/get` ×
//!   `var1/var/vara/vars/varm`), in collective and independent flavors;
//! * [`flexible`] — the flexible API taking an MPI datatype describing
//!   (possibly noncontiguous) memory;
//! * [`map`] — `imap` gather/scatter shared by the `varm` calls;
//! * [`request`] — the one request path every access takes (one lowering
//!   per direction, one executor), and the nonblocking
//!   `iput`/`iget`/`wait_all` API.

pub mod flexible;
pub mod highlevel;
pub mod map;
pub mod prefetch;
pub mod request;

use pnetcdf_format::layout;
use pnetcdf_mpio::Run;

use crate::access::request::Sel;
use crate::dataset::Dataset;
use crate::error::NcmpiResult;

impl Dataset {
    /// Validate an access and resolve it to absolute file byte runs in
    /// `runs` (cleared first) — the common lowering every request goes
    /// through.
    pub(crate) fn build_region(
        &self,
        sel: Sel<'_>,
        for_write: bool,
        runs: &mut Vec<Run>,
    ) -> NcmpiResult<()> {
        let Sel {
            varid,
            start,
            count,
            stride,
        } = sel;
        let limit = if for_write {
            None
        } else {
            Some(self.header.numrecs)
        };
        layout::check_access(&self.header, varid, start, count, stride, limit)?;
        let recsize = self.layout.recsize;
        layout::access_runs_into(&self.header, recsize, varid, start, count, stride, runs);
        Ok(())
    }

    /// After a write touching a record variable, grow the local `numrecs`.
    pub(crate) fn grow_numrecs(&mut self, sel: Sel<'_>) {
        let Sel { start, count, .. } = sel;
        if !self.header.is_record_var(sel.varid) || count.first().copied().unwrap_or(0) == 0 {
            return;
        }
        let step = sel.stride.map_or(1, |s| s[0]);
        let last = start[0] + (count[0] - 1) * step;
        if last + 1 > self.header.numrecs {
            self.header.numrecs = last + 1;
        }
    }
}
