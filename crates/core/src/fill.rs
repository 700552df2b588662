//! Fill mode (`ncmpi_set_fill`, `ncmpi_fill_var_rec`).
//!
//! Serial netCDF prefills variables with type-specific fill values
//! (`NC_FILL_*`, or a variable's `_FillValue` attribute) so unwritten cells
//! read deterministically. PnetCDF defaults to NOFILL — prefilling costs a
//! full write of every variable — but provides `ncmpi_set_fill` to opt in
//! at define time (new fixed variables are prefilled collectively at
//! `enddef`) and `ncmpi_fill_var_rec` to prefill one record of a record
//! variable before partial writes land in it.

use pnetcdf_format::types::{default_fill_f64, fill_element_bytes};
use pnetcdf_format::AttrValue;

use crate::dataset::Dataset;
use crate::error::{NcmpiError, NcmpiResult};

/// Chunk size for streaming fill writes (bounds memory).
const FILL_CHUNK: u64 = 4 << 20;

impl Dataset {
    /// Switch fill mode on or off (`ncmpi_set_fill`); define mode only.
    /// Returns the previous setting. The default is NOFILL, as in PnetCDF.
    pub fn set_fill(&mut self, fill: bool) -> NcmpiResult<bool> {
        self.require_define()?;
        self.require_writable()?;
        Ok(std::mem::replace(&mut self.fill_mode, fill))
    }

    /// Current fill mode.
    pub fn fill_mode(&self) -> bool {
        self.fill_mode
    }

    /// The fill value for `varid`: its `_FillValue` attribute if present,
    /// else the type default.
    pub(crate) fn fill_value_of(&self, varid: usize) -> f64 {
        let v = &self.header.vars[varid];
        let from_attr = v.atts.iter().find(|a| a.name == "_FillValue").map(|a| {
            match &a.value {
                AttrValue::Byte(x) => x.first().map(|&b| b as f64),
                AttrValue::Char(s) => s.bytes().next().map(|b| b as f64),
                AttrValue::Short(x) => x.first().map(|&s| s as f64),
                AttrValue::Int(x) => x.first().map(|&i| i as f64),
                AttrValue::Float(x) => x.first().map(|&f| f as f64),
                AttrValue::Double(x) => x.first().copied(),
            }
            .unwrap_or_else(|| default_fill_f64(v.nctype))
        });
        from_attr.unwrap_or_else(|| default_fill_f64(v.nctype))
    }

    /// Collectively write the fill pattern into byte range
    /// `[lo, lo+len)` of the file, the range pre-partitioned across ranks.
    fn fill_range(&mut self, varid: usize, lo: u64, len: u64) -> NcmpiResult<()> {
        let elem = fill_element_bytes(self.header.vars[varid].nctype, self.fill_value_of(varid));
        let esize = elem.len() as u64;
        let nelems = len / esize;
        let n = self.comm.size() as u64;
        let r = self.comm.rank() as u64;
        // Element-aligned slabs per rank.
        let per = nelems.div_ceil(n);
        let my_first = (r * per).min(nelems);
        let my_count = per.min(nelems - my_first);
        let my_lo = lo + my_first * esize;
        let my_bytes = my_count * esize;

        // Stream the pattern in bounded chunks; every rank makes the same
        // number of collective calls (padding with empty writes) so the
        // collective semantics hold even with uneven slabs.
        let rounds = ((per * esize).div_ceil(FILL_CHUNK)).max(1);
        let mut written = 0u64;
        for _ in 0..rounds {
            let take = (my_bytes - written).min(FILL_CHUNK);
            let mut buf = Vec::with_capacity(take as usize);
            while (buf.len() as u64) < take {
                buf.extend_from_slice(&elem);
            }
            buf.truncate(take as usize);
            // A padding round passes no run: an empty one would still
            // stretch the file domain the aggregators divide.
            let run = (take > 0).then_some((my_lo + written, take));
            self.file.write_runs_at_all(run.as_slice(), &buf)?;
            written += take;
        }
        Ok(())
    }

    /// Prefill the given (fixed-size) variables; called from `enddef` when
    /// fill mode is on.
    pub(crate) fn prefill_fixed_vars(&mut self, varids: &[usize]) -> NcmpiResult<()> {
        for &v in varids {
            if self.header.is_record_var(v) {
                continue; // records are filled on demand via fill_var_rec
            }
            let lo = self.header.vars[v].begin;
            let bytes = self.header.record_elems(v) * self.header.vars[v].nctype.size();
            self.fill_range(v, lo, bytes)?;
        }
        Ok(())
    }

    /// Collectively prefill record `recno` of record variable `varid`
    /// (`ncmpi_fill_var_rec`), growing `numrecs` to cover it.
    pub fn fill_var_rec(&mut self, varid: usize, recno: u64) -> NcmpiResult<()> {
        self.require_collective()?;
        self.require_writable()?;
        if varid >= self.header.vars.len() {
            return Err(NcmpiError::NotFound(format!("variable id {varid}")));
        }
        if !self.header.is_record_var(varid) {
            return Err(NcmpiError::InvalidArgument(format!(
                "variable '{}' is not a record variable",
                self.header.vars[varid].name
            )));
        }
        let v = &self.header.vars[varid];
        let lo = v.begin + recno * self.layout.recsize;
        let bytes = self.header.record_elems(varid) * v.nctype.size();
        self.fill_range(varid, lo, bytes)?;
        if recno + 1 > self.header.numrecs {
            self.header.numrecs = recno + 1;
        }
        self.invalidate_cache(varid);
        self.reconcile_numrecs()?;
        Ok(())
    }
}
