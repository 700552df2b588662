//! Variable prefetching — the PnetCDF-level hint the paper describes in
//! §4.1: "given a hint indicating that only a certain small set of
//! variables were going to be read, an aggressive PnetCDF implementation
//! might initiate a nonblocking read of those variables at open time so
//! that the values were available locally at read time. For applications
//! that pull a small amount of data from a large number of separate netCDF
//! files, this type of optimization could be a big win."
//!
//! The hint is `nc_prefetch_vars`, a comma-separated list of variable
//! names. At open time the named fixed-size variables are queued as
//! nonblocking get requests and drained with **one** aggregated collective
//! read (`wait_all`) — the nonblocking machinery the paper's "aggressive
//! implementation" sketch calls for — into a per-rank cache; subsequent
//! `get` calls on them are served from local memory with no file I/O and no
//! synchronization. Any write to a cached variable, or a `redef`,
//! invalidates its cache entry.

use pnetcdf_mpio::Run;

use crate::dataset::Dataset;
use crate::error::NcmpiResult;

impl Dataset {
    /// Execute the `nc_prefetch_vars` hint (called from `open`). Unknown
    /// names and record variables are skipped silently — hints must never
    /// turn a valid program into a failing one.
    pub(crate) fn prefetch_from_hint(&mut self, hint: &str) -> NcmpiResult<()> {
        let names: Vec<String> = hint
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let mut queued = Vec::new();
        for name in names {
            let Some(varid) = self.header.var_id(&name) else {
                continue;
            };
            if self.header.is_record_var(varid) {
                continue; // records grow; caching them would go stale
            }
            let count = self.header.var_shape(varid);
            let start = vec![0u64; count.len()];
            queued.push((varid, self.iget_vara(varid, &start, &count)?));
        }
        // One collective round reads every hinted variable, however many
        // the hint named. All ranks process the same hint, so all queue the
        // same requests and participate symmetrically.
        self.wait_all()?;
        for (varid, req) in queued {
            if let Some(Ok((_, ext))) = self.results.remove(&req.id()) {
                self.prefetch.insert(varid, ext);
            }
        }
        Ok(())
    }

    /// Serve `runs` of the resident variable `varid` from the prefetch
    /// cache: their external bytes into `dst`, packed in run order.
    pub(crate) fn read_prefetched(&self, varid: usize, runs: &[Run], dst: &mut [u8]) {
        // Runs are absolute file offsets; the cache holds the variable
        // contiguously from `begin`.
        let (cache, begin) = (&self.prefetch[&varid], self.header.vars[varid].begin);
        let mut pos = 0;
        for &(off, len) in runs {
            let (lo, len) = ((off - begin) as usize, len as usize);
            dst[pos..pos + len].copy_from_slice(&cache[lo..lo + len]);
            pos += len;
        }
    }

    /// Drop the cache entry for `varid` (after a write to it). Every put
    /// calls this, and most datasets prefetch nothing, so an empty cache
    /// returns before hashing.
    pub(crate) fn invalidate_cache(&mut self, varid: usize) {
        if !self.prefetch.is_empty() {
            self.prefetch.remove(&varid);
        }
    }

    /// Drop all cached variables (after `redef`).
    pub(crate) fn invalidate_all_caches(&mut self) {
        self.prefetch.clear();
    }

    /// Is `varid` currently served from the prefetch cache? (diagnostics)
    pub fn is_prefetched(&self, varid: usize) -> bool {
        self.prefetch.contains_key(&varid)
    }
}
