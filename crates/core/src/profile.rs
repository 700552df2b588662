//! Per-dataset access profiling: bytes and request counts attributed to
//! each variable and each access mode (blocking `put/get` vs. nonblocking
//! `iput/iget` + `wait`), the core-layer slice of the `pnetcdf-trace`
//! observability stack.
//!
//! Every rank keeps its own [`DatasetProfile`] inside its [`Dataset`]
//! handle — recording is plain field arithmetic on the local struct, no
//! atomics and no locks, so it is always on. At `close`, when the shared
//! trace [`hpc_sim::Profile`] is enabled, the per-rank profiles are
//! summed across the communicator in one rendezvous that charges no
//! virtual time and rank 0 attaches the global roll-up to the trace so it
//! appears in the report JSON (mirroring how Darshan folds per-rank
//! counters at shutdown).

use hpc_sim::trace::Json;

/// Byte and request counters for one access mode of one variable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessCounters {
    pub put_bytes: u64,
    pub put_requests: u64,
    pub get_bytes: u64,
    pub get_requests: u64,
}

impl AccessCounters {
    fn add(&mut self, other: &AccessCounters) {
        self.put_bytes += other.put_bytes;
        self.put_requests += other.put_requests;
        self.get_bytes += other.get_bytes;
        self.get_requests += other.get_requests;
    }

    fn record(&mut self, put: bool, bytes: u64) {
        if put {
            self.put_bytes += bytes;
            self.put_requests += 1;
        } else {
            self.get_bytes += bytes;
            self.get_requests += 1;
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("put_bytes", self.put_bytes)
            .with("put_requests", self.put_requests)
            .with("get_bytes", self.get_bytes)
            .with("get_requests", self.get_requests)
    }
}

/// One variable's counters, split by access mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VarAccess {
    /// The blocking calls (`put_vara_all`, `get_vars`, …).
    pub blocking: AccessCounters,
    /// The nonblocking calls (`iput_*`/`iget_*` completed by `wait` or
    /// `wait_all`). Bytes are counted per queued request, before
    /// cross-request merging, so a workload issued through either path
    /// reports the same sizes.
    pub nonblocking: AccessCounters,
}

impl VarAccess {
    /// Both access modes combined.
    pub fn total(&self) -> AccessCounters {
        let mut t = self.blocking;
        t.add(&self.nonblocking);
        t
    }
}

/// Per-variable, per-access-mode counters for one dataset on one rank.
#[derive(Clone, Debug, Default)]
pub struct DatasetProfile {
    /// Indexed by variable id; grown on first access.
    vars: Vec<VarAccess>,
}

/// Number of `u64` slots one variable occupies in the flattened form.
const SLOTS: usize = 8;

impl DatasetProfile {
    /// Charge one access of `bytes` to a variable.
    pub(crate) fn record(&mut self, varid: usize, put: bool, nonblocking: bool, bytes: u64) {
        if self.vars.len() <= varid {
            self.vars.resize(varid + 1, VarAccess::default());
        }
        let v = &mut self.vars[varid];
        let mode = if nonblocking {
            &mut v.nonblocking
        } else {
            &mut v.blocking
        };
        mode.record(put, bytes);
    }

    /// Counters for one variable (zero if it was never accessed).
    pub fn var(&self, varid: usize) -> VarAccess {
        self.vars.get(varid).copied().unwrap_or_default()
    }

    /// Counters summed over every variable, split by access mode.
    pub fn totals(&self) -> VarAccess {
        let mut t = VarAccess::default();
        for v in &self.vars {
            t.blocking.add(&v.blocking);
            t.nonblocking.add(&v.nonblocking);
        }
        t
    }

    /// Total bytes this rank has written to the dataset
    /// (`ncmpi_inq_put_size`).
    pub fn put_size(&self) -> u64 {
        let t = self.totals();
        t.blocking.put_bytes + t.nonblocking.put_bytes
    }

    /// Total bytes this rank has read from the dataset
    /// (`ncmpi_inq_get_size`).
    pub fn get_size(&self) -> u64 {
        let t = self.totals();
        t.blocking.get_bytes + t.nonblocking.get_bytes
    }

    /// Flatten to `nvars * 8` u64 values for an elementwise sum.
    pub(crate) fn flatten(&self, nvars: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(nvars * SLOTS);
        for varid in 0..nvars {
            let v = self.var(varid);
            for c in [v.blocking, v.nonblocking] {
                out.extend_from_slice(&[c.put_bytes, c.put_requests, c.get_bytes, c.get_requests]);
            }
        }
        out
    }

    /// Rebuild from the flattened form (after the sum).
    pub(crate) fn unflatten(flat: &[u64]) -> DatasetProfile {
        let mut vars = Vec::with_capacity(flat.len() / SLOTS);
        for chunk in flat.chunks_exact(SLOTS) {
            let counters = |s: &[u64]| AccessCounters {
                put_bytes: s[0],
                put_requests: s[1],
                get_bytes: s[2],
                get_requests: s[3],
            };
            vars.push(VarAccess {
                blocking: counters(&chunk[..4]),
                nonblocking: counters(&chunk[4..]),
            });
        }
        DatasetProfile { vars }
    }

    /// Report fragment: totals plus a per-variable breakdown. `names[i]`
    /// labels variable id `i`; missing names fall back to the id.
    pub fn to_json(&self, names: &[String]) -> Json {
        let t = self.totals();
        let mut vars = Vec::new();
        for (varid, v) in self.vars.iter().enumerate() {
            let total = v.total();
            if total.put_requests == 0 && total.get_requests == 0 {
                continue;
            }
            let name = names
                .get(varid)
                .cloned()
                .unwrap_or_else(|| format!("var{varid}"));
            vars.push(
                Json::obj()
                    .with("name", name)
                    .with("blocking", v.blocking.to_json())
                    .with("nonblocking", v.nonblocking.to_json()),
            );
        }
        Json::obj()
            .with("put_bytes", self.put_size())
            .with("get_bytes", self.get_size())
            .with("blocking", t.blocking.to_json())
            .with("nonblocking", t.nonblocking.to_json())
            .with("vars", vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_splits_by_var_and_mode() {
        let mut p = DatasetProfile::default();
        p.record(0, true, false, 100);
        p.record(0, true, true, 50);
        p.record(2, false, false, 8);
        assert_eq!(p.var(0).blocking.put_bytes, 100);
        assert_eq!(p.var(0).nonblocking.put_bytes, 50);
        assert_eq!(p.var(2).blocking.get_requests, 1);
        assert_eq!(p.var(1), VarAccess::default());
        assert_eq!(p.put_size(), 150);
        assert_eq!(p.get_size(), 8);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let mut p = DatasetProfile::default();
        p.record(1, true, true, 64);
        p.record(3, false, false, 16);
        let flat = p.flatten(5);
        assert_eq!(flat.len(), 5 * SLOTS);
        let q = DatasetProfile::unflatten(&flat);
        assert_eq!(q.var(1), p.var(1));
        assert_eq!(q.var(3), p.var(3));
        assert_eq!(q.put_size(), 64);
        assert_eq!(q.get_size(), 16);
    }

    #[test]
    fn json_skips_untouched_vars() {
        let mut p = DatasetProfile::default();
        p.record(1, true, false, 10);
        let j = p.to_json(&["a".into(), "b".into()]);
        let vars = match j.get("vars") {
            Some(Json::Arr(v)) => v,
            other => panic!("vars not an array: {other:?}"),
        };
        assert_eq!(vars.len(), 1);
        assert_eq!(
            vars[0].get("name").and_then(|n| match n {
                Json::Str(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("b")
        );
    }
}
