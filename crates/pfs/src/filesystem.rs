//! The file system object: a per-mount *view* of a service cluster.
//!
//! `Pfs` used to own the servers and the file table; since the cluster
//! refactor those live in [`crate::cluster::ClusterInner`] with a lifetime
//! that outlives any single open/close. A `Pfs` is now a cheap handle
//! handed out by [`PfsCluster::mount`] — every view shares the cluster's
//! server queues, fault determinism and failover epochs. `Pfs::new`
//! constructs a private one-mount cluster, so single-file callers are
//! untouched and byte-identical to the pre-cluster code.

use std::sync::atomic::Ordering;

use hpc_sim::SimConfig;

use crate::cluster::PfsCluster;
use crate::file::PfsFile;
use crate::storage::StorageMode;

/// Handle to the shared parallel file system. Cheap to clone; all clones
/// (and all sibling mounts of the same cluster) address the same servers
/// and the same namespace.
#[derive(Clone)]
pub struct Pfs {
    pub(crate) cluster: PfsCluster,
}

impl Pfs {
    /// Create a private cluster with `cfg.io_servers` servers and
    /// `cfg.stripe_size` stripes, and mount it. The degenerate one-file
    /// path: identical behavior to the pre-cluster `Pfs`.
    pub fn new(cfg: SimConfig, mode: StorageMode) -> Pfs {
        PfsCluster::new(cfg, mode).mount()
    }

    /// A view of `cluster`, without counting a mount.
    pub(crate) fn view(cluster: PfsCluster) -> Pfs {
        Pfs { cluster }
    }

    /// The cluster this view is mounted on: everything cluster-wide — the
    /// queue depth, parity and failover controls, [`PfsCluster::reset_timing`],
    /// the metadata shard counters — is reached through it.
    pub fn cluster(&self) -> &PfsCluster {
        &self.cluster
    }

    /// Platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cluster.inner.cfg
    }

    /// Create (or truncate) a file and return its handle. Routed through
    /// the metadata shard owning the path — creates on different shards
    /// never contend.
    pub fn create(&self, name: &str) -> PfsFile {
        let (old, id) = self.cluster.inner.meta.create(name);
        if let Some(old) = old {
            for s in &self.cluster.inner.servers {
                s.lock().remove_file(old.id);
            }
            self.cluster.inner.epochs.lock().remove(&old.id);
        }
        PfsFile::new(self.cluster.clone(), id, name.to_string())
    }

    /// Open an existing file.
    pub fn open(&self, name: &str) -> Option<PfsFile> {
        self.cluster
            .inner
            .meta
            .open(name)
            .map(|e| PfsFile::new(self.cluster.clone(), e.id, name.to_string()))
    }

    /// Does `name` exist?
    pub fn exists(&self, name: &str) -> bool {
        self.cluster.inner.meta.lookup(name).is_some()
    }

    /// Delete a file, freeing its stripes. Returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        if let Some(e) = self.cluster.inner.meta.remove(name) {
            for s in &self.cluster.inner.servers {
                s.lock().remove_file(e.id);
            }
            self.cluster.inner.epochs.lock().remove(&e.id);
            true
        } else {
            false
        }
    }

    /// Names of all files (sorted, for deterministic listings).
    pub fn list(&self) -> Vec<String> {
        self.cluster.inner.meta.list()
    }

    /// Reset all server queues, position state and fault `ops` counters to
    /// virtual time zero, keeping file contents. Benchmarks call this
    /// between phases.
    ///
    /// This is a **cluster-wide** operation — the view has no private
    /// timing state — so on a cluster that has handed out more than one
    /// mount it would silently rewind *other sessions'* server clocks and
    /// `(seed, server_id, ops)` fault sequences. A shared cluster
    /// therefore refuses the per-view reset (panics); drivers that own a
    /// quiescent point call [`PfsCluster::reset_timing`] instead.
    pub fn reset_timing(&self) {
        let mounts = self.cluster.inner.mounts.load(Ordering::Relaxed);
        assert!(
            mounts <= 1,
            "Pfs::reset_timing on a cluster with {mounts} mounts would corrupt other \
             sessions' timing and fault determinism; use PfsCluster::reset_timing \
             from a quiescent point instead"
        );
        self.cluster().reset_timing();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs() -> Pfs {
        Pfs::new(SimConfig::test_small(), StorageMode::Full)
    }

    #[test]
    fn create_open_delete() {
        let fs = pfs();
        assert!(!fs.exists("a.nc"));
        let f = fs.create("a.nc");
        assert!(fs.exists("a.nc"));
        assert_eq!(f.size(), 0);
        assert!(fs.open("a.nc").is_some());
        assert!(fs.open("missing.nc").is_none());
        assert!(fs.delete("a.nc"));
        assert!(!fs.delete("a.nc"));
        assert!(!fs.exists("a.nc"));
    }

    #[test]
    fn create_truncates_existing() {
        let fs = pfs();
        let f = fs.create("x");
        f.write_at(hpc_sim::Time::ZERO, 0, &[1, 2, 3]);
        assert_eq!(f.size(), 3);
        let f2 = fs.create("x");
        assert_eq!(f2.size(), 0);
        let mut buf = [9u8; 3];
        f2.read_at(hpc_sim::Time::ZERO, 0, &mut buf);
        assert_eq!(buf, [0, 0, 0]);
    }

    #[test]
    fn list_is_sorted() {
        let fs = pfs();
        fs.create("b");
        fs.create("a");
        fs.create("c");
        assert_eq!(fs.list(), vec!["a", "b", "c"]);
    }
}
