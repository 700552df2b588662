//! The file system object: one handle to the simulated parallel file
//! system, and its namespace operations.
//!
//! A [`Pfs`] is a cheap handle to the shared state in
//! [`crate::cluster::ClusterInner`]: clones address the same servers, the
//! same namespace and the same failover state. `Pfs::new` and the
//! cluster-wide controls are in [`crate::cluster`].

use std::sync::Arc;

use crate::cluster::ClusterInner;
use crate::file::PfsFile;

/// Handle to the shared parallel file system. Cheap to clone; all clones
/// address the same servers and the same namespace.
#[derive(Clone)]
pub struct Pfs {
    pub(crate) inner: Arc<ClusterInner>,
}

impl Pfs {
    /// Create (or truncate) a file and return its handle. Routed through
    /// the metadata shard owning the path — creates on different shards
    /// never contend. A handle to the truncated file keeps its old record:
    /// its writes no longer reach the new file's size.
    pub fn create(&self, name: &str) -> PfsFile {
        let (old, rec) = self.inner.meta.create(name);
        if let Some(old) = old {
            for s in &self.inner.servers {
                s.lock().remove_file(old.id);
            }
        }
        PfsFile::new(self.clone(), rec, name.to_string())
    }

    /// Open an existing file.
    pub fn open(&self, name: &str) -> Option<PfsFile> {
        self.inner
            .meta
            .open(name)
            .map(|rec| PfsFile::new(self.clone(), rec, name.to_string()))
    }

    /// Does `name` exist?
    pub fn exists(&self, name: &str) -> bool {
        self.inner.meta.contains(name)
    }

    /// Delete a file, freeing its stripes. Returns whether it existed.
    pub fn delete(&self, name: &str) -> bool {
        if let Some(e) = self.inner.meta.remove(name) {
            for s in &self.inner.servers {
                s.lock().remove_file(e.id);
            }
            true
        } else {
            false
        }
    }

    /// Names of all files (sorted, for deterministic listings).
    pub fn list(&self) -> Vec<String> {
        self.inner.meta.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageMode;
    use hpc_sim::SimConfig;

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
    fn stale_handle_does_not_grow_the_new_file() {
        // A write through a handle held across a truncating create lands on
        // the old id; the new file must neither grow nor show the bytes.
        let fs = pfs();
        let old = fs.create("x");
        let new = fs.create("x");
        old.write_at(hpc_sim::Time::ZERO, 0, &[5u8; 100]);
        assert_eq!(new.size(), 0);
        assert_eq!(fs.open("x").unwrap().size(), 0);
        assert!(new.to_bytes().is_empty());
        assert_eq!(old.size(), 100);
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
