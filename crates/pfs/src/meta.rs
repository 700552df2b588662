//! Sharded metadata layer: the cluster's file table.
//!
//! A service cluster hosts hundreds of datasets; funnelling every
//! `create`/`open`/`delete` through one global table lock would serialize
//! unrelated sessions at the metadata server, the bottleneck the ViPIOS
//! architecture splits I/O servers away from. Instead the namespace is
//! partitioned into [`META_SHARDS`] shards hashed by path (FNV-1a): two
//! sessions touching different shards never contend, and two paths that
//! *do* collide on a shard only share that shard's lock.
//!
//! Determinism: file ids are allocated per shard as
//! `id = 1 + shard + META_SHARDS * local_counter`, so the id a path
//! receives depends only on the sequence of creates *within its own
//! shard* — never on how creates interleave across shards in real time.
//! Sessions that create disjoint paths therefore get identical ids no
//! matter how the scheduler orders them.
//!
//! A path resolves, at `create` or `open`, to a shared [`FileRecord`]; the
//! shard entry and every handle hold the same record, so a request reads and
//! grows the size and bumps the coherence epoch with one atomic each,
//! without a lock or a name lookup. A truncating `create` makes a fresh
//! record, so a handle still holding the old one touches only the old file.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Number of metadata shards per cluster. A small power of two: enough to
/// keep concurrent sessions off each other's locks, small enough that
/// `list()` stays cheap.
pub const META_SHARDS: usize = 16;

/// One file's record, shared by its shard entry and every handle to it.
#[derive(Debug)]
pub(crate) struct FileRecord {
    pub id: u64,
    /// Highest byte ever written + 1.
    pub size: AtomicU64,
    /// Coherence epoch: a client cache bumps it whenever it publishes dirty
    /// pages; other clients compare their last-seen epoch at
    /// synchronization points and invalidate.
    pub epoch: AtomicU64,
}

#[derive(Default)]
struct Shard {
    files: HashMap<String, Arc<FileRecord>>,
    /// Creates ever performed on this shard; drives id allocation.
    created: u64,
}

/// Cumulative metadata-operation counters, per shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetaShardStats {
    pub creates: u64,
    pub opens: u64,
    pub deletes: u64,
    /// Live files currently on the shard.
    pub files: u64,
}

/// The sharded file table. Create/open/delete take only the owning
/// shard's lock.
pub struct MetaShards {
    shards: Vec<Mutex<Shard>>,
    stats: Vec<Mutex<MetaShardStats>>,
}

/// FNV-1a over the path bytes: stable, platform-independent shard choice.
fn fnv1a(path: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl MetaShards {
    pub fn new() -> MetaShards {
        MetaShards {
            shards: (0..META_SHARDS).map(|_| Mutex::default()).collect(),
            stats: (0..META_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The shard owning `path`.
    pub fn shard_of(&self, path: &str) -> usize {
        (fnv1a(path) % META_SHARDS as u64) as usize
    }

    /// Create (or truncate) `path` with a fresh id and record; returns
    /// `(old_record, new_record)` so the caller can free the old id's stripes.
    pub(crate) fn create(&self, path: &str) -> (Option<Arc<FileRecord>>, Arc<FileRecord>) {
        let sh = self.shard_of(path);
        let mut shard = self.shards[sh].lock();
        let id = 1 + sh as u64 + (META_SHARDS as u64) * shard.created;
        shard.created += 1;
        let rec = Arc::new(FileRecord {
            id,
            size: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
        });
        let old = shard.files.insert(path.to_string(), rec.clone());
        let nfiles = shard.files.len() as u64;
        drop(shard);
        let mut st = self.stats[sh].lock();
        st.creates += 1;
        st.files = nfiles;
        (old, rec)
    }

    /// Look up `path`, counting the open.
    pub(crate) fn open(&self, path: &str) -> Option<Arc<FileRecord>> {
        let sh = self.shard_of(path);
        let e = self.shards[sh].lock().files.get(path).cloned();
        if e.is_some() {
            self.stats[sh].lock().opens += 1;
        }
        e
    }

    /// Whether `path` exists (not counted as an open).
    pub(crate) fn contains(&self, path: &str) -> bool {
        let sh = self.shard_of(path);
        self.shards[sh].lock().files.contains_key(path)
    }

    /// Remove `path`, returning its record so the caller can free stripes.
    pub(crate) fn remove(&self, path: &str) -> Option<Arc<FileRecord>> {
        let sh = self.shard_of(path);
        let mut shard = self.shards[sh].lock();
        let old = shard.files.remove(path);
        let nfiles = shard.files.len() as u64;
        drop(shard);
        if old.is_some() {
            let mut st = self.stats[sh].lock();
            st.deletes += 1;
            st.files = nfiles;
        }
        old
    }

    /// All paths, sorted for deterministic listings.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().files.keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Live file count across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().files.len()).sum()
    }

    /// Whether the namespace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard operation counters (index = shard).
    pub fn stats(&self) -> Vec<MetaShardStats> {
        self.stats.iter().map(|s| *s.lock()).collect()
    }
}

impl Default for MetaShards {
    fn default() -> Self {
        MetaShards::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_shard_local() {
        let m = MetaShards::new();
        let mut ids = std::collections::HashSet::new();
        for i in 0..200 {
            let id = m.create(&format!("f{i}.nc")).1.id;
            assert!(ids.insert(id), "duplicate id {id}");
            assert_eq!(
                (id - 1) % META_SHARDS as u64,
                m.shard_of(&format!("f{i}.nc")) as u64,
                "id encodes the owning shard"
            );
        }
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn id_allocation_independent_of_other_shards() {
        // Creating a path yields the same id regardless of how much
        // traffic other shards saw first.
        let quiet = MetaShards::new();
        let id_quiet = quiet.create("target.nc").1.id;
        let busy = MetaShards::new();
        let target_shard = busy.shard_of("target.nc");
        let mut i = 0;
        let mut planted = 0;
        while planted < 50 {
            let p = format!("noise{i}.nc");
            i += 1;
            if busy.shard_of(&p) != target_shard {
                busy.create(&p);
                planted += 1;
            }
        }
        let id_busy = busy.create("target.nc").1.id;
        assert_eq!(id_quiet, id_busy);
    }

    #[test]
    fn recreate_allocates_fresh_id() {
        let m = MetaShards::new();
        let a = m.create("x").1.id;
        let (old, b) = m.create("x");
        assert_eq!(old.unwrap().id, a);
        assert_ne!(a, b.id, "truncating create must not reuse the stale id");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn counters_track_ops() {
        let m = MetaShards::new();
        m.create("a");
        m.open("a");
        m.open("a");
        m.remove("a");
        assert!(m.open("a").is_none());
        let totals = m.stats().iter().fold((0, 0, 0), |acc, s| {
            (acc.0 + s.creates, acc.1 + s.opens, acc.2 + s.deletes)
        });
        assert_eq!(totals, (1, 2, 1));
    }
}
