//! The service cluster: servers, failover state, and sharded metadata
//! with a lifetime that outlives any single file open/close.
//!
//! # Ownership
//!
//! ```text
//!   PfsCluster ─────────────► ClusterInner (Arc)
//!                               ├── servers: Vec<Mutex<Server>>   (NIC+disk engines,
//!                               │       fault plans, queue depths — shared by ALL files)
//!                               ├── meta: MetaShards              (file table, hashed by path)
//!                               ├── failover: FailoverState       (down mark, epoch, parity log)
//!                               └── parity, epochs, stats, cfg
//!        │ mount()
//!        ▼
//!   Pfs (per-file-group view) ──► same ClusterInner
//!        │ create()/open()
//!        ▼
//!   PfsFile (one file)        ──► same ClusterInner
//! ```
//!
//! What is true of the whole cluster — queue depth, parity, the down
//! server and its epoch — is read and set here and nowhere else: a view or
//! a file reaches it through `Pfs::cluster()` / `PfsFile::cluster()`.
//!
//! A [`crate::Pfs`] is a cheap *view*: every mount shares the cluster's
//! server queues, fault determinism `(seed, server_id, ops)` and failover
//! epochs. `Pfs::new` builds a one-mount cluster, which makes the whole
//! pre-cluster API the degenerate case — single-file workloads are byte-
//! and timing-identical to a build without this module.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use hpc_sim::SimConfig;

use crate::filesystem::Pfs;
use crate::meta::MetaShards;
use crate::server::Server;
use crate::storage::StorageMode;
use crate::stripe::Striping;

pub(crate) struct ClusterInner {
    pub cfg: SimConfig,
    pub striping: Striping,
    pub servers: Vec<Mutex<Server>>,
    /// The sharded file table (create/open/delete, per-file sizes).
    pub meta: MetaShards,
    /// Per-file coherence epochs, keyed by file id. A client cache bumps a
    /// file's epoch whenever it publishes dirty pages; other clients compare
    /// their last-seen epoch at synchronization points and invalidate.
    /// Lives here (not in the meta entry) so every handle to the same file
    /// shares one atomic.
    pub epochs: Mutex<HashMap<u64, Arc<AtomicU64>>>,
    /// Whether the declustered-parity redundancy layer is on
    /// (`pnc_parity` hint). Off by default: the parity-off stack is byte-
    /// and timing-identical to a build without the layer.
    pub parity: AtomicBool,
    /// Declared-down server and the degraded-mode write log. Locked
    /// *before* any server mutex (fixed order, no deadlock).
    pub failover: Mutex<FailoverState>,
    /// Mounts ever handed out ([`PfsCluster::mount`] / `Pfs::new`). Never
    /// decremented: a cluster that has ever been shared refuses per-view
    /// timing resets (see `Pfs::reset_timing`) for good.
    pub mounts: AtomicUsize,
}

/// Failover bookkeeping shared by every handle to the cluster.
/// Ordered maps keep rebuild replay deterministic.
#[derive(Default)]
pub(crate) struct FailoverState {
    /// The server the ranks collectively agreed is down, if any.
    pub down: Option<usize>,
    /// Monotonic count of server-down epochs declared (profile fodder and
    /// a cheap "did anything change" check for tests).
    pub epoch: u64,
    /// Per-file extents `(stripe, offset_in_stripe, len)` destined to the
    /// down server while degraded. The payload is covered by parity on the
    /// surviving servers; the restart rebuild replays exactly these
    /// extents onto the returning server.
    pub log: std::collections::BTreeMap<u64, Vec<(u64, u64, u64)>>,
    /// Parity rows *owned by* the down server whose data changed while it
    /// was out: their stored parity is stale and must be recomputed at
    /// rebuild, or a later crash window would reconstruct garbage.
    pub parity_dirty: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>>,
}

/// Handle to a service cluster. Cheap to clone; all clones and all
/// [`PfsCluster::mount`]ed views share the same servers and namespace.
#[derive(Clone)]
pub struct PfsCluster {
    pub(crate) inner: Arc<ClusterInner>,
}

impl PfsCluster {
    /// Build a cluster with `cfg.io_servers` servers and
    /// `cfg.stripe_size` stripes, constructed once and shared by every
    /// dataset opened against it.
    pub fn new(cfg: SimConfig, mode: StorageMode) -> PfsCluster {
        let striping = Striping::new(cfg.stripe_size as u64, cfg.io_servers);
        let servers = (0..cfg.io_servers)
            .map(|i| {
                Mutex::new(Server::configure(
                    cfg.stripe_size as u64,
                    cfg.io_servers,
                    mode,
                    cfg.service_model(),
                    cfg.faults.clone(),
                    i,
                ))
            })
            .collect();
        PfsCluster {
            inner: Arc::new(ClusterInner {
                cfg,
                striping,
                servers,
                meta: MetaShards::new(),
                epochs: Mutex::new(HashMap::new()),
                parity: AtomicBool::new(false),
                failover: Mutex::new(FailoverState::default()),
                mounts: AtomicUsize::new(0),
            }),
        }
    }

    /// Hand out a file-system view of this cluster. Sessions mount once
    /// and open their datasets through the view; all views share the
    /// cluster's servers, metadata shards and failover state.
    pub fn mount(&self) -> Pfs {
        self.inner.mounts.fetch_add(1, Ordering::Relaxed);
        Pfs::view(self.clone())
    }

    /// Mounts ever handed out.
    pub fn mounts(&self) -> usize {
        self.inner.mounts.load(Ordering::Relaxed)
    }

    /// Platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.cfg
    }

    /// The sharded metadata layer (shard lookup and per-shard counters).
    pub fn meta(&self) -> &MetaShards {
        &self.inner.meta
    }

    /// Number of I/O servers.
    pub fn nservers(&self) -> usize {
        self.inner.striping.nservers
    }

    /// **Cluster-wide** timing reset: every server's stage clocks, queue,
    /// position state and fault `ops` counter rewind to virtual time zero,
    /// keeping stored bytes. This is the benchmark-phase reset; it must
    /// only run at a quiescent point (no session mid-I/O), because it
    /// rewinds the `(seed, server_id, ops)` fault sequence for *every*
    /// file on the cluster at once. Per-view `Pfs::reset_timing` refuses
    /// to do this on a shared cluster — call this instead, from the
    /// driver that owns the quiescent point.
    pub fn reset_timing(&self) {
        for s in &self.inner.servers {
            s.lock().reset_timing();
        }
    }

    /// Override every server's bounded admission queue depth (the
    /// `pnc_server_queue_depth` hint, applied at file open; `0` =
    /// unbounded). The servers are shared, so this affects all files.
    pub fn set_queue_depth(&self, depth: usize) {
        for s in &self.inner.servers {
            s.lock().set_queue_depth(depth);
        }
    }

    /// Turn the declustered-parity layer on or off (the `pnc_parity`
    /// hint, applied at file open). Requires at least two servers to
    /// enable — with one there is nowhere to decluster.
    pub fn set_parity(&self, on: bool) {
        let on = on && self.inner.striping.nservers >= 2;
        self.inner.parity.store(on, Ordering::Relaxed);
    }

    /// Whether the parity layer is on.
    pub fn parity_enabled(&self) -> bool {
        self.inner.parity.load(Ordering::Relaxed)
    }

    /// Whether a retry ladder that exhausted against `server` may escalate
    /// to failover instead of surfacing `Exhausted`: parity must be on and
    /// no *other* server may already be down (single-parity survives one
    /// loss). A server that is already marked down can keep failing over —
    /// the mark is idempotent.
    pub fn can_failover(&self, server: usize) -> bool {
        self.parity_enabled() && self.down_server().is_none_or(|d| d == server)
    }

    /// Declare `server` down, opening a degraded-mode epoch — for *every*
    /// file open on the cluster, in the same epoch. Idempotent: returns
    /// `true` only on the transition. Every rank calls this after the
    /// collective error agreement picks the same `ServerLost`, so the flip
    /// happens at the same operation on all ranks; callers must drive
    /// control flow off the *agreed error*, not this return value.
    pub fn mark_server_down(&self, server: usize) -> bool {
        assert!(server < self.inner.striping.nservers);
        let mut fo = self.inner.failover.lock();
        if fo.down == Some(server) {
            return false;
        }
        assert!(
            fo.down.is_none(),
            "single-parity failover cannot cover a second down server"
        );
        fo.down = Some(server);
        fo.epoch += 1;
        self.inner.cfg.profile.record_failover(|c| c.epochs += 1);
        true
    }

    /// The server currently marked down, if any — a cluster-wide fact:
    /// every open file on the cluster routes around the same down server.
    pub fn down_server(&self) -> Option<usize> {
        self.inner.failover.lock().down
    }

    /// Count of server-down epochs declared so far (cluster-wide).
    pub fn failover_epoch(&self) -> u64 {
        self.inner.failover.lock().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::Time;

    #[test]
    fn views_share_namespace_and_servers() {
        let cluster = PfsCluster::new(SimConfig::test_small(), StorageMode::Full);
        let a = cluster.mount();
        let b = cluster.mount();
        assert_eq!(cluster.mounts(), 2);
        let f = a.create("shared.nc");
        f.write_at(Time::ZERO, 0, &[7u8; 64]);
        let g = b.open("shared.nc").expect("visible through every view");
        assert_eq!(g.to_bytes(), f.to_bytes());
        assert_eq!(b.list(), vec!["shared.nc"]);
    }

    #[test]
    fn per_view_reset_refused_on_shared_cluster() {
        let cluster = PfsCluster::new(SimConfig::test_small(), StorageMode::Full);
        let a = cluster.mount();
        let _b = cluster.mount();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.reset_timing()));
        assert!(err.is_err(), "shared-cluster per-view reset must panic");
        // The cluster-level reset is the sanctioned path.
        cluster.reset_timing();
    }

    #[test]
    fn single_mount_reset_still_allowed() {
        let fs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        let f = fs.create("x");
        f.write_at(Time::ZERO, 0, &[1u8; 128]);
        fs.reset_timing();
    }
}
