//! What every file on the file system shares: servers, failover state and
//! sharded metadata, with a lifetime that outlives any single open/close.
//!
//! # Ownership
//!
//! ```text
//!   Pfs (a clone is another handle) ──► ClusterInner (Arc)
//!        │                               ├── servers: Vec<Mutex<Server>>   (NIC+disk engines,
//!        │                               │       fault plans, queue depths — shared by ALL files)
//!        │                               ├── meta: MetaShards              (file table, hashed by path:
//!        │                               │       name ──► Arc<FileRecord> {id, size, epoch})
//!        │                               ├── failover: FailoverState       (down mark, epoch, parity log)
//!        │                               └── parity (fixed at build), cfg
//!        │ create()/open()
//!        ▼
//!   PfsFile (one file) ──► its Pfs ──► same ClusterInner
//!                      └─► its FileRecord (shared with the shard entry)
//! ```
//!
//! Every platform property — queue depth, parity, the fault plan — is read
//! from the [`SimConfig`] once, here, when the servers are built; nothing
//! changes it afterwards. What changes at run time is cluster-wide too — the
//! down server and its epoch, the timing reset — and is read and set on the
//! [`Pfs`] (a file reaches it through `PfsFile::pfs()`). Every clone of a
//! `Pfs` shares the servers' queues, fault determinism
//! `(seed, server_id, ops)` and failover epochs, so sessions that each hold a
//! clone contend for the same servers exactly as files on one GPFS do.

use parking_lot::Mutex;
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
    /// The sharded file table (create/open/delete, per-file records).
    pub meta: MetaShards,
    /// Whether the declustered-parity redundancy layer is on:
    /// `SimConfig::parity` with at least two servers to decluster across.
    /// Fixed for the life of the file system, so parity covers every byte
    /// it stores.
    pub parity: bool,
    /// Declared-down server and the degraded-mode write log. Locked
    /// *before* any server mutex (fixed order, no deadlock).
    pub failover: Mutex<FailoverState>,
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

impl Pfs {
    /// Build a file system with `cfg.io_servers` servers and
    /// `cfg.stripe_size` stripes, constructed once and shared by every
    /// dataset opened against it and every clone of the handle.
    pub fn new(cfg: SimConfig, mode: StorageMode) -> Pfs {
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
        Pfs {
            inner: Arc::new(ClusterInner {
                parity: cfg.parity && cfg.io_servers >= 2,
                cfg,
                striping,
                servers,
                meta: MetaShards::new(),
                failover: Mutex::new(FailoverState::default()),
            }),
        }
    }

    /// Platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.inner.cfg
    }

    /// The sharded metadata layer (shard lookup and per-shard counters).
    pub fn meta(&self) -> &MetaShards {
        &self.inner.meta
    }

    /// Reset every server's stage clocks, queue, position state and fault
    /// `ops` counter to virtual time zero, keeping stored bytes. This is the
    /// benchmark-phase reset, and it is cluster-wide: it rewinds the
    /// `(seed, server_id, ops)` fault sequence for *every* file at once, so
    /// call it only at a quiescent point (no session mid-I/O).
    pub fn reset_timing(&self) {
        for s in &self.inner.servers {
            s.lock().reset_timing();
        }
    }

    /// Whether the parity layer is on (fixed when the file system is built).
    pub fn parity_enabled(&self) -> bool {
        self.inner.parity
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
        let a = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        let b = a.clone();
        let f = a.create("shared.nc");
        f.write_at(Time::ZERO, 0, &[7u8; 64]);
        let g = b.open("shared.nc").expect("visible through every handle");
        assert_eq!(g.to_bytes(), f.to_bytes());
        assert_eq!(b.list(), vec!["shared.nc"]);
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn zero_servers_rejected() {
        let mut cfg = SimConfig::test_small();
        cfg.io_servers = 0;
        Pfs::new(cfg, StorageMode::Full);
    }
}
