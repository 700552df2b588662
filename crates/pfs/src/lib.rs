//! A GPFS-like striped parallel file system, simulated.
//!
//! The paper's testbeds ran GPFS over dedicated I/O server nodes (12 on the
//! SDSC machine, 2 on ASCI Frost). This crate reproduces the two properties
//! of that system that the evaluation depends on:
//!
//! 1. **Byte-accurate storage.** Files are striped round-robin across
//!    servers and the bytes are really kept (in memory), so a netCDF file
//!    written through the whole parallel stack can be exported and re-read —
//!    correctness is testable end to end. For large benchmarks,
//!    [`StorageMode::CostOnly`] discards payloads and keeps only timing.
//! 2. **Virtual-time cost accounting.** Each server is a dual-resource
//!    pipeline ([`hpc_sim::ServiceEngine`]): a server NIC stage and a disk
//!    stage charged by the [`hpc_sim::DiskModel`], joined by a bounded
//!    admission queue, so the NIC receives request *k+1* while the disk
//!    services request *k*. Clients reach servers through their own
//!    bandwidth-limited NIC. A single client therefore cannot saturate the
//!    array (the serial-netCDF bottleneck of Figure 2(a)), while many
//!    clients saturate at the fixed aggregate disk bandwidth (the
//!    flattening curves of Figure 6).
//!
//! Operations take an explicit *start time* and return a *completion time*;
//! the caller (MPI-IO layer, or the serial library's POSIX adapter) owns the
//! clock.
//!
//! One handle, [`Pfs`], reaches the whole file system: a clone is another
//! handle to the same servers, metadata and failover state (the shared
//! state and the cluster-wide controls are in [`cluster`]). The namespace is
//! a sharded metadata layer ([`meta::MetaShards`]) hashed by path, so
//! hundreds of datasets coexist without a global table lock. Every platform
//! property comes from the `SimConfig` the file system is built from and is
//! fixed from then on.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cluster;
pub mod failover;
pub mod file;
pub mod filesystem;
pub mod meta;
pub mod pool;
pub mod posix;
pub mod retry;
pub mod server;
pub mod storage;
pub mod stripe;

pub use file::{Gather, IoFailure, PfsFile, Seg, WriteCompletion};
pub use filesystem::Pfs;
pub use meta::{MetaShardStats, MetaShards, META_SHARDS};
pub use posix::PosixSim;
pub use retry::{ladder, RetryPolicy};
pub use server::{Server, ServiceOutcome};
pub use storage::StorageMode;
pub use stripe::{StripeChunk, Striping};
