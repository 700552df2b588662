//! Virtual-time simulation substrate for the PnetCDF reproduction.
//!
//! The SC'03 PnetCDF paper reports wall-clock bandwidth measured on two IBM
//! SP-2 installations (SDSC Blue Horizon and ASCI White Frost). A laptop-scale
//! reproduction cannot reproduce the *absolute* timing of a 144-node machine
//! with dedicated GPFS I/O nodes, so every layer of this workspace charges its
//! work against a deterministic **virtual clock** instead of reading the real
//! one. The cost models in this crate are the classic first-order models used
//! in parallel-I/O analysis:
//!
//! * **Network** — the α–β (latency + bandwidth) model, with log₂(P) tree
//!   collectives (`[network]`).
//! * **Disk** — per-request overhead + positioning (seek) cost + streaming
//!   bandwidth, with a fixed number of I/O servers (`[disk]`).
//! * **CPU** — per-byte packing cost for buffer (un)packing work such as
//!   HDF5's recursive hyperslab packing (`[cpu]`).
//!
//! Each simulated MPI rank owns one entry in a [`clock::SharedClocks`]; blocking
//! operations advance a rank's clock, collectives synchronize clocks to the
//! maximum across participants. Aggregate bandwidth for a benchmark is then
//! `bytes / max(rank clocks)`, which preserves the *shape* of the paper's
//! results (who wins, crossovers, saturation) while remaining exactly
//! reproducible run-to-run.

pub mod clock;
pub mod config;
pub mod cpu;
pub mod disk;
pub mod fault;
pub mod network;
pub mod service;
pub mod time;

pub use clock::SharedClocks;
pub use config::SimConfig;
pub use cpu::CpuModel;
pub use disk::DiskModel;
pub use fault::{CrashSpec, FaultKind, FaultPlan};
pub use network::NetworkModel;
pub use service::{ServiceEngine, ServiceModel, StageTiming};
pub use time::Time;

/// Re-export of the profiling layer every consumer of [`SimConfig`] sees.
pub use pnetcdf_trace as trace;
pub use pnetcdf_trace::{
    BytePathCounters, CacheCounters, CollKind, FaultCounters, IoStages, Phase, PhaseScope, Profile,
    ProfileSnapshot, Span, TraceCtx, TraceLog, TraceSnapshot,
};
