//! `pnetcdf-trace`: a Darshan-style I/O profiling layer for the PnetCDF
//! reproduction.
//!
//! The benchmarks of the source paper (Figures 6 and 7) are *explained* by
//! reasoning about where time goes — two-phase exchange vs. disk I/O,
//! header synchronization vs. data movement. This crate makes that
//! reasoning measurable: a [`Profile`] is shared by every simulation layer
//! (it rides inside `hpc_sim::SimConfig`, so the MPI runtime, the MPI-IO
//! layer, and the PFS servers all see the same one) and attributes
//!
//! * **per-rank virtual time** to a small set of [`Phase`]s — every clock
//!   advance in the stack is charged to exactly one phase, so a rank's
//!   phase times sum to its final clock and the critical rank's breakdown
//!   sums to the makespan;
//! * **operation counts, bytes and simulated latency** to each MPI
//!   collective kind ([`CollKind`]);
//! * **request-size histograms** (power-of-two buckets) and per-server
//!   counters (requests, bytes, seeks, seek distance) at the PFS;
//! * **algorithm counters** for the two-phase and data-sieving engines
//!   (file domains, windows, read-modify-write windows, exchange wire
//!   bytes, sieving amplification).
//!
//! The layer is always compiled and cheap when disabled: every recording
//! method begins with one relaxed atomic load and returns immediately when
//! profiling is off. Reports serialize through the dependency-free
//! [`json::Json`] value type.
//!
//! Aggregate counters answer *where* time went; the [`events`] module
//! answers *which request* it went to: a per-rank span recorder
//! ([`TraceLog`]) stamps sim-clock intervals from `iput` down to the PFS
//! server disk, exports Chrome `trace_event` JSON, and attributes each
//! collective window to the stage that bounds it ([`events::critical_path`]).

pub mod events;
pub mod json;
pub mod phase;
pub mod profile;
pub mod report;

pub use events::{critical_path, CriticalPath, Span, TraceCtx, TraceLog, TraceSnapshot};
pub use json::Json;
pub use phase::{CollKind, Phase};
pub use profile::{
    BytePathCounters, CacheCounters, Counters, FailoverCounters, FaultCounters, IoStages,
    MpiCounters, PhaseScope, Profile, ProfileSnapshot, ServerCounters, TwophaseCounters,
};
