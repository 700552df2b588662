//! Simulation configuration: one struct bundling the platform cost models.
//!
//! Two presets mirror the two testbeds of the paper's Section 5:
//!
//! * [`SimConfig::sdsc_blue_horizon`] — the teraflop SP at SDSC used for the
//!   scalability analysis (Figure 6): 12 I/O nodes running GPFS, 1.5 GB/s
//!   peak aggregate I/O bandwidth.
//! * [`SimConfig::asci_frost`] — ASCI White Frost used for the FLASH I/O
//!   comparison (Figure 7): a much smaller 2-node GPFS I/O system.
//!
//! The individual constants are first-order estimates for Power3-era hardware
//! (they only need to produce the right *relative* behaviour). Every field is
//! public: an ablation overrides a preset's field before the platform is
//! built, and this struct is the one place a platform property is set — the
//! file system reads it once, when its servers are built, and no open-time
//! hint changes it afterwards.

use crate::cpu::CpuModel;
use crate::disk::DiskModel;
use crate::fault::FaultPlan;
use crate::network::NetworkModel;
use crate::service::ServiceModel;
use crate::time::Time;
use pnetcdf_trace::{Profile, TraceLog};

/// Default bounded admission queue depth of one I/O server (see
/// [`crate::service`]).
pub const DEFAULT_SERVER_QUEUE_DEPTH: usize = 4;

/// Complete description of a simulated platform.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Interconnect between compute nodes (message passing).
    pub network: NetworkModel,
    /// Disk behaviour of one I/O server.
    pub disk: DiskModel,
    /// The NIC of one I/O server: the other half of the dual-resource
    /// service engine. While the disk streams request *k*, this NIC can
    /// already be receiving request *k+1*.
    pub server_nic: NetworkModel,
    /// Bounded server admission queue depth (writes past the NIC awaiting
    /// the disk); `0` = unbounded.
    pub server_queue_depth: usize,
    /// CPU costs for in-memory data movement.
    pub cpu: CpuModel,
    /// Number of I/O server nodes the parallel file system stripes across.
    pub io_servers: usize,
    /// File system stripe unit in bytes.
    pub stripe_size: usize,
    /// Bandwidth of one compute client's link into the storage network,
    /// bytes/second. This is what bounds a *single* process performing all
    /// the I/O (the serialized baseline of Figure 2(a)).
    pub client_link_bw: f64,
    /// One-way latency between a client and an I/O server.
    pub client_link_latency: Time,
    /// Shared profiling sink. Cloning a `SimConfig` clones the handle, not
    /// the counters, so the MPI runtime, the MPI-IO layer and the file
    /// system servers built from one config all record into the same
    /// profile. Disabled (and essentially free) by default.
    pub profile: Profile,
    /// Shared per-request span recorder (same handle semantics as
    /// `profile`): every layer records sim-clock-stamped spans into the
    /// same log, linked across layers by trace ids. Off by default —
    /// `events.set_enabled(true)` before the run turns it on.
    pub events: TraceLog,
    /// Fault-injection plan applied by the PFS servers; inert by default.
    pub faults: FaultPlan,
    /// Declustered-parity redundancy across the I/O servers: RAID-5-style
    /// rotated parity plus server failover (degraded reads, redirected
    /// writes, online rebuild). Fixed when the file system is built, so
    /// parity covers every byte it ever stores; needs at least two servers.
    /// Off in every preset: the parity-off stack is byte- and
    /// timing-identical to one without the layer.
    pub parity: bool,
}

impl SimConfig {
    /// SDSC Blue Horizon preset (Figure 6 platform).
    ///
    /// 12 I/O nodes, ~1.5 GB/s peak aggregate: each server streams at
    /// 125 MB/s. A single Power3 client pushing through one NIC manages on
    /// the order of 100 MB/s, which bounds the serial-netCDF column.
    pub fn sdsc_blue_horizon() -> SimConfig {
        SimConfig {
            network: NetworkModel {
                latency: Time::from_micros(20),
                bandwidth: 350e6,
            },
            disk: DiskModel {
                per_request: Time::from_micros(300),
                seek: Time::from_millis(4),
                bandwidth: 125e6,
            },
            server_nic: NetworkModel {
                latency: Time::from_micros(20),
                bandwidth: 250e6,
            },
            server_queue_depth: DEFAULT_SERVER_QUEUE_DEPTH,
            cpu: CpuModel {
                copy_per_byte_ns: 0.35,
                metadata_op: Time::from_micros(50),
            },
            io_servers: 12,
            stripe_size: 256 * 1024,
            client_link_bw: 110e6,
            client_link_latency: Time::from_micros(30),
            profile: Profile::new(),
            events: TraceLog::new(),
            faults: FaultPlan::default(),
            parity: false,
        }
    }

    /// ASCI White Frost preset (Figure 7 platform).
    ///
    /// Frost's GPFS ran on only 2 I/O nodes, which is why the paper's FLASH
    /// aggregate bandwidths top out around 60–110 MB/s.
    pub fn asci_frost() -> SimConfig {
        SimConfig {
            network: NetworkModel {
                latency: Time::from_micros(25),
                bandwidth: 300e6,
            },
            disk: DiskModel {
                per_request: Time::from_micros(400),
                seek: Time::from_millis(5),
                bandwidth: 60e6,
            },
            server_nic: NetworkModel {
                latency: Time::from_micros(25),
                bandwidth: 150e6,
            },
            server_queue_depth: DEFAULT_SERVER_QUEUE_DEPTH,
            cpu: CpuModel {
                copy_per_byte_ns: 0.4,
                metadata_op: Time::from_micros(60),
            },
            io_servers: 2,
            stripe_size: 256 * 1024,
            client_link_bw: 90e6,
            client_link_latency: Time::from_micros(35),
            profile: Profile::new(),
            events: TraceLog::new(),
            faults: FaultPlan::default(),
            parity: false,
        }
    }

    /// A tiny, fast preset for unit tests: small stripes so striping logic is
    /// exercised even by kilobyte-sized files.
    pub fn test_small() -> SimConfig {
        SimConfig {
            network: NetworkModel {
                latency: Time::from_micros(10),
                bandwidth: 1e9,
            },
            disk: DiskModel {
                per_request: Time::from_micros(100),
                seek: Time::from_millis(1),
                bandwidth: 200e6,
            },
            server_nic: NetworkModel {
                latency: Time::from_micros(10),
                bandwidth: 400e6,
            },
            server_queue_depth: DEFAULT_SERVER_QUEUE_DEPTH,
            cpu: CpuModel {
                copy_per_byte_ns: 0.2,
                metadata_op: Time::from_micros(10),
            },
            io_servers: 4,
            stripe_size: 1024,
            client_link_bw: 400e6,
            client_link_latency: Time::from_micros(10),
            profile: Profile::new(),
            events: TraceLog::new(),
            faults: FaultPlan::default(),
            parity: false,
        }
    }

    /// Peak aggregate disk bandwidth of the whole I/O subsystem, bytes/s.
    pub fn peak_aggregate_bw(&self) -> f64 {
        self.disk.bandwidth * self.io_servers as f64
    }

    /// The dual-resource service model of one I/O server.
    pub fn service_model(&self) -> ServiceModel {
        ServiceModel {
            nic: self.server_nic,
            queue_depth: self.server_queue_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let sdsc = SimConfig::sdsc_blue_horizon();
        assert_eq!(sdsc.io_servers, 12);
        // 12 * 125 MB/s = 1.5 GB/s, the paper's stated peak.
        assert!((sdsc.peak_aggregate_bw() - 1.5e9).abs() < 1e6);

        let frost = SimConfig::asci_frost();
        assert_eq!(frost.io_servers, 2);
        assert!(frost.peak_aggregate_bw() < sdsc.peak_aggregate_bw());
        // Every preset's server NIC outruns its disk, so the NIC stage can
        // hide behind the disk stage rather than become the new bottleneck.
        for cfg in [&sdsc, &frost, &SimConfig::test_small()] {
            assert!(cfg.server_nic.bandwidth >= 2.0 * cfg.disk.bandwidth);
            assert!(cfg.server_queue_depth > 0);
            assert!(!cfg.parity, "parity is opt-in");
        }
    }
}
