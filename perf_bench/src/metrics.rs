//! Every metric the benchmark prints, by name, with its unit, the
//! direction that is better and (end to end) the bound by which its median
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! carries the same tables; a unit test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which order statistic of a run's samples is the value reported. All of
/// median, both quartiles and p90 are printed and stored either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Counts and virtual times: every sample is the same number.
    Median,
    /// Wall-clock times: the quartile on the metric's better side (q1 of
    /// seconds, q3 of MB/s). The host's noise is one-sided, a shared core
    /// slows down for seconds at a time and never speeds the code up, and
    /// over ten runs of the same code this quartile spread less than the
    /// median did (README.md, "Sizing and statistics").
    FastQuartile,
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub value: Estimator,
}

use Better::{Higher, Lower};
use Estimator::{FastQuartile, Median};

/// `sim_*` is virtual time (the paper's clock, bit-for-bit reproducible);
/// `host_*` is wall time of this process (what running the simulator
/// costs). The four exact metrics get tight bounds. The four wall-clock
/// ones get the widest the contract allows: ten runs of the same code on
/// the shared 2-core reference host spread by up to 14 % on the two 2-rank
/// workloads, and a bound a run-to-run spread can cross would call a
/// change that changed nothing a regression (README.md, "Sizing and
/// statistics" and the ten-seed table).
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "sim_write_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.001,
        value: Median,
    },
    EndToEnd {
        name: "sim_read_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.001,
        value: Median,
    },
    EndToEnd {
        name: "host_write_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
        value: FastQuartile,
    },
    EndToEnd {
        name: "host_read_mb_s",
        unit: "MB/s",
        better: Higher,
        bound: 0.25,
        value: FastQuartile,
    },
    EndToEnd {
        name: "host_iter_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        value: FastQuartile,
    },
    EndToEnd {
        name: "alloc_bytes_per_byte",
        unit: "B/B",
        better: Lower,
        bound: 0.01,
        value: Median,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.01,
        value: Median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        value: FastQuartile,
    },
];

/// A per-layer metric. Layers are the crates, plus `host` (the machine).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// What each should move, and on which workload, is tabled in README.md.
pub const PER_LAYER: [PerLayer; 70] = [
    // core: Dataset API above MpiFile (L0 - L1).
    m("core.write_self_s", "s", Lower),
    m("core.read_self_s", "s", Lower),
    m("core.alloc_bytes_per_byte", "B/B", Lower),
    m("core.allocs_per_req", "count", Lower),
    m("core.define_us", "us", Lower),
    m("core.open_us", "us", Lower),
    m("core.close_us", "us", Lower),
    m("core.sim_compute_s", "s", Lower),
    // format: codec kernels on the workload's own data.
    m("format.swap_gb_s", "GB/s", Higher),
    m("format.header_encode_us", "us", Lower),
    m("format.header_decode_us", "us", Lower),
    m("format.access_runs_ns_per_run", "ns", Lower),
    // mpi: datatype engine and the in-process runtime.
    m("mpi.flatten_ns_per_seg", "ns", Lower),
    m("mpi.pack_gb_s", "GB/s", Higher),
    m("mpi.alltoallv_gb_s", "GB/s", Higher),
    m("mpi.barrier_us", "us", Lower),
    m("mpi.world_spawn_us", "us", Lower),
    m("mpi.cpu_util", "ratio", Higher),
    m("mpi.sim_wait_s", "s", Lower),
    m("mpi.sim_metadata_s", "s", Lower),
    // mpio: MpiFile (L1) and what it does above the file system (L1 - L2).
    m("mpio.write_incl_s", "s", Lower),
    m("mpio.read_incl_s", "s", Lower),
    m("mpio.write_self_s", "s", Lower),
    m("mpio.read_self_s", "s", Lower),
    m("mpio.alloc_bytes_per_byte", "B/B", Lower),
    m("mpio.twophase_windows", "count", Lower),
    m("mpio.twophase_rounds", "count", Lower),
    m("mpio.cb_nodes", "count", Higher),
    m("mpio.exchange_wire_bytes", "B", Lower),
    m("mpio.sim_exchange_s", "s", Lower),
    m("mpio.sim_collbuf_pack_s", "s", Lower),
    m("mpio.sieve_wasted_bytes", "B", Lower),
    m("mpio.flatten_hit_ratio", "ratio", Higher),
    m("mpio.cache_hit_ratio", "ratio", Higher),
    m("mpio.cache_evictions", "count", Lower),
    m("mpio.cache_write_behind_bytes", "B", Lower),
    m("mpio.cache_readahead_hit_ratio", "ratio", Higher),
    m("mpio.cache_ns_per_req", "ns", Lower),
    m("mpio.sim_cache_s", "s", Lower),
    // pfs: PosixSim (L2) and byte storage (L2 Full - L2 CostOnly).
    m("pfs.write_incl_s", "s", Lower),
    m("pfs.read_incl_s", "s", Lower),
    m("pfs.store_gb_s", "GB/s", Higher),
    m("pfs.store_ns_per_req", "ns", Lower),
    m("pfs.create_us", "us", Lower),
    m("pfs.server_requests", "count", Lower),
    m("pfs.seeks", "count", Lower),
    m("pfs.max_queue_depth", "count", Lower),
    m("pfs.sim_disk_busy_s", "s", Lower),
    m("pfs.sim_nic_busy_s", "s", Lower),
    m("pfs.sim_queue_stall_s", "s", Lower),
    m("pfs.sim_overlap_s", "s", Higher),
    m("pfs.sim_disk_write_s", "s", Lower),
    m("pfs.sim_disk_read_s", "s", Lower),
    // sim: the cost model with no byte storage (L2 CostOnly).
    m("sim.model_ns_per_req", "ns", Lower),
    m("sim.model_ns_per_mb", "ns", Lower),
    // trace: what the library's own tracing costs the host.
    m("trace.profile_overhead_pct", "%", Lower),
    m("trace.events_overhead_pct", "%", Lower),
    m("trace.profile_sim_shift_pct", "%", Lower),
    m("trace.spans_recorded", "count", Lower),
    // serial: the single-threaded baseline (Fig. 6's first column).
    m("serial.host_write_mb_s", "MB/s", Higher),
    m("serial.host_read_mb_s", "MB/s", Higher),
    m("serial.sim_write_mb_s", "MB/s", Higher),
    m("serial.sim_read_mb_s", "MB/s", Higher),
    // flashio: input generation the FLASH writer repeats per call.
    m("flashio.mesh_fill_ms", "ms", Lower),
    // host: the machine, not a crate.
    m("host.memcpy_gb_s", "GB/s", Higher),
    m("host.memcpy_drift_pct", "%", Lower),
    m("host.single_copy_write_mb_s", "MB/s", Higher),
    m("host.page_faults_per_mb", "1/MB", Lower),
    m("host.peak_rss_mb", "MiB", Lower),
    m("host.l0_iter_s", "s", Lower),
];

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The text between `"<key>": [` and its closing bracket.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find("\n  ]").expect("section end")]
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let e2e = section("end_to_end");
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
        for m in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(e2e.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let layers = section("per_layer");
        assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
        for m in &PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(layers.contains(&row), "BENCHMARK.json lacks {row}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let w = section("workloads");
        assert_eq!(w.matches("\"name\"").count(), crate::workload::ALL.len());
        for wl in crate::workload::ALL {
            assert!(w.contains(&format!("\"name\": \"{}\"", wl.name())));
            assert!(w.contains(wl.why()), "why of {} differs", wl.name());
            assert!(wl.why().len() <= 200 && !wl.why().contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }
}
