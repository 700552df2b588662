//! Turning a [`ProfileSnapshot`] into the structured JSON report.

use crate::json::Json;
use crate::phase::{CollKind, Phase};
use crate::profile::{ProfileSnapshot, ServerCounters, SieveCounters, HIST_BUCKETS};

/// How a table counter's raw `u64` appears in the report (the table's
/// unit column). Only [`Unit::Seconds`] converts; the other three say what
/// the raw number counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unit {
    /// A number of events or objects.
    Count,
    Bytes,
    /// Virtual nanoseconds, reported raw.
    Nanos,
    /// Virtual nanoseconds, reported as seconds.
    Seconds,
}

impl Unit {
    pub(crate) fn report(self, raw: u64) -> Json {
        match self {
            Unit::Seconds => Json::from(nanos_to_s(raw)),
            Unit::Count | Unit::Bytes | Unit::Nanos => Json::from(raw),
        }
    }
}

/// The report form of one table slot. The counter structs get theirs from
/// the table; the two slots that hold several rows spell their shape here.
pub(crate) trait Report {
    fn report(&self) -> Json;
}

/// `sieve`: the two directions by name (the slot is indexed by
/// `read as usize`).
impl Report for [SieveCounters; 2] {
    fn report(&self) -> Json {
        let [write, read] = self;
        Json::obj()
            .with("read", read.report())
            .with("write", write.report())
    }
}

/// `servers`: one row per server, carrying its id.
impl Report for Vec<ServerCounters> {
    fn report(&self) -> Json {
        let rows = self.iter().enumerate();
        Json::Arr(rows.map(|(id, s)| s.report().with("server", id)).collect())
    }
}

/// `num / den`, or `empty` when nothing was counted.
pub(crate) fn ratio(num: u64, den: u64, empty: f64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        empty
    }
}

impl ProfileSnapshot {
    /// Build the full report object.
    ///
    /// `sim_total_nanos` is the externally-measured makespan the breakdown
    /// should explain; the report carries both it and the attributed sum of
    /// the critical rank so consumers can check coverage.
    pub fn to_json(&self, sim_total_nanos: u64) -> Json {
        let critical = self.critical_rank();

        let mut phases = Json::obj();
        for p in Phase::ALL {
            let agg = self
                .phase_nanos
                .get(critical)
                .map(|r| r[p.index()])
                .unwrap_or(0);
            phases.set(
                p.name(),
                Json::obj().with("sim_s", Json::from(nanos_to_s(agg))),
            );
        }

        let mut per_rank = Vec::new();
        for (rank, counts) in self.phase_nanos.iter().enumerate() {
            let mut row = Json::obj().with("rank", Json::from(rank));
            for p in Phase::ALL {
                row.set(p.name(), Json::from(nanos_to_s(counts[p.index()])));
            }
            row.set("total_s", Json::from(nanos_to_s(self.rank_total(rank))));
            per_rank.push(row);
        }

        let mut collectives = Json::obj();
        for k in CollKind::ALL {
            let (count, bytes, nanos) = self.collectives[k.index()];
            if count == 0 {
                continue;
            }
            collectives.set(
                k.name(),
                Json::obj()
                    .with("count", Json::from(count))
                    .with("bytes", Json::from(bytes))
                    .with("sim_s", Json::from(nanos_to_s(nanos))),
            );
        }

        let attributed = self.rank_total(critical);
        let mut report = Json::obj()
            .with("sim_total_s", Json::from(nanos_to_s(sim_total_nanos)))
            .with("attributed_s", Json::from(nanos_to_s(attributed)))
            .with("coverage", ratio(attributed, sim_total_nanos, 1.0))
            .with("critical_rank", Json::from(critical))
            .with("nranks", Json::from(self.phase_nanos.len()))
            .with("phases", phases)
            .with("per_rank", Json::Arr(per_rank))
            .with("collectives", collectives)
            .with("request_sizes", self.histograms_json())
            .with("hints_rejected", Json::from(self.hints_rejected));
        self.counters.report_into(&mut report);
        for (name, value) in &self.extras {
            report.set(name, value.clone());
        }
        report
    }

    fn histograms_json(&self) -> Json {
        Json::obj()
            .with("io_write", hist_json(&self.io_write_hist))
            .with("io_read", hist_json(&self.io_read_hist))
            .with("messages", hist_json(&self.msg_hist))
    }
}

/// Histogram as an object of `"<=2^i": count` entries, empty buckets
/// omitted.
fn hist_json(hist: &[u64; HIST_BUCKETS]) -> Json {
    let mut obj = Json::obj();
    for (i, &count) in hist.iter().enumerate() {
        if count > 0 {
            obj.set(&format!("<=2^{}", i), Json::from(count));
        }
    }
    obj
}

fn nanos_to_s(n: u64) -> f64 {
    n as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;

    #[test]
    fn report_has_all_phase_keys() {
        let p = Profile::enabled();
        p.record_phase(0, Phase::DiskWrite, 600);
        p.record_phase(0, Phase::Metadata, 400);
        p.record_collective(CollKind::Barrier, 0, 50);
        let report = p.snapshot().to_json(1000);
        let phases = report.get("phases").unwrap();
        for ph in Phase::ALL {
            assert!(phases.get(ph.name()).is_some(), "missing {}", ph.name());
        }
        assert_eq!(report.get("coverage").and_then(Json::as_f64), Some(1.0));
        assert!(report
            .get("collectives")
            .and_then(|c| c.get("barrier"))
            .is_some());
    }

    #[test]
    fn bytepath_section_reports_hit_rate() {
        let p = Profile::enabled();
        p.record_bytepath(|b| {
            b.flatten_hits += 3;
            b.flatten_misses += 1;
            b.fused_pack_bytes += 512;
            b.copies_elided += 1;
            b.borrowed_bytes += 512;
        });
        let report = p.snapshot().to_json(0);
        let bp = report.get("bytepath").unwrap();
        assert_eq!(bp.get("flatten_hits").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            bp.get("flatten_hit_rate").and_then(Json::as_f64),
            Some(0.75)
        );
        assert_eq!(
            bp.get("fused_pack_bytes").and_then(Json::as_f64),
            Some(512.0)
        );
        assert_eq!(bp.get("copies_elided").and_then(Json::as_f64), Some(1.0));
    }

    /// `a.b[0].c` lookup.
    fn at<'a>(report: &'a Json, path: &str) -> Option<&'a Json> {
        path.split('.').try_fold(report, |node, step| {
            let (key, index) = match step.split_once('[') {
                Some((key, rest)) => (key, rest.trim_end_matches(']').parse::<usize>().ok()),
                None => (step, None),
            };
            match (node.get(key)?, index) {
                (Json::Arr(items), Some(i)) => items.get(i),
                (child, None) => Some(child),
                _ => None,
            }
        })
    }

    /// The report keys `perf_bench` reads by name (`perf_bench/README.md`,
    /// "The pinned surface"). Nothing under `perf_bench/` may change with
    /// the product, so a renamed key must fail here, not in a benchmark run.
    #[test]
    fn report_keeps_the_keys_perf_bench_reads() {
        let p = Profile::enabled();
        p.record_phase(0, Phase::DiskWrite, 600);
        p.record_io_stages(0, 4096, false, true, 64, Default::default());
        p.record_io_stages(0, 512, true, false, 0, Default::default());
        let report = p.snapshot().to_json(1000);
        let mut pinned: Vec<String> = ["coverage", "attributed_s", "sim_total_s"]
            .map(String::from)
            .to_vec();
        let mut pin = |prefix: &str, keys: &[&str]| {
            pinned.extend(keys.iter().map(|k| format!("{prefix}{k}")));
        };
        for ph in Phase::ALL {
            pin("phases.", &[&format!("{}.sim_s", ph.name())]);
        }
        pin(
            "servers[0].",
            &[
                "requests",
                "seeks",
                "max_queue_depth",
                "disk_busy_s",
                "nic_busy_s",
                "queue_stall_s",
                "overlap_s",
                "bytes_written",
                "bytes_read",
            ],
        );
        pin("request_sizes.", &["io_write.<=2^12", "io_read.<=2^9"]);
        for direction in ["sieve.read.", "sieve.write."] {
            pin(direction, &["transferred_bytes", "useful_bytes"]);
        }
        pin(
            "twophase.",
            &["windows", "rounds", "cb_nodes", "exchange_wire_bytes"],
        );
        pin(
            "cache.",
            &[
                "hit_rate",
                "evictions",
                "write_behind_bytes",
                "readahead_hits",
                "readahead_issued",
            ],
        );
        pin("bytepath.", &["flatten_hit_rate"]);
        for path in pinned {
            let value = at(&report, &path).and_then(Json::as_f64);
            assert!(value.is_some(), "report lost the number at {path}");
        }
    }

    #[test]
    fn derived_ratios_follow_their_counters() {
        let p = Profile::enabled();
        p.record_cache(|c| {
            c.hits = 1;
            c.misses = 3;
        });
        p.record_sieve(true, 28, 16);
        let report = p.snapshot().to_json(0);
        let ratio = |path| at(&report, path).and_then(Json::as_f64);
        assert_eq!(ratio("cache.hit_rate"), Some(0.25));
        assert_eq!(ratio("sieve.read.amplification"), Some(1.75));
        assert_eq!(
            ratio("sieve.write.amplification"),
            Some(1.0),
            "nothing sieved"
        );
        assert_eq!(
            ratio("bytepath.flatten_hit_rate"),
            Some(0.0),
            "nothing flattened"
        );
    }

    #[test]
    fn extras_are_spliced_into_report() {
        let p = Profile::enabled();
        p.attach_extra("dataset", Json::obj().with("put_size", Json::from(42u64)));
        let report = p.snapshot().to_json(0);
        assert_eq!(
            report
                .get("dataset")
                .and_then(|d| d.get("put_size"))
                .and_then(Json::as_f64),
            Some(42.0)
        );
    }
}
