//! Turning a [`ProfileSnapshot`] into the structured JSON report.

use crate::json::Json;
use crate::phase::{CollKind, Phase};
use crate::profile::{ProfileSnapshot, HIST_BUCKETS};

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

        let mut servers = Vec::new();
        for (id, s) in self.servers.iter().enumerate() {
            servers.push(
                Json::obj()
                    .with("server", Json::from(id))
                    .with("requests", Json::from(s.requests))
                    .with("bytes_read", Json::from(s.bytes_read))
                    .with("bytes_written", Json::from(s.bytes_written))
                    .with("seeks", Json::from(s.seeks))
                    .with("seek_distance", Json::from(s.seek_distance))
                    .with("nic_busy_s", Json::from(nanos_to_s(s.nic_busy_nanos)))
                    .with("disk_busy_s", Json::from(nanos_to_s(s.disk_busy_nanos)))
                    .with("overlap_s", Json::from(nanos_to_s(s.overlap_nanos)))
                    .with("queue_stall_s", Json::from(nanos_to_s(s.queue_stall_nanos)))
                    .with(
                        "cross_file_stall_s",
                        Json::from(nanos_to_s(s.cross_file_stall_nanos)),
                    )
                    .with("max_queue_depth", Json::from(s.max_queue_depth)),
            );
        }

        let sieve = Json::obj()
            .with(
                "read",
                sieve_json(self.sieve_read.transferred, self.sieve_read.useful),
            )
            .with(
                "write",
                sieve_json(self.sieve_write.transferred, self.sieve_write.useful),
            );

        let tp = &self.twophase;
        let twophase = Json::obj()
            .with("collective_writes", Json::from(tp.collective_writes))
            .with("collective_reads", Json::from(tp.collective_reads))
            .with("cb_nodes", Json::from(tp.cb_nodes))
            .with("file_domains", Json::from(tp.file_domains))
            .with("windows", Json::from(tp.windows))
            .with("rmw_windows", Json::from(tp.rmw_windows))
            .with("exchange_wire_bytes", Json::from(tp.exchange_wire_bytes))
            .with("rounds", Json::from(tp.pipelined_rounds))
            .with("overlap_saved_ns", Json::from(tp.overlap_saved_nanos));

        let fc = &self.faults;
        let faults = Json::obj()
            .with("faults_injected", Json::from(fc.faults_injected))
            .with("transient", Json::from(fc.transient))
            .with("short", Json::from(fc.short))
            .with("stalls", Json::from(fc.stalls))
            .with("crashed", Json::from(fc.crashed))
            .with("retries", Json::from(fc.retries))
            .with("backoff_time", Json::from(nanos_to_s(fc.backoff_nanos)))
            .with("short_completions", Json::from(fc.short_completions))
            .with("exhausted", Json::from(fc.exhausted))
            .with("agreed_errors", Json::from(fc.agreed_errors));

        let fo = &self.failover;
        let failover = Json::obj()
            .with("degraded_reads", Json::from(fo.degraded_reads))
            .with("reconstructed_bytes", Json::from(fo.reconstructed_bytes))
            .with("redirected_writes", Json::from(fo.redirected_writes))
            .with("redirected_bytes", Json::from(fo.redirected_bytes))
            .with("parity_updates", Json::from(fo.parity_updates))
            .with("parity_bytes", Json::from(fo.parity_bytes))
            .with("epochs", Json::from(fo.epochs))
            .with("rebuilds", Json::from(fo.rebuilds))
            .with("rebuilt_bytes", Json::from(fo.rebuilt_bytes))
            .with("rebuild_time", Json::from(nanos_to_s(fo.rebuild_nanos)));

        let cc = &self.cache;
        let cache = Json::obj()
            .with("hits", Json::from(cc.hits))
            .with("hit_bytes", Json::from(cc.hit_bytes))
            .with("misses", Json::from(cc.misses))
            .with(
                "hit_rate",
                Json::from(if cc.hits + cc.misses > 0 {
                    cc.hits as f64 / (cc.hits + cc.misses) as f64
                } else {
                    0.0
                }),
            )
            .with("evictions", Json::from(cc.evictions))
            .with("write_behind_flushes", Json::from(cc.write_behind_flushes))
            .with("write_behind_bytes", Json::from(cc.write_behind_bytes))
            .with("readahead_issued", Json::from(cc.readahead_issued))
            .with("readahead_hits", Json::from(cc.readahead_hits))
            .with("invalidations", Json::from(cc.invalidations));

        let bp = &self.bytepath;
        let bytepath = Json::obj()
            .with("flatten_hits", Json::from(bp.flatten_hits))
            .with("flatten_misses", Json::from(bp.flatten_misses))
            .with(
                "flatten_hit_rate",
                Json::from(if bp.flatten_hits + bp.flatten_misses > 0 {
                    bp.flatten_hits as f64 / (bp.flatten_hits + bp.flatten_misses) as f64
                } else {
                    0.0
                }),
            )
            .with("fused_pack_bytes", Json::from(bp.fused_pack_bytes))
            .with("fused_unpack_bytes", Json::from(bp.fused_unpack_bytes))
            .with("copies_elided", Json::from(bp.copies_elided))
            .with("borrowed_bytes", Json::from(bp.borrowed_bytes))
            .with(
                "exchange_borrowed_bytes",
                Json::from(bp.exchange_borrowed_bytes),
            )
            .with("collbuf_reuses", Json::from(bp.collbuf_reuses));

        let attributed = self.rank_total(critical);
        let mut report = Json::obj()
            .with("sim_total_s", Json::from(nanos_to_s(sim_total_nanos)))
            .with("attributed_s", Json::from(nanos_to_s(attributed)))
            .with(
                "coverage",
                Json::from(if sim_total_nanos > 0 {
                    attributed as f64 / sim_total_nanos as f64
                } else {
                    1.0
                }),
            )
            .with("critical_rank", Json::from(critical))
            .with("nranks", Json::from(self.phase_nanos.len()))
            .with("phases", phases)
            .with("per_rank", Json::Arr(per_rank))
            .with("collectives", collectives)
            .with("request_sizes", self.histograms_json())
            .with("servers", Json::Arr(servers))
            .with("hints_rejected", Json::from(self.hints_rejected))
            .with("sieve", sieve)
            .with("twophase", twophase)
            .with("faults", faults)
            .with("failover", failover)
            .with("cache", cache)
            .with("bytepath", bytepath);
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

fn sieve_json(transferred: u64, useful: u64) -> Json {
    Json::obj()
        .with("transferred_bytes", Json::from(transferred))
        .with("useful_bytes", Json::from(useful))
        .with(
            "amplification",
            Json::from(if useful > 0 {
                transferred as f64 / useful as f64
            } else {
                1.0
            }),
        )
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
