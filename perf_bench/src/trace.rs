//! The traced child: per-layer metrics, measured from outside.
//!
//! One process replays the workload at every layer (L0 with the library's
//! tracing off, on as a profile, on as spans; L1; L2 storing bytes and
//! not), round after round so that every difference is taken between
//! neighbours in time, then runs the layer probes. End-to-end numbers
//! never come from here: they come from the untraced run.

use std::time::Instant;

use hpc_sim::trace::Json;
use pnetcdf::Info;
use pnetcdf_pfs::StorageMode;

use crate::alloc;
use crate::child::{Budget, MemcpyProbe};
use crate::driver::{drift_pct, out_dir};
use crate::probes;
use crate::replay::{self, L2Plan, Plan};
use crate::report::Report;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;
use crate::workload::{self, Inputs, Outcome, Spec, Tracing, Workload};

const PROFILE: Tracing = Tracing {
    profile: true,
    events: false,
};
const EVENTS: Tracing = Tracing {
    profile: false,
    events: true,
};

/// What the process spent on one replay, beside its own clocks.
struct Cost {
    alloc_bytes: u64,
    alloc_calls: u64,
    cpu_s: f64,
    minflt: u64,
}

fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (a0, p0) = (alloc::snapshot(), sys::proc_stat());
    let out = f();
    let (a1, p1) = (alloc::snapshot(), sys::proc_stat());
    let (alloc_bytes, alloc_calls) = a1.since(&a0);
    let cost = Cost {
        alloc_bytes,
        alloc_calls,
        cpu_s: p1.cpu_s - p0.cpu_s,
        minflt: p1.minflt - p0.minflt,
    };
    (out, cost)
}

/// Record one replay's phase times and costs under `tag`.
fn record(rep: &mut Report, tag: &str, out: &Outcome, cost: &Cost) {
    out.tally(rep);
    if out.failed > 0 {
        return;
    }
    rep.sample(&format!("{tag}.write_s"), out.times.host_write_s);
    rep.sample(&format!("{tag}.read_s"), out.times.host_read_s);
    rep.sample(&format!("{tag}.iter_s"), out.times.host_iter_s);
    rep.sample(&format!("{tag}.alloc_bytes"), cost.alloc_bytes as f64);
    rep.sample(&format!("{tag}.alloc_calls"), cost.alloc_calls as f64);
    rep.sample(&format!("{tag}.cpu_s"), cost.cpu_s);
    rep.sample(&format!("{tag}.minflt"), cost.minflt as f64);
}

fn num(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Virtual-time splits and counts, read from the library's own profile
/// report of one L0 iteration.
fn profile_metrics(rep: &mut Report, p: &Json) {
    let phase = |name: &str| num(p, &["phases", name, "sim_s"]);
    let ratio = |hits: f64, all: f64| if all > 0.0 { hits / all } else { 0.0 };
    let servers = |key: &str| replay::server_values(p, key).iter().sum::<f64>();
    let sieve = |dir: &str| {
        num(p, &["sieve", dir, "transferred_bytes"]) - num(p, &["sieve", dir, "useful_bytes"])
    };
    let rows = [
        ("core.sim_compute_s", phase("compute")),
        ("mpi.sim_wait_s", phase("wait")),
        ("mpi.sim_metadata_s", phase("metadata")),
        (
            "mpio.sim_exchange_s",
            phase("exchange_offsets") + phase("exchange_data"),
        ),
        ("mpio.sim_collbuf_pack_s", phase("collbuf_pack")),
        ("mpio.sim_cache_s", phase("cache")),
        ("pfs.sim_disk_write_s", phase("disk_write")),
        ("pfs.sim_disk_read_s", phase("disk_read")),
        ("mpio.twophase_windows", num(p, &["twophase", "windows"])),
        ("mpio.twophase_rounds", num(p, &["twophase", "rounds"])),
        ("mpio.cb_nodes", num(p, &["twophase", "cb_nodes"])),
        (
            "mpio.exchange_wire_bytes",
            num(p, &["twophase", "exchange_wire_bytes"]),
        ),
        ("mpio.sieve_wasted_bytes", sieve("read") + sieve("write")),
        (
            "mpio.flatten_hit_ratio",
            num(p, &["bytepath", "flatten_hit_rate"]),
        ),
        ("mpio.cache_hit_ratio", num(p, &["cache", "hit_rate"])),
        ("mpio.cache_evictions", num(p, &["cache", "evictions"])),
        (
            "mpio.cache_write_behind_bytes",
            num(p, &["cache", "write_behind_bytes"]),
        ),
        (
            "mpio.cache_readahead_hit_ratio",
            ratio(
                num(p, &["cache", "readahead_hits"]),
                num(p, &["cache", "readahead_issued"]),
            ),
        ),
        // Summed over the servers: total service time is conserved when
        // a change only moves load from one server to another.
        ("pfs.server_requests", servers("requests")),
        ("pfs.seeks", servers("seeks")),
        (
            "pfs.max_queue_depth",
            replay::server_values(p, "max_queue_depth")
                .into_iter()
                .fold(0.0, f64::max),
        ),
        ("pfs.sim_disk_busy_s", servers("disk_busy_s")),
        ("pfs.sim_nic_busy_s", servers("nic_busy_s")),
        ("pfs.sim_queue_stall_s", servers("queue_stall_s")),
        ("pfs.sim_overlap_s", servers("overlap_s")),
    ];
    for (name, v) in rows {
        rep.value(name, v);
    }
    // The library's invariant: the critical rank's phases explain the
    // makespan, all of it.
    let covered = num(p, &["coverage"]) == 1.0
        && num(p, &["attributed_s"]).to_bits() == num(p, &["sim_total_s"]).to_bits();
    rep.ops(
        1,
        u64::from(!covered),
        "profile coverage != 1.0: sim phases do not sum to the makespan",
    );
}

/// Run the workload traced and return the per-layer metrics.
pub fn run(spec: &Spec, seed: u64, budget: Budget, quick: bool) -> Report {
    let started = Instant::now();
    let mut rep = Report::default();
    let w = spec.workload;
    let inputs = Inputs::generate(spec, seed);
    let mut spans = Recorder::new();

    // The reference iteration: its files are what every replay must
    // reproduce, its virtual times what no tracing may move.
    let reference = workload::run_iteration(spec, &inputs, Tracing::default());
    reference.tally(&mut rep);
    let plan = match Plan::build(spec, &reference.pfs) {
        Ok(plan) if reference.failed == 0 => plan,
        other => {
            rep.ops(
                1,
                1,
                &other.err().unwrap_or("reference iteration failed".into()),
            );
            return rep;
        }
    };
    let (a, f) = workload::verify_iteration(spec, &inputs, &reference, 0);
    rep.ops(a, f, "read-back differs from what was written");
    let sim_ref = (reference.times.sim_write_ns, reference.times.sim_read_ns);
    drop(reference);

    // One checked L1 run with the profile on: its file must equal L0's,
    // and its request-size histogram shapes the L2 replay.
    let info = w.info();
    let l1 = replay::run_l1(&plan, &info, PROFILE, true);
    l1.tally(&mut rep);
    let same = replay::same_files(&plan, &l1.pfs);
    rep.ops(
        1,
        u64::from(!same),
        "the L1 replay's file differs from L0's",
    );
    let l1_profile = l1.cfg.profile.snapshot().to_json(l1.times.makespan_ns);
    drop(l1);
    let l2plan = L2Plan::build(&plan, &l1_profile);
    let l2 = replay::run_l2(&plan, &l2plan, StorageMode::Full);
    let same = replay::same_files(&plan, &l2.pfs);
    rep.ops(
        1,
        u64::from(!same),
        "the L2 replay's file differs from L0's",
    );
    drop(l2);

    let mut probe = MemcpyProbe::new();
    let round_budget = match budget {
        // Leave a fifth of the time for the probes.
        Budget::Seconds(s) => Budget::Seconds(s * 0.8),
        iters => iters,
    };
    let mut round = 0;
    while !(round_budget.done(round, started) || quick && round == 1) {
        rep.sample("host.memcpy_gb_s", probe.sample());

        // L0 three times: the library's tracing off, on as a profile, on
        // as spans. Only the profile is allowed to move `sim_*` (below).
        for (tag, tracing) in [
            ("l0", Tracing::default()),
            ("l0p", PROFILE),
            ("l0e", EVENTS),
        ] {
            let (out, cost) = costed(|| workload::run_iteration(spec, &inputs, tracing));
            record(&mut rep, tag, &out, &cost);
            let sim = (out.times.sim_write_ns, out.times.sim_read_ns);
            if tracing != PROFILE {
                rep.ops(
                    1,
                    u64::from(sim != sim_ref),
                    &format!("sim_* moved ({tag})"),
                );
            }
            if tracing == Tracing::default() {
                spans.add_replay("L0", round, out.whole, &out.ranks);
            }
            if round > 0 || out.failed > 0 {
                continue;
            }
            if tracing == PROFILE {
                let p = out.cfg.profile.snapshot().to_json(out.times.makespan_ns);
                profile_metrics(&mut rep, &p);
                // With the profile on, `close` adds an allreduce to roll the
                // per-variable counters up, and that costs virtual time
                // where a close falls inside a phase (FLASH). Reported, not
                // failed: it is what the library does today.
                let shift = (sim.0 + sim.1) as f64 / (sim_ref.0 + sim_ref.1) as f64 - 1.0;
                rep.value("trace.profile_sim_shift_pct", shift * 100.0);
            } else if tracing == EVENTS {
                let snap = out.cfg.events.snapshot();
                let recorded = snap.spans.len() as u64 + snap.dropped;
                rep.value("trace.spans_recorded", recorded as f64);
            }
        }

        let (out, cost) = costed(|| replay::run_l1(&plan, &info, Tracing::default(), false));
        record(&mut rep, "l1", &out, &cost);
        spans.add_replay("L1", round, out.whole, &out.ranks);
        drop(out);

        if w == Workload::IndepRowsCached {
            // The same calls with the cache off: what the cache adds.
            let (out, cost) =
                costed(|| replay::run_l1(&plan, &Info::new(), Tracing::default(), false));
            record(&mut rep, "l1u", &out, &cost);
        }

        for (tag, layer, mode) in [
            ("l2f", "L2.full", StorageMode::Full),
            ("l2c", "L2.costonly", StorageMode::CostOnly),
        ] {
            let t0 = Instant::now();
            let (out, cost) = costed(|| replay::run_l2(&plan, &l2plan, mode));
            let secs = |(start, end): (Instant, Instant)| (end - start).as_secs_f64();
            rep.sample(&format!("{tag}.write_s"), secs(out.write));
            rep.sample(&format!("{tag}.read_s"), secs(out.read));
            rep.sample(&format!("{tag}.alloc_bytes"), cost.alloc_bytes as f64);
            let top = spans.add(layer, None, round, None, (t0, Instant::now()));
            spans.add(&format!("{layer}.write"), Some(top), round, None, out.write);
            spans.add(&format!("{layer}.read"), Some(top), round, None, out.read);
        }
        round += 1;
    }

    layer_metrics(&mut rep, spec, &plan, &l2plan);
    probes::run(&mut rep, spec, &inputs, &plan, if quick { 1 } else { 5 });

    let path = out_dir().join(format!("{}.spans.json", w.name()));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans.to_json().pretty()));
    if let Err(e) = written {
        rep.ops(1, 1, &format!("write {path:?}: {e}"));
    }
    rep
}

/// The host split: differences of the replays' medians.
fn layer_metrics(rep: &mut Report, spec: &Spec, plan: &Plan, l2: &L2Plan) {
    let med = |rep: &Report, name: &str| median(rep.series(name));
    let (wbytes, rbytes) = workload::payload_bytes(spec);
    let payload = (wbytes + rbytes) as f64;
    let ranks = spec.workload.ranks() as f64;

    for dir in ["write", "read"] {
        let l0 = med(rep, &format!("l0.{dir}_s"));
        let l1 = med(rep, &format!("l1.{dir}_s"));
        let l2f = med(rep, &format!("l2f.{dir}_s"));
        rep.value(&format!("core.{dir}_self_s"), l0 - l1);
        rep.value(&format!("mpio.{dir}_incl_s"), l1);
        rep.value(&format!("mpio.{dir}_self_s"), l1 - l2f);
        rep.value(&format!("pfs.{dir}_incl_s"), l2f);
        for (from, to) in [("l1", "mpio"), ("l2f", "pfs")] {
            let samples = rep.series(&format!("{from}.{dir}_s")).to_vec();
            rep.samples.insert(format!("{to}.{dir}_incl_s"), samples);
        }
    }
    let (a0, a1, a2) = (
        med(rep, "l0.alloc_bytes"),
        med(rep, "l1.alloc_bytes"),
        med(rep, "l2f.alloc_bytes"),
    );
    rep.value("core.alloc_bytes_per_byte", (a0 - a1) / payload);
    rep.value("mpio.alloc_bytes_per_byte", (a1 - a2) / payload);
    let calls = med(rep, "l0.alloc_calls") - med(rep, "l1.alloc_calls");
    rep.value("core.allocs_per_req", calls / plan.requests as f64);

    // Byte storage is what `Full` does and `CostOnly` does not.
    let store_s = med(rep, "l2f.write_s") - med(rep, "l2c.write_s");
    let l2_wbytes: u64 = l2.writes.iter().map(|r| r.2).sum();
    let l2_rbytes: u64 = l2.reads.iter().map(|r| r.2).sum();
    let positive = |v: f64| if v > 0.0 { v } else { 0.0 };
    rep.value("pfs.store_gb_s", positive(l2_wbytes as f64 / store_s / 1e9));
    rep.value(
        "pfs.store_ns_per_req",
        store_s * 1e9 / l2.writes.len().max(1) as f64,
    );
    let model_s = med(rep, "l2c.write_s") + med(rep, "l2c.read_s");
    let reqs = (l2.writes.len() + l2.reads.len()).max(1) as f64;
    rep.value("sim.model_ns_per_req", model_s * 1e9 / reqs);
    rep.value(
        "sim.model_ns_per_mb",
        model_s * 1e9 / ((l2_wbytes + l2_rbytes).max(1) as f64 / 1e6),
    );

    let cache_ns = if spec.workload == Workload::IndepRowsCached {
        let with = med(rep, "l1.write_s") + med(rep, "l1.read_s");
        let without = med(rep, "l1u.write_s") + med(rep, "l1u.read_s");
        (with - without) * 1e9 / plan.requests as f64
    } else {
        0.0
    };
    rep.value("mpio.cache_ns_per_req", cache_ns);

    let l0 = med(rep, "l0.iter_s");
    rep.value("host.l0_iter_s", l0);
    rep.samples
        .insert("host.l0_iter_s".into(), rep.series("l0.iter_s").to_vec());
    rep.value(
        "trace.profile_overhead_pct",
        (med(rep, "l0p.iter_s") / l0 - 1.0) * 100.0,
    );
    rep.value(
        "trace.events_overhead_pct",
        (med(rep, "l0e.iter_s") / l0 - 1.0) * 100.0,
    );
    let sum = |rep: &Report, name: &str| rep.series(name).iter().sum::<f64>();
    rep.value(
        "mpi.cpu_util",
        sum(rep, "l0.cpu_s") / (sum(rep, "l0.iter_s") * ranks),
    );
    let iters = rep.series("l0.minflt").len() as f64;
    rep.value(
        "host.page_faults_per_mb",
        sum(rep, "l0.minflt") / (iters * payload / 1e6),
    );
    rep.value("host.memcpy_gb_s", med(rep, "host.memcpy_gb_s"));
    // Overwritten by the parent with an untraced child's, except in
    // `--quick`, which spawns none.
    rep.value("host.peak_rss_mb", sys::peak_rss_mib());
    rep.value(
        "host.memcpy_drift_pct",
        drift_pct(rep.series("host.memcpy_gb_s")),
    );
}
