//! Structural invariants of the event-tracing subsystem: spans are
//! well-formed, per-rank PHASE timelines are monotonic, ServiceEngine disk
//! spans nest inside their queue-residency containers, and trace ids
//! survive the core → mpio → pfs crossings (including the rendezvous
//! hop, where thread-locals cannot carry them and the id rides the loan).

use std::collections::{HashMap, HashSet};

use hpc_sim::trace::events::layer;
use hpc_sim::{SimConfig, Span, TraceSnapshot};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 4;
const PER_RANK: u64 = 300;
const CHUNKS: u64 = 3;

/// Run the nonblocking FLASH-like workload (several iputs merged by one
/// `wait_all`, then a collective read back) with the span recorder on, and
/// return the recorded spans.
fn traced_run() -> TraceSnapshot {
    let cfg = SimConfig::test_small();
    cfg.events.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // Small cb_buffer forces several pipelined rounds per window.
    let info = Info::new()
        .with("cb_buffer_size", "512")
        .with("pnc_cb_pipeline", "enable");
    run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds = Dataset::create(comm, &pfs, "t.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let chunk = PER_RANK / CHUNKS;
        for i in 0..CHUNKS {
            let start = r * PER_RANK + i * chunk;
            let count = if i == CHUNKS - 1 {
                PER_RANK - i * chunk
            } else {
                chunk
            };
            let vals: Vec<f32> = (0..count).map(|j| (start + j) as f32).collect();
            ds.iput_vara(v, &[start], &[count], &vals).unwrap();
        }
        ds.wait_all().unwrap();
        let peer = ((r + 1) % NPROCS as u64) * PER_RANK;
        let req = ds.iget_vara(v, &[peer], &[PER_RANK]).unwrap();
        ds.wait_all().unwrap();
        let _: Vec<f32> = ds.take_result(req).unwrap();
        ds.close().unwrap();
    });
    cfg.events.snapshot()
}

/// Index nonzero span ids; ids are unique across the whole trace.
fn by_id(spans: &[Span]) -> HashMap<u64, &Span> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.id != 0) {
        assert!(
            out.insert(s.id, s).is_none(),
            "span id {} issued twice",
            s.id
        );
    }
    out
}

#[test]
fn spans_are_balanced_and_ranks_monotonic() {
    let snap = traced_run();
    assert!(!snap.spans.is_empty(), "traced run must record spans");
    // Every begin has a matching end: spans are recorded complete, and no
    // span may end before it begins.
    for s in &snap.spans {
        assert!(
            s.begin <= s.end,
            "span {} on rank {} ends ({}) before it begins ({})",
            s.name,
            s.rank,
            s.end,
            s.begin
        );
        assert!(s.rank < NPROCS, "span rank {} out of range", s.rank);
    }
    by_id(&snap.spans); // id uniqueness
                        // Per-rank PHASE timelines advance monotonically in recording order:
                        // a rank's virtual clock never runs backwards.
    for r in 0..NPROCS {
        let mut last = 0u64;
        for s in snap
            .spans
            .iter()
            .filter(|s| s.rank == r && s.layer == layer::PHASE)
        {
            assert!(
                s.begin >= last,
                "rank {r} PHASE span {} begins at {} after a span beginning at {last}",
                s.name,
                s.begin
            );
            last = s.begin;
        }
    }
}

#[test]
fn disk_spans_nest_inside_queue_containers() {
    let snap = traced_run();
    let ids = by_id(&snap.spans);
    let disks: Vec<&Span> = snap.spans.iter().filter(|s| s.name == "srv_disk").collect();
    assert!(
        !disks.is_empty(),
        "the run must reach the server disk stage"
    );
    for d in disks {
        let c = ids
            .get(&d.parent)
            .unwrap_or_else(|| panic!("srv_disk span has no parent container ({})", d.parent));
        assert!(
            c.name == "srv_read" || c.name == "srv_write",
            "srv_disk parent is {}, not a queue-residency container",
            c.name
        );
        assert!(
            c.begin <= d.begin && d.end <= c.end,
            "disk span [{}, {}] escapes its queue container [{}, {}]",
            d.begin,
            d.end,
            c.begin,
            c.end
        );
    }
    // The NIC stage nests the same way.
    for n in snap.spans.iter().filter(|s| s.name == "srv_nic") {
        let c = ids[&n.parent];
        assert!(c.begin <= n.begin && n.end <= c.end);
    }
}

#[test]
fn trace_ids_survive_core_mpio_pfs_crossing() {
    let snap = traced_run();
    let spans = &snap.spans;
    // Core: the merged flushes and the queued requests linked to them.
    let flush_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "flush_put" || s.name == "flush_get")
        .map(|s| s.id)
        .collect();
    assert!(!flush_ids.is_empty(), "wait_all must record flush spans");
    assert!(
        spans
            .iter()
            .any(|s| s.name == "iput" && flush_ids.contains(&s.parent)),
        "queued iputs must link to the flush that carried them"
    );
    // Core → mpio: the per-rank collective spans parent to the flush ids,
    // which crossed the rendezvous as the tag of each rank's lent request.
    let coll_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| {
            (s.name == "coll_write" || s.name == "coll_read") && flush_ids.contains(&s.parent)
        })
        .map(|s| s.id)
        .collect();
    assert!(
        !coll_ids.is_empty(),
        "coll spans must parent to core flush ids across the rendezvous hop"
    );
    // mpio: two-phase windows under the collective spans.
    let win_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "window" && coll_ids.contains(&s.parent))
        .map(|s| s.id)
        .collect();
    assert!(!win_ids.is_empty(), "windows must parent to coll spans");
    // mpio → pfs: server containers under the windows, disk under those.
    let srv_ids: HashSet<u64> = spans
        .iter()
        .filter(|s| (s.name == "srv_write" || s.name == "srv_read") && win_ids.contains(&s.parent))
        .map(|s| s.id)
        .collect();
    assert!(
        !srv_ids.is_empty(),
        "server containers must parent to window ids"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.name == "srv_disk" && srv_ids.contains(&s.parent)),
        "a disk stage span must complete the iput → disk chain"
    );
}

#[test]
fn chrome_export_is_wellformed() {
    let snap = traced_run();
    let chrome = snap.to_chrome();
    let events = match chrome.get("traceEvents") {
        Some(hpc_sim::trace::Json::Arr(evs)) => evs,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let mut durations = 0usize;
    for e in events {
        match e.get("ph").and_then(|p| match p {
            hpc_sim::trace::Json::Str(s) => Some(s.clone()),
            _ => None,
        }) {
            Some(ph) if ph == "X" => {
                let dur = e.get("dur").and_then(hpc_sim::trace::Json::as_f64).unwrap();
                assert!(dur >= 0.0, "negative duration in Chrome export");
                durations += 1;
            }
            Some(ph) => assert!(
                ph == "M" || ph == "s" || ph == "f",
                "unexpected event phase {ph}"
            ),
            None => panic!("event without ph"),
        }
    }
    assert!(durations > 0, "export must carry complete spans");
}

#[test]
fn tracing_off_records_nothing() {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // The recorder is off unless switched on: it must stay empty.
    let info = Info::new().with("cb_buffer_size", "512");
    run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds = Dataset::create(comm, &pfs, "t.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * 8).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let vals: Vec<f32> = (0..8).map(|j| j as f32).collect();
        ds.iput_vara(v, &[r * 8], &[8], &vals).unwrap();
        ds.wait_all().unwrap();
        ds.close().unwrap();
    });
    assert!(
        cfg.events.snapshot().spans.is_empty(),
        "tracing off must record no spans"
    );
}
