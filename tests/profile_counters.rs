//! Multi-rank assertions on the `pnetcdf-trace` observability layer: the
//! two-phase engine counts exactly one collective write with the expected
//! aggregator disk requests, both access modes report identical
//! `put_size` for byte-identical output, and `close` rolls the per-rank
//! dataset counters up into the shared trace profile.

use hpc_sim::trace::Json;
use hpc_sim::{FaultPlan, SimConfig};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 4;
/// One stripe of `SimConfig::test_small` per rank, in f32 elements.
const PER_RANK: u64 = 256;

/// Align the data section to the stripe size so the collective write's
/// file domains land exactly on stripe (= server) boundaries, making the
/// expected request counts derivable by hand.
fn aligned_info() -> Info {
    Info::new().with("nc_header_align_size", "1024")
}

#[test]
fn collective_write_counts_one_collective_and_expected_aggregator_io() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::CostOnly);
    run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds =
            Dataset::create(comm, &pfs, "prof.nc", Version::Cdf1, &aligned_info()).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        assert_eq!(
            ds.layout().data_start % 1024,
            0,
            "test premise: data section starts on a stripe boundary"
        );
        // Drop the creation/enddef traffic so the counters below describe
        // the one collective data write alone. The barriers put every rank
        // at the same point; the reset happens before any rank can record
        // post-barrier work because the second rendezvous waits for rank 0.
        comm.barrier().unwrap();
        if comm.rank() == 0 {
            comm.config().profile.reset();
        }
        comm.barrier().unwrap();

        let r = comm.rank() as u64;
        let vals = vec![r as f32; PER_RANK as usize];
        ds.put_vara_all(v, &[r * PER_RANK], &[PER_RANK], &vals)
            .unwrap();
        assert_eq!(ds.inq_put_size(), PER_RANK * 4);
    });

    let snap = cfg.profile.snapshot();
    // Exactly one collective write round.
    assert_eq!(snap.twophase.collective_writes, 1);
    assert_eq!(snap.twophase.collective_reads, 0);
    // Unhinted, the aggregators follow the servers, not the volume: 4 KiB
    // — under one collective buffer — still gets one aggregator per server
    // (recorded in the trace), each owning its server's one fully covered
    // stripe as one window — no read-modify-write.
    assert_eq!(snap.twophase.cb_nodes, 4);
    assert_eq!(snap.twophase.file_domains, 4);
    assert_eq!(snap.twophase.windows, 4);
    assert_eq!(snap.twophase.rmw_windows, 0);
    // Each window is one request to its server: each of the 4 servers
    // services exactly one write request of one stripe.
    assert_eq!(snap.servers.len(), 4);
    for s in &snap.servers {
        assert_eq!(s.requests, 1);
        assert_eq!(s.bytes_written, 1024);
        assert_eq!(s.bytes_read, 0);
    }
    // The whole collective payload crossed the rendezvous on loan — no
    // parcel copy — and the four windows, having no holes, gather straight
    // from the lent payloads: none allocates the collective buffer, so
    // every one counts as a reuse.
    assert_eq!(
        snap.bytepath.exchange_borrowed_bytes,
        NPROCS as u64 * PER_RANK * 4
    );
    assert_eq!(snap.bytepath.collbuf_reuses, 4);
}

/// A write window whose spans have holes reads what is under them before
/// the pieces go over it, and reads every holed span of one server with one
/// request. Four ranks have one aggregator per server; rank 0 alone writes,
/// two runs with a gap between them in each of stripes 0, 4 and 8 — server
/// 0's — so server 0's aggregator has one window of three holed spans. That
/// costs server 0 one read-modify-write read and one write, not a read per
/// span, and no other server is touched.
#[test]
fn a_holed_write_window_reads_once_per_server() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    pfs.create("holed").import_bytes(&[0x5A; 9 * 1024]);
    let pfs_in = pfs.clone();
    run_world(NPROCS, cfg.clone(), move |comm| {
        let runs: Vec<Run> = match comm.rank() {
            0 => [0u64, 4, 8]
                .iter()
                .flat_map(|&s| [(s * 1024 + 100, 50), (s * 1024 + 200, 50)])
                .collect(),
            _ => Vec::new(),
        };
        let f = MpiFile::open(comm, &pfs_in, "holed", OpenMode::ReadWrite, &Info::new()).unwrap();
        f.write_runs_at_all(&runs, &vec![7u8; runs.len() * 50])
            .unwrap();
    });
    let snap = cfg.profile.snapshot();
    assert_eq!((snap.twophase.windows, snap.twophase.rmw_windows), (1, 1));
    let reads: u64 = snap.io_read_hist.iter().sum();
    assert_eq!(reads, 1, "one read for the window's three holed spans");
    assert_eq!(snap.servers[0].requests, 2, "one read and one write");
    assert_eq!(snap.servers[0].bytes_read, 3 * 150);
    assert!(snap.servers[1..].iter().all(|s| s.requests == 0));
    let mut back = [0u8; 250];
    pfs.open("holed").unwrap().peek_at(8 * 1024, &mut back);
    assert_eq!(back[100..150], [7u8; 50]);
    assert_eq!(back[150..200], [0x5A; 50], "the hole keeps the old bytes");
}

/// A collective that needs several windows allocates no collective buffer
/// when no window has holes: every window, on the write and on the read
/// side, counts as a reuse, and both directions count their payload as
/// lent.
#[test]
fn multi_window_collectives_reuse_one_collective_buffer() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let info = aligned_info()
        .with("cb_buffer_size", "1024")
        .with("cb_nodes", "1");
    run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds = Dataset::create(comm, &pfs, "reuse.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        comm.barrier().unwrap();
        if comm.rank() == 0 {
            comm.config().profile.reset();
        }
        comm.barrier().unwrap();
        let r = comm.rank() as u64;
        let vals = vec![r as f32; PER_RANK as usize];
        ds.put_vara_all(v, &[r * PER_RANK], &[PER_RANK], &vals)
            .unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &[r * PER_RANK], &[PER_RANK]).unwrap();
        assert_eq!(back, vals);
    });
    let snap = cfg.profile.snapshot();
    assert_eq!(snap.twophase.collective_writes, 1);
    assert_eq!(snap.twophase.collective_reads, 1);
    // 4 KiB through 1 KiB windows: four windows each way, none with holes,
    // so the open file never allocates its buffer.
    assert_eq!(snap.twophase.windows, 8);
    assert_eq!(snap.twophase.rmw_windows, 0);
    assert_eq!(snap.bytepath.collbuf_reuses, 8);
    assert_eq!(
        snap.bytepath.exchange_borrowed_bytes,
        2 * NPROCS as u64 * PER_RANK * 4
    );
}

/// The same FLASH-style workload issued through blocking `put_vara_all`
/// and through `iput_vara` + `wait_all` must produce the same file bytes
/// AND report the same per-rank `put_size`.
#[test]
fn blocking_and_nonblocking_put_size_agree_on_identical_output() {
    let mut images = Vec::new();
    let mut put_sizes = Vec::new();
    for nonblocking in [false, true] {
        let cfg = SimConfig::test_small();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        let run = run_world(NPROCS, cfg, move |comm| {
            let mut ds =
                Dataset::create(comm, &pfs2, "id.nc", Version::Cdf1, &aligned_info()).unwrap();
            let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
            let a = ds.def_var("a", NcType::Float, &[d]).unwrap();
            let b = ds.def_var("b", NcType::Int, &[d]).unwrap();
            ds.enddef().unwrap();
            let r = comm.rank() as u64;
            let start = [r * PER_RANK];
            let count = [PER_RANK];
            let fa = vec![r as f32 + 0.5; PER_RANK as usize];
            let ib = vec![r as i32 - 7; PER_RANK as usize];
            if nonblocking {
                ds.iput_vara(a, &start, &count, &fa).unwrap();
                ds.iput_vara(b, &start, &count, &ib).unwrap();
                ds.wait_all().unwrap();
            } else {
                ds.put_vara_all(a, &start, &count, &fa).unwrap();
                ds.put_vara_all(b, &start, &count, &ib).unwrap();
            }
            let put_size = ds.inq_put_size();
            // Per-variable attribution: both variables carry 4-byte types.
            assert_eq!(ds.profile().var(a).total().put_bytes, PER_RANK * 4);
            assert_eq!(ds.profile().var(b).total().put_bytes, PER_RANK * 4);
            ds.close().unwrap();
            put_size
        });
        images.push(pfs.open("id.nc").unwrap().to_bytes());
        put_sizes.push(run.results);
    }
    assert_eq!(
        images[0], images[1],
        "blocking and nonblocking paths must write identical bytes"
    );
    assert_eq!(
        put_sizes[0], put_sizes[1],
        "identical output must report identical put_size"
    );
    assert_eq!(put_sizes[0], vec![2 * PER_RANK * 4; NPROCS]);
}

/// The pipelined round engine must keep the exact-attribution invariant:
/// with profiling on from the start, every rank's per-phase sums add up to
/// the whole makespan (coverage == 1.0), even though exchange and disk
/// phases overlap in the timeline.
#[test]
fn pipelined_rounds_keep_exact_phase_attribution() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // A 512-byte collective buffer halves each 1 KiB file domain: two
    // rounds per aggregator, so the pipeline genuinely overlaps.
    let info = aligned_info().with("cb_buffer_size", "512");
    let run = run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds = Dataset::create(comm, &pfs, "pipe.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let vals = vec![r as f32; PER_RANK as usize];
        ds.put_vara_all(v, &[r * PER_RANK], &[PER_RANK], &vals)
            .unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &[r * PER_RANK], &[PER_RANK]).unwrap();
        assert_eq!(back, vals);
        ds.close().unwrap();
    });

    let snap = cfg.profile.snapshot();
    assert!(
        snap.twophase.pipelined_rounds >= 2,
        "workload must span multiple rounds: {:?}",
        snap.twophase
    );
    // Every simulated nanosecond of every rank is attributed to a phase.
    let makespan = run.makespan.as_nanos();
    for rank in 0..NPROCS {
        assert_eq!(
            snap.rank_total(rank),
            makespan,
            "rank {rank} phase sums must equal the makespan exactly \
             (coverage == 1.0); per-phase: {:?}",
            snap.phase_nanos[rank]
        );
    }
}

/// Event tracing must be a pure observer: running the same workload with
/// the span recorder on and off (the seed behavior) produces identical
/// makespans, identical per-rank phase sums, and identical server byte
/// counts — span recording never touches a virtual clock, and switched off
/// the recorder stays completely empty.
#[test]
fn tracing_does_not_perturb_phase_sums_or_byte_counts() {
    let mut makespans = Vec::new();
    let mut snaps = Vec::new();
    for traced in [false, true] {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        cfg.events.set_enabled(traced);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        // Pipelined rounds, so the traced run exercises every span site.
        let info = aligned_info()
            .with("cb_buffer_size", "512")
            .with("pnc_cb_pipeline", "enable");
        let run = run_world(NPROCS, cfg.clone(), move |comm| {
            let mut ds = Dataset::create(comm, &pfs, "obs.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
            let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
            ds.enddef().unwrap();
            let r = comm.rank() as u64;
            let vals = vec![r as f32; PER_RANK as usize];
            ds.iput_vara(v, &[r * PER_RANK], &[PER_RANK], &vals)
                .unwrap();
            ds.wait_all().unwrap();
            let req = ds.iget_vara(v, &[r * PER_RANK], &[PER_RANK]).unwrap();
            ds.wait_all().unwrap();
            let back: Vec<f32> = ds.take_result(req).unwrap();
            assert_eq!(back, vals);
            ds.close().unwrap();
        });
        let spans = cfg.events.snapshot().spans.len();
        if traced {
            assert!(spans > 0, "traced run must record spans");
        } else {
            assert_eq!(spans, 0, "seed behavior: recorder off records nothing");
        }
        makespans.push(run.makespan);
        snaps.push(cfg.profile.snapshot());
    }
    assert_eq!(
        makespans[0], makespans[1],
        "tracing must not move any virtual clock"
    );
    for rank in 0..NPROCS {
        assert_eq!(
            snaps[0].phase_nanos[rank], snaps[1].phase_nanos[rank],
            "rank {rank} phase sums must be identical with tracing on/off"
        );
    }
    assert_eq!(snaps[0].servers.len(), snaps[1].servers.len());
    for (a, b) in snaps[0].servers.iter().zip(snaps[1].servers.iter()) {
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.bytes_written, b.bytes_written);
        assert_eq!(a.bytes_read, b.bytes_read);
    }
}

/// The profile must be a pure observer too: the same program with the
/// profile off and on ends on identical per-rank clocks. The one thing a
/// profiled run does that an unprofiled one does not is the roll-up of the
/// per-dataset counters at `close`, and that is bookkeeping inside a bare
/// rendezvous, not a simulated collective that charges the virtual clock.
#[test]
fn profiling_does_not_move_any_clock() {
    let mut clocks = Vec::new();
    for profiled in [false, true] {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(profiled);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let info = aligned_info().with("cb_buffer_size", "512");
        let run = run_world(NPROCS, cfg.clone(), move |comm| {
            let mut ds = Dataset::create(comm, &pfs, "obs.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
            let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
            ds.enddef().unwrap();
            let r = comm.rank() as u64;
            let vals = vec![r as f32; PER_RANK as usize];
            ds.iput_vara(v, &[r * PER_RANK], &[PER_RANK], &vals)
                .unwrap();
            ds.wait_all().unwrap();
            let req = ds.iget_vara(v, &[r * PER_RANK], &[PER_RANK]).unwrap();
            ds.wait_all().unwrap();
            let back: Vec<f32> = ds.take_result(req).unwrap();
            assert_eq!(back, vals);
            ds.close().unwrap();
        });
        let rolled_up = cfg.profile.snapshot().extras.len();
        assert_eq!(
            rolled_up, profiled as usize,
            "only a profiled close rolls up"
        );
        clocks.push(run.clocks);
    }
    assert_eq!(
        clocks[0], clocks[1],
        "turning the profile on must not move any rank's clock"
    );
}

/// `close` reduces the per-rank dataset counters across the communicator
/// and rank 0 attaches the global roll-up to the shared trace profile.
#[test]
fn close_rolls_dataset_counters_into_trace() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::CostOnly);
    run_world(NPROCS, cfg.clone(), move |comm| {
        let mut ds =
            Dataset::create(comm, &pfs, "roll.nc", Version::Cdf1, &aligned_info()).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let vals = vec![1.0f32; PER_RANK as usize];
        ds.put_vara_all(v, &[r * PER_RANK], &[PER_RANK], &vals)
            .unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &[r * PER_RANK], &[PER_RANK]).unwrap();
        assert_eq!(back.len(), PER_RANK as usize);
        ds.close().unwrap();
    });

    let snap = cfg.profile.snapshot();
    let (_, rollup) = snap
        .extras
        .iter()
        .find(|(name, _)| name == "dataset:roll.nc")
        .expect("close attaches the dataset roll-up");
    let get = |key: &str| rollup.get(key).and_then(|j| j.as_f64()).map(|f| f as u64);
    assert_eq!(get("put_bytes"), Some(NPROCS as u64 * PER_RANK * 4));
    assert_eq!(get("get_bytes"), Some(NPROCS as u64 * PER_RANK * 4));
}

/// Flatten a report to `path = value` lines (objects by key, arrays by
/// index), so the comparison below does not depend on key order.
fn flatten_report(j: &Json, path: &str, out: &mut Vec<String>) {
    match j {
        Json::Obj(entries) => {
            for (k, v) in entries {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten_report(v, &sub, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_report(v, &format!("{path}[{i}]"), out);
            }
        }
        leaf => out.push(format!("{path} = {}", leaf.pretty().trim_end())),
    }
}

/// One collective-only (hence deterministic) program through every door
/// that feeds the profile, and its whole report against
/// `tests/golden/profile_report.txt`: every counter, unit and key the
/// report carries, `extras` included. The one independent stretch has a
/// single caller, so the servers still see one fixed call order. A second
/// world repeats the collective write under a seeded fault plan into the
/// same profile so the `faults` section is not all zeros.
#[test]
fn report_is_pinned() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let faulted = SimConfig {
        faults: FaultPlan {
            seed: 7,
            transient: 0.1,
            ..FaultPlan::default()
        },
        ..cfg.clone()
    };
    assert!(faulted.profile.same_as(&cfg.profile));

    let count = [PER_RANK];
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let clean = run_world(NPROCS, cfg.clone(), move |comm| {
        // Half-stripe collective buffers: two pipelined rounds per domain.
        let info = aligned_info().with("cb_buffer_size", "512");
        let mut ds = Dataset::create(comm, &pfs, "pin.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        let queued = ["q0", "q1", "q2"].map(|name| ds.def_var(name, NcType::Int, &[d]).unwrap());
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let start = [r * PER_RANK];
        let vals = vec![r as f32; PER_RANK as usize];
        ds.put_vara_all(v, &start, &count, &vals).unwrap();
        for (i, q) in queued.into_iter().enumerate() {
            let ints = vec![(r as i32) * 10 + i as i32; PER_RANK as usize];
            ds.iput_vara(q, &start, &count, &ints).unwrap();
        }
        ds.wait_all().unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &start, &count).unwrap();
        assert_eq!(back, vals);
        ds.begin_indep_data().unwrap();
        if r == 0 {
            // Strided, so both directions go through the sieve.
            ds.put_vars(v, &[3], &[5], &[2], &[9.5f32; 5]).unwrap();
            let some: Vec<f32> = ds.get_vars(v, &[1], &[4], &[2]).unwrap();
            assert_eq!(some, [0.0, 9.5, 9.5, 9.5]);
        }
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
    let pfs = Pfs::new(faulted.clone(), StorageMode::Full);
    let retried = run_world(NPROCS, faulted, move |comm| {
        let mut ds =
            Dataset::create(comm, &pfs, "pin_faulted.nc", Version::Cdf1, &aligned_info()).unwrap();
        let d = ds.def_dim("x", NPROCS as u64 * PER_RANK).unwrap();
        let v = ds.def_var("v", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        let r = comm.rank() as u64;
        let vals = vec![r as f32; PER_RANK as usize];
        ds.put_vara_all(v, &[r * PER_RANK], &count, &vals).unwrap();
        ds.close().unwrap();
    });
    assert!(
        cfg.profile.fault_counters().retries > 0,
        "test premise: the seeded plan injects at least one recovered fault"
    );

    let total = clean.makespan.as_nanos() + retried.makespan.as_nanos();
    let mut lines = Vec::new();
    flatten_report(&cfg.profile.snapshot().to_json(total), "", &mut lines);
    lines.sort();
    let computed = lines.join("\n") + "\n";
    let golden = include_str!("golden/profile_report.txt");
    if computed != golden {
        let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("profile_report.txt");
        std::fs::write(&fresh, &computed).unwrap();
        let gone = golden.lines().filter(|l| !lines.iter().any(|c| c == l));
        let new = lines.iter().filter(|l| !golden.lines().any(|g| g == *l));
        let diff: Vec<String> = gone
            .map(|l| format!("-{l}"))
            .chain(new.map(|l| format!("+{l}")))
            .collect();
        panic!(
            "profile report differs from tests/golden/profile_report.txt \
             (this build's report is in {}):\n{}",
            fresh.display(),
            diff.join("\n")
        );
    }
}
