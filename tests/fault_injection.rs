//! Fault injection end to end: the retry/backoff layer must hide
//! transient, short and stall faults without changing a single file byte,
//! and unrecoverable faults (permanent server crash, per-rank validation
//! failures) must surface as the *same* error on every rank of a
//! collective — no hangs, no divergent returns.

use std::sync::{Arc, Mutex};

use hpc_sim::{FaultPlan, SimConfig, Time};
use pnetcdf::{Dataset, Info, NcType, NcmpiError, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::MpioError;
use pnetcdf_pfs::{Pfs, StorageMode};

/// `test_small` with profiling on and the given fault spec applied.
fn faulty_cfg(spec: &str) -> SimConfig {
    let cfg = SimConfig {
        faults: FaultPlan::from_spec(spec).unwrap(),
        ..SimConfig::test_small()
    };
    cfg.profile.set_enabled(true);
    cfg
}

fn value(z: u64, y: u64, x: u64) -> f32 {
    (z * 10000 + y * 100 + x) as f32
}

/// Write a 3D variable from 4 ranks (one z-plane each), read it back with
/// collective gets, close, and return the final file bytes.
fn run_workload(cfg: SimConfig) -> Vec<u8> {
    let (nz, ny, nx) = (4u64, 4, 8);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "f.nc", Version::Cdf1, &Info::new()).unwrap();
        let z = ds.def_dim("z", nz).unwrap();
        let y = ds.def_dim("y", ny).unwrap();
        let x = ds.def_dim("x", nx).unwrap();
        let v = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
        ds.enddef().unwrap();

        let zp = c.rank() as u64;
        let vals: Vec<f32> = (0..ny * nx).map(|i| value(zp, i / nx, i % nx)).collect();
        ds.put_vara_all(v, &[zp, 0, 0], &[1, ny, nx], &vals)
            .unwrap();

        // Read a different plane back through the faulty read path.
        let rp = (zp + 1) % nz;
        let got: Vec<f32> = ds.get_vara_all(v, &[rp, 0, 0], &[1, ny, nx]).unwrap();
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, value(rp, i as u64 / nx, i as u64 % nx));
        }
        ds.close().unwrap();
    });
    pfs.open("f.nc").unwrap().to_bytes()
}

/// Transient + short faults on every server: the recovery layer retries
/// and resumes until the workload completes, and the resulting file is
/// byte-identical to a fault-free run.
#[test]
fn recovered_faults_leave_file_byte_identical() {
    let clean = run_workload(SimConfig::test_small());

    let cfg = faulty_cfg("transient=0.15,short=0.15");
    let profile = cfg.profile.clone();
    let faulty = run_workload(cfg);

    assert_eq!(clean, faulty, "recovered faults must not change file bytes");
    let f = profile.fault_counters();
    assert!(f.faults_injected > 0, "plan injected nothing: {f:?}");
    assert!(f.retries > 0, "recovery never retried: {f:?}");
    assert!(f.backoff_nanos > 0, "retries must back off: {f:?}");
    assert_eq!(f.exhausted, 0, "workload must recover, not exhaust: {f:?}");
}

/// Short-I/O heavy plan: the completion loop must resume at the partial
/// offset (counted as `short_completions`) rather than restarting blindly.
#[test]
fn short_io_resumes_at_partial_offset() {
    let cfg = faulty_cfg("short=0.6");
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(1, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs, "s.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
        ds.enddef().unwrap();
        let vals: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        ds.put_vara_all(v, &[0], &[4096], &vals).unwrap();
        let back: Vec<f32> = ds.get_vara_all(v, &[0], &[4096]).unwrap();
        assert_eq!(back, vals);
        ds.close().unwrap();
    });
    let f = profile.fault_counters();
    assert!(f.short > 0, "no short faults injected: {f:?}");
    assert!(
        f.short_completions > 0,
        "short faults must resume at the partial offset: {f:?}"
    );
}

/// Stalls only delay (charged to virtual time); they are not errors and
/// need no retries.
#[test]
fn stalls_delay_but_do_not_fail() {
    let cfg = faulty_cfg("stall=0.4,stall_us=200");
    let profile = cfg.profile.clone();
    let clean = run_workload(SimConfig::test_small());
    let stalled = run_workload(cfg);
    assert_eq!(clean, stalled);
    let f = profile.fault_counters();
    assert!(f.stalls > 0, "no stalls injected: {f:?}");
    assert_eq!(f.retries, 0, "stalls are not errors: {f:?}");
}

/// One rank passes an out-of-bounds region to a collective put: every rank
/// — including the three whose arguments were fine — must return the same
/// error, and nobody may hang waiting for the failed rank.
#[test]
fn out_of_bounds_on_one_rank_yields_identical_error_everywhere() {
    let cfg = faulty_cfg(""); // inert plan; profiling on for agreed_errors
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let errors: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let errs2 = errors.clone();
    run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs, "oob.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 16).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Rank 2 reaches past the end of the dimension.
        let start = if c.rank() == 2 {
            100
        } else {
            c.rank() as u64 * 4
        };
        let err = ds.put_vara_all(v, &[start], &[4], &[7i32; 4]).unwrap_err();
        errs2.lock().unwrap().push((c.rank(), format!("{err:?}")));

        // The dataset is still usable: a well-formed collective completes.
        ds.put_vara_all(v, &[c.rank() as u64 * 4], &[4], &[1i32; 4])
            .unwrap();
        ds.close().unwrap();
    });
    let errs = errors.lock().unwrap();
    assert_eq!(errs.len(), 4, "every rank must return from the collective");
    for (rank, msg) in errs.iter() {
        assert_eq!(
            msg, &errs[0].1,
            "rank {rank} returned a different error than rank {}",
            errs[0].0
        );
    }
    assert!(
        profile.fault_counters().agreed_errors > 0,
        "the agreement must be counted"
    );
}

/// A permanently crashed server exhausts the retry budget in bounded
/// virtual time, and the resulting `Exhausted` error is identical on every
/// rank of the collective.
#[test]
fn permanent_crash_exhausts_identically_on_all_ranks() {
    let cfg = faulty_cfg("crash=server:0@t>1e9");
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let errors: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
    let errs2 = errors.clone();
    run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs, "c.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
        ds.enddef().unwrap();
        // The outage starts at t=1s; everything above happened well before
        // it. Jump every rank past the crash point, then write.
        c.advance(Time::from_secs_f64(2.0));
        let before = c.now();
        let err = ds
            .put_vara_all(v, &[c.rank() as u64 * 1024], &[1024], &[1.5f32; 1024])
            .unwrap_err();
        assert!(
            matches!(err, NcmpiError::Mpio(MpioError::Exhausted { .. })),
            "expected retry exhaustion, got {err:?}"
        );
        // Bounded: the budget is 12 attempts with backoff capped at 50 ms,
        // so giving up must take well under a minute of virtual time.
        let waited = c.now().saturating_sub(before);
        assert!(
            waited < Time::from_secs_f64(60.0),
            "gave up only after {waited:?} of virtual time"
        );
        errs2.lock().unwrap().push((c.rank(), format!("{err:?}")));
        // Storage is gone: drop the dataset instead of close() (which
        // would need the dead server to flush the header).
    });
    let errs = errors.lock().unwrap();
    assert_eq!(errs.len(), 4);
    for (rank, msg) in errs.iter() {
        assert_eq!(msg, &errs[0].1, "rank {rank} disagreed");
    }
    let f = profile.fault_counters();
    assert!(f.crashed > 0, "crash window never hit: {f:?}");
    assert!(f.exhausted > 0, "budget never exhausted: {f:?}");
    assert!(f.agreed_errors > 0, "exhaustion must be agreed: {f:?}");
}

/// `wait_all` on a failing flush: the pending queue is drained, every
/// queued get completes with a per-request error, and a later `wait_all`
/// starts from a clean slate instead of seeing stale requests.
#[test]
fn failed_wait_all_drains_queue_with_per_request_errors() {
    let cfg = faulty_cfg("crash=server:0@t>1e9");
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(2, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs, "q.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 2048).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        // Seed data while the storage is healthy.
        ds.put_vara_all(v, &[c.rank() as u64 * 1024], &[1024], &[3i32; 1024])
            .unwrap();

        c.advance(Time::from_secs_f64(2.0));
        ds.iput_vara(v, &[c.rank() as u64 * 1024], &[1024], &[9i32; 1024])
            .unwrap();
        let rg = ds.iget_vara(v, &[0], &[8]).unwrap();
        assert_eq!(ds.num_pending(), 2);

        let err = ds.wait_all().unwrap_err();
        assert!(
            matches!(err, NcmpiError::Mpio(MpioError::Exhausted { .. })),
            "unexpected flush error {err:?}"
        );
        // The queue must be fully drained, with the get completed by a
        // per-request error rather than left dangling.
        assert_eq!(ds.num_pending(), 0);
        let got: Result<Vec<i32>, _> = ds.take_result(rg);
        assert!(
            matches!(got, Err(NcmpiError::Mpio(MpioError::Exhausted { .. }))),
            "queued get must carry the flush error, got {got:?}"
        );
        // A later wait_all sees no stale requests.
        ds.wait_all().unwrap();
    });
}
