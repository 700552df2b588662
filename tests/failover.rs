//! Server failover end to end through the netCDF API. The permanent crash
//! that ends the no-parity workload with an agreed `Exhausted` (see
//! `fault_injection.rs`) is survivable on a platform built with
//! `SimConfig::parity`: the retry ladder escalates to an agreed `ServerLost`, every rank
//! marks the server down at the same operation, and the collective retries
//! in degraded mode — redirected writes, reconstructed reads. A later
//! access past the crash window's restart rebuilds the server online.
//!
//! Each program also pins what it leaves behind — every rank's final clock,
//! the failover counters and the file's digest — as a literal (`PINNED`),
//! recorded before parity became a platform property and re-recorded when
//! the unhinted aggregator count stopped shrinking with the request volume.
//! The two parity programs kept their file digests; the parity-off one,
//! whose collective fails, now stops at the first aggregator's exhausted
//! window, before the other aggregator's servers are written.

use hpc_sim::{FaultPlan, Profile, SimConfig, Time};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

/// Every rank's final clock (ns), the failover counters and the FNV-1a
/// digest of `file`, as one line.
fn pin(clocks: &[Time], profile: &Profile, file: &[u8]) -> String {
    let clocks: Vec<u64> = clocks.iter().map(|t| t.as_nanos()).collect();
    let digest = file.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!(
        "{clocks:?} {:?} {digest:#018x}",
        profile.failover_counters()
    )
}

/// What the three programs below leave behind, in file order.
const PINNED: [&str; 3] = [
    "[2149860537, 2149860537, 2149860537, 2149860537] FailoverCounters { degraded_reads: 5, \
     reconstructed_bytes: 4096, redirected_writes: 2, redirected_bytes: 4100, parity_updates: 79, \
     parity_bytes: 77824, epochs: 1, rebuilds: 0, rebuilt_bytes: 0, rebuild_nanos: 0 } \
     0x4b33f35fdf7c6e91",
    "[2142815297, 2142815297, 2142815297, 2142815297] FailoverCounters { degraded_reads: 0, \
     reconstructed_bytes: 0, redirected_writes: 2, redirected_bytes: 4100, parity_updates: 79, \
     parity_bytes: 77824, epochs: 1, rebuilds: 1, rebuilt_bytes: 5124, rebuild_nanos: 8855860 } \
     0x0fbdbfcb6404d2d1",
    "[2001198849, 2001198849] FailoverCounters { degraded_reads: 0, reconstructed_bytes: 0, \
     redirected_writes: 0, redirected_bytes: 0, parity_updates: 0, parity_bytes: 0, epochs: 0, \
     rebuilds: 0, rebuilt_bytes: 0, rebuild_nanos: 0 } 0xeb51fffe74d93ee6",
];

/// `test_small` with profiling on and the given fault spec applied.
fn faulty_cfg(spec: &str) -> SimConfig {
    let plan = FaultPlan::from_spec(spec).unwrap();
    // The multi-window spec syntax must round-trip through Display, or
    // profile reports would misstate the plan that actually ran.
    assert_eq!(FaultPlan::from_spec(&plan.to_string()).unwrap(), plan);
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::test_small()
    };
    cfg.profile.set_enabled(true);
    cfg
}

/// The blocking collective path: a permanent crash mid-job completes
/// degraded instead of exhausting, and the degraded read-back is exact.
#[test]
fn blocking_collective_survives_permanent_crash() {
    let cfg = SimConfig {
        parity: true,
        ..faulty_cfg("crash=server:0@t>1e9")
    };
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let run = run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "p.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
        ds.enddef().unwrap();
        // Past the outage start: the write must escalate to failover.
        c.advance(Time::from_secs_f64(2.0));
        let base = c.rank() as u64 * 1024;
        let vals: Vec<f32> = (0..1024).map(|i| (base + i) as f32).collect();
        ds.put_vara_all(v, &[base], &[1024], &vals)
            .expect("parity must carry the write through the crash");
        // Degraded read-back, shifted one rank over so every rank reads
        // bytes another rank wrote through the redirect path.
        let rb = ((c.rank() + 1) % 4) as u64 * 1024;
        let got: Vec<f32> = ds.get_vara_all(v, &[rb], &[1024]).unwrap();
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, (rb + i as u64) as f32);
        }
        ds.close().expect("close flushes through degraded mode too");
    });
    assert_eq!(pfs.down_server(), Some(0), "server 0 must be marked down");
    let fo = profile.failover_counters();
    assert_eq!(fo.epochs, 1, "exactly one agreed epoch: {fo:?}");
    assert!(fo.redirected_writes > 0, "writes must redirect: {fo:?}");
    assert!(fo.degraded_reads > 0, "reads must reconstruct: {fo:?}");
    assert!(fo.parity_updates > 0, "parity must be maintained: {fo:?}");
    let fc = profile.fault_counters();
    assert!(fc.exhausted > 0, "the ladder exhausts before escalating");
    assert!(fc.agreed_errors > 0, "ServerLost must be agreed: {fc:?}");
    let file = pfs.open("p.nc").unwrap().to_bytes();
    assert_eq!(pin(&run.clocks, &profile, &file), PINNED[0]);
}

/// The nonblocking/aggregated path (`iput` + `wait_all`), plus the online
/// rebuild: a crash window *with* a restart ends with the server rebuilt
/// and the file byte-identical to a fault-free run.
#[test]
fn wait_all_survives_and_rebuild_restores_the_server() {
    // Outage from t=1s to t=100s: far longer than the retry ladder
    // tolerates, so only failover can complete the flush.
    let cfg = SimConfig {
        parity: true,
        ..faulty_cfg("crash=server:0@t>1e9,restart=1e11")
    };
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let run = run_world(4, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "w.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4096).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        c.advance(Time::from_secs_f64(2.0));
        let base = c.rank() as u64 * 1024;
        let vals: Vec<i32> = (0..1024).map(|i| (base + i) as i32).collect();
        ds.iput_vara(v, &[base], &[1024], &vals).unwrap();
        ds.wait_all()
            .expect("parity must carry the merged flush through the crash");
        ds.close().unwrap();
    });
    assert_eq!(pfs.down_server(), Some(0));
    let fo = profile.failover_counters();
    assert_eq!(fo.epochs, 1, "{fo:?}");
    assert!(fo.redirected_writes > 0, "{fo:?}");

    // First access past the restart triggers the online rebuild.
    let f = pfs.open("w.nc").unwrap();
    let degraded = f.to_bytes();
    let mut probe = [0u8; 1];
    f.try_read(Time::from_secs_f64(101.0), &[(0, 1)], &mut [&mut probe])
        .expect("post-restart read");
    assert_eq!(pfs.down_server(), None, "rebuild must clear the mark");
    let fo = profile.failover_counters();
    assert_eq!(fo.rebuilds, 1, "{fo:?}");
    assert!(fo.rebuilt_bytes > 0, "{fo:?}");
    assert_eq!(
        f.to_bytes(),
        degraded,
        "rebuild must not change the file contents"
    );
    assert_eq!(pin(&run.clocks, &profile, &degraded), PINNED[1]);
}

/// Graceful degradation the other way: with parity *off*, the same crash
/// spec still produces the agreed `Exhausted` of the seed behavior, and no
/// failover counter moves.
#[test]
fn without_parity_the_crash_still_exhausts() {
    let cfg = faulty_cfg("crash=server:0@t>1e9");
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let run = run_world(2, cfg, move |c| {
        let mut ds = Dataset::create(c, &pfs2, "n.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 2048).unwrap();
        let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
        ds.enddef().unwrap();
        c.advance(Time::from_secs_f64(2.0));
        ds.put_vara_all(v, &[c.rank() as u64 * 1024], &[1024], &[1.0f32; 1024])
            .unwrap_err();
    });
    assert_eq!(pfs.down_server(), None, "no parity, no failover");
    assert_eq!(
        profile.failover_counters(),
        Default::default(),
        "parity-off runs must not touch failover counters"
    );
    let file = pfs.open("n.nc").unwrap().to_bytes();
    assert_eq!(pin(&run.clocks, &profile, &file), PINNED[2]);
}

/// Parity is a property of the platform, fixed when the file system is
/// built, so it covers every byte the file system stores — also a file
/// written before any open named parity. `a.nc` is written with no hints
/// and `b.nc` with an info that names `pnc_parity`; after server 0 is lost
/// both read back exact through reconstruction. The `pnc_parity` key changes
/// nothing and is counted once, as an unknown `pnc_` hint. Switching parity
/// on at `b.nc`'s open instead leaves `a.nc` without parity rows, and its
/// degraded read returns a quarter of its floats wrong as `Ok`.
#[test]
fn parity_covers_files_written_before_any_hint() {
    let cfg = SimConfig {
        parity: true,
        ..faulty_cfg("crash=server:0@t>1e9")
    };
    let profile = cfg.profile.clone();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let files = [
        ("a.nc", Info::new(), 0.0),
        ("b.nc", Info::new().with("pnc_parity", "enable"), 0.5),
    ];
    run_world(4, cfg, |c| {
        let base = c.rank() as u64 * 1024;
        let vals =
            |salt: f32| -> Vec<f32> { (0..1024).map(|i| (base + i) as f32 + salt).collect() };
        let mut open = Vec::new();
        for (name, info, salt) in &files {
            let mut ds = Dataset::create(c, &pfs, name, Version::Cdf1, info).unwrap();
            let x = ds.def_dim("x", 4096).unwrap();
            let v = ds.def_var("v", NcType::Float, &[x]).unwrap();
            ds.enddef().unwrap();
            ds.put_vara_all(v, &[base], &[1024], &vals(*salt)).unwrap();
            open.push((ds, v));
        }
        // Past the outage start: server 0 is gone for good.
        c.advance(Time::from_secs_f64(2.0));
        for ((mut ds, v), (name, _, salt)) in open.into_iter().zip(&files) {
            let got: Vec<f32> = ds.get_vara_all(v, &[base], &[1024]).unwrap();
            assert!(got == vals(*salt), "{name} on rank {}", c.rank());
            ds.close().unwrap();
        }
    });
    assert_eq!(pfs.down_server(), Some(0), "the reads failed over");
    assert!(profile.failover_counters().degraded_reads > 0);
    assert_eq!(profile.hints_rejected(), 1, "`pnc_parity` is not a hint");
}
