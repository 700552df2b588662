//! Robustness smoke: the FLASH checkpoint under injected storage faults.
//!
//! Three runs of the Figure 7 checkpoint workload on the Frost-like
//! platform, 64 processors:
//!
//! 1. **Baseline** — fault-free, file bytes exported.
//! 2. **Recovered faults** — `transient=0.05,short=0.05` on every server
//!    op. The retry/backoff layer must hide all of it: the produced file is
//!    byte-identical to the baseline, `faults_injected` and `retries` are
//!    nonzero, and the phase breakdown still explains the whole makespan
//!    (backoff time is charged inside the disk phases).
//! 3. **Permanent crash** — one server dies mid-write and never restarts.
//!    Every rank must return the *same* error (collective error agreement)
//!    in bounded virtual time — no hang, no divergent returns.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin fault_smoke`

use flash_io::{run_flash_io_on, writers, BlockMesh, FlashConfig, IoLibrary, OutputKind};
use hpc_sim::trace::Json;
use hpc_sim::{FaultPlan, SimConfig, Time};
use pnetcdf_bench::report::{check_coverage, write_report};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 4;

fn config() -> FlashConfig {
    FlashConfig {
        nxb: NXB,
        nprocs: NPROCS,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc: BLOCKS_PER_PROC,
        attributes: false,
    }
}

/// Run the checkpoint on a full-storage PFS and return (file bytes, result).
fn checkpoint_bytes(sim: SimConfig) -> (Vec<u8>, flash_io::FlashResult) {
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let res = run_flash_io_on(config(), sim, &pfs);
    let bytes = pfs
        .open("flash_out")
        .expect("checkpoint written")
        .to_bytes();
    (bytes, res)
}

fn main() {
    println!("# Fault-injection smoke: FLASH checkpoint, {NPROCS} procs, Frost platform");

    // 1. Fault-free baseline.
    let base_sim = SimConfig::asci_frost();
    base_sim.profile.set_enabled(true);
    let (clean_bytes, clean) = checkpoint_bytes(base_sim.clone());
    println!(
        "  baseline:  {:.1} MB/s, {} file bytes",
        clean.bandwidth_mb_s,
        clean_bytes.len()
    );

    // 2. Transient + short faults; recovery must be byte-exact.
    let plan = FaultPlan::from_spec("transient=0.05,short=0.05").expect("valid spec");
    let faulty_sim = SimConfig::asci_frost().builder().faults(plan).build();
    faulty_sim.profile.set_enabled(true);
    let (faulty_bytes, faulty) = checkpoint_bytes(faulty_sim.clone());
    assert_eq!(
        clean_bytes, faulty_bytes,
        "FAIL: recovered faults changed the file contents"
    );
    let fc = faulty_sim.profile.fault_counters();
    assert!(fc.faults_injected > 0, "FAIL: no faults injected: {fc:?}");
    assert!(fc.retries > 0, "FAIL: recovery never retried: {fc:?}");
    assert!(
        fc.backoff_nanos > 0,
        "FAIL: retries never backed off: {fc:?}"
    );
    assert!(
        fc.short_completions > 0,
        "FAIL: no short I/O resumed at its partial offset: {fc:?}"
    );
    assert_eq!(fc.exhausted, 0, "FAIL: a retry budget exhausted: {fc:?}");
    let profile = faulty_sim
        .profile
        .snapshot()
        .to_json(faulty.time.as_nanos());
    check_coverage(&profile, 0.05);
    println!(
        "  faulty:    {:.1} MB/s, byte-identical; {} faults hidden by {} retries",
        faulty.bandwidth_mb_s, fc.faults_injected, fc.retries
    );

    // 3. Crash-without-restart mid-write, NO parity (the redundancy-free
    //    baseline the failover_smoke contrasts with): identical agreed
    //    error on every rank, bounded virtual time, and the failover
    //    machinery never engages.
    let crash_at = Time::from_nanos(clean.time.as_nanos() / 2);
    let spec = format!("crash=server:0@t>{}", crash_at.as_nanos());
    let plan = FaultPlan::from_spec(&spec).expect("valid crash spec");
    assert_eq!(
        FaultPlan::from_spec(&plan.to_string()).expect("display reparses"),
        plan,
        "FAIL: crash spec does not round-trip through Display"
    );
    let crash_sim = SimConfig::asci_frost().builder().faults(plan).build();
    crash_sim.profile.set_enabled(true);
    let pfs = Pfs::new(crash_sim.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let mesh = BlockMesh {
        nxb: NXB,
        blocks_per_proc: BLOCKS_PER_PROC,
        nprocs: NPROCS,
    };
    let run = run_world(
        NPROCS,
        crash_sim.clone(),
        move |comm| match writers::pnetcdf::write_with(
            comm,
            &pfs2,
            &mesh,
            OutputKind::Checkpoint,
            "flash_out",
            false,
        ) {
            Ok(_) => panic!("FAIL: write succeeded with a permanently dead server"),
            Err(e) => format!("{e:?}"),
        },
    );
    for (rank, err) in run.results.iter().enumerate() {
        assert_eq!(
            err, &run.results[0],
            "FAIL: rank {rank} returned a different error than rank 0"
        );
    }
    assert!(
        run.results[0].contains("Exhausted"),
        "FAIL: expected retry exhaustion, got {}",
        run.results[0]
    );
    let bound = crash_at + Time::from_secs_f64(60.0);
    assert!(
        run.makespan < bound,
        "FAIL: ranks gave up only at {:?} (bound {:?})",
        run.makespan,
        bound
    );
    let cc = crash_sim.profile.fault_counters();
    assert!(cc.exhausted > 0 && cc.agreed_errors > 0, "FAIL: {cc:?}");
    assert_eq!(
        crash_sim.profile.failover_counters(),
        Default::default(),
        "FAIL: failover engaged without parity"
    );
    println!(
        "  crash:     identical error on all {NPROCS} ranks after {:?} virtual",
        run.makespan
    );

    // 4. Two crash windows, each with a restart short enough for the
    //    retry ladder to wait out (no parity needed): the multi-window
    //    plan recovers to a byte-identical file.
    // The aggregated flush issues server requests at a handful of round
    // instants, so each window spans a broad slice of the flush period —
    // 90 ms, still inside the ~100 ms the backoff ladder can wait out.
    let w1 = Time::from_nanos(clean.time.as_nanos() * 35 / 100);
    let w2 = Time::from_nanos(clean.time.as_nanos() * 70 / 100);
    let outage = Time::from_millis(90);
    let spec = format!(
        "crash=server:0@t>{},restart={},crash=server:1@t>{},restart={}",
        w1.as_nanos(),
        (w1 + outage).as_nanos(),
        w2.as_nanos(),
        (w2 + outage).as_nanos(),
    );
    let plan = FaultPlan::from_spec(&spec).expect("valid multi-window spec");
    assert_eq!(
        FaultPlan::from_spec(&plan.to_string()).expect("display reparses"),
        plan,
        "FAIL: multi-window spec does not round-trip through Display"
    );
    let windows_sim = SimConfig::asci_frost().builder().faults(plan).build();
    windows_sim.profile.set_enabled(true);
    let (windowed_bytes, windowed) = checkpoint_bytes(windows_sim.clone());
    assert_eq!(
        clean_bytes, windowed_bytes,
        "FAIL: crash windows with restarts changed the file contents"
    );
    let wc = windows_sim.profile.fault_counters();
    assert!(wc.crashed > 0, "FAIL: no window was ever hit: {wc:?}");
    assert!(wc.retries > 0, "FAIL: recovery never retried: {wc:?}");
    assert_eq!(wc.exhausted, 0, "FAIL: a short outage exhausted: {wc:?}");
    println!(
        "  windows:   {:.1} MB/s through two {:?} outages, byte-identical",
        windowed.bandwidth_mb_s, outage
    );

    write_report(
        "fault_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "fault_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("baseline_mb_s", clean.bandwidth_mb_s)
            .with("faulty_mb_s", faulty.bandwidth_mb_s)
            .with("byte_identical", true)
            .with("crash_error", run.results[0].clone())
            .with("profile", profile),
    );
    println!("fault smoke OK");
}
