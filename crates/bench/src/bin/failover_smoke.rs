//! Failover smoke: the FLASH checkpoint surviving a mid-job server crash.
//!
//! The robustness counterpart to `fault_smoke`'s scenario 3: there, a
//! permanent crash with no redundancy ends the job with one agreed
//! `Exhausted` error on every rank. Here the declustered-parity layer is on
//! (`pnc_parity=enable`), so the same crash escalates to an agreed
//! `ServerLost`, every rank marks the server down at the same operation,
//! and the collective retries in degraded mode:
//!
//! 1. **Baseline** — parity on, fault-free; byte-identical to a parity-off
//!    run (the overlay never touches data placement) and no failover
//!    counters move.
//! 2. **Crash mid-write** — one server dies halfway through the clean
//!    makespan and stays down for 30 virtual seconds. The checkpoint
//!    *completes*: writes bound for the dead server are redirected and
//!    covered by parity on the survivors.
//! 3. **Degraded read-back** — while the server is still down, the whole
//!    file reads back byte-identical, every dead-server chunk XOR-
//!    reconstructed from surviving data + parity.
//! 4. **Online rebuild** — the first access past the restart replays the
//!    degraded-write log onto the returning server and refreshes its
//!    parity rows; the file is byte-identical to the fault-free run.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin failover_smoke`

use flash_io::{writers, BlockMesh, OutputKind};
use hpc_sim::trace::Json;
use hpc_sim::{CrashSpec, FaultPlan, SimConfig, Time};
use pnetcdf::Info;
use pnetcdf_bench::report::write_report;
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 4;

fn mesh() -> BlockMesh {
    BlockMesh {
        nxb: NXB,
        blocks_per_proc: BLOCKS_PER_PROC,
        nprocs: NPROCS,
    }
}

/// Run the checkpoint with the given info hints; returns (pfs, makespan).
fn checkpoint(sim: &SimConfig, info: Info) -> (Pfs, Time) {
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let m = mesh();
    let run = run_world(NPROCS, sim.clone(), move |comm| {
        writers::pnetcdf::write_collective(
            comm,
            &pfs2,
            &m,
            OutputKind::Checkpoint,
            "flash_out",
            &info,
        )
        .expect("checkpoint write failed")
    });
    (pfs, run.makespan)
}

fn file_bytes(pfs: &Pfs) -> Vec<u8> {
    pfs.open("flash_out")
        .expect("checkpoint written")
        .to_bytes()
}

fn main() {
    println!("# Failover smoke: FLASH checkpoint, {NPROCS} procs, parity + server crash");

    // 1. Fault-free baseline, parity on — and a parity-off twin to prove
    //    the overlay leaves the data bytes alone.
    let base_sim = SimConfig::asci_frost();
    base_sim.profile.set_enabled(true);
    let (base_pfs, base_makespan) = checkpoint(&base_sim, Info::new().with("pnc_parity", "enable"));
    let clean_bytes = file_bytes(&base_pfs);
    let plain_sim = SimConfig::asci_frost();
    plain_sim.profile.set_enabled(true);
    let (plain_pfs, _) = checkpoint(&plain_sim, Info::new());
    assert_eq!(
        clean_bytes,
        file_bytes(&plain_pfs),
        "FAIL: parity overlay changed the file bytes"
    );
    let fo = base_sim.profile.failover_counters();
    assert!(
        fo.parity_updates > 0,
        "FAIL: parity never maintained: {fo:?}"
    );
    assert_eq!(fo.epochs, 0, "FAIL: fault-free run declared an epoch");
    assert_eq!(fo.degraded_reads, 0, "FAIL: fault-free degraded reads");
    let pfo = plain_sim.profile.failover_counters();
    assert_eq!(pfo.parity_updates, 0, "FAIL: parity-off run paid parity");
    println!(
        "  baseline:  {} file bytes in {:.3}s virtual, parity-off twin byte-identical",
        clean_bytes.len(),
        base_makespan.as_secs_f64()
    );

    // 2. Crash one server mid-write; restart 30 virtual seconds later —
    //    far past the retry ladder, so the ranks must escalate to failover
    //    rather than backoff through the outage.
    let crash_at = Time::from_nanos(base_makespan.as_nanos() / 2);
    let restart = crash_at + Time::from_secs_f64(30.0);
    let plan = FaultPlan {
        crashes: vec![CrashSpec {
            server: 0,
            at: crash_at,
            restart: Some(restart),
        }],
        ..FaultPlan::default()
    };
    let crash_sim = SimConfig::asci_frost().builder().faults(plan).build();
    crash_sim.profile.set_enabled(true);
    let (pfs, makespan) = checkpoint(&crash_sim, Info::new().with("pnc_parity", "enable"));
    assert!(
        makespan < restart,
        "FAIL: degraded-mode write ({makespan:?}) dragged past the restart ({restart:?})"
    );
    assert_eq!(
        pfs.cluster().down_server(),
        Some(0),
        "FAIL: server 0 never failed over"
    );
    let fo = crash_sim.profile.failover_counters();
    let fc = crash_sim.profile.fault_counters();
    assert_eq!(fo.epochs, 1, "FAIL: expected one server-down epoch: {fo:?}");
    assert!(
        fo.redirected_writes > 0,
        "FAIL: no writes redirected: {fo:?}"
    );
    assert!(fo.redirected_bytes > 0, "FAIL: no bytes redirected: {fo:?}");
    assert!(fc.exhausted > 0, "FAIL: ladder never exhausted: {fc:?}");
    assert!(
        fc.agreed_errors > 0,
        "FAIL: no collective agreement: {fc:?}"
    );
    println!(
        "  crash:     checkpoint completed degraded in {:.3}s virtual ({} writes redirected)",
        makespan.as_secs_f64(),
        fo.redirected_writes
    );

    // 3. Degraded read-back while the server is still down: every chunk of
    //    the dead server reconstructs from surviving data + parity.
    let f = pfs.open("flash_out").expect("checkpoint written");
    let t_read = makespan + Time::from_millis(1);
    assert!(t_read < restart, "read must land inside the outage");
    let mut degraded = vec![0u8; f.size() as usize];
    f.try_read_at(t_read, 0, &mut degraded)
        .expect("degraded read must succeed without server 0");
    assert_eq!(
        degraded, clean_bytes,
        "FAIL: degraded read diverged from the fault-free file"
    );
    let fo = crash_sim.profile.failover_counters();
    assert!(fo.degraded_reads > 0, "FAIL: no degraded reads: {fo:?}");
    assert!(
        fo.reconstructed_bytes > 0,
        "FAIL: nothing reconstructed: {fo:?}"
    );
    println!(
        "  degraded:  read-back byte-identical ({} bytes reconstructed from parity)",
        fo.reconstructed_bytes
    );

    // 4. First access past the restart triggers the online rebuild; the
    //    server rejoins and the file is byte-identical.
    let mut probe = [0u8; 1];
    f.try_read_at(restart + Time::from_secs_f64(1.0), 0, &mut probe)
        .expect("post-restart read failed");
    assert_eq!(
        pfs.cluster().down_server(),
        None,
        "FAIL: rebuild never cleared the mark"
    );
    let fo = crash_sim.profile.failover_counters();
    assert_eq!(fo.rebuilds, 1, "FAIL: expected one rebuild: {fo:?}");
    assert!(fo.rebuilt_bytes > 0, "FAIL: rebuild moved no bytes: {fo:?}");
    assert_eq!(
        file_bytes(&pfs),
        clean_bytes,
        "FAIL: rebuilt file diverged from the fault-free run"
    );
    println!(
        "  rebuild:   {} bytes replayed in {:.3}s virtual; file byte-identical",
        fo.rebuilt_bytes,
        Time::from_nanos(fo.rebuild_nanos).as_secs_f64()
    );

    let profile = crash_sim.profile.snapshot().to_json(makespan.as_nanos());
    write_report(
        "failover_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "failover_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("byte_identical", true)
            .with("degraded_reads", fo.degraded_reads)
            .with("reconstructed_bytes", fo.reconstructed_bytes)
            .with("redirected_writes", fo.redirected_writes)
            .with("rebuilds", fo.rebuilds)
            .with("rebuilt_bytes", fo.rebuilt_bytes)
            .with("profile", profile),
    );
    println!("failover smoke OK");
}
