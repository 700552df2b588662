//! Two-phase pipelining smoke: serial vs pipelined collective engines.
//!
//! Three runs of the Figure 7 checkpoint workload (64 processors, 8³
//! blocks, Frost-like platform) with full byte storage:
//!
//! 1. **Default collective** — the stock hint set (reference bytes).
//! 2. **Serial** — `pnc_cb_pipeline=disable` with a 512 KiB collective
//!    buffer, so the engine runs many rounds strictly after one monolithic
//!    exchange. Must be byte-identical to the reference.
//! 3. **Pipelined** — same buffer with pipelining on: round `j+1`'s
//!    exchange overlaps round `j`'s disk access. Must be byte-identical
//!    again, no slower than serial in simulated time, with nonzero
//!    `overlap_saved_ns` and a phase breakdown that still explains the
//!    whole makespan.
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin twophase_smoke`

use flash_io::{run_flash_io_mode, FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf_bench::report::{check_coverage, write_report};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const NXB: u64 = 8;
const BLOCKS_PER_PROC: u64 = 8;
/// Small enough that each aggregator's file domain spans many rounds.
const CB_BUFFER: usize = 512 * 1024;

fn checkpoint_bytes(sim: SimConfig, mode: WriteMode) -> (Vec<u8>, flash_io::FlashResult) {
    let config = FlashConfig {
        nxb: NXB,
        nprocs: NPROCS,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc: BLOCKS_PER_PROC,
        attributes: false,
    };
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let res = run_flash_io_mode(config, sim, &pfs, mode);
    let bytes = pfs
        .open("flash_out")
        .expect("checkpoint written")
        .to_bytes();
    (bytes, res)
}

fn main() {
    println!("# Two-phase pipelining smoke: FLASH checkpoint, {NPROCS} procs, Frost platform");

    let (reference, default) = checkpoint_bytes(SimConfig::asci_frost(), WriteMode::Collective);
    println!(
        "  default:   {:.1} MB/s, {} file bytes",
        default.bandwidth_mb_s,
        reference.len()
    );

    let (serial_bytes, serial) = checkpoint_bytes(
        SimConfig::asci_frost(),
        WriteMode::collective_hints(CB_BUFFER, false),
    );
    assert_eq!(
        serial_bytes, reference,
        "FAIL: the serial engine produced different file contents"
    );
    println!(
        "  serial:    {:.1} MB/s, byte-identical ({} KiB buffer)",
        serial.bandwidth_mb_s,
        CB_BUFFER / 1024
    );

    let sim = SimConfig::asci_frost();
    sim.profile.set_enabled(true);
    let (pipelined_bytes, pipelined) =
        checkpoint_bytes(sim.clone(), WriteMode::collective_hints(CB_BUFFER, true));
    assert_eq!(
        pipelined_bytes, reference,
        "FAIL: the pipelined engine produced different file contents"
    );
    let tp = sim.profile.twophase_counters();
    assert!(
        tp.pipelined_rounds >= 2,
        "FAIL: workload too small to pipeline: {tp:?}"
    );
    assert!(
        tp.overlap_saved_nanos > 0,
        "FAIL: pipelining hid no exchange time: {tp:?}"
    );
    // Dual-resource server engine: the per-server stage counters and the
    // dynamically chosen aggregator count must have landed in the profile.
    let io = sim.profile.snapshot().server_totals();
    assert!(
        tp.cb_nodes > 0,
        "FAIL: no aggregator count recorded: {tp:?}"
    );
    assert!(
        io.nic_busy_nanos > 0 && io.disk_busy_nanos > 0 && io.overlap_nanos > 0,
        "FAIL: server NIC/disk stages never overlapped: {io:?}"
    );
    assert!(
        io.max_queue_depth > 0,
        "FAIL: no admission-queue depth recorded: {io:?}"
    );
    assert!(
        pipelined.time <= serial.time,
        "FAIL: pipelined engine slower than serial ({:?} vs {:?})",
        pipelined.time,
        serial.time
    );
    let profile = sim.profile.snapshot().to_json(pipelined.time.as_nanos());
    check_coverage(&profile, 0.05);
    println!(
        "  pipelined: {:.1} MB/s, byte-identical; {} rounds, {:.3} s overlap hidden",
        pipelined.bandwidth_mb_s,
        tp.pipelined_rounds,
        tp.overlap_saved_nanos as f64 / 1e9
    );

    write_report(
        "twophase_smoke.profile.json",
        &Json::obj()
            .with("benchmark", "twophase_smoke")
            .with("nprocs", NPROCS as u64)
            .with("blocks_per_proc", BLOCKS_PER_PROC)
            .with("cb_buffer_size", CB_BUFFER as u64)
            .with("default_mb_s", default.bandwidth_mb_s)
            .with("serial_mb_s", serial.bandwidth_mb_s)
            .with("pipelined_mb_s", pipelined.bandwidth_mb_s)
            .with("rounds", tp.pipelined_rounds)
            .with("overlap_saved_ns", tp.overlap_saved_nanos)
            .with("byte_identical", true)
            .with("profile", profile),
    );
    println!("twophase smoke OK");
}
