//! The dual-resource server engine must not change WHAT happens, only
//! WHEN: with an active fault plan (transient EIOs, short transfers,
//! latency stalls — every probabilistic kind), the pipelined collective
//! engine and the serial one must leave byte-identical files AND inject
//! the exact same fault sequence, because fault draws depend only on
//! `(seed, server_id, ops)` and both engines issue requests in the same
//! order. Crash faults are excluded by design: they trigger on *arrival
//! time*, which the two schedules legitimately disagree on.

use hpc_sim::{FaultCounters, FaultPlan, SimConfig, Time};
use pnetcdf_mpi::run_world;
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 4;
const PER_RANK: u64 = 2048;

fn hostile_plan() -> FaultPlan {
    FaultPlan {
        transient: 0.08,
        short: 0.08,
        stall: 0.10,
        ..FaultPlan::default()
    }
}

/// Each rank writes an interleaved, partially ragged slice (some runs
/// cross stripe boundaries, some leave holes) so both contiguous windows
/// and read-modify-write paths fire.
fn rank_runs(rank: usize) -> Vec<Run> {
    let base = rank as u64 * PER_RANK;
    vec![(base + 3, 700), (base + 900, 512), (base + 1500, 500)]
}

fn rank_data(runs: &[Run], rank: usize) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(rank as u8 + 1))
        .collect()
}

/// Run one collective write under the hostile plan, returning the file
/// bytes and the injected-fault counters.
fn write_under_faults(pipeline: bool) -> (Vec<u8>, FaultCounters) {
    let mut cfg = SimConfig::test_small();
    cfg.faults = hostile_plan();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs_in = pfs.clone();
    let info = pnetcdf_mpi::Info::new()
        .with("cb_buffer_size", "1024")
        .with(
            "pnc_cb_pipeline",
            if pipeline { "enable" } else { "disable" },
        );
    run_world(NPROCS, cfg.clone(), move |c| {
        let f = MpiFile::open(c, &pfs_in, "faulty", OpenMode::Create, &info).unwrap();
        let runs = rank_runs(c.rank());
        let data = rank_data(&runs, c.rank());
        f.write_runs_at_all(&runs, &data).unwrap();
    });
    let bytes = pfs.open("faulty").unwrap().to_bytes();
    (bytes, cfg.profile.fault_counters())
}

#[test]
fn engines_agree_on_bytes_and_fault_sequence_under_faults() {
    let (bytes_p, faults_p) = write_under_faults(true);
    let (bytes_s, faults_s) = write_under_faults(false);

    assert_eq!(bytes_p, bytes_s, "engines wrote different file bytes");
    // The plan must actually have fired, or the test proves nothing.
    assert!(
        faults_s.faults_injected > 0,
        "hostile plan never fired: {faults_s:?}"
    );
    // Identical issue order => identical per-op draws => identical
    // injected kinds, one for one.
    assert_eq!(faults_p.transient, faults_s.transient);
    assert_eq!(faults_p.short, faults_s.short);
    assert_eq!(faults_p.stalls, faults_s.stalls);
    assert_eq!(faults_p.faults_injected, faults_s.faults_injected);
    assert_eq!(faults_p.crashed, 0);
    assert_eq!(faults_s.crashed, 0);
    // Recovery work is driven by the same fault sequence.
    assert_eq!(faults_p.retries, faults_s.retries);
    assert_eq!(faults_p.short_completions, faults_s.short_completions);
}

/// The written content must also be exactly what the ranks sent — faults
/// recovered, not papered over.
#[test]
fn recovered_bytes_match_sent_bytes() {
    let (bytes, _) = write_under_faults(true);
    for rank in 0..NPROCS {
        let runs = rank_runs(rank);
        let data = rank_data(&runs, rank);
        let mut pos = 0usize;
        for &(off, len) in &runs {
            assert_eq!(
                &bytes[off as usize..(off + len) as usize],
                &data[pos..pos + len as usize],
                "rank {rank} run at {off} corrupted"
            );
            pos += len as usize;
        }
    }
}

// ---- the independent request path against the parent commit ---------------

/// Independent requests issued straight at the PFS. `test_small` stripes
/// are 1 KiB over 4 servers.
const INDEP_OPS: [(u64, u64); 8] = [
    (100, 512),       // inside one stripe
    (1024, 1024),     // exactly one aligned stripe
    (2048, 4096),     // aligned, every server once
    (300, 5000),      // ragged, wraps past the last server
    (9000, 7000),     // more stripes than servers
    (20_000, 1),      // one byte
    (21_503, 2),      // straddles a stripe boundary
    (40_960, 12_288), // three full rounds of the servers
];

/// Every `IoFailure` the program below met, as `op:completed:kind:server;`,
/// recorded at the commit before striping became an iterator. The fault
/// draws depend only on `(seed, server, ops)`, so parity does not move it.
const GOLDEN_FAILURES: &str = "w0:383:Short { bytes_done: 383 }:0;\
w3:2009:Short { bytes_done: 261 }:2;w3:0:Transient:2;w3:1284:Short { bytes_done: 521 }:3;\
w3:1527:Transient:1;w3:104:Short { bytes_done: 104 }:1;w3:0:Transient:1;w4:216:Transient:1;\
w4:5120:Short { bytes_done: 1024 }:2;w4:1426:Short { bytes_done: 402 }:3;w5:0:Transient:3;\
w6:0:Transient:0;w7:4709:Short { bytes_done: 1637 }:0;w7:2459:Transient:3;\
v:8232:Short { bytes_done: 1360 }:3;r3:2772:Transient:3;r4:1826:Short { bytes_done: 586 }:2;\
r4:1462:Transient:0;r7:4604:Short { bytes_done: 1532 }:0;r7:6115:Short { bytes_done: 1503 }:2;\
r7:0:Transient:2;";
const GOLDEN_FILE_FNV: u64 = 0x190c_f157_47fc_2c9a;
/// Final client clock in virtual nanoseconds, parity off and on. Re-recorded
/// (from 37 098 146 and 66 132 706) when the vectored request took the
/// contiguous write's client-link price.
const GOLDEN_CLOCK: [u64; 2] = [37_092_026, 66_126_586];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn payload(off: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| ((off + i) * 31 % 251) as u8).collect()
}

/// Drop the first `skip` payload bytes from a run list.
fn runs_after(runs: &[Run], mut skip: u64) -> Vec<Run> {
    runs.iter()
        .filter_map(|&(off, len)| {
            let cut = skip.min(len);
            skip -= cut;
            (cut < len).then_some((off + cut, len - cut))
        })
        .collect()
}

/// Write every op, rewrite three of them as one vectored request, read
/// every op back, resuming each request after a failure the way a retry
/// ladder does. Returns the failure transcript, the file's hash and the
/// final clock.
fn indep_transcript(parity: bool) -> (String, u64, u64) {
    let mut cfg = SimConfig::test_small();
    cfg.faults = FaultPlan::from_spec("transient=0.1,short=0.1").unwrap();
    cfg.parity = parity;
    let pfs = Pfs::new(cfg, StorageMode::Full);
    let f = pfs.create("golden");
    let backoff = Time::from_micros(50);
    let mut log = String::new();
    let mut t = Time::ZERO;
    for (op, &(off, len)) in INDEP_OPS.iter().enumerate() {
        let data = payload(off, len);
        let mut resume = 0usize;
        while let Err(e) = f
            .try_write(
                t,
                &[(off + resume as u64, len - resume as u64)],
                &[(&data[resume..]).into()],
            )
            .map(|c| t = c.durable)
        {
            log.push_str(&format!("w{op}:{}:{:?}:{};", e.completed, e.kind, e.server));
            resume += e.completed as usize;
            t = e.time + backoff;
        }
    }
    let runs: Vec<Run> = vec![INDEP_OPS[0], (2048, 1024), INDEP_OPS[4]];
    let data: Vec<u8> = runs.iter().flat_map(|&(o, l)| payload(o, l)).collect();
    let mut resume = 0u64;
    while let Err(e) = f
        .try_write(
            t,
            &runs_after(&runs, resume),
            &[(&data[resume as usize..]).into()],
        )
        .map(|c| t = c.durable)
    {
        log.push_str(&format!("v:{}:{:?}:{};", e.completed, e.kind, e.server));
        resume += e.completed;
        t = e.time + backoff;
    }
    for (op, &(off, len)) in INDEP_OPS.iter().enumerate() {
        let mut buf = vec![0xAAu8; len as usize];
        let mut resume = 0usize;
        while let Err(e) = f
            .try_read(
                t,
                &[(off + resume as u64, len - resume as u64)],
                &mut [&mut buf[resume..]],
            )
            .map(|done| t = done)
        {
            log.push_str(&format!("r{op}:{}:{:?}:{};", e.completed, e.kind, e.server));
            resume += e.completed as usize;
            t = e.time + backoff;
        }
        assert_eq!(buf, payload(off, len), "read {op} returned wrong bytes");
    }
    (log, fnv(&f.to_bytes()), t.as_nanos())
}

/// Single- and multi-stripe independent writes and reads under transient
/// and short faults fail at the same bytes, with the same fault on the same
/// server, leave the same file and finish at the same virtual nanosecond
/// as they did when every request built its per-server chunk vectors.
#[test]
fn independent_requests_under_faults_match_the_recorded_run() {
    for (parity, clock) in [false, true].into_iter().zip(GOLDEN_CLOCK) {
        let (log, file, t) = indep_transcript(parity);
        assert_eq!(log, GOLDEN_FAILURES, "parity {parity}: failure sequence");
        assert_eq!(file, GOLDEN_FILE_FNV, "parity {parity}: file bytes");
        assert_eq!(t, clock, "parity {parity}: final clock");
    }
}
