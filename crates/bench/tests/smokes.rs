//! The FLASH checkpoint at 64 processors on the Frost-like platform under
//! everything the stack can do to it: injected faults, a server crash with
//! and without parity, the serial and the pipelined two-phase engines,
//! request tracing; and a small fleet of sessions on one shared cluster.
//! Each test asserts its gates on the typed counters and on byte identity.

use flash_io::{run_flash_io, writers, BlockMesh, FlashResult, OutputKind, WriteMode};
use hpc_sim::trace::events::{critical_path, stage};
use hpc_sim::trace::Json;
use hpc_sim::{CrashSpec, FaultPlan, SimConfig, Time};
use pnetcdf::{Dataset, Info};
use pnetcdf_bench::report::check_coverage;
use pnetcdf_bench::service::run_fleet;
use pnetcdf_bench::workload::{checkpoint, flash_bytes};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;

/// The checkpoint on a fully stored file system under `sim`: the bytes of
/// the file, and the result.
fn checkpoint_bytes(
    sim: &SimConfig,
    blocks_per_proc: u64,
    mode: WriteMode,
) -> (Vec<u8>, FlashResult) {
    let config = checkpoint(NPROCS, blocks_per_proc);
    let (res, pfs) = run_flash_io(config, sim, StorageMode::Full, mode);
    (flash_bytes(&pfs), res)
}

fn frost_profiled(faults: FaultPlan) -> SimConfig {
    let sim = SimConfig {
        faults,
        ..SimConfig::asci_frost()
    };
    sim.profile.set_enabled(true);
    sim
}

/// A plan written as a spec, which must also survive `Display`.
fn plan(spec: &str) -> FaultPlan {
    let plan = FaultPlan::from_spec(spec).expect("valid spec");
    assert_eq!(
        FaultPlan::from_spec(&plan.to_string()).expect("display reparses"),
        plan,
        "{spec} does not round-trip through Display"
    );
    plan
}

/// Storage faults under the checkpoint: the retry/backoff layer hides
/// transient and short I/O byte-exactly; a permanent crash without parity
/// ends every rank with the same error in bounded virtual time; two crash
/// windows with restarts inside the ladder's reach recover.
#[test]
fn faults_are_hidden_or_agreed_on() {
    const BLOCKS_PER_PROC: u64 = 4;
    let (clean_bytes, clean) = checkpoint_bytes(
        &frost_profiled(FaultPlan::default()),
        BLOCKS_PER_PROC,
        WriteMode::default(),
    );

    // Transient + short faults on every server op; recovery is byte-exact.
    let faulty_sim = frost_profiled(plan("transient=0.05,short=0.05"));
    let (faulty_bytes, faulty) =
        checkpoint_bytes(&faulty_sim, BLOCKS_PER_PROC, WriteMode::default());
    assert!(
        clean_bytes == faulty_bytes,
        "recovered faults changed the file contents"
    );
    let fc = faulty_sim.profile.fault_counters();
    assert!(fc.faults_injected > 0, "no faults injected: {fc:?}");
    assert!(fc.retries > 0, "recovery never retried: {fc:?}");
    assert!(fc.backoff_nanos > 0, "retries never backed off: {fc:?}");
    assert!(
        fc.short_completions > 0,
        "no short I/O resumed at its partial offset: {fc:?}"
    );
    assert_eq!(fc.exhausted, 0, "a retry budget exhausted: {fc:?}");
    // Backoff time is charged inside the disk phases: the breakdown still
    // explains the whole makespan.
    let profile = faulty_sim.profile.snapshot();
    check_coverage(&profile.to_json(faulty.time.as_nanos()), 0.05);

    // Crash without restart mid-write, no parity: the identical agreed error
    // on every rank, bounded virtual time, failover never engages.
    let crash_at = Time::from_nanos(clean.time.as_nanos() / 2);
    let crash_sim = frost_profiled(plan(&format!("crash=server:0@t>{}", crash_at.as_nanos())));
    let pfs = Pfs::new(crash_sim.clone(), StorageMode::Full);
    let mesh = BlockMesh {
        nxb: 8,
        blocks_per_proc: BLOCKS_PER_PROC,
        nprocs: NPROCS,
    };
    let run = run_world(NPROCS, crash_sim.clone(), |comm| {
        let kind = OutputKind::Checkpoint;
        match writers::pnetcdf::write(comm, &pfs, &mesh, kind, "flash_out") {
            Ok(_) => panic!("write succeeded with a permanently dead server"),
            Err(e) => format!("{e:?}"),
        }
    });
    for (rank, err) in run.results.iter().enumerate() {
        assert_eq!(
            err, &run.results[0],
            "rank {rank} returned a different error than rank 0"
        );
    }
    assert!(
        run.results[0].contains("Exhausted"),
        "expected retry exhaustion, got {}",
        run.results[0]
    );
    let bound = crash_at + Time::from_secs_f64(60.0);
    assert!(
        run.makespan < bound,
        "ranks gave up only at {:?} (bound {bound:?})",
        run.makespan
    );
    let cc = crash_sim.profile.fault_counters();
    assert!(cc.exhausted > 0 && cc.agreed_errors > 0, "{cc:?}");
    assert_eq!(
        crash_sim.profile.failover_counters(),
        Default::default(),
        "failover engaged without parity"
    );

    // Two crash windows, each with a restart the retry ladder can wait out.
    // The aggregated flush issues server requests at a handful of round
    // instants, so each window spans a broad slice of the flush period —
    // 90 ms, still inside the ~100 ms the backoff ladder can wait out.
    let w1 = Time::from_nanos(clean.time.as_nanos() * 35 / 100);
    let w2 = Time::from_nanos(clean.time.as_nanos() * 70 / 100);
    let outage = Time::from_millis(90);
    let windows_sim = frost_profiled(plan(&format!(
        "crash=server:0@t>{},restart={},crash=server:1@t>{},restart={}",
        w1.as_nanos(),
        (w1 + outage).as_nanos(),
        w2.as_nanos(),
        (w2 + outage).as_nanos(),
    )));
    let (windowed_bytes, _) = checkpoint_bytes(&windows_sim, BLOCKS_PER_PROC, WriteMode::default());
    assert!(
        clean_bytes == windowed_bytes,
        "crash windows with restarts changed the file contents"
    );
    let wc = windows_sim.profile.fault_counters();
    assert!(wc.crashed > 0, "no window was ever hit: {wc:?}");
    assert!(wc.retries > 0, "recovery never retried: {wc:?}");
    assert_eq!(wc.exhausted, 0, "a short outage exhausted: {wc:?}");
}

/// The same crash with declustered parity on (`SimConfig::parity`): it
/// escalates to an agreed `ServerLost`, every rank marks the server down at
/// the same operation, and the collective completes in degraded mode; the
/// file reads back through reconstruction and is rebuilt after the restart.
#[test]
fn parity_carries_the_checkpoint_through_a_server_crash() {
    let write = |sim: &SimConfig, parity| {
        let sim = SimConfig {
            parity,
            ..sim.clone()
        };
        let (res, pfs) = run_flash_io(
            checkpoint(NPROCS, 4),
            &sim,
            StorageMode::Full,
            WriteMode::default(),
        );
        (pfs, res.time)
    };

    // Fault-free baseline, parity on, and a parity-off twin: the overlay
    // leaves the data bytes alone and no failover counter moves.
    let base_sim = frost_profiled(FaultPlan::default());
    let (base_pfs, base_makespan) = write(&base_sim, true);
    let clean_bytes = flash_bytes(&base_pfs);
    let plain_sim = frost_profiled(FaultPlan::default());
    let (plain_pfs, _) = write(&plain_sim, false);
    assert!(
        clean_bytes == flash_bytes(&plain_pfs),
        "parity overlay changed the file bytes"
    );
    let fo = base_sim.profile.failover_counters();
    assert!(fo.parity_updates > 0, "parity never maintained: {fo:?}");
    assert_eq!(fo.epochs, 0, "fault-free run declared an epoch");
    assert_eq!(fo.degraded_reads, 0, "fault-free degraded reads");
    let pfo = plain_sim.profile.failover_counters();
    assert_eq!(pfo.parity_updates, 0, "parity-off run paid parity");

    // Crash one server mid-write; restart 30 virtual seconds later — far
    // past the retry ladder, so the ranks must escalate to failover.
    let crash_at = Time::from_nanos(base_makespan.as_nanos() / 2);
    let restart = crash_at + Time::from_secs_f64(30.0);
    let crash_sim = SimConfig {
        parity: true,
        ..frost_profiled(FaultPlan {
            crashes: vec![CrashSpec {
                server: 0,
                at: crash_at,
                restart: Some(restart),
            }],
            ..FaultPlan::default()
        })
    };
    // The same write as `write(&crash_sim, true)`, in a world of its own so
    // every rank's final clock can be pinned.
    let pfs = Pfs::new(crash_sim.clone(), StorageMode::Full);
    let mesh = BlockMesh {
        nxb: 8,
        blocks_per_proc: 4,
        nprocs: NPROCS,
    };
    let run = run_world(NPROCS, crash_sim.clone(), |comm| {
        let kind = OutputKind::Checkpoint;
        writers::pnetcdf::write(comm, &pfs, &mesh, kind, "flash_out").expect("pnetcdf write")
    });
    let makespan = run.makespan;
    assert!(
        makespan < restart,
        "degraded-mode write ({makespan:?}) dragged past the restart ({restart:?})"
    );
    assert_eq!(pfs.down_server(), Some(0), "server 0 never failed over");
    let fo = crash_sim.profile.failover_counters();
    let fc = crash_sim.profile.fault_counters();
    assert_eq!(fo.epochs, 1, "expected one server-down epoch: {fo:?}");
    assert!(fo.redirected_writes > 0, "no writes redirected: {fo:?}");
    assert!(fo.redirected_bytes > 0, "no bytes redirected: {fo:?}");
    assert!(fc.exhausted > 0, "ladder never exhausted: {fc:?}");
    assert!(fc.agreed_errors > 0, "no collective agreement: {fc:?}");

    // Degraded read-back while the server is still down: every chunk of the
    // dead server reconstructs from surviving data + parity.
    let f = pfs.open("flash_out").expect("checkpoint written");
    let t_read = makespan + Time::from_millis(1);
    assert!(t_read < restart, "read must land inside the outage");
    let mut degraded = vec![0u8; f.size() as usize];
    f.try_read(t_read, &[(0, f.size())], &mut [&mut degraded])
        .expect("degraded read must succeed without server 0");
    assert!(
        degraded == clean_bytes,
        "degraded read diverged from the fault-free file"
    );
    let fo = crash_sim.profile.failover_counters();
    assert!(fo.degraded_reads > 0, "no degraded reads: {fo:?}");
    assert!(fo.reconstructed_bytes > 0, "nothing reconstructed: {fo:?}");

    // The first access past the restart triggers the online rebuild; the
    // server rejoins and the file is byte-identical.
    let mut probe = [0u8; 1];
    f.try_read(
        restart + Time::from_secs_f64(1.0),
        &[(0, 1)],
        &mut [&mut probe],
    )
    .expect("post-restart read failed");
    assert_eq!(pfs.down_server(), None, "rebuild never cleared the mark");
    let fo = crash_sim.profile.failover_counters();
    assert_eq!(fo.rebuilds, 1, "expected one rebuild: {fo:?}");
    assert!(fo.rebuilt_bytes > 0, "rebuild moved no bytes: {fo:?}");
    assert!(
        flash_bytes(&pfs) == clean_bytes,
        "rebuilt file diverged from the fault-free run"
    );

    // Pinned before parity became a platform property: every rank's final
    // clock (ns), the failover counters and the file's FNV-1a digest.
    let clocks: Vec<u64> = run.clocks.iter().map(|t| t.as_nanos()).collect();
    let digest = flash_bytes(&pfs)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(clocks, [2_287_284_485; NPROCS], "final clocks");
    assert_eq!(
        format!("{fo:?} {digest:#018x}"),
        "FailoverCounters { degraded_reads: 1, reconstructed_bytes: 12611136, \
         redirected_writes: 5, redirected_bytes: 12609540, parity_updates: 159, \
         parity_bytes: 41680896, epochs: 1, rebuilds: 1, rebuilt_bytes: 25192452, \
         rebuild_nanos: 962388553 } 0xb12b3334c823ad48"
    );
}

/// Serial vs pipelined collective engines with a 512 KiB collective buffer
/// (small enough that each aggregator's file domain spans many rounds):
/// both byte-identical to the stock hint set, the pipelined one no slower,
/// with hidden exchange time and the dual-resource server counters in the
/// profile.
#[test]
fn pipelined_rounds_hide_exchange_time_and_keep_the_bytes() {
    const BLOCKS_PER_PROC: u64 = 8;
    const CB_BUFFER: usize = 512 * 1024;
    let frost = SimConfig::asci_frost;
    let (reference, _) = checkpoint_bytes(&frost(), BLOCKS_PER_PROC, WriteMode::default());
    let (serial_bytes, serial) = checkpoint_bytes(
        &frost(),
        BLOCKS_PER_PROC,
        WriteMode::collective_hints(CB_BUFFER, false),
    );
    assert!(
        serial_bytes == reference,
        "the serial engine produced different file contents"
    );

    let sim = frost_profiled(FaultPlan::default());
    let (pipelined_bytes, pipelined) = checkpoint_bytes(
        &sim,
        BLOCKS_PER_PROC,
        WriteMode::collective_hints(CB_BUFFER, true),
    );
    assert!(
        pipelined_bytes == reference,
        "the pipelined engine produced different file contents"
    );
    let tp = sim.profile.twophase_counters();
    assert!(
        tp.pipelined_rounds >= 2,
        "workload too small to pipeline: {tp:?}"
    );
    assert!(
        tp.overlap_saved_nanos > 0,
        "pipelining hid no exchange time: {tp:?}"
    );
    // Dual-resource server engine: the per-server stage counters and the
    // dynamically chosen aggregator count must have landed in the profile.
    let io = sim.profile.snapshot().server_totals();
    assert!(tp.cb_nodes > 0, "no aggregator count recorded: {tp:?}");
    assert!(
        io.nic_busy_nanos > 0 && io.disk_busy_nanos > 0 && io.overlap_nanos > 0,
        "server NIC/disk stages never overlapped: {io:?}"
    );
    assert!(
        io.max_queue_depth > 0,
        "no admission-queue depth recorded: {io:?}"
    );
    assert!(
        pipelined.time <= serial.time,
        "pipelined engine slower than serial ({:?} vs {:?})",
        pipelined.time,
        serial.time
    );
    let profile = sim.profile.snapshot();
    check_coverage(&profile.to_json(pipelined.time.as_nanos()), 0.05);
}

/// The platform's span recorder switched on before the run: spans on every
/// rank covering >= 95% of its clock, a well-formed Chrome `trace_event`
/// export (written where `ci.sh`'s independent parser reads it), and a
/// critical-path analysis that attributes every collective window.
#[test]
fn request_tracing_records_balanced_spans_and_bounds_every_window() {
    let mode = WriteMode::collective_hints(1024 * 1024, true);
    let sim = SimConfig::asci_frost();
    sim.events.set_enabled(true);
    let (res, _) = run_flash_io(checkpoint(NPROCS, 8), &sim, StorageMode::CostOnly, mode);
    let snap = sim.events.snapshot();
    assert!(
        !snap.spans.is_empty(),
        "the switched-on recorder must hold spans"
    );
    // Balanced: every recorded span is complete and never ends before it
    // begins.
    for s in &snap.spans {
        assert!(
            s.begin <= s.end,
            "span {} on rank {} is unbalanced ({}..{})",
            s.name,
            s.rank,
            s.begin,
            s.end
        );
    }
    for r in 0..NPROCS {
        let cov = snap.rank_coverage(r, res.time.as_nanos());
        assert!(
            cov >= 0.95,
            "rank {r} trace spans cover {:.1}% of its wall clock (< 95%)",
            cov * 100.0
        );
    }

    // Chrome export: complete (X) events with non-negative durations plus
    // metadata (M) and flow (s/f) events, nothing else.
    let chrome = snap.to_chrome();
    let events = match chrome.get("traceEvents") {
        Some(Json::Arr(evs)) => evs,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    let mut complete = 0usize;
    for e in events {
        let ph = match e.get("ph") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("event without a ph field: {other:?}"),
        };
        match ph.as_str() {
            "X" => {
                let dur = e.get("dur").and_then(Json::as_f64).expect("X event dur");
                assert!(dur >= 0.0, "negative duration in Chrome export");
                complete += 1;
            }
            "M" | "s" | "f" => {}
            other => panic!("unexpected event phase {other}"),
        }
    }
    assert!(complete > 0, "export carries no complete spans");
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/trace_smoke.trace.json");
    std::fs::write(path, chrome.pretty()).expect("writing the Chrome export");

    // Critical path: every window attributed, all stage keys reported.
    let cp = critical_path(&snap);
    assert!(
        !cp.windows.is_empty(),
        "the collective write must produce traced windows"
    );
    for key in stage::ALL {
        assert!(
            cp.totals.iter().any(|(s, _)| *s == key),
            "critical-path report missing stage key {key}"
        );
    }
    assert!(cp.dominant.is_some(), "analyzer must name a dominant stage");
    for w in &cp.windows {
        assert!(
            stage::ALL.contains(&w.bound_by),
            "window {} bound by unknown stage {}",
            w.window,
            w.bound_by
        );
    }
    assert_eq!(
        cp.bound_counts.iter().map(|(_, n)| n).sum::<u64>(),
        cp.windows.len() as u64,
        "every window is bounded by exactly one stage"
    );
}

/// 16 concurrent sessions (8 checkpoint writers, 8 strided readers over 4
/// shared datasets) on a shared 4-server cluster: cross-file contention on
/// the servers, aggregate throughput at least the best single session's, a
/// misspelled `pnc_*` hint counted as rejected, and byte counts and
/// per-session clocks identical across a rerun.
#[test]
fn a_fleet_of_sessions_shares_one_cluster_deterministically() {
    let platform = || {
        let mut cfg = SimConfig::sdsc_blue_horizon();
        cfg.io_servers = 4;
        cfg
    };
    // 4 steps of 4096 doubles (32 KiB records) per session.
    let one_run = |cfg: &SimConfig| run_fleet(cfg, 16, 4, 4, 4096);
    let cfg = platform();
    cfg.profile.set_enabled(true);
    let (run, pfs) = one_run(&cfg);

    // A malformed hint must be rejected loudly (counter + stderr line)
    // without changing behavior.
    run_world(1, cfg.clone(), |comm| {
        let info = Info::new().with("pnc_cache_sise", "65536"); // sic
        let ds = Dataset::open(comm, &pfs, "shared_0.nc", true, &info).expect("audited open");
        ds.close().expect("close");
    });
    assert!(
        cfg.profile.hints_rejected() > 0,
        "misspelled pnc_ hint was not counted as rejected"
    );

    let profile = cfg.profile.snapshot();
    let cross_total: u64 = profile
        .servers
        .iter()
        .map(|s| s.cross_file_stall_nanos)
        .sum();
    assert!(
        cross_total > 0,
        "no cross-file contention recorded on the shared servers"
    );
    let (aggregate, best) = (run.aggregate_mb_s(), run.max_session_mb_s());
    assert!(
        aggregate >= best,
        "aggregate throughput {aggregate:.1} MB/s below best single session {best:.1} MB/s"
    );

    let (run2, _) = one_run(&platform());
    assert_eq!(run.aggregate_bytes, run2.aggregate_bytes);
    for (a, b) in run.sessions.iter().zip(&run2.sessions) {
        assert_eq!((a.id, a.bytes, a.end), (b.id, b.bytes, b.end));
    }
}
