//! Trace smoke: the 64-rank FLASH checkpoint written with
//! `pnc_trace_events=enable` passed through the MPI_Info hint path.
//!
//! Validates the observability tentpole end to end: the run records spans
//! on every rank covering ≥95% of its wall clock, the Chrome
//! `trace_event` export is well-formed (complete spans only, non-negative
//! durations, metadata/flow events typed correctly), and the critical-path
//! analyzer attributes every collective window to a bounding stage.
//! Artifacts land in `$PNETCDF_REPORT_DIR` (`trace_smoke.trace.json`,
//! `trace_smoke.critical_path.json`).
//!
//! Usage: `cargo run --release -p pnetcdf-bench --bin trace_smoke`

use flash_io::{run_flash_io_mode, FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::events::{critical_path, stage};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf_bench::report::{write_report, write_trace};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 64;
const BLOCKS_PER_PROC: u64 = 8;

fn main() {
    println!("# Trace smoke: FLASH checkpoint 8x8x8, {NPROCS} procs, pnc_trace_events=enable");
    let config = FlashConfig {
        nxb: 8,
        nprocs: NPROCS,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc: BLOCKS_PER_PROC,
        attributes: false,
    };
    let sim = SimConfig::asci_frost();
    let pfs = Pfs::new(sim.clone(), StorageMode::CostOnly);
    let mode = WriteMode::CollectiveHints {
        info: vec![
            ("cb_buffer_size".into(), (1024 * 1024).to_string()),
            ("pnc_trace_events".into(), "enable".into()),
        ],
    };
    let res = run_flash_io_mode(config, sim.clone(), &pfs, mode);
    let snap = sim.events.snapshot();
    assert!(
        !snap.spans.is_empty(),
        "the hint must switch the recorder on"
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

    // Coverage: each rank's spans tile ≥95% of its wall clock.
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
    write_trace("trace_smoke.trace.json", &chrome);

    // Critical path: every window attributed, all stage keys reported.
    let cp = critical_path(&snap);
    print!("{}", cp.render());
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
    write_report("trace_smoke.critical_path.json", &cp.to_json());
    println!(
        "trace smoke OK: {} spans, {} complete events, {} windows, dominant stage {}",
        snap.spans.len(),
        complete,
        cp.windows.len(),
        cp.dominant.unwrap_or("none"),
    );
}
