//! The typed, lent request of the collective data path: what a rank hands
//! to `write_runs_at_all` / `read_runs_at_all` crosses the rendezvous as a
//! borrowed `(runs, payload, destination, trace id)` — no byte parcel, no
//! decode step. These tests pin what the old parcel codec's tests pinned,
//! at the interface that replaced it: the trace id reaches every rank's
//! collective span, malformed requests are rejected before the rendezvous
//! (never inside it, where one rank's error would strand the others), and
//! bytes lent on one side come back on the other.

use proptest::collection::vec;
use proptest::prelude::*;

use hpc_sim::{SimConfig, Span, TraceCtx};
use pnetcdf_format::swap::swap_to_vec;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, MpioError, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: usize = 3;

/// Rank `r`'s runs: three 40-byte pieces interleaved with the other ranks'.
fn interleaved(r: usize) -> Vec<Run> {
    (0..3).map(|i| ((i * NPROCS + r) as u64 * 40, 40)).collect()
}

fn payload(runs: &[Run], seed: u8) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
        .collect()
}

/// The trace id each rank enters the collective under: distinct per rank,
/// and nothing the recorder would hand out itself in so short a run.
fn request_id(rank: usize) -> u64 {
    9_000 + rank as u64
}

/// One traced collective write and read-back by every rank, each under its
/// own ambient request id; returns the `coll_*` spans.
fn traced_collectives(info: Info) -> Vec<Span> {
    let cfg = SimConfig::test_small();
    cfg.events.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    run_world(NPROCS, cfg.clone(), move |c| {
        let f = MpiFile::open(c, &pfs, "t", OpenMode::Create, &info).unwrap();
        let runs = interleaved(c.rank());
        let data = payload(&runs, c.rank() as u8);
        let _ctx = TraceCtx::enter(c.world_rank(), request_id(c.rank()));
        f.write_runs_at_all(&runs, &data).unwrap();
        assert_eq!(f.read_runs_at_all(&runs).unwrap(), data);
    });
    let mut spans = cfg.events.snapshot().spans;
    spans.retain(|s| s.name == "coll_write" || s.name == "coll_read");
    spans
}

/// Every rank has exactly one `name` span, parented to the id it lent.
fn assert_parented_per_rank(spans: &[Span], name: &str) {
    for rank in 0..NPROCS {
        let mine: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == name && s.rank == rank)
            .collect();
        assert_eq!(mine.len(), 1, "rank {rank}: one {name} span");
        assert_eq!(
            mine[0].parent,
            request_id(rank),
            "rank {rank}'s {name} span must parent to the id that rank lent"
        );
    }
}

#[test]
fn trace_id_reaches_the_coll_write_span_of_every_rank() {
    let spans = traced_collectives(Info::new().with("cb_buffer_size", "64"));
    assert_parented_per_rank(&spans, "coll_write");
}

#[test]
fn trace_id_reaches_the_coll_read_span_of_every_rank() {
    let spans = traced_collectives(
        Info::new()
            .with("cb_buffer_size", "64")
            .with("pnc_cb_pipeline", "disable"),
    );
    assert_parented_per_rank(&spans, "coll_read");
}

/// A run list that does not describe its payload never reaches the
/// rendezvous: every rank gets `InvalidArgument` from `check_runs`, no
/// collective is counted, and the communicator is still usable.
#[test]
fn mismatched_payload_is_rejected_before_the_rendezvous_on_every_rank() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // The profile's rendezvous counter is shared, so the ranks take their
    // readings between two gates that are not themselves MPI collectives.
    let gate = std::sync::Barrier::new(NPROCS);
    let run = run_world(NPROCS, cfg, |c| {
        let entries = || c.config().profile.mpi_counters().rendezvous;
        let f = MpiFile::open(c, &pfs, "t", OpenMode::Create, &Info::new()).unwrap();
        gate.wait();
        let before = entries();
        let runs = interleaved(c.rank());
        let short = payload(&runs, 0)[..100].to_vec();
        let res = f.write_runs_at_all(&runs, &short);
        let entered = entries() - before;
        gate.wait();
        let err = res.unwrap_err();
        assert!(matches!(err, MpioError::InvalidArgument(_)), "{err:?}");
        assert!(err.to_string().contains("covers 120 bytes"), "{err}");
        // Still in step with the others: a real collective goes through.
        f.write_runs_at_all(&runs, &payload(&runs, 1)).unwrap();
        entered
    });
    assert_eq!(run.results, vec![0; NPROCS], "no rank entered a collective");
}

/// Unsorted or overlapping runs are rejected the same way, on the read
/// path too (where the destination is sized from the runs themselves).
#[test]
fn unsorted_runs_are_rejected_before_the_rendezvous_on_every_rank() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let gate = std::sync::Barrier::new(NPROCS);
    run_world(NPROCS, cfg, |c| {
        let entries = || c.config().profile.mpi_counters().rendezvous;
        let f = MpiFile::open(c, &pfs, "t", OpenMode::Create, &Info::new()).unwrap();
        gate.wait();
        let before = entries();
        let backwards: Vec<Run> = vec![(100, 10), (50, 10)];
        let overlapping: Vec<Run> = vec![(0, 10), (5, 10)];
        // A run that ends past the largest offset: an unchecked `off + len`
        // wraps to 5 and lets the backwards run behind it through.
        let past_the_end: Vec<Run> = vec![(u64::MAX - 4, 10), (6, 10)];
        for bad in [&backwards, &overlapping, &past_the_end] {
            let e = f.write_runs_at_all(bad, &[0u8; 20]).unwrap_err();
            assert!(matches!(e, MpioError::InvalidArgument(_)), "{e:?}");
            let e = f.read_runs_at_all(bad).unwrap_err();
            assert!(matches!(e, MpioError::InvalidArgument(_)), "{e:?}");
            let e = f.read_runs_into_all(bad, &mut [0u8; 20]).unwrap_err();
            assert!(matches!(e, MpioError::InvalidArgument(_)), "{e:?}");
        }
        assert_eq!(entries(), before);
    });
}

/// `MPI_Offset` is a signed 64-bit integer, so no run may end past
/// `i64::MAX`. A run in the last stripe of the `u64` offset space used to
/// overflow the striping and page arithmetic of every independent door (a
/// panic, or a server loop that never ended); now it is refused before any
/// of that, by the cached and the uncached doors and by the collective
/// write, on every rank — as is the first run that ends one byte too far.
#[test]
fn runs_ending_past_the_largest_mpi_offset_are_rejected_by_every_door() {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let too_far: [[Run; 1]; 2] = [[(u64::MAX - 10, 5)], [(i64::MAX as u64 - 4, 5)]];
    fn invalid<T: std::fmt::Debug>(res: Result<T, MpioError>, door: &str) {
        let e = res.unwrap_err();
        assert!(matches!(e, MpioError::InvalidArgument(_)), "{door}: {e:?}");
    }
    run_world(NPROCS, cfg, |c| {
        for cache in ["disable", "enable"] {
            let info = Info::new().with("pnc_cache", cache);
            let f = MpiFile::open(c, &pfs, cache, OpenMode::Create, &info).unwrap();
            for runs in &too_far {
                invalid(f.write_runs_at(runs, &[7u8; 5]), "write_runs_at");
                invalid(f.read_runs_into(runs, &mut [0u8; 5]), "read_runs_into");
                invalid(f.write_runs_at_all(runs, &[7u8; 5]), "write_runs_at_all");
            }
        }
    });
}

/// With collective buffering disabled the same loans feed the per-rank
/// independent fallback: payloads are read, and destinations filled, where
/// the ranks keep them.
#[test]
fn disabled_collective_buffering_serves_the_same_loans() {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs_in = pfs.clone();
    let info = Info::new()
        .with("romio_cb_write", "disable")
        .with("romio_cb_read", "disable");
    run_world(NPROCS, cfg, move |c| {
        let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
        let runs = interleaved(c.rank());
        let data = payload(&runs, c.rank() as u8);
        f.write_runs_at_all(&runs, &data).unwrap();
        // Read the next rank's pieces: they come from its payload.
        let peer = (c.rank() + 1) % NPROCS;
        let got = f.read_runs_at_all(&interleaved(peer)).unwrap();
        assert_eq!(got, payload(&interleaved(peer), peer as u8));
    });
    let bytes = pfs.open("t").unwrap().to_bytes();
    assert_eq!(bytes.len(), 3 * NPROCS * 40);
}

/// A payload lent in host byte order with its element width reaches the
/// file big-endian by every door that stores one, each converting piece by
/// piece where it stores it: two-phase windows (a 50-byte buffer cuts
/// elements of every width); each rank's sieve when collective buffering is
/// off; and the independent door — sieved, unsieved, in sieve windows that
/// hold one run (50 bytes) or cut one inside an element (150 bytes), and
/// through the page cache, whose 1 KiB pages cut rank 2's first element
/// (the runs start at `BASE`). A width the payload, or one segment of it,
/// cannot hold is rejected before anything moves.
#[test]
fn native_loans_reach_the_file_in_external_order() {
    const BASE: u64 = 940;
    let file_after = |native: bool, collective: bool, hints: &[(&str, &str)]| -> Vec<u8> {
        let cfg = SimConfig::test_small();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs_in = pfs.clone();
        let info = Info::new().with("cb_buffer_size", "50");
        let info = hints.iter().fold(info, |info, &(k, v)| info.with(k, v));
        run_world(NPROCS, cfg, move |c| {
            let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
            let runs: Vec<Run> = interleaved(c.rank())
                .into_iter()
                .map(|(off, len)| (BASE + off, len))
                .collect();
            let data = payload(&runs, c.rank() as u8);
            let width = [2, 4, 8][c.rank()];
            if !native {
                f.write_runs_at_all(&runs, &swap_to_vec(&data, width))
                    .unwrap();
                return;
            }
            let write = |runs: &[Run], segs: &[&[u8]], width| match collective {
                true => f.write_native_runs_at_all(runs, segs, width),
                false => f.write_native_runs_at(runs, segs, width),
            };
            for bad in [0, 3, 16] {
                let e = write(&runs, &[&data], bad).unwrap_err();
                assert!(matches!(e, MpioError::InvalidArgument(_)), "{e:?}");
            }
            let e = write(&[(BASE, 6)], &[&data[..6]], 4);
            assert!(matches!(e, Err(MpioError::InvalidArgument(_))), "{e:?}");
            // Whole elements in all, but not in each segment: a piece
            // could not tell where in its element a byte lies.
            let ragged = [&data[..6], &data[6..]];
            let e = write(&runs, &ragged, 4);
            assert!(matches!(e, Err(MpioError::InvalidArgument(_))), "{e:?}");
            // Rank 0 lends its payload whole, the others as a gather list.
            let gathered = [&data[..40], &data[40..]];
            let segs: &[&[u8]] = if c.rank() == 0 { &[&data] } else { &gathered };
            write(&runs, segs, width).unwrap();
            if !collective {
                f.sync().unwrap();
            }
        });
        pfs.open("t").unwrap().to_bytes()
    };
    let want = file_after(false, true, &[]);
    assert_eq!(want.len(), BASE as usize + 3 * NPROCS * 40);
    for cb_write in ["enable", "disable"] {
        let got = file_after(true, true, &[("romio_cb_write", cb_write)]);
        assert!(got == want, "romio_cb_write={cb_write}");
    }
    for hint in [
        ("romio_ds_write", "enable"),
        ("romio_ds_write", "disable"),
        ("ind_wr_buffer_size", "50"),
        ("ind_wr_buffer_size", "150"),
        ("pnc_cache", "enable"),
    ] {
        assert!(file_after(true, false, &[hint]) == want, "{hint:?}");
    }
}

/// Ranks opened with different `romio_cb_write` meet in one collective
/// write, and the last to arrive decides how it is served. When that is a
/// rank with collective buffering off, every rank's sieve writes its own
/// loan as it was lent — here a peer's two segments of 8-byte elements in
/// host byte order — and the file is the one collective buffering writes.
/// The rank arrives last after a host sleep; a run in which it still did
/// not (no `ind_write` span) is repeated, a few times at most.
#[test]
fn a_sieve_finisher_writes_every_loan_as_it_was_lent() {
    // The file, and whether each rank's sieve wrote it.
    let file_after = |disabled_rank: Option<usize>| -> (Vec<u8>, bool) {
        let cfg = SimConfig::test_small();
        cfg.events.set_enabled(true);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs_in = pfs.clone();
        run_world(2, cfg.clone(), move |c| {
            let last = disabled_rank == Some(c.rank());
            let cb_write = if last { "disable" } else { "enable" };
            let info = Info::new().with("romio_cb_write", cb_write);
            let f = MpiFile::open(c, &pfs_in, "t", OpenMode::Create, &info).unwrap();
            let runs: Vec<Run> = (0..3)
                .map(|i| ((2 * i + c.rank()) as u64 * 48, 48))
                .collect();
            let data = payload(&runs, c.rank() as u8);
            if last {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            f.write_native_runs_at_all(&runs, &[&data[..64], &data[64..]], 8)
                .unwrap();
        });
        let sieved = cfg
            .events
            .snapshot()
            .spans
            .iter()
            .any(|s| s.name == "ind_write");
        (pfs.open("t").unwrap().to_bytes(), sieved)
    };
    let (want, sieved) = file_after(None);
    assert!(want.len() == 6 * 48 && !sieved);
    let mut sieved_runs = 0;
    for _ in 0..5 {
        let (got, sieved) = file_after(Some(1));
        assert!(got == want);
        sieved_runs += sieved as usize;
        if sieved {
            break;
        }
    }
    assert_eq!(sieved_runs, 1, "the rank that sleeps never arrived last");
}

/// Sorted, disjoint run lists (possibly empty) inside a small region.
fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
    vec((1u64..200, 1u64..90), 0..8).prop_map(|steps| {
        let mut at = 0u64;
        steps
            .into_iter()
            .map(|(gap, len)| {
                let run = (at + gap, len);
                at += gap + len;
                run
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A lent destination receives exactly the file's bytes at its runs,
    /// in run order — for overlapping readers, readers with nothing to
    /// read, and windows far smaller than the request.
    #[test]
    fn lent_destinations_receive_the_file_bytes_in_run_order(
        per_rank in vec(arb_runs(), 1..5),
        cb_buffer in 16usize..400,
        pipeline in any::<bool>(),
    ) {
        let cfg = SimConfig::test_small();
        let content: Vec<u8> = (0..2400u32).map(|i| (i % 239) as u8 ^ 0x5a).collect();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        pfs.create("t").import_bytes(&content);
        let info = Info::new()
            .with("cb_buffer_size", &cb_buffer.to_string())
            .with("pnc_cb_pipeline", if pipeline { "enable" } else { "disable" });
        let runs_in = per_rank.clone();
        let run = run_world(per_rank.len(), cfg, move |c| {
            let f = MpiFile::open(c, &pfs, "t", OpenMode::ReadOnly, &info).unwrap();
            f.read_runs_at_all(&runs_in[c.rank()]).unwrap()
        });
        for (rank, runs) in per_rank.iter().enumerate() {
            let want: Vec<u8> = runs
                .iter()
                .flat_map(|&(off, len)| content[off as usize..(off + len) as usize].to_vec())
                .collect();
            prop_assert_eq!(&run.results[rank], &want, "rank {}", rank);
        }
    }

    /// A lent payload lands at its runs and nowhere else: bytes no rank
    /// wrote keep the file's old content (or read as zeros past its end).
    #[test]
    fn lent_payloads_land_at_their_runs_and_nowhere_else(
        per_rank in vec(arb_runs(), 1..5),
        cb_buffer in 16usize..400,
    ) {
        let cfg = SimConfig::test_small();
        let old: Vec<u8> = (0..1500u32).map(|i| (i % 233) as u8 | 0x80).collect();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        pfs.create("t").import_bytes(&old);
        let info = Info::new().with("cb_buffer_size", &cb_buffer.to_string());
        let (pfs_in, runs_in) = (pfs.clone(), per_rank.clone());
        run_world(per_rank.len(), cfg, move |c| {
            let f = MpiFile::open(c, &pfs_in, "t", OpenMode::ReadWrite, &info).unwrap();
            let runs = &runs_in[c.rank()];
            f.write_runs_at_all(runs, &payload(runs, c.rank() as u8)).unwrap();
        });
        // Oracle: old content, then every rank's payload in rank order.
        let mut want = old.clone();
        for (rank, runs) in per_rank.iter().enumerate() {
            let data = payload(runs, rank as u8);
            let mut pos = 0usize;
            for &(off, len) in runs {
                let (off, len) = (off as usize, len as usize);
                if want.len() < off + len {
                    want.resize(off + len, 0);
                }
                want[off..off + len].copy_from_slice(&data[pos..pos + len]);
                pos += len;
            }
        }
        prop_assert_eq!(pfs.open("t").unwrap().to_bytes(), want);
    }
}
