//! The collective buffer is allocated once per open file and never
//! cleared, between windows or between calls, so the two-phase engine has
//! to uphold one rule by construction: every byte it hands to the PFS was
//! written by a piece or by that window's own read-modify-write read. These
//! tests try to make a previous window show through — run lists with
//! holes, partial stripes and ranks overwriting each other, at collective
//! buffers of one and three stripes so that every collective takes many
//! windows — and compare the file with an oracle that knows nothing of
//! windows: the old content, overlaid rank by rank (highest rank wins).

use hpc_sim::{FaultPlan, SimConfig};
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// `SimConfig::test_small` stripes are 1 KiB on 4 servers.
const STRIPE: usize = 1024;
/// The runs live in the first 12 stripes; the file starts out 10 long, so
/// the last windows read-modify-write past the end of the file.
const REGION: u64 = 12 * STRIPE as u64;
const OLD_LEN: usize = 10 * STRIPE;

/// xorshift64*: the run lists must not depend on a crate's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }
}

/// Sorted, disjoint runs with holes between them: lengths from a few bytes
/// to a stripe and a half, so runs start and end mid-stripe, span stripe
/// (= window) boundaries, and leave whole stripes untouched.
fn runs_for(rng: &mut Rng) -> Vec<Run> {
    let mut out = Vec::new();
    let mut at = rng.below(900);
    loop {
        let len = 1 + rng.below(1500);
        if at + len > REGION {
            return out;
        }
        out.push((at, len));
        at += len + 1 + rng.below(2200);
    }
}

fn old_content() -> Vec<u8> {
    (0..OLD_LEN).map(|i| 0x80 | (i % 127) as u8).collect()
}

/// Rank `r`'s payload: values below 0x80 (the old content is all above),
/// different for every rank and position.
fn payload(runs: &[Run], rank: usize) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| ((i * 7 + rank as u64 * 29) % 0x7f) as u8 + 1)
        .collect()
}

/// Old content overlaid in rank order, byte by byte.
fn oracle(per_rank: &[Vec<Run>]) -> Vec<u8> {
    let mut want = old_content();
    for (rank, runs) in per_rank.iter().enumerate() {
        let data = payload(runs, rank);
        let mut pos = 0usize;
        for &(off, len) in runs {
            for i in 0..len as usize {
                let at = off as usize + i;
                if at >= want.len() {
                    want.resize(at + 1, 0);
                }
                want[at] = data[pos + i];
            }
            pos += len as usize;
        }
    }
    want
}

/// Pre-fill the file, write every rank's runs in one collective, return
/// the file's bytes.
fn write_collectively(cfg: &SimConfig, per_rank: &[Vec<Run>], info: &Info) -> Vec<u8> {
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    pfs.create("f").import_bytes(&old_content());
    let (pfs_in, per_rank, info) = (pfs.clone(), per_rank.to_vec(), info.clone());
    run_world(per_rank.len(), cfg.clone(), move |c| {
        let f = MpiFile::open(c, &pfs_in, "f", OpenMode::ReadWrite, &info).unwrap();
        let runs = &per_rank[c.rank()];
        f.write_runs_at_all(runs, &payload(runs, c.rank())).unwrap();
    });
    pfs.open("f").unwrap().to_bytes()
}

fn toggle(on: bool) -> &'static str {
    if on {
        "enable"
    } else {
        "disable"
    }
}

/// Every engine × buffer size × rank count, several run lists each.
fn for_each_configuration(mut check: impl FnMut(&[Vec<Run>], &Info, &str)) {
    for nranks in [2usize, 3, 4] {
        for cb_stripes in [1usize, 3] {
            for pipeline in [true, false] {
                for seed in 1..=16u64 {
                    let mut rng = Rng(seed * 0x9e37_79b9 + nranks as u64);
                    let per_rank: Vec<Vec<Run>> = (0..nranks).map(|_| runs_for(&mut rng)).collect();
                    let info = Info::new()
                        .with("cb_buffer_size", &(cb_stripes * STRIPE).to_string())
                        .with("pnc_cb_pipeline", toggle(pipeline));
                    let what = format!(
                        "{nranks} ranks, cb {cb_stripes} stripes, pipeline {pipeline}, seed {seed}"
                    );
                    check(&per_rank, &info, &what);
                }
            }
        }
    }
}

#[test]
fn no_byte_of_an_earlier_window_survives_in_a_hole() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    for_each_configuration(|per_rank, info, what| {
        let got = write_collectively(&cfg, per_rank, info);
        assert!(
            got == oracle(per_rank),
            "file differs from the oracle: {what}"
        );
    });
    // The premise: windows did share buffers, and holes did force RMW.
    let snap = cfg.profile.snapshot();
    assert!(snap.bytepath.collbuf_reuses > 1000, "{:?}", snap.bytepath);
    assert!(snap.twophase.rmw_windows > 100, "{:?}", snap.twophase);
}

/// The same under injected transient and short faults: a failed window
/// write is retried from the collective buffer, a short read-modify-write
/// read resumes into it, and the file still matches the oracle.
#[test]
fn retried_windows_are_rewritten_from_the_reused_buffer() {
    let mut cfg = SimConfig::test_small();
    cfg.faults = FaultPlan::from_spec("transient=0.08,short=0.08").unwrap();
    cfg.profile.set_enabled(true);
    for_each_configuration(|per_rank, info, what| {
        let got = write_collectively(&cfg, per_rank, info);
        assert!(
            got == oracle(per_rank),
            "file differs from the oracle: {what}"
        );
    });
    let f = cfg.profile.fault_counters();
    assert!(f.retries > 100 && f.short_completions > 0, "{f:?}");
    assert_eq!(f.exhausted, 0, "{f:?}");
}

/// Read side: a window's spanning read lands in the reused buffer and is
/// scattered from there; every reader must get the file's bytes at its
/// runs, never what an earlier window left at that position.
#[test]
fn readers_never_see_an_earlier_windows_bytes() {
    let cfg = SimConfig::test_small();
    let content: Vec<u8> = (0..REGION).map(|i| (i * 131 % 251) as u8).collect();
    for_each_configuration(|per_rank, info, what| {
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        pfs.create("f").import_bytes(&content);
        let (runs_in, info) = (per_rank.to_vec(), info.clone());
        let run = run_world(per_rank.len(), cfg.clone(), move |c| {
            let f = MpiFile::open(c, &pfs, "f", OpenMode::ReadOnly, &info).unwrap();
            f.read_runs_at_all(&runs_in[c.rank()]).unwrap()
        });
        for (rank, runs) in per_rank.iter().enumerate() {
            let want: Vec<u8> = runs
                .iter()
                .flat_map(|&(off, len)| content[off as usize..(off + len) as usize].to_vec())
                .collect();
            assert!(
                run.results[rank] == want,
                "rank {rank} read wrong bytes: {what}"
            );
        }
    });
}

/// The buffer outlives the call: what lies in it when a collective begins
/// is what an earlier collective on the same open file left there. Only
/// holes pass through it, so the first call writes one byte in every 64
/// far behind the region, over a stretch that holds `0xff` (a value
/// neither the old content nor any payload holds): every one of its
/// windows reads the `0xff` around its pieces into the buffer, the first
/// allocating it. The second call writes the runs with holes, the third
/// reads them back, and neither allocates. Holes come from the file, never
/// from what the first call's reads left in the buffer.
#[test]
fn no_byte_of_an_earlier_collective_survives_in_a_later_one() {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    // Behind the region: zeros up to 2 * REGION, then REGION bytes of 0xff.
    let mut old = old_content();
    old.resize(2 * REGION as usize, 0);
    old.resize(3 * REGION as usize, 0xff);
    let counts = |p: &hpc_sim::Profile| {
        let snap = p.snapshot();
        let (t, b) = (snap.twophase, snap.bytepath);
        [t.windows, t.rmw_windows, b.collbuf_reuses]
    };
    for_each_configuration(|per_rank, info, what| {
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        pfs.create("f").import_bytes(&old);
        let (pfs_in, runs_in, info) = (pfs.clone(), per_rank.to_vec(), info.clone());
        let before = counts(&cfg.profile);
        let run = run_world(per_rank.len(), cfg.clone(), move |c| {
            let f = MpiFile::open(c, &pfs_in, "f", OpenMode::ReadWrite, &info).unwrap();
            let share = REGION / c.size() as u64;
            let base = 2 * REGION + c.rank() as u64 * share;
            let behind: Vec<Run> = (0..share.div_ceil(64))
                .map(|i| (base + i * 64, 1))
                .collect();
            f.write_runs_at_all(&behind, &vec![1u8; behind.len()])
                .unwrap();
            // Every rank has left the first call, which counted its
            // windows before any did, and none has entered the second.
            let first = counts(&c.config().profile);
            c.barrier().unwrap();
            let runs = &runs_in[c.rank()];
            f.write_runs_at_all(runs, &payload(runs, c.rank())).unwrap();
            (behind, first, f.read_runs_at_all(runs).unwrap())
        });
        let (got, mut want) = (pfs.open("f").unwrap().to_bytes(), oracle(per_rank));
        want.resize(2 * REGION as usize, 0);
        want.resize(3 * REGION as usize, 0xff);
        for (behind, ..) in &run.results {
            behind.iter().for_each(|&(off, _)| want[off as usize] = 1);
        }
        assert!(got == want, "file differs from the oracle: {what}");
        for (rank, (_, _, read)) in run.results.iter().enumerate() {
            let at = |&(off, len): &Run| want[off as usize..(off + len) as usize].to_vec();
            let runs = &per_rank[rank];
            assert!(
                *read == runs.iter().flat_map(at).collect::<Vec<u8>>(),
                "rank {rank} read wrong bytes: {what}"
            );
        }
        // The premise: every window of the first call has holes, and the
        // first of them allocates the buffer; no window of the two later
        // calls allocates.
        let first = run.results[0].1;
        let [windows, rmw, reuses] = [0, 1, 2].map(|k| first[k] - before[k]);
        assert!(
            windows > 0 && rmw == windows,
            "{what}: {windows} windows, {rmw} holed"
        );
        assert_eq!(reuses, windows - 1, "{what}");
        let [windows, _, reuses] = {
            let after = counts(&cfg.profile);
            [0, 1, 2].map(|k| after[k] - first[k])
        };
        assert_eq!(reuses, windows, "{what}");
    });
}
