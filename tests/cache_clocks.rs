//! The *timing* and the *traffic* of the client page cache, pinned.
//! `cache_coherence` and `cache_identity` compare the cache's bytes; this
//! table pins what Figure 6/7's cache rows are made of: for three page
//! sizes × three budgets × readahead off/on × nine request shapes, a
//! one-rank program at `MpiFile` level (`write_runs_at`, `read_runs_into`,
//! `sync`, reopen) records the rank's clock after every call, the `cache.*`
//! counters, the file system's requests / seeks / bytes read / bytes
//! written, a digest of every byte the reads returned and a digest of the
//! final file — as literals.
//!
//! One rank, so the servers see the requests in program order and every
//! number repeats. A mismatch prints the row as this build computes it, in
//! the table's format: virtual time is deterministic, so any difference is
//! a change of the cache's behaviour, never noise.

use hpc_sim::SimConfig;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// `SimConfig::test_small` stripes are 1 KiB on 4 servers; page size 0 is
/// "no `pnc_page_size` hint", which is one stripe.
const PAGE_SIZES: [u64; 3] = [512, 0, 3072];
const STRIPE: u64 = 1024;
/// Budgets in pages; the last never evicts.
const BUDGETS: [u64; 3] = [1, 4, 64];
const READAHEAD: [u64; 2] = [0, 2];

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Quarter-page rows back to back, none crossing a page, then read back.
    Rows,
    /// Half-page requests, each across a page boundary.
    Straddle,
    /// Requests of up to four pages: inside a four-page budget.
    MultiPage,
    /// Requests of seven and nine pages: beyond a four-page budget.
    Beyond,
    /// Several runs of one call inside one page.
    RunsInPage,
    /// Reads of a page that holds a few dirty bytes and nothing else.
    PartlyDirty,
    /// Reads across and past the end of the file, and over a hole.
    PastEof,
    /// Write, sync, read back, write, reopen, read back.
    SyncReadBack,
    /// Dirty pages, then a sequential read stream that pushes them out.
    StreamEvictsDirty,
}

const SHAPES: [Shape; 9] = [
    Shape::Rows,
    Shape::Straddle,
    Shape::MultiPage,
    Shape::Beyond,
    Shape::RunsInPage,
    Shape::PartlyDirty,
    Shape::PastEof,
    Shape::SyncReadBack,
    Shape::StreamEvictsDirty,
];

enum Op {
    Write(Vec<Run>),
    Read(Vec<Run>),
    Sync,
    /// Sync, drop the handle, open the file again (a fresh cache).
    Reopen,
}

/// The file holds ten and a half pages before the program starts.
fn content_len(p: u64) -> u64 {
    10 * p + p / 2
}

fn program(shape: Shape, p: u64) -> Vec<Op> {
    use Op::{Read, Reopen, Sync, Write};
    let one = |off, len| vec![(off, len)];
    let mut ops = Vec::new();
    match shape {
        Shape::Rows => {
            ops.extend((0..12).map(|i| Write(one(i * (p / 4), p / 4))));
            ops.push(Sync);
            ops.extend((0..12).map(|i| Read(one(i * (p / 4), p / 4))));
        }
        Shape::Straddle => {
            ops.extend((1..=5).map(|k| Write(one(k * p - p / 4, p / 2))));
            ops.extend((1..=5).rev().map(|k| Read(one(k * p - p / 4, p / 2))));
            ops.push(Sync);
            ops.extend((1..=5).map(|k| Read(one(k * p - p / 4, p / 2))));
        }
        Shape::MultiPage => {
            ops.push(Write(one(p / 2, 3 * p)));
            ops.push(Read(one(p, 2 * p + p / 2)));
            ops.push(Write(one(5 * p, 4 * p)));
            ops.push(Read(one(p / 2, 3 * p)));
            ops.push(Sync);
            ops.push(Read(one(6 * p + 1, 3 * p)));
            ops.push(Read(one(2 * p, 4 * p)));
        }
        Shape::Beyond => {
            ops.push(Write(one(p / 3, 6 * p + p / 2)));
            ops.push(Read(one(0, 9 * p)));
            ops.push(Write(one(8 * p + 5, 6 * p)));
            ops.push(Sync);
            ops.push(Read(one(p / 2, 12 * p)));
        }
        Shape::RunsInPage => {
            ops.push(Write(vec![
                (p + 10, 20),
                (p + 50, 30),
                (p + 200, 40),
                (2 * p + 5, 10),
            ]));
            ops.push(Read(vec![(p, 30), (p + 40, 50), (p + 190, 60)]));
            ops.push(Write(vec![(p + 30, 20), (p + 240, 8)]));
            ops.push(Sync);
            ops.push(Read(vec![(p + 5, 100), (p + 180, 70), (2 * p, 20)]));
        }
        Shape::PartlyDirty => {
            ops.push(Write(one(3 * p + 100, 50)));
            ops.push(Read(one(3 * p, p)));
            ops.push(Write(one(6 * p + 7, 9)));
            ops.push(Write(one(7 * p - 9, 9)));
            ops.push(Read(one(6 * p + p / 2, p / 4)));
            ops.push(Read(one(6 * p, 16)));
            ops.push(Sync);
            ops.push(Read(one(3 * p + 90, 70)));
        }
        Shape::PastEof => {
            // The file ends in the middle of page 10.
            ops.push(Read(one(10 * p + p / 4, p / 2)));
            ops.push(Read(one(11 * p + 3, p / 2)));
            // A write past a hole, then a read of hole and dirty bytes.
            ops.push(Write(one(13 * p + 7, p / 2)));
            ops.push(Read(one(12 * p + p / 2, p)));
            ops.push(Sync);
            ops.push(Read(one(10 * p, 4 * p)));
            ops.push(Read(one(14 * p - 8, 16)));
        }
        Shape::SyncReadBack => {
            ops.push(Write(one(5 * p + 17, 2 * p)));
            ops.push(Sync);
            ops.push(Read(one(5 * p + 17, 2 * p)));
            ops.push(Write(one(6 * p, p / 2)));
            ops.push(Reopen);
            ops.push(Read(one(5 * p, 3 * p)));
            ops.push(Sync);
        }
        Shape::StreamEvictsDirty => {
            ops.extend((0..4).map(|k| Write(one(k * p + p / 4, p / 2))));
            ops.extend((4..12).map(|k| Read(one(k * p, p))));
            ops.push(Sync);
            ops.extend((0..4).map(|k| Read(one(k * p, p))));
        }
    }
    // Every program ends settled, so the file digest is of final bytes.
    ops.push(Sync);
    ops
}

#[derive(Clone, Copy, Debug)]
struct Case {
    page_size: u64,
    budget_pages: u64,
    readahead: u64,
    shape: Shape,
}

impl Case {
    fn page(&self) -> u64 {
        if self.page_size == 0 {
            STRIPE
        } else {
            self.page_size
        }
    }

    fn label(&self) -> String {
        format!(
            "page={} budget={} readahead={} {:?}",
            self.page_size, self.budget_pages, self.readahead, self.shape
        )
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for page_size in PAGE_SIZES {
        for budget_pages in BUDGETS {
            for readahead in READAHEAD {
                for shape in SHAPES {
                    out.push(Case {
                        page_size,
                        budget_pages,
                        readahead,
                        shape,
                    });
                }
            }
        }
    }
    out
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one program did: the clock (ns) after every call, `[hits,
/// hit_bytes, misses, evictions, write_behind_flushes, write_behind_bytes,
/// readahead_issued, readahead_hits, invalidations]`, `[requests, seeks,
/// bytes_read, bytes_written]` over all servers, the digest of the bytes
/// read and the digest of the final file.
type Row = (&'static [u64], [u64; 9], [u64; 4], u64, u64);
type Measured = (Vec<u64>, [u64; 9], [u64; 4], u64, u64);

fn measure(c: Case) -> Measured {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let p = c.page();
    let content: Vec<u8> = (0..content_len(p))
        .map(|i| 0x80 | (i * 131 % 127) as u8)
        .collect();
    pfs.create("f").import_bytes(&content);
    let mut info = Info::new()
        .with("pnc_cache", "enable")
        .with("pnc_cache_size", &(c.budget_pages * p).to_string())
        .with("pnc_readahead", &c.readahead.to_string());
    if c.page_size != 0 {
        info = info.with("pnc_page_size", &c.page_size.to_string());
    }
    let run = run_world(1, cfg.clone(), |comm| {
        let open = || MpiFile::open(comm, &pfs, "f", OpenMode::ReadWrite, &info).unwrap();
        let mut f = open();
        let mut clocks = Vec::new();
        let mut read = FNV_BASIS;
        for (i, op) in program(c.shape, p).iter().enumerate() {
            match op {
                Op::Write(runs) => {
                    let total: u64 = runs.iter().map(|r| r.1).sum();
                    let data: Vec<u8> = (0..total)
                        .map(|b| ((b * 7 + i as u64 * 29) % 0x7f) as u8 + 1)
                        .collect();
                    f.write_runs_at(runs, &data).unwrap();
                }
                Op::Read(runs) => {
                    let total: u64 = runs.iter().map(|r| r.1).sum();
                    let mut out = vec![0xEEu8; total as usize];
                    f.read_runs_into(runs, &mut out).unwrap();
                    read = fnv_bytes(read, &out);
                }
                Op::Sync => f.sync().unwrap(),
                Op::Reopen => {
                    f.sync().unwrap();
                    f = open();
                }
            }
            clocks.push(comm.now().as_nanos());
        }
        (clocks, read)
    });
    let (clocks, read) = run.results.into_iter().next().unwrap();
    let k = cfg.profile.cache_counters();
    let s = cfg.profile.snapshot().server_totals();
    (
        clocks,
        [
            k.hits,
            k.hit_bytes,
            k.misses,
            k.evictions,
            k.write_behind_flushes,
            k.write_behind_bytes,
            k.readahead_issued,
            k.readahead_hits,
            k.invalidations,
        ],
        [s.requests, s.seeks, s.bytes_read, s.bytes_written],
        read,
        fnv_bytes(FNV_BASIS, &pfs.open("f").unwrap().to_bytes()),
    )
}

fn show(m: &Measured) -> String {
    format!(
        "(&{:?}, {:?}, {:?}, {:#018x}, {:#018x})",
        m.0, m.1, m.2, m.3, m.4
    )
}

#[test]
fn every_cached_program_keeps_its_recorded_clocks_and_traffic() {
    let cases = cases();
    let mut wrong = Vec::new();
    for (i, &c) in cases.iter().enumerate() {
        let m = measure(c);
        let same = GOLDEN
            .get(i)
            .is_some_and(|g| (g.0, g.1, g.2, g.3, g.4) == (&m.0[..], m.1, m.2, m.3, m.4));
        if !same {
            wrong.push(format!("    {}, // {i}: {}", show(&m), c.label()));
        }
    }
    assert!(
        wrong.is_empty() && GOLDEN.len() == cases.len(),
        "{} of {} rows differ from the recorded table ({} recorded); this build computes:\n{}",
        wrong.len(),
        cases.len(),
        GOLDEN.len(),
        wrong.join("\n")
    );
    // The premise: the table exercises what it claims to pin.
    let sum = |k: usize| GOLDEN.iter().map(|r| r.1[k]).sum::<u64>();
    assert!(sum(3) > 500, "evictions: {}", sum(3));
    assert!(sum(6) > 100, "readahead pages issued: {}", sum(6));
    assert!(sum(7) > 50, "readahead hits: {}", sum(7));
    assert!(sum(8) > 500, "invalidations: {}", sum(8));
}

/// One row per case, in `cases()` order.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (&[10026, 10052, 10078, 10104, 1140370, 1140396, 1140422, 1140448, 1270714, 1270740, 1270766, 1270792, 2411032, 3534898, 3534924, 3534950, 3534976, 3658842, 3658868, 3658894, 3658920, 4782786, 4782812, 4782838, 4782864, 4792864], [18, 2304, 6, 4, 3, 1536, 0, 0, 1], [6, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 0: page=512 budget=1 readahead=0 Rows
    (&[1136452, 2389304, 4642156, 5895008, 8147860, 9271752, 10522044, 11649776, 12773668, 13901400, 13911400, 15039132, 16163024, 16286916, 17410808, 17534700, 17544700], [9, 1152, 21, 19, 6, 1280, 0, 0, 1], [22, 17, 7680, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 1: page=512 budget=1 readahead=0 Straddle
    (&[2398466, 3522561, 6041369, 7299595, 7309595, 8437581, 9565669, 9575669], [1, 256, 22, 20, 8, 3584, 0, 0, 1], [16, 12, 7168, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 2: page=512 budget=1 readahead=0 MultiPage
    (&[3790403, 6052221, 7834224, 8969395, 10105979, 10115979], [1, 507, 35, 32, 14, 6400, 0, 0, 1], [22, 14, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 3: page=512 budget=1 readahead=0 Beyond
    (&[3386280, 5635368, 5635374, 7895894, 10143612, 10153612], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 4: page=512 budget=1 readahead=0 RunsInPage
    (&[10010, 1133952, 2259574, 2259576, 3383442, 3383445, 5643867, 6767721, 6777721], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 5: page=512 budget=1 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 7, 1, 256, 0, 0, 1], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 6: page=512 budget=1 readahead=0 PastEof
    (&[2270515, 2405806, 3533690, 3533741, 4681421, 5809407, 5819407, 5829407], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [8, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 7: page=512 budget=1 readahead=0 SyncReadBack
    (&[10051, 1137782, 2265513, 3393244, 5644866, 5768808, 6892750, 7016692, 8140634, 8264576, 9386598, 10506708, 10516708, 11640650, 11764592, 12888534, 13012476, 13022476], [0, 0, 16, 14, 4, 1024, 0, 0, 1], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 8: page=512 budget=1 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 1140370, 1140396, 1140422, 1140448, 1270714, 1270740, 1270766, 1270792, 2411032, 3534898, 4658764, 5906470, 8154176, 8401882, 10649588, 11897294, 14145000, 15268866, 16516572, 18764278, 20011984, 20021984], [11, 1408, 13, 24, 3, 1536, 13, 1, 1], [26, 17, 11776, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 9: page=512 budget=1 readahead=2 Rows
    (&[1136452, 2389304, 4642156, 5895008, 8147860, 9271752, 10522044, 11649776, 12773668, 13901400, 13911400, 15039132, 16163024, 16286916, 17410808, 17534700, 17544700], [9, 1152, 21, 19, 6, 1280, 0, 0, 1], [22, 17, 7680, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 10: page=512 budget=1 readahead=2 Straddle
    (&[2398466, 3522561, 6041369, 7299595, 7309595, 8437581, 9565669, 9575669], [1, 256, 22, 20, 8, 3584, 0, 0, 1], [16, 12, 7168, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 11: page=512 budget=1 readahead=2 MultiPage
    (&[3790403, 6052221, 7834224, 8969395, 10105979, 10115979], [1, 507, 35, 32, 14, 6400, 0, 0, 1], [22, 14, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 12: page=512 budget=1 readahead=2 Beyond
    (&[3386280, 5635368, 5635374, 7895894, 10143612, 10153612], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 13: page=512 budget=1 readahead=2 RunsInPage
    (&[10010, 1133952, 2259574, 2259576, 3383442, 3383445, 5643867, 6767721, 6777721], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 14: page=512 budget=1 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 7, 1, 256, 0, 0, 1], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 15: page=512 budget=1 readahead=2 PastEof
    (&[2270515, 2405806, 3533690, 3533741, 4681421, 5809407, 5819407, 5829407], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [8, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 16: page=512 budget=1 readahead=2 SyncReadBack
    (&[10051, 1137782, 2265513, 3393244, 5644866, 6896488, 9144270, 9392052, 11637914, 11761856, 12883878, 14003988, 14013988, 15137930, 16389552, 18637334, 18885116, 18895116], [0, 0, 16, 23, 4, 1024, 9, 0, 1], [23, 16, 9729, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 17: page=512 budget=1 readahead=2 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 2277004, 2277030, 2277056, 2400922, 2400948, 2400974, 2401000, 3524866, 3524892, 3524918, 3524944, 3534944], [18, 2304, 6, 0, 1, 1536, 0, 0, 3], [5, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 18: page=512 budget=4 readahead=0 Rows
    (&[10052, 10104, 10156, 1136608, 2389460, 2389512, 2389564, 2389616, 4639908, 8016600, 11407080, 12534812, 13658704, 13782596, 14906488, 15030380, 15040380], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [16, 13, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 19: page=512 budget=4 readahead=0 Straddle
    (&[10306, 10561, 2526809, 6175755, 6185755, 7313741, 8441829, 8451829], [3, 1280, 20, 12, 8, 3584, 0, 0, 4], [14, 10, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 20: page=512 budget=4 readahead=0 MultiPage
    (&[2399683, 5916441, 8567344, 9706355, 10842939, 10852939], [4, 2043, 32, 23, 11, 6400, 0, 0, 4], [21, 13, 9728, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 21: page=512 budget=4 readahead=0 Beyond
    (&[10020, 1133888, 1133894, 4520534, 6768252, 6778252], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 22: page=512 budget=4 readahead=0 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 5643867, 6767721, 6777721], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 23: page=512 budget=4 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 1, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 24: page=512 budget=4 readahead=0 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 25: page=512 budget=4 readahead=0 SyncReadBack
    (&[10051, 10102, 10153, 10204, 2261826, 3513448, 5765070, 7016692, 8140634, 8264576, 9386598, 10506708, 10516708, 11640650, 11764592, 12888534, 13012476, 13022476], [0, 0, 16, 8, 4, 1024, 0, 0, 4], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 26: page=512 budget=4 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 3400844, 3400870, 3400896, 3524762, 3524788, 3524814, 3524840, 4648706, 4648732, 4648758, 4648784, 4658784], [20, 2560, 4, 1, 1, 1536, 4, 2, 3], [7, 5, 2560, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 27: page=512 budget=4 readahead=2 Rows
    (&[10052, 10104, 10156, 1136608, 2389460, 2389512, 2389564, 2389616, 4639908, 8016600, 11407080, 12534812, 13658704, 13782596, 14906488, 15030380, 15040380], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [16, 13, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 28: page=512 budget=4 readahead=2 Straddle
    (&[10306, 10561, 2526809, 6175755, 6185755, 7313741, 8441829, 8451829], [3, 1280, 20, 12, 8, 3584, 0, 0, 4], [14, 10, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 29: page=512 budget=4 readahead=2 MultiPage
    (&[2399683, 5916441, 8567344, 9706355, 10842939, 10852939], [4, 2043, 32, 23, 11, 6400, 0, 0, 4], [21, 13, 9728, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 30: page=512 budget=4 readahead=2 Beyond
    (&[10020, 1133888, 1133894, 4520534, 6768252, 6778252], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 31: page=512 budget=4 readahead=2 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 5643867, 6767721, 6777721], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 32: page=512 budget=4 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 1, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 33: page=512 budget=4 readahead=2 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 34: page=512 budget=4 readahead=2 SyncReadBack
    (&[10051, 10102, 10153, 10204, 2261826, 6896488, 8020430, 8144372, 9266394, 9266496, 9266598, 10386708, 10396708, 11520650, 12772272, 13896214, 14020156, 14030156], [7, 3584, 9, 10, 4, 1024, 9, 7, 4], [16, 12, 6401, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 35: page=512 budget=4 readahead=2 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 2277004, 2277030, 2277056, 2400922, 2400948, 2400974, 2401000, 3524866, 3524892, 3524918, 3524944, 3534944], [18, 2304, 6, 0, 1, 1536, 0, 0, 3], [5, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 36: page=512 budget=64 readahead=0 Rows
    (&[10052, 10104, 10156, 10208, 10260, 10312, 10364, 10416, 10468, 10520, 5657000, 6784732, 7908624, 8032516, 9156408, 9280300, 9290300], [18, 2304, 12, 0, 1, 1280, 0, 0, 6], [12, 10, 3072, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 37: page=512 budget=64 readahead=0 Straddle
    (&[10306, 10561, 10969, 11275, 2287515, 3415501, 4543589, 4553589], [7, 2816, 16, 0, 1, 3584, 0, 0, 8], [9, 8, 4096, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 38: page=512 budget=64 readahead=0 MultiPage
    (&[10663, 2263101, 2263713, 4545659, 5682243, 5692243], [6, 3067, 30, 0, 1, 6400, 0, 0, 15], [15, 13, 8704, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 39: page=512 budget=64 readahead=0 Beyond
    (&[10020, 1133888, 1133894, 4520534, 6768252, 6778252], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 40: page=512 budget=64 readahead=0 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 5643867, 6767721, 6777721], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 41: page=512 budget=64 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 0, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 42: page=512 budget=64 readahead=0 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 43: page=512 budget=64 readahead=0 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1134146, 1258088, 2382030, 2505972, 3629914, 3753856, 4875878, 5995988, 10516708, 11640650, 11764592, 12888534, 13012476, 13022476], [0, 0, 16, 0, 1, 1024, 0, 0, 12], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 44: page=512 budget=64 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 3400844, 3400870, 3400896, 3524762, 3524788, 3524814, 3524840, 4648706, 4648732, 4648758, 4648784, 4658784], [20, 2560, 4, 0, 1, 1536, 4, 2, 3], [7, 5, 2560, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 45: page=512 budget=64 readahead=2 Rows
    (&[10052, 10104, 10156, 10208, 10260, 10312, 10364, 10416, 10468, 10520, 5657000, 6784732, 7908624, 8032516, 9156408, 9280300, 9290300], [18, 2304, 12, 0, 1, 1280, 0, 0, 6], [12, 10, 3072, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 46: page=512 budget=64 readahead=2 Straddle
    (&[10306, 10561, 10969, 11275, 2287515, 3415501, 4543589, 4553589], [7, 2816, 16, 0, 1, 3584, 0, 0, 8], [9, 8, 4096, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 47: page=512 budget=64 readahead=2 MultiPage
    (&[10663, 2263101, 2263713, 4545659, 5682243, 5692243], [6, 3067, 30, 0, 1, 6400, 0, 0, 15], [15, 13, 8704, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 48: page=512 budget=64 readahead=2 Beyond
    (&[10020, 1133888, 1133894, 4520534, 6768252, 6778252], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 49: page=512 budget=64 readahead=2 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 5643867, 6767721, 6777721], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 50: page=512 budget=64 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 0, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 51: page=512 budget=64 readahead=2 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 52: page=512 budget=64 readahead=2 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1134146, 2385768, 3509710, 3633652, 4755674, 4755776, 4755878, 5875988, 10396708, 11520650, 12772272, 13896214, 14020156, 14030156], [7, 3584, 9, 0, 1, 1024, 9, 7, 12], [16, 12, 6401, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 53: page=512 budget=64 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 1140495, 1140546, 1140597, 1140648, 2270939, 2270990, 2271041, 2271092, 3411332, 4539063, 4539114, 4539165, 4539216, 5666947, 5666998, 5667049, 5667100, 6794831, 6794882, 6794933, 6794984, 6804984], [18, 4608, 6, 4, 3, 3072, 0, 0, 1], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 54: page=0 budget=1 readahead=0 Rows
    (&[1137782, 3393244, 5648706, 7904168, 9159630, 10287412, 11542874, 12670656, 13798438, 14926220, 14936220, 16064002, 17191784, 18319566, 18447348, 18575130, 18585130], [9, 2304, 21, 19, 6, 2560, 0, 0, 1], [25, 21, 15360, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 55: page=0 budget=1 readahead=0 Straddle
    (&[3401334, 4529526, 7051306, 9309840, 9319840, 10448135, 11576635, 11586635], [1, 512, 22, 20, 8, 7168, 0, 0, 1], [22, 18, 14336, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 56: page=0 budget=1 readahead=0 MultiPage
    (&[4794484, 7073020, 9860761, 9995932, 11149111, 11159111], [1, 1019, 35, 32, 14, 12800, 0, 0, 1], [22, 15, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 57: page=0 budget=1 readahead=0 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 58: page=0 budget=1 readahead=0 RunsInPage
    (&[10010, 1137895, 2263517, 2263519, 3391250, 3391253, 5651675, 6779369, 6789369], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 59: page=0 budget=1 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 7, 1, 512, 0, 0, 1], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 60: page=0 budget=1 readahead=0 PastEof
    (&[2275840, 3411131, 4539220, 4539322, 5689562, 6817857, 6827857, 6837857], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 61: page=0 budget=1 readahead=0 SyncReadBack
    (&[10102, 1140444, 2270786, 3401128, 5659253, 6787138, 7915023, 9042908, 9170793, 9298678, 9422723, 9542936, 9552936, 10680821, 11808706, 12936591, 14064476, 14074476], [0, 0, 16, 14, 4, 2048, 0, 0, 1], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 62: page=0 budget=1 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 1140495, 1140546, 1140597, 1140648, 2270939, 2270990, 2271041, 2271092, 3411332, 4539063, 5666794, 7922205, 10177616, 12433027, 14688438, 16943849, 19199260, 20326991, 22582402, 24837813, 27093224, 27103224], [11, 2816, 13, 24, 3, 3072, 13, 1, 1], [26, 25, 23552, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 63: page=0 budget=1 readahead=2 Rows
    (&[1137782, 3393244, 5648706, 7904168, 9159630, 10287412, 11542874, 12670656, 13798438, 14926220, 14936220, 16064002, 17191784, 18319566, 18447348, 18575130, 18585130], [9, 2304, 21, 19, 6, 2560, 0, 0, 1], [25, 21, 15360, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 64: page=0 budget=1 readahead=2 Straddle
    (&[3401334, 4529526, 7051306, 9309840, 9319840, 10448135, 11576635, 11586635], [1, 512, 22, 20, 8, 7168, 0, 0, 1], [22, 18, 14336, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 65: page=0 budget=1 readahead=2 MultiPage
    (&[4794484, 7073020, 9860761, 9995932, 11149111, 11159111], [1, 1019, 35, 32, 14, 12800, 0, 0, 1], [22, 15, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 66: page=0 budget=1 readahead=2 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 67: page=0 budget=1 readahead=2 RunsInPage
    (&[10010, 1137895, 2263517, 2263519, 3391250, 3391253, 5651675, 6779369, 6789369], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 68: page=0 budget=1 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 7, 1, 512, 0, 0, 1], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 69: page=0 budget=1 readahead=2 PastEof
    (&[2275840, 3411131, 4539220, 4539322, 5689562, 6817857, 6827857, 6837857], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 70: page=0 budget=1 readahead=2 SyncReadBack
    (&[10102, 1140444, 2270786, 3401128, 5659253, 7914818, 9170383, 10425948, 11677673, 12805558, 13929603, 14049816, 14059816, 15187701, 17443266, 18698831, 19954396, 19964396], [0, 0, 16, 23, 4, 2048, 9, 0, 1], [25, 19, 19457, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 71: page=0 budget=1 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411587, 3411638, 3411689, 3411740, 4539471, 4539522, 4539573, 4539624, 4549624], [18, 4608, 6, 0, 1, 3072, 0, 0, 3], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 72: page=0 budget=4 readahead=0 Rows
    (&[10102, 10204, 10306, 1138088, 3393550, 3393652, 3393754, 3393856, 4649318, 7032460, 10426140, 11553922, 12681704, 13809486, 13937268, 14065050, 14075050], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 14, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 73: page=0 budget=4 readahead=0 Straddle
    (&[10614, 11126, 4532906, 7182160, 7192160, 8320455, 9448955, 9458955], [3, 2560, 20, 12, 8, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 74: page=0 budget=4 readahead=0 MultiPage
    (&[3403764, 7921449, 11582361, 12722601, 13875780, 13885780], [4, 4091, 32, 23, 11, 12800, 0, 0, 4], [24, 18, 19456, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 75: page=0 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 76: page=0 budget=4 readahead=0 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 77: page=0 budget=4 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 78: page=0 budget=4 readahead=0 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 79: page=0 budget=4 readahead=0 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2268533, 4526658, 6784783, 9042908, 10170793, 11298678, 12422723, 13542936, 13552936, 14680821, 15808706, 16936591, 18064476, 18074476], [0, 0, 16, 8, 4, 2048, 0, 0, 4], [16, 16, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 80: page=0 budget=4 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 3411434, 3411485, 3411536, 4539267, 4539318, 4539369, 4539420, 4667151, 4667202, 4667253, 4667304, 4677304], [20, 5120, 4, 1, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 81: page=0 budget=4 readahead=2 Rows
    (&[10102, 10204, 10306, 1138088, 3393550, 3393652, 3393754, 3393856, 4649318, 7032460, 10426140, 11553922, 12681704, 13809486, 13937268, 14065050, 14075050], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 14, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 82: page=0 budget=4 readahead=2 Straddle
    (&[10614, 11126, 4532906, 7182160, 7192160, 8320455, 9448955, 9458955], [3, 2560, 20, 12, 8, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 83: page=0 budget=4 readahead=2 MultiPage
    (&[3403764, 7921449, 11582361, 12722601, 13875780, 13885780], [4, 4091, 32, 23, 11, 12800, 0, 0, 4], [24, 18, 19456, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 84: page=0 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 85: page=0 budget=4 readahead=2 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 86: page=0 budget=4 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 87: page=0 budget=4 readahead=2 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 88: page=0 budget=4 readahead=2 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2268533, 7914818, 9042703, 10170588, 11294633, 11294838, 11295043, 12415256, 12425256, 13553141, 15808706, 15936591, 16064476, 16074476], [7, 7168, 9, 10, 4, 2048, 9, 7, 4], [18, 16, 12801, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 89: page=0 budget=4 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411587, 3411638, 3411689, 3411740, 4539471, 4539522, 4539573, 4539624, 4549624], [18, 4608, 6, 0, 1, 3072, 0, 0, 3], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 90: page=0 budget=64 readahead=0 Rows
    (&[10102, 10204, 10306, 10408, 10510, 10612, 10714, 10816, 10918, 11020, 5661340, 6789122, 7916904, 9044686, 9172468, 9300250, 9310250], [18, 4608, 12, 0, 1, 2560, 0, 0, 6], [16, 12, 6144, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 91: page=0 budget=64 readahead=0 Straddle
    (&[10614, 11126, 11946, 12560, 2297120, 3425415, 4553915, 4563915], [7, 5632, 16, 0, 1, 7168, 0, 0, 8], [16, 13, 8192, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 92: page=0 budget=64 readahead=0 MultiPage
    (&[11333, 2268538, 2269768, 4578684, 5731863, 5741863], [6, 6139, 30, 0, 1, 12800, 0, 0, 15], [16, 15, 17408, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 93: page=0 budget=64 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 94: page=0 budget=64 readahead=0 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 95: page=0 budget=64 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 0, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 96: page=0 budget=64 readahead=0 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 97: page=0 budget=64 readahead=0 SyncReadBack
    (&[10102, 10204, 10306, 10408, 1138293, 2266178, 3394063, 4521948, 4649833, 4777718, 4901763, 5021976, 9552936, 10680821, 11808706, 12936591, 14064476, 14074476], [0, 0, 16, 0, 1, 2048, 0, 0, 12], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 98: page=0 budget=64 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 3411434, 3411485, 3411536, 4539267, 4539318, 4539369, 4539420, 4667151, 4667202, 4667253, 4667304, 4677304], [20, 5120, 4, 0, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 99: page=0 budget=64 readahead=2 Rows
    (&[10102, 10204, 10306, 10408, 10510, 10612, 10714, 10816, 10918, 11020, 5661340, 6789122, 7916904, 9044686, 9172468, 9300250, 9310250], [18, 4608, 12, 0, 1, 2560, 0, 0, 6], [16, 12, 6144, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 100: page=0 budget=64 readahead=2 Straddle
    (&[10614, 11126, 11946, 12560, 2297120, 3425415, 4553915, 4563915], [7, 5632, 16, 0, 1, 7168, 0, 0, 8], [16, 13, 8192, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 101: page=0 budget=64 readahead=2 MultiPage
    (&[11333, 2268538, 2269768, 4578684, 5731863, 5741863], [6, 6139, 30, 0, 1, 12800, 0, 0, 15], [16, 15, 17408, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 102: page=0 budget=64 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 103: page=0 budget=64 readahead=2 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 104: page=0 budget=64 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 0, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 105: page=0 budget=64 readahead=2 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 106: page=0 budget=64 readahead=2 SyncReadBack
    (&[10102, 10204, 10306, 10408, 1138293, 3393858, 3521743, 3649628, 3773673, 3773878, 3774083, 3894296, 8425256, 9553141, 11808706, 11936591, 12064476, 12074476], [7, 7168, 9, 0, 1, 2048, 9, 7, 12], [18, 12, 12801, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 107: page=0 budget=64 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 1146130, 1146284, 1146438, 1146592, 2276986, 2277140, 2277294, 2277448, 2422808, 3550642, 3550796, 3550950, 3551104, 4678938, 4679092, 4679246, 4679400, 4807234, 4807388, 4807542, 4807696, 4817696], [18, 13824, 6, 4, 3, 9216, 0, 0, 1], [18, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 108: page=3072 budget=1 readahead=0 Rows
    (&[1143108, 3409016, 4674924, 5940832, 7206740, 8334728, 9603196, 10738864, 11874532, 13010200, 13020200, 14155868, 14283856, 14411844, 14539832, 14667820, 14677820], [9, 6912, 21, 19, 6, 7680, 0, 0, 1], [45, 29, 46080, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 109: page=3072 budget=1 readahead=0 Straddle
    (&[2411522, 3548417, 6084633, 8364875, 8374875, 9519757, 10665253, 10675253], [1, 1536, 22, 20, 8, 21504, 0, 0, 1], [38, 27, 43008, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 110: page=3072 budget=1 readahead=0 MultiPage
    (&[2821032, 5135678, 7946390, 8081561, 9285729, 9295729], [1, 3067, 35, 32, 14, 38400, 0, 0, 1], [47, 19, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 111: page=3072 budget=1 readahead=0 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 112: page=3072 budget=1 readahead=0 RunsInPage
    (&[10010, 1138304, 2263926, 2263928, 3391762, 3391765, 5652187, 6779881, 6789881], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 113: page=3072 budget=1 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 7, 1, 1536, 0, 0, 1], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 114: page=3072 budget=1 readahead=0 PastEof
    (&[2276785, 2412076, 3556344, 3556651, 4709451, 5854333, 5864333, 5874333], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [17, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 115: page=3072 budget=1 readahead=0 SyncReadBack
    (&[10307, 1141494, 2269481, 3397468, 5656642, 6784936, 7913230, 8041524, 8169818, 8298112, 8426406, 8547028, 8557028, 9685322, 10813616, 10941910, 11070204, 11080204], [0, 0, 16, 14, 4, 6144, 0, 0, 1], [45, 17, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 116: page=3072 budget=1 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 1146130, 1146284, 1146438, 1146592, 2276986, 2277140, 2277294, 2277448, 2422808, 3550642, 4686156, 6941670, 9197184, 11452698, 13708212, 15963726, 18219240, 18354754, 20610268, 22865782, 25121296, 25131296], [11, 8448, 13, 24, 3, 9216, 13, 1, 1], [74, 43, 70656, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 117: page=3072 budget=1 readahead=2 Rows
    (&[1143108, 3409016, 4674924, 5940832, 7206740, 8334728, 9603196, 10738864, 11874532, 13010200, 13020200, 14155868, 14283856, 14411844, 14539832, 14667820, 14677820], [9, 6912, 21, 19, 6, 7680, 0, 0, 1], [45, 29, 46080, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 118: page=3072 budget=1 readahead=2 Straddle
    (&[2411522, 3548417, 6084633, 8364875, 8374875, 9519757, 10665253, 10675253], [1, 1536, 22, 20, 8, 21504, 0, 0, 1], [38, 27, 43008, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 119: page=3072 budget=1 readahead=2 MultiPage
    (&[2821032, 5135678, 7946390, 8081561, 9285729, 9295729], [1, 3067, 35, 32, 14, 38400, 0, 0, 1], [47, 19, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 120: page=3072 budget=1 readahead=2 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 121: page=3072 budget=1 readahead=2 RunsInPage
    (&[10010, 1138304, 2263926, 2263928, 3391762, 3391765, 5652187, 6779881, 6789881], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 122: page=3072 budget=1 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 7, 1, 1536, 0, 0, 1], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 123: page=3072 budget=1 readahead=2 PastEof
    (&[2276785, 2412076, 3556344, 3556651, 4709451, 5854333, 5864333, 5874333], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [17, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 124: page=3072 budget=1 readahead=2 SyncReadBack
    (&[10307, 1141494, 2269481, 3397468, 5656642, 7920296, 10176270, 12432244, 13688218, 14816512, 15944806, 16065428, 16075428, 17203722, 18467376, 20723350, 22979324, 22989324], [0, 0, 16, 23, 4, 6144, 9, 0, 1], [67, 35, 58369, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 125: page=3072 budget=1 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 2308236, 2308390, 2308544, 3436378, 3436532, 3436686, 3436840, 3564674, 3564828, 3564982, 3565136, 3575136], [18, 13824, 6, 0, 1, 9216, 0, 0, 3], [13, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 126: page=3072 budget=4 readahead=0 Rows
    (&[10308, 10616, 10924, 1144032, 3409940, 3410248, 3410556, 3410864, 5671652, 9065240, 12475560, 13611228, 13739216, 13867204, 13995192, 14123180, 14133180], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 20, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 127: page=3072 budget=4 readahead=0 Straddle
    (&[11842, 13377, 2548313, 6229515, 6239515, 7384397, 8529893, 8539893], [3, 7680, 20, 12, 8, 21504, 0, 0, 4], [34, 19, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 128: page=3072 budget=4 readahead=0 MultiPage
    (&[2414952, 6972158, 9647510, 9815923, 11020091, 11030091], [4, 12283, 32, 23, 11, 38400, 0, 0, 4], [45, 24, 58368, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 129: page=3072 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 130: page=3072 budget=4 readahead=0 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 131: page=3072 budget=4 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 132: page=3072 budget=4 readahead=0 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 133: page=3072 budget=4 readahead=0 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2270402, 4529576, 6788750, 9047924, 10176218, 11304512, 11432806, 11553428, 11563428, 12691722, 13820016, 13948310, 14076604, 14086604], [0, 0, 16, 8, 4, 6144, 0, 0, 4], [45, 32, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 134: page=3072 budget=4 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 3443596, 3443750, 3443904, 3571738, 3571892, 3572046, 3572200, 3700034, 3700188, 3700342, 3700496, 3710496], [20, 15360, 4, 1, 1, 9216, 4, 2, 3], [17, 8, 15360, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 135: page=3072 budget=4 readahead=2 Rows
    (&[10308, 10616, 10924, 1144032, 3409940, 3410248, 3410556, 3410864, 5671652, 9065240, 12475560, 13611228, 13739216, 13867204, 13995192, 14123180, 14133180], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 20, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 136: page=3072 budget=4 readahead=2 Straddle
    (&[11842, 13377, 2548313, 6229515, 6239515, 7384397, 8529893, 8539893], [3, 7680, 20, 12, 8, 21504, 0, 0, 4], [34, 19, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 137: page=3072 budget=4 readahead=2 MultiPage
    (&[2414952, 6972158, 9647510, 9815923, 11020091, 11030091], [4, 12283, 32, 23, 11, 38400, 0, 0, 4], [45, 24, 58368, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 138: page=3072 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 139: page=3072 budget=4 readahead=2 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 140: page=3072 budget=4 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 141: page=3072 budget=4 readahead=2 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 142: page=3072 budget=4 readahead=2 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2270402, 7920296, 9048590, 10176884, 10305178, 10305792, 10306406, 10427028, 10437028, 11565322, 12828976, 12957270, 13085564, 13095564], [7, 21504, 9, 10, 4, 6144, 9, 7, 4], [47, 23, 38401, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 143: page=3072 budget=4 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 2308236, 2308390, 2308544, 3436378, 3436532, 3436686, 3436840, 3564674, 3564828, 3564982, 3565136, 3575136], [18, 13824, 6, 0, 1, 9216, 0, 0, 3], [13, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 144: page=3072 budget=64 readahead=0 Rows
    (&[10308, 10616, 10924, 11232, 11540, 11848, 12156, 12464, 12772, 13080, 5689000, 6824668, 6952656, 7080644, 7208632, 7336620, 7346620], [18, 13824, 12, 0, 1, 7680, 0, 0, 6], [26, 10, 18432, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 145: page=3072 budget=64 readahead=0 Straddle
    (&[11842, 13377, 15833, 17675, 2359835, 3504717, 4650213, 4660213], [7, 16896, 16, 0, 1, 21504, 0, 0, 8], [16, 16, 24576, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 146: page=3072 budget=64 readahead=0 MultiPage
    (&[13992, 2290238, 2293922, 4710322, 5914490, 5924490], [6, 18427, 30, 0, 1, 38400, 0, 0, 15], [19, 19, 52224, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 147: page=3072 budget=64 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 148: page=3072 budget=64 readahead=0 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 149: page=3072 budget=64 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 0, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 150: page=3072 budget=64 readahead=0 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 151: page=3072 budget=64 readahead=0 SyncReadBack
    (&[10307, 10614, 10921, 11228, 1139522, 2267816, 2396110, 2524404, 2652698, 2780992, 2909286, 3029908, 7553828, 8682122, 9810416, 9938710, 10067004, 10077004], [0, 0, 16, 0, 1, 6144, 0, 0, 12], [45, 14, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 152: page=3072 budget=64 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 3443596, 3443750, 3443904, 3571738, 3571892, 3572046, 3572200, 3700034, 3700188, 3700342, 3700496, 3710496], [20, 15360, 4, 0, 1, 9216, 4, 2, 3], [17, 8, 15360, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 153: page=3072 budget=64 readahead=2 Rows
    (&[10308, 10616, 10924, 11232, 11540, 11848, 12156, 12464, 12772, 13080, 5689000, 6824668, 6952656, 7080644, 7208632, 7336620, 7346620], [18, 13824, 12, 0, 1, 7680, 0, 0, 6], [26, 10, 18432, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 154: page=3072 budget=64 readahead=2 Straddle
    (&[11842, 13377, 15833, 17675, 2359835, 3504717, 4650213, 4660213], [7, 16896, 16, 0, 1, 21504, 0, 0, 8], [16, 16, 24576, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 155: page=3072 budget=64 readahead=2 MultiPage
    (&[13992, 2290238, 2293922, 4710322, 5914490, 5924490], [6, 18427, 30, 0, 1, 38400, 0, 0, 15], [19, 19, 52224, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 156: page=3072 budget=64 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 157: page=3072 budget=64 readahead=2 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 158: page=3072 budget=64 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 0, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 159: page=3072 budget=64 readahead=2 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 160: page=3072 budget=64 readahead=2 SyncReadBack
    (&[10307, 10614, 10921, 11228, 1139522, 2403176, 2531470, 2659764, 2788058, 2788672, 2789286, 2909908, 7433828, 8562122, 9825776, 9954070, 10082364, 10092364], [7, 21504, 9, 0, 1, 6144, 9, 7, 12], [47, 14, 38401, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 161: page=3072 budget=64 readahead=2 StreamEvictsDirty
];
