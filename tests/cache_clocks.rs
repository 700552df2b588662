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
//! The table was recorded on the cache as it was before it became a fixed
//! set of page slots (PR 21). That rewrite re-recorded 55 of the 162 rows,
//! each for one of the two reasons it declared beforehand. A request — with
//! its readahead window — of more pages than the budget holds is now served
//! a cache-full at a time instead of overshooting the budget (budget 1:
//! `Straddle`, `MultiPage`, `Beyond`, `PastEof`, `SyncReadBack`, and with
//! readahead `Rows` and `StreamEvictsDirty`; budget 4: `Beyond`). And a fill
//! that needs the slot of a dirty page writes that page behind *before* its
//! own read, not after: counters, requests and bytes as before, seeks and
//! clocks moved (`MultiPage`, `StreamEvictsDirty` and the 3 KiB `Straddle`
//! at budget 4; 3 KiB `StreamEvictsDirty` at budget 1). The other 107 rows,
//! every ample-budget one among them, are as the old cache computed them.
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
        let last = *m.0.last().unwrap();
        assert!(
            last <= WAITED_FOR_DISK[i],
            "{}: ends at {last} ns, later than the {} ns of waiting for the disk per page",
            c.label(),
            WAITED_FOR_DISK[i]
        );
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

/// The final clock (ns) of every program, in `cases()` order, on the cache
/// that waited for the disk at every eviction (as recorded before PR 22
/// made write-behind proceed at a request's NIC handoff): writing behind
/// never finishes a program later than waiting per page did.
#[rustfmt::skip]
const WAITED_FOR_DISK: [u64; 162] = [
    4792864, 20276220, 13926389, 17573579, 10153612, 6777721, 8259589, 8317087, 13022476,
    17898144, 20276220, 13926389, 17573579, 10153612, 6777721, 8259589, 8317087, 14146316,
    3534944, 15040380, 8451829, 11350808, 6778252, 6777721, 6767971, 4575453, 13022476,
    4658784, 15040380, 8451829, 11350808, 6778252, 6777721, 6767971, 4575453, 14030156,
    3534944, 9290300, 4553589, 5692243, 6778252, 6777721, 6767971, 4575453, 13022476,
    4658784, 9290300, 4553589, 5692243, 6778252, 6777721, 6767971, 4575453, 14030156,
    6804984, 25351210, 20991115, 17674311, 10165132, 6789369, 10283936, 11348577, 14074476,
    25975544, 25351210, 20991115, 17674311, 10165132, 6789369, 10283936, 11348577, 14202156,
    4549624, 14075050, 10458955, 9378580, 6789772, 6789369, 5773118, 4582326, 14074476,
    4677304, 14075050, 10458955, 9378580, 6789772, 6789369, 5773118, 4582326, 12074476,
    4549624, 9310250, 4563915, 5741863, 6789772, 6789369, 5773118, 4582326, 14074476,
    4677304, 9310250, 4563915, 5741863, 6789772, 6789369, 5773118, 4582326, 12074476,
    4817696, 21405500, 15025973, 11739249, 10165132, 6789881, 8303062, 8354333, 10077004,
    22988256, 21405500, 15025973, 11739249, 10165132, 6789881, 8303062, 8354333, 10204684,
    3575136, 13133180, 8539893, 9522891, 6789772, 6789881, 5800030, 4629213, 12086604,
    3710496, 13133180, 8539893, 9522891, 6789772, 6789881, 5800030, 4629213, 11098764,
    3575136, 7346620, 4660213, 5924490, 6789772, 6789881, 5800030, 4629213, 10077004,
    3710496, 7346620, 4660213, 5924490, 6789772, 6789881, 5800030, 4629213, 10092364,
];

/// One row per case, in `cases()` order.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (&[10026, 10052, 10078, 10104, 1140370, 1140396, 1140422, 1140448, 1270714, 1270740, 1270766, 1270792, 2411032, 3534898, 3534924, 3534950, 3534976, 3658842, 3658868, 3658894, 3658920, 4782786, 4782812, 4782838, 4782864, 4792864], [18, 2304, 6, 4, 3, 1536, 0, 0, 1], [6, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 0: page=512 budget=1 readahead=0 Rows
    (&[1136452, 2389304, 4642156, 5895008, 8147860, 9521992, 11769724, 13017456, 15265188, 16512920, 16522920, 17770652, 18894544, 19018436, 20142328, 20266220, 20276220], [8, 1024, 22, 20, 6, 1280, 0, 0, 1], [26, 17, 8192, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 1: page=512 budget=1 readahead=0 Straddle
    (&[2398466, 4897921, 7289049, 9914955, 9924955, 11420621, 13916389, 13926389], [0, 0, 23, 21, 8, 3584, 0, 0, 1], [23, 11, 7680, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 2: page=512 budget=1 readahead=0 MultiPage
    (&[3790403, 10035261, 11817264, 11952435, 17563579, 17573579], [1, 507, 35, 33, 14, 6400, 0, 0, 1], [36, 13, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 3: page=512 budget=1 readahead=0 Beyond
    (&[3386280, 5635368, 5635374, 7895894, 10143612, 10153612], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 4: page=512 budget=1 readahead=0 RunsInPage
    (&[10010, 1133952, 2259574, 2259576, 3383442, 3383445, 5643867, 6767721, 6777721], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 5: page=512 budget=1 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 4625676, 4635676, 7129577, 8249589, 8259589], [1, 8, 10, 8, 1, 256, 0, 0, 1], [10, 7, 2832, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 6: page=512 budget=1 readahead=0 PastEof
    (&[2270515, 2405806, 4777530, 4777581, 5925261, 8297087, 8307087, 8317087], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [10, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 7: page=512 budget=1 readahead=0 SyncReadBack
    (&[10051, 1137782, 2265513, 3393244, 5644866, 5768808, 6892750, 7016692, 8140634, 8264576, 9386598, 10506708, 10516708, 11640650, 11764592, 12888534, 13012476, 13022476], [0, 0, 16, 14, 4, 1024, 0, 0, 1], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 8: page=512 budget=1 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 1140370, 1140396, 1140422, 1140448, 1270714, 1270740, 1270766, 1270792, 2411032, 3534898, 3658764, 4906470, 6154176, 7278042, 9525748, 11773454, 14021160, 14145026, 15392732, 16640438, 17888144, 17898144], [12, 1536, 12, 21, 3, 1536, 11, 2, 1], [23, 15, 10240, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 9: page=512 budget=1 readahead=2 Rows
    (&[1136452, 2389304, 4642156, 5895008, 8147860, 9521992, 11769724, 13017456, 15265188, 16512920, 16522920, 17770652, 18894544, 19018436, 20142328, 20266220, 20276220], [8, 1024, 22, 20, 6, 1280, 0, 0, 1], [26, 17, 8192, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 10: page=512 budget=1 readahead=2 Straddle
    (&[2398466, 4897921, 7289049, 9914955, 9924955, 11420621, 13916389, 13926389], [0, 0, 23, 21, 8, 3584, 0, 0, 1], [23, 11, 7680, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 11: page=512 budget=1 readahead=2 MultiPage
    (&[3790403, 10035261, 11817264, 11952435, 17563579, 17573579], [1, 507, 35, 33, 14, 6400, 0, 0, 1], [36, 13, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 12: page=512 budget=1 readahead=2 Beyond
    (&[3386280, 5635368, 5635374, 7895894, 10143612, 10153612], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 13: page=512 budget=1 readahead=2 RunsInPage
    (&[10010, 1133952, 2259574, 2259576, 3383442, 3383445, 5643867, 6767721, 6777721], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 14: page=512 budget=1 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 4625676, 4635676, 7129577, 8249589, 8259589], [1, 8, 10, 8, 1, 256, 0, 0, 1], [10, 7, 2832, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 15: page=512 budget=1 readahead=2 PastEof
    (&[2270515, 2405806, 4777530, 4777581, 5925261, 8297087, 8307087, 8317087], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [10, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 16: page=512 budget=1 readahead=2 SyncReadBack
    (&[10051, 1137782, 2265513, 3393244, 5644866, 6892648, 7016590, 8140532, 8264474, 9386496, 9386598, 10506708, 10516708, 11640650, 12888432, 13012374, 14136316, 14146316], [7, 3584, 9, 15, 4, 1024, 8, 7, 1], [17, 12, 5889, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 17: page=512 budget=1 readahead=2 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 2277004, 2277030, 2277056, 2400922, 2400948, 2400974, 2401000, 3524866, 3524892, 3524918, 3524944, 3534944], [18, 2304, 6, 0, 1, 1536, 0, 0, 3], [5, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 18: page=512 budget=4 readahead=0 Rows
    (&[10052, 10104, 10156, 1136608, 2389460, 2389512, 2389564, 2389616, 4639908, 8016600, 11407080, 12534812, 13658704, 13782596, 14906488, 15030380, 15040380], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [16, 13, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 19: page=512 budget=4 readahead=0 Straddle
    (&[10306, 10561, 2526809, 6175755, 6185755, 7313741, 8441829, 8451829], [3, 1280, 20, 12, 8, 3584, 0, 0, 4], [14, 9, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 20: page=512 budget=4 readahead=0 MultiPage
    (&[2399683, 7299901, 8691184, 8832704, 11340808, 11350808], [2, 1019, 34, 26, 11, 6400, 0, 0, 4], [25, 13, 10752, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 21: page=512 budget=4 readahead=0 Beyond
    (&[10020, 1133888, 1133894, 4520534, 6768252, 6778252], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 22: page=512 budget=4 readahead=0 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 5643867, 6767721, 6777721], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 23: page=512 budget=4 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 1, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 24: page=512 budget=4 readahead=0 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 25: page=512 budget=4 readahead=0 SyncReadBack
    (&[10051, 10102, 10153, 10204, 2261826, 3513448, 5765070, 7016692, 8140634, 8264576, 9386598, 10506708, 10516708, 11640650, 11764592, 12888534, 13012476, 13022476], [0, 0, 16, 8, 4, 1024, 0, 0, 4], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 26: page=512 budget=4 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 3400844, 3400870, 3400896, 3524762, 3524788, 3524814, 3524840, 4648706, 4648732, 4648758, 4648784, 4658784], [20, 2560, 4, 1, 1, 1536, 4, 2, 3], [7, 5, 2560, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 27: page=512 budget=4 readahead=2 Rows
    (&[10052, 10104, 10156, 1136608, 2389460, 2389512, 2389564, 2389616, 4639908, 8016600, 11407080, 12534812, 13658704, 13782596, 14906488, 15030380, 15040380], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [16, 13, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 28: page=512 budget=4 readahead=2 Straddle
    (&[10306, 10561, 2526809, 6175755, 6185755, 7313741, 8441829, 8451829], [3, 1280, 20, 12, 8, 3584, 0, 0, 4], [14, 9, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 29: page=512 budget=4 readahead=2 MultiPage
    (&[2399683, 7299901, 8691184, 8832704, 11340808, 11350808], [2, 1019, 34, 26, 11, 6400, 0, 0, 4], [25, 13, 10752, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 30: page=512 budget=4 readahead=2 Beyond
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
    (&[1137782, 3393244, 5648706, 7904168, 9159630, 11542772, 13798234, 16053696, 18309158, 20564620, 20574620, 22830082, 23957864, 25085646, 25213428, 25341210, 25351210], [8, 2048, 22, 20, 6, 2560, 0, 0, 1], [26, 22, 16384, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 55: page=0 budget=1 readahead=0 Straddle
    (&[3401334, 7915126, 8306666, 13948240, 13958240, 16469575, 20981115, 20991115], [0, 0, 23, 21, 8, 7168, 0, 0, 1], [23, 18, 15360, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 56: page=0 budget=1 readahead=0 MultiPage
    (&[4794484, 10079100, 11866841, 12002012, 17664311, 17674311], [1, 1019, 35, 33, 14, 12800, 0, 0, 1], [36, 13, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 57: page=0 budget=1 readahead=0 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 58: page=0 budget=1 readahead=0 RunsInPage
    (&[10010, 1137895, 2263517, 2263519, 3391250, 3391253, 5651675, 6779369, 6789369], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 59: page=0 budget=1 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 5636171, 5646171, 10153924, 10273936, 10283936], [1, 8, 10, 8, 1, 512, 0, 0, 1], [10, 9, 5648, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 60: page=0 budget=1 readahead=0 PastEof
    (&[2275840, 3411131, 6794580, 6794682, 7944922, 11328577, 11338577, 11348577], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 61: page=0 budget=1 readahead=0 SyncReadBack
    (&[10102, 1140444, 2270786, 3401128, 5659253, 6787138, 7915023, 9042908, 9170793, 9298678, 9422723, 9542936, 9552936, 10680821, 11808706, 12936591, 14064476, 14074476], [0, 0, 16, 14, 4, 2048, 0, 0, 1], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 62: page=0 budget=1 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 1140495, 1140546, 1140597, 1140648, 2270939, 2270990, 2271041, 2271092, 3411332, 4539063, 5666794, 7922205, 10177616, 11305347, 13560758, 15816169, 18071580, 19199311, 21454722, 23710133, 25965544, 25975544], [12, 3072, 12, 21, 3, 3072, 11, 2, 1], [23, 23, 20480, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 63: page=0 budget=1 readahead=2 Rows
    (&[1137782, 3393244, 5648706, 7904168, 9159630, 11542772, 13798234, 16053696, 18309158, 20564620, 20574620, 22830082, 23957864, 25085646, 25213428, 25341210, 25351210], [8, 2048, 22, 20, 6, 2560, 0, 0, 1], [26, 22, 16384, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 64: page=0 budget=1 readahead=2 Straddle
    (&[3401334, 7915126, 8306666, 13948240, 13958240, 16469575, 20981115, 20991115], [0, 0, 23, 21, 8, 7168, 0, 0, 1], [23, 18, 15360, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 65: page=0 budget=1 readahead=2 MultiPage
    (&[4794484, 10079100, 11866841, 12002012, 17664311, 17674311], [1, 1019, 35, 33, 14, 12800, 0, 0, 1], [36, 13, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 66: page=0 budget=1 readahead=2 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 67: page=0 budget=1 readahead=2 RunsInPage
    (&[10010, 1137895, 2263517, 2263519, 3391250, 3391253, 5651675, 6779369, 6789369], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 68: page=0 budget=1 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 5636171, 5646171, 10153924, 10273936, 10283936], [1, 8, 10, 8, 1, 512, 0, 0, 1], [10, 9, 5648, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 69: page=0 budget=1 readahead=2 PastEof
    (&[2275840, 3411131, 6794580, 6794682, 7944922, 11328577, 11338577, 11348577], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 70: page=0 budget=1 readahead=2 SyncReadBack
    (&[10102, 1140444, 2270786, 3401128, 5659253, 7914818, 9042703, 9170588, 9298473, 9422518, 9422723, 9542936, 9552936, 10680821, 12936386, 14064271, 14192156, 14202156], [7, 7168, 9, 15, 4, 2048, 8, 7, 1], [17, 12, 11777, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 71: page=0 budget=1 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411587, 3411638, 3411689, 3411740, 4539471, 4539522, 4539573, 4539624, 4549624], [18, 4608, 6, 0, 1, 3072, 0, 0, 3], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 72: page=0 budget=4 readahead=0 Rows
    (&[10102, 10204, 10306, 1138088, 3393550, 3393652, 3393754, 3393856, 4649318, 7032460, 10426140, 11553922, 12681704, 13809486, 13937268, 14065050, 14075050], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 14, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 73: page=0 budget=4 readahead=0 Straddle
    (&[10614, 11126, 4532906, 8182160, 8192160, 9320455, 10448955, 10458955], [3, 2560, 20, 12, 8, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 74: page=0 budget=4 readahead=0 MultiPage
    (&[3403764, 6313020, 7710041, 7855401, 9368580, 9378580], [2, 2043, 34, 26, 11, 12800, 0, 0, 4], [35, 12, 21504, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 75: page=0 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 76: page=0 budget=4 readahead=0 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 77: page=0 budget=4 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 78: page=0 budget=4 readahead=0 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 79: page=0 budget=4 readahead=0 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2268533, 4526658, 6784783, 9042908, 9170793, 9298678, 9422723, 9542936, 9552936, 10680821, 11808706, 12936591, 14064476, 14074476], [0, 0, 16, 8, 4, 2048, 0, 0, 4], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 80: page=0 budget=4 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 3411434, 3411485, 3411536, 4539267, 4539318, 4539369, 4539420, 4667151, 4667202, 4667253, 4667304, 4677304], [20, 5120, 4, 1, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 81: page=0 budget=4 readahead=2 Rows
    (&[10102, 10204, 10306, 1138088, 3393550, 3393652, 3393754, 3393856, 4649318, 7032460, 10426140, 11553922, 12681704, 13809486, 13937268, 14065050, 14075050], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 14, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 82: page=0 budget=4 readahead=2 Straddle
    (&[10614, 11126, 4532906, 8182160, 8192160, 9320455, 10448955, 10458955], [3, 2560, 20, 12, 8, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 83: page=0 budget=4 readahead=2 MultiPage
    (&[3403764, 6313020, 7710041, 7855401, 9368580, 9378580], [2, 2043, 34, 26, 11, 12800, 0, 0, 4], [35, 12, 21504, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 84: page=0 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 85: page=0 budget=4 readahead=2 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 5651675, 6779369, 6789369], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 86: page=0 budget=4 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 87: page=0 budget=4 readahead=2 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 88: page=0 budget=4 readahead=2 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2268533, 7914818, 8042703, 8170588, 8294633, 8294838, 8295043, 8415256, 8425256, 9553141, 11808706, 11936591, 12064476, 12074476], [7, 7168, 9, 10, 4, 2048, 9, 7, 4], [18, 12, 12801, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 89: page=0 budget=4 readahead=2 StreamEvictsDirty
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
    (&[1143108, 3409016, 4674924, 5940832, 7206740, 9595208, 11850876, 14106544, 16362212, 18617880, 18627880, 20883548, 21011536, 21139524, 21267512, 21395500, 21405500], [8, 6144, 22, 20, 6, 7680, 0, 0, 1], [58, 30, 49152, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 109: page=3072 budget=1 readahead=0 Straddle
    (&[2411522, 4928897, 7332313, 9980235, 9990235, 12502797, 15015973, 15025973], [0, 0, 23, 21, 8, 21504, 0, 0, 1], [67, 23, 46080, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 110: page=3072 budget=1 readahead=0 MultiPage
    (&[2821032, 6111038, 7926870, 8062041, 11729249, 11739249], [1, 3067, 35, 33, 14, 38400, 0, 0, 1], [105, 15, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 111: page=3072 budget=1 readahead=0 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 112: page=3072 budget=1 readahead=0 RunsInPage
    (&[10010, 1138304, 2263926, 2263928, 3391762, 3391765, 5652187, 6779881, 6789881], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 113: page=3072 budget=1 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 5649874, 5659874, 8173050, 8293062, 8303062], [1, 8, 10, 8, 1, 1536, 0, 0, 1], [22, 13, 16912, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 114: page=3072 budget=1 readahead=0 PastEof
    (&[2276785, 2412076, 4796344, 4796651, 5949451, 8334333, 8344333, 8354333], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [27, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 115: page=3072 budget=1 readahead=0 SyncReadBack
    (&[10307, 1141494, 2269481, 3397468, 5653442, 6781736, 6910030, 7038324, 7166618, 7294912, 7423206, 7543828, 7553828, 8682122, 9810416, 9938710, 10067004, 10077004], [0, 0, 16, 14, 4, 6144, 0, 0, 1], [45, 12, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 116: page=3072 budget=1 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 1146130, 1146284, 1146438, 1146592, 2276986, 2277140, 2277294, 2277448, 2422808, 3550642, 4678476, 6933990, 9189504, 9317338, 11572852, 13828366, 16083880, 16211714, 18467228, 20722742, 22978256, 22988256], [12, 9216, 12, 21, 3, 9216, 11, 2, 1], [69, 40, 61440, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 117: page=3072 budget=1 readahead=2 Rows
    (&[1143108, 3409016, 4674924, 5940832, 7206740, 9595208, 11850876, 14106544, 16362212, 18617880, 18627880, 20883548, 21011536, 21139524, 21267512, 21395500, 21405500], [8, 6144, 22, 20, 6, 7680, 0, 0, 1], [58, 30, 49152, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 118: page=3072 budget=1 readahead=2 Straddle
    (&[2411522, 4928897, 7332313, 9980235, 9990235, 12502797, 15015973, 15025973], [0, 0, 23, 21, 8, 21504, 0, 0, 1], [67, 23, 46080, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 119: page=3072 budget=1 readahead=2 MultiPage
    (&[2821032, 6111038, 7926870, 8062041, 11729249, 11739249], [1, 3067, 35, 33, 14, 38400, 0, 0, 1], [105, 15, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 120: page=3072 budget=1 readahead=2 Beyond
    (&[3386280, 5639208, 5639214, 7899734, 10155132, 10165132], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 121: page=3072 budget=1 readahead=2 RunsInPage
    (&[10010, 1138304, 2263926, 2263928, 3391762, 3391765, 5652187, 6779881, 6789881], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 122: page=3072 budget=1 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 5649874, 5659874, 8173050, 8293062, 8303062], [1, 8, 10, 8, 1, 1536, 0, 0, 1], [22, 13, 16912, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 123: page=3072 budget=1 readahead=2 PastEof
    (&[2276785, 2412076, 4796344, 4796651, 5949451, 8334333, 8344333, 8354333], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [27, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 124: page=3072 budget=1 readahead=2 SyncReadBack
    (&[10307, 1141494, 2269481, 3397468, 5653442, 6909416, 7037710, 7166004, 7294298, 7422592, 7423206, 7543828, 7553828, 8682122, 9938096, 10066390, 10194684, 10204684], [7, 21504, 9, 15, 4, 6144, 8, 7, 1], [48, 12, 35329, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 125: page=3072 budget=1 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 2308236, 2308390, 2308544, 3436378, 3436532, 3436686, 3436840, 3564674, 3564828, 3564982, 3565136, 3575136], [18, 13824, 6, 0, 1, 9216, 0, 0, 3], [13, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 126: page=3072 budget=4 readahead=0 Rows
    (&[10308, 10616, 10924, 1144032, 3409940, 3410248, 3410556, 3410864, 5671652, 9065240, 11475560, 12611228, 12739216, 12867204, 12995192, 13123180, 13133180], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 19, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 127: page=3072 budget=4 readahead=0 Straddle
    (&[11842, 13377, 2548313, 6229515, 6239515, 7384397, 8529893, 8539893], [3, 7680, 20, 12, 8, 21504, 0, 0, 4], [34, 20, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 128: page=3072 budget=4 readahead=0 MultiPage
    (&[2414952, 6370558, 7780310, 7948723, 9512891, 9522891], [2, 6139, 34, 26, 11, 38400, 0, 0, 4], [59, 18, 64512, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 129: page=3072 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 130: page=3072 budget=4 readahead=0 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 131: page=3072 budget=4 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 132: page=3072 budget=4 readahead=0 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 133: page=3072 budget=4 readahead=0 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2270402, 4529576, 6788750, 9047924, 9176218, 9304512, 9432806, 9553428, 9563428, 10691722, 11820016, 11948310, 12076604, 12086604], [0, 0, 16, 8, 4, 6144, 0, 0, 4], [45, 28, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 134: page=3072 budget=4 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 3443596, 3443750, 3443904, 3571738, 3571892, 3572046, 3572200, 3700034, 3700188, 3700342, 3700496, 3710496], [20, 15360, 4, 1, 1, 9216, 4, 2, 3], [17, 8, 15360, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 135: page=3072 budget=4 readahead=2 Rows
    (&[10308, 10616, 10924, 1144032, 3409940, 3410248, 3410556, 3410864, 5671652, 9065240, 11475560, 12611228, 12739216, 12867204, 12995192, 13123180, 13133180], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 19, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 136: page=3072 budget=4 readahead=2 Straddle
    (&[11842, 13377, 2548313, 6229515, 6239515, 7384397, 8529893, 8539893], [3, 7680, 20, 12, 8, 21504, 0, 0, 4], [34, 20, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 137: page=3072 budget=4 readahead=2 MultiPage
    (&[2414952, 6370558, 7780310, 7948723, 9512891, 9522891], [2, 6139, 34, 26, 11, 38400, 0, 0, 4], [59, 18, 64512, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 138: page=3072 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 4524374, 6779772, 6789772], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 139: page=3072 budget=4 readahead=2 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 5652187, 6779881, 6789881], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 140: page=3072 budget=4 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 141: page=3072 budget=4 readahead=2 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 142: page=3072 budget=4 readahead=2 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2270402, 7923496, 8051790, 8180084, 8308378, 8308992, 8309606, 8430228, 8440228, 9568522, 10832176, 10960470, 11088764, 11098764], [7, 21504, 9, 10, 4, 6144, 9, 7, 4], [47, 24, 38401, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 143: page=3072 budget=4 readahead=2 StreamEvictsDirty
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
