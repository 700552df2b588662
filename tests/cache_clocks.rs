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
//! PR 22 re-recorded the clocks of 126 rows and nothing else in any of the
//! 162 (counters, requests, seeks, bytes and both digests as they were): a
//! write-behind lets the rank go on at the request's NIC handoff, and the
//! flush points (`sync`, reopen) wait for the disk. No call of any program
//! ends later than it did, and `WAITED_FOR_DISK` keeps each program's old
//! final clock as a bound. The 36 rows that did not move are `Rows`,
//! `PastEof` and `SyncReadBack` at budgets 4 and 64: what they write behind
//! is one request of a flush, which ends at that request's durable point
//! either way.
//!
//! Clustered write-behind re-records rows for the reason it declared before
//! it ran: an eviction writes each dirty run of its victim as part of its
//! stretch — the zero-gap dirty runs of the neighbouring cached pages,
//! clipped to the stripe row (4 KiB here) — in one request, and what the
//! neighbours lent is clean. Only budget-4 rows may move: a one-page budget
//! has no neighbour to cluster and a 64-page one never evicts, so those 108
//! rows stay as they are. A moved row may change its clocks, its
//! `write_behind_*` counters and its requests, seeks and bytes written; the
//! other cache counters, the bytes read and both digests of all 162 rows
//! stay, and `WAITED_FOR_DISK` still bounds every final clock. A row whose
//! bytes written grow wrote a neighbour early that the program then dirtied
//! again. So it went: 18 rows moved — `Straddle`, `MultiPage` and `Beyond`
//! at budget 4, every page size, both readaheads — each ending earlier
//! (×0.80 … ×0.999, a call inside may end later: it writes the stretch);
//! fewer requests or flushes in most, one seek more or less in some, and
//! no row's bytes written grew.
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
/// that waited for the disk at every write-behind (the table as it stood
/// before PR 22): going on at the handoff and waiting at the flush points
/// never finishes a program later than waiting per request did.
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
    (&[10026, 10052, 10078, 10104, 32690, 32716, 32742, 32768, 55354, 55380, 55406, 55432, 1258024, 2381890, 2381916, 2381942, 2381968, 2505834, 2505860, 2505886, 2505912, 3629778, 3629804, 3629830, 3629856, 3639856], [18, 2304, 6, 4, 3, 1536, 0, 0, 1], [6, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 0: page=512 budget=1 readahead=0 Rows
    (&[30692, 72024, 113356, 154688, 196020, 3730366, 5978098, 7225830, 9473562, 10721294, 10731294, 11979026, 13102918, 13226810, 14350702, 14474594, 14484594], [8, 1024, 22, 20, 6, 1280, 0, 0, 1], [26, 17, 8192, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 1: page=512 budget=1 readahead=0 Straddle
    (&[76706, 3607186, 3675274, 6291180, 6301180, 7796846, 10292614, 10302614], [0, 0, 23, 21, 8, 3584, 0, 0, 1], [23, 11, 7680, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 2: page=512 budget=1 readahead=0 MultiPage
    (&[145173, 6351766, 6487714, 7599738, 13210882, 13220882], [1, 507, 35, 33, 14, 6400, 0, 0, 1], [36, 13, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 3: page=512 budget=1 readahead=0 Beyond
    (&[70470, 4459796, 4459802, 6700282, 8948000, 8958000], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 4: page=512 budget=1 readahead=0 RunsInPage
    (&[10010, 1133952, 1154204, 1154206, 2278072, 2278075, 4518451, 5642305, 5652305], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 5: page=512 budget=1 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 4615676, 4625676, 7119577, 8239589, 8249589], [1, 8, 10, 8, 1, 256, 0, 0, 1], [10, 7, 2832, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 6: page=512 budget=1 readahead=0 PastEof
    (&[55240, 1278122, 3649846, 3649897, 4797577, 7169403, 7179403, 7189403], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [10, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 7: page=512 budget=1 readahead=0 SyncReadBack
    (&[10051, 31382, 52713, 74044, 1219266, 1343208, 2467150, 2591092, 3715034, 3838976, 4960998, 6081108, 6091108, 7215050, 7338992, 8462934, 8586876, 8596876], [0, 0, 16, 14, 4, 1024, 0, 0, 1], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 8: page=512 budget=1 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 32690, 32716, 32742, 32768, 55354, 55380, 55406, 55432, 1258024, 2381890, 2505756, 3753462, 5001168, 6125034, 8372740, 10620446, 12868152, 12992018, 14239724, 15487430, 16735136, 16745136], [12, 1536, 12, 21, 3, 1536, 11, 2, 1], [23, 15, 10240, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 9: page=512 budget=1 readahead=2 Rows
    (&[30692, 72024, 113356, 154688, 196020, 3730366, 5978098, 7225830, 9473562, 10721294, 10731294, 11979026, 13102918, 13226810, 14350702, 14474594, 14484594], [8, 1024, 22, 20, 6, 1280, 0, 0, 1], [26, 17, 8192, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 10: page=512 budget=1 readahead=2 Straddle
    (&[76706, 3607186, 3675274, 6291180, 6301180, 7796846, 10292614, 10302614], [0, 0, 23, 21, 8, 3584, 0, 0, 1], [23, 11, 7680, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 11: page=512 budget=1 readahead=2 MultiPage
    (&[145173, 6351766, 6487714, 7599738, 13210882, 13220882], [1, 507, 35, 33, 14, 6400, 0, 0, 1], [36, 13, 11264, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 12: page=512 budget=1 readahead=2 Beyond
    (&[70470, 4459796, 4459802, 6700282, 8948000, 8958000], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 13: page=512 budget=1 readahead=2 RunsInPage
    (&[10010, 1133952, 1154204, 1154206, 2278072, 2278075, 4518451, 5642305, 5652305], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 14: page=512 budget=1 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 4615676, 4625676, 7119577, 8239589, 8249589], [1, 8, 10, 8, 1, 256, 0, 0, 1], [10, 7, 2832, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 15: page=512 budget=1 readahead=2 PastEof
    (&[55240, 1278122, 3649846, 3649897, 4797577, 7169403, 7179403, 7189403], [0, 0, 10, 7, 4, 1280, 0, 0, 2], [10, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 16: page=512 budget=1 readahead=2 SyncReadBack
    (&[10051, 31382, 52713, 74044, 1219266, 2467048, 2590990, 3714932, 3838874, 4960896, 4960998, 6081108, 6091108, 7215050, 8462832, 8586774, 9710716, 9720716], [7, 3584, 9, 15, 4, 1024, 8, 7, 1], [17, 12, 5889, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 17: page=512 budget=1 readahead=2 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 2277004, 2277030, 2277056, 2400922, 2400948, 2400974, 2401000, 3524866, 3524892, 3524918, 3524944, 3534944], [18, 2304, 6, 0, 1, 1536, 0, 0, 3], [5, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 18: page=512 budget=4 readahead=0 Rows
    (&[10052, 10104, 10156, 31488, 52500, 52552, 52604, 52656, 3357514, 4502366, 5640046, 6767778, 7891670, 8015562, 9139454, 9263346, 9273346], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [14, 12, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 19: page=512 budget=4 readahead=0 Straddle
    (&[10306, 10561, 36729, 2369027, 2379027, 3507013, 4635101, 4645101], [3, 1280, 20, 12, 3, 3584, 0, 0, 4], [11, 9, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 20: page=512 budget=4 readahead=0 MultiPage
    (&[37918, 3514152, 3542432, 4659870, 7167974, 7177974], [2, 1019, 34, 26, 4, 6400, 0, 0, 4], [20, 14, 10752, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 21: page=512 budget=4 readahead=0 Beyond
    (&[10020, 1133888, 1133894, 3375074, 5622792, 5632792], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 22: page=512 budget=4 readahead=0 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 4518451, 5642305, 5652305], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 23: page=512 budget=4 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 1, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 24: page=512 budget=4 readahead=0 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 25: page=512 budget=4 readahead=0 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1155426, 1300648, 2445870, 2591092, 3715034, 3838976, 4960998, 6081108, 6091108, 7215050, 7338992, 8462934, 8586876, 8596876], [0, 0, 16, 8, 4, 1024, 0, 0, 4], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 26: page=512 budget=4 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 3400844, 3400870, 3400896, 3524762, 3524788, 3524814, 3524840, 4648706, 4648732, 4648758, 4648784, 4658784], [20, 2560, 4, 1, 1, 1536, 4, 2, 3], [7, 5, 2560, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 27: page=512 budget=4 readahead=2 Rows
    (&[10052, 10104, 10156, 31488, 52500, 52552, 52604, 52656, 3357514, 4502366, 5640046, 6767778, 7891670, 8015562, 9139454, 9263346, 9273346], [16, 2048, 14, 6, 5, 1280, 0, 0, 4], [14, 12, 4096, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 28: page=512 budget=4 readahead=2 Straddle
    (&[10306, 10561, 36729, 2369027, 2379027, 3507013, 4635101, 4645101], [3, 1280, 20, 12, 3, 3584, 0, 0, 4], [11, 9, 6144, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 29: page=512 budget=4 readahead=2 MultiPage
    (&[37918, 3514152, 3542432, 4659870, 7167974, 7177974], [2, 1019, 34, 26, 4, 6400, 0, 0, 4], [20, 14, 10752, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 30: page=512 budget=4 readahead=2 Beyond
    (&[10020, 1133888, 1133894, 3375074, 5622792, 5632792], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 31: page=512 budget=4 readahead=2 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 4518451, 5642305, 5652305], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 32: page=512 budget=4 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 1, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 33: page=512 budget=4 readahead=2 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 34: page=512 budget=4 readahead=2 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1155426, 2470888, 3594830, 3718772, 4840794, 4840896, 4840998, 5961108, 5971108, 7095050, 8346672, 9470614, 9594556, 9604556], [7, 3584, 9, 10, 4, 1024, 9, 7, 4], [16, 12, 6401, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 35: page=512 budget=4 readahead=2 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 2277004, 2277030, 2277056, 2400922, 2400948, 2400974, 2401000, 3524866, 3524892, 3524918, 3524944, 3534944], [18, 2304, 6, 0, 1, 1536, 0, 0, 3], [5, 4, 1536, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 36: page=512 budget=64 readahead=0 Rows
    (&[10052, 10104, 10156, 10208, 10260, 10312, 10364, 10416, 10468, 10520, 3380680, 4508412, 5632304, 5756196, 6880088, 7003980, 7013980], [18, 2304, 12, 0, 1, 1280, 0, 0, 6], [12, 10, 3072, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 37: page=512 budget=64 readahead=0 Straddle
    (&[10306, 10561, 10969, 11275, 1261755, 2389741, 3517829, 3527829], [7, 2816, 16, 0, 1, 3584, 0, 0, 8], [9, 8, 4096, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 38: page=512 budget=64 readahead=0 MultiPage
    (&[10663, 2263101, 2263713, 4517588, 5654172, 5664172], [6, 3067, 30, 0, 1, 6400, 0, 0, 15], [15, 13, 8704, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 39: page=512 budget=64 readahead=0 Beyond
    (&[10020, 1133888, 1133894, 3375074, 5622792, 5632792], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 40: page=512 budget=64 readahead=0 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 4518451, 5642305, 5652305], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 41: page=512 budget=64 readahead=0 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 0, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 42: page=512 budget=64 readahead=0 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 43: page=512 budget=64 readahead=0 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1134146, 1258088, 2382030, 2505972, 3629914, 3753856, 4875878, 5995988, 8282628, 9406570, 9530512, 10654454, 10778396, 10788396], [0, 0, 16, 0, 1, 1024, 0, 0, 12], [16, 11, 5377, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 44: page=512 budget=64 readahead=0 StreamEvictsDirty
    (&[10026, 10052, 10078, 10104, 10130, 10156, 10182, 10208, 10234, 10260, 10286, 10312, 1153112, 2276978, 3400844, 3400870, 3400896, 3524762, 3524788, 3524814, 3524840, 4648706, 4648732, 4648758, 4648784, 4658784], [20, 2560, 4, 0, 1, 1536, 4, 2, 3], [7, 5, 2560, 1536], 0xc72c004183f6b685, 0x646ed80506a82211), // 45: page=512 budget=64 readahead=2 Rows
    (&[10052, 10104, 10156, 10208, 10260, 10312, 10364, 10416, 10468, 10520, 3380680, 4508412, 5632304, 5756196, 6880088, 7003980, 7013980], [18, 2304, 12, 0, 1, 1280, 0, 0, 6], [12, 10, 3072, 1280], 0xe073fa6fb623b135, 0xb571f66829818536), // 46: page=512 budget=64 readahead=2 Straddle
    (&[10306, 10561, 10969, 11275, 1261755, 2389741, 3517829, 3527829], [7, 2816, 16, 0, 1, 3584, 0, 0, 8], [9, 8, 4096, 3584], 0xa1eaf70dd5d6a01d, 0x1381a44312775bdd), // 47: page=512 budget=64 readahead=2 MultiPage
    (&[10663, 2263101, 2263713, 4517588, 5654172, 5664172], [6, 3067, 30, 0, 1, 6400, 0, 0, 15], [15, 13, 8704, 6400], 0xa8226a3184c21111, 0x9413496ddd6618f1), // 48: page=512 budget=64 readahead=2 Beyond
    (&[10020, 1133888, 1133894, 3375074, 5622792, 5632792], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 1536, 128], 0x95a7d6c0fb652f8f, 0x865e8a7eecffc591), // 49: page=512 budget=64 readahead=2 RunsInPage
    (&[10010, 1133952, 1133954, 1133956, 2257822, 2257825, 4518451, 5642305, 5652305], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 1536, 68], 0x4a6b24248e6c3005, 0xa121381d83cccdf4), // 50: page=512 budget=64 readahead=2 PartlyDirty
    (&[1131971, 2252030, 2252081, 3372191, 4509871, 5637959, 6757971, 6767971], [1, 8, 10, 0, 1, 256, 0, 0, 4], [7, 7, 2058, 256], 0xa9fe937c37772a98, 0x9a803394ae395252), // 51: page=512 budget=64 readahead=2 PastEof
    (&[10204, 1151852, 2279736, 2279787, 3427467, 4555453, 4565453, 4575453], [1, 256, 9, 0, 2, 1280, 0, 0, 6], [7, 7, 3072, 1280], 0xb6ef4bb6b3e648bd, 0xb0d21c14bf4348f1), // 52: page=512 budget=64 readahead=2 SyncReadBack
    (&[10051, 10102, 10153, 10204, 1134146, 2385768, 3509710, 3633652, 4755674, 4755776, 4755878, 5875988, 8162628, 9286570, 10538192, 11662134, 11786076, 11796076], [7, 3584, 9, 0, 1, 1024, 9, 7, 12], [16, 12, 6401, 1024], 0x920623e1eca2b311, 0x7bd4a05f3d0314d9), // 53: page=512 budget=64 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 35375, 35426, 35477, 35528, 60699, 60750, 60801, 60852, 1201092, 2328823, 2328874, 2328925, 2328976, 3456707, 3456758, 3456809, 3456860, 4584591, 4584642, 4584693, 4584744, 4594744], [18, 4608, 6, 4, 3, 3072, 0, 0, 1], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 54: page=0 budget=1 readahead=0 Rows
    (&[31382, 74044, 116706, 159368, 202030, 4595993, 6851455, 9106917, 11362379, 13617841, 13627841, 15883303, 17011085, 18138867, 18266649, 18394431, 18404431], [8, 2048, 22, 20, 6, 2560, 0, 0, 1], [26, 22, 16384, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 55: page=0 budget=1 readahead=0 Straddle
    (&[83414, 4536659, 4612839, 10244413, 10254413, 12765748, 17277288, 17287288], [0, 0, 23, 21, 8, 7168, 0, 0, 1], [23, 18, 15360, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 56: page=0 budget=1 readahead=0 MultiPage
    (&[160349, 6388173, 6540099, 7638808, 13301107, 13311107], [1, 1019, 35, 33, 14, 12800, 0, 0, 1], [36, 13, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 57: page=0 budget=1 readahead=0 Beyond
    (&[70470, 4463636, 4463642, 6704122, 8959520, 8969520], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 58: page=0 budget=1 readahead=0 RunsInPage
    (&[10010, 1137895, 1158147, 1158149, 2285880, 2285883, 4526259, 5653953, 5663953], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 59: page=0 budget=1 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 4528491, 4538491, 9046244, 9166256, 9176256], [1, 8, 10, 8, 1, 512, 0, 0, 1], [10, 9, 5648, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 60: page=0 budget=1 readahead=0 PastEof
    (&[60565, 1195856, 4579305, 4579407, 5729647, 9113302, 9123302, 9133302], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 61: page=0 budget=1 readahead=0 SyncReadBack
    (&[10102, 32764, 55426, 78088, 2258227, 3386112, 4513997, 5641882, 5769767, 5897652, 6021697, 6141910, 6151910, 7279795, 8407680, 9535565, 10663450, 10673450], [0, 0, 16, 14, 4, 2048, 0, 0, 1], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 62: page=0 budget=1 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 35375, 35426, 35477, 35528, 60699, 60750, 60801, 60852, 1201092, 2328823, 3456554, 5711965, 7967376, 9095107, 11350518, 13605929, 15861340, 16989071, 19244482, 21499893, 23755304, 23765304], [12, 3072, 12, 21, 3, 3072, 11, 2, 1], [23, 23, 20480, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 63: page=0 budget=1 readahead=2 Rows
    (&[31382, 74044, 116706, 159368, 202030, 4595993, 6851455, 9106917, 11362379, 13617841, 13627841, 15883303, 17011085, 18138867, 18266649, 18394431, 18404431], [8, 2048, 22, 20, 6, 2560, 0, 0, 1], [26, 22, 16384, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 64: page=0 budget=1 readahead=2 Straddle
    (&[83414, 4536659, 4612839, 10244413, 10254413, 12765748, 17277288, 17287288], [0, 0, 23, 21, 8, 7168, 0, 0, 1], [23, 18, 15360, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 65: page=0 budget=1 readahead=2 MultiPage
    (&[160349, 6388173, 6540099, 7638808, 13301107, 13311107], [1, 1019, 35, 33, 14, 12800, 0, 0, 1], [36, 13, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 66: page=0 budget=1 readahead=2 Beyond
    (&[70470, 4463636, 4463642, 6704122, 8959520, 8969520], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 67: page=0 budget=1 readahead=2 RunsInPage
    (&[10010, 1137895, 1158147, 1158149, 2285880, 2285883, 4526259, 5653953, 5663953], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 68: page=0 budget=1 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 4528491, 4538491, 9046244, 9166256, 9176256], [1, 8, 10, 8, 1, 512, 0, 0, 1], [10, 9, 5648, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 69: page=0 budget=1 readahead=2 PastEof
    (&[60565, 1195856, 4579305, 4579407, 5729647, 9113302, 9123302, 9133302], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 70: page=0 budget=1 readahead=2 SyncReadBack
    (&[10102, 32764, 55426, 78088, 2258227, 4513792, 5641677, 5769562, 5897447, 6021492, 6021697, 6141910, 6151910, 7279795, 9535360, 10663245, 10791130, 10801130], [7, 7168, 9, 15, 4, 2048, 8, 7, 1], [17, 12, 11777, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 71: page=0 budget=1 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411587, 3411638, 3411689, 3411740, 4539471, 4539522, 4539573, 4539624, 4549624], [18, 4608, 6, 0, 1, 3072, 0, 0, 3], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 72: page=0 budget=4 readahead=0 Rows
    (&[10102, 10204, 10306, 32328, 54350, 54452, 54554, 54656, 3469259, 5714721, 7959441, 9087223, 10215005, 11342787, 11470569, 11598351, 11608351], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 15, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 73: page=0 budget=4 readahead=0 Straddle
    (&[10614, 11126, 40906, 3371180, 3381180, 4509475, 5637975, 5647975], [3, 2560, 20, 12, 3, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 74: page=0 budget=4 readahead=0 MultiPage
    (&[43281, 2629530, 2663548, 3880780, 5393959, 5403959], [2, 2043, 34, 26, 4, 12800, 0, 0, 4], [35, 12, 21504, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 75: page=0 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 76: page=0 budget=4 readahead=0 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 4526259, 5653953, 5663953], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 77: page=0 budget=4 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 78: page=0 budget=4 readahead=0 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 79: page=0 budget=4 readahead=0 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2258533, 4506658, 6754783, 9002908, 9130793, 9258678, 9382723, 9502936, 9512936, 10640821, 11768706, 12896591, 14024476, 14034476], [0, 0, 16, 8, 4, 2048, 0, 0, 4], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 80: page=0 budget=4 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 3411434, 3411485, 3411536, 4539267, 4539318, 4539369, 4539420, 4667151, 4667202, 4667253, 4667304, 4677304], [20, 5120, 4, 1, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 81: page=0 budget=4 readahead=2 Rows
    (&[10102, 10204, 10306, 32328, 54350, 54452, 54554, 54656, 3469259, 5714721, 7959441, 9087223, 10215005, 11342787, 11470569, 11598351, 11608351], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 15, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 82: page=0 budget=4 readahead=2 Straddle
    (&[10614, 11126, 40906, 3371180, 3381180, 4509475, 5637975, 5647975], [3, 2560, 20, 12, 3, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 83: page=0 budget=4 readahead=2 MultiPage
    (&[43281, 2629530, 2663548, 3880780, 5393959, 5403959], [2, 2043, 34, 26, 4, 12800, 0, 0, 4], [35, 12, 21504, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 84: page=0 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 85: page=0 budget=4 readahead=2 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 4526259, 5653953, 5663953], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 86: page=0 budget=4 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 1, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 87: page=0 budget=4 readahead=2 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 88: page=0 budget=4 readahead=2 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2258533, 6777138, 6905023, 7032908, 7156953, 7157158, 7157363, 7277576, 7287576, 8415461, 10671026, 10798911, 10926796, 10936796], [7, 7168, 9, 10, 4, 2048, 9, 7, 4], [18, 12, 12801, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 89: page=0 budget=4 readahead=2 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411587, 3411638, 3411689, 3411740, 4539471, 4539522, 4539573, 4539624, 4549624], [18, 4608, 6, 0, 1, 3072, 0, 0, 3], [6, 6, 3072, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 90: page=0 budget=64 readahead=0 Rows
    (&[10102, 10204, 10306, 10408, 10510, 10612, 10714, 10816, 10918, 11020, 2362140, 3489922, 4617704, 5745486, 5873268, 6001050, 6011050], [18, 4608, 12, 0, 1, 2560, 0, 0, 6], [16, 12, 6144, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 91: page=0 budget=64 readahead=0 Straddle
    (&[10614, 11126, 11946, 12560, 2264320, 3392615, 4521115, 4531115], [7, 5632, 16, 0, 1, 7168, 0, 0, 8], [16, 13, 8192, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 92: page=0 budget=64 readahead=0 MultiPage
    (&[11333, 2268538, 2269768, 4543311, 5696490, 5706490], [6, 6139, 30, 0, 1, 12800, 0, 0, 15], [16, 15, 17408, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 93: page=0 budget=64 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 94: page=0 budget=64 readahead=0 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 4526259, 5653953, 5663953], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 95: page=0 budget=64 readahead=0 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 0, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 96: page=0 budget=64 readahead=0 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 97: page=0 budget=64 readahead=0 SyncReadBack
    (&[10102, 10204, 10306, 10408, 1138293, 2266178, 3394063, 4521948, 4649833, 4777718, 4901763, 5021976, 6229896, 7357781, 8485666, 9613551, 10741436, 10751436], [0, 0, 16, 0, 1, 2048, 0, 0, 12], [16, 12, 10753, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 98: page=0 budget=64 readahead=0 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 3411434, 3411485, 3411536, 4539267, 4539318, 4539369, 4539420, 4667151, 4667202, 4667253, 4667304, 4677304], [20, 5120, 4, 0, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 99: page=0 budget=64 readahead=2 Rows
    (&[10102, 10204, 10306, 10408, 10510, 10612, 10714, 10816, 10918, 11020, 2362140, 3489922, 4617704, 5745486, 5873268, 6001050, 6011050], [18, 4608, 12, 0, 1, 2560, 0, 0, 6], [16, 12, 6144, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 100: page=0 budget=64 readahead=2 Straddle
    (&[10614, 11126, 11946, 12560, 2264320, 3392615, 4521115, 4531115], [7, 5632, 16, 0, 1, 7168, 0, 0, 8], [16, 13, 8192, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 101: page=0 budget=64 readahead=2 MultiPage
    (&[11333, 2268538, 2269768, 4543311, 5696490, 5706490], [6, 6139, 30, 0, 1, 12800, 0, 0, 15], [16, 15, 17408, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 102: page=0 budget=64 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 103: page=0 budget=64 readahead=2 RunsInPage
    (&[10010, 1137895, 1137897, 1137899, 2265630, 2265633, 4526259, 5653953, 5663953], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3072, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 104: page=0 budget=64 readahead=2 PartlyDirty
    (&[1133942, 2254052, 2254154, 3374366, 4514606, 5643106, 5763118, 5773118], [1, 8, 10, 0, 1, 512, 0, 0, 4], [9, 8, 4106, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 105: page=0 budget=64 readahead=2 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 106: page=0 budget=64 readahead=2 SyncReadBack
    (&[10102, 10204, 10306, 10408, 1138293, 3393858, 3521743, 3649628, 3773673, 3773878, 3774083, 3894296, 5102216, 6230101, 8485666, 8613551, 8741436, 8751436], [7, 7168, 9, 0, 1, 2048, 9, 7, 12], [18, 12, 12801, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 107: page=0 budget=64 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 41010, 41164, 41318, 41472, 71866, 72020, 72174, 72328, 1361096, 2488930, 2489084, 2489238, 2489392, 3617226, 3617380, 3617534, 3617688, 3745522, 3745676, 3745830, 3745984, 3755984], [18, 13824, 6, 4, 3, 9216, 0, 0, 1], [18, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 108: page=3072 budget=1 readahead=0 Rows
    (&[34148, 82136, 130124, 178112, 226100, 4606542, 6862210, 9117878, 11373546, 13629214, 13639214, 15894882, 16022870, 16150858, 16278846, 16406834, 16416834], [8, 6144, 22, 20, 6, 7680, 0, 0, 1], [58, 30, 49152, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 109: page=3072 budget=1 readahead=0 Straddle
    (&[98722, 3725362, 3818538, 7599872, 7609872, 10122434, 12635610, 12645610], [0, 0, 23, 21, 8, 21504, 0, 0, 1], [67, 23, 46080, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 110: page=3072 budget=1 readahead=0 MultiPage
    (&[1153722, 4739190, 5887675, 6305656, 9972864, 9982864], [1, 3067, 35, 33, 14, 38400, 0, 0, 1], [105, 15, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 111: page=3072 budget=1 readahead=0 Beyond
    (&[70470, 4463636, 4463642, 6704122, 8959520, 8969520], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 112: page=3072 budget=1 readahead=0 RunsInPage
    (&[10010, 1138304, 1158556, 1158558, 2286392, 2286395, 3441652, 4569346, 4579346], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 113: page=3072 budget=1 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 5637436, 5647436, 8160612, 8280624, 8290624], [1, 8, 10, 8, 1, 1536, 0, 0, 1], [22, 13, 16912, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 114: page=3072 budget=1 readahead=0 PastEof
    (&[71665, 1261133, 3645401, 3645708, 4798508, 7183390, 7193390, 7203390], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [27, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 115: page=3072 budget=1 readahead=0 SyncReadBack
    (&[10307, 36374, 62441, 88508, 2472281, 3600575, 3728869, 3857163, 3985457, 4113751, 4242045, 4362667, 4372667, 5500961, 6629255, 6757549, 6885843, 6895843], [0, 0, 16, 14, 4, 6144, 0, 0, 1], [45, 12, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 116: page=3072 budget=1 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 41010, 41164, 41318, 41472, 71866, 72020, 72174, 72328, 1361096, 2488930, 3616764, 5872278, 8127792, 8255626, 10511140, 12766654, 15022168, 15150002, 17405516, 19661030, 21916544, 21926544], [12, 9216, 12, 21, 3, 9216, 11, 2, 1], [69, 40, 61440, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 117: page=3072 budget=1 readahead=2 Rows
    (&[34148, 82136, 130124, 178112, 226100, 4606542, 6862210, 9117878, 11373546, 13629214, 13639214, 15894882, 16022870, 16150858, 16278846, 16406834, 16416834], [8, 6144, 22, 20, 6, 7680, 0, 0, 1], [58, 30, 49152, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 118: page=3072 budget=1 readahead=2 Straddle
    (&[98722, 3725362, 3818538, 7599872, 7609872, 10122434, 12635610, 12645610], [0, 0, 23, 21, 8, 21504, 0, 0, 1], [67, 23, 46080, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 119: page=3072 budget=1 readahead=2 MultiPage
    (&[1153722, 4739190, 5887675, 6305656, 9972864, 9982864], [1, 3067, 35, 33, 14, 38400, 0, 0, 1], [105, 15, 67584, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 120: page=3072 budget=1 readahead=2 Beyond
    (&[70470, 4463636, 4463642, 6704122, 8959520, 8969520], [7, 278, 5, 3, 3, 128, 0, 0, 1], [15, 13, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 121: page=3072 budget=1 readahead=2 RunsInPage
    (&[10010, 1138304, 1158556, 1158558, 2286392, 2286395, 3441652, 4569346, 4579346], [2, 25, 5, 1, 2, 68, 0, 0, 1], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 122: page=3072 budget=1 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 5637436, 5647436, 8160612, 8280624, 8290624], [1, 8, 10, 8, 1, 1536, 0, 0, 1], [22, 13, 16912, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 123: page=3072 budget=1 readahead=2 PastEof
    (&[71665, 1261133, 3645401, 3645708, 4798508, 7183390, 7193390, 7203390], [0, 0, 10, 7, 4, 7680, 0, 0, 2], [27, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 124: page=3072 budget=1 readahead=2 SyncReadBack
    (&[10307, 36374, 62441, 88508, 2472281, 3728255, 3856549, 3984843, 4113137, 4241431, 4242045, 4362667, 4372667, 5500961, 6756935, 6885229, 7013523, 7023523], [7, 21504, 9, 15, 4, 6144, 8, 7, 1], [48, 12, 35329, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 125: page=3072 budget=1 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 2308236, 2308390, 2308544, 3436378, 3436532, 3436686, 3436840, 3564674, 3564828, 3564982, 3565136, 3575136], [18, 13824, 6, 0, 1, 9216, 0, 0, 3], [13, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 126: page=3072 budget=4 readahead=0 Rows
    (&[10308, 10616, 10924, 36992, 63060, 63368, 63676, 63984, 3372746, 5623534, 6792094, 7927762, 8055750, 8183738, 8311726, 8439714, 8449714], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 19, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 127: page=3072 budget=4 readahead=0 Straddle
    (&[11842, 13377, 106553, 3804099, 3814099, 4958981, 6104477, 6114477], [3, 7680, 20, 12, 6, 21504, 0, 0, 4], [31, 20, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 128: page=3072 budget=4 readahead=0 MultiPage
    (&[109832, 4005672, 4107744, 5473918, 7038086, 7048086], [2, 6139, 34, 26, 10, 38400, 0, 0, 4], [58, 18, 64512, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 129: page=3072 budget=4 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 130: page=3072 budget=4 readahead=0 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 3441652, 4569346, 4579346], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 131: page=3072 budget=4 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 132: page=3072 budget=4 readahead=0 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 133: page=3072 budget=4 readahead=0 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2260402, 4509576, 6758750, 9007924, 9136218, 9264512, 9392806, 9513428, 9523428, 10651722, 11780016, 11908310, 12036604, 12046604], [0, 0, 16, 8, 4, 6144, 0, 0, 4], [45, 28, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 134: page=3072 budget=4 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 3443596, 3443750, 3443904, 3571738, 3571892, 3572046, 3572200, 3700034, 3700188, 3700342, 3700496, 3710496], [20, 15360, 4, 1, 1, 9216, 4, 2, 3], [17, 8, 15360, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 135: page=3072 budget=4 readahead=2 Rows
    (&[10308, 10616, 10924, 36992, 63060, 63368, 63676, 63984, 3372746, 5623534, 6792094, 7927762, 8055750, 8183738, 8311726, 8439714, 8449714], [16, 12288, 14, 6, 5, 7680, 0, 0, 4], [32, 19, 24576, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 136: page=3072 budget=4 readahead=2 Straddle
    (&[11842, 13377, 106553, 3804099, 3814099, 4958981, 6104477, 6114477], [3, 7680, 20, 12, 6, 21504, 0, 0, 4], [31, 20, 36864, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 137: page=3072 budget=4 readahead=2 MultiPage
    (&[109832, 4005672, 4107744, 5473918, 7038086, 7048086], [2, 6139, 34, 26, 10, 38400, 0, 0, 4], [58, 18, 64512, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 138: page=3072 budget=4 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 139: page=3072 budget=4 readahead=2 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 3441652, 4569346, 4579346], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 140: page=3072 budget=4 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 1, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 141: page=3072 budget=4 readahead=2 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 142: page=3072 budget=4 readahead=2 SyncReadBack
    (&[10307, 10614, 10921, 11228, 2260402, 6872216, 7000510, 7128804, 7257098, 7257712, 7258326, 7378948, 7388948, 8517242, 9780896, 9909190, 10037484, 10047484], [7, 21504, 9, 10, 4, 6144, 9, 7, 4], [47, 24, 38401, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 143: page=3072 budget=4 readahead=2 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 2308236, 2308390, 2308544, 3436378, 3436532, 3436686, 3436840, 3564674, 3564828, 3564982, 3565136, 3575136], [18, 13824, 6, 0, 1, 9216, 0, 0, 3], [13, 8, 9216, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 144: page=3072 budget=64 readahead=0 Rows
    (&[10308, 10616, 10924, 11232, 11540, 11848, 12156, 12464, 12772, 13080, 2375720, 3511388, 3639376, 3767364, 3895352, 4023340, 4033340], [18, 13824, 12, 0, 1, 7680, 0, 0, 6], [26, 10, 18432, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 145: page=3072 budget=64 readahead=0 Straddle
    (&[11842, 13377, 15833, 17675, 2301435, 3446317, 4591813, 4601813], [7, 16896, 16, 0, 1, 21504, 0, 0, 8], [16, 16, 24576, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 146: page=3072 budget=64 readahead=0 MultiPage
    (&[13992, 2290238, 2293922, 4644217, 5848385, 5858385], [6, 18427, 30, 0, 1, 38400, 0, 0, 15], [19, 19, 52224, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 147: page=3072 budget=64 readahead=0 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 148: page=3072 budget=64 readahead=0 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 3441652, 4569346, 4579346], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 149: page=3072 budget=64 readahead=0 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 0, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 150: page=3072 budget=64 readahead=0 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 151: page=3072 budget=64 readahead=0 SyncReadBack
    (&[10307, 10614, 10921, 11228, 1139522, 2267816, 2396110, 2524404, 2652698, 2780992, 2909286, 3029908, 5383588, 6511882, 7640176, 7768470, 7896764, 7906764], [0, 0, 16, 0, 1, 6144, 0, 0, 12], [45, 14, 32257, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 152: page=3072 budget=64 readahead=0 StreamEvictsDirty
    (&[10154, 10308, 10462, 10616, 10770, 10924, 11078, 11232, 11386, 11540, 11694, 11848, 1180248, 2308082, 3443596, 3443750, 3443904, 3571738, 3571892, 3572046, 3572200, 3700034, 3700188, 3700342, 3700496, 3710496], [20, 15360, 4, 0, 1, 9216, 4, 2, 3], [17, 8, 15360, 9216], 0xd4183417163a4169, 0x66210567da2353dd), // 153: page=3072 budget=64 readahead=2 Rows
    (&[10308, 10616, 10924, 11232, 11540, 11848, 12156, 12464, 12772, 13080, 2375720, 3511388, 3639376, 3767364, 3895352, 4023340, 4033340], [18, 13824, 12, 0, 1, 7680, 0, 0, 6], [26, 10, 18432, 7680], 0x4726f6bdd99d9c5d, 0xf69ce98861bee8bb), // 154: page=3072 budget=64 readahead=2 Straddle
    (&[11842, 13377, 15833, 17675, 2301435, 3446317, 4591813, 4601813], [7, 16896, 16, 0, 1, 21504, 0, 0, 8], [16, 16, 24576, 21504], 0x0a09f4aaeaeef1be, 0x3f8ac0cfb17421a2), // 155: page=3072 budget=64 readahead=2 MultiPage
    (&[13992, 2290238, 2293922, 4644217, 5848385, 5858385], [6, 18427, 30, 0, 1, 38400, 0, 0, 15], [19, 19, 52224, 38400], 0xbe1d1943a02a3f71, 0xe5bbf05f134be917), // 156: page=3072 budget=64 readahead=2 Beyond
    (&[10020, 1137728, 1137734, 3378914, 5634312, 5644312], [7, 278, 5, 0, 1, 128, 0, 0, 2], [12, 10, 9216, 128], 0xc86e5c443ac70f62, 0xd05a303374c4b13c), // 157: page=3072 budget=64 readahead=2 RunsInPage
    (&[10010, 1138304, 1138306, 1138308, 2266142, 2266145, 3441652, 4569346, 4579346], [2, 25, 5, 0, 1, 68, 0, 0, 2], [12, 12, 9216, 68], 0xd1e7df354d3504bb, 0x63ad7688241e5ff9), // 158: page=3072 budget=64 readahead=2 PartlyDirty
    (&[1137987, 2258302, 2258609, 3379231, 4524522, 5670018, 5790030, 5800030], [1, 8, 10, 0, 1, 1536, 0, 0, 4], [11, 10, 12298, 1536], 0x275a52938a575f80, 0x5edc46cf1cbd403f), // 159: page=3072 budget=64 readahead=2 PastEof
    (&[11228, 1166956, 2311224, 2311531, 3464331, 4609213, 4619213, 4629213], [1, 1536, 9, 0, 2, 7680, 0, 0, 6], [14, 14, 18432, 7680], 0x0a5e6197a4a2f0b8, 0xc7631e41e1b34a15), // 160: page=3072 budget=64 readahead=2 SyncReadBack
    (&[10307, 10614, 10921, 11228, 1139522, 2403176, 2531470, 2659764, 2788058, 2788672, 2789286, 2909908, 5263588, 6391882, 7655536, 7783830, 7912124, 7922124], [7, 21504, 9, 0, 1, 6144, 9, 7, 12], [47, 14, 38401, 6144], 0x4a8c78623497356d, 0xbe66044ed8d4e6bd), // 161: page=3072 budget=64 readahead=2 StreamEvictsDirty
];
