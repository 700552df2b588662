//! The *timing* and the *traffic* of the client page cache, pinned.
//! `cache_coherence` and `cache_identity` compare the cache's bytes; this
//! table pins what Figure 6/7's cache rows are made of: for three budgets ×
//! nine request shapes, a one-rank program at `MpiFile` level
//! (`write_runs_at`, `read_runs_into`, `sync`, reopen) records the rank's
//! clock after every call, the `cache.*` counters, the file system's
//! requests / seeks / bytes read / bytes written, a digest of every byte the
//! reads returned and a digest of the final file — as literals. A page is
//! one stripe and readahead two pages: neither is a hint.
//!
//! The table was recorded on the cache as it was before it became a fixed
//! set of page slots (PR 21), crossed with three page sizes and readahead
//! off/on: 162 rows. Every re-recording since moved rows only for a reason
//! it declared before it ran:
//!
//! * PR 21: a request — with its readahead window — of more pages than the
//!   budget holds is served a cache-full at a time instead of overshooting
//!   the budget (here: budget 1 `Straddle`, `MultiPage`, `Beyond`,
//!   `PastEof`, `SyncReadBack`, `Rows`, `StreamEvictsDirty`; budget 4
//!   `Beyond`); and a fill that needs the slot of a dirty page writes that
//!   page behind *before* its own read, not after: counters, requests and
//!   bytes as before, seeks and clocks moved (`MultiPage`,
//!   `StreamEvictsDirty` at budget 4).
//! * PR 22 re-recorded clocks and nothing else: a write-behind lets the
//!   rank go on at the request's NIC handoff, and the flush points (`sync`,
//!   reopen) wait for the disk. No call of any program ends later than it
//!   did, and `WAITED_FOR_DISK` keeps each program's old final clock as a
//!   bound. `Rows`, `PastEof` and `SyncReadBack` at budgets 4 and 64 did not
//!   move: what they write behind is one request of a flush, which ends at
//!   that request's durable point either way.
//! * Clustered write-behind: an eviction writes each dirty run of its
//!   victim as part of its stretch — the zero-gap dirty runs of the
//!   neighbouring cached pages, clipped to the stripe row (4 KiB here) — in
//!   one request, and what the neighbours lent is clean. Only budget-4 rows
//!   could move (a one-page budget has no neighbour to cluster and a 64-page
//!   one never evicts); `Straddle`, `MultiPage` and `Beyond` did, each
//!   ending earlier, with fewer requests or flushes in most, one seek more
//!   or less in some, and no row's bytes written grew.
//!
//! When `pnc_page_size` and `pnc_readahead` became constants, the 135 rows
//! of 512 B and 3 KiB pages and of readahead off went with them. The 27
//! kept are the stripe-page, readahead-2 rows as recorded, under their
//! labels without `page=` and `readahead=`, and so are their
//! `WAITED_FOR_DISK` bounds.
//!
//! * Asynchronous readahead: a readahead is issued at the rank's clock and
//!   the rank goes on; a page's first touch waits for its fill, every read
//!   queues on the rank's client link behind the one before it, and the
//!   flush points wait for reads in flight. Declared before it ran: rows 0,
//!   8, 9, 17, 18 and 26 move (`Rows` and `StreamEvictsDirty` at every
//!   budget, the only programs with a sequential read stream), clocks only —
//!   counters, requests, seeks, bytes and both digests equal — no call ends
//!   later, and `WAITED_FOR_DISK` holds. Without the wait at flush points
//!   the final clocks were ×0.73–0.99 (row 9: 4 677 304 → 3 421 842 ns).
//!   With it, each of the six rows' closing `Sync` waits for the readahead
//!   its last read left in flight, and nothing else differs: final clocks
//!   ×0.971–1.000 (row 9: 4 677 304 → 4 551 725 ns; rows 0 and 8 end where
//!   they did, at that readahead's landing).
//! * Vectored fills: a fill reads only each page's gaps below the end of
//!   the file, straight into slot memory, with one request per server;
//!   pages wholly past EOF are zeroed and send no request. Declared before
//!   it ran: 12 rows move (`PartlyDirty`, `PastEof` and
//!   `StreamEvictsDirty` at all three budgets, `RunsInPage` at 4 and 64
//!   pages, `Beyond` at 64), no call ends later, cache counters and both digests are
//!   equal, requests and seeks are equal or fewer and bytes read fewer
//!   (`PastEof`: 10 → 8 and 9 → 6 requests).
//!
//! One rank, so the servers see the requests in program order and every
//! number repeats. A mismatch prints the row as this build computes it, in
//! the table's format: virtual time is deterministic, so any difference is
//! a change of the cache's behaviour, never noise.

use hpc_sim::SimConfig;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// `SimConfig::test_small` stripes are 1 KiB on 4 servers: a page.
const PAGE: u64 = 1024;
/// Budgets in pages; the last never evicts.
const BUDGETS: [u64; 3] = [1, 4, 64];

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
    budget_pages: u64,
    shape: Shape,
}

impl Case {
    fn label(&self) -> String {
        format!("budget={} {:?}", self.budget_pages, self.shape)
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for budget_pages in BUDGETS {
        for shape in SHAPES {
            out.push(Case {
                budget_pages,
                shape,
            });
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
    let p = PAGE;
    let content: Vec<u8> = (0..content_len(p))
        .map(|i| 0x80 | (i * 131 % 127) as u8)
        .collect();
    pfs.create("f").import_bytes(&content);
    let info = Info::new()
        .with("pnc_cache", "enable")
        .with("pnc_cache_size", &(c.budget_pages * p).to_string());
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
    assert!(sum(3) > 150, "evictions: {}", sum(3));
    assert!(sum(6) > 30, "readahead pages issued: {}", sum(6));
    assert!(sum(7) > 20, "readahead hits: {}", sum(7));
    assert!(sum(8) > 80, "invalidations: {}", sum(8));
}

/// The final clock (ns) of every program, in `cases()` order, on the cache
/// that waited for the disk at every write-behind (the table as it stood
/// before PR 22): going on at the handoff and waiting at the flush points
/// never finishes a program later than waiting per request did.
#[rustfmt::skip]
const WAITED_FOR_DISK: [u64; 27] = [
    25975544, 25351210, 20991115, 17674311, 10165132, 6789369, 10283936, 11348577, 14202156,
    4677304, 14075050, 10458955, 9378580, 6789772, 6789369, 5773118, 4582326, 12074476,
    4677304, 9310250, 4563915, 5741863, 6789772, 6789369, 5773118, 4582326, 12074476,
];

/// One row per case, in `cases()` order.
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (&[10051, 10102, 10153, 10204, 35375, 35426, 35477, 35528, 60699, 60750, 60801, 60852, 1201092, 2328823, 2328874, 4584285, 6839696, 7967427, 10222838, 12478249, 14733660, 15861391, 18116802, 20372213, 22627624, 23765304], [12, 3072, 12, 21, 3, 3072, 11, 2, 1], [23, 23, 20480, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 0: budget=1 Rows
    (&[31382, 74044, 116706, 159368, 202030, 4595993, 6851455, 9106917, 11362379, 13617841, 13627841, 15883303, 17011085, 18138867, 18266649, 18394431, 18404431], [8, 2048, 22, 20, 6, 2560, 0, 0, 1], [26, 22, 16384, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 1: budget=1 Straddle
    (&[83414, 4536659, 4612839, 10244413, 10254413, 12765748, 17277288, 17287288], [0, 0, 23, 21, 8, 7168, 0, 0, 1], [23, 18, 15360, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 2: budget=1 MultiPage
    (&[160349, 6388173, 6540099, 7638808, 13301107, 13311107], [1, 1019, 35, 33, 14, 12800, 0, 0, 1], [36, 13, 22528, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 3: budget=1 Beyond
    (&[70470, 4463636, 4463642, 6704122, 8959520, 8969520], [7, 278, 5, 3, 3, 128, 0, 0, 1], [9, 9, 3072, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 4: budget=1 RunsInPage
    (&[10010, 1137520, 1157772, 1157774, 2285370, 2285373, 4525749, 5653443, 5663443], [2, 25, 5, 1, 2, 68, 0, 0, 1], [6, 6, 3004, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 5: budget=1 PartlyDirty
    (&[1133942, 1134044, 1134146, 3408483, 3418483, 7926236, 7926240, 7936240], [1, 8, 10, 8, 1, 512, 0, 0, 1], [8, 8, 5646, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 6: budget=1 PastEof
    (&[60565, 1195856, 4579305, 4579407, 5729647, 9113302, 9123302, 9133302], [0, 0, 10, 7, 4, 2560, 0, 0, 2], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 7: budget=1 SyncReadBack
    (&[10102, 32764, 55426, 78088, 2258227, 3386112, 4513997, 5641882, 5769767, 5897652, 6021697, 6021902, 6031902, 7159787, 8287672, 9415557, 10543442, 10681122], [7, 7168, 9, 15, 4, 2048, 8, 7, 1], [16, 12, 11776, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 8: budget=1 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411485, 3411536, 3411587, 3411638, 3411689, 3411740, 3411791, 3411842, 4551725], [20, 5120, 4, 1, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 9: budget=4 Rows
    (&[10102, 10204, 10306, 32328, 54350, 54452, 54554, 54656, 3469259, 5714721, 7959441, 9087223, 10215005, 11342787, 11470569, 11598351, 11608351], [16, 4096, 14, 6, 5, 2560, 0, 0, 4], [18, 15, 8192, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 10: budget=4 Straddle
    (&[10614, 11126, 40906, 3371180, 3381180, 4509475, 5637975, 5647975], [3, 2560, 20, 12, 3, 7168, 0, 0, 4], [20, 16, 12288, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 11: budget=4 MultiPage
    (&[43281, 2629530, 2663548, 3880780, 5393959, 5403959], [2, 2043, 34, 26, 4, 12800, 0, 0, 4], [35, 12, 21504, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 12: budget=4 Beyond
    (&[10020, 1137053, 1137059, 3378239, 5633637, 5643637], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 2982, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 13: budget=4 RunsInPage
    (&[10010, 1137520, 1137522, 1137524, 2265120, 2265123, 4525749, 5653443, 5663443], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3004, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 14: budget=4 PartlyDirty
    (&[1133942, 1134044, 1134146, 1134350, 2274590, 3403090, 3403094, 3413094], [1, 8, 10, 1, 1, 512, 0, 0, 4], [6, 6, 4103, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 15: budget=4 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 16: budget=4 SyncReadBack
    (&[10102, 10204, 10306, 10408, 2258533, 4551778, 6777343, 6777548, 6905228, 6907788, 7029273, 7029478, 7039478, 8167363, 9295248, 10423133, 10423338, 10563373], [7, 7168, 9, 10, 4, 2048, 9, 7, 4], [17, 12, 12800, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 17: budget=4 StreamEvictsDirty
    (&[10051, 10102, 10153, 10204, 10255, 10306, 10357, 10408, 10459, 10510, 10561, 10612, 1155972, 2283703, 2283754, 2283805, 2283856, 3411485, 3411536, 3411587, 3411638, 3411689, 3411740, 3411791, 3411842, 4551725], [20, 5120, 4, 0, 1, 3072, 4, 2, 3], [8, 7, 5120, 3072], 0x70a1c0449a695965, 0x329e012d1d3a46c1), // 18: budget=64 Rows
    (&[10102, 10204, 10306, 10408, 10510, 10612, 10714, 10816, 10918, 11020, 2362140, 3489922, 4617704, 5745486, 5873268, 6001050, 6011050], [18, 4608, 12, 0, 1, 2560, 0, 0, 6], [16, 12, 6144, 2560], 0x30d463f7bfe8316d, 0x342cc3328259982f), // 19: budget=64 Straddle
    (&[10614, 11126, 11946, 12560, 2264320, 3392615, 4521115, 4531115], [7, 5632, 16, 0, 1, 7168, 0, 0, 8], [16, 13, 8192, 7168], 0x05faf7204b14c209, 0x9b3009e316b20c7e), // 20: budget=64 MultiPage
    (&[11333, 2263416, 2264646, 4538189, 5691368, 5701368], [6, 6139, 30, 0, 1, 12800, 0, 0, 15], [16, 15, 15872, 12800], 0xb72ff2b28d79f7a5, 0xd40be89314fa5425), // 21: budget=64 Beyond
    (&[10020, 1137053, 1137059, 3378239, 5633637, 5643637], [7, 278, 5, 0, 1, 128, 0, 0, 2], [6, 6, 2982, 128], 0x57e7603d3d7414df, 0x3da60ecbf3ece667), // 22: budget=64 RunsInPage
    (&[10010, 1137520, 1137522, 1137524, 2265120, 2265123, 4525749, 5653443, 5663443], [2, 25, 5, 0, 1, 68, 0, 0, 2], [6, 6, 3004, 68], 0xf80cac50ceabe923, 0xf3b9fde44523e164), // 23: budget=64 PartlyDirty
    (&[1133942, 1134044, 1134146, 1134350, 2274590, 3403090, 3403094, 3413094], [1, 8, 10, 0, 1, 512, 0, 0, 4], [6, 6, 4103, 512], 0xde72b7f9f352ac8a, 0x1062e1ccc42847df), // 24: budget=64 PastEof
    (&[10409, 1155600, 2283689, 2283791, 3434031, 4562326, 4572326, 4582326], [1, 512, 9, 0, 2, 2560, 0, 0, 6], [10, 10, 6144, 2560], 0xb38fbeb659d39c26, 0x6b81d5c6c1fa967a), // 25: budget=64 SyncReadBack
    (&[10102, 10204, 10306, 10408, 1138293, 2266178, 3394063, 3394268, 3521948, 3524508, 3645993, 3646198, 4854118, 5982003, 7109888, 8237773, 8237978, 8378013], [7, 7168, 9, 0, 1, 2048, 9, 7, 12], [17, 12, 12800, 2048], 0x06dada3af5bdd9d9, 0xff6d230cb184a1f9), // 26: budget=64 StreamEvictsDirty
];
