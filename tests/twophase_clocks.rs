//! The *timing* of the two-phase engine, pinned. `twophase_identity` and
//! `collbuf_reuse` compare the engines' bytes; this table pins their clocks:
//! for {write, read} × `pnc_cb_pipeline` × three collective-buffer sizes ×
//! four rank counts × five run-list shapes it records the final
//! synchronized clock, a digest of every rank's phase split, a digest of
//! every span the collective recorded, a digest of the bytes it moved, and
//! the `twophase.*` counters — as they were at commit a387bfe, before the
//! four engines became one. Two more rows repeat under injected transient
//! and short faults, so the retry ladder's attempt and backoff sequence is
//! pinned too (its backoffs are on the clock).
//!
//! The `cb=1048576` rows were re-recorded when the unhinted aggregator count
//! stopped shrinking with the request volume: each of those collectives fits
//! one buffer, so it had one aggregator and now has one per server (at most
//! one per rank). Their byte digests did not move.
//!
//! The table once crossed `pnc_cb_affinity` as well. When the hint went,
//! so did the 120 rows of contiguous write domains and the 120 read rows
//! that repeated the others (a read never was affine); every row kept is
//! as recorded, under its label without `affinity=`.
//!
//! 32 write rows at 2 and 3 ranks with `cb=3072` and `cb=1048576` were
//! re-recorded when the PFS's two write doors became one: a window whose
//! stripes lie on more than one server now prices each server's portion by
//! the bytes sent before it and its own, in issue order, as a contiguous
//! write always was. Their byte digests and counters, `overlap_saved_nanos`
//! of rows 80, 83, 85, 86 and 88 aside, did not move.
//!
//! 24 write rows at 2–4 ranks with `cb=3072` and `cb=1048576`, both
//! pipeline settings, `Holes` and `OneEmpty`, were re-recorded when the PFS
//! got a vectored read door: a window's read-modify-write reads all its
//! holed spans with one request, one per server, where it read them one
//! after another. Each ends earlier (×0.343–0.999), at or under its value
//! before the unhinted aggregator count changed; byte digests and counters,
//! `overlap_saved_nanos` of row 88 aside, did not move.
//!
//! A mismatch prints the row as this build computes it, in the table's
//! format; virtual time is deterministic, so any difference is a change of
//! the model, never noise.

use std::collections::HashMap;

use hpc_sim::trace::events::layer;
use hpc_sim::{FaultPlan, SimConfig};
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_mpio::{MpiFile, OpenMode, Run};
use pnetcdf_pfs::{Pfs, StorageMode};

/// `SimConfig::test_small` stripes are 1 KiB on 4 servers.
const STRIPE: u64 = 1024;
/// A write starts from this much old content, so late windows
/// read-modify-write across and past the end of the file.
const OLD_LEN: u64 = 10 * STRIPE;
/// A read finds this much content: more than any run list reaches.
const CONTENT_LEN: u64 = 32 * STRIPE;

const CB_SIZES: [usize; 3] = [1024, 3072, 1 << 20];
const RANKS: [usize; 4] = [2, 3, 4, 7];

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Block-cyclic 700-byte blocks tiling a ragged region: no holes.
    Dense,
    /// Random runs with holes between them: read-modify-write windows.
    Holes,
    /// Every rank's runs overlap its neighbours': the highest rank wins.
    Overlap,
    /// `Holes`, but rank 1 contributes nothing.
    OneEmpty,
    /// Nobody contributes anything: the collective is one barrier.
    AllEmpty,
}

const SHAPES: [Shape; 5] = [
    Shape::Dense,
    Shape::Holes,
    Shape::Overlap,
    Shape::OneEmpty,
    Shape::AllEmpty,
];

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

fn holes(nranks: usize, rank: usize) -> Vec<Run> {
    let mut rng = Rng(0x9e37_79b9 * (nranks as u64 * 16 + rank as u64 + 1));
    let mut out = Vec::new();
    let mut at = rng.below(900);
    loop {
        let len = 1 + rng.below(700);
        if at + len > 12 * STRIPE {
            return out;
        }
        out.push((at, len));
        at += len + 1 + rng.below(600);
    }
}

fn runs_for(shape: Shape, nranks: usize, rank: usize) -> Vec<Run> {
    match shape {
        Shape::Dense => (0..5)
            .map(|g| (300 + (g * nranks + rank) as u64 * 700, 700))
            .collect(),
        Shape::Holes => holes(nranks, rank),
        Shape::Overlap => (0..4)
            .map(|g| (rank as u64 * 400 + g * 3000, 1500))
            .collect(),
        Shape::OneEmpty if rank == 1 => Vec::new(),
        Shape::OneEmpty => holes(nranks, rank),
        Shape::AllEmpty => Vec::new(),
    }
}

fn payload(runs: &[Run], rank: usize) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    (0..total)
        .map(|i| ((i * 7 + rank as u64 * 29) % 0x7f) as u8 + 1)
        .collect()
}

fn toggle(on: bool) -> &'static str {
    if on {
        "enable"
    } else {
        "disable"
    }
}

#[derive(Clone, Copy, Debug)]
struct Config {
    write: bool,
    pipeline: bool,
    cb: usize,
    nranks: usize,
    shape: Shape,
}

impl Config {
    fn label(&self) -> String {
        format!(
            "{} pipeline={} cb={} ranks={} {:?}",
            if self.write { "write" } else { "read" },
            self.pipeline as u8,
            self.cb,
            self.nranks,
            self.shape
        )
    }
}

/// What one collective did: `(final clock ns, phase digest, span digest,
/// byte digest, [windows, rmw_windows, rounds, overlap_saved_ns,
/// exchange_wire_bytes, file_domains, cb_nodes])`.
type Row = (u64, u64, u64, u64, [u64; 7]);

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Run one collective on a fresh file system; `faults` is a fault-plan spec.
/// Returns the row and `[retries, backoff_ns, short_completions]`.
fn measure(c: Config, faults: &str) -> (Row, [u64; 3]) {
    let mut cfg = SimConfig::test_small();
    cfg.faults = FaultPlan::from_spec(faults).unwrap();
    cfg.profile.set_enabled(true);
    cfg.events.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let len = if c.write { OLD_LEN } else { CONTENT_LEN };
    let content: Vec<u8> = (0..len).map(|i| 0x80 | (i * 131 % 127) as u8).collect();
    pfs.create("f").import_bytes(&content);
    let info = Info::new()
        .with("cb_buffer_size", &c.cb.to_string())
        .with("pnc_cb_pipeline", toggle(c.pipeline));
    let pfs_in = pfs.clone();
    let run = run_world(c.nranks, cfg.clone(), move |comm| {
        let runs = runs_for(c.shape, c.nranks, comm.rank());
        if c.write {
            let f = MpiFile::open(comm, &pfs_in, "f", OpenMode::ReadWrite, &info).unwrap();
            f.write_runs_at_all(&runs, &payload(&runs, comm.rank()))
                .unwrap();
            Vec::new()
        } else {
            let f = MpiFile::open(comm, &pfs_in, "f", OpenMode::ReadOnly, &info).unwrap();
            f.read_runs_at_all(&runs).unwrap()
        }
    });

    let snap = cfg.profile.snapshot();
    let mut phases = FNV_BASIS;
    for (rank, clock) in run.clocks.iter().enumerate() {
        phases = fnv_u64(phases, clock.as_nanos());
        for &nanos in &snap.phase_nanos[rank] {
            phases = fnv_u64(phases, nanos);
        }
    }

    // Span ids are drawn from one counter shared with the rank threads, so
    // the digest names a span's parent by what it is, not by its id.
    let trace = cfg.events.snapshot();
    assert_eq!(trace.dropped, 0);
    let describe = |s: &hpc_sim::Span| {
        format!(
            "{}|{}|{}|{}|{}|{:?}|{:?}",
            s.rank, s.layer, s.name, s.begin, s.end, s.stage, s.args
        )
    };
    let by_id: HashMap<u64, String> = trace
        .spans
        .iter()
        .filter(|s| s.id != 0)
        .map(|s| (s.id, describe(s)))
        .collect();
    let mut lines: Vec<String> = trace
        .spans
        .iter()
        .filter(|s| [layer::MPIO, layer::PFS, layer::RETRY].contains(&s.layer))
        .map(|s| {
            let parent = by_id.get(&s.parent).map_or("-", String::as_str);
            format!("{} <- {parent}", describe(s))
        })
        .collect();
    lines.sort();
    let spans = lines.iter().fold(FNV_BASIS, |h, l| {
        fnv_bytes(fnv_u64(h, l.len() as u64), l.as_bytes())
    });

    let bytes = if c.write {
        fnv_bytes(FNV_BASIS, &pfs.open("f").unwrap().to_bytes())
    } else {
        run.results.iter().fold(FNV_BASIS, |h, got| {
            fnv_bytes(fnv_u64(h, got.len() as u64), got)
        })
    };
    let t = snap.twophase;
    let row = (
        run.makespan.as_nanos(),
        phases,
        spans,
        bytes,
        [
            t.windows,
            t.rmw_windows,
            t.pipelined_rounds,
            t.overlap_saved_nanos,
            t.exchange_wire_bytes,
            t.file_domains,
            t.cb_nodes,
        ],
    );
    let f = snap.faults;
    (row, [f.retries, f.backoff_nanos, f.short_completions])
}

fn show(row: &Row) -> String {
    format!(
        "({}, {:#018x}, {:#018x}, {:#018x}, {:?})",
        row.0, row.1, row.2, row.3, row.4
    )
}

fn configs() -> Vec<Config> {
    let mut out = Vec::new();
    for write in [true, false] {
        for pipeline in [false, true] {
            for cb in CB_SIZES {
                for nranks in RANKS {
                    for shape in SHAPES {
                        out.push(Config {
                            write,
                            pipeline,
                            cb,
                            nranks,
                            shape,
                        });
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_engine_keeps_its_recorded_clock() {
    let configs = configs();
    let mut wrong = Vec::new();
    for (i, &c) in configs.iter().enumerate() {
        let (row, faults) = measure(c, "");
        assert_eq!(faults, [0; 3], "{}: fault-free run retried", c.label());
        if GOLDEN.get(i) != Some(&row) {
            wrong.push(format!("    {}, // {i}: {}", show(&row), c.label()));
        }
    }
    assert!(
        wrong.is_empty() && GOLDEN.len() == configs.len(),
        "{} of {} rows differ from the recorded table ({} recorded); this build computes:\n{}",
        wrong.len(),
        configs.len(),
        GOLDEN.len(),
        wrong.join("\n")
    );
    // The premise: the table exercises every branch it claims to pin.
    let sum = |k: usize| GOLDEN.iter().map(|r| r.4[k]).sum::<u64>();
    assert!(sum(1) > 100, "read-modify-write windows: {}", sum(1));
    assert!(sum(2) > 150, "pipelined rounds: {}", sum(2));
    assert!(sum(3) > 0, "no overlap was ever saved");
}

/// The same engine under `transient=0.1,short=0.1`: every retry's backoff
/// is on the clock, so these rows move if the ladder under the windows
/// makes a different attempt or backoff sequence.
#[test]
fn faulted_collectives_keep_their_recorded_clock() {
    let faulted = [
        Config {
            write: true,
            pipeline: true,
            cb: 1024,
            nranks: 3,
            shape: Shape::Holes,
        },
        Config {
            write: false,
            pipeline: false,
            cb: 3072,
            nranks: 3,
            shape: Shape::Dense,
        },
    ];
    let mut wrong = Vec::new();
    for (i, c) in faulted.into_iter().enumerate() {
        let (row, faults) = measure(c, "transient=0.1,short=0.1");
        assert!(faults[0] > 0, "{}: the plan never fired", c.label());
        if GOLDEN_FAULTED.get(i) != Some(&(row, faults)) {
            wrong.push(format!(
                "    ({}, {faults:?}), // {}",
                show(&row),
                c.label()
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "faulted rows differ from the recorded ones; this build computes:\n{}",
        wrong.join("\n")
    );
}

/// `(row, [retries, backoff_ns, short_completions])` of the two faulted
/// configurations, recorded at a387bfe.
#[rustfmt::skip]
const GOLDEN_FAULTED: &[(Row, [u64; 3])] = &[
    ((6503177, 0xcb77dca09310fdba, 0x3510569729ab181f, 0x487c7a930179b738, [12, 11, 6, 4046689, 11906, 3, 3]), [6, 300000, 4]), // write pipeline=1 cb=1024 ranks=3 Holes
    ((4127623, 0xd5796bc4d41c623b, 0x7299a850e40e1cc2, 0x53065934b6f52f67, [6, 0, 0, 0, 6492, 3, 3]), [4, 200000, 3]), // read pipeline=0 cb=3072 ranks=3 Dense
];

/// One row per configuration, in `configs()` order, recorded at a387bfe
/// (the `cb=1048576` rows later, see the module docs).
#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    (2555508, 0xaede3f502f9395af, 0x4d037aef5bea27be, 0x78bba7ea3dbe9b6f, [8, 0, 0, 0, 3040, 2, 2]), // 0: write pipeline=0 cb=1024 ranks=2 Dense
    (10584751, 0x59b38aa109352133, 0xd704e7df934f9209, 0x3d543eaa7829b43a, [12, 10, 0, 0, 6123, 2, 2]), // 1: write pipeline=0 cb=1024 ranks=2 Holes
    (3812651, 0xee829160f2445315, 0xd2e47882ba1b55f8, 0xaefb824a53360f03, [11, 0, 0, 0, 5856, 2, 2]), // 2: write pipeline=0 cb=1024 ranks=2 Overlap
    (11470535, 0xd8cc29890b833173, 0x9393bad7dad34472, 0xffe2386c4e1435ae, [12, 9, 0, 0, 2141, 2, 2]), // 3: write pipeline=0 cb=1024 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 4: write pipeline=0 cb=1024 ranks=2 AllEmpty
    (2707109, 0x9200f0065f13314b, 0x3ddb0b19300ad09e, 0x5769a382afa16cb9, [11, 0, 0, 0, 5060, 3, 3]), // 5: write pipeline=0 cb=1024 ranks=3 Dense
    (9488671, 0x33c3e4873e14805b, 0x179e582731521f58, 0x487c7a930179b738, [12, 11, 0, 0, 11906, 3, 3]), // 6: write pipeline=0 cb=1024 ranks=3 Holes
    (3961641, 0x0591605cd03dccbf, 0x0fd5f66720cc77fa, 0xd2aa72c86a931a47, [12, 3, 0, 0, 11640, 3, 3]), // 7: write pipeline=0 cb=1024 ranks=3 Overlap
    (8352372, 0xe877250bd47d4df5, 0xf32ec9fba969f9ab, 0xe3c4653eb54d52de, [12, 10, 0, 0, 7323, 3, 3]), // 8: write pipeline=0 cb=1024 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 9: write pipeline=0 cb=1024 ranks=3 AllEmpty
    (1579577, 0x2a3b99abbbc075da, 0x44aee876a2490048, 0x04dfe7ef4f9e89f5, [14, 0, 0, 0, 10040, 4, 4]), // 10: write pipeline=0 cb=1024 ranks=4 Dense
    (4707773, 0x218869671a036f12, 0x29b185e7fa9254f2, 0xc204f1ae43410b2a, [12, 5, 0, 0, 19497, 4, 4]), // 11: write pipeline=0 cb=1024 ranks=4 Holes
    (2574451, 0xff6bc83f0732b6f2, 0xed7252b5842f0bfa, 0xcce1fdd97d38f46b, [12, 3, 0, 0, 17568, 4, 4]), // 12: write pipeline=0 cb=1024 ranks=4 Overlap
    (4707450, 0xb8a80d2ac2192746, 0x89bdc4a8f8d867e5, 0xa5e88f9658df5b03, [12, 6, 0, 0, 15027, 4, 4]), // 13: write pipeline=0 cb=1024 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 14: write pipeline=0 cb=1024 ranks=4 AllEmpty
    (1987463, 0x527d599c1e61174f, 0x746df4efa4195d8a, 0xa40bdac50f6b94ee, [25, 0, 0, 0, 21024, 4, 4]), // 15: write pipeline=0 cb=1024 ranks=7 Dense
    (1478063, 0xd6e1296907f32492, 0x06261b1b326f9511, 0x554d75f29c467da7, [12, 0, 0, 0, 38348, 4, 4]), // 16: write pipeline=0 cb=1024 ranks=7 Holes
    (1603193, 0xc30885655e48c8d7, 0x6ba1ec27ba096d5f, 0x61fc6be1a1f913b8, [13, 0, 0, 0, 35568, 4, 4]), // 17: write pipeline=0 cb=1024 ranks=7 Overlap
    (2600374, 0x281579a6a2123847, 0x67cf2eba89574af3, 0xaf0f2e74b12f2317, [12, 1, 0, 0, 33410, 4, 4]), // 18: write pipeline=0 cb=1024 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 19: write pipeline=0 cb=1024 ranks=7 AllEmpty
    (1305267, 0x168b9bee73c76404, 0xcabbfc741477b434, 0x78bba7ea3dbe9b6f, [4, 0, 0, 0, 3040, 2, 2]), // 20: write pipeline=0 cb=3072 ranks=2 Dense
    (4588908, 0x5a0e52f897737712, 0xaccdd2c98465ec1d, 0x3d543eaa7829b43a, [4, 4, 0, 0, 6123, 2, 2]), // 21: write pipeline=0 cb=3072 ranks=2 Holes
    (2309062, 0x863b4454ebc82888, 0x01b0716c4a50c03b, 0xaefb824a53360f03, [4, 0, 0, 0, 5856, 2, 2]), // 22: write pipeline=0 cb=3072 ranks=2 Overlap
    (4587063, 0x9dc852e3315a856c, 0x70209757ef3e8708, 0xffe2386c4e1435ae, [4, 4, 0, 0, 2141, 2, 2]), // 23: write pipeline=0 cb=3072 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 24: write pipeline=0 cb=3072 ranks=2 AllEmpty
    (1329188, 0xee1c119827d30f92, 0x96382cdca95c5d10, 0x5769a382afa16cb9, [4, 0, 0, 0, 5060, 3, 3]), // 25: write pipeline=0 cb=3072 ranks=3 Dense
    (3615546, 0xf802050ee57ac7a2, 0x9aea2e1a1016f82b, 0x487c7a930179b738, [4, 4, 0, 0, 11906, 3, 3]), // 26: write pipeline=0 cb=3072 ranks=3 Holes
    (2461162, 0xacf6928d16905d96, 0x7e8a6e208812c166, 0xd2aa72c86a931a47, [4, 3, 0, 0, 11640, 3, 3]), // 27: write pipeline=0 cb=3072 ranks=3 Overlap
    (3592372, 0x3e03a759be2ec8b2, 0x9604d93c01a7718a, 0xe3c4653eb54d52de, [4, 4, 0, 0, 7323, 3, 3]), // 28: write pipeline=0 cb=3072 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 29: write pipeline=0 cb=3072 ranks=3 AllEmpty
    (1339576, 0x398fbc6adcb23d2c, 0x23d0805076bbcba4, 0x04dfe7ef4f9e89f5, [6, 0, 0, 0, 10040, 4, 4]), // 30: write pipeline=0 cb=3072 ranks=4 Dense
    (2347772, 0x2675cd0baeadab05, 0x6bceaa90a1ccc8ea, 0xc204f1ae43410b2a, [4, 4, 0, 0, 19497, 4, 4]), // 31: write pipeline=0 cb=3072 ranks=4 Holes
    (2334450, 0xe7273c6468d584ac, 0x100ad7759569d56e, 0xcce1fdd97d38f46b, [4, 3, 0, 0, 17568, 4, 4]), // 32: write pipeline=0 cb=3072 ranks=4 Overlap
    (2347922, 0x1c9403b8a834bd3e, 0xe08dbc21b5105178, 0xa5e88f9658df5b03, [4, 4, 0, 0, 15027, 4, 4]), // 33: write pipeline=0 cb=3072 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 34: write pipeline=0 cb=3072 ranks=4 AllEmpty
    (1507461, 0x527c9bd9409d293c, 0xc0dd1ced9d174a9c, 0xa40bdac50f6b94ee, [9, 0, 0, 0, 21024, 4, 4]), // 35: write pipeline=0 cb=3072 ranks=7 Dense
    (1238063, 0x4fadd9497ec3d6cc, 0x29cbd493edf877e3, 0x554d75f29c467da7, [4, 0, 0, 0, 38348, 4, 4]), // 36: write pipeline=0 cb=3072 ranks=7 Holes
    (1363194, 0xf29094925df976b6, 0xd531177f47676a60, 0x61fc6be1a1f913b8, [5, 0, 0, 0, 35568, 4, 4]), // 37: write pipeline=0 cb=3072 ranks=7 Overlap
    (2360374, 0x2337271f26d8c5a2, 0x5a55f4882e55908b, 0xaf0f2e74b12f2317, [4, 1, 0, 0, 33410, 4, 4]), // 38: write pipeline=0 cb=3072 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 39: write pipeline=0 cb=3072 ranks=7 AllEmpty
    (1177277, 0xa34bd2a47123ea39, 0x01678c3b142d1a6c, 0x78bba7ea3dbe9b6f, [2, 0, 0, 0, 3040, 2, 2]), // 40: write pipeline=0 cb=1048576 ranks=2 Dense
    (2342098, 0x956cd31aaa5cc6c7, 0x902861afcd9c6784, 0x3d543eaa7829b43a, [2, 2, 0, 0, 6123, 2, 2]), // 41: write pipeline=0 cb=1048576 ranks=2 Holes
    (1187081, 0x233fe7e57d908e1e, 0xf45f3f3acb7ad9b4, 0xaefb824a53360f03, [2, 0, 0, 0, 5856, 2, 2]), // 42: write pipeline=0 cb=1048576 ranks=2 Overlap
    (2341567, 0x39eecc9f6cfa7ab8, 0x036d97781e8180a2, 0xffe2386c4e1435ae, [2, 2, 0, 0, 2141, 2, 2]), // 43: write pipeline=0 cb=1048576 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 44: write pipeline=0 cb=1048576 ranks=2 AllEmpty
    (1206628, 0xc5f636719c2e81e7, 0x482768f7eac4c5bf, 0x5769a382afa16cb9, [3, 0, 0, 0, 5060, 3, 3]), // 45: write pipeline=0 cb=1048576 ranks=3 Dense
    (2361768, 0x466bf751f326d37d, 0x7e69c0c0971dcc53, 0x487c7a930179b738, [3, 3, 0, 0, 11906, 3, 3]), // 46: write pipeline=0 cb=1048576 ranks=3 Holes
    (2338602, 0x84510b55c805241c, 0x2e0a6e481a7381b3, 0xd2aa72c86a931a47, [3, 3, 0, 0, 11640, 3, 3]), // 47: write pipeline=0 cb=1048576 ranks=3 Overlap
    (2354748, 0xc19a025194934e64, 0x3d52bb9ef3cb5352, 0xe3c4653eb54d52de, [3, 3, 0, 0, 7323, 3, 3]), // 48: write pipeline=0 cb=1048576 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 49: write pipeline=0 cb=1048576 ranks=3 AllEmpty
    (1219576, 0x4b7adf94cdbaca90, 0xae53cebfb6cad78f, 0x04dfe7ef4f9e89f5, [4, 0, 0, 0, 10040, 4, 4]), // 50: write pipeline=0 cb=1048576 ranks=4 Dense
    (2347772, 0x2675cd0baeadab05, 0x6bceaa90a1ccc8ea, 0xc204f1ae43410b2a, [4, 4, 0, 0, 19497, 4, 4]), // 51: write pipeline=0 cb=1048576 ranks=4 Holes
    (2334450, 0xe7273c6468d584ac, 0x100ad7759569d56e, 0xcce1fdd97d38f46b, [4, 3, 0, 0, 17568, 4, 4]), // 52: write pipeline=0 cb=1048576 ranks=4 Overlap
    (2347922, 0x1c9403b8a834bd3e, 0xe08dbc21b5105178, 0xa5e88f9658df5b03, [4, 4, 0, 0, 15027, 4, 4]), // 53: write pipeline=0 cb=1048576 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 54: write pipeline=0 cb=1048576 ranks=4 AllEmpty
    (1267462, 0xaa840613462da9b4, 0xf88bff9e74ecc820, 0xa40bdac50f6b94ee, [4, 0, 0, 0, 21024, 4, 4]), // 55: write pipeline=0 cb=1048576 ranks=7 Dense
    (1238063, 0x4fadd9497ec3d6cc, 0x29cbd493edf877e3, 0x554d75f29c467da7, [4, 0, 0, 0, 38348, 4, 4]), // 56: write pipeline=0 cb=1048576 ranks=7 Holes
    (1243194, 0x54c5f938883e2b6b, 0x220008b1db9f537d, 0x61fc6be1a1f913b8, [4, 0, 0, 0, 35568, 4, 4]), // 57: write pipeline=0 cb=1048576 ranks=7 Overlap
    (2360374, 0x2337271f26d8c5a2, 0x5a55f4882e55908b, 0xaf0f2e74b12f2317, [4, 1, 0, 0, 33410, 4, 4]), // 58: write pipeline=0 cb=1048576 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 59: write pipeline=0 cb=1048576 ranks=7 AllEmpty
    (1301978, 0x808ed29232be2fbc, 0xf041166179535453, 0x78bba7ea3dbe9b6f, [8, 0, 4, 3406522, 3040, 2, 2]), // 60: write pipeline=1 cb=1024 ranks=2 Dense
    (6950208, 0x07e1ff313b09c2a0, 0xc11a9d983d805903, 0x3d543eaa7829b43a, [12, 10, 6, 5583387, 6123, 2, 2]), // 61: write pipeline=1 cb=1024 ranks=2 Holes
    (2386598, 0x7cc10d36bc031dca, 0xf5dfadd2adf637b6, 0xaefb824a53360f03, [11, 0, 6, 5843521, 5856, 2, 2]), // 62: write pipeline=1 cb=1024 ranks=2 Overlap
    (6917033, 0xb5153fd5ce91b136, 0x1d043ddadaec3d36, 0xffe2386c4e1435ae, [12, 9, 6, 4613758, 2141, 2, 2]), // 63: write pipeline=1 cb=1024 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 64: write pipeline=1 cb=1024 ranks=2 AllEmpty
    (1414237, 0x79ad64e7c1f6219a, 0x893286365981488b, 0x5769a382afa16cb9, [11, 0, 5, 4618860, 5060, 3, 3]), // 65: write pipeline=1 cb=1024 ranks=3 Dense
    (6158721, 0xccfc8a0ce6978782, 0x1dfab5536cd74d2e, 0x487c7a930179b738, [12, 11, 6, 4424983, 11906, 3, 3]), // 66: write pipeline=1 cb=1024 ranks=3 Holes
    (2650358, 0x03832c114550ee77, 0xac3818e2acaea35b, 0xd2aa72c86a931a47, [12, 3, 6, 1432799, 11640, 3, 3]), // 67: write pipeline=1 cb=1024 ranks=3 Overlap
    (6005375, 0xcfb2d648c50b9ec0, 0xa3ffcca4f51f63aa, 0xe3c4653eb54d52de, [12, 10, 6, 2467883, 7323, 3, 3]), // 68: write pipeline=1 cb=1024 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 69: write pipeline=1 cb=1024 ranks=3 AllEmpty
    (1521821, 0xd764da5e6ee29cd2, 0x8f8eedf743c34f21, 0x04dfe7ef4f9e89f5, [14, 0, 4, 3618141, 10040, 4, 4]), // 70: write pipeline=1 cb=1024 ranks=4 Dense
    (4703483, 0x3978390500c50054, 0x46b7f3c5dad6d13f, 0xc204f1ae43410b2a, [12, 5, 3, 2254189, 19497, 4, 4]), // 71: write pipeline=1 cb=1024 ranks=4 Holes
    (2556337, 0x524f723521aed845, 0x8194b1b98c043d48, 0xcce1fdd97d38f46b, [12, 3, 3, 1210336, 17568, 4, 4]), // 72: write pipeline=1 cb=1024 ranks=4 Overlap
    (4703148, 0xa3e9abd499da15a8, 0x7e94a76114629158, 0xa5e88f9658df5b03, [12, 6, 3, 2254148, 15027, 4, 4]), // 73: write pipeline=1 cb=1024 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 74: write pipeline=1 cb=1024 ranks=4 AllEmpty
    (1865421, 0xba1560ae8a1a02f4, 0x02655d22c92aae24, 0xa40bdac50f6b94ee, [25, 0, 7, 5851684, 21024, 4, 4]), // 75: write pipeline=1 cb=1024 ranks=7 Dense
    (1451489, 0x4eb1e2248333e973, 0x6525abc8330da811, 0x554d75f29c467da7, [12, 0, 3, 2328442, 38348, 4, 4]), // 76: write pipeline=1 cb=1024 ranks=7 Holes
    (1552542, 0x44b3632a784df37b, 0xcf1dd42dc6d43470, 0x61fc6be1a1f913b8, [13, 0, 4, 3606534, 35568, 4, 4]), // 77: write pipeline=1 cb=1024 ranks=7 Overlap
    (2573017, 0x59bddcbfe58d38dd, 0x873a0703fb9c1290, 0xaf0f2e74b12f2317, [12, 1, 3, 86185, 33410, 4, 4]), // 78: write pipeline=1 cb=1024 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 79: write pipeline=1 cb=1024 ranks=7 AllEmpty
    (1283206, 0x01f8e99c11c0f3ab, 0xc5962c1586833094, 0x78bba7ea3dbe9b6f, [4, 0, 2, 1122208, 3040, 2, 2]), // 80: write pipeline=1 cb=3072 ranks=2 Dense
    (4581810, 0x36207dae52c324d0, 0x228576ba8d0060a0, 0x3d543eaa7829b43a, [4, 4, 2, 1122116, 6123, 2, 2]), // 81: write pipeline=1 cb=3072 ranks=2 Holes
    (2291894, 0x6f89b0a42f784e1d, 0x349f75fbb5b98792, 0xaefb824a53360f03, [4, 0, 2, 1125688, 5856, 2, 2]), // 82: write pipeline=1 cb=3072 ranks=2 Overlap
    (4578498, 0xa12f094c96ad4322, 0x7d2587bb8921cd2e, 0xffe2386c4e1435ae, [4, 4, 2, 1128317, 2141, 2, 2]), // 83: write pipeline=1 cb=3072 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 84: write pipeline=1 cb=3072 ranks=2 AllEmpty
    (1319858, 0x8a6ab42b3e40a64f, 0x019333fda85bdd32, 0x5769a382afa16cb9, [4, 0, 2, 1134510, 5060, 3, 3]), // 85: write pipeline=1 cb=3072 ranks=3 Dense
    (3616466, 0x84e112efffae8788, 0x56fff941154c3525, 0x487c7a930179b738, [4, 4, 2, 1137182, 11906, 3, 3]), // 86: write pipeline=1 cb=3072 ranks=3 Holes
    (2468836, 0x9732c77f447e2950, 0xd468c9343483f037, 0xd2aa72c86a931a47, [4, 3, 2, 1132140, 11640, 3, 3]), // 87: write pipeline=1 cb=3072 ranks=3 Overlap
    (3600691, 0x5f17963fc7ea2b15, 0xc11b651fe9cc8f17, 0xe3c4653eb54d52de, [4, 4, 2, 1133856, 7323, 3, 3]), // 88: write pipeline=1 cb=3072 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 89: write pipeline=1 cb=3072 ranks=3 AllEmpty
    (1334090, 0xc128f6ece693bcb4, 0xad7c642625fd8676, 0x04dfe7ef4f9e89f5, [6, 0, 2, 1136384, 10040, 4, 4]), // 90: write pipeline=1 cb=3072 ranks=4 Dense
    (2347772, 0x2675cd0baeadab05, 0x6bceaa90a1ccc8ea, 0xc204f1ae43410b2a, [4, 4, 0, 0, 19497, 4, 4]), // 91: write pipeline=1 cb=3072 ranks=4 Holes
    (2334450, 0xe7273c6468d584ac, 0x100ad7759569d56e, 0xcce1fdd97d38f46b, [4, 3, 0, 0, 17568, 4, 4]), // 92: write pipeline=1 cb=3072 ranks=4 Overlap
    (2347922, 0x1c9403b8a834bd3e, 0xe08dbc21b5105178, 0xa5e88f9658df5b03, [4, 4, 0, 0, 15027, 4, 4]), // 93: write pipeline=1 cb=3072 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 94: write pipeline=1 cb=3072 ranks=4 AllEmpty
    (1477330, 0x18962e9f8f47eea8, 0x39fb26b70bc28c1b, 0xa40bdac50f6b94ee, [9, 0, 3, 2380642, 21024, 4, 4]), // 95: write pipeline=1 cb=3072 ranks=7 Dense
    (1238063, 0x4fadd9497ec3d6cc, 0x29cbd493edf877e3, 0x554d75f29c467da7, [4, 0, 0, 0, 38348, 4, 4]), // 96: write pipeline=1 cb=3072 ranks=7 Holes
    (1370033, 0x69971fce77ba3052, 0x1f6c8efe12e34311, 0x61fc6be1a1f913b8, [5, 0, 2, 1146184, 35568, 4, 4]), // 97: write pipeline=1 cb=3072 ranks=7 Overlap
    (2360374, 0x2337271f26d8c5a2, 0x5a55f4882e55908b, 0xaf0f2e74b12f2317, [4, 1, 0, 0, 33410, 4, 4]), // 98: write pipeline=1 cb=3072 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 99: write pipeline=1 cb=3072 ranks=7 AllEmpty
    (1177277, 0xa34bd2a47123ea39, 0x01678c3b142d1a6c, 0x78bba7ea3dbe9b6f, [2, 0, 0, 0, 3040, 2, 2]), // 100: write pipeline=1 cb=1048576 ranks=2 Dense
    (2342098, 0x956cd31aaa5cc6c7, 0x902861afcd9c6784, 0x3d543eaa7829b43a, [2, 2, 0, 0, 6123, 2, 2]), // 101: write pipeline=1 cb=1048576 ranks=2 Holes
    (1187081, 0x233fe7e57d908e1e, 0xf45f3f3acb7ad9b4, 0xaefb824a53360f03, [2, 0, 0, 0, 5856, 2, 2]), // 102: write pipeline=1 cb=1048576 ranks=2 Overlap
    (2341567, 0x39eecc9f6cfa7ab8, 0x036d97781e8180a2, 0xffe2386c4e1435ae, [2, 2, 0, 0, 2141, 2, 2]), // 103: write pipeline=1 cb=1048576 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 104: write pipeline=1 cb=1048576 ranks=2 AllEmpty
    (1206628, 0xc5f636719c2e81e7, 0x482768f7eac4c5bf, 0x5769a382afa16cb9, [3, 0, 0, 0, 5060, 3, 3]), // 105: write pipeline=1 cb=1048576 ranks=3 Dense
    (2361768, 0x466bf751f326d37d, 0x7e69c0c0971dcc53, 0x487c7a930179b738, [3, 3, 0, 0, 11906, 3, 3]), // 106: write pipeline=1 cb=1048576 ranks=3 Holes
    (2338602, 0x84510b55c805241c, 0x2e0a6e481a7381b3, 0xd2aa72c86a931a47, [3, 3, 0, 0, 11640, 3, 3]), // 107: write pipeline=1 cb=1048576 ranks=3 Overlap
    (2354748, 0xc19a025194934e64, 0x3d52bb9ef3cb5352, 0xe3c4653eb54d52de, [3, 3, 0, 0, 7323, 3, 3]), // 108: write pipeline=1 cb=1048576 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 109: write pipeline=1 cb=1048576 ranks=3 AllEmpty
    (1219576, 0x4b7adf94cdbaca90, 0xae53cebfb6cad78f, 0x04dfe7ef4f9e89f5, [4, 0, 0, 0, 10040, 4, 4]), // 110: write pipeline=1 cb=1048576 ranks=4 Dense
    (2347772, 0x2675cd0baeadab05, 0x6bceaa90a1ccc8ea, 0xc204f1ae43410b2a, [4, 4, 0, 0, 19497, 4, 4]), // 111: write pipeline=1 cb=1048576 ranks=4 Holes
    (2334450, 0xe7273c6468d584ac, 0x100ad7759569d56e, 0xcce1fdd97d38f46b, [4, 3, 0, 0, 17568, 4, 4]), // 112: write pipeline=1 cb=1048576 ranks=4 Overlap
    (2347922, 0x1c9403b8a834bd3e, 0xe08dbc21b5105178, 0xa5e88f9658df5b03, [4, 4, 0, 0, 15027, 4, 4]), // 113: write pipeline=1 cb=1048576 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 114: write pipeline=1 cb=1048576 ranks=4 AllEmpty
    (1267462, 0xaa840613462da9b4, 0xf88bff9e74ecc820, 0xa40bdac50f6b94ee, [4, 0, 0, 0, 21024, 4, 4]), // 115: write pipeline=1 cb=1048576 ranks=7 Dense
    (1238063, 0x4fadd9497ec3d6cc, 0x29cbd493edf877e3, 0x554d75f29c467da7, [4, 0, 0, 0, 38348, 4, 4]), // 116: write pipeline=1 cb=1048576 ranks=7 Holes
    (1243194, 0x54c5f938883e2b6b, 0x220008b1db9f537d, 0x61fc6be1a1f913b8, [4, 0, 0, 0, 35568, 4, 4]), // 117: write pipeline=1 cb=1048576 ranks=7 Overlap
    (2360374, 0x2337271f26d8c5a2, 0x5a55f4882e55908b, 0xaf0f2e74b12f2317, [4, 1, 0, 0, 33410, 4, 4]), // 118: write pipeline=1 cb=1048576 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0xc14af20c595e19d5, [0, 0, 0, 0, 0, 0, 0]), // 119: write pipeline=1 cb=1048576 ranks=7 AllEmpty
    (4649257, 0x494dd877b6a31353, 0xea0f102057044712, 0x33de7ce0a6127557, [8, 0, 0, 0, 3096, 2, 2]), // 120: read pipeline=0 cb=1024 ranks=2 Dense
    (6810761, 0x1b4c60245ce39abe, 0xe869bc98b04d735b, 0xc08d022aff6489c7, [12, 0, 0, 0, 6539, 2, 2]), // 121: read pipeline=0 cb=1024 ranks=2 Holes
    (6793873, 0xef8b4b02c00c5997, 0xfba31a8e53df0b38, 0x96595b5d6bfb7095, [11, 0, 0, 0, 5856, 2, 2]), // 122: read pipeline=0 cb=1024 ranks=2 Overlap
    (6800196, 0x0bedf88e5295b025, 0xf649561b2b0842a9, 0x3d29bccfb8d9a667, [12, 0, 0, 0, 2672, 2, 2]), // 123: read pipeline=0 cb=1024 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 124: read pipeline=0 cb=1024 ranks=2 AllEmpty
    (4687126, 0x3c9451b619018113, 0xf90a24f6d223b5ea, 0x53065934b6f52f67, [11, 0, 0, 0, 6492, 3, 3]), // 125: read pipeline=0 cb=1024 ranks=3 Dense
    (4795422, 0x6df27a8fbe693770, 0xa157b611f2a101a7, 0x0259d0d85b75555f, [12, 0, 0, 0, 11578, 3, 3]), // 126: read pipeline=0 cb=1024 ranks=3 Holes
    (4789035, 0x464c2074fe2caaa9, 0x8a628dc006ac0cf3, 0x8abedc3245ec78f9, [12, 0, 0, 0, 11492, 3, 3]), // 127: read pipeline=0 cb=1024 ranks=3 Overlap
    (4789270, 0x0ec82aafce406597, 0x5e3ff91172b56b08, 0x2fb73c4cf08fa4f2, [12, 0, 0, 0, 7533, 3, 3]), // 128: read pipeline=0 cb=1024 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 129: read pipeline=0 cb=1024 ranks=3 AllEmpty
    (4792946, 0x996eedfd781ed5fd, 0xf36ba4f8900e1575, 0x164952746240c8cd, [14, 0, 0, 0, 10096, 4, 4]), // 130: read pipeline=0 cb=1024 ranks=4 Dense
    (3456425, 0xf2e26c1283123b94, 0xd806fff7ecbefd44, 0x3ed6c3e7267fc8b8, [12, 0, 0, 0, 18532, 4, 4]), // 131: read pipeline=0 cb=1024 ranks=4 Holes
    (3458890, 0xef66140d357b98b0, 0x3f68a4b97360d625, 0x3126ffca88b2b349, [12, 0, 0, 0, 17928, 4, 4]), // 132: read pipeline=0 cb=1024 ranks=4 Overlap
    (3455684, 0xae0a38e88c55c124, 0xd901494173a71bc0, 0xb2d78d1d98c432fa, [12, 0, 0, 0, 14793, 4, 4]), // 133: read pipeline=0 cb=1024 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 134: read pipeline=0 cb=1024 ranks=4 AllEmpty
    (9032044, 0xb1148f3f59fb2a53, 0xc0bc2ee75501a0f3, 0xb1f34d510177be14, [25, 0, 0, 0, 20544, 5, 4]), // 135: read pipeline=0 cb=1024 ranks=7 Dense
    (3494219, 0x42c22bc936a5522f, 0xe3fe94fc7c3e61e5, 0x3d927863677ebb54, [12, 0, 0, 0, 39750, 4, 4]), // 136: read pipeline=0 cb=1024 ranks=7 Holes
    (4835925, 0xc8c0bd0e2c08226c, 0x24d50e479ae4936d, 0xdab7947c0137ae37, [13, 0, 0, 0, 35492, 4, 4]), // 137: read pipeline=0 cb=1024 ranks=7 Overlap
    (3493885, 0x78ef41f1b61f578d, 0x1538bcb6b7cef026, 0x6d2ef3387fcbc30f, [12, 0, 0, 0, 35175, 4, 4]), // 138: read pipeline=0 cb=1024 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 139: read pipeline=0 cb=1024 ranks=7 AllEmpty
    (2396351, 0x087a7e66a0d18766, 0x58cc047054431e23, 0x33de7ce0a6127557, [4, 0, 0, 0, 3096, 2, 2]), // 140: read pipeline=0 cb=3072 ranks=2 Dense
    (3403403, 0xf322a96eefbfb3d2, 0x3fb4403af1f2a168, 0xc08d022aff6489c7, [4, 0, 0, 0, 6539, 2, 2]), // 141: read pipeline=0 cb=3072 ranks=2 Holes
    (3381598, 0xbecf634c318991fa, 0xaaf33a8580af7e9f, 0x96595b5d6bfb7095, [4, 0, 0, 0, 5856, 2, 2]), // 142: read pipeline=0 cb=3072 ranks=2 Overlap
    (3401401, 0x5db42f813a6f2eec, 0xd36c967d51673d43, 0x3d29bccfb8d9a667, [4, 0, 0, 0, 2672, 2, 2]), // 143: read pipeline=0 cb=3072 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 144: read pipeline=0 cb=3072 ranks=2 AllEmpty
    (2434220, 0x193522cb9ae7c4de, 0xe99fd2faee1b4358, 0x53065934b6f52f67, [6, 0, 0, 0, 6492, 3, 3]), // 145: read pipeline=0 cb=3072 ranks=3 Dense
    (2541547, 0xe6de686da0b7c26b, 0xcc1ecc152ef34da3, 0x0259d0d85b75555f, [6, 0, 0, 0, 11578, 3, 3]), // 146: read pipeline=0 cb=3072 ranks=3 Holes
    (2534525, 0x6ac972468c2be6b3, 0x98159c7e24e65bc8, 0x8abedc3245ec78f9, [6, 0, 0, 0, 11492, 3, 3]), // 147: read pipeline=0 cb=3072 ranks=3 Overlap
    (2539006, 0x1e0f37e4fec4e66f, 0xc021b9869003a4df, 0x2fb73c4cf08fa4f2, [6, 0, 0, 0, 7533, 3, 3]), // 148: read pipeline=0 cb=3072 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 149: read pipeline=0 cb=3072 ranks=3 AllEmpty
    (3516950, 0x3ac759841cc2d76c, 0xe4861fd3dde5752a, 0x164952746240c8cd, [7, 0, 0, 0, 10096, 4, 4]), // 150: read pipeline=0 cb=3072 ranks=4 Dense
    (1415004, 0xd5442f47a67e1a42, 0xe83db7054e6a1c43, 0x3ed6c3e7267fc8b8, [4, 0, 0, 0, 18532, 4, 4]), // 151: read pipeline=0 cb=3072 ranks=4 Holes
    (1413770, 0x9baf4e7c8b0fead9, 0xea056c941fe65bd5, 0x3126ffca88b2b349, [4, 0, 0, 0, 17928, 4, 4]), // 152: read pipeline=0 cb=3072 ranks=4 Overlap
    (1414342, 0xab37744eb8e80112, 0xf2958ac807939b9c, 0xb2d78d1d98c432fa, [4, 0, 0, 0, 14793, 4, 4]), // 153: read pipeline=0 cb=3072 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 154: read pipeline=0 cb=3072 ranks=4 AllEmpty
    (5859038, 0xddde79213187140f, 0x50c28b55a13eef54, 0xb1f34d510177be14, [9, 0, 0, 0, 20544, 5, 4]), // 155: read pipeline=0 cb=3072 ranks=7 Dense
    (1451832, 0xc62881fcf31a3840, 0x3c6c5805dba56d53, 0x3d927863677ebb54, [4, 0, 0, 0, 39750, 4, 4]), // 156: read pipeline=0 cb=3072 ranks=7 Holes
    (2582008, 0x82c429057f6a8297, 0xa858fea8870aabee, 0xdab7947c0137ae37, [7, 0, 0, 0, 35492, 4, 4]), // 157: read pipeline=0 cb=3072 ranks=7 Overlap
    (1451561, 0x63bde5ed6413a285, 0x10668853943e9e77, 0x6d2ef3387fcbc30f, [4, 0, 0, 0, 35175, 4, 4]), // 158: read pipeline=0 cb=3072 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 159: read pipeline=0 cb=3072 ranks=7 AllEmpty
    (1275217, 0x4467b3c8db67a693, 0x249ee821494dfe7c, 0x33de7ce0a6127557, [2, 0, 0, 0, 3096, 2, 2]), // 160: read pipeline=0 cb=1048576 ranks=2 Dense
    (1285769, 0xfb9ed4e18f11bf9b, 0xe37603e9afb5c7a9, 0xc08d022aff6489c7, [2, 0, 0, 0, 6539, 2, 2]), // 161: read pipeline=0 cb=1048576 ranks=2 Holes
    (1282155, 0x3b1aff57630a78ff, 0x1c89e68989789535, 0x96595b5d6bfb7095, [2, 0, 0, 0, 5856, 2, 2]), // 162: read pipeline=0 cb=1048576 ranks=2 Overlap
    (1283942, 0x98ce93833dbe6753, 0xa607c8a554e857f7, 0x3d29bccfb8d9a667, [2, 0, 0, 0, 2672, 2, 2]), // 163: read pipeline=0 cb=1048576 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 164: read pipeline=0 cb=1048576 ranks=2 AllEmpty
    (1411218, 0x0d925d8ff18c1c0e, 0x55a3413752d6d4e8, 0x53065934b6f52f67, [3, 0, 0, 0, 6492, 3, 3]), // 165: read pipeline=0 cb=1048576 ranks=3 Dense
    (1413848, 0x96d67908768928ed, 0xb8664d92b5c57329, 0x0259d0d85b75555f, [3, 0, 0, 0, 11578, 3, 3]), // 166: read pipeline=0 cb=1048576 ranks=3 Holes
    (1413406, 0xfee2bdd90a0ce444, 0x75557981a4e5f28a, 0x8abedc3245ec78f9, [3, 0, 0, 0, 11492, 3, 3]), // 167: read pipeline=0 cb=1048576 ranks=3 Overlap
    (1413393, 0x3476da5c1952458d, 0x055525ac3b02db89, 0x2fb73c4cf08fa4f2, [3, 0, 0, 0, 7533, 3, 3]), // 168: read pipeline=0 cb=1048576 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 169: read pipeline=0 cb=1048576 ranks=3 AllEmpty
    (1516648, 0x4355854cb96a9930, 0x8cb8791041548ed1, 0x164952746240c8cd, [4, 0, 0, 0, 10096, 4, 4]), // 170: read pipeline=0 cb=1048576 ranks=4 Dense
    (1415004, 0xd5442f47a67e1a42, 0xe83db7054e6a1c43, 0x3ed6c3e7267fc8b8, [4, 0, 0, 0, 18532, 4, 4]), // 171: read pipeline=0 cb=1048576 ranks=4 Holes
    (1413770, 0x9baf4e7c8b0fead9, 0xea056c941fe65bd5, 0x3126ffca88b2b349, [4, 0, 0, 0, 17928, 4, 4]), // 172: read pipeline=0 cb=1048576 ranks=4 Overlap
    (1414342, 0xab37744eb8e80112, 0xf2958ac807939b9c, 0xb2d78d1d98c432fa, [4, 0, 0, 0, 14793, 4, 4]), // 173: read pipeline=0 cb=1048576 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 174: read pipeline=0 cb=1048576 ranks=4 AllEmpty
    (1656469, 0xc99311bd00aed6e5, 0x23840446ae5be9e9, 0xb1f34d510177be14, [5, 0, 0, 0, 20544, 5, 4]), // 175: read pipeline=0 cb=1048576 ranks=7 Dense
    (1451832, 0xc62881fcf31a3840, 0x3c6c5805dba56d53, 0x3d927863677ebb54, [4, 0, 0, 0, 39750, 4, 4]), // 176: read pipeline=0 cb=1048576 ranks=7 Holes
    (1552579, 0x54f416554f4bb36f, 0xfd4e067291327cab, 0xdab7947c0137ae37, [4, 0, 0, 0, 35492, 4, 4]), // 177: read pipeline=0 cb=1048576 ranks=7 Overlap
    (1451561, 0x63bde5ed6413a285, 0x10668853943e9e77, 0x6d2ef3387fcbc30f, [4, 0, 0, 0, 35175, 4, 4]), // 178: read pipeline=0 cb=1048576 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 179: read pipeline=0 cb=1048576 ranks=7 AllEmpty
    (4647885, 0x65c70e2d65f91d7a, 0xf14179d94bb29682, 0x33de7ce0a6127557, [8, 0, 4, 31968, 3096, 2, 2]), // 180: read pipeline=1 cb=1024 ranks=2 Dense
    (6807611, 0x541938bd24d35931, 0x04ab6f85395cfd0b, 0xc08d022aff6489c7, [12, 0, 6, 53310, 6539, 2, 2]), // 181: read pipeline=1 cb=1024 ranks=2 Holes
    (6790873, 0xc384825dfd664b2d, 0x5fc2c754add4574b, 0x96595b5d6bfb7095, [11, 0, 6, 53944, 5856, 2, 2]), // 182: read pipeline=1 cb=1024 ranks=2 Overlap
    (6797763, 0x3381d9967f877d24, 0xeda72ec893f58f49, 0x3d29bccfb8d9a667, [12, 0, 6, 52433, 2672, 2, 2]), // 183: read pipeline=1 cb=1024 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 184: read pipeline=1 cb=1024 ranks=2 AllEmpty
    (4685426, 0x793792561bb88974, 0xa036efbc2163e9f8, 0x53065934b6f52f67, [11, 0, 4, 63536, 6492, 3, 3]), // 185: read pipeline=1 cb=1024 ranks=3 Dense
    (4895883, 0x8af3e26b8aa79779, 0xad04397140ef5c66, 0x0259d0d85b75555f, [12, 0, 4, 63904, 11578, 3, 3]), // 186: read pipeline=1 cb=1024 ranks=3 Holes
    (4785891, 0x925b748b3c4f7ac7, 0xa4b0370e2f914c6d, 0x8abedc3245ec78f9, [12, 0, 4, 64720, 11492, 3, 3]), // 187: read pipeline=1 cb=1024 ranks=3 Overlap
    (4889955, 0x0db546cfdc44e3c7, 0xec125c39c36ea516, 0x2fb73c4cf08fa4f2, [12, 0, 4, 63884, 7533, 3, 3]), // 188: read pipeline=1 cb=1024 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 189: read pipeline=1 cb=1024 ranks=3 AllEmpty
    (4790574, 0x6f43dbe1bdb361cc, 0xf92901d2fbc6b397, 0x164952746240c8cd, [14, 0, 4, 63544, 10096, 4, 4]), // 190: read pipeline=1 cb=1024 ranks=4 Dense
    (3452766, 0x8dd4a86229997824, 0x8230d74ad8bd8204, 0x3ed6c3e7267fc8b8, [12, 0, 3, 43833, 18532, 4, 4]), // 191: read pipeline=1 cb=1024 ranks=4 Holes
    (3456058, 0x8e7e263d0d19d1bd, 0x3aa5be77f8c362c9, 0x3126ffca88b2b349, [12, 0, 3, 46144, 17928, 4, 4]), // 192: read pipeline=1 cb=1024 ranks=4 Overlap
    (3452548, 0x956830d3fd2d2fd4, 0x455f5487d93fecc8, 0xb2d78d1d98c432fa, [12, 0, 3, 43278, 14793, 4, 4]), // 193: read pipeline=1 cb=1024 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 194: read pipeline=1 cb=1024 ranks=4 AllEmpty
    (9087512, 0x27fa8d665aed4dc9, 0xd449ecbd13066054, 0xb1f34d510177be14, [25, 0, 6, 154521, 20544, 5, 4]), // 195: read pipeline=1 cb=1024 ranks=7 Dense
    (3486756, 0xd8f2fadeaa3c5c14, 0x1d5582737563e802, 0x3d927863677ebb54, [12, 0, 3, 68667, 39750, 4, 4]), // 196: read pipeline=1 cb=1024 ranks=7 Holes
    (4826709, 0xa39747f60c30d4a4, 0x51d152752ced0621, 0xdab7947c0137ae37, [13, 0, 4, 100748, 35492, 4, 4]), // 197: read pipeline=1 cb=1024 ranks=7 Overlap
    (3486422, 0xc5f44a606680e546, 0xb84606776e462277, 0x6d2ef3387fcbc30f, [12, 0, 3, 68131, 35175, 4, 4]), // 198: read pipeline=1 cb=1024 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 199: read pipeline=1 cb=1024 ranks=7 AllEmpty
    (2395111, 0x13a27f5d43e098d1, 0x2087969e97a9a91b, 0x33de7ce0a6127557, [4, 0, 2, 11372, 3096, 2, 2]), // 200: read pipeline=1 cb=3072 ranks=2 Dense
    (3401232, 0x4ed721d62e652d14, 0x61d7f6edf9b7ba74, 0xc08d022aff6489c7, [4, 0, 2, 12171, 6539, 2, 2]), // 201: read pipeline=1 cb=3072 ranks=2 Holes
    (3380098, 0x9485de4317a29b06, 0xe7c1dc920b150803, 0x96595b5d6bfb7095, [4, 0, 2, 11572, 5856, 2, 2]), // 202: read pipeline=1 cb=3072 ranks=2 Overlap
    (3399723, 0xb8b1452bb7ba37af, 0xf70bafc7f7504a2b, 0x3d29bccfb8d9a667, [4, 0, 2, 11678, 2672, 2, 2]), // 203: read pipeline=1 cb=3072 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 204: read pipeline=1 cb=3072 ranks=2 AllEmpty
    (2432924, 0xa8edccd575511852, 0x3fd95ef35739c47f, 0x53065934b6f52f67, [6, 0, 2, 21400, 6492, 3, 3]), // 205: read pipeline=1 cb=3072 ranks=3 Dense
    (2539429, 0x8b428c2ea3dbcca9, 0xf5731ea2aed90b41, 0x0259d0d85b75555f, [6, 0, 2, 22767, 11578, 3, 3]), // 206: read pipeline=1 cb=3072 ranks=3 Holes
    (2532809, 0xd2d4d25bee745678, 0xc0c526769894e137, 0x8abedc3245ec78f9, [6, 0, 2, 23000, 11492, 3, 3]), // 207: read pipeline=1 cb=3072 ranks=3 Overlap
    (2536584, 0xc83ba5335dd4152a, 0x3ca2974cef390635, 0x2fb73c4cf08fa4f2, [6, 0, 2, 22422, 7533, 3, 3]), // 208: read pipeline=1 cb=3072 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 209: read pipeline=1 cb=3072 ranks=3 AllEmpty
    (3515926, 0xad25003ee5e9f114, 0x7d11077cf496e980, 0x164952746240c8cd, [7, 0, 2, 22100, 10096, 4, 4]), // 210: read pipeline=1 cb=3072 ranks=4 Dense
    (1415004, 0xd5442f47a67e1a42, 0xe83db7054e6a1c43, 0x3ed6c3e7267fc8b8, [4, 0, 0, 0, 18532, 4, 4]), // 211: read pipeline=1 cb=3072 ranks=4 Holes
    (1413770, 0x9baf4e7c8b0fead9, 0xea056c941fe65bd5, 0x3126ffca88b2b349, [4, 0, 0, 0, 17928, 4, 4]), // 212: read pipeline=1 cb=3072 ranks=4 Overlap
    (1414342, 0xab37744eb8e80112, 0xf2958ac807939b9c, 0xb2d78d1d98c432fa, [4, 0, 0, 0, 14793, 4, 4]), // 213: read pipeline=1 cb=3072 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 214: read pipeline=1 cb=3072 ranks=4 AllEmpty
    (5855966, 0x8b0d12904c9a0018, 0x45c270727751abe4, 0xb1f34d510177be14, [9, 0, 2, 33072, 20544, 5, 4]), // 215: read pipeline=1 cb=3072 ranks=7 Dense
    (1451832, 0xc62881fcf31a3840, 0x3c6c5805dba56d53, 0x3d927863677ebb54, [4, 0, 0, 0, 39750, 4, 4]), // 216: read pipeline=1 cb=3072 ranks=7 Holes
    (2578536, 0x59421929acf7e7eb, 0x7e7f84202994a84e, 0xdab7947c0137ae37, [7, 0, 2, 37716, 35492, 4, 4]), // 217: read pipeline=1 cb=3072 ranks=7 Overlap
    (1451561, 0x63bde5ed6413a285, 0x10668853943e9e77, 0x6d2ef3387fcbc30f, [4, 0, 0, 0, 35175, 4, 4]), // 218: read pipeline=1 cb=3072 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 219: read pipeline=1 cb=3072 ranks=7 AllEmpty
    (1275217, 0x4467b3c8db67a693, 0x249ee821494dfe7c, 0x33de7ce0a6127557, [2, 0, 0, 0, 3096, 2, 2]), // 220: read pipeline=1 cb=1048576 ranks=2 Dense
    (1285769, 0xfb9ed4e18f11bf9b, 0xe37603e9afb5c7a9, 0xc08d022aff6489c7, [2, 0, 0, 0, 6539, 2, 2]), // 221: read pipeline=1 cb=1048576 ranks=2 Holes
    (1282155, 0x3b1aff57630a78ff, 0x1c89e68989789535, 0x96595b5d6bfb7095, [2, 0, 0, 0, 5856, 2, 2]), // 222: read pipeline=1 cb=1048576 ranks=2 Overlap
    (1283942, 0x98ce93833dbe6753, 0xa607c8a554e857f7, 0x3d29bccfb8d9a667, [2, 0, 0, 0, 2672, 2, 2]), // 223: read pipeline=1 cb=1048576 ranks=2 OneEmpty
    (30000, 0xc331a9ff73cacf65, 0xcbf29ce484222325, 0x88201fb960ff6465, [0, 0, 0, 0, 0, 0, 0]), // 224: read pipeline=1 cb=1048576 ranks=2 AllEmpty
    (1411218, 0x0d925d8ff18c1c0e, 0x55a3413752d6d4e8, 0x53065934b6f52f67, [3, 0, 0, 0, 6492, 3, 3]), // 225: read pipeline=1 cb=1048576 ranks=3 Dense
    (1413848, 0x96d67908768928ed, 0xb8664d92b5c57329, 0x0259d0d85b75555f, [3, 0, 0, 0, 11578, 3, 3]), // 226: read pipeline=1 cb=1048576 ranks=3 Holes
    (1413406, 0xfee2bdd90a0ce444, 0x75557981a4e5f28a, 0x8abedc3245ec78f9, [3, 0, 0, 0, 11492, 3, 3]), // 227: read pipeline=1 cb=1048576 ranks=3 Overlap
    (1413393, 0x3476da5c1952458d, 0x055525ac3b02db89, 0x2fb73c4cf08fa4f2, [3, 0, 0, 0, 7533, 3, 3]), // 228: read pipeline=1 cb=1048576 ranks=3 OneEmpty
    (50000, 0x2ec712c479b50b45, 0xcbf29ce484222325, 0x81d23fd7003c2305, [0, 0, 0, 0, 0, 0, 0]), // 229: read pipeline=1 cb=1048576 ranks=3 AllEmpty
    (1516648, 0x4355854cb96a9930, 0x8cb8791041548ed1, 0x164952746240c8cd, [4, 0, 0, 0, 10096, 4, 4]), // 230: read pipeline=1 cb=1048576 ranks=4 Dense
    (1415004, 0xd5442f47a67e1a42, 0xe83db7054e6a1c43, 0x3ed6c3e7267fc8b8, [4, 0, 0, 0, 18532, 4, 4]), // 231: read pipeline=1 cb=1048576 ranks=4 Holes
    (1413770, 0x9baf4e7c8b0fead9, 0xea056c941fe65bd5, 0x3126ffca88b2b349, [4, 0, 0, 0, 17928, 4, 4]), // 232: read pipeline=1 cb=1048576 ranks=4 Overlap
    (1414342, 0xab37744eb8e80112, 0xf2958ac807939b9c, 0xb2d78d1d98c432fa, [4, 0, 0, 0, 14793, 4, 4]), // 233: read pipeline=1 cb=1048576 ranks=4 OneEmpty
    (50000, 0x764d84bd5d2d25a5, 0xcbf29ce484222325, 0x0c8210784d8af5a5, [0, 0, 0, 0, 0, 0, 0]), // 234: read pipeline=1 cb=1048576 ranks=4 AllEmpty
    (1656469, 0xc99311bd00aed6e5, 0x23840446ae5be9e9, 0xb1f34d510177be14, [5, 0, 0, 0, 20544, 5, 4]), // 235: read pipeline=1 cb=1048576 ranks=7 Dense
    (1451832, 0xc62881fcf31a3840, 0x3c6c5805dba56d53, 0x3d927863677ebb54, [4, 0, 0, 0, 39750, 4, 4]), // 236: read pipeline=1 cb=1048576 ranks=7 Holes
    (1552579, 0x54f416554f4bb36f, 0xfd4e067291327cab, 0xdab7947c0137ae37, [4, 0, 0, 0, 35492, 4, 4]), // 237: read pipeline=1 cb=1048576 ranks=7 Overlap
    (1451561, 0x63bde5ed6413a285, 0x10668853943e9e77, 0x6d2ef3387fcbc30f, [4, 0, 0, 0, 35175, 4, 4]), // 238: read pipeline=1 cb=1048576 ranks=7 OneEmpty
    (70000, 0x2d6bc465f225d4e9, 0xcbf29ce484222325, 0x8ac123d6f7dce585, [0, 0, 0, 0, 0, 0, 0]), // 239: read pipeline=1 cb=1048576 ranks=7 AllEmpty
];
