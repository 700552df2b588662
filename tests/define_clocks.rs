//! The *timing* of core's own file I/O, pinned: the header write of
//! `enddef`, the fill-mode prefill of new fixed variables, `fill_var_rec`,
//! the `numrecs` update of `sync`, and the data move of a `redef` /
//! `enddef` that grows the header — every rank's clock after every call and
//! a digest of the final file, as literals.
//!
//! `fill_mode` and `consistency_and_modes` compare bytes and values;
//! `every_door_makes_the_same_access` pins the final clock of programs that
//! write one header and one `numrecs` and never move data. This table was
//! recorded before the file-view door of `pnetcdf-mpio` was deleted and had
//! to survive that deletion unedited: header, move, `numrecs` and fill I/O
//! hands MPI-IO the same run lists either way. Its four-rank rows were
//! re-recorded, clocks only, when the unhinted aggregator count stopped
//! shrinking with the request volume: their small collectives now spread
//! over one aggregator per server.
//!
//! Two programs, each at one and four ranks: the fixed variable `a` first
//! and the record variable `ts` new in the second define pass, and the other
//! way round. The variable of the first pass is the one that moves, and it
//! is variable 0, so at four ranks rank 0 alone moves data and the servers
//! see its requests in program order (two ranks moving a variable each
//! follow host thread order, ROADMAP item 1, and are not pinned). A mismatch
//! prints the rows this build computes, in the table's format.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const NY: u64 = 12;
const NX: u64 = 40;

fn a_value(y: u64, x: u64) -> f32 {
    (y * 100 + x) as f32 + 0.5
}

fn ts_value(rec: u64, x: u64) -> f64 {
    (rec * 1000 + x) as f64 - 0.25
}

/// Every rank's clock (ns) after every call, and the file's digest.
type Row = (&'static [&'static [u64]], u64);
type Measured = (Vec<Vec<u64>>, u64);

fn measure(nprocs: usize, record_first: bool) -> Measured {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(nprocs, cfg, |c| {
        let (n, r) = (c.size() as u64, c.rank() as u64);
        let clocks = std::cell::RefCell::new(Vec::new());
        let tick = || clocks.borrow_mut().push(c.now().as_nanos());

        // Every rank a block of rows of `a`.
        let put_a = |ds: &mut Dataset, a: usize| {
            let rows = NY / n;
            let vals: Vec<f32> = (r * rows..(r + 1) * rows)
                .flat_map(|yy| (0..NX).map(move |xx| a_value(yy, xx)))
                .collect();
            ds.put_vara_all(a, &[r * rows, 0], &[rows, NX], &vals)
                .unwrap();
            tick();
        };
        // Every rank a block of columns of two records of `ts`, then a
        // prefilled fourth record and the `numrecs` update of `sync`.
        let put_ts = |ds: &mut Dataset, ts: usize| {
            let cols = NX / n;
            let vals: Vec<f64> = (0..2)
                .flat_map(|rec| (r * cols..(r + 1) * cols).map(move |xx| ts_value(rec, xx)))
                .collect();
            ds.put_vara_all(ts, &[0, r * cols], &[2, cols], &vals)
                .unwrap();
            tick();
            ds.fill_var_rec(ts, 3).unwrap();
            tick();
            assert_eq!(ds.numrecs(), 4);
            ds.sync().unwrap();
            tick();
        };

        // First define pass: rank 0 writes the header; `a` is prefilled.
        let mut ds = Dataset::create(c, &pfs, "d.nc", Version::Cdf1, &Info::new()).unwrap();
        ds.set_fill(true).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let y = ds.def_dim("y", NY).unwrap();
        let x = ds.def_dim("x", NX).unwrap();
        let def_a = |ds: &mut Dataset| ds.def_var("a", NcType::Float, &[y, x]).unwrap();
        let def_ts = |ds: &mut Dataset| ds.def_var("ts", NcType::Double, &[t, x]).unwrap();
        let first = if record_first {
            def_ts(&mut ds)
        } else {
            def_a(&mut ds)
        };
        ds.enddef().unwrap();
        tick();
        if record_first {
            put_ts(&mut ds, first);
        } else {
            put_a(&mut ds, first);
        }

        // Second define pass: an attribute that pushes the data a stripe
        // and more down the file, so the first variable (all four records
        // of `ts`) moves; the new variable lies behind it.
        ds.redef().unwrap();
        tick();
        ds.put_gatt_text("history", &"moved ".repeat(300)).unwrap();
        let (a, ts) = if record_first {
            (def_a(&mut ds), first)
        } else {
            (first, def_ts(&mut ds))
        };
        ds.enddef().unwrap();
        tick();
        if record_first {
            let got: Vec<f32> = ds.get_vara_all(a, &[0, 0], &[NY, NX]).unwrap();
            assert!(got.iter().all(|&v| v > 9.9e36), "`a` is prefilled");
            put_a(&mut ds, a);
        } else {
            put_ts(&mut ds, ts);
        }

        let got: Vec<f32> = ds.get_vara_all(a, &[0, 0], &[NY, NX]).unwrap();
        let want: Vec<f32> = (0..NY)
            .flat_map(|yy| (0..NX).map(move |xx| a_value(yy, xx)))
            .collect();
        assert_eq!(got, want, "`a`");
        let got: Vec<f64> = ds.get_vara_all(ts, &[0, 0], &[4, NX]).unwrap();
        for rec in 0..2 {
            let want: Vec<f64> = (0..NX).map(|xx| ts_value(rec, xx)).collect();
            let at = (rec * NX) as usize;
            assert_eq!(got[at..at + NX as usize], want, "`ts` record {rec}");
        }
        assert!(got[3 * NX as usize..].iter().all(|&v| v > 9.9e36));
        tick();
        ds.close().unwrap();
        tick();
        clocks.into_inner()
    });
    let file = fnv_bytes(FNV_BASIS, &pfs.open("d.nc").unwrap().to_bytes());
    (run.results, file)
}

/// `(ranks, record variable first)`.
const CONFIGS: [(usize, bool); 4] = [(1, false), (4, false), (1, true), (4, true)];

#[test]
fn header_move_numrecs_and_fill_io_keep_their_recorded_clocks() {
    let mut wrong = Vec::new();
    for (i, &(nprocs, record_first)) in CONFIGS.iter().enumerate() {
        let m = measure(nprocs, record_first);
        let same = GOLDEN.get(i).is_some_and(|g| {
            g.0.iter().map(|c| c.to_vec()).collect::<Vec<_>>() == m.0 && g.1 == m.1
        });
        if !same {
            let clocks: Vec<String> = m.0.iter().map(|c| format!("&{c:?}")).collect();
            wrong.push(format!(
                "    // {i}: {nprocs} rank(s), record variable first: {record_first}\n    (&[{}], {:#018x}),",
                clocks.join(", "),
                m.1
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} configuration(s) differ from GOLDEN; this build computes:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[rustfmt::skip]
const GOLDEN: [Row; 4] = [
    // 0: 1 rank(s), record variable first: false
    (&[&[2274034, 3412252, 3412252, 6812942, 6943158, 8071062, 9206222, 11463585, 12598745]], 0xad05572244a204db),
    // 1: 4 rank(s), record variable first: false
    (&[&[2352545, 3548962, 3568962, 7029676, 7239602, 8407704, 9582880, 12006694, 13181870], &[2352545, 3548962, 3568962, 7029676, 7239602, 8407704, 9582880, 12006694, 13181870], &[2352545, 3548962, 3568962, 7029676, 7239602, 8407704, 9582880, 12006694, 13181870], &[2352545, 3548962, 3568962, 7029676, 7239602, 8407704, 9582880, 12006694, 13181870]], 0xad05572244a204db),
    // 2: 1 rank(s), record variable first: true
    (&[&[1136200, 1267976, 2396360, 3531520, 3531520, 13804454, 16070379, 17327742, 18462902]], 0x8756dc73980ac647),
    // 3: 4 rank(s), record variable first: true
    (&[&[1196224, 1408400, 2577040, 3752216, 3772216, 14123073, 16529463, 17953277, 19128453], &[1196224, 1408400, 2577040, 3752216, 3772216, 14123073, 16529463, 17953277, 19128453], &[1196224, 1408400, 2577040, 3752216, 3772216, 14123073, 16529463, 17953277, 19128453], &[1196224, 1408400, 2577040, 3752216, 3772216, 14123073, 16529463, 17953277, 19128453]], 0x8756dc73980ac647),
];
