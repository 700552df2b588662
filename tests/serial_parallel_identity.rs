//! The strongest correctness property in the repository: a dataset written
//! by PnetCDF with P ranks is **byte-for-byte identical** to the same
//! dataset written by the serial netCDF library — the paper's central
//! interoperability claim ("our parallel netCDF design retains the original
//! netCDF file format"). This pins the format codec, the layout math, the
//! view construction, and the two-phase write path simultaneously.

use hpc_sim::SimConfig;
use netcdf_serial::{MemStore, NcFile};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

/// The shared dataset definition: a 3-D fixed variable, a record variable,
/// and some attributes.
fn define_serial(f: &mut NcFile) -> (usize, usize) {
    let t = f.def_dim("time", 0).unwrap();
    let z = f.def_dim("z", 4).unwrap();
    let y = f.def_dim("y", 6).unwrap();
    let x = f.def_dim("x", 8).unwrap();
    f.put_gatt("title", pnetcdf::AttrValue::Char("identity".into()))
        .unwrap();
    let tt = f.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
    f.put_vatt(tt, "units", pnetcdf::AttrValue::Char("K".into()))
        .unwrap();
    let ts = f.def_var("ts", NcType::Double, &[t, y, x]).unwrap();
    f.enddef().unwrap();
    (tt, ts)
}

fn define_parallel(ds: &mut Dataset) -> (usize, usize) {
    let t = ds.def_dim("time", 0).unwrap();
    let z = ds.def_dim("z", 4).unwrap();
    let y = ds.def_dim("y", 6).unwrap();
    let x = ds.def_dim("x", 8).unwrap();
    ds.put_gatt_text("title", "identity").unwrap();
    let tt = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
    ds.put_vatt_text(tt, "units", "K").unwrap();
    let ts = ds.def_var("ts", NcType::Double, &[t, y, x]).unwrap();
    ds.enddef().unwrap();
    (tt, ts)
}

fn tt_value(z: u64, y: u64, x: u64) -> f32 {
    (z * 10000 + y * 100 + x) as f32 * 0.25
}

fn ts_value(r: u64, y: u64, x: u64) -> f64 {
    (r * 1_000_000 + y * 1000 + x) as f64 * 0.5
}

fn serial_bytes() -> Vec<u8> {
    let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
    let (tt, ts) = define_serial(&mut f);
    // Whole 3-D variable.
    let mut vals = Vec::new();
    for z in 0..4 {
        for y in 0..6 {
            for x in 0..8 {
                vals.push(tt_value(z, y, x));
            }
        }
    }
    f.put_vara(tt, &[0, 0, 0], &[4, 6, 8], &vals).unwrap();
    // Three records.
    for r in 0..3u64 {
        let mut rec = Vec::new();
        for y in 0..6 {
            for x in 0..8 {
                rec.push(ts_value(r, y, x));
            }
        }
        f.put_vara(ts, &[r, 0, 0], &[1, 6, 8], &rec).unwrap();
    }
    closed_bytes(f)
}

/// Close a serial file and recover its bytes (through the store's trait
/// object, by reading them back).
fn closed_bytes(f: NcFile) -> Vec<u8> {
    let mut store = f.close().unwrap();
    let mut bytes = vec![0u8; store.size() as usize];
    store.read_at(0, &mut bytes);
    bytes
}

fn parallel_bytes(nprocs: usize) -> Vec<u8> {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(nprocs, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "id.nc", Version::Cdf1, &Info::new()).unwrap();
        let (tt, ts) = define_parallel(&mut ds);

        // Partition the fixed variable along z across ranks.
        let per = 4u64.div_ceil(nprocs as u64);
        let z0 = (c.rank() as u64 * per).min(4);
        let z1 = ((c.rank() as u64 + 1) * per).min(4);
        let mut vals = Vec::new();
        for z in z0..z1 {
            for y in 0..6 {
                for x in 0..8 {
                    vals.push(tt_value(z, y, x));
                }
            }
        }
        ds.put_vara_all(tt, &[z0, 0, 0], &[z1 - z0, 6, 8], &vals)
            .unwrap();

        // Records: partition each record along y.
        let yper = 6u64.div_ceil(nprocs as u64);
        let y0 = (c.rank() as u64 * yper).min(6);
        let y1 = ((c.rank() as u64 + 1) * yper).min(6);
        for r in 0..3u64 {
            let mut rec = Vec::new();
            for y in y0..y1 {
                for x in 0..8 {
                    rec.push(ts_value(r, y, x));
                }
            }
            ds.put_vara_all(ts, &[r, y0, 0], &[1, y1 - y0, 8], &rec)
                .unwrap();
        }
        ds.close().unwrap();
    });
    pfs.open("id.nc").unwrap().to_bytes()
}

#[test]
fn parallel_file_is_byte_identical_to_serial() {
    let reference = serial_bytes();
    assert!(reference.len() > 32, "reference file has data");
    for nprocs in [1, 2, 3, 4] {
        let par = parallel_bytes(nprocs);
        assert_eq!(
            par.len(),
            reference.len(),
            "file size mismatch with {nprocs} ranks"
        );
        assert_eq!(par, reference, "byte mismatch with {nprocs} ranks");
    }
}

#[test]
fn serial_reads_parallel_file() {
    // Write with 4 ranks, read with the serial library.
    let bytes = parallel_bytes(4);
    let mut f = NcFile::open(MemStore::from_bytes(bytes)).unwrap();
    let tt = f.var_id("tt").unwrap();
    let ts = f.var_id("ts").unwrap();
    assert_eq!(f.numrecs(), 3);
    let v: f32 = f.get_var1(tt, &[3, 5, 7]).unwrap();
    assert_eq!(v, tt_value(3, 5, 7));
    let r: f64 = f.get_var1(ts, &[2, 4, 1]).unwrap();
    assert_eq!(r, ts_value(2, 4, 1));
    assert_eq!(
        f.get_gatt("title").unwrap(),
        &pnetcdf::AttrValue::Char("identity".into())
    );
}

#[test]
fn parallel_reads_serial_file() {
    // Write with the serial library, read with 3 ranks collectively.
    let bytes = serial_bytes();
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    pfs.create("ser.nc").import_bytes(&bytes);
    run_world(3, cfg(), move |c| {
        let mut ds = Dataset::open(c, &pfs, "ser.nc", true, &Info::new()).unwrap();
        let tt = ds.inq_varid("tt").unwrap();
        let ts = ds.inq_varid("ts").unwrap();
        assert_eq!(ds.numrecs(), 3);

        // Each rank reads a different z plane.
        let z = c.rank() as u64;
        let plane: Vec<f32> = ds.get_vara_all(tt, &[z, 0, 0], &[1, 6, 8]).unwrap();
        let mut expect = Vec::new();
        for y in 0..6 {
            for x in 0..8 {
                expect.push(tt_value(z, y, x));
            }
        }
        assert_eq!(plane, expect);

        // And one record element each, independently.
        ds.begin_indep_data().unwrap();
        let v: f64 = ds.get_var1(ts, &[1, c.rank() as u64, 2]).unwrap();
        assert_eq!(v, ts_value(1, c.rank() as u64, 2));
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
}

#[test]
fn collective_and_independent_writes_produce_identical_files() {
    let write = |independent: bool| -> Vec<u8> {
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(4, cfg(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "x.nc", Version::Cdf1, &Info::new()).unwrap();
            let z = ds.def_dim("z", 8).unwrap();
            let y = ds.def_dim("y", 10).unwrap();
            let v = ds.def_var("a", NcType::Int, &[z, y]).unwrap();
            ds.enddef().unwrap();
            let z0 = c.rank() as u64 * 2;
            let vals: Vec<i32> = (0..20).map(|i| (z0 * 10) as i32 + i).collect();
            if independent {
                ds.begin_indep_data().unwrap();
                ds.put_vara(v, &[z0, 0], &[2, 10], &vals).unwrap();
                ds.end_indep_data().unwrap();
            } else {
                ds.put_vara_all(v, &[z0, 0], &[2, 10], &vals).unwrap();
            }
            ds.close().unwrap();
        });
        pfs.open("x.nc").unwrap().to_bytes()
    };
    assert_eq!(write(false), write(true));
}

#[test]
fn exported_file_reimports_through_host_fs() {
    // Full circle through a real file on disk.
    let bytes = parallel_bytes(2);
    let dir = std::env::temp_dir().join("pnetcdf_identity_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.nc");
    std::fs::write(&path, &bytes).unwrap();

    let mut f = NcFile::open(netcdf_serial::StdFileStore::open(&path).unwrap()).unwrap();
    let tt = f.var_id("tt").unwrap();
    let v: f32 = f.get_var1(tt, &[0, 0, 0]).unwrap();
    assert_eq!(v, tt_value(0, 0, 0));
    std::fs::remove_file(&path).unwrap();
}

// ---- elements split by window cuts --------------------------------------------

/// `d(nd)` doubles and `s(ns)` shorts behind `lead` scalar ints. The header
/// is 4-aligned and each scalar takes 4 bytes, so for one of `lead` = 1, 2
/// the doubles begin at `4 mod 8`: every two-phase cut at a multiple of 8 —
/// a stripe edge, a domain edge, a multiple of the default collective
/// buffer — then falls inside an element, and an odd `cb_buffer_size` cuts
/// shorts too.
struct SplitShape {
    lead: usize,
    nd: u64,
    ns: u64,
}

fn d_value(i: u64) -> f64 {
    i as f64 * 0.37 - 1234.5
}

fn s_value(i: u64) -> i16 {
    (i * 7 % 60000) as i16
}

/// `[lo, hi)` of rank `r`'s block of `n` elements.
fn block(n: u64, nprocs: usize, r: usize) -> (u64, u64) {
    let per = n.div_ceil(nprocs as u64);
    ((r as u64 * per).min(n), ((r as u64 + 1) * per).min(n))
}

fn split_serial_bytes(shape: &SplitShape) -> Vec<u8> {
    let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
    let xd = f.def_dim("xd", shape.nd).unwrap();
    let xs = f.def_dim("xs", shape.ns).unwrap();
    let lead: Vec<usize> = (0..shape.lead)
        .map(|i| f.def_var(&format!("i{i}"), NcType::Int, &[]).unwrap())
        .collect();
    let d = f.def_var("d", NcType::Double, &[xd]).unwrap();
    let s = f.def_var("s", NcType::Short, &[xs]).unwrap();
    f.enddef().unwrap();
    for (i, &v) in lead.iter().enumerate() {
        f.put_vara(v, &[], &[], &[41 + i as i32]).unwrap();
    }
    let dv: Vec<f64> = (0..shape.nd).map(d_value).collect();
    f.put_vara(d, &[0], &[shape.nd], &dv).unwrap();
    let sv: Vec<i16> = (0..shape.ns).map(s_value).collect();
    f.put_vara(s, &[0], &[shape.ns], &sv).unwrap();
    closed_bytes(f)
}

/// Write the shape with `nprocs` ranks (block partition), read every block
/// back on the *next* rank, and return the file.
fn split_parallel_bytes(shape: &SplitShape, nprocs: usize, hints: &[(&str, &str)]) -> Vec<u8> {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let info = hints
        .iter()
        .fold(Info::new(), |info, (k, v)| info.with(k, v));
    run_world(nprocs, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "split.nc", Version::Cdf1, &info).unwrap();
        let xd = ds.def_dim("xd", shape.nd).unwrap();
        let xs = ds.def_dim("xs", shape.ns).unwrap();
        let lead: Vec<usize> = (0..shape.lead)
            .map(|i| ds.def_var(&format!("i{i}"), NcType::Int, &[]).unwrap())
            .collect();
        let d = ds.def_var("d", NcType::Double, &[xd]).unwrap();
        let s = ds.def_var("s", NcType::Short, &[xs]).unwrap();
        ds.enddef().unwrap();
        for (i, &v) in lead.iter().enumerate() {
            ds.put_var1_all(v, &[], 41 + i as i32).unwrap();
        }
        let (lo, hi) = block(shape.nd, nprocs, c.rank());
        let dv: Vec<f64> = (lo..hi).map(d_value).collect();
        ds.put_vara_all(d, &[lo], &[hi - lo], &dv).unwrap();
        let (lo, hi) = block(shape.ns, nprocs, c.rank());
        let sv: Vec<i16> = (lo..hi).map(s_value).collect();
        ds.put_vara_all(s, &[lo], &[hi - lo], &sv).unwrap();

        let next = (c.rank() + 1) % nprocs;
        let (lo, hi) = block(shape.nd, nprocs, next);
        let back: Vec<f64> = ds.get_vara_all(d, &[lo], &[hi - lo]).unwrap();
        assert!(
            back == (lo..hi).map(d_value).collect::<Vec<_>>(),
            "doubles read back differ"
        );
        let (lo, hi) = block(shape.ns, nprocs, next);
        let back: Vec<i16> = ds.get_vara_all(s, &[lo], &[hi - lo]).unwrap();
        assert!(
            back == (lo..hi).map(s_value).collect::<Vec<_>>(),
            "shorts read back differ"
        );
        ds.close().unwrap();
    });
    pfs.open("split.nc").unwrap().to_bytes()
}

/// A same-type collective put lends its values in host byte order and the
/// two-phase overlay converts each piece as it copies it, so a piece that
/// holds the head or the tail of an element must still put every byte where
/// the serial library puts it.
#[test]
fn elements_split_by_window_cuts_are_byte_identical_to_serial() {
    // Larger than one default collective buffer (4 MiB) ...
    let large = |lead| SplitShape {
        lead,
        nd: 600_000,
        ns: 100_001,
    };
    // ... and larger than many odd-sized ones.
    let small = |lead| SplitShape {
        lead,
        nd: 5_001,
        ns: 7_003,
    };
    type Case<'a> = (fn(usize) -> SplitShape, &'a [(&'a str, &'a str)]);
    let cases: [Case<'_>; 4] = [
        (large, &[]),
        (large, &[("pnc_cb_affinity", "disable")]),
        (small, &[("cb_buffer_size", "1003")]),
        (
            small,
            &[("cb_buffer_size", "1003"), ("pnc_cb_affinity", "disable")],
        ),
    ];
    let mut begins = Vec::new();
    for (shape, hints) in cases {
        for lead in [1, 2] {
            let shape = shape(lead);
            let reference = split_serial_bytes(&shape);
            let header = NcFile::open(MemStore::from_bytes(reference.clone())).unwrap();
            let header = header.header();
            begins.push(header.vars[header.var_id("d").unwrap()].begin % 8);
            for nprocs in [2, 3] {
                let par = split_parallel_bytes(&shape, nprocs, hints);
                assert!(
                    par == reference,
                    "{nprocs} ranks, {lead} leading ints, hints {hints:?}: file differs from serial"
                );
            }
        }
    }
    assert!(
        begins.contains(&4) && begins.contains(&0),
        "the doubles never began off an 8-byte boundary: {begins:?}"
    );
}
