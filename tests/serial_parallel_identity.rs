//! The strongest correctness property in the repository: a dataset written
//! by PnetCDF with P ranks is **byte-for-byte identical** to the same
//! dataset written by the serial netCDF library — the paper's central
//! interoperability claim ("our parallel netCDF design retains the original
//! netCDF file format"). This pins the format codec, the layout math, the
//! view construction, and the two-phase write path simultaneously.

use hpc_sim::SimConfig;
use netcdf_serial::{MemStore, NcFile};
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Request, Version};
use pnetcdf_format::NcValue;
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
    let cases: [Case<'_>; 2] = [(large, &[]), (small, &[("cb_buffer_size", "1003")])];
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

// ---- the same access through every door ---------------------------------------

/// The ways the API offers to make one access. Whatever the door, the file
/// must hold the bytes the serial library writes, a get must return the
/// values, the byte counters must agree, and the virtual clock must stop
/// where it stopped when the table below was recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Door {
    /// `put_vara[_all]` / `get_vara[_all]` of values of the variable's type.
    Typed,
    /// `put_vara[_all]_flexible` with memory that is the packed payload.
    FlexPacked,
    /// The same with every other element of a `vector` twice as long.
    FlexStrided,
    /// `iput_vara` / `iget_vara`, one `wait[_all]`, `take_result`.
    TypedNb,
    /// `iput_vara_flexible` / `iget_vara_flexible`, `take_result_flexible`;
    /// `vector` memory for `tt` and `ts`, packed memory for `sh`.
    FlexNb,
    /// `Typed`, but the shorts travel as `i32` in memory — after a put
    /// with a value no short can hold has been refused, nothing written.
    Converting,
    /// `TypedNb` likewise.
    ConvertingNb,
}

const DOORS: [Door; 7] = [
    Door::Typed,
    Door::FlexPacked,
    Door::FlexStrided,
    Door::TypedNb,
    Door::FlexNb,
    Door::Converting,
    Door::ConvertingNb,
];

/// `(ranks, collective data mode)`: multi-rank independent clocks depend on
/// host thread order (ROADMAP open item 1), so independent mode runs alone.
const MODES: [(usize, bool); 3] = [(2, true), (3, true), (1, false)];

/// Final virtual clock in ns of every `(door, ranks, collective)` row, as
/// recorded at commit 3a23176 — before the four put and four get lowerings
/// became one — with the collective rows re-recorded when the unhinted
/// aggregator count stopped shrinking with the request volume. Virtual time
/// is deterministic on these paths, so a difference is a moved `cpu.pack`
/// or agreement charge, never noise; a mismatch prints the table this build
/// computes.
const DOOR_CLOCKS: &[(Door, usize, bool, u64)] = &[
    (Door::Typed, 2, true, 8348016),
    (Door::FlexPacked, 2, true, 8348031),
    (Door::FlexStrided, 2, true, 8348269),
    (Door::TypedNb, 2, true, 4791537),
    (Door::FlexNb, 2, true, 4791729),
    (Door::Converting, 2, true, 8347993),
    (Door::ConvertingNb, 2, true, 4791537),
    (Door::Typed, 3, true, 8668197),
    (Door::FlexPacked, 3, true, 8668227),
    (Door::FlexStrided, 3, true, 8668412),
    (Door::TypedNb, 3, true, 4921666),
    (Door::FlexNb, 3, true, 4921820),
    (Door::Converting, 3, true, 8668201),
    (Door::ConvertingNb, 3, true, 4921666),
    (Door::Typed, 1, false, 8048253),
    (Door::FlexPacked, 1, false, 8048253),
    (Door::FlexStrided, 1, false, 8048652),
    (Door::TypedNb, 1, false, 5682197),
    (Door::FlexNb, 1, false, 5682581),
    (Door::Converting, 1, false, 8048253),
    (Door::ConvertingNb, 1, false, 5682197),
];

/// Shorts in `sh`: odd, so the variable is padded and the blocks are ragged.
const NSH: u64 = 37;

fn sh_value(i: u64) -> i16 {
    (i as i16 - 18) * 1111
}

/// A value of each of the doors' memory types, to and from host-order bytes.
trait Elem: NcValue {
    fn host_bytes(self) -> Vec<u8>;
    fn from_host_bytes(bytes: &[u8]) -> Self;
}

macro_rules! elem {
    ($($ty:ty),*) => {$(
        impl Elem for $ty {
            fn host_bytes(self) -> Vec<u8> {
                self.to_ne_bytes().to_vec()
            }
            fn from_host_bytes(bytes: &[u8]) -> $ty {
                <$ty>::from_ne_bytes(bytes.try_into().unwrap())
            }
        }
    )*};
}
elem!(i16, i32, f32, f64);

/// The doors' dataset: the shorts directly behind a header an odd number of
/// 4-byte words long, then a fixed float variable and a record variable of
/// doubles. Returns `(sh, tt, ts)`.
fn define_doors_serial(f: &mut NcFile) -> [usize; 3] {
    let t = f.def_dim("time", 0).unwrap();
    let z = f.def_dim("z", 4).unwrap();
    let y = f.def_dim("y", 6).unwrap();
    let x = f.def_dim("x", 8).unwrap();
    let n = f.def_dim("n", NSH).unwrap();
    f.put_gatt("title", pnetcdf::AttrValue::Char("doors".into()))
        .unwrap();
    let sh = f.def_var("sh", NcType::Short, &[n]).unwrap();
    let tt = f.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
    let ts = f.def_var("ts", NcType::Double, &[t, y, x]).unwrap();
    f.enddef().unwrap();
    [sh, tt, ts]
}

fn define_doors_parallel(ds: &mut Dataset) -> [usize; 3] {
    let t = ds.def_dim("time", 0).unwrap();
    let z = ds.def_dim("z", 4).unwrap();
    let y = ds.def_dim("y", 6).unwrap();
    let x = ds.def_dim("x", 8).unwrap();
    let n = ds.def_dim("n", NSH).unwrap();
    ds.put_gatt_text("title", "doors").unwrap();
    let sh = ds.def_var("sh", NcType::Short, &[n]).unwrap();
    let tt = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
    let ts = ds.def_var("ts", NcType::Double, &[t, y, x]).unwrap();
    ds.enddef().unwrap();
    [sh, tt, ts]
}

fn doors_serial_bytes() -> Vec<u8> {
    let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
    let [sh, tt, ts] = define_doors_serial(&mut f);
    let begin = f.header().vars[sh].begin;
    assert_eq!(begin % 8, 4, "the shorts must begin off an 8-byte boundary");
    let (s, c, v) = sh_block(1, 0);
    f.put_vara(sh, &s, &c, &v).unwrap();
    let (s, c, v) = tt_block(1, 0);
    f.put_vara(tt, &s, &c, &v).unwrap();
    let (s, c, v) = ts_block(1, 0);
    f.put_vara(ts, &s, &c, &v).unwrap();
    closed_bytes(f)
}

/// Rank `r`'s share of each variable as `(start, count, values)`: a block
/// of the shorts, z planes of `tt` (none for the last of three ranks), and
/// a y slab of all three records of `ts` at once.
fn sh_block(nprocs: usize, r: usize) -> (Vec<u64>, Vec<u64>, Vec<i16>) {
    let (lo, hi) = block(NSH, nprocs, r);
    (vec![lo], vec![hi - lo], (lo..hi).map(sh_value).collect())
}

fn tt_block(nprocs: usize, r: usize) -> (Vec<u64>, Vec<u64>, Vec<f32>) {
    let (lo, hi) = block(4, nprocs, r);
    let mut vals = Vec::new();
    for z in lo..hi {
        for y in 0..6 {
            for x in 0..8 {
                vals.push(tt_value(z, y, x));
            }
        }
    }
    (vec![lo, 0, 0], vec![hi - lo, 6, 8], vals)
}

fn ts_block(nprocs: usize, r: usize) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let (lo, hi) = block(6, nprocs, r);
    let mut vals = Vec::new();
    for rec in 0..3 {
        for y in lo..hi {
            for x in 0..8 {
                vals.push(ts_value(rec, y, x));
            }
        }
    }
    (vec![0, lo, 0], vec![3, hi - lo, 8], vals)
}

/// Flexible memory for `vals`: `(buf, bufcount, memtype)`, packed or — the
/// paper's noncontiguous case — every other element of a `vector`.
fn describe<T: Elem>(vals: &[T], strided: bool) -> (Vec<u8>, usize, Datatype) {
    let n = vals.len();
    let elem = Datatype::contiguous(size_of::<T>(), Datatype::byte());
    if !strided {
        return (vals.iter().flat_map(|v| v.host_bytes()).collect(), n, elem);
    }
    let hole = vec![0xAAu8; size_of::<T>()];
    let buf = vals
        .iter()
        .flat_map(|v| [v.host_bytes(), hole.clone()].concat())
        .collect();
    let memtype = Datatype::vector(n.max(1), 1, 2, elem);
    (buf, usize::from(n > 0), memtype)
}

/// The values flexible memory holds (see [`describe`]).
fn values_of<T: Elem>(buf: &[u8], strided: bool) -> Vec<T> {
    let step = size_of::<T>() * if strided { 2 } else { 1 };
    buf.chunks(step)
        .map(|c| T::from_host_bytes(&c[..size_of::<T>()]))
        .collect()
}

/// Does `door` describe variable number `var`'s memory with a `vector`?
fn strided(door: Door, var: usize) -> bool {
    match door {
        Door::FlexStrided => true,
        Door::FlexNb => var != 0,
        _ => false,
    }
}

/// Put `vals` through `door`; a nonblocking door returns its ticket.
fn put_door<T: Elem>(
    ds: &mut Dataset,
    door: Door,
    collective: bool,
    var: (usize, usize),
    (start, count): (&[u64], &[u64]),
    vals: &[T],
) -> Result<Option<Request>, NcmpiError> {
    let (index, varid) = var;
    let (buf, bufcount, memtype) = describe(vals, strided(door, index));
    match (door, collective) {
        (Door::Typed | Door::Converting, true) => ds.put_vara_all(varid, start, count, vals)?,
        (Door::Typed | Door::Converting, false) => ds.put_vara(varid, start, count, vals)?,
        (Door::FlexPacked | Door::FlexStrided, true) => {
            ds.put_vara_all_flexible(varid, start, count, &buf, bufcount, &memtype)?
        }
        (Door::FlexPacked | Door::FlexStrided, false) => {
            ds.put_vara_flexible(varid, start, count, &buf, bufcount, &memtype)?
        }
        (Door::TypedNb | Door::ConvertingNb, _) => {
            return ds.iput_vara(varid, start, count, vals).map(Some);
        }
        (Door::FlexNb, _) => {
            return ds
                .iput_vara_flexible(varid, start, count, &buf, bufcount, &memtype)
                .map(Some);
        }
    }
    Ok(None)
}

/// A get through a door: its values, or the ticket they will arrive under.
enum Got<T> {
    Now(Vec<T>),
    Later(Request),
}

fn get_door<T: Elem>(
    ds: &mut Dataset,
    door: Door,
    collective: bool,
    var: (usize, usize),
    (start, count): (&[u64], &[u64]),
) -> Got<T> {
    let (index, varid) = var;
    let n = count.iter().product::<u64>() as usize;
    let strided = strided(door, index);
    let (mut buf, bufcount, memtype) = describe(&vec![T::ZERO; n], strided);
    Got::Now(match (door, collective) {
        (Door::Typed | Door::Converting, true) => ds.get_vara_all(varid, start, count).unwrap(),
        (Door::Typed | Door::Converting, false) => ds.get_vara(varid, start, count).unwrap(),
        (Door::FlexPacked | Door::FlexStrided, true) => {
            ds.get_vara_all_flexible(varid, start, count, &mut buf, bufcount, &memtype)
                .unwrap();
            values_of(&buf, strided)
        }
        (Door::FlexPacked | Door::FlexStrided, false) => {
            ds.get_vara_flexible(varid, start, count, &mut buf, bufcount, &memtype)
                .unwrap();
            values_of(&buf, strided)
        }
        (Door::TypedNb | Door::ConvertingNb, _) => {
            return Got::Later(ds.iget_vara(varid, start, count).unwrap());
        }
        (Door::FlexNb, _) => {
            return Got::Later(
                ds.iget_vara_flexible(varid, start, count, bufcount, &memtype)
                    .unwrap(),
            );
        }
    })
}

/// The values of a get, once the wait call has completed a queued one.
fn arrived<T: Elem>(ds: &mut Dataset, door: Door, index: usize, n: usize, got: Got<T>) -> Vec<T> {
    match got {
        Got::Now(vals) => vals,
        Got::Later(req) if door == Door::FlexNb => {
            let strided = strided(door, index);
            let (mut buf, bufcount, memtype) = describe(&vec![T::ZERO; n], strided);
            ds.take_result_flexible(req, &mut buf, bufcount, &memtype)
                .unwrap();
            values_of(&buf, strided)
        }
        Got::Later(req) => ds.take_result(req).unwrap(),
    }
}

/// What one rank reports of a door: the errors of the calls that had to
/// fail, and `inq_put_size` / `inq_get_size` before `close`.
type DoorReport = (Vec<NcmpiError>, (u64, u64));

/// Make the doors' accesses with `nprocs` ranks through `door`; returns the
/// file, the final virtual clock and every rank's report.
fn through_door(door: Door, nprocs: usize, collective: bool) -> (Vec<u8>, u64, Vec<DoorReport>) {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let run = run_world(nprocs, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "doors.nc", Version::Cdf1, &Info::new()).unwrap();
        let [sh, tt, ts] = define_doors_parallel(&mut ds);
        let wait = |ds: &mut Dataset| match collective {
            true => ds.wait_all().unwrap(),
            false => ds.wait().unwrap(),
        };
        if !collective {
            ds.begin_indep_data().unwrap();
        }
        let r = c.rank();
        let mut errors = Vec::new();

        // One rank's `count` selects two records where its memory holds
        // one: every rank gets that rank's error, and the records the
        // others' lowering counted do not exist.
        if collective && matches!(door, Door::Typed | Door::FlexPacked | Door::FlexStrided) {
            let (lo, hi) = block(6, nprocs, r);
            let vals: Vec<f64> = (0..(hi - lo) * 8).map(|i| i as f64).collect();
            let nrecs = if r == nprocs - 1 { 2 } else { 1 };
            let sel = ([5, lo, 0], [nrecs, hi - lo, 8]);
            let refused = put_door(&mut ds, door, true, (2, ts), (&sel.0, &sel.1), &vals);
            errors.push(refused.unwrap_err());
            assert_eq!(ds.numrecs(), 0, "a refused put grew numrecs");
        }

        // A value no short can hold: NC_ERANGE before any byte moves.
        let converting = matches!(door, Door::Converting | Door::ConvertingNb);
        if converting {
            let size = pfs2.open("doors.nc").unwrap().size();
            let (s, cnt, vals) = sh_block(nprocs, r);
            let mut wide: Vec<i32> = vals.iter().map(|&v| v as i32).collect();
            *wide.last_mut().unwrap() = 40_000;
            let refused = put_door(&mut ds, door, collective, (0, sh), (&s, &cnt), &wide);
            errors.push(refused.unwrap_err());
            assert_eq!(ds.num_pending(), 0, "a refused put was queued");
            assert_eq!(ds.inq_put_size(), 0, "a refused put was counted");
            let now = pfs2.open("doors.nc").unwrap().size();
            assert_eq!(now, size, "a refused put reached the file");
        }

        let (s, cnt, vals) = sh_block(nprocs, r);
        if converting {
            let wide: Vec<i32> = vals.iter().map(|&v| v as i32).collect();
            put_door(&mut ds, door, collective, (0, sh), (&s, &cnt), &wide).unwrap();
        } else {
            put_door(&mut ds, door, collective, (0, sh), (&s, &cnt), &vals).unwrap();
        }
        let (s, cnt, vals) = tt_block(nprocs, r);
        put_door(&mut ds, door, collective, (1, tt), (&s, &cnt), &vals).unwrap();
        let (s, cnt, vals) = ts_block(nprocs, r);
        put_door(&mut ds, door, collective, (2, ts), (&s, &cnt), &vals).unwrap();
        wait(&mut ds);
        assert_eq!(ds.numrecs(), 3);

        // Every rank reads the next rank's share back through the same door.
        let next = (r + 1) % nprocs;
        let (s0, c0, sh_vals) = sh_block(nprocs, next);
        let (s1, c1, tt_vals) = tt_block(nprocs, next);
        let (s2, c2, ts_vals) = ts_block(nprocs, next);
        let tt_got = get_door::<f32>(&mut ds, door, collective, (1, tt), (&s1, &c1));
        let ts_got = get_door::<f64>(&mut ds, door, collective, (2, ts), (&s2, &c2));
        if converting {
            let got = get_door::<i32>(&mut ds, door, collective, (0, sh), (&s0, &c0));
            wait(&mut ds);
            let wide: Vec<i32> = sh_vals.iter().map(|&v| v as i32).collect();
            assert_eq!(arrived(&mut ds, door, 0, wide.len(), got), wide);
        } else {
            let got = get_door::<i16>(&mut ds, door, collective, (0, sh), (&s0, &c0));
            wait(&mut ds);
            assert_eq!(arrived(&mut ds, door, 0, sh_vals.len(), got), sh_vals);
        }
        assert!(arrived(&mut ds, door, 1, tt_vals.len(), tt_got) == tt_vals);
        assert!(arrived(&mut ds, door, 2, ts_vals.len(), ts_got) == ts_vals);

        let sizes = (ds.inq_put_size(), ds.inq_get_size());
        if !collective {
            ds.end_indep_data().unwrap();
        }
        ds.close().unwrap();
        (errors, sizes)
    });
    let bytes = pfs.open("doors.nc").unwrap().to_bytes();
    (bytes, run.makespan.as_nanos(), run.results)
}

#[test]
fn every_door_makes_the_same_access() {
    let reference = doors_serial_bytes();
    let mut computed = Vec::new();
    for (nprocs, collective) in MODES {
        let mut typed_sizes = None;
        for door in DOORS {
            let label = format!("{door:?} with {nprocs} ranks, collective {collective}");
            let (bytes, clock, reports) = through_door(door, nprocs, collective);
            assert!(bytes == reference, "{label}: file differs from serial");
            computed.push((door, nprocs, collective, clock));

            // The same bytes are counted, whichever door moved them.
            let sizes: Vec<(u64, u64)> = reports.iter().map(|r| r.1).collect();
            let total: u64 = sizes.iter().map(|s| s.0).sum();
            assert_eq!(total, 2 * NSH + 4 * 4 * 6 * 8 + 8 * 3 * 6 * 8, "{label}");
            assert_eq!(typed_sizes.get_or_insert(sizes.clone()), &sizes, "{label}");

            // A call that must fail fails alike on every rank.
            let errors = &reports[0].0;
            for report in &reports {
                assert_eq!(&report.0, errors, "{label}: ranks disagree on an error");
            }
            let expect_refused = match door {
                Door::Typed | Door::FlexPacked | Door::FlexStrided => usize::from(collective),
                Door::Converting | Door::ConvertingNb => 1,
                Door::TypedNb | Door::FlexNb => 0,
            };
            assert_eq!(errors.len(), expect_refused, "{label}");
            for e in errors {
                match door {
                    // (The agreement carries a format error as its text.)
                    Door::Converting | Door::ConvertingNb => assert!(
                        matches!(e, NcmpiError::Format(f) if f.to_string().contains("NC_ERANGE")),
                        "{label}: {e:?}"
                    ),
                    _ => assert!(
                        matches!(e, NcmpiError::InvalidArgument(_)),
                        "{label}: {e:?}"
                    ),
                }
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(d, n, c, ns)| format!("    (Door::{d:?}, {n}, {c}, {ns}),\n"))
        .collect();
    assert!(
        computed[..] == DOOR_CLOCKS[..],
        "a door's clock moved; this build computes:\n{table}"
    );
}

/// A mapped access of zero elements moves nothing and returns nothing, in
/// both libraries: `put_varm` of no values succeeds, `get_varm` returns an
/// empty buffer, and the files stay byte-identical.
#[test]
fn zero_count_varm_is_empty_in_both_libraries() {
    let (count, imap) = ([0u64, 6, 8], [48u64, 8, 1]);
    let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
    let (tt, _) = define_serial(&mut f);
    f.put_varm::<f32>(tt, &[0, 0, 0], &count, None, &imap, &[])
        .unwrap();
    let got: Vec<f32> = f.get_varm(tt, &[0, 0, 0], &count, None, &imap).unwrap();
    assert!(got.is_empty(), "serial get_varm returned {got:?}");
    let reference = closed_bytes(f);

    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "z.nc", Version::Cdf1, &Info::new()).unwrap();
        let (tt, _) = define_parallel(&mut ds);
        ds.put_varm_all::<f32>(tt, &[0, 0, 0], &count, None, &imap, &[])
            .unwrap();
        let got: Vec<f32> = ds
            .get_varm_all(tt, &[0, 0, 0], &count, None, &imap)
            .unwrap();
        assert!(got.is_empty(), "get_varm_all returned {got:?}");
        ds.begin_indep_data().unwrap();
        ds.put_varm::<f32>(tt, &[0, 0, 0], &count, None, &imap, &[])
            .unwrap();
        let got: Vec<f32> = ds.get_varm(tt, &[0, 0, 0], &count, None, &imap).unwrap();
        assert!(got.is_empty(), "get_varm returned {got:?}");
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
    assert!(pfs.open("z.nc").unwrap().to_bytes() == reference);
}
