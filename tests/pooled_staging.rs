//! No stale byte reaches a file through the process's byte pool.
//!
//! Queued puts stage into buffers of the pool (`pnetcdf_pfs::pool`), which
//! hold whatever their last user left: an earlier put's external bytes or
//! a dropped file system's stripes. Two programs run one after the other in
//! this process, the second with other values, and the second queues puts
//! of exactly the sizes the first staged, through every staging kind:
//!
//! * a same-type put (`f64` into a double): one byte swap over the buffer;
//! * cross-type encodes: `f64` into a float, and `i32` into a short, where
//!   the first put fails with `NC_ERANGE` partway through and its buffer,
//!   one stripe long, goes back to the pool half written, to be taken next
//!   by a stripe of the file;
//! * a flexible put (`iput_vara_flexible`) of every other `int` of the
//!   caller's memory: the fused gather and swap.
//!
//! Each file must be byte-identical to the one the serial library writes
//! from the same values.

use hpc_sim::SimConfig;
use netcdf_serial::{MemStore, NcFile};
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Version};
use pnetcdf_format::FormatError;
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: u64 = 2;
/// Elements per rank of the double and the float: 2 400 and 1 200 staged
/// bytes.
const N: u64 = 300;
/// Elements per rank of the short: 1 024 staged bytes, `test_small`'s
/// stripe.
const S: u64 = 512;
/// Elements per rank of the int the flexible put writes: 800 staged bytes.
const F: u64 = 200;

/// The value element `i` (global index) of variable `var` holds in the
/// program of `seed`.
fn value(seed: u64, var: u64, i: u64) -> i32 {
    (seed * 7_919 + var * 1_009 + i * 13) as i32 % 30_000
}

fn reals(seed: u64, var: u64, lo: u64, n: u64) -> Vec<f64> {
    (lo..lo + n)
        .map(|i| value(seed, var, i) as f64 * 0.25)
        .collect()
}

fn ints(seed: u64, var: u64, lo: u64, n: u64) -> Vec<i32> {
    (lo..lo + n).map(|i| value(seed, var, i)).collect()
}

/// The file the serial library writes from the values of `seed`.
fn oracle(seed: u64) -> Vec<u8> {
    let mut f = NcFile::create(MemStore::new(), Version::Cdf1);
    let n = f.def_dim("n", NPROCS * N).unwrap();
    let s = f.def_dim("s", NPROCS * S).unwrap();
    let k = f.def_dim("k", NPROCS * F).unwrap();
    let same = f.def_var("same", NcType::Double, &[n]).unwrap();
    let narrow = f.def_var("narrow", NcType::Float, &[n]).unwrap();
    let short = f.def_var("short", NcType::Short, &[s]).unwrap();
    let flex = f.def_var("flex", NcType::Int, &[k]).unwrap();
    f.enddef().unwrap();
    f.put_vara(same, &[0], &[NPROCS * N], &reals(seed, 0, 0, NPROCS * N))
        .unwrap();
    f.put_vara(narrow, &[0], &[NPROCS * N], &reals(seed, 1, 0, NPROCS * N))
        .unwrap();
    f.put_vara(short, &[0], &[NPROCS * S], &ints(seed, 2, 0, NPROCS * S))
        .unwrap();
    f.put_vara(flex, &[0], &[NPROCS * F], &ints(seed, 3, 0, NPROCS * F))
        .unwrap();
    let mut store = f.close().unwrap();
    let mut bytes = vec![0u8; store.size() as usize];
    store.read_at(0, &mut bytes);
    bytes
}

/// The file PnetCDF writes from the values of `seed`, every variable
/// through queued puts, on a file system dropped before it returns.
fn queued(seed: u64) -> Vec<u8> {
    let pfs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
    run_world(NPROCS as usize, SimConfig::test_small(), |c| {
        let mut ds = Dataset::create(c, &pfs, "p.nc", Version::Cdf1, &Info::new()).unwrap();
        let n = ds.def_dim("n", NPROCS * N).unwrap();
        let s = ds.def_dim("s", NPROCS * S).unwrap();
        let k = ds.def_dim("k", NPROCS * F).unwrap();
        let same = ds.def_var("same", NcType::Double, &[n]).unwrap();
        let narrow = ds.def_var("narrow", NcType::Float, &[n]).unwrap();
        let short = ds.def_var("short", NcType::Short, &[s]).unwrap();
        let flex = ds.def_var("flex", NcType::Int, &[k]).unwrap();
        ds.enddef().unwrap();
        let r = c.rank() as u64;

        ds.iput_vara(same, &[r * N], &[N], &reals(seed, 0, r * N, N))
            .unwrap();
        ds.iput_vara(narrow, &[r * N], &[N], &reals(seed, 1, r * N, N))
            .unwrap();

        // Half encoded when it fails: the buffer goes back half written.
        let mut wide = ints(seed, 2, r * S, S);
        wide[S as usize / 2] = 40_000;
        match ds.iput_vara(short, &[r * S], &[S], &wide) {
            Err(NcmpiError::Format(FormatError::Range(_))) => {}
            other => panic!("an out-of-range short put gave {other:?}"),
        }
        // Two halves of another size, so the failed put's buffer is left
        // for the file's stripes.
        for h in 0..2 {
            let at = r * S + h * S / 2;
            ds.iput_vara(short, &[at], &[S / 2], &ints(seed, 2, at, S / 2))
                .unwrap();
        }

        // Every other int of the caller's memory; the ones between are
        // values no file holds.
        let picked = ints(seed, 3, r * F, F);
        let mem: Vec<u8> = picked
            .iter()
            .flat_map(|v| [v.to_ne_bytes(), (-v).to_ne_bytes()])
            .flatten()
            .collect();
        let every_other = Datatype::vector(F as usize, 1, 2, Datatype::int());
        ds.iput_vara_flexible(flex, &[r * F], &[F], &mem, 1, &every_other)
            .unwrap();

        ds.wait_all().unwrap();
        ds.close().unwrap();
    });
    let bytes = pfs.open("p.nc").unwrap().to_bytes();
    drop(pfs);
    bytes
}

#[test]
fn a_second_program_staging_the_first_ones_sizes_writes_no_stale_byte() {
    for seed in [1, 2] {
        assert!(
            queued(seed) == oracle(seed),
            "program {seed}'s file differs from the serial library's"
        );
    }
}
