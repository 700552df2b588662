//! Gets large enough for their fresh buffers to be advised huge pages
//! return the bytes that were put.
//!
//! A get of at least 4 MiB allocates its destination (or, when it
//! converts, its staging) and asks the kernel to back it with transparent
//! huge pages before the read fills it (`pnetcdf_pfs::pool::advise_huge`).
//! Three gets of 4 MiB + 12 B, so no buffer ends on a page boundary, read
//! back a file two ranks wrote:
//!
//! * a two-rank collective `get_vara_all::<f32>` of a float variable: the
//!   returned vector itself is advised, and the read swaps in place;
//! * a two-rank collective `f64` get of the same variable: the 4 MiB + 12 B
//!   staging is advised, and converted into the returned vector;
//! * a one-rank independent `get_vara::<f32>`.
//!
//! Each must be bit-identical to the values put and to what the serial
//! library reads from the same file.

use hpc_sim::SimConfig;
use netcdf_serial::{MemStore, NcFile};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const NPROCS: u64 = 2;
/// Floats per rank: 4 MiB + 12 B of external bytes.
const N: u64 = ((4 << 20) + 12) / 4;

/// Element `i` of the variable: finite (the exponent's top bit clear),
/// of either sign, with every mantissa bit in play.
fn value(i: u64) -> f32 {
    let mix = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
    f32::from_bits(mix & 0xBFFF_FFFF)
}

fn values(lo: u64, n: u64) -> Vec<f32> {
    (lo..lo + n).map(value).collect()
}

fn bits<T: Copy>(vals: &[T], to_bits: impl Fn(T) -> u64) -> Vec<u64> {
    vals.iter().map(|&v| to_bits(v)).collect()
}

#[test]
fn large_gets_return_what_was_put() {
    let pfs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
    let info = Info::new();
    let got = run_world(NPROCS as usize, SimConfig::test_small(), |c| {
        let r = c.rank() as u64;
        let mut ds = Dataset::create(c, &pfs, "large.nc", Version::Cdf2, &info).unwrap();
        let n = ds.def_dim("n", NPROCS * N).unwrap();
        let v = ds.def_var("v", NcType::Float, &[n]).unwrap();
        ds.enddef().unwrap();
        ds.put_vara_all(v, &[r * N], &[N], &values(r * N, N))
            .unwrap();
        ds.close().unwrap();

        let mut ds = Dataset::open(c, &pfs, "large.nc", true, &info).unwrap();
        let native: Vec<f32> = ds.get_vara_all(v, &[r * N], &[N]).unwrap();
        let wide: Vec<f64> = ds.get_vara_all(v, &[r * N], &[N]).unwrap();
        ds.close().unwrap();
        (native, wide)
    })
    .results;
    let independent = run_world(1, SimConfig::test_small(), |c| {
        let mut ds = Dataset::open(c, &pfs, "large.nc", true, &info).unwrap();
        ds.begin_indep_data().unwrap();
        let vals: Vec<f32> = ds.get_vara(0, &[N / 2], &[N]).unwrap();
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
        vals
    })
    .results
    .remove(0);

    let mut serial = NcFile::open_readonly(MemStore::from_bytes(
        pfs.open("large.nc").unwrap().to_bytes(),
    ))
    .unwrap();
    let f32_bits = |v: f32| u64::from(v.to_bits());
    for (r, (native, wide)) in (0..NPROCS).zip(&got) {
        let put = values(r * N, N);
        let read: Vec<f32> = serial.get_vara(0, &[r * N], &[N]).unwrap();
        let read_wide: Vec<f64> = serial.get_vara(0, &[r * N], &[N]).unwrap();
        assert!(
            bits(native, f32_bits) == bits(&put, f32_bits),
            "rank {r}'s f32 get"
        );
        assert!(
            bits(native, f32_bits) == bits(&read, f32_bits),
            "rank {r}'s f32 get against serial"
        );
        let put_wide: Vec<f64> = put.iter().map(|&v| f64::from(v)).collect();
        assert!(
            bits(wide, f64::to_bits) == bits(&put_wide, f64::to_bits),
            "rank {r}'s f64 get"
        );
        assert!(
            bits(wide, f64::to_bits) == bits(&read_wide, f64::to_bits),
            "rank {r}'s f64 get against serial"
        );
    }
    let read: Vec<f32> = serial.get_vara(0, &[N / 2], &[N]).unwrap();
    assert!(
        bits(&independent, f32_bits) == bits(&values(N / 2, N), f32_bits),
        "the independent get"
    );
    assert!(
        bits(&independent, f32_bits) == bits(&read, f32_bits),
        "the independent get against serial"
    );
}
