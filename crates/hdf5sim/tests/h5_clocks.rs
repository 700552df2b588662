//! The *timing* of the HDF5-sim baseline, pinned: create → three
//! `create_dataset` / `write_hyperslab_all` / `close` → file close → open →
//! three `open_dataset` / `read_hyperslab_all` → close, with every rank's
//! clock after every call, a digest of the bytes the reads returned and a
//! digest of the final file — as literals.
//!
//! `h5_roundtrip` compares the bytes and `h5_costs` the cost *structure*;
//! neither holds a number, and the goldens of Figure 7 leave the HDF5 rows
//! `null` (ROADMAP item 1). This table was recorded before the file-view
//! door of `pnetcdf-mpio` was deleted and had to survive that deletion
//! unedited: the library's metadata and hyperslab I/O hands MPI-IO the same
//! run lists either way. Its four-rank row was re-recorded, clocks only,
//! when the unhinted aggregator count stopped shrinking with the request
//! volume.
//!
//! Configurations: one rank in both transfer modes, four ranks in the
//! collective mode — there the only independent requests are rank 0's
//! metadata writes while the others wait at the barrier that follows, so
//! the servers see one order. Four ranks in the independent mode follow
//! host thread order and are not pinned. A mismatch prints the rows this
//! build computes, in the table's format.

use hdf5_sim::{H5File, H5Type, TransferMode};
use hpc_sim::SimConfig;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_pfs::{Pfs, StorageMode};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The three datasets: `(name, type, dims)`. `cols` is split by columns
/// (every row of a rank's block is a run of its own), `rows` by rows (one
/// run per rank), and `line` in element blocks of which the last rank's is
/// empty (an empty run list beside the others').
const DATASETS: [(&str, H5Type, &[u64]); 3] = [
    ("cols", H5Type::F64, &[24, 16]),
    ("rows", H5Type::I32, &[16, 40]),
    ("line", H5Type::F32, &[600]),
];

/// Rank `r` of `n`'s hyperslab of dataset `d`: `(start, count)`.
fn slab(d: usize, n: u64, r: u64) -> (Vec<u64>, Vec<u64>) {
    match d {
        0 => (vec![0, r * (16 / n)], vec![24, 16 / n]),
        1 => (vec![r * (16 / n), 0], vec![16 / n, 40]),
        _ if n == 1 => (vec![0], vec![600]),
        // 200 elements each for all but the last rank, which selects none.
        _ if r + 1 == n => (vec![600], vec![0]),
        _ => (vec![r * (600 / (n - 1))], vec![600 / (n - 1)]),
    }
}

fn payload(d: usize, r: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + d * 31 + r as usize * 101) % 251) as u8 + 1)
        .collect()
}

/// What one configuration did: every rank's clock (ns) after every call,
/// the digest of every rank's read bytes in rank order, the file's digest.
type Row = (&'static [&'static [u64]], u64, u64);
type Measured = (Vec<Vec<u64>>, u64, u64);

fn measure(nprocs: usize, xfer: TransferMode) -> Measured {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(nprocs, cfg, |c| {
        let (n, r) = (c.size() as u64, c.rank() as u64);
        let mut clocks = Vec::new();
        let mut tick = || clocks.push(c.now().as_nanos());
        let info = Info::new();

        let mut f = H5File::create(c, &pfs, "t.h5", &info).unwrap();
        tick();
        for (d, &(name, ty, dims)) in DATASETS.iter().enumerate() {
            let mut ds = f.create_dataset(name, ty, dims).unwrap();
            tick();
            ds.set_transfer_mode(xfer);
            let (start, count) = slab(d, n, r);
            let len = count.iter().product::<u64>() * ty.size();
            let data = payload(d, r, len as usize);
            ds.write_hyperslab_all(&mut f, &start, &count, &data)
                .unwrap();
            tick();
            ds.close(&mut f).unwrap();
            tick();
        }
        f.close().unwrap();
        tick();

        let mut read = FNV_BASIS;
        let mut f = H5File::open(c, &pfs, "t.h5", true, &info).unwrap();
        tick();
        for (d, &(name, ty, _)) in DATASETS.iter().enumerate().rev() {
            let mut ds = f.open_dataset(name).unwrap();
            tick();
            ds.set_transfer_mode(xfer);
            // Every rank reads the next rank's share.
            let (start, count) = slab(d, n, (r + 1) % n);
            let len = count.iter().product::<u64>() * ty.size();
            let mut out = vec![0xEEu8; len as usize];
            ds.read_hyperslab_all(&mut f, &start, &count, &mut out)
                .unwrap();
            tick();
            assert_eq!(out, payload(d, (r + 1) % n, len as usize), "{name}");
            read = fnv_bytes(read, &out);
        }
        f.close().unwrap();
        tick();
        (clocks, read)
    });
    let (clocks, reads): (Vec<_>, Vec<_>) = run.results.into_iter().unzip();
    let read = reads
        .iter()
        .fold(FNV_BASIS, |h, d| fnv_bytes(h, &d.to_be_bytes()));
    let file = fnv_bytes(FNV_BASIS, &pfs.open("t.h5").unwrap().to_bytes());
    (clocks, read, file)
}

const CONFIGS: [(usize, TransferMode); 3] = [
    (1, TransferMode::Independent),
    (1, TransferMode::Collective),
    (4, TransferMode::Collective),
];

#[test]
fn every_call_of_the_baseline_keeps_its_recorded_clock() {
    let mut wrong = Vec::new();
    for (i, &(nprocs, xfer)) in CONFIGS.iter().enumerate() {
        let m = measure(nprocs, xfer);
        let same = GOLDEN.get(i).is_some_and(|g| {
            g.0.iter().map(|c| c.to_vec()).collect::<Vec<_>>() == m.0 && (g.1, g.2) == (m.1, m.2)
        });
        if !same {
            let clocks: Vec<String> = m.0.iter().map(|c| format!("&{c:?}")).collect();
            wrong.push(format!(
                "    // {i}: {nprocs} rank(s), {xfer:?}\n    (&[{}], {:#018x}, {:#018x}),",
                clocks.join(", "),
                m.1,
                m.2
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
const GOLDEN: [Row; 3] = [
    // 0: 1 rank(s), Independent
    (&[&[1135400, 3511600, 4773936, 5899456, 8275816, 9538636, 10664156, 12040596, 14295876, 15421316, 16556716, 18807286, 21078906, 22207786, 24469406, 25598366, 27849986, 28979202, 28989202]], 0xd8dc699aa34ac745, 0x2bcfca40de9e0dae),
    // 1: 1 rank(s), Collective
    (&[&[1135400, 3511600, 4774550, 5900070, 8276430, 9539762, 10665282, 12041722, 14297482, 15422922, 16558322, 18808892, 21080512, 22209888, 24471508, 25600996, 27852616, 28982488, 28992488]], 0xd8dc699aa34ac745, 0x2bcfca40de9e0dae),
    // 2: 4 rank(s), Collective
    (&[&[1175400, 3571600, 4873510, 6019030, 8415390, 9716921, 10862441, 12258881, 14554455, 15699895, 16855295, 19146017, 21437941, 22607266, 24889190, 26058051, 28329975, 29499396, 29529396], &[1175400, 3571600, 4873510, 6019030, 8415390, 9716921, 10862441, 12258881, 14554455, 15699895, 16855295, 19146017, 21437941, 22607266, 24889190, 26058051, 28329975, 29499396, 29529396], &[1175400, 3571600, 4873510, 6019030, 8415390, 9716921, 10862441, 12258881, 14554455, 15699895, 16855295, 19146017, 21437941, 22606866, 24889190, 26058051, 28329975, 29499396, 29529396], &[1175400, 3571600, 4873510, 6019030, 8415390, 9716921, 10862441, 12258881, 14554455, 15699895, 16855295, 19146017, 21437941, 22607266, 24889190, 26058051, 28329975, 29499396, 29529396]], 0x0fef2580cbe35b46, 0xf40a9ac89c62e736),
];
