//! The bytes of every FLASH output file, pinned. A small mesh (nxb 4 and 8,
//! 3 blocks per processor, 2 ranks) is written as each `OutputKind` through
//! the PnetCDF and the HDF5 writer, and the FNV-1a digest of the final file
//! is compared with a literal. A change to how the writers fill, strip or
//! lower their buffers must leave every file as it was.

use flash_io::{BlockMesh, OutputKind};
use hpc_sim::SimConfig;
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

const KINDS: [OutputKind; 3] = [
    OutputKind::Checkpoint,
    OutputKind::Plotfile,
    OutputKind::PlotfileCorners,
];

/// `(nxb, kind, PnetCDF digest, HDF5 digest, [PnetCDF, HDF5] file lengths)`,
/// recorded before guard stripping and access lowering were made cheaper.
#[rustfmt::skip]
const PINNED: &[(u64, OutputKind, u64, u64, [u64; 2])] = &[
    (4, OutputKind::Checkpoint, 0xa3e8cc4195782653, 0x2eccec5f2479974b, [75952, 83733]),
    (4, OutputKind::Plotfile, 0x513ef369d97f6132, 0x93aa71d0b9f6cc4c, [7328, 8149]),
    (4, OutputKind::PlotfileCorners, 0xaf3120e4e4706062, 0xc500dbd4f94a8897, [13184, 14005]),
    (8, OutputKind::Checkpoint, 0x181e2b3a70046acd, 0x0e90398412713289, [592048, 599829]),
    (8, OutputKind::Plotfile, 0xb7012b4b352fea62, 0x9414babb5a40c5f4, [50336, 51157]),
    (8, OutputKind::PlotfileCorners, 0xbc76be399a4c02d1, 0x18dc62d468716f6e, [71168, 71989]),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The final bytes of one file written by both ranks of a 2-rank world.
fn file_bytes(nxb: u64, kind: OutputKind, hdf5: bool) -> Vec<u8> {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let mesh = BlockMesh {
        nxb,
        blocks_per_proc: 3,
        nprocs: 2,
    };
    let writer = pfs.clone();
    run_world(2, cfg, move |c| {
        if hdf5 {
            flash_io::writers::hdf5::write(c, &writer, &mesh, kind, "f").unwrap();
        } else {
            flash_io::writers::pnetcdf::write(c, &writer, &mesh, kind, "f").unwrap();
        }
    });
    pfs.open("f").unwrap().to_bytes()
}

#[test]
fn flash_files_are_pinned() {
    let mut got = Vec::new();
    for nxb in [4, 8] {
        for kind in KINDS {
            let (nc, h5) = (file_bytes(nxb, kind, false), file_bytes(nxb, kind, true));
            got.push((
                nxb,
                kind,
                fnv(&nc),
                fnv(&h5),
                [nc.len() as u64, h5.len() as u64],
            ));
        }
    }
    let rows: Vec<String> = got
        .iter()
        .map(|(nxb, kind, nc, h5, lens)| {
            format!("    ({nxb}, OutputKind::{kind:?}, {nc:#018x}, {h5:#018x}, {lens:?}),")
        })
        .collect();
    assert_eq!(got, PINNED, "this build writes:\n{}", rows.join("\n"));
}
