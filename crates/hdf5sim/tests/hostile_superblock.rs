//! A superblock that claims more symbol table entries than the file holds
//! is refused as corrupt before anything is reserved for them: the entry
//! count comes from the file, so `nobjects = u32::MAX` must not turn into a
//! request for 4 294 967 295 entries (about 137 GB). The largest allocation
//! the open makes is counted by the allocator of
//! `tests/support/counting_alloc.rs`.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use hdf5_sim::format::Superblock;
use hdf5_sim::{H5Error, H5File};
use hpc_sim::SimConfig;
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_pfs::{Pfs, StorageMode};

#[test]
fn a_superblock_claiming_u32_max_objects_is_corrupt_and_reserves_nothing_for_them() {
    let cfg = SimConfig::test_small();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let sb = Superblock {
        root_addr: 28,
        eof: 40,
        nobjects: u32::MAX,
    };
    // One well-formed entry (an empty name at address 0), then the end of
    // the file.
    let mut bytes = sb.encode();
    bytes.extend_from_slice(&[0u8; 12]);
    pfs.create("hostile.h5").import_bytes(&bytes);

    let pfs_in = pfs.clone();
    run_world(1, cfg, move |c| {
        counting_alloc::take_largest();
        counting_alloc::watch_largest(true);
        let res = H5File::open(c, &pfs_in, "hostile.h5", true, &Info::new());
        counting_alloc::watch_largest(false);
        let largest = counting_alloc::largest();
        assert!(matches!(res, Err(H5Error::Corrupt(_))), "{:?}", res.err());
        assert!(
            largest < 1 << 20,
            "the open made an allocation of {largest} bytes"
        );
    });
}
