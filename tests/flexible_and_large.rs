//! Additional integration coverage: CDF-1 size limits, CDF-2 large
//! offsets, flexible strided access, hint edge cases, and stress rounds.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

#[test]
fn cdf1_rejects_large_files_cdf2_accepts() {
    // Two 3 GiB variables: begins exceed 32 bits.
    let pfs = Pfs::new(cfg(), StorageMode::CostOnly);
    let run = run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "big.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 1 << 30).unwrap(); // 1 Gi elements = 4 GiB of i32
        ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.def_var("b", NcType::Int, &[x]).unwrap();
        matches!(ds.enddef(), Err(NcmpiError::Format(_)))
    });
    assert!(
        run.results.iter().all(|&e| e),
        "CDF-1 must reject > 4 GiB begins"
    );

    // MetadataOnly keeps the header and these byte-sized writes while
    // discarding bulk data, so a sparse 8 GiB file costs no real memory.
    let pfs = Pfs::new(cfg(), StorageMode::MetadataOnly);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "big2.nc", Version::Cdf2, &Info::new()).unwrap();
        let x = ds.def_dim("x", 1 << 30).unwrap();
        let a = ds.def_var("a", NcType::Int, &[x]).unwrap();
        let b = ds.def_var("b", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        // Write at the very end of the second variable (beyond 4 GiB).
        let off = (1u64 << 30) - 4;
        ds.put_vara_all(b, &[off + c.rank() as u64 * 2], &[2], &[7i32, 8])
            .unwrap();
        let back: Vec<i32> = ds.get_vara_all(b, &[off], &[4]).unwrap();
        assert_eq!(back, vec![7, 8, 7, 8]);
        let _ = a;
        ds.close().unwrap();
    });
}

#[test]
fn flexible_strided_write_matches_typed() {
    let write = |flexible: bool| -> Vec<u8> {
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(2, cfg(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "s.nc", Version::Cdf1, &Info::new()).unwrap();
            let z = ds.def_dim("z", 4).unwrap();
            let x = ds.def_dim("x", 8).unwrap();
            let v = ds.def_var("a", NcType::Int, &[z, x]).unwrap();
            ds.enddef().unwrap();
            // Rank r writes every other column of rows 2r..2r+2.
            let start = [c.rank() as u64 * 2, 0];
            let count = [2, 4];
            let stride = [1, 2];
            let vals: Vec<i32> = (0..8).map(|i| c.rank() as i32 * 100 + i).collect();
            if flexible {
                let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_ne_bytes()).collect();
                let mem = Datatype::contiguous(8, Datatype::int());
                ds.put_vars_all_flexible(v, &start, &count, &stride, &bytes, 1, &mem)
                    .unwrap();
            } else {
                ds.put_vars_all(v, &start, &count, &stride, &vals).unwrap();
            }
            ds.close().unwrap();
        });
        pfs.open("s.nc").unwrap().to_bytes()
    };
    assert_eq!(write(true), write(false));
}

#[test]
fn flexible_api_rejects_size_mismatch() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "m.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        // Memory describes 3 ints but the access selects 4.
        let mem = Datatype::contiguous(3, Datatype::int());
        let buf = [0u8; 12];
        assert!(matches!(
            ds.put_vara_all_flexible(v, &[0], &[4], &buf, 1, &mem),
            Err(NcmpiError::InvalidArgument(_))
        ));
        ds.close().unwrap();
    });
}

/// A flexible collective access that fails validation on ONE rank must not
/// leave the others alone in the rendezvous: like the typed calls, it
/// agrees on the outcome first and returns the same error everywhere —
/// whether the memory type lends the caller's bytes in place (contiguous)
/// or stages a packed copy (strided).
#[test]
fn flexible_collective_agrees_on_a_one_rank_validation_failure() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let run = run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "agree.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 16).unwrap();
        let v = ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        let mine = c.rank() as u64 * 8;
        // Rank 1 starts far past the end of x(16).
        let bad = if c.rank() == 1 { 100 } else { mine };
        let vals: Vec<i32> = (0..8).map(|i| mine as i32 + i).collect();
        let mut errors = vec![ds.put_vara_all(v, &[bad], &[8], &vals).unwrap_err()];
        // So does a typed get, whatever the one rank got wrong.
        errors.push(ds.get_vara_all::<i32>(v, &[bad], &[8]).unwrap_err());
        let unknown = if c.rank() == 1 { 99 } else { v };
        let not_found = ds.get_vara_all::<i32>(unknown, &[mine], &[8]).unwrap_err();
        assert!(
            matches!(not_found, NcmpiError::NotFound(_)),
            "{not_found:?}"
        );
        // Eight ints in a row, or every other int of sixteen.
        let contiguous = (Datatype::int(), 8, 32);
        let strided = (Datatype::vector(8, 1, 2, Datatype::int()), 1, 64);
        for (mem, bufcount, len) in [contiguous, strided] {
            let step = len / 8;
            let mut buf = vec![0u8; len];
            for (i, v) in vals.iter().enumerate() {
                buf[i * step..i * step + 4].copy_from_slice(&v.to_ne_bytes());
            }
            errors.push(
                ds.put_vara_all_flexible(v, &[bad], &[8], &buf, bufcount, &mem)
                    .unwrap_err(),
            );
            // The rejected call wrote nothing; the dataset still works.
            ds.put_vara_all_flexible(v, &[mine], &[8], &buf, bufcount, &mem)
                .unwrap();
            let mut back = vec![0u8; len];
            errors.push(
                ds.get_vara_all_flexible(v, &[bad], &[8], &mut back, bufcount, &mem)
                    .unwrap_err(),
            );
            assert!(back.iter().all(|&b| b == 0), "a rejected get delivered");
            ds.get_vara_all_flexible(v, &[mine], &[8], &mut back, bufcount, &mem)
                .unwrap();
            assert_eq!(back, buf);
        }
        ds.close().unwrap();
        errors
    });
    // Every call reports the typed call's error, on both ranks.
    let typed = &run.results[0][0];
    assert!(matches!(typed, NcmpiError::Format(_)), "{typed:?}");
    for errors in &run.results {
        assert!(errors.iter().all(|e| e == typed), "{errors:?}");
    }
}

#[test]
fn zero_sized_collective_participation() {
    // Some ranks contribute nothing to a collective write; all must still
    // participate and the data must land.
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(4, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "z.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("a", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        if c.rank() < 2 {
            let s = c.rank() as u64 * 4;
            let vals: Vec<i32> = (0..4).map(|i| (s + i) as i32).collect();
            ds.put_vara_all(v, &[s], &[4], &vals).unwrap();
        } else {
            ds.put_vara_all::<i32>(v, &[0], &[0], &[]).unwrap();
        }
        let all: Vec<i32> = ds.get_vara_all(v, &[0], &[8]).unwrap();
        assert_eq!(all, (0..8).collect::<Vec<i32>>());
        ds.close().unwrap();
    });
}

#[test]
fn char_variables_store_text() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "t.nc", Version::Cdf1, &Info::new()).unwrap();
        let n = ds.def_dim("len", 12).unwrap();
        let v = ds.def_var("label", NcType::Char, &[n]).unwrap();
        ds.enddef().unwrap();
        let text: &[u8] = if c.rank() == 0 { b"hello " } else { b"world!" };
        ds.put_vara_all(v, &[c.rank() as u64 * 6], &[6], text)
            .unwrap();
        let back: Vec<u8> = ds.get_vara_all(v, &[0], &[12]).unwrap();
        assert_eq!(&back, b"hello world!");
        ds.close().unwrap();
    });
}

#[test]
fn info_hints_survive_on_dataset() {
    // nc_header_align_size changes the data start.
    let aligned_start = |align: Option<&str>| -> u64 {
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let mut info = Info::new();
        if let Some(a) = align {
            info.set("nc_header_align_size", a);
        }
        let run = run_world(1, cfg(), move |c| {
            let mut ds = Dataset::create(c, &pfs, "a.nc", Version::Cdf1, &info).unwrap();
            let x = ds.def_dim("x", 4).unwrap();
            ds.def_var("v", NcType::Int, &[x]).unwrap();
            ds.enddef().unwrap();
            let s = ds.layout().data_start;
            ds.close().unwrap();
            s
        });
        run.results[0]
    };
    let default = aligned_start(None);
    let big = aligned_start(Some("1024"));
    assert_eq!(big % 1024, 0);
    assert!(big >= default);
}

#[test]
fn many_variables_many_rounds_stress() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(3, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "w.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 12).unwrap();
        let vars: Vec<usize> = (0..16)
            .map(|i| ds.def_var(&format!("v{i}"), NcType::Short, &[x]).unwrap())
            .collect();
        ds.enddef().unwrap();
        for (round, &v) in vars.iter().enumerate() {
            let s = c.rank() as u64 * 4;
            let vals: Vec<i16> = (0..4)
                .map(|i| (round * 100) as i16 + (s + i) as i16)
                .collect();
            ds.put_vara_all(v, &[s], &[4], &vals).unwrap();
        }
        for (round, &v) in vars.iter().enumerate() {
            let all: Vec<i16> = ds.get_vara_all(v, &[0], &[12]).unwrap();
            for (i, &got) in all.iter().enumerate() {
                assert_eq!(got, (round * 100) as i16 + i as i16);
            }
        }
        ds.close().unwrap();
    });
}
