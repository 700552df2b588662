//! The nonblocking `iput_*`/`iget_*` + `wait_all` pipeline: roundtrips
//! across the seven partitioning strategies of the paper's Figure 6,
//! record variables, cross-request aggregation semantics, and — the key
//! contract — byte-for-byte identity with the blocking path.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Datatype, Info, NcType, NcmpiError, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn cfg() -> SimConfig {
    SimConfig::test_small()
}

/// Which axes a partition splits.
#[derive(Clone, Copy, Debug)]
struct Split {
    z: bool,
    y: bool,
    x: bool,
}

const PARTITIONS: [(&str, Split); 7] = [
    (
        "Z",
        Split {
            z: true,
            y: false,
            x: false,
        },
    ),
    (
        "Y",
        Split {
            z: false,
            y: true,
            x: false,
        },
    ),
    (
        "X",
        Split {
            z: false,
            y: false,
            x: true,
        },
    ),
    (
        "ZY",
        Split {
            z: true,
            y: true,
            x: false,
        },
    ),
    (
        "ZX",
        Split {
            z: true,
            y: false,
            x: true,
        },
    ),
    (
        "YX",
        Split {
            z: false,
            y: true,
            x: true,
        },
    ),
    (
        "ZYX",
        Split {
            z: true,
            y: true,
            x: true,
        },
    ),
];

/// Factor `nprocs` across the split axes, returning per-axis process counts.
fn factors(nprocs: usize, split: Split) -> (u64, u64, u64) {
    let naxes = [split.z, split.y, split.x].iter().filter(|&&b| b).count();
    let mut remaining = nprocs as u64;
    let mut out = [1u64, 1, 1];
    let mut axes: Vec<usize> = Vec::new();
    if split.z {
        axes.push(0);
    }
    if split.y {
        axes.push(1);
    }
    if split.x {
        axes.push(2);
    }
    for (i, &a) in axes.iter().enumerate() {
        let left = naxes - i;
        let mut f = (remaining as f64).powf(1.0 / left as f64).round() as u64;
        while f > 1 && remaining % f != 0 {
            f -= 1;
        }
        out[a] = f.max(1);
        remaining /= out[a];
    }
    out[*axes.last().unwrap()] *= remaining;
    (out[0], out[1], out[2])
}

/// This rank's (start, count) block of a (Z,Y,X) array.
fn block(
    rank: usize,
    (pz, py, px): (u64, u64, u64),
    (nz, ny, nx): (u64, u64, u64),
) -> ([u64; 3], [u64; 3]) {
    let r = rank as u64;
    let iz = r / (py * px);
    let iy = (r / px) % py;
    let ix = r % px;
    (
        [iz * (nz / pz), iy * (ny / py), ix * (nx / px)],
        [nz / pz, ny / py, nx / px],
    )
}

fn value(z: u64, y: u64, x: u64) -> f32 {
    (z * 10000 + y * 100 + x) as f32
}

fn block_values(start: [u64; 3], count: [u64; 3]) -> Vec<f32> {
    let mut vals = Vec::new();
    for dz in 0..count[0] {
        for dy in 0..count[1] {
            for dx in 0..count[2] {
                vals.push(value(start[0] + dz, start[1] + dy, start[2] + dx));
            }
        }
    }
    vals
}

/// Every Figure 6 partition, written with one queued iput per rank and one
/// `wait_all`, read back with queued igets — then the whole file verified
/// element-by-element through the serial reader.
#[test]
fn all_seven_partitions_nonblocking_roundtrip() {
    let (nz, ny, nx) = (4u64, 4, 8);
    let nprocs = 4usize;
    for (name, split) in PARTITIONS {
        let p = factors(nprocs, split);
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(nprocs, cfg(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "p.nc", Version::Cdf1, &Info::new()).unwrap();
            let z = ds.def_dim("z", nz).unwrap();
            let y = ds.def_dim("y", ny).unwrap();
            let x = ds.def_dim("x", nx).unwrap();
            let v = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
            ds.enddef().unwrap();

            let (start, count) = block(c.rank(), p, (nz, ny, nx));
            let vals = block_values(start, count);
            let req = ds.iput_vara(v, &start, &count, &vals).unwrap();
            assert!(!req.is_null());
            assert_eq!(ds.num_pending(), 1);
            ds.wait_all().unwrap();
            assert_eq!(ds.num_pending(), 0);

            // Read back one z plane per rank through the nonblocking path.
            let zplane = c.rank() as u64 % nz;
            let rget = ds.iget_vara(v, &[zplane, 0, 0], &[1, ny, nx]).unwrap();
            ds.wait_all().unwrap();
            let plane: Vec<f32> = ds.take_result(rget).unwrap();
            for (i, &got) in plane.iter().enumerate() {
                let yy = i as u64 / nx;
                let xx = i as u64 % nx;
                assert_eq!(got, value(zplane, yy, xx), "partition {name}");
            }
            // A result can only be taken once.
            assert!(ds.take_result::<f32>(rget).is_err());
            ds.close().unwrap();
        });

        let bytes = pfs.open("p.nc").unwrap().to_bytes();
        let mut f =
            netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
        let v = f.var_id("tt").unwrap();
        let all: Vec<f32> = f.get_var(v).unwrap();
        let mut i = 0;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    assert_eq!(all[i], value(z, y, x), "partition {name} at ({z},{y},{x})");
                    i += 1;
                }
            }
        }
    }
}

/// The nonblocking path must produce the exact same file bytes as the
/// blocking path, for every partition and for a multi-variable file.
#[test]
fn nonblocking_file_is_byte_identical_to_blocking() {
    let (nz, ny, nx) = (4u64, 4, 8);
    let nprocs = 4usize;
    for (name, split) in PARTITIONS {
        let p = factors(nprocs, split);
        let mut images: Vec<Vec<u8>> = Vec::new();
        for nonblocking in [false, true] {
            let pfs = Pfs::new(cfg(), StorageMode::Full);
            let pfs2 = pfs.clone();
            run_world(nprocs, cfg(), move |c| {
                let mut ds =
                    Dataset::create(c, &pfs2, "b.nc", Version::Cdf1, &Info::new()).unwrap();
                let z = ds.def_dim("z", nz).unwrap();
                let y = ds.def_dim("y", ny).unwrap();
                let x = ds.def_dim("x", nx).unwrap();
                let vf = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
                let vd = ds.def_var("uu", NcType::Double, &[z, y, x]).unwrap();
                let vi = ds.def_var("marker", NcType::Int, &[z]).unwrap();
                ds.enddef().unwrap();

                let (start, count) = block(c.rank(), p, (nz, ny, nx));
                let vals = block_values(start, count);
                let dvals: Vec<f64> = vals.iter().map(|&v| v as f64 + 0.5).collect();
                if nonblocking {
                    // Queue all three variables, flush with ONE wait_all.
                    ds.iput_vara(vf, &start, &count, &vals).unwrap();
                    ds.iput_vara(vd, &start, &count, &dvals).unwrap();
                    ds.iput_var1(vi, &[c.rank() as u64 % nz], 7 + c.rank() as i32)
                        .unwrap();
                    ds.wait_all().unwrap();
                } else {
                    ds.put_vara_all(vf, &start, &count, &vals).unwrap();
                    ds.put_vara_all(vd, &start, &count, &dvals).unwrap();
                    ds.put_var1_all(vi, &[c.rank() as u64 % nz], 7 + c.rank() as i32)
                        .unwrap();
                }
                ds.close().unwrap();
            });
            images.push(pfs.open("b.nc").unwrap().to_bytes());
        }
        assert_eq!(
            images[0], images[1],
            "partition {name}: nonblocking file differs from blocking file"
        );
    }
}

/// How [`overlapping_queue_file`] issues its puts.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Issue {
    /// Blocking collective puts, in order: the reference.
    Blocking,
    /// Queued, one collective `wait_all`.
    WaitAll,
    /// Queued in independent mode, one `wait`.
    Wait,
}

/// Three overlapping puts per rank on a double and on a short variable,
/// each rank inside its own part of both (so request order alone decides
/// every overlap): the first put's tail is overwritten by the third, and so
/// is the second's head. The doubles begin at `4 mod 8` for one `lead` of
/// 1 and 2, and `cb_buffer_size=1003` cuts elements of both widths, so a
/// window's piece spans staged buffers and a staged buffer spans windows.
fn overlapping_queue_file(nprocs: usize, lead: usize, issue: Issue) -> Vec<u8> {
    const ND: u64 = 500;
    const NS: u64 = 667;
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs_in = pfs.clone();
    run_world(nprocs, cfg(), move |c| {
        let info = Info::new().with("cb_buffer_size", "1003");
        let mut ds = Dataset::create(c, &pfs_in, "q.nc", Version::Cdf1, &info).unwrap();
        for i in 0..lead {
            ds.def_var(&format!("lead{i}"), NcType::Int, &[]).unwrap();
        }
        let nd = ds.def_dim("nd", nprocs as u64 * ND).unwrap();
        let ns = ds.def_dim("ns", nprocs as u64 * NS).unwrap();
        let d = ds.def_var("d", NcType::Double, &[nd]).unwrap();
        let s = ds.def_var("s", NcType::Short, &[ns]).unwrap();
        ds.enddef().unwrap();
        if issue == Issue::Wait {
            ds.begin_indep_data().unwrap();
        }
        let r = c.rank() as u64;
        // (first element, count) inside a part `n` long, in request order.
        let spans = |n: u64| {
            [
                (0, n * 3 / 5),
                (n * 2 / 5, n - n * 2 / 5),
                (n / 5, n * 3 / 5),
            ]
        };
        for (k, (&(d0, dn), &(s0, sn))) in spans(ND).iter().zip(&spans(NS)).enumerate() {
            let dv: Vec<f64> = (0..dn)
                .map(|i| (k as u64 * 1000 + r * 100 + i) as f64 * 0.37)
                .collect();
            let sv: Vec<i16> = (0..sn)
                .map(|i| (k as u64 * 9000 + r * 700 + i) as i16)
                .collect();
            if issue == Issue::Blocking {
                ds.put_vara_all(d, &[r * ND + d0], &[dn], &dv).unwrap();
                ds.put_vara_all(s, &[r * NS + s0], &[sn], &sv).unwrap();
            } else {
                ds.iput_vara(d, &[r * ND + d0], &[dn], &dv).unwrap();
                ds.iput_vara(s, &[r * NS + s0], &[sn], &sv).unwrap();
            }
        }
        match issue {
            Issue::Blocking => {}
            Issue::WaitAll => ds.wait_all().unwrap(),
            Issue::Wait => {
                ds.wait().unwrap();
                ds.end_indep_data().unwrap();
            }
        }
        ds.close().unwrap();
    });
    pfs.open("q.nc").unwrap().to_bytes()
}

/// A queue of overlapping puts is lent to the flush as the slices of its
/// staged buffers that survive (later request wins), never merged: the file
/// must be the one the same puts leave issued blocking, in order — through
/// the collective flush at 2 and 3 ranks, and through the independent one,
/// which gathers the slices for the sieve.
#[test]
fn overlapping_queued_puts_leave_the_file_blocking_puts_leave() {
    for lead in [1, 2] {
        for (nprocs, issue) in [(2, Issue::WaitAll), (3, Issue::WaitAll), (1, Issue::Wait)] {
            let want = overlapping_queue_file(nprocs, lead, Issue::Blocking);
            let got = overlapping_queue_file(nprocs, lead, issue);
            assert!(
                got == want,
                "{nprocs} ranks, lead {lead}, {issue:?}: file differs from the blocking one"
            );
        }
    }
}

/// Record variables through the nonblocking path: queued record puts grow
/// `numrecs`, one `wait_all` reconciles it across ranks, and gaps fill as
/// zeros exactly as on the blocking path.
#[test]
fn record_variables_nonblocking_roundtrip() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(4, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "r.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let a = ds.def_var("a", NcType::Double, &[t, x]).unwrap();
        let b = ds.def_var("b", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();

        // Each rank queues two records of `a` and one of `b`; a single
        // wait_all writes all of them and reconciles numrecs.
        let r = c.rank() as u64;
        ds.iput_vara(a, &[r, 0], &[1, 4], &[r as f64; 4]).unwrap();
        ds.iput_vara(a, &[r + 4, 0], &[1, 4], &[(r + 4) as f64; 4])
            .unwrap();
        ds.iput_vara(b, &[r, 0], &[1, 4], &[r as i32; 4]).unwrap();
        assert_eq!(ds.num_pending(), 3);
        ds.wait_all().unwrap();
        assert_eq!(ds.numrecs(), 8);

        // Read everything back with queued gets drained by one wait_all.
        let ra = ds.iget_vara(a, &[0, 0], &[8, 4]).unwrap();
        let rb = ds.iget_vara(b, &[0, 0], &[4, 4]).unwrap();
        ds.wait_all().unwrap();
        let va: Vec<f64> = ds.take_result(ra).unwrap();
        for rec in 0..8u64 {
            assert_eq!(&va[rec as usize * 4..][..4], &[rec as f64; 4]);
        }
        let vb: Vec<i32> = ds.take_result(rb).unwrap();
        for rec in 0..4u64 {
            assert_eq!(&vb[rec as usize * 4..][..4], &[rec as i32; 4]);
        }
        ds.close().unwrap();
    });
}

/// Overlapping queued puts resolve in request order (last request wins),
/// and a get queued behind a put of the same region observes the new data.
#[test]
fn aggregation_orders_overlaps_and_write_before_read() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "o.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Base write, then an overlapping later write punching the middle,
        // then a get of the whole row — all in one batch.
        ds.iput_vara(v, &[0], &[8], &[1i32; 8]).unwrap();
        ds.iput_vara(v, &[2], &[4], &[9i32; 4]).unwrap();
        let rg = ds.iget_vara(v, &[0], &[8]).unwrap();
        ds.wait_all().unwrap();
        let got: Vec<i32> = ds.take_result(rg).unwrap();
        assert_eq!(got, vec![1, 1, 9, 9, 9, 9, 1, 1]);
        ds.close().unwrap();
    });
}

/// Strided, single-element, whole-variable and flexible variants queue and
/// complete; independent mode drains with `wait`.
#[test]
fn variant_coverage_and_independent_wait() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(2, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "v.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        let w = ds.def_var("w", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        // Strided: rank r writes elements r, r+2, r+4, r+6.
        let r = c.rank() as u64;
        ds.iput_vars(v, &[r], &[4], &[2], &[10 + r as i32; 4])
            .unwrap();
        // Flexible put of the whole of `w` from rank 0; rank 1 queues nothing
        // for it — wait_all still completes collectively.
        if c.rank() == 0 {
            let vals: Vec<i32> = (0..8).collect();
            let bytes: Vec<u8> = vals.iter().flat_map(|i| i.to_ne_bytes()).collect();
            let mem = Datatype::contiguous(8, Datatype::int());
            ds.iput_vara_flexible(w, &[0], &[8], &bytes, 1, &mem)
                .unwrap();
        }
        ds.wait_all().unwrap();

        let rv = ds.iget_vars(v, &[r], &[4], &[2]).unwrap();
        let rw = ds
            .iget_vara_flexible(w, &[0], &[8], 1, &Datatype::contiguous(8, Datatype::int()))
            .unwrap();
        let r1 = ds.iget_var1(v, &[r]).unwrap();
        ds.wait_all().unwrap();
        assert_eq!(ds.take_result::<i32>(rv).unwrap(), vec![10 + r as i32; 4]);
        let mut wbuf = [0u8; 32];
        ds.take_result_flexible(rw, &mut wbuf, 1, &Datatype::contiguous(8, Datatype::int()))
            .unwrap();
        let wvals: Vec<i32> = wbuf
            .chunks(4)
            .map(|c| i32::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(wvals, (0..8).collect::<Vec<i32>>());
        assert_eq!(ds.take_result::<i32>(r1).unwrap(), vec![10 + r as i32]);

        // Independent mode: queue a put and a whole-variable get, drain
        // with wait() — no collective round required.
        ds.begin_indep_data().unwrap();
        if c.rank() == 0 {
            ds.iput_var1(v, &[0], 99i32).unwrap();
            let rall = ds.iget_var(v).unwrap();
            ds.wait().unwrap();
            let all: Vec<i32> = ds.take_result(rall).unwrap();
            assert_eq!(all[0], 99);
        }
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
}

/// Mode transitions and header operations refuse while requests are
/// pending, and `close` flushes the queue instead of dropping it.
#[test]
fn pending_requests_guard_mode_changes_and_flush_on_close() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    let pfs2 = pfs.clone();
    run_world(2, cfg(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "g.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();

        let r = c.rank() as u64;
        ds.iput_vara(v, &[r * 2], &[2], &[r as i32 + 1; 2]).unwrap();
        // With a request pending, redef/sync/begin_indep_data all refuse.
        assert!(matches!(ds.redef(), Err(NcmpiError::InvalidArgument(_))));
        assert!(matches!(ds.sync(), Err(NcmpiError::InvalidArgument(_))));
        assert!(matches!(
            ds.begin_indep_data(),
            Err(NcmpiError::InvalidArgument(_))
        ));
        // Queueing in define mode is refused too (after draining).
        // close() flushes the still-pending put collectively.
        ds.close().unwrap();
    });
    let bytes = pfs.open("g.nc").unwrap().to_bytes();
    let mut f = netcdf_serial::NcFile::open(netcdf_serial::MemStore::from_bytes(bytes)).unwrap();
    let v = f.var_id("v").unwrap();
    let all: Vec<i32> = f.get_var(v).unwrap();
    assert_eq!(all, vec![1, 1, 2, 2], "close() must flush pending puts");
}

/// `iput_var` on a fixed variable whose length doesn't divide into whole
/// records reports `InvalidArgument` instead of silently truncating.
#[test]
fn whole_variable_length_mismatch_errors() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "w.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let x = ds.def_dim("x", 4).unwrap();
        let v = ds.def_var("v", NcType::Int, &[t, x]).unwrap();
        ds.enddef().unwrap();
        // 6 values is one and a half records.
        let err = ds.iput_var(v, &[0i32; 6]).unwrap_err();
        assert!(matches!(err, NcmpiError::InvalidArgument(_)));
        ds.close().unwrap();
    });
}

/// `take_result_flexible` must refuse a memory description that does not
/// hold exactly the bytes the get selected — as the blocking flexible get
/// does — instead of scattering a prefix and reporting success.
#[test]
fn take_result_flexible_refuses_a_mismatched_memory_description() {
    let pfs = Pfs::new(cfg(), StorageMode::Full);
    run_world(1, cfg(), |c| {
        let mut ds = Dataset::create(c, &pfs, "t.nc", Version::Cdf1, &Info::new()).unwrap();
        let x = ds.def_dim("x", 8).unwrap();
        let v = ds.def_var("v", NcType::Int, &[x]).unwrap();
        ds.enddef().unwrap();
        ds.put_vara_all(v, &[0], &[8], &[7i32; 8]).unwrap();

        // Four ints where the get selected eight: in a row, and strided.
        let whole = Datatype::contiguous(8, Datatype::int());
        let packed = Datatype::contiguous(4, Datatype::int());
        let strided = Datatype::vector(4, 1, 2, Datatype::int());
        for small in [packed, strided] {
            let req = ds.iget_vara_flexible(v, &[0], &[8], 1, &whole).unwrap();
            ds.wait_all().unwrap();
            let mut buf = [0u8; 32];
            let taken = ds.take_result_flexible(req, &mut buf, 1, &small);
            assert!(
                matches!(taken, Err(NcmpiError::InvalidArgument(_))),
                "{taken:?}"
            );
            assert_eq!(buf, [0u8; 32], "a refused take scattered bytes");
            let blocking = ds.get_vara_all_flexible(v, &[0], &[8], &mut buf, 1, &small);
            assert_eq!(taken, blocking, "the two doors refuse alike");
        }
        ds.close().unwrap();
    });
}
