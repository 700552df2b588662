//! Ablations of the design decisions the paper's text argues for. Each has
//! one shape for both sizes: all six together run in about two seconds.

use hdf5_sim::{H5File, H5Type};
use hpc_sim::{SimConfig, Time};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::{run_world, Comm};
use pnetcdf_mpio::{MpiFile, OpenMode};
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::partition::Partition;
use crate::table::Part::{List, Num};
use crate::table::{Chart, Pin};
use crate::workload::{mb_s, serial_tt, Access, Array3d};
use crate::{Outcome, Size};

/// `body` on `nprocs` ranks of the SDSC-like platform over a fresh
/// cost-only file system; the latest of the times the ranks return.
fn on_sdsc(nprocs: usize, body: impl Fn(&mut Comm, &Pfs) -> Time + Sync) -> Time {
    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg.clone(), StorageMode::CostOnly);
    let run = run_world(nprocs, cfg, |comm| body(comm, &pfs));
    run.results.into_iter().max().expect("at least one rank")
}

const TAG_DATA: i32 = 77;
/// Every rank's block in the access-strategy ablation: 8 z-planes of
/// 128x128 f32 (4 MB); the array grows with P.
const PLANES: (u64, u64, u64) = (8, 128, 128);
const PLANES_COUNT: [u64; 3] = [PLANES.0, PLANES.1, PLANES.2];

/// Figure 2 (a): ship everything to rank 0, which writes with the serial
/// library.
fn via_rank0(nprocs: usize) -> Time {
    on_sdsc(nprocs, |comm, pfs| {
        let mine = vec![1.0f32; (PLANES.0 * PLANES.1 * PLANES.2) as usize];
        let t0 = comm.now();
        if comm.rank() == 0 {
            let dims = (PLANES.0 * nprocs as u64, PLANES.1, PLANES.2);
            let (mut f, tt, mut watch) = serial_tt(pfs.create("a.nc"), dims);
            // Rank 0's own block, then everyone else's as they arrive: a
            // serial write starts after its data is there.
            f.put_vara(tt, &[0, 0, 0], &PLANES_COUNT, &mine).unwrap();
            for _ in 1..comm.size() {
                let (data, st) = comm
                    .recv_scalars::<f32>(pnetcdf_mpi::ANY_SOURCE, TAG_DATA)
                    .unwrap();
                watch.set_now(watch.now().max(comm.now()));
                let start = [st.source as u64 * PLANES.0, 0, 0];
                f.put_vara(tt, &start, &PLANES_COUNT, &data).unwrap();
            }
            drop(f);
            comm.advance_to(watch.now());
        } else {
            comm.send_scalars(0, TAG_DATA, &mine).unwrap();
        }
        comm.barrier().unwrap();
        comm.now() - t0
    })
}

/// Figure 2 (b): one file per process with the serial library.
fn file_per_process(nprocs: usize) -> Time {
    on_sdsc(nprocs, |comm, pfs| {
        let mine = vec![1.0f32; (PLANES.0 * PLANES.1 * PLANES.2) as usize];
        let t0 = comm.now();
        let file = pfs.create(&format!("b_{}.nc", comm.rank()));
        let (mut f, tt, watch) = serial_tt(file, PLANES);
        f.put_vara(tt, &[0, 0, 0], &PLANES_COUNT, &mine).unwrap();
        drop(f);
        comm.advance_to(watch.now());
        comm.barrier().unwrap();
        comm.now() - t0
    })
}

/// Figure 2 (c): all ranks write one shared file collectively; create to
/// close.
fn one_shared_file(nprocs: usize) -> Time {
    let dims = (PLANES.0 * nprocs as u64, PLANES.1, PLANES.2);
    Array3d::sdsc(dims, Partition::Z, nprocs).run().makespan
}

/// The three approaches to netCDF in a parallel program (paper Figure 2):
/// (a) bottlenecks and its cost grows with P, (b) is fast but shatters the
/// dataset, (c) keeps one file at (near-)parallel speed.
pub fn access_strategy(_: Size) -> Outcome {
    let procs = [2usize, 4, 8, 16];
    let bw = |strategy: fn(usize) -> Time| {
        move |&p: &usize| mb_s(PLANES.0 * p as u64 * PLANES.1 * PLANES.2 * 4, strategy(p))
    };
    Chart::new("Access strategy bandwidth", "strategy", &procs, "MB/s")
        .above(&[
            "# Ablation: the three access strategies of Figure 2",
            "# per-rank block: 8 z-planes of 128x128 f32 (4 MB); total grows with P",
        ])
        .sweep("(a) via rank 0", Pin::PosixBeside, &procs, bw(via_rank0))
        .sweep(
            "(b) file/proc",
            Pin::PosixBeside,
            &procs,
            bw(file_per_process),
        )
        .sweep("(c) PnetCDF", Pin::Collective, &procs, bw(one_shared_file))
        .note(
            "\nnote: (b) writes P separate files — fast but the dataset is shattered;\n      \
             (c) matches or approaches (b) while keeping one self-describing file.",
        )
        .into()
}

/// File-system block alignment of independent writes: the same volume as
/// per-rank, rank-interleaved records of an aligned size (256 KiB) and of a
/// misaligned one (257 KiB) — "pad your record size to the block size".
pub fn alignment(_: Size) -> Outcome {
    const RECORDS_PER_RANK: usize = 16;
    let procs = [2usize, 4, 8];
    let bw = |rec: usize| {
        move |&p: &usize| {
            let t = on_sdsc(p, |comm, pfs| {
                let f = MpiFile::open(comm, pfs, "rec.dat", OpenMode::Create, &Info::new());
                let f = f.unwrap();
                let data = vec![0u8; rec];
                let t0 = comm.now();
                for i in 0..RECORDS_PER_RANK {
                    // Record i of rank r lives at slot (i * nprocs + r).
                    let slot = (i * comm.size() + comm.rank()) as u64;
                    let run = (slot * rec as u64, rec as u64);
                    f.write_runs_at(&[run], &data).unwrap();
                }
                comm.barrier().unwrap();
                comm.now() - t0
            });
            mb_s((p * RECORDS_PER_RANK * rec) as u64, t)
        }
    };
    let (aligned, misaligned) = ("256 KiB (aligned)", "257 KiB (misaligned)");
    let chart = Chart::new("Independent write bandwidth", "record size", &procs, "MB/s")
        .above(&[
            "# Ablation: stripe alignment of independent record writes",
            "# 16 records/rank, rank-interleaved, SDSC-like platform (256 KiB stripes)",
        ])
        .sweep(aligned, Pin::Independent, &procs, bw(256 * 1024))
        .sweep(misaligned, Pin::Independent, &procs, bw(256 * 1024 + 1024));
    let loss = chart.zip(aligned, misaligned, |a, m| (1.0 - m / a) * 100.0);
    let loss = vec!["misalignment loss: ".into(), List(loss, 1), " %".into()];
    chart
        .note("")
        .line(Pin::Independent, loss)
        .note(
            "(each misaligned record write read-modify-writes two stripes;\n \
             collective I/O avoids this by aligning its file domains)",
        )
        .into()
}

/// Collective vs independent data mode: the same Y-partitioned
/// (noncontiguous) write through `put_vara_all` (two-phase collective I/O)
/// and through independent `put_vara` (data sieving per rank).
pub fn collective(_: Size) -> Outcome {
    let dims = (128, 128, 256); // 16 MB f32
    let procs = [2usize, 4, 8, 16];
    let bw = |access| {
        move |&p: &usize| {
            let run = Array3d {
                access,
                ..Array3d::sdsc(dims, Partition::Y, p)
            };
            mb_s(dims.0 * dims.1 * dims.2 * 4, run.run().write)
        }
    };
    let chart = Chart::new("Collective vs independent write", "mode", &procs, "MB/s")
        .above(&[
            "# Ablation: collective (two-phase) vs independent (sieved) writes",
            "# 16 MB tt(Z,Y,X) f32, Y partition, SDSC-like platform",
        ])
        .sweep(
            "collective",
            Pin::Collective,
            &procs,
            bw(Access::Collective),
        )
        .sweep(
            "independent",
            Pin::Independent,
            &procs,
            bw(Access::Independent),
        );
    let speedup = chart.zip("collective", "independent", |c, i| c / i);
    let speedup = vec![
        "speedup (collective / independent): ".into(),
        List(speedup, 1),
    ];
    chart.note("").line(Pin::Independent, speedup).into()
}

/// Where HDF5's FLASH deficit comes from: a fixed volume in a variable
/// number of datasets. PnetCDF defines all variables in one header and pays
/// one `enddef`; HDF5-sim pays a collective create + metadata sync +
/// collective close per dataset.
pub fn hdf5_overheads(_: Size) -> Outcome {
    const TOTAL_ELEMS: u64 = 1 << 21; // 16 MiB of f64 in total
    const NPROCS: usize = 16;
    let counts = [1usize, 2, 4, 8, 16, 32, 64];
    let bw = |hdf5: bool| {
        move |&ndatasets: &usize| {
            let cfg = SimConfig::asci_frost();
            let pfs = Pfs::new(cfg.clone(), StorageMode::CostOnly);
            let per = TOTAL_ELEMS / ndatasets as u64;
            let slab = per / NPROCS as u64;
            let run = run_world(NPROCS, cfg, |comm| {
                let t0 = comm.now();
                let vals = vec![1.0f64; slab as usize];
                let start = [comm.rank() as u64 * slab];
                let name = |i: usize| format!("v{i}");
                if hdf5 {
                    let mut f = H5File::create(comm, &pfs, "h.h5", &Info::new()).unwrap();
                    for i in 0..ndatasets {
                        let mut d = f.create_dataset(&name(i), H5Type::F64, &[per]).unwrap();
                        d.write_all(&mut f, &start, &[slab], &vals).unwrap();
                        d.close(&mut f).unwrap();
                    }
                    f.close().unwrap();
                } else {
                    let info = Info::new();
                    let mut ds = Dataset::create(comm, &pfs, "p.nc", Version::Cdf2, &info).unwrap();
                    let d = ds.def_dim("n", per).unwrap();
                    let var = |i| ds.def_var(&name(i), NcType::Double, &[d]).unwrap();
                    let ids: Vec<usize> = (0..ndatasets).map(var).collect();
                    ds.enddef().unwrap();
                    for v in ids {
                        ds.put_vara_all(v, &start, &[slab], &vals).unwrap();
                    }
                    ds.close().unwrap();
                }
                comm.now() - t0
            });
            mb_s(TOTAL_ELEMS * 8, run.results.into_iter().max().unwrap())
        }
    };
    let title = "Bandwidth vs number of datasets (fixed volume)";
    let chart = Chart::new(title, "library", &counts, "MB/s")
        .above(&["# Ablation: per-dataset overhead decomposition (16 MiB total, 16 procs)"])
        .sweep("PnetCDF", Pin::Collective, &counts, bw(false))
        .sweep("HDF5", Pin::Hdf5, &counts, bw(true));
    let ratio = chart.zip("PnetCDF", "HDF5", |p, h| p / h);
    let ratio = vec![
        "PnetCDF/HDF5 ratio by dataset count: ".into(),
        List(ratio, 2),
    ];
    chart
        .note("")
        .line(Pin::Hdf5, ratio)
        .note("(FLASH writes 29 datasets per checkpoint — read the ratio there.)")
        .into()
}

/// Header I/O strategy (paper section 4.2.1): "let the root process fetch
/// the file header, broadcast it to all processes when opening a file"
/// against every rank reading the header from the file itself. With P ranks
/// hammering one small region the naive way serialises on the I/O servers;
/// the broadcast costs log(P) network latencies.
pub fn header(_: Size) -> Outcome {
    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // A realistically fat header: many variables and attributes.
    let made = run_world(1, cfg.clone(), |comm| {
        let mut ds = Dataset::create(comm, &pfs, "hdr.nc", Version::Cdf1, &Info::new()).unwrap();
        let t = ds.def_dim("time", 0).unwrap();
        let y = ds.def_dim("y", 64).unwrap();
        let x = ds.def_dim("x", 64).unwrap();
        for i in 0..50 {
            let name = format!("variable_{i:03}");
            let v = ds.def_var(&name, NcType::Float, &[t, y, x]).unwrap();
            ds.put_vatt_text(v, "units", "kelvin").unwrap();
            ds.put_vatt_text(v, "long_name", "a reasonably descriptive variable name")
                .unwrap();
        }
        ds.enddef().unwrap();
        let size = ds.layout().data_start;
        ds.close().unwrap();
        size
    });
    let header_len = made.results[0];
    // PnetCDF's strategy — rank 0 reads, broadcast — is `Dataset::open`.
    let bcast = |comm: &mut Comm| {
        let t0 = comm.now();
        let ds = Dataset::open(comm, &pfs, "hdr.nc", true, &Info::new()).unwrap();
        let t = comm.now() - t0;
        ds.close().unwrap();
        t
    };
    let all_read = |comm: &mut Comm| {
        let t0 = comm.now();
        let f = MpiFile::open(comm, &pfs, "hdr.nc", OpenMode::ReadOnly, &Info::new()).unwrap();
        let mut buf = vec![0u8; header_len as usize];
        f.read_runs_into(&[(0, header_len)], &mut buf).unwrap();
        let (header, _) = pnetcdf_format::Header::decode(&buf).unwrap();
        assert_eq!(header.vars.len(), 50);
        comm.barrier().unwrap();
        comm.now() - t0
    };
    let procs = [1usize, 2, 4, 8, 16, 32];
    let ms = |open: &(dyn Fn(&mut Comm) -> Time + Sync)| {
        let cell = |&p: &usize| {
            pfs.reset_timing();
            let run = run_world(p, cfg.clone(), open);
            run.results.into_iter().max().unwrap().as_secs_f64() * 1e3
        };
        procs.iter().map(cell).collect::<Vec<f64>>()
    };
    let above = format!("# Ablation: header I/O strategy (50-variable header, {header_len} bytes)");
    Chart::new("Dataset open latency", "strategy", &procs, "ms")
        .above(&[&above])
        .series("rank0+bcast", Pin::Collective, ms(&bcast))
        .series("all-ranks-read", Pin::Symmetric, ms(&all_read))
        .note(
            "\nPnetCDF uses rank0+bcast; every define/inquiry after open is then\n\
             a pure local-memory operation on the cached header copy.",
        )
        .into()
}

/// MPI-IO hint tuning through the PnetCDF -> MPI-IO hint path: a 16 MB
/// YX-partitioned collective write on 8 processes under `cb_buffer_size`
/// and `cb_nodes` sweeps, and with two-phase I/O switched off.
pub fn hints(_: Size) -> Outcome {
    let dims = (64, 256, 256);
    let bw = |info: Info| {
        let run = Array3d {
            info,
            ..Array3d::sdsc(dims, Partition::YX, 8)
        };
        mb_s(dims.0 * dims.1 * dims.2 * 4, run.run().write)
    };
    let sweep = |hint: &'static str| move |value: &&str| bw(Info::new().with(hint, value));
    let sizes = ["262144", "1048576", "4194304", "16777216"];
    let kib = sizes.map(|s| format!("{}K", s.parse::<usize>().expect("a size") / 1024));
    let nodes = ["1", "2", "4", "8", "12"];
    let off = Info::new()
        .with("romio_cb_write", "disable")
        .with("romio_ds_write", "disable");
    let on_off = vec![
        "two-phase enabled: ".into(),
        Num(bw(Info::new()), 1),
        " MB/s; disabled (per-rank strided writes): ".into(),
        Num(bw(off), 1),
        " MB/s".into(),
    ];
    let charts = vec![
        Chart::new("cb_buffer_size sweep", "hint", &kib, "MB/s")
            .above(&["# Ablation: ROMIO hint sweeps (16 MB YX-partitioned write, 8 procs)"])
            .sweep("write bw", Pin::Collective, &sizes, sweep("cb_buffer_size")),
        Chart::new("cb_nodes sweep", "hint", &nodes, "MB/s")
            .sweep("write bw", Pin::Collective, &nodes, sweep("cb_nodes"))
            .note("")
            .line(Pin::Independent, on_off),
    ];
    Outcome {
        charts,
        ..Outcome::default()
    }
}
