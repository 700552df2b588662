//! Experiments beyond the paper's figures: what its text leaves as future
//! work or removed from the benchmark, this repository's extensions of the
//! library, and the shared service cluster.

use flash_io::readers::run_restart;
use flash_io::writers::pnetcdf as flash_writer;
use flash_io::{run_flash_io, BlockMesh, FlashConfig, IoLibrary, OutputKind};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{MetaShardStats, Pfs, StorageMode};

use crate::service::{run_fleet, SessionResult};
use crate::table::Part::{List, Num};
use crate::table::{fmt_bytes, Chart, Pin};
use crate::workload::{checkpoint, flash_shape, mb_s, profile_entry};
use crate::{Outcome, Size};

/// The attribute writes the paper's benchmark port removed (section 5.2:
/// "removed the part of code writing attributes"), put back: four
/// attributes per unknown plus file-level scalars, for both libraries.
/// (The paper's shape takes 15 s in a release build; hence a quick one.)
pub fn attributes(size: Size) -> Outcome {
    let (blocks_per_proc, procs) = flash_shape(size, &[16, 64, 256]);
    let bw = |lib, attributes| {
        move |&p: &usize| {
            let config = FlashConfig {
                lib,
                attributes,
                ..checkpoint(p, blocks_per_proc)
            };
            run_flash_io(config, SimConfig::asci_frost(), StorageMode::CostOnly).bandwidth_mb_s
        }
    };
    let title = "Checkpoint bandwidth with and without attributes";
    let chart = Chart::new(title, "config", procs, "MB/s")
        .above(&[
            "# Extension: restoring the benchmark's attribute writes",
            &format!("# 8x8x8 checkpoint, {blocks_per_proc} blocks/proc, Frost-like platform"),
        ])
        .sweep(
            "PnetCDF",
            Pin::Collective,
            procs,
            bw(IoLibrary::Pnetcdf, false),
        )
        .sweep(
            "PnetCDF +attrs",
            Pin::Collective,
            procs,
            bw(IoLibrary::Pnetcdf, true),
        )
        .sweep("HDF5", Pin::Hdf5, procs, bw(IoLibrary::Hdf5, false))
        .sweep("HDF5 +attrs", Pin::Hdf5, procs, bw(IoLibrary::Hdf5, true));
    let lost = |base, with| chart.zip(base, with, |b, w| (1.0 - w / b) * 100.0);
    let lost = vec![
        "bandwidth lost to attributes: PnetCDF ".into(),
        List(lost("PnetCDF", "PnetCDF +attrs"), 1),
        " %, HDF5 ".into(),
        List(lost("HDF5", "HDF5 +attrs"), 1),
        " %".into(),
    ];
    chart
        .note("")
        .line(Pin::Hdf5, lost)
        .note(
            "(the paper removed attribute writes to isolate data I/O; restoring\n \
             them costs PnetCDF almost nothing — they ride in the one header —\n \
             while HDF5 pays a metadata write + sync per attribute)",
        )
        .into()
}

/// FLASH restart (paper section 6, future work): a checkpoint written with
/// each library and read back, timing the read. The paper conjectures that
/// "without the additional synchronization of writes the \[read\]
/// performance is more comparable".
pub fn flash_read(size: Size) -> Outcome {
    let (blocks_per_proc, procs) = flash_shape(size, &[16, 32, 64, 128, 256]);
    let bw = |lib| {
        move |&nprocs: &usize| {
            let mesh = BlockMesh {
                nxb: 8,
                blocks_per_proc,
                nprocs,
            };
            let sim = SimConfig::asci_frost();
            let (bytes, t) = run_restart(lib, mesh, sim, StorageMode::MetadataOnly);
            mb_s(bytes, t)
        }
    };
    let chart = Chart::new("FLASH restart read bandwidth", "library", procs, "MB/s")
        .above(&[
            "# Extension: FLASH restart (checkpoint read-back), Frost-like platform",
            &format!("# blocks/proc = {blocks_per_proc}, 8x8x8 blocks, 24 unknowns f64"),
        ])
        .sweep("PnetCDF", Pin::Collective, procs, bw(IoLibrary::Pnetcdf))
        .sweep("HDF5", Pin::Hdf5, procs, bw(IoLibrary::Hdf5));
    let ratio = chart.zip("PnetCDF", "HDF5", |p, h| p / h);
    chart
        .note("")
        .line(
            Pin::Hdf5,
            vec!["PnetCDF/HDF5 read ratio: ".into(), List(ratio, 2)],
        )
        .note("(compare with the write ratios from fig7_flashio)")
        .into()
}

/// Nonblocking `iput_vara` + one `wait_all` on the FLASH checkpoint: the
/// blocking port issues one collective round per variable (~29), the
/// nonblocking one merges every request into a single sorted run list and
/// one collective write. Asserts >= 1.3x at 64 processors and the
/// byte-identity of the two files on a small, fully stored run. One shape
/// for both sizes (1.6 s in a release build).
pub fn nonblocking(_: Size) -> Outcome {
    // One checkpoint on a fresh file system: bytes written, makespan, and
    // the file system.
    let write = |sim: &SimConfig, storage, mesh: BlockMesh, aggregate: bool| {
        let pfs = Pfs::new(sim.clone(), storage);
        let run = run_world(mesh.nprocs, sim.clone(), |comm| {
            let port = match aggregate {
                true => flash_writer::write,
                false => flash_writer::write_blocking,
            };
            port(comm, &pfs, &mesh, OutputKind::Checkpoint, "ckpt").unwrap()
        });
        (run.results[0], run.makespan, pfs)
    };
    let procs = [16usize, 32, 64];
    let mut runs = Vec::new();
    let mut bw = |aggregate: bool| {
        let cell = |&nprocs: &usize| {
            let sim = SimConfig::asci_frost();
            sim.profile.set_enabled(true);
            let mesh = BlockMesh {
                nxb: 8,
                blocks_per_proc: 80,
                nprocs,
            };
            let (bytes, makespan, _) = write(&sim, StorageMode::CostOnly, mesh, aggregate);
            let profile = sim.profile.snapshot().to_json(makespan.as_nanos());
            let path = if aggregate { "aggregated" } else { "blocking" };
            runs.push(profile_entry(format!("{path} {nprocs}"), profile));
            mb_s(bytes, makespan)
        };
        procs.iter().map(cell).collect::<Vec<f64>>()
    };
    let chart = Chart::new("FLASH checkpoint write bandwidth", "path", &procs, "MB/s")
        .above(&[
            "# Extension: nonblocking iput/wait_all aggregation (FLASH checkpoint, 8^3 blocks)",
            "# one collective round per file vs one per variable (~29)",
        ])
        .series("blocking", Pin::Collective, bw(false))
        .series("aggregated", Pin::Collective, bw(true));
    let ratio = chart.zip("aggregated", "blocking", |a, b| a / b)[2];

    // The same checkpoint both ways on a small fully stored file system.
    let image = |aggregate: bool| {
        let mesh = BlockMesh {
            nxb: 8,
            blocks_per_proc: 2,
            nprocs: 4,
        };
        let (.., pfs) = write(&SimConfig::test_small(), StorageMode::Full, mesh, aggregate);
        pfs.open("ckpt").unwrap().to_bytes()
    };
    let (blocking, aggregated) = (image(false), image(true));
    assert!(
        blocking == aggregated,
        "aggregated checkpoint must match blocking byte-for-byte"
    );
    assert!(
        ratio >= 1.3,
        "aggregation speedup {ratio:.2}x below the 1.3x target"
    );
    let ratio = vec![
        "aggregated/blocking at 64 procs: ".into(),
        Num(ratio, 2),
        "x (target >= 1.30x)".into(),
    ];
    let identity = format!(
        "byte-identity (4 procs, full storage): IDENTICAL ({} bytes)",
        blocking.len()
    );
    Outcome {
        charts: vec![chart.note("").line(Pin::Collective, ratio).note(&identity)],
        artifacts: vec![("profile", Json::Arr(runs))],
    }
}

/// The `nc_prefetch_vars` hint (paper section 4.1): "applications that pull
/// a small amount of data from a large number of separate netCDF files,
/// this type of optimization could be a big win." P ranks sweep over many
/// files reading two small variables of each repeatedly; with the hint each
/// is fetched once at open and every further read is local.
pub fn prefetch(_: Size) -> Outcome {
    const NFILES: usize = 24; // e.g. two years of monthly files
    const NREADS: usize = 20; // passes over each variable per file
    let file = |fi: usize| format!("month_{fi:02}.nc");
    let sdsc = SimConfig::sdsc_blue_horizon;
    let make_files = |pfs: &Pfs, nprocs: usize| {
        run_world(nprocs, sdsc(), |c| {
            for fi in 0..NFILES {
                let info = Info::new();
                let mut ds = Dataset::create(c, pfs, &file(fi), Version::Cdf1, &info).unwrap();
                let x = ds.def_dim("station", 512).unwrap();
                let t2m = ds.def_var("t2m_mean", NcType::Float, &[x]).unwrap();
                let precip = ds.def_var("precip_total", NcType::Float, &[x]).unwrap();
                // Plus a large variable the post-processor does not touch.
                let y = ds.def_dim("gridpoints", 1 << 18).unwrap();
                let full = ds.def_var("full_field", NcType::Float, &[y]).unwrap();
                ds.enddef().unwrap();
                let (rank, slab, gslab) = (c.rank() as u64, 512 / nprocs, (1 << 18) / nprocs);
                let vals = vec![1.0f32; slab];
                let (s, slab) = (rank * slab as u64, slab as u64);
                ds.put_vara_all(t2m, &[s], &[slab], &vals).unwrap();
                ds.put_vara_all(precip, &[s], &[slab], &vals).unwrap();
                let zeros = vec![0.0f32; gslab];
                ds.put_vara_all(full, &[rank * gslab as u64], &[gslab as u64], &zeros)
                    .unwrap();
                ds.close().unwrap();
            }
        });
    };
    // Milliseconds for one sweep over all files.
    let sweep = |pfs: &Pfs, nprocs: usize, hint: bool| {
        pfs.reset_timing();
        let info = match hint {
            true => Info::new().with("nc_prefetch_vars", "t2m_mean,precip_total"),
            false => Info::new(),
        };
        let run = run_world(nprocs, sdsc(), |c| {
            let t0 = c.now();
            for fi in 0..NFILES {
                let mut ds = Dataset::open(c, pfs, &file(fi), true, &info).unwrap();
                let t2m = ds.inq_varid("t2m_mean").unwrap();
                let precip = ds.inq_varid("precip_total").unwrap();
                for _ in 0..NREADS {
                    let _: Vec<f32> = ds.get_vara_all(t2m, &[0], &[512]).unwrap();
                    let _: Vec<f32> = ds.get_vara_all(precip, &[0], &[512]).unwrap();
                }
                ds.close().unwrap();
            }
            c.now() - t0
        });
        run.results.into_iter().max().unwrap().as_secs_f64() * 1e3
    };
    let procs = [1usize, 2, 4, 8];
    let (mut without, mut with_hint) = (Vec::new(), Vec::new());
    for p in procs {
        let pfs = Pfs::new(sdsc(), StorageMode::Full);
        make_files(&pfs, p);
        without.push(sweep(&pfs, p, false));
        with_hint.push(sweep(&pfs, p, true));
    }
    let chart = Chart::new("Sweep time over all files", "config", &procs, "ms")
        .above(&[
            "# Extension: nc_prefetch_vars hint",
            "# 24 files, 2 small variables each, 20 read passes per file",
        ])
        .series("no hint", Pin::Collective, without)
        .series("prefetch", Pin::Collective, with_hint);
    let speedup = chart.zip("no hint", "prefetch", |a, b| a / b);
    chart
        .note("")
        .line(
            Pin::Collective,
            vec!["speedup with hint: ".into(), List(speedup, 1)],
        )
        .into()
}

/// 64 concurrent client sessions — FLASH-style checkpoint writers and
/// strided analytics readers, each on a *different* netCDF dataset — on one
/// shared 8-server cluster: aggregate and per-session throughput, the
/// cross-file contention on the servers, and the proof that the schedule is
/// deterministic: a second run on a fresh cluster reproduces every
/// session's byte count and final clock (which the goldens pin as well).
/// One shape for both sizes.
pub fn service(_: Size) -> Outcome {
    // 64 sessions, 8 shared datasets, 6 steps of 8192 doubles (64 KiB records).
    let one_run = |profile: bool| {
        let mut cfg = SimConfig::sdsc_blue_horizon();
        cfg.io_servers = 8;
        cfg.profile.set_enabled(profile);
        let (run, cluster) = run_fleet(&cfg, 64, 8, 6, 8192);
        (run, cluster, cfg)
    };
    let (run, cluster, cfg) = one_run(true);
    let ndatasets = cluster.meta().len();
    assert!(
        ndatasets >= 16,
        "expected >= 16 datasets on the cluster, found {ndatasets}"
    );
    let profile = cfg.profile.snapshot();
    let cross_total: u64 = profile
        .servers
        .iter()
        .map(|s| s.cross_file_stall_nanos)
        .sum();
    assert!(
        cross_total > 0,
        "64 sessions over shared servers produced no cross-file contention"
    );
    // Determinism: fresh cluster, same seed, identical everything.
    let (run2, ..) = one_run(false);
    assert_eq!(
        run.aggregate_bytes, run2.aggregate_bytes,
        "aggregate bytes differ across identical runs"
    );
    for (a, b) in run.sessions.iter().zip(&run2.sessions) {
        assert_eq!(
            (a.id, a.bytes, a.end),
            (b.id, b.bytes, b.end),
            "session {} not deterministic",
            a.id
        );
    }

    let ids: Vec<usize> = run.sessions.iter().map(|s| s.id).collect();
    let per_session = |f: fn(&SessionResult) -> f64| run.sessions.iter().map(f).collect();
    let moved = format!(
        "  aggregate: {} over {} -> ",
        fmt_bytes(run.aggregate_bytes),
        run.makespan
    );
    let aggregate = vec![
        moved.as_str().into(),
        Num(run.aggregate_mb_s(), 1),
        " MB/s (best single session ".into(),
        Num(run.max_session_mb_s(), 1),
        " MB/s)".into(),
    ];
    let stall = vec![
        "  cross-file stall: ".into(),
        Num(cross_total as f64 / 1e9, 3),
        " s summed over 8 servers; deterministic across reruns".into(),
    ];
    let chart = Chart::new("Sessions", "session", &ids, "")
        .above(&[
            "# Service cluster: 64 sessions (32 writers / 32 readers), 8 servers, 8 shared datasets",
        ])
        .hidden("bytes", Pin::OneRank, per_session(|s| s.bytes as f64))
        .hidden("end ns", Pin::OneRank, per_session(|s| s.end.as_nanos() as f64))
        .hidden("MB/s", Pin::OneRank, per_session(|s| s.mb_s()))
        .line(Pin::OneRank, aggregate)
        .line(Pin::OneRank, stall)
        .note("service bench OK");
    let shards = cluster.meta().stats();
    let per_shard = |f: fn(&MetaShardStats) -> u64| shards.iter().map(|s| f(s) as f64).collect();
    let shards = Chart::new(
        "Metadata shards",
        "shard",
        &Vec::from_iter(0..shards.len()),
        "",
    )
    .hidden("creates", Pin::OneRank, per_shard(|s| s.creates))
    .hidden("opens", Pin::OneRank, per_shard(|s| s.opens))
    .hidden("files", Pin::OneRank, per_shard(|s| s.files));
    Outcome {
        charts: vec![chart, shards],
        artifacts: vec![("profile", profile.to_json(run.makespan.as_nanos()))],
    }
}
