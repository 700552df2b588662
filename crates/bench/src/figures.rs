//! The paper's two measured figures, and the two-phase pipelining sweep
//! that explains Figure 7's PnetCDF curves.

use flash_io::{FlashConfig, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::{critical_path, CriticalPath, Json};
use hpc_sim::{SimConfig, Time};
use pnetcdf::Info;
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::partition::{Partition, PARTITIONS};
use crate::report::check_coverage;
use crate::table::{Chart, Pin};
use crate::workload::{
    checkpoint, flash_run, flash_shape, mb_s, profile_entry, serial_tt, Access, Array3d,
    Array3dTimes,
};
use crate::{Outcome, Size};

/// Serial netCDF baseline: one process writes and reads the whole array
/// through the serial library over a single client NIC (Figure 6's first
/// column). Returns (write, read) times.
fn serial(dims: (u64, u64, u64)) -> (Time, Time) {
    let pfs = Pfs::new(SimConfig::sdsc_blue_horizon(), StorageMode::CostOnly);
    let (mut f, tt, watch) = serial_tt(pfs.create("tt.nc"), dims);
    let count = [dims.0, dims.1, dims.2];
    let vals = vec![1.0f32; (dims.0 * dims.1 * dims.2) as usize];
    let t0 = watch.now();
    f.put_vara(tt, &[0, 0, 0], &count, &vals).unwrap();
    let t_write = watch.now() - t0;
    drop(vals);
    let t1 = watch.now();
    drop(f.get_vara::<f32>(tt, &[0, 0, 0], &count).unwrap());
    (t_write, watch.now() - t1)
}

/// Figure 6: all four charts — read/write of the 64 MB and 1 GB `tt(Z,Y,X)`
/// — over the seven partitions of Figure 5, serial netCDF as the first
/// column, exactly as the paper plots it; then the client page cache on the
/// small-request independent pattern the collective charts avoid.
pub fn fig6(size: Size) -> Outcome {
    // 64 MB = 256^3 f32; 1 GB = 512x512x1024 f32.
    type Shape = (&'static str, (u64, u64, u64), &'static [usize]);
    let (shapes, cache_procs): ([Shape; 2], &[usize]) = match size {
        Size::Quick => (
            [
                ("64 MB", (128, 128, 128), &[1, 2, 4, 8]),
                ("1 GB", (256, 256, 256), &[1, 2, 4, 8]),
            ],
            &[2, 4],
        ),
        Size::Paper => (
            [
                ("64 MB", (256, 256, 256), &[1, 2, 4, 8, 16]),
                ("1 GB", (512, 512, 1024), &[1, 2, 4, 8, 16, 32]),
            ],
            &[2, 4, 8, 16],
        ),
    };
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    for (label, dims, procs) in shapes {
        let bytes = dims.0 * dims.1 * dims.2 * 4;
        let (serial_w, serial_r) = serial(dims);
        let mut xs = vec!["serial".to_string()];
        xs.extend(procs.iter().map(usize::to_string));
        let mut write = Chart::new(&format!("Write {label}"), "partition", &xs, "MB/s");
        let mut read = Chart::new(&format!("Read {label}"), "partition", &xs, "MB/s");
        for part in PARTITIONS {
            let (mut w, mut r) = (vec![mb_s(bytes, serial_w)], vec![mb_s(bytes, serial_r)]);
            for &p in procs {
                let run = Array3d {
                    read: true,
                    ..Array3d::sdsc(dims, part, p)
                };
                run.sim.profile.set_enabled(true);
                let t = run.run();
                w.push(mb_s(bytes, t.write));
                r.push(mb_s(bytes, t.read));
                let profile = run.sim.profile.snapshot().to_json(t.makespan.as_nanos());
                runs.push(profile_entry(format!("{label} {part:?} {p}"), profile));
            }
            write = write.series(&format!("{part:?}"), Pin::Collective, w);
            read = read.series(&format!("{part:?}"), Pin::Collective, r);
        }
        out.charts.extend([write, read]);
    }

    let dims = (64, 128, 128);
    let times = |cached: bool| {
        let run = |&p: &usize| Array3d {
            info: match cached {
                true => Info::new().with("pnc_cache", "enable"),
                false => Info::new(),
            },
            access: Access::IndependentRows,
            read: true,
            ..Array3d::sdsc(dims, Partition::Z, p)
        };
        cache_procs.iter().map(|p| run(p).run()).collect::<Vec<_>>()
    };
    let (uncached, cached) = (times(false), times(true));
    let row = |ts: &[Array3dTimes], phase: fn(&Array3dTimes) -> Time| {
        let cell = |t| mb_s(dims.0 * dims.1 * dims.2 * 4, phase(t));
        ts.iter().map(cell).collect::<Vec<f64>>()
    };
    let title = "Independent y-row write (4 MB)";
    out.charts.push(
        Chart::new(title, "mode", cache_procs, "MB/s")
            .above(&[
                "",
                "# Client page cache: independent y-row writes / plane reads",
            ])
            .series("uncached", Pin::Independent, row(&uncached, |t| t.write))
            .series("cached", Pin::Independent, row(&cached, |t| t.write))
            .hidden(
                "uncached read",
                Pin::Independent,
                row(&uncached, |t| t.read),
            )
            .hidden("cached read", Pin::Independent, row(&cached, |t| t.read)),
    );
    out.artifacts.push(("profile", Json::Arr(runs)));
    out.headed(&[
        "# Figure 6: serial vs parallel netCDF (SDSC Blue Horizon-like platform)",
        "# 12 I/O servers, 1.5 GB/s peak aggregate; bandwidth in MB/s (virtual time)",
    ])
}

/// A FLASH run on the Frost-like platform with the profile on, its phase
/// coverage asserted: every simulated nanosecond of the critical rank is
/// attributed to a phase, so the breakdown explains the makespan. Returns
/// the bandwidth in MB/s, the platform and the report.
fn profiled(config: FlashConfig, mode: WriteMode) -> (f64, SimConfig, Json) {
    let sim = SimConfig::asci_frost();
    sim.profile.set_enabled(true);
    let (res, _) = flash_run(&sim, config, mode, StorageMode::CostOnly);
    let profile = sim.profile.snapshot().to_json(res.time.as_nanos());
    check_coverage(&profile, 0.05);
    (res.bandwidth_mb_s, sim, profile)
}

/// `config` once more with request tracing on: every rank's spans must cover
/// its clock. Leaves the Chrome trace and the critical-path report in `out`
/// and returns the analysis that says which stage bounds each window.
fn traced(config: FlashConfig, mode: WriteMode, out: &mut Outcome) -> CriticalPath {
    let sim = SimConfig::asci_frost();
    sim.events.set_enabled(true);
    let (res, _) = flash_run(&sim, config, mode, StorageMode::CostOnly);
    let snap = sim.events.snapshot();
    for r in 0..config.nprocs {
        let cov = snap.rank_coverage(r, res.time.as_nanos());
        assert!(
            cov >= 0.95,
            "rank {r} trace spans cover {:.1}% of its wall clock (< 95%)",
            cov * 100.0
        );
    }
    let cp = critical_path(&snap);
    out.artifacts.push(("trace", snap.to_chrome()));
    out.artifacts.push(("critical_path", cp.to_json()));
    cp
}

/// Figure 7: {checkpoint, plotfile, plotfile with corners} x {8^3, 16^3}
/// blocks, PnetCDF vs HDF5, aggregate write bandwidth over processors; then
/// the checkpoint written the way FLASH emits it natively (independent
/// per-block puts) with and without the page cache, and the traced run.
pub fn fig7(size: Size) -> Outcome {
    let (blocks_per_proc, procs) = flash_shape(size, &[16, 32, 64, 128, 256]);
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    for nxb in [8u64, 16] {
        for kind in [
            OutputKind::Checkpoint,
            OutputKind::Plotfile,
            OutputKind::PlotfileCorners,
        ] {
            let mut procs = procs.to_vec();
            if size == Size::Paper && nxb == 8 && kind == OutputKind::PlotfileCorners {
                procs.push(512); // the one chart the paper plots 512 processors on
            }
            let title = format!("FLASH I/O {} ({nxb}x{nxb}x{nxb})", kind.label());
            let mut chart = Chart::new(&title, "library", &procs, "MB/s");
            for (lib, pin) in [
                (IoLibrary::Pnetcdf, Pin::Collective),
                (IoLibrary::Hdf5, Pin::Hdf5),
            ] {
                chart = chart.sweep(lib.label(), pin, &procs, |&nprocs| {
                    let config = FlashConfig {
                        nxb,
                        kind,
                        lib,
                        ..checkpoint(nprocs, blocks_per_proc)
                    };
                    let (mb_s, _, profile) = profiled(config, WriteMode::Collective);
                    runs.push(profile_entry(
                        format!("{title} {} {nprocs}", lib.label()),
                        profile,
                    ));
                    mb_s
                });
            }
            out.charts.push(chart);
        }
    }

    let plain = |p, mode| {
        let frost = SimConfig::asci_frost();
        let config = checkpoint(p, blocks_per_proc);
        flash_run(&frost, config, mode, StorageMode::CostOnly)
            .0
            .bandwidth_mb_s
    };
    let title = "FLASH I/O checkpoint (8x8x8), per-block independent puts";
    let chart = Chart::new(title, "mode", procs, "MB/s")
        .above(&[
            "",
            "# Client page cache: checkpoint 8x8x8, independent per-block puts",
        ])
        .sweep("collective", Pin::Collective, procs, |&p| {
            plain(p, WriteMode::Collective)
        })
        .sweep("indep uncached", Pin::Independent, procs, |&p| {
            plain(p, WriteMode::uncached())
        });
    let cached = chart.series[1]
        .values
        .iter()
        .zip(procs)
        .map(|(&uncached, &p)| {
            let (cached, sim, _) =
                profiled(checkpoint(p, blocks_per_proc), WriteMode::cached(8 << 20));
            let cc = sim.profile.cache_counters();
            assert!(cc.hits > 0, "cached run must hit its cache: {cc:?}");
            assert!(
                cc.write_behind_bytes > 0,
                "cached run must flush via write-behind: {cc:?}"
            );
            assert!(
                cached > uncached,
                "page cache must beat uncached per-block writes at {p} procs \
             ({cached:.1} vs {uncached:.1} MB/s)"
            );
            cached
        });
    let cached = cached.collect();

    let tp = procs.iter().copied().find(|&p| p >= 64);
    let tp = tp.unwrap_or(*procs.last().expect("procs nonempty"));
    let cp = traced(
        checkpoint(tp, blocks_per_proc),
        WriteMode::Collective,
        &mut out,
    );
    out.charts.push(
        chart
            .series("indep cached", Pin::Independent, cached)
            .note(&format!(
                "\n# Request tracing: checkpoint 8x8x8, {tp} procs, span recorder enabled\n{}",
                cp.render().trim_end()
            )),
    );
    out.artifacts.insert(0, ("profile", Json::Arr(runs)));
    out.headed(&[
        "# Figure 7: FLASH I/O benchmark (ASCI White Frost-like platform)",
        "# 2 GPFS I/O servers; aggregate bandwidth in MB/s (virtual time)",
        &format!("# blocks/proc = {blocks_per_proc}"),
    ])
}

/// The FLASH checkpoint (8^3 blocks, 8 per processor) at 16 and 64
/// processors with `cb_buffer_size` in {256 KiB, 1 MiB, 4 MiB} and the round
/// engine toggled by `pnc_cb_pipeline`: smaller buffers mean more rounds,
/// so more exchange time the pipeline can hide behind the disk. Then the
/// 64-processor pipelined run at the largest buffer with request tracing
/// on: rounds are few and fat there, so the windows must be disk-bound.
/// One shape for both sizes: it runs in under a second.
pub fn twophase(_: Size) -> Outcome {
    const BLOCKS_PER_PROC: u64 = 8;
    let buffers = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
    let xs = buffers.map(|b| format!("{}KiB", b / 1024));
    let mut out = Outcome::default();
    for nprocs in [16usize, 64] {
        let config = checkpoint(nprocs, BLOCKS_PER_PROC);
        let mut rows: [Vec<f64>; 5] = Default::default();
        for cb in buffers {
            let (serial, ..) = profiled(config, WriteMode::collective_hints(cb, false));
            let (pipelined, sim, _) = profiled(config, WriteMode::collective_hints(cb, true));
            let tp = sim.profile.twophase_counters();
            // Pipelining is not free (per-round collective latency, offset
            // exchange); allow it to trail serial by <1% where rounds are
            // few, but never more.
            assert!(
                pipelined >= serial * 0.99,
                "pipelined lost >1% to serial at {nprocs} procs, cb={cb} \
                 ({pipelined:.1} vs {serial:.1} MB/s)"
            );
            // At scale the dual-resource servers + server-affine domains
            // must genuinely win: one aggregator stream per server keeps
            // each NIC+disk pipeline full, so hand-off-acknowledged rounds
            // beat wait-for-durability rounds by well over 20%.
            assert!(
                nprocs != 64 || pipelined > serial * 1.2,
                "pipelined must beat serial by >1.2x at {nprocs} procs, cb={cb} \
                 ({pipelined:.1} vs {serial:.1} MB/s)"
            );
            let cells = [
                serial,
                pipelined,
                pipelined / serial,
                tp.pipelined_rounds as f64,
                tp.overlap_saved_nanos as f64,
            ];
            rows.iter_mut()
                .zip(cells)
                .for_each(|(row, cell)| row.push(cell));
        }
        let [serial, pipelined, speedup, rounds, saved] = rows;
        let title = format!("FLASH I/O checkpoint (8x8x8), {nprocs} procs");
        out.charts.push(
            Chart::new(&title, "engine", &xs, "MB/s")
                .series("serial", Pin::Collective, serial)
                .series("pipelined", Pin::Collective, pipelined)
                .hidden("speedup", Pin::Collective, speedup)
                .hidden("rounds", Pin::Collective, rounds)
                .hidden("overlap_saved_ns", Pin::Collective, saved),
        );
    }

    let cb = buffers[buffers.len() - 1];
    let mode = WriteMode::collective_hints(cb, true);
    let cp = traced(checkpoint(64, BLOCKS_PER_PROC), mode, &mut out);
    assert!(
        !cp.windows.is_empty(),
        "traced run must produce collective windows"
    );
    assert_eq!(
        cp.dominant,
        Some("disk"),
        "large cb_buffer windows must be disk-bound: {:?}",
        cp.bound_counts
    );
    let last = out.charts.pop().expect("two charts").note(&format!(
        "\n# Request tracing: 64 procs, cb={}KiB, pipelined\n{}",
        cb / 1024,
        cp.render().trim_end()
    ));
    out.charts.push(last);
    out.headed(&[
        "# Two-phase pipelining sweep: FLASH checkpoint 8x8x8, Frost platform",
        "# blocks/proc = 8; aggregate bandwidth in MB/s (virtual time)",
    ])
}
