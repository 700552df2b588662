//! Layer probes: each times one public entry of one crate on the
//! workload's own data (its header, its largest access, its block), so a
//! per-layer number means the same workload as the end-to-end one.

use std::time::Instant;

use hpc_sim::SimConfig;
use netcdf_serial::NcFile;
use pnetcdf::{Dataset, Datatype, NcType, Version};
use pnetcdf_format::{swap, Header};
use pnetcdf_mpi::{flatten_n, pack, run_world};
use pnetcdf_pfs::{Pfs, PosixSim, StorageMode};

use crate::replay::{Access, FileImage, Plan};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{Inputs, Spec, Workload};

/// Median seconds of `reps` calls of `f`.
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The access of rank 0 that moves the most bytes: the X block, a plane,
/// or one unknown's blocks.
fn largest_access(plan: &Plan) -> &Access {
    let bytes = |a: &Access| -> u64 {
        let var = &plan.files[a.file].header.vars[a.var];
        a.count.iter().product::<u64>() * var.nctype.size()
    };
    plan.accesses[0]
        .iter()
        .max_by_key(|a| bytes(a))
        .expect("every workload makes a data call")
}

fn element(nctype: NcType) -> Datatype {
    match nctype {
        NcType::Double => Datatype::double(),
        NcType::Float => Datatype::float(),
        NcType::Int => Datatype::int(),
        _ => Datatype::byte(),
    }
}

pub fn run(rep: &mut Report, spec: &Spec, inputs: &Inputs, plan: &Plan, reps: usize) {
    let w = spec.workload;
    let img = &plan.files[0];
    format_probes(rep, plan, reps);
    mpi_probes(rep, plan, reps);
    core_probe(rep, spec, img, reps);

    let cfg = || w.config();
    let spawn = time_s(10 * reps, || {
        run_world(w.ranks(), cfg(), |_| ());
    });
    rep.value("mpi.world_spawn_us", spawn * 1e6);
    let create = time_s(10 * reps, || {
        let pfs = Pfs::new(cfg(), StorageMode::Full);
        std::hint::black_box(pfs.create("probe.nc"));
    });
    rep.value("pfs.create_us", create * 1e6);

    if w == Workload::FlashCkpt {
        // The writer fills the mesh on every call; generating the inputs
        // was one pass of exactly that.
        rep.value("flashio.mesh_fill_ms", inputs.gen_s * 1e3);
        for name in [
            "serial.host_write_mb_s",
            "serial.host_read_mb_s",
            "serial.sim_write_mb_s",
            "serial.sim_read_mb_s",
            "host.single_copy_write_mb_s",
        ] {
            // Array baselines; FLASH has many typed variables.
            rep.value(name, 0.0);
        }
    } else {
        rep.value("flashio.mesh_fill_ms", 0.0);
        serial_baseline(rep, spec, img, reps.min(3));
        single_copy_writer(rep, spec, inputs, plan, reps.min(3));
    }
}

fn format_probes(rep: &mut Report, plan: &Plan, reps: usize) {
    let img = &plan.files[0];
    let big = largest_access(plan);
    let width = plan.files[big.file].header.vars[big.var].nctype.size() as usize;

    // One rank's block, as the external bytes L0 wrote for it.
    let block: Vec<u8> = big
        .runs(&plan.files)
        .iter()
        .flat_map(|&(off, len)| &plan.files[big.file].bytes[off as usize..(off + len) as usize])
        .copied()
        .collect();
    let s = time_s(reps, || {
        std::hint::black_box(swap::swap_to_vec(std::hint::black_box(&block), width));
    });
    rep.value("format.swap_gb_s", block.len() as f64 / s / 1e9);

    let encoded = img.header.encode();
    let enc = time_s(40 * reps, || {
        std::hint::black_box(img.header.encode());
    });
    let dec = time_s(40 * reps, || {
        std::hint::black_box(Header::decode(std::hint::black_box(&encoded)).is_ok());
    });
    rep.value("format.header_encode_us", enc * 1e6);
    rep.value("format.header_decode_us", dec * 1e6);

    // Every data call of rank 0, lowered to byte runs again.
    let mut runs = 0;
    let s = time_s(reps, || {
        runs = plan.accesses[0]
            .iter()
            .map(|a| std::hint::black_box(a.runs(&plan.files)).len())
            .sum();
    });
    rep.value(
        "format.access_runs_ns_per_run",
        s * 1e9 / runs.max(1) as f64,
    );
}

fn mpi_probes(rep: &mut Report, plan: &Plan, reps: usize) {
    let big = largest_access(plan);
    let img = &plan.files[big.file];
    let var = &img.header.vars[big.var];
    let shape = img.header.var_shape(big.var);
    let dtype = Datatype::subarray(&shape, &big.count, &big.start, element(var.nctype))
        .expect("an access L0 made fits its variable");
    let mut segs = 0;
    let s = time_s(4 * reps, || {
        segs = std::hint::black_box(flatten_n(&dtype, 1)).len();
    });
    rep.value("mpi.flatten_ns_per_seg", s * 1e9 / segs.max(1) as f64);

    // Gather the access out of the whole variable, as a flexible put
    // from a noncontiguous user buffer would.
    let whole = &img.bytes[var.begin as usize..(var.begin + var.vsize) as usize];
    let width = var.nctype.size() as usize;
    let mut packed = 0;
    let s = time_s(reps, || {
        let out = pack::pack_with(whole, 1, &dtype, width, |src, dst| dst.copy_from_slice(src));
        packed = std::hint::black_box(out).map_or(0, |v| v.len());
    });
    rep.value("mpi.pack_gb_s", packed as f64 / s / 1e9);

    // The in-process runtime between two ranks, whatever the workload's
    // rank count: host cost of a barrier and of moving bytes.
    const PART: usize = 1 << 20;
    let rounds = 4 * reps;
    let run = run_world(2, SimConfig::sdsc_blue_horizon(), |comm| {
        let t = Instant::now();
        for _ in 0..100 * rounds {
            comm.barrier().expect("barrier");
        }
        let barrier_s = t.elapsed().as_secs_f64() / (100 * rounds) as f64;
        let t = Instant::now();
        for _ in 0..rounds {
            let parts = vec![vec![comm.rank() as u8; PART]; comm.size()];
            std::hint::black_box(comm.alltoallv_bytes(parts).expect("alltoallv"));
        }
        (barrier_s, t.elapsed().as_secs_f64())
    });
    let barrier = run.results.iter().map(|r| r.0).fold(0.0, f64::max);
    let a2a = run.results.iter().map(|r| r.1).fold(0.0, f64::max);
    rep.value("mpi.barrier_us", barrier * 1e6);
    rep.value(
        "mpi.alltoallv_gb_s",
        (rounds * 2 * 2 * PART) as f64 / a2a / 1e9,
    );
}

/// Define, close, open and close a dataset with the workload's own header
/// through the `Dataset` API, at the workload's rank count.
fn core_probe(rep: &mut Report, spec: &Spec, img: &FileImage, reps: usize) {
    let w = spec.workload;
    let (mut define, mut open, mut close) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..4 * reps {
        let cfg = w.config();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let run = run_world(w.ranks(), cfg, |comm| -> Result<[f64; 3], String> {
            let e = |e: pnetcdf::NcmpiError| e.to_string();
            let t0 = Instant::now();
            let mut ds =
                Dataset::create(comm, &pfs, "probe.nc", Version::Cdf2, &w.info()).map_err(e)?;
            for d in &img.header.dims {
                ds.def_dim(&d.name, d.len).map_err(e)?;
            }
            for v in &img.header.vars {
                ds.def_var(&v.name, v.nctype, &v.dimids).map_err(e)?;
            }
            ds.enddef().map_err(e)?;
            let t1 = Instant::now();
            ds.close().map_err(e)?;
            let t2 = Instant::now();
            let ds = Dataset::open(comm, &pfs, "probe.nc", true, &w.info()).map_err(e)?;
            let t3 = Instant::now();
            ds.close().map_err(e)?;
            Ok([t1 - t0, t3 - t2, t2 - t1].map(|d| d.as_secs_f64()))
        });
        let ok: Vec<[f64; 3]> = run.results.into_iter().filter_map(Result::ok).collect();
        rep.ops(
            w.ranks() as u64,
            (w.ranks() - ok.len()) as u64,
            "core probe call failed",
        );
        let slowest = |i: usize| ok.iter().map(|r| r[i]).fold(0.0, f64::max);
        define.push(slowest(0));
        open.push(slowest(1));
        close.push(slowest(2));
    }
    rep.value("core.define_us", median(&define) * 1e6);
    rep.value("core.open_us", median(&open) * 1e6);
    rep.value("core.close_us", median(&close) * 1e6);
}

/// The whole array through `netcdf-serial` on one `PosixSim`: the plain
/// single-threaded baseline (Fig. 6's first column).
fn serial_baseline(rep: &mut Report, spec: &Spec, img: &FileImage, reps: usize) {
    let Some(tt) = img.header.var_id("tt") else {
        return rep.ops(1, 1, "serial baseline: no tt");
    };
    let var = &img.header.vars[tt];
    let vals: Vec<f32> = img.bytes[var.begin as usize..(var.begin + var.vsize) as usize]
        .chunks_exact(4)
        .map(|b| f32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let dims = spec.dims;
    let bytes = vals.len() as f64 * 4.0;
    let (mut hw, mut hr, mut sw, mut sr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let pfs = Pfs::new(spec.workload.config(), StorageMode::Full);
        let posix = PosixSim::new(pfs.create("serial.nc"));
        let clock = posix.clone(); // clones share the virtual clock
        let mut f = NcFile::create(posix, Version::Cdf2);
        let defined = (|| {
            let z = f.def_dim("level", dims[0])?;
            let y = f.def_dim("latitude", dims[1])?;
            let x = f.def_dim("longitude", dims[2])?;
            let tt = f.def_var("tt", NcType::Float, &[z, y, x])?;
            f.enddef()?;
            Ok::<usize, netcdf_serial::NcError>(tt)
        })();
        let Ok(tt) = defined else {
            return rep.ops(1, 1, "serial baseline: define failed");
        };
        let (h0, s0) = (Instant::now(), clock.now());
        let put = f.put_vara(tt, &[0, 0, 0], &dims, &vals);
        let (h1, s1) = (Instant::now(), clock.now());
        let got = f.get_vara::<f32>(tt, &[0, 0, 0], &dims);
        let (h2, s2) = (Instant::now(), clock.now());
        let good = put.is_ok() && got.is_ok_and(|g| g == vals);
        rep.ops(2, u64::from(!good), "serial baseline read-back differs");
        hw.push(bytes / (h1 - h0).as_secs_f64() / 1e6);
        hr.push(bytes / (h2 - h1).as_secs_f64() / 1e6);
        sw.push(bytes / (s1 - s0).as_secs_f64() / 1e6);
        sr.push(bytes / (s2 - s1).as_secs_f64() / 1e6);
    }
    rep.value("serial.host_write_mb_s", median(&hw));
    rep.value("serial.host_read_mb_s", median(&hr));
    rep.value("serial.sim_write_mb_s", median(&sw));
    rep.value("serial.sim_read_mb_s", median(&sr));
}

/// The benchmark-owned ideal writer: swap every element of every rank's
/// buffer straight into a flat file image, one copy, no layers. What the
/// library's host write rate is read against.
fn single_copy_writer(rep: &mut Report, spec: &Spec, inputs: &Inputs, plan: &Plan, reps: usize) {
    let img = &plan.files[0];
    let mut image = Vec::new();
    let s = time_s(reps, || {
        image = vec![0u8; img.bytes.len()];
        image[..img.data_start].copy_from_slice(&img.bytes[..img.data_start]);
        for (rank, files) in plan.writes.iter().enumerate() {
            let mut src = inputs.blocks[rank].iter();
            for &(off, len) in files.iter().flat_map(|fo| &fo.ops).flat_map(|op| &op.runs) {
                let dst = &mut image[off as usize..(off + len) as usize];
                for (d, v) in dst.chunks_exact_mut(4).zip(&mut src) {
                    d.copy_from_slice(&v.to_be_bytes());
                }
            }
        }
    });
    rep.ops(
        1,
        u64::from(image != img.bytes),
        "single-copy writer's image differs",
    );
    let (wbytes, _) = crate::workload::payload_bytes(spec);
    // One pass writes the array once, however many passes L0 makes.
    let once = wbytes
        / if spec.workload.is_indep() {
            spec.passes
        } else {
            1
        };
    rep.value("host.single_copy_write_mb_s", once as f64 / s / 1e6);
}
