//! The four workloads and what one timed iteration of each does (layer
//! L0: the `Dataset` calls an application makes).
//!
//! Every iteration is the same fixed work: fresh `Pfs` → create / define /
//! enddef → write → close → open → read → close. Shapes are constants;
//! only payload *values* come from the seed. All four are closed loops
//! (a rank issues its next call when the previous returns) and the client
//! count is the rank count.

use std::fmt::Display;
use std::time::Instant;

use flash_io::{BlockMesh, OutputKind};
use hpc_sim::SimConfig;
use netcdf_serial::NcFile;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::{run_world, Comm};
use pnetcdf_pfs::{Pfs, PosixSim, StorageMode};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Coll3dX,
    FlashCkpt,
    IndepRows,
    IndepRowsCached,
}

pub const ALL: [Workload; 4] = [
    Workload::Coll3dX,
    Workload::FlashCkpt,
    Workload::IndepRows,
    Workload::IndepRowsCached,
];

/// The FLASH output files of one step, in the order they are written.
const FLASH_KINDS: [(OutputKind, &str); 3] = [
    (OutputKind::Checkpoint, "ckpt"),
    (OutputKind::Plotfile, "plot"),
    (OutputKind::PlotfileCorners, "corners"),
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Coll3dX => "coll3d_x",
            Workload::FlashCkpt => "flash_ckpt",
            Workload::IndepRows => "indep_rows",
            Workload::IndepRowsCached => "indep_rows_cached",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the set (one line; the long form is in
    /// README.md).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Coll3dX => {
                "Fig. 6 collective 64 MiB array, X partition: swap, flatten/pack, two-phase \
                 exchange and stripe memcpy do the work; per-request overhead and the cache none"
            }
            Workload::FlashCkpt => {
                "Fig. 7 FLASH checkpoint+plotfiles+restart: many variables through iput/wait_all \
                 merging, header codec and collectives per byte; noncontiguous exchange idle"
            }
            Workload::IndepRows => {
                "262144 independent 512 B puts, 1024 plane gets, no hints: per-request overhead \
                 of core lowering, sieve path and server accounting; two-phase idle"
            }
            Workload::IndepRowsCached => {
                "same calls as indep_rows with pnc_cache=enable: the page cache does the work, \
                 so a gain on one clock that costs the other shows"
            }
        }
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::Coll3dX | Workload::FlashCkpt => 2,
            // One rank: independent-path virtual time is not deterministic
            // in multi-rank worlds (ROADMAP open item 1).
            Workload::IndepRows | Workload::IndepRowsCached => 1,
        }
    }

    pub fn config(self) -> SimConfig {
        match self {
            Workload::FlashCkpt => SimConfig::asci_frost(),
            _ => SimConfig::sdsc_blue_horizon(),
        }
    }

    pub fn is_indep(self) -> bool {
        matches!(self, Workload::IndepRows | Workload::IndepRowsCached)
    }

    /// Hints passed to `create`/`open`.
    pub fn info(self) -> Info {
        match self {
            // Defaults: 8 MiB budget, stripe-sized (256 KiB) pages,
            // readahead 2, so the 32 MiB working set is 4x the cache.
            Workload::IndepRowsCached => Info::new().with("pnc_cache", "enable"),
            _ => Info::new(),
        }
    }
}

/// The sizes of a workload. `full` is the benchmark; tests use `tiny`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// `tt(z, y, x)` f32 for the three array workloads.
    pub dims: [u64; 3],
    /// `indep_*`: how often the whole array is written row by row, then
    /// read plane by plane.
    pub passes: u64,
    /// `flash_ckpt`: the mesh, the number of output steps, and how often
    /// the checkpoints are then read back (a restart, then a reader of the
    /// same files).
    pub mesh: BlockMesh,
    pub steps: u64,
    pub restarts: u64,
}

impl Spec {
    pub fn full(workload: Workload) -> Spec {
        let ranks = workload.ranks();
        Spec {
            workload,
            dims: match workload {
                Workload::Coll3dX => [128, 256, 512],
                _ => [256, 256, 128],
            },
            passes: 4,
            mesh: BlockMesh {
                nxb: 8,
                blocks_per_proc: 80,
                nprocs: ranks,
            },
            // Six steps, not the issue's three: three take 0.12 s on the
            // reference host and an iteration must take at least 0.2 s.
            steps: 6,
            // Twice: one pass over the six checkpoints is a 40 ms phase,
            // too short for `host_read_mb_s` to repeat between runs.
            restarts: 2,
        }
    }

    /// `--quick`: the same calls on the same layers at a quarter of the
    /// work, so the smoke run checks the machinery in seconds. Its numbers
    /// are not the benchmark's.
    pub fn quick(workload: Workload) -> Spec {
        Spec {
            dims: match workload {
                Workload::Coll3dX => [32, 256, 512],
                _ => [256, 256, 128],
            },
            passes: 1,
            steps: 2,
            restarts: 1,
            ..Spec::full(workload)
        }
    }

    #[cfg(test)]
    pub fn tiny(workload: Workload) -> Spec {
        Spec {
            dims: match workload {
                Workload::Coll3dX => [4, 6, 16],
                // Planes of 48 KiB over 256 KiB pages: the cache sees
                // hits, misses and, with 1.5 MiB in all, no eviction.
                _ => [32, 96, 128],
            },
            passes: 2,
            mesh: BlockMesh {
                nxb: 4,
                blocks_per_proc: 3,
                nprocs: workload.ranks(),
            },
            steps: 2,
            ..Spec::full(workload)
        }
    }

    pub fn elems(&self) -> usize {
        self.dims.iter().product::<u64>() as usize
    }

    /// `(start, count)` of `rank`'s block under the X partition (the
    /// least contiguous of Fig. 5: one run per (z, y) row).
    pub fn x_block(&self, rank: usize) -> ([u64; 3], [u64; 3]) {
        let [z, y, x] = self.dims;
        let per = x / self.workload.ranks() as u64;
        ([0, 0, rank as u64 * per], [z, y, per])
    }

    /// Names of the FLASH files of `step`.
    pub fn flash_files(step: u64) -> [(OutputKind, String); 3] {
        FLASH_KINDS.map(|(kind, stem)| (kind, format!("{stem}_{step}.nc")))
    }
}

/// Seeded payload values. `blocks[rank]` is that rank's user buffer: its X
/// block for `coll3d_x`, the whole array for `indep_*`. FLASH generates
/// its own mesh values inside the writer (`BlockMesh::interior_buffer`), so
/// the seed does not reach them.
pub struct Inputs {
    pub blocks: Vec<Vec<f32>>,
    /// Host seconds spent generating (FLASH: one pass of the mesh fill the
    /// writer repeats on every call).
    pub gen_s: f64,
}

/// splitmix64: tiny, seedable, and good enough to make buffers that do not
/// compress to a constant.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let t0 = Instant::now();
        let blocks = match spec.workload {
            Workload::FlashCkpt => {
                for rank in 0..spec.mesh.nprocs {
                    for var in 0..flash_io::mesh::NUNK {
                        std::hint::black_box(spec.mesh.interior_buffer(rank, var, spec.mesh.nxb));
                    }
                }
                Vec::new()
            }
            w => {
                let ranks = w.ranks();
                let per = spec.elems() / ranks;
                (0..ranks)
                    .map(|rank| {
                        let mut s = seed ^ ((rank as u64 + 1) << 56);
                        // 24 random bits: finite, distinct, exact in f32.
                        (0..per)
                            .map(|_| (splitmix(&mut s) >> 40) as f32 / 256.0)
                            .collect()
                    })
                    .collect()
            }
        };
        Inputs {
            blocks,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Counts API calls; turns the first `Err` into the iteration's failure.
pub struct Ops(pub u64);

impl Ops {
    pub fn ok<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Result<T, String> {
        self.0 += 1;
        r.map_err(|e| format!("{what}: {e}"))
    }
}

/// What tracing the library itself does during an iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tracing {
    /// `cfg.profile.set_enabled(true)`: phase timers and counters.
    pub profile: bool,
    /// `cfg.events.set_enabled(true)`: the span recorder behind
    /// `pnc_trace_events=enable`.
    pub events: bool,
}

/// Per-rank host and virtual clock readings of one iteration, at any
/// layer of the replay.
pub struct RankTimes {
    pub setup_end: Instant,
    pub write: (Instant, Instant),
    pub read: (Instant, Instant),
    pub sim_write_ns: u64,
    pub sim_read_ns: u64,
    /// `coll3d_x` at L0: the block read back, checked after the clock stops.
    pub back: Vec<f32>,
    /// Calls (FLASH) or passes (`indep_*`) inside the two phases, for the
    /// span file. One span per 512 B put would cost more than the put.
    pub marks: Vec<Mark>,
}

/// `(name, start, end)` of one call or pass inside a phase.
pub type Mark = (&'static str, Instant, Instant);

/// The ranks' readings folded into what one iteration reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    pub setup_s: f64,
    pub host_write_s: f64,
    pub host_read_s: f64,
    pub host_iter_s: f64,
    /// Max over ranks of the virtual time of each phase.
    pub sim_write_ns: u64,
    pub sim_read_ns: u64,
    pub makespan_ns: u64,
}

impl PhaseTimes {
    /// Host phases run from the first rank entering to the last rank
    /// leaving (every rank enters from a barrier); set-up runs from `t0`
    /// to the last rank finishing `enddef`.
    pub fn fold(
        ranks: &[RankTimes],
        t0: Instant,
        host_iter_s: f64,
        makespan_ns: u64,
    ) -> PhaseTimes {
        let span = |pick: fn(&RankTimes) -> (Instant, Instant)| {
            let start = ranks.iter().map(|r| pick(r).0).min();
            let end = ranks.iter().map(|r| pick(r).1).max();
            match (start, end) {
                (Some(s), Some(e)) => (e - s).as_secs_f64(),
                _ => 0.0,
            }
        };
        PhaseTimes {
            setup_s: ranks
                .iter()
                .map(|r| (r.setup_end - t0).as_secs_f64())
                .fold(0.0, f64::max),
            host_write_s: span(|r| r.write),
            host_read_s: span(|r| r.read),
            host_iter_s,
            sim_write_ns: ranks.iter().map(|r| r.sim_write_ns).max().unwrap_or(0),
            sim_read_ns: ranks.iter().map(|r| r.sim_read_ns).max().unwrap_or(0),
            makespan_ns,
        }
    }
}

/// One finished iteration, at L0 or replayed at L1.
pub struct Outcome {
    pub times: PhaseTimes,
    /// From before the file system exists to after the world is joined.
    pub whole: (Instant, Instant),
    pub attempted: u64,
    pub failed: u64,
    /// First error message, if any call failed.
    pub error: Option<String>,
    /// The file system the iteration left behind, for the checks.
    pub pfs: Pfs,
    pub cfg: SimConfig,
    /// Per-rank readings, for the checks and the span file.
    pub ranks: Vec<RankTimes>,
}

impl Outcome {
    /// Count this iteration's API calls, and its failed ones, in `rep`.
    pub fn tally(&self, rep: &mut crate::report::Report) {
        let why = self.error.as_deref().unwrap_or("API call failed");
        rep.ops(self.attempted, self.failed, why);
    }

    /// Fold a finished world into an outcome. `t0` is when the iteration
    /// started, before its file system was made.
    pub fn collect(
        t0: Instant,
        run: pnetcdf_mpi::WorldRun<(u64, Result<RankTimes, String>)>,
        pfs: Pfs,
        cfg: SimConfig,
    ) -> Outcome {
        let end = Instant::now();
        let makespan_ns = run.makespan.as_nanos();
        let attempted = run.results.iter().map(|r| r.0).sum();
        let (mut ranks, mut failed, mut error) = (Vec::new(), 0, None);
        for (_, res) in run.results {
            match res {
                Ok(r) => ranks.push(r),
                Err(e) => {
                    failed += 1;
                    error.get_or_insert(e);
                }
            }
        }
        Outcome {
            times: PhaseTimes::fold(&ranks, t0, (end - t0).as_secs_f64(), makespan_ns),
            whole: (t0, end),
            attempted,
            failed,
            error,
            pfs,
            cfg,
            ranks,
        }
    }
}

/// Payload bytes one iteration writes and reads.
pub fn payload_bytes(spec: &Spec) -> (u64, u64) {
    match spec.workload {
        Workload::Coll3dX => {
            let b = spec.elems() as u64 * 4;
            (b, b)
        }
        Workload::FlashCkpt => {
            let m = &spec.mesh;
            let tot = m.total_blocks();
            let meta = tot * (4 + 4 + 24 + 24 + 48);
            let cells = m.cells_per_block();
            let ckpt = meta + tot * cells * flash_io::mesh::NUNK as u64 * 8;
            let plot = meta + tot * cells * flash_io::mesh::NPLOT as u64 * 4;
            let corners =
                meta + tot * m.corner_cells_per_block() * flash_io::mesh::NPLOT as u64 * 4;
            // Restart reads lrefine, coordinates and the 24 unknowns.
            let restart = tot * (4 + 24) + tot * cells * flash_io::mesh::NUNK as u64 * 8;
            (
                spec.steps * (ckpt + plot + corners),
                spec.restarts * spec.steps * restart,
            )
        }
        _ => {
            let b = spec.passes * spec.elems() as u64 * 4;
            (b, b)
        }
    }
}

/// Define `tt(level, latitude, longitude)` on a fresh dataset.
fn create_tt(
    ops: &mut Ops,
    comm: &Comm,
    pfs: &Pfs,
    spec: &Spec,
) -> Result<(Dataset, usize), String> {
    let info = spec.workload.info();
    let mut ds = ops.ok(
        "create",
        Dataset::create(comm, pfs, "tt.nc", Version::Cdf2, &info),
    )?;
    let z = ops.ok("def_dim", ds.def_dim("level", spec.dims[0]))?;
    let y = ops.ok("def_dim", ds.def_dim("latitude", spec.dims[1]))?;
    let x = ops.ok("def_dim", ds.def_dim("longitude", spec.dims[2]))?;
    let tt = ops.ok("def_var", ds.def_var("tt", NcType::Float, &[z, y, x]))?;
    ops.ok("enddef", ds.enddef())?;
    Ok((ds, tt))
}

fn rank_body(
    comm: &mut Comm,
    pfs: &Pfs,
    spec: &Spec,
    inputs: &Inputs,
    ops: &mut Ops,
) -> Result<RankTimes, String> {
    let rank = comm.rank();
    let sim = |c: &Comm| c.now().as_nanos();
    match spec.workload {
        Workload::Coll3dX => {
            let (mut ds, tt) = create_tt(ops, comm, pfs, spec)?;
            let setup_end = Instant::now();
            let (start, count) = spec.x_block(rank);
            ops.ok("barrier", comm.barrier())?;
            let (h0, s0) = (Instant::now(), sim(comm));
            ops.ok(
                "put_vara_all",
                ds.put_vara_all(tt, &start, &count, &inputs.blocks[rank]),
            )?;
            let (s1, h1) = (sim(comm), Instant::now());
            ops.ok("close", ds.close())?;
            let info = spec.workload.info();
            let mut ds = ops.ok("open", Dataset::open(comm, pfs, "tt.nc", true, &info))?;
            ops.ok("barrier", comm.barrier())?;
            let (h2, s2) = (Instant::now(), sim(comm));
            let back: Vec<f32> = ops.ok("get_vara_all", ds.get_vara_all(tt, &start, &count))?;
            let (s3, h3) = (sim(comm), Instant::now());
            ops.ok("close", ds.close())?;
            Ok(RankTimes {
                setup_end,
                write: (h0, h1),
                read: (h2, h3),
                sim_write_ns: s1 - s0,
                sim_read_ns: s3 - s2,
                back,
                marks: Vec::new(),
            })
        }
        Workload::FlashCkpt => {
            // Set-up ends here, before any define: the FLASH writer does
            // its own create / def_* / enddef inside `write`, 18 times per
            // iteration, so they are part of the write phase. What a
            // define of this header costs alone is `core.define_us`.
            let setup_end = Instant::now();
            let mut marks = Vec::new();
            ops.ok("barrier", comm.barrier())?;
            let (h0, s0) = (Instant::now(), sim(comm));
            for step in 0..spec.steps {
                for (kind, path) in Spec::flash_files(step) {
                    let t = Instant::now();
                    ops.ok(
                        "flash write",
                        flash_io::writers::pnetcdf::write(comm, pfs, &spec.mesh, kind, &path),
                    )?;
                    marks.push(("flash_write", t, Instant::now()));
                }
            }
            let (s1, h1) = (sim(comm), Instant::now());
            ops.ok("barrier", comm.barrier())?;
            let (h2, s2) = (Instant::now(), sim(comm));
            for _ in 0..spec.restarts {
                for step in 0..spec.steps {
                    let path = &Spec::flash_files(step)[0].1;
                    let t = Instant::now();
                    ops.ok(
                        "flash restart",
                        flash_io::readers::read_pnetcdf(comm, pfs, &spec.mesh, path),
                    )?;
                    marks.push(("flash_restart", t, Instant::now()));
                }
            }
            let (s3, h3) = (sim(comm), Instant::now());
            Ok(RankTimes {
                setup_end,
                write: (h0, h1),
                read: (h2, h3),
                sim_write_ns: s1 - s0,
                sim_read_ns: s3 - s2,
                back: Vec::new(),
                marks,
            })
        }
        Workload::IndepRows | Workload::IndepRowsCached => {
            let (mut ds, tt) = create_tt(ops, comm, pfs, spec)?;
            let setup_end = Instant::now();
            let [nz, ny, nx] = spec.dims;
            let array = &inputs.blocks[0];
            let mut marks = Vec::new();
            ops.ok("begin_indep_data", ds.begin_indep_data())?;
            let (h0, s0) = (Instant::now(), sim(comm));
            for _ in 0..spec.passes {
                let t = Instant::now();
                for (i, row) in array.chunks_exact(nx as usize).enumerate() {
                    let (z, y) = (i as u64 / ny, i as u64 % ny);
                    ops.ok("put_vara", ds.put_vara(tt, &[z, y, 0], &[1, 1, nx], row))?;
                }
                marks.push(("put_pass", t, Instant::now()));
            }
            // Leaving independent mode flushes the cache's write-behind
            // pages: that is part of what the writes cost.
            ops.ok("end_indep_data", ds.end_indep_data())?;
            let (s1, h1) = (sim(comm), Instant::now());
            ops.ok("close", ds.close())?;
            let info = spec.workload.info();
            let mut ds = ops.ok("open", Dataset::open(comm, pfs, "tt.nc", true, &info))?;
            ops.ok("begin_indep_data", ds.begin_indep_data())?;
            let (h2, s2) = (Instant::now(), sim(comm));
            for _ in 0..spec.passes {
                let t = Instant::now();
                for z in 0..nz {
                    let plane: Vec<f32> =
                        ops.ok("get_vara", ds.get_vara(tt, &[z, 0, 0], &[1, ny, nx]))?;
                    std::hint::black_box(&plane);
                }
                marks.push(("get_pass", t, Instant::now()));
            }
            ops.ok("end_indep_data", ds.end_indep_data())?;
            let (s3, h3) = (sim(comm), Instant::now());
            ops.ok("close", ds.close())?;
            Ok(RankTimes {
                setup_end,
                write: (h0, h1),
                read: (h2, h3),
                sim_write_ns: s1 - s0,
                sim_read_ns: s3 - s2,
                back: Vec::new(),
                marks,
            })
        }
    }
}

/// Run one iteration at layer L0.
pub fn run_iteration(spec: &Spec, inputs: &Inputs, tracing: Tracing) -> Outcome {
    let t0 = Instant::now();
    let cfg = spec.workload.config();
    cfg.profile.set_enabled(tracing.profile);
    cfg.events.set_enabled(tracing.events);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(spec.workload.ranks(), cfg.clone(), |comm| {
        let mut ops = Ops(0);
        let res = rank_body(comm, &pfs, spec, inputs, &mut ops);
        (ops.0, res)
    });
    Outcome::collect(t0, run, pfs, cfg)
}

/// `true` when the two slices hold the same bit patterns.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Read-back equality of one iteration, outside the timed region. Returns
/// `(attempted, failed)`: each compared buffer is one operation.
pub fn verify_iteration(spec: &Spec, inputs: &Inputs, out: &Outcome, iter: u64) -> (u64, u64) {
    match spec.workload {
        Workload::Coll3dX => {
            let bad = out
                .ranks
                .iter()
                .zip(&inputs.blocks)
                .filter(|(got, want)| !same_bits(&got.back, want))
                .count();
            (inputs.blocks.len() as u64, bad as u64)
        }
        Workload::FlashCkpt => {
            // One checkpoint per iteration, rotating through the steps:
            // every unknown of every block against the mesh generator.
            let path = &Spec::flash_files(iter % spec.steps)[0].1;
            let mesh = spec.mesh;
            let run = run_world(mesh.nprocs, out.cfg.clone(), |comm| {
                verify_flash_rank(comm, &out.pfs, &mesh, path)
            });
            run.results
                .into_iter()
                .fold((0, 0), |(a, f), (ra, rf)| (a + ra, f + rf))
        }
        Workload::IndepRows | Workload::IndepRowsCached => {
            let [nz, ny, nx] = spec.dims;
            let plane = (ny * nx) as usize;
            let run = run_world(1, out.cfg.clone(), |comm| {
                let info = spec.workload.info();
                let Ok(mut ds) = Dataset::open(comm, &out.pfs, "tt.nc", true, &info) else {
                    return (1, 1);
                };
                let (Ok(tt), Ok(())) = (ds.inq_varid("tt"), ds.begin_indep_data()) else {
                    return (1, 1);
                };
                let mut bad = 0;
                for z in 0..nz {
                    let want = &inputs.blocks[0][z as usize * plane..][..plane];
                    match ds.get_vara::<f32>(tt, &[z, 0, 0], &[1, ny, nx]) {
                        Ok(got) if same_bits(&got, want) => {}
                        _ => bad += 1,
                    }
                }
                (nz, bad)
            });
            run.results[0]
        }
    }
}

fn verify_flash_rank(comm: &mut Comm, pfs: &Pfs, mesh: &BlockMesh, path: &str) -> (u64, u64) {
    let Ok(mut ds) = Dataset::open(comm, pfs, path, true, &Info::new()) else {
        return (1, 1);
    };
    let rank = comm.rank();
    let (first, bpp, side) = (mesh.first_block(rank), mesh.blocks_per_proc, mesh.nxb);
    let cells = mesh.cells_per_block();
    let (mut attempted, mut failed) = (0, 0);
    for (var, name) in flash_io::mesh::UNK_NAMES.iter().enumerate() {
        attempted += 1;
        let got = ds
            .inq_varid(name)
            .and_then(|v| ds.get_vara_all::<f64>(v, &[first, 0, 0, 0], &[bpp, side, side, side]));
        let good = got.is_ok_and(|vals| {
            vals.len() as u64 == bpp * cells
                && vals.iter().enumerate().all(|(i, v)| {
                    let (b, cell) = (i as u64 / cells, i as u64 % cells);
                    v.to_bits() == mesh.cell_value(var, first + b, cell).to_bits()
                })
        });
        failed += u64::from(!good);
    }
    attempted += 1;
    let levels = ds
        .inq_varid("lrefine")
        .and_then(|v| ds.get_vara_all::<i32>(v, &[first], &[bpp]));
    failed += u64::from(levels.ok() != Some(mesh.refine_levels(rank)));
    (attempted, failed)
}

/// Re-read the final files through `netcdf-serial` (an independent reader
/// of the same format). Returns `(attempted, failed)`: one operation per
/// variable checked.
pub fn cross_read(spec: &Spec, inputs: &Inputs, pfs: &Pfs) -> (u64, u64) {
    let open = |name: &str| {
        pfs.open(name)
            .and_then(|f| NcFile::open_readonly(PosixSim::new(f)).ok())
    };
    match spec.workload {
        Workload::FlashCkpt => {
            let mesh = &spec.mesh;
            let (mut attempted, mut failed) = (0, 0);
            let step = spec.steps - 1;
            for (kind, path) in Spec::flash_files(step) {
                let side = match kind {
                    OutputKind::PlotfileCorners => mesh.nxb + 1,
                    _ => mesh.nxb,
                };
                let nvars = match kind {
                    OutputKind::Checkpoint => flash_io::mesh::NUNK,
                    _ => flash_io::mesh::NPLOT,
                };
                let Some(mut f) = open(&path) else {
                    return (attempted + 1, failed + 1);
                };
                for (var, name) in flash_io::mesh::UNK_NAMES.iter().take(nvars).enumerate() {
                    attempted += 1;
                    let want: Vec<f64> = (0..mesh.nprocs)
                        .flat_map(|r| mesh.interior_buffer(r, var, side))
                        .collect();
                    let good = f.var_id(name).is_ok_and(|v| match kind {
                        OutputKind::Checkpoint => f.get_var::<f64>(v).is_ok_and(|g| g == want),
                        // Plotfiles hold the same values narrowed to f32.
                        _ => f.get_var::<f32>(v).is_ok_and(|g| {
                            g.len() == want.len()
                                && g.iter().zip(&want).all(|(a, b)| *a == *b as f32)
                        }),
                    });
                    failed += u64::from(!good);
                }
            }
            (attempted, failed)
        }
        w => {
            let Some(mut f) = open("tt.nc") else {
                return (1, 1);
            };
            let Ok(got) = f.var_id("tt").and_then(|v| f.get_var::<f32>(v)) else {
                return (1, 1);
            };
            let good = if w == Workload::Coll3dX {
                let [_, _, nx] = spec.dims;
                let per = (nx / w.ranks() as u64) as usize;
                got.len() == spec.elems()
                    && got
                        .chunks_exact(nx as usize)
                        .enumerate()
                        .all(|(row, vals)| {
                            vals.chunks_exact(per).enumerate().all(|(rank, part)| {
                                same_bits(part, &inputs.blocks[rank][row * per..][..per])
                            })
                        })
            } else {
                same_bits(&got, &inputs.blocks[0])
            };
            (1, u64::from(!good))
        }
    }
}
