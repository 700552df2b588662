//! The layered replay: the same workload issued one layer lower each
//! time, so every layer is timed at its public entry without touching a
//! product file.
//!
//! * **L0** is the workload itself (`Dataset` calls, `workload.rs`).
//! * **L1** issues the same accesses at `MpiFile`: byte runs from
//!   `layout::access_runs`, buffers already in external (big-endian) form,
//!   `write_runs_at_all`/`read_runs_at_all` (`write_runs_at`/`read_runs_at`
//!   for the independent workloads).
//! * **L2** issues the same file extent at `PosixSim::{write_at, read_at}`
//!   in the request sizes L1's `request_sizes` histogram reports, once
//!   storing bytes (`StorageMode::Full`) and once not (`CostOnly`).
//!
//! A layer's self time is the difference of two inclusive times (`core` =
//! L0 − L1, `mpio` = L1 − L2, `pfs` byte storage = L2 Full − L2 CostOnly,
//! `sim` = L2 CostOnly), so the split adds up to L0 by construction. The
//! external bytes of every write come from the file L0 left behind, and
//! each replay must leave a byte-identical file.

use std::time::Instant;

use hpc_sim::trace::Json;
use netcdf_serial::NcFile;
use pnetcdf::Info;
use pnetcdf_format::{layout, Header};
use pnetcdf_mpi::{run_world, Comm};
use pnetcdf_mpio::{MpiFile, OpenMode};
use pnetcdf_pfs::{Pfs, PosixSim, StorageMode};

use crate::workload::{Ops, Outcome, RankTimes, Spec, Tracing, Workload};

/// An absolute byte run in a file: `(offset, len)`.
pub type Run = (u64, u64);

/// A file as L0 left it.
pub struct FileImage {
    pub name: String,
    pub bytes: Vec<u8>,
    pub header: Header,
    /// Length of the header as written (up to the first variable).
    pub data_start: usize,
}

/// One `MpiFile` data call.
pub struct Op {
    pub collective: bool,
    pub runs: Vec<Run>,
    /// Writes of more than one run: the runs' bytes, gathered. A single
    /// run borrows its bytes from the image instead.
    pub gathered: Vec<u8>,
}

impl Op {
    fn bytes<'a>(&'a self, image: &'a [u8]) -> &'a [u8] {
        match self.runs[..] {
            [(off, len)] => &image[off as usize..(off + len) as usize],
            _ => &self.gathered,
        }
    }
}

/// One rank's calls on one file in one phase, `repeat` times over.
pub struct FileOps {
    pub file: usize,
    pub ops: Vec<Op>,
    pub repeat: u64,
}

/// One `Dataset` data call of L0, as data: which block of which variable.
pub struct Access {
    pub file: usize,
    pub var: usize,
    pub start: Vec<u64>,
    pub count: Vec<u64>,
    pub write: bool,
}

impl Access {
    pub fn runs(&self, files: &[FileImage]) -> Vec<Run> {
        // No workload has record variables, so `recsize` is never read.
        layout::access_runs(
            &files[self.file].header,
            0,
            self.var,
            &self.start,
            &self.count,
            None,
        )
    }
}

/// Everything the lower layers need to repeat what L0 did.
pub struct Plan {
    pub spec: Spec,
    pub files: Vec<FileImage>,
    /// `[rank]` → the data calls of one pass, writes before reads.
    pub accesses: Vec<Vec<Access>>,
    /// `[rank]` → files written, in order.
    pub writes: Vec<Vec<FileOps>>,
    /// `[rank]` → files read, in order.
    pub reads: Vec<Vec<FileOps>>,
    /// Data calls (puts and gets) one L0 iteration makes, over all ranks.
    pub requests: u64,
    /// Byte runs those calls resolve to (for `access_runs_ns_per_run`).
    pub runs: u64,
}

fn gather(image: &[u8], runs: &[Run]) -> Vec<u8> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.1 as usize).sum());
    for &(off, len) in runs {
        out.extend_from_slice(&image[off as usize..(off + len) as usize]);
    }
    out
}

/// Read a file of `pfs` whole, with its decoded header.
pub fn image_of(pfs: &Pfs, name: &str) -> Result<FileImage, String> {
    let file = pfs
        .open(name)
        .ok_or_else(|| format!("{name}: no such file"))?;
    let mut posix = PosixSim::new(file.clone());
    let mut bytes = vec![0u8; posix.size() as usize];
    posix.read_at(0, &mut bytes);
    let nc = NcFile::open_readonly(PosixSim::new(file)).map_err(|e| format!("{name}: {e}"))?;
    let header = nc.header().clone();
    let data_start = header.vars.iter().map(|v| v.begin).min().unwrap_or(0) as usize;
    Ok(FileImage {
        name: name.to_string(),
        bytes,
        header,
        data_start,
    })
}

/// The data calls `rank` makes in one pass over `files`.
fn accesses_of(spec: &Spec, files: &[FileImage], rank: usize) -> Result<Vec<Access>, String> {
    let mut out = Vec::new();
    match spec.workload {
        Workload::Coll3dX => {
            let tt = files[0].header.var_id("tt").ok_or("tt.nc has no tt")?;
            let (start, count) = spec.x_block(rank);
            for write in [true, false] {
                out.push(Access {
                    file: 0,
                    var: tt,
                    start: start.to_vec(),
                    count: count.to_vec(),
                    write,
                });
            }
        }
        Workload::IndepRows | Workload::IndepRowsCached => {
            let tt = files[0].header.var_id("tt").ok_or("tt.nc has no tt")?;
            let [nz, ny, nx] = spec.dims;
            let rows = (0..nz).flat_map(|z| (0..ny).map(move |y| (z, y)));
            out.extend(rows.map(|(z, y)| Access {
                file: 0,
                var: tt,
                start: vec![z, y, 0],
                count: vec![1, 1, nx],
                write: true,
            }));
            out.extend((0..nz).map(|z| Access {
                file: 0,
                var: tt,
                start: vec![z, 0, 0],
                count: vec![1, ny, nx],
                write: false,
            }));
        }
        Workload::FlashCkpt => {
            // Every FLASH variable is blocks-major and a rank owns a
            // contiguous range of blocks.
            let block = |file: usize, var: usize, write: bool| {
                let shape = files[file].header.var_shape(var);
                let mut start = vec![0; shape.len()];
                start[0] = spec.mesh.first_block(rank);
                let mut count = shape;
                count[0] = spec.mesh.blocks_per_proc;
                Access {
                    file,
                    var,
                    start,
                    count,
                    write,
                }
            };
            for (file, img) in files.iter().enumerate() {
                out.extend((0..img.header.vars.len()).map(|v| block(file, v, true)));
            }
            // Restart reads each checkpoint (every third file): lrefine,
            // coordinates, then the unknowns, one collective get each.
            for _ in 0..spec.restarts {
                for (file, img) in files.iter().enumerate().step_by(3) {
                    let names = ["lrefine", "coordinates"]
                        .iter()
                        .chain(flash_io::mesh::UNK_NAMES.iter());
                    for name in names {
                        let var = img
                            .header
                            .var_id(name)
                            .ok_or_else(|| format!("{}: no {name}", img.name))?;
                        out.push(block(file, var, false));
                    }
                }
            }
        }
    }
    Ok(out)
}

impl Plan {
    /// Build the plan from the files an L0 iteration left in `pfs`.
    pub fn build(spec: &Spec, pfs: &Pfs) -> Result<Plan, String> {
        let w = spec.workload;
        let names: Vec<String> = match w {
            Workload::FlashCkpt => (0..spec.steps)
                .flat_map(Spec::flash_files)
                .map(|(_, name)| name)
                .collect(),
            _ => vec!["tt.nc".to_string()],
        };
        let files = names
            .iter()
            .map(|n| image_of(pfs, n))
            .collect::<Result<Vec<_>, _>>()?;
        let collective = !w.is_indep();
        let repeat = if w.is_indep() { spec.passes } else { 1 };
        let mut plan = Plan {
            spec: *spec,
            files,
            accesses: Vec::new(),
            writes: Vec::new(),
            reads: Vec::new(),
            requests: 0,
            runs: 0,
        };
        for rank in 0..w.ranks() {
            let accesses = accesses_of(spec, &plan.files, rank)?;
            let (mut wr, mut rd): (Vec<FileOps>, Vec<FileOps>) = (Vec::new(), Vec::new());
            for a in &accesses {
                let runs = a.runs(&plan.files);
                plan.requests += repeat;
                plan.runs += runs.len() as u64 * repeat;
                let list = if a.write { &mut wr } else { &mut rd };
                if list.last().is_none_or(|fo| fo.file != a.file) {
                    list.push(FileOps {
                        file: a.file,
                        ops: Vec::new(),
                        repeat,
                    });
                }
                let ops = &mut list.last_mut().expect("just pushed").ops;
                match ops.last_mut() {
                    // The FLASH writer queues one iput per variable and
                    // `wait_all` merges them into one collective write.
                    // Variables are laid out in definition order, so
                    // appending keeps the runs sorted.
                    Some(merged) if w == Workload::FlashCkpt && a.write => merged.runs.extend(runs),
                    _ => ops.push(Op {
                        collective,
                        runs,
                        gathered: Vec::new(),
                    }),
                }
            }
            for fo in &mut wr {
                let image = &plan.files[fo.file].bytes;
                for op in fo.ops.iter_mut().filter(|o| o.runs.len() != 1) {
                    op.gathered = gather(image, &op.runs);
                }
            }
            plan.accesses.push(accesses);
            plan.writes.push(wr);
            plan.reads.push(rd);
        }
        Ok(plan)
    }

    /// FLASH opens, defines and closes each file inside its timed phases;
    /// the array workloads open before the clock starts.
    fn opens_in_phase(&self) -> bool {
        self.spec.workload == Workload::FlashCkpt
    }
}

/// Open `img` for writing at `MpiFile` and put its header in place, as
/// `create` + `enddef` do: rank 0 writes it, everyone meets at a barrier.
fn open_for_write(
    ops: &mut Ops,
    comm: &Comm,
    pfs: &Pfs,
    img: &FileImage,
    info: &Info,
) -> Result<MpiFile, String> {
    let file = ops.ok(
        "MpiFile::open",
        MpiFile::open(comm, pfs, &img.name, OpenMode::Create, info),
    )?;
    if comm.rank() == 0 {
        let head = &img.bytes[..img.data_start];
        ops.ok(
            "header write",
            file.write_runs_at(&[(0, head.len() as u64)], head),
        )?;
    }
    ops.ok("barrier", comm.barrier())?;
    Ok(file)
}

fn l1_rank(
    comm: &mut Comm,
    pfs: &Pfs,
    plan: &Plan,
    info: &Info,
    check_reads: bool,
    ops: &mut Ops,
) -> Result<RankTimes, String> {
    let rank = comm.rank();
    let sim = |c: &Comm| c.now().as_nanos();
    let in_phase = plan.opens_in_phase();
    let indep = plan.spec.workload.is_indep();
    let (writes, reads) = (&plan.writes[rank], &plan.reads[rank]);

    let mut early = Vec::new();
    if !in_phase {
        for fo in writes {
            early.push(open_for_write(ops, comm, pfs, &plan.files[fo.file], info)?);
        }
    }
    let setup_end = Instant::now();
    ops.ok("barrier", comm.barrier())?;
    let (h0, s0) = (Instant::now(), sim(comm));
    for (i, fo) in writes.iter().enumerate() {
        let img = &plan.files[fo.file];
        let opened;
        let file = if in_phase {
            opened = open_for_write(ops, comm, pfs, img, info)?;
            &opened
        } else {
            &early[i]
        };
        for _ in 0..fo.repeat {
            for op in &fo.ops {
                let data = op.bytes(&img.bytes);
                if op.collective {
                    ops.ok("write_runs_at_all", file.write_runs_at_all(&op.runs, data))?;
                } else {
                    ops.ok("write_runs_at", file.write_runs_at(&op.runs, data))?;
                }
            }
        }
        if in_phase || indep {
            // `close` (FLASH) and `end_indep_data` sync inside the phase.
            ops.ok("sync", file.sync())?;
        }
    }
    let (s1, h1) = (sim(comm), Instant::now());
    if !in_phase && !indep {
        for file in &early {
            ops.ok("sync", file.sync())?;
        }
    }
    drop(early);

    let open_ro = |ops: &mut Ops, fo: &FileOps| {
        let name = &plan.files[fo.file].name;
        ops.ok(
            "MpiFile::open",
            MpiFile::open(comm, pfs, name, OpenMode::ReadOnly, info),
        )
    };
    let mut early = Vec::new();
    if !in_phase {
        for fo in reads {
            early.push(open_ro(ops, fo)?);
        }
    }
    ops.ok("barrier", comm.barrier())?;
    let (h2, s2) = (Instant::now(), sim(comm));
    for (i, fo) in reads.iter().enumerate() {
        let img = &plan.files[fo.file];
        let opened;
        let file = if in_phase {
            opened = open_ro(ops, fo)?;
            &opened
        } else {
            &early[i]
        };
        for _ in 0..fo.repeat {
            for op in &fo.ops {
                let got = if op.collective {
                    ops.ok("read_runs_at_all", file.read_runs_at_all(&op.runs))?
                } else {
                    ops.ok("read_runs_at", file.read_runs_at(&op.runs))?
                };
                if check_reads && got != gather(&img.bytes, &op.runs) {
                    return Err(format!("{}: L1 read differs from L0's bytes", img.name));
                }
                std::hint::black_box(&got);
            }
        }
        if in_phase || indep {
            ops.ok("sync", file.sync())?;
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
        marks: Vec::new(),
    })
}

/// Replay the plan at `MpiFile` (L1) on a fresh file system.
pub fn run_l1(plan: &Plan, info: &Info, tracing: Tracing, check_reads: bool) -> Outcome {
    let t0 = Instant::now();
    let cfg = plan.spec.workload.config();
    cfg.profile.set_enabled(tracing.profile);
    cfg.events.set_enabled(tracing.events);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let run = run_world(plan.spec.workload.ranks(), cfg.clone(), |comm| {
        let mut ops = Ops(0);
        let res = l1_rank(comm, &pfs, plan, info, check_reads, &mut ops);
        (ops.0, res)
    });
    Outcome::collect(t0, run, pfs, cfg)
}

/// One `PosixSim` request: `(file, offset, len)`.
pub type Req = (usize, u64, u64);

/// The L2 request lists, derived from an L1 run's profile.
pub struct L2Plan {
    pub writes: Vec<Req>,
    pub reads: Vec<Req>,
}

/// Request sizes that reproduce a `request_sizes` histogram (`"<=2^i":
/// count`) and add up to `bytes`: every bucket's upper bound, scaled by
/// one common factor, largest first.
pub fn sizes_from_histogram(hist: &Json, bytes: u64) -> Vec<u64> {
    let Json::Obj(entries) = hist else {
        return Vec::new();
    };
    let mut buckets: Vec<(u32, u64)> = entries
        .iter()
        .filter_map(|(k, v)| {
            let exp = k.strip_prefix("<=2^")?.parse::<u32>().ok()?;
            Some((exp, v.as_f64()? as u64))
        })
        .collect();
    buckets.sort_by_key(|b| std::cmp::Reverse(b.0));
    let nominal: f64 = buckets
        .iter()
        .map(|&(e, c)| c as f64 * (1u64 << e) as f64)
        .sum();
    if nominal == 0.0 || bytes == 0 {
        return Vec::new();
    }
    let scale = bytes as f64 / nominal;
    let mut sizes: Vec<u64> = buckets
        .iter()
        .flat_map(|&(e, c)| {
            let len = (((1u64 << e) as f64 * scale) as u64).max(1);
            std::iter::repeat_n(len, c as usize)
        })
        .collect();
    // Flooring loses less than one byte per request (and the 1-byte floor
    // can add a few): spread the difference evenly, front first.
    let n = sizes.len() as u64;
    let sum: u64 = sizes.iter().sum();
    if sum <= bytes {
        let (each, extra) = ((bytes - sum) / n, (bytes - sum) % n);
        for (i, s) in sizes.iter_mut().enumerate() {
            *s += each + u64::from((i as u64) < extra);
        }
    } else {
        let mut excess = sum - bytes;
        for s in sizes.iter_mut() {
            let cut = excess.min(*s - 1);
            *s -= cut;
            excess -= cut;
        }
    }
    sizes
}

/// Lay `sizes` end to end over the files' extents, wrapping at the end and
/// splitting a request that would cross from one file into the next.
pub fn sweep(extents: &[(usize, u64)], sizes: &[u64]) -> Vec<Req> {
    let mut out = Vec::with_capacity(sizes.len());
    if extents.iter().all(|e| e.1 == 0) {
        return out;
    }
    let (mut at, mut pos) = (0usize, 0u64);
    for &size in sizes {
        let mut left = size;
        while left > 0 {
            let (file, len) = extents[at];
            let take = left.min(len - pos);
            if take > 0 {
                out.push((file, pos, take));
            }
            left -= take;
            pos += take;
            if pos == len {
                at = (at + 1) % extents.len();
                pos = 0;
            }
        }
    }
    out
}

/// One key of every row of a profile report's `servers` array.
pub fn server_values(profile: &Json, key: &str) -> Vec<f64> {
    match profile.get("servers") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter_map(|s| s.get(key).and_then(Json::as_f64))
            .collect(),
        _ => Vec::new(),
    }
}

impl L2Plan {
    /// `profile` is the JSON report of an L1 run of `plan`.
    pub fn build(plan: &Plan, profile: &Json) -> L2Plan {
        let extent = |list: &[FileOps]| -> Vec<(usize, u64)> {
            list.iter()
                .map(|fo| (fo.file, plan.files[fo.file].bytes.len() as u64))
                .collect()
        };
        let hist = |key: &str| {
            profile
                .get("request_sizes")
                .and_then(|h| h.get(key))
                .cloned()
                .unwrap_or(Json::obj())
        };
        // Rank 0 touches every file any rank touches.
        let wsizes = sizes_from_histogram(
            &hist("io_write"),
            server_values(profile, "bytes_written").iter().sum::<f64>() as u64,
        );
        let rsizes = sizes_from_histogram(
            &hist("io_read"),
            server_values(profile, "bytes_read").iter().sum::<f64>() as u64,
        );
        L2Plan {
            writes: sweep(&extent(&plan.writes[0]), &wsizes),
            reads: sweep(&extent(&plan.reads[0]), &rsizes),
        }
    }
}

/// When the two L2 phases started and ended, and the file system left
/// behind.
pub struct L2Out {
    pub write: (Instant, Instant),
    pub read: (Instant, Instant),
    pub pfs: Pfs,
}

/// Replay the extent at `PosixSim` (L2), single-threaded: the file system
/// has no notion of ranks.
pub fn run_l2(plan: &Plan, l2: &L2Plan, mode: StorageMode) -> L2Out {
    let pfs = Pfs::new(plan.spec.workload.config(), mode);
    let mut handles: Vec<Option<PosixSim>> = plan.files.iter().map(|_| None).collect();
    for fo in &plan.writes[0] {
        handles[fo.file] = Some(PosixSim::new(pfs.create(&plan.files[fo.file].name)));
    }
    let h0 = Instant::now();
    for &(file, off, len) in &l2.writes {
        let data = &plan.files[file].bytes[off as usize..(off + len) as usize];
        if let Some(p) = handles[file].as_mut() {
            p.write_at(off, data);
        }
    }
    let h1 = Instant::now();
    let biggest = l2.reads.iter().map(|r| r.2).max().unwrap_or(0);
    let mut scratch = vec![0u8; biggest as usize];
    let h2 = Instant::now();
    for &(file, off, len) in &l2.reads {
        if let Some(p) = handles[file].as_mut() {
            p.read_at(off, &mut scratch[..len as usize]);
        }
    }
    std::hint::black_box(&scratch);
    let h3 = Instant::now();
    L2Out {
        write: (h0, h1),
        read: (h2, h3),
        pfs,
    }
}

/// `true` when every file of the plan exists in `pfs` with L0's bytes.
pub fn same_files(plan: &Plan, pfs: &Pfs) -> bool {
    plan.files.iter().all(|img| {
        pfs.open(&img.name).is_some_and(|f| {
            let mut p = PosixSim::new(f);
            let mut got = vec![0u8; p.size() as usize];
            p.read_at(0, &mut got);
            got == img.bytes
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Inputs};

    #[test]
    fn histogram_sizes_add_up_and_keep_their_counts() {
        let hist = Json::obj().with("<=2^9", 6u64).with("<=2^18", 3u64);
        let bytes = 6 * 512 + 3 * 200_000;
        let sizes = sizes_from_histogram(&hist, bytes);
        assert_eq!(sizes.len(), 9);
        assert_eq!(sizes.iter().sum::<u64>(), bytes);
        assert!(
            sizes[..3].iter().all(|&s| s > 100_000),
            "largest first: {sizes:?}"
        );
        assert!(
            sizes[3..].iter().all(|&s| (256..=512).contains(&s)),
            "{sizes:?}"
        );
        assert!(sizes_from_histogram(&Json::obj(), 10).is_empty());
    }

    #[test]
    fn sweep_wraps_and_splits_at_file_ends() {
        let reqs = sweep(&[(0, 10), (2, 4)], &[8, 8, 3]);
        assert_eq!(
            reqs,
            vec![(0, 0, 8), (0, 8, 2), (2, 0, 4), (0, 0, 2), (0, 2, 3)]
        );
        assert!(sweep(&[(0, 0)], &[5]).is_empty());
    }

    /// The replay identity: L1 and L2 leave files byte-identical to L0's,
    /// L1 reads return L0's bytes, and no call fails on the way.
    #[test]
    fn replays_leave_the_files_l0_left() {
        let _g = crate::alloc::serial(); // megabytes of arrays and file images
        for w in workload::ALL {
            let spec = Spec::tiny(w);
            let inputs = Inputs::generate(&spec, 7);
            let l0 = workload::run_iteration(&spec, &inputs, Tracing::default());
            assert_eq!(l0.failed, 0, "{}: {:?}", w.name(), l0.error);
            let (a, f) = workload::verify_iteration(&spec, &inputs, &l0, 0);
            assert!(a > 0 && f == 0, "{}: read-back", w.name());
            let (a, f) = workload::cross_read(&spec, &inputs, &l0.pfs);
            assert!(a > 0 && f == 0, "{}: cross-read", w.name());

            let plan = Plan::build(&spec, &l0.pfs).unwrap();
            assert!(same_files(&plan, &l0.pfs), "{}: image_of", w.name());

            let traced = Tracing {
                profile: true,
                events: false,
            };
            let l1 = run_l1(&plan, &w.info(), traced, true);
            assert_eq!(l1.failed, 0, "{}: {:?}", w.name(), l1.error);
            assert!(same_files(&plan, &l1.pfs), "{}: L1 file differs", w.name());

            let profile = l1.cfg.profile.snapshot().to_json(l1.times.makespan_ns);
            let l2 = L2Plan::build(&plan, &profile);
            assert!(
                !l2.writes.is_empty() && !l2.reads.is_empty(),
                "{}",
                w.name()
            );
            let out = run_l2(&plan, &l2, StorageMode::Full);
            assert!(same_files(&plan, &out.pfs), "{}: L2 file differs", w.name());
        }
    }

    /// The plan moves exactly the payload the end-to-end rates divide by.
    #[test]
    fn payload_bytes_match_what_the_plan_moves() {
        let _g = crate::alloc::serial();
        for w in workload::ALL {
            let spec = Spec::tiny(w);
            let inputs = Inputs::generate(&spec, 1);
            let l0 = workload::run_iteration(&spec, &inputs, Tracing::default());
            let plan = Plan::build(&spec, &l0.pfs).unwrap();
            let moved = |lists: &[Vec<FileOps>]| -> u64 {
                lists
                    .iter()
                    .flatten()
                    .map(|fo| {
                        fo.repeat
                            * fo.ops
                                .iter()
                                .flat_map(|o| &o.runs)
                                .map(|r| r.1)
                                .sum::<u64>()
                    })
                    .sum()
            };
            let (wb, rb) = workload::payload_bytes(&spec);
            assert_eq!(moved(&plan.writes), wb, "{} writes", w.name());
            assert_eq!(moved(&plan.reads), rb, "{} reads", w.name());
        }
    }
}
