//! The two workloads most experiments are made of: the `tt(Z,Y,X)` float
//! array of the paper's Figure 5 written (and read back) by a world of
//! ranks, and the FLASH checkpoint on the Frost-like platform.

use flash_io::{run_flash_io_mode, FlashConfig, FlashResult, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::Json;
use hpc_sim::{SimConfig, Time};
use netcdf_serial::NcFile;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, PfsFile, PosixSim, StorageMode};

use crate::partition::{block_of, grid_for, Partition};
use crate::Size;

/// `bytes` moved in `t`, in MB/s.
pub fn mb_s(bytes: u64, t: Time) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// How each rank moves its block of the array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// One `put_vara_all` / `get_vara_all` of the whole block.
    Collective,
    /// One independent `put_vara` / `get_vara` of the whole block.
    Independent,
    /// Independent data mode, small requests: one put per x-row of the
    /// block, one get per z-plane.
    IndependentRows,
}

/// One run of the `tt` array workload on a fresh cost-only file system.
pub struct Array3d {
    /// The platform; the caller keeps a clone to read the profile from.
    pub sim: SimConfig,
    pub dims: (u64, u64, u64),
    pub partition: Partition,
    pub nprocs: usize,
    /// Hints passed to `ncmpi_create`.
    pub info: Info,
    pub access: Access,
    /// Read every block back after the write.
    pub read: bool,
}

/// Virtual times of one [`Array3d`] run, each the latest over the ranks.
#[derive(Clone, Copy, Debug)]
pub struct Array3dTimes {
    /// The data-mode write (begin/end of independent mode included).
    pub write: Time,
    /// The read-back; zero when the run did not read.
    pub read: Time,
    /// Create to close.
    pub makespan: Time,
}

impl Array3d {
    /// A collective write without read-back and without hints on a fresh
    /// SDSC-like platform; callers override fields.
    pub fn sdsc(dims: (u64, u64, u64), partition: Partition, nprocs: usize) -> Array3d {
        Array3d {
            sim: SimConfig::sdsc_blue_horizon(),
            dims,
            partition,
            nprocs,
            info: Info::new(),
            access: Access::Collective,
            read: false,
        }
    }

    pub fn run(&self) -> Array3dTimes {
        let pfs = Pfs::new(self.sim.clone(), StorageMode::CostOnly);
        let (dims, access) = (self.dims, self.access);
        let grid = grid_for(self.partition, self.nprocs);
        let run = run_world(self.nprocs, self.sim.clone(), |comm| {
            let mut ds = Dataset::create(comm, &pfs, "tt.nc", Version::Cdf2, &self.info).unwrap();
            let z = ds.def_dim("level", dims.0).unwrap();
            let y = ds.def_dim("latitude", dims.1).unwrap();
            let x = ds.def_dim("longitude", dims.2).unwrap();
            let tt = ds.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
            ds.enddef().unwrap();

            let (start, count) = block_of(comm.rank(), grid, dims);
            let ([s0, s1, s2], [c0, c1, c2]) = (start, count);
            let block = vec![1.0f32; (c0 * c1 * c2) as usize];
            // One phase in `access`'s data mode, begin and end included.
            let mut timed = |op: &dyn Fn(&mut Dataset)| {
                let t0 = comm.now();
                if access != Access::Collective {
                    ds.begin_indep_data().unwrap();
                }
                op(&mut ds);
                if access != Access::Collective {
                    ds.end_indep_data().unwrap();
                }
                comm.now() - t0
            };
            let t_write = timed(&|ds| match access {
                Access::Collective => ds.put_vara_all(tt, &start, &count, &block).unwrap(),
                Access::Independent => ds.put_vara(tt, &start, &count, &block).unwrap(),
                Access::IndependentRows => {
                    for (zp, yp) in (s0..s0 + c0).flat_map(|z| (s1..s1 + c1).map(move |y| (z, y))) {
                        let row = &block[..c2 as usize];
                        ds.put_vara(tt, &[zp, yp, s2], &[1, 1, c2], row).unwrap();
                    }
                }
            });
            drop(block);
            let t_read = match self.read {
                false => Time::ZERO,
                true => timed(&|ds| match access {
                    Access::Collective => drop(ds.get_vara_all::<f32>(tt, &start, &count).unwrap()),
                    Access::Independent => drop(ds.get_vara::<f32>(tt, &start, &count).unwrap()),
                    Access::IndependentRows => {
                        for zp in s0..s0 + c0 {
                            drop(ds.get_vara::<f32>(tt, &[zp, s1, s2], &[1, c1, c2]).unwrap());
                        }
                    }
                }),
            };
            ds.close().unwrap();
            (t_write, t_read)
        });
        Array3dTimes {
            write: run.results.iter().map(|r| r.0).max().unwrap(),
            read: run.results.iter().map(|r| r.1).max().unwrap(),
            makespan: run.makespan,
        }
    }
}

/// `tt(level, latitude, longitude)` created through the serial library on
/// `file`. Returns the open file, the variable and a handle on its clock.
pub fn serial_tt(file: PfsFile, dims: (u64, u64, u64)) -> (NcFile, usize, PosixSim) {
    let posix = PosixSim::new(file);
    let watch = posix.clone();
    let mut f = NcFile::create(posix, Version::Cdf2);
    let z = f.def_dim("level", dims.0).unwrap();
    let y = f.def_dim("latitude", dims.1).unwrap();
    let x = f.def_dim("longitude", dims.2).unwrap();
    let tt = f.def_var("tt", NcType::Float, &[z, y, x]).unwrap();
    f.enddef().unwrap();
    (f, tt, watch)
}

/// Blocks per processor and processor counts of a FLASH experiment: the
/// paper's 80 blocks on `paper_procs`, or the quick shape they all share.
pub fn flash_shape(size: Size, paper_procs: &'static [usize]) -> (u64, &'static [usize]) {
    match size {
        Size::Quick => (8, &[4, 8, 16]),
        Size::Paper => (80, paper_procs),
    }
}

/// One entry of a `profile` artifact: the report of the run called `run`.
pub fn profile_entry(run: String, profile: Json) -> Json {
    Json::obj().with("run", run).with("profile", profile)
}

/// The PnetCDF 8x8x8 checkpoint of the paper's port (no attributes).
pub fn checkpoint(nprocs: usize, blocks_per_proc: u64) -> FlashConfig {
    FlashConfig {
        nxb: 8,
        nprocs,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc,
        attributes: false,
    }
}

/// One FLASH I/O run under `sim` on a fresh file system that stores as much
/// as `storage` says; the file system comes back for [`flash_bytes`].
pub fn flash_run(
    sim: &SimConfig,
    config: FlashConfig,
    mode: WriteMode,
    storage: StorageMode,
) -> (FlashResult, Pfs) {
    let pfs = Pfs::new(sim.clone(), storage);
    let res = run_flash_io_mode(config, sim.clone(), &pfs, mode);
    (res, pfs)
}

/// The file a fully stored FLASH run wrote.
pub fn flash_bytes(pfs: &Pfs) -> Vec<u8> {
    pfs.open("flash_out").expect("output written").to_bytes()
}
