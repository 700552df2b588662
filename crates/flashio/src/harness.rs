//! Driver: run one FLASH I/O configuration and report aggregate bandwidth.

use hpc_sim::{SimConfig, Time};
use pnetcdf_mpi::{run_world, Info};
use pnetcdf_pfs::{Pfs, StorageMode};

use crate::mesh::BlockMesh;
use crate::writers;

/// Which of the three output files to produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// 24 unknowns, double precision.
    Checkpoint,
    /// 4 variables, single precision, cell-centered.
    Plotfile,
    /// 4 variables, single precision, corner data (nxb+1 per dim).
    PlotfileCorners,
}

impl OutputKind {
    /// Short label used in output tables.
    pub fn label(self) -> &'static str {
        match self {
            OutputKind::Checkpoint => "checkpoint",
            OutputKind::Plotfile => "plotfile",
            OutputKind::PlotfileCorners => "plotfile+corners",
        }
    }
}

/// Which library writes the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoLibrary {
    Pnetcdf,
    Hdf5,
}

impl IoLibrary {
    /// Short label used in output tables.
    pub fn label(self) -> &'static str {
        match self {
            IoLibrary::Pnetcdf => "PnetCDF",
            IoLibrary::Hdf5 => "HDF5",
        }
    }
}

/// One benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlashConfig {
    /// Block side length (8 or 16 in the paper).
    pub nxb: u64,
    /// Number of processors.
    pub nprocs: usize,
    /// Output file kind.
    pub kind: OutputKind,
    /// Library under test.
    pub lib: IoLibrary,
    /// Blocks per processor (80 in the paper).
    pub blocks_per_proc: u64,
    /// Write the per-variable attributes the original benchmark carried
    /// (the paper's port removed them; `false` reproduces the paper).
    pub attributes: bool,
}

/// How the PnetCDF writer issues its data-mode puts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Puts {
    /// The paper's port: a nonblocking `iput` per access, flushed by one
    /// collective `wait_all`.
    #[default]
    Aggregate,
    /// One blocking collective per variable (the pre-aggregation port,
    /// ~29 collective rounds per checkpoint).
    Blocking,
    /// Independent data mode, one `put_vara` per AMR block: the
    /// small-strided pattern FLASH emits natively, served by the client
    /// page cache when `pnc_cache=enable` is among the hints.
    IndependentBlocks,
}

/// How the PnetCDF writer writes: its puts, and the MPI_Info hints it hands
/// `ncmpi_create` (`cb_buffer_size`, `pnc_cb_pipeline`, `pnc_cache`, ...).
/// The default is the paper's port with no hints; HDF5 writes only that.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteMode {
    /// How the data-mode puts are issued.
    pub puts: Puts,
    /// The hints for the info object of `ncmpi_create`.
    pub info: Info,
}

impl WriteMode {
    /// Independent-block mode with the client page cache enabled and the
    /// given byte budget.
    pub fn cached(cache_size: usize) -> WriteMode {
        let info = Info::new()
            .with("pnc_cache", "enable")
            .with("pnc_cache_size", &cache_size.to_string());
        WriteMode {
            info,
            ..WriteMode::uncached()
        }
    }

    /// Independent-block mode without the cache (the uncached baseline).
    pub fn uncached() -> WriteMode {
        WriteMode {
            puts: Puts::IndependentBlocks,
            info: Info::new(),
        }
    }

    /// Collective mode with explicit two-phase hints. `pipeline=false`
    /// adds `pnc_cb_pipeline=disable` (the serial A/B baseline).
    pub fn collective_hints(cb_buffer_size: usize, pipeline: bool) -> WriteMode {
        let mut info = Info::new().with("cb_buffer_size", &cb_buffer_size.to_string());
        if !pipeline {
            info.set("pnc_cb_pipeline", "disable");
        }
        WriteMode {
            info,
            ..WriteMode::default()
        }
    }
}

/// Result of one run.
#[derive(Clone, Copy, Debug)]
pub struct FlashResult {
    /// Array bytes written (all ranks).
    pub bytes: u64,
    /// Virtual makespan of the whole operation (create..close).
    pub time: Time,
    /// Aggregate bandwidth in MB/s.
    pub bandwidth_mb_s: f64,
}

/// Run one configuration under `sim` on a fresh file system that stores as
/// much as `storage` says, writing `flash_out`. The file system comes back,
/// so the caller can read the file. A non-default `mode` is PnetCDF only.
pub fn run_flash_io(
    config: FlashConfig,
    sim: &SimConfig,
    storage: StorageMode,
    mode: WriteMode,
) -> (FlashResult, Pfs) {
    assert!(
        config.lib == IoLibrary::Pnetcdf || mode == WriteMode::default(),
        "HDF5 writes the paper's port only: {mode:?}"
    );
    let pfs = Pfs::new(sim.clone(), storage);
    let mesh = BlockMesh {
        nxb: config.nxb,
        blocks_per_proc: config.blocks_per_proc,
        nprocs: config.nprocs,
    };
    let (kind, attrs) = (config.kind, config.attributes);
    let run = run_world(config.nprocs, sim.clone(), |comm| match config.lib {
        IoLibrary::Pnetcdf => {
            writers::pnetcdf::write_as(comm, &pfs, &mesh, kind, "flash_out", attrs, &mode)
                .expect("pnetcdf write")
        }
        IoLibrary::Hdf5 => {
            writers::hdf5::write(comm, &pfs, &mesh, kind, "flash_out", attrs).expect("hdf5 write")
        }
    });
    let bytes = run.results[0];
    let time = run.makespan;
    let res = FlashResult {
        bytes,
        time,
        bandwidth_mb_s: bytes as f64 / time.as_secs_f64() / 1e6,
    };
    (res, pfs)
}
