//! The paper's evaluation as one table of experiments, run by one driver.
//!
//! `cargo run --release -p pnetcdf-bench -- list` prints the table: every
//! experiment's name and the claim of the paper it serves. `run <name>…`
//! prints an experiment's charts and writes them, with its profile / trace /
//! critical-path artifacts, below the report directory ([`report::dir`]);
//! `check` runs every experiment and compares the cells that repeat bit for
//! bit on today's engine ([`table::Pin`]) with `golden/<size>/<name>.json`.
//! Every experiment has two sizes, `--quick` and the paper's.
//!
//! An experiment is a row of [`EXPERIMENTS`]: a function from [`Size`] to
//! [`Outcome`]. It returns data and never prints or writes; what it asserts
//! on the way (coverage, cache counters, speedup targets) are the checks
//! the former harness binaries made.

pub mod ablations;
pub mod driver;
pub mod extensions;
pub mod figures;
pub mod partition;
pub mod report;
pub mod service;
pub mod table;
pub mod workload;

pub use partition::{block_of, grid_for, Partition, PARTITIONS};

use hpc_sim::trace::Json;
use table::Chart;

/// The two shapes of every experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Seconds in a release build; what `ci.sh` checks.
    Quick,
    /// The paper's array sizes and processor counts; run by hand.
    Paper,
}

impl Size {
    /// The golden directory of this size.
    pub fn name(self) -> &'static str {
        match self {
            Size::Quick => "quick",
            Size::Paper => "paper",
        }
    }
}

/// What one run of an experiment returns.
#[derive(Default)]
pub struct Outcome {
    pub charts: Vec<Chart>,
    /// `(kind, document)`: written as `<name>.<kind>.json`.
    pub artifacts: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// With `lines` above everything: the experiment's heading.
    pub fn headed(mut self, lines: &[&str]) -> Outcome {
        let lines = lines.iter().map(|l| l.to_string());
        self.charts[0].above.splice(0..0, lines);
        self
    }
}

impl From<Chart> for Outcome {
    fn from(chart: Chart) -> Outcome {
        Outcome {
            charts: vec![chart],
            artifacts: Vec::new(),
        }
    }
}

/// One row of the evaluation.
pub struct Experiment {
    pub name: &'static str,
    /// What the paper (or this repository, for its extensions) claims and
    /// the experiment measures.
    pub claim: &'static str,
    pub run: fn(Size) -> Outcome,
}

const fn row(name: &'static str, claim: &'static str, run: fn(Size) -> Outcome) -> Experiment {
    Experiment { name, claim, run }
}

/// Every experiment, in the order `list` prints and `check` runs them.
pub static EXPERIMENTS: [Experiment; 14] = [
    row(
        "fig6",
        "Figure 6: parallel netCDF scales over all seven partitions; serial netCDF is one client",
        figures::fig6,
    ),
    row(
        "fig7",
        "Figure 7: PnetCDF outperforms parallel HDF5 on FLASH I/O in every case",
        figures::fig7,
    ),
    row(
        "twophase",
        "pipelined two-phase rounds hide the exchange behind the disk, more so at scale",
        figures::twophase,
    ),
    row(
        "service",
        "one cluster serves 64 sessions on different datasets, the same way on every run",
        extensions::service,
    ),
    row(
        "ablation_access_strategy",
        "Figure 2: via rank 0 bottlenecks, file-per-process shatters, PnetCDF keeps one file",
        ablations::access_strategy,
    ),
    row(
        "ablation_alignment",
        "independent writes that straddle stripes pay read-modify-write",
        ablations::alignment,
    ),
    row(
        "ablation_collective",
        "collective (two-phase) beats independent (sieved) access to a noncontiguous partition",
        ablations::collective,
    ),
    row(
        "ablation_hdf5_overheads",
        "HDF5's deficit in Figure 7 is per-dataset synchronisation and header access",
        ablations::hdf5_overheads,
    ),
    row(
        "ablation_header",
        "section 4.2.1: rank 0 reads the header and broadcasts it; all-ranks-read serialises",
        ablations::header,
    ),
    row(
        "ablation_hints",
        "MPI-IO hints pass through PnetCDF and tune the collective write",
        ablations::hints,
    ),
    row(
        "ext_attributes",
        "section 5.2's removed attribute writes, restored: free in PnetCDF's header, not in HDF5",
        extensions::attributes,
    ),
    row(
        "ext_flash_read",
        "section 6 (future work): FLASH restart reads, PnetCDF vs HDF5",
        extensions::flash_read,
    ),
    row(
        "ext_nonblocking",
        "iput + one wait_all writes the checkpoint in one round instead of ~29: >= 1.3x at 64",
        extensions::nonblocking,
    ),
    row(
        "ext_prefetch",
        "section 4.1: nc_prefetch_vars fetches small variables once per file",
        extensions::prefetch,
    ),
];
