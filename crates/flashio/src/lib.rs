//! The FLASH I/O benchmark (paper §5.2).
//!
//! FLASH is a block-structured AMR astrophysics code; its I/O benchmark
//! recreates FLASH's primary data structures and produces three output
//! files — a checkpoint, a plotfile with centered data, and a plotfile with
//! corner data — with the same access pattern as the production code:
//! every processor holds 80 AMR sub-blocks of 8³ or 16³ cells (with a
//! perimeter of 4 guard cells that is stripped before writing), and each
//! file is a series of multidimensional arrays written blockwise
//! (`(Block, *, ...)` — the Z-partition pattern of Figure 5).
//!
//! * Checkpoint: 24 unknowns in double precision (~8 MB/proc at 8³,
//!   ~60 MB/proc at 16³) plus the block metadata arrays.
//! * Plotfiles: 4 variables in single precision (~1 MB/proc at 8³,
//!   ~6 MB/proc at 16³); the corner variant adds one cell per dimension.
//!
//! [`writers::pnetcdf`] and [`writers::hdf5`] implement the same output
//! through both libraries, one writer body each. [`run_flash_io`] runs a
//! configuration on a fresh file system and reports aggregate bandwidth in
//! virtual time; a [`WriteMode`] picks how the PnetCDF writer issues its
//! puts and which hints reach `ncmpi_create`.

pub mod harness;
pub mod mesh;
pub mod readers;
pub mod writers;

pub use harness::{run_flash_io, FlashConfig, FlashResult, IoLibrary, OutputKind, Puts, WriteMode};
pub use mesh::BlockMesh;
