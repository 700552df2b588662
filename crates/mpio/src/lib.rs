//! MPI-IO: the parallel I/O layer PnetCDF is built on (paper §4.1).
//!
//! This crate is a ROMIO-shaped MPI-IO implementation over the simulated
//! parallel file system:
//!
//! * [`file::MpiFile`] — collective open/close, independent and collective
//!   read/write of run lists;
//! * [`runs`] — the run list `(offset, len)`: the flattened form ROMIO
//!   reduces every file view to, and the only one this crate is handed;
//! * [`sieve`] — **data sieving** for independent noncontiguous access;
//! * [`twophase`] — **two-phase collective I/O** with aggregator file
//!   domains and collective buffering;
//! * [`hints::Hints`] — the ROMIO hint set (`cb_buffer_size`, `cb_nodes`,
//!   `romio_cb_write`, `ind_rd_buffer_size`, ...).
//!
//! These are the two optimizations the paper credits for PnetCDF's
//! performance ("we benefit from ... data sieving and two-phase I/O in
//! ROMIO, which we would otherwise need to implement ourselves").

pub mod cache;
pub mod error;
pub mod file;
pub mod hints;
pub mod recover;
pub mod runs;
pub mod sieve;
pub mod twophase;

pub use cache::{CacheLedger, PageCache};
pub use error::{MpioError, MpioResult};
pub use file::{MpiFile, OpenMode};
pub use hints::{Hints, Toggle};
pub use recover::RetryPolicy;
pub use runs::Run;
