//! An in-process MPI substrate for the PnetCDF reproduction.
//!
//! The paper's PnetCDF is layered on MPI and MPI-IO. The `rsmpi` bindings
//! lack dependable collective MPI-IO, and a reproduction must in any case run
//! on one machine — so this crate provides MPI semantics with **ranks as
//! threads** inside one process:
//!
//! * [`runtime::run_world`] plays the role of `mpirun -np P`;
//! * [`comm::Comm`] is the communicator handle (`MPI_COMM_WORLD`, `dup`,
//!   `split`, point-to-point, and the predefined collectives);
//! * [`datatype::Datatype`] implements MPI derived datatypes, with
//!   [`mod@flatten`]-ing and [`mod@pack`]-ing exactly as a ROMIO-style MPI-IO
//!   consumes them;
//! * [`info::Info`] is `MPI_Info`, the hint mechanism PnetCDF extends.
//!
//! Data really moves between rank buffers (so upper layers are correct,
//! byte-for-byte), while time is charged to the virtual clocks of
//! [`hpc_sim`] (so performance results are deterministic).

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod collective;
pub mod comm;
pub mod datatype;
pub mod error;
pub mod flatten;
pub mod info;
pub mod op;
pub mod p2p;
pub mod pack;
pub mod request;
pub mod runtime;

pub use collective::Loan;
pub use comm::{CollEnv, Comm};
pub use datatype::{BaseType, Datatype};
pub use error::{MpiError, MpiResult};
pub use flatten::{flatten, flatten_n, Segment};
pub use info::Info;
pub use op::{ReduceOp, Reducible, Scalar};
pub use p2p::{Status, ANY_SOURCE, ANY_TAG};
pub use request::{Request, RequestTable};
pub use runtime::{run_world, WorldRun};
