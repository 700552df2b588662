//! The netCDF classic file format (CDF-1 and CDF-2), from scratch.
//!
//! PnetCDF's design premise (paper §4) is that it "retains the original
//! netCDF file format (version 3)": a single self-describing header followed
//! by flat array data — fixed-size variables laid out contiguously in
//! definition order, record variables interleaved record by record along the
//! unlimited dimension (paper Figure 1). This crate implements that format:
//!
//! * [`xdr`] — the XDR-like big-endian encoding with 4-byte alignment;
//! * [`swap`] — chunked, width-specialized byteswap kernels shared by the
//!   whole byte path (codec fast paths, fused pack/unpack);
//! * [`types`] — the six external types and native-value conversion;
//! * [`header`] — header encode/decode (dimensions, attributes, variables);
//! * [`layout`] — `vsize`/`begin`/record-size computation, i.e. exactly the
//!   variable→file-offset math PnetCDF uses to build MPI file views.
//!
//! CDF-2 (the 64-bit-offset variant introduced by the PnetCDF project) is
//! supported alongside CDF-1.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod attr;
pub mod dim;
pub mod error;
pub mod header;
pub mod layout;
pub mod name;
pub mod swap;
pub mod types;
pub mod var;
pub mod xdr;

pub use attr::{Attr, AttrValue};
pub use dim::Dim;
pub use error::{FormatError, FormatResult};
pub use header::Header;
pub use layout::Layout;
pub use types::{NcType, NcValue};
pub use var::Var;

/// File format version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// Classic format, 32-bit offsets (`CDF\x01`).
    Cdf1,
    /// 64-bit offset format (`CDF\x02`).
    Cdf2,
}

impl Version {
    /// The byte following the `CDF` magic.
    pub fn magic_byte(self) -> u8 {
        match self {
            Version::Cdf1 => 1,
            Version::Cdf2 => 2,
        }
    }

    /// Parse the version byte.
    pub fn from_magic_byte(b: u8) -> Option<Version> {
        match b {
            1 => Some(Version::Cdf1),
            2 => Some(Version::Cdf2),
            _ => None,
        }
    }
}

/// Marker for the unlimited (record) dimension's length in `def_dim`.
pub const NC_UNLIMITED: u64 = 0;
