//! On-disk structures of HDF5-sim: superblock, symbol table, object
//! headers.
//!
//! Deliberately simplified relative to real HDF5 (no B-trees or fractal
//! heaps), but with the property that matters for the comparison: metadata
//! is **dispersed** — the superblock points at a root symbol table, which
//! points at per-dataset object headers, which point at the data — so
//! operating on an object requires chasing and updating several small
//! blocks scattered through the file, where netCDF has exactly one header.

use crate::error::{H5Error, H5Result};

/// File magic.
pub const MAGIC: &[u8; 8] = b"\x89H5S\r\n\x1a\n";

/// Size of the encoded superblock.
pub const SUPERBLOCK_SIZE: u64 = 8 + 8 + 8 + 4;

/// Element type of a dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum H5Type {
    /// IEEE 754 single precision.
    F32,
    /// IEEE 754 double precision.
    F64,
    /// 32-bit signed integer.
    I32,
}

impl H5Type {
    /// Element size in bytes.
    pub fn size(self) -> u64 {
        match self {
            H5Type::F32 | H5Type::I32 => 4,
            H5Type::F64 => 8,
        }
    }

    fn code(self) -> u32 {
        match self {
            H5Type::F32 => 0,
            H5Type::F64 => 1,
            H5Type::I32 => 2,
        }
    }

    fn from_code(c: u32) -> H5Result<H5Type> {
        Ok(match c {
            0 => H5Type::F32,
            1 => H5Type::F64,
            2 => H5Type::I32,
            _ => return Err(H5Error::Corrupt(format!("unknown type code {c}"))),
        })
    }
}

/// The superblock: entry point of the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Address of the root group's symbol table block.
    pub root_addr: u64,
    /// End-of-file address (next allocation point).
    pub eof: u64,
    /// Number of entries in the root symbol table.
    pub nobjects: u32,
}

impl Superblock {
    /// Encode to fixed-size bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPERBLOCK_SIZE as usize);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.root_addr.to_be_bytes());
        out.extend_from_slice(&self.eof.to_be_bytes());
        out.extend_from_slice(&self.nobjects.to_be_bytes());
        out
    }

    /// Decode from the start of a file.
    pub fn decode(bytes: &[u8]) -> H5Result<Superblock> {
        if bytes.len() < SUPERBLOCK_SIZE as usize || &bytes[..8] != MAGIC {
            return Err(H5Error::Corrupt("bad superblock magic".into()));
        }
        Ok(Superblock {
            root_addr: u64::from_be_bytes(bytes[8..16].try_into().unwrap()),
            eof: u64::from_be_bytes(bytes[16..24].try_into().unwrap()),
            nobjects: u32::from_be_bytes(bytes[24..28].try_into().unwrap()),
        })
    }
}

/// One root symbol table entry: object name → object header address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolEntry {
    pub name: String,
    pub header_addr: u64,
}

/// Encode a symbol table (entry count is carried in the superblock).
pub fn encode_symbols(entries: &[SymbolEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entries {
        out.extend_from_slice(&(e.name.len() as u32).to_be_bytes());
        out.extend_from_slice(e.name.as_bytes());
        out.extend_from_slice(&e.header_addr.to_be_bytes());
    }
    out
}

/// Decode `n` symbol table entries. `n` is read from the file, so no more
/// are reserved than `bytes` can hold: an entry is at least 12 bytes, a
/// name length and an address.
pub fn decode_symbols(bytes: &[u8], n: usize) -> H5Result<Vec<SymbolEntry>> {
    let mut out = Vec::with_capacity(n.min(bytes.len() / 12));
    let mut pos = 0usize;
    for _ in 0..n {
        if pos + 4 > bytes.len() {
            return Err(H5Error::Corrupt("truncated symbol table".into()));
        }
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + len + 8 > bytes.len() {
            return Err(H5Error::Corrupt("truncated symbol entry".into()));
        }
        let name = String::from_utf8(bytes[pos..pos + len].to_vec())
            .map_err(|_| H5Error::Corrupt("symbol name not UTF-8".into()))?;
        pos += len;
        let header_addr = u64::from_be_bytes(bytes[pos..pos + 8].try_into().unwrap());
        pos += 8;
        out.push(SymbolEntry { name, header_addr });
    }
    Ok(out)
}

/// A dataset's object header: dataspace + datatype + contiguous layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectHeader {
    pub dtype: H5Type,
    pub dims: Vec<u64>,
    /// Address of the dataset's contiguous data block.
    pub data_addr: u64,
    /// Modification counter (bumped on every write — the metadata update
    /// the paper mentions happening during data writes).
    pub mtime: u64,
}

/// Fixed header prefix size; dims follow.
pub fn object_header_size(ndims: usize) -> u64 {
    4 + 4 + 8 + 8 + 8 * ndims as u64
}

impl ObjectHeader {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.dtype.code().to_be_bytes());
        out.extend_from_slice(&(self.dims.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.data_addr.to_be_bytes());
        out.extend_from_slice(&self.mtime.to_be_bytes());
        for &d in &self.dims {
            out.extend_from_slice(&d.to_be_bytes());
        }
        out
    }

    /// Decode.
    pub fn decode(bytes: &[u8]) -> H5Result<ObjectHeader> {
        if bytes.len() < 24 {
            return Err(H5Error::Corrupt("truncated object header".into()));
        }
        let dtype = H5Type::from_code(u32::from_be_bytes(bytes[..4].try_into().unwrap()))?;
        let ndims = u32::from_be_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let data_addr = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
        let mtime = u64::from_be_bytes(bytes[16..24].try_into().unwrap());
        if bytes.len() < 24 + 8 * ndims {
            return Err(H5Error::Corrupt("truncated dataspace".into()));
        }
        let dims = (0..ndims)
            .map(|i| u64::from_be_bytes(bytes[24 + 8 * i..32 + 8 * i].try_into().unwrap()))
            .collect();
        Ok(ObjectHeader {
            dtype,
            dims,
            data_addr,
            mtime,
        })
    }

    /// Total elements.
    pub fn nelems(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Total data bytes.
    pub fn nbytes(&self) -> u64 {
        self.nelems() * self.dtype.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            root_addr: 28,
            eof: 123456,
            nobjects: 7,
        };
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
        assert_eq!(sb.encode().len() as u64, SUPERBLOCK_SIZE);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(Superblock::decode(&[0u8; 28]).is_err());
    }

    #[test]
    fn symbols_roundtrip() {
        let entries = vec![
            SymbolEntry {
                name: "dens".into(),
                header_addr: 100,
            },
            SymbolEntry {
                name: "pressure".into(),
                header_addr: 260,
            },
        ];
        let bytes = encode_symbols(&entries);
        assert_eq!(decode_symbols(&bytes, 2).unwrap(), entries);
        assert!(decode_symbols(&bytes[..5], 2).is_err());
    }

    #[test]
    fn object_header_roundtrip() {
        let oh = ObjectHeader {
            dtype: H5Type::F64,
            dims: vec![80, 8, 8, 8],
            data_addr: 4096,
            mtime: 3,
        };
        let bytes = oh.encode();
        assert_eq!(bytes.len() as u64, object_header_size(4));
        assert_eq!(ObjectHeader::decode(&bytes).unwrap(), oh);
        assert_eq!(oh.nelems(), 80 * 512);
        assert_eq!(oh.nbytes(), 80 * 512 * 8);
    }

    #[test]
    fn type_sizes() {
        assert_eq!(H5Type::F32.size(), 4);
        assert_eq!(H5Type::F64.size(), 8);
        assert_eq!(H5Type::I32.size(), 4);
    }
}
