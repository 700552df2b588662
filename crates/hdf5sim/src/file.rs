//! The HDF5-sim file object: collective create/open and the dispersed
//! metadata bookkeeping.

use pnetcdf_mpi::{Comm, Info};
use pnetcdf_mpio::{MpiFile, OpenMode};
use pnetcdf_pfs::Pfs;

use crate::dataset::H5Dataset;
use crate::error::{H5Error, H5Result};
use crate::format::{
    decode_symbols, encode_symbols, object_header_size, H5Type, ObjectHeader, Superblock,
    SymbolEntry, SUPERBLOCK_SIZE,
};

/// An open HDF5-sim file (per rank).
pub struct H5File {
    pub(crate) comm: Comm,
    pub(crate) file: MpiFile,
    pub(crate) sb: Superblock,
    pub(crate) symbols: Vec<SymbolEntry>,
    pub(crate) readonly: bool,
}

impl H5File {
    /// Collectively create a file.
    pub fn create(comm: &Comm, pfs: &Pfs, name: &str, info: &Info) -> H5Result<H5File> {
        let file = MpiFile::open(comm, pfs, name, OpenMode::Create, info)?;
        let sb = Superblock {
            root_addr: SUPERBLOCK_SIZE,
            eof: SUPERBLOCK_SIZE,
            nobjects: 0,
        };
        let h5 = H5File {
            comm: comm.clone(),
            file,
            sb,
            symbols: Vec::new(),
            readonly: false,
        };
        if comm.rank() == 0 {
            h5.write_superblock()?;
        }
        comm.barrier()?;
        Ok(h5)
    }

    /// Collectively open an existing file: rank 0 chases superblock and
    /// symbol table, then broadcasts.
    pub fn open(
        comm: &Comm,
        pfs: &Pfs,
        name: &str,
        readonly: bool,
        info: &Info,
    ) -> H5Result<H5File> {
        let mode = if readonly {
            OpenMode::ReadOnly
        } else {
            OpenMode::ReadWrite
        };
        let file = MpiFile::open(comm, pfs, name, mode, info)?;
        let payload = if comm.rank() == 0 {
            let mut sb_bytes = vec![0u8; SUPERBLOCK_SIZE as usize];
            file.read_runs_into(&[(0, SUPERBLOCK_SIZE)], &mut sb_bytes)?;
            let sb = Superblock::decode(&sb_bytes)?;
            // Read the symbol table block (everything from root_addr to eof
            // can contain it; read generously up to 1 MiB).
            let max = (file.size().saturating_sub(sb.root_addr)).min(1 << 20) as usize;
            let mut sym_bytes = vec![0u8; max];
            if max > 0 {
                file.read_runs_into(&[(sb.root_addr, max as u64)], &mut sym_bytes)?;
            }
            let mut out = sb_bytes;
            out.extend_from_slice(&sym_bytes);
            comm.bcast_bytes(0, out)?
        } else {
            comm.bcast_bytes(0, Vec::new())?
        };
        let sb = Superblock::decode(&payload[..SUPERBLOCK_SIZE as usize])?;
        let symbols = decode_symbols(&payload[SUPERBLOCK_SIZE as usize..], sb.nobjects as usize)?;
        Ok(H5File {
            comm: comm.clone(),
            file,
            sb,
            symbols,
            readonly,
        })
    }

    fn write_superblock(&self) -> H5Result<()> {
        self.write_meta(0, &self.sb.encode())
    }

    /// One independent metadata write: `bytes` (never empty) at `addr`.
    pub(crate) fn write_meta(&self, addr: u64, bytes: &[u8]) -> H5Result<()> {
        self.file
            .write_runs_at(&[(addr, bytes.len() as u64)], bytes)?;
        Ok(())
    }

    /// Collectively create a dataset with a contiguous layout. Involves
    /// three dispersed metadata writes (object header, new symbol table,
    /// superblock) by rank 0 plus a broadcast and synchronization — the
    /// per-object cost the paper contrasts with netCDF's single header.
    pub fn create_dataset(
        &mut self,
        name: &str,
        dtype: H5Type,
        dims: &[u64],
    ) -> H5Result<H5Dataset> {
        if self.symbols.iter().any(|s| s.name == name) {
            return Err(H5Error::InvalidArgument(format!(
                "dataset '{name}' already exists"
            )));
        }
        // Allocation: data block, then the object header, then a fresh copy
        // of the grown symbol table (the old copy becomes dead space, as
        // with real HDF5's extended blocks).
        let data_addr = (self.sb.eof + 7) & !7;
        let oh = ObjectHeader {
            dtype,
            dims: dims.to_vec(),
            data_addr,
            mtime: 0,
        };
        let header_addr = data_addr + oh.nbytes();
        self.symbols.push(SymbolEntry {
            name: name.to_string(),
            header_addr,
        });
        let sym_addr = header_addr + object_header_size(dims.len());
        let sym_bytes = encode_symbols(&self.symbols);
        self.sb = Superblock {
            root_addr: sym_addr,
            eof: sym_addr + sym_bytes.len() as u64,
            nobjects: self.symbols.len() as u32,
        };

        if self.comm.rank() == 0 {
            self.write_meta(header_addr, &oh.encode())?;
            self.write_meta(sym_addr, &sym_bytes)?;
            self.write_superblock()?;
            // Reserve the data region so the file has its final size.
            self.file.raw().grow_to(header_addr);
        }
        // Everyone must agree on the new allocation state before use.
        self.comm.barrier()?;
        Ok(H5Dataset {
            name: name.to_string(),
            header_addr,
            header: oh,
            xfer: Default::default(),
            attributes: Vec::new(),
        })
    }

    /// Collectively open a dataset by name. Rank 0 re-reads the superblock,
    /// iterates the namespace, and fetches the object header; the result is
    /// broadcast ("it has to iterate through the entire namespace to get
    /// the header information of that object").
    pub fn open_dataset(&mut self, name: &str) -> H5Result<H5Dataset> {
        let pos = self
            .symbols
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| H5Error::NotFound(format!("dataset '{name}'")))?;
        let header_addr = self.symbols[pos].header_addr;

        let payload = if self.comm.rank() == 0 {
            // Namespace iteration: one metadata read for the symbol table,
            // a lookup cost per entry scanned, one read for the header.
            let cfg = self.comm.config().clone();
            self.comm.advance(cfg.cpu.metadata_ops(pos + 1));
            // (An open file holds its superblock, so the probe is never
            // empty.)
            let mut sym_probe = vec![0u8; 64.min(self.file.size() as usize)];
            let probe = (self.sb.root_addr, sym_probe.len() as u64);
            self.file.read_runs_into(&[probe], &mut sym_probe)?;

            let hsize = 24 + 8 * 16; // generous: up to 16 dims
            let mut hdr = vec![0u8; hsize];
            self.file
                .read_runs_into(&[(header_addr, hsize as u64)], &mut hdr)?;
            self.comm.bcast_bytes(0, hdr)?
        } else {
            self.comm.bcast_bytes(0, Vec::new())?
        };
        let header = ObjectHeader::decode(&payload)?;
        Ok(H5Dataset {
            name: name.to_string(),
            header_addr,
            header,
            xfer: Default::default(),
            attributes: Vec::new(),
        })
    }

    /// Reserve `bytes` of metadata space at the end of file; every rank
    /// tracks the allocation so the superblock stays consistent.
    pub(crate) fn allocate_metadata_block(&mut self, bytes: u64) -> u64 {
        let addr = (self.sb.eof + 7) & !7;
        self.sb.eof = addr + bytes;
        addr
    }

    /// Names of all datasets.
    pub fn dataset_names(&self) -> Vec<String> {
        self.symbols.iter().map(|s| s.name.clone()).collect()
    }

    /// Collectively close the file: flush the superblock and synchronize.
    pub fn close(self) -> H5Result<()> {
        if self.comm.rank() == 0 && !self.readonly {
            self.write_superblock()?;
        }
        self.file.sync()?;
        Ok(())
    }

    /// The communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }
}
