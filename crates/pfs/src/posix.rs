//! Single-client POSIX-style adapter.
//!
//! The serial netCDF baseline (Figure 6's first column) performs ordinary
//! blocking `read`/`write` system calls from one process. `PosixSim` wraps a
//! [`PfsFile`] with an internal clock, giving the serial library exactly
//! that interface while charging the same cost models. The clock is shared
//! between clones, so a benchmark can keep a handle to read elapsed time
//! while the library owns the storage.

use std::sync::Arc;

use parking_lot::Mutex;

use hpc_sim::Time;

use crate::file::PfsFile;

/// A blocking, single-client view of a PFS file. Clones share the clock
/// and the file.
#[derive(Clone)]
pub struct PosixSim {
    file: PfsFile,
    clock: Arc<Mutex<Time>>,
}

impl PosixSim {
    /// Wrap `file` with the clock at zero.
    pub fn new(file: PfsFile) -> PosixSim {
        PosixSim {
            file,
            clock: Arc::new(Mutex::new(Time::ZERO)),
        }
    }

    /// Blocking positional write; advances the clock.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        let mut t = self.clock.lock();
        *t = self.file.write_at(*t, offset, data);
    }

    /// Blocking positional read; advances the clock.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) {
        let mut t = self.clock.lock();
        *t = self.file.read_at(*t, offset, buf);
    }

    /// Current virtual time of this client.
    pub fn now(&self) -> Time {
        *self.clock.lock()
    }

    /// Set the clock (benchmark phase boundaries).
    pub fn set_now(&mut self, t: Time) {
        *self.clock.lock() = t;
    }

    /// Current file size.
    pub fn size(&self) -> u64 {
        self.file.size()
    }

    /// Borrow the underlying file.
    pub fn file(&self) -> &PfsFile {
        &self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filesystem::Pfs;
    use crate::storage::StorageMode;
    use hpc_sim::SimConfig;

    #[test]
    fn clock_accumulates_over_ops() {
        let fs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        let mut p = PosixSim::new(fs.create("f"));
        assert_eq!(p.now(), Time::ZERO);
        p.write_at(0, &[1; 2048]);
        let t1 = p.now();
        assert!(t1 > Time::ZERO);
        let mut buf = [0u8; 2048];
        p.read_at(0, &mut buf);
        assert!(p.now() > t1);
        assert_eq!(buf, [1; 2048]);
        assert_eq!(p.size(), 2048);
    }

    #[test]
    fn clones_share_the_clock() {
        let fs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        let mut p = PosixSim::new(fs.create("f"));
        let watcher = p.clone();
        p.write_at(0, &[0; 4096]);
        assert_eq!(watcher.now(), p.now());
        assert!(watcher.now() > Time::ZERO);
    }
}
