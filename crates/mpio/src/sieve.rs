//! Data sieving for independent noncontiguous access (Thakur, Gropp & Lusk,
//! "Data Sieving and Collective I/O in ROMIO").
//!
//! Instead of issuing one small I/O request per noncontiguous piece, the
//! whole extent covering a group of pieces is transferred in one large
//! request and the useful bytes are picked out in memory. Writes become
//! read-modify-write of the extent. The extent processed at a time is
//! bounded by the `ind_rd_buffer_size` / `ind_wr_buffer_size` hints.
//!
//! Every request leaves through the PFS's two vectored doors
//! ([`recover::write()`], [`recover::read()`]) with one run and one segment: a
//! sieve reads its holes on purpose, and an unsieved access keeps one
//! request per run, in either direction.

use hpc_sim::Time;
use pnetcdf_pfs::PfsFile;

use crate::error::MpioResult;
use crate::recover::{self, RetryPolicy};
use crate::runs::Run;

/// The sieve windows of a run list: each holds the run pieces inside
/// `[wlo, wlo + buffer_size)`, where `wlo` is the first byte no earlier
/// window took — so a run longer than the buffer is split across windows
/// and the gaps between windows are never transferred.
struct Windows<'a> {
    runs: &'a [Run],
    buffer_size: u64,
    /// Current run, and the bytes of it earlier windows handled.
    idx: usize,
    consumed: u64,
    /// Position in the packed payload.
    pos: usize,
    /// The current window's pieces as `(file offset, length, payload
    /// position)`. Reused across windows — a multi-window access allocates
    /// once, not per window.
    pieces: Vec<(u64, usize, usize)>,
}

impl<'a> Windows<'a> {
    fn new(runs: &'a [Run], buffer_size: usize) -> Windows<'a> {
        Windows {
            runs,
            buffer_size: buffer_size as u64,
            idx: 0,
            consumed: 0,
            pos: 0,
            pieces: Vec::new(),
        }
    }

    /// Collect the next window's pieces; returns its extent `[wlo, whi)`,
    /// or `None` once every run is handled.
    fn advance(&mut self) -> Option<(u64, u64)> {
        let wlo = self.runs.get(self.idx)?.0 + self.consumed;
        let whi_limit = wlo + self.buffer_size;
        self.pieces.clear();
        let mut whi = wlo;
        while let Some(&(off, len)) = self.runs.get(self.idx) {
            let start = off + self.consumed;
            if start >= whi_limit {
                break;
            }
            let end = (off + len).min(whi_limit);
            let take = (end - start) as usize;
            self.pieces.push((start, take, self.pos));
            self.pos += take;
            whi = end;
            if end == off + len {
                self.idx += 1;
                self.consumed = 0;
            } else {
                self.consumed = end - off;
                break;
            }
        }
        Some((wlo, whi))
    }
}

/// Sieved (or direct) write of `runs` carrying `data` (packed in run
/// order). Returns the completion time.
///
/// `sieve` enables read-modify-write sieving; when disabled every run is
/// written with its own request (the "many small requests" behaviour the
/// paper's serialized baselines suffer from). Storage faults are recovered
/// by the bounded-retry policy in [`crate::recover`]; an exhausted budget
/// surfaces as [`crate::MpioError::Exhausted`].
pub fn write(
    file: &PfsFile,
    buffer_size: usize,
    sieve: bool,
    mut now: Time,
    runs: &[Run],
    data: &[u8],
) -> MpioResult<Time> {
    let policy = RetryPolicy::default();
    debug_assert_eq!(crate::runs::runs_total(runs) as usize, data.len());
    if runs.is_empty() {
        return Ok(now);
    }
    if runs.len() == 1 {
        return recover::write(file, &policy, now, runs, &[data]).map(|c| c.durable);
    }
    if !sieve {
        let mut pos = 0usize;
        for run in runs.chunks(1) {
            let bytes = &data[pos..pos + run[0].1 as usize];
            now = recover::write(file, &policy, now, run, &[bytes])?.durable;
            pos += bytes.len();
        }
        file.profile()
            .record_sieve(false, data.len() as u64, data.len() as u64);
        return Ok(now);
    }

    // Sieving: process the covered extent window by window, reusing the
    // RMW extent buffer across windows.
    let mut transferred = 0u64; // bytes moved to/from the file system
    let mut windows = Windows::new(runs, buffer_size);
    let mut extent: Vec<u8> = Vec::new();
    while let Some((wlo, whi)) = windows.advance() {
        if let [(off, len, dpos)] = windows.pieces[..] {
            transferred += len as u64;
            let run = [(off, len as u64)];
            now = recover::write(file, &policy, now, &run, &[&data[dpos..dpos + len]])?.durable;
            continue;
        }
        // Read-modify-write the extent [wlo, whi). The reused buffer needs
        // no re-zeroing: a read fills every byte it is handed (zeros beyond
        // EOF).
        let span = (whi - wlo) as usize;
        transferred += 2 * span as u64; // read the extent, write it back
        if extent.len() < span {
            extent.resize(span, 0);
        }
        let buf = &mut extent[..span];
        let extent_run = [(wlo, span as u64)];
        now = recover::read(file, &policy, now, &extent_run, &mut [&mut *buf])?;
        for &(off, len, dpos) in &windows.pieces {
            let lo = (off - wlo) as usize;
            buf[lo..lo + len].copy_from_slice(&data[dpos..dpos + len]);
        }
        now = recover::write(file, &policy, now, &extent_run, &[buf])?.durable;
    }
    file.profile()
        .record_sieve(false, transferred, data.len() as u64);
    Ok(now)
}

/// Sieved (or direct) read of `runs` into `out`, which holds exactly the
/// runs' bytes packed in run order; every byte of it is overwritten.
/// Returns the completion time.
pub fn read(
    file: &PfsFile,
    buffer_size: usize,
    sieve: bool,
    mut now: Time,
    runs: &[Run],
    out: &mut [u8],
) -> MpioResult<Time> {
    let policy = RetryPolicy::default();
    let total = out.len();
    debug_assert_eq!(crate::runs::runs_total(runs) as usize, total);
    if runs.is_empty() {
        return Ok(now);
    }
    if runs.len() == 1 {
        return recover::read(file, &policy, now, runs, &mut [out]);
    }
    if !sieve {
        let mut pos = 0usize;
        for run in runs.chunks(1) {
            let bytes = &mut out[pos..pos + run[0].1 as usize];
            pos += bytes.len();
            now = recover::read(file, &policy, now, run, &mut [bytes])?;
        }
        file.profile()
            .record_sieve(true, total as u64, total as u64);
        return Ok(now);
    }

    let mut transferred = 0u64;
    let mut windows = Windows::new(runs, buffer_size);
    let mut extent: Vec<u8> = Vec::new();
    while let Some((wlo, whi)) = windows.advance() {
        if let [(off, len, dpos)] = windows.pieces[..] {
            transferred += len as u64;
            let run = [(off, len as u64)];
            now = recover::read(file, &policy, now, &run, &mut [&mut out[dpos..dpos + len]])?;
            continue;
        }
        let span = (whi - wlo) as usize;
        transferred += span as u64;
        if extent.len() < span {
            extent.resize(span, 0);
        }
        let buf = &mut extent[..span];
        now = recover::read(file, &policy, now, &[(wlo, span as u64)], &mut [&mut *buf])?;
        for &(off, len, dpos) in &windows.pieces {
            let lo = (off - wlo) as usize;
            out[dpos..dpos + len].copy_from_slice(&buf[lo..lo + len]);
        }
    }
    file.profile().record_sieve(true, transferred, total as u64);
    Ok(now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::SimConfig;
    use pnetcdf_pfs::{Pfs, StorageMode};

    fn file() -> PfsFile {
        Pfs::new(SimConfig::test_small(), StorageMode::Full).create("s")
    }

    /// `read` into a fresh buffer of the runs' size.
    fn read_vec(
        f: &PfsFile,
        buffer_size: usize,
        sieve: bool,
        now: Time,
        runs: &[Run],
    ) -> (Vec<u8>, Time) {
        let mut out = vec![0xEEu8; crate::runs::runs_total(runs) as usize];
        let t = read(f, buffer_size, sieve, now, runs, &mut out).unwrap();
        (out, t)
    }

    #[test]
    fn sieved_write_then_read_roundtrip() {
        let f = file();
        let runs: Vec<Run> = vec![(10, 4), (20, 4), (30, 4)];
        let data: Vec<u8> = (1..=12).collect();
        write(&f, 1024, true, Time::ZERO, &runs, &data).unwrap();
        let (got, _) = read_vec(&f, 1024, true, Time::ZERO, &runs);
        assert_eq!(got, data);
        // Holes are untouched (zero).
        let mut hole = [9u8; 6];
        f.peek_at(14, &mut hole);
        assert_eq!(hole, [0; 6]);
    }

    #[test]
    fn sieved_write_preserves_existing_holes() {
        let f = file();
        f.write_at(Time::ZERO, 0, &[7u8; 64]);
        // Overwrite two pieces; the bytes between must stay 7.
        write(
            &f,
            1024,
            true,
            Time::ZERO,
            &[(4, 2), (10, 2)],
            &[1, 1, 2, 2],
        )
        .unwrap();
        let mut buf = [0u8; 16];
        f.peek_at(0, &mut buf);
        assert_eq!(buf, [7, 7, 7, 7, 1, 1, 7, 7, 7, 7, 2, 2, 7, 7, 7, 7]);
    }

    #[test]
    fn unsieved_write_matches_sieved_bytes() {
        let runs: Vec<Run> = vec![(0, 3), (8, 3), (100, 3)];
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];

        let f1 = file();
        write(&f1, 1024, true, Time::ZERO, &runs, &data).unwrap();
        let f2 = file();
        write(&f2, 1024, false, Time::ZERO, &runs, &data).unwrap();
        assert_eq!(f1.to_bytes(), f2.to_bytes());
    }

    #[test]
    fn sieving_issues_fewer_requests() {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        let requests = || cfg.profile.snapshot().server_totals().requests;
        let runs: Vec<Run> = (0..64u64).map(|i| (i * 8, 2)).collect();
        let data = vec![5u8; 128];

        let pfs1 = Pfs::new(cfg.clone(), StorageMode::Full);
        let t_sieved = write(&pfs1.create("a"), 4096, true, Time::ZERO, &runs, &data).unwrap();
        let reqs_sieved = requests();

        let pfs2 = Pfs::new(cfg.clone(), StorageMode::Full);
        let t_direct = write(&pfs2.create("b"), 4096, false, Time::ZERO, &runs, &data).unwrap();
        let reqs_direct = requests() - reqs_sieved;

        assert!(reqs_sieved < reqs_direct);
        assert!(t_sieved < t_direct);
    }

    #[test]
    fn window_boundary_splits_runs() {
        // A run longer than the sieve buffer must be split across windows.
        let f = file();
        let runs: Vec<Run> = vec![(0, 100), (200, 100)];
        let data: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        write(&f, 64, true, Time::ZERO, &runs, &data).unwrap();
        let (got, _) = read_vec(&f, 64, true, Time::ZERO, &runs);
        assert_eq!(got, data);
    }

    #[test]
    fn empty_request_is_noop() {
        let f = file();
        let t = write(&f, 1024, true, Time::from_millis(1), &[], &[]).unwrap();
        assert_eq!(t, Time::from_millis(1));
        let (d, t) = read_vec(&f, 1024, true, Time::from_millis(1), &[]);
        assert!(d.is_empty());
        assert_eq!(t, Time::from_millis(1));
    }
}
