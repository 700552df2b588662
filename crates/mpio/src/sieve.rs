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
//! ([`recover::write()`], [`recover::read()`]) with one run: a sieve reads
//! its holes on purpose, and an unsieved access keeps one request per run,
//! in either direction. A read hands the PFS a scatter list
//! ([`SpanScratch`], which the two-phase read window shares): the pieces'
//! bytes land in the caller's memory, and only the holes pass through a
//! buffer. A write is the mirror, the same for a sieve window as for a
//! two-phase one ([`SpanScratch::write`]): its gather list takes the pieces'
//! bytes from the payload, in host byte order, and only the holes from a
//! buffer.

use std::slice::from_ref;

use hpc_sim::Time;
use pnetcdf_pfs::{PfsFile, Seg, WriteCompletion};

use crate::cache::recycle;
use crate::error::MpioResult;
use crate::recover::{self, RetryPolicy};
use crate::runs::Run;
use crate::twophase::Req;

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
    pos: u64,
    /// The current window's pieces, in file order. Reused across windows —
    /// a multi-window access allocates once, not per window.
    pieces: Vec<Piece>,
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
            self.pieces.push(Piece {
                off: start,
                len: end - start,
                rank: 0,
                src_pos: self.pos,
            });
            self.pos += end - start;
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

/// Sieved (or direct) write of `payload`: its runs (`meta`) carrying its
/// gather list (`src`, elements `aux` bytes wide in host byte order, as a
/// two-phase write receives them; the PFS converts them as it stores them).
/// Returns the completion time.
///
/// `sieve` enables read-modify-write sieving; when disabled every run is
/// written with its own request (the "many small requests" behaviour the
/// paper's serialized baselines suffer from). A read-modify-write window
/// reads its extent and writes it back as one gather list: the pieces'
/// bytes from the payload, the holes from the extent it read. Storage faults
/// are recovered by the bounded-retry policy in [`crate::recover`]; an
/// exhausted budget surfaces as [`crate::MpioError::Exhausted`].
pub fn write(
    file: &PfsFile,
    buffer_size: usize,
    sieve: bool,
    mut now: Time,
    payload: &Req<'_>,
) -> MpioResult<Time> {
    let (policy, runs, lent) = (RetryPolicy::default(), payload.meta, from_ref(payload));
    let total = crate::runs::runs_total(runs);
    debug_assert_eq!(total as usize, payload.src.iter().map(|s| s.len()).sum());
    let mut scratch = SpanScratch::default();
    // One request for the bytes of `run`, lent from payload position `pos`:
    // a one-segment payload needs no gather list.
    let direct = |scratch: &mut SpanScratch, now, run: Run, pos: u64| {
        let done = match payload.src {
            &[seg] => {
                let width = (payload.aux as usize).max(1);
                let seg = Seg::native(seg, width, pos as usize, run.1 as usize);
                recover::write(file, &policy, now, &[run], &[seg])
            }
            _ => {
                let (off, len) = run;
                let pc = Piece {
                    off,
                    len,
                    rank: 0,
                    src_pos: pos,
                };
                scratch.write(file, &policy, now, &[run], &[pc], lent, (&[], &[]))
            }
        };
        done.map(|c| c.durable)
    };
    if !sieve || runs.len() <= 1 {
        let mut pos = 0;
        for &run in runs {
            now = direct(&mut scratch, now, run, pos)?;
            pos += run.1;
        }
        if runs.len() > 1 {
            file.profile().record_sieve(false, total, total);
        }
        return Ok(now);
    }

    // Sieving: process the covered extent window by window, reusing the
    // RMW extent buffer across windows.
    let mut transferred = 0u64; // bytes moved to/from the file system
    let mut windows = Windows::new(runs, buffer_size);
    let mut extent: Vec<u8> = Vec::new();
    while let Some((wlo, whi)) = windows.advance() {
        if let [pc] = windows.pieces[..] {
            transferred += pc.len;
            now = direct(&mut scratch, now, (pc.off, pc.len), pc.src_pos)?;
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
        let run = [(wlo, span as u64)];
        now = recover::read(file, &policy, now, &run, &mut [&mut extent[..span]])?;
        let (pieces, holes) = (&windows.pieces, (&run[..], &extent[..span]));
        now = scratch
            .write(file, &policy, now, &run, pieces, lent, holes)?
            .durable;
    }
    file.profile().record_sieve(false, transferred, total);
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
    let (mut scratch, mut holes) = (SpanScratch::default(), Vec::new());
    while let Some((wlo, whi)) = windows.advance() {
        transferred += whi - wlo;
        let need = scratch.spill(&mut windows.pieces);
        holes.resize(holes.len().max(need), 0);
        let out = [&mut *out];
        now = scratch.read(file, &policy, now, &windows.pieces, out, &mut holes[..need])?;
    }
    file.profile().record_sieve(true, transferred, total as u64);
    Ok(now)
}

/// A contiguous piece of one rank's request inside one window: a
/// two-phase window's, or a sieve window's (rank 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Piece {
    pub off: u64,
    pub len: u64,
    pub rank: usize,
    /// Position of this piece's bytes in the rank's packed buffer.
    pub src_pos: u64,
}

/// A spanning read that delivers every byte straight to where it is going:
/// [`SpanScratch::spill`] sizes the spill buffer a window's pieces need,
/// [`SpanScratch::read`] reads the window. Its mirror, a write that takes
/// every byte straight from where it is, is [`SpanScratch::write`]. Kept
/// from window to window, so that the windows of one access allocate once,
/// not per window; the scatter and gather lists and the copies are kept
/// empty and re-typed for each window ([`recycle`]).
#[derive(Default)]
pub(crate) struct SpanScratch {
    /// The pieces covering the sweep's position.
    live: Vec<usize>,
    /// Per rank: where the part of its destination not yet lent begins.
    at: Vec<u64>,
    scatter: Vec<&'static mut [u8]>,
    copies: Vec<(&'static mut [u8], usize)>,
    gather: Vec<Seg<'static>>,
    /// Per rank: the payload segment a write's sweep is in, and the payload
    /// position of its first byte.
    cursor: Vec<(usize, usize)>,
}

/// Walk the span the file-ordered `pieces` cover, cutting it wherever the
/// set of pieces covering a byte changes (at a piece's start or end), and
/// hand each segment to `emit` in file order with the pieces `live` on it:
/// one, whose bytes they are; none, a hole; or more, who share them.
/// Returns the end of the span.
fn sweep(pieces: &[Piece], live: &mut Vec<usize>, mut emit: impl FnMut(u64, u64, &[usize])) -> u64 {
    let end = |j: usize| pieces[j].off + pieces[j].len;
    let (mut x, mut i) = (pieces.first().map_or(0, |pc| pc.off), 0);
    loop {
        // Admit the pieces starting here: `i` moves past the last one.
        live.extend((i..pieces.len()).take_while(|&j| pieces[j].off <= x));
        i = live.last().map_or(i, |&j| i.max(j + 1));
        live.retain(|&j| end(j) > x);
        if live.is_empty() && i == pieces.len() {
            return x;
        }
        let next = pieces.get(i).map_or(u64::MAX, |pc| pc.off);
        let y = live.iter().map(|&j| end(j)).fold(next, u64::min);
        emit(x, y - x, live);
        x = y;
    }
}

/// Bytes `pos..pos + len` of a destination whose bytes before `*at` are
/// gone and whose rest is `slot`: `slot` and `at` move past them.
fn cut<'b>(slot: &mut &'b mut [u8], at: &mut u64, pos: u64, len: u64) -> &'b mut [u8] {
    let skip = pos - std::mem::replace(at, pos + len);
    let (seg, rest) = std::mem::take(slot)[skip as usize..].split_at_mut(len as usize);
    *slot = rest;
    seg
}

impl SpanScratch {
    /// Sort a window's `pieces` into file order and return how many bytes
    /// of its span go to the spill buffer: its holes, and the bytes more
    /// than one piece wants.
    pub(crate) fn spill(&mut self, pieces: &mut [Piece]) -> usize {
        pieces.sort_unstable_by_key(|pc| pc.off);
        let mut spilled = 0;
        sweep(pieces, &mut self.live, |_, len, live| {
            spilled += len as usize * (live.len() != 1) as usize
        });
        spilled
    }

    /// Read the span the file-ordered `pieces` cover with one request,
    /// delivering every byte straight to where it is going: a byte exactly
    /// one piece wants lands in its rank's destination (`dsts`, in rank
    /// order); the others land in `spill`, sized by [`Self::spill`], and
    /// each piece that shares bytes is copied its part after the read. The
    /// run list is the span however the bytes are scattered, so the
    /// request, its servers and its price are those of a read of the span
    /// into one buffer. Returns the completion time; `now` when there are
    /// no pieces.
    pub(crate) fn read<'b>(
        &mut self,
        file: &PfsFile,
        policy: &RetryPolicy,
        now: Time,
        pieces: &[Piece],
        dsts: impl IntoIterator<Item = &'b mut [u8]>,
        mut spill: &'b mut [u8],
    ) -> MpioResult<Time> {
        // The scatter list: every destination is lent whole first, so that
        // a piece's part can be cut from it whichever rank's it is; the
        // read is handed the segments after them, the copies kept apart.
        let mut lent = recycle(std::mem::take(&mut self.scatter));
        let mut copy = recycle(std::mem::take(&mut self.copies));
        lent.extend(dsts);
        let (at, whole) = (&mut self.at, lent.len());
        at.splice(.., std::iter::repeat_n(0, whole));
        let end = sweep(pieces, &mut self.live, |off, len, live| {
            let spilled = live.len() != 1;
            lent.extend(spilled.then(|| cut(&mut spill, &mut 0, 0, len)));
            for pc in live.iter().map(|&j| pieces[j]) {
                let pos = pc.src_pos + off - pc.off;
                let part = cut(&mut lent[pc.rank], &mut at[pc.rank], pos, len);
                match spilled {
                    true => copy.push((part, lent.len() - 1)),
                    false => lent.push(part),
                }
            }
        });
        let lo = pieces.first().map_or(end, |pc| pc.off);
        let done = recover::read(file, policy, now, &[(lo, end - lo)], &mut lent[whole..]);
        copy.drain(..).for_each(|(c, k)| c.copy_from_slice(lent[k]));
        (self.scatter, self.copies) = (recycle(lent), recycle(copy));
        done
    }

    /// Write the `spans` of the file-ordered `pieces` with one request whose
    /// gather list takes every byte from where it is: a byte pieces write
    /// from the payload `reqs` (in rank order) lend the highest rank among
    /// them, converted as it is stored; a hole from `holes`, where the
    /// spans of `holed` were read back to back. Bytes between the spans are
    /// not written. The request is that of the spans however the bytes are
    /// gathered, so its servers and its price are those of a write of the
    /// spans from one buffer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn write<'b>(
        &mut self,
        file: &PfsFile,
        policy: &RetryPolicy,
        now: Time,
        spans: &[Run],
        pieces: &[Piece],
        reqs: &[Req<'b>],
        (holed, holes): (&[Run], &'b [u8]),
    ) -> MpioResult<WriteCompletion> {
        let mut list: Vec<Seg<'b>> = recycle(std::mem::take(&mut self.gather));
        self.cursor
            .splice(.., std::iter::repeat_n((0, 0), reqs.len()));
        // The holed span at or after the sweep, and where it lies in `holes`.
        let (mut hi, mut base) = (0usize, 0usize);
        sweep(pieces, &mut self.live, |off, len, live| {
            let Some(pc) = live.iter().map(|&j| pieces[j]).max_by_key(|pc| pc.rank) else {
                while holed.get(hi).is_some_and(|&(o, l)| o + l <= off) {
                    base += holed[hi].1 as usize;
                    hi += 1;
                }
                if let Some(&(o, _)) = holed.get(hi).filter(|&&(o, _)| o <= off) {
                    let at = base + (off - o) as usize;
                    list.push(Seg::from(&holes[at..at + len as usize]));
                }
                return;
            };
            let (src, width) = (reqs[pc.rank].src, (reqs[pc.rank].aux as usize).max(1));
            let (si, seg0) = &mut self.cursor[pc.rank];
            let mut pos = (pc.src_pos + off - pc.off) as usize;
            let end = pos + len as usize;
            while pos < end {
                while pos >= *seg0 + src[*si].len() {
                    *seg0 += src[*si].len();
                    *si += 1;
                }
                let n = (*seg0 + src[*si].len()).min(end) - pos;
                list.push(Seg::native(src[*si], width, pos - *seg0, n));
                pos += n;
            }
        });
        let done = recover::write(file, policy, now, spans, &list);
        self.gather = recycle(list);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::SimConfig;
    use pnetcdf_pfs::{Pfs, StorageMode};

    fn file() -> PfsFile {
        Pfs::new(SimConfig::test_small(), StorageMode::Full).create("s")
    }

    /// `write` of bytes the file is to hold as they are.
    fn write_bytes(
        f: &PfsFile,
        buffer_size: usize,
        sieve: bool,
        now: Time,
        runs: &[Run],
        data: &[u8],
    ) -> MpioResult<Time> {
        let payload = Req {
            src: &[data],
            aux: 1,
            ..Req::describe(runs)
        };
        write(f, buffer_size, sieve, now, &payload)
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
        write_bytes(&f, 1024, true, Time::ZERO, &runs, &data).unwrap();
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
        write_bytes(
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
        write_bytes(&f1, 1024, true, Time::ZERO, &runs, &data).unwrap();
        let f2 = file();
        write_bytes(&f2, 1024, false, Time::ZERO, &runs, &data).unwrap();
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
        let t_sieved =
            write_bytes(&pfs1.create("a"), 4096, true, Time::ZERO, &runs, &data).unwrap();
        let reqs_sieved = requests();

        let pfs2 = Pfs::new(cfg.clone(), StorageMode::Full);
        let t_direct =
            write_bytes(&pfs2.create("b"), 4096, false, Time::ZERO, &runs, &data).unwrap();
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
        write_bytes(&f, 64, true, Time::ZERO, &runs, &data).unwrap();
        let (got, _) = read_vec(&f, 64, true, Time::ZERO, &runs);
        assert_eq!(got, data);
    }

    #[test]
    fn empty_request_is_noop() {
        let f = file();
        let t = write_bytes(&f, 1024, true, Time::from_millis(1), &[], &[]).unwrap();
        assert_eq!(t, Time::from_millis(1));
        let (d, t) = read_vec(&f, 1024, true, Time::from_millis(1), &[]);
        assert!(d.is_empty());
        assert_eq!(t, Time::from_millis(1));
    }
}
