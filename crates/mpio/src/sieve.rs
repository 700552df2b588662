//! Data sieving for independent noncontiguous access (Thakur, Gropp & Lusk,
//! "Data Sieving and Collective I/O in ROMIO"), and the window steps that
//! two-phase I/O shares with it.
//!
//! Instead of issuing one small I/O request per noncontiguous piece, the
//! whole extent covering a group of pieces is transferred in one large
//! request and the useful bytes are picked out in memory. Writes become
//! read-modify-write of the extent. The extent processed at a time is
//! bounded by the `ind_rd_buffer_size` / `ind_wr_buffer_size` hints.
//!
//! A sieve window and a two-phase window are one thing to the file: pieces
//! of one or more ranks' requests inside some extents. Both take the same
//! two steps, on the open file's one buffer, [`CollBuf`].
//! `CollBuf::write_window` reads the spans with holes back to back with
//! one read, then writes every span with one gather list
//! (`SpanScratch::write`): the pieces' bytes from the payload, in host
//! byte order, only the holes from the buffer. `CollBuf::read_window`
//! reads the span with one scatter list (`SpanScratch::read`): the pieces'
//! bytes land in the caller's memory, and only holes and shared bytes pass
//! through the buffer. Unsieved (`romio_ds_*=disable`), every run is a
//! window of its own: one request per run, in either direction.
//!
//! The buffer is also the sieve's extent lock. An independent access of
//! more than one run holds it for the whole call, as ROMIO locks the extent
//! of a data-sieving write, so no peer's sieved write can fall between a
//! window's read and its write-back; a collective's finisher holds it for
//! the collective. Its limits: a one-run access is one request from (or
//! into) the caller's memory and takes neither buffer nor lock, as ROMIO's
//! contiguous write takes none; and the lock belongs to one open, so it
//! orders the handles of one `MPI_File_open`, not two opens of one file.

use std::slice::from_ref;

use hpc_sim::Time;
use pnetcdf_pfs::{PfsFile, Seg, WriteCompletion};

use crate::cache::recycle;
use crate::error::MpioResult;
use crate::recover::{self, RetryPolicy};
use crate::runs::{coalesce, runs_total, Run};
use crate::twophase::Req;

/// The sieve windows of a run list: each holds the run pieces inside
/// `[wlo, wlo + buffer_size)`, where `wlo` is the first byte no earlier
/// window took — so a run longer than the buffer is split across windows
/// and the gaps between windows are never transferred. Without a buffer
/// size (unsieved) a window is one run.
struct Windows<'a> {
    runs: &'a [Run],
    buffer_size: Option<u64>,
    /// What a window allocates if the buffer is short: the buffer size, or
    /// the runs' extent when that is smaller.
    cap: usize,
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
    /// The windows of `runs`: sieved through a buffer of `buffer_size`
    /// when `sieve` and there is more than one run, else one per run.
    fn new(runs: &'a [Run], sieve: bool, buffer_size: usize) -> Windows<'a> {
        let extent = runs.last().map_or(0, |&(off, len)| off + len - runs[0].0);
        Windows {
            runs,
            buffer_size: (sieve && runs.len() > 1).then_some(buffer_size as u64),
            cap: extent.min(buffer_size as u64) as usize,
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
        let whi_limit = self.buffer_size.map_or(u64::MAX, |size| wlo + size);
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
                if self.buffer_size.is_none() {
                    break;
                }
            } else {
                self.consumed = end - off;
                break;
            }
        }
        Some((wlo, whi))
    }
}

/// Sieved (or direct) write of `payload` through the open file's buffer
/// `buf`: its runs (`meta`) carrying its gather list (`src`, elements `aux`
/// bytes wide in host byte order, as a two-phase write receives them; the
/// PFS converts them as it stores them). Returns the completion time.
///
/// `sieve` enables read-modify-write sieving; when disabled every run is
/// written with its own request (the "many small requests" behaviour the
/// paper's serialized baselines suffer from). Every window is written by
/// `CollBuf::write_window`. One run from one segment is written straight
/// from it, with no buffer. Storage faults are recovered by the
/// bounded-retry policy in [`crate::recover`]; an exhausted budget surfaces
/// as [`crate::MpioError::Exhausted`].
pub fn write(
    file: &PfsFile,
    buf: &mut CollBuf,
    buffer_size: usize,
    sieve: bool,
    mut now: Time,
    payload: &Req<'_>,
) -> MpioResult<Time> {
    let runs = payload.meta;
    let total = runs_total(runs);
    debug_assert_eq!(total as usize, payload.src.iter().map(|s| s.len()).sum());
    if let ([run], &[seg]) = (runs, payload.src) {
        let seg = Seg::native(seg, (payload.aux as usize).max(1), 0, seg.len());
        let policy = RetryPolicy::default();
        return recover::write(file, &policy, now, from_ref(run), &[seg]).map(|c| c.durable);
    }
    let mut transferred = 0u64; // bytes moved to/from the file system
    let mut windows = Windows::new(runs, sieve, buffer_size);
    while let Some((wlo, whi)) = windows.advance() {
        let (cap, extent) = (windows.cap, [(wlo, whi - wlo)]);
        let pieces = &mut windows.pieces;
        let w = buf.write_window(file, now, cap, pieces, &extent, from_ref(payload))?;
        // A window with holes reads its extent and writes it back.
        transferred += (whi - wlo) * (1 + w.read.is_some() as u64);
        now = w.done.durable;
    }
    if runs.len() > 1 {
        file.profile().record_sieve(false, transferred, total);
    }
    Ok(now)
}

/// Sieved (or direct) read of `runs` into `out` through the open file's
/// buffer `buf`; `out` holds exactly the runs' bytes packed in run order,
/// and every byte of it is overwritten. Every window is read by
/// `CollBuf::read_window`; one run is read straight into `out`. Returns
/// the completion time.
pub fn read(
    file: &PfsFile,
    buf: &mut CollBuf,
    buffer_size: usize,
    sieve: bool,
    mut now: Time,
    runs: &[Run],
    out: &mut [u8],
) -> MpioResult<Time> {
    let total = out.len();
    debug_assert_eq!(runs_total(runs) as usize, total);
    if let [_] = runs {
        return recover::read(file, &RetryPolicy::default(), now, runs, &mut [out]);
    }
    let mut transferred = 0u64;
    let mut windows = Windows::new(runs, sieve, buffer_size);
    while let Some((wlo, whi)) = windows.advance() {
        transferred += whi - wlo;
        let (cap, pieces) = (windows.cap, &mut windows.pieces);
        now = buf.read_window(file, now, cap, pieces, [&mut *out])?.0;
    }
    if !runs.is_empty() {
        file.profile().record_sieve(true, transferred, total as u64);
    }
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
/// every byte straight from where it is, is [`SpanScratch::write`]. Kept in
/// the open file's [`CollBuf`], so that its windows allocate once, not per
/// window or per call; the scatter and gather lists and the copies are kept
/// empty and re-typed for each window ([`recycle`]).
#[derive(Default)]
struct SpanScratch {
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
    fn spill(&mut self, pieces: &mut [Piece]) -> usize {
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
    fn read<'b>(
        &mut self,
        file: &PfsFile,
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
        let done = recover::read(
            file,
            &RetryPolicy::default(),
            now,
            &[(lo, end - lo)],
            &mut lent[whole..],
        );
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
    fn write<'b>(
        &mut self,
        file: &PfsFile,
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
        let done = recover::write(file, &RetryPolicy::default(), now, spans, &list);
        self.gather = recycle(list);
        done
    }
}

/// The open file's one window buffer: the aggregators' collective buffer,
/// and the sieve's extent. It belongs to the open file: the
/// [`crate::MpiFile`] handles of one open share it, and it lives until the
/// last handle closes. Whoever windows on it holds its lock for the whole
/// call — the finisher of each collective on the file, an independent
/// access of more than one run — so the lock is also the sieve's extent
/// lock (see the module doc). It is allocated at the first window that
/// needs it and reused by every later window of every later call, growing
/// only when a window asks for more than it holds. (The finisher runs the
/// aggregators' windows one at a time, so one buffer stands for each
/// aggregator's own.) A write window holds only its spans with holes in
/// them, a read window only its holes and the bytes more than one piece
/// wants, so an open whose windows have neither never allocates it.
///
/// Reuse rule: a window never clears the buffer, so **every byte handed to
/// the PFS comes from a piece's payload or from this window's
/// read-modify-write read** — a holed span is read whole, and only its
/// holes are taken from the buffer — and every byte a reader is copied out
/// of it was delivered there by this window's read. Nothing of an earlier
/// window can show through, whichever call that window belonged to.
#[derive(Default)]
pub struct CollBuf {
    pub(crate) bytes: Vec<u8>,
    /// Scratch reused across windows: the merged piece coverage, the spans
    /// a write window hands to the PFS and those of them with holes, and
    /// the scatter and gather lists.
    coverage: Vec<Run>,
    spans: Vec<Run>,
    holed: Vec<Run>,
    span: SpanScratch,
}

/// The first `need` bytes of the buffer, allocating it if no window of this
/// open file has yet needed as many, and whether it was there already.
/// `cap` is what a call allocates when it has to: `cb_buffer_size` or the
/// sieve's buffer size, or the call's whole span when that is smaller; only
/// a two-phase window of one stripe larger than `cb_buffer_size` ever needs
/// more.
pub(crate) fn window_buf(bytes: &mut Vec<u8>, cap: usize, need: usize) -> (&mut [u8], bool) {
    let reused = bytes.len() >= need;
    if !reused {
        // Out with the old one first: the two are never alive together.
        *bytes = Vec::new();
        *bytes = vec![0u8; need.max(cap)];
    }
    (&mut bytes[..need], reused)
}

/// What `CollBuf::write_window` did: when its read-modify-write read
/// ended, if it had one; whether the buffer it needed was there already;
/// and its write's completion.
pub(crate) struct WindowWrite {
    pub read: Option<Time>,
    pub reused: bool,
    pub done: WriteCompletion,
}

impl CollBuf {
    /// Write one window at `now`: the `pieces` of `reqs` (in rank order)
    /// inside `extents`. Each extent the pieces touch contributes the
    /// bounding span of its pieces; untouched extents are skipped. The spans
    /// with holes are read back to back into the buffer first, all with one
    /// read; then the spans are written with one gather list that takes
    /// every byte a piece writes from its rank's payload and every hole from
    /// the buffer ([`SpanScratch::write`]). A window without holes reads
    /// nothing and needs no buffer. `cap` is as for [`window_buf`].
    pub(crate) fn write_window(
        &mut self,
        file: &PfsFile,
        now: Time,
        cap: usize,
        pieces: &mut [Piece],
        extents: &[Run],
        reqs: &[Req<'_>],
    ) -> MpioResult<WindowWrite> {
        let CollBuf {
            bytes,
            coverage,
            spans,
            holed,
            span,
        } = self;
        pieces.sort_unstable_by_key(|pc| pc.off);
        // The maximal contiguous intervals the pieces cover.
        coverage.clear();
        coverage.extend(pieces.iter().map(|pc| (pc.off, pc.len)));
        coalesce(coverage);
        // Coverage never bridges extents (no piece leaves them), so one
        // linear walk pairs them up. A span over more than one covered
        // interval has holes.
        spans.clear();
        holed.clear();
        let mut ci = 0usize;
        for &(elo, elen) in extents {
            let first = ci;
            while ci < coverage.len() && coverage[ci].0 + coverage[ci].1 <= elo + elen {
                debug_assert!(coverage[ci].0 >= elo, "coverage escapes its extent");
                ci += 1;
            }
            if ci > first {
                let blo = coverage[first].0;
                spans.push((blo, coverage[ci - 1].0 + coverage[ci - 1].1 - blo));
                if ci - first > 1 {
                    holed.push(*spans.last().unwrap());
                }
            }
        }
        let (buf, reused) = window_buf(bytes, cap, runs_total(holed) as usize);
        // What is under the holes is fetched, the holed spans whole and back
        // to back, all of them with one read.
        let policy = RetryPolicy::default();
        let read = (!holed.is_empty())
            .then(|| recover::read(file, &policy, now, holed, &mut [&mut *buf]))
            .transpose()?;
        let t = read.unwrap_or(now);
        let done = span.write(file, t, spans, pieces, reqs, (holed, buf))?;
        Ok(WindowWrite { read, reused, done })
    }

    /// Read one window at `now`: sort its `pieces` into file order, take
    /// the buffer their spill needs, and read their span into `dsts` (in
    /// rank order) with [`SpanScratch::read`]. Returns the completion time
    /// and whether the buffer was there already. `cap` is as for
    /// [`window_buf`].
    pub(crate) fn read_window<'b>(
        &'b mut self,
        file: &PfsFile,
        now: Time,
        cap: usize,
        pieces: &mut [Piece],
        dsts: impl IntoIterator<Item = &'b mut [u8]>,
    ) -> MpioResult<(Time, bool)> {
        let need = self.span.spill(pieces);
        let (spill, reused) = window_buf(&mut self.bytes, cap, need);
        let done = self.span.read(file, now, pieces, dsts, spill)?;
        Ok((done, reused))
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
        write(
            f,
            &mut CollBuf::default(),
            buffer_size,
            sieve,
            now,
            &payload,
        )
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
        let mut buf = CollBuf::default();
        let t = read(f, &mut buf, buffer_size, sieve, now, runs, &mut out).unwrap();
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
