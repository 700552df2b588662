//! File handles: timed striped reads and writes, plus untimed export/import.
//!
//! There is one timed door per direction, and the two mirror each other.
//! Each takes a run list on the file side (one run when contiguous) and a
//! segment list on the memory side. The write door, [`PfsFile::try_write`],
//! takes a gather list: the payload is the concatenation of the segments
//! it is lent ([`Seg`]), which the servers copy from as they walk their
//! chunks. A segment names whole elements in host byte order and their
//! width, and the copy into stripe memory converts them to the file's
//! big-endian form, so a payload is copied once, where it is stored; a
//! segment of width 1 is copied as it is. The read door,
//! [`PfsFile::try_read`], takes a scatter list, which the servers fill in
//! the same way. So noncontiguous memory (page slots, the ranks' payloads)
//! and noncontiguous file regions (a collective window, a page's gaps) move
//! as one request per server without a bounce copy. Both doors drive one
//! server path, [`crate::server::Server::serve`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{FaultKind, IoStages, Span, Time, TraceCtx};
use pnetcdf_format::swap::swap_copy;

use crate::filesystem::Pfs;
use crate::meta::FileRecord;
use crate::retry::{ladder, RetryPolicy};
use crate::server::{Op, ServiceOutcome};
use crate::storage::StripeStore;
use crate::stripe::{PortionChunks, StripeChunk};

/// A failed timed I/O request against the PFS.
///
/// Requests are issued per server in file order and stop at the first
/// fault, so `completed` is a contiguous prefix of the request: a recovery
/// layer can resume at `offset + completed`.
#[derive(Clone, Copy, Debug)]
pub struct IoFailure {
    /// The injected fault that stopped the request.
    pub kind: FaultKind,
    /// Bytes (contiguous, in file order) transferred before the fault.
    pub completed: u64,
    /// Virtual time at which the failure was detected by the client.
    pub time: Time,
    /// Index of the faulting server.
    pub server: usize,
}

/// Completion times of a successful timed write, separating the two
/// acknowledgement points of the dual-resource servers.
#[derive(Clone, Copy, Debug)]
pub struct WriteCompletion {
    /// Every server's NIC has received its portion: the servers own the
    /// bytes (bounded by their admission queues) and the client may reuse
    /// its buffer and move on.
    pub handoff: Time,
    /// Every server's disk has retired its portion: the write is durable.
    /// Always `>= handoff`.
    pub durable: Time,
}

/// One segment of a write's gather list: the payload bytes `[phase, phase +
/// len)` of the big-endian form of `data`, whole elements `width` bytes wide
/// (1, 2, 4 or 8) in host byte order. `data` begins with the element that
/// holds the first payload byte and ends with the one that holds the last,
/// so a segment cut inside an element (by a collective window, a stripe or a
/// resumed short write) still names that element whole. A segment of bytes
/// the file is to hold as they are has width 1 ([`Seg::from`]).
#[derive(Clone, Copy, Debug)]
pub struct Seg<'a> {
    data: &'a [u8],
    len: usize,
    width: u32,
    phase: u32,
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for Seg<'a> {
    fn from(data: &'a T) -> Seg<'a> {
        Seg::native(data.as_ref(), 1, 0, data.as_ref().len())
    }
}

impl<'a> Seg<'a> {
    /// The payload bytes `[pos, pos + len)` of the big-endian form of
    /// `native`, whole `width`-byte elements in host byte order.
    pub fn native(native: &'a [u8], width: usize, pos: usize, len: usize) -> Seg<'a> {
        debug_assert!(width.is_power_of_two() && width <= 8 && native.len() % width == 0);
        let (lo, hi) = (pos & !(width - 1), (pos + len + width - 1) & !(width - 1));
        Seg {
            data: &native[lo..hi],
            len,
            width: width as u32,
            phase: (pos - lo) as u32,
        }
    }

    /// Payload bytes in the segment.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no payload byte.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload bytes `[at, at + len)` of the segment; their phase inside
    /// their first element is kept.
    pub fn sub(&self, at: usize, len: usize) -> Seg<'a> {
        let phase = self.phase as usize + at;
        Seg::native(self.data, self.width as usize, phase, len)
    }

    /// Store the payload bytes `[at, at + dst.len())` into `dst`,
    /// converting them on the way. The whole elements among them are
    /// swapped in bulk; the bytes of an element they cut are placed one at
    /// a time: on a little-endian host external byte `p` is native byte
    /// `p ^ (width - 1)`, the same offset mirrored inside its element. On a
    /// big-endian host, as for width 1, host order is external order.
    fn copy_to(&self, at: usize, dst: &mut [u8]) {
        debug_assert!(at + dst.len() <= self.len);
        let (w, native) = (self.width as usize, self.data);
        let pos = self.phase as usize + at;
        let end = pos + dst.len();
        if w <= 1 || cfg!(target_endian = "big") {
            dst.copy_from_slice(&native[pos..end]);
            return;
        }
        // Whole elements occupy `[lo, hi)`; both collapse onto one point
        // when the bytes lie inside a single element.
        let lo = ((pos + w - 1) & !(w - 1)).min(end);
        let hi = (end & !(w - 1)).max(lo);
        for p in (pos..lo).chain(hi..end) {
            dst[p - pos] = native[p ^ (w - 1)];
        }
        swap_copy(&native[lo..hi], &mut dst[lo - pos..hi - pos], w);
    }
}

/// The memory side of a write request as one server's portion copies out
/// of it, or as a client page cache copies it into its pages: a cursor over
/// the gather list, fed chunks in increasing payload positions. A chunk may
/// straddle segments, and empty segments are stepped over.
pub struct Gather<'a> {
    rest: std::slice::Iter<'a, Seg<'a>>,
    /// The current segment and the payload position of its first byte.
    seg: Seg<'a>,
    at: usize,
}

impl<'a> Gather<'a> {
    /// A cursor at the first payload byte of `segs`.
    pub fn new(segs: &'a [Seg<'a>]) -> Gather<'a> {
        Gather {
            rest: segs.iter(),
            seg: Seg::from(&[]),
            at: 0,
        }
    }

    /// Store the payload bytes `[pos, pos + dst.len())` into `dst`, segment
    /// piece by segment piece, each converted on the way. `pos` never lies
    /// before the previous call's.
    pub fn each(&mut self, pos: usize, dst: &mut [u8]) {
        let (mut at, end) = (pos, pos + dst.len());
        while at < end {
            while self.at + self.seg.len <= at {
                self.at += self.seg.len;
                self.seg = *self.rest.next().expect("a chunk reaches past its payload");
            }
            let (lo, hi) = (at - self.at, (end - self.at).min(self.seg.len));
            self.seg.copy_to(lo, &mut dst[at - pos..][..hi - lo]);
            at = self.at + hi;
        }
    }
}

/// The memory side of a read request as one server's portion fills it: the
/// mirror of [`Gather`] over a scatter list.
pub(crate) struct Scatter<'a, 'b> {
    rest: std::slice::IterMut<'a, &'b mut [u8]>,
    /// The current segment and the payload position of its first byte.
    seg: &'a mut [u8],
    at: usize,
}

impl<'a, 'b> Scatter<'a, 'b> {
    pub(crate) fn new(segs: &'a mut [&'b mut [u8]]) -> Scatter<'a, 'b> {
        Scatter {
            rest: segs.iter_mut(),
            seg: &mut [],
            at: 0,
        }
    }

    /// Hand `put(skip, bytes)` the buffer bytes `[pos, pos + len)` segment
    /// piece by segment piece, as [`Gather::each`] does.
    pub(crate) fn each(&mut self, pos: usize, len: usize, mut put: impl FnMut(u64, &mut [u8])) {
        let (mut at, end) = (pos, pos + len);
        while at < end {
            while self.at + self.seg.len() <= at {
                self.at += self.seg.len();
                self.seg = self.rest.next().expect("a chunk reaches past its buffer");
            }
            let (lo, hi) = (at - self.at, (end - self.at).min(self.seg.len()));
            put((at - pos) as u64, &mut self.seg[lo..hi]);
            at = self.at + hi;
        }
    }
}

/// Handle to one file in the parallel file system. Cheap to clone; all
/// clones address the same bytes and the same server queues.
#[derive(Clone)]
pub struct PfsFile {
    pub(crate) pfs: Pfs,
    /// The file's record, shared with its metadata entry.
    pub(crate) rec: Arc<FileRecord>,
    name: String,
}

impl PfsFile {
    pub(crate) fn new(pfs: Pfs, rec: Arc<FileRecord>, name: String) -> PfsFile {
        PfsFile { pfs, rec, name }
    }

    /// The file system the file lives on, for what is true of all its
    /// files: parity, the down server, the failover controls.
    pub fn pfs(&self) -> &Pfs {
        &self.pfs
    }

    /// File name within the PFS namespace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The profile shared by this file system instance (the one in the
    /// `SimConfig` it was built from).
    pub fn profile(&self) -> &hpc_sim::Profile {
        &self.pfs.inner.cfg.profile
    }

    /// The span recorder shared by this file system instance (same handle
    /// semantics as [`PfsFile::profile`]).
    pub fn events(&self) -> &hpc_sim::TraceLog {
        &self.pfs.inner.cfg.events
    }

    /// Current size in bytes (highest byte ever written + 1).
    pub fn size(&self) -> u64 {
        self.rec.size.load(Ordering::Acquire)
    }

    /// Timed write, starting at virtual time `start`, of the runs `runs` —
    /// `(offset, len)` pairs, sorted and disjoint, one when the span is
    /// contiguous — whose payload is the concatenation of the gather list
    /// `segs` (`&[data.into()]`, page slots, the pieces of a collective
    /// window), so noncontiguous file and memory regions go out without a
    /// bounce copy, each segment converted to the file's byte order as it is
    /// stored ([`Seg`]). How the payload is cut into segments, and their
    /// widths, move no clock. Returns both
    /// acknowledgement points: a pipelined client may proceed at `handoff`
    /// and wait for `durable` only when it needs the bytes on disk. Or the
    /// first injected fault.
    ///
    /// The request is split by server and each server's portion is
    /// coalesced into one disk request — how an aggregator writes a window
    /// of server-affine stripes with one per-request overhead per server
    /// instead of one per stripe. The client pushes each portion whole
    /// through its NIC (`client_link_bw`) in issue order, by first chunk, so
    /// a portion arrives once it and every portion before it have been sent;
    /// how the bytes are cut into runs and segments does not move it. All
    /// portions are issued (they are in flight by the time a fault is
    /// detected); a failure's `completed` counts the leading payload bytes
    /// that are *guaranteed* transferred, so a recovery layer can resume
    /// there — later scattered chunks that happened to land are simply
    /// rewritten with the same bytes.
    pub fn try_write(
        &self,
        start: Time,
        runs: &[(u64, u64)],
        segs: &[Seg<'_>],
    ) -> Result<WriteCompletion, IoFailure> {
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "runs must be sorted and disjoint"
        );
        let len: u64 = runs.iter().map(|&(_, len)| len).sum();
        debug_assert_eq!(
            len,
            segs.iter().map(|s| s.len as u64).sum::<u64>(),
            "runs must describe segs"
        );
        if len == 0 {
            return Ok(WriteCompletion {
                handoff: start,
                durable: start,
            });
        }
        let cfg = &self.pfs.inner.cfg;
        let parity = self.pfs.parity_enabled();
        let start = self.maybe_rebuild(start);
        let down = self.active_down();
        let metadata_sized = len <= crate::storage::METADATA_REQUEST_LIMIT;

        let mut done = start;
        let mut handoff = start;
        let mut rows = std::collections::BTreeSet::new();
        let mut redirected = false;
        // Portions cut short by a fault: (server, bytes transferred, fault).
        let mut faulted: Vec<(usize, u64, FaultKind)> = Vec::new();
        let portions = self.pfs.inner.striping.run_portions(runs);
        let mut sent = 0u64;
        for (srv, chunks) in portions {
            sent += chunks.map(|(c, _)| c.len).sum::<u64>();
            let arrival = start
                + cfg.client_link_latency
                + Time::from_secs_f64(sent as f64 / cfg.client_link_bw);
            if parity {
                for (c, _) in chunks {
                    rows.insert(self.pfs.inner.striping.parity_row_of(c.stripe));
                }
            }
            if down == Some(srv) {
                // Degraded mode: the down server's engine is never
                // touched; the payload is covered by the parity update
                // after the data phase.
                self.redirect_write_portion(srv, chunks, segs);
                redirected = true;
                continue;
            }
            let mut payload = Gather::new(segs);
            let op = Op::Write { metadata_sized };
            let store = |st: &mut StripeStore, c: StripeChunk, pos| {
                let dst = st.slot(self.rec.id, c.stripe, c.offset_in_stripe, c.len);
                payload.each(pos, dst)
            };
            let outcome = self.pfs.inner.servers[srv].lock().serve(
                &cfg.disk,
                self.rec.id,
                arrival,
                op,
                chunks,
                store,
            );
            self.record_outcome(srv, &outcome, false);
            done = done.max(outcome.done);
            handoff = handoff.max(outcome.handoff());
            if let Some(fault) = outcome.injected.filter(|_| !outcome.is_complete()) {
                faulted.push((srv, outcome.bytes_done, fault));
            }
        }
        if parity {
            // A write is not durable until its parity is; a redirected
            // portion additionally has no NIC handoff of its own, so the
            // client may only proceed once parity holds its bytes.
            done = done.max(self.update_parity_rows(&rows, done));
            if redirected {
                handoff = handoff.max(done);
            }
        }
        let Some(&(first_srv, _, first_fault)) = faulted.first() else {
            self.grow_to(runs.last().map_or(0, |&(off, len)| off + len));
            return Ok(WriteCompletion {
                handoff,
                durable: done,
            });
        };
        let status = portion_status(portions, &faulted);
        let (completed, kind, server) = completed_prefix(&status, (first_fault, first_srv));
        // Record what actually landed, scattered chunks included.
        self.grow_to(transferred_end(&status));
        Err(IoFailure {
            kind,
            completed,
            time: done,
            server,
        })
    }

    /// Timed write that hides faults behind the retry ladder
    /// ([`crate::retry::ladder`], default policy) for callers without a
    /// recovery layer of their own: the serialized baseline and direct PFS
    /// users. Panics when the ladder gives up — a permanently crashed
    /// server with no recovery layer above is fatal, exactly like ENOSPC
    /// for the real serial API.
    pub fn write_at(&self, start: Time, offset: u64, data: &[u8]) -> Time {
        let attempt = |t, resume: u64| {
            let rest = &data[resume as usize..];
            self.try_write(t, &[(offset + resume, rest.len() as u64)], &[rest.into()])
                .map(|c| c.durable)
        };
        let (policy, profile) = (RetryPolicy::default(), self.profile());
        ladder(&policy, profile, start, attempt, |_, _| {}).unwrap_or_else(|attempts| {
            panic!(
                "PFS write of {} bytes at offset {offset} of '{}' still failing after \
                 {attempts} attempts (fault plan too hostile for a caller without recovery)",
                data.len(),
                self.name
            )
        })
    }

    /// Timed read, starting at virtual time `start`, of the runs `runs` —
    /// sorted and disjoint, one when the span is contiguous — into the
    /// scatter list `segs` (`&mut [buf]`, page slots, a collective buffer),
    /// which their bytes fill in run order. Returns the completion time, or
    /// the first injected fault. Bytes beyond the file size read as zeros
    /// (the underlying stores return zeros for unwritten stripes).
    ///
    /// The request message reaches every server it touches after one
    /// latency, one request per server, and the servers stream from disk in
    /// parallel; the client has every byte no earlier than `start + latency
    /// + bytes / client_link_bw`, however the request is cut into runs and
    /// segments. On failure the first `completed` payload bytes are valid.
    pub fn try_read(
        &self,
        start: Time,
        runs: &[(u64, u64)],
        segs: &mut [&mut [u8]],
    ) -> Result<Time, IoFailure> {
        debug_assert!(
            runs.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
            "runs must be sorted and disjoint"
        );
        let len: u64 = runs.iter().map(|&(_, len)| len).sum();
        debug_assert_eq!(
            len,
            segs.iter().map(|s| s.len() as u64).sum::<u64>(),
            "runs must describe segs"
        );
        if len == 0 {
            return Ok(start);
        }
        let cfg = &self.pfs.inner.cfg;
        let start = self.maybe_rebuild(start);
        let down = self.active_down();
        let portions = self.pfs.inner.striping.run_portions(runs);
        let arrival = start + cfg.client_link_latency;
        let mut disks_done = start;
        let mut faulted: Vec<(usize, u64, FaultKind)> = Vec::new();
        for (srv, chunks) in portions {
            if down == Some(srv) {
                // Degraded mode: XOR-reconstruct this server's chunks from
                // the surviving data + parity.
                let t = self.reconstruct_read(srv, chunks, segs, arrival);
                disks_done = disks_done.max(t);
                continue;
            }
            let mut out = Scatter::new(segs);
            let fetch = |st: &mut StripeStore, c: StripeChunk, pos| {
                out.each(pos, c.len as usize, |skip, o| {
                    st.read(self.rec.id, c.stripe, c.offset_in_stripe + skip, o)
                })
            };
            let outcome = self.pfs.inner.servers[srv].lock().serve(
                &cfg.disk,
                self.rec.id,
                arrival,
                Op::Read,
                chunks,
                fetch,
            );
            self.record_outcome(srv, &outcome, true);
            disks_done = disks_done.max(outcome.done);
            if let Some(fault) = outcome.injected.filter(|_| !outcome.is_complete()) {
                faulted.push((srv, outcome.bytes_done, fault));
            }
        }
        let Some(&(first_srv, _, first_fault)) = faulted.first() else {
            // The client cannot have all the bytes before its NIC has
            // carried them.
            let link_done = arrival + Time::from_secs_f64(len as f64 / cfg.client_link_bw);
            return Ok(disks_done.max(link_done));
        };
        let status = portion_status(portions, &faulted);
        let (completed, kind, server) = completed_prefix(&status, (first_fault, first_srv));
        Err(IoFailure {
            kind,
            completed,
            time: disks_done,
            server,
        })
    }

    /// Timed read behind the same ladder as [`PfsFile::write_at`].
    pub fn read_at(&self, start: Time, offset: u64, buf: &mut [u8]) -> Time {
        let len = buf.len();
        let attempt = |t, resume: u64| {
            let rest = &mut buf[resume as usize..];
            self.try_read(t, &[(offset + resume, rest.len() as u64)], &mut [rest])
        };
        let (policy, profile) = (RetryPolicy::default(), self.profile());
        ladder(&policy, profile, start, attempt, |_, _| {}).unwrap_or_else(|attempts| {
            panic!(
                "PFS read of {len} bytes at offset {offset} of '{}' still failing after \
                 {attempts} attempts (fault plan too hostile for a caller without recovery)",
                self.name
            )
        })
    }

    /// Record one server outcome into the profile, including the
    /// dual-resource stage breakdown.
    fn record_outcome(&self, srv: usize, outcome: &ServiceOutcome, read: bool) {
        self.record_injected(outcome.injected);
        let st = &outcome.stages;
        self.pfs.inner.cfg.profile.record_io_stages(
            srv,
            outcome.bytes_done,
            read,
            outcome.seeked,
            outcome.seek_distance,
            IoStages {
                nic_busy_nanos: (st.nic_done - st.nic_start).as_nanos(),
                disk_busy_nanos: (st.disk_done - st.disk_start).as_nanos(),
                overlap_nanos: st.overlap.as_nanos(),
                queue_stall_nanos: st.queue_stall.as_nanos(),
                cross_stall_nanos: st.cross_stall.as_nanos(),
                depth: st.depth as u64,
            },
        );
        // Span the request's passage through the dual-resource engine:
        // one queue-residency container (arrival → durable on disk) with
        // the stall, NIC, and disk stages nested inside it. The ambient
        // TraceCtx names the rank whose request this is and the window
        // (or independent request) span to hang the container off — with
        // no context there is no timeline to put the spans on, so the
        // request goes untraced rather than misattributed.
        let events = &self.pfs.inner.cfg.events;
        if events.is_enabled() {
            if let Some((rank, parent)) = TraceCtx::current() {
                let qid = events.next_id();
                let name = if read { "srv_read" } else { "srv_write" };
                // Writes finish on the disk; reads finish when the NIC has
                // shipped the bytes back. The container covers both orders.
                let served = st.disk_done.max(st.nic_done);
                events.record(
                    Span::new(
                        rank,
                        layer::PFS,
                        name,
                        st.arrival.as_nanos(),
                        served.as_nanos(),
                    )
                    .with_id(qid)
                    .with_parent(parent)
                    .with_arg("server", srv as u64)
                    .with_arg("bytes", outcome.bytes_done)
                    .with_arg("depth", st.depth as u64),
                );
                if st.admit > st.arrival {
                    events.record(
                        Span::new(
                            rank,
                            layer::PFS,
                            "queue_stall",
                            st.arrival.as_nanos(),
                            st.admit.as_nanos(),
                        )
                        .with_parent(qid)
                        .with_stage(stage::QUEUE)
                        .with_arg("server", srv as u64),
                    );
                }
                events.record(
                    Span::new(
                        rank,
                        layer::PFS,
                        "srv_nic",
                        st.nic_start.as_nanos(),
                        st.nic_done.as_nanos(),
                    )
                    .with_parent(qid)
                    .with_stage(stage::NIC)
                    .with_arg("server", srv as u64),
                );
                events.record(
                    Span::new(
                        rank,
                        layer::PFS,
                        "srv_disk",
                        st.disk_start.as_nanos(),
                        st.disk_done.as_nanos(),
                    )
                    .with_parent(qid)
                    .with_stage(stage::DISK)
                    .with_arg("server", srv as u64),
                );
            }
        }
    }

    /// Tally an injected fault (no-op while profiling is disabled).
    fn record_injected(&self, injected: Option<FaultKind>) {
        let Some(kind) = injected else { return };
        self.pfs.inner.cfg.profile.record_fault(|f| {
            f.faults_injected += 1;
            match kind {
                FaultKind::Transient => f.transient += 1,
                FaultKind::Short { .. } => f.short += 1,
                FaultKind::Stall { .. } => f.stalls += 1,
                FaultKind::Crashed => f.crashed += 1,
                FaultKind::None => {}
            }
        });
    }

    /// Current coherence epoch of this file. Client caches remember the
    /// epoch they last synchronized at; a different value means some rank
    /// has published new bytes since, so cached clean pages may be stale.
    pub fn coherence_epoch(&self) -> u64 {
        self.rec.epoch.load(Ordering::Acquire)
    }

    /// Advance the coherence epoch (called after publishing dirty pages or
    /// completing a collective write); returns the new epoch.
    pub fn bump_coherence_epoch(&self) -> u64 {
        self.rec.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Extend the recorded file size to at least `new_size`.
    pub fn grow_to(&self, new_size: u64) {
        self.rec.size.fetch_max(new_size, Ordering::AcqRel);
    }

    /// Untimed export of the full file contents (correctness checks,
    /// interop with the serial library).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size() as usize];
        self.peek_at(0, &mut out);
        out
    }

    /// Untimed import: overwrite the file contents with `data` (used to
    /// place an externally produced file into the PFS).
    pub fn import_bytes(&self, data: &[u8]) {
        for c in self.pfs.inner.striping.chunks(0, data.len() as u64, None) {
            let lo = c.file_offset as usize;
            self.pfs.inner.servers[c.server].lock().poke(
                self.rec.id,
                c.stripe,
                c.offset_in_stripe,
                data[lo..lo + c.len as usize].into(),
            );
        }
        self.grow_to(data.len() as u64);
    }

    /// Export to a real file on the host file system.
    pub fn export_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Import from a real file on the host file system.
    pub fn import_from_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        let data = std::fs::read(path)?;
        self.import_bytes(&data);
        Ok(())
    }

    /// Untimed read of an arbitrary range (diagnostics/tests).
    pub fn peek_at(&self, offset: u64, buf: &mut [u8]) {
        for c in self
            .pfs
            .inner
            .striping
            .chunks(offset, buf.len() as u64, None)
        {
            let lo = (c.file_offset - offset) as usize;
            self.pfs.inner.servers[c.server].lock().peek(
                self.rec.id,
                c.stripe,
                c.offset_in_stripe,
                &mut buf[lo..lo + c.len as usize],
            );
        }
    }
}

/// Per-portion transfer record: the portion's stripe chunks (in file order
/// within the portion), the bytes the server actually transferred across
/// those chunks (a prefix in that order), the fault that cut it short (if
/// any), and the server index.
type PortionStatus = (Vec<StripeChunk>, u64, Option<FaultKind>, usize);

/// The transfer record of every portion of a request in which some portion
/// faulted, rebuilt from the same walk that issued it: `faulted` lists the
/// portions cut short as `(server, bytes transferred, fault)`, every other
/// portion moved all its bytes. Only a faulting request pays for these
/// lists.
fn portion_status<'a>(
    portions: impl Iterator<Item = (usize, PortionChunks<'a>)>,
    faulted: &[(usize, u64, FaultKind)],
) -> Vec<PortionStatus> {
    portions
        .map(|(srv, chunks)| {
            let chunks: Vec<StripeChunk> = chunks.map(|(c, _)| c).collect();
            match faulted.iter().find(|f| f.0 == srv) {
                Some(&(_, bytes_done, fault)) => (chunks, bytes_done, Some(fault), srv),
                None => {
                    let bytes = chunks.iter().map(|c| c.len).sum();
                    (chunks, bytes, None, srv)
                }
            }
        })
        .collect()
}

/// Compute the file-order byte prefix of a striped request, contiguous or a
/// run list, that is guaranteed transferred, given that some portion faulted.
///
/// One server's portion consists of round-robin stripes that *interleave*
/// with other servers' stripes in file order, so "sum of completed
/// portions" is not a prefix. Instead, flatten every issued chunk with its
/// transferred length and walk them in file order, accumulating while each
/// chunk is fully transferred; a partially transferred chunk contributes
/// its prefix and stops the walk. For a contiguous request the count is
/// the contiguous prefix from its offset; for a run list it counts
/// leading bytes of the runs' concatenated payload (the chunks need not
/// tile a contiguous span, only be disjoint).
///
/// Returns `(prefix_bytes, fault, server)` where the fault is the one that
/// bounds the prefix. `first` is the first faulted portion's `(fault,
/// server)` in issue order: only an under-transferred chunk, which belongs
/// to a faulted portion, names another.
fn completed_prefix(
    portions: &[PortionStatus],
    first: (FaultKind, usize),
) -> (u64, FaultKind, usize) {
    // Flatten to (file_offset, len, transferred, (fault, server)).
    let mut chunks: Vec<(u64, u64, u64, (FaultKind, usize))> = Vec::new();
    for (cs, bytes_done, fault, srv) in portions {
        let cause = fault.map_or(first, |f| (f, *srv));
        let mut remaining = *bytes_done;
        for c in cs {
            let take = remaining.min(c.len);
            remaining -= take;
            chunks.push((c.file_offset, c.len, take, cause));
        }
    }
    chunks.sort_by_key(|&(off, ..)| off);
    let mut prefix = 0u64;
    let mut watermark = 0u64;
    for (off, len, transferred, (fault, srv)) in chunks {
        debug_assert!(off >= watermark, "striped chunks must be disjoint");
        watermark = off + len;
        prefix += transferred;
        if transferred < len {
            return (prefix, fault, srv);
        }
    }
    // Every chunk fully transferred yet some portion faulted: the fault hit
    // at the very end (e.g. a short fault whose prefix covered everything
    // issued so far). Report zero remaining credit past the full request.
    (prefix, first.0, first.1)
}

/// Highest file offset any transferred byte reached (for growing the file
/// size after a partially failed write). Zero when nothing landed.
fn transferred_end(portions: &[PortionStatus]) -> u64 {
    let mut end = 0u64;
    for (cs, bytes_done, _, _) in portions {
        let mut remaining = *bytes_done;
        for c in cs {
            let take = remaining.min(c.len);
            remaining -= take;
            if take > 0 {
                end = end.max(c.file_offset + take);
            }
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filesystem::Pfs;
    use crate::storage::StorageMode;
    use hpc_sim::SimConfig;

    fn file() -> PfsFile {
        Pfs::new(SimConfig::test_small(), StorageMode::Full).create("t")
    }

    #[test]
    fn write_read_roundtrip_across_stripes() {
        let f = file();
        // test_small has 1 KiB stripes over 4 servers; span several.
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let t1 = f.write_at(Time::ZERO, 300, &data);
        assert!(t1 > Time::ZERO);
        assert_eq!(f.size(), 5300);
        let mut out = vec![0u8; 5000];
        let t2 = f.read_at(t1, 300, &mut out);
        assert!(t2 > t1);
        assert_eq!(out, data);
    }

    #[test]
    fn unwritten_regions_read_zero() {
        let f = file();
        f.write_at(Time::ZERO, 100, &[7; 10]);
        let mut out = vec![1u8; 120];
        f.read_at(Time::ZERO, 0, &mut out);
        assert_eq!(&out[..100], &[0u8; 100][..]);
        assert_eq!(&out[100..110], &[7u8; 10][..]);
        assert_eq!(&out[110..], &[0u8; 10][..]);
    }

    #[test]
    fn export_import_roundtrip() {
        let f = file();
        let data: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
        f.write_at(Time::ZERO, 0, &data);
        let bytes = f.to_bytes();
        assert_eq!(bytes, data);

        let f2 = Pfs::new(SimConfig::test_small(), StorageMode::Full).create("u");
        f2.import_bytes(&bytes);
        assert_eq!(f2.size(), 3000);
        assert_eq!(f2.to_bytes(), data);
    }

    #[test]
    fn larger_writes_take_longer() {
        let f = file();
        let t_small = f.write_at(Time::ZERO, 0, &[0u8; 1000]);
        let f2 = file();
        let t_big = f2.write_at(Time::ZERO, 0, &[0u8; 100_000]);
        assert!(t_big > t_small);
    }

    #[test]
    fn parallel_clients_beat_one_client_per_byte() {
        // Two writers starting at the same time on disjoint halves finish
        // earlier than one writer writing everything, because each pays only
        // half the NIC serialization.
        let cfg = SimConfig::test_small();
        let half = 512 * 1024usize;

        let solo = Pfs::new(cfg.clone(), StorageMode::CostOnly).create("solo");
        let t_solo = solo.write_at(Time::ZERO, 0, &vec![0u8; 2 * half]);

        let duo = Pfs::new(cfg, StorageMode::CostOnly).create("duo");
        let t_a = duo.write_at(Time::ZERO, 0, &vec![0u8; half]);
        let t_b = duo.write_at(Time::ZERO, half as u64, &vec![0u8; half]);
        assert!(t_a.max(t_b) < t_solo);
    }

    #[test]
    fn zero_length_ops_cost_nothing() {
        let f = file();
        assert_eq!(
            f.write_at(Time::from_millis(5), 0, &[]),
            Time::from_millis(5)
        );
        let mut empty: [u8; 0] = [];
        assert_eq!(
            f.read_at(Time::from_millis(5), 0, &mut empty),
            Time::from_millis(5)
        );
    }

    #[test]
    fn infallible_calls_recover_from_transient_faults() {
        let mut cfg = SimConfig::test_small();
        // Fault draws are per stripe chunk; a 20 KB request spans ~20
        // stripes, so even modest per-stripe rates fault nearly every
        // attempt while still letting the retry ladder make steady prefix
        // progress.
        cfg.faults = hpc_sim::FaultPlan {
            transient: 0.08,
            short: 0.08,
            ..hpc_sim::FaultPlan::default()
        };
        cfg.profile.set_enabled(true);
        let f = Pfs::new(cfg.clone(), StorageMode::Full).create("faulty");
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let t = f.write_at(Time::ZERO, 64, &data);
        let mut out = vec![0u8; data.len()];
        f.read_at(t, 64, &mut out);
        assert_eq!(out, data, "recovered write/read must be byte-identical");
        let fc = cfg.profile.fault_counters();
        assert!(fc.faults_injected > 0, "plan should have fired");
        assert!(fc.retries > 0);
        assert!(fc.backoff_nanos > 0);
    }

    #[test]
    fn try_write_reports_contiguous_prefix() {
        let mut cfg = SimConfig::test_small();
        cfg.faults = hpc_sim::FaultPlan {
            short: 1.0,
            ..hpc_sim::FaultPlan::default()
        };
        let f = Pfs::new(cfg, StorageMode::Full).create("short");
        let data = vec![7u8; 4000];
        let err = f
            .try_write(Time::ZERO, &[(0, 4000)], &[(&data).into()])
            .unwrap_err();
        assert!(err.completed < 4000);
        assert!(err.time > Time::ZERO);
        // The reported prefix really landed. (Bytes *beyond* it may also
        // have landed — portions interleave across servers — which is fine:
        // recovery rewrites them with identical bytes.)
        let mut buf = vec![1u8; 4000];
        f.peek_at(0, &mut buf);
        let c = err.completed as usize;
        assert_eq!(&buf[..c], &data[..c]);
    }

    #[test]
    fn inert_plan_leaves_timings_unchanged() {
        // The fault machinery must cost nothing when inactive: identical
        // completion times with and without the (default) plan wired in.
        let f1 = file();
        let f2 = file();
        let data = vec![3u8; 9000];
        assert_eq!(
            f1.try_write(Time::ZERO, &[(128, 9000)], &[(&data).into()])
                .unwrap()
                .durable,
            f2.write_at(Time::ZERO, 128, &data)
        );
    }

    #[test]
    fn write_runs_coalesces_per_server_and_lands_bytes() {
        // Three runs on stripes 0, 4 and 8 — all owned by server 0 in the
        // 4-server test_small layout — reach the disk as ONE request.
        let f = file();
        f.profile().set_enabled(true);
        let runs = [(0u64, 1024u64), (4096, 1024), (8192, 1024)];
        let data: Vec<u8> = (0..3 * 1024u32).map(|i| (i % 239) as u8).collect();
        let c = f.try_write(Time::ZERO, &runs, &[(&data).into()]).unwrap();
        assert!(
            c.handoff < c.durable,
            "server owns the bytes before the disk has them"
        );

        let io = f.profile().snapshot().server_totals();
        assert_eq!(io.requests, 1, "affine runs coalesce per server");
        assert_eq!(io.bytes_written, 3 * 1024);

        assert_eq!(f.size(), 9216);
        let mut out = vec![1u8; 9216];
        f.read_at(c.durable, 0, &mut out);
        assert_eq!(&out[..1024], &data[..1024]);
        assert_eq!(&out[1024..4096], &[0u8; 3072][..], "gaps stay zero");
        assert_eq!(&out[4096..5120], &data[1024..2048]);
        assert_eq!(&out[8192..9216], &data[2048..]);
    }

    #[test]
    fn write_runs_matches_separate_writes_bytewise() {
        let runs = [(100u64, 900u64), (2048, 2048), (7000, 500)];
        let data: Vec<u8> = (0..3448u32).map(|i| (i * 13 % 251) as u8).collect();

        let batched = file();
        batched
            .try_write(Time::ZERO, &runs, &[(&data).into()])
            .unwrap();

        let scalar = file();
        let mut pos = 0usize;
        for &(off, len) in &runs {
            scalar.write_at(Time::ZERO, off, &data[pos..pos + len as usize]);
            pos += len as usize;
        }
        assert_eq!(batched.to_bytes(), scalar.to_bytes());
    }

    /// `n` doubles in host byte order and their big-endian form.
    fn doubles(n: usize) -> (Vec<u8>, Vec<u8>) {
        let vals = (0..n).map(|i| i as f64 * -1.25e-3 + 7.0e5);
        let native = vals.clone().flat_map(f64::to_ne_bytes).collect();
        (native, vals.flat_map(f64::to_be_bytes).collect())
    }

    /// A variable of doubles that begins 4 bytes before a stripe boundary
    /// (the header ends on a 4-byte boundary): the stripe cuts its first
    /// element, and each stripe gets its half big-endian, whether the
    /// gather list is one segment or is cut at the stripe boundary too.
    #[test]
    fn an_element_cut_by_a_stripe_boundary_is_stored_big_endian() {
        let (native, external) = doubles(300);
        let len = native.len();
        for cut in [None, Some(4), Some(5)] {
            let f = file();
            let segs: Vec<Seg> = match cut {
                None => vec![Seg::native(&native, 8, 0, len)],
                Some(c) => vec![
                    Seg::native(&native, 8, 0, c),
                    Seg::native(&native, 8, c, len - c),
                ],
            };
            f.try_write(Time::ZERO, &[(1020, len as u64)], &segs)
                .unwrap();
            let mut out = vec![0u8; len];
            f.peek_at(1020, &mut out);
            assert_eq!(out, external, "cut at {cut:?}");
        }
    }

    /// Short faults cut a native write wherever a stripe chunk ends, and so
    /// inside an element when the elements start off the stripe grid; the
    /// resumed request lends the rest of the segment from there, its phase
    /// inside the cut element kept, and the file ends up big-endian.
    #[test]
    fn a_short_write_resumed_inside_an_element_lands_whole() {
        let mut cfg = SimConfig::test_small();
        cfg.faults = hpc_sim::FaultPlan::from_spec("short=0.3,seed=5").unwrap();
        let f = Pfs::new(cfg, StorageMode::Full).create("short");
        let (native, external) = doubles(2000);
        let (len, seg) = (
            native.len() as u64,
            Seg::native(&native, 8, 0, native.len()),
        );
        let (mut t, mut resume, mut inside) = (Time::ZERO, 0u64, 0);
        loop {
            let rest = [seg.sub(resume as usize, (len - resume) as usize)];
            match f.try_write(t, &[(1020 + resume, len - resume)], &rest) {
                Ok(_) => break,
                Err(e) => {
                    assert!(matches!(e.kind, FaultKind::Short { .. }), "{e:?}");
                    (t, resume) = (e.time, resume + e.completed);
                    inside += (resume % 8 != 0) as u32;
                }
            }
        }
        assert!(
            inside > 0,
            "test premise: a resume point falls inside an element"
        );
        let mut out = vec![0u8; native.len()];
        f.peek_at(1020, &mut out);
        assert!(out == external);
    }

    /// With server 0 down behind parity its portions are redirected, not
    /// served: they convert on the same gather, and what is read back —
    /// server 0's chunks reconstructed from the parity the write updated —
    /// is the big-endian form.
    #[test]
    fn a_degraded_native_write_reads_back_exactly() {
        let mut cfg = SimConfig::test_small();
        cfg.parity = true;
        cfg.faults.crashes.push(hpc_sim::CrashSpec {
            server: 0,
            at: Time::ZERO,
            restart: None,
        });
        cfg.profile.set_enabled(true);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        assert!(pfs.mark_server_down(0));
        let f = pfs.create("degraded");
        let (native, external) = doubles(1500);
        let len = native.len();
        let segs = [
            Seg::native(&native, 8, 0, 4004),
            Seg::native(&native, 8, 4004, len - 4004),
        ];
        let c = f
            .try_write(Time::ZERO, &[(100, len as u64)], &segs)
            .unwrap();
        assert!(cfg.profile.failover_counters().redirected_bytes > 0);
        let mut out = vec![0u8; len];
        f.read_at(c.durable, 100, &mut out);
        assert!(out == external);
        assert!(cfg.profile.failover_counters().reconstructed_bytes > 0);
    }

    #[test]
    fn stats_count_requests() {
        let f = file();
        f.profile().set_enabled(true);
        f.write_at(Time::ZERO, 0, &[0u8; 4096]); // 4 servers, 1 KiB each
        let io = f.profile().snapshot().server_totals();
        assert_eq!(io.requests, 4);
        assert_eq!(io.bytes_written, 4096);
    }
}
