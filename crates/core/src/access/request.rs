//! The unified access-request pipeline and the nonblocking API.
//!
//! Every data access — typed or flexible, blocking or nonblocking,
//! collective or independent — is lowered into one [`AccessReq`]: the
//! validated access frozen as absolute file byte runs plus, where the
//! request must own its bytes, the staged external form of a put. The
//! blocking calls in [`super::highlevel`] and [`super::flexible`] execute a
//! single request immediately — a same-type one straight from and into the
//! caller's memory (`Lent`), with nothing staged at all; the nonblocking
//! `iput_*`/`iget_*` calls queue requests on the dataset and return
//! [`Request`] tickets.
//!
//! `wait_all` is where the paper's aggregation idea pays off (the
//! optimization production PnetCDF later shipped as `ncmpi_iput/ncmpi_wait_all`):
//! all pending puts are merged into **one** sorted, overlap-resolved run
//! list with a packed staging buffer and issued as a single collective
//! write; all pending gets union into one run list issued as a single
//! collective read. N queued variable accesses cost one or two collective
//! rounds instead of N.

use hpc_sim::trace::events::layer;
use hpc_sim::{Span, Time, TraceCtx};
use pnetcdf_format::types::{from_external, to_external_into};
use pnetcdf_format::{NcType, NcValue};
use pnetcdf_mpi::{Datatype, ReduceOp, Request};
use pnetcdf_mpio::view::runs_total;
use pnetcdf_mpio::{MpioError, Run};

use crate::convert;
use crate::dataset::{DataMode, Dataset};
use crate::error::{NcmpiError, NcmpiResult};

/// Direction of an access request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Put,
    Get,
}

/// One lowered access request. The access is fully validated and resolved
/// to file byte runs when the request is built, so executing it later (or
/// merged with others) needs no further header state.
///
/// A nonblocking call builds a fresh one and queues it; the blocking calls
/// lower into the one the dataset keeps (`Dataset::staging`), whose `runs`
/// and `buffer` hold their capacity from call to call.
pub(crate) struct AccessReq {
    pub id: Request,
    pub varid: usize,
    pub kind: AccessKind,
    /// Absolute file byte runs of the selection, sorted and non-overlapping.
    pub runs: Vec<Run>,
    /// External (big-endian) bytes in run order, for the accesses that need
    /// them staged: a queued put (the queue owns a copy until `wait`), a
    /// blocking put that converts between types or writes independently
    /// (the sieve writes what it is given), a blocking get that converts or
    /// scatters through a noncontiguous memory type. Unused otherwise — a
    /// same-type blocking access moves its bytes from and into the caller's
    /// memory ([`Lent`]).
    pub buffer: Vec<u8>,
    /// The variable's external type, kept for get-result conversion.
    pub nctype: NcType,
    /// Whether the variable is a record variable (drives `numrecs`
    /// reconciliation at flush time).
    pub record: bool,
    /// Event-trace id issued at enqueue time (0 when tracing is off or the
    /// request runs on the blocking path, which issues its own span).
    pub trace_id: u64,
    /// Virtual time the request was queued (span begin for `iput`/`iget`).
    pub queued: Time,
}

impl Default for AccessReq {
    /// An unlowered request holding no storage.
    fn default() -> AccessReq {
        AccessReq {
            id: Request::NULL,
            varid: 0,
            kind: AccessKind::Get,
            runs: Vec::new(),
            buffer: Vec::new(),
            nctype: NcType::Byte,
            record: false,
            trace_id: 0,
            queued: Time::ZERO,
        }
    }
}

/// The most capacity, in bytes, a vector of the dataset's recycled request
/// keeps between blocking calls. Small accesses — the ones whose cost is
/// per-request overhead — reuse their run list and, for the staged kinds
/// (see [`AccessReq::buffer`]; in practice independent puts), their
/// staging; a dataset that once staged 32 MiB in one call does not hold
/// 32 MiB until `close`.
const STAGING_RETAIN: usize = 1 << 20;

/// The bytes a blocking put writes, borrowed for the call: elements `width`
/// bytes wide in host byte order, or — width 1 — bytes that already are what
/// the file is to hold.
#[derive(Clone, Copy)]
pub(crate) struct Lent<'a> {
    pub bytes: &'a [u8],
    pub width: usize,
}

/// May a blocking put lend elements `width` wide as they are? A collective
/// one always: the two-phase overlay converts each piece on its way into
/// the collective buffer. An independent one goes through the sieve, which
/// writes what it is given — so only when there is nothing to convert.
pub(crate) fn can_lend(collective: bool, width: usize) -> bool {
    collective || width == 1
}

/// Size `buf` to `len` bytes for a read to fill.
pub(crate) fn size_for_read(buf: &mut Vec<u8>, len: usize) {
    if buf.capacity() < len {
        // Zeroed pages from the allocator instead of a copy of the old
        // contents followed by a memset.
        *buf = vec![0u8; len];
    } else {
        buf.resize(len, 0);
    }
}

// ---- request merging --------------------------------------------------------

/// One overlap-resolved slice of a request's staged buffer: `len` bytes at
/// file offset `off`, found at byte `pos` of source buffer `src`. Pieces
/// carry no bytes — overlap resolution is pure arithmetic on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Piece {
    off: u64,
    len: u64,
    src: usize,
    pos: u64,
}

impl Piece {
    fn end(&self) -> u64 {
        self.off + self.len
    }
}

/// Sorted, non-overlapping references into the requests' staged buffers.
/// Inserting later requests overwrites earlier ones where they overlap
/// (last request wins — the same deterministic rule two-phase I/O applies
/// across ranks). Unlike the old owned-segment design, resolving overlaps
/// never copies a byte: the only copy happens in [`RunStage::into_merged_with`],
/// one gather pass from the source buffers into the final staging buffer.
#[derive(Default)]
pub(crate) struct RunStage {
    pieces: Vec<Piece>,
}

impl RunStage {
    /// Overlay `len` bytes at file offset `off`, sourced from byte `pos` of
    /// source buffer `src`.
    pub(crate) fn insert(&mut self, off: u64, len: u64, src: usize, pos: u64) {
        if len == 0 {
            return;
        }
        let end = off + len;
        let mut i = self.pieces.partition_point(|p| p.end() <= off);
        if i < self.pieces.len() && self.pieces[i].off < off {
            // The piece straddles `off`: split it, keeping the head.
            let head = &mut self.pieces[i];
            let keep = off - head.off;
            let tail = Piece {
                off,
                len: head.len - keep,
                src: head.src,
                pos: head.pos + keep,
            };
            head.len = keep;
            self.pieces.insert(i + 1, tail);
            i += 1;
        }
        while i < self.pieces.len() && self.pieces[i].off < end {
            if self.pieces[i].end() <= end {
                self.pieces.remove(i);
            } else {
                // Trim the overwritten head of the trailing piece.
                let p = &mut self.pieces[i];
                let cut = end - p.off;
                p.off = end;
                p.pos += cut;
                p.len -= cut;
                break;
            }
        }
        self.pieces.insert(i, Piece { off, len, src, pos });
    }

    /// Final merged form: coalesced runs plus the staging buffer, gathered
    /// in a single pass from the source buffers the pieces reference.
    pub(crate) fn into_merged_with(self, sources: &[&[u8]]) -> (Vec<Run>, Vec<u8>) {
        let total: u64 = self.pieces.iter().map(|p| p.len).sum();
        let mut runs: Vec<Run> = Vec::with_capacity(self.pieces.len());
        let mut staging = Vec::with_capacity(total as usize);
        for p in &self.pieces {
            match runs.last_mut() {
                Some(last) if last.0 + last.1 == p.off => last.1 += p.len,
                _ => runs.push((p.off, p.len)),
            }
            staging.extend_from_slice(&sources[p.src][p.pos as usize..(p.pos + p.len) as usize]);
        }
        (runs, staging)
    }
}

/// True when the runs are sorted, non-overlapping, and non-adjacent — i.e.
/// already in the exact shape `into_merged_with` would produce.
fn runs_coalesced(runs: &[Run]) -> bool {
    runs.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0)
}

/// Merge the put requests into one sorted run list + staging buffer, later
/// requests winning overlaps. A single coalesced put needs no merge at all:
/// its staged buffer is borrowed as-is (zero copies).
fn merge_puts(reqs: &[AccessReq]) -> (Vec<Run>, std::borrow::Cow<'_, [u8]>) {
    let puts: Vec<&AccessReq> = reqs.iter().filter(|r| r.kind == AccessKind::Put).collect();
    if let [only] = puts.as_slice() {
        if runs_coalesced(&only.runs) {
            return (only.runs.clone(), std::borrow::Cow::Borrowed(&only.buffer));
        }
    }
    let mut stage = RunStage::default();
    let sources: Vec<&[u8]> = puts.iter().map(|r| r.buffer.as_slice()).collect();
    for (src, req) in puts.iter().enumerate() {
        let mut pos = 0u64;
        for &(off, len) in &req.runs {
            stage.insert(off, len, src, pos);
            pos += len;
        }
    }
    let (runs, staging) = stage.into_merged_with(&sources);
    (runs, std::borrow::Cow::Owned(staging))
}

/// Union of all get requests' runs: sorted, coalesced coverage.
fn merge_gets(reqs: &[AccessReq]) -> Vec<Run> {
    let mut all: Vec<Run> = reqs
        .iter()
        .filter(|r| r.kind == AccessKind::Get)
        .flat_map(|r| r.runs.iter().copied())
        .collect();
    all.sort_unstable();
    let mut out: Vec<Run> = Vec::with_capacity(all.len());
    for (off, len) in all {
        if let Some(last) = out.last_mut() {
            let last_end = last.0 + last.1;
            if off <= last_end {
                last.1 = (off + len).max(last_end) - last.0;
                continue;
            }
        }
        out.push((off, len));
    }
    out
}

/// Byte position of each coverage run inside the packed coverage buffer.
fn coverage_positions(cov: &[Run]) -> Vec<u64> {
    let mut pos = Vec::with_capacity(cov.len());
    let mut acc = 0u64;
    for &(_, len) in cov {
        pos.push(acc);
        acc += len;
    }
    pos
}

/// Extract one request's bytes (in its own run order) from the packed
/// coverage buffer. Every request run lies inside exactly one coverage run
/// because the coverage is the coalesced union of all request runs.
fn extract_runs(cov: &[Run], pos: &[u64], data: &[u8], runs: &[Run]) -> Vec<u8> {
    let total: u64 = runs.iter().map(|r| r.1).sum();
    let mut out = Vec::with_capacity(total as usize);
    for &(off, len) in runs {
        let i = cov.partition_point(|&(o, _)| o <= off) - 1;
        let p = (pos[i] + (off - cov[i].0)) as usize;
        out.extend_from_slice(&data[p..p + len as usize]);
    }
    out
}

/// The agreed (or local, in independent mode) server index when `res` is
/// the failover-eligible lost-server verdict, `None` otherwise.
pub(crate) fn agreed_server_lost<T>(res: &NcmpiResult<T>) -> Option<usize> {
    match res {
        Err(NcmpiError::Mpio(MpioError::ServerLost { server, .. })) => Some(*server),
        _ => None,
    }
}

// ---- the engine ------------------------------------------------------------

impl Dataset {
    /// Collectively agree on the outcome of a local step (see
    /// [`crate::agree`]): every rank contributes its local result, the
    /// maximum-severity error wins (ties → lowest rank), and *all* ranks —
    /// including those whose local step succeeded — return the same
    /// reconstructed error. Called after local validation/lowering and
    /// before the data collective, so a rank that failed validation never
    /// leaves the others hanging in the collective.
    pub(crate) fn agree<T>(&mut self, local: NcmpiResult<T>) -> NcmpiResult<T> {
        let payload = match &local {
            Ok(_) => Vec::new(),
            Err(e) => crate::agree::encode(e),
        };
        let all = self.comm.allgather_bytes(payload)?;
        match crate::agree::pick(&all) {
            None => local,
            Some(err) => {
                // One agreement event per world, not per rank: the profile
                // is shared by every rank thread.
                if self.comm.rank() == 0 {
                    self.comm
                        .config()
                        .profile
                        .record_fault(|f| f.agreed_errors += 1);
                }
                Err(err)
            }
        }
    }

    /// [`Dataset::agree`] in collective mode; the local outcome as it is in
    /// independent mode, where no other rank is waiting.
    pub(crate) fn agree_if<T>(
        &mut self,
        collective: bool,
        local: NcmpiResult<T>,
    ) -> NcmpiResult<T> {
        if collective {
            self.agree(local)
        } else {
            local
        }
    }

    /// The data mode a blocking call of this flavor requires.
    pub(crate) fn require_mode(&self, collective: bool) -> NcmpiResult<()> {
        if collective {
            self.require_collective()
        } else {
            self.require_independent()
        }
    }

    /// The variable's external type, or `NotFound`.
    pub(crate) fn var_nctype(&self, varid: usize) -> NcmpiResult<NcType> {
        self.header
            .vars
            .get(varid)
            .map(|v| v.nctype)
            .ok_or_else(|| NcmpiError::NotFound(format!("variable id {varid}")))
    }

    /// Data mode (collective or independent) is required to queue requests.
    fn require_data_mode(&self) -> NcmpiResult<()> {
        if self.mode == DataMode::Define {
            return Err(NcmpiError::InDefineMode);
        }
        Ok(())
    }

    /// Run one blocking call with the dataset's recycled request to lower
    /// into. However the call ends, the request's vectors are kept for the
    /// next one — unless one has grown past [`STAGING_RETAIN`].
    pub(crate) fn with_staging<R>(
        &mut self,
        call: impl FnOnce(&mut Dataset, &mut AccessReq) -> R,
    ) -> R {
        let mut req = std::mem::take(&mut self.staging);
        let out = call(self, &mut req);
        if req.buffer.capacity() > STAGING_RETAIN {
            req.buffer = Vec::new();
        }
        if req.runs.capacity() * std::mem::size_of::<Run>() > STAGING_RETAIN {
            req.runs = Vec::new();
        }
        self.staging = req;
        out
    }

    /// Lower a write access of `payload` bytes (staged in `req.buffer` or
    /// lent) into `req`: validate and resolve to file runs. Grows the
    /// local record count and invalidates the variable's prefetch cache, so
    /// later accesses in the same batch see the post-write state.
    pub(crate) fn lower_put(
        &mut self,
        req: &mut AccessReq,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        payload: usize,
    ) -> NcmpiResult<()> {
        self.require_writable()?;
        self.lower(req, AccessKind::Put, varid, start, count, stride)?;
        let total = runs_total(&req.runs);
        if total as usize != payload {
            return Err(NcmpiError::InvalidArgument(format!(
                "access selects {total} bytes but the payload holds {payload}"
            )));
        }
        self.grow_numrecs(varid, start, count, stride);
        self.invalidate_cache(varid);
        Ok(())
    }

    /// Lower a read access into `req`: validate against the current record
    /// count and resolve to file runs.
    pub(crate) fn lower_get(
        &mut self,
        req: &mut AccessReq,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> NcmpiResult<()> {
        self.lower(req, AccessKind::Get, varid, start, count, stride)
    }

    fn lower(
        &self,
        req: &mut AccessReq,
        kind: AccessKind,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> NcmpiResult<()> {
        req.nctype = self.var_nctype(varid)?;
        self.build_region(
            varid,
            start,
            count,
            stride,
            kind == AccessKind::Put,
            &mut req.runs,
        )?;
        req.id = Request::NULL;
        req.varid = varid;
        req.kind = kind;
        req.record = self.header.is_record_var(varid);
        req.trace_id = 0;
        req.queued = Time::ZERO;
        Ok(())
    }

    /// The body of every blocking put, typed or flexible. `lower` validates
    /// the call, lowers it into the request it is given and says where the
    /// payload is: lent by the caller, or (`None`) staged in the request's
    /// `buffer` as external bytes.
    ///
    /// In collective mode the outcome of `lower` is agreed *before* entering
    /// the collective execution: if any rank failed validation, every rank
    /// returns that same error and nobody enters the two-phase exchange
    /// alone.
    pub(crate) fn put_blocking<'p>(
        &mut self,
        collective: bool,
        lower: impl FnOnce(&mut Dataset, &mut AccessReq) -> NcmpiResult<Option<Lent<'p>>>,
    ) -> NcmpiResult<()> {
        self.require_mode(collective)?;
        // A blocking call is a queue-depth-one flush of the unified request
        // engine, lowered into the dataset's recycled request.
        self.with_staging(|ds, req| {
            let numrecs = ds.header.numrecs;
            let lowered = lower(ds, req);
            let lent = match ds.agree_if(collective, lowered) {
                Ok(lent) => lent,
                Err(e) => {
                    // Nothing was written: the records this rank's lowering
                    // counted (while another rank's failed) do not exist.
                    ds.header.numrecs = numrecs;
                    return Err(e);
                }
            };
            let payload = lent.unwrap_or(Lent {
                bytes: &req.buffer,
                width: 1,
            });
            let done = ds.execute_put_now(req, payload, collective);
            // Execution faults can be aggregator-local (a storage fault that
            // exhausted one rank's retry budget), so agree on those too.
            let mut done = ds.agree_if(collective, done);
            // Server failover: the agreed (or, independently, local) verdict
            // says a crashed server is coverable by parity — mark it down
            // (idempotent) and re-issue the same write once in degraded mode.
            if let Some(server) = agreed_server_lost(&done) {
                ds.file.raw().mark_server_down(server);
                let retried = ds.execute_put_now(req, payload, collective);
                done = ds.agree_if(collective, retried);
            }
            done
        })
    }

    /// Execute one lowered put immediately (the blocking path).
    fn execute_put_now(
        &mut self,
        req: &AccessReq,
        payload: Lent<'_>,
        collective: bool,
    ) -> NcmpiResult<()> {
        let events = &self.comm.config().events;
        let rid = events.is_enabled().then(|| events.next_id());
        let t0 = self.comm.now();
        {
            let _ctx = rid.map(|r| TraceCtx::enter(self.comm.world_rank(), r));
            if collective {
                self.file
                    .write_native_runs_at_all(&req.runs, payload.bytes, payload.width)?;
                if req.record {
                    self.reconcile_numrecs()?;
                }
            } else {
                assert!(
                    can_lend(false, payload.width),
                    "an independent put was lent unconverted elements"
                );
                self.file.write_runs_at(&req.runs, payload.bytes)?;
            }
        }
        let bytes = payload.bytes.len() as u64;
        if let Some(r) = rid {
            self.comm.config().events.record(
                Span::new(
                    self.comm.world_rank(),
                    layer::CORE,
                    "put",
                    t0.as_nanos(),
                    self.comm.now().as_nanos(),
                )
                .with_id(r)
                .with_arg("bytes", bytes),
            );
        }
        self.profile.record(req.varid, true, false, bytes);
        Ok(())
    }

    /// The second half of every blocking get, typed or flexible, once its
    /// lowering is agreed: read the external bytes of `runs` into `dst`, in
    /// run order, agreeing on the outcome in collective mode, and charge
    /// the external→native conversion every caller performs next.
    pub(crate) fn get_blocking(
        &mut self,
        varid: usize,
        runs: &[Run],
        dst: &mut [u8],
        collective: bool,
    ) -> NcmpiResult<()> {
        let got = self.execute_get_now(varid, runs, dst, collective);
        let mut got = self.agree_if(collective, got);
        // Server failover on reads: degraded mode reconstructs the lost
        // server's chunks from surviving data + parity.
        if let Some(server) = agreed_server_lost(&got) {
            self.file.raw().mark_server_down(server);
            let retried = self.execute_get_now(varid, runs, dst, collective);
            got = self.agree_if(collective, retried);
        }
        got?;
        self.comm
            .advance(self.comm.config().cpu.pack(dst.len(), 1.0));
        Ok(())
    }

    /// Execute one lowered get immediately (the blocking path): `dst` ends
    /// up holding exactly the external bytes of the selection, in run order.
    fn execute_get_now(
        &mut self,
        varid: usize,
        runs: &[Run],
        dst: &mut [u8],
        collective: bool,
    ) -> NcmpiResult<()> {
        let events = &self.comm.config().events;
        let rid = events.is_enabled().then(|| events.next_id());
        let t0 = self.comm.now();
        {
            let _ctx = rid.map(|r| TraceCtx::enter(self.comm.world_rank(), r));
            if collective {
                self.file.read_runs_into_all(runs, dst)?
            } else {
                self.file.read_runs_into(runs, dst)?
            }
        };
        let total = dst.len() as u64;
        if let Some(r) = rid {
            events.record(
                Span::new(
                    self.comm.world_rank(),
                    layer::CORE,
                    "get",
                    t0.as_nanos(),
                    self.comm.now().as_nanos(),
                )
                .with_id(r)
                .with_arg("bytes", total),
            );
        }
        self.profile.record(varid, false, false, total);
        Ok(())
    }

    pub(crate) fn enqueue(&mut self, mut req: AccessReq) -> Request {
        let id = self.req_table.issue();
        req.id = id;
        let events = &self.comm.config().events;
        if events.is_enabled() {
            req.trace_id = events.next_id();
            req.queued = self.comm.now();
        }
        self.pending.push(req);
        id
    }

    fn enqueue_put_typed<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        self.check_count(count, vals.len())?;
        let mut req = AccessReq::default();
        to_external_into(vals, self.var_nctype(varid)?, &mut req.buffer)?;
        self.comm
            .advance(self.comm.config().cpu.pack(req.buffer.len(), 1.0));
        let staged = req.buffer.len();
        self.lower_put(&mut req, varid, start, count, stride, staged)?;
        Ok(self.enqueue(req))
    }

    fn enqueue_get(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: Option<&[u64]>,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let mut req = AccessReq::default();
        self.lower_get(&mut req, varid, start, count, stride)?;
        Ok(self.enqueue(req))
    }

    // ---- the nonblocking API ------------------------------------------------

    /// Queue a subarray write (`ncmpi_iput_vara_<type>`); complete it with
    /// [`Dataset::wait_all`] (collective mode) or [`Dataset::wait`]
    /// (independent mode).
    pub fn iput_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.enqueue_put_typed(varid, start, count, None, vals)
    }

    /// Queue a strided subarray write (`ncmpi_iput_vars_<type>`).
    pub fn iput_vars<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.enqueue_put_typed(varid, start, count, Some(stride), vals)
    }

    /// Queue a single-element write (`ncmpi_iput_var1_<type>`).
    pub fn iput_var1<T: NcValue>(
        &mut self,
        varid: usize,
        index: &[u64],
        val: T,
    ) -> NcmpiResult<Request> {
        let count = vec![1u64; index.len()];
        self.enqueue_put_typed(varid, index, &count, None, &[val])
    }

    /// Queue a whole-variable write (`ncmpi_iput_var_<type>`).
    pub fn iput_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.enqueue_put_typed(varid, &start, &count, None, vals)
    }

    /// Queue a flexible subarray write (`ncmpi_iput_vara`): memory described
    /// by an MPI datatype.
    pub fn iput_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let (nctype, _) = self.flexible_common(varid, count, bufcount, memtype)?;
        // Fused gather+convert: one pass instead of pack-then-swap. The
        // simulator still charges both steps — the datatype walk and the
        // endianness conversion are real work; only the extra buffer is gone.
        let ext = convert::pack_to_external(buf, bufcount, memtype, nctype)?;
        self.comm
            .config()
            .profile
            .record_bytepath(|b| b.fused_pack_bytes += ext.len() as u64);
        if !memtype.is_contiguous() {
            self.comm
                .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        }
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        let mut req = AccessReq {
            buffer: ext,
            ..AccessReq::default()
        };
        let staged = req.buffer.len();
        self.lower_put(&mut req, varid, start, count, None, staged)?;
        Ok(self.enqueue(req))
    }

    /// Queue a flexible subarray read (`ncmpi_iget_vara`): the memory
    /// description is validated now; retrieve the bytes with
    /// [`Dataset::take_result_flexible`] after the wait call completes it.
    pub fn iget_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        self.flexible_common(varid, count, bufcount, memtype)?;
        self.enqueue_get(varid, start, count, None)
    }

    /// Queue a subarray read (`ncmpi_iget_vara_<type>`); retrieve the values
    /// with [`Dataset::take_result`] after the wait call completes it.
    pub fn iget_vara(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Request> {
        self.enqueue_get(varid, start, count, None)
    }

    /// Queue a strided subarray read (`ncmpi_iget_vars_<type>`).
    pub fn iget_vars(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Request> {
        self.enqueue_get(varid, start, count, Some(stride))
    }

    /// Queue a single-element read (`ncmpi_iget_var1_<type>`).
    pub fn iget_var1(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<Request> {
        let count = vec![1u64; index.len()];
        self.enqueue_get(varid, index, &count, None)
    }

    /// Queue a whole-variable read (`ncmpi_iget_var_<type>`).
    pub fn iget_var(&mut self, varid: usize) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, None)?;
        self.enqueue_get(varid, &start, &count, None)
    }

    /// Number of queued, un-waited requests.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Retrieve (and consume) a completed get's values. A get whose flush
    /// failed yields the per-request error recorded at flush time.
    pub fn take_result<T: NcValue>(&mut self, req: Request) -> NcmpiResult<Vec<T>> {
        let (nctype, ext) = self
            .results
            .remove(&req.id())
            .ok_or_else(|| NcmpiError::NotFound(format!("completed request {req:?}")))??;
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        Ok(from_external(&ext, nctype)?)
    }

    /// Retrieve (and consume) a completed get's bytes into a flexible-API
    /// memory description.
    pub fn take_result_flexible(
        &mut self,
        req: Request,
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        let (nctype, ext) = self
            .results
            .remove(&req.id())
            .ok_or_else(|| NcmpiError::NotFound(format!("completed request {req:?}")))??;
        self.comm
            .advance(self.comm.config().cpu.pack(ext.len(), 1.0));
        self.comm
            .config()
            .profile
            .record_bytepath(|b| b.fused_unpack_bytes += ext.len() as u64);
        // Fused convert+scatter: one pass instead of swap-then-unpack.
        convert::unpack_from_external(&ext, buf, bufcount, memtype, nctype)?;
        Ok(())
    }

    // ---- waiting ------------------------------------------------------------

    /// Collectively complete every pending request (`ncmpi_wait_all`).
    ///
    /// All ranks must call this together (ranks with nothing pending still
    /// participate). Pending puts merge into a single collective write;
    /// pending gets merge into a single collective read — regardless of how
    /// many requests were queued.
    pub fn wait_all(&mut self) -> NcmpiResult<()> {
        self.require_collective()?;
        let reqs = std::mem::take(&mut self.pending);
        // Agree on which phases run: ranks may have queued different mixes.
        let local = [
            reqs.iter().any(|r| r.kind == AccessKind::Put) as u64,
            reqs.iter().any(|r| r.kind == AccessKind::Get) as u64,
            reqs.iter().any(|r| r.kind == AccessKind::Put && r.record) as u64,
        ];
        let global = self.comm.allreduce(ReduceOp::Max, &local)?;
        // The queue is already drained (`mem::take`) and `flush_merged`
        // records a per-request error result for every get it could not
        // serve, so even a failed flush leaves no stale requests behind.
        let flushed = self.flush_merged(&reqs, global[0] != 0, global[1] != 0, true);
        let mut flushed = self.agree(flushed);
        // Server failover: when the *agreed* outcome is a lost-but-
        // coverable server, every rank — driven by the same agreed error,
        // so at the same operation — marks it down (idempotently) and the
        // whole collective retries once in degraded mode. Puts re-issue
        // the same bytes (idempotent); gets overwrite their error results.
        if let Some(server) = agreed_server_lost(&flushed) {
            self.file.raw().mark_server_down(server);
            let retried = self.flush_merged(&reqs, global[0] != 0, global[1] != 0, true);
            flushed = self.agree(retried);
        }
        if flushed.is_ok() && global[2] != 0 {
            self.reconcile_numrecs()?;
        }
        flushed
    }

    /// Independently complete every pending request (`ncmpi_wait`).
    pub fn wait(&mut self) -> NcmpiResult<()> {
        self.require_independent()?;
        let reqs = std::mem::take(&mut self.pending);
        let do_puts = reqs.iter().any(|r| r.kind == AccessKind::Put);
        let do_gets = reqs.iter().any(|r| r.kind == AccessKind::Get);
        let flushed = self.flush_merged(&reqs, do_puts, do_gets, false);
        // Independent-mode failover: no agreement round — the shared mark
        // is idempotent, so whichever rank escalates first flips it and
        // the others find it already down.
        if let Some(server) = agreed_server_lost(&flushed) {
            self.file.raw().mark_server_down(server);
            return self.flush_merged(&reqs, do_puts, do_gets, false);
        }
        flushed
    }

    /// Merge and issue the pending queue: at most one write and one read.
    /// Writes flush first, so a get queued after a put of the same region
    /// observes the new data.
    fn flush_merged(
        &mut self,
        reqs: &[AccessReq],
        do_puts: bool,
        do_gets: bool,
        collective: bool,
    ) -> NcmpiResult<()> {
        let events = &self.comm.config().events;
        let tracing = events.is_enabled();
        let rank = self.comm.world_rank();
        let mut failure: Option<NcmpiError> = None;
        if do_puts {
            let (runs, staging) = merge_puts(reqs);
            if matches!(staging, std::borrow::Cow::Borrowed(_)) {
                self.comm.config().profile.record_bytepath(|b| {
                    b.copies_elided += 1;
                    b.borrowed_bytes += staging.len() as u64;
                });
            }
            // Merging N staged buffers into one is memcpy work.
            self.comm
                .advance(self.comm.config().cpu.pack(staging.len(), 1.0));
            let rid = if tracing { events.next_id() } else { 0 };
            let t0 = self.comm.now();
            let wrote = {
                let _ctx = tracing.then(|| TraceCtx::enter(rank, rid));
                if collective {
                    self.file.write_runs_at_all(&runs, &staging).map(|_| ())
                } else {
                    self.file.write_runs_at(&runs, &staging).map(|_| ())
                }
            };
            if tracing {
                let t1 = self.comm.now();
                let nputs = reqs.iter().filter(|r| r.kind == AccessKind::Put).count();
                events.record(
                    Span::new(rank, layer::CORE, "flush_put", t0.as_nanos(), t1.as_nanos())
                        .with_id(rid)
                        .with_arg("reqs", nputs as u64)
                        .with_arg("bytes", staging.len() as u64),
                );
                // One span per queued request: queue time through the merged
                // flush that carried its bytes, linked to the flush span.
                for req in reqs.iter().filter(|r| r.kind == AccessKind::Put) {
                    if req.trace_id == 0 {
                        continue;
                    }
                    events.record(
                        Span::new(
                            rank,
                            layer::CORE,
                            "iput",
                            req.queued.as_nanos(),
                            t1.as_nanos(),
                        )
                        .with_id(req.trace_id)
                        .with_parent(rid)
                        .with_arg("bytes", req.buffer.len() as u64),
                    );
                }
            }
            match wrote {
                Ok(()) => {
                    // Attribute per queued request (pre-merge sizes), so the
                    // same workload reports the same put_size via either
                    // access mode.
                    for req in reqs.iter().filter(|r| r.kind == AccessKind::Put) {
                        self.profile
                            .record(req.varid, true, true, req.buffer.len() as u64);
                    }
                }
                Err(e) => failure = Some(e.into()),
            }
        }
        if do_gets {
            if let Some(e) = failure.clone() {
                // The write flush already failed: complete every queued get
                // with that error rather than attempting the read, so the
                // drained queue reports per-request outcomes.
                for req in reqs.iter().filter(|r| r.kind == AccessKind::Get) {
                    self.results.insert(req.id.id(), Err(e.clone()));
                }
            } else {
                let cov = merge_gets(reqs);
                let rid = if tracing { events.next_id() } else { 0 };
                let t0 = self.comm.now();
                let read = {
                    let _ctx = tracing.then(|| TraceCtx::enter(rank, rid));
                    if collective {
                        self.file.read_runs_at_all(&cov)
                    } else {
                        self.file.read_runs_at(&cov)
                    }
                };
                if tracing {
                    let t1 = self.comm.now();
                    let ngets = reqs.iter().filter(|r| r.kind == AccessKind::Get).count();
                    let bytes: u64 = cov.iter().map(|r| r.1).sum();
                    events.record(
                        Span::new(rank, layer::CORE, "flush_get", t0.as_nanos(), t1.as_nanos())
                            .with_id(rid)
                            .with_arg("reqs", ngets as u64)
                            .with_arg("bytes", bytes),
                    );
                    for req in reqs.iter().filter(|r| r.kind == AccessKind::Get) {
                        if req.trace_id == 0 {
                            continue;
                        }
                        events.record(
                            Span::new(
                                rank,
                                layer::CORE,
                                "iget",
                                req.queued.as_nanos(),
                                t1.as_nanos(),
                            )
                            .with_id(req.trace_id)
                            .with_parent(rid),
                        );
                    }
                }
                match read {
                    Ok(data) => {
                        let pos = coverage_positions(&cov);
                        for req in reqs.iter().filter(|r| r.kind == AccessKind::Get) {
                            let bytes = extract_runs(&cov, &pos, &data, &req.runs);
                            self.profile
                                .record(req.varid, false, true, bytes.len() as u64);
                            self.results.insert(req.id.id(), Ok((req.nctype, bytes)));
                        }
                    }
                    Err(e) => {
                        let e: NcmpiError = e.into();
                        for req in reqs.iter().filter(|r| r.kind == AccessKind::Get) {
                            self.results.insert(req.id.id(), Err(e.clone()));
                        }
                        failure = Some(e);
                    }
                }
            }
        }
        match failure {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage each source buffer in order (whole buffer at one offset) and
    /// gather the merged result.
    fn merged(inserts: &[(u64, &[u8])]) -> (Vec<Run>, Vec<u8>) {
        let mut s = RunStage::default();
        for (src, &(off, bytes)) in inserts.iter().enumerate() {
            s.insert(off, bytes.len() as u64, src, 0);
        }
        let sources: Vec<&[u8]> = inserts.iter().map(|&(_, b)| b).collect();
        s.into_merged_with(&sources)
    }

    #[test]
    fn run_stage_disjoint_inserts_coalesce() {
        let (runs, data) = merged(&[(8, &[3, 4]), (0, &[1, 2]), (2, &[9, 9])]);
        assert_eq!(runs, vec![(0, 4), (8, 2)]);
        assert_eq!(data, vec![1, 2, 9, 9, 3, 4]);
    }

    #[test]
    fn run_stage_later_insert_wins_overlap() {
        // Second insert punches the middle of the first.
        let (runs, data) = merged(&[(0, &[1; 8]), (2, &[2; 4])]);
        assert_eq!(runs, vec![(0, 8)]);
        assert_eq!(data, vec![1, 1, 2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn run_stage_overlap_spanning_segments() {
        // Third insert covers the tail of the first, head of the second.
        let (runs, data) = merged(&[(0, &[1; 4]), (6, &[2; 4]), (2, &[3; 6])]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![1, 1, 3, 3, 3, 3, 3, 3, 2, 2]);
    }

    #[test]
    fn run_stage_full_cover_replaces() {
        let (runs, data) = merged(&[(4, &[1; 2]), (0, &[2; 10])]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![2; 10]);
    }

    #[test]
    fn run_stage_split_keeps_source_positions() {
        // One multi-run source overlaid in its middle: the surviving head
        // and tail pieces must still index the right bytes of the source.
        let src0: Vec<u8> = (10..20).collect();
        let src1 = vec![99u8; 4];
        let mut s = RunStage::default();
        s.insert(0, 10, 0, 0);
        s.insert(3, 4, 1, 0);
        let (runs, data) = s.into_merged_with(&[&src0, &src1]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(data, vec![10, 11, 12, 99, 99, 99, 99, 17, 18, 19]);
    }

    fn put_req(runs: Vec<Run>, buffer: Vec<u8>) -> AccessReq {
        AccessReq {
            kind: AccessKind::Put,
            runs,
            buffer,
            ..AccessReq::default()
        }
    }

    #[test]
    fn single_put_borrows_staging() {
        let reqs = vec![put_req(vec![(0, 2), (8, 2)], vec![1, 2, 3, 4])];
        let (runs, staging) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 2), (8, 2)]);
        assert!(
            matches!(staging, std::borrow::Cow::Borrowed(_)),
            "single coalesced put must not copy its staging buffer"
        );
        assert_eq!(&*staging, &[1, 2, 3, 4]);
    }

    #[test]
    fn multi_put_merges_last_wins() {
        let reqs = vec![
            put_req(vec![(0, 4)], vec![1; 4]),
            put_req(vec![(2, 4)], vec![2; 4]),
        ];
        let (runs, staging) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 6)]);
        assert_eq!(&*staging, &[1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn get_coverage_merges_and_extracts() {
        let a = AccessReq {
            runs: vec![(0, 4), (10, 2)],
            ..AccessReq::default()
        };
        let b = AccessReq {
            varid: 1,
            runs: vec![(2, 4)],
            ..AccessReq::default()
        };
        let cov = merge_gets(&[a, b]);
        assert_eq!(cov, vec![(0, 6), (10, 2)]);
        let pos = coverage_positions(&cov);
        // Coverage bytes: offsets 0..6 then 10..12.
        let data: Vec<u8> = vec![0, 1, 2, 3, 4, 5, 10, 11];
        assert_eq!(
            extract_runs(&cov, &pos, &data, &[(0, 4), (10, 2)]),
            vec![0, 1, 2, 3, 10, 11]
        );
        assert_eq!(extract_runs(&cov, &pos, &data, &[(2, 4)]), vec![2, 3, 4, 5]);
    }
}
