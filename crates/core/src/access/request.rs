//! The one request path, and the nonblocking API.
//!
//! A request is one file description (`Sel`: a variable and a strided
//! subarray of it) plus one memory description (`PutMem` / `GetMem`:
//! values of a native type, or bytes under an MPI datatype), whichever of
//! the typed, flexible, blocking and nonblocking calls produced it. All of
//! them are argument adapters over the five bodies here —
//! `put_blocking`, `get_blocking`, `put_queued`, `get_queued`, `take` — and
//! those share one step per job:
//!
//! * `Dataset::stage` lowers a put into an `AccessReq`: size check,
//!   then the payload is *lent* where it lies or *staged* in the request's
//!   `buffer` (converted, or gathered and swapped in one pass), the
//!   conversion is charged, and the access is frozen as file byte runs.
//! * `Dataset::deliver` ends a get: the external bytes are put where the
//!   values end up and swapped there, or into staging and converted or
//!   scattered from it.
//! * `Dataset::settle` runs an execution to an outcome every rank shares:
//!   execute, agree, and once — on an agreed lost server — mark it down
//!   and execute again in degraded mode.
//! * `Dataset::traced` gives an execution its request id, its trace
//!   context and its CORE span.
//!
//! Lend or stage — one decision for all doors, made in `stage` and
//! `deliver` (`same type`: the memory's elements are the variable's
//! external type but for byte order; `packed`: one after another from the
//! start of the buffer, as typed values always are):
//!
//! | access | same type and packed | converting, or strided memory |
//! |---|---|---|
//! | blocking put, collective or independent | lent in host order; the gather that stores it (a two-phase window's, the sieve's, the page cache's) converts each piece where it stores it | staged |
//! | queued put (`iput_*`) | staged: the queue owns a copy until the wait call, which lends it where it lies | staged |
//! | get, blocking or `take_result*` | read into the memory itself, swapped in place | read into staging, converted or scattered from it |
//!
//! Staging is the dataset's one recycled request for the blocking calls
//! (`Dataset::staging`, see `Dataset::with_staging`) and the queued
//! request's own buffer for the nonblocking ones.
//!
//! A blocking call is a queue-depth-one flush: `flush_merged` hands the
//! merged run list of a whole queue to the same `execute_put` /
//! `execute_get`, under the same `traced` and `settle`, and adds only what
//! a queue adds. That is where the paper's aggregation idea pays off (the
//! optimization production PnetCDF later shipped as
//! `ncmpi_iput/ncmpi_wait_all`): all pending puts merge into **one**
//! sorted, overlap-resolved run list issued as a single collective write,
//! all pending gets union into one run list issued as a single collective
//! read — N queued variable accesses cost one or two collective rounds
//! instead of N. The merged write copies nothing: its payload is a gather
//! list of the slices of the staged buffers that survive the overlaps, and
//! a two-phase window, the sieve or the page cache reads them where the
//! queue keeps them (a blocking put is the one-segment case).

use hpc_sim::trace::events::layer;
use hpc_sim::{Span, Time, TraceCtx};
use pnetcdf_format::swap::swap_inplace;
use pnetcdf_format::types::{from_external, to_external_into};
use pnetcdf_format::{NcType, NcValue};
use pnetcdf_mpi::{Datatype, MpiError, ReduceOp, Request};
use pnetcdf_mpio::runs::{coalesce, runs_total};
use pnetcdf_mpio::{MpioError, Run};
use pnetcdf_pfs::pool;

use crate::access::highlevel::ones;
use crate::access::map::{gather_by_imap, imap_reach, scatter_by_imap};
use crate::convert;
use crate::dataset::{DataMode, Dataset};
use crate::error::{NcmpiError, NcmpiResult};

/// Direction of an access request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AccessKind {
    Put,
    Get,
}

/// The file side of an access: a (strided) subarray of one variable.
#[derive(Clone, Copy)]
pub(crate) struct Sel<'a> {
    pub varid: usize,
    pub start: &'a [u64],
    pub count: &'a [u64],
    pub stride: Option<&'a [u64]>,
}

impl<'a> Sel<'a> {
    pub(crate) fn new(
        varid: usize,
        start: &'a [u64],
        count: &'a [u64],
        stride: Option<&'a [u64]>,
    ) -> Sel<'a> {
        Sel {
            varid,
            start,
            count,
            stride,
        }
    }
}

/// A memory description and a selection must hold the same bytes.
fn check_described(described: usize, selected: usize) -> NcmpiResult<()> {
    if described != selected {
        return Err(NcmpiError::InvalidArgument(format!(
            "memory datatype describes {described} bytes but the access selects {selected}"
        )));
    }
    Ok(())
}

/// The memory side of a put.
pub(crate) enum PutMem<'a, T> {
    /// Values of a native type (the typed API), converted to the
    /// variable's external type.
    Values(&'a [T]),
    /// `bufcount` instances of an MPI datatype inside `buf` (the flexible
    /// API; `T` is unused). The memory elements must be as wide as the
    /// variable's external type (the common usage), so the conversion is
    /// an endianness swap.
    Described(&'a [u8], usize, &'a Datatype),
    /// Values laid out by an `imap` (the `varm` calls), and the vector
    /// they are gathered into in canonical order, to be put from there as
    /// [`PutMem::Values`].
    Mapped(&'a [T], &'a [u64], &'a mut Vec<T>),
}

/// The memory side of a get.
pub(crate) enum GetMem<'a, T> {
    /// Values of a native type, left here in a vector allocated for them —
    /// the call's one allocation.
    Values(&'a mut Vec<T>),
    /// As [`PutMem::Described`].
    Described(&'a mut [u8], usize, &'a Datatype),
    /// Values to be scattered by an `imap` of the selection's `count`
    /// into a vector allocated for them.
    Mapped(&'a mut Vec<T>, &'a [u64], &'a [u64]),
}

impl<T> GetMem<'_, T> {
    /// Can the memory take the `bytes` external bytes of a selection?
    /// Checked before anything is read — in a collective call before the
    /// agreement, since this is for one rank alone to get wrong.
    fn fits(&self, bytes: usize) -> NcmpiResult<()> {
        if let GetMem::Mapped(_, count, imap) = self {
            return imap_reach(count, imap).map(drop);
        }
        let GetMem::Described(buf, bufcount, memtype) = self else {
            return Ok(());
        };
        check_described(memtype.size() as usize * bufcount, bytes)?;
        if memtype.is_packed() && buf.len() < bytes {
            return Err(NcmpiError::Mpi(MpiError::Truncated {
                needed: bytes,
                available: buf.len(),
            }));
        }
        Ok(())
    }
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
    /// External (big-endian) bytes in run order, for the accesses that
    /// stage them (the table in the module doc). Unused by the others.
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

impl AccessReq {
    /// Where a put stages the `bytes` it keeps: a queued put (`pooled`)
    /// into a buffer of exactly that size from the process's byte pool,
    /// a blocking one into the recycled request's own.
    fn staging(&mut self, pooled: bool, bytes: usize) -> &mut Vec<u8> {
        if pooled {
            self.buffer = pool::take(bytes);
        }
        &mut self.buffer
    }
}

/// The most capacity, in bytes, a vector of the dataset's recycled request
/// keeps between blocking calls. Small accesses — the ones whose cost is
/// per-request overhead — reuse their run list and, for the staged kinds
/// (converting puts, converting or strided gets), their staging; a dataset
/// that once staged 32 MiB in one call does not hold 32 MiB until `close`.
const STAGING_RETAIN: usize = 1 << 20;

/// The bytes a put writes, borrowed for the call, and their width:
/// elements that wide in host byte order, or — width 1 — bytes that already
/// are what the file is to hold.
type Lent<'a> = (&'a [u8], usize);

/// Size `buf` to `len` bytes for a read to fill. A fresh buffer of 4 MiB
/// or more is advised huge pages ([`pool::advise_huge`]).
fn size_for_read(buf: &mut Vec<u8>, len: usize) {
    if buf.capacity() < len {
        // Zeroed pages from the allocator instead of a copy of the old
        // contents followed by a memset.
        *buf = vec![0u8; len];
        pool::advise_huge(buf);
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
/// across ranks). Resolving overlaps never copies a byte, and neither does
/// [`RunStage::lend`]: the pieces are lent as they are.
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

    /// Final merged form: coalesced runs plus their bytes as a gather list
    /// into `sources` — a piece that continues its predecessor's slice of
    /// the same source extends that segment, so a buffer nothing overwrote
    /// is one segment however many runs it has.
    pub(crate) fn lend<'s>(&self, sources: &[&'s [u8]]) -> (Vec<Run>, Vec<&'s [u8]>) {
        let mut runs: Vec<Run> = Vec::with_capacity(self.pieces.len());
        let mut segs: Vec<&[u8]> = Vec::with_capacity(self.pieces.len());
        // The newest segment: bytes `from..to` of source `src`.
        let (mut src, mut from, mut to) = (usize::MAX, 0u64, 0u64);
        for p in &self.pieces {
            match runs.last_mut() {
                Some(last) if last.0 + last.1 == p.off => last.1 += p.len,
                _ => runs.push((p.off, p.len)),
            }
            if (src, to) == (p.src, p.pos) {
                segs.pop();
            } else {
                (src, from) = (p.src, p.pos);
            }
            to = p.pos + p.len;
            segs.push(&sources[src][from as usize..to as usize]);
        }
        (runs, segs)
    }
}

/// Merge the put requests into one sorted run list + the gather list of its
/// bytes in the requests' staged buffers, later requests winning overlaps.
fn merge_puts(reqs: &[AccessReq]) -> (Vec<Run>, Vec<&[u8]>) {
    let puts = || reqs.iter().filter(|r| r.kind == AccessKind::Put);
    let mut stage = RunStage::default();
    for (src, req) in puts().enumerate() {
        let mut pos = 0u64;
        for &(off, len) in &req.runs {
            stage.insert(off, len, src, pos);
            pos += len;
        }
    }
    let sources: Vec<&[u8]> = puts().map(|r| r.buffer.as_slice()).collect();
    stage.lend(&sources)
}

/// Union of all get requests' runs: sorted, coalesced coverage.
fn merge_gets(reqs: &[AccessReq]) -> Vec<Run> {
    let mut all: Vec<Run> = reqs
        .iter()
        .filter(|r| r.kind == AccessKind::Get)
        .flat_map(|r| r.runs.iter().copied())
        .collect();
    coalesce(&mut all);
    all
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
    fn agree_if<T>(&mut self, collective: bool, local: NcmpiResult<T>) -> NcmpiResult<T> {
        if collective {
            self.agree(local)
        } else {
            local
        }
    }

    /// The data mode a call of this flavor requires.
    fn require_mode(&self, collective: bool) -> NcmpiResult<()> {
        if collective {
            self.require_collective()
        } else {
            self.require_independent()
        }
    }

    /// The variable's external type, or `NotFound`.
    fn var_nctype(&self, varid: usize) -> NcmpiResult<NcType> {
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

    /// Charge the CPU one pass over `bytes` bytes — a conversion between
    /// native and external form, a gather, a merge — wherever the host
    /// ends up doing that work.
    fn charge_pass(&self, bytes: usize) {
        self.comm.advance(self.comm.config().cpu.pack(bytes, 1.0));
    }

    /// Run one blocking call with the dataset's recycled request to lower
    /// into. However the call ends, the request's vectors are kept for the
    /// next one — unless one has grown past [`STAGING_RETAIN`].
    fn with_staging<R>(&mut self, call: impl FnOnce(&mut Dataset, &mut AccessReq) -> R) -> R {
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

    /// Freeze an access into `req`: validate it (a get against the current
    /// record count) and resolve it to file runs.
    fn lower(&self, req: &mut AccessReq, kind: AccessKind, sel: Sel<'_>) -> NcmpiResult<()> {
        req.nctype = self.var_nctype(sel.varid)?;
        self.build_region(sel, kind == AccessKind::Put, &mut req.runs)?;
        req.id = Request::NULL;
        req.varid = sel.varid;
        req.kind = kind;
        req.record = self.header.is_record_var(sel.varid);
        req.trace_id = 0;
        req.queued = Time::ZERO;
        Ok(())
    }

    // ---- one lowering per direction -------------------------------------------

    /// Lower a put into `req`. The payload is lent back where it lies when
    /// `lend` (a blocking put; a queued one keeps a copy) and it is of the
    /// variable's type and packed; otherwise it is left in `req.buffer` in
    /// external form — converted (`NC_ERANGE` before any byte moves), or
    /// gathered and swapped in one fused pass — a queued put's in a
    /// pooled buffer ([`AccessReq::staging`]). A mapped put is gathered
    /// into canonical order first, so a bad map is a lowering error like
    /// any other. Grows the local record count and invalidates the
    /// variable's prefetch cache, so later accesses in the same batch see
    /// the post-write state.
    fn stage<'m, T: NcValue>(
        &mut self,
        req: &mut AccessReq,
        sel: Sel<'_>,
        mem: PutMem<'m, T>,
        lend: bool,
    ) -> NcmpiResult<Option<Lent<'m>>> {
        self.require_writable()?;
        let nctype = self.var_nctype(sel.varid)?;
        let width = nctype.size() as usize;
        let elems = sel.count.iter().product::<u64>() as usize;
        let bytes = elems * width;
        let (lent, walked) = match mem {
            PutMem::Values(vals) => {
                if vals.len() != elems {
                    return Err(NcmpiError::InvalidArgument(format!(
                        "value buffer has {} elements, access selects {elems}",
                        vals.len()
                    )));
                }
                if nctype == T::NATURAL && lend {
                    (Some((T::as_bytes(vals), width)), false)
                } else {
                    to_external_into(vals, nctype, req.staging(!lend, bytes))?;
                    (None, false)
                }
            }
            PutMem::Described(buf, bufcount, memtype) => {
                check_described(memtype.size() as usize * bufcount, bytes)?;
                let lent = if memtype.is_packed() && lend {
                    let native = buf.get(..bytes).ok_or(MpiError::Truncated {
                        needed: bytes,
                        available: buf.len(),
                    })?;
                    Some((native, width))
                } else {
                    let staging = req.staging(!lend, bytes);
                    convert::pack_to_external_into(buf, bufcount, memtype, nctype, staging)?;
                    let profile = &self.comm.config().profile;
                    profile.record_bytepath(|b| b.fused_pack_bytes += bytes as u64);
                    None
                };
                (lent, !memtype.is_contiguous())
            }
            PutMem::Mapped(vals, imap, canonical) => {
                *canonical = gather_by_imap(sel.count, imap, vals)?;
                return self.stage(req, sel, PutMem::Values(canonical), lend);
            }
        };
        // The datatype walk and the native→external conversion are real CPU
        // work, charged separately, wherever the host ends up doing them.
        if walked {
            self.charge_pass(bytes);
        }
        self.charge_pass(bytes);
        self.lower(req, AccessKind::Put, sel)?;
        debug_assert_eq!(runs_total(&req.runs) as usize, bytes);
        self.grow_numrecs(sel);
        self.invalidate_cache(sel.varid);
        Ok(lent)
    }

    /// End a get of `bytes` external bytes of type `nctype` in `mem`, which
    /// [`GetMem::fits`] them. `fill` supplies the bytes, in run order: into
    /// the memory itself when its elements are of the variable's type and
    /// packed, to be swapped where they lie; otherwise into `staging`, to
    /// be converted or scattered from there in one fused pass.
    fn deliver<T: NcValue>(
        &mut self,
        mem: GetMem<'_, T>,
        nctype: NcType,
        bytes: usize,
        staging: &mut Vec<u8>,
        fill: impl FnOnce(&mut Dataset, &mut [u8]) -> NcmpiResult<()>,
    ) -> NcmpiResult<()> {
        let width = nctype.size() as usize;
        let in_place = match mem {
            GetMem::Values(out) if nctype == T::NATURAL => {
                *out = vec![T::ZERO; bytes / width];
                pool::advise_huge(T::as_bytes_mut(out));
                T::as_bytes_mut(out)
            }
            GetMem::Described(buf, _, memtype) if memtype.is_packed() => &mut buf[..bytes],
            staged => {
                size_for_read(staging, bytes);
                fill(self, staging)?;
                self.charge_pass(bytes);
                match staged {
                    GetMem::Values(out) => *out = from_external(staging, nctype)?,
                    GetMem::Mapped(out, count, imap) => {
                        *out = scatter_by_imap(count, imap, &from_external(staging, nctype)?)?
                    }
                    GetMem::Described(buf, bufcount, memtype) => {
                        let profile = &self.comm.config().profile;
                        profile.record_bytepath(|b| b.fused_unpack_bytes += bytes as u64);
                        convert::unpack_from_external(staging, buf, bufcount, memtype, nctype)?;
                    }
                }
                return Ok(());
            }
        };
        fill(self, in_place)?;
        // External→native conversion is real CPU work too.
        self.charge_pass(bytes);
        swap_inplace(in_place, width);
        Ok(())
    }

    // ---- one executor ---------------------------------------------------------

    /// Run `execute` to an outcome every rank shares. Execution faults can
    /// be aggregator-local (a storage fault that exhausted one rank's retry
    /// budget), so in collective mode the outcome is agreed. Server
    /// failover: when the agreed (or, independently, local) verdict is a
    /// crashed server parity can cover, every rank — driven by the same
    /// error, so at the same operation — marks it down (idempotently; in
    /// independent mode whichever rank escalates first flips the shared
    /// mark) and executes once more in degraded mode: puts re-issue the
    /// same bytes, gets are reconstructed from surviving data and parity.
    fn settle(
        &mut self,
        collective: bool,
        mut execute: impl FnMut(&mut Dataset) -> NcmpiResult<()>,
    ) -> NcmpiResult<()> {
        let done = execute(self);
        let done = self.agree_if(collective, done);
        let Err(NcmpiError::Mpio(MpioError::ServerLost { server, .. })) = done else {
            return done;
        };
        self.file.raw().pfs().mark_server_down(server);
        let retried = execute(self);
        self.agree_if(collective, retried)
    }

    /// Run `io` as one request of the event trace: under a fresh request
    /// id, which the layers below attach their spans to, and inside one
    /// CORE span `name` carrying `args`. Returns what `io` returned and the
    /// id (0 while tracing is off).
    fn traced<R>(
        &mut self,
        name: &'static str,
        args: &[(&'static str, u64)],
        io: impl FnOnce(&mut Dataset) -> R,
    ) -> (R, u64) {
        let events = &self.comm.config().events;
        if !events.is_enabled() {
            return (io(self), 0);
        }
        let (rank, rid, t0) = (self.comm.world_rank(), events.next_id(), self.comm.now());
        let out = {
            let _ctx = TraceCtx::enter(rank, rid);
            io(self)
        };
        let t1 = self.comm.now();
        let span = Span::new(rank, layer::CORE, name, t0.as_nanos(), t1.as_nanos()).with_id(rid);
        let span = args.iter().fold(span, |s, &(k, v)| s.with_arg(k, v));
        self.comm.config().events.record(span);
        (out, rid)
    }

    /// Write the payload `segs` lay end to end (elements `width` wide, see
    /// [`Lent`]) to `runs`, lent as that gather list to two-phase I/O, or
    /// to the sieve or the page cache.
    fn execute_put(
        &self,
        runs: &[Run],
        segs: &[&[u8]],
        width: usize,
        collective: bool,
    ) -> NcmpiResult<()> {
        if collective {
            self.file.write_native_runs_at_all(runs, segs, width)?;
        } else {
            self.file.write_native_runs_at(runs, segs, width)?;
        }
        Ok(())
    }

    /// Read the external bytes of `runs` into `dst`, in run order.
    fn execute_get(&self, runs: &[Run], dst: &mut [u8], collective: bool) -> NcmpiResult<()> {
        if collective {
            self.file.read_runs_into_all(runs, dst)?;
        } else {
            self.file.read_runs_into(runs, dst)?;
        }
        Ok(())
    }

    // ---- the five bodies ------------------------------------------------------

    /// Every blocking put, typed or flexible.
    ///
    /// In collective mode the outcome of the lowering is agreed *before*
    /// entering the collective execution: if any rank failed validation,
    /// every rank returns that same error and nobody enters the two-phase
    /// exchange alone.
    pub(crate) fn put_blocking<T: NcValue>(
        &mut self,
        sel: Sel<'_>,
        mem: PutMem<'_, T>,
        collective: bool,
    ) -> NcmpiResult<()> {
        self.require_mode(collective)?;
        self.with_staging(|ds, req| {
            let numrecs = ds.header.numrecs;
            // Lent elements of any width: whoever stores the bytes — the
            // two-phase window's gather, the sieve's, the page cache —
            // converts each piece where it stores it.
            let staged = ds.stage(req, sel, mem, true);
            let lent = match ds.agree_if(collective, staged) {
                Ok(lent) => lent,
                Err(e) => {
                    // Nothing was written: the records this rank's lowering
                    // counted (while another rank's failed) do not exist.
                    ds.header.numrecs = numrecs;
                    return Err(e);
                }
            };
            let (payload, width) = lent.unwrap_or((&req.buffer, 1));
            let bytes = payload.len() as u64;
            ds.settle(collective, |ds| {
                let io = |ds: &mut Dataset| -> NcmpiResult<()> {
                    ds.execute_put(&req.runs, &[payload], width, collective)?;
                    if collective && req.record {
                        ds.reconcile_numrecs()?;
                    }
                    Ok(())
                };
                ds.traced("put", &[("bytes", bytes)], io).0?;
                ds.profile.record(req.varid, true, false, bytes);
                Ok(())
            })
        })
    }

    /// Every blocking get, typed or flexible.
    pub(crate) fn get_blocking<T: NcValue>(
        &mut self,
        sel: Sel<'_>,
        mem: GetMem<'_, T>,
        collective: bool,
    ) -> NcmpiResult<()> {
        self.require_mode(collective)?;
        self.with_staging(|ds, req| {
            let lowered = ds
                .lower(req, AccessKind::Get, sel)
                .and_then(|()| mem.fits(runs_total(&req.runs) as usize));
            // The prefetch cache serves reads from local memory — no file
            // I/O, no synchronization (the §4.1 hint optimization) — once
            // the access is validated. Otherwise agree on the lowering
            // before the collective execution (see `put_blocking`).
            let cached = ds.is_prefetched(sel.varid);
            ds.agree_if(collective && !cached, lowered)?;
            let AccessReq {
                runs,
                buffer,
                nctype,
                ..
            } = req;
            let bytes = runs_total(runs) as usize;
            ds.deliver(mem, *nctype, bytes, buffer, |ds, dst| {
                if cached {
                    ds.read_prefetched(sel.varid, runs, dst);
                    return Ok(());
                }
                ds.settle(collective, |ds| {
                    let io = |ds: &mut Dataset| ds.execute_get(runs, dst, collective);
                    ds.traced("get", &[("bytes", bytes as u64)], io).0?;
                    ds.profile.record(sel.varid, false, false, bytes as u64);
                    Ok(())
                })
            })
        })
    }

    /// Every `iput_*`: stage a copy the queue owns, in a buffer of the
    /// process's byte pool, and queue it. A put refused while staging gives
    /// its buffer back at once; a queued one, when the wait call is done
    /// with it.
    fn put_queued<T: NcValue>(&mut self, sel: Sel<'_>, mem: PutMem<'_, T>) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let mut req = AccessReq::default();
        if let Err(e) = self.stage(&mut req, sel, mem, false) {
            pool::give(req.buffer);
            return Err(e);
        }
        Ok(self.enqueue(req))
    }

    /// Every `iget_*`: lower and queue. A flexible one says how many bytes
    /// its memory description holds, to be refused now rather than when
    /// the result is taken.
    fn get_queued(&mut self, sel: Sel<'_>, described: Option<usize>) -> NcmpiResult<Request> {
        self.require_data_mode()?;
        let mut req = AccessReq::default();
        self.lower(&mut req, AccessKind::Get, sel)?;
        if let Some(described) = described {
            check_described(described, runs_total(&req.runs) as usize)?;
        }
        Ok(self.enqueue(req))
    }

    /// Every `take_result*`: consume a completed get's external bytes into
    /// `mem`. A get whose flush failed yields the per-request error
    /// recorded at flush time.
    fn take<T: NcValue>(&mut self, req: Request, mem: GetMem<'_, T>) -> NcmpiResult<()> {
        let (nctype, ext) = self
            .results
            .remove(&req.id())
            .ok_or_else(|| NcmpiError::NotFound(format!("completed request {req:?}")))??;
        mem.fits(ext.len())?;
        self.with_staging(|ds, staged| {
            ds.deliver(mem, nctype, ext.len(), &mut staged.buffer, |_, dst| {
                dst.copy_from_slice(&ext);
                Ok(())
            })
        })
    }

    fn enqueue(&mut self, mut req: AccessReq) -> Request {
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

    // ---- the nonblocking API ------------------------------------------------

    /// Queue a subarray write (`ncmpi_iput_vara_<type>`); complete it with
    /// [`Dataset::wait_all`] (collective mode) or [`Dataset::wait`]
    /// (independent mode). Like every `iput_*`, it has copied `vals` (in
    /// external form) when it returns: the caller may reuse the memory for
    /// the next put before any wait call. The copy is held in a buffer of
    /// the process's byte pool ([`pnetcdf_pfs::pool`]) of exactly its size,
    /// which the wait call gives back, so a program that queues the same
    /// sizes again allocates no staging for them.
    pub fn iput_vara<T: NcValue>(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        vals: &[T],
    ) -> NcmpiResult<Request> {
        self.put_queued(Sel::new(varid, start, count, None), PutMem::Values(vals))
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
        self.put_queued(
            Sel::new(varid, start, count, Some(stride)),
            PutMem::Values(vals),
        )
    }

    /// Queue a single-element write (`ncmpi_iput_var1_<type>`).
    pub fn iput_var1<T: NcValue>(
        &mut self,
        varid: usize,
        index: &[u64],
        val: T,
    ) -> NcmpiResult<Request> {
        self.put_queued(
            Sel::new(varid, index, &ones(index.len()), None),
            PutMem::Values(&[val]),
        )
    }

    /// Queue a whole-variable write (`ncmpi_iput_var_<type>`).
    pub fn iput_var<T: NcValue>(&mut self, varid: usize, vals: &[T]) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, Some(vals.len()))?;
        self.put_queued(Sel::new(varid, &start, &count, None), PutMem::Values(vals))
    }

    /// Queue a flexible subarray write (`ncmpi_iput_vara`): memory described
    /// by an MPI datatype, gathered and converted out of `buf` into a pooled
    /// buffer before the call returns, as by [`Dataset::iput_vara`].
    pub fn iput_vara_flexible(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        buf: &[u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<Request> {
        let mem = PutMem::<u8>::Described(buf, bufcount, memtype);
        self.put_queued(Sel::new(varid, start, count, None), mem)
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
        let described = memtype.size() as usize * bufcount;
        self.get_queued(Sel::new(varid, start, count, None), Some(described))
    }

    /// Queue a subarray read (`ncmpi_iget_vara_<type>`); retrieve the values
    /// with [`Dataset::take_result`] after the wait call completes it.
    pub fn iget_vara(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
    ) -> NcmpiResult<Request> {
        self.get_queued(Sel::new(varid, start, count, None), None)
    }

    /// Queue a strided subarray read (`ncmpi_iget_vars_<type>`).
    pub fn iget_vars(
        &mut self,
        varid: usize,
        start: &[u64],
        count: &[u64],
        stride: &[u64],
    ) -> NcmpiResult<Request> {
        self.get_queued(Sel::new(varid, start, count, Some(stride)), None)
    }

    /// Queue a single-element read (`ncmpi_iget_var1_<type>`).
    pub fn iget_var1(&mut self, varid: usize, index: &[u64]) -> NcmpiResult<Request> {
        self.get_queued(Sel::new(varid, index, &ones(index.len()), None), None)
    }

    /// Queue a whole-variable read (`ncmpi_iget_var_<type>`).
    pub fn iget_var(&mut self, varid: usize) -> NcmpiResult<Request> {
        let (start, count) = self.whole(varid, None)?;
        self.get_queued(Sel::new(varid, &start, &count, None), None)
    }

    /// Number of queued, un-waited requests.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Retrieve (and consume) a completed get's values. A get whose flush
    /// failed yields the per-request error recorded at flush time.
    pub fn take_result<T: NcValue>(&mut self, req: Request) -> NcmpiResult<Vec<T>> {
        let mut out = Vec::new();
        self.take(req, GetMem::Values(&mut out))?;
        Ok(out)
    }

    /// Retrieve (and consume) a completed get's bytes into a flexible-API
    /// memory description. One that does not hold exactly the bytes the get
    /// selected is refused with `InvalidArgument`, as by the blocking calls.
    pub fn take_result_flexible(
        &mut self,
        req: Request,
        buf: &mut [u8],
        bufcount: usize,
        memtype: &Datatype,
    ) -> NcmpiResult<()> {
        self.take(req, GetMem::<u8>::Described(buf, bufcount, memtype))
    }

    // ---- waiting ------------------------------------------------------------

    /// Collectively complete every pending request (`ncmpi_wait_all`).
    ///
    /// All ranks must call this together (ranks with nothing pending still
    /// participate). Pending puts merge into a single collective write;
    /// pending gets merge into a single collective read — regardless of how
    /// many requests were queued.
    pub fn wait_all(&mut self) -> NcmpiResult<()> {
        self.drain(true)
    }

    /// Independently complete every pending request (`ncmpi_wait`).
    pub fn wait(&mut self) -> NcmpiResult<()> {
        self.drain(false)
    }

    fn drain(&mut self, collective: bool) -> NcmpiResult<()> {
        self.require_mode(collective)?;
        let reqs = std::mem::take(&mut self.pending);
        let done = self.flush_queue(&reqs, collective);
        // Every put's staging goes back to the pool, whatever the outcome.
        reqs.into_iter().for_each(|req| pool::give(req.buffer));
        done
    }

    /// Flush the drained queue `reqs`: agree on the phases, run them, and
    /// reconcile the record count.
    fn flush_queue(&mut self, reqs: &[AccessReq], collective: bool) -> NcmpiResult<()> {
        let is_put = |r: &AccessReq| r.kind == AccessKind::Put;
        let mut any = vec![
            reqs.iter().any(is_put) as u64,
            reqs.iter().any(|r| !is_put(r)) as u64,
            reqs.iter().any(|r| is_put(r) && r.record) as u64,
        ];
        if collective {
            // Agree on which phases run: ranks may have queued different
            // mixes.
            any = self.comm.allreduce(ReduceOp::Max, &any)?;
        }
        // The queue is already drained (`mem::take`) and `flush_merged`
        // records a per-request error result for every get it could not
        // serve, so even a failed flush leaves no stale requests behind; a
        // degraded-mode retry overwrites those error results.
        let flushed = self.settle(collective, |ds| {
            ds.flush_merged(reqs, any[0] != 0, any[1] != 0, collective)
        });
        if collective && flushed.is_ok() && any[2] != 0 {
            self.reconcile_numrecs()?;
        }
        flushed
    }

    /// Merge and issue the pending queue: at most one write and one read,
    /// each executed and traced like a blocking call's. Writes flush first,
    /// so a get queued after a put of the same region observes the new
    /// data. What the queue adds: the merge, one span per queued request,
    /// per-request profile rows (pre-merge sizes, so the same workload
    /// reports the same `put_size` via either access mode) and results.
    fn flush_merged(
        &mut self,
        reqs: &[AccessReq],
        do_puts: bool,
        do_gets: bool,
        collective: bool,
    ) -> NcmpiResult<()> {
        let of = |kind| reqs.iter().filter(move |r| r.kind == kind);
        let mut failure: Option<NcmpiError> = None;
        if do_puts {
            let (runs, segs) = merge_puts(reqs);
            let bytes = runs_total(&runs);
            // The staged buffers are lent where they lie.
            self.comm.config().profile.record_bytepath(|b| {
                b.copies_elided += 1;
                b.borrowed_bytes += bytes;
            });
            // Merging N staged buffers into one write is memcpy work,
            // wherever the host ends up doing it.
            self.charge_pass(bytes as usize);
            let args = [
                ("reqs", of(AccessKind::Put).count() as u64),
                ("bytes", bytes),
            ];
            let io = |ds: &mut Dataset| ds.execute_put(&runs, &segs, 1, collective);
            let (wrote, rid) = self.traced("flush_put", &args, io);
            self.link_queued(reqs, AccessKind::Put, rid);
            match wrote {
                Ok(()) => of(AccessKind::Put).for_each(|req| {
                    self.profile
                        .record(req.varid, true, true, req.buffer.len() as u64)
                }),
                Err(e) => failure = Some(e),
            }
        }
        if do_gets {
            let cov = merge_gets(reqs);
            let mut data = vec![0u8; runs_total(&cov) as usize];
            let read = match failure.clone() {
                // The write flush already failed: complete every queued get
                // with that error rather than attempting the read, so the
                // drained queue reports per-request outcomes.
                Some(e) => Err(e),
                None => {
                    let args = [
                        ("reqs", of(AccessKind::Get).count() as u64),
                        ("bytes", data.len() as u64),
                    ];
                    let io = |ds: &mut Dataset| ds.execute_get(&cov, &mut data, collective);
                    let (read, rid) = self.traced("flush_get", &args, io);
                    self.link_queued(reqs, AccessKind::Get, rid);
                    read
                }
            };
            let pos = coverage_positions(&cov);
            for req in of(AccessKind::Get) {
                let result = read.clone().map(|()| {
                    let bytes = extract_runs(&cov, &pos, &data, &req.runs);
                    self.profile
                        .record(req.varid, false, true, bytes.len() as u64);
                    (req.nctype, bytes)
                });
                self.results.insert(req.id.id(), result);
            }
            failure = failure.or(read.err());
        }
        failure.map_or(Ok(()), Err)
    }

    /// One span per queued request of `kind`: from when it was queued to
    /// the end of the merged flush that carried its bytes, linked to that
    /// flush's span `rid`.
    fn link_queued(&self, reqs: &[AccessReq], kind: AccessKind, rid: u64) {
        if rid == 0 {
            return;
        }
        let (rank, t1) = (self.comm.world_rank(), self.comm.now().as_nanos());
        let put = kind == AccessKind::Put;
        let name = if put { "iput" } else { "iget" };
        for req in reqs.iter().filter(|r| r.kind == kind && r.trace_id != 0) {
            let span = Span::new(rank, layer::CORE, name, req.queued.as_nanos(), t1)
                .with_id(req.trace_id)
                .with_parent(rid);
            let span = if put {
                span.with_arg("bytes", req.buffer.len() as u64)
            } else {
                span
            };
            self.comm.config().events.record(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage each source buffer in order (whole buffer at one offset) and
    /// gather what the merged result lends.
    fn merged(inserts: &[(u64, &[u8])]) -> (Vec<Run>, Vec<u8>) {
        let mut s = RunStage::default();
        for (src, &(off, bytes)) in inserts.iter().enumerate() {
            s.insert(off, bytes.len() as u64, src, 0);
        }
        let sources: Vec<&[u8]> = inserts.iter().map(|&(_, b)| b).collect();
        let (runs, segs) = s.lend(&sources);
        (runs, segs.concat())
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
        let (runs, segs) = s.lend(&[&src0, &src1]);
        assert_eq!(runs, vec![(0, 10)]);
        assert_eq!(segs, [&src0[..3], &src1[..], &src0[7..]]);
    }

    fn put_req(runs: Vec<Run>, buffer: Vec<u8>) -> AccessReq {
        AccessReq {
            kind: AccessKind::Put,
            runs,
            buffer,
            ..AccessReq::default()
        }
    }

    /// A single put is lent where it was staged: one segment, the staged
    /// buffer itself, however many runs it has (adjacent ones coalesce).
    #[test]
    fn single_put_borrows_staging() {
        let reqs = vec![put_req(vec![(0, 2), (8, 1), (9, 1)], vec![1, 2, 3, 4])];
        let (runs, segs) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 2), (8, 2)]);
        assert_eq!(segs.len(), 1);
        assert!(std::ptr::eq(segs[0], &reqs[0].buffer[..]));
    }

    /// Overlapping puts are lent as the slices that survive, in file order;
    /// gets between them do not shift which buffer a piece names.
    #[test]
    fn multi_put_merges_last_wins() {
        let reqs = vec![
            put_req(vec![(0, 4)], vec![1; 4]),
            AccessReq::default(),
            put_req(vec![(2, 4)], vec![2; 4]),
        ];
        let (runs, segs) = merge_puts(&reqs);
        assert_eq!(runs, vec![(0, 6)]);
        assert_eq!(segs, [&reqs[0].buffer[..2], &reqs[2].buffer[..]]);
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
