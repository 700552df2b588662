//! `MPI_File`: open/close, independent and collective access of run lists.

use std::sync::Arc;

use hpc_sim::trace::events::layer;
use hpc_sim::{CollKind, Phase, PhaseScope, Span, Time, TraceCtx};
use parking_lot::Mutex;
use pnetcdf_mpi::{CollEnv, Comm, Info, Loan};
use pnetcdf_pfs::{Pfs, PfsFile, Seg};

use crate::cache::{CacheLedger, PageCache};
use crate::error::{MpioError, MpioResult};
use crate::hints::Hints;
use crate::runs::Run;
use crate::sieve::{self, CollBuf};
use crate::twophase::{self, Req, TwoPhaseParams};

/// How to open the file (`MPI_MODE_*` combinations we support).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// Create or truncate, read-write (`CREATE | RDWR`).
    Create,
    /// Create, failing if the file exists (`CREATE | EXCL | RDWR`).
    CreateExcl,
    /// Open existing, read-write (`RDWR`).
    ReadWrite,
    /// Open existing, read-only (`RDONLY`).
    ReadOnly,
}

/// An open MPI-IO file handle (per rank).
pub struct MpiFile {
    comm: Comm,
    file: PfsFile,
    hints: Hints,
    readonly: bool,
    /// Client-side page cache (`pnc_cache=enable`); per rank, so no lock
    /// contention — the mutex only provides interior mutability behind the
    /// `&self` data-access methods.
    cache: Option<Mutex<PageCache>>,
    /// The window buffer of this open file, shared by every rank's handle
    /// ([`CollBuf`]). The finisher of a collective on the file locks it for
    /// the collective, and an independent access of more than one run for
    /// the whole call: that is the sieve's extent lock.
    cbuf: Arc<Mutex<CollBuf>>,
}

impl MpiFile {
    /// Collectively open `name` on `pfs` (`MPI_File_open`). The namespace
    /// operation happens exactly once (at the last arriver); every rank
    /// receives the same handle or the same error.
    pub fn open(
        comm: &Comm,
        pfs: &Pfs,
        name: &str,
        mode: OpenMode,
        info: &Info,
    ) -> MpioResult<MpiFile> {
        let (hints, rejected) = Hints::from_info(info);
        // Unknown `pnc_*` keys and malformed values never change behavior
        // (the parser falls back to defaults), but they are almost always a
        // misspelling the user would want to know about: count them in the
        // profile and leave a debug line. Rank 0 only, so a 64-rank open
        // with one bad hint counts it once.
        if comm.rank() == 0 {
            for r in &rejected {
                comm.config().profile.record_hint_rejected();
                eprintln!("pnetcdf: rejected hint {r} for {name}");
            }
        }
        let env = comm.coll_env();
        let pfs = pfs.clone();
        let name_owned = name.to_string();
        type Opened = (PfsFile, Arc<Mutex<CollBuf>>);
        let res: Arc<Result<Opened, String>> = comm.collective(Loan::nothing(), move |_| {
            let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
            env.sync_collective(CollKind::Barrier, 0, cost);
            let file = match mode {
                OpenMode::Create => Ok(pfs.create(&name_owned)),
                OpenMode::CreateExcl => {
                    if pfs.exists(&name_owned) {
                        Err(format!("file '{name_owned}' already exists"))
                    } else {
                        Ok(pfs.create(&name_owned))
                    }
                }
                OpenMode::ReadWrite | OpenMode::ReadOnly => pfs
                    .open(&name_owned)
                    .ok_or_else(|| format!("file '{name_owned}' does not exist")),
            };
            // One (still empty) collective buffer per open, for every
            // rank's handle to share.
            file.map(|f| (f, Arc::default()))
        })?;
        match &*res {
            Ok((f, cbuf)) => {
                let cache = hints
                    .cache
                    .resolve(false)
                    .then(|| Mutex::new(PageCache::new(hints.cache_size, comm.config().cpu, f)));
                Ok(MpiFile {
                    comm: comm.clone(),
                    file: f.clone(),
                    hints,
                    readonly: mode == OpenMode::ReadOnly,
                    cache,
                    cbuf: cbuf.clone(),
                })
            }
            Err(e) => Err(MpioError::Access(e.clone())),
        }
    }

    /// The communicator the file was opened on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The underlying PFS file (for export/diagnostics).
    pub fn raw(&self) -> &PfsFile {
        &self.file
    }

    /// Resolved hints.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// Current file size (`MPI_File_get_size`).
    pub fn size(&self) -> u64 {
        self.file.size()
    }

    /// Collectively extend the file (`MPI_File_set_size`, grow only).
    pub fn set_size(&self, size: u64) -> MpioResult<()> {
        let env = self.comm.coll_env();
        let file = self.file.clone();
        self.comm
            .collective(Loan::nothing(), move |_| {
                file.grow_to(size);
                let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
                env.sync_collective(CollKind::Barrier, 0, cost);
            })
            .map(|_| ())
            .map_err(MpioError::from)
    }

    /// `MPI_File_sync`: flush + synchronize. The simulated PFS has no
    /// volatile cache, so this is a barrier plus a metadata operation.
    pub fn sync(&self) -> MpioResult<()> {
        // Publish cached dirty pages before the rendezvous so every rank's
        // bytes are on the PFS once the barrier completes.
        self.cache_pre()?;
        let env = self.comm.coll_env();
        self.comm
            .collective(Loan::nothing(), move |_| {
                let cost = env.config.network.barrier(env.size()) + env.config.cpu.metadata_op;
                env.sync_collective(CollKind::Barrier, 0, cost);
            })
            .map(|_| ())
            .map_err(MpioError::from)?;
        self.cache_post();
        Ok(())
    }

    /// Charge a cache operation's virtual time to the trace: memcpy work to
    /// [`Phase::Cache`], miss fills and write-behind to the disk phases.
    /// Three scoped advances keep the coverage invariant exact. The client
    /// link's `link_free` goes back beside the rank's clock.
    fn apply_ledger(&self, led: &CacheLedger) {
        self.comm.set_link_free(led.link_free);
        if led.cache_nanos > 0 {
            let _s = PhaseScope::enter(Phase::Cache);
            self.comm.advance(Time::from_nanos(led.cache_nanos));
        }
        if led.read_nanos > 0 {
            let _s = PhaseScope::enter(Phase::DiskRead);
            self.comm.advance(Time::from_nanos(led.read_nanos));
        }
        if led.write_nanos > 0 {
            let _s = PhaseScope::enter(Phase::DiskWrite);
            self.comm.advance(Time::from_nanos(led.write_nanos));
        }
    }

    /// Pre-synchronization cache work: publish dirty pages (write-behind)
    /// and advance the file's coherence epoch if anything was published.
    /// Must run *before* the collective rendezvous.
    fn cache_pre(&self) -> MpioResult<()> {
        if let Some(cache) = &self.cache {
            let mut led = CacheLedger::new(self.comm.now(), self.comm.link_free());
            let res = cache.lock().sync_prepare(&self.file, &mut led);
            self.apply_ledger(&led);
            res?;
        }
        Ok(())
    }

    /// Post-synchronization cache work: drop clean cached bytes if any rank
    /// advanced the epoch. Must run *after* the collective rendezvous, so
    /// every rank's [`Self::cache_pre`] happens-before this check.
    fn cache_post(&self) {
        if let Some(cache) = &self.cache {
            cache.lock().sync_complete(&self.file);
        }
    }

    /// A coherence boundary without other I/O semantics: flush, rendezvous,
    /// revalidate. PnetCDF calls this where netCDF semantics promise
    /// visibility (e.g. entering define mode). No-op when the cache is
    /// disabled, so uncached runs keep their exact timings.
    pub fn cache_boundary(&self) -> MpioResult<()> {
        if self.cache.is_none() {
            return Ok(());
        }
        self.cache_pre()?;
        self.comm.barrier()?;
        self.cache_post();
        Ok(())
    }

    /// Ambient trace context for this rank's independent I/O: keeps the
    /// caller's request id (core installs one around its blocking and
    /// flush paths) while pinning the world rank, so pfs / cache / retry
    /// spans recorded below land on this rank's timeline.
    fn trace_ctx(&self) -> Option<TraceCtx> {
        self.comm
            .config()
            .events
            .is_enabled()
            .then(|| TraceCtx::enter(self.comm.world_rank(), TraceCtx::current_id()))
    }

    fn check_writable(&self) -> MpioResult<()> {
        if self.readonly {
            return Err(MpioError::Access("file is opened read-only".into()));
        }
        Ok(())
    }

    fn params(&self) -> TwoPhaseParams {
        let cfg = self.comm.config();
        TwoPhaseParams {
            cb_buffer_size: self.hints.cb_buffer_size,
            cb_nodes: self.hints.cb_nodes,
            io_servers: cfg.io_servers,
            stripe: cfg.stripe_size as u64,
            pipeline: self.hints.cb_pipeline.resolve(true),
        }
    }

    /// Validate a caller-supplied run list — sorted, non-overlapping, no run
    /// ending past the largest file offset — and return the bytes it covers.
    /// Every data call passes through here first. The largest offset is
    /// `i64::MAX`, `MPI_Offset`'s: below it every stripe and page multiple
    /// of an offset still fits in a `u64`.
    fn total_of(runs: &[Run]) -> MpioResult<u64> {
        let (mut prev_end, mut total) = (0u64, 0u64);
        for &(off, len) in runs {
            if off < prev_end {
                return Err(MpioError::InvalidArgument(
                    "run list must be sorted and non-overlapping".into(),
                ));
            }
            let end = off.checked_add(len).filter(|&end| end <= i64::MAX as u64);
            prev_end = end.ok_or_else(|| {
                MpioError::InvalidArgument(format!(
                    "run ({off}, {len}) ends past the largest file offset"
                ))
            })?;
            // Disjoint runs below `prev_end` cover at most `prev_end` bytes.
            total += len;
        }
        Ok(total)
    }

    /// [`MpiFile::total_of`] a run list that must cover `data_len` bytes.
    fn check_runs(runs: &[Run], data_len: usize) -> MpioResult<()> {
        let total = Self::total_of(runs)?;
        if total != data_len as u64 {
            return Err(MpioError::InvalidArgument(format!(
                "run list covers {total} bytes but the buffer has {data_len}"
            )));
        }
        Ok(())
    }

    // ---- independent data access ------------------------------------------

    /// Run an independent access of `runs` on the open file's buffer, held
    /// for the whole call when it has more than one run: no peer's sieved
    /// write can then fall between one of its windows' read and write-back
    /// (ROMIO's extent lock). A one-run access is one request from or into
    /// the caller's memory, and takes neither the buffer nor its lock.
    fn with_buf<R>(&self, runs: &[Run], io: impl FnOnce(&mut CollBuf) -> R) -> R {
        match runs.len() > 1 {
            true => io(&mut self.cbuf.lock()),
            false => io(&mut CollBuf::default()),
        }
    }

    /// A write needs a writable file and a payload whose every segment
    /// holds whole elements of a width the file system converts: 1, 2, 4
    /// or 8 bytes.
    fn check_native(&self, native: &[&[u8]], width: usize) -> MpioResult<()> {
        self.check_writable()?;
        if !matches!(width, 1 | 2 | 4 | 8) || native.iter().any(|seg| seg.len() % width != 0) {
            return Err(MpioError::InvalidArgument(format!(
                "a payload segment does not hold whole elements of width {width}"
            )));
        }
        Ok(())
    }

    /// Independent write of absolute file runs (`MPI_File_write_at` of a
    /// flattened view): the data-sieving path. `runs` must be sorted and
    /// non-overlapping; `data` holds the run bytes concatenated in run
    /// order, as the file is to hold them.
    pub fn write_runs_at(&self, runs: &[Run], data: &[u8]) -> MpioResult<usize> {
        self.write_native_runs_at(runs, &[data], 1)
    }

    /// [`MpiFile::write_runs_at`] of a gather list of elements still in
    /// host byte order, as [`MpiFile::write_native_runs_at_all`] takes it.
    /// The sieve hands the segments to the file system, and the page cache
    /// copies them into its pages, converting each piece where it is
    /// stored, so no packed and no external copy of `native` exists.
    pub fn write_native_runs_at(
        &self,
        runs: &[Run],
        native: &[&[u8]],
        width: usize,
    ) -> MpioResult<usize> {
        self.check_native(native, width)?;
        let bytes = native.iter().map(|seg| seg.len()).sum();
        Self::check_runs(runs, bytes)?;
        let _tc = self.trace_ctx();
        if let Some(cache) = &self.cache {
            // Write-allocate into the page cache; bytes reach the PFS at
            // the next flush point (eviction, sync, collective entry).
            let mut led = CacheLedger::new(self.comm.now(), self.comm.link_free());
            let mut cache = cache.lock();
            let whole = |seg| Seg::native(seg, width, 0, seg.len());
            let res = match native {
                &[seg] => cache.write_runs(&self.file, &mut led, runs, &[whole(seg)]),
                _ => {
                    let segs: Vec<Seg> = native.iter().map(|&seg| whole(seg)).collect();
                    cache.write_runs(&self.file, &mut led, runs, &segs)
                }
            };
            self.apply_ledger(&led);
            res?;
            return Ok(bytes);
        }
        let payload = Req {
            src: native,
            aux: width as u64,
            ..Req::describe(runs)
        };
        let ds = self.hints.ds_write.resolve(true);
        let _attr = PhaseScope::enter(Phase::DiskWrite);
        let (size, now) = (self.hints.ind_wr_buffer_size, self.comm.now());
        let t = self.with_buf(runs, |buf| {
            sieve::write(&self.file, buf, size, ds, now, &payload)
        })?;
        self.comm.advance_to(t);
        Ok(bytes)
    }

    /// Independent read of absolute file runs; returns the run bytes
    /// concatenated in run order.
    pub fn read_runs_at(&self, runs: &[Run]) -> MpioResult<Vec<u8>> {
        let mut out = vec![0u8; Self::total_of(runs)? as usize];
        self.read_runs_into(runs, &mut out).map(|()| out)
    }

    /// [`MpiFile::read_runs_at`] into caller storage: `out` must hold
    /// exactly the runs' bytes; every one of them is overwritten.
    pub fn read_runs_into(&self, runs: &[Run], out: &mut [u8]) -> MpioResult<()> {
        Self::check_runs(runs, out.len())?;
        let _tc = self.trace_ctx();
        if let Some(cache) = &self.cache {
            let mut led = CacheLedger::new(self.comm.now(), self.comm.link_free());
            let res = cache.lock().read_runs(&self.file, &mut led, runs, out);
            self.apply_ledger(&led);
            return res;
        }
        let ds = self.hints.ds_read.resolve(true);
        let _attr = PhaseScope::enter(Phase::DiskRead);
        // A readahead of another file's cache may still hold the link.
        let start = self.comm.now().max(self.comm.link_free());
        let size = self.hints.ind_rd_buffer_size;
        let t = self.with_buf(runs, |buf| {
            sieve::read(&self.file, buf, size, ds, start, runs, out)
        })?;
        self.comm.advance_to(t);
        Ok(())
    }

    // ---- collective data access ----------------------------------------------

    /// Collective write of absolute file runs (`MPI_File_write_at_all` of a
    /// flattened view): two-phase I/O unless disabled by `romio_cb_write`.
    /// One list may hold many merged requests (PnetCDF's `wait_all`). Ranks
    /// may contribute empty lists but must all participate.
    /// `data` holds the run bytes as the file is to hold them.
    pub fn write_runs_at_all(&self, runs: &[Run], data: &[u8]) -> MpioResult<usize> {
        self.write_native_runs_at_all(runs, &[data], 1)
    }

    /// [`MpiFile::write_runs_at_all`] of a gather list of elements still in
    /// host byte order: the segments of `native`, laid end to end, are the
    /// run bytes as the caller's memory holds them, each segment whole
    /// elements `width` (1, 2, 4 or 8) bytes wide, and the file receives
    /// them big-endian. The segments are lent as they are to whoever writes
    /// them — a two-phase window, or each rank's sieve with collective
    /// buffering disabled — and converted where each piece is stored, so no
    /// packed and no external copy of `native` exists.
    pub fn write_native_runs_at_all(
        &self,
        runs: &[Run],
        native: &[&[u8]],
        width: usize,
    ) -> MpioResult<usize> {
        self.check_native(native, width)?;
        self.runs_all(true, runs, native, &mut [], width)?;
        Ok(native.iter().map(|seg| seg.len()).sum())
    }

    /// Collective read of absolute file runs (`MPI_File_read_at_all` of a
    /// flattened view); returns the run bytes concatenated in run order.
    /// Ranks may contribute empty lists but must all participate.
    pub fn read_runs_at_all(&self, runs: &[Run]) -> MpioResult<Vec<u8>> {
        let mut out = vec![0u8; Self::total_of(runs)? as usize];
        self.read_runs_into_all(runs, &mut out).map(|()| out)
    }

    /// [`MpiFile::read_runs_at_all`] into caller storage: `out` must hold
    /// exactly the runs' bytes; every one of them is overwritten.
    pub fn read_runs_into_all(&self, runs: &[Run], out: &mut [u8]) -> MpioResult<()> {
        self.runs_all(false, runs, &[], out, 0)
    }

    /// The body of every collective access of pre-resolved runs, `write`
    /// its direction: a write lends the segments of `src` (elements `width`
    /// wide, see [`MpiFile::write_native_runs_at_all`]) with no `dst`, a
    /// read lends `dst` with no `src`.
    fn runs_all(
        &self,
        write: bool,
        runs: &[Run],
        src: &[&[u8]],
        dst: &mut [u8],
        width: usize,
    ) -> MpioResult<()> {
        let bytes = src.iter().map(|seg| seg.len()).sum::<usize>() + dst.len();
        Self::check_runs(runs, bytes)?;
        // Collective entry is a coherence boundary: publish cached dirty
        // bytes first, so the two-phase engine reads and writes a settled
        // file and a collective read observes them (and every peer's).
        self.cache_pre()?;
        let profile = &self.comm.config().profile;
        profile.record_bytepath(|b| b.exchange_borrowed_bytes += bytes as u64);
        // Runs and memory are lent, not copied: this rank stays inside the
        // rendezvous until the last arriver has written the payload out, or
        // scattered this rank's bytes straight into its destination.
        let req = Req {
            meta: runs,
            src,
            dst,
            tag: TraceCtx::current_id(),
            aux: width as u64,
        };
        let env = self.comm.coll_env();
        let file = self.file.clone();
        let p = self.params();
        let (h, cbuf) = (&self.hints, &self.cbuf);
        let (cb, buffer_size, ds) = if write {
            (h.cb_write, h.ind_wr_buffer_size, h.ds_write)
        } else {
            (h.cb_read, h.ind_rd_buffer_size, h.ds_read)
        };
        let (cb, ds) = (cb.resolve(true), ds.resolve(true));
        let res = self.comm.collective(req, move |reqs: &mut [Req<'_>]| {
            let buf = &mut *cbuf.lock();
            let res = match (cb, write) {
                (true, true) => twophase::write_all(&env, &file, &p, buf, reqs).map(|_| ()),
                (true, false) => twophase::read_all(&env, &file, &p, buf, reqs).map(|_| ()),
                // Collective buffering disabled: every rank accesses its
                // own pieces independently (the ablation baseline).
                (false, true) => reqs.iter().enumerate().try_for_each(|(i, r)| {
                    independent(&env, i, r.tag, "ind_write", Phase::DiskWrite, |now| {
                        sieve::write(&file, buf, buffer_size, ds, now, r)
                    })
                }),
                (false, false) => reqs.iter_mut().enumerate().try_for_each(|(i, r)| {
                    independent(&env, i, r.tag, "ind_read", Phase::DiskRead, |now| {
                        sieve::read(&file, buf, buffer_size, ds, now, r.meta, r.dst)
                    })
                }),
            };
            // The file changed under every client cache: advance the epoch
            // once (the closure runs at the last arriver) — also when a
            // late window failed, since the earlier ones have landed.
            if reqs.iter().any(|r| r.src.iter().any(|seg| !seg.is_empty())) {
                file.bump_coherence_epoch();
            }
            res
        })?;
        // Revalidate before reporting: a failed collective write has still
        // changed the file under this rank's clean pages.
        self.cache_post();
        (*res).clone()
    }
}

/// One rank's share of a collective with collective buffering disabled:
/// run `io` (an independent sieved access starting at the rank's clock,
/// returning its completion time) on group member `i`'s timeline, charging
/// `phase` and recording span `name` under the rank's trace id.
fn independent(
    env: &CollEnv,
    i: usize,
    trace_id: u64,
    name: &'static str,
    phase: Phase,
    io: impl FnOnce(Time) -> MpioResult<Time>,
) -> MpioResult<()> {
    let (profile, events) = (&env.config.profile, &env.config.events);
    let w = env.group[i];
    let _ctx = events.is_enabled().then(|| TraceCtx::enter(w, trace_id));
    let before = env.clocks.now(w);
    let t = io(before)?;
    profile.record_phase(w, phase, t.saturating_sub(before).as_nanos());
    if events.is_enabled() && t > before {
        events.record(
            Span::new(w, layer::MPIO, name, before.as_nanos(), t.as_nanos()).with_parent(trace_id),
        );
    }
    env.clocks.advance_to(w, t);
    Ok(())
}
