//! Client-side file page cache with write-behind, sequential readahead,
//! and cross-rank coherence epochs.
//!
//! The paper's bandwidth numbers ride on GPFS's *client-side* block
//! caching: small strided accesses are absorbed by pages cached at the
//! compute node, written behind as stripe-aligned full blocks, and read
//! ahead when a sequential pattern is detected (§4's hint discussion and
//! the Fig. 6 read/write asymmetry both assume it). This module is that
//! layer for the simulated stack: a per-rank cache of pages, each one PFS
//! stripe unit, sitting between the MPI-IO independent data path and the
//! PFS.
//!
//! Design points:
//!
//! * **A fixed set of page slots.** At most `pnc_cache_size / stripe_size`
//!   slots (one at least), each owning its page memory and its run lists.
//!   A slot's memory is allocated when the slot is first used and lives
//!   until the file closes; a miss takes an unused slot or evicts the
//!   least-recently-used page *first* and reuses its slot, so the budget is
//!   kept, not repaired after the fact, and a request that warmed the slots
//!   up allocates nothing. Page number → slot is a sorted index, so the
//!   cache does the same thing in every run. A request touching more pages
//!   than there are slots is served a cache-full at a time.
//! * **Exact byte-run tracking.** Each page keeps sorted disjoint `valid`
//!   and `dirty` byte-run lists. Writes populate pages without a read
//!   fill; flushes write back *only the dirty runs* (zero-gap neighbours
//!   coalesced). Ranks routinely share boundary pages (block boundaries
//!   are rarely page-aligned), so flushing a whole page would clobber a
//!   sibling's bytes — false sharing is survived by construction.
//! * **Write-behind.** Dirty runs accumulate and flush on LRU eviction,
//!   `sync`, close, and collective entry; adjacent dirty runs from many
//!   small writes coalesce into single page-spanning PFS requests. An
//!   eviction writes its victim's runs with their zero-gap dirty
//!   neighbours, up to the stripe row, in one request, and the neighbours
//!   stay cached, clean. Every such request lends slot memory to the PFS
//!   as a gather list, and every fill reads straight into slot memory
//!   through a scatter list of its pages' gaps: the cache copies nothing to
//!   write or to fill, and has no staging buffer. The rank goes on at a write's
//!   *handoff* (every touched server's NIC owns the bytes; the client link
//!   has streamed them and the servers' bounded queues push back), and the
//!   cache remembers the latest `durable` of anything it wrote behind — its
//!   durability horizon. Every flush point ends by waiting for that
//!   horizon, so what a sync promises is on disk.
//! * **Readahead, ahead of the rank.** Two byte-contiguous reads in a row
//!   mark the stream sequential; the absent pages among the next two are
//!   fetched with one PFS read and inserted clean. The read is
//!   issued at the rank's clock and the rank goes on: each page remembers
//!   when its fill lands (`ready`), its first touch — a copy-out, a write
//!   hit, its eviction — waits for that, and so does every flush point.
//!   Every read the cache issues shares the rank's one inbound client link
//!   with the reads before it (`link_free`, kept beside the rank's clock),
//!   so prefetching overlaps the servers, never the link.
//! * **Coherence epochs.** Every PFS file carries a shared epoch counter.
//!   A cache that publishes dirty bytes bumps it; at synchronization
//!   points (after the collective rendezvous, so all pre-flushes
//!   happen-before the check) a cache whose remembered epoch is stale
//!   drops its clean bytes. Independent-mode changes therefore become
//!   visible to other ranks exactly at netCDF's sync/collective
//!   boundaries, and never silently in between.
//! * **Fault recovery.** All PFS traffic goes through [`crate::recover`],
//!   so a dirty page survives transient/short faults on flush and the
//!   retry/backoff cost lands in the disk phases of the trace.
//!
//! Virtual-time accounting runs through a [`CacheLedger`]: memcpy work is
//! charged to [`Phase::Cache`](hpc_sim::Phase), miss fills, waits for pages
//! in flight and flushes to the disk phases, preserving the trace layer's
//! coverage-1.0 invariant.

use std::ops::RangeInclusive;

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{CacheCounters, CpuModel, Span, Time, TraceCtx};
use pnetcdf_pfs::{Gather, PfsFile, Seg};

use crate::error::MpioResult;
use crate::recover::{self, RetryPolicy};
use crate::runs::{runs_total, Run};

/// A byte range within a page, half-open.
type PageRun = (u32, u32);

/// Pages fetched ahead of a sequential stream.
const READAHEAD_PAGES: usize = 2;

/// Virtual-time ledger for one cache operation: the caller turns the
/// per-phase totals into scoped clock advances, keeping every nanosecond
/// attributed.
#[derive(Clone, Copy, Debug)]
pub struct CacheLedger {
    now: Time,
    /// When the rank's inbound client link is free: every read a cache
    /// issues queues behind it and then moves it to its own end. The rank's,
    /// not the cache's — the caller carries it in and writes it back.
    pub(crate) link_free: Time,
    /// Nanoseconds of client CPU work (page memcpy) — [`hpc_sim::Phase::Cache`].
    pub cache_nanos: u64,
    /// Nanoseconds waited for PFS reads (miss fills, readahead in flight)
    /// — `Phase::DiskRead`.
    pub read_nanos: u64,
    /// Nanoseconds waited for PFS writes (write-behind handoffs, and the
    /// durability horizon at flush points) — `Phase::DiskWrite`.
    pub write_nanos: u64,
}

impl CacheLedger {
    /// Start a ledger at the rank's current virtual time and the time its
    /// client link is free.
    pub fn new(now: Time, link_free: Time) -> CacheLedger {
        CacheLedger {
            now,
            link_free,
            cache_nanos: 0,
            read_nanos: 0,
            write_nanos: 0,
        }
    }

    fn cpu(&mut self, t: Time) {
        self.now += t;
        self.cache_nanos += t.as_nanos();
    }

    /// Wait for a read issued earlier to land: the first touch of a page in
    /// flight, or a flush point.
    fn await_read(&mut self, file: &PfsFile, until: Time) {
        if until > self.now {
            trace_cache_span(file, "readahead_wait", self.now, until, 0);
            self.read_nanos += (until - self.now).as_nanos();
            self.now = until;
        }
    }

    /// Write behind one stretch, its runs `segs` in file order from
    /// `offset`, with one request lent straight from slot memory through
    /// `list`, the cache's gather list: the clock goes on at the request's
    /// handoff, and `horizon` (the cache's) is pushed out to when its bytes
    /// are durable.
    fn disk_write<'s>(
        &mut self,
        file: &PfsFile,
        policy: &RetryPolicy,
        horizon: &mut Time,
        list: &mut Vec<Seg<'static>>,
        offset: u64,
        segs: impl Iterator<Item = &'s [u8]>,
    ) -> MpioResult<()> {
        let mut lent = recycle(std::mem::take(list));
        lent.extend(segs.map(Seg::from));
        let run = [(offset, lent.iter().map(|s| s.len() as u64).sum())];
        let done = recover::write(file, policy, self.now, &run, &lent);
        *list = recycle(lent);
        let done = done?;
        self.await_write(done.handoff);
        *horizon = done.durable.max(*horizon);
        Ok(())
    }

    fn await_write(&mut self, until: Time) {
        self.write_nanos += until.saturating_sub(self.now).as_nanos();
        self.now = self.now.max(until);
    }
}

/// One page slot: page memory and the bookkeeping of the page it holds.
#[derive(Default)]
struct Slot {
    /// `page_size` bytes, allocated with the slot and reused from page to
    /// page without being cleared: only the `valid` runs mean anything.
    data: Vec<u8>,
    /// Sorted, disjoint, non-adjacent byte runs holding cached bytes.
    valid: Vec<PageRun>,
    /// Subset of `valid` not yet written back.
    dirty: Vec<PageRun>,
    /// LRU tick of the last touch.
    last_use: u64,
    /// When the fill that made the page valid lands; a readahead's lies
    /// ahead of the rank, and the page's first touch waits for it.
    ready: Time,
    /// Fetched speculatively and not yet demanded (readahead-hit counting).
    readahead: bool,
    /// In the index. A slot whose page was invalidated keeps its memory
    /// and waits for the next miss.
    in_use: bool,
}

/// Insert `[lo, hi)` into a sorted disjoint run list, merging overlapping
/// and adjacent runs, in place.
fn insert_run(list: &mut Vec<PageRun>, lo: u32, hi: u32) {
    debug_assert!(lo < hi);
    // Runs `first..last` overlap or touch `[lo, hi)`.
    let first = list.partition_point(|&(_, b)| b < lo);
    let last = list.partition_point(|&(a, _)| a <= hi);
    if first == last {
        list.insert(first, (lo, hi));
    } else {
        list[first] = (lo.min(list[first].0), hi.max(list[last - 1].1));
        list.drain(first + 1..last);
    }
}

/// Does the run list fully cover `[lo, hi)`?
fn covers(list: &[PageRun], lo: u32, hi: u32) -> bool {
    list.iter().any(|&(a, b)| a <= lo && hi <= b)
}

/// Record a CACHE-layer event span, parented to the ambient request (if
/// any) so cache work shows up on the request's flow in the Chrome trace.
/// Free when tracing is off: one relaxed atomic load.
fn trace_cache_span(file: &PfsFile, name: &'static str, begin: Time, end: Time, bytes: u64) {
    let events = file.events();
    if end <= begin || !events.is_enabled() {
        return;
    }
    if let Some((rank, parent)) = TraceCtx::current() {
        events.record(
            Span::new(rank, layer::CACHE, name, begin.as_nanos(), end.as_nanos())
                .with_parent(parent)
                .with_stage(stage::CACHE)
                .with_arg("bytes", bytes),
        );
    }
}

/// The sub-ranges of `[lo, hi)` *not* covered by the run list, in order.
fn gaps(list: &[PageRun], lo: u32, hi: u32) -> impl Iterator<Item = PageRun> + '_ {
    let mut runs = list.iter();
    let mut pos = lo;
    std::iter::from_fn(move || {
        while pos < hi {
            // Past the last run lies one that starts where the range ends.
            let (a, b) = runs.next().copied().unwrap_or((hi, hi));
            let from = pos;
            pos = pos.max(b);
            if from < a.min(hi) {
                return Some((from, a.min(hi)));
            }
        }
        None
    })
}

/// Split the absolute byte range `[off, off + len)` into per-page pieces
/// `(page, in-page lo, in-page hi)` for pages of `ps` bytes.
fn pieces(ps: u64, off: u64, len: u64) -> impl Iterator<Item = (u64, u32, u32)> {
    let end = off + len;
    std::iter::successors(Some(off), move |&pos| Some((pos / ps + 1) * ps))
        .take_while(move |&pos| pos < end)
        .map(move |pos| {
            let base = pos / ps * ps;
            (pos / ps, (pos - base) as u32, (end - base).min(ps) as u32)
        })
}

/// Does any byte of `runs` (sorted, disjoint) lie in page `page`?
fn in_request(runs: &[Run], ps: u64, page: u64) -> bool {
    let (lo, hi) = (page * ps, (page + 1) * ps);
    let first = runs.partition_point(|&(off, len)| off + len <= lo);
    runs[first..]
        .iter()
        .take_while(|r| r.0 < hi)
        .any(|r| r.1 > 0)
}

/// Every dirty run of the pages `index` lists, in file order: `(absolute
/// offset, bytes)`.
fn dirty_runs<'a>(
    index: &'a [(u64, u32)],
    slots: &'a [Slot],
    ps: u64,
) -> impl Iterator<Item = (u64, &'a [u8])> + Clone {
    index.iter().flat_map(move |&(page, s)| {
        let slot = &slots[s as usize];
        let bytes = move |&(lo, hi): &PageRun| {
            let data = &slot.data[lo as usize..hi as usize];
            (page * ps + lo as u64, data)
        };
        slot.dirty.iter().map(bytes)
    })
}

/// The stretches of zero-gap neighbours among `runs` (file order, as
/// [`dirty_runs`] walks them), each as its offset, its length and its runs'
/// bytes: the gather list of one write-behind request, lent from the slots.
fn stretches<'a>(
    runs: impl Iterator<Item = (u64, &'a [u8])> + Clone,
) -> impl Iterator<Item = (u64, u64, impl Iterator<Item = &'a [u8]>)> {
    let mut rest = runs.peekable();
    std::iter::from_fn(move || {
        let from = rest.clone();
        let (at, first) = rest.next()?;
        let (mut end, mut count) = (at + first.len() as u64, 1);
        while let Some((_, data)) = rest.next_if(|&(next, _)| next == end) {
            end += data.len() as u64;
            count += 1;
        }
        Some((at, end - at, from.take(count).map(|(_, data)| data)))
    })
}

/// `list`'s allocation, emptied, for slices of another lifetime: the
/// cache's gather and scatter lists, and a spanning read's
/// ([`crate::sieve::SpanScratch`]), outlive every borrow of the memory they
/// lend, so they are kept empty and re-typed for each request. That keeps
/// their buffers only because std collects a vector into one of the same
/// element layout in place, which std does not guarantee: the
/// `debug_assert` fails here if it stops, and `tests/cache_alloc_budget.rs`
/// counts the allocation it would cost per request.
pub(crate) fn recycle<A, B>(mut list: Vec<A>) -> Vec<B> {
    let cap = list.capacity();
    list.clear();
    let out: Vec<B> = list.into_iter().filter_map(|_| None).collect();
    debug_assert!(out.capacity() >= cap, "a lent list lost its buffer");
    out
}

/// Count `bytes` served from `slot` into `seen`, the lookups of one call
/// (recorded into the profile once, when it ends); the first demand for a
/// page that was fetched ahead is a readahead hit.
fn hit(seen: &mut CacheCounters, slot: &mut Slot, bytes: u32) {
    seen.hits += 1;
    seen.hit_bytes += bytes as u64;
    seen.readahead_hits += std::mem::take(&mut slot.readahead) as u64;
}

/// The per-rank page cache for one open file.
pub struct PageCache {
    /// The file system's stripe unit: at most `u32::MAX`, the width of a
    /// page's run lists.
    page_size: usize,
    /// The byte budget in pages; at least one page is always kept.
    capacity_pages: usize,
    cpu: CpuModel,
    policy: RetryPolicy,
    /// At most `capacity_pages` slots, created as misses need them.
    slots: Vec<Slot>,
    /// `(page, slot)` of every cached page, sorted by page.
    index: Vec<(u64, u32)>,
    /// The gather list a write-behind request lends, empty between
    /// requests ([`recycle`]). A stretch holds at most one run per page — a
    /// page's runs are never adjacent — so it is sized once, for every slot.
    gather: Vec<Seg<'static>>,
    /// A fill's run list, its pages' gaps, and its scatter list, every
    /// slot's memory and then the gaps', kept between fills like `gather`.
    fill: Vec<Run>,
    scatter: Vec<&'static mut [u8]>,
    /// The durability horizon: when the last byte written behind is on
    /// disk. State of the cache, not of one call's ledger — the `sync`
    /// after a `get` that evicted must still wait for that eviction.
    horizon: Time,
    tick: u64,
    /// File coherence epoch this cache last synchronized at.
    seen_epoch: u64,
    /// End offset of the previous read (sequential-stream detection).
    last_read_end: u64,
    seq_streak: u32,
}

impl PageCache {
    /// Build a cache of `capacity_bytes` for `file`, in pages of the file
    /// system's stripe unit (remembers the file's current coherence epoch
    /// as its baseline).
    pub fn new(capacity_bytes: usize, cpu: CpuModel, file: &PfsFile) -> PageCache {
        let page_size = file.pfs().config().stripe_size;
        assert!(
            (1..=u32::MAX as usize).contains(&page_size),
            "page size {page_size}: a page's byte runs are (u32, u32), so it holds 1..=u32::MAX bytes",
        );
        let capacity_pages = (capacity_bytes / page_size).max(1);
        // Sized once. A budget too large to index (a hostile hint) is not
        // an error: the index then grows as pages arrive, which they won't.
        let (mut index, mut gather) = (Vec::new(), Vec::new());
        let _ = index.try_reserve_exact(capacity_pages);
        let _ = gather.try_reserve_exact(capacity_pages);
        PageCache {
            page_size,
            capacity_pages,
            cpu,
            policy: RetryPolicy::default(),
            slots: Vec::new(),
            index,
            gather,
            fill: Vec::new(),
            scatter: Vec::new(),
            horizon: Time::ZERO,
            tick: 0,
            seen_epoch: file.coherence_epoch(),
            last_read_end: u64::MAX,
            seq_streak: 0,
        }
    }

    fn touch(slot: &mut Slot, tick: &mut u64) {
        *tick += 1;
        slot.last_use = *tick;
    }

    /// The slot holding `page`, if it is cached.
    fn lookup(&self, page: u64) -> Option<usize> {
        let at = self.index.binary_search_by_key(&page, |e| e.0).ok()?;
        Some(self.index[at].1 as usize)
    }

    /// The slot holding `page`, if every byte of `[lo, hi)` is valid there.
    fn covering(&self, page: u64, lo: u32, hi: u32) -> Option<usize> {
        self.lookup(page)
            .filter(|&s| covers(&self.slots[s].valid, lo, hi))
    }

    /// A slot for `page`, which is not cached, entered into the index with
    /// no valid byte (and memory that is *not* zero): an unused slot, a new
    /// one while the budget allows, else that of the least recently used
    /// page, evicted first. A page of `pinned` is never the victim (the
    /// caller is working on those) and a page of `request` only when no
    /// other is left: the victims of a request that fits the budget are the
    /// ones an eviction after the request would choose.
    fn claim(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        page: u64,
        request: &[Run],
        pinned: &RangeInclusive<u64>,
    ) -> MpioResult<usize> {
        let ps = self.page_size as u64;
        let s = if self.index.len() < self.slots.len() {
            let unused = self.slots.iter().position(|slot| !slot.in_use);
            unused.expect("fewer pages than slots")
        } else if self.slots.len() < self.capacity_pages {
            self.slots.push(Slot {
                data: vec![0u8; self.page_size],
                ..Slot::default()
            });
            self.slots.len() - 1
        } else {
            let victim = (0..self.index.len())
                .filter(|&i| !pinned.contains(&self.index[i].0))
                .min_by_key(|&i| {
                    let (p, s) = self.index[i];
                    let last_use = self.slots[s as usize].last_use;
                    (in_request(request, ps, p), last_use, p)
                });
            let victim = victim.expect("no batch is larger than the cache");
            self.evict(file, led, victim)?
        };
        let slot = &mut self.slots[s];
        slot.valid.clear();
        slot.dirty.clear();
        slot.ready = Time::ZERO;
        slot.readahead = false;
        slot.in_use = true;
        let at = self.index.partition_point(|e| e.0 < page);
        self.index.insert(at, (page, s as u32));
        Ok(s)
    }

    /// Drop the page at index position `i` and return its slot. Its dirty
    /// runs are written behind first, straight from slot memory, each as
    /// part of its stretch: the zero-gap dirty runs of the cached pages
    /// around it, clipped to the stripe row the page lies in (`stripe_size
    /// × io_servers`; the rows, for a page across a row boundary), one
    /// request per stretch. What the neighbours lent ends clean; they stay
    /// cached with their LRU ticks. If a write fails every page stays
    /// cached, still dirty. A victim still in flight is waited for first.
    fn evict(&mut self, file: &PfsFile, led: &mut CacheLedger, i: usize) -> MpioResult<usize> {
        let (page, s) = self.index[i];
        led.await_read(file, self.slots[s as usize].ready);
        let ps = self.page_size as u64;
        let (lo, hi) = (page * ps, (page + 1) * ps);
        let cfg = file.pfs().config();
        let row = (cfg.stripe_size * cfg.io_servers) as u64;
        let (wlo, whi) = (lo / row * row, hi.div_ceil(row).saturating_mul(row));
        let near = self.index.partition_point(|e| (e.0 + 1) * ps <= wlo)
            ..self.index.partition_point(|e| e.0 * ps < whi);
        let pages = &self.index[near];
        let runs = dirty_runs(pages, &self.slots, ps)
            .filter(|&(at, data)| wlo <= at && at + data.len() as u64 <= whi);
        let (t0, mut bytes, mut span) = (led.now, 0u64, lo..hi);
        for (at, len, segs) in stretches(runs).filter(|&(at, len, _)| at < hi && lo < at + len) {
            let (policy, horizon, list) = (&self.policy, &mut self.horizon, &mut self.gather);
            led.disk_write(file, policy, horizon, list, at, segs)?;
            bytes += len;
            span = span.start.min(at)..span.end.max(at + len);
        }
        for &(near, n) in pages.iter().filter(|e| e.1 != s) {
            let base = near * ps;
            let written =
                |&(a, b): &PageRun| span.start <= base + a as u64 && base + b as u64 <= span.end;
            self.slots[n as usize].dirty.retain(|run| !written(run));
        }
        if bytes > 0 {
            trace_cache_span(file, "evict_flush", t0, led.now, bytes);
            // Evicted dirty bytes are now the servers': other caches must
            // notice at their next synchronization point.
            file.bump_coherence_epoch();
        }
        file.profile().record_cache(|c| {
            c.evictions += 1;
            c.write_behind_flushes += (bytes > 0) as u64;
            c.write_behind_bytes += bytes;
        });
        self.slots[s as usize].in_use = false;
        self.index.remove(i);
        Ok(s as usize)
    }

    // ---- write path -------------------------------------------------------

    /// Write-allocate `runs`, carrying the gather list `segs`, into the
    /// cache (no read fill): bytes become valid+dirty, converted to the
    /// file's byte order as they are copied into slot memory, and are
    /// published at the next flush point.
    pub fn write_runs(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        runs: &[Run],
        segs: &[Seg<'_>],
    ) -> MpioResult<()> {
        let ps = self.page_size as u64;
        let t0 = led.now;
        let (mut payload, mut pos) = (Gather::new(segs), 0usize);
        let mut seen = CacheCounters::default();
        for &(off, len) in runs {
            for (page, lo, hi) in pieces(ps, off, len) {
                let take = (hi - lo) as usize;
                let s = match self.lookup(page) {
                    Some(s) => {
                        led.await_read(file, self.slots[s].ready);
                        hit(&mut seen, &mut self.slots[s], hi - lo);
                        s
                    }
                    None => {
                        seen.misses += 1;
                        self.claim(file, led, page, runs, &(page..=page))?
                    }
                };
                let slot = &mut self.slots[s];
                payload.each(pos, &mut slot.data[lo as usize..hi as usize]);
                insert_run(&mut slot.valid, lo, hi);
                insert_run(&mut slot.dirty, lo, hi);
                Self::touch(slot, &mut self.tick);
                led.cpu(self.cpu.pack(take, 1.0));
                pos += take;
            }
        }
        file.profile().record_cache(|c| c.merge(&seen));
        trace_cache_span(file, "cache_write", t0, led.now, pos as u64);
        Ok(())
    }

    // ---- read path --------------------------------------------------------

    /// Read `runs` through the cache into `out`, which holds exactly the
    /// runs' bytes concatenated in run order. Misses fill whole pages
    /// (consecutive absent pages with one PFS read); a sequential stream
    /// triggers readahead.
    pub fn read_runs(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        runs: &[Run],
        out: &mut [u8],
    ) -> MpioResult<()> {
        let total = out.len() as u64;
        debug_assert_eq!(runs_total(runs), total);
        let ps = self.page_size as u64;
        let cap = self.capacity_pages as u64;
        let t0 = led.now;
        let mut pos = 0usize;
        let mut seen = CacheCounters::default();
        for &(off, len) in runs {
            // A run over more pages than there are slots is served a
            // cache-full at a time: `[at, stop)` is one batch.
            let (mut at, end) = (off, off + len);
            while at < end {
                let stop = end.min((at / ps).saturating_add(cap).saturating_mul(ps));
                let batch = at / ps..=(stop - 1) / ps;
                // Fill absent coverage first, each stretch of consecutive
                // pages that need disk bytes with one PFS read.
                let mut lookups = pieces(ps, at, stop - at).peekable();
                while let Some((page, lo, hi)) = lookups.next() {
                    if let Some(s) = self.covering(page, lo, hi) {
                        hit(&mut seen, &mut self.slots[s], hi - lo);
                        continue;
                    }
                    let mut last = page;
                    while let Some((next, _, _)) =
                        lookups.next_if(|&(p, lo, hi)| self.covering(p, lo, hi).is_none())
                    {
                        last = next;
                    }
                    seen.misses += last - page + 1;
                    self.fill_pages(file, led, page..=last, false, runs, &batch)?;
                }
                // Everything requested is now valid, or in flight; copy out.
                for (page, lo, hi) in pieces(ps, at, stop - at) {
                    let take = (hi - lo) as usize;
                    let s = self.lookup(page).expect("filled above");
                    led.await_read(file, self.slots[s].ready);
                    let slot = &mut self.slots[s];
                    debug_assert!(covers(&slot.valid, lo, hi));
                    out[pos..pos + take].copy_from_slice(&slot.data[lo as usize..hi as usize]);
                    Self::touch(slot, &mut self.tick);
                    led.cpu(self.cpu.pack(take, 1.0));
                    pos += take;
                }
                at = stop;
            }
        }
        file.profile().record_cache(|c| c.merge(&seen));
        // Sequential detection + readahead on the whole request.
        if let (Some(&(first, _)), Some(&(last_off, last_len))) = (runs.first(), runs.last()) {
            let end = last_off + last_len;
            if first == self.last_read_end {
                self.seq_streak += 1;
            } else {
                self.seq_streak = 1;
            }
            self.last_read_end = end;
            if self.seq_streak >= 2 {
                self.readahead(file, led, end)?;
            }
        }
        trace_cache_span(file, "cache_read", t0, led.now, total);
        Ok(())
    }

    /// Fill the invalid bytes of the consecutive `pages` with one PFS read,
    /// claiming slots for the absent ones first — so a dirty victim's
    /// write-behind precedes the read. The read's run list is every page's
    /// gaps below the end of the file, its scatter list the slot memory
    /// under them: cached dirty/valid bytes are newer than the disk copy and
    /// are not read over, and past EOF, which reads as zeros, the slots are
    /// zeroed instead of read. `ahead` marks the pages as fetched
    /// speculatively: the read is issued at the rank's clock and the rank
    /// goes on, the pages `ready` when it lands. A demand fill waits for it.
    ///
    /// This is the cache's one read door. The rank's client link carries
    /// one read after another, so a read ends no earlier than
    /// `max(start + latency, link_free) + bytes / client_link_bw`, and that
    /// end is the link's next `link_free`. A read issued with nothing in
    /// flight finds the link free, and the PFS's own link floor decides. A
    /// fill with nothing to read sends no request and leaves the link alone.
    fn fill_pages(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        pages: RangeInclusive<u64>,
        ahead: bool,
        request: &[Run],
        pinned: &RangeInclusive<u64>,
    ) -> MpioResult<()> {
        let ps = self.page_size as u64;
        let ps32 = self.page_size as u32;
        for page in pages.clone() {
            if self.lookup(page).is_none() {
                self.claim(file, led, page, request, pinned)?;
            }
        }
        // Where the end of the file lies in `page`: the bytes from there on
        // read as zeros.
        let eof = file.size();
        let eof_in = |page: u64| eof.saturating_sub(page * ps).min(ps) as u32;
        let (index, slots) = (&self.index, &mut self.slots);
        let slot_of = |page| {
            let at = index.binary_search_by_key(&page, |e| e.0);
            index[at.expect("claimed above")].1 as usize
        };
        let mut runs = std::mem::take(&mut self.fill);
        runs.clear();
        for page in pages.clone() {
            let valid = &slots[slot_of(page)].valid;
            let below_eof = gaps(valid, 0, eof_in(page));
            runs.extend(below_eof.map(|(lo, hi)| (page * ps + lo as u64, (hi - lo) as u64)));
        }
        // The scatter list: each page's gaps, cut from its slot's memory in
        // file order. Every slot is lent whole first, in slot order, so that
        // a page's memory can be taken out whichever slot holds it; the read
        // is handed the gaps after them.
        let mut lent = recycle(std::mem::take(&mut self.scatter));
        lent.extend(slots.iter_mut().map(|slot| &mut slot.data[..]));
        let whole = lent.len();
        let mut holes = runs.iter().peekable();
        for page in pages.clone() {
            let (base, mut rest) = (page * ps, std::mem::take(&mut lent[slot_of(page)]));
            let mut at = base;
            while let Some(&(off, len)) = holes.next_if(|r| r.0 < base + ps) {
                let (_, tail) = std::mem::take(&mut rest).split_at_mut((off - at) as usize);
                let (gap, tail) = tail.split_at_mut(len as usize);
                lent.push(gap);
                (rest, at) = (tail, off + len);
            }
        }
        let t0 = led.now;
        let done = recover::read(file, &self.policy, t0, &runs, &mut lent[whole..]);
        self.scatter = recycle(lent);
        let (mut done, read) = (done?, runs_total(&runs));
        self.fill = runs;
        if read > 0 {
            let cfg = file.pfs().config();
            let on_link = (t0 + cfg.client_link_latency).max(led.link_free)
                + Time::from_secs_f64(read as f64 / cfg.client_link_bw);
            done = done.max(on_link);
            led.link_free = done;
        }
        if !ahead {
            led.read_nanos += done.saturating_sub(t0).as_nanos();
            led.now = done;
        }
        let span = ["cache_fill", "readahead_fill"][ahead as usize];
        trace_cache_span(file, span, t0, done, read);
        for page in pages {
            let s = self.lookup(page).expect("claimed above");
            let slot = &mut self.slots[s];
            // Past the end of the file the slot's memory holds an older
            // page's bytes, not the zeros the file reads as there.
            for (lo, hi) in gaps(&slot.valid, eof_in(page), ps32) {
                slot.data[lo as usize..hi as usize].fill(0);
            }
            // The whole page is now a faithful view.
            slot.valid.clear();
            slot.valid.push((0, ps32));
            slot.ready = done;
            slot.readahead = ahead;
            Self::touch(slot, &mut self.tick);
        }
        Ok(())
    }

    /// Prefetch the absent pages among the [`READAHEAD_PAGES`] following
    /// `end` — never more of them than the cache has slots, or the last
    /// would push the first out before anybody read it.
    fn readahead(&mut self, file: &PfsFile, led: &mut CacheLedger, end: u64) -> MpioResult<()> {
        let ps = self.page_size as u64;
        let first = end.div_ceil(ps);
        let ahead = READAHEAD_PAGES.min(self.capacity_pages) as u64;
        let stop = first.saturating_add(ahead).min(file.size().div_ceil(ps));
        let (mut page, mut issued) = (first, 0u64);
        while page < stop {
            if self.lookup(page).is_some() {
                page += 1;
                continue;
            }
            let mut last = page;
            while last + 1 < stop && self.lookup(last + 1).is_none() {
                last += 1;
            }
            self.fill_pages(file, led, page..=last, true, &[], &(first..=stop - 1))?;
            issued += last - page + 1;
            page = last + 1;
        }
        if issued > 0 {
            file.profile()
                .record_cache(|c| c.readahead_issued += issued);
        }
        Ok(())
    }

    // ---- write-behind -----------------------------------------------------

    /// Flush every dirty run to the PFS (adjacent runs coalesced across
    /// page boundaries into single requests) and wait until everything
    /// written behind — by this flush or by an eviction before it — is on
    /// disk. Pages stay cached and clean. Returns the bytes written.
    pub fn flush(&mut self, file: &PfsFile, led: &mut CacheLedger) -> MpioResult<u64> {
        let (t0, mut bytes) = (led.now, 0u64);
        let runs = dirty_runs(&self.index, &self.slots, self.page_size as u64);
        for (at, len, segs) in stretches(runs) {
            let (policy, horizon, list) = (&self.policy, &mut self.horizon, &mut self.gather);
            led.disk_write(file, policy, horizon, list, at, segs)?;
            bytes += len;
        }
        if bytes == 0 {
            // Nothing dirty is not nothing pending: evictions may be.
            self.drain(file, led);
            return Ok(0);
        }
        trace_cache_span(file, "write_behind", t0, led.now, bytes);
        self.slots.iter_mut().for_each(|slot| slot.dirty.clear());
        file.profile().record_cache(|c| {
            c.write_behind_flushes += 1;
            c.write_behind_bytes += bytes;
        });
        self.drain(file, led);
        Ok(bytes)
    }

    /// Wait for every read in flight to land — the latest `ready`: a slot
    /// evicted or dropped has waited for its own — then for the durability
    /// horizon, the one place a caller pays for the disk time write-behind
    /// hid from it. No cached read or write is in flight past a flush point.
    fn drain(&self, file: &PfsFile, led: &mut CacheLedger) {
        let landed = self.slots.iter().map(|s| s.ready).max();
        led.await_read(file, landed.unwrap_or_default());
        let t0 = led.now;
        led.await_write(self.horizon);
        if led.now > t0 {
            trace_cache_span(file, "write_behind_drain", t0, led.now, 0);
            let waited = (led.now - t0).as_nanos();
            file.profile()
                .record_cache(|c| c.write_behind_drain += waited);
        }
    }

    // ---- coherence --------------------------------------------------------

    /// Pre-synchronization half of the coherence protocol: publish dirty
    /// bytes (write-behind), wait until they are on disk, and advance the
    /// file epoch if anything was published. Call *before* the collective
    /// rendezvous: no rank leaves it before every rank's bytes are durable,
    /// so a read after the sync point cannot reach a server ahead of them.
    pub fn sync_prepare(&mut self, file: &PfsFile, led: &mut CacheLedger) -> MpioResult<()> {
        if self.flush(file, led)? > 0 {
            file.bump_coherence_epoch();
        }
        Ok(())
    }

    /// Post-synchronization half: if any rank (this one included) advanced
    /// the epoch, drop clean cached bytes so later reads refetch. Call
    /// *after* the collective rendezvous, so every rank's `sync_prepare`
    /// happens-before this check.
    pub fn sync_complete(&mut self, file: &PfsFile) {
        let epoch = file.coherence_epoch();
        if epoch == self.seen_epoch {
            return;
        }
        self.seen_epoch = epoch;
        self.invalidate_clean(file);
        // A new phase begins; forget the stream state.
        self.last_read_end = u64::MAX;
        self.seq_streak = 0;
    }

    /// Every cached page loses its clean bytes: clean pages drop entirely
    /// (their slots keep their memory for the next miss), dirty pages
    /// shrink their valid set to the dirty runs — this rank's own
    /// unpublished writes always survive.
    fn invalidate_clean(&mut self, file: &PfsFile) {
        let touched = self.index.len() as u64;
        let slots = &mut self.slots;
        self.index.retain(|&(_, s)| {
            let slot = &mut slots[s as usize];
            slot.valid.clone_from(&slot.dirty);
            slot.readahead = false;
            slot.in_use = !slot.dirty.is_empty();
            slot.in_use
        });
        file.profile().record_cache(|c| c.invalidations += touched);
    }

    /// Number of cached pages (diagnostics/tests).
    pub fn cached_pages(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpioError;
    use hpc_sim::{FaultPlan, SimConfig};
    use pnetcdf_pfs::{Pfs, StorageMode};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A cache of `capacity` bytes over a `test_small` file: 1 KiB pages,
    /// the stripe.
    fn setup(capacity: usize) -> (PageCache, PfsFile, SimConfig) {
        setup_faulty(FaultPlan::default(), capacity)
    }

    fn setup_faulty(faults: FaultPlan, capacity: usize) -> (PageCache, PfsFile, SimConfig) {
        let mut cfg = SimConfig::test_small();
        cfg.faults = faults;
        setup_on(cfg, capacity)
    }

    /// A cache over a file on a file system built from `cfg`.
    fn setup_on(cfg: SimConfig, capacity: usize) -> (PageCache, PfsFile, SimConfig) {
        cfg.profile.set_enabled(true);
        let file = Pfs::new(cfg.clone(), StorageMode::Full).create("c");
        let cache = PageCache::new(capacity, cfg.cpu, &file);
        (cache, file, cfg)
    }

    /// `read_runs` into a fresh buffer of the runs' size.
    fn read_vec(
        cache: &mut PageCache,
        file: &PfsFile,
        led: &mut CacheLedger,
        runs: &[Run],
    ) -> Vec<u8> {
        let mut out = vec![0xEEu8; crate::runs::runs_total(runs) as usize];
        cache.read_runs(file, led, runs, &mut out).unwrap();
        out
    }

    #[test]
    fn run_list_insert_and_gaps() {
        let mut l: Vec<PageRun> = Vec::new();
        insert_run(&mut l, 10, 20);
        insert_run(&mut l, 30, 40);
        insert_run(&mut l, 20, 30); // bridges
        assert_eq!(l, vec![(10, 40)]);
        insert_run(&mut l, 0, 5);
        assert_eq!(l, vec![(0, 5), (10, 40)]);
        assert!(covers(&l, 12, 40));
        assert!(!covers(&l, 4, 11));
        assert_eq!(gaps(&l, 0, 50).collect::<Vec<_>>(), [(5, 10), (40, 50)]);
        assert_eq!(gaps(&l, 12, 30).count(), 0);
    }

    #[test]
    fn write_then_read_hits_without_disk() {
        let (mut cache, file, cfg) = setup(1 << 20);
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        cache
            .write_runs(&file, &mut led, &[(100, 3000)], &[(&data).into()])
            .unwrap();
        assert_eq!(led.read_nanos, 0, "write-allocate must not read");
        assert_eq!(led.write_nanos, 0, "write-behind must not write yet");
        let got = read_vec(&mut cache, &file, &mut led, &[(100, 3000)]);
        assert_eq!(got, data);
        assert_eq!(led.read_nanos, 0, "fully dirty range must be a pure hit");
        let c = cfg.profile.cache_counters();
        assert!(c.hits > 0);
        // Nothing on disk yet.
        assert_eq!(file.size(), 0);
        // Flush publishes the exact runs.
        cache.flush(&file, &mut led).unwrap();
        let mut out = vec![0u8; 3000];
        file.peek_at(100, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn flush_coalesces_small_writes() {
        let (mut cache, file, cfg) = setup(1 << 20);
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        // 64 back-to-back 128-byte writes = 8 KiB contiguous.
        for i in 0..64u64 {
            cache
                .write_runs(&file, &mut led, &[(i * 128, 128)], &[(&[7u8; 128]).into()])
                .unwrap();
        }
        cache.flush(&file, &mut led).unwrap();
        let snap = cfg.profile.snapshot();
        // One coalesced flush: requests == number of servers touched by one
        // 8 KiB striped write, far fewer than 64.
        let reqs: u64 = snap.servers.iter().map(|s| s.requests).sum();
        assert!(reqs <= 8, "flush should coalesce, saw {reqs} requests");
        assert_eq!(cfg.profile.cache_counters().write_behind_bytes, 8192);
    }

    #[test]
    fn dirty_runs_only_no_false_sharing() {
        let (mut cache, file, _cfg) = setup(1 << 20);
        // Another writer (rank B) put bytes on disk in the same page.
        file.write_at(Time::ZERO, 0, &[9u8; 512]);
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        // This rank dirties only [512, 1024) of page 0.
        cache
            .write_runs(&file, &mut led, &[(512, 512)], &[(&[5u8; 512]).into()])
            .unwrap();
        cache.flush(&file, &mut led).unwrap();
        let mut out = vec![0u8; 1024];
        file.peek_at(0, &mut out);
        assert_eq!(&out[..512], &[9u8; 512][..], "foreign bytes must survive");
        assert_eq!(&out[512..], &[5u8; 512][..]);
    }

    #[test]
    fn read_miss_fills_one_page_then_hits() {
        let (mut cache, file, cfg) = setup(1 << 20);
        let data: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        file.write_at(Time::ZERO, 0, &data);
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        let got = read_vec(&mut cache, &file, &mut led, &[(10, 50)]);
        assert_eq!(got, data[10..60]);
        assert!(led.read_nanos > 0);
        let after_fill = led.read_nanos;
        // Overlapping re-read: pure hit, no further disk time.
        let got2 = read_vec(&mut cache, &file, &mut led, &[(0, 200)]);
        assert_eq!(got2, data[0..200]);
        assert_eq!(led.read_nanos, after_fill);
        let c = cfg.profile.cache_counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn eviction_respects_budget_and_preserves_bytes() {
        let (mut cache, file, cfg) = setup(2048); // 2 pages
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        for i in 0..16u64 {
            cache
                .write_runs(
                    &file,
                    &mut led,
                    &[(i * 512, 512)],
                    &[(&data[(i * 512) as usize..(i * 512 + 512) as usize]).into()],
                )
                .unwrap();
        }
        assert!(cache.cached_pages() <= 2);
        assert!(cfg.profile.cache_counters().evictions > 0);
        cache.flush(&file, &mut led).unwrap();
        let mut out = vec![0u8; 8192];
        file.peek_at(0, &mut out);
        assert_eq!(out, data);
        // Read everything back through the (tiny) cache.
        let got = read_vec(&mut cache, &file, &mut led, &[(0, 8192)]);
        assert_eq!(got, data);
    }

    #[test]
    fn sequential_reads_trigger_readahead() {
        let (mut cache, file, cfg) = setup(1 << 20);
        let data: Vec<u8> = (0..16384u32).map(|i| (i % 239) as u8).collect();
        file.write_at(Time::ZERO, 0, &data);
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        let mut got = Vec::new();
        for i in 0..32u64 {
            got.extend(read_vec(&mut cache, &file, &mut led, &[(i * 512, 512)]));
        }
        assert_eq!(got, data);
        let c = cfg.profile.cache_counters();
        assert!(c.readahead_issued > 0, "{c:?}");
        assert!(c.readahead_hits > 0, "{c:?}");
        assert!(c.hits > 0, "{c:?}");
    }

    /// A readahead is issued at the rank's clock and the rank goes on: its
    /// pages land later, when the client link has carried them, and the
    /// first touch of one waits for that, as does a flush point for what is
    /// still in flight. Every wait is disk read time, so the ledger adds up.
    #[test]
    fn a_readahead_lands_behind_the_rank_and_is_waited_for_at_first_touch() {
        let (mut cache, file, _cfg) = setup(1 << 20);
        file.write_at(Time::ZERO, 0, &[5u8; 8192]);
        let start = Time::from_millis(1);
        let mut led = CacheLedger::new(start, Time::ZERO);
        read_vec(&mut cache, &file, &mut led, &[(0, 512)]);
        assert!(led.link_free <= led.now, "a demand fill is waited for");
        // The stream is sequential now: pages 1 and 2 are read ahead.
        let (before, waited) = (led.now, led.read_nanos);
        read_vec(&mut cache, &file, &mut led, &[(512, 512)]);
        assert_eq!(led.now, before + cache.cpu.pack(512, 1.0));
        assert_eq!(led.read_nanos, waited, "the rank did not wait");
        let ready = cache.slots[cache.lookup(1).unwrap()].ready;
        assert!(ready > led.now && led.link_free == ready);
        // Touching page 1 waits for it; that read's own readahead of page
        // 3 is in flight at the flush point, which waits for it.
        let got = read_vec(&mut cache, &file, &mut led, &[(1024, 512)]);
        assert_eq!(got, [5u8; 512]);
        assert!(led.now >= ready && led.read_nanos > waited);
        let page3 = cache.slots[cache.lookup(3).unwrap()].ready;
        assert!(page3 > led.now);
        cache.flush(&file, &mut led).unwrap();
        assert_eq!(led.now, page3);
        assert_eq!(
            led.now.as_nanos(),
            start.as_nanos() + led.cache_nanos + led.read_nanos + led.write_nanos
        );
    }

    #[test]
    fn epoch_invalidation_drops_clean_keeps_dirty() {
        let (mut cache, file, _cfg) = setup(1 << 20);
        file.write_at(Time::ZERO, 0, &[1u8; 1024]);
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        // Cache page 0 clean, dirty half of page 1.
        read_vec(&mut cache, &file, &mut led, &[(0, 100)]);
        cache
            .write_runs(
                &file,
                &mut led,
                &[(1024 + 256, 128)],
                &[(&[8u8; 128]).into()],
            )
            .unwrap();
        assert_eq!(cache.cached_pages(), 2);

        // Another rank publishes: epoch moves, disk changes under us.
        file.write_at(Time::ZERO, 0, &[2u8; 1024]);
        file.bump_coherence_epoch();
        cache.sync_complete(&file);

        // Clean page dropped: next read sees the new bytes.
        let got = read_vec(&mut cache, &file, &mut led, &[(0, 4)]);
        assert_eq!(got, vec![2u8; 4]);
        // Dirty bytes survived.
        let got = read_vec(&mut cache, &file, &mut led, &[(1024 + 256, 128)]);
        assert_eq!(got, vec![8u8; 128]);
    }

    #[test]
    fn sync_prepare_publishes_and_bumps_epoch() {
        let (mut cache, file, _cfg) = setup(1 << 20);
        let e0 = file.coherence_epoch();
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 64)], &[(&[3u8; 64]).into()])
            .unwrap();
        cache.sync_prepare(&file, &mut led).unwrap();
        assert_eq!(file.coherence_epoch(), e0 + 1);
        let mut out = vec![0u8; 64];
        file.peek_at(0, &mut out);
        assert_eq!(out, vec![3u8; 64]);
        // Nothing dirty: a second prepare is a no-op.
        cache.sync_prepare(&file, &mut led).unwrap();
        assert_eq!(file.coherence_epoch(), e0 + 1);
    }

    /// Over an eviction inside a get (the clock goes on at its handoff), the
    /// get's fill and the sync that waits for what the eviction left behind.
    #[test]
    fn ledger_time_is_fully_attributed() {
        let (mut cache, file, cfg) = setup(2048); // 2 slots
        let start = Time::from_millis(3);
        let mut led = CacheLedger::new(start, Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 2048)], &[(&[1u8; 2048]).into()])
            .unwrap();
        read_vec(&mut cache, &file, &mut led, &[(4096, 100)]);
        cache.sync_prepare(&file, &mut led).unwrap();
        assert!(led.now >= cache.horizon);
        let c = cfg.profile.cache_counters();
        assert_eq!((c.evictions, c.write_behind_bytes), (1, 2048));
        assert_eq!(
            led.now.as_nanos(),
            start.as_nanos() + led.cache_nanos + led.read_nanos + led.write_nanos,
            "every nanosecond of cache work must land in exactly one bucket"
        );
    }

    /// A write-behind lets the clock go on at the request's handoff and the
    /// cache remembers when the bytes are durable; the next flush point
    /// waits exactly that long, also with nothing dirty.
    #[test]
    fn an_eviction_ends_at_handoff_and_the_next_flush_waits_for_the_horizon() {
        let (mut cache, file, cfg) = setup(1024); // 1 slot
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 1024)], &[(&[1u8; 1024]).into()])
            .unwrap();
        // What the eviction's request completes as: the same write at the
        // same time on an identical, idle file system.
        let (_, twin, _) = setup(1024);
        let done = recover::write(
            &twin,
            &cache.policy,
            led.now,
            &[(0, 1024)],
            &[(&[1u8; 1024]).into()],
        );
        let done = done.unwrap();
        assert!(done.handoff < done.durable, "a disk is slower than a NIC");
        cache.evict(&file, &mut led, 0).unwrap();
        assert_eq!((led.now, cache.horizon), (done.handoff, done.durable));
        let drained = || cfg.profile.cache_counters().write_behind_drain;
        assert_eq!(drained(), 0);
        assert_eq!(cache.flush(&file, &mut led).unwrap(), 0, "nothing dirty");
        assert_eq!(led.now, done.durable);
        assert_eq!(drained(), (done.durable - done.handoff).as_nanos());
        cache.flush(&file, &mut led).unwrap();
        assert_eq!(led.now, done.durable, "nothing left to wait for");
    }

    /// The servers' bounded queues are the backpressure: with one request
    /// admitted per server, a stream of evictions to one server is never
    /// more than the request in flight ahead of that server's disk.
    #[test]
    fn a_full_server_queue_holds_write_behind_back() {
        let mut one_deep = SimConfig::test_small();
        one_deep.server_queue_depth = 1;
        let (mut cache, file, cfg) = setup_on(one_deep, 1024); // 1 slot
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        // 1 KiB stripes over 4 servers: every fourth page is server 0's.
        for k in 0..8u64 {
            let on_disk = cache.horizon;
            cache
                .write_runs(
                    &file,
                    &mut led,
                    &[(4 * k * 1024, 1024)],
                    &[(&[k as u8; 1024]).into()],
                )
                .unwrap();
            // The miss evicted page 4(k-1); its request got past the queue
            // only once the eviction before it was on disk.
            assert!(led.now >= on_disk, "write {k}: two requests ahead");
            assert!(k == 0 || led.now < cache.horizon, "write {k}: not behind");
        }
        let servers = cfg.profile.snapshot().server_totals();
        assert!(servers.queue_stall_nanos > 0, "{servers:?}");
    }

    /// Transient faults and short writes under a stream of evictions: the
    /// clock goes on at the handoff of the attempt that succeeded (replayed
    /// on a twin file system under the same plan), the horizon is not
    /// before that attempt's durable point, every byte lands, and a retried
    /// byte is written behind once.
    #[test]
    fn write_behind_under_faults_keeps_bytes_and_horizon() {
        let plan = FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        };
        let (mut cache, file, cfg) = setup_faulty(plan.clone(), 1024); // 1 slot
        let (_, twin, _) = setup_faulty(plan, 1024);
        let pages = 39u64;
        let page = |k: u64| -> Vec<u8> { (0..1024).map(|i| (i * 7 + k) as u8).collect() };
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        for k in 0..pages {
            // The miss of page k evicts page k-1 before anything is charged.
            let evicted = k.checked_sub(1).map(|v| {
                recover::write(
                    &twin,
                    &cache.policy,
                    led.now,
                    &[(v * 1024, 1024)],
                    &[(&page(v)).into()],
                )
                .unwrap()
            });
            cache
                .write_runs(&file, &mut led, &[(k * 1024, 1024)], &[(&page(k)).into()])
                .unwrap();
            if let Some(done) = evicted {
                assert_eq!(led.now, done.handoff + cache.cpu.pack(1024, 1.0));
                assert!(cache.horizon >= done.durable);
            }
        }
        cache.flush(&file, &mut led).unwrap();
        assert_eq!(led.now, cache.horizon);
        let mut out = vec![0u8; pages as usize * 1024];
        file.peek_at(0, &mut out);
        assert_eq!(out, (0..pages).flat_map(page).collect::<Vec<u8>>());
        let f = cfg.profile.fault_counters();
        assert!(f.retries > 0 && f.short_completions > 0, "{f:?}");
        assert_eq!(f.exhausted, 0);
        assert_eq!(
            cfg.profile.cache_counters().write_behind_bytes,
            pages * 1024
        );
    }

    #[test]
    fn an_exhausted_write_behind_leaves_the_page_cached_and_dirty() {
        let plan = FaultPlan {
            transient: 1.0,
            ..FaultPlan::default()
        };
        let (mut cache, file, cfg) = setup_faulty(plan, 1024); // 1 slot
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 1024)], &[(&[1u8; 1024]).into()])
            .unwrap();
        // The victim, page 0, has no neighbour: its stretch is itself.
        let err = cache.write_runs(&file, &mut led, &[(1024, 8)], &[(&[2u8; 8]).into()]);
        assert!(matches!(err, Err(MpioError::Exhausted { .. })), "{err:?}");
        assert_eq!(cache.index, [(0, 0)]);
        assert_eq!(cache.slots[0].dirty, [(0, 1024)]);
        assert_eq!(cache.horizon, Time::ZERO, "nothing was handed off");
        assert_eq!(cfg.profile.cache_counters().write_behind_bytes, 0);
    }

    #[test]
    fn an_exhausted_write_behind_leaves_its_whole_stretch_dirty() {
        let plan = FaultPlan {
            transient: 1.0,
            ..FaultPlan::default()
        };
        let (mut cache, file, cfg) = setup_faulty(plan, 2048); // 2 slots
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 2048)], &[(&[1u8; 2048]).into()])
            .unwrap();
        // The victim, page 0, goes out with its neighbour in one stretch.
        let err = cache.write_runs(&file, &mut led, &[(2048, 8)], &[(&[2u8; 8]).into()]);
        assert!(matches!(err, Err(MpioError::Exhausted { .. })), "{err:?}");
        assert_eq!(cache.index, [(0, 0), (1, 1)]);
        assert_eq!(cache.slots[0].dirty, [(0, 1024)]);
        assert_eq!(cache.slots[1].dirty, [(0, 1024)], "the neighbour too");
        assert_eq!(cache.horizon, Time::ZERO, "nothing was handed off");
        assert_eq!(cfg.profile.cache_counters().write_behind_bytes, 0);
    }

    /// Degraded mode needs no special case: a portion redirected to parity
    /// has no NIC handoff of its own, so the PFS reports `handoff ==
    /// durable` and the eviction waits for the disk as it used to.
    #[test]
    fn a_redirected_write_behind_is_durable_at_its_handoff() {
        let mut parity = SimConfig::test_small();
        parity.faults = FaultPlan::from_spec("crash=server:1@t>0").unwrap();
        parity.parity = true;
        let (mut cache, file, cfg) = setup_on(parity, 1024); // 1 slot
        assert!(file.pfs().mark_server_down(1));
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        // Page 0 is a live server's: still behind after its eviction.
        for (page, redirected) in [(0u64, false), (1, true)] {
            cache
                .write_runs(
                    &file,
                    &mut led,
                    &[(page * 1024, 1024)],
                    &[(&[7u8; 1024]).into()],
                )
                .unwrap();
            cache.flush(&file, &mut led).unwrap();
            let drained = cfg.profile.cache_counters().write_behind_drain;
            cache
                .write_runs(&file, &mut led, &[(page * 1024, 8)], &[(&[8u8; 8]).into()])
                .unwrap();
            cache.evict(&file, &mut led, 0).unwrap();
            assert_eq!(led.now == cache.horizon, redirected, "page {page}");
            cache.flush(&file, &mut led).unwrap();
            let waited = cfg.profile.cache_counters().write_behind_drain - drained;
            assert_eq!(waited == 0, redirected, "page {page}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `insert_run`, `covers` and `gaps` against one bit per byte.
        #[test]
        fn run_lists_agree_with_a_byte_bitmap(
            inserts in vec((0u32..72, 1u32..24), 0..24),
            probes in vec((0u32..80, 1u32..30), 1..8),
        ) {
            let mut list: Vec<PageRun> = Vec::new();
            let mut map = [false; 128];
            for (lo, len) in inserts {
                insert_run(&mut list, lo, lo + len);
                map[lo as usize..(lo + len) as usize].fill(true);
                // Sorted, disjoint, non-adjacent, and exactly the bitmap.
                prop_assert!(list.iter().all(|&(a, b)| a < b));
                prop_assert!(list.windows(2).all(|w| w[0].1 < w[1].0));
                let mut listed = [false; 128];
                for &(a, b) in &list {
                    listed[a as usize..b as usize].fill(true);
                }
                prop_assert_eq!(listed, map);
                for &(lo, len) in &probes {
                    let range = lo as usize..(lo + len) as usize;
                    prop_assert_eq!(
                        covers(&list, lo, lo + len),
                        map[range.clone()].iter().all(|&set| set)
                    );
                    // The gaps are the clear bits of the range, as maximal
                    // runs in ascending order.
                    let found: Vec<PageRun> = gaps(&list, lo, lo + len).collect();
                    prop_assert!(found.iter().all(|&(a, b)| a < b));
                    prop_assert!(found.windows(2).all(|w| w[0].1 < w[1].0));
                    let mut clear = [false; 128];
                    for &(a, b) in &found {
                        clear[a as usize..b as usize].fill(true);
                    }
                    for at in 0..128 {
                        prop_assert_eq!(clear[at], range.contains(&at) && !map[at]);
                    }
                }
            }
        }
    }

    /// A slot's memory is reused as it is: what a fill does not overwrite
    /// with disk bytes — everything past EOF — must be zeroed by hand.
    #[test]
    fn bytes_past_eof_read_zero_through_a_slot_that_held_other_data() {
        let (mut cache, file, _cfg) = setup(1024); // 1 slot
        file.write_at(Time::ZERO, 0, &[0xAB; 1024 + 100]);
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        // The one slot holds 1024 bytes of 0xAB ...
        assert_eq!(
            read_vec(&mut cache, &file, &mut led, &[(0, 1024)]),
            [0xAB; 1024]
        );
        // ... then the file's tail page: 100 bytes, and 924 past EOF.
        let tail = read_vec(&mut cache, &file, &mut led, &[(1024, 1024)]);
        assert_eq!(tail[..100], [0xAB; 100]);
        assert_eq!(tail[100..], [0u8; 924], "stale slot bytes past EOF");
        // Dirty bytes in a page that lies wholly past EOF survive a fill
        // around them; the rest of it is zeros too.
        cache
            .write_runs(&file, &mut led, &[(4096 + 10, 4)], &[(&[7u8; 4]).into()])
            .unwrap();
        let beyond = read_vec(&mut cache, &file, &mut led, &[(4096, 1024)]);
        assert_eq!(beyond[10..14], [7u8; 4]);
        assert!(beyond[..10].iter().chain(&beyond[14..]).all(|&b| b == 0));
        assert_eq!(cache.slots.len(), 1);
    }

    /// A get wholly past EOF is zeros from slot memory: no server request
    /// goes out, and the rank does not wait for one.
    #[test]
    fn a_get_wholly_past_eof_sends_no_request() {
        let (mut cache, file, cfg) = setup(4096);
        file.write_at(Time::ZERO, 0, &[0xAB; 100]);
        let requests = || cfg.profile.snapshot().server_totals().requests;
        let before = requests();
        let mut led = CacheLedger::new(Time::from_millis(1), Time::ZERO);
        let got = read_vec(&mut cache, &file, &mut led, &[(2048, 1500)]);
        assert!(got.iter().all(|&b| b == 0));
        assert_eq!(requests(), before, "a fill past EOF sent a server request");
        assert_eq!(led.read_nanos, 0);
    }

    /// The budget is kept while a request larger than it is served, slots
    /// outlive their pages, and a warmed-up cache reuses what it has.
    #[test]
    fn slots_never_exceed_the_budget_and_are_reused() {
        let (mut cache, file, cfg) = setup(4096); // 4 slots
        let data: Vec<u8> = (0..20480u32).map(|i| (i % 233) as u8).collect();
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 20480)], &[(&data).into()])
            .unwrap();
        assert_eq!((cache.slots.len(), cache.cached_pages()), (4, 4));
        assert_eq!(cfg.profile.cache_counters().evictions, 16);
        assert_eq!(
            read_vec(&mut cache, &file, &mut led, &[(100, 20000)]),
            data[100..20100]
        );
        assert_eq!((cache.slots.len(), cache.cached_pages()), (4, 4));
        // A published epoch drops every (clean) page; the slots stay.
        cache.sync_prepare(&file, &mut led).unwrap();
        cache.sync_complete(&file);
        assert_eq!((cache.slots.len(), cache.cached_pages()), (4, 0));
        let memory: Vec<*const u8> = cache.slots.iter().map(|s| s.data.as_ptr()).collect();
        assert_eq!(
            read_vec(&mut cache, &file, &mut led, &[(0, 4096)]),
            data[..4096]
        );
        let reused: Vec<*const u8> = cache.slots.iter().map(|s| s.data.as_ptr()).collect();
        assert_eq!(reused, memory);
    }

    /// The victim of a miss is the least recently used page that is not
    /// part of the request — also when the request's own pages are older.
    #[test]
    fn a_miss_does_not_evict_a_page_the_request_is_about_to_hit() {
        let (mut cache, file, cfg) = setup(2048); // 2 slots
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        for page in [1u64, 0] {
            cache
                .write_runs(
                    &file,
                    &mut led,
                    &[(page * 1024, 8)],
                    &[(&[page as u8; 8]).into()],
                )
                .unwrap();
        }
        // Page 1 is the older one, and this request hits it after missing
        // page 2: page 0 has to go.
        cache
            .write_runs(
                &file,
                &mut led,
                &[(1024 + 8, 8), (2048, 8)],
                &[(&[9u8; 16]).into()],
            )
            .unwrap();
        let pages: Vec<u64> = cache.index.iter().map(|e| e.0).collect();
        assert_eq!(pages, [1, 2]);
        let c = cfg.profile.cache_counters();
        assert_eq!((c.evictions, c.write_behind_bytes), (1, 8));
    }

    /// An eviction writes its victim's dirty runs as part of their stretch
    /// of zero-gap neighbours, backwards and forwards, clipped to the
    /// stripe row (1 KiB stripes on 4 servers: 4 KiB, four pages), in one
    /// request: each server receives one stripe. The neighbours stay cached
    /// and valid, clean, with the LRU ticks they had; their own eviction
    /// later writes nothing.
    #[test]
    fn an_eviction_writes_its_victims_stretch_up_to_the_stripe_row() {
        let (mut cache, file, cfg) = setup(8192); // 8 slots
        let mut led = CacheLedger::new(Time::ZERO, Time::ZERO);
        // Page 2 first, so it is the oldest; then the rest of pages 0..8.
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
        for page in [2u64, 0, 1, 3, 4, 5, 6, 7] {
            let at = page as usize * 1024;
            let run = [(at as u64, 1024)];
            cache
                .write_runs(&file, &mut led, &run, &[(&data[at..at + 1024]).into()])
                .unwrap();
        }
        let ticks = |cache: &PageCache| -> Vec<u64> {
            let slot = |&(_, s): &(u64, u32)| cache.slots[s as usize].last_use;
            cache.index.iter().map(slot).collect()
        };
        let before = ticks(&cache);
        // The miss of page 8 evicts page 2: pages 0..4 go out as one
        // request, and page 4, dirty and adjacent, lies in the next row.
        cache
            .write_runs(&file, &mut led, &[(8192, 8)], &[(&[9u8; 8]).into()])
            .unwrap();
        let io = cfg.profile.snapshot().server_totals();
        assert_eq!((io.requests, io.bytes_written), (4, 4096));
        let c = cfg.profile.cache_counters();
        assert_eq!((c.evictions, c.write_behind_bytes), (1, 4096));
        let pages: Vec<u64> = cache.index.iter().map(|e| e.0).collect();
        assert_eq!(pages, [0, 1, 3, 4, 5, 6, 7, 8]);
        for &(page, s) in &cache.index {
            let slot = &cache.slots[s as usize];
            assert_eq!(slot.valid, [(0, if page == 8 { 8 } else { 1024 })]);
            assert_eq!(slot.dirty.is_empty(), page < 4, "page {page}");
        }
        let mut disk = vec![0u8; 4096];
        file.peek_at(0, &mut disk);
        assert_eq!(disk, data[..4096]);
        // The neighbours kept their ticks: page 0 is the next victim, and
        // it has nothing left to write.
        let kept: Vec<u64> = before.iter().copied().filter(|&t| t != before[2]).collect();
        assert_eq!(ticks(&cache)[..7], kept[..]);
        cache
            .write_runs(&file, &mut led, &[(9216, 8)], &[(&[9u8; 8]).into()])
            .unwrap();
        assert_eq!(cache.index[0].0, 1, "page 0 went");
        let c = cfg.profile.cache_counters();
        assert_eq!((c.evictions, c.write_behind_bytes), (2, 4096));
    }

    /// A page is the platform's stripe, so a stripe of 4 GiB is refused
    /// where the cache is built, before a page's `u32` runs alias.
    #[test]
    #[should_panic(expected = "1..=u32::MAX")]
    fn a_page_too_large_for_its_run_lists_is_refused() {
        let mut cfg = SimConfig::test_small();
        cfg.stripe_size = u32::MAX as usize + 1;
        setup_on(cfg, 1 << 40);
    }
}
