//! Client-side file page cache with write-behind, sequential readahead,
//! and cross-rank coherence epochs.
//!
//! The paper's bandwidth numbers ride on GPFS's *client-side* block
//! caching: small strided accesses are absorbed by pages cached at the
//! compute node, written behind as stripe-aligned full blocks, and read
//! ahead when a sequential pattern is detected (§4's hint discussion and
//! the Fig. 6 read/write asymmetry both assume it). This module is that
//! layer for the simulated stack: a per-rank cache of fixed-size pages
//! (aligned to the PFS stripe unit by default) sitting between the MPI-IO
//! independent data path and the PFS.
//!
//! Design points:
//!
//! * **Exact byte-run tracking.** Each page keeps sorted disjoint `valid`
//!   and `dirty` byte-run lists. Writes populate pages without a read
//!   fill; flushes write back *only the dirty runs* (zero-gap neighbours
//!   coalesced). Ranks routinely share boundary pages (block boundaries
//!   are rarely page-aligned), so flushing a whole page would clobber a
//!   sibling's bytes — false sharing is survived by construction.
//! * **Write-behind.** Dirty runs accumulate and flush on LRU eviction,
//!   `sync`, close, and collective entry; adjacent dirty runs from many
//!   small writes coalesce into single page-spanning PFS requests.
//! * **Readahead.** Two byte-contiguous reads in a row mark the stream
//!   sequential; the next `readahead` absent pages are fetched with one
//!   contiguous PFS read and inserted clean.
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
//! charged to [`Phase::Cache`](hpc_sim::Phase), miss fills and flushes to
//! the disk phases, preserving the trace layer's coverage-1.0 invariant.

use std::collections::HashMap;

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{CpuModel, Span, Time, TraceCtx};
use pnetcdf_pfs::PfsFile;

use crate::error::MpioResult;
use crate::recover::{self, RetryPolicy};
use crate::view::Run;

/// A byte range within a page, half-open.
type PageRun = (u32, u32);

/// Resolved cache parameters (from the `pnc_*` hints).
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Page size in bytes (default: the PFS stripe unit).
    pub page_size: usize,
    /// Byte budget; at least one page is always kept.
    pub capacity_bytes: usize,
    /// Pages to read ahead on a sequential stream (0 disables).
    pub readahead_pages: usize,
}

impl CacheConfig {
    fn capacity_pages(&self) -> usize {
        (self.capacity_bytes / self.page_size).max(1)
    }
}

/// Virtual-time ledger for one cache operation: the caller turns the
/// per-phase totals into scoped clock advances, keeping every nanosecond
/// attributed.
#[derive(Clone, Copy, Debug)]
pub struct CacheLedger {
    now: Time,
    /// Nanoseconds of client CPU work (page memcpy) — [`hpc_sim::Phase::Cache`].
    pub cache_nanos: u64,
    /// Nanoseconds of PFS reads (miss fills, readahead) — `Phase::DiskRead`.
    pub read_nanos: u64,
    /// Nanoseconds of PFS writes (write-behind flushes) — `Phase::DiskWrite`.
    pub write_nanos: u64,
}

impl CacheLedger {
    /// Start a ledger at the rank's current virtual time.
    pub fn new(now: Time) -> CacheLedger {
        CacheLedger {
            now,
            cache_nanos: 0,
            read_nanos: 0,
            write_nanos: 0,
        }
    }

    fn cpu(&mut self, t: Time) {
        self.now += t;
        self.cache_nanos += t.as_nanos();
    }

    fn disk_read(
        &mut self,
        file: &PfsFile,
        policy: &RetryPolicy,
        offset: u64,
        buf: &mut [u8],
    ) -> MpioResult<()> {
        let done = recover::read_at(file, policy, self.now, offset, buf)?;
        self.read_nanos += done.saturating_sub(self.now).as_nanos();
        self.now = done;
        Ok(())
    }

    fn disk_write(
        &mut self,
        file: &PfsFile,
        policy: &RetryPolicy,
        offset: u64,
        data: &[u8],
    ) -> MpioResult<()> {
        let done = recover::write_at(file, policy, self.now, offset, data)?;
        self.write_nanos += done.saturating_sub(self.now).as_nanos();
        self.now = done;
        Ok(())
    }
}

/// One cached page.
struct Page {
    data: Vec<u8>,
    /// Sorted, disjoint, non-adjacent byte runs holding cached bytes.
    valid: Vec<PageRun>,
    /// Subset of `valid` not yet written back.
    dirty: Vec<PageRun>,
    /// LRU tick of the last touch.
    last_use: u64,
    /// Fetched speculatively and not yet demanded (readahead-hit counting).
    readahead: bool,
}

impl Page {
    fn new(page_size: usize) -> Page {
        Page {
            data: vec![0u8; page_size],
            valid: Vec::new(),
            dirty: Vec::new(),
            last_use: 0,
            readahead: false,
        }
    }
}

/// Insert `[lo, hi)` into a sorted disjoint run list, merging overlapping
/// and adjacent runs.
fn insert_run(list: &mut Vec<PageRun>, lo: u32, hi: u32) {
    debug_assert!(lo < hi);
    let mut out: Vec<PageRun> = Vec::with_capacity(list.len() + 1);
    let (mut lo, mut hi) = (lo, hi);
    let mut placed = false;
    for &(a, b) in list.iter() {
        if b < lo || (placed && a > hi) {
            out.push((a, b));
        } else if a > hi {
            if !placed {
                out.push((lo, hi));
                placed = true;
            }
            out.push((a, b));
        } else {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    }
    if !placed {
        out.push((lo, hi));
    }
    out.sort_unstable();
    *list = out;
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

/// The sub-ranges of `[lo, hi)` *not* covered by the run list.
fn gaps(list: &[PageRun], lo: u32, hi: u32) -> Vec<PageRun> {
    let mut out = Vec::new();
    let mut pos = lo;
    for &(a, b) in list {
        if b <= pos {
            continue;
        }
        if a >= hi {
            break;
        }
        if a > pos {
            out.push((pos, a.min(hi)));
        }
        pos = pos.max(b);
        if pos >= hi {
            break;
        }
    }
    if pos < hi {
        out.push((pos, hi));
    }
    out
}

/// The per-rank page cache for one open file.
pub struct PageCache {
    cfg: CacheConfig,
    cpu: CpuModel,
    policy: RetryPolicy,
    pages: HashMap<u64, Page>,
    tick: u64,
    /// File coherence epoch this cache last synchronized at.
    seen_epoch: u64,
    /// End offset of the previous read (sequential-stream detection).
    last_read_end: u64,
    seq_streak: u32,
}

impl PageCache {
    /// Build a cache for `file` (remembers the file's current coherence
    /// epoch as its baseline).
    pub fn new(cfg: CacheConfig, cpu: CpuModel, file: &PfsFile) -> PageCache {
        PageCache {
            cfg,
            cpu,
            policy: RetryPolicy::default(),
            pages: HashMap::new(),
            tick: 0,
            seen_epoch: file.coherence_epoch(),
            last_read_end: u64::MAX,
            seq_streak: 0,
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    fn touch(page: &mut Page, tick: &mut u64) {
        *tick += 1;
        page.last_use = *tick;
    }

    /// Split an absolute byte range into per-page pieces:
    /// `(page index, in-page lo, in-page hi)`.
    fn pieces(&self, off: u64, len: u64) -> Vec<(u64, u32, u32)> {
        let ps = self.cfg.page_size as u64;
        let mut out = Vec::new();
        let mut pos = off;
        let end = off + len;
        while pos < end {
            let page = pos / ps;
            let lo = pos - page * ps;
            let hi = (end - page * ps).min(ps);
            out.push((page, lo as u32, hi as u32));
            pos = (page + 1) * ps;
        }
        out
    }

    // ---- write path -------------------------------------------------------

    /// Write-allocate `runs`/`data` into the cache (no read fill): bytes
    /// become valid+dirty and are published at the next flush point.
    pub fn write_runs(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        runs: &[Run],
        data: &[u8],
    ) -> MpioResult<()> {
        let profile = file.profile();
        let t0 = led.now;
        let mut pos = 0usize;
        let (mut hits, mut hit_bytes, mut misses) = (0u64, 0u64, 0u64);
        for &(off, len) in runs {
            for (pidx, lo, hi) in self.pieces(off, len) {
                let take = (hi - lo) as usize;
                let ps = self.cfg.page_size;
                let mut created = false;
                let page = self.pages.entry(pidx).or_insert_with(|| {
                    created = true;
                    Page::new(ps)
                });
                if created {
                    misses += 1;
                } else {
                    hits += 1;
                    hit_bytes += take as u64;
                }
                page.data[lo as usize..hi as usize].copy_from_slice(&data[pos..pos + take]);
                insert_run(&mut page.valid, lo, hi);
                insert_run(&mut page.dirty, lo, hi);
                if page.readahead {
                    page.readahead = false;
                    profile.record_cache(|c| c.readahead_hits += 1);
                }
                Self::touch(page, &mut self.tick);
                led.cpu(self.cpu.pack(take, 1.0));
                pos += take;
            }
        }
        profile.record_cache(|c| {
            c.hits += hits;
            c.hit_bytes += hit_bytes;
            c.misses += misses;
        });
        trace_cache_span(file, "cache_write", t0, led.now, pos as u64);
        self.evict_to_capacity(file, led)?;
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
        debug_assert_eq!(crate::view::runs_total(runs), total);
        let profile = file.profile();
        let t0 = led.now;
        let mut pos = 0usize;
        for &(off, len) in runs {
            let pieces = self.pieces(off, len);
            // Fill absent coverage first, coalescing consecutive pages
            // that need disk bytes into single PFS reads.
            let mut need: Vec<u64> = Vec::new();
            for &(pidx, lo, hi) in &pieces {
                let known = self.pages.get(&pidx).map(|p| covers(&p.valid, lo, hi));
                match known {
                    Some(true) => {
                        profile.record_cache(|c| {
                            c.hits += 1;
                            c.hit_bytes += (hi - lo) as u64;
                        });
                        let page = self.pages.get_mut(&pidx).expect("checked");
                        if page.readahead {
                            page.readahead = false;
                            profile.record_cache(|c| c.readahead_hits += 1);
                        }
                    }
                    _ => {
                        profile.record_cache(|c| c.misses += 1);
                        need.push(pidx);
                    }
                }
            }
            for group in consecutive_groups(&need) {
                self.fill_pages(file, led, group, "cache_fill")?;
            }
            // Everything requested is now valid; copy out.
            for (pidx, lo, hi) in pieces {
                let take = (hi - lo) as usize;
                let page = self.pages.get_mut(&pidx).expect("filled above");
                debug_assert!(covers(&page.valid, lo, hi));
                out[pos..pos + take].copy_from_slice(&page.data[lo as usize..hi as usize]);
                Self::touch(page, &mut self.tick);
                led.cpu(self.cpu.pack(take, 1.0));
                pos += take;
            }
        }
        // Sequential detection + readahead on the whole request.
        if let (Some(&(first, _)), Some(&(last_off, last_len))) = (runs.first(), runs.last()) {
            let end = last_off + last_len;
            if first == self.last_read_end {
                self.seq_streak += 1;
            } else {
                self.seq_streak = 1;
            }
            self.last_read_end = end;
            if self.seq_streak >= 2 && self.cfg.readahead_pages > 0 {
                self.readahead(file, led, end)?;
            }
        }
        trace_cache_span(file, "cache_read", t0, led.now, total);
        self.evict_to_capacity(file, led)
    }

    /// Fill the invalid portions of consecutive pages `group` with one
    /// contiguous PFS read (clipped at EOF so a tail page does not charge
    /// for bytes past the end of the file).
    fn fill_pages(
        &mut self,
        file: &PfsFile,
        led: &mut CacheLedger,
        group: &[u64],
        span_name: &'static str,
    ) -> MpioResult<()> {
        let (first, last) = (group[0], group[group.len() - 1]);
        let ps = self.cfg.page_size as u64;
        let lo = first * ps;
        let hi = ((last + 1) * ps).min(file.size().max(lo + 1));
        let mut buf = vec![0u8; (hi - lo) as usize];
        let t0 = led.now;
        led.disk_read(file, &self.policy, lo, &mut buf)?;
        trace_cache_span(file, span_name, t0, led.now, hi - lo);
        for &pidx in group {
            let ps32 = self.cfg.page_size as u32;
            let page_lo = pidx * ps;
            let avail = (hi.saturating_sub(page_lo)).min(ps) as u32;
            let ps_usize = self.cfg.page_size;
            let page = self
                .pages
                .entry(pidx)
                .or_insert_with(|| Page::new(ps_usize));
            // Copy disk bytes only into gaps: cached dirty/valid bytes are
            // newer than the disk copy and must win.
            for (glo, ghi) in gaps(&page.valid, 0, ps32) {
                let ghi = ghi.min(avail);
                if glo >= ghi {
                    continue;
                }
                let src = (page_lo - lo) as usize + glo as usize;
                page.data[glo as usize..ghi as usize]
                    .copy_from_slice(&buf[src..src + (ghi - glo) as usize]);
            }
            // The whole page is now a faithful view (bytes past EOF are
            // zero, which is what the PFS reads there too).
            page.valid = vec![(0, ps32)];
            Self::touch(page, &mut self.tick);
        }
        Ok(())
    }

    /// Prefetch up to `readahead_pages` absent pages following `end`.
    fn readahead(&mut self, file: &PfsFile, led: &mut CacheLedger, end: u64) -> MpioResult<()> {
        let ps = self.cfg.page_size as u64;
        let size = file.size();
        let first = end.div_ceil(ps);
        let mut want: Vec<u64> = Vec::new();
        for pidx in first..first + self.cfg.readahead_pages as u64 {
            if pidx * ps >= size {
                break;
            }
            if !self.pages.contains_key(&pidx) {
                want.push(pidx);
            }
        }
        if want.is_empty() {
            return Ok(());
        }
        let profile = file.profile();
        for group in consecutive_groups(&want) {
            self.fill_pages(file, led, group, "readahead_fill")?;
            for &pidx in group {
                if let Some(p) = self.pages.get_mut(&pidx) {
                    p.readahead = true;
                }
            }
            profile.record_cache(|c| c.readahead_issued += group.len() as u64);
        }
        self.evict_to_capacity(file, led)?;
        Ok(())
    }

    // ---- write-behind / eviction ------------------------------------------

    /// Flush every dirty run to the PFS (adjacent runs coalesced across
    /// page boundaries into single requests). Pages stay cached and clean.
    /// Returns the bytes written.
    pub fn flush(&mut self, file: &PfsFile, led: &mut CacheLedger) -> MpioResult<u64> {
        let ps = self.cfg.page_size as u64;
        // Absolute dirty runs, sorted.
        let mut dirty: Vec<(u64, u64)> = Vec::new(); // (abs lo, abs hi)
        let mut idxs: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, p)| !p.dirty.is_empty())
            .map(|(&i, _)| i)
            .collect();
        idxs.sort_unstable();
        for &i in &idxs {
            for &(lo, hi) in &self.pages[&i].dirty {
                dirty.push((i * ps + lo as u64, i * ps + hi as u64));
            }
        }
        if dirty.is_empty() {
            return Ok(0);
        }
        // Coalesce zero-gap neighbours (many small writes -> page-spanning
        // contiguous flushes).
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (lo, hi) in dirty {
            match merged.last_mut() {
                Some(m) if m.1 == lo => m.1 = hi,
                _ => merged.push((lo, hi)),
            }
        }
        let mut bytes = 0u64;
        let t0 = led.now;
        for (lo, hi) in merged {
            let mut buf = vec![0u8; (hi - lo) as usize];
            for (pidx, plo, phi) in self.pieces(lo, hi - lo) {
                let page = &self.pages[&pidx];
                let dst = (pidx * ps + plo as u64 - lo) as usize;
                buf[dst..dst + (phi - plo) as usize]
                    .copy_from_slice(&page.data[plo as usize..phi as usize]);
            }
            led.disk_write(file, &self.policy, lo, &buf)?;
            bytes += buf.len() as u64;
        }
        trace_cache_span(file, "write_behind", t0, led.now, bytes);
        for &i in &idxs {
            if let Some(p) = self.pages.get_mut(&i) {
                p.dirty.clear();
            }
        }
        file.profile().record_cache(|c| {
            c.write_behind_flushes += 1;
            c.write_behind_bytes += bytes;
        });
        Ok(bytes)
    }

    /// Evict least-recently-used pages until the page count fits the byte
    /// budget; a dirty victim is written behind (its runs only).
    fn evict_to_capacity(&mut self, file: &PfsFile, led: &mut CacheLedger) -> MpioResult<()> {
        let cap = self.cfg.capacity_pages();
        let ps = self.cfg.page_size as u64;
        let mut published = false;
        while self.pages.len() > cap {
            let victim = self
                .pages
                .iter()
                .min_by_key(|(&i, p)| (p.last_use, i))
                .map(|(&i, _)| i)
                .expect("non-empty");
            let page = self.pages.remove(&victim).expect("chosen from keys");
            if !page.dirty.is_empty() {
                let mut bytes = 0u64;
                let t0 = led.now;
                let mut runs = page.dirty.clone();
                // Coalesce adjacent dirty runs within the page.
                runs.dedup_by(|b, a| {
                    if a.1 == b.0 {
                        a.1 = b.1;
                        true
                    } else {
                        false
                    }
                });
                for (lo, hi) in runs {
                    led.disk_write(
                        file,
                        &self.policy,
                        victim * ps + lo as u64,
                        &page.data[lo as usize..hi as usize],
                    )?;
                    bytes += (hi - lo) as u64;
                }
                file.profile().record_cache(|c| {
                    c.write_behind_flushes += 1;
                    c.write_behind_bytes += bytes;
                });
                trace_cache_span(file, "evict_flush", t0, led.now, bytes);
                published = true;
            }
            file.profile().record_cache(|c| c.evictions += 1);
        }
        if published {
            // Evicted dirty bytes are now on disk: other caches must notice
            // at their next synchronization point.
            file.bump_coherence_epoch();
        }
        Ok(())
    }

    // ---- coherence --------------------------------------------------------

    /// Pre-synchronization half of the coherence protocol: publish dirty
    /// bytes (write-behind) and advance the file epoch if anything was
    /// published. Call *before* the collective rendezvous.
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

    /// Drop every clean page and the clean fraction of dirty pages. Dirty
    /// runs (this rank's own unpublished writes) always survive.
    fn invalidate_clean(&mut self, file: &PfsFile) {
        // Every cached page loses its clean bytes: clean pages drop
        // entirely, dirty pages shrink their valid set to the dirty runs.
        let touched = self.pages.len() as u64;
        self.pages.retain(|_, p| !p.dirty.is_empty());
        for p in self.pages.values_mut() {
            p.valid = p.dirty.clone();
            p.readahead = false;
        }
        file.profile().record_cache(|c| c.invalidations += touched);
    }

    /// Number of cached pages (diagnostics/tests).
    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Split a sorted list of page indices into maximal consecutive groups.
fn consecutive_groups(idxs: &[u64]) -> Vec<&[u64]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for i in 1..=idxs.len() {
        if i == idxs.len() || idxs[i] != idxs[i - 1] + 1 {
            out.push(&idxs[start..i]);
            start = i;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::SimConfig;
    use pnetcdf_pfs::{Pfs, StorageMode};

    fn setup(capacity: usize, page: usize) -> (PageCache, PfsFile, SimConfig) {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        let file = Pfs::new(cfg.clone(), StorageMode::Full).create("c");
        let cache = PageCache::new(
            CacheConfig {
                page_size: page,
                capacity_bytes: capacity,
                readahead_pages: 2,
            },
            cfg.cpu,
            &file,
        );
        (cache, file, cfg)
    }

    /// `read_runs` into a fresh buffer of the runs' size.
    fn read_vec(
        cache: &mut PageCache,
        file: &PfsFile,
        led: &mut CacheLedger,
        runs: &[Run],
    ) -> Vec<u8> {
        let mut out = vec![0xEEu8; crate::view::runs_total(runs) as usize];
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
        assert_eq!(gaps(&l, 0, 50), vec![(5, 10), (40, 50)]);
        assert_eq!(gaps(&l, 12, 30), Vec::<PageRun>::new());
    }

    #[test]
    fn write_then_read_hits_without_disk() {
        let (mut cache, file, cfg) = setup(1 << 20, 1024);
        let mut led = CacheLedger::new(Time::ZERO);
        let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        cache
            .write_runs(&file, &mut led, &[(100, 3000)], &data)
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
        let (mut cache, file, cfg) = setup(1 << 20, 1024);
        let mut led = CacheLedger::new(Time::ZERO);
        // 64 back-to-back 128-byte writes = 8 KiB contiguous.
        for i in 0..64u64 {
            cache
                .write_runs(&file, &mut led, &[(i * 128, 128)], &[7u8; 128])
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
        let (mut cache, file, _cfg) = setup(1 << 20, 1024);
        // Another writer (rank B) put bytes on disk in the same page.
        file.write_at(Time::ZERO, 0, &[9u8; 512]);
        let mut led = CacheLedger::new(Time::ZERO);
        // This rank dirties only [512, 1024) of page 0.
        cache
            .write_runs(&file, &mut led, &[(512, 512)], &[5u8; 512])
            .unwrap();
        cache.flush(&file, &mut led).unwrap();
        let mut out = vec![0u8; 1024];
        file.peek_at(0, &mut out);
        assert_eq!(&out[..512], &[9u8; 512][..], "foreign bytes must survive");
        assert_eq!(&out[512..], &[5u8; 512][..]);
    }

    #[test]
    fn read_miss_fills_one_page_then_hits() {
        let (mut cache, file, cfg) = setup(1 << 20, 1024);
        let data: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        file.write_at(Time::ZERO, 0, &data);
        let mut led = CacheLedger::new(Time::from_millis(1));
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
        let (mut cache, file, cfg) = setup(2048, 1024); // 2 pages
        let mut led = CacheLedger::new(Time::ZERO);
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        for i in 0..16u64 {
            cache
                .write_runs(
                    &file,
                    &mut led,
                    &[(i * 512, 512)],
                    &data[(i * 512) as usize..(i * 512 + 512) as usize],
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
        let (mut cache, file, cfg) = setup(1 << 20, 1024);
        let data: Vec<u8> = (0..16384u32).map(|i| (i % 239) as u8).collect();
        file.write_at(Time::ZERO, 0, &data);
        let mut led = CacheLedger::new(Time::from_millis(1));
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

    #[test]
    fn epoch_invalidation_drops_clean_keeps_dirty() {
        let (mut cache, file, _cfg) = setup(1 << 20, 1024);
        file.write_at(Time::ZERO, 0, &[1u8; 1024]);
        let mut led = CacheLedger::new(Time::from_millis(1));
        // Cache page 0 clean, dirty half of page 1.
        read_vec(&mut cache, &file, &mut led, &[(0, 100)]);
        cache
            .write_runs(&file, &mut led, &[(1024 + 256, 128)], &[8u8; 128])
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
        let (mut cache, file, _cfg) = setup(1 << 20, 1024);
        let e0 = file.coherence_epoch();
        let mut led = CacheLedger::new(Time::ZERO);
        cache
            .write_runs(&file, &mut led, &[(0, 64)], &[3u8; 64])
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

    #[test]
    fn ledger_time_is_fully_attributed() {
        let (mut cache, file, _cfg) = setup(1 << 20, 1024);
        let start = Time::from_millis(3);
        let mut led = CacheLedger::new(start);
        cache
            .write_runs(&file, &mut led, &[(0, 2048)], &[1u8; 2048])
            .unwrap();
        read_vec(&mut cache, &file, &mut led, &[(4096, 100)]);
        cache.flush(&file, &mut led).unwrap();
        assert_eq!(
            led.now.as_nanos(),
            start.as_nanos() + led.cache_nanos + led.read_nanos + led.write_nanos,
            "every nanosecond of cache work must land in exactly one bucket"
        );
    }
}
