//! The shared profile: counters, phase timers, scopes, snapshots.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json::Json;
use crate::phase::{CollKind, Phase};

/// Lock a profile mutex, recovering from poisoning instead of panicking.
///
/// Invariant: every critical section in this module performs only in-place
/// arithmetic or container growth, so even if the owning rank thread
/// panicked mid-update the data stays structurally valid — at worst one
/// partial increment is lost. Recovering here means a malformed profile
/// can never cascade a panic into the surviving ranks of a run.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of power-of-two size-histogram buckets. Bucket `i` counts
/// requests with `2^(i-1) < size <= 2^i` (bucket 0 counts size 0 and 1);
/// the last bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

thread_local! {
    static SCOPE: std::cell::Cell<Option<Phase>> = const { std::cell::Cell::new(None) };
}

/// Ambient phase override for the current thread (= the current simulated
/// rank, since the MPI runtime is ranks-as-threads).
///
/// The *outermost* scope wins: entering a scope while one is already active
/// is a no-op, so a high layer (core charging header I/O to
/// [`Phase::Metadata`]) keeps its attribution even when a lower layer
/// (mpio defaulting file writes to [`Phase::DiskWrite`]) opens its own
/// scope on the way down.
pub struct PhaseScope {
    installed: bool,
}

impl PhaseScope {
    /// Enter `phase` as the ambient phase if no scope is active.
    pub fn enter(phase: Phase) -> PhaseScope {
        SCOPE.with(|s| {
            if s.get().is_none() {
                s.set(Some(phase));
                PhaseScope { installed: true }
            } else {
                PhaseScope { installed: false }
            }
        })
    }

    /// The ambient phase, or `default` when no scope is active.
    pub fn current(default: Phase) -> Phase {
        SCOPE.with(|s| s.get()).unwrap_or(default)
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        if self.installed {
            SCOPE.with(|s| s.set(None));
        }
    }
}

#[derive(Default)]
struct OpCell {
    count: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

/// Per-server PFS counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    pub requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub seeks: u64,
    /// Sum of absolute distances (bytes) between the end of one request
    /// and the start of the next on the same file.
    pub seek_distance: u64,
    /// Nanoseconds the server's NIC stage spent transferring payloads.
    pub nic_busy_nanos: u64,
    /// Nanoseconds the server's disk stage spent servicing requests.
    pub disk_busy_nanos: u64,
    /// Disk busy time that overlapped NIC transfers — what the
    /// dual-resource service engine hides relative to a serial server.
    pub overlap_nanos: u64,
    /// Time requests stalled at the full bounded admission queue.
    pub queue_stall_nanos: u64,
    /// Wait time (queue, NIC, disk) spent behind *other files'* requests —
    /// cross-file contention on a shared service cluster.
    pub cross_file_stall_nanos: u64,
    /// Deepest admission-queue occupancy observed.
    pub max_queue_depth: u64,
}

/// Per-request stage breakdown of the dual-resource service engine,
/// attached to [`Profile::record_io_stages`]. Raw nanoseconds so this
/// crate stays independent of the simulator's `Time` type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStages {
    pub nic_busy_nanos: u64,
    pub disk_busy_nanos: u64,
    pub overlap_nanos: u64,
    pub queue_stall_nanos: u64,
    /// Wait time attributable to other files' traffic (see
    /// [`ServerCounters::cross_file_stall_nanos`]).
    pub cross_stall_nanos: u64,
    /// Admission-queue depth observed by this request.
    pub depth: u64,
}

/// Data-sieving amplification counters, one direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SieveCounters {
    /// Bytes moved to/from the file system (whole sieve windows).
    pub transferred: u64,
    /// Bytes the application actually asked for.
    pub useful: u64,
}

/// Two-phase collective-I/O engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwophaseCounters {
    pub collective_writes: u64,
    pub collective_reads: u64,
    /// Aggregator count chosen by the most recent collective (the
    /// `cb_nodes` hint, or the dynamic default derived from `io_servers`
    /// and request volume). Recorded so sweeps can audit the choice.
    pub cb_nodes: u64,
    /// Non-empty file domains assigned to aggregators.
    pub file_domains: u64,
    /// Collective-buffer windows processed by aggregators.
    pub windows: u64,
    /// Windows with holes: the aggregator had to read-modify-write.
    pub rmw_windows: u64,
    /// Bytes of request metadata + data shipped in the exchange phases.
    pub exchange_wire_bytes: u64,
    /// Exchange/disk rounds executed by the pipelined engine
    /// (`pnc_cb_pipeline`); serial collectives leave this at zero.
    pub pipelined_rounds: u64,
    /// Virtual nanoseconds the pipelined engine saved by overlapping
    /// per-round exchange with the previous round's disk access, relative
    /// to running the same rounds back to back.
    pub overlap_saved_nanos: u64,
}

/// Fault-injection and recovery counters (PFS faults and the MPI-IO
/// retry/backoff layer that hides them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Total faults the PFS servers injected (all kinds).
    pub faults_injected: u64,
    /// Transient EIO faults injected.
    pub transient: u64,
    /// Short (partial byte count) reads/writes injected.
    pub short: u64,
    /// Latency stalls injected (charged to virtual time, not errors).
    pub stalls: u64,
    /// Requests refused because the server was crashed.
    pub crashed: u64,
    /// Recovery-layer retries after a transient or crash fault.
    pub retries: u64,
    /// Virtual nanoseconds spent in exponential backoff before retries.
    pub backoff_nanos: u64,
    /// Short-I/O completion resumptions at the partial offset.
    pub short_completions: u64,
    /// Retry budgets exhausted (`MpioError::Exhausted` surfaced).
    pub exhausted: u64,
    /// Collective error agreements that propagated a fault to all ranks.
    pub agreed_errors: u64,
}

/// Parity/failover counters: what the redundancy layer did after the ranks
/// agreed a server was down (degraded reads, redirected writes, parity
/// maintenance, rebuild).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailoverCounters {
    /// Read requests that had chunks reconstructed from data + parity.
    pub degraded_reads: u64,
    /// Bytes XOR-reconstructed from surviving servers instead of read from
    /// the down server.
    pub reconstructed_bytes: u64,
    /// Write requests with chunks redirected away from the down server.
    pub redirected_writes: u64,
    /// Bytes destined to the down server that were covered by parity
    /// instead of stored there.
    pub redirected_bytes: u64,
    /// Parity rows recomputed and written after data writes.
    pub parity_updates: u64,
    /// Parity bytes written to surviving servers.
    pub parity_bytes: u64,
    /// Server-down epochs the ranks collectively agreed on.
    pub epochs: u64,
    /// Online rebuilds completed after a server restart.
    pub rebuilds: u64,
    /// Bytes replayed onto the restarted server from the parity log.
    pub rebuilt_bytes: u64,
    /// Virtual nanoseconds the rebuild replay occupied.
    pub rebuild_nanos: u64,
}

/// Client page-cache counters (hits, misses, write-behind, readahead,
/// coherence invalidations), summed over all ranks of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Page lookups fully served from cached bytes.
    pub hits: u64,
    /// Bytes served from cached pages without touching the PFS.
    pub hit_bytes: u64,
    /// Page lookups that needed a disk fill (or created a fresh page).
    pub misses: u64,
    /// Pages evicted by the LRU policy to stay under the byte budget.
    pub evictions: u64,
    /// Write-behind flush rounds (eviction, sync, close, collective entry).
    pub write_behind_flushes: u64,
    /// Dirty bytes pushed to the PFS by write-behind flushes.
    pub write_behind_bytes: u64,
    /// Pages fetched speculatively by sequential-detection readahead.
    pub readahead_issued: u64,
    /// Readahead pages later hit by a demand read.
    pub readahead_hits: u64,
    /// Pages (or clean page fractions) dropped by the coherence protocol
    /// after another rank's epoch advanced.
    pub invalidations: u64,
}

/// Zero-copy byte-path counters: how often the memoized view flattener
/// hit, how many bytes moved through the fused gather+swap kernels, how
/// many staging copies the borrow fast paths elided, and how much of the
/// collective exchange ran on lent buffers. Summed over all ranks of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BytePathCounters {
    /// View-flattening memoization hits (run list reused).
    pub flatten_hits: u64,
    /// View-flattening misses (datatype walked and run list built).
    pub flatten_misses: u64,
    /// Bytes produced by fused gather+byteswap packs (native → external)
    /// — each of these bytes was touched once instead of copied then
    /// swapped.
    pub fused_pack_bytes: u64,
    /// Bytes consumed by fused byteswap+scatter unpacks (external →
    /// native).
    pub fused_unpack_bytes: u64,
    /// Whole staging copies skipped by borrowing a buffer where it lies
    /// (every collective flush of a nonblocking queue, whose staged buffers
    /// are lent unmerged; a contiguous MPI-IO write).
    pub copies_elided: u64,
    /// Bytes covered by those elided copies.
    pub borrowed_bytes: u64,
    /// Payload bytes lent through a collective rendezvous instead of being
    /// copied into an exchange parcel: write payloads read, and read
    /// destinations filled, where the owning rank keeps them.
    pub exchange_borrowed_bytes: u64,
    /// Two-phase windows served from the collective buffer an earlier
    /// window on the same open file — of this collective or of an earlier
    /// one — had already allocated.
    pub collbuf_reuses: u64,
}

struct Inner {
    enabled: AtomicBool,
    /// Per-rank, per-phase simulated nanoseconds. Grown on demand.
    phase_nanos: Mutex<Vec<[u64; Phase::COUNT]>>,
    /// Count / bytes / simulated latency per collective kind.
    collectives: [OpCell; CollKind::COUNT],
    /// Power-of-two size histograms.
    io_write_hist: [AtomicU64; HIST_BUCKETS],
    io_read_hist: [AtomicU64; HIST_BUCKETS],
    msg_hist: [AtomicU64; HIST_BUCKETS],
    servers: Mutex<Vec<ServerCounters>>,
    sieve_read: Mutex<SieveCounters>,
    sieve_write: Mutex<SieveCounters>,
    twophase: Mutex<TwophaseCounters>,
    faults: Mutex<FaultCounters>,
    failover: Mutex<FailoverCounters>,
    cache: Mutex<CacheCounters>,
    bytepath: Mutex<BytePathCounters>,
    /// Unknown or malformed `pnc_*`/MPI-IO hints rejected at file open.
    hints_rejected: AtomicU64,
    /// Named report fragments attached by higher layers (dataset roll-ups).
    extras: Mutex<Vec<(String, Json)>>,
}

/// The shared profile. Cloning is cheap (one `Arc`); every layer of one
/// simulation sees the same instance because it rides inside
/// `hpc_sim::SimConfig`. Disabled by default: every recording method is a
/// single relaxed atomic load followed by an early return.
#[derive(Clone)]
pub struct Profile {
    inner: Arc<Inner>,
}

impl Default for Profile {
    fn default() -> Profile {
        Profile::new()
    }
}

impl std::fmt::Debug for Profile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profile")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profile {
    /// New disabled profile.
    pub fn new() -> Profile {
        Profile {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(false),
                phase_nanos: Mutex::new(Vec::new()),
                collectives: Default::default(),
                io_write_hist: [0u64; HIST_BUCKETS].map(AtomicU64::new),
                io_read_hist: [0u64; HIST_BUCKETS].map(AtomicU64::new),
                msg_hist: [0u64; HIST_BUCKETS].map(AtomicU64::new),
                servers: Mutex::new(Vec::new()),
                sieve_read: Mutex::new(SieveCounters::default()),
                sieve_write: Mutex::new(SieveCounters::default()),
                twophase: Mutex::new(TwophaseCounters::default()),
                faults: Mutex::new(FaultCounters::default()),
                failover: Mutex::new(FailoverCounters::default()),
                cache: Mutex::new(CacheCounters::default()),
                bytepath: Mutex::new(BytePathCounters::default()),
                hints_rejected: AtomicU64::new(0),
                extras: Mutex::new(Vec::new()),
            }),
        }
    }

    /// New profile with recording on.
    pub fn enabled() -> Profile {
        let p = Profile::new();
        p.set_enabled(true);
        p
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on. This is the fast-path guard.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Whether two profiles share the same storage.
    pub fn same_as(&self, other: &Profile) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Charge `nanos` of simulated time on `rank` to `phase`.
    pub fn record_phase(&self, rank: usize, phase: Phase, nanos: u64) {
        if !self.is_enabled() || nanos == 0 {
            return;
        }
        let mut ranks = lock(&self.inner.phase_nanos);
        if ranks.len() <= rank {
            ranks.resize(rank + 1, [0; Phase::COUNT]);
        }
        ranks[rank][phase.index()] += nanos;
    }

    /// Charge `nanos` on `rank` to the ambient [`PhaseScope`], falling back
    /// to `default` when no scope is active. This is what generic
    /// primitives (`Comm::advance`) call so every local clock advance gets
    /// attributed without editing each call site.
    pub fn record_scoped(&self, rank: usize, default: Phase, nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record_phase(rank, PhaseScope::current(default), nanos);
    }

    /// Record one predefined collective: participant count is irrelevant;
    /// `bytes` is the total payload moved, `nanos` its simulated cost.
    pub fn record_collective(&self, kind: CollKind, bytes: u64, nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        let cell = &self.inner.collectives[kind.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        cell.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record a point-to-point message size.
    pub fn record_msg_size(&self, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.msg_hist[bucket(bytes)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request serviced by PFS server `server`.
    pub fn record_io(&self, server: usize, bytes: u64, read: bool, seeked: bool, distance: u64) {
        self.record_io_stages(server, bytes, read, seeked, distance, IoStages::default());
    }

    /// Record one request serviced by PFS server `server`, including the
    /// dual-resource stage breakdown.
    pub fn record_io_stages(
        &self,
        server: usize,
        bytes: u64,
        read: bool,
        seeked: bool,
        distance: u64,
        stages: IoStages,
    ) {
        if !self.is_enabled() {
            return;
        }
        let hist = if read {
            &self.inner.io_read_hist
        } else {
            &self.inner.io_write_hist
        };
        hist[bucket(bytes)].fetch_add(1, Ordering::Relaxed);
        let mut servers = lock(&self.inner.servers);
        if servers.len() <= server {
            servers.resize(server + 1, ServerCounters::default());
        }
        let s = &mut servers[server];
        s.requests += 1;
        if read {
            s.bytes_read += bytes;
        } else {
            s.bytes_written += bytes;
        }
        if seeked {
            s.seeks += 1;
            s.seek_distance += distance;
        }
        s.nic_busy_nanos += stages.nic_busy_nanos;
        s.disk_busy_nanos += stages.disk_busy_nanos;
        s.overlap_nanos += stages.overlap_nanos;
        s.queue_stall_nanos += stages.queue_stall_nanos;
        s.cross_file_stall_nanos += stages.cross_stall_nanos;
        s.max_queue_depth = s.max_queue_depth.max(stages.depth);
    }

    /// Record sieving amplification: one window moved `transferred` bytes
    /// of which `useful` were requested by the application.
    pub fn record_sieve(&self, read: bool, transferred: u64, useful: u64) {
        if !self.is_enabled() {
            return;
        }
        let cell = if read {
            &self.inner.sieve_read
        } else {
            &self.inner.sieve_write
        };
        let mut c = lock(cell);
        c.transferred += transferred;
        c.useful += useful;
    }

    /// Update the two-phase engine counters.
    pub fn record_twophase(&self, f: impl FnOnce(&mut TwophaseCounters)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut lock(&self.inner.twophase));
    }

    /// Copy of the two-phase engine counters (tests and smoke assertions
    /// read these directly).
    pub fn twophase_counters(&self) -> TwophaseCounters {
        *lock(&self.inner.twophase)
    }

    /// Update the fault-injection/recovery counters.
    pub fn record_fault(&self, f: impl FnOnce(&mut FaultCounters)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut lock(&self.inner.faults));
    }

    /// Copy of the fault-injection/recovery counters (tests and smoke
    /// assertions read these directly).
    pub fn fault_counters(&self) -> FaultCounters {
        *lock(&self.inner.faults)
    }

    /// Update the parity/failover counters.
    pub fn record_failover(&self, f: impl FnOnce(&mut FailoverCounters)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut lock(&self.inner.failover));
    }

    /// Copy of the parity/failover counters (tests and smoke assertions
    /// read these directly).
    pub fn failover_counters(&self) -> FailoverCounters {
        *lock(&self.inner.failover)
    }

    /// Update the client page-cache counters.
    pub fn record_cache(&self, f: impl FnOnce(&mut CacheCounters)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut lock(&self.inner.cache));
    }

    /// Copy of the client page-cache counters (tests and smoke assertions
    /// read these directly).
    pub fn cache_counters(&self) -> CacheCounters {
        *lock(&self.inner.cache)
    }

    /// Update the zero-copy byte-path counters.
    pub fn record_bytepath(&self, f: impl FnOnce(&mut BytePathCounters)) {
        if !self.is_enabled() {
            return;
        }
        f(&mut lock(&self.inner.bytepath));
    }

    /// Copy of the byte-path counters (tests and smoke assertions read
    /// these directly).
    pub fn bytepath_counters(&self) -> BytePathCounters {
        *lock(&self.inner.bytepath)
    }

    /// Count one rejected (unknown or malformed) hint key/value observed
    /// at file open. Counted even while profiling is off: a misspelled
    /// hint should be discoverable without enabling the full profile.
    pub fn record_hint_rejected(&self) {
        self.inner.hints_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Hints rejected so far.
    pub fn hints_rejected(&self) -> u64 {
        self.inner.hints_rejected.load(Ordering::Relaxed)
    }

    /// Attach a named report fragment (e.g. a dataset roll-up at close).
    /// Replaces an existing fragment with the same name.
    pub fn attach_extra(&self, name: &str, value: Json) {
        if !self.is_enabled() {
            return;
        }
        let mut extras = lock(&self.inner.extras);
        if let Some(e) = extras.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            extras.push((name.to_string(), value));
        }
    }

    /// Copy out all counters.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            enabled: self.is_enabled(),
            phase_nanos: lock(&self.inner.phase_nanos).clone(),
            collectives: std::array::from_fn(|i| {
                let c = &self.inner.collectives[i];
                (
                    c.count.load(Ordering::Relaxed),
                    c.bytes.load(Ordering::Relaxed),
                    c.nanos.load(Ordering::Relaxed),
                )
            }),
            io_write_hist: std::array::from_fn(|i| {
                self.inner.io_write_hist[i].load(Ordering::Relaxed)
            }),
            io_read_hist: std::array::from_fn(|i| {
                self.inner.io_read_hist[i].load(Ordering::Relaxed)
            }),
            msg_hist: std::array::from_fn(|i| self.inner.msg_hist[i].load(Ordering::Relaxed)),
            servers: lock(&self.inner.servers).clone(),
            sieve_read: *lock(&self.inner.sieve_read),
            sieve_write: *lock(&self.inner.sieve_write),
            twophase: *lock(&self.inner.twophase),
            faults: *lock(&self.inner.faults),
            failover: *lock(&self.inner.failover),
            cache: *lock(&self.inner.cache),
            bytepath: *lock(&self.inner.bytepath),
            hints_rejected: self.inner.hints_rejected.load(Ordering::Relaxed),
            extras: lock(&self.inner.extras).clone(),
        }
    }

    /// Zero every counter, keeping the enabled flag. Benchmarks call this
    /// between configurations.
    pub fn reset(&self) {
        lock(&self.inner.phase_nanos).clear();
        for c in &self.inner.collectives {
            c.count.store(0, Ordering::Relaxed);
            c.bytes.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
        for h in [
            &self.inner.io_write_hist,
            &self.inner.io_read_hist,
            &self.inner.msg_hist,
        ] {
            for b in h.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
        lock(&self.inner.servers).clear();
        *lock(&self.inner.sieve_read) = SieveCounters::default();
        *lock(&self.inner.sieve_write) = SieveCounters::default();
        *lock(&self.inner.twophase) = TwophaseCounters::default();
        *lock(&self.inner.faults) = FaultCounters::default();
        *lock(&self.inner.failover) = FailoverCounters::default();
        *lock(&self.inner.cache) = CacheCounters::default();
        *lock(&self.inner.bytepath) = BytePathCounters::default();
        self.inner.hints_rejected.store(0, Ordering::Relaxed);
        lock(&self.inner.extras).clear();
    }
}

/// Histogram bucket for a request size: bucket `i` holds
/// `2^(i-1) < size <= 2^i` (0 and 1 share bucket 0).
pub fn bucket(size: u64) -> usize {
    if size <= 1 {
        0
    } else {
        let b = 64 - (size - 1).leading_zeros() as usize;
        b.min(HIST_BUCKETS - 1)
    }
}

/// A point-in-time copy of every counter in a [`Profile`].
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    pub enabled: bool,
    /// `[rank][phase] -> simulated nanoseconds`.
    pub phase_nanos: Vec<[u64; Phase::COUNT]>,
    /// `(count, bytes, nanos)` per [`CollKind`].
    pub collectives: [(u64, u64, u64); CollKind::COUNT],
    pub io_write_hist: [u64; HIST_BUCKETS],
    pub io_read_hist: [u64; HIST_BUCKETS],
    pub msg_hist: [u64; HIST_BUCKETS],
    pub servers: Vec<ServerCounters>,
    pub sieve_read: SieveCounters,
    pub sieve_write: SieveCounters,
    pub twophase: TwophaseCounters,
    pub faults: FaultCounters,
    pub failover: FailoverCounters,
    pub cache: CacheCounters,
    pub bytepath: BytePathCounters,
    pub hints_rejected: u64,
    pub extras: Vec<(String, Json)>,
}

impl ProfileSnapshot {
    /// Total simulated nanoseconds attributed on `rank`.
    pub fn rank_total(&self, rank: usize) -> u64 {
        self.phase_nanos
            .get(rank)
            .map(|p| p.iter().sum())
            .unwrap_or(0)
    }

    /// The rank with the largest attributed time — the critical rank whose
    /// phase breakdown explains the makespan.
    pub fn critical_rank(&self) -> usize {
        (0..self.phase_nanos.len())
            .max_by_key(|&r| self.rank_total(r))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let p = Profile::new();
        p.record_phase(0, Phase::Compute, 100);
        p.record_collective(CollKind::Barrier, 0, 10);
        p.record_io(0, 64, false, true, 5);
        let s = p.snapshot();
        assert!(s.phase_nanos.is_empty());
        assert_eq!(s.collectives[CollKind::Barrier.index()], (0, 0, 0));
        assert!(s.servers.is_empty());
    }

    #[test]
    fn phase_accounting_sums_per_rank() {
        let p = Profile::enabled();
        p.record_phase(1, Phase::DiskWrite, 30);
        p.record_phase(1, Phase::Wait, 20);
        p.record_phase(0, Phase::Compute, 5);
        let s = p.snapshot();
        assert_eq!(s.rank_total(1), 50);
        assert_eq!(s.rank_total(0), 5);
        assert_eq!(s.critical_rank(), 1);
    }

    #[test]
    fn scopes_are_outermost_wins() {
        let p = Profile::enabled();
        {
            let _outer = PhaseScope::enter(Phase::Metadata);
            {
                let _inner = PhaseScope::enter(Phase::DiskWrite);
                p.record_scoped(0, Phase::Compute, 7);
            }
            p.record_scoped(0, Phase::Compute, 3);
        }
        p.record_scoped(0, Phase::Compute, 1);
        let s = p.snapshot();
        assert_eq!(s.phase_nanos[0][Phase::Metadata.index()], 10);
        assert_eq!(s.phase_nanos[0][Phase::Compute.index()], 1);
        assert_eq!(s.phase_nanos[0][Phase::DiskWrite.index()], 0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 0);
        assert_eq!(bucket(2), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 2);
        assert_eq!(bucket(1024), 10);
        assert_eq!(bucket(1025), 11);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let p = Profile::enabled();
        p.record_phase(0, Phase::Compute, 9);
        p.record_io(2, 128, true, false, 0);
        p.reset();
        let s = p.snapshot();
        assert!(s.enabled);
        assert!(s.phase_nanos.is_empty());
        assert!(s.servers.is_empty());
    }

    #[test]
    fn server_counters_accumulate() {
        let p = Profile::enabled();
        p.record_io(1, 100, false, true, 40);
        p.record_io(1, 50, true, false, 0);
        let s = p.snapshot();
        assert_eq!(s.servers.len(), 2);
        let c = s.servers[1];
        assert_eq!(c.requests, 2);
        assert_eq!(c.bytes_written, 100);
        assert_eq!(c.bytes_read, 50);
        assert_eq!(c.seeks, 1);
        assert_eq!(c.seek_distance, 40);
    }

    #[test]
    fn io_stage_counters_accumulate() {
        let p = Profile::enabled();
        let stages = IoStages {
            nic_busy_nanos: 10,
            disk_busy_nanos: 30,
            overlap_nanos: 7,
            queue_stall_nanos: 2,
            cross_stall_nanos: 1,
            depth: 3,
        };
        p.record_io_stages(0, 64, false, false, 0, stages);
        p.record_io_stages(0, 64, false, false, 0, stages);
        let c = p.snapshot().servers[0];
        assert_eq!(c.nic_busy_nanos, 20);
        assert_eq!(c.disk_busy_nanos, 60);
        assert_eq!(c.overlap_nanos, 14);
        assert_eq!(c.queue_stall_nanos, 4);
        assert_eq!(c.cross_file_stall_nanos, 2);
        assert_eq!(c.max_queue_depth, 3, "depth is a high-water mark");
    }
}
