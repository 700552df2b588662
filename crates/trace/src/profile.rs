//! The shared profile: counters, phase timers, scopes, snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json::Json;
use crate::phase::{CollKind, Phase};
use crate::report::{ratio, Report, Unit};

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

/// How two readings of one counter combine (the table's last column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Merge {
    Sum,
    /// A high-water mark.
    Max,
    /// The most recent reading replaces the earlier one.
    Last,
}

impl Merge {
    pub(crate) fn fold(self, a: u64, b: u64) -> u64 {
        match self {
            Merge::Sum => a + b,
            Merge::Max => a.max(b),
            Merge::Last => b,
        }
    }
}

/// THE counter table: every scalar counter of the profile is declared here
/// and nowhere else. A row is
///
/// ```text
/// slot: Struct [in SlotType] [, record_method, copy_method] {
///     field [as "json_key"]: Unit, Merge;
///     [= "derived_key" |c| expression;]
/// }
/// ```
///
/// `slot` is the field of [`Counters`] (hence of [`ProfileSnapshot`]) and
/// the section's key in the report; the slot holds one `Struct` unless `in`
/// says otherwise (`sieve` holds one per direction, `servers` one per
/// server id — their report shapes are the two hand-written [`Report`]
/// impls in `report.rs`). A counter's report key is its field name unless
/// `as` renames it, its [`Unit`] says how the raw `u64` is reported and its
/// [`Merge`] rule how two readings combine. The optional last line is a
/// ratio derived from the counters above it. `define_counters!` turns the
/// table into the structs, `merge`, the report sections, `Counters` and the
/// `record_*` / `*_counters` accessors; the tests below generate their
/// coverage from it too. Adding a counter is adding its line.
macro_rules! counter_table {
    ($generate:ident) => {
        $generate! {
            /// Two-phase collective-I/O engine counters.
            twophase: TwophaseCounters, record_twophase, twophase_counters {
                collective_writes: Count, Sum;
                collective_reads: Count, Sum;
                /// Aggregator count chosen by the most recent collective (the
                /// `cb_nodes` hint, or one per I/O server, at most one per
                /// rank). Recorded so sweeps can audit the choice.
                cb_nodes: Count, Last;
                /// Non-empty file domains assigned to aggregators.
                file_domains: Count, Sum;
                /// Collective-buffer windows processed by aggregators.
                windows: Count, Sum;
                /// Windows with holes: the aggregator had to read-modify-write.
                rmw_windows: Count, Sum;
                /// Bytes of request metadata + data shipped in the exchange
                /// phases.
                exchange_wire_bytes: Bytes, Sum;
                /// Exchange/disk rounds executed by the pipelined engine
                /// (`pnc_cb_pipeline`); serial collectives leave this at zero.
                pipelined_rounds as "rounds": Count, Sum;
                /// Virtual nanoseconds the pipelined engine saved by
                /// overlapping per-round exchange with the previous round's
                /// disk access, relative to running the same rounds back to
                /// back.
                overlap_saved_nanos as "overlap_saved_ns": Nanos, Sum;
            }

            /// Fault-injection and recovery counters (PFS faults and the
            /// MPI-IO retry/backoff layer that hides them).
            faults: FaultCounters, record_fault, fault_counters {
                /// Total faults the PFS servers injected (all kinds).
                faults_injected: Count, Sum;
                /// Transient EIO faults injected.
                transient: Count, Sum;
                /// Short (partial byte count) reads/writes injected.
                short: Count, Sum;
                /// Latency stalls injected (charged to virtual time, not
                /// errors).
                stalls: Count, Sum;
                /// Requests refused because the server was crashed.
                crashed: Count, Sum;
                /// Recovery-layer retries after a transient or crash fault.
                retries: Count, Sum;
                /// Virtual nanoseconds spent in exponential backoff before
                /// retries.
                backoff_nanos as "backoff_time": Seconds, Sum;
                /// Short-I/O completion resumptions at the partial offset.
                short_completions: Count, Sum;
                /// Retry budgets exhausted (`MpioError::Exhausted` surfaced).
                exhausted: Count, Sum;
                /// Collective error agreements that propagated a fault to all
                /// ranks.
                agreed_errors: Count, Sum;
            }

            /// Parity/failover counters: what the redundancy layer did after
            /// the ranks agreed a server was down (degraded reads, redirected
            /// writes, parity maintenance, rebuild).
            failover: FailoverCounters, record_failover, failover_counters {
                /// Read requests that had chunks reconstructed from data +
                /// parity.
                degraded_reads: Count, Sum;
                /// Bytes XOR-reconstructed from surviving servers instead of
                /// read from the down server.
                reconstructed_bytes: Bytes, Sum;
                /// Write requests with chunks redirected away from the down
                /// server.
                redirected_writes: Count, Sum;
                /// Bytes destined to the down server that were covered by
                /// parity instead of stored there.
                redirected_bytes: Bytes, Sum;
                /// Parity rows recomputed and written after data writes.
                parity_updates: Count, Sum;
                /// Parity bytes written to surviving servers.
                parity_bytes: Bytes, Sum;
                /// Server-down epochs the ranks collectively agreed on.
                epochs: Count, Sum;
                /// Online rebuilds completed after a server restart.
                rebuilds: Count, Sum;
                /// Bytes replayed onto the restarted server from the parity
                /// log.
                rebuilt_bytes: Bytes, Sum;
                /// Virtual nanoseconds the rebuild replay occupied.
                rebuild_nanos as "rebuild_time": Seconds, Sum;
            }

            /// Client page-cache counters (hits, misses, write-behind,
            /// readahead, coherence invalidations), summed over all ranks of
            /// a run.
            cache: CacheCounters, record_cache, cache_counters {
                /// Page lookups fully served from cached bytes.
                hits: Count, Sum;
                /// Bytes served from cached pages without touching the PFS.
                hit_bytes: Bytes, Sum;
                /// Page lookups that needed a disk fill (or created a fresh
                /// page).
                misses: Count, Sum;
                /// Pages evicted by the LRU policy to stay under the byte
                /// budget.
                evictions: Count, Sum;
                /// Write-behind flush rounds (eviction, sync, close,
                /// collective entry).
                write_behind_flushes: Count, Sum;
                /// Dirty bytes pushed to the PFS by write-behind flushes.
                write_behind_bytes: Bytes, Sum;
                /// Virtual nanoseconds waited at flush points (sync, close,
                /// collective entry) for bytes written behind to be on disk;
                /// against `sim_disk_write_s` it says how much of the
                /// write-behind the caller actually waited for.
                write_behind_drain: Nanos, Sum;
                /// Pages fetched speculatively by sequential-detection
                /// readahead.
                readahead_issued: Count, Sum;
                /// Readahead pages later hit by a demand read.
                readahead_hits: Count, Sum;
                /// Pages (or clean page fractions) dropped by the coherence
                /// protocol after another rank's epoch advanced.
                invalidations: Count, Sum;
                = "hit_rate" |c| ratio(c.hits, c.hits + c.misses, 0.0);
            }

            /// Zero-copy byte-path counters: how many bytes moved through
            /// the fused gather+swap kernels, how many staging copies the
            /// borrow fast paths elided, and how much of the collective
            /// exchange ran on lent buffers. Summed over all ranks of a run.
            bytepath: BytePathCounters, record_bytepath, bytepath_counters {
                /// Hits of MPI-IO's memoized view flattener. The flattener
                /// is gone (MPI-IO takes run lists) and nothing records
                /// this: the row stays, always 0, because `perf_bench` reads
                /// `flatten_hit_rate` by name, and goes with the re-pin of
                /// ROADMAP item 4(a).
                flatten_hits: Count, Sum;
                /// Misses of the same flattener; as `flatten_hits`.
                flatten_misses: Count, Sum;
                /// Bytes produced by fused gather+byteswap packs (native →
                /// external) — each of these bytes was touched once instead
                /// of copied then swapped.
                fused_pack_bytes: Bytes, Sum;
                /// Bytes consumed by fused byteswap+scatter unpacks (external
                /// → native).
                fused_unpack_bytes: Bytes, Sum;
                /// Whole staging copies skipped by borrowing a buffer where it
                /// lies (every collective flush of a nonblocking queue, whose
                /// staged buffers are lent unmerged; a contiguous MPI-IO
                /// write).
                copies_elided: Count, Sum;
                /// Bytes covered by those elided copies.
                borrowed_bytes: Bytes, Sum;
                /// Payload bytes lent through a collective rendezvous instead
                /// of being copied into an exchange parcel: write payloads
                /// read, and read destinations filled, where the owning rank
                /// keeps them.
                exchange_borrowed_bytes: Bytes, Sum;
                /// Two-phase windows that allocated no collective buffer:
                /// served from the one an earlier window on the same open
                /// file — of this collective or of an earlier one — had
                /// already allocated, or needing none (a write window
                /// without holes, a read window without holes or shared
                /// bytes).
                collbuf_reuses: Count, Sum;
                = "flatten_hit_rate" |b|
                    ratio(b.flatten_hits, b.flatten_hits + b.flatten_misses, 0.0);
            }

            /// Message-passing counters of the simulated MPI runtime.
            mpi: MpiCounters, record_mpi, mpi_counters {
                /// Point-to-point messages sent.
                messages: Count, Sum;
                /// Payload bytes of those messages.
                message_bytes: Bytes, Sum;
                /// Entries into a collective rendezvous, one per rank per
                /// collective (predefined collectives and MPI-IO's own).
                rendezvous: Count, Sum;
            }

            /// Data-sieving amplification counters, one direction; the slot
            /// is indexed by `read as usize`.
            sieve: SieveCounters in [SieveCounters; 2] {
                /// Bytes moved to/from the file system (whole sieve windows).
                transferred as "transferred_bytes": Bytes, Sum;
                /// Bytes the application actually asked for.
                useful as "useful_bytes": Bytes, Sum;
                = "amplification" |s| ratio(s.transferred, s.useful, 1.0);
            }

            /// Per-server PFS counters; the slot is indexed by server id.
            servers: ServerCounters in Vec<ServerCounters> {
                requests: Count, Sum;
                bytes_read: Bytes, Sum;
                bytes_written: Bytes, Sum;
                seeks: Count, Sum;
                /// Sum of absolute distances (bytes) between the end of one
                /// request and the start of the next on the same file.
                seek_distance: Bytes, Sum;
                /// Nanoseconds the server's NIC stage spent transferring
                /// payloads.
                nic_busy_nanos as "nic_busy_s": Seconds, Sum;
                /// Nanoseconds the server's disk stage spent servicing
                /// requests.
                disk_busy_nanos as "disk_busy_s": Seconds, Sum;
                /// Disk busy time that overlapped NIC transfers — what the
                /// dual-resource service engine hides relative to a serial
                /// server.
                overlap_nanos as "overlap_s": Seconds, Sum;
                /// Time requests stalled at the full bounded admission queue.
                queue_stall_nanos as "queue_stall_s": Seconds, Sum;
                /// Wait time (queue, NIC, disk) spent behind *other files'*
                /// requests — cross-file contention on a shared service
                /// cluster.
                cross_file_stall_nanos as "cross_file_stall_s": Seconds, Sum;
                /// Deepest admission-queue occupancy observed.
                max_queue_depth: Count, Max;
            }
        }
    };
}

/// A counter's report key: its field name unless the table renames it.
macro_rules! key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// A slot's type: one `Struct` unless the table says `in SlotType`.
macro_rules! slot {
    ($Struct:ident) => {
        $Struct
    };
    ($Struct:ident $Slot:ty) => {
        $Slot
    };
}

/// The product generator of `counter_table!` (see there).
macro_rules! define_counters {
    ($(
        $(#[$doc:meta])*
        $slot:ident: $Struct:ident $(in $Slot:ty)? $(, $record:ident, $copy:ident)? {
            $($(#[$fdoc:meta])* $field:ident $(as $key:literal)?: $unit:ident, $merge:ident;)*
            $(= $ratio_key:literal |$c:ident| $ratio:expr;)?
        }
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct $Struct {
                $($(#[$fdoc])* pub $field: u64,)*
            }

            impl $Struct {
                /// Fold another reading in, each counter by its merge rule.
                pub fn merge(&mut self, other: &$Struct) {
                    $(self.$field = Merge::$merge.fold(self.$field, other.$field);)*
                }
            }

            impl Report for $Struct {
                fn report(&self) -> Json {
                    let mut section = Json::obj();
                    $(section.set(key!($field $($key)?), Unit::$unit.report(self.$field));)*
                    $(
                        let $c = self;
                        section.set($ratio_key, $ratio);
                    )?
                    section
                }
            }
        )*

        /// Every counter of the table, one field per slot.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct Counters {
            $(pub $slot: slot!($Struct $($Slot)?),)*
        }

        impl Counters {
            /// Set every slot on `report` under its name.
            pub(crate) fn report_into(&self, report: &mut Json) {
                $(report.set(stringify!($slot), self.$slot.report());)*
            }
        }

        impl Profile {
            $($(
                #[doc = concat!("Update the `", stringify!($slot), "` counters.")]
                /// A no-op while the profile is off.
                pub fn $record(&self, f: impl FnOnce(&mut $Struct)) {
                    if self.is_enabled() {
                        f(&mut self.recorded().counters.$slot);
                    }
                }

                #[doc = concat!("Copy of the `", stringify!($slot), "` counters.")]
                /// Tests and smoke assertions read these directly.
                pub fn $copy(&self) -> $Struct {
                    self.recorded().counters.$slot
                }
            )?)*
        }
    };
}

counter_table!(define_counters);

impl Counters {
    /// Every server's row folded into one: the requests, bytes and seeks of
    /// the whole file system.
    pub fn server_totals(&self) -> ServerCounters {
        let mut total = ServerCounters::default();
        self.servers.iter().for_each(|s| total.merge(s));
        total
    }
}

#[derive(Default)]
struct Inner {
    enabled: AtomicBool,
    /// Everything recorded so far, kept in the form [`Profile::snapshot`]
    /// hands out (which fills in `enabled`), so a snapshot is a copy and a
    /// reset an assignment of `Default`.
    recorded: Mutex<ProfileSnapshot>,
}

/// The shared profile. Cloning is cheap (one `Arc`); every layer of one
/// simulation sees the same instance because it rides inside
/// `hpc_sim::SimConfig`. Disabled by default: every recording method is a
/// single relaxed atomic load followed by an early return.
#[derive(Clone, Default)]
pub struct Profile {
    inner: Arc<Inner>,
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
        Profile::default()
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

    /// Lock the recorded state, recovering from poisoning instead of
    /// panicking.
    ///
    /// Invariant: every critical section in this module performs only
    /// in-place arithmetic or container growth, so even if the owning rank
    /// thread panicked mid-update the data stays structurally valid — at
    /// worst one partial increment is lost. Recovering here means a
    /// malformed profile can never cascade a panic into the surviving ranks
    /// of a run.
    fn recorded(&self) -> MutexGuard<'_, ProfileSnapshot> {
        let recorded = self.inner.recorded.lock();
        recorded.unwrap_or_else(PoisonError::into_inner)
    }

    /// Charge `nanos` of simulated time on `rank` to `phase`.
    pub fn record_phase(&self, rank: usize, phase: Phase, nanos: u64) {
        if !self.is_enabled() || nanos == 0 {
            return;
        }
        let ranks = &mut self.recorded().phase_nanos;
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
        let cell = &mut self.recorded().collectives[kind.index()];
        *cell = (cell.0 + 1, cell.1 + bytes, cell.2 + nanos);
    }

    /// Record one point-to-point message of `bytes`.
    pub fn record_msg_size(&self, bytes: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut rec = self.recorded();
        rec.msg_hist[bucket(bytes)] += 1;
        rec.counters.mpi.messages += 1;
        rec.counters.mpi.message_bytes += bytes;
    }

    /// Record one request serviced by PFS server `server`, with the
    /// dual-resource stage breakdown of its passage.
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
        let mut rec = self.recorded();
        let hist = if read {
            &mut rec.io_read_hist
        } else {
            &mut rec.io_write_hist
        };
        hist[bucket(bytes)] += 1;
        let servers = &mut rec.counters.servers;
        if servers.len() <= server {
            servers.resize(server + 1, ServerCounters::default());
        }
        servers[server].merge(&ServerCounters {
            requests: 1,
            bytes_read: if read { bytes } else { 0 },
            bytes_written: if read { 0 } else { bytes },
            seeks: seeked as u64,
            seek_distance: if seeked { distance } else { 0 },
            nic_busy_nanos: stages.nic_busy_nanos,
            disk_busy_nanos: stages.disk_busy_nanos,
            overlap_nanos: stages.overlap_nanos,
            queue_stall_nanos: stages.queue_stall_nanos,
            cross_file_stall_nanos: stages.cross_stall_nanos,
            max_queue_depth: stages.depth,
        });
    }

    /// Record sieving amplification: one window moved `transferred` bytes
    /// of which `useful` were requested by the application.
    pub fn record_sieve(&self, read: bool, transferred: u64, useful: u64) {
        if !self.is_enabled() {
            return;
        }
        let direction = &mut self.recorded().counters.sieve[read as usize];
        direction.transferred += transferred;
        direction.useful += useful;
    }

    /// Count one rejected (unknown or malformed) hint key/value observed
    /// at file open. Counted even while profiling is off: a misspelled
    /// hint should be discoverable without enabling the full profile.
    pub fn record_hint_rejected(&self) {
        self.recorded().hints_rejected += 1;
    }

    /// Hints rejected so far.
    pub fn hints_rejected(&self) -> u64 {
        self.recorded().hints_rejected
    }

    /// Attach a named report fragment (e.g. a dataset roll-up at close).
    /// Replaces an existing fragment with the same name.
    pub fn attach_extra(&self, name: &str, value: Json) {
        if !self.is_enabled() {
            return;
        }
        let extras = &mut self.recorded().extras;
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
            ..self.recorded().clone()
        }
    }

    /// Zero every counter, keeping the enabled flag. Benchmarks call this
    /// between configurations.
    pub fn reset(&self) {
        *self.recorded() = ProfileSnapshot::default();
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSnapshot {
    pub enabled: bool,
    /// `[rank][phase] -> simulated nanoseconds`, grown on demand.
    pub phase_nanos: Vec<[u64; Phase::COUNT]>,
    /// `(count, bytes, nanos)` per [`CollKind`].
    pub collectives: [(u64, u64, u64); CollKind::COUNT],
    /// Power-of-two size histograms.
    pub io_write_hist: [u64; HIST_BUCKETS],
    pub io_read_hist: [u64; HIST_BUCKETS],
    pub msg_hist: [u64; HIST_BUCKETS],
    /// The table's counters; `snapshot.twophase`, `snapshot.servers` … read
    /// them through `Deref`.
    pub counters: Counters,
    /// Unknown or malformed `pnc_*`/MPI-IO hints rejected at file open.
    pub hints_rejected: u64,
    /// Named report fragments attached by higher layers (dataset roll-ups).
    pub extras: Vec<(String, Json)>,
}

impl std::ops::Deref for ProfileSnapshot {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
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

    /// What the report must show for one counter: its key, its unit and the
    /// raw value it was set to.
    type Want = Vec<(&'static str, Unit, u64)>;

    /// Give every counter of a table struct a value of its own.
    trait Fill {
        fn fill(&mut self, next: &mut u64) -> Want;
    }

    /// The test generator of `counter_table!`: `Fill` for every struct, and
    /// `record_all`, which fills every section that has a `record_*` method
    /// through that method. A counter added to the table is covered by the
    /// tests below without a line here.
    macro_rules! define_fills {
        ($(
            $(#[$doc:meta])*
            $slot:ident: $Struct:ident $(in $Slot:ty)? $(, $record:ident, $copy:ident)? {
                $($(#[$fdoc:meta])* $field:ident $(as $key:literal)?: $unit:ident, $merge:ident;)*
                $(= $ratio_key:literal |$c:ident| $ratio:expr;)?
            }
        )*) => {
            $(impl Fill for $Struct {
                fn fill(&mut self, next: &mut u64) -> Want {
                    let mut want = Want::new();
                    $(
                        *next += 1;
                        self.$field = *next;
                        want.push((key!($field $($key)?), Unit::$unit, *next));
                    )*
                    want
                }
            })*

            fn record_all(p: &Profile, next: &mut u64) -> Vec<(&'static str, Want)> {
                let mut sections = Vec::new();
                $($(p.$record(|c| sections.push((stringify!($slot), c.fill(next))));)?)*
                sections
            }
        };
    }

    counter_table!(define_fills);

    /// Values start above 10^9 so a nanosecond count reported raw and one
    /// reported as seconds cannot be mistaken for each other.
    const FIRST: u64 = 3_000_000_000;

    #[track_caller]
    fn assert_reported(section: &Json, want: &Want) {
        for &(key, unit, raw) in want {
            let shown = match unit {
                Unit::Seconds => raw as f64 / 1e9,
                Unit::Count | Unit::Bytes | Unit::Nanos => raw as f64,
            };
            let got = section.get(key).and_then(Json::as_f64);
            assert_eq!(got, Some(shown), "{key} in {section:?}");
        }
    }

    #[test]
    fn every_declared_counter_reaches_the_report_under_its_key_and_unit() {
        let p = Profile::enabled();
        let mut next = FIRST;
        let sections = record_all(&p, &mut next);
        assert_eq!(sections.len(), 6, "twophase … mpi");
        // The two multi-row slots have doors of their own.
        let (mut read, mut write) = (SieveCounters::default(), SieveCounters::default());
        let (want_read, want_write) = (read.fill(&mut next), write.fill(&mut next));
        p.record_sieve(true, read.transferred, read.useful);
        p.record_sieve(false, write.transferred, write.useful);
        let mut row = ServerCounters::default();
        let want_row = row.fill(&mut next);

        let report = p.snapshot().to_json(0);
        for (slot, want) in &sections {
            assert_reported(report.get(slot).expect(slot), want);
        }
        let sieve = report.get("sieve").unwrap();
        assert_reported(sieve.get("read").unwrap(), &want_read);
        assert_reported(sieve.get("write").unwrap(), &want_write);
        match vec![ServerCounters::default(), row].report() {
            Json::Arr(rows) => {
                assert_reported(&rows[1], &want_row);
                assert_eq!(rows[1].get("server").and_then(Json::as_f64), Some(1.0));
            }
            other => panic!("servers is not an array: {other:?}"),
        }
        // And the copy accessors hand back what the record methods stored.
        assert_eq!(p.twophase_counters().collective_writes, FIRST + 1);
        assert_eq!(p.mpi_counters(), p.snapshot().mpi);
    }

    #[test]
    fn merge_follows_each_counters_rule() {
        let mut a = TwophaseCounters {
            windows: 3,
            cb_nodes: 4,
            ..Default::default()
        };
        a.merge(&TwophaseCounters {
            windows: 2,
            cb_nodes: 1,
            ..Default::default()
        });
        assert_eq!((a.windows, a.cb_nodes), (5, 1), "sum; last write");
        let mut s = ServerCounters {
            max_queue_depth: 7,
            ..Default::default()
        };
        s.merge(&ServerCounters {
            max_queue_depth: 3,
            ..Default::default()
        });
        assert_eq!(s.max_queue_depth, 7, "high-water mark");
    }

    /// Touch everything a profile holds, table or not.
    fn record_everything(p: &Profile) {
        let mut next = FIRST;
        record_all(p, &mut next);
        p.record_phase(1, Phase::Wait, 5);
        p.record_collective(CollKind::Bcast, 8, 13);
        p.record_msg_size(64);
        p.record_io_stages(2, 128, true, true, 9, IoStages::default());
        p.record_io_stages(0, 128, false, false, 0, IoStages::default());
        p.record_sieve(true, 10, 4);
        p.record_sieve(false, 10, 4);
        p.attach_extra("dataset:x", Json::obj());
        p.record_hint_rejected();
    }

    #[test]
    fn reset_returns_to_a_fresh_profile_keeping_enabled() {
        let p = Profile::enabled();
        record_everything(&p);
        assert_ne!(p.snapshot(), Profile::enabled().snapshot());
        p.reset();
        assert_eq!(p.snapshot(), Profile::enabled().snapshot());
        assert_eq!(p.hints_rejected(), 0);
    }

    #[test]
    fn disabled_profile_counts_only_rejected_hints() {
        let p = Profile::new();
        record_everything(&p);
        let fresh = Profile::new().snapshot();
        assert_eq!(
            p.snapshot(),
            ProfileSnapshot {
                hints_rejected: 1,
                ..fresh
            }
        );
    }

    #[test]
    fn disabled_profile_records_nothing() {
        let p = Profile::new();
        p.record_phase(0, Phase::Compute, 100);
        p.record_collective(CollKind::Barrier, 0, 10);
        p.record_io_stages(0, 64, false, true, 5, IoStages::default());
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
        p.record_io_stages(2, 128, true, false, 0, IoStages::default());
        p.reset();
        let s = p.snapshot();
        assert!(s.enabled);
        assert!(s.phase_nanos.is_empty());
        assert!(s.servers.is_empty());
    }

    #[test]
    fn server_counters_accumulate() {
        let p = Profile::enabled();
        p.record_io_stages(1, 100, false, true, 40, IoStages::default());
        p.record_io_stages(1, 50, true, false, 0, IoStages::default());
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
