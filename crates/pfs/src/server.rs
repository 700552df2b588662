//! One I/O server: a dual-resource service engine plus its stripe store.
//!
//! A server runs two pipelined stages (see [`hpc_sim::service`]): a NIC
//! that transfers request payloads and a disk charged by the
//! [`hpc_sim::DiskModel`], connected by a bounded admission queue — while
//! the disk services request *k*, the NIC already receives request *k+1*.
//! A request that starts at the **server-local** disk address where the
//! server's previous request on that file ended is *sequential* and skips
//! the positioning cost. Local addressing (stripe index divided by the
//! server count) means a client streaming the file in order — or an
//! aggregator writing the consecutive stripes it owns — stays sequential
//! on every server even though the file offsets it touches there are
//! strided; this is what rewards the large ordered writes produced by
//! two-phase collective I/O.
//!
//! Reads and writes take one path, [`Server::serve`]: the fault decision,
//! the walk over the request's chunks and the coalesced charge are the
//! same, and the caller's per-chunk closure stores the payload or fetches
//! into the buffer.

use hpc_sim::{DiskModel, FaultKind, FaultPlan, ServiceEngine, ServiceModel, StageTiming, Time};

use crate::storage::{IdMap, StorageMode, StripeStore};
use crate::stripe::StripeChunk;

/// State of one I/O server. Wrapped in a mutex by the file system.
pub struct Server {
    /// NIC + disk stage clocks and the bounded admission queue.
    engine: ServiceEngine,
    /// Per-file *local* end address of the last request (sequentiality
    /// detection in the server's own address space).
    last_end: IdMap<u64, u64>,
    /// Stripe payload storage.
    store: StripeStore,
    mode: StorageMode,
    stripe_size: u64,
    /// How many servers the file system stripes across; maps a stripe
    /// index to this server's local address space.
    nservers: u64,
    /// Fault-injection plan (inert by default).
    plan: FaultPlan,
    /// This server's index (keys the fault decisions).
    server_id: usize,
    /// Monotonic operation counter; serialized under the server's mutex,
    /// so `(seed, server_id, ops)` fully determines each fault decision.
    ops: u64,
}

/// Which way a server request moves bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The client fetches the chunks' bytes.
    Read,
    /// The client stores them. `metadata_sized` classifies the *whole
    /// client request* (not just this server's portion) for
    /// [`StorageMode::MetadataOnly`].
    Write {
        /// The whole request is at most [`crate::storage::METADATA_REQUEST_LIMIT`].
        metadata_sized: bool,
    },
}

/// Timing outcome of one server request.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOutcome {
    /// When the request completed from the client's point of view: the
    /// durable (disk) point for writes, the NIC ship-back for reads, the
    /// failure report for faults.
    pub done: Time,
    /// Stage breakdown: arrival, admission, NIC interval, disk interval,
    /// queue stall and NIC/disk overlap.
    pub stages: StageTiming,
    /// Whether the positioning cost was charged.
    pub seeked: bool,
    /// Distance (bytes, local address space) between the previous
    /// request's end and this request's start on the same file; 0 when
    /// sequential or when this is the file's first request on this server.
    pub seek_distance: u64,
    /// The fault injected while servicing, if any. Stalls complete the
    /// request (the delay is inside `done`); transient/short/crashed
    /// outcomes transferred only `bytes_done` bytes.
    pub injected: Option<FaultKind>,
    /// Bytes actually transferred — the full request normally and for
    /// stalls, a strict prefix for short I/O, zero for transient/crashed.
    pub bytes_done: u64,
}

impl ServiceOutcome {
    /// Whether the request fully transferred (stalls count as success).
    pub fn is_complete(&self) -> bool {
        !matches!(
            self.injected,
            Some(FaultKind::Transient) | Some(FaultKind::Short { .. }) | Some(FaultKind::Crashed)
        )
    }

    /// When the server's NIC finished receiving a write — the earliest
    /// point a handoff-acknowledging client may proceed. The payload is
    /// not durable until [`ServiceOutcome::done`].
    pub fn handoff(&self) -> Time {
        self.stages.nic_done
    }
}

impl Server {
    /// Fully configured server: one of `nservers` peers, servicing
    /// requests through the dual-resource `service` model.
    pub fn configure(
        stripe_size: u64,
        nservers: usize,
        mode: StorageMode,
        service: ServiceModel,
        plan: FaultPlan,
        server_id: usize,
    ) -> Server {
        assert!(nservers > 0, "at least one I/O server is required");
        Server {
            engine: ServiceEngine::new(service),
            last_end: IdMap::default(),
            store: StripeStore::new(stripe_size),
            mode,
            stripe_size,
            nservers: nservers as u64,
            plan,
            server_id,
            ops: 0,
        }
    }

    /// This server's local disk address of a chunk: consecutive stripes
    /// owned by the server are physically adjacent on its platter.
    fn local_of(&self, c: &StripeChunk) -> u64 {
        (c.stripe / self.nservers) * self.stripe_size + c.offset_in_stripe
    }

    /// Update position state and decide sequentiality for one coalesced
    /// request spanning the local addresses `[first, last)`.
    fn position(&mut self, file: u64, first: u64, last: u64) -> (bool, u64) {
        let prev_end = self.last_end.get(&file).copied();
        let sequential = prev_end == Some(first);
        self.last_end.insert(file, last);
        (sequential, prev_end.map(|e| e.abs_diff(first)).unwrap_or(0))
    }

    /// Service one request of `chunks` (all owned by this server, file
    /// order), each paired with the position of its bytes in the client
    /// request's payload; `arrival` is when the request reaches the server.
    /// The fault decision is drawn first. Every chunk it lets through —
    /// all of them, or a short transfer's leading bytes in file order, like
    /// a short `write(2)` or `read(2)` — goes to `bytes`, which stores it
    /// from the payload or fetches it into the buffer (the bytes a short
    /// read leaves out stay untouched, so the recovery layer can resume
    /// there). Then one coalesced request is charged: the payload on the
    /// NIC stage; positioning, streaming, a write's partial-stripe penalty
    /// and a stall's delay on the disk stage. A write goes through the NIC
    /// to the disk, a read from the disk back through the NIC.
    pub fn serve(
        &mut self,
        disk: &DiskModel,
        file: u64,
        arrival: Time,
        op: Op,
        chunks: impl Iterator<Item = (StripeChunk, usize)> + Clone,
        mut bytes: impl FnMut(&mut StripeStore, StripeChunk, usize),
    ) -> ServiceOutcome {
        let read = op == Op::Read;
        let (injected, delay, moved) = match self.decide(arrival, chunks.clone()) {
            FaultKind::None => (None, Time::ZERO, u64::MAX),
            kind @ FaultKind::Stall { delay } => (Some(kind), delay, u64::MAX),
            kind @ FaultKind::Short { bytes_done } => (Some(kind), Time::ZERO, bytes_done),
            FaultKind::Transient => return self.refuse(disk, file, arrival, read),
            FaultKind::Crashed => return self.crashed(disk, arrival),
        };
        // A `CostOnly` store holds nothing, so what is read from it is zeros.
        let keep = match (self.mode, op) {
            (StorageMode::CostOnly, Op::Write { .. }) => false,
            (StorageMode::MetadataOnly, Op::Write { metadata_sized }) => metadata_sized,
            _ => true,
        };
        // GPFS-style partial-block penalty: a write that does not cover a
        // whole stripe forces the server to read-modify-write that stripe.
        // Of one coalesced contiguous request only the first and last
        // chunks can be partial. This is precisely why ROMIO aligns
        // collective-buffering file domains to the file system boundary:
        // aligned two-phase writes avoid the penalty that unaligned
        // independent writes pay on every request.
        let mut partial = 0usize;
        let mut span = Extent::default();
        for (c, pos) in leading(chunks, moved) {
            if keep {
                bytes(&mut self.store, c, pos);
            }
            if !read && (c.offset_in_stripe != 0 || c.len < self.stripe_size) {
                partial += 1;
            }
            span.add(self.local_of(&c), c.len);
        }
        let Some(first) = span.first else {
            return idle_outcome(arrival, injected);
        };
        let (sequential, seek_distance) = self.position(file, first, span.end);
        let mut disk_time = disk.request(span.bytes as usize, sequential) + delay;
        if partial > 0 {
            disk_time += disk.stream(partial * self.stripe_size as usize);
        }
        let (stages, done) = self.charge(read, arrival, span.bytes, disk_time, file);
        ServiceOutcome {
            done,
            stages,
            seeked: !sequential,
            seek_distance,
            injected,
            bytes_done: span.bytes,
        }
    }

    /// Run one request through the engine. A write is done when its disk
    /// stage is, a read when its NIC has shipped the bytes back.
    fn charge(
        &mut self,
        read: bool,
        arrival: Time,
        bytes: u64,
        disk_time: Time,
        file: u64,
    ) -> (StageTiming, Time) {
        if read {
            let stages = self.engine.read(arrival, bytes as usize, disk_time, file);
            (stages, stages.nic_done)
        } else {
            let stages = self.engine.write(arrival, bytes as usize, disk_time, file);
            (stages, stages.disk_done)
        }
    }

    /// Draw the fault decision for one coalesced request: one draw per
    /// stripe chunk, in file order. Vectored coalescing must not shrink
    /// the fault surface — each stripe a request touches is an
    /// independent opportunity to fail, exactly as when every stripe was
    /// its own request. The first faulting chunk decides the outcome; a
    /// failure past the first chunk completes the prefix, like a partial
    /// `writev`. Free when the plan is inert; deterministic under
    /// `(seed, server_id, ops)` because both collective engines issue
    /// identical chunk sequences.
    fn decide(
        &mut self,
        arrival: Time,
        chunks: impl Iterator<Item = (StripeChunk, usize)>,
    ) -> FaultKind {
        if !self.plan.is_active() {
            return FaultKind::None;
        }
        let mut prefix = 0u64;
        for (c, _) in chunks {
            let op = self.ops;
            self.ops += 1;
            match self.plan.decide(self.server_id, op, arrival, c.len) {
                FaultKind::None => prefix += c.len,
                FaultKind::Crashed => return FaultKind::Crashed,
                FaultKind::Stall { delay } => return FaultKind::Stall { delay },
                FaultKind::Transient if prefix == 0 => return FaultKind::Transient,
                FaultKind::Transient => return FaultKind::Short { bytes_done: prefix },
                FaultKind::Short { bytes_done } => {
                    return FaultKind::Short {
                        bytes_done: prefix + bytes_done,
                    }
                }
            }
        }
        FaultKind::None
    }

    /// A failed attempt: the request reached the server and bounced. The
    /// per-request overhead still occupies the disk stage so fault storms
    /// cost time.
    fn refuse(&mut self, disk: &DiskModel, file: u64, arrival: Time, read: bool) -> ServiceOutcome {
        let (stages, done) = self.charge(read, arrival, 0, disk.per_request, file);
        ServiceOutcome {
            done,
            stages,
            seeked: false,
            seek_distance: 0,
            injected: Some(FaultKind::Transient),
            bytes_done: 0,
        }
    }

    /// The server does not respond; the client detects the failure after
    /// a request-timeout's worth of virtual time. Neither stage clock is
    /// touched — the machine is down.
    fn crashed(&mut self, disk: &DiskModel, arrival: Time) -> ServiceOutcome {
        ServiceOutcome {
            done: arrival + disk.per_request,
            ..idle_outcome(arrival, Some(FaultKind::Crashed))
        }
    }

    /// Charge a parity/rebuild *write* of `bytes` to this server's engine
    /// without drawing a fault decision or advancing the `ops` counter:
    /// redundancy maintenance must not perturb the `(seed, server_id, ops)`
    /// fault sequence of the data path, so a parity-on run injects exactly
    /// the faults a parity-off run would. `file` tags the request for
    /// cross-file contention accounting. Returns the durable (disk) time.
    pub fn aux_write(&mut self, disk: &DiskModel, file: u64, arrival: Time, bytes: u64) -> Time {
        if bytes == 0 {
            return arrival;
        }
        let disk_time = disk.request(bytes as usize, false);
        self.engine
            .write(arrival, bytes as usize, disk_time, file)
            .disk_done
    }

    /// Charge a reconstruction/rebuild *read* of `bytes` (same no-fault,
    /// no-`ops` contract as [`Server::aux_write`]). Returns the NIC
    /// ship-back time.
    pub fn aux_read(&mut self, disk: &DiskModel, file: u64, arrival: Time, bytes: u64) -> Time {
        if bytes == 0 {
            return arrival;
        }
        let disk_time = disk.request(bytes as usize, false);
        self.engine
            .read(arrival, bytes as usize, disk_time, file)
            .nic_done
    }

    /// Drop stored stripes of `file` and forget its position state.
    pub fn remove_file(&mut self, file: u64) {
        self.store.remove_file(file);
        self.last_end.remove(&file);
    }

    /// Direct store access for export (bypasses timing).
    pub fn peek(&self, file: u64, stripe: u64, offset_in_stripe: u64, out: &mut [u8]) {
        self.store.read(file, stripe, offset_in_stripe, out);
    }

    /// Direct store write for import (bypasses timing). No-op in
    /// [`StorageMode::CostOnly`].
    pub fn poke(&mut self, file: u64, stripe: u64, offset_in_stripe: u64, data: &[u8]) {
        if let Some(dst) = self.slot(file, stripe, offset_in_stripe, data.len() as u64) {
            dst.copy_from_slice(data);
        }
    }

    /// The stored bytes `[at, at + len)` of a stripe, for an untimed write
    /// to fill ([`StripeStore::slot`]); `None` in [`StorageMode::CostOnly`],
    /// which keeps nothing.
    pub(crate) fn slot(&mut self, file: u64, stripe: u64, at: u64, len: u64) -> Option<&mut [u8]> {
        let keep = self.mode != StorageMode::CostOnly;
        keep.then(|| self.store.slot(file, stripe, at, len))
    }

    /// Reset the stage clocks, queue, position state **and the fault
    /// operation counter** (benchmark phases), keeping stored data. The
    /// `ops` reset matters: a phase run after `reset_timing` must draw the
    /// same `(seed, server_id, ops)` fault sequence as a fresh run, or
    /// per-phase results would not be reproducible in isolation.
    pub fn reset_timing(&mut self) {
        self.engine.reset();
        self.last_end.clear();
        self.ops = 0;
    }
}

/// The chunks holding the first `bytes` bytes of a request, the last one
/// cut short: what a short transfer moves.
fn leading(
    chunks: impl Iterator<Item = (StripeChunk, usize)>,
    bytes: u64,
) -> impl Iterator<Item = (StripeChunk, usize)> {
    chunks.scan(bytes, |remaining, (c, pos)| {
        if *remaining == 0 {
            return None;
        }
        let len = c.len.min(*remaining);
        *remaining -= len;
        Some((StripeChunk { len, ..c }, pos))
    })
}

/// What one pass over a request's chunks learns for the cost model: the
/// bytes moved and the local disk addresses the request starts and ends at.
#[derive(Default)]
struct Extent {
    bytes: u64,
    first: Option<u64>,
    end: u64,
}

impl Extent {
    fn add(&mut self, local: u64, len: u64) {
        self.bytes += len;
        self.first.get_or_insert(local);
        self.end = local + len;
    }
}

/// Outcome of a request with no chunks: neither stage is occupied.
fn idle_outcome(arrival: Time, injected: Option<FaultKind>) -> ServiceOutcome {
    ServiceOutcome {
        done: arrival,
        stages: idle_stages(arrival),
        seeked: false,
        seek_distance: 0,
        injected,
        bytes_done: 0,
    }
}

/// Stage breakdown of a request that never occupied either stage (empty
/// request, crashed server).
fn idle_stages(arrival: Time) -> StageTiming {
    StageTiming {
        arrival,
        admit: arrival,
        nic_start: arrival,
        nic_done: arrival,
        disk_start: arrival,
        disk_done: arrival,
        queue_stall: Time::ZERO,
        overlap: Time::ZERO,
        depth: 0,
        cross_stall: Time::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::{NetworkModel, SimConfig};

    fn disk() -> DiskModel {
        DiskModel {
            per_request: Time::from_micros(100),
            seek: Time::from_millis(1),
            bandwidth: 1e8,
        }
    }

    /// Server `id` of a one-server file system on `test_small`'s service
    /// model, with 1 KiB stripes.
    fn server(mode: StorageMode, plan: FaultPlan, id: usize) -> Server {
        let service = SimConfig::test_small().service_model();
        Server::configure(1024, 1, mode, service, plan, id)
    }

    /// A one-chunk write of `data`, which starts at the chunk's first byte.
    fn put(s: &mut Server, file: u64, at: Time, c: StripeChunk, data: &[u8]) -> ServiceOutcome {
        let op = Op::Write {
            metadata_sized: true,
        };
        s.serve(
            &disk(),
            file,
            at,
            op,
            std::iter::once((c, 0)),
            |st, c, _| {
                st.slot(file, c.stripe, c.offset_in_stripe, c.len)
                    .copy_from_slice(&data[..c.len as usize])
            },
        )
    }

    /// A one-chunk read into `out`.
    fn get(s: &mut Server, file: u64, c: StripeChunk, out: &mut [u8]) -> ServiceOutcome {
        let chunks = std::iter::once((c, 0));
        s.serve(&disk(), file, Time::ZERO, Op::Read, chunks, |st, c, _| {
            st.read(
                file,
                c.stripe,
                c.offset_in_stripe,
                &mut out[..c.len as usize],
            )
        })
    }

    fn chunk(file_offset: u64, len: u64) -> StripeChunk {
        StripeChunk {
            server: 0,
            stripe: file_offset / 1024,
            file_offset,
            offset_in_stripe: file_offset % 1024,
            len,
        }
    }

    #[test]
    fn sequential_requests_skip_seek() {
        let mut s = server(StorageMode::Full, FaultPlan::default(), 0);
        let a = put(&mut s, 0, Time::ZERO, chunk(0, 100), &[1u8; 100]);
        assert!(a.seeked);
        let b = put(&mut s, 0, a.done, chunk(100, 100), &[2u8; 100]);
        assert!(!b.seeked);
        let c = put(&mut s, 0, b.done, chunk(500, 100), &[3u8; 100]);
        assert!(c.seeked);
    }

    #[test]
    fn queueing_delays_early_arrivals() {
        let mut s = server(StorageMode::Full, FaultPlan::default(), 0);
        let a = put(&mut s, 0, Time::ZERO, chunk(0, 1000), &[0u8; 1000]);
        // Second request arrives "before" the first finishes: it queues.
        let b = put(&mut s, 0, Time::ZERO, chunk(1024, 1000), &[0u8; 1000]);
        assert!(b.done > a.done);
    }

    #[test]
    fn read_returns_written_bytes() {
        let mut s = server(StorageMode::Full, FaultPlan::default(), 0);
        put(&mut s, 7, Time::ZERO, chunk(10, 4), &[5, 6, 7, 8]);
        let mut buf = [0u8; 4];
        get(&mut s, 7, chunk(10, 4), &mut buf);
        assert_eq!(buf, [5, 6, 7, 8]);
    }

    #[test]
    fn cost_only_discards_payload() {
        let mut s = server(StorageMode::CostOnly, FaultPlan::default(), 0);
        put(&mut s, 0, Time::ZERO, chunk(0, 4), &[1, 2, 3, 4]);
        let mut buf = [9u8; 4];
        get(&mut s, 0, chunk(0, 4), &mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
    }

    #[test]
    fn transient_fault_transfers_nothing_and_costs_time() {
        let plan = FaultPlan {
            transient: 1.0,
            ..FaultPlan::default()
        };
        let mut s = server(StorageMode::Full, plan, 0);
        let out = put(&mut s, 0, Time::ZERO, chunk(0, 100), &[1u8; 100]);
        assert_eq!(out.injected, Some(FaultKind::Transient));
        assert_eq!(out.bytes_done, 0);
        assert!(!out.is_complete());
        assert!(out.done > Time::ZERO);
        // Nothing was stored.
        let mut buf = [9u8; 100];
        s.peek(0, 0, 0, &mut buf);
        assert_eq!(buf, [0u8; 100]);
    }

    #[test]
    fn short_write_stores_exact_prefix() {
        let plan = FaultPlan {
            short: 1.0,
            ..FaultPlan::default()
        };
        let mut s = server(StorageMode::Full, plan, 0);
        let data: Vec<u8> = (1..=200).map(|i| (i % 251) as u8).collect();
        let out = put(&mut s, 0, Time::ZERO, chunk(0, 200), &data);
        let done = match out.injected {
            Some(FaultKind::Short { bytes_done }) => bytes_done,
            other => panic!("expected short fault, got {other:?}"),
        };
        assert_eq!(out.bytes_done, done);
        assert!(done > 0 && done < 200);
        let mut buf = vec![0u8; 200];
        s.peek(0, 0, 0, &mut buf);
        assert_eq!(&buf[..done as usize], &data[..done as usize]);
        assert_eq!(&buf[done as usize..], &vec![0u8; 200 - done as usize][..]);
    }

    #[test]
    fn stall_completes_but_takes_longer() {
        let mut plain = server(StorageMode::Full, FaultPlan::default(), 0);
        let base = put(&mut plain, 0, Time::ZERO, chunk(0, 100), &[1u8; 100]);
        let plan = FaultPlan {
            stall: 1.0,
            stall_time: Time::from_millis(10),
            ..FaultPlan::default()
        };
        let mut s = server(StorageMode::Full, plan, 0);
        let out = put(&mut s, 0, Time::ZERO, chunk(0, 100), &[1u8; 100]);
        assert!(matches!(out.injected, Some(FaultKind::Stall { .. })));
        assert!(out.is_complete());
        assert_eq!(out.bytes_done, 100);
        assert!(out.done >= base.done + Time::from_millis(10));
        // The payload still landed.
        let mut buf = [0u8; 100];
        s.peek(0, 0, 0, &mut buf);
        assert_eq!(buf, [1u8; 100]);
    }

    #[test]
    fn crashed_server_refuses_until_restart() {
        let plan = FaultPlan {
            crashes: vec![hpc_sim::CrashSpec {
                server: 0,
                at: Time::ZERO,
                restart: Some(Time::from_millis(1)),
            }],
            ..FaultPlan::default()
        };
        let mut s = server(StorageMode::Full, plan, 0);
        let out = put(&mut s, 0, Time::ZERO, chunk(0, 50), &[3u8; 50]);
        assert_eq!(out.injected, Some(FaultKind::Crashed));
        assert_eq!(out.bytes_done, 0);
        // After restart the same write succeeds.
        let out = put(&mut s, 0, Time::from_millis(2), chunk(0, 50), &[3u8; 50]);
        assert!(out.is_complete());
    }

    #[test]
    fn per_file_sequentiality() {
        let mut s = server(StorageMode::Full, FaultPlan::default(), 0);
        let a = put(&mut s, 1, Time::ZERO, chunk(0, 100), &[0u8; 100]);
        // Different file at the "same" position: still a seek.
        let b = put(&mut s, 2, a.done, chunk(100, 100), &[0u8; 100]);
        assert!(b.seeked);
        // Original file continues sequentially.
        let c = put(&mut s, 1, b.done, chunk(100, 100), &[0u8; 100]);
        assert!(!c.seeked);
    }

    #[test]
    fn strided_stripes_are_sequential_in_local_space() {
        // Server 1 of 4: it owns stripes 1, 5, 9, ... A client streaming
        // the file in order hands this server file offsets 1024, 5120,
        // 9216 — strided in file space, adjacent on the local platter.
        let service = SimConfig::test_small().service_model();
        let mut s = Server::configure(1024, 4, StorageMode::Full, service, FaultPlan::default(), 1);
        let mk = |stripe: u64| StripeChunk {
            server: 1,
            stripe,
            file_offset: stripe * 1024,
            offset_in_stripe: 0,
            len: 1024,
        };
        let a = put(&mut s, 0, Time::ZERO, mk(1), &[0u8; 1024]);
        let b = put(&mut s, 0, a.done, mk(5), &[0u8; 1024]);
        assert!(!b.seeked, "next owned stripe is local-sequential");
        let c = put(&mut s, 0, b.done, mk(13), &[0u8; 1024]);
        assert!(c.seeked, "skipping an owned stripe seeks");
        assert_eq!(c.seek_distance, 1024, "one local stripe was skipped");
    }

    #[test]
    fn write_overlaps_nic_with_busy_disk() {
        let service = ServiceModel {
            nic: NetworkModel {
                latency: Time::from_micros(10),
                bandwidth: 2e8,
            },
            queue_depth: 4,
        };
        let mut s = Server::configure(
            1024,
            1,
            StorageMode::CostOnly,
            service,
            FaultPlan::default(),
            0,
        );
        let d = disk();
        let data = [0u8; 1024];
        let a = put(&mut s, 0, Time::ZERO, chunk(0, 1024), &data);
        let b = put(&mut s, 0, Time::ZERO, chunk(1024, 1024), &data);
        assert!(b.handoff() < a.done, "NIC of b finished inside a's disk");
        assert!(b.stages.overlap > Time::ZERO);
        assert_eq!(b.done, a.done + d.request(1024, true));
    }

    #[test]
    fn reset_timing_resets_fault_ops_counter() {
        let plan = FaultPlan {
            transient: 0.3,
            short: 0.2,
            ..FaultPlan::default()
        };
        let run = |s: &mut Server| -> Vec<Option<FaultKind>> {
            (0..16)
                .map(|i| put(s, 0, Time::ZERO, chunk(i * 1024, 512), &[0u8; 512]).injected)
                .collect()
        };
        let mut fresh = server(StorageMode::Full, plan.clone(), 3);
        let first = run(&mut fresh);
        // Same server after a timing reset must draw the same faults as a
        // fresh run.
        fresh.reset_timing();
        let second = run(&mut fresh);
        assert_eq!(first, second, "reset_timing must rewind the ops counter");
    }
}
