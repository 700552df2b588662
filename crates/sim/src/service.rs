//! Dual-resource service engine for one I/O server: a NIC stage and a disk
//! stage connected by a bounded request queue.
//!
//! The old server model charged NIC receive, positioning and streaming as a
//! single fused resource (`next_free`), so nothing overlapped *inside* a
//! server and the client-side pipelined two-phase engine had nothing to
//! hide behind. This engine models the ViPIOS-style I/O-server
//! architecture: while the disk services request `k`, the NIC can already
//! be receiving request `k+1`. Admission is bounded by `queue_depth` — a
//! request may not enter the NIC stage while that many earlier writes are
//! still waiting for the disk — which is the backpressure that keeps an
//! aggressive client from buffering unbounded data at the server.
//!
//! Writes flow NIC → disk: the *handoff* point (NIC done, server owns the
//! bytes) and the *durable* point (disk done) are reported separately so
//! clients may acknowledge at handoff and drain at the end. Reads flow
//! disk → NIC (the payload must come off the platter before it can be
//! shipped back) and complete at the NIC stage.

use std::collections::VecDeque;

use crate::network::NetworkModel;
use crate::time::Time;

/// Parameters of one server's service engine.
#[derive(Clone, Copy, Debug)]
pub struct ServiceModel {
    /// The server-side NIC: receives write payloads, ships read payloads.
    pub nic: NetworkModel,
    /// Bounded admission queue depth (writes in flight past the NIC that
    /// the disk has not retired). `0` = unbounded.
    pub queue_depth: usize,
}

/// Per-request stage breakdown returned by the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTiming {
    /// When the request reached the server.
    pub arrival: Time,
    /// When it was admitted past the bounded queue (`>= arrival`).
    pub admit: Time,
    /// NIC stage interval.
    pub nic_start: Time,
    pub nic_done: Time,
    /// Disk stage interval.
    pub disk_start: Time,
    pub disk_done: Time,
    /// `admit - arrival`: time stalled at the full admission queue.
    pub queue_stall: Time,
    /// Disk busy time (from earlier requests) that overlapped this
    /// request's NIC transfer — the saving the dual-resource split buys.
    pub overlap: Time,
    /// Queue depth observed at admission (this request included).
    pub depth: usize,
    /// Portion of this request's wait time (queue stall, NIC wait, disk
    /// wait) spent behind occupants carrying a *different* tag — on a
    /// shared cluster, stalls attributable to other files' traffic.
    pub cross_stall: Time,
}

/// Timing state of one server's two service stages.
#[derive(Clone, Debug)]
pub struct ServiceEngine {
    model: ServiceModel,
    /// When the NIC finishes its current transfer.
    nic_free: Time,
    /// When the disk finishes its current request.
    disk_free: Time,
    /// Disk completion times of admitted writes not yet retired, with the
    /// tag (file id) of the request that produced each.
    inflight: VecDeque<(Time, u64)>,
    /// Recent disk busy intervals, for overlap accounting. Pruned against
    /// the (monotone) NIC start time.
    disk_busy: VecDeque<(Time, Time)>,
    /// Tag of the request that last occupied the NIC / disk stage, for
    /// cross-file wait attribution. `None` until the first request.
    nic_last: Option<u64>,
    disk_last: Option<u64>,
}

/// The deepest bounded queue whose deques are sized up front; a deeper one
/// (a hostile `SimConfig::server_queue_depth`) grows on demand beyond this.
const PRESIZED_DEPTH: usize = 1024;

impl ServiceEngine {
    /// An idle engine. `inflight` and `disk_busy` get what a bounded queue
    /// can hold, plus the request being served, so the request that first
    /// finds writes overlapping on this server does not pay for a deque's
    /// growth. An unbounded queue (`queue_depth == 0`) has no such number
    /// and grows on demand. `reset` clears the deques and keeps their
    /// capacity.
    pub fn new(model: ServiceModel) -> ServiceEngine {
        let sized = match model.queue_depth.min(PRESIZED_DEPTH) {
            0 => 0,
            depth => depth + 1,
        };
        ServiceEngine {
            model,
            nic_free: Time::ZERO,
            disk_free: Time::ZERO,
            inflight: VecDeque::with_capacity(sized),
            disk_busy: VecDeque::with_capacity(sized),
            nic_last: None,
            disk_last: None,
        }
    }

    /// The configured model.
    pub fn model(&self) -> ServiceModel {
        self.model
    }

    /// Admit a request: drain retired writes, then wait for the oldest
    /// in-flight write when the queue is full. Returns the admit time and
    /// the tag of the blocking in-flight write, if the request had to wait.
    fn admit(&mut self, arrival: Time) -> (Time, Option<u64>) {
        let mut admit = arrival;
        let mut blocker = None;
        while self.inflight.front().is_some_and(|&(d, _)| d <= admit) {
            self.inflight.pop_front();
        }
        if self.model.queue_depth > 0 && self.inflight.len() >= self.model.queue_depth {
            let (done, tag) = self.inflight.pop_front().expect("queue_depth > 0");
            admit = done;
            blocker = Some(tag);
            while self.inflight.front().is_some_and(|&(d, _)| d <= admit) {
                self.inflight.pop_front();
            }
        }
        (admit, blocker)
    }

    /// Disk busy time overlapping `[lo, hi)`, pruning intervals that can
    /// never overlap again (NIC starts are monotone).
    fn overlap_with(&mut self, lo: Time, hi: Time) -> Time {
        while self.disk_busy.front().is_some_and(|&(_, e)| e <= lo) {
            self.disk_busy.pop_front();
        }
        let mut acc = Time::ZERO;
        for &(s, e) in &self.disk_busy {
            if s >= hi {
                break;
            }
            let from = s.max(lo);
            let to = e.min(hi);
            if to > from {
                acc += to - from;
            }
        }
        acc
    }

    /// Service a write of `bytes` whose disk stage costs `disk_time`
    /// (positioning, streaming and any fault penalties, computed by the
    /// caller). The NIC receives the payload first; the disk stage follows.
    ///
    /// `tag` names whose request this is (the file id): wait time spent
    /// behind occupants with a different tag (another file's traffic on a
    /// shared cluster) is attributed to `cross_stall`. The tag is pure
    /// accounting — it never changes the stage clocks.
    pub fn write(&mut self, arrival: Time, bytes: usize, disk_time: Time, tag: u64) -> StageTiming {
        let (admit, blocker) = self.admit(arrival);
        let depth = self.inflight.len() + 1;
        let nic_start = self.nic_free.max(admit);
        let nic_done = nic_start + self.model.nic.p2p(bytes);
        let nic_wait = nic_start - admit;
        self.nic_free = nic_done;
        let disk_start = self.disk_free.max(nic_done);
        let disk_done = disk_start + disk_time;
        let disk_wait = disk_start - nic_done;
        self.disk_free = disk_done;
        self.inflight.push_back((disk_done, tag));
        let overlap = self.overlap_with(nic_start, nic_done);
        self.disk_busy.push_back((disk_start, disk_done));
        let mut cross_stall = Time::ZERO;
        if admit > arrival && blocker.is_some() && blocker != Some(tag) {
            cross_stall += admit - arrival;
        }
        if nic_wait > Time::ZERO && self.nic_last.is_some() && self.nic_last != Some(tag) {
            cross_stall += nic_wait;
        }
        if disk_wait > Time::ZERO && self.disk_last.is_some() && self.disk_last != Some(tag) {
            cross_stall += disk_wait;
        }
        self.nic_last = Some(tag);
        self.disk_last = Some(tag);
        StageTiming {
            arrival,
            admit,
            nic_start,
            nic_done,
            disk_start,
            disk_done,
            queue_stall: admit - arrival,
            overlap,
            depth,
            cross_stall,
        }
    }

    /// Service a read of `bytes` whose disk stage costs `disk_time`. The
    /// disk runs first, then the NIC ships the payload back; reads are
    /// synchronous (the client waits), so they bypass the admission queue.
    /// Cross-file waits are attributed by `tag` as in
    /// [`ServiceEngine::write`].
    pub fn read(&mut self, arrival: Time, bytes: usize, disk_time: Time, tag: u64) -> StageTiming {
        let disk_start = self.disk_free.max(arrival);
        let disk_done = disk_start + disk_time;
        let disk_wait = disk_start - arrival;
        self.disk_free = disk_done;
        let nic_start = self.nic_free.max(disk_done);
        let nic_done = nic_start + self.model.nic.p2p(bytes);
        let nic_wait = nic_start - disk_done;
        self.nic_free = nic_done;
        self.disk_busy.push_back((disk_start, disk_done));
        let overlap = self.overlap_with(nic_start, nic_done);
        let mut cross_stall = Time::ZERO;
        if disk_wait > Time::ZERO && self.disk_last.is_some() && self.disk_last != Some(tag) {
            cross_stall += disk_wait;
        }
        if nic_wait > Time::ZERO && self.nic_last.is_some() && self.nic_last != Some(tag) {
            cross_stall += nic_wait;
        }
        self.disk_last = Some(tag);
        self.nic_last = Some(tag);
        StageTiming {
            arrival,
            admit: arrival,
            nic_start,
            nic_done,
            disk_start,
            disk_done,
            queue_stall: Time::ZERO,
            overlap,
            depth: self.inflight.len(),
            cross_stall,
        }
    }

    /// Reset both stage clocks and the queue (benchmark phases), keeping
    /// the model.
    pub fn reset(&mut self) {
        self.nic_free = Time::ZERO;
        self.disk_free = Time::ZERO;
        self.inflight.clear();
        self.disk_busy.clear();
        self.nic_last = None;
        self.disk_last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(depth: usize) -> ServiceEngine {
        ServiceEngine::new(ServiceModel {
            nic: NetworkModel {
                latency: Time::from_micros(10),
                bandwidth: 200e6,
            },
            queue_depth: depth,
        })
    }

    /// An infinitely fast NIC in front of an unbounded queue.
    fn passthrough() -> ServiceEngine {
        ServiceEngine::new(ServiceModel {
            nic: NetworkModel {
                latency: Time::ZERO,
                bandwidth: f64::INFINITY,
            },
            queue_depth: 0,
        })
    }

    #[test]
    fn passthrough_degenerates_to_disk_only() {
        let mut e = passthrough();
        let d = Time::from_millis(3);
        let a = e.write(Time::ZERO, 1 << 20, d, 0);
        assert_eq!(a.nic_done, Time::ZERO);
        assert_eq!(a.disk_done, d);
        let b = e.write(Time::ZERO, 1 << 20, d, 0);
        assert_eq!(b.disk_done, d + d, "second request queues at the disk");
    }

    #[test]
    fn nic_receives_next_while_disk_writes_previous() {
        let mut e = engine(4);
        let nic_t = e.model().nic.p2p(1 << 20);
        let disk_t = Time::from_millis(20); // disk much slower than NIC
        let a = e.write(Time::ZERO, 1 << 20, disk_t, 0);
        let b = e.write(Time::ZERO, 1 << 20, disk_t, 0);
        // b's NIC transfer ran strictly inside a's disk interval.
        assert!(b.nic_done <= a.disk_done);
        assert!(b.overlap > Time::ZERO, "overlap must be recorded");
        // The disk pipeline never idles: two requests take nic + 2*disk.
        assert_eq!(b.disk_done, a.nic_done + disk_t + disk_t);
        assert_eq!(a.nic_done, nic_t);
    }

    #[test]
    fn bounded_queue_stalls_admission() {
        let mut e = engine(1);
        let disk_t = Time::from_millis(5);
        let a = e.write(Time::ZERO, 1024, disk_t, 0);
        let b = e.write(Time::ZERO, 1024, disk_t, 0);
        // Depth 1: b may not enter the NIC until a is durable.
        assert!(b.admit >= a.disk_done);
        assert_eq!(b.queue_stall, a.disk_done);
        assert_eq!(a.depth.max(b.depth), 1);
    }

    #[test]
    fn reads_ship_after_disk() {
        let mut e = engine(4);
        let disk_t = Time::from_millis(2);
        let r = e.read(Time::from_millis(1), 4096, disk_t, 0);
        assert_eq!(r.disk_start, Time::from_millis(1));
        assert!(r.nic_start >= r.disk_done);
        assert_eq!(r.nic_done, r.disk_done + e.model().nic.p2p(4096));
    }

    #[test]
    fn cross_stall_attributed_to_other_tags_only() {
        let disk_t = Time::from_millis(5);
        // Same tag back to back: waiting behind your own file is not
        // cross-file contention.
        let mut same = engine(4);
        let a = same.write(Time::ZERO, 4096, disk_t, 7);
        let b = same.write(Time::ZERO, 4096, disk_t, 7);
        assert!(b.disk_start > b.nic_done, "second write waits for the disk");
        assert_eq!(a.cross_stall + b.cross_stall, Time::ZERO);
        // Different tags: the same waits are attributed cross-file, and the
        // stage clocks are identical to the same-tag run.
        let mut diff = engine(4);
        diff.write(Time::ZERO, 4096, disk_t, 7);
        let c = diff.write(Time::ZERO, 4096, disk_t, 8);
        assert_eq!(c.disk_done, b.disk_done, "tags never change timing");
        assert_eq!(
            c.cross_stall,
            (c.nic_start - c.admit) + (c.disk_start - c.nic_done)
        );
        assert!(c.cross_stall > Time::ZERO);
    }

    #[test]
    fn cross_stall_on_queue_blocker_and_reads() {
        let disk_t = Time::from_millis(5);
        let mut e = engine(1);
        e.write(Time::ZERO, 1024, disk_t, 1);
        let b = e.write(Time::ZERO, 1024, disk_t, 2);
        assert!(b.queue_stall > Time::ZERO);
        assert!(b.cross_stall >= b.queue_stall, "queue blocker was file 1");
        let r = e.read(Time::ZERO, 1024, disk_t, 3);
        assert!(r.cross_stall > Time::ZERO, "read waited behind file 2");
    }

    /// A bounded queue never holds more than it was sized for: overlapping
    /// writes (and the reads between them) leave both deques where `new`
    /// put them, also across `reset`.
    #[test]
    fn overlapping_writes_never_grow_a_bounded_engines_deques() {
        let mut e = engine(4);
        let sized = (e.inflight.capacity(), e.disk_busy.capacity());
        assert!(sized.0 >= 5 && sized.1 >= 5, "{sized:?}");
        let mut writes = Vec::new();
        for i in 0..64u64 {
            // Arrivals 1 ms apart against 5 ms of disk each: the queue fills.
            writes.push(e.write(Time::from_millis(i), 4096, Time::from_millis(5), 0));
            if i % 16 == 15 {
                e.read(Time::from_millis(i), 4096, Time::from_millis(1), 0);
            }
            if i == 40 {
                e.reset();
            }
        }
        let deepest = writes.iter().map(|t| t.depth).max();
        assert_eq!(deepest, Some(4), "the writes really overlapped");
        assert!(writes.iter().map(|t| t.queue_stall).sum::<Time>() > Time::ZERO);
        assert_eq!((e.inflight.capacity(), e.disk_busy.capacity()), sized);
        // Unbounded: nothing to size for.
        assert_eq!(passthrough().inflight.capacity(), 0);
    }

    #[test]
    fn reset_clears_clocks() {
        let mut e = engine(2);
        let first = e.write(Time::ZERO, 4096, Time::from_millis(1), 0);
        e.write(Time::ZERO, 4096, Time::from_millis(1), 0);
        e.reset();
        let a = e.write(Time::ZERO, 4096, Time::from_millis(1), 0);
        assert_eq!(a.nic_start, Time::ZERO);
        assert_eq!(
            a.disk_done, first.disk_done,
            "a reset engine is a fresh one"
        );
    }
}
