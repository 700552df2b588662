//! Fault recovery for the MPI-IO layer, on top of the one retry ladder
//! ([`pnetcdf_pfs::ladder`]): bounded retry with exponential backoff in
//! *virtual* time, plus short-I/O resumption.
//!
//! The simulated PFS ([`pnetcdf_pfs`]) can inject typed faults (transient
//! EIO, short transfers, latency stalls, server crashes) through its
//! fallible `try_write` / `try_read` doors, and its ladder retries a
//! request until it completes or the per-stall budget of the
//! [`RetryPolicy`] runs out (a transfer that moved bytes refills it), with
//! every backoff charged to the caller's virtual clock — so recovery time
//! shows up in the disk phases of the profile — and tallied in the shared
//! [`hpc_sim::Profile`] fault counters. There is one entry per direction,
//! [`write()`] and [`read`], each a run list with a segment list as its
//! memory: a gather list to write from, a scatter list to read into. A short
//! transfer resumes by skipping the payload bytes the PFS guaranteed, and
//! only then are trimmed lists built. This module adds what
//! only MPI-IO knows:
//!
//! * **Spans**: each backoff is recorded on the ambient request's
//!   timeline, parented to its window or independent-request span.
//! * **Escalation**: a streak of failures on *one crashed server* that
//!   exhausts the budget becomes [`MpioError::ServerLost`] when the parity
//!   layer can cover that server.
//! * **Budget exhausted**: otherwise give up with [`MpioError::Exhausted`]
//!   carrying the attempt count (and count it in `exhausted`); collective
//!   paths turn this into one agreed error on every rank (no hangs, no
//!   divergent returns).

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{FaultKind, Span, Time, TraceCtx};
use pnetcdf_pfs::{ladder, IoFailure, PfsFile, Seg, WriteCompletion};

pub use pnetcdf_pfs::RetryPolicy;

use crate::error::{MpioError, MpioResult};

/// Span one backoff interval on the ambient request's timeline (parented to
/// its window or independent-request span, so the critical-path analyzer
/// can charge retry backoff against the right collective window).
fn record_backoff(file: &PfsFile, failure: &IoFailure, backoff: Time) {
    let events = file.events();
    if !events.is_enabled() {
        return;
    }
    if let Some((rank, parent)) = TraceCtx::current() {
        let (begin, end) = (failure.time, failure.time + backoff);
        events.record(
            Span::new(
                rank,
                layer::RETRY,
                "backoff",
                begin.as_nanos(),
                end.as_nanos(),
            )
            .with_parent(parent)
            .with_stage(stage::RETRY)
            .with_arg("server", failure.server as u64)
            .with_arg("completed", failure.completed),
        );
    }
}

/// Tracks whether the failure streak that is about to exhaust the budget
/// was caused by *one crashed server* — the precondition for escalating to
/// server failover instead of a terminal `Exhausted`.
#[derive(Clone, Copy, Default)]
struct Escalation {
    crash: Option<usize>,
}

impl Escalation {
    fn observe(&mut self, f: &IoFailure) {
        self.crash = match (f.kind, self.crash) {
            (FaultKind::Crashed, None) => Some(f.server),
            (FaultKind::Crashed, Some(s)) if s == f.server => Some(s),
            // Two distinct crashed servers, or a non-crash fault broke the
            // streak: single-parity failover cannot help.
            _ => None,
        };
    }

    /// The terminal error once the budget is gone: `ServerLost` when the
    /// whole streak hit one crashed server and the parity layer can cover
    /// it, plain `Exhausted` otherwise. Either way the ladder *did*
    /// exhaust, so the fault counter records it.
    fn give_up(self, file: &PfsFile, attempts: u32, message: String) -> MpioError {
        file.profile().record_fault(|f| f.exhausted += 1);
        if let Some(server) = self.crash {
            if file.pfs().can_failover(server) {
                return MpioError::ServerLost { server, message };
            }
        }
        MpioError::Exhausted { attempts, message }
    }
}

/// Climb the ladder with `attempt(t, resume)` from `start`; `what`
/// describes the request should it have to be given up.
fn climb<T>(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    attempt: impl FnMut(Time, u64) -> Result<T, IoFailure>,
    what: impl FnOnce() -> String,
) -> MpioResult<T> {
    let mut esc = Escalation::default();
    let failed = |f: &IoFailure, backoff: Time| {
        esc.observe(f);
        record_backoff(file, f, backoff);
    };
    ladder(policy, file.profile(), start, attempt, failed)
        .map_err(|attempts| esc.give_up(file, attempts, format!("{} of '{}'", what(), file.name())))
}

/// Write the sorted disjoint `(offset, len)` runs `runs` (one when
/// contiguous), their payload the concatenation of the gather list `segs`
/// (each segment converted as it is stored, [`Seg`]), with fault recovery:
/// the door every writer leaves through ([`PfsFile::try_write`]). Returns
/// the two-stage completion: `handoff` (server NIC owns the bytes, the
/// bounded admission queue is the backpressure) and `durable` (disk has
/// them) — pipelined two-phase and the page cache's write-behind advance on
/// `handoff`, everyone else takes `durable`. Or [`MpioError::Exhausted`] once `policy.attempts`
/// consecutive zero-progress attempts have failed.
pub fn write(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    runs: &[(u64, u64)],
    segs: &[Seg<'_>],
) -> MpioResult<WriteCompletion> {
    // The trimmed lists exist only once a short completion has moved the
    // resume point; the fault-free path lends `runs` and `segs` as they are.
    let (mut tail, mut trimmed) = ((Vec::new(), Vec::new()), 0u64);
    let attempt = |t, resume: u64| {
        if resume == 0 {
            return file.try_write(t, runs, segs);
        }
        if resume != trimmed {
            (tail, trimmed) = ((trim_runs(runs, resume), skip_bytes(segs, resume)), resume);
        }
        file.try_write(t, &tail.0, &tail.1)
    };
    // An agreed error's text is its allgather payload, so it is on the
    // clock: the wording stays.
    let what = || {
        let len: u64 = runs.iter().map(|&(_, len)| len).sum();
        format!("vectored write of {len} bytes in {} runs", runs.len())
    };
    climb(file, policy, start, attempt, what)
}

/// The gather list `segs` without its first `skip` payload bytes: what a
/// resumed short write re-issues. A segment the resume point cuts inside an
/// element keeps that element and its phase in it.
fn skip_bytes<'a>(segs: &[Seg<'a>], skip: u64) -> Vec<Seg<'a>> {
    let mut skip = skip as usize;
    let tail = |seg: &Seg<'a>| {
        let cut = skip.min(seg.len());
        skip -= cut;
        seg.sub(cut, seg.len() - cut)
    };
    segs.iter().map(tail).collect()
}

/// Drop the leading `skip` payload bytes from `runs` (run order), returning
/// the trimmed tail: with [`skip_bytes`], exactly the bytes the PFS has not
/// guaranteed.
fn trim_runs(runs: &[(u64, u64)], skip: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(runs.len());
    let mut remaining = skip;
    for &(off, len) in runs {
        if remaining >= len {
            remaining -= len;
        } else {
            out.push((off + remaining, len - remaining));
            remaining = 0;
        }
    }
    out
}

/// Read the sorted disjoint `(offset, len)` runs `runs` (one when
/// contiguous) into the scatter list `segs`, which their bytes fill in run
/// order, with fault recovery: the door every reader leaves through
/// ([`PfsFile::try_read`]), the mirror of [`write()`] under the same policy.
/// A short read resumes at the first payload byte the PFS has not
/// guaranteed, inside a segment if that is where it lies.
pub fn read(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    runs: &[(u64, u64)],
    segs: &mut [&mut [u8]],
) -> MpioResult<Time> {
    let attempt = |t, resume: u64| {
        if resume == 0 {
            return file.try_read(t, runs, segs);
        }
        let mut skip = resume as usize;
        let mut tail: Vec<&mut [u8]> = segs
            .iter_mut()
            .map(|seg| {
                let cut = skip.min(seg.len());
                skip -= cut;
                &mut seg[cut..]
            })
            .collect();
        file.try_read(t, &trim_runs(runs, resume), &mut tail)
    };
    // An agreed error's text is its allgather payload, so it is on the
    // clock: the wording stays.
    let what = || {
        let len: u64 = runs.iter().map(|&(_, len)| len).sum();
        format!(
            "read of {len} bytes at offset {}",
            runs.first().map_or(0, |r| r.0)
        )
    };
    climb(file, policy, start, attempt, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::{CrashSpec, FaultPlan, SimConfig};
    use pnetcdf_pfs::{Pfs, StorageMode};

    /// [`read`] of one contiguous run into one buffer.
    fn read_at(
        file: &PfsFile,
        policy: &RetryPolicy,
        start: Time,
        offset: u64,
        buf: &mut [u8],
    ) -> MpioResult<Time> {
        read(
            file,
            policy,
            start,
            &[(offset, buf.len() as u64)],
            &mut [buf],
        )
    }

    fn faulty_file(plan: FaultPlan) -> (PfsFile, SimConfig) {
        let mut cfg = SimConfig::test_small();
        cfg.faults = plan;
        cfg.profile.set_enabled(true);
        let f = Pfs::new(cfg.clone(), StorageMode::Full).create("r");
        (f, cfg)
    }

    #[test]
    fn recovers_transients_and_shorts() {
        let (f, cfg) = faulty_file(FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        });
        let policy = RetryPolicy::default();
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
        let t = write(&f, &policy, Time::ZERO, &[(7, 30_000)], &[(&data).into()])
            .expect("write should recover")
            .durable;
        let mut out = vec![0u8; data.len()];
        read_at(&f, &policy, t, 7, &mut out).expect("read should recover");
        assert_eq!(out, data);
        let fc = cfg.profile.fault_counters();
        assert!(fc.retries > 0);
        assert!(fc.backoff_nanos > 0);
        assert_eq!(fc.exhausted, 0);
    }

    /// The infallible `PfsFile::{write_at, read_at}` (the serial baseline's
    /// path) and this module climb the same ladder: under one fault seed
    /// they make the same attempts at the same virtual times, pay the same
    /// backoffs and land the same bytes.
    #[test]
    fn pfs_and_mpio_entry_points_climb_the_same_ladder() {
        let plan = FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        };
        let data: Vec<u8> = (0..30_000u32).map(|i| (i % 253) as u8).collect();
        let policy = RetryPolicy::default();

        let (ours, our_cfg) = faulty_file(plan.clone());
        let t_w = write(
            &ours,
            &policy,
            Time::ZERO,
            &[(7, 30_000)],
            &[(&data).into()],
        )
        .unwrap()
        .durable;
        let mut our_bytes = vec![0u8; data.len()];
        let t_r = read_at(&ours, &policy, t_w, 7, &mut our_bytes).unwrap();

        let (theirs, their_cfg) = faulty_file(plan);
        assert_eq!(theirs.write_at(Time::ZERO, 7, &data), t_w);
        let mut their_bytes = vec![0u8; data.len()];
        assert_eq!(theirs.read_at(t_w, 7, &mut their_bytes), t_r);

        assert_eq!(our_bytes, their_bytes);
        let (a, b) = (
            our_cfg.profile.fault_counters(),
            their_cfg.profile.fault_counters(),
        );
        assert!(a.retries > 4 && a.short_completions > 0, "{a:?}");
        assert_eq!(
            (
                a.faults_injected,
                a.retries,
                a.backoff_nanos,
                a.short_completions
            ),
            (
                b.faults_injected,
                b.retries,
                b.backoff_nanos,
                b.short_completions
            )
        );
    }

    /// A run list whose gather list is cut inside runs, under transient and
    /// short faults: the one entry resumes both lists at the same payload
    /// byte, the bytes land, and the completion and every fault counter are
    /// those of the one-segment payload under the same plan.
    #[test]
    fn vectored_write_recovers_and_matches() {
        let plan = FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy::default();
        let runs = [(0u64, 3000u64), (5000, 2000), (9000, 4000)];
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 11 % 251) as u8).collect();
        let cut: [Seg; 5] = [
            (&data[..1000]).into(),
            (&data[1000..3500]).into(),
            (&[]).into(),
            (&data[3500..8999]).into(),
            (&data[8999..]).into(),
        ];
        let mut seen = Vec::new();
        for segs in [&[(&data).into()][..], &cut[..]] {
            let (f, cfg) = faulty_file(plan.clone());
            let c = write(&f, &policy, Time::ZERO, &runs, segs).expect("should recover");
            assert!(c.handoff <= c.durable);
            let mut pos = 0usize;
            for &(off, len) in &runs {
                let mut out = vec![0u8; len as usize];
                read_at(&f, &policy, c.durable, off, &mut out).unwrap();
                assert_eq!(out, &data[pos..pos + len as usize]);
                pos += len as usize;
            }
            let fc = cfg.profile.fault_counters();
            assert!(fc.retries > 0 && fc.short_completions > 0, "{fc:?}");
            seen.push((c.handoff, c.durable, fc));
        }
        assert_eq!(seen[0], seen[1]);
    }

    /// A holed run list read into a scatter list cut inside runs (an empty
    /// segment too), under transient and short faults: the bytes are the
    /// fault-free file's, some short read resumed inside a segment, and the
    /// completion and every fault counter are those of the one-segment read
    /// under the same plan.
    #[test]
    fn vectored_read_recovers_and_matches() {
        let plan = FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy::default();
        let runs = [(0u64, 3000u64), (5000, 2000), (9000, 4000)];
        let content: Vec<u8> = (0..13_000u32).map(|i| (i * 11 % 251) as u8 + 1).collect();
        let want: Vec<u8> = runs
            .iter()
            .flat_map(|&(off, len)| &content[off as usize..(off + len) as usize])
            .copied()
            .collect();
        let cut = [1000usize, 3500, 3500, 8999];
        let mut seen = Vec::new();
        for bounds in [&[][..], &cut[..]] {
            let (f, cfg) = faulty_file(plan.clone());
            f.import_bytes(&content);
            cfg.events.set_enabled(true);
            let _ctx = TraceCtx::enter(0, 1);
            let mut out = vec![0u8; want.len()];
            let mut segs: Vec<&mut [u8]> = Vec::new();
            let mut rest = &mut out[..];
            let mut at = 0;
            for &b in bounds {
                let (seg, tail) = std::mem::take(&mut rest).split_at_mut(b - at);
                segs.push(seg);
                (rest, at) = (tail, b);
            }
            segs.push(rest);
            let t = read(&f, &policy, Time::ZERO, &runs, &mut segs).expect("should recover");
            assert_eq!(out, want);
            let fc = cfg.profile.fault_counters();
            assert!(fc.retries > 0 && fc.short_completions > 0, "{fc:?}");
            // Each backoff span carries the bytes its failed attempt
            // guaranteed; their running sum is where the next one resumed.
            let resumed: Vec<usize> = (cfg.events.snapshot().spans.iter())
                .filter(|s| s.name == "backoff")
                .scan(0, |at, s| {
                    *at += s.arg("completed").unwrap() as usize;
                    Some(*at)
                })
                .collect();
            let inside = resumed
                .iter()
                .any(|r| !bounds.contains(r) && r % want.len() != 0);
            assert!(
                inside || bounds.is_empty(),
                "no read resumed inside a segment: {resumed:?}"
            );
            seen.push((t, fc));
        }
        assert_eq!(seen[0], seen[1]);
    }

    #[test]
    fn permanent_crash_exhausts_in_bounded_virtual_time() {
        let (f, cfg) = faulty_file(FaultPlan {
            crashes: vec![CrashSpec {
                server: 0,
                at: Time::ZERO,
                restart: None,
            }],
            ..FaultPlan::default()
        });
        let policy = RetryPolicy::default();
        let err = write(
            &f,
            &policy,
            Time::ZERO,
            &[(0, 8192)],
            &[(&[1u8; 8192]).into()],
        )
        .unwrap_err();
        match err {
            MpioError::Exhausted { attempts, .. } => assert!(attempts >= policy.attempts),
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert!(cfg.profile.fault_counters().exhausted > 0);
    }

    #[test]
    fn crash_with_restart_recovers() {
        // Server 0 is down from t=0 and restarts at 1 ms; the backoff
        // schedule walks past the outage and the write completes.
        let (f, _cfg) = faulty_file(FaultPlan {
            crashes: vec![CrashSpec {
                server: 0,
                at: Time::ZERO,
                restart: Some(Time::from_millis(1)),
            }],
            ..FaultPlan::default()
        });
        let policy = RetryPolicy::default();
        let data = vec![9u8; 8192];
        let t = write(&f, &policy, Time::ZERO, &[(0, 8192)], &[(&data).into()])
            .expect("restart should save it")
            .durable;
        assert!(t >= Time::from_millis(1));
        let mut out = vec![0u8; data.len()];
        read_at(&f, &policy, t, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }
}
