//! Fault recovery for the MPI-IO layer: bounded retry with exponential
//! backoff in *virtual* time, plus short-I/O completion loops.
//!
//! The simulated PFS ([`pnetcdf_pfs`]) can inject typed faults (transient
//! EIO, short transfers, latency stalls, server crashes) through its
//! fallible `try_write_at` / `try_read_at` API. This module is the ROMIO-ish
//! recovery policy layered on top:
//!
//! * **Transient / crashed**: retry the remaining bytes after an
//!   exponentially growing backoff (charged to the caller's virtual clock,
//!   so recovery time shows up in the disk phases of the profile).
//! * **Short transfer**: resume at `offset + completed` — the PFS
//!   guarantees `completed` is a contiguous file-order prefix — and a
//!   resumed attempt that made progress refills the attempt budget, so a
//!   long request trickling forward is never misclassified as dead.
//! * **Budget exhausted**: give up with [`MpioError::Exhausted`] carrying
//!   the attempt count; collective paths turn this into one agreed error
//!   on every rank (no hangs, no divergent returns).
//!
//! All recovery activity is tallied in the shared
//! [`hpc_sim::Profile`] fault counters (`retries`, `backoff_time`,
//! `short_completions`, `exhausted`).

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{FaultKind, Span, Time, TraceCtx};
use pnetcdf_pfs::{IoFailure, PfsFile, WriteCompletion};

use crate::error::{MpioError, MpioResult};

/// Bounded-retry policy. The budget is per *stall*: any attempt that moves
/// bytes forward (a short completion) resets the remaining-attempt counter,
/// so only consecutive zero-progress failures count against it.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Consecutive zero-progress attempts tolerated before giving up.
    pub attempts: u32,
    /// First backoff delay.
    pub base_backoff: Time,
    /// Backoff ceiling (doubling stops here).
    pub max_backoff: Time,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 12,
            base_backoff: Time::from_micros(50),
            max_backoff: Time::from_millis(50),
        }
    }
}

impl RetryPolicy {
    fn next_backoff(&self, b: Time) -> Time {
        Time::from_nanos((b.as_nanos() * 2).min(self.max_backoff.as_nanos()))
    }
}

/// Record one recovery step in the shared profile, and span the backoff
/// interval on the ambient request's timeline (parented to its window or
/// independent-request span, so the critical-path analyzer can charge
/// retry backoff against the right collective window).
fn record_retry(file: &PfsFile, failure: &IoFailure, backoff: Time) {
    file.profile().record_fault(|f| {
        f.retries += 1;
        f.backoff_nanos += backoff.as_nanos();
        if failure.completed > 0 {
            f.short_completions += 1;
        }
    });
    let events = file.events();
    if events.is_enabled() {
        if let Some((rank, parent)) = TraceCtx::current() {
            events.record(
                Span::new(
                    rank,
                    layer::RETRY,
                    "backoff",
                    failure.time.as_nanos(),
                    (failure.time + backoff).as_nanos(),
                )
                .with_parent(parent)
                .with_stage(stage::RETRY)
                .with_arg("server", failure.server as u64)
                .with_arg("completed", failure.completed),
            );
        }
    }
}

/// Record a final give-up in the shared profile.
fn record_exhausted(file: &PfsFile) {
    file.profile().record_fault(|f| f.exhausted += 1);
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
        record_exhausted(file);
        if let Some(server) = self.crash {
            if file.can_failover(server) {
                return MpioError::ServerLost { server, message };
            }
        }
        MpioError::Exhausted { attempts, message }
    }
}

/// Write `data` at `offset` with fault recovery. Returns the completion
/// time, or [`MpioError::Exhausted`] once `policy.attempts` consecutive
/// zero-progress attempts have failed.
pub fn write_at(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    offset: u64,
    data: &[u8],
) -> MpioResult<Time> {
    let mut t = start;
    let mut resume = 0usize;
    let mut backoff = policy.base_backoff;
    let mut left = policy.attempts;
    let mut made = 0u32;
    let mut esc = Escalation::default();
    while left > 0 {
        match file.try_write_at(t, offset + resume as u64, &data[resume..]) {
            Ok(done) => return Ok(done),
            Err(f) => {
                esc.observe(&f);
                record_retry(file, &f, backoff);
                t = f.time + backoff;
                if f.completed > 0 {
                    resume += f.completed as usize;
                    backoff = policy.base_backoff;
                    left = policy.attempts; // progress refills the budget
                } else {
                    backoff = policy.next_backoff(backoff);
                    left -= 1;
                }
                made += 1;
            }
        }
    }
    Err(esc.give_up(
        file,
        made,
        format!(
            "write of {} bytes at offset {offset} of '{}'",
            data.len(),
            file.name()
        ),
    ))
}

/// Like [`write_at`] but keeps the two-stage completion: `handoff` (server
/// NIC owns the bytes, the bounded admission queue is the backpressure) and
/// `durable` (disk has them). Pipelined two-phase advances an aggregator's
/// clock on `handoff` and only drains `durable` at the end of the
/// collective.
pub fn write_at_detailed(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    offset: u64,
    data: &[u8],
) -> MpioResult<WriteCompletion> {
    let mut t = start;
    let mut resume = 0usize;
    let mut backoff = policy.base_backoff;
    let mut left = policy.attempts;
    let mut made = 0u32;
    let mut esc = Escalation::default();
    while left > 0 {
        match file.try_write_at_detailed(t, offset + resume as u64, &data[resume..]) {
            Ok(done) => return Ok(done),
            Err(f) => {
                esc.observe(&f);
                record_retry(file, &f, backoff);
                t = f.time + backoff;
                if f.completed > 0 {
                    resume += f.completed as usize;
                    backoff = policy.base_backoff;
                    left = policy.attempts;
                } else {
                    backoff = policy.next_backoff(backoff);
                    left -= 1;
                }
                made += 1;
            }
        }
    }
    Err(esc.give_up(
        file,
        made,
        format!(
            "write of {} bytes at offset {offset} of '{}'",
            data.len(),
            file.name()
        ),
    ))
}

/// Drop the leading `skip` payload bytes from `runs` (run order), returning
/// the trimmed tail. Resuming a short vectored write re-issues exactly the
/// bytes the PFS has not guaranteed.
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

/// Vectored write of sorted disjoint `(offset, len)` runs holding the
/// concatenated `data`, with the same fault recovery as [`write_at`]. The
/// runs are coalesced into one PFS request per server
/// ([`PfsFile::try_write_runs`]) — this is the aggregator fast path for
/// server-affine collective-buffer windows.
pub fn write_runs(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    runs: &[(u64, u64)],
    data: &[u8],
) -> MpioResult<WriteCompletion> {
    let total: u64 = runs.iter().map(|&(_, len)| len).sum();
    let mut t = start;
    let mut resume = 0u64;
    let mut backoff = policy.base_backoff;
    let mut left = policy.attempts;
    let mut made = 0u32;
    let mut esc = Escalation::default();
    // The trimmed tail exists only once a short completion has moved the
    // resume point; the fault-free path hands `runs` through untouched.
    let mut tail: Option<Vec<(u64, u64)>> = None;
    while left > 0 {
        let pending = tail.as_deref().unwrap_or(runs);
        match file.try_write_runs(t, pending, &data[resume as usize..]) {
            Ok(done) => return Ok(done),
            Err(f) => {
                esc.observe(&f);
                record_retry(file, &f, backoff);
                t = f.time + backoff;
                if f.completed > 0 {
                    resume += f.completed;
                    tail = Some(trim_runs(runs, resume));
                    backoff = policy.base_backoff;
                    left = policy.attempts;
                } else {
                    backoff = policy.next_backoff(backoff);
                    left -= 1;
                }
                made += 1;
            }
        }
    }
    Err(esc.give_up(
        file,
        made,
        format!(
            "vectored write of {total} bytes in {} runs of '{}'",
            runs.len(),
            file.name()
        ),
    ))
}

/// Read into `buf` from `offset` with fault recovery; same policy as
/// [`write_at`].
pub fn read_at(
    file: &PfsFile,
    policy: &RetryPolicy,
    start: Time,
    offset: u64,
    buf: &mut [u8],
) -> MpioResult<Time> {
    let len = buf.len();
    let mut t = start;
    let mut resume = 0usize;
    let mut backoff = policy.base_backoff;
    let mut left = policy.attempts;
    let mut made = 0u32;
    let mut esc = Escalation::default();
    while left > 0 {
        match file.try_read_at(t, offset + resume as u64, &mut buf[resume..]) {
            Ok(done) => return Ok(done),
            Err(f) => {
                esc.observe(&f);
                record_retry(file, &f, backoff);
                t = f.time + backoff;
                if f.completed > 0 {
                    resume += f.completed as usize;
                    backoff = policy.base_backoff;
                    left = policy.attempts;
                } else {
                    backoff = policy.next_backoff(backoff);
                    left -= 1;
                }
                made += 1;
            }
        }
    }
    Err(esc.give_up(
        file,
        made,
        format!(
            "read of {len} bytes at offset {offset} of '{}'",
            file.name()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::{CrashSpec, FaultPlan, SimConfig};
    use pnetcdf_pfs::{Pfs, StorageMode};

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
        let t = write_at(&f, &policy, Time::ZERO, 7, &data).expect("write should recover");
        let mut out = vec![0u8; data.len()];
        read_at(&f, &policy, t, 7, &mut out).expect("read should recover");
        assert_eq!(out, data);
        let fc = cfg.profile.fault_counters();
        assert!(fc.retries > 0);
        assert!(fc.backoff_nanos > 0);
        assert_eq!(fc.exhausted, 0);
    }

    #[test]
    fn vectored_write_recovers_and_matches() {
        let (f, cfg) = faulty_file(FaultPlan {
            transient: 0.25,
            short: 0.25,
            ..FaultPlan::default()
        });
        let policy = RetryPolicy::default();
        let runs = [(0u64, 3000u64), (5000, 2000), (9000, 4000)];
        let data: Vec<u8> = (0..9000u32).map(|i| (i * 11 % 251) as u8).collect();
        let c = write_runs(&f, &policy, Time::ZERO, &runs, &data).expect("should recover");
        assert!(c.handoff <= c.durable);
        let mut pos = 0usize;
        for &(off, len) in &runs {
            let mut out = vec![0u8; len as usize];
            read_at(&f, &policy, c.durable, off, &mut out).unwrap();
            assert_eq!(out, &data[pos..pos + len as usize]);
            pos += len as usize;
        }
        assert!(cfg.profile.fault_counters().retries > 0);
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
        let err = write_at(&f, &policy, Time::ZERO, 0, &[1u8; 8192]).unwrap_err();
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
        let t = write_at(&f, &policy, Time::ZERO, 0, &data).expect("restart should save it");
        assert!(t >= Time::from_millis(1));
        let mut out = vec![0u8; data.len()];
        read_at(&f, &policy, t, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }
}
