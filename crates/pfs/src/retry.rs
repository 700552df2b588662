//! The one retry ladder: bounded retry with exponential backoff in
//! *virtual* time, resuming short transfers where they stopped.
//!
//! The fallible `try_*` requests of a [`crate::PfsFile`] stop at the first
//! injected fault (transient EIO, short transfer, latency stall, crashed
//! server). Every caller that wants the request finished anyway climbs the
//! same ladder — the infallible [`crate::PfsFile::write_at`] /
//! [`crate::PfsFile::read_at`] (and through them [`crate::PosixSim`], the
//! serial baseline), and the MPI-IO layer's recovery module, which adds
//! trace spans, failover escalation and its own error type on top:
//!
//! * **Transient / crashed**: retry the remaining bytes after an
//!   exponentially growing backoff, charged to the caller's virtual clock.
//! * **Short transfer**: resume at `completed` — the PFS guarantees it is a
//!   contiguous prefix of the request — and a resumed attempt that made
//!   progress refills the attempt budget, so a long request trickling
//!   forward is never misclassified as dead.
//! * **Budget exhausted**: give up, reporting the attempts made.
//!
//! Every step is tallied in the shared [`hpc_sim::Profile`] fault counters
//! (`retries`, `backoff_time`, `short_completions`).

use hpc_sim::{Profile, Time};

use crate::file::IoFailure;

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

/// Run `attempt(t, resume)` — the request's remaining bytes, from payload
/// position `resume`, issued at time `t` — until it succeeds or `policy`
/// runs out. After each failure `failed(&failure, backoff)` sees the
/// failure and the backoff about to be charged (the next attempt starts at
/// `failure.time + backoff`). Returns the successful attempt's result, or
/// the number of attempts made.
pub fn ladder<T>(
    policy: &RetryPolicy,
    profile: &Profile,
    start: Time,
    mut attempt: impl FnMut(Time, u64) -> Result<T, IoFailure>,
    mut failed: impl FnMut(&IoFailure, Time),
) -> Result<T, u32> {
    let (mut t, mut resume) = (start, 0u64);
    let mut backoff = policy.base_backoff;
    let (mut left, mut made) = (policy.attempts, 0u32);
    while left > 0 {
        let f = match attempt(t, resume) {
            Ok(done) => return Ok(done),
            Err(f) => f,
        };
        profile.record_fault(|c| {
            c.retries += 1;
            c.backoff_nanos += backoff.as_nanos();
            c.short_completions += (f.completed > 0) as u64;
        });
        failed(&f, backoff);
        t = f.time + backoff;
        if f.completed > 0 {
            resume += f.completed;
            backoff = policy.base_backoff;
            left = policy.attempts; // progress refills the budget
        } else {
            backoff = Time::from_nanos((backoff.as_nanos() * 2).min(policy.max_backoff.as_nanos()));
            left -= 1;
        }
        made += 1;
    }
    Err(made)
}
