//! What the kernel counts for this process, read from `/proc/self` (the
//! container has no `libc` crate, and these files carry the same counters
//! `getrusage` returns: `ru_minflt`, `ru_utime + ru_stime`, peak RSS).

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 on every architecture this repository builds on.
const TICKS_PER_S: f64 = 100.0;

/// Process-wide counters (all threads, live and exited).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    /// Minor page faults (`ru_minflt`).
    pub minflt: u64,
    /// User + system CPU seconds, in 10 ms ticks.
    pub cpu_s: f64,
}

/// Read `/proc/self/stat`; zeros when the file is unreadable (non-Linux).
pub fn proc_stat() -> ProcStat {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return ProcStat::default();
    };
    // `pid (comm) state ppid ...`: comm may hold spaces and parentheses,
    // so fields are counted from the last ')'.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return ProcStat::default();
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // After comm: state=0 ppid=1 pgrp=2 session=3 tty=4 tpgid=5 flags=6
    // minflt=7 cminflt=8 majflt=9 cmajflt=10 utime=11 stime=12.
    ProcStat {
        minflt: num(7),
        cpu_s: (num(11) + num(12)) as f64 / TICKS_PER_S,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touching_fresh_pages_raises_minflt_and_hwm() {
        let _g = crate::alloc::serial(); // 32 MiB would show in the allocator's tests
        let before = proc_stat();
        let mut v = vec![0u8; 32 << 20];
        for page in v.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&v);
        let after = proc_stat();
        if after.minflt == 0 {
            return; // no /proc here: nothing to check
        }
        // 32 MiB is 8192 small pages; huge pages would fault fewer times,
        // so only require growth.
        assert!(after.minflt > before.minflt);
        assert!(peak_rss_mib() >= 32.0);
    }
}
