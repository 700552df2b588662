//! The untraced child: one process runs one workload's warm-ups and timed
//! iterations and prints its samples for the parent to merge.
//!
//! A child per workload per pass keeps `peak_rss_mb` per workload, spreads
//! a workload's samples over the whole run instead of one window, and
//! means only one world (≤ 2 rank threads) is ever running.

use std::time::Instant;

use crate::alloc;
use crate::report::Report;
use crate::sys;
use crate::workload::{self, Inputs, Spec, Tracing};

/// Iterations run and discarded before the clock counts: they fill the
/// allocator's free lists and fault in the input buffers.
pub const WARMUPS: u64 = 2;

/// How long a child measures.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Exactly this many timed iterations.
    Iters(u64),
    /// Timed iterations until this many seconds have passed (at least 3).
    Seconds(f64),
}

impl Budget {
    pub fn done(&self, iters: u64, since: Instant) -> bool {
        match *self {
            Budget::Iters(n) => iters >= n,
            Budget::Seconds(s) => iters >= 3 && since.elapsed().as_secs_f64() >= s,
        }
    }
}

/// Bytes the drift probe copies: past L2 (4 MiB/core on the reference
/// host), and small enough to leave `peak_rss_mb` about the workload.
pub const MEMCPY_BYTES: usize = 16 << 20;

/// The machine-drift probe: one large copy, sampled before every timed
/// iteration, so a reader can tell a slow commit from a slow minute.
pub struct MemcpyProbe {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl MemcpyProbe {
    pub fn new() -> MemcpyProbe {
        MemcpyProbe {
            src: vec![0x5a; MEMCPY_BYTES],
            // Written, not zero-filled: a calloc page is not resident until touched.
            dst: vec![0xa5; MEMCPY_BYTES],
        }
    }

    /// Copy once; GB/s.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.dst.copy_from_slice(std::hint::black_box(&self.src));
        std::hint::black_box(&mut self.dst);
        MEMCPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9
    }
}

/// Run the workload untraced and return what was measured.
pub fn run(spec: &Spec, seed: u64, budget: Budget, quick: bool) -> Report {
    let mut rep = Report::default();
    let inputs = Inputs::generate(spec, seed);
    rep.value("input_gen_s", inputs.gen_s);
    let mut probe = MemcpyProbe::new();

    let mut last: Option<workload::Outcome> = None;
    let warmups = if quick { 1 } else { WARMUPS };
    for i in 0..warmups {
        let out = workload::run_iteration(spec, &inputs, Tracing::default());
        check(&mut rep, spec, &inputs, &out, i);
    }
    let started = Instant::now();
    let mut iters = 0;
    while !budget.done(iters, started) {
        // Free the previous iteration's file system first: two alive at
        // once would double the peak memory metrics.
        drop(last.take());
        rep.sample("host.memcpy_gb_s", probe.sample());
        // The high-water mark starts here, so `peak_heap_mb` is what the
        // iteration adds on top of the inputs and the probe, and is read
        // before any check allocates.
        let (a0, p0) = (alloc::reset_peak(), sys::proc_stat());
        let out = workload::run_iteration(spec, &inputs, Tracing::default());
        let (a1, p1) = (alloc::snapshot(), sys::proc_stat());
        if out.failed == 0 {
            let t = &out.times;
            rep.sample("setup_s", t.setup_s);
            rep.sample("host_write_s", t.host_write_s);
            rep.sample("host_read_s", t.host_read_s);
            rep.sample("host_iter_s", t.host_iter_s);
            rep.sample("sim_write_ns", t.sim_write_ns as f64);
            rep.sample("sim_read_ns", t.sim_read_ns as f64);
            let (bytes, calls) = a1.since(&a0);
            rep.sample("alloc_bytes", bytes as f64);
            rep.sample("alloc_calls", calls as f64);
            rep.sample("peak_heap_bytes", (a1.peak - a0.live) as f64);
            rep.sample("minflt", (p1.minflt - p0.minflt) as f64);
            rep.sample("cpu_s", p1.cpu_s - p0.cpu_s);
        }
        check(&mut rep, spec, &inputs, &out, warmups + iters);
        iters += 1;
        last = Some(out);
    }
    // Before the cross-read: that holds the whole array twice over.
    rep.value("peak_rss_mb", sys::peak_rss_mib());
    if let Some(out) = last {
        let (a, f) = workload::cross_read(spec, &inputs, &out.pfs);
        rep.ops(a, f, "netcdf-serial cross-read of the final file differs");
    }
    rep
}

/// Count the iteration's own calls, then compare what it read back.
fn check(rep: &mut Report, spec: &Spec, inputs: &Inputs, out: &workload::Outcome, iter: u64) {
    out.tally(rep);
    if out.failed == 0 {
        let (a, f) = workload::verify_iteration(spec, inputs, out, iter);
        rep.ops(a, f, "read-back differs from what was written");
    }
}
