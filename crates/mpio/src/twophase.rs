//! Two-phase collective I/O (Rosario/Bordawekar/Choudhary; Thakur's extended
//! two-phase method — the ROMIO algorithm the paper builds on).
//!
//! Phase 1 — *exchange*: the aggregate byte range requested by all ranks is
//! partitioned into **file domains**, one per aggregator rank; every rank
//! ships the parts of its request that fall in each domain to that domain's
//! aggregator. A write partitions by owning server: aggregator `a` owns the
//! stripes of the servers `{s : s % naggs == a}`, so every server sees one
//! aggregator stream. A read partitions contiguously: even, stripe-aligned
//! blocks of the range (ROMIO's domains).
//!
//! Phase 2 — *access*: each aggregator walks its domain in collective-buffer
//! sized windows. A write window leaves as one request per server whose
//! gather list takes every piece straight from its rank's payload and only
//! the holes from a read-modify-write read; a read window is one spanning
//! read that scatters every piece straight into its rank's memory.
//! Either way, the many small noncontiguous per-rank requests become a few
//! large ordered ones — this is the optimization responsible for PnetCDF's
//! scaling in Figures 6 and 7. A window's access is the step a sieve window
//! takes too (`CollBuf::write_window`, `CollBuf::read_window` in
//! [`crate::sieve`]), on the open file's one buffer. The collective's
//! finisher holds that buffer's lock, which is also the sieve's extent lock,
//! for the whole collective. This module adds each window's pack charge and
//! the per-aggregator accounting.
//!
//! The whole algorithm runs inside the last-arriver closure of a collective
//! rendezvous ([`pnetcdf_mpi::comm::Comm::collective`]), which makes the
//! virtual-time accounting deterministic: aggregator timelines all start at
//! the synchronized time `t0` and advance through the shared server queues
//! in rank order.

use hpc_sim::trace::events::{layer, stage};
use hpc_sim::{Phase, Profile, Span, Time, TraceCtx, TraceLog};
use pnetcdf_mpi::{CollEnv, Loan};
use pnetcdf_pfs::PfsFile;

use crate::error::MpioResult;
use crate::runs::{runs_total, Run};
use crate::sieve::{CollBuf, Piece};

/// Parameters resolved from hints at the call site.
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseParams {
    /// Collective buffer (window) size per aggregator.
    pub cb_buffer_size: usize,
    /// `cb_nodes` hint; `None` gives one aggregator per I/O server, at most
    /// one per rank, whatever the collective's size ([`Self::naggs`]).
    pub cb_nodes: Option<usize>,
    /// Number of PFS I/O servers: the aggregator default, and a write's
    /// domains, which map each stripe to its server's aggregator.
    pub io_servers: usize,
    /// File system stripe size: write domains are whole stripes, read
    /// domain boundaries align to it.
    pub stripe: u64,
    /// Pipeline the rounds (`pnc_cb_pipeline`): each aggregator holds two
    /// collective buffers, so round `j`'s data exchange overlaps round
    /// `j-1`'s disk access. Off reproduces the serial exchange-then-access
    /// timing exactly.
    pub pipeline: bool,
}

impl TwoPhaseParams {
    /// Aggregator count over `nprocs` ranks: the `cb_nodes` hint if given,
    /// otherwise one aggregator stream per I/O server — every server's
    /// pipeline fed, none with a second stream queued behind its disk —
    /// as ROMIO derives `cb_nodes` from the hosts. `cb_buffer_size` sets
    /// only the window size, and so the number of rounds.
    pub fn naggs(&self, nprocs: usize) -> usize {
        self.cb_nodes.unwrap_or(self.io_servers).min(nprocs).max(1)
    }
}

// ---- lent requests ----------------------------------------------------------

/// One rank's share of a collective access, lent through the rendezvous for
/// the duration of the call: `meta` is its sorted run list, `src` its write
/// payload — the run bytes in run order, as a gather list of segments laid
/// end to end (empty for a read) — `dst` where a read delivers the run
/// bytes in run order (empty for a write), and `tag` its ambient trace id
/// (0 while tracing is off). The id rides the loan because the collective's
/// finish closure runs on ONE thread for all ranks — thread-local
/// [`TraceCtx`] cannot carry a rank's id across the rendezvous.
///
/// `aux` is the element width of a write payload: every segment of `src`
/// holds whole elements that wide in *host* byte order and the file
/// receives them big-endian (the PFS converts each piece as it stores it,
/// [`pnetcdf_pfs::Seg`]). Width 1 — or 0, what a read lends — says `src` is
/// already what the file is to hold.
///
/// Nothing here is copied by the engine: a write window lends the PFS each
/// segment, and a read window each `dst`, where the rank keeps it.
pub type Req<'a> = Loan<'a, [Run]>;

// ---- file domains -----------------------------------------------------------

/// Partition `[gmin, gmax)` into at most `naggs` contiguous domains whose
/// interior boundaries are *absolute* multiples of `stripe`: a read's file
/// domains (and those of a write past `AFFINE_SPAN_LIMIT`).
///
/// Absolute alignment matters: GPFS-style file systems read-modify-write
/// partial blocks, so domain (and window) boundaries must coincide with
/// file-system block boundaries, not with the (arbitrary) start of the
/// aggregate request. Only the outermost edges at `gmin`/`gmax` can be
/// unaligned.
pub fn file_domains(gmin: u64, gmax: u64, naggs: usize, stripe: u64) -> Vec<(u64, u64)> {
    assert!(gmax >= gmin);
    let span = gmax - gmin;
    if span == 0 {
        return Vec::new();
    }
    let raw = span.div_ceil(naggs as u64);
    let dsz = raw.div_ceil(stripe).max(1) * stripe;
    // First interior boundary: the first absolute stripe multiple > gmin.
    let first_boundary = (gmin / stripe + 1) * stripe;
    let mut out = Vec::new();
    let mut lo = gmin;
    let mut boundary = first_boundary + (dsz - stripe);
    while lo < gmax {
        let hi = boundary.min(gmax);
        if hi > lo {
            out.push((lo, hi));
        }
        lo = hi;
        boundary += dsz;
    }
    out
}

/// Exchange wire statistics of a span of rounds: what ships into (writes)
/// or out of (reads) those rounds' windows.
#[derive(Clone, Copy, Debug, Default)]
struct Wire {
    /// Busiest non-aggregator endpoint: bytes one rank moves.
    max_send: u64,
    /// Busiest aggregator endpoint: bytes arriving from other ranks.
    max_recv: u64,
    /// Total bytes crossing the network.
    total: u64,
}

/// Wire traffic of window indices `rounds`, from the planned pieces.
/// Aggregator `a` *is* rank `a` (ROMIO's default aggregator ranklist), so a
/// piece whose owning rank is its window's aggregator moves by memcpy and
/// costs no wire. This is why Z-ish partitions — whose blocks align with
/// the file domains — exchange less than X-ish partitions (the paper's
/// "different access contiguity"). One round prices a pipelined exchange
/// round, all rounds together a serial schedule's monolithic exchange —
/// the totals add up to the same `exchange_wire_bytes` — and because it
/// reads pieces, not a domain table, it prices the interleaved write
/// domains and the contiguous read domains alike.
fn wire(windows: &[Vec<Window>], nranks: usize, rounds: std::ops::Range<usize>) -> Wire {
    let mut send = vec![0u64; nranks];
    let mut w = Wire::default();
    for (a, agg_windows) in windows.iter().enumerate() {
        let hi = rounds.end.min(agg_windows.len());
        let mut recv = 0u64;
        for win in &agg_windows[rounds.start.min(hi)..hi] {
            for pc in win.pieces.iter().filter(|pc| pc.rank != a) {
                send[pc.rank] += pc.len;
                recv += pc.len;
            }
        }
        w.max_recv = w.max_recv.max(recv);
        w.total += recv;
    }
    w.max_send = send.into_iter().max().unwrap_or(0);
    w
}

// ---- the window planner -------------------------------------------------------

/// One collective-buffer window: the pieces routed to it — rank by rank,
/// ascending within a rank, so overlapping writes resolve the same way
/// under every plan (highest rank wins); a read window sorts them into
/// file order — and the sorted file extents it owns: the owned stripe
/// ranges for a write, one range for a read. No piece leaves its window's
/// extents.
#[derive(Debug, Default)]
struct Window {
    pieces: Vec<Piece>,
    extents: Vec<Run>,
}

/// `[lo, next cut's lo)` belongs to window `win` of aggregator `agg`.
struct Cut {
    lo: u64,
    agg: u32,
    win: u32,
}

/// Affine planning walks every stripe of the aggregate span once; beyond
/// this many stripes (4 Mi ≈ a multi-TiB span at default stripes) a write
/// falls back to contiguous domains rather than cut the span stripe by
/// stripe. Its windows still leave through the same door, as one-run lists.
const AFFINE_SPAN_LIMIT: u64 = 1 << 22;

/// Give `[lo, hi)` to aggregator `a`'s newest window. Cuts are made in
/// ascending order and tile the span, so a range that goes to the window
/// the previous cut went to continues that cut's extent.
fn cut(cuts: &mut Vec<Cut>, windows: &mut [Vec<Window>], a: usize, lo: u64, hi: u64) {
    let win = windows[a].len() - 1;
    let extents = &mut windows[a][win].extents;
    match (cuts.last(), extents.last_mut()) {
        (Some(c), Some(e)) if (c.agg as usize, c.win as usize) == (a, win) => e.1 += hi - lo,
        _ => {
            extents.push((lo, hi - lo));
            cuts.push(Cut {
                lo,
                agg: a as u32,
                win: win as u32,
            });
        }
    }
}

/// Plan the windows of one collective over `[gmin, gmax)`: `result[a][j]`
/// is round `j`'s window of aggregator `a`; windows no run touches are
/// dropped.
///
/// The span is first cut into an ascending list of ranges, each owned by
/// one window. *Contiguous* domains ([`file_domains`]) are cut at absolute
/// multiples of `cb_buffer_size` — which, for the default hints, are
/// file-system block aligned. *Server-affine* domains are cut per stripe:
/// stripe `s` lives on server `s % io_servers` and belongs to aggregator
/// `(s % io_servers) % naggs` (`naggs` at most `io_servers`), so aggregator
/// `a` owns exactly the stripes of servers `{s : s % naggs == a}` and its
/// disk traffic never contends with another aggregator's; it groups its
/// consecutive owned stripes into windows of about `cb_buffer_size` bytes.
/// A merge-walk over each rank's sorted runs ([`split_at_cuts`]) then
/// splits them at the cuts and routes every piece to its window, whichever
/// way the cuts were made.
fn plan_windows(
    all_runs: &[&[Run]],
    (gmin, gmax): (u64, u64),
    naggs: usize,
    p: &TwoPhaseParams,
    affine: bool,
) -> Vec<Vec<Window>> {
    debug_assert!(gmax > gmin);
    let cb = p.cb_buffer_size.max(1) as u64;
    let mut cuts: Vec<Cut> = Vec::new();
    let mut windows: Vec<Vec<Window>>;
    if affine {
        debug_assert!(naggs <= p.io_servers);
        let nservers = p.io_servers as u64;
        windows = (0..naggs).map(|_| Vec::new()).collect();
        let mut wbytes = vec![0u64; naggs];
        for s in gmin / p.stripe..=(gmax - 1) / p.stripe {
            let a = ((s % nservers) as usize) % naggs;
            let (lo, hi) = ((s * p.stripe).max(gmin), ((s + 1) * p.stripe).min(gmax));
            if windows[a].is_empty() || wbytes[a] + (hi - lo) > cb {
                windows[a].push(Window::default());
                wbytes[a] = 0;
            }
            wbytes[a] += hi - lo;
            cut(&mut cuts, &mut windows, a, lo, hi);
        }
    } else {
        let domains = file_domains(gmin, gmax, naggs, p.stripe);
        windows = domains.iter().map(|_| Vec::new()).collect();
        for (a, &(dlo, dhi)) in domains.iter().enumerate() {
            let mut lo = dlo;
            while lo < dhi {
                let hi = ((lo / cb + 1) * cb).min(dhi);
                windows[a].push(Window::default());
                cut(&mut cuts, &mut windows, a, lo, hi);
                lo = hi;
            }
        }
    }

    // Walk twice: count each window's pieces, then place them, so every
    // window's vector is allocated once, at its size. (A vector that doubles
    // its way up holds 8 192 slots for the 4 097 pieces of a window whose
    // cut splits one element.)
    let mut count: Vec<Vec<usize>> = windows.iter().map(|w| vec![0; w.len()]).collect();
    split_at_cuts(all_runs, &cuts, gmax, |c, _| {
        count[c.agg as usize][c.win as usize] += 1
    });
    for (win, n) in windows.iter_mut().flatten().zip(count.iter().flatten()) {
        win.pieces.reserve_exact(*n);
    }
    split_at_cuts(all_runs, &cuts, gmax, |c, piece| {
        windows[c.agg as usize][c.win as usize].pieces.push(piece)
    });
    for agg_windows in &mut windows {
        agg_windows.retain(|w| !w.pieces.is_empty());
    }
    windows
}

/// One merge-walk over each rank's sorted runs: split them at the `cuts`
/// (which tile the span up to `gmax`) and hand every piece, rank by rank
/// and ascending within a rank, to `emit` with the cut it falls in.
fn split_at_cuts(all_runs: &[&[Run]], cuts: &[Cut], gmax: u64, mut emit: impl FnMut(&Cut, Piece)) {
    for (rank, runs) in all_runs.iter().enumerate() {
        let (mut ci, mut src_pos) = (0usize, 0u64);
        for &(off, len) in runs.iter() {
            let mut lo = off;
            while lo < off + len {
                while cuts.get(ci + 1).is_some_and(|next| next.lo <= lo) {
                    ci += 1;
                }
                let hi = cuts.get(ci + 1).map_or(gmax, |next| next.lo).min(off + len);
                let piece = Piece {
                    off: lo,
                    len: hi - lo,
                    rank,
                    src_pos: src_pos + (lo - off),
                };
                emit(&cuts[ci], piece);
                lo = hi;
            }
            src_pos += len;
        }
    }
}

// ---- event tracing ----------------------------------------------------------

/// Tracing identity of one collective-buffer window: its round index, its
/// pre-allocated span id, and the owning aggregator's collective-span id
/// (the window span's parent). All zeros while tracing is off.
#[derive(Clone, Copy, Default)]
struct WinTrace {
    round: usize,
    wid: u64,
    parent: u64,
}

/// Allocate the trace identity for window `(a, round)`.
fn win_trace(events: &TraceLog, round: usize, coll_ids: &[u64], a: usize) -> WinTrace {
    if !events.is_enabled() {
        return WinTrace::default();
    }
    WinTrace {
        round,
        wid: events.next_id(),
        parent: coll_ids.get(a).copied().unwrap_or(0),
    }
}

/// World rank a window's spans are attributed to. Domains past the group
/// size are *virtual* aggregators (see [`AccessSplit::attribute`]); their
/// spans land on the last real rank's timeline rather than a phantom one.
fn agg_world(env: &CollEnv, a: usize) -> usize {
    env.group
        .get(a)
        .copied()
        .unwrap_or_else(|| env.group.last().copied().unwrap_or(0))
}

/// Trace identities of one collective: `ids[r]` is the request trace id rank
/// `r` lent with its request, `coll_ids[r]` a fresh id for its
/// whole-collective span. Both empty while tracing is off.
fn coll_trace(env: &CollEnv, events: &TraceLog, reqs: &[Req<'_>]) -> (Vec<u64>, Vec<u64>) {
    if !events.is_enabled() {
        return (Vec::new(), Vec::new());
    }
    (
        reqs.iter().map(|r| r.tag).collect(),
        env.group.iter().map(|_| events.next_id()).collect(),
    )
}

/// Emit each rank's whole-collective span `[t0, t_end]` — the region
/// `set_all` jumps every clock across, which the per-advance phase tiling
/// cannot see. Span `coll_ids[r]` parents rank `r`'s windows; its own
/// parent is the request trace id rank `r` lent with its request, which
/// closes the core → mpio link of the id chain.
fn record_coll_spans(
    env: &CollEnv,
    events: &TraceLog,
    name: &'static str,
    t0: Time,
    t_end: Time,
    ids: &[u64],
    coll_ids: &[u64],
) {
    if coll_ids.is_empty() {
        return;
    }
    for (r, &w) in env.group.iter().enumerate() {
        events.record(
            Span::new(w, layer::MPIO, name, t0.as_nanos(), t_end.as_nanos())
                .with_id(coll_ids.get(r).copied().unwrap_or(0))
                .with_parent(ids.get(r).copied().unwrap_or(0)),
        );
    }
}

// ---- the two phases -----------------------------------------------------------

/// `[gmin, gmax)`: the byte range all ranks' sorted run lists span
/// together; `None` when every list is empty.
fn aggregate_span(all_runs: &[&[Run]]) -> Option<(u64, u64)> {
    let gmin = all_runs.iter().filter_map(|r| r.first()).map(|&(o, _)| o);
    let gmax = all_runs
        .iter()
        .filter_map(|r| r.last())
        .map(|&(o, l)| o + l);
    Some((gmin.min()?, gmax.max()?))
}

/// How one collective's rounds are scheduled: everything the serial and
/// pipelined write and read engines differ in. A round has an *exchange*
/// (its windows' bytes crossing the network) and a *disk pass* (its
/// windows' PFS requests, every aggregator's in turn).
#[derive(Clone, Copy, Debug)]
struct Schedule {
    /// One exchange per round, free to overlap the other rounds' disk
    /// passes and charged along the critical path only; otherwise ONE
    /// monolithic exchange covers rounds `0..rounds` and every rank pays it
    /// whole.
    per_round: bool,
    /// A round's exchange precedes its disk pass (a write: data travels to
    /// the aggregators) or follows it (a read).
    exchange_first: bool,
    /// A write window releases its aggregator when the servers own the
    /// bytes (hand-off), not when the disks do (durable).
    on_handoff: bool,
    /// Two collective buffers per aggregator: the first stage of round `j`
    /// waits until the second stage of round `j-2` has released its buffer.
    /// Without it no round waits for another's buffer.
    double_buffer: bool,
    /// What a rank is doing between its last window and the collective's
    /// end: idle behind the slowest aggregator, or still shipping rounds
    /// back.
    trailing: Phase,
}

impl Schedule {
    /// A serial schedule is the pipelined one at depth 1: one buffer, one
    /// exchange, every window waiting for the disk.
    fn of(write: bool, pipelined: bool) -> Schedule {
        Schedule {
            per_round: pipelined,
            exchange_first: write,
            on_handoff: write && pipelined,
            double_buffer: pipelined,
            trailing: if pipelined && !write {
                Phase::DataExchange
            } else {
                Phase::Wait
            },
        }
    }
}

/// The ranks' lent requests, by direction.
enum Access<'r, 'a> {
    Write(&'r [Req<'a>]),
    Read(&'r mut [Req<'a>]),
}

/// Collective write: the finish-closure body. `reqs[r]` is what rank `r`
/// lent: its runs, the segments of its data, the element width to read
/// them with and its trace id; `cbuf` is the open file's collective buffer.
/// Returns the synchronized completion time.
///
/// Aggregator-side storage faults are recovered by [`crate::recover`];
/// when the budget runs out the error is returned *after* every rank's
/// clock has been synchronized (`set_all`), so the collective never leaves
/// a rank stranded in the past — the caller then agrees on the error.
pub fn write_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    cbuf: &mut CollBuf,
    reqs: &[Req<'_>],
) -> MpioResult<Time> {
    debug_assert!(reqs
        .iter()
        .all(|r| r.src.iter().map(|s| s.len() as u64).sum::<u64>() == runs_total(r.meta)));
    collective(env, file, p, cbuf, Access::Write(reqs))
}

/// Collective read: the finish-closure body. `reqs[r]` is what rank `r`
/// lent: its runs and the destination its run bytes are scattered into, in
/// run order. Returns the completion time. Faults are handled as in
/// [`write_all`].
pub fn read_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    cbuf: &mut CollBuf,
    reqs: &mut [Req<'_>],
) -> MpioResult<Time> {
    debug_assert!(reqs
        .iter()
        .all(|r| r.dst.len() as u64 == runs_total(r.meta)));
    collective(env, file, p, cbuf, Access::Read(reqs))
}

/// The two-phase engine: plan the windows, pick the schedule, run the
/// rounds.
///
/// The windows are timed in round-robin order across aggregators — `for j
/// in rounds { for a in aggregators }` under every schedule — so their
/// concurrent requests reach the shared server queues interleaved in time
/// order; that is what keeps the file bytes and the injected fault
/// sequence independent of the pipeline hint.
fn collective(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    cbuf: &mut CollBuf,
    mut access: Access<'_, '_>,
) -> MpioResult<Time> {
    let n = env.size();
    let (profile, events) = (&env.config.profile, &env.config.events);
    let (write, reqs): (bool, &[Req<'_>]) = match &access {
        Access::Write(reqs) => (true, *reqs),
        Access::Read(reqs) => (false, &**reqs),
    };
    let (ids, coll_ids) = coll_trace(env, events, reqs);
    let all_runs: Vec<&[Run]> = reqs.iter().map(|r| r.meta).collect();
    let total: u64 = all_runs.iter().map(|r| runs_total(r)).sum();
    let Some((gmin, gmax)) = aggregate_span(&all_runs).filter(|_| total > 0) else {
        return Ok(env.sync_phase(Phase::Metadata, env.config.network.barrier(n)));
    };
    // A write's domains are its aggregators' servers, so it has no more
    // aggregators than servers. Reads keep contiguous domains: the affine
    // layout exists to give each server a single *write* stream; a read
    // window's spanning read is already one large request per domain.
    let naggs = if write {
        p.naggs(n).min(p.io_servers)
    } else {
        p.naggs(n)
    };
    let span_stripes = (gmax - 1) / p.stripe - gmin / p.stripe + 1;
    let affine = write && span_stripes <= AFFINE_SPAN_LIMIT;
    let mut windows = plan_windows(&all_runs, (gmin, gmax), naggs, p, affine);
    let rounds = windows.iter().map(Vec::len).max().unwrap_or(0);
    // With fewer than two rounds there is nothing to overlap, so pipelining
    // would only pay its extra offset exchange.
    let sched = Schedule::of(write, p.pipeline && rounds >= 2);

    // What each exchange ships: a round's windows, or all of them.
    let wire: Vec<Wire> = if sched.per_round {
        (0..rounds).map(|j| wire(&windows, n, j..j + 1)).collect()
    } else {
        vec![wire(&windows, n, 0..rounds)]
    };
    profile.record_twophase(|t| {
        t.collective_writes += write as u64;
        t.collective_reads += !write as u64;
        t.cb_nodes = naggs as u64;
        t.file_domains += windows.len() as u64;
        t.exchange_wire_bytes += wire.iter().map(|w| w.total).sum::<u64>();
        if sched.per_round {
            t.pipelined_rounds += rounds as u64;
        }
    });
    // An overlapped round is tallied with the predefined collectives and
    // touches no clock; the monolithic exchange is charged to every rank.
    let cost = |w: &Wire| {
        let (send, recv) = (w.max_send as usize, w.max_recv as usize);
        if sched.per_round {
            env.alltoallv_cost(send, recv, w.total)
        } else {
            env.config.network.alltoallv(send, recv, n)
        }
    };
    let t0 = if sched.exchange_first && !sched.per_round {
        // Serial write: ONE monolithic alltoallv up front models offset
        // lists and data moving together, charged whole to the
        // data-exchange phase; exchange and disk time add.
        env.sync_phase(Phase::DataExchange, cost(&wire[0]))
    } else {
        // Offset lists are exchanged up front (small): a pipeline plans its
        // rounds from them, and a reading aggregator has nothing else to
        // tell it what to fetch.
        let meta_bytes = all_runs.iter().map(|r| r.len() * 16).max().unwrap_or(0);
        env.sync_phase(
            Phase::OffsetExchange,
            env.config.network.alltoallv(meta_bytes, meta_bytes, n),
        )
    };

    let mut eng = Engine {
        env,
        file,
        split: AccessSplit::new(windows.len()),
        cbuf,
        cap: (p.cb_buffer_size as u64).min(gmax - gmin) as usize,
    };
    let mut t_agg = vec![t0; windows.len()];
    let mut x_done = vec![t0; rounds]; // per-round exchange completion
    let mut d_done = vec![t0; rounds]; // per-round disk-pass completion (all aggs)
    let mut durable_max = t0; // slowest disk among all written windows
    let mut costs: Vec<Time> = Vec::with_capacity(if sched.per_round { rounds } else { 0 });
    // Round j's exchange starts once round j-1's has drained the wire and
    // `after` has passed.
    let mut exchange = |x_done: &mut [Time], j: usize, after: Time| {
        let c = cost(&wire[j]);
        costs.push(c);
        x_done[j] = after.max(if j > 0 { x_done[j - 1] } else { t0 }) + c;
    };
    let done = (|| -> MpioResult<()> {
        for j in 0..rounds {
            // Double buffering: the buffer round j fills is the one round
            // j-2 used, free again once that round's second stage is over.
            // (For a write that is the hand-off — with the dual-resource
            // servers the collective buffer is free once the server NIC
            // owns the bytes; the bounded admission queue is the
            // backpressure, not the platter.)
            let freed = |second: &[Time]| {
                if sched.double_buffer && j >= 2 {
                    second[j - 2]
                } else {
                    t0
                }
            };
            if sched.per_round && sched.exchange_first {
                exchange(&mut x_done, j, freed(&d_done));
            }
            // A write window needs its round's data, a read window its
            // buffer back from the ship two rounds ago.
            let gate = if sched.exchange_first {
                x_done[j]
            } else {
                freed(&x_done)
            };
            let mut dmax = t0;
            for (a, agg_windows) in windows.iter_mut().enumerate() {
                let Some(win) = agg_windows.get_mut(j) else {
                    continue;
                };
                // Aggregator a starts round j once its previous window has
                // released it and the gate has opened; time spent waiting
                // on the wire is the exchange cost that survives on this
                // aggregator's critical path.
                let wt = win_trace(events, j, &coll_ids, a);
                let ready = t_agg[a].max(gate);
                eng.split.exchange[a] += (ready - t_agg[a]).as_nanos();
                if wt.wid != 0 && ready > t_agg[a] {
                    events.record(
                        Span::new(
                            agg_world(env, a),
                            layer::MPIO,
                            "exchange_wait",
                            t_agg[a].as_nanos(),
                            ready.as_nanos(),
                        )
                        .with_parent(wt.wid)
                        .with_stage(stage::EXCHANGE)
                        .with_arg("round", j as u64),
                    );
                }
                let (advance, durable) = match &mut access {
                    Access::Write(reqs) => {
                        eng.write_window(ready, a, win, reqs, sched.on_handoff, wt)?
                    }
                    Access::Read(reqs) => eng.read_window(ready, a, win, reqs, wt)?,
                };
                t_agg[a] = advance;
                durable_max = durable_max.max(durable);
                dmax = dmax.max(advance);
            }
            d_done[j] = dmax;
            // Round j ships back once every aggregator has read it.
            if sched.per_round && !sched.exchange_first {
                exchange(&mut x_done, j, dmax);
            }
        }
        Ok(())
    })();
    // The collective completes when the last exchange has drained, the
    // last window has released its aggregator, AND every server's disk has
    // the bytes — write_all promises durability at return, a pipeline only
    // moves the disk wait off each window's critical path.
    let t_end = t_agg.iter().copied().fold(
        x_done.last().copied().unwrap_or(t0).max(durable_max),
        Time::max,
    );
    let finished = done.map(|()| {
        eng.split.record_overlap(profile, &costs, t0, t_end, &t_agg);
        eng.split
            .attribute(profile, env, t_end, &t_agg, sched.trailing);
        if !sched.exchange_first && !sched.per_round {
            // Serial read: every window has been read, now ONE monolithic
            // alltoallv ships all the data back (local shares stay put).
            let ship = cost(&wire[0]);
            for &w in env.group.iter() {
                profile.record_phase(w, Phase::DataExchange, ship.as_nanos());
            }
            return t_end + ship;
        }
        t_end
    });
    // Synchronize the clocks even on failure: no rank may be left behind a
    // collective, successful or not.
    let t_final = *finished.as_ref().unwrap_or(&t_end);
    let name = if write { "coll_write" } else { "coll_read" };
    record_coll_spans(env, events, name, t0, t_final, &ids, &coll_ids);
    env.set_all(t_final);
    finished
}

/// What every window of one collective shares.
struct Engine<'e> {
    env: &'e CollEnv,
    file: &'e PfsFile,
    split: AccessSplit,
    cbuf: &'e mut CollBuf,
    /// What this collective sizes the buffer to if it has to allocate it
    /// (see [`crate::sieve::window_buf`]).
    cap: usize,
}

impl Engine<'_> {
    /// Begin window `wt` of aggregator `a`: count it and install the
    /// ambient context, so the pfs ServiceEngine stages and any retry
    /// backoffs taken on the window's behalf parent themselves to its span.
    fn enter(&mut self, a: usize, wt: WinTrace) -> Option<TraceCtx> {
        self.split.windows += 1;
        (wt.wid != 0).then(|| TraceCtx::enter(agg_world(self.env, a), wt.wid))
    }

    /// Charge moving `bytes` between the pieces and the collective buffer
    /// (memcpy work) to aggregator `a` from `at`; returns when it is done.
    fn pack(&mut self, a: usize, wt: WinTrace, at: Time, bytes: u64) -> Time {
        let pack = self.env.config.cpu.pack(bytes as usize, 1.0);
        self.split.pack[a] += pack.as_nanos();
        if wt.wid != 0 && pack > Time::ZERO {
            let (begin, end) = (at.as_nanos(), (at + pack).as_nanos());
            self.env.config.events.record(
                Span::new(agg_world(self.env, a), layer::MPIO, "pack", begin, end)
                    .with_parent(wt.wid)
                    .with_stage(stage::PACK)
                    .with_arg("round", wt.round as u64),
            );
        }
        at + pack
    }

    /// Close window `wt` of aggregator `a`: `[begin, end]` is its whole
    /// stay, ready to durable, which is also what it would cost run
    /// serially.
    fn leave(&mut self, a: usize, wt: WinTrace, begin: Time, end: Time, bytes: u64) {
        self.split.serial_busy[a] += (end - begin).as_nanos();
        if wt.wid != 0 {
            let w = agg_world(self.env, a);
            self.env.config.events.record(
                Span::new(w, layer::MPIO, "window", begin.as_nanos(), end.as_nanos())
                    .with_id(wt.wid)
                    .with_parent(wt.parent)
                    .with_arg("round", wt.round as u64)
                    .with_arg("agg", a as u64)
                    .with_arg("bytes", bytes),
            );
        }
    }

    /// Time one write window on aggregator `a` starting at `t_start`: the
    /// pieces' assembly (memcpy), then the window's step
    /// ([`CollBuf::write_window`]): the read-modify-write read if any span
    /// has holes, then the window's write, each one request per server.
    /// Returns `(advance, durable)`: `advance` is the time the aggregator
    /// may move on — the server hand-off when `on_handoff`, the disk
    /// completion otherwise — and `durable` is always the disk completion.
    fn write_window(
        &mut self,
        t_start: Time,
        a: usize,
        win: &mut Window,
        reqs: &[Req<'_>],
        on_handoff: bool,
        wt: WinTrace,
    ) -> MpioResult<(Time, Time)> {
        let _ctx = self.enter(a, wt);
        let piece_bytes: u64 = win.pieces.iter().map(|pc| pc.len).sum();
        let mut t_a = self.pack(a, wt, t_start, piece_bytes);
        let (file, cap) = (self.file, self.cap);
        let w = self
            .cbuf
            .write_window(file, t_a, cap, &mut win.pieces, &win.extents, reqs)?;
        self.split.collbuf_reuses += w.reused as u64;
        if let Some(t_read) = w.read {
            self.split.read[a] += (t_read - t_a).as_nanos();
            self.split.rmw += 1;
            t_a = t_read;
        }
        let advance = if on_handoff {
            w.done.handoff
        } else {
            w.done.durable
        };
        self.split.write[a] += (advance - t_a).as_nanos();
        self.leave(a, wt, t_start, w.done.durable, piece_bytes);
        Ok((advance, w.done.durable))
    }

    /// Time one read window on aggregator `a` starting at `t_start`: its
    /// step ([`CollBuf::read_window`]) is one spanning read that covers
    /// every piece in the window (data sieving at the aggregator) and
    /// scatters each byte straight into the requesting rank's lent
    /// destination; only holes and bytes several pieces want pass through
    /// the collective buffer. The modelled aggregator still copies each
    /// piece out of its buffer, so the window is charged that memcpy.
    /// Returns the aggregator's completion time, twice: a read window has
    /// no later durable point.
    fn read_window(
        &mut self,
        t_start: Time,
        a: usize,
        win: &mut Window,
        reqs: &mut [Req<'_>],
        wt: WinTrace,
    ) -> MpioResult<(Time, Time)> {
        let _ctx = self.enter(a, wt);
        let (file, cap, dsts) = (self.file, self.cap, reqs.iter_mut().map(|r| &mut *r.dst));
        let (t_read, reused) = self
            .cbuf
            .read_window(file, t_start, cap, &mut win.pieces, dsts)?;
        self.split.collbuf_reuses += reused as u64;
        self.split.read[a] += (t_read - t_start).as_nanos();
        let piece_bytes: u64 = win.pieces.iter().map(|pc| pc.len).sum();
        let t_a = self.pack(a, wt, t_read, piece_bytes);
        self.leave(a, wt, t_start, t_a, piece_bytes);
        Ok((t_a, t_a))
    }
}

/// Per-aggregator breakdown of the access phase, accumulated along each
/// aggregator's own timeline, plus engine window counters.
struct AccessSplit {
    pack: Vec<u64>,
    write: Vec<u64>,
    read: Vec<u64>,
    /// Pipelined engine only: time an aggregator spent *waiting on the
    /// wire* for its round's data (the exchange cost that was not hidden
    /// behind disk). Serial engine leaves this zero — its exchange is
    /// charged whole by `sync_phase` before the access loop.
    exchange: Vec<u64>,
    /// What each window would cost run serially (to durability, from the
    /// moment its data was ready): the baseline [`Self::record_overlap`]
    /// compares the overlapped makespan against. Kept apart from the
    /// attribution splits above, which charge only hand-off deltas in the
    /// pipelined engine.
    serial_busy: Vec<u64>,
    windows: u64,
    rmw: u64,
    /// Windows that allocated no collective buffer: served from the one
    /// already allocated, or needing none (a write window without holes, a
    /// read window without holes or shared bytes).
    collbuf_reuses: u64,
}

impl AccessSplit {
    fn new(naggs: usize) -> AccessSplit {
        AccessSplit {
            pack: vec![0; naggs],
            write: vec![0; naggs],
            read: vec![0; naggs],
            exchange: vec![0; naggs],
            serial_busy: vec![0; naggs],
            windows: 0,
            rmw: 0,
            collbuf_reuses: 0,
        }
    }

    /// Record how much the pipelined rounds saved: the difference between
    /// running this collective's exchange rounds and the critical
    /// aggregator's windows back to back (the serial schedule of the same
    /// rounds, each window waiting for durability) and the overlapped
    /// makespan actually achieved.
    fn record_overlap(
        &self,
        profile: &Profile,
        costs: &[Time],
        entry: Time,
        t_end: Time,
        t_agg: &[Time],
    ) {
        let Some(crit) = (0..t_agg.len()).max_by_key(|&a| t_agg[a]) else {
            return;
        };
        // serial_busy already folds in pack and RMW-read time (it is the
        // whole window, ready → durable).
        let serialized = costs.iter().map(|c| c.as_nanos()).sum::<u64>() + self.serial_busy[crit];
        let saved = serialized.saturating_sub((t_end - entry).as_nanos());
        profile.record_twophase(|t| t.overlap_saved_nanos += saved);
    }

    /// Charge the access phase (`t0 → t_end`, applied to every rank by
    /// `set_all`) to profile phases so per-rank sums stay exact:
    ///
    /// * aggregator `a` gets its own pack/write/read split, its unhidden
    ///   exchange waits as [`Phase::DataExchange`] (pipelined engine), and
    ///   `trailing` (usually [`Phase::Wait`]) for `t_end - t_agg[a]` —
    ///   idle behind the slowest aggregator, or, for pipelined reads,
    ///   still shipping rounds back;
    /// * a non-aggregator rank spends the same wall of virtual time blocked
    ///   on the aggregators, so it is credited with the *critical*
    ///   aggregator's split — the one that actually determines `t_end` —
    ///   which keeps the makespan rank's breakdown meaningful instead of
    ///   reading as one opaque wait. With overlap this is exactly the
    ///   "charged along the critical path only" rule: exchange time hidden
    ///   behind disk appears in no rank's breakdown.
    fn attribute(
        &self,
        profile: &Profile,
        env: &CollEnv,
        t_end: Time,
        t_agg: &[Time],
        trailing: Phase,
    ) {
        profile.record_twophase(|t| {
            t.windows += self.windows;
            t.rmw_windows += self.rmw;
        });
        profile.record_bytepath(|b| b.collbuf_reuses += self.collbuf_reuses);
        if !profile.is_enabled() {
            return;
        }
        let Some(crit) = (0..t_agg.len()).max_by_key(|&a| t_agg[a]) else {
            return;
        };
        // Stripe-aligned boundaries can yield one more domain than there
        // are ranks; domains past the group size are *virtual* aggregators
        // whose concurrent timelines belong to no rank — charging their
        // split to a rank that already owns a domain would double-count
        // that rank's clock advance.
        for (a, &t_a) in t_agg.iter().enumerate().take(env.group.len()) {
            let w = env.group[a];
            profile.record_phase(w, Phase::CollBufPack, self.pack[a]);
            profile.record_phase(w, Phase::DiskWrite, self.write[a]);
            profile.record_phase(w, Phase::DiskRead, self.read[a]);
            profile.record_phase(w, Phase::DataExchange, self.exchange[a]);
            profile.record_phase(w, trailing, (t_end - t_a).as_nanos());
        }
        for &w in env.group.iter().skip(t_agg.len()) {
            profile.record_phase(w, Phase::CollBufPack, self.pack[crit]);
            profile.record_phase(w, Phase::DiskWrite, self.write[crit]);
            profile.record_phase(w, Phase::DiskRead, self.read[crit]);
            profile.record_phase(w, Phase::DataExchange, self.exchange[crit]);
            profile.record_phase(w, trailing, (t_end - t_agg[crit]).as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sieve::window_buf;
    use hpc_sim::{SharedClocks, SimConfig};
    use pnetcdf_format::swap::{swap_copy, swap_to_vec};
    use pnetcdf_pfs::{Pfs, StorageMode};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// An `nranks`-rank collective environment over a fresh `test_small`
    /// file (1 KiB stripes, 4 servers) holding `old`.
    fn env_and_file(nranks: usize, old: &[u8]) -> (CollEnv, PfsFile) {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        let file = Pfs::new(cfg.clone(), StorageMode::Full).create("w");
        file.import_bytes(old);
        let env = CollEnv {
            clocks: SharedClocks::new(nranks),
            config: Arc::new(cfg),
            group: Arc::new((0..nranks).collect()),
        };
        (env, file)
    }

    fn params(cb_buffer_size: usize) -> TwoPhaseParams {
        TwoPhaseParams {
            cb_buffer_size,
            cb_nodes: Some(1),
            io_servers: 4,
            stripe: 1024,
            pipeline: false,
        }
    }

    fn write_req<'a>(runs: &'a [Run], data: &'a [&'a [u8]]) -> Req<'a> {
        native_req(runs, data, 1)
    }

    /// A write request lending segments of `width`-byte elements in host
    /// byte order.
    fn native_req<'a>(runs: &'a [Run], native: &'a [&'a [u8]], width: usize) -> Req<'a> {
        Req {
            meta: runs,
            src: native,
            dst: &mut [],
            tag: 0,
            aux: width as u64,
        }
    }

    /// The byte path of the engine before write windows gathered from the
    /// payloads, kept as the oracle of [`SpanScratch::write`]: copy each
    /// piece from its rank's lent payload to its place in `buf`, where the
    /// file `runs` lie back to back, converting it to external byte order on
    /// the way ([`copy_external`]). Every piece sits wholly inside one run,
    /// but not inside one segment of the payload's gather list, so a piece
    /// is copied segment by segment. Pieces are applied in order — rank by
    /// rank — so overlapping writes resolve deterministically (highest rank
    /// wins); within a rank they ascend, in the file and in the payload, so
    /// the run cursor and the segment cursor only start over when the rank
    /// changes.
    fn overlay(buf: &mut [u8], runs: &[Run], pieces: &[Piece], reqs: &[Req<'_>]) {
        let (mut ri, mut base) = (0usize, 0usize);
        // Segment `si` of rank `rank`'s list begins at payload byte `seg0`.
        let (mut rank, mut si, mut seg0) = (usize::MAX, 0usize, 0usize);
        for pc in pieces {
            if pc.off < runs[ri].0 {
                (ri, base) = (0, 0);
            }
            while pc.off >= runs[ri].0 + runs[ri].1 {
                base += runs[ri].1 as usize;
                ri += 1;
            }
            if pc.rank != rank {
                (rank, si, seg0) = (pc.rank, 0, 0);
            }
            let lo = base + (pc.off - runs[ri].0) as usize;
            let (segs, width) = (reqs[rank].src, reqs[rank].aux as usize);
            let (mut pos, mut dst) = (pc.src_pos as usize, &mut buf[lo..lo + pc.len as usize]);
            while !dst.is_empty() {
                while pos >= seg0 + segs[si].len() {
                    seg0 += segs[si].len();
                    si += 1;
                }
                // Every segment holds whole elements, so a position inside one
                // is as far into its element as the payload position is.
                let n = (seg0 + segs[si].len() - pos).min(dst.len());
                let (head, tail) = std::mem::take(&mut dst).split_at_mut(n);
                copy_external(segs[si], width, pos - seg0, head);
                pos += head.len();
                dst = tail;
            }
        }
    }

    /// Fill `dst` with bytes `pos..pos + dst.len()` of the big-endian form of
    /// `native`, a payload of `width`-byte elements in host byte order.
    ///
    /// A piece need not hold whole elements: windows are cut at absolute file
    /// offsets (multiples of `cb_buffer_size`, stripe and domain edges) while a
    /// variable begins wherever the header ends, so a cut can fall inside an
    /// element and leave its head in one window and its tail in the next. The
    /// whole elements in the middle are swapped in bulk; the bytes of a cut
    /// element are placed one at a time — on a little-endian host external byte
    /// `p` of the payload is native byte `p ^ (width - 1)`, the same offset
    /// mirrored inside its element. On a big-endian host, as for width 1, host
    /// order is external order.
    fn copy_external(native: &[u8], width: usize, pos: usize, dst: &mut [u8]) {
        let end = pos + dst.len();
        if width <= 1 || cfg!(target_endian = "big") {
            dst.copy_from_slice(&native[pos..end]);
            return;
        }
        // Whole elements occupy `[lo, hi)`; both collapse onto one point when
        // the piece lies inside a single element.
        let lo = pos.next_multiple_of(width).min(end);
        let hi = (end - end % width).max(lo);
        for p in (pos..lo).chain(hi..end) {
            dst[p - pos] = native[p ^ (width - 1)];
        }
        swap_copy(&native[lo..hi], &mut dst[lo - pos..hi - pos], width);
    }

    /// The file the engine before write windows gathered from the payloads
    /// leaves behind `old`: every window of the plan assembled in one
    /// buffer — each extent's bounding span of its pieces read whole, then
    /// the pieces laid over it by [`overlay`] — and written back.
    fn overlay_oracle(old: &[u8], reqs: &[Req<'_>], p: &TwoPhaseParams) -> Vec<u8> {
        let all_runs: Vec<&[Run]> = reqs.iter().map(|r| r.meta).collect();
        let span = aggregate_span(&all_runs).unwrap();
        let naggs = p.naggs(reqs.len()).min(p.io_servers);
        let mut file = old.to_vec();
        for win in plan_windows(&all_runs, span, naggs, p, true)
            .iter()
            .flatten()
        {
            let bound = |&(lo, len): &Run| {
                let inside = win
                    .pieces
                    .iter()
                    .filter(|pc| lo <= pc.off && pc.off < lo + len);
                let b = inside.clone().map(|pc| pc.off).min()?;
                Some((b, inside.map(|pc| pc.off + pc.len).max()? - b))
            };
            let spans: Vec<Run> = win.extents.iter().filter_map(bound).collect();
            let end = spans.last().map_or(0, |&(o, l)| (o + l) as usize);
            file.resize(file.len().max(end), 0);
            let at = |&(o, l): &Run| file[o as usize..(o + l) as usize].to_vec();
            let mut buf: Vec<u8> = spans.iter().flat_map(at).collect();
            overlay(&mut buf, &spans, &win.pieces, reqs);
            let mut pos = 0usize;
            for &(o, l) in &spans {
                file[o as usize..(o + l) as usize].copy_from_slice(&buf[pos..pos + l as usize]);
                pos += l as usize;
            }
        }
        file
    }

    #[test]
    fn overlay_places_pieces_in_their_runs_and_the_highest_rank_wins() {
        // Two file runs, (100, 8) and (300, 4), back to back in the buffer.
        let runs: [Run; 2] = [(100, 8), (300, 4)];
        let (r0, r1): ([Run; 2], [Run; 1]) = ([(100, 8), (300, 4)], [(104, 4)]);
        let d0: Vec<u8> = (1..=12).collect();
        let d1 = [0xa1, 0xa2, 0xa3, 0xa4];
        let (s0, s1) = ([&d0[..]], [&d1[..]]);
        let reqs = [write_req(&r0, &s0), write_req(&r1, &s1)];
        let piece = |off, len, rank, src_pos| Piece {
            off,
            len,
            rank,
            src_pos,
        };
        // Rank order; rank 1's piece starts the run cursor over.
        let pieces = [
            piece(100, 8, 0, 0),
            piece(300, 4, 0, 8),
            piece(104, 4, 1, 0),
        ];
        let mut buf = [0xeeu8; 12];
        overlay(&mut buf, &runs, &pieces, &reqs);
        assert_eq!(buf, [1, 2, 3, 4, 0xa1, 0xa2, 0xa3, 0xa4, 9, 10, 11, 12]);
    }

    /// Whatever part of a payload a piece holds — whole elements, the tail
    /// of one, the head of the next, a few bytes from the middle of a single
    /// one — it receives exactly those bytes of the external form.
    #[test]
    fn copy_external_places_every_sub_range_of_the_external_form() {
        let native: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(29) ^ 0x5c).collect();
        for width in [1usize, 2, 4, 8] {
            let external = swap_to_vec(&native, width);
            for pos in 0..native.len() {
                for end in pos..=native.len() {
                    let mut dst = vec![0xeeu8; end - pos];
                    copy_external(&native, width, pos, &mut dst);
                    assert_eq!(dst, external[pos..end], "width {width}, {pos}..{end}");
                }
            }
        }
    }

    /// The issue's reproducer in miniature: one window cut inside a double.
    /// The 8-byte elements start at file offset 4, the buffer is cut at 16.
    #[test]
    fn an_element_cut_by_a_window_boundary_lands_whole() {
        let vals = [1.5f64, -2.25e300, 3.0e-300];
        let native: Vec<u8> = vals.iter().flat_map(|v| v.to_ne_bytes()).collect();
        let want: Vec<u8> = vals.iter().flat_map(|v| v.to_be_bytes()).collect();
        let (env, file) = env_and_file(2, &[0u8; 28]);
        let runs: [Run; 1] = [(4, 24)];
        let segs = [&native[..]];
        let reqs = [native_req(&runs, &segs, 8), native_req(&[], &[], 8)];
        let mut cbuf = CollBuf::default();
        write_all(&env, &file, &params(16), &mut cbuf, &reqs).unwrap();
        assert_eq!(file.to_bytes()[4..], want);
    }

    #[test]
    fn collective_buffer_is_allocated_once_and_only_grows_for_an_oversized_window() {
        // A collective of cb_buffer_size 4096 over a span of 1 MiB.
        let (mut bytes, cap) = (Vec::new(), 4096);
        // The length of the window a call gets, and whether it allocated.
        let take = |bytes: &mut Vec<u8>, cap, need| {
            let (buf, reused) = window_buf(bytes, cap, need);
            (buf.len(), reused)
        };
        assert_eq!(take(&mut bytes, cap, 1000), (1000, false));
        // The first window sized the buffer for the whole collective.
        assert_eq!(bytes.len(), 4096);
        let at = bytes.as_ptr();
        assert_eq!(take(&mut bytes, cap, 4096), (4096, true));
        // A later, smaller collective (its `cap` is its span) finds it there.
        assert_eq!(take(&mut bytes, 17, 17), (17, true));
        assert_eq!(bytes.as_ptr(), at);
        // One stripe larger than cb_buffer_size: the only reason to grow.
        assert_eq!(take(&mut bytes, cap, 5000), (5000, false));
        assert_eq!(bytes.len(), 5000);
    }

    /// Collectives on one open file share one buffer, and only windows with
    /// holes use it: hole-free writes of every size leave it unallocated;
    /// the first holed write sizes it to its span, no larger, a later one
    /// that needs more grows it (up to `cb_buffer_size`), and one that needs
    /// less finds it in place. A window that needs no buffer counts as a
    /// reuse, as a read window does.
    #[test]
    fn collective_buffer_is_no_larger_than_the_collective_span() {
        let (env, file) = env_and_file(1, &[]);
        let (p, mut cbuf) = (params(4 << 20), CollBuf::default());
        let data = [7u8; 3000];
        // `len` bytes from 0, whole or with a hole in their middle third.
        let write = |cbuf: &mut CollBuf, len: u64, holed: bool| {
            let runs = match holed {
                true => vec![(0, len / 3), (2 * len / 3, len - 2 * len / 3)],
                false => vec![(0, len)],
            };
            let segs = [&data[..runs_total(&runs) as usize]];
            write_all(&env, &file, &p, cbuf, &[write_req(&runs, &segs)]).unwrap();
            (cbuf.bytes.len(), cbuf.bytes.as_ptr())
        };
        for len in [300, 3000, 100] {
            assert_eq!(
                write(&mut cbuf, len, false).0,
                0,
                "a hole-free write of {len} B"
            );
        }
        assert_eq!(write(&mut cbuf, 300, true).0, 300);
        let (len, at) = write(&mut cbuf, 3000, true);
        assert_eq!(len, 3000);
        assert_eq!(write(&mut cbuf, 100, true), (3000, at));
        assert_eq!(write(&mut cbuf, 3000, false), (3000, at));
        let snap = env.config.profile.snapshot();
        let (t, b) = (snap.twophase, snap.bytepath);
        assert_eq!((t.windows, t.rmw_windows), (7, 3));
        assert_eq!(b.collbuf_reuses, 5, "two windows allocated");
    }

    /// The buffer is never cleared, so what an earlier collective left in
    /// it (here `0xee` in every byte) is there when a window with holes is
    /// assembled. A hole-free window takes nothing from it and a holed one
    /// only what its read-modify-write read put there: every hole comes out
    /// of the file. Neither window allocates: the buffer holds enough.
    #[test]
    fn a_window_with_holes_takes_them_from_the_file_not_from_the_buffer() {
        let old = vec![0x11u8; 2048];
        let (env, file) = env_and_file(2, &old);
        // Window 1 (stripe 0) is fully covered; window 2 (stripe 1) gets
        // two small pieces with a hole between and around them.
        let runs0: [Run; 2] = [(0, 1024), (1100, 50)];
        let runs1: [Run; 1] = [(1500, 20)];
        let (d0, d1) = (vec![0xaau8; 1074], vec![0xbbu8; 20]);
        let (s0, s1) = ([&d0[..]], [&d1[..]]);
        let reqs = [write_req(&runs0, &s0), write_req(&runs1, &s1)];
        let mut cbuf = CollBuf::default();
        cbuf.bytes = vec![0xee; 1024];
        let at = cbuf.bytes.as_ptr();
        write_all(&env, &file, &params(1024), &mut cbuf, &reqs).unwrap();
        let mut want = old.clone();
        want[..1024].fill(0xaa);
        want[1100..1150].fill(0xaa);
        want[1500..1520].fill(0xbb);
        assert!(file.to_bytes() == want);
        assert_eq!((cbuf.bytes.len(), cbuf.bytes.as_ptr()), (1024, at));
        // The holed span, [1100, 1520), was read whole into the buffer.
        assert!(cbuf.bytes[..420].iter().all(|&b| b == 0x11));
        assert!(cbuf.bytes[420..].iter().all(|&b| b == 0xee));
        let t = env.config.profile.snapshot().twophase;
        assert_eq!((t.windows, t.rmw_windows), (2, 1));
        let b = env.config.profile.snapshot().bytepath;
        assert_eq!(b.collbuf_reuses, 2);
    }

    /// A `cb_nodes` hint is clamped to the ranks (floor one); unhinted, the
    /// default is one aggregator per server, fewer only for fewer ranks,
    /// whatever the collective's size: a collective of 1 byte, of 3 000
    /// bytes (under one 4 MiB buffer) and of 1 GiB all write through
    /// `min(nprocs, io_servers)` aggregators.
    #[test]
    fn aggregator_selection() {
        let unhinted = TwoPhaseParams {
            cb_nodes: None,
            io_servers: 12,
            ..params(1024)
        };
        assert_eq!(unhinted.naggs(32), 12);
        assert_eq!(unhinted.naggs(4), 4);
        // 32 ranks, 4 servers of 1 MiB stripes; rank 0 lends the whole
        // collective as repeats of one 1 MiB slice, and the file keeps no
        // byte of it.
        let mut cfg = SimConfig::test_small();
        cfg.stripe_size = 1 << 20;
        cfg.profile.set_enabled(true);
        let chunk = vec![0x3cu8; 1 << 20];
        for total in [1u64, 3000, 1 << 30] {
            let file = Pfs::new(cfg.clone(), StorageMode::CostOnly).create("w");
            let env = CollEnv {
                clocks: SharedClocks::new(32),
                config: Arc::new(cfg.clone()),
                group: Arc::new((0..32).collect()),
            };
            let runs: [Run; 1] = [(0, total)];
            let segs: Vec<&[u8]> = (0..total.div_ceil(1 << 20))
                .map(|_| &chunk[..total.min(1 << 20) as usize])
                .collect();
            let mut reqs: Vec<Req<'_>> = (0..32).map(|_| write_req(&[], &[])).collect();
            reqs[0] = write_req(&runs, &segs);
            let p = TwoPhaseParams {
                cb_buffer_size: 4 << 20,
                io_servers: 4,
                stripe: 1 << 20,
                ..unhinted
            };
            write_all(&env, &file, &p, &mut CollBuf::default(), &reqs).unwrap();
            let t = cfg.profile.snapshot().twophase;
            assert_eq!(t.cb_nodes, 4, "a collective of {total} B");
        }
        let two = TwoPhaseParams {
            cb_nodes: Some(2),
            ..unhinted
        };
        assert_eq!(two.naggs(32), 2);
        assert_eq!(two.naggs(1), 1);
        let none = TwoPhaseParams {
            cb_nodes: Some(0),
            ..unhinted
        };
        assert_eq!(none.naggs(32), 1);
    }

    /// A write has no more aggregators than servers — its domains are their
    /// servers — and says so: `cb_nodes=8` over four servers writes with,
    /// and records, four. A read keeps the eight contiguous domains.
    #[test]
    fn a_write_records_the_aggregators_it_writes_with() {
        let data = [0x42u8; 8 * 1024];
        let runs: Vec<[Run; 1]> = (0..8).map(|r| [(r * 1024, 1024)]).collect();
        let segs: Vec<[&[u8]; 1]> = (0..8).map(|r| [&data[r * 1024..][..1024]]).collect();
        let p = TwoPhaseParams {
            cb_nodes: Some(8),
            ..params(1024)
        };
        let (env, file) = env_and_file(8, &[]);
        let reqs: Vec<Req<'_>> = runs
            .iter()
            .zip(&segs)
            .map(|(r, s)| write_req(r, s))
            .collect();
        write_all(&env, &file, &p, &mut CollBuf::default(), &reqs).unwrap();
        let t = env.config.profile.snapshot().twophase;
        assert_eq!((t.cb_nodes, t.file_domains), (4, 4));
        assert!(file.to_bytes() == data);

        let (env, file) = env_and_file(8, &data);
        let mut out = vec![0u8; 8 * 1024];
        let mut reqs: Vec<Req<'_>> = runs
            .iter()
            .zip(out.chunks_mut(1024))
            .map(|(r, dst)| Req {
                meta: r,
                src: &[],
                dst,
                tag: 0,
                aux: 0,
            })
            .collect();
        read_all(&env, &file, &p, &mut CollBuf::default(), &mut reqs).unwrap();
        let t = env.config.profile.snapshot().twophase;
        assert_eq!((t.cb_nodes, t.file_domains), (8, 8));
        assert_eq!(out, data);
    }

    #[test]
    fn read_all_scatters_into_the_lent_destinations() {
        let content: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let (env, file) = env_and_file(2, &content);
        let runs0: [Run; 2] = [(10, 5), (2000, 7)];
        let runs1: [Run; 1] = [(1020, 10)]; // straddles the window boundary
        let (mut out0, mut out1) = ([0u8; 12], [0u8; 10]);
        let mut reqs = [
            Req {
                meta: &runs0,
                src: &[],
                dst: &mut out0,
                tag: 0,
                aux: 0,
            },
            Req {
                meta: &runs1,
                src: &[],
                dst: &mut out1,
                tag: 0,
                aux: 0,
            },
        ];
        let mut cbuf = CollBuf::default();
        read_all(&env, &file, &params(1024), &mut cbuf, &mut reqs).unwrap();
        assert_eq!(out0[..5], content[10..15]);
        assert_eq!(out0[5..], content[2000..2007]);
        assert_eq!(out1[..], content[1020..1030]);
    }

    #[test]
    fn domains_cover_exactly_and_align() {
        let d = file_domains(100, 10_100, 4, 1000);
        assert_eq!(d.first().unwrap().0, 100);
        assert_eq!(d.last().unwrap().1, 10_100);
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            // Interior boundaries are *absolute* stripe multiples.
            assert_eq!(w[0].1 % 1000, 0);
        }
        // Alignment of the ragged first domain may cost one extra domain.
        assert!(d.len() <= 5, "{d:?}");
    }

    /// Every domain must be non-empty (`hi > lo`) and together they must
    /// tile `[gmin, gmax)` exactly, with interior boundaries on absolute
    /// stripe multiples.
    fn check_domains(gmin: u64, gmax: u64, naggs: usize, stripe: u64) -> Vec<(u64, u64)> {
        let d = file_domains(gmin, gmax, naggs, stripe);
        if gmax == gmin {
            assert!(d.is_empty());
            return d;
        }
        assert_eq!(d.first().unwrap().0, gmin, "{d:?}");
        assert_eq!(d.last().unwrap().1, gmax, "{d:?}");
        for &(lo, hi) in &d {
            assert!(hi > lo, "empty domain in {d:?}");
        }
        for w in d.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gap/overlap in {d:?}");
            assert_eq!(w[0].1 % stripe, 0, "unaligned boundary in {d:?}");
        }
        d
    }

    #[test]
    fn domains_more_aggregators_than_stripes() {
        // Span of 3 stripes split over 8 aggregators: some aggregators get
        // nothing, but no domain may be empty.
        let d = check_domains(0, 3000, 8, 1000);
        assert!(d.len() <= 3, "{d:?}");
        // Span smaller than one stripe.
        let d = check_domains(10, 250, 8, 1000);
        assert_eq!(d, vec![(10, 250)]);
    }

    #[test]
    fn domains_single_byte_span() {
        let d = check_domains(999, 1000, 4, 1000);
        assert_eq!(d, vec![(999, 1000)]);
        // A single byte exactly at a stripe boundary.
        let d = check_domains(1000, 1001, 4, 1000);
        assert_eq!(d, vec![(1000, 1001)]);
    }

    #[test]
    fn domains_aligned_edges() {
        // gmin and gmax both exactly on stripe boundaries.
        let d = check_domains(2000, 10_000, 4, 1000);
        assert_eq!(d.len(), 4, "{d:?}");
        for &(lo, hi) in &d {
            assert_eq!(lo % 1000, 0);
            assert_eq!(hi % 1000, 0);
        }
    }

    #[test]
    fn domains_empty_span_and_stripe_one() {
        assert!(check_domains(42, 42, 4, 1000).is_empty());
        // stripe=1 degenerates to an even split with no alignment slack.
        let d = check_domains(0, 10, 4, 1);
        assert_eq!(d.len(), 4, "{d:?}");
        // Ragged: span not divisible by naggs, still exact.
        check_domains(3, 10, 4, 1);
        check_domains(0, 1, 64, 1);
    }

    #[test]
    fn aligned_request_gets_aligned_domains() {
        let d = file_domains(0, 8000, 4, 1000);
        assert_eq!(d, vec![(0, 2000), (2000, 4000), (4000, 6000), (6000, 8000)]);
    }

    #[test]
    fn empty_span_has_no_domains() {
        assert!(file_domains(5, 5, 4, 64).is_empty());
    }

    #[test]
    fn single_aggregator_gets_everything() {
        let d = file_domains(0, 1000, 1, 64);
        assert_eq!(d, vec![(0, 1000)]);
    }

    /// Window pieces as `(off, len, rank, src_pos)` tuples.
    fn pieces_of(win: &Window) -> Vec<(u64, u64, usize, u64)> {
        let tuple = |pc: &Piece| (pc.off, pc.len, pc.rank, pc.src_pos);
        win.pieces.iter().map(tuple).collect()
    }

    #[test]
    fn plan_splits_runs_at_window_cuts_and_tracks_source_positions() {
        let runs: [Run; 2] = [(0, 10), (20, 10)];
        let plan = plan_windows(&[&runs], (0, 30), 1, &params(25), false);
        assert_eq!(plan.len(), 1);
        let [first, second] = &plan[0][..] else {
            panic!("expected two windows, got {:?}", plan[0]);
        };
        // Run 0 whole and the start of run 1 (src 10..15), cut at 25.
        assert_eq!(pieces_of(first), [(0, 10, 0, 0), (20, 5, 0, 10)]);
        assert_eq!(first.extents, [(0, 25)]);
        assert_eq!(pieces_of(second), [(25, 5, 0, 15)]);
        assert_eq!(second.extents, [(25, 5)]);
    }

    #[test]
    fn affine_plan_routes_stripes_to_their_servers_aggregator() {
        // 4 servers, 2 aggregators: aggregator 0 owns the stripes of
        // servers 0 and 2, aggregator 1 those of servers 1 and 3; a
        // 1.5-stripe buffer holds the ragged first stripe and one more.
        let (r0, r1): ([Run; 1], [Run; 1]) = ([(512, 4096)], [(1000, 100)]);
        let plan = plan_windows(&[&r0, &r1], (512, 4608), 2, &params(1536), true);
        assert_eq!(plan.len(), 2);
        let extents = |a: usize| plan[a].iter().map(|w| &w.extents[..]).collect::<Vec<_>>();
        assert_eq!(
            extents(0),
            [&[(512, 512), (2048, 1024)][..], &[(4096, 512)]]
        );
        assert_eq!(extents(1), [&[(1024, 1024)][..], &[(3072, 1024)]]);
        // Rank order inside a window; rank 1's piece starts over.
        assert_eq!(
            pieces_of(&plan[0][0]),
            [(512, 512, 0, 0), (2048, 1024, 0, 1536), (1000, 24, 1, 0)]
        );
        assert_eq!(
            pieces_of(&plan[1][0]),
            [(1024, 1024, 0, 512), (1024, 76, 1, 24)]
        );
        assert_eq!(pieces_of(&plan[1][1]), [(3072, 1024, 0, 2560)]);
    }

    /// One rank of a generated collective write: its runs and its payload
    /// of `width`-byte elements, in host byte order and in external form.
    struct Lender {
        runs: Vec<Run>,
        width: usize,
        native: Vec<u8>,
        external: Vec<u8>,
    }

    impl Lender {
        /// A payload holds whole elements: the last run stretches to the
        /// next multiple of the width. The bytes are noise grown from `seed`.
        fn new(mut runs: Vec<Run>, width: usize, seed: u64) -> Lender {
            let ragged = runs_total(&runs);
            let total = ragged.next_multiple_of(width as u64);
            if let Some(last) = runs.last_mut() {
                last.1 += total - ragged;
            }
            let mut x = seed;
            let mut noise = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            };
            let native: Vec<u8> = (0..total).map(|_| noise()).collect();
            Lender {
                external: swap_to_vec(&native, width),
                runs,
                width,
                native,
            }
        }

        /// The native payload as a gather list: cut after element
        /// `c % (elements + 1)` for each `c` of `cuts`, so a repeated cut,
        /// or one at either end, leaves an empty segment.
        fn segments(&self, cuts: &[u64]) -> Vec<&[u8]> {
            let elems = (self.native.len() / self.width) as u64;
            let mut at: Vec<usize> = cuts
                .iter()
                .map(|c| (c % (elems + 1)) as usize * self.width)
                .collect();
            at.sort_unstable();
            at.push(self.native.len());
            let mut from = 0usize;
            let cut = |&to: &usize| {
                let seg = &self.native[from..to];
                from = to;
                seg
            };
            at.iter().map(cut).collect()
        }
    }

    /// Sorted, disjoint (possibly touching) runs; may be empty.
    fn arb_runs() -> impl Strategy<Value = Vec<Run>> {
        vec((0u64..3000, 1u64..2500), 0..8).prop_map(|raw| {
            let mut at = 0u64;
            let place = |(gap, len)| {
                let off = at + gap;
                at = off + len;
                (off, len)
            };
            raw.into_iter().map(place).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the run lists and the domain kind: the plan's pieces
        /// tile every rank's runs exactly once, stay in rank order inside
        /// a window, never leave their window's extents, and are no more
        /// than the per-window (contiguous) or per-stripe (affine) splits
        /// of the planners this one replaced.
        #[test]
        fn plan_tiles_every_run_once_inside_its_extents(
            per_rank in vec(arb_runs(), 1..9),
            cb in 1usize..6000,
            stripe in 1u64..1500,
            io_servers in 1usize..6,
            naggs in 1usize..9,
            affine in any::<bool>(),
        ) {
            let all_runs: Vec<&[Run]> = per_rank.iter().map(Vec::as_slice).collect();
            prop_assume!(all_runs.iter().any(|r| !r.is_empty()));
            let (gmin, gmax) = aggregate_span(&all_runs).unwrap();
            // Affine domains are servers': no more of them than servers.
            let naggs = if affine { naggs.min(io_servers) } else { naggs };
            let p = TwoPhaseParams {
                cb_buffer_size: cb,
                cb_nodes: Some(naggs),
                io_servers,
                stripe,
                pipeline: true,
            };
            let plan = plan_windows(&all_runs, (gmin, gmax), naggs, &p, affine);

            let mut by_rank: Vec<Vec<Piece>> = vec![Vec::new(); per_rank.len()];
            let mut owned: Vec<Run> = Vec::new();
            for win in plan.iter().flatten() {
                prop_assert!(!win.pieces.is_empty(), "an empty window survived");
                for pair in win.pieces.windows(2) {
                    let in_order = pair[0].rank < pair[1].rank
                        || (pair[0].rank == pair[1].rank
                            && pair[0].off + pair[0].len <= pair[1].off);
                    prop_assert!(in_order, "out of rank order: {pair:?}");
                }
                for pc in &win.pieces {
                    let inside = |&(elo, elen): &Run| elo <= pc.off && pc.off + pc.len <= elo + elen;
                    prop_assert!(pc.len > 0 && win.extents.iter().any(inside), "{pc:?} escapes {:?}", win.extents);
                    by_rank[pc.rank].push(*pc);
                }
                owned.extend(&win.extents);
            }
            // No byte of the span belongs to two windows.
            owned.sort_unstable();
            for pair in owned.windows(2) {
                prop_assert!(pair[0].0 + pair[0].1 <= pair[1].0, "extents overlap: {pair:?}");
            }
            prop_assert!(owned.first().is_some_and(|e| e.0 >= gmin));
            prop_assert!(owned.last().is_some_and(|e| e.0 + e.1 <= gmax));
            // Each rank's pieces, in payload order, are its runs again.
            for (pieces, runs) in by_rank.iter_mut().zip(&per_rank) {
                pieces.sort_unstable_by_key(|pc| pc.src_pos);
                let mut rebuilt: Vec<Run> = Vec::new();
                let mut src = 0u64;
                for pc in pieces.iter() {
                    prop_assert_eq!(pc.src_pos, src, "payload gap or overlap");
                    src += pc.len;
                    match rebuilt.last_mut() {
                        Some(last) if last.0 + last.1 == pc.off => last.1 += pc.len,
                        _ => rebuilt.push((pc.off, pc.len)),
                    }
                }
                let mut merged: Vec<Run> = Vec::new();
                for &(off, len) in runs {
                    match merged.last_mut() {
                        Some(last) if last.0 + last.1 == off => last.1 += len,
                        _ => merged.push((off, len)),
                    }
                }
                prop_assert_eq!(rebuilt, merged);
            }
            // The replaced planners cut a run at every window boundary
            // (contiguous: domain edges and absolute buffer multiples) or
            // at every stripe boundary (affine) it crosses.
            let domain_edges: Vec<u64> = file_domains(gmin, gmax, naggs, stripe)
                .iter()
                .map(|d| d.0)
                .collect();
            let crossings = |&(off, len): &Run| {
                let inside = |b: u64| off < b && b < off + len;
                if affine {
                    (off + len - 1) / stripe - off / stripe
                } else {
                    let buffer_cuts = (off + len - 1) / cb as u64 - off / cb as u64;
                    let edge_cuts = domain_edges
                        .iter()
                        .filter(|&&b| inside(b) && b % cb as u64 != 0)
                        .count();
                    buffer_cuts + edge_cuts as u64
                }
            };
            let before: u64 = per_rank.iter().flatten().map(|r| 1 + crossings(r)).sum();
            let now = by_rank.iter().map(Vec::len).sum::<usize>() as u64;
            if affine {
                prop_assert!(now <= before, "{now} pieces, per-stripe split made {before}");
            } else {
                prop_assert_eq!(now, before);
            }
        }

        /// A collective write lent host-order elements and their width
        /// leaves the file a write lent their external form leaves — the
        /// bytes a rank-by-rank overlay of the external payloads predicts —
        /// however the runs overlap (the highest rank wins byte by byte)
        /// and wherever the cuts fall (odd buffer sizes split elements of
        /// every width).
        #[test]
        fn native_loans_write_what_their_external_form_writes(
            per_rank in vec((arb_runs(), 0u32..4, any::<u64>()), 2..5),
            cb in 1usize..4096,
            naggs in 1usize..5,
            pipeline in any::<bool>(),
        ) {
            let ranks: Vec<Lender> = per_rank
                .into_iter()
                .map(|(runs, exp, seed)| Lender::new(runs, 1 << exp, seed))
                .collect();
            prop_assume!(ranks.iter().any(|r| !r.runs.is_empty()));
            let all_runs: Vec<&[Run]> = ranks.iter().map(|r| &r.runs[..]).collect();
            let old = vec![0x5au8; aggregate_span(&all_runs).unwrap().1 as usize + 7];
            let mut want = old.clone();
            for r in &ranks {
                let mut pos = 0usize;
                for &(off, len) in &r.runs {
                    want[off as usize..(off + len) as usize]
                        .copy_from_slice(&r.external[pos..pos + len as usize]);
                    pos += len as usize;
                }
            }
            let p = TwoPhaseParams {
                cb_buffer_size: cb,
                cb_nodes: Some(naggs),
                io_servers: 4,
                stripe: 1024,
                pipeline,
            };
            for lend_native in [true, false] {
                let (env, file) = env_and_file(ranks.len(), &old);
                let segs: Vec<[&[u8]; 1]> = ranks
                    .iter()
                    .map(|r| [if lend_native { &r.native[..] } else { &r.external[..] }])
                    .collect();
                let reqs: Vec<Req<'_>> = ranks
                    .iter()
                    .zip(&segs)
                    .map(|(r, seg)| native_req(&r.runs, seg, if lend_native { r.width } else { 1 }))
                    .collect();
                write_all(&env, &file, &p, &mut CollBuf::default(), &reqs).unwrap();
                prop_assert!(file.to_bytes() == want, "lend_native {lend_native}");
            }
        }

        /// A payload lent as a gather list — cut at element boundaries into
        /// one to six segments, empty ones among them — leaves the file the
        /// same payload lent as one segment leaves, wherever the window
        /// cuts fall against the segment cuts: one piece can span several
        /// segments and one segment several windows.
        #[test]
        fn gathered_loans_write_what_one_segment_writes(
            per_rank in vec((arb_runs(), 0u32..4, any::<u64>(), vec(any::<u64>(), 0..6)), 2..5),
            cb in 1usize..4096,
            naggs in 1usize..5,
            pipeline in any::<bool>(),
        ) {
            let (ranks, cuts): (Vec<Lender>, Vec<Vec<u64>>) = per_rank
                .into_iter()
                .map(|(runs, exp, seed, cuts)| (Lender::new(runs, 1 << exp, seed), cuts))
                .unzip();
            prop_assume!(ranks.iter().any(|r| !r.runs.is_empty()));
            let p = TwoPhaseParams {
                cb_buffer_size: cb,
                cb_nodes: Some(naggs),
                io_servers: 4,
                stripe: 1024,
                pipeline,
            };
            let whole: Vec<Vec<&[u8]>> = ranks.iter().map(|r| vec![&r.native[..]]).collect();
            let cut: Vec<Vec<&[u8]>> = ranks.iter().zip(&cuts).map(|(r, c)| r.segments(c)).collect();
            let file_after = |lists: &[Vec<&[u8]>]| {
                let (env, file) = env_and_file(ranks.len(), &[0x5au8; 64]);
                let reqs: Vec<Req<'_>> = ranks
                    .iter()
                    .zip(lists)
                    .map(|(r, segs)| native_req(&r.runs, segs, r.width))
                    .collect();
                write_all(&env, &file, &p, &mut CollBuf::default(), &reqs).unwrap();
                file.to_bytes()
            };
            prop_assert!(file_after(&cut) == file_after(&whole));
        }

        /// A window's gather list leaves the file the engine that overlaid
        /// the pieces in a buffer left: ranks whose runs overlap (the
        /// highest rank wins), holes between and around them over a file
        /// of noise (they keep the file's bytes), elements 1 to 8 bytes
        /// wide, different from rank to rank, payloads lent as gather
        /// lists, and buffer sizes that cut elements.
        #[test]
        fn gathered_windows_write_what_the_overlay_wrote(
            per_rank in vec((arb_runs(), 0u32..4, any::<u64>(), vec(any::<u64>(), 0..4)), 1..5),
            cb in 1usize..4096,
            naggs in 1usize..5,
            pipeline in any::<bool>(),
        ) {
            let (ranks, cuts): (Vec<Lender>, Vec<Vec<u64>>) = per_rank
                .into_iter()
                .map(|(runs, exp, seed, cuts)| (Lender::new(runs, 1 << exp, seed), cuts))
                .unzip();
            let all_runs: Vec<&[Run]> = ranks.iter().map(|r| &r.runs[..]).collect();
            prop_assume!(all_runs.iter().any(|r| !r.is_empty()));
            let gmax = aggregate_span(&all_runs).unwrap().1 as usize;
            let old: Vec<u8> = (0..gmax / 2 + 100).map(|i| (i * 7 % 251) as u8 ^ 0x80).collect();
            let p = TwoPhaseParams {
                cb_buffer_size: cb,
                cb_nodes: Some(naggs),
                io_servers: 4,
                stripe: 1024,
                pipeline,
            };
            let lists: Vec<Vec<&[u8]>> = ranks.iter().zip(&cuts).map(|(r, c)| r.segments(c)).collect();
            let reqs: Vec<Req<'_>> = ranks
                .iter()
                .zip(&lists)
                .map(|(r, segs)| native_req(&r.runs, segs, r.width))
                .collect();
            let (env, file) = env_and_file(ranks.len(), &old);
            write_all(&env, &file, &p, &mut CollBuf::default(), &reqs).unwrap();
            prop_assert!(file.to_bytes() == overlay_oracle(&old, &reqs, &p));
        }
    }
}
