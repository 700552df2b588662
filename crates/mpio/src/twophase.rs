//! Two-phase collective I/O (Rosario/Bordawekar/Choudhary; Thakur's extended
//! two-phase method — the ROMIO algorithm the paper builds on).
//!
//! Phase 1 — *exchange*: the aggregate byte range requested by all ranks is
//! partitioned into contiguous **file domains**, one per aggregator rank;
//! every rank ships the parts of its request that fall in each domain to
//! that domain's aggregator.
//!
//! Phase 2 — *access*: each aggregator walks its domain in collective-buffer
//! sized windows. In a window, the pieces contributed by all ranks are
//! merged; if they cover one contiguous interval the aggregator issues a
//! single large request, otherwise it performs read-modify-write of the
//! covered extent (writes) or one spanning read (reads). Either way, the
//! many small noncontiguous per-rank requests become a few large ordered
//! ones — this is the optimization responsible for PnetCDF's scaling in
//! Figures 6 and 7.
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
use crate::recover::{self, RetryPolicy};
use crate::view::{runs_total, Run};

/// Parameters resolved from hints at the call site.
#[derive(Clone, Copy, Debug)]
pub struct TwoPhaseParams {
    /// Collective buffer (window) size per aggregator.
    pub cb_buffer_size: usize,
    /// `cb_nodes` hint; `None` picks the aggregator count per collective
    /// from the server count and request volume ([`dynamic_cb_nodes`]).
    pub cb_nodes: Option<usize>,
    /// Number of PFS I/O servers (aggregator default and affine mapping).
    pub io_servers: usize,
    /// File system stripe size (domain boundaries align to it).
    pub stripe: u64,
    /// Pipeline the rounds (`pnc_cb_pipeline`): each aggregator holds two
    /// collective buffers, so round `j`'s data exchange overlaps round
    /// `j-1`'s disk access. Off reproduces the serial exchange-then-access
    /// timing exactly.
    pub pipeline: bool,
    /// Server-affine write domains (`pnc_cb_affinity`): each aggregator
    /// owns the stripes of a distinct subset of servers, so every server
    /// sees one aggregator stream and its NIC+disk pipeline stays full.
    pub affinity: bool,
}

impl TwoPhaseParams {
    /// Aggregator count for this collective: the `cb_nodes` hint if given,
    /// otherwise the dynamic default.
    pub fn naggs(&self, nprocs: usize, total_bytes: u64) -> usize {
        match self.cb_nodes {
            Some(k) => k.min(nprocs).max(1),
            None => dynamic_cb_nodes(nprocs, self.io_servers, total_bytes, self.cb_buffer_size),
        }
    }
}

/// Default aggregator count when `cb_nodes` is unset: one aggregator
/// stream per I/O server keeps every dual-resource server pipeline full
/// without queueing extra streams behind one disk, and a collective too
/// small to fill that many collective buffers uses fewer still.
pub fn dynamic_cb_nodes(
    nprocs: usize,
    io_servers: usize,
    total_bytes: u64,
    cb_buffer: usize,
) -> usize {
    let volume_cap = total_bytes.div_ceil(cb_buffer.max(1) as u64).max(1);
    io_servers
        .min(nprocs)
        .min(volume_cap.min(usize::MAX as u64) as usize)
        .max(1)
}

// ---- lent requests ----------------------------------------------------------

/// One rank's share of a collective access, lent through the rendezvous for
/// the duration of the call: `meta` is its sorted run list, `src` its packed
/// write payload (empty for a read), `dst` where a read delivers the run
/// bytes in run order (empty for a write), and `tag` its ambient trace id
/// (0 while tracing is off). The id rides the loan because the collective's
/// finish closure runs on ONE thread for all ranks — thread-local
/// [`TraceCtx`] cannot carry a rank's id across the rendezvous.
///
/// Nothing here is copied on the way in: the engine reads each `src` and
/// fills each `dst` where the rank keeps it.
pub type Req<'a> = Loan<'a, [Run]>;

// ---- file domains -----------------------------------------------------------

/// Partition `[gmin, gmax)` into at most `naggs` contiguous domains whose
/// interior boundaries are *absolute* multiples of `stripe`.
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

/// Wire traffic of window indices `rounds`, from the gathered pieces.
/// Aggregator `a` *is* rank `a` (ROMIO's default aggregator ranklist), so a
/// piece whose owning rank is its window's aggregator moves by memcpy and
/// costs no wire. This is why Z-ish partitions — whose blocks align with
/// the file domains — exchange less than X-ish partitions (the paper's
/// "different access contiguity"). One round prices a pipelined exchange
/// round, all rounds together the serial engines' monolithic exchange —
/// the totals add up to the same `exchange_wire_bytes` — and because it
/// reads pieces, not a domain table, it prices server-affine (interleaved)
/// write domains too.
fn wire(windows: &[Vec<Vec<Piece>>], nranks: usize, rounds: std::ops::Range<usize>) -> Wire {
    let mut send = vec![0u64; nranks];
    let mut w = Wire::default();
    for (a, agg_windows) in windows.iter().enumerate() {
        let hi = rounds.end.min(agg_windows.len());
        let mut recv = 0u64;
        for pc in agg_windows[rounds.start.min(hi)..hi].iter().flatten() {
            if pc.rank != a {
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

// ---- window piece gathering -------------------------------------------------

/// A contiguous piece of one rank's request inside the current window.
#[derive(Clone, Copy, Debug)]
struct Piece {
    off: u64,
    len: u64,
    rank: usize,
    /// Position of this piece's bytes in the rank's packed buffer.
    src_pos: u64,
}

/// Per-rank scan cursor over its sorted run list.
#[derive(Clone, Copy, Default)]
struct Cursor {
    idx: usize,
    consumed: u64,
    src_pos: u64,
}

/// Advance `cur` over `runs`, emitting pieces up to file offset `whi`.
fn take_pieces(runs: &[Run], cur: &mut Cursor, whi: u64, rank: usize, out: &mut Vec<Piece>) {
    while cur.idx < runs.len() {
        let (off, len) = runs[cur.idx];
        let start = off + cur.consumed;
        if start >= whi {
            return;
        }
        let end = (off + len).min(whi);
        out.push(Piece {
            off: start,
            len: end - start,
            rank,
            src_pos: cur.src_pos + cur.consumed,
        });
        if end == off + len {
            cur.src_pos += len;
            cur.consumed = 0;
            cur.idx += 1;
        } else {
            cur.consumed = end - off;
            return;
        }
    }
}

/// The maximal contiguous intervals `pieces` cover, sorted, into `out` (a
/// scratch vector reused from window to window): touching and overlapping
/// pieces merge.
fn merge_coverage(out: &mut Vec<Run>, pieces: &[Piece]) {
    out.clear();
    out.extend(pieces.iter().map(|pc| (pc.off, pc.len)));
    out.sort_unstable();
    let mut kept = 0usize;
    for i in 1..out.len() {
        let (off, len) = out[i];
        let last_end = out[kept].0 + out[kept].1;
        if off <= last_end {
            out[kept].1 = (off + len).max(last_end) - out[kept].0;
        } else {
            kept += 1;
            out[kept] = (off, len);
        }
    }
    out.truncate(kept + 1);
}

// ---- server-affine write domains --------------------------------------------

/// Affine planning walks every stripe of the aggregate span once; beyond
/// this many stripes (4 Mi ≈ a multi-TiB span at default stripes) fall
/// back to contiguous domains rather than build giant per-stripe tables.
const AFFINE_SPAN_LIMIT: u64 = 1 << 22;

/// Server-affine window plan: `windows[a][j]` holds round `j`'s pieces for
/// aggregator `a`, `extents[a][j]` the sorted owned stripe ranges those
/// pieces may touch. Aggregator `a` owns exactly the stripes of servers
/// `{s : s % naggs_eff == a}`, so its disk traffic never contends with
/// another aggregator's.
struct AffinePlan {
    windows: Vec<Vec<Vec<Piece>>>,
    extents: Vec<Vec<Vec<(u64, u64)>>>,
    naggs_eff: usize,
}

/// Build the affine plan for `[gmin, gmax)`. Stripe `s` lives on server
/// `s % nservers` and is owned by aggregator `(s % nservers) % naggs_eff`;
/// each aggregator groups its consecutive owned stripes into windows of
/// about `cb_buffer_size` bytes. Pieces are split at stripe boundaries so
/// each lies in exactly one window (and one extent).
fn gather_affine_windows(
    all_runs: &[&[Run]],
    gmin: u64,
    gmax: u64,
    naggs: usize,
    io_servers: usize,
    stripe: u64,
    cb_buffer_size: usize,
) -> AffinePlan {
    debug_assert!(gmax > gmin);
    let nservers = io_servers.max(1) as u64;
    let naggs_eff = naggs.min(io_servers).max(1);
    let s0 = gmin / stripe;
    let s1 = (gmax - 1) / stripe;
    let cb = cb_buffer_size.max(1) as u64;

    // Pass 1: per-stripe owner and window index, plus per-window extents.
    let mut wmap: Vec<u32> = Vec::with_capacity((s1 - s0 + 1) as usize);
    let mut wbytes = vec![0u64; naggs_eff];
    let mut extents: Vec<Vec<Vec<(u64, u64)>>> = vec![Vec::new(); naggs_eff];
    for s in s0..=s1 {
        let a = ((s % nservers) as usize) % naggs_eff;
        let elo = (s * stripe).max(gmin);
        let ehi = ((s + 1) * stripe).min(gmax);
        let len = ehi - elo;
        if extents[a].is_empty() || wbytes[a] + len > cb {
            extents[a].push(Vec::new());
            wbytes[a] = 0;
        }
        wbytes[a] += len;
        let win = extents[a].last_mut().unwrap();
        match win.last_mut() {
            Some(last) if last.0 + last.1 == elo => last.1 += len,
            _ => win.push((elo, len)),
        }
        wmap.push((extents[a].len() - 1) as u32);
    }

    // Pass 2: split every run at stripe boundaries and route each piece to
    // its stripe's window. Ranks are walked in order, so within a window
    // pieces stay in rank order and overlapping writes resolve exactly as
    // in the contiguous gather (highest rank wins).
    let mut windows: Vec<Vec<Vec<Piece>>> = extents
        .iter()
        .map(|aw| vec![Vec::new(); aw.len()])
        .collect();
    for (r, runs) in all_runs.iter().enumerate() {
        let mut src = 0u64;
        for &(off, len) in runs.iter() {
            let end = off + len;
            let mut lo = off;
            while lo < end {
                let s = lo / stripe;
                let hi = ((s + 1) * stripe).min(end);
                let a = ((s % nservers) as usize) % naggs_eff;
                windows[a][wmap[(s - s0) as usize] as usize].push(Piece {
                    off: lo,
                    len: hi - lo,
                    rank: r,
                    src_pos: src + (lo - off),
                });
                lo = hi;
            }
            src += len;
        }
    }

    // Drop windows no run touched (their stripes hold only other data).
    for a in 0..naggs_eff {
        let mut kept_w = Vec::new();
        let mut kept_e = Vec::new();
        for (w, e) in windows[a].drain(..).zip(extents[a].drain(..)) {
            if !w.is_empty() {
                kept_w.push(w);
                kept_e.push(e);
            }
        }
        windows[a] = kept_w;
        extents[a] = kept_e;
    }
    AffinePlan {
        windows,
        extents,
        naggs_eff,
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
fn win_trace(
    events: &TraceLog,
    tracing: bool,
    round: usize,
    coll_ids: &[u64],
    a: usize,
) -> WinTrace {
    if !tracing {
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

/// `[gmin, gmax)`: the byte range all ranks' (sorted, not all empty) run
/// lists span together.
fn aggregate_span(all_runs: &[&[Run]]) -> (u64, u64) {
    let firsts = all_runs.iter().filter_map(|r| r.first());
    let lasts = all_runs.iter().filter_map(|r| r.last());
    (
        firsts.map(|&(o, _)| o).min().expect("a non-empty run list"),
        lasts
            .map(|&(o, l)| o + l)
            .max()
            .expect("a non-empty run list"),
    )
}

/// Collective write: the finish-closure body. `reqs[r]` is what rank `r`
/// lent: its runs, its packed data and its trace id. Returns the
/// synchronized completion time.
///
/// Aggregator-side storage faults are recovered by [`crate::recover`];
/// when the budget runs out the error is returned *after* every rank's
/// clock has been synchronized (`set_all`), so the collective never leaves
/// a rank stranded in the past — the caller then agrees on the error.
pub fn write_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    reqs: &[Req<'_>],
) -> MpioResult<Time> {
    let n = env.size();
    let policy = RetryPolicy::default();
    let profile = env.config.profile.clone();
    let events = env.config.events.clone();
    let tracing = events.is_enabled();
    let (ids, coll_ids) = coll_trace(env, &events, reqs);
    let all_runs: Vec<&[Run]> = reqs.iter().map(|r| r.meta).collect();
    debug_assert!(reqs
        .iter()
        .all(|r| r.src.len() as u64 == runs_total(r.meta)));
    let total: u64 = all_runs.iter().map(|r| runs_total(r)).sum();
    if total == 0 {
        return Ok(env.sync_phase(Phase::Metadata, env.config.network.barrier(n)));
    }
    let (gmin, gmax) = aggregate_span(&all_runs);
    let naggs = p.naggs(n, total);

    profile.record_twophase(|t| {
        t.collective_writes += 1;
        t.cb_nodes = naggs as u64;
    });

    // Pieces are gathered first in one offset-ordered pass; the windows
    // are then timed in round-robin order across aggregators, so their
    // concurrent requests reach the shared server queues interleaved in
    // time order — identically in both engines, which is what keeps the
    // produced file bytes independent of the pipeline hint.
    let span_stripes = (gmax - 1) / p.stripe - gmin / p.stripe + 1;
    let affine = p.affinity && span_stripes <= AFFINE_SPAN_LIMIT;
    let (windows, extents) = if affine {
        let plan = gather_affine_windows(
            &all_runs,
            gmin,
            gmax,
            naggs,
            p.io_servers,
            p.stripe,
            p.cb_buffer_size,
        );
        profile.record_twophase(|t| t.file_domains += plan.naggs_eff as u64);
        (plan.windows, Some(plan.extents))
    } else {
        let domains = file_domains(gmin, gmax, naggs, p.stripe);
        profile.record_twophase(|t| t.file_domains += domains.len() as u64);
        (gather_windows(&all_runs, &domains, p.cb_buffer_size), None)
    };
    let window_extents = |a: usize, j: usize| -> Option<&[(u64, u64)]> {
        extents.as_ref().map(|e| e[a][j].as_slice())
    };
    let rounds = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut split = AccessSplit::new(windows.len());
    let mut cbuf = CollBuf::new(p, gmax - gmin);

    // With fewer than two rounds there is nothing to overlap, so the
    // pipelined engine would only pay its extra offset exchange; fall back
    // to the serial timing.
    if !p.pipeline || rounds < 2 {
        // Serial engine (`pnc_cb_pipeline=disable`): ONE monolithic
        // alltoallv models offset lists and data moving together up front,
        // charged whole to the data-exchange phase; every disk window is
        // timed after it, waiting for durability. Exchange and disk time
        // add, and the server NIC stage adds to the disk stage too.
        let wire = wire(&windows, n, 0..rounds);
        profile.record_twophase(|t| t.exchange_wire_bytes += wire.total);
        let t0 = env.sync_phase(
            Phase::DataExchange,
            env.config
                .network
                .alltoallv(wire.max_send as usize, wire.max_recv as usize, n),
        );
        let mut t_agg = vec![t0; windows.len()];
        let access = (|| -> MpioResult<()> {
            for j in 0..rounds {
                for (a, agg_windows) in windows.iter().enumerate() {
                    let Some(pieces) = agg_windows.get(j) else {
                        continue;
                    };
                    let wt = win_trace(&events, tracing, j, &coll_ids, a);
                    let (_, durable) = write_window(
                        env,
                        file,
                        &policy,
                        t_agg[a],
                        a,
                        pieces,
                        reqs,
                        &mut split,
                        &mut cbuf,
                        window_extents(a, j),
                        true,
                        wt,
                    )?;
                    t_agg[a] = durable;
                }
            }
            Ok(())
        })();
        let t_end = t_agg.iter().copied().fold(t0, Time::max);
        record_coll_spans(env, &events, "coll_write", t0, t_end, &ids, &coll_ids);
        return match access {
            Ok(()) => {
                split.attribute(&profile, env, t_end, &t_agg, Phase::Wait);
                env.set_all(t_end);
                Ok(t_end)
            }
            Err(e) => {
                // Synchronize the clocks even on failure: no rank may be
                // left behind a collective, successful or not.
                env.set_all(t_end);
                Err(e)
            }
        };
    }

    // Pipelined engine: offset lists are exchanged up front (small) so the
    // rounds can be planned; each round then ships only the bytes landing
    // in that round's windows. With two collective buffers per aggregator,
    // round j's exchange may start as soon as round j-1's exchange has
    // drained AND round j-2's disk pass has freed its buffer, so
    // communication genuinely hides disk time (and vice versa).
    let meta_bytes = all_runs.iter().map(|r| r.len() * 16).max().unwrap_or(0);
    let entry = env.sync_phase(
        Phase::OffsetExchange,
        env.config.network.alltoallv(meta_bytes, meta_bytes, n),
    );
    let wire: Vec<Wire> = (0..rounds).map(|j| wire(&windows, n, j..j + 1)).collect();
    profile.record_twophase(|t| {
        t.exchange_wire_bytes += wire.iter().map(|w| w.total).sum::<u64>();
        t.pipelined_rounds += rounds as u64;
    });

    let mut t_agg = vec![entry; windows.len()];
    let mut x_done = vec![entry; rounds]; // per-round exchange completion
    let mut d_done = vec![entry; rounds]; // per-round handoff completion (all aggs)
    let mut durable_max = entry; // slowest disk among all windows
    let mut costs: Vec<Time> = Vec::with_capacity(rounds);
    let access = (|| -> MpioResult<()> {
        for j in 0..rounds {
            let mut xs = if j > 0 { x_done[j - 1] } else { entry };
            if j >= 2 {
                // Double buffering: the buffer receiving round j is the one
                // round j-2 handed off to the servers — with the dual-
                // resource servers the collective buffer is free once the
                // server NIC owns the bytes; the bounded admission queue is
                // the backpressure, not the platter.
                xs = xs.max(d_done[j - 2]);
            }
            let cost = env.alltoallv_cost(
                wire[j].max_send as usize,
                wire[j].max_recv as usize,
                wire[j].total,
            );
            costs.push(cost);
            x_done[j] = xs + cost;
            let mut dmax = entry;
            for (a, agg_windows) in windows.iter().enumerate() {
                let Some(pieces) = agg_windows.get(j) else {
                    continue;
                };
                // Aggregator a starts round j once its previous window is
                // handed off and round j's data has arrived; time spent
                // waiting on the wire is the exchange cost that survives
                // on this aggregator's critical path.
                let wt = win_trace(&events, tracing, j, &coll_ids, a);
                let ready = t_agg[a].max(x_done[j]);
                split.exchange[a] += (ready - t_agg[a]).as_nanos();
                if tracing && ready > t_agg[a] {
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
                let (handoff, durable) = write_window(
                    env,
                    file,
                    &policy,
                    ready,
                    a,
                    pieces,
                    reqs,
                    &mut split,
                    &mut cbuf,
                    window_extents(a, j),
                    false,
                    wt,
                )?;
                t_agg[a] = handoff;
                durable_max = durable_max.max(durable);
                dmax = dmax.max(handoff);
            }
            d_done[j] = dmax;
        }
        Ok(())
    })();
    // The collective completes when the last exchange has drained, the
    // last window is handed off, AND every server's disk has the bytes —
    // write_all promises durability at return, the pipeline only moves the
    // disk wait off each window's critical path.
    let t_end = t_agg.iter().copied().fold(
        x_done.last().copied().unwrap_or(entry).max(durable_max),
        Time::max,
    );
    record_coll_spans(env, &events, "coll_write", entry, t_end, &ids, &coll_ids);
    match access {
        Ok(()) => {
            split.record_overlap(&profile, &costs, entry, t_end, &t_agg);
            split.attribute(&profile, env, t_end, &t_agg, Phase::Wait);
            env.set_all(t_end);
            Ok(t_end)
        }
        Err(e) => {
            env.set_all(t_end);
            Err(e)
        }
    }
}

/// The aggregators' collective buffer: allocated once per collective call,
/// at the first window, and reused by every later window of every round.
/// (The finisher runs the aggregators' windows one at a time, so one buffer
/// stands for each aggregator's own.)
///
/// Reuse rule: a window never clears the buffer, so **every byte handed to
/// the PFS was written by a piece or by this window's read-modify-write
/// read** — a span is either fully covered by pieces or read whole first —
/// and every byte scattered to a reader was delivered by this window's
/// read. Nothing of an earlier window can show through.
struct CollBuf {
    bytes: Vec<u8>,
    /// Size of the first allocation: `cb_buffer_size`, or the collective's
    /// whole span when that is smaller. Only a window of one stripe larger
    /// than `cb_buffer_size` ever needs more.
    cap: usize,
    /// Scratch reused across windows: the merged piece coverage and the
    /// file runs a write window hands to the PFS.
    coverage: Vec<Run>,
    runs: Vec<Run>,
}

impl CollBuf {
    fn new(p: &TwoPhaseParams, span: u64) -> CollBuf {
        CollBuf {
            bytes: Vec::new(),
            cap: (p.cb_buffer_size as u64).min(span) as usize,
            coverage: Vec::new(),
            runs: Vec::new(),
        }
    }
}

/// The first `need` bytes of the collective buffer, allocating it if this
/// is the first window (or the window outgrows it).
fn window_buf<'b>(
    bytes: &'b mut Vec<u8>,
    cap: usize,
    need: usize,
    split: &mut AccessSplit,
) -> &'b mut [u8] {
    if bytes.len() < need {
        *bytes = vec![0u8; need.max(cap)];
    } else {
        split.collbuf_reuses += 1;
    }
    &mut bytes[..need]
}

/// Time one write window on aggregator `a` starting at `t_start`:
/// collective-buffer assembly (memcpy), any read-modify-write reads, then
/// the window's write. Returns `(advance, durable)`: `advance` is the
/// time the aggregator may move on — the server hand-off when
/// `wait_durable` is false (pipelined engine), the disk completion when
/// true (serial engine) — and `durable` is always the disk completion.
///
/// A contiguous-domain window writes the one span its pieces cover. With
/// `extents` (server-affine windows) the window may touch several disjoint
/// owned stripe ranges: each touched extent contributes the bounding span
/// of its pieces, untouched extents are skipped, and all spans go to the
/// PFS as ONE vectored request per server. Either way the spans lie back
/// to back in the collective buffer; a span with holes is read into its
/// place first (read-modify-write), then the pieces are laid over it.
#[allow(clippy::too_many_arguments)]
fn write_window(
    env: &CollEnv,
    file: &PfsFile,
    policy: &RetryPolicy,
    t_start: Time,
    a: usize,
    pieces: &[Piece],
    reqs: &[Req<'_>],
    split: &mut AccessSplit,
    cbuf: &mut CollBuf,
    extents: Option<&[(u64, u64)]>,
    wait_durable: bool,
    wt: WinTrace,
) -> MpioResult<(Time, Time)> {
    let events = &env.config.events;
    let tracing = wt.wid != 0 && events.is_enabled();
    let w = agg_world(env, a);
    // Ambient context: the pfs ServiceEngine stages and any retry backoffs
    // taken on this window's behalf parent themselves to the window span.
    let _ctx = tracing.then(|| TraceCtx::enter(w, wt.wid));
    let mut t_a = t_start;
    split.windows += 1;
    let piece_bytes: u64 = pieces.iter().map(|pc| pc.len).sum();
    // Assembling the collective buffer is memcpy work.
    let pack = env.config.cpu.pack(piece_bytes as usize, 1.0);
    t_a += pack;
    split.pack[a] += pack.as_nanos();
    if tracing && pack > Time::ZERO {
        events.record(
            Span::new(w, layer::MPIO, "pack", t_start.as_nanos(), t_a.as_nanos())
                .with_parent(wt.wid)
                .with_stage(stage::PACK)
                .with_arg("round", wt.round as u64),
        );
    }

    let CollBuf {
        bytes,
        cap,
        coverage,
        runs,
    } = cbuf;
    merge_coverage(coverage, pieces);
    runs.clear();
    match extents {
        None => {
            let (clo, _) = coverage[0];
            let cend = coverage.last().map(|&(o, l)| o + l).unwrap();
            runs.push((clo, cend - clo));
        }
        Some(extents) => {
            // Coverage never bridges extents (pieces lie in owned stripes
            // only), so one linear walk pairs them up.
            let mut ci = 0usize;
            for &(elo, elen) in extents {
                let first = ci;
                while ci < coverage.len() && coverage[ci].0 + coverage[ci].1 <= elo + elen {
                    debug_assert!(coverage[ci].0 >= elo, "coverage escapes its extent");
                    ci += 1;
                }
                if ci > first {
                    let blo = coverage[first].0;
                    runs.push((blo, coverage[ci - 1].0 + coverage[ci - 1].1 - blo));
                }
            }
        }
    }
    let buf = window_buf(bytes, *cap, runs_total(runs) as usize, split);
    // A span whose first covered interval is shorter than the span has
    // holes: fetch what is there before the pieces go over it.
    let (mut pos, mut ci, mut rmw) = (0usize, 0usize, false);
    for &(off, len) in runs.iter() {
        if coverage[ci].1 < len {
            rmw = true;
            let before = t_a;
            t_a = recover::read_at(file, policy, t_a, off, &mut buf[pos..pos + len as usize])?;
            split.read[a] += (t_a - before).as_nanos();
        }
        while ci < coverage.len() && coverage[ci].0 < off + len {
            ci += 1;
        }
        pos += len as usize;
    }
    split.rmw += rmw as u64;
    overlay(buf, runs, pieces, reqs);
    let completion = match extents {
        None => recover::write_at_detailed(file, policy, t_a, runs[0].0, buf)?,
        Some(_) => recover::write_runs(file, policy, t_a, runs, buf)?,
    };
    let advance = if wait_durable {
        completion.durable
    } else {
        completion.handoff
    };
    split.write[a] += (advance - t_a).as_nanos();
    split.serial_busy[a] += (completion.durable - t_start).as_nanos();
    if tracing {
        events.record(
            Span::new(
                w,
                layer::MPIO,
                "window",
                t_start.as_nanos(),
                completion.durable.as_nanos(),
            )
            .with_id(wt.wid)
            .with_parent(wt.parent)
            .with_arg("round", wt.round as u64)
            .with_arg("agg", a as u64)
            .with_arg("bytes", piece_bytes),
        );
    }
    Ok((advance, completion.durable))
}

/// Copy each piece from its rank's lent payload to its place in `buf`,
/// where the file `runs` lie back to back. Every piece sits wholly inside
/// one run. Pieces are applied in order — rank by rank — so overlapping
/// writes resolve deterministically (highest rank wins); within a rank
/// they ascend, so the run cursor only starts over when the rank changes.
fn overlay(buf: &mut [u8], runs: &[Run], pieces: &[Piece], reqs: &[Req<'_>]) {
    let (mut ri, mut base) = (0usize, 0usize);
    for pc in pieces {
        if pc.off < runs[ri].0 {
            (ri, base) = (0, 0);
        }
        while pc.off >= runs[ri].0 + runs[ri].1 {
            base += runs[ri].1 as usize;
            ri += 1;
        }
        let lo = base + (pc.off - runs[ri].0) as usize;
        let src = &reqs[pc.rank].src[pc.src_pos as usize..(pc.src_pos + pc.len) as usize];
        buf[lo..lo + pc.len as usize].copy_from_slice(src);
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
    /// Windows served from the already-allocated collective buffer.
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
        if !profile.is_enabled() || t_agg.is_empty() {
            return;
        }
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
        let crit = (0..t_agg.len()).max_by_key(|&a| t_agg[a]).unwrap();
        for &w in env.group.iter().skip(t_agg.len()) {
            profile.record_phase(w, Phase::CollBufPack, self.pack[crit]);
            profile.record_phase(w, Phase::DiskWrite, self.write[crit]);
            profile.record_phase(w, Phase::DiskRead, self.read[crit]);
            profile.record_phase(w, Phase::DataExchange, self.exchange[crit]);
            profile.record_phase(w, trailing, (t_end - t_agg[crit]).as_nanos());
        }
    }
}

/// Pre-gather every aggregator's windows' piece lists: one offset-ordered
/// pass with per-rank cursors. `result[a][j]` holds the pieces of window
/// `j` within domain `a` (empty windows are dropped).
fn gather_windows(
    all_runs: &[&[Run]],
    domains: &[(u64, u64)],
    cb_buffer_size: usize,
) -> Vec<Vec<Vec<Piece>>> {
    let mut cursors = vec![Cursor::default(); all_runs.len()];
    let mut out = Vec::with_capacity(domains.len());
    let cb = cb_buffer_size as u64;
    for &(dlo, dhi) in domains {
        let mut agg_windows = Vec::new();
        let mut wlo = dlo;
        while wlo < dhi {
            // Window boundaries at absolute multiples of the buffer size,
            // which (for the default hints) are file-system block aligned.
            let whi = ((wlo / cb + 1) * cb).min(dhi);
            let mut pieces: Vec<Piece> = Vec::new();
            for (r, runs) in all_runs.iter().enumerate() {
                take_pieces(runs, &mut cursors[r], whi, r, &mut pieces);
            }
            wlo = whi;
            if !pieces.is_empty() {
                agg_windows.push(pieces);
            }
        }
        out.push(agg_windows);
    }
    out
}

/// Collective read: the finish-closure body. `reqs[r]` is what rank `r`
/// lent: its runs and the destination its run bytes are scattered into, in
/// run order. Returns the completion time. Faults are handled as in
/// [`write_all`].
pub fn read_all(
    env: &CollEnv,
    file: &PfsFile,
    p: &TwoPhaseParams,
    reqs: &mut [Req<'_>],
) -> MpioResult<Time> {
    let n = env.size();
    let policy = RetryPolicy::default();
    let profile = env.config.profile.clone();
    let events = env.config.events.clone();
    let tracing = events.is_enabled();
    let (ids, coll_ids) = coll_trace(env, &events, reqs);
    let all_runs: Vec<&[Run]> = reqs.iter().map(|r| r.meta).collect();
    debug_assert!(reqs
        .iter()
        .all(|r| r.dst.len() as u64 == runs_total(r.meta)));
    let grand: u64 = all_runs.iter().map(|r| runs_total(r)).sum();
    if grand == 0 {
        return Ok(env.sync_phase(Phase::Metadata, env.config.network.barrier(n)));
    }
    let (gmin, gmax) = aggregate_span(&all_runs);
    // Reads keep contiguous domains: the affine layout exists to give each
    // server a single *write* stream; a read window's spanning read is
    // already one large request per domain.
    let naggs = p.naggs(n, grand);
    let domains = file_domains(gmin, gmax, naggs, p.stripe);

    profile.record_twophase(|t| {
        t.collective_reads += 1;
        t.cb_nodes = naggs as u64;
        t.file_domains += domains.len() as u64;
    });

    // Offset lists are exchanged up front (small).
    let meta_bytes = all_runs.iter().map(|r| r.len() * 16).max().unwrap_or(0);
    let t0 = env.sync_phase(
        Phase::OffsetExchange,
        env.config.network.alltoallv(meta_bytes, meta_bytes, n),
    );

    // Aggregators read their domains concurrently (round-robin timing, as
    // in `write_all`).
    let windows = gather_windows(&all_runs, &domains, p.cb_buffer_size);
    let rounds = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut t_agg = vec![t0; windows.len()];
    let mut split = AccessSplit::new(windows.len());
    let mut cbuf = CollBuf::new(p, gmax - gmin);

    // A single round has nothing to overlap: fall back to serial timing
    // (identical for one round), as in `write_all`.
    if !p.pipeline || rounds < 2 {
        // Serial engine: every window is read first, then ONE monolithic
        // alltoallv ships all the data back (local shares stay put).
        let access = (|| -> MpioResult<()> {
            for j in 0..rounds {
                for (a, agg_windows) in windows.iter().enumerate() {
                    let Some(pieces) = agg_windows.get(j) else {
                        continue;
                    };
                    let wt = win_trace(&events, tracing, j, &coll_ids, a);
                    t_agg[a] = read_window(
                        env, file, &policy, t_agg[a], a, pieces, reqs, &mut split, &mut cbuf, wt,
                    )?;
                }
            }
            Ok(())
        })();
        let t_end = t_agg.iter().copied().fold(t0, Time::max);
        if let Err(e) = access {
            record_coll_spans(env, &events, "coll_read", t0, t_end, &ids, &coll_ids);
            env.set_all(t_end);
            return Err(e);
        }
        split.attribute(&profile, env, t_end, &t_agg, Phase::Wait);

        let wire = wire(&windows, n, 0..rounds);
        profile.record_twophase(|t| t.exchange_wire_bytes += wire.total);
        let ship =
            (env.config.network).alltoallv(wire.max_send as usize, wire.max_recv as usize, n);
        if profile.is_enabled() {
            for &w in env.group.iter() {
                profile.record_phase(w, Phase::DataExchange, ship.as_nanos());
            }
        }
        let t_final = t_end + ship;
        record_coll_spans(env, &events, "coll_read", t0, t_final, &ids, &coll_ids);
        env.set_all(t_final);
        return Ok(t_final);
    }

    // Pipelined engine: round j ships back to the requesting ranks while
    // round j+1 is still being read from disk.
    let wire: Vec<Wire> = (0..rounds).map(|j| wire(&windows, n, j..j + 1)).collect();
    profile.record_twophase(|t| {
        t.exchange_wire_bytes += wire.iter().map(|w| w.total).sum::<u64>();
        t.pipelined_rounds += rounds as u64;
    });
    let mut x_done = vec![t0; rounds]; // per-round ship completion
    let mut costs: Vec<Time> = Vec::with_capacity(rounds);
    let access = (|| -> MpioResult<()> {
        for j in 0..rounds {
            let mut dmax = t0;
            for (a, agg_windows) in windows.iter().enumerate() {
                let Some(pieces) = agg_windows.get(j) else {
                    continue;
                };
                // Double buffering: round j refills the buffer round j-2
                // shipped; waiting for that ship to drain is wire time on
                // this aggregator's critical path.
                let wt = win_trace(&events, tracing, j, &coll_ids, a);
                let ready = if j >= 2 {
                    t_agg[a].max(x_done[j - 2])
                } else {
                    t_agg[a]
                };
                split.exchange[a] += (ready - t_agg[a]).as_nanos();
                if tracing && ready > t_agg[a] {
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
                t_agg[a] = read_window(
                    env, file, &policy, ready, a, pieces, reqs, &mut split, &mut cbuf, wt,
                )?;
                dmax = dmax.max(t_agg[a]);
            }
            // Round j ships once every aggregator's round-j read is done
            // and the previous ship has drained the wire.
            let xs = if j > 0 { dmax.max(x_done[j - 1]) } else { dmax };
            let cost = env.alltoallv_cost(
                wire[j].max_send as usize,
                wire[j].max_recv as usize,
                wire[j].total,
            );
            costs.push(cost);
            x_done[j] = xs + cost;
        }
        Ok(())
    })();
    let t_final = t_agg
        .iter()
        .copied()
        .fold(x_done.last().copied().unwrap_or(t0), Time::max);
    record_coll_spans(env, &events, "coll_read", t0, t_final, &ids, &coll_ids);
    if let Err(e) = access {
        env.set_all(t_final);
        return Err(e);
    }
    split.record_overlap(&profile, &costs, t0, t_final, &t_agg);
    // Each rank's trailing tail is spent shipping the last rounds back, so
    // it is data-exchange time, not idle wait.
    split.attribute(&profile, env, t_final, &t_agg, Phase::DataExchange);
    env.set_all(t_final);
    Ok(t_final)
}

/// Time one read window on aggregator `a` starting at `t_start`: one
/// spanning read into the collective buffer covers every piece in the
/// window (data sieving at the aggregator), then the pieces are scattered
/// straight into the requesting ranks' lent destinations (memcpy). Returns
/// the aggregator's completion time.
#[allow(clippy::too_many_arguments)]
fn read_window(
    env: &CollEnv,
    file: &PfsFile,
    policy: &RetryPolicy,
    t_start: Time,
    a: usize,
    pieces: &[Piece],
    reqs: &mut [Req<'_>],
    split: &mut AccessSplit,
    cbuf: &mut CollBuf,
    wt: WinTrace,
) -> MpioResult<Time> {
    let events = &env.config.events;
    let tracing = wt.wid != 0 && events.is_enabled();
    let w = agg_world(env, a);
    let _ctx = tracing.then(|| TraceCtx::enter(w, wt.wid));
    let mut t_a = t_start;
    split.windows += 1;
    let clo = pieces.iter().map(|pc| pc.off).min().unwrap();
    let cend = pieces.iter().map(|pc| pc.off + pc.len).max().unwrap();
    let buf = window_buf(&mut cbuf.bytes, cbuf.cap, (cend - clo) as usize, split);
    let before = t_a;
    t_a = recover::read_at(file, policy, t_a, clo, buf)?;
    split.read[a] += (t_a - before).as_nanos();
    let piece_bytes: u64 = pieces.iter().map(|pc| pc.len).sum();
    let pack = env.config.cpu.pack(piece_bytes as usize, 1.0);
    if tracing && pack > Time::ZERO {
        events.record(
            Span::new(
                w,
                layer::MPIO,
                "pack",
                t_a.as_nanos(),
                (t_a + pack).as_nanos(),
            )
            .with_parent(wt.wid)
            .with_stage(stage::PACK)
            .with_arg("round", wt.round as u64),
        );
    }
    t_a += pack;
    split.pack[a] += pack.as_nanos();
    for pc in pieces {
        let lo = (pc.off - clo) as usize;
        reqs[pc.rank].dst[pc.src_pos as usize..(pc.src_pos + pc.len) as usize]
            .copy_from_slice(&buf[lo..lo + pc.len as usize]);
    }
    split.serial_busy[a] += (t_a - t_start).as_nanos();
    if tracing {
        events.record(
            Span::new(w, layer::MPIO, "window", t_start.as_nanos(), t_a.as_nanos())
                .with_id(wt.wid)
                .with_parent(wt.parent)
                .with_arg("round", wt.round as u64)
                .with_arg("agg", a as u64)
                .with_arg("bytes", piece_bytes),
        );
    }
    Ok(t_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_sim::{SharedClocks, SimConfig, SimStats};
    use pnetcdf_pfs::{Pfs, StorageMode};
    use std::sync::Arc;

    /// A two-rank collective environment over a fresh `test_small` file
    /// (1 KiB stripes, 4 servers) holding `old`.
    fn env_and_file(old: &[u8]) -> (CollEnv, PfsFile) {
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        let file = Pfs::new(cfg.clone(), StorageMode::Full).create("w");
        file.import_bytes(old);
        let env = CollEnv {
            clocks: SharedClocks::new(2),
            config: Arc::new(cfg),
            stats: SimStats::new(),
            group: Arc::new(vec![0, 1]),
        };
        (env, file)
    }

    fn params(cb_buffer_size: usize, affinity: bool) -> TwoPhaseParams {
        TwoPhaseParams {
            cb_buffer_size,
            cb_nodes: Some(1),
            io_servers: 4,
            stripe: 1024,
            pipeline: false,
            affinity,
        }
    }

    fn write_req<'a>(runs: &'a [Run], data: &'a [u8]) -> Req<'a> {
        Req {
            meta: runs,
            src: data,
            dst: &mut [],
            tag: 0,
        }
    }

    #[test]
    fn overlay_places_pieces_in_their_runs_and_the_highest_rank_wins() {
        // Two file runs, (100, 8) and (300, 4), back to back in the buffer.
        let runs: [Run; 2] = [(100, 8), (300, 4)];
        let (r0, r1): ([Run; 2], [Run; 1]) = ([(100, 8), (300, 4)], [(104, 4)]);
        let d0: Vec<u8> = (1..=12).collect();
        let d1 = [0xa1, 0xa2, 0xa3, 0xa4];
        let reqs = [write_req(&r0, &d0), write_req(&r1, &d1)];
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

    #[test]
    fn collective_buffer_is_allocated_once_and_only_grows_for_an_oversized_window() {
        let mut cbuf = CollBuf::new(&params(4096, false), 1 << 20);
        let mut split = AccessSplit::new(1);
        assert_eq!(
            window_buf(&mut cbuf.bytes, cbuf.cap, 1000, &mut split).len(),
            1000
        );
        // The first window sized the buffer for the whole collective.
        assert_eq!((cbuf.bytes.len(), split.collbuf_reuses), (4096, 0));
        let at = cbuf.bytes.as_ptr();
        assert_eq!(
            window_buf(&mut cbuf.bytes, cbuf.cap, 4096, &mut split).len(),
            4096
        );
        assert_eq!(
            window_buf(&mut cbuf.bytes, cbuf.cap, 17, &mut split).len(),
            17
        );
        assert_eq!((cbuf.bytes.as_ptr(), split.collbuf_reuses), (at, 2));
        // One stripe larger than cb_buffer_size: the only reason to grow.
        assert_eq!(
            window_buf(&mut cbuf.bytes, cbuf.cap, 5000, &mut split).len(),
            5000
        );
        assert_eq!((cbuf.bytes.len(), split.collbuf_reuses), (5000, 2));
    }

    #[test]
    fn collective_buffer_is_no_larger_than_the_collective_span() {
        let cbuf = CollBuf::new(&params(4 << 20, true), 300);
        assert_eq!(cbuf.cap, 300);
    }

    /// Windows of one collective share the buffer without clearing it, so
    /// the first window's bytes are still in it when the second — which
    /// has holes — is assembled. The holes must come out of the file.
    #[test]
    fn a_window_with_holes_takes_them_from_the_file_not_from_the_buffer() {
        for affinity in [false, true] {
            let old = vec![0x11u8; 2048];
            let (env, file) = env_and_file(&old);
            // Window 1 (stripe 0) is fully covered; window 2 (stripe 1)
            // gets two small pieces with a hole between and around them.
            let runs0: [Run; 2] = [(0, 1024), (1100, 50)];
            let runs1: [Run; 1] = [(1500, 20)];
            let (d0, d1) = (vec![0xaau8; 1074], vec![0xbbu8; 20]);
            let reqs = [write_req(&runs0, &d0), write_req(&runs1, &d1)];
            write_all(&env, &file, &params(1024, affinity), &reqs).unwrap();
            let mut want = old.clone();
            want[..1024].fill(0xaa);
            want[1100..1150].fill(0xaa);
            want[1500..1520].fill(0xbb);
            assert!(file.to_bytes() == want, "affinity {affinity}");
            let t = env.config.profile.snapshot().twophase;
            assert_eq!((t.windows, t.rmw_windows), (2, 1), "affinity {affinity}");
            let b = env.config.profile.snapshot().bytepath;
            assert_eq!(b.collbuf_reuses, 1, "affinity {affinity}");
        }
    }

    #[test]
    fn read_all_scatters_into_the_lent_destinations() {
        let content: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let (env, file) = env_and_file(&content);
        let runs0: [Run; 2] = [(10, 5), (2000, 7)];
        let runs1: [Run; 1] = [(1020, 10)]; // straddles the window boundary
        let (mut out0, mut out1) = ([0u8; 12], [0u8; 10]);
        let mut reqs = [
            Req {
                meta: &runs0,
                src: &[],
                dst: &mut out0,
                tag: 0,
            },
            Req {
                meta: &runs1,
                src: &[],
                dst: &mut out1,
                tag: 0,
            },
        ];
        read_all(&env, &file, &params(1024, false), &mut reqs).unwrap();
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

    #[test]
    fn merge_coverage_detects_holes() {
        let merged = |iv: &[Run]| {
            let pieces: Vec<Piece> = iv
                .iter()
                .map(|&(off, len)| Piece {
                    off,
                    len,
                    rank: 0,
                    src_pos: 0,
                })
                .collect();
            let mut out = vec![(7, 7)]; // stale scratch must not survive
            merge_coverage(&mut out, &pieces);
            out
        };
        assert_eq!(merged(&[(0, 4), (4, 4)]), vec![(0, 8)]);
        assert_eq!(merged(&[(10, 2), (0, 4)]), vec![(0, 4), (10, 2)]);
        // Overlaps merge too.
        assert_eq!(merged(&[(0, 6), (4, 4)]), vec![(0, 8)]);
        assert_eq!(merged(&[]), vec![]);
    }

    #[test]
    fn take_pieces_tracks_source_positions() {
        let runs: Vec<Run> = vec![(0, 10), (20, 10)];
        let mut cur = Cursor::default();
        let mut pieces = Vec::new();
        take_pieces(&runs, &mut cur, 5, 0, &mut pieces);
        assert_eq!(pieces.len(), 1);
        assert_eq!((pieces[0].off, pieces[0].len, pieces[0].src_pos), (0, 5, 0));
        pieces.clear();
        take_pieces(&runs, &mut cur, 25, 0, &mut pieces);
        // Remainder of run 0 (src 5..10) and start of run 1 (src 10..15).
        assert_eq!(pieces.len(), 2);
        assert_eq!((pieces[0].off, pieces[0].len, pieces[0].src_pos), (5, 5, 5));
        assert_eq!(
            (pieces[1].off, pieces[1].len, pieces[1].src_pos),
            (20, 5, 10)
        );
        pieces.clear();
        take_pieces(&runs, &mut cur, u64::MAX, 0, &mut pieces);
        assert_eq!(
            (pieces[0].off, pieces[0].len, pieces[0].src_pos),
            (25, 5, 15)
        );
    }
}
