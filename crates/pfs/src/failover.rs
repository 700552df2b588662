//! Declustered parity and server failover: degraded-mode reads, redirected
//! writes, and the online rebuild that runs when a crashed server returns.
//!
//! # Layout
//!
//! The data layout is untouched: stripe `k` still lives on server
//! `k mod N`, so a parity-off file system is byte- and timing-identical to
//! one built before this module existed. Parity is an *overlay*: the data
//! stripes are grouped into rows of `N-1` consecutive stripes, and because
//! consecutive stripes walk the servers round-robin, each row's stripes
//! occupy `N-1` distinct servers — the one server the row skips stores the
//! row's parity stripe (`XOR` of the row's data stripes), and that server
//! rotates RAID-5-style from row to row. A single server loss therefore
//! costs every row at most one unit, data or parity, and every row remains
//! reconstructable.
//!
//! Parity stripes share the per-file stripe store with data, keyed above
//! [`PARITY_BASE`]; the invariant is `parity[row] = XOR of the row's data
//! stripes' *store* contents`, which holds from the all-zero initial state
//! and is re-established after every data write by recomputing each
//! touched row from the stores (this makes short/partial writes a non-
//! issue: the recompute reflects whatever actually landed).
//!
//! # Determinism
//!
//! Parity maintenance, reconstruction, and rebuild charge virtual time
//! through [`crate::server::Server::aux_write`]/`aux_read`, which bypass
//! the fault decision and the per-server `ops` counter — so a parity-on
//! run draws exactly the `(seed, server_id, ops)` fault sequence of a
//! parity-off run, and a parity-off run pays nothing at all.
//!
//! # Failover protocol
//!
//! The MPI-IO retry ladder escalates an exhausted budget against a crashed
//! server to `ServerLost`; the collective error agreement makes every rank
//! see it at the same operation, after which each rank calls
//! [`crate::Pfs::mark_server_down`] (idempotent) and retries. While a server
//! is down, its read chunks are XOR-reconstructed from the surviving data
//! and parity, and its write chunks are redirected: the payload is poked
//! into its (logically current) store, the extent is logged, and
//! durability comes from the parity written to the survivors. The first
//! operation whose start time falls past the crash window's restart
//! triggers [`PfsFile::maybe_rebuild`], which replays the logged extents
//! (timed reads on survivors, timed writes on the returning server) and
//! refreshes the parity rows the returning server owns before clearing
//! the down mark.

use std::collections::BTreeSet;

use hpc_sim::trace::events::layer;
use hpc_sim::{Span, Time, TraceCtx};

use crate::file::{Gather, PfsFile, Scatter, Seg};
use crate::stripe::StripeChunk;

/// Parity stripes live in the same per-file store as data stripes, keyed
/// above this bit: parity row `r` of a file is stored as stripe key
/// `PARITY_BASE | r`. Data stripe indices come from file offsets divided
/// by the stripe size and stay far below 2^63, so the keyspaces cannot
/// collide.
pub(crate) const PARITY_BASE: u64 = 1 << 63;

impl PfsFile {
    /// The server timed I/O must route around right now, if any.
    pub(crate) fn active_down(&self) -> Option<usize> {
        if !self.pfs.parity_enabled() {
            return None;
        }
        self.pfs.down_server()
    }

    /// If the down server's crash window has ended by `start`, rebuild it
    /// online and return when service may proceed (the rebuild replays the
    /// parity log *before* the server rejoins, so the triggering operation
    /// stalls behind it). No-op returning `start` otherwise; one field read
    /// when parity is off.
    pub(crate) fn maybe_rebuild(&self, start: Time) -> Time {
        if !self.pfs.parity_enabled() {
            return start;
        }
        let Some(s) = self.pfs.down_server() else {
            return start;
        };
        if self.pfs.inner.cfg.faults.is_down(s, start) {
            return start;
        }
        self.rebuild(s, start)
    }

    /// Replay the degraded-mode write log onto the restarted server `s`
    /// and refresh the parity rows it owns, holding the failover lock so
    /// concurrent parity updates and degraded operations wait for the
    /// rebuilt state. Returns the rebuild completion time.
    fn rebuild(&self, s: usize, start: Time) -> Time {
        let cfg = &self.pfs.inner.cfg;
        let striping = self.pfs.inner.striping;
        let mut fo = self.pfs.inner.failover.lock();
        if fo.down != Some(s) {
            // Another rank's operation got here first.
            return start;
        }
        let log = std::mem::take(&mut fo.log);
        let dirty = std::mem::take(&mut fo.parity_dirty);
        let mut done = start;
        let mut bytes = 0u64;

        // 1. Reconstruct every extent written to `s` while it was out from
        //    the surviving data + parity, and write it back to `s`. The
        //    store already holds the payload (degraded writes keep it
        //    current), so the replay doubles as an end-to-end check that
        //    the parity really encodes it.
        for (&file, extents) in &log {
            for &(stripe, off, len) in extents {
                let row = striping.parity_row_of(stripe);
                let mut recon = vec![0u8; len as usize];
                let recon_done =
                    self.xor_row_extent(file, row, Some(stripe), off, &mut recon, start);
                debug_assert_parity(self, file, stripe, off, &recon);
                let mut srv = self.pfs.inner.servers[s].lock();
                srv.poke(file, stripe, off, &recon);
                done = done.max(srv.aux_write(&cfg.disk, file, recon_done, len));
                bytes += len;
            }
        }

        // 2. Recompute the parity rows `s` owns whose data changed during
        //    the outage — their stored parity is stale.
        let stripe_size = striping.stripe_size;
        for (&file, rows) in &dirty {
            for &row in rows {
                debug_assert_eq!(striping.parity_server_of(row), s);
                let mut parity = vec![0u8; stripe_size as usize];
                let read_done = self.xor_row_extent(file, row, None, 0, &mut parity, start);
                let mut srv = self.pfs.inner.servers[s].lock();
                srv.poke(file, PARITY_BASE | row, 0, &parity);
                done = done.max(srv.aux_write(&cfg.disk, file, read_done, stripe_size));
                bytes += stripe_size;
            }
        }

        fo.down = None;
        drop(fo);

        cfg.profile.record_failover(|f| {
            f.rebuilds += 1;
            f.rebuilt_bytes += bytes;
            f.rebuild_nanos += (done - start).as_nanos();
        });
        let events = &cfg.events;
        if events.is_enabled() {
            if let Some((rank, parent)) = TraceCtx::current() {
                events.record(
                    Span::new(
                        rank,
                        layer::PFS,
                        "rebuild",
                        start.as_nanos(),
                        done.as_nanos(),
                    )
                    .with_id(events.next_id())
                    .with_parent(parent)
                    .with_arg("server", s as u64)
                    .with_arg("bytes", bytes),
                );
            }
        }
        done
    }

    /// Accept a write portion destined to the down server without touching
    /// its engine: the payload is poked into its (logically current)
    /// store and the extent logged for the restart rebuild. Durability
    /// comes from the parity update that follows the data phase — the
    /// caller folds [`PfsFile::update_parity_rows`]'s completion into the
    /// write's completion.
    pub(crate) fn redirect_write_portion(
        &self,
        down: usize,
        chunks: impl Iterator<Item = (StripeChunk, usize)> + Clone,
        segs: &[Seg<'_>],
    ) {
        let mut bytes = 0u64;
        {
            let mut srv = self.pfs.inner.servers[down].lock();
            let mut payload = Gather::new(segs);
            for (c, pos) in chunks.clone() {
                debug_assert_eq!(c.server, down);
                if let Some(dst) = srv.slot(self.rec.id, c.stripe, c.offset_in_stripe, c.len) {
                    payload.each(pos, dst);
                }
                bytes += c.len;
            }
        }
        let mut fo = self.pfs.inner.failover.lock();
        let log = fo.log.entry(self.rec.id).or_default();
        log.extend(chunks.map(|(c, _)| (c.stripe, c.offset_in_stripe, c.len)));
        drop(fo);
        self.pfs.inner.cfg.profile.record_failover(|f| {
            f.redirected_writes += 1;
            f.redirected_bytes += bytes;
        });
    }

    /// Recompute and write the parity of every touched row after a data
    /// write. Returns when the parity writes are durable (`>= base`).
    ///
    /// The failover lock is held across recompute + store: concurrent
    /// writers to the same row serialize here, and each recomputes *after*
    /// its own data landed, so the last writer's recompute sees every
    /// earlier store write and the stored parity always equals the XOR of
    /// the row's data stripes. Rows whose parity server is down are marked
    /// dirty for the rebuild instead.
    pub(crate) fn update_parity_rows(&self, rows: &BTreeSet<u64>, base: Time) -> Time {
        if rows.is_empty() {
            return base;
        }
        let cfg = &self.pfs.inner.cfg;
        let striping = self.pfs.inner.striping;
        let stripe_size = striping.stripe_size;
        let mut fo = self.pfs.inner.failover.lock();
        let down = fo.down;
        let mut done = base;
        let mut written = 0u64;
        for &row in rows {
            let psrv = striping.parity_server_of(row);
            if down == Some(psrv) {
                fo.parity_dirty.entry(self.rec.id).or_default().insert(row);
                continue;
            }
            let mut parity = vec![0u8; stripe_size as usize];
            self.xor_row_extent_untimed(self.rec.id, row, None, 0, &mut parity);
            let mut srv = self.pfs.inner.servers[psrv].lock();
            srv.poke(self.rec.id, PARITY_BASE | row, 0, &parity);
            done = done.max(srv.aux_write(&cfg.disk, self.rec.id, base, stripe_size));
            written += stripe_size;
        }
        drop(fo);
        if written > 0 {
            cfg.profile.record_failover(|f| {
                f.parity_updates += rows.len() as u64;
                f.parity_bytes += written;
            });
        }
        done
    }

    /// Reconstruct the down server's read chunks from the surviving data
    /// and parity, each into its place in the request's scatter list
    /// `segs`: `out = parity ^ XOR(other data stripes of the row)` over the
    /// chunk's in-stripe extent. Charges a timed read on every contributing
    /// survivor and returns the last ship-back time.
    pub(crate) fn reconstruct_read(
        &self,
        down: usize,
        chunks: impl Iterator<Item = (StripeChunk, usize)>,
        segs: &mut [&mut [u8]],
        arrival: Time,
    ) -> Time {
        let cfg = &self.pfs.inner.cfg;
        let striping = self.pfs.inner.striping;
        // Hold the failover lock so reconstruction never interleaves with
        // a parity recompute of the same row.
        let fo = self.pfs.inner.failover.lock();
        let mut done = arrival;
        let mut bytes = 0u64;
        let mut out = Scatter::new(segs);
        for (c, pos) in chunks {
            debug_assert_eq!(c.server, down);
            let row = striping.parity_row_of(c.stripe);
            let mut rec = vec![0u8; c.len as usize];
            done = done.max(self.xor_row_extent(
                self.rec.id,
                row,
                Some(c.stripe),
                c.offset_in_stripe,
                &mut rec,
                arrival,
            ));
            debug_assert_parity(self, self.rec.id, c.stripe, c.offset_in_stripe, &rec);
            out.each(pos, rec.len(), |skip, o| {
                o.copy_from_slice(&rec[skip as usize..][..o.len()])
            });
            bytes += c.len;
        }
        drop(fo);
        cfg.profile.record_failover(|f| {
            f.degraded_reads += 1;
            f.reconstructed_bytes += bytes;
        });
        let events = &cfg.events;
        if events.is_enabled() {
            if let Some((rank, parent)) = TraceCtx::current() {
                events.record(
                    Span::new(
                        rank,
                        layer::PFS,
                        "degraded_read",
                        arrival.as_nanos(),
                        done.as_nanos(),
                    )
                    .with_id(events.next_id())
                    .with_parent(parent)
                    .with_arg("server", down as u64)
                    .with_arg("bytes", bytes),
                );
            }
        }
        done
    }

    /// XOR the stores of row `row`'s stripes — the parity stripe plus
    /// every data stripe except `skip` — into `acc` over the extent
    /// `[off, off + acc.len())`, charging a timed read per contributing
    /// server. With `skip = Some(k)` this reconstructs data stripe `k`;
    /// with `skip = None` it recomputes the row's parity (and the parity
    /// stripe itself, stored on the very server being rebuilt, is not a
    /// contributor). Returns the last contributor's ship-back time.
    fn xor_row_extent(
        &self,
        file: u64,
        row: u64,
        skip: Option<u64>,
        off: u64,
        acc: &mut [u8],
        arrival: Time,
    ) -> Time {
        let cfg = &self.pfs.inner.cfg;
        let striping = self.pfs.inner.striping;
        let len = acc.len() as u64;
        let mut done = arrival;
        let mut buf = vec![0u8; acc.len()];
        if skip.is_some() {
            let psrv = striping.parity_server_of(row);
            let mut srv = self.pfs.inner.servers[psrv].lock();
            srv.peek(file, PARITY_BASE | row, off, &mut buf);
            done = done.max(srv.aux_read(&cfg.disk, file, arrival, len));
            drop(srv);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= *b;
            }
        }
        let first = striping.row_first_stripe(row);
        for k in first..first + striping.parity_row_width() {
            if skip == Some(k) {
                continue;
            }
            let sid = (k % striping.nservers as u64) as usize;
            let mut srv = self.pfs.inner.servers[sid].lock();
            srv.peek(file, k, off, &mut buf);
            done = done.max(srv.aux_read(&cfg.disk, file, arrival, len));
            drop(srv);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= *b;
            }
        }
        done
    }

    /// [`PfsFile::xor_row_extent`] without the timed charges (parity
    /// recompute after a data write: the simulation charges the parity
    /// *write*; the recompute models the controller XOR, not disk reads).
    fn xor_row_extent_untimed(
        &self,
        file: u64,
        row: u64,
        skip: Option<u64>,
        off: u64,
        acc: &mut [u8],
    ) {
        let striping = self.pfs.inner.striping;
        let mut buf = vec![0u8; acc.len()];
        if skip.is_some() {
            let psrv = striping.parity_server_of(row);
            self.pfs.inner.servers[psrv]
                .lock()
                .peek(file, PARITY_BASE | row, off, &mut buf);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= *b;
            }
        }
        let first = striping.row_first_stripe(row);
        for k in first..first + striping.parity_row_width() {
            if skip == Some(k) {
                continue;
            }
            let sid = (k % striping.nservers as u64) as usize;
            self.pfs.inner.servers[sid]
                .lock()
                .peek(file, k, off, &mut buf);
            for (a, b) in acc.iter_mut().zip(&buf) {
                *a ^= *b;
            }
        }
    }
}

/// Debug check: a reconstructed extent must equal the down server's
/// (logically current) store — the parity overlay and the store agree or
/// the invariant broke somewhere.
fn debug_assert_parity(f: &PfsFile, file: u64, stripe: u64, off: u64, got: &[u8]) {
    if cfg!(debug_assertions) {
        let striping = f.pfs.inner.striping;
        let sid = (stripe % striping.nservers as u64) as usize;
        let mut expect = vec![0u8; got.len()];
        f.pfs.inner.servers[sid]
            .lock()
            .peek(file, stripe, off, &mut expect);
        debug_assert_eq!(
            expect, got,
            "parity reconstruction diverged from the store (file {file}, stripe {stripe})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::StorageMode;
    use crate::Pfs;
    use hpc_sim::{CrashSpec, FaultPlan, SimConfig};

    fn parity_pfs(plan: FaultPlan) -> Pfs {
        let mut cfg = SimConfig::test_small();
        cfg.faults = plan;
        cfg.parity = true;
        cfg.profile.set_enabled(true);
        Pfs::new(cfg, StorageMode::Full)
    }

    fn pattern(n: usize, salt: u32) -> Vec<u8> {
        (0..n as u32)
            .map(|i| ((i * 7 + salt) % 251) as u8)
            .collect()
    }

    #[test]
    fn parity_rows_hold_the_xor_of_their_stripes() {
        // test_small: 1 KiB stripes over 4 servers → rows of 3 stripes.
        let fs = parity_pfs(FaultPlan::default());
        let f = fs.create("p");
        let data = pattern(10_000, 3);
        f.write_at(Time::ZERO, 128, &data).as_nanos();
        let striping = f.pfs.inner.striping;
        let last_stripe = (128 + data.len() as u64 - 1) / striping.stripe_size;
        for row in 0..=striping.parity_row_of(last_stripe) {
            let mut expect = vec![0u8; striping.stripe_size as usize];
            f.xor_row_extent_untimed(f.rec.id, row, None, 0, &mut expect);
            let psrv = striping.parity_server_of(row);
            let mut got = vec![0u8; striping.stripe_size as usize];
            f.pfs.inner.servers[psrv]
                .lock()
                .peek(f.rec.id, PARITY_BASE | row, 0, &mut got);
            assert_eq!(got, expect, "row {row}");
        }
        let fo = fs.inner.cfg.profile.failover_counters();
        assert!(fo.parity_updates > 0);
        assert!(fo.parity_bytes > 0);
    }

    #[test]
    fn degraded_reads_reconstruct_the_down_servers_bytes() {
        // Server 2 crashes at t=1s and never restarts.
        let fs = parity_pfs(FaultPlan {
            crashes: vec![CrashSpec {
                server: 2,
                at: Time::from_secs_f64(1.0),
                restart: None,
            }],
            ..FaultPlan::default()
        });
        let f = fs.create("d");
        let data = pattern(20_000, 11);
        let t = f
            .try_write(Time::ZERO, &[(0, 20_000)], &[(&data).into()])
            .unwrap()
            .durable;
        assert!(t < Time::from_secs_f64(1.0), "setup must precede the crash");
        assert!(fs.mark_server_down(2));
        assert!(!fs.mark_server_down(2), "idempotent");
        assert_eq!(fs.down_server(), Some(2));
        let mut out = vec![0u8; data.len()];
        let rt = f
            .try_read(Time::from_secs_f64(2.0), &[(0, 20_000)], &mut [&mut out])
            .expect("degraded read must succeed without server 2");
        assert!(rt > Time::from_secs_f64(2.0));
        assert_eq!(out, data);
        let fo = fs.inner.cfg.profile.failover_counters();
        assert!(fo.degraded_reads > 0);
        assert!(fo.reconstructed_bytes > 0);
        assert_eq!(fo.epochs, 1);
    }

    #[test]
    fn redirected_writes_then_rebuild_restore_the_server() {
        // Crash server 1 from 1 s to 10 s; write while degraded; the
        // first op past the restart rebuilds and clears the mark.
        let fs = parity_pfs(FaultPlan {
            crashes: vec![CrashSpec {
                server: 1,
                at: Time::from_secs_f64(1.0),
                restart: Some(Time::from_secs_f64(10.0)),
            }],
            ..FaultPlan::default()
        });
        let f = fs.create("r");
        let before = pattern(8_000, 5);
        f.try_write(Time::ZERO, &[(0, 8_000)], &[(&before).into()])
            .unwrap();
        fs.mark_server_down(1);
        // Degraded write overwrites the middle, including server-1 stripes.
        let during = pattern(12_000, 9);
        f.try_write(
            Time::from_secs_f64(2.0),
            &[(1024, 12_000)],
            &[(&during).into()],
        )
        .unwrap();
        let fo = fs.inner.cfg.profile.failover_counters();
        assert!(fo.redirected_writes > 0, "server 1 stripes were redirected");
        assert!(fo.redirected_bytes > 0);
        // Degraded read-back sees the new bytes.
        let mut out = vec![0u8; during.len()];
        f.try_read(Time::from_secs_f64(3.0), &[(1024, 12_000)], &mut [&mut out])
            .unwrap();
        assert_eq!(out, during);
        assert_eq!(fs.down_server(), Some(1));
        // Past the restart, the next op triggers the online rebuild.
        let mut out2 = vec![0u8; during.len()];
        let t = f
            .try_read(
                Time::from_secs_f64(11.0),
                &[(1024, 12_000)],
                &mut [&mut out2],
            )
            .unwrap();
        assert_eq!(out2, during);
        assert_eq!(fs.down_server(), None, "rebuild clears the mark");
        assert!(t > Time::from_secs_f64(11.0));
        let fo = fs.inner.cfg.profile.failover_counters();
        assert_eq!(fo.rebuilds, 1);
        assert!(fo.rebuilt_bytes > 0);
        assert!(fo.rebuild_nanos > 0);
        // After rebuild the parity invariant holds again everywhere,
        // including rows whose parity lives on server 1.
        let striping = f.pfs.inner.striping;
        let last_stripe = (1024 + during.len() as u64 - 1) / striping.stripe_size;
        for row in 0..=striping.parity_row_of(last_stripe) {
            let mut expect = vec![0u8; striping.stripe_size as usize];
            f.xor_row_extent_untimed(f.rec.id, row, None, 0, &mut expect);
            let psrv = striping.parity_server_of(row);
            let mut got = vec![0u8; striping.stripe_size as usize];
            f.pfs.inner.servers[psrv]
                .lock()
                .peek(f.rec.id, PARITY_BASE | row, 0, &mut got);
            assert_eq!(got, expect, "row {row}");
        }
    }

    #[test]
    fn parity_off_is_untouched_by_the_overlay() {
        // Same write with and without the (idle) parity machinery wired in
        // completes at the identical virtual time and bytes.
        let cfg = SimConfig::test_small();
        cfg.profile.set_enabled(true);
        let plain = Pfs::new(cfg.clone(), StorageMode::Full);
        let f1 = plain.create("x");
        let data = pattern(9_000, 1);
        let t1 = f1.write_at(Time::ZERO, 64, &data);
        assert!(!plain.parity_enabled());
        assert_eq!(
            cfg.profile.failover_counters(),
            Default::default(),
            "parity-off runs must not touch failover counters"
        );
        // And with parity on the same bytes land, just later (parity
        // writes are part of durability).
        let fs2 = parity_pfs(FaultPlan::default());
        let f2 = fs2.create("x");
        let t2 = f2.write_at(Time::ZERO, 64, &data);
        assert!(t2 >= t1);
        assert_eq!(f1.to_bytes(), f2.to_bytes());
    }

    #[test]
    fn single_server_cannot_enable_parity() {
        let mut cfg = SimConfig::test_small();
        cfg.io_servers = 1;
        cfg.parity = true;
        let fs = Pfs::new(cfg, StorageMode::Full);
        assert!(!fs.parity_enabled(), "nowhere to decluster");
    }
}
