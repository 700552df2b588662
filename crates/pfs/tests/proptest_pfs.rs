//! Property-based tests of the parallel file system: striping bijectivity,
//! write/read byte fidelity under arbitrary request sequences, and timing
//! monotonicity.

use proptest::collection::vec;
use proptest::prelude::*;

use hpc_sim::{CrashSpec, FaultPlan, ProfileSnapshot, SimConfig, Time};
use pnetcdf_format::swap::swap_to_vec;
use pnetcdf_mpio::recover;
use pnetcdf_pfs::{Pfs, Seg, StorageMode, StripeChunk, Striping};

const MODES: [StorageMode; 3] = [
    StorageMode::Full,
    StorageMode::CostOnly,
    StorageMode::MetadataOnly,
];

/// Cut `payload`, whole `width`-byte elements in host byte order, at `cuts`
/// (positions, any order, inside elements too; repeats make empty
/// segments) — or into one byte per segment — and put `empties` empty
/// segments in front of the segments they name: a gather list whose
/// concatenation is the big-endian form of `payload`.
fn segment<'a>(
    payload: &'a [u8],
    width: usize,
    cuts: &[usize],
    empties: &[usize],
    bytewise: bool,
) -> Vec<Seg<'a>> {
    let mut at: Vec<usize> = match bytewise {
        true => (0..=payload.len()).collect(),
        false => cuts.iter().map(|&c| c % (payload.len() + 1)).collect(),
    };
    at.extend([0, payload.len()]);
    at.sort_unstable();
    let cut = |w: &[usize]| Seg::native(payload, width, w[0], w[1] - w[0]);
    let mut segs: Vec<Seg> = at.windows(2).map(cut).collect();
    for &e in empties {
        segs.insert(e % (segs.len() + 1), (&[]).into());
    }
    segs
}

/// [`segment`]'s cut of `buf`, mutable: a scatter list.
fn scatter<'a>(buf: &'a mut [u8], cuts: &[usize], empties: &[usize]) -> Vec<&'a mut [u8]> {
    let lens: Vec<usize> = segment(buf, 1, cuts, empties, false)
        .iter()
        .map(|s| s.len())
        .collect();
    let mut rest = buf;
    let mut cut = |n| {
        let (seg, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        seg
    };
    lens.into_iter().map(&mut cut).collect()
}

/// Group a request's chunks by server, preserving file order within each
/// server: `(server, chunks)` for the servers it touches. The grouping the
/// request path used to build, kept as the oracle of its walks.
fn split_by_server(s: &Striping, offset: u64, len: u64) -> Vec<(usize, Vec<StripeChunk>)> {
    let mut per: Vec<Vec<StripeChunk>> = vec![Vec::new(); s.nservers];
    for c in s.split(offset, len) {
        per[c.server].push(c);
    }
    per.into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

/// A fresh file system of `test_small` under `mode`, its plan transient and
/// short faults or none, with parity on and server 0 down (its portions
/// take the redirect path) when `degraded`.
fn fs(mode: usize, faulty: bool, degraded: bool) -> (Pfs, SimConfig) {
    let mut cfg = SimConfig::test_small();
    if faulty {
        cfg.faults = FaultPlan::from_spec("transient=0.1,short=0.1").unwrap();
    }
    if degraded {
        cfg.parity = true;
        cfg.faults.crashes.push(CrashSpec {
            server: 0,
            at: Time::ZERO,
            restart: None,
        });
    }
    cfg.profile.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), MODES[mode]);
    if degraded {
        assert!(pfs.mark_server_down(0));
    }
    (pfs, cfg)
}

/// Lay `base` at 0, then write `segs` at `offset` through the MPI-IO retry
/// ladder. Returns the completion, the file and every profile counter.
fn gather_write(
    (pfs, cfg): (Pfs, SimConfig),
    base: &[u8],
    offset: u64,
    segs: &[Seg],
) -> ((Time, Time), Vec<u8>, ProfileSnapshot) {
    let f = pfs.create("g");
    let policy = recover::RetryPolicy::default();
    let len = segs.iter().map(|s| s.len() as u64).sum();
    let t = recover::write(
        &f,
        &policy,
        Time::ZERO,
        &[(0, base.len() as u64)],
        &[base.into()],
    )
    .unwrap();
    let c = recover::write(&f, &policy, t.durable, &[(offset, len)], segs).unwrap();
    ((c.handoff, c.durable), f.to_bytes(), cfg.profile.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stripe_split_covers_exactly(
        stripe in 1u64..512,
        nservers in 1usize..16,
        offset in 0u64..10_000,
        len in 0u64..5_000,
    ) {
        let s = Striping::new(stripe, nservers);
        let chunks = s.split(offset, len);
        // Coverage is exact, ordered, and within stripes.
        let mut pos = offset;
        for c in &chunks {
            prop_assert_eq!(c.file_offset, pos);
            prop_assert_eq!(c.stripe, pos / stripe);
            prop_assert_eq!(c.offset_in_stripe, pos % stripe);
            prop_assert!(c.offset_in_stripe + c.len <= stripe);
            prop_assert_eq!(c.server, ((pos / stripe) % nservers as u64) as usize);
            pos += c.len;
        }
        prop_assert_eq!(pos, offset + len);
        // Only the first and last chunks may be partial stripes.
        for c in chunks.iter().skip(1).rev().skip(1) {
            prop_assert_eq!(c.offset_in_stripe, 0);
            prop_assert_eq!(c.len, stripe);
        }
    }

    /// The walk a request is issued from, on one run, hands out the servers
    /// `split_by_server` groups, ordered by first chunk as the request path
    /// used to sort them, each with the same chunks, and every chunk knows
    /// where its bytes sit in the payload. The ranges make single-stripe,
    /// exactly-aligned and wrap-around requests all common.
    #[test]
    fn portions_match_split_by_server(
        stripe in 1u64..64,
        nservers in 1usize..9,
        offset_stripes in 0u64..20,
        offset_in in 0u64..64,
        len_stripes in 0u64..20,
        len_in in 0u64..64,
        aligned in any::<bool>(),
    ) {
        let s = Striping::new(stripe, nservers);
        let (offset, len) = if aligned {
            (offset_stripes * stripe, len_stripes * stripe)
        } else {
            (offset_stripes * stripe + offset_in % stripe, len_stripes * stripe + len_in)
        };
        let mut want = split_by_server(&s, offset, len);
        want.sort_by_key(|(_, chunks)| chunks[0].file_offset);
        let run = [(offset, len)];
        let got: Vec<(usize, Vec<(StripeChunk, usize)>)> =
            s.run_portions(&run).map(|(srv, chunks)| (srv, chunks.collect())).collect();
        prop_assert_eq!(got.len(), want.len());
        for ((srv, chunks), (want_srv, want_chunks)) in got.iter().zip(&want) {
            prop_assert_eq!(srv, want_srv);
            let plain: Vec<StripeChunk> = chunks.iter().map(|&(c, _)| c).collect();
            prop_assert_eq!(&plain, want_chunks);
            for &(c, pos) in chunks {
                prop_assert_eq!(pos as u64, c.file_offset - offset);
            }
        }
    }

    /// The walk a vectored request is issued from, against the grouping
    /// the request path used to build: every run `split`, servers in order
    /// of first appearance, chunks in file order with their payload
    /// positions.
    #[test]
    fn run_portions_match_grouped_splits(
        stripe in 1u64..64,
        nservers in 1usize..9,
        gaps_and_lens in vec((0u64..200, 0u64..300), 0..12),
    ) {
        let s = Striping::new(stripe, nservers);
        let mut runs = Vec::new();
        let mut at = 0u64;
        for &(gap, len) in &gaps_and_lens {
            runs.push((at + gap, len));
            at += gap + len;
        }
        let mut want: Vec<(usize, Vec<(StripeChunk, usize)>)> = Vec::new();
        let mut payload = 0u64;
        for &(off, len) in &runs {
            for c in s.split(off, len) {
                let entry = (c, (payload + c.file_offset - off) as usize);
                match want.iter_mut().find(|(srv, _)| *srv == c.server) {
                    Some((_, chunks)) => chunks.push(entry),
                    None => want.push((c.server, vec![entry])),
                }
            }
            payload += len;
        }
        let got: Vec<(usize, Vec<(StripeChunk, usize)>)> =
            s.run_portions(&runs).map(|(srv, chunks)| (srv, chunks.collect())).collect();
        prop_assert_eq!(got, want);
    }

    /// A write's memory side is a gather list of converting segments, and
    /// how the payload is cut into segments changes nothing: a payload of
    /// 1-, 2-, 4- or 8-byte elements in host byte order leaves the file's
    /// bytes, the completion and every profile counter (faults and retries,
    /// servers, failover) of the one-segment write of its big-endian form.
    /// Under every storage mode, with and without transient and short faults
    /// (a short write resumes wherever its prefix ends, inside an element
    /// too), and with server 0 down behind parity; segments are empty, cut
    /// inside an element or a stripe chunk, or one byte each.
    #[test]
    fn a_gather_list_writes_what_its_concatenation_writes(
        base_len in 0usize..4000,
        offset in 0u64..3000,
        len in 0usize..5000,
        width_exp in 0u32..4,
        cuts in vec(0usize..5000, 0..12),
        empties in vec(0usize..16, 0..4),
        bytewise in any::<bool>(),
        mode in 0usize..3,
        faulty in any::<bool>(),
        degraded in any::<bool>(),
    ) {
        let width = 1 << width_exp;
        let len = len - len % width;
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8 + 1).collect();
        let external = swap_to_vec(&payload, width);
        let base = vec![0x5Au8; base_len];
        let segs = segment(&payload, width, &cuts, &empties, bytewise);
        prop_assert_eq!(segs.iter().map(Seg::len).sum::<usize>(), len);
        let whole = gather_write(fs(mode, faulty, degraded), &base, offset, &[(&external).into()]);
        let gathered = gather_write(fs(mode, faulty, degraded), &base, offset, &segs);
        prop_assert_eq!(&gathered, &whole);
        // And the big-endian form landed where it was sent.
        if MODES[mode] == StorageMode::Full && len > 0 {
            let mut want = base;
            want.resize(want.len().max(offset as usize + len), 0);
            want[offset as usize..][..len].copy_from_slice(&external);
            prop_assert_eq!(whole.1, want);
        }
    }

    /// A write's price does not depend on how its bytes are cut. A span of
    /// 0–20 stripes, on `test_small` and on three servers, cut into
    /// adjacent runs at stripe boundaries and its payload into segments
    /// (empty ones too, and elements of any width cut anywhere), is handed
    /// off and durable when the one-run, one-segment write is, with the same server requests, bytes, seeks and
    /// every other counter; and no write is handed off before the client
    /// link has carried it. Cuts inside a stripe are left out: the disk
    /// charges a partial stripe per chunk.
    #[test]
    fn a_writes_price_does_not_depend_on_how_its_bytes_are_cut(
        three_servers in any::<bool>(),
        first_stripe in 0u64..8,
        head in 0u64..1024,
        stripes in 0u64..=20,
        run_cuts in vec(0u64..32, 0..8),
        seg_cuts in vec(0usize..30_000, 0..8),
        empties in vec(0usize..16, 0..4),
        width_exp in 0u32..4,
    ) {
        // A fresh platform, and so a fresh profile, per write.
        let platform = || {
            let mut cfg = SimConfig::test_small();
            cfg.io_servers = if three_servers { 3 } else { cfg.io_servers };
            cfg.profile.set_enabled(true);
            cfg
        };
        let cfg = platform();
        let size = cfg.stripe_size as u64;
        let (offset, len) = (first_stripe * size + head % size, stripes * size);
        let payload: Vec<u8> = (0..len).map(|i| (i * 17 % 251) as u8).collect();
        // Stripe boundaries strictly inside the span, a few of them picked.
        let inner: Vec<u64> = (offset / size + 1..(offset + len).div_ceil(size))
            .map(|k| k * size)
            .collect();
        let mut at: Vec<u64> = match inner.len() {
            0 => Vec::new(),
            n => run_cuts.iter().map(|&c| inner[c as usize % n]).collect(),
        };
        at.extend([offset, offset + len]);
        at.sort_unstable();
        at.dedup();
        let runs: Vec<(u64, u64)> = at.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
        let segs = segment(&payload, 1 << width_exp, &seg_cuts, &empties, false);
        let write = |runs: &[(u64, u64)], segs: &[Seg]| {
            let cfg = platform();
            let f = Pfs::new(cfg.clone(), StorageMode::Full).create("c");
            let c = f.try_write(Time::ZERO, runs, segs).unwrap();
            ((c.handoff, c.durable), cfg.profile.snapshot(), f.to_bytes())
        };
        let whole = write(&[(offset, len)], &[(&swap_to_vec(&payload, 1 << width_exp)).into()]);
        let cut = write(&runs, &segs);
        prop_assert_eq!(cut.0, whole.0, "runs {:?}", runs);
        prop_assert_eq!(&cut.1, &whole.1);
        prop_assert!(cut.2 == whole.2, "the cut write landed other bytes");
        if len > 0 {
            let link = Time::ZERO
                + cfg.client_link_latency
                + Time::from_secs_f64(len as f64 / cfg.client_link_bw);
            prop_assert!(whole.0 .0 >= link, "handed off before the link carried it");
        }
    }

    /// A read's bytes and price do not depend on how it is cut either. The
    /// same spans as above, read back from a file that holds them, cut into
    /// adjacent runs at stripe boundaries and their buffer into scatter
    /// segments at arbitrary points (empty ones, and chunks that straddle
    /// two segments), return the bytes, the completion and every counter of
    /// the one-run, one-segment read; and no read completes before the
    /// client link has carried it. With `degraded`, parity is on and server
    /// 0 is down, so its chunks are reconstructed into the scatter list.
    #[test]
    fn a_reads_bytes_and_price_do_not_depend_on_how_it_is_cut(
        three_servers in any::<bool>(),
        degraded in any::<bool>(),
        first_stripe in 0u64..8,
        head in 0u64..1024,
        stripes in 0u64..=20,
        run_cuts in vec(0u64..32, 0..8),
        seg_cuts in vec(0usize..30_000, 0..8),
        empties in vec(0usize..16, 0..4),
    ) {
        let crash = Time::from_secs_f64(1.0);
        let platform = || {
            let mut cfg = SimConfig::test_small();
            cfg.io_servers = if three_servers { 3 } else { cfg.io_servers };
            cfg.parity = degraded;
            if degraded {
                cfg.faults.crashes.push(CrashSpec { server: 0, at: crash, restart: None });
            }
            cfg.profile.set_enabled(true);
            cfg
        };
        let cfg = platform();
        let size = cfg.stripe_size as u64;
        let (offset, len) = (first_stripe * size + head % size, stripes * size);
        let content: Vec<u8> = (0..offset + len + size).map(|i| (i * 13 % 251) as u8 + 1).collect();
        let inner: Vec<u64> = (offset / size + 1..(offset + len).div_ceil(size))
            .map(|k| k * size)
            .collect();
        let mut at: Vec<u64> = match inner.len() {
            0 => Vec::new(),
            n => run_cuts.iter().map(|&c| inner[c as usize % n]).collect(),
        };
        at.extend([offset, offset + len]);
        at.sort_unstable();
        at.dedup();
        let runs: Vec<(u64, u64)> = at.windows(2).map(|w| (w[0], w[1] - w[0])).collect();
        // The file is written while every server is up; the read starts
        // after the crash.
        let read = |runs: &[(u64, u64)], cut: bool| {
            let cfg = platform();
            let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
            let f = pfs.create("r");
            let all = [(0, content.len() as u64)];
            assert!(f.try_write(Time::ZERO, &all, &[(&content).into()]).unwrap().durable < crash);
            if degraded {
                assert!(pfs.mark_server_down(0));
            }
            let mut buf = vec![0u8; len as usize];
            let mut segs = match cut {
                true => scatter(&mut buf, &seg_cuts, &empties),
                false => vec![&mut buf[..]],
            };
            let done = f.try_read(crash + crash, runs, &mut segs).unwrap();
            (done, cfg.profile.snapshot(), buf)
        };
        let whole = read(&[(offset, len)], false);
        let cut = read(&runs, true);
        prop_assert_eq!(cut.0, whole.0, "runs {:?}", runs);
        prop_assert_eq!(&cut.1, &whole.1);
        prop_assert!(cut.2 == whole.2, "the cut read returned other bytes");
        prop_assert!(whole.2[..] == content[offset as usize..(offset + len) as usize]);
        if len > 0 {
            let link = crash + crash
                + cfg.client_link_latency
                + Time::from_secs_f64(len as f64 / cfg.client_link_bw);
            prop_assert!(whole.0 >= link, "completed before the link carried it");
        }
    }

    #[test]
    fn random_writes_read_back_exactly(
        writes in vec((0u64..4096, 1usize..512, any::<u8>()), 1..16),
    ) {
        let pfs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        let f = pfs.create("p");
        let mut oracle = vec![0u8; 8192];
        let mut t = Time::ZERO;
        for &(off, len, fill) in &writes {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
            t = f.write_at(t, off, &data);
            oracle[off as usize..off as usize + len].copy_from_slice(&data);
        }
        let size = f.size();
        let expect_size = writes.iter().map(|&(o, l, _)| o + l as u64).max().unwrap();
        prop_assert_eq!(size, expect_size);
        prop_assert_eq!(f.to_bytes(), &oracle[..size as usize]);
        // A timed read agrees too.
        let mut buf = vec![0u8; size as usize];
        let t2 = f.read_at(t, 0, &mut buf);
        prop_assert!(t2 > t);
        prop_assert_eq!(buf, &oracle[..size as usize]);
    }

    #[test]
    fn completion_times_are_nearly_monotone_in_length(
        off in 0u64..1024,
        len_a in 1usize..2048,
        extra in 1usize..2048,
    ) {
        let cfg = SimConfig::test_small();
        let f1 = Pfs::new(cfg.clone(), StorageMode::CostOnly).create("a");
        let t_short = f1.write_at(Time::ZERO, off, &vec![0u8; len_a]);
        let f2 = Pfs::new(cfg.clone(), StorageMode::CostOnly).create("b");
        let t_long = f2.write_at(Time::ZERO, off, &vec![0u8; len_a + extra]);
        // A longer write may be *faster* when it happens to complete a
        // stripe and dodge the partial-block read-modify-write — the
        // real-world aligned-write effect. Bound the inversion by the RMW
        // cost of the (at most two) partial stripes.
        let slack = cfg.disk.stream(2 * cfg.stripe_size);
        prop_assert!(t_long + slack >= t_short);
    }

    #[test]
    fn import_equals_timed_write(data in vec(any::<u8>(), 1..4096)) {
        let cfg = SimConfig::test_small();
        let f1 = Pfs::new(cfg.clone(), StorageMode::Full).create("x");
        f1.write_at(Time::ZERO, 0, &data);
        let f2 = Pfs::new(cfg, StorageMode::Full).create("y");
        f2.import_bytes(&data);
        prop_assert_eq!(f1.to_bytes(), f2.to_bytes());
    }
}

#[test]
fn split_by_server_groups() {
    let s = Striping::new(10, 2);
    let by = split_by_server(&s, 0, 40);
    assert_eq!(by.len(), 2);
    let (srv0, chunks0) = &by[0];
    assert_eq!(*srv0, 0);
    assert_eq!(chunks0.iter().map(|c| c.len).sum::<u64>(), 20);
    // Within-server chunks stay in file order.
    assert!(chunks0
        .windows(2)
        .all(|w| w[0].file_offset < w[1].file_offset));
    assert!(split_by_server(&s, 5, 0).is_empty());
}

#[test]
fn delete_frees_storage_and_handle_reads_zero() {
    let pfs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
    let f = pfs.create("gone");
    f.write_at(Time::ZERO, 0, &[7u8; 128]);
    assert!(pfs.delete("gone"));
    // The stale handle still exists but the data is gone.
    let mut buf = [1u8; 128];
    f.peek_at(0, &mut buf);
    assert_eq!(buf, [0u8; 128]);
    assert!(pfs.open("gone").is_none());
}

#[test]
fn concurrent_writers_do_not_corrupt_disjoint_regions() {
    // Real threads hammering disjoint regions of one file.
    let pfs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
    let f = pfs.create("c");
    std::thread::scope(|s| {
        for r in 0..8u8 {
            let f = f.clone();
            s.spawn(move || {
                let base = r as u64 * 1000;
                for i in 0..10 {
                    let data = vec![r + 1; 100];
                    f.write_at(Time::ZERO, base + i * 100, &data);
                }
            });
        }
    });
    let bytes = f.to_bytes();
    assert_eq!(bytes.len(), 8000);
    for r in 0..8usize {
        assert!(
            bytes[r * 1000..(r + 1) * 1000]
                .iter()
                .all(|&b| b == r as u8 + 1),
            "region {r} corrupted"
        );
    }
}

#[test]
fn metadata_only_keeps_small_writes_drops_large() {
    let pfs = Pfs::new(SimConfig::test_small(), StorageMode::MetadataOnly);
    let f = pfs.create("m");
    f.write_at(Time::ZERO, 0, &[5u8; 256]); // small: kept
    f.write_at(Time::ZERO, 100_000, &vec![9u8; 200_000]); // large: dropped
    let mut small = [0u8; 256];
    f.peek_at(0, &mut small);
    assert_eq!(small, [5u8; 256]);
    let mut big = [1u8; 16];
    f.peek_at(150_000, &mut big);
    assert_eq!(big, [0u8; 16]);
    // Size still tracks the logical extent.
    assert_eq!(f.size(), 300_000);
}
