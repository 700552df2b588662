//! End-to-end behavior of the client page cache: netCDF-style coherence
//! (independent writes become visible at sync points, not before),
//! eviction under a tiny budget, write-behind surviving injected faults,
//! and the cached write path retiring the sieve's read-modify-write reads.

use hpc_sim::{FaultPlan, SimConfig, Time, TraceLog};
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode};

fn profiled_cfg() -> SimConfig {
    let cfg = SimConfig::test_small();
    cfg.profile.set_enabled(true);
    cfg
}

fn cached_info() -> Info {
    Info::new().with("pnc_cache", "enable")
}

/// Rank 0 writes independently while rank 1 holds the region in its cache.
/// netCDF promises nothing until a sync point — and the write-behind cache
/// makes the "nothing" deterministic: rank 0's bytes live only in its own
/// cache until `end_indep_data`, so rank 1 re-reads its stale value no
/// matter how the threads interleave. After the sync point both ranks must
/// see the new data.
#[test]
fn independent_write_visible_after_sync_not_before() {
    let cfg = profiled_cfg();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let n = 64u64;
    run_world(2, cfg.clone(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "coh.nc", Version::Cdf1, &cached_info()).unwrap();
        let d = ds.def_dim("x", n).unwrap();
        let v = ds.def_var("vv", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();

        // Baseline contents, written collectively by rank 0 (two-phase
        // writes land on the PFS directly and bump the coherence epoch).
        let base: Vec<f32> = (0..n).map(|i| i as f32).collect();
        if c.rank() == 0 {
            ds.put_vara_all(v, &[0], &[n], &base).unwrap();
        } else {
            ds.put_vara_all::<f32>(v, &[0], &[0], &[]).unwrap();
        }

        ds.begin_indep_data().unwrap();
        if c.rank() == 1 {
            // Cache the whole variable, then re-read: both reads must see
            // the baseline, whatever rank 0 is doing concurrently.
            let got: Vec<f32> = ds.get_vara(v, &[0], &[n]).unwrap();
            assert_eq!(got, base);
            let again: Vec<f32> = ds.get_vara(v, &[0], &[n]).unwrap();
            assert_eq!(again, base, "no visibility before the sync point");
        } else {
            // These bytes stay in rank 0's cache until the sync point.
            let new: Vec<f32> = (0..n).map(|i| (1000 + i) as f32).collect();
            ds.put_vara(v, &[0], &[n], &new).unwrap();
        }
        // Sync point: rank 0 flushes (write-behind) and bumps the epoch;
        // rank 1 notices and drops its clean pages.
        ds.end_indep_data().unwrap();

        let got: Vec<f32> = ds.get_vara_all(v, &[0], &[n]).unwrap();
        let want: Vec<f32> = (0..n).map(|i| (1000 + i) as f32).collect();
        assert_eq!(got, want, "sync point must publish rank 0's writes");
        ds.close().unwrap();
    });
    let c = cfg.profile.cache_counters();
    assert!(c.hits > 0, "rank 1's re-read must hit its cache: {c:?}");
    assert!(
        c.write_behind_bytes > 0,
        "rank 0's independent writes must flush via write-behind: {c:?}"
    );
    assert!(
        c.invalidations > 0,
        "the epoch change must invalidate rank 1's pages: {c:?}"
    );
}

/// A 2-page budget against a 16 KiB working set: the cache must evict
/// (flushing dirty victims) and still produce exactly the right bytes.
#[test]
fn eviction_under_tiny_budget_preserves_data() {
    let cfg = profiled_cfg();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let pfs2 = pfs.clone();
    let n = 4096u64; // 16 KiB of f32
    let info = cached_info().with("pnc_cache_size", &(2 * cfg.stripe_size).to_string());
    run_world(1, cfg.clone(), move |c| {
        let mut ds = Dataset::create(c, &pfs2, "ev.nc", Version::Cdf1, &info).unwrap();
        let d = ds.def_dim("x", n).unwrap();
        let v = ds.def_var("vv", NcType::Float, &[d]).unwrap();
        ds.enddef().unwrap();
        ds.begin_indep_data().unwrap();
        for chunk in 0..(n / 128) {
            let vals: Vec<f32> = (0..128).map(|i| (chunk * 128 + i) as f32).collect();
            ds.put_vara(v, &[chunk * 128], &[128], &vals).unwrap();
        }
        let got: Vec<f32> = ds.get_vara(v, &[0], &[n]).unwrap();
        let want: Vec<f32> = (0..n).map(|i| i as f32).collect();
        assert_eq!(got, want);
        ds.end_indep_data().unwrap();
        ds.close().unwrap();
    });
    let c = cfg.profile.cache_counters();
    assert!(c.evictions > 0, "2 KiB budget must evict: {c:?}");
    assert!(c.write_behind_bytes > 0, "dirty victims must flush: {c:?}");
}

/// Transient and short faults while the cache is flushing: the retry layer
/// must absorb them, so a cached faulty run produces the same file as a
/// cached clean run — the dirty page survives the failed attempt.
#[test]
fn write_behind_survives_transient_faults() {
    fn run(spec: Option<&str>) -> (Vec<u8>, SimConfig) {
        let mut cfg = SimConfig::test_small();
        if let Some(s) = spec {
            cfg.faults = FaultPlan::from_spec(s).unwrap();
        }
        cfg.profile.set_enabled(true);
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(2, cfg.clone(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "wb.nc", Version::Cdf1, &cached_info()).unwrap();
            let d = ds.def_dim("x", 512).unwrap();
            let v = ds.def_var("vv", NcType::Double, &[d]).unwrap();
            ds.enddef().unwrap();
            ds.begin_indep_data().unwrap();
            let lo = c.rank() as u64 * 256;
            let vals: Vec<f64> = (0..256).map(|i| (lo + i) as f64 * 0.5).collect();
            ds.put_vara(v, &[lo], &[256], &vals).unwrap();
            ds.end_indep_data().unwrap();
            ds.close().unwrap();
        });
        (pfs.open("wb.nc").unwrap().to_bytes(), cfg)
    }
    let (clean, _) = run(None);
    let (faulty, cfg) = run(Some("transient=0.2,short=0.2"));
    assert_eq!(faulty, clean, "recovered flushes must not corrupt bytes");
    let f = cfg.profile.fault_counters();
    assert!(f.faults_injected > 0, "spec must actually inject: {f:?}");
    assert!(
        f.retries + f.short_completions > 0,
        "recovery must run: {f:?}"
    );
    assert_eq!(f.exhausted, 0, "no retry budget may run out: {f:?}");
    let c = cfg.profile.cache_counters();
    assert!(
        c.write_behind_bytes > 0,
        "flushes must go write-behind: {c:?}"
    );
}

/// The sieve's read-modify-write tax, retired: consecutive overlapping
/// strided writes through the *uncached* sieve re-read the sieve window
/// from the PFS on every access, while the cached path issues no server
/// reads at all for the same pattern — and a later partial-page get costs
/// exactly one page-granular server read.
#[test]
fn cached_writes_retire_sieve_rmw_reads() {
    fn run(cached: bool) -> (u64, u64, SimConfig) {
        let cfg = profiled_cfg();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        let server_bytes_read = || cfg.profile.snapshot().server_totals().bytes_read;
        let info = if cached { cached_info() } else { Info::new() };
        run_world(1, cfg.clone(), move |c| {
            let mut ds = Dataset::create(c, &pfs2, "rmw.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", 2048).unwrap();
            let v = ds.def_var("vv", NcType::Float, &[d]).unwrap();
            ds.enddef().unwrap();
            ds.begin_indep_data().unwrap();
            let before = server_bytes_read();
            // Strided overlapping pattern: every write straddles bytes the
            // previous one populated, so the sieve must RMW each window.
            for i in 0..32u64 {
                let vals = vec![i as f32; 96];
                ds.put_vara(v, &[i * 32], &[96], &vals).unwrap();
            }
            let after_writes = server_bytes_read();
            // One small get spanning a single page.
            let _: Vec<f32> = ds.get_vara(v, &[8], &[16]).unwrap();
            let after_read = server_bytes_read();
            ds.end_indep_data().unwrap();
            ds.close().unwrap();
            assert!(after_read >= after_writes && after_writes >= before);
        });
        let hits = cfg.profile.cache_counters().hits;
        (server_bytes_read(), hits, cfg)
    }
    let (uncached_reads, _, _) = run(false);
    let (cached_reads, cached_hits, cfg) = run(true);
    let page = cfg.stripe_size as u64;
    assert!(
        uncached_reads > 0,
        "the sieve path must RMW-read on overlapping strided writes"
    );
    // The cached path never reads for writes; its only server read is the
    // single page-granular fill for the one get (the variable data starts
    // inside the header page, so at most two pages are touched).
    assert!(
        cached_reads <= 2 * page,
        "cached read traffic must be page-granular: {cached_reads} bytes"
    );
    assert!(
        cached_reads < uncached_reads,
        "cache must retire RMW reads ({cached_reads} vs {uncached_reads})"
    );
    assert!(cached_hits > 0);
}

/// Whole-workload identity: the same mixed independent/collective workload
/// with the cache on and off must leave identical file bytes.
#[test]
fn cached_and_uncached_files_are_identical() {
    fn run(info: Info) -> Vec<u8> {
        let cfg = SimConfig::test_small();
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(4, cfg, move |c| {
            let mut ds = Dataset::create(c, &pfs2, "id.nc", Version::Cdf1, &info).unwrap();
            let d = ds.def_dim("x", 1024).unwrap();
            let v = ds.def_var("vv", NcType::Float, &[d]).unwrap();
            let w = ds.def_var("ww", NcType::Int, &[d]).unwrap();
            ds.enddef().unwrap();
            let lo = c.rank() as u64 * 256;
            let vals: Vec<f32> = (0..256).map(|i| (lo + i) as f32).collect();
            ds.put_vara_all(v, &[lo], &[256], &vals).unwrap();
            ds.begin_indep_data().unwrap();
            let ints: Vec<i32> = (0..256).map(|i| (lo + i) as i32).collect();
            // Two halves so the cache coalesces them in write-behind.
            ds.put_vara(w, &[lo], &[128], &ints[..128]).unwrap();
            ds.put_vara(w, &[lo + 128], &[128], &ints[128..]).unwrap();
            ds.end_indep_data().unwrap();
            let got: Vec<f32> = ds.get_vara_all(v, &[(lo + 256) % 1024], &[256]).unwrap();
            assert_eq!(got[0], ((lo + 256) % 1024) as f32);
            ds.close().unwrap();
        });
        pfs.open("id.nc").unwrap().to_bytes()
    }
    let plain = run(Info::new());
    let cached = run(cached_info());
    // One stripe of `test_small`: a single page.
    let tiny = run(cached_info().with("pnc_cache_size", "1024"));
    assert!(!plain.is_empty());
    assert_eq!(cached, plain);
    assert_eq!(tiny, plain, "evicting cache must preserve identity");
}

/// Faults × cache: a collective write whose retry ladder runs out on a
/// *late* window has still landed its earlier windows, so the coherence
/// epoch must advance and peers must drop their clean pages — failure or
/// not. Rank 1 caches the region, the collective overwrite dies on the
/// fourth window (server 3 is down for good), and rank 1's re-read through
/// its cache must return the three stripes that did land, not the stale
/// baseline.
#[test]
fn failed_collective_write_still_invalidates_peer_caches() {
    use pnetcdf_mpio::{MpiFile, MpioError, OpenMode};

    // test_small: 4 servers, 1 KiB stripes. One aggregator owns every
    // server; walking 1 KiB windows it visits servers 0, 1, 2, 3 in order.
    let mut cfg = profiled_cfg();
    cfg.faults = FaultPlan::from_spec("crash=server:3@t>1e9").unwrap();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let info = cached_info()
        .with("cb_buffer_size", "1024")
        .with("cb_nodes", "1");
    let old: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    let new: Vec<u8> = (0..4096u32).map(|i| (i % 241) as u8 ^ 0x80).collect();
    let (old2, new2) = (old.clone(), new.clone());
    run_world(2, cfg.clone(), move |c| {
        let f = MpiFile::open(c, &pfs, "late.bin", OpenMode::Create, &info).unwrap();
        let whole = [(0u64, 4096u64)];
        let (mine, payload): (&[_], &[u8]) = if c.rank() == 0 {
            (&whole, &old2)
        } else {
            (&[], &[])
        };
        f.write_runs_at_all(mine, payload).unwrap();
        if c.rank() == 1 {
            // Clean pages of the whole region now sit in rank 1's cache.
            assert_eq!(f.read_runs_at(&whole).unwrap(), old2);
        }
        // Jump past the crash point, then overwrite collectively.
        c.advance(hpc_sim::Time::from_secs_f64(2.0));
        let payload: &[u8] = if c.rank() == 0 { &new2 } else { &[] };
        let err = f.write_runs_at_all(mine, payload).unwrap_err();
        assert!(matches!(err, MpioError::Exhausted { .. }), "{err:?}");
        if c.rank() == 1 {
            // Servers 0–2 took their windows before server 3 refused.
            let landed = f.read_runs_at(&[(0, 3072)]).unwrap();
            assert_eq!(
                landed,
                new2[..3072],
                "stale pages served after a failed write"
            );
        }
    });
    let c = cfg.profile.cache_counters();
    assert!(
        c.invalidations > 0,
        "the failed write must invalidate: {c:?}"
    );
    assert!(cfg.profile.fault_counters().exhausted > 0);
}

/// "Visible after a sync point" also holds on the virtual clock. Rank 0
/// dirties six pages through a one-page cache (five evictions, each going
/// on at its request's NIC handoff) and syncs; the sync drains before the
/// rendezvous, so rank 1 leaves it no earlier than the moment rank 0's last
/// byte is on disk, and its read after it returns rank 0's bytes.
#[test]
fn nobody_leaves_a_sync_before_the_writers_bytes_are_on_disk() {
    use hpc_sim::TraceCtx;
    use pnetcdf_mpio::{MpiFile, OpenMode};

    let cfg = profiled_cfg();
    cfg.events.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let info = cached_info().with("pnc_cache_size", &cfg.stripe_size.to_string());
    let data: Vec<u8> = (0..6 * 1024u32).map(|i| (i % 249) as u8 + 1).collect();
    let run = run_world(2, cfg.clone(), |c| {
        let f = MpiFile::open(c, &pfs, "sync.bin", OpenMode::Create, &info).unwrap();
        if c.rank() == 0 {
            // Rank 1 is idle until the sync: the servers see one client.
            for page in 0..6usize {
                let bytes = &data[page * 1024..][..1024];
                f.write_runs_at(&[(page as u64 * 1024, 1024)], bytes)
                    .unwrap();
            }
        }
        // The sync's own flush goes on this rank's timeline too.
        let _ctx = TraceCtx::enter(c.rank(), 0);
        f.sync().unwrap();
        let left_sync_at = c.now();
        assert_eq!(f.read_runs_at_all(&[(0, 6 * 1024)]).unwrap(), data);
        left_sync_at
    });
    // Rank 0's durability horizon: when the last of its server requests
    // (arrival → on disk) ended.
    let spans = cfg.events.snapshot();
    let writes = spans.rank_spans(0).filter(|s| s.name == "srv_write");
    let horizon = writes.map(|s| s.end).max().expect("rank 0 wrote");
    assert!(
        run.results[1].as_nanos() >= horizon,
        "rank 1 left the sync at {:?}, rank 0's bytes were on disk at {horizon} ns",
        run.results[1]
    );
    let c = cfg.profile.cache_counters();
    assert_eq!((c.evictions, c.write_behind_bytes), (5, 6 * 1024));
    assert!(c.write_behind_drain > 0, "the sync waited for the disk");
}

/// How long `bytes` take on the client link at its bandwidth.
fn on_link(cfg: &SimConfig, bytes: u64) -> Time {
    Time::from_secs_f64(bytes as f64 / cfg.client_link_bw)
}

/// The cache never outruns the client link, in either direction. The rank
/// hands every byte it writes behind to its NIC, and every read the cache
/// issues, a demand fill or a readahead the rank does not wait for, comes in
/// over the rank's one link after the reads before it. So on a one-rank
/// cached write phase on Blue Horizon — `indep_rows_cached` at a sixteenth
/// of its size (plane, budget and page, which is the stripe: a plane is half
/// a page, so readahead runs two reads ahead) — and on the read phase that
/// gets its planes back through the same cache:
///
/// * neither phase moves its bytes faster than `client_link_bw`;
/// * every `evict_flush` span lasts at least the link's latency plus its
///   bytes at link speed;
/// * every `cache_fill` / `readahead_fill` span ends no earlier than its
///   bytes at link speed after both its own latency and the previous fill's
///   end.
///
/// (Without the link rule, readahead that lets the rank go on reads
/// `indep_rows_cached` at 132 MB/s through its 110 MB/s link. At this size
/// the servers hold the read phase far below the link either way; the fill
/// spans are what show two reads sharing it.)
#[test]
fn the_cache_never_outruns_the_client_link() {
    let mut cfg = SimConfig::sdsc_blue_horizon();
    cfg.stripe_size /= 16;
    cfg.events = TraceLog::with_capacity(1 << 20);
    cfg.events.set_enabled(true);
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    let dims = [256u64, 16, 128];
    let info = cached_info().with("pnc_cache_size", "524288");
    let row: Vec<f32> = (0..dims[2]).map(|i| i as f32).collect();
    let passes = 4;
    let run = run_world(1, cfg.clone(), |c| {
        let mut ds = Dataset::create(c, &pfs, "link.nc", Version::Cdf2, &info).unwrap();
        let ids: Vec<_> = ["z", "y", "x"]
            .iter()
            .zip(dims)
            .map(|(name, len)| ds.def_dim(name, len).unwrap())
            .collect();
        let v = ds.def_var("tt", NcType::Float, &ids).unwrap();
        ds.enddef().unwrap();
        ds.begin_indep_data().unwrap();
        let t0 = c.now();
        for _ in 0..passes {
            for (z, y) in (0..dims[0]).flat_map(|z| (0..dims[1]).map(move |y| (z, y))) {
                ds.put_vara(v, &[z, y, 0], &[1, 1, dims[2]], &row).unwrap();
            }
        }
        ds.end_indep_data().unwrap();
        let written = c.now() - t0;
        ds.begin_indep_data().unwrap();
        let t1 = c.now();
        for _ in 0..passes {
            for z in 0..dims[0] {
                let plane: Vec<f32> = ds.get_vara(v, &[z, 0, 0], &[1, dims[1], dims[2]]).unwrap();
                assert!(plane.chunks(row.len()).all(|got| got == row), "plane {z}");
            }
        }
        ds.end_indep_data().unwrap();
        let read = c.now() - t1;
        ds.close().unwrap();
        [written, read]
    });
    let bytes = passes * dims.iter().product::<u64>() * 4;
    for (phase, took) in ["written behind", "read"].iter().zip(run.results[0]) {
        let rate = bytes as f64 / took.as_secs_f64();
        assert!(
            rate <= cfg.client_link_bw,
            "{rate:.0} B/s {phase} through a {:.0} B/s link",
            cfg.client_link_bw
        );
    }
    let snap = cfg.events.snapshot();
    assert_eq!(snap.dropped, 0);
    let flushes: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "evict_flush")
        .collect();
    assert!(!flushes.is_empty(), "no eviction wrote behind");
    for s in flushes {
        let bytes = s.arg("bytes").unwrap();
        let link = cfg.client_link_latency + on_link(&cfg, bytes);
        assert!(
            s.nanos() >= link.as_nanos(),
            "an eviction wrote {bytes} B behind in {} ns, faster than the link ({} ns)",
            s.nanos(),
            link.as_nanos()
        );
    }
    // The fills in the order they were issued, each queued on the link
    // behind the one before it.
    let fills = snap.spans.iter().filter(|s| s.name.ends_with("_fill"));
    let (mut link_free, mut ahead) = (0u64, 0);
    for s in fills {
        let bytes = s.arg("bytes").unwrap();
        let lands = (s.begin + cfg.client_link_latency.as_nanos()).max(link_free)
            + on_link(&cfg, bytes).as_nanos();
        assert!(
            s.end >= lands,
            "a {} of {bytes} B issued at {} ns landed at {} ns, before the link could carry it ({lands} ns)",
            s.name,
            s.begin,
            s.end
        );
        link_free = s.end;
        ahead += (s.name == "readahead_fill") as u32;
    }
    assert!(ahead > 0, "the read phase read nothing ahead");
}

/// One client link per rank, not one per file: a rank reads two cached
/// files plane by plane in alternation, each a sequential stream its own
/// cache reads ahead of, and both streams come in over the same link, so
/// together they read no faster than `client_link_bw`. Blue Horizon's full
/// stripes, so a page takes longer on the link than on a server. (A link
/// clock per cache lets the two caches' reads overlap on the link: 150 MB/s
/// here.)
#[test]
fn two_cached_files_share_the_ranks_one_client_link() {
    use pnetcdf_mpio::{MpiFile, OpenMode};

    let cfg = SimConfig::sdsc_blue_horizon();
    let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
    // A plane is two pages: a readahead fetches the next plane.
    let (planes, plane) = (16u64, 2 * cfg.stripe_size as u64);
    let content: Vec<u8> = (0..planes * plane).map(|i| (i % 251) as u8).collect();
    for name in ["a", "b"] {
        pfs.create(name).import_bytes(&content);
    }
    let info = cached_info().with("pnc_cache_size", &(4 * cfg.stripe_size).to_string());
    let run = run_world(1, cfg.clone(), |c| {
        let open = |name| MpiFile::open(c, &pfs, name, OpenMode::ReadOnly, &info).unwrap();
        let files = [open("a"), open("b")];
        let t0 = c.now();
        let mut got = vec![0u8; plane as usize];
        for z in 0..planes {
            for f in &files {
                f.read_runs_into(&[(z * plane, plane)], &mut got).unwrap();
                assert_eq!(got, content[(z * plane) as usize..][..plane as usize]);
            }
        }
        for f in &files {
            f.sync().unwrap();
        }
        c.now() - t0
    });
    let rate = (2 * planes * plane) as f64 / run.results[0].as_secs_f64();
    assert!(
        rate <= cfg.client_link_bw,
        "two files read at {rate:.0} B/s together through one {:.0} B/s link",
        cfg.client_link_bw
    );
}
