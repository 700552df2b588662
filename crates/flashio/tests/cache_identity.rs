//! The page cache must be invisible in the bytes: a FLASH checkpoint
//! written through the cached independent path must equal the uncached
//! independent run and the collective (two-phase) run bit for bit — on a
//! small platform, and at 64 processors on the Frost-like one, where the
//! cache must also hit, evict, write behind and win.

use flash_io::{run_flash_io_mode, FlashConfig, FlashResult, IoLibrary, OutputKind, WriteMode};
use hpc_sim::trace::Json;
use hpc_sim::SimConfig;
use pnetcdf_pfs::{Pfs, StorageMode};

fn checkpoint_bytes(sim: &SimConfig, nprocs: usize, mode: WriteMode) -> (Vec<u8>, FlashResult) {
    let config = FlashConfig {
        nxb: 8,
        nprocs,
        kind: OutputKind::Checkpoint,
        lib: IoLibrary::Pnetcdf,
        blocks_per_proc: 4,
        attributes: false,
    };
    let pfs = Pfs::new(sim.clone(), StorageMode::Full);
    let res = run_flash_io_mode(config, sim.clone(), &pfs, mode);
    let bytes = pfs.open("flash_out").expect("output exists").to_bytes();
    (bytes, res)
}

/// The collective, the uncached independent and, per budget of
/// `cache_sizes`, the cached independent checkpoint of `nprocs` ranks on
/// `platform`, all files asserted identical; the uncached result and the
/// last cached run's result and platform come back for the caller's checks.
fn three_ports(
    platform: fn() -> SimConfig,
    nprocs: usize,
    cache_sizes: &[usize],
) -> (FlashResult, FlashResult, SimConfig) {
    let (collective, _) = checkpoint_bytes(&platform(), nprocs, WriteMode::Collective);
    let (uncached_bytes, uncached) = checkpoint_bytes(&platform(), nprocs, WriteMode::uncached());
    assert!(!collective.is_empty());
    assert!(
        uncached_bytes == collective,
        "independent and collective ports must produce the same file"
    );
    let mut last = None;
    for &cache_size in cache_sizes {
        let sim = platform();
        sim.profile.set_enabled(true);
        let (cached_bytes, cached) = checkpoint_bytes(&sim, nprocs, WriteMode::cached(cache_size));
        assert!(
            cached_bytes == collective,
            "cache ({cache_size} bytes) must not change file contents"
        );
        last = Some((uncached, cached, sim));
    }
    last.expect("at least one cache size")
}

#[test]
fn cached_checkpoint_is_byte_identical() {
    // The tiny cache forces evictions mid-write; the bytes must still match.
    three_ports(SimConfig::test_small, 8, &[4 * 1024 * 1024, 64 * 1024]);
}

/// The Figure 7 checkpoint (64 processors, Frost-like platform) with one
/// stripe-sized page of budget, so that every variable's flush evicts the
/// last: eviction, write-behind and coalescing all fire, the cached port
/// beats the uncached one, and the phase breakdown still explains the
/// whole makespan.
#[test]
fn a_one_page_cache_at_64_ranks_hits_evicts_writes_behind_and_wins() {
    let (uncached, cached, sim) = three_ports(SimConfig::asci_frost, 64, &[256 * 1024]);
    let cc = sim.profile.cache_counters();
    assert!(cc.hits > 0, "no cache hits recorded: {cc:?}");
    assert!(
        cc.write_behind_flushes > 0 && cc.write_behind_bytes > 0,
        "no write-behind recorded: {cc:?}"
    );
    assert!(cc.evictions > 0, "tiny budget never evicted: {cc:?}");
    assert!(
        cached.bandwidth_mb_s > uncached.bandwidth_mb_s,
        "cache did not improve bandwidth ({:.1} vs {:.1} MB/s)",
        cached.bandwidth_mb_s,
        uncached.bandwidth_mb_s
    );
    // Every simulated clock advance is charged to exactly one phase, so the
    // critical rank's attributed time covers the makespan to within 5 %.
    let profile = sim.profile.snapshot().to_json(cached.time.as_nanos());
    let coverage = profile.get("coverage").and_then(Json::as_f64);
    let coverage = coverage.expect("report has a coverage field");
    assert!(
        (coverage - 1.0).abs() <= 0.05,
        "phase attribution covers {:.2}% of the makespan",
        coverage * 100.0
    );
}
