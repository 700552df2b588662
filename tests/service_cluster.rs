//! The shared service cluster end to end: many datasets on one [`Pfs`]
//! must behave — byte for byte — like each dataset on its
//! own private file system, while sharing servers, metadata shards and
//! failover state.

use hpc_sim::SimConfig;
use pnetcdf::{Dataset, Info, NcType, Version};
use pnetcdf_mpi::run_world;
use pnetcdf_pfs::{Pfs, StorageMode, META_SHARDS};

/// Write `nrows x 16` doubles seeded by `tag` into `name` through `pfs`
/// with a world of `nprocs` ranks, using the communicator `comm`.
fn write_dataset(comm: &pnetcdf_mpi::Comm, pfs: &Pfs, name: &str, tag: u64, nrows: u64) {
    let mut ds = Dataset::create(comm, pfs, name, Version::Cdf1, &Info::new()).unwrap();
    let y = ds.def_dim("y", nrows * comm.size() as u64).unwrap();
    let x = ds.def_dim("x", 16).unwrap();
    let v = ds.def_var("v", NcType::Double, &[y, x]).unwrap();
    ds.enddef().unwrap();
    let start = [comm.rank() as u64 * nrows, 0];
    let count = [nrows, 16];
    let buf: Vec<f64> = (0..nrows * 16)
        .map(|i| (tag * 100_000 + comm.rank() as u64 * 1000 + i) as f64)
        .collect();
    ds.put_vara_all(v, &start, &count, &buf).unwrap();
    ds.close().unwrap();
}

/// Two datasets written *concurrently* on one shared cluster (a 4-rank
/// world split into two 2-rank apps) must be byte-identical to the same
/// datasets written back-to-back on fresh private clusters. Sharing
/// servers changes timing, never bytes.
#[test]
fn concurrent_datasets_match_fresh_clusters() {
    let cfg = SimConfig::test_small();

    // Shared cluster, two apps interleaving.
    let cluster = Pfs::new(cfg.clone(), StorageMode::Full);
    let (a, b) = (cluster.clone(), cluster.clone());
    run_world(4, cfg.clone(), move |comm| {
        let color = (comm.rank() % 2) as i64;
        let sub = comm.split(color, comm.rank() as i64).unwrap().unwrap();
        let (pfs, name, tag) = if color == 0 {
            (&a, "app_a.nc", 1)
        } else {
            (&b, "app_b.nc", 2)
        };
        write_dataset(&sub, pfs, name, tag, 8);
    });
    let shared_a = cluster.open("app_a.nc").unwrap().to_bytes();
    let shared_b = cluster.open("app_b.nc").unwrap().to_bytes();

    // Same apps, each alone on a fresh cluster.
    for (name, tag, shared) in [("app_a.nc", 1u64, &shared_a), ("app_b.nc", 2u64, &shared_b)] {
        let pfs = Pfs::new(cfg.clone(), StorageMode::Full);
        let pfs2 = pfs.clone();
        run_world(2, cfg.clone(), move |comm| {
            write_dataset(comm, &pfs2, name, tag, 8);
        });
        let alone = pfs.open(name).unwrap().to_bytes();
        assert_eq!(
            &alone, shared,
            "{name}: cluster sharing changed the file bytes"
        );
    }
}

/// Metadata-shard id allocation and counters are a pure function of the
/// create/open sequence — two clusters replaying the same namespace
/// traffic report identical shard stats, and every id is unique even
/// under heavy cross-shard interleaving.
#[test]
fn metadata_shards_deterministic() {
    let build = || {
        let fs = Pfs::new(SimConfig::test_small(), StorageMode::Full);
        for i in 0..3 * META_SHARDS {
            fs.create(&format!("f{i}.nc"));
        }
        for i in 0..3 * META_SHARDS {
            assert!(fs.open(&format!("f{i}.nc")).is_some());
        }
        assert!(fs.delete("f0.nc"));
        fs
    };
    let c1 = build();
    let c2 = build();
    assert_eq!(c1.meta().len(), 3 * META_SHARDS - 1);
    assert_eq!(c1.meta().stats(), c2.meta().stats());
    assert_eq!(c1.meta().list(), c2.meta().list());
    let total_creates: u64 = c1.meta().stats().iter().map(|s| s.creates).sum();
    assert_eq!(total_creates, 3 * META_SHARDS as u64);
}

/// Marking a server down through one file's handle opens the same degraded
/// epoch for every other file open on the cluster: failover is a cluster
/// property, not a file property.
#[test]
fn failover_epoch_shared_across_open_files() {
    let cfg = SimConfig {
        parity: true,
        ..SimConfig::test_small()
    };
    let pfs = Pfs::new(cfg, StorageMode::Full);
    let a = pfs.create("a.nc");
    let b = pfs.create("b.nc");
    let (a, b) = (a.pfs(), b.pfs());
    assert_eq!(a.failover_epoch(), 0);
    assert_eq!(b.failover_epoch(), 0);

    assert!(a.can_failover(1));
    assert!(a.mark_server_down(1), "first mark is the transition");
    assert!(!a.mark_server_down(1), "idempotent on the same handle");

    // The other file sees the same epoch and the same down server.
    assert_eq!(b.down_server(), Some(1));
    assert_eq!(b.failover_epoch(), 1);
    assert_eq!(a.failover_epoch(), 1);
    // Single-parity: the *other* file cannot fail over a second server.
    assert!(!b.can_failover(2));
}
