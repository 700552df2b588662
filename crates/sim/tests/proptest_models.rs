//! Property-based tests of the cost models: monotonicity and scaling laws
//! the benchmark interpretations rely on.

use proptest::prelude::*;

use hpc_sim::{DiskModel, NetworkModel, ServiceEngine, ServiceModel, SharedClocks, Time};

fn net() -> NetworkModel {
    NetworkModel {
        latency: Time::from_micros(20),
        bandwidth: 2e8,
    }
}

fn disk() -> DiskModel {
    DiskModel {
        per_request: Time::from_micros(300),
        seek: Time::from_millis(4),
        bandwidth: 1.2e8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn time_addition_is_associative_enough(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (ta, tb, tc) = (Time::from_nanos(a), Time::from_nanos(b), Time::from_nanos(c));
        prop_assert_eq!((ta + tb) + tc, ta + (tb + tc));
        prop_assert_eq!(ta + tb, tb + ta);
        prop_assert_eq!((ta + tb) - tb, ta);
    }

    #[test]
    fn seconds_roundtrip_within_a_nanosecond(ns in 0u64..1u64<<50) {
        let t = Time::from_nanos(ns);
        let back = Time::from_secs_f64(t.as_secs_f64());
        let diff = back.as_nanos().abs_diff(ns);
        // f64 has 52 mantissa bits; below 2^50 ns we are exact to ~1 ns.
        prop_assert!(diff <= 256, "{ns} -> {diff} ns error");
    }

    #[test]
    fn p2p_cost_monotone_in_bytes(a in 0usize..1<<28, b in 0usize..1<<28) {
        let n = net();
        let (small, big) = (a.min(b), a.max(b));
        prop_assert!(n.p2p(small) <= n.p2p(big));
    }

    #[test]
    fn collectives_monotone_in_procs(bytes in 0usize..1<<20, p in 1usize..512) {
        let n = net();
        prop_assert!(n.bcast(bytes, p) <= n.bcast(bytes, p * 2));
        prop_assert!(n.barrier(p) <= n.barrier(p * 2));
        prop_assert!(n.allreduce(bytes, p) <= n.allreduce(bytes, p * 2));
        prop_assert!(n.allgather(bytes, p) <= n.allgather(bytes, p * 2));
    }

    #[test]
    fn disk_request_cost_bounds(bytes in 0usize..1<<26, seq in proptest::bool::ANY) {
        let d = disk();
        let t = d.request(bytes, seq);
        // Never cheaper than the pure stream, never cheaper than overhead.
        prop_assert!(t >= d.stream(bytes));
        prop_assert!(t >= Time::from_micros(300));
        // Sequential never costs more than random.
        prop_assert!(d.request(bytes, true) <= d.request(bytes, false));
    }

    #[test]
    fn one_large_request_beats_many_small(bytes in 1024usize..1<<22, pieces in 2usize..64) {
        let d = disk();
        let one = d.request(bytes, false);
        let per = bytes / pieces;
        let many = Time::from_nanos(d.request(per, false).as_nanos() * pieces as u64);
        prop_assert!(one < many, "one={one:?} many={many:?}");
    }

    /// The dual-resource server pipeline can never beat its busiest stage
    /// run alone, and can never lose to the fully serialized (NIC then
    /// disk, one request at a time) schedule — for ANY arrival schedule,
    /// request mix, and queue depth (0 = unbounded).
    #[test]
    fn service_engine_bounded_by_stage_and_serial_sums(
        ops in proptest::collection::vec(
            (0u64..2_000_000, 1usize..1 << 20, 0u64..5_000_000),
            1..40,
        ),
        depth in 0usize..8,
    ) {
        let model = ServiceModel { nic: net(), queue_depth: depth };
        let mut eng = ServiceEngine::new(model);
        let mut arrival = Time::ZERO;
        let mut a0 = Time::ZERO;
        let mut t_serial = Time::ZERO;
        let mut pipelined = Time::ZERO;
        let mut sum_disk = 0u64;
        let mut nic_busy = Time::ZERO;
        for (i, &(delta, bytes, disk_ns)) in ops.iter().enumerate() {
            arrival += Time::from_nanos(delta);
            if i == 0 {
                a0 = arrival;
                t_serial = arrival;
            }
            let disk_time = Time::from_nanos(disk_ns);
            let st = eng.write(arrival, bytes, disk_time, 0);
            prop_assert!(st.nic_start >= arrival);
            prop_assert!(st.disk_start >= st.nic_done);
            pipelined = pipelined.max(st.disk_done);
            nic_busy += st.nic_done - st.nic_start;
            sum_disk += disk_ns;
            t_serial = t_serial.max(arrival) + net().p2p(bytes) + disk_time;
        }
        // Upper bound: the pipeline never loses to the serial sum.
        prop_assert!(pipelined <= t_serial, "pipelined {pipelined:?} > serial {t_serial:?}");
        // Lower bound: each stage is a serial resource, so the makespan is
        // at least the busier stage's total work after the first arrival.
        let stage_floor = nic_busy.as_nanos().max(sum_disk);
        prop_assert!(
            pipelined >= a0 + Time::from_nanos(stage_floor),
            "pipelined {pipelined:?} beats stage floor {stage_floor} ns"
        );
    }

    #[test]
    fn sync_max_is_idempotent_and_monotone(
        offsets in proptest::collection::vec(0u64..1_000_000, 2..10),
        extra in 0u64..1000,
    ) {
        let clocks = SharedClocks::new(offsets.len());
        for (r, &off) in offsets.iter().enumerate() {
            clocks.advance(r, Time::from_nanos(off));
        }
        let ranks: Vec<usize> = (0..offsets.len()).collect();
        let before = clocks.snapshot();
        let t1 = clocks.sync_max(&ranks, Time::from_nanos(extra));
        prop_assert_eq!(t1.as_nanos(), offsets.iter().max().unwrap() + extra);
        for (r, b) in before.iter().enumerate() {
            prop_assert!(clocks.now(r) >= *b, "clock went backwards");
        }
        // A second sync with zero extra changes nothing.
        let t2 = clocks.sync_max(&ranks, Time::ZERO);
        prop_assert_eq!(t2, t1);
    }
}
