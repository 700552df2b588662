//! Property-based tests for the `FaultPlan::from_spec` language: for any
//! representable [`FaultPlan`] — probabilities, seed, stall latency, and an
//! arbitrary list of crash windows — the canonical [`Display`] string must
//! reparse to the identical plan, and parsing must never panic on junk.

use proptest::prelude::*;

use hpc_sim::{CrashSpec, FaultPlan, Time};

fn prob() -> impl Strategy<Value = f64> {
    // Rust's f64 Display prints the shortest string that parses back
    // exactly, so any probability in range must survive the round trip.
    0.0f64..1.0
}

/// (server, at, restart?) triples; restart strictly after the crash when
/// present, which is the only shape the injection layer ever acts on.
fn crashes() -> impl Strategy<Value = Vec<CrashSpec>> {
    proptest::collection::vec(
        (0u64..16, 0u64..1 << 50, 1u64..1 << 20, proptest::bool::ANY),
        0..6,
    )
    .prop_map(|windows| {
        windows
            .into_iter()
            .map(|(server, at, outage, restarts)| CrashSpec {
                server: server as usize,
                at: Time::from_nanos(at),
                restart: restarts.then(|| Time::from_nanos(at + outage)),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_round_trips_any_plan(
        seed in any::<u64>(),
        transient in prob(),
        short in prob(),
        stall in prob(),
        stall_ns in 1u64..1 << 40,
        crashes in crashes(),
    ) {
        let plan = FaultPlan {
            seed,
            transient,
            short,
            stall,
            stall_time: Time::from_nanos(stall_ns),
            crashes,
        };
        let spec = plan.to_string();
        let reparsed = FaultPlan::from_spec(&spec);
        prop_assert_eq!(reparsed.as_ref(), Ok(&plan), "spec was {}", spec);
        // The canonical string is a fixed point: printing the reparse
        // yields the same spec again.
        prop_assert_eq!(reparsed.unwrap().to_string(), spec);
    }

    #[test]
    fn crash_only_specs_round_trip_through_the_repeated_syntax(
        crashes in crashes(),
    ) {
        // The repeated `crash=...[,restart=...]` syntax preserves window
        // order and the crash/restart pairing.
        let plan = FaultPlan { crashes: crashes.clone(), ..FaultPlan::default() };
        let reparsed = FaultPlan::from_spec(&plan.to_string()).unwrap();
        prop_assert_eq!(reparsed.crashes, crashes);
    }

    #[test]
    fn parsing_junk_never_panics(spec in "[a-z0-9=:@>,.]{0,40}") {
        // Error or plan, but never a panic; whatever parses must print a
        // spec that reparses to the same plan.
        if let Ok(plan) = FaultPlan::from_spec(&spec) {
            prop_assert_eq!(FaultPlan::from_spec(&plan.to_string()), Ok(plan));
        }
    }

    #[test]
    fn is_down_matches_the_window_arithmetic(
        crashes in crashes(),
        server in 0u64..16,
        at in 0u64..1 << 50,
    ) {
        let plan = FaultPlan { crashes: crashes.clone(), ..FaultPlan::default() };
        let t = Time::from_nanos(at);
        let expect = crashes.iter().any(|c| {
            c.server == server as usize
                && t >= c.at
                && c.restart.map(|r| t < r).unwrap_or(true)
        });
        prop_assert_eq!(plan.is_down(server as usize, t), expect);
        // Inside a window the decision is Crashed regardless of op/bytes.
        if expect {
            prop_assert_eq!(
                plan.decide(server as usize, 3, t, 64),
                hpc_sim::FaultKind::Crashed
            );
        }
    }
}
