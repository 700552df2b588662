//! Deterministic, seeded fault injection for the simulated PFS.
//!
//! The paper's platforms (GPFS on 12 and 2 I/O nodes) routinely see
//! transient server errors, short reads/writes, and stalled disks at scale;
//! the ADIO layer underneath ROMIO is expected to hide them. A [`FaultPlan`]
//! describes which of these the simulated servers should produce and how
//! often. It rides inside [`crate::SimConfig`] so every layer built from
//! one config sees the same plan.
//!
//! Injection is a *pure function* of `(seed, server, op_counter)` — no
//! global RNG state — so a run with a given plan is exactly reproducible,
//! and independent of thread scheduling: each server draws from its own
//! operation counter, which is serialized under the server's mutex.
//!
//! Plans can be parsed from a spec string ([`FaultPlan::from_spec`]), e.g.
//! `transient=0.01,short=0.02,stall=0.005,crash=server:3@t>1e6`.

use crate::time::Time;

/// A fault decision for one server operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Serve the request normally.
    None,
    /// Transient EIO: the request fails outright, a retry may succeed.
    Transient,
    /// Short I/O: only `bytes_done` of the request transfer.
    Short {
        /// Bytes actually transferred (strictly less than requested).
        bytes_done: u64,
    },
    /// The disk stalls for the given extra latency, then serves normally.
    Stall {
        /// Extra service latency charged to virtual time.
        delay: Time,
    },
    /// The server is crashed at this virtual time: nothing is served.
    Crashed,
}

/// A server crash window: server `server` is down from virtual time `at`
/// until `restart` (forever when `restart` is `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSpec {
    /// Index of the crashed I/O server.
    pub server: usize,
    /// Virtual time at which the server goes down.
    pub at: Time,
    /// Virtual time at which it comes back, if ever.
    pub restart: Option<Time>,
}

/// Describes the faults the simulated PFS servers inject.
///
/// The default plan is inert: [`FaultPlan::is_active`] is `false` and every
/// decision is [`FaultKind::None`], so the fault-free stack pays nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every per-operation decision.
    pub seed: u64,
    /// Probability of a transient EIO per server operation.
    pub transient: f64,
    /// Probability of a short read/write per server operation.
    pub short: f64,
    /// Probability of a latency stall per server operation.
    pub stall: f64,
    /// Extra latency of one stall.
    pub stall_time: Time,
    /// Server crash windows, in spec order. Windows may overlap or target
    /// the same server more than once (crash, restart, crash again).
    pub crashes: Vec<CrashSpec>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0x5eed_facade,
            transient: 0.0,
            short: 0.0,
            stall: 0.0,
            stall_time: Time::from_micros(500),
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// Whether this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.transient > 0.0 || self.short > 0.0 || self.stall > 0.0 || !self.crashes.is_empty()
    }

    /// Whether `server` is inside any crash window at virtual time `at`.
    pub fn is_down(&self, server: usize, at: Time) -> bool {
        self.crashes
            .iter()
            .any(|c| server == c.server && at >= c.at && c.restart.map(|r| at < r).unwrap_or(true))
    }

    /// Decide the fault (if any) for one server operation.
    ///
    /// * `server` — index of the serving I/O node;
    /// * `op` — that server's operation counter (monotonic per server);
    /// * `arrival` — virtual time the request reaches the server;
    /// * `bytes` — requested transfer size.
    ///
    /// Crash windows dominate probabilistic faults: a request arriving
    /// while the server is down is always [`FaultKind::Crashed`].
    pub fn decide(&self, server: usize, op: u64, arrival: Time, bytes: u64) -> FaultKind {
        if self.is_down(server, arrival) {
            return FaultKind::Crashed;
        }
        if self.transient <= 0.0 && self.short <= 0.0 && self.stall <= 0.0 {
            return FaultKind::None;
        }
        let u = unit_f64(mix(self.seed, server as u64, op));
        // Cumulative thresholds: [0,transient) → transient,
        // [transient, transient+short) → short, then stall, then none.
        if u < self.transient {
            return FaultKind::Transient;
        }
        if u < self.transient + self.short {
            // A second draw picks the completed fraction in [25%, 75%] of
            // the request, truncated down; a 0-byte "short" on a tiny
            // request degrades to a transient so forward progress below is
            // the recovery layer's job, not ours.
            let f = 0.25 + 0.5 * unit_f64(mix(self.seed ^ 0x9e37, server as u64, op));
            let done = (bytes as f64 * f) as u64;
            if done == 0 || done >= bytes {
                return FaultKind::Transient;
            }
            return FaultKind::Short { bytes_done: done };
        }
        if u < self.transient + self.short + self.stall {
            return FaultKind::Stall {
                delay: self.stall_time,
            };
        }
        FaultKind::None
    }

    /// Parse a fault spec.
    ///
    /// Comma-separated `key=value` pairs:
    ///
    /// * `transient=<p>` / `short=<p>` / `stall=<p>` — per-op probabilities;
    /// * `stall_us=<micros>` / `stall_ns=<nanos>` — stall latency
    ///   (default 500µs);
    /// * `seed=<u64>` — decision seed;
    /// * `crash=server:<idx>@t><nanos>` — crash server `idx` at the given
    ///   virtual nanosecond (scientific notation accepted, e.g. `t>1e6`);
    ///   may repeat, each occurrence opening a new crash window;
    /// * `restart=<nanos>` — bring the most recently crashed server back at
    ///   that time; binds to the preceding `crash=` item.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {item:?} is not key=value"))?;
            match key.trim() {
                "transient" => plan.transient = parse_prob(value)?,
                "short" => plan.short = parse_prob(value)?,
                "stall" => plan.stall = parse_prob(value)?,
                "stall_us" => {
                    plan.stall_time = Time::from_micros(parse_u64(value)?);
                }
                "stall_ns" => {
                    plan.stall_time = Time::from_nanos(parse_nanos(value)?);
                }
                "seed" => plan.seed = parse_u64(value)?,
                "crash" => {
                    let rest = value.strip_prefix("server:").ok_or_else(|| {
                        format!("crash spec {value:?} must look like server:<idx>@t><nanos>")
                    })?;
                    let (idx, at) = rest.split_once("@t>").ok_or_else(|| {
                        format!("crash spec {value:?} must look like server:<idx>@t><nanos>")
                    })?;
                    plan.crashes.push(CrashSpec {
                        server: parse_u64(idx)? as usize,
                        at: Time::from_nanos(parse_nanos(at)?),
                        restart: None,
                    });
                }
                "restart" => {
                    let r = Time::from_nanos(parse_nanos(value)?);
                    match plan.crashes.last_mut() {
                        Some(c) if c.restart.is_none() => c.restart = Some(r),
                        Some(_) => {
                            return Err("restart= repeated for the same crash= window".to_string());
                        }
                        None => return Err("restart= given without crash=".to_string()),
                    }
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// The canonical spec string: `FaultPlan::from_spec(&plan.to_string())`
/// reproduces `plan` exactly. Only non-default fields are emitted, in a
/// fixed order; times are plain nanoseconds (whole-microsecond stall
/// latencies use `stall_us`, anything finer falls back to `stall_ns`).
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = FaultPlan::default();
        let mut parts: Vec<String> = Vec::new();
        if self.seed != d.seed {
            parts.push(format!("seed={}", self.seed));
        }
        if self.transient != d.transient {
            parts.push(format!("transient={}", self.transient));
        }
        if self.short != d.short {
            parts.push(format!("short={}", self.short));
        }
        if self.stall != d.stall {
            parts.push(format!("stall={}", self.stall));
        }
        if self.stall_time != d.stall_time {
            let ns = self.stall_time.as_nanos();
            if ns % 1000 == 0 {
                parts.push(format!("stall_us={}", ns / 1000));
            } else {
                parts.push(format!("stall_ns={ns}"));
            }
        }
        for c in &self.crashes {
            parts.push(format!("crash=server:{}@t>{}", c.server, c.at.as_nanos()));
            if let Some(r) = c.restart {
                parts.push(format!("restart={}", r.as_nanos()));
            }
        }
        write!(f, "{}", parts.join(","))
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("bad probability {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad integer {s:?}"))
}

/// Nanoseconds, accepting plain integers or scientific notation (`1e6`).
fn parse_nanos(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Ok(n) = s.parse::<u64>() {
        return Ok(n);
    }
    let f: f64 = s.parse().map_err(|_| format!("bad time {s:?}"))?;
    if f < 0.0 || !f.is_finite() {
        return Err(format!("bad time {s:?}"));
    }
    Ok(f as u64)
}

/// splitmix64 over the (seed, server, op) triple: a high-quality mix with
/// no state, so decisions are order-independent and reproducible.
fn mix(seed: u64, server: u64, op: u64) -> u64 {
    let mut z = seed
        .wrapping_add(server.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(op.wrapping_mul(0xbf58476d1ce4e5b9));
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from 53 random bits.
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        for op in 0..1000 {
            assert_eq!(plan.decide(0, op, Time::ZERO, 4096), FaultKind::None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_rate_plausible() {
        let plan = FaultPlan {
            transient: 0.1,
            ..FaultPlan::default()
        };
        let mut faults = 0;
        for op in 0..10_000 {
            let d = plan.decide(1, op, Time::ZERO, 4096);
            assert_eq!(d, plan.decide(1, op, Time::ZERO, 4096));
            if d == FaultKind::Transient {
                faults += 1;
            }
        }
        // 10% ± generous slack on 10k draws.
        assert!((700..1300).contains(&faults), "rate off: {faults}");
    }

    #[test]
    fn short_faults_make_partial_progress() {
        let plan = FaultPlan {
            short: 1.0,
            ..FaultPlan::default()
        };
        for op in 0..100 {
            match plan.decide(0, op, Time::ZERO, 1000) {
                FaultKind::Short { bytes_done } => {
                    assert!(bytes_done > 0 && bytes_done < 1000);
                }
                FaultKind::Transient => {} // tiny-request degradation
                other => panic!("expected short fault, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_window_applies_to_one_server() {
        let plan = FaultPlan {
            crashes: vec![CrashSpec {
                server: 2,
                at: Time::from_nanos(100),
                restart: Some(Time::from_nanos(200)),
            }],
            ..FaultPlan::default()
        };
        assert!(plan.is_active());
        assert_eq!(plan.decide(2, 0, Time::from_nanos(50), 64), FaultKind::None);
        assert_eq!(
            plan.decide(2, 0, Time::from_nanos(150), 64),
            FaultKind::Crashed
        );
        assert_eq!(
            plan.decide(2, 0, Time::from_nanos(250), 64),
            FaultKind::None
        );
        assert_eq!(
            plan.decide(1, 0, Time::from_nanos(150), 64),
            FaultKind::None
        );
        assert!(plan.is_down(2, Time::from_nanos(100)));
        assert!(!plan.is_down(2, Time::from_nanos(200)));
        assert!(!plan.is_down(1, Time::from_nanos(150)));
    }

    #[test]
    fn multiple_crash_windows_cover_independent_spans() {
        let plan = FaultPlan::from_spec(
            "crash=server:1@t>100,restart=200,crash=server:1@t>400,restart=500,\
             crash=server:3@t>50",
        )
        .unwrap();
        assert_eq!(plan.crashes.len(), 3);
        // Server 1 is down in two disjoint windows.
        assert!(plan.is_down(1, Time::from_nanos(150)));
        assert!(!plan.is_down(1, Time::from_nanos(300)));
        assert!(plan.is_down(1, Time::from_nanos(450)));
        assert!(!plan.is_down(1, Time::from_nanos(600)));
        // Server 3 never restarts.
        assert!(plan.is_down(3, Time::from_nanos(1_000_000)));
        assert_eq!(
            plan.decide(1, 7, Time::from_nanos(450), 64),
            FaultKind::Crashed
        );
    }

    #[test]
    fn display_emits_canonical_spec_that_reparses() {
        let plan = FaultPlan {
            seed: 42,
            transient: 0.01,
            short: 0.5,
            stall: 0.125,
            stall_time: Time::from_nanos(1_234_567),
            crashes: vec![
                CrashSpec {
                    server: 3,
                    at: Time::from_nanos(1_000_000),
                    restart: Some(Time::from_nanos(2_000_000)),
                },
                CrashSpec {
                    server: 0,
                    at: Time::from_nanos(5),
                    restart: None,
                },
            ],
        };
        let spec = plan.to_string();
        assert_eq!(FaultPlan::from_spec(&spec).unwrap(), plan);
        // Default plan prints empty and reparses inert.
        assert_eq!(FaultPlan::default().to_string(), "");
        assert!(!FaultPlan::from_spec("").unwrap().is_active());
    }

    #[test]
    fn spec_round_trips_the_issue_example() {
        let plan =
            FaultPlan::from_spec("transient=0.01,short=0.02,stall=0.005,crash=server:3@t>1e6")
                .unwrap();
        assert_eq!(plan.transient, 0.01);
        assert_eq!(plan.short, 0.02);
        assert_eq!(plan.stall, 0.005);
        let c = plan.crashes[0];
        assert_eq!(c.server, 3);
        assert_eq!(c.at, Time::from_nanos(1_000_000));
        assert_eq!(c.restart, None);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultPlan::from_spec("transient=2.0").is_err());
        assert!(FaultPlan::from_spec("bogus=1").is_err());
        assert!(FaultPlan::from_spec("transient").is_err());
        assert!(FaultPlan::from_spec("crash=3").is_err());
        assert!(FaultPlan::from_spec("restart=5").is_err());
        // A second restart for the same window is an error, not a silent
        // overwrite.
        assert!(FaultPlan::from_spec("crash=server:0@t>1,restart=2,restart=3").is_err());
    }

    #[test]
    fn spec_with_restart_and_seed() {
        let plan = FaultPlan::from_spec("seed=42,crash=server:0@t>1000,restart=2000").unwrap();
        assert_eq!(plan.seed, 42);
        let c = plan.crashes[0];
        assert_eq!(c.restart, Some(Time::from_nanos(2000)));
    }

    #[test]
    fn empty_spec_is_inert() {
        assert!(!FaultPlan::from_spec("").unwrap().is_active());
    }
}
