//! `perf_bench`: the repository's benchmark. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path perf_bench/Cargo.toml -- \
//!     [--workload W]... [--seed N] [--seconds S | --iters N] \
//!     [--trace [0|1]] [--quick]
//! ```

mod alloc;
mod child;
mod driver;
mod metrics;
mod probes;
mod replay;
mod report;
mod spans;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use child::Budget;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Cli {
    opts: driver::Options,
    child: Option<Workload>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut budget) = (1u64, None);
    let (mut trace, mut quick, mut child) = (false, false, None);
    let mut it = args.iter().peekable();
    let workload = |name: Option<&String>| {
        name.and_then(|n| Workload::from_name(n)).ok_or_else(|| {
            let names: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
            format!("want a workload name, one of {names:?}")
        })
    };
    fn num<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        v.and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} wants a number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workloads.push(workload(it.next())?),
            "--child" => child = Some(workload(it.next())?),
            "--seed" => seed = num("--seed", it.next())?,
            "--iters" => budget = Some(Budget::Iters(num::<u64>("--iters", it.next())?.max(1))),
            "--seconds" => {
                let s: f64 = num("--seconds", it.next())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds wants 0 < S <= 3600".into());
                }
                budget = Some(Budget::Seconds(s));
            }
            // `--trace` alone or with the driver's `0`/`1`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = workload::ALL.to_vec();
    }
    Ok(Cli {
        opts: driver::Options {
            workloads,
            seed,
            budget,
            trace,
            quick,
        },
        child,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf_bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = cli.child {
        let o = &cli.opts;
        let spec = o.spec(w);
        let budget = o.budget.unwrap_or(Budget::Iters(driver::ITERS_PER_CHILD));
        let rep = if o.trace {
            trace::run(&spec, o.seed, budget, o.quick)
        } else {
            child::run(&spec, o.seed, budget, o.quick)
        };
        print!("{}", rep.to_lines());
        return ExitCode::SUCCESS;
    }
    // `--quick` prints every metric name: both modes, one after the other.
    let modes: &[bool] = if cli.opts.quick {
        &[false, true]
    } else {
        std::slice::from_ref(&cli.opts.trace)
    };
    for &trace in modes {
        let opts = driver::Options {
            trace,
            ..cli.opts.clone()
        };
        if let Err(e) = driver::run(&opts) {
            eprintln!("perf_bench: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
