//! The parent process: spawns one child per workload per pass, merges
//! their samples, turns them into the named metrics, prints them, writes
//! `out/<workload>.json` and ends with the one-line JSON result.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use hpc_sim::trace::Json;

use crate::child::Budget;
use crate::metrics::{Better, Estimator, END_TO_END, PER_LAYER};
use crate::report::Report;
use crate::stats::{self, Summary};
use crate::workload::{self, Spec, Workload};

/// What one invocation of the benchmark was asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// `--iters` or `--seconds`: per workload, over all its passes.
    pub budget: Option<Budget>,
    pub trace: bool,
    pub quick: bool,
}

/// Round-robin passes over the workloads, one child process per workload
/// in each; a workload's samples then span the whole run instead of one
/// window.
pub const PASSES: u64 = 4;

/// Timed iterations per child when the command line gives no budget: 4
/// passes x 15 = 60 samples per workload, so p90 has 6 samples beyond it.
pub const ITERS_PER_CHILD: u64 = 15;

impl Options {
    /// The sizes `w` runs at.
    pub fn spec(&self, w: Workload) -> Spec {
        if self.quick {
            Spec::quick(w)
        } else {
            Spec::full(w)
        }
    }

    /// A traced run is one child per workload (its replays are compared
    /// with each other inside one process), and so is the smoke run.
    fn passes(&self) -> u64 {
        if self.trace || self.quick {
            1
        } else {
            PASSES
        }
    }

    /// What each child of a workload measures.
    fn per_child(&self) -> Budget {
        let passes = self.passes();
        match self.budget {
            _ if self.quick => Budget::Iters(3),
            None => Budget::Iters(ITERS_PER_CHILD),
            Some(Budget::Iters(n)) => Budget::Iters(n.div_ceil(passes)),
            Some(Budget::Seconds(s)) => Budget::Seconds(s / passes as f64),
        }
    }
}

/// A metric as printed: the value and, where it was taken from samples,
/// their spread.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End to end: the share by which the value may worsen.
    pub bound: Option<f64>,
    pub value: f64,
    pub spread: Option<Summary>,
}

/// Where results land: beside the sources, whatever the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One line of JSON (the library's printer indents).
pub fn compact(j: &Json) -> String {
    match j {
        Json::Arr(items) => {
            let parts: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", parts.join(", "))
        }
        Json::Obj(entries) => {
            let parts: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::from(k.as_str())), compact(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        // Scalars never span lines; reuse the library's escaping and
        // number formatting.
        scalar => scalar.pretty().trim_end().to_string(),
    }
}

/// Spawn one child with its own `budget` and parse what it printed. The
/// child's stderr is ours.
fn spawn_child(
    w: Workload,
    opts: &Options,
    budget: Budget,
    trace: bool,
    pass: u64,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &opts.seed.to_string()]);
    match budget {
        Budget::Iters(n) => cmd.args(["--iters", &n.to_string()]),
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
    };
    if trace {
        cmd.args(["--trace", "1"]);
    }
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end, so no process outlives us.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {} pass {pass}: {}", w.name(), out.status));
    }
    Report::from_lines(&String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("child {} pass {pass}: {e}", w.name()))
}

/// `true` when every sample of the series is the same bit pattern (and
/// there is one): what a deterministic count or virtual time must be.
fn identical(series: &[f64]) -> bool {
    series
        .first()
        .is_some_and(|f| series.iter().all(|v| v.to_bits() == f.to_bits()))
}

/// Turn the merged untraced samples into the end-to-end metrics. Also
/// tallies the determinism checks as operations.
fn end_to_end(spec: &Spec, rep: &mut Report) -> Vec<Measured> {
    let (wbytes, rbytes) = workload::payload_bytes(spec);
    for name in ["sim_write_ns", "sim_read_ns"] {
        let same = identical(rep.series(name));
        rep.ops(
            1,
            u64::from(!same),
            &format!("{name} differs between samples"),
        );
    }
    let rate = |bytes: u64, secs: &[f64]| -> Vec<f64> {
        secs.iter().map(|s| bytes as f64 / s / 1e6).collect()
    };
    let series = |name: &str| -> Vec<f64> {
        match name {
            "sim_write_mb_s" => rate(wbytes, &scale(rep.series("sim_write_ns"), 1e-9)),
            "sim_read_mb_s" => rate(rbytes, &scale(rep.series("sim_read_ns"), 1e-9)),
            "host_write_mb_s" => rate(wbytes, rep.series("host_write_s")),
            "host_read_mb_s" => rate(rbytes, rep.series("host_read_s")),
            "alloc_bytes_per_byte" => {
                scale(rep.series("alloc_bytes"), 1.0 / (wbytes + rbytes) as f64)
            }
            "peak_heap_mb" => scale(rep.series("peak_heap_bytes"), 1.0 / (1 << 20) as f64),
            other => rep.series(other).to_vec(),
        }
    };
    END_TO_END
        .iter()
        .map(|m| {
            let spread = stats::summarize(&series(m.name));
            let value = spread.map_or(f64::NAN, |s| match (m.value, m.better) {
                (Estimator::FastQuartile, Better::Lower) => s.q1,
                (Estimator::FastQuartile, Better::Higher) => s.q3,
                (Estimator::Median, _) => s.median,
            });
            Measured {
                name: m.name,
                unit: m.unit,
                better: m.better,
                bound: Some(m.bound),
                value,
                spread,
            }
        })
        .collect()
}

fn scale(v: &[f64], k: f64) -> Vec<f64> {
    v.iter().map(|x| x * k).collect()
}

/// The traced child computes its metrics itself (they are differences of
/// its own replays); the parent only looks them up by name.
fn per_layer(rep: &Report) -> Vec<Measured> {
    PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            better: m.better,
            bound: None,
            value: rep.scalars(m.name).first().copied().unwrap_or(f64::NAN),
            spread: stats::summarize(rep.series(m.name)),
        })
        .collect()
}

fn print_table(w: Workload, rep: &Report, metrics: &[Measured]) {
    println!("\n== {} ({})", w.name(), w.why());
    println!(
        "{:<34} {:>16} {:<6} {:>5} {:>14} {:>14} {:>14} {:>14}",
        "metric", "value", "unit", "n", "q1", "median", "q3", "p90"
    );
    for m in metrics {
        match &m.spread {
            Some(s) if s.n > 1 => println!(
                "{:<34} {:>16.6} {:<6} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>14.6}",
                m.name, m.value, m.unit, s.n, s.q1, s.median, s.q3, s.p90
            ),
            _ => println!("{:<34} {:>16.6} {:<6}", m.name, m.value, m.unit),
        }
    }
    println!("ops_attempted {}  ops_failed {}", rep.attempted, rep.failed);
    for n in &rep.notes {
        println!("  ! {n}");
    }
}

fn result_json(w: Workload, opts: &Options, rep: &Report, metrics: &[Measured]) -> Json {
    let mut ms = Json::obj();
    for m in metrics {
        let mut row = Json::obj()
            .with("value", m.value)
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        if let Some(b) = m.bound {
            row.set("bound", b);
        }
        if let Some(s) = m.spread.filter(|s| s.n > 1) {
            row.set("n", s.n);
            row.set("q1", s.q1);
            row.set("median", s.median);
            row.set("q3", s.q3);
            row.set("p90", s.p90);
        }
        ms.set(m.name, row);
    }
    let (wbytes, rbytes) = workload::payload_bytes(&opts.spec(w));
    Json::obj()
        .with("workload", w.name())
        .with("why", w.why())
        .with("seed", opts.seed)
        .with("traced", opts.trace)
        .with("passes", opts.passes())
        .with("ranks", w.ranks())
        .with(
            "host_threads",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("payload_bytes_written", wbytes)
        .with("payload_bytes_read", rbytes)
        .with("input_gen_s", stats::median(rep.scalars("input_gen_s")))
        .with("ops_attempted", rep.attempted)
        .with("ops_failed", rep.failed)
        .with("notes", rep.notes.clone())
        .with(
            "host.memcpy_gb_s",
            stats::median(rep.series("host.memcpy_gb_s")),
        )
        .with("metrics", ms)
}

/// The contract's last line: `correct`, `attempted`, `failed`, `metrics`.
fn last_line(rep: &Report, metrics: &[Measured], correct: bool) -> String {
    let mut ms = Json::obj();
    for m in metrics {
        ms.set(
            m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    compact(
        &Json::obj()
            .with("correct", correct)
            .with("attempted", rep.attempted.max(1))
            .with("failed", rep.failed)
            .with("metrics", ms),
    )
}

/// Run the benchmark; `Err` carries what went wrong (exit code 1).
pub fn run(opts: &Options) -> Result<(), String> {
    let mut merged: Vec<Report> = opts.workloads.iter().map(|_| Report::default()).collect();
    let passes = opts.passes();
    let per_child = opts.per_child();
    for pass in 0..passes {
        for (w, rep) in opts.workloads.iter().zip(&mut merged) {
            eprintln!("perf_bench: pass {}/{passes} {}", pass + 1, w.name());
            rep.merge(spawn_child(*w, opts, per_child, opts.trace, pass)?);
            if opts.trace && !opts.quick {
                // Peak RSS of a process that only runs the workload: the
                // traced child also holds the replays' file images.
                let r = spawn_child(*w, opts, Budget::Iters(5), false, pass)?;
                rep.ops(r.attempted, r.failed, "untraced companion child failed");
                rep.values
                    .insert("host.peak_rss_mb".into(), r.scalars("peak_rss_mb").to_vec());
            }
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;

    let mut problems = Vec::new();
    let mut lines = Vec::new();
    for (w, mut rep) in opts.workloads.iter().zip(merged) {
        let metrics = if opts.trace {
            per_layer(&rep)
        } else {
            end_to_end(&opts.spec(*w), &mut rep)
        };
        print_table(*w, &rep, &metrics);
        let missing: Vec<&str> = metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        if !missing.is_empty() {
            problems.push(format!("{}: no value for {missing:?}", w.name()));
        }
        if rep.failed > 0 {
            problems.push(format!("{}: {} operations failed", w.name(), rep.failed));
        }
        let drift = drift_pct(rep.series("host.memcpy_gb_s"));
        if drift > 25.0 {
            println!(
                "  ! host.memcpy_drift_pct {drift:.1} > 25: the machine changed speed during \
                 this run; read the host_* rows with that in mind"
            );
        }
        let suffix = if opts.trace { ".trace" } else { "" };
        let path = out_dir().join(format!("{}{suffix}.json", w.name()));
        let json = result_json(*w, opts, &rep, &metrics).with("host.memcpy_drift_pct", drift);
        std::fs::write(&path, json.pretty()).map_err(|e| format!("write {path:?}: {e}"))?;
        lines.push(last_line(
            &rep,
            &metrics,
            rep.failed == 0 && missing.is_empty(),
        ));
    }
    // The result lines go last, after every table; a wrong result is
    // printed (`"correct": false`) and then fails the run.
    for l in lines {
        println!("{l}");
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Spread of the drift probe over the run: its time-ordered samples are
/// cut into four consecutive quarters and the quarters' medians compared,
/// `(max - min) / median` in percent. Zero with fewer than 12 samples (a
/// quarter of fewer than three says nothing).
pub fn drift_pct(samples: &[f64]) -> f64 {
    if samples.len() < 12 {
        return 0.0;
    }
    let q = samples.len() / 4;
    let meds: Vec<f64> = (0..4)
        .map(|i| {
            let end = if i == 3 { samples.len() } else { (i + 1) * q };
            stats::median(&samples[i * q..end])
        })
        .collect();
    let (lo, hi) = meds
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
    (hi - lo) / stats::median(&meds) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_is_one_line_and_valid() {
        let j = Json::obj()
            .with("correct", true)
            .with("attempted", 12u64)
            .with(
                "metrics",
                Json::obj().with("a.b", Json::obj().with("value", 0.25).with("unit", "1/s")),
            )
            .with("list", vec![1u64, 2]);
        assert_eq!(
            compact(&j),
            r#"{"correct": true, "attempted": 12, "metrics": {"a.b": {"value": 0.25, "unit": "1/s"}}, "list": [1, 2]}"#
        );
    }

    #[test]
    fn drift_compares_quarter_medians() {
        assert_eq!(drift_pct(&[5.0; 11]), 0.0);
        assert_eq!(drift_pct(&[5.0; 40]), 0.0);
        let mut v = vec![10.0; 30];
        v.extend([5.0; 10]); // the last quarter ran at half speed
        assert!((drift_pct(&v) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn identical_wants_every_bit_equal() {
        assert!(identical(&[1.5, 1.5, 1.5]));
        assert!(!identical(&[1.5, 1.5000000000000002]));
        assert!(!identical(&[]));
    }
}
