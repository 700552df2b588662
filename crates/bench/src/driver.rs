//! `repro list | run <name>… [--quick] | check [--quick]`: the only code of
//! this crate that prints, writes files or reads the goldens.

use std::path::PathBuf;
use std::process::ExitCode;

use hpc_sim::trace::Json;

use crate::{report, Experiment, Outcome, Size, EXPERIMENTS};

/// The experiment called `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// `golden/<size>/<name>.json` of this crate.
pub fn golden_path(name: &str, size: Size) -> PathBuf {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");
    PathBuf::from(dir)
        .join(size.name())
        .join(format!("{name}.json"))
}

/// The charts of one run as one document; with `nulled`, in the form of the
/// goldens (see [`Chart::to_json`](crate::table::Chart::to_json)).
pub fn document(e: &Experiment, out: &Outcome, nulled: bool) -> Json {
    let charts = out.charts.iter().map(|c| c.to_json(nulled));
    Json::obj()
        .with("experiment", e.name)
        .with("claim", e.claim)
        .with("charts", Json::Arr(charts.collect()))
}

/// Where `out` differs from the golden of `e` at `size`; empty when every
/// pinned cell, label and line is the recorded one.
pub fn compare(e: &Experiment, size: Size, out: &Outcome) -> Vec<String> {
    let (path, got) = (golden_path(e.name, size), document(e, out, true).pretty());
    let difference = match std::fs::read_to_string(&path) {
        Ok(golden) => first_difference(&golden, &got),
        Err(err) => Some(format!("golden {}: {err}", path.display())),
    };
    difference
        .map(|d| format!("{}: {d}", e.name))
        .into_iter()
        .collect()
}

/// A golden is what [`document`] printed — one value per line, a cell's x as
/// its key — so documents are compared line by line, and a difference is
/// named by the chart title and the series name printed above it.
fn first_difference(golden: &str, run: &str) -> Option<String> {
    let lines = |text| str::lines(text).map(|l| l.trim().trim_end_matches(','));
    let (want, got): (Vec<&str>, Vec<&str>) = (lines(golden).collect(), lines(run).collect());
    let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
    // The series name only if the line is not one of those below the table.
    let above = |key: &str| {
        let before = &got[..at.min(got.len())];
        before.iter().rposition(|l| l.starts_with(key))
    };
    let context = [
        above("\"title\":"),
        above("\"name\":").max(above("\"below\":")),
    ];
    let context: Vec<&str> = context.into_iter().flatten().map(|i| got[i]).collect();
    Some(format!(
        "{} line {}: golden {}, this run {}",
        context.join(" "),
        at + 1,
        want.get(at).unwrap_or(&"<end of file>"),
        got.get(at).unwrap_or(&"<end of document>"),
    ))
}

/// Run `e`, print its charts if `show`, and write everything it produced:
/// `<name>.json` with every value, `<name>.<kind>.json` per artifact, and
/// `golden/<size>/<name>.json` in the form of the goldens, so that a changed
/// model is re-recorded by copying that directory over this crate's.
fn run_one(e: &Experiment, size: Size, show: bool) -> Outcome {
    let started = std::time::Instant::now();
    let out = (e.run)(size);
    if show {
        out.charts.iter().for_each(|c| print!("{}", c.render()));
    }
    let (full, nulled) = (document(e, &out, false), document(e, &out, true));
    let mut files = vec![(format!("{}.json", e.name), &full)];
    let artifacts = out.artifacts.iter();
    files.extend(artifacts.map(|(kind, doc)| (format!("{}.{kind}.json", e.name), doc)));
    files.push((format!("golden/{}/{}.json", size.name(), e.name), &nulled));
    let written: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    files
        .iter()
        .for_each(|(name, doc)| drop(report::write(name, doc)));
    eprintln!(
        "  {} ({}): {:.1} s; wrote {} in {}",
        e.name,
        size.name(),
        started.elapsed().as_secs_f64(),
        written.join(", "),
        report::dir()
            .canonicalize()
            .expect("just written to")
            .display()
    );
    out
}

/// The `repro` binary.
pub fn main(args: &[String]) -> ExitCode {
    let (flags, words): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with('-'));
    let size = match flags[..] {
        [] => Size::Paper,
        ["--quick"] => Size::Quick,
        _ => return usage(),
    };
    match words[..] {
        ["list"] if flags.is_empty() => {
            for e in &EXPERIMENTS {
                println!("{:<26}{}", e.name, e.claim);
            }
            ExitCode::SUCCESS
        }
        ["run", ref names @ ..] if !names.is_empty() => {
            if let Some(unknown) = names.iter().find(|n| experiment(n).is_none()) {
                eprintln!("repro: no experiment {unknown:?}; `repro list` names them");
                return ExitCode::FAILURE;
            }
            for name in names {
                run_one(experiment(name).expect("checked above"), size, true);
            }
            ExitCode::SUCCESS
        }
        ["check"] => {
            let check = |e| compare(e, size, &run_one(e, size, false));
            let diffs: Vec<String> = EXPERIMENTS.iter().flat_map(check).collect();
            for d in &diffs {
                eprintln!("MISMATCH {d}");
            }
            let (n, size) = (EXPERIMENTS.len(), size.name());
            match diffs.len() {
                0 => println!(
                    "repro check ({size}): {n} experiments, every pinned cell is the recorded one"
                ),
                bad => eprintln!(
                    "repro check ({size}): {bad} of {n} experiments differ from their goldens"
                ),
            }
            ExitCode::from(u8::from(!diffs.is_empty()))
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: repro list | run <name>... [--quick] | check [--quick]");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Chart, Pin};

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            let twin = EXPERIMENTS[..i].iter().any(|other| other.name == e.name);
            assert!(!twin, "two experiments are called {}", e.name);
            assert!(std::ptr::eq(experiment(e.name).expect("found by name"), e));
        }
        assert!(experiment("fig8").is_none());
    }

    /// Every golden file has a row, and every row a golden at both sizes
    /// (every experiment has at least one pinned series).
    #[test]
    fn goldens_and_registry_rows_correspond() {
        for size in [Size::Quick, Size::Paper] {
            let dir = golden_path("x", size);
            let dir = dir.parent().expect("golden/<size>/");
            let files = std::fs::read_dir(dir).expect("the golden directory");
            let mut stems: Vec<String> = files
                .map(|f| f.expect("a directory entry").path())
                .map(|p| {
                    p.file_stem()
                        .and_then(|s| s.to_str())
                        .expect("UTF-8")
                        .to_string()
                })
                .collect();
            stems.sort();
            let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            names.sort();
            assert_eq!(stems, names, "{}", dir.display());
        }
    }

    #[test]
    fn a_difference_is_named_by_chart_series_and_x() {
        let chart = |z4: f64, ratio: f64| {
            Chart::new("Write 64 MB", "partition", &["serial", "4"], "MB/s")
                .series("Z", Pin::Collective, vec![110.0, z4])
                .series("HDF5", Pin::Hdf5, vec![1.0, 2.0])
                .line(Pin::Collective, vec![crate::table::Part::Num(ratio, 2)])
                .to_json(true)
                .pretty()
        };
        assert_eq!(
            first_difference(&chart(281.25, 1.5), &chart(281.25, 1.5)),
            None
        );
        let cell = first_difference(&chart(281.25, 1.5), &chart(278.5, 1.5)).expect("differs");
        for part in ["Write 64 MB", "\"Z\"", "\"4\": 281.25", "\"4\": 278.5"] {
            assert!(cell.contains(part), "{cell:?} does not name {part}");
        }
        // A line below the table is named by the chart, not by the last series.
        let line = first_difference(&chart(281.25, 1.5), &chart(281.25, 1.75)).expect("differs");
        assert!(
            line.contains("Write 64 MB") && !line.contains("HDF5"),
            "{line:?}"
        );
        assert!(line.contains("1.5") && line.contains("1.75"), "{line:?}");
        let short = first_difference(&chart(281.25, 1.5), "{").expect("differs");
        assert!(short.contains("<end of document>"), "{short:?}");
    }
}
