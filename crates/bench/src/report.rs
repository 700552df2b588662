//! Where everything the driver writes goes: one directory, one writer.

use std::path::PathBuf;

use hpc_sim::trace::Json;

/// The report directory: `$PNETCDF_REPORT_DIR` if set, else `target/repro/`
/// of this workspace.
pub fn dir() -> PathBuf {
    match std::env::var_os("PNETCDF_REPORT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/repro")),
    }
}

/// Write `json` to `name` (a path relative to [`dir`]) and return where it
/// went. Tables go to stdout; files are named by the driver on stderr.
pub fn write(name: &str, json: &Json) -> PathBuf {
    let path = dir().join(name);
    let parent = path.parent().expect("a file below the report directory");
    std::fs::create_dir_all(parent)
        .and_then(|()| std::fs::write(&path, json.pretty()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

/// Assert that the critical rank's attributed phase time explains the
/// reported makespan to within `tol` (0.05 = 5%). Every simulated clock
/// advance is charged to exactly one phase, so real coverage should be
/// 1.0; a miss means an attribution hole in some layer.
pub fn check_coverage(report: &Json, tol: f64) {
    let coverage = report
        .get("coverage")
        .and_then(Json::as_f64)
        .expect("report has a coverage field");
    assert!(
        (coverage - 1.0).abs() <= tol,
        "phase attribution covers {:.2}% of the makespan (tolerance {:.0}%)",
        coverage * 100.0,
        tol * 100.0
    );
}
