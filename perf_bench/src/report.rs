//! What a child process measured, and the line format it travels in.
//!
//! The container has no JSON parser, so a child prints one line per
//! series (`sample <name> <v>...`, `value <name> <v>`, `ops <attempted>
//! <failed>`, `note <text>`) and the parent merges the lines of all its
//! children. Floats travel as their shortest round-trip decimal, so
//! nothing is lost on the way.

use std::collections::BTreeMap;

/// Samples (one per timed iteration), scalars (one per child) and the
/// operation tally of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    pub samples: BTreeMap<String, Vec<f64>>,
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few, for the human reading the log).
    pub notes: Vec<String>,
}

impl Report {
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn value(&mut self, name: &str, v: f64) {
        self.values.entry(name.to_string()).or_default().push(v);
    }

    /// Tally `attempted` operations of which `failed` failed for `why`.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 8 {
            self.notes.push(format!("{failed} failed: {why}"));
        }
    }

    /// Samples of `name` (empty when the series is missing).
    pub fn series(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Scalars of `name`, one per child.
    pub fn scalars(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Append another child's report, keeping time order.
    pub fn merge(&mut self, other: Report) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.values {
            self.values.entry(k).or_default().extend(v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let join = |vs: &[f64]| {
            vs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        for (k, v) in &self.samples {
            out.push_str(&format!("sample {k} {}\n", join(v)));
        }
        for (k, v) in &self.values {
            out.push_str(&format!("value {k} {}\n", join(v)));
        }
        out.push_str(&format!("ops {} {}\n", self.attempted, self.failed));
        for n in &self.notes {
            out.push_str(&format!("note {}\n", n.replace('\n', " ")));
        }
        out
    }

    /// Parse what [`Report::to_lines`] wrote. Lines of other shapes (a
    /// library's own prints) are skipped; a report without its `ops` line
    /// is a child that died early.
    pub fn from_lines(text: &str) -> Result<Report, String> {
        let mut rep = Report::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let mut words = line.split(' ');
            let floats = |w: std::str::Split<'_, char>| -> Result<Vec<f64>, String> {
                w.map(|s| s.parse::<f64>().map_err(|e| format!("{line:?}: {e}")))
                    .collect()
            };
            match words.next() {
                Some("sample") => {
                    let name = words.next().ok_or("sample without a name")?.to_string();
                    rep.samples.entry(name).or_default().extend(floats(words)?);
                }
                Some("value") => {
                    let name = words.next().ok_or("value without a name")?.to_string();
                    rep.values.entry(name).or_default().extend(floats(words)?);
                }
                Some("ops") => {
                    let nums = floats(words)?;
                    let [a, f] = nums[..] else {
                        return Err(format!("{line:?}: want two counts"));
                    };
                    rep.attempted += a as u64;
                    rep.failed += f as u64;
                    saw_ops = true;
                }
                Some("note") => rep.notes.push(words.collect::<Vec<_>>().join(" ")),
                _ => {}
            }
        }
        if saw_ops {
            Ok(rep)
        } else {
            Err("no `ops` line: the child did not finish".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_every_digit() {
        let mut r = Report::default();
        for v in [0.1 + 0.2, 1e-9, 123_456_789.123_456_79, 3.0] {
            r.sample("host_iter_s", v);
        }
        r.value("peak_rss_mb", 412.0078125);
        r.ops(10, 1, "read-back differs");
        let back = Report::from_lines(&r.to_lines()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn merge_appends_in_order_and_sums_ops() {
        let mut a = Report::default();
        a.sample("x", 1.0);
        a.value("v", 10.0);
        a.ops(3, 0, "");
        let mut b = Report::default();
        b.sample("x", 2.0);
        b.value("v", 20.0);
        b.ops(4, 2, "boom");
        a.merge(b);
        assert_eq!(a.series("x"), [1.0, 2.0]);
        assert_eq!(a.scalars("v"), [10.0, 20.0]);
        assert_eq!((a.attempted, a.failed), (7, 2));
        assert_eq!(a.notes.len(), 1);
    }

    #[test]
    fn a_truncated_report_is_an_error() {
        assert!(Report::from_lines("sample x 1 2\n").is_err());
        assert!(Report::from_lines("pnetcdf: some library print\nops 1 0\n").is_ok());
    }
}
