//! What an experiment returns: charts as data.
//!
//! An experiment never prints. It returns [`Chart`]s — the comment lines
//! above a table, the table itself (rows = series, columns = x values) and
//! the lines below it whose numbers are computed from the rows — and the
//! driver renders them in the layout of the paper's charts, writes them as
//! JSON and compares them with the recorded goldens.

use hpc_sim::trace::Json;

/// Why a series does or does not repeat to the last bit from run to run on
/// today's engine. Only [pinned](Pin::pinned) values are compared with the
/// goldens; the others are printed and written, and `null` in a golden.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pin {
    /// Collective I/O: the rendezvous' finisher makes every server call, in
    /// rank order. (The serial column of Figure 6 rides in the same rows:
    /// the serial library on a world of its own.)
    Collective,
    /// Worlds of one rank: one thread at a time issues requests — alone, or
    /// ordered by virtual time by the service driver's `StepGate`.
    OneRank,
    /// Every rank issues the same request at the same virtual arrival: any
    /// service order ends at the same time.
    Symmetric,
    /// Text that holds no measured number.
    Fixed,
    /// Unpinned: HDF5-sim's ranks write object headers independently, so
    /// server call order is host thread order (ROADMAP item 1).
    Hdf5,
    /// Unpinned: multi-rank independent I/O; server call order is host
    /// thread order (ROADMAP item 1).
    Independent,
    /// Unpinned: the serial library through `PosixSim` beside other ranks'
    /// traffic; server call order is host thread order (ROADMAP item 1).
    PosixBeside,
}

impl Pin {
    pub fn pinned(self) -> bool {
        !matches!(self, Pin::Hdf5 | Pin::Independent | Pin::PosixBeside)
    }
}

/// One row of a chart.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    pub name: String,
    pub values: Vec<f64>,
    pub pin: Pin,
    /// `false` for a row the JSON carries and the table does not print
    /// (round counts, hidden nanoseconds, per-session clocks).
    pub printed: bool,
}

/// A piece of a line under a chart.
#[derive(Clone, Debug, PartialEq)]
pub enum Part {
    Text(String),
    /// A number and the decimals it prints with.
    Num(f64, usize),
    /// `[a, b, c]` with the given decimals.
    List(Vec<f64>, usize),
}

impl From<&str> for Part {
    fn from(s: &str) -> Part {
        Part::Text(s.to_string())
    }
}

/// A line printed under a chart: commentary, or numbers derived from the
/// chart's series (`speedup`, `misalignment loss`, ...).
#[derive(Clone, Debug, PartialEq)]
pub struct Line {
    pub parts: Vec<Part>,
    pub pin: Pin,
}

/// One chart of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Chart {
    /// Comment lines printed above the table.
    pub above: Vec<String>,
    pub title: String,
    pub xlabel: String,
    pub xs: Vec<String>,
    pub unit: String,
    /// The table is printed when some series is.
    pub series: Vec<Series>,
    pub below: Vec<Line>,
}

impl Chart {
    pub fn new<X: ToString>(title: &str, xlabel: &str, xs: &[X], unit: &str) -> Chart {
        Chart {
            above: Vec::new(),
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            xs: xs.iter().map(X::to_string).collect(),
            unit: unit.to_string(),
            series: Vec::new(),
            below: Vec::new(),
        }
    }

    pub fn above(mut self, lines: &[&str]) -> Chart {
        self.above.extend(lines.iter().map(|l| l.to_string()));
        self
    }

    pub fn series(mut self, name: &str, pin: Pin, values: Vec<f64>) -> Chart {
        self.series.push(Series {
            name: name.to_string(),
            values,
            pin,
            printed: true,
        });
        self
    }

    /// A series of one cell per x.
    pub fn sweep<X>(self, name: &str, pin: Pin, xs: &[X], cell: impl FnMut(&X) -> f64) -> Chart {
        self.series(name, pin, xs.iter().map(cell).collect())
    }

    /// A series written to the JSON only.
    pub fn hidden(mut self, name: &str, pin: Pin, values: Vec<f64>) -> Chart {
        self = self.series(name, pin, values);
        self.series.last_mut().expect("just pushed").printed = false;
        self
    }

    pub fn line(mut self, pin: Pin, parts: Vec<Part>) -> Chart {
        self.below.push(Line { parts, pin });
        self
    }

    /// Lines of commentary, one per line of `text` (`""` is a blank line).
    pub fn note(mut self, text: &str) -> Chart {
        for l in text.split('\n') {
            self = self.line(Pin::Fixed, vec![l.into()]);
        }
        self
    }

    /// `f(a, b)` over the cells of the series called `a` and `b`: the
    /// numbers of the derived lines.
    pub fn zip(&self, a: &str, b: &str, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let values = |name| match self.series.iter().find(|s| s.name == name) {
            Some(s) => s.values.iter(),
            None => panic!("chart {:?} has no series {name:?}", self.title),
        };
        values(a).zip(values(b)).map(|(&a, &b)| f(a, b)).collect()
    }

    /// The chart as text: rows = series, columns = x values, `-` for a cell
    /// that has no value.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for l in &self.above {
            let _ = writeln!(out, "{l}");
        }
        if self.series.iter().any(|s| s.printed) {
            let head = (&self.title, &self.unit, &self.xlabel);
            let _ = write!(out, "\n## {}  ({})\n{:<14}", head.0, head.1, head.2);
            for x in &self.xs {
                let _ = write!(out, "{x:>10}");
            }
            out.push('\n');
        }
        for s in self.series.iter().filter(|s| s.printed) {
            let _ = write!(out, "{:<14}", s.name);
            for v in &s.values {
                let _ = match v.is_nan() {
                    true => write!(out, "{:>10}", "-"),
                    false => write!(out, "{v:>10.1}"),
                };
            }
            out.push('\n');
        }
        for l in &self.below {
            for p in &l.parts {
                let _ = match p {
                    Part::Text(t) => write!(out, "{t}"),
                    Part::Num(v, d) => write!(out, "{v:.d$}"),
                    Part::List(vs, d) => write!(out, "{vs:.d$?}"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// The chart as JSON, every `f64` in full, a series' values keyed by x.
    /// With `nulled`, the values of unpinned series and lines are `null`:
    /// the form the goldens have.
    pub fn to_json(&self, nulled: bool) -> Json {
        let num = |v: f64, pin: Pin| match v.is_finite() && (pin.pinned() || !nulled) {
            true => Json::Num(v),
            false => Json::Null,
        };
        let pinned = |pin: Pin| {
            Json::obj()
                .with("pin", format!("{pin:?}"))
                .with("pinned", pin.pinned())
        };
        let series = self.series.iter().map(|s| {
            let cells = self.xs.iter().zip(&s.values);
            let cells = cells.map(|(x, &v)| (x.clone(), num(v, s.pin)));
            pinned(s.pin)
                .with("name", s.name.as_str())
                .with("printed", s.printed)
                .with("values", Json::Obj(cells.collect()))
        });
        let below = self.below.iter().map(|l| {
            let parts = l.parts.iter().map(|p| match p {
                Part::Text(t) => Json::from(t.as_str()),
                Part::Num(v, d) => Json::obj().with("num", num(*v, l.pin)).with("decimals", *d),
                Part::List(vs, d) => Json::obj()
                    .with(
                        "list",
                        Json::Arr(vs.iter().map(|&v| num(v, l.pin)).collect()),
                    )
                    .with("decimals", *d),
            });
            pinned(l.pin).with("parts", Json::Arr(parts.collect()))
        });
        Json::obj()
            .with("above", self.above.clone())
            .with("title", self.title.as_str())
            .with("xlabel", self.xlabel.as_str())
            .with("xs", self.xs.clone())
            .with("unit", self.unit.as_str())
            .with("series", Json::Arr(series.collect()))
            .with("below", Json::Arr(below.collect()))
    }
}

/// Format bytes as a human-readable size.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(64 << 20), "64.0 MiB");
        assert_eq!(fmt_bytes(1 << 30), "1.0 GiB");
    }

    fn sample() -> Chart {
        Chart::new("Write 64 MB", "partition", &["serial", "2", "4"], "MB/s")
            .above(&["# Figure"])
            .series("Z", Pin::Collective, vec![110.04, 102.06, f64::NAN])
            .sweep("HDF5", Pin::Hdf5, &[1.25, 2.0, 3.0], |&v| v)
            .hidden("rounds", Pin::Collective, vec![7.0, 3.0, 1.0])
            .note("")
            .line(
                Pin::Hdf5,
                vec!["ratio: ".into(), Part::List(vec![88.032, 51.03], 2)],
            )
            .line(
                Pin::Collective,
                vec!["at 4: ".into(), Part::Num(1.4349, 2), "x".into()],
            )
            .note("(a note)")
    }

    #[test]
    fn renders_the_layout_of_the_paper_charts() {
        let want = "# Figure\n\n## Write 64 MB  (MB/s)\n\
                    partition         serial         2         4\n\
                    Z                  110.0     102.1         -\n\
                    HDF5                 1.2       2.0       3.0\n\
                    \nratio: [88.03, 51.03]\nat 4: 1.43x\n(a note)\n";
        assert_eq!(sample().render(), want);
        // No printed series: no table.
        let bare = Chart::new("", "session", &[0, 1], "")
            .above(&["# only"])
            .hidden("end ns", Pin::OneRank, vec![5.0, 6.0])
            .note("text");
        assert_eq!(bare.render(), "# only\ntext\n");
    }

    #[test]
    fn nulling_blanks_unpinned_values_and_nothing_else() {
        let (full, nulled) = (sample().to_json(false), sample().to_json(true));
        let row = |j: &Json, key: &str, i: usize| match j.get(key) {
            Some(Json::Arr(rows)) => rows[i].clone(),
            other => panic!("{key}: {other:?}"),
        };
        // Pinned rows and lines are the same bits either way; a cell without
        // a value is null in both.
        for i in [0, 2] {
            assert_eq!(row(&full, "series", i), row(&nulled, "series", i));
        }
        assert_eq!(row(&full, "below", 2), row(&nulled, "below", 2));
        let keyed = |cells: [(&str, Json); 3]| {
            let cells = cells.map(|(x, v)| (x.to_string(), v));
            Some(Json::Obj(cells.into_iter().collect()))
        };
        let z = row(&nulled, "series", 0).get("values").cloned();
        let z_cells = [
            ("serial", Json::Num(110.04)),
            ("2", Json::Num(102.06)),
            ("4", Json::Null),
        ];
        assert_eq!(z, keyed(z_cells));
        // Unpinned: printed values in the full form, null in the golden form.
        let hdf5 = |j: &Json| row(j, "series", 1).get("values").cloned();
        let hdf5_cells = [("serial", 1.25), ("2", 2.0), ("4", 3.0)];
        assert_eq!(hdf5(&full), keyed(hdf5_cells.map(|(x, v)| (x, v.into()))));
        assert_eq!(
            hdf5(&nulled),
            keyed(hdf5_cells.map(|(x, _)| (x, Json::Null)))
        );
        let ratio = row(&nulled, "below", 1).pretty();
        assert!(
            ratio.contains("null") && !ratio.contains("88.03"),
            "{ratio}"
        );
        // Names, labels and text survive nulling.
        for key in ["above", "title", "xlabel", "xs", "unit"] {
            assert_eq!(full.get(key), nulled.get(key));
        }
    }
}
