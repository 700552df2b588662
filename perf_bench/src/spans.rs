//! Benchmark-side spans: name, start, end, parent, iteration id. They wrap
//! the calls into each layer from outside (spans inside the program are a
//! later change), are kept in memory while the benchmark runs and written
//! to `out/<workload>.spans.json` when it ends.

use std::time::Instant;

use hpc_sim::trace::Json;

use crate::workload::RankTimes;

pub struct Span {
    pub name: String,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Round of the traced run the span belongs to.
    pub iter: u64,
    pub rank: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span and return its index, for children to name.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        iter: u64,
        rank: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            iter,
            rank,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// One replay of one round: a span for the whole replay, under it each
    /// rank's write and read phases, under those the rank's calls.
    pub fn add_replay(
        &mut self,
        layer: &str,
        iter: u64,
        whole: (Instant, Instant),
        ranks: &[RankTimes],
    ) {
        let top = self.add(layer, None, iter, None, whole);
        for (rank, r) in ranks.iter().enumerate() {
            let rank = Some(rank);
            self.add(
                &format!("{layer}.setup"),
                Some(top),
                iter,
                rank,
                (whole.0, r.setup_end),
            );
            let w = self.add(&format!("{layer}.write"), Some(top), iter, rank, r.write);
            let rd = self.add(&format!("{layer}.read"), Some(top), iter, rank, r.read);
            for &(name, start, end) in &r.marks {
                let parent = if end <= r.write.1 { w } else { rd };
                self.add(
                    &format!("{layer}.{name}"),
                    Some(parent),
                    iter,
                    rank,
                    (start, end),
                );
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
                Json::obj()
                    .with("id", id)
                    .with("name", s.name.as_str())
                    .with("parent", opt(s.parent))
                    .with("iter", s.iter)
                    .with("rank", opt(s.rank))
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
            })
            .collect();
        Json::obj()
            .with("clock", "host monotonic, ns since the traced child started")
            .with("spans", Json::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_name_their_parent_and_stay_inside_it() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let rank = RankTimes {
            setup_end: at(1),
            write: (at(2), at(10)),
            read: (at(11), at(20)),
            sim_write_ns: 0,
            sim_read_ns: 0,
            back: Vec::new(),
            marks: vec![("put_pass", at(3), at(9)), ("get_pass", at(12), at(19))],
        };
        rec.add_replay("L0", 4, (at(0), at(21)), &[rank]);
        assert_eq!(rec.spans.len(), 6);
        let by_name = |n: &str| rec.spans.iter().position(|s| s.name == n).unwrap();
        let (w, r) = (by_name("L0.write"), by_name("L0.read"));
        assert_eq!(rec.spans[by_name("L0.put_pass")].parent, Some(w));
        assert_eq!(rec.spans[by_name("L0.get_pass")].parent, Some(r));
        for s in &rec.spans {
            assert_eq!(s.iter, 4);
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let p = &rec.spans[p];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}",
                    s.name
                );
            }
        }
        let text = rec.to_json().pretty();
        assert!(text.contains("\"name\": \"L0.put_pass\""));
        assert!(text.contains("\"parent\": null"));
    }
}
