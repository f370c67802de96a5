//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Spans are written out once, when the run ends, and
//! summarised per name as total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub round: Option<usize>,
    /// The submission sequence number, on SUBMIT spans.
    pub seq: Option<u32>,
    /// A second call of a layer's public function on inputs already
    /// processed, made only to time that layer. Replays do not count
    /// toward round coverage.
    pub replay: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Open spans have `end_ns == start_ns` until closed.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
            seq: None,
            replay: false,
        })
    }

    /// Records a finished replay interval.
    pub fn replay(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: Option<usize>,
        interval: (Instant, Instant),
    ) -> SpanId {
        let id = self.record(name, parent, round, interval);
        self.spans[id].replay = true;
        id
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: Option<usize>,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, round, (now, now))
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"round\":{},\"seq\":{},\"replay\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.round),
                opt(s.seq.map(|q| q as usize)),
                s.replay
            );
        }
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children may overlap each other, e.g. two connections
/// submitting at once).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per span name: `(count, total ns, self ns)`, sorted by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let selfs = self_ns(spans);
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, self_t) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: None,
            seq: None,
            replay: false,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered_ns(&[], 0, 100), 0);
        assert_eq!(covered_ns(&[(10, 20), (30, 40)], 0, 100), 20);
        assert_eq!(covered_ns(&[(10, 30), (20, 40)], 0, 100), 30);
        assert_eq!(covered_ns(&[(10, 40), (20, 30)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 50)], 10, 20), 10, "clipped to the parent");
        assert_eq!(covered_ns(&[(10, 20), (20, 30)], 0, 100), 20, "touching");
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span("round", 0, 100, None),
            span("stage", 0, 60, Some(0)),
            span("close", 70, 95, Some(0)),
            // Two overlapping grandchildren under `stage`.
            span("submit", 10, 40, Some(1)),
            span("submit", 30, 50, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![15, 20, 25, 30, 20]);
        let sum = summarize(&spans);
        assert_eq!(sum["round"], (1, 100, 15));
        assert_eq!(sum["submit"], (2, 50, 50));
        // Self times add up to the root's duration, plus the 10 ns the two
        // concurrent submits both claim.
        assert_eq!(self_ns(&spans).iter().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(Instant::now());
        let r = t.open("round", None, Some(3));
        let now = Instant::now();
        t.replay("fl.eval", Some(r), Some(3), (now, now));
        t.close(r);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"fl.eval\""));
        assert!(text.contains("\"parent\":0,\"round\":3,\"seq\":null,\"replay\":true"));
    }
}
