//! In-memory spans for the traced run.
//!
//! Every span is recorded from the benchmark's own files, around a call
//! into one layer's public API (layer = crate name, the part of a span
//! name before the first `.`). Spans stay in memory until the run ends;
//! a layer's self time is its span's duration minus the part of that
//! interval its child spans cover. End-to-end numbers never come from a
//! traced run — `trace.overhead_x` reports what tracing costs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// The request id of spans that belong to no request (set-up, probes).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder owned by one thread. A disabled tracer runs the
/// wrapped closure and records nothing, so one code path serves both
/// the traced and the untraced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// `epoch` is the zero of the trace's time line (process start).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        // Reserved up front: growing the vector mid-run would put a
        // reallocation inside somebody's span.
        let spans = if enabled { Vec::with_capacity(1 << 16) } else { Vec::new() };
        Tracer { epoch, enabled, spans, open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become this span's children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { id, parent, request, name, start_ns: 0, end_ns: 0 });
        self.open.push(id);
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        self.open.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        result
    }

    /// Records a span whose boundaries were stamped elsewhere (another
    /// thread's submit call, a request's due time) and returns its id so
    /// children can name it as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total time and self time per span name. A span's self time
    /// is its duration minus the union of its children's intervals
    /// clipped to it, so overlapping children are not subtracted twice.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let entry = out.entry(s.name.to_string()).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered;
        }
        out
    }

    /// The whole trace as JSON: every span, then the per-name totals.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    (
                        "request",
                        if s.request == NO_REQUEST {
                            Json::Null
                        } else {
                            Json::Num(s.request as f64)
                        },
                    ),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let totals = self.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]),
            )
        });
        Json::obj([("totals", Json::obj(totals)), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer whose spans are placed by hand on a synthetic time line.
    fn at(t: &mut Tracer, name: &'static str, parent: Option<u32>, start: u64, end: u64) -> u32 {
        let epoch = t.epoch;
        t.record(
            name,
            7,
            parent,
            epoch + Duration::from_nanos(start),
            epoch + Duration::from_nanos(end),
        )
        .expect("enabled")
    }

    #[test]
    fn self_time_is_span_minus_the_union_of_its_children() {
        let mut t = Tracer::new(true, Instant::now());
        let root = at(&mut t, "request", None, 0, 1000);
        let infer = at(&mut t, "runtime.infer", Some(root), 100, 700);
        at(&mut t, "primitives.conv", Some(infer), 150, 300);
        // Two overlapping children and one that overruns its parent: the
        // overlap counts once and the overrun is clipped.
        at(&mut t, "primitives.conv", Some(infer), 250, 400);
        at(&mut t, "tensor.convert", Some(infer), 650, 900);
        let totals = t.totals();
        assert_eq!(totals["request"], NameTotals { count: 1, total_ns: 1000, self_ns: 400 });
        // Children cover [150, 400] ∪ [650, 700] = 300 of the 600.
        assert_eq!(totals["runtime.infer"], NameTotals { count: 1, total_ns: 600, self_ns: 300 });
        assert_eq!(totals["primitives.conv"], NameTotals { count: 2, total_ns: 300, self_ns: 300 });
        assert_eq!(totals["tensor.convert"].self_ns, 250);
    }

    #[test]
    fn nested_closures_link_parents_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let value = t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("inner", 1, |_| 5)
        });
        assert_eq!(value, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let totals = t.totals();
        assert!(totals["outer"].self_ns < totals["outer"].total_ns);
        assert!(totals["inner"].total_ns >= 2_000_000);

        let json = t.to_json();
        assert_eq!(Json::parse(&json.pretty()).unwrap(), json);
        assert_eq!(json.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(3));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", 1, |t| t.span("inner", 1, |_| 9)), 9);
        assert!(off.spans().is_empty());
    }
}
