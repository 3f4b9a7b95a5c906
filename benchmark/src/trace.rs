//! In-memory spans recorded around the benchmark's own calls into each
//! layer, and the self-time arithmetic the per-layer metrics come from.
//!
//! A span has a name, start and end (nanoseconds since the run's origin),
//! an optional parent (index into the same span list), the id of the
//! request or pass it belongs to, and a work count (values processed) for
//! per-value metrics. Spans are kept in memory and written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use spark_util::json::Value;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `http.wait` or `tensor.fused.up`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same list.
    pub parent: Option<usize>,
    /// Request (serving) or pass (ffn) id shared by one unit's spans.
    pub req: u64,
    /// Values processed, for per-value metrics (0 when not meaningful).
    pub work: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Appends `other` to `spans`, re-basing its parent indices.
pub fn append(spans: &mut Vec<Span>, other: Vec<Span>) {
    let base = spans.len();
    spans.extend(other.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Self times (ns) and total work, grouped by span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layer {
    /// Self time of each span with this name, in recording order.
    pub self_ns: Vec<u64>,
    /// Sum of the spans' work counts.
    pub work: u64,
}

impl Layer {
    /// Median self time per call in µs (0 when no span was recorded).
    pub fn median_us(&self) -> f64 {
        if self.self_ns.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = self.self_ns.iter().map(|&n| n as f64 / 1e3).collect();
        crate::stats::median(&v)
    }

    /// Total self time divided by total work, in ns per value (0 when no
    /// work was recorded).
    pub fn ns_per_value(&self) -> f64 {
        if self.work == 0 {
            return 0.0;
        }
        self.self_ns.iter().sum::<u64>() as f64 / self.work as f64
    }
}

/// Groups every span's self time and work by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.self_ns.push(t);
        l.work += s.work;
    }
    out
}

/// The trace file body: one object per span, parents as indices.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let items = spans
        .iter()
        .map(|s| {
            Value::object([
                ("name", Value::Str(s.name.into())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("req", Value::Num(s.req as f64)),
                ("work", Value::Num(s.work as f64)),
            ])
        })
        .collect();
    Value::object([
        ("workload", Value::Str(workload.into())),
        ("spans", Value::Array(items)),
    ])
}

/// Records spans of in-process calls.
pub struct Recorder {
    /// The instant span times count from.
    pub origin: Instant,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, req: u64) -> usize {
        let t = self.now();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: None,
            req,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Ends the span `idx`.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Times `f` as a child of `parent` that processed `work` values.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        work: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = black_box(f());
        let end_ns = self.now();
        let req = self.spans[parent].req;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            req,
            work: work as u64,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_clipped_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn children_covering_the_parent_leave_no_self_time() {
        let spans = vec![
            span("root", 5, 25, None),
            span("x", 0, 15, Some(0)),
            span("y", 15, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn layers_group_by_name_and_append_rebases_parents() {
        let mut spans = vec![span("root", 0, 10, None), span("k", 2, 6, Some(0))];
        let mut other = vec![span("root", 20, 40, None), span("k", 20, 30, Some(0))];
        other[1].work = 5;
        append(&mut spans, other);
        assert_eq!(spans[3].parent, Some(2));
        let by = layers(&spans);
        assert_eq!(by["root"].self_ns, vec![6, 10]);
        assert_eq!(by["k"].self_ns, vec![4, 10]);
        assert_eq!(by["k"].work, 5);
        assert_eq!(by["k"].ns_per_value(), 14.0 / 5.0);
        assert!((by["k"].median_us() - 0.007).abs() < 1e-12);
        assert_eq!(Layer::default().median_us(), 0.0);
    }
}
