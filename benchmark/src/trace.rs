//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing in
//! `crates/` is instrumented), kept in memory, and written to
//! `out/trace-<workload>.json` when the traced run ends. A span's
//! *self time* is its duration minus the part of that interval its
//! child spans cover, so self times of a properly nested trace sum to
//! the root's duration.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One closed interval of work, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder shared by reference between threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled: true,
        }
    }

    /// A tracer that records nothing, for untraced passes through code
    /// that is written once for both: every span costs one branch.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        spans.len() - 1
    }

    /// Opens a span now, so children can name it as parent before it
    /// ends; [`Tracer::close`] stamps its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.record(name, parent, now, now)
    }

    pub fn close(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let mut spans = self.spans.lock().expect("a tracing thread panicked");
        spans[id].end_ns = now.max(spans[id].start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .clone()
    }
}

/// Self time of every span: duration minus the length of the union of
/// its children's intervals, each clipped to the parent. Children may
/// overlap one another (two threads working under one parent); the
/// overlap is covered once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let selfs = self_times(spans);
    let mut rows: Vec<(&'static str, f64, usize)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += self_ns as f64 * 1e-9;
                row.2 += 1;
            }
            None => rows.push((span.name, self_ns as f64 * 1e-9, 1)),
        }
    }
    rows
}

/// The trace file: every span with its self time, plus the counters
/// taken at the same boundaries.
pub fn to_json(workload: &str, seed: u64, spans: &[Span], counters: Json) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (span, self_ns))| {
            Json::obj([
                ("id", Json::int(id as u64)),
                ("name", Json::str(span.name)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::int(p as u64)),
                ),
                ("start_ns", Json::int(span.start_ns)),
                ("end_ns", Json::int(span.end_ns)),
                ("self_ns", Json::int(self_ns)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::int(seed)),
        ("counters", counters),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // Nested and disjoint: self times sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_from_two_threads_are_covered_once() {
        // Two workers under one parent: [10, 60) and [40, 90) overlap on
        // [40, 60); together they cover 80 ns of the parent's 100.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 50]);
        // A child fully inside its sibling adds no coverage.
        let nested = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&nested)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that outlives its parent only covers the shared part.
        let spans = [span(None, 0, 100), span(Some(0), 80, 150)];
        assert_eq!(self_times(&spans), vec![80, 70]);
    }

    #[test]
    fn tracer_nests_spans_and_orders_time() {
        let tracer = Tracer::new();
        let inner = tracer.span("outer", None, |outer| {
            tracer.span("inner", Some(outer), |id| id)
        });
        let spans = tracer.spans();
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[0].end_ns);
    }
}
