//! In-memory spans recorded around the benchmark's own calls into each
//! layer, with self-time accounting and a chrome-trace export.
//!
//! Nothing here reaches inside the program: a span brackets one public
//! call (`minilang::parse`, `randgen::generate_grouped`, …) made by the
//! replay, so the layer boundaries are the crates' API boundaries.

use serve::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name, e.g. `randgen.generate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to (`None` for work that
    /// serves no single request, such as the batched-embedding probe).
    pub req: Option<u64>,
}

impl Span {
    /// Inclusive duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans when enabled; when disabled, [`Tracer::span`]
/// only runs its closure, so the same replay code measures the cost of
/// its own instrumentation.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: Option<u64>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: None,
        }
    }

    /// A tracer on this one's clock, whose spans [`Tracer::adopt`] can
    /// later graft under an open span here.
    pub fn sibling(&self, enabled: bool) -> Tracer {
        Tracer {
            epoch: self.epoch,
            ..Tracer::new(enabled)
        }
    }

    /// Tags the spans opened from now on with request `req`.
    pub fn set_request(&mut self, req: Option<u64>) {
        self.req = req;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req: self.req,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Appends the spans of a [`Tracer::sibling`], hanging its top-level
    /// spans under the innermost open span here.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(parent),
            ..s
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, keeping its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its direct children (overlapping or out-of-range children
/// are merged and clipped, so nothing is subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times, in microseconds, of every span named `name`.
pub fn self_us(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// A chrome "Trace Event Format" document of `spans`, one complete event
/// each; `args` carries the span's index, its parent's and its request.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let req = s.req.map_or(Json::Null, |r| Json::num(r as usize));
            let parent = s.parent.map_or(Json::Null, Json::num);
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("bench")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::num(1)),
                ("tid", Json::num(1)),
                (
                    "args",
                    Json::obj(vec![("id", Json::num(i)), ("parent", parent), ("req", req)]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            req: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 0 ─ root [0,100)
        // 1 ─   child [10,40)
        // 2 ─     grandchild [15,35)  (counts against 1, not 0)
        // 3 ─   child [40,70)         (back to back with 1)
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 35, Some(1)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 20, 30]);
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_stray_children() {
        let spans = vec![
            span(0, 100, None),
            span(20, 60, Some(0)),
            span(50, 130, Some(0)),
        ];
        // Children cover [20,100) once: 80 ns of the root's 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.set_request(Some(7));
        let v = t.span("outer", |t| t.span("inner", |_| 3) + 1);
        assert_eq!(v, 4);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.req == Some(7)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut top = Tracer::new(true);
        top.enter("run");
        let mut inner = top.sibling(true);
        inner.span("a", |t| t.span("b", |_| ()));
        top.adopt(inner.into_spans());
        top.exit();
        let spans = top.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("run", None), ("a", Some(0)), ("b", Some(1))]);
        assert!(
            spans[0].end_ns >= spans[2].end_ns,
            "one clock for both tracers"
        );
    }
}
