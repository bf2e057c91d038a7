//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from this harness's own files, around the calls into
//! each layer of the program; nothing inside the program is instrumented.
//! Every span carries its name, start, end, parent and the trace id of the
//! workload run it belongs to. They are kept in memory and written out once,
//! when the run ends.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: SpanId,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer-qualified name, e.g. `ga.evaluate`.
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// The workload run this span belongs to.
    pub trace_id: String,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span sink. Worker threads record into the same tracer by
/// passing their parent explicitly, so no thread-local state is needed.
pub struct Tracer {
    epoch: Instant,
    trace_id: String,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose spans all carry `trace_id`.
    pub fn new(trace_id: &str) -> Self {
        Tracer {
            epoch: Instant::now(),
            trace_id: trace_id.to_string(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so it can parent further spans.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("no span recorder panics mid-push");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                trace_id: self.trace_id.clone(),
            });
            id
        };
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span recorder panics mid-push");
        spans[id].start_ns = start_ns;
        spans[id].end_ns = end_ns;
        out
    }

    /// Summed duration of the finished spans called `name` so far.
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("no span recorder panics mid-push");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// All spans recorded so far, in creation order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span recorder panics mid-push")
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children running concurrently on worker threads
/// overlap each other; the union keeps the result non-negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered_ns(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Total duration per name over the direct children of `root`: the ledger's
/// slices. The root's own self time is reported under `(unattributed)`.
pub fn slices_under(spans: &[Span], root: SpanId) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent == Some(root)) {
        *out.entry(span.name.clone()).or_default() += span.duration_ns();
    }
    out.insert("(unattributed)".to_string(), self_times_ns(spans)[root]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            trace_id: "t".to_string(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.inner", 15, 25),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn concurrent_children_are_counted_once() {
        // Two worker-lane children overlap on 20..60 and one pokes out of
        // the parent; the parent's self time never goes negative.
        let spans = vec![
            span(0, None, "phase", 0, 100),
            span(1, Some(0), "worker", 10, 60),
            span(2, Some(0), "worker", 20, 80),
            span(3, Some(0), "worker", 90, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn slices_sum_to_the_root_duration() {
        let spans = vec![
            span(0, None, "campaign", 0, 1000),
            span(1, Some(0), "ga.evaluate", 0, 400),
            span(2, Some(0), "ga.evolve", 400, 450),
            span(3, Some(0), "ga.evaluate", 450, 900),
        ];
        let slices = slices_under(&spans, 0);
        assert_eq!(slices["ga.evaluate"], 850);
        assert_eq!(slices["ga.evolve"], 50);
        assert_eq!(slices["(unattributed)"], 100);
        assert_eq!(slices.values().sum::<u64>(), 1000);
        assert_eq!(durations_of(&spans, "ga.evaluate"), vec![400, 450]);
    }

    #[test]
    fn tracer_records_nesting_and_worker_threads() {
        let tracer = Tracer::new("w/1");
        tracer.span("root", None, |root| {
            tracer.span("main-child", Some(root), |_| {});
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| tracer.span("lane", Some(root), |_| {}));
                }
            });
        });
        let spans = tracer.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans.iter().all(|s| s.trace_id == "w/1"));
        assert!(spans[1..]
            .iter()
            .all(|s| s.start_ns >= spans[0].start_ns && s.end_ns <= spans[0].end_ns));
        // JSON round trip of the file format.
        let json = serde_json::to_string(&spans).unwrap();
        let back: Vec<Span> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spans);
    }
}
