//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, start and end on the
//! run's [`WallClock`], the span that caused it, and the request it
//! belongs to. Spans stay in memory until the run ends; a layer's self
//! time is its span's duration minus the part its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use pointacc_bench::frontend::{Clock, WallClock};
use pointacc_bench::sync::lock;

/// Request id of spans recorded during set-up.
pub const SETUP_REQUEST: u64 = 0;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Request the call served ([`SETUP_REQUEST`] for set-up work).
    pub request: u64,
    /// Layer call, e.g. `nn.exec.compile`.
    pub name: &'static str,
    /// Start on the tracer's clock.
    pub start: Duration,
    /// End on the tracer's clock.
    pub end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; otherwise runs the wrapped calls bare.
pub struct Tracer {
    clock: WallClock,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            clock: WallClock::new(),
            enabled,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (`None` when disabled) so it can parent child spans on it.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start = self.clock.now();
        let out = f(Some(id));
        let end = self.clock.now();
        lock(&self.spans).push(Span { id, parent, request, name, start, end });
        out
    }

    /// Every span recorded since the last call, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }
}

/// Per span name: (calls, total self time).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, Duration)> {
    let mut children: HashMap<u64, Vec<(Duration, Duration)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    for s in spans {
        let covered = children.get(&s.id).map_or(Duration::ZERO, |c| covered(c, s.start, s.end));
        let entry = out.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.duration().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(intervals: &[(Duration, Duration)], start: Duration, end: Duration) -> Duration {
    let mut sorted: Vec<(Duration, Duration)> =
        intervals.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    sorted.sort_unstable();
    let mut total = Duration::ZERO;
    let mut cursor = start;
    for (s, e) in sorted {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Spans as JSON lines (times in microseconds on the run's clock).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}\n",
            s.id,
            s.request,
            s.name,
            s.start.as_micros(),
            s.end.as_micros()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "request", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 50),
            span(4, Some(2), "c", 15, 20),
        ];
        let times = self_times(&spans);
        assert_eq!(times["request"], (1, Duration::from_millis(60)));
        assert_eq!(times["a"], (1, Duration::from_millis(25)));
        assert_eq!(times["b"], (1, Duration::from_millis(20)));
        assert_eq!(times["c"], (1, Duration::from_millis(5)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 1, None, |id| id), None);
        assert!(tracer.take().is_empty());
        let tracer = Tracer::new(true);
        let id = tracer.span("x", 1, None, |id| tracer.span("y", 1, id, |_| id));
        assert_eq!(id, Some(1));
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(1), "child completes first");
    }
}
