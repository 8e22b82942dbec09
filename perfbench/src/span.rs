//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A traced run wraps every call it makes into a layer (`execute_cell`,
//! `DiskCache::store`, `taint_check`, ...) in a [`Span`]: name, start,
//! end, the span that caused it, and the trace id of the cell or request
//! it served. Spans stay in memory until the run ends; nothing inside the
//! daemon or the simulator is instrumented.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `harness.execute_cell`.
    pub name: &'static str,
    /// The cell or request this span worked for; spans of one unit of
    /// work share it.
    pub trace: u64,
    /// Unique within its log.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Seconds since the log was created.
    pub start: f64,
    /// Seconds since the log was created.
    pub end: f64,
}

impl Span {
    /// Wall-clock length in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span, handing it the span's id so it can open
    /// children, and returns `f`'s result with the span's duration in
    /// seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        // Relaxed: the counter only has to hand out distinct ids.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let result = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking worker")
            .push(Span {
                name,
                trace,
                id,
                parent,
                start,
                end,
            });
        (result, end - start)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock poisoned by a panicking worker")
            .clone()
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`:
/// overlapping intervals are counted once.
pub fn covered(intervals: impl IntoIterator<Item = (f64, f64)>, lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of its interval its
/// children cover, with overlapping children (parallel workers) counted
/// once.
pub fn self_time<'a>(span: &Span, children: impl IntoIterator<Item = &'a Span>) -> f64 {
    span.duration()
        - covered(
            children.into_iter().map(|c| (c.start, c.end)),
            span.start,
            span.end,
        )
}

/// Per-name totals of a span log, for the traced-run document.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

/// Summarises `spans` by name, in first-seen order.
pub fn summarise(spans: &[Span]) -> Vec<SpanSummary> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: Vec<SpanSummary> = Vec::new();
    for s in spans {
        let own = self_time(s, children.get(&s.id).into_iter().flatten().copied());
        match out.iter_mut().find(|o| o.name == s.name) {
            Some(o) => {
                o.count += 1;
                o.total_s += s.duration();
                o.self_s += own;
            }
            None => out.push(SpanSummary {
                name: s.name,
                count: 1,
                total_s: s.duration(),
                self_s: own,
            }),
        }
    }
    out
}

/// Durations, in seconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            name: "t",
            trace: 0,
            id,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_covered_child_interval() {
        let pass = span(0, None, 0.0, 10.0);
        let kids = [span(1, Some(0), 1.0, 3.0), span(2, Some(0), 5.0, 6.0)];
        assert_eq!(self_time(&pass, &kids), 7.0);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two parallel workers: [1, 4] and [2, 6] overlap on [2, 4], so
        // together they cover [1, 6], 5 seconds, not 3 + 4 = 7.
        let pass = span(0, None, 0.0, 10.0);
        let kids = [
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 2.0, 6.0),
            span(3, Some(0), 2.5, 3.0),
        ];
        assert_eq!(self_time(&pass, &kids), 5.0);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let pass = span(0, None, 2.0, 4.0);
        let kids = [span(1, Some(0), 1.0, 3.0), span(2, Some(0), 3.5, 9.0)];
        assert_eq!(self_time(&pass, &kids), 0.5);
        assert_eq!(covered([], 0.0, 1.0), 0.0);
    }

    #[test]
    fn log_records_nesting_and_summaries_use_it() {
        let log = SpanLog::new();
        let ((), outer) = log.span("outer", 7, None, |id| {
            log.span("inner", 7, Some(id), |_| std::hint::black_box(0));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer_span = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer_span.id));
        assert_eq!(inner.trace, 7);
        assert!((outer_span.duration() - outer).abs() < 1e-12);
        let summary = summarise(&spans);
        let o = summary.iter().find(|s| s.name == "outer").unwrap();
        assert!((o.self_s - (outer - inner.duration())).abs() < 1e-12);
    }
}
