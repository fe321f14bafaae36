//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out at the end as a Chrome trace.

use obs::trace::{chrome_trace, TraceEvent};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `wire.decode_frame`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// Span id, unique within one benchmark run.
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Batch the call worked on (0 when not batch-scoped).
    pub batch: u64,
    /// Thread lane, rendered as the trace's track.
    pub lane: u8,
}

impl Span {
    /// Duration, nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span log. Logs sharing an epoch merge into one trace.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    lane: u8,
    next_id: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for thread `lane`; span ids start above `lane << 40` so
    /// logs of different threads never collide.
    #[must_use]
    pub fn new(epoch: Instant, lane: u8) -> Self {
        SpanLog {
            epoch,
            lane,
            next_id: (u64::from(lane) << 40) + 1,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, batch: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
            batch,
            lane: self.lane,
        });
        id
    }

    /// Closes span `id`, returning its duration in nanoseconds.
    pub fn close(&mut self, id: u64) -> u64 {
        let now = self.now_ns();
        match self.spans.iter_mut().rev().find(|s| s.id == id) {
            Some(span) => {
                span.end_ns = now;
                span.dur_ns()
            }
            None => 0,
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans named `name`, nanoseconds.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Moves every span of `other` into this log.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Number of spans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Renders the log as Chrome trace-event JSON: the lane is the track,
    /// and each span's args carry `tag` = parent id, `a` = span id and
    /// `b` = batch id.
    #[must_use]
    pub fn chrome(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let events: Vec<TraceEvent> = spans
            .iter()
            .map(|s| {
                TraceEvent::span(s.name, s.start_ns as f64 / 1e9, s.dur_ns())
                    .with_port(s.lane)
                    .with_tag(u32::try_from(s.parent & 0xFFFF_FFFF).unwrap_or(0))
                    .with_values(s.id as f64, s.batch as f64)
            })
            .collect();
        chrome_trace(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut log = SpanLog::new(Instant::now(), 1);
        let root = log.open("root", 0, 0);
        let x = log.time("child", root, 7, || 40 + 2);
        log.time("child", root, 8, || ());
        let root_ns = log.close(root);
        assert_eq!(x, 42);
        assert_eq!(log.len(), 3);
        assert!(log.total_ns("child") > 0);
        assert!(log.total_ns("child") <= root_ns);
        let json = log.chrome();
        assert!(obs::json::validate(&json).is_ok(), "{json}");
        assert!(json.contains("\"name\": \"child\""));
    }

    #[test]
    fn lanes_never_share_ids() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 0);
        let mut b = SpanLog::new(epoch, 1);
        let ia = a.open("x", 0, 0);
        let ib = b.open("x", 0, 0);
        assert_ne!(ia, ib);
        a.absorb(b);
        assert_eq!(a.len(), 2);
    }
}
