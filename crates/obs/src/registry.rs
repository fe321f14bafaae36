//! The recording metric store and its text renderings.
//!
//! [`Registry`] implements [`Recorder`] by storing counters, gauges and
//! [`LogHistogram`]s in `BTreeMap`s behind one `Mutex` — deterministic
//! iteration order, safe to share across the fleet engine's shard
//! worker threads via `Arc`. Reading is cold-path only: take a
//! [`Registry::snapshot`] (or render directly) after the run.

use crate::histogram::{LogHistogram, BUCKETS};
use crate::recorder::{Label, Recorder};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

type Key = (&'static str, Option<Label>);

#[derive(Debug, Default)]
struct Store {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, LogHistogram>,
}

/// A thread-safe metric store.
///
/// # Examples
///
/// ```
/// use tagbreathe_obs::{Recorder, Registry};
///
/// let registry = Registry::new();
/// registry.count("frames_total", 2);
/// registry.record("frame_ns", 512);
/// assert_eq!(registry.counter("frames_total"), 2);
/// assert!(registry.render_prometheus().contains("frame_ns_count 1"));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    store: Mutex<Store>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn store(&self) -> MutexGuard<'_, Store> {
        // A poisoned lock only means another thread panicked mid-update of
        // a monotone counter; the data is still the best available.
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current value of counter `name`, summed across labels.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.store()
            .counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Value of the unlabelled gauge `name`, if set.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.labeled_gauge(name, None)
    }

    /// Value of gauge `name` with exactly `label`, if set.
    #[must_use]
    pub fn labeled_gauge(&self, name: &str, label: Option<Label>) -> Option<f64> {
        self.store()
            .gauges
            .iter()
            .find(|((n, l), _)| *n == name && *l == label)
            .map(|(_, v)| *v)
    }

    /// A copy of the unlabelled histogram `name`, if any observation was
    /// recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.labeled_histogram(name, None)
    }

    /// A copy of the histogram `name` with exactly `label`, if any
    /// observation was recorded — e.g. one stage of the snapshot-lag
    /// histogram.
    #[must_use]
    pub fn labeled_histogram(&self, name: &str, label: Option<Label>) -> Option<LogHistogram> {
        self.store()
            .histograms
            .iter()
            .find(|((n, l), _)| *n == name && *l == label)
            .map(|(_, h)| h.clone())
    }

    /// A point-in-time copy of everything, with labels rendered into the
    /// metric keys (`name{port="1"}`).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let store = self.store();
        MetricsSnapshot {
            counters: store
                .counters
                .iter()
                .map(|(&(n, l), &v)| (render_key(n, l), v))
                .collect(),
            gauges: store
                .gauges
                .iter()
                .map(|(&(n, l), &v)| (render_key(n, l), v))
                .collect(),
            histograms: store
                .histograms
                .iter()
                .map(|(&(n, l), h)| (render_key(n, l), h.clone()))
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus plain-text exposition style.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Renders the registry as a JSON object (counters, gauges and
    /// histogram summaries).
    #[must_use]
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

impl Recorder for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, label: Option<Label>, delta: u64) {
        let mut store = self.store();
        let slot = store.counters.entry((name, label)).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn set_gauge(&self, name: &'static str, label: Option<Label>, value: f64) {
        self.store().gauges.insert((name, label), value);
    }

    fn observe(&self, name: &'static str, label: Option<Label>, value: u64) {
        self.store()
            .histograms
            .entry((name, label))
            .or_default()
            .record(value);
    }
}

/// A point-in-time dump of a [`Registry`], decoupled from the live store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters keyed by rendered metric key.
    pub counters: BTreeMap<String, u64>,
    /// Gauges keyed by rendered metric key.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms keyed by rendered metric key.
    pub histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsSnapshot {
    /// Distinct metric names (label dimension stripped) that carry signal:
    /// non-zero counters, any set gauge, non-empty histograms.
    #[must_use]
    pub fn nonzero_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .counters
            .iter()
            .filter(|(_, &v)| v > 0)
            .map(|(k, _)| base_name(k))
            .chain(self.gauges.keys().map(|k| base_name(k)))
            .chain(
                self.histograms
                    .iter()
                    .filter(|(_, h)| h.count() > 0)
                    .map(|(k, _)| base_name(k)),
            )
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders the snapshot in the Prometheus plain-text exposition style:
    /// `# TYPE` lines, one sample per line, histograms expanded into
    /// cumulative `_bucket{le="…"}` / `_sum` / `_count` series.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (key, value) in &self.counters {
            let _ = writeln!(out, "# TYPE {} counter", base_name(key));
            let _ = writeln!(out, "{key} {value}");
        }
        for (key, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE {} gauge", base_name(key));
            let _ = writeln!(out, "{key} {value}");
        }
        for (key, histogram) in &self.histograms {
            let name = base_name(key);
            let labels = label_part(key);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (idx, &n) in histogram.buckets().iter().enumerate() {
                cumulative = cumulative.saturating_add(n);
                let last = idx + 1 == BUCKETS;
                if n == 0 && !last {
                    continue;
                }
                let le = match LogHistogram::bucket_upper_bound(idx) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{}le=\"{le}\"}} {cumulative}",
                    with_comma(&labels)
                );
            }
            let _ = writeln!(out, "{name}_sum{labels} {}", histogram.sum());
            let _ = writeln!(out, "{name}_count{labels} {}", histogram.count());
        }
        out
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// per-histogram count / sum / min / max / p50 / p99 summaries.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(out, "{comma}\n    \"{}\": {value}", escape_json(key));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (key, value)) in self.gauges.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    \"{}\": {}",
                escape_json(key),
                json_number(*value)
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}}}",
                escape_json(key),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// The metric name with any `{label="…"}` suffix stripped.
fn base_name(key: &str) -> String {
    key.split('{').next().unwrap_or(key).to_string()
}

/// The `{label="…"}` suffix of a rendered key, or the empty string.
fn label_part(key: &str) -> String {
    match key.find('{') {
        Some(idx) => key[idx..].to_string(),
        None => String::new(),
    }
}

/// Inner labels of a rendered suffix with a trailing comma, for splicing
/// a `le` label into a `_bucket` sample.
fn with_comma(labels: &str) -> String {
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    if inner.is_empty() {
        String::new()
    } else {
        format!("{inner},")
    }
}

fn render_key(name: &str, label: Option<Label>) -> String {
    match label {
        None => name.to_string(),
        Some(l) => format!("{name}{{{}=\"{}\"}}", l.name, l.value),
    }
}

fn escape_json(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// JSON has no NaN/Inf literals; map non-finite gauges to null.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry.count("a_total", 3);
        registry.add("b_total", Some(Label::port(2)), 4);
        registry.gauge("g", -51.25);
        registry.set_gauge("g_port", Some(Label::port(1)), 12.0);
        registry.record("h_ns", 100);
        registry.record("h_ns", 3000);
        registry
    }

    #[test]
    fn counters_sum_across_labels() {
        let registry = sample_registry();
        assert_eq!(registry.counter("a_total"), 3);
        assert_eq!(registry.counter("b_total"), 4);
        assert_eq!(registry.counter("missing"), 0);
    }

    #[test]
    fn gauges_and_histograms_read_back() {
        let registry = sample_registry();
        assert_eq!(registry.gauge_value("g"), Some(-51.25));
        assert_eq!(
            registry.labeled_gauge("g_port", Some(Label::port(1))),
            Some(12.0)
        );
        assert!(registry
            .labeled_gauge("g_port", Some(Label::port(9)))
            .is_none());
        let count = registry.histogram("h_ns").map(|h| h.count());
        assert_eq!(count, Some(2));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let text = sample_registry().render_prometheus();
        assert!(text.contains("# TYPE a_total counter"), "{text}");
        assert!(text.contains("a_total 3"), "{text}");
        assert!(text.contains("b_total{port=\"2\"} 4"), "{text}");
        assert!(text.contains("# TYPE g gauge"), "{text}");
        assert!(text.contains("g -51.25"), "{text}");
        assert!(text.contains("# TYPE h_ns histogram"), "{text}");
        assert!(text.contains("h_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("h_ns_sum 3100"), "{text}");
        assert!(text.contains("h_ns_count 2"), "{text}");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let registry = Registry::new();
        registry.record("h", 1);
        registry.record("h", 1);
        registry.record("h", 1000);
        let text = registry.render_prometheus();
        // 1 lands at le="1" (count 2); 1000 at le="1023" (cumulative 3).
        assert!(text.contains("h_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"1023\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"), "{text}");
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let dump = sample_registry().render_json();
        assert!(json::validate(&dump).is_ok(), "{dump}");
        assert!(dump.contains("\"a_total\": 3"), "{dump}");
        assert!(dump.contains("b_total{port=\\\"2\\\"}"), "{dump}");
        assert!(dump.contains("\"count\": 2"), "{dump}");
    }

    #[test]
    fn non_finite_gauge_serialises_as_null() {
        let registry = Registry::new();
        registry.gauge("bad", f64::NEG_INFINITY);
        let dump = registry.render_json();
        assert!(json::validate(&dump).is_ok(), "{dump}");
        assert!(dump.contains("\"bad\": null"), "{dump}");
    }

    #[test]
    fn snapshot_nonzero_names_strip_labels() {
        let registry = sample_registry();
        registry.count("zero_total", 0);
        let names = registry.snapshot().nonzero_names();
        assert!(names.contains(&"a_total".to_string()));
        assert!(names.contains(&"b_total".to_string()));
        assert!(names.contains(&"g_port".to_string()));
        assert!(names.contains(&"h_ns".to_string()));
        assert!(!names.contains(&"zero_total".to_string()));
    }

    #[test]
    fn empty_registry_renders_empty_but_valid() {
        let registry = Registry::new();
        assert_eq!(registry.render_prometheus(), "");
        assert!(json::validate(&registry.render_json()).is_ok());
    }
}
