//! Streaming-vs-recompute microbenchmark.
//!
//! Compares the incremental [`StreamingMonitor`] (push each report into the
//! shared operator graph, snapshot at a cadence) against the naive
//! recompute baseline it replaced (buffer the window in a `VecDeque`, run
//! `BreathMonitor::analyze` over the whole window at every snapshot), over
//! a users × window-length sweep.
//!
//! The quantities of interest:
//!
//! * **ingest throughput** (reports/s, cadence snapshots included) — the
//!   incremental path's per-report cost must not grow with window length;
//! * **per-snapshot cost** — O(window analysis) for both paths, but the
//!   recompute baseline pays an additional O(window) re-preprocessing;
//! * **speedup** — recompute time over incremental time for the same trace.
//!
//! Results are written as machine-readable JSON (`BENCH_streaming.json`)
//! by the `stream_bench` binary.

use epcgen2::epc::Epc96;
use epcgen2::mapping::EmbeddedIdentity;
use epcgen2::report::TagReport;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use tagbreathe::pipeline::StreamingMonitor;
use tagbreathe::{BreathMonitor, PipelineConfig};

/// Sweep configuration of the streaming benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBenchConfig {
    /// User counts to sweep.
    pub users: Vec<usize>,
    /// Analysis-window lengths to sweep, seconds.
    pub windows_s: Vec<f64>,
    /// Trace duration per point, seconds.
    pub duration_s: f64,
    /// Snapshot cadence, seconds.
    pub cadence_s: f64,
}

impl StreamBenchConfig {
    /// The full sweep: 1 / 10 / 100 users × 12.5 / 25 / 50 s windows.
    #[must_use]
    pub fn quick() -> Self {
        StreamBenchConfig {
            users: vec![1, 10, 100],
            windows_s: vec![12.5, 25.0, 50.0],
            duration_s: 60.0,
            cadence_s: 5.0,
        }
    }

    /// One-iteration smoke mode for CI: a single tiny point.
    #[must_use]
    pub fn smoke() -> Self {
        StreamBenchConfig {
            users: vec![1, 4],
            windows_s: vec![12.5],
            duration_s: 20.0,
            cadence_s: 5.0,
        }
    }
}

/// Timing of one path (incremental or recompute) over one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTiming {
    /// Wall time to ingest the whole trace, cadence snapshots included,
    /// milliseconds.
    pub total_ms: f64,
    /// Ingest cost per report (total / reports), nanoseconds.
    pub per_report_ns: f64,
    /// Cost of one extra end-of-trace snapshot, milliseconds.
    pub snapshot_ms: f64,
    /// Reports ingested per second of wall time.
    pub reports_per_s: f64,
}

/// One sweep point: both paths over the same trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    /// Number of simulated users.
    pub users: usize,
    /// Analysis window, seconds.
    pub window_s: f64,
    /// Reports in the trace.
    pub reports: usize,
    /// The incremental operator-graph path.
    pub incremental: PathTiming,
    /// The buffer-and-reanalyze baseline.
    pub recompute: PathTiming,
    /// Pure ingest cost of the incremental path with no snapshots due,
    /// nanoseconds per report — the amortised-O(1) claim: this figure must
    /// not grow with `window_s`.
    pub push_only_ns_per_report: f64,
}

impl BenchPoint {
    /// Recompute total time over incremental total time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.incremental.total_ms > 0.0 {
            self.recompute.total_ms / self.incremental.total_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Builds a deterministic synthetic trace: `n_users` users × 3 tags, each
/// user read at 30 Hz round-robin across its tags, breathing 12 bpm, with
/// a 0.2 s channel-hop dwell — no reader simulation in the timed path.
#[must_use]
pub fn synthetic_trace(
    n_users: usize,
    duration_s: f64,
    plan: &rfchannel::channel_plan::ChannelPlan,
) -> Vec<TagReport> {
    let per_user_hz = 30.0;
    let reads_per_user = (duration_s * per_user_hz) as usize;
    let mut reports = Vec::with_capacity(n_users * reads_per_user);
    for user in 0..n_users {
        for i in 0..reads_per_user {
            let t = i as f64 / per_user_hz + user as f64 * 1.7e-4;
            let channel = u16::try_from((t / 0.2) as usize % plan.len()).unwrap_or(0);
            let lambda = plan.wavelength_m(channel as usize);
            let d = 0.005 * (2.0 * std::f64::consts::PI * 0.2 * (t + user as f64)).sin();
            let offset = f64::from(channel) * 1.3;
            reports.push(TagReport {
                time_s: t,
                epc: Epc96::monitor(user as u64 + 1, u32::try_from(i % 3).unwrap_or(0)),
                antenna_port: 1,
                channel_index: channel,
                phase_rad: (4.0 * std::f64::consts::PI * d / lambda + offset)
                    .rem_euclid(2.0 * std::f64::consts::PI),
                rssi_dbm: -55.0,
                doppler_hz: 0.0,
            });
        }
    }
    reports.sort_by(|a, b| {
        a.time_s
            .partial_cmp(&b.time_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    reports
}

fn user_ids(n_users: usize) -> Vec<u64> {
    (1..=n_users as u64).collect()
}

/// Times ingest alone: the snapshot cadence is pushed past the end of the
/// trace so only per-report operator work (and periodic eviction) runs.
fn time_push_only(trace: &[TagReport], ids: &[u64], window_s: f64, duration_s: f64) -> f64 {
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        window_s,
        duration_s * 10.0,
    )
    .expect("valid streaming config");
    let start = Instant::now();
    for r in trace {
        black_box(sm.push(std::iter::once(*r)));
    }
    if trace.is_empty() {
        0.0
    } else {
        start.elapsed().as_nanos() as f64 / trace.len() as f64
    }
}

fn time_incremental(trace: &[TagReport], ids: &[u64], window_s: f64, cadence_s: f64) -> PathTiming {
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        window_s,
        cadence_s,
    )
    .expect("valid streaming config");
    let start = Instant::now();
    for r in trace {
        black_box(sm.push(std::iter::once(*r)));
    }
    let total = start.elapsed();
    let snap_start = Instant::now();
    black_box(sm.snapshot_now());
    let snapshot = snap_start.elapsed();
    finish_timing(total, snapshot, trace.len())
}

fn time_recompute(trace: &[TagReport], ids: &[u64], window_s: f64, cadence_s: f64) -> PathTiming {
    let monitor = BreathMonitor::paper_default();
    let resolver = EmbeddedIdentity::new(ids.to_vec());
    let mut buffer: VecDeque<TagReport> = VecDeque::new();
    let mut next_update = cadence_s;
    let start = Instant::now();
    for r in trace {
        buffer.push_back(*r);
        while r.time_s >= next_update {
            while buffer
                .front()
                .is_some_and(|x| x.time_s < r.time_s - window_s)
            {
                buffer.pop_front();
            }
            let window: Vec<TagReport> = buffer.iter().copied().collect();
            black_box(monitor.analyze(&window, &resolver));
            next_update += cadence_s;
        }
    }
    let total = start.elapsed();
    let snap_start = Instant::now();
    let window: Vec<TagReport> = buffer.iter().copied().collect();
    black_box(monitor.analyze(&window, &resolver));
    let snapshot = snap_start.elapsed();
    finish_timing(total, snapshot, trace.len())
}

fn finish_timing(
    total: std::time::Duration,
    snapshot: std::time::Duration,
    reports: usize,
) -> PathTiming {
    let total_ms = total.as_secs_f64() * 1.0e3;
    let per_report_ns = if reports > 0 {
        total.as_nanos() as f64 / reports as f64
    } else {
        0.0
    };
    let reports_per_s = if total.as_secs_f64() > 0.0 {
        reports as f64 / total.as_secs_f64()
    } else {
        f64::INFINITY
    };
    PathTiming {
        total_ms,
        per_report_ns,
        snapshot_ms: snapshot.as_secs_f64() * 1.0e3,
        reports_per_s,
    }
}

/// Runs the full sweep.
#[must_use]
pub fn run(config: &StreamBenchConfig) -> Vec<BenchPoint> {
    let plan = PipelineConfig::paper_default().plan;
    let mut points = Vec::new();
    for &n_users in &config.users {
        let trace = synthetic_trace(n_users, config.duration_s, &plan);
        let ids = user_ids(n_users);
        for &window_s in &config.windows_s {
            let incremental = time_incremental(&trace, &ids, window_s, config.cadence_s);
            let recompute = time_recompute(&trace, &ids, window_s, config.cadence_s);
            let push_only = time_push_only(&trace, &ids, window_s, config.duration_s);
            points.push(BenchPoint {
                users: n_users,
                window_s,
                reports: trace.len(),
                incremental,
                recompute,
                push_only_ns_per_report: push_only,
            });
        }
    }
    points
}

/// Replays the smallest sweep point through a fully-instrumented
/// [`StreamingMonitor`] and returns the metrics registry as JSON — the
/// BENCH sidecar proving the instrumentation fires on real traffic.
#[must_use]
pub fn metrics_sidecar(config: &StreamBenchConfig) -> String {
    use std::sync::Arc;

    let plan = PipelineConfig::paper_default().plan;
    let n_users = config.users.iter().copied().min().unwrap_or(1);
    let window_s = config
        .windows_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(25.0);
    let trace = synthetic_trace(n_users, config.duration_s, &plan);
    let registry = Arc::new(obs::Registry::new());
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(user_ids(n_users)),
        window_s,
        config.cadence_s,
    )
    .expect("valid streaming config")
    .with_recorder(obs::SharedRecorder::new(registry.clone()));
    sm.push(trace);
    sm.snapshot_now();
    registry.render_json()
}

/// Replays the smallest sweep point with a flight recorder attached and
/// returns the session as Chrome trace-event JSON — the `--trace` sidecar
/// proving the tracing layer records real traffic. The tuple's second
/// element is the number of events the ring dropped (0 for the smoke
/// sweep's ring size).
#[must_use]
pub fn trace_sidecar(config: &StreamBenchConfig) -> (String, u64) {
    use std::sync::Arc;

    let plan = PipelineConfig::paper_default().plan;
    let n_users = config.users.iter().copied().min().unwrap_or(1);
    let window_s = config
        .windows_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(25.0);
    let trace = synthetic_trace(n_users, config.duration_s, &plan);
    let ring = Arc::new(
        obs::trace::FlightRecorder::with_capacity(1 << 16).expect("positive ring capacity"),
    );
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(user_ids(n_users)),
        window_s,
        config.cadence_s,
    )
    .expect("valid streaming config")
    .with_tracer(obs::SharedTracer::new(ring.clone()));
    sm.push(trace);
    sm.snapshot_now();
    (obs::trace::chrome_trace(&ring.snapshot()), ring.dropped())
}

/// Renders the sweep as machine-readable JSON (hand-rolled: the workspace
/// is dependency-free).
#[must_use]
pub fn to_json(config: &StreamBenchConfig, points: &[BenchPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"streaming_vs_recompute\",");
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        crate::fleet::host_parallelism()
    );
    let _ = writeln!(out, "  \"duration_s\": {},", config.duration_s);
    let _ = writeln!(out, "  \"cadence_s\": {},", config.cadence_s);
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"users\": {},", p.users);
        let _ = writeln!(out, "      \"window_s\": {},", p.window_s);
        let _ = writeln!(out, "      \"reports\": {},", p.reports);
        let _ = writeln!(out, "      \"incremental\": {},", path_json(&p.incremental));
        let _ = writeln!(out, "      \"recompute\": {},", path_json(&p.recompute));
        let _ = writeln!(
            out,
            "      \"push_only_ns_per_report\": {:.1},",
            p.push_only_ns_per_report
        );
        let _ = writeln!(out, "      \"speedup\": {:.3}", p.speedup());
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn path_json(t: &PathTiming) -> String {
    format!(
        "{{\"total_ms\": {:.3}, \"per_report_ns\": {:.1}, \"snapshot_ms\": {:.3}, \"reports_per_s\": {:.0}}}",
        t.total_ms, t.per_report_ns, t.snapshot_ms, t.reports_per_s
    )
}

/// Renders a human-readable summary table.
#[must_use]
pub fn render(points: &[BenchPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>9} {:>9} | {:>12} {:>14} {:>13} | {:>14} {:>13} | {:>8}",
        "users",
        "window_s",
        "reports",
        "push ns/rep",
        "inc ns/report",
        "inc snap ms",
        "rec ns/report",
        "rec snap ms",
        "speedup"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>6} {:>9} {:>9} | {:>12.0} {:>14.0} {:>13.2} | {:>14.0} {:>13.2} | {:>7.1}x",
            p.users,
            p.window_s,
            p.reports,
            p.push_only_ns_per_report,
            p.incremental.per_report_ns,
            p.incremental.snapshot_ms,
            p.recompute.per_report_ns,
            p.recompute.snapshot_ms,
            p.speedup()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_runs_and_serialises() {
        let cfg = StreamBenchConfig {
            users: vec![1],
            windows_s: vec![10.0],
            duration_s: 12.0,
            cadence_s: 5.0,
        };
        let points = run(&cfg);
        assert_eq!(points.len(), 1);
        assert!(points[0].reports > 0);
        let json = to_json(&cfg, &points);
        assert!(json.contains("\"streaming_vs_recompute\""));
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"host_parallelism\""));
        let table = render(&points);
        assert!(table.contains("speedup"));
    }

    #[test]
    fn trace_sidecar_is_valid_chrome_json() {
        let cfg = StreamBenchConfig {
            users: vec![1],
            windows_s: vec![10.0],
            duration_s: 12.0,
            cadence_s: 5.0,
        };
        let (chrome, dropped) = trace_sidecar(&cfg);
        obs::json::validate(&chrome).expect("trace sidecar parses");
        assert!(chrome.contains("\"traceEvents\""));
        assert_eq!(dropped, 0, "smoke ring should not overflow");
    }

    #[test]
    fn synthetic_trace_is_time_sorted_and_analysable() {
        let plan = PipelineConfig::paper_default().plan;
        let trace = synthetic_trace(2, 30.0, &plan);
        assert!(trace.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        let analysis =
            BreathMonitor::paper_default().analyze(&trace, &EmbeddedIdentity::new([1, 2]));
        for user in [1u64, 2] {
            let bpm = analysis.users[&user]
                .as_ref()
                .ok()
                .and_then(tagbreathe::UserAnalysis::mean_rate_bpm)
                .unwrap_or(0.0);
            assert!((bpm - 12.0).abs() < 1.0, "user {user}: {bpm} bpm");
        }
    }
}
