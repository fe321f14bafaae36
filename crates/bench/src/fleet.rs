//! Fleet-engine scaling benchmark: users × shard threads.
//!
//! Streams a synthetic fixed-aggregate-rate trace (a commodity reader's
//! MAC throughput does not grow with the tag population — more users just
//! share the same read budget) through [`FleetEngine`] at several shard
//! widths and through the single-threaded [`StreamingMonitor`] baseline,
//! measuring end-to-end ingest throughput including cadence snapshots.
//!
//! Every run self-validates: the smallest sweep point is replayed through
//! the widest fleet and the single-threaded engine, and the two snapshot
//! streams must be bit-identical (`f64::to_bits` equality) or the bench
//! reports failure. Results are written as machine-readable JSON
//! (`BENCH_fleet.json`) by the `stream_bench --fleet` driver, including
//! `host_parallelism` so scaling numbers are read against the cores that
//! were actually available.

use epcgen2::epc::Epc96;
use epcgen2::mapping::{IdentityResolver, TagIdentity};
use epcgen2::report::TagReport;
use obs::recorder::{Label, SharedRecorder};
use obs::registry::Registry;
use obs::Stage;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tagbreathe::fleet::FleetEngine;
use tagbreathe::pipeline::{RateSnapshot, StreamingMonitor};
use tagbreathe::PipelineConfig;

/// O(1) resolver for the dense synthetic population `1..=max_user`: the
/// linear-scan [`EmbeddedIdentity`](epcgen2::mapping::EmbeddedIdentity)
/// would make 100k-user admission quadratic.
#[derive(Debug, Clone)]
pub struct RangeIdentity {
    /// Largest user ID (inclusive) treated as a monitoring user.
    pub max_user: u64,
}

impl IdentityResolver for RangeIdentity {
    fn resolve(&self, epc: Epc96) -> TagIdentity {
        let user_id = epc.user_id();
        if (1..=self.max_user).contains(&user_id) {
            TagIdentity::Monitor {
                user_id,
                tag_id: epc.tag_id(),
            }
        } else {
            TagIdentity::Unknown
        }
    }
}

/// Sweep configuration of the fleet benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchConfig {
    /// Monitored-population sizes to sweep.
    pub users: Vec<usize>,
    /// Shard (worker thread) counts to sweep.
    pub shards: Vec<usize>,
    /// Aggregate reader throughput shared by the population, reads/s.
    pub aggregate_hz: f64,
    /// Trace duration per point, seconds.
    pub duration_s: f64,
    /// Analysis window, seconds.
    pub window_s: f64,
    /// Snapshot cadence, seconds.
    pub cadence_s: f64,
}

impl FleetBenchConfig {
    /// The full sweep the issue asks for: 1k / 10k / 100k users ×
    /// 1 / 2 / 4 / 8 shards.
    #[must_use]
    pub fn quick() -> Self {
        FleetBenchConfig {
            users: vec![1_000, 10_000, 100_000],
            shards: vec![1, 2, 4, 8],
            aggregate_hz: 2_000.0,
            duration_s: 60.0,
            window_s: 25.0,
            cadence_s: 5.0,
        }
    }

    /// Tiny CI smoke point.
    #[must_use]
    pub fn smoke() -> Self {
        FleetBenchConfig {
            users: vec![200],
            shards: vec![1, 2],
            aggregate_hz: 1_000.0,
            duration_s: 12.0,
            window_s: 10.0,
            cadence_s: 5.0,
        }
    }
}

/// Reports generated per chunk; chunking keeps the 100k-user points from
/// materialising multi-hundred-megabyte traces.
const CHUNK_REPORTS: usize = 8_192;

/// Generates the trace chunk covering reports `[start, start + len)` of
/// the round-robin fixed-aggregate-rate stream.
#[must_use]
pub fn trace_chunk(
    n_users: usize,
    aggregate_hz: f64,
    start: usize,
    len: usize,
    plan: &rfchannel::channel_plan::ChannelPlan,
) -> Vec<TagReport> {
    let mut reports = Vec::with_capacity(len);
    for i in start..start + len {
        let t = i as f64 / aggregate_hz;
        let user = (i % n_users.max(1)) as u64 + 1;
        let tag = u32::try_from(i / n_users.max(1) % 3).unwrap_or(0);
        let channel = u16::try_from((t / 0.2) as usize % plan.len()).unwrap_or(0);
        let lambda = plan.wavelength_m(channel as usize);
        let d = 0.005 * (2.0 * std::f64::consts::PI * 0.2 * (t + user as f64)).sin();
        let offset = f64::from(channel) * 1.3;
        reports.push(TagReport {
            time_s: t,
            epc: Epc96::monitor(user, tag),
            antenna_port: 1,
            channel_index: channel,
            phase_rad: (4.0 * std::f64::consts::PI * d / lambda + offset)
                .rem_euclid(2.0 * std::f64::consts::PI),
            rssi_dbm: -55.0,
            doppler_hz: 0.0,
        });
    }
    reports
}

/// One (users × shards) sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPoint {
    /// Monitored population.
    pub users: usize,
    /// Shard threads (0 = the single-threaded `StreamingMonitor` baseline).
    pub shards: usize,
    /// Reports streamed.
    pub reports: usize,
    /// Snapshots produced.
    pub snapshots: usize,
    /// End-to-end wall time (ingest + snapshots + finish), milliseconds.
    pub total_ms: f64,
    /// Reports per second of wall time.
    pub reports_per_s: f64,
    /// Median ingest→snapshot lag (freshness stage `shard_ingest`), ns.
    /// 0 for the inline baseline, which has no fleet lag attribution.
    pub snapshot_lag_p50_ns: u64,
    /// p99 of the same stage, ns.
    pub snapshot_lag_p99_ns: u64,
    /// Resident stream-state bytes per resident user at the final
    /// snapshot part (the quantity the memory-ceiling ratchet bounds).
    pub bytes_per_resident_user: f64,
}

fn total_reports(config: &FleetBenchConfig) -> usize {
    (config.duration_s * config.aggregate_hz) as usize
}

fn time_fleet(config: &FleetBenchConfig, n_users: usize, shards: usize) -> FleetPoint {
    let plan = PipelineConfig::paper_default().plan;
    let resolver = RangeIdentity {
        max_user: n_users as u64,
    };
    // An observed run: the recorder's overhead is part of the deployment
    // shape the bench characterises, and its registry is what the lag and
    // resident-memory columns read afterwards.
    let registry = Arc::new(Registry::new());
    let mut fleet = FleetEngine::observed(
        PipelineConfig::paper_default(),
        resolver,
        config.window_s,
        config.cadence_s,
        shards,
        SharedRecorder::new(registry.clone()),
    )
    .expect("bench config is valid");
    let n = total_reports(config);
    let start = Instant::now();
    let mut snapshots = 0usize;
    let mut at = 0usize;
    while at < n {
        let len = CHUNK_REPORTS.min(n - at);
        let chunk = trace_chunk(n_users, config.aggregate_hz, at, len, &plan);
        snapshots += black_box(fleet.push(chunk)).len();
        at += len;
    }
    snapshots += black_box(fleet.finish()).len();
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let lag = registry.labeled_histogram(
        tagbreathe::metrics::SNAPSHOT_LAG_NS,
        Some(Label::stage(Stage::ShardIngest.code())),
    );
    let quantile = |q: f64| lag.as_ref().and_then(|h| h.quantile(q)).unwrap_or_default();
    let mut bytes = 0.0;
    let mut resident_users = 0.0;
    for shard in 0..u32::try_from(shards.max(1)).unwrap_or(u32::MAX) {
        let label = Some(Label::shard(shard));
        bytes += registry
            .labeled_gauge(tagbreathe::metrics::FLEET_RESIDENT_BYTES, label)
            .unwrap_or(0.0);
        resident_users += registry
            .labeled_gauge(tagbreathe::metrics::FLEET_SHARD_USERS, label)
            .unwrap_or(0.0);
    }
    FleetPoint {
        users: n_users,
        shards,
        reports: n,
        snapshots,
        total_ms,
        reports_per_s: n as f64 / (total_ms / 1e3),
        snapshot_lag_p50_ns: quantile(0.5),
        snapshot_lag_p99_ns: quantile(0.99),
        bytes_per_resident_user: if resident_users > 0.0 {
            bytes / resident_users
        } else {
            0.0
        },
    }
}

fn time_single(config: &FleetBenchConfig, n_users: usize) -> FleetPoint {
    let plan = PipelineConfig::paper_default().plan;
    let resolver = RangeIdentity {
        max_user: n_users as u64,
    };
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        resolver,
        config.window_s,
        config.cadence_s,
    )
    .expect("bench config is valid");
    let n = total_reports(config);
    let start = Instant::now();
    let mut snapshots = 0usize;
    let mut at = 0usize;
    while at < n {
        let len = CHUNK_REPORTS.min(n - at);
        let chunk = trace_chunk(n_users, config.aggregate_hz, at, len, &plan);
        snapshots += black_box(sm.push(chunk)).len();
        at += len;
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    FleetPoint {
        users: n_users,
        shards: 0,
        reports: n,
        snapshots,
        total_ms,
        reports_per_s: n as f64 / (total_ms / 1e3),
        snapshot_lag_p50_ns: 0,
        snapshot_lag_p99_ns: 0,
        bytes_per_resident_user: 0.0,
    }
}

/// Outcome of the bit-identity self-check run at the smallest sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivalenceCheck {
    /// Population the check replayed.
    pub users: usize,
    /// Widest shard count it compared against the single-thread engine.
    pub shards: usize,
    /// Snapshots compared.
    pub snapshots: usize,
    /// True when every rate and effort matched to the bit.
    pub bit_identical: bool,
}

fn snapshots_equal(a: &[RateSnapshot], b: &[RateSnapshot]) -> bool {
    let key = |s: &RateSnapshot| {
        (
            s.time_s.to_bits(),
            s.rates_bpm
                .iter()
                .map(|(&u, v)| (u, v.to_bits()))
                .collect::<Vec<_>>(),
            s.effort_rms
                .iter()
                .map(|(&u, v)| (u, v.to_bits()))
                .collect::<Vec<_>>(),
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// Replays the smallest sweep point through both engines and compares the
/// snapshot streams bit for bit.
#[must_use]
pub fn equivalence_check(config: &FleetBenchConfig) -> EquivalenceCheck {
    let n_users = config.users.iter().copied().min().unwrap_or(1).min(1_000);
    let shards = config.shards.iter().copied().max().unwrap_or(1);
    let plan = PipelineConfig::paper_default().plan;
    let resolver = RangeIdentity {
        max_user: n_users as u64,
    };
    let n = total_reports(config).min(60_000);
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        resolver.clone(),
        config.window_s,
        config.cadence_s,
    )
    .expect("bench config is valid");
    let mut fleet = FleetEngine::new(
        PipelineConfig::paper_default(),
        resolver,
        config.window_s,
        config.cadence_s,
        shards,
    )
    .expect("bench config is valid");
    let mut single = Vec::new();
    let mut merged = Vec::new();
    let mut at = 0usize;
    while at < n {
        let len = CHUNK_REPORTS.min(n - at);
        let chunk = trace_chunk(n_users, config.aggregate_hz, at, len, &plan);
        single.extend(sm.push(chunk.iter().cloned()));
        merged.extend(fleet.push(chunk));
        at += len;
    }
    merged.extend(fleet.finish());
    EquivalenceCheck {
        users: n_users,
        shards,
        snapshots: single.len(),
        bit_identical: snapshots_equal(&single, &merged),
    }
}

/// Runs the full sweep: one single-thread baseline per population, then
/// every shard width.
#[must_use]
pub fn run(config: &FleetBenchConfig) -> Vec<FleetPoint> {
    let mut points = Vec::new();
    for &n_users in &config.users {
        points.push(time_single(config, n_users));
        for &shards in &config.shards {
            points.push(time_fleet(config, n_users, shards));
        }
    }
    points
}

/// Renders the sweep as an aligned text table.
#[must_use]
pub fn render(points: &[FleetPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>10} {:>6} {:>12} {:>14} {:>12} {:>12} {:>12}",
        "users",
        "shards",
        "reports",
        "snaps",
        "total_ms",
        "reports/s",
        "lag_p50_ms",
        "lag_p99_ms",
        "bytes/user"
    );
    for p in points {
        let shards = if p.shards == 0 {
            "inline".to_string()
        } else {
            p.shards.to_string()
        };
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>10} {:>6} {:>12.1} {:>14.0} {:>12.3} {:>12.3} {:>12.0}",
            p.users,
            shards,
            p.reports,
            p.snapshots,
            p.total_ms,
            p.reports_per_s,
            p.snapshot_lag_p50_ns as f64 / 1e6,
            p.snapshot_lag_p99_ns as f64 / 1e6,
            p.bytes_per_resident_user,
        );
    }
    out
}

/// Worker threads the host can actually run in parallel.
#[must_use]
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Whether every configured shard count fits the host: once the sweep
/// asks for more shard threads than cores, the "scaling" numbers mostly
/// measure scheduler time-slicing and must not be read as speedups.
#[must_use]
pub fn scaling_valid(config: &FleetBenchConfig, host_parallelism: usize) -> bool {
    config
        .shards
        .iter()
        .all(|&shards| shards <= host_parallelism)
}

/// Serialises the sweep (with the self-check verdict and host parallelism)
/// as JSON.
#[must_use]
pub fn to_json(
    config: &FleetBenchConfig,
    points: &[FleetPoint],
    check: &EquivalenceCheck,
) -> String {
    use std::fmt::Write as _;
    let host_parallelism = host_parallelism();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"fleet_scaling\",");
    let _ = writeln!(out, "  \"host_parallelism\": {host_parallelism},");
    let _ = writeln!(
        out,
        "  \"scaling_valid\": {},",
        scaling_valid(config, host_parallelism)
    );
    let _ = writeln!(out, "  \"aggregate_hz\": {},", config.aggregate_hz);
    let _ = writeln!(out, "  \"duration_s\": {},", config.duration_s);
    let _ = writeln!(out, "  \"window_s\": {},", config.window_s);
    let _ = writeln!(out, "  \"cadence_s\": {},", config.cadence_s);
    let _ = writeln!(out, "  \"equivalence\": {{");
    let _ = writeln!(out, "    \"users\": {},", check.users);
    let _ = writeln!(out, "    \"shards\": {},", check.shards);
    let _ = writeln!(out, "    \"snapshots\": {},", check.snapshots);
    let _ = writeln!(out, "    \"bit_identical\": {}", check.bit_identical);
    let _ = writeln!(out, "  }},");
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"users\": {},", p.users);
        let _ = writeln!(out, "      \"shards\": {},", p.shards);
        let _ = writeln!(out, "      \"reports\": {},", p.reports);
        let _ = writeln!(out, "      \"snapshots\": {},", p.snapshots);
        let _ = writeln!(out, "      \"total_ms\": {:.1},", p.total_ms);
        let _ = writeln!(out, "      \"reports_per_s\": {:.0},", p.reports_per_s);
        let _ = writeln!(
            out,
            "      \"snapshot_lag_p50_ns\": {},",
            p.snapshot_lag_p50_ns
        );
        let _ = writeln!(
            out,
            "      \"snapshot_lag_p99_ns\": {},",
            p.snapshot_lag_p99_ns
        );
        let _ = writeln!(
            out,
            "      \"bytes_per_resident_user\": {:.0}",
            p.bytes_per_resident_user
        );
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_runs_and_serialises() {
        let mut config = FleetBenchConfig::smoke();
        config.duration_s = 6.0;
        let points = run(&config);
        assert_eq!(points.len(), config.users.len() * (config.shards.len() + 1));
        let check = equivalence_check(&config);
        assert!(check.bit_identical, "fleet diverged from single-thread");
        let json = to_json(&config, &points, &check);
        obs::json::validate(&json).expect("bench JSON must parse");
        assert!(json.contains("\"host_parallelism\""));
        assert!(json.contains("\"scaling_valid\""));
        assert!(json.contains("\"snapshot_lag_p50_ns\""));
        assert!(json.contains("\"snapshot_lag_p99_ns\""));
        assert!(json.contains("\"bytes_per_resident_user\""));
        assert!(
            points
                .iter()
                .filter(|p| p.shards > 0)
                .all(|p| p.bytes_per_resident_user > 0.0),
            "fleet points carry a resident-memory measurement"
        );
        assert!(render(&points).contains("inline"));
    }

    #[test]
    fn scaling_validity_compares_shards_against_cores() {
        let config = FleetBenchConfig::quick(); // shards up to 8
        assert!(scaling_valid(&config, 8));
        assert!(!scaling_valid(&config, 4));
        let smoke = FleetBenchConfig::smoke(); // shards up to 2
        assert!(scaling_valid(&smoke, 2));
        assert!(!scaling_valid(&smoke, 1));
    }

    #[test]
    fn trace_chunks_are_time_ordered_and_contiguous() {
        let plan = PipelineConfig::paper_default().plan;
        let a = trace_chunk(50, 1_000.0, 0, 100, &plan);
        let b = trace_chunk(50, 1_000.0, 100, 100, &plan);
        assert_eq!(a.len(), 100);
        let all: Vec<f64> = a.iter().chain(&b).map(|r| r.time_s).collect();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn range_identity_matches_embedded_semantics() {
        let r = RangeIdentity { max_user: 10 };
        assert_eq!(
            r.resolve(Epc96::monitor(3, 1)),
            TagIdentity::Monitor {
                user_id: 3,
                tag_id: 1
            }
        );
        assert_eq!(r.resolve(Epc96::monitor(11, 0)), TagIdentity::Unknown);
        assert_eq!(r.resolve(Epc96::monitor(0, 0)), TagIdentity::Unknown);
    }
}
