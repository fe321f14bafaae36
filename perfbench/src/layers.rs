//! Per-layer costs: spans around the benchmark's own calls into each
//! layer's public functions, on the workload's seeded input, plus the
//! counters and timings the traced live run collected.

use crate::gen::Generator;
use crate::live::{HttpKind, LiveResult};
use crate::stats;
use crate::trace::SpanLog;
use crate::workload::Workload;
use crate::Metric;
use epcgen2::wire::{decode_frame, encode_frame, Message};
use epcgen2::OpenAdmission;
use obs::recorder::SharedRecorder;
use obs::registry::Registry;
use server::LaneMerger;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tagbreathe::extract::extract_breath_signal;
use tagbreathe::flight::{FlightDiagnostics, TriggerConfig};
use tagbreathe::rate::estimate_rate;
use tagbreathe::{
    FleetEngine, PipelineConfig, RateSnapshot, StreamingMonitor, TagReport, UserStreamState,
};

/// Stream seconds fed through the wire and merge layers.
const CODEC_STREAM_S: f64 = 5.0;
/// Stream seconds fed through each fleet configuration.
const FLEET_STREAM_S: f64 = 10.0;
/// Users whose operator graphs are timed one by one.
const OPERATOR_USERS: u64 = 64;
/// Renders of the live registry timed for `obs.render_prometheus_us`.
const RENDERS: usize = 21;

/// Batches covering `stream_s` seconds.
fn batches_for(gen: &Generator, stream_s: f64) -> u64 {
    (stream_s / gen.population().batch_span_s).ceil() as u64
}

/// Feeds the merged stream of the first `batches` batches of every
/// session to `sink`, one released run at a time.
fn merged(gen: &Generator, batches: u64, mut sink: impl FnMut(Vec<TagReport>)) {
    let sessions = gen.population().sessions;
    let mut merger = LaneMerger::new();
    for reader in 1..=sessions {
        merger.open(reader);
    }
    for k in 0..batches {
        for s in 0..sessions {
            let batch = gen.batch(s, k);
            let clock = batch.first().map_or(0.0, |r| r.time_s);
            merger.push(s + 1, batch, clock);
            let released = merger.release();
            if !released.is_empty() {
                sink(released);
            }
        }
    }
    let rest = merger.drain_all();
    if !rest.is_empty() {
        sink(rest);
    }
}

fn ns_per(total_ns: u64, count: u64) -> f64 {
    total_ns as f64 / count.max(1) as f64
}

/// `wire.decode_ns_per_report`: `decode_frame` over every batch frame.
fn wire_layer(gen: &Generator, spans: &mut SpanLog) -> Result<f64, String> {
    let root = spans.open("layer.wire", 0, 0);
    let mut reports = 0u64;
    for k in 0..batches_for(gen, CODEC_STREAM_S) {
        for s in 0..gen.population().sessions {
            let batch = gen.batch(s, k);
            reports += batch.len() as u64;
            let frame = encode_frame(&Message::Batch {
                seq: u32::try_from(k).unwrap_or(u32::MAX),
                reader_clock_s: batch.first().map_or(0.0, |r| r.time_s),
                reports: batch,
            });
            let decoded = spans.time("wire.decode_frame", root, k, || decode_frame(&frame));
            decoded.map_err(|e| format!("decode_frame: {e}"))?;
        }
    }
    spans.close(root);
    Ok(ns_per(spans.total_ns("wire.decode_frame"), reports))
}

/// `merge.ns_per_report` and `merge.pending_peak`: `LaneMerger::push` and
/// `release` with one lane per session.
fn merge_layer(gen: &Generator, spans: &mut SpanLog) -> (f64, f64) {
    let root = spans.open("layer.merge", 0, 0);
    let sessions = gen.population().sessions;
    let mut merger = LaneMerger::new();
    for reader in 1..=sessions {
        merger.open(reader);
    }
    let (mut reports, mut peak) = (0u64, 0usize);
    for k in 0..batches_for(gen, CODEC_STREAM_S) {
        for s in 0..sessions {
            let batch = gen.batch(s, k);
            reports += batch.len() as u64;
            let clock = batch.first().map_or(0.0, |r| r.time_s);
            spans.time("merge.push", root, k, || merger.push(s + 1, batch, clock));
            peak = peak.max(merger.pending());
            let released = spans.time("merge.release", root, k, || merger.release());
            std::hint::black_box(released);
        }
    }
    spans.close(root);
    let total = spans.total_ns("merge.push") + spans.total_ns("merge.release");
    (ns_per(total, reports), peak as f64)
}

/// Fleet push cost per report for one recorder setting, as the server
/// runs the fleet; also returns the snapshots it produced. The merged
/// runs are built before the root span opens, so only the `FleetEngine`
/// calls are timed.
fn fleet_layer(
    w: &Workload,
    gen: &Generator,
    recorder: SharedRecorder,
    name: &'static str,
    spans: &mut SpanLog,
) -> Result<(f64, Vec<RateSnapshot>), String> {
    let mut fleet = FleetEngine::observed(
        PipelineConfig::paper_default(),
        OpenAdmission,
        w.window_s,
        w.cadence_s,
        w.shards,
        recorder,
    )
    .map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    merged(gen, batches_for(gen, FLEET_STREAM_S), |run| runs.push(run));
    let reports: u64 = runs.iter().map(|run| run.len() as u64).sum();
    let count = runs.len() as u64;
    let root = spans.open(name, 0, 0);
    let mut snapshots = Vec::new();
    let mut fleet_ns = 0u64;
    for (batch, run) in (0u64..).zip(runs) {
        let id = spans.open("fleet.push", root, batch);
        snapshots.extend(fleet.push(run));
        fleet_ns += spans.close(id);
    }
    let id = spans.open("fleet.finish", root, count);
    snapshots.extend(fleet.finish());
    fleet_ns += spans.close(id);
    spans.close(root);
    Ok((ns_per(fleet_ns, reports), snapshots))
}

/// `fleet.admit_us_per_user`: one push of a first report from every user.
fn admit_layer(w: &Workload, gen: &Generator, spans: &mut SpanLog) -> Result<f64, String> {
    let mut fleet = FleetEngine::observed(
        PipelineConfig::paper_default(),
        OpenAdmission,
        w.window_s,
        w.cadence_s,
        w.shards,
        SharedRecorder::new(Arc::new(Registry::new())),
    )
    .map_err(|e| e.to_string())?;
    let mut firsts: BTreeMap<u64, TagReport> = BTreeMap::new();
    let users = gen.population().users;
    let mut k = 0;
    while (firsts.len() as u64) < users && k < batches_for(gen, 1.0) {
        for s in 0..gen.population().sessions {
            for r in gen.batch(s, k) {
                firsts.entry(r.epc.user_id()).or_insert(r);
            }
        }
        k += 1;
    }
    let mut first_reads: Vec<TagReport> = firsts.into_values().collect();
    first_reads.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    let admitted = first_reads.len() as u64;
    let ns = {
        let id = spans.open("fleet.admit", 0, 0);
        std::hint::black_box(fleet.push(first_reads));
        spans.close(id)
    };
    std::hint::black_box(fleet.finish());
    Ok(ns as f64 / 1e3 / admitted.max(1) as f64)
}

/// `pipeline.*`: the single-threaded `StreamingMonitor` over a full
/// window, pushes timed apart from one snapshot.
fn pipeline_layer(
    w: &Workload,
    gen: &Generator,
    spans: &mut SpanLog,
) -> Result<(f64, f64), String> {
    // A cadence longer than the stream: pushes never snapshot on their own.
    let mut monitor = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        OpenAdmission,
        w.window_s,
        1e9,
    )
    .map_err(|e| e.to_string())?;
    let root = spans.open("layer.pipeline", 0, 0);
    let mut reports = 0u64;
    let mut batch = 0u64;
    merged(gen, batches_for(gen, w.window_s), |run| {
        reports += run.len() as u64;
        let snaps = spans.time("pipeline.push", root, batch, || monitor.push(run));
        std::hint::black_box(snaps);
        batch += 1;
    });
    let snap = spans.time("pipeline.snapshot", root, batch, || monitor.snapshot_now());
    std::hint::black_box(snap);
    spans.close(root);
    Ok((
        ns_per(spans.total_ns("pipeline.push"), reports),
        spans.total_ns("pipeline.snapshot") as f64 / 1e6,
    ))
}

/// `operators.*`: one `UserStreamState` per user over a full window;
/// snapshot timed with the low-pass extraction and the Eq. 5 rate.
fn operators_layer(w: &Workload, seed: u64, spans: &mut SpanLog) -> (f64, f64) {
    let config = PipelineConfig::paper_default();
    let pop = crate::gen::Population {
        users: OPERATOR_USERS.min(w.pop.users),
        ..w.pop
    };
    let gen = Generator::new(seed, pop);
    let mut per_user: BTreeMap<u64, Vec<TagReport>> = BTreeMap::new();
    for k in 0..batches_for(&gen, w.window_s) {
        for s in 0..pop.sessions {
            for r in gen.batch(s, k) {
                per_user.entry(r.epc.user_id()).or_default().push(r);
            }
        }
    }
    let root = spans.open("layer.operators", 0, 0);
    let mut reports = 0u64;
    let mut states = Vec::new();
    for (&user, reads) in &per_user {
        let mut state = UserStreamState::new();
        reports += reads.len() as u64;
        spans.time("operators.push", root, user, || {
            for r in reads {
                state.push(r.epc.tag_id(), r, &config);
            }
        });
        states.push((user, state));
    }
    for (user, state) in &states {
        let rate = spans.time("operators.snapshot", root, *user, || {
            let snap = state.snapshot(&config)?;
            let signal = extract_breath_signal(&snap.displacement, &config).ok()?;
            Some(estimate_rate(&signal, &config))
        });
        std::hint::black_box(rate);
    }
    spans.close(root);
    (
        ns_per(spans.total_ns("operators.push"), reports),
        spans.total_ns("operators.snapshot") as f64 / 1e3 / states.len().max(1) as f64,
    )
}

/// `flight.scan_us_per_snapshot`: `FlightDiagnostics::scan` over a
/// snapshot stream, with the server's recorder.
fn flight_layer(snapshots: &[RateSnapshot], spans: &mut SpanLog) -> Result<f64, String> {
    let mut flight = FlightDiagnostics::new(4096, TriggerConfig::default_config())?;
    let recorder = SharedRecorder::new(Arc::new(Registry::new()));
    for (i, snap) in snapshots.iter().enumerate() {
        spans.time("flight.scan", 0, i as u64, || {
            flight.scan(snap, recorder.as_dyn())
        });
    }
    Ok(spans.total_ns("flight.scan") as f64 / 1e3 / snapshots.len().max(1) as f64)
}

fn http_median_ms(r: &LiveResult, kind: HttpKind) -> f64 {
    let ms: Vec<f64> = r
        .http
        .iter()
        .filter(|h| h.kind == kind)
        .map(|h| h.ms)
        .collect();
    stats::median(&ms).unwrap_or(f64::NAN)
}

/// Writes the merged spans as a Chrome trace under `perfbench/out/`.
fn write_trace(w: &Workload, seed: u64, spans: &SpanLog) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name));
    std::fs::write(&path, spans.chrome()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Every per-layer metric, from the layer spans on the seeded input and
/// the traced live run (compared with the untraced one).
///
/// # Errors
///
/// Returns an error when a layer cannot be constructed or driven.
pub fn per_layer(
    w: &Workload,
    seed: u64,
    untraced: &LiveResult,
    traced: LiveResult,
    idle_cores: f64,
) -> Result<Vec<Metric>, String> {
    let gen = Generator::new(seed, w.pop);
    let mut spans = SpanLog::new(Instant::now(), 0);

    let decode_ns = wire_layer(&gen, &mut spans)?;
    let (merge_ns, pending_peak) = merge_layer(&gen, &mut spans);
    let (noop_ns, _) = fleet_layer(
        w,
        &gen,
        SharedRecorder::noop(),
        "layer.fleet.noop",
        &mut spans,
    )?;
    let (observed_ns, snapshots) = fleet_layer(
        w,
        &gen,
        SharedRecorder::new(Arc::new(Registry::new())),
        "layer.fleet.observed",
        &mut spans,
    )?;
    let admit_us = admit_layer(w, &gen, &mut spans)?;
    let (pipeline_ns, pipeline_snapshot_ms) = pipeline_layer(w, &gen, &mut spans)?;
    let (op_push_ns, op_snapshot_us) = operators_layer(w, seed, &mut spans);
    let scan_us = flight_layer(&snapshots, &mut spans)?;

    let registry = traced.registry.clone();
    let renders: Vec<f64> = (0..RENDERS)
        .map(|i| {
            let id = spans.open("obs.render_prometheus", 0, i as u64);
            std::hint::black_box(registry.render_prometheus());
            spans.close(id) as f64 / 1e3
        })
        .collect();
    let render_us = stats::median(&renders).unwrap_or(f64::NAN);

    // Freshness minus the timed layers on its blocking path: the trigger
    // batch through decode, merge and the observed fleet push, one
    // snapshot of every user on a shard, one flight scan. What is left is
    // the untimed `Publisher` and session frame loop (plus waiting).
    let batch_reports = gen.real_time_rate() * w.pop.batch_span_s;
    let timed_ms = batch_reports * (decode_ns + merge_ns + observed_ns) / 1e6
        + op_snapshot_us * w.pop.users as f64 / w.shards.max(1) as f64 / 1e3
        + scan_us / 1e3;
    let freshness: Vec<f64> = traced.freshness_ms.iter().map(|s| s.1).collect();
    let residual_ms = stats::percentile(&freshness, 0.5).unwrap_or(f64::NAN) - timed_ms;

    let frames = traced.frames.max(1) as f64;
    let metrics = vec![
        Metric {
            name: "wire.decode_ns_per_report",
            value: decode_ns,
            unit: "ns",
        },
        Metric {
            name: "client.send_blocked_share",
            value: traced.send_blocked_share,
            unit: "ratio",
        },
        Metric {
            name: "session.queue_stalls_per_kbatch",
            value: traced.queue_stalls as f64 / (frames / 1000.0),
            unit: "count",
        },
        Metric {
            name: "merge.ns_per_report",
            value: merge_ns,
            unit: "ns",
        },
        Metric {
            name: "merge.pending_peak",
            value: pending_peak,
            unit: "count",
        },
        Metric {
            name: "fleet.push_ns_per_report.noop",
            value: noop_ns,
            unit: "ns",
        },
        Metric {
            name: "fleet.push_ns_per_report.observed",
            value: observed_ns,
            unit: "ns",
        },
        Metric {
            name: "fleet.recorder_tax",
            value: observed_ns / noop_ns,
            unit: "ratio",
        },
        Metric {
            name: "fleet.admit_us_per_user",
            value: admit_us,
            unit: "us",
        },
        Metric {
            name: "fleet.idle_cpu_cores",
            value: idle_cores,
            unit: "cores",
        },
        Metric {
            name: "fleet.bytes_per_resident_user",
            value: traced.bytes_per_resident_user,
            unit: "B",
        },
        Metric {
            name: "operators.push_ns_per_report",
            value: op_push_ns,
            unit: "ns",
        },
        Metric {
            name: "operators.snapshot_us_per_user",
            value: op_snapshot_us,
            unit: "us",
        },
        Metric {
            name: "pipeline.push_ns_per_report",
            value: pipeline_ns,
            unit: "ns",
        },
        Metric {
            name: "pipeline.snapshot_ms",
            value: pipeline_snapshot_ms,
            unit: "ms",
        },
        Metric {
            name: "flight.scan_us_per_snapshot",
            value: scan_us,
            unit: "us",
        },
        Metric {
            name: "obs.render_prometheus_us",
            value: render_us,
            unit: "us",
        },
        Metric {
            name: "http.snapshot_user_ms",
            value: http_median_ms(&traced, HttpKind::Snapshot),
            unit: "ms",
        },
        Metric {
            name: "http.metrics_ms",
            value: http_median_ms(&traced, HttpKind::Metrics),
            unit: "ms",
        },
        Metric {
            name: "http.status_ms",
            value: http_median_ms(&traced, HttpKind::Status),
            unit: "ms",
        },
        Metric {
            name: "freshness.p90_ms",
            value: stats::windowed_percentile(&traced.freshness_ms, 0.9, stats::WINDOWS)
                .unwrap_or(f64::NAN),
            unit: "ms",
        },
        Metric {
            name: "http.p99_ms",
            value: stats::percentile(&traced.http.iter().map(|h| h.ms).collect::<Vec<_>>(), 0.99)
                .unwrap_or(f64::NAN),
            unit: "ms",
        },
        Metric {
            name: "publish.residual_ms",
            value: residual_ms,
            unit: "ms",
        },
        Metric {
            name: "trace.cpu_overhead_ratio",
            value: traced.cpu_ns_per_report / untraced.cpu_ns_per_report,
            unit: "ratio",
        },
    ];

    let mut all = traced.spans;
    all.absorb(spans);
    let path = write_trace(w, seed, &all)?;
    println!("# trace_file {path} ({} spans)", all.len());
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Population;

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            pop: Population {
                users: 6,
                tags_per_user: 3,
                read_hz: 60.0,
                sessions: 2,
                batch_span_s: 0.02,
            },
            speed: 2.0,
            window_s: 25.0,
            cadence_s: 1.0,
            shards: 1,
            operator_hz: 0.0,
        }
    }

    #[test]
    fn merged_stream_is_time_ordered_and_complete() {
        let gen = Generator::new(5, tiny().pop);
        let mut last = f64::NEG_INFINITY;
        let mut count = 0usize;
        merged(&gen, 50, |run| {
            for r in &run {
                assert!(r.time_s >= last);
                last = r.time_s;
            }
            count += run.len();
        });
        let expected: usize = (0..50)
            .map(|k| gen.batch(0, k).len() + gen.batch(1, k).len())
            .sum();
        assert_eq!(count, expected);
    }

    #[test]
    fn layer_timings_are_positive() -> Result<(), String> {
        let w = tiny();
        let gen = Generator::new(5, w.pop);
        let mut spans = SpanLog::new(Instant::now(), 0);
        assert!(wire_layer(&gen, &mut spans)? > 0.0);
        let (merge_ns, peak) = merge_layer(&gen, &mut spans);
        assert!(merge_ns > 0.0 && peak > 0.0);
        let (fleet_ns, snaps) = fleet_layer(
            &w,
            &gen,
            SharedRecorder::noop(),
            "layer.fleet.noop",
            &mut spans,
        )?;
        assert!(fleet_ns > 0.0 && !snaps.is_empty());
        assert!(flight_layer(&snaps, &mut spans)? > 0.0);
        Ok(())
    }
}
