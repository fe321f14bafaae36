//! Sharded-vs-single-thread equivalence for the fleet engine.
//!
//! The fleet engine's contract is stronger than "statistically close": for
//! any shard count, the merged snapshot stream must be **bit-identical**
//! to what the single-threaded `StreamingMonitor` produces from the same
//! trace. Reports travel to shards as `f64::to_bits` words, each shard
//! drives the same `UserStreamState` operators in the same stream order,
//! and parts merge in epoch order — so equality here is `to_bits`
//! equality, not a tolerance.

use tagbreathe_suite::prelude::*;
use tagbreathe_suite::tagbreathe::fleet::FleetEngine;

const WINDOW_S: f64 = 15.0;
const CADENCE_S: f64 = 5.0;

fn capture_multi_user(secs: f64) -> (Vec<TagReport>, Vec<u64>) {
    let scenario = Scenario::builder()
        .users_side_by_side(3, 3.0, &[9.0, 12.0, 16.0])
        .contending_items(10)
        .build();
    let ids: Vec<u64> = scenario.subjects().iter().map(|s| s.user_id()).collect();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(11),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    (reader.run(&ScenarioWorld::new(scenario), secs), ids)
}

fn single_thread(reports: &[TagReport], ids: &[u64]) -> Vec<RateSnapshot> {
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        WINDOW_S,
        CADENCE_S,
    )
    .unwrap();
    sm.push(reports.iter().cloned())
}

fn new_fleet(ids: &[u64], shards: usize) -> FleetEngine<EmbeddedIdentity> {
    FleetEngine::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.to_vec()),
        WINDOW_S,
        CADENCE_S,
        shards,
    )
    .unwrap()
}

fn sharded(reports: &[TagReport], ids: &[u64], shards: usize) -> Vec<RateSnapshot> {
    let mut fleet = new_fleet(ids, shards);
    let mut snaps = fleet.push(reports.iter().cloned());
    snaps.extend(fleet.finish());
    snaps
}

/// `assert_eq!` on `RateSnapshot` compares floats with `==`; make the
/// bit-level claim explicit as well, so `-0.0 == 0.0`-style coincidences
/// cannot mask a real divergence.
fn assert_bit_identical(a: &[RateSnapshot], b: &[RateSnapshot], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: snapshot count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.time_s.to_bits(), y.time_s.to_bits(), "{what}: time");
        let pairs = |m: &std::collections::BTreeMap<u64, f64>| -> Vec<(u64, u64)> {
            m.iter().map(|(&k, v)| (k, v.to_bits())).collect()
        };
        assert_eq!(
            pairs(&x.rates_bpm),
            pairs(&y.rates_bpm),
            "{what}: rates at t={}",
            x.time_s
        );
        assert_eq!(
            pairs(&x.effort_rms),
            pairs(&y.effort_rms),
            "{what}: efforts at t={}",
            x.time_s
        );
    }
}

#[test]
fn sharded_matches_single_thread_at_every_width() {
    let (reports, ids) = capture_multi_user(60.0);
    let reference = single_thread(&reports, &ids);
    assert!(
        reference.iter().any(|s| !s.rates_bpm.is_empty()),
        "reference run produced no rates — test would be vacuous"
    );
    for shards in [1, 2, 4, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("{shards} shards"));
    }
}

#[test]
fn watermark_advances_across_shards_with_disjoint_activity() {
    // User 1 reports only early, user 2 only late. With 2+ shards the two
    // live on (usually) different shards, so the late user's reports must
    // still drive cadence snapshots of the idle shard — the cross-shard
    // watermark handoff.
    let mk = |user: u64, t: f64, phase: f64| TagReport {
        time_s: t,
        epc: Epc96::monitor(user, 0),
        antenna_port: 1,
        channel_index: 0,
        phase_rad: phase.rem_euclid(std::f64::consts::TAU),
        rssi_dbm: -55.0,
        doppler_hz: 0.0,
    };
    let mut reports = Vec::new();
    let mut t = 0.0;
    while t < 10.0 {
        reports.push(mk(
            1,
            t,
            1.0 + (2.0 * std::f64::consts::PI * 0.2 * t).sin() * 0.1,
        ));
        t += 0.03;
    }
    let mut t = 20.0;
    while t < 31.0 {
        reports.push(mk(
            2,
            t,
            1.5 + (2.0 * std::f64::consts::PI * 0.25 * t).sin() * 0.1,
        ));
        t += 0.03;
    }
    let ids = [1u64, 2];
    let reference = single_thread(&reports, &ids);
    assert!(
        reference.len() >= 6,
        "expected cadence points through the idle gap, got {}",
        reference.len()
    );
    for shards in [2, 4, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("watermark/{shards} shards"));
    }
}

#[test]
fn out_of_order_timestamps_are_handled_identically() {
    // Swap adjacent reports pairwise: small local reordering, as an LLRP
    // event stream can deliver. Both engines must process the perturbed
    // stream identically (watermarks are max-monotone, not assumed
    // sorted).
    let (mut reports, ids) = capture_multi_user(40.0);
    for pair in reports.chunks_mut(2) {
        pair.reverse();
    }
    let reference = single_thread(&reports, &ids);
    for shards in [2, 8] {
        let fleet = sharded(&reports, &ids, shards);
        assert_bit_identical(&reference, &fleet, &format!("ooo/{shards} shards"));
    }
}

#[test]
fn fleet_snapshots_drain_on_finish_even_mid_cadence() {
    // Pushing a stream that ends between cadence points: finish() must
    // return exactly the snapshots the single-thread engine produced, no
    // trailing partial epoch.
    let (reports, ids) = capture_multi_user(23.0);
    let reference = single_thread(&reports, &ids);
    let fleet = sharded(&reports, &ids, 4);
    assert_bit_identical(&reference, &fleet, "mid-cadence finish");
}

#[test]
fn router_metrics_agree_across_executors() {
    use std::sync::Arc;
    use tagbreathe_suite::obs::Label;
    use tagbreathe_suite::tagbreathe::metrics;

    let (reports, ids) = capture_multi_user(30.0);
    let inline = Arc::new(Registry::new());
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        WINDOW_S,
        CADENCE_S,
    )
    .unwrap()
    .with_recorder(SharedRecorder::new(inline.clone()));
    let inline_snaps = sm.push(reports.iter().cloned());
    assert!(
        inline.counter(metrics::REPORTS_UNKNOWN) > 0,
        "trace has items"
    );
    let port_gauges = |registry: &Registry| -> Vec<Option<u64>> {
        (0..=4u8)
            .flat_map(|port| {
                [metrics::PORT_RSSI_EWMA_DBM, metrics::PORT_READ_RATE_HZ].map(|name| {
                    registry
                        .labeled_gauge(name, Some(Label::port(port)))
                        .map(f64::to_bits)
                })
            })
            .collect()
    };
    assert!(port_gauges(&inline).iter().any(Option::is_some));

    for shards in [1, 2] {
        let fleet_registry = Arc::new(Registry::new());
        let mut fleet = FleetEngine::observed(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new(ids.clone()),
            WINDOW_S,
            CADENCE_S,
            shards,
            SharedRecorder::new(fleet_registry.clone()),
        )
        .unwrap();
        let mut snaps = fleet.push(reports.iter().cloned());
        snaps.extend(fleet.finish());
        assert_bit_identical(&inline_snaps, &snaps, &format!("{shards} shards"));
        for name in [
            metrics::REPORTS_INGESTED,
            metrics::REPORTS_UNKNOWN,
            metrics::SNAPSHOTS,
            metrics::RATES_REPORTED,
        ] {
            assert_eq!(
                inline.counter(name),
                fleet_registry.counter(name),
                "{name} at {shards} shards"
            );
        }
        assert_eq!(
            port_gauges(&inline),
            port_gauges(&fleet_registry),
            "per-port link quality at {shards} shards"
        );
    }
}

#[test]
fn hostile_timestamps_are_dropped_identically() {
    let (mut reports, ids) = capture_multi_user(20.0);
    let template = reports[reports.len() / 2];
    for (k, time_s) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .enumerate()
    {
        reports.insert(
            reports.len() / 4 * (k + 1),
            TagReport { time_s, ..template },
        );
    }
    reports.push(TagReport {
        time_s: 1e300,
        ..template
    });
    let inline = single_thread(&reports, &ids);
    assert!(inline.len() >= 4, "only {} snapshots", inline.len());
    assert!(inline
        .iter()
        .all(|s| s.rates_bpm.values().all(|bpm| bpm.is_finite())));
    for shards in [1, 2] {
        assert_bit_identical(
            &inline,
            &sharded(&reports, &ids, shards),
            &format!("hostile trace at {shards} shards"),
        );
    }
}

#[test]
fn hostile_phase_and_rssi_are_dropped_before_they_touch_state() {
    // A NaN phase as a channel's first read would pin a NaN unwrap
    // reference there; a NaN RSSI would leave the tag's mean RSSI NaN for
    // good. Both are dropped at ingest, so the hostile stream snapshots
    // bit-identically to the clean one, inline and sharded.
    use std::sync::Arc;
    use tagbreathe_suite::tagbreathe::metrics;

    let (clean, ids) = capture_multi_user(20.0);
    let every = clean.len() / 6;
    let mut hostile = Vec::with_capacity(clean.len() + 24);
    for (i, r) in clean.iter().enumerate() {
        // i = 0 is the stream's first read, so the first on its channel.
        if i % every == 0 {
            hostile.push(TagReport {
                phase_rad: f64::NAN,
                ..*r
            });
            hostile.push(TagReport {
                rssi_dbm: f64::NAN,
                ..*r
            });
            hostile.push(TagReport {
                phase_rad: f64::INFINITY,
                rssi_dbm: f64::NEG_INFINITY,
                ..*r
            });
        }
        hostile.push(*r);
    }
    let dropped = hostile.len() - clean.len();
    let want = single_thread(&clean, &ids);
    assert!(want.len() >= 3, "only {} snapshots", want.len());
    assert_bit_identical(&want, &single_thread(&hostile, &ids), "hostile inline");
    for shards in [1, 2] {
        assert_bit_identical(
            &want,
            &sharded(&hostile, &ids, shards),
            &format!("hostile phase/RSSI at {shards} shards"),
        );
    }
    let registry = Arc::new(Registry::new());
    let mut sm = StreamingMonitor::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new(ids.clone()),
        WINDOW_S,
        CADENCE_S,
    )
    .unwrap()
    .with_recorder(SharedRecorder::new(registry.clone()));
    assert_bit_identical(&want, &sm.push(hostile.iter().cloned()), "observed");
    assert_eq!(registry.counter(metrics::REPORTS_NONFINITE), dropped as u64);
}

// Wake protocol: idle shard workers park, and the router unparks them
// after publishing. A lost wake shows up as a hang, so every fleet call
// below runs under a deadline.

/// An idle gap long enough for every worker to finish its spin and park.
const PARK_GAP: std::time::Duration = std::time::Duration::from_millis(25);

/// Runs `f` on its own thread and fails the test if it does not return
/// within `limit`.
fn within<T: Send + 'static>(
    limit: std::time::Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not return within {limit:?}: a wake was lost")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

#[test]
fn batches_after_idle_gaps_wake_parked_workers() {
    // Each batch lands on parked workers. The cadence points it makes due
    // must then surface from later empty pushes (which publish nothing,
    // so wake nobody): only the wake at the end of the batch itself can
    // have got the workers to analyse them.
    let (reports, ids) = capture_multi_user(30.0);
    let reference = single_thread(&reports, &ids);
    assert!(reference.len() >= 5, "only {} snapshots", reference.len());
    for shards in [1, 2] {
        let (reports, ids, due) = (reports.clone(), ids.clone(), reference.clone());
        let fleet = within(
            std::time::Duration::from_secs(30),
            "gapped pushes",
            move || {
                let mut fleet = new_fleet(&ids, shards);
                let mut snaps = Vec::new();
                let mut watermark = f64::NEG_INFINITY;
                for batch in reports.chunks(200) {
                    std::thread::sleep(PARK_GAP);
                    snaps.extend(fleet.push(batch.iter().cloned()));
                    watermark = batch.iter().fold(watermark, |w, r| w.max(r.time_s));
                    let expected = due.iter().filter(|s| s.time_s <= watermark).count();
                    while snaps.len() < expected {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        snaps.extend(fleet.push(std::iter::empty()));
                    }
                }
                std::thread::sleep(PARK_GAP);
                snaps.extend(fleet.finish());
                snaps
            },
        );
        assert_bit_identical(&reference, &fleet, &format!("gapped/{shards} shards"));
    }
}

#[test]
fn one_push_larger_than_the_ring_wakes_a_parked_worker() {
    // At one shard every routed report lands on the same 1024-slot ring,
    // so the router fills it long before the push ends: only the
    // stall-path wake can get the parked worker to drain it.
    let (reports, ids) = capture_multi_user(60.0);
    assert!(reports.len() > 4 * 1024, "{} reports", reports.len());
    let reference = single_thread(&reports, &ids);
    for shards in [1, 2] {
        let (reports, ids) = (reports.clone(), ids.clone());
        let fleet = within(
            std::time::Duration::from_secs(30),
            "one oversized push",
            move || {
                let mut fleet = new_fleet(&ids, shards);
                std::thread::sleep(PARK_GAP);
                let mut snaps = fleet.push(reports);
                snaps.extend(fleet.finish());
                snaps
            },
        );
        assert_bit_identical(&reference, &fleet, &format!("oversized/{shards} shards"));
    }
}

#[test]
fn finish_and_drop_return_promptly_after_a_long_idle() {
    let (reports, ids) = capture_multi_user(12.0);
    let reference = single_thread(&reports, &ids);
    for shards in [1, 2] {
        let (batch, fleet_ids) = (reports.clone(), ids.clone());
        let finished = within(
            std::time::Duration::from_secs(10),
            "finish after idle",
            move || {
                let mut fleet = new_fleet(&fleet_ids, shards);
                let mut snaps = fleet.push(batch);
                std::thread::sleep(PARK_GAP * 8);
                snaps.extend(fleet.finish());
                snaps
            },
        );
        assert_bit_identical(
            &reference,
            &finished,
            &format!("idle finish/{shards} shards"),
        );

        let (batch, fleet_ids) = (reports.clone(), ids.clone());
        within(
            std::time::Duration::from_secs(10),
            "drop after idle",
            move || {
                let mut fleet = new_fleet(&fleet_ids, shards);
                let _ = fleet.push(batch);
                std::thread::sleep(PARK_GAP * 8);
                drop(fleet);
            },
        );
    }
}
