//! Failure-injection tests: the pipeline must degrade gracefully — never
//! panic, and either keep estimating correctly or abstain — under corrupted
//! report streams and non-respiratory motion.

use prng::Rng;
use prng::Xoshiro256;
use tagbreathe_suite::breathing::BodyMotion;
use tagbreathe_suite::prelude::*;

fn capture(secs: f64, seed: u64) -> Vec<TagReport> {
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(1, 2.0))
        .build();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(seed),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .unwrap();
    reader.run(&ScenarioWorld::new(scenario), secs)
}

fn estimate(reports: &[TagReport]) -> Option<f64> {
    BreathMonitor::paper_default()
        .analyze(reports, &EmbeddedIdentity::new([1]))
        .users
        .get(&1)
        .and_then(|r| r.as_ref().ok())
        .and_then(|a| a.mean_rate_bpm())
}

#[test]
fn survives_random_report_loss() {
    let reports = capture(90.0, 1);
    let mut rng = Xoshiro256::seed_from_u64(42);
    for keep_fraction in [0.8, 0.5, 0.3] {
        let thinned: Vec<TagReport> = reports
            .iter()
            .filter(|_| rng.gen_f64() < keep_fraction)
            .copied()
            .collect();
        let bpm = estimate(&thinned);
        if let Some(bpm) = bpm {
            assert!(
                (bpm - 10.0).abs() < 2.5,
                "keep {keep_fraction}: estimated {bpm}"
            );
        }
        // None (abstention) is acceptable at heavy loss; garbage is not.
    }
}

#[test]
fn survives_duplicated_reports() {
    let reports = capture(60.0, 2);
    let mut doubled = Vec::with_capacity(reports.len() * 2);
    for r in &reports {
        doubled.push(*r);
        doubled.push(*r); // exact duplicate (same timestamp)
    }
    let bpm = estimate(&doubled).expect("duplicates must not break analysis");
    assert!((bpm - 10.0).abs() < 1.5, "estimated {bpm}");
}

#[test]
fn survives_out_of_order_delivery() {
    let reports = capture(60.0, 3);
    let mut shuffled = reports.clone();
    Xoshiro256::seed_from_u64(7).shuffle(&mut shuffled);
    let a = estimate(&reports).expect("baseline");
    let b = estimate(&shuffled).expect("shuffled");
    assert!((a - b).abs() < 1e-9, "order dependence: {a} vs {b}");
}

#[test]
fn survives_corrupted_phase_values() {
    // 5% of reports get a uniformly random phase (decoder glitches).
    let mut reports = capture(90.0, 4);
    let mut rng = Xoshiro256::seed_from_u64(11);
    for r in reports.iter_mut() {
        if rng.gen_f64() < 0.05 {
            r.phase_rad = rng.gen_f64() * 2.0 * std::f64::consts::PI;
        }
    }
    let bpm = estimate(&reports).expect("corruption-tolerant");
    assert!((bpm - 10.0).abs() < 2.5, "estimated {bpm}");
}

#[test]
fn survives_alien_epcs_in_stream() {
    // Tags from a neighbouring deployment appear mid-stream.
    let mut reports = capture(60.0, 5);
    let alien: Vec<TagReport> = (0..500)
        .map(|i| TagReport {
            time_s: i as f64 * 0.1,
            epc: Epc96::monitor(0xBAD0_BEEF, i),
            antenna_port: 1,
            channel_index: (i % 10) as u16,
            phase_rad: 1.0,
            rssi_dbm: -60.0,
            doppler_hz: 0.0,
        })
        .collect();
    reports.extend(alien);
    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    assert_eq!(analysis.unknown_reports, 500);
    let bpm = analysis.users[&1]
        .as_ref()
        .unwrap()
        .mean_rate_bpm()
        .unwrap();
    assert!((bpm - 10.0).abs() < 1.5, "estimated {bpm}");
}

#[test]
fn sway_below_breathing_band_is_tolerated() {
    let subject = Subject::paper_default(1, 2.0).with_motion(BodyMotion::Sway {
        amplitude_m: 0.01,
        period_s: 25.0, // 0.04 Hz, below the band
    });
    let scenario = Scenario::builder().subject(subject).build();
    let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 90.0);
    let bpm = estimate(&reports).expect("sway-tolerant");
    assert!((bpm - 10.0).abs() < 2.0, "estimated {bpm} under sway");
}

#[test]
fn fidgeting_degrades_quality_grade() {
    use tagbreathe_suite::tagbreathe::quality::{assess, QualityThresholds};

    let run = |motion: BodyMotion, seed: u64| {
        let subject = Subject::paper_default(1, 2.0).with_motion(motion);
        let scenario = Scenario::builder().subject(subject).build();
        let reader = Reader::new(
            ReaderConfig::paper_default().with_seed(seed),
            vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
        )
        .unwrap();
        let reports = reader.run(&ScenarioWorld::new(scenario), 60.0);
        BreathMonitor::paper_default()
            .analyze(&reports, &EmbeddedIdentity::new([1]))
            .users
            .remove(&1)
            .and_then(Result::ok)
            .map(|a| assess(&a, &QualityThresholds::default_thresholds()))
    };
    let still = run(BodyMotion::Still, 21).expect("still analysable");
    let fidgety = run(
        BodyMotion::Fidget {
            amplitude_m: 0.04,
            rate_per_min: 8.0,
            seed: 3,
        },
        21,
    );
    // Fidgeting must not crash; when analysable, its quality must not
    // exceed the still subject's.
    if let Some(q) = fidgety {
        assert!(
            q.confidence <= still.confidence,
            "fidgeting graded {q:?} above still {still:?}"
        );
    }
}

#[test]
fn walking_subject_is_flagged_as_gross_motion() {
    use tagbreathe_suite::tagbreathe::AnalysisFailure;
    // Slow walk toward the antenna: the tag stays in the beam for the
    // whole capture but the trajectory spans metres.
    let subject = Subject::paper_default(1, 5.0).with_motion(BodyMotion::Walk { speed_mps: 0.03 });
    let scenario = Scenario::builder().subject(subject).build();
    let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
    assert!(!reports.is_empty(), "walker left the beam entirely");
    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    match &analysis.users[&1] {
        Err(AnalysisFailure::GrossMotion { range_m }) => {
            assert!(*range_m > 1.0, "range {range_m}");
        }
        other => panic!("walking subject not flagged: {other:?}"),
    }
}

#[test]
fn stationary_subject_is_not_flagged_as_gross_motion() {
    use tagbreathe_suite::tagbreathe::AnalysisFailure;
    let reports = capture(60.0, 7);
    let analysis = BreathMonitor::paper_default().analyze(&reports, &EmbeddedIdentity::new([1]));
    assert!(
        !matches!(analysis.users[&1], Err(AnalysisFailure::GrossMotion { .. })),
        "false gross-motion alarm"
    );
}

#[test]
fn empty_and_single_report_streams() {
    assert!(estimate(&[]).is_none());
    let one = capture(1.0, 6).into_iter().take(1).collect::<Vec<_>>();
    assert!(estimate(&one).is_none());
}

// ---------------------------------------------------------------------------
// Wire-protocol failure injection: the ingest server must shed or close on
// hostile bytes — truncated frames, oversized length prefixes, garbage,
// mid-frame disconnects, duplicate Hellos — without ever panicking, and the
// sheds must be visible at /metrics.
// ---------------------------------------------------------------------------

mod wire_abuse {
    use epcgen2::wire::{encode_frame, read_frame, ErrorCode, Message};
    use server::{ServerConfig, ServerHandle};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn start_server() -> ServerHandle {
        server::start(ServerConfig {
            window_s: 10.0,
            update_every_s: 2.0,
            shards: 1,
            ..ServerConfig::default()
        })
        .expect("server must start")
    }

    fn hello(reader: u32) -> Vec<u8> {
        encode_frame(&Message::Hello {
            reader_id: reader,
            features: 0,
            clock_offset_s: 0.0,
            reader_clock_s: 0.0,
        })
    }

    /// Writes raw bytes, then reads whatever the server answers until it
    /// closes the connection. Returns the decoded replies.
    fn exchange(handle: &ServerHandle, payload: &[u8]) -> Vec<Message> {
        let mut stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
        stream.write_all(payload).expect("write");
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut replies = Vec::new();
        while let Ok(Some(msg)) = read_frame(&mut stream) {
            replies.push(msg);
        }
        replies
    }

    fn metrics_body(handle: &ServerHandle) -> String {
        let mut stream = TcpStream::connect(handle.http_addr()).expect("http connect");
        write!(
            stream,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("http write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("http read");
        response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    }

    fn shed_count(handle: &ServerHandle) -> u64 {
        handle
            .registry()
            .counter("tagbreathe_server_frames_shed_total")
    }

    #[test]
    fn survives_wire_abuse_and_counts_sheds() {
        let handle = start_server();

        // 1. Garbage bytes: an absurd length prefix → Reject(Oversized).
        let replies = exchange(&handle, b"\xFF\xFF\xFF\xFFGARBAGEGARBAGE");
        assert!(
            matches!(
                replies.last(),
                Some(Message::Reject {
                    code: ErrorCode::Oversized
                })
            ),
            "garbage replies: {replies:?}"
        );

        // 2. Plausible-length garbage → checksum or structure reject.
        let mut plausible = 32u32.to_be_bytes().to_vec();
        plausible.extend_from_slice(&[0xA5; 32]);
        let replies = exchange(&handle, &plausible);
        assert!(
            matches!(replies.last(), Some(Message::Reject { .. })),
            "plausible-garbage replies: {replies:?}"
        );

        // 3. Truncated frame then disconnect (mid-frame hangup).
        let full = hello(7);
        let cut = &full[..full.len() - 3];
        let replies = exchange(&handle, cut);
        assert!(replies.is_empty(), "truncated hello got: {replies:?}");

        // 4. Corrupted CRC on an otherwise valid frame.
        let mut corrupt = hello(8);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let replies = exchange(&handle, &corrupt);
        assert!(
            matches!(
                replies.last(),
                Some(Message::Reject {
                    code: ErrorCode::BadChecksum
                })
            ),
            "bad-crc replies: {replies:?}"
        );

        // 5. Duplicate Hello on one session.
        let mut two_hellos = hello(9);
        two_hellos.extend_from_slice(&hello(9));
        let replies = exchange(&handle, &two_hellos);
        assert!(
            matches!(
                replies.last(),
                Some(Message::Reject {
                    code: ErrorCode::DuplicateHello
                })
            ),
            "duplicate-hello replies: {replies:?}"
        );

        // 6. Batch before Hello.
        let early = encode_frame(&Message::Heartbeat {
            reader_clock_s: 1.0,
        });
        let replies = exchange(&handle, &early);
        assert!(
            matches!(
                replies.last(),
                Some(Message::Reject {
                    code: ErrorCode::NotHelloed
                })
            ),
            "not-helloed replies: {replies:?}"
        );

        // The sheds are all counted and visible over HTTP.
        assert!(shed_count(&handle) >= 5, "sheds: {}", shed_count(&handle));
        let body = metrics_body(&handle);
        let shed_line = body
            .lines()
            .find(|l| l.starts_with("tagbreathe_server_frames_shed_total"));
        assert!(
            shed_line.is_some(),
            "shed counter missing from /metrics:\n{body}"
        );

        // And the server is still fully alive: a clean session works.
        let stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
        let client = epcgen2::client::ReaderClient::connect(stream, 1, 0).expect("clean hello");
        client.goodbye().expect("clean goodbye");

        let snapshots = handle.shutdown();
        // Nothing analysable was fed; the point is that we got here
        // without a panic and with sheds counted.
        drop(snapshots);
    }

    #[test]
    fn slow_trickled_hello_still_handshakes() {
        // One byte at a time across many TCP segments: framing must
        // reassemble rather than treat each read as a frame.
        let handle = start_server();
        let mut stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
        for b in hello(3) {
            stream.write_all(&[b]).expect("write byte");
            stream.flush().expect("flush");
        }
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let reply = read_frame(&mut stream).expect("read ack");
        assert!(
            matches!(reply, Some(Message::Ack { .. })),
            "trickled hello got {reply:?}"
        );
        drop(stream);
        let _ = handle.shutdown();
    }

    #[test]
    fn hostile_timestamps_cannot_wedge_the_engine() {
        // NaN, ±inf and 1e300 stream times from one peer: the lane merge
        // drops NaN, the engine drops the infinities and skips the 1e300
        // jump's stale cadence points. Shutdown must still come back.
        let handle = start_server();
        let mut reports = super::capture(12.0, 9);
        let template = reports[reports.len() / 2];
        for time_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            reports.push(super::TagReport { time_s, ..template });
        }
        let stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
        let mut client = epcgen2::client::ReaderClient::connect(stream, 6, 0).expect("hello");
        for chunk in reports.chunks(64) {
            client.send_batch(chunk, 0.0).expect("batch");
        }
        client.goodbye().expect("goodbye");
        let registry = handle.registry();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.shutdown());
        });
        let snaps = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("engine wedged by a hostile timestamp");
        assert!(snaps.len() >= 5, "only {} snapshots", snaps.len());
        assert!(snaps
            .iter()
            .all(|s| s.rates_bpm.values().all(|bpm| bpm.is_finite())));
        assert_eq!(registry.counter("tagbreathe_reports_nonfinite_total"), 2);
    }

    #[test]
    fn oversized_batch_count_is_rejected_cleanly() {
        // A frame whose Batch body claims more reports than it carries.
        let handle = start_server();
        let mut session = hello(4);
        let batch = encode_frame(&Message::Batch {
            seq: 0,
            reader_clock_s: 0.0,
            reports: Vec::new(),
        });
        // Rewrite the count field (payload offset 4+4+8 = 16 after the
        // length word) and fix up nothing else: CRC now fails first.
        let mut broken = batch.clone();
        broken[4 + 17] = 0xFF;
        session.extend_from_slice(&broken);
        let replies = exchange(&handle, &session);
        assert!(
            matches!(replies.last(), Some(Message::Reject { .. })),
            "broken batch got: {replies:?}"
        );
        assert!(shed_count(&handle) >= 1);
        let _ = handle.shutdown();
    }
}
