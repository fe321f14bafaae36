//! An idle engine must not burn CPU.
//!
//! Shard workers block when their ring is empty and are woken by the
//! router after it publishes. This starts an idle server (two shard
//! workers behind its fleet) and an idle 2-shard `FleetEngine` that has
//! already processed one batch, then reads this process's CPU time over
//! one second of wall time. A worker that busy-waits costs a whole core
//! per shard, so four of them read as at least one CPU-second even on a
//! 2-CPU host; parked workers read as a few milliseconds.
//!
//! The test sits alone in its binary so no other test's threads share
//! the process CPU clock.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};
use tagbreathe_suite::prelude::*;
use tagbreathe_suite::server::{self, ServerConfig};

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes the
/// user-visible tick (`USER_HZ`) at 100 on every architecture.
const USER_HZ: f64 = 100.0;

/// Budget for one idle second. The server's acceptor and HTTP threads
/// block in `accept` and its engine thread blocks on its queue, so the
/// true cost is a few milliseconds; one spinning core costs a whole
/// CPU-second.
const IDLE_BUDGET_CPU_S: f64 = 0.25;

/// User plus system CPU time of the whole process, in seconds.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces;
    // the numeric fields start after its closing parenthesis, at field 3.
    let (_, rest) = stat.rsplit_once(')').expect("stat has a command field");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .expect("numeric stat field") as f64
    };
    // Fields 14 and 15: utime and stime.
    (ticks(14) + ticks(15)) / USER_HZ
}

fn short_capture(user: u64) -> Vec<TagReport> {
    let scenario = Scenario::builder()
        .subject(Subject::paper_default(user, 2.0))
        .build();
    let reader = Reader::new(
        ReaderConfig::paper_default().with_seed(5),
        vec![Antenna::paper_default(Vec3::new(0.0, 0.0, 1.0))],
    )
    .expect("reader");
    reader.run(&ScenarioWorld::new(scenario), 6.0)
}

#[test]
fn idle_server_and_fleet_stay_under_a_quarter_core() {
    let handle = server::start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let user = 7;
    let mut fleet = FleetEngine::new(
        PipelineConfig::paper_default(),
        EmbeddedIdentity::new([user]),
        5.0,
        2.5,
        2,
    )
    .expect("fleet");
    let _ = fleet.push(short_capture(user));
    // Let the workers drain that batch and go idle.
    std::thread::sleep(Duration::from_millis(100));

    let cpu_before = process_cpu_s();
    let wall = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let cpu_s = process_cpu_s() - cpu_before;
    let wall_s = wall.elapsed().as_secs_f64();

    let _ = fleet.finish();
    assert!(
        handle.shutdown().is_empty(),
        "an idle server publishes no snapshots"
    );
    assert!(
        cpu_s < IDLE_BUDGET_CPU_S,
        "idle server + idle 2-shard fleet used {cpu_s:.2} CPU-s over {wall_s:.2} s of wall time \
         (budget {IDLE_BUDGET_CPU_S} CPU-s): shard workers are busy-waiting"
    );
}
