//! The benchmark's workloads.

use crate::gen::Population;

/// One workload: who is monitored, how the traffic is paced, and how the
/// server is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The monitored population and its read rates.
    pub pop: Population,
    /// Open-loop replay speed over real time.
    pub speed: f64,
    /// Analysis window, seconds.
    pub window_s: f64,
    /// Snapshot cadence, seconds of stream time.
    pub cadence_s: f64,
    /// Fleet shard workers.
    pub shards: usize,
    /// Operator HTTP GETs per second during the load (0 = none; a fixed
    /// post-load probe measures HTTP instead).
    pub operator_hz: f64,
}

/// Every workload, by name.
pub const ALL: [Workload; 2] = [
    // The deployment shape: users × 3 tags at 60 Hz over two reader
    // sessions, replayed at 2× real time.
    Workload {
        name: "ward",
        pop: Population {
            users: 400,
            tags_per_user: 3,
            read_hz: 60.0,
            sessions: 2,
            batch_span_s: 0.005,
        },
        speed: 2.0,
        window_s: 25.0,
        cadence_s: 0.1,
        shards: 1,
        operator_hz: 0.0,
    },
    Workload {
        name: "census",
        pop: Population {
            users: 500,
            tags_per_user: 1,
            read_hz: 20.0,
            sessions: 1,
            batch_span_s: 0.005,
        },
        speed: 1.0,
        window_s: 25.0,
        cadence_s: 0.05,
        shards: 1,
        operator_hz: 100.0,
    },
];

/// The workload called `name`.
#[must_use]
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}
