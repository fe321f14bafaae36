//! The live run: a seeded workload streamed over real TCP into an
//! in-process `tagbreathe-server`, measured from outside and checked
//! against an inline reference run.
//!
//! Timeline of one run:
//!
//! 1. **Set-up**: start the server and open every reader session
//!    (Hello/Ack). This server is measured; [`SETUP_REPS`] - 1 more
//!    set-ups are timed after its shutdown, so their churn stays out of
//!    the memory figures, and the median set-up time is reported.
//! 2. **Load**: one generator thread sends the seeded batches over every
//!    session, open loop on a fixed schedule. It first pre-rolls one
//!    analysis window at 4× real time and waits until the server has
//!    caught up with it, so the schedule starts on a full window and
//!    without a backlog. The first quarter of the scheduled load is
//!    warm-up and is not measured. The main thread probes freshness through
//!    `ServerHandle::latest_for`; on `census` an operator thread sends
//!    seeded Poisson-timed HTTP GETs.
//! 3. **Drain**: wait until the engine has merged every accepted report.
//! 4. **HTTP probe** (workloads without an operator): a fixed set of GETs
//!    against the loaded, idle server.
//! 5. **Shutdown**, then the **gate**: the shutdown snapshot log must
//!    equal, bit for bit, an inline `FleetEngine` run over the same
//!    `LaneMerger`-merged input regenerated from the seed; every report
//!    sent must be accepted or counted as shed; every served
//!    `/snapshot/{user}` must match the reference.

use crate::gen::{accuracy, Generator};
use crate::stats;
use crate::trace::SpanLog;
use crate::workload::Workload;
use epcgen2::client::ReaderClient;
use epcgen2::OpenAdmission;
use obs::recorder::Label;
use obs::registry::Registry;
use server::{LaneMerger, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use tagbreathe::{FleetEngine, PipelineConfig, RateSnapshot, TagReport};

/// Set-ups per run; their median is reported as `setup_s`.
pub const SETUP_REPS: usize = 201;
/// The first connection of a set-up is made after a seeded delay, uniform
/// in `[0, CONNECT_PHASE_SPAN)`, which is then taken off the set-up time.
/// The server's acceptor polls every 2 ms; a connection made right after
/// start either catches its first poll or waits most of a period, so
/// set-up times would have two modes and their mix would vary from run to
/// run. A delay spread over whole poll periods makes the connection
/// arrive at a uniform phase, as one from an independently started reader
/// would, and the times one mode whose median holds still.
const CONNECT_PHASE_SPAN: Duration = Duration::from_millis(4);
/// Freshness probe interval.
const PROBE_EVERY: Duration = Duration::from_micros(500);
/// Users whose latest snapshot the freshness probe watches.
const PROBE_USERS: [u64; 3] = [1, 2, 3];
/// GETs in the post-load HTTP probe of workloads without an operator:
/// enough for a p99 with ten samples beyond it.
const HTTP_PROBE_REQUESTS: usize = 1000;
/// Longest wait for the engine to merge every accepted report.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What an HTTP request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpKind {
    /// `/snapshot/{user}`.
    Snapshot,
    /// `/metrics`.
    Metrics,
    /// `/status`.
    Status,
}

/// One operator request.
#[derive(Debug, Clone, Copy)]
pub struct HttpSample {
    /// Endpoint family.
    pub kind: HttpKind,
    /// Latency, milliseconds (from the due time on an open-loop schedule).
    pub ms: f64,
    /// Completion, seconds since the load started.
    pub at_s: f64,
    /// Whether the request failed (transport error or unexpected status).
    pub failed: bool,
    /// For a served `/snapshot/{user}`: (user, time_s, rate_bpm bits).
    pub served: Option<(u64, f64, u64)>,
}

/// The operator's rotation: request `i` of the schedule.
fn operator_path(i: usize, users: u64) -> (HttpKind, String) {
    match i % 10 {
        0 => (HttpKind::Metrics, "/metrics".into()),
        5 => (HttpKind::Status, "/status".into()),
        _ => {
            let user = (i as u64).wrapping_mul(7919) % users.max(1) + 1;
            (HttpKind::Snapshot, format!("/snapshot/{user}"))
        }
    }
}

/// One blocking GET on a fresh connection; returns status and body.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in reply to {path}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// Pulls a JSON scalar `"key":value` out of a flat object.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body.get(at..)?;
    let end = rest.find([',', '}'])?;
    Some(rest.get(..end)?.trim_matches('"'))
}

/// Sends request `i` of the rotation and classifies the reply. A 404 on
/// `/snapshot/{user}` is a correct answer for a user with no rate yet.
fn operator_request(
    addr: SocketAddr,
    i: usize,
    users: u64,
    started: Instant,
    t0: Instant,
) -> HttpSample {
    let (kind, path) = operator_path(i, users);
    let reply = http_get(addr, &path);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let at_s = t0.elapsed().as_secs_f64();
    let (failed, served) = match (&reply, kind) {
        (Ok((200, body)), HttpKind::Snapshot) => {
            let parsed = (|| {
                let user = json_field(body, "user")?.parse().ok()?;
                let time_s = json_field(body, "time_s")?.parse().ok()?;
                let hex = json_field(body, "rate_bpm_bits")?.trim_start_matches("0x");
                Some((user, time_s, u64::from_str_radix(hex, 16).ok()?))
            })();
            (parsed.is_none(), parsed)
        }
        (Ok((404, _)), HttpKind::Snapshot) => (false, None),
        (Ok((200, body)), _) => (body.is_empty(), None),
        _ => (true, None),
    };
    HttpSample {
        kind,
        ms,
        at_s,
        failed,
        served,
    }
}

/// The open-loop schedule. The first `preroll` batches of every session
/// fill the analysis window at [`PREROLL_SPEED`] times real time: batch
/// `k < preroll` is due at `t0 + (k + 1) · span / PREROLL_SPEED`. Batch
/// `k ≥ preroll` is then due at `start + (k - preroll + 1 + jitter) · span
/// / speed`, where `start` is when the server had caught up with the
/// pre-roll and the seeded jitter is uniform in `[0, MAX_JITTER)`: no
/// batch is due before the reads it carries have happened, and the due
/// times do not keep a fixed phase to the snapshot cadence (which would
/// quantise freshness in whole batch intervals). `batches` per session in
/// all.
#[derive(Debug, Clone, Copy)]
struct Pace {
    speed: f64,
    preroll: u64,
    batches: u64,
    seed: u64,
}

impl Pace {
    /// When measured batch `k` is due, given the schedule's start; `None`
    /// for pre-roll batches.
    fn due(&self, k: u64, start: Instant, span_s: f64) -> Option<Instant> {
        if k < self.preroll {
            return None;
        }
        let jitter =
            MAX_JITTER * crate::gen::unit(self.seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let at = ((k - self.preroll + 1) as f64 + jitter) * span_s / self.speed;
        Some(start + Duration::from_secs_f64(at))
    }

    /// When pre-roll batch `k` is due; `None` otherwise.
    fn preroll_due(&self, k: u64, t0: Instant, span_s: f64) -> Option<Instant> {
        (k < self.preroll)
            .then(|| t0 + Duration::from_secs_f64((k + 1) as f64 * span_s / PREROLL_SPEED))
    }
}

/// What the generator thread did.
#[derive(Debug)]
struct GeneratorRun {
    /// Batches sent per session.
    batches: u64,
    /// How late each measured send started against its due time, s.
    late_s: Vec<f64>,
    /// Wait after the pre-roll until the server had caught up, s.
    settle_s: f64,
    /// Reports sent, over all sessions.
    reports: u64,
    /// CPU of the generator thread since it started, at its exit, ns.
    cpu_ns: u64,
    /// Time inside `ReaderClient::send_batch`, ns (traced runs only).
    send_ns: u64,
    /// Wall time of the thread's loop, ns.
    wall_ns: u64,
    spans: SpanLog,
    error: Option<String>,
}

/// Sends batch `k` of every session in turn, for `k = 0, 1, …`: the
/// trace is played back in stream order over every session, so no merge
/// lane runs ahead of another. One thread drives every session. After the
/// pre-roll it waits until `caught_up()` holds (or [`SETTLE_TIMEOUT`]
/// passes) before the schedule starts.
#[allow(clippy::too_many_arguments)]
fn drive_sessions(
    clients: Vec<ReaderClient<TcpStream>>,
    gen: &Generator,
    pace: Pace,
    t0: Instant,
    start: &OnceLock<Instant>,
    caught_up: &(dyn Fn() -> bool + Sync),
    mut spans: SpanLog,
    traced: bool,
) -> GeneratorRun {
    let span_s = gen.population().batch_span_s;
    let mut clients: Vec<(u32, ReaderClient<TcpStream>)> = (0u32..).zip(clients).collect();
    let mut run = GeneratorRun {
        batches: 0,
        late_s: Vec::new(),
        settle_s: 0.0,
        reports: 0,
        cpu_ns: 0,
        send_ns: 0,
        wall_ns: 0,
        spans: SpanLog::new(t0, 0),
        error: None,
    };
    let root = if traced {
        spans.open("generator", 0, 0)
    } else {
        0
    };
    let mut k: u64 = 0;
    'batches: while k < pace.batches {
        if k == pace.preroll {
            let settle = Instant::now();
            while !caught_up() && settle.elapsed() < SETTLE_TIMEOUT {
                std::thread::sleep(Duration::from_millis(1));
            }
            run.settle_s = settle.elapsed().as_secs_f64();
            let _ = start.set(Instant::now());
        }
        let due = start.get().and_then(|&s| pace.due(k, s, span_s));
        // Build every session's batch before its due time, so building
        // never counts as lateness.
        let mut built = Vec::with_capacity(clients.len());
        for (session, _) in &clients {
            built.push(if traced {
                spans.time("gen.build_batch", root, k, || gen.batch(*session, k))
            } else {
                gen.batch(*session, k)
            });
        }
        if let Some(due) = due.or_else(|| pace.preroll_due(k, t0, span_s)) {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        for ((session, client), batch) in clients.iter_mut().zip(built) {
            let started = Instant::now();
            if let Some(due) = due {
                run.late_s
                    .push(started.saturating_duration_since(due).as_secs_f64());
            }
            let clock = batch.first().map_or(0.0, |r| r.time_s);
            let span = if traced {
                spans.open("client.send_batch", root, k)
            } else {
                0
            };
            let sent = client.send_batch(&batch, clock);
            if traced {
                run.send_ns += spans.close(span);
            }
            if let Err(e) = sent {
                run.error = Some(format!("session {session} batch {k}: {e}"));
                break 'batches;
            }
            run.reports += batch.len() as u64;
        }
        k += 1;
        run.batches = k;
    }
    for (session, client) in clients {
        if let Err(e) = client.goodbye() {
            run.error
                .get_or_insert(format!("session {session} goodbye: {e}"));
        }
    }
    if traced {
        spans.close(root);
    }
    run.wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    run.cpu_ns = stats::thread_cpu_ns().unwrap_or(0);
    run.spans = spans;
    run
}

/// Everything one live run measured.
#[derive(Debug)]
pub struct LiveResult {
    /// Set-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Freshness samples: (seconds since the load started, milliseconds).
    pub freshness_ms: Vec<(f64, f64)>,
    /// Reports accepted, sampled once a second during the load.
    pub accepted_by_second: Vec<u64>,
    /// Server CPU per report merged after the warm-up, nanoseconds.
    pub cpu_ns_per_report: f64,
    /// Peak resident memory, MiB.
    pub peak_rss_mb: f64,
    /// Reports merged per second, from the end of the warm-up until the
    /// engine had merged every accepted report.
    pub reports_per_s: f64,
    /// HTTP requests.
    pub http: Vec<HttpSample>,
    /// Mean Eq. 8 accuracy at the final snapshot.
    pub rate_accuracy: f64,
    /// Reports the generators sent.
    pub sent: u64,
    /// Reports the server accepted.
    pub accepted: u64,
    /// Reports the server shed.
    pub shed: u64,
    /// Frames the server rejected.
    pub frames_shed: u64,
    /// Generator lateness per measured batch, milliseconds.
    pub late_ms: Vec<f64>,
    /// Whether lateness grew over the run.
    pub backlog_grew: bool,
    /// Wait after the pre-roll until the server had caught up, ms.
    pub settle_ms: f64,
    /// Drain time after the last batch was sent, milliseconds.
    pub drain_ms: f64,
    /// Offered reports per second.
    pub offered_per_s: f64,
    /// Session queue stalls counted by the server.
    pub queue_stalls: u64,
    /// Frames the server counted.
    pub frames: u64,
    /// Flight-recorder bundles the server captured.
    pub flight_bundles: u64,
    /// Resident bytes per resident user, from the fleet gauges.
    pub bytes_per_resident_user: f64,
    /// Share of generator wall time spent inside `send_batch` (traced
    /// runs only).
    pub send_blocked_share: f64,
    /// The server's registry after the run.
    pub registry: Arc<Registry>,
    /// Generator and operator spans (traced runs only).
    pub spans: SpanLog,
    /// Snapshots in the shutdown log.
    pub snapshots: usize,
    /// Why the correctness gate failed, if it did.
    pub gate_error: Option<String>,
}

/// The server configuration a workload runs with.
#[must_use]
pub fn server_config(w: &Workload) -> ServerConfig {
    ServerConfig {
        window_s: w.window_s,
        update_every_s: w.cadence_s,
        shards: w.shards,
        ..ServerConfig::default()
    }
}

/// Starts a server and opens every reader session, the first after a
/// seeded delay (see [`CONNECT_PHASE_SPAN`]); returns the time from start
/// until the last session was acknowledged, less the delay.
fn set_up(
    w: &Workload,
    seed: u64,
    rep: usize,
) -> Result<(ServerHandle, Vec<ReaderClient<TcpStream>>, f64), String> {
    let delay = CONNECT_PHASE_SPAN.mul_f64(crate::gen::unit(
        seed ^ (rep as u64).wrapping_mul(0xA076_1D64_78BD_642F),
    ));
    let started = Instant::now();
    let handle = server::start_with_resolver(server_config(w), OpenAdmission)
        .map_err(|e| format!("server start: {e}"))?;
    let slept = Instant::now();
    std::thread::sleep(delay);
    let slept = slept.elapsed();
    let mut clients = Vec::new();
    for s in 0..w.pop.sessions {
        let stream =
            TcpStream::connect(handle.ingest_addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        clients.push(ReaderClient::connect(stream, s + 1, 0).map_err(|e| format!("hello: {e}"))?);
    }
    Ok((handle, clients, (started.elapsed() - slept).as_secs_f64()))
}

/// Largest delay of an open-loop batch past the end of its stream span,
/// in batch intervals.
const MAX_JITTER: f64 = 0.9;

/// Speed of the open-loop pre-roll, times real time: fills a 25 s window
/// in about 6 s. The server may fall behind at this speed; the schedule
/// starts only once it has caught up.
const PREROLL_SPEED: f64 = 4.0;

/// Longest wait for the server to catch up with the pre-roll.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Cadence steps before the pre-roll's end within which a published
/// snapshot counts as caught up.
const SETTLE_CADENCES: f64 = 3.5;

/// Share of the load, from its start, excluded from the steady-state
/// metrics: the engine queue fills and users are admitted in it.
const WARMUP_SHARE: f64 = 0.25;

/// Readings taken at the end of the warm-up.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    process_cpu: u64,
    main_cpu: u64,
    /// CPU of the benchmark's own threads (generators, operator).
    bench_cpu: u64,
    merged: u64,
}

impl Mark {
    fn take(registry: &Registry, bench_tids: &Mutex<Vec<u64>>) -> Option<Mark> {
        let tids = bench_tids.lock().ok()?.clone();
        Some(Mark {
            at: Instant::now(),
            process_cpu: stats::process_cpu_ns()?,
            main_cpu: stats::thread_cpu_ns()?,
            bench_cpu: tids
                .iter()
                .map(|&t| stats::task_cpu_ns(t))
                .sum::<Option<u64>>()?,
            merged: registry.counter(server::metrics::SERVER_REPORTS_MERGED_TOTAL),
        })
    }
}

/// Records the calling thread as benchmark-side, so its CPU is not
/// counted as the server's.
fn register_bench_thread(bench_tids: &Mutex<Vec<u64>>) {
    if let (Some(tid), Ok(mut tids)) = (stats::current_tid(), bench_tids.lock()) {
        tids.push(tid);
    }
}

/// Sum of a per-shard gauge over `shards` shards.
fn shard_gauge_sum(registry: &Registry, name: &str, shards: usize) -> f64 {
    (0..shards)
        .filter_map(|s| registry.labeled_gauge(name, Some(Label::shard(u32::try_from(s).ok()?))))
        .sum()
}

/// Runs the workload once.
///
/// # Errors
///
/// Returns an error when the run could not be carried out at all (bind,
/// connect or send failures, a drain that never completes). A completed
/// run that fails the correctness gate returns `Ok` with
/// [`LiveResult::gate_error`] set.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<LiveResult, String> {
    let gen = Generator::new(seed, w.pop);

    let (handle, clients, first_setup_s) = set_up(w, seed, 0)?;
    let registry = handle.registry();
    let http_addr = handle.http_addr();

    let span_s = w.pop.batch_span_s;
    let epoch = Instant::now();
    let t0 = Instant::now();
    let measured = (seconds * w.speed / span_s).ceil() as u64;
    let preroll = (w.window_s / span_s).ceil() as u64;
    let pace = Pace {
        speed: w.speed,
        preroll,
        seed,
        batches: preroll + measured,
    };
    let load_s = measured as f64 * span_s / w.speed;
    // The server has caught up with the pre-roll once it has published a
    // snapshot within the last few cadence steps of the pre-roll's stream
    // time. (The merge holds back the newest batch of each lane until the
    // next one arrives, and the newest snapshots wait for the next epoch,
    // so the very last ones cannot be published yet.)
    let preroll_end_s = preroll as f64 * span_s;
    let caught_up = || {
        PROBE_USERS.iter().any(|&u| {
            handle
                .latest_for(u)
                .is_some_and(|snap| snap.time_s >= preroll_end_s - SETTLE_CADENCES * w.cadence_s)
        })
    };

    // The measured phase starts when the schedule does (after the
    // pre-roll); its first quarter is warm-up.
    let start = OnceLock::new();
    let warmup = Duration::from_secs_f64(load_s * WARMUP_SHARE);
    let bench_tids = Mutex::new(Vec::new());
    let mut mark = None;
    let mut seen: Vec<(f64, Instant)> = Vec::new();
    let mut accepted_by_second: Vec<u64> = Vec::new();
    let (generator, operator) = std::thread::scope(|scope| {
        let gen = &gen;
        let bench_tids = &bench_tids;
        let start = &start;
        let caught_up = &caught_up;
        let generator = scope.spawn(move || {
            register_bench_thread(bench_tids);
            drive_sessions(
                clients,
                gen,
                pace,
                t0,
                start,
                caught_up,
                SpanLog::new(epoch, 1),
                traced,
            )
        });
        let operator = (w.operator_hz > 0.0).then(|| {
            let schedule = crate::gen::arrivals(seed, w.operator_hz, load_s);
            let users = w.pop.users;
            scope.spawn(move || {
                register_bench_thread(bench_tids);
                let mut spans = SpanLog::new(epoch, 0);
                let mut samples = Vec::with_capacity(schedule.len());
                let begin = loop {
                    match start.get() {
                        Some(&at) => break at,
                        None => std::thread::sleep(PROBE_EVERY),
                    }
                };
                for (i, offset) in schedule.iter().enumerate() {
                    let due = begin + Duration::from_secs_f64(*offset);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let span = if traced {
                        spans.open("http.get", 0, i as u64)
                    } else {
                        0
                    };
                    samples.push(operator_request(http_addr, i, users, due, t0));
                    if traced {
                        spans.close(span);
                    }
                }
                (samples, stats::thread_cpu_ns().unwrap_or(0), spans)
            })
        });
        // Freshness probe: note each new snapshot time as it becomes
        // visible in the store.
        let mut last = f64::NEG_INFINITY;
        while !generator.is_finished() {
            if t0.elapsed().as_secs() >= accepted_by_second.len() as u64 {
                accepted_by_second.push(registry.counter(server::metrics::SERVER_REPORTS_TOTAL));
            }
            if mark.is_none() && start.get().is_some_and(|&s| s.elapsed() >= warmup) {
                mark = Mark::take(&registry, bench_tids);
            }
            for user in PROBE_USERS {
                if let Some(snap) = handle.latest_for(user) {
                    if snap.time_s > last {
                        last = snap.time_s;
                        seen.push((snap.time_s, Instant::now()));
                    }
                }
            }
            std::thread::sleep(PROBE_EVERY);
        }
        let generator = generator
            .join()
            .unwrap_or_else(|_| panic!("generator thread panicked"));
        let operator = operator.map(|h| {
            h.join()
                .unwrap_or_else(|_| panic!("operator thread panicked"))
        });
        (generator, operator)
    });
    if let Some(e) = &generator.error {
        return Err(e.clone());
    }
    let load_end = Instant::now();

    // Drain: every accepted report merged into the engine.
    let drained_at = loop {
        let accepted = registry.counter(server::metrics::SERVER_REPORTS_TOTAL);
        let merged = registry.counter(server::metrics::SERVER_REPORTS_MERGED_TOTAL);
        let sent = generator.reports;
        let shed = registry.counter(server::metrics::SERVER_REPORTS_SHED_TOTAL);
        if merged >= accepted && accepted + shed >= sent {
            break Instant::now();
        }
        if load_end.elapsed() > DRAIN_TIMEOUT {
            return Err(format!("drain timed out: {merged} of {accepted} merged"));
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let cpu1 = stats::process_cpu_ns().ok_or("cannot read /proc/self/stat")?;
    let main_cpu1 = stats::thread_cpu_ns().ok_or("cannot read /proc/thread-self")?;
    let mark = mark.ok_or("the load ended before its warm-up did")?;

    let mut spans = SpanLog::new(epoch, 0);
    let (mut http, operator_cpu) = match operator {
        Some((samples, cpu, op_spans)) => {
            spans.absorb(op_spans);
            (samples, cpu)
        }
        None => (Vec::new(), 0),
    };
    if w.operator_hz <= 0.0 {
        for i in 0..HTTP_PROBE_REQUESTS {
            let span = if traced {
                spans.open("http.get", 0, i as u64)
            } else {
                0
            };
            http.push(operator_request(
                http_addr,
                i,
                w.pop.users,
                Instant::now(),
                t0,
            ));
            if traced {
                spans.close(span);
            }
        }
    }

    let accepted = registry.counter(server::metrics::SERVER_REPORTS_TOTAL);
    let shed = registry.counter(server::metrics::SERVER_REPORTS_SHED_TOTAL);
    let frames_shed = registry.counter(server::metrics::SERVER_FRAMES_SHED_TOTAL);
    let queue_stalls = registry.counter(server::metrics::SERVER_QUEUE_STALLS_TOTAL);
    let frames = registry.counter(server::metrics::SERVER_FRAMES_TOTAL);
    let flight_bundles = registry.counter(tagbreathe::metrics::TRACE_DUMPS);
    let resident = shard_gauge_sum(
        &registry,
        tagbreathe::metrics::FLEET_RESIDENT_BYTES,
        w.shards,
    );
    let resident_users =
        shard_gauge_sum(&registry, tagbreathe::metrics::FLEET_SHARD_USERS, w.shards);

    let log = handle.shutdown();
    let peak_rss_mb = stats::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    setup_s.push(first_setup_s);
    for rep in 1..SETUP_REPS {
        let (handle, clients, secs) = set_up(w, seed, rep)?;
        setup_s.push(secs);
        for c in clients {
            c.goodbye().map_err(|e| format!("goodbye: {e}"))?;
        }
        let _ = handle.shutdown();
    }

    let sent = generator.reports;
    // Steady state: from the end of the warm-up until the drain.
    let bench_cpu = (generator.cpu_ns + operator_cpu).saturating_sub(mark.bench_cpu)
        + main_cpu1.saturating_sub(mark.main_cpu);
    let server_cpu = cpu1
        .saturating_sub(mark.process_cpu)
        .saturating_sub(bench_cpu);
    let steady_reports = accepted.saturating_sub(mark.merged);

    // Freshness: from the due time of the batch carrying the snapshot's
    // triggering report (the first report at or after the snapshot time).
    let start = start.get().copied().unwrap_or(t0);
    let freshness_ms: Vec<(f64, f64)> = seen
        .iter()
        .filter(|&&(_, at)| at >= mark.at)
        .filter_map(|&(time_s, at)| {
            let k = (time_s / span_s + 1e-9).floor() as u64;
            let due = pace.due(k, start, span_s)?;
            let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
            Some((at.duration_since(t0).as_secs_f64(), ms))
        })
        .collect();

    let late_ms: Vec<f64> = generator.late_s.iter().map(|l| l * 1e3).collect();
    // The backlog grew if sends ran later, by more than one batch
    // interval, in the last quarter of the load than in the first.
    let backlog_grew = {
        let quarter = late_ms.len() / 4;
        let mean = |vals: &[f64]| vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let first = mean(late_ms.get(..quarter).unwrap_or(&[]));
        let last = mean(late_ms.get(late_ms.len() - quarter..).unwrap_or(&[]));
        last - first > span_s / w.speed * 1e3
    };
    let batches = generator.batches;
    spans.absorb(generator.spans);

    let mut result = LiveResult {
        setup_s,
        freshness_ms,
        accepted_by_second,
        cpu_ns_per_report: server_cpu as f64 / steady_reports.max(1) as f64,
        peak_rss_mb,
        reports_per_s: steady_reports as f64 / drained_at.duration_since(mark.at).as_secs_f64(),
        http,
        rate_accuracy: 0.0,
        sent,
        accepted,
        shed,
        frames_shed,
        late_ms,
        backlog_grew,
        settle_ms: generator.settle_s * 1e3,
        drain_ms: drained_at.duration_since(load_end).as_secs_f64() * 1e3,
        offered_per_s: gen.real_time_rate() * w.speed,
        queue_stalls,
        frames,
        flight_bundles,
        bytes_per_resident_user: resident / resident_users.max(1.0),
        send_blocked_share: generator.send_ns as f64 / generator.wall_ns.max(1) as f64,
        registry,
        spans,
        snapshots: log.len(),
        gate_error: None,
    };

    // The gate, against input regenerated from the seed.
    let reference = reference_run(&gen, w, batches)?;
    result.gate_error = gate(&result, &log, &reference);
    result.rate_accuracy = final_accuracy(&gen, &log);
    Ok(result)
}

/// The inline reference: the first `batches` batches of every session
/// through the same lane merge into a `FleetEngine` with the server's
/// configuration.
///
/// # Errors
///
/// Returns an error if the fleet cannot be constructed.
pub fn reference_run(
    gen: &Generator,
    w: &Workload,
    batches: u64,
) -> Result<Vec<RateSnapshot>, String> {
    let mut merger = LaneMerger::new();
    for reader in 1..=w.pop.sessions {
        merger.open(reader);
    }
    let mut fleet = FleetEngine::new(
        PipelineConfig::paper_default(),
        OpenAdmission,
        w.window_s,
        w.cadence_s,
        w.shards,
    )
    .map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for k in 0..batches {
        for session in 0..w.pop.sessions {
            let batch = gen.batch(session, k);
            let clock = batch.first().map_or(0.0, |r| r.time_s);
            merger.push(session + 1, batch, clock);
            let released: Vec<TagReport> = merger.release();
            if !released.is_empty() {
                out.extend(fleet.push(released));
            }
        }
    }
    out.extend(fleet.push(merger.drain_all()));
    out.extend(fleet.finish());
    Ok(out)
}

/// Bit-level equality of two snapshot streams; the first difference.
fn first_difference(served: &[RateSnapshot], reference: &[RateSnapshot]) -> Option<String> {
    if served.len() != reference.len() {
        return Some(format!(
            "{} snapshots served, {} in the reference",
            served.len(),
            reference.len()
        ));
    }
    for (i, (a, b)) in served.iter().zip(reference).enumerate() {
        let same = a.time_s.to_bits() == b.time_s.to_bits()
            && a.rates_bpm.len() == b.rates_bpm.len()
            && a.effort_rms.len() == b.effort_rms.len()
            && a.rates_bpm
                .iter()
                .zip(&b.rates_bpm)
                .all(|((ua, ra), (ub, rb))| ua == ub && ra.to_bits() == rb.to_bits())
            && a.effort_rms
                .iter()
                .zip(&b.effort_rms)
                .all(|((ua, ea), (ub, eb))| ua == ub && ea.to_bits() == eb.to_bits());
        if !same {
            return Some(format!("snapshot {i} (t = {} s) differs", a.time_s));
        }
    }
    None
}

/// The per-run correctness gate.
fn gate(r: &LiveResult, log: &[RateSnapshot], reference: &[RateSnapshot]) -> Option<String> {
    if r.sent != r.accepted + r.shed {
        return Some(format!(
            "sent {} != accepted {} + shed {}",
            r.sent, r.accepted, r.shed
        ));
    }
    if r.frames_shed > 0 {
        return Some(format!("{} frames rejected", r.frames_shed));
    }
    if let Some(diff) = first_difference(log, reference) {
        return Some(format!(
            "shutdown log differs from the inline reference: {diff}"
        ));
    }
    let by_time: BTreeMap<u64, &RateSnapshot> =
        reference.iter().map(|s| (s.time_s.to_bits(), s)).collect();
    for (user, time_s, bits) in r.http.iter().filter_map(|h| h.served) {
        let expected = by_time
            .get(&time_s.to_bits())
            .and_then(|s| s.rates_bpm.get(&user))
            .map(|v| v.to_bits());
        if expected != Some(bits) {
            return Some(format!(
                "/snapshot/{user} served a rate at t = {time_s} s that the reference does not have"
            ));
        }
    }
    None
}

/// Mean Eq. 8 accuracy over every user at the final snapshot.
fn final_accuracy(gen: &Generator, log: &[RateSnapshot]) -> f64 {
    let users = gen.population().users;
    let last = log.last();
    let total: f64 = (1..=users)
        .map(|u| {
            let truth = gen.truth(u).map_or(0.0, |t| t.rate_bpm);
            accuracy(last.and_then(|s| s.rates_bpm.get(&u).copied()), truth)
        })
        .sum();
    total / users.max(1) as f64
}

/// CPU of an idle server (no sessions) over `interval`, in cores.
///
/// # Errors
///
/// Returns an error if the server cannot start or `/proc` is unreadable.
pub fn idle_cpu_cores(w: &Workload, interval: Duration) -> Result<f64, String> {
    let handle = server::start_with_resolver(server_config(w), OpenAdmission)
        .map_err(|e| format!("server start: {e}"))?;
    // Let the threads reach their idle loops.
    std::thread::sleep(Duration::from_millis(100));
    let cpu0 = stats::process_cpu_ns().ok_or("cannot read /proc/self/stat")?;
    let started = Instant::now();
    std::thread::sleep(interval);
    let cpu1 = stats::process_cpu_ns().ok_or("cannot read /proc/self/stat")?;
    let wall = started.elapsed().as_nanos() as f64;
    let _ = handle.shutdown();
    Ok(cpu1.saturating_sub(cpu0) as f64 / wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_rotation_mixes_endpoints() {
        let kinds: Vec<HttpKind> = (0..10).map(|i| operator_path(i, 100).0).collect();
        assert_eq!(kinds.iter().filter(|k| **k == HttpKind::Metrics).count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == HttpKind::Status).count(), 1);
        let (_, path) = operator_path(3, 100);
        let user: u64 = path.trim_start_matches("/snapshot/").parse().unwrap_or(0);
        assert!((1..=100).contains(&user));
    }

    #[test]
    fn open_loop_due_times_follow_the_schedule() {
        let pace = Pace {
            speed: 2.0,
            preroll: 10,
            batches: 1000,
            seed: 7,
        };
        let (start, span) = (Instant::now(), 0.005);
        assert!(pace.due(9, start, span).is_none());
        assert!(pace.preroll_due(9, start, span).is_some());
        assert!(pace.preroll_due(10, start, span).is_none());
        for k in 10..1000 {
            let due = pace.due(k, start, span).map(|d| (d - start).as_secs_f64());
            let earliest = (k - 9) as f64 * span / 2.0;
            let latest = earliest + MAX_JITTER * span / 2.0;
            assert!(due.is_some_and(|d| d >= earliest - 1e-9 && d < latest + 1e-9));
            assert_eq!(
                pace.due(k, start, span),
                pace.due(k, start, span),
                "due times are a function of the seed"
            );
        }
    }

    #[test]
    fn json_fields_are_extracted() {
        let body = "{\"user\":7,\"time_s\":12.5,\"rate_bpm\":14.2,\"rate_bpm_bits\":\"0x402c666666666666\"}";
        assert_eq!(json_field(body, "user"), Some("7"));
        assert_eq!(json_field(body, "time_s"), Some("12.5"));
        assert_eq!(
            json_field(body, "rate_bpm_bits"),
            Some("0x402c666666666666")
        );
        assert_eq!(json_field(body, "missing"), None);
    }
}
