//! Real-time operation: one router, two executors.
//!
//! The paper's prototype processes low-level data "in a pipelined manner"
//! and visualises breathing in real time (Section V). Every real-time
//! engine is one [`Router`]: EPC interning, user admission, the
//! watermark-driven cadence (a sliding window — default 25 s, the
//! paper's analysis window — snapshotted at a fixed stream-time cadence)
//! and the per-snapshot metrics. The per-user operator graphs
//! ([`crate::operators::UserStreamState`], the same graph the batch
//! [`crate::monitor::BreathMonitor`] drives) run in its [`Executor`]:
//! inline on the caller's thread ([`StreamingMonitor`]) or on ring-fed
//! shard threads ([`FleetEngine`](crate::fleet::FleetEngine)). Per-report
//! cost is amortised O(1) and memory is bounded by window contents, not
//! stream length.

use crate::config::{InvalidConfigError, PipelineConfig};
use crate::demux::{classify, LinkQualityTracker};
use crate::fleet::interner::{shard_of_user, IdentityCache, Route};
use crate::fleet::shard::ShardCore;
use crate::metrics;
use epcgen2::mapping::IdentityResolver;
use epcgen2::report::TagReport;
use obs::freshness::duration_ns;
use obs::trace::{SharedTracer, TraceEvent, TraceSpan, Tracer};
use obs::{Recorder, SharedRecorder};
use std::collections::BTreeMap;
use std::time::Instant;

/// A point-in-time estimate of every monitored user's breathing rate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateSnapshot {
    /// Stream time at which the snapshot was produced, seconds.
    pub time_s: f64,
    /// Mean rate per user over the analysis window, bpm. Users present in
    /// the window but not analysable (blocked, too little data) are absent.
    pub rates_bpm: BTreeMap<u64, f64>,
    /// Breathing-effort RMS of the extracted signal per analysed user —
    /// the live input for apnea alarms (effort collapses during a pause
    /// even while the windowed rate still shows the last breaths).
    pub effort_rms: BTreeMap<u64, f64>,
}

/// The configuration and instrumentation handles a router lends its
/// executor on every call, with the handles' `enabled()` bits cached so
/// the no-op path pays one boolean test instead of a virtual call per
/// metric site.
#[derive(Debug)]
pub struct Context {
    pub(crate) config: PipelineConfig,
    pub(crate) recorder: SharedRecorder,
    pub(crate) recording: bool,
    pub(crate) tracer: SharedTracer,
    pub(crate) tracing: bool,
}

/// A finished snapshot as an executor hands it back, with the occupancy
/// figures the router's per-snapshot metrics need (zero on unrecorded
/// inline runs, where nobody reads them).
#[derive(Debug)]
pub struct Completed {
    pub(crate) snapshot: RateSnapshot,
    pub(crate) occupancy: usize,
    pub(crate) state_cells: usize,
}

pub(crate) mod sealed {
    /// Restricts [`super::Executor`] to this crate's two executors.
    pub trait Sealed {}
}

/// Where a [`Router`]'s per-user work runs: [`Inline`] on the caller's
/// thread, or [`ShardPool`](crate::fleet::ShardPool) on shard workers.
/// Sealed; the router dispatches to it statically.
pub trait Executor: sealed::Sealed {
    /// Shards users are partitioned over.
    fn shard_count(&self) -> usize;
    /// Cold: binds `user_id` to the next dense slot on `shard` and
    /// returns that slot.
    fn admit(&mut self, shard: u32, user_id: u64, ctx: &Context) -> u32;
    /// Hot: hands one resolved report to the user at (`shard`, `slot`).
    fn deliver(&mut self, shard: u32, slot: u32, tag_id: u32, report: &TagReport, ctx: &Context);
    /// Recorded runs only: a report entered the router at `time_s`.
    fn stamp(&mut self, _time_s: f64) {}
    /// Drops state older than the window behind `watermark_s`.
    fn evict(&mut self, watermark_s: f64, ctx: &Context);
    /// Evicts to `watermark_s`, then analyses every user for the
    /// snapshot stamped `time_s`. Returns it if it finished synchronously;
    /// otherwise it surfaces later from [`Executor::poll`].
    fn snapshot(&mut self, watermark_s: f64, time_s: f64, ctx: &Context) -> Option<Completed>;
    /// The next asynchronously finished snapshot, in request order.
    fn poll(&mut self, _ctx: &Context) -> Option<Completed> {
        None
    }
    /// Called before a pushed batch's first report.
    fn begin_batch(&mut self, _ctx: &Context) {}
    /// Called after a pushed batch's last report.
    fn end_batch(&mut self, _routed_any: bool, _ctx: &Context) {}
    /// Waits for every requested snapshot to become pollable.
    fn finish(&mut self, _ctx: &Context) {}
    /// Snapshots requested but not yet returned by [`Executor::poll`].
    fn in_flight(&self) -> usize {
        0
    }
}

/// The snapshot/eviction clock: the watermark (newest report time), the
/// next cadence point and the last eviction.
#[derive(Debug, Clone, Copy)]
struct Cadence {
    window_s: f64,
    update_every_s: f64,
    /// The longest state may go unevicted: `min(window, cadence)`, so
    /// memory stays bounded even when the cadence is long.
    evict_every_s: f64,
    watermark_s: f64,
    next_update_s: f64,
    last_evict_s: f64,
}

impl Cadence {
    fn new(window_s: f64, update_every_s: f64) -> Self {
        Cadence {
            window_s,
            update_every_s,
            evict_every_s: window_s.min(update_every_s),
            watermark_s: 0.0,
            next_update_s: update_every_s,
            last_evict_s: 0.0,
        }
    }

    /// Pops the next cadence point the watermark has reached. After a
    /// forward jump, points older than one window behind the watermark
    /// are skipped (never the newest due one): every catch-up snapshot
    /// evicts to the same watermark and analyses the same state, so they
    /// carry no information — and a hostile `1e300` timestamp would
    /// otherwise queue an unbounded number of them.
    fn take_due(&mut self) -> Option<f64> {
        if self.watermark_s < self.next_update_s {
            return None;
        }
        let behind = (self.watermark_s - self.window_s - self.next_update_s) / self.update_every_s;
        let due = (self.watermark_s - self.next_update_s) / self.update_every_s;
        let skip = behind.ceil().min(due.floor());
        if skip >= 1.0 {
            self.next_update_s += skip * self.update_every_s;
        }
        let time_s = self.next_update_s;
        let next = time_s + self.update_every_s;
        // Where one step no longer moves the clock, resume just past the
        // watermark instead of re-emitting this point forever.
        self.next_update_s = if next > time_s {
            next
        } else {
            self.watermark_s.max(time_s).next_up()
        };
        self.last_evict_s = self.watermark_s;
        Some(time_s)
    }
}

/// The real-time engine: EPC interning, user admission, the cadence
/// machine and per-snapshot metrics, over an [`Executor`] `X` that runs
/// the per-user work. Use it through its two instantiations,
/// [`StreamingMonitor`] and [`FleetEngine`](crate::fleet::FleetEngine).
#[derive(Debug)]
pub struct Router<R, X> {
    resolver: R,
    /// Hot-path EPC → route cache; consulted before the resolver.
    routes: IdentityCache,
    /// Cold-path user → (shard, slot) assignments.
    user_slots: BTreeMap<u64, (u32, u32)>,
    exec: X,
    cadence: Cadence,
    ctx: Context,
    link_quality: LinkQualityTracker,
    /// Snapshots finished but not yet returned.
    pending: Vec<RateSnapshot>,
}

impl<R: IdentityResolver, X: Executor> Router<R, X> {
    /// Validates the configuration, window and cadence, then builds the
    /// executor.
    pub(crate) fn build(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
        recorder: SharedRecorder,
        exec: impl FnOnce(&PipelineConfig, &SharedRecorder) -> X,
    ) -> Result<Self, InvalidConfigError> {
        config.validate()?;
        PipelineConfig::validate_window(window_s, update_every_s)?;
        let exec = exec(&config, &recorder);
        Ok(Router {
            resolver,
            routes: IdentityCache::new(),
            user_slots: BTreeMap::new(),
            exec,
            cadence: Cadence::new(window_s, update_every_s),
            ctx: Context {
                config,
                recording: recorder.enabled(),
                recorder,
                tracer: SharedTracer::noop(),
                tracing: false,
            },
            link_quality: LinkQualityTracker::new(),
            pending: Vec::new(),
        })
    }

    /// Pushes a batch of time-ordered reports and returns every snapshot
    /// that finished. Each report is routed straight into its user's
    /// operator graph — amortised O(1) work per report; snapshots cost
    /// O(window), never O(stream). On the fleet, a cadence point's
    /// snapshot may surface in a later `push` (or in [`Router::finish`])
    /// if a shard has not caught up yet; the order is always cadence
    /// order.
    ///
    /// Reports whose `time_s`, `phase_rad` or `rssi_dbm` is NaN or
    /// infinite are dropped (and counted as
    /// `tagbreathe_reports_nonfinite_total`).
    pub fn push<I>(&mut self, reports: I) -> Vec<RateSnapshot>
    where
        I: IntoIterator<Item = TagReport>,
    {
        self.exec.begin_batch(&self.ctx);
        let mut routed_any = false;
        for r in reports {
            routed_any = true;
            self.ingest_report(&r);
        }
        self.exec.end_batch(routed_any, &self.ctx);
        self.collect();
        std::mem::take(&mut self.pending)
    }

    /// Flushes the engine: waits for every in-flight snapshot, stops any
    /// workers and returns the remaining snapshots.
    #[must_use]
    pub fn finish(mut self) -> Vec<RateSnapshot> {
        self.exec.finish(&self.ctx);
        self.collect();
        std::mem::take(&mut self.pending)
    }

    /// Hot path: one report through admission, routing and the cadence.
    fn ingest_report(&mut self, r: &TagReport) {
        // A non-finite phase would pin a NaN unwrap reference on its
        // channel and a non-finite RSSI would poison the tag's mean RSSI.
        if !(r.time_s.is_finite() && r.phase_rad.is_finite() && r.rssi_dbm.is_finite()) {
            if self.ctx.recording {
                self.ctx.recorder.count(metrics::REPORTS_NONFINITE, 1);
            }
            return;
        }
        self.cadence.watermark_s = self.cadence.watermark_s.max(r.time_s);
        if self.ctx.recording {
            self.ctx.recorder.count(metrics::REPORTS_INGESTED, 1);
            self.exec.stamp(r.time_s);
        }
        if self.ctx.recording || self.ctx.tracing {
            let hop = self.link_quality.observe(r);
            if let (true, Some(hop)) = (self.ctx.tracing, hop) {
                self.ctx.tracer.emit(
                    TraceEvent::instant("channel_hop", r.time_s)
                        .with_port(hop.port)
                        .with_channel(hop.to)
                        .with_values(f64::from(hop.from), f64::from(hop.to)),
                );
            }
        }
        let route = match self.routes.probe(r.epc.user_id(), r.epc.tag_id()) {
            Some(route) => route,
            None => self.admit_report(r),
        };
        match route {
            Route::User {
                shard,
                slot,
                tag_id,
            } => self.exec.deliver(shard, slot, tag_id, r, &self.ctx),
            Route::Unknown => {
                if self.ctx.recording {
                    self.ctx.recorder.count(metrics::REPORTS_UNKNOWN, 1);
                }
                if self.ctx.tracing {
                    self.ctx.tracer.emit(
                        TraceEvent::instant("unknown_report", r.time_s)
                            .with_port(r.antenna_port)
                            .with_channel(r.channel_index),
                    );
                }
            }
        }
        if self.cadence.watermark_s >= self.cadence.next_update_s {
            self.emit_due();
        }
        if self.cadence.watermark_s - self.cadence.last_evict_s >= self.cadence.evict_every_s {
            self.exec.evict(self.cadence.watermark_s, &self.ctx);
            self.cadence.last_evict_s = self.cadence.watermark_s;
        }
    }

    /// Cold path on a route-cache miss: resolve the EPC, assign a new
    /// user a shard and slot, and cache the route (Unknown EPCs are
    /// cached too, so item traffic stays O(1) per read).
    fn admit_report(&mut self, r: &TagReport) -> Route {
        let route = match classify(&self.resolver, r) {
            Some((user_id, tag_id)) => {
                let (shard, slot) = match self.user_slots.get(&user_id) {
                    Some(&assigned) => assigned,
                    None => {
                        let shard = shard_of_user(user_id, self.exec.shard_count());
                        let slot = self.exec.admit(shard, user_id, &self.ctx);
                        self.user_slots.insert(user_id, (shard, slot));
                        (shard, slot)
                    }
                };
                Route::User {
                    shard,
                    slot,
                    tag_id,
                }
            }
            None => Route::Unknown,
        };
        self.routes
            .admit_route(r.epc.user_id(), r.epc.tag_id(), route);
        route
    }

    /// Cold path at a cadence boundary: requests every due snapshot.
    fn emit_due(&mut self) {
        while let Some(time_s) = self.cadence.take_due() {
            if let Some(done) = self.request(time_s) {
                self.complete(done);
            }
        }
        self.collect();
    }

    /// Asks the executor for the snapshot at `time_s` over the window
    /// ending at the watermark. Link quality is published here, at the
    /// cadence point, so both executors report the same per-port gauges.
    fn request(&mut self, time_s: f64) -> Option<Completed> {
        let done = self
            .exec
            .snapshot(self.cadence.watermark_s, time_s, &self.ctx);
        if self.ctx.recording {
            self.link_quality.publish(self.ctx.recorder.as_dyn());
        }
        done
    }

    /// Moves every asynchronously finished snapshot to the output.
    fn collect(&mut self) {
        while let Some(done) = self.exec.poll(&self.ctx) {
            self.complete(done);
        }
    }

    /// Emits the per-snapshot metrics and one `rate` trace instant per
    /// estimated user, then queues the snapshot for output. The snapshot
    /// itself is untouched, so recorded, traced and no-op runs produce
    /// identical output streams.
    fn complete(&mut self, done: Completed) {
        let snap = done.snapshot;
        if self.ctx.recording {
            let rec = self.ctx.recorder.as_dyn();
            rec.count(metrics::SNAPSHOTS, 1);
            rec.count(metrics::RATES_REPORTED, snap.rates_bpm.len() as u64);
            let failures = done.occupancy.saturating_sub(snap.rates_bpm.len());
            if failures > 0 {
                rec.count(metrics::ANALYSIS_FAILURES, failures as u64);
            }
            rec.gauge(metrics::USERS_TRACKED, done.occupancy as f64);
            rec.gauge(metrics::STATE_CELLS, done.state_cells as f64);
        }
        if self.ctx.tracing {
            for (&user, &bpm) in &snap.rates_bpm {
                let effort = snap.effort_rms.get(&user).copied().unwrap_or(0.0);
                self.ctx.tracer.emit(
                    TraceEvent::instant("rate", snap.time_s)
                        .with_user(user)
                        .with_values(bpm, effort),
                );
            }
        }
        self.pending.push(snap);
    }

    /// Number of shards users are partitioned over (1 inline).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.exec.shard_count()
    }

    /// Cadence snapshots requested but still being analysed on shard
    /// workers (always 0 inline). They surface from a later `push` — an
    /// empty one will do — or from [`Router::finish`].
    #[must_use]
    pub fn snapshots_in_flight(&self) -> usize {
        self.exec.in_flight()
    }

    /// Users admitted (interned and assigned a slot) so far.
    #[must_use]
    pub fn routed_users(&self) -> usize {
        self.user_slots.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.ctx.config
    }

    /// The attached recorder handle (no-op by default).
    pub fn recorder(&self) -> &SharedRecorder {
        &self.ctx.recorder
    }

    /// The attached tracer handle (no-op by default).
    pub fn tracer(&self) -> &SharedTracer {
        &self.ctx.tracer
    }

    /// Per-antenna-port link statistics (populated only while a recorder
    /// or tracer is attached).
    pub fn link_quality(&self) -> &LinkQualityTracker {
        &self.link_quality
    }
}

/// The inline executor: one [`ShardCore`] driven on the caller's thread.
#[derive(Debug)]
pub struct Inline {
    core: ShardCore,
    window_s: f64,
}

impl sealed::Sealed for Inline {}

impl Executor for Inline {
    fn shard_count(&self) -> usize {
        1
    }

    fn admit(&mut self, _shard: u32, user_id: u64, _ctx: &Context) -> u32 {
        self.core.admit_user(user_id)
    }

    fn deliver(&mut self, _shard: u32, slot: u32, tag_id: u32, report: &TagReport, ctx: &Context) {
        self.core.ingest(
            slot,
            tag_id,
            report,
            &ctx.config,
            ctx.recorder.as_dyn(),
            ctx.tracer.as_dyn(),
        );
    }

    fn evict(&mut self, watermark_s: f64, ctx: &Context) {
        let _span = TraceSpan::start(ctx.tracer.as_dyn(), "evict", watermark_s);
        let start = ctx.recording.then(Instant::now);
        self.core.evict(
            watermark_s,
            self.window_s,
            &ctx.config,
            ctx.recorder.as_dyn(),
        );
        if let Some(start) = start {
            ctx.recorder
                .record(metrics::EVICT_LATENCY_NS, duration_ns(start.elapsed()));
        }
    }

    /// Evicts then analyses synchronously, timing both when recording.
    fn snapshot(&mut self, watermark_s: f64, time_s: f64, ctx: &Context) -> Option<Completed> {
        self.evict(watermark_s, ctx);
        let _span = TraceSpan::start(ctx.tracer.as_dyn(), "snapshot", time_s);
        let start = ctx.recording.then(Instant::now);
        let mut snapshot = RateSnapshot {
            time_s,
            ..RateSnapshot::default()
        };
        self.core.snapshot_into(
            &ctx.config,
            &mut snapshot.rates_bpm,
            &mut snapshot.effort_rms,
        );
        let (occupancy, state_cells) = match start {
            Some(start) => {
                ctx.recorder
                    .record(metrics::SNAPSHOT_LATENCY_NS, duration_ns(start.elapsed()));
                (self.core.occupancy(), self.core.state_cells())
            }
            None => (0, 0),
        };
        Some(Completed {
            snapshot,
            occupancy,
            state_cells,
        })
    }
}

/// Single-threaded sliding-window streaming monitor: the [`Router`] over
/// the [`Inline`] executor.
///
/// # Examples
///
/// ```
/// use tagbreathe::pipeline::StreamingMonitor;
/// use tagbreathe::PipelineConfig;
/// use epcgen2::mapping::EmbeddedIdentity;
///
/// let mut sm = StreamingMonitor::new(
///     PipelineConfig::paper_default(),
///     EmbeddedIdentity::new([1]),
///     25.0,
///     5.0,
/// )?;
/// assert!(sm.push(None::<tagbreathe::TagReport>.into_iter()).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type StreamingMonitor<R> = Router<R, Inline>;

impl<R: IdentityResolver> Router<R, Inline> {
    /// Creates a streaming monitor with an analysis window of `window_s`
    /// seconds, snapshotted every `update_every_s` seconds of stream time.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the window /
    /// cadence are not positive and finite.
    pub fn new(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
    ) -> Result<Self, InvalidConfigError> {
        Self::build(
            config,
            resolver,
            window_s,
            update_every_s,
            SharedRecorder::noop(),
            |_, _| Inline {
                core: ShardCore::new(),
                window_s,
            },
        )
    }

    /// Attaches a metric sink (builder style). With the default no-op
    /// handle every instrumentation site reduces to one cached boolean
    /// test, so streaming cost is unchanged; with a registry attached the
    /// monitor emits the `tagbreathe_*` counters, gauges and latency
    /// histograms listed in [`crate::metrics`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use obs::{Registry, SharedRecorder};
    /// use tagbreathe::pipeline::StreamingMonitor;
    /// use tagbreathe::PipelineConfig;
    /// use epcgen2::mapping::EmbeddedIdentity;
    ///
    /// let registry = Arc::new(Registry::new());
    /// let sm = StreamingMonitor::new(
    ///     PipelineConfig::paper_default(),
    ///     EmbeddedIdentity::new([1]),
    ///     25.0,
    ///     5.0,
    /// )?
    /// .with_recorder(SharedRecorder::new(registry.clone()));
    /// # let _ = sm;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.ctx.recording = recorder.enabled();
        self.ctx.recorder = recorder;
        self
    }

    /// Attaches a flight-recorder tracer (builder style). With the default
    /// no-op handle every emit site reduces to one cached boolean test;
    /// with a tracer attached the monitor emits per-read provenance
    /// events, channel-hop / phase accept-reject instants, per-user rate
    /// instants and snapshot / evict spans into the ring. The estimate
    /// stream is bit-identical either way (pinned by
    /// `tests/observability.rs`).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use obs::trace::{FlightRecorder, SharedTracer};
    /// use tagbreathe::pipeline::StreamingMonitor;
    /// use tagbreathe::PipelineConfig;
    /// use epcgen2::mapping::EmbeddedIdentity;
    ///
    /// let ring = Arc::new(FlightRecorder::with_capacity(4096)?);
    /// let sm = StreamingMonitor::new(
    ///     PipelineConfig::paper_default(),
    ///     EmbeddedIdentity::new([1]),
    ///     25.0,
    ///     5.0,
    /// )?
    /// .with_tracer(SharedTracer::new(ring.clone()));
    /// # let _ = sm;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.ctx.tracing = tracer.enabled();
        self.ctx.tracer = tracer;
        self
    }

    /// Forces an immediate snapshot over the current window.
    pub fn snapshot_now(&mut self) -> RateSnapshot {
        self.cadence.last_evict_s = self.cadence.watermark_s;
        // Inline snapshots complete synchronously, and `pending` is empty
        // between pushes, so the one queued snapshot is this one.
        if let Some(done) = self.request(self.cadence.watermark_s) {
            self.complete(done);
        }
        self.pending.pop().unwrap_or_default()
    }

    /// Retained state cells across all users — tag slots, per-channel
    /// phase references, buffered track samples and fusion bins. Bounded
    /// by window contents (plus the gap horizon), not stream length.
    pub fn buffered(&self) -> usize {
        self.exec.core.state_cells()
    }

    /// Number of users currently holding state.
    pub fn tracked_users(&self) -> usize {
        self.exec.core.occupancy()
    }

    /// Number of `(antenna_port, tag_id)` slots currently holding state
    /// across all users.
    pub fn tracked_tags(&self) -> usize {
        self.exec.core.tag_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breathing::{Scenario, Subject};
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::reader::Reader;
    use epcgen2::world::ScenarioWorld;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn capture(secs: f64) -> Vec<TagReport> {
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, 2.0))
            .build();
        Reader::paper_default().run(&ScenarioWorld::new(scenario), secs)
    }

    #[test]
    fn streaming_emits_snapshots_at_cadence() -> TestResult {
        let reports = capture(60.0);
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            25.0,
            10.0,
        )?;
        let snaps = sm.push(reports);
        // 60 s at a 10 s cadence → snapshots at 10,20,...,60 (first few may
        // lack data but still emit).
        assert!((5..=7).contains(&snaps.len()), "{} snapshots", snaps.len());
        // Later snapshots (full window) should estimate ~10 bpm.
        let last = snaps.last().ok_or("no snapshots")?;
        let bpm = last.rates_bpm.get(&1).copied().ok_or("user not tracked")?;
        assert!((bpm - 10.0).abs() < 1.5, "streaming estimate {bpm}");
        Ok(())
    }

    #[test]
    fn window_eviction_bounds_memory() -> TestResult {
        let reports = capture(60.0);
        let n = reports.len();
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
        )?;
        sm.push(reports);
        // Buffer holds at most ~10 s of ~64 Hz data, far less than all 60 s.
        assert!(sm.buffered() < n / 3, "buffered {} of {n}", sm.buffered());
        Ok(())
    }

    #[test]
    fn effort_collapses_during_streamed_apnea() -> TestResult {
        use breathing::{Posture, TagSite, Waveform};
        use rfchannel::geometry::Vec3;
        let subject = breathing::Subject::new(
            1,
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(-1.0, 0.0, 0.0),
            Posture::Lying,
            Waveform::WithApnea {
                rate_bpm: 18.0,
                breathe_s: 40.0,
                apnea_s: 20.0,
            },
            TagSite::ALL.to_vec(),
        );
        let scenario = Scenario::builder().subject(subject).build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            15.0,
            5.0,
        )?;
        let snaps = sm.push(reports);
        // Snapshot at t=40 covers breathing (25-40); t=60 covers apnea
        // (45-60).
        let effort_at = |t: f64| {
            snaps
                .iter()
                .filter(|s| (s.time_s - t).abs() < 2.5)
                .find_map(|s| s.effort_rms.get(&1).copied())
        };
        let breathing = effort_at(40.0).ok_or("no breathing-window effort")?;
        let apnea = effort_at(60.0).unwrap_or(0.0);
        assert!(
            apnea < breathing * 0.5,
            "apnea effort {apnea:.2e} vs breathing {breathing:.2e}"
        );
        Ok(())
    }

    #[test]
    fn snapshot_now_on_empty_monitor() -> TestResult {
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            25.0,
            5.0,
        )?;
        let snap = sm.snapshot_now();
        assert!(snap.rates_bpm.is_empty());
        Ok(())
    }

    #[test]
    fn invalid_window_and_cadence_say_what_is_wrong() {
        let message = |window_s: f64, update_every_s: f64| {
            StreamingMonitor::new(
                PipelineConfig::paper_default(),
                EmbeddedIdentity::new([1]),
                window_s,
                update_every_s,
            )
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default()
        };
        for window_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                message(window_s, 5.0).contains("analysis window must be positive and finite"),
                "window {window_s}: {}",
                message(window_s, 5.0)
            );
        }
        for cadence_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                message(25.0, cadence_s).contains("snapshot cadence must be positive and finite"),
                "cadence {cadence_s}: {}",
                message(25.0, cadence_s)
            );
        }
        assert!(message(25.0, 5.0).is_empty());
    }

    #[test]
    fn forward_jump_skips_catch_up_points_older_than_the_window() {
        let mut cadence = Cadence::new(10.0, 1.0);
        cadence.watermark_s = 3.5;
        // A jump shorter than the window emits every point, as before.
        let short: Vec<f64> = std::iter::from_fn(|| cadence.take_due()).collect();
        assert_eq!(short, [1.0, 2.0, 3.0]);
        // A jump past the window keeps only points within one window.
        cadence.watermark_s = 100.5;
        let long: Vec<f64> = std::iter::from_fn(|| cadence.take_due()).collect();
        assert_eq!(long.first().copied(), Some(91.0));
        assert_eq!(long.last().copied(), Some(100.0));
        assert_eq!(long.len(), 10);
        // Where a step cannot move the clock, one point is emitted.
        cadence.watermark_s = 1e300;
        assert_eq!(cadence.take_due(), Some(1e300));
        assert_eq!(cadence.take_due(), None);
    }

    #[test]
    fn hostile_timestamps_are_dropped_not_looped_on() -> TestResult {
        let mut reports = capture(30.0);
        let registry = std::sync::Arc::new(obs::Registry::new());
        let mut sm = StreamingMonitor::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            25.0,
            5.0,
        )?
        .with_recorder(SharedRecorder::new(registry.clone()));
        let first = reports.first().copied().ok_or("no reports")?;
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            reports.insert(reports.len() / 2, TagReport { time_s: t, ..first });
        }
        let snaps = sm.push(reports);
        assert_eq!(registry.counter(metrics::REPORTS_NONFINITE), 3);
        assert!(snaps.len() >= 5, "{} snapshots", snaps.len());
        let late = sm.push([TagReport {
            time_s: 1e300,
            ..first
        }]);
        assert!(late.len() <= 6, "{} catch-up snapshots", late.len());
        for snap in snaps.iter().chain(&late) {
            assert!(snap.rates_bpm.values().all(|bpm| bpm.is_finite()));
        }
        Ok(())
    }
}
