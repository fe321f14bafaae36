//! Sharded multi-core fleet engine: many users, many cores, one stream.
//!
//! [`StreamingMonitor`](crate::pipeline::StreamingMonitor) drives every
//! user's operator graph inline on the caller's thread — the right shape
//! for one reader and a handful of subjects. A hospital-ward deployment
//! inverts the economics: thousands of monitored users behind one LLRP
//! feed, far more analysis work per cadence tick than one core can absorb.
//! The fleet engine spreads that work across OS threads without giving up
//! the property that makes the single-threaded engine testable — the
//! estimate stream is **bit-identical** to the inline one.
//!
//! Architecture (std-only: threads + atomics):
//!
//! ```text
//!            ┌────────────┐   SPSC ring    ┌──────────────┐
//!  reports → │   router   │ ═════════════▶ │ shard worker │──┐
//!            │ (caller's  │ ═════════════▶ │ shard worker │──┼─▶ mpsc ─▶ merge
//!            │   thread)  │ ═════════════▶ │ shard worker │──┘   (router)
//!            └────────────┘                └──────────────┘
//! ```
//!
//! * The **router** is the same [`Router`] that drives the inline
//!   engine: it interns each EPC once ([`interner::IdentityCache`]),
//!   partitions users over shards by hash ([`interner::shard_of_user`])
//!   and runs the one cadence; its [`ShardPool`] executor forwards every
//!   report over a bounded lock-free [`ring`](ring::SpscRing) to the
//!   owning shard.
//! * Each **shard worker** owns the [`shard::ShardCore`] slab for its
//!   users; the ring is its only input, so no user state is ever shared
//!   between threads.
//! * **Idle workers park.** A worker that finds its ring empty spins
//!   briefly, then blocks in [`std::thread::park`]. The router unparks a
//!   shard after publishing to it: once per `push` call for every shard
//!   that was sent a message, before every yield while a ring is full,
//!   and after `Finish`. `unpark` synchronizes-with the `park` it
//!   releases, and a token left by an early `unpark` makes the next
//!   `park` return at once, so no wake is lost; an idle engine costs no
//!   CPU.
//! * **Snapshots** use epoch/watermark handoff: the router broadcasts a
//!   `Snapshot{watermark, time, epoch}` request in-stream, each shard
//!   evicts to the watermark, analyses its users and sends one part back;
//!   the router merges the disjoint per-user maps in epoch order.
//!
//! Bit-identity holds because control messages are broadcast *in stream
//! order* on every ring: each shard observes exactly the interleaving of
//! its reports, evictions and snapshot points that the single-threaded
//! engine would have applied to the same users.
//!
//! The lock-free protocol itself is machine-checked: every atomic call
//! site spells its ordering through [`ring::protocol`], statically
//! enforced by the `atomics` pass of `tagbreathe-lint` against the
//! `[atomics]` declarations in `lint.toml`, and dynamically explored by
//! the bounded model checker in `crates/syncmodel`, which ports the ring
//! push/pop, the epoch all-parts barrier and the `Finish` drain onto a
//! store-buffer memory model (see `DESIGN.md` §15).

pub mod interner;
pub mod msg;
pub mod ring;
pub mod shard;

pub use ring::protocol;

use crate::config::{InvalidConfigError, PipelineConfig};
use crate::metrics;
use crate::pipeline::{Completed, Context, Executor, RateSnapshot, Router};
use epcgen2::epc::Epc96;
use epcgen2::mapping::IdentityResolver;
use epcgen2::report::TagReport;
use msg::ShardMsg;
use obs::freshness::{duration_ns, Stage, WatermarkClock};
use obs::trace::SharedTracer;
use obs::{Label, Recorder, SharedRecorder};
use ring::{RingConsumer, RingProducer, SLOT_WORDS};
use shard::ShardCore;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread::{self, Thread};
use std::time::Instant;

/// Ring capacity per shard, in slots. 1024 six-word slots ≈ 48 KiB per
/// shard: deep enough to ride out a snapshot pause, small enough to stay
/// cache-resident.
const RING_SLOTS: usize = 1024;

/// One shard's snapshot contribution, sent back over the results channel.
#[derive(Debug)]
struct ShardPart {
    shard: u32,
    epoch: u64,
    time_s: f64,
    rates_bpm: BTreeMap<u64, f64>,
    effort_rms: BTreeMap<u64, f64>,
    occupancy: usize,
    state_cells: usize,
    resident_bytes: u64,
    ring_depth: u64,
}

/// Accumulator for one epoch's parts while they trickle in.
#[derive(Debug, Default)]
struct PendingEpoch {
    time_s: f64,
    parts: usize,
    rates_bpm: BTreeMap<u64, f64>,
    effort_rms: BTreeMap<u64, f64>,
    occupancy: usize,
    state_cells: usize,
}

/// Empty-ring polls a shard worker spins through before it parks: a
/// short spin keeps back-to-back batches off the park/unpark syscalls.
const SPINS_BEFORE_PARK: u32 = 64;

/// The router's handle to one shard: ring producer plus worker thread.
#[derive(Debug)]
struct ShardLink {
    feed: RingProducer,
    worker: Option<thread::JoinHandle<()>>,
    /// The worker's handle, for `unpark` after a publish.
    thread: Thread,
    /// A message was published since the worker was last unparked.
    needs_wake: bool,
    /// Next dense user slot to assign on this shard.
    next_slot: u32,
}

impl ShardLink {
    /// Blocking ring push; returns how often the ring was full. While it
    /// is full the worker is unparked before every yield, so a parked
    /// worker drains the ring the router is waiting on.
    fn push_blocking(&mut self, words: &[u64; SLOT_WORDS]) -> u64 {
        let mut stalls = 0u64;
        while !self.feed.try_push(words) {
            stalls += 1;
            self.thread.unpark();
            thread::yield_now();
        }
        self.needs_wake = true;
        stalls
    }

    /// Unparks the worker if anything was published since the last wake.
    /// `unpark` after the ring's Release publish synchronizes-with the
    /// worker's `park`, so the worker's next pop sees the message.
    fn wake(&mut self) {
        if std::mem::take(&mut self.needs_wake) {
            self.thread.unpark();
        }
    }
}

/// The threaded executor: one worker thread per shard, fed over SPSC
/// rings, with snapshot parts merged in epoch order.
#[derive(Debug)]
pub struct ShardPool {
    shards: Vec<ShardLink>,
    results: mpsc::Receiver<ShardPart>,
    pending: BTreeMap<u64, PendingEpoch>,
    /// Broadcast instant per in-flight epoch (recorded runs only).
    epoch_started: BTreeMap<u64, Instant>,
    next_epoch: u64,
    next_emit: u64,
    /// Ingest stamps for the shard-ingest freshness stage (recorded runs
    /// only; never touched on the disabled path).
    lag_clock: WatermarkClock,
    /// Start of the batch being routed (recorded runs only).
    handoff_started: Option<Instant>,
    finished: bool,
}

/// Multi-core sharded streaming engine: the
/// [`Router`] over the [`ShardPool`] executor.
///
/// Same contract as [`StreamingMonitor`](crate::pipeline::StreamingMonitor)
/// — push time-ordered reports, get [`RateSnapshot`]s back at the cadence —
/// but per-user work runs on `shards` worker threads. Snapshot parts merge
/// in epoch order, so the returned stream is deterministic and
/// bit-identical to the single-threaded engine for any shard count
/// (pinned by `tests/fleet_equivalence.rs`).
///
/// # Examples
///
/// ```
/// use tagbreathe::fleet::FleetEngine;
/// use tagbreathe::PipelineConfig;
/// use epcgen2::mapping::EmbeddedIdentity;
///
/// let mut fleet = FleetEngine::new(
///     PipelineConfig::paper_default(),
///     EmbeddedIdentity::new([1]),
///     25.0,
///     5.0,
///     2,
/// )?;
/// let mut snaps = fleet.push(None::<tagbreathe::TagReport>.into_iter());
/// snaps.extend(fleet.finish());
/// assert!(snaps.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type FleetEngine<R> = Router<R, ShardPool>;

impl<R: IdentityResolver> Router<R, ShardPool> {
    /// Creates a fleet with `shards` worker threads (0 means 1) and no
    /// metric sink.
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
        shards: usize,
    ) -> Result<Self, InvalidConfigError> {
        Self::observed(
            config,
            resolver,
            window_s,
            update_every_s,
            shards,
            SharedRecorder::noop(),
        )
    }

    /// Creates a fleet with `shards` worker threads (0 means 1), routing
    /// per-shard and per-user metrics through `recorder` (workers get
    /// clones of the handle, so counters aggregate across threads).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the window /
    /// cadence are not positive and finite.
    pub fn observed(
        config: PipelineConfig,
        resolver: R,
        window_s: f64,
        update_every_s: f64,
        shards: usize,
        recorder: SharedRecorder,
    ) -> Result<Self, InvalidConfigError> {
        Self::build(
            config,
            resolver,
            window_s,
            update_every_s,
            recorder,
            |config, recorder| ShardPool::spawn(config, recorder, window_s, update_every_s, shards),
        )
    }
}

impl ShardPool {
    fn spawn(
        config: &PipelineConfig,
        recorder: &SharedRecorder,
        window_s: f64,
        update_every_s: f64,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let (results_tx, results) = mpsc::channel();
        let mut links = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (feed, consumer) = ring::channel(RING_SLOTS);
            let worker_config = config.clone();
            let worker_recorder = recorder.clone();
            let out = results_tx.clone();
            let shard_id = u32::try_from(shard).unwrap_or(u32::MAX);
            let worker = thread::spawn(move || {
                shard_worker(
                    shard_id,
                    consumer,
                    worker_config,
                    window_s,
                    &worker_recorder,
                    &out,
                );
            });
            links.push(ShardLink {
                feed,
                thread: worker.thread().clone(),
                worker: Some(worker),
                needs_wake: false,
                next_slot: 0,
            });
        }
        ShardPool {
            shards: links,
            results,
            pending: BTreeMap::new(),
            epoch_started: BTreeMap::new(),
            next_epoch: 0,
            next_emit: 0,
            lag_clock: WatermarkClock::new(512, update_every_s / 8.0),
            handoff_started: None,
            finished: false,
        }
    }

    /// Blocking ring send with stall accounting: a full ring applies
    /// bounded backpressure to the router instead of shedding reports.
    fn send_to(&mut self, shard: u32, words: &[u64; SLOT_WORDS], ctx: &Context) {
        let Some(link) = self.shards.get_mut(shard as usize) else {
            return;
        };
        let stalls = link.push_blocking(words);
        if stalls > 0 && ctx.recording {
            ctx.recorder.add(
                metrics::FLEET_RING_STALLS,
                Some(Label::shard(shard)),
                stalls,
            );
        }
    }

    fn broadcast(&mut self, words: &[u64; SLOT_WORDS], ctx: &Context) {
        for shard in 0..u32::try_from(self.shards.len()).unwrap_or(0) {
            self.send_to(shard, words, ctx);
        }
    }

    fn absorb(&mut self, mut part: ShardPart, ctx: &Context) {
        if ctx.recording {
            let label = Some(Label::shard(part.shard));
            ctx.recorder
                .set_gauge(metrics::FLEET_RING_DEPTH, label, part.ring_depth as f64);
            ctx.recorder
                .set_gauge(metrics::FLEET_SHARD_USERS, label, part.occupancy as f64);
            ctx.recorder.set_gauge(
                metrics::FLEET_RESIDENT_BYTES,
                label,
                part.resident_bytes as f64,
            );
        }
        let entry = self.pending.entry(part.epoch).or_default();
        entry.time_s = part.time_s;
        entry.parts += 1;
        entry.rates_bpm.append(&mut part.rates_bpm);
        entry.effort_rms.append(&mut part.effort_rms);
        entry.occupancy += part.occupancy;
        entry.state_cells += part.state_cells;
    }

    /// The next epoch whose parts have all arrived, in epoch order — the
    /// "order-pinned merge" that makes fleet output deterministic.
    fn pop_ready(&mut self, ctx: &Context) -> Option<Completed> {
        let complete = self
            .pending
            .get(&self.next_emit)
            .is_some_and(|e| e.parts == self.shards.len());
        if !complete {
            return None;
        }
        let epoch = self.pending.remove(&self.next_emit)?;
        if ctx.recording {
            let rec = ctx.recorder.as_dyn();
            if let Some(lag) = self.lag_clock.lag(epoch.time_s) {
                rec.observe(
                    metrics::SNAPSHOT_LAG_NS,
                    Some(Label::stage(Stage::ShardIngest.code())),
                    duration_ns(lag),
                );
            }
            if let Some(started) = self.epoch_started.remove(&self.next_emit) {
                let ns = duration_ns(started.elapsed());
                rec.record(metrics::FLEET_HANDOFF_LATENCY_NS, ns);
                rec.observe(
                    metrics::SNAPSHOT_LAG_NS,
                    Some(Label::stage(Stage::EpochMerge.code())),
                    ns,
                );
            }
        }
        self.next_emit += 1;
        Some(Completed {
            snapshot: RateSnapshot {
                time_s: epoch.time_s,
                rates_bpm: epoch.rates_bpm,
                effort_rms: epoch.effort_rms,
            },
            occupancy: epoch.occupancy,
            state_cells: epoch.state_cells,
        })
    }

    /// Idempotent teardown: broadcast `Finish`, wake and join the workers.
    fn stop(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let words = ShardMsg::Finish.encode();
        for link in &mut self.shards {
            link.push_blocking(&words);
            link.wake();
        }
        for link in &mut self.shards {
            if let Some(worker) = link.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl crate::pipeline::sealed::Sealed for ShardPool {}

impl Executor for ShardPool {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Assigns the next slot on `shard` and tells the shard.
    fn admit(&mut self, shard: u32, user_id: u64, ctx: &Context) -> u32 {
        let Some(link) = self.shards.get_mut(shard as usize) else {
            return 0;
        };
        let slot = link.next_slot;
        link.next_slot = link.next_slot.wrapping_add(1);
        self.send_to(shard, &ShardMsg::Admit { slot, user_id }.encode(), ctx);
        slot
    }

    fn deliver(&mut self, shard: u32, slot: u32, tag_id: u32, r: &TagReport, ctx: &Context) {
        let words = ShardMsg::Report {
            slot,
            tag_id,
            antenna_port: r.antenna_port,
            channel_index: r.channel_index,
            time_s: r.time_s,
            phase_rad: r.phase_rad,
            rssi_dbm: r.rssi_dbm,
            doppler_hz: r.doppler_hz,
        }
        .encode();
        self.send_to(shard, &words, ctx);
        if ctx.recording {
            ctx.recorder.count(metrics::FLEET_REPORTS_ROUTED, 1);
        }
    }

    fn stamp(&mut self, time_s: f64) {
        self.lag_clock.stamp(time_s);
    }

    fn evict(&mut self, watermark_s: f64, ctx: &Context) {
        self.broadcast(&ShardMsg::Evict { watermark_s }.encode(), ctx);
    }

    /// Broadcasts the request in-stream; shards evict to the watermark,
    /// analyse and reply with one part each for the epoch merge.
    fn snapshot(&mut self, watermark_s: f64, time_s: f64, ctx: &Context) -> Option<Completed> {
        let words = ShardMsg::Snapshot {
            watermark_s,
            time_s,
            epoch: self.next_epoch,
        }
        .encode();
        self.broadcast(&words, ctx);
        if ctx.recording {
            self.epoch_started.insert(self.next_epoch, Instant::now());
        }
        self.next_epoch += 1;
        None
    }

    fn poll(&mut self, ctx: &Context) -> Option<Completed> {
        while let Ok(part) = self.results.try_recv() {
            self.absorb(part, ctx);
        }
        self.pop_ready(ctx)
    }

    /// One clock pair per push call (not per report) when recording: the
    /// ring-handoff stage is the router-side cost of the batch.
    fn begin_batch(&mut self, ctx: &Context) {
        self.handoff_started = ctx.recording.then(Instant::now);
    }

    /// Wakes every shard that was sent a message in this batch: one
    /// `unpark` per shard per push call, not per report.
    fn end_batch(&mut self, routed_any: bool, ctx: &Context) {
        for link in &mut self.shards {
            link.wake();
        }
        if let (Some(started), true) = (self.handoff_started.take(), routed_any) {
            ctx.recorder.observe(
                metrics::SNAPSHOT_LAG_NS,
                Some(Label::stage(Stage::RingHandoff.code())),
                duration_ns(started.elapsed()),
            );
        }
    }

    fn finish(&mut self, _ctx: &Context) {
        self.stop();
    }

    fn in_flight(&self) -> usize {
        usize::try_from(self.next_epoch - self.next_emit).unwrap_or(usize::MAX)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A shard worker's event loop: decode ring messages, drive the core,
/// publish snapshot parts. Runs until `Finish` (or a codec mismatch, which
/// cannot happen with a same-version router).
///
/// An empty ring is polled [`SPINS_BEFORE_PARK`] times, then the worker
/// parks until the router unparks it after a publish. Every wake,
/// spurious or not, goes back to the ring: a wake cannot be lost, since
/// an `unpark` that lands before the `park` makes it return at once.
fn shard_worker(
    shard: u32,
    mut feed: RingConsumer,
    config: PipelineConfig,
    window_s: f64,
    recorder: &SharedRecorder,
    out: &mpsc::Sender<ShardPart>,
) {
    let mut core = ShardCore::new();
    let tracer = SharedTracer::noop();
    let mut idle: u32 = 0;
    loop {
        let Some(words) = feed.pop() else {
            idle = idle.saturating_add(1);
            if idle > SPINS_BEFORE_PARK {
                thread::park();
            } else {
                std::hint::spin_loop();
            }
            continue;
        };
        idle = 0;
        match ShardMsg::decode(&words) {
            Some(ShardMsg::Report {
                slot,
                tag_id,
                antenna_port,
                channel_index,
                time_s,
                phase_rad,
                rssi_dbm,
                doppler_hz,
            }) => {
                // The EPC was consumed by the router's interner; per-user
                // operators only read the measurement fields.
                let report = TagReport {
                    time_s,
                    epc: Epc96::monitor(0, 0),
                    antenna_port,
                    channel_index,
                    phase_rad,
                    rssi_dbm,
                    doppler_hz,
                };
                core.ingest(
                    slot,
                    tag_id,
                    &report,
                    &config,
                    recorder.as_dyn(),
                    tracer.as_dyn(),
                );
            }
            Some(ShardMsg::Admit { slot, user_id }) => core.admit_user_at(slot, user_id),
            Some(ShardMsg::Evict { watermark_s }) => {
                core.evict(watermark_s, window_s, &config, recorder.as_dyn());
            }
            Some(ShardMsg::Snapshot {
                watermark_s,
                time_s,
                epoch,
            }) => {
                core.evict(watermark_s, window_s, &config, recorder.as_dyn());
                let mut rates_bpm = BTreeMap::new();
                let mut effort_rms = BTreeMap::new();
                core.snapshot_into(&config, &mut rates_bpm, &mut effort_rms);
                let part = ShardPart {
                    shard,
                    epoch,
                    time_s,
                    rates_bpm,
                    effort_rms,
                    occupancy: core.occupancy(),
                    state_cells: core.state_cells(),
                    resident_bytes: core.resident_bytes(),
                    ring_depth: feed.depth_hint(),
                };
                if out.send(part).is_err() {
                    return;
                }
            }
            Some(ShardMsg::Finish) | None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epcgen2::mapping::EmbeddedIdentity;

    fn report(user: u64, tag: u32, t: f64) -> TagReport {
        TagReport {
            time_s: t,
            epc: Epc96::monitor(user, tag),
            antenna_port: 1,
            channel_index: 3,
            phase_rad: 1.0 + (0.4 * t).sin() * 0.08,
            rssi_dbm: -52.0,
            doppler_hz: 0.0,
        }
    }

    #[test]
    fn routes_users_and_emits_cadence_snapshots() -> Result<(), &'static str> {
        let mut fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1, 2, 3]),
            10.0,
            5.0,
            2,
        )
        .map_err(|_| "construction failed")?;
        let mut reports = Vec::new();
        let mut t = 0.0;
        while t < 21.0 {
            for user in 1..=3u64 {
                reports.push(report(
                    user,
                    0,
                    t + f64::from(u32::try_from(user).unwrap_or(0)) * 1e-4,
                ));
            }
            t += 0.05;
        }
        let mut snaps = fleet.push(reports);
        assert_eq!(fleet.routed_users(), 3);
        assert_eq!(fleet.shard_count(), 2);
        snaps.extend(fleet.finish());
        assert_eq!(snaps.len(), 4, "cadence points at 5,10,15,20 s");
        let times: Vec<f64> = snaps.iter().map(|s| s.time_s).collect();
        assert_eq!(times, [5.0, 10.0, 15.0, 20.0]);
        Ok(())
    }

    #[test]
    fn unknown_epcs_are_cached_not_fatal() -> Result<(), &'static str> {
        let mut fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
            3,
        )
        .map_err(|_| "construction failed")?;
        let stray: Vec<TagReport> = (0..100)
            .map(|i| report(u64::MAX, 7, f64::from(i) * 0.01))
            .collect();
        let snaps = fleet.push(stray);
        assert!(snaps.is_empty());
        assert_eq!(fleet.routed_users(), 0);
        assert!(fleet.finish().is_empty());
        Ok(())
    }

    #[test]
    fn drop_without_finish_joins_workers() -> Result<(), &'static str> {
        let fleet = FleetEngine::new(
            PipelineConfig::paper_default(),
            EmbeddedIdentity::new([1]),
            10.0,
            5.0,
            4,
        )
        .map_err(|_| "construction failed")?;
        drop(fleet); // must not hang or leak threads
        Ok(())
    }
}
