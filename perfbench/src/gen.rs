//! Seeded reader traffic following the paper's Eq. 1 phase model.
//!
//! Every monitored user breathes at a ground-truth rate and wears
//! `tags_per_user` tags. Each tag is read at `read_hz` (with per-read
//! jitter) by the reader that owns the user; the reader hops over the
//! 10-channel plan with a 0.2 s dwell. A read's phase is
//!
//! ```text
//! θ = (4π (d₀ + A·sin(2π f t + φ)) / λ_c + θ_tag,c + noise) mod 2π
//! ```
//!
//! where `λ_c` is the active channel's wavelength and `θ_tag,c` the
//! per-tag, per-channel hardware offset the pipeline's Eq. 3 unwrap has
//! to cancel.
//!
//! Batches are built lazily, one `(session, batch index)` at a time, from
//! pure functions of the seed: nothing about a read depends on which
//! batches were built before it, so the reference run can regenerate any
//! batch after the measurement instead of keeping the trace in memory.

use epcgen2::Epc96;
use rfchannel::channel_plan::{ChannelPlan, HopSequence};
use std::f64::consts::PI;
use tagbreathe::TagReport;

/// Largest per-read jitter, as a share of the read period.
const JITTER_SHARE: f64 = 0.3;
/// Phase noise, radians (standard deviation).
const PHASE_NOISE_RAD: f64 = 0.05;
/// Channel dwell, seconds (the paper's observed hop timing).
const DWELL_S: f64 = 0.2;

/// Who is monitored and how they are read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Population {
    /// Monitored users (ids `1..=users`).
    pub users: u64,
    /// Tags worn per user.
    pub tags_per_user: u32,
    /// Reads per second per tag.
    pub read_hz: f64,
    /// Reader sessions; user `u` belongs to session `(u - 1) % sessions`.
    pub sessions: u32,
    /// Stream time covered by one batch, seconds.
    pub batch_span_s: f64,
}

/// One user's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truth {
    /// Breathing rate, breaths per minute.
    pub rate_bpm: f64,
    /// Chest displacement amplitude, metres.
    amplitude_m: f64,
    /// Tag-to-antenna distance at rest, metres.
    distance_m: f64,
    /// Breathing phase at t = 0, radians.
    breath_phase: f64,
}

/// One tag's read schedule and hardware offsets.
#[derive(Debug, Clone)]
struct Tag {
    user: u64,
    tag_id: u32,
    /// First read time (before jitter), seconds.
    offset_s: f64,
    /// Per-channel hardware phase offsets, radians.
    channel_offset: Vec<f64>,
    /// Index used to key per-read jitter and noise.
    key: u64,
}

/// The seeded generator.
#[derive(Debug, Clone)]
pub struct Generator {
    pop: Population,
    plan: ChannelPlan,
    hops: Vec<HopSequence>,
    truth: Vec<Truth>,
    /// Tags grouped by session.
    tags: Vec<Vec<Tag>>,
}

/// splitmix64 finaliser: a well-mixed 64-bit hash of `x`.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `key`.
#[must_use]
pub fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform draw in `[lo, hi)` keyed by `key`.
fn between(key: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * unit(key)
}

impl Generator {
    /// Builds the population for `seed`.
    #[must_use]
    pub fn new(seed: u64, pop: Population) -> Self {
        let plan = ChannelPlan::us_10();
        let base = mix(seed ^ 0x7461_6762_7265_6174);
        let hops = (0..pop.sessions)
            .map(|s| HopSequence::new(&plan, DWELL_S, mix(base ^ u64::from(s))))
            .collect();
        let truth = (1..=pop.users)
            .map(|u| {
                let k = mix(base.wrapping_add(u.wrapping_mul(0x1000)));
                Truth {
                    // 10–20 bpm: at least four breaths in a 25 s window.
                    rate_bpm: between(k ^ 1, 10.0, 20.0),
                    amplitude_m: between(k ^ 2, 0.003, 0.006),
                    distance_m: between(k ^ 3, 1.0, 4.0),
                    breath_phase: between(k ^ 4, 0.0, 2.0 * PI),
                }
            })
            .collect();
        let period = 1.0 / pop.read_hz;
        let mut tags = vec![Vec::new(); pop.sessions as usize];
        for u in 1..=pop.users {
            let session = ((u - 1) % u64::from(pop.sessions.max(1))) as usize;
            for t in 0..pop.tags_per_user {
                let key = mix(base ^ (u << 8 | u64::from(t)).wrapping_mul(0x2545_F491));
                let tag = Tag {
                    user: u,
                    tag_id: t,
                    offset_s: between(key, 0.0, period),
                    channel_offset: (0..plan.len() as u64)
                        .map(|c| between(key ^ (c + 1) << 40, 0.0, 2.0 * PI))
                        .collect(),
                    key,
                };
                if let Some(list) = tags.get_mut(session) {
                    list.push(tag);
                }
            }
        }
        Generator {
            pop,
            plan,
            hops,
            truth,
            tags,
        }
    }

    /// The population parameters.
    #[must_use]
    pub fn population(&self) -> Population {
        self.pop
    }

    /// Ground truth of `user` (ids start at 1).
    #[must_use]
    pub fn truth(&self, user: u64) -> Option<Truth> {
        self.truth
            .get(usize::try_from(user).ok()?.checked_sub(1)?)
            .copied()
    }

    /// Reports per second offered at real time, over all sessions.
    #[must_use]
    pub fn real_time_rate(&self) -> f64 {
        self.pop.users as f64 * f64::from(self.pop.tags_per_user) * self.pop.read_hz
    }

    /// Builds batch `k` of `session`: every read with a timestamp in
    /// `[k·span, (k+1)·span)`, in time order.
    #[must_use]
    pub fn batch(&self, session: u32, k: u64) -> Vec<TagReport> {
        let span = self.pop.batch_span_s;
        let (lo, hi) = (k as f64 * span, (k + 1) as f64 * span);
        let period = 1.0 / self.pop.read_hz;
        let (Some(tags), Some(hop)) = (
            self.tags.get(session as usize),
            self.hops.get(session as usize),
        ) else {
            return Vec::new();
        };
        let mut out =
            Vec::with_capacity((tags.len() as f64 * span * self.pop.read_hz) as usize + 8);
        for tag in tags {
            let first = ((lo - tag.offset_s - JITTER_SHARE * period) / period)
                .floor()
                .max(0.0) as u64;
            let last = ((hi - tag.offset_s) / period).floor();
            if last < 0.0 {
                continue;
            }
            for n in first..=last as u64 {
                let read_key = tag.key ^ n.wrapping_mul(0x9E37_79B9);
                let t = tag.offset_s + n as f64 * period + JITTER_SHARE * period * unit(read_key);
                if t < lo || t >= hi {
                    continue;
                }
                out.push(self.read(tag, hop, t, read_key));
            }
        }
        out.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        out
    }

    fn read(&self, tag: &Tag, hop: &HopSequence, t: f64, read_key: u64) -> TagReport {
        let truth = self
            .truth
            .get((tag.user - 1) as usize)
            .copied()
            .unwrap_or(Truth {
                rate_bpm: 15.0,
                amplitude_m: 0.004,
                distance_m: 2.0,
                breath_phase: 0.0,
            });
        let channel = hop.channel_at(t);
        let lambda = self.plan.wavelength_m(channel);
        let chest =
            truth.amplitude_m * (2.0 * PI * truth.rate_bpm / 60.0 * t + truth.breath_phase).sin();
        // Irwin–Hall(4): an approximately normal draw from four uniforms.
        let noise = (unit(read_key ^ 0xA1)
            + unit(read_key ^ 0xB2)
            + unit(read_key ^ 0xC3)
            + unit(read_key ^ 0xD4)
            - 2.0)
            * PHASE_NOISE_RAD
            * 3.0f64.sqrt();
        let offset = tag.channel_offset.get(channel).copied().unwrap_or(0.0);
        let phase =
            (4.0 * PI * (truth.distance_m + chest) / lambda + offset + noise).rem_euclid(2.0 * PI);
        TagReport {
            time_s: t,
            epc: Epc96::monitor(tag.user, tag.tag_id),
            antenna_port: 1,
            channel_index: u16::try_from(channel).unwrap_or(0),
            phase_rad: phase,
            rssi_dbm: -45.0 - 6.0 * truth.distance_m + between(read_key ^ 0xE5, -0.5, 0.5),
            doppler_hz: 0.0,
        }
    }
}

/// Seeded Poisson arrival times in `[0, duration_s)` at `rate_hz`, for an
/// open-loop client whose requests must not beat against a server-side
/// polling period.
#[must_use]
pub fn arrivals(seed: u64, rate_hz: f64, duration_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut i = 0u64;
    loop {
        // Exponential inter-arrival; `1 - u` is in (0, 1], so ln is finite.
        t += -(1.0 - unit(mix(seed ^ 0x6f70_6572) ^ i)).ln() / rate_hz;
        if t.is_nan() || t >= duration_s {
            return out;
        }
        out.push(t);
        i += 1;
    }
}

/// Eq. 8 accuracy of an estimate against the truth: `1 - |est - true| / true`,
/// floored at 0. A missing estimate scores 0.
#[must_use]
pub fn accuracy(estimate_bpm: Option<f64>, truth_bpm: f64) -> f64 {
    match estimate_bpm {
        Some(est) if est.is_finite() && truth_bpm > 0.0 => {
            (1.0 - (est - truth_bpm).abs() / truth_bpm).max(0.0)
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ward_like() -> Population {
        Population {
            users: 20,
            tags_per_user: 3,
            read_hz: 60.0,
            sessions: 2,
            batch_span_s: 0.02,
        }
    }

    fn bits(reports: &[TagReport]) -> Vec<[u64; 4]> {
        reports
            .iter()
            .map(|r| {
                [
                    r.time_s.to_bits(),
                    r.epc.user_id() << 32 | u64::from(r.epc.tag_id()),
                    r.phase_rad.to_bits(),
                    u64::from(r.channel_index),
                ]
            })
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_batches() {
        let a = Generator::new(7, ward_like());
        let b = Generator::new(7, ward_like());
        for k in [0, 1, 17, 500] {
            for s in 0..2 {
                assert_eq!(bits(&a.batch(s, k)), bits(&b.batch(s, k)));
            }
        }
        // Building batches in another order changes nothing.
        let late_first = bits(&b.batch(1, 500));
        let _ = b.batch(0, 3);
        assert_eq!(late_first, bits(&b.batch(1, 500)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(7, ward_like());
        let b = Generator::new(8, ward_like());
        assert_ne!(bits(&a.batch(0, 10)), bits(&b.batch(0, 10)));
        assert_ne!(a.truth(1), b.truth(1));
    }

    #[test]
    fn batches_are_time_ordered_and_cover_the_read_rate() {
        let g = Generator::new(3, ward_like());
        let mut total = 0usize;
        let mut last = f64::NEG_INFINITY;
        for k in 0..500 {
            let batch = g.batch(0, k);
            for r in &batch {
                assert!(r.time_s >= last, "time went backwards");
                assert!(r.time_s >= k as f64 * 0.02 && r.time_s < (k + 1) as f64 * 0.02);
                assert!((0.0..2.0 * PI).contains(&r.phase_rad));
                last = r.time_s;
            }
            total += batch.len();
        }
        // 10 users × 3 tags × 60 Hz × 10 s on session 0.
        let expected = 10.0 * 3.0 * 60.0 * 10.0;
        assert!((total as f64 - expected).abs() < expected * 0.01, "{total}");
    }

    #[test]
    fn users_split_between_sessions_and_rates_are_resolvable() {
        let g = Generator::new(11, ward_like());
        let users0: std::collections::BTreeSet<u64> =
            g.batch(0, 5).iter().map(|r| r.epc.user_id()).collect();
        let users1: std::collections::BTreeSet<u64> =
            g.batch(1, 5).iter().map(|r| r.epc.user_id()).collect();
        assert!(users0.is_disjoint(&users1));
        for u in 1..=20 {
            let t = g.truth(u).map_or(0.0, |t| t.rate_bpm);
            assert!((10.0..20.0).contains(&t), "{t}");
        }
        assert!(g.truth(0).is_none() && g.truth(21).is_none());
    }

    #[test]
    fn arrivals_are_seeded_and_keep_their_rate() {
        let a = arrivals(1, 100.0, 20.0);
        assert_eq!(a, arrivals(1, 100.0, 20.0));
        assert_ne!(a, arrivals(2, 100.0, 20.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!((a.len() as f64 - 2000.0).abs() < 200.0, "{}", a.len());
        assert!(a.last().is_some_and(|&t| t < 20.0));
    }

    #[test]
    fn accuracy_follows_eq_8() {
        assert!((accuracy(Some(15.0), 15.0) - 1.0).abs() < 1e-12);
        assert!((accuracy(Some(13.5), 15.0) - 0.9).abs() < 1e-12);
        assert_eq!(accuracy(None, 15.0), 0.0);
        assert_eq!(accuracy(Some(60.0), 15.0), 0.0);
    }
}
