//! Estimate-quality assessment.
//!
//! The paper's system refuses to report when the line of sight is blocked
//! (Section VI-B.4) and selects antennas by data quality (Section IV-D.3).
//! This module generalises that judgement into a per-estimate quality
//! report: how much data backed the estimate, how strongly the breathing
//! band stands out of the residual spectrum, and how self-consistent the
//! rate track is.

use crate::metrics;
use crate::monitor::UserAnalysis;
use dsp::goertzel::goertzel_power;
use dsp::units::bpm_to_hz;
use obs::trace::{TraceEvent, Tracer};
use obs::{Label, Recorder};

/// Confidence grade of an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Estimate should not be trusted (and arguably not displayed).
    Low,
    /// Usable but degraded (weak signal, sparse reads or unstable track).
    Medium,
    /// Strong signal, dense data, stable track.
    High,
}

/// A per-user quality report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Mean low-level read rate backing the estimate, Hz.
    pub read_rate_hz: f64,
    /// Ratio of breathing-band power at the estimated rate to the mean
    /// in-band power elsewhere (linear). Higher = cleaner peak.
    pub band_snr: f64,
    /// Coefficient of variation of the instantaneous rate track.
    pub rate_stability_cv: f64,
    /// Overall grade.
    pub confidence: Confidence,
}

/// Thresholds for grading (exposed so deployments can tune them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityThresholds {
    /// Minimum read rate for `High`, Hz.
    pub high_read_rate_hz: f64,
    /// Minimum band SNR for `High`.
    pub high_band_snr: f64,
    /// Maximum rate CV for `High`.
    pub high_rate_cv: f64,
    /// Minimum read rate below which the grade is `Low`, Hz.
    pub low_read_rate_hz: f64,
    /// Band SNR below which the grade is `Low`.
    pub low_band_snr: f64,
}

impl QualityThresholds {
    /// Calibrated defaults.
    pub fn default_thresholds() -> Self {
        QualityThresholds {
            high_read_rate_hz: 20.0,
            high_band_snr: 5.0,
            high_rate_cv: 0.15,
            low_read_rate_hz: 3.0,
            low_band_snr: 1.5,
        }
    }
}

impl Default for QualityThresholds {
    fn default() -> Self {
        Self::default_thresholds()
    }
}

/// Assesses the quality of one user's analysis.
pub fn assess(analysis: &UserAnalysis, thresholds: &QualityThresholds) -> QualityReport {
    let duration = analysis.breath_signal.duration_s().max(1e-9);
    let read_rate_hz = analysis.report_count as f64 / duration;

    let band_snr = band_snr(analysis);
    let rate_stability_cv = rate_cv(analysis);

    let confidence = if read_rate_hz < thresholds.low_read_rate_hz
        || band_snr < thresholds.low_band_snr
        || analysis.rate.mean_bpm.is_none()
    {
        Confidence::Low
    } else if read_rate_hz >= thresholds.high_read_rate_hz
        && band_snr >= thresholds.high_band_snr
        && rate_stability_cv <= thresholds.high_rate_cv
    {
        Confidence::High
    } else {
        Confidence::Medium
    };

    QualityReport {
        read_rate_hz,
        band_snr,
        rate_stability_cv,
        confidence,
    }
}

/// [`assess`] with metrics — a `grade`-labelled confidence counter
/// (0 = low, 1 = medium, 2 = high) and a band-SNR histogram in
/// thousandths — plus one `quality_grade` instant [`TraceEvent`] keyed by
/// `user_id` (grade code in `value_a`, band SNR in `value_b`, timestamped
/// at the end of the assessed window). The returned report is identical
/// to [`assess`]'s.
pub fn assess_traced(
    user_id: u64,
    analysis: &UserAnalysis,
    thresholds: &QualityThresholds,
    rec: &dyn Recorder,
    tracer: &dyn Tracer,
) -> QualityReport {
    let report = assess(analysis, thresholds);
    let grade: u8 = match report.confidence {
        Confidence::Low => 0,
        Confidence::Medium => 1,
        Confidence::High => 2,
    };
    if rec.enabled() {
        rec.add(
            metrics::QUALITY_GRADES,
            Some(Label::new("grade", u64::from(grade))),
            1,
        );
        if report.band_snr.is_finite() && report.band_snr >= 0.0 {
            // Clamp far below u64::MAX so the float→integer conversion
            // stays exact and lossless for any realistic SNR.
            let milli = (report.band_snr * 1000.0).round().min(1e15) as u64;
            rec.record(metrics::QUALITY_BAND_SNR_MILLI, milli);
        }
    }
    if tracer.enabled() {
        let signal = &analysis.breath_signal;
        let t = if signal.is_empty() {
            0.0
        } else {
            signal.time_at(signal.len() - 1)
        };
        tracer.emit(
            TraceEvent::instant("quality_grade", t)
                .with_user(user_id)
                .with_port(analysis.antenna_port)
                .with_values(f64::from(grade), report.band_snr),
        );
    }
    report
}

/// Power at the estimated rate vs mean power across the breathing band.
fn band_snr(analysis: &UserAnalysis) -> f64 {
    let Some(bpm) = analysis.rate.mean_bpm else {
        return 0.0;
    };
    let signal = analysis.breath_signal.values();
    let sr = analysis.breath_signal.sample_rate_hz();
    let rate_hz = bpm_to_hz(bpm);
    if signal.len() < 16 || !(0.03..sr / 2.0).contains(&rate_hz) {
        return 0.0;
    }
    let peak = goertzel_power(signal, rate_hz, sr);
    // Sample the band away from the peak.
    let mut background = Vec::new();
    let mut f = 0.08f64;
    while f < 0.66 {
        if (f - rate_hz).abs() > 0.05 && f < sr / 2.0 {
            background.push(goertzel_power(signal, f, sr));
        }
        f += 0.04;
    }
    let noise = dsp::stats::mean(&background).unwrap_or(0.0);
    if noise <= 0.0 {
        return f64::INFINITY;
    }
    peak / noise
}

fn rate_cv(analysis: &UserAnalysis) -> f64 {
    let rates: Vec<f64> = analysis
        .rate
        .instantaneous
        .iter()
        .map(|p| p.rate_bpm)
        .collect();
    match (dsp::stats::mean(&rates), dsp::stats::std_dev(&rates)) {
        (Some(m), Some(s)) if m > f64::EPSILON => s / m,
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::BreathMonitor;
    use breathing::{Scenario, Subject};
    use epcgen2::mapping::EmbeddedIdentity;
    use epcgen2::reader::Reader;
    use epcgen2::world::ScenarioWorld;
    use rfchannel::geometry::Vec3;

    fn analysis_at(distance: f64, orientation: f64) -> Option<UserAnalysis> {
        let antenna = Vec3::new(0.0, 0.0, 1.0);
        let scenario = Scenario::builder()
            .subject(Subject::paper_default(1, distance).facing_away_from(antenna, orientation))
            .build();
        let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 60.0);
        BreathMonitor::paper_default()
            .analyze(&reports, &EmbeddedIdentity::new([1]))
            .users
            .remove(&1)
            .and_then(Result::ok)
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn close_facing_user_grades_high() -> TestResult {
        let a = analysis_at(2.0, 0.0).ok_or("not analysable")?;
        let q = assess(&a, &QualityThresholds::default_thresholds());
        assert_eq!(q.confidence, Confidence::High, "{q:?}");
        assert!(q.read_rate_hz > 50.0);
        assert!(q.band_snr > 5.0);
        Ok(())
    }

    #[test]
    fn grazing_user_grades_below_high() -> TestResult {
        let a = analysis_at(4.0, 90.0).ok_or("not analysable")?;
        let q = assess(&a, &QualityThresholds::default_thresholds());
        assert!(q.confidence < Confidence::High, "{q:?}");
        Ok(())
    }

    #[test]
    fn grades_are_ordered() {
        assert!(Confidence::Low < Confidence::Medium);
        assert!(Confidence::Medium < Confidence::High);
    }

    #[test]
    fn quality_metrics_are_finite_for_normal_data() -> TestResult {
        let a = analysis_at(3.0, 0.0).ok_or("not analysable")?;
        let q = assess(&a, &QualityThresholds::default_thresholds());
        assert!(q.read_rate_hz.is_finite());
        assert!(q.band_snr.is_finite());
        assert!(q.rate_stability_cv.is_finite());
        Ok(())
    }

    #[test]
    fn assess_traced_emits_a_quality_instant() -> TestResult {
        let ring = obs::trace::FlightRecorder::with_capacity(8)?;
        let a = analysis_at(2.0, 0.0).ok_or("not analysable")?;
        let q = assess_traced(
            1,
            &a,
            &QualityThresholds::default_thresholds(),
            &obs::NoopRecorder,
            &ring,
        );
        assert_eq!(q, assess(&a, &QualityThresholds::default_thresholds()));
        let events = ring.snapshot();
        let e = events.first().copied().ok_or("no event")?;
        assert_eq!(e.name, "quality_grade");
        assert_eq!(e.user, 1);
        assert_eq!(e.value_a, 2.0, "high grade encodes as 2");
        Ok(())
    }
}
