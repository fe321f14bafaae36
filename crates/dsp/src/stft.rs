//! Short-time Fourier transform: time–frequency analysis.
//!
//! Breathing rates drift, pause and alternate (Cheyne–Stokes); a single
//! whole-capture FFT averages that structure away. The STFT slides a
//! windowed FFT along the signal and returns a spectrogram, from which a
//! breathing-rate *track* can be read off per frame.

use crate::fft::{next_pow2, power_spectrum};
use crate::window::Window;

/// A spectrogram: power per (frame, frequency bin).
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    frame_times: Vec<f64>,
    bin_width_hz: f64,
    /// `power[frame][bin]`, bins covering `[0, Nyquist]`.
    power: Vec<Vec<f64>>,
}

impl Spectrogram {
    /// Frame centre times, seconds.
    pub fn frame_times(&self) -> &[f64] {
        &self.frame_times
    }

    /// Frequency resolution per bin, Hz.
    #[must_use]
    pub fn bin_width_hz(&self) -> f64 {
        self.bin_width_hz
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the spectrogram holds no frames.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// Power row of one frame.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn frame(&self, frame: usize) -> &[f64] {
        &self.power[frame]
    }

    /// The peak frequency (Hz) of each frame within `[f_min, f_max]`,
    /// `None` for frames with no in-band energy.
    pub fn peak_track(&self, f_min: f64, f_max: f64) -> Vec<Option<f64>> {
        self.power
            .iter()
            .map(|row| {
                let lo = (f_min / self.bin_width_hz).ceil() as usize;
                let hi = ((f_max / self.bin_width_hz).floor() as usize).min(row.len() - 1);
                if lo > hi {
                    return None;
                }
                let (k, &p) = row[lo..=hi]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, p)| (i + lo, p))?;
                if p > 0.0 {
                    Some(k as f64 * self.bin_width_hz)
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Computes an STFT with a Hann window.
///
/// * `window_s` — frame length in seconds;
/// * `hop_s` — frame advance in seconds.
///
/// Returns `None` when the signal is shorter than one frame or the
/// parameters are degenerate.
pub fn stft(
    signal: &[f64],
    sample_rate: f64,
    start_time: f64,
    window_s: f64,
    hop_s: f64,
) -> Option<Spectrogram> {
    if !(sample_rate > 0.0 && window_s > 0.0 && hop_s > 0.0) {
        return None;
    }
    let win = (window_s * sample_rate) as usize;
    let hop = ((hop_s * sample_rate) as usize).max(1);
    if win < 4 || signal.len() < win {
        return None;
    }
    let n = next_pow2(win);
    let bin_width_hz = sample_rate / n as f64;
    let mut frame_times = Vec::new();
    let mut power = Vec::new();
    let mut start = 0usize;
    while start + win <= signal.len() {
        let mut frame: Vec<f64> = signal[start..start + win].to_vec();
        let mean = frame.iter().sum::<f64>() / win as f64;
        for x in &mut frame {
            *x -= mean;
        }
        Window::Hann.apply(&mut frame);
        power.push(power_spectrum(&frame));
        frame_times.push(start_time + (start + win / 2) as f64 / sample_rate);
        start += hop;
    }
    Some(Spectrogram {
        frame_times,
        bin_width_hz,
        power,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn tracks_a_frequency_step() -> TestResult {
        // 0.15 Hz for 100 s then 0.35 Hz for 100 s at 16 Hz sampling.
        let sr = 16.0;
        let signal: Vec<f64> = (0..(200.0 * sr) as usize)
            .map(|i| {
                let t = i as f64 / sr;
                let f = if t < 100.0 { 0.15 } else { 0.35 };
                (2.0 * PI * f * t).sin()
            })
            .collect();
        let sg = stft(&signal, sr, 0.0, 40.0, 10.0).ok_or("unexpected None")?;
        let track = sg.peak_track(0.05, 0.67);
        assert!(sg.len() > 10);
        // Early frames near 0.15 Hz, late frames near 0.35 Hz.
        let early = track[1].ok_or("unexpected None")?;
        let late = track[track.len() - 2].ok_or("unexpected None")?;
        assert!((early - 0.15).abs() < 0.04, "early {early}");
        assert!((late - 0.35).abs() < 0.04, "late {late}");
        Ok(())
    }

    #[test]
    fn frame_times_advance_by_hop() -> TestResult {
        let sr = 16.0;
        let signal = vec![0.0; (100.0 * sr) as usize];
        let sg = stft(&signal, sr, 5.0, 20.0, 5.0).ok_or("unexpected None")?;
        let times = sg.frame_times();
        assert!((times[1] - times[0] - 5.0).abs() < 0.1);
        assert!(times[0] >= 5.0);
        Ok(())
    }

    #[test]
    fn degenerate_inputs_yield_none() {
        assert!(stft(&[0.0; 10], 16.0, 0.0, 10.0, 1.0).is_none()); // too short
        assert!(stft(&[0.0; 100], 0.0, 0.0, 1.0, 1.0).is_none());
        assert!(stft(&[0.0; 100], 16.0, 0.0, 0.0, 1.0).is_none());
        assert!(stft(&[0.0; 100], 16.0, 0.0, 1.0, 0.0).is_none());
    }

    #[test]
    fn silent_frames_have_no_peak() -> TestResult {
        let sr = 16.0;
        let signal = vec![0.0; (60.0 * sr) as usize];
        let sg = stft(&signal, sr, 0.0, 20.0, 10.0).ok_or("unexpected None")?;
        assert!(sg.peak_track(0.05, 0.67).iter().all(Option::is_none));
        assert!(!sg.is_empty());
        Ok(())
    }

    #[test]
    fn bin_width_matches_fft_length() -> TestResult {
        let sr = 16.0;
        let signal = vec![0.0; 1000];
        let sg = stft(&signal, sr, 0.0, 20.0, 10.0).ok_or("unexpected None")?;
        // 320-sample window → 512-point FFT → 0.03125 Hz bins.
        assert!((sg.bin_width_hz() - sr / 512.0).abs() < 1e-12);
        assert_eq!(sg.frame(0).len(), 257);
        Ok(())
    }
}
