//! Micro-benchmarks of the DSP substrate: the per-window costs of the
//! extraction pipeline's inner loops, and the per-user snapshot tail a
//! live monitor runs at every cadence step.

use breathing::Scenario;
use dsp::fft::{fft_real, power_spectrum};
use dsp::filter::{FftBandPass, FftLowPass, FirFilter};
use dsp::spectrum::dominant_frequency;
use dsp::zero_crossing::find_zero_crossings;
use epcgen2::reader::Reader;
use epcgen2::world::ScenarioWorld;
use tagbreathe::extract::extract_breath_signal;
use tagbreathe::rate::estimate_rate;
use tagbreathe::{PipelineConfig, UserStreamState};
use tagbreathe_bench::microbench::{bb, bench};

fn breathing_window(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 16.0;
            (2.0 * std::f64::consts::PI * 0.2 * t).sin()
                + 0.3 * (2.0 * std::f64::consts::PI * 3.0 * t).sin()
        })
        .collect()
}

fn bench_fft() {
    for &n in &[256usize, 1024, 4096] {
        let signal = breathing_window(n);
        bench(&format!("fft/fft_real/{n}"), || fft_real(bb(&signal)));
        bench(&format!("fft/power_spectrum/{n}"), || {
            power_spectrum(bb(&signal))
        });
    }
}

fn bench_filters() {
    let signal = breathing_window(1024);
    let fft = match FftLowPass::breathing_band(16.0) {
        Ok(f) => f,
        Err(e) => panic!("breathing_band filter: {e}"),
    };
    bench("filters/fft_lowpass_1024", || fft.filter(bb(&signal)));
    // The live window: 25 s of 1/16 s fusion bins.
    let window = breathing_window(399);
    let band = match FftBandPass::breathing_band(16.0) {
        Ok(f) => f,
        Err(e) => panic!("breathing_band band-pass: {e}"),
    };
    bench("filters/fft_bandpass_399", || band.filter(bb(&window)));
    let fir = match FirFilter::low_pass(0.67, 16.0, 129) {
        Ok(f) => f,
        Err(e) => panic!("fir low_pass: {e}"),
    };
    bench("filters/fir_129taps_1024", || fir.filter(bb(&signal)));
}

fn bench_analysis() {
    let signal = breathing_window(1024);
    bench("analysis/zero_crossings_1024", || {
        find_zero_crossings(bb(&signal), 0.0, 1.0 / 16.0, 0.1)
    });
    bench("analysis/dominant_frequency_1024", || {
        dominant_frequency(bb(&signal), 16.0, 0.05, 0.67)
    });
}

/// One user's snapshot at a cadence step: fused trajectory of the 25 s
/// window, detrend, FFT band-pass and the Eq. 5 rate.
fn bench_snapshot_tail() {
    let scenario = Scenario::builder()
        .users_side_by_side(1, 4.0, &[12.0])
        .build();
    let reports = Reader::paper_default().run(&ScenarioWorld::new(scenario), 30.0);
    let config = PipelineConfig::paper_default();
    let mut state = UserStreamState::new();
    for r in &reports {
        state.push(r.epc.tag_id(), r, &config);
    }
    let watermark_s = reports.last().map_or(0.0, |r| r.time_s);
    state.evict(watermark_s, 25.0, &config);
    bench("snapshot_tail/user_25s_window", || {
        let snap = bb(&state).snapshot(&config)?;
        let signal = extract_breath_signal(&snap.displacement, &config).ok()?;
        Some(estimate_rate(&signal, &config))
    });
}

fn main() {
    bench_fft();
    bench_filters();
    bench_analysis();
    bench_snapshot_tail();
}
