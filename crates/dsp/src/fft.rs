//! Radix-2 fast Fourier transforms driven by cached plans, with a
//! real-input path.
//!
//! TagBreathe converts displacement streams to the frequency domain, zeroes
//! the bins outside the breathing band, and converts back (Section IV-B of
//! the paper); a live monitor repeats that for every user at every cadence
//! step. Windows are short (25 s at 16 Hz is 399 samples, padded to 512), so
//! the transform is an in-place radix-2 Cooley–Tukey FFT with zero-padding
//! to the next power of two:
//!
//! * **Plans.** A plan holds one size's bit-reversal swaps and the twiddle
//!   factors of every stage, each computed directly from its angle. The
//!   butterflies read them from the table, so no stage runs a serial
//!   `w *= w_len` recurrence (slow, and its rounding error grows along the
//!   stage). Plans up to `2^MAX_CACHED_LOG2` points are built once per
//!   process and then only read (one [`OnceLock`] per size, so there is no
//!   lock after initialisation); larger sizes build a plan per call.
//! * **Real input.** `n` real samples are packed into `n/2` complex values,
//!   transformed by one half-size FFT and split into the one-sided spectrum
//!   `X[0..=n/2]`; the inverse merges a one-sided spectrum back and runs one
//!   half-size inverse FFT. [`fft_real`], [`power_spectrum`] (and with it
//!   the spectral-peak and STFT analyses) and the FFT filters of
//!   [`crate::filter`] take this path.

use crate::complex::Complex;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Direction of a Fourier transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain → frequency domain.
    Forward,
    /// Frequency domain → time domain (scaled by `1/N`).
    Inverse,
}

/// Returns the smallest power of two that is `>= n` (and at least 1).
///
/// # Examples
///
/// ```
/// use tagbreathe_dsp::fft::next_pow2;
/// assert_eq!(next_pow2(1000), 1024);
/// assert_eq!(next_pow2(1024), 1024);
/// assert_eq!(next_pow2(0), 1);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// log2 of the largest transform size whose plan is cached process-wide
/// (65 536 points, about 1.5 MiB of tables; a 17-minute window at 64 Hz).
const MAX_CACHED_LOG2: usize = 16;

/// The process-wide plans, indexed by log2 of the size.
static PLANS: [OnceLock<Plan>; MAX_CACHED_LOG2 + 1] =
    [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1];

/// Precomputed tables for one power-of-two transform size.
struct Plan {
    /// Index pairs `(i, j)`, `i < j`, exchanged by the bit-reversal
    /// permutation.
    swaps: Vec<(usize, usize)>,
    /// Forward twiddles `e^{-iπk/h}`, `k < h`, for every butterfly stage of
    /// half-width `h = 1, 2, 4, …, n/2`, stored back to back: stage `h`
    /// occupies `[h - 1, 2h - 1)`.
    twiddles: Vec<Complex>,
}

impl Plan {
    fn new(n: usize) -> Plan {
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = i
                    .reverse_bits()
                    .checked_shr(usize::BITS - bits)
                    .unwrap_or(0);
                (i < j).then_some((i, j))
            })
            .collect();
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let step = -PI / half as f64;
            twiddles.extend((0..half).map(|k| Complex::cis(step * k as f64)));
            half *= 2;
        }
        Plan { swaps, twiddles }
    }

    /// Runs `f` with the plan for power-of-two size `n`.
    fn with<T>(n: usize, f: impl FnOnce(&Plan) -> T) -> T {
        let cached = usize::try_from(n.trailing_zeros())
            .ok()
            .and_then(|log2| PLANS.get(log2));
        match cached {
            Some(cell) => f(cell.get_or_init(|| Plan::new(n))),
            None => f(&Plan::new(n)),
        }
    }

    /// The twiddles `e^{-2πik/n}`, `k < n/2`, of this size-`n` plan's last
    /// stage.
    fn last_stage(&self) -> &[Complex] {
        let half = self.twiddles.len().div_ceil(2);
        self.twiddles.split_at(half.saturating_sub(1)).1
    }

    /// The permutation and butterflies; `INVERSE` conjugates the twiddles
    /// and leaves the `1/n` scaling to the caller.
    fn run<const INVERSE: bool>(&self, data: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            data.swap(i, j);
        }
        let mut stages = self.twiddles.as_slice();
        let mut half = 1;
        if data.len() >= 4 {
            // The first two stages' twiddles are 1 and ∓i: one pass of
            // radix-4 butterflies without a multiply.
            for quad in data.chunks_exact_mut(4) {
                if let [a, b, c, d] = quad {
                    let (s0, d0) = (*a + *b, *a - *b);
                    let (s1, d1) = (*c + *d, *c - *d);
                    let d1 = if INVERSE { times_i(d1) } else { -times_i(d1) };
                    (*a, *c) = (s0 + s1, s0 - s1);
                    (*b, *d) = (d0 + d1, d0 - d1);
                }
            }
            stages = stages.split_at(3).1;
            half = 4;
        }
        while half < data.len() {
            let (twiddles, rest) = stages.split_at(half);
            stages = rest;
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                    let w = if INVERSE { w.conj() } else { w };
                    let t = *v * w;
                    *v = *u - t;
                    *u += t;
                }
            }
            half *= 2;
        }
    }
}

/// In-place radix-2 FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], direction: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} must be a power of two");
    if n <= 1 {
        return;
    }
    match direction {
        Direction::Forward => Plan::with(n, |plan| plan.run::<false>(data)),
        Direction::Inverse => {
            Plan::with(n, |plan| plan.run::<true>(data));
            let inv = 1.0 / n as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

/// `z · (-i/2)`.
fn times_minus_half_i(z: Complex) -> Complex {
    Complex::new(0.5 * z.im, -0.5 * z.re)
}

/// `z · i`.
fn times_i(z: Complex) -> Complex {
    Complex::new(-z.im, z.re)
}

/// The one-sided spectrum `X[0..=n/2]` of `signal` shifted by `-offset`
/// and zero-padded to `n` samples (`n` a power of two, `n >=
/// signal.len()`), from one `n/2`-point complex FFT.
///
/// The samples are packed as `z[m] = x[2m] + i·x[2m+1]`. With
/// `Z = FFT(z)`, `h = n/2` and `W = e^{-2πi/n}`, the even and odd halves
/// are `E[k] = (Z[k] + conj Z[h-k]) / 2` and `O[k] = (Z[k] - conj Z[h-k])
/// / 2i`, and `X[k] = E[k] + W^k·O[k]`, `X[h-k] = conj(E[k] - W^k·O[k])`.
pub(crate) fn real_spectrum(signal: &[f64], offset: f64, n: usize) -> Vec<Complex> {
    let h = n / 2;
    if h == 0 {
        let x0 = signal.first().map_or(0.0, |&x| x - offset);
        return vec![Complex::from_real(x0)];
    }
    let mut spectrum = Vec::with_capacity(h + 1);
    spectrum.extend(signal.chunks(2).map(|pair| match *pair {
        [re, im] => Complex::new(re - offset, im - offset),
        [re] => Complex::from_real(re - offset),
        _ => Complex::ZERO,
    }));
    spectrum.resize(h, Complex::ZERO);
    fft_in_place(&mut spectrum, Direction::Forward);
    let z0 = spectrum.first().copied().unwrap_or(Complex::ZERO);
    if let Some(x0) = spectrum.first_mut() {
        *x0 = Complex::from_real(z0.re + z0.im);
    }
    Plan::with(n, |plan| {
        // Pair bin k (1 <= k < h/2) with bin h - k; bin h/2 pairs with
        // itself, where the split reduces to a conjugate.
        let (head, tail) = spectrum.split_at_mut(h / 2);
        let pairs = head.iter_mut().skip(1).zip(tail.iter_mut().rev());
        for ((a, b), &w) in pairs.zip(plan.last_stage().iter().skip(1)) {
            let even = (*a + b.conj()).scale(0.5);
            let odd = w * times_minus_half_i(*a - b.conj());
            *a = even + odd;
            *b = (even - odd).conj();
        }
        if h >= 2 {
            if let Some(mid) = tail.first_mut() {
                *mid = mid.conj();
            }
        }
    });
    spectrum.push(Complex::from_real(z0.re - z0.im));
    spectrum
}

/// Inverse of [`real_spectrum`]: the first `out_len` samples of the real
/// signal whose one-sided spectrum is `spectrum` (`n/2 + 1` bins, `n` a
/// power of two), by one `n/2`-point inverse FFT.
///
/// Undoes the split: `E[k] = (X[k] + conj X[h-k]) / 2`, `O[k] = (X[k] -
/// conj X[h-k])·W^{-k} / 2`, `Z[k] = E[k] + i·O[k]`, and the unpacked
/// `IFFT(Z)` is the signal.
pub(crate) fn real_inverse(mut spectrum: Vec<Complex>, out_len: usize) -> Vec<f64> {
    let h = spectrum.len().saturating_sub(1);
    if h == 0 {
        let x0 = spectrum.first().map_or(0.0, |z| z.re);
        return std::iter::once(x0).take(out_len).collect();
    }
    let nyquist = spectrum.pop().unwrap_or(Complex::ZERO);
    if let Some(x0) = spectrum.first_mut() {
        let even = (*x0 + nyquist.conj()).scale(0.5);
        let odd = (*x0 - nyquist.conj()).scale(0.5);
        *x0 = even + times_i(odd);
    }
    Plan::with(2 * h, |plan| {
        let (head, tail) = spectrum.split_at_mut(h / 2);
        let pairs = head.iter_mut().skip(1).zip(tail.iter_mut().rev());
        for ((a, b), &w) in pairs.zip(plan.last_stage().iter().skip(1)) {
            let even = (*a + b.conj()).scale(0.5);
            let odd = (*a - b.conj()) * w.conj().scale(0.5);
            *a = even + times_i(odd);
            *b = even.conj() + times_i(odd.conj());
        }
        if h >= 2 {
            if let Some(mid) = tail.first_mut() {
                *mid = mid.conj();
            }
        }
    });
    fft_in_place(&mut spectrum, Direction::Inverse);
    spectrum
        .iter()
        .flat_map(|z| [z.re, z.im])
        .take(out_len)
        .collect()
}

/// Computes the FFT of a real signal, zero-padding to the next power of two.
///
/// Returns the full complex spectrum of length `next_pow2(signal.len())`.
/// Bin `k` corresponds to frequency `k * sample_rate / n` for `k <= n/2`.
///
/// # Examples
///
/// ```
/// use tagbreathe_dsp::fft::fft_real;
/// let spectrum = fft_real(&[1.0, 0.0, 0.0, 0.0]);
/// // Impulse has a flat spectrum.
/// for bin in &spectrum {
///     assert!((bin.abs() - 1.0).abs() < 1e-12);
/// }
/// ```
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let n = next_pow2(signal.len());
    let h = n / 2;
    let mut spectrum = real_spectrum(signal, 0.0, n);
    // Bins h+1..n mirror bins h-1..1 of a real signal, conjugated.
    spectrum.extend_from_within(1.min(h)..h);
    let negative = spectrum.split_at_mut(h + 1).1;
    negative.reverse();
    for z in negative {
        *z = z.conj();
    }
    spectrum
}

/// Computes the inverse FFT of a complex spectrum and returns the real parts
/// of the first `out_len` samples.
///
/// # Panics
///
/// Panics if `spectrum.len()` is not a power of two or `out_len` exceeds it.
#[must_use]
pub fn ifft_real(spectrum: &[Complex], out_len: usize) -> Vec<f64> {
    assert!(
        out_len <= spectrum.len(),
        "requested {out_len} output samples from a {}-point spectrum",
        spectrum.len()
    );
    let mut data = spectrum.to_vec();
    fft_in_place(&mut data, Direction::Inverse);
    data.truncate(out_len);
    data.into_iter().map(|z| z.re).collect()
}

/// Power spectrum (squared magnitudes) of the non-negative-frequency half of
/// a real signal's FFT, `n/2 + 1` bins.
#[must_use]
pub fn power_spectrum(signal: &[f64]) -> Vec<f64> {
    real_spectrum(signal, 0.0, next_pow2(signal.len()))
        .iter()
        .map(|z| z.norm_sqr())
        .collect()
}

/// Frequency in hertz of FFT bin `k` for an `n`-point transform at
/// `sample_rate` Hz.
///
/// # Examples
///
/// ```
/// use tagbreathe_dsp::fft::bin_frequency;
/// assert_eq!(bin_frequency(8, 64.0, 1024), 0.5);
/// ```
#[must_use]
pub fn bin_frequency(k: usize, sample_rate: f64, n: usize) -> f64 {
    k as f64 * sample_rate / n as f64
}

/// The FFT bin index closest to `freq_hz` for an `n`-point transform.
pub fn frequency_bin(freq_hz: f64, sample_rate: f64, n: usize) -> usize {
    ((freq_hz * n as f64 / sample_rate).round() as usize).min(n / 2)
}

/// The naive `O(n²)` DFT the fast paths are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::complex::Complex;

    /// DFT of `x` of any length; the inverse includes the `1/n` scaling.
    /// Angles are reduced exactly (`jk mod n`) before the trigonometry.
    pub(crate) fn dft(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let roots: Vec<Complex> = (0..n)
            .map(|m| Complex::cis(sign * 2.0 * std::f64::consts::PI * m as f64 / n as f64))
            .collect();
        let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
        (0..n)
            .map(|k| {
                let (mut re, mut im) = (0.0, 0.0);
                let mut jk = 0; // j·k mod n
                for xj in x {
                    // Zero terms are skipped, so a sparse (masked)
                    // spectrum inverts in O(n · nonzero).
                    if *xj != Complex::ZERO {
                        let w = roots[jk];
                        re += xj.re * w.re - xj.im * w.im;
                        im += xj.re * w.im + xj.im * w.re;
                    }
                    jk += k;
                    if jk >= n {
                        jk -= n;
                    }
                }
                Complex::new(re, im).scale(scale)
            })
            .collect()
    }

    /// A deterministic, aperiodic test signal of `n` samples.
    pub(crate) fn signal(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|j| {
                let t = j as f64;
                (0.37 * t + seed).sin()
                    + 0.5 * (1.3 * t + 0.2 * seed).cos()
                    + ((j * 7919 + 13) % 113) as f64 / 113.0
                    - 0.5
            })
            .collect()
    }

    /// The largest magnitude in `x`.
    pub(crate) fn peak(x: &[f64]) -> f64 {
        x.iter().fold(0.0, |m: f64, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} vs {b}");
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let spec = fft_real(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        for z in &spec {
            assert_close(z.abs(), 1.0, 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_concentrates_in_dc() {
        let spec = fft_real(&[3.0; 16]);
        assert_close(spec[0].re, 48.0, 1e-9);
        for z in &spec[1..] {
            assert_close(z.abs(), 0.0, 1e-9);
        }
    }

    #[test]
    fn fft_detects_pure_tone_bin() {
        // 8-cycle cosine over 64 samples → energy at bin 8 and bin 56.
        let n = 64;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 8.0 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        assert_close(spec[8].abs(), 32.0, 1e-9);
        assert_close(spec[56].abs(), 32.0, 1e-9);
        assert_close(spec[3].abs(), 0.0, 1e-9);
    }

    #[test]
    fn forward_inverse_round_trip() {
        let signal: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64 - 8.0).collect();
        let spec = fft_real(&signal);
        let back = ifft_real(&spec, signal.len());
        for (a, b) in signal.iter().zip(&back) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn inverse_direction_scales_by_n() {
        let mut data = vec![Complex::ONE; 8];
        fft_in_place(&mut data, Direction::Inverse);
        // IFFT of the all-ones spectrum is an impulse of height 1 at 0.
        assert_close(data[0].re, 1.0, 1e-12);
        for z in &data[1..] {
            assert_close(z.abs(), 0.0, 1e-12);
        }
    }

    #[test]
    fn linearity() {
        let a: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..32).map(|i| (i as f64 * 1.1).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let fa = fft_real(&a);
        let fb = fft_real(&b);
        let fs = fft_real(&sum);
        for k in 0..32 {
            assert_close((fa[k] + fb[k]).re, fs[k].re, 1e-9);
            assert_close((fa[k] + fb[k]).im, fs[k].im, 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let signal: Vec<f64> = (0..64).map(|i| ((i * i) % 13) as f64 / 13.0).collect();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let spec = fft_real(&signal);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert_close(time_energy, freq_energy, 1e-9);
    }

    #[test]
    fn zero_padding_to_pow2() {
        let spec = fft_real(&[1.0, 2.0, 3.0]);
        assert_eq!(spec.len(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_in_place_panics() {
        let mut data = vec![Complex::ZERO; 6];
        fft_in_place(&mut data, Direction::Forward);
    }

    #[test]
    fn bin_frequency_and_inverse() {
        let n = 1600usize.next_power_of_two(); // 2048
        let sr = 64.0;
        let k = frequency_bin(0.67, sr, n);
        let f = bin_frequency(k, sr, n);
        assert!((f - 0.67).abs() < sr / n as f64);
    }

    #[test]
    fn power_spectrum_length_is_half_plus_one() {
        let ps = power_spectrum(&[0.0; 64]);
        assert_eq!(ps.len(), 33);
    }

    #[test]
    fn fft_length_one_is_identity() {
        let mut data = vec![Complex::new(2.0, -1.0)];
        fft_in_place(&mut data, Direction::Forward);
        assert_eq!(data[0], Complex::new(2.0, -1.0));
    }

    #[test]
    fn hermitian_symmetry_for_real_input() {
        let signal: Vec<f64> = (0..32).map(|i| (i as f64).sqrt().sin()).collect();
        let spec = fft_real(&signal);
        let n = spec.len();
        for k in 1..n {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert_close(a.re, b.re, 1e-9);
            assert_close(a.im, b.im, 1e-9);
        }
    }

    use super::oracle::{dft, peak, signal};

    /// Complex test data of power-of-two length `n`.
    fn complex_signal(n: usize, seed: f64) -> Vec<Complex> {
        signal(n, seed)
            .into_iter()
            .zip(signal(n, seed + 1.0))
            .map(|(re, im)| Complex::new(re, im))
            .collect()
    }

    /// Largest component of `x`, the scale of the agreement bound.
    fn complex_peak(x: &[Complex]) -> f64 {
        x.iter()
            .fold(0.0, |m: f64, z| m.max(z.re.abs()).max(z.im.abs()))
    }

    /// Agreement within `1e-12 · scale`. Time-domain outputs use `scale =
    /// max|x|`; forward spectra are compared as the normalised spectrum
    /// `X/n` (whose bins are bounded by `max|x|`), i.e. `scale = n·max|x|`.
    fn assert_matches(got: &[Complex], want: &[Complex], scale: f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            let err = (g.re - w.re).abs().max((g.im - w.im).abs());
            assert!(
                err <= 1e-12 * scale,
                "{what}: bin {k}: {g} vs {w} (err {err:e})"
            );
        }
    }

    fn check_planned(n: usize, seed: f64) -> Vec<Complex> {
        let x = complex_signal(n, seed);
        let scale = complex_peak(&x);
        let mut forward = x.clone();
        fft_in_place(&mut forward, Direction::Forward);
        let spectrum_scale = scale * n as f64;
        assert_matches(
            &forward,
            &dft(&x, false),
            spectrum_scale,
            &format!("forward n={n}"),
        );
        let mut inverse = x.clone();
        fft_in_place(&mut inverse, Direction::Inverse);
        assert_matches(&inverse, &dft(&x, true), scale, &format!("inverse n={n}"));
        forward
    }

    #[test]
    fn planned_fft_matches_naive_dft_for_every_size_up_to_4096() {
        for log2 in 0..=12 {
            check_planned(1 << log2, 0.3);
        }
    }

    #[test]
    fn interleaved_sizes_give_identical_results_on_one_and_two_threads(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let order = [512usize, 8, 4096, 2, 256, 8, 1, 512, 64, 4096];
        let reference: Vec<Vec<Complex>> = order.iter().map(|&n| check_planned(n, 1.7)).collect();
        let handles: Vec<_> = [false, true]
            .into_iter()
            .map(|reversed| {
                std::thread::spawn(move || {
                    let mut sizes: Vec<(usize, usize)> =
                        order.iter().copied().enumerate().collect();
                    if reversed {
                        sizes.reverse();
                    }
                    sizes
                        .into_iter()
                        .map(|(i, n)| {
                            let mut x = complex_signal(n, 1.7);
                            fft_in_place(&mut x, Direction::Forward);
                            (i, x)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let results = handle.join().map_err(|_| "worker thread panicked")?;
            for (i, spectrum) in results {
                assert_eq!(
                    spectrum, reference[i],
                    "size {} differs across threads",
                    order[i]
                );
            }
        }
        Ok(())
    }

    #[test]
    fn uncached_size_matches_the_closed_form() {
        // Beyond the plan cache: the DFT of a unit impulse at sample 1 is
        // e^{-2πik/n}.
        let n = 1 << (MAX_CACHED_LOG2 + 1);
        let mut x = vec![Complex::ZERO; n];
        x[1] = Complex::ONE;
        fft_in_place(&mut x, Direction::Forward);
        for (k, z) in x.iter().enumerate() {
            let want = Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((*z - want).abs() < 1e-12, "bin {k}: {z} vs {want}");
        }
    }

    #[test]
    fn real_paths_match_naive_dft_for_uneven_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 399, 400, 401, 1000, 4096] {
            let x = signal(len, 0.9);
            let n = next_pow2(len);
            let mut padded: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
            padded.resize(n, Complex::ZERO);
            let want = dft(&padded, false);
            let scale = peak(&x) * n as f64;
            assert_matches(&fft_real(&x), &want, scale, &format!("fft_real len={len}"));
            let power = power_spectrum(&x);
            assert_eq!(power.len(), n / 2 + 1);
            for (k, (p, w)) in power.iter().zip(&want).enumerate() {
                let bound = 1e-12 * scale * (2.0 * w.abs() + 1.0);
                assert!((p - w.norm_sqr()).abs() <= bound, "power len={len} bin {k}");
            }
        }
    }

    #[test]
    fn real_inverse_undoes_real_spectrum() {
        for len in [1usize, 2, 3, 399, 400, 401, 4096] {
            let x = signal(len, 2.1);
            let back = real_inverse(real_spectrum(&x, 0.0, next_pow2(len)), len);
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() <= 1e-12 * peak(&x), "len={len}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn nan_input_poisons_every_fft_bin() {
        let mut x = complex_signal(64, 0.1);
        x[17] = Complex::new(f64::NAN, 0.0);
        fft_in_place(&mut x, Direction::Forward);
        assert!(x.iter().all(|z| z.is_nan()));
    }
}
