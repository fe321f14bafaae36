//! Percentiles under the benchmark's sample-count rule, and CPU and
//! memory readings from `/proc`.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the percentile is then not
/// supported by the data and must not be reported).
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// Time windows a run's latency samples are split into; see
/// [`windowed_percentile`].
pub const WINDOWS: usize = 3;

/// The `q`-quantile of timed samples `(time, value)`, taken in each of
/// `windows` equal spans of time and reported as the median over the
/// spans. A host stall that backs the pipeline up for a while inflates
/// the percentile of one span, not the result. `None` unless every span
/// supports the percentile (see [`percentile`]).
#[must_use]
pub fn windowed_percentile(samples: &[(f64, f64)], q: f64, windows: usize) -> Option<f64> {
    let first = samples.iter().map(|s| s.0).reduce(f64::min)?;
    let last = samples.iter().map(|s| s.0).reduce(f64::max)?;
    let width = (last - first) / windows.max(1) as f64;
    let per_window = (0..windows.max(1))
        .map(|w| {
            let values: Vec<f64> = samples
                .iter()
                .filter(|s| {
                    let slot = if width > 0.0 {
                        ((s.0 - first) / width) as usize
                    } else {
                        0
                    };
                    slot.min(windows.max(1) - 1) == w
                })
                .map(|s| s.1)
                .collect();
            percentile(&values, q)
        })
        .collect::<Option<Vec<f64>>>()?;
    median(&per_window)
}

/// The median of `samples` (the mean of the middle pair for an even
/// count); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted.get(n / 2 - 1)? + sorted.get(n / 2)?) / 2.0),
    }
}

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const TICKS_PER_S: u64 = 100;

/// User plus system CPU, nanoseconds, from the text of a `/proc/.../stat`
/// file (fields 14 and 15, counted after the parenthesised command name,
/// which may itself contain spaces or parentheses).
#[must_use]
pub fn parse_stat_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state (3), ppid (4), … utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / TICKS_PER_S))
}

/// Time on CPU, nanoseconds, from the text of a `/proc/.../schedstat`
/// file (its first field).
#[must_use]
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size, bytes, from the text of `/proc/self/status`.
#[must_use]
pub fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// CPU used by the whole process so far, every thread it ever ran
/// included, nanoseconds.
#[must_use]
pub fn process_cpu_ns() -> Option<u64> {
    parse_stat_cpu_ns(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// CPU used by the calling thread so far, nanoseconds.
#[must_use]
pub fn thread_cpu_ns() -> Option<u64> {
    parse_schedstat_ns(&std::fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// Kernel id of the calling thread.
#[must_use]
pub fn current_tid() -> Option<u64> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU used so far by thread `tid` of this process, nanoseconds.
#[must_use]
pub fn task_cpu_ns(tid: u64) -> Option<u64> {
    parse_schedstat_ns(&std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?)
}

/// Peak resident set size of the process, bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm_bytes(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50.0));
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&hundred, 0.99), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 0.99), None);
        // p90 of 99 samples: rank 90, nine beyond.
        assert_eq!(percentile(&hundred[..99], 0.9), None);
        assert_eq!(percentile(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (1..=200).map(|i| f64::from((i * 37) % 200 + 1)).collect();
        assert_eq!(percentile(&shuffled, 0.9), Some(180.0));
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(180.0));
    }

    #[test]
    fn windowed_percentile_discounts_one_bad_window() {
        // 300 samples over 30 s; the middle 10 s are ten times slower.
        let samples: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                let slow = if (10.0..20.0).contains(&t) { 10.0 } else { 1.0 };
                (t, slow * (1.0 + f64::from(i % 10)))
            })
            .collect();
        assert_eq!(windowed_percentile(&samples, 0.5, 3), Some(5.0));
        assert_eq!(windowed_percentile(&samples, 0.9, 3), Some(9.0));
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&all, 0.9), Some(70.0));
        // Each window needs ten samples beyond its percentile.
        assert_eq!(windowed_percentile(&samples[..150], 0.9, 3), None);
        assert_eq!(windowed_percentile(&[], 0.5, 3), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn stat_cpu_is_utime_plus_stime() {
        let stat = "4242 (tag breathe (x)) S 1 4242 4242 0 -1 4194304 98 0 0 0 \
                    250 75 0 0 20 0 9 0 222887 2703360 285 18446744073709551615";
        assert_eq!(parse_stat_cpu_ns(stat), Some(325 * 10_000_000));
        assert_eq!(parse_stat_cpu_ns("garbage"), None);
        assert_eq!(parse_stat_cpu_ns("1 (short) S 1 2"), None);
    }

    #[test]
    fn schedstat_and_status_fields() {
        assert_eq!(
            parse_schedstat_ns("123456789 100120 17\n"),
            Some(123_456_789)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        let status = "Name:\tperfbench\nVmPeak:\t 9000 kB\nVmHWM:\t    1860 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(1860 * 1024));
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readings_are_available() {
        assert!(process_cpu_ns().is_some());
        assert!(thread_cpu_ns().is_some());
        let tid = current_tid();
        assert!(tid.is_some_and(|t| task_cpu_ns(t).is_some()));
        assert!(peak_rss_bytes().is_some_and(|b| b > 0));
    }
}
