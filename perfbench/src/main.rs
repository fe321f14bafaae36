//! Whole-chain benchmark for `tagbreathe-server`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ward|census --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload once, untraced, and reports the
//! end-to-end metrics. `--trace 1` runs it untraced and again with its
//! generator-side spans on, then times each layer's public functions on
//! the same seeded input, and reports the per-layer metrics; the spans
//! are written to `perfbench/out/`. Informational lines come first; the
//! last line of standard output is one JSON result object. A run whose
//! output fails the correctness gate prints `"correct": false` with no
//! metrics and exits with code 1. See `perfbench/README.md`.

mod gen;
mod layers;
mod live;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::Duration;
use workload::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err(format!("--seconds must be at least 1, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One named metric of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Renders the final result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Prints the open-loop honesty record and the counts behind the result.
fn print_context(args: &Args, r: &live::LiveResult) {
    let w = &args.workload;
    let host = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# workload {} seed {} seconds {}",
        w.name, args.seed, args.seconds
    );
    println!("# host_parallelism {host}");
    println!("# shards {}", w.shards);
    println!("# offered_reports_per_s {}", r.offered_per_s);
    if let (Some(p50), Some(max)) = (
        stats::median(&r.late_ms),
        r.late_ms.iter().copied().reduce(f64::max),
    ) {
        println!("# generator_late_p50_ms {p50}");
        println!("# generator_late_max_ms {max}");
    }
    println!("# backlog_grew {}", r.backlog_grew);
    println!("# preroll_settle_ms {}", r.settle_ms);
    println!("# drain_ms {}", r.drain_ms);
    println!("# merged_reports_per_s {}", r.reports_per_s);
    let per_second: Vec<String> = r
        .accepted_by_second
        .windows(2)
        .map(|p| (p[1].saturating_sub(p[0])).to_string())
        .collect();
    println!("# accepted_per_second {}", per_second.join(","));
    println!("# reports_sent {}", r.sent);
    println!("# reports_accepted {}", r.accepted);
    println!("# snapshots {}", r.snapshots);
    println!("# flight_bundles {}", r.flight_bundles);
    println!("# freshness_samples {}", r.freshness_ms.len());
    println!("# http_samples {}", r.http.len());
    let http_ms: Vec<f64> = r.http.iter().map(|h| h.ms).collect();
    if let Some(p99) = stats::percentile(&http_ms, 0.99) {
        println!("# http_p99_ms {p99}");
    }
    if let Some(p90) = stats::windowed_percentile(&r.freshness_ms, 0.9, stats::WINDOWS) {
        println!("# freshness_p90_ms {p90}");
    }
    let http_failed = r.http.iter().filter(|h| h.failed).count();
    println!("# shed_ratio {}", r.shed as f64 / r.sent.max(1) as f64);
    println!(
        "# http_failed_ratio {}",
        http_failed as f64 / r.http.len().max(1) as f64
    );
}

/// The end-to-end metrics of one untraced live run.
fn end_to_end(r: &live::LiveResult) -> Result<Vec<Metric>, String> {
    let need = |what: &str, v: Option<f64>| v.ok_or_else(|| format!("too few samples for {what}"));
    let http_ms: Vec<(f64, f64)> = r.http.iter().map(|h| (h.at_s, h.ms)).collect();
    let windowed =
        |samples: &[(f64, f64)], q| stats::windowed_percentile(samples, q, stats::WINDOWS);
    Ok(vec![
        Metric {
            name: "setup_s",
            value: need("setup_s", stats::median(&r.setup_s))?,
            unit: "s",
        },
        Metric {
            name: "freshness_p50_ms",
            value: need("freshness_p50_ms", windowed(&r.freshness_ms, 0.5))?,
            unit: "ms",
        },
        Metric {
            name: "cpu_ns_per_report",
            value: r.cpu_ns_per_report,
            unit: "ns",
        },
        Metric {
            name: "peak_rss_mb",
            value: r.peak_rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "http_p50_ms",
            value: need("http_p50_ms", windowed(&http_ms, 0.5))?,
            unit: "ms",
        },
        Metric {
            name: "rate_accuracy",
            value: r.rate_accuracy,
            unit: "ratio",
        },
    ])
}

fn attempted_failed(r: &live::LiveResult) -> (u64, u64) {
    let http_failed = r.http.iter().filter(|h| h.failed).count() as u64;
    (
        r.sent + r.http.len() as u64,
        r.shed + r.frames_shed + http_failed,
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let untraced = live::run(&args.workload, args.seed, args.seconds, false)?;
    print_context(args, &untraced);
    let (attempted, failed) = attempted_failed(&untraced);
    if let Some(why) = &untraced.gate_error {
        eprintln!("error: correctness gate failed: {why}");
        return Ok((false, attempted, failed, Vec::new()));
    }
    if !args.trace {
        return Ok((failed == 0, attempted, failed, end_to_end(&untraced)?));
    }
    let traced = live::run(&args.workload, args.seed, args.seconds, true)?;
    let (t_attempted, t_failed) = attempted_failed(&traced);
    if let Some(why) = &traced.gate_error {
        eprintln!("error: correctness gate failed on the traced run: {why}");
        return Ok((
            false,
            attempted + t_attempted,
            failed + t_failed,
            Vec::new(),
        ));
    }
    let idle = live::idle_cpu_cores(&args.workload, Duration::from_secs(1))?;
    let metrics = layers::per_layer(&args.workload, args.seed, &untraced, traced, idle)?;
    Ok((
        failed + t_failed == 0,
        attempted + t_attempted,
        failed + t_failed,
        metrics,
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload ward|census --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for m in &metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_json(correct, attempted.max(1), failed, &metrics)
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "ward",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        assert!(a
            .as_ref()
            .is_ok_and(|a| a.workload.name == "ward" && a.seed == 3 && a.trace));
        assert!(parse_args(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "ward", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "ward",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(obs::json::validate(&line).is_ok());
    }
}
