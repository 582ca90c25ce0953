//! `tpdf_bench` — the repository's benchmark: wire-to-result latency
//! and throughput on the paper's case studies, with a per-layer traced
//! run. See `README.md` beside this package for the metric and
//! workload definitions. It claims no gain.
//!
//! ```text
//! tpdf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tpdf_bench --seed <n> [--traced] [--agree]      # every workload
//! ```
//!
//! With `--workload` it runs that workload in this process and prints,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Without, it runs every workload, each in a
//! fresh child process of this binary, and ends with a JSON summary.

mod json;
mod load;
mod stats;
mod sut;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::{quote, Value};
use workloads::{Metric, Outcome, Plan, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const RUN_SECONDS: f64 = 10.0;
/// Measured windows per run, each in a fresh process: a process's
/// memory layout alone moves CPU-bound timings by several percent, and
/// the median over ten layouts is steadier than one long measurement.
pub const WINDOWS: u64 = 10;

/// An end-to-end metric as `BENCHMARK.json` fixes it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the reference value by which it may get worse.
    pub bound: f64,
}

/// The gated metrics, with bounds of three times the widest spread
/// measured over ten seeds, capped at 0.25 (README, "Bounds from
/// measured spread").
/// `failed_share` is carried by the result's `attempted` and `failed`
/// (it is 0 on every workload, and a gated metric may never be 0);
/// `latency_p99_us` repeats too poorly to gate and is only printed.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.20,
    },
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    agree: bool,
    smoke: bool,
    /// Set by a run for its children: measure this one window.
    window: Option<u64>,
    /// Runs per workload of the spread table, each with its own seed.
    spread: Option<u64>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        agree: false,
        smoke: false,
        window: None,
        spread: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => parsed.trace = true,
            "--agree" => parsed.agree = true,
            "--smoke" => parsed.smoke = true,
            "--window" => {
                parsed.window = Some(
                    value("a window index")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                );
            }
            "--spread" => {
                parsed.spread = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// The build directory this binary runs from (`<target>/release/..`),
/// which the checkout's `.gitignore` covers.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("tpdf_bench")))
        .unwrap_or_else(|| PathBuf::from("tpdf_bench_out"))
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(
        line[prefix.len()..]
            .trim_matches([' ', '\t', ':'])
            .to_string(),
    )
}

/// Printed with every run: what the numbers were measured on.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let kernel =
        first_line_of("/proc/sys/kernel/osrelease", "").unwrap_or_else(|| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    // A checkout need not be a git repository; read the ref if it is.
    let git = first_line_of(".git/HEAD", "")
        .map(|head| match head.strip_prefix("ref: ") {
            Some(reference) => {
                first_line_of(&format!(".git/{reference}"), "").unwrap_or(head.clone())
            }
            None => head,
        })
        .unwrap_or_else(|| "unknown".into());
    let load: f64 = first_line_of("/proc/loadavg", "")
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN);
    let busy = if load > nproc as f64 / 2.0 {
        " (BUSY: above nproc/2, expect noise)"
    } else {
        ""
    };
    format!(
        "host: nproc={nproc} cpu={cpu:?} kernel={kernel} rustc={rustc:?} git={git} loadavg1={load}{busy}"
    )
}

fn print_metrics(outcome: &Outcome) {
    for (label, metrics) in [("metric", &outcome.metrics), ("info", &outcome.info)] {
        for m in metrics {
            println!("{label:>6}  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    if let Some(why) = &outcome.error {
        println!("FAILED: {why}");
        // Also where a parent process looks for the reason.
        eprintln!("tpdf_bench: {why}");
    }
}

/// The contract's result line: exactly these four keys.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.error.is_none(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    println!("{}", host_fingerprint());
    // A window child is handed the window's length, a run the sum.
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::full(args.seconds)
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    let outcome = if let Some(window) = args.window {
        workloads::run_window(workload, args.seed, window, &plan)
    } else if args.trace {
        let path = output_dir().join(format!("trace-{}.json", workload.name));
        let outcome = workloads::run_traced(workload, args.seed, &plan, &path);
        println!("spans written to {}", path.display());
        outcome
    } else {
        run_windows(workload, args).unwrap_or_else(Outcome::broken)
    };
    print_metrics(&outcome);
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 && outcome.error.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The timed run: `--seconds` split into [`WINDOWS`] equal windows,
/// each measured by a fresh child process of this binary with its own
/// set-up. A metric is the median of its per-window values.
fn run_windows(workload: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut reports = Vec::new();
    for window in 0..WINDOWS {
        let child = child_args(
            workload,
            args,
            args.seed,
            args.seconds / WINDOWS as f64,
            ("--window", window),
        );
        let report = spawn_self(&child, false)?;
        let values: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{}={:.4}", m.name, report.value(m.name).unwrap_or(f64::NAN)))
            .collect();
        println!("window {window}: {}", values.join(" "));
        reports.push(report);
    }
    let across =
        |name: &str| -> Vec<f64> { reports.iter().filter_map(|r| r.value(name)).collect() };
    let count = |key: &str| -> u64 {
        let values = reports.iter().filter_map(|r| r.result.get(key)?.as_f64());
        values.sum::<f64>() as u64
    };
    let mut outcome = Outcome {
        attempted: count("attempted"),
        failed: count("failed"),
        ..Outcome::default()
    };
    for metric in &END_TO_END {
        outcome.metrics.push(Metric {
            name: metric.name.to_string(),
            value: stats::median_f64(&across(metric.name)),
            unit: metric.unit.to_string(),
        });
    }
    // Everything else a window prints is informational: the worst
    // window for extremes, the sum for counts, the median otherwise.
    for (name, _, unit) in &reports[0].printed {
        if END_TO_END.iter().any(|m| m.name == name) {
            continue;
        }
        let values = across(name);
        let value = match name.as_str() {
            "latency_max_us" | "latency_p999_us" | "peak_rss_mib" => {
                values.iter().copied().fold(f64::NAN, f64::max)
            }
            "window_ops" => values.iter().copied().fold(f64::NAN, f64::min),
            "backoffs" => values.iter().sum(),
            _ => stats::median_f64(&values),
        };
        outcome.info.push(Metric {
            name: name.clone(),
            value,
            unit: unit.clone(),
        });
    }
    Ok(outcome)
}

/// What a child process reported: its result line, and every metric
/// and info line (name, value, unit) it printed above it.
struct ChildReport {
    result: Value,
    printed: Vec<(String, f64, String)>,
}

impl ChildReport {
    /// A metric at full precision from the result line, or an info
    /// value as printed.
    fn value(&self, name: &str) -> Option<f64> {
        let gated = || {
            self.result
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        };
        gated().or_else(|| {
            let (_, value, _) = self.printed.iter().find(|(n, _, _)| n == name)?;
            Some(*value)
        })
    }
}

/// Runs this binary again with `args`, optionally echoes its report,
/// and returns it parsed. A child that fails an op is an error.
fn spawn_self(args: &[String], echo: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the child printed nothing")?;
    let mut printed = Vec::new();
    for line in lines {
        // The host line is printed once, by the parent.
        if echo && !line.starts_with("host:") {
            println!("  {line}");
        }
        if let ["metric" | "info", name, value, unit] =
            line.split_whitespace().collect::<Vec<_>>()[..]
        {
            printed.extend(
                value
                    .parse()
                    .ok()
                    .map(|v| (name.to_string(), v, unit.to_string())),
            );
        }
    }
    let result = json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "`tpdf_bench {}` did not run correctly: {last} {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(ChildReport { result, printed })
}

/// The arguments of a child: the contract's, ending in `mode`.
fn child_args(
    workload: &Workload,
    args: &Args,
    seed: u64,
    seconds: f64,
    mode: (&str, u64),
) -> Vec<String> {
    let mut child = vec![
        "--workload".to_string(),
        workload.name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        mode.0.to_string(),
        mode.1.to_string(),
    ];
    if args.smoke {
        child.push("--smoke".to_string());
    }
    child
}

/// Runs one workload (all its windows, or its traced run) in a child.
fn run_child(
    workload: &Workload,
    args: &Args,
    seed: u64,
    trace: bool,
) -> Result<ChildReport, String> {
    let mode = ("--trace", u64::from(trace));
    spawn_self(&child_args(workload, args, seed, args.seconds, mode), true)
}

/// One pass over every workload; returns each timed report.
fn run_suite(args: &Args) -> Result<Vec<(&'static str, ChildReport)>, String> {
    let mut reports = Vec::new();
    for workload in &WORKLOADS {
        println!("== {}: {}", workload.name, workload.why);
        let timed = run_child(workload, args, args.seed, false)?;
        if args.trace {
            let traced = run_child(workload, args, args.seed, true)?;
            if let (Some(traced_p50), Some(p50)) = (
                traced.value("trace.outer_op_p50_us"),
                timed.value("latency_p50_us"),
            ) {
                println!(
                    "  tracing overhead: traced outermost p50 / untraced latency_p50_us = {:.4}",
                    traced_p50 / p50
                );
            }
        }
        reports.push((workload.name, timed));
    }
    Ok(reports)
}

/// By how much of `first` the metric got worse in `second`.
fn worsening(metric: &EndToEnd, first: f64, second: f64) -> f64 {
    if metric.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// A/A: the suite twice on the same build; the passes must agree
/// within every end-to-end bound.
fn passes_agree(
    first: &[(&'static str, ChildReport)],
    second: &[(&'static str, ChildReport)],
) -> Result<bool, String> {
    let mut agreed = true;
    for ((name, a), (_, b)) in first.iter().zip(second) {
        for metric in &END_TO_END {
            let (Some(a), Some(b)) = (a.value(metric.name), b.value(metric.name)) else {
                return Err(format!("{name} lacks {}", metric.name));
            };
            // Either pass may be the reference: the pair disagrees if
            // one is worse than the other by more than the bound.
            let apart = worsening(metric, a, b).max(worsening(metric, b, a));
            let verdict = if apart > metric.bound {
                "DISAGREE"
            } else {
                "ok"
            };
            agreed &= apart <= metric.bound;
            println!(
                "  {name:<20} {:<16} {a:>14.4} {b:>14.4} {apart:>7.4} (bound {}) {verdict}",
                metric.name, metric.bound
            );
        }
    }
    Ok(agreed)
}

/// The suite's last line. No gain is claimed, ever: this change only
/// defines the benchmark.
fn summary_line(reports: &[(&'static str, ChildReport)]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|(name, report)| format!("{}: {}", quote(name), result_fields(report)))
        .collect();
    format!(
        "{{\"bench\": \"tpdf_bench\", \"workloads\": {{{}}}, \"claim\": null}}",
        workloads.join(", ")
    )
}

/// The end-to-end values of a child's report, as a JSON object.
fn result_fields(report: &ChildReport) -> String {
    let fields: Vec<String> = END_TO_END
        .iter()
        .filter_map(|m| Some(format!("{}: {}", quote(m.name), report.value(m.name)?)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The spread table bounds are set from: `runs` runs per workload,
/// each with its own seed; per metric the median and the distance
/// between the quartiles as a share of it.
fn run_spread(args: &Args, runs: u64) -> Result<(), String> {
    for workload in &WORKLOADS {
        println!("== {}", workload.name);
        let mut reports = Vec::new();
        for run in 0..runs {
            reports.push(run_child(workload, args, args.seed + run, false)?);
        }
        println!(
            "  {:<28} {:>14} {:>10}",
            "over seeds", "median", "IQR/median"
        );
        for (name, _, _) in &reports[0].printed {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.value(name)).collect();
            println!(
                "  spread {name:<28} {:>14.4} {:>10.4}",
                stats::median_f64(&values),
                stats::relative_iqr(&values)
            );
        }
    }
    Ok(())
}

fn run_all(args: &Args) -> Result<bool, String> {
    println!("{}", host_fingerprint());
    if let Some(runs) = args.spread {
        return run_spread(args, runs).map(|()| true);
    }
    let first = run_suite(args)?;
    let mut agreed = true;
    if args.agree {
        println!("== A/A: the same build again");
        let second = run_suite(args)?;
        agreed = passes_agree(&first, &second)?;
    }
    println!("{}", summary_line(&first));
    Ok(agreed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("tpdf_bench: {why}");
            return ExitCode::from(64);
        }
    };
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(workload) => run_one(workload, &args),
            None => {
                eprintln!("tpdf_bench: no workload named {name}");
                ExitCode::from(64)
            }
        },
        None => match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("tpdf_bench: the two passes disagree by more than a bound");
                ExitCode::from(3)
            }
            Err(why) => {
                eprintln!("tpdf_bench: {why}");
                ExitCode::from(2)
            }
        },
    }
}
