//! `fedbench` — the round-throughput benchmark of the FedDRL
//! reproduction. README.md beside this package defines the workloads, the
//! metrics and the commands.

mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;

use json::Json;
use stats::{median, tail};
use trace::{Breakdown, Tracer};
use workloads::{run, RunResult, Stop, Workload, QUALITY_ROUNDS, TARGET_ACCURACY};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 2022;

/// Seconds one run measures when none are given (`run_seconds` of
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage:
  fedbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE] [--all-metrics] [--no-probes]
  fedbench --out DIR [--workload NAME] [--seed N] [--seconds S] [--quick]
  fedbench --compare A.json B.json
  fedbench --verify [--seed N]";

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in BENCHMARK.json and README.md.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// End-to-end metrics of an untraced run. The two quality metrics exist
/// on `paper_cluster_skew` only, and only once the run got that far.
fn end_to_end(workload: Workload, result: &RunResult) -> Vec<Metric> {
    let mut metrics = vec![
        Metric::new("setup_s", median(&result.setup_s), "s"),
        Metric::new("rounds_per_s", result.rounds_per_s(), "1/s"),
        Metric::new("round_ms_p50", median(&result.step_ms), "ms"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    if workload == Workload::PaperClusterSkew {
        if let Some(accuracy) = result.accuracy_after(QUALITY_ROUNDS) {
            metrics.push(Metric::new("accuracy_r12", accuracy, "fraction"));
        }
        if let Some(t) = result.time_to_target_s(TARGET_ACCURACY) {
            metrics.push(Metric::new("time_to_target_s", t, "s"));
        }
    }
    metrics.push(Metric::new(
        "failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
        "fraction",
    ));
    metrics
}

/// Per-layer metrics of the traced run against an untraced one of the
/// same length.
fn per_layer(traced: &RunResult, untraced: &RunResult, spans: &[trace::Span]) -> Vec<Metric> {
    let breakdown = Breakdown::of(spans);
    let [step, strategy, aggregate, train, other] = breakdown.medians();
    let tail = tail(&breakdown.step_ms);
    // Round cost drifts over a run (replay buffers and fleet tables fill
    // up), so the two runs are compared over the rounds both completed.
    let common = traced.step_ms.len().min(untraced.step_ms.len());
    let (traced_p50, plain_p50) = (
        median(&traced.step_ms[..common]),
        median(&untraced.step_ms[..common]),
    );
    vec![
        Metric::new("trace.step_ms_p50", step, "ms"),
        Metric::new("trace.strategy_ms_p50", strategy, "ms"),
        Metric::new("trace.aggregate_ms_p50", aggregate, "ms"),
        Metric::new("trace.train_ms_p50", train, "ms"),
        Metric::new("trace.other_ms_p50", other, "ms"),
        Metric::new("trace.round_ms_tail", tail.value, "ms"),
        Metric::new("trace.round_tail_pct", tail.quantile * 100.0, "%"),
        Metric::new("trace.round_samples", tail.samples as f64, "count"),
        Metric::new("trace.parts_sum_pct", breakdown.parts_sum_pct(), "%"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced_p50 - plain_p50) / plain_p50.max(f64::MIN_POSITIVE),
            "%",
        ),
        Metric::new(
            "quality.accuracy_r12",
            untraced.accuracy_after(QUALITY_ROUNDS).unwrap_or(0.0),
            "fraction",
        ),
        Metric::new("quality.rounds", untraced.step_ms.len() as f64, "count"),
    ]
}

/// Options of every mode.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
    all_metrics: bool,
    no_probes: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans_out: None,
        all_metrics: false,
        no_probes: false,
        out: None,
        compare: None,
        verify: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--spans-out" => opts.spans_out = Some(value()?),
            "--all-metrics" => opts.all_metrics = true,
            "--no-probes" => opts.no_probes = true,
            "--out" => opts.out = Some(value()?),
            "--quick" => opts.seconds = 1.0,
            "--compare" => opts.compare = Some((value()?, value()?)),
            "--verify" => opts.verify = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Print `metrics` one per line, by name and with their unit.
pub fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label} {} = {} {}", m.name, m.value, m.unit);
    }
}

/// `metrics` as a JSON object of `{"value": …, "unit": …}` members.
pub fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::obj(metrics.into_iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// One run of one workload, as BENCHMARK.json's command asks for it. The
/// last line printed is the result object.
fn single_run(workload: Workload, opts: &Options) -> ExitCode {
    let (results, metrics) = if opts.trace {
        let half = Stop::Seconds(opts.seconds / 2.0);
        let tracer = Arc::new(Tracer::new());
        // The first session of a process pays for the heap's page faults;
        // a short throw-away run keeps that out of the comparison.
        run(
            workload,
            opts.seed,
            Stop::Seconds(opts.seconds / 20.0),
            None,
            1,
        );
        let traced = run(workload, opts.seed, half, Some(&tracer), 1);
        let untraced = run(workload, opts.seed, half, None, 1);
        let spans = tracer.spans();
        if let Some(path) = &opts.spans_out {
            if let Err(e) = std::fs::write(path, trace::spans_json(&spans).compact()) {
                eprintln!("fedbench: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        let mut metrics = per_layer(&traced, &untraced, &spans);
        if !opts.no_probes {
            metrics.extend(probes::run_probes(opts.seed));
        }
        (vec![traced, untraced], metrics)
    } else {
        let stop = Stop::Seconds(opts.seconds);
        let result = run(workload, opts.seed, stop, None, SETUP_REPEATS);
        let metrics = end_to_end(workload, &result);
        (vec![result], metrics)
    };
    print_metrics(workload.name(), &metrics);
    for problem in results.iter().flat_map(|r| &r.problems).take(10) {
        println!("{} PROBLEM {problem}", workload.name());
    }
    // The driver reads the end-to-end metrics BENCHMARK.json lists; the
    // quality and failure metrics ride along only when the suite asks.
    let listed = |m: &&Metric| {
        opts.trace
            || opts.all_metrics
            || matches!(
                m.name.as_str(),
                "setup_s" | "rounds_per_s" | "round_ms_p50" | "peak_rss_mib"
            )
    };
    let line = Json::obj([
        ("correct", Json::Bool(results.iter().all(|r| r.correct()))),
        (
            "attempted",
            Json::Num(results.iter().map(|r| r.attempted).sum::<usize>() as f64),
        ),
        (
            "failed",
            Json::Num(results.iter().map(|r| r.failed).sum::<usize>() as f64),
        ),
        ("metrics", metrics_json(metrics.iter().filter(listed))),
    ]);
    println!("{}", line.compact());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fedbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &opts.compare {
        return report::compare(a, b);
    }
    if opts.verify {
        return report::verify(opts.seed);
    }
    if cfg!(debug_assertions) {
        eprintln!("fedbench: refusing to time a non-release build; pass --release to cargo");
        return ExitCode::from(2);
    }
    match (&opts.out, opts.workload) {
        (Some(dir), only) => report::suite(dir, only, opts.seed, opts.seconds),
        (None, Some(workload)) => single_run(workload, &opts),
        (None, None) => {
            eprintln!("fedbench: nothing to do\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
