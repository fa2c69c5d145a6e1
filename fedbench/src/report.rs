//! The modes around a single run: the whole suite with its report files,
//! the comparison of two reports, and the determinism self-check.

use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::Arc;

use crate::json::Json;
use crate::trace::Tracer;
use crate::workloads::{run, Stop, Workload};

/// Output of a best-effort helper command, `unknown` when it cannot run
/// (a checkout need not be a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run this binary again for one workload and return what it printed.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    extra: &[&str],
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    String::from_utf8(output.stdout).map_err(|e| format!("{} output: {e}", workload.name()))
}

/// Echo the child's metric lines and parse its last line, the result
/// object.
fn echo_and_parse(stdout: &str) -> Result<Json, String> {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("the run printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    Json::parse(last)
}

/// Every workload (or only `only`) in a fresh process each, so that
/// `peak_rss_mib` is per workload: an untraced run, then a traced one.
/// The probes, which no workload changes, run once at the end. Writes
/// `fedbench.json` and `fedbench_trace.json`.
pub fn suite(dir: &str, only: Option<Workload>, seed: u64, seconds: f64) -> ExitCode {
    match suite_inner(Path::new(dir), only, seed, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fedbench: a workload failed its output check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fedbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn suite_inner(
    dir: &Path,
    only: Option<Workload>,
    seed: u64,
    seconds: f64,
) -> Result<bool, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut all_correct = true;
    let mut rounds = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for workload in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let untraced = echo_and_parse(&child_run(workload, seed, seconds, &["--all-metrics"])?)?;
        let spans_path = dir.join(format!("fedbench_trace.{}.json", workload.name()));
        let spans_arg = spans_path.to_string_lossy().into_owned();
        let traced = echo_and_parse(&child_run(
            workload,
            seed,
            seconds,
            &["--trace", "1", "--no-probes", "--spans-out", &spans_arg],
        )?)?;
        let spans = std::fs::read_to_string(&spans_path)
            .map_err(|e| format!("read {spans_arg}: {e}"))
            .and_then(|text| Json::parse(&text))?;
        std::fs::remove_file(&spans_path).map_err(|e| format!("remove {spans_arg}: {e}"))?;
        traces.push((workload.name(), spans));

        let flag = |report: &Json| report.get("correct") == Some(&Json::Bool(true));
        all_correct &= flag(&untraced) && flag(&traced);
        let field = |name: &str| untraced.get(name).cloned().unwrap_or(Json::Null);
        rounds.push((workload.name(), field("attempted")));
        reports.push((
            workload.name(),
            Json::obj([
                ("correct", Json::Bool(flag(&untraced) && flag(&traced))),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("end_to_end", field("metrics")),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        // fedbench never overrides the nn thread cap, which then equals
        // the available parallelism.
        ("thread_cap", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("rounds", Json::obj(rounds)),
    ]);
    let probes = crate::probes::run_probes(seed);
    crate::print_metrics("probe", &probes);
    let report = Json::obj([
        ("env", env),
        ("workloads", Json::obj(reports)),
        ("probes", crate::metrics_json(&probes)),
    ]);
    let write = |name: &str, value: &Json| {
        let path = dir.join(name);
        std::fs::write(&path, value.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("fedbench.json", &report)?;
    write("fedbench_trace.json", &Json::obj(traces))?;
    println!(
        "wrote {0}/fedbench.json and {0}/fedbench_trace.json",
        dir.display()
    );
    Ok(all_correct)
}

/// How an end-to-end metric may move before it counts as a regression.
struct Bound {
    lower_is_better: bool,
    /// Allowed worsening as a share of the base value.
    share: f64,
    /// Allowed worsening in the metric's own unit (the larger of the two
    /// applies).
    absolute: f64,
}

fn bound(metric: &str) -> Option<Bound> {
    let b = |lower_is_better, share, absolute| {
        Some(Bound {
            lower_is_better,
            share,
            absolute,
        })
    };
    match metric {
        "setup_s" => b(true, 0.25, 0.05),
        "rounds_per_s" => b(false, 0.25, 0.0),
        "round_ms_p50" | "time_to_target_s" | "peak_rss_mib" => b(true, 0.25, 0.0),
        "accuracy_r12" => b(false, 0.0, 0.01),
        "failed_share" => b(true, 0.0, 0.0),
        _ => None,
    }
}

/// Whether moving from `base` to `new` is a regression of `metric`.
fn regressed(metric: &str, base: f64, new: f64) -> bool {
    let Some(bound) = bound(metric) else {
        return false;
    };
    let worsening = if bound.lower_is_better {
        new - base
    } else {
        base - new
    };
    worsening > (bound.share * base.abs()).max(bound.absolute)
}

/// Apply the bounds to every (metric, workload) of report `a` against
/// report `b`; non-zero exit on any regression.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (base, new) = match (load(a), load(b)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("fedbench: {e}");
            return ExitCode::from(2);
        }
    };
    let value = |report: &Json, workload: &str, metric: &str| {
        report
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut regressions = 0;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8}",
        "workload", "metric", "base", "new", "new/base"
    );
    let workloads = base.get("workloads").map_or(&[][..], Json::members);
    for (workload, entry) in workloads {
        for (metric, _) in entry.get("end_to_end").map_or(&[][..], Json::members) {
            let Some(base_value) = value(&base, workload, metric) else {
                continue;
            };
            let Some(new_value) = value(&new, workload, metric) else {
                regressions += 1;
                println!("{workload:<20} {metric:<18} {base_value:>14.6} MISSING");
                continue;
            };
            let bad = regressed(metric, base_value, new_value);
            regressions += usize::from(bad);
            // A zero base (`failed_share`) has no ratio.
            let ratio = if base_value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", new_value / base_value)
            };
            println!(
                "{workload:<20} {metric:<18} {base_value:>14.6} {new_value:>14.6} {ratio:>8} {}",
                if bad { "REGRESSION" } else { "ok" }
            );
        }
    }
    if regressions > 0 {
        println!("{regressions} regression(s)");
        ExitCode::FAILURE
    } else {
        println!("no regression");
        ExitCode::SUCCESS
    }
}

/// Rounds the self-check runs per workload: enough for FedDRL to store a
/// transition and for `net_bulk` to pass a dense round.
fn verify_rounds(workload: Workload) -> usize {
    match workload {
        Workload::PaperClusterSkew => 3,
        Workload::ServerFig9 => 5,
        Workload::NetBulk => 12,
        Workload::FleetScale | Workload::NetChatty => 50,
    }
}

/// The determinism self-check: with one seed, an untraced run, a traced
/// run and a second untraced run end on the same parameter hash and the
/// same accuracy (which also proves the tracing `train_fn` mirrors the
/// default path); another seed ends elsewhere.
pub fn verify(seed: u64) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let stop = Stop::Rounds(verify_rounds(workload));
        let tracer = Arc::new(Tracer::new());
        let first = run(workload, seed, stop, None, 1);
        let traced = run(workload, seed, stop, Some(&tracer), 1);
        let second = run(workload, seed, stop, None, 1);
        let other = run(workload, seed.wrapping_add(1), stop, None, 1);
        let same = |r: &crate::workloads::RunResult| {
            r.params_hash == first.params_hash
                && r.final_accuracy().to_bits() == first.final_accuracy().to_bits()
        };
        let checks = [
            ("traced run matches", same(&traced)),
            ("second run matches", same(&second)),
            (
                "another seed differs",
                other.params_hash != first.params_hash,
            ),
            (
                "outputs correct",
                [&first, &traced, &second, &other]
                    .iter()
                    .all(|r| r.correct()),
            ),
            ("spans recorded", !tracer.spans().is_empty()),
        ];
        for (what, passed) in checks {
            ok &= passed;
            println!(
                "verify {} {what}: {}",
                workload.name(),
                if passed { "ok" } else { "FAILED" }
            );
        }
        println!(
            "verify {} hash {:016x} accuracy {}",
            workload.name(),
            first.params_hash,
            first.final_accuracy()
        );
    }
    if ok {
        println!("verify passed");
        ExitCode::SUCCESS
    } else {
        println!("verify FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_each_metrics_direction_and_size() {
        // 25 % either way of throughput and latency.
        assert!(!regressed("rounds_per_s", 100.0, 75.5));
        assert!(regressed("rounds_per_s", 100.0, 74.0));
        assert!(!regressed("rounds_per_s", 100.0, 250.0));
        assert!(!regressed("round_ms_p50", 10.0, 12.4));
        assert!(regressed("round_ms_p50", 10.0, 12.6));
        // Set-up: 25 % or 50 ms, whichever is larger.
        assert!(!regressed("setup_s", 0.01, 0.055));
        assert!(regressed("setup_s", 0.01, 0.07));
        assert!(!regressed("setup_s", 1.0, 1.2));
        assert!(regressed("setup_s", 1.0, 1.3));
        // Accuracy in absolute points, failures not at all.
        assert!(!regressed("accuracy_r12", 0.45, 0.441));
        assert!(regressed("accuracy_r12", 0.45, 0.43));
        assert!(!regressed("failed_share", 0.0, 0.0));
        assert!(regressed("failed_share", 0.0, 0.001));
        // Metrics without a bound never regress.
        assert!(!regressed("trace.step_ms_p50", 1.0, 100.0));
    }
}
