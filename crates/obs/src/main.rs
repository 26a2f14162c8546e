//! `mitt-obs` — observability CLI.
//!
//! ```text
//! mitt-obs compare <baseline.json> <run.json> [--latency-threshold-pct N]
//!                                             [--calibration-threshold-pp N]
//! ```
//!
//! Compares a `BENCH_<fig>.json` run report against a committed baseline.
//! Exit status: 0 = within thresholds, 1 = regressions (one per line on
//! stdout), 2 = usage or IO error.

use std::process::ExitCode;

use mitt_obs::{BenchReport, CompareThresholds};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => {
            eprintln!(
                "usage: mitt-obs compare <baseline.json> <run.json> \
                 [--latency-threshold-pct N] [--calibration-threshold-pp N]"
            );
            ExitCode::from(2)
        }
    }
}

fn compare(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut thresholds = CompareThresholds::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--latency-threshold-pct" | "--calibration-threshold-pp" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("error: {} needs a numeric value", args[i]);
                    return ExitCode::from(2);
                };
                if args[i] == "--latency-threshold-pct" {
                    thresholds.latency_pct = v;
                } else {
                    thresholds.calibration_pp = v;
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                return ExitCode::from(2);
            }
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let &[baseline_path, run_path] = paths.as_slice() else {
        eprintln!("error: compare needs exactly two report paths");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, run) = match (load(baseline_path), load(run_path)) {
        (Ok(b), Ok(r)) => (b, r),
        (b, r) => {
            for err in [b.err(), r.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let regressions = baseline.compare(&run, thresholds);
    if regressions.is_empty() {
        println!(
            "ok: {} within thresholds (latency +/-{:.0}%, calibration +{:.1} pp)",
            run.fig, thresholds.latency_pct, thresholds.calibration_pp
        );
        ExitCode::SUCCESS
    } else {
        println!("{} regression(s) in {}:", regressions.len(), run.fig);
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}
