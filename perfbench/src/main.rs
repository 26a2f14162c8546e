//! The repository benchmark: runs one MittOS workload and prints its
//! end-to-end metrics (`--trace 0`) or its per-layer metrics (`--trace 1`),
//! ending with one JSON result line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The exit code is non-zero when an output check fails.

mod calls;
mod checks;
mod e2e;
mod host;
mod layers;
mod metrics;
mod pair;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let ops = w.ops_per_client;
    println!(
        "# workload {}: {} clients x {} requests, think {} ms, scale factor {}, seed {}",
        w.name,
        w.clients,
        ops,
        w.think.as_millis_f64(),
        w.scale_factor,
        args.seed
    );
    println!("# why: {}", w.why);
    let mut report = if args.trace {
        layers::measure(&w, args.seed, ops, args.seconds)
    } else {
        e2e::measure(&w, args.seed, ops, args.seconds)
    };
    for m in &report.metrics {
        report.checks.check(
            metrics::valid_name(&m.name),
            format!("metric name {:?} is outside [A-Za-z0-9_.-]", m.name),
        );
    }
    report.checks.print();
    let correct = report.checks.ok();
    metrics::print_result(correct, report.attempted, report.failed, &report.metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one measurement mode hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// Output checks.
    pub checks: checks::Checks,
    /// User requests attempted in the reported runs.
    pub attempted: u64,
    /// User requests that errored or did not complete.
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<metrics::Metric>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&args(
            "--workload lsm_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.name, "lsm_mixed");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload lsm_mixed --seed 1 --seconds 1 --trace 2",
            "--workload lsm_mixed --seed x --seconds 1 --trace 0",
            "--workload lsm_mixed --seed 1 --seconds 0 --trace 0",
            "--workload lsm_mixed --seed 1 --trace 0",
            "--workload lsm_mixed --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}

/// Smoke-scale runs of every workload through the output checks (run with
/// `cargo test --release`; the debug build simulates slowly).
#[cfg(test)]
mod smoke {
    use super::*;

    /// Requests per client at which every sub-run of every workload still
    /// shows the paper's shape.
    const OPS: usize = 250;

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    fn assert_passes(mode: &str, report: &Report, section: &str) {
        assert!(report.checks.ok(), "{mode}: {:?}", report.checks);
        let mut names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        let mut want = declared(section);
        names.sort();
        want.sort();
        assert_eq!(names, want, "{mode}: metrics vs BENCHMARK.json");
        for m in &report.metrics {
            assert!(metrics::valid_name(&m.name), "{mode}: {}", m.name);
            assert!(m.value.is_finite(), "{mode}: {} = {}", m.name, m.value);
        }
        assert_eq!(report.failed, 0, "{mode}: failed requests");
    }

    #[test]
    fn every_workload_passes_the_output_checks() {
        for w in workloads::ALL {
            let e2e = e2e::measure(&w, 5, OPS, 0.0);
            assert_passes(&format!("{} e2e", w.name), &e2e, "end_to_end");
            let layers = layers::measure(&w, 5, OPS, 0.0);
            assert_passes(&format!("{} layers", w.name), &layers, "per_layer");
        }
    }
}
