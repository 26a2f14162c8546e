//! End-to-end metrics: simulated tail latency of Base and MittOS, and the
//! engine's host cost, with tracing off.
//!
//! A run first plays the pair on a held-out seed (the warm-up, whose
//! timings are discarded but whose shape is checked). It then plays the
//! pair once on each of the workload's sub-seeds and pools their samples:
//! the simulated metrics depend on the seed alone. While `seconds` are not
//! yet spent it replays sub-seeds, each replay of which must reproduce its
//! first play exactly, to gather more host-time samples. Host metrics are
//! medians over every pair played, each run scaled by the reference work
//! timed just before and after it (see [`host::reference_cpu_s`]); the raw
//! medians are printed beside them.

use crate::checks::Checks;
use crate::host::{self, median, peak_rss_mb, Stamp, REFERENCE_NOMINAL_S};
use crate::metrics::{error_pct, p99_cut_pct, slo_miss_pct, slow_count, Metric, Tail};
use crate::pair::{self, Outcome, Pair};
use crate::workloads::Workload;
use crate::Report;

/// The seed the shape is re-checked on: never one a sub-run uses.
pub fn held_out(seed: u64) -> u64 {
    Workload::subrun_seed(seed, 1 << 20)
}

/// Simulated results pooled over sub-runs.
#[derive(Debug, Default)]
struct Pool {
    base: Vec<u64>,
    mitt: Vec<u64>,
    slow: u64,
    issued: u64,
    base_errors: u64,
    mitt_errors: u64,
    mitt_ebusy: u64,
    mitt_retries: u64,
    base_ebusy: u64,
    last_end_s: f64,
}

impl Pool {
    fn add(&mut self, p: &Pair) {
        self.issued += p.issued;
        self.base
            .extend_from_slice(p.base.res.user_latencies.samples());
        let mitt = p.mitt.res.user_latencies.samples();
        self.mitt.extend_from_slice(mitt);
        self.slow += slow_count(mitt, p.slo.as_nanos());
        self.base_errors += p.base.res.errors;
        self.mitt_errors += p.mitt.res.errors;
        self.mitt_ebusy += p.mitt.res.ebusy;
        self.mitt_retries += p.mitt.res.retries;
        self.base_ebusy += p.base.res.ebusy;
        self.last_end_s = self
            .last_end_s
            .max(p.base.res.finished_at.as_secs_f64())
            .max(p.mitt.res.finished_at.as_secs_f64());
    }
}

/// Host-time samples, one per pair played; `rate` and `setup` are scaled to
/// the nominal host.
#[derive(Debug, Default)]
struct HostSamples {
    /// Gets per on-CPU second.
    rate: Vec<f64>,
    /// Set-up on-CPU seconds.
    setup: Vec<f64>,
    /// `rate` and `setup` unscaled.
    rate_raw: Vec<f64>,
    setup_raw: Vec<f64>,
    /// Gets per wall second and set-up wall seconds, unscaled.
    rate_wall: Vec<f64>,
    setup_wall: Vec<f64>,
    /// Every reading of the reference work, on-CPU seconds.
    reference: Vec<f64>,
}

impl HostSamples {
    /// Plays one pair, reading the reference work before, between and after
    /// its two runs; each run is scaled by the mean of the readings around
    /// it.
    fn play(&mut self, w: &Workload, seed: u64, ops: usize) -> Pair {
        let mut refs = Vec::with_capacity(3);
        let p = pair::run(w, seed, ops, false, &mut || {
            refs.push(host::reference_cpu_s())
        });
        let slowdown = |i: usize| (refs[i] + refs[i + 1]) / 2.0 / REFERENCE_NOMINAL_S;
        let (base, mitt) = (slowdown(0), slowdown(1));
        let secs = |ns: u64| ns as f64 / 1e9;
        let gets = p.gets() as f64;
        self.rate
            .push(gets / (secs(p.base.run.cpu_ns) / base + secs(p.mitt.run.cpu_ns) / mitt));
        self.setup
            .push(secs(p.base.setup.cpu_ns) / base + secs(p.mitt.setup.cpu_ns) / mitt);
        let (setup, run) = (p.setup(), p.run());
        self.rate_raw.push(gets / secs(run.cpu_ns));
        self.setup_raw.push(secs(setup.cpu_ns));
        self.rate_wall.push(gets / run.wall_s());
        self.setup_wall.push(setup.wall_s());
        self.reference.extend(refs);
        p
    }
}

/// Runs the end-to-end measurement.
pub fn measure(w: &Workload, seed: u64, ops: usize, seconds: f64) -> Report {
    let started = Stamp::now();
    let mut checks = Checks::default();
    let mut warm = pair::run(w, held_out(seed), ops, false, &mut || {});
    checks.shape("held-out seed", &mut warm);
    drop(warm);
    // The peak of one pair, before the benchmark's own pooled samples and
    // reference work add allocator noise to the process's footprint.
    let peak_rss = peak_rss_mb();

    let mut pool = Pool::default();
    let samples = w.subruns * w.clients * ops;
    pool.base.reserve_exact(samples);
    pool.mitt.reserve_exact(samples);
    let mut host = HostSamples::default();
    let mut firsts: Vec<[Outcome; 2]> = Vec::with_capacity(w.subruns);
    let mut slowest = 0.0f64;
    for k in 0..w.subruns {
        let t = Stamp::now();
        let mut p = host.play(w, Workload::subrun_seed(seed, k), ops);
        pool.add(&p);
        checks.runs(&format!("sub-run {k}"), &mut p);
        firsts.push(p.outcomes());
        slowest = slowest.max(t.elapsed().wall_s());
    }
    let mut k = 0;
    while started.elapsed().wall_s() + slowest <= seconds {
        let mut p = host.play(w, Workload::subrun_seed(seed, k), ops);
        checks.same(&format!("replay of sub-run {k}"), &firsts[k], &p.outcomes());
        k = (k + 1) % w.subruns;
    }
    let pairs = host.rate.len();

    pool.base.sort_unstable();
    pool.mitt.sort_unstable();
    let mut metrics = Vec::new();
    for (name, pct) in [
        ("mittos_p50_ms", 50.0),
        ("mittos_p99_ms", 99.0),
        ("mittos_p999_ms", 99.9),
    ] {
        let t = Tail::of(&pool.mitt, pct);
        match t.reportable_ms() {
            Some(ms) => metrics.push(Metric::new(name, "ms", ms).note(t.note())),
            None => checks.check(false, format!("{name}: {}, too few beyond", t.note())),
        }
    }
    let base_p99 = Tail::of(&pool.base, 99.0);
    let mitt_p99 = Tail::of(&pool.mitt, 99.0);
    checks.p99_cut("pooled sub-runs", base_p99.value_ns, mitt_p99.value_ns);
    metrics.push(
        Metric::new("base_p99_ms", "ms", base_p99.value_ns as f64 / 1e6).note(base_p99.note()),
    );
    metrics.push(Metric::new(
        "p99_cut_pct",
        "%",
        p99_cut_pct(base_p99.value_ns, mitt_p99.value_ns),
    ));
    // Failed MittOS gets count as misses; the output checks require there
    // to be none, so no request is counted both slow and failed.
    let mitt_failed = pool.mitt_errors;
    metrics.push(
        Metric::new(
            "slo_miss_pct",
            "%",
            slo_miss_pct(pool.slow, mitt_failed, pool.issued),
        )
        .note(format!(
            "{} slow + {mitt_failed} failed of {}; SLO = each sub-run's Base user p95",
            pool.slow, pool.issued
        )),
    );
    // The output checks require this to read 0, so it is printed but not
    // reported: the result line's `failed` carries the same count.
    let errors = pool.base_errors + pool.mitt_errors;
    println!(
        "# error_pct {} % ({errors} errors of {} requests, both strategies)",
        error_pct(errors, 2 * pool.issued),
        2 * pool.issued
    );
    println!(
        "# host: reference work {:.5} s on-CPU (nominal {REFERENCE_NOMINAL_S} s), median of {} readings",
        median(&host.reference),
        host.reference.len()
    );
    metrics.push(
        Metric::new("sim_gets_per_s", "1/s", median(&host.rate)).note(format!(
            "gets per on-CPU second at nominal host speed, median of {pairs} pairs; \
             raw {:.0}/s on-CPU, {:.0}/s wall",
            median(&host.rate_raw),
            median(&host.rate_wall)
        )),
    );
    metrics.push(
        Metric::new("setup_s", "s", median(&host.setup)).note(format!(
            "on-CPU at nominal host speed, median of {pairs} pairs; \
         raw {:.4} s on-CPU, {:.4} s wall",
            median(&host.setup_raw),
            median(&host.setup_wall)
        )),
    );
    metrics.push(Metric::new("peak_rss_mb", "MiB", peak_rss).note("VmHWM after the warm-up pair"));
    println!(
        "# {} sub-runs x {} requests: MittOS EBUSY {} (retries {}), Base EBUSY {}; latest virtual end {:.1} s",
        w.subruns, pool.issued / w.subruns as u64, pool.mitt_ebusy, pool.mitt_retries, pool.base_ebusy, pool.last_end_s
    );
    Report {
        checks,
        attempted: 2 * pool.issued,
        failed: errors,
        metrics,
    }
}
