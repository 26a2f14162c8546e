//! Per-layer metrics from a traced run plus direct call timings.
//!
//! The traced pair turns on the trace registry and the phase profiler
//! (`cfg.trace`, `cfg.prof`) and reads only their public reports: registry
//! counters are exact, while ring-derived data is partial once the ring
//! drops events. Its simulated outputs must equal the untraced pair's.

use mitt_prof::{Phase, ProfReport};
use mitt_trace::report::{CACHE_HIT_COUNTER, NET_HOP_COUNTER, PREDICT_ERROR_HIST, SUBMIT_COUNTER};
use mitt_trace::{MetricsRegistry, Subsystem};

use crate::checks::Checks;
use crate::host::{median, Stamp};
use crate::metrics::Metric;
use crate::pair::{self, Pair};
use crate::workloads::{Stack, Workload};
use crate::{calls, Report};

/// Runs the per-layer measurement on the workload's first sub-seed.
pub fn measure(w: &Workload, seed: u64, ops: usize, seconds: f64) -> Report {
    let started = Stamp::now();
    let sub_seed = Workload::subrun_seed(seed, 0);
    let mut checks = Checks::default();
    let mut plain = pair::run(w, sub_seed, ops, false, &mut || {});
    let mut traced = pair::run(w, sub_seed, ops, true, &mut || {});
    checks.same(
        "traced vs untraced run",
        &plain.outcomes(),
        &traced.outcomes(),
    );
    checks.runs("traced run", &mut traced);
    let slowest = started.elapsed().wall_s();
    let (mut plain_cpu, mut traced_cpu) = (
        vec![plain.run().cpu_ns as f64],
        vec![traced.run().cpu_ns as f64],
    );
    // Repeat both while at most half the budget is spent, so the call
    // timings below still fit.
    while started.elapsed().wall_s() + slowest <= seconds / 2.0 {
        plain = pair::run(w, sub_seed, ops, false, &mut || {});
        plain_cpu.push(plain.run().cpu_ns as f64);
        let again = pair::run(w, sub_seed, ops, true, &mut || {});
        traced_cpu.push(again.run().cpu_ns as f64);
    }
    let overhead = 100.0 * (median(&traced_cpu) / median(&plain_cpu) - 1.0);

    let halves = if w.stack == Stack::CacheBtree {
        Some(hit_pct_halves(w, sub_seed, ops, &traced))
    } else {
        None
    };
    let mut metrics = from_run(&traced, halves);
    metrics.push(
        Metric::new("obs.trace_overhead_pct", "%", overhead).note(format!(
            "run() on-CPU, traced vs untraced, medians of {} pairs",
            traced_cpu.len()
        )),
    );
    let report = traced.mitt.res.prof.report();
    let peak_queue = report
        .gauges
        .iter()
        .map(|g| g.event_ring)
        .max()
        .unwrap_or(0);
    metrics.extend(calls::measure(w, peak_queue));
    Report {
        checks,
        attempted: 2 * traced.issued,
        failed: traced.base.res.errors + traced.mitt.res.errors,
        metrics,
    }
}

/// Mean nanoseconds per activation of `phase`, 0 when it never ran.
fn ns_per(report: &ProfReport, phase: Phase) -> f64 {
    let s = &report.phases[phase as usize];
    if s.count == 0 {
        0.0
    } else {
        s.total_ns as f64 / s.count as f64
    }
}

fn total_ns(report: &ProfReport, phase: Phase) -> f64 {
    report.phases[phase as usize].total_ns as f64
}

/// `100 × part / whole`, 0 for an empty whole.
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// The `q` quantile of a registry histogram as its bucket's upper bound
/// (the last finite bound for the overflow bucket), 0 when empty.
fn hist_quantile(reg: &MetricsRegistry, name: &str, q: f64) -> u64 {
    let Some(h) = reg.histogram(name) else {
        return 0;
    };
    if h.total() == 0 {
        return 0;
    }
    let rank = (q * h.total() as f64).ceil() as u64;
    let mut seen = 0;
    let mut last_bound = 0;
    for (bound, count) in h.buckets() {
        last_bound = bound.unwrap_or(last_bound);
        seen += count;
        if seen >= rank {
            return last_bound;
        }
    }
    last_bound
}

/// Cache hit percent over the first and second halves of the MittOS run:
/// a half-length run is the first half's prefix of the same closed loop.
fn hit_pct_halves(w: &Workload, seed: u64, ops: usize, full: &Pair) -> (f64, f64) {
    let mut cfg = w.config(seed, ops / 2);
    cfg.strategy = w.mittos(full.deadline);
    cfg.trace = true;
    let half = pair::timed(cfg).res.trace.metrics();
    let whole = full.mitt.res.trace.metrics();
    let (h_hit, h_sub) = (
        half.counter_total(CACHE_HIT_COUNTER),
        half.counter_total(SUBMIT_COUNTER),
    );
    let (w_hit, w_sub) = (
        whole.counter_total(CACHE_HIT_COUNTER),
        whole.counter_total(SUBMIT_COUNTER),
    );
    (
        pct(h_hit, h_sub),
        pct(w_hit.saturating_sub(h_hit), w_sub.saturating_sub(h_sub)),
    )
}

/// Metrics read from the traced pair's registry and profile (MittOS run).
fn from_run(p: &Pair, halves: Option<(f64, f64)>) -> Vec<Metric> {
    let res = &p.mitt.res;
    let reg = res.trace.metrics();
    let prof = res.prof.report();
    let gets = res.get_latencies.len() as f64;
    let per_get = |name: &str| reg.counter_total(name) as f64 / gets;
    let (mut admits, mut rejects) = (0, 0);
    for sub in [
        Subsystem::MittNoop,
        Subsystem::MittCfq,
        Subsystem::MittSsd,
        Subsystem::MittCache,
    ] {
        admits += reg.counter_total(sub.admit_counter());
        rejects += reg.counter_total(sub.reject_counter());
    }
    let dispatch_self = total_ns(&prof, Phase::Dispatch)
        - total_ns(&prof, Phase::Predict)
        - total_ns(&prof, Phase::Sched)
        - total_ns(&prof, Phase::TraceEmit);
    let dispatches = prof.phases[Phase::Dispatch as usize].count.max(1) as f64;
    let (h1, h2) = halves.unwrap_or((0.0, 0.0));
    let submits = reg.counter_total(SUBMIT_COUNTER);
    vec![
        Metric::new(
            "sim.events_per_get",
            "1/get",
            prof.events_dispatched as f64 / gets,
        ),
        Metric::new(
            "sim.dispatch_self_ns_per_event",
            "ns",
            dispatch_self / dispatches,
        )
        .note("dispatch minus nested predict, sched and trace-emit phases"),
        Metric::new(
            "sim.stats_fold_ms",
            "ms",
            total_ns(&prof, Phase::StatsFold) / 1e6,
        ),
        Metric::new("core.reject_pct", "%", pct(rejects, admits + rejects)).note(format!(
            "{rejects} of {} predictor decisions",
            admits + rejects
        )),
        Metric::new("core.rejects", "count", rejects as f64),
        Metric::new(
            "core.predict_err_p99_us",
            "us",
            hist_quantile(&reg, PREDICT_ERROR_HIST, 0.99) as f64 / 1e3,
        )
        .note("bucket upper bound of |predicted - actual wait|"),
        Metric::new(
            "core.predict_ns_per_call",
            "ns",
            ns_per(&prof, Phase::Predict),
        ),
        Metric::new("sched.ns_per_op", "ns", ns_per(&prof, Phase::Sched)),
        Metric::new("device.ios_per_get", "1/get", per_get(SUBMIT_COUNTER))
            .note("node.submit per get; counts page-cache hits too"),
        Metric::new(
            "device.storage_ios_per_get",
            "1/get",
            (submits - reg.counter_total(CACHE_HIT_COUNTER)) as f64 / gets,
        )
        .note("node.submit minus node.cache_hit, per get"),
        Metric::new("device.ns_per_io", "ns", ns_per(&prof, Phase::Device)),
        Metric::new(
            "cache.hit_pct",
            "%",
            pct(reg.counter_total(CACHE_HIT_COUNTER), submits),
        ),
        Metric::new("cache.hit_pct.h1", "%", h1).note("first half of the MittOS run"),
        Metric::new("cache.hit_pct.h2", "%", h2).note("second half of the MittOS run"),
        Metric::new(
            "cache.evicted_per_kget",
            "1/kget",
            1e3 * per_get("cache.evicted"),
        ),
        Metric::new("lsm.plans_per_get", "1/get", per_get("lsm.lookup_plans")),
        Metric::new(
            "cluster.useful_try_pct",
            "%",
            100.0 * gets / (gets + res.retries as f64),
        )
        .note(format!("{gets} gets, {} retries", res.retries)),
        Metric::new(
            "cluster.failovers_per_kget",
            "1/kget",
            1e3 * per_get("cluster.failover"),
        ),
        Metric::new("net.hops_per_get", "1/get", per_get(NET_HOP_COUNTER)),
        Metric::new("trace.dropped", "count", res.trace.dropped() as f64)
            .note(format!("of {} ring events", res.trace.recorded())),
    ]
}
