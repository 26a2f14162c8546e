//! Derived-metric math and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `%`, `count`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Human-readable context printed beside the value (sample counts,
    /// wall time); never part of the result line.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// True when `name` is a valid metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A percentile of a latency sample, with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// The nearest-rank percentile, in nanoseconds.
    pub value_ns: u64,
    /// Samples in the whole recorder.
    pub samples: usize,
    /// Samples strictly greater than the percentile.
    pub beyond: usize,
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

impl Tail {
    /// The nearest-rank `p`th percentile of `sorted` (ascending).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or an unsorted one.
    pub fn of(sorted: &[u64], p: f64) -> Tail {
        assert!(!sorted.is_empty(), "percentile of nothing");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let n = sorted.len();
        // The guard keeps float error from pushing an exact rank up by one
        // (0.999 * 10_000 evaluates just above 9_990).
        let rank = ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n);
        let value_ns = sorted[rank - 1];
        let beyond = n - sorted.partition_point(|&x| x <= value_ns);
        Tail {
            value_ns,
            samples: n,
            beyond,
        }
    }

    /// The value in milliseconds, if at least [`MIN_BEYOND`] samples lie
    /// beyond it; a rarer tail is not reported.
    pub fn reportable_ms(&self) -> Option<f64> {
        (self.beyond >= MIN_BEYOND).then(|| self.value_ns as f64 / 1e6)
    }

    /// The sample-count note printed beside the value.
    pub fn note(&self) -> String {
        format!("n={} beyond={}", self.samples, self.beyond)
    }
}

/// Percent by which MittOS cut Base's p99: `100 × (base − mittos) / base`.
pub fn p99_cut_pct(base_p99_ns: u64, mittos_p99_ns: u64) -> f64 {
    100.0 * (base_p99_ns as f64 - mittos_p99_ns as f64) / base_p99_ns as f64
}

/// Completed requests slower than `slo_ns`.
pub fn slow_count(latencies_ns: &[u64], slo_ns: u64) -> u64 {
    latencies_ns.iter().filter(|&&l| l > slo_ns).count() as u64
}

/// Percent of `attempted` user requests that missed the SLO: the `slow`
/// ones plus every `failed` one (a failure counts as a miss).
pub fn slo_miss_pct(slow: u64, failed: u64, attempted: u64) -> f64 {
    100.0 * (slow + failed) as f64 / attempted as f64
}

/// Percent of `attempted` requests that surfaced an error.
pub fn error_pct(errors: u64, attempted: u64) -> f64 {
    100.0 * errors as f64 / attempted as f64
}

/// Prints every metric as `name = value unit (note)`, then the result line
/// the driver parses: `{"correct", "attempted", "failed", "metrics"}`.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        if m.note.is_empty() {
            println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
        } else {
            println!("{:<40} {:>16.4} {} ({})", m.name, m.value, m.unit, m.note);
        }
    }
    println!("{}", result_json(correct, attempted, failed, metrics));
}

/// The one-line JSON result. Values keep every digit (`{}` of an `f64`
/// prints the shortest exact round-trip form); a non-finite value makes the
/// result incorrect and is written as 0.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_cut_is_relative_to_base() {
        assert_eq!(p99_cut_pct(40_000_000, 10_000_000), 75.0);
        assert_eq!(p99_cut_pct(20_000_000, 20_000_000), 0.0);
        // MittOS worse than Base reads as a negative cut.
        assert_eq!(p99_cut_pct(10_000_000, 15_000_000), -50.0);
    }

    #[test]
    fn slo_miss_counts_failures_as_misses() {
        // Two completed above 10, one failed, six attempted.
        let slow = slow_count(&[1, 5, 10, 11, 30], 10);
        assert_eq!(slow, 2);
        let pct = slo_miss_pct(slow, 1, 6);
        assert!((pct - 50.0).abs() < 1e-12, "{pct}");
        // A request exactly at the SLO meets it.
        assert_eq!(slow_count(&[10], 10), 0);
        assert_eq!(slo_miss_pct(0, 2, 2), 100.0);
    }

    #[test]
    fn error_pct_is_per_attempt() {
        assert_eq!(error_pct(0, 100), 0.0);
        assert_eq!(error_pct(3, 200), 1.5);
    }

    #[test]
    fn p999_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=10_000).collect();
        let t = Tail::of(&sorted, 99.9);
        assert_eq!((t.value_ns, t.beyond), (9_990, 10));
        assert!(t.reportable_ms().is_some());
        let short: Vec<u64> = (1..=9_999).collect();
        let t = Tail::of(&short, 99.9);
        assert_eq!(t.beyond, 9);
        assert_eq!(t.reportable_ms(), None);
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond_it() {
        let mut sorted = vec![1u64; 50];
        sorted.extend([7u64; 50]);
        let t = Tail::of(&sorted, 99.0);
        assert_eq!((t.value_ns, t.beyond), (7, 0));
        assert_eq!(Tail::of(&sorted, 50.0).beyond, 50);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "mittos_p99_ms",
            "core.mittcfq_predicted_wait_ns.p16",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "p99%", "ünï", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let ms = [
            Metric::new("a_ms", "ms", 1.25).note("n=4"),
            Metric::new("b", "count", 3.0),
        ];
        assert_eq!(
            result_json(true, 10, 0, &ms),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        let nan = [Metric::new("x", "ms", f64::NAN)];
        assert!(result_json(true, 1, 0, &nan).starts_with("{\"correct\": false"));
    }
}
