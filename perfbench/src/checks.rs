//! Output checks. Any failure makes the run incorrect and the exit code
//! non-zero.

use crate::pair::{Outcome, Pair};
use crate::workloads::NOISE_HORIZON;

/// Collected check results.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what.into());
        }
    }

    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints a summary line and each failure.
    pub fn print(&self) {
        println!(
            "# checks: {} passed, {} failed",
            self.passed,
            self.failures.len()
        );
        for f in &self.failures {
            println!("# CHECK FAILED: {f}");
        }
    }

    /// The paper's shape and a healthy run on one pair (`label` names the
    /// seed): MittOS rejects something and beats Base at p99, neither
    /// strategy surfaces an error, and the run ends inside the noise
    /// horizon.
    pub fn shape(&mut self, label: &str, pair: &mut Pair) {
        self.runs(label, pair);
        let [base, mitt] = pair.outcomes();
        self.p99_cut(label, base.user_pcts[1], mitt.user_pcts[1]);
    }

    /// [`Checks::shape`] without the p99 comparison, for one of several
    /// pooled sub-runs: the pool's p99 is compared instead.
    pub fn runs(&mut self, label: &str, pair: &mut Pair) {
        let [base, mitt] = pair.outcomes();
        self.check(mitt.ebusy > 0, format!("{label}: MittOS returned no EBUSY"));
        for (name, o) in [("Base", &base), ("MittOS", &mitt)] {
            self.healthy(label, name, o);
        }
    }

    /// MittOS's p99 is below Base's.
    pub fn p99_cut(&mut self, label: &str, base_p99_ns: u64, mitt_p99_ns: u64) {
        self.check(
            mitt_p99_ns < base_p99_ns,
            format!("{label}: MittOS p99 {mitt_p99_ns} ns is not below Base p99 {base_p99_ns} ns"),
        );
    }

    /// Every workload is a healthy cluster, so no get may fail: a MittOS
    /// get whose replicas all reject still completes, counted only in
    /// `errors`.
    fn healthy(&mut self, label: &str, name: &str, o: &Outcome) {
        self.check(
            o.errors == 0,
            format!("{label}: {name} surfaced {} errors", o.errors),
        );
        self.check(
            o.finished_at.as_nanos() < NOISE_HORIZON.as_nanos(),
            format!(
                "{label}: {name} ran to {} s, past the {} s noise horizon",
                o.finished_at.as_secs_f64(),
                NOISE_HORIZON.as_secs_f64()
            ),
        );
    }

    /// Two runs that must agree exactly on every simulated output.
    pub fn same(&mut self, what: &str, a: &[Outcome; 2], b: &[Outcome; 2]) {
        for (i, name) in ["Base", "MittOS"].iter().enumerate() {
            self.check(
                a[i] == b[i],
                format!("{what}: {name} outputs differ: {:?} vs {:?}", a[i], b[i]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_sim::{Duration, SimTime};

    fn outcome(errors: u64, finished_at: SimTime) -> Outcome {
        Outcome {
            user_pcts: [1, 2, 3],
            get_pcts: [1, 2, 3],
            ebusy: 1,
            retries: 1,
            errors,
            finished_at,
        }
    }

    #[test]
    fn errors_and_runs_past_the_horizon_fail() {
        let end = SimTime::ZERO + Duration::from_secs(10);
        let mut c = Checks::default();
        c.healthy("s", "MittOS", &outcome(0, end));
        assert!(c.ok());
        c.healthy("s", "MittOS", &outcome(1, end));
        assert!(!c.ok());
        let mut c = Checks::default();
        c.healthy("s", "Base", &outcome(0, SimTime::ZERO + NOISE_HORIZON));
        assert!(!c.ok());
    }
}
