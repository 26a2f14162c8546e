//! One Base run followed by one MittOS run on the same cluster and seed,
//! timed from outside the simulator.

use mitt_cluster::{ClusterSim, ExperimentConfig, ExperimentResult};
use mitt_sim::{Duration, SimTime};

use crate::host::{Span, Stamp};
use crate::workloads::Workload;

/// One strategy's run and its host cost.
#[derive(Debug)]
pub struct Timed {
    /// What the simulator returned.
    pub res: ExperimentResult,
    /// Host time inside `ClusterSim::new`.
    pub setup: Span,
    /// Host time inside `ClusterSim::run`.
    pub run: Span,
}

/// Base, then MittOS with Base's get p95 (or the workload's fixed value)
/// as its deadline.
#[derive(Debug)]
pub struct Pair {
    /// The Base run.
    pub base: Timed,
    /// The MittOS run.
    pub mitt: Timed,
    /// Base's user-request p95: the workload's SLO.
    pub slo: Duration,
    /// The deadline MittOS ran with.
    pub deadline: Duration,
    /// User requests each strategy was asked to complete.
    pub issued: u64,
}

/// Builds and runs one configuration, timing set-up and run separately.
pub fn timed(cfg: ExperimentConfig) -> Timed {
    let s = Stamp::now();
    let sim = ClusterSim::new(cfg);
    let setup = s.elapsed();
    let s = Stamp::now();
    let res = sim.run();
    let run = s.elapsed();
    Timed { res, setup, run }
}

/// Runs the workload's pair at `ops` user requests per client; `traced`
/// turns on the trace registry and the phase profiler for both runs.
/// `probe` runs before the Base run, between the two runs and after the
/// MittOS run, outside their timing.
pub fn run(w: &Workload, seed: u64, ops: usize, traced: bool, probe: &mut dyn FnMut()) -> Pair {
    let mut cfg = w.config(seed, ops);
    cfg.trace = traced;
    cfg.prof = traced;
    probe();
    let mut base = timed(cfg.clone());
    probe();
    let base_p95 = base.res.get_latencies.percentile(95.0);
    let slo = base.res.user_latencies.percentile(95.0);
    cfg.strategy = w.mittos(base_p95);
    let deadline = w.fixed_deadline.unwrap_or(base_p95);
    let mitt = timed(cfg);
    probe();
    Pair {
        base,
        mitt,
        slo,
        deadline,
        issued: (w.clients * ops) as u64,
    }
}

/// The simulated outputs two runs of one configuration must share exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// User-request latency p50 / p99 / p99.9, ns.
    pub user_pcts: [u64; 3],
    /// Get latency p50 / p95 / p99, ns.
    pub get_pcts: [u64; 3],
    /// EBUSY responses.
    pub ebusy: u64,
    /// Retries.
    pub retries: u64,
    /// Errors surfaced to users.
    pub errors: u64,
    /// Virtual end of the run.
    pub finished_at: SimTime,
}

impl Outcome {
    /// Summarises a run.
    pub fn of(res: &mut ExperimentResult) -> Outcome {
        let u = &mut res.user_latencies;
        let user_pcts = [50.0, 99.0, 99.9].map(|p| u.percentile(p).as_nanos());
        let g = &mut res.get_latencies;
        let get_pcts = [50.0, 95.0, 99.0].map(|p| g.percentile(p).as_nanos());
        Outcome {
            user_pcts,
            get_pcts,
            ebusy: res.ebusy,
            retries: res.retries,
            errors: res.errors,
            finished_at: res.finished_at,
        }
    }
}

impl Pair {
    /// Both strategies' outcomes, Base first.
    pub fn outcomes(&mut self) -> [Outcome; 2] {
        [
            Outcome::of(&mut self.base.res),
            Outcome::of(&mut self.mitt.res),
        ]
    }

    /// Gets completed by both strategies.
    pub fn gets(&self) -> usize {
        self.base.res.get_latencies.len() + self.mitt.res.get_latencies.len()
    }

    /// Host time of both `ClusterSim::new` calls.
    pub fn setup(&self) -> Span {
        self.base.setup + self.mitt.setup
    }

    /// Host time of both `run` calls.
    pub fn run(&self) -> Span {
        self.base.run + self.mitt.run
    }
}
