//! Host-independent memory guardrail: the engine's per-get state tracks
//! in-flight gets, not total gets. An op slot is recycled once its get is
//! done and no scheduled event or in-flight IO names it, so the slot
//! high-water mark (`ExperimentResult::op_slots`) must not grow with the
//! run length.

use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, InitialReplica, NodeConfig, NoiseKind, NoiseStream, Strategy,
};
use mittos_repro::device::IoClass;
use mittos_repro::sim::Duration;
use mittos_repro::workload::rotating_schedule;

/// Every strategy, with timers short enough to fire on a disk cluster.
fn strategies() -> Vec<Strategy> {
    let ms = Duration::from_millis;
    vec![
        Strategy::Base,
        Strategy::AppTimeout { timeout: ms(13) },
        Strategy::Clone2,
        Strategy::Hedged { after: ms(13) },
        Strategy::Tied { delay: ms(1) },
        Strategy::Snitch { alpha: 0.3 },
        Strategy::C3,
        Strategy::MittOs { deadline: ms(15) },
        Strategy::MittOsWait { deadline: ms(10) },
        Strategy::MittOsAuto { initial: ms(15) },
        Strategy::NosqlProfile {
            timeout: ms(30),
            failover: true,
        },
        Strategy::NosqlProfile {
            timeout: ms(30),
            failover: false,
        },
    ]
}

/// Three clients on a three-replica CFQ cluster, each user request fanning
/// out to two gets, paced by `think_ms` between requests.
fn config(strategy: Strategy, ops_per_client: usize, think_ms: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
    cfg.seed = 17;
    cfg.clients = 3;
    cfg.scale_factor = 2;
    cfg.ops_per_client = ops_per_client;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(think_ms);
    cfg.write_fraction = 0.1;
    cfg
}

/// On a quiet, paced cluster a done get keeps its slot only while a timer
/// or a clone loser still names it, which clears within a few requests:
/// the mark is reached early and a run ten times longer leaves it as is.
#[test]
fn op_slot_high_water_mark_does_not_grow_with_run_length() {
    const N: usize = 100;
    for strategy in strategies() {
        let name = strategy.name();
        let short = run_experiment(config(strategy.clone(), N, 20));
        let cfg = config(strategy, 10 * N, 20);
        let bound = cfg.clients * cfg.scale_factor * (cfg.replication + 1);
        let long = run_experiment(cfg);
        assert_eq!(long.ops, 3 * 10 * N as u64, "{name}");
        assert_eq!(
            short.op_slots, long.op_slots,
            "{name}: op slots grew with the run length"
        );
        assert!(
            long.op_slots <= bound,
            "{name}: {} op slots exceed clients x scale factor x (replication + 1) = {bound}",
            long.op_slots
        );
    }
}

/// Under rotating 1 MB read noise, clone and hedge losers queue behind a
/// burst and hold their slots until they are served, so the mark follows
/// the burst's backlog (over a hundred slots for Clone) rather than a fixed
/// per-client figure. It still stays a small fraction of the run's gets.
#[test]
fn op_slots_stay_far_below_total_gets_under_noise() {
    for strategy in strategies() {
        let name = strategy.name();
        let mut cfg = config(strategy, 400, 5);
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
        }];
        let res = run_experiment(cfg);
        let gets = res.get_latencies.len();
        assert!(
            res.op_slots * 10 < gets,
            "{name}: {} op slots for {gets} gets",
            res.op_slots
        );
    }
}
