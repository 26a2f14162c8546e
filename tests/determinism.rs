//! Double-run determinism harness: the dynamic complement to `mitt-lint`.
//!
//! The static rules (tests/lint.rs) keep nondeterminism *sources* out of the
//! tree; this test proves the composed system actually is deterministic. A
//! representative cluster simulation — replicated nodes, CFQ disks, noisy
//! neighbors, the MittOS failover strategy — runs twice from the same seed,
//! and every observable output (latency sample streams, counters, the final
//! virtual clock, and with tracing enabled the full event ring + metrics
//! registry) is folded into an FNV-1a digest. One reordered event anywhere
//! in the run cascades into a digest mismatch. All three media paths are
//! covered: the CFQ disk, the OpenChannel SSD, and the LSM engine over the
//! disk.

use mittos_repro::cluster::{
    run_experiment, BtreeConfig, ExperimentConfig, ExperimentResult, InitialReplica, Medium,
    NodeConfig, NoiseKind, NoiseStream, Strategy, Topology,
};
use mittos_repro::device::IoClass;
use mittos_repro::faults::{FaultPlan, FaultPlanGen, PlanGenConfig, ResilienceConfig};
use mittos_repro::lsm::LsmConfig;
use mittos_repro::obs::attribution::AttributionSummary;
use mittos_repro::sim::digest::{double_run, Fnv1a};
use mittos_repro::sim::{Duration, SimTime};
use mittos_repro::tsl::TslConfig;
use mittos_repro::workload::{rotating_schedule, NoiseBurst};

/// A contended three-replica cluster, small enough for a debug-build test.
/// Tracing is on so the digest also covers the event ring and metrics.
fn config(seed: u64, strategy: Strategy) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
    cfg.seed = seed;
    cfg.clients = 3;
    cfg.ops_per_client = 120;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(5);
    cfg.write_fraction = 0.1;
    cfg.trace = true;
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
    }];
    cfg
}

/// The SSD medium under write noise (MittSSD path).
fn ssd_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::ssd(),
        Strategy::MittOs {
            deadline: Duration::from_millis(2),
        },
    );
    cfg.seed = seed;
    cfg.medium = Medium::Ssd;
    cfg.ops_per_client = 60;
    cfg.trace = true;
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::SsdWrites { len: 64 << 10 },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
    }];
    cfg
}

/// An LSM-engine cluster (LevelDB-style lookup plans over the disk).
fn lsm_config(seed: u64) -> ExperimentConfig {
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(25),
        },
    );
    cfg.engine = Some(LsmConfig {
        levels: 2,
        level_ratio: 6,
        table_cache_capacity: 16,
        ..LsmConfig::default()
    });
    cfg.record_count = 100_000;
    cfg.ops_per_client = 60;
    cfg
}

/// Folds every observable output of a run into the digest, in a fixed
/// order: counters, the virtual clock, the latency sample streams, the
/// trace ring + metrics registry, and the exported Chrome JSON bytes (so
/// byte-identity of the export is part of the contract, not just the
/// in-memory event list).
fn fold_result(h: &mut Fnv1a, res: &ExperimentResult) {
    h.write_u64(res.ops);
    h.write_u64(res.ebusy);
    h.write_u64(res.retries);
    h.write_u64(res.errors);
    h.write_u64(res.stale_reads);
    h.write_u64(res.injected_faults);
    h.write_u64(res.dropped_messages);
    h.write_u64(res.distorted_predictions);
    h.write_u64(res.breaker_opens);
    h.write_u64(res.backoff_retries);
    h.write_u64(res.degraded_ios);
    h.write_u64(res.finished_at.as_nanos());
    for (node, tr) in &res.breaker_transitions {
        h.write_u64(*node as u64);
        h.write_u64(tr.at.as_nanos());
        h.write_u64(tr.from as u64);
        h.write_u64(tr.to as u64);
        h.write_u64(tr.cause as u64);
    }
    h.write_u64_slice(res.user_latencies.samples());
    h.write_u64_slice(res.get_latencies.samples());
    let completions: Vec<u64> = res.completion_times.iter().map(|t| t.as_nanos()).collect();
    h.write_u64_slice(&completions);
    res.trace.fold_digest(h);
    h.write_str(&res.trace.export_chrome_json());
    // The derived SLO-attribution summary is an observable output too: if
    // event order ever wobbles, the per-resource blame counts wobble with it.
    AttributionSummary::from_sink(&res.trace, mittos_repro::os::DEFAULT_HOP).fold_digest(h);
    // The timeline state (windows, alerts, near-misses, flight dumps) is
    // covered whenever mitt-tsl is enabled; a disabled sink folds a marker.
    res.tsl.fold_digest(h);
}

#[test]
fn same_seed_same_digest() {
    for strategy in [
        Strategy::Base,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    ] {
        let (first, second) = double_run(|h| {
            let res = run_experiment(config(21, strategy.clone()));
            fold_result(h, &res);
        });
        assert_eq!(
            first,
            second,
            "two runs from seed 21 diverged under {}: {first:#018x} vs {second:#018x}",
            strategy.name()
        );
    }
}

#[test]
fn ssd_experiment_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let res = run_experiment(ssd_config(23));
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "SSD runs from seed 23 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn lsm_cluster_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let res = run_experiment(lsm_config(24));
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "LSM runs from seed 24 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn exported_trace_is_byte_identical_across_runs() {
    let run = || {
        let res = run_experiment(config(
            25,
            Strategy::MittOs {
                deadline: Duration::from_millis(15),
            },
        ));
        (res.trace.export_chrome_json(), res.trace.report_text())
    };
    let (json_a, report_a) = run();
    let (json_b, report_b) = run();
    assert!(
        json_a.len() > 1024 && json_a.contains("\"traceEvents\""),
        "traced run must export a non-trivial Chrome trace"
    );
    assert_eq!(json_a, json_b, "exported Chrome traces differ between runs");
    assert_eq!(report_a, report_b, "run reports differ between runs");
}

/// The `config` cluster under a composite fault plan exercising every
/// injection path that consumes entropy or reorders events: a crash (orphan
/// sweep + delayed `Crashed` replies), a fail-slow ramp, periodic cache
/// thrash, cluster-wide network spikes, message drops (RNG-consuming), and
/// predictor miscalibration (RNG-consuming) — with the resilience policies
/// on so breaker/backoff state is covered too.
fn faulted_config(seed: u64) -> ExperimentConfig {
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.faults = FaultPlan::new()
        .crash(0, at(300), Duration::from_millis(400))
        .fail_slow(
            1,
            at(800),
            Duration::from_millis(500),
            3.0,
            Duration::from_millis(100),
        )
        .cache_thrash(
            2,
            at(600),
            Duration::from_millis(400),
            30,
            Duration::from_millis(50),
        )
        .net_delay(
            None,
            at(200),
            Duration::from_millis(600),
            Duration::from_micros(200),
        )
        .net_drop(None, at(400), Duration::from_millis(600), 0.05)
        .predictor_bias(
            None,
            at(500),
            Duration::from_millis(700),
            1.3,
            Duration::from_micros(200),
        );
    cfg.resilience = Some(ResilienceConfig::default());
    cfg
}

#[test]
fn faulted_run_same_seed_same_digest() {
    // Same seed + same FaultPlan => identical digest. Fault injection must
    // be part of the deterministic schedule, not a side channel.
    let (first, second) = double_run(|h| {
        let res = run_experiment(faulted_config(26));
        assert!(res.injected_faults > 0, "the plan must actually fire");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "faulted runs from seed 26 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn faulted_trace_is_byte_identical_and_marks_faults() {
    let run = || {
        let res = run_experiment(faulted_config(27));
        (res.trace.export_chrome_json(), res.trace.report_text())
    };
    let (json_a, report_a) = run();
    let (json_b, report_b) = run();
    assert!(
        json_a.contains("fault_start") && json_a.contains("fault_end"),
        "fault activations must appear in the exported trace"
    );
    assert!(
        json_a.contains("\"net_hop\""),
        "per-hop network events must appear in the exported trace"
    );
    assert_eq!(json_a, json_b, "faulted Chrome traces differ between runs");
    assert_eq!(
        report_a, report_b,
        "faulted run reports differ between runs"
    );
}

#[test]
fn empty_fault_plan_leaves_the_run_untouched() {
    // A default (empty) FaultPlan must not perturb RNG forking or event
    // order: the digest with `faults = FaultPlan::default()` explicitly set
    // must equal the digest of a config that never mentions faults.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |cfg: ExperimentConfig| {
        let mut h = Fnv1a::new();
        let res = run_experiment(cfg);
        fold_result(&mut h, &res);
        h.finish()
    };
    let plain = digest_of(config(28, strategy.clone()));
    let mut with_empty_plan = config(28, strategy);
    with_empty_plan.faults = FaultPlan::default();
    assert_eq!(
        plain,
        digest_of(with_empty_plan),
        "an empty fault plan changed the run"
    );
}

#[test]
fn profiling_is_digest_neutral() {
    // mitt-prof is wall-clock-only observation: a profiled run and an
    // unprofiled run from the same seed must produce byte-identical
    // digests (including the exported trace). Profiling may not consume
    // RNG draws, schedule events, or otherwise perturb the engine.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |prof: bool| {
        let mut h = Fnv1a::new();
        let mut cfg = config(29, strategy.clone());
        cfg.prof = prof;
        let res = run_experiment(cfg);
        if prof {
            let report = res.prof.report();
            assert!(report.events_dispatched > 0, "profiler must observe events");
            assert!(report.ios_submitted > 0, "profiler must count IOs");
            assert!(
                report.phases[mittos_repro::prof::Phase::Dispatch as usize].count > 0,
                "dispatch phase timer must fire"
            );
        } else {
            assert!(!res.prof.is_enabled());
        }
        fold_result(&mut h, &res);
        h.finish()
    };
    assert_eq!(
        digest_of(true),
        digest_of(false),
        "enabling the profiler changed the run digest"
    );
}

#[test]
fn profiled_run_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let mut cfg = config(30, Strategy::Base);
        cfg.prof = true;
        let res = run_experiment(cfg);
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "profiled runs from seed 30 diverged: {first:#018x} vs {second:#018x}"
    );
}

/// A generated chaos plan over the striped 6-node topology, at full
/// intensity so correlated scopes and gray windows are all in play.
fn chaos_config(seed: u64) -> ExperimentConfig {
    let topo = Topology::new(6, 3, 2);
    let mut gen_cfg = PlanGenConfig::baseline(topo.catalog());
    gen_cfg.horizon = Duration::from_millis(400);
    let plan = FaultPlanGen::new(seed, gen_cfg).generate();
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.nodes = 6;
    cfg.faults = plan;
    cfg.resilience = Some(ResilienceConfig::default());
    cfg
}

#[test]
fn generated_plan_same_seed_is_byte_identical() {
    // The plan generator is a pure function of its seed and config: two
    // generators built the same way emit digest-identical plans, and a
    // single generator's successive plans differ but replay identically.
    let topo = Topology::new(6, 3, 2);
    let cfg = || PlanGenConfig::baseline(topo.catalog());
    let a = FaultPlanGen::new(31, cfg()).generate();
    let b = FaultPlanGen::new(31, cfg()).generate();
    assert_eq!(a.digest(), b.digest(), "same-seed plans diverged");
    assert_ne!(
        FaultPlanGen::new(31, cfg()).generate().digest(),
        FaultPlanGen::new(32, cfg()).generate().digest(),
        "plan digest is insensitive to the generator seed"
    );
}

#[test]
fn generated_chaos_run_same_seed_same_digest() {
    // End to end through plangen: generator -> correlated + gray windows
    // -> traced cluster run, twice, digest-identical. This is the same
    // identity fig_chaos asserts, pinned here as a tier-1 test.
    let (first, second) = double_run(|h| {
        let res = run_experiment(chaos_config(33));
        assert!(res.injected_faults > 0, "the generated plan must fire");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "generated chaos runs from seed 33 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn tsl_run_same_seed_same_digest() {
    // Timelines, burn-rate alerts, and flight dumps are all derived from
    // the virtual clock: two tsl-enabled chaos runs from the same seed
    // fold to identical digests (tsl state included via fold_result).
    let (first, second) = double_run(|h| {
        let mut cfg = chaos_config(34);
        cfg.tsl = Some(TslConfig::default());
        let res = run_experiment(cfg);
        assert!(res.tsl.is_enabled(), "tsl sink must be wired through");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "tsl-enabled chaos runs from seed 34 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn tsl_is_trace_digest_neutral() {
    // mitt-tsl observes decisions and completions that already happen; it
    // may not consume RNG draws, schedule events, or perturb the trace.
    // Fold everything *except* the tsl state itself: enabled vs disabled
    // must agree byte-for-byte (trace-only observation stays identical).
    let digest_of = |tsl: Option<TslConfig>| {
        let mut h = Fnv1a::new();
        let mut cfg = chaos_config(35);
        cfg.tsl = tsl;
        let res = run_experiment(cfg);
        h.write_u64(res.ops);
        h.write_u64(res.ebusy);
        h.write_u64(res.finished_at.as_nanos());
        h.write_u64_slice(res.get_latencies.samples());
        res.trace.fold_digest(&mut h);
        h.write_str(&res.trace.export_chrome_json());
        h.finish()
    };
    assert_eq!(
        digest_of(Some(TslConfig::default())),
        digest_of(None),
        "enabling mitt-tsl changed the run digest"
    );
}

#[test]
fn tsl_export_and_flight_dumps_are_byte_identical_across_runs() {
    // The mitt-tsl/v1 export and every flight-recorder dump digest are
    // part of the determinism contract: a seeded chaos plan replayed from
    // scratch reproduces them byte-for-byte.
    let run = || {
        let mut cfg = chaos_config(36);
        cfg.trace = true;
        cfg.tsl = Some(TslConfig {
            window: Duration::from_millis(20),
            ..TslConfig::default()
        });
        run_experiment(cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.tsl.export_json(),
        b.tsl.export_json(),
        "same-seed mitt-tsl/v1 exports diverged"
    );
    let da = a.tsl.flight_dumps();
    let db = b.tsl.flight_dumps();
    assert_eq!(da.len(), db.len());
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.digest(), y.digest(), "flight dump {} diverged", x.id);
    }
}

#[test]
fn different_seed_different_digest() {
    // Sanity check that the digest actually covers the run: if it never
    // changed, same_seed_same_digest would pass vacuously.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |seed: u64| {
        let mut h = Fnv1a::new();
        let res = run_experiment(config(seed, strategy.clone()));
        fold_result(&mut h, &res);
        h.finish()
    };
    assert_ne!(
        digest_of(21),
        digest_of(22),
        "digest is insensitive to the seed; it cannot be covering the run"
    );
}

/// A via-cache mmap B-tree cluster (MittCache path) with swap-out bursts
/// on node 0, so addrcheck'd walks hit swapped pages and EBUSY.
fn btree_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::cached_disk(),
        Strategy::MittOs {
            deadline: Duration::from_micros(100),
        },
    );
    cfg.seed = seed;
    cfg.ops_per_client = 120;
    cfg.record_count = 20_000;
    cfg.mmap_btree = Some(BtreeConfig {
        fanout: 64,
        ..BtreeConfig::default()
    });
    cfg.preload_cache = true;
    cfg.trace = true;
    let mut schedules = vec![Vec::new(); cfg.nodes];
    schedules[0] = (0..400)
        .map(|i| NoiseBurst {
            start: SimTime::ZERO + Duration::from_millis(100) * i,
            duration: Duration::from_millis(1),
            intensity: 20,
        })
        .collect();
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::CacheSwap,
        schedules,
    }];
    cfg
}

/// Digests pinned across commits, not just across two runs of one build:
/// a refactor that drops, duplicates or reorders a single trace emit,
/// counter bump or timeline record changes one of these. Every config runs
/// with trace and tsl on, and together they cover each component that
/// observes a decision: CFQ disk (Base and MittCFQ), noop disk (MittNoop),
/// SSD (MittSSD), the LSM engine, the mmap B-tree (MittCache) and the
/// faulted run (predictor bias, breakers, backoff). The MittCFQ run also
/// profiles, pinning that profiling stays digest-neutral. The remaining
/// strategies, and crash plans under the duplicate-request strategies, pin
/// the late-reply paths: hedge and clone losers, tied cancels, timed-out
/// tries and crash-orphaned tries that still reach their op after it is
/// done.
///
/// A deliberate behaviour change updates these constants in the same
/// commit and says why; an observability refactor must never touch them.
#[test]
fn golden_digests_are_pinned_across_commits() {
    let mittos = |ms: u64| Strategy::MittOs {
        deadline: Duration::from_millis(ms),
    };
    let noop = || {
        let mut cfg = config(41, mittos(15));
        cfg.node_cfg = NodeConfig::disk_noop();
        cfg
    };
    let ssd = || {
        let mut cfg = ssd_config(41);
        cfg.strategy = Strategy::MittOs {
            deadline: Duration::from_micros(300),
        };
        cfg
    };
    // Small high-priority noise IOs are served ahead of queued deadline
    // IOs, so MittCFQ bump-cancels some of them after admission.
    let cfq_bumped_profiled = || {
        let mut cfg = config(41, mittos(30));
        cfg.clients = 8;
        cfg.think_time = Duration::from_millis(3);
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 4096,
                class: IoClass::BestEffort,
                priority: 0,
            },
            schedules: rotating_schedule(
                3,
                Duration::from_millis(300),
                Duration::from_secs(600),
                8,
            ),
        }];
        cfg.prof = true;
        cfg
    };
    // A generated plan with most extra windows crashing a node, so tries
    // are orphaned mid-IO and answered by the failure detector.
    let crashy = |strategy: Strategy| {
        let topo = Topology::new(6, 3, 2);
        let mut gen_cfg = PlanGenConfig::baseline(topo.catalog());
        gen_cfg.horizon = Duration::from_millis(600);
        gen_cfg.crash_pct = 80;
        gen_cfg.gray_pct = 10;
        let mut cfg = config(41, strategy);
        cfg.nodes = 6;
        cfg.faults = FaultPlanGen::new(41, gen_cfg).generate();
        cfg
    };
    let hedged = || Strategy::Hedged {
        after: Duration::from_millis(13),
    };
    let tied = || Strategy::Tied {
        delay: Duration::from_millis(1),
    };
    let nosql = |failover: bool| Strategy::NosqlProfile {
        timeout: Duration::from_millis(30),
        failover,
    };
    // (name, config, what the run must show, pinned digest). The path
    // marker proves the run took the decision path it is meant to pin: a
    // trace counter, or `retries` / `errors` for the timeout paths, which
    // have none. Clone, Tied, Snitch and C3 have no marker of their own.
    let cases: [(&str, ExperimentConfig, Option<&str>, u64); 20] = [
        (
            "cfq_base",
            config(41, Strategy::Base),
            Some("mittcfq.admit"),
            0xbc93ac3ad1a6ff5c,
        ),
        (
            "cfq_bumped_prof",
            cfq_bumped_profiled(),
            Some("mittcfq.bumped"),
            0x1a7fe76064afb6e7,
        ),
        ("noop", noop(), Some("mittnoop.reject"), 0xbe5c2b8920a25bae),
        ("ssd", ssd(), Some("mittssd.reject"), 0xab989659fe49f0c2),
        (
            "lsm",
            lsm_config(41),
            Some("mittcfq.reject"),
            0x627cbbe069d14fc3,
        ),
        (
            "btree_cache",
            btree_config(41),
            Some("mittcache.reject"),
            0x841dd7bdf319df1f,
        ),
        (
            "faulted",
            faulted_config(41),
            Some("attr.fault_window"),
            0x8f303af0fa7481b6,
        ),
        (
            "apptimeout",
            config(
                41,
                Strategy::AppTimeout {
                    timeout: Duration::from_millis(13),
                },
            ),
            Some("retries"),
            0x6a9144e9b240b495,
        ),
        (
            "clone",
            config(41, Strategy::Clone2),
            None,
            0x7a53cbacd056ffe2,
        ),
        (
            "hedged",
            config(41, hedged()),
            Some("cluster.hedge"),
            0xeca460d499daee3c,
        ),
        ("tied", config(41, tied()), None, 0xebf7ae7ea117a6e6),
        (
            "snitch",
            config(41, Strategy::Snitch { alpha: 0.3 }),
            None,
            0xcb134df17becba57,
        ),
        ("c3", config(41, Strategy::C3), None, 0x0116c1481538d266),
        (
            "mittos_wait",
            config(
                41,
                Strategy::MittOsWait {
                    deadline: Duration::from_millis(10),
                },
            ),
            Some("cluster.failover"),
            0x00e79c6e35416aed,
        ),
        (
            "mittos_auto",
            config(
                41,
                Strategy::MittOsAuto {
                    initial: Duration::from_millis(15),
                },
            ),
            Some("cluster.failover"),
            0x6953fb35adcad3a7,
        ),
        (
            "nosql_failover",
            config(41, nosql(true)),
            Some("retries"),
            0xe78ea44c77e68f8d,
        ),
        (
            "nosql_error",
            config(41, nosql(false)),
            Some("errors"),
            0x1c52c7773c2d17cd,
        ),
        (
            "crash_hedged",
            crashy(hedged()),
            Some("cluster.crash_detected"),
            0x8b64a4144eed612d,
        ),
        (
            "crash_clone",
            crashy(Strategy::Clone2),
            Some("cluster.crash_detected"),
            0xdd80cbf74c78fa7e,
        ),
        (
            "crash_tied",
            crashy(tied()),
            Some("cluster.crash_detected"),
            0x26be3e659ea3a470,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, mut cfg, fired, want) in cases {
        cfg.trace = true;
        cfg.tsl = Some(TslConfig::default());
        let res = run_experiment(cfg);
        if let Some(fired) = fired {
            let count = match fired {
                "retries" => res.retries,
                "errors" => res.errors,
                counter => res.trace.metrics().counter_total(counter),
            };
            assert!(count > 0, "{name}: {fired} never fired");
        }
        let mut h = Fnv1a::new();
        fold_result(&mut h, &res);
        let got = h.finish();
        if got != want {
            mismatches.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
