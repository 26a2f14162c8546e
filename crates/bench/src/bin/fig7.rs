//! Figure 7: MittCache vs Hedged on a 20-node cluster whose working set
//! lives in the OS cache, with swap-out (ballooning) noise.
//!
//! `--bench-json BENCH_fig7.json` writes the scale-factor-1 MittCache,
//! Hedged and Base rows; `--baseline <file>` compares against a committed
//! baseline and exits 1 on regression (see `mitt-obs`).

use mitt_bench::{bench_json, ops_from_env, print_cdf, reduction_at, trace_flag};
use mitt_cluster::{ExperimentConfig, NodeConfig, NoiseKind, NoiseStream, Strategy};
use mitt_obs::{BenchReport, StrategyRow};
use mitt_sim::{Duration, LatencyRecorder, SimRng};
use mitt_workload::NoiseGen;

/// Swap-out noise dense enough that every run spans many ballooning
/// episodes (the paper swaps out P% per the Fig 3c miss rates; we re-swap
/// periodically because reads naturally refill the cache).
fn swap_noise(nodes: usize, seed: u64) -> NoiseStream {
    let gen = NoiseGen {
        burst_median: Duration::from_millis(100),
        burst_sigma: 0.3,
        burst_cap: Duration::from_millis(500),
        gap_mean: Duration::from_millis(1500),
        intensity_weights: vec![(5, 0.4), (10, 0.3), (20, 0.3)],
    };
    let mut rng = SimRng::new(seed ^ 0x7CA);
    NoiseStream {
        kind: NoiseKind::CacheSwap,
        schedules: (0..nodes)
            .map(|_| {
                let mut r = rng.fork();
                gen.generate(Duration::from_secs(3600), &mut r)
            })
            .collect(),
    }
}

fn cfg_for(strategy: Strategy, ops: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cluster20(NodeConfig::cached_disk(), strategy);
    cfg.seed = seed;
    cfg.ops_per_client = ops;
    // MongoDB's mmap path: every get walks the B-tree with addrcheck per
    // page dereference (§5).
    cfg.mmap_btree = Some(mitt_cluster::BtreeConfig::default());
    cfg.preload_cache = true;
    cfg.record_count = 60_000;
    cfg.think_time = Duration::from_millis(5);
    cfg.noise = vec![swap_noise(20, seed)];
    cfg
}

fn main() {
    let ops = ops_from_env(400);
    let seed = 7;

    // Hedge threshold: measured p95 of Base (sub-ms; everything cached).
    let mut base_probe = trace_flag()
        .run(cfg_for(Strategy::Base, ops, seed))
        .get_latencies;
    let p95 = base_probe.percentile(95.0);
    println!(
        "# Fig 7 setup: cached working set, swap-out noise; Base p95 = {:.3}ms",
        p95.as_millis_f64()
    );

    let deadline = Duration::from_micros(100); // "I expect memory residency"
    let mut report = BenchReport::new("fig7", seed, ops as u64);
    let mut sf_results: Vec<(usize, LatencyRecorder, LatencyRecorder)> = Vec::new();
    for sf in [1usize, 2, 5, 10] {
        let mk = |strategy: Strategy| {
            let mut cfg = cfg_for(strategy, ops, seed);
            cfg.scale_factor = sf;
            trace_flag().run(cfg)
        };
        let mut mitt = mk(Strategy::MittOs { deadline });
        let mut hedged = mk(Strategy::Hedged { after: p95 });
        if sf == 1 {
            let mut base = mk(Strategy::Base);
            for (name, res) in [
                ("MittCache", &mut mitt),
                ("Hedged", &mut hedged),
                ("Base", &mut base),
            ] {
                report.strategies.push(StrategyRow::from_result(name, res));
            }
            let mut series = vec![
                ("MittCache", mitt.user_latencies.clone()),
                ("Hedged", hedged.user_latencies.clone()),
                ("Base", base.user_latencies),
            ];
            print_cdf("Fig 7a: latency CDF, scale factor 1", &mut series, 41);
        }
        sf_results.push((sf, mitt.user_latencies, hedged.user_latencies));
    }

    println!("\n## Fig 7b: % latency reduction of MittCache vs Hedged by scale factor");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "SF", "Avg", "p75", "p90", "p95", "p99"
    );
    for (sf, mitt, hedged) in sf_results.iter_mut() {
        print!("{sf:>6}");
        for p in [-1.0, 75.0, 90.0, 95.0, 99.0] {
            print!(" {:>8.1}", reduction_at(hedged, mitt, p));
        }
        println!();
    }
    println!("\n# Expected shape: MittCache removes the swapped-out tail; reductions grow");
    println!("# with percentile and scale factor (small/negative values possible at low");
    println!("# percentiles where network latency dominates, as the paper notes).");

    bench_json().finish_or_exit(&report);
}
