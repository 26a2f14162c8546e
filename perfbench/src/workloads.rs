//! The four benchmark workloads, built from the simulator's public
//! configuration surface only.
//!
//! Every workload is a healthy 20-node cluster driven by closed-loop YCSB
//! clients: each client issues its next user request `think` after the
//! previous one completed. Base runs first; MittOS then runs with Base's
//! get p95 as its deadline (except `cache_btree`, which keeps fig7's
//! 100 µs MittCache deadline).

use mitt_bench::setups;
use mitt_cluster::{
    BtreeConfig, ExperimentConfig, Medium, NodeConfig, NoiseKind, NoiseStream, Strategy,
};
use mitt_lsm::LsmConfig;
use mitt_sim::{Duration, SimRng};
use mitt_workload::NoiseGen;

/// Length of every noise schedule. A run whose virtual end falls past it
/// would lose its noise silently, so the output checks reject that.
pub const NOISE_HORIZON: Duration = Duration::from_secs(3600);

/// Nodes in every workload's cluster.
pub const NODES: usize = 20;

/// Which layer stack a workload exercises (selects the per-layer call
/// shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// CFQ-scheduled disk nodes with MittCFQ.
    DiskCfq,
    /// SSD nodes with MittSSD.
    Ssd,
    /// LSM engines over CFQ disks.
    Lsm,
    /// Page-cache-fronted disks with MittCache and an mmap B-tree.
    CacheBtree,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// The layer stack it drives.
    pub stack: Stack,
    /// Closed-loop clients.
    pub clients: usize,
    /// Think time between a client's user requests.
    pub think: Duration,
    /// User requests per client in one run.
    pub ops_per_client: usize,
    /// Independent runs (sub-seeds) whose samples are pooled.
    pub subruns: usize,
    /// Parallel gets per user request.
    pub scale_factor: usize,
    /// Keyspace size.
    pub records: u64,
    /// Fixed MittOS deadline; `None` uses Base's get p95.
    pub fixed_deadline: Option<Duration>,
}

/// fig7's swap-out schedule: dense enough that every run spans many
/// ballooning episodes.
fn fig7_swap_gen() -> NoiseGen {
    NoiseGen {
        burst_median: Duration::from_millis(100),
        burst_sigma: 0.3,
        burst_cap: Duration::from_millis(500),
        gap_mean: Duration::from_millis(1500),
        intensity_weights: vec![(5, 0.4), (10, 0.3), (20, 0.3)],
    }
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "disk_cfq_ec2",
        why: "fig5: MittCFQ over CFQ disks under EC2 disk noise, flat single-IO gets",
        stack: Stack::DiskCfq,
        clients: 20,
        think: Duration::from_millis(10),
        ops_per_client: 2000,
        subruns: 16,
        scale_factor: 1,
        records: 2_000_000,
        fixed_deadline: None,
    },
    Workload {
        name: "ssd_fanout",
        why: "MittSSD chip/channel admission under SSD write bursts, 5-way fan-out per request",
        stack: Stack::Ssd,
        clients: 20,
        think: Duration::from_millis(10),
        ops_per_client: 3000,
        subruns: 4,
        scale_factor: 5,
        records: 2_000_000,
        fixed_deadline: None,
    },
    Workload {
        name: "lsm_mixed",
        why: "fig13: LSM lookup plans, 5% puts with flush and compaction IO over CFQ disks",
        stack: Stack::Lsm,
        clients: 20,
        think: Duration::from_millis(10),
        ops_per_client: 2000,
        subruns: 24,
        scale_factor: 1,
        records: 1_000_000,
        fixed_deadline: None,
    },
    Workload {
        name: "cache_btree",
        why: "fig7: mmap B-tree walks through the page cache with MittCache under swap-out noise",
        stack: Stack::CacheBtree,
        clients: 20,
        think: Duration::from_millis(5),
        ops_per_client: 2000,
        subruns: 10,
        scale_factor: 1,
        records: 60_000,
        fixed_deadline: Some(Duration::from_micros(100)),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The Base configuration at `ops_per_client` user requests per client.
    pub fn config(&self, seed: u64, ops_per_client: usize) -> ExperimentConfig {
        let node_cfg = match self.stack {
            Stack::DiskCfq | Stack::Lsm => NodeConfig::disk_cfq(),
            Stack::Ssd => NodeConfig::ssd(),
            Stack::CacheBtree => NodeConfig::cached_disk(),
        };
        let mut cfg = ExperimentConfig::cluster20(node_cfg, Strategy::Base);
        cfg.seed = seed;
        cfg.nodes = NODES;
        cfg.clients = self.clients;
        cfg.ops_per_client = ops_per_client;
        cfg.think_time = self.think;
        cfg.scale_factor = self.scale_factor;
        cfg.record_count = self.records;
        cfg.noise = vec![self.noise(seed)];
        match self.stack {
            Stack::DiskCfq => {}
            Stack::Ssd => cfg.medium = Medium::Ssd,
            Stack::Lsm => {
                cfg.write_fraction = 0.05;
                cfg.engine = Some(LsmConfig::default());
            }
            Stack::CacheBtree => {
                cfg.mmap_btree = Some(BtreeConfig::default());
                cfg.preload_cache = true;
            }
        }
        cfg
    }

    /// The generator behind the workload's per-node noise schedules.
    pub fn noise_gen(&self) -> NoiseGen {
        match self.stack {
            Stack::DiskCfq | Stack::Lsm => NoiseGen::ec2_disk(),
            Stack::Ssd => NoiseGen::ec2_ssd(),
            Stack::CacheBtree => fig7_swap_gen(),
        }
    }

    fn noise(&self, seed: u64) -> NoiseStream {
        match self.stack {
            Stack::DiskCfq | Stack::Lsm => setups::ec2_disk_noise(NODES, NOISE_HORIZON, seed),
            Stack::Ssd => setups::ec2_ssd_noise(NODES, NOISE_HORIZON, seed),
            Stack::CacheBtree => {
                let gen = fig7_swap_gen();
                let mut rng = SimRng::new(seed ^ 0x7CA);
                NoiseStream {
                    kind: NoiseKind::CacheSwap,
                    schedules: (0..NODES)
                        .map(|_| {
                            let mut r = rng.fork();
                            gen.generate(NOISE_HORIZON, &mut r)
                        })
                        .collect(),
                }
            }
        }
    }

    /// The seed of sub-run `k` of a run seeded `seed`.
    pub fn subrun_seed(seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(0x0100_0000_01B3) ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The MittOS strategy for a run whose Base get p95 was `base_p95`.
    pub fn mittos(&self, base_p95: Duration) -> Strategy {
        Strategy::MittOs {
            deadline: self.fixed_deadline.unwrap_or(base_p95),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in ALL {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert_eq!(ALL.iter().filter(|x| x.name == w.name).count(), 1);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn configs_cover_every_node_with_noise() {
        for w in ALL {
            let cfg = w.config(3, 10);
            assert_eq!(cfg.nodes, NODES);
            assert_eq!(cfg.noise.len(), 1);
            assert_eq!(cfg.noise[0].schedules.len(), NODES);
            assert!(cfg.noise[0].schedules.iter().all(|s| !s.is_empty()));
        }
    }
}
