//! Per-layer call timing: direct calls into each layer's public functions,
//! with inputs shaped like the workload's.
//!
//! The harness has no dependencies. Each measurement first grows a batch
//! until it takes at least a target time (which doubles as the warm-up),
//! then times `SAMPLES` batches and reports the median per call. Inputs and
//! results pass through [`black_box`] so the work cannot be precomputed.

use std::hint::black_box;

use mitt_cluster::{BtreeConfig, BtreePlanner, Node, NodeConfig, ReadOutcome, ReadReq};
use mitt_device::{BlockIo, Disk, DiskSpec, IoClass, IoIdGen, ProcessId, Ssd, SsdSpec, GB};
use mitt_lsm::{LsmConfig, LsmEngine};
use mitt_oscache::{PageCache, PageCacheConfig, PageState};
use mitt_sched::{Cfq, CfqConfig, DiskScheduler};
use mitt_sim::{Duration, EventQueue, SimRng, SimTime};
use mitt_workload::{KeyDist, YcsbConfig, YcsbGenerator};
use mittos::{DiskProfile, MittCfq, MittSsd, SsdProfile, DEFAULT_HOP};

use crate::host::{median, wall_ns};
use crate::metrics::Metric;
use crate::workloads::{Stack, Workload, NOISE_HORIZON};

/// Timed batches per measurement.
pub const SAMPLES: usize = 15;

/// Default minimum batch duration, ns.
const BATCH: u64 = 500_000;

/// Median nanoseconds per call of `f`, over [`SAMPLES`] batches each lasting
/// at least `target_ns`.
pub fn per_call_ns(target_ns: u64, mut f: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let t = wall_ns();
        for _ in 0..batch {
            f();
        }
        if wall_ns() - t >= target_ns || batch >= 1 << 26 {
            break;
        }
        batch *= 2;
    }
    let per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = wall_ns();
            for _ in 0..batch {
                f();
            }
            (wall_ns() - t) as f64 / batch as f64
        })
        .collect();
    median(&per_call)
}

/// Median nanoseconds of `f` over `samples` calls, each on state built by
/// an untimed `setup`.
pub fn per_call_with_setup<S, R>(
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> R,
) -> f64 {
    let mut times = Vec::with_capacity(samples);
    // One untimed call warms caches and the allocator.
    black_box(f(setup()));
    for _ in 0..samples {
        let s = setup();
        let t = wall_ns();
        black_box(f(s));
        times.push((wall_ns() - t) as f64);
    }
    median(&times)
}

/// A cheap deterministic offset stream over the disk's usable space.
fn offsets(seed: u64) -> impl FnMut() -> u64 {
    let mut rng = SimRng::new(seed);
    move || rng.range_u64(0, 900 * GB / 4096) * 4096
}

/// Every call timing for workload `w`. `peak_queue` is the deepest event
/// calendar the traced run reached.
pub fn measure(w: &Workload, peak_queue: usize) -> Vec<Metric> {
    let mut out = vec![
        Metric::new("sim.event_queue_ns", "ns", event_queue_ns(peak_queue))
            .note(format!("schedule+pop at depth {peak_queue}")),
    ];
    for p in [1u32, 16, 128] {
        out.push(
            Metric::new(
                format!("core.mittcfq_predicted_wait_ns.p{p}"),
                "ns",
                predicted_wait_ns(p),
            )
            .note(format!("{p} processes, 4 queued IOs each")),
        );
    }
    out.push(Metric::new(
        "core.mittssd_admit_ns",
        "ns",
        mittssd_admit_ns(),
    ));
    out.push(
        Metric::new("sched.cfq_cycle_ns", "ns", cfq_cycle_ns())
            .note("per IO: enqueue, dispatch and complete 32 IOs of 4 processes"),
    );
    out.push(Metric::new(
        "device.disk_service_ns",
        "ns",
        disk_service_ns(),
    ));
    out.push(Metric::new("device.ssd_submit_ns", "ns", ssd_submit_ns()));
    out.extend(cache_calls(w));
    out.extend(lsm_calls(w));
    let node_cfg = w.config(1, 1).node_cfg;
    out.push(Metric::new(
        "cluster.node_new_ms",
        "ms",
        per_call_with_setup(
            5,
            || (node_cfg.clone(), SimRng::new(7)),
            |(cfg, mut rng)| Node::new(0, cfg, &mut rng),
        ) / 1e6,
    ));
    out.push(
        Metric::new("cluster.reject_path_ns", "ns", reject_path_ns(w))
            .note("Node::submit_read returning EBUSY on a loaded node"),
    );
    let planner = BtreePlanner::new(BtreeConfig::default(), w.records);
    let mut key = 0u64;
    out.push(Metric::new(
        "cluster.btree_touches_ns",
        "ns",
        per_call_ns(BATCH, || {
            key = (key + 104_729) % w.records;
            black_box(planner.touches(black_box(key)));
        }),
    ));
    let cfg = w.config(1, 1);
    let ycsb = YcsbGenerator::new(YcsbConfig {
        record_count: w.records,
        value_size: cfg.read_len,
        read_fraction: 1.0 - cfg.write_fraction,
        key_dist: KeyDist::Zipfian { theta: 0.99 },
    });
    let mut rng = SimRng::new(11);
    out.push(Metric::new(
        "workload.ycsb_next_ns",
        "ns",
        per_call_ns(BATCH, || {
            black_box(ycsb.next_op(&mut rng));
        }),
    ));
    let gen = w.noise_gen();
    out.push(
        Metric::new(
            "workload.noise_gen_ms",
            "ms",
            per_call_with_setup(
                5,
                || SimRng::new(13),
                |mut r| gen.generate(NOISE_HORIZON, &mut r),
            ) / 1e6,
        )
        .note("one node's schedule over the 3600 s horizon"),
    );
    out
}

fn event_queue_ns(depth: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::new(3);
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_nanos(rng.range_u64(0, 10_000_000)), i);
    }
    per_call_ns(BATCH, || {
        let (at, ev) = q.pop().expect("queue never drains");
        let delay = Duration::from_nanos(rng.range_u64(1, 10_000_000));
        q.schedule(at + delay, black_box(ev));
    })
}

fn predicted_wait_ns(processes: u32) -> f64 {
    let mut mitt = MittCfq::new(DiskProfile::from_spec(&DiskSpec::default()), DEFAULT_HOP);
    let mut ids = IoIdGen::new();
    for i in 0..processes * 4 {
        let io = BlockIo::read(
            ids.next_id(),
            u64::from(i) * 1_000_000,
            4096,
            ProcessId(i % processes),
            SimTime::ZERO,
        );
        mitt.account(&io, SimTime::ZERO);
    }
    per_call_ns(BATCH, || {
        black_box(mitt.predicted_wait(
            IoClass::BestEffort,
            4,
            black_box(ProcessId(0)),
            SimTime::ZERO,
        ));
    })
}

fn mittssd_admit_ns() -> f64 {
    let spec = SsdSpec::default();
    let mut mitt = MittSsd::new(&spec, SsdProfile::from_spec(&spec), DEFAULT_HOP);
    let mut ids = IoIdGen::new();
    let mut lpn = 0u64;
    per_call_ns(BATCH, || {
        lpn = (lpn + 1) % 100_000;
        let io = BlockIo::read(
            ids.next_id(),
            lpn * u64::from(spec.page_size),
            4096,
            ProcessId(1),
            SimTime::ZERO,
        )
        .with_deadline(Duration::from_millis(100));
        black_box(mitt.admit(black_box(&io), SimTime::ZERO));
        mitt.on_complete_sub(io.id, 0, spec.read_page, spec.chip_of_page(lpn));
    })
}

fn cfq_cycle_ns() -> f64 {
    const IOS: u64 = 32;
    let per_cycle = per_call_with_setup(
        200,
        || {
            (
                Cfq::new(CfqConfig::default()),
                Disk::new(DiskSpec::default(), SimRng::new(1)),
                IoIdGen::new(),
            )
        },
        |(mut sched, mut disk, mut ids)| {
            let mut tick = None;
            for i in 0..IOS {
                let io = BlockIo::read(
                    ids.next_id(),
                    i * 10_000_000,
                    4096,
                    ProcessId((i % 4) as u32),
                    SimTime::ZERO,
                );
                tick = tick.or(sched.enqueue(io, &mut disk, SimTime::ZERO).started);
            }
            let mut t = tick.expect("idle disk starts the first IO");
            let mut done = 1;
            while let Ok((_, out)) = sched.on_complete(&mut disk, t.done_at) {
                match out.started {
                    Some(next) => {
                        t = next;
                        done += 1;
                    }
                    None => break,
                }
            }
            assert_eq!(done, IOS, "every queued IO completes");
        },
    );
    per_cycle / IOS as f64
}

fn disk_service_ns() -> f64 {
    let mut disk = Disk::new(DiskSpec::default(), SimRng::new(5));
    let mut ids = IoIdGen::new();
    let mut next = offsets(5);
    let mut now = SimTime::ZERO;
    per_call_ns(BATCH, || {
        let io = BlockIo::read(ids.next_id(), next(), 4096, ProcessId(1), now);
        let started = disk
            .submit(io, now)
            .expect("an idle disk has room")
            .expect("an idle disk starts the IO");
        now = started.done_at;
        black_box(disk.complete(now).expect("the IO is in flight"));
    })
}

fn ssd_submit_ns() -> f64 {
    let spec = SsdSpec::default();
    let mut ssd = Ssd::new(spec.clone(), SimRng::new(9));
    let mut ids = IoIdGen::new();
    let mut next = offsets(9);
    let mut now = SimTime::ZERO;
    per_call_ns(BATCH, || {
        let io = BlockIo::read(ids.next_id(), next() % (64 * GB), 4096, ProcessId(1), now);
        let out = ssd.submit(black_box(&io), now);
        for sub in &out.subs {
            ssd.complete_sub(sub.channel, sub.done_at);
            now = now.max(sub.done_at);
        }
    })
}

/// Pages the workload keeps cached: the B-tree file for `cache_btree`,
/// otherwise one page per record up to the cache's capacity.
fn cache_pages(w: &Workload) -> u64 {
    let capacity = PageCacheConfig::default().capacity_pages as u64;
    match w.stack {
        Stack::CacheBtree => {
            BtreePlanner::new(BtreeConfig::default(), w.records).file_size() / 4096
        }
        _ => w.records.min(capacity),
    }
}

fn cache_calls(w: &Workload) -> Vec<Metric> {
    let pages = cache_pages(w);
    let mut cache = PageCache::new(PageCacheConfig::default());
    for p in 0..pages {
        cache.insert_range(p * 4096, 4096);
    }
    let mut page = 0u64;
    let addrcheck = per_call_ns(BATCH, || {
        page = (page + 7_919) % pages;
        black_box(cache.addrcheck(black_box(page * 4096), 4096));
    });
    let mut rng = SimRng::new(17);
    let mut swaps = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = wall_ns();
        black_box(cache.swap_out_fraction(0.10, &mut rng));
        swaps.push((wall_ns() - t) as f64);
        for p in 0..pages {
            if cache.page_state(p) == PageState::SwappedOut {
                cache.insert_range(p * 4096, 4096);
            }
        }
    }
    let mut fresh = pages;
    let insert = per_call_ns(BATCH, || {
        black_box(cache.insert_range(black_box(fresh * 4096), 4096));
        fresh += 1;
    });
    vec![
        Metric::new("cache.addrcheck_ns", "ns", addrcheck).note(format!("{pages} resident pages")),
        Metric::new("cache.swap_out_ms", "ms", median(&swaps) / 1e6)
            .note(format!("swap out 10% of {pages} pages")),
        Metric::new("cache.insert_range_ns", "ns", insert).note("one new 4 KiB page"),
    ]
}

fn lsm_calls(w: &Workload) -> Vec<Metric> {
    let cfg = LsmConfig {
        keyspace: w.records,
        ..LsmConfig::default()
    };
    let mut engine = LsmEngine::preloaded(cfg.clone());
    let mut key = 0u64;
    let get_plan = per_call_ns(BATCH, || {
        key = (key + 7_919) % w.records;
        black_box(engine.get_plan(black_box(key)));
    });
    let mut engine = LsmEngine::preloaded(cfg);
    let mut key = 0u64;
    // Batches long enough to span several flushes and compactions.
    let put = per_call_ns(20_000_000, || {
        key = (key + 104_729) % w.records;
        black_box(engine.put(black_box(key), 4096));
        while let Some(job) = engine.maybe_compact() {
            black_box(job);
        }
    });
    vec![
        Metric::new("lsm.get_plan_ns", "ns", get_plan).note(format!("{} records", w.records)),
        Metric::new("lsm.put_ns", "ns", put).note("flush and compaction amortised"),
    ]
}

fn reject_path_ns(w: &Workload) -> f64 {
    let cfg = w.config(1, 1);
    let node_cfg: NodeConfig = cfg.node_cfg;
    let ssd = w.stack == Stack::Ssd;
    let mut node = Node::new(0, node_cfg, &mut SimRng::new(19));
    let mut next = offsets(19);
    let req = |offset: u64| {
        let r = ReadReq::client(offset % (64 * GB), 4096, ProcessId(1));
        if ssd {
            r.on_ssd()
        } else {
            r
        }
    };
    // Queue enough deadline-less IO that any deadline-carrying read would
    // wait far past its deadline plus the failover hop.
    for _ in 0..if ssd { 8192 } else { 256 } {
        node.submit_read(&req(next()), SimTime::ZERO);
    }
    let deadline = Duration::from_micros(1);
    let probe = node.submit_read(&req(next()).with_deadline(deadline), SimTime::ZERO);
    assert!(
        matches!(probe.outcome, ReadOutcome::Busy { .. }),
        "the loaded node rejects"
    );
    per_call_ns(BATCH, || {
        let r = req(next()).with_deadline(deadline);
        black_box(node.submit_read(black_box(&r), SimTime::ZERO));
    })
}
