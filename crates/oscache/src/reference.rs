//! Differential test of [`PageCache`] against a reference model.
//!
//! [`StampCache`] keeps the same exact LRU the plain way: a page -> stamp
//! map, a stamp -> page map giving eviction order, and a set of pages ever
//! loaded. Seeded op sequences drive both caches, and every observable
//! must agree after every op.

#![cfg(test)]

use std::collections::{BTreeMap, HashMap, HashSet};

use mitt_sim::{Duration, SimRng};

use super::{PageCache, PageCacheConfig, PageState, RangeCheck};

/// Exact LRU kept as stamp maps.
struct StampCache {
    cfg: PageCacheConfig,
    /// page -> LRU stamp.
    pages: HashMap<u64, u64>,
    /// LRU stamp -> page (oldest first).
    order: BTreeMap<u64, u64>,
    /// Pages that have ever been resident.
    ever_resident: HashSet<u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl StampCache {
    fn new(cfg: PageCacheConfig) -> Self {
        StampCache {
            cfg,
            pages: HashMap::new(),
            order: BTreeMap::new(),
            ever_resident: HashSet::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn pages_of(&self, offset: u64, len: u32) -> std::ops::RangeInclusive<u64> {
        let ps = u64::from(self.cfg.page_size);
        (offset / ps)..=((offset + u64::from(len).max(1) - 1) / ps)
    }

    fn page_state(&self, page: u64) -> PageState {
        if self.pages.contains_key(&page) {
            PageState::Resident
        } else if self.ever_resident.contains(&page) {
            PageState::SwappedOut
        } else {
            PageState::NeverLoaded
        }
    }

    fn bump(&mut self, page: u64) {
        if let Some(old) = self.pages.get(&page).copied() {
            self.order.remove(&old);
        }
        self.stamp += 1;
        self.pages.insert(page, self.stamp);
        self.order.insert(self.stamp, page);
    }

    fn evict_lru(&mut self) -> Option<u64> {
        let (&stamp, &page) = self.order.iter().next()?;
        self.order.remove(&stamp);
        self.pages.remove(&page);
        Some(page)
    }

    fn addrcheck(&self, offset: u64, len: u32) -> RangeCheck {
        let mut missing = Vec::new();
        let mut contended = false;
        for page in self.pages_of(offset, len) {
            match self.page_state(page) {
                PageState::Resident => {}
                PageState::NeverLoaded => missing.push(page),
                PageState::SwappedOut => {
                    contended = true;
                    missing.push(page);
                }
            }
        }
        RangeCheck {
            resident: missing.is_empty(),
            contended,
            missing_pages: missing,
        }
    }

    fn access(&mut self, offset: u64, len: u32) -> RangeCheck {
        let check = self.addrcheck(offset, len);
        if check.resident {
            self.hits += 1;
            for page in self.pages_of(offset, len) {
                self.bump(page);
            }
        } else {
            self.misses += 1;
        }
        check
    }

    fn insert_range(&mut self, offset: u64, len: u32) -> Vec<u64> {
        let mut evicted = Vec::new();
        for page in self.pages_of(offset, len) {
            self.ever_resident.insert(page);
            self.bump(page);
            while self.pages.len() > self.cfg.capacity_pages {
                if let Some(e) = self.evict_lru() {
                    evicted.push(e);
                }
            }
        }
        evicted
    }

    fn fadvise_dontneed(&mut self, offset: u64, len: u32) {
        for page in self.pages_of(offset, len) {
            if let Some(stamp) = self.pages.remove(&page) {
                self.order.remove(&stamp);
            }
        }
    }

    fn swap_out_fraction(&mut self, fraction: f64, rng: &mut SimRng) -> usize {
        let n = ((self.pages.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
        let mut all: Vec<u64> = self.pages.keys().copied().collect();
        all.sort_unstable();
        rng.shuffle(&mut all);
        for &page in all.iter().take(n) {
            if let Some(stamp) = self.pages.remove(&page) {
                self.order.remove(&stamp);
            }
        }
        n
    }
}

const PAGE: u64 = 4096;

/// Pages the ops cluster around: both edges of a 512-page leaf, leaves far
/// apart, and page numbers past 2^32.
const BASES: [u64; 8] = [
    0,
    509,
    1_024,
    77_777,
    1 << 20,
    (1 << 32) - 2,
    (1 << 32) + 510,
    3 << 40,
];

/// Pages past a base an op may start at.
const SPREAD: u64 = 8;

/// A random byte range of one to three pages around one of the bases,
/// usually not page-aligned.
fn range(rng: &mut SimRng) -> (u64, u32) {
    let page = BASES[rng.index(BASES.len())] + rng.range_u64(0, SPREAD);
    let offset = page * PAGE + rng.range_u64(0, PAGE);
    let len = u32::try_from(rng.range_u64(1, 2 * PAGE + 1)).expect("len fits u32");
    (offset, len)
}

/// Drives both caches through `ops` seeded ops and compares every
/// observable after each.
fn differential(seed: u64, capacity: usize, ops: usize) {
    let cfg = PageCacheConfig {
        page_size: 4096,
        capacity_pages: capacity,
        hit_latency: Duration::from_micros(20),
    };
    let mut cache = PageCache::new(cfg.clone());
    let mut model = StampCache::new(cfg);
    let mut rng = SimRng::new(seed);
    let (mut evictions, mut swapped) = (0, 0);
    for step in 0..ops {
        let (offset, len) = range(&mut rng);
        match rng.index(10) {
            0..=3 => {
                let evicted = cache.insert_range(offset, len);
                assert_eq!(evicted, model.insert_range(offset, len), "step {step}");
                evictions += evicted.len();
            }
            4..=6 => {
                assert_eq!(
                    cache.access(offset, len),
                    model.access(offset, len),
                    "step {step}"
                );
            }
            7 | 8 => {
                cache.fadvise_dontneed(offset, len);
                model.fadvise_dontneed(offset, len);
            }
            _ => {
                let fraction = rng.unit_f64() * 0.6;
                let swap_seed = rng.next_u64();
                let (mut a, mut b) = (SimRng::new(swap_seed), SimRng::new(swap_seed));
                let n = cache.swap_out_fraction(fraction, &mut a);
                assert_eq!(n, model.swap_out_fraction(fraction, &mut b), "step {step}");
                assert_eq!(a.next_u64(), b.next_u64(), "same draws, step {step}");
                swapped += n;
            }
        }
        let (offset, len) = range(&mut rng);
        assert_eq!(
            cache.addrcheck(offset, len),
            model.addrcheck(offset, len),
            "step {step}"
        );
        assert_eq!(cache.resident_pages(), model.pages.len(), "step {step}");
        assert_eq!(cache.counters(), (model.hits, model.misses), "step {step}");
        for base in BASES {
            for page in base..base + SPREAD + 3 {
                assert_eq!(
                    cache.page_state(page),
                    model.page_state(page),
                    "page {page}, step {step}"
                );
            }
        }
    }
    // Both eviction paths were exercised.
    if capacity < 32 {
        assert!(
            evictions > 0,
            "capacity {capacity} never forced an eviction"
        );
    }
    if capacity > 1 {
        assert!(swapped > 0, "no swap-out ever removed a page");
    }
}

#[test]
fn matches_stamp_model_under_lru_pressure() {
    for seed in 1..=8 {
        differential(seed, 24, 3_000);
    }
}

#[test]
fn matches_stamp_model_with_one_page_of_capacity() {
    differential(9, 1, 2_000);
}

#[test]
fn matches_stamp_model_without_eviction() {
    for seed in 10..=12 {
        differential(seed, 10_000, 3_000);
    }
}

/// Page runs of the large differential test, as (first page, pages): full
/// leaves, a run inside one leaf, runs that start and end mid-leaf, and a
/// run that straddles page 2^32. 22 845 pages over 48 leaves.
const REGIONS: [(u64, u64); 6] = [
    (0, 512 * 16),
    (512 * 20 + 100, 300),
    (512 * 30 + 400, 512 * 8),
    (1 << 20, 512 * 10),
    ((1 << 32) - 700, 512 * 6),
    (3 << 40, 512 * 4 + 17),
];

/// Asserts that every page of every region (and a page either side) has
/// the same state in both caches, and that the resident counts agree.
fn assert_same_pages(cache: &PageCache, model: &StampCache, step: usize) {
    assert_eq!(cache.resident_pages(), model.pages.len(), "step {step}");
    for (first, pages) in REGIONS {
        for page in first.saturating_sub(1)..=first + pages {
            assert_eq!(
                cache.page_state(page),
                model.page_state(page),
                "page {page}, step {step}"
            );
        }
    }
}

/// Swap-outs over ~20 k resident pages, so ranks span hundreds of 64-bit
/// words and dozens of leaves. Fractions cycle through 0.0, 1.0 and random
/// values below 0.6. Full refills (forcing LRU evictions), partial refills
/// and fadvised runs come in between, so leaves emptied by earlier
/// swap-outs and partly filled leaves are both in the table when a
/// swap-out lists the resident pages.
#[test]
fn matches_stamp_model_for_swap_outs_across_many_leaves() {
    let cfg = PageCacheConfig {
        page_size: 4096,
        capacity_pages: 20_000,
        hit_latency: Duration::from_micros(20),
    };
    let mut cache = PageCache::new(cfg.clone());
    let mut model = StampCache::new(cfg);
    let mut rng = SimRng::new(0x5EED);
    // One swap stream per cache, seeded alike; they must stay in step.
    let (mut a, mut b) = (SimRng::new(77), SimRng::new(77));
    let mut evicted = 0;
    let mut refill = |cache: &mut PageCache, model: &mut StampCache, first: u64, pages: u64| {
        let len = u32::try_from(pages * PAGE).expect("refill fits u32");
        let out = cache.insert_range(first * PAGE, len);
        assert_eq!(
            out,
            model.insert_range(first * PAGE, len),
            "refill at {first}"
        );
        evicted += out.len();
    };
    let mut swapped = 0;
    for step in 1..=40 {
        // Every other step starts from a full cache: all regions reloaded,
        // with LRU evictions past 20 000 pages.
        if step % 2 == 1 {
            for (first, pages) in REGIONS {
                refill(&mut cache, &mut model, first, pages);
            }
            assert_eq!(cache.resident_pages(), 20_000);
        }
        let fraction = match step % 5 {
            0 => 0.0,
            3 => 1.0,
            _ => rng.unit_f64() * 0.6,
        };
        let n = cache.swap_out_fraction(fraction, &mut a);
        assert_eq!(n, model.swap_out_fraction(fraction, &mut b), "step {step}");
        assert_eq!(a.clone().next_u64(), b.clone().next_u64(), "step {step}");
        swapped += n;
        assert_same_pages(&cache, &model, step);
        // Refill part of one to three regions.
        for _ in 0..=rng.index(3) {
            let (first, pages) = REGIONS[rng.index(REGIONS.len())];
            let start = first + rng.range_u64(0, pages);
            let len = rng.range_u64(1, first + pages - start + 1);
            refill(&mut cache, &mut model, start, len);
        }
        if rng.chance(0.3) {
            let (first, pages) = REGIONS[rng.index(REGIONS.len())];
            let len = u32::try_from(pages.min(600) * PAGE).expect("fits u32");
            cache.fadvise_dontneed(first * PAGE, len);
            model.fadvise_dontneed(first * PAGE, len);
        }
        assert_same_pages(&cache, &model, step);
    }
    assert!(swapped > 100_000, "swap-outs removed only {swapped} pages");
    assert!(evicted > 0, "no refill forced an LRU eviction");
}
