//! OS page cache model (§4.4): LRU residency, mmap address checks,
//! fadvise-driven eviction, and swap pressure.
//!
//! MittCache's job is cheap: it walks existing buffer/page tables to decide
//! whether a `read()`/`addrcheck()` can be served from memory within the
//! SLO. This crate supplies those tables. The cache distinguishes pages
//! that were *never* loaded from pages that were resident and got swapped
//! out under memory contention — the paper's caveat that EBUSY should signal
//! contention (re-evicted pages), not cold first accesses.
//!
//! The model is page-granular with exact LRU. Residency lives in a
//! two-level radix page table (512-entry leaves, allocated on first load),
//! and resident pages are threaded on an intrusive doubly linked LRU list,
//! so a hit, an insert, an eviction and an `fadvise` are all O(1) list
//! operations and eviction order is deterministic. A swap-out costs one
//! pass over the page table plus O(resident) RNG draws, and O(evicted)
//! list work.
//!
//! # Examples
//!
//! ```
//! use mitt_oscache::{PageCache, PageCacheConfig, PageState};
//!
//! let mut cache = PageCache::new(PageCacheConfig::default());
//! cache.insert_range(0, 8192);
//! assert!(cache.addrcheck(0, 8192).resident);
//! cache.fadvise_dontneed(0, 4096);
//! // A swapped-out page is contention; MittCache turns this into EBUSY.
//! assert_eq!(cache.page_state(0), PageState::SwappedOut);
//! assert!(cache.addrcheck(0, 8192).contended);
//! ```

use std::collections::BTreeMap;

use mitt_sim::{Duration, SimRng};

#[cfg(test)]
mod reference;

/// Result of checking one page's residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// In the page cache; a read is a memory copy.
    Resident,
    /// Never been brought in — a cold miss, not contention.
    NeverLoaded,
    /// Was resident but evicted (fadvise, LRU pressure, swap): the
    /// contention signal MittCache turns into EBUSY.
    SwappedOut,
}

/// Result of an [`PageCache::addrcheck`] over a byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCheck {
    /// True if every page of the range is resident.
    pub resident: bool,
    /// True if at least one non-resident page was previously resident
    /// (i.e. the miss is due to memory contention).
    pub contended: bool,
    /// Pages (by page number) that must be read from storage.
    pub missing_pages: Vec<u64>,
}

/// Static parameters of the page cache.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// Page size in bytes.
    pub page_size: u32,
    /// Capacity in pages.
    pub capacity_pages: usize,
    /// Latency of serving a cached read (memory copy + syscall).
    pub hit_latency: Duration,
}

impl Default for PageCacheConfig {
    /// 4 KB pages, 1M pages (4 GB), ~20 µs hit latency — matching the
    /// paper's "latencies without noise are expected to be ~0.02ms (OS
    /// cache)" for 4 KB cached reads.
    fn default() -> Self {
        PageCacheConfig {
            page_size: 4096,
            capacity_pages: 1 << 20,
            hit_latency: Duration::from_micros(20),
        }
    }
}

/// log2 of the number of pages one page-table leaf covers.
const LEAF_BITS: u32 = 9;
/// Pages one page-table leaf covers.
const LEAF_PAGES: usize = 1 << LEAF_BITS;

/// Page-table entry of a page that was never loaded.
const NEVER_LOADED: u32 = 0;
/// Page-table entry of a page that was resident and got evicted.
const SWAPPED_OUT: u32 = 1;
/// Entries from here up are resident: `RESIDENT + slot`, where `slot`
/// indexes the page's place in the LRU list.
const RESIDENT: u32 = 2;
/// End-of-list link.
const NIL: u32 = u32::MAX;

/// A resident page's node in the LRU list. Free slots are chained through
/// `next` instead.
#[derive(Clone, Copy)]
struct Slot {
    page: u64,
    prev: u32,
    next: u32,
}

/// An exact-LRU page cache with swap-out tracking.
pub struct PageCache {
    cfg: PageCacheConfig,
    /// Radix page table: leaf number (`page >> LEAF_BITS`) -> the entries
    /// of that leaf's pages.
    table: BTreeMap<u64, Box<[u32; LEAF_PAGES]>>,
    /// LRU list nodes of resident pages, plus free slots for reuse.
    slots: Vec<Slot>,
    /// Least recently used slot (evicted first), or `NIL`.
    lru: u32,
    /// Most recently used slot, or `NIL`.
    mru: u32,
    /// First free slot, or `NIL`.
    free: u32,
    resident: usize,
    hits: u64,
    misses: u64,
}

/// Index of `page` inside its page-table leaf.
fn leaf_index(page: u64) -> usize {
    (page % LEAF_PAGES as u64) as usize
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new(cfg: PageCacheConfig) -> Self {
        PageCache {
            cfg,
            table: BTreeMap::new(),
            slots: Vec::new(),
            lru: NIL,
            mru: NIL,
            free: NIL,
            resident: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's static parameters.
    pub fn config(&self) -> &PageCacheConfig {
        &self.cfg
    }

    /// Pages a byte range `[offset, offset+len)` spans.
    pub fn pages_of(&self, offset: u64, len: u32) -> std::ops::RangeInclusive<u64> {
        let ps = u64::from(self.cfg.page_size);
        let first = offset / ps;
        let last = (offset + u64::from(len).max(1) - 1) / ps;
        first..=last
    }

    /// The page-table entry of one page.
    fn entry(&self, page: u64) -> u32 {
        self.table
            .get(&(page >> LEAF_BITS))
            .map_or(NEVER_LOADED, |leaf| leaf[leaf_index(page)])
    }

    /// The page-table entry of one page, allocating its leaf if needed.
    fn entry_mut(&mut self, page: u64) -> &mut u32 {
        let leaf = self
            .table
            .entry(page >> LEAF_BITS)
            .or_insert_with(|| Box::new([NEVER_LOADED; LEAF_PAGES]));
        &mut leaf[leaf_index(page)]
    }

    /// Residency state of one page.
    pub fn page_state(&self, page: u64) -> PageState {
        match self.entry(page) {
            NEVER_LOADED => PageState::NeverLoaded,
            SWAPPED_OUT => PageState::SwappedOut,
            _ => PageState::Resident,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.lru = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_mru(&mut self, slot: u32) {
        let mru = self.mru;
        let s = &mut self.slots[slot as usize];
        s.prev = mru;
        s.next = NIL;
        match mru {
            NIL => self.lru = slot,
            m => self.slots[m as usize].next = slot,
        }
        self.mru = slot;
    }

    /// Marks a resident page's slot as the most recently used.
    fn bump(&mut self, slot: u32) {
        self.unlink(slot);
        self.push_mru(slot);
    }

    /// Makes a non-resident page resident as the most recently used.
    fn load(&mut self, page: u64) {
        let slot = match self.free {
            NIL => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < NIL - RESIDENT)
                    .expect("page cache outgrew its u32 slot index");
                self.slots.push(Slot {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
            slot => {
                self.free = self.slots[slot as usize].next;
                self.slots[slot as usize].page = page;
                slot
            }
        };
        self.push_mru(slot);
        *self.entry_mut(page) = RESIDENT + slot;
        self.resident += 1;
    }

    /// Unlinks a resident slot from the LRU list and frees it, leaving its
    /// page's entry to the caller. Returns the page.
    fn release(&mut self, slot: u32) -> u64 {
        self.unlink(slot);
        self.slots[slot as usize].next = self.free;
        self.free = slot;
        self.resident -= 1;
        self.slots[slot as usize].page
    }

    /// Evicts the page in a resident slot, which becomes swapped out, and
    /// frees the slot. Returns the page.
    fn evict(&mut self, slot: u32) -> u64 {
        let page = self.release(slot);
        *self.entry_mut(page) = SWAPPED_OUT;
        page
    }

    /// Walks the page table for a byte range without side effects — the
    /// `addrcheck()` system call of §4.4. Only [`PageCache::access`]
    /// counts hits and misses.
    pub fn addrcheck(&self, offset: u64, len: u32) -> RangeCheck {
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

    /// Performs a cached read access: moves resident pages to the LRU
    /// list's most-recent end and reports what is missing. Counts one hit
    /// if fully resident, one miss otherwise.
    pub fn access(&mut self, offset: u64, len: u32) -> RangeCheck {
        let check = self.addrcheck(offset, len);
        if check.resident {
            self.hits += 1;
            for page in self.pages_of(offset, len) {
                self.bump(self.entry(page) - RESIDENT);
            }
        } else {
            self.misses += 1;
        }
        check
    }

    /// Inserts the pages of a byte range (after a storage read completes),
    /// evicting LRU pages as needed. Returns evicted page numbers.
    pub fn insert_range(&mut self, offset: u64, len: u32) -> Vec<u64> {
        let mut evicted = Vec::new();
        for page in self.pages_of(offset, len) {
            match self.entry(page) {
                e if e >= RESIDENT => self.bump(e - RESIDENT),
                _ => self.load(page),
            }
            while self.resident > self.cfg.capacity_pages {
                evicted.push(self.evict(self.lru));
            }
        }
        evicted
    }

    /// Drops the pages of a byte range (`posix_fadvise(DONTNEED)`), the
    /// mechanism the paper uses to construct the MittCache microbenchmark.
    pub fn fadvise_dontneed(&mut self, offset: u64, len: u32) {
        for page in self.pages_of(offset, len) {
            let e = self.entry(page);
            if e >= RESIDENT {
                self.evict(e - RESIDENT);
            }
        }
    }

    /// Swaps out a uniformly random `fraction` of resident pages,
    /// emulating another tenant's memory ballooning (§6, Figure 3c).
    ///
    /// The victims are the first `n` pages of a Fisher–Yates shuffle
    /// ([`SimRng::shuffle`]'s draws) of the resident pages in page order.
    /// Only that set is observable, so the shuffle runs on ranks (a page's
    /// position among the resident pages in page order), and its steps
    /// below `n`, which only permute the first `n` places, draw without
    /// swapping. One pass over the page table in key order then marks the
    /// chosen ranks swapped out.
    pub fn swap_out_fraction(&mut self, fraction: f64, rng: &mut SimRng) -> usize {
        let resident = self.resident;
        let n = ((resident as f64) * fraction.clamp(0.0, 1.0)) as usize;
        let mut ranks: Vec<u32> = (0..).take(resident).collect();
        for i in (n.max(1)..resident).rev() {
            ranks.swap(i, rng.index(i + 1));
        }
        for i in (1..n).rev() {
            rng.index(i + 1);
        }
        // The pass visits resident pages in rank order. It counts them,
        // marks the chosen ones swapped out and collects their slots with
        // no data-dependent branch: unchosen entries write to the spare
        // last place of `victims`, or to a place the next victim
        // overwrites, and `chosen` has a spare word for the rank past the
        // last resident page.
        let mut chosen = vec![0u64; resident / 64 + 1];
        for &r in &ranks[..n] {
            chosen[r as usize / 64] |= 1 << (r % 64);
        }
        let mut victims = vec![0u32; n + 1];
        let (mut rank, mut found) = (0, 0);
        for leaf in self.table.values_mut() {
            for e in leaf.iter_mut() {
                let is_resident = u64::from(*e >= RESIDENT);
                let hit = is_resident & (chosen[rank / 64] >> (rank % 64)) & 1;
                victims[found] = e.wrapping_sub(RESIDENT);
                // All ones for a chosen entry, zero otherwise.
                let mask = 0u32.wrapping_sub(hit as u32);
                *e ^= (*e ^ SWAPPED_OUT) & mask;
                found += hit as usize;
                rank += is_resident as usize;
            }
        }
        for &slot in &victims[..n] {
            self.release(slot);
        }
        n
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Fraction of accesses served fully from cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> PageCache {
        PageCache::new(PageCacheConfig {
            page_size: 4096,
            capacity_pages: capacity,
            hit_latency: Duration::from_micros(20),
        })
    }

    #[test]
    fn cold_access_is_never_loaded_not_contended() {
        let mut c = cache(16);
        let r = c.access(0, 4096);
        assert!(!r.resident);
        assert!(!r.contended);
        assert_eq!(r.missing_pages, vec![0]);
        assert_eq!(c.page_state(0), PageState::NeverLoaded);
    }

    #[test]
    fn insert_makes_resident_and_hits() {
        let mut c = cache(16);
        c.insert_range(0, 8192);
        let r = c.access(0, 8192);
        assert!(r.resident);
        assert_eq!(c.page_state(1), PageState::Resident);
        assert_eq!(c.counters(), (1, 0));
    }

    #[test]
    fn fadvise_marks_swapped_out_and_contended() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        c.fadvise_dontneed(0, 4096);
        assert_eq!(c.page_state(0), PageState::SwappedOut);
        let r = c.addrcheck(0, 4096);
        assert!(!r.resident);
        assert!(r.contended, "re-evicted page must signal contention");
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = cache(2);
        c.insert_range(0, 4096); // page 0
        c.insert_range(4096, 4096); // page 1
        c.access(0, 4096); // make page 0 most recent
        let evicted = c.insert_range(8192, 4096); // page 2 evicts page 1
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.page_state(0), PageState::Resident);
        assert_eq!(c.page_state(1), PageState::SwappedOut);
    }

    #[test]
    fn range_spanning_pages() {
        let c = cache(16);
        let pages: Vec<u64> = c.pages_of(4000, 200).collect();
        assert_eq!(pages, vec![0, 1]); // 4000..4200 crosses the 4096 line
        let one: Vec<u64> = c.pages_of(0, 1).collect();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn swap_out_fraction_is_proportional_and_deterministic() {
        let mut c = cache(1000);
        for i in 0..100u64 {
            c.insert_range(i * 4096, 4096);
        }
        let mut rng = SimRng::new(7);
        let n = c.swap_out_fraction(0.2, &mut rng);
        assert_eq!(n, 20);
        assert_eq!(c.resident_pages(), 80);
        // Deterministic under a fixed seed.
        let mut c2 = cache(1000);
        for i in 0..100u64 {
            c2.insert_range(i * 4096, 4096);
        }
        let mut rng2 = SimRng::new(7);
        c2.swap_out_fraction(0.2, &mut rng2);
        let s1: Vec<PageState> = (0..100).map(|p| c.page_state(p)).collect();
        let s2: Vec<PageState> = (0..100).map(|p| c2.page_state(p)).collect();
        assert_eq!(s1, s2);
    }

    #[test]
    fn hit_ratio_tracks_accesses() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        c.access(0, 4096);
        c.access(4096, 4096);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn partial_residency_is_a_miss() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        let r = c.access(0, 8192); // page 0 resident, page 1 not
        assert!(!r.resident);
        assert_eq!(r.missing_pages, vec![1]);
    }
}
