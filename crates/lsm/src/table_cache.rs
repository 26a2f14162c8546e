//! The engine's table cache: which tables have their index block in
//! memory, with exact LRU eviction in O(1) per touch.
//!
//! Table ids are dense (the engine hands them out from a counter), so the
//! cache keeps one node per id in a vector and threads the cached ones on
//! an intrusive doubly linked list, most recently used first — the same
//! layout as the page cache's LRU in `mitt-oscache`.

use crate::sstable::TableId;

/// End-of-list link.
const NIL: u32 = u32::MAX;
/// `prev` of a table that is not cached (never touched, or evicted).
const OUT: u32 = u32::MAX - 1;

/// One table's place in the LRU list.
#[derive(Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
}

const EMPTY: Node = Node {
    prev: OUT,
    next: NIL,
};

/// An exact-LRU set of at most `capacity` tables.
pub(crate) struct TableCache {
    capacity: usize,
    /// Indexed by table id.
    nodes: Vec<Node>,
    /// Most recently used table, or `NIL`.
    mru: u32,
    /// Least recently used table (evicted first), or `NIL`.
    lru: u32,
    len: usize,
}

impl TableCache {
    pub(crate) fn new(capacity: usize) -> Self {
        TableCache {
            capacity,
            nodes: Vec::new(),
            mru: NIL,
            lru: NIL,
            len: 0,
        }
    }

    /// Marks `id` most recently used; returns whether it was cached. Over
    /// capacity, evicts the least recently used table.
    pub(crate) fn touch(&mut self, id: TableId) -> bool {
        let slot = u32::try_from(id.0)
            .ok()
            .filter(|&s| s < OUT)
            .expect("table id outgrew the cache's u32 index");
        let need = slot as usize + 1;
        if need > self.nodes.len() {
            // New ids arrive nearly in order, so grow exactly rather than
            // let doubling leave up to half the vector unused.
            self.nodes.reserve_exact(need - self.nodes.len());
            self.nodes.resize(need, EMPTY);
        }
        let hit = self.nodes[slot as usize].prev != OUT;
        if hit {
            self.unlink(slot);
        } else {
            self.len += 1;
        }
        self.push_mru(slot);
        if self.len > self.capacity {
            let victim = self.lru;
            self.unlink(victim);
            self.nodes[victim as usize].prev = OUT;
            self.len -= 1;
        }
        hit
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.mru = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.lru = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_mru(&mut self, slot: u32) {
        let mru = self.mru;
        let node = &mut self.nodes[slot as usize];
        node.prev = NIL;
        node.next = mru;
        match mru {
            NIL => self.lru = slot,
            m => self.nodes[m as usize].prev = slot,
        }
        self.mru = slot;
    }

    /// Tables cached.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if `id` is cached.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, id: &TableId) -> bool {
        self.nodes.get(id.0 as usize).is_some_and(|n| n.prev != OUT)
    }

    /// The cached tables, most recently used first.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = TableId> + '_ {
        std::iter::successors(Some(self.mru).filter(|&s| s != NIL), |&s| {
            Some(self.nodes[s as usize].next).filter(|&n| n != NIL)
        })
        .map(|s| TableId(u64::from(s)))
    }
}
