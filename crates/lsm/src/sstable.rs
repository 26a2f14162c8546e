//! SSTable metadata: key ranges, block layout, and a deterministic bloom
//! filter model.

/// Identifier of one SSTable within an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u64);

/// Data-block size used for reads (LevelDB's default is 4 KB).
pub const BLOCK_SIZE: u32 = 4096;

/// Index/footer block size read when a table is opened or missed in the
/// table cache.
pub const INDEX_SIZE: u32 = 16 * 1024;

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Metadata of one on-disk sorted table.
#[derive(Debug, Clone, Copy)]
pub struct SsTable {
    /// Unique id (also the bloom/salt seed).
    pub id: TableId,
    /// Level this table lives on (0 = freshest).
    pub level: u8,
    /// Smallest key covered (inclusive).
    pub min_key: u64,
    /// Largest key covered (inclusive).
    pub max_key: u64,
    /// Byte offset of the table's data on the device.
    pub offset: u64,
    /// Total size in bytes (data + index).
    pub size: u64,
    /// Bloom filter false positive rate for keys not in the table.
    pub bloom_fp_rate: f64,
}

impl SsTable {
    /// True if `key` falls inside this table's key range.
    pub fn covers(&self, key: u64) -> bool {
        (self.min_key..=self.max_key).contains(&key)
    }

    /// Deterministic bloom-filter check: always true when the table holds
    /// the key; otherwise a pseudo-random false positive at the configured
    /// rate, stable per (table, key).
    pub fn bloom_may_contain(&self, key: u64, holds_key: bool) -> bool {
        if holds_key {
            return true;
        }
        let h = mix(self.id.0, key);
        (h as f64 / u64::MAX as f64) < self.bloom_fp_rate
    }

    /// Byte offset of the data block that would hold `key` (a stable
    /// pseudo-position within the table's data region).
    pub fn block_offset(&self, key: u64) -> u64 {
        let data = self
            .size
            .saturating_sub(u64::from(INDEX_SIZE))
            .max(u64::from(BLOCK_SIZE));
        let blocks = (data / u64::from(BLOCK_SIZE)).max(1);
        let slot = mix(self.id.0 ^ 0xB10C, key) % blocks;
        self.offset + slot * u64::from(BLOCK_SIZE)
    }

    /// Byte offset of the table's index/footer block.
    pub fn index_offset(&self) -> u64 {
        self.offset + self.size.saturating_sub(u64::from(INDEX_SIZE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SsTable {
        SsTable {
            id: TableId(7),
            level: 1,
            min_key: 100,
            max_key: 200,
            offset: 1 << 30,
            size: 2 << 20,
            bloom_fp_rate: 0.01,
        }
    }

    #[test]
    fn covers_is_inclusive() {
        let t = table();
        assert!(t.covers(100) && t.covers(200) && t.covers(150));
        assert!(!t.covers(99) && !t.covers(201));
    }

    #[test]
    fn bloom_never_misses_held_keys() {
        let t = table();
        for key in 0..1000 {
            assert!(t.bloom_may_contain(key, true));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_near_config() {
        let t = table();
        let fps = (0..100_000)
            .filter(|&k| t.bloom_may_contain(k, false))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!((0.005..0.02).contains(&rate), "rate {rate}");
    }

    #[test]
    fn bloom_is_deterministic() {
        let t = table();
        for key in 0..100 {
            assert_eq!(
                t.bloom_may_contain(key, false),
                t.bloom_may_contain(key, false)
            );
        }
    }

    #[test]
    fn block_offsets_stay_inside_table() {
        let t = table();
        for key in 0..1000 {
            let off = t.block_offset(key);
            assert!(off >= t.offset);
            assert!(off + u64::from(BLOCK_SIZE) <= t.offset + t.size);
        }
    }

    #[test]
    fn index_sits_at_table_end() {
        let t = table();
        assert_eq!(t.index_offset(), t.offset + t.size - u64::from(INDEX_SIZE));
    }
}
