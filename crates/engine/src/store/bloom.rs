//! Bloom filters for SSTables.
//!
//! Cassandra consults a per-SSTable bloom filter before touching the table;
//! the `bloom_filter_fp_chance` configuration parameter trades memory for
//! false-positive rate. This is a real **cache-line-blocked** bloom filter
//! (Putze, Sanders & Singler's "blocked bloom"): a first hash selects one
//! 512-bit block — a single cache line — and all `k` probe bits live
//! inside that block, so a membership test touches one line instead of
//! `k` scattered ones. Blocking inflates the false-positive rate slightly
//! (block loads vary around the mean), so the bit budget from the
//! standard formulas `m = -n ln p / (ln 2)²`, `k = (m/n) ln 2` is
//! overprovisioned by a constant factor to keep the same fp-rate
//! contract, which the property test below pins.

use rafiki_workload::Key;

/// Bits per block: one 64-byte cache line.
const BLOCK_BITS: u64 = 512;
/// Words (u64) per block.
const BLOCK_WORDS: usize = (BLOCK_BITS / 64) as usize;
/// Extra bit budget compensating the blocked layout's fp inflation
/// (Putze et al. report ~10-20% overhead at 512-bit blocks to match an
/// unblocked filter's rate).
const BLOCKING_OVERPROVISION: f64 = 1.15;

/// A blocked bloom filter over row keys.
#[derive(Debug, Clone, PartialEq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_blocks: u64,
    k: u32,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl BloomFilter {
    /// Builds a filter sized for `expected_items` at the requested
    /// false-positive probability.
    ///
    /// # Panics
    ///
    /// Panics when `fp_chance` is outside `(0, 1)`.
    pub fn with_capacity(expected_items: usize, fp_chance: f64) -> Self {
        assert!(
            fp_chance > 0.0 && fp_chance < 1.0,
            "fp_chance must be in (0,1), got {fp_chance}"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * fp_chance.ln() / (ln2 * ln2) * BLOCKING_OVERPROVISION)
            .ceil()
            .max(64.0) as u64;
        // k follows the *unprovisioned* bits-per-key (the overprovision
        // exists to absorb block-load variance, not to add probes).
        let k = ((m as f64 / (n * BLOCKING_OVERPROVISION)) * ln2)
            .round()
            .clamp(1.0, 16.0) as u32;
        let n_blocks = m.div_ceil(BLOCK_BITS).max(1);
        BloomFilter {
            bits: vec![0u64; n_blocks as usize * BLOCK_WORDS],
            n_blocks,
            k,
        }
    }

    /// Number of hash functions in use.
    pub fn hash_count(&self) -> u32 {
        self.k
    }

    /// Size of the bit array.
    pub fn bit_len(&self) -> u64 {
        self.n_blocks * BLOCK_BITS
    }

    /// Memory footprint in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.len() * 8
    }

    /// Two full hashes: `h1` picks the block, `h2` seeds the in-block
    /// probe sequence (Kirsch–Mitzenmacher double hashing confined to one
    /// cache line).
    fn hash_pair(key: Key) -> (u64, u64) {
        let h1 = splitmix64(key.0);
        let h2 = splitmix64(h1 ^ 0x5851_f42d_4c95_7f2d) | 1;
        (h1, h2)
    }

    /// The word range of the block `h1` selects. Multiply-shift range
    /// reduction ("fastrange") avoids the integer modulo.
    fn block_range(&self, h1: u64) -> std::ops::Range<usize> {
        let block = ((h1 as u128 * self.n_blocks as u128) >> 64) as usize;
        let start = block * BLOCK_WORDS;
        start..start + BLOCK_WORDS
    }

    /// In-block probe `i`: bit `h2 + i * delta` within the 512-bit block.
    /// Base and stride both come from `h2` (the block index consumed
    /// `h1`'s high bits), so the probe lattice is independent of which
    /// block was selected.
    #[inline]
    fn probe_bit(h2: u64, i: u64) -> usize {
        let delta = (h2 >> 32) | 1;
        (h2.wrapping_add(i.wrapping_mul(delta)) & (BLOCK_BITS - 1)) as usize
    }

    /// Inserts a key. All `k` bits land in one cache line.
    pub fn insert(&mut self, key: Key) {
        let (h1, h2) = Self::hash_pair(key);
        let range = self.block_range(h1);
        let block = &mut self.bits[range];
        for i in 0..self.k as u64 {
            let bit = Self::probe_bit(h2, i);
            block[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// Tests membership; may return false positives, never false
    /// negatives. Touches exactly one cache line.
    pub fn may_contain(&self, key: Key) -> bool {
        let (h1, h2) = Self::hash_pair(key);
        let range = self.block_range(h1);
        let block = &self.bits[range];
        (0..self.k as u64).all(|i| {
            let bit = Self::probe_bit(h2, i);
            block[bit / 64] & (1u64 << (bit % 64)) != 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1_000, 0.01);
        for i in 0..1_000 {
            f.insert(Key(i * 7 + 3));
        }
        for i in 0..1_000 {
            assert!(f.may_contain(Key(i * 7 + 3)));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        // The fp-rate contract of the blocked layout: the observed rate
        // must stay within the same band as the unblocked filter's.
        for &fp in &[0.02, 0.05] {
            let n = 10_000u64;
            let mut f = BloomFilter::with_capacity(n as usize, fp);
            for i in 0..n {
                f.insert(Key(i));
            }
            let mut false_pos = 0;
            let probes = 50_000u64;
            for i in 0..probes {
                if f.may_contain(Key(1_000_000 + i)) {
                    false_pos += 1;
                }
            }
            let observed = false_pos as f64 / probes as f64;
            assert!(
                observed < fp * 2.5,
                "observed FP rate {observed} vs target {fp}"
            );
            assert!(observed > fp * 0.2, "suspiciously low FP rate {observed}");
        }
    }

    #[test]
    fn lower_fp_chance_uses_more_memory() {
        let tight = BloomFilter::with_capacity(10_000, 0.001);
        let loose = BloomFilter::with_capacity(10_000, 0.1);
        assert!(tight.byte_len() > loose.byte_len());
        assert!(tight.hash_count() > loose.hash_count());
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::with_capacity(100, 0.01);
        let hits = (0..1_000).filter(|&i| f.may_contain(Key(i))).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn blocks_are_whole_cache_lines() {
        let f = BloomFilter::with_capacity(10_000, 0.01);
        assert_eq!(f.byte_len() % 64, 0, "block storage must be line-aligned");
        assert_eq!(f.bit_len() % BLOCK_BITS, 0);
    }

    #[test]
    #[should_panic]
    fn invalid_fp_chance_rejected() {
        let _ = BloomFilter::with_capacity(10, 1.5);
    }
}
