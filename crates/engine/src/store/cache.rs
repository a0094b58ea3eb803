//! A real LRU cache used for the file (block) cache, the OS page cache,
//! the key cache, and the row cache.
//!
//! Implemented as a slab-backed intrusive doubly-linked list plus a hash
//! index — O(1) get/insert/evict with no unsafe code. The index uses the
//! engine's fast deterministic hasher ([`crate::fasthash`]): cache
//! touches are the single hottest operation in the simulation (several
//! per simulated read), so hashing cost dominates here.
//!
//! Capacity is a bound, not a reservation: the index and the slab start
//! empty and grow (amortised doubling) with what the cache holds. The
//! caches are sized in entries from megabyte knobs — the default key
//! cache admits 1.6 M entries — and a short simulation fills a small
//! fraction of that, so reserving the bound up front would allocate and
//! fault in tens of MiB per engine that no simulated operation touches.
//! Growth never changes which entry is evicted: the order lives in the
//! linked list, not in the index.
//!
//! The replacement policy is selectable ([`EvictionPolicy`]): LRU is the
//! default and what every cache used before the policy became a tunable;
//! FIFO skips the promote-on-hit, and Clock gives referenced entries one
//! second chance before reclaiming them.

pub use crate::config::EvictionPolicy;
use crate::fasthash::FastHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
    /// Clock policy's second-chance bit; unused by LRU/FIFO.
    referenced: bool,
}

/// A fixed-capacity (in entries) cache with a selectable eviction
/// policy. The name predates the policy knob: LRU remains the default
/// and the behaviour of [`LruCache::new`].
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FastHashMap<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used / newest
    tail: usize, // least recently used / oldest
    capacity: usize,
    policy: EvictionPolicy,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates an LRU-policy cache holding at most `capacity` entries. A
    /// capacity of 0 produces a cache that stores nothing (every lookup
    /// misses).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, EvictionPolicy::Lru)
    }

    /// Creates a cache with an explicit eviction policy.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> Self {
        LruCache {
            map: FastHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            policy,
            hits: 0,
            misses: 0,
        }
    }

    /// The eviction policy this cache was built with.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookup hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all lookups (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn entry(&self, idx: usize) -> &Entry<K, V> {
        self.slab[idx].as_ref().expect("linked entry present")
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<K, V> {
        self.slab[idx].as_mut().expect("linked entry present")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.entry(idx);
            (e.prev, e.next)
        };
        if prev != NIL {
            self.entry_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entry_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(idx);
            e.prev = NIL;
            e.next = old_head;
        }
        if old_head != NIL {
            self.entry_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// The slab index to evict under the current policy. LRU and FIFO
    /// take the tail (coldest / oldest). Clock sweeps from the tail,
    /// granting each referenced entry one second chance (clear the bit,
    /// recycle to the head) before reclaiming the first unreferenced
    /// entry; terminates because each sweep step clears a bit.
    fn select_victim(&mut self) -> usize {
        match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => self.tail,
            EvictionPolicy::Clock => loop {
                let idx = self.tail;
                debug_assert_ne!(idx, NIL);
                if !self.entry(idx).referenced {
                    break idx;
                }
                self.entry_mut(idx).referenced = false;
                self.unlink(idx);
                self.push_front(idx);
            },
        }
    }

    /// Looks up `key`. What a hit does depends on the policy: LRU
    /// promotes the entry to most-recently-used, Clock sets its
    /// second-chance bit, FIFO records nothing.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.touch(idx);
                Some(&self.entry(idx).value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn touch(&mut self, idx: usize) {
        match self.policy {
            EvictionPolicy::Lru => {
                if idx != self.head {
                    self.unlink(idx);
                    self.push_front(idx);
                }
            }
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Clock => self.entry_mut(idx).referenced = true,
        }
    }

    /// Tests presence without touching recency or hit statistics.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.entry(idx).value)
    }

    /// Inserts a key/value pair, evicting the policy's victim entry if at
    /// capacity. Returns the evicted `(key, value)` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.entry_mut(idx).value = value;
            self.touch(idx);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let victim = self.select_victim();
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old = self.slab[victim].take().expect("victim entry present");
            self.map.remove(&old.key);
            self.free.push(victim);
            Some((old.key, old.value))
        } else {
            None
        };

        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
            referenced: false,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(entry);
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let entry = self.slab[idx].take().expect("mapped entry present");
        self.free.push(idx);
        Some(entry.value)
    }

    /// Drops every entry whose key fails the predicate. O(n).
    pub fn retain_keys<F: FnMut(&K) -> bool>(&mut self, mut keep: F) {
        let mut idx = self.head;
        while idx != NIL {
            let next = self.entry(idx).next;
            if !keep(&self.entry(idx).key) {
                self.unlink(idx);
                let entry = self.slab[idx].take().expect("linked entry present");
                self.map.remove(&entry.key);
                self.free.push(idx);
            }
            idx = next;
        }
    }

    /// Clears the cache (statistics are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        let _ = c.get(&"a"); // a is now MRU
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert!(c.get(&"b").is_none());
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert!(c.insert("a", 10).is_none());
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = LruCache::new(0);
        assert!(c.insert("a", 1).is_none());
        assert!(c.get(&"a").is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn remove_returns_value() {
        let mut c = LruCache::new(4);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.remove(&1), Some("one"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        // Slot reuse after removal.
        c.insert(3, "three");
        c.insert(4, "four");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn hit_statistics() {
        let mut c = LruCache::new(4);
        c.insert(1, ());
        let _ = c.get(&1);
        let _ = c.get(&2);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn retain_keys_drops_matching() {
        let mut c = LruCache::new(8);
        for i in 0..8 {
            c.insert(i, i * 10);
        }
        c.retain_keys(|&k| k % 2 == 0);
        assert_eq!(c.len(), 4);
        assert!(c.peek(&3).is_none());
        assert_eq!(c.peek(&4), Some(&40));
        // Freed slots are reused.
        for i in 100..104 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn eviction_order_survives_retain() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.retain_keys(|&k| k != 2);
        c.insert(4, ());
        // Now holds 1,3,4 (capacity 3); inserting 5 evicts LRU = 1.
        let evicted = c.insert(5, ());
        assert_eq!(evicted, Some((1, ())));
    }

    #[test]
    fn long_workload_respects_capacity() {
        let mut c = LruCache::new(100);
        for i in 0..10_000u64 {
            c.insert(i % 250, i);
            assert!(c.len() <= 100);
        }
        // The most recently inserted key is present.
        assert!(c.peek(&((10_000u64 - 1) % 250)).is_some());
    }

    #[test]
    fn fifo_evicts_oldest_despite_hits() {
        let mut c = LruCache::with_policy(2, EvictionPolicy::Fifo);
        c.insert("a", 1);
        c.insert("b", 2);
        let _ = c.get(&"a"); // does not protect "a" under FIFO
        let evicted = c.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
        assert_eq!(c.peek(&"b"), Some(&2));
    }

    #[test]
    fn clock_grants_second_chance() {
        let mut c = LruCache::with_policy(2, EvictionPolicy::Clock);
        c.insert("a", 1);
        c.insert("b", 2);
        let _ = c.get(&"a"); // sets a's referenced bit
        let evicted = c.insert("c", 3);
        // "a" is referenced -> second chance; "b" is the victim.
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(c.peek(&"a"), Some(&1));
        // a's bit was consumed: next eviction with no further hits takes "a".
        let evicted = c.insert("d", 4);
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn clock_sweep_terminates_when_all_referenced() {
        let mut c = LruCache::with_policy(3, EvictionPolicy::Clock);
        for i in 0..3 {
            c.insert(i, ());
        }
        for i in 0..3 {
            let _ = c.get(&i);
        }
        // Every entry referenced: the sweep clears all bits, then evicts.
        assert!(c.insert(99, ()).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn default_policy_is_lru() {
        let c: LruCache<u64, ()> = LruCache::new(4);
        assert_eq!(c.policy(), EvictionPolicy::Lru);
    }

    #[test]
    fn capacity_reserves_nothing_before_the_first_insert() {
        let mut c: LruCache<u64, u32> = LruCache::new(1 << 24);
        assert_eq!((c.map.capacity(), c.slab.capacity()), (0, 0));
        c.insert(7, 1);
        assert!(
            c.map.capacity() < 1 << 10,
            "index grew to {}",
            c.map.capacity()
        );
        assert_eq!(c.peek(&7), Some(&1));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = LruCache::new(4);
        c.insert(1, ());
        c.insert(2, ());
        c.clear();
        assert!(c.is_empty());
        c.insert(3, ());
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&3), Some(&()));
    }
}
