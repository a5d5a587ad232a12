//! Per-executor LRU partition cache (Spark storage memory).
//!
//! Iterative workloads (`RDD.cache()`) keep hot partitions inside the
//! executor JVM; a hit upgrades the next iteration's task to
//! `PROCESS_LOCAL` and skips the input read + deserialisation. Capacity
//! is a fraction of executor memory, so the bigger executors RUPAM sizes
//! on large-memory nodes cache more — the mechanism behind the paper's
//! Fig. 6 iteration speed-ups.

use std::collections::HashMap;

use rupam_simcore::units::ByteSize;

use rupam_dag::task::CacheKey;

/// LRU cache of RDD partitions within one executor.
///
/// ```
/// use rupam_dag::task::CacheKey;
/// use rupam_exec::cache::ExecutorCache;
/// use rupam_simcore::ByteSize;
///
/// let mut cache = ExecutorCache::new(ByteSize::mib(100));
/// cache.insert(CacheKey::new("lr/points", 0), ByteSize::mib(60));
/// let evicted = cache.insert(CacheKey::new("lr/points", 1), ByteSize::mib(60));
/// assert_eq!(evicted, vec![CacheKey::new("lr/points", 0)]); // LRU out
/// ```
#[derive(Debug)]
pub struct ExecutorCache {
    capacity: ByteSize,
    used: ByteSize,
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

#[derive(Debug)]
struct Entry {
    size: ByteSize,
    last_used: u64,
}

impl ExecutorCache {
    /// An empty cache with the given capacity.
    pub fn new(capacity: ByteSize) -> Self {
        ExecutorCache {
            capacity,
            used: ByteSize::ZERO,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Number of cached partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is cached. Does not touch LRU order.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Look up `key`, refreshing its recency. Returns the cached size.
    pub fn touch(&mut self, key: &CacheKey) -> Option<ByteSize> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            e.size
        })
    }

    /// Insert (or refresh) a partition, evicting least-recently-used
    /// entries until it fits. A partition larger than the whole capacity
    /// is not cached at all. Returns the evicted keys.
    pub fn insert(&mut self, key: CacheKey, size: ByteSize) -> Vec<CacheKey> {
        self.tick += 1;
        let mut evicted = Vec::new();
        if size > self.capacity {
            // refuse oversized partitions; also drop a stale copy
            if let Some(old) = self.entries.remove(&key) {
                self.used = self.used.saturating_sub(old.size);
                evicted.push(key);
            }
            return evicted;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used = self.used.saturating_sub(old.size);
        }
        while self.used + size > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, k.partition, k.rdd.clone()))
                .map(|(k, _)| k.clone())
                .expect("used > 0 implies entries non-empty");
            let e = self.entries.remove(&victim).unwrap();
            self.used = self.used.saturating_sub(e.size);
            evicted.push(victim);
        }
        self.entries.insert(
            key,
            Entry {
                size,
                last_used: self.tick,
            },
        );
        self.used += size;
        evicted
    }

    /// Wipe the cache (executor restart). Returns the wiped keys.
    pub fn clear(&mut self) -> Vec<CacheKey> {
        self.used = ByteSize::ZERO;
        self.entries.drain().map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: usize) -> CacheKey {
        CacheKey::new("rdd", i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = ExecutorCache::new(ByteSize::mib(100));
        assert!(c.insert(key(0), ByteSize::mib(40)).is_empty());
        assert!(c.contains(&key(0)));
        assert_eq!(c.touch(&key(0)), Some(ByteSize::mib(40)));
        assert_eq!(c.used(), ByteSize::mib(40));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ExecutorCache::new(ByteSize::mib(100));
        c.insert(key(0), ByteSize::mib(40));
        c.insert(key(1), ByteSize::mib(40));
        // touch 0 so 1 becomes LRU
        c.touch(&key(0));
        let evicted = c.insert(key(2), ByteSize::mib(40));
        assert_eq!(evicted, vec![key(1)]);
        assert!(c.contains(&key(0)) && c.contains(&key(2)));
    }

    #[test]
    fn oversized_rejected() {
        let mut c = ExecutorCache::new(ByteSize::mib(10));
        c.insert(key(0), ByteSize::mib(5));
        let evicted = c.insert(key(1), ByteSize::mib(50));
        assert!(evicted.is_empty());
        assert!(!c.contains(&key(1)));
        assert!(c.contains(&key(0)), "existing entries untouched");
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c = ExecutorCache::new(ByteSize::mib(100));
        c.insert(key(0), ByteSize::mib(40));
        c.insert(key(0), ByteSize::mib(10));
        assert_eq!(c.used(), ByteSize::mib(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_wipes() {
        let mut c = ExecutorCache::new(ByteSize::mib(100));
        c.insert(key(0), ByteSize::mib(40));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), ByteSize::ZERO);
        assert!(!c.contains(&key(0)));
    }

    proptest! {
        /// Invariant: used == sum of entry sizes and never exceeds capacity.
        #[test]
        fn prop_capacity_respected(ops in proptest::collection::vec((0usize..20, 1u64..60), 1..100)) {
            let mut c = ExecutorCache::new(ByteSize::mib(100));
            for (k, mb) in ops {
                c.insert(key(k), ByteSize::mib(mb));
                prop_assert!(c.used() <= c.capacity());
            }
        }
    }
}
