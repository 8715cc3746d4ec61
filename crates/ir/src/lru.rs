//! A bounded, shareable LRU map of computed artifacts — the one cache
//! behind both compile-once tiers: [`LoweredCache`](crate::lowered::LoweredCache)
//! (compiled bytecode) and `refidem_core::cache::AnalysisCache` (region
//! analyses and their labelings).
//!
//! A [`BoundedLru`] is a cheap handle: `Clone` shares the underlying
//! storage, and two handles compare equal exactly when they share it. A
//! lookup takes the lock once on a hit; on a miss the value is computed
//! *outside* the lock, so concurrent users never serialize their
//! computations. If two threads race on one key, both compute and the first
//! insert wins — harmless, because equal keys must produce equal values.
//! Inserting past the bound evicts least-recently-used entries.
//!
//! ```
//! use refidem_ir::lru::BoundedLru;
//!
//! let cache: BoundedLru<&str, String> = BoundedLru::with_capacity(2);
//! let first = cache.get_or_insert_with("a", || "computed".to_string());
//! assert!(!first.hit, "first lookup computes");
//! let second = cache.get_or_insert_with("a", || unreachable!("cached"));
//! assert!(second.hit, "second lookup reuses the value");
//! assert!(std::sync::Arc::ptr_eq(&first.value, &second.value));
//! assert_eq!(cache.stats(), (1, 1)); // (hits, misses)
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// A size-bounded, thread-safe LRU map from `K` to shared `Arc<V>` values,
/// with lifetime hit, miss and eviction counters (see the module docs).
pub struct BoundedLru<K, V> {
    inner: Arc<Mutex<CacheInner<K, V>>>,
}

/// One cached value plus the recency stamp LRU eviction orders by.
struct CacheSlot<V> {
    value: Arc<V>,
    last_used: u64,
}

struct CacheInner<K, V> {
    map: HashMap<K, CacheSlot<V>>,
    capacity: usize,
    /// Monotonic lookup clock; every hit or insert stamps its entry.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> CacheInner<K, V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least-recently-used entries until the map fits the bound.
    /// Returns how many entries were dropped. The scan is linear in the
    /// entry count — eviction only happens at the bound, and the bound is
    /// sized so ordinary workloads never reach it.
    fn evict_to_capacity(&mut self) -> u64 {
        let mut dropped = 0u64;
        while self.map.len() > self.capacity {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            dropped += 1;
        }
        self.evictions += dropped;
        dropped
    }
}

/// Per-call outcome of a lookup: the value plus exactly what this call did
/// to the cache, so callers can attribute hit/miss/eviction counts to a
/// single run without racing other threads on the shared lifetime counters.
#[derive(Clone, Debug)]
pub struct Lookup<V> {
    /// The value (cached or freshly computed).
    pub value: Arc<V>,
    /// True when the value was served from the cache.
    pub hit: bool,
    /// Entries this call evicted to make room (0 on a hit).
    pub evicted: u64,
}

/// A snapshot of a cache's lifetime counters and occupancy (see
/// [`BoundedLru::counters`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries the cache will hold.
    pub capacity: usize,
}

impl<K, V> Clone for BoundedLru<K, V> {
    fn clone(&self) -> Self {
        BoundedLru {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Handle identity: two caches are equal when they share the same
/// underlying storage. (This is what lets configuration types holding a
/// cache keep a derived `PartialEq`.)
impl<K, V> PartialEq for BoundedLru<K, V> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<K: Eq + Hash + Clone, V> std::fmt::Debug for BoundedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counters();
        f.debug_struct("BoundedLru")
            .field("entries", &c.entries)
            .field("hits", &c.hits)
            .field("misses", &c.misses)
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V> BoundedLru<K, V> {
    /// Creates an empty cache that shares storage with nothing else,
    /// holding at most `capacity` entries (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedLru {
            inner: Arc::new(Mutex::new(CacheInner {
                map: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner<K, V>> {
        self.inner.lock().expect("bounded LRU cache poisoned")
    }

    /// Returns the cached value for `key`, computing it with `compute` on a
    /// miss, along with exactly what this call did to the cache.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> Lookup<V> {
        match self.try_get_or_insert_with(key, || Ok::<_, std::convert::Infallible>(compute())) {
            Ok(lookup) => lookup,
            Err(never) => match never {},
        }
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) with a fallible
    /// `compute`: an error is returned as-is, never cached, and counts
    /// neither as hit nor miss.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Lookup<V>, E> {
        {
            let mut inner = self.lock();
            let stamp = inner.touch();
            if let Some(found) = inner.map.get_mut(&key) {
                found.last_used = stamp;
                let value = found.value.clone();
                inner.hits += 1;
                return Ok(Lookup {
                    value,
                    hit: true,
                    evicted: 0,
                });
            }
        }
        let computed = Arc::new(compute()?);
        let mut inner = self.lock();
        inner.misses += 1;
        let stamp = inner.touch();
        let value = inner
            .map
            .entry(key)
            .or_insert(CacheSlot {
                value: computed,
                last_used: stamp,
            })
            .value
            .clone();
        let evicted = inner.evict_to_capacity();
        Ok(Lookup {
            value,
            hit: false,
            evicted,
        })
    }

    /// `(hits, misses)` accumulated over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }

    /// Lifetime counters plus occupancy and bound, in one snapshot.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.lock();
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            capacity: inner.capacity,
        }
    }

    /// Entries dropped by LRU eviction over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Changes the entry bound (clamped to at least 1), evicting
    /// least-recently-used entries immediately if the cache is over the new
    /// bound.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity.max(1);
        inner.evict_to_capacity();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the counters (the storage — and thus
    /// handle identity — is kept; the capacity bound is kept too).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(cache: &BoundedLru<u32, u32>, key: u32) -> Lookup<u32> {
        cache.get_or_insert_with(key, || key * 10)
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = BoundedLru::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        assert!(!get(&cache, 1).hit);
        assert!(!get(&cache, 2).hit);
        // Touch 1 so 2 becomes the least recently used entry...
        assert!(get(&cache, 1).hit);
        // ...then a third insert must evict exactly 2.
        let third = get(&cache, 3);
        assert!(!third.hit);
        assert_eq!(third.evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(get(&cache, 1).hit, "recently used survives");
        assert!(!get(&cache, 2).hit, "LRU entry recomputes");
        assert_eq!(cache.evictions(), 2, "re-inserting 2 evicted 3 in turn");

        let c = cache.counters();
        assert_eq!((c.entries, c.capacity), (2, 2));
        assert_eq!((c.hits, c.misses), (2, 4));
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_clamps_to_one() {
        let cache = BoundedLru::with_capacity(8);
        for key in 1..=3 {
            get(&cache, key);
        }
        assert_eq!(cache.len(), 3);
        cache.set_capacity(0); // clamps to 1
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        // The survivor is the most recently used entry.
        assert!(get(&cache, 3).hit);
        assert_eq!(BoundedLru::<u32, u32>::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn clear_keeps_identity_and_capacity() {
        let cache = BoundedLru::with_capacity(7);
        get(&cache, 1);
        get(&cache, 1);
        let alias = cache.clone();
        cache.clear();
        assert_eq!(cache, alias);
        assert_eq!(cache.capacity(), 7);
        assert!(alias.is_empty(), "the alias sees the cleared storage");
        assert_eq!(
            cache.counters(),
            CacheCounters {
                capacity: 7,
                ..CacheCounters::default()
            }
        );
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let cache: BoundedLru<u32, u32> = BoundedLru::with_capacity(4);
        let err = cache.try_get_or_insert_with(1, || Err("no"));
        assert_eq!(err.err(), Some("no"));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), (0, 0), "failures count neither hit nor miss");
        // The key is computed afresh on the next lookup.
        let ok = cache
            .try_get_or_insert_with(1, || Ok::<_, &str>(5))
            .unwrap();
        assert!(!ok.hit);
        assert_eq!(*ok.value, 5);
    }

    #[test]
    fn separately_created_caches_are_isolated() {
        let a = BoundedLru::with_capacity(4);
        let b = BoundedLru::with_capacity(4);
        assert_ne!(a, b, "separate caches never share storage");
        assert_eq!(a.clone(), a, "a clone shares the storage");
        get(&a, 1);
        assert_eq!(a.len(), 1);
        assert!(b.is_empty(), "an isolated cache sees no traffic");
        assert!(!get(&b, 1).hit);
    }
}
