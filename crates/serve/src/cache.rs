//! Result caching: a slab-backed LRU plus the service-facing
//! [`ResultCache`] keyed by `(query words, tau)` / `(query words, k)`.
//!
//! The LRU is an intrusive doubly-linked list over a `Vec` slab (indices
//! instead of pointers — no `unsafe`), giving O(1) get/insert/evict.
//! Values are handed out by clone; the service stores `Arc`'d result
//! vectors so a clone is a refcount bump.
//!
//! A write drops only the entries whose answer it changes
//! ([`ResultCache::invalidate`]): a range answer is by definition the
//! rows within τ of the query, so a written row matters to an entry only
//! if it lies within the radius the entry was executed at, and a removed
//! id only if the entry holds it. The price is one walk over the
//! resident entries per write, under the cache mutex — measured on
//! `serve-mixed` as `serve.write_lat_p50_us` 1.1 → 3.0 µs with its
//! 512-query pool resident in a 1024-entry cache — in exchange for reads
//! that no write touched staying hits.

use hamming_core::hamming_within;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used map. `capacity == 0` disables
/// caching (every insert is a no-op, every get a miss).
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slab: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently
    /// used entry when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let node = Node { key: key.clone(), value, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = node;
                idx
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops, in place, every entry `keep` refuses and returns how many
    /// went. Survivors keep their recency order; a dropped entry's slot
    /// joins the free list (its value is released when the slot is
    /// reused — the slab never outgrows `capacity`).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        let mut idx = self.head;
        while idx != NIL {
            let next = self.slab[idx].next;
            if !keep(&self.slab[idx].key, &self.slab[idx].value) {
                self.remove_at(idx);
                dropped += 1;
            }
            idx = next;
        }
        dropped
    }

    fn evict_lru(&mut self) {
        debug_assert_ne!(self.tail, NIL, "evict called on an empty cache");
        self.remove_at(self.tail);
    }

    fn remove_at(&mut self, idx: usize) {
        self.unlink(idx);
        self.map.remove(&self.slab[idx].key);
        self.free.push(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Cache key: the query's raw words plus the request parameter. Keyed on
/// the *requested* parameters (a degraded query caches under the tau the
/// client asked for, so repeats hit without re-running admission).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub enum CacheKey {
    /// Range search at threshold `tau`.
    Range {
        /// The query's raw words.
        query: Vec<u64>,
        /// Requested threshold.
        tau: u32,
    },
    /// Top-k search.
    TopK {
        /// The query's raw words.
        query: Vec<u64>,
        /// Requested result count.
        k: u32,
    },
}

/// A cached service result (shared, refcounted).
#[derive(Clone, Debug)]
pub enum CachedResult {
    /// Range-search IDs (with the tau actually executed, for degraded
    /// queries).
    Range {
        /// Matching global IDs, ascending.
        ids: Arc<Vec<u32>>,
        /// Threshold the engine actually ran.
        effective_tau: u32,
    },
    /// Top-k `(id, distance)` pairs.
    TopK {
        /// The hits, ascending by `(distance, id)`.
        hits: Arc<Vec<(u32, u32)>>,
        /// Escalation cap the engine actually ran (`tau_max` unless
        /// admission degraded the query).
        effective_cap: u32,
    },
}

/// Hit/miss counters, snapshot alongside the service stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engines.
    pub misses: u64,
    /// Entries dropped because a write changed their answer (an inserted
    /// row within their radius, or a removed id among their results).
    pub invalidations: u64,
    /// Entries resident.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe LRU result cache checked before dispatch to the worker
/// pool.
pub struct ResultCache {
    inner: Mutex<LruCache<CacheKey, CachedResult>>,
    /// Bumped (under the inner mutex) by every write. Workers capture it
    /// before computing a result and store with
    /// [`ResultCache::store_if_current`], so a result computed across a
    /// write can never be cached after it.
    epoch: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` results.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(LruCache::new(capacity)),
            epoch: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The current write epoch. Capture this *before* computing a
    /// result destined for [`ResultCache::store_if_current`].
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Looks up a result, counting the hit or miss.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedResult> {
        let got = self.inner.lock().get(key);
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Stores a computed result unconditionally (no mutation can have
    /// raced the computation — e.g. single-threaded tests).
    pub fn store(&self, key: CacheKey, value: CachedResult) {
        self.inner.lock().insert(key, value);
    }

    /// Stores a computed result only if no write was booked since
    /// `epoch` was captured. The check and the insert share the cache
    /// mutex with [`ResultCache::invalidate`]'s bump, closing the race
    /// where a worker finishes a search, a mutation invalidates, and the
    /// worker then caches the now-stale result — which nothing would
    /// drop until a later write happened to touch it.
    pub fn store_if_current(&self, epoch: u64, key: CacheKey, value: CachedResult) {
        let mut inner = self.inner.lock();
        if self.epoch.load(Ordering::Relaxed) == epoch {
            inner.insert(key, value);
        }
    }

    /// Books a committed write: advances the epoch and drops the entries
    /// whose answer it can have changed — `inserted` is the row that went
    /// live, `removed` the id that stopped being live (an upsert of a
    /// live id passes both). An entry goes if it holds `removed`, or if
    /// `inserted` lies within the radius the entry was *executed* at (a
    /// degraded entry answers its effective threshold, not the requested
    /// one). For top-k that is conservative on purpose: a row inside the
    /// escalation cap but beyond the k-th hit would not change the
    /// answer, and is dropped all the same. Everything else stays: the
    /// write cannot have changed it.
    pub fn invalidate(&self, inserted: Option<&[u64]>, removed: Option<u32>) {
        let within = |query: &[u64], radius: u32| {
            inserted.is_some_and(|row| hamming_within(query, row, radius).is_some())
        };
        let mut inner = self.inner.lock();
        self.epoch.fetch_add(1, Ordering::Release);
        let dropped = inner.retain(|key, value| match (key, value) {
            (CacheKey::Range { query, .. }, CachedResult::Range { ids, effective_tau }) => {
                !(removed.is_some_and(|id| ids.binary_search(&id).is_ok())
                    || within(query, *effective_tau))
            }
            (CacheKey::TopK { query, .. }, CachedResult::TopK { hits, effective_cap }) => {
                !(removed.is_some_and(|id| hits.iter().any(|&(hit, _)| hit == id))
                    || within(query, *effective_cap))
            }
            // A key of one kind never holds a result of the other.
            _ => false,
        });
        self.invalidations.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            len: inner.len(),
            capacity: inner.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(10)); // 1 becomes MRU
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_refresh_updates_value_and_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // refresh: 2 is now LRU
        c.insert(3, 30); // evicts 2
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), None);
    }

    #[test]
    fn lru_capacity_one_and_zero() {
        let mut one: LruCache<u32, u32> = LruCache::new(1);
        one.insert(1, 10);
        one.insert(2, 20);
        assert_eq!(one.get(&1), None);
        assert_eq!(one.get(&2), Some(20));

        let mut zero: LruCache<u32, u32> = LruCache::new(0);
        zero.insert(1, 10);
        assert_eq!(zero.get(&1), None);
        assert!(zero.is_empty());
    }

    #[test]
    fn lru_slab_reuse_many_cycles() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..1000u32 {
            c.insert(i, i * 2);
        }
        assert_eq!(c.len(), 4);
        // Slab never grows past capacity + nothing leaks.
        assert!(c.slab.len() <= 5);
        for i in 996..1000 {
            assert_eq!(c.get(&i), Some(i * 2));
        }
    }

    #[test]
    fn result_cache_counts_hits_and_misses() {
        let cache = ResultCache::new(8);
        let key = CacheKey::Range { query: vec![0xF0, 0x0F], tau: 4 };
        assert!(cache.lookup(&key).is_none());
        cache.store(
            key.clone(),
            CachedResult::Range { ids: Arc::new(vec![1, 2, 3]), effective_tau: 4 },
        );
        match cache.lookup(&key) {
            Some(CachedResult::Range { ids, effective_tau }) => {
                assert_eq!(*ids, vec![1, 2, 3]);
                assert_eq!(effective_tau, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.len), (1, 1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stale_epoch_store_is_rejected() {
        let cache = ResultCache::new(8);
        let key = CacheKey::Range { query: vec![4], tau: 1 };
        // A "worker" captures the epoch, then a write is booked before
        // the store lands — even one that would have dropped nothing:
        // the result was computed across it and must not be cached.
        let epoch = cache.epoch();
        cache.invalidate(None, Some(99));
        cache.store_if_current(
            epoch,
            key.clone(),
            CachedResult::Range { ids: Arc::new(vec![1]), effective_tau: 1 },
        );
        assert!(cache.lookup(&key).is_none(), "stale store must be dropped");
        // With the current epoch the store lands.
        cache.store_if_current(
            cache.epoch(),
            key.clone(),
            CachedResult::Range { ids: Arc::new(vec![2]), effective_tau: 1 },
        );
        assert!(cache.lookup(&key).is_some());
    }

    /// Order of the list from most to least recently used, checked
    /// against the map, the back links and the free list on the way.
    fn recency(c: &LruCache<u32, u32>) -> Vec<u32> {
        let (mut order, mut prev, mut idx) = (Vec::new(), NIL, c.head);
        while idx != NIL {
            assert_eq!(c.slab[idx].prev, prev, "back link of slot {idx}");
            assert_eq!(c.map.get(&c.slab[idx].key), Some(&idx));
            assert!(!c.free.contains(&idx), "slot {idx} is both linked and free");
            order.push(c.slab[idx].key);
            (prev, idx) = (idx, c.slab[idx].next);
        }
        assert_eq!(c.tail, prev);
        assert_eq!(order.len(), c.map.len());
        assert_eq!(order.len() + c.free.len(), c.slab.len(), "every slot is linked or free");
        order
    }

    #[test]
    fn retain_drops_in_place_and_keeps_recency() {
        let filled = || {
            let mut c: LruCache<u32, u32> = LruCache::new(5);
            for k in 1..=5 {
                c.insert(k, k * 10);
            }
            assert_eq!(recency(&c), [5, 4, 3, 2, 1]);
            c
        };
        for (doomed, left) in [
            (vec![5], vec![4, 3, 2, 1]),   // head
            (vec![1], vec![5, 4, 3, 2]),   // tail
            (vec![3], vec![5, 4, 2, 1]),   // middle
            (vec![5, 3, 1], vec![4, 2]),   // head, middle and tail at once
            (vec![1, 2, 3, 4, 5], vec![]), // all
            (vec![], vec![5, 4, 3, 2, 1]), // none
        ] {
            let mut c = filled();
            assert_eq!(c.retain(|k, v| *v == k * 10 && !doomed.contains(k)), doomed.len());
            assert_eq!(recency(&c), left, "after dropping {doomed:?}");
            for k in 1..=5 {
                assert_eq!(c.map.contains_key(&k), left.contains(&k));
            }
            // Freed slots are reused before the slab grows, eviction
            // still takes the true tail, and the list stays sound.
            for k in 6..=10 {
                c.insert(k, k * 10);
            }
            assert_eq!(recency(&c), [10, 9, 8, 7, 6]);
            assert_eq!(c.slab.len(), 5);
            assert_eq!(c.get(&8), Some(80));
            assert_eq!(recency(&c), [8, 10, 9, 7, 6]);
        }
    }

    #[test]
    fn invalidate_drops_exactly_the_entries_a_write_can_change() {
        let q = vec![0u64];
        let range = CacheKey::Range { query: q.clone(), tau: 6 };
        let topk = CacheKey::TopK { query: q.clone(), k: 2 };
        let fill = || {
            let cache = ResultCache::new(8);
            // Requested at 6, executed (degraded) at 2; top-k capped at 3.
            cache.store(
                range.clone(),
                CachedResult::Range { ids: Arc::new(vec![3, 7, 9]), effective_tau: 2 },
            );
            cache.store(
                topk.clone(),
                CachedResult::TopK { hits: Arc::new(vec![(7, 0), (4, 1)]), effective_cap: 3 },
            );
            cache
        };
        let survivors =
            |cache: &ResultCache| (cache.lookup(&range).is_some(), cache.lookup(&topk).is_some());
        // (inserted row, removed id) → (range survives, top-k survives, dropped)
        for (inserted, removed, expect) in [
            (None, Some(5), (true, true, 0)),           // a member of neither
            (None, Some(9), (false, true, 1)),          // a member of the range answer
            (None, Some(4), (true, false, 1)),          // a top-k hit only
            (None, Some(7), (false, false, 2)),         // a member of both
            (Some(0b1111u64), None, (true, true, 0)),   // distance 4: outside both radii
            (Some(0b0111), None, (true, false, 1)),     // distance 3: inside the cap only
            (Some(0b0011), None, (false, false, 2)),    // distance 2: inside both
            (Some(0b1111), Some(9), (false, true, 1)),  // an upsert: far row, member id
            (Some(0b0001), Some(5), (false, false, 2)), // an upsert: near row, foreign id
        ] {
            let cache = fill();
            let epoch = cache.epoch();
            let row = inserted.map(|w| [w]);
            cache.invalidate(row.as_ref().map(|r| r.as_slice()), removed);
            let (r, t) = survivors(&cache);
            let st = cache.stats();
            assert_eq!((r, t, st.invalidations), expect, "{inserted:?} {removed:?}");
            assert_eq!(st.len as u64, 2 - st.invalidations);
            assert_eq!(cache.epoch(), epoch + 1, "every write advances the epoch");
            // The cache keeps working after an invalidation.
            cache.store(
                range.clone(),
                CachedResult::Range { ids: Arc::new(vec![1]), effective_tau: 6 },
            );
            assert!(cache.lookup(&range).is_some());
        }
    }

    #[test]
    fn distinct_taus_are_distinct_keys() {
        let cache = ResultCache::new(8);
        let k4 = CacheKey::Range { query: vec![7], tau: 4 };
        let k5 = CacheKey::Range { query: vec![7], tau: 5 };
        cache.store(k4.clone(), CachedResult::Range { ids: Arc::new(vec![1]), effective_tau: 4 });
        assert!(cache.lookup(&k5).is_none());
        assert!(cache.lookup(&k4).is_some());
    }
}
