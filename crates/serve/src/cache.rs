//! Canonical-key LRU caches: the `/plan` response cache and the
//! `/simulate` response cache.
//!
//! `/plan` is a pure function of (platform, workload, scheduler), and the
//! planner solve behind it is the expensive part of a request. The plan
//! cache stores, per canonical request key, the response body and where
//! it came from, so a hit answers `/plan` without touching the planner.
//!
//! `/simulate` responses are byte-deterministic in the canonicalized
//! request (the engine is deterministic in (scenario, spec, seed), and
//! the service pins the effective configuration), so caching the whole
//! response body under [`crate::api::SimulateRequest::canonical`] is
//! sound: a hit serves exactly the bytes a fresh run would produce.
//!
//! Both caches are instances of one thread-safe string-keyed [`LruCache`]
//! with an eviction counter surfaced on `/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::sync::lock;

/// A cached `/plan` result: the exact response body served for it, and
/// its source.
#[derive(Clone)]
pub struct CachedPlan {
    /// The JSON body `/plan` responds with, shared with every response
    /// that serves it.
    pub body: Arc<String>,
    /// How the body's makespan was produced — `"analytic"` (oracle closed
    /// form) or `"engine"` (full-trace DES run). Replayed as the
    /// `X-Answer-Source` header on cache hits.
    pub source: &'static str,
}

/// The `/plan` cache: canonical request key → body + source.
pub type PlanCache = LruCache<Arc<CachedPlan>>;

/// The `/simulate` response cache: canonical request key → response body.
pub type SimCache = LruCache<Arc<String>>;

/// A thread-safe LRU map from canonical request key to a cheaply
/// cloneable value.
///
/// Capacity 0 disables caching (every `get` misses, `insert` is a no-op).
/// Locks recover from poisoning (see the crate's `sync` module).
pub struct LruCache<V: Clone> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    evictions: AtomicU64,
}

struct Inner<V> {
    map: HashMap<String, V>,
    /// Keys ordered least-recently-used first.
    order: Vec<String>,
}

impl<V: Clone> LruCache<V> {
    /// A cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up an entry, marking it most-recently-used on hit.
    pub fn get(&self, key: &str) -> Option<V> {
        let mut inner = lock(&self.inner);
        let hit = inner.map.get(key).cloned()?;
        if let Some(pos) = inner.order.iter().position(|k| k == key) {
            let k = inner.order.remove(pos);
            inner.order.push(k);
        }
        Some(hit)
    }

    /// Insert an entry, evicting the least-recently-used one at capacity.
    pub fn insert(&self, mut key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        // Kept until evicted: drop the spare room the key grew with.
        key.shrink_to_fit();
        let mut inner = lock(&self.inner);
        if inner.map.insert(key.clone(), value).is_none() {
            inner.order.push(key);
            if inner.order.len() > self.capacity {
                let evicted = inner.order.remove(0);
                inner.map.remove(&evicted);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        } else if let Some(pos) = inner.order.iter().position(|k| *k == key) {
            let k = inner.order.remove(pos);
            inner.order.push(k);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted by the LRU policy so far (not replaced-in-place
    /// updates — genuine capacity evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tag: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            body: Arc::new(tag.to_string()),
            source: "engine",
        })
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.insert("a".into(), plan("a"));
        cache.insert("b".into(), plan("b"));
        assert!(cache.get("a").is_some()); // refresh "a"; "b" is now LRU
        cache.insert("c".into(), plan("c"));
        assert!(cache.get("b").is_none(), "LRU entry should be evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1, "one genuine eviction");

        // Re-inserting an existing key is an update, not an eviction.
        cache.insert("a".into(), plan("a2"));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get("a").unwrap().body.as_str(), "a2");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = PlanCache::new(0);
        cache.insert("a".into(), plan("a"));
        assert!(cache.get("a").is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn sim_cache_stores_bodies() {
        let cache = SimCache::new(1);
        cache.insert("k1".into(), Arc::new("body-1".to_string()));
        assert_eq!(cache.get("k1").unwrap().as_str(), "body-1");
        cache.insert("k2".into(), Arc::new("body-2".to_string()));
        assert!(cache.get("k1").is_none());
        assert_eq!(cache.evictions(), 1);
    }
}
