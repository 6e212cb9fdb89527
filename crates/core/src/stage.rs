//! The staged-pipeline abstraction.
//!
//! The paper's methodology is a fixed sequence of transformations —
//! trace the workload, fit Rome descriptions, calibrate target models,
//! solve the NLP, regularize, place — and two of those stages are
//! *pure functions of identifiable inputs*: a calibration table depends
//! only on the device spec, the grid and the seed; a fitted workload
//! set depends only on the trace and the object inventory. This module
//! holds what the layers share about that structure:
//!
//! * [`Stage`] — a typed transformation from an input to an output
//!   that can fail; the facade crate implements it for the trace,
//!   solve, regularize and place stages;
//! * [`StageCache`] — a keyed memo table with hit/miss accounting,
//!   used by sessions to skip recomputation when the same inputs recur
//!   across requests (the session derives the fit and calibration
//!   keys).

use std::sync::Arc;

/// One pipeline stage: a transformation from `Input` to `Output` that
/// can fail with `Error`.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;
    /// How the stage fails.
    type Error;

    /// Runs the transformation.
    fn run(&self, input: &Self::Input) -> Result<Self::Output, Self::Error>;
}

/// Hit/miss counters for one [`StageCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// The counter delta accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Where a [`StageCache`] stood at one moment: its length and
/// counters. A batch worker's cache is a clone taken at a mark and
/// only appended to since, so [`StageCache::absorb`] merges it back
/// from the mark on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheMark {
    len: usize,
    stats: CacheStats,
}

/// A keyed memo table for one stage's outputs.
///
/// Keys are 64-bit content hashes (see `wasla_simlib::hash`). The
/// table is an insertion-ordered vector rather than a hash map:
/// lookups are a short scan, and iteration order stays deterministic
/// for diagnostics and persistence. Values sit behind [`Arc`], so a
/// clone copies `(key, Arc)` pairs and shares every cached value with
/// the cache it came from. A value is never mutated once cached: an
/// entry is appended, or [`StageCache::get_or_update_with`] puts a new
/// `Arc` in its place.
#[derive(Debug)]
pub struct StageCache<V> {
    entries: Vec<(u64, Arc<V>)>,
    stats: CacheStats,
}

impl<V> Clone for StageCache<V> {
    fn clone(&self) -> Self {
        StageCache {
            entries: self.entries.clone(),
            stats: self.stats,
        }
    }
}

impl<V> Default for StageCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> StageCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        StageCache {
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up a key without touching the counters (snapshot reads).
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// Looks up a key, recording a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        if self.entries.iter().any(|(k, _)| *k == key) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.peek(key)
    }

    /// Inserts an output unless the key is already present (first
    /// write wins, so replaying a batch in request order is stable).
    pub fn insert(&mut self, key: u64, value: V) {
        self.insert_shared(key, Arc::new(value));
    }

    fn insert_shared(&mut self, key: u64, value: Arc<V>) {
        if self.peek(key).is_none() {
            self.entries.push((key, value));
        }
    }

    /// The `(key, value)` entries in insertion order, borrowed (the
    /// persistence layer serializes these without draining the cache).
    pub fn entries(&self) -> &[(u64, Arc<V>)] {
        &self.entries
    }

    /// Rebuilds a cache from persisted entries. Counters start at
    /// zero: a restored cache is *warm data* but has served nothing.
    pub fn from_entries(entries: Vec<(u64, V)>) -> Self {
        StageCache {
            entries: entries.into_iter().map(|(k, v)| (k, Arc::new(v))).collect(),
            stats: CacheStats::default(),
        }
    }

    /// This cache's length and counters now.
    pub fn mark(&self) -> CacheMark {
        CacheMark {
            len: self.entries.len(),
            stats: self.stats,
        }
    }

    /// Folds a worker-local cache back in: `local` must be a clone of
    /// this cache taken at `mark`, and this cache may only have been
    /// appended to since. The entries `local` appended after the mark
    /// land first-write-wins in their order, and its counter deltas
    /// since the mark are accumulated. The entries before the mark
    /// are this cache's own and the worker must not have replaced
    /// them, so skipping them is exact, and a merge costs one key scan
    /// per appended entry.
    pub fn absorb(&mut self, local: StageCache<V>, mark: CacheMark) {
        debug_assert!(
            local.entries.len() >= mark.len
                && self.entries.len() >= mark.len
                && local.entries[..mark.len]
                    .iter()
                    .zip(&self.entries)
                    .all(|(a, b)| a.0 == b.0 && Arc::ptr_eq(&a.1, &b.1)),
            "absorbed cache is not a clone of this one taken at the mark, appended to only"
        );
        let delta = local.stats.since(&mark.stats);
        self.stats.hits += delta.hits;
        self.stats.misses += delta.misses;
        for (key, value) in local.entries.into_iter().skip(mark.len) {
            self.insert_shared(key, value);
        }
    }

    /// Returns the cached output for `key`, computing and caching it
    /// on a miss.
    pub fn get_or_insert_with(&mut self, key: u64, compute: impl FnOnce() -> V) -> &V {
        self.get_or_update_with(key, |_| true, |_| compute())
    }

    /// Returns the cached output for `key` if `fresh` accepts it (a
    /// hit). Otherwise (a miss) computes `update` from whatever is
    /// cached under `key` and stores the result in that entry's place,
    /// or appends it when the key is new.
    pub fn get_or_update_with(
        &mut self,
        key: u64,
        fresh: impl FnOnce(&V) -> bool,
        update: impl FnOnce(Option<&V>) -> V,
    ) -> &V {
        let pos = self.entries.iter().position(|(k, _)| *k == key);
        if let Some(pos) = pos.filter(|&p| fresh(&self.entries[p].1)) {
            self.stats.hits += 1;
            return &self.entries[pos].1;
        }
        self.stats.misses += 1;
        let value = Arc::new(update(pos.map(|p| self.entries[p].1.as_ref())));
        let pos = match pos {
            Some(pos) => {
                self.entries[pos].1 = value;
                pos
            }
            None => {
                self.entries.push((key, value));
                self.entries.len() - 1
            }
        };
        &self.entries[pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut c: StageCache<u32> = StageCache::new();
        assert!(c.is_empty());
        assert_eq!(c.get(1), None);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(&10));
        assert_eq!(c.get(2), None);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_or_insert_computes_once() {
        let mut c: StageCache<u32> = StageCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = *c.get_or_insert_with(7, || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 1);
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn get_or_update_replaces_stale_entries_in_place() {
        let mut c: StageCache<Vec<u32>> = StageCache::new();
        c.insert(1, vec![1]);
        c.insert(2, vec![2]);
        let before = c.clone();
        // Fresh: a hit, nothing computed.
        let v = c.get_or_update_with(1, |v| v.contains(&1), |_| unreachable!());
        assert_eq!(v, &vec![1]);
        // Stale: a miss, extended from the cached value, same slot.
        let v = c.get_or_update_with(
            1,
            |v| v.contains(&3),
            |old| {
                let mut v = old.cloned().unwrap_or_default();
                v.push(3);
                v
            },
        );
        assert_eq!(v, &vec![1, 3]);
        // New key: a miss, computed from nothing, appended.
        c.get_or_update_with(
            9,
            |_| true,
            |old| {
                assert!(old.is_none());
                vec![9]
            },
        );
        let keys: Vec<u64> = c.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [1, 2, 9]);
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 2 });
        // The replaced value is a new allocation; clones taken before
        // keep the old one.
        assert_eq!(before.peek(1), Some(&vec![1]));
    }

    #[test]
    fn insert_is_first_write_wins() {
        let mut c: StageCache<u32> = StageCache::new();
        c.insert(1, 10);
        c.insert(1, 99);
        assert_eq!(c.peek(1), Some(&10));
        // peek leaves the counters alone.
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn clones_share_values_and_absorb_merges_appends_first_write_wins() {
        let mut shared: StageCache<String> = StageCache::new();
        shared.insert(1, "one".to_string());
        shared.insert(2, "two".to_string());
        let mark = shared.mark();
        let mut a = shared.clone();
        let mut b = shared.clone();
        assert!(Arc::ptr_eq(&a.entries()[0].1, &shared.entries()[0].1));
        assert!(Arc::ptr_eq(&b.entries()[1].1, &shared.entries()[1].1));

        assert_eq!(a.get(1).map(String::as_str), Some("one"));
        a.get_or_insert_with(3, || "three (a)".to_string());
        a.insert(4, "four".to_string());
        assert_eq!(b.get(5), None);
        b.insert(5, "five".to_string());
        b.insert(3, "three (b)".to_string());
        let a_values: Vec<Arc<String>> = a.entries().iter().map(|(_, v)| v.clone()).collect();

        shared.absorb(a, mark);
        shared.absorb(b, mark);
        let keys: Vec<u64> = shared.entries().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [1, 2, 3, 4, 5]);
        // First write wins: worker a merged first, so its value stays.
        assert_eq!(shared.peek(3).map(String::as_str), Some("three (a)"));
        // Merged values are the workers' own allocations, not copies.
        assert!(Arc::ptr_eq(&shared.entries()[2].1, &a_values[2]));
        // a: one hit, one miss; b: one miss.
        assert_eq!(shared.stats(), CacheStats { hits: 1, misses: 2 });
    }
}
