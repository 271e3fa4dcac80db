//! Content-addressed response cache: canonical request bytes → planned
//! report payloads, LRU-evicted under a byte budget.
//!
//! Determinism is what makes this cache *correct* rather than merely
//! fast: a [`SubmitBatch`](crate::SubmitBatch) fully determines its
//! report payload (the workspace's bit-identity contract), so a hit may
//! be served without planning anything — the returned payload is
//! guaranteed byte-identical to a recompute, which
//! `crates/wire/tests/cache_bytes.rs` pins at the wire level. Keys are
//! the canonical bytes of [`SubmitBatch::cache_key`](crate::SubmitBatch::cache_key),
//! so two requests share an entry exactly when their wire encodings are
//! byte-identical.
//!
//! The cache is shared-state with interior locking (one short mutex per
//! operation, values handed out as `Arc` clones), sized by the
//! deterministic cost model of [`entry_cost`], and observable through
//! [`CacheStats`] — which upholds `hits + misses == lookups` and
//! `bytes <= budget` at every externally visible instant
//! (`crates/server/tests/cache_props.rs` proves both under concurrency).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use qrm_control::pipeline::PipelineReport;
use qrm_core::grid::AtomGrid;

use crate::stats::CacheStats;

/// Fixed per-entry bookkeeping charge (map nodes, recency index,
/// counters), in bytes.
const ENTRY_OVERHEAD: usize = 64;

/// Fixed per-report and per-round charges covering the non-grid fields
/// (counts, flags, the two `f64`s) plus container headers.
const REPORT_OVERHEAD: usize = 32;
const ROUND_OVERHEAD: usize = 48;

/// The grid's bit-plane storage: one `u64` word per 64 columns, per
/// row, plus the three dimension fields.
fn grid_cost(grid: &AtomGrid) -> usize {
    grid.width().div_ceil(64) * grid.height() * 8 + 24
}

/// The deterministic byte-cost model the cache budgets with: the key's
/// own bytes plus, per report, its final-state grid and every round's
/// post-round grid (the dominant storage, counted exactly from the
/// grids' word layout) plus fixed per-container overheads.
///
/// The model is part of the cache's *observable contract* — the
/// `bytes` field of [`CacheStats`] is exactly the sum of this function
/// over the resident entries, which is what lets the property suite
/// assert the byte budget is never exceeded.
#[must_use]
pub fn entry_cost(key: &[u8], reports: &[PipelineReport]) -> usize {
    let payload: usize = reports
        .iter()
        .map(|report| {
            REPORT_OVERHEAD
                + grid_cost(&report.final_state)
                + report
                    .rounds
                    .iter()
                    .map(|round| ROUND_OVERHEAD + grid_cost(&round.state))
                    .sum::<usize>()
        })
        .sum();
    ENTRY_OVERHEAD + key.len() + payload
}

/// One resident entry: the shared payload, its charged cost, and its
/// position in the recency order.
struct Entry {
    reports: Arc<Vec<PipelineReport>>,
    cost: usize,
    stamp: u64,
}

#[derive(Default)]
struct Inner {
    /// Key → entry. A `BTreeMap` keeps iteration deterministic, which
    /// keeps every observable behaviour of the cache reproducible.
    entries: BTreeMap<Vec<u8>, Entry>,
    /// Recency index: stamp → key, smallest stamp = least recently
    /// used. Stamps are unique (a counter), so this is a total order.
    recency: BTreeMap<u64, Vec<u8>>,
    next_stamp: u64,
    bytes: usize,
    peak_bytes: usize,
    lookups: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Inner {
    /// Counts a lookup and a hit if `key` is resident, refreshing it to
    /// most-recently-used; an absent key touches no counter.
    fn hit(&mut self, key: &[u8]) -> Option<Arc<Vec<PipelineReport>>> {
        let reports = Arc::clone(&self.entries.get(key)?.reports);
        self.lookups += 1;
        self.hits += 1;
        self.touch(key);
        Some(reports)
    }

    fn count_miss(&mut self) {
        self.lookups += 1;
        self.misses += 1;
    }

    /// Moves `key`'s entry to most-recently-used.
    fn touch(&mut self, key: &[u8]) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let entry = self.entries.get_mut(key).expect("touched key is resident");
        self.recency.remove(&entry.stamp);
        entry.stamp = stamp;
        self.recency.insert(stamp, key.to_vec());
    }

    /// Drops least-recently-used entries until `bytes <= budget`.
    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget {
            let (&stamp, _) = self
                .recency
                .iter()
                .next()
                .expect("over-budget cache has a resident entry");
            let key = self.recency.remove(&stamp).expect("stamp indexed");
            let entry = self.entries.remove(&key).expect("recency key resident");
            self.bytes -= entry.cost;
            self.evictions += 1;
        }
    }
}

/// The content-addressed LRU response cache behind
/// [`PlanService`](crate::PlanService): canonical request bytes →
/// shared report payloads, bounded by a byte budget.
///
/// A budget of `0` disables the cache entirely (the default —
/// [`PlanServiceBuilder::cache_bytes`](crate::PlanServiceBuilder::cache_bytes)
/// opts in). All methods are `&self` and safe to call from any number
/// of threads.
pub struct ResponseCache {
    budget: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResponseCache")
            .field("budget_bytes", &self.budget)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .finish_non_exhaustive()
    }
}

impl ResponseCache {
    /// Creates a cache holding at most `budget_bytes` of entries
    /// (measured by [`entry_cost`]); `0` disables caching.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        ResponseCache {
            budget: budget_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether the cache stores anything at all (`budget > 0`).
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// The configured byte budget.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("response cache poisoned")
    }

    /// Looks `key` up, counting the lookup as a hit or a miss. A hit
    /// refreshes the entry to most-recently-used and returns the
    /// shared payload.
    pub fn lookup(&self, key: &[u8]) -> Option<Arc<Vec<PipelineReport>>> {
        let mut inner = self.lock();
        let reports = inner.hit(key);
        if reports.is_none() {
            inner.count_miss();
        }
        reports
    }

    /// [`lookup`](Self::lookup) for a hit only: a resident `key` counts
    /// a lookup and a hit and refreshes the entry, while an absent key
    /// touches no counter, so a caller that goes on to compute the
    /// payload counts its miss then, through
    /// [`count_miss`](Self::count_miss).
    pub fn hit(&self, key: &[u8]) -> Option<Arc<Vec<PipelineReport>>> {
        self.lock().hit(key)
    }

    /// Counts a lookup that missed: the other half of [`hit`](Self::hit).
    pub fn count_miss(&self) {
        self.lock().count_miss();
    }

    /// Stores `reports` under `key` as the most-recently-used entry,
    /// evicting least-recently-used entries until the budget holds
    /// again. Re-inserting a resident key replaces its payload and
    /// refreshes its recency. An entry whose [`entry_cost`] alone
    /// exceeds the budget is not stored (evicting everything else
    /// still could not make it fit); a disabled cache stores nothing.
    pub fn insert(&self, key: Vec<u8>, reports: Arc<Vec<PipelineReport>>) {
        let cost = entry_cost(&key, &reports);
        if cost > self.budget {
            return;
        }
        let mut inner = self.lock();
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        if let Some(old) = inner.entries.remove(&key) {
            inner.recency.remove(&old.stamp);
            inner.bytes -= old.cost;
        }
        inner.bytes += cost;
        inner.insertions += 1;
        inner.recency.insert(stamp, key.clone());
        inner.entries.insert(
            key,
            Entry {
                reports,
                cost,
                stamp,
            },
        );
        inner.evict_to(self.budget);
        inner.peak_bytes = inner.peak_bytes.max(inner.bytes);
    }

    /// Whether `key` is resident, **without** touching recency or the
    /// hit/miss counters — a pure probe for diagnostics and the
    /// property suite.
    #[must_use]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One consistent counter snapshot. `hits + misses == lookups` and
    /// `bytes <= budget_bytes` hold in every snapshot, under any
    /// concurrency.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            lookups: inner.lookups,
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.entries.len() as u64,
            bytes: inner.bytes as u64,
            peak_bytes: inner.peak_bytes as u64,
            budget_bytes: self.budget as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(shots: usize) -> Arc<Vec<PipelineReport>> {
        let grid = AtomGrid::new(8, 8).expect("grid");
        Arc::new(
            (0..shots)
                .map(|_| PipelineReport {
                    rounds: Vec::new(),
                    final_state: grid.clone(),
                    filled: true,
                })
                .collect(),
        )
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = ResponseCache::new(0);
        assert!(!cache.enabled());
        cache.insert(vec![1], payload(1));
        assert!(cache.is_empty());
        assert_eq!(cache.lookup(&[1]), None);
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.misses, stats.insertions), (1, 1, 0));
    }

    #[test]
    fn hit_returns_the_stored_payload_and_counts() {
        let cache = ResponseCache::new(1 << 20);
        let reports = payload(2);
        cache.insert(vec![7], Arc::clone(&reports));
        assert_eq!(cache.lookup(&[7]).as_deref(), Some(reports.as_ref()));
        assert_eq!(cache.lookup(&[8]), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry_cost(&[7], &reports) as u64);
    }

    #[test]
    fn hit_counts_only_hits_and_count_miss_only_misses() {
        let cache = ResponseCache::new(1 << 20);
        let reports = payload(1);
        cache.insert(vec![7], Arc::clone(&reports));
        assert_eq!(cache.hit(&[8]), None);
        assert_eq!(cache.stats().lookups, 0, "an absent key counts nothing");
        assert_eq!(cache.hit(&[7]).as_deref(), Some(reports.as_ref()));
        cache.count_miss();
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 1, 1));
    }

    #[test]
    fn lru_eviction_is_exact_and_lookup_refreshes() {
        let one = payload(1);
        let cost = entry_cost(&[0], &one);
        // Room for exactly two entries.
        let cache = ResponseCache::new(2 * cost);
        cache.insert(vec![0], Arc::clone(&one));
        cache.insert(vec![1], Arc::clone(&one));
        // Refresh key 0 so key 1 becomes the LRU victim.
        assert!(cache.lookup(&[0]).is_some());
        cache.insert(vec![2], Arc::clone(&one));
        assert!(cache.contains(&[0]));
        assert!(!cache.contains(&[1]));
        assert!(cache.contains(&[2]));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.budget_bytes);
    }

    #[test]
    fn oversized_entries_are_rejected_outright() {
        let one = payload(1);
        let cache = ResponseCache::new(entry_cost(&[0], &one) - 1);
        cache.insert(vec![0], one);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn reinserting_a_key_replaces_without_double_charging() {
        let cache = ResponseCache::new(1 << 20);
        cache.insert(vec![3], payload(1));
        cache.insert(vec![3], payload(2));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.bytes, entry_cost(&[3], &payload(2)) as u64);
    }
}
