//! The plan cache: compile once per (model, topology), serve forever.
//!
//! Dynasparse's compilation (partition sizing, execution-scheme selection,
//! static sparsity profiling, adjacency normalization) depends only on the
//! model and the graph topology — never on a request's feature values.  A
//! serving deployment that sees repeated traffic against known topologies
//! therefore should never recompile: [`PlanCache`] memoizes
//! [`Planner::plan`] behind the structural [`PlanFingerprint`], with LRU
//! eviction and hit/miss accounting.

use crate::fingerprint::PlanFingerprint;
use dynasparse::{CompiledPlan, DynasparseError, Planner};
use dynasparse_graph::GraphDataset;
use dynasparse_model::GnnModel;
use dynasparse_telemetry::{CounterId, GaugeId, Registry};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Hit/miss/eviction counters of a [`PlanCache`], plus a resident-bytes
/// gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (no compilation).
    pub hits: u64,
    /// Lookups that had to compile a new plan.
    pub misses: u64,
    /// Plans dropped to make room for newer ones.
    pub evictions: u64,
    /// Plans dropped by explicit [`PlanCache::clear`] calls — counted
    /// separately from `evictions` so dashboards can tell pressure-driven
    /// drops from administrative flushes, and so cleared plans are not
    /// silently lost from the accounting.
    pub clears: u64,
    /// Approximate bytes currently resident in the cache (a gauge, not a
    /// counter): the sum of [`CompiledPlan::approx_bytes`] over cached
    /// entries, maintained across inserts, evictions and clears.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served without compiling, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    plan: Arc<CompiledPlan>,
    last_used: u64,
    /// `plan.approx_bytes()`, captured at insert so eviction accounting
    /// never re-walks the plan.
    bytes: u64,
}

/// An LRU cache of compiled plans keyed by [`PlanFingerprint`].
///
/// The cache owns a [`Planner`]; [`PlanCache::get_or_plan`] is the only
/// entry point a serving deployment needs: it fingerprints the (model,
/// dataset) pair, returns the shared plan on a hit, and compiles + inserts
/// on a miss (evicting the least-recently-used plan when at capacity).
/// Returned plans are `Arc`-shared, so evicting a plan never invalidates
/// sessions still serving from it.
///
/// ```
/// use dynasparse::Planner;
/// use dynasparse_graph::Dataset;
/// use dynasparse_model::GnnModel;
/// use dynasparse_serve::PlanCache;
/// use std::sync::Arc;
///
/// let dataset = Dataset::Cora.spec().generate_scaled(42, 0.08);
/// let model = GnnModel::gcn(dataset.features.dim(), 8, dataset.spec.num_classes, 7);
///
/// let mut cache = PlanCache::new(Planner::default(), 4);
/// let first = cache.get_or_plan(&model, &dataset).unwrap();   // compiles
/// let second = cache.get_or_plan(&model, &dataset).unwrap();  // cache hit
/// assert!(Arc::ptr_eq(&first, &second));
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct PlanCache {
    planner: Planner,
    capacity: usize,
    entries: HashMap<PlanFingerprint, CacheEntry>,
    clock: u64,
    stats: CacheStats,
    telemetry: Arc<Registry>,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans, compiling misses
    /// with `planner`.  A zero capacity is clamped to one (a cache that can
    /// hold nothing would recompile every request, silently).  Telemetry
    /// publishes into the process-global registry; use
    /// [`PlanCache::with_telemetry`] to redirect it.
    pub fn new(planner: Planner, capacity: usize) -> Self {
        Self::with_telemetry(planner, capacity, Registry::global())
    }

    /// Like [`PlanCache::new`], publishing hit/miss/eviction counters and
    /// the resident-bytes gauge into `telemetry` instead of the global
    /// registry.
    pub fn with_telemetry(planner: Planner, capacity: usize, telemetry: Arc<Registry>) -> Self {
        PlanCache {
            planner,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            telemetry,
        }
    }

    /// The plan for `(model, dataset)`, compiled at most once: a hit
    /// returns the cached `Arc` (bumping its recency), a miss runs
    /// [`Planner::plan`] and caches the result, evicting the
    /// least-recently-used entry if the cache is full.
    pub fn get_or_plan(
        &mut self,
        model: &GnnModel,
        dataset: &GraphDataset,
    ) -> Result<Arc<CompiledPlan>, DynasparseError> {
        let key = PlanFingerprint::of(model, dataset);
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.clock;
            self.stats.hits += 1;
            self.telemetry.incr(0, CounterId::PlanCacheHits);
            return Ok(Arc::clone(&entry.plan));
        }
        self.stats.misses += 1;
        self.telemetry.incr(0, CounterId::PlanCacheMisses);
        let plan = self.planner.plan_shared(model, dataset)?;
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        let bytes = plan.approx_bytes() as u64;
        self.stats.resident_bytes += bytes;
        self.publish_resident_bytes();
        self.entries.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                last_used: self.clock,
                bytes,
            },
        );
        Ok(plan)
    }

    /// Whether a plan for `(model, dataset)` is cached, without touching
    /// recency or stats.
    pub fn contains(&self, model: &GnnModel, dataset: &GraphDataset) -> bool {
        self.entries
            .contains_key(&PlanFingerprint::of(model, dataset))
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of plans retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss/eviction counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every cached plan, recording the dropped entries in
    /// [`CacheStats::clears`] (counters are retained, the resident-bytes
    /// gauge falls to zero).  Outstanding `Arc`s handed out earlier remain
    /// valid.
    pub fn clear(&mut self) {
        self.stats.clears += self.entries.len() as u64;
        self.stats.resident_bytes = 0;
        self.entries.clear();
        self.publish_resident_bytes();
    }

    fn evict_lru(&mut self) {
        if let Some(&key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k)
        {
            if let Some(entry) = self.entries.remove(&key) {
                self.stats.evictions += 1;
                self.telemetry.incr(0, CounterId::PlanCacheEvictions);
                // Entry bytes were captured at insert and the gauge only ever
                // accumulated them, so the subtraction cannot underflow — but
                // a saturating write keeps the gauge a gauge (never a wrapped
                // near-u64::MAX value) if that invariant is ever broken.
                debug_assert!(
                    self.stats.resident_bytes >= entry.bytes,
                    "resident-bytes gauge under-counts cached plans"
                );
                self.stats.resident_bytes = self.stats.resident_bytes.saturating_sub(entry.bytes);
                self.publish_resident_bytes();
            }
        }
    }

    fn publish_resident_bytes(&self) {
        self.telemetry.gauge_set(
            GaugeId::PlanCacheResidentBytes,
            self.stats.resident_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynasparse_graph::Dataset;
    use dynasparse_model::GnnModelKind;

    fn dataset(seed: u64) -> GraphDataset {
        Dataset::Cora.spec().generate_scaled(seed, 0.08)
    }

    fn model_for(ds: &GraphDataset, seed: u64) -> GnnModel {
        GnnModel::standard(
            GnnModelKind::Gcn,
            ds.features.dim(),
            8,
            ds.spec.num_classes,
            seed,
        )
    }

    #[test]
    fn hits_reuse_the_same_plan_allocation() {
        let ds = dataset(1);
        let model = model_for(&ds, 1);
        let mut cache = PlanCache::new(Planner::default(), 4);
        let a = cache.get_or_plan(&model, &ds).unwrap();
        let b = cache.get_or_plan(&model, &ds).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached Arc");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                clears: 0,
                resident_bytes: a.approx_bytes() as u64,
            }
        );
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_topologies_compile_distinct_plans() {
        let a = dataset(1);
        let b = dataset(2);
        let model = model_for(&a, 1);
        let mut cache = PlanCache::new(Planner::default(), 4);
        let pa = cache.get_or_plan(&model, &a).unwrap();
        let pb = cache.get_or_plan(&model, &b).unwrap();
        assert!(!Arc::ptr_eq(&pa, &pb));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&model, &a) && cache.contains(&model, &b));
    }

    #[test]
    fn lru_eviction_drops_the_coldest_plan_but_not_live_sessions() {
        let (d1, d2, d3) = (dataset(1), dataset(2), dataset(3));
        let model = model_for(&d1, 1);
        let mut cache = PlanCache::new(Planner::default(), 2);
        let p1 = cache.get_or_plan(&model, &d1).unwrap();
        cache.get_or_plan(&model, &d2).unwrap();
        // Touch d1 so d2 becomes the LRU victim.
        cache.get_or_plan(&model, &d1).unwrap();
        cache.get_or_plan(&model, &d3).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&model, &d1));
        assert!(!cache.contains(&model, &d2), "d2 was least recently used");
        assert!(cache.contains(&model, &d3));
        // The evicted-or-not plan we still hold keeps serving.
        let mut session = p1.session(&[dynasparse::MappingStrategy::Dynamic]);
        assert!(session.infer(&d1.features).is_ok());
        // Re-requesting the evicted topology recompiles (a miss, not a hit).
        let misses = cache.stats().misses;
        cache.get_or_plan(&model, &d2).unwrap();
        assert_eq!(cache.stats().misses, misses + 1);
    }

    #[test]
    fn zero_capacity_is_clamped_and_plan_errors_propagate() {
        let ds = dataset(1);
        let mut cache = PlanCache::new(Planner::default(), 0);
        assert_eq!(cache.capacity(), 1);
        let mut bad = model_for(&ds, 1);
        bad.weights.clear();
        assert!(cache.get_or_plan(&bad, &ds).is_err());
        // A failed compile caches nothing.
        assert!(cache.is_empty());
        let good = model_for(&ds, 1);
        cache.get_or_plan(&good, &ds).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn clears_are_counted_and_the_byte_gauge_tracks_residency() {
        let (d1, d2) = (dataset(1), dataset(2));
        let model = model_for(&d1, 1);
        let mut cache = PlanCache::new(Planner::default(), 1);
        let p1 = cache.get_or_plan(&model, &d1).unwrap();
        assert_eq!(cache.stats().resident_bytes, p1.approx_bytes() as u64);
        // Inserting at capacity evicts p1 and the gauge tracks the swap.
        let p2 = cache.get_or_plan(&model, &d2).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident_bytes, p2.approx_bytes() as u64);
        // An explicit clear records the dropped entries and zeroes the
        // gauge — plans no longer vanish without a trace.
        cache.clear();
        assert_eq!(cache.stats().clears, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(cache.stats().evictions, 1, "clears are not evictions");
        cache.get_or_plan(&model, &d1).unwrap();
        cache.clear();
        assert_eq!(cache.stats().clears, 2);
    }
}
