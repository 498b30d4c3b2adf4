//! Plan caching: skip repeated PBQP solves for known requests.
//!
//! A serving system sees the same (network, strategy, cost source) triple
//! over and over — every inference request for a deployed model would
//! otherwise re-profile the cost table and re-run the solver. The
//! [`PlanCache`] memoizes legalized [`ExecutionPlan`]s behind an
//! [`Arc`], keyed by:
//!
//! * the **graph fingerprint** ([`DnnGraph::fingerprint`]) — a structural
//!   hash of every layer and edge;
//! * the **strategy key** ([`Strategy::cache_key`]);
//! * the **cost-source key** ([`CostSource::cache_key`]) — sources that
//!   are not pure functions (e.g. wall-clock profilers) report themselves
//!   uncacheable and bypass the cache entirely.
//!
//! The cache is `Sync`: concurrent planners share one instance, and a hit
//! costs a fingerprint plus a map lookup instead of a solve.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pbqp_dnn_graph::DnnGraph;

use crate::{ExecutionPlan, Optimizer, PlanError, Strategy};

/// (graph fingerprint, optimizer-config fingerprint, strategy key,
/// cost-source key).
type Key = (u64, u64, String, String);

/// The sentinel under which [`crate::Optimizer`] cost sources declare
/// themselves non-memoizable (see `CostSource::cache_key`).
const UNCACHEABLE: &str = "uncacheable";

/// A thread-safe memo table of legalized execution plans.
///
/// # Example
///
/// ```
/// use pbqp_dnn_cost::{AnalyticCost, MachineModel};
/// use pbqp_dnn_graph::models;
/// use pbqp_dnn_primitives::registry::{full_library, Registry};
/// use pbqp_dnn_select::{Optimizer, PlanCache, Strategy};
///
/// let registry = Registry::new(full_library());
/// let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
/// let optimizer = Optimizer::new(&registry, &cost);
/// let net = models::alexnet();
///
/// let cache = PlanCache::new();
/// let first = cache.plan(&optimizer, &net, Strategy::Pbqp).unwrap();
/// let again = cache.plan(&optimizer, &net, Strategy::Pbqp).unwrap();
/// // The second request is served from the cache: same plan object.
/// assert!(std::sync::Arc::ptr_eq(&first, &again));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<Key, Arc<ExecutionPlan>>>,
    /// Plans keyed by compiled-artifact fingerprint (see
    /// [`artifact_fingerprint`]) — the front-door compiler's index, kept
    /// separate from the optimizer-keyed map so the two keying schemes
    /// can never collide.
    by_fingerprint: Mutex<HashMap<u64, Arc<ExecutionPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Returns the cached plan for (graph, strategy, cost source), or
    /// plans and inserts it on a miss.
    ///
    /// When the optimizer's cost source is uncacheable (wall-clock
    /// profilers), this degrades to a plain [`Optimizer::plan`] call and
    /// records neither a hit nor a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from the underlying planning call.
    pub fn plan(
        &self,
        optimizer: &Optimizer<'_>,
        graph: &DnnGraph,
        strategy: Strategy,
    ) -> Result<Arc<ExecutionPlan>, PlanError> {
        let source_key = optimizer.source().cache_key();
        if source_key == UNCACHEABLE {
            return Ok(Arc::new(optimizer.plan(graph, strategy)?));
        }
        let key = (
            graph.fingerprint(),
            optimizer_fingerprint(optimizer),
            strategy.cache_key(),
            source_key,
        );
        if let Some(plan) = self.plans.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        // Plan outside the lock: solves can take milliseconds and other
        // threads may be after different keys. A racing duplicate solve is
        // harmless (both compute the same plan; last insert wins).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(optimizer.plan(graph, strategy)?);
        self.plans.lock().expect("cache lock").insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.plans.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to solve.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached plan (e.g. after a cost-model recalibration
    /// that keeps the same cache key).
    pub fn clear(&self) {
        self.plans.lock().expect("cache lock").clear();
        self.by_fingerprint.lock().expect("cache lock").clear();
    }

    /// Returns the plan cached under a compiled-artifact `fingerprint`
    /// (see [`artifact_fingerprint`]), or solves via `solve` and inserts
    /// on a miss. This is the front-door compiler's cache entry point:
    /// recompiling the same (graph, strategy, cost source, library)
    /// quadruple skips the profile and the PBQP solve.
    ///
    /// # Errors
    ///
    /// Propagates [`PlanError`] from `solve`; errors are never cached.
    pub fn plan_by_fingerprint(
        &self,
        fingerprint: u64,
        solve: impl FnOnce() -> Result<ExecutionPlan, PlanError>,
    ) -> Result<Arc<ExecutionPlan>, PlanError> {
        if let Some(plan) = self.by_fingerprint.lock().expect("cache lock").get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        // Solve outside the lock, exactly like [`PlanCache::plan`]: a
        // racing duplicate solve is harmless and last-insert wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(solve()?);
        self.by_fingerprint.lock().expect("cache lock").insert(fingerprint, Arc::clone(&plan));
        Ok(plan)
    }
}

/// The stable identity of a compiled-model artifact: a 64-bit FNV-1a hash
/// over the graph's structural fingerprint, the strategy's cache key, the
/// cost source's cache key and the primitive-library key. Two compiles
/// with the same artifact fingerprint produce the same plan, so the
/// fingerprint keys both [`PlanCache::plan_by_fingerprint`] and the
/// saved artifact's header.
pub fn artifact_fingerprint(
    graph: &DnnGraph,
    strategy: Strategy,
    cost_key: &str,
    library_key: &str,
) -> u64 {
    use std::hash::Hasher;
    let mut h = pbqp_dnn_graph::Fnv1a::default();
    h.write_u64(graph.fingerprint());
    for part in [strategy.cache_key().as_str(), cost_key, library_key] {
        h.write(part.as_bytes());
        h.write_u8(0xff);
    }
    h.finish()
}

/// Fingerprint of the optimizer's registry contents and DT-graph edges:
/// two optimizers sharing a cache must not collide when they select from
/// different primitive libraries or legalize over different DT edge sets
/// (the §8 ensemble example builds exactly such pairs).
fn optimizer_fingerprint(optimizer: &Optimizer<'_>) -> u64 {
    use std::hash::Hasher;
    let mut h = pbqp_dnn_graph::Fnv1a::default();
    let mut eat = |name: &str| {
        h.write(name.as_bytes());
        h.write_u8(0xff); // separator so name concatenations cannot collide
    };
    for prim in optimizer.registry().primitives() {
        eat(&prim.descriptor().name);
    }
    for edge in optimizer.dt_graph().edges() {
        // Name alone is ambiguous across repr edges ("quantize" exists
        // per layout, and i8 permutations reuse the f32 routine names),
        // so the endpoints participate too.
        eat(&format!("{}:{}>{}", edge.name(), edge.from(), edge.to()));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbqp_dnn_cost::{AnalyticCost, MachineModel, MeasuredCost};
    use pbqp_dnn_graph::models;
    use pbqp_dnn_primitives::registry::{full_library, Registry};

    #[test]
    fn hits_share_the_plan_and_misses_partition_by_key() {
        let reg = Registry::new(full_library());
        let intel = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let arm = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
        let net = models::alexnet();
        let cache = PlanCache::new();

        let opt_intel = Optimizer::new(&reg, &intel);
        let a = cache.plan(&opt_intel, &net, Strategy::Pbqp).unwrap();
        let b = cache.plan(&opt_intel, &net, Strategy::Pbqp).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // Different strategy, machine, or graph each miss separately.
        cache.plan(&opt_intel, &net, Strategy::Sum2d).unwrap();
        let opt_arm = Optimizer::new(&reg, &arm);
        cache.plan(&opt_arm, &net, Strategy::Pbqp).unwrap();
        cache.plan(&opt_intel, &models::googlenet(), Strategy::Pbqp).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 4));
        assert_eq!(cache.len(), 4);

        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn optimizers_with_different_dt_graphs_or_registries_do_not_collide() {
        use pbqp_dnn_cost::DtGraph;
        use pbqp_dnn_tensor::transform::DIRECT_TRANSFORMS;

        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let net = models::alexnet();
        let cache = PlanCache::new();

        // The §8 ensemble pattern: same registry and cost source, but a
        // restricted DT edge set. Plans must not be shared across them.
        let full = Optimizer::new(&reg, &cost);
        let restricted = Optimizer::new(&reg, &cost).with_dt_graph(DtGraph::with_edges(
            DIRECT_TRANSFORMS.iter().copied().take(2).collect(),
        ));
        let a = cache.plan(&full, &net, Strategy::Pbqp).unwrap();
        let b = cache.plan(&restricted, &net, Strategy::Pbqp).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "restricted-DT optimizer must plan for itself");

        // A smaller registry must likewise get its own entry.
        let small = Registry::new(full_library().into_iter().take(10).collect());
        let small_opt = Optimizer::new(&small, &cost);
        let c = cache.plan(&small_opt, &net, Strategy::Sum2d).unwrap();
        let d = cache.plan(&full, &net, Strategy::Sum2d).unwrap();
        assert!(!Arc::ptr_eq(&c, &d));
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn uncacheable_sources_bypass_the_cache() {
        let reg = Registry::new(full_library());
        // Wall-clock profiling is not a pure function: never memoized.
        let measured = MeasuredCost::new(1, 1).with_scale(8);
        let opt = Optimizer::new(&reg, &measured);
        let net = models::micro_alexnet();
        let cache = PlanCache::new();
        let a = cache.plan(&opt, &net, Strategy::Sum2d).unwrap();
        let b = cache.plan(&opt, &net, Strategy::Sum2d).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn strategy_cache_keys_are_unique() {
        let mut keys: Vec<String> = Strategy::family_bars()
            .into_iter()
            .chain([
                Strategy::Pbqp,
                Strategy::PbqpHeuristic,
                Strategy::Sum2d,
                Strategy::LocalOptimalChw,
                Strategy::CaffeLike,
                Strategy::VendorLike { vector_width: 8 },
                Strategy::VendorLike { vector_width: 4 },
            ])
            .map(|s| s.cache_key())
            .collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}
