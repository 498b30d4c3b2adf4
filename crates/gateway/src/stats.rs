//! Per-model serving statistics: admission counters, the full-batch
//! count, an honest batch-size histogram, and exact latency percentiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Latency samples kept for exact percentiles; beyond this the
/// percentile basis stops growing (counters keep counting).
const LATENCY_SAMPLE_CAP: usize = 1 << 20;

/// A point-in-time snapshot of one model's serving statistics — see
/// [`Gateway::stats`](crate::Gateway::stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests rejected with `Overloaded` (backpressure).
    pub rejected: u64,
    /// Requests served (fulfilled with a response).
    pub served: u64,
    /// Batches served.
    pub batches: u64,
    /// Batches that left full (`max_batch` requests): the queue had
    /// outgrown what one batch takes.
    pub flushed_by_size: u64,
    /// `batch_histogram[n]` = batches that coalesced exactly `n`
    /// requests (`[0]` is unused). The honest record of how much
    /// coalescing actually happened at the offered load.
    pub batch_histogram: Vec<u64>,
    /// Median admission-to-completion latency, in microseconds.
    pub p50_latency_us: u64,
    /// 99th-percentile admission-to-completion latency, in microseconds.
    pub p99_latency_us: u64,
    /// The model generation currently serving (bumped per hot-swap).
    pub generation: u64,
    /// The serving engine's *plan* generation: bumped whenever the
    /// engine re-plans in place (fault quarantine or an autotune
    /// re-optimization). Orthogonal to `generation`, which tracks
    /// whole-artifact model swaps through the gateway.
    pub engine_plan_generation: u64,
}

impl ModelStats {
    /// Mean served batch size — the one-number coalescing summary.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.served as f64 / self.batches as f64
    }
}

/// The live counters behind a [`ModelStats`] snapshot.
pub(crate) struct StatsInner {
    admitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    flushed_by_size: AtomicU64,
    histogram: Mutex<Vec<u64>>,
    latencies_us: Mutex<Vec<u64>>,
}

impl StatsInner {
    pub(crate) fn new() -> StatsInner {
        StatsInner {
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            flushed_by_size: AtomicU64::new(0),
            histogram: Mutex::new(Vec::new()),
            latencies_us: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served batch of `size` requests; `full` when it took
    /// `max_batch`.
    pub(crate) fn record_batch(&self, size: usize, full: bool) {
        self.served.fetch_add(size as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if full {
            self.flushed_by_size.fetch_add(1, Ordering::Relaxed);
        }
        let mut histogram = self.histogram.lock().unwrap_or_else(|e| e.into_inner());
        if histogram.len() <= size {
            histogram.resize(size + 1, 0);
        }
        histogram[size] += 1;
    }

    pub(crate) fn record_latency_us(&self, us: u64) {
        let mut lat = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner());
        if lat.len() < LATENCY_SAMPLE_CAP {
            lat.push(us);
        }
    }

    pub(crate) fn snapshot(&self, generation: u64, engine_plan_generation: u64) -> ModelStats {
        let histogram = self.histogram.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut lat = self.latencies_us.lock().unwrap_or_else(|e| e.into_inner()).clone();
        lat.sort_unstable();
        ModelStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            flushed_by_size: self.flushed_by_size.load(Ordering::Relaxed),
            batch_histogram: histogram,
            p50_latency_us: percentile(&lat, 0.50),
            p99_latency_us: percentile(&lat, 0.99),
            generation,
            engine_plan_generation,
        }
    }
}

/// Exact percentile over an ascending-sorted sample (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_over_the_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn histogram_tracks_batch_sizes_and_causes() {
        let stats = StatsInner::new();
        stats.record_batch(4, true);
        stats.record_batch(4, true);
        stats.record_batch(1, false);
        let snap = stats.snapshot(3, 2);
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.served, 9);
        assert_eq!(snap.flushed_by_size, 2);
        assert_eq!(snap.batch_histogram[4], 2);
        assert_eq!(snap.batch_histogram[1], 1);
        assert_eq!(snap.generation, 3);
        assert_eq!(snap.engine_plan_generation, 2);
        assert!((snap.mean_batch_size() - 3.0).abs() < 1e-9);
    }
}
