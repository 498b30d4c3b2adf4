//! Per-model batching knobs.

/// Per-model serving policy: how large a batch may grow and how deep the
/// admission queue runs.
///
/// No request waits for company: an idle worker serves whatever is
/// queued at once, so a batch is whatever built up while the workers
/// were busy. [`max_batch`](BatchConfig::max_batch) caps it, bounding
/// per-batch latency and memory; a smaller
/// [`queue_cap`](BatchConfig::queue_cap) sheds load earlier instead of
/// letting latency grow without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most requests one batch takes into a single fused
    /// `infer_batch_into` call. `1` disables batching — every request
    /// is served alone (the gateway-overhead baseline tier).
    pub max_batch: usize,
    /// Admission bound: requests beyond this many waiting are rejected
    /// with [`GatewayError::Overloaded`](crate::GatewayError::Overloaded)
    /// instead of queued (backpressure, not buffering).
    pub queue_cap: usize,
}

impl BatchConfig {
    /// The defaults: batches of up to 4, 64 queued.
    pub fn new() -> BatchConfig {
        BatchConfig { max_batch: 4, queue_cap: 64 }
    }

    /// Replaces the batch-size cap (clamped to at least 1).
    pub fn with_max_batch(mut self, n: usize) -> BatchConfig {
        self.max_batch = n.max(1);
        self
    }

    /// Replaces the admission bound (clamped to at least 1). A cap
    /// below `max_batch` also caps every batch at `queue_cap`.
    pub fn with_queue_cap(mut self, n: usize) -> BatchConfig {
        self.queue_cap = n.max(1);
        self
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig::new()
    }
}
