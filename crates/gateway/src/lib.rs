//! Work-conserving serving gateway: multi-tenant serving whose batches
//! form only under load.
//!
//! A [`Gateway`] owns a fleet of serving engines behind a model registry
//! keyed by artifact fingerprint. Callers [`submit`](Gateway::submit)
//! single requests. An idle worker serves whatever is queued **at once**
//! — no request waits for company — so a batch is exactly what built up
//! while the workers were busy: at light load every request is served
//! alone, under saturation batches grow toward `max_batch` and run
//! through the fused batch execution path (`Session::infer_batch_into`).
//! Admission is bounded ([`BatchConfig`]): past `queue_cap` waiting
//! requests, submits are rejected with [`GatewayError::Overloaded`] —
//! backpressure, not unbounded buffering.
//!
//! Everything is built on std threads (no async runtime): the workers
//! park on one condvar'd FIFO of model fingerprints, and a model is on it
//! at most once. A worker takes at most `max_batch` requests of the model
//! it popped; if more remain, it puts the model back at the end of the
//! FIFO before executing, so models take turns and another worker can
//! take the leftovers.
//!
//! # Hot swap
//!
//! Re-registering a model under an existing fingerprint atomically
//! replaces the serving engine and bumps the model's **generation**.
//! Every request is stamped with the generation current at admission and
//! holds its version alive; a batch is a same-generation FIFO run, so
//! batches never mix generations and in-flight requests are served —
//! bit-exactly — by the engine that admitted them. Zero requests are
//! dropped or double-served across a swap.
//!
//! # Observability
//!
//! [`Gateway::stats`] reports per-model admission/rejection/serve
//! counters, the number of batches that left full, an honest batch-size
//! histogram and exact p50/p99 latency; [`Gateway::health`] passes
//! through the serving engine's fault-containment vitals. The
//! `gateway.flush` failpoint ([`pbqp_dnn::faults`]) injects
//! delays/errors/panics into the flush path for chaos testing.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn::prelude::*;
//! use pbqp_dnn_gateway::{BatchConfig, Gateway};
//!
//! let net = models::micro_alexnet();
//! let weights = Weights::random(&net, 42);
//! let model = Compiler::new(CompileOptions::new()).compile(&net, &weights).unwrap();
//!
//! let gateway = Gateway::new();
//! let fp = gateway.register_with(&model, BatchConfig::new().with_max_batch(4));
//!
//! // Submit a burst; whatever queues behind a busy worker is served as
//! // one fused batch.
//! let (c, h, w) = net.infer_shapes().unwrap()[0];
//! let inputs: Vec<Tensor> =
//!     (0..4).map(|i| Tensor::random(c, h, w, Layout::Chw, 7 + i)).collect();
//! let tickets: Vec<_> =
//!     inputs.iter().map(|x| gateway.submit(fp, x.clone()).unwrap()).collect();
//!
//! // Await each response: bit-identical to serving the input alone.
//! let engine = model.engine();
//! for (input, ticket) in inputs.iter().zip(tickets) {
//!     let response = ticket.wait().unwrap();
//!     assert_eq!(response.output.data(), engine.infer(input).unwrap().data());
//!     assert_eq!(response.generation, 0);
//! }
//!
//! let stats = gateway.stats(fp).unwrap();
//! assert_eq!(stats.served, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod stats;
mod ticket;

pub use config::BatchConfig;
pub use error::GatewayError;
pub use stats::ModelStats;
pub use ticket::{Response, Ticket};

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use pbqp_dnn::faults;
use pbqp_dnn::tensor::Tensor;
use pbqp_dnn::{CompiledModel, Engine, Health, Session};

use stats::StatsInner;
use ticket::TicketCell;

/// One registered engine generation. Requests hold their admitted
/// version alive across a hot-swap, so the swap never drops them.
struct ModelVersion {
    engine: Engine,
    generation: u64,
}

/// A queued request: its input, its completion handle, the version that
/// admitted it, and when — the latency clock starts at admission.
struct PendingRequest {
    input: Tensor,
    cell: Arc<TicketCell>,
    version: Arc<ModelVersion>,
    admitted: Instant,
}

/// One model's admission queue. `scheduled` is true while the model's
/// fingerprint is on the job FIFO or popped by a worker that has not yet
/// drained — so each model has at most one job, and a submit only
/// enqueues one when `scheduled` was false.
struct PendingQueue {
    items: VecDeque<PendingRequest>,
    scheduled: bool,
}

/// Everything the gateway holds per registered fingerprint.
struct ModelEntry {
    config: BatchConfig,
    pending: Mutex<PendingQueue>,
    current: RwLock<Arc<ModelVersion>>,
    stats: StatsInner,
}

impl ModelEntry {
    fn current_version(&self) -> Arc<ModelVersion> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// State shared by the gateway handle and the worker pool. `jobs` is the
/// FIFO of fingerprints of models with queued requests.
struct Inner {
    registry: RwLock<HashMap<u64, Arc<ModelEntry>>>,
    jobs: Mutex<VecDeque<u64>>,
    jobs_cv: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            registry: RwLock::new(HashMap::new()),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn entry(&self, fingerprint: u64) -> Option<Arc<ModelEntry>> {
        self.registry.read().unwrap_or_else(|e| e.into_inner()).get(&fingerprint).cloned()
    }

    fn enqueue(&self, fingerprint: u64) {
        let mut jobs = lock_recover(&self.jobs);
        jobs.push_back(fingerprint);
        self.jobs_cv.notify_one();
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The adaptive batching gateway — see the [crate docs](self) for the
/// serving model and the [example](self#example) for the submit/await
/// flow.
pub struct Gateway {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// A gateway with the default worker pool (2 workers).
    pub fn new() -> Gateway {
        Gateway::with_workers(2)
    }

    /// A gateway with `workers` worker threads (clamped to at least 1)
    /// and no other thread. Workers are where batches execute; more
    /// workers overlap batches on multi-core hosts.
    pub fn with_workers(workers: usize) -> Gateway {
        let inner = Arc::new(Inner::new());
        let mut threads = Vec::new();
        for i in 0..workers.max(1) {
            let worker_inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gateway-worker-{i}"))
                    .spawn(move || worker_loop(&worker_inner))
                    .expect("spawn gateway worker"),
            );
        }
        Gateway { inner, threads }
    }

    /// Registers `model` under its artifact fingerprint with the default
    /// [`BatchConfig`], or **hot-swaps** it in if the fingerprint is
    /// already registered. Returns the fingerprint (the submit key).
    ///
    /// A hot-swap atomically replaces the serving engine and bumps the
    /// model's generation. Requests already admitted keep their
    /// generation's engine (no drops, no mixed batches); requests
    /// admitted after the swap are served by the new engine. The
    /// original registration's `BatchConfig` stays in force.
    pub fn register(&self, model: &CompiledModel) -> u64 {
        self.register_with(model, BatchConfig::new())
    }

    /// [`Gateway::register`] with an explicit batching policy (ignored
    /// on hot-swap — the first registration's policy stays).
    pub fn register_with(&self, model: &CompiledModel, config: BatchConfig) -> u64 {
        let fingerprint = model.fingerprint();
        let engine = model.engine();
        let mut registry = self.inner.registry.write().unwrap_or_else(|e| e.into_inner());
        match registry.get(&fingerprint) {
            Some(entry) => {
                let mut current = entry.current.write().unwrap_or_else(|e| e.into_inner());
                let generation = current.generation + 1;
                *current = Arc::new(ModelVersion { engine, generation });
            }
            None => {
                registry.insert(
                    fingerprint,
                    Arc::new(ModelEntry {
                        config,
                        pending: Mutex::new(PendingQueue {
                            items: VecDeque::new(),
                            scheduled: false,
                        }),
                        current: RwLock::new(Arc::new(ModelVersion { engine, generation: 0 })),
                        stats: StatsInner::new(),
                    }),
                );
            }
        }
        fingerprint
    }

    /// Submits one request for the model registered under `fingerprint`
    /// and returns its completion [`Ticket`]. The request is validated
    /// at the door, stamped with the current generation, and served by
    /// the next idle worker together with whatever else of this model
    /// queued behind a busy one (at most `max_batch`).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownModel`] for an unregistered fingerprint,
    /// [`GatewayError::BadRequest`] when the input fails the model's
    /// admission check, [`GatewayError::Overloaded`] when the model's
    /// queue is at capacity, [`GatewayError::ShuttingDown`] after
    /// shutdown began.
    pub fn submit(&self, fingerprint: u64, input: Tensor) -> Result<Ticket, GatewayError> {
        if self.inner.shutdown.load(Ordering::Relaxed) {
            return Err(GatewayError::ShuttingDown);
        }
        let entry = self.inner.entry(fingerprint).ok_or(GatewayError::UnknownModel(fingerprint))?;
        let version = entry.current_version();
        version
            .engine
            .validate_input(&input)
            .map_err(|e| GatewayError::BadRequest(e.to_string()))?;
        let cell = TicketCell::new();
        let schedule = {
            let mut pending = lock_recover(&entry.pending);
            if pending.items.len() >= entry.config.queue_cap {
                entry.stats.reject();
                return Err(GatewayError::Overloaded {
                    fingerprint,
                    queued: pending.items.len(),
                    limit: entry.config.queue_cap,
                });
            }
            pending.items.push_back(PendingRequest {
                input,
                cell: Arc::clone(&cell),
                version,
                admitted: Instant::now(),
            });
            entry.stats.admit();
            !std::mem::replace(&mut pending.scheduled, true)
        };
        if schedule {
            self.inner.enqueue(fingerprint);
        }
        Ok(Ticket { cell })
    }

    /// Submit-and-wait convenience: blocks the calling thread until the
    /// request is served.
    ///
    /// # Errors
    ///
    /// Same contract as [`Gateway::submit`] plus anything the serving
    /// side reports through the ticket.
    pub fn infer(&self, fingerprint: u64, input: Tensor) -> Result<Response, GatewayError> {
        self.submit(fingerprint, input)?.wait()
    }

    /// A point-in-time statistics snapshot for one model, or `None` if
    /// the fingerprint is unregistered.
    pub fn stats(&self, fingerprint: u64) -> Option<ModelStats> {
        let entry = self.inner.entry(fingerprint)?;
        let version = entry.current_version();
        let generation = version.generation;
        let engine_plan_generation = version.engine.health().plan_generation;
        Some(entry.stats.snapshot(generation, engine_plan_generation))
    }

    /// The serving engine's fault-containment vitals for one model (the
    /// current generation's engine), next to the gateway's own
    /// [`stats`](Gateway::stats).
    pub fn health(&self, fingerprint: u64) -> Option<Health> {
        Some(self.inner.entry(fingerprint)?.current_version().engine.health())
    }

    /// The generation currently serving `fingerprint` (0 until the
    /// first hot-swap).
    pub fn generation(&self, fingerprint: u64) -> Option<u64> {
        Some(self.inner.entry(fingerprint)?.current_version().generation)
    }

    /// The registered model fingerprints (unordered).
    pub fn models(&self) -> Vec<u64> {
        self.inner.registry.read().unwrap_or_else(|e| e.into_inner()).keys().copied().collect()
    }

    /// Stops the worker pool, waits for in-flight batches to complete,
    /// and answers every still-queued request with
    /// [`GatewayError::ShuttingDown`] — nothing is dropped silently.
    /// Dropping the gateway does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.jobs_cv.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let registry = self.inner.registry.read().unwrap_or_else(|e| e.into_inner());
        for entry in registry.values() {
            let mut pending = lock_recover(&entry.pending);
            for request in pending.items.drain(..) {
                request.cell.fulfill(Err(GatewayError::ShuttingDown));
            }
        }
    }
}

impl Default for Gateway {
    fn default() -> Gateway {
        Gateway::new()
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("models", &self.models().len())
            .field("threads", &self.threads.len())
            .finish()
    }
}

/// Per-worker session cache: one warmed session per model, rebuilt when
/// the generation it was warmed for is superseded (or when a contained
/// panic may have dirtied it).
#[derive(Default)]
struct SessionCache {
    sessions: HashMap<u64, (u64, Session)>,
}

impl SessionCache {
    fn session_for(&mut self, fingerprint: u64, version: &Arc<ModelVersion>) -> &mut Session {
        let slot = self
            .sessions
            .entry(fingerprint)
            .or_insert_with(|| (version.generation, version.engine.session()));
        if slot.0 != version.generation {
            *slot = (version.generation, version.engine.session());
        }
        &mut slot.1
    }

    fn evict(&mut self, fingerprint: u64) {
        self.sessions.remove(&fingerprint);
    }
}

/// Workers: park on the job FIFO, take a model, serve a batch of it.
fn worker_loop(inner: &Inner) {
    let mut cache = SessionCache::default();
    loop {
        let fingerprint = {
            let mut jobs = lock_recover(&inner.jobs);
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(fingerprint) = jobs.pop_front() {
                    break fingerprint;
                }
                jobs = inner.jobs_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
            }
        };
        flush(inner, fingerprint, &mut cache);
    }
}

/// Serves one job: drain the model's oldest same-generation FIFO run (at
/// most `max_batch`), put the model back on the job FIFO if requests
/// remain (or clear `scheduled` if none do), then execute the run as one
/// fused batch and fulfill the tickets. The `gateway.flush` failpoint
/// sits after the drain, so an injected delay holds this worker and the
/// run it drained — other models' jobs go to other workers — and an
/// injected panic is contained to this batch's tickets.
fn flush(inner: &Inner, fingerprint: u64, cache: &mut SessionCache) {
    let Some(entry) = inner.entry(fingerprint) else { return };
    let (run, more) = {
        let mut pending = lock_recover(&entry.pending);
        let Some(first) = pending.items.front() else {
            pending.scheduled = false;
            return;
        };
        let generation = first.version.generation;
        let n = pending
            .items
            .iter()
            .take_while(|r| r.version.generation == generation)
            .take(entry.config.max_batch)
            .count();
        let run: Vec<PendingRequest> = pending.items.drain(..n).collect();
        pending.scheduled = !pending.items.is_empty();
        (run, pending.scheduled)
    };
    if more {
        inner.enqueue(fingerprint);
    }

    let version = Arc::clone(&run[0].version);
    let batch = run.len();
    let mut inputs = Vec::with_capacity(batch);
    let mut metas = Vec::with_capacity(batch);
    for request in run {
        inputs.push(request.input);
        metas.push((request.cell, request.admitted));
    }
    let mut outs: Vec<Tensor> = (0..batch).map(|_| Tensor::empty()).collect();
    let session = cache.session_for(fingerprint, &version);
    let served = catch_unwind(AssertUnwindSafe(|| -> Result<(), GatewayError> {
        if let Some(faults::Injected::Error(msg)) = faults::hit(faults::GATEWAY_FLUSH) {
            return Err(GatewayError::Inference(format!("injected flush fault: {msg}")));
        }
        session
            .infer_batch_into(&inputs, &mut outs)
            .map_err(|e| GatewayError::Inference(e.to_string()))
    }));
    match served {
        Ok(Ok(())) => {
            entry.stats.record_batch(batch, batch == entry.config.max_batch);
            for ((cell, admitted), output) in metas.into_iter().zip(outs) {
                let latency = admitted.elapsed();
                entry.stats.record_latency_us(latency.as_micros() as u64);
                cell.fulfill(Ok(Response {
                    output,
                    generation: version.generation,
                    batch_size: batch,
                    latency,
                }));
            }
        }
        Ok(Err(err)) => {
            for (cell, _) in metas {
                cell.fulfill(Err(err.clone()));
            }
        }
        Err(panic) => {
            // The session may be mid-mutation: rebuild it next flush.
            cache.evict(fingerprint);
            let msg = faults::panic_message(panic);
            for (cell, _) in metas {
                cell.fulfill(Err(GatewayError::Inference(format!("flush panicked: {msg}"))));
            }
        }
    }
}
