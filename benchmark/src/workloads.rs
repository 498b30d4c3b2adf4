//! The five workloads: set-up, the op each one times, and the output
//! checks that decide whether an op succeeded.
//!
//! Model weights are seeded with [`MODEL_SEED`] on every run and the cost
//! model is the analytic Haswell-like one, so the plan each workload
//! serves is a pure function of the code. `--seed` generates what a user
//! would send: the per-model pool of [`POOL`] inputs and, for the open
//! loop, the arrival schedule.

use std::time::Instant;

use pbqp_dnn::prelude::*;
use pbqp_dnn::tensor::rng::SplitMix64;
use pbqp_dnn_gateway::{BatchConfig, Gateway, Ticket};

use crate::load::{self, Arrival, LoopResult, Target};
use crate::metrics::WorkloadSpec;
use crate::span::{Tracer, NO_REQUEST};

pub const MODEL_SEED: u64 = 42;
/// The seed of the one fixed input per model that is held to the oracle.
/// Not drawn from `--seed`: the int8 plans' error depends on the input
/// (over 150 seeds x 8 inputs it reached 26 % of the output range on
/// `micro_alexnet` and 45 % on `micro_resnet`, far outside the repo's own
/// quantization budget), so a seeded oracle input would fail runs by
/// lottery. The repo's tests hold a fixed input to that budget; so does
/// this. Seeded inputs are held to bit-exact repeatability instead.
pub const ORACLE_INPUT_SEED: u64 = 7;
/// The most convolution FLOPs of a graph whose oracle is
/// `reference_forward`: the micro models have 0.7-17 M and take
/// milliseconds, AlexNet and GoogleNet 2.2 G and 3.2 G and take seconds.
const REFERENCE_MAX_FLOPS: usize = 100_000_000;
/// Inputs per model, cycled through by the closed loops and drawn
/// uniformly by the open loop.
pub const POOL: usize = 8;
/// The open loop's fixed arrival rate. At ~0.5 ms per request this is
/// ~30 % of one flush worker; 1200 req/s on this 2-core host made p99
/// swing 2x between identical runs.
pub const GATEWAY_RATE: f64 = 600.0;
/// The gateway's admission bound in every phase. The default (64) turns a
/// 100 ms stall of this shared host into refused requests, i.e. failed
/// ops; with room to queue, a stall shows where it belongs — in the tail.
pub const GATEWAY_QUEUE_CAP: usize = 4096;

/// The workload's batching policy: the defaults (batches of up to 4, a
/// 500 µs window) with [`GATEWAY_QUEUE_CAP`].
pub fn gateway_config() -> BatchConfig {
    BatchConfig::new().with_queue_cap(GATEWAY_QUEUE_CAP)
}

/// FNV-1a over the bit patterns of an f32 output: equal hashes mean a
/// bit-identical tensor. (`Tensor::checksum` is a plain sum — always ~1
/// behind a softmax — so it cannot tell two outputs apart.)
pub fn hash_f32(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf29ce484222325, |acc, v| {
        (acc ^ u64::from(v.to_bits())).wrapping_mul(0x100000001b3)
    })
}

/// The same fold over 8-byte words (tail zero-padded, length folded in).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let eat = |acc: u64, word: u64| (acc ^ word).wrapping_mul(0x100000001b3);
    let mut chunks = bytes.chunks_exact(8);
    let mut acc = eat(0xcbf29ce484222325, bytes.len() as u64);
    for chunk in &mut chunks {
        acc = eat(acc, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    eat(acc, u64::from_le_bytes(tail))
}

/// Hash of what a plan decides: every node's kernel, representations and
/// price, and every conversion chain. Not of its saved bytes — those
/// carry the wall-clock `solve_time_us`, which differs run to run.
pub fn plan_hash(plan: &pbqp_dnn::select::ExecutionPlan) -> u64 {
    let decided = format!(
        "{:?}{:?}{:?}{:?}",
        plan.assignments, plan.edges, plan.input_conversion, plan.output_conversion
    );
    hash_bytes(decided.as_bytes())
}

pub fn compile_options(mixed: bool) -> CompileOptions {
    // The defaults are the contract: Haswell-like machine model, analytic
    // costs, exact PBQP, one thread, serial parallelism.
    CompileOptions::new().mixed_precision(mixed)
}

pub fn micro_zoo() -> Vec<(&'static str, DnnGraph)> {
    vec![
        ("micro_alexnet", models::micro_alexnet()),
        ("micro_mixed", models::micro_mixed()),
        ("micro_resnet", models::micro_resnet()),
        ("micro_inception", models::micro_inception()),
    ]
}

/// One compiled model with a warm session and its pool of inputs.
pub struct ServedModel {
    pub name: &'static str,
    pub graph: DnnGraph,
    pub mixed: bool,
    pub model: CompiledModel,
    pub session: Session,
    pub inputs: Vec<Tensor>,
    /// The fixed input held to the oracle (see [`ORACLE_INPUT_SEED`]).
    pub oracle_input: Tensor,
    /// Hash of the first output seen for each pooled input; every later
    /// output for that input must hash the same.
    first: Vec<Option<u64>>,
    pub out: Tensor,
}

impl ServedModel {
    /// Generates weights, compiles, opens a session and draws the inputs.
    /// `salt` separates the input pools of the models of one workload.
    pub fn build(
        name: &'static str,
        graph: DnnGraph,
        mixed: bool,
        seed: u64,
        salt: u64,
        t: &mut Tracer,
    ) -> Result<ServedModel, String> {
        let weights =
            t.span("runtime.weights_random", NO_REQUEST, |_| Weights::random(&graph, MODEL_SEED));
        let model = t
            .span("facade.compile", NO_REQUEST, |_| {
                Compiler::new(compile_options(mixed)).compile(&graph, &weights)
            })
            .map_err(|e| format!("{name}: compile failed: {e}"))?;
        let session = t.span("facade.session", NO_REQUEST, |_| model.engine().session());
        let (c, h, w) = graph.infer_shapes().map_err(|e| e.to_string())?[0];
        let mut rng = SplitMix64::new(seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15));
        let inputs =
            (0..POOL).map(|_| Tensor::random(c, h, w, Layout::Chw, rng.next_u64())).collect();
        Ok(ServedModel {
            name,
            graph,
            mixed,
            model,
            session,
            inputs,
            oracle_input: Tensor::random(c, h, w, Layout::Chw, ORACLE_INPUT_SEED),
            first: vec![None; POOL],
            out: Tensor::empty(),
        })
    }

    pub fn infer(&mut self, input: usize) -> Result<(), String> {
        self.session
            .infer(&self.inputs[input], &mut self.out)
            .map_err(|e| format!("{}: infer failed: {e}", self.name))
    }

    /// Holds `self.out` (the output for `input`) to the first output seen
    /// for that input.
    pub fn check_repeatable(&mut self, input: usize) -> Result<(), String> {
        let hash = hash_f32(self.out.data());
        match self.first[input] {
            None => {
                self.first[input] = Some(hash);
                Ok(())
            }
            Some(first) if first == hash => Ok(()),
            Some(_) => Err(format!("{}: output for input {input} changed between ops", self.name)),
        }
    }

    /// Serves the fixed oracle input and holds the output to an oracle
    /// computed another way (see [`ServedModel::oracle_output`]).
    pub fn check_oracle(&mut self) -> Result<(), String> {
        self.session
            .infer(&self.oracle_input, &mut self.out)
            .map_err(|e| format!("{}: infer failed: {e}", self.name))?;
        let oracle = self.oracle_output()?;
        self.within_budget(&self.out, &oracle)
    }

    /// What the oracle input must produce, by a path that shares no
    /// kernel choice with the served plan. For the micro models that is
    /// `reference_forward` (textbook convolution, CHW throughout). On the
    /// full-size nets `reference_forward` takes 3.4 s (AlexNet) and 7.6 s
    /// (GoogleNet) here, so there the oracle is the same graph and weights
    /// served under `Strategy::CaffeLike` with the f32 library: im2col +
    /// blocked GEMM in CHW for every convolution, none of PBQP's
    /// Winograd, FFT, int8 or layout choices. The traced run also holds
    /// every baseline plan, the textbook `Strategy::Sum2d` one included,
    /// to the served output (`layers::serving_probes`).
    fn oracle_output(&self) -> Result<Tensor, String> {
        if self.graph.conv_flops() <= REFERENCE_MAX_FLOPS {
            return Ok(reference_forward(&self.graph, self.model.weights(), &self.oracle_input));
        }
        let baseline = Compiler::new(compile_options(false).strategy(Strategy::CaffeLike))
            .compile(&self.graph, self.model.weights())
            .map_err(|e| format!("{}: oracle plan: compile failed: {e}", self.name))?;
        let mut out = Tensor::empty();
        baseline
            .engine()
            .session()
            .infer(&self.oracle_input, &mut out)
            .map_err(|e| format!("{}: oracle plan: infer failed: {e}", self.name))?;
        Ok(out)
    }

    /// Holds `output` to `oracle`, both for the oracle input: within 1e-3
    /// for an all-f32 plan, within the repo's quantization budget
    /// (`0.05 * max|oracle| + 0.05`, as in `tests/whole_network.rs`) for a
    /// plan with int8 layers.
    pub fn within_budget(&self, output: &Tensor, oracle: &Tensor) -> Result<(), String> {
        let diff = output
            .max_abs_diff(oracle)
            .map_err(|e| format!("{}: output shape differs from the oracle's: {e}", self.name))?;
        let quantized = !self.model.plan().int8_layers().is_empty()
            || !self.model.plan().int8_op_nodes().is_empty();
        let budget = if quantized {
            let max_abs = oracle.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            0.05 * max_abs + 0.05
        } else {
            1e-3
        };
        if diff.is_finite() && diff <= budget {
            Ok(())
        } else {
            Err(format!("{}: |output - oracle| = {diff} exceeds {budget}", self.name))
        }
    }
}

/// The open loop's system under test: a one-worker gateway serving the
/// micro zoo, plus the session-computed output every response must equal.
pub struct GatewayState {
    pub models: Vec<ServedModel>,
    pub gateway: Gateway,
    pub fingerprints: Vec<u64>,
    /// `expected[lane][input]`: hash of the session's output.
    pub expected: Vec<Vec<u64>>,
}

/// What a completed gateway request reports besides its output.
pub struct GatewayDone {
    pub reported_ms: f64,
}

impl GatewayState {
    /// Registers `models` with a fresh one-worker gateway under `config`.
    pub fn open(models: &[ServedModel], config: BatchConfig) -> (Gateway, Vec<u64>) {
        // The gateway's worker and timer threads inherit the mask they
        // are spawned under: everything but the generator's CPU.
        load::pin(load::Cpus::System);
        let gateway = Gateway::with_workers(1);
        load::pin(load::Cpus::All);
        let fingerprints = models.iter().map(|m| gateway.register_with(&m.model, config)).collect();
        (gateway, fingerprints)
    }
}

pub struct GatewayTarget<'a> {
    pub gateway: &'a Gateway,
    pub fingerprints: &'a [u64],
    pub models: &'a [ServedModel],
    pub expected: &'a [Vec<u64>],
}

impl Target for GatewayTarget<'_> {
    type Pending = Ticket;
    type Done = GatewayDone;

    fn submit(&self, a: &Arrival) -> Result<Ticket, String> {
        // A typed refusal (`Overloaded`, `BadRequest`, ...) is a failed op.
        self.gateway
            .submit(self.fingerprints[a.lane], self.models[a.lane].inputs[a.input].clone())
            .map_err(|e| e.to_string())
    }

    fn wait(&self, a: &Arrival, ticket: Ticket) -> Result<GatewayDone, String> {
        let response = ticket.wait().map_err(|e| e.to_string())?;
        if hash_f32(response.output.data()) != self.expected[a.lane][a.input] {
            return Err(format!(
                "{}: gateway output for input {} differs from the session's",
                self.models[a.lane].name, a.input
            ));
        }
        Ok(GatewayDone { reported_ms: response.latency.as_secs_f64() * 1e3 })
    }
}

/// One model `compile_ship` compiles (and, if small, ships) every op.
pub struct ShipModel {
    pub name: &'static str,
    pub graph: DnnGraph,
    pub weights: Weights,
    /// Whether the op also saves and loads it. GoogleNet is compiled but
    /// not shipped: its 32 MB artifact goes through several ~30 MB heap
    /// buffers inside `save`/`load`, and where glibc places those (heap
    /// or mmap, trimmed or kept) differed from process to process —
    /// measured: the same op at a 40 ms or an 80 ms median, peak RSS 192
    /// or 218 MB, by lottery. The micro zoo's artifacts (643 KB together)
    /// exercise the same codecs below every allocator threshold.
    pub ship: bool,
    bytes: Vec<u8>,
    /// What the first op produced: plan hash and artifact size. A
    /// deterministic compile repeats both.
    first: Option<(u64, usize)>,
    /// The last op's compiled model and, if shipped, the one loaded back.
    last: Option<(CompiledModel, Option<CompiledModel>)>,
}

/// `compile_ship`'s state.
pub struct ShipState {
    pub models: Vec<ShipModel>,
}

impl ShipState {
    fn new(t: &mut Tracer) -> ShipState {
        let mut set = vec![("googlenet", models::googlenet(), false)];
        set.extend(micro_zoo().into_iter().map(|(name, graph)| (name, graph, true)));
        let models = set
            .into_iter()
            .map(|(name, graph, ship)| {
                let weights = t.span("runtime.weights_random", NO_REQUEST, |_| {
                    Weights::random(&graph, MODEL_SEED)
                });
                ShipModel { name, graph, weights, ship, bytes: Vec::new(), first: None, last: None }
            })
            .collect();
        ShipState { models }
    }

    /// For every model a fresh `Compiler` (so no `PlanCache` hit) →
    /// compile, mixed library; for the shipped ones → save → load.
    pub fn op(&mut self, request: u64, t: &mut Tracer) -> Result<(), String> {
        for m in &mut self.models {
            let model = t
                .span("facade.compile", request, |_| {
                    Compiler::new(compile_options(true)).compile(&m.graph, &m.weights)
                })
                .map_err(|e| format!("{}: compile failed: {e}", m.name))?;
            let loaded = if m.ship {
                m.bytes.clear();
                t.span("artifact.save", request, |_| model.save(&mut m.bytes))
                    .map_err(|e| format!("{}: save failed: {e}", m.name))?;
                let loaded = t
                    .span("artifact.load", request, |_| {
                        CompiledModel::load(&mut m.bytes.as_slice())
                    })
                    .map_err(|e| format!("{}: load failed: {e}", m.name))?;
                Some(loaded)
            } else {
                None
            };
            m.last = Some((model, loaded));
        }
        Ok(())
    }

    /// Every compile decides the plan the first op decided; `load(save(m))`
    /// keeps the fingerprint, the plan and the artifact size. The first op
    /// also re-saves each loaded model and demands the same bytes back
    /// (the format is canonical).
    pub fn check(&mut self) -> Result<(), String> {
        for m in &mut self.models {
            // Taken, so last op's models are gone before the next op runs.
            let (model, loaded) = m.last.take().ok_or("no op has run")?;
            let served = loaded.as_ref().unwrap_or(&model);
            if served.fingerprint() != model.fingerprint() {
                return Err(format!("{}: load(save(m)) changed the fingerprint", m.name));
            }
            let now = (plan_hash(served.plan()), m.bytes.len());
            match m.first {
                Some(first) if first == now => {}
                Some(_) => return Err(format!("{}: the same compile changed its plan", m.name)),
                None => {
                    if let Some(loaded) = &loaded {
                        let mut again = Vec::with_capacity(m.bytes.len());
                        loaded.save(&mut again).map_err(|e| format!("re-save failed: {e}"))?;
                        if again != m.bytes {
                            return Err(format!("{}: re-saving changed the bytes", m.name));
                        }
                    }
                    m.first = Some(now);
                }
            }
        }
        Ok(())
    }
}

pub enum Workload {
    /// `googlenet_f32`, `alexnet_mixed`, `micro_zoo`: op = one
    /// `Session::infer` per model, cycling through the input pool.
    Serving(Vec<ServedModel>),
    Gateway(GatewayState),
    Ship(ShipState),
}

impl Workload {
    /// Everything between process start and the first timed op: graphs,
    /// weights, compile, sessions (or gateway registration), inputs and
    /// the warm-up ops.
    pub fn setup(spec: &WorkloadSpec, seed: u64, t: &mut Tracer) -> Result<Workload, String> {
        let build_all = |set: Vec<(&'static str, DnnGraph)>, mixed: bool, t: &mut Tracer| {
            set.into_iter()
                .enumerate()
                .map(|(i, (name, graph))| {
                    ServedModel::build(name, graph, mixed, seed, i as u64 + 1, t)
                })
                .collect::<Result<Vec<_>, _>>()
        };
        let mut workload = match spec.name {
            "googlenet_f32" => {
                Workload::Serving(build_all(vec![("googlenet", models::googlenet())], false, t)?)
            }
            "alexnet_mixed" => {
                Workload::Serving(build_all(vec![("alexnet", models::alexnet())], true, t)?)
            }
            "micro_zoo" => Workload::Serving(build_all(micro_zoo(), true, t)?),
            "gateway_open_loop" => {
                let mut models = build_all(micro_zoo(), true, t)?;
                let mut expected = Vec::new();
                for m in &mut models {
                    let mut row = Vec::new();
                    for input in 0..POOL {
                        m.infer(input)?;
                        row.push(hash_f32(m.out.data()));
                    }
                    expected.push(row);
                }
                let (gateway, fingerprints) = t.span("gateway.register", NO_REQUEST, |_| {
                    GatewayState::open(&models, gateway_config())
                });
                Workload::Gateway(GatewayState { models, gateway, fingerprints, expected })
            }
            "compile_ship" => Workload::Ship(ShipState::new(t)),
            other => return Err(format!("unknown workload `{other}`")),
        };
        t.span("warmup", NO_REQUEST, |t| workload.warm_up(spec.warmup_ops, t))?;
        Ok(workload)
    }

    fn warm_up(&mut self, ops: u64, t: &mut Tracer) -> Result<(), String> {
        match self {
            Workload::Gateway(g) => {
                // One full batch per model at a time: it flushes by size,
                // so warm-up waits on no window timer, and the worker's
                // fused-batch buffers are sized before the first timed op.
                let per_model = gateway_config().max_batch;
                for round in 0..(ops as usize).div_ceil(per_model * g.models.len()) {
                    for lane in 0..g.models.len() {
                        let inputs = (0..per_model).map(|i| (round * per_model + i) % POOL);
                        let tickets: Vec<_> = inputs
                            .map(|input| {
                                let x = g.models[lane].inputs[input].clone();
                                g.gateway.submit(g.fingerprints[lane], x).map(|t| (input, t))
                            })
                            .collect::<Result<_, _>>()
                            .map_err(|e| format!("gateway warm-up refused: {e}"))?;
                        for (input, ticket) in tickets {
                            let response = ticket
                                .wait()
                                .map_err(|e| format!("gateway warm-up failed: {e}"))?;
                            if hash_f32(response.output.data()) != g.expected[lane][input] {
                                return Err(
                                    "gateway warm-up output differs from the session's".to_owned()
                                );
                            }
                        }
                    }
                }
                Ok(())
            }
            _ => (0..ops).try_for_each(|i| self.op(i, t).and_then(|()| self.check(i))),
        }
    }

    /// One closed-loop op. (The open loop's requests go through
    /// [`GatewayTarget`] instead.)
    pub fn op(&mut self, i: u64, t: &mut Tracer) -> Result<(), String> {
        match self {
            Workload::Serving(models) => {
                let input = i as usize % POOL;
                models
                    .iter_mut()
                    .try_for_each(|m| t.span("runtime.session_infer", i, |_| m.infer(input)))
            }
            Workload::Ship(ship) => ship.op(i, t),
            Workload::Gateway(_) => unreachable!("the gateway workload is driven open loop"),
        }
    }

    /// The output check of the op just run; not part of its latency.
    pub fn check(&mut self, i: u64) -> Result<(), String> {
        match self {
            Workload::Serving(models) => {
                let input = i as usize % POOL;
                models.iter_mut().try_for_each(|m| m.check_repeatable(input))
            }
            Workload::Ship(ship) => ship.check(),
            Workload::Gateway(_) => Ok(()),
        }
    }

    /// The timed window of an end-to-end run (tracing off).
    pub fn run(&mut self, seed: u64, seconds: f64) -> LoopResult {
        let mut off = Tracer::off();
        match self {
            Workload::Gateway(g) => {
                let schedule =
                    load::poisson_schedule(seed, GATEWAY_RATE, seconds, g.models.len(), POOL);
                gateway_phase(g, &g.gateway, &g.fingerprints, &schedule).0
            }
            _ => {
                // Both closures need `self`; the check never overlaps the op.
                let this = std::cell::RefCell::new(self);
                load::closed_loop(
                    seconds,
                    |i| this.borrow_mut().op(i, &mut off),
                    |i| this.borrow_mut().check(i),
                )
            }
        }
    }

    /// After the window: the oracle check of every model the workload
    /// serves. `compile_ship` runs no kernel; its per-op checks are the
    /// whole story.
    pub fn check_oracle(&mut self) -> Result<(), String> {
        match self {
            Workload::Serving(models) => models.iter_mut().try_for_each(|m| m.check_oracle()),
            Workload::Gateway(g) => g.models.iter_mut().try_for_each(|m| m.check_oracle()),
            Workload::Ship(_) => Ok(()),
        }
    }
}

/// Offers `schedule` to `gateway` open loop and folds the outcome into a
/// [`LoopResult`]: refused, failed and wrong-output requests are failed
/// ops, excluded from latency; the window runs from the first due time to
/// the last completion. Also returns every request, and the instant its
/// stamps count from, for the layer probes.
pub fn gateway_phase(
    state: &GatewayState,
    gateway: &Gateway,
    fingerprints: &[u64],
    schedule: &[Arrival],
) -> (LoopResult, Vec<load::Served<GatewayDone>>, Instant) {
    let target =
        GatewayTarget { gateway, fingerprints, models: &state.models, expected: &state.expected };
    let (served, start) = load::open_loop(&target, schedule, state.models.len());
    let mut result = LoopResult { attempted: served.len() as u64, ..LoopResult::default() };
    for (i, s) in served.iter().enumerate() {
        match &s.outcome {
            Ok(_) => {
                result.latencies_ms.push(s.latency_ms());
                result.lanes.push(s.arrival.lane);
            }
            Err(e) => result.fail(format!("request {i}: {e}")),
        }
    }
    // The window runs from the first due time to the last completion;
    // throughput is what succeeded over that. One block: an open loop's
    // throughput is the offered rate unless requests fail or the backlog
    // grows, and a shorter block's own share of the arrivals (Poisson) is
    // not the system's doing.
    let first_due = served.first().map_or(0, |s| s.arrival.due_ns);
    let last_done = served.iter().map(|s| s.done_ns).max().unwrap_or(0);
    result.window_s = last_done.saturating_sub(first_due) as f64 / 1e9;
    result.block_throughputs = vec![result.succeeded() as f64 / result.window_s];
    (result, served, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hashes_tell_bit_patterns_apart() {
        let a = [0.25f32, 0.75];
        assert_eq!(hash_f32(&a), hash_f32(&[0.25, 0.75]));
        assert_ne!(hash_f32(&a), hash_f32(&[0.75, 0.25]), "same sum, different tensor");
        assert_ne!(hash_f32(&[0.0]), hash_f32(&[-0.0]));
        assert_ne!(hash_bytes(&[1, 2, 3]), hash_bytes(&[1, 2, 3, 0]), "length is folded in");
        assert_ne!(hash_bytes(&[0; 16]), hash_bytes(&[0; 24]));
        assert_eq!(hash_bytes(b"0123456789"), hash_bytes(b"0123456789"));
    }

    #[test]
    fn micro_zoo_ops_repeat_and_match_the_oracle() {
        let spec = crate::metrics::workload("micro_zoo").unwrap();
        let mut t = Tracer::off();
        let mut w = Workload::setup(spec, 3, &mut t).unwrap();
        for i in 0..(2 * POOL as u64) {
            w.op(i, &mut t).unwrap();
            w.check(i).unwrap();
        }
        w.check_oracle().unwrap();
        // A corrupted remembered output is caught.
        let Workload::Serving(models) = &mut w else { unreachable!() };
        let m = &mut models[0];
        m.first[1] = Some(0);
        m.infer(1).unwrap();
        assert!(m.check_repeatable(1).unwrap_err().contains("changed between ops"));
    }
}
