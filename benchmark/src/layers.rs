//! The traced run: per-layer metrics, every one measured from outside by
//! timing calls into a layer's public functions.
//!
//! A traced run of workload W spends about the same wall time as an
//! end-to-end run of W and reports three things: host probes (the same
//! for every W), the layers W's own models and requests reach
//! (reconciled bottom-up: standalone kernels + standalone conversions vs
//! `Session::infer`; compile phases vs the whole compile), and what the
//! tracing itself cost.

use std::time::{Duration, Instant};

use pbqp_dnn::autotune::{self, AutotuneConfig};
use pbqp_dnn::cost::{
    host_calibration, AnalyticCost, CostTable, MachineModel, MeasuredCost, ObservedTable,
};
use pbqp_dnn::gemm::{Gemm, GemmKind, QuantGemm, Trans};
use pbqp_dnn::graph::{LayerKind, SelectionClass};
use pbqp_dnn::prelude::*;
use pbqp_dnn::primitives::{OpInputs, OpSpec, Workspace};
use pbqp_dnn::runtime::sampler::Sampler;
use pbqp_dnn::runtime::{ExecBuffers, Schedule};
use pbqp_dnn::select::{AssignmentKind, Optimizer};
use pbqp_dnn::solver::{CostMatrix, PbqpGraph, Solver};
use pbqp_dnn::tensor::rng::SplitMix64;
use pbqp_dnn::tensor::transform::{
    apply_repr_into, dequantize_into, quantize_dynamic_into, to_layout_into, ReprTransform,
};
use pbqp_dnn::tensor::DType;
use pbqp_dnn_gateway::BatchConfig;

use crate::load::{self, LoopResult, Served};
use crate::metrics::Metrics;
use crate::span::{Tracer, NO_REQUEST};
use crate::stats::{geomean, median, percentile_of, spearman};
use crate::workloads::{
    compile_options, gateway_config, gateway_phase, hash_bytes, hash_f32, micro_zoo, plan_hash,
    GatewayDone, GatewayState, ServedModel, Workload, GATEWAY_RATE, POOL,
};

/// The latency limit of `gateway.max_rate_in_limit_ops_s`, on p90.
const GATEWAY_LIMIT_MS: f64 = 5.0;
/// The fixed rates of the gateway's rate sweep, in req/s.
const SWEEP_RATES: [(f64, &str); 3] = [(300.0, "r300"), (900.0, "r900"), (1200.0, "r1200")];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `n` calls of `f`, in ms, after one untimed call.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..n.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            ms(start.elapsed())
        })
        .collect();
    median(&mut samples)
}

/// How many ops of `op_ms` fit `budget_s`, kept inside `[lo, hi]`.
fn fit(budget_s: f64, op_ms: f64, lo: usize, hi: usize) -> usize {
    ((budget_s * 1e3 / op_ms.max(1e-6)) as usize).clamp(lo, hi)
}

// ---------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------

/// Layer probes that do not depend on the workload: kernels and
/// transforms at one fixed shape, the solver on a synthetic instance,
/// and the runtime's fixed costs on the micro zoo.
pub fn host_probes(m: &mut Metrics, seed: u64, t: &mut Tracer) -> Result<(), String> {
    t.span("probe.gemm", NO_REQUEST, |_| gemm_probe(m));
    t.span("probe.tensor", NO_REQUEST, |_| tensor_probe(m));
    t.span("probe.pbqp_synthetic", NO_REQUEST, |_| synthetic_pbqp_probe(m))?;
    m.set("cost.int8_speedup_calibrated", host_calibration().int8_speedup);

    let mut zoo = Vec::new();
    for (i, (name, graph)) in micro_zoo().into_iter().enumerate() {
        zoo.push(ServedModel::build(name, graph, true, seed, i as u64 + 1, t)?);
    }
    t.span("probe.runtime_micro_zoo", NO_REQUEST, |t| runtime_probe(&mut zoo, m, t))?;
    t.span("probe.cost_rank", NO_REQUEST, |_| cost_rank_probe(&zoo, m));
    let resnet = zoo.iter().find(|z| z.name == "micro_resnet").expect("in the zoo");
    t.span("probe.autotune", NO_REQUEST, |t| autotune_probe(resnet, m, t))
}

/// `Gemm` / `QuantGemm` at GoogleNet inception-3a's 3x3 im2col shape
/// (128 filters, 96·9 taps, 28·28 positions) — the GEMM the f32 and the
/// int8 conv families both bottom out in.
fn gemm_probe(m: &mut Metrics) {
    const M: usize = 128;
    const N: usize = 28 * 28;
    const K: usize = 96 * 9;
    let mut rng = SplitMix64::new(0x6e6d);
    let a: Vec<f32> = (0..M * K).map(|_| rng.f32(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..K * N).map(|_| rng.f32(-1.0, 1.0)).collect();
    let aq: Vec<i8> = (0..M * K).map(|_| rng.next_u64() as i8).collect();
    let bq: Vec<i8> = (0..K * N).map(|_| rng.next_u64() as i8).collect();

    let gemm = Gemm::new(GemmKind::Packed);
    let mut c = vec![0.0f32; M * N];
    let mut scratch = vec![0.0f32; gemm.scratch_elems(Trans::N, Trans::N, M, N, K)];
    let f32_ms = median_ms(9, || {
        gemm.run_with_scratch(Trans::N, Trans::N, M, N, K, &a, &b, 0.0, &mut c, &mut scratch);
        std::hint::black_box(&c);
    });
    let qgemm = QuantGemm::new();
    let mut cq = vec![0i32; M * N];
    let mut qscratch = vec![0i32; qgemm.scratch_elems(M, N, K)];
    let int8_ms = median_ms(9, || {
        qgemm.run_with_scratch(M, N, K, &aq, 3, &bq, -7, &mut cq, &mut qscratch);
        std::hint::black_box(&cq);
    });
    let gops = 2.0 * (M * N * K) as f64 / 1e9;
    m.set("gemm.f32_gflops", gops / (f32_ms / 1e3));
    m.set("gemm.int8_gops", gops / (int8_ms / 1e3));
    m.set("gemm.int8_over_f32_x", f32_ms / int8_ms);
}

/// `transform::{to_layout_into, quantize_dynamic_into, dequantize_into}`
/// on a 64x56x56 activation; GB/s of f32 bytes read (layout, quantize)
/// or written (dequantize).
fn tensor_probe(m: &mut Metrics) {
    let src = Tensor::random(64, 56, 56, Layout::Chw, 0x7e);
    let gb = (64 * 56 * 56 * 4) as f64 / 1e9;
    let mut dst = Tensor::empty();
    let layout_ms = median_ms(21, || to_layout_into(&src, Layout::Hwc, &mut dst));
    let mut q = Tensor::empty_dtype(DType::I8);
    let quantize_ms = median_ms(21, || {
        quantize_dynamic_into(&src, &mut q);
    });
    let mut back = Tensor::empty();
    let dequantize_ms = median_ms(21, || dequantize_into(&q, &mut back));
    m.set("tensor.layout_gbps", gb / (layout_ms / 1e3));
    m.set("tensor.quantize_gbps", gb / (quantize_ms / 1e3));
    m.set("tensor.dequantize_gbps", gb / (dequantize_ms / 1e3));
}

/// DNN instances reduce fully by R0/RI/RII, so the solver's RN heuristic
/// and branch-and-bound never run on them. This instance makes them run:
/// a fixed-seed ring lattice (every node joined to its two neighbours on
/// each side, so degree 4 and nothing to reduce) of [`SYNTHETIC_NODES`]
/// nodes with [`SYNTHETIC_OPTIONS`] options each — ~22 000 search steps,
/// ~0.2 s here. (Search cost grows fast and unevenly with size: 24 nodes
/// of 3 options take 1.4 s, 32 take 6.8 s, so 40 is out of reach of a
/// probe that runs in every traced run.)
fn synthetic_pbqp_probe(m: &mut Metrics) -> Result<(), String> {
    let graph = synthetic_instance();
    let solver = Solver::new();
    let mut steps = 0u64;
    let mut failed = None;
    let solve_ms = median_ms(2, || match solver.solve(&graph) {
        Ok(solution) => steps = solution.stats.bb_steps,
        Err(e) => failed = Some(e.to_string()),
    });
    if let Some(e) = failed {
        return Err(format!("synthetic PBQP instance did not solve: {e}"));
    }
    m.set("pbqp.synthetic_solve_ms", solve_ms);
    m.set("pbqp.synthetic_bb_steps", steps as f64);
    Ok(())
}

const SYNTHETIC_NODES: usize = 20;
const SYNTHETIC_OPTIONS: usize = 4;

fn synthetic_instance() -> PbqpGraph {
    let (nodes, options) = (SYNTHETIC_NODES, SYNTHETIC_OPTIONS);
    let mut rng = SplitMix64::new(crate::workloads::MODEL_SEED);
    let mut g = PbqpGraph::new();
    let ids: Vec<_> = (0..nodes)
        .map(|_| g.add_node((0..options).map(|_| f64::from(rng.f32(0.0, 10.0))).collect()))
        .collect();
    for i in 0..nodes {
        for step in [1, 2] {
            let matrix =
                CostMatrix::from_fn(options, options, |_, _| f64::from(rng.f32(0.0, 10.0)));
            g.add_edge(ids[i], ids[(i + step) % nodes], matrix)
                .expect("both nodes were just added");
        }
    }
    g
}

/// The runtime's fixed costs, on the micro zoo where they are a large
/// share: single-request time per model, fused batch of 4 per item,
/// `Session::infer` over a bare `Schedule::run_into`, time per step not
/// accounted for by standalone kernels and conversions, the armed
/// sampler, and heap allocations per warmed request.
fn runtime_probe(zoo: &mut [ServedModel], m: &mut Metrics, t: &mut Tracer) -> Result<(), String> {
    const REPS: usize = 100;
    let (mut session_ms, mut schedule_ms, mut standalone_ms, mut steps) = (0.0, 0.0, 0.0, 0usize);
    let (mut armed_ms, mut disarmed_ms) = (0.0, 0.0);
    for z in zoo.iter_mut() {
        let mut failed = None;
        let single = median_ms(REPS, || failed = z.infer(0).err().or(failed.take()));
        let batch: Vec<Tensor> = z.inputs[..4].to_vec();
        let mut outs: Vec<Tensor> = (0..4).map(|_| Tensor::empty()).collect();
        let fused = median_ms(REPS / 4, || {
            let r = z.session.infer_batch_into(&batch, &mut outs);
            failed = r.err().map(|e| e.to_string()).or(failed.take());
        });
        if let Some(e) = failed {
            return Err(format!("{}: runtime probe failed: {e}", z.name));
        }
        // A fused item must still be the item's single-request output.
        z.infer(3)?;
        if hash_f32(outs[3].data()) != hash_f32(z.out.data()) {
            return Err(format!("{}: fused batch output differs from single request", z.name));
        }
        m.set(&format!("runtime.session_infer_ms.{}", z.name), single);
        m.set(&format!("runtime.fused_batch4_per_item_x.{}", z.name), fused / 4.0 / single);
        session_ms += single;

        let model = &z.model;
        let schedule =
            Schedule::compile(model.graph(), model.plan(), model.registry(), model.weights())
                .map_err(|e| format!("{}: schedule compile failed: {e}", z.name))?;
        let mut bufs = schedule.make_buffers();
        let mut out = Tensor::empty();
        let serial = Parallelism::serial();
        let mut run = |bufs: &mut ExecBuffers| {
            schedule.run_into(&z.inputs[0], bufs, &mut out, serial).expect("schedule runs");
        };
        let bare = median_ms(REPS, || run(&mut bufs));
        schedule_ms += bare;
        steps += schedule.step_count();
        {
            // Armed at rate 1: every step evaluation is timestamped.
            let sampler = Sampler::new(schedule.step_count(), 1);
            let mut armed_bufs = schedule.make_buffers();
            armed_bufs.attach_sampler(sampler.state());
            armed_ms += median_ms(REPS, || run(&mut armed_bufs));
            // Dropping the sampler disarms the process-wide gate again.
        }
        disarmed_ms += median_ms(REPS, || run(&mut bufs));

        let replayed = replay(&z.model, &z.inputs[0], 5, t)?;
        standalone_ms += replayed.conv_ms + replayed.op_ms + replayed.convert_ms;
    }
    m.set("runtime.session_over_schedule_x.micro_zoo", session_ms / schedule_ms);
    m.set("runtime.step_overhead_us.micro_zoo", (session_ms - standalone_ms) * 1e3 / steps as f64);
    m.set("runtime.sampler_armed_x.micro_zoo", armed_ms / disarmed_ms);

    const SWEEPS: u64 = 100;
    let (result, allocs) = crate::alloc::count(|| {
        (0..SWEEPS).try_for_each(|i| zoo.iter_mut().try_for_each(|z| z.infer(i as usize % POOL)))
    });
    result?;
    m.set("runtime.allocs_per_infer", allocs as f64 / (SWEEPS * zoo.len() as u64) as f64);
    Ok(())
}

/// Does the analytic model rank a layer's candidates the way the host
/// does? Spearman correlation of analytic vs wall-clock (`MeasuredCost`)
/// cost over every (conv node, candidate) pair of the micro zoo.
fn cost_rank_probe(zoo: &[ServedModel], m: &mut Metrics) {
    let analytic = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let measured = MeasuredCost::new(1, 1);
    let (mut predicted, mut observed) = (Vec::new(), Vec::new());
    for z in zoo {
        let registry = z.model.registry();
        let a = CostTable::profile(&z.graph, registry, &analytic);
        let b = CostTable::profile(&z.graph, registry, &measured);
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            for ((_, pa), (_, pb)) in la.costs.iter().zip(&lb.costs) {
                predicted.push(*pa);
                observed.push(*pb);
            }
        }
    }
    m.set("cost.pred_meas_spearman.micro_zoo", spearman(&predicted, &observed));
}

/// The autotune layer's own costs and signal on `micro_resnet`: sample
/// every step of 500 requests, then time folding the samples into an
/// observed table and one re-solve under the shipped configuration, and
/// read the observed-vs-predicted divergence that would trigger it.
/// Autotune is off in every workload; this is the baseline its own
/// roadmap item starts from.
fn autotune_probe(z: &ServedModel, m: &mut Metrics, t: &mut Tracer) -> Result<(), String> {
    const REQUESTS: usize = 500;
    let model = &z.model;
    let schedule =
        Schedule::compile(model.graph(), model.plan(), model.registry(), model.weights())
            .map_err(|e| format!("autotune probe: schedule compile failed: {e}"))?;
    let sampler = Sampler::new(schedule.step_count(), 1);
    let mut bufs = schedule.make_buffers();
    bufs.attach_sampler(sampler.state());
    let mut out = Tensor::empty();
    for i in 0..REQUESTS {
        schedule
            .run_into(&z.inputs[i % POOL], &mut bufs, &mut out, Parallelism::serial())
            .map_err(|e| format!("autotune probe: sampled request failed: {e}"))?;
    }
    let meta = schedule.step_meta();
    let summaries = sampler.snapshot();
    let mut observed = ObservedTable::new();
    let fold_ms = t.span("autotune.fold_observations", NO_REQUEST, |_| {
        median_ms(21, || {
            observed = ObservedTable::new();
            autotune::fold_observations(&mut observed, &meta, &summaries);
        })
    });
    let config = AutotuneConfig::new();
    let divergence = observed
        .divergence(&autotune::predicted_selections(model.plan()), config.min_node_samples)
        .ok_or("autotune probe: no step gathered enough samples")?;
    let start = Instant::now();
    t.span("autotune.resolve", NO_REQUEST, |_| {
        autotune::resolve(model.graph(), model.registry(), &observed, model.plan(), &[], &config)
    })
    .map_err(|e| format!("autotune probe: resolve failed: {e}"))?;
    m.set("autotune.resolve_ms", ms(start.elapsed()));
    m.set("autotune.fold_us", fold_ms * 1e3);
    m.set("autotune.divergence", divergence);
    Ok(())
}

// ---------------------------------------------------------------------
// Standalone replay: the reconciliation's bottom layer
// ---------------------------------------------------------------------

/// One pass over a compiled model with every plan-selected kernel and
/// every edge conversion run standalone, outside the runtime.
pub struct Replay {
    /// Σ over conv nodes of the median standalone `execute_into` time.
    pub conv_ms: f64,
    /// Same for the non-conv operator kernels.
    pub op_ms: f64,
    /// Σ of the median time of every `apply_repr_into` chain (edges,
    /// input and output conversions) plus the input copy.
    pub convert_ms: f64,
    pub conv_calls: usize,
    pub op_calls: usize,
    /// Per selected node with a non-zero analytic price: (predicted µs,
    /// measured standalone µs).
    pub predicted_measured_us: Vec<(f64, f64)>,
    /// Hash of the replayed network output — must equal the session's.
    pub out_hash: u64,
}

/// Walks `model`'s graph in topological order like the runtime's serial
/// step loop does — same kernels, same conversions, same operands — but
/// calls each through its public API and times it alone (median of
/// `reps`). What `Session::infer` takes beyond the sum is the runtime's
/// own time: the step loop, dispatch, `catch_unwind`, failpoint and
/// sampler gates, buffer pooling.
pub fn replay(
    model: &CompiledModel,
    input: &Tensor,
    reps: usize,
    t: &mut Tracer,
) -> Result<Replay, String> {
    let (graph, plan, registry, weights) =
        (model.graph(), model.plan(), model.registry(), model.weights());
    let shapes = graph.infer_shapes().map_err(|e| e.to_string())?;
    let order = graph.topo_order().map_err(|e| e.to_string())?;
    let mut values: Vec<Tensor> = (0..graph.len()).map(|_| Tensor::empty()).collect();
    let mut r = Replay {
        conv_ms: 0.0,
        op_ms: 0.0,
        convert_ms: 0.0,
        conv_calls: 0,
        op_calls: 0,
        predicted_measured_us: Vec::new(),
        out_hash: 0,
    };
    // One timed call: median of `reps` after a warm-up, inside a span.
    let timed = |t: &mut Tracer,
                 name: &'static str,
                 f: &mut dyn FnMut() -> Result<(), String>|
     -> Result<f64, String> {
        let mut failed = None;
        let took =
            t.span(name, NO_REQUEST, |_| median_ms(reps, || failed = f().err().or(failed.take())));
        failed.map_or(Ok(took), Err)
    };

    for &node in &order {
        let layer = graph.layer(node);
        let preds = graph.predecessors(node);
        // Legalize every incoming edge that carries a conversion chain.
        let mut staged: Vec<Option<Tensor>> = Vec::with_capacity(preds.len());
        for p in preds {
            let chain = plan
                .edges
                .iter()
                .find(|e| e.from == *p && e.to == node)
                .map_or(&[][..], |e| e.chain.as_slice());
            if chain.is_empty() {
                staged.push(None);
                continue;
            }
            let mut converted = Tensor::empty();
            r.convert_ms += timed(t, "tensor.convert", &mut || {
                apply_chain(&values[p.index()], chain, &mut converted)
            })?;
            staged.push(Some(converted));
        }
        let operands: Vec<&Tensor> = preds
            .iter()
            .zip(&staged)
            .map(|(p, s)| s.as_ref().unwrap_or(&values[p.index()]))
            .collect();

        let assignment = plan.assignment(node);
        let mut out = Tensor::empty_dtype(assignment.output_repr().dtype);
        match (assignment, &layer.kind) {
            (AssignmentKind::Conv { primitive, .. }, LayerKind::Conv(scenario)) => {
                let prim = registry
                    .by_name(primitive)
                    .ok_or_else(|| format!("plan names unknown primitive `{primitive}`"))?;
                let kernel = weights
                    .conv_kernel(node)
                    .ok_or_else(|| format!("no weights for conv `{}`", layer.name))?;
                let mut ws = Workspace::with_req(prim.workspace_req(scenario));
                let took = timed(t, "primitives.conv", &mut || {
                    ws.reset();
                    prim.execute_into(operands[0], kernel, scenario, 1, &mut ws, &mut out)
                        .map_err(|e| format!("{primitive} on `{}`: {e}", layer.name))
                })?;
                r.conv_ms += took;
                r.conv_calls += 1;
                r.predicted_measured_us.push((assignment.cost_us(), took * 1e3));
            }
            (AssignmentKind::Op { kernel, .. }, kind) => {
                let op = registry
                    .op_by_name(kernel)
                    .ok_or_else(|| format!("plan names unknown op kernel `{kernel}`"))?;
                let pred_dims = preds.iter().map(|p| shapes[p.index()]).collect();
                let spec = OpSpec::for_layer(kind, pred_dims, shapes[node.index()])
                    .ok_or_else(|| format!("op assignment on non-operator `{}`", layer.name))?;
                let aux = weights.fc_matrix(node);
                let mut ws = Workspace::with_req(op.workspace_req(&spec));
                let took = timed(t, "primitives.op", &mut || {
                    ws.reset();
                    op.execute_into(OpInputs::Slice(&operands), aux, &spec, &mut ws, &mut out)
                        .map_err(|e| format!("{kernel} on `{}`: {e}", layer.name))
                })?;
                r.op_ms += took;
                r.op_calls += 1;
                r.predicted_measured_us.push((assignment.cost_us(), took * 1e3));
            }
            (AssignmentKind::Source { .. }, LayerKind::Input { .. }) => {
                let chain = plan
                    .input_conversion
                    .iter()
                    .find(|(n, _, _)| *n == node)
                    .map_or(&[][..], |(_, chain, _)| chain.as_slice());
                r.convert_ms += timed(t, "tensor.convert", &mut || {
                    if chain.is_empty() {
                        out.assign_from(input);
                        Ok(())
                    } else {
                        apply_chain(input, chain, &mut out)
                    }
                })?;
            }
            (assignment, kind) => {
                return Err(format!("assignment {assignment:?} on layer {kind}"));
            }
        }
        drop(operands);
        values[node.index()] = out;
    }

    let last = *order.last().ok_or("empty graph")?;
    let out_chain = plan
        .output_conversion
        .iter()
        .find(|(n, _, _)| *n == last)
        .map_or(&[][..], |(_, chain, _)| chain.as_slice());
    if out_chain.is_empty() {
        r.out_hash = hash_f32(values[last.index()].data());
    } else {
        let mut delivered = Tensor::empty();
        r.convert_ms += timed(t, "tensor.convert", &mut || {
            apply_chain(&values[last.index()], out_chain, &mut delivered)
        })?;
        r.out_hash = hash_f32(delivered.data());
    }
    r.predicted_measured_us.retain(|(p, measured)| *p > 0.0 && *measured > 0.0);
    Ok(r)
}

/// Applies a conversion chain hop by hop; the last hop lands in `dst`.
fn apply_chain(src: &Tensor, chain: &[ReprTransform], dst: &mut Tensor) -> Result<(), String> {
    let mut stage = Tensor::empty();
    let mut current: Option<Tensor> = None;
    for (i, hop) in chain.iter().enumerate() {
        let from = current.as_ref().unwrap_or(src);
        if i + 1 == chain.len() {
            apply_repr_into(from, *hop, dst).map_err(|e| e.to_string())?;
        } else {
            apply_repr_into(from, *hop, &mut stage).map_err(|e| e.to_string())?;
            current = Some(std::mem::replace(&mut stage, Tensor::empty()));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Workload-scoped probes: compile side
// ---------------------------------------------------------------------

/// Times the phases of one compile (and, with `ship`, save → load) of
/// `graph`, each through the public function the facade itself calls, and
/// gathers the PBQP instance's exact counts. Adds into `m` so a
/// multi-model workload reports sums.
fn compile_probe(
    graph: &DnnGraph,
    weights: &Weights,
    mixed: bool,
    ship: bool,
    plan_hashes: &mut Vec<u8>,
    m: &mut Metrics,
    t: &mut Tracer,
) -> Result<(), String> {
    let options = compile_options(mixed);
    let library = options.library();
    let source = AnalyticCost::new(options.machine_model().clone(), 1);
    let shapes = graph.infer_shapes().map_err(|e| e.to_string())?;
    let mut add = |name: &str, value: f64| m.set(name, m.get(name) + value);

    // Phase by phase, as `Compiler::compile` strings them together.
    let mut registry = library.registry();
    let registry_ms = t.span("primitives.registry_build", NO_REQUEST, |_| {
        median_ms(5, || registry = library.registry())
    });
    let optimizer = Optimizer::new(&registry, &source);
    let mut table = optimizer.cost_table(graph);
    let table_ms = t.span("cost.table_build", NO_REQUEST, |_| {
        median_ms(5, || table = optimizer.cost_table(graph))
    });
    let solve = || optimizer.plan_with_table(graph, &shapes, &table, Strategy::Pbqp);
    let mut plan = solve().map_err(|e| format!("plan failed: {e}"))?;
    let mut solve_us = Vec::new();
    let plan_ms = t.span("core.plan", NO_REQUEST, |_| {
        median_ms(5, || {
            plan = solve().expect("planned a moment ago");
            solve_us.push(plan.solve_time_us);
        })
    });
    let compile_schedule = || Schedule::compile(graph, &plan, &registry, weights);
    compile_schedule().map_err(|e| format!("schedule compile failed: {e}"))?;
    let schedule_ms = t.span("runtime.schedule_compile", NO_REQUEST, |_| {
        median_ms(5, || drop(compile_schedule().expect("compiled a moment ago")))
    });

    // The whole thing, then ship it. Big artifacts (AlexNet's is 230 MB)
    // get one timed repetition instead of five.
    let compile = || Compiler::new(options.clone()).compile(graph, weights);
    let start = Instant::now();
    let mut model = compile().map_err(|e| format!("compile failed: {e}"))?;
    let mut bytes = Vec::new();
    if ship {
        model.save(&mut bytes).map_err(|e| format!("save failed: {e}"))?;
    }
    let reps = if start.elapsed() > Duration::from_millis(150) { 1 } else { 5 };
    let compile_ms = t.span("facade.compile", NO_REQUEST, |_| {
        median_ms(reps, || model = compile().expect("compiled a moment ago"))
    });
    let (mut save_ms, mut load_ms) = (0.0, 0.0);
    if ship {
        save_ms = t.span("artifact.save", NO_REQUEST, |_| {
            median_ms(reps, || {
                bytes.clear();
                model.save(&mut bytes).expect("saved a moment ago");
            })
        });
        let mut failed = None;
        load_ms = t.span("artifact.load", NO_REQUEST, |_| {
            median_ms(reps, || {
                failed = CompiledModel::load(&mut bytes.as_slice()).err().or(failed.take());
            })
        });
        if let Some(e) = failed {
            return Err(format!("load failed: {e}"));
        }
    }

    add("primitives.registry_build_ms", registry_ms);
    add("cost.table_build_ms", table_ms);
    add("core.plan_ms", plan_ms);
    add("pbqp.solve_us", median(&mut solve_us));
    add("runtime.schedule_compile_ms", schedule_ms);
    add("facade.compile_ms", compile_ms);
    add("artifact.save_ms", save_ms);
    add("artifact.load_ms", load_ms);
    add("artifact.bytes", bytes.len() as f64);

    // Every graph node is a PBQP node and every graph edge a PBQP edge;
    // the option vectors are rebuilt here the way the instance builder
    // sizes them.
    let options_total: usize = graph
        .node_ids()
        .map(|node| match graph.layer(node).kind.selection_class() {
            SelectionClass::Conv(_) => table.for_node(node).map_or(0, |row| row.costs.len()),
            SelectionClass::Source => Layout::ALL.len(),
            SelectionClass::Op(class) => {
                let pred_dims =
                    graph.predecessors(node).iter().map(|p| shapes[p.index()]).collect();
                OpSpec::for_layer(&graph.layer(node).kind, pred_dims, shapes[node.index()])
                    .map_or(0, |spec| registry.op_candidates(class, &spec).len())
            }
        })
        .sum();
    let stats = plan.solve_stats.ok_or("a PBQP plan carries solver statistics")?;
    add("pbqp.nodes", graph.len() as f64);
    add("pbqp.edges", graph.edges().len() as f64);
    add("pbqp.options_total", options_total as f64);
    add("pbqp.r0", stats.r0 as f64);
    add("pbqp.r1", stats.r1 as f64);
    add("pbqp.r2", stats.r2 as f64);
    add("pbqp.core_nodes", stats.core_nodes as f64);
    add("pbqp.bb_steps", stats.bb_steps as f64);
    add("core.int8_layers", model.plan().int8_layers().len() as f64);
    add("core.quant_edges", model.plan().quant_edge_count() as f64);
    plan_hashes.extend(plan_hash(model.plan()).to_le_bytes());
    Ok(())
}

/// `core.plan_hash`: a 32-bit fold (exact in an f64) of the hashes of
/// the plans the workload's models compile to. If it moves, the serving
/// rows of two commits compare different plans.
fn set_plan_hash(plan_hashes: &[u8], m: &mut Metrics) {
    let h = hash_bytes(plan_hashes);
    m.set("core.plan_hash", f64::from((h ^ (h >> 32)) as u32));
}

// ---------------------------------------------------------------------
// Workload-scoped probes: serving side
// ---------------------------------------------------------------------

/// Median single-request time of every model under `tune`d sessions,
/// summed — the workload's op under another parallelism or plan.
fn sum_infer_ms(models: &mut [ServedModel], n: usize) -> Result<f64, String> {
    let mut total = 0.0;
    for z in models {
        let mut failed = None;
        total += median_ms(n, || failed = z.infer(0).err().or(failed.take()));
        if let Some(e) = failed {
            return Err(e);
        }
    }
    Ok(total)
}

/// The reconciliation and the what-if rows for the models W serves.
/// `op_ms` is W's untraced per-op `Session::infer` time (one request per
/// model); `seconds` sizes the repetition counts.
fn serving_probes(
    models: &mut [ServedModel],
    op_ms: f64,
    seconds: f64,
    m: &mut Metrics,
    t: &mut Tracer,
) -> Result<(), String> {
    m.set("runtime.session_infer_ms", op_ms);

    // Bottom-up: Σ standalone kernels + Σ standalone conversions.
    let reps = fit(0.04 * seconds, op_ms, 1, 5);
    let (mut conv_ms, mut op_kernel_ms, mut convert_ms) = (0.0, 0.0, 0.0);
    let (mut conv_calls, mut op_calls, mut predicted_us) = (0usize, 0usize, 0.0);
    let mut ratios = Vec::new();
    for z in models.iter_mut() {
        let replayed = t.span("replay", NO_REQUEST, |t| replay(&z.model, &z.inputs[0], reps, t))?;
        z.infer(0)?;
        if replayed.out_hash != hash_f32(z.out.data()) {
            return Err(format!("{}: standalone replay output differs from the session's", z.name));
        }
        conv_ms += replayed.conv_ms;
        op_kernel_ms += replayed.op_ms;
        convert_ms += replayed.convert_ms;
        conv_calls += replayed.conv_calls;
        op_calls += replayed.op_calls;
        predicted_us += z.model.plan().predicted_us;
        ratios.extend(replayed.predicted_measured_us.iter().map(|(p, measured)| p / measured));
    }
    m.set("primitives.conv_sum_ms", conv_ms);
    m.set("primitives.op_sum_ms", op_kernel_ms);
    m.set("primitives.conv_calls", conv_calls as f64);
    m.set("primitives.op_calls", op_calls as f64);
    m.set("runtime.steps_sum_over_infer", (conv_ms + op_kernel_ms + convert_ms) / op_ms);
    m.set("runtime.edge_conversion_share", convert_ms / op_ms);
    m.set("core.predicted_over_measured", predicted_us / (op_ms * 1e3));
    m.set("cost.pred_over_meas_geomean", geomean(&ratios));

    // The parallel paths no end-to-end run takes (all are serial).
    let n = fit(0.03 * seconds, op_ms, 2, 200);
    for (name, parallelism) in [
        ("runtime.wavefront_x", Parallelism::serial().with_inter_op(2)),
        ("runtime.intra2_x", Parallelism::serial().with_intra_op(2)),
    ] {
        models.iter_mut().for_each(|z| z.session.set_parallelism(parallelism));
        let parallel_ms = t.span(name, NO_REQUEST, |_| sum_infer_ms(models, n));
        models.iter_mut().for_each(|z| z.session.set_parallelism(Parallelism::serial()));
        m.set(name, op_ms / parallel_ms?);
    }

    // The paper's Fig. 5-7 on this host: the same models served under
    // each baseline strategy (f32 library) over W's own PBQP plan. Each
    // baseline serves the oracle input, and what it returns must agree
    // with what W's plan returns: four more oracles, one of them the
    // textbook convolution (`Strategy::Sum2d`).
    for z in models.iter_mut() {
        z.session
            .infer(&z.oracle_input, &mut z.out)
            .map_err(|e| format!("{}: infer failed: {e}", z.name))?;
    }
    for (name, strategy) in [
        ("core.pbqp_vs_sum2d_x", Strategy::Sum2d),
        ("core.pbqp_vs_local_chw_x", Strategy::LocalOptimalChw),
        ("core.pbqp_vs_caffe_x", Strategy::CaffeLike),
        ("core.pbqp_vs_vendor_x", Strategy::VendorLike { vector_width: 8 }),
    ] {
        let baseline_ms = t.span(name, NO_REQUEST, |_| -> Result<f64, String> {
            let mut total = 0.0;
            for z in models.iter() {
                let baseline = Compiler::new(compile_options(false).strategy(strategy))
                    .compile(&z.graph, z.model.weights())
                    .map_err(|e| format!("{}: {name}: compile failed: {e}", z.name))?;
                let mut session = baseline.engine().session();
                let mut out = Tensor::empty();
                let mut infer = || {
                    let start = Instant::now();
                    session.infer(&z.oracle_input, &mut out).map(|()| ms(start.elapsed()))
                };
                // sum2d on a full-size net takes seconds: when the first
                // request alone overruns the share, it is the sample.
                let first = infer().map_err(|e| format!("{}: {name}: {e}", z.name))?;
                let share_ms = 0.02 * seconds * 1e3;
                total += if first > share_ms {
                    first
                } else {
                    let mut samples = Vec::new();
                    for _ in 0..fit(share_ms / 1e3, first, 1, 50) {
                        samples.push(infer().map_err(|e| format!("{}: {name}: {e}", z.name))?);
                    }
                    median(&mut samples)
                };
                z.within_budget(&z.out, &out).map_err(|e| format!("{name}: {e}"))?;
            }
            Ok(total)
        })?;
        m.set(name, baseline_ms / op_ms);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The traced run, per kind of workload
// ---------------------------------------------------------------------

/// Runs the closed-loop op in alternating untraced and traced blocks and
/// returns (loop result of all ops, untraced p50 ms, traced p50 ms).
fn overhead_slices(
    workload: &mut Workload,
    op_estimate_ms: f64,
    seconds: f64,
    t: &mut Tracer,
) -> (LoopResult, f64, f64) {
    let per_block = fit(0.05 * seconds, op_estimate_ms, 2, 2000) as u64;
    let mut off = Tracer::off();
    let mut all = LoopResult::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0u64;
    for block in 0..4 {
        let is_traced = block % 2 == 1;
        for _ in 0..per_block {
            let start = Instant::now();
            let outcome = if is_traced {
                t.span("request", i, |t| workload.op(i, t))
            } else {
                workload.op(i, &mut off)
            };
            let took = ms(start.elapsed());
            all.attempted += 1;
            all.window_s += took / 1e3;
            match outcome.and_then(|()| workload.check(i)) {
                Ok(()) => {
                    all.latencies_ms.push(took);
                    if is_traced { &mut traced } else { &mut untraced }.push(took);
                }
                Err(e) => all.fail(format!("op {i}: {e}")),
            }
            i += 1;
        }
    }
    (all, median(&mut untraced), median(&mut traced))
}

/// One untraced op to size the blocks (the warm-up already ran), then the
/// alternating blocks; sets `trace.overhead_x` and returns the ops run and
/// the untraced p50 in ms.
fn closed_loop_overhead(
    workload: &mut Workload,
    seconds: f64,
    m: &mut Metrics,
    t: &mut Tracer,
) -> Result<(LoopResult, f64), String> {
    let start = Instant::now();
    workload.op(0, &mut Tracer::off())?;
    let estimate = ms(start.elapsed());
    let (result, untraced_ms, traced_ms) = overhead_slices(workload, estimate, seconds, t);
    m.set("trace.overhead_x", traced_ms / untraced_ms);
    Ok((result, untraced_ms))
}

/// The traced run of one workload: fills `m` with every per-layer
/// metric and returns the ops it attempted on the way.
pub fn traced_run(
    workload: &mut Workload,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    t: &mut Tracer,
) -> Result<LoopResult, String> {
    host_probes(m, seed, t)?;
    let mut plan_hashes = Vec::new();
    let result = if let Workload::Gateway(state) = workload {
        let result = gateway_probes(state, seed, seconds, m, t)?;
        let single_ms = sum_infer_ms(&mut state.models, 200)?;
        // The gateway's op is one request to one model, dealt evenly: the
        // matching runtime figures are the zoo's means.
        let lanes = state.models.len() as f64;
        serving_probes(&mut state.models, single_ms, seconds, m, t)?;
        for name in [
            "runtime.session_infer_ms",
            "primitives.conv_sum_ms",
            "primitives.op_sum_ms",
            "primitives.conv_calls",
            "primitives.op_calls",
        ] {
            m.set(name, m.get(name) / lanes);
        }
        m.set("gateway.overhead_p50_ms", result.percentile(0.5) - single_ms / lanes);
        for z in &state.models {
            compile_probe(&z.graph, z.model.weights(), z.mixed, true, &mut plan_hashes, m, t)?;
        }
        result
    } else {
        let (result, op_ms) = closed_loop_overhead(workload, seconds, m, t)?;
        match workload {
            Workload::Serving(models) => {
                serving_probes(models, op_ms, seconds, m, t)?;
                for z in models.iter() {
                    let weights = z.model.weights();
                    compile_probe(&z.graph, weights, z.mixed, true, &mut plan_hashes, m, t)?;
                }
            }
            Workload::Ship(ship) => {
                for z in &ship.models {
                    compile_probe(&z.graph, &z.weights, true, z.ship, &mut plan_hashes, m, t)?;
                }
            }
            Workload::Gateway(_) => unreachable!("handled above"),
        }
        result
    };
    set_plan_hash(&plan_hashes, m);
    Ok(result)
}

/// The gateway's phases: the workload's own 600 req/s schedule, the same
/// schedule with batching off, and a sweep of fixed rates for the
/// latency-vs-load curve. Every phase gets a fresh
/// gateway so queues and statistics start empty.
fn gateway_probes(
    state: &GatewayState,
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    t: &mut Tracer,
) -> Result<LoopResult, String> {
    let lanes = state.models.len();
    let phase = |rate: f64, share: f64, config: BatchConfig, seed: u64| {
        let schedule = load::poisson_schedule(seed, rate, share * seconds, lanes, POOL);
        let (gateway, fingerprints) = GatewayState::open(&state.models, config);
        let (result, served, start) = gateway_phase(state, &gateway, &fingerprints, &schedule);
        let stats: Vec<_> = fingerprints.iter().filter_map(|fp| gateway.stats(*fp)).collect();
        gateway.shutdown();
        (result, served, stats, start)
    };

    // At the workload's rate: the gateway's own numbers.
    let (mut total, served, stats, start) = phase(GATEWAY_RATE, 0.2, gateway_config(), seed);
    let ok = |s: &&Served<GatewayDone>| s.outcome.is_ok();
    let pick = |f: &dyn Fn(&Served<GatewayDone>) -> f64, p: f64| {
        percentile_of(&served.iter().filter(ok).map(f).collect::<Vec<_>>(), p)
    };
    m.set("gateway.p99_ms", pick(&|s| s.latency_ms(), 0.99));
    m.set("gateway.lateness_p99_ms", pick(&|s| s.lateness_ms(), 0.99));
    m.set(
        "gateway.submit_us_p50",
        pick(&|s| (s.submit_end_ns - s.submit_start_ns) as f64 / 1e3, 0.5),
    );
    m.set(
        "gateway.reported_p50_ms",
        pick(&|s| s.outcome.as_ref().map_or(0.0, |d| d.reported_ms), 0.5),
    );
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let sum =
        |f: &dyn Fn(&pbqp_dnn_gateway::ModelStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    m.set("gateway.mean_batch", sum(&|s| s.served) / batches.max(1) as f64);
    m.set("gateway.flush_by_size_share", sum(&|s| s.flushed_by_size) / batches.max(1) as f64);
    m.set("gateway.rejected", sum(&|s| s.rejected));

    // Every request's life as spans, rebuilt from the stamps the loop
    // takes anyway: tracing this workload runs no code a plain run does
    // not, so `trace.overhead_x` is 1 by construction. The request span
    // runs from the due time; its self time is how late the generator
    // sent it.
    for (i, s) in served.iter().enumerate().filter(|(_, s)| s.outcome.is_ok()) {
        let at = |ns: u64| start + Duration::from_nanos(ns);
        let root = t.record("request", i as u64, None, at(s.arrival.due_ns), at(s.done_ns));
        t.record("gateway.submit", i as u64, root, at(s.submit_start_ns), at(s.submit_end_ns));
        t.record("gateway.queue_and_serve", i as u64, root, at(s.submit_end_ns), at(s.done_ns));
    }
    m.set("trace.overhead_x", 1.0);

    // Batching off: what coalescing buys (or costs) at this rate.
    let (batch1, _, _, _) = phase(GATEWAY_RATE, 0.1, gateway_config().with_max_batch(1), seed);
    m.set("gateway.batch1_p50_ms", batch1.percentile(0.5));
    absorb(&mut total, batch1);

    // Latency rises before throughput stops rising: the sweep shows
    // where. A rate is "in limit" when p90 meets the limit, at least
    // 99.9 % of what was sent was served, and the backlog is not
    // growing (the last quarter's median is not far above the first's).
    let mut in_limit = 0.0f64;
    let mut judge = |rate: f64, result: &LoopResult| {
        let lat = &result.latencies_ms;
        let quarter = lat.len() / 4;
        let growing = quarter > 0
            && percentile_of(&lat[lat.len() - quarter..], 0.5)
                > 2.0 * percentile_of(&lat[..quarter], 0.5) + 1.0;
        let served_share = result.succeeded() as f64 / result.attempted.max(1) as f64;
        if result.percentile(0.9) <= GATEWAY_LIMIT_MS && served_share >= 0.999 && !growing {
            in_limit = in_limit.max(rate);
        }
    };
    judge(GATEWAY_RATE, &total);
    for (rate, label) in SWEEP_RATES {
        let (swept, _, _, _) = phase(rate, 0.1, gateway_config(), seed);
        m.set(&format!("gateway.{label}.p50_ms"), swept.percentile(0.5));
        m.set(&format!("gateway.{label}.p90_ms"), swept.percentile(0.9));
        judge(rate, &swept);
        absorb(&mut total, swept);
    }
    m.set("gateway.max_rate_in_limit_ops_s", in_limit);
    Ok(total)
}

/// Adds `other`'s ops to `total` (latencies stay `total`'s own: they
/// are the first phase's).
fn absorb(total: &mut LoopResult, other: LoopResult) {
    total.attempted += other.attempted;
    total.failed += other.failed;
    total.errors.extend(other.errors);
    total.errors.truncate(5);
}

/// Where the traced run leaves its spans.
pub fn write_trace(t: &Tracer, workload: &str) -> Result<std::path::PathBuf, String> {
    let path = crate::report::out_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(&path, t.to_json().pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn replay_reproduces_the_session_output_and_counts_every_node() {
        let mut t = Tracer::new(true, Instant::now());
        for (i, (name, graph)) in micro_zoo().into_iter().enumerate() {
            let mut z = ServedModel::build(name, graph, true, 11, i as u64, &mut t).unwrap();
            let replayed = replay(&z.model, &z.inputs[2], 1, &mut t).unwrap();
            z.infer(2).unwrap();
            assert_eq!(replayed.out_hash, hash_f32(z.out.data()), "{name}");
            let plan = z.model.plan();
            assert_eq!(replayed.conv_calls, plan.selected_primitives().len(), "{name}");
            assert_eq!(replayed.op_calls, plan.selected_op_kernels().len(), "{name}");
            assert!(replayed.conv_ms > 0.0 && replayed.convert_ms > 0.0);
        }
        let totals = t.totals();
        assert!(totals["primitives.conv"].count > 0 && totals["tensor.convert"].count > 0);
    }

    #[test]
    fn synthetic_instance_is_fixed_irreducible_and_needs_search() {
        let g = synthetic_instance();
        assert_eq!((g.num_nodes(), g.num_edges()), (SYNTHETIC_NODES, 2 * SYNTHETIC_NODES));
        let a = Solver::new().solve(&g).unwrap();
        let b = Solver::new().solve(&synthetic_instance()).unwrap();
        assert_eq!(a.stats, b.stats, "counts must repeat exactly");
        assert_eq!(a.stats.core_nodes, SYNTHETIC_NODES, "nothing reduces at degree 4");
        assert!(a.stats.bb_steps > 0 && a.optimal);
    }

    #[test]
    fn compile_probe_counts_are_exact_and_phases_are_positive() {
        let graph = models::micro_resnet();
        let weights = Weights::random(&graph, 42);
        let run = || {
            let mut m = Metrics::new(&PER_LAYER);
            let mut bytes = Vec::new();
            let mut off = Tracer::off();
            compile_probe(&graph, &weights, true, true, &mut bytes, &mut m, &mut off).unwrap();
            set_plan_hash(&bytes, &mut m);
            m
        };
        let (a, b) = (run(), run());
        for name in ["pbqp.nodes", "pbqp.edges", "pbqp.options_total", "pbqp.r1", "core.plan_hash"]
        {
            assert!(a.get(name) > 0.0, "{name}");
            assert_eq!(a.get(name), b.get(name), "{name} must repeat exactly");
        }
        assert_eq!(a.get("pbqp.nodes"), graph.len() as f64);
        assert_eq!(a.get("pbqp.core_nodes"), 0.0, "DNN graphs reduce fully");
        assert!(a.get("facade.compile_ms") > 0.0 && a.get("artifact.bytes") > 0.0);
    }
}
