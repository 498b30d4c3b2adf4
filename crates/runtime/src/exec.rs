use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use pbqp_dnn_graph::{ConvScenario, DnnGraph, GraphError, LayerKind, NodeId};
use pbqp_dnn_primitives::reference::{
    add_reference, concat_reference, fully_connected_reference, lrn_reference, pool_reference,
    relu_reference, softmax_reference, sum2d_reference,
};
use pbqp_dnn_primitives::registry::Registry;
use pbqp_dnn_primitives::{ConvAlgorithm, OpInputs, OpKernel, OpSpec, PrimitiveError, Workspace};
use pbqp_dnn_select::{AssignmentKind, ExecutionPlan};
use pbqp_dnn_tensor::transform::{apply_repr_into, to_layout_into, ReprTransform};
use pbqp_dnn_tensor::{DType, KernelTensor, Layout, Repr, Tensor, TensorError};

use crate::faults;
use crate::sampler::{self, SamplerState};
use crate::weights::Weights;
use crate::Parallelism;

/// Executors recycle at most this many buffer sets; the pool vector is
/// pre-sized so returning a set never reallocates.
const BUFFER_POOL_CAP: usize = 64;

/// Errors from plan execution.
#[derive(Debug)]
pub enum RuntimeError {
    /// The graph failed validation.
    Graph(GraphError),
    /// A selected primitive failed.
    Primitive(PrimitiveError),
    /// A layout transformation failed.
    Tensor(TensorError),
    /// The plan references a primitive the registry does not contain.
    UnknownPrimitive(String),
    /// A parameterized layer has no weights.
    MissingWeights(String),
    /// A fully-connected layer's weight matrix is not `out · c·h·w` long
    /// for the shape the graph infers (e.g. weights from a bad artifact or
    /// another graph).
    WeightShape {
        /// The layer whose weights disagree with its shape.
        layer: String,
        /// Elements the layer's shape requires.
        expected: usize,
        /// Elements the weight matrix holds.
        found: usize,
    },
    /// The supplied network input has the wrong shape or layout.
    BadInput(String),
    /// The plan's assignment kinds disagree with the graph's layer kinds
    /// (e.g. a conv assignment on a pooling node) — the plan was built
    /// for a different graph or corrupted.
    PlanMismatch(String),
    /// A selected kernel panicked at dispatch. The unwind was contained
    /// at the step boundary: the process, the executor and its buffer
    /// pool all stay serviceable, and the (node, kernel) pair names the
    /// culprit so a serving layer can quarantine it.
    KernelPanicked {
        /// The graph node (layer name) whose step was executing.
        node: String,
        /// The selected primitive/op kernel that panicked.
        kernel: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// A selected kernel reported a failure at dispatch (today only via
    /// fault injection — real kernels either succeed or panic). Carries
    /// the same (node, kernel) attribution as a contained panic.
    KernelFailed {
        /// The graph node (layer name) whose step was executing.
        node: String,
        /// The selected primitive/op kernel that failed.
        kernel: String,
        /// The failure description.
        message: String,
    },
    /// A fault-injection site surfaced its injected error (see
    /// [`crate::faults`]).
    Injected {
        /// The failpoint site that fired.
        site: &'static str,
        /// The injected error message.
        message: String,
    },
    /// A panic outside kernel dispatch (edge conversion, a worker
    /// thread, buffer checkout, schedule compile) was contained into a
    /// typed error instead of unwinding through the caller.
    Panicked {
        /// Where the panic was contained.
        context: String,
        /// The panic payload, stringified.
        message: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Graph(e) => write!(f, "graph error: {e}"),
            RuntimeError::Primitive(e) => write!(f, "primitive error: {e}"),
            RuntimeError::Tensor(e) => write!(f, "tensor error: {e}"),
            RuntimeError::UnknownPrimitive(n) => write!(f, "unknown primitive `{n}`"),
            RuntimeError::MissingWeights(n) => write!(f, "missing weights for layer `{n}`"),
            RuntimeError::WeightShape { layer, expected, found } => write!(
                f,
                "weights of layer `{layer}` have {found} elements, its shape needs {expected}"
            ),
            RuntimeError::BadInput(d) => write!(f, "bad network input: {d}"),
            RuntimeError::PlanMismatch(d) => write!(f, "plan does not fit graph: {d}"),
            RuntimeError::KernelPanicked { node, kernel, message } => {
                write!(f, "kernel `{kernel}` panicked on node `{node}` (contained): {message}")
            }
            RuntimeError::KernelFailed { node, kernel, message } => {
                write!(f, "kernel `{kernel}` failed on node `{node}`: {message}")
            }
            RuntimeError::Injected { site, message } => {
                write!(f, "injected fault at `{site}`: {message}")
            }
            RuntimeError::Panicked { context, message } => {
                write!(f, "panic contained in {context}: {message}")
            }
        }
    }
}

impl Error for RuntimeError {}

impl From<GraphError> for RuntimeError {
    fn from(e: GraphError) -> Self {
        RuntimeError::Graph(e)
    }
}
impl From<PrimitiveError> for RuntimeError {
    fn from(e: PrimitiveError) -> Self {
        RuntimeError::Primitive(e)
    }
}
impl From<TensorError> for RuntimeError {
    fn from(e: TensorError) -> Self {
        RuntimeError::Tensor(e)
    }
}

/// What one compiled step computes.
enum StepOp {
    /// A convolution dispatched to its selected primitive. The primitive
    /// and kernel are shared handles, so a compiled schedule is fully
    /// self-contained: it outlives the registry and weights it was built
    /// from (the lifetime-ergonomics fix behind the front-door `Engine`).
    Conv { prim: Arc<dyn ConvAlgorithm>, kernel: Arc<KernelTensor>, scenario: ConvScenario },
    /// The network input node: shape check plus the plan's conversion
    /// chain into the node's chosen layout. The chain's intermediate hops
    /// stage through conversion buffers `conv_base..`; the final hop
    /// lands in the node's pooled output buffer.
    Input {
        c: usize,
        h: usize,
        w: usize,
        layout: Layout,
        chain: Vec<ReprTransform>,
        conv_base: usize,
    },
    /// A non-conv operator dispatched to its selected op kernel — like
    /// conv steps, the kernel is a shared handle so the compiled schedule
    /// stays self-contained.
    Op { kernel: Arc<dyn OpKernel>, spec: OpSpec, fc_weights: Option<Arc<Vec<f32>>> },
}

/// One incoming edge of a step: where the predecessor's value lives and
/// how to legalize it into this node's input layout.
struct PredEdge {
    /// Pooled value-buffer index of the predecessor (holds the
    /// predecessor's *node* index until slot assignment remaps it).
    buf: usize,
    /// The edge's representation-conversion chain — layout hops and any
    /// quantize/dequantize at mixed-precision boundaries (empty = borrow
    /// directly).
    chain: Vec<ReprTransform>,
    /// First conversion-buffer index; the chain uses
    /// `conv_base .. conv_base + chain.len()`.
    conv_base: usize,
}

/// One node of the compiled schedule: resolved operator, incoming edges,
/// and the pooled buffer its output lands in.
struct Step {
    node: NodeId,
    /// The layer's name, carried for fault attribution: a contained
    /// kernel panic reports (node, kernel) so serving can quarantine.
    name: String,
    /// Incoming edges in predecessor order.
    preds: Vec<PredEdge>,
    op: StepOp,
    /// Pooled value buffer receiving this node's output.
    out_buf: usize,
    /// Output dims and representation, inferred at compile time (drives
    /// buffer sizing and lets ops like concat pre-shape their output).
    out_shape: (usize, usize, usize, Repr),
}

/// One step's identity for observers: the node it computes, the layer
/// name, and the kernel the plan selected for it. Returned by
/// [`Schedule::step_meta`], index-aligned with a live-profiler sampler's
/// per-step reservoirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepMeta {
    /// The graph node this step computes.
    pub node: NodeId,
    /// The layer name (fault/observation attribution).
    pub name: String,
    /// The selected kernel's name (`"input"` for the input step, which
    /// runs no selectable kernel).
    pub kernel: String,
}

/// Per-worker execution state: the pooled activation buffers, conversion
/// staging tensors and primitive scratch workspace for one in-flight
/// forward pass. Created by [`Schedule::make_buffers`] (or recycled from
/// an executor's pool) — after the first run every buffer is at its
/// steady-state size and execution performs zero heap allocations.
///
/// Buffer sets are the *per-caller* half of the split execution state:
/// one immutable [`Schedule`] shared by every thread, one `ExecBuffers`
/// owned by each (the front door's `Session` owns exactly one).
pub struct ExecBuffers {
    /// Pooled value buffers, indexed by the schedule's slot assignment.
    values: Vec<Tensor>,
    /// Per-edge-hop conversion staging buffers.
    convs: Vec<Tensor>,
    /// Primitive scratch arenas, reset between steps.
    ws: Workspace,
    /// Extra per-worker workspaces for wavefront levels, grown to the
    /// fan-out width on first use and reused across levels and runs.
    wave_ws: Vec<Workspace>,
    /// Live-profiler recording state, attached by an autotuning engine
    /// ([`ExecBuffers::attach_sampler`]); `None` everywhere else, and in
    /// particular for per-item batch sets — the fused batch path shares
    /// its timing attribution problem with wavefront fan-out and is left
    /// unsampled.
    sampler: Option<SamplerState>,
}

impl ExecBuffers {
    /// Attaches a live-profiler recording state to this buffer set: the
    /// owning worker starts timestamping sampled step dispatches into
    /// `state`'s preallocated reservoirs and merging them into its shared
    /// [`crate::sampler::Sampler`] once per run. Replaces any previous
    /// state (a hot-swap attaches a fresh one so `(node, kernel)`
    /// attribution follows the new schedule).
    pub fn attach_sampler(&mut self, state: SamplerState) {
        self.sampler = Some(state);
    }

    /// Detaches the live-profiler state, returning the buffer set to
    /// plain unsampled execution.
    pub fn detach_sampler(&mut self) {
        self.sampler = None;
    }
}

/// Per-item buffer sets plus the shared fused-batch scratch for one
/// caller running dynamic batches through
/// [`Schedule::run_batch_fused_into`] — the buffer half of cross-request
/// coalescing.
///
/// Each batch item owns a full [`ExecBuffers`] (its activations stay
/// live independently across the level-major walk); fused conv steps
/// additionally carve their stacked patch matrices and wide-GEMM staging
/// from the one shared [`Workspace`]. Sets, workspace and the output
/// staging vector all grow to the high-watermark batch size once and are
/// reused afterwards, so a warmed serving loop batches without heap
/// allocations.
#[derive(Default)]
pub struct BatchBuffers {
    /// One buffer set per in-flight batch item.
    sets: Vec<ExecBuffers>,
    /// Shared scratch for fused (cross-item) primitive calls.
    ws: Workspace,
    /// Staging for per-item output tensors taken out of their pools
    /// while a fused step borrows every set immutably.
    staged: Vec<Tensor>,
}

impl BatchBuffers {
    /// An empty set; capacities settle on first use.
    pub fn new() -> BatchBuffers {
        BatchBuffers::default()
    }

    /// Grows to serve `batch` items of `schedule`: missing per-item
    /// buffer sets are materialized and the fused workspace is reserved
    /// to the peak fused-step requirement. Idempotent at or below the
    /// current watermark.
    pub fn ensure(&mut self, schedule: &Schedule, batch: usize) {
        if self.sets.len() < batch {
            self.sets.resize_with(batch, || schedule.make_buffers());
            self.ws.reserve(schedule.batch_ws_req(batch));
            self.staged.reserve(batch);
        }
    }
}

/// A plan compiled against its graph, registry and weights: topological
/// step order, wavefront levels, every per-run lookup (primitive
/// resolution, edge chains, weight references) hoisted out of the
/// execution loop, **and** an activation memory plan — liveness-reduced
/// output slots plus the peak primitive workspace — so steady-state
/// execution never allocates.
///
/// A schedule is **owned and immutable**: conv steps hold shared handles
/// to their primitives and kernels, so the schedule does not borrow the
/// registry or weights it was compiled from. One schedule (it is `Sync`)
/// serves any number of threads, each running out of its own
/// [`ExecBuffers`] — this split is what the front-door `Engine`/`Session`
/// API is built on, and what [`Executor`] uses internally.
///
/// # Example
///
/// ```
/// use pbqp_dnn_cost::{AnalyticCost, MachineModel};
/// use pbqp_dnn_graph::models;
/// use pbqp_dnn_primitives::registry::{full_library, Registry};
/// use pbqp_dnn_runtime::{Parallelism, Schedule, Weights};
/// use pbqp_dnn_select::{Optimizer, Strategy};
/// use pbqp_dnn_tensor::{Layout, Tensor};
///
/// let net = models::micro_alexnet();
/// let registry = Registry::new(full_library());
/// let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
/// let plan = Optimizer::new(&registry, &cost).plan(&net, Strategy::Pbqp).unwrap();
/// let weights = Weights::random(&net, 1);
///
/// // Compile once; the schedule owns everything it needs.
/// let schedule = Schedule::compile(&net, &plan, &registry, &weights).unwrap();
/// drop(registry); // no borrows retained
///
/// let mut bufs = schedule.make_buffers();
/// let mut out = Tensor::empty();
/// let (c, h, w) = net.infer_shapes().unwrap()[0];
/// let input = Tensor::random(c, h, w, Layout::Chw, 7);
/// schedule.run_into(&input, &mut bufs, &mut out, Parallelism::serial()).unwrap();
/// assert_eq!(out.dims(), net.infer_shapes().unwrap().last().copied().unwrap());
/// ```
pub struct Schedule {
    /// Steps in topological order.
    steps: Vec<Step>,
    /// Wavefront levels: indices into `steps` whose nodes have no
    /// dependencies among each other — safe to run concurrently.
    levels: Vec<Vec<usize>>,
    /// Pooled value-buffer sizes (storage elements of the slot's dtype).
    /// Liveness analysis lets nodes whose lifetimes do not overlap share
    /// one buffer, so this is sized by peak activation memory, not by
    /// node count; slots are segregated by dtype so a recycled buffer
    /// never swaps its backing store between runs.
    buf_elems: Vec<(usize, DType)>,
    /// Conversion-buffer shapes, one per edge-chain hop.
    conv_shapes: Vec<(usize, usize, usize, Repr)>,
    /// Peak serial primitive scratch across all steps.
    ws_req: pbqp_dnn_primitives::WorkspaceReq,
    /// Pooled buffer holding the network output after a pass.
    last_buf: usize,
    /// The plan's output conversion for the terminal node (dequantization
    /// back to f32 when the sink chose a quantized representation);
    /// intermediate hops stage through `out_conv_base..`.
    out_chain: Vec<ReprTransform>,
    /// First conversion-buffer index of the output chain's staging.
    out_conv_base: usize,
    /// The network input dims, checked before a pass touches any buffer
    /// (`None` only for hand-built graphs without an input node).
    input_dims: Option<(usize, usize, usize)>,
}

impl Schedule {
    /// Compiles `plan` against its graph, registry and weights into a
    /// self-contained schedule: primitive and kernel lookups resolved to
    /// shared handles, legalization chains materialized per edge, and the
    /// activation memory plan (liveness-pooled slots, conversion staging
    /// shapes, peak primitive workspace) computed up front.
    ///
    /// Int8-assigned conv layers have their weights quantized here, once
    /// — the serving loop reads the cached image and never touches the
    /// f32 taps.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] for malformed graphs, plans referencing
    /// primitives the registry does not contain, or parameterized layers
    /// without weights. A panic during compilation (or the
    /// `schedule.compile` failpoint) is contained into a typed error —
    /// compiling never takes the process down.
    pub fn compile(
        graph: &DnnGraph,
        plan: &ExecutionPlan,
        registry: &Registry,
        weights: &Weights,
    ) -> Result<Schedule, RuntimeError> {
        match catch_unwind(AssertUnwindSafe(|| {
            if let Some(faults::Injected::Error(msg)) = faults::hit(faults::SCHEDULE_COMPILE) {
                return Err(RuntimeError::Injected {
                    site: faults::SCHEDULE_COMPILE,
                    message: msg,
                });
            }
            Schedule::compile_inner(graph, plan, registry, weights)
        })) {
            Ok(r) => r,
            Err(p) => Err(RuntimeError::Panicked {
                context: "schedule compile".to_owned(),
                message: faults::panic_message(p),
            }),
        }
    }

    fn compile_inner(
        graph: &DnnGraph,
        plan: &ExecutionPlan,
        registry: &Registry,
        weights: &Weights,
    ) -> Result<Schedule, RuntimeError> {
        let order = graph.topo_order()?;
        let chains: HashMap<(usize, usize), &[ReprTransform]> = plan
            .edges
            .iter()
            .map(|e| ((e.from.index(), e.to.index()), e.chain.as_slice()))
            .collect();
        let input_chains: HashMap<usize, &[ReprTransform]> =
            plan.input_conversion.iter().map(|(n, c, _)| (n.index(), c.as_slice())).collect();

        let mut steps = Vec::with_capacity(order.len());
        let mut level_of = vec![0usize; graph.len()];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        // The graph's own shape inference (one source of truth for the
        // pool/FC/concat output rules) drives all buffer sizing.
        let shapes = graph.infer_shapes()?;
        let mut conv_shapes: Vec<(usize, usize, usize, Repr)> = Vec::new();
        let mut ws_req = pbqp_dnn_primitives::WorkspaceReq::ZERO;
        let mut input_dims = None;
        for (step_ix, &node) in order.iter().enumerate() {
            let layer = graph.layer(node);
            let preds: Vec<PredEdge> = graph
                .predecessors(node)
                .iter()
                .map(|p| {
                    let chain = chains.get(&(p.index(), node.index())).copied().unwrap_or(&[]);
                    let conv_base = conv_shapes.len();
                    let (pc, ph, pw) = shapes[p.index()];
                    for hop in chain {
                        conv_shapes.push((pc, ph, pw, hop.to()));
                    }
                    PredEdge { buf: p.index(), chain: chain.to_vec(), conv_base }
                })
                .collect();

            let (op, out_shape) = match (&layer.kind, plan.assignment(node)) {
                (LayerKind::Conv(s), AssignmentKind::Conv { primitive, .. }) => {
                    let prim = registry
                        .by_name(primitive)
                        .ok_or_else(|| RuntimeError::UnknownPrimitive(primitive.clone()))?;
                    let kernel = weights
                        .conv_kernel_shared(node)
                        .ok_or_else(|| RuntimeError::MissingWeights(layer.name.clone()))?;
                    ws_req = ws_req.max(prim.workspace_req(s));
                    if prim.descriptor().input_dtype == DType::I8 {
                        // Pre-quantize the weights at schedule-compile
                        // time: the serving loop reads the cached int8
                        // image and never touches the f32 taps.
                        let _ = kernel.quantized();
                    }
                    let repr = prim.descriptor().output_repr();
                    let op = StepOp::Conv { prim: Arc::clone(prim), kernel, scenario: *s };
                    (op, (s.m, s.out_h(), s.out_w(), repr))
                }
                (LayerKind::Input { c, h, w }, AssignmentKind::Source { repr }) => {
                    input_dims = Some((*c, *h, *w));
                    let chain = input_chains.get(&node.index()).copied().unwrap_or(&[]);
                    let conv_base = conv_shapes.len();
                    if chain.len() > 1 {
                        for hop in &chain[..chain.len() - 1] {
                            conv_shapes.push((*c, *h, *w, hop.to()));
                        }
                    }
                    let op = StepOp::Input {
                        c: *c,
                        h: *h,
                        w: *w,
                        layout: repr.layout,
                        chain: chain.to_vec(),
                        conv_base,
                    };
                    (op, (*c, *h, *w, *repr))
                }
                (kind, AssignmentKind::Op { kernel, .. }) => {
                    let op_kernel = registry
                        .op_by_name(kernel)
                        .ok_or_else(|| RuntimeError::UnknownPrimitive(kernel.clone()))?;
                    let pred_dims: Vec<(usize, usize, usize)> =
                        graph.predecessors(node).iter().map(|p| shapes[p.index()]).collect();
                    let spec = OpSpec::for_layer(kind, pred_dims, shapes[node.index()])
                        .ok_or_else(|| {
                            RuntimeError::PlanMismatch(format!(
                                "op assignment `{kernel}` on non-operator layer {kind}"
                            ))
                        })?;
                    let fc_weights = if let LayerKind::FullyConnected { .. } = kind {
                        let matrix = weights
                            .fc_matrix_shared(node)
                            .ok_or_else(|| RuntimeError::MissingWeights(layer.name.clone()))?;
                        // A short matrix would otherwise surface as a
                        // kernel error on every request.
                        let expected = spec.out_elems() * spec.in_elems();
                        if matrix.len() != expected {
                            return Err(RuntimeError::WeightShape {
                                layer: layer.name.clone(),
                                expected,
                                found: matrix.len(),
                            });
                        }
                        Some(matrix)
                    } else {
                        None
                    };
                    ws_req = ws_req.max(op_kernel.workspace_req(&spec));
                    let repr = op_kernel.descriptor().output_repr();
                    let dims = shapes[node.index()];
                    let op = StepOp::Op { kernel: Arc::clone(op_kernel), spec, fc_weights };
                    (op, (dims.0, dims.1, dims.2, repr))
                }
                (kind, assignment) => {
                    return Err(RuntimeError::PlanMismatch(format!(
                        "assignment {assignment:?} on layer {kind}"
                    )))
                }
            };
            let level = preds.iter().map(|pe| level_of[pe.buf] + 1).max().unwrap_or(0);
            level_of[node.index()] = level;
            if levels.len() <= level {
                levels.resize_with(level + 1, Vec::new);
            }
            levels[level].push(step_ix);
            steps.push(Step {
                node,
                name: layer.name.clone(),
                preds,
                op,
                out_buf: usize::MAX,
                out_shape,
            });
        }

        let last = *order.last().expect("graph validated as non-empty");
        let out_chain: &[ReprTransform] = plan
            .output_conversion
            .iter()
            .find(|(n, _, _)| *n == last)
            .map(|(_, c, _)| c.as_slice())
            .unwrap_or(&[]);
        let out_conv_base = conv_shapes.len();
        if out_chain.len() > 1 {
            let (c, h, w) = shapes[last.index()];
            for hop in &out_chain[..out_chain.len() - 1] {
                conv_shapes.push((c, h, w, hop.to()));
            }
        }

        // ---- Activation memory plan -------------------------------------
        // A value dies after the last wavefront *level* that reads it
        // (level granularity keeps slot reuse race-free under concurrent
        // level execution); the network output never dies. Dead slots go
        // to a free list and are re-issued best-fit.
        let mut last_use_level = level_of.clone();
        for step in &steps {
            for pe in &step.preds {
                let lvl = level_of[step.node.index()];
                last_use_level[pe.buf] = last_use_level[pe.buf].max(lvl);
            }
        }
        last_use_level[last.index()] = usize::MAX;

        let mut release_at: Vec<Vec<usize>> = vec![Vec::new(); levels.len()];
        for (node, &lul) in last_use_level.iter().enumerate() {
            if lul != usize::MAX && lul + 1 < levels.len() {
                release_at[lul + 1].push(node);
            }
        }

        let mut node_buf = vec![usize::MAX; graph.len()];
        let mut buf_elems: Vec<(usize, DType)> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        for (lv, level) in levels.iter().enumerate() {
            for &node in &release_at[lv] {
                free.push(node_buf[node]);
            }
            for &six in level {
                let node = steps[six].node.index();
                let (c, h, w, repr) = steps[six].out_shape;
                let elems = repr.layout.storage_len(c, h, w);
                // Best fit among free buffers of the SAME dtype (reusing
                // a slot across dtypes would swap its backing store every
                // run): smallest that already holds the value; otherwise
                // grow the largest; otherwise a new buffer.
                let same_dtype = |b: usize| buf_elems[b].1 == repr.dtype;
                let pick = free
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| same_dtype(b) && buf_elems[b].0 >= elems)
                    .min_by_key(|&(_, &b)| buf_elems[b].0)
                    .map(|(i, _)| i)
                    .or_else(|| {
                        free.iter()
                            .enumerate()
                            .filter(|&(_, &b)| same_dtype(b))
                            .max_by_key(|&(_, &b)| buf_elems[b].0)
                            .map(|(i, _)| i)
                    });
                let buf = match pick {
                    Some(i) => free.swap_remove(i),
                    None => {
                        buf_elems.push((0, repr.dtype));
                        buf_elems.len() - 1
                    }
                };
                buf_elems[buf].0 = buf_elems[buf].0.max(elems);
                node_buf[node] = buf;
            }
        }
        for step in &mut steps {
            step.out_buf = node_buf[step.node.index()];
            for pe in &mut step.preds {
                pe.buf = node_buf[pe.buf];
            }
        }

        let last_buf = node_buf[last.index()];
        Ok(Schedule {
            steps,
            levels,
            buf_elems,
            conv_shapes,
            ws_req,
            last_buf,
            out_chain: out_chain.to_vec(),
            out_conv_base,
            input_dims,
        })
    }

    /// Runs one forward pass out of a caller-owned buffer set, writing
    /// the network output into `out` — the per-thread serving primitive
    /// the front door's `Session::infer` is built on. `input` must be the
    /// canonical-CHW network input; the plan's input-conversion chain is
    /// applied automatically and quantized sinks are dequantized back to
    /// f32 through the plan's output chain.
    ///
    /// With serial [`Parallelism`] a warmed `(bufs, out)` pair makes this
    /// call perform **zero heap allocations**; `inter_op > 1` walks the
    /// DAG in wavefront levels on scoped threads, bit-identical to
    /// serial.
    ///
    /// # Errors
    ///
    /// Propagates graph, primitive, transformation and input-shape
    /// errors.
    pub fn run_into(
        &self,
        input: &Tensor,
        bufs: &mut ExecBuffers,
        out: &mut Tensor,
        par: Parallelism,
    ) -> Result<(), RuntimeError> {
        self.check_input(input)?;
        if par.inter_op > 1 {
            self.execute_wavefront(input, par, bufs)?;
        } else {
            self.execute_serial(input, par.intra_op, bufs)?;
        }
        if sampler::active() {
            // Merge this run's local reservoirs into the shared sampler;
            // a contended merge is deferred, never blocking the request.
            if let Some(state) = bufs.sampler.as_mut() {
                state.flush();
            }
        }
        self.finish_output(bufs, out)
    }

    /// Peak fused-batch workspace across the schedule's batch-fusing
    /// conv steps for `batch` simultaneous items (the shared-scratch
    /// half of [`BatchBuffers`]; per-item steps use each set's own
    /// workspace).
    pub fn batch_ws_req(&self, batch: usize) -> pbqp_dnn_primitives::WorkspaceReq {
        let mut req = pbqp_dnn_primitives::WorkspaceReq::ZERO;
        for step in &self.steps {
            if let StepOp::Conv { prim, scenario, .. } = &step.op {
                if prim.fuses_batch() {
                    req = req.max(prim.batch_workspace_req(scenario, batch));
                }
            }
        }
        req
    }

    /// Runs a whole batch of independent inputs through the schedule
    /// **level-major**, fusing compatible conv steps across items: where
    /// the selected primitive supports it (the im2col/im2row GEMM
    /// family), all items' patch matrices stack into one wide GEMM call,
    /// amortizing kernel re-layouts and packed panels over the batch —
    /// the mechanism that makes dynamic request coalescing beat
    /// per-request serving on throughput. Every other step (ops, layout
    /// conversions, non-fusing primitives) runs per item in input order.
    ///
    /// `outs[i]` receives item `i`'s output via its recycled storage.
    /// Results are **bit-identical** per item to [`Schedule::run_into`]:
    /// fusing only widens a GEMM's independent dimension and never
    /// reorders any element's accumulation.
    ///
    /// Panics at kernel dispatch (real or injected) are contained
    /// exactly like the serial path's, with the same (node, kernel)
    /// attribution.
    ///
    /// # Errors
    ///
    /// Validates every input up front (one malformed member fails the
    /// batch before anything executes) and propagates the first
    /// execution error.
    pub fn run_batch_fused_into(
        &self,
        inputs: &[Tensor],
        bufs: &mut BatchBuffers,
        outs: &mut [Tensor],
        intra_op: usize,
    ) -> Result<(), RuntimeError> {
        for input in inputs {
            self.check_input(input)?;
        }
        if outs.len() != inputs.len() {
            return Err(RuntimeError::BadInput(format!(
                "batch of {} inputs but {} output slots",
                inputs.len(),
                outs.len()
            )));
        }
        bufs.ensure(self, inputs.len());
        for (six, step) in self.steps.iter().enumerate() {
            self.eval_batch_step(six, step, inputs, bufs, intra_op)?;
        }
        for (set, out) in bufs.sets.iter_mut().zip(outs.iter_mut()) {
            self.finish_output(set, out)?;
        }
        Ok(())
    }

    /// Evaluates one step for every batch item: through the fused
    /// batched primitive entry point when the step's primitive supports
    /// it and the batch is real, per item otherwise.
    fn eval_batch_step(
        &self,
        six: usize,
        step: &Step,
        inputs: &[Tensor],
        bufs: &mut BatchBuffers,
        intra_op: usize,
    ) -> Result<(), RuntimeError> {
        let batch = inputs.len();
        let fuse = batch > 1 && matches!(&step.op, StepOp::Conv { prim, .. } if prim.fuses_batch());
        if !fuse {
            for (i, input) in inputs.iter().enumerate() {
                self.eval_into(six, step, &mut bufs.sets[i], input, intra_op)?;
            }
            return Ok(());
        }
        let StepOp::Conv { prim, kernel, scenario } = &step.op else { unreachable!() };
        for (i, input) in inputs.iter().enumerate() {
            let set = &mut bufs.sets[i];
            self.run_conversions(step, &set.values, &mut set.convs, input)?;
        }
        // Take every item's output slot out of its pool so all sets can
        // then be borrowed immutably as the fused call's inputs
        // (liveness guarantees no live predecessor shares the slot).
        let BatchBuffers { sets, ws, staged } = bufs;
        staged.clear();
        for set in sets[..batch].iter_mut() {
            staged.push(std::mem::replace(&mut set.values[step.out_buf], Tensor::empty()));
        }
        let sets_ro: &[ExecBuffers] = &sets[..batch];
        let pe = &step.preds[0];
        let resolve = |i: usize| -> &Tensor {
            match pe.chain.len() {
                0 => &sets_ro[i].values[pe.buf],
                l => &sets_ro[i].convs[pe.conv_base + l - 1],
            }
        };
        ws.reset();
        let contained = catch_unwind(AssertUnwindSafe(|| -> Result<(), RuntimeError> {
            if let Some(faults::Injected::Error(msg)) = faults::hit(faults::KERNEL_DISPATCH) {
                return Err(RuntimeError::KernelFailed {
                    node: step.name.clone(),
                    kernel: prim.descriptor().name.clone(),
                    message: msg,
                });
            }
            prim.execute_batch_into(batch, &resolve, kernel, scenario, intra_op, ws, staged)?;
            Ok(())
        }));
        // Commit every slot back before surfacing errors so the pools
        // stay intact.
        for (set, out) in bufs.sets[..batch].iter_mut().zip(bufs.staged.drain(..)) {
            set.values[step.out_buf] = out;
        }
        match contained {
            Ok(r) => r,
            Err(p) => Err(RuntimeError::KernelPanicked {
                node: step.name.clone(),
                kernel: prim.descriptor().name.clone(),
                message: faults::panic_message(p),
            }),
        }
    }

    /// Validates a network input — canonical CHW layout, the compiled
    /// input dims — *before* a pass touches any buffer, so a malformed
    /// request (e.g. one bad member of a batch) is a typed
    /// [`RuntimeError::BadInput`] with no partial execution.
    pub fn check_input(&self, input: &Tensor) -> Result<(), RuntimeError> {
        if input.layout() != Layout::Chw {
            return Err(RuntimeError::BadInput(format!(
                "network inputs are canonical CHW, got {}",
                input.layout()
            )));
        }
        if let Some(dims) = self.input_dims {
            if input.dims() != dims {
                return Err(RuntimeError::BadInput(format!(
                    "expected input dims {dims:?}, got {:?}",
                    input.dims()
                )));
            }
        }
        Ok(())
    }

    /// Number of pooled activation slots in the memory plan. Liveness
    /// analysis lets non-overlapping values share slots, so this is
    /// bounded by peak activation working set, not node count.
    pub fn activation_slots(&self) -> usize {
        self.buf_elems.len()
    }

    /// Number of wavefront levels (the DAG's critical-path length).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Number of steps — the reservoir count a live-profiler
    /// [`crate::sampler::Sampler`] for this schedule must be sized to.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Per-step metadata, index-aligned with the sampler's reservoir
    /// slots: which node each step computes and the kernel the plan
    /// selected for it. This is the map from raw step timings back to
    /// the `(node, kernel)` pairs an observed-cost table is keyed by.
    pub fn step_meta(&self) -> Vec<StepMeta> {
        self.steps
            .iter()
            .map(|step| {
                let kernel = match &step.op {
                    StepOp::Conv { prim, .. } => prim.descriptor().name.clone(),
                    StepOp::Op { kernel, .. } => kernel.descriptor().name.clone(),
                    // The input step runs no selectable kernel; its
                    // timings exist but map to no plan decision.
                    StepOp::Input { .. } => String::from("input"),
                };
                StepMeta { node: step.node, name: step.name.clone(), kernel }
            })
            .collect()
    }

    /// Delivers the network output into `out`: a plain recycled copy when
    /// the terminal value is already f32, otherwise the plan's output
    /// conversion chain (dequantization), staged through the dedicated
    /// conversion buffers — allocation-free once warmed, like every
    /// other chain.
    fn finish_output(&self, bufs: &mut ExecBuffers, out: &mut Tensor) -> Result<(), RuntimeError> {
        let src = &bufs.values[self.last_buf];
        match self.out_chain.len() {
            0 => out.assign_from(src),
            1 => apply_hop(src, self.out_chain[0], out)?,
            l => {
                let convs = &mut bufs.convs;
                for (j, hop) in self.out_chain[..l - 1].iter().enumerate() {
                    let (done, rest) = convs.split_at_mut(self.out_conv_base + j);
                    let s: &Tensor = if j == 0 { src } else { &done[self.out_conv_base + j - 1] };
                    apply_hop(s, *hop, &mut rest[0])?;
                }
                apply_hop(&convs[self.out_conv_base + l - 2], self.out_chain[l - 1], out)?;
            }
        }
        Ok(())
    }

    /// Materializes one worker's buffer set, pre-sized so the first run
    /// settles every capacity and later runs never allocate.
    pub fn make_buffers(&self) -> ExecBuffers {
        let values = self
            .buf_elems
            .iter()
            .map(|&(elems, dtype)| {
                let mut t = Tensor::empty_dtype(dtype);
                t.reserve_storage(elems);
                t
            })
            .collect();
        let convs = self
            .conv_shapes
            .iter()
            .map(|&(c, h, w, repr)| {
                let mut t = Tensor::empty_dtype(repr.dtype);
                t.reserve_storage(repr.layout.storage_len(c, h, w));
                t
            })
            .collect();
        ExecBuffers {
            values,
            convs,
            ws: Workspace::with_req(self.ws_req),
            wave_ws: Vec::new(),
            sampler: None,
        }
    }

    /// Runs a step's edge legalization chains (and the input node's
    /// intermediate hops) into the conversion buffers.
    fn run_conversions(
        &self,
        step: &Step,
        values: &[Tensor],
        convs: &mut [Tensor],
        input: &Tensor,
    ) -> Result<(), RuntimeError> {
        for pe in &step.preds {
            for (j, hop) in pe.chain.iter().enumerate() {
                let (done, rest) = convs.split_at_mut(pe.conv_base + j);
                let src: &Tensor =
                    if j == 0 { &values[pe.buf] } else { &done[pe.conv_base + j - 1] };
                apply_hop(src, *hop, &mut rest[0])?;
            }
        }
        if let StepOp::Input { chain, conv_base, .. } = &step.op {
            if chain.len() > 1 {
                for (j, hop) in chain[..chain.len() - 1].iter().enumerate() {
                    let (done, rest) = convs.split_at_mut(conv_base + j);
                    let src: &Tensor = if j == 0 { input } else { &done[conv_base + j - 1] };
                    apply_hop(src, *hop, &mut rest[0])?;
                }
            }
        }
        Ok(())
    }

    /// Computes one step into `out`, reading already-converted inputs.
    /// Conversion buffers must be current (see
    /// [`Schedule::run_conversions`]).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_into(
        &self,
        step: &Step,
        values: &[Tensor],
        convs: &[Tensor],
        input: &Tensor,
        intra_op: usize,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), RuntimeError> {
        // The common case — an empty chain — borrows the stored
        // activation; only real conversions read the staging buffers.
        let resolve = |pe: &PredEdge| -> &Tensor {
            match pe.chain.len() {
                0 => &values[pe.buf],
                l => &convs[pe.conv_base + l - 1],
            }
        };
        match &step.op {
            StepOp::Conv { prim, kernel, scenario } => {
                ws.reset();
                // The containment boundary of the tentpole: a panicking
                // kernel (real or injected at `kernel.dispatch`) unwinds
                // no further than its own step. The success path adds no
                // allocation — `catch_unwind` only costs on unwind, and
                // the disarmed failpoint is one atomic load — so the
                // zero-allocation steady state is untouched.
                let contained = catch_unwind(AssertUnwindSafe(|| -> Result<(), RuntimeError> {
                    if let Some(faults::Injected::Error(msg)) = faults::hit(faults::KERNEL_DISPATCH)
                    {
                        return Err(RuntimeError::KernelFailed {
                            node: step.name.clone(),
                            kernel: prim.descriptor().name.clone(),
                            message: msg,
                        });
                    }
                    prim.execute_into(
                        resolve(&step.preds[0]),
                        kernel,
                        scenario,
                        intra_op,
                        ws,
                        out,
                    )?;
                    Ok(())
                }));
                match contained {
                    Ok(r) => r?,
                    Err(p) => {
                        return Err(RuntimeError::KernelPanicked {
                            node: step.name.clone(),
                            kernel: prim.descriptor().name.clone(),
                            message: faults::panic_message(p),
                        })
                    }
                }
            }
            StepOp::Input { c, h, w, layout, chain, conv_base } => {
                if input.dims() != (*c, *h, *w) {
                    return Err(RuntimeError::BadInput(format!(
                        "expected {:?}, got {:?}",
                        (c, h, w),
                        input.dims()
                    )));
                }
                match chain.len() {
                    0 => {
                        if input.layout() == *layout {
                            out.assign_from(input);
                        } else {
                            // Defensive: plans always carry the chain,
                            // but a hand-built plan may not.
                            to_layout_into(input, *layout, out);
                        }
                    }
                    1 => apply_hop(input, chain[0], out)?,
                    l => apply_hop(&convs[conv_base + l - 2], chain[l - 1], out)?,
                }
            }
            StepOp::Op { kernel, spec, fc_weights } => {
                // Operands resolve straight out of the pooled slots (or
                // conversion staging) through a stack closure — no
                // per-call operand vector, so the zero-allocation
                // steady state holds for n-ary ops too.
                let get = |i: usize| resolve(&step.preds[i]);
                ws.reset();
                let contained = catch_unwind(AssertUnwindSafe(|| -> Result<(), RuntimeError> {
                    if let Some(faults::Injected::Error(msg)) = faults::hit(faults::KERNEL_DISPATCH)
                    {
                        return Err(RuntimeError::KernelFailed {
                            node: step.name.clone(),
                            kernel: kernel.descriptor().name.clone(),
                            message: msg,
                        });
                    }
                    let operands = OpInputs::Resolver(step.preds.len(), &get);
                    kernel.execute_into(
                        operands,
                        fc_weights.as_ref().map(|w| w.as_slice()),
                        spec,
                        ws,
                        out,
                    )?;
                    Ok(())
                }));
                match contained {
                    Ok(r) => r?,
                    Err(p) => {
                        return Err(RuntimeError::KernelPanicked {
                            node: step.name.clone(),
                            kernel: kernel.descriptor().name.clone(),
                            message: faults::panic_message(p),
                        })
                    }
                }
            }
        }
        Ok(())
    }

    /// Evaluates one step entirely: conversions, then computation into
    /// the step's pooled output buffer. `six` is the step's index in
    /// `self.steps` — the live profiler's reservoir slot.
    fn eval_into(
        &self,
        six: usize,
        step: &Step,
        bufs: &mut ExecBuffers,
        input: &Tensor,
        intra_op: usize,
    ) -> Result<(), RuntimeError> {
        self.run_conversions(step, &bufs.values, &mut bufs.convs, input)?;
        // Take the output buffer out of the pool so the remaining slots
        // can be borrowed immutably as inputs (liveness guarantees no
        // live predecessor shares this slot). `Tensor::empty` is free.
        let mut out = std::mem::replace(&mut bufs.values[step.out_buf], Tensor::empty());
        // The live-profiler gate: with no sampling engine in the process
        // this is a single relaxed atomic load; armed, the rate gate
        // decides whether this evaluation gets timestamped.
        let sampling = if sampler::active() {
            bufs.sampler.as_mut().and_then(SamplerState::begin)
        } else {
            None
        };
        let result = self.dispatch_into(
            step,
            &bufs.values,
            &bufs.convs,
            input,
            intra_op,
            &mut bufs.ws,
            &mut out,
        );
        if let Some(started) = sampling {
            // Only successful dispatches feed the observed-cost table.
            if result.is_ok() {
                if let Some(state) = bufs.sampler.as_mut() {
                    state.record(six, started);
                }
            }
        }
        bufs.values[step.out_buf] = out;
        result
    }

    /// Runs every step in topological order on the calling thread. The
    /// network output is left in `bufs.values[self.last_buf]`.
    fn execute_serial(
        &self,
        input: &Tensor,
        intra_op: usize,
        bufs: &mut ExecBuffers,
    ) -> Result<(), RuntimeError> {
        for (six, step) in self.steps.iter().enumerate() {
            self.eval_into(six, step, bufs, input, intra_op)?;
        }
        Ok(())
    }

    /// Walks the DAG level by level, running each level's independent
    /// nodes concurrently on up to `par.inter_op` scoped threads.
    fn execute_wavefront(
        &self,
        input: &Tensor,
        par: Parallelism,
        bufs: &mut ExecBuffers,
    ) -> Result<(), RuntimeError> {
        for level in &self.levels {
            if level.len() <= 1 || par.inter_op <= 1 {
                for &six in level {
                    self.eval_into(six, &self.steps[six], bufs, input, par.intra_op)?;
                }
                continue;
            }
            // Stage all conversions serially (they are cheap and write
            // per-step-distinct buffers), then take every output tensor
            // out of the pool and fan the level out. Level-granular
            // liveness guarantees no worker's output slot aliases any
            // buffer read concurrently.
            for &six in level {
                self.run_conversions(&self.steps[six], &bufs.values, &mut bufs.convs, input)?;
            }
            let mut outs: Vec<(usize, Tensor)> = level
                .iter()
                .map(|&six| {
                    let buf = self.steps[six].out_buf;
                    (six, std::mem::replace(&mut bufs.values[buf], Tensor::empty()))
                })
                .collect();
            let per = level.len().div_ceil(par.inter_op);
            let n_chunks = level.len().div_ceil(per);
            if bufs.wave_ws.len() < n_chunks {
                // Grown once to the fan-out width; each worker's arenas
                // then settle during its first level and are reused
                // across levels and runs.
                bufs.wave_ws.resize_with(n_chunks, Workspace::new);
            }
            let values = &bufs.values;
            let convs = &bufs.convs;
            let results: Vec<Result<(), RuntimeError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = outs
                    .chunks_mut(per)
                    .zip(bufs.wave_ws.iter_mut())
                    .map(|(chunk, ws)| {
                        scope.spawn(move || {
                            for (six, out) in chunk {
                                self.dispatch_into(
                                    &self.steps[*six],
                                    values,
                                    convs,
                                    input,
                                    par.intra_op,
                                    ws,
                                    out,
                                )?;
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // Kernel panics are already contained inside
                        // dispatch; this maps anything that still
                        // escapes a worker into a typed error instead
                        // of aborting the process.
                        h.join().unwrap_or_else(|p| {
                            Err(RuntimeError::Panicked {
                                context: "wavefront worker".to_owned(),
                                message: faults::panic_message(p),
                            })
                        })
                    })
                    .collect()
            });
            // Commit every buffer back before surfacing errors so the
            // pool stays intact.
            for (six, out) in outs {
                bufs.values[self.steps[six].out_buf] = out;
            }
            for result in results {
                result?;
            }
        }
        Ok(())
    }
}

/// Executes an [`ExecutionPlan`] on real tensors — the runtime counterpart
/// of the paper's generated code (§5.2), grown into a parallel batched
/// engine with allocation-free steady-state serving (see
/// [`Executor::run_into`] and [`Executor::run_batch`]).
pub struct Executor<'a> {
    graph: &'a DnnGraph,
    plan: &'a ExecutionPlan,
    registry: &'a Registry,
    weights: &'a Weights,
    /// Memoized compiled schedule: every execution mode shares one
    /// compilation per executor. (The schedule is owned — it holds shared
    /// handles to primitives and kernels, not borrows of the executor.)
    schedule: OnceLock<Schedule>,
    /// Recycled per-worker buffer sets: activation slots, conversion
    /// staging and primitive workspaces. Checked out per run, returned
    /// afterwards — the steady-state serving loop allocates nothing.
    buffers: Mutex<Vec<ExecBuffers>>,
}

impl<'a> Executor<'a> {
    /// Binds a plan to its graph, registry and weights.
    pub fn new(
        graph: &'a DnnGraph,
        plan: &'a ExecutionPlan,
        registry: &'a Registry,
        weights: &'a Weights,
    ) -> Executor<'a> {
        Executor {
            graph,
            plan,
            registry,
            weights,
            schedule: OnceLock::new(),
            buffers: Mutex::new(Vec::with_capacity(BUFFER_POOL_CAP)),
        }
    }

    /// The compiled schedule, built on first use. Compilation errors
    /// (unknown primitive, missing weights, malformed graph) are not
    /// cached — they surface on every call.
    fn schedule(&self) -> Result<&Schedule, RuntimeError> {
        if let Some(s) = self.schedule.get() {
            return Ok(s);
        }
        let compiled = Schedule::compile(self.graph, self.plan, self.registry, self.weights)?;
        Ok(self.schedule.get_or_init(|| compiled))
    }

    /// Locks the recycled-buffer pool, recovering from poison: a panic
    /// while the pool was locked discards the recycled sets (they
    /// rebuild from the schedule on demand) and clears the poison latch,
    /// so one bad request can never wedge the executor forever — the old
    /// `.expect("buffer pool poisoned")` latch turned a single
    /// mid-flight panic into a permanently dead engine.
    fn pool(&self) -> MutexGuard<'_, Vec<ExecBuffers>> {
        match self.buffers.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.buffers.clear_poison();
                let mut g = poisoned.into_inner();
                g.clear();
                g
            }
        }
    }

    /// Checks a buffer set out of the pool (building one on first use),
    /// runs `f`, and returns the set for the next run — unless the run
    /// contained a panic, in which case the set is discarded (a
    /// panicking kernel may have left buffers mid-mutation) and the next
    /// run rebuilds a fresh one from the schedule.
    fn with_buffers<R>(
        &self,
        schedule: &Schedule,
        f: impl FnOnce(&mut ExecBuffers) -> Result<R, RuntimeError>,
    ) -> Result<R, RuntimeError> {
        // The checkout failpoint is evaluated *while the pool lock is
        // held*: an injected panic here genuinely poisons the mutex,
        // which is exactly the failure `pool()` must recover from.
        let recycled = match catch_unwind(AssertUnwindSafe(|| {
            let mut pool = self.pool();
            match faults::hit(faults::BUFFER_CHECKOUT) {
                Some(faults::Injected::Error(msg)) => {
                    Err(RuntimeError::Injected { site: faults::BUFFER_CHECKOUT, message: msg })
                }
                _ => Ok(pool.pop()),
            }
        })) {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => return Err(e),
            Err(p) => {
                return Err(RuntimeError::Panicked {
                    context: "buffer checkout".to_owned(),
                    message: faults::panic_message(p),
                })
            }
        };
        let mut bufs = recycled.unwrap_or_else(|| schedule.make_buffers());
        let result = match catch_unwind(AssertUnwindSafe(|| f(&mut bufs))) {
            Ok(r) => r,
            Err(p) => {
                drop(bufs);
                return Err(RuntimeError::Panicked {
                    context: "forward pass".to_owned(),
                    message: faults::panic_message(p),
                });
            }
        };
        let discard = matches!(
            result,
            Err(RuntimeError::KernelPanicked { .. }) | Err(RuntimeError::Panicked { .. })
        );
        if !discard {
            let mut pool = self.pool();
            if pool.len() < BUFFER_POOL_CAP {
                pool.push(bufs);
            }
        }
        result
    }

    /// Runs one forward pass. `input` must be the canonical-CHW network
    /// input; the plan's input-conversion chain is applied automatically.
    /// Returns the output of the last layer in topological order.
    ///
    /// `threads` is the intra-op worker count handed to each primitive;
    /// the graph itself is walked serially. Use [`Executor::run_with`]
    /// for inter-op (wavefront) parallelism, [`Executor::run_batch`] for
    /// whole-batch amortization, and [`Executor::run_into`] for the
    /// allocation-free serving loop.
    ///
    /// # Errors
    ///
    /// Propagates graph, primitive, transformation and weight errors.
    pub fn run(&self, input: &Tensor, threads: usize) -> Result<Tensor, RuntimeError> {
        self.run_with(input, Parallelism::serial().with_intra_op(threads))
    }

    /// [`Executor::run`] writing into a caller-recycled output tensor —
    /// the steady-state serving API. After one warmup run (which settles
    /// pooled buffer and workspace capacities), serial calls perform
    /// **zero heap allocations**: activations live in liveness-pooled
    /// slots, primitive scratch in bump arenas, and the output lands in
    /// `out`'s existing storage.
    ///
    /// # Errors
    ///
    /// Propagates graph, primitive, transformation and weight errors.
    pub fn run_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        threads: usize,
    ) -> Result<(), RuntimeError> {
        self.run_with_into(input, out, Parallelism::serial().with_intra_op(threads))
    }

    /// Runs one forward pass under an explicit [`Parallelism`] mapping.
    ///
    /// With `inter_op > 1` the executor walks the plan's DAG in wavefront
    /// levels and runs independent nodes (e.g. the branches of an
    /// inception module) concurrently on scoped threads. Outputs are
    /// bit-identical to [`Parallelism::serial`]: scheduling never changes
    /// any kernel's per-element accumulation order.
    ///
    /// # Errors
    ///
    /// Propagates graph, primitive, transformation and weight errors.
    pub fn run_with(&self, input: &Tensor, par: Parallelism) -> Result<Tensor, RuntimeError> {
        let mut out = Tensor::empty();
        self.run_with_into(input, &mut out, par)?;
        Ok(out)
    }

    /// [`Executor::run_with`] writing into a caller-recycled output
    /// tensor (see [`Executor::run_into`] for the zero-allocation
    /// contract of the serial configuration).
    ///
    /// # Errors
    ///
    /// Propagates graph, primitive, transformation and weight errors.
    pub fn run_with_into(
        &self,
        input: &Tensor,
        out: &mut Tensor,
        par: Parallelism,
    ) -> Result<(), RuntimeError> {
        let schedule = self.schedule()?;
        self.with_buffers(schedule, |bufs| schedule.run_into(input, bufs, out, par))
    }

    /// Runs one plan over a whole batch of inputs, amortizing schedule
    /// compilation across all of them and partitioning items over
    /// `par.inter_op` worker threads (each item itself executes with
    /// `par.intra_op` primitive threads).
    ///
    /// Outputs are returned in input order and are bit-identical to
    /// calling [`Executor::run`] per item: batch items never share
    /// accumulators, so the partitioning cannot change any result.
    ///
    /// # Errors
    ///
    /// Returns the first (in input order) item's error, if any.
    pub fn run_batch(
        &self,
        inputs: &[Tensor],
        par: Parallelism,
    ) -> Result<Vec<Tensor>, RuntimeError> {
        let mut outs = Vec::new();
        self.run_batch_into(inputs, &mut outs, par)?;
        Ok(outs)
    }

    /// [`Executor::run_batch`] writing into caller-recycled output
    /// tensors: `outs` is resized to `inputs.len()` and each slot's
    /// storage is reused. With serial [`Parallelism`] a warmed engine
    /// serves the whole batch without heap allocations.
    ///
    /// # Errors
    ///
    /// Returns the first (in input order) item's error, if any.
    pub fn run_batch_into(
        &self,
        inputs: &[Tensor],
        outs: &mut Vec<Tensor>,
        par: Parallelism,
    ) -> Result<(), RuntimeError> {
        let schedule = self.schedule()?;
        // Validate the whole batch up front: one shape-mismatched
        // member is a typed error before any item executes.
        for input in inputs {
            schedule.check_input(input)?;
        }
        if outs.len() != inputs.len() {
            outs.resize_with(inputs.len(), Tensor::empty);
        }
        if inputs.is_empty() {
            return Ok(());
        }
        let workers = par.inter_op.min(inputs.len());
        if workers <= 1 {
            return self.with_buffers(schedule, |bufs| {
                for (input, out) in inputs.iter().zip(outs.iter_mut()) {
                    schedule.execute_serial(input, par.intra_op, bufs)?;
                    schedule.finish_output(bufs, out)?;
                }
                Ok(())
            });
        }
        let per = inputs.len().div_ceil(workers);
        let results: Vec<Result<(), RuntimeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = inputs
                .chunks(per)
                .zip(outs.chunks_mut(per))
                .map(|(in_chunk, out_chunk)| {
                    scope.spawn(move || {
                        self.with_buffers(schedule, |bufs| {
                            for (input, out) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                                schedule.execute_serial(input, par.intra_op, bufs)?;
                                schedule.finish_output(bufs, out)?;
                            }
                            Ok(())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        Err(RuntimeError::Panicked {
                            context: "batch worker".to_owned(),
                            message: faults::panic_message(p),
                        })
                    })
                })
                .collect()
        });
        results.into_iter().collect()
    }
}

impl fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor").field("nodes", &self.graph.len()).finish()
    }
}

/// Applies one representation-transformation hop under the containment
/// contract: quantize/dequantize hops evaluate the `edge.quant`
/// failpoint, and a panicking conversion is contained into a typed
/// error instead of unwinding through the executor. The success path is
/// one disarmed-failpoint atomic load plus the conversion itself — no
/// allocation.
fn apply_hop(src: &Tensor, hop: ReprTransform, dst: &mut Tensor) -> Result<(), RuntimeError> {
    match catch_unwind(AssertUnwindSafe(|| -> Result<(), RuntimeError> {
        if matches!(hop, ReprTransform::Quantize(_) | ReprTransform::Dequantize(_)) {
            if let Some(faults::Injected::Error(msg)) = faults::hit(faults::QUANT_EDGE) {
                return Err(RuntimeError::Injected { site: faults::QUANT_EDGE, message: msg });
            }
        }
        apply_repr_into(src, hop, dst)?;
        Ok(())
    })) {
        Ok(r) => r,
        Err(p) => Err(RuntimeError::Panicked {
            context: "edge conversion".to_owned(),
            message: faults::panic_message(p),
        }),
    }
}

/// Independent oracle: executes the network with the textbook reference
/// convolution and the textbook operator loops of
/// [`pbqp_dnn_primitives::reference`], canonical CHW layout throughout —
/// no code shared with the kernels a plan selects. Any plan's output must
/// match this within floating-point tolerance.
pub fn reference_forward(graph: &DnnGraph, weights: &Weights, input: &Tensor) -> Tensor {
    let order = graph.topo_order().expect("valid graph");
    let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
    let mut last = None;
    for node in order {
        // Borrow predecessor activations in place — cloning whole
        // tensors per node made the oracle quadratic in activation bytes.
        let inputs: Vec<&Tensor> = graph
            .predecessors(node)
            .iter()
            .map(|p| values[p.index()].as_ref().expect("topo order"))
            .collect();
        let out = match &graph.layer(node).kind {
            LayerKind::Input { .. } => input.clone(),
            LayerKind::Conv(s) => {
                let k = weights.conv_kernel(node).expect("weights cover conv layers");
                sum2d_reference(inputs[0], k, s)
            }
            LayerKind::Relu => relu_reference(inputs[0]),
            LayerKind::Pool { kind, k, stride, pad } => {
                pool_reference(inputs[0], *kind, *k, *stride, *pad)
            }
            LayerKind::Lrn => lrn_reference(inputs[0]),
            LayerKind::Dropout => inputs[0].clone(),
            LayerKind::FullyConnected { out } => {
                let w = weights.fc_matrix(node).expect("weights cover fc layers");
                fully_connected_reference(inputs[0], w, *out, Layout::Chw)
            }
            LayerKind::Concat => concat_reference(&inputs, Layout::Chw),
            LayerKind::Add => add_reference(&inputs),
            LayerKind::Softmax => softmax_reference(inputs[0]),
        };
        drop(inputs);
        values[node.index()] = Some(out);
        last = Some(node);
    }
    values[last.expect("non-empty").index()].take().expect("ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbqp_dnn_cost::{AnalyticCost, MachineModel};
    use pbqp_dnn_graph::{ConvScenario, Layer};
    use pbqp_dnn_primitives::registry::full_library;
    use pbqp_dnn_select::{Optimizer, Strategy};

    /// A miniature inception-style network exercising fan-out, concat,
    /// pooling and two conv sizes.
    fn mini_inception() -> DnnGraph {
        let mut g = DnnGraph::new();
        let data = g.add(Layer::new("data", LayerKind::Input { c: 4, h: 12, w: 12 }));
        let c1 = g.add(Layer::new(
            "b1",
            LayerKind::Conv(ConvScenario::new(4, 12, 12, 1, 1, 6).with_pad(0)),
        ));
        let c3 = g.add(Layer::new("b3", LayerKind::Conv(ConvScenario::new(4, 12, 12, 1, 3, 6))));
        let cat = g.add(Layer::new("cat", LayerKind::Concat));
        let relu = g.add(Layer::new("relu", LayerKind::Relu));
        let c_out =
            g.add(Layer::new("out", LayerKind::Conv(ConvScenario::new(12, 12, 12, 1, 3, 5))));
        g.connect(data, c1).unwrap();
        g.connect(data, c3).unwrap();
        g.connect(c1, cat).unwrap();
        g.connect(c3, cat).unwrap();
        g.connect(cat, relu).unwrap();
        g.connect(relu, c_out).unwrap();
        g
    }

    #[test]
    fn every_strategy_computes_the_same_function() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let weights = Weights::random(&net, 11);
        let input = Tensor::random(4, 12, 12, Layout::Chw, 12);
        let oracle = reference_forward(&net, &weights, &input);
        let mut strategies = vec![
            Strategy::Pbqp,
            Strategy::PbqpHeuristic,
            Strategy::Sum2d,
            Strategy::LocalOptimalChw,
            Strategy::CaffeLike,
            Strategy::VendorLike { vector_width: 8 },
            Strategy::VendorLike { vector_width: 4 },
        ];
        strategies.extend(Strategy::family_bars());
        for strategy in strategies {
            let plan = opt.plan(&net, strategy).unwrap();
            let out = Executor::new(&net, &plan, &reg, &weights).run(&input, 1).unwrap();
            let diff = out.max_abs_diff(&oracle).unwrap();
            assert!(diff < 1e-2, "{}: diff {diff}", strategy.label());
        }
    }

    #[test]
    fn multithreaded_execution_matches_single_threaded() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 4);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
        let weights = Weights::random(&net, 21);
        let input = Tensor::random(4, 12, 12, Layout::Chw, 22);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let one = exec.run(&input, 1).unwrap();
        let four = exec.run(&input, 4).unwrap();
        assert!(one.allclose(&four, 1e-4).unwrap());
    }

    #[test]
    fn wavefront_execution_is_bit_identical_to_serial() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let weights = Weights::random(&net, 31);
        let input = Tensor::random(4, 12, 12, Layout::Chw, 32);
        for strategy in [Strategy::Pbqp, Strategy::VendorLike { vector_width: 8 }] {
            let plan = opt.plan(&net, strategy).unwrap();
            let exec = Executor::new(&net, &plan, &reg, &weights);
            let serial = exec.run_with(&input, Parallelism::serial()).unwrap();
            let wave = exec.run_with(&input, Parallelism::serial().with_inter_op(4)).unwrap();
            assert_eq!(serial.data(), wave.data(), "{}", strategy.label());
            assert_eq!(serial.layout(), wave.layout());
        }
    }

    #[test]
    fn run_batch_is_bit_identical_to_serial_runs_in_input_order() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
        let weights = Weights::random(&net, 41);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let inputs: Vec<Tensor> =
            (0..9).map(|i| Tensor::random(4, 12, 12, Layout::Chw, 100 + i)).collect();
        for par in [
            Parallelism::serial(),
            Parallelism::serial().with_inter_op(3),
            Parallelism::serial().with_inter_op(16),
        ] {
            let batch = exec.run_batch(&inputs, par).unwrap();
            assert_eq!(batch.len(), inputs.len());
            for (input, out) in inputs.iter().zip(&batch) {
                let one = exec.run(input, 1).unwrap();
                assert_eq!(one.data(), out.data(), "{par}");
            }
        }
    }

    #[test]
    fn fused_batch_run_is_bit_identical_to_serial_across_models() {
        use pbqp_dnn_graph::models;
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        for (net, seed) in [
            (mini_inception(), 71),
            (models::micro_mixed(), 72),
            (models::micro_alexnet(), 73),
            (models::micro_resnet(), 74),
        ] {
            let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
            let weights = Weights::random(&net, seed);
            let schedule = Schedule::compile(&net, &plan, &reg, &weights).unwrap();
            let (c, h, w) = net.infer_shapes().unwrap()[0];
            let mut bufs = BatchBuffers::new();
            // Varying batch sizes across rounds: the buffer sets and the
            // fused workspace grow to the watermark and recycle.
            for (round, batch) in [4usize, 1, 7, 3].into_iter().enumerate() {
                let inputs: Vec<Tensor> = (0..batch)
                    .map(|i| {
                        Tensor::random(c, h, w, Layout::Chw, seed * 100 + (round * 10 + i) as u64)
                    })
                    .collect();
                let mut outs = vec![Tensor::empty(); batch];
                schedule.run_batch_fused_into(&inputs, &mut bufs, &mut outs, 1).unwrap();
                let mut solo_bufs = schedule.make_buffers();
                let mut solo = Tensor::empty();
                for (input, out) in inputs.iter().zip(&outs) {
                    schedule
                        .run_into(input, &mut solo_bufs, &mut solo, Parallelism::serial())
                        .unwrap();
                    assert_eq!(
                        solo.data(),
                        out.data(),
                        "fused batch diverged from serial (round {round}, batch {batch})"
                    );
                    assert_eq!(solo.layout(), out.layout());
                }
            }
        }
    }

    #[test]
    fn fused_batch_run_rejects_mismatched_outs_and_bad_members() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
        let weights = Weights::random(&net, 81);
        let schedule = Schedule::compile(&net, &plan, &reg, &weights).unwrap();
        let mut bufs = BatchBuffers::new();
        let good = Tensor::random(4, 12, 12, Layout::Chw, 1);
        let bad = Tensor::random(4, 9, 9, Layout::Chw, 2);
        let mut outs = vec![Tensor::empty(); 2];
        let err = schedule
            .run_batch_fused_into(&[good.clone(), bad], &mut bufs, &mut outs, 1)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadInput(_)), "{err}");
        let err = schedule.run_batch_fused_into(&[good], &mut bufs, &mut outs, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::BadInput(_)), "{err}");
    }

    #[test]
    fn run_into_matches_run_across_repeated_recycled_calls() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let weights = Weights::random(&net, 51);
        let exec_strategies = [Strategy::Pbqp, Strategy::CaffeLike];
        for strategy in exec_strategies {
            let plan = opt.plan(&net, strategy).unwrap();
            let exec = Executor::new(&net, &plan, &reg, &weights);
            let mut out = Tensor::empty();
            for seed in 0..4 {
                let input = Tensor::random(4, 12, 12, Layout::Chw, 200 + seed);
                let fresh = exec.run(&input, 1).unwrap();
                exec.run_into(&input, &mut out, 1).unwrap();
                assert_eq!(out.data(), fresh.data(), "{} seed {seed}", strategy.label());
                assert_eq!(out.layout(), fresh.layout());
            }
        }
    }

    #[test]
    fn run_batch_into_recycles_outputs() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
        let weights = Weights::random(&net, 61);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let mut outs = Vec::new();
        for round in 0..3 {
            let inputs: Vec<Tensor> =
                (0..5).map(|i| Tensor::random(4, 12, 12, Layout::Chw, round * 10 + i)).collect();
            exec.run_batch_into(&inputs, &mut outs, Parallelism::serial()).unwrap();
            assert_eq!(outs.len(), inputs.len());
            for (input, out) in inputs.iter().zip(&outs) {
                let one = exec.run(input, 1).unwrap();
                assert_eq!(one.data(), out.data(), "round {round}");
            }
        }
    }

    #[test]
    fn mixed_precision_plan_executes_end_to_end() {
        use pbqp_dnn_primitives::registry::mixed_precision_library;
        // The big strided conv tips to int8 under the mixed-precision
        // registry while the pointwise tail stays f32.
        let net = pbqp_dnn_graph::models::micro_mixed();
        let reg = Registry::new(mixed_precision_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, pbqp_dnn_select::Strategy::Pbqp).unwrap();
        assert!(plan.is_mixed_precision(), "expected a mixed plan:\n{plan}");
        assert!(plan.quant_edge_count() >= 2, "expected quant/dequant edges:\n{plan}");

        let weights = Weights::random(&net, 81);
        let input = Tensor::random(16, 20, 20, Layout::Chw, 82);
        let oracle = reference_forward(&net, &weights, &input);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let out = exec.run(&input, 1).unwrap();
        // Int8 error budget: per-tap half-steps across the 16·5·5 = 400
        // taps of the quantized layer, diluted through the f32 tail.
        let maxabs = oracle.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let diff = out.max_abs_diff(&oracle).unwrap();
        assert!(diff < 0.05 * maxabs + 0.05, "diff {diff} vs maxabs {maxabs}");

        // Recycled serving and wavefront modes are bit-identical to the
        // plain run on the same plan.
        let mut recycled = Tensor::empty();
        exec.run_into(&input, &mut recycled, 1).unwrap();
        assert_eq!(recycled.data(), out.data());
        let wave = exec.run_with(&input, Parallelism::serial().with_inter_op(4)).unwrap();
        assert_eq!(wave.data(), out.data());
        let four = exec.run(&input, 4).unwrap();
        assert_eq!(four.data(), out.data(), "int8 GEMM threading must stay bit-exact");
    }

    #[test]
    fn int8_terminal_layer_still_delivers_f32_output() {
        use pbqp_dnn_primitives::registry::mixed_precision_library;
        // A network ending in the int8-friendly conv: the executor must
        // apply the plan's output dequantization so callers always get
        // f32, exactly as before mixed precision existed.
        let mut g = DnnGraph::new();
        let data = g.add(Layer::new("data", LayerKind::Input { c: 16, h: 20, w: 20 }));
        let conv = g.add(Layer::new(
            "conv",
            LayerKind::Conv(ConvScenario::new(16, 20, 20, 2, 5, 32).with_pad(0)),
        ));
        g.connect(data, conv).unwrap();
        let reg = Registry::new(mixed_precision_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let plan = Optimizer::new(&reg, &cost).plan(&g, pbqp_dnn_select::Strategy::Pbqp).unwrap();
        assert!(!plan.output_conversion.is_empty(), "precondition: int8 sink\n{plan}");
        let weights = Weights::random(&g, 91);
        let input = Tensor::random(16, 20, 20, Layout::Chw, 92);
        let exec = Executor::new(&g, &plan, &reg, &weights);
        let out = exec.run(&input, 1).unwrap();
        assert_eq!(out.dtype(), pbqp_dnn_tensor::DType::F32);
        let oracle = reference_forward(&g, &weights, &input);
        let maxabs = oracle.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let diff = out.max_abs_diff(&oracle).unwrap();
        assert!(diff < 0.05 * maxabs + 0.05, "diff {diff} vs maxabs {maxabs}");
        // Recycled serving path agrees bit-for-bit.
        let mut recycled = Tensor::empty();
        exec.run_into(&input, &mut recycled, 1).unwrap();
        assert_eq!(recycled.data(), out.data());
        // Batch path too.
        let batch = exec.run_batch(std::slice::from_ref(&input), Parallelism::serial()).unwrap();
        assert_eq!(batch[0].data(), out.data());
    }

    #[test]
    fn activation_slots_are_fewer_than_nodes() {
        // Liveness must let the linear micro-AlexNet chain reuse output
        // slots instead of holding one live buffer per node.
        let net = pbqp_dnn_graph::models::micro_alexnet();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
        let weights = Weights::random(&net, 71);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let schedule = exec.schedule().unwrap();
        assert!(
            schedule.buf_elems.len() < net.len(),
            "{} slots for {} nodes",
            schedule.buf_elems.len(),
            net.len()
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let opt = Optimizer::new(&reg, &cost);
        let plan = opt.plan(&net, Strategy::Sum2d).unwrap();
        let weights = Weights::random(&net, 1);
        let exec = Executor::new(&net, &plan, &reg, &weights);
        assert!(exec.run_batch(&[], Parallelism::available()).unwrap().is_empty());
    }

    #[test]
    fn wrong_input_layout_is_rejected() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Sum2d).unwrap();
        let weights = Weights::random(&net, 1);
        let bad = Tensor::random(4, 12, 12, Layout::Hwc, 2);
        let err = Executor::new(&net, &plan, &reg, &weights).run(&bad, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::BadInput(_)));
        let err = Executor::new(&net, &plan, &reg, &weights)
            .run_batch(&[bad], Parallelism::serial())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BadInput(_)));
    }

    #[test]
    fn short_fc_weight_matrix_is_rejected_at_compile() {
        // Same node ids, but `small`'s fc sees 4x5x5 where `net`'s sees
        // 4x6x6: its matrix is 44 rows' worth short for `net`.
        let fc_net = |h: usize| {
            let mut g = DnnGraph::new();
            let data = g.add(Layer::new("data", LayerKind::Input { c: 4, h, w: h }));
            let fc = g.add(Layer::new("fc", LayerKind::FullyConnected { out: 5 }));
            g.connect(data, fc).unwrap();
            g
        };
        let (net, small) = (fc_net(6), fc_net(5));
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
        assert!(Schedule::compile(&net, &plan, &reg, &Weights::random(&net, 1)).is_ok());
        let err = Schedule::compile(&net, &plan, &reg, &Weights::random(&small, 1))
            .err()
            .expect("a short matrix must not compile");
        match err {
            RuntimeError::WeightShape { layer, expected, found } => {
                assert_eq!((layer.as_str(), expected, found), ("fc", 5 * 144, 5 * 100));
            }
            other => panic!("expected WeightShape, got {other}"),
        }
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let net = mini_inception();
        let reg = Registry::new(full_library());
        let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
        let plan = Optimizer::new(&reg, &cost).plan(&net, Strategy::Sum2d).unwrap();
        let weights = Weights::random(&net, 1);
        let bad = Tensor::random(4, 10, 12, Layout::Chw, 2);
        let err = Executor::new(&net, &plan, &reg, &weights).run(&bad, 1).unwrap_err();
        assert!(matches!(err, RuntimeError::BadInput(_)));
    }
}
