//! Proof of the zero-allocation steady state: after one warmup run, the
//! serving APIs (`run_into` / `run_batch_into` with serial parallelism)
//! perform **zero** heap allocations per forward pass on micro-AlexNet —
//! activations come from liveness-pooled slots, primitive scratch from
//! bump arenas, and outputs land in caller-recycled tensors.
//!
//! The counter is a `#[global_allocator]` wrapper over the system
//! allocator (no external deps). Counting is **scoped to the test
//! thread**: libtest's harness main thread waits on an mpmc channel
//! while the test runs, and its parking path lazily allocates (waker
//! registration, thread-local context) at nondeterministic times — those
//! harness allocations are not the serving loop's and must not fail the
//! proof. Everything runs inside a single `#[test]` so no concurrent
//! test thread measures.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use pbqp_dnn::cost::{AnalyticCost, CostSource, MachineModel};
use pbqp_dnn::graph::models::{micro_alexnet, micro_mixed, micro_resnet};
use pbqp_dnn::graph::{ConvScenario, DnnGraph, Layer, LayerKind, OpClass};
use pbqp_dnn::primitives::registry::{full_library, mixed_precision_library, Registry};
use pbqp_dnn::primitives::{ConvAlgorithm, OpKernel, OpSpec};
use pbqp_dnn::runtime::{Executor, Parallelism, Weights};
use pbqp_dnn::select::{AssignmentKind, Optimizer, Strategy};
use pbqp_dnn::tensor::transform::ReprTransform;
use pbqp_dnn::tensor::{Layout, Tensor};

/// Counts every allocation and reallocation performed by threads that
/// opted in via [`COUNTING`] (the test thread; serving is serial, so it
/// is the only thread whose allocations belong to the proof).
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether allocations on this thread count. Const-initialized so
    /// reading it inside the allocator never itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_serving_performs_zero_heap_allocations() {
    COUNTING.with(|c| c.set(true));
    let net = micro_alexnet();
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let opt = Optimizer::new(&reg, &cost);
    let weights = Weights::random(&net, 0x5EED);
    let (c, h, w) = net.infer_shapes().expect("valid model")[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 7);
    let inputs: Vec<Tensor> =
        (0..3).map(|i| Tensor::random(c, h, w, Layout::Chw, 20 + i)).collect();

    // The paper's full PBQP selection plus the vendor/Caffe baselines —
    // zero-alloc steady state must hold whatever primitives get picked.
    for strategy in [Strategy::Pbqp, Strategy::CaffeLike, Strategy::VendorLike { vector_width: 8 }]
    {
        let plan = opt.plan(&net, strategy).expect("plans");

        // Warmup: compiles the schedule, builds the pooled buffers and
        // settles every arena watermark and output capacity. That cold
        // run must register on the counter, or the zeros below prove
        // nothing.
        let before = allocs();
        let exec = Executor::new(&net, &plan, &reg, &weights);
        let expected = exec.run(&input, 1).expect("warmup run");
        let cold_allocs = allocs() - before;
        assert!(
            cold_allocs > 10,
            "{}: cold run made only {cold_allocs} allocations",
            strategy.label()
        );
        let mut out = Tensor::empty();
        let mut outs = Vec::new();
        exec.run_into(&input, &mut out, 1).expect("warmup run_into");
        exec.run_batch_into(&inputs, &mut outs, Parallelism::serial()).expect("warmup batch");

        // Steady state: repeated single-input serving.
        let before = allocs();
        for _ in 0..5 {
            exec.run_into(&input, &mut out, 1).expect("steady run_into");
        }
        let run_allocs = allocs() - before;
        assert_eq!(
            run_allocs,
            0,
            "{}: {run_allocs} allocations across 5 steady-state run_into calls",
            strategy.label()
        );

        // Steady state: repeated batch serving (serial mode — thread
        // fan-out necessarily allocates stacks, so it is exercised by the
        // equivalence suite instead).
        let before = allocs();
        for _ in 0..3 {
            exec.run_batch_into(&inputs, &mut outs, Parallelism::serial())
                .expect("steady run_batch_into");
        }
        let batch_allocs = allocs() - before;
        assert_eq!(
            batch_allocs,
            0,
            "{}: {batch_allocs} allocations across 3 steady-state run_batch_into calls",
            strategy.label()
        );

        // The allocation-free path must still compute the right answer.
        assert_eq!(out.data(), expected.data(), "{}", strategy.label());
        assert_eq!(out.dims(), expected.dims());

        // The allocating convenience wrapper stays cheap: its only
        // steady-state heap traffic is the returned output tensor.
        let before = allocs();
        let fresh = exec.run(&input, 1).expect("steady run");
        let wrapper_allocs = allocs() - before;
        assert!(
            wrapper_allocs <= 2,
            "{}: plain run should only allocate its output, saw {wrapper_allocs}",
            strategy.label()
        );
        assert_eq!(fresh.data(), expected.data());
    }

    // Op-kernel scratch: an FC whose operand arrives in HWC gathers it
    // into logical order, and LRN stages its squares — both carved from
    // the schedule's workspace, never the heap. The cost source steers
    // the (free-to-choose) FC and LRN nodes onto those layouts, and the
    // stride-1 convs of `winograd_chain` below onto one Winograd variant
    // of each kind, told apart by their input channels.
    const WINOGRAD_KINDS: [(usize, usize, &str); 4] = [
        (8, 3, "wino2d_f43_c8"),
        (12, 3, "wino2d_f43_hwc"),
        (10, 5, "wino2d_f25_vf8"),
        (6, 3, "wino1d_f23_vf4"),
    ];
    struct Steered(AnalyticCost);
    impl CostSource for Steered {
        fn layer_cost(&self, prim: &dyn ConvAlgorithm, s: &ConvScenario) -> f64 {
            let wanted = WINOGRAD_KINDS
                .iter()
                .find(|&&(c, k, _)| (s.c, s.k, s.stride) == (c, k, 1))
                .is_none_or(|&(_, _, name)| prim.descriptor().name == name);
            self.0.layer_cost(prim, s) + if wanted { 0.0 } else { 1e9 }
        }
        fn op_cost(&self, kernel: &dyn OpKernel, spec: &OpSpec) -> f64 {
            let d = kernel.descriptor();
            let wanted = match d.class {
                OpClass::FullyConnected => d.input_layout == Layout::Hwc,
                OpClass::Lrn => d.input_layout == Layout::Chw8,
                _ => true,
            };
            self.0.op_cost(kernel, spec) + if wanted { 0.0 } else { 1e9 }
        }
        fn transform_cost(&self, t: ReprTransform, dims: (usize, usize, usize)) -> f64 {
            self.0.transform_cost(t, dims)
        }
    }
    let steered = Steered(AnalyticCost::new(MachineModel::intel_haswell_like(), 1));
    let plan = Optimizer::new(&reg, &steered).plan(&net, Strategy::Pbqp).expect("plans");
    let kernel_of = |name: &str| match &plan.assignment(net.find(name).unwrap()) {
        AssignmentKind::Op { kernel, .. } => kernel.clone(),
        other => panic!("{name}: {other:?}"),
    };
    assert_eq!((kernel_of("fc").as_str(), kernel_of("norm1").as_str()), ("fc_hwc", "lrn_chwc8"));
    let fc = reg.op_by_name("fc_hwc").unwrap();
    let fc_spec =
        OpSpec::for_layer(&LayerKind::FullyConnected { out: 10 }, vec![(16, 6, 6)], (10, 1, 1))
            .unwrap();
    assert_eq!(
        fc.workspace_req(&fc_spec).f32_elems,
        16 * 6 * 6,
        "precondition: the HWC operand is gathered through workspace scratch"
    );
    let exec = Executor::new(&net, &plan, &reg, &weights);
    let mut out = Tensor::empty();
    let expected = exec.run(&input, 1).expect("warmup run");
    exec.run_into(&input, &mut out, 1).expect("warmup run_into");
    let before = allocs();
    for _ in 0..5 {
        exec.run_into(&input, &mut out, 1).expect("steady run_into");
    }
    let run_allocs = allocs() - before;
    assert_eq!(
        run_allocs, 0,
        "HWC fc / CHWc8 lrn plan: {run_allocs} allocations across 5 steady-state run_into calls"
    );
    assert_eq!(out.data(), expected.data());

    // Winograd: kernel transform, tile blocks and GEMM panels all come
    // from the workspace, for every variant kind (blocked input, HWC,
    // 5×5, 1-D).
    let winograd_chain = {
        let mut g = DnnGraph::new();
        let mut prev = g.add(Layer::new("data", LayerKind::Input { c: 8, h: 14, w: 14 }));
        for (i, (&(c, k, _), m)) in WINOGRAD_KINDS.iter().zip([12, 10, 6, 4]).enumerate() {
            let scenario = ConvScenario::new(c, 14, 14, 1, k, m);
            let conv = g.add(Layer::new(format!("conv{i}"), LayerKind::Conv(scenario)));
            g.connect(prev, conv).expect("chain");
            prev = conv;
        }
        g
    };
    let plan = Optimizer::new(&reg, &steered).plan(&winograd_chain, Strategy::Pbqp).expect("plans");
    for (i, &(_, _, name)) in WINOGRAD_KINDS.iter().enumerate() {
        match &plan.assignment(winograd_chain.find(&format!("conv{i}")).unwrap()) {
            AssignmentKind::Conv { primitive, .. } => assert_eq!(primitive, name, "conv{i}"),
            other => panic!("conv{i}: {other:?}"),
        }
    }
    let weights = Weights::random(&winograd_chain, 0x3A7);
    let exec = Executor::new(&winograd_chain, &plan, &reg, &weights);
    let input = Tensor::random(8, 14, 14, Layout::Chw, 0x3A8);
    let mut out = Tensor::empty();
    let expected = exec.run(&input, 1).expect("warmup run");
    exec.run_into(&input, &mut out, 1).expect("warmup run_into");
    let before = allocs();
    for _ in 0..5 {
        exec.run_into(&input, &mut out, 1).expect("steady run_into");
    }
    let run_allocs = allocs() - before;
    assert_eq!(
        run_allocs, 0,
        "Winograd plan: {run_allocs} allocations across 5 steady-state run_into calls"
    );
    assert_eq!(out.data(), expected.data());

    // Mixed precision: the int8 path (quantize edge → int8 conv with
    // dynamic requantization → dequantize edge) must uphold the same
    // zero-allocation contract — quantized patch matrices and i32
    // accumulators come from the workspace's typed arenas, and weight
    // quantization happened once at schedule-compile time.
    let net = micro_mixed();
    let reg = Registry::new(mixed_precision_library());
    let cost = AnalyticCost::new(MachineModel::intel_haswell_like(), 1);
    let opt = Optimizer::new(&reg, &cost);
    let plan = opt.plan(&net, Strategy::Pbqp).expect("plans");
    assert!(
        !plan.int8_layers().is_empty() && plan.quant_edge_count() >= 2,
        "precondition: the mixed plan must contain an int8 layer with quant/dequant edges\n{plan}"
    );
    let weights = Weights::random(&net, 0x1817);
    let exec = Executor::new(&net, &plan, &reg, &weights);
    let input = Tensor::random(16, 20, 20, Layout::Chw, 77);
    let mut out = Tensor::empty();
    let expected = exec.run(&input, 1).expect("warmup run");
    exec.run_into(&input, &mut out, 1).expect("warmup run_into");

    let before = allocs();
    for _ in 0..5 {
        exec.run_into(&input, &mut out, 1).expect("steady run_into");
    }
    let run_allocs = allocs() - before;
    assert_eq!(
        run_allocs, 0,
        "mixed-precision plan: {run_allocs} allocations across 5 steady-state run_into calls"
    );
    assert_eq!(out.data(), expected.data(), "allocation-free int8 path must stay correct");

    // ---- The front door upholds the same contract -----------------------
    // Compiler → CompiledModel → Engine → Session: a warmed session's
    // `infer` / `infer_batch` must be allocation-free too, for a plain
    // f32 model and for a mixed-precision one loaded from artifact bytes
    // (the shippable-plan path, complete with restored int8 weight
    // images).
    use pbqp_dnn::prelude::{CompileOptions, CompiledModel, Compiler};

    let f32_net = micro_alexnet();
    let f32_weights = Weights::random(&f32_net, 0x5EED);
    let f32_model =
        Compiler::new(CompileOptions::new()).compile(&f32_net, &f32_weights).expect("compiles");

    let mixed_model = {
        let m = Compiler::new(CompileOptions::new().mixed_precision(true))
            .compile(&net, &weights)
            .expect("compiles");
        assert!(!m.plan().int8_layers().is_empty(), "precondition: int8 selection");
        let mut bytes = Vec::new();
        m.save(&mut bytes).expect("saves");
        CompiledModel::load(&mut bytes.as_slice()).expect("loads")
    };

    // The int8-island plan: on the ARM machine model micro-resnet's stem
    // (conv → relu → pool → conv) stays quantized end to end — the relu
    // and pool run int8 op kernels, with **no** interior quantize or
    // dequantize conversions — and the residual add merges two f32
    // branches. A warmed session serving this plan must be allocation-free
    // like every other: int8 activations live in dtype-segregated pooled
    // slots and the op kernels carve from the workspace arenas.
    let island_net = micro_resnet();
    let island_weights = Weights::random(&island_net, 0x2026);
    let island_model = Compiler::new(
        CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true),
    )
    .compile(&island_net, &island_weights)
    .expect("compiles");
    {
        let plan = island_model.plan();
        assert!(
            !plan.int8_op_nodes().is_empty(),
            "precondition: relu/pool must join the int8 island\n{plan}"
        );
        for pair in ["conv1", "relu1", "pool1", "conv2"].windows(2) {
            let from = island_net.find(pair[0]).unwrap();
            let to = island_net.find(pair[1]).unwrap();
            let edge = plan.edges.iter().find(|e| e.from == from && e.to == to).unwrap();
            assert!(
                edge.chain.is_empty(),
                "precondition: island interior must carry no conversions"
            );
        }
    }

    for (label, model, dims) in [
        ("front-door f32", &f32_model, f32_net.infer_shapes().unwrap()[0]),
        ("front-door mixed (loaded from artifact)", &mixed_model, (16, 20, 20)),
        ("front-door int8 island (micro-resnet, ARM plan)", &island_model, (16, 48, 48)),
    ] {
        let (c, h, w) = dims;
        let engine = model.engine();
        let mut session = engine.session();
        let input = Tensor::random(c, h, w, Layout::Chw, 0xAB);
        let inputs: Vec<Tensor> =
            (0..3).map(|i| Tensor::random(c, h, w, Layout::Chw, 0xB0 + i)).collect();
        let mut out = Tensor::empty();
        let mut outs = Vec::new();

        // Warmup settles the session's buffers and output capacities.
        session.infer(&input, &mut out).expect("warmup infer");
        session.infer_batch(&inputs, &mut outs).expect("warmup infer_batch");
        let expected = engine.infer(&input).expect("reference");

        let before = allocs();
        for _ in 0..5 {
            session.infer(&input, &mut out).expect("steady infer");
        }
        let session_allocs = allocs() - before;
        assert_eq!(
            session_allocs, 0,
            "{label}: {session_allocs} allocations across 5 steady-state Session::infer calls"
        );

        let before = allocs();
        for _ in 0..3 {
            session.infer_batch(&inputs, &mut outs).expect("steady infer_batch");
        }
        let batch_allocs = allocs() - before;
        assert_eq!(
            batch_allocs, 0,
            "{label}: {batch_allocs} allocations across 3 steady-state Session::infer_batch calls"
        );

        // The gateway's flush path: caller-owned output slots through
        // `infer_batch_into`, fused conv steps and all. Smaller batches
        // reuse the warmed capacity, so a gateway flushing *up to* the
        // warmed batch size stays allocation-free too.
        let before = allocs();
        for _ in 0..3 {
            session.infer_batch_into(&inputs, &mut outs).expect("steady infer_batch_into");
            session.infer_batch_into(&inputs[..2], &mut outs[..2]).expect("steady partial batch");
        }
        let into_allocs = allocs() - before;
        assert_eq!(
            into_allocs, 0,
            "{label}: {into_allocs} allocations across steady-state infer_batch_into calls"
        );

        assert_eq!(out.data(), expected.data(), "{label}: zero-alloc path must stay correct");

        // Fused batching must not cost bit-exactness: every batch slot
        // matches serving that input alone.
        for (input, batched) in inputs.iter().zip(&outs) {
            let solo = engine.infer(input).expect("solo reference");
            assert_eq!(
                solo.data(),
                batched.data(),
                "{label}: fused batch output diverged from solo serve"
            );
        }
    }

    // ---- Failpoints cost nothing unless they fire -----------------------
    // The serving path is instrumented with fault-injection sites
    // (kernel dispatch, quant edges, buffer checkout). Disarmed, each is
    // one relaxed atomic load — the zero-allocation assertions above
    // already ran through them. Stronger: even with an *unrelated* site
    // armed (so every probe takes the registry-lookup slow path), a
    // warmed serving loop still performs zero heap allocations.
    use pbqp_dnn::faults;
    let engine = f32_model.engine();
    let mut session = engine.session();
    let (c, h, w) = f32_net.infer_shapes().unwrap()[0];
    let input = Tensor::random(c, h, w, Layout::Chw, 0xCD);
    let mut out = Tensor::empty();
    session.infer(&input, &mut out).expect("warmup infer");

    faults::arm(faults::ARTIFACT_READ, "every:error(not on the serving path)").expect("arms");
    let before = allocs();
    for _ in 0..5 {
        session.infer(&input, &mut out).expect("steady infer with unrelated site armed");
    }
    let armed_allocs = allocs() - before;
    faults::disarm_all();
    assert_eq!(
        armed_allocs, 0,
        "armed-but-unrelated failpoint: {armed_allocs} allocations across 5 serves"
    );
    assert!(engine.health().is_pristine(), "no fault ever fired on the serving path");
    drop(session);
    drop(engine);

    // ---- Live sampling costs no allocations either ----------------------
    // Everything above ran with sampling disabled: the per-step overhead
    // was exactly one relaxed atomic load of the process-wide gate. Now
    // arm it — with autotune on, a sampled step records into reservoirs
    // preallocated at attach time, so even sampling *every* step keeps
    // the warmed serving loop allocation-free. An infinite divergence
    // threshold keeps the background thread observing without ever
    // swapping a plan mid-measurement.
    use pbqp_dnn::prelude::AutotuneConfig;
    use pbqp_dnn::runtime::sampler;
    use std::time::{Duration, Instant};

    assert!(!sampler::active(), "the whole suite above ran with the sampler gate off");
    let engine = f32_model.engine();
    assert!(engine.enable_autotune(
        AutotuneConfig::new()
            .with_sample_rate(1)
            .with_divergence_threshold(f64::INFINITY)
            .with_poll_interval(Duration::from_millis(50)),
    ));
    assert!(sampler::active(), "enabling autotune arms the process-wide gate");
    let mut session = engine.session();
    let mut out = Tensor::empty();
    session.infer(&input, &mut out).expect("warmup infer under sampling");

    let before = allocs();
    for _ in 0..5 {
        session.infer(&input, &mut out).expect("steady sampled infer");
    }
    let sampled_allocs = allocs() - before;
    assert_eq!(
        sampled_allocs, 0,
        "armed sampler: {sampled_allocs} allocations across 5 steady-state serves"
    );
    let health = engine.health();
    assert!(health.samples > 0, "sampling observed the serves: {health:?}");
    assert_eq!(health.reoptimizations, 0, "infinite divergence threshold never swaps");

    // Retiring the engine retires its sampler: the gate falls back to
    // the one-relaxed-load disabled state for the rest of the process
    // (the background thread lets go within one poll interval).
    drop(session);
    drop(engine);
    let deadline = Instant::now() + Duration::from_secs(10);
    while sampler::active() {
        assert!(Instant::now() < deadline, "sampler gate stuck on after engine drop");
        std::thread::sleep(Duration::from_millis(5));
    }
}
