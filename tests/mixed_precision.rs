//! Mixed-precision selection, end to end: with the int8 primitives and
//! quantize/dequantize DT edges in the search space, one PBQP solve over
//! a published model emits a plan that mixes f32 and int8 layers — int8
//! where the compute win dominates, f32 where dequantization edge costs
//! (or a stronger f32 algorithm like Winograd) win — and that plan is
//! never predicted slower than the f32-only optimum.

use pbqp_dnn::cost::{AnalyticCost, MachineModel};
use pbqp_dnn::graph::{models, DnnGraph};
use pbqp_dnn::primitives::registry::{full_library, mixed_precision_library, op_library, Registry};
use pbqp_dnn::select::{AssignmentKind, ExecutionPlan, Optimizer, Strategy};
use pbqp_dnn::tensor::transform::ReprTransform;
use pbqp_dnn::tensor::DType;

/// Activation bytes crossing layer boundaries under a plan: every graph
/// edge moves the producer's output once, in the producer's output
/// representation (int8 = 1 byte per element, f32 = 4).
fn activation_bytes(net: &DnnGraph, plan: &ExecutionPlan) -> usize {
    let shapes = net.infer_shapes().expect("valid model");
    plan.edges
        .iter()
        .map(|e| {
            let (c, h, w) = shapes[e.from.index()];
            let repr = plan.assignment(e.from).output_repr();
            repr.layout.storage_len(c, h, w) * repr.dtype.bytes()
        })
        .sum()
}

/// The acceptance demo of first-class operator selection: with int8 op
/// kernels in the candidate sets, an int8 island on the ARM machine model
/// spans `conv → relu → pool → conv` with **zero** interior
/// quantize/dequantize edges — and the quant-edge count strictly drops
/// against a PR 3-style registry whose non-conv candidates are f32-only
/// (the old "dummy nodes force f32" behavior, which made consecutive int8
/// convs pay a dequant/requant round trip through every activation
/// layer).
#[test]
fn int8_island_spans_relu_and_pool_without_interior_conversions() {
    let net = models::micro_resnet();
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 1);
    let mixed_reg = Registry::new(mixed_precision_library());
    let opt = Optimizer::new(&mixed_reg, &cost);
    let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
    assert_eq!(plan.optimal, Some(true));

    // The whole stem chain is assigned int8 kernels…
    let chain = ["conv1", "relu1", "pool1", "conv2"];
    for name in chain {
        let node = net.find(name).unwrap();
        assert_eq!(
            plan.assignment(node).input_repr().dtype,
            DType::I8,
            "{name} left the int8 island\n{plan}"
        );
    }
    assert!(!plan.int8_op_nodes().is_empty(), "relu/pool must carry int8 kernels\n{plan}");

    // …and the island's interior edges carry no conversions at all: the
    // representations agree end to end.
    for pair in chain.windows(2) {
        let from = net.find(pair[0]).unwrap();
        let to = net.find(pair[1]).unwrap();
        let edge = plan
            .edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .expect("island edge is a graph edge");
        assert!(
            edge.chain.is_empty(),
            "{} -> {} should need no conversion, got {:?}",
            pair[0],
            pair[1],
            edge.chain
        );
    }

    // PR 3-style plans — same int8 convolutions, but f32-only op kernels
    // (the retired dummy-node behavior) — must pay strictly more
    // quantize/dequantize edges, and the op-selecting plan can never be
    // predicted slower (its search space is a superset).
    let pr3_reg = Registry::with_op_kernels(mixed_precision_library(), op_library());
    let pr3 = Optimizer::new(&pr3_reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
    assert!(
        plan.quant_edge_count() < pr3.quant_edge_count(),
        "op selection must shed quant edges: {} vs PR 3-style {}",
        plan.quant_edge_count(),
        pr3.quant_edge_count()
    );
    assert!(plan.predicted_us <= pr3.predicted_us + 1e-6);
    // The superset argument holds on the strided-conv fixture too.
    let mixed_net = models::micro_mixed();
    let island = opt.plan(&mixed_net, Strategy::Pbqp).unwrap();
    let pr3_mixed = Optimizer::new(&pr3_reg, &cost).plan(&mixed_net, Strategy::Pbqp).unwrap();
    assert!(island.predicted_us <= pr3_mixed.predicted_us + 1e-6, "micro_mixed");

    // The PBQP solve still beats every baseline strategy on the residual
    // network.
    let mut baselines = vec![
        Strategy::Sum2d,
        Strategy::LocalOptimalChw,
        Strategy::CaffeLike,
        Strategy::VendorLike { vector_width: 4 },
        Strategy::PbqpHeuristic,
    ];
    baselines.extend(Strategy::family_bars());
    for b in baselines {
        let base = opt.plan(&net, b).unwrap();
        assert!(
            plan.predicted_us <= base.predicted_us + 1e-6,
            "{}: PBQP {:.1} vs {:.1}",
            b.label(),
            plan.predicted_us,
            base.predicted_us
        );
    }
}

/// With the SIMD micro-kernels live (runtime dispatch, no override),
/// every serving surface of a mixed-precision model — the raw serial
/// `Executor`, a wavefront-parallel `Session::infer`, and the one-shot
/// `Engine::infer` — produces bit-identical activations: dispatch picks
/// one kernel per process and the int8 kernels are order-exact, so
/// precision islands cannot introduce cross-surface drift.
#[test]
fn session_engine_and_executor_agree_bit_for_bit_with_simd_dispatch_active() {
    use pbqp_dnn::gemm::arch;
    use pbqp_dnn::prelude::*;
    use pbqp_dnn::runtime::Executor;
    use pbqp_dnn::tensor::rng::SplitMix64;

    assert_eq!(
        arch::active_isa(),
        arch::forced().unwrap_or_else(|| arch::features().best()),
        "dispatch must be live"
    );

    let net = models::micro_resnet();
    let mut rng = SplitMix64::new(0x51D_CAFE);
    let weights = Weights::random(&net, rng.next_u64());
    let options = CompileOptions::new().machine(MachineModel::arm_a57_like()).mixed_precision(true);
    let model = Compiler::new(options).compile(&net, &weights).expect("compiles");
    assert!(!model.plan().int8_layers().is_empty(), "fixture must select int8 layers");

    let exec = Executor::new(model.graph(), model.plan(), model.registry(), model.weights());
    let engine = model.engine().with_parallelism(Parallelism::serial().with_inter_op(4));
    let mut session = engine.session();
    let (c, h, w) = net.infer_shapes().unwrap()[0];
    let mut out = Tensor::empty();
    for i in 0..4 {
        let input = Tensor::random(c, h, w, Layout::Chw, rng.next_u64());
        let serial = exec.run(&input, 1).unwrap();
        session.infer(&input, &mut out).expect("session serves");
        assert_eq!(out.data(), serial.data(), "input {i}: session diverged from serial executor");
        assert_eq!(engine.infer(&input).unwrap().data(), serial.data(), "input {i}: engine");
    }
}

#[test]
fn built_in_models_get_genuinely_mixed_plans() {
    // (model, machine) pairs known to split: on the ARM model AlexNet
    // keeps conv2 in f32 Winograd while the GEMM-bound layers go int8;
    // on the Haswell model GoogleNet mixes across the inception towers,
    // and micro_mixed's big strided conv goes int8 while its pointwise
    // tail stays f32.
    let cases: Vec<(&str, DnnGraph, MachineModel)> = vec![
        ("AlexNet", models::alexnet(), MachineModel::arm_a57_like()),
        ("GoogleNet", models::googlenet(), MachineModel::intel_haswell_like()),
        ("micro_mixed", models::micro_mixed(), MachineModel::intel_haswell_like()),
    ];
    for (name, net, machine) in cases {
        let mixed_reg = Registry::new(mixed_precision_library());
        let cost = AnalyticCost::new(machine, 1);
        let opt = Optimizer::new(&mixed_reg, &cost);
        let plan = opt.plan(&net, Strategy::Pbqp).unwrap();
        assert_eq!(plan.optimal, Some(true), "{name}");
        assert!(
            plan.is_mixed_precision(),
            "{name}: expected both f32 and int8 selections, got {} int8 of {} convs",
            plan.int8_layers().len(),
            plan.selected_primitives().len()
        );
        assert!(plan.quant_edge_count() >= 2, "{name}: int8 islands need quant/dequant edges");

        // Legalization chains are representation-consistent, including
        // across the precision boundary.
        for e in &plan.edges {
            let mut cur = plan.assignment(e.from).output_repr();
            for hop in &e.chain {
                assert_eq!(hop.from(), cur, "{name}: broken chain");
                cur = hop.to();
            }
            assert_eq!(cur, plan.assignment(e.to).input_repr(), "{name}");
        }

        // Every int8 layer is bracketed correctly: anything feeding a
        // quantized conv from an f32 producer must pass a Quantize hop.
        for e in &plan.edges {
            let to_dtype = plan.assignment(e.to).input_repr().dtype;
            let from_dtype = plan.assignment(e.from).output_repr().dtype;
            if from_dtype == DType::F32 && to_dtype == DType::I8 {
                assert!(
                    e.chain.iter().any(|h| matches!(h, ReprTransform::Quantize(_))),
                    "{name}: f32→i8 edge without a quantize hop"
                );
            }
        }

        // The superset search can never be predicted slower than the
        // f32-only optimum over the same cost source.
        let f32_reg = Registry::new(full_library());
        let f32_plan = Optimizer::new(&f32_reg, &cost).plan(&net, Strategy::Pbqp).unwrap();
        assert!(
            plan.predicted_us <= f32_plan.predicted_us + 1e-6,
            "{name}: mixed {} µs vs f32 {} µs",
            plan.predicted_us,
            f32_plan.predicted_us
        );
        let (mixed_bytes, f32_bytes) =
            (activation_bytes(&net, &plan), activation_bytes(&net, &f32_plan));
        assert!(
            mixed_bytes < f32_bytes,
            "{name}: int8 edges should cut activation bytes ({mixed_bytes} vs {f32_bytes})"
        );

        // Sanity on the layers the solver kept in f32: each is a genuine
        // f32 primitive with a finite profiled cost. (Their *optimality*
        // against int8 alternatives is exactly what `optimal ==
        // Some(true)` certifies above — the solver proved no flip of any
        // subset of layers, edge costs included, can do better.)
        let int8 = plan.int8_layers();
        for (node, prim) in plan.selected_primitives() {
            if int8.contains(&node) {
                continue;
            }
            if let AssignmentKind::Conv { cost_us, .. } = plan.assignment(node) {
                let d = mixed_reg.by_name(prim).unwrap().descriptor();
                assert_eq!(d.input_dtype, DType::F32);
                assert!(cost_us.is_finite());
            }
        }
    }
}
