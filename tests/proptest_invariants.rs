//! Property-based tests over the core invariants:
//!
//! * the reduction-based PBQP solver agrees with exhaustive enumeration;
//! * a plan's predicted cost always decomposes into its parts, and the
//!   PBQP plan is never beaten by any baseline strategy;
//! * layout transformation chains preserve tensor contents;
//! * randomly chosen primitives agree with the reference convolution;
//! * quantize→dequantize round trips are bounded by `scale/2` per
//!   element, exact for on-grid values, and deterministic across runs.
//!
//! The build environment has no crates.io access, so instead of proptest
//! each test derives its random cases from a fixed-seed splitmix64
//! generator — deterministic, but covering the same input space.

use pbqp_dnn_cost::{AnalyticCost, MachineModel};
use pbqp_dnn_graph::{ConvScenario, DnnGraph, Layer, LayerKind};
use pbqp_dnn_primitives::registry::{full_library, Registry};
use pbqp_dnn_select::{Optimizer, Strategy};
use pbqp_dnn_tensor::rng::SplitMix64;
use pbqp_dnn_tensor::transform::{apply_direct, DIRECT_TRANSFORMS};
use pbqp_dnn_tensor::{KernelTensor, Layout, Tensor};
use pbqp_solver::{CostMatrix, PbqpGraph, Solver};

/// Solver vs exhaustive enumeration on random instances.
#[test]
fn pbqp_solver_matches_exhaustive() {
    let mut rng = SplitMix64::new(100);
    for case in 0..24 {
        let nodes = rng.usize(2, 5);
        let edge_density = rng.usize(0, 100);
        let mut g = PbqpGraph::new();
        let ids: Vec<_> = (0..nodes)
            .map(|_| {
                let options = rng.usize(1, 4);
                g.add_node((0..options).map(|_| (rng.usize(0, 40)) as f64).collect())
            })
            .collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                if rng.usize(0, 100) < edge_density {
                    let rows = g.node_costs(ids[i]).len();
                    let cols = g.node_costs(ids[j]).len();
                    let m = CostMatrix::from_fn(rows, cols, |_, _| {
                        let v = rng.usize(0, 25);
                        if v == 0 {
                            f64::INFINITY
                        } else {
                            v as f64
                        }
                    });
                    g.add_edge(ids[i], ids[j], m).unwrap();
                }
            }
        }
        let fast = Solver::new().solve(&g);
        let brute = Solver::new().solve_exhaustive(&g);
        match (fast, brute) {
            (Ok(f), Ok(b)) => {
                assert!(f.optimal, "case {case}");
                assert!((f.total_cost - b.total_cost).abs() < 1e-9, "case {case}");
            }
            (Err(_), Err(_)) => {}
            (f, b) => panic!("case {case} divergent: {f:?} vs {b:?}"),
        }
    }
}

/// Any chain of registered direct transforms preserves tensor values.
#[test]
fn transform_chains_preserve_contents() {
    let mut rng = SplitMix64::new(200);
    for _ in 0..24 {
        let (c, h, w) = (rng.usize(1, 9), rng.usize(1, 9), rng.usize(1, 9));
        let hops = rng.usize(1, 6);
        let original = Tensor::random(c, h, w, Layout::Chw, rng.next_u64());
        let mut t = original.clone();
        for _ in 0..hops {
            // Walk only edges that start at the current layout.
            if let Some(tr) = DIRECT_TRANSFORMS.iter().find(|x| x.from == t.layout()) {
                t = apply_direct(&t, tr.to).unwrap();
            }
        }
        assert!(t.max_abs_diff(&original).unwrap() == 0.0);
    }
}

/// A randomly chosen supporting primitive equals the reference.
#[test]
fn random_primitive_matches_reference() {
    let mut rng = SplitMix64::new(300);
    let reg = Registry::new(full_library());
    for _ in 0..24 {
        let c = rng.usize(1, 7);
        let hw = rng.usize(6, 12);
        let k = [1usize, 3, 5][rng.usize(0, 3)];
        let m = rng.usize(1, 6);
        let stride = rng.usize(1, 3);
        let s = ConvScenario::new(c, hw, hw, stride, k, m);
        let cands = reg.candidates(&s);
        let prim = cands[rng.usize(0, cands.len())];
        let input = Tensor::random(c, hw, hw, Layout::Chw, rng.next_u64())
            .to_layout(prim.descriptor().input_layout);
        let kernel = KernelTensor::random(m, c, k, k, rng.next_u64());
        let got = prim.execute(&input, &kernel, &s, 1).unwrap();
        let want = pbqp_dnn_primitives::reference::sum2d_reference(&input, &kernel, &s);
        let diff = got.max_abs_diff(&want).unwrap();
        // Winograd F(6,3) is the loosest numerically.
        assert!(diff < 5e-2, "{}: {diff}", prim.descriptor().name);
    }
}

/// Quantize→dequantize round trips on random tensors: error bounded by
/// `scale/2` per element, exact round trip for values already on the
/// quantization grid, and bit-identical codes across repeated runs.
#[test]
fn quantize_dequantize_round_trip_properties() {
    use pbqp_dnn_tensor::transform::{dequantize_into, quantize_dynamic_into, quantize_into};
    use pbqp_dnn_tensor::{DType, Repr};
    let mut rng = SplitMix64::new(500);
    for case in 0..24 {
        let (c, h, w) = (rng.usize(1, 9), rng.usize(1, 9), rng.usize(1, 9));
        let layout = Repr::I8_LAYOUTS[rng.usize(0, Repr::I8_LAYOUTS.len())];
        // Stretch the value range so scales vary across cases.
        let scale_up = 1 + rng.usize(0, 50) as i32;
        let base = Tensor::random(c, h, w, layout, rng.next_u64());
        let src =
            Tensor::from_fn(c, h, w, layout, |ci, hi, wi| base.at(ci, hi, wi) * scale_up as f32);

        let mut q = Tensor::empty_dtype(DType::I8);
        let params = quantize_dynamic_into(&src, &mut q);
        let mut back = Tensor::empty();
        dequantize_into(&q, &mut back);

        // Property 1: per-element error bounded by scale/2.
        let bound = params.scale / 2.0 + params.scale * 1e-4;
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let err = (back.at(ci, hi, wi) - src.at(ci, hi, wi)).abs();
                    assert!(err <= bound, "case {case}: err {err} > {bound}");
                }
            }
        }

        // Property 2: values already on the grid round-trip exactly —
        // requantizing the dequantized tensor reproduces the codes.
        let mut q2 = Tensor::empty_dtype(DType::I8);
        quantize_into(&back, params, &mut q2);
        assert_eq!(q.data_i8(), q2.data_i8(), "case {case}: grid values must be fixed points");

        // Property 3: determinism — same input, same params and codes.
        let mut q3 = Tensor::empty_dtype(DType::I8);
        let params3 = quantize_dynamic_into(&src, &mut q3);
        assert_eq!(params, params3, "case {case}");
        assert_eq!(q.data_i8(), q3.data_i8(), "case {case}");

        // Real zero is always exactly representable.
        assert_eq!(params.dequantize(params.quantize(0.0)), 0.0, "case {case}");
    }
}

/// Int8 op kernels (relu / max pool / avg pool / add) on random quantized
/// tensors: each matches the f32 reference applied to the dequantized
/// codes within the quantization error bound (≤ output scale/2 per
/// element — relu and max pool are exact, they only reorder codes), and
/// repeated execution out of a dirty reused workspace is bit-identical.
#[test]
fn int8_op_kernels_match_f32_reference_within_quant_bound() {
    use pbqp_dnn_graph::{pool_out_dim, PoolKind};
    use pbqp_dnn_primitives::registry::Registry;
    use pbqp_dnn_primitives::{
        reference, registry::mixed_precision_library, OpInputs, OpSpec, Workspace,
    };
    use pbqp_dnn_tensor::transform::{dequantize_into, quantize_dynamic_into};
    use pbqp_dnn_tensor::{DType, Repr};

    let reg = Registry::new(mixed_precision_library());
    let mut rng = SplitMix64::new(700);
    for case in 0..24 {
        let layout = Repr::I8_LAYOUTS[rng.usize(0, Repr::I8_LAYOUTS.len())];
        let (c, h, w) = (rng.usize(1, 7), rng.usize(4, 10), rng.usize(4, 10));
        // Quantized operand plus the dequantized image the f32 reference
        // sees (input quantization error belongs to the input, not the
        // op under test).
        let quantized = |seed: u64, scale: f32| {
            let f = Tensor::from_fn(c, h, w, layout, |ci, hi, wi| {
                let base =
                    Tensor::random(1, 1, 1, Layout::Chw, seed ^ ((ci * 977 + hi * 31 + wi) as u64));
                base.at(0, 0, 0) * scale
            });
            let mut q = Tensor::empty_dtype(DType::I8);
            quantize_dynamic_into(&f, &mut q);
            let mut back = Tensor::empty();
            dequantize_into(&q, &mut back);
            (back, q)
        };
        let (fa, qa) = quantized(rng.next_u64(), 1.0 + rng.usize(0, 20) as f32);
        let (fb, qb) = quantized(rng.next_u64(), 1.0 + rng.usize(0, 20) as f32);

        // Relu: exact (monotone code clamp at the zero point).
        {
            let spec = OpSpec::for_layer(&LayerKind::Relu, vec![(c, h, w)], (c, h, w)).unwrap();
            let kernel = reg
                .op_by_name(&format!("qint8_relu_{}", layout.name().to_ascii_lowercase()))
                .unwrap();
            let operands = [&qa];
            let got = kernel.execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::relu_reference(&fa);
            assert_eq!(back.max_abs_diff(&want).unwrap(), 0.0, "case {case} relu {layout}");
        }

        // Pools: max exact, avg within half an output step.
        for (kind, name) in [(PoolKind::Max, "maxpool"), (PoolKind::Avg, "avgpool")] {
            let k = rng.usize(1, 4);
            let stride = rng.usize(1, 3);
            let pad = rng.usize(0, k);
            let layer = LayerKind::Pool { kind, k, stride, pad };
            let oh = pool_out_dim(h, k, stride, pad).expect("k <= 3 < h");
            let ow = pool_out_dim(w, k, stride, pad).expect("k <= 3 < w");
            let spec = OpSpec::for_layer(&layer, vec![(c, h, w)], (c, oh, ow)).unwrap();
            let kernel = reg
                .op_by_name(&format!("qint8_{name}_{}", layout.name().to_ascii_lowercase()))
                .unwrap();
            let operands = [&qa];
            let got = kernel.execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::pool_reference(&fa, kind, k, stride, pad);
            let diff = back.max_abs_diff(&want).unwrap();
            let bound = match kind {
                PoolKind::Max => 0.0,
                PoolKind::Avg => got.qparams().scale / 2.0 + got.qparams().scale * 1e-4,
            };
            assert!(diff <= bound, "case {case} {name} {layout}: {diff} > {bound}");
        }

        // Add: exact f32 sums, one dynamic requantization — within half
        // an output step of the f32 reference.
        {
            let spec =
                OpSpec::for_layer(&LayerKind::Add, vec![(c, h, w), (c, h, w)], (c, h, w)).unwrap();
            let kernel = reg
                .op_by_name(&format!("qint8_add_{}", layout.name().to_ascii_lowercase()))
                .unwrap();
            let operands = [&qa, &qb];
            let got = kernel.execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::add_reference(&[&fa, &fb]);
            let diff = back.max_abs_diff(&want).unwrap();
            let bound = got.qparams().scale / 2.0 + got.qparams().scale * 1e-4;
            assert!(diff <= bound, "case {case} add {layout}: {diff} > {bound}");

            // Determinism across dirty scratch reuse: same codes and
            // params from a workspace that already served other calls.
            let mut ws = Workspace::with_req(kernel.workspace_req(&spec));
            let mut out = Tensor::empty_dtype(DType::I8);
            for round in 0..3 {
                ws.reset();
                kernel
                    .execute_into(OpInputs::Slice(&operands), None, &spec, &mut ws, &mut out)
                    .unwrap();
                assert_eq!(out.data_i8(), got.data_i8(), "case {case} round {round}");
                assert_eq!(out.qparams(), got.qparams(), "case {case} round {round}");
            }
        }
    }
}

/// On random conv chains, the PBQP plan cost decomposes exactly and is
/// never beaten by the canonical-layout local optimum.
#[test]
fn pbqp_dominates_local_optimal_on_random_chains() {
    let mut rng = SplitMix64::new(400);
    let reg = Registry::new(full_library());
    let cost = AnalyticCost::new(MachineModel::arm_a57_like(), 2);
    let opt = Optimizer::new(&reg, &cost);
    for _ in 0..12 {
        let layers = rng.usize(1, 5);
        let hw = rng.usize(8, 20);
        let mut g = DnnGraph::new();
        let mut c = 3usize;
        let mut dims = hw;
        let mut prev = g.add(Layer::new("data", LayerKind::Input { c, h: dims, w: dims }));
        for i in 0..layers {
            let m = rng.usize(1, 17);
            let k = [1usize, 3, 5][rng.usize(0, 3)];
            let s = ConvScenario::new(c, dims, dims, 1, k, m);
            let conv = g.add(Layer::new(format!("conv{i}"), LayerKind::Conv(s)));
            g.connect(prev, conv).unwrap();
            let relu = g.add(Layer::new(format!("relu{i}"), LayerKind::Relu));
            g.connect(conv, relu).unwrap();
            prev = relu;
            c = m;
            dims = s.out_h();
        }
        let pbqp = opt.plan(&g, Strategy::Pbqp).unwrap();
        let lopt = opt.plan(&g, Strategy::LocalOptimalChw).unwrap();
        assert_eq!(pbqp.optimal, Some(true));
        assert!(pbqp.predicted_us <= lopt.predicted_us + 1e-6);
        // Cost decomposition: conv + op + transforms == total (no
        // overhead for the PBQP strategy).
        let parts = pbqp.conv_us() + pbqp.op_us() + pbqp.transform_us();
        assert!((parts - pbqp.predicted_us).abs() < 1e-6 * pbqp.predicted_us.max(1.0));
    }
}
