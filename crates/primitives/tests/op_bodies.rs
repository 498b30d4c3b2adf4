//! Differential suite for the strided op bodies: every `(class, layout)`
//! f32 kernel and the int8 pool / concat kernels against textbook oracles
//! computed another way (`reference::*_reference`, accessor loops over
//! logical coordinates), on ragged shapes — channel counts off the 4/8
//! block grid, padded windows, stride 2 with Caffe's ceil overhang, a
//! window spanning the whole plane, windows entirely in the padding,
//! `N×1×1` operands.
//!
//! Every kernel writes into one recycled output that enters each call
//! NaN-filled and with the wrong shape, layout and size, so anything a
//! body fails to write — blocked padding lanes included — shows up, and
//! out of a workspace sized from its own `workspace_req`, which must not
//! grow.
//!
//! Tolerances: relu, pool, concat, dropout, add and softmax are bit-exact
//! (no reassociation); LRN is within 4 ulp (`sqrt·sqrt∘sqrt` against the
//! oracle's `powf`); FC is within `1e-5 · Σ|xᵢwᵢ|` of the oracle's
//! sequential sum and bit-identical across the five input layouts.

use pbqp_dnn_graph::{pool_out_dim, LayerKind, OpClass, PoolKind};
use pbqp_dnn_primitives::reference::{
    add_reference, concat_reference, fully_connected_reference, lrn_reference, pool_reference,
    relu_reference, softmax_reference,
};
use pbqp_dnn_primitives::registry::{mixed_precision_library, Registry};
use pbqp_dnn_primitives::{OpInputs, OpKernel, OpSpec, PrimitiveError, Workspace};
use pbqp_dnn_tensor::transform::quantize_dynamic_into;
use pbqp_dnn_tensor::{DType, Layout, QuantParams, Repr, Tensor};

type Dims = (usize, usize, usize);

fn registry() -> Registry {
    Registry::new(mixed_precision_library())
}

fn kernel<'r>(reg: &'r Registry, prefix: &str, class: OpClass, layout: Layout) -> &'r dyn OpKernel {
    let name = format!("{prefix}{}_{}", class.name(), layout.name().to_ascii_lowercase());
    reg.op_by_name(&name).unwrap_or_else(|| panic!("no kernel `{name}`")).as_ref()
}

fn f32_kernel(reg: &Registry, class: OpClass, layout: Layout) -> &dyn OpKernel {
    kernel(reg, "", class, layout)
}

fn int8_kernel(reg: &Registry, class: OpClass, layout: Layout) -> &dyn OpKernel {
    kernel(reg, "qint8_", class, layout)
}

/// A recycled f32 output: wrong shape, wrong layout, every element NaN.
fn dirty_f32() -> Tensor {
    let mut t = Tensor::empty();
    t.reuse_as(7, 13, 11, Layout::Hcw);
    t.data_mut().fill(f32::NAN);
    t
}

/// Runs `kernel` into `out` from a workspace of exactly its declared
/// requirement, twice (the second time over its own leftovers), and holds
/// it to that requirement.
fn run_into(
    kernel: &dyn OpKernel,
    operands: &[&Tensor],
    aux: Option<&[f32]>,
    spec: &OpSpec,
    out: &mut Tensor,
) {
    let name = &kernel.descriptor().name;
    let req = kernel.workspace_req(spec);
    let mut ws = Workspace::with_req(req);
    for _ in 0..2 {
        ws.reset();
        kernel
            .execute_into(OpInputs::Slice(operands), aux, spec, &mut ws, out)
            .unwrap_or_else(|e| panic!("{name} on {spec}: {e}"));
    }
    assert!(
        ws.reals.capacity() <= req.f32_elems && ws.indices.capacity() <= req.index_elems,
        "{name} on {spec}: workspace_req under-reports its scratch"
    );
    assert_eq!(out.repr(), kernel.descriptor().output_repr(), "{name} on {spec}");
    assert_eq!(out.dims(), spec.out, "{name} on {spec}");
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Distance in units in the last place between two finite same-sign f32s
/// (and 0 for equal values, whatever their sign).
fn ulps(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
    assert!(a.is_finite() && b.is_finite() && (a < 0.0) == (b < 0.0), "{a} vs {b}");
    a.to_bits().abs_diff(b.to_bits())
}

const UNARY_DIMS: [Dims; 6] = [(5, 7, 9), (12, 1, 1), (8, 4, 4), (3, 1, 6), (1, 5, 2), (17, 2, 3)];

#[test]
fn relu_dropout_and_softmax_are_bit_exact_in_every_layout() {
    let reg = registry();
    let mut out = dirty_f32();
    for layout in Layout::ALL {
        for (seed, dims) in UNARY_DIMS.into_iter().enumerate() {
            let (c, h, w) = dims;
            let input = Tensor::random(c, h, w, layout, 100 + seed as u64);
            for (class, kind, want) in [
                (OpClass::Relu, LayerKind::Relu, relu_reference(&input)),
                (OpClass::Dropout, LayerKind::Dropout, input.clone()),
                (OpClass::Softmax, LayerKind::Softmax, softmax_reference(&input)),
            ] {
                let spec = OpSpec::for_layer(&kind, vec![dims], dims).unwrap();
                out.data_mut().fill(f32::NAN);
                run_into(f32_kernel(&reg, class, layout), &[&input], None, &spec, &mut out);
                assert_eq!(bits(out.data()), bits(want.data()), "{class} {layout} {dims:?}");
            }
        }
    }
}

/// `(dims, k, stride, pad)`: ragged channels with a padded stride-2
/// window; the ceil overhang (the last window starts inside the plane and
/// ends outside); a window spanning the whole plane; 1×1 spatial; windows
/// that fall entirely into the padding / overhang (empty, so 0.0); and a
/// stride that does not divide the padding.
const POOLS: [(Dims, usize, usize, usize); 8] = [
    ((5, 7, 9), 3, 2, 1),
    ((3, 8, 8), 3, 2, 0),
    ((9, 6, 6), 6, 1, 0),
    ((12, 1, 1), 1, 1, 0),
    ((2, 5, 4), 2, 2, 1),
    ((4, 9, 5), 3, 1, 1),
    ((10, 7, 7), 5, 3, 2),
    ((6, 3, 10), 2, 1, 0),
];

fn pool_spec(kind: PoolKind, (dims, k, stride, pad): (Dims, usize, usize, usize)) -> OpSpec {
    let (c, h, w) = dims;
    let out = |extent| pool_out_dim(extent, k, stride, pad).unwrap();
    let layer = LayerKind::Pool { kind, k, stride, pad };
    OpSpec::for_layer(&layer, vec![dims], (c, out(h), out(w))).unwrap()
}

#[test]
fn pools_are_bit_exact_in_every_layout() {
    let reg = registry();
    let mut out = dirty_f32();
    for layout in Layout::ALL {
        for (seed, case) in POOLS.into_iter().enumerate() {
            let ((c, h, w), k, stride, pad) = case;
            let input = Tensor::random(c, h, w, layout, 200 + seed as u64);
            for (class, kind) in
                [(OpClass::MaxPool, PoolKind::Max), (OpClass::AvgPool, PoolKind::Avg)]
            {
                let spec = pool_spec(kind, case);
                let want = pool_reference(&input, kind, k, stride, pad);
                out.data_mut().fill(f32::NAN);
                run_into(f32_kernel(&reg, class, layout), &[&input], None, &spec, &mut out);
                assert_eq!(bits(out.data()), bits(want.data()), "{class} {layout} {case:?}");
            }
        }
    }
}

#[test]
fn a_pool_window_larger_than_the_padded_operand_is_a_typed_error() {
    let reg = registry();
    let layer = LayerKind::Pool { kind: PoolKind::Max, k: 7, stride: 1, pad: 0 };
    let spec = OpSpec::for_layer(&layer, vec![(2, 5, 5)], (2, 1, 1)).unwrap();
    let f = Tensor::random(2, 5, 5, Layout::Chw, 1);
    let mut q = Tensor::empty_dtype(DType::I8);
    quantize_dynamic_into(&f, &mut q);
    for (kernel, input) in [
        (f32_kernel(&reg, OpClass::MaxPool, Layout::Chw), &f),
        (int8_kernel(&reg, OpClass::MaxPool, Layout::Chw), &q),
    ] {
        let err = kernel.execute(OpInputs::Slice(&[input]), None, &spec).unwrap_err();
        assert!(matches!(err, PrimitiveError::ShapeMismatch { .. }), "{err}");
    }
}

#[test]
fn lrn_is_within_four_ulp_in_every_layout() {
    let reg = registry();
    let mut out = dirty_f32();
    for layout in Layout::ALL {
        for (seed, dims) in UNARY_DIMS.into_iter().enumerate() {
            let (c, h, w) = dims;
            // Large values so the normaliser is well away from 1.
            let small = Tensor::random(c, h, w, layout, 300 + seed as u64);
            let input = Tensor::from_fn(c, h, w, layout, |ci, y, x| small.at(ci, y, x) * 90.0);
            let spec = OpSpec::for_layer(&LayerKind::Lrn, vec![dims], dims).unwrap();
            let want = lrn_reference(&input);
            out.data_mut().fill(f32::NAN);
            run_into(f32_kernel(&reg, OpClass::Lrn, layout), &[&input], None, &spec, &mut out);
            for (i, (&got, &want)) in out.data().iter().zip(want.data()).enumerate() {
                assert!(ulps(got, want) <= 4, "lrn {layout} {dims:?} [{i}]: {got} vs {want}");
            }
        }
    }
}

#[test]
fn concat_and_add_are_bit_exact_in_every_layout() {
    let reg = registry();
    let mut out = dirty_f32();
    // Ragged parts that straddle channel blocks, block-aligned parts, and
    // `N×1×1` parts.
    let concats: [&[Dims]; 4] = [
        &[(3, 4, 5), (5, 4, 5), (1, 4, 5)],
        &[(8, 3, 3), (16, 3, 3)],
        &[(4, 1, 1), (6, 1, 1)],
        &[(7, 2, 6)],
    ];
    for layout in Layout::ALL {
        for (seed, parts) in concats.into_iter().enumerate() {
            let tensors: Vec<Tensor> = parts
                .iter()
                .enumerate()
                .map(|(i, &(c, h, w))| Tensor::random(c, h, w, layout, 400 + (seed * 8 + i) as u64))
                .collect();
            let operands: Vec<&Tensor> = tensors.iter().collect();
            let (_, h, w) = parts[0];
            let dims = (parts.iter().map(|p| p.0).sum(), h, w);
            let spec = OpSpec::for_layer(&LayerKind::Concat, parts.to_vec(), dims).unwrap();
            let want = concat_reference(&operands, layout);
            out.data_mut().fill(f32::NAN);
            run_into(f32_kernel(&reg, OpClass::Concat, layout), &operands, None, &spec, &mut out);
            assert_eq!(bits(out.data()), bits(want.data()), "concat {layout} {parts:?}");
        }
        for (seed, dims) in UNARY_DIMS.into_iter().enumerate() {
            let (c, h, w) = dims;
            let tensors: Vec<Tensor> = (0..3)
                .map(|i| Tensor::random(c, h, w, layout, 500 + (seed * 4 + i) as u64))
                .collect();
            let operands: Vec<&Tensor> = tensors.iter().collect();
            let spec = OpSpec::for_layer(&LayerKind::Add, vec![dims; 3], dims).unwrap();
            let want = add_reference(&operands);
            out.data_mut().fill(f32::NAN);
            run_into(f32_kernel(&reg, OpClass::Add, layout), &operands, None, &spec, &mut out);
            assert_eq!(bits(out.data()), bits(want.data()), "add {layout} {dims:?}");
        }
    }
}

#[test]
fn fc_matches_the_oracle_and_is_bit_identical_across_input_layouts() {
    let reg = registry();
    let mut out = dirty_f32();
    for (seed, (dims, out_n)) in
        [((5, 3, 4), 7), ((12, 1, 1), 5), ((8, 1, 1), 3), ((3, 6, 1), 4), ((40, 3, 3), 9)]
            .into_iter()
            .enumerate()
    {
        let (c, h, w) = dims;
        let in_len = c * h * w;
        let logical = Tensor::random(c, h, w, Layout::Chw, 600 + seed as u64);
        let weights = Tensor::random(out_n, 1, in_len, Layout::Chw, 700 + seed as u64);
        let weights = weights.data();
        let layer = LayerKind::FullyConnected { out: out_n };
        let spec = OpSpec::for_layer(&layer, vec![dims], (out_n, 1, 1)).unwrap();
        let want = fully_connected_reference(&logical, weights, out_n, Layout::Chw);
        let mut across_layouts: Option<Vec<u32>> = None;
        for layout in Layout::ALL {
            let input = logical.to_layout(layout);
            let kernel = f32_kernel(&reg, OpClass::FullyConnected, layout);
            out.data_mut().fill(f32::NAN);
            run_into(kernel, &[&input], Some(weights), &spec, &mut out);
            for o in 0..out_n {
                let magnitude: f32 =
                    (0..in_len).map(|i| (logical.data()[i] * weights[o * in_len + i]).abs()).sum();
                let (got, want) = (out.at(o, 0, 0), want.at(o, 0, 0));
                assert!(
                    (got - want).abs() <= 1e-5 * magnitude,
                    "fc {layout} {dims:?} row {o}: {got} vs {want}"
                );
            }
            // An N×1×1 result is stored contiguously in every layout,
            // followed only by (zero) padding lanes.
            let (values, padding) = out.data().split_at(out_n);
            assert!(padding.iter().all(|v| v.to_bits() == 0), "fc {layout} {dims:?}: padding");
            let values = bits(values);
            match &across_layouts {
                None => across_layouts = Some(values),
                Some(first) => assert_eq!(&values, first, "fc {layout} {dims:?}"),
            }
        }
        // A weight matrix of the wrong length is a typed error, not a
        // slice panic.
        let kernel = f32_kernel(&reg, OpClass::FullyConnected, Layout::Hwc);
        let input = logical.to_layout(Layout::Hwc);
        let short = &weights[..weights.len() - 1];
        let err = kernel.execute(OpInputs::Slice(&[&input]), Some(short), &spec).unwrap_err();
        assert!(matches!(err, PrimitiveError::ShapeMismatch { .. }), "{err}");
    }
}

/// A quantized operand in `layout`.
fn quantized(dims: Dims, layout: Layout, seed: u64) -> Tensor {
    let (c, h, w) = dims;
    let mut q = Tensor::empty_dtype(DType::I8);
    quantize_dynamic_into(&Tensor::random(c, h, w, layout, seed), &mut q);
    q
}

/// A recycled int8 output: wrong shape, wrong layout, stale codes.
fn dirty_i8() -> Tensor {
    let mut t = Tensor::empty_dtype(DType::I8);
    t.reuse_as_dtype(7, 13, 11, Layout::Hwc, DType::I8);
    t.data_i8_mut().fill(0x55);
    t
}

#[test]
fn int8_pools_match_a_code_level_oracle_bit_for_bit() {
    let reg = registry();
    let mut out = dirty_i8();
    for layout in Repr::I8_LAYOUTS {
        for (seed, case) in POOLS.into_iter().enumerate() {
            let (dims, k, stride, pad) = case;
            let (c, h, w) = dims;
            let input = quantized(dims, layout, 800 + seed as u64);
            let (codes, zp) = (input.data_i8(), input.qparams().zero_point);
            for (class, kind) in
                [(OpClass::MaxPool, PoolKind::Max), (OpClass::AvgPool, PoolKind::Avg)]
            {
                let spec = pool_spec(kind, case);
                let (_, oh, ow) = spec.out;
                // The textbook loop over logical coordinates, on codes.
                let mut want = Tensor::zeros_dtype(c, oh, ow, layout, DType::I8);
                for ci in 0..c {
                    for y in 0..oh {
                        for x in 0..ow {
                            let mut taps = Vec::new();
                            for i in 0..k {
                                for j in 0..k {
                                    let (iy, ix) = (y * stride + i, x * stride + j);
                                    if iy >= pad && ix >= pad && iy - pad < h && ix - pad < w {
                                        taps.push(
                                            codes[layout.offset(dims, ci, iy - pad, ix - pad)],
                                        );
                                    }
                                }
                            }
                            let sum: i32 = taps.iter().map(|&q| i32::from(q) - zp).sum();
                            let code = match (taps.len(), kind) {
                                (0, _) => zp.clamp(-127, 127) as i8,
                                (_, PoolKind::Max) => *taps.iter().max().unwrap(),
                                (n, PoolKind::Avg) => ((sum as f32 / n as f32).round() as i32 + zp)
                                    .clamp(-127, 127)
                                    as i8,
                            };
                            want.data_i8_mut()[layout.offset((c, oh, ow), ci, y, x)] = code;
                        }
                    }
                }
                out.data_i8_mut().fill(0x55);
                run_into(int8_kernel(&reg, class, layout), &[&input], None, &spec, &mut out);
                assert_eq!(out.data_i8(), want.data_i8(), "int8 {class} {layout} {case:?}");
                assert_eq!(out.qparams(), input.qparams(), "int8 {class} {layout} {case:?}");
            }
        }
    }
}

#[test]
fn int8_concat_matches_a_code_level_oracle_bit_for_bit() {
    let reg = registry();
    let mut out = dirty_i8();
    let concats: [&[Dims]; 3] =
        [&[(3, 4, 5), (5, 4, 5), (1, 4, 5)], &[(8, 3, 3), (16, 3, 3)], &[(4, 1, 1), (6, 1, 1)]];
    for layout in Repr::I8_LAYOUTS {
        for (seed, parts) in concats.into_iter().enumerate() {
            let tensors: Vec<Tensor> = parts
                .iter()
                .enumerate()
                .map(|(i, &dims)| quantized(dims, layout, 900 + (seed * 8 + i) as u64))
                .collect();
            let operands: Vec<&Tensor> = tensors.iter().collect();
            let (_, h, w) = parts[0];
            let dims = (parts.iter().map(|p| p.0).sum(), h, w);
            let spec = OpSpec::for_layer(&LayerKind::Concat, parts.to_vec(), dims).unwrap();
            // Joint range over the operands' real extrema, then every
            // code re-encoded through it — by logical coordinates.
            let (mut lo, mut hi) = (0.0f32, 0.0f32);
            for t in &tensors {
                let p = t.qparams();
                lo = lo.min(p.dequantize(*t.data_i8().iter().min().unwrap()));
                hi = hi.max(p.dequantize(*t.data_i8().iter().max().unwrap()));
            }
            let params = QuantParams::from_range(lo, hi);
            let mut want = Tensor::zeros_dtype(dims.0, h, w, layout, DType::I8);
            let mut c_base = 0;
            for t in &tensors {
                let p = t.qparams();
                for ci in 0..t.channels() {
                    for y in 0..h {
                        for x in 0..w {
                            let q = t.data_i8()[t.offset(ci, y, x)];
                            want.data_i8_mut()[layout.offset(dims, c_base + ci, y, x)] =
                                params.quantize(p.dequantize(q));
                        }
                    }
                }
                c_base += t.channels();
            }
            out.data_i8_mut().fill(0x55);
            run_into(int8_kernel(&reg, OpClass::Concat, layout), &operands, None, &spec, &mut out);
            assert_eq!(out.data_i8(), want.data_i8(), "int8 concat {layout} {parts:?}");
            assert_eq!(out.qparams(), params, "int8 concat {layout} {parts:?}");
        }
    }
}
