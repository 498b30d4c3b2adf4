//! Quantized (int8) non-convolution operator kernels — the other half of
//! the mixed-precision selection space.
//!
//! With these registered, a quantized activation chain no longer has to
//! leave the int8 domain at every ReLU or pooling layer: the optimizer
//! can keep whole islands (conv → relu → pool → conv) quantized with
//! **zero** interior quantize/dequantize edges, paying conversion only at
//! the island boundary.
//!
//! The kernels operate directly on quantized codes:
//!
//! * **relu** — `max(q, zp)`: dequantization is monotone and the zero
//!   point encodes real `0.0`, so the result is *exactly* the quantized
//!   image of the f32 ReLU (error 0 beyond the input's own quantization).
//! * **max pool** — windowed `max` over codes (same monotonicity
//!   argument; exact).
//! * **avg pool** — mean of `(q − zp)` per window, rounded once: at most
//!   half a step from the real mean.
//! * **concat** — operands carry distinct dynamic ranges, so codes are
//!   re-encoded into a joint output range covering every operand.
//! * **add** — real sums are accumulated exactly in f32 (carved from the
//!   workspace), then requantized dynamically: at most half an output
//!   step from the f32 sum.

use pbqp_dnn_gemm::arch;
use pbqp_dnn_graph::OpClass;
use pbqp_dnn_tensor::{DType, Layout, QuantParams, Repr, Tensor};

use crate::op::{check_op_args, OpDescriptor, OpInputs, OpKernel, OpSpec};
use crate::ops::{for_each_channel_run, pool_out_dims, pool_windows, PoolReduce};
use crate::{PrimitiveError, Workspace, WorkspaceReq};

fn qdesc(class: OpClass, layout: Layout) -> OpDescriptor {
    let name = format!("qint8_{}_{}", class.name(), layout.name().to_ascii_lowercase());
    OpDescriptor::new(name, class, layout)
        .with_dtypes(DType::I8, DType::I8)
        .with_library("pbqp-dnn-int8")
}

/// Int8 ReLU: `max(q, zp)` per code, parameters passed through.
pub(crate) struct QuantRelu {
    desc: OpDescriptor,
}

impl QuantRelu {
    pub(crate) fn new(layout: Layout) -> QuantRelu {
        QuantRelu { desc: qdesc(OpClass::Relu, layout) }
    }
}

impl OpKernel for QuantRelu {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn execute_into(
        &self,
        inputs: OpInputs<'_>,
        _aux: Option<&[f32]>,
        spec: &OpSpec,
        _ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_op_args(&self.desc, self.supports(spec), &inputs, spec)?;
        let input = inputs.at(0);
        let params = input.qparams();
        let zp = params.zero_point.clamp(-127, 127) as i8;
        let (c, h, w) = input.dims();
        out.reuse_as_dtype(c, h, w, self.desc.output_layout, DType::I8);
        out.set_qparams(params);
        // `max(q, zp)` is exact on every ISA, so the dispatched SIMD
        // kernel is bit-identical to the scalar loop.
        arch::active().i8_relu(input.data_i8(), zp, out.data_i8_mut());
        Ok(())
    }
}

/// Int8 max/average pooling over quantized codes.
pub(crate) struct QuantPool {
    desc: OpDescriptor,
    avg: bool,
}

impl QuantPool {
    pub(crate) fn new(class: OpClass, layout: Layout) -> QuantPool {
        debug_assert!(matches!(class, OpClass::MaxPool | OpClass::AvgPool));
        QuantPool { desc: qdesc(class, layout), avg: class == OpClass::AvgPool }
    }
}

impl OpKernel for QuantPool {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn execute_into(
        &self,
        inputs: OpInputs<'_>,
        _aux: Option<&[f32]>,
        spec: &OpSpec,
        _ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_op_args(&self.desc, self.supports(spec), &inputs, spec)?;
        let input = inputs.at(0);
        let params = input.qparams();
        let zp = params.zero_point;
        let (c, h, w) = input.dims();
        let layout = self.desc.output_layout;
        let (oh, ow) = pool_out_dims(h, w, spec.window)?;
        out.reuse_as_dtype(c, oh, ow, layout, DType::I8);
        out.set_qparams(params);
        let (src_s, out_s) = (layout.strides(input.dims()), layout.strides((c, oh, ow)));
        let (src, dst) = (input.data_i8(), out.data_i8_mut());
        // An empty window is real 0.0, same as the f32 op.
        let empty = zp.clamp(-127, 127) as i8;
        if self.avg {
            let reduce = PoolReduce {
                empty,
                init: 0i32,
                step: |sum, q| sum + i32::from(q) - zp,
                // One rounding of the exact code mean: at most half a
                // step from the real window mean.
                finish: |sum, taps| {
                    let mean = sum as f32 / taps as f32;
                    (mean.round() as i32 + zp).clamp(-127, 127) as i8
                },
            };
            pool_windows((src, &src_s), spec.window, (dst, &out_s), reduce);
        } else {
            let reduce = PoolReduce { empty, init: i8::MIN, step: i8::max, finish: |m, _| m };
            pool_windows((src, &src_s), spec.window, (dst, &out_s), reduce);
        }
        Ok(())
    }
}

/// Int8 channel concatenation: re-encodes every operand into a joint
/// output range (operands carry distinct dynamic quantization ranges).
pub(crate) struct QuantConcat {
    desc: OpDescriptor,
}

impl QuantConcat {
    pub(crate) fn new(layout: Layout) -> QuantConcat {
        QuantConcat { desc: qdesc(OpClass::Concat, layout) }
    }
}

impl OpKernel for QuantConcat {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn execute_into(
        &self,
        inputs: OpInputs<'_>,
        _aux: Option<&[f32]>,
        spec: &OpSpec,
        _ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_op_args(&self.desc, self.supports(spec), &inputs, spec)?;
        // Joint range: the real min/max over all operands (linear in the
        // codes, so the per-operand code extrema suffice).
        let mut lo = 0.0f32;
        let mut hi = 0.0f32;
        for i in 0..inputs.len() {
            let t = inputs.at(i);
            if t.data_i8().is_empty() {
                continue;
            }
            let p = t.qparams();
            // Exact extrema (a `min`/`max` reduction over codes), so the
            // SIMD scan cannot change the joint range.
            let (qmin, qmax) = arch::active().i8_minmax(t.data_i8());
            lo = lo.min(p.dequantize(qmin));
            hi = hi.max(p.dequantize(qmax));
        }
        let params = QuantParams::from_range(lo, hi);
        let (c, oh, ow) = spec.out;
        let layout = self.desc.output_layout;
        out.reuse_as_dtype(c, oh, ow, layout, DType::I8);
        out.set_qparams(params);
        let dst = out.data_i8_mut();
        let mut c_base = 0;
        for i in 0..inputs.len() {
            let t = inputs.at(i);
            let p = t.qparams();
            let src = t.data_i8();
            let (tc, _, _) = t.dims();
            for_each_channel_run(layout, (oh, ow), (tc, 0), (c, c_base), tc, |from, to, len| {
                for (d, &q) in dst[to..to + len].iter_mut().zip(&src[from..from + len]) {
                    *d = params.quantize(p.dequantize(q));
                }
            });
            c_base += t.channels();
        }
        Ok(())
    }
}

/// Int8 elementwise add: exact f32 sums staged in workspace scratch, then
/// one dynamic requantization — the same dynamic-range discipline the
/// int8 convolutions use for their accumulators.
pub(crate) struct QuantAdd {
    desc: OpDescriptor,
}

impl QuantAdd {
    pub(crate) fn new(layout: Layout) -> QuantAdd {
        QuantAdd { desc: qdesc(OpClass::Add, layout) }
    }
}

impl OpKernel for QuantAdd {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn workspace_req(&self, spec: &OpSpec) -> WorkspaceReq {
        // Non-blocked layouts only (see `Repr::I8_LAYOUTS`), so storage
        // length equals the logical element count.
        WorkspaceReq::f32s(spec.out_elems())
    }

    fn execute_into(
        &self,
        inputs: OpInputs<'_>,
        _aux: Option<&[f32]>,
        spec: &OpSpec,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_op_args(&self.desc, self.supports(spec), &inputs, spec)?;
        let elems = spec.out_elems();
        let mark = ws.reals.mark();
        let [sums] = ws.reals.take([elems]);
        // Operands share layout and dims, so storage orders agree
        // element for element; sum the dequantized codes exactly.
        let mut lo = 0.0f32;
        let mut hi = 0.0f32;
        for i in 0..inputs.len() {
            let t = inputs.at(i);
            let p = t.qparams();
            for (acc, &q) in sums.iter_mut().zip(t.data_i8()) {
                *acc += p.dequantize(q);
            }
        }
        for &v in sums.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let params = QuantParams::from_range(lo, hi);
        let (c, h, w) = spec.out;
        out.reuse_as_dtype(c, h, w, self.desc.output_layout, DType::I8);
        out.set_qparams(params);
        for (d, &v) in out.data_i8_mut().iter_mut().zip(sums.iter()) {
            *d = params.quantize(v);
        }
        ws.reals.release(mark);
        Ok(())
    }
}

/// All quantized op kernels: relu / max pool / avg pool / concat / add at
/// every quantized layout.
pub(crate) fn all() -> Vec<Box<dyn OpKernel>> {
    let mut out: Vec<Box<dyn OpKernel>> = Vec::new();
    for layout in Repr::I8_LAYOUTS {
        out.push(Box::new(QuantRelu::new(layout)));
        out.push(Box::new(QuantPool::new(OpClass::MaxPool, layout)));
        out.push(Box::new(QuantPool::new(OpClass::AvgPool, layout)));
        out.push(Box::new(QuantConcat::new(layout)));
        out.push(Box::new(QuantAdd::new(layout)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use pbqp_dnn_graph::{LayerKind, PoolKind};
    use pbqp_dnn_tensor::transform::{dequantize_into, quantize_dynamic_into};

    fn quantized(c: usize, h: usize, w: usize, layout: Layout, seed: u64) -> (Tensor, Tensor) {
        let f = Tensor::random(c, h, w, layout, seed);
        let mut q = Tensor::empty_dtype(DType::I8);
        quantize_dynamic_into(&f, &mut q);
        // The f32 reference sees exactly what the int8 kernel sees: the
        // dequantized codes (input quantization error is not the op's).
        let mut back = Tensor::empty();
        dequantize_into(&q, &mut back);
        (back, q)
    }

    #[test]
    fn int8_relu_is_exact_on_the_grid() {
        for layout in Repr::I8_LAYOUTS {
            let (f, q) = quantized(3, 5, 4, layout, 11);
            let spec = OpSpec::for_layer(&LayerKind::Relu, vec![(3, 5, 4)], (3, 5, 4)).unwrap();
            let operands = [&q];
            let got =
                QuantRelu::new(layout).execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::relu_reference(&f);
            assert_eq!(back.max_abs_diff(&want).unwrap(), 0.0, "{layout}");
        }
    }

    #[test]
    fn int8_pools_track_the_f32_reference() {
        for layout in Repr::I8_LAYOUTS {
            for (class, kind) in
                [(OpClass::MaxPool, PoolKind::Max), (OpClass::AvgPool, PoolKind::Avg)]
            {
                let (f, q) = quantized(2, 7, 7, layout, 23);
                let kind_layer = LayerKind::Pool { kind, k: 3, stride: 2, pad: 1 };
                let spec = OpSpec::for_layer(&kind_layer, vec![(2, 7, 7)], (2, 4, 4)).unwrap();
                let operands = [&q];
                let got = QuantPool::new(class, layout)
                    .execute(OpInputs::Slice(&operands), None, &spec)
                    .unwrap();
                let mut back = Tensor::empty();
                dequantize_into(&got, &mut back);
                let want = reference::pool_reference(&f, kind, 3, 2, 1);
                let diff = back.max_abs_diff(&want).unwrap();
                let tol =
                    if class == OpClass::MaxPool { 0.0 } else { got.qparams().scale / 2.0 + 1e-6 };
                assert!(diff <= tol, "{class} {layout}: {diff} > {tol}");
            }
        }
    }

    #[test]
    fn int8_concat_and_add_requantize_within_half_a_step() {
        for layout in Repr::I8_LAYOUTS {
            let (fa, qa) = quantized(2, 4, 4, layout, 31);
            let (fb, qb) = quantized(3, 4, 4, layout, 32);
            let spec = OpSpec::for_layer(&LayerKind::Concat, vec![(2, 4, 4), (3, 4, 4)], (5, 4, 4))
                .unwrap();
            let operands = [&qa, &qb];
            let got =
                QuantConcat::new(layout).execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::concat_reference(&[&fa, &fb], layout);
            let diff = back.max_abs_diff(&want).unwrap();
            assert!(diff <= got.qparams().scale / 2.0 + 1e-6, "concat {layout}: {diff}");

            let (fc_, qc) = quantized(2, 4, 4, layout, 33);
            let spec =
                OpSpec::for_layer(&LayerKind::Add, vec![(2, 4, 4), (2, 4, 4)], (2, 4, 4)).unwrap();
            let operands = [&qa, &qc];
            let got =
                QuantAdd::new(layout).execute(OpInputs::Slice(&operands), None, &spec).unwrap();
            let mut back = Tensor::empty();
            dequantize_into(&got, &mut back);
            let want = reference::add_reference(&[&fa, &fc_]);
            let diff = back.max_abs_diff(&want).unwrap();
            assert!(diff <= got.qparams().scale / 2.0 + 1e-6, "add {layout}: {diff}");
        }
    }

    #[test]
    fn scratch_reuse_is_exact_and_capacity_stable() {
        let spec =
            OpSpec::for_layer(&LayerKind::Add, vec![(3, 6, 6), (3, 6, 6)], (3, 6, 6)).unwrap();
        let (_, qa) = quantized(3, 6, 6, Layout::Chw, 41);
        let (_, qb) = quantized(3, 6, 6, Layout::Chw, 42);
        let kernel = QuantAdd::new(Layout::Chw);
        let operands = [&qa, &qb];
        let fresh = kernel.execute(OpInputs::Slice(&operands), None, &spec).unwrap();
        let mut ws = Workspace::with_req(kernel.workspace_req(&spec));
        let mut out = Tensor::empty_dtype(DType::I8);
        for round in 0..3 {
            ws.reset();
            kernel
                .execute_into(OpInputs::Slice(&operands), None, &spec, &mut ws, &mut out)
                .unwrap();
            assert_eq!(out.data_i8(), fresh.data_i8(), "round {round}");
            assert_eq!(out.qparams(), fresh.qparams());
        }
        let req = kernel.workspace_req(&spec);
        assert!(
            ws.reals.capacity() <= req.f32_elems,
            "workspace_req under-reports: {} used, {} declared",
            ws.reals.capacity(),
            req.f32_elems
        );
    }

    #[test]
    fn rejects_f32_operands() {
        let spec = OpSpec::for_layer(&LayerKind::Relu, vec![(2, 3, 3)], (2, 3, 3)).unwrap();
        let f = Tensor::random(2, 3, 3, Layout::Chw, 51);
        let operands = [&f];
        let err = QuantRelu::new(Layout::Chw)
            .execute(OpInputs::Slice(&operands), None, &spec)
            .unwrap_err();
        assert!(matches!(err, PrimitiveError::WrongInputDType { .. }));
    }
}
