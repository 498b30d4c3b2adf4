use std::time::Instant;

use pbqp_dnn_graph::ConvScenario;
use pbqp_dnn_primitives::{ConvAlgorithm, OpInputs, OpKernel, OpSpec};
use pbqp_dnn_tensor::transform::{apply_repr_into, quantize_dynamic_into, ReprTransform};
use pbqp_dnn_tensor::{DType, KernelTensor, Tensor};

use crate::table::CostSource;

/// Wall-clock profiler: the paper's methodology (§3.1).
///
/// "The cost of execution of most DNN layers depends primarily on the
/// dimensions of the input rather than on the actual input values" — so
/// each candidate primitive is run on deterministic pseudo-random tensors
/// of the layer's true dimensions and the best of `reps` timings is
/// recorded.
///
/// Profiling a full network against the whole library takes real time;
/// [`MeasuredCost::with_scale`] optionally shrinks the spatial dimensions
/// by an integer factor for quick calibration runs (costs scale
/// predictably with `H × W` for every family).
///
/// The profiled kernels go through the runtime ISA dispatch in
/// `pbqp_dnn_gemm::arch`, so measured costs automatically reflect
/// whichever micro-kernel (AVX2 / SSE2 / scalar) the serving host will
/// actually run — including under a `PBQP_DNN_FORCE_ISA` override.
#[derive(Debug, Clone)]
pub struct MeasuredCost {
    threads: usize,
    reps: usize,
    scale: usize,
}

impl MeasuredCost {
    /// Creates a profiler running each primitive `reps` times with the
    /// given thread count, keeping the minimum.
    pub fn new(threads: usize, reps: usize) -> MeasuredCost {
        MeasuredCost { threads: threads.max(1), reps: reps.max(1), scale: 1 }
    }

    /// Divides profiled spatial dimensions by `scale` (≥ 1).
    pub fn with_scale(mut self, scale: usize) -> MeasuredCost {
        self.scale = scale.max(1);
        self
    }

    fn scaled(&self, s: &ConvScenario) -> ConvScenario {
        if self.scale == 1 {
            return *s;
        }
        let mut t = *s;
        // Keep the scenario executable: never shrink below the kernel.
        t.h = (t.h / self.scale).max(t.k);
        t.w = (t.w / self.scale).max(t.k);
        t
    }

    /// The op-spec analogue of [`MeasuredCost::scaled`]: operand spatial
    /// dims shrink by the scale (never below the pool window), and the
    /// output geometry is re-derived per class so the kernels' shape
    /// checks still hold.
    fn scaled_spec(&self, spec: &OpSpec) -> OpSpec {
        if self.scale == 1 {
            return spec.clone();
        }
        let (k, stride, pad) = spec.window;
        let mut t = spec.clone();
        for (_, h, w) in &mut t.inputs {
            *h = (*h / self.scale).max(k.max(1));
            *w = (*w / self.scale).max(k.max(1));
        }
        let (_, h0, w0) = t.inputs[0];
        t.out = match t.class {
            pbqp_dnn_graph::OpClass::MaxPool | pbqp_dnn_graph::OpClass::AvgPool => {
                let out = |extent| {
                    pbqp_dnn_graph::pool_out_dim(extent, k, stride, pad)
                        .expect("operand dims were clamped to at least the window")
                };
                (t.out.0, out(h0), out(w0))
            }
            // Every other costed class is shape-preserving spatially
            // (concat sums channels, add/relu are elementwise).
            _ => (t.out.0, h0, w0),
        };
        t
    }
}

impl CostSource for MeasuredCost {
    fn layer_cost(&self, prim: &dyn ConvAlgorithm, scenario: &ConvScenario) -> f64 {
        let s = self.scaled(scenario);
        let f32_input = Tensor::random(s.c, s.h, s.w, prim.descriptor().input_layout, 0xA11CE);
        // Quantized primitives are profiled on quantized activations,
        // matching what the executor feeds them at run time.
        let input = if prim.descriptor().input_dtype == DType::I8 {
            let mut q = Tensor::empty_dtype(DType::I8);
            quantize_dynamic_into(&f32_input, &mut q);
            q
        } else {
            f32_input
        };
        let mut kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 0xB0B);
        if s.sparsity_pm > 0 {
            kernel.sparsify(s.sparsity(), 0xC0FFEE);
        }
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let start = Instant::now();
            let out = prim.execute(&input, &kernel, &s, self.threads);
            let dt = start.elapsed().as_secs_f64() * 1e6;
            assert!(out.is_ok(), "profiled primitive failed: {:?}", out.err());
            best = best.min(dt);
        }
        // Scale measured time back up: every family is Θ(H·W) in the
        // spatial dimensions for fixed C, K, M.
        best * (self.scale * self.scale) as f64
    }

    /// Wall-clock profiling of non-conv op kernels, matching the conv
    /// methodology: deterministic pseudo-random operands (quantized for
    /// int8 kernels), spatial dims shrunk by `with_scale` and the timing
    /// extrapolated back up (every costed op class is Θ(H·W)), best of
    /// `reps` kept. The single-precision classes both sources treat as
    /// free (see [`pbqp_dnn_graph::OpClass::is_costed`]) stay at zero
    /// here too — none of the costed classes carries `aux` parameters —
    /// so analytic and measured plans decompose the same way.
    fn op_cost(&self, kernel: &dyn OpKernel, spec: &OpSpec) -> f64 {
        let d = kernel.descriptor();
        if !d.class.is_costed() {
            return 0.0;
        }
        let spec = self.scaled_spec(spec);
        let operands: Vec<Tensor> = spec
            .inputs
            .iter()
            .enumerate()
            .map(|(i, &(c, h, w))| {
                let f = Tensor::random(c, h, w, d.input_layout, 0xA11CE ^ i as u64);
                if d.input_dtype == DType::I8 {
                    let mut q = Tensor::empty_dtype(DType::I8);
                    quantize_dynamic_into(&f, &mut q);
                    q
                } else {
                    f
                }
            })
            .collect();
        let refs: Vec<&Tensor> = operands.iter().collect();
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let start = Instant::now();
            let out = kernel.execute(OpInputs::Slice(&refs), None, &spec);
            let dt = start.elapsed().as_secs_f64() * 1e6;
            assert!(out.is_ok(), "profiled op kernel failed: {:?}", out.err());
            best = best.min(dt);
        }
        best * (self.scale * self.scale) as f64
    }

    fn transform_cost(&self, transform: ReprTransform, dims: (usize, usize, usize)) -> f64 {
        let (c, h, w) = dims;
        let (h, w) = ((h / self.scale).max(1), (w / self.scale).max(1));
        let from = transform.from();
        let f32_input = Tensor::random(c, h, w, from.layout, 0xDA7A);
        let input = if from.dtype == DType::I8 {
            let mut q = Tensor::empty_dtype(DType::I8);
            quantize_dynamic_into(&f32_input, &mut q);
            q
        } else {
            f32_input
        };
        let mut dst = Tensor::empty_dtype(transform.to().dtype);
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let start = Instant::now();
            let out = apply_repr_into(&input, transform, &mut dst);
            let dt = start.elapsed().as_secs_f64() * 1e6;
            assert!(out.is_ok(), "transform failed: {:?}", out.err());
            best = best.min(dt);
        }
        best * (self.scale * self.scale) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbqp_dnn_primitives::registry::{full_library, Registry};
    use pbqp_dnn_tensor::transform::DIRECT_TRANSFORMS;

    #[test]
    fn measures_positive_times_and_ranks_obvious_pairs() {
        let reg = Registry::new(full_library());
        // Best-of-6 timings: when the whole workspace test suite runs in
        // parallel, a 2-rep minimum still occasionally catches a
        // descheduled iteration on both samples and inverts the ranking.
        let prof = MeasuredCost::new(1, 6);
        let s = ConvScenario::new(8, 24, 24, 1, 3, 16);
        let naive = prof.layer_cost(reg.by_name("im2col_naive_nn").unwrap().as_ref(), &s);
        let packed = prof.layer_cost(reg.by_name("im2col_packed_nn").unwrap().as_ref(), &s);
        assert!(naive > 0.0 && packed > 0.0);
        // Packed GEMM should never lose to naive GEMM by much; on real
        // hardware it usually wins outright. Allow slack for CI noise.
        assert!(packed < naive * 3.0, "packed {packed} vs naive {naive}");
    }

    #[test]
    fn scaled_profiling_extrapolates() {
        let reg = Registry::new(full_library());
        let prof = MeasuredCost::new(1, 2).with_scale(2);
        let s = ConvScenario::new(4, 32, 32, 1, 3, 8);
        let cost = prof.layer_cost(reg.by_name("sum2d").unwrap().as_ref(), &s);
        assert!(cost > 0.0);
        // Op kernels honour the same spatial downscale — a scale-4 pool
        // profile runs on shrunken tensors (and still prices > 0), with
        // geometry re-derived so the kernel's shape checks hold.
        use pbqp_dnn_graph::{LayerKind, PoolKind};
        let pool = LayerKind::Pool { kind: PoolKind::Max, k: 3, stride: 2, pad: 0 };
        let spec = OpSpec::for_layer(&pool, vec![(8, 64, 64)], (8, 31, 31)).unwrap();
        let quick = MeasuredCost::new(1, 1).with_scale(4);
        let kernel = reg.op_by_name("maxpool_chw").unwrap();
        assert!(quick.op_cost(kernel.as_ref(), &spec) > 0.0);
    }

    #[test]
    fn transform_cost_is_measurable() {
        let prof = MeasuredCost::new(1, 2);
        let t = ReprTransform::Layout(DIRECT_TRANSFORMS[0]);
        assert!(prof.transform_cost(t, (16, 32, 32)) > 0.0);
        // Quantize/dequantize edges are measurable too.
        use pbqp_dnn_tensor::Layout;
        assert!(prof.transform_cost(ReprTransform::Quantize(Layout::Chw), (8, 16, 16)) > 0.0);
        assert!(prof.transform_cost(ReprTransform::Dequantize(Layout::Hwc), (8, 16, 16)) > 0.0);
    }

    #[test]
    fn quantized_primitives_are_profiled_on_quantized_inputs() {
        use pbqp_dnn_primitives::registry::mixed_precision_library;
        let reg = Registry::new(mixed_precision_library());
        let prof = MeasuredCost::new(1, 1);
        let s = ConvScenario::new(4, 12, 12, 1, 3, 4);
        let q = prof.layer_cost(reg.by_name("qint8_im2col_chw").unwrap().as_ref(), &s);
        assert!(q > 0.0);
    }
}
