//! The sum-of-single-channels reference convolution (`SUM2D`) and the
//! textbook oracles of the non-convolution operators.
//!
//! `SUM2D` is the paper's common baseline: the textbook loop nest with
//! order `M × C × H × W × K × K`, summing one single-channel 2-D
//! convolution per input channel. It doubles as the correctness oracle
//! every other primitive is validated against.
//!
//! The `*_reference` operator functions are the same idea for ReLU,
//! pooling, LRN, fully-connected, concat, add and softmax: loops over
//! logical `(c, h, w)` coordinates through [`Tensor::at`] /
//! [`Tensor::set`], slow by design and written once, so the strided
//! kernels in [`crate::ops`] (and the int8 ones) are checked against an
//! answer computed another way. `reference_forward` in the runtime crate
//! is built from them.

use pbqp_dnn_graph::{pool_out_dim, ConvScenario, PoolKind};
use pbqp_dnn_tensor::{KernelTensor, Layout, Tensor};

use crate::algorithm::check_args;
use crate::util::{padded_at, par_chunks_mut};
use crate::{ConvAlgorithm, Family, PrimitiveDescriptor, PrimitiveError, Workspace};

/// Layout-agnostic reference convolution producing CHW output.
///
/// Reads through logical accessors, so `input` may be in any layout. Slow
/// by design; used as the oracle in tests and by the runtime's verifier.
pub fn sum2d_reference(input: &Tensor, kernel: &KernelTensor, s: &ConvScenario) -> Tensor {
    let (oh, ow) = (s.out_h(), s.out_w());
    let mut out = Tensor::zeros(s.m, oh, ow, Layout::Chw);
    for m in 0..s.m {
        for c in 0..s.c {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = out.at(m, y, x);
                    for i in 0..s.k {
                        for j in 0..s.k {
                            let iy = (y * s.stride + i) as isize - s.pad as isize;
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                        }
                    }
                    out.set(m, y, x, acc);
                }
            }
        }
    }
    out
}

/// Oracle ReLU, in the operand's layout.
pub fn relu_reference(input: &Tensor) -> Tensor {
    let (c, h, w) = input.dims();
    Tensor::from_fn(c, h, w, input.layout(), |ci, y, x| input.at(ci, y, x).max(0.0))
}

/// Oracle max/average pooling with Caffe's ceil output convention, in
/// the operand's layout. A window with no in-bounds tap yields `0.0`;
/// the average divides by the in-bounds tap count.
///
/// # Panics
///
/// Panics if the window exceeds the padded input (no output exists).
pub fn pool_reference(
    input: &Tensor,
    kind: PoolKind,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (c, h, w) = input.dims();
    let oh = pool_out_dim(h, k, stride, pad).expect("pool window fits the padded input");
    let ow = pool_out_dim(w, k, stride, pad).expect("pool window fits the padded input");
    Tensor::from_fn(c, oh, ow, input.layout(), |ci, y, x| {
        let mut best = f32::NEG_INFINITY;
        let mut sum = 0.0f32;
        let mut count = 0usize;
        for i in 0..k {
            for j in 0..k {
                let iy = (y * stride + i) as isize - pad as isize;
                let ix = (x * stride + j) as isize - pad as isize;
                if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                    continue;
                }
                let v = input.at(ci, iy as usize, ix as usize);
                best = best.max(v);
                sum += v;
                count += 1;
            }
        }
        match (count, kind) {
            (0, _) => 0.0,
            (_, PoolKind::Max) => best,
            (_, PoolKind::Avg) => sum / count as f32,
        }
    })
}

/// Oracle local response normalization across channels (AlexNet /
/// GoogleNet parameters: size 5, α = 1e-4, β = 0.75, k = 1), in the
/// operand's layout.
pub fn lrn_reference(input: &Tensor) -> Tensor {
    const SIZE: usize = 5;
    const ALPHA: f32 = 1e-4;
    const BETA: f32 = 0.75;
    const K: f32 = 1.0;
    let (c, h, w) = input.dims();
    let half = SIZE / 2;
    Tensor::from_fn(c, h, w, input.layout(), |ci, y, x| {
        let lo = ci.saturating_sub(half);
        let hi = (ci + half).min(c - 1);
        let mut energy = 0.0f32;
        for cj in lo..=hi {
            let v = input.at(cj, y, x);
            energy += v * v;
        }
        input.at(ci, y, x) / (K + ALPHA / SIZE as f32 * energy).powf(BETA)
    })
}

/// Oracle fully-connected layer: flattens logically in `(c, h, w)` order
/// and multiplies by the row-major `out × (c·h·w)` weight matrix with one
/// sequential accumulator per row, producing `out × 1 × 1` in `layout`.
pub fn fully_connected_reference(
    input: &Tensor,
    weights: &[f32],
    out_n: usize,
    layout: Layout,
) -> Tensor {
    let (c, h, w) = input.dims();
    let in_len = c * h * w;
    assert_eq!(weights.len(), out_n * in_len, "weight matrix is not out x (c*h*w)");
    Tensor::from_fn(out_n, 1, 1, layout, |o, _, _| {
        let row = &weights[o * in_len..(o + 1) * in_len];
        let mut acc = 0.0f32;
        let mut ix = 0;
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    acc += input.at(ci, y, x) * row[ix];
                    ix += 1;
                }
            }
        }
        acc
    })
}

/// Oracle channel concatenation of same-spatial-size tensors (each in any
/// layout), produced in `layout`.
pub fn concat_reference(inputs: &[&Tensor], layout: Layout) -> Tensor {
    let (_, h, w) = inputs[0].dims();
    let c_total: usize = inputs.iter().map(|t| t.channels()).sum();
    let mut out = Tensor::zeros(c_total, h, w, layout);
    let mut c_base = 0;
    for t in inputs {
        assert_eq!((t.height(), t.width()), (h, w), "concat inputs must agree spatially");
        for ci in 0..t.channels() {
            for y in 0..h {
                for x in 0..w {
                    out.set(c_base + ci, y, x, t.at(ci, y, x));
                }
            }
        }
        c_base += t.channels();
    }
    out
}

/// Oracle elementwise sum of same-shape tensors (the residual merge), in
/// the first operand's layout, accumulated in operand order.
pub fn add_reference(inputs: &[&Tensor]) -> Tensor {
    let (c, h, w) = inputs[0].dims();
    Tensor::from_fn(c, h, w, inputs[0].layout(), |ci, y, x| {
        let mut acc = inputs[0].at(ci, y, x);
        for t in &inputs[1..] {
            acc += t.at(ci, y, x);
        }
        acc
    })
}

/// Oracle numerically-stable softmax over the flattened tensor (summed in
/// logical `(c, h, w)` order), in the operand's layout.
pub fn softmax_reference(input: &Tensor) -> Tensor {
    let (c, h, w) = input.dims();
    let mut max = f32::NEG_INFINITY;
    let mut total = 0.0f32;
    // Two passes over the logical elements: the maximum, then the
    // normaliser.
    for normaliser in [false, true] {
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let v = input.at(ci, y, x);
                    if normaliser {
                        total += (v - max).exp();
                    } else {
                        max = max.max(v);
                    }
                }
            }
        }
    }
    Tensor::from_fn(c, h, w, input.layout(), |ci, y, x| (input.at(ci, y, x) - max).exp() / total)
}

/// The `SUM2D` primitive: `{CHW, sum2d, CHW}`.
#[derive(Debug)]
pub struct Sum2d {
    desc: PrimitiveDescriptor,
}

impl Sum2d {
    /// Creates the baseline primitive.
    pub fn new() -> Sum2d {
        Sum2d { desc: PrimitiveDescriptor::new("sum2d", Family::Sum2d, Layout::Chw, Layout::Chw) }
    }
}

impl Default for Sum2d {
    fn default() -> Self {
        Sum2d::new()
    }
}

impl ConvAlgorithm for Sum2d {
    fn descriptor(&self) -> &PrimitiveDescriptor {
        &self.desc
    }

    fn supports(&self, _scenario: &ConvScenario) -> bool {
        true
    }

    fn workspace_elems(&self, _scenario: &ConvScenario) -> usize {
        0
    }

    fn execute_into(
        &self,
        input: &Tensor,
        kernel: &KernelTensor,
        s: &ConvScenario,
        threads: usize,
        _ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_args(&self.desc, true, input, kernel, s)?;
        let (oh, ow) = (s.out_h(), s.out_w());
        out.reuse_as(s.m, oh, ow, Layout::Chw);
        // The loop nest accumulates into the output in place.
        out.data_mut().fill(0.0);
        let plane = oh * ow;
        par_chunks_mut(out.data_mut(), plane, threads, |m, out_plane| {
            for c in 0..s.c {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = out_plane[y * ow + x];
                        for i in 0..s.k {
                            for j in 0..s.k {
                                let iy = (y * s.stride + i) as isize - s.pad as isize;
                                let ix = (x * s.stride + j) as isize - s.pad as isize;
                                acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                            }
                        }
                        out_plane[y * ow + x] = acc;
                    }
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_matches_reference_and_threads_agree() {
        let s = ConvScenario::new(3, 9, 8, 1, 3, 4);
        let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 1);
        let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 2);
        let prim = Sum2d::new();
        let single = prim.execute(&input, &kernel, &s, 1).unwrap();
        let multi = prim.execute(&input, &kernel, &s, 3).unwrap();
        let oracle = sum2d_reference(&input, &kernel, &s);
        assert!(single.allclose(&oracle, 1e-5).unwrap());
        assert_eq!(single.data(), multi.data());
    }

    #[test]
    fn strided_padded_scenarios() {
        for s in [
            ConvScenario::new(2, 11, 11, 4, 11, 3).with_pad(0),
            ConvScenario::new(4, 13, 13, 2, 5, 2),
            ConvScenario::new(1, 6, 6, 1, 1, 2).with_pad(0),
        ] {
            let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 7);
            let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 8);
            let got = Sum2d::new().execute(&input, &kernel, &s, 2).unwrap();
            let want = sum2d_reference(&input, &kernel, &s);
            assert!(got.allclose(&want, 1e-5).unwrap(), "{s}");
        }
    }

    #[test]
    fn rejects_wrong_layout() {
        let s = ConvScenario::new(2, 4, 4, 1, 3, 2);
        let input = Tensor::zeros(2, 4, 4, Layout::Hwc);
        let kernel = KernelTensor::zeros(2, 2, 3, 3);
        let err = Sum2d::new().execute(&input, &kernel, &s, 1).unwrap_err();
        assert!(matches!(err, PrimitiveError::WrongInputLayout { .. }));
    }

    #[test]
    fn rejects_wrong_kernel_shape() {
        let s = ConvScenario::new(2, 4, 4, 1, 3, 2);
        let input = Tensor::zeros(2, 4, 4, Layout::Chw);
        let kernel = KernelTensor::zeros(2, 2, 5, 5);
        let err = Sum2d::new().execute(&input, &kernel, &s, 1).unwrap_err();
        assert!(matches!(err, PrimitiveError::ShapeMismatch { .. }));
    }
}
