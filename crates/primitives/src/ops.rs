//! f32 implementations of the non-convolution operators, plus the
//! [`OpKernel`] wrappers the registry exposes as candidate sets.
//!
//! Every operator has **one strided body** that serves all five layouts.
//! A layout is an affine map — `offset = (c / B)·s_cb + c % B + h·s_h +
//! w·s_w`, see [`Strides`] — so a body hoists the strides once per call
//! and then works on the raw storage slices: it produces its output front
//! to back in storage order ([`Strides::axes`], [`Strides::for_each`]),
//! works on whole contiguous runs wherever operand and result share them
//! (ReLU, add, dropout: the whole storage; concat and the LRN window
//! sweeps: channel runs; pooling: runs of same-shaped windows), and
//! zero-fills nothing but a blocked layout's padding lanes. There is no
//! per-element `match` on the layout or the dtype and no per-layout
//! specialisation beside a generic fallback. The registry still registers
//! one kernel per `(class, layout)` pair so each candidate is a concrete
//! `{R_in, P, R_out}` triple the optimizer can price and the legalizer
//! can connect with DT chains; the body is that candidate's
//! implementation.
//!
//! The fully-connected layer is a GEMV on the run-time dispatched
//! [`Microkernel::f32_dot`](pbqp_dnn_gemm::arch::Microkernel::f32_dot):
//! the weight matrix is row-major `out × in`, so every row is already a
//! contiguous stream and is read exactly once. The operand is used in
//! place when its storage order is the logical `(c, h, w)` order and is
//! otherwise gathered once into workspace scratch, so the result is
//! bit-identical across all five input layouts.
//!
//! Every routine writes into a recycled output tensor and takes any
//! scratch from the caller's [`Workspace`] — the zero-allocation path the
//! executor's pooled buffers use. The textbook accessor-based forms live
//! in [`crate::reference`], as the oracle these bodies are tested against.

use pbqp_dnn_gemm::arch;
use pbqp_dnn_graph::{pool_out_dim, OpClass, PoolKind};
use pbqp_dnn_tensor::{Layout, Strides, Tensor};

use crate::op::{check_op_args, OpDescriptor, OpInputs, OpKernel, OpSpec};
use crate::{PrimitiveError, Workspace, WorkspaceReq};

/// Zeroes the padding lanes of a blocked layout's storage — the only part
/// of an output no body writes. A no-op when the channels fill the last
/// block (always, for the permutation layouts).
pub(crate) fn zero_padding_lanes<T: Copy + Default>(data: &mut [T], s: &Strides) {
    let used = s.dims.0 % s.block;
    if used != 0 {
        // The last channel block is the tail of the storage: [H][W][B].
        for lanes in data[s.channel(s.dims.0 - used)..].chunks_exact_mut(s.block) {
            lanes[used..].fill(T::default());
        }
    }
}

/// Rectified linear unit into a recycled tensor: one pass over the
/// storage (padding lanes are zero on both sides).
pub fn relu_into(input: &Tensor, layout: Layout, out: &mut Tensor) {
    debug_assert_eq!(input.layout(), layout);
    let (c, h, w) = input.dims();
    out.reuse_as(c, h, w, layout);
    for (d, &v) in out.data_mut().iter_mut().zip(input.data()) {
        *d = v.max(0.0);
    }
}

/// One pooling reduction: every output is
/// `finish(fold(init, step) over the window's in-bounds taps, tap count)`
/// with the taps in row-major `(i, j)` order — the oracle's — and `empty`
/// when the window has no in-bounds tap.
pub(crate) struct PoolReduce<T, A, S, F> {
    pub(crate) empty: T,
    pub(crate) init: A,
    pub(crate) step: S,
    pub(crate) finish: F,
}

/// The pooling window walker the f32 and int8 pools share.
///
/// The output is produced front to back as *runs*: maximal stretches of
/// storage-adjacent outputs whose windows have the same shape — the
/// channel lanes of one pixel (blocked and channels-last layouts), or the
/// interior of one output row or column (planar layouts; the few border
/// outputs, whose windows are clipped differently, are runs of one). A
/// run's window is clipped to the operand once, so no tap is checked
/// against the image; its outputs are then reduced together, tap by tap,
/// over a small stack accumulator — independent accumulation chains the
/// compiler can vectorize, each in the oracle's tap order.
pub(crate) fn pool_windows<T, A, S, F>(
    (src, src_s): (&[T], &Strides),
    (k, stride, pad): (usize, usize, usize),
    (dst, out_s): (&mut [T], &Strides),
    reduce: PoolReduce<T, A, S, F>,
) where
    T: Copy,
    A: Copy,
    S: Fn(A, T) -> A,
    F: Fn(A, usize) -> T,
{
    const CHUNK: usize = 64;
    let (c, h, w) = src_s.dims;
    // In-bounds part of the window of output index `o` along an axis of
    // `extent` elements: (first element, count).
    let clip = |o: usize, extent: usize| {
        let start = o * stride;
        let lo = start.max(pad) - pad;
        let hi = (start + k).min(extent + pad).saturating_sub(pad);
        (lo, hi.saturating_sub(lo))
    };
    let mut acc = [reduce.init; CHUNK];
    // Reduces the `len` outputs stored from `(c0, y, x)` on, whose windows
    // all have the shape of the first and start `step` elements apart.
    let mut run = |c0: usize, y: usize, x: usize, len: usize, step: usize| {
        let ((y0, rows), (x0, cols)) = (clip(y, h), clip(x, w));
        let out = out_s.offset(c0, y, x);
        if rows * cols == 0 {
            dst[out..out + len].fill(reduce.empty);
            return;
        }
        let first = src_s.offset(c0, y0, x0);
        for at in (0..len).step_by(CHUNK) {
            let acc = &mut acc[..CHUNK.min(len - at)];
            acc.fill(reduce.init);
            for i in 0..rows {
                for j in 0..cols {
                    let taps = &src[first + at * step + i * src_s.h + j * src_s.w..];
                    if step == 1 {
                        for (a, &v) in acc.iter_mut().zip(taps) {
                            *a = (reduce.step)(*a, v);
                        }
                    } else {
                        for (a, &v) in acc.iter_mut().zip(taps.iter().step_by(step)) {
                            *a = (reduce.step)(*a, v);
                        }
                    }
                }
            }
            for (d, &a) in dst[out + at..].iter_mut().zip(acc.iter()) {
                *d = (reduce.finish)(a, rows * cols);
            }
        }
    };

    let [(n0, _, a0), (n1, _, a1), (n2, _, a2)] = out_s.axes();
    let lanes = out_s.block > 1;
    let mut idx = [0usize; 3];
    for i0 in 0..n0 {
        idx[a0] = i0;
        for i1 in 0..n1 {
            idx[a1] = i1;
            if lanes {
                // Blocked: one run per pixel, the lanes of its block.
                for i2 in 0..n2 {
                    idx[a2] = i2;
                    let c0 = idx[0] * out_s.block;
                    run(c0, idx[1], idx[2], out_s.block.min(c - c0), 1);
                }
            } else if a2 == 0 {
                // Channels innermost: one run per pixel, all channels.
                debug_assert_eq!((src_s.cb, out_s.cb), (1, 1));
                run(0, idx[1], idx[2], c, 1);
            } else {
                // A row (or column) of one channel: the windows between
                // `lo` and `hi` are whole along the run.
                let (extent, step) =
                    if a2 == 1 { (h, stride * src_s.h) } else { (w, stride * src_s.w) };
                let lo = pad.div_ceil(stride).min(n2);
                let hi = (extent + pad).checked_sub(k).map_or(0, |d| d / stride + 1).clamp(lo, n2);
                let mut run_at = |i2: usize, len: usize| {
                    idx[a2] = i2;
                    run(idx[0], idx[1], idx[2], len, step);
                };
                (0..lo).for_each(|i2| run_at(i2, 1));
                if hi > lo {
                    run_at(lo, hi - lo);
                }
                (hi..n2).for_each(|i2| run_at(i2, 1));
            }
        }
    }
}

/// Spatial max/average pooling with Caffe's ceil output convention, into
/// a recycled tensor. A window with no in-bounds tap yields `0.0`; the
/// average divides by the in-bounds tap count.
///
/// # Errors
///
/// [`PrimitiveError::ShapeMismatch`] when the window exceeds the padded
/// operand, so the layer has no output.
#[allow(clippy::too_many_arguments)]
pub fn pool_into(
    input: &Tensor,
    layout: Layout,
    kind: PoolKind,
    k: usize,
    stride: usize,
    pad: usize,
    out: &mut Tensor,
) -> Result<(), PrimitiveError> {
    debug_assert_eq!(input.layout(), layout);
    let (c, h, w) = input.dims();
    let window = (k, stride, pad);
    let (oh, ow) = pool_out_dims(h, w, window)?;
    out.reuse_as(c, oh, ow, layout);
    let (src_s, out_s) = (layout.strides(input.dims()), layout.strides((c, oh, ow)));
    let (src, dst) = (input.data(), out.data_mut());
    match kind {
        PoolKind::Max => pool_windows(
            (src, &src_s),
            window,
            (dst, &out_s),
            PoolReduce { empty: 0.0, init: f32::NEG_INFINITY, step: f32::max, finish: |m, _| m },
        ),
        PoolKind::Avg => pool_windows(
            (src, &src_s),
            window,
            (dst, &out_s),
            PoolReduce {
                empty: 0.0,
                init: 0.0f32,
                step: |sum, v| sum + v,
                finish: |sum, taps| sum / taps as f32,
            },
        ),
    }
    zero_padding_lanes(dst, &out_s);
    Ok(())
}

/// Output `(height, width)` of a `(k, stride, pad)` pooling window over an
/// `h × w` plane, or the error the pooling kernels report when none fits.
pub(crate) fn pool_out_dims(
    h: usize,
    w: usize,
    (k, stride, pad): (usize, usize, usize),
) -> Result<(usize, usize), PrimitiveError> {
    pool_out_dim(h, k, stride, pad).zip(pool_out_dim(w, k, stride, pad)).ok_or_else(|| {
        PrimitiveError::ShapeMismatch {
            primitive: "pool".into(),
            detail: format!("{k}x{k}/{stride} window (pad {pad}) exceeds the {h}x{w} operand"),
        }
    })
}

/// Local response normalization across channels (AlexNet/GoogleNet
/// parameters: size 5, α = 1e-4, β = 0.75, k = 1) into a recycled tensor.
///
/// Squares are computed once per element into `ws` scratch (one storage
/// length of f32s); each of the five window taps is then one
/// channel-shifted sweep of run-wise adds into the output, in ascending
/// tap order — per element, the oracle's summation order — and a last
/// storage-wise pass scales the operand. `d^0.75` is
/// `sqrt(d)·sqrt(sqrt(d))` — correctly-rounded IEEE operations, so the
/// result is the same on every ISA and libm.
pub fn lrn_into(input: &Tensor, layout: Layout, ws: &mut Workspace, out: &mut Tensor) {
    const SIZE: usize = 5;
    const ALPHA: f32 = 1e-4;
    const K: f32 = 1.0;
    debug_assert_eq!(input.layout(), layout);
    let (c, h, w) = input.dims();
    out.reuse_as(c, h, w, layout);
    let (src, dst) = (input.data(), out.data_mut());
    let mark = ws.reals.mark();
    let [squares] = ws.reals.take_dirty([src.len()]);
    for (q, &v) in squares.iter_mut().zip(src) {
        *q = v * v;
    }
    // Window energies accumulate in the output. Padding lanes stay 0 and
    // come out as `0 / 1`.
    dst.fill(0.0);
    let half = SIZE / 2;
    for tap in 0..SIZE {
        // Channel `ci` takes the square of channel `ci + tap - half`.
        let (to_c0, from_c0) = (half.saturating_sub(tap), tap.saturating_sub(half));
        let channels = c.saturating_sub(to_c0 + from_c0);
        for_each_channel_run(
            layout,
            (h, w),
            (c, from_c0),
            (c, to_c0),
            channels,
            |from, to, len| {
                for (e, &q) in dst[to..to + len].iter_mut().zip(&squares[from..from + len]) {
                    *e += q;
                }
            },
        );
    }
    for (o, &v) in dst.iter_mut().zip(src) {
        let d = K + ALPHA / SIZE as f32 * *o;
        *o = v / (d.sqrt() * d.sqrt().sqrt());
    }
    ws.reals.release(mark);
}

/// Fully-connected layer into a recycled tensor: flattens logically in
/// `(c, h, w)` order and multiplies by the row-major `out × (c·h·w)`
/// weight matrix, one dispatched
/// [`f32_dot`](pbqp_dnn_gemm::arch::Microkernel::f32_dot) per output row.
///
/// An operand whose storage order is not the logical order is gathered
/// once into `ws` scratch (`c·h·w` f32s), so the result does not depend
/// on the operand's layout.
///
/// # Errors
///
/// [`PrimitiveError::ShapeMismatch`] when `weights` is not
/// `out_n · c·h·w` long.
pub fn fully_connected_into(
    input: &Tensor,
    weights: &[f32],
    out_n: usize,
    layout: Layout,
    ws: &mut Workspace,
    out: &mut Tensor,
) -> Result<(), PrimitiveError> {
    let (c, h, w) = input.dims();
    let in_len = c * h * w;
    if weights.len() != out_n * in_len {
        return Err(PrimitiveError::ShapeMismatch {
            primitive: "fully_connected".into(),
            detail: format!(
                "weight matrix has {} elements, {out_n} x {c}x{h}x{w} needs {}",
                weights.len(),
                out_n * in_len
            ),
        });
    }
    out.reuse_as(out_n, 1, 1, layout);
    // An `N×1×1` result is contiguous in every layout; whatever follows
    // the `out_n` values is a blocked layout's padding.
    let (dst, padding) = out.data_mut().split_at_mut(out_n);
    padding.fill(0.0);
    if in_len == 0 {
        dst.fill(0.0);
        return Ok(());
    }
    let s = input.layout().strides(input.dims());
    let mark = ws.reals.mark();
    let x: &[f32] = if s.is_chw_order() {
        &input.data()[..in_len]
    } else {
        let [gathered] = ws.reals.take_dirty([in_len]);
        let src = input.data();
        s.for_each(|off, ci, y, x| gathered[(ci * h + y) * w + x] = src[off]);
        gathered
    };
    let kernel = arch::active();
    for (o, row) in dst.iter_mut().zip(weights.chunks_exact(in_len)) {
        *o = kernel.f32_dot(x, row);
    }
    ws.reals.release(mark);
    Ok(())
}

/// The channel-run walker behind concat (f32 and int8) and the LRN
/// sweeps. Channels `from_c0..from_c0 + channels` of a `(from_c, h, w)`
/// tensor correspond to channels `to_c0..` of a `(to_c, h, w)` tensor,
/// both in `layout`; `visit(from, to, len)` is called for every maximal
/// run of them that is contiguous in both storages — one per outer index
/// for the permutation layouts (a single run for CHW), one per
/// channel-block overlap for the blocked ones.
pub(crate) fn for_each_channel_run(
    layout: Layout,
    (h, w): (usize, usize),
    (from_c, from_c0): (usize, usize),
    (to_c, to_c0): (usize, usize),
    channels: usize,
    mut visit: impl FnMut(usize, usize, usize),
) {
    if channels * h * w == 0 {
        return;
    }
    let (from, to) = (layout.strides((from_c, h, w)), layout.strides((to_c, h, w)));
    let block = from.block;
    if block == 1 {
        // The channel axis and everything inside it (`cb` does not depend
        // on the channel count) is contiguous on both sides.
        let cb = from.cb;
        for outer in 0..h * w / cb {
            visit((outer * from_c + from_c0) * cb, (outer * to_c + to_c0) * cb, channels * cb);
        }
        return;
    }
    let mut c = 0;
    while c < channels {
        // Channels `c..c + lanes` share one block on each side.
        let (cf, ct) = (from_c0 + c, to_c0 + c);
        let lanes = (block - cf % block).min(block - ct % block).min(channels - c);
        if lanes == block {
            // Aligned whole blocks: the pixels' lanes are adjacent too.
            visit(from.channel(cf), to.channel(ct), h * w * block);
        } else {
            for pixel in 0..h * w {
                visit(from.channel(cf) + pixel * block, to.channel(ct) + pixel * block, lanes);
            }
        }
        c += lanes;
    }
}

/// Channel concatenation of same-spatial-size tensors (all in `layout`)
/// into a recycled tensor, by contiguous-run copies.
pub fn concat_into(inputs: OpInputs<'_>, layout: Layout, out: &mut Tensor) {
    let (_, h, w) = inputs.at(0).dims();
    let c_total: usize = (0..inputs.len()).map(|i| inputs.at(i).channels()).sum();
    out.reuse_as(c_total, h, w, layout);
    let dst = out.data_mut();
    let mut c_base = 0;
    for i in 0..inputs.len() {
        let t = inputs.at(i);
        debug_assert_eq!((t.layout(), t.height(), t.width()), (layout, h, w));
        let src = t.data();
        let (tc, _, _) = t.dims();
        for_each_channel_run(layout, (h, w), (tc, 0), (c_total, c_base), tc, |from, to, len| {
            dst[to..to + len].copy_from_slice(&src[from..from + len]);
        });
        c_base += t.channels();
    }
    zero_padding_lanes(dst, &layout.strides((c_total, h, w)));
}

/// Elementwise sum of same-shape tensors (the residual merge) into a
/// recycled tensor. All operands share one layout and shape, so their
/// storage orders agree element for element (blocked padding lanes are
/// zero on both sides), and the sum runs storage-wise: seed from operand
/// 0, accumulate the rest in operand order.
pub fn add_into(inputs: OpInputs<'_>, out: &mut Tensor) {
    debug_assert!(inputs.len() > 0);
    out.assign_from(inputs.at(0));
    let acc = out.data_mut();
    for i in 1..inputs.len() {
        debug_assert_eq!(inputs.at(i).repr(), inputs.at(0).repr());
        for (a, &v) in acc.iter_mut().zip(inputs.at(i).data()) {
            *a += v;
        }
    }
}

/// Numerically-stable softmax over the flattened tensor into a recycled
/// tensor. The normaliser is summed in logical `(c, h, w)` order, so the
/// result does not depend on the layout.
pub fn softmax_into(input: &Tensor, layout: Layout, out: &mut Tensor) {
    debug_assert_eq!(input.layout(), layout);
    let (c, h, w) = input.dims();
    out.reuse_as(c, h, w, layout);
    let s = layout.strides(input.dims());
    let (src, dst) = (input.data(), out.data_mut());
    // Padding lanes are zero, which must not win the max.
    let mut max = f32::NEG_INFINITY;
    s.for_each(|off, _, _, _| max = max.max(src[off]));
    zero_padding_lanes(dst, &s);
    let mut total = 0.0f32;
    for ci in 0..c {
        for y in 0..h {
            for x in 0..w {
                let off = s.offset(ci, y, x);
                dst[off] = (src[off] - max).exp();
                total += dst[off];
            }
        }
    }
    for v in dst.iter_mut() {
        *v /= total;
    }
}

// ---------------------------------------------------------------------
// The f32 kernels.
// ---------------------------------------------------------------------

/// One f32 op kernel: the `(class, layout)` instantiation of the strided
/// bodies above.
pub(crate) struct GenericF32Op {
    desc: OpDescriptor,
}

impl GenericF32Op {
    pub(crate) fn new(class: OpClass, layout: Layout) -> GenericF32Op {
        let name = format!("{}_{}", class.name(), layout.name().to_ascii_lowercase());
        GenericF32Op { desc: OpDescriptor::new(name, class, layout) }
    }
}

impl OpKernel for GenericF32Op {
    fn descriptor(&self) -> &OpDescriptor {
        &self.desc
    }

    fn workspace_req(&self, spec: &OpSpec) -> WorkspaceReq {
        let layout = self.desc.input_layout;
        let Some(&(c, h, w)) = spec.inputs.first() else { return WorkspaceReq::ZERO };
        match self.desc.class {
            // The squares of every stored element.
            OpClass::Lrn => WorkspaceReq::f32s(layout.storage_len(c, h, w)),
            // The gathered operand, unless it can be used in place.
            OpClass::FullyConnected if !layout.strides((c, h, w)).is_chw_order() => {
                WorkspaceReq::f32s(c * h * w)
            }
            _ => WorkspaceReq::ZERO,
        }
    }

    fn execute_into(
        &self,
        inputs: OpInputs<'_>,
        aux: Option<&[f32]>,
        spec: &OpSpec,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_op_args(&self.desc, self.supports(spec), &inputs, spec)?;
        let layout = self.desc.output_layout;
        match self.desc.class {
            OpClass::Relu => relu_into(inputs.at(0), layout, out),
            OpClass::MaxPool | OpClass::AvgPool => {
                let kind =
                    if self.desc.class == OpClass::MaxPool { PoolKind::Max } else { PoolKind::Avg };
                let (k, stride, pad) = spec.window;
                pool_into(inputs.at(0), layout, kind, k, stride, pad, out)?;
            }
            OpClass::Lrn => lrn_into(inputs.at(0), layout, ws, out),
            OpClass::Dropout => out.assign_from(inputs.at(0)),
            OpClass::FullyConnected => {
                let weights = aux.ok_or_else(|| PrimitiveError::UnsupportedOp {
                    kernel: self.desc.name.clone(),
                    detail: "fully-connected kernel needs aux weights".into(),
                })?;
                let (out_n, _, _) = spec.out;
                fully_connected_into(inputs.at(0), weights, out_n, layout, ws, out)?;
            }
            OpClass::Concat => concat_into(inputs, layout, out),
            OpClass::Add => add_into(inputs, out),
            OpClass::Softmax => softmax_into(inputs.at(0), layout, out),
        }
        Ok(())
    }
}

/// The full f32 op-kernel inventory: one kernel per `(class, layout)`
/// pair — the same candidate space the paper's dummy nodes offered (any
/// layout), now as concrete priced candidates.
pub(crate) fn all_f32() -> Vec<Box<dyn OpKernel>> {
    let mut out: Vec<Box<dyn OpKernel>> = Vec::new();
    for class in OpClass::ALL {
        for layout in Layout::ALL {
            out.push(Box::new(GenericF32Op::new(class, layout)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn relu(input: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        relu_into(input, input.layout(), &mut out);
        out
    }

    fn pool(input: &Tensor, kind: PoolKind, k: usize, stride: usize, pad: usize) -> Tensor {
        let mut out = Tensor::empty();
        pool_into(input, input.layout(), kind, k, stride, pad, &mut out).unwrap();
        out
    }

    fn add(inputs: &[&Tensor]) -> Tensor {
        let mut out = Tensor::empty();
        add_into(OpInputs::Slice(inputs), &mut out);
        out
    }

    fn softmax(input: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        softmax_into(input, input.layout(), &mut out);
        out
    }

    fn lrn(input: &Tensor) -> Tensor {
        let mut out = Tensor::empty();
        lrn_into(input, input.layout(), &mut Workspace::new(), &mut out);
        out
    }

    #[test]
    fn relu_clamps_negatives_in_any_layout() {
        for &layout in &[Layout::Chw, Layout::Hwc, Layout::Chw4] {
            let t = Tensor::from_fn(3, 2, 2, layout, |c, h, w| (c + h + w) as f32 - 2.0);
            let r = relu(&t);
            for c in 0..3 {
                for h in 0..2 {
                    for w in 0..2 {
                        assert_eq!(r.at(c, h, w), ((c + h + w) as f32 - 2.0).max(0.0));
                    }
                }
            }
        }
    }

    #[test]
    fn max_pool_matches_hand_computation() {
        // 1x4x4 ramp, 2x2/2 max pool -> corners of each quadrant.
        let t = Tensor::from_fn(1, 4, 4, Layout::Chw, |_, h, w| (h * 4 + w) as f32);
        let p = pool(&t, PoolKind::Max, 2, 2, 0);
        assert_eq!(p.dims(), (1, 2, 2));
        assert_eq!(p.at(0, 0, 0), 5.0);
        assert_eq!(p.at(0, 1, 1), 15.0);
    }

    #[test]
    fn avg_pool_divides_by_the_actual_window() {
        let t = Tensor::from_fn(1, 2, 2, Layout::Chw, |_, _, _| 4.0);
        // 3x3/1 pad 1: corner windows see 4 valid elements.
        let p = pool(&t, PoolKind::Avg, 3, 1, 1);
        assert_eq!(p.at(0, 0, 0), 4.0);
    }

    #[test]
    fn pool_window_larger_than_the_operand_is_a_typed_error() {
        let t = Tensor::random(2, 5, 5, Layout::Chw, 1);
        let err =
            pool_into(&t, Layout::Chw, PoolKind::Max, 7, 1, 0, &mut Tensor::empty()).unwrap_err();
        assert!(matches!(err, PrimitiveError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let t = Tensor::random(10, 1, 1, Layout::Chw, 3);
        let s = softmax(&t);
        let total: f32 = (0..10).map(|c| s.at(c, 0, 0)).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_fn(1, 2, 2, Layout::Chw, |_, _, _| 1.0);
        let b = Tensor::from_fn(2, 2, 2, Layout::Chw, |_, _, _| 2.0);
        let mut cat = Tensor::empty();
        concat_into(OpInputs::Slice(&[&a, &b]), Layout::Chw, &mut cat);
        assert_eq!(cat.dims(), (3, 2, 2));
        assert_eq!(cat.at(0, 0, 0), 1.0);
        assert_eq!(cat.at(2, 1, 1), 2.0);
    }

    #[test]
    fn add_sums_elementwise_in_any_layout() {
        for &layout in &[Layout::Chw, Layout::Hwc, Layout::Chw4] {
            let a = Tensor::from_fn(3, 2, 2, layout, |c, h, w| (c + h + w) as f32);
            let b = Tensor::from_fn(3, 2, 2, layout, |c, _, _| c as f32);
            let s = add(&[&a, &b]);
            for c in 0..3 {
                for h in 0..2 {
                    for w in 0..2 {
                        assert_eq!(s.at(c, h, w), (2 * c + h + w) as f32, "{layout}");
                    }
                }
            }
        }
    }

    #[test]
    fn fc_computes_a_dot_product() {
        let t = Tensor::from_fn(2, 1, 2, Layout::Chw, |c, _, w| (c * 2 + w) as f32);
        // weights: one output neuron, all ones -> sum of inputs = 0+1+2+3.
        let mut out = Tensor::empty();
        fully_connected_into(&t, &[1.0; 4], 1, Layout::Chw, &mut Workspace::new(), &mut out)
            .unwrap();
        assert_eq!(out.at(0, 0, 0), 6.0);
    }

    #[test]
    fn fc_rejects_a_short_weight_matrix() {
        let t = Tensor::random(2, 3, 3, Layout::Hwc, 1);
        let err = fully_connected_into(
            &t,
            &[0.5; 4 * 18 - 1],
            4,
            Layout::Chw,
            &mut Workspace::new(),
            &mut Tensor::empty(),
        )
        .unwrap_err();
        assert!(matches!(err, PrimitiveError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn lrn_preserves_shape_and_shrinks_magnitudes() {
        let t = Tensor::random(8, 3, 3, Layout::Chw, 5);
        let n = lrn(&t);
        assert_eq!(n.dims(), t.dims());
        for c in 0..8 {
            assert!(n.at(c, 1, 1).abs() <= t.at(c, 1, 1).abs() + 1e-6);
        }
    }

    #[test]
    fn into_variants_overwrite_dirty_recycled_tensors() {
        let input = Tensor::random(4, 5, 5, Layout::Chw, 7);
        let mut dirty = Tensor::empty();
        dirty.reuse_as(9, 9, 9, Layout::Hwc);
        dirty.data_mut().fill(f32::NAN);
        relu_into(&input, Layout::Chw, &mut dirty);
        assert_eq!(dirty.data(), reference::relu_reference(&input).data());
        dirty.data_mut().fill(f32::NAN);
        // Shape mismatch on entry is fine — reuse_as re-shapes.
        pool_into(&input, Layout::Chw, PoolKind::Max, 2, 2, 0, &mut dirty).unwrap();
        assert_eq!(dirty.data(), reference::pool_reference(&input, PoolKind::Max, 2, 2, 0).data());
        softmax_into(&input, Layout::Chw, &mut dirty);
        assert_eq!(dirty.data(), reference::softmax_reference(&input).data());
        dirty.data_mut().fill(f32::NAN);
        lrn_into(&input, Layout::Chw, &mut Workspace::new(), &mut dirty);
        assert!(dirty.allclose(&reference::lrn_reference(&input), 1e-6).unwrap());
        let other = Tensor::random(4, 5, 5, Layout::Chw, 8);
        add_into(OpInputs::Slice(&[&input, &other]), &mut dirty);
        assert_eq!(dirty.data(), reference::add_reference(&[&input, &other]).data());
    }

    #[test]
    fn generic_kernels_cover_every_class_and_layout() {
        use pbqp_dnn_graph::LayerKind;
        let kernels = all_f32();
        assert_eq!(kernels.len(), OpClass::ALL.len() * Layout::ALL.len());
        // A kernel executes its class: spot-check relu via the trait.
        let relu_hwc = kernels
            .iter()
            .find(|k| {
                k.descriptor().class == OpClass::Relu && k.descriptor().input_layout == Layout::Hwc
            })
            .unwrap();
        let spec = OpSpec::for_layer(&LayerKind::Relu, vec![(2, 3, 3)], (2, 3, 3)).unwrap();
        let t = Tensor::from_fn(2, 3, 3, Layout::Hwc, |c, h, w| (c + h + w) as f32 - 3.0);
        let operands = [&t];
        let got = relu_hwc.execute(OpInputs::Slice(&operands), None, &spec).unwrap();
        assert_eq!(got.data(), relu(&t).data());
        // Wrong-layout operands are rejected, not silently misread.
        let bad = Tensor::random(2, 3, 3, Layout::Chw, 1);
        let operands = [&bad];
        let err = relu_hwc.execute(OpInputs::Slice(&operands), None, &spec).unwrap_err();
        assert!(matches!(err, PrimitiveError::WrongInputLayout { .. }));
    }
}
