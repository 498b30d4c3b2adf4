//! The direct-loop convolution family: six-deep loop nests with different
//! orders, tilings, unrollings and channel-blocked vectorized variants
//! (§4 of the paper).

use pbqp_dnn_graph::ConvScenario;
use pbqp_dnn_tensor::{KernelTensor, Layout, Tensor};

use crate::algorithm::check_args;
use crate::util::{padded_at, par_chunks_mut, par_chunks_scratch};
use crate::{ConvAlgorithm, Family, PrimitiveDescriptor, PrimitiveError, Workspace, WorkspaceReq};

/// Loop-nest flavour of a [`DirectConv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirectVariant {
    /// `M, H, W, C, K, K` over planar CHW (output-pixel stationary).
    Mhwckk,
    /// `C, M, H, W, K, K` over planar CHW (input-channel stationary).
    Cmhwkk,
    /// `M, H, W, K, K, C` over interleaved HWC (channel-innermost).
    MhwkkcHwc,
    /// `H, W, K, K, C, M` over HWC with a per-pixel M accumulator.
    HwkkcmHwc,
    /// `M, H, C, W, K, K` over HCW.
    MhcwHcw,
    /// `Mhwckk` with square spatial tiling of the given width.
    Tiled(usize),
    /// `Mhwckk` with the `kw` loop unrolled by 4.
    Unroll4,
    /// Channel-blocked CHWc4 kernel, 4 output lanes per iteration.
    Blocked4,
    /// Channel-blocked CHWc8 kernel, 8 output lanes per iteration.
    Blocked8,
    /// Strided-only specialization with hoisted base offsets.
    Strided,
    /// Reads CHW, fuses the layout transform by writing HWC directly.
    FusedChwHwc,
    /// HWC with an 8-wide channel-chunked inner accumulator.
    HwcVec8,
}

/// One member of the direct-loop family.
pub(crate) struct DirectConv {
    desc: PrimitiveDescriptor,
    variant: DirectVariant,
}

impl DirectConv {
    pub(crate) fn new(name: &str, variant: DirectVariant) -> DirectConv {
        use DirectVariant::*;
        let (lin, lout, vf) = match variant {
            Mhwckk | Cmhwkk | Tiled(_) | Unroll4 | Strided => (Layout::Chw, Layout::Chw, 1),
            MhwkkcHwc | HwkkcmHwc => (Layout::Hwc, Layout::Hwc, 1),
            MhcwHcw => (Layout::Hcw, Layout::Hcw, 1),
            Blocked4 => (Layout::Chw4, Layout::Chw4, 4),
            Blocked8 => (Layout::Chw8, Layout::Chw8, 8),
            FusedChwHwc => (Layout::Chw, Layout::Hwc, 1),
            HwcVec8 => (Layout::Hwc, Layout::Hwc, 8),
        };
        let quality = match variant {
            Mhwckk => 0.30,
            Cmhwkk => 0.27,
            MhwkkcHwc => 0.32,
            HwkkcmHwc => 0.28,
            MhcwHcw => 0.26,
            Tiled(8) => 0.34,
            Tiled(16) => 0.36,
            Tiled(_) => 0.34,
            Unroll4 => 0.33,
            // Blocked variants run on vector lanes; quality is per-lane.
            Blocked4 | Blocked8 => 0.40,
            Strided => 0.42,
            FusedChwHwc => 0.29,
            HwcVec8 => 0.35,
        };
        DirectConv {
            desc: PrimitiveDescriptor::new(name, Family::Direct, lin, lout)
                .with_vector_factor(vf)
                .with_hint(crate::AlgoHint::Loops { quality }),
            variant,
        }
    }
}

impl ConvAlgorithm for DirectConv {
    fn descriptor(&self) -> &PrimitiveDescriptor {
        &self.desc
    }

    fn supports(&self, s: &ConvScenario) -> bool {
        match self.variant {
            DirectVariant::Strided => s.stride > 1,
            _ => true,
        }
    }

    fn workspace_elems(&self, s: &ConvScenario) -> usize {
        match self.variant {
            DirectVariant::HwkkcmHwc => s.m,
            DirectVariant::HwcVec8 => 8,
            _ => 0,
        }
    }

    fn workspace_req(&self, s: &ConvScenario) -> WorkspaceReq {
        match self.variant {
            DirectVariant::HwkkcmHwc => WorkspaceReq::f32s(s.m),
            DirectVariant::Blocked4 => WorkspaceReq::f32s(4),
            DirectVariant::Blocked8 => WorkspaceReq::f32s(8),
            _ => WorkspaceReq::ZERO,
        }
    }

    fn execute_into(
        &self,
        input: &Tensor,
        kernel: &KernelTensor,
        s: &ConvScenario,
        threads: usize,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_args(&self.desc, self.supports(s), input, kernel, s)?;
        out.reuse_as(s.m, s.out_h(), s.out_w(), self.desc.output_layout);
        // Several loop orders accumulate into the output in place.
        out.data_mut().fill(0.0);
        match self.variant {
            DirectVariant::Mhwckk => mhwckk(input, kernel, s, threads, out),
            DirectVariant::Cmhwkk => cmhwkk(input, kernel, s, threads, out),
            DirectVariant::MhwkkcHwc => mhwkkc_hwc(input, kernel, s, out),
            DirectVariant::HwkkcmHwc => hwkkcm_hwc(input, kernel, s, ws, out),
            DirectVariant::MhcwHcw => mhcw_hcw(input, kernel, s, out),
            DirectVariant::Tiled(t) => tiled(input, kernel, s, threads, t, out),
            DirectVariant::Unroll4 => unroll4(input, kernel, s, threads, out),
            DirectVariant::Blocked4 | DirectVariant::Blocked8 => {
                blocked(input, kernel, s, threads, ws, out)
            }
            DirectVariant::Strided => strided(input, kernel, s, threads, out),
            DirectVariant::FusedChwHwc => fused_chw_hwc(input, kernel, s, out),
            DirectVariant::HwcVec8 => hwc_vec8(input, kernel, s, out),
        }
        Ok(())
    }
}

fn mhwckk(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    par_chunks_mut(out.data_mut(), oh * ow, threads, |m, plane| {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0.0f32;
                for c in 0..s.c {
                    for i in 0..s.k {
                        let iy = (y * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                        }
                    }
                }
                plane[y * ow + x] = acc;
            }
        }
    });
}

fn cmhwkk(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    // Input-channel stationary: each worker owns a range of output planes
    // and walks channels outermost within it, maximizing kernel-row reuse.
    par_chunks_mut(out.data_mut(), oh * ow, threads, |m, plane| {
        for c in 0..s.c {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = plane[y * ow + x];
                    for i in 0..s.k {
                        let iy = (y * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                        }
                    }
                    plane[y * ow + x] = acc;
                }
            }
        }
    });
}

fn mhwkkc_hwc(input: &Tensor, kernel: &KernelTensor, s: &ConvScenario, out: &mut Tensor) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let (_, h, w) = input.dims();
    let src = input.data();
    for m in 0..s.m {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = 0.0f32;
                for i in 0..s.k {
                    let iy = (y * s.stride + i) as isize - s.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for j in 0..s.k {
                        let ix = (x * s.stride + j) as isize - s.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        // Contiguous channel run in HWC.
                        let base = (iy as usize * w + ix as usize) * s.c;
                        let pix = &src[base..base + s.c];
                        for (c, &v) in pix.iter().enumerate() {
                            acc += v * kernel.at(m, c, i, j);
                        }
                    }
                }
                out.set(m, y, x, acc);
            }
        }
    }
}

fn hwkkcm_hwc(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    ws: &mut Workspace,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let (_, h, w) = input.dims();
    let src = input.data();
    let mark = ws.reals.mark();
    let [acc] = ws.reals.take([s.m]);
    for y in 0..oh {
        for x in 0..ow {
            acc.fill(0.0);
            for i in 0..s.k {
                let iy = (y * s.stride + i) as isize - s.pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for j in 0..s.k {
                    let ix = (x * s.stride + j) as isize - s.pad as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let base = (iy as usize * w + ix as usize) * s.c;
                    for c in 0..s.c {
                        let v = src[base + c];
                        for (m, slot) in acc.iter_mut().enumerate() {
                            *slot += v * kernel.at(m, c, i, j);
                        }
                    }
                }
            }
            for (m, &v) in acc.iter().enumerate() {
                out.set(m, y, x, v);
            }
        }
    }
    ws.reals.release(mark);
}

fn mhcw_hcw(input: &Tensor, kernel: &KernelTensor, s: &ConvScenario, out: &mut Tensor) {
    let (oh, ow) = (s.out_h(), s.out_w());
    for m in 0..s.m {
        for y in 0..oh {
            for c in 0..s.c {
                for x in 0..ow {
                    let mut acc = out.at(m, y, x);
                    for i in 0..s.k {
                        let iy = (y * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                        }
                    }
                    out.set(m, y, x, acc);
                }
            }
        }
    }
}

fn tiled(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    tile: usize,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    par_chunks_mut(out.data_mut(), oh * ow, threads, |m, plane| {
        for y0 in (0..oh).step_by(tile) {
            for x0 in (0..ow).step_by(tile) {
                let y1 = (y0 + tile).min(oh);
                let x1 = (x0 + tile).min(ow);
                for c in 0..s.c {
                    for y in y0..y1 {
                        for x in x0..x1 {
                            let mut acc = plane[y * ow + x];
                            for i in 0..s.k {
                                let iy = (y * s.stride + i) as isize - s.pad as isize;
                                for j in 0..s.k {
                                    let ix = (x * s.stride + j) as isize - s.pad as isize;
                                    acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                                }
                            }
                            plane[y * ow + x] = acc;
                        }
                    }
                }
            }
        }
    });
}

fn unroll4(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let k4 = s.k / 4 * 4;
    par_chunks_mut(out.data_mut(), oh * ow, threads, |m, plane| {
        for y in 0..oh {
            for x in 0..ow {
                let mut a0 = 0.0f32;
                let mut a1 = 0.0f32;
                let mut a2 = 0.0f32;
                let mut a3 = 0.0f32;
                for c in 0..s.c {
                    for i in 0..s.k {
                        let iy = (y * s.stride + i) as isize - s.pad as isize;
                        let mut j = 0;
                        while j < k4 {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            a0 += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                            a1 += padded_at(input, c, iy, ix + 1) * kernel.at(m, c, i, j + 1);
                            a2 += padded_at(input, c, iy, ix + 2) * kernel.at(m, c, i, j + 2);
                            a3 += padded_at(input, c, iy, ix + 3) * kernel.at(m, c, i, j + 3);
                            j += 4;
                        }
                        while j < s.k {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            a0 += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                            j += 1;
                        }
                    }
                }
                plane[y * ow + x] = ((a0 + a1) + a2) + a3;
            }
        }
    });
}

fn blocked(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    ws: &mut Workspace,
    out: &mut Tensor,
) {
    let b = out.layout().channel_block();
    let (oh, ow) = (s.out_h(), s.out_w());
    let blocks = s.m.div_ceil(b);
    let block_len = oh * ow * b;
    let arena = &mut ws.reals;
    par_chunks_scratch(
        out.data_mut(),
        block_len,
        threads.min(blocks),
        b,
        arena,
        |ob, slab, acc| {
            let lanes = b.min(s.m - ob * b);
            for y in 0..oh {
                for x in 0..ow {
                    acc.fill(0.0);
                    for c in 0..s.c {
                        for i in 0..s.k {
                            let iy = (y * s.stride + i) as isize - s.pad as isize;
                            for j in 0..s.k {
                                let ix = (x * s.stride + j) as isize - s.pad as isize;
                                let v = padded_at(input, c, iy, ix);
                                for (lane, slot) in acc.iter_mut().enumerate().take(lanes) {
                                    *slot += v * kernel.at(ob * b + lane, c, i, j);
                                }
                            }
                        }
                    }
                    let base = (y * ow + x) * b;
                    slab[base..base + b].copy_from_slice(acc);
                }
            }
        },
    );
}

fn strided(
    input: &Tensor,
    kernel: &KernelTensor,
    s: &ConvScenario,
    threads: usize,
    out: &mut Tensor,
) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let (_, h, w) = input.dims();
    let src = input.data();
    // Strided specialization: interior region needs no bounds checks, so it
    // is split from the border. With δ > 1 the interior dominates.
    let y_lo = s.pad.div_ceil(s.stride);
    let y_hi = if h + s.pad >= s.k { ((h + s.pad - s.k) / s.stride + 1).min(oh) } else { 0 };
    let x_lo = s.pad.div_ceil(s.stride);
    let x_hi = if w + s.pad >= s.k { ((w + s.pad - s.k) / s.stride + 1).min(ow) } else { 0 };
    par_chunks_mut(out.data_mut(), oh * ow, threads, |m, plane| {
        for y in 0..oh {
            for x in 0..ow {
                let interior = y >= y_lo && y < y_hi && x >= x_lo && x < x_hi;
                let mut acc = 0.0f32;
                if interior {
                    let iy0 = y * s.stride - s.pad;
                    let ix0 = x * s.stride - s.pad;
                    for c in 0..s.c {
                        let cbase = c * h * w;
                        for i in 0..s.k {
                            let row = cbase + (iy0 + i) * w + ix0;
                            let krow = &kernel.data()
                                [kernel.offset(m, c, i, 0)..kernel.offset(m, c, i, 0) + s.k];
                            let irow = &src[row..row + s.k];
                            for (iv, kv) in irow.iter().zip(krow) {
                                acc += iv * kv;
                            }
                        }
                    }
                } else {
                    for c in 0..s.c {
                        for i in 0..s.k {
                            let iy = (y * s.stride + i) as isize - s.pad as isize;
                            for j in 0..s.k {
                                let ix = (x * s.stride + j) as isize - s.pad as isize;
                                acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                            }
                        }
                    }
                }
                plane[y * ow + x] = acc;
            }
        }
    });
}

fn fused_chw_hwc(input: &Tensor, kernel: &KernelTensor, s: &ConvScenario, out: &mut Tensor) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let data = out.data_mut();
    for y in 0..oh {
        for x in 0..ow {
            let base = (y * ow + x) * s.m;
            for m in 0..s.m {
                let mut acc = 0.0f32;
                for c in 0..s.c {
                    for i in 0..s.k {
                        let iy = (y * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (x * s.stride + j) as isize - s.pad as isize;
                            acc += padded_at(input, c, iy, ix) * kernel.at(m, c, i, j);
                        }
                    }
                }
                data[base + m] = acc;
            }
        }
    }
}

fn hwc_vec8(input: &Tensor, kernel: &KernelTensor, s: &ConvScenario, out: &mut Tensor) {
    let (oh, ow) = (s.out_h(), s.out_w());
    let (_, h, w) = input.dims();
    let src = input.data();
    let c8 = s.c / 8 * 8;
    for m in 0..s.m {
        for y in 0..oh {
            for x in 0..ow {
                let mut lanes = [0.0f32; 8];
                let mut tail = 0.0f32;
                for i in 0..s.k {
                    let iy = (y * s.stride + i) as isize - s.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for j in 0..s.k {
                        let ix = (x * s.stride + j) as isize - s.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let base = (iy as usize * w + ix as usize) * s.c;
                        let mut c = 0;
                        while c < c8 {
                            for lane in 0..8 {
                                lanes[lane] += src[base + c + lane] * kernel.at(m, c + lane, i, j);
                            }
                            c += 8;
                        }
                        while c < s.c {
                            tail += src[base + c] * kernel.at(m, c, i, j);
                            c += 1;
                        }
                    }
                }
                out.set(m, y, x, lanes.iter().sum::<f32>() + tail);
            }
        }
    }
}

/// All direct-family primitives for the registry.
pub(crate) fn all() -> Vec<Box<dyn ConvAlgorithm>> {
    use DirectVariant::*;
    let mk = |name: &str, v: DirectVariant| -> Box<dyn ConvAlgorithm> {
        Box::new(DirectConv::new(name, v))
    };
    vec![
        mk("direct_mhwckk", Mhwckk),
        mk("direct_cmhwkk", Cmhwkk),
        mk("direct_mhwkkc_hwc", MhwkkcHwc),
        mk("direct_hwkkcm_hwc", HwkkcmHwc),
        mk("direct_mhcw_hcw", MhcwHcw),
        mk("direct_tile8", Tiled(8)),
        mk("direct_tile16", Tiled(16)),
        mk("direct_tile32", Tiled(32)),
        mk("direct_unroll4", Unroll4),
        mk("direct_chw4_vf4", Blocked4),
        mk("direct_chw8_vf8", Blocked8),
        mk("direct_strided", Strided),
        mk("direct_fused_chw_hwc", FusedChwHwc),
        mk("direct_hwc_vec8", HwcVec8),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sum2d_reference;

    fn scenarios() -> Vec<ConvScenario> {
        vec![
            ConvScenario::new(3, 8, 9, 1, 3, 4),
            ConvScenario::new(5, 7, 7, 2, 3, 3),
            ConvScenario::new(2, 12, 12, 4, 5, 6).with_pad(0),
            ConvScenario::new(9, 6, 6, 1, 1, 5).with_pad(0),
            ConvScenario::new(10, 9, 8, 1, 5, 7),
        ]
    }

    #[test]
    fn every_direct_variant_matches_the_reference() {
        for prim in all() {
            for s in scenarios() {
                if !prim.supports(&s) {
                    continue;
                }
                let lin = prim.descriptor().input_layout;
                let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 11).to_layout(lin);
                let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 12);
                let got = prim.execute(&input, &kernel, &s, 1).unwrap();
                assert_eq!(got.layout(), prim.descriptor().output_layout);
                assert_eq!(got.dims(), (s.m, s.out_h(), s.out_w()));
                let want = sum2d_reference(&input, &kernel, &s);
                let diff = got.max_abs_diff(&want).unwrap();
                assert!(diff < 1e-3, "{} on {s}: diff {diff}", prim.descriptor().name);
            }
        }
    }

    #[test]
    fn multithreaded_execution_matches_single() {
        for prim in all() {
            let s = ConvScenario::new(4, 10, 10, 1, 3, 6);
            if !prim.supports(&s) {
                continue;
            }
            let lin = prim.descriptor().input_layout;
            let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 5).to_layout(lin);
            let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 6);
            let one = prim.execute(&input, &kernel, &s, 1).unwrap();
            let four = prim.execute(&input, &kernel, &s, 4).unwrap();
            assert!(
                one.allclose(&four, 1e-6).unwrap(),
                "{} diverges under threads",
                prim.descriptor().name
            );
        }
    }

    #[test]
    fn strided_variant_rejects_unit_stride() {
        let s = ConvScenario::new(2, 6, 6, 1, 3, 2);
        let prim = DirectConv::new("direct_strided", DirectVariant::Strided);
        assert!(!prim.supports(&s));
        let input = Tensor::zeros(2, 6, 6, Layout::Chw);
        let kernel = KernelTensor::zeros(2, 2, 3, 3);
        assert!(matches!(
            prim.execute(&input, &kernel, &s, 1),
            Err(PrimitiveError::UnsupportedScenario { .. })
        ));
    }

    #[test]
    fn family_has_distinct_names_and_layout_diversity() {
        let prims = all();
        let mut names: Vec<_> = prims.iter().map(|p| p.descriptor().name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), prims.len());
        let layouts: std::collections::HashSet<_> =
            prims.iter().map(|p| p.descriptor().input_layout).collect();
        assert!(layouts.len() >= 4, "direct family should span several layouts");
    }
}
