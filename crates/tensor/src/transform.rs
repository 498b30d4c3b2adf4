//! Direct data-layout transformation routines.
//!
//! The paper (§3.1) models layout conversion with a *data-layout
//! transformation graph*: nodes are layouts, directed edges are the direct
//! conversion routines the library happens to provide. The edge set is
//! deliberately **incomplete** — converting between two layouts without a
//! direct routine requires a chain through intermediate layouts, found by
//! all-pairs shortest path in the cost crate.
//!
//! This module provides the direct routines themselves. A handful of hot
//! pairs (planar ↔ interleaved, planar ↔ blocked) have hand-written loops;
//! the remaining registered pairs go through the generic permutation copy.

use crate::{DType, Layout, QuantParams, Repr, Tensor, TensorError};

/// A direct layout transformation: source layout, destination layout, and
/// the routine's registry name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectTransform {
    /// Layout consumed.
    pub from: Layout,
    /// Layout produced.
    pub to: Layout,
    /// Stable routine name, e.g. `"chw_to_hwc"`.
    pub name: &'static str,
}

/// The direct transformation routines shipped with the library.
///
/// This is the edge set of the data-layout transformation (DT) graph. It is
/// intentionally incomplete: several conversions (e.g. `CHWc8 → HWC`,
/// `HCW → CHWc4`) require chains, exercising the paper's shortest-path
/// machinery.
pub const DIRECT_TRANSFORMS: [DirectTransform; 11] = [
    DirectTransform { from: Layout::Chw, to: Layout::Hwc, name: "chw_to_hwc" },
    DirectTransform { from: Layout::Hwc, to: Layout::Chw, name: "hwc_to_chw" },
    DirectTransform { from: Layout::Chw, to: Layout::Hcw, name: "chw_to_hcw" },
    DirectTransform { from: Layout::Hcw, to: Layout::Chw, name: "hcw_to_chw" },
    DirectTransform { from: Layout::Hcw, to: Layout::Hwc, name: "hcw_to_hwc" },
    DirectTransform { from: Layout::Hwc, to: Layout::Hcw, name: "hwc_to_hcw" },
    DirectTransform { from: Layout::Chw, to: Layout::Chw4, name: "pack_c4" },
    DirectTransform { from: Layout::Chw4, to: Layout::Chw, name: "unpack_c4" },
    DirectTransform { from: Layout::Chw, to: Layout::Chw8, name: "pack_c8" },
    DirectTransform { from: Layout::Chw8, to: Layout::Chw, name: "unpack_c8" },
    DirectTransform { from: Layout::Chw4, to: Layout::Chw8, name: "rebl_c4_c8" },
];

/// Whether a direct routine exists from `from` to `to`.
pub fn has_direct(from: Layout, to: Layout) -> bool {
    DIRECT_TRANSFORMS.iter().any(|t| t.from == from && t.to == to)
}

/// Applies the direct transformation routine from `t.layout()` to `to`.
///
/// Hot pairs use specialized loops that walk the destination contiguously;
/// other registered pairs use the generic permutation copy.
///
/// # Errors
///
/// Returns [`TensorError::NoDirectTransform`] when the pair is not in
/// [`DIRECT_TRANSFORMS`]; callers that need an arbitrary conversion should
/// run a chain computed from the DT graph instead.
pub fn apply_direct(t: &Tensor, to: Layout) -> Result<Tensor, TensorError> {
    let mut dst = Tensor::empty();
    apply_direct_into(t, to, &mut dst)?;
    Ok(dst)
}

/// Allocation-free form of [`apply_direct`]: writes the converted tensor
/// into `dst`, recycling its storage (see [`Tensor::reuse_as`]). The
/// steady-state serving engine keeps one `dst` per plan edge so layout
/// legalization never touches the heap after warmup.
///
/// # Errors
///
/// Returns [`TensorError::NoDirectTransform`] when the pair is not in
/// [`DIRECT_TRANSFORMS`]; `dst` is left untouched in that case.
pub fn apply_direct_into(t: &Tensor, to: Layout, dst: &mut Tensor) -> Result<(), TensorError> {
    let from = t.layout();
    if !has_direct(from, to) {
        return Err(TensorError::NoDirectTransform { from, to });
    }
    let (c, h, w) = t.dims();
    dst.reuse_as(c, h, w, to);
    if to.is_blocked() {
        // Padding lanes are not written by the copy loops; a recycled
        // buffer may hold stale values there.
        dst.data_mut().fill(0.0);
    }
    match (from, to) {
        (Layout::Chw, Layout::Hwc) => chw_to_hwc_into(t, dst),
        (Layout::Hwc, Layout::Chw) => hwc_to_chw_into(t, dst),
        (Layout::Chw, Layout::Chw4) | (Layout::Chw, Layout::Chw8) => pack_blocked_into(t, dst),
        (Layout::Chw4, Layout::Chw) | (Layout::Chw8, Layout::Chw) => unpack_blocked_into(t, dst),
        _ => copy_logical_into(t, dst),
    }
    Ok(())
}

/// Converts `t` into layout `to`, writing into recycled `dst` storage:
/// the specialized direct routine when one is registered, the generic
/// permutation copy otherwise — the allocation-free counterpart of
/// [`Tensor::to_layout`]. Same-layout conversion degenerates to a copy.
pub fn to_layout_into(t: &Tensor, to: Layout, dst: &mut Tensor) {
    if to == t.layout() {
        dst.assign_from(t);
        return;
    }
    if apply_direct_into(t, to, dst).is_ok() {
        return;
    }
    let (c, h, w) = t.dims();
    dst.reuse_as(c, h, w, to);
    if to.is_blocked() {
        dst.data_mut().fill(0.0);
    }
    copy_logical_into(t, dst);
}

// ---------------------------------------------------------------------
// Representation transforms: the precision-extended DT edge set.
// ---------------------------------------------------------------------

/// One edge of the precision-extended data-transformation graph: a
/// conversion between two [`Repr`]s (layout × dtype).
///
/// The f32 layout edges wrap the classic [`DirectTransform`] routines;
/// the quantized subgraph adds per-layout quantize/dequantize edges plus
/// i8 layout permutations, so a PBQP solve can route activations through
/// int8 exactly the way it routes them through alternative layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprTransform {
    /// An f32 layout conversion (one of [`DIRECT_TRANSFORMS`]).
    Layout(DirectTransform),
    /// The same permutation applied to `i8` storage (quantization
    /// parameters carry through unchanged).
    LayoutI8(DirectTransform),
    /// Dynamic affine quantization `f32 → i8` at a fixed layout.
    Quantize(Layout),
    /// Dequantization `i8 → f32` at a fixed layout.
    Dequantize(Layout),
}

impl ReprTransform {
    /// Representation consumed.
    pub fn from(&self) -> Repr {
        match self {
            ReprTransform::Layout(t) => Repr::f32(t.from),
            ReprTransform::LayoutI8(t) => Repr { layout: t.from, dtype: DType::I8 },
            ReprTransform::Quantize(l) => Repr::f32(*l),
            ReprTransform::Dequantize(l) => Repr { layout: *l, dtype: DType::I8 },
        }
    }

    /// Representation produced.
    pub fn to(&self) -> Repr {
        match self {
            ReprTransform::Layout(t) => Repr::f32(t.to),
            ReprTransform::LayoutI8(t) => Repr { layout: t.to, dtype: DType::I8 },
            ReprTransform::Quantize(l) => Repr { layout: *l, dtype: DType::I8 },
            ReprTransform::Dequantize(l) => Repr::f32(*l),
        }
    }

    /// Stable routine name for cost tables and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            ReprTransform::Layout(t) | ReprTransform::LayoutI8(t) => t.name,
            ReprTransform::Quantize(_) => "quantize",
            ReprTransform::Dequantize(_) => "dequantize",
        }
    }
}

/// The full edge set of the precision-extended transformation graph:
/// every f32 direct routine, quantize/dequantize at each layout of
/// [`Repr::I8_LAYOUTS`], and the i8 planar↔interleaved permutations.
pub fn repr_transforms() -> Vec<ReprTransform> {
    let mut edges: Vec<ReprTransform> =
        DIRECT_TRANSFORMS.iter().copied().map(ReprTransform::Layout).collect();
    for layout in Repr::I8_LAYOUTS {
        edges.push(ReprTransform::Quantize(layout));
        edges.push(ReprTransform::Dequantize(layout));
    }
    for t in DIRECT_TRANSFORMS {
        if Repr::I8_LAYOUTS.contains(&t.from) && Repr::I8_LAYOUTS.contains(&t.to) {
            edges.push(ReprTransform::LayoutI8(t));
        }
    }
    edges
}

/// Applies one representation transform into recycled `dst` storage —
/// the allocation-free dispatch point the runtime's legalization chains
/// go through.
///
/// Quantize edges compute per-tensor dynamic [`QuantParams`] from the
/// source (see [`quantize_dynamic_into`]); dequantize and i8 layout edges
/// honour the source's parameters.
///
/// # Errors
///
/// Returns [`TensorError::DTypeMismatch`] when the source dtype disagrees
/// with the edge, [`TensorError::NoDirectTransform`] when the source
/// layout does (the edge does not start at this tensor's representation)
/// or for unregistered layout pairs.
pub fn apply_repr_into(t: &Tensor, tr: ReprTransform, dst: &mut Tensor) -> Result<(), TensorError> {
    let from = tr.from();
    if t.dtype() != from.dtype {
        return Err(TensorError::DTypeMismatch { expected: from.dtype, found: t.dtype() });
    }
    if t.layout() != from.layout {
        // Applying an edge to a tensor it does not start at would produce
        // a result whose repr disagrees with `tr.to()` — callers size
        // staging buffers from the edge label, so reject loudly.
        return Err(TensorError::NoDirectTransform { from: t.layout(), to: tr.to().layout });
    }
    match tr {
        ReprTransform::Layout(hop) => apply_direct_into(t, hop.to, dst),
        ReprTransform::LayoutI8(hop) => {
            if !has_direct(t.layout(), hop.to) {
                return Err(TensorError::NoDirectTransform { from: t.layout(), to: hop.to });
            }
            let (c, h, w) = t.dims();
            dst.reuse_as_dtype(c, h, w, hop.to, DType::I8);
            dst.set_qparams(t.qparams());
            copy_logical_i8_into(t, dst);
            Ok(())
        }
        ReprTransform::Quantize(_) => {
            quantize_dynamic_into(t, dst);
            Ok(())
        }
        ReprTransform::Dequantize(_) => {
            dequantize_into(t, dst);
            Ok(())
        }
    }
}

/// Quantizes an `f32` tensor into recycled `i8` storage under explicit
/// parameters, preserving dims and layout — a layout-style transform in
/// the sense of §3.1, but along the precision axis.
///
/// # Panics
///
/// Panics if `t` is not `f32`.
pub fn quantize_into(t: &Tensor, params: QuantParams, dst: &mut Tensor) {
    let (c, h, w) = t.dims();
    dst.reuse_as_dtype(c, h, w, t.layout(), DType::I8);
    dst.set_qparams(params);
    let src = t.data();
    for (d, &v) in dst.data_i8_mut().iter_mut().zip(src) {
        *d = params.quantize(v);
    }
}

/// [`quantize_into`] with per-tensor dynamic range calibration: scans the
/// source once for its min/max, derives [`QuantParams`] (real zero always
/// exactly representable) and quantizes. Returns the parameters, which are
/// also stored on `dst`.
///
/// Deterministic — the same tensor always produces the same parameters —
/// and allocation-free once `dst`'s storage has settled.
///
/// # Panics
///
/// Panics if `t` is not `f32`.
pub fn quantize_dynamic_into(t: &Tensor, dst: &mut Tensor) -> QuantParams {
    let src = t.data();
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for &v in src {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let params = QuantParams::from_range(lo, hi);
    quantize_into(t, params, dst);
    params
}

/// Dequantizes an `i8` tensor into recycled `f32` storage, preserving
/// dims and layout.
///
/// # Panics
///
/// Panics if `t` is not `i8`.
pub fn dequantize_into(t: &Tensor, dst: &mut Tensor) {
    let (c, h, w) = t.dims();
    let params = t.qparams();
    let src = t.data_i8();
    dst.reuse_as_dtype(c, h, w, t.layout(), DType::F32);
    for (d, &q) in dst.data_mut().iter_mut().zip(src) {
        *d = params.dequantize(q);
    }
}

/// Generic i8 permutation copy through raw offsets (both layouts in
/// [`Repr::I8_LAYOUTS`], so no blocked padding is involved).
fn copy_logical_i8_into(t: &Tensor, dst: &mut Tensor) {
    let (c, h, w) = t.dims();
    let src = t.data_i8();
    let src_layout = t.layout();
    let dst_layout = dst.layout();
    let data = dst.data_i8_mut();
    for ci in 0..c {
        for hi in 0..h {
            for wi in 0..w {
                data[dst_layout.offset((c, h, w), ci, hi, wi)] =
                    src[src_layout.offset((c, h, w), ci, hi, wi)];
            }
        }
    }
}

/// Generic permutation copy through the logical accessors (the slow path
/// behind [`Tensor::to_layout`], writing into recycled storage).
fn copy_logical_into(t: &Tensor, dst: &mut Tensor) {
    let (c, h, w) = t.dims();
    for ci in 0..c {
        for hi in 0..h {
            for wi in 0..w {
                dst.set(ci, hi, wi, t.at(ci, hi, wi));
            }
        }
    }
}

/// Planar → interleaved with destination-contiguous inner loop.
fn chw_to_hwc_into(t: &Tensor, out: &mut Tensor) {
    let (c, h, w) = t.dims();
    debug_assert_eq!(t.layout(), Layout::Chw);
    let src = t.data();
    let dst = out.data_mut();
    for hi in 0..h {
        for wi in 0..w {
            let out_base = (hi * w + wi) * c;
            let in_base = hi * w + wi;
            for ci in 0..c {
                dst[out_base + ci] = src[ci * h * w + in_base];
            }
        }
    }
}

/// Interleaved → planar with destination-contiguous inner loop.
fn hwc_to_chw_into(t: &Tensor, out: &mut Tensor) {
    let (c, h, w) = t.dims();
    debug_assert_eq!(t.layout(), Layout::Hwc);
    let src = t.data();
    let dst = out.data_mut();
    for ci in 0..c {
        let out_plane = ci * h * w;
        for hi in 0..h {
            for wi in 0..w {
                dst[out_plane + hi * w + wi] = src[(hi * w + wi) * c + ci];
            }
        }
    }
}

/// Planar → channel-blocked (padding lanes pre-zeroed by the caller).
fn pack_blocked_into(t: &Tensor, out: &mut Tensor) {
    let (c, h, w) = t.dims();
    debug_assert_eq!(t.layout(), Layout::Chw);
    let b = out.layout().channel_block();
    let src = t.data();
    let dst = out.data_mut();
    for ci in 0..c {
        let blk = ci / b;
        let lane = ci % b;
        let in_plane = ci * h * w;
        for hi in 0..h {
            for wi in 0..w {
                dst[((blk * h + hi) * w + wi) * b + lane] = src[in_plane + hi * w + wi];
            }
        }
    }
}

/// Channel-blocked → planar (drops padding lanes).
fn unpack_blocked_into(t: &Tensor, out: &mut Tensor) {
    let (c, h, w) = t.dims();
    let b = t.layout().channel_block();
    debug_assert!(b > 1);
    let src = t.data();
    let dst = out.data_mut();
    for ci in 0..c {
        let blk = ci / b;
        let lane = ci % b;
        let out_plane = ci * h * w;
        for hi in 0..h {
            for wi in 0..w {
                dst[out_plane + hi * w + wi] = src[((blk * h + hi) * w + wi) * b + lane];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(c: usize, h: usize, w: usize, layout: Layout) -> Tensor {
        Tensor::from_fn(c, h, w, layout, |ci, hi, wi| (ci * 1000 + hi * 10 + wi) as f32)
    }

    #[test]
    fn every_registered_transform_preserves_values() {
        for t in DIRECT_TRANSFORMS {
            let src = sample(7, 5, 6, t.from);
            let dst = apply_direct(&src, t.to).unwrap();
            assert_eq!(dst.layout(), t.to, "{}", t.name);
            assert_eq!(dst.max_abs_diff(&src).unwrap(), 0.0, "{}", t.name);
        }
    }

    #[test]
    fn unregistered_pairs_are_rejected() {
        let src = sample(4, 4, 4, Layout::Chw8);
        let err = apply_direct(&src, Layout::Hwc).unwrap_err();
        assert_eq!(err, TensorError::NoDirectTransform { from: Layout::Chw8, to: Layout::Hwc });
    }

    #[test]
    fn dt_graph_is_not_complete_but_has_nontrivial_edges() {
        let pairs = DIRECT_TRANSFORMS.len();
        let complete = Layout::ALL.len() * (Layout::ALL.len() - 1);
        assert!(pairs < complete, "DT graph must be incomplete to exercise chains");
        assert!(pairs >= 2 * Layout::ALL.len());
    }

    #[test]
    fn specialized_loops_match_generic_copy() {
        let src = sample(9, 6, 5, Layout::Chw);
        assert_eq!(
            apply_direct(&src, Layout::Hwc).unwrap().data(),
            src.to_layout(Layout::Hwc).data()
        );
        let inter = sample(9, 6, 5, Layout::Hwc);
        assert_eq!(
            apply_direct(&inter, Layout::Chw).unwrap().data(),
            inter.to_layout(Layout::Chw).data()
        );
        let blocked = apply_direct(&src, Layout::Chw8).unwrap();
        assert_eq!(blocked.data(), src.to_layout(Layout::Chw8).data());
        assert_eq!(apply_direct(&blocked, Layout::Chw).unwrap().data(), src.data());
    }

    #[test]
    fn into_variant_recycles_dirty_buffers_correctly() {
        let mut dst = Tensor::empty();
        for t in DIRECT_TRANSFORMS {
            let src = sample(5, 4, 3, t.from);
            // Poison the recycled buffer with a larger, dirty tensor.
            dst.reuse_as(9, 9, 9, Layout::Chw);
            dst.data_mut().fill(f32::NAN);
            apply_direct_into(&src, t.to, &mut dst).unwrap();
            let fresh = apply_direct(&src, t.to).unwrap();
            assert_eq!(dst.data(), fresh.data(), "{}", t.name);
            assert_eq!(dst.layout(), t.to);
        }
    }

    #[test]
    fn repr_edge_set_extends_the_layout_graph() {
        let edges = repr_transforms();
        assert_eq!(edges.len(), DIRECT_TRANSFORMS.len() + 2 * Repr::I8_LAYOUTS.len() + 2);
        // Each quantized layout has a quantize and a dequantize edge.
        for layout in Repr::I8_LAYOUTS {
            assert!(edges.iter().any(|e| matches!(e, ReprTransform::Quantize(l) if *l == layout)));
            assert!(edges
                .iter()
                .any(|e| matches!(e, ReprTransform::Dequantize(l) if *l == layout)));
        }
        // Edge endpoints are always inside the selection space.
        for e in &edges {
            let _ = e.from().index();
            let _ = e.to().index();
        }
    }

    #[test]
    fn quantize_dequantize_round_trip_is_bounded_and_exact_on_grid() {
        let src = Tensor::random(5, 7, 6, Layout::Chw, 77);
        let mut q = Tensor::empty_dtype(crate::DType::I8);
        let params = quantize_dynamic_into(&src, &mut q);
        assert_eq!(q.repr(), Repr::i8(Layout::Chw));
        let mut back = Tensor::empty();
        dequantize_into(&q, &mut back);
        let diff = back.max_abs_diff(&src).unwrap();
        assert!(diff <= params.scale / 2.0 + 1e-6, "diff {diff} vs scale {}", params.scale);
        // Values already on the grid survive a second round trip exactly.
        let mut q2 = Tensor::empty_dtype(crate::DType::I8);
        quantize_into(&back, params, &mut q2);
        assert_eq!(q.data_i8(), q2.data_i8());
    }

    #[test]
    fn apply_repr_into_covers_every_edge() {
        let mut staged = Tensor::empty();
        for e in repr_transforms() {
            let src_f32 = sample(4, 5, 3, e.from().layout);
            let src = if e.from().dtype == crate::DType::I8 {
                let mut q = Tensor::empty_dtype(crate::DType::I8);
                quantize_dynamic_into(&src_f32, &mut q);
                q
            } else {
                src_f32.clone()
            };
            let mut dst = Tensor::empty();
            apply_repr_into(&src, e, &mut dst).unwrap();
            assert_eq!(dst.repr(), e.to(), "{}", e.name());
            // Logical values survive within quantization error.
            let worst = dst.max_abs_diff(&src).unwrap();
            let tol = match e {
                ReprTransform::Layout(_)
                | ReprTransform::LayoutI8(_)
                | ReprTransform::Dequantize(_) => 1e-6,
                ReprTransform::Quantize(_) => dst.qparams().scale / 2.0 + 1e-6,
            };
            assert!(worst <= tol, "{}: {worst} > {tol}", e.name());
            let _ = &mut staged;
        }
    }

    #[test]
    fn apply_repr_into_rejects_wrong_dtype_and_wrong_layout() {
        let f = sample(2, 2, 2, Layout::Chw);
        let mut dst = Tensor::empty();
        let err =
            apply_repr_into(&f, ReprTransform::Dequantize(Layout::Chw), &mut dst).unwrap_err();
        assert!(matches!(err, TensorError::DTypeMismatch { .. }));
        // A quantize edge anchored at a different layout must not run at
        // the tensor's actual layout and mislabel the result.
        let hwc = sample(2, 2, 2, Layout::Hwc);
        let err =
            apply_repr_into(&hwc, ReprTransform::Quantize(Layout::Chw), &mut dst).unwrap_err();
        assert!(matches!(err, TensorError::NoDirectTransform { .. }));
    }

    #[test]
    fn pack_pads_channel_tail_with_zeros() {
        let src = sample(3, 2, 2, Layout::Chw);
        let blocked = apply_direct(&src, Layout::Chw4).unwrap();
        // Lane 3 of the single block is padding.
        let data = blocked.data();
        for hi in 0..2 {
            for wi in 0..2 {
                assert_eq!(data[(hi * 2 + wi) * 4 + 3], 0.0);
            }
        }
    }
}
