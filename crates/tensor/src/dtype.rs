//! Numeric precision support: element types, affine quantization
//! parameters and the *representation* (layout × dtype) pairs that extend
//! the paper's data-layout selection space to mixed precision.
//!
//! The paper's PBQP formulation (§3.1) selects one primitive per layer and
//! pays data-layout conversion costs on every edge. Numeric precision has
//! exactly the same shape: an int8 primitive is just another candidate,
//! and quantize/dequantize are just more DT-graph edges with measurable
//! costs. [`Repr`] is the node type of that extended graph: every f32
//! layout plus the quantized layouts the int8 kernels consume.

use std::fmt;

use crate::Layout;

/// Element type of a [`crate::Tensor`]'s storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DType {
    /// 32-bit IEEE float — the historical (and default) precision.
    #[default]
    F32,
    /// 8-bit signed integer with affine [`QuantParams`].
    I8,
    /// 32-bit signed integer — the accumulator type of the int8 GEMM
    /// pipeline; never appears in the selection space.
    I32,
}

impl DType {
    /// Storage bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::I8 => 1,
        }
    }

    /// Short lowercase name (`"f32"`, `"i8"`, `"i32"`).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::I8 => "i8",
            DType::I32 => "i32",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Affine quantization parameters: `real = (q - zero_point) * scale`.
///
/// Produced per tensor by [`crate::transform::quantize_dynamic_into`];
/// `zero_point` is always chosen in `[-127, 127]` so the real value `0.0`
/// (zero padding, ReLU floors) is exactly representable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value step between adjacent quantized codes.
    pub scale: f32,
    /// Quantized code representing real `0.0`.
    pub zero_point: i32,
}

impl QuantParams {
    /// The do-nothing parameters (`scale = 1`, `zero_point = 0`) carried
    /// by non-quantized tensors.
    pub const IDENTITY: QuantParams = QuantParams { scale: 1.0, zero_point: 0 };

    /// Parameters covering `[min, max]` with the real value `0.0` exactly
    /// representable (the range is widened to include 0 if necessary).
    /// Codes span `[-127, 127]`; `-128` is never produced, so symmetric
    /// negation can never overflow.
    pub fn from_range(min: f32, max: f32) -> QuantParams {
        let lo = min.min(0.0);
        let hi = max.max(0.0);
        if hi - lo <= f32::MIN_POSITIVE {
            return QuantParams::IDENTITY;
        }
        let scale = (hi - lo) / 254.0;
        let zero_point = (-lo / scale).round() as i32 - 127;
        QuantParams { scale, zero_point }
    }

    /// Quantizes one real value (round-to-nearest, saturating to
    /// `[-127, 127]`).
    #[inline]
    pub fn quantize(self, v: f32) -> i8 {
        ((v / self.scale).round() as i32 + self.zero_point).clamp(-127, 127) as i8
    }

    /// Dequantizes one code back to its real value.
    #[inline]
    pub fn dequantize(self, q: i8) -> f32 {
        (i32::from(q) - self.zero_point) as f32 * self.scale
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        QuantParams::IDENTITY
    }
}

/// A tensor *representation*: physical layout plus element type — the node
/// type of the extended data-transformation graph and the `L_in`/`L_out`
/// vocabulary of mixed-precision primitives.
///
/// The enumerable set ([`Repr::ALL`]) is every layout at f32 plus the
/// quantized layouts the int8 kernels consume ([`Repr::I8_LAYOUTS`]);
/// `I32` never appears (it is an accumulator type, not an interchange
/// format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Repr {
    /// Physical layout of the storage.
    pub layout: Layout,
    /// Element type of the storage.
    pub dtype: DType,
}

impl Repr {
    /// Layouts available in quantized (`i8`) form.
    pub const I8_LAYOUTS: [Layout; 2] = [Layout::Chw, Layout::Hwc];

    /// Every representation in the selection space, in a stable order:
    /// every f32 layout (same order as [`Layout::ALL`]) followed by the
    /// quantized layouts.
    pub const ALL: [Repr; 7] = [
        Repr { layout: Layout::Chw, dtype: DType::F32 },
        Repr { layout: Layout::Hcw, dtype: DType::F32 },
        Repr { layout: Layout::Hwc, dtype: DType::F32 },
        Repr { layout: Layout::Chw4, dtype: DType::F32 },
        Repr { layout: Layout::Chw8, dtype: DType::F32 },
        Repr { layout: Layout::Chw, dtype: DType::I8 },
        Repr { layout: Layout::Hwc, dtype: DType::I8 },
    ];

    /// The f32 representation of a layout.
    pub fn f32(layout: Layout) -> Repr {
        Repr { layout, dtype: DType::F32 }
    }

    /// The quantized representation of a layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no quantized form (see
    /// [`Repr::I8_LAYOUTS`]).
    pub fn i8(layout: Layout) -> Repr {
        let r = Repr { layout, dtype: DType::I8 };
        assert!(
            Repr::I8_LAYOUTS.contains(&layout),
            "layout {layout} has no quantized representation"
        );
        r
    }

    /// Stable small integer id (index in [`Repr::ALL`]).
    ///
    /// # Panics
    ///
    /// Panics for representations outside the selection space (e.g. any
    /// `I32` repr).
    pub fn index(self) -> usize {
        Repr::ALL
            .iter()
            .position(|&r| r == self)
            .unwrap_or_else(|| panic!("{self} is not in the selection space"))
    }
}

impl fmt::Display for Repr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dtype {
            DType::F32 => write!(f, "{}", self.layout),
            d => write!(f, "{}·{d}", self.layout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn repr_indices_are_stable_and_unique() {
        let ids: HashSet<usize> = Repr::ALL.iter().map(|r| r.index()).collect();
        assert_eq!(ids.len(), Repr::ALL.len());
        assert_eq!(Repr::f32(Layout::Chw).index(), 0);
        assert_eq!(Repr::i8(Layout::Chw).index(), 5);
        assert_eq!(Repr::i8(Layout::Hwc).index(), 6);
    }

    #[test]
    #[should_panic(expected = "no quantized representation")]
    fn blocked_layouts_have_no_quantized_form() {
        let _ = Repr::i8(Layout::Chw8);
    }

    #[test]
    fn quant_params_round_trip_within_half_scale() {
        let p = QuantParams::from_range(-1.7, 3.2);
        for i in 0..500 {
            let v = -1.7 + (3.2 + 1.7) * (i as f32 / 499.0);
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale * 0.5 + 1e-6, "v={v} err={err} scale={}", p.scale);
        }
        // Real zero is exact.
        assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
    }

    #[test]
    fn degenerate_ranges_fall_back_to_identity() {
        assert_eq!(QuantParams::from_range(0.0, 0.0), QuantParams::IDENTITY);
        let p = QuantParams::from_range(5.0, 5.0);
        // Constant positive tensors still get a usable range [0, 5].
        assert!((p.dequantize(p.quantize(5.0)) - 5.0).abs() <= p.scale * 0.5);
    }

    #[test]
    fn display_marks_quantized_reprs() {
        assert_eq!(Repr::f32(Layout::Chw).to_string(), "CHW");
        assert_eq!(Repr::i8(Layout::Hwc).to_string(), "HWC·i8");
        assert_eq!(DType::I8.bytes(), 1);
        assert_eq!(DType::F32.bytes(), 4);
    }
}
