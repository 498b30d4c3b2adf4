use std::fmt;

use crate::{DType, Layout, QuantParams, Repr, TensorError};

/// Element storage of a [`Tensor`], tagged by [`DType`].
///
/// The `f32` variant is the historical dense storage every existing
/// primitive operates on; `I8` carries affine-quantized activations for
/// the int8 execution path; `I32` holds raw GEMM accumulators.
#[derive(Clone, PartialEq)]
enum Storage {
    F32(Vec<f32>),
    I8(Vec<i8>),
    I32(Vec<i32>),
}

impl Storage {
    fn dtype(&self) -> DType {
        match self {
            Storage::F32(_) => DType::F32,
            Storage::I8(_) => DType::I8,
            Storage::I32(_) => DType::I32,
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
            Storage::I8(v) => v.len(),
            Storage::I32(v) => v.len(),
        }
    }

    fn new(dtype: DType, len: usize) -> Storage {
        match dtype {
            DType::F32 => Storage::F32(vec![0.0; len]),
            DType::I8 => Storage::I8(vec![0; len]),
            DType::I32 => Storage::I32(vec![0; len]),
        }
    }

    /// Resizes in place when the dtype already matches (keeping capacity);
    /// otherwise swaps in fresh storage of the right type.
    fn reuse(&mut self, dtype: DType, len: usize) {
        match (&mut *self, dtype) {
            (Storage::F32(v), DType::F32) => v.resize(len, 0.0),
            (Storage::I8(v), DType::I8) => v.resize(len, 0),
            (Storage::I32(v), DType::I32) => v.resize(len, 0),
            (slot, _) => *slot = Storage::new(dtype, len),
        }
    }

    fn reserve(&mut self, elems: usize) {
        match self {
            Storage::F32(v) => {
                if v.capacity() < elems {
                    v.reserve(elems - v.len());
                }
            }
            Storage::I8(v) => {
                if v.capacity() < elems {
                    v.reserve(elems - v.len());
                }
            }
            Storage::I32(v) => {
                if v.capacity() < elems {
                    v.reserve(elems - v.len());
                }
            }
        }
    }
}

/// A dense feature-map tensor with logical dimensions `(c, h, w)` stored
/// in one of the supported [`Layout`]s at one of the supported [`DType`]s
/// (dense `f32` by default).
///
/// All convolution primitives in the workspace consume and produce
/// `Tensor`s. The logical view is always `(channel, row, column)`;
/// [`Tensor::at`] and [`Tensor::set`] translate through the layout **and
/// the dtype** (quantized tensors dequantize on read), while the typed
/// accessors ([`Tensor::data`], [`Tensor::data_i8`], [`Tensor::data_i32`])
/// expose the raw storage for layout-aware kernels.
///
/// # Example
///
/// ```
/// use pbqp_dnn_tensor::{Layout, Tensor};
///
/// let mut t = Tensor::zeros(2, 3, 3, Layout::Hwc);
/// t.set(1, 2, 0, 7.0);
/// assert_eq!(t.at(1, 2, 0), 7.0);
/// assert_eq!(t.data().len(), 2 * 3 * 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    dims: (usize, usize, usize),
    layout: Layout,
    storage: Storage,
    qparams: QuantParams,
}

impl Tensor {
    /// Creates a zero-filled `f32` tensor of logical dimensions `(c, h, w)`.
    pub fn zeros(c: usize, h: usize, w: usize, layout: Layout) -> Tensor {
        Tensor::zeros_dtype(c, h, w, layout, DType::F32)
    }

    /// Creates a zero-filled tensor of the given dtype. Quantization
    /// parameters start at [`QuantParams::IDENTITY`]; set them with
    /// [`Tensor::set_qparams`].
    pub fn zeros_dtype(c: usize, h: usize, w: usize, layout: Layout, dtype: DType) -> Tensor {
        Tensor {
            dims: (c, h, w),
            layout,
            storage: Storage::new(dtype, layout.storage_len(c, h, w)),
            qparams: QuantParams::IDENTITY,
        }
    }

    /// Creates an empty `f32` placeholder tensor (`(0, 0, 0)`, no storage).
    ///
    /// Empty tensors allocate nothing; they exist to be re-shaped in
    /// place with [`Tensor::reuse_as`] / [`Tensor::assign_from`] by
    /// buffer-pooling code.
    pub fn empty() -> Tensor {
        Tensor::empty_dtype(DType::F32)
    }

    /// [`Tensor::empty`] with an explicit dtype, so buffer pools can
    /// pre-commit a slot to the element type it will recycle (switching a
    /// slot's dtype later discards its storage — see
    /// [`Tensor::reuse_as_dtype`]).
    pub fn empty_dtype(dtype: DType) -> Tensor {
        Tensor {
            dims: (0, 0, 0),
            layout: Layout::Chw,
            storage: Storage::new(dtype, 0),
            qparams: QuantParams::IDENTITY,
        }
    }

    /// Re-shapes this tensor in place to `(c, h, w)` in `layout` at `f32`,
    /// recycling the existing storage (see [`Tensor::reuse_as_dtype`]).
    pub fn reuse_as(&mut self, c: usize, h: usize, w: usize, layout: Layout) {
        self.reuse_as_dtype(c, h, w, layout, DType::F32);
    }

    /// Re-shapes this tensor in place to `(c, h, w)` in `layout` with
    /// element type `dtype`, recycling the existing storage.
    ///
    /// When the dtype is unchanged, the storage is resized but its
    /// capacity never shrinks, so repeated reuse at steady-state sizes is
    /// allocation-free; **changing the dtype swaps the backing store**
    /// (steady-state buffer pools keep one slot per dtype). Element values
    /// are unspecified after the call; quantization parameters reset to
    /// [`QuantParams::IDENTITY`].
    pub fn reuse_as_dtype(&mut self, c: usize, h: usize, w: usize, layout: Layout, dtype: DType) {
        self.dims = (c, h, w);
        self.layout = layout;
        self.qparams = QuantParams::IDENTITY;
        let need = layout.storage_len(c, h, w);
        if self.storage.len() != need || self.storage.dtype() != dtype {
            self.storage.reuse(dtype, need);
        }
    }

    /// Grows the storage capacity (in the tensor's current dtype) to hold
    /// `elems` elements without changing the logical shape. Used by buffer
    /// pools to pre-size slots at plan-compile time.
    pub fn reserve_storage(&mut self, elems: usize) {
        self.storage.reserve(elems);
    }

    /// Makes this tensor a copy of `src` (dims, layout, dtype,
    /// quantization parameters and data), recycling the existing storage —
    /// the steady-state counterpart of `src.clone()`.
    pub fn assign_from(&mut self, src: &Tensor) {
        let (c, h, w) = src.dims;
        self.reuse_as_dtype(c, h, w, src.layout, src.dtype());
        self.qparams = src.qparams;
        match (&mut self.storage, &src.storage) {
            (Storage::F32(d), Storage::F32(s)) => d.copy_from_slice(s),
            (Storage::I8(d), Storage::I8(s)) => d.copy_from_slice(s),
            (Storage::I32(d), Storage::I32(s)) => d.copy_from_slice(s),
            _ => unreachable!("reuse_as_dtype matched the dtypes"),
        }
    }

    /// Creates an `f32` tensor whose element `(c, h, w)` is `f(c, h, w)`.
    pub fn from_fn<F>(c: usize, h: usize, w: usize, layout: Layout, mut f: F) -> Tensor
    where
        F: FnMut(usize, usize, usize) -> f32,
    {
        let mut t = Tensor::zeros(c, h, w, layout);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    t.set(ci, hi, wi, f(ci, hi, wi));
                }
            }
        }
        t
    }

    /// Wraps an existing `f32` buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the storage length required by `layout` for the given dimensions.
    pub fn from_vec(
        c: usize,
        h: usize,
        w: usize,
        layout: Layout,
        data: Vec<f32>,
    ) -> Result<Tensor, TensorError> {
        let expected = layout.storage_len(c, h, w);
        if data.len() != expected {
            return Err(TensorError::LengthMismatch { expected, actual: data.len() });
        }
        Ok(Tensor {
            dims: (c, h, w),
            layout,
            storage: Storage::F32(data),
            qparams: QuantParams::IDENTITY,
        })
    }

    /// Creates a deterministic pseudo-random `f32` tensor.
    ///
    /// This is the input generator used by the profiler: layer cost depends
    /// on dimensions rather than values (§3.1 of the paper), but correctness
    /// tests want reproducible data. A small multiplicative LCG keeps the
    /// crate free of external dependencies.
    pub fn random(c: usize, h: usize, w: usize, layout: Layout, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        Tensor::from_fn(c, h, w, layout, |_, _, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Map the top 24 bits to [-1, 1).
            ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
    }

    /// Logical dimensions `(c, h, w)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.dims.0
    }

    /// Feature-map height.
    pub fn height(&self) -> usize {
        self.dims.1
    }

    /// Feature-map width.
    pub fn width(&self) -> usize {
        self.dims.2
    }

    /// The physical layout of the storage.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The element type of the storage.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// The representation (layout × dtype) of this tensor.
    pub fn repr(&self) -> Repr {
        Repr { layout: self.layout, dtype: self.dtype() }
    }

    /// Quantization parameters ([`QuantParams::IDENTITY`] for non-`i8`
    /// tensors).
    pub fn qparams(&self) -> QuantParams {
        self.qparams
    }

    /// Replaces the quantization parameters (meaningful for `i8` tensors).
    pub fn set_qparams(&mut self, qparams: QuantParams) {
        self.qparams = qparams;
    }

    /// Raw `f32` storage slice (layout order, including any blocked
    /// padding).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32`; use [`Tensor::data_i8`] /
    /// [`Tensor::data_i32`] for quantized storage.
    pub fn data(&self) -> &[f32] {
        match &self.storage {
            Storage::F32(v) => v,
            s => panic!("Tensor::data on a {} tensor", s.dtype()),
        }
    }

    /// Mutable raw `f32` storage slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `f32`.
    pub fn data_mut(&mut self) -> &mut [f32] {
        match &mut self.storage {
            Storage::F32(v) => v,
            s => panic!("Tensor::data_mut on a {} tensor", s.dtype()),
        }
    }

    /// Raw `i8` storage slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `i8`.
    pub fn data_i8(&self) -> &[i8] {
        match &self.storage {
            Storage::I8(v) => v,
            s => panic!("Tensor::data_i8 on a {} tensor", s.dtype()),
        }
    }

    /// Mutable raw `i8` storage slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `i8`.
    pub fn data_i8_mut(&mut self) -> &mut [i8] {
        match &mut self.storage {
            Storage::I8(v) => v,
            s => panic!("Tensor::data_i8_mut on a {} tensor", s.dtype()),
        }
    }

    /// Raw `i32` storage slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `i32`.
    pub fn data_i32(&self) -> &[i32] {
        match &self.storage {
            Storage::I32(v) => v,
            s => panic!("Tensor::data_i32 on a {} tensor", s.dtype()),
        }
    }

    /// Mutable raw `i32` storage slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `i32`.
    pub fn data_i32_mut(&mut self) -> &mut [i32] {
        match &mut self.storage {
            Storage::I32(v) => v,
            s => panic!("Tensor::data_i32_mut on a {} tensor", s.dtype()),
        }
    }

    /// Logical (real-valued) element at `(c, h, w)`: quantized storage is
    /// dequantized through the tensor's [`QuantParams`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a coordinate is out of range.
    #[inline]
    pub fn at(&self, c: usize, h: usize, w: usize) -> f32 {
        let off = self.layout.offset(self.dims, c, h, w);
        match &self.storage {
            Storage::F32(v) => v[off],
            Storage::I8(v) => self.qparams.dequantize(v[off]),
            Storage::I32(v) => (v[off] - self.qparams.zero_point) as f32 * self.qparams.scale,
        }
    }

    /// Stores the real value `v` at logical position `(c, h, w)`,
    /// quantizing through the tensor's [`QuantParams`] for integer
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a coordinate is out of range.
    #[inline]
    pub fn set(&mut self, c: usize, h: usize, w: usize, v: f32) {
        let off = self.layout.offset(self.dims, c, h, w);
        match &mut self.storage {
            Storage::F32(s) => s[off] = v,
            Storage::I8(s) => s[off] = self.qparams.quantize(v),
            Storage::I32(s) => {
                s[off] = (v / self.qparams.scale).round() as i32 + self.qparams.zero_point
            }
        }
    }

    /// Linear offset of `(c, h, w)` in the raw storage.
    #[inline]
    pub fn offset(&self, c: usize, h: usize, w: usize) -> usize {
        self.layout.offset(self.dims, c, h, w)
    }

    /// Copies this tensor into a new **f32** tensor with layout `layout`
    /// (quantized sources are dequantized).
    ///
    /// This is the generic (slow-path) conversion; the optimized direct
    /// transformation primitives live in [`crate::transform`].
    pub fn to_layout(&self, layout: Layout) -> Tensor {
        if layout == self.layout && self.dtype() == DType::F32 {
            return self.clone();
        }
        let (c, h, w) = self.dims;
        let mut out = Tensor::zeros(c, h, w, layout);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    out.set(ci, hi, wi, self.at(ci, hi, wi));
                }
            }
        }
        out
    }

    /// Maximum absolute element-wise difference to `other`, comparing
    /// logical (dequantized) values — layouts and dtypes may differ.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if dimensions differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.dims != other.dims {
            return Err(TensorError::ShapeMismatch { left: self.dims, right: other.dims });
        }
        let (c, h, w) = self.dims;
        let mut worst = 0.0f32;
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    worst = worst.max((self.at(ci, hi, wi) - other.at(ci, hi, wi)).abs());
                }
            }
        }
        Ok(worst)
    }

    /// Whether every element matches `other` within absolute tolerance
    /// `tol`, irrespective of layout or dtype.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if dimensions differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Backing-store capacity in elements of the current dtype (test and
    /// pool-sizing aid).
    pub fn storage_capacity(&self) -> usize {
        match &self.storage {
            Storage::F32(v) => v.capacity(),
            Storage::I8(v) => v.capacity(),
            Storage::I32(v) => v.capacity(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("dims", &self.dims)
            .field("layout", &self.layout)
            .field("dtype", &self.dtype())
            .field("len", &self.storage.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_is_all_zero_in_every_layout() {
        for &layout in &Layout::ALL {
            let t = Tensor::zeros(5, 3, 2, layout);
            assert!(t.data().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn set_then_at_round_trips_everywhere() {
        for &layout in &Layout::ALL {
            let mut t = Tensor::zeros(5, 4, 3, layout);
            let mut v = 0.0;
            for c in 0..5 {
                for h in 0..4 {
                    for w in 0..3 {
                        v += 1.0;
                        t.set(c, h, w, v);
                    }
                }
            }
            let mut expect = 0.0;
            for c in 0..5 {
                for h in 0..4 {
                    for w in 0..3 {
                        expect += 1.0;
                        assert_eq!(t.at(c, h, w), expect, "layout {layout}");
                    }
                }
            }
        }
    }

    #[test]
    fn to_layout_preserves_values() {
        let t = Tensor::from_fn(6, 5, 4, Layout::Chw, |c, h, w| (c * 100 + h * 10 + w) as f32);
        for &layout in &Layout::ALL {
            let u = t.to_layout(layout);
            assert_eq!(u.max_abs_diff(&t).unwrap(), 0.0, "layout {layout}");
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(2, 2, 2, Layout::Chw, vec![0.0; 8]).is_ok());
        let err = Tensor::from_vec(2, 2, 2, Layout::Chw, vec![0.0; 7]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 8, actual: 7 });
        // Blocked layout requires padded storage.
        assert!(Tensor::from_vec(3, 2, 2, Layout::Chw4, vec![0.0; 16]).is_ok());
    }

    #[test]
    fn random_is_deterministic_and_seed_sensitive() {
        let a = Tensor::random(3, 4, 5, Layout::Chw, 42);
        let b = Tensor::random(3, 4, 5, Layout::Chw, 42);
        let c = Tensor::random(3, 4, 5, Layout::Chw, 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c).unwrap() > 0.0);
        assert!(a.data().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn empty_reuse_and_assign_recycle_storage() {
        let mut slot = Tensor::empty();
        assert_eq!(slot.dims(), (0, 0, 0));
        assert_eq!(slot.data().len(), 0);
        slot.reserve_storage(3 * 4 * 5);
        let cap = slot.storage_capacity();
        slot.reuse_as(3, 4, 5, Layout::Hwc);
        assert_eq!(slot.dims(), (3, 4, 5));
        assert_eq!(slot.data().len(), Layout::Hwc.storage_len(3, 4, 5));
        assert_eq!(slot.storage_capacity(), cap, "reuse within capacity must not reallocate");
        let src = Tensor::random(2, 4, 5, Layout::Chw4, 9);
        slot.assign_from(&src);
        assert_eq!(slot.layout(), Layout::Chw4);
        assert_eq!(slot.data(), src.data());
        // Shrinking keeps capacity for later growth.
        slot.reuse_as(1, 1, 1, Layout::Chw);
        assert!(slot.storage_capacity() >= Layout::Hwc.storage_len(3, 4, 5));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Tensor::zeros(1, 2, 3, Layout::Chw);
        let b = Tensor::zeros(1, 2, 4, Layout::Chw);
        assert!(matches!(a.max_abs_diff(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn quantized_tensor_round_trips_through_logical_accessors() {
        let p = QuantParams::from_range(-2.0, 2.0);
        for &layout in &Repr::I8_LAYOUTS {
            let mut q = Tensor::zeros_dtype(3, 4, 4, layout, DType::I8);
            q.set_qparams(p);
            q.set(1, 2, 3, 1.25);
            assert!((q.at(1, 2, 3) - 1.25).abs() <= p.scale / 2.0 + 1e-6);
            assert_eq!(q.dtype(), DType::I8);
            assert_eq!(q.repr(), Repr::i8(layout));
            assert_eq!(q.data_i8().len(), 3 * 4 * 4);
        }
    }

    #[test]
    fn assign_from_carries_dtype_and_qparams() {
        let p = QuantParams::from_range(-1.0, 1.0);
        let mut src = Tensor::zeros_dtype(2, 2, 2, Layout::Chw, DType::I8);
        src.set_qparams(p);
        src.set(0, 0, 0, 0.5);
        let mut dst = Tensor::empty();
        dst.assign_from(&src);
        assert_eq!(dst.dtype(), DType::I8);
        assert_eq!(dst.qparams(), p);
        assert_eq!(dst.data_i8(), src.data_i8());
        assert_eq!(dst.max_abs_diff(&src).unwrap(), 0.0);
    }

    #[test]
    fn reuse_as_dtype_switches_storage_and_resets_qparams() {
        let mut t = Tensor::zeros_dtype(2, 2, 2, Layout::Chw, DType::I8);
        t.set_qparams(QuantParams::from_range(-4.0, 4.0));
        t.reuse_as_dtype(2, 3, 2, Layout::Chw, DType::I32);
        assert_eq!(t.dtype(), DType::I32);
        assert_eq!(t.qparams(), QuantParams::IDENTITY);
        assert_eq!(t.data_i32().len(), 12);
        t.reuse_as(1, 1, 1, Layout::Chw);
        assert_eq!(t.dtype(), DType::F32);
    }

    #[test]
    #[should_panic(expected = "Tensor::data on a i8 tensor")]
    fn f32_accessor_rejects_quantized_storage() {
        let t = Tensor::zeros_dtype(1, 1, 1, Layout::Chw, DType::I8);
        let _ = t.data();
    }
}
