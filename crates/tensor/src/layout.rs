use std::fmt;
use std::str::FromStr;

use crate::TensorError;

/// Physical memory layout of a `(c, h, w)` feature-map tensor.
///
/// The three permutation layouts store the three logical dimensions in the
/// named order, outermost first; e.g. [`Layout::Hwc`] stores rows outermost
/// and channels innermost (the "channels-last" layout). The blocked layouts
/// [`Layout::Chw4`] and [`Layout::Chw8`] pad the channel count up to a
/// multiple of the block and interleave one channel block innermost
/// (`[C/b][H][W][b]`), which is the natural input format for 4- and 8-lane
/// vectorized kernels.
///
/// # Example
///
/// ```
/// use pbqp_dnn_tensor::Layout;
///
/// assert_eq!(Layout::Hwc.to_string(), "HWC");
/// assert_eq!("CHWc8".parse::<Layout>().unwrap(), Layout::Chw8);
/// assert_eq!(Layout::ALL.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layout {
    /// Channel-major planar layout (`C × H × W`), Caffe's canonical layout.
    Chw,
    /// `H × C × W`: row-major over channel strips.
    Hcw,
    /// `H × W × C`: channels-last (interleaved) layout.
    Hwc,
    /// Channel-blocked `[C/4][H][W][4]` layout for 4-lane vector kernels.
    Chw4,
    /// Channel-blocked `[C/8][H][W][8]` layout for 8-lane vector kernels.
    Chw8,
}

impl Layout {
    /// Every layout supported by the system, in a stable order.
    ///
    /// The order is used to index the data-layout transformation graph, so
    /// it must not change between runs.
    pub const ALL: [Layout; 5] =
        [Layout::Chw, Layout::Hcw, Layout::Hwc, Layout::Chw4, Layout::Chw8];

    /// Stable small integer id of this layout (its index in [`Layout::ALL`]).
    pub fn index(self) -> usize {
        Layout::ALL.iter().position(|&l| l == self).expect("layout in ALL")
    }

    /// Channel-block width: 4 or 8 for the blocked layouts, 1 otherwise.
    pub fn channel_block(self) -> usize {
        match self {
            Layout::Chw4 => 4,
            Layout::Chw8 => 8,
            _ => 1,
        }
    }

    /// Whether this is one of the channel-blocked layouts.
    pub fn is_blocked(self) -> bool {
        self.channel_block() > 1
    }

    /// Number of `f32` elements a `(c, h, w)` tensor occupies in this layout
    /// (channel counts are padded up to the block width for blocked layouts).
    pub fn storage_len(self, c: usize, h: usize, w: usize) -> usize {
        let b = self.channel_block();
        c.div_ceil(b) * b * h * w
    }

    /// Linear offset of logical element `(c, h, w)` in a tensor of logical
    /// dimensions `(dims_c, dims_h, dims_w)` stored in this layout.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the coordinates are in range.
    #[inline]
    pub fn offset(
        self,
        (dims_c, dims_h, dims_w): (usize, usize, usize),
        c: usize,
        h: usize,
        w: usize,
    ) -> usize {
        debug_assert!(c < dims_c && h < dims_h && w < dims_w);
        match self {
            Layout::Chw => (c * dims_h + h) * dims_w + w,
            Layout::Hcw => (h * dims_c + c) * dims_w + w,
            Layout::Hwc => (h * dims_w + w) * dims_c + c,
            Layout::Chw4 => {
                let cb = dims_c.div_ceil(4);
                debug_assert!(c / 4 < cb);
                (((c / 4) * dims_h + h) * dims_w + w) * 4 + c % 4
            }
            Layout::Chw8 => {
                let cb = dims_c.div_ceil(8);
                debug_assert!(c / 8 < cb);
                (((c / 8) * dims_h + h) * dims_w + w) * 8 + c % 8
            }
        }
    }

    /// The strides of a `dims` tensor stored in this layout — the one
    /// affine form all five layouts share (see [`Strides`]). Kernels hoist
    /// this out of their loops instead of calling [`Layout::offset`] (a
    /// `match` on the layout) per element.
    pub fn strides(self, dims: (usize, usize, usize)) -> Strides {
        let (c, h, w) = dims;
        let block = self.channel_block();
        let (cb, sh, sw) = match self {
            Layout::Chw => (h * w, w, 1),
            Layout::Hcw => (w, c * w, 1),
            Layout::Hwc => (1, w * c, c),
            Layout::Chw4 | Layout::Chw8 => (h * w * block, w * block, block),
        };
        Strides { dims, block, cb, h: sh, w: sw }
    }

    /// Short human-readable name, e.g. `"CHW"` or `"CHWc8"`.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Chw => "CHW",
            Layout::Hcw => "HCW",
            Layout::Hwc => "HWC",
            Layout::Chw4 => "CHWc4",
            Layout::Chw8 => "CHWc8",
        }
    }
}

/// How a `(c, h, w)` tensor is addressed in one [`Layout`]: logical
/// element `(c, h, w)` lives at
/// `(c / block)·cb + c % block + h·self.h + w·self.w`.
///
/// The permutation layouts have `block == 1`, so the form is plain
/// strided addressing; the channel-blocked layouts interleave `block`
/// channels innermost. Built by [`Layout::strides`].
///
/// # Example
///
/// ```
/// use pbqp_dnn_tensor::Layout;
///
/// let dims = (5, 3, 4);
/// let s = Layout::Chw4.strides(dims);
/// assert_eq!(s.offset(2, 1, 3), Layout::Chw4.offset(dims, 2, 1, 3));
/// // Storage order skips the padding lanes of the last channel block.
/// let mut seen = Vec::new();
/// s.for_each(|off, _, _, _| seen.push(off));
/// assert_eq!(seen.len(), 5 * 3 * 4);
/// assert!(seen.windows(2).all(|p| p[0] < p[1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strides {
    /// The logical dimensions the strides were derived for.
    pub dims: (usize, usize, usize),
    /// Channel-block width `B` (a power of two: 1, 4 or 8).
    pub block: usize,
    /// Stride of one channel block (`c / B`).
    pub cb: usize,
    /// Stride of one row.
    pub h: usize,
    /// Stride of one column.
    pub w: usize,
}

impl Strides {
    /// Offset of channel `c` at spatial position `(0, 0)`.
    #[inline]
    pub fn channel(&self, c: usize) -> usize {
        // `block` is a power of two, so this is `c / block` and
        // `c % block` without a hardware divide.
        debug_assert!(self.block.is_power_of_two());
        (c >> self.block.trailing_zeros()) * self.cb + (c & (self.block - 1))
    }

    /// Linear offset of logical element `(c, h, w)`; equals
    /// [`Layout::offset`] for the layout and dims the strides came from.
    #[inline]
    pub fn offset(&self, c: usize, h: usize, w: usize) -> usize {
        self.channel(c) + h * self.h + w * self.w
    }

    /// Whether storage order is the logical `(c, h, w)` order, i.e.
    /// `offset(c, h, w) == (c·H + h)·W + w` for every element: always for
    /// [`Layout::Chw`], and for any layout once the other axes have
    /// extent 1 (an `N×1×1` vector is contiguous in every layout).
    pub fn is_chw_order(&self) -> bool {
        let (c, h, w) = self.dims;
        let plane = h * w;
        (w <= 1 || self.w == 1)
            && (h <= 1 || self.h == w)
            && (c <= 1 || if self.block == 1 { self.cb == plane } else { plane == 1 })
    }

    /// The three strided axes in storage order, outermost (largest
    /// stride) first, each as `(extent, stride, id)` with id 0 for the
    /// channel blocks (`c / block`), 1 for rows and 2 for columns. The
    /// channel lanes of a blocked layout sit inside the last axis. Equal
    /// strides only occur next to an axis of extent 1, where the order is
    /// moot.
    pub fn axes(&self) -> [(usize, usize, usize); 3] {
        let (c, h, w) = self.dims;
        let mut axes = [(c.div_ceil(self.block), self.cb, 0), (h, self.h, 1), (w, self.w, 2)];
        axes.sort_by_key(|&(_, stride, _)| std::cmp::Reverse(stride));
        axes
    }

    /// Calls `f(offset, c, h, w)` for every logical element in increasing
    /// storage-offset order (padding lanes of blocked layouts are
    /// skipped), so a kernel can produce its output front to back
    /// whatever the layout.
    pub fn for_each(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let [(n0, s0, a0), (n1, s1, a1), (n2, s2, a2)] = self.axes();
        let mut idx = [0usize; 3];
        for i0 in 0..n0 {
            idx[a0] = i0;
            for i1 in 0..n1 {
                idx[a1] = i1;
                for i2 in 0..n2 {
                    idx[a2] = i2;
                    let base = i0 * s0 + i1 * s1 + i2 * s2;
                    let c0 = idx[0] * self.block;
                    for lane in 0..self.block.min(self.dims.0 - c0) {
                        f(base + lane, c0 + lane, idx[1], idx[2]);
                    }
                }
            }
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Layout {
    type Err = TensorError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Layout::ALL
            .iter()
            .copied()
            .find(|l| l.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| TensorError::UnknownLayout(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn indices_are_stable_and_unique() {
        let ids: HashSet<usize> = Layout::ALL.iter().map(|l| l.index()).collect();
        assert_eq!(ids.len(), Layout::ALL.len());
        assert_eq!(Layout::Chw.index(), 0);
        assert_eq!(Layout::Chw8.index(), 4);
    }

    #[test]
    fn offsets_are_bijective_for_every_layout() {
        let dims = (5, 3, 4);
        for &layout in &Layout::ALL {
            let mut seen = HashSet::new();
            let len = layout.storage_len(dims.0, dims.1, dims.2);
            for c in 0..dims.0 {
                for h in 0..dims.1 {
                    for w in 0..dims.2 {
                        let off = layout.offset(dims, c, h, w);
                        assert!(off < len, "{layout}: offset {off} >= len {len}");
                        assert!(seen.insert(off), "{layout}: duplicate offset {off}");
                    }
                }
            }
            assert_eq!(seen.len(), dims.0 * dims.1 * dims.2);
        }
    }

    #[test]
    fn strides_agree_with_offset_and_visit_in_storage_order() {
        for dims in [(5, 3, 4), (8, 1, 1), (3, 1, 6), (1, 4, 2), (9, 2, 1), (2, 2, 2), (1, 1, 5)] {
            for &layout in &Layout::ALL {
                let s = layout.strides(dims);
                let mut visited = Vec::new();
                let mut chw_order = true;
                s.for_each(|off, c, h, w| {
                    assert_eq!(off, layout.offset(dims, c, h, w), "{layout} {dims:?}");
                    assert_eq!(off, s.offset(c, h, w), "{layout} {dims:?}");
                    chw_order &= off == (c * dims.1 + h) * dims.2 + w;
                    visited.push(off);
                });
                assert_eq!(visited.len(), dims.0 * dims.1 * dims.2, "{layout} {dims:?}");
                assert!(visited.windows(2).all(|p| p[0] < p[1]), "{layout} {dims:?}: {visited:?}");
                assert_eq!(s.is_chw_order(), chw_order, "{layout} {dims:?}");
            }
        }
    }

    #[test]
    fn blocked_storage_is_padded() {
        assert_eq!(Layout::Chw4.storage_len(3, 2, 2), 4 * 2 * 2);
        assert_eq!(Layout::Chw8.storage_len(3, 2, 2), 8 * 2 * 2);
        assert_eq!(Layout::Chw.storage_len(3, 2, 2), 12);
    }

    #[test]
    fn parse_round_trips() {
        for &layout in &Layout::ALL {
            assert_eq!(layout.name().parse::<Layout>().unwrap(), layout);
        }
        assert!("NCHW16".parse::<Layout>().is_err());
    }

    #[test]
    fn contiguity_of_innermost_dimension() {
        let dims = (8, 4, 4);
        // In CHW, consecutive w are adjacent.
        assert_eq!(Layout::Chw.offset(dims, 1, 2, 3), Layout::Chw.offset(dims, 1, 2, 2) + 1);
        // In HWC, consecutive c are adjacent.
        assert_eq!(Layout::Hwc.offset(dims, 3, 2, 1), Layout::Hwc.offset(dims, 2, 2, 1) + 1);
        // In CHWc8, channels within one block are adjacent.
        assert_eq!(Layout::Chw8.offset(dims, 5, 2, 1), Layout::Chw8.offset(dims, 4, 2, 1) + 1);
    }
}
