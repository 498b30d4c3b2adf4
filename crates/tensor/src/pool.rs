//! Bump-arena scratch memory for steady-state (zero-allocation) execution.
//!
//! Every convolution primitive needs transient scratch — Toeplitz patch
//! matrices, transformed Winograd kernels, FFT frequency accumulators,
//! GEMM pack panels. Allocating that scratch per call puts a hidden
//! `malloc` tax on the serving hot loop that the paper's cost model never
//! sees. An [`Arena`] amortizes it: the backing store is sized once (at
//! schedule-compile time or during the first warmup run) and every
//! subsequent carve is a pointer bump.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_tensor::pool::Arena;
//!
//! let mut arena: Arena<f32> = Arena::with_capacity(16);
//! let mark = arena.mark();
//! let [a, b] = arena.take([4, 8]);
//! a.fill(1.0);
//! b[0] = 2.0;
//! assert_eq!(a.len(), 4);
//! arena.release(mark); // both slices are dead here; memory is reusable
//! assert_eq!(arena.in_use(), 0);
//! ```

/// A typed bump arena with checkpoint/release semantics.
///
/// [`Arena::take`] carves N disjoint zero-filled slices in one call; the
/// slices borrow the arena mutably, so they cannot outlive the carve site
/// — when they go out of scope, [`Arena::release`] (or [`Arena::reset`])
/// makes the memory reusable without freeing it. The backing store only
/// ever grows, so after one warmup pass through a workload every `take`
/// is allocation-free.
#[derive(Debug, Default)]
pub struct Arena<T> {
    buf: Vec<T>,
    top: usize,
}

impl<T: Copy + Default> Arena<T> {
    /// An empty arena; grows on first use.
    pub fn new() -> Arena<T> {
        Arena { buf: Vec::new(), top: 0 }
    }

    /// An arena whose backing store already holds `elems` elements.
    pub fn with_capacity(elems: usize) -> Arena<T> {
        Arena { buf: vec![T::default(); elems], top: 0 }
    }

    /// Grows the backing store so `elems` total elements can be carved
    /// without reallocating. Never shrinks.
    pub fn reserve(&mut self, elems: usize) {
        if self.buf.len() < elems {
            self.buf.resize(elems, T::default());
        }
    }

    /// Total backing capacity in elements.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Elements currently carved out.
    pub fn in_use(&self) -> usize {
        self.top
    }

    /// Checkpoint of the current bump pointer, for [`Arena::release`].
    pub fn mark(&self) -> usize {
        self.top
    }

    /// Rewinds the bump pointer to a previous [`Arena::mark`].
    pub fn release(&mut self, mark: usize) {
        debug_assert!(mark <= self.top, "release past the bump pointer");
        self.top = mark;
    }

    /// Rewinds the bump pointer to the start; capacity is retained.
    pub fn reset(&mut self) {
        self.top = 0;
    }

    /// Carves `N` disjoint zero-filled slices of the given lengths.
    ///
    /// Grows the backing store if needed (this is the only path that can
    /// allocate; it never triggers twice for the same watermark). The
    /// returned slices borrow the arena mutably — carve everything a
    /// kernel needs in one call.
    pub fn take<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [T]; N] {
        let mut out = self.take_dirty(lens);
        for slice in &mut out {
            slice.fill(T::default());
        }
        out
    }

    /// [`Arena::take`] without the zero-fill: the slices hold whatever
    /// the last carve over the same memory left there (zeros on fresh
    /// memory). For kernels that write every element before reading it,
    /// where the fill would be a wasted pass over the scratch.
    pub fn take_dirty<const N: usize>(&mut self, lens: [usize; N]) -> [&mut [T]; N] {
        let total: usize = lens.iter().sum();
        let need = self.top + total;
        if self.buf.len() < need {
            self.buf.resize(need, T::default());
        }
        let start = self.top;
        self.top = need;
        let mut rest = &mut self.buf[start..need];
        let mut out: [&mut [T]; N] = std::array::from_fn(|_| &mut [] as &mut [T]);
        for (slot, &len) in out.iter_mut().zip(&lens) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            *slot = head;
            rest = tail;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_disjoint_zeroed_slices() {
        let mut arena: Arena<f32> = Arena::new();
        let [a, b, c] = arena.take([3, 0, 5]);
        assert_eq!((a.len(), b.len(), c.len()), (3, 0, 5));
        assert!(a.iter().chain(c.iter()).all(|&v| v == 0.0));
        a.fill(7.0);
        c.fill(9.0);
        assert!(a.iter().all(|&v| v == 7.0));
        assert_eq!(arena.in_use(), 8);
    }

    #[test]
    fn release_rewinds_and_rezeroes_on_next_take() {
        let mut arena: Arena<f32> = Arena::with_capacity(8);
        let mark = arena.mark();
        {
            let [a] = arena.take([8]);
            a.fill(1.0);
        }
        arena.release(mark);
        assert_eq!(arena.in_use(), 0);
        let [b] = arena.take([8]);
        assert!(b.iter().all(|&v| v == 0.0), "reused scratch must be re-zeroed");
    }

    #[test]
    fn take_dirty_keeps_previous_contents() {
        let mut arena: Arena<f32> = Arena::new();
        let mark = arena.mark();
        {
            let [a, b] = arena.take_dirty([2, 3]);
            assert!(a.iter().chain(b.iter()).all(|&v| v == 0.0), "fresh memory is zeroed");
            a.fill(1.0);
            b.fill(2.0);
        }
        arena.release(mark);
        let [c] = arena.take_dirty([5]);
        assert_eq!(c, [1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(arena.in_use(), 5);
    }

    #[test]
    fn capacity_only_grows() {
        let mut arena: Arena<u8> = Arena::new();
        arena.reserve(100);
        assert_eq!(arena.capacity(), 100);
        arena.reserve(10);
        assert_eq!(arena.capacity(), 100);
        let _ = arena.take([150]);
        assert!(arena.capacity() >= 150);
        arena.reset();
        assert!(arena.capacity() >= 150);
    }

    #[test]
    fn nested_marks_stack() {
        let mut arena: Arena<usize> = Arena::new();
        let outer = arena.mark();
        let _ = arena.take([4]);
        let inner = arena.mark();
        let _ = arena.take([4]);
        arena.release(inner);
        assert_eq!(arena.in_use(), 4);
        arena.release(outer);
        assert_eq!(arena.in_use(), 0);
    }
}
