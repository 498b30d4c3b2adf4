//! Single-precision GEMM substrate.
//!
//! The paper's `im2` and `kn2` convolution families reduce convolution to
//! calls into a BLAS `SGEMM`; the authors use OpenBLAS. This crate is the
//! workspace's from-scratch replacement: a small family of row-major
//! `C = op(A)·op(B) + β·C` kernels with different blocking strategies, plus
//! a row-partitioned multithreaded driver.
//!
//! Three kernels are provided (see [`GemmKind`]):
//!
//! * **Naive** — textbook triple loop, the correctness reference.
//! * **Blocked** — cache-blocked `i k j` loop nest.
//! * **Packed** — panel-packing kernel with a 6×16 register-blocked
//!   micro-kernel (twelve 8-lane FMA chains on AVX2), the fastest for the
//!   matrix shapes produced by im2col. It reads transposed operands while
//!   packing, so no `Trans::T` call materializes a transpose.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_gemm::{Gemm, GemmKind, Trans};
//!
//! // C(2x2) = A(2x3) * B(3x2)
//! let a = [1., 2., 3., 4., 5., 6.];
//! let b = [7., 8., 9., 10., 11., 12.];
//! let mut c = [0.0f32; 4];
//! Gemm::new(GemmKind::Packed).run(Trans::N, Trans::N, 2, 2, 3, &a, &b, 0.0, &mut c);
//! assert_eq!(c, [58., 64., 139., 154.]);
//! ```

// `unsafe` is confined to `arch::x86` (std::arch intrinsics behind
// runtime feature detection); everything else keeps the workspace-wide
// no-unsafe discipline.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
mod blocked;
mod naive;
mod packed;
mod quant;

pub use quant::QuantGemm;

use arch::{Isa, Microkernel};
use std::fmt;

/// Which GEMM kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmKind {
    /// Textbook triple loop; reference implementation.
    Naive,
    /// Cache-blocked `i k j` loop nest.
    Blocked,
    /// Panel-packed kernel with a 6×16 micro-kernel
    /// ([`arch::F32_MR`] × [`arch::F32_NR`]); reads `Trans::T` operands
    /// while packing them.
    #[default]
    Packed,
}

impl GemmKind {
    /// All kernels, for sweeps and tests.
    pub const ALL: [GemmKind; 3] = [GemmKind::Naive, GemmKind::Blocked, GemmKind::Packed];
}

impl fmt::Display for GemmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GemmKind::Naive => f.write_str("naive"),
            GemmKind::Blocked => f.write_str("blocked"),
            GemmKind::Packed => f.write_str("packed"),
        }
    }
}

/// Whether an operand is used as stored (`N`) or transposed (`T`).
///
/// Operands are row-major; `Trans::T` reinterprets a stored `k × m` matrix
/// as the logical `m × k` operand without materializing the transpose:
/// the naive/blocked kernels index it directly, and the packed kernel
/// reads it while building its panels (a T-form A yields `MR`
/// contiguous elements per depth step, a T-form B `NR` contiguous rows
/// per panel). Only the naive/blocked multithreaded row-slab driver
/// stages a transposed A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the stored operand.
    T,
}

/// A configured GEMM: kernel choice plus thread count.
///
/// The multithreaded drivers partition rows of `C` across `threads` OS
/// threads (at least two rows each). The packed kernel packs each depth
/// slab of B once and shares it across its workers; the loop kernels
/// run their serial body per row slab.
///
/// # Example
///
/// ```
/// use pbqp_dnn_gemm::{Gemm, GemmKind, Trans};
///
/// let gemm = Gemm::new(GemmKind::Blocked).threads(2);
/// let a = vec![1.0f32; 8 * 16];
/// let b = vec![1.0f32; 16 * 4];
/// let mut c = vec![0.0f32; 8 * 4];
/// gemm.run(Trans::N, Trans::N, 8, 4, 16, &a, &b, 0.0, &mut c);
/// assert!(c.iter().all(|&x| x == 16.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemm {
    kind: GemmKind,
    threads: usize,
    isa: Option<Isa>,
}

impl Default for Gemm {
    fn default() -> Self {
        Gemm::new(GemmKind::default())
    }
}

impl Gemm {
    /// Creates a single-threaded GEMM with the given kernel, dispatching
    /// its packed micro-kernel to the best ISA the host supports (see
    /// [`arch`]).
    pub fn new(kind: GemmKind) -> Gemm {
        Gemm { kind, threads: 1, isa: None }
    }

    /// Sets the number of worker threads (minimum 1).
    pub fn threads(mut self, threads: usize) -> Gemm {
        self.threads = threads.max(1);
        self
    }

    /// Pins the [`GemmKind::Packed`] micro-kernel to a specific ISA
    /// instead of the dispatched one — the explicit hook the
    /// differential tests and benches use to compare ISAs in one
    /// process. `None` restores automatic dispatch. The naive and
    /// blocked kinds are pure scalar loops and ignore this.
    ///
    /// # Panics
    ///
    /// `run`/`run_with_scratch` panic if the host cannot execute the
    /// pinned ISA.
    pub fn isa(mut self, isa: Option<Isa>) -> Gemm {
        self.isa = isa;
        self
    }

    fn microkernel(&self) -> &'static dyn Microkernel {
        match self.isa {
            None => arch::active(),
            Some(isa) => arch::kernel_for(isa)
                .unwrap_or_else(|| panic!("ISA {isa} is not executable on this host")),
        }
    }

    /// The configured kernel.
    pub fn kind(&self) -> GemmKind {
        self.kind
    }

    /// Computes `C = op(A)·op(B) + β·C`.
    ///
    /// `C` is `m × n` row-major. With `Trans::N`, `a` is `m × k` and `b` is
    /// `k × n`; with `Trans::T` the stored shapes are transposed
    /// (`k × m` / `n × k`).
    ///
    /// Allocates its packing/transpose workspace internally; steady-state
    /// callers that must stay off the heap use [`Gemm::run_with_scratch`]
    /// with a buffer of [`Gemm::scratch_elems`] elements instead.
    ///
    /// # Panics
    ///
    /// Panics if a slice is smaller than its operand shape requires.
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    pub fn run(
        &self,
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        let mut scratch = vec![0.0f32; self.scratch_elems(ta, tb, m, n, k)];
        self.run_with_scratch(ta, tb, m, n, k, a, b, beta, c, &mut scratch);
    }

    /// Workspace elements [`Gemm::run_with_scratch`] needs for these
    /// operand shapes: pack panels for the packed kernel (one B slab,
    /// plus one A block per worker), or a transposed A for the loop
    /// kernels' multithreaded driver. The packed kernel needs the same
    /// workspace for every `(ta, tb)`.
    ///
    /// # Example
    ///
    /// ```
    /// use pbqp_dnn_gemm::{Gemm, GemmKind, Trans};
    ///
    /// let gemm = Gemm::new(GemmKind::Packed);
    /// let (m, n, k) = (8, 8, 8);
    /// let mut scratch = vec![0.0f32; gemm.scratch_elems(Trans::N, Trans::N, m, n, k)];
    /// let a = vec![1.0f32; m * k];
    /// let b = vec![1.0f32; k * n];
    /// let mut c = vec![0.0f32; m * n];
    /// // The serving loop reuses `scratch` across calls: zero allocations.
    /// gemm.run_with_scratch(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &mut c, &mut scratch);
    /// assert!(c.iter().all(|&x| x == 8.0));
    /// ```
    pub fn scratch_elems(&self, ta: Trans, tb: Trans, m: usize, n: usize, k: usize) -> usize {
        let _ = tb; // no kernel stages a transposed B
        if m == 0 || n == 0 {
            return 0;
        }
        let threads = self.threads_for(m);
        match self.kind {
            // The loop kernels consume T-form operands natively; only the
            // row-slab fan-out needs an N-form A.
            GemmKind::Naive | GemmKind::Blocked => {
                if threads > 1 && ta == Trans::T {
                    m * k
                } else {
                    0
                }
            }
            GemmKind::Packed => {
                packed::b_pack_elems(n, k) + packed::workers(m, threads) * packed::a_pack_elems()
            }
        }
    }

    /// Threads worth splitting `m` rows of C over: at least two rows each.
    fn threads_for(&self, m: usize) -> usize {
        if m >= 2 * self.threads {
            self.threads
        } else {
            1
        }
    }

    /// [`Gemm::run`] with a caller-provided workspace of at least
    /// [`Gemm::scratch_elems`] elements — the zero-allocation path used
    /// by the steady-state serving engine. Scratch contents on entry are
    /// irrelevant; results are bit-identical to [`Gemm::run`].
    ///
    /// # Panics
    ///
    /// Panics if an operand slice or `scratch` is too small.
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    pub fn run_with_scratch(
        &self,
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
        scratch: &mut [f32],
    ) {
        assert!(a.len() >= m * k, "A too small: {} < {}", a.len(), m * k);
        assert!(b.len() >= k * n, "B too small: {} < {}", b.len(), k * n);
        assert!(c.len() >= m * n, "C too small: {} < {}", c.len(), m * n);
        let need = self.scratch_elems(ta, tb, m, n, k);
        assert!(scratch.len() >= need, "scratch too small: {} < {need}", scratch.len());
        if m == 0 || n == 0 {
            return;
        }

        let threads = self.threads_for(m);
        if self.kind == GemmKind::Packed {
            let mk = self.microkernel();
            return packed::gemm(mk, ta, tb, m, n, k, a, b, beta, c, threads, scratch);
        }
        if threads == 1 {
            return self.run_loop(ta, tb, m, n, k, a, b, beta, c);
        }

        // The loop kernels' row-slab fan-out requires an N-form A;
        // materialize the transpose once if needed.
        let a_n: &[f32] = match ta {
            Trans::N => &a[..m * k],
            Trans::T => {
                let t = &mut scratch[..m * k];
                transpose_into(a, k, m, t);
                t
            }
        };
        let rows_per = m.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut c_rest = &mut c[..m * n];
            let mut a_rest = a_n;
            let mut handles = Vec::new();
            while !c_rest.is_empty() {
                let rows = rows_per.min(c_rest.len() / n);
                let (c_slab, c_next) = c_rest.split_at_mut(rows * n);
                let (a_slab, a_next) = a_rest.split_at(rows * k);
                c_rest = c_next;
                a_rest = a_next;
                let this = *self;
                handles.push(scope.spawn(move || {
                    this.run_loop(Trans::N, tb, rows, n, k, a_slab, b, beta, c_slab);
                }));
            }
            for h in handles {
                h.join().expect("gemm worker panicked");
            }
        });
    }

    /// One serial call of a loop kernel (naive or blocked).
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    fn run_loop(
        &self,
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c: &mut [f32],
    ) {
        match self.kind {
            GemmKind::Naive => naive::gemm(ta, tb, m, n, k, a, b, beta, c),
            GemmKind::Blocked => blocked::gemm(ta, tb, m, n, k, a, b, beta, c),
            GemmKind::Packed => unreachable!("packed GEMMs run through packed::gemm"),
        }
    }
}

/// Materializes the transpose of a `rows × cols` row-major matrix.
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * cols];
    transpose_into(src, rows, cols, &mut out);
    out
}

/// Writes the transpose of a `rows × cols` row-major matrix into `dst`
/// (allocation-free form of [`transpose`]).
///
/// # Panics
///
/// Panics if `dst` is shorter than `rows * cols`.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for r in 0..rows {
        for cidx in 0..cols {
            dst[cidx * rows + r] = src[r * cols + cidx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    fn reference(
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c0: &[f32],
    ) -> Vec<f32> {
        let mut c = c0.to_vec();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let av = match ta {
                        Trans::N => a[i * k + p],
                        Trans::T => a[p * m + i],
                    };
                    let bv = match tb {
                        Trans::N => b[p * n + j],
                        Trans::T => b[j * k + p],
                    };
                    acc += f64::from(av) * f64::from(bv);
                }
                c[i * n + j] = (acc + f64::from(beta) * f64::from(c0[i * n + j])) as f32;
            }
        }
        c
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.max(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    fn check_all(m: usize, n: usize, k: usize) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let c0 = fill(m * n, 3);
        for kind in GemmKind::ALL {
            for threads in [1, 3] {
                for ta in [Trans::N, Trans::T] {
                    for tb in [Trans::N, Trans::T] {
                        for beta in [0.0f32, 1.0] {
                            let mut c = c0.clone();
                            Gemm::new(kind)
                                .threads(threads)
                                .run(ta, tb, m, n, k, &a, &b, beta, &mut c);
                            let want = reference(ta, tb, m, n, k, &a, &b, beta, &c0);
                            for (got, want) in c.iter().zip(&want) {
                                assert!(
                                    (got - want).abs() <= 1e-3,
                                    "{kind} t{threads} {ta:?}{tb:?} beta={beta}: {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_shapes_match_reference() {
        check_all(1, 1, 1);
        check_all(2, 3, 4);
        check_all(4, 4, 4);
        check_all(5, 7, 3);
    }

    #[test]
    fn awkward_shapes_match_reference() {
        check_all(13, 17, 9);
        check_all(33, 5, 40);
        check_all(8, 64, 1);
        check_all(1, 31, 31);
    }

    #[test]
    fn medium_shape_matches_reference() {
        check_all(48, 52, 36);
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c: Vec<f32> = vec![];
        Gemm::default().run(Trans::N, Trans::N, 0, 0, 0, &a, &b, 0.0, &mut c);
        // k = 0 with nonzero m, n zeroes C (beta = 0).
        let mut c2 = vec![5.0f32; 4];
        Gemm::default().run(Trans::N, Trans::N, 2, 2, 0, &a, &b, 0.0, &mut c2);
        assert_eq!(c2, [0.0; 4]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = fill(6 * 4, 9);
        let t = transpose(&m, 6, 4);
        let back = transpose(&t, 4, 6);
        assert_eq!(m, back);
    }

    #[test]
    fn threaded_packed_is_bit_identical_to_serial() {
        // The shared-panel driver must preserve the serial accumulation
        // order exactly, not just within tolerance — for operands read
        // as stored and read transposed while packing.
        for (m, n, k) in [(8, 8, 8), (33, 17, 300), (130, 64, 40), (256, 9, 257)] {
            let a = fill(m * k, 4);
            let b = fill(k * n, 5);
            let c0 = fill(m * n, 6);
            for (ta, tb) in [
                (Trans::N, Trans::N),
                (Trans::N, Trans::T),
                (Trans::T, Trans::N),
                (Trans::T, Trans::T),
            ] {
                for beta in [0.0f32, 0.5, 1.0] {
                    let mut serial = c0.clone();
                    Gemm::new(GemmKind::Packed).run(ta, tb, m, n, k, &a, &b, beta, &mut serial);
                    for threads in [2, 3, 7] {
                        let mut par = c0.clone();
                        Gemm::new(GemmKind::Packed)
                            .threads(threads)
                            .run(ta, tb, m, n, k, &a, &b, beta, &mut par);
                        assert_eq!(
                            serial, par,
                            "m={m} n={n} k={k} t={threads} {ta:?}{tb:?} beta={beta}"
                        );
                    }
                }
            }
        }
    }

    /// The packed kernel's summation order, written out: C scaled by β,
    /// then per `KC` slab of k an accumulator from zero, added to C.
    /// `fused` selects `f32::mul_add` (AVX2) over mul-then-add.
    #[allow(clippy::too_many_arguments)] // BLAS-shaped signature
    fn slab_reference(
        fused: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        beta: f32,
        c0: &[f32],
    ) -> Vec<f32> {
        let mut c: Vec<f32> = if beta == 0.0 {
            vec![0.0; m * n]
        } else if beta == 1.0 {
            c0.to_vec()
        } else {
            c0.iter().map(|&v| v * beta).collect()
        };
        for p0 in (0..k).step_by(256) {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in p0..k.min(p0 + 256) {
                        let (av, bv) = (a[i * k + p], b[p * n + j]);
                        acc = if fused { av.mul_add(bv, acc) } else { acc + av * bv };
                    }
                    c[i * n + j] += acc;
                }
            }
        }
        c
    }

    #[test]
    fn packed_matches_the_per_slab_reference_bit_for_bit() {
        // Crosses KC (k = 257, 520) and MC (m = 121, 130), with edge
        // tiles ragged for both 4×8 and 6×16 register blocks.
        let shapes =
            [(1, 1, 1), (5, 9, 7), (7, 17, 257), (13, 33, 520), (121, 15, 40), (130, 24, 3)];
        for kernel in arch::available_kernels() {
            let isa = kernel.isa();
            for &(m, n, k) in &shapes {
                let a = fill(m * k, 41);
                let b = fill(k * n, 42);
                let c0 = fill(m * n, 43);
                let a_t = transpose(&a, m, k);
                let b_t = transpose(&b, k, n);
                for beta in [0.0f32, 0.5, 1.0] {
                    let want = slab_reference(isa == arch::Isa::Avx2, m, n, k, &a, &b, beta, &c0);
                    for threads in [1, 2] {
                        for ta in [Trans::N, Trans::T] {
                            for tb in [Trans::N, Trans::T] {
                                let a_s = if ta == Trans::N { &a } else { &a_t };
                                let b_s = if tb == Trans::N { &b } else { &b_t };
                                let mut c = c0.clone();
                                Gemm::new(GemmKind::Packed)
                                    .threads(threads)
                                    .isa(Some(isa))
                                    .run(ta, tb, m, n, k, a_s, b_s, beta, &mut c);
                                let bits =
                                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(
                                    bits(&c),
                                    bits(&want),
                                    "{isa} {m}x{n}x{k} t{threads} {ta:?}{tb:?} beta={beta}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_path_is_bit_identical_and_reusable() {
        let (m, n, k) = (33, 17, 40);
        let a = fill(m * k, 11);
        let b = fill(k * n, 12);
        let c0 = fill(m * n, 13);
        // One dirty scratch buffer reused across every configuration,
        // sized for the worst case encountered.
        let mut scratch: Vec<f32> = Vec::new();
        for kind in GemmKind::ALL {
            for threads in [1, 3] {
                for ta in [Trans::N, Trans::T] {
                    for tb in [Trans::N, Trans::T] {
                        let gemm = Gemm::new(kind).threads(threads);
                        let need = gemm.scratch_elems(ta, tb, m, n, k);
                        if kind == GemmKind::Packed {
                            // T-form operands are read while packing,
                            // never staged.
                            assert_eq!(need, gemm.scratch_elems(Trans::N, Trans::N, m, n, k));
                        }
                        if scratch.len() < need {
                            scratch.resize(need, 0.0);
                        }
                        scratch.fill(f32::NAN); // contents must not matter
                        let mut plain = c0.clone();
                        gemm.run(ta, tb, m, n, k, &a, &b, 1.0, &mut plain);
                        let mut ws = c0.clone();
                        gemm.run_with_scratch(ta, tb, m, n, k, &a, &b, 1.0, &mut ws, &mut scratch);
                        assert_eq!(plain, ws, "{kind} t{threads} {ta:?}{tb:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_scratch_is_sized_to_the_depth() {
        // Shallow products (Winograd transforms: k = 9..36 over wide n)
        // must not be charged a full KC-deep B slab.
        let (m, n) = (6, 40);
        let gemm = Gemm::new(GemmKind::Packed);
        for k in [1, 9, 36, 255, 256, 257] {
            let a = fill(m * k, 31);
            let b = fill(k * n, 32);
            let want = reference(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &vec![0.0; m * n]);
            let mut scratch = vec![f32::NAN; gemm.scratch_elems(Trans::N, Trans::N, m, n, k)];
            let mut c = vec![0.0f32; m * n];
            gemm.run_with_scratch(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &mut c, &mut scratch);
            for (got, want) in c.iter().zip(&want) {
                assert!((got - want).abs() <= 1e-3, "k = {k}: {got} vs {want}");
            }
        }
        let elems = |k| gemm.scratch_elems(Trans::N, Trans::N, m, n, k);
        assert!(elems(9) < elems(256), "{} vs {}", elems(9), elems(256));
        assert_eq!(elems(256), elems(257), "one slab at most");
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let src = fill(5 * 7, 21);
        let mut dst = vec![f32::NAN; 5 * 7];
        transpose_into(&src, 5, 7, &mut dst);
        assert_eq!(dst, transpose(&src, 5, 7));
    }

    #[test]
    fn beta_accumulates() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 0.0, 0.0, 2.0];
        let mut c = [10.0f32, 0.0, 0.0, 10.0];
        Gemm::new(GemmKind::Naive).run(Trans::N, Trans::N, 2, 2, 2, &a, &b, 1.0, &mut c);
        assert_eq!(c, [12.0, 0.0, 0.0, 12.0]);
    }
}
