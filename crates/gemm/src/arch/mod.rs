//! Runtime CPU-architecture dispatch for the hot microkernels.
//!
//! The paper's central claim is that primitive selection over *measured*
//! costs beats any single baseline — which is only credible if the
//! primitives themselves run at hardware speed. This module owns that
//! layer: a small registry of [`Microkernel`] implementations (AVX2,
//! SSE2, portable scalar), one of which is selected **per host at run
//! time** via [`CpuFeatures::detect`] and used by the packed f32 GEMM,
//! the quantized int8 GEMM, and the hot int8 pointwise kernels.
//!
//! Selection order is best-first ([`Isa::Avx2`] → [`Isa::Sse2`] →
//! [`Isa::Scalar`]); the `PBQP_DNN_FORCE_ISA` environment variable (or
//! [`set_override`], its in-process equivalent for tests and benches)
//! pins a specific ISA so fallback paths can be exercised anywhere.
//!
//! # Numerical contract
//!
//! * **int8 kernels are bit-exact across every ISA.** Integer addition is
//!   associative, so any accumulation order yields the same `i32` result;
//!   the AVX2 path widens `i8 → i16` with `_mm256_cvtepi8_epi16` before
//!   `_mm256_madd_epi16` (rather than the saturating `u8 × i8`
//!   `_mm256_maddubs_epi16`) precisely so that *all* `i8` inputs —
//!   including `-128` — produce exact products.
//! * **f32 kernels are ULP-bounded, not bit-identical, across ISAs.** The
//!   AVX2 panel kernel uses fused multiply-add, which rounds once where
//!   the scalar kernel rounds twice; the SSE2 kernel performs the same
//!   mul-then-add sequence as the scalar kernel and matches it bit for
//!   bit. Within one process the dispatch decision is stable, so serial,
//!   wavefront and batched execution remain bit-identical to each other.
//! * **The packed f32 GEMM has one summation order per element**,
//!   independent of the register block, the row blocking and the thread
//!   count: C is scaled by β first (zeroed for β = 0); then for each
//!   slab of at most 256 depth steps, in ascending order, an accumulator
//!   starts from zero, takes `acc = a·b + acc` for every step of the
//!   slab in order (one fused rounding on AVX2, mul-then-add elsewhere),
//!   and is added to C. A unit test pins this bit for bit on every ISA.
//! * **[`Microkernel::f32_dot`] defines its own reference order**, as the
//!   int8 tiers did: [`F32_DOT_LANES`] (= 32) virtual lanes — lane `l`
//!   accumulates elements `l`, `l + 32`, `l + 64`, … by multiply-then-add
//!   — reduced by a fixed pairwise tree (`l += l + 16`, `+ 8`, `+ 4`,
//!   `+ 2`, `+ 1`), then the `len % 32` tail elements added one by one.
//!   The trait's default body is that order; scalar and SSE2 inherit it
//!   and agree bit for bit. AVX2 keeps the same lanes and tree in four
//!   `_mm256_fmadd_ps` accumulators, so it differs only by FMA's single
//!   rounding: every ISA is within `(len/16 + 72)·ε·Σ|aᵢbᵢ|` of the exact
//!   dot product (`ε = 2⁻²⁴`), hence within twice that of each other.
//!
//! # Example
//!
//! ```
//! use pbqp_dnn_gemm::arch::{self, CpuFeatures, Isa};
//!
//! let features = CpuFeatures::detect();
//! // The scalar kernel is always available; real hosts usually do better.
//! assert!(features.supports(Isa::Scalar));
//! let kernel = arch::active();
//! println!("dispatching to {}", kernel.isa());
//! // Every compiled-in kernel the host can run, best first.
//! for k in arch::available_kernels() {
//!     println!("  candidate: {}", k.isa());
//! }
//! ```

mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Row height of the f32 panel microkernel (A panels are packed `MR`
/// tall). With [`F32_NR`] it forms the BLIS Haswell sgemm block: 6 rows
/// × 2 eight-lane vectors = 12 AVX2 accumulators, plus two B vectors
/// and one broadcast — 15 of the 16 ymm registers.
pub const F32_MR: usize = 6;
/// Column width of the f32 panel microkernel (B panels are packed `NR`
/// wide).
pub const F32_NR: usize = 16;
/// Row height of the int8 panel microkernel.
pub const I8_MR: usize = 4;
/// Column width of the int8 panel microkernel; B panels are packed in
/// depth-pairs (see [`pack_b_i8_pairs`]) so `_mm256_madd_epi16`-style
/// instructions consume two k-steps at once.
pub const I8_NR: usize = 8;
/// Virtual accumulator lanes of [`Microkernel::f32_dot`]'s reference
/// order (four 8-wide accumulators).
pub const F32_DOT_LANES: usize = 32;

/// An instruction-set tier a microkernel can target.
///
/// Ordered best-first: [`Isa::ALL`] is the fallback chain the dispatcher
/// walks. `Scalar` is portable Rust and always available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Isa {
    /// 256-bit AVX2 + FMA (`_mm256_madd_epi16` int8 dot pairs,
    /// `_mm256_fmadd_ps` f32 panels).
    Avx2,
    /// 128-bit baseline x86-64 SIMD (`_mm_madd_epi16`, mul+add f32).
    Sse2,
    /// Portable scalar Rust — the correctness reference every other
    /// kernel is differentially tested against.
    Scalar,
}

impl Isa {
    /// Every ISA tier, best first — the dispatcher's fallback order.
    pub const ALL: [Isa; 3] = [Isa::Avx2, Isa::Sse2, Isa::Scalar];

    /// Lower-case name, as accepted by `PBQP_DNN_FORCE_ISA`.
    pub fn name(&self) -> &'static str {
        match self {
            Isa::Avx2 => "avx2",
            Isa::Sse2 => "sse2",
            Isa::Scalar => "scalar",
        }
    }

    /// Parses a (case-insensitive) ISA name.
    pub fn parse(s: &str) -> Option<Isa> {
        match s.to_ascii_lowercase().as_str() {
            "avx2" => Some(Isa::Avx2),
            "sse2" => Some(Isa::Sse2),
            "scalar" => Some(Isa::Scalar),
            _ => None,
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The CPU features runtime dispatch cares about, probed once per
/// process.
///
/// On non-x86-64 hosts every SIMD flag is `false` and dispatch resolves
/// to the scalar kernel (NEON kernels are future work; see ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float SIMD (Haswell+).
    pub avx2: bool,
    /// Fused multiply-add (ships alongside AVX2 on every mainstream
    /// part; the AVX2 f32 panel kernel requires it).
    pub fma: bool,
    /// Baseline x86-64 SIMD — architecturally guaranteed on x86-64.
    pub sse2: bool,
}

impl CpuFeatures {
    /// Probes the running CPU.
    pub fn detect() -> CpuFeatures {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: is_x86_feature_detected!("avx2"),
                fma: is_x86_feature_detected!("fma"),
                sse2: is_x86_feature_detected!("sse2"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures { avx2: false, fma: false, sse2: false }
        }
    }

    /// Whether kernels for `isa` can execute on this CPU.
    ///
    /// `Avx2` requires both AVX2 and FMA (they co-ship on all mainstream
    /// parts); `Scalar` is always supported.
    pub fn supports(&self, isa: Isa) -> bool {
        match isa {
            Isa::Avx2 => self.avx2 && self.fma,
            Isa::Sse2 => self.sse2,
            Isa::Scalar => true,
        }
    }

    /// The best ISA tier this CPU supports.
    pub fn best(&self) -> Isa {
        *Isa::ALL.iter().find(|&&isa| self.supports(isa)).expect("scalar is always supported")
    }
}

/// One ISA's implementation of the hot inner kernels.
///
/// All methods are *panel* kernels operating on the pack formats defined
/// by this module, so every ISA (including scalar) runs through the same
/// drivers and differs only in the innermost loops — which is what makes
/// the differential test harness meaningful.
#[allow(clippy::too_many_arguments)] // panel kernels have BLAS-shaped signatures
pub trait Microkernel: Send + Sync {
    /// The ISA tier this kernel targets.
    fn isa(&self) -> Isa;

    /// f32 panel kernel: `C[r0.., j0..] += A_panel · B_panel` for a
    /// [`F32_MR`]`×`[`F32_NR`] (6×16) register block, accumulated from
    /// zero over the `pc` depth steps in order and then added to C.
    /// `a_panel` is packed `MR` tall (`pc × MR` elements), `b_panel` `NR`
    /// wide (`pc × NR`); `rh ≤ MR` rows and `jw ≤ NR` columns are stored
    /// into row-major `c` with row stride `n`.
    fn f32_panel(
        &self,
        a_panel: &[f32],
        b_panel: &[f32],
        c: &mut [f32],
        n: usize,
        pc: usize,
        r0: usize,
        rh: usize,
        j0: usize,
        jw: usize,
    );

    /// int8 panel kernel: `C[row0.., j0..] += A_pairs · B_panel` with
    /// `i32` accumulation, for up to [`I8_MR`] rows and [`I8_NR`]
    /// columns. `a_pairs` is the pair-broadcast block produced by
    /// [`pack_a_i8_pairs`] (`pc.div_ceil(2) · I8_MR` words, built once
    /// per row block and shared by every column panel — rebuilding the
    /// pair words per panel is pure waste since they don't depend on
    /// `j0`); `b_panel` is one pair-packed column panel produced by
    /// [`pack_b_i8_pairs`] (`pc.div_ceil(2) · 2 · I8_NR` bytes); `c` is
    /// row-major with row stride `ldc`. Results are bit-exact across
    /// ISAs for all `i8` inputs.
    fn i8_panel(
        &self,
        a_pairs: &[i32],
        pc: usize,
        b_panel: &[i8],
        c: &mut [i32],
        ldc: usize,
        row0: usize,
        rh: usize,
        j0: usize,
        jw: usize,
    );

    /// f32 dot product `Σ a[i]·b[i]` — the GEMV inner kernel of the
    /// fully-connected layers, which stream each weight row exactly once
    /// (no packing pays for itself at one use per element).
    ///
    /// This default body *is* the reference summation order (see the
    /// module's numerical contract): [`F32_DOT_LANES`] lanes, pairwise
    /// tree, scalar tail. Overrides must keep the lanes and the tree.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn f32_dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot operands differ in length");
        let mut acc = [0.0f32; F32_DOT_LANES];
        let (a_chunks, b_chunks) = (a.chunks_exact(F32_DOT_LANES), b.chunks_exact(F32_DOT_LANES));
        let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
        for (ca, cb) in a_chunks.zip(b_chunks) {
            for ((lane, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
                *lane += x * y;
            }
        }
        let mut width = F32_DOT_LANES / 2;
        while width > 0 {
            let (lo, hi) = acc.split_at_mut(width);
            for (l, &h) in lo.iter_mut().zip(hi.iter()) {
                *l += h;
            }
            width /= 2;
        }
        let mut sum = acc[0];
        for (&x, &y) in a_tail.iter().zip(b_tail) {
            sum += x * y;
        }
        sum
    }

    /// int8 ReLU over quantized codes: `dst[i] = max(src[i], zp)`
    /// (`zp` encodes real `0.0`). Exact on every ISA.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `src`.
    fn i8_relu(&self, src: &[i8], zp: i8, dst: &mut [i8]) {
        assert!(dst.len() >= src.len(), "relu dst too small");
        for (d, &q) in dst.iter_mut().zip(src) {
            *d = q.max(zp);
        }
    }

    /// Minimum and maximum code in `src`; `(i8::MAX, i8::MIN)` when
    /// empty (the fold identity, matching a scalar reduction).
    fn i8_minmax(&self, src: &[i8]) -> (i8, i8) {
        src.iter().fold((i8::MAX, i8::MIN), |(lo, hi), &q| (lo.min(q), hi.max(q)))
    }
}

/// Packs a `pc × n` horizontal slab of `B` (row-major, starting at row
/// `p0`) into [`I8_NR`]-wide column panels of **depth pairs**: panel `jp`
/// holds, for each pair index `p2`, the 16 bytes
/// `[b[2p2][j0], b[2p2+1][j0], b[2p2][j0+1], b[2p2+1][j0+1], …]` so a
/// single 16-byte load feeds one `madd`-style instruction with two
/// k-steps for eight columns. Missing depth (odd `pc`) and missing
/// columns (ragged `n`) are zero-padded, which contributes exactly
/// nothing to the integer accumulators.
pub fn pack_b_i8_pairs(dst: &mut [i8], b: &[i8], n: usize, p0: usize, pc: usize) {
    let pc2 = pc.div_ceil(2);
    let panels = n.div_ceil(I8_NR);
    let panel_bytes = pc2 * I8_NR * 2;
    for jp in 0..panels {
        let j0 = jp * I8_NR;
        let jw = I8_NR.min(n - j0);
        let base = jp * panel_bytes;
        for p2 in 0..pc2 {
            let row_a = &b[(p0 + 2 * p2) * n..(p0 + 2 * p2) * n + n];
            let row_b =
                (2 * p2 + 1 < pc).then(|| &b[(p0 + 2 * p2 + 1) * n..(p0 + 2 * p2 + 1) * n + n]);
            let out = &mut dst[base + p2 * I8_NR * 2..base + (p2 + 1) * I8_NR * 2];
            for j in 0..I8_NR {
                if j < jw {
                    out[2 * j] = row_a[j0 + j];
                    out[2 * j + 1] = row_b.map_or(0, |r| r[j0 + j]);
                } else {
                    out[2 * j] = 0;
                    out[2 * j + 1] = 0;
                }
            }
        }
    }
}

/// Bytes [`pack_b_i8_pairs`] writes for a `pc × n` slab.
pub fn packed_b_i8_bytes(n: usize, pc: usize) -> usize {
    pc.div_ceil(2) * 2 * I8_NR * n.div_ceil(I8_NR)
}

/// Builds the A-side **pair-broadcast block** for one [`I8_MR`]-tall row
/// block of `A` (row-major, row stride `lda`): word `p2 · I8_MR + r`
/// holds the two consecutive taps `a[row0+r][p0+2p2]` and
/// `a[row0+r][p0+2p2+1]` as sign-extended `i16`s packed `[a1:a0]` — the
/// exact operand a `madd`-style instruction wants broadcast across its
/// lanes. Rows past `rh` and the odd tail tap of an odd `pc` are zero,
/// which contributes exactly nothing to the accumulators.
pub fn pack_a_i8_pairs(
    dst: &mut [i32],
    a: &[i8],
    lda: usize,
    row0: usize,
    rh: usize,
    p0: usize,
    pc: usize,
) {
    let pc2 = pc.div_ceil(2);
    for p2 in 0..pc2 {
        let out = &mut dst[p2 * I8_MR..(p2 + 1) * I8_MR];
        for (r, slot) in out.iter_mut().enumerate() {
            *slot = if r < rh {
                let base = (row0 + r) * lda + p0 + 2 * p2;
                let a0 = a[base] as i16 as u16 as u32;
                let a1 = if 2 * p2 + 1 < pc { a[base + 1] as i16 as u16 as u32 } else { 0 };
                ((a1 << 16) | a0) as i32
            } else {
                0
            };
        }
    }
}

/// Words [`pack_a_i8_pairs`] writes for a `pc`-deep row block.
pub fn a_i8_pairs_elems(pc: usize) -> usize {
    pc.div_ceil(2) * I8_MR
}

static SCALAR_KERNEL: scalar::ScalarKernel = scalar::ScalarKernel;
#[cfg(target_arch = "x86_64")]
static SSE2_KERNEL: x86::Sse2Kernel = x86::Sse2Kernel;
#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: x86::Avx2Kernel = x86::Avx2Kernel;

/// The cached CPU-feature probe for this host (detected once per
/// process).
pub fn features() -> &'static CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    FEATURES.get_or_init(CpuFeatures::detect)
}

/// The kernel implementing `isa`, or `None` when this host cannot
/// execute it (missing CPU features, or the ISA is not compiled in on
/// this architecture). `kernel_for(Isa::Scalar)` always succeeds.
pub fn kernel_for(isa: Isa) -> Option<&'static dyn Microkernel> {
    if !features().supports(isa) {
        return None;
    }
    match isa {
        Isa::Scalar => Some(&SCALAR_KERNEL),
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => Some(&SSE2_KERNEL),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => Some(&AVX2_KERNEL),
        #[cfg(not(target_arch = "x86_64"))]
        _ => None,
    }
}

/// Every kernel this host can execute, best-first — the registry the
/// differential tests and benches sweep.
pub fn available_kernels() -> Vec<&'static dyn Microkernel> {
    Isa::ALL.iter().filter_map(|&isa| kernel_for(isa)).collect()
}

/// The ISA pinned by the `PBQP_DNN_FORCE_ISA` environment variable, if
/// set (read once per process).
///
/// # Panics
///
/// Panics (at first dispatch) if the variable names an unknown ISA or
/// one this host cannot execute — a forced fallback test must never
/// silently run a different kernel than it asked for.
pub fn forced() -> Option<Isa> {
    static FORCED: OnceLock<Option<Isa>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let raw = std::env::var("PBQP_DNN_FORCE_ISA").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        let isa = Isa::parse(&raw).unwrap_or_else(|| {
            panic!("PBQP_DNN_FORCE_ISA={raw:?}: unknown ISA (expected avx2, sse2 or scalar)")
        });
        assert!(
            features().supports(isa),
            "PBQP_DNN_FORCE_ISA={}: this host lacks the required CPU features ({:?})",
            isa,
            features(),
        );
        Some(isa)
    })
}

// 0 = no override, otherwise Isa discriminant + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Process-wide in-code equivalent of `PBQP_DNN_FORCE_ISA`, for tests
/// and benches that need to compare ISAs inside one process. Takes
/// precedence over the environment variable; `None` restores automatic
/// selection.
///
/// This is a global: callers that flip it concurrently with dispatched
/// work must serialize themselves (the repo's cross-ISA tests share a
/// mutex for exactly this reason).
///
/// # Panics
///
/// Panics if the host cannot execute `isa`.
pub fn set_override(isa: Option<Isa>) {
    if let Some(isa) = isa {
        assert!(
            features().supports(isa),
            "set_override({isa}): this host lacks the required CPU features",
        );
    }
    let code = match isa {
        None => 0,
        Some(Isa::Avx2) => 1,
        Some(Isa::Sse2) => 2,
        Some(Isa::Scalar) => 3,
    };
    OVERRIDE.store(code, Ordering::SeqCst);
}

/// The ISA [`active`] currently dispatches to: the [`set_override`]
/// pin, else the `PBQP_DNN_FORCE_ISA` pin, else the best the host
/// supports.
pub fn active_isa() -> Isa {
    match OVERRIDE.load(Ordering::SeqCst) {
        1 => Isa::Avx2,
        2 => Isa::Sse2,
        3 => Isa::Scalar,
        _ => forced().unwrap_or_else(|| features().best()),
    }
}

/// The microkernel every dispatched caller (packed f32 GEMM, quantized
/// GEMM, int8 pointwise ops) uses right now. See [`active_isa`] for the
/// resolution order.
pub fn active() -> &'static dyn Microkernel {
    kernel_for(active_isa()).expect("active_isa is always executable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_best_is_ordered() {
        let f = CpuFeatures::detect();
        assert!(f.supports(Isa::Scalar));
        let best = f.best();
        assert!(f.supports(best));
        let kernels = available_kernels();
        assert!(!kernels.is_empty());
        assert_eq!(kernels[0].isa(), best);
        assert_eq!(kernels.last().unwrap().isa(), Isa::Scalar);
    }

    #[test]
    fn isa_names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::parse(&isa.name().to_ascii_uppercase()), Some(isa));
        }
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn override_changes_active_isa() {
        // Serialized with nothing: this test only flips between scalar
        // and auto, and asserts on active_isa() alone.
        set_override(Some(Isa::Scalar));
        assert_eq!(active_isa(), Isa::Scalar);
        assert_eq!(active().isa(), Isa::Scalar);
        set_override(None);
        assert_eq!(active_isa(), forced().unwrap_or_else(|| CpuFeatures::detect().best()));
    }

    #[test]
    fn pair_packing_zero_pads_depth_and_columns() {
        // 3×5 slab: odd depth and a ragged final panel.
        let b: Vec<i8> = (1..=15).map(|v| v as i8).collect();
        let mut dst = vec![99i8; packed_b_i8_bytes(5, 3)];
        pack_b_i8_pairs(&mut dst, &b, 5, 0, 3);
        // Panel 0, pair 0, column 0: rows 0 and 1 of column 0.
        assert_eq!(&dst[0..4], &[1, 6, 2, 7]);
        // Pair 1 (row 2 + padding).
        let pair1 = &dst[16..20];
        assert_eq!(pair1, &[11, 0, 12, 0]);
        // Columns 5..8 of the (only) panel are zero padding.
        assert_eq!(&dst[10..16], &[0; 6]);
    }
}
