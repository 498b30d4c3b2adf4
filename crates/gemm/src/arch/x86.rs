//! x86-64 SIMD microkernels (AVX2+FMA and SSE2).
//!
//! The only `unsafe` in the workspace lives here, and it is of exactly
//! one kind: calling `#[target_feature]` functions whose required CPU
//! features the dispatcher has already verified (construction of these
//! kernels is gated on [`super::CpuFeatures`], so the trait methods are
//! sound to call whenever the registry hands the kernel out), plus raw
//! loads/stores within bounds that are asserted or guaranteed by the
//! pack formats.
//!
//! int8 panels widen `i8 → i16` (`_mm256_cvtepi8_epi16` / compare-and-
//! unpack on SSE2) and reduce with `_mm{,256}_madd_epi16`: two k-steps
//! per column per instruction, exact for all `i8` inputs. The saturating
//! `_mm256_maddubs_epi16` (`u8 × i8`) would be one widening cheaper but
//! can saturate its intermediate `i16` sums and mis-handles `-128`, so
//! it cannot meet the bit-exactness contract on arbitrary codes.

#![allow(unsafe_code)]

use std::arch::x86_64::*;

use super::{Isa, Microkernel, F32_DOT_LANES, F32_MR, F32_NR, I8_MR, I8_NR};

// ---------------------------------------------------------------- AVX2

/// 256-bit kernels; requires AVX2 and FMA.
pub(super) struct Avx2Kernel;

impl Microkernel for Avx2Kernel {
    fn isa(&self) -> Isa {
        Isa::Avx2
    }

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
    ) {
        assert!(a_panel.len() >= pc * F32_MR && b_panel.len() >= pc * F32_NR, "short f32 panel");
        // SAFETY: this kernel is only reachable through the registry,
        // which refuses to hand it out unless AVX2+FMA are present; the
        // panel lengths were just asserted.
        unsafe { f32_panel_avx2(a_panel, b_panel, c, n, pc, r0, rh, j0, jw) }
    }

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
    ) {
        // SAFETY: dispatch-gated on AVX2 (see f32_panel).
        unsafe { i8_panel_avx2(a_pairs, pc, b_panel, c, ldc, row0, rh, j0, jw) }
    }

    fn f32_dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot operands differ in length");
        // SAFETY: dispatch-gated on AVX2+FMA (see f32_panel); the loads
        // stay inside the slices, whose equal length was just asserted.
        unsafe { f32_dot_avx2(a, b) }
    }

    fn i8_relu(&self, src: &[i8], zp: i8, dst: &mut [i8]) {
        assert!(dst.len() >= src.len(), "relu dst too small");
        // SAFETY: dispatch-gated on AVX2 (see f32_panel).
        unsafe { i8_relu_avx2(src, zp, dst) }
    }

    fn i8_minmax(&self, src: &[i8]) -> (i8, i8) {
        // SAFETY: dispatch-gated on AVX2 (see f32_panel).
        unsafe { i8_minmax_avx2(src) }
    }
}

/// `F32_MR` rows × `F32_NR / 8` vectors of accumulators (6 × 2 = 12
/// ymm registers); each depth step loads the B vectors once and
/// broadcasts one A element per row.
///
/// # Safety
///
/// Requires AVX2 and FMA, `a_panel.len() >= pc · F32_MR` and
/// `b_panel.len() >= pc · F32_NR`.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_panel_avx2(
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    n: usize,
    pc: usize,
    r0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
) {
    const V: usize = F32_NR / 8;
    let mut acc = [[_mm256_setzero_ps(); V]; F32_MR];
    let ap = a_panel.as_ptr();
    let bp = b_panel.as_ptr();
    for p in 0..pc {
        let b: [__m256; V] = std::array::from_fn(|v| _mm256_loadu_ps(bp.add(p * F32_NR + 8 * v)));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ap.add(p * F32_MR + r));
            for (slot, &bv) in row.iter_mut().zip(&b) {
                *slot = _mm256_fmadd_ps(av, bv, *slot);
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rh) {
        let c_row = &mut c[(r0 + r) * n + j0..(r0 + r) * n + j0 + jw];
        if jw == F32_NR {
            for (v, &a) in row.iter().enumerate() {
                let cp = c_row.as_mut_ptr().add(8 * v);
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), a));
            }
        } else {
            let mut spill = [0.0f32; F32_NR];
            for (v, &a) in row.iter().enumerate() {
                _mm256_storeu_ps(spill.as_mut_ptr().add(8 * v), a);
            }
            for (cv, &av) in c_row.iter_mut().zip(spill.iter()) {
                *cv += av;
            }
        }
    }
}

/// The reference order of [`Microkernel::f32_dot`] with fused
/// multiply-adds: accumulator `k` holds virtual lanes `8k..8k + 8`, and
/// the reduction is the same pairwise tree (16, 8, 4, 2, 1 lanes apart).
///
/// # Safety
///
/// Requires AVX2 and FMA, and `a.len() == b.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn f32_dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut i = 0;
    while i + F32_DOT_LANES <= n {
        for (k, slot) in acc.iter_mut().enumerate() {
            let x = _mm256_loadu_ps(ap.add(i + 8 * k));
            let y = _mm256_loadu_ps(bp.add(i + 8 * k));
            *slot = _mm256_fmadd_ps(x, y, *slot);
        }
        i += F32_DOT_LANES;
    }
    let by16 = [_mm256_add_ps(acc[0], acc[2]), _mm256_add_ps(acc[1], acc[3])];
    let by8 = _mm256_add_ps(by16[0], by16[1]);
    let by4 = _mm_add_ps(_mm256_castps256_ps128(by8), _mm256_extractf128_ps(by8, 1));
    let by2 = _mm_add_ps(by4, _mm_movehl_ps(by4, by4));
    let by1 = _mm_add_ss(by2, _mm_shuffle_ps(by2, by2, 0b01));
    let mut sum = _mm_cvtss_f32(by1);
    for j in i..n {
        sum = (*ap.add(j)).mul_add(*bp.add(j), sum);
    }
    sum
}

#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn i8_panel_avx2(
    a_pairs: &[i32],
    pc: usize,
    b_panel: &[i8],
    c: &mut [i32],
    ldc: usize,
    row0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
) {
    let pc2 = pc.div_ceil(2);
    debug_assert!(b_panel.len() >= pc2 * I8_NR * 2 && a_pairs.len() >= pc2 * I8_MR);
    let mut acc = [_mm256_setzero_si256(); I8_MR];
    let bp = b_panel.as_ptr();
    let ap = a_pairs.as_ptr();
    for p2 in 0..pc2 {
        // 16 bytes = the two k-steps of this pair for all 8 columns.
        let b16 = _mm_loadu_si128(bp.add(p2 * I8_NR * 2) as *const __m128i);
        let bw = _mm256_cvtepi8_epi16(b16);
        for (r, slot) in acc.iter_mut().take(rh).enumerate() {
            // One vpbroadcastd from the prebuilt pair block.
            let av = _mm256_set1_epi32(*ap.add(p2 * I8_MR + r));
            *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(av, bw));
        }
    }
    for r in 0..rh {
        let c_row = &mut c[(row0 + r) * ldc + j0..(row0 + r) * ldc + j0 + jw];
        if jw == I8_NR {
            let cur = _mm256_loadu_si256(c_row.as_ptr() as *const __m256i);
            _mm256_storeu_si256(c_row.as_mut_ptr() as *mut __m256i, _mm256_add_epi32(cur, acc[r]));
        } else {
            let mut spill = [0i32; I8_NR];
            _mm256_storeu_si256(spill.as_mut_ptr() as *mut __m256i, acc[r]);
            for (cv, &av) in c_row.iter_mut().zip(spill.iter()) {
                *cv += av;
            }
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn i8_relu_avx2(src: &[i8], zp: i8, dst: &mut [i8]) {
    let zpv = _mm256_set1_epi8(zp);
    let n = src.len();
    let mut i = 0;
    while i + 32 <= n {
        let v = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        let m = _mm256_max_epi8(v, zpv);
        _mm256_storeu_si256(dst.as_mut_ptr().add(i) as *mut __m256i, m);
        i += 32;
    }
    for j in i..n {
        dst[j] = src[j].max(zp);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn i8_minmax_avx2(src: &[i8]) -> (i8, i8) {
    let n = src.len();
    let (mut lo, mut hi) = (i8::MAX, i8::MIN);
    let mut i = 0;
    if n >= 32 {
        let mut vlo = _mm256_set1_epi8(i8::MAX);
        let mut vhi = _mm256_set1_epi8(i8::MIN);
        while i + 32 <= n {
            let v = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
            vlo = _mm256_min_epi8(vlo, v);
            vhi = _mm256_max_epi8(vhi, v);
            i += 32;
        }
        let mut slo = [0i8; 32];
        let mut shi = [0i8; 32];
        _mm256_storeu_si256(slo.as_mut_ptr() as *mut __m256i, vlo);
        _mm256_storeu_si256(shi.as_mut_ptr() as *mut __m256i, vhi);
        for j in 0..32 {
            lo = lo.min(slo[j]);
            hi = hi.max(shi[j]);
        }
    }
    for &q in &src[i..] {
        lo = lo.min(q);
        hi = hi.max(q);
    }
    (lo, hi)
}

// ---------------------------------------------------------------- SSE2

/// 128-bit kernels; SSE2 is architecturally guaranteed on x86-64, so
/// this tier is always available there — the "degraded but still SIMD"
/// fallback the CI matrix pins.
pub(super) struct Sse2Kernel;

impl Microkernel for Sse2Kernel {
    fn isa(&self) -> Isa {
        Isa::Sse2
    }

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
    ) {
        assert!(a_panel.len() >= pc * F32_MR && b_panel.len() >= pc * F32_NR, "short f32 panel");
        // SAFETY: SSE2 is part of the x86-64 baseline; the panel lengths
        // were just asserted.
        unsafe { f32_panel_sse2(a_panel, b_panel, c, n, pc, r0, rh, j0, jw) }
    }

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
    ) {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { i8_panel_sse2(a_pairs, pc, b_panel, c, ldc, row0, rh, j0, jw) }
    }

    fn i8_relu(&self, src: &[i8], zp: i8, dst: &mut [i8]) {
        assert!(dst.len() >= src.len(), "relu dst too small");
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { i8_relu_sse2(src, zp, dst) }
    }
}

/// `F32_MR` rows × `F32_NR / 4` quads of accumulators.
///
/// # Safety
///
/// Requires SSE2, `a_panel.len() >= pc · F32_MR` and
/// `b_panel.len() >= pc · F32_NR`.
#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
unsafe fn f32_panel_sse2(
    a_panel: &[f32],
    b_panel: &[f32],
    c: &mut [f32],
    n: usize,
    pc: usize,
    r0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
) {
    // Mul then add, the exact rounding sequence of the scalar kernel —
    // bit-identical to it.
    const Q: usize = F32_NR / 4;
    let mut acc = [[_mm_setzero_ps(); Q]; F32_MR];
    let ap = a_panel.as_ptr();
    let bp = b_panel.as_ptr();
    for p in 0..pc {
        let b: [__m128; Q] = std::array::from_fn(|q| _mm_loadu_ps(bp.add(p * F32_NR + 4 * q)));
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm_set1_ps(*ap.add(p * F32_MR + r));
            for (slot, &bq) in row.iter_mut().zip(&b) {
                *slot = _mm_add_ps(*slot, _mm_mul_ps(av, bq));
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rh) {
        let c_row = &mut c[(r0 + r) * n + j0..(r0 + r) * n + j0 + jw];
        if jw == F32_NR {
            for (q, &a) in row.iter().enumerate() {
                let cp = c_row.as_mut_ptr().add(4 * q);
                _mm_storeu_ps(cp, _mm_add_ps(_mm_loadu_ps(cp), a));
            }
        } else {
            let mut spill = [0.0f32; F32_NR];
            for (q, &a) in row.iter().enumerate() {
                _mm_storeu_ps(spill.as_mut_ptr().add(4 * q), a);
            }
            for (cv, &av) in c_row.iter_mut().zip(spill.iter()) {
                *cv += av;
            }
        }
    }
}

#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
unsafe fn i8_panel_sse2(
    a_pairs: &[i32],
    pc: usize,
    b_panel: &[i8],
    c: &mut [i32],
    ldc: usize,
    row0: usize,
    rh: usize,
    j0: usize,
    jw: usize,
) {
    let pc2 = pc.div_ceil(2);
    debug_assert!(b_panel.len() >= pc2 * I8_NR * 2 && a_pairs.len() >= pc2 * I8_MR);
    // Columns 0..4 accumulate in the lo half, 4..8 in the hi half.
    let mut acc = [[_mm_setzero_si128(); 2]; I8_MR];
    let bp = b_panel.as_ptr();
    let ap = a_pairs.as_ptr();
    let zero = _mm_setzero_si128();
    for p2 in 0..pc2 {
        let v = _mm_loadu_si128(bp.add(p2 * I8_NR * 2) as *const __m128i);
        // Sign-extend 16 i8 to 2×8 i16 without SSE4.1: unpack against
        // the sign mask.
        let sign = _mm_cmpgt_epi8(zero, v);
        let w_lo = _mm_unpacklo_epi8(v, sign);
        let w_hi = _mm_unpackhi_epi8(v, sign);
        for (r, slot) in acc.iter_mut().take(rh).enumerate() {
            let av = _mm_set1_epi32(*ap.add(p2 * I8_MR + r));
            slot[0] = _mm_add_epi32(slot[0], _mm_madd_epi16(av, w_lo));
            slot[1] = _mm_add_epi32(slot[1], _mm_madd_epi16(av, w_hi));
        }
    }
    for r in 0..rh {
        let c_row = &mut c[(row0 + r) * ldc + j0..(row0 + r) * ldc + j0 + jw];
        if jw == I8_NR {
            let cur_lo = _mm_loadu_si128(c_row.as_ptr() as *const __m128i);
            let cur_hi = _mm_loadu_si128(c_row.as_ptr().add(4) as *const __m128i);
            _mm_storeu_si128(c_row.as_mut_ptr() as *mut __m128i, _mm_add_epi32(cur_lo, acc[r][0]));
            _mm_storeu_si128(
                c_row.as_mut_ptr().add(4) as *mut __m128i,
                _mm_add_epi32(cur_hi, acc[r][1]),
            );
        } else {
            let mut spill = [0i32; I8_NR];
            _mm_storeu_si128(spill.as_mut_ptr() as *mut __m128i, acc[r][0]);
            _mm_storeu_si128(spill.as_mut_ptr().add(4) as *mut __m128i, acc[r][1]);
            for (cv, &av) in c_row.iter_mut().zip(spill.iter()) {
                *cv += av;
            }
        }
    }
}

#[target_feature(enable = "sse2")]
unsafe fn i8_relu_sse2(src: &[i8], zp: i8, dst: &mut [i8]) {
    // SSE2 has no max_epi8; bias into u8 space, max_epu8, bias back.
    let bias = _mm_set1_epi8(i8::MIN);
    let zpv = _mm_xor_si128(_mm_set1_epi8(zp), bias);
    let n = src.len();
    let mut i = 0;
    while i + 16 <= n {
        let v = _mm_xor_si128(_mm_loadu_si128(src.as_ptr().add(i) as *const __m128i), bias);
        let m = _mm_xor_si128(_mm_max_epu8(v, zpv), bias);
        _mm_storeu_si128(dst.as_mut_ptr().add(i) as *mut __m128i, m);
        i += 16;
    }
    for j in i..n {
        dst[j] = src[j].max(zp);
    }
}
