//! Differential kernel tests: every micro-kernel the host can execute
//! vs the naive reference, across randomized shapes, zero points, and
//! thread counts.
//!
//! The contract under test (see `pbqp_dnn_gemm::arch`):
//!
//! * **int8 is bit-exact on every ISA** — integer addition is
//!   associative, so any accumulation order gives the same words;
//! * **SSE2 f32 is bit-identical to scalar** — it reproduces the
//!   mul-then-add rounding sequence with the same k-order;
//! * **AVX2 f32 is ULP-close** — FMA skips the intermediate rounding,
//!   so it is *more* accurate, not identical; we bound it against an
//!   f64 reference;
//! * **`f32_dot` has one reference order** — scalar and SSE2 share the
//!   trait's default body bit for bit, AVX2 keeps its lanes and tree
//!   with FMAs, and every ISA meets the documented error bound.

use pbqp_dnn_gemm::arch::{self, Isa};
use pbqp_dnn_gemm::{Gemm, GemmKind, QuantGemm, Trans};

/// splitmix64: tiny deterministic PRNG, the repo-wide test idiom.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn i8s(&mut self, len: usize) -> Vec<i8> {
        (0..len).map(|_| self.next() as i8).collect()
    }

    fn f32s(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| (self.next() % 2000) as f32 / 1000.0 - 1.0).collect()
    }
}

fn naive_quant(m: usize, n: usize, k: usize, a: &[i8], a_zp: i32, b: &[i8], b_zp: i32) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += (i32::from(a[i * k + p]) - a_zp) * (i32::from(b[p * n + j]) - b_zp);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

fn naive_f64(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f64> {
    let mut c = vec![0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f64;
            for p in 0..k {
                acc += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Shapes chosen to hit every remainder path: odd k (pair-packing
/// tail), ragged n (partial column panel), m off the MR grid, and
/// degenerate tiny dims — for both the 4×8 int8 block and the 6×16 f32
/// block (m ∈ {1, 5, 7, 13} around 6 and 12, n ∈ {1, 15, 17, 33} around
/// 16 and 32).
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (4, 8, 16),
    (5, 9, 7),
    (13, 21, 77),
    (16, 24, 33),
    (3, 17, 129),
    (31, 7, 258),
    (64, 40, 300),
    (1, 15, 9),
    (5, 17, 40),
    (7, 33, 23),
    (13, 1, 5),
    (6, 16, 257),
    (12, 32, 64),
];

#[test]
fn int8_every_isa_matches_the_naive_reference_bit_for_bit() {
    for kernel in arch::available_kernels() {
        let isa = kernel.isa();
        let mut rng = Rng(0xD1FF_0001);
        for &(m, n, k) in SHAPES {
            for &(a_zp, b_zp) in &[(0, 0), (3, -9), (-127, 127), (127, -127)] {
                let a = rng.i8s(m * k);
                let b = rng.i8s(k * n);
                let want = naive_quant(m, n, k, &a, a_zp, &b, b_zp);
                for threads in [1, 4] {
                    let g = QuantGemm::new().threads(threads).isa(Some(isa));
                    let mut c = vec![0i32; m * n];
                    g.run(m, n, k, &a, a_zp, &b, b_zp, &mut c);
                    assert_eq!(c, want, "{isa} {m}x{n}x{k} zp=({a_zp},{b_zp}) t={threads}");
                }
            }
        }
    }
}

#[test]
fn int8_dirty_scratch_reuse_is_bit_identical_on_every_isa() {
    for kernel in arch::available_kernels() {
        let isa = kernel.isa();
        let mut rng = Rng(0xD1FF_0002);
        let g = QuantGemm::new().isa(Some(isa));
        // One scratch buffer sized for the largest shape, deliberately
        // poisoned between calls: contents on entry must not matter.
        let cap = SHAPES.iter().map(|&(m, n, k)| g.scratch_elems(m, n, k)).max().unwrap();
        let mut scratch = vec![0i32; cap];
        for &(m, n, k) in SHAPES {
            let a = rng.i8s(m * k);
            let b = rng.i8s(k * n);
            let want = naive_quant(m, n, k, &a, 5, &b, -3);
            scratch.fill(i32::MIN | 0x5a5a5a5a);
            let mut c = vec![i32::MAX; m * n];
            g.run_with_scratch(m, n, k, &a, 5, &b, -3, &mut c, &mut scratch);
            assert_eq!(c, want, "{isa} {m}x{n}x{k}");
        }
    }
}

#[test]
fn f32_every_isa_stays_within_float_tolerance_of_f64() {
    for kernel in arch::available_kernels() {
        let isa = kernel.isa();
        let mut rng = Rng(0xD1FF_0003);
        for &(m, n, k) in SHAPES {
            let a = rng.f32s(m * k);
            let b = rng.f32s(k * n);
            let want = naive_f64(m, n, k, &a, &b);
            let g = Gemm::new(GemmKind::Packed).isa(Some(isa));
            let mut c = vec![0.0f32; m * n];
            g.run(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &mut c);
            for (i, (&got, &exact)) in c.iter().zip(want.iter()).enumerate() {
                let err = (f64::from(got) - exact).abs();
                // Forward-error bound for k-term f32 accumulation.
                let tol = 1e-5 * (k as f64) * exact.abs().max(1.0);
                assert!(err <= tol, "{isa} {m}x{n}x{k} [{i}]: {got} vs {exact}");
            }
        }
    }
}

#[test]
fn f32_sse2_is_bit_identical_to_scalar() {
    if arch::kernel_for(Isa::Sse2).is_none() {
        return;
    }
    let mut rng = Rng(0xD1FF_0004);
    for &(m, n, k) in SHAPES {
        let a = rng.f32s(m * k);
        let b = rng.f32s(k * n);
        let mut c_scalar = vec![0.0f32; m * n];
        let mut c_sse2 = vec![0.0f32; m * n];
        Gemm::new(GemmKind::Packed).isa(Some(Isa::Scalar)).run(
            Trans::N,
            Trans::N,
            m,
            n,
            k,
            &a,
            &b,
            0.0,
            &mut c_scalar,
        );
        Gemm::new(GemmKind::Packed).isa(Some(Isa::Sse2)).run(
            Trans::N,
            Trans::N,
            m,
            n,
            k,
            &a,
            &b,
            0.0,
            &mut c_sse2,
        );
        // Same mul-then-add rounding in the same k-order: exact match.
        assert_eq!(
            c_scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c_sse2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{m}x{n}x{k}"
        );
    }
}

#[test]
fn f32_multithreaded_matches_serial_bit_for_bit_on_every_isa() {
    for kernel in arch::available_kernels() {
        let isa = kernel.isa();
        let mut rng = Rng(0xD1FF_0005);
        let (m, n, k) = (300, 40, 64);
        let a = rng.f32s(m * k);
        let b = rng.f32s(k * n);
        let mut c1 = vec![0.0f32; m * n];
        let mut c4 = vec![0.0f32; m * n];
        let g1 = Gemm::new(GemmKind::Packed).isa(Some(isa));
        let g4 = g1.threads(4);
        g1.run(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &mut c1);
        g4.run(Trans::N, Trans::N, m, n, k, &a, &b, 0.0, &mut c4);
        assert_eq!(
            c1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c4.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{isa}"
        );
    }
}

#[test]
fn relu_and_minmax_match_scalar_on_every_isa() {
    let scalar = arch::kernel_for(Isa::Scalar).unwrap();
    let mut rng = Rng(0xD1FF_0006);
    // Lengths straddling the 16/32-byte vector widths and their tails.
    for len in [0, 1, 15, 16, 17, 31, 32, 33, 100, 1023] {
        let src = rng.i8s(len);
        for kernel in arch::available_kernels() {
            for zp in [-128i8, -5, 0, 7, 127] {
                let mut want = vec![0i8; len];
                let mut got = vec![0i8; len];
                scalar.i8_relu(&src, zp, &mut want);
                kernel.i8_relu(&src, zp, &mut got);
                assert_eq!(got, want, "relu {} len={len} zp={zp}", kernel.isa());
            }
            assert_eq!(kernel.i8_minmax(&src), scalar.i8_minmax(&src), "minmax len={len}");
        }
    }
}

#[test]
fn f32_dot_keeps_the_reference_order_on_every_isa() {
    let scalar = arch::kernel_for(Isa::Scalar).unwrap();
    let mut rng = Rng(0xD1FF_0007);
    // Every chunk/tail split around the 32-lane width, plus AlexNet's
    // fc6 row length.
    for len in (0..=70).chain([9216]) {
        let a = rng.f32s(len);
        let b = rng.f32s(len);
        let want = scalar.f32_dot(&a, &b);
        let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        let magnitude: f64 = a.iter().zip(&b).map(|(&x, &y)| f64::from(x * y).abs()).sum();
        // The documented bound: (len/16 + 72)·ε·Σ|aᵢbᵢ| from the exact
        // value, with ε = 2⁻²⁴.
        let bound = (len as f64 / 16.0 + 72.0) * 2f64.powi(-24) * magnitude;
        for kernel in arch::available_kernels() {
            let got = kernel.f32_dot(&a, &b);
            match kernel.isa() {
                Isa::Scalar | Isa::Sse2 => {
                    assert_eq!(got.to_bits(), want.to_bits(), "{} len={len}", kernel.isa())
                }
                Isa::Avx2 => {}
            }
            let err = (f64::from(got) - exact).abs();
            assert!(
                err <= bound,
                "{} len={len}: |{got} - {exact}| = {err} > {bound}",
                kernel.isa()
            );
        }
    }
}

#[test]
#[should_panic(expected = "dot operands differ in length")]
fn f32_dot_rejects_ragged_operands() {
    arch::active().f32_dot(&[1.0, 2.0], &[1.0]);
}
