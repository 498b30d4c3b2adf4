//! Panel-packing GEMM with a 4×8 register micro-kernel.
//!
//! This follows the classic Goto/BLIS structure: B is packed into
//! column panels of width [`NR`], A into row panels of height [`MR`], and
//! the micro-kernel keeps a 4×8 accumulator block entirely in registers.
//! The micro-kernel itself is no longer fixed: the drivers take a
//! [`Microkernel`] selected by runtime CPU-feature dispatch (see
//! [`crate::arch`]), so the same packing and blocking structure runs an
//! AVX2 FMA kernel, an SSE2 kernel, or the portable scalar reference.

use crate::arch::{Microkernel, F32_MR as MR, F32_NR as NR};

const KC: usize = 256;
const MC: usize = 128;

/// Elements of one A row-panel buffer (one per worker).
pub(crate) const fn a_pack_elems() -> usize {
    MC * KC
}

/// Elements of the shared B column-panel buffer for an `n`-wide C and
/// depth `k`: one slab of at most `KC` rows.
pub(crate) fn b_pack_elems(n: usize, k: usize) -> usize {
    KC.min(k) * n.div_ceil(NR) * NR
}

/// Worker count the multithreaded driver will actually use.
pub(crate) fn mt_workers(m: usize, threads: usize) -> usize {
    let blocks = m.div_ceil(MC);
    threads.max(1).min(blocks.max(1))
}

/// `C = A·B + β·C` with both operands in N form, using caller-provided
/// pack panels: `a_pack` holds at least [`a_pack_elems`], `b_pack` at
/// least [`b_pack_elems`]`(n, k)` elements.
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
pub(crate) fn gemm_nn_ws(
    mk: &dyn Microkernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    a_pack: &mut [f32],
    b_pack: &mut [f32],
) {
    if beta == 0.0 {
        c[..m * n].fill(0.0);
    } else if beta != 1.0 {
        for v in c[..m * n].iter_mut() {
            *v *= beta;
        }
    }

    let a_pack = &mut a_pack[..a_pack_elems()];
    let b_pack = &mut b_pack[..b_pack_elems(n, k)];

    for p0 in (0..k).step_by(KC) {
        let pc = KC.min(k - p0);
        pack_b(b_pack, b, n, k, p0, pc);
        for i0 in (0..m).step_by(MC) {
            let ic = MC.min(m - i0);
            pack_a(a_pack, a, k, i0, ic, p0, pc);
            macro_kernel(mk, a_pack, b_pack, c, n, i0, ic, pc);
        }
    }
}

/// Multithreaded `C = A·B + β·C`: each k-slab of B is packed **once** and
/// shared read-only by every worker (the row-slab driver would re-pack it
/// per thread), with contiguous row ranges of C fanned out over scoped
/// threads per slab. The packing workspace stays at the serial kernel's
/// `O(KC·n)` — one slab at a time — and each worker keeps a persistent
/// A-panel buffer across slabs.
///
/// The k-slabs advance in the same ascending order as [`gemm_nn_ws`] and
/// worker boundaries fall on `MC` row-block boundaries, so every element
/// of C accumulates its partial products in exactly the serial order —
/// the parallel path is bit-identical to the serial one.
/// The caller provides the packing workspace: `packs` holds at least
/// [`b_pack_elems`]`(n, k) + `[`mt_workers`]`(m, threads) ·`
/// [`a_pack_elems`] elements (B panel first, then one A panel per
/// worker).
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
pub(crate) fn gemm_nn_mt_ws(
    mk: &dyn Microkernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    threads: usize,
    packs: &mut [f32],
) {
    // With a single row block there is nothing to fan out.
    let blocks = m.div_ceil(MC);
    let workers = mt_workers(m, threads);
    if workers <= 1 {
        let (b_pack, a_pack) = packs.split_at_mut(b_pack_elems(n, k));
        return gemm_nn_ws(mk, m, n, k, a, b, beta, c, a_pack, b_pack);
    }

    // Scale C by beta once up front, exactly like the serial kernel.
    if beta == 0.0 {
        c[..m * n].fill(0.0);
    } else if beta != 1.0 {
        for v in c[..m * n].iter_mut() {
            *v *= beta;
        }
    }

    // Pre-split C into per-worker row slabs (on MC block boundaries) and
    // give each worker a persistent A-panel buffer.
    let blocks_per = blocks.div_ceil(workers);
    let mut parts: Vec<(usize, &mut [f32])> = Vec::with_capacity(workers);
    let mut c_rest = &mut c[..m * n];
    let mut row = 0;
    while !c_rest.is_empty() {
        let rows = (blocks_per * MC).min(c_rest.len() / n);
        let (c_slab, c_next) = c_rest.split_at_mut(rows * n);
        c_rest = c_next;
        parts.push((row, c_slab));
        row += rows;
    }

    let (b_pack, a_packs) = packs.split_at_mut(b_pack_elems(n, k));
    for p0 in (0..k).step_by(KC) {
        let pc = KC.min(k - p0);
        pack_b(b_pack, b, n, k, p0, pc);
        let b_pack = &*b_pack;
        std::thread::scope(|scope| {
            for ((row0, c_slab), a_pack) in parts.iter_mut().zip(a_packs.chunks_mut(a_pack_elems()))
            {
                let row0 = *row0;
                scope.spawn(move || {
                    let rows = c_slab.len() / n;
                    for i0 in (0..rows).step_by(MC) {
                        let ic = MC.min(rows - i0);
                        pack_a(a_pack, a, k, row0 + i0, ic, p0, pc);
                        macro_kernel(mk, a_pack, b_pack, c_slab, n, i0, ic, pc);
                    }
                });
            }
        });
    }
}

/// Packs a `pc × n` horizontal slab of B into `NR`-wide column panels,
/// zero-padding the final partial panel.
fn pack_b(dst: &mut [f32], b: &[f32], n: usize, _k: usize, p0: usize, pc: usize) {
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        let base = jp * pc * NR;
        for p in 0..pc {
            let src = &b[(p0 + p) * n + j0..(p0 + p) * n + j0 + jw];
            let out = &mut dst[base + p * NR..base + p * NR + NR];
            out[..jw].copy_from_slice(src);
            out[jw..].fill(0.0);
        }
    }
}

/// Packs an `ic × pc` block of A into `MR`-tall row panels, zero-padding the
/// final partial panel.
fn pack_a(dst: &mut [f32], a: &[f32], k: usize, i0: usize, ic: usize, p0: usize, pc: usize) {
    let panels = ic.div_ceil(MR);
    for (ip, panel) in dst[..panels * pc * MR].chunks_exact_mut(pc * MR).enumerate() {
        let r0 = i0 + ip * MR;
        let rh = MR.min(i0 + ic - r0);
        let row = |r: usize| &a[(r0 + r) * k + p0..][..pc];
        if rh == MR {
            let rows: [&[f32]; MR] = std::array::from_fn(row);
            for (p, out) in panel.chunks_exact_mut(MR).enumerate() {
                for (o, r) in out.iter_mut().zip(&rows) {
                    *o = r[p];
                }
            }
        } else {
            panel.fill(0.0);
            for r in 0..rh {
                for (out, &v) in panel[r..].iter_mut().step_by(MR).zip(row(r)) {
                    *out = v;
                }
            }
        }
    }
}

/// Runs the dispatched micro-kernel over every (row panel, column
/// panel) pair.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    mk: &dyn Microkernel,
    a_pack: &[f32],
    b_pack: &[f32],
    c: &mut [f32],
    n: usize,
    i0: usize,
    ic: usize,
    pc: usize,
) {
    let row_panels = ic.div_ceil(MR);
    let col_panels = n.div_ceil(NR);
    for ip in 0..row_panels {
        let a_panel = &a_pack[ip * pc * MR..(ip + 1) * pc * MR];
        let r0 = i0 + ip * MR;
        let rh = MR.min(i0 + ic - r0);
        for jp in 0..col_panels {
            let b_panel = &b_pack[jp * pc * NR..(jp + 1) * pc * NR];
            let j0 = jp * NR;
            let jw = NR.min(n - j0);
            mk.f32_panel(a_panel, b_panel, c, n, pc, r0, rh, j0, jw);
        }
    }
}
