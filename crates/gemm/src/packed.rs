//! Panel-packing GEMM with a 6×16 register micro-kernel.
//!
//! This follows the classic Goto/BLIS structure: B is packed into
//! column panels of width [`NR`], A into row panels of height [`MR`], and
//! the micro-kernel keeps a 6×16 accumulator block entirely in registers
//! — the BLIS Haswell sgemm shape (Low et al., *Analytical Modeling Is
//! Enough for High-Performance BLIS*, TOMS 2016): twelve 8-lane FMA
//! chains, enough to cover the FMA latency on both ports. The
//! micro-kernel itself is not fixed: the driver takes a [`Microkernel`]
//! selected by runtime CPU-feature dispatch (see [`crate::arch`]), so the
//! same packing and blocking structure runs an AVX2 FMA kernel, an SSE2
//! kernel, or the portable scalar reference.
//!
//! Packing reads either operand as stored or transposed ([`Trans`]), so
//! a T-form operand is never materialized: its transpose happens while
//! the panels are built, which touches every element once anyway.

use crate::arch::{Microkernel, F32_MR as MR, F32_NR as NR};
use crate::Trans;

const KC: usize = 256;
/// Rows of A per packed block: a multiple of [`MR`], so the last row
/// panel of a full block stays inside the `MC·KC` buffer.
const MC: usize = 120;
const _: () = assert!(MC.is_multiple_of(MR));

/// Elements of one A row-panel buffer (one per worker).
pub(crate) const fn a_pack_elems() -> usize {
    MC * KC
}

/// Elements of the shared B column-panel buffer for an `n`-wide C and
/// depth `k`: one slab of at most `KC` rows.
pub(crate) fn b_pack_elems(n: usize, k: usize) -> usize {
    KC.min(k) * n.div_ceil(NR) * NR
}

/// Worker count [`gemm`] will actually use.
pub(crate) fn workers(m: usize, threads: usize) -> usize {
    threads.max(1).min(m.div_ceil(MC).max(1))
}

/// `C = op(A)·op(B) + β·C` over caller-provided pack panels: `packs`
/// holds at least [`b_pack_elems`]`(n, k) + `[`workers`]`(m, threads) ·`
/// [`a_pack_elems`] elements (B panel first, then one A panel per
/// worker).
///
/// Each k-slab of B is packed **once** and shared read-only by every
/// worker; contiguous row ranges of C, on `MC` block boundaries, fan out
/// over scoped threads per slab (with one worker, the slab runs inline).
/// Every element of C therefore accumulates the same per-slab partial
/// sums in the same ascending slab order whatever the thread count: the
/// parallel path is bit-identical to the serial one.
#[allow(clippy::too_many_arguments)] // BLAS-shaped signature
pub(crate) fn gemm(
    mk: &dyn Microkernel,
    ta: Trans,
    tb: Trans,
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
    let c = &mut c[..m * n];
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    let workers = workers(m, threads);
    let rows_per = m.div_ceil(MC).div_ceil(workers) * MC;
    let (b_pack, a_packs) = packs.split_at_mut(b_pack_elems(n, k));
    for p0 in (0..k).step_by(KC) {
        let pc = KC.min(k - p0);
        pack_b(b_pack, tb, b, n, k, p0, pc);
        let b_pack = &*b_pack;
        let run = |(w, (c_slab, a_pack)): (usize, (&mut [f32], &mut [f32]))| {
            let rows = c_slab.len() / n;
            for i0 in (0..rows).step_by(MC) {
                let ic = MC.min(rows - i0);
                pack_a(a_pack, ta, a, m, k, w * rows_per + i0, ic, p0, pc);
                macro_kernel(mk, a_pack, b_pack, c_slab, n, i0, ic, pc);
            }
        };
        let slabs = c.chunks_mut(rows_per * n).zip(a_packs.chunks_mut(a_pack_elems())).enumerate();
        if workers == 1 {
            slabs.for_each(run);
        } else {
            std::thread::scope(|scope| {
                for slab in slabs {
                    scope.spawn(move || run(slab));
                }
            });
        }
    }
}

/// Packs the `pc`-deep slab of B at depth `p0` into `NR`-wide column
/// panels, zero-padding the final partial panel. B is `k × n` as stored
/// (`Trans::N`) or stored `n × k` (`Trans::T`).
fn pack_b(dst: &mut [f32], tb: Trans, b: &[f32], n: usize, k: usize, p0: usize, pc: usize) {
    let panels = n.div_ceil(NR);
    for (jp, panel) in dst[..panels * pc * NR].chunks_exact_mut(pc * NR).enumerate() {
        let j0 = jp * NR;
        let jw = NR.min(n - j0);
        match tb {
            Trans::N => pack_strips::<NR>(panel, b, n, j0, jw, p0),
            Trans::T => pack_rows::<NR>(panel, b, k, j0, jw, p0),
        }
    }
}

/// Packs rows `i0..i0 + ic` of A, depth `p0..p0 + pc`, into `MR`-tall
/// row panels, zero-padding the final partial panel. A is `m × k` as
/// stored (`Trans::N`) or stored `k × m` (`Trans::T`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    dst: &mut [f32],
    ta: Trans,
    a: &[f32],
    m: usize,
    k: usize,
    i0: usize,
    ic: usize,
    p0: usize,
    pc: usize,
) {
    let panels = ic.div_ceil(MR);
    for (ip, panel) in dst[..panels * pc * MR].chunks_exact_mut(pc * MR).enumerate() {
        let r0 = i0 + ip * MR;
        let rh = MR.min(i0 + ic - r0);
        match ta {
            Trans::N => pack_rows::<MR>(panel, a, k, r0, rh, p0),
            Trans::T => pack_strips::<MR>(panel, a, m, r0, rh, p0),
        }
    }
}

/// Interleaves the `w ≤ W` stored rows `first..first + w` (row stride
/// `ld`) from column `p0` on into `W`-wide depth steps:
/// `panel[p·W + r] = src[(first + r)·ld + p0 + p]`. Missing rows are zero.
fn pack_rows<const W: usize>(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    first: usize,
    w: usize,
    p0: usize,
) {
    let pc = panel.len() / W;
    let row = |r: usize| &src[(first + r) * ld + p0..][..pc];
    if w == W {
        let rows: [&[f32]; W] = std::array::from_fn(row);
        for (p, out) in panel.chunks_exact_mut(W).enumerate() {
            for (o, r) in out.iter_mut().zip(&rows) {
                *o = r[p];
            }
        }
    } else {
        panel.fill(0.0);
        for r in 0..w {
            for (out, &v) in panel[r..].iter_mut().step_by(W).zip(row(r)) {
                *out = v;
            }
        }
    }
}

/// Copies the `w ≤ W` contiguous elements `first..first + w` of each
/// stored row from `p0` on (row stride `ld`) into `W`-wide depth steps:
/// `panel[p·W + j] = src[(p0 + p)·ld + first + j]`. Missing columns are
/// zero.
fn pack_strips<const W: usize>(
    panel: &mut [f32],
    src: &[f32],
    ld: usize,
    first: usize,
    w: usize,
    p0: usize,
) {
    for (p, out) in panel.chunks_exact_mut(W).enumerate() {
        let start = (p0 + p) * ld + first;
        out[..w].copy_from_slice(&src[start..start + w]);
        out[w..].fill(0.0);
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
