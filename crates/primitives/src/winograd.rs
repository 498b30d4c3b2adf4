//! The Winograd convolution family (§4): minimal-filtering algorithms
//! `F(m, r)` computing `m` correlation outputs from `m + r − 1` inputs with
//! the theoretically minimal number of multiplications.
//!
//! Transform matrices are generated by the Toom–Cook construction at the
//! interpolation points `{0, ±1, ±2, ±½, …, ∞}` (the construction used by
//! Lavin & Gray's `wincnn`), so a single implementation covers `F(2,3)`,
//! `F(4,3)`, `F(6,3)` and `F(2,5)`.
//!
//! # One body, four GEMMs
//!
//! Every variant runs the same body, Lavin & Gray's (2016) GEMM form. A
//! tile of `tv × n` inputs yields `mv × m` outputs through a separable
//! transform: vertical matrices `(Bvᵀ, Gv, Avᵀ)` and horizontal ones
//! `(Bhᵀ, Gh, Ahᵀ)`. A tile's inputs map one to one onto its `E = tv·n`
//! transform positions. Output tiles are processed in blocks of at most
//! [`BLOCK_TILES`]:
//!
//! 1. **Kernel** (per call): `U[e][m][c] = (Gv ⊗ Gh) · g[m][c]`.
//! 2. **Input**: gather the block's tiles into `D[p][c·T + t]` through the
//!    input layout's strides, then `V = (Bvᵀ ⊗ Bhᵀ) · D`, one GEMM.
//! 3. **Product**: `M_e = U_e · V_e` for every position `e`, `E` GEMMs of
//!    `M × C × T`.
//! 4. **Inverse**: `Y = (Avᵀ ⊗ Ahᵀ) · M`, one GEMM, scattered through the
//!    output layout's strides.
//!
//! | kind | `(Bvᵀ, Gv, Avᵀ)` | `(Bhᵀ, Gh, Ahᵀ)` | tile in → out | `E` |
//! |---|---|---|---|---|
//! | 2-D (`wino2d_*`) | `(Bᵀ, G, Aᵀ)` | `(Bᵀ, G, Aᵀ)` | `n × n → m × m` | `n²` |
//! | 1-D (`wino1d_*`) | `(I_r, I_r, 1ᵀ_r)` | `(Bᵀ, G, Aᵀ)` | `r × n → 1 × m` | `r·n` |
//!
//! 2-D variants minimise multiplications at the cost of `M·C·n²`
//! transformed-kernel memory; 1-D variants transform along rows only and
//! sum the kernel rows in the inverse step (`1ᵀ_r`), needing `n/r` times
//! less — more operations, smaller footprint (the trade the paper observes
//! the ARM selections exploit). The channel-blocked (`c4`/`c8`) and HWC
//! variants differ only in the strides the gather and scatter walk, and the
//! `vf4`/`vf8` factors only in the cost model's view: the block of tiles is
//! every variant's vector dimension.
//!
//! All variants require unit stride and their exact kernel radix.

use std::sync::OnceLock;

use pbqp_dnn_gemm::{Gemm, GemmKind, Trans};
use pbqp_dnn_graph::ConvScenario;
use pbqp_dnn_tensor::{KernelTensor, Layout, Tensor};

use crate::algorithm::check_args;
use crate::util::fan_out;
use crate::{ConvAlgorithm, Family, PrimitiveDescriptor, PrimitiveError, Workspace, WorkspaceReq};

/// Toom–Cook interpolation points; `n − 1` finite points are drawn from
/// this sequence (plus the implicit point at infinity).
const POINTS: [f64; 9] = [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0];

/// Most output tiles one block carries: the column count of the product
/// GEMMs.
const BLOCK_TILES: usize = 64;

/// The `F(m, r)` transform triple.
#[derive(Debug, Clone)]
pub(crate) struct WinogradTransform {
    /// Tile size `m + r − 1`.
    pub n: usize,
    /// `m × n` inverse transform `Aᵀ`.
    pub at: Vec<f32>,
    /// `n × r` kernel transform `G`.
    pub g: Vec<f32>,
    /// `n × n` data transform `Bᵀ`.
    pub bt: Vec<f32>,
}

impl WinogradTransform {
    /// Builds the transform for `F(m, r)`.
    ///
    /// # Panics
    ///
    /// Panics if `m + r − 1` exceeds the available interpolation points.
    pub fn new(m: usize, r: usize) -> WinogradTransform {
        let n = m + r - 1;
        let finite = n - 1;
        assert!(finite <= POINTS.len(), "F({m},{r}) needs more interpolation points");
        let a = &POINTS[..finite];

        // Aᵀ[i][j] = a_j^i, with the ∞ column selecting the top output term.
        let mut at = vec![0.0f64; m * n];
        for i in 0..m {
            for (j, &aj) in a.iter().enumerate() {
                at[i * n + j] = aj.powi(i as i32);
            }
        }
        at[(m - 1) * n + (n - 1)] = 1.0;

        // G[i][j] = a_i^j / N_i where N_i = Π_{k≠i}(a_i − a_k);
        // the ∞ row selects the top kernel coefficient.
        let mut g = vec![0.0f64; n * r];
        for (i, &ai) in a.iter().enumerate() {
            let mut norm = 1.0f64;
            for (k, &ak) in a.iter().enumerate() {
                if k != i {
                    norm *= ai - ak;
                }
            }
            for j in 0..r {
                g[i * r + j] = ai.powi(j as i32) / norm;
            }
        }
        g[(n - 1) * r + (r - 1)] = 1.0;

        // Bᵀ row i < n−1: coefficients of Π_{k≠i}(x − a_k);
        // row n−1: coefficients of the full product Π_k(x − a_k).
        let mut bt = vec![0.0f64; n * n];
        for i in 0..finite {
            let poly =
                poly_from_roots(a.iter().enumerate().filter(|&(k, _)| k != i).map(|(_, &p)| p));
            for (j, &cj) in poly.iter().enumerate() {
                bt[i * n + j] = cj;
            }
        }
        let full = poly_from_roots(a.iter().copied());
        for (j, &cj) in full.iter().enumerate() {
            bt[(n - 1) * n + j] = cj;
        }

        WinogradTransform {
            n,
            at: at.into_iter().map(|v| v as f32).collect(),
            g: g.into_iter().map(|v| v as f32).collect(),
            bt: bt.into_iter().map(|v| v as f32).collect(),
        }
    }
}

/// Coefficients (ascending powers) of `Π (x − root)`.
fn poly_from_roots(roots: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut coeffs = vec![1.0f64];
    for root in roots {
        // Multiply in place by (x − root), highest power first.
        coeffs.push(0.0);
        for i in (0..coeffs.len() - 1).rev() {
            let c = coeffs[i];
            coeffs[i + 1] += c;
            coeffs[i] = -root * c;
        }
    }
    coeffs
}

/// `a ⊗ b` of a row-major `ar × ac` matrix `a` and `br × bc` matrix `b`.
fn kron(a: &[f32], (ar, ac): (usize, usize), b: &[f32], (br, bc): (usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; ar * br * ac * bc];
    for i in 0..ar {
        for k in 0..br {
            let row = &mut out[(i * br + k) * ac * bc..][..ac * bc];
            for j in 0..ac {
                for l in 0..bc {
                    row[j * bc + l] = a[i * ac + j] * b[k * bc + l];
                }
            }
        }
    }
    out
}

/// The `r × r` identity.
fn identity(r: usize) -> Vec<f32> {
    (0..r * r).map(|i| if i % (r + 1) == 0 { 1.0 } else { 0.0 }).collect()
}

/// 1-D vs 2-D form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WinoMode {
    /// Row-wise `F(m, r)`; kernel rows are summed by the inverse step.
    OneD,
    /// Full-tile `F(m×m, r×r)`.
    TwoD,
}

/// The Kronecker-expanded transforms one variant multiplies by.
struct KronTransforms {
    /// `Bvᵀ ⊗ Bhᵀ`: `E × E`.
    b: Vec<f32>,
    /// `Gv ⊗ Gh`: `E × r²`.
    g: Vec<f32>,
    /// `Avᵀ ⊗ Ahᵀ`: `(mv·m) × E`.
    a: Vec<f32>,
}

/// One member of the Winograd family.
pub(crate) struct WinogradConv {
    desc: PrimitiveDescriptor,
    /// Outputs per tile row of `F(m, r)`.
    m: usize,
    /// Kernel radix of `F(m, r)`.
    r: usize,
    mode: WinoMode,
    vf: usize,
    /// Tile input rows `tv` (`n` in 2-D, `r` in 1-D); every tile has `n`
    /// input columns.
    tile_rows: usize,
    /// Output rows per tile `mv` (`m` in 2-D, 1 in 1-D); every tile has
    /// `m` output columns.
    out_rows: usize,
    /// Built on first execute: every compile builds a registry, and most
    /// of its Winograd variants never run.
    transforms: OnceLock<KronTransforms>,
}

impl WinogradConv {
    /// A planar CHW → CHW variant.
    pub(crate) fn new(name: &str, m: usize, r: usize, mode: WinoMode, vf: usize) -> WinogradConv {
        WinogradConv::with_layout(name, m, r, mode, vf, Layout::Chw)
    }

    /// A variant reading `layout`: HWC writes HWC, every other layout
    /// (CHW and the `CHWc4`/`CHWc8` blocked ones) writes planar CHW.
    pub(crate) fn with_layout(
        name: &str,
        m: usize,
        r: usize,
        mode: WinoMode,
        vf: usize,
        layout: Layout,
    ) -> WinogradConv {
        let out_layout = if layout == Layout::Hwc { Layout::Hwc } else { Layout::Chw };
        let (tile_rows, out_rows) = match mode {
            WinoMode::TwoD => (m + r - 1, m),
            WinoMode::OneD => (r, 1),
        };
        WinogradConv {
            desc: PrimitiveDescriptor::new(name, Family::Winograd, layout, out_layout)
                .with_vector_factor(vf as u8)
                .with_hint(crate::AlgoHint::Winograd { m, r, two_d: mode == WinoMode::TwoD }),
            m,
            r,
            mode,
            vf,
            tile_rows,
            out_rows,
            transforms: OnceLock::new(),
        }
    }

    /// Tile size `n = m + r − 1`.
    fn n(&self) -> usize {
        self.m + self.r - 1
    }

    fn transforms(&self) -> &KronTransforms {
        self.transforms.get_or_init(|| {
            let tf = WinogradTransform::new(self.m, self.r);
            let (n, r, tv, mv) = (tf.n, self.r, self.tile_rows, self.out_rows);
            let (id, ones) = (identity(r), vec![1.0; r]);
            let (bv, gv, av) = match self.mode {
                WinoMode::TwoD => (&tf.bt, &tf.g, &tf.at),
                WinoMode::OneD => (&id, &id, &ones),
            };
            KronTransforms {
                b: kron(bv, (tv, tv), &tf.bt, (n, n)),
                g: kron(gv, (tv, r), &tf.g, (n, r)),
                a: kron(av, (mv, tv), &tf.at, (self.m, n)),
            }
        })
    }

    /// Transform positions per tile, `E`.
    fn positions(&self) -> usize {
        self.tile_rows * self.n()
    }

    /// Output tiles per row of tiles, and in total.
    fn tiles(&self, s: &ConvScenario) -> (usize, usize) {
        let across = s.out_w().div_ceil(self.m);
        (across, across * s.out_h().div_ceil(self.out_rows))
    }

    /// Scratch `[u, taps, front, back, gemm]` of one execute over
    /// `workers` threads; `taps` and `gemm` are per worker. `front`
    /// holds the gathered tiles, then the products; `back` the
    /// transformed tiles, then the inverse-transformed outputs.
    fn scratch_parts(&self, s: &ConvScenario, workers: usize) -> [usize; 5] {
        let e = self.positions();
        let q = self.out_rows * self.m;
        let t = BLOCK_TILES.min(self.tiles(s).1);
        let gemm = Gemm::new(GemmKind::Packed);
        let gemm_elems = gemm
            .scratch_elems(Trans::N, Trans::N, e, s.c * t, e)
            .max(gemm.scratch_elems(Trans::N, Trans::N, s.m, t, s.c))
            .max(gemm.scratch_elems(Trans::N, Trans::N, q, s.m * t, e));
        [
            e * s.m * s.c,
            workers * s.k * s.k * s.c,
            e * s.c.max(s.m) * t,
            (e * s.c).max(q * s.m) * t,
            workers * gemm_elems,
        ]
    }

    /// Step 1 for positions `e0 ..`: fills `u` (whole `M × C` matrices
    /// `U_e`) from each filter's taps transposed to channel-minor
    /// `taps[ij][c]`, so every update is a contiguous run over channels.
    fn transform_kernel(
        &self,
        kernel: &KernelTensor,
        s: &ConvScenario,
        e0: usize,
        u: &mut [f32],
        taps: &mut [f32],
    ) {
        let rr = s.k * s.k;
        let coefs = &self.transforms().g[e0 * rr..][..u.len() / (s.m * s.c) * rr];
        for (m, filter) in kernel.data().chunks_exact(s.c * rr).enumerate() {
            for (c, tap) in filter.chunks_exact(rr).enumerate() {
                for (ij, &v) in tap.iter().enumerate() {
                    taps[ij * s.c + c] = v;
                }
            }
            for (u_e, coefs) in u.chunks_exact_mut(s.m * s.c).zip(coefs.chunks_exact(rr)) {
                let row = &mut u_e[m * s.c..][..s.c];
                row.fill(0.0);
                for (&coef, tap) in coefs.iter().zip(taps.chunks_exact(s.c)) {
                    if coef != 0.0 {
                        for (o, &v) in row.iter_mut().zip(tap) {
                            *o += coef * v;
                        }
                    }
                }
            }
        }
    }

    /// Output origins `(y, x)` of tiles `first .. first + nt`, row-major
    /// over the tile grid.
    fn origins(
        &self,
        s: &ConvScenario,
        first: usize,
        nt: usize,
    ) -> impl Iterator<Item = (usize, usize)> {
        let (across, _) = self.tiles(s);
        let (mv, mh) = (self.out_rows, self.m);
        let (mut ty, mut tx) = (first / across, first % across);
        (0..nt).map(move |_| {
            let origin = (ty * mv, tx * mh);
            tx += 1;
            if tx == across {
                (ty, tx) = (ty + 1, 0);
            }
            origin
        })
    }

    /// Step 2a: `D[p][c·nt + t]`, input pixel `p` of tile `first + t` in
    /// channel `c`, zero outside the image.
    fn gather(&self, input: &Tensor, s: &ConvScenario, first: usize, nt: usize, d: &mut [f32]) {
        let n = self.n();
        let (_, h, w) = input.dims();
        let st = input.layout().strides(input.dims());
        let src = input.data();
        for c in 0..s.c {
            let plane = &src[st.channel(c)..];
            for (p, (py, px)) in
                (0..self.tile_rows).flat_map(|py| (0..n).map(move |px| (py, px))).enumerate()
            {
                let row = &mut d[(p * s.c + c) * nt..][..nt];
                for (slot, (oy, ox)) in row.iter_mut().zip(self.origins(s, first, nt)) {
                    // Above or left of the image wraps past `h` / `w`.
                    let (iy, ix) = ((oy + py).wrapping_sub(s.pad), (ox + px).wrapping_sub(s.pad));
                    *slot = if iy < h && ix < w { plane[iy * st.h + ix * st.w] } else { 0.0 };
                }
            }
        }
    }

    /// Step 4b: writes `Y[q][m·nt + t]`, output `q` of tile `first + t`
    /// in channel `m`, through the output strides, clipping the tiles
    /// that overhang the bottom and right edges.
    fn scatter(&self, s: &ConvScenario, first: usize, nt: usize, y: &[f32], out: &mut Tensor) {
        let mt = self.m;
        let (oh, ow) = (s.out_h(), s.out_w());
        let st = out.layout().strides(out.dims());
        let dst = out.data_mut();
        for m in 0..s.m {
            let plane = &mut dst[st.channel(m)..];
            for (q, (qy, qx)) in
                (0..self.out_rows).flat_map(|qy| (0..mt).map(move |qx| (qy, qx))).enumerate()
            {
                let row = &y[(q * s.m + m) * nt..][..nt];
                for (&v, (oy, ox)) in row.iter().zip(self.origins(s, first, nt)) {
                    let (oy, ox) = (oy + qy, ox + qx);
                    if oy < oh && ox < ow {
                        plane[oy * st.h + ox * st.w] = v;
                    }
                }
            }
        }
    }
}

impl ConvAlgorithm for WinogradConv {
    fn descriptor(&self) -> &PrimitiveDescriptor {
        &self.desc
    }

    fn supports(&self, s: &ConvScenario) -> bool {
        s.stride == 1 && s.k == self.r
    }

    fn workspace_elems(&self, s: &ConvScenario) -> usize {
        let n = self.n();
        match self.mode {
            // Transformed kernel rows: M·C·K·n.
            WinoMode::OneD => s.m * s.c * s.k * n + s.m * n * self.vf,
            // Transformed kernel tiles: M·C·n².
            WinoMode::TwoD => s.m * s.c * n * n + s.m * n * n * self.vf,
        }
    }

    fn workspace_req(&self, s: &ConvScenario) -> WorkspaceReq {
        WorkspaceReq::f32s(self.scratch_parts(s, 1).iter().sum())
    }

    fn execute_into(
        &self,
        input: &Tensor,
        kernel: &KernelTensor,
        s: &ConvScenario,
        threads: usize,
        ws: &mut Workspace,
        out: &mut Tensor,
    ) -> Result<(), PrimitiveError> {
        check_args(&self.desc, self.supports(s), input, kernel, s)?;
        out.reuse_as(s.m, s.out_h(), s.out_w(), self.desc.output_layout);
        let (gemm, kt) = (Gemm::new(GemmKind::Packed), self.transforms());
        let (e, q) = (self.positions(), self.out_rows * self.m);
        let (mc, (_, tiles)) = (s.m * s.c, self.tiles(s));
        // Intra-op workers split the positions: each transforms its
        // `U_e` and runs its serial product GEMMs, so every thread count
        // computes the same bits.
        let workers = threads.clamp(1, e);
        let per = e.div_ceil(workers);

        // Every buffer is written in full before it is read.
        let mark = ws.reals.mark();
        let [u, taps, front, back, gbufs] = ws.reals.take_dirty(self.scratch_parts(s, workers));
        let gbuf_len = gbufs.len() / workers;
        fan_out(
            u.chunks_mut(per * mc)
                .zip(taps.chunks_mut(taps.len() / workers))
                .enumerate()
                .map(|(w, (u, taps))| move || self.transform_kernel(kernel, s, w * per, u, taps)),
        );
        let u = &*u;
        for first in (0..tiles).step_by(BLOCK_TILES) {
            let nt = BLOCK_TILES.min(tiles - first);
            let (cn, mn) = (s.c * nt, s.m * nt);
            self.gather(input, s, first, nt, front);
            let gbuf = &mut gbufs[..gbuf_len];
            gemm.run_with_scratch(Trans::N, Trans::N, e, cn, e, &kt.b, front, 0.0, back, gbuf);
            let jobs = u.chunks(per * mc).zip(back.chunks(per * cn));
            let jobs = jobs.zip(front.chunks_mut(per * mn)).zip(gbufs.chunks_mut(gbuf_len));
            fan_out(jobs.map(|(((u, v), m), gbuf)| {
                move || {
                    let products = u.chunks_exact(mc).zip(v.chunks_exact(cn));
                    for ((u_e, v_e), m_e) in products.zip(m.chunks_exact_mut(mn)) {
                        gemm.run_with_scratch(
                            Trans::N,
                            Trans::N,
                            s.m,
                            nt,
                            s.c,
                            u_e,
                            v_e,
                            0.0,
                            m_e,
                            gbuf,
                        );
                    }
                }
            }));
            let gbuf = &mut gbufs[..gbuf_len];
            gemm.run_with_scratch(Trans::N, Trans::N, q, mn, e, &kt.a, front, 0.0, back, gbuf);
            self.scatter(s, first, nt, back, out);
        }
        ws.reals.release(mark);
        Ok(())
    }
}

/// All Winograd-family primitives for the registry.
pub(crate) fn all() -> Vec<Box<dyn ConvAlgorithm>> {
    let mut prims: Vec<Box<dyn ConvAlgorithm>> = Vec::new();
    for (m, r, tag) in [(2, 3, "f23"), (4, 3, "f43"), (2, 5, "f25")] {
        for vf in [1usize, 4, 8] {
            prims.push(Box::new(WinogradConv::new(
                &format!("wino1d_{tag}_vf{vf}"),
                m,
                r,
                WinoMode::OneD,
                vf,
            )));
            prims.push(Box::new(WinogradConv::new(
                &format!("wino2d_{tag}_vf{vf}"),
                m,
                r,
                WinoMode::TwoD,
                vf,
            )));
        }
    }
    prims.push(Box::new(WinogradConv::new("wino1d_f63_vf1", 6, 3, WinoMode::OneD, 1)));
    prims.push(Box::new(WinogradConv::new("wino2d_f63_vf1", 6, 3, WinoMode::TwoD, 1)));
    for (m, tag) in [(2, "f23"), (4, "f43")] {
        let name = format!("wino2d_{tag}_hwc");
        prims.push(Box::new(WinogradConv::with_layout(
            &name,
            m,
            3,
            WinoMode::TwoD,
            1,
            Layout::Hwc,
        )));
    }
    for (layout, tag) in [(Layout::Chw4, "c4"), (Layout::Chw8, "c8")] {
        for (m, f) in [(2, "f23"), (4, "f43")] {
            for (mode, d) in [(WinoMode::OneD, "1d"), (WinoMode::TwoD, "2d")] {
                let name = format!("wino{d}_{f}_{tag}");
                let vf = layout.channel_block();
                prims.push(Box::new(WinogradConv::with_layout(&name, m, 3, mode, vf, layout)));
            }
        }
    }
    prims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::sum2d_reference;

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.max(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    fn mat_vec(mat: &[f32], rows: usize, x: &[f32]) -> Vec<f32> {
        mat.chunks_exact(mat.len() / rows)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    #[test]
    fn f23_matrices_match_the_classic_construction() {
        let tf = WinogradTransform::new(2, 3);
        assert_eq!(tf.n, 4);
        // Bᵀ rows are the expected Lagrange numerator coefficients
        // (our convention: row 0 = x² − 1 → [−1, 0, 1, 0]).
        assert_eq!(&tf.bt[0..4], &[-1.0, 0.0, 1.0, 0.0]);
        assert_eq!(&tf.bt[4..8], &[0.0, 1.0, 1.0, 0.0]);
        assert_eq!(&tf.bt[8..12], &[0.0, -1.0, 1.0, 0.0]);
        assert_eq!(&tf.bt[12..16], &[0.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn transform_identity_holds_for_all_sizes() {
        // y = Aᵀ[(G·g) ⊙ (Bᵀ·d)] must equal the direct correlation.
        for (m, r) in [(2, 3), (4, 3), (6, 3), (2, 5), (4, 5)] {
            let tf = WinogradTransform::new(m, r);
            let n = tf.n;
            let d = pseudo(n, (m * 10 + r) as u64);
            let g = pseudo(r, (m * 100 + r) as u64);
            let gg = mat_vec(&tf.g, n, &g);
            let dd = mat_vec(&tf.bt, n, &d);
            let prod: Vec<f32> = gg.iter().zip(&dd).map(|(a, b)| a * b).collect();
            let y = mat_vec(&tf.at, m, &prod);
            for k in 0..m {
                let want: f32 = (0..r).map(|j| d[k + j] * g[j]).sum();
                let tol = 1e-3 * (1.0 + want.abs());
                assert!((y[k] - want).abs() < tol, "F({m},{r}) output {k}: {} vs {want}", y[k]);
            }
        }
    }

    #[test]
    fn kron_matches_its_definition() {
        let (a, b) = ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0, -1.0]);
        // (2×3) ⊗ (2×1) = 4×3: each entry of `a` scaled by the column `b`.
        let k = kron(&a, (2, 3), &b, (2, 1));
        assert_eq!(k, [1., 2., 3., -1., -2., -3., 4., 5., 6., -4., -5., -6.]);
        assert_eq!(kron(&identity(2), (2, 2), &[7.0], (1, 1)), [7., 0., 0., 7.]);
    }

    fn scenarios_k3() -> Vec<ConvScenario> {
        vec![
            ConvScenario::new(3, 8, 9, 1, 3, 4),
            ConvScenario::new(2, 13, 13, 1, 3, 5),
            ConvScenario::new(4, 7, 10, 1, 3, 3).with_pad(0),
        ]
    }

    #[test]
    fn every_winograd_variant_matches_the_reference() {
        for prim in all() {
            let k = if prim.descriptor().name.contains("f25") { 5 } else { 3 };
            let base = if k == 5 {
                vec![ConvScenario::new(3, 9, 11, 1, 5, 4), ConvScenario::new(2, 8, 8, 1, 5, 3)]
            } else {
                scenarios_k3()
            };
            for s in base {
                assert!(prim.supports(&s), "{} should support {s}", prim.descriptor().name);
                let lin = prim.descriptor().input_layout;
                let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 61).to_layout(lin);
                let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 62);
                let got = prim.execute(&input, &kernel, &s, 1).unwrap();
                assert_eq!(got.layout(), prim.descriptor().output_layout);
                let want = sum2d_reference(&input, &kernel, &s);
                let diff = got.max_abs_diff(&want).unwrap();
                // F(6,3) interpolates at ±3 and is numerically the loosest.
                let tol = if prim.descriptor().name.contains("f63") { 5e-2 } else { 5e-3 };
                assert!(diff < tol, "{} on {s}: diff {diff}", prim.descriptor().name);
            }
        }
    }

    #[test]
    fn blocks_of_tiles_cover_large_outputs() {
        // 40×40 outputs are 100 F(4,3) tiles (two blocks) and 560 1-D
        // F(2,3) tiles (nine blocks, the last one partial).
        let s = ConvScenario::new(5, 40, 40, 1, 3, 6);
        let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 81);
        let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 82);
        let want = sum2d_reference(&input, &kernel, &s);
        for prim in [
            WinogradConv::new("two", 4, 3, WinoMode::TwoD, 1),
            WinogradConv::new("one", 2, 3, WinoMode::OneD, 1),
        ] {
            assert!(prim.tiles(&s).1 > BLOCK_TILES);
            let diff = prim.execute(&input, &kernel, &s, 1).unwrap().max_abs_diff(&want).unwrap();
            assert!(diff < 5e-3, "{}: diff {diff}", prim.descriptor().name);
        }
    }

    #[test]
    fn wrong_kernel_size_or_stride_is_rejected() {
        let prim = WinogradConv::new("w", 2, 3, WinoMode::TwoD, 1);
        assert!(!prim.supports(&ConvScenario::new(3, 8, 8, 1, 5, 4)));
        assert!(!prim.supports(&ConvScenario::new(3, 8, 8, 2, 3, 4)));
    }

    #[test]
    fn one_d_uses_less_kernel_workspace_than_two_d() {
        let s = ConvScenario::new(64, 28, 28, 1, 3, 64);
        let one = WinogradConv::new("a", 4, 3, WinoMode::OneD, 1);
        let two = WinogradConv::new("b", 4, 3, WinoMode::TwoD, 1);
        assert!(one.workspace_elems(&s) < two.workspace_elems(&s));
    }

    #[test]
    fn threads_do_not_change_results() {
        let s = ConvScenario::new(5, 12, 12, 1, 3, 7);
        for prim in all() {
            if !prim.supports(&s) {
                continue;
            }
            let lin = prim.descriptor().input_layout;
            let input = Tensor::random(s.c, s.h, s.w, Layout::Chw, 71).to_layout(lin);
            let kernel = KernelTensor::random(s.m, s.c, s.k, s.k, 72);
            let one = prim.execute(&input, &kernel, &s, 1).unwrap();
            let four = prim.execute(&input, &kernel, &s, 4).unwrap();
            assert!(one.allclose(&four, 1e-5).unwrap(), "{}", prim.descriptor().name);
        }
    }
}
