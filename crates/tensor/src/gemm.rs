//! Turbo GEMM backend: cache-blocked, SIMD-dispatched, row-parallel.
//!
//! Every accuracy experiment funnels through [`crate::ops::matmul`]; this
//! module is its engine. The design goal is throughput *without changing a
//! single output bit* relative to the original scalar kernel (retained as
//! [`crate::ops::matmul_reference`]), because the training tests pin exact
//! RNG-seeded expectations.
//!
//! # Bit-identity argument
//!
//! The reference kernel computes every output element as
//!
//! ```text
//! c[i][j] = fold over kk = 0..k (in order, skipping a[i][kk] == 0):
//!           c = c + a[i][kk] * b[kk][j]     // two roundings per step
//! ```
//!
//! The turbo kernels preserve exactly that recurrence per element:
//!
//! * **k-order unchanged** — each micro-kernel walks `kk` from 0 to `k`
//!   with one accumulator per output element;
//! * **separate multiply and add** — no FMA contraction, even on the
//!   AVX2+FMA tier, because a fused multiply-add rounds once where the
//!   reference rounds twice;
//! * **the `a == 0.0` skip is kept** per (row, kk), matching the reference
//!   even for non-finite `B` entries (`0 * inf` would otherwise inject
//!   NaNs the reference never sees);
//! * **vector lanes span output columns only** — different lanes are
//!   different output elements, so lane width never reorders an
//!   accumulation;
//! * **row-parallelism partitions output rows** across workers; each row's
//!   dot products are computed by exactly one worker with the same scalar
//!   schedule.
//!
//! The fused [`Epilogue`] applies `+ bias[j]` and then `max(x, 0.0)` after
//! the accumulator is complete — the same two rounded operations, in the
//! same order, as the separate `add_bias` / `relu` passes.
//!
//! `crates/tensor/tests/gemm_properties.rs` proves the identity against the
//! retained reference over random ragged shapes for every available
//! dispatch variant.
//!
//! # Blocking scheme
//!
//! `B` is processed in `NR`-wide column panels; rows of `A` are processed
//! `MR` at a time, giving an `MR x NR` register tile of accumulators that
//! is filled in one pass over `k` and stored once. Panel-aligned `B`
//! operands are read in place; ragged or transposed operands are packed
//! into zero-padded contiguous panels first (the packing for
//! [`Layout::Nt`] doubles as a blocked transpose, which is how
//! `matmul_nt`/`matmul_tn` avoid materializing `transpose` results).

use crate::encoded::{EncodedError, EncodedMatrix};
use crate::ops::apply_epilogue;

/// Column-panel width of the register tile (f32 lanes).
pub const NR: usize = 16;
/// Row height of the register tile.
pub const MR: usize = 4;
/// Depth block of the decode-fused engine ([`gemm_encoded_with`]): each
/// encoded panel is decoded and consumed `KC` rows at a time so the
/// active decode scratch stays cache-resident while partial accumulators
/// park in the output stripe between blocks.
pub const KC: usize = 128;
/// Panels per group in the decode-fused engine — matches the four-panel
/// column blocks of the AVX-512 steady-state kernel.
const GQ: usize = 4;

/// Below this many multiply-accumulates the blocked machinery costs more
/// than it saves; [`gemm_auto`] routes such calls to the reference loops.
const TURBO_MIN_MACS: usize = 1024;
/// Minimum multiply-accumulates before row-parallel fan-out pays for the
/// thread spawns.
const PAR_MIN_MACS: usize = 1 << 21;

/// Runtime-dispatched kernel tiers, mirroring the engine-variant pattern of
/// the systolic simulator (`crates/sim/src/systolic.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmVariant {
    /// Portable Rust micro-kernel (autovectorized by the compiler).
    Scalar,
    /// 8-lane AVX2 micro-kernel (requires `avx2` + `fma`; FMA is part of
    /// the platform tier but deliberately unused in the accumulation — see
    /// the module docs).
    Avx2,
    /// 16-lane AVX-512 micro-kernel (requires `avx512f`/`vl`/`dq`).
    Avx512,
}

impl GemmVariant {
    /// Picks the fastest variant the running CPU supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
            {
                return GemmVariant::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return GemmVariant::Avx2;
            }
        }
        GemmVariant::Scalar
    }

    /// Every variant the running CPU can execute (always includes
    /// [`GemmVariant::Scalar`]), for differential tests and benchmarks.
    pub fn available() -> Vec<Self> {
        let mut v = vec![GemmVariant::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                v.push(GemmVariant::Avx2);
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512vl")
                && is_x86_feature_detected!("avx512dq")
            {
                v.push(GemmVariant::Avx512);
            }
        }
        v
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            GemmVariant::Scalar => "scalar",
            GemmVariant::Avx2 => "avx2",
            GemmVariant::Avx512 => "avx512",
        }
    }
}

/// Operand layout of the `A` and `B` arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `A` is `m x k`, `B` is `k x n` (plain matmul).
    Nn,
    /// `A` is `m x k`, `B` is `n x k`; computes `A · Bᵀ` without
    /// materializing the transpose.
    Nt,
    /// `A` is `k x m`, `B` is `k x n`; computes `Aᵀ · B` without
    /// materializing the transpose.
    Tn,
}

/// Fused output transform applied once per element after accumulation.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// Store the raw accumulator.
    None,
    /// `c + bias[j]` (the dense-layer bias row).
    Bias(&'a [f32]),
    /// `max(c + bias[j], 0.0)` — bias then ReLU in one pass.
    BiasRelu(&'a [f32]),
}

/// How rows of `A` are addressed: element `(i, kk)` lives at
/// `a[i * row + kk * step]`. `Nn`/`Nt` use `(k, 1)`; `Tn` uses `(1, m)`.
#[derive(Clone, Copy)]
struct AStride {
    row: usize,
    step: usize,
}

/// Zero-padded `NR`-wide panels with the first panel aligned to a cache
/// line: `panels()[p * k * NR + kk * NR + l]` is panel `p`, depth `kk`,
/// lane `l`.
struct PackedB {
    buf: Vec<f32>,
    off: usize,
}

impl PackedB {
    /// Allocates a zeroed panel buffer of `len` elements whose payload
    /// starts on a 64-byte boundary, so every panel row is one full-width
    /// aligned vector load.
    fn zeroed(len: usize) -> Self {
        let buf = vec![0.0f32; len + 15];
        let off = buf.as_ptr().align_offset(64).min(buf.len() - len);
        Self { buf, off }
    }

    fn panels(&self) -> &[f32] {
        &self.buf[self.off..]
    }

    fn panels_mut(&mut self) -> &mut [f32] {
        let off = self.off;
        &mut self.buf[off..]
    }
}

/// The `B` operand as the micro-kernel sees it: either packed zero-padded
/// `NR`-wide panels, or the caller's row-major buffer read in place.
enum BPlan {
    Packed(PackedB),
    /// Untouched `k x n` row-major storage; full panels only, a ragged
    /// column tail is handled by scalar loops.
    Direct,
}

/// Entry point used by `crates/tensor/src/ops.rs`: picks the dispatch
/// variant, falls back to the reference loops for tiny problems, and fans
/// large ones out over rows.
pub(crate) fn gemm_auto(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    if m * k * n < TURBO_MIN_MACS {
        return reference(layout, a, b, m, k, n, epi);
    }
    gemm_impl(GemmVariant::detect(), layout, a, b, m, k, n, epi, auto_workers(m, k, n))
}

/// Runs the blocked kernels under an explicit dispatch `variant` (no tiny-
/// size fallback), for differential tests and benchmarks. Output is
/// bit-identical across variants and to the reference kernel.
pub fn gemm_with(
    variant: GemmVariant,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    gemm_impl(variant, layout, a, b, m, k, n, epi, auto_workers(m, k, n))
}

fn auto_workers(m: usize, k: usize, n: usize) -> usize {
    let t = spark_util::par::thread_count();
    if t <= 1 || m < 2 * MR || m * k * n < PAR_MIN_MACS {
        return 1;
    }
    t.min(m / MR)
}

pub(crate) fn gemm_impl(
    variant: GemmVariant,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
    workers: usize,
) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k, "A operand length");
    debug_assert_eq!(b.len(), k * n, "B operand length");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let astride = match layout {
        Layout::Nn | Layout::Nt => AStride { row: k, step: 1 },
        Layout::Tn => AStride { row: 1, step: m },
    };
    let plan = match layout {
        // The transposed pack is mandatory (it *is* the blocked transpose);
        // row-major B is packed once enough rows amortize the copy and
        // either a ragged tail would otherwise run scalar over real work,
        // or B outgrows the L1 (packed panel pairs stay L1-resident across
        // row tiles where in-place strided reads would stream from L2).
        Layout::Nt => BPlan::Packed(pack_b_transposed(b, k, n)),
        Layout::Nn | Layout::Tn => {
            if (m >= 2 * MR && (k * n >= 4096 || (n % NR != 0 && n > NR))) || k * n >= (1 << 18) {
                BPlan::Packed(pack_b_rowmajor(b, k, n))
            } else {
                BPlan::Direct
            }
        }
    };
    if workers <= 1 {
        run_rows(variant, a, astride, b, &plan, &mut out, 0, m, k, n, epi);
    } else {
        // Chunk boundaries stay MR-aligned so register tiles never straddle
        // a worker split.
        let rows_per = m.div_ceil(workers).div_ceil(MR) * MR;
        spark_util::par::par_chunks_mut(&mut out, rows_per * n, |ci, chunk| {
            let r0 = ci * rows_per;
            let r1 = r0 + chunk.len() / n;
            run_rows(variant, a, astride, b, &plan, chunk, r0, r1, k, n, epi);
        });
    }
    out
}

/// Packs row-major `B` (`k x n`) into zero-padded `NR`-wide panels.
fn pack_b_rowmajor(b: &[f32], k: usize, n: usize) -> PackedB {
    let panels = n.div_ceil(NR);
    let mut packed = PackedB::zeroed(panels * k * NR);
    let dst = packed.panels_mut();
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let base = p * k * NR;
        for kk in 0..k {
            let src = &b[kk * n + j0..kk * n + j0 + w];
            dst[base + kk * NR..base + kk * NR + w].copy_from_slice(src);
        }
    }
    packed
}

/// Packs transposed `B` (`n x k` row-major, logical `k x n`) into the same
/// panel format — a fused blocked transpose. Depth is walked in `TK`-sized
/// blocks so reads and writes both stay cache-resident.
fn pack_b_transposed(bt: &[f32], k: usize, n: usize) -> PackedB {
    const TK: usize = 256;
    let panels = n.div_ceil(NR);
    let mut packed = PackedB::zeroed(panels * k * NR);
    let dst = packed.panels_mut();
    for p in 0..panels {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let base = p * k * NR;
        for kb in (0..k).step_by(TK) {
            let ke = (kb + TK).min(k);
            for l in 0..w {
                let src = &bt[(j0 + l) * k..(j0 + l) * k + k];
                for kk in kb..ke {
                    dst[base + kk * NR + l] = src[kk];
                }
            }
        }
    }
    packed
}

/// Computes output rows `r0..r1` into `out_chunk` (whose first element is
/// row `r0`, column 0).
#[allow(clippy::too_many_arguments)]
fn run_rows(
    variant: GemmVariant,
    a: &[f32],
    astride: AStride,
    b_raw: &[f32],
    plan: &BPlan,
    out_chunk: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    let (bbuf, bstride, panels): (&[f32], usize, usize) = match plan {
        BPlan::Packed(p) => (p.panels(), NR, n.div_ceil(NR)),
        BPlan::Direct => (b_raw, n, n / NR),
    };
    // Panel pitch: offset from one panel's depth-row to the next panel's
    // same depth-row (the AVX-512 kernel fills two adjacent panels per
    // pass to double its independent accumulator chains).
    let b2off = match plan {
        BPlan::Packed(_) => k * NR,
        BPlan::Direct => NR,
    };
    // Phase 1 (AVX-512): four-panel column blocks, depth-blocked so the
    // active 4 x KC x NR sub-panel set stays L1-resident across every row
    // tile. Partial accumulators are parked in the output buffer between
    // depth blocks — an exact f32 round-trip, so each element still sees
    // one accumulation chain in ascending-k order (the epilogue fires only
    // after the final block).
    let mut quad_panels = 0;
    #[cfg(target_arch = "x86_64")]
    if variant == GemmVariant::Avx512 {
        let full_quads = panels / 4;
        quad_panels = full_quads * 4;
        let kc = if k > 192 && r1 - r0 >= 2 * MR { 128 } else { k };
        for qi in 0..full_quads {
            let p = qi * 4;
            let j0 = p * NR;
            let pbase = match plan {
                BPlan::Packed(_) => p * k * NR,
                BPlan::Direct => j0,
            };
            let mut kb = 0;
            while kb < k {
                let ke = (kb + kc).min(k);
                let (first, last) = (kb == 0, ke == k);
                let mut i = r0;
                while i + MR <= r1 {
                    let mut accs = [[[0.0f32; NR]; MR]; 4];
                    if !first {
                        for (q, accq) in accs.iter_mut().enumerate() {
                            let jq = j0 + q * NR;
                            let wq = NR.min(n - jq);
                            for (r, accr) in accq.iter_mut().enumerate() {
                                accr[..wq]
                                    .copy_from_slice(&out_chunk[(i - r0 + r) * n + jq..][..wq]);
                            }
                        }
                    }
                    // SAFETY: `i + MR <= r1 <= m` bounds the A pointers for
                    // depths kb..ke; the quad spans four panels that all
                    // have `ke` full NR-wide depth rows (packed panels are
                    // zero-padded); ISA verified at dispatch time.
                    unsafe {
                        let abase = a.as_ptr().add(i * astride.row + kb * astride.step);
                        let bpanel = bbuf.as_ptr().add(pbase + kb * bstride);
                        x86::mac4x4_avx512(abase, astride, bpanel, b2off, bstride, ke - kb, &mut accs);
                    }
                    for (q, accq) in accs.iter().enumerate() {
                        let jq = j0 + q * NR;
                        let wq = NR.min(n - jq);
                        for r in 0..MR {
                            let orow = &mut out_chunk[(i - r0 + r) * n + jq..][..wq];
                            if last && !matches!(epi, Epilogue::None) {
                                for (l, o) in orow.iter_mut().enumerate() {
                                    *o = apply_epilogue(accq[r][l], jq + l, epi);
                                }
                            } else {
                                // Final value or parked partial — memcpy of
                                // a full lane row compiles to vector stores.
                                orow.copy_from_slice(&accq[r][..wq]);
                            }
                        }
                    }
                    i += MR;
                }
                kb = ke;
            }
        }
    }
    // Phase 2: remainder panels for full row tiles, every panel for the
    // row tail, and (in direct mode) the ragged column tail.
    let mut i = r0;
    while i < r1 {
        let rows = MR.min(r1 - i);
        let mut p = if rows == MR { quad_panels } else { 0 };
        while p < panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            #[cfg(target_arch = "x86_64")]
            if rows == MR && variant == GemmVariant::Avx512 && p + 1 < panels {
                let w2 = NR.min(n - (j0 + NR));
                let mut acc0 = [[0.0f32; NR]; MR];
                let mut acc1 = [[0.0f32; NR]; MR];
                // SAFETY: as below, for two adjacent full panels.
                unsafe {
                    let abase = a.as_ptr().add(i * astride.row);
                    let bpanel = match plan {
                        BPlan::Packed(_) => bbuf.as_ptr().add(p * k * NR),
                        BPlan::Direct => bbuf.as_ptr().add(j0),
                    };
                    x86::mac4x2_avx512(
                        abase, astride, bpanel, b2off, bstride, k, &mut acc0, &mut acc1,
                    );
                }
                for r in 0..rows {
                    let orow = &mut out_chunk[(i - r0 + r) * n + j0..][..w];
                    for (l, o) in orow.iter_mut().enumerate() {
                        *o = apply_epilogue(acc0[r][l], j0 + l, epi);
                    }
                    let orow = &mut out_chunk[(i - r0 + r) * n + j0 + NR..][..w2];
                    for (l, o) in orow.iter_mut().enumerate() {
                        *o = apply_epilogue(acc1[r][l], j0 + NR + l, epi);
                    }
                }
                p += 2;
                continue;
            }
            let mut acc = [[0.0f32; NR]; MR];
            // SAFETY: `i + rows <= m` bounds the A pointers for every
            // (row, kk); panel `p` has k full NR-wide rows in both packed
            // (padded) and direct (full-panel) form; the variant's ISA
            // requirements were verified at dispatch time.
            unsafe {
                let abase = a.as_ptr().add(i * astride.row);
                let bpanel = match plan {
                    BPlan::Packed(_) => bbuf.as_ptr().add(p * k * NR),
                    BPlan::Direct => bbuf.as_ptr().add(j0),
                };
                if rows == MR {
                    match variant {
                        GemmVariant::Scalar => {
                            mac4_scalar(abase, astride, bpanel, bstride, k, &mut acc)
                        }
                        #[cfg(target_arch = "x86_64")]
                        GemmVariant::Avx2 => {
                            x86::mac4_avx2(abase, astride, bpanel, bstride, k, &mut acc)
                        }
                        #[cfg(target_arch = "x86_64")]
                        GemmVariant::Avx512 => {
                            x86::mac4_avx512(abase, astride, bpanel, bstride, k, &mut acc)
                        }
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => mac4_scalar(abase, astride, bpanel, bstride, k, &mut acc),
                    }
                } else {
                    for r in 0..rows {
                        let arow = abase.add(r * astride.row);
                        match variant {
                            GemmVariant::Scalar => {
                                mac1_scalar(arow, astride.step, bpanel, bstride, k, &mut acc[r])
                            }
                            #[cfg(target_arch = "x86_64")]
                            GemmVariant::Avx2 => {
                                x86::mac1_avx2(arow, astride.step, bpanel, bstride, k, &mut acc[r])
                            }
                            #[cfg(target_arch = "x86_64")]
                            GemmVariant::Avx512 => x86::mac1_avx512(
                                arow,
                                astride.step,
                                bpanel,
                                bstride,
                                k,
                                &mut acc[r],
                            ),
                            #[cfg(not(target_arch = "x86_64"))]
                            _ => mac1_scalar(arow, astride.step, bpanel, bstride, k, &mut acc[r]),
                        }
                    }
                }
            }
            for r in 0..rows {
                let orow = &mut out_chunk[(i - r0 + r) * n + j0..][..w];
                for (l, o) in orow.iter_mut().enumerate() {
                    *o = apply_epilogue(acc[r][l], j0 + l, epi);
                }
            }
            p += 1;
        }
        // Direct mode leaves a ragged column tail; finish it with the
        // reference-schedule scalar loop.
        if matches!(plan, BPlan::Direct) && !n.is_multiple_of(NR) {
            let j0 = panels * NR;
            for r in 0..rows {
                let gi = i + r;
                for j in j0..n {
                    let mut sum = 0.0f32;
                    for kk in 0..k {
                        let aik = a[gi * astride.row + kk * astride.step];
                        if aik == 0.0 {
                            continue;
                        }
                        sum += aik * b_raw[kk * n + j];
                    }
                    out_chunk[(gi - r0) * n + j] = apply_epilogue(sum, j, epi);
                }
            }
        }
        i += rows;
    }
}

/// Portable `MR x NR` micro-kernel. The per-lane loop autovectorizes; the
/// zero-skip branch sits outside it, exactly like the reference kernel's
/// hoisted check.
///
/// Accumulation *resumes from* `acc` (zeros for a one-shot call, parked
/// partials when the caller depth-blocks) — every kernel in this module
/// shares that contract so partial sums can round-trip through `f32`
/// memory between depth blocks without changing a bit.
///
/// # Safety
///
/// `a` must be valid for reads at `r * astride.row + kk * astride.step`
/// for `r < MR`, `kk < k`; `b` for `kk * bstride + l` for `l < NR`.
unsafe fn mac4_scalar(
    a: *const f32,
    astride: AStride,
    b: *const f32,
    bstride: usize,
    k: usize,
    acc: &mut [[f32; NR]; MR],
) {
    // Two rows per pass: the pass's accumulators (2 x NR locals) fit the
    // baseline SSE register file, so LLVM keeps them out of memory across
    // the k loop; MR rows at once would spill every iteration.
    for (pair, base) in [(0usize, a), (2, a.add(2 * astride.row))] {
        let mut c0 = acc[pair];
        let mut c1 = acc[pair + 1];
        let (mut p0, mut p1) = (base, base.add(astride.row));
        for kk in 0..k {
            let brow = std::slice::from_raw_parts(b.add(kk * bstride), NR);
            let a0 = *p0;
            p0 = p0.add(astride.step);
            if a0 != 0.0 {
                for (c, &bv) in c0.iter_mut().zip(brow) {
                    *c += a0 * bv;
                }
            }
            let a1 = *p1;
            p1 = p1.add(astride.step);
            if a1 != 0.0 {
                for (c, &bv) in c1.iter_mut().zip(brow) {
                    *c += a1 * bv;
                }
            }
        }
        acc[pair] = c0;
        acc[pair + 1] = c1;
    }
}

/// Portable single-row micro-kernel (row tail of [`mac4_scalar`]).
///
/// # Safety
///
/// `a` valid at `kk * astep` for `kk < k`; `b` as in [`mac4_scalar`].
unsafe fn mac1_scalar(
    a: *const f32,
    astep: usize,
    b: *const f32,
    bstride: usize,
    k: usize,
    acc: &mut [f32; NR],
) {
    let mut c = *acc;
    let mut p = a;
    let mut bp = b;
    for _ in 0..k {
        let aik = *p;
        p = p.add(astep);
        let brow = std::slice::from_raw_parts(bp, NR);
        bp = bp.add(bstride);
        if aik == 0.0 {
            continue;
        }
        for (cl, &bv) in c.iter_mut().zip(brow) {
            *cl += aik * bv;
        }
    }
    *acc = c;
}

/// Reference-schedule loops for all three layouts with the fused epilogue;
/// the [`Layout::Nn`] arm is byte-for-byte the seed `matmul` kernel. Tiny
/// problems route here, and the property suite uses it as the oracle.
pub(crate) fn reference(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    match layout {
        // ikj loop order: streams B rows, vectorizes the inner j loop.
        Layout::Nn => {
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[i * k + kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    let crow = &mut out[i * n..(i + 1) * n];
                    for (c, &bkj) in crow.iter_mut().zip(brow) {
                        *c += aik * bkj;
                    }
                }
            }
        }
        // Dot-product form: both operand rows stream contiguously.
        Layout::Nt => {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for j in 0..n {
                    let brow = &b[j * k..(j + 1) * k];
                    let mut sum = 0.0f32;
                    for (&aik, &bjk) in arow.iter().zip(brow) {
                        if aik == 0.0 {
                            continue;
                        }
                        sum += aik * bjk;
                    }
                    out[i * n + j] = sum;
                }
            }
        }
        // ikj with A read down its columns.
        Layout::Tn => {
            for i in 0..m {
                for kk in 0..k {
                    let aik = a[kk * m + i];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &b[kk * n..(kk + 1) * n];
                    let crow = &mut out[i * n..(i + 1) * n];
                    for (c, &bkj) in crow.iter_mut().zip(brow) {
                        *c += aik * bkj;
                    }
                }
            }
        }
    }
    if !matches!(epi, Epilogue::None) {
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = apply_epilogue(out[i * n + j], j, epi);
            }
        }
    }
    out
}

/// Decode-fused GEMM entry point used by `crates/tensor/src/ops.rs`:
/// `A · B` where `B` never exists as dense `f32` — each `KC x NR` block of
/// each SPARK-encoded panel is decoded on the fly into the 64-byte-aligned
/// scratch inside the cache-blocked loop.
pub(crate) fn gemm_encoded_auto(
    a: &[f32],
    b: &EncodedMatrix,
    m: usize,
    epi: Epilogue<'_>,
) -> Result<Vec<f32>, EncodedError> {
    gemm_encoded_impl(
        GemmVariant::detect(),
        a,
        b,
        m,
        epi,
        fused_workers(m, b.k(), b.n()),
    )
}

/// Runs the decode-fused kernels under an explicit dispatch `variant`, for
/// differential tests and benchmarks. Output is bit-identical across
/// variants, to `gemm_with` over the decoded matrix, and to the reference
/// kernel — the fused packer reconstructs exactly the values
/// [`EncodedMatrix::decode`] produces (same dequantization expression, no
/// reassociation), and the micro-kernels downstream of the packer are the
/// very same ones the dense path dispatches to.
///
/// # Errors
///
/// Panels are validated when the [`EncodedMatrix`] is built, so a typed
/// [`EncodedError`] here means a panel decoder was asked for more or
/// fewer elements than its panel holds (a packer-layout bug); the output
/// buffer is discarded, never partially returned.
pub fn gemm_encoded_with(
    variant: GemmVariant,
    a: &[f32],
    b: &EncodedMatrix,
    m: usize,
    epi: Epilogue<'_>,
) -> Result<Vec<f32>, EncodedError> {
    gemm_encoded_impl(variant, a, b, m, epi, fused_workers(m, b.k(), b.n()))
}

/// Worker rule of the decode-fused engine. Its workers split panel
/// groups, not rows, and the decode work scales with `k * n` whatever
/// `m` is, so unlike [`auto_workers`] a GEMV (`m = 1`) fans out too;
/// only the `PAR_MIN_MACS` floor keeps small products inline.
fn fused_workers(m: usize, k: usize, n: usize) -> usize {
    if m * k * n < PAR_MIN_MACS {
        return 1;
    }
    spark_util::par::thread_count()
}

pub(crate) fn gemm_encoded_impl(
    variant: GemmVariant,
    a: &[f32],
    b: &EncodedMatrix,
    m: usize,
    epi: Epilogue<'_>,
    workers: usize,
) -> Result<Vec<f32>, EncodedError> {
    let (k, n) = (b.k(), b.n());
    debug_assert_eq!(a.len(), m * k, "A operand length");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let groups = b.panels().div_ceil(GQ);
    // Group-parallel fan-out: each worker owns whole panel groups, so a
    // panel is decoded exactly once no matter the worker count and every
    // output element is written by exactly one worker.
    let stripes: Vec<Result<Vec<f32>, EncodedError>> = if workers > 1 && groups > 1 {
        let gids: Vec<usize> = (0..groups).collect();
        spark_util::par::par_map(&gids, |&g| fused_group(variant, a, b, m, g, epi))
    } else {
        (0..groups)
            .map(|g| fused_group(variant, a, b, m, g, epi))
            .collect()
    };
    for (g, stripe) in stripes.into_iter().enumerate() {
        let stripe = stripe?;
        let j0 = g * GQ * NR;
        let gw = stripe.len() / m;
        for r in 0..m {
            out[r * n + j0..r * n + j0 + gw].copy_from_slice(&stripe[r * gw..(r + 1) * gw]);
        }
    }
    Ok(out)
}

/// Computes one panel group (up to [`GQ`] adjacent `NR`-wide panels) of
/// the decode-fused product into an `m x gw` stripe.
///
/// Depth is walked in [`KC`]-row blocks: each block is decoded once into
/// the zero-padded scratch (resuming every panel's streaming decoder where
/// the previous block left it), then all `MR`-row tiles consume it.
/// Partial accumulators park in the stripe between blocks — an exact `f32`
/// round-trip, so each output element still sees one accumulation chain in
/// ascending-k order, and the epilogue fires only after the final block.
fn fused_group(
    variant: GemmVariant,
    a: &[f32],
    b: &EncodedMatrix,
    m: usize,
    g: usize,
    epi: Epilogue<'_>,
) -> Result<Vec<f32>, EncodedError> {
    let k = b.k();
    let p0 = g * GQ;
    let p1 = (p0 + GQ).min(b.panels());
    let gp = p1 - p0;
    let j0 = p0 * NR;
    let gw = (gp - 1) * NR + b.panel_width(p1 - 1);
    let astride = AStride { row: k, step: 1 };
    let mut stripe = vec![0.0f32; m * gw];
    let mut scratch = PackedB::zeroed(gp * KC * NR);
    let b2off = KC * NR;
    let mut decs = Vec::with_capacity(gp);
    for p in p0..p1 {
        decs.push(b.panel_decoder(p));
    }
    let mut kb = 0;
    // `loop` rather than `while kb < k` so k = 0 still runs one zero-depth
    // block and the epilogue fires.
    loop {
        let ke = (kb + KC).min(k);
        let depth = ke - kb;
        let (first, last) = (kb == 0, ke == k);
        {
            // Lanes `w..NR` stay zero from `PackedB::zeroed`; rows `>= depth` are never read.
            let dst = scratch.panels_mut();
            for (q, dec) in decs.iter_mut().enumerate() {
                let w = NR.min(gw - q * NR);
                dec.decode_rows(&mut dst[q * b2off..q * b2off + depth * NR], depth, w)?;
            }
        }
        let bbuf = scratch.panels();
        let mut i = 0;
        while i < m {
            let rows = MR.min(m - i);
            if rows == MR {
                // Steady state on AVX-512 with a full group: the same
                // four-panel register tile as the dense engine's phase 1.
                #[cfg(target_arch = "x86_64")]
                if variant == GemmVariant::Avx512 && gp == GQ {
                    let mut accs = [[[0.0f32; NR]; MR]; GQ];
                    if !first {
                        for (q, accq) in accs.iter_mut().enumerate() {
                            let wq = NR.min(gw - q * NR);
                            for (r, accr) in accq.iter_mut().enumerate() {
                                accr[..wq]
                                    .copy_from_slice(&stripe[(i + r) * gw + q * NR..][..wq]);
                            }
                        }
                    }
                    // SAFETY: `i + MR <= m` bounds the A pointers for
                    // depths kb..ke; all four scratch panels have `depth`
                    // full NR-wide zero-padded rows; ISA verified at
                    // dispatch time.
                    unsafe {
                        let abase = a.as_ptr().add(i * k + kb);
                        x86::mac4x4_avx512(abase, astride, bbuf.as_ptr(), b2off, NR, depth, &mut accs);
                    }
                    for (q, accq) in accs.iter().enumerate() {
                        let wq = NR.min(gw - q * NR);
                        let jq = j0 + q * NR;
                        for (r, accr) in accq.iter().enumerate() {
                            store_stripe(&mut stripe[(i + r) * gw + q * NR..][..wq], accr, jq, last, epi);
                        }
                    }
                    i += MR;
                    continue;
                }
                let mut q = 0;
                while q < gp {
                    let wq = NR.min(gw - q * NR);
                    let jq = j0 + q * NR;
                    #[cfg(target_arch = "x86_64")]
                    if variant == GemmVariant::Avx512 && q + 1 < gp {
                        let w2 = NR.min(gw - (q + 1) * NR);
                        let mut acc0 = [[0.0f32; NR]; MR];
                        let mut acc1 = [[0.0f32; NR]; MR];
                        if !first {
                            for r in 0..MR {
                                acc0[r][..wq]
                                    .copy_from_slice(&stripe[(i + r) * gw + q * NR..][..wq]);
                                acc1[r][..w2]
                                    .copy_from_slice(&stripe[(i + r) * gw + (q + 1) * NR..][..w2]);
                            }
                        }
                        // SAFETY: as above, for two adjacent scratch panels.
                        unsafe {
                            let abase = a.as_ptr().add(i * k + kb);
                            let bpanel = bbuf.as_ptr().add(q * b2off);
                            x86::mac4x2_avx512(
                                abase, astride, bpanel, b2off, NR, depth, &mut acc0, &mut acc1,
                            );
                        }
                        for r in 0..MR {
                            store_stripe(&mut stripe[(i + r) * gw + q * NR..][..wq], &acc0[r], jq, last, epi);
                            store_stripe(
                                &mut stripe[(i + r) * gw + (q + 1) * NR..][..w2],
                                &acc1[r],
                                jq + NR,
                                last,
                                epi,
                            );
                        }
                        q += 2;
                        continue;
                    }
                    let mut acc = [[0.0f32; NR]; MR];
                    if !first {
                        for (r, accr) in acc.iter_mut().enumerate() {
                            accr[..wq].copy_from_slice(&stripe[(i + r) * gw + q * NR..][..wq]);
                        }
                    }
                    // SAFETY: `i + MR <= m` bounds the A pointers for
                    // depths kb..ke; scratch panel `q` has `depth` full
                    // NR-wide zero-padded rows; ISA verified at dispatch.
                    unsafe {
                        let abase = a.as_ptr().add(i * k + kb);
                        let bpanel = bbuf.as_ptr().add(q * b2off);
                        match variant {
                            GemmVariant::Scalar => {
                                mac4_scalar(abase, astride, bpanel, NR, depth, &mut acc)
                            }
                            #[cfg(target_arch = "x86_64")]
                            GemmVariant::Avx2 => {
                                x86::mac4_avx2(abase, astride, bpanel, NR, depth, &mut acc)
                            }
                            #[cfg(target_arch = "x86_64")]
                            GemmVariant::Avx512 => {
                                x86::mac4_avx512(abase, astride, bpanel, NR, depth, &mut acc)
                            }
                            #[cfg(not(target_arch = "x86_64"))]
                            _ => mac4_scalar(abase, astride, bpanel, NR, depth, &mut acc),
                        }
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        store_stripe(&mut stripe[(i + r) * gw + q * NR..][..wq], accr, jq, last, epi);
                    }
                    q += 1;
                }
            } else {
                for q in 0..gp {
                    let wq = NR.min(gw - q * NR);
                    let jq = j0 + q * NR;
                    for r in 0..rows {
                        let mut acc = [0.0f32; NR];
                        if !first {
                            acc[..wq].copy_from_slice(&stripe[(i + r) * gw + q * NR..][..wq]);
                        }
                        // SAFETY: `i + r < m` bounds the A row for depths
                        // kb..ke; scratch panel `q` as above.
                        unsafe {
                            let arow = a.as_ptr().add((i + r) * k + kb);
                            let bpanel = bbuf.as_ptr().add(q * b2off);
                            match variant {
                                GemmVariant::Scalar => {
                                    mac1_scalar(arow, 1, bpanel, NR, depth, &mut acc)
                                }
                                #[cfg(target_arch = "x86_64")]
                                GemmVariant::Avx2 => {
                                    x86::mac1_avx2(arow, 1, bpanel, NR, depth, &mut acc)
                                }
                                #[cfg(target_arch = "x86_64")]
                                GemmVariant::Avx512 => {
                                    x86::mac1_avx512(arow, 1, bpanel, NR, depth, &mut acc)
                                }
                                #[cfg(not(target_arch = "x86_64"))]
                                _ => mac1_scalar(arow, 1, bpanel, NR, depth, &mut acc),
                            }
                        }
                        store_stripe(&mut stripe[(i + r) * gw + q * NR..][..wq], &acc, jq, last, epi);
                    }
                }
            }
            i += rows;
        }
        if last {
            break;
        }
        kb = ke;
    }
    // Every panel stream must land exactly on its promised end; a crafted
    // container with excess payload fails here, typed.
    for dec in &decs {
        dec.finish()?;
    }
    Ok(stripe)
}

/// Writes one accumulator row back to the stripe: the fused epilogue on
/// the final depth block, a raw parked partial (exact `f32` copy) before.
#[inline(always)]
fn store_stripe(orow: &mut [f32], acc: &[f32; NR], jq: usize, last: bool, epi: Epilogue<'_>) {
    if last && !matches!(epi, Epilogue::None) {
        for (l, o) in orow.iter_mut().enumerate() {
            *o = apply_epilogue(acc[l], jq + l, epi);
        }
    } else {
        // Final value or parked partial — memcpy of the lane row compiles
        // to vector stores.
        orow.copy_from_slice(&acc[..orow.len()]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{AStride, MR, NR};
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller verified `avx2`; pointer contracts as in
    /// [`super::mac4_scalar`]. Multiplies and adds stay separate (no FMA)
    /// to keep the reference's two-roundings-per-step semantics.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mac4_avx2(
        a: *const f32,
        astride: AStride,
        b: *const f32,
        bstride: usize,
        k: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        // Resume from the caller's accumulators (zeros for a one-shot
        // call, parked partials under depth blocking).
        let mut c00 = _mm256_loadu_ps(acc[0].as_ptr());
        let mut c01 = _mm256_loadu_ps(acc[0].as_ptr().add(8));
        let mut c10 = _mm256_loadu_ps(acc[1].as_ptr());
        let mut c11 = _mm256_loadu_ps(acc[1].as_ptr().add(8));
        let mut c20 = _mm256_loadu_ps(acc[2].as_ptr());
        let mut c21 = _mm256_loadu_ps(acc[2].as_ptr().add(8));
        let mut c30 = _mm256_loadu_ps(acc[3].as_ptr());
        let mut c31 = _mm256_loadu_ps(acc[3].as_ptr().add(8));
        let (mut p0, mut p1, mut p2, mut p3) = (
            a,
            a.add(astride.row),
            a.add(2 * astride.row),
            a.add(3 * astride.row),
        );
        let mut bp = b;
        for _ in 0..k {
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            bp = bp.add(bstride);
            let a0 = *p0;
            p0 = p0.add(astride.step);
            if a0 != 0.0 {
                let v = _mm256_set1_ps(a0);
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(v, b0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(v, b1));
            }
            let a1 = *p1;
            p1 = p1.add(astride.step);
            if a1 != 0.0 {
                let v = _mm256_set1_ps(a1);
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(v, b0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(v, b1));
            }
            let a2 = *p2;
            p2 = p2.add(astride.step);
            if a2 != 0.0 {
                let v = _mm256_set1_ps(a2);
                c20 = _mm256_add_ps(c20, _mm256_mul_ps(v, b0));
                c21 = _mm256_add_ps(c21, _mm256_mul_ps(v, b1));
            }
            let a3 = *p3;
            p3 = p3.add(astride.step);
            if a3 != 0.0 {
                let v = _mm256_set1_ps(a3);
                c30 = _mm256_add_ps(c30, _mm256_mul_ps(v, b0));
                c31 = _mm256_add_ps(c31, _mm256_mul_ps(v, b1));
            }
        }
        _mm256_storeu_ps(acc[0].as_mut_ptr(), c00);
        _mm256_storeu_ps(acc[0].as_mut_ptr().add(8), c01);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), c10);
        _mm256_storeu_ps(acc[1].as_mut_ptr().add(8), c11);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), c20);
        _mm256_storeu_ps(acc[2].as_mut_ptr().add(8), c21);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), c30);
        _mm256_storeu_ps(acc[3].as_mut_ptr().add(8), c31);
    }

    /// # Safety
    ///
    /// Caller verified `avx2`; pointer contracts as in
    /// [`super::mac1_scalar`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn mac1_avx2(
        a: *const f32,
        astep: usize,
        b: *const f32,
        bstride: usize,
        k: usize,
        acc: &mut [f32; NR],
    ) {
        let mut c0 = _mm256_loadu_ps(acc.as_ptr());
        let mut c1 = _mm256_loadu_ps(acc.as_ptr().add(8));
        let mut p = a;
        let mut bp = b;
        for _ in 0..k {
            let aik = *p;
            p = p.add(astep);
            if aik != 0.0 {
                let v = _mm256_set1_ps(aik);
                c0 = _mm256_add_ps(c0, _mm256_mul_ps(v, _mm256_loadu_ps(bp)));
                c1 = _mm256_add_ps(c1, _mm256_mul_ps(v, _mm256_loadu_ps(bp.add(8))));
            }
            bp = bp.add(bstride);
        }
        _mm256_storeu_ps(acc.as_mut_ptr(), c0);
        _mm256_storeu_ps(acc.as_mut_ptr().add(8), c1);
    }

    /// # Safety
    ///
    /// Caller verified `avx512f`/`vl`/`dq`; pointer contracts as in
    /// [`super::mac4_scalar`]. No FMA contraction (see module docs).
    #[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
    pub unsafe fn mac4_avx512(
        a: *const f32,
        astride: AStride,
        b: *const f32,
        bstride: usize,
        k: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut c0 = _mm512_loadu_ps(acc[0].as_ptr());
        let mut c1 = _mm512_loadu_ps(acc[1].as_ptr());
        let mut c2 = _mm512_loadu_ps(acc[2].as_ptr());
        let mut c3 = _mm512_loadu_ps(acc[3].as_ptr());
        let (mut p0, mut p1, mut p2, mut p3) = (
            a,
            a.add(astride.row),
            a.add(2 * astride.row),
            a.add(3 * astride.row),
        );
        let mut bp = b;
        for _ in 0..k {
            let bv = _mm512_loadu_ps(bp);
            bp = bp.add(bstride);
            let a0 = *p0;
            p0 = p0.add(astride.step);
            if a0 != 0.0 {
                c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(a0), bv));
            }
            let a1 = *p1;
            p1 = p1.add(astride.step);
            if a1 != 0.0 {
                c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(a1), bv));
            }
            let a2 = *p2;
            p2 = p2.add(astride.step);
            if a2 != 0.0 {
                c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(a2), bv));
            }
            let a3 = *p3;
            p3 = p3.add(astride.step);
            if a3 != 0.0 {
                c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(a3), bv));
            }
        }
        _mm512_storeu_ps(acc[0].as_mut_ptr(), c0);
        _mm512_storeu_ps(acc[1].as_mut_ptr(), c1);
        _mm512_storeu_ps(acc[2].as_mut_ptr(), c2);
        _mm512_storeu_ps(acc[3].as_mut_ptr(), c3);
    }

    /// One depth-step of one A row against four resident B vectors.
    ///
    /// Two codegen details keep the A-side bookkeeping off the two
    /// floating-point ports (which the multiply/add chains must saturate):
    ///
    /// * the zero-skip is an *integer* test on the raw bits (true for
    ///   every non-zero value including NaN — which the reference also
    ///   does not skip — false only for `±0.0`); a plain `a != 0.0`
    ///   compiles to `vucomiss` plus two branches on an FP port;
    /// * the broadcast is pinned via inline asm to the memory-operand
    ///   `vbroadcastss zmm, [mem]` form — a pure load-port micro-op —
    ///   because LLVM otherwise CSEs the float load with the integer one
    ///   and emits `vpbroadcastd zmm, r32`, which occupies the same port
    ///   as the second FP unit.
    macro_rules! row_step {
        ($p:expr, $c:expr, $bv:ident) => {{
            let p: *const f32 = $p;
            let bits = (p as *const u32).read();
            if bits & 0x7fff_ffff != 0 {
                let v: __m512;
                core::arch::asm!(
                    "vbroadcastss {v}, dword ptr [{p}]",
                    v = out(zmm_reg) v,
                    p = in(reg) p,
                    options(pure, readonly, nostack),
                );
                for q in 0..4 {
                    $c[q] = _mm512_add_ps($c[q], _mm512_mul_ps(v, $bv[q]));
                }
            }
        }};
    }

    /// Fills four adjacent `NR`-wide panels (`b + q * b2off`) in one pass —
    /// sixteen independent accumulator chains (a full 4x64 register tile),
    /// amortizing the scalar A-load/zero-check/broadcast over 64 lanes.
    /// This is the steady-state kernel on AVX-512 parts: 32 vector FP ops
    /// per depth step saturate both FP ports while the A-side bookkeeping
    /// rides the load and branch ports.
    ///
    /// # Safety
    ///
    /// Caller verified `avx512f`/`vl`/`dq`; pointer contracts as in
    /// [`super::mac4_scalar`], for all four panels. No FMA contraction.
    #[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mac4x4_avx512(
        a: *const f32,
        astride: AStride,
        b: *const f32,
        b2off: usize,
        bstride: usize,
        k: usize,
        accs: &mut [[[f32; NR]; MR]; 4],
    ) {
        // Resume from the caller's accumulators (zeros on the first depth
        // block, parked partials afterwards).
        let mut c: [[__m512; 4]; MR] = [[_mm512_setzero_ps(); 4]; MR];
        for (r, cr) in c.iter_mut().enumerate() {
            for (q, crq) in cr.iter_mut().enumerate() {
                *crq = _mm512_loadu_ps(accs[q][r].as_ptr());
            }
        }
        let (mut p0, mut p1, mut p2, mut p3) = (
            a,
            a.add(astride.row),
            a.add(2 * astride.row),
            a.add(3 * astride.row),
        );
        let mut bp = b;
        let s = astride.step;
        // Two depth steps per trip (same per-element sequence, half the
        // loop overhead), with the B streams prefetched one K-batch ahead.
        let mut rem = k;
        while rem >= 2 {
            _mm_prefetch::<_MM_HINT_T0>(bp.add(16 * bstride) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(bp.add(b2off + 16 * bstride) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(bp.add(2 * b2off + 16 * bstride) as *const i8);
            _mm_prefetch::<_MM_HINT_T0>(bp.add(3 * b2off + 16 * bstride) as *const i8);
            let bv = [
                _mm512_loadu_ps(bp),
                _mm512_loadu_ps(bp.add(b2off)),
                _mm512_loadu_ps(bp.add(2 * b2off)),
                _mm512_loadu_ps(bp.add(3 * b2off)),
            ];
            row_step!(p0, c[0], bv);
            row_step!(p1, c[1], bv);
            row_step!(p2, c[2], bv);
            row_step!(p3, c[3], bv);
            let bw = [
                _mm512_loadu_ps(bp.add(bstride)),
                _mm512_loadu_ps(bp.add(bstride + b2off)),
                _mm512_loadu_ps(bp.add(bstride + 2 * b2off)),
                _mm512_loadu_ps(bp.add(bstride + 3 * b2off)),
            ];
            row_step!(p0.add(s), c[0], bw);
            row_step!(p1.add(s), c[1], bw);
            row_step!(p2.add(s), c[2], bw);
            row_step!(p3.add(s), c[3], bw);
            p0 = p0.add(2 * s);
            p1 = p1.add(2 * s);
            p2 = p2.add(2 * s);
            p3 = p3.add(2 * s);
            bp = bp.add(2 * bstride);
            rem -= 2;
        }
        if rem == 1 {
            let bv = [
                _mm512_loadu_ps(bp),
                _mm512_loadu_ps(bp.add(b2off)),
                _mm512_loadu_ps(bp.add(2 * b2off)),
                _mm512_loadu_ps(bp.add(3 * b2off)),
            ];
            row_step!(p0, c[0], bv);
            row_step!(p1, c[1], bv);
            row_step!(p2, c[2], bv);
            row_step!(p3, c[3], bv);
        }
        for r in 0..MR {
            for q in 0..4 {
                _mm512_storeu_ps(accs[q][r].as_mut_ptr(), c[r][q]);
            }
        }
    }

    /// Fills two adjacent `NR`-wide panels (`b` and `b + b2off`) in one
    /// pass — eight independent accumulator chains, amortizing the scalar
    /// A-load/zero-check/broadcast over twice the lanes. Panel-count
    /// remainder kernel behind [`mac4x4_avx512`].
    ///
    /// # Safety
    ///
    /// Caller verified `avx512f`/`vl`/`dq`; pointer contracts as in
    /// [`super::mac4_scalar`], for both panels. No FMA contraction.
    #[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mac4x2_avx512(
        a: *const f32,
        astride: AStride,
        b: *const f32,
        b2off: usize,
        bstride: usize,
        k: usize,
        acc0: &mut [[f32; NR]; MR],
        acc1: &mut [[f32; NR]; MR],
    ) {
        let mut c00 = _mm512_loadu_ps(acc0[0].as_ptr());
        let mut c01 = _mm512_loadu_ps(acc1[0].as_ptr());
        let mut c10 = _mm512_loadu_ps(acc0[1].as_ptr());
        let mut c11 = _mm512_loadu_ps(acc1[1].as_ptr());
        let mut c20 = _mm512_loadu_ps(acc0[2].as_ptr());
        let mut c21 = _mm512_loadu_ps(acc1[2].as_ptr());
        let mut c30 = _mm512_loadu_ps(acc0[3].as_ptr());
        let mut c31 = _mm512_loadu_ps(acc1[3].as_ptr());
        let (mut p0, mut p1, mut p2, mut p3) = (
            a,
            a.add(astride.row),
            a.add(2 * astride.row),
            a.add(3 * astride.row),
        );
        let mut bp = b;
        for _ in 0..k {
            let bv0 = _mm512_loadu_ps(bp);
            let bv1 = _mm512_loadu_ps(bp.add(b2off));
            bp = bp.add(bstride);
            let a0 = *p0;
            p0 = p0.add(astride.step);
            if a0 != 0.0 {
                let v = _mm512_set1_ps(a0);
                c00 = _mm512_add_ps(c00, _mm512_mul_ps(v, bv0));
                c01 = _mm512_add_ps(c01, _mm512_mul_ps(v, bv1));
            }
            let a1 = *p1;
            p1 = p1.add(astride.step);
            if a1 != 0.0 {
                let v = _mm512_set1_ps(a1);
                c10 = _mm512_add_ps(c10, _mm512_mul_ps(v, bv0));
                c11 = _mm512_add_ps(c11, _mm512_mul_ps(v, bv1));
            }
            let a2 = *p2;
            p2 = p2.add(astride.step);
            if a2 != 0.0 {
                let v = _mm512_set1_ps(a2);
                c20 = _mm512_add_ps(c20, _mm512_mul_ps(v, bv0));
                c21 = _mm512_add_ps(c21, _mm512_mul_ps(v, bv1));
            }
            let a3 = *p3;
            p3 = p3.add(astride.step);
            if a3 != 0.0 {
                let v = _mm512_set1_ps(a3);
                c30 = _mm512_add_ps(c30, _mm512_mul_ps(v, bv0));
                c31 = _mm512_add_ps(c31, _mm512_mul_ps(v, bv1));
            }
        }
        _mm512_storeu_ps(acc0[0].as_mut_ptr(), c00);
        _mm512_storeu_ps(acc0[1].as_mut_ptr(), c10);
        _mm512_storeu_ps(acc0[2].as_mut_ptr(), c20);
        _mm512_storeu_ps(acc0[3].as_mut_ptr(), c30);
        _mm512_storeu_ps(acc1[0].as_mut_ptr(), c01);
        _mm512_storeu_ps(acc1[1].as_mut_ptr(), c11);
        _mm512_storeu_ps(acc1[2].as_mut_ptr(), c21);
        _mm512_storeu_ps(acc1[3].as_mut_ptr(), c31);
    }

    /// # Safety
    ///
    /// Caller verified `avx512f`/`vl`/`dq`; pointer contracts as in
    /// [`super::mac1_scalar`].
    #[target_feature(enable = "avx512f", enable = "avx512vl", enable = "avx512dq")]
    pub unsafe fn mac1_avx512(
        a: *const f32,
        astep: usize,
        b: *const f32,
        bstride: usize,
        k: usize,
        acc: &mut [f32; NR],
    ) {
        let mut c = _mm512_loadu_ps(acc.as_ptr());
        let mut p = a;
        let mut bp = b;
        for _ in 0..k {
            let aik = *p;
            p = p.add(astep);
            if aik != 0.0 {
                c = _mm512_add_ps(c, _mm512_mul_ps(_mm512_set1_ps(aik), _mm512_loadu_ps(bp)));
            }
            bp = bp.add(bstride);
        }
        _mm512_storeu_ps(acc.as_mut_ptr(), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_util::Rng;

    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| {
                    // ~20% exact zeros to exercise the skip branch.
                    if rng.gen_f64() < 0.2 {
                        0.0
                    } else {
                        (rng.gen_f64() as f32) * 2.0 - 1.0
                    }
                })
                .collect()
        };
        (gen(m * k), gen(k * n))
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn variants_match_reference_on_ragged_shapes() {
        // Shapes chosen to hit every path: full tiles, row tails, ragged
        // panels, direct and packed B, sub-panel n.
        for &(m, k, n) in &[
            (4, 16, 16),
            (5, 7, 3),
            (11, 33, 50),
            (1, 40, 17),
            (8, 1, 16),
            (23, 19, 64),
            (6, 64, 31),
        ] {
            let (a, b) = operands(m, k, n, 0xBEEF ^ (m * 1_000_003 + k * 1009 + n) as u64);
            let want = reference(Layout::Nn, &a, &b, m, k, n, Epilogue::None);
            for v in GemmVariant::available() {
                let got = gemm_with(v, Layout::Nn, &a, &b, m, k, n, Epilogue::None);
                assert_bits_eq(&got, &want, &format!("{} {m}x{k}x{n}", v.name()));
            }
        }
    }

    #[test]
    fn worker_split_is_bit_identical() {
        let (m, k, n) = (37, 29, 33);
        let (a, b) = operands(m, k, n, 42);
        let seq = gemm_impl(
            GemmVariant::detect(),
            Layout::Nn,
            &a,
            &b,
            m,
            k,
            n,
            Epilogue::None,
            1,
        );
        for workers in [2, 3, 5] {
            let par = gemm_impl(
                GemmVariant::detect(),
                Layout::Nn,
                &a,
                &b,
                m,
                k,
                n,
                Epilogue::None,
                workers,
            );
            assert_bits_eq(&par, &seq, &format!("{workers} workers"));
        }
    }

    #[test]
    fn packed_and_direct_agree() {
        // n = 48 (panel-aligned, small): Direct. Force Packed by size: use
        // k*n >= 2^18.
        let (m, k, n) = (9, 400, 700);
        let (a, b) = operands(m, k, n, 7);
        let want = reference(Layout::Nn, &a, &b, m, k, n, Epilogue::None);
        for v in GemmVariant::available() {
            let got = gemm_with(v, Layout::Nn, &a, &b, m, k, n, Epilogue::None);
            assert_bits_eq(&got, &want, &format!("packed {}", v.name()));
        }
    }

    fn encoded_operand(k: usize, n: usize, seed: u64) -> (EncodedMatrix, Vec<f32>) {
        let (_, braw) = operands(1, k, n, seed);
        let bt = crate::Tensor::from_vec(braw, &[k, n]).unwrap();
        let em = EncodedMatrix::encode(&bt).unwrap();
        let decoded = em.decode().unwrap().into_vec();
        (em, decoded)
    }

    #[test]
    fn fused_matches_decode_then_gemm_and_reference() {
        // Shapes hit: full quad groups, partial groups, ragged last panel,
        // k % KC tails, k > KC (multi depth-block parking), row tails.
        for &(m, k, n) in &[
            (4, 16, 64),
            (5, 7, 3),
            (11, 150, 50),
            (1, 300, 17),
            (7, 130, 80),
            (6, 256, 64),
        ] {
            let (a, _) = operands(m, k, n, 0xFACE ^ (m * 31 + k * 7 + n) as u64);
            let (em, decoded) = encoded_operand(k, n, (m + k + n) as u64);
            let want = reference(Layout::Nn, &a, &decoded, m, k, n, Epilogue::None);
            for v in GemmVariant::available() {
                let fused = gemm_encoded_with(v, &a, &em, m, Epilogue::None).unwrap();
                let dense = gemm_with(v, Layout::Nn, &a, &decoded, m, k, n, Epilogue::None);
                assert_bits_eq(&fused, &want, &format!("fused/ref {} {m}x{k}x{n}", v.name()));
                assert_bits_eq(&fused, &dense, &format!("fused/dense {} {m}x{k}x{n}", v.name()));
            }
        }
    }

    #[test]
    fn fused_epilogues_match() {
        let (m, k, n) = (9, 140, 37);
        let (a, _) = operands(m, k, n, 99);
        let (em, decoded) = encoded_operand(k, n, 100);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32) * 0.25 - 2.0).collect();
        for v in GemmVariant::available() {
            for (epi, name) in [
                (Epilogue::Bias(&bias), "bias"),
                (Epilogue::BiasRelu(&bias), "bias_relu"),
            ] {
                let want = reference(Layout::Nn, &a, &decoded, m, k, n, epi);
                let fused = gemm_encoded_with(v, &a, &em, m, epi).unwrap();
                assert_bits_eq(&fused, &want, &format!("{} {name}", v.name()));
            }
        }
    }

    #[test]
    fn fused_worker_split_is_bit_identical() {
        // m = 1 and 3 sit below MR and 2 * MR: the fused engine splits
        // panel groups, so a GEMV fans out too.
        let (k, n) = (200, 130);
        let (em, _) = encoded_operand(k, n, 6);
        for m in [1, 3, 23] {
            let (a, _) = operands(m, k, n, 5);
            let seq =
                gemm_encoded_impl(GemmVariant::detect(), &a, &em, m, Epilogue::None, 1).unwrap();
            for workers in [2, 3, 5] {
                let par =
                    gemm_encoded_impl(GemmVariant::detect(), &a, &em, m, Epilogue::None, workers)
                        .unwrap();
                assert_bits_eq(&par, &seq, &format!("fused m={m} {workers} workers"));
            }
        }
    }

    #[test]
    fn fused_gemv_fans_out_and_matches_one_worker() {
        // The smallest panel-aligned GEMV at the parallel floor.
        let (k, n) = (1024, PAR_MIN_MACS / 1024);
        let (a, _) = operands(1, k, n, 21);
        let (em, _) = encoded_operand(k, n, 22);
        let fans_out = spark_util::par::thread_count() > 1;
        assert_eq!(fused_workers(1, k, n) > 1, fans_out);
        assert_eq!(fused_workers(1, k, n / 2), 1, "below the floor");
        let at = crate::Tensor::from_vec(a.clone(), &[1, k]).unwrap();
        let auto = crate::ops::matmul_encoded(&at, &em).unwrap();
        let seq = gemm_encoded_impl(GemmVariant::detect(), &a, &em, 1, Epilogue::None, 1).unwrap();
        assert_bits_eq(auto.as_slice(), &seq, "m=1 auto vs 1 worker");
    }

    #[test]
    fn fused_degenerate_dims() {
        let variant = GemmVariant::detect();
        // k = 0: accumulators stay zero, epilogue still applies.
        let bias = vec![1.5f32, -2.0, 3.0];
        let em = EncodedMatrix::encode(&crate::Tensor::zeros(&[0, 3])).unwrap();
        let out = gemm_encoded_impl(variant, &[], &em, 2, Epilogue::Bias(&bias), 1).unwrap();
        assert_eq!(out, vec![1.5, -2.0, 3.0, 1.5, -2.0, 3.0]);
        // m = 0 and n = 0: empty output.
        let em = EncodedMatrix::encode(&crate::Tensor::zeros(&[1, 1])).unwrap();
        assert!(gemm_encoded_impl(variant, &[], &em, 0, Epilogue::None, 1)
            .unwrap()
            .is_empty());
        let em = EncodedMatrix::encode(&crate::Tensor::zeros(&[1, 0])).unwrap();
        assert!(gemm_encoded_impl(variant, &[1.0], &em, 1, Epilogue::None, 1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn degenerate_dims() {
        let variant = GemmVariant::detect();
        // k = 0: all accumulators stay zero, epilogue still applies.
        let bias = vec![1.5f32, -2.0, 3.0];
        let out = gemm_impl(
            variant,
            Layout::Nn,
            &[],
            &[],
            2,
            0,
            3,
            Epilogue::Bias(&bias),
            1,
        );
        assert_eq!(out, vec![1.5, -2.0, 3.0, 1.5, -2.0, 3.0]);
        let empty = gemm_impl(variant, Layout::Nn, &[], &[1.0], 0, 1, 1, Epilogue::None, 1);
        assert!(empty.is_empty());
    }
}
