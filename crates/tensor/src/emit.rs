//! Weight-operand emitters of the decode-fused GEMM: decoded SPARK codes
//! and a panel's sign plane in, the micro-kernels' `B` operand out.
//!
//! Two operand forms, each with a scalar tier and SIMD tiers dispatched on
//! the variant the GEMM call already chose:
//!
//! * [`emit_f32`] writes `NR`-strided `f32` rows for the `f32` path
//!   ([`GemmVariant`]). The scalar tier reads the 256-entry [`Dequant`]
//!   table and XORs the sign bit in. The SIMD tiers compute `cvt(code) *
//!   step` and XOR the sign bit in under a mask. The table entry *is*
//!   `code as f32 * step` (one correctly rounded multiply, the same on
//!   every tier), and flipping the sign bit *is* `f32` negation, so every
//!   tier writes the same bits, NaN payloads included.
//! * [`emit_pairs`] writes signed codes (`±code`) interleaved by depth
//!   pair for the integer path ([`IntVariant`]): depth `2 * pair + h` of
//!   lane `l` at `dst[(pair * NR + l) * 2 + h]`. Integer negation is
//!   exact, so the tiers agree trivially once they read the same bits.
//!
//! * [`mac_rows`] is the `f32` path below `MR` rows (a GEMV) on the SIMD
//!   tiers: it widens each depth row's codes in registers with the same
//!   `cvt · step` and sign-bit XOR as [`emit_f32`] and multiplies them
//!   straight into the accumulators, so no `f32` panel is ever written.
//!   Each output lane still sees `c + a * b`, a multiply then an add, in
//!   ascending depth order with the `a == 0` skip, so it is bit-identical
//!   to [`emit_f32`] followed by the single-row micro-kernel, which stays
//!   as the scalar tier and the oracle.
//!
//! The SIMD tiers take full-width (`w == NR`) rows that start on a sign
//! byte, so a row's 16 sign bits are one `u16` of the plane; the fused
//! GEMM's rows always do, since every claim is a whole number of `NR`-wide
//! rows. A ragged last panel (`w < NR`), an unaligned run and the half
//! pair closing an odd depth block take the scalar loops, which stay as
//! the oracle the tiers are tested against; [`mac_rows`] reads a ragged
//! panel's block through a zero-padded full-width copy ([`Padded`]).

use crate::gemm::{GemmVariant, IntVariant, GQ, KC, MR, NR};

/// One tensor's dequantization: the step `scale / qmax` and, for the
/// scalar tier, `(code as f32 * step).to_bits()` for every code.
#[derive(Debug, Clone)]
pub struct Dequant {
    step: f32,
    table: Box<[u32; 256]>,
}

impl Dequant {
    /// The dequantization of step `step`.
    pub fn new(step: f32) -> Self {
        // Bit-for-bit the MagnitudeCodes::dequantize expression.
        let table = Box::new(std::array::from_fn(|c| (c as f32 * step).to_bits()));
        Self { step, table }
    }

    /// `code * step`, negated when `neg`: one element through the table.
    #[inline(always)]
    fn value(&self, code: u8, neg: u32) -> f32 {
        f32::from_bits(self.table[code as usize] ^ neg << 31)
    }
}

/// Dequantizes the run of elements `e0..e0 + out.len()` of a panel through
/// the table: the codes and the panel's sign plane in, values out. A
/// full-width row starting on a sign byte (`e0` a multiple of 8) reads its
/// signs as one `u16`, so its loop has no branch or variable index; any
/// other run takes the per-element loop through the same table.
#[inline]
pub(crate) fn dequant_run(dq: &Dequant, codes: &[u8], signs: &[u8], e0: usize, out: &mut [f32]) {
    debug_assert_eq!(codes.len(), out.len());
    if let (Ok(out), Ok(codes)) = (
        <&mut [f32; NR]>::try_from(&mut *out),
        <&[u8; NR]>::try_from(codes),
    ) {
        if e0.is_multiple_of(8) {
            let bits = sign_bits16(signs, e0);
            for (l, (slot, &code)) in out.iter_mut().zip(codes).enumerate() {
                *slot = dq.value(code, (bits >> l) & 1);
            }
            return;
        }
    }
    for (l, (slot, &code)) in out.iter_mut().zip(codes).enumerate() {
        *slot = dq.value(code, sign_bit(signs, e0 + l));
    }
}

/// The 16 sign bits of elements `e0..e0 + 16`, for `e0` a multiple of 8.
#[inline(always)]
fn sign_bits16(signs: &[u8], e0: usize) -> u32 {
    u32::from(u16::from_le_bytes([signs[e0 >> 3], signs[(e0 >> 3) + 1]]))
}

/// The sign bit (0 or 1) of element `e`.
#[inline(always)]
fn sign_bit(signs: &[u8], e: usize) -> u32 {
    u32::from(signs[e >> 3] >> (e & 7) & 1)
}

/// `code` negated when `sign` (0 or 1) is set, branch-free.
#[inline(always)]
fn signed_code(code: u8, sign: u32) -> i16 {
    let neg = -(sign as i16);
    (i16::from(code) ^ neg) - neg
}

/// Writes `rows` depth-rows of a `w`-wide panel as dequantized values,
/// one `NR`-strided row per depth step (`dst[r * NR + lane]`). `codes`
/// holds the rows' `rows * w` codes in panel order, and element `e0` of
/// the panel is `codes[0]`, whose sign is bit `e0` of `signs`. Lanes
/// `w..NR` are left untouched (the caller pre-zeroes them).
///
/// # Panics
///
/// When `w > NR`, `codes` holds fewer than `rows * w` codes, `dst` fewer
/// than `rows * NR` values, or `signs` fewer than `e0 + rows * w` bits.
#[allow(clippy::too_many_arguments)]
pub fn emit_f32(
    variant: GemmVariant,
    dq: &Dequant,
    codes: &[u8],
    signs: &[u8],
    e0: usize,
    rows: usize,
    w: usize,
    dst: &mut [f32],
) {
    check_operands(codes, signs, e0, rows, w, dst.len(), rows);
    if w == NR && e0.is_multiple_of(8) {
        match variant {
            // SAFETY: `check_operands` bounds every row the kernels read
            // and write, and full rows start on a sign byte; the tier's
            // ISA was checked when it was chosen (`GemmVariant::detect` /
            // `available`).
            #[cfg(target_arch = "x86_64")]
            GemmVariant::Avx512 => unsafe {
                return x86::emit_f32_avx512(dq.step, codes, signs, e0, rows, dst);
            },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            GemmVariant::Avx2 => unsafe {
                return x86::emit_f32_avx2(dq.step, codes, signs, e0, rows, dst);
            },
            _ => {}
        }
    }
    emit_f32_scalar(dq, codes, signs, e0, rows, w, dst);
}

/// The scalar tier of [`emit_f32`]: one table read per element.
fn emit_f32_scalar(
    dq: &Dequant,
    codes: &[u8],
    signs: &[u8],
    e0: usize,
    rows: usize,
    w: usize,
    dst: &mut [f32],
) {
    for r in 0..rows {
        let e = r * w;
        dequant_run(
            dq,
            &codes[e..e + w],
            signs,
            e0 + e,
            &mut dst[r * NR..r * NR + w],
        );
    }
}

/// Writes `rows` depth-rows of a `w`-wide panel as signed codes (`±code`,
/// no dequantization) interleaved by depth pair: depth `2 * pair + h` of
/// lane `l` at `dst[(pair * NR + l) * 2 + h]`. An odd `rows` leaves the
/// second half of its last pair zero; lanes `w..NR` are left untouched
/// (the caller pre-zeroes them). `codes`, `signs` and `e0` as in
/// [`emit_f32`].
///
/// # Panics
///
/// When `w > NR`, `codes` holds fewer than `rows * w` codes, `dst` fewer
/// than `rows.div_ceil(2) * 2 * NR` values, or `signs` fewer than
/// `e0 + rows * w` bits.
pub fn emit_pairs(
    variant: IntVariant,
    codes: &[u8],
    signs: &[u8],
    e0: usize,
    rows: usize,
    w: usize,
    dst: &mut [i16],
) {
    let dst_rows = rows.div_ceil(2).saturating_mul(2);
    check_operands(codes, signs, e0, rows, w, dst.len(), dst_rows);
    let mut done = 0;
    if w == NR && e0.is_multiple_of(8) {
        let pairs = rows / 2;
        match variant {
            // SAFETY: `check_operands` bounds the `pairs` full pairs the
            // kernels read and write, and full rows start on a sign byte;
            // the tier's ISA was checked when it was chosen
            // (`IntVariant::detect` / `available`).
            #[cfg(target_arch = "x86_64")]
            IntVariant::Avx512Vnni => unsafe {
                x86::emit_pairs_avx512(codes, signs, e0, pairs, dst);
                done = pairs;
            },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            IntVariant::Avx2 => unsafe {
                x86::emit_pairs_avx2(codes, signs, e0, pairs, dst);
                done = pairs;
            },
            _ => {}
        }
    }
    emit_pairs_scalar(codes, signs, e0, rows, w, done, dst);
}

/// The scalar tier of [`emit_pairs`], from depth pair `first` on: one
/// element at a time, the reference the SIMD tiers are checked against.
fn emit_pairs_scalar(
    codes: &[u8],
    signs: &[u8],
    e0: usize,
    rows: usize,
    w: usize,
    first: usize,
    dst: &mut [i16],
) {
    for (pair, out) in dst
        .chunks_exact_mut(2 * NR)
        .take(rows.div_ceil(2))
        .enumerate()
        .skip(first)
    {
        let c0 = 2 * pair * w;
        for h in 0..2 {
            let r = 2 * pair + h;
            for l in 0..w {
                out[2 * l + h] = if r < rows {
                    let c = c0 + h * w + l;
                    signed_code(codes[c], sign_bit(signs, e0 + c))
                } else {
                    0
                };
            }
        }
    }
}

/// One depth block of a panel as full-width rows, the form [`mac_rows`]
/// reads: row `r`'s `NR` codes at `codes[r * NR..]` and its `NR` sign bits
/// as the little-endian `u16` at `signs[2 * r..]`.
#[derive(Clone, Copy, Default)]
pub(crate) struct FullRows<'a> {
    codes: &'a [u8],
    signs: &'a [u8],
}

impl<'a> FullRows<'a> {
    /// The block of a full-width panel in place: `codes` holds its rows
    /// from panel element `e0`, a multiple of 8, so row `r`'s sign bits
    /// are bytes `e0 / 8 + 2 * r` and the next of `signs`.
    ///
    /// # Panics
    ///
    /// When `e0` is not a multiple of 8.
    pub(crate) fn in_place(codes: &'a [u8], signs: &'a [u8], e0: usize) -> Self {
        assert!(e0.is_multiple_of(8), "full-width rows start on a sign byte");
        Self {
            codes,
            signs: signs.get(e0 / 8..).unwrap_or_default(),
        }
    }
}

/// A ragged (`w < NR`) panel's depth block, widened to full-width rows
/// with lanes `w..NR` zero.
pub(crate) struct Padded {
    codes: [u8; KC * NR],
    signs: [u8; 2 * KC],
}

impl Default for Padded {
    fn default() -> Self {
        Self {
            codes: [0; KC * NR],
            signs: [0; 2 * KC],
        }
    }
}

impl Padded {
    /// Widens `rows` depth-rows of a `w`-wide panel (`codes` and `e0` as
    /// in [`emit_f32`]) and returns them as full-width rows.
    ///
    /// # Panics
    ///
    /// When `rows > KC`, or as [`emit_f32`] for the operands.
    pub(crate) fn widen(
        &mut self,
        codes: &[u8],
        signs: &[u8],
        e0: usize,
        rows: usize,
        w: usize,
    ) -> FullRows<'_> {
        assert!(rows <= KC, "a depth block holds at most KC rows");
        check_operands(codes, signs, e0, rows, w, KC * NR, rows);
        for r in 0..rows {
            let (src, dst) = (
                &codes[r * w..(r + 1) * w],
                &mut self.codes[r * NR..(r + 1) * NR],
            );
            dst[..w].copy_from_slice(src);
            dst[w..].fill(0);
            let bits = (0..w).fold(0u16, |bits, l| {
                bits | (sign_bit(signs, e0 + r * w + l) as u16) << l
            });
            self.signs[2 * r..2 * r + 2].copy_from_slice(&bits.to_le_bytes());
        }
        FullRows {
            codes: &self.codes[..rows * NR],
            signs: &self.signs[..2 * rows],
        }
    }
}

/// One GEMV row's accumulators across a panel group: `[panel][lane]`.
pub(crate) type GroupAcc = [[f32; NR]; GQ];

/// Whether `variant` has a [`mac_rows`] kernel; the scalar tier emits
/// `f32` panels for the single-row micro-kernel instead (the oracle).
pub(crate) fn fuses(variant: GemmVariant) -> bool {
    !matches!(variant, GemmVariant::Scalar)
}

/// For every depth `kk` in `0..depth` and row `r`, unless `a[r * lda +
/// kk]` is zero: `acc[r][q][lane] += a[r * lda + kk] * value`, where
/// `value` is element `(kk, lane)` of `blocks[q]` dequantized with `dq`'s
/// step, widened in registers and never stored (see the module docs).
///
/// # Panics
///
/// When `variant` has no such kernel ([`fuses`]), `acc` holds no row or
/// `MR` or more, `blocks` no panel or more than `GQ`, a block fewer than
/// `depth` rows, or `a` fewer than `(acc.len() - 1) * lda + depth` values.
pub(crate) fn mac_rows(
    variant: GemmVariant,
    dq: &Dequant,
    a: &[f32],
    lda: usize,
    blocks: &[FullRows<'_>],
    depth: usize,
    acc: &mut [GroupAcc],
) {
    let (rows, panels) = (acc.len(), blocks.len());
    assert!(
        (1..MR).contains(&rows)
            && (1..=GQ).contains(&panels)
            && blocks
                .iter()
                .all(|b| b.codes.len() >= depth * NR && b.signs.len() >= 2 * depth)
            && (depth == 0 || a.len() >= (rows - 1) * lda + depth),
        "mac_rows operands out of bounds: {rows} rows, {panels} panels, depth {depth}"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let mut codes = [std::ptr::null(); GQ];
        let mut signs = [std::ptr::null(); GQ];
        for (q, b) in blocks.iter().enumerate() {
            codes[q] = b.codes.as_ptr();
            signs[q] = b.signs.as_ptr();
        }
        let (a, acc) = (a.as_ptr(), acc.as_mut_ptr());
        let step = dq.step;
        // One monomorphized kernel per (rows, panels), so every
        // accumulator is a named register.
        macro_rules! by_shape {
            ($kernel:ident) => {
                match (rows, panels) {
                    (1, 1) => x86::$kernel::<1, 1>(step, a, lda, &codes, &signs, depth, acc),
                    (1, 2) => x86::$kernel::<1, 2>(step, a, lda, &codes, &signs, depth, acc),
                    (1, 3) => x86::$kernel::<1, 3>(step, a, lda, &codes, &signs, depth, acc),
                    (1, _) => x86::$kernel::<1, 4>(step, a, lda, &codes, &signs, depth, acc),
                    (2, 1) => x86::$kernel::<2, 1>(step, a, lda, &codes, &signs, depth, acc),
                    (2, 2) => x86::$kernel::<2, 2>(step, a, lda, &codes, &signs, depth, acc),
                    (2, 3) => x86::$kernel::<2, 3>(step, a, lda, &codes, &signs, depth, acc),
                    (2, _) => x86::$kernel::<2, 4>(step, a, lda, &codes, &signs, depth, acc),
                    (_, 1) => x86::$kernel::<3, 1>(step, a, lda, &codes, &signs, depth, acc),
                    (_, 2) => x86::$kernel::<3, 2>(step, a, lda, &codes, &signs, depth, acc),
                    (_, 3) => x86::$kernel::<3, 3>(step, a, lda, &codes, &signs, depth, acc),
                    (_, _) => x86::$kernel::<3, 4>(step, a, lda, &codes, &signs, depth, acc),
                }
            };
        }
        match variant {
            // SAFETY: the assert above bounds every row of `a`, every
            // block's codes and sign bytes and every accumulator the
            // kernel touches (`rows < MR = 4`, `panels <= GQ = 4`); the
            // tier's ISA was checked when it was chosen.
            GemmVariant::Avx512 => unsafe { by_shape!(mac_rows_avx512) },
            // SAFETY: as above.
            GemmVariant::Avx2 => unsafe { by_shape!(mac_rows_avx2) },
            GemmVariant::Scalar => unreachable!("the scalar tier has no register-fused kernel"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("{} has no register-fused kernel", variant.name());
}

/// The bounds every tier relies on, for `dst_rows` output rows of `NR`
/// lanes. Checked arithmetic, so no product can wrap past a check.
fn check_operands(
    codes: &[u8],
    signs: &[u8],
    e0: usize,
    rows: usize,
    w: usize,
    dst_len: usize,
    dst_rows: usize,
) {
    let fits = |need: Option<usize>, have: usize| need.is_some_and(|n| n <= have);
    let count = rows.checked_mul(w);
    assert!(
        w <= NR
            && fits(count, codes.len())
            && fits(dst_rows.checked_mul(NR), dst_len)
            && fits(
                count.and_then(|c| c.checked_add(e0)),
                signs.len().saturating_mul(8)
            ),
        "emitter operands out of bounds: {rows} rows of width {w} from element {e0}, \
         {} codes, {} sign bytes, {dst_len} outputs",
        codes.len(),
        signs.len(),
    );
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SIMD emitters over full-width (`NR`-lane) rows.
    use super::{GroupAcc, GQ, NR};
    use std::arch::x86_64::*;

    /// `rows` rows of `f32` values: `vpmovzxbd`, `vcvtdq2ps`, `vmulps` by
    /// the step, and the sign bit XORed in under the row's sign mask.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features, `codes` holds `rows * NR` codes,
    /// `dst` `rows * NR` values, `e0` is a multiple of 8 and `signs`
    /// holds bits `e0..e0 + rows * NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn emit_f32_avx512(
        step: f32,
        codes: &[u8],
        signs: &[u8],
        e0: usize,
        rows: usize,
        dst: &mut [f32],
    ) {
        let stepv = _mm512_set1_ps(step);
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for r in 0..rows {
            _mm512_storeu_ps(
                d.add(r * NR),
                widen_avx512(c.add(r * NR), s.add(r * NR / 8), stepv),
            );
        }
    }

    /// One full row of values: the 16 codes at `c` through `vpmovzxbd`,
    /// `vcvtdq2ps` and `vmulps` by the step, the sign bit XORed in under
    /// the row's sign mask (the `u16` at `s`).
    ///
    /// # Safety
    ///
    /// The CPU has AVX-512F, `c` points to 16 readable codes and `s` to 2
    /// readable sign bytes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn widen_avx512(c: *const u8, s: *const u8, stepv: __m512) -> __m512 {
        let bytes = _mm_loadu_si128(c.cast());
        let mag = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes)), stepv);
        let mask = u16::from_le(s.cast::<u16>().read_unaligned());
        let bits = _mm512_castps_si512(mag);
        let v = _mm512_mask_xor_epi32(bits, mask, bits, _mm512_set1_epi32(i32::MIN));
        _mm512_castsi512_ps(v)
    }

    /// [`super::mac_rows`] for `R` rows over `Q` panels: each depth row's
    /// values widened by [`widen_avx512`], then `c = c + a * v` per row
    /// (`vmulps`, `vaddps`, never fused) into `R * Q` independent
    /// accumulators.
    ///
    /// # Safety
    ///
    /// The CPU has AVX-512F; `a` is readable at `r * lda + kk`, `codes[q]`
    /// at `kk * NR..(kk + 1) * NR`, `signs[q]` at `2 * kk..2 * kk + 2` and
    /// `acc` is valid for `R` accumulator rows, for `r < R`, `q < Q`,
    /// `kk < depth`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn mac_rows_avx512<const R: usize, const Q: usize>(
        step: f32,
        a: *const f32,
        lda: usize,
        codes: &[*const u8; GQ],
        signs: &[*const u8; GQ],
        depth: usize,
        acc: *mut GroupAcc,
    ) {
        let stepv = _mm512_set1_ps(step);
        let mut c = [[_mm512_setzero_ps(); Q]; R];
        for (r, cr) in c.iter_mut().enumerate() {
            for (cq, row) in cr.iter_mut().zip(&*acc.add(r)) {
                *cq = _mm512_loadu_ps(row.as_ptr());
            }
        }
        for kk in 0..depth {
            let mut av = [0.0f32; R];
            for (r, x) in av.iter_mut().enumerate() {
                *x = *a.add(r * lda + kk);
            }
            if av.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut v = [_mm512_setzero_ps(); Q];
            for (q, vq) in v.iter_mut().enumerate() {
                *vq = widen_avx512(codes[q].add(kk * NR), signs[q].add(2 * kk), stepv);
            }
            for (cr, &x) in c.iter_mut().zip(&av) {
                if x != 0.0 {
                    let ar = _mm512_set1_ps(x);
                    for (cq, &vq) in cr.iter_mut().zip(&v) {
                        *cq = _mm512_add_ps(*cq, _mm512_mul_ps(ar, vq));
                    }
                }
            }
        }
        for (r, cr) in c.iter().enumerate() {
            for (row, &cq) in (*acc.add(r)).iter_mut().zip(cr) {
                _mm512_storeu_ps(row.as_mut_ptr(), cq);
            }
        }
    }

    /// AVX2 twin of [`emit_f32_avx512`]: two 8-lane halves per row, the
    /// sign mask spread to lanes by a per-lane bit test.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features, `codes` holds `rows * NR` codes,
    /// `dst` `rows * NR` values, `e0` is a multiple of 8 and `signs`
    /// holds bits `e0..e0 + rows * NR`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn emit_f32_avx2(
        step: f32,
        codes: &[u8],
        signs: &[u8],
        e0: usize,
        rows: usize,
        dst: &mut [f32],
    ) {
        let stepv = _mm256_set1_ps(step);
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for i in (0..rows * NR).step_by(8) {
            _mm256_storeu_ps(d.add(i), widen_avx2(c.add(i), *s.add(i / 8), stepv));
        }
    }

    /// Half a row of values: the 8 codes at `c` through `vpmovzxbd`,
    /// `vcvtdq2ps` and `vmulps` by the step, the sign bit XORed in where
    /// the matching bit of `signs` is set.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2 and `c` points to 8 readable codes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn widen_avx2(c: *const u8, signs: u8, stepv: __m256) -> __m256 {
        let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let bytes = _mm_loadl_epi64(c.cast());
        let mag = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes)), stepv);
        let byte = _mm256_set1_epi32(i32::from(signs));
        let set = _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane_bit), lane_bit);
        let v = _mm256_xor_si256(_mm256_castps_si256(mag), _mm256_slli_epi32::<31>(set));
        _mm256_castsi256_ps(v)
    }

    /// AVX2 twin of [`mac_rows_avx512`]: two 8-lane halves per panel,
    /// each widened by [`widen_avx2`].
    ///
    /// # Safety
    ///
    /// As [`mac_rows_avx512`], with AVX2 in place of AVX-512F.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mac_rows_avx2<const R: usize, const Q: usize>(
        step: f32,
        a: *const f32,
        lda: usize,
        codes: &[*const u8; GQ],
        signs: &[*const u8; GQ],
        depth: usize,
        acc: *mut GroupAcc,
    ) {
        let stepv = _mm256_set1_ps(step);
        let mut c = [[[_mm256_setzero_ps(); 2]; Q]; R];
        for (r, cr) in c.iter_mut().enumerate() {
            for (cq, row) in cr.iter_mut().zip(&*acc.add(r)) {
                *cq = [
                    _mm256_loadu_ps(row.as_ptr()),
                    _mm256_loadu_ps(row.as_ptr().add(8)),
                ];
            }
        }
        for kk in 0..depth {
            let mut av = [0.0f32; R];
            for (r, x) in av.iter_mut().enumerate() {
                *x = *a.add(r * lda + kk);
            }
            if av.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut v = [[_mm256_setzero_ps(); 2]; Q];
            for (q, vq) in v.iter_mut().enumerate() {
                let (c, s) = (codes[q].add(kk * NR), signs[q].add(2 * kk));
                *vq = [
                    widen_avx2(c, *s, stepv),
                    widen_avx2(c.add(8), *s.add(1), stepv),
                ];
            }
            for (cr, &x) in c.iter_mut().zip(&av) {
                if x != 0.0 {
                    let ar = _mm256_set1_ps(x);
                    for (cq, vq) in cr.iter_mut().zip(&v) {
                        cq[0] = _mm256_add_ps(cq[0], _mm256_mul_ps(ar, vq[0]));
                        cq[1] = _mm256_add_ps(cq[1], _mm256_mul_ps(ar, vq[1]));
                    }
                }
            }
        }
        for (r, cr) in c.iter().enumerate() {
            for (row, cq) in (*acc.add(r)).iter_mut().zip(cr) {
                _mm256_storeu_ps(row.as_mut_ptr(), cq[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), cq[1]);
            }
        }
    }

    /// `pairs` depth pairs of signed codes: `vpmovzxbw` of both rows into
    /// one register, a masked negate under the pair's 32 sign bits, and a
    /// `vpermw` interleave.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features, `codes` holds `pairs * 2 * NR`
    /// codes, `dst` as many values, `e0` is a multiple of 8 and `signs`
    /// holds bits `e0..e0 + pairs * 2 * NR`.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn emit_pairs_avx512(
        codes: &[u8],
        signs: &[u8],
        e0: usize,
        pairs: usize,
        dst: &mut [i16],
    ) {
        // Output lane `2l + h` takes row `h`, lane `l`: source `16h + l`.
        const IDX: [i16; 2 * NR] = {
            let mut a = [0i16; 2 * NR];
            let mut i = 0;
            while i < 2 * NR {
                a[i] = ((i % 2) * NR + i / 2) as i16;
                i += 1;
            }
            a
        };
        let idx = _mm512_loadu_si512(IDX.as_ptr().cast());
        let zero = _mm512_setzero_si512();
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for p in 0..pairs {
            let i = p * 2 * NR;
            let v = _mm512_cvtepu8_epi16(_mm256_loadu_si256(c.add(i).cast()));
            let mask = u32::from_le(s.add(i / 8).cast::<u32>().read_unaligned());
            let v = _mm512_mask_sub_epi16(v, mask, zero, v);
            _mm512_storeu_si512(d.add(i).cast(), _mm512_permutexvar_epi16(idx, v));
        }
    }

    /// AVX2 twin of [`emit_pairs_avx512`]: each row widened and negated
    /// under a per-lane bit test, then the two interleaved with
    /// `vpunpck{l,h}wd` and a cross-lane permute.
    ///
    /// # Safety
    ///
    /// The CPU has the enabled features, `codes` holds `pairs * 2 * NR`
    /// codes, `dst` as many values, `e0` is a multiple of 8 and `signs`
    /// holds bits `e0..e0 + pairs * 2 * NR`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn emit_pairs_avx2(
        codes: &[u8],
        signs: &[u8],
        e0: usize,
        pairs: usize,
        dst: &mut [i16],
    ) {
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for p in 0..pairs {
            let i = p * 2 * NR;
            let r0 = signed_row_avx2(c.add(i), s.add(i / 8));
            let r1 = signed_row_avx2(c.add(i + NR), s.add((i + NR) / 8));
            let lo = _mm256_unpacklo_epi16(r0, r1);
            let hi = _mm256_unpackhi_epi16(r0, r1);
            _mm256_storeu_si256(d.add(i).cast(), _mm256_permute2x128_si256::<0x20>(lo, hi));
            _mm256_storeu_si256(
                d.add(i + NR).cast(),
                _mm256_permute2x128_si256::<0x31>(lo, hi),
            );
        }
    }

    /// One full row of signed codes: the 16 codes at `c` widened to `i16`
    /// and negated (`(x ^ m) - m`) where their sign bit (the `u16` at `s`)
    /// is set.
    ///
    /// # Safety
    ///
    /// The CPU has AVX2, `c` points to 16 readable codes and `s` to 2
    /// readable sign bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn signed_row_avx2(c: *const u8, s: *const u8) -> __m256i {
        let lane_bit = _mm256_setr_epi16(
            1,
            2,
            4,
            8,
            16,
            32,
            64,
            128,
            256,
            512,
            1024,
            2048,
            4096,
            8192,
            16384,
            i16::MIN,
        );
        let v = _mm256_cvtepu8_epi16(_mm_loadu_si128(c.cast()));
        let bits = _mm256_set1_epi16(u16::from_le(s.cast::<u16>().read_unaligned()) as i16);
        let m = _mm256_cmpeq_epi16(_mm256_and_si256(bits, lane_bit), lane_bit);
        _mm256_sub_epi16(_mm256_xor_si256(v, m), m)
    }
}
