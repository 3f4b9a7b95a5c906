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
//! The SIMD tiers take full-width (`w == NR`) rows that start on a sign
//! byte, so a row's 16 sign bits are one `u16` of the plane; the fused
//! GEMM's rows always do, since every claim is a whole number of `NR`-wide
//! rows. A ragged last panel (`w < NR`), an unaligned run and the half
//! pair closing an odd depth block take the scalar loops, which stay as
//! the oracle the tiers are tested against.

use crate::gemm::{GemmVariant, IntVariant, NR};

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
    use super::NR;
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
        let sign = _mm512_set1_epi32(i32::MIN);
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for r in 0..rows {
            let bytes = _mm_loadu_si128(c.add(r * NR).cast());
            let mag = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_cvtepu8_epi32(bytes)), stepv);
            let mask = s.add(r * NR / 8).cast::<u16>().read_unaligned();
            let bits = _mm512_castps_si512(mag);
            let v = _mm512_mask_xor_epi32(bits, u16::from_le(mask), bits, sign);
            _mm512_storeu_ps(d.add(r * NR), _mm512_castsi512_ps(v));
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
        let lane_bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let (c, s, d) = (codes.as_ptr(), signs.as_ptr().add(e0 / 8), dst.as_mut_ptr());
        for r in 0..rows {
            for half in 0..2 {
                let i = r * NR + half * 8;
                let bytes = _mm_loadl_epi64(c.add(i).cast());
                let mag = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes)), stepv);
                let byte = _mm256_set1_epi32(i32::from(*s.add(i / 8)));
                let set = _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane_bit), lane_bit);
                let v = _mm256_xor_si256(_mm256_castps_si256(mag), _mm256_slli_epi32::<31>(set));
                _mm256_storeu_ps(d.add(i), _mm256_castsi256_ps(v));
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
