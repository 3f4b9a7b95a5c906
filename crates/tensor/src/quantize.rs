//! The quantize half of the encode front end: `f32` values to unsigned
//! magnitude codes and sign bits.
//!
//! Every magnitude quantization in the workspace runs through here — the
//! encoded-weight panels ([`crate::EncodedMatrix::encode`]),
//! `spark-quant`'s `MagnitudeQuantizer` (and through it `/v1/encode`,
//! `/v1/analyze` and tensor PUT), and the finite check and abs-max in
//! front of them ([`crate::stats::abs_max`]). Two kernels, each with a
//! scalar, AVX2 and AVX-512 tier picked by [`CodecVariant`], the tier
//! enum of the nibble packer behind them:
//!
//! - **Finite check and abs-max** ([`abs_max_bits`]): the bit patterns
//!   of non-negative floats order like the floats, so an unsigned max over
//!   `bits & 0x7FFF_FFFF` is the abs-max of finite data, and a NaN or
//!   infinity shows as a result at or above `0x7F80_0000`. One integer
//!   max per lane does both.
//! - **Quantize** ([`quantize_rows`]): per row of up to [`LANES`] values,
//!   `y = |x| / alpha * qmax` (a correctly rounded divide, then multiply,
//!   as in scalar code), rounded half away from zero as
//!   `t = trunc(y); t + (y - t >= 0.5)` — exact, since `y - trunc(y)` is
//!   representable — then `min(qmax)` and narrowed to `u8`. The sign bits
//!   come from a `x < 0.0` compare mask, not from the sign bit, so `-0.0`
//!   quantizes to a positive zero as it always has.
//!
//! The scalar tier is the expression [`MagnitudeScale::code`] — the one
//! written-out copy of the rule, and the oracle the SIMD tiers are
//! differential-tested against.

use spark_codec::CodecVariant;

/// Values per quantize row: one AVX-512 register of `f32`, and the width
/// of a GEMM weight panel.
pub const LANES: usize = 16;

/// Bit pattern of `f32::INFINITY`: abs-max bit patterns below it are
/// finite.
const INF_BITS: u32 = 0x7F80_0000;

/// A per-tensor magnitude scale: codes `0..=qmax` cover `[0, alpha]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagnitudeScale {
    alpha: f32,
    qmax: f32,
}

impl MagnitudeScale {
    /// The scale for `bits`-wide codes (1..=8) over `[0, alpha]`; an
    /// `alpha` of zero (an all-zero tensor) becomes 1.0.
    ///
    /// # Panics
    ///
    /// When `bits` is outside `1..=8`.
    pub fn new(alpha: f32, bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "magnitude codes are 1 to 8 bits, not {bits}");
        Self {
            alpha: if alpha == 0.0 { 1.0 } else { alpha },
            qmax: ((1u32 << bits) - 1) as f32,
        }
    }

    /// The magnitude the full-scale code stands for.
    pub fn alpha(self) -> f32 {
        self.alpha
    }

    /// The code of one value: `|x| / alpha * qmax`, rounded half away from
    /// zero and capped at `qmax` — the scalar tier.
    #[inline]
    pub fn code(self, x: f32) -> u8 {
        (x.abs() / self.alpha * self.qmax).round().min(self.qmax) as u8
    }
}

/// The largest `bits & 0x7FFF_FFFF` over `data` (0 when empty): the
/// abs-max's bit pattern for finite data, and at least `0x7F80_0000` when
/// any value is NaN or infinite.
pub fn abs_max_bits(variant: CodecVariant, data: &[f32]) -> u32 {
    match variant {
        CodecVariant::Scalar => abs_max_bits_scalar(data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant is only constructed when `detect`/`all`
        // observed its CPU features, a superset of what the kernel uses.
        CodecVariant::Avx2 => unsafe { x86::abs_max_bits_avx2(data) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        CodecVariant::Avx512 => unsafe { x86::abs_max_bits_avx512(data) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => abs_max_bits_scalar(data),
    }
}

fn abs_max_bits_scalar(data: &[f32]) -> u32 {
    data.iter().map(|x| x.to_bits() & 0x7FFF_FFFF).max().unwrap_or(0)
}

/// The largest `|x|` over `data` (0 when empty), or `None` when any value
/// is NaN or infinite: the finite check and the abs-max in one pass.
pub fn finite_abs_max(variant: CodecVariant, data: &[f32]) -> Option<f32> {
    let bits = abs_max_bits(variant, data);
    (bits < INF_BITS).then(|| f32::from_bits(bits))
}

/// Quantizes `rows` rows of `w` values: row `r` is `src[r * stride..][..w]`
/// and becomes codes `codes[r * w..][..w]` ([`MagnitudeScale::code`]) and
/// sign bits `r * w + lane` of the bit-packed `signs`, set where the value
/// is below zero. Sign bits are ORed in, so `signs` starts zeroed.
///
/// # Panics
///
/// When `w` exceeds [`LANES`] or a slice is too short for the rows.
#[allow(clippy::too_many_arguments)]
pub fn quantize_rows(
    variant: CodecVariant,
    src: &[f32],
    stride: usize,
    rows: usize,
    w: usize,
    scale: MagnitudeScale,
    codes: &mut [u8],
    signs: &mut [u8],
) {
    assert!(w <= LANES, "rows hold at most {LANES} values, not {w}");
    if rows == 0 || w == 0 {
        return;
    }
    let needed = (rows - 1)
        .checked_mul(stride)
        .and_then(|s| s.checked_add(w))
        .expect("row span overflows usize");
    assert!(src.len() >= needed, "{rows} rows of stride {stride} need {needed} values, got {}", src.len());
    assert!(codes.len() >= rows * w, "{rows}x{w} codes need {} bytes", rows * w);
    assert!(signs.len() >= (rows * w).div_ceil(8), "{rows}x{w} sign bits need {} bytes", (rows * w).div_ceil(8));
    match variant {
        CodecVariant::Scalar => {}
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant is only constructed when `detect`/`all`
        // observed its CPU features; the asserts above bound every row.
        CodecVariant::Avx2 => {
            return unsafe { x86::rows_avx2(src, stride, rows, w, scale, codes, signs) };
        }
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        CodecVariant::Avx512 => {
            return unsafe { x86::rows_avx512(src, stride, rows, w, scale, codes, signs) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => {}
    }
    for r in 0..rows {
        let row = &src[r * stride..][..w];
        let mut neg = 0u32;
        for (l, &x) in row.iter().enumerate() {
            codes[r * w + l] = scale.code(x);
            neg |= u32::from(x < 0.0) << l;
        }
        put_bits(signs, r * w, neg, w);
    }
}

/// [`quantize_rows`] over a contiguous slice: codes `codes[..src.len()]`,
/// sign bits `0..src.len()` of `signs` (which starts zeroed).
///
/// # Panics
///
/// When `codes` or `signs` is too short for `src`.
pub fn quantize_slice(
    variant: CodecVariant,
    src: &[f32],
    scale: MagnitudeScale,
    codes: &mut [u8],
    signs: &mut [u8],
) {
    let full = src.len() / LANES * LANES;
    quantize_rows(variant, src, LANES, full / LANES, LANES, scale, codes, signs);
    let tail = src.len() - full;
    if tail > 0 {
        // The tail row starts on a sign byte: `full` is a multiple of 16.
        quantize_rows(
            variant,
            &src[full..],
            tail,
            1,
            tail,
            scale,
            &mut codes[full..],
            &mut signs[full / 8..],
        );
    }
}

/// ORs the low `w` bits of `bits` into the bit-packed `plane` from bit
/// `at` on.
#[inline]
fn put_bits(plane: &mut [u8], at: usize, bits: u32, w: usize) {
    let shifted = u64::from(bits) << (at % 8);
    let bytes = &mut plane[at / 8..(at + w).div_ceil(8)];
    for (i, byte) in bytes.iter_mut().enumerate() {
        *byte |= (shifted >> (8 * i)) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512 tiers. Callers guarantee the CPU features and
    //! the slice bounds [`super::quantize_rows`] asserts.
    #![allow(unsafe_code)]

    use super::{put_bits, MagnitudeScale, LANES};
    use std::arch::x86_64::*;

    /// Truncation toward zero for `round`/`roundscale`.
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;

    #[target_feature(enable = "avx2")]
    pub unsafe fn abs_max_bits_avx2(data: &[f32]) -> u32 {
        let magnitude = _mm256_set1_epi32(0x7FFF_FFFF);
        let mut acc = _mm256_setzero_si256();
        let chunks = data.chunks_exact(8);
        let tail = super::abs_max_bits_scalar(chunks.remainder());
        for c in chunks {
            let bits = _mm256_loadu_si256(c.as_ptr().cast());
            acc = _mm256_max_epu32(acc, _mm256_and_si256(bits, magnitude));
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().fold(tail, |m, &l| m.max(l))
    }

    #[target_feature(enable = "avx512f")]
    pub unsafe fn abs_max_bits_avx512(data: &[f32]) -> u32 {
        let magnitude = _mm512_set1_epi32(0x7FFF_FFFF);
        let mut acc = _mm512_setzero_si512();
        let chunks = data.chunks_exact(LANES);
        let rest = chunks.remainder();
        for c in chunks {
            let bits = _mm512_loadu_si512(c.as_ptr().cast());
            acc = _mm512_max_epu32(acc, _mm512_and_si512(bits, magnitude));
        }
        let m = ((1u32 << rest.len()) - 1) as u16;
        let bits = _mm512_maskz_loadu_epi32(m, rest.as_ptr().cast());
        acc = _mm512_max_epu32(acc, _mm512_and_si512(bits, magnitude));
        _mm512_reduce_max_epu32(acc)
    }

    /// Eight codes as `i32` lanes and their `x < 0.0` mask, from the eight
    /// values at `p`.
    #[target_feature(enable = "avx2")]
    unsafe fn half_avx2(p: *const f32, alpha: __m256, qmax: __m256) -> (__m256i, u32) {
        let x = _mm256_loadu_ps(p);
        let neg = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_setzero_ps())) as u32;
        let abs = _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF)));
        let y = _mm256_mul_ps(_mm256_div_ps(abs, alpha), qmax);
        let t = _mm256_round_ps::<TRUNC>(y);
        let up = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(y, t), _mm256_set1_ps(0.5));
        let rounded = _mm256_add_ps(t, _mm256_and_ps(up, _mm256_set1_ps(1.0)));
        (_mm256_cvttps_epi32(_mm256_min_ps(rounded, qmax)), neg)
    }

    /// The AVX2 tier: each row as two eight-lane halves; a ragged row is
    /// staged through a zeroed 16-value buffer.
    #[target_feature(enable = "avx2")]
    pub unsafe fn rows_avx2(
        src: &[f32],
        stride: usize,
        rows: usize,
        w: usize,
        scale: MagnitudeScale,
        codes: &mut [u8],
        signs: &mut [u8],
    ) {
        let alpha = _mm256_set1_ps(scale.alpha);
        let qmax = _mm256_set1_ps(scale.qmax);
        // Dwords 0, 4, 1, 5 of the packed bytes hold codes 0..4, 4..8,
        // 8..12 and 12..16.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 0, 4, 1, 5);
        let mut staged = [0.0f32; LANES];
        let mut out = [0u8; LANES];
        for r in 0..rows {
            let row = src.as_ptr().add(r * stride);
            let p = if w == LANES {
                row
            } else {
                std::ptr::copy_nonoverlapping(row, staged.as_mut_ptr(), w);
                staged.as_ptr()
            };
            let (lo, neg_lo) = half_avx2(p, alpha, qmax);
            let (hi, neg_hi) = half_avx2(p.add(8), alpha, qmax);
            let words = _mm256_packs_epi32(lo, hi);
            let bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(words, words), order);
            let dst = codes.as_mut_ptr().add(r * w);
            if w == LANES {
                _mm_storeu_si128(dst.cast(), _mm256_castsi256_si128(bytes));
            } else {
                _mm_storeu_si128(out.as_mut_ptr().cast(), _mm256_castsi256_si128(bytes));
                std::ptr::copy_nonoverlapping(out.as_ptr(), dst, w);
            }
            let neg = (neg_lo | neg_hi << 8) & ((1u32 << w) - 1);
            put_bits(signs, r * w, neg, w);
        }
    }

    /// The AVX-512 tier: each row is one masked 16-lane register.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub unsafe fn rows_avx512(
        src: &[f32],
        stride: usize,
        rows: usize,
        w: usize,
        scale: MagnitudeScale,
        codes: &mut [u8],
        signs: &mut [u8],
    ) {
        let alpha = _mm512_set1_ps(scale.alpha);
        let qmax = _mm512_set1_ps(scale.qmax);
        let half = _mm512_set1_ps(0.5);
        let one = _mm512_set1_ps(1.0);
        let zero = _mm512_setzero_ps();
        let m = ((1u32 << w) - 1) as u16;
        for r in 0..rows {
            let x = _mm512_maskz_loadu_ps(m, src.as_ptr().add(r * stride));
            let neg = _mm512_mask_cmp_ps_mask::<_CMP_LT_OQ>(m, x, zero);
            let y = _mm512_mul_ps(_mm512_div_ps(_mm512_abs_ps(x), alpha), qmax);
            let t = _mm512_roundscale_ps::<TRUNC>(y);
            let up = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_sub_ps(y, t), half);
            let q = _mm512_min_ps(_mm512_mask_add_ps(t, up, t, one), qmax);
            let bytes = _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(q));
            _mm_mask_storeu_epi8(codes.as_mut_ptr().add(r * w).cast(), m, bytes);
            put_bits(signs, r * w, u32::from(neg), w);
        }
    }
}
