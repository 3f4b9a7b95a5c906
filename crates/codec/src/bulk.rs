//! Bit-parallel bulk decoder for packed SPARK nibble streams.
//!
//! The streaming [`SparkDecoder`] of Fig 7 consumes one 4-bit beat per
//! call and threads the *enable* signal through every push — a faithful
//! hardware model, but a software bottleneck: every consumer of decode
//! (`/v1/decode`, container reads, the fused GEMM panel packer) pays a
//! branchy state-machine step per nibble. This module decodes the same
//! streams block-at-a-time instead, exploiting the structure the paper's
//! identifier bit gives away for free (Fig 5):
//!
//! 1. **Boundary resolution.** Extract the identifier bit of all 64
//!    nibbles of a block into one `u64` mask. A nibble is the *prev* half
//!    of a long code exactly when its identifier is set and the preceding
//!    nibble was not itself an unconsumed prev — the recurrence
//!    `p[i] = id[i] & !p[i-1]`, whose solution is "every other bit within
//!    each run of identifier bits". That alternation is computed for all
//!    64 positions at once with a Kogge–Stone style prefix scan over the
//!    run-connectivity mask (§ [`prev_mask`]), so code boundaries fall out
//!    with no sequential state at all.
//! 2. **Lane decode.** Every position that is not a prev emits exactly
//!    one value: short codes emit `nibble & 7`, post positions emit the
//!    long-code formula of Eq 3 — `((prev & 6) << 4) | ((prev & 1) *
//!    0x90) | post` — which is pure bitwise arithmetic and therefore
//!    computed for eight positions per `u64` SWAR step. A branchless
//!    compaction then gathers emitted lanes; the in-module tests pin the
//!    SWAR formula against the code rule itself,
//!    [`SparkFormat::PAPER`](crate::SparkFormat::PAPER)`.decode`, over all
//!    256 `(prev, post)` pairs.
//!
//! The identifier-mask extraction and nibble unpacking have `Scalar`,
//! `AVX2`, and `AVX-512` kernels behind the same runtime-dispatch enum
//! pattern as the simulator and GEMM engines ([`CodecVariant`]); the
//! scalar FSM stays in-tree as the bit-identity reference
//! ([`crate::stream::decode_stream_reference`]), and the exhaustive
//! differential suite in `tests/bulk_differential.rs` pins every dispatch
//! variant against it.
//!
//! Because the boundary pass also yields the exact value count before any
//! output is written (`values = nibbles - popcount(prev)`), bulk decode
//! allocates its output once, exactly sized — no hot-path reallocation.
//!
//! Every kernel runs from a block-boundary state (`carry`, last nibble,
//! next nibble index) and stops once it has emitted the values asked for,
//! so a [`BulkCursor`] can resume a payload where the previous call left
//! it: the decode-fused GEMM pulls one `KC`-deep block of a weight panel
//! at a time into a fixed buffer instead of decoding the whole panel up
//! front.

use crate::decoder::DecodeError;
use crate::stream::NibbleStream;

/// Nibbles processed per block: one `u64` of identifier bits.
const BLOCK_NIBBLES: usize = 64;
/// Packed bytes per full block.
const BLOCK_BYTES: usize = BLOCK_NIBBLES / 2;

/// Headroom a [`BulkCursor::fill`] output needs past the values asked
/// for: a block emits up to 64 values, and the kernels store whole blocks.
pub const FILL_SLACK: usize = BLOCK_NIBBLES;

/// The decode state at a block boundary: whether the previous block ended
/// on an unconsumed prev nibble (`carry`), that block's last nibble, and
/// the index of the next nibble to decode.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    carry: bool,
    last_nib: u8,
    start: usize,
}

/// SWAR lane constants: eight nibbles per `u64`, one byte each.
/// `LOW3` keeps a short code's value bits, `BIT12` isolates the long-code
/// `b1 b2` payload bits of a prev nibble, `BIT0` its `c3` check bit.
const LOW3: u64 = 0x0707_0707_0707_0707;
const BIT12: u64 = 0x0606_0606_0606_0606;
const BIT0: u64 = 0x0101_0101_0101_0101;

/// Which codec kernel tier to run: the bulk decoder here, the nibble
/// packer ([`crate::pack`]) and the quantizer in front of it share one
/// tier, since each tier's kernels need the same CPU features. Mirrors the
/// simulator's and GEMM's engine-variant pattern: detect once, dispatch per
/// call, keep every variant testable on hosts that support it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecVariant {
    /// Portable scalar path: SWAR block decode (still bit-parallel per
    /// block), the table packer and the scalar quantizer — the oracles.
    Scalar,
    /// AVX2 mask extraction and unpacking plus BMI2 `pext`/`pdep`
    /// byte-granular compaction, for emitted values and packed nibbles.
    Avx2,
    /// AVX-512 (`F+BW+VL+VBMI+VBMI2`): whole blocks decoded or packed in
    /// one 64-lane register, compacted with `vpcompressb`.
    Avx512,
}

impl CodecVariant {
    #[cfg(target_arch = "x86_64")]
    fn avx2_supported() -> bool {
        // BMI2 rides along for the pext/pdep byte compaction, POPCNT for
        // the packer's nibble counts; all three ship together since
        // Haswell.
        is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("bmi2")
            && is_x86_feature_detected!("popcnt")
    }

    #[cfg(target_arch = "x86_64")]
    fn avx512_supported() -> bool {
        // VBMI supplies the cross-lane byte permutes (prev alignment,
        // nibble interleave), VBMI2 the `vpcompressb` compaction; the
        // packer's `pdep` and popcounts need BMI2 and POPCNT.
        is_x86_feature_detected!("bmi2")
            && is_x86_feature_detected!("popcnt")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512vbmi")
            && is_x86_feature_detected!("avx512vbmi2")
    }

    /// Picks the fastest variant the host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if Self::avx512_supported() {
                return CodecVariant::Avx512;
            }
            if Self::avx2_supported() {
                return CodecVariant::Avx2;
            }
        }
        CodecVariant::Scalar
    }

    /// Every variant this host can run (always at least
    /// [`CodecVariant::Scalar`]), for differential tests and benchmarks.
    pub fn all() -> Vec<Self> {
        let mut v = vec![CodecVariant::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if Self::avx2_supported() {
                v.push(CodecVariant::Avx2);
            }
            if Self::avx512_supported() {
                v.push(CodecVariant::Avx512);
            }
        }
        v
    }

    /// Stable lower-case name for reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            CodecVariant::Scalar => "scalar",
            CodecVariant::Avx2 => "avx2",
            CodecVariant::Avx512 => "avx512",
        }
    }
}

/// Solves the prev recurrence `p[i] = id[i] & !p[i-1]` for all 64
/// positions of a block at once.
///
/// Within each maximal run of set identifier bits, prev positions are
/// every other bit starting at the run's first bit; `carry_in` (the last
/// nibble of the previous block was an unconsumed prev) shifts the first
/// run's alternation by one. Run starts seed the mask and a
/// log-step prefix scan fills the alternating positions: `conn` at
/// distance `d` marks positions whose preceding `d` identifier bits are
/// all set, so `p |= (p << d) & conn` extends every chain by `d` nibbles
/// per step — six steps cover the whole block.
#[inline]
fn prev_mask(id: u64, carry_in: bool) -> u64 {
    let mut starts = id & !(id << 1);
    if carry_in {
        // Position 0 is the post half of a long code straddling the block
        // boundary: never a prev, and if the identifier run continues the
        // alternation restarts at position 1.
        starts &= !1;
        starts |= id & (id << 1) & 0b10;
    }
    let mut p = starts;
    let mut conn = id & (id << 1) & (id << 2);
    let mut shift = 2u32;
    while shift < 64 {
        p |= (p << shift) & conn;
        conn &= conn << shift;
        shift <<= 1;
    }
    p
}

/// Scalar identifier-mask extraction over up to one block of packed
/// bytes. Bit `i` of the result is the identifier (top) bit of nibble
/// `i`; bits past `n` are cleared so padding never reaches the scan.
#[inline]
fn id_mask_scalar(bytes: &[u8], n: usize) -> u64 {
    let mut id = 0u64;
    for (j, &b) in bytes.iter().enumerate() {
        id |= u64::from(b >> 7) << (2 * j);
        id |= u64::from((b >> 3) & 1) << (2 * j + 1);
    }
    if n < BLOCK_NIBBLES {
        id &= (1u64 << n) - 1;
    }
    id
}

/// Scalar nibble unpack of up to one block: byte `j` becomes nibbles
/// `2j` (high) and `2j + 1` (low).
#[inline]
fn unpack_scalar(bytes: &[u8]) -> [u8; BLOCK_NIBBLES] {
    let mut nibs = [0u8; BLOCK_NIBBLES];
    for (j, &b) in bytes.iter().enumerate() {
        nibs[2 * j] = b >> 4;
        nibs[2 * j + 1] = b & 0x0F;
    }
    nibs
}

/// Spreads the 32 bits of `x` to the even bit positions of a `u64`
/// (Morton interleave half): bit `j` of `x` lands at bit `2j`.
#[inline]
fn spread(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! SIMD mask-extraction and unpack kernels for one full 32-byte
    //! block. Callers guarantee `bytes` holds at least [`BLOCK_BYTES`]
    //! readable bytes and that the required CPU features are present
    //! (enforced by constructing the [`CodecVariant`] via `detect`/`all`).
    #![allow(unsafe_code)]

    use super::{prev_mask, spread, BlockState, BIT0, BIT12, BLOCK_NIBBLES, LOW3};
    use std::arch::x86_64::*;

    /// AVX2 load: movemask reads the identifier bit of high nibbles
    /// directly (byte bit 7); shifting each byte left by 4 moves the low
    /// nibble's identifier (byte bit 3) into movemask position.
    #[target_feature(enable = "avx2")]
    pub unsafe fn load_avx2(bytes: *const u8) -> ([u8; BLOCK_NIBBLES], u64) {
        let v = _mm256_loadu_si256(bytes.cast());
        let hi = _mm256_movemask_epi8(v) as u32;
        let lo = _mm256_movemask_epi8(_mm256_slli_epi16::<4>(v)) as u32;
        let id = spread(hi) | (spread(lo) << 1);

        let mask = _mm256_set1_epi8(0x0F);
        let h = _mm256_and_si256(_mm256_srli_epi16::<4>(v), mask);
        let l = _mm256_and_si256(v, mask);
        // unpacklo/hi interleave within 128-bit lanes; the cross-lane
        // permutes restore byte order 0..32.
        let a = _mm256_unpacklo_epi8(h, l);
        let b = _mm256_unpackhi_epi8(h, l);
        let mut nibs = [0u8; BLOCK_NIBBLES];
        _mm256_storeu_si256(
            nibs.as_mut_ptr().cast(),
            _mm256_permute2x128_si256::<0x20>(a, b),
        );
        _mm256_storeu_si256(
            nibs.as_mut_ptr().add(32).cast(),
            _mm256_permute2x128_si256::<0x31>(a, b),
        );
        (nibs, id)
    }

    /// AVX-512 load: `vpmovb2m` yields the high-nibble identifier mask in
    /// one instruction and `vptestmb` the low-nibble one, skipping the
    /// shift+movemask round trips of the AVX2 path. The emission kernel
    /// unpacks in-register instead; this array form remains for the
    /// cross-variant agreement tests.
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub unsafe fn load_avx512(bytes: *const u8) -> ([u8; BLOCK_NIBBLES], u64) {
        let v = _mm256_loadu_si256(bytes.cast());
        let hi = _mm256_movepi8_mask(v) as u32;
        let lo = _mm256_test_epi8_mask(v, _mm256_set1_epi8(0x08)) as u32;
        let id = spread(hi) | (spread(lo) << 1);

        let mask = _mm256_set1_epi8(0x0F);
        let h = _mm256_and_si256(_mm256_srli_epi16::<4>(v), mask);
        let l = _mm256_and_si256(v, mask);
        let a = _mm256_unpacklo_epi8(h, l);
        let b = _mm256_unpackhi_epi8(h, l);
        let mut nibs = [0u8; BLOCK_NIBBLES];
        _mm256_storeu_si256(
            nibs.as_mut_ptr().cast(),
            _mm256_permute2x128_si256::<0x20>(a, b),
        );
        _mm256_storeu_si256(
            nibs.as_mut_ptr().add(32).cast(),
            _mm256_permute2x128_si256::<0x31>(a, b),
        );
        (nibs, id)
    }

    /// Identifier mask only (boundary pass), AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn id_mask_avx2(bytes: *const u8) -> u64 {
        let v = _mm256_loadu_si256(bytes.cast());
        let hi = _mm256_movemask_epi8(v) as u32;
        let lo = _mm256_movemask_epi8(_mm256_slli_epi16::<4>(v)) as u32;
        spread(hi) | (spread(lo) << 1)
    }

    /// Identifier mask only (boundary pass), AVX-512.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl")]
    pub unsafe fn id_mask_avx512(bytes: *const u8) -> u64 {
        let v = _mm256_loadu_si256(bytes.cast());
        let hi = _mm256_movepi8_mask(v) as u32;
        let lo = _mm256_test_epi8_mask(v, _mm256_set1_epi8(0x08)) as u32;
        spread(hi) | (spread(lo) << 1)
    }

    /// AVX2 + BMI2 emission pass over the full blocks of `payload` from
    /// `st`, writing at `out[len..]` until `want` values sit in
    /// `out[..len]` or less than a block remains.
    ///
    /// Boundary masks come from [`load_avx2`]; per eight-nibble lane the
    /// short and long-code candidates are computed SWAR-style, selected by
    /// the post mask (expanded to byte granularity with `pdep`), and the
    /// emitted bytes compacted with one `pext`. Leaves the decode state
    /// for the next block in `st` and returns the new `len`.
    ///
    /// # Safety
    ///
    /// `avx2` and `bmi2` are present, `payload` holds `nibbles.div_ceil(2)`
    /// bytes, and `out.len() >= want + FILL_SLACK`.
    #[target_feature(enable = "avx2,bmi2")]
    pub unsafe fn decode_blocks_avx2(
        payload: &[u8],
        nibbles: usize,
        st: &mut BlockState,
        out: &mut [u8],
        mut len: usize,
        want: usize,
    ) -> usize {
        let BlockState {
            mut carry,
            mut last_nib,
            mut start,
        } = *st;
        while len < want && nibbles - start >= BLOCK_NIBBLES {
            let (nibs, id) = load_avx2(payload.as_ptr().add(start / 2));
            let p = prev_mask(id, carry);
            let post = (p << 1) | u64::from(carry);
            let emit = !p;
            // Each lane store writes a full u64 at the cursor; `len < want`
            // and the caller's FILL_SLACK leave room for the whole block.
            let dst = out.as_mut_ptr().add(len);
            let mut k = 0usize;
            let mut prev_byte = u64::from(last_nib);
            for c in 0..BLOCK_NIBBLES / 8 {
                let wn = nibs.as_ptr().add(8 * c).cast::<u64>().read_unaligned();
                // Little-endian byte shift aligns each nibble with its
                // predecessor; the carried byte is the previous lane's last.
                let wp = (wn << 8) | prev_byte;
                prev_byte = wn >> 56;
                let pair_w = ((wp & BIT12) << 4) | (wp & BIT0).wrapping_mul(0x90) | wn;
                let short_w = wn & LOW3;
                let post_m = _pdep_u64(post >> (8 * c), BIT0).wrapping_mul(0xFF);
                let vals = short_w ^ ((short_w ^ pair_w) & post_m);
                let emit_b = (emit >> (8 * c)) & 0xFF;
                let emit_m = _pdep_u64(emit_b, BIT0).wrapping_mul(0xFF);
                dst.add(k)
                    .cast::<u64>()
                    .write_unaligned(_pext_u64(vals, emit_m));
                k += emit_b.count_ones() as usize;
            }
            len += k;
            carry = p >> 63 == 1;
            last_nib = nibs[BLOCK_NIBBLES - 1];
            start += BLOCK_NIBBLES;
        }
        *st = BlockState {
            carry,
            last_nib,
            start,
        };
        len
    }

    /// AVX-512 emission pass over the full blocks of `payload`: the whole
    /// block lives in one 64-lane register, prev alignment is a VBMI byte
    /// permute, candidate selection is a mask blend keyed directly on the
    /// post bitmask, and compaction is a single `vpcompressb` (VBMI2).
    /// Same contract as [`decode_blocks_avx2`].
    ///
    /// # Safety
    ///
    /// The AVX-512 `F+BW+VL+VBMI+VBMI2` features are present; otherwise as
    /// [`decode_blocks_avx2`].
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi,avx512vbmi2")]
    pub unsafe fn decode_blocks_avx512(
        payload: &[u8],
        nibbles: usize,
        st: &mut BlockState,
        out: &mut [u8],
        mut len: usize,
        want: usize,
    ) -> usize {
        // Byte-shift-right-by-one permute indices (lane 0 is patched with
        // the carried nibble afterwards, so its index is don't-care).
        const SHIFT_IDX: [u8; BLOCK_NIBBLES] = {
            let mut a = [0u8; BLOCK_NIBBLES];
            let mut i = 1usize;
            while i < BLOCK_NIBBLES {
                a[i] = (i - 1) as u8;
                i += 1;
            }
            a
        };
        // Byte-duplication permute indices: packed byte `j` feeds nibble
        // lanes `2j` (high half) and `2j + 1` (low half).
        const DUP_IDX: [u8; BLOCK_NIBBLES] = {
            let mut a = [0u8; BLOCK_NIBBLES];
            let mut i = 0usize;
            while i < BLOCK_NIBBLES {
                a[i] = (i / 2) as u8;
                i += 1;
            }
            a
        };
        /// Odd (low-half) nibble lanes.
        const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;
        let shift_idx = _mm512_loadu_si512(SHIFT_IDX.as_ptr().cast());
        let dup_idx = _mm512_loadu_si512(DUP_IDX.as_ptr().cast());
        let low_nib = _mm512_set1_epi8(0x0F);
        let BlockState {
            mut carry,
            mut last_nib,
            mut start,
        } = *st;
        while len < want && nibbles - start >= BLOCK_NIBBLES {
            let bytes = payload.as_ptr().add(start / 2);
            // Unpack in-register: duplicate every packed byte across its
            // two nibble lanes, then blend the shifted high halves with
            // the masked low halves. The identifier mask falls out of one
            // byte test against the nibble lanes' bit 3.
            let dup = _mm512_permutexvar_epi8(dup_idx, _mm512_castsi256_si512(_mm256_loadu_si256(bytes.cast())));
            let hi = _mm512_and_si512(_mm512_srli_epi16::<4>(dup), low_nib);
            let nz = _mm512_mask_blend_epi8(ODD, hi, _mm512_and_si512(dup, low_nib));
            let id = _mm512_test_epi8_mask(nz, _mm512_set1_epi8(0x08));
            let p = prev_mask(id, carry);
            let post = (p << 1) | u64::from(carry);
            let emit = !p;
            let prevs = _mm512_mask_mov_epi8(
                _mm512_permutexvar_epi8(shift_idx, nz),
                1,
                _mm512_set1_epi8(last_nib as i8),
            );
            // Long-code formula (Eq 3) in lanes: `b1 b2` to bits 6..5,
            // `0x90` where the `c3` check bit is set, post value bits
            // straight from the nibble itself.
            let b12 = _mm512_and_si512(
                _mm512_slli_epi16::<4>(_mm512_and_si512(prevs, _mm512_set1_epi8(0x06))),
                _mm512_set1_epi8(0x60),
            );
            let c3 = _mm512_maskz_mov_epi8(
                _mm512_test_epi8_mask(prevs, _mm512_set1_epi8(0x01)),
                _mm512_set1_epi8(0x90u8 as i8),
            );
            let pair = _mm512_or_si512(_mm512_or_si512(b12, c3), nz);
            let shorts = _mm512_and_si512(nz, _mm512_set1_epi8(0x07));
            let vals = _mm512_mask_blend_epi8(post, shorts, pair);
            // One whole-register store at the cursor: `len < want` and
            // the caller's FILL_SLACK leave room for it.
            _mm512_storeu_si512(
                out.as_mut_ptr().add(len).cast(),
                _mm512_maskz_compress_epi8(emit, vals),
            );
            len += emit.count_ones() as usize;
            carry = p >> 63 == 1;
            // Nibble 63 is the low half of the block's final packed byte.
            last_nib = *bytes.add(BLOCK_NIBBLES / 2 - 1) & 0x0F;
            start += BLOCK_NIBBLES;
        }
        *st = BlockState {
            carry,
            last_nib,
            start,
        };
        len
    }
}

/// One full-block identifier mask through the selected kernel.
#[inline]
fn id_mask_full(variant: CodecVariant, bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() >= BLOCK_BYTES);
    match variant {
        CodecVariant::Scalar => id_mask_scalar(&bytes[..BLOCK_BYTES], BLOCK_NIBBLES),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant is only constructed when the features are
        // detected, and the caller slices a full block.
        CodecVariant::Avx2 => unsafe { x86::id_mask_avx2(bytes.as_ptr()) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        CodecVariant::Avx512 => unsafe { x86::id_mask_avx512(bytes.as_ptr()) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => id_mask_scalar(&bytes[..BLOCK_BYTES], BLOCK_NIBBLES),
    }
}

/// One full-block load (nibbles + identifier mask) through the selected
/// kernel — kept for the cross-variant agreement tests; the hot paths
/// call their kernel directly.
#[cfg(test)]
fn load_full(variant: CodecVariant, bytes: &[u8]) -> ([u8; BLOCK_NIBBLES], u64) {
    debug_assert!(bytes.len() >= BLOCK_BYTES);
    match variant {
        CodecVariant::Scalar => (
            unpack_scalar(&bytes[..BLOCK_BYTES]),
            id_mask_scalar(&bytes[..BLOCK_BYTES], BLOCK_NIBBLES),
        ),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant is only constructed when the features are
        // detected, and the caller slices a full block.
        CodecVariant::Avx2 => unsafe { x86::load_avx2(bytes.as_ptr()) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        CodecVariant::Avx512 => unsafe { x86::load_avx512(bytes.as_ptr()) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => (
            unpack_scalar(&bytes[..BLOCK_BYTES]),
            id_mask_scalar(&bytes[..BLOCK_BYTES], BLOCK_NIBBLES),
        ),
    }
}

/// Boundary-resolution pass: the exact number of values a packed payload
/// of `nibbles` beats decodes to, without touching any nibble value.
///
/// This is the sizing half of bulk decode — each prev bit absorbs one
/// nibble, so `values = nibbles - popcount(prev)` — and the whole
/// truncation check: a stream is malformed exactly when its final nibble
/// is an unconsumed prev.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] when the stream ends half-way
/// through a long code.
pub fn resolve_len_with(
    variant: CodecVariant,
    payload: &[u8],
    nibbles: usize,
) -> Result<usize, DecodeError> {
    debug_assert!(payload.len() >= nibbles.div_ceil(2));
    let mut carry = false;
    let mut prevs = 0u32;
    let mut start = 0usize;
    while start < nibbles {
        let n = BLOCK_NIBBLES.min(nibbles - start);
        let bytes = &payload[start / 2..];
        let id = if n == BLOCK_NIBBLES {
            id_mask_full(variant, bytes)
        } else {
            id_mask_scalar(&bytes[..n.div_ceil(2)], n)
        };
        let p = prev_mask(id, carry);
        prevs += p.count_ones();
        carry = (p >> (n - 1)) & 1 == 1;
        start += n;
    }
    if carry {
        return Err(DecodeError::TruncatedLongCode);
    }
    Ok(nibbles - prevs as usize)
}

/// [`resolve_len_with`] under the host's detected variant.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] for a half-read long code.
pub fn resolve_len(payload: &[u8], nibbles: usize) -> Result<usize, DecodeError> {
    resolve_len_with(CodecVariant::detect(), payload, nibbles)
}

/// A resumable emission pass over one validated payload: each
/// [`Self::fill`] decodes whole 64-nibble blocks from where the previous
/// call stopped. The payload must already have passed
/// [`resolve_len_with`] (so a trailing truncated long code is
/// unrepresentable here); the cursor holds only the block-boundary state,
/// so any fill size and any sequence of fills decode the same values as
/// one [`decode_payload_with`] call.
#[derive(Debug, Clone)]
pub struct BulkCursor<'a> {
    variant: CodecVariant,
    payload: &'a [u8],
    nibbles: usize,
    state: BlockState,
}

impl<'a> BulkCursor<'a> {
    /// A cursor at the first nibble of a `nibbles`-beat `payload`.
    ///
    /// # Panics
    ///
    /// When `payload` holds fewer than `nibbles.div_ceil(2)` bytes.
    pub fn new(variant: CodecVariant, payload: &'a [u8], nibbles: usize) -> Self {
        assert!(
            payload.len() >= nibbles.div_ceil(2),
            "payload holds {} bytes, {nibbles} nibbles need {}",
            payload.len(),
            nibbles.div_ceil(2)
        );
        Self {
            variant,
            payload,
            nibbles,
            state: BlockState::default(),
        }
    }

    /// Decodes whole blocks into `out` until at least `want` values are
    /// written or the payload is exhausted, and returns how many were
    /// written: at least `want` unless the payload ran out, and fewer than
    /// `want + FILL_SLACK`. Values past `want` are the start of what the
    /// next call would have decoded; the caller keeps them.
    ///
    /// # Panics
    ///
    /// When `out` is shorter than `want + FILL_SLACK`.
    pub fn fill(&mut self, out: &mut [u8], want: usize) -> usize {
        assert!(
            out.len() >= want + FILL_SLACK,
            "fill of {want} values needs {} bytes of output, got {}",
            want + FILL_SLACK,
            out.len()
        );
        let len = match self.variant {
            CodecVariant::Scalar => 0,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the variant is only constructed when `detect`/`all`
            // observed the required CPU features; `new` checked the payload
            // length and the assert above the output headroom.
            CodecVariant::Avx2 => unsafe {
                x86::decode_blocks_avx2(self.payload, self.nibbles, &mut self.state, out, 0, want)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            CodecVariant::Avx512 => unsafe {
                x86::decode_blocks_avx512(self.payload, self.nibbles, &mut self.state, out, 0, want)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => 0,
        };
        decode_blocks_scalar(self.payload, self.nibbles, &mut self.state, out, len, want)
    }

    /// Whether every nibble of the payload has been decoded.
    pub fn is_done(&self) -> bool {
        self.state.start >= self.nibbles
    }
}

/// Emission pass: fills `out` with the `out.len()` values that `nibbles`
/// beats of `payload` decode to. Callers run [`resolve_len_with`] first
/// (the container reader, [`decode_payload_with`]) and size `out` from the
/// count it resolved.
pub(crate) fn decode_payload_to(
    variant: CodecVariant,
    payload: &[u8],
    nibbles: usize,
    out: &mut [u8],
) {
    let values = out.len();
    let mut cursor = BulkCursor::new(variant, payload, nibbles);
    // Whole blocks straight into the output while a block's headroom
    // fits, then the last (at most FILL_SLACK) values through a buffer.
    let mut len = match values.checked_sub(FILL_SLACK) {
        Some(want) => cursor.fill(out, want),
        None => 0,
    };
    let mut tail = [0u8; 2 * FILL_SLACK];
    let rest = cursor.fill(&mut tail, values - len);
    out[len..len + rest].copy_from_slice(&tail[..rest]);
    len += rest;
    debug_assert!(
        len == values && cursor.is_done(),
        "payload was not resolved to {values} values"
    );
}

/// Portable emission pass from a block-boundary state, with the same
/// contract as the SIMD kernels except that it also decodes the final
/// partial block: the whole stream under [`CodecVariant::Scalar`], and
/// the tail the SIMD kernels leave.
fn decode_blocks_scalar(
    payload: &[u8],
    nibbles: usize,
    st: &mut BlockState,
    out: &mut [u8],
    mut len: usize,
    want: usize,
) -> usize {
    let BlockState {
        mut carry,
        mut last_nib,
        mut start,
    } = *st;
    while len < want && start < nibbles {
        let n = BLOCK_NIBBLES.min(nibbles - start);
        let bytes = &payload[start / 2..];
        let nb = n.div_ceil(2);
        let nibs = unpack_scalar(&bytes[..nb]);
        let id = id_mask_scalar(&bytes[..nb], n);
        let valid = if n == BLOCK_NIBBLES { u64::MAX } else { (1u64 << n) - 1 };
        let p = prev_mask(id, carry);
        // `len < want` and the caller's FILL_SLACK leave a whole block of
        // room at the cursor.
        let dst = &mut out[len..len + BLOCK_NIBBLES];
        if p == 0 && !carry {
            // All-short fast path: every valid nibble is its own value,
            // masked to its low three bits eight at a time.
            for (d, src) in dst.chunks_exact_mut(8).zip(nibs.chunks_exact(8)) {
                let w = u64::from_le_bytes([
                    src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7],
                ]) & LOW3;
                d.copy_from_slice(&w.to_le_bytes());
            }
            len += n;
        } else {
            // Candidate values for every position, computed branch-free
            // eight lanes at a time. `prevs` aligns each nibble with its
            // predecessor so the long-code formula (Eq 3, see
            // `SparkFormat::decode`) vectorizes: the `b1 b2` payload bits shift
            // into bits 6..5 and the `c3` check bit contributes `0x90`.
            let mut prevs = [0u8; BLOCK_NIBBLES];
            prevs[0] = last_nib;
            prevs[1..].copy_from_slice(&nibs[..BLOCK_NIBBLES - 1]);
            let mut shorts = [0u8; BLOCK_NIBBLES];
            let mut pairs = [0u8; BLOCK_NIBBLES];
            for c in 0..BLOCK_NIBBLES / 8 {
                let wn = u64::from_le_bytes([
                    nibs[8 * c],
                    nibs[8 * c + 1],
                    nibs[8 * c + 2],
                    nibs[8 * c + 3],
                    nibs[8 * c + 4],
                    nibs[8 * c + 5],
                    nibs[8 * c + 6],
                    nibs[8 * c + 7],
                ]);
                let wp = u64::from_le_bytes([
                    prevs[8 * c],
                    prevs[8 * c + 1],
                    prevs[8 * c + 2],
                    prevs[8 * c + 3],
                    prevs[8 * c + 4],
                    prevs[8 * c + 5],
                    prevs[8 * c + 6],
                    prevs[8 * c + 7],
                ]);
                let pair_w = ((wp & BIT12) << 4) | (wp & BIT0).wrapping_mul(0x90) | wn;
                shorts[8 * c..8 * c + 8].copy_from_slice(&(wn & LOW3).to_le_bytes());
                pairs[8 * c..8 * c + 8].copy_from_slice(&pair_w.to_le_bytes());
            }
            // Branchless compaction: every position stores its selected
            // candidate, the cursor advances only on emit bits. Prev
            // positions overwrite in place and contribute nothing.
            let post = ((p << 1) | u64::from(carry)) & valid;
            let emit = !p & valid;
            let mut k = 0usize;
            for i in 0..n {
                let sel = 0u8.wrapping_sub(((post >> i) & 1) as u8);
                dst[k] = shorts[i] ^ ((shorts[i] ^ pairs[i]) & sel);
                k += ((emit >> i) & 1) as usize;
            }
            len += k;
        }
        carry = (p >> (n - 1)) & 1 == 1;
        last_nib = nibs[n - 1];
        start += n;
    }
    *st = BlockState {
        carry,
        last_nib,
        start,
    };
    len
}

/// Bulk-decodes a packed payload of `nibbles` beats: boundary resolution,
/// one exact allocation, then the block-table emission pass.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] when the stream ends half-way
/// through a long code.
pub fn decode_payload_with(
    variant: CodecVariant,
    payload: &[u8],
    nibbles: usize,
) -> Result<Vec<u8>, DecodeError> {
    let count = resolve_len_with(variant, payload, nibbles)?;
    let mut out = vec![0u8; count];
    decode_payload_to(variant, payload, nibbles, &mut out);
    Ok(out)
}

/// [`decode_payload_with`] under the host's detected variant.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] for a half-read long code.
pub fn decode_payload(payload: &[u8], nibbles: usize) -> Result<Vec<u8>, DecodeError> {
    decode_payload_with(CodecVariant::detect(), payload, nibbles)
}

/// Bulk-decodes a [`NibbleStream`] under an explicit variant — the
/// differential-test entry point.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] for a half-read long code.
pub fn decode_bulk_with(
    variant: CodecVariant,
    stream: &NibbleStream,
) -> Result<Vec<u8>, DecodeError> {
    decode_payload_with(variant, stream.as_bytes(), stream.len())
}

/// Bulk-decodes a [`NibbleStream`] under the host's detected variant —
/// what [`crate::decode_stream`] dispatches to.
///
/// # Errors
///
/// [`DecodeError::TruncatedLongCode`] for a half-read long code.
pub fn decode_bulk(stream: &NibbleStream) -> Result<Vec<u8>, DecodeError> {
    decode_bulk_with(CodecVariant::detect(), stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prev recurrence computed the slow, obviously-correct way.
    fn prev_mask_reference(id: u64, carry_in: bool, n: usize) -> u64 {
        let mut p = 0u64;
        let mut prev = carry_in;
        for i in 0..n {
            let bit = (id >> i) & 1 == 1 && !prev;
            p |= u64::from(bit) << i;
            prev = bit;
        }
        p
    }

    #[test]
    fn prev_mask_matches_recurrence_on_random_masks() {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = state;
            for carry in [false, true] {
                assert_eq!(
                    prev_mask(id, carry),
                    prev_mask_reference(id, carry, 64),
                    "id={id:#018x} carry={carry}"
                );
            }
        }
    }

    #[test]
    fn prev_mask_structured_cases() {
        // All identifiers set: strict alternation from bit 0 (or 1 with
        // carry); all clear: empty; single runs at every offset.
        assert_eq!(prev_mask(u64::MAX, false), 0x5555_5555_5555_5555);
        assert_eq!(prev_mask(u64::MAX, true), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(prev_mask(0, false), 0);
        assert_eq!(prev_mask(0, true), 0);
        for off in 0..63 {
            let id = 0b11u64 << off;
            assert_eq!(prev_mask(id, false), 1 << off, "run at {off}");
        }
    }

    #[test]
    fn swar_pair_formula_matches_the_paper_format() {
        // The SWAR lane formula in the emission kernels must be
        // bit-identical to `SparkFormat::PAPER.decode` for every
        // (prev, post) nibble combination — equivalence of Eq 3's two
        // spellings.
        use crate::general::{GeneralCode, SparkFormat};
        for prev in 0u8..16 {
            for post in 0u8..16 {
                let swar = ((prev & 0x06) << 4) | ((prev & 0x01) * 0x90) | post;
                let code = GeneralCode::Long {
                    prev: prev.into(),
                    post: post.into(),
                };
                assert_eq!(
                    u16::from(swar),
                    SparkFormat::PAPER.decode(code),
                    "prev={prev:#x} post={post:#x}"
                );
            }
        }
    }

    #[test]
    fn spread_interleaves_bits() {
        assert_eq!(spread(0xFFFF_FFFF), 0x5555_5555_5555_5555);
        assert_eq!(spread(0b1011), 0b01_00_01_01);
    }

    #[test]
    fn id_masks_agree_across_variants() {
        let bytes: Vec<u8> = (0..BLOCK_BYTES).map(|i| (i * 37 + 11) as u8).collect();
        let want = id_mask_scalar(&bytes, BLOCK_NIBBLES);
        for v in CodecVariant::all() {
            assert_eq!(id_mask_full(v, &bytes), want, "{}", v.name());
            let (nibs, id) = load_full(v, &bytes);
            assert_eq!(id, want, "{}", v.name());
            assert_eq!(nibs, unpack_scalar(&bytes), "{}", v.name());
        }
    }

    #[test]
    fn variant_detect_is_listed_in_all() {
        let all = CodecVariant::all();
        assert!(all.contains(&CodecVariant::detect()));
        assert_eq!(all[0], CodecVariant::Scalar);
    }
}
