//! SIMD nibble packer: the encode twin of [`crate::bulk`].
//!
//! [`EncodePlan`](crate::EncodePlan) turns a tensor's 8-bit codes into a
//! packed [`NibbleStream`](crate::NibbleStream) and its
//! [`CodeStats`](crate::CodeStats). Its 256-entry table loop reads one
//! table row per value and carries the pending half-byte from value to
//! value; it is the scalar tier and the oracle. The SIMD tiers here encode a
//! whole block of values at once, the way the paper's encoder (Fig 10) is
//! combinational per value and only the packing is sequential:
//!
//! 1. **Code nibbles.** The long-code mask is `v ≥ 8`. The first nibble
//!    is `v` itself for a short code and `1 b1 b2 b0` (Eq 4) for a long
//!    one; the second nibble is the low nibble where the check bits agree
//!    (`b0 == b3`) and otherwise, under compensation, `1111` or `0000` by
//!    `b3` (Eq 5). The same check-bit mask marks the lossy values and
//!    gives each one's error (`low + 1` or `16 - low`; 16 without
//!    compensation).
//! 2. **Compaction.** Each value's two nibble slots are interleaved, every
//!    first slot and the second slot of each long code are kept, and the
//!    kept slots are compacted (`vpcompressb` on AVX-512, BMI2 `pext` per
//!    four values on AVX2) into a staging buffer, one nibble per byte,
//!    after the nibble left pending by the previous block.
//! 3. **Pair packing.** `vpmaddubsw` against `(16, 1)` byte weights makes
//!    each staged nibble pair `16·hi + lo`, narrowed to bytes and stored;
//!    an odd last nibble stays pending for the next block.
//!
//! The statistics fall out of the same masks: long codes are a popcount
//! of the long mask, lossless values the complement of the lossy one, the
//! error sum a `vpsadbw` and the largest error a byte max. Every count is
//! an integer sum or maximum, so the tiers agree with the table loop to
//! the bit (`tests/pack_differential.rs` pins this for every tier and
//! mode). The kernels stop at least one block before the end, so each
//! whole-register store stays inside the `values.len()` bytes the caller
//! reserved; the table loop packs the rest from the state they leave.

use crate::bulk::CodecVariant;
use crate::compensation::EncodeMode;

/// What a packing pass over a prefix of the values leaves for the next:
/// the pending half-byte and the running statistics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PackState {
    /// Pending first nibble, pre-shifted high; valid when `half`.
    pub(crate) acc: u8,
    /// True when a nibble is pending.
    pub(crate) half: bool,
    /// Long codes so far.
    pub(crate) long: u64,
    /// Values reconstructed exactly so far.
    pub(crate) lossless: u64,
    /// Sum of absolute reconstruction errors so far.
    pub(crate) err_sum: u64,
    /// Largest single error so far.
    pub(crate) max_err: u8,
}

/// Packs whole blocks of `values` under `mode` with `variant`'s kernel,
/// appending to `out` from `st`, and returns how many values it packed
/// (0 under [`CodecVariant::Scalar`]: the table loop packs everything).
/// The caller packs the rest with the table loop.
///
/// # Panics
///
/// When `out` has less than `values.len()` bytes of spare capacity: the
/// kernels store whole registers into it.
pub(crate) fn pack_blocks(
    variant: CodecVariant,
    mode: EncodeMode,
    values: &[u8],
    out: &mut Vec<u8>,
    st: &mut PackState,
) -> usize {
    assert!(
        out.capacity() - out.len() >= values.len(),
        "packing {} values needs that many bytes of spare capacity",
        values.len()
    );
    match variant {
        CodecVariant::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the variant is only constructed when `detect`/`all`
        // observed the required CPU features; the assert above reserves
        // the room every store needs.
        CodecVariant::Avx2 => unsafe { x86::pack_avx2(mode, values, out, st) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        CodecVariant::Avx512 => unsafe { x86::pack_avx512(mode, values, out, st) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => 0,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512 packing kernels. Callers guarantee the CPU
    //! features (by constructing the [`CodecVariant`] via `detect`/`all`)
    //! and `values.len()` bytes of spare capacity in `out`.
    #![allow(unsafe_code)]

    use super::PackState;
    use crate::compensation::EncodeMode;
    use std::arch::x86_64::*;

    /// Byte weights that make `vpmaddubsw` pack a nibble pair into
    /// `16·first + second`.
    const PAIR_WEIGHTS: i16 = 0x0110;
    /// Every value's first nibble slot in a `u64` of four interleaved
    /// values (`first, second, first, second, …`, little-endian).
    const FIRST_SLOTS: u64 = 0x00FF_00FF_00FF_00FF;
    /// Bit 0 of every second-nibble slot, the `pdep` target of four long
    /// bits.
    const SECOND_SLOT_BITS: u64 = 0x0100_0100_0100_0100;

    /// Folds a kernel's totals over `packed` values, and the nibble it
    /// left pending, into `st`.
    fn finish(
        st: &mut PackState,
        packed: usize,
        long: u64,
        lossy: u64,
        err_sum: u64,
        max_err: u8,
        pending: Option<u8>,
    ) {
        st.long += long;
        st.lossless += packed as u64 - lossy;
        st.err_sum += err_sum;
        st.max_err = st.max_err.max(max_err);
        st.half = pending.is_some();
        st.acc = pending.unwrap_or(0) << 4;
    }

    /// AVX2 + BMI2 kernel, 32 values per block.
    ///
    /// # Safety
    ///
    /// `avx2`, `bmi2` and `popcnt` are present and `out` has
    /// `values.len()` bytes of spare capacity.
    #[target_feature(enable = "avx2,bmi2,popcnt")]
    pub unsafe fn pack_avx2(
        mode: EncodeMode,
        values: &[u8],
        out: &mut Vec<u8>,
        st: &mut PackState,
    ) -> usize {
        const BLOCK: usize = 32;
        // Block `b` stores 32 bytes at most `32·b` bytes into the output
        // (each value packs to at most one byte); stopping one block
        // before the end keeps every store inside the reserve.
        let blocks = values.len().saturating_sub(BLOCK) / BLOCK;
        let set = |b: u8| _mm256_set1_epi8(b as i8);
        let zero = _mm256_setzero_si256();
        let weights = _mm256_set1_epi16(PAIR_WEIGHTS);
        // Pending nibble, up to 64 compacted nibbles, and the slack of a
        // whole `u64` store at the last compaction offset.
        let mut stage = [0u8; 80];
        stage[0] = st.acc >> 4;
        let mut half = usize::from(st.half);
        let dst = out.as_mut_ptr().add(out.len());
        let mut written = 0usize;
        let (mut long_n, mut lossy_n) = (0u64, 0u64);
        let mut err_sum = zero;
        let mut err_max = zero;
        for b in 0..blocks {
            let v = _mm256_loadu_si256(values.as_ptr().add(b * BLOCK).cast());
            let short = _mm256_cmpeq_epi8(_mm256_and_si256(v, set(0xF8)), zero);
            let long = !(_mm256_movemask_epi8(short) as u32);
            let low = _mm256_and_si256(v, set(0x0F));
            // Eq 4: `1 b1 b2 b0`, with `b1 b2` at value bits 6..5 and `b0`
            // at bit 7 (16-bit shifts; the masks drop the neighbour byte).
            let prev = _mm256_or_si256(
                set(0x08),
                _mm256_or_si256(
                    _mm256_and_si256(_mm256_srli_epi16::<4>(v), set(0x06)),
                    _mm256_and_si256(_mm256_srli_epi16::<7>(v), set(0x01)),
                ),
            );
            let n0 = _mm256_blendv_epi8(prev, v, short);
            // Check bits `b0 ^ b3` land on bit 4 of `v ^ (v >> 3)`.
            let check = _mm256_and_si256(_mm256_xor_si256(v, _mm256_srli_epi16::<3>(v)), set(0x10));
            let lossy = _mm256_andnot_si256(short, _mm256_cmpeq_epi8(check, set(0x10)));
            let (n1, err) = match mode {
                EncodeMode::Compensated => {
                    let b3 = _mm256_cmpeq_epi8(_mm256_and_si256(v, set(0x10)), set(0x10));
                    let rounded = _mm256_and_si256(b3, set(0x0F));
                    let e = _mm256_blendv_epi8(
                        _mm256_sub_epi8(set(16), low),
                        _mm256_add_epi8(low, set(1)),
                        b3,
                    );
                    (_mm256_blendv_epi8(low, rounded, lossy), _mm256_and_si256(lossy, e))
                }
                EncodeMode::Truncated => (low, _mm256_and_si256(lossy, set(16))),
            };
            long_n += u64::from(long.count_ones());
            lossy_n += u64::from((_mm256_movemask_epi8(lossy) as u32).count_ones());
            err_sum = _mm256_add_epi64(err_sum, _mm256_sad_epu8(err, zero));
            err_max = _mm256_max_epu8(err_max, err);
            // Interleave in value order: unpack works within 128-bit
            // lanes, the lane permutes restore values 0..16 and 16..32.
            let a = _mm256_unpacklo_epi8(n0, n1);
            let c = _mm256_unpackhi_epi8(n0, n1);
            let mut slots = [0u8; 64];
            _mm256_storeu_si256(slots.as_mut_ptr().cast(), _mm256_permute2x128_si256::<0x20>(a, c));
            _mm256_storeu_si256(
                slots.as_mut_ptr().add(32).cast(),
                _mm256_permute2x128_si256::<0x31>(a, c),
            );
            let mut t = half;
            for q in 0..8 {
                let word = slots.as_ptr().add(8 * q).cast::<u64>().read_unaligned();
                let l4 = u64::from(long >> (4 * q)) & 0xF;
                let keep = FIRST_SLOTS | _pdep_u64(l4, SECOND_SLOT_BITS).wrapping_mul(0xFF);
                stage
                    .as_mut_ptr()
                    .add(t)
                    .cast::<u64>()
                    .write_unaligned(_pext_u64(word, keep));
                t += 4 + l4.count_ones() as usize;
            }
            // Pack the first 64 staged nibbles; at most 32 bytes are whole.
            for h in 0..2 {
                let nibs = _mm256_loadu_si256(stage.as_ptr().add(32 * h).cast());
                let pairs = _mm256_maddubs_epi16(nibs, weights);
                let bytes = _mm256_permute4x64_epi64::<0b1000>(_mm256_packus_epi16(pairs, pairs));
                _mm_storeu_si128(dst.add(written + 16 * h).cast(), _mm256_castsi256_si128(bytes));
            }
            written += t / 2;
            half = t & 1;
            stage[0] = stage[t - 1];
        }
        out.set_len(out.len() + written);
        let mut sums = [0u64; 4];
        _mm256_storeu_si256(sums.as_mut_ptr().cast(), err_sum);
        let mut maxes = [0u8; 32];
        _mm256_storeu_si256(maxes.as_mut_ptr().cast(), err_max);
        let max_err = maxes.iter().copied().max().unwrap_or(0);
        let pending = (half == 1).then_some(stage[0]);
        finish(st, blocks * BLOCK, long_n, lossy_n, sums.iter().sum(), max_err, pending);
        blocks * BLOCK
    }

    /// AVX-512 (`F+BW+VL+VBMI+VBMI2`) kernel, 64 values per block: one
    /// register of values, `vpermt2b` interleaves, `vpcompressb` compacts.
    ///
    /// # Safety
    ///
    /// The AVX-512 `F+BW+VL+VBMI+VBMI2` features, `bmi2` and `popcnt` are
    /// present and `out` has `values.len()` bytes of spare capacity.
    #[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub unsafe fn pack_avx512(
        mode: EncodeMode,
        values: &[u8],
        out: &mut Vec<u8>,
        st: &mut PackState,
    ) -> usize {
        const BLOCK: usize = 64;
        /// `vpermt2b` indices interleaving values `from..from + 32` of the
        /// first-nibble register (indices `< 64`) with the same values of
        /// the second-nibble register (indices `64..`).
        const fn interleave(from: u8) -> [u8; 64] {
            let mut a = [0u8; 64];
            let mut i = 0;
            while i < 32 {
                a[2 * i] = from + i as u8;
                a[2 * i + 1] = 64 + from + i as u8;
                i += 1;
            }
            a
        }
        const LOW_HALF: [u8; 64] = interleave(0);
        const HIGH_HALF: [u8; 64] = interleave(32);
        /// Every value's first slot in 32 interleaved values.
        const FIRST: u64 = 0x5555_5555_5555_5555;
        const SECOND: u64 = 0xAAAA_AAAA_AAAA_AAAA;
        let blocks = values.len().saturating_sub(BLOCK) / BLOCK;
        let set = |b: u8| _mm512_set1_epi8(b as i8);
        let zero = _mm512_setzero_si512();
        let weights = _mm512_set1_epi16(PAIR_WEIGHTS);
        let low_half = _mm512_loadu_si512(LOW_HALF.as_ptr().cast());
        let high_half = _mm512_loadu_si512(HIGH_HALF.as_ptr().cast());
        // Pending nibble, up to 128 compacted nibbles, and the slack of a
        // whole-register store at the second compaction offset.
        let mut stage = [0u8; 192];
        stage[0] = st.acc >> 4;
        let mut half = usize::from(st.half);
        let dst = out.as_mut_ptr().add(out.len());
        let mut written = 0usize;
        let (mut long_n, mut lossy_n) = (0u64, 0u64);
        let mut err_sum = zero;
        let mut err_max = zero;
        for b in 0..blocks {
            let v = _mm512_loadu_si512(values.as_ptr().add(b * BLOCK).cast());
            let long = _mm512_cmpgt_epu8_mask(v, set(7));
            let low = _mm512_and_si512(v, set(0x0F));
            // Eq 4, as in the AVX2 kernel.
            let prev = _mm512_or_si512(
                set(0x08),
                _mm512_or_si512(
                    _mm512_and_si512(_mm512_srli_epi16::<4>(v), set(0x06)),
                    _mm512_and_si512(_mm512_srli_epi16::<7>(v), set(0x01)),
                ),
            );
            let n0 = _mm512_mask_blend_epi8(long, v, prev);
            let lossy = long
                & _mm512_test_epi8_mask(_mm512_xor_si512(v, _mm512_srli_epi16::<3>(v)), set(0x10));
            let (n1, err) = match mode {
                EncodeMode::Compensated => {
                    let b3 = _mm512_test_epi8_mask(v, set(0x10));
                    let e = _mm512_mask_blend_epi8(
                        b3,
                        _mm512_sub_epi8(set(16), low),
                        _mm512_add_epi8(low, set(1)),
                    );
                    (
                        _mm512_mask_blend_epi8(lossy, low, _mm512_maskz_mov_epi8(b3, set(0x0F))),
                        _mm512_maskz_mov_epi8(lossy, e),
                    )
                }
                EncodeMode::Truncated => (low, _mm512_maskz_mov_epi8(lossy, set(16))),
            };
            long_n += u64::from(long.count_ones());
            lossy_n += u64::from(lossy.count_ones());
            err_sum = _mm512_add_epi64(err_sum, _mm512_sad_epu8(err, zero));
            err_max = _mm512_max_epu8(err_max, err);
            let keep_lo = FIRST | _pdep_u64(long & 0xFFFF_FFFF, SECOND);
            let keep_hi = FIRST | _pdep_u64(long >> 32, SECOND);
            let lo = _mm512_maskz_compress_epi8(keep_lo, _mm512_permutex2var_epi8(n0, low_half, n1));
            let hi = _mm512_maskz_compress_epi8(keep_hi, _mm512_permutex2var_epi8(n0, high_half, n1));
            let s = stage.as_mut_ptr();
            _mm512_storeu_si512(s.add(half).cast(), lo);
            let t = half + keep_lo.count_ones() as usize;
            _mm512_storeu_si512(s.add(t).cast(), hi);
            let t = t + keep_hi.count_ones() as usize;
            // Pack the first 128 staged nibbles; at most 64 bytes are whole.
            for h in 0..2 {
                let nibs = _mm512_loadu_si512(s.add(64 * h).cast());
                let bytes = _mm512_cvtepi16_epi8(_mm512_maddubs_epi16(nibs, weights));
                _mm256_storeu_si256(dst.add(written + 32 * h).cast(), bytes);
            }
            written += t / 2;
            half = t & 1;
            stage[0] = stage[t - 1];
        }
        out.set_len(out.len() + written);
        let mut maxes = [0u8; 64];
        _mm512_storeu_si512(maxes.as_mut_ptr().cast(), err_max);
        let max_err = maxes.iter().copied().max().unwrap_or(0);
        let sum = _mm512_reduce_add_epi64(err_sum) as u64;
        let pending = (half == 1).then_some(stage[0]);
        finish(st, blocks * BLOCK, long_n, lossy_n, sum, max_err, pending);
        blocks * BLOCK
    }
}
