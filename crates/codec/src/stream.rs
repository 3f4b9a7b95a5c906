//! Nibble-aligned packing of whole tensors.
//!
//! The paper stresses that SPARK keeps memory accesses *aligned*: the tensor
//! is stored as a dense stream of 4-bit beats (the "basic bit length"), two
//! per byte, with no side tables. [`NibbleStream`] is that storage format;
//! [`encode_tensor`] / [`decode_stream`] convert between raw `u8` code words
//! and the packed representation.

use std::sync::OnceLock;

use crate::compensation::EncodeMode;
use crate::decoder::{DecodeError, SparkDecoder};
use crate::stats::CodeStats;

/// A dense, aligned stream of 4-bit beats (high nibble first within each
/// byte).
///
/// ```
/// use spark_codec::NibbleStream;
/// let mut s = NibbleStream::new();
/// s.push(0xA);
/// s.push(0xB);
/// s.push(0xC);
/// assert_eq!(s.as_bytes(), &[0xAB, 0xC0]);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![0xA, 0xB, 0xC]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NibbleStream {
    bytes: Vec<u8>,
    len: usize,
}

impl NibbleStream {
    /// Creates an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty stream with capacity for `n` nibbles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(n.div_ceil(2)),
            len: 0,
        }
    }

    /// Appends one nibble (low 4 bits of `nibble`).
    pub fn push(&mut self, nibble: u8) {
        let nibble = nibble & 0x0F;
        if self.len.is_multiple_of(2) {
            self.bytes.push(nibble << 4);
        } else {
            *self.bytes.last_mut().expect("odd len implies a byte") |= nibble;
        }
        self.len += 1;
    }

    /// Number of nibbles stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no nibbles are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size in bytes of the packed storage (the footprint DRAM sees).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The packed bytes (final byte zero-padded when `len` is odd).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Nibble at position `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        let byte = self.bytes[i / 2];
        Some(if i.is_multiple_of(2) { byte >> 4 } else { byte & 0x0F })
    }

    /// Iterates the nibbles in order.
    ///
    /// Walks the packed bytes directly — two nibbles per byte, high half
    /// first — rather than routing every position through [`get`]'s
    /// bounds check and div/mod. The `take` trims the zero padding nibble
    /// when `len` is odd.
    ///
    /// [`get`]: NibbleStream::get
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.bytes
            .iter()
            .flat_map(|&b| [b >> 4, b & 0x0F])
            .take(self.len)
    }

    /// Reassembles a stream from its packed parts (the inverse of
    /// [`as_bytes`](NibbleStream::as_bytes) + [`len`](NibbleStream::len)).
    /// The container reader uses this to adopt a validated payload in one
    /// move instead of re-pushing every nibble.
    ///
    /// Returns `None` when `bytes` is not exactly `nibbles.div_ceil(2)`
    /// long or a padding nibble is non-zero.
    pub fn from_parts(bytes: Vec<u8>, nibbles: usize) -> Option<Self> {
        if bytes.len() != nibbles.div_ceil(2) {
            return None;
        }
        if nibbles % 2 == 1 {
            let last = bytes.last().copied().unwrap_or(0);
            if last & 0x0F != 0 {
                return None;
            }
        }
        Some(Self { bytes, len: nibbles })
    }
}

impl FromIterator<u8> for NibbleStream {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut s = NibbleStream::new();
        for n in iter {
            s.push(n);
        }
        s
    }
}

impl Extend<u8> for NibbleStream {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let (lower, _) = iter.size_hint();
        self.bytes.reserve(lower.div_ceil(2));
        for n in iter {
            self.push(n);
        }
    }
}

/// A SPARK-encoded tensor: the aligned nibble stream plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTensor {
    /// The packed, aligned 4-bit stream.
    pub stream: NibbleStream,
    /// Number of source elements.
    pub elements: usize,
    /// Encoding statistics (short/lossless fractions, average bit-width).
    pub stats: CodeStats,
}

impl EncodedTensor {
    /// Compression ratio versus the 8-bit baseline
    /// (`8 / average_bits`, > 1 when the encoding saves space).
    pub fn compression_ratio(&self) -> f64 {
        if self.elements == 0 {
            return 1.0;
        }
        8.0 / self.stats.avg_bits()
    }
}

/// Encodes a slice of INT8 code words with the accuracy compensation
/// mechanism enabled (the paper's default).
pub fn encode_tensor(values: &[u8]) -> EncodedTensor {
    encode_tensor_with(values, EncodeMode::Compensated)
}

/// Encodes a slice of INT8 code words under an explicit [`EncodeMode`]
/// (used by the Fig 13 ablation), through the mode's shared
/// [`EncodePlan`].
pub fn encode_tensor_with(values: &[u8], mode: EncodeMode) -> EncodedTensor {
    EncodePlan::cached(mode).encode(values)
}

/// One byte's precomputed encoding: the packed nibbles plus its statistics
/// contributions, so the tensor encoder touches one table row per value
/// instead of re-running the gate-level encoder (twice) and the error
/// bookkeeping per value.
#[derive(Clone, Copy, Default)]
struct PlanEntry {
    /// First nibble, low bits (`acc | n0` completes a pending byte).
    n0: u8,
    /// First nibble pre-shifted high (starts a fresh byte).
    n0h: u8,
    /// Second nibble pre-shifted high (long codes leave it pending).
    n1h: u8,
    /// Both nibbles packed into one byte (long code on an even boundary).
    pair: u8,
    /// True for a two-nibble long code.
    long: bool,
    /// True when the value reconstructs exactly.
    lossless: bool,
    /// Absolute reconstruction error in code units.
    err: u8,
}

/// A reusable 256-entry encoding table for one [`EncodeMode`] — the one
/// tensor encoder behind [`encode_tensor_with`] and the encoded-weight
/// panels.
///
/// [`EncodePlan::encode`] produces the stream and statistics a per-value
/// `mode.encode(v)` loop would (a property the tests pin against such a
/// loop), but in a single pass with no per-value encoder invocation.
pub struct EncodePlan {
    mode: EncodeMode,
    table: [PlanEntry; 256],
}

impl EncodePlan {
    /// Builds the table by running the gate-level encoder once per possible
    /// byte value.
    pub fn new(mode: EncodeMode) -> Self {
        let mut table = [PlanEntry::default(); 256];
        for (v, entry) in table.iter_mut().enumerate() {
            let v = v as u8;
            let code = mode.encode(v);
            let nibs: Vec<u8> = code.nibbles().collect();
            let err = (i16::from(code.decode()) - i16::from(v)).unsigned_abs() as u8;
            *entry = PlanEntry {
                n0: nibs[0],
                n0h: nibs[0] << 4,
                n1h: nibs.get(1).copied().unwrap_or(0) << 4,
                pair: (nibs[0] << 4) | nibs.get(1).copied().unwrap_or(0),
                long: nibs.len() == 2,
                lossless: err == 0,
                err,
            };
        }
        Self { mode, table }
    }

    /// The process-wide plan for `mode`, built on first use. The table
    /// depends on nothing but the mode, so callers on hot paths share one
    /// instead of rebuilding 256 entries per call.
    pub fn cached(mode: EncodeMode) -> &'static EncodePlan {
        static COMPENSATED: OnceLock<EncodePlan> = OnceLock::new();
        static TRUNCATED: OnceLock<EncodePlan> = OnceLock::new();
        let cell = match mode {
            EncodeMode::Compensated => &COMPENSATED,
            EncodeMode::Truncated => &TRUNCATED,
        };
        cell.get_or_init(|| EncodePlan::new(mode))
    }

    /// The mode this plan encodes under.
    pub fn mode(&self) -> EncodeMode {
        self.mode
    }

    /// Encodes one tensor through the table: a single pass that packs
    /// nibbles and accumulates statistics simultaneously.
    pub fn encode(&self, values: &[u8]) -> EncodedTensor {
        let mut long_cnt = 0u64;
        let mut lossless = 0u64;
        let mut err_sum = 0u64;
        let mut max_err = 0u8;
        // Worst case one byte per value (all long codes).
        let mut bytes = Vec::with_capacity(values.len());
        let mut acc = 0u8; // pending high nibble, valid when `have_half`
        let mut have_half = false;
        for &v in values {
            let e = self.table[v as usize];
            long_cnt += e.long as u64;
            lossless += e.lossless as u64;
            err_sum += u64::from(e.err);
            max_err = max_err.max(e.err);
            if have_half {
                bytes.push(acc | e.n0);
                acc = e.n1h;
                have_half = e.long;
            } else if e.long {
                bytes.push(e.pair);
            } else {
                acc = e.n0h;
                have_half = true;
            }
        }
        if have_half {
            bytes.push(acc);
        }
        let short_cnt = values.len() as u64 - long_cnt;
        let len = (short_cnt + 2 * long_cnt) as usize;
        debug_assert_eq!(bytes.len(), len.div_ceil(2));
        EncodedTensor {
            stream: NibbleStream { bytes, len },
            elements: values.len(),
            stats: CodeStats::from_counts(short_cnt, long_cnt, lossless, err_sum, max_err),
        }
    }
}

/// Decodes a packed nibble stream back to code words.
///
/// Dispatches to the bit-parallel bulk engine ([`crate::bulk`]) under the
/// host's best kernel: a boundary-resolution pass sizes the output
/// exactly, then whole 64-nibble blocks decode through the compile-time
/// pair table. Bit-identical to [`decode_stream_reference`] (pinned by the
/// exhaustive differential suite in `tests/bulk_differential.rs`).
///
/// # Errors
///
/// Returns [`DecodeError::TruncatedLongCode`] when the stream ends half-way
/// through a long code.
pub fn decode_stream(stream: &NibbleStream) -> Result<Vec<u8>, DecodeError> {
    crate::bulk::decode_bulk(stream)
}

/// Decodes through the streaming Fig 7 FSM, one beat per step — the
/// bit-identity reference the bulk engine is tested against.
///
/// # Errors
///
/// Returns [`DecodeError::TruncatedLongCode`] when the stream ends half-way
/// through a long code.
pub fn decode_stream_reference(stream: &NibbleStream) -> Result<Vec<u8>, DecodeError> {
    let mut dec = SparkDecoder::new();
    let mut out = Vec::with_capacity(stream.len());
    for nib in stream.iter() {
        if let Some(v) = dec.push_nibble(nib)? {
            out.push(v);
        }
    }
    dec.finish()?;
    Ok(out)
}

/// Encodes values and immediately decodes them — the reconstruction the
/// accelerator computes with. Convenience for accuracy experiments.
pub fn round_trip(values: &[u8], mode: EncodeMode) -> Vec<u8> {
    values.iter().map(|&v| mode.encode(v).decode()).collect()
}

/// Per-value code kinds for a tensor, the operand-precision schedule the
/// simulator consumes.
pub fn code_kinds(values: &[u8]) -> Vec<crate::CodeKind> {
    values.iter().map(|&v| crate::CodeKind::of(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_value;

    /// The per-value encoder the table path replaces: run the mode's
    /// encoder on every value, record its statistics, push its nibbles.
    fn per_value_reference(values: &[u8], mode: EncodeMode) -> EncodedTensor {
        let mut stats = CodeStats::default();
        let mut stream = NibbleStream::new();
        for &v in values {
            let code = mode.encode(v);
            stats.record(v, code);
            stream.extend(code.nibbles());
        }
        EncodedTensor {
            stream,
            elements: values.len(),
            stats,
        }
    }

    #[test]
    fn push_and_get() {
        let mut s = NibbleStream::new();
        for n in 0..10u8 {
            s.push(n);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.byte_len(), 5);
        for n in 0..10u8 {
            assert_eq!(s.get(n as usize), Some(n));
        }
        assert_eq!(s.get(10), None);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        let mut s = NibbleStream::new();
        s.push(0xF);
        assert_eq!(s.as_bytes(), &[0xF0]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_matches_indexed_path_for_both_parities() {
        // The bytewise iterator must agree with the bounds-checked `get`
        // path nibble-for-nibble, for even lengths (no padding) and odd
        // lengths (zero-padded final byte that `take` must trim).
        for len in [0usize, 1, 2, 3, 7, 8, 63, 64, 65, 128, 129] {
            let s: NibbleStream = (0..len).map(|i| (i * 11 % 16) as u8).collect();
            let by_iter: Vec<u8> = s.iter().collect();
            let by_get: Vec<u8> = (0..s.len()).map(|i| s.get(i).expect("in range")).collect();
            assert_eq!(by_iter, by_get, "len {len}");
            assert_eq!(by_iter.len(), len);
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_shapes() {
        let s: NibbleStream = (0..9u8).collect();
        let back = NibbleStream::from_parts(s.as_bytes().to_vec(), s.len()).unwrap();
        assert_eq!(back, s);
        // Wrong byte count for the nibble count.
        assert!(NibbleStream::from_parts(vec![0x12], 3).is_none());
        // Non-zero padding nibble on an odd length.
        assert!(NibbleStream::from_parts(vec![0x12, 0x34], 3).is_none());
        assert!(NibbleStream::from_parts(vec![0x12, 0x30], 3).is_some());
    }

    #[test]
    fn from_iterator_and_extend() {
        let s: NibbleStream = [1u8, 2, 3].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut s2 = s.clone();
        s2.extend([4u8]);
        assert_eq!(s2.len(), 4);
    }

    #[test]
    fn encode_decode_round_trip_all_bytes() {
        let values: Vec<u8> = (0u16..=255).map(|v| v as u8).collect();
        let enc = encode_tensor(&values);
        let dec = decode_stream(&enc.stream).unwrap();
        assert_eq!(dec.len(), values.len());
        for (&orig, &got) in values.iter().zip(&dec) {
            assert_eq!(got, encode_value(orig).decode());
        }
    }

    #[test]
    fn all_short_values_halve_storage() {
        let values = vec![3u8; 100];
        let enc = encode_tensor(&values);
        assert_eq!(enc.stream.len(), 100); // one nibble each
        assert_eq!(enc.stream.byte_len(), 50);
        assert!((enc.compression_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_long_values_keep_full_width() {
        let values = vec![200u8; 50];
        let enc = encode_tensor(&values);
        assert_eq!(enc.stream.len(), 100);
        assert!((enc.compression_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn encode_allocates_the_stream_once() {
        // One allocation sized for the worst case (a long code, one byte,
        // per value) before the table pass: the stream never grows, and its
        // length matches the statistics exactly.
        let values: Vec<u8> = (0..513).map(|i| (i * 31 % 256) as u8).collect();
        let enc = encode_tensor(&values);
        assert_eq!(enc.stream.len() as u64, enc.stats.nibble_count());
        assert_eq!(enc.stream.bytes.capacity(), values.len());
    }

    #[test]
    fn decode_presizes_output_exactly() {
        // The boundary pass predicts the value count exactly, so the
        // output vector never reallocates past its initial capacity.
        let values: Vec<u8> = (0..513).map(|i| (i * 31 % 256) as u8).collect();
        let enc = encode_tensor(&values);
        let dec = decode_stream(&enc.stream).unwrap();
        assert_eq!(dec.len(), values.len());
        assert_eq!(dec.capacity(), dec.len());
    }

    #[test]
    fn bulk_and_reference_decoders_agree() {
        let values: Vec<u8> = (0..2048).map(|i| (i * 37 % 256) as u8).collect();
        let enc = encode_tensor(&values);
        assert_eq!(
            decode_stream(&enc.stream).unwrap(),
            decode_stream_reference(&enc.stream).unwrap()
        );
    }

    #[test]
    fn empty_tensor() {
        let enc = encode_tensor(&[]);
        assert_eq!(enc.elements, 0);
        assert_eq!(enc.compression_ratio(), 1.0);
        assert_eq!(decode_stream(&enc.stream).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut s = NibbleStream::new();
        s.push(0b1000); // first half of a long code
        assert!(decode_stream(&s).is_err());
    }

    #[test]
    fn round_trip_matches_per_value_decode() {
        let values = [0u8, 7, 8, 18, 127, 128, 170, 255];
        let rt = round_trip(&values, EncodeMode::Compensated);
        for (&v, &r) in values.iter().zip(&rt) {
            assert_eq!(r, encode_value(v).decode());
        }
    }

    #[test]
    fn code_kinds_split_at_8() {
        let kinds = code_kinds(&[0, 7, 8, 255]);
        use crate::CodeKind::*;
        assert_eq!(kinds, vec![Short, Short, Long, Long]);
    }

    #[test]
    fn plan_encode_is_bit_identical_to_encode_tensor() {
        // Exhaustive byte coverage plus every parity of short/long
        // adjacency, under both modes: the plan path must produce the
        // exact same stream bytes, length, and statistics as the per-value
        // reference, and `encode_tensor_with` must be that plan.
        let mut patterns: Vec<Vec<u8>> = vec![
            (0u16..=255).map(|v| v as u8).collect(),
            vec![],
            vec![3],
            vec![200],
            vec![3, 200, 3, 200, 3],
            vec![200, 3, 200, 3, 200],
        ];
        // Pseudo-random mixes with varying short/long densities.
        let mut state = 0x5EED_1234_u64;
        for density in [0, 25, 50, 75, 100] {
            let mut v = Vec::with_capacity(997);
            for _ in 0..997 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = (state >> 33) as u8;
                v.push(if u64::from(r) % 100 < density { r | 8 } else { r % 8 });
            }
            patterns.push(v);
        }
        for mode in [EncodeMode::Compensated, EncodeMode::Truncated] {
            let plan = EncodePlan::new(mode);
            for values in &patterns {
                let want = per_value_reference(values, mode);
                let got = plan.encode(values);
                assert_eq!(got.stream.as_bytes(), want.stream.as_bytes());
                assert_eq!(got.stream.len(), want.stream.len());
                assert_eq!(got.elements, want.elements);
                assert_eq!(got.stats, want.stats);
                assert_eq!(encode_tensor_with(values, mode), got);
            }
        }
    }

    #[test]
    fn plan_single_element_parity_is_exhaustive() {
        // Every possible byte as a whole tensor of one, under both modes:
        // the smallest tensors exercise the plan's edge bookkeeping (no
        // pending half-byte, a single trailing high nibble for long
        // codes) that the mixed patterns above can mask.
        for mode in [EncodeMode::Compensated, EncodeMode::Truncated] {
            let plan = EncodePlan::new(mode);
            for v in 0u16..=255 {
                let values = [v as u8];
                let want = per_value_reference(&values, mode);
                let got = plan.encode(&values);
                assert_eq!(got.stream.as_bytes(), want.stream.as_bytes(), "{mode:?} {v}");
                assert_eq!(got.stream.len(), want.stream.len(), "{mode:?} {v}");
                assert_eq!(got.stats, want.stats, "{mode:?} {v}");
                assert_eq!(
                    decode_stream(&got.stream).unwrap(),
                    vec![mode.encode(v as u8).decode()],
                    "{mode:?} {v}"
                );
            }
            // And the empty tensor: zero nibbles, zero stats, decodable.
            let empty = plan.encode(&[]);
            assert_eq!(empty, per_value_reference(&[], mode));
            assert_eq!(empty.stream.len(), 0);
            assert_eq!(decode_stream(&empty.stream).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn plan_parity_holds_at_max_compensation() {
        use crate::MAX_ENCODING_ERROR;
        // The values the check-bit rounding hurts most: reconstruction
        // error exactly at the paper's CM bound. A tensor made of nothing
        // but worst-case values is the adversarial input for the plan's
        // error accounting (err_sum, max_err saturation).
        let worst: Vec<u8> = (0u16..=255)
            .map(|v| v as u8)
            .filter(|&v| {
                let code = EncodeMode::Compensated.encode(v);
                (i16::from(code.decode()) - i16::from(v)).unsigned_abs() as u8
                    == MAX_ENCODING_ERROR
            })
            .collect();
        assert!(
            !worst.is_empty(),
            "some byte must sit exactly at the CM bound or the bound is wrong"
        );
        let plan = EncodePlan::new(EncodeMode::Compensated);
        // Pure worst-case tensor, and worst-case interleaved with short
        // codes to cover both nibble parities around each long code.
        let mut interleaved = Vec::with_capacity(worst.len() * 2);
        for &v in &worst {
            interleaved.push(v);
            interleaved.push(3);
        }
        for values in [&worst, &interleaved] {
            let want = per_value_reference(values, EncodeMode::Compensated);
            let got = plan.encode(values);
            assert_eq!(got.stream.as_bytes(), want.stream.as_bytes());
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.stats.max_error(), MAX_ENCODING_ERROR);
        }
    }

    #[test]
    fn plan_output_is_container_v2_identical() {
        use crate::container::{read_container, write_container};
        // Parity promoted through the serialization layer: the container
        // image (header, element/nibble accounting, FNV checksum,
        // payload) of a plan-encoded tensor must be byte-identical to the
        // per-value encoder's, and read back cleanly.
        let patterns: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![200],
            (0u16..=255).map(|v| v as u8).collect(),
            (0..997).map(|i| ((i * 41) % 256) as u8).collect(),
        ];
        let plan = EncodePlan::new(EncodeMode::Compensated);
        for values in &patterns {
            let mut from_plan = Vec::new();
            write_container(&plan.encode(values), &mut from_plan).unwrap();
            let mut from_encoder = Vec::new();
            write_container(
                &per_value_reference(values, EncodeMode::Compensated),
                &mut from_encoder,
            )
            .unwrap();
            assert_eq!(
                from_plan, from_encoder,
                "container images diverge for {values:?}"
            );
            let back = read_container(&from_plan[..]).unwrap();
            assert_eq!(back.elements, values.len());
            assert_eq!(
                decode_stream(&back.stream).unwrap(),
                round_trip(values, EncodeMode::Compensated)
            );
        }
    }

    #[test]
    fn cached_plan_is_one_per_mode_and_matches_a_fresh_plan() {
        let all: Vec<u8> = (0u16..=255).map(|v| v as u8).collect();
        for mode in [EncodeMode::Compensated, EncodeMode::Truncated] {
            let cached = EncodePlan::cached(mode);
            assert!(std::ptr::eq(cached, EncodePlan::cached(mode)));
            assert_eq!(cached.mode(), mode);
            assert_eq!(cached.encode(&all), EncodePlan::new(mode).encode(&all));
        }
    }

    #[test]
    fn batch_decodes_round_trip() {
        let tensors: Vec<Vec<u8>> = (0..5)
            .map(|t| (0..100).map(|i| ((i * 7 + t * 13) % 256) as u8).collect())
            .collect();
        for values in &tensors {
            let dec = decode_stream(&encode_tensor(values).stream).unwrap();
            let want: Vec<u8> = values.iter().map(|&v| encode_value(v).decode()).collect();
            assert_eq!(dec, want);
        }
    }
}
