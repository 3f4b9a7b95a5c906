//! Per-value SPARK encoding and decoding (Fig 3, Table II).
//!
//! Bit convention: following the paper, `b0` is the *most* significant bit of
//! the original 8-bit value and `b7` the least. Code bits `c0…c7` follow the
//! same convention; for short codes only `c4…c7` exist.
//!
//! The code rule itself lives in [`SparkFormat`]; this module is its `u8`
//! narrowing for the paper's [`SparkFormat::PAPER`] instance.

use std::fmt;

use crate::general::{GeneralCode, SparkFormat};

/// Largest possible absolute error the SPARK code introduces for any byte
/// (the paper: "no more than error of 16").
pub const MAX_ENCODING_ERROR: u8 = 16;

/// Whether a value takes a short (4-bit) or long (8-bit) SPARK code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeKind {
    /// 4-bit code: original value in `[0, 7]`.
    Short,
    /// 8-bit code: original value in `[8, 255]`.
    Long,
}

impl CodeKind {
    /// The code kind a raw value maps to.
    pub fn of(value: u8) -> Self {
        if u16::from(value) < SparkFormat::PAPER.short_range() {
            CodeKind::Short
        } else {
            CodeKind::Long
        }
    }

    /// Code length in bits (4 or 8).
    pub fn bits(self) -> u8 {
        match self {
            CodeKind::Short => 4,
            CodeKind::Long => 8,
        }
    }

    /// Code length in nibbles (1 or 2) — the unit the hardware streams.
    pub fn nibbles(self) -> u8 {
        match self {
            CodeKind::Short => 1,
            CodeKind::Long => 2,
        }
    }
}

impl fmt::Display for CodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeKind::Short => write!(f, "short(4b)"),
            CodeKind::Long => write!(f, "long(8b)"),
        }
    }
}

/// A single SPARK code word.
///
/// ```
/// use spark_codec::SparkCode;
/// // Paper example: 18 (00010010) rounds to 15, code 1000 1111.
/// let code = SparkCode::encode(18);
/// assert_eq!(code, SparkCode::Long { prev: 0b1000, post: 0b1111 });
/// assert_eq!(code.decode(), 15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparkCode {
    /// 4-bit code `0 b5 b6 b7`; the stored nibble (identifier bit is its MSB
    /// and always 0, so the nibble is in `0..=7`).
    Short(u8),
    /// 8-bit code split in two nibbles: `prev = 1 b1 b2 b0`, `post` per the
    /// check-bit rule (Eq 5).
    Long {
        /// First nibble, MSB (the identifier) always set.
        prev: u8,
        /// Second nibble.
        post: u8,
    },
}

impl SparkCode {
    /// Encodes a raw byte with the accuracy compensation mechanism
    /// (check-bit rounding), exactly as Fig 10 / Eqs 4–5.
    pub fn encode(value: u8) -> Self {
        encode_value(value)
    }

    /// Decodes the code word back to its (possibly rounded) byte value
    /// (Eq 3): [`SparkFormat::PAPER`]'s decode, narrowed to `u8`.
    #[inline]
    pub fn decode(self) -> u8 {
        SparkFormat::PAPER.decode(self.into()) as u8
    }

    /// Short or long.
    pub fn kind(self) -> CodeKind {
        match self {
            SparkCode::Short(_) => CodeKind::Short,
            SparkCode::Long { .. } => CodeKind::Long,
        }
    }

    /// Code length in bits.
    pub fn bits(self) -> u8 {
        self.kind().bits()
    }

    /// The nibbles this code occupies in a stream, prev first.
    pub fn nibbles(self) -> impl Iterator<Item = u8> {
        let (a, b) = match self {
            SparkCode::Short(nibble) => (nibble & 0x0F, None),
            SparkCode::Long { prev, post } => (prev & 0x0F, Some(post & 0x0F)),
        };
        std::iter::once(a).chain(b)
    }

    /// True when decoding returns exactly the value this code was built from.
    pub fn is_lossless_for(self, original: u8) -> bool {
        self.decode() == original
    }
}

impl fmt::Display for SparkCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparkCode::Short(n) => write!(f, "{:04b}", n & 0x0F),
            SparkCode::Long { prev, post } => {
                write!(f, "{:04b} {:04b}", prev & 0x0F, post & 0x0F)
            }
        }
    }
}

/// Extracts bit `i` (0 = MSB) of a byte, paper convention.
#[inline]
pub(crate) fn bit(value: u8, i: u8) -> u8 {
    (value >> (7 - i)) & 1
}

/// Encodes one byte into its SPARK code (compensated rounding, Eqs 4–5):
/// [`SparkFormat::PAPER`]'s encode, narrowed to `u8` nibbles.
///
/// ```
/// use spark_codec::{encode_value, SparkCode};
/// assert_eq!(encode_value(5), SparkCode::Short(0b0101));
/// assert_eq!(encode_value(170), SparkCode::Long { prev: 0b1011, post: 0b0000 });
/// ```
#[inline]
pub fn encode_value(value: u8) -> SparkCode {
    // Every 8/4 code part is at most four bits wide, so the casts are
    // lossless.
    match SparkFormat::PAPER.encode(u16::from(value)) {
        GeneralCode::Short(nibble) => SparkCode::Short(nibble as u8),
        GeneralCode::Long { prev, post } => SparkCode::Long {
            prev: prev as u8,
            post: post as u8,
        },
    }
}

/// Round-trips one byte through the SPARK code, returning the reconstructed
/// value. Equivalent to `SparkCode::encode(v).decode()`.
pub fn decode_value(value: u8) -> u8 {
    encode_value(value).decode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_codes_cover_0_to_7_losslessly() {
        for v in 0u8..=7 {
            let c = encode_value(v);
            assert_eq!(c.kind(), CodeKind::Short);
            assert_eq!(c.decode(), v);
            assert_eq!(c.bits(), 4);
        }
    }

    #[test]
    fn values_8_to_255_are_long() {
        for v in 8u8..=255 {
            assert_eq!(encode_value(v).kind(), CodeKind::Long);
            if v == 255 {
                break;
            }
        }
    }

    #[test]
    fn paper_example_18_rounds_to_15() {
        // 18 = 00010010; b0=0, b3=1 -> round down, SPARK code 1000 1111.
        let c = encode_value(18);
        assert_eq!(c, SparkCode::Long { prev: 0b1000, post: 0b1111 });
        assert_eq!(c.decode(), 15);
    }

    #[test]
    fn paper_example_170_rounds_to_176() {
        // 170 = 10101010; b0=1, b3=0 -> round up, code 1011 0000 -> 176.
        let c = encode_value(170);
        assert_eq!(c, SparkCode::Long { prev: 0b1011, post: 0b0000 });
        assert_eq!(c.decode(), 176);
    }

    #[test]
    fn paper_example_code_11010010_is_210() {
        let c = SparkCode::Long { prev: 0b1101, post: 0b0010 };
        assert_eq!(c.decode(), 210);
        // and 210 encodes losslessly back to the same code
        assert_eq!(encode_value(210), c);
    }

    #[test]
    fn paper_example_code_0101_is_5() {
        // Table II narrative: 0101 short code decodes to 5.
        assert_eq!(SparkCode::Short(0b0101).decode(), 5);
    }

    #[test]
    fn paper_example_code_10110001_is_177() {
        // Section III-B: encoded 10110001 has decimal value 177.
        let c = SparkCode::Long { prev: 0b1011, post: 0b0001 };
        assert_eq!(c.decode(), 177);
    }

    #[test]
    fn exhaustive_error_bound() {
        for v in 0u16..=255 {
            let v = v as u8;
            let d = decode_value(v);
            let err = (v as i16 - d as i16).abs();
            assert!(
                err <= MAX_ENCODING_ERROR as i16,
                "value {v} decoded to {d}, error {err} > 16"
            );
        }
    }

    #[test]
    fn lossless_exactly_when_check_bits_agree() {
        for v in 0u16..=255 {
            let v = v as u8;
            let lossless = decode_value(v) == v;
            let expected = v < 8 || bit(v, 0) == bit(v, 3);
            assert_eq!(lossless, expected, "value {v}");
        }
    }

    #[test]
    fn rounding_direction_matches_table_ii() {
        for v in 0u16..=255 {
            let v = v as u8;
            let d = decode_value(v);
            if v < 128 {
                // mid-range values round down (or are exact)
                assert!(d <= v, "value {v} rounded up to {d}");
            } else {
                // high values round up (or are exact)
                assert!(d >= v, "value {v} rounded down to {d}");
            }
        }
    }

    #[test]
    fn table_ii_row_lossy_mid_values() {
        // 0xx1xxxx -> 15, 47, 79, 111
        for (block, target) in [(16u8, 15u8), (48, 47), (80, 79), (112, 111)] {
            for v in block..block + 16 {
                assert_eq!(decode_value(v), target, "value {v}");
            }
        }
    }

    #[test]
    fn table_ii_row_lossy_high_values() {
        // 1xx0xxxx -> 144, 176, 208, 240
        for (block, target) in [(128u8, 144u8), (160, 176), (192, 208), (224, 240)] {
            for v in block..block + 16 {
                assert_eq!(decode_value(v), target, "value {v}");
            }
        }
    }

    #[test]
    fn table_ii_row_lossless_mid_ranges() {
        for range in [8..=15u8, 32..=47, 64..=79, 96..=111] {
            for v in range {
                assert_eq!(decode_value(v), v);
            }
        }
    }

    #[test]
    fn table_ii_row_lossless_high_ranges() {
        for range in [144..=159u8, 176..=191, 208..=223, 240..=255] {
            for v in range {
                assert_eq!(decode_value(v), v);
            }
        }
    }

    #[test]
    fn nibbles_iterator_lengths() {
        assert_eq!(encode_value(3).nibbles().count(), 1);
        assert_eq!(encode_value(100).nibbles().count(), 2);
    }

    #[test]
    fn long_prev_identifier_always_set() {
        for v in 8u16..=255 {
            match encode_value(v as u8) {
                SparkCode::Long { prev, .. } => assert_eq!(prev & 0b1000, 0b1000),
                SparkCode::Short(_) => panic!("{v} should be long"),
            }
        }
    }

    #[test]
    fn display_renders_binary() {
        assert_eq!(encode_value(5).to_string(), "0101");
        assert_eq!(encode_value(18).to_string(), "1000 1111");
    }

    #[test]
    fn kind_display_and_bits() {
        assert_eq!(CodeKind::Short.to_string(), "short(4b)");
        assert_eq!(CodeKind::Long.to_string(), "long(8b)");
        assert_eq!(CodeKind::Short.nibbles(), 1);
        assert_eq!(CodeKind::Long.nibbles(), 2);
    }

    #[test]
    fn idempotent_reencoding() {
        // Decoded values are representable, so re-encoding them is lossless.
        for v in 0u16..=255 {
            let d = decode_value(v as u8);
            assert_eq!(decode_value(d), d, "decoded value {d} not a fixed point");
        }
    }
}
