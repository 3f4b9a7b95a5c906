//! The SPARK code rule, defined once for every `(base, short)` width.
//!
//! The paper presents SPARK for INT8 with 4-bit short codes, and stresses
//! scalability ("for a model quantized to 8-bit, the basic bit length
//! remains constant at 4"). The same construction works for any
//! `(base_bits, short_bits)` pair: a value whose top `base - short + 1`
//! bits are zero takes the short code; everything else takes a full-width
//! code whose last prev-bit carries `b0`, with the check-bit rounding rule
//! generalized verbatim. This module is the crate's only statement of
//! that rule: [`crate::encode_value`], [`crate::SparkCode::decode`] and
//! the Fig 7 FSM narrow its [`SparkFormat::PAPER`] instance to `u8`, and
//! the gate-level Fig 10 encoder stays the independent oracle for it.
//!
//! Useful instances:
//!
//! - [`SparkFormat::PAPER`] (`SPARK-8/4`) — the paper (error ≤ 16 of 255);
//! - `SparkFormat::new(16, 8)` — INT16 models (error ≤ 256 of 65535);
//! - `SparkFormat::new(6, 3)` — aggressive 6-bit quantization.

use std::fmt;

use crate::code::SparkCode;
use crate::codecheck::FormatError;

/// A generalized SPARK code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GeneralCode {
    /// Short code: `short_bits` wide, identifier 0.
    Short(u16),
    /// Long code: `base_bits` wide, split into the identifier-led prev part
    /// and the post part.
    Long {
        /// First `short_bits` of the code (identifier set).
        prev: u16,
        /// Remaining `base_bits - short_bits` bits.
        post: u16,
    },
}

impl GeneralCode {
    /// Code length in bits under the given format.
    pub fn bits(&self, format: &SparkFormat) -> u8 {
        match self {
            GeneralCode::Short(_) => format.short_bits(),
            GeneralCode::Long { .. } => format.base_bits(),
        }
    }
}

/// A `(base_bits, short_bits)` SPARK format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparkFormat {
    base_bits: u8,
    short_bits: u8,
}

impl SparkFormat {
    /// Creates a format.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] unless `3 <= short_bits < base_bits <= 16`.
    pub fn new(base_bits: u8, short_bits: u8) -> Result<Self, FormatError> {
        if !(3..=15).contains(&short_bits) || short_bits >= base_bits || base_bits > 16 {
            return Err(FormatError::new(base_bits, short_bits));
        }
        Ok(Self {
            base_bits,
            short_bits,
        })
    }

    /// The paper's 8/4 format.
    pub const PAPER: Self = Self {
        base_bits: 8,
        short_bits: 4,
    };

    /// Total width of a long code (= the quantization width).
    pub fn base_bits(&self) -> u8 {
        self.base_bits
    }

    /// Width of a short code.
    pub fn short_bits(&self) -> u8 {
        self.short_bits
    }

    /// Largest representable value (`2^base - 1`).
    pub fn max_value(&self) -> u16 {
        if self.base_bits == 16 {
            u16::MAX
        } else {
            (1u16 << self.base_bits) - 1
        }
    }

    /// Exclusive upper bound of the short-code range (`2^(short-1)`).
    pub fn short_range(&self) -> u16 {
        1u16 << (self.short_bits - 1)
    }

    /// Worst-case encoding error (`2^(base - short)`).
    pub fn max_error(&self) -> u16 {
        1u16 << (self.base_bits - self.short_bits)
    }

    /// Bit `i` of `v` in the paper's MSB-first numbering.
    fn bit(&self, v: u16, i: u8) -> u16 {
        (v >> (self.base_bits - 1 - i)) & 1
    }

    /// Encodes one value.
    ///
    /// # Panics
    ///
    /// Panics when `value` exceeds [`SparkFormat::max_value`] (the
    /// quantizer guarantees the range; exceeding it is a caller bug).
    #[inline]
    pub fn encode(&self, value: u16) -> GeneralCode {
        assert!(
            value <= self.max_value(),
            "value {value} exceeds {}-bit range",
            self.base_bits
        );
        if value < self.short_range() {
            return GeneralCode::Short(value);
        }
        let h = self.short_bits;
        let b0 = self.bit(value, 0);
        let check = self.bit(value, h - 1);
        // prev = 1, b1..b_{h-2}, b0
        let mut prev = 1u16 << (h - 1);
        for i in 1..=(h - 2) {
            prev |= self.bit(value, i) << (h - 1 - i);
        }
        prev |= b0;
        let post_bits = self.base_bits - h;
        let post_mask = (1u32 << post_bits) as u16 - 1;
        let post = if b0 == check {
            value & post_mask
        } else if check == 1 {
            post_mask
        } else {
            0
        };
        GeneralCode::Long { prev, post }
    }

    /// Decodes one code word.
    #[inline]
    pub fn decode(&self, code: GeneralCode) -> u16 {
        match code {
            GeneralCode::Short(v) => v,
            GeneralCode::Long { prev, post } => {
                let h = self.short_bits;
                let post_bits = self.base_bits - h;
                let c_last = prev & 1; // carries b0
                let mid_bits = h - 2;
                let mid = (prev >> 1) & (((1u32 << mid_bits) as u16).wrapping_sub(1));
                let mut value = (mid as u32) << (post_bits + 1) | u32::from(post);
                if c_last == 1 {
                    value |= 1 << (self.base_bits - 1); // identifier as MSB
                    value |= 1 << post_bits; // the implied check bit
                }
                value as u16
            }
        }
    }

    /// Round trip: the reconstructed value.
    pub fn reconstruct(&self, value: u16) -> u16 {
        self.decode(self.encode(value))
    }

    /// Whether a value round-trips exactly.
    pub fn is_lossless(&self, value: u16) -> bool {
        self.reconstruct(value) == value
    }

    /// Average code bits for a slice of values.
    pub fn avg_bits(&self, values: &[u16]) -> f64 {
        if values.is_empty() {
            return f64::from(self.base_bits);
        }
        let total: u64 = values
            .iter()
            .map(|&v| u64::from(self.encode(v).bits(self)))
            .sum();
        total as f64 / values.len() as f64
    }

    /// Fraction of values taking the short code.
    pub fn short_fraction(&self, values: &[u16]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let short = values.iter().filter(|&&v| v < self.short_range()).count();
        short as f64 / values.len() as f64
    }
}

impl fmt::Display for SparkFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPARK-{}/{}", self.base_bits, self.short_bits)
    }
}

/// Widens an 8/4 code word into the general representation, keeping only
/// the bits a 4-bit beat holds (a short code's identifier is always 0).
impl From<SparkCode> for GeneralCode {
    fn from(code: SparkCode) -> Self {
        match code {
            SparkCode::Short(n) => GeneralCode::Short(u16::from(n & 0x07)),
            SparkCode::Long { prev, post } => GeneralCode::Long {
                prev: u16::from(prev & 0x0F),
                post: u16::from(post & 0x0F),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_validation() {
        assert!(SparkFormat::new(8, 4).is_ok());
        assert!(SparkFormat::new(16, 8).is_ok());
        assert!(SparkFormat::new(6, 3).is_ok());
        assert!(SparkFormat::new(4, 4).is_err()); // short == base
        assert!(SparkFormat::new(17, 8).is_err()); // too wide
        assert!(SparkFormat::new(8, 2).is_err()); // short too narrow
    }

    #[test]
    fn error_bound_holds_for_every_format_and_value() {
        for (base, short) in [(6u8, 3u8), (8, 4), (8, 5), (10, 4), (12, 6), (16, 8)] {
            let fmt = SparkFormat::new(base, short).unwrap();
            let bound = i32::from(fmt.max_error());
            let step = (u32::from(fmt.max_value()) / 4096).max(1);
            let mut v = 0u32;
            while v <= u32::from(fmt.max_value()) {
                let r = fmt.reconstruct(v as u16);
                let err = (i32::from(r) - v as i32).abs();
                assert!(err <= bound, "{fmt}: {v} -> {r} (err {err} > {bound})");
                v += step;
            }
        }
    }

    #[test]
    fn short_codes_lossless_in_all_formats() {
        for (base, short) in [(6u8, 3u8), (8, 4), (12, 6), (16, 8)] {
            let fmt = SparkFormat::new(base, short).unwrap();
            for v in 0..fmt.short_range() {
                assert_eq!(fmt.reconstruct(v), v, "{fmt}: {v}");
                assert!(matches!(fmt.encode(v), GeneralCode::Short(_)));
            }
        }
    }

    #[test]
    fn check_bit_agreement_means_lossless() {
        for (base, short) in [(6u8, 3u8), (10, 5), (16, 8)] {
            let fmt = SparkFormat::new(base, short).unwrap();
            let step = (u32::from(fmt.max_value()) / 2048).max(1);
            let mut v = u32::from(fmt.short_range());
            while v <= u32::from(fmt.max_value()) {
                let vv = v as u16;
                let b0 = (vv >> (base - 1)) & 1;
                let chk = (vv >> (base - short)) & 1;
                if b0 == chk {
                    assert!(fmt.is_lossless(vv), "{fmt}: {vv}");
                }
                v += step;
            }
        }
    }

    #[test]
    fn decode_is_projection_in_all_formats() {
        for (base, short) in [(6u8, 3u8), (8, 4), (16, 8)] {
            let fmt = SparkFormat::new(base, short).unwrap();
            let step = (u32::from(fmt.max_value()) / 1024).max(1);
            let mut v = 0u32;
            while v <= u32::from(fmt.max_value()) {
                let r = fmt.reconstruct(v as u16);
                assert_eq!(fmt.reconstruct(r), r, "{fmt}: {v}");
                v += step;
            }
        }
    }

    #[test]
    fn spark16_exhaustive_error_bound() {
        // Full 16-bit sweep: 65k encodes is cheap and pins the widest
        // format completely.
        let fmt = SparkFormat::new(16, 8).unwrap();
        let mut max_err = 0i32;
        for v in 0..=u16::MAX {
            let r = fmt.reconstruct(v);
            max_err = max_err.max((i32::from(r) - i32::from(v)).abs());
        }
        assert_eq!(max_err, i32::from(fmt.max_error()));
    }

    #[test]
    fn avg_bits_and_short_fraction() {
        let fmt = SparkFormat::new(8, 4).unwrap();
        let values = vec![1u16, 2, 3, 200]; // 3 short + 1 long
        assert_eq!(fmt.short_fraction(&values), 0.75);
        assert_eq!(fmt.avg_bits(&values), 5.0);
        assert_eq!(fmt.avg_bits(&[]), 8.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(SparkFormat::PAPER.to_string(), "SPARK-8/4");
        assert_eq!(SparkFormat::new(8, 4).unwrap(), SparkFormat::PAPER);
        assert_eq!(SparkFormat::new(16, 8).unwrap().to_string(), "SPARK-16/8");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn encode_rejects_out_of_range() {
        let fmt = SparkFormat::new(6, 3).unwrap();
        let _ = fmt.encode(64);
    }

    #[test]
    fn wider_short_codes_trade_error_for_bits() {
        // At the same base width, a wider short code covers more values
        // losslessly but saves fewer bits.
        let narrow = SparkFormat::new(8, 4).unwrap();
        let wide = SparkFormat::new(8, 5).unwrap();
        assert!(wide.short_range() > narrow.short_range());
        assert!(wide.max_error() < narrow.max_error());
    }
}
