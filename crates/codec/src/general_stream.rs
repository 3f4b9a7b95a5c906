//! Beat-aligned streaming for any [`SparkFormat`].
//!
//! The paper's memory-alignment property — every code is one or two
//! fixed-width beats — holds exactly for the formats with
//! `base_bits == 2 * short_bits` (8/4, 12/6, 16/8, 6/3). For those, this
//! module packs code words into a [`BeatStream`] of any beat width and
//! decodes one through the same Fig 7 FSM the nibble path uses
//! ([`SparkDecoder::with_format`]). The paper's packed 8/4 storage is the
//! byte-oriented [`crate::NibbleStream`]; a test pins the two packings of
//! [`SparkFormat::PAPER`] to each other beat for beat.

use crate::decoder::{DecodeError, SparkDecoder};
use crate::general::{GeneralCode, SparkFormat};

/// Whether a format streams with two-beat alignment.
pub fn is_aligned(format: &SparkFormat) -> bool {
    format.base_bits() == 2 * format.short_bits()
}

/// A bit-packed stream of fixed-width beats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeatStream {
    bits: Vec<u8>,
    beat_bits: u8,
    len: usize,
}

impl BeatStream {
    /// Creates an empty stream of `beat_bits`-wide beats (1..=16).
    ///
    /// # Panics
    ///
    /// Panics for beat widths outside `1..=16`.
    pub fn new(beat_bits: u8) -> Self {
        assert!((1..=16).contains(&beat_bits), "beat width out of range");
        Self {
            bits: Vec::new(),
            beat_bits,
            len: 0,
        }
    }

    /// Beat width in bits.
    pub fn beat_bits(&self) -> u8 {
        self.beat_bits
    }

    /// Number of beats stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no beats.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Packed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Appends one beat (low `beat_bits` of `beat`).
    pub fn push(&mut self, beat: u16) {
        let mask = if self.beat_bits == 16 {
            u16::MAX
        } else {
            (1u16 << self.beat_bits) - 1
        };
        let beat = beat & mask;
        let start = self.len * self.beat_bits as usize;
        let end = start + self.beat_bits as usize;
        if self.bits.len() * 8 < end {
            self.bits.resize(end.div_ceil(8), 0);
        }
        for i in 0..self.beat_bits as usize {
            // MSB-first within the beat, bits packed densely.
            let bit = (beat >> (self.beat_bits as usize - 1 - i)) & 1;
            if bit == 1 {
                let pos = start + i;
                self.bits[pos / 8] |= 1 << (7 - pos % 8);
            }
        }
        self.len += 1;
    }

    /// Beat at index `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<u16> {
        if i >= self.len {
            return None;
        }
        let start = i * self.beat_bits as usize;
        let mut out = 0u16;
        for k in 0..self.beat_bits as usize {
            let pos = start + k;
            let bit = (self.bits[pos / 8] >> (7 - pos % 8)) & 1;
            out = (out << 1) | u16::from(bit);
        }
        Some(out)
    }

    /// Iterates the beats in order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.len).map(move |i| self.get(i).expect("in range"))
    }
}

/// Encodes values into a packed beat stream under an aligned format.
///
/// # Panics
///
/// Panics when the format is unaligned or a value exceeds its range.
pub fn encode_general(format: &SparkFormat, values: &[u16]) -> BeatStream {
    assert!(is_aligned(format), "format {format} is not beat-aligned");
    let mut stream = BeatStream::new(format.short_bits());
    for &v in values {
        match format.encode(v) {
            GeneralCode::Short(s) => stream.push(s),
            GeneralCode::Long { prev, post } => {
                stream.push(prev);
                stream.push(post);
            }
        }
    }
    stream
}

/// Decodes a packed beat stream.
///
/// # Errors
///
/// Returns [`DecodeError::TruncatedLongCode`] for half-read long codes and
/// [`DecodeError::InvalidBeat`] for beats outside the format's width.
pub fn decode_general(format: &SparkFormat, stream: &BeatStream) -> Result<Vec<u16>, DecodeError> {
    let mut dec = SparkDecoder::with_format(*format);
    let mut out = Vec::new();
    for beat in stream.iter() {
        if let Some(v) = dec.push_beat(beat)? {
            out.push(v);
        }
    }
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_stream, encode_tensor};

    #[test]
    fn beat_stream_packs_arbitrary_widths() {
        for width in [3u8, 4, 6, 8, 11, 16] {
            let mut s = BeatStream::new(width);
            let mask = if width == 16 { u16::MAX } else { (1 << width) - 1 };
            let beats: Vec<u16> = (0..50u16).map(|i| i.wrapping_mul(2654) & mask).collect();
            for &b in &beats {
                s.push(b);
            }
            assert_eq!(s.len(), 50);
            for (i, &b) in beats.iter().enumerate() {
                assert_eq!(s.get(i), Some(b), "width {width}, beat {i}");
            }
            assert_eq!(s.get(50), None);
            // Packed density: ceil(50 * width / 8) bytes.
            assert_eq!(s.byte_len(), (50 * width as usize).div_ceil(8));
        }
    }

    #[test]
    fn aligned_formats_identified() {
        assert!(is_aligned(&SparkFormat::new(8, 4).unwrap()));
        assert!(is_aligned(&SparkFormat::new(16, 8).unwrap()));
        assert!(is_aligned(&SparkFormat::new(6, 3).unwrap()));
        assert!(!is_aligned(&SparkFormat::new(10, 4).unwrap()));
    }

    #[test]
    fn round_trip_all_aligned_formats() {
        for (base, short) in [(6u8, 3u8), (8, 4), (12, 6), (16, 8)] {
            let fmt = SparkFormat::new(base, short).unwrap();
            let values: Vec<u16> = (0..500u32)
                .map(|i| (i.wrapping_mul(2654435761) % (u32::from(fmt.max_value()) + 1)) as u16)
                .collect();
            let stream = encode_general(&fmt, &values);
            let decoded = decode_general(&fmt, &stream).unwrap();
            assert_eq!(decoded.len(), values.len());
            for (&v, &d) in values.iter().zip(&decoded) {
                assert_eq!(d, fmt.reconstruct(v), "{fmt}: {v}");
            }
        }
    }

    #[test]
    fn general_8_4_matches_specialized_nibble_stream() {
        let fmt = SparkFormat::PAPER;
        let values: Vec<u8> = (0u16..=255).map(|v| v as u8).collect();
        let values16: Vec<u16> = values.iter().map(|&v| u16::from(v)).collect();
        let general = encode_general(&fmt, &values16);
        let specialized = encode_tensor(&values);
        // Same beat sequence...
        assert_eq!(general.len(), specialized.stream.len());
        for (a, b) in general.iter().zip(specialized.stream.iter()) {
            assert_eq!(a, u16::from(b));
        }
        // ...and same decoded values.
        let dg = decode_general(&fmt, &general).unwrap();
        let ds = decode_stream(&specialized.stream).unwrap();
        assert_eq!(dg.len(), ds.len());
        for (a, b) in dg.iter().zip(&ds) {
            assert_eq!(*a, u16::from(*b));
        }
    }

    #[test]
    fn truncated_general_stream_detected() {
        let fmt = SparkFormat::new(12, 6).unwrap();
        let mut s = BeatStream::new(6);
        s.push(0b100000); // long prev only
        assert!(decode_general(&fmt, &s).is_err());
    }

    #[test]
    #[should_panic(expected = "not beat-aligned")]
    fn unaligned_format_rejected() {
        let fmt = SparkFormat::new(10, 4).unwrap();
        let _ = encode_general(&fmt, &[1]);
    }

    #[test]
    fn compression_ratio_scales_with_format() {
        // Mostly-small values: the stream approaches half the base width.
        let fmt = SparkFormat::new(16, 8).unwrap();
        let values: Vec<u16> = (0..1000).map(|i| (i % 100) as u16).collect();
        let stream = encode_general(&fmt, &values);
        let bits = stream.byte_len() * 8;
        assert!(bits < values.len() * 10, "bits {bits}");
    }
}
