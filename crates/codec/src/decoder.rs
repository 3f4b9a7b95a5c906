//! Streaming model of the SPARK decoder (Fig 5, Fig 7, Eq 3).
//!
//! The hardware decoder reads one 4-bit beat per cycle plus an *enable*
//! signal that remembers whether the previous beat was the first half of a
//! long code. It is built from multiplexers, OR and NOT gates only; this
//! module reproduces that finite-state machine faithfully, including the
//! cycle accounting the simulator uses, once for every beat-aligned
//! [`SparkFormat`].

use std::error::Error;
use std::fmt;

use crate::general::{GeneralCode, SparkFormat};
use crate::general_stream::is_aligned;

/// Error returned when a nibble stream is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended while the decoder was waiting for the second nibble
    /// of a long code.
    TruncatedLongCode,
    /// A nibble outside `0..=15` was pushed (caller bug).
    InvalidNibble(u8),
    /// A beat wider than the format's beat width was pushed into a
    /// [`SparkDecoder`] (caller bug or corrupted unpacking).
    InvalidBeat {
        /// The offending beat value.
        beat: u16,
        /// The format's beat width in bits.
        width: u8,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TruncatedLongCode => {
                write!(f, "stream ended inside a long code (enable still set)")
            }
            DecodeError::InvalidNibble(n) => write!(f, "invalid nibble value {n}"),
            DecodeError::InvalidBeat { beat, width } => {
                write!(f, "beat value {beat} does not fit the {width}-bit beat width")
            }
        }
    }
}

impl Error for DecodeError {}

/// The streaming SPARK decoder of Fig 7, for any beat-aligned
/// [`SparkFormat`].
///
/// Each push models one decoder cycle; completed values come back as
/// `Some(value)`. [`SparkDecoder::new`] is the paper's 8/4 instance, fed
/// with [`SparkDecoder::push_nibble`]; [`SparkDecoder::with_format`] runs
/// the same machine at any aligned width, fed with
/// [`SparkDecoder::push_beat`].
///
/// ```
/// use spark_codec::SparkDecoder;
/// let mut dec = SparkDecoder::new();
/// // Paper example: byte 0100 0011 carries two short values, 4 and 3.
/// assert_eq!(dec.push_nibble(0b0100)?, Some(4));
/// assert_eq!(dec.push_nibble(0b0011)?, Some(3));
/// // Paper example: 1101 0010 is the single long value 210.
/// assert_eq!(dec.push_nibble(0b1101)?, None);
/// assert_eq!(dec.push_nibble(0b0010)?, Some(210));
/// # Ok::<(), spark_codec::DecodeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparkDecoder {
    format: SparkFormat,
    /// The prev beat of a long code, waiting for its post beat.
    pending: Option<u16>,
    cycles: u64,
    values_out: u64,
}

impl Default for SparkDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl SparkDecoder {
    /// Creates an 8/4 ([`SparkFormat::PAPER`]) decoder with the enable
    /// signal cleared.
    #[inline]
    pub fn new() -> Self {
        Self::with_format(SparkFormat::PAPER)
    }

    /// Creates a decoder for a beat-aligned format (`base_bits == 2 *
    /// short_bits`), with the enable signal cleared.
    ///
    /// # Panics
    ///
    /// Panics when the format is not two-beat aligned (use the value-level
    /// API for those).
    #[inline]
    pub fn with_format(format: SparkFormat) -> Self {
        assert!(is_aligned(&format), "format {format} is not beat-aligned");
        Self {
            format,
            pending: None,
            cycles: 0,
            values_out: 0,
        }
    }

    /// The enable signal: set while the decoder waits for the post beat of
    /// a long code.
    pub fn enable(&self) -> bool {
        self.pending.is_some()
    }

    /// Consumes one 4-bit beat; returns a completed value when one finishes
    /// this cycle. The `u8` narrowing of [`Self::push_beat`] for the 8/4
    /// decoder of [`Self::new`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidNibble`] if `nibble > 15`, if it does
    /// not fit a narrower format's beat width, or if it would close a long
    /// code wider than 8 bits (one opened through [`Self::push_beat`] on a
    /// wider format). A rejected nibble leaves the decoder untouched.
    #[inline]
    pub fn push_nibble(&mut self, nibble: u8) -> Result<Option<u8>, DecodeError> {
        if nibble > 0x0F || (self.pending.is_some() && self.format.base_bits() > 8) {
            return Err(DecodeError::InvalidNibble(nibble));
        }
        match self.push_beat(u16::from(nibble)) {
            // A short code here is the nibble itself, and a long code one
            // of at most 8 bits, so the narrowing is lossless.
            Ok(value) => Ok(value.map(|v| v as u8)),
            Err(DecodeError::InvalidBeat { .. }) => Err(DecodeError::InvalidNibble(nibble)),
            Err(e) => Err(e),
        }
    }

    /// Consumes one beat; returns a completed value when one finishes this
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidBeat`] when `beat` does not fit the
    /// format's beat width, so corrupted unpacking surfaces as a typed
    /// error instead of silently aliasing a valid beat. A rejected beat
    /// leaves the decoder untouched.
    #[inline]
    pub fn push_beat(&mut self, beat: u16) -> Result<Option<u16>, DecodeError> {
        let h = self.format.short_bits();
        if beat >> h != 0 {
            return Err(DecodeError::InvalidBeat { beat, width: h });
        }
        self.cycles += 1;
        let code = match self.pending.take() {
            // EN = 1: this beat is the post part of a high-precision value.
            Some(prev) => GeneralCode::Long { prev, post: beat },
            // Low-precision value (identifier clear): output directly.
            None if beat >> (h - 1) == 0 => GeneralCode::Short(beat),
            // High-precision: remember prev, set enable.
            None => {
                self.pending = Some(beat);
                return Ok(None);
            }
        };
        self.values_out += 1;
        Ok(Some(self.format.decode(code)))
    }

    /// Declares the stream finished.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TruncatedLongCode`] when a long code was left
    /// half-read.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.enable() {
            Err(DecodeError::TruncatedLongCode)
        } else {
            Ok(())
        }
    }

    /// Cycles consumed so far (one per accepted beat — the decoder reads
    /// one beat per cycle).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Values emitted so far.
    pub fn values_decoded(&self) -> u64 {
        self.values_out
    }

    /// Clears all state and counters, keeping the format.
    pub fn reset(&mut self) {
        *self = Self::with_format(self.format);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_value, SparkCode};

    #[test]
    fn decoder_round_trips_every_byte() {
        let mut dec = SparkDecoder::new();
        for v in 0u16..=255 {
            let v = v as u8;
            let code = encode_value(v);
            let mut out = None;
            for nib in code.nibbles() {
                out = dec.push_nibble(nib).unwrap();
            }
            assert_eq!(out, Some(code.decode()), "value {v}");
        }
        dec.finish().unwrap();
    }

    #[test]
    fn enable_signal_tracks_long_codes() {
        let mut dec = SparkDecoder::new();
        assert!(!dec.enable());
        dec.push_nibble(0b1010).unwrap(); // long prev
        assert!(dec.enable());
        dec.push_nibble(0b0000).unwrap(); // post
        assert!(!dec.enable());
    }

    #[test]
    fn truncated_stream_detected() {
        let mut dec = SparkDecoder::new();
        dec.push_nibble(0b1000).unwrap();
        assert_eq!(dec.finish(), Err(DecodeError::TruncatedLongCode));
    }

    #[test]
    fn invalid_nibble_rejected() {
        let mut dec = SparkDecoder::new();
        assert_eq!(dec.push_nibble(16), Err(DecodeError::InvalidNibble(16)));
    }

    #[test]
    fn cycle_accounting_one_per_nibble() {
        let mut dec = SparkDecoder::new();
        // one short (1 cycle) + one long (2 cycles)
        dec.push_nibble(0b0001).unwrap();
        for nib in SparkCode::encode(100).nibbles() {
            dec.push_nibble(nib).unwrap();
        }
        assert_eq!(dec.cycles(), 3);
        assert_eq!(dec.values_decoded(), 2);
    }

    #[test]
    fn mixed_stream_paper_order() {
        // Values interleave short and long codes without resynchronization.
        let values = [5u8, 210, 3, 15, 176];
        let mut nibbles = Vec::new();
        for &v in &values {
            nibbles.extend(encode_value(v).nibbles());
        }
        let mut dec = SparkDecoder::new();
        let mut out = Vec::new();
        for nib in nibbles {
            if let Some(v) = dec.push_nibble(nib).unwrap() {
                out.push(v);
            }
        }
        dec.finish().unwrap();
        assert_eq!(out, vec![5, 210, 3, 15, 176]);
    }

    #[test]
    fn reset_clears_state() {
        let mut dec = SparkDecoder::new();
        dec.push_nibble(0b1000).unwrap();
        dec.reset();
        assert!(!dec.enable());
        assert_eq!(dec.cycles(), 0);
        assert_eq!(dec.values_decoded(), 0);
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::TruncatedLongCode.to_string().contains("long code"));
        assert!(DecodeError::InvalidNibble(20).to_string().contains("20"));
    }
}
