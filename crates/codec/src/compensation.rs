//! The accuracy compensation mechanism (CM) and tensor-level bias
//! correction.
//!
//! The paper's Section III-B introduces CM as the check-bit rounding rule
//! that steers every lossy value to the *nearest* representable boundary
//! instead of simply dropping bits. Fig 13 ablates it; [`EncodeMode`] makes
//! both variants available. On top of the per-value rule, [`bias_correction`]
//! recentres the dequantization so the mean encoding error does not shift a
//! layer's output distribution — the "hardware-friendly accuracy recovery
//! without finetuning" the paper claims.


use crate::code::{encode_value, SparkCode};

/// How a raw byte is turned into a SPARK code word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EncodeMode {
    /// The paper's encoding: check-bit (`b0 XOR b3`) rounding to the nearest
    /// representable boundary. Expected absolute error ≈ half the truncation
    /// error; maximum 16.
    #[default]
    Compensated,
    /// Naive variable-length encoding without the compensation mechanism:
    /// the low nibble is stored verbatim and the `b3` information is simply
    /// lost. Every lossy value errs by exactly 16. Used as the "w/o CM" arm
    /// of the Fig 13 ablation.
    Truncated,
}

impl EncodeMode {
    /// Encodes one byte under this mode.
    pub fn encode(self, value: u8) -> SparkCode {
        match self {
            EncodeMode::Compensated => encode_value(value),
            EncodeMode::Truncated => encode_truncated(value),
        }
    }

    /// Round-trips one byte (encode then decode).
    pub fn reconstruct(self, value: u8) -> u8 {
        self.encode(value).decode()
    }
}

/// Encoding without CM: prev nibble as in Eq 4, post nibble always the raw
/// low nibble. The decoder is unchanged, so for every value whose check bits
/// disagree the reconstructed value is off by exactly 16 (the weight of the
/// dropped/ghosted `b3` bit).
fn encode_truncated(value: u8) -> SparkCode {
    match encode_value(value) {
        SparkCode::Long { prev, .. } => SparkCode::Long {
            prev,
            post: value & 0x0F,
        },
        short => short,
    }
}

/// Computes the mean signed reconstruction error of a tensor under `mode`,
/// in code-word units.
///
/// A dequantizer subtracts `scale * bias` from its zero-point (or
/// equivalently shifts the layer bias) to cancel the distribution shift the
/// encoding introduces. Returns 0 for empty input.
///
/// ```
/// use spark_codec::{bias_correction, EncodeMode};
/// // Values in [16, 31] all round down to 15 under SPARK:
/// let values: Vec<u8> = (16..=31).collect();
/// let bias = bias_correction(&values, EncodeMode::Compensated);
/// assert!(bias < 0.0); // reconstruction is below the original on average
/// ```
pub fn bias_correction(values: &[u8], mode: EncodeMode) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: i64 = values
        .iter()
        .map(|&v| i64::from(mode.reconstruct(v)) - i64::from(v))
        .sum();
    sum as f64 / values.len() as f64
}

/// Mean absolute reconstruction error of a tensor under `mode`, in code-word
/// units. Returns 0 for empty input.
pub fn mean_abs_error(values: &[u8], mode: EncodeMode) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: i64 = values
        .iter()
        .map(|&v| (i64::from(mode.reconstruct(v)) - i64::from(v)).abs())
        .sum();
    sum as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::bit;

    #[test]
    fn truncated_error_is_exactly_16_when_lossy() {
        for v in 0u16..=255 {
            let v = v as u8;
            let r = EncodeMode::Truncated.reconstruct(v);
            let err = (i16::from(r) - i16::from(v)).abs();
            let check_disagrees = v >= 8 && bit(v, 0) != bit(v, 3);
            if check_disagrees {
                assert_eq!(err, 16, "value {v} reconstructed to {r}");
            } else {
                assert_eq!(err, 0, "value {v} reconstructed to {r}");
            }
        }
    }

    #[test]
    fn compensated_never_worse_than_truncated() {
        for v in 0u16..=255 {
            let v = v as u8;
            let ec = (i16::from(EncodeMode::Compensated.reconstruct(v)) - i16::from(v)).abs();
            let et = (i16::from(EncodeMode::Truncated.reconstruct(v)) - i16::from(v)).abs();
            assert!(ec <= et, "value {v}: CM error {ec} > truncated {et}");
        }
    }

    #[test]
    fn compensated_mean_abs_error_strictly_lower_overall() {
        let all: Vec<u8> = (0u16..=255).map(|v| v as u8).collect();
        let cm = mean_abs_error(&all, EncodeMode::Compensated);
        let tr = mean_abs_error(&all, EncodeMode::Truncated);
        assert!(cm < tr, "CM {cm} should beat truncation {tr}");
    }

    #[test]
    fn bias_correction_of_lossless_data_is_zero() {
        let values: Vec<u8> = (0..8).collect();
        assert_eq!(bias_correction(&values, EncodeMode::Compensated), 0.0);
    }

    #[test]
    fn bias_correction_sign_matches_rounding_direction() {
        // Mid-range lossy values round down -> negative bias.
        let mid: Vec<u8> = (16..=31).collect();
        assert!(bias_correction(&mid, EncodeMode::Compensated) < 0.0);
        // High lossy values round up -> positive bias.
        let high: Vec<u8> = (128..=143).collect();
        assert!(bias_correction(&high, EncodeMode::Compensated) > 0.0);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(bias_correction(&[], EncodeMode::Compensated), 0.0);
        assert_eq!(mean_abs_error(&[], EncodeMode::Truncated), 0.0);
    }

    #[test]
    fn default_mode_is_compensated() {
        assert_eq!(EncodeMode::default(), EncodeMode::Compensated);
    }

    #[test]
    fn truncated_short_codes_unchanged() {
        for v in 0u8..8 {
            assert_eq!(EncodeMode::Truncated.reconstruct(v), v);
        }
    }
}
