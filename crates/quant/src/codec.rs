//! The [`Codec`] trait every compression scheme implements, and the shared
//! error type.

use spark_codec::CodecVariant;
use spark_tensor::{quantize, stats, Tensor};
use std::error::Error;
use std::fmt;

/// Error produced by quantizers and codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// Requested bit-width outside the supported range.
    UnsupportedBits(u8),
    /// Input contained NaN or infinity.
    NonFiniteInput,
    /// Configuration parameter out of range.
    BadConfig(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedBits(b) => write!(f, "unsupported bit-width {b}"),
            QuantError::NonFiniteInput => write!(f, "input tensor contains non-finite values"),
            QuantError::BadConfig(msg) => write!(f, "bad codec configuration: {msg}"),
        }
    }
}

impl Error for QuantError {}

/// Output of compressing a tensor with a [`Codec`].
#[derive(Debug, Clone, PartialEq)]
pub struct CodecResult {
    /// The values the accelerator would actually compute with.
    pub reconstructed: Tensor,
    /// Storage cost in bits per element, including all index/metadata
    /// overhead the scheme needs.
    pub avg_bits: f64,
    /// Fraction of elements held in the scheme's low-precision form
    /// (1.0 for fixed-width schemes at their base width).
    pub low_precision_fraction: f64,
}

impl CodecResult {
    /// Mean squared reconstruction error against the original.
    ///
    /// # Panics
    ///
    /// Panics when `original` has a different length (caller bug).
    pub fn mse(&self, original: &Tensor) -> f64 {
        stats::mse(original, &self.reconstructed)
    }

    /// Signal-to-quantization-noise ratio in dB against the original.
    pub fn sqnr_db(&self, original: &Tensor) -> f64 {
        stats::sqnr_db(original, &self.reconstructed)
    }
}

/// A lossy tensor compression scheme.
///
/// Implementations quantize/encode an FP32 tensor with their own internal
/// representation and return the dequantized reconstruction plus its storage
/// cost. This is the single interface the accuracy experiments (Tables III,
/// IV, V; Fig 13) sweep over.
pub trait Codec {
    /// Human-readable scheme name (used in experiment tables).
    fn name(&self) -> String;

    /// Compresses a tensor and reports the reconstruction and storage cost.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteInput`] when the tensor contains NaN
    /// or infinite values, or a scheme-specific configuration error.
    fn compress(&self, tensor: &Tensor) -> Result<CodecResult, QuantError>;
}

/// Validates that every element is finite; shared by all codecs. Runs
/// the encode front end's abs-max kernel, whose result is finite exactly
/// when every element is.
pub(crate) fn check_finite(t: &Tensor) -> Result<(), QuantError> {
    quantize::finite_abs_max(CodecVariant::detect(), t.as_slice())
        .map(|_| ())
        .ok_or(QuantError::NonFiniteInput)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(QuantError::UnsupportedBits(3).to_string().contains('3'));
        assert!(QuantError::NonFiniteInput.to_string().contains("non-finite"));
        assert!(QuantError::BadConfig("x".into()).to_string().contains('x'));
    }

    #[test]
    fn check_finite_detects_nan_and_inf() {
        let ok = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert!(check_finite(&ok).is_ok());
        let nan = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(check_finite(&nan).is_err());
        let inf = Tensor::from_vec(vec![f32::INFINITY], &[1]).unwrap();
        assert!(check_finite(&inf).is_err());
    }

    #[test]
    fn codec_result_metrics() {
        let orig = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let r = CodecResult {
            reconstructed: orig.clone(),
            avg_bits: 8.0,
            low_precision_fraction: 1.0,
        };
        assert_eq!(r.mse(&orig), 0.0);
        assert_eq!(r.sqnr_db(&orig), f64::INFINITY);
    }
}
