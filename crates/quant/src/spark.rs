//! SPARK as a [`Codec`]: the INT8 sign-magnitude front-end followed by the
//! variable-length encoding from `spark-codec`.

use spark_codec::{CodeStats, EncodeMode, SparkCode};
use spark_tensor::Tensor;

use crate::codec::{Codec, CodecResult, QuantError};
use crate::params::{MagnitudeCodes, MagnitudeQuantizer};

/// The paper's scheme end to end: per-tensor INT8 quantization, SPARK
/// encoding with the compensation mechanism, optional tensor-level bias
/// correction.
///
/// ```
/// use spark_quant::{Codec, SparkCodec};
/// use spark_tensor::Tensor;
/// // A long-tailed tensor: body near zero, a few large outliers.
/// let data: Vec<f32> = (0..256).map(|i| if i % 64 == 0 { 1.0 } else { 0.002 * (i % 8) as f32 }).collect();
/// let t = Tensor::from_vec(data, &[256])?;
/// let r = SparkCodec::default().compress(&t)?;
/// assert!(r.avg_bits < 6.0); // the body takes 4-bit short codes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkCodec {
    /// Encoding mode (compensated = the paper's default; truncated = the
    /// Fig 13 "w/o CM" ablation arm).
    pub mode: EncodeMode,
    /// Apply tensor-level bias correction to the reconstruction.
    pub bias_correct: bool,
    /// Bit-width of the quantization front-end (the paper uses 8).
    pub base_bits: u8,
}

impl Default for SparkCodec {
    fn default() -> Self {
        Self {
            mode: EncodeMode::Compensated,
            bias_correct: true,
            base_bits: 8,
        }
    }
}

impl SparkCodec {
    /// The paper's configuration (compensated, bias-corrected, INT8 base).
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables the compensation mechanism (Fig 13 ablation).
    pub fn without_compensation(mut self) -> Self {
        self.mode = EncodeMode::Truncated;
        self
    }

    /// Disables the tensor-level bias correction.
    pub fn without_bias_correction(mut self) -> Self {
        self.bias_correct = false;
        self
    }

    /// Encodes a tensor and additionally returns the code statistics
    /// (short/lossless fractions) the characterization figures need.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::compress`].
    pub fn compress_with_stats(
        &self,
        tensor: &Tensor,
    ) -> Result<(CodecResult, CodeStats), QuantError> {
        let quantizer = MagnitudeQuantizer::new(self.base_bits)?;
        let codes = quantizer.quantize(tensor)?;
        self.compress_codes(tensor, &codes)
    }

    /// The encoding half of [`Self::compress_with_stats`], over `codes`
    /// already quantized from `tensor` — for callers that need the codes
    /// themselves too, so the tensor is quantized once.
    ///
    /// A code is one byte, so its SPARK round trip is computed once per
    /// possible code and the statistics fold over the 256-bin code
    /// histogram; every statistic is an integer sum or maximum and every
    /// value goes through the same dequantization, so this equals a
    /// per-value encode, record and decode to the bit.
    ///
    /// # Errors
    ///
    /// [`QuantError::BadConfig`] when `codes` does not hold one code and
    /// one sign per element of `tensor`.
    pub fn compress_codes(
        &self,
        tensor: &Tensor,
        codes: &MagnitudeCodes,
    ) -> Result<(CodecResult, CodeStats), QuantError> {
        if codes.codes.len() != tensor.len() || codes.signs.len() != tensor.len() {
            return Err(QuantError::BadConfig(format!(
                "{} codes and {} signs for {} elements",
                codes.codes.len(),
                codes.signs.len(),
                tensor.len()
            )));
        }
        let spark: [SparkCode; 256] = std::array::from_fn(|c| self.mode.encode(c as u8));
        let mut hist = [0u64; 256];
        for &c in &codes.codes {
            hist[c as usize] += 1;
        }
        let mut stats = CodeStats::new();
        for (c, (&code, &count)) in spark.iter().zip(&hist).enumerate() {
            stats.record_n(c as u8, code, count);
        }
        let decoded: [u8; 256] = std::array::from_fn(|c| spark[c].decode());
        let mut reconstructed = codes.dequantize_mapped(&decoded, tensor.dims())?;
        if self.bias_correct && !tensor.is_empty() {
            // End-to-end magnitude shift (quantization + encoding): a single
            // per-tensor scalar, folded into the dequantization scale in
            // hardware. Computed offline for weights, from calibration for
            // activations.
            let shift = tensor
                .as_slice()
                .iter()
                .zip(reconstructed.as_slice())
                .map(|(&a, &b)| (a.abs() - b.abs()) as f64)
                .sum::<f64>() as f32
                / tensor.len() as f32;
            let signs = &codes.signs;
            let data = reconstructed.as_mut_slice();
            for (v, &neg) in data.iter_mut().zip(signs) {
                if neg {
                    *v -= shift;
                } else {
                    *v += shift;
                }
            }
        }
        let result = CodecResult {
            reconstructed,
            avg_bits: stats.avg_bits(),
            low_precision_fraction: stats.short_fraction(),
        };
        Ok((result, stats))
    }

    /// Computes the code statistics alone — same counts as
    /// [`Self::compress_with_stats`], but without materializing the code
    /// words, the decoded stream, or the reconstructed tensor. This is the
    /// pass the perf model uses to measure precision profiles, where only
    /// the short/long fractions matter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Codec::compress`].
    pub fn code_stats(&self, tensor: &Tensor) -> Result<CodeStats, QuantError> {
        let quantizer = MagnitudeQuantizer::new(self.base_bits)?;
        let mut stats = CodeStats::new();
        quantizer.for_each_code(tensor, |c| stats.record(c, self.mode.encode(c)))?;
        Ok(stats)
    }
}

impl Codec for SparkCodec {
    fn name(&self) -> String {
        match (self.mode, self.bias_correct) {
            (EncodeMode::Compensated, true) => "SPARK".to_string(),
            (EncodeMode::Compensated, false) => "SPARK-noBC".to_string(),
            (EncodeMode::Truncated, _) => "SPARK-noCM".to_string(),
        }
    }

    fn compress(&self, tensor: &Tensor) -> Result<CodecResult, QuantError> {
        self.compress_with_stats(tensor).map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniform::UniformQuantizer;

    /// A long-tailed test tensor: dense Gaussian-ish body + sparse outliers,
    /// the shape the paper observes in DNN layers.
    fn long_tail_tensor(n: usize) -> Tensor {
        let data: Vec<f32> = (0..n)
            .map(|i| {
                // deterministic pseudo-random body in [-0.1, 0.1]
                let x = ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.5;
                let body = x * 0.2;
                if i % 97 == 0 {
                    body * 30.0 // outlier
                } else {
                    body
                }
            })
            .collect();
        Tensor::from_vec(data, &[n]).unwrap()
    }

    #[test]
    fn spark_beats_int4_on_long_tails() {
        let t = long_tail_tensor(2000);
        let spark = SparkCodec::default().compress(&t).unwrap();
        let int4 = UniformQuantizer::symmetric(4).compress(&t).unwrap();
        assert!(
            spark.mse(&t) < int4.mse(&t),
            "SPARK {} should beat INT4 {}",
            spark.mse(&t),
            int4.mse(&t)
        );
        assert!(spark.avg_bits < 8.0);
    }

    #[test]
    fn spark_close_to_int8_accuracy() {
        let t = long_tail_tensor(2000);
        let spark = SparkCodec::default().compress(&t).unwrap();
        let int8 = UniformQuantizer::symmetric(8).compress(&t).unwrap();
        // SPARK pays a little accuracy for ~40% fewer bits.
        assert!(spark.sqnr_db(&t) > int8.sqnr_db(&t) - 12.0);
        assert!(spark.avg_bits < int8.avg_bits);
    }

    #[test]
    fn compensation_beats_truncation() {
        let t = long_tail_tensor(2000);
        let cm = SparkCodec::default().compress(&t).unwrap();
        let trunc = SparkCodec::default()
            .without_compensation()
            .compress(&t)
            .unwrap();
        assert!(cm.mse(&t) <= trunc.mse(&t));
    }

    #[test]
    fn stats_report_short_fraction() {
        let t = long_tail_tensor(2000);
        let (_, stats) = SparkCodec::default().compress_with_stats(&t).unwrap();
        assert!(stats.short_fraction() > 0.2);
        assert!(stats.lossless_fraction() > 0.5);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(SparkCodec::default().name(), "SPARK");
        assert_eq!(
            SparkCodec::default().without_compensation().name(),
            "SPARK-noCM"
        );
        assert_eq!(
            SparkCodec::default().without_bias_correction().name(),
            "SPARK-noBC"
        );
    }

    #[test]
    fn bias_correction_reduces_mean_shift() {
        let t = long_tail_tensor(4000);
        let with_bc = SparkCodec::default().compress(&t).unwrap();
        let without = SparkCodec::default()
            .without_bias_correction()
            .compress(&t)
            .unwrap();
        let mean_err = |r: &CodecResult| {
            let diff: f32 = t
                .as_slice()
                .iter()
                .zip(r.reconstructed.as_slice())
                .map(|(&a, &b)| a.abs() - b.abs())
                .sum();
            (diff / t.len() as f32).abs()
        };
        assert!(mean_err(&with_bc) <= mean_err(&without) + 1e-6);
    }

    #[test]
    fn code_stats_matches_full_compression_pass() {
        // The stats-only pass must count exactly what compress_with_stats
        // counts, for every codec variant.
        let t = long_tail_tensor(3000);
        for codec in [
            SparkCodec::default(),
            SparkCodec::default().without_compensation(),
        ] {
            let (_, full) = codec.compress_with_stats(&t).unwrap();
            let only = codec.code_stats(&t).unwrap();
            assert_eq!(only, full, "{}", codec.name());
        }
        // Degenerate inputs agree too.
        let zero = Tensor::zeros(&[32]);
        let (_, full) = SparkCodec::default().compress_with_stats(&zero).unwrap();
        assert_eq!(SparkCodec::default().code_stats(&zero).unwrap(), full);
    }

    #[test]
    fn code_stats_rejects_non_finite() {
        let t = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        assert!(SparkCodec::default().code_stats(&t).is_err());
    }

    /// The per-value fold the table path replaces: encode, record and
    /// decode every value, then dequantize the decoded codes.
    fn per_value_fold(codec: SparkCodec, tensor: &Tensor) -> (CodecResult, CodeStats) {
        let codes = MagnitudeQuantizer::new(codec.base_bits)
            .unwrap()
            .quantize(tensor)
            .unwrap();
        let mut stats = CodeStats::new();
        let decoded: Vec<u8> = codes
            .codes
            .iter()
            .map(|&c| {
                let code = codec.mode.encode(c);
                stats.record(c, code);
                code.decode()
            })
            .collect();
        let mut reconstructed = codes.dequantize_codes(&decoded, tensor.dims()).unwrap();
        if codec.bias_correct && !tensor.is_empty() {
            let shift = tensor
                .as_slice()
                .iter()
                .zip(reconstructed.as_slice())
                .map(|(&a, &b)| (a.abs() - b.abs()) as f64)
                .sum::<f64>() as f32
                / tensor.len() as f32;
            for (v, &neg) in reconstructed.as_mut_slice().iter_mut().zip(&codes.signs) {
                if neg {
                    *v -= shift;
                } else {
                    *v += shift;
                }
            }
        }
        let avg_bits = stats.avg_bits();
        let low_precision_fraction = stats.short_fraction();
        let result = CodecResult {
            reconstructed,
            avg_bits,
            low_precision_fraction,
        };
        (result, stats)
    }

    #[test]
    fn table_path_equals_the_per_value_fold() {
        let mut rng = spark_util::Rng::seed_from_u64(0xA7A1_75E5);
        let random = Tensor::from_fn(&[4099], |_| rng.gen_range_f32(-3.0, 3.0));
        let tensors = [
            ("random", random),
            ("long tail", long_tail_tensor(3001)),
            ("all zero", Tensor::zeros(&[257])),
            (
                "all equal",
                Tensor::from_vec(vec![-0.37; 300], &[300]).unwrap(),
            ),
        ];
        for (what, t) in &tensors {
            for codec in [
                SparkCodec::default(),
                SparkCodec::default().without_compensation(),
                SparkCodec::default().without_bias_correction(),
            ] {
                let ctx = format!("{what} {}", codec.name());
                let (got, got_stats) = codec.compress_with_stats(t).unwrap();
                let (want, want_stats) = per_value_fold(codec, t);
                assert_eq!(got_stats, want_stats, "{ctx} stats");
                let bits = |r: &CodecResult| -> Vec<u32> {
                    r.reconstructed
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "{ctx} reconstruction");
                assert_eq!(got.reconstructed.dims(), want.reconstructed.dims(), "{ctx}");
                assert_eq!(got.avg_bits.to_bits(), want.avg_bits.to_bits(), "{ctx}");
                assert_eq!(
                    got.low_precision_fraction.to_bits(),
                    want.low_precision_fraction.to_bits(),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn compress_codes_rejects_mismatched_codes() {
        let t = long_tail_tensor(64);
        let mut codes = MagnitudeQuantizer::new(8).unwrap().quantize(&t).unwrap();
        codes.signs.pop();
        assert!(SparkCodec::default().compress_codes(&t, &codes).is_err());
    }

    #[test]
    fn zero_tensor_is_all_short_codes() {
        let t = Tensor::zeros(&[64]);
        let (r, stats) = SparkCodec::default().compress_with_stats(&t).unwrap();
        assert_eq!(stats.short_fraction(), 1.0);
        assert_eq!(r.avg_bits, 4.0);
    }
}
