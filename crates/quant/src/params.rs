//! Quantization parameters and the sign-magnitude INT8 front-end SPARK
//! consumes.
//!
//! The paper assumes "unsigned values that have been scaled with the
//! per-layer granularity" — i.e. the codec sees unsigned 8-bit magnitudes
//! whose sign rides with the MAC datapath (standard sign-magnitude
//! arithmetic in outlier-aware accelerators). [`MagnitudeQuantizer`]
//! implements exactly that front-end: per-tensor scale from the absolute
//! maximum (optionally a clipping quantile), magnitudes in `0..=2^bits - 1`,
//! signs kept as a separate bit vector.

use spark_codec::CodecVariant;
use spark_tensor::quantize::{self, MagnitudeScale};
use spark_tensor::{stats, Tensor};

use crate::codec::{check_finite, QuantError};

/// Affine quantization parameters: `value ≈ scale * (code - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Step size between adjacent quantization levels.
    pub scale: f32,
    /// Code word that represents zero.
    pub zero_point: f32,
}

impl QuantParams {
    /// Symmetric parameters for `bits`-wide signed codes covering
    /// `[-alpha, alpha]`.
    pub fn symmetric(alpha: f32, bits: u8) -> Self {
        let qmax = ((1u32 << (bits - 1)) - 1) as f32;
        QuantParams {
            scale: if alpha == 0.0 { 1.0 } else { alpha / qmax },
            zero_point: 0.0,
        }
    }

    /// Asymmetric parameters mapping `[min, max]` onto `0..=2^bits - 1`.
    pub fn asymmetric(min: f32, max: f32, bits: u8) -> Self {
        let qmax = ((1u64 << bits) - 1) as f32;
        let range = (max - min).max(f32::MIN_POSITIVE);
        let scale = range / qmax;
        QuantParams {
            scale,
            zero_point: -min / scale,
        }
    }

    /// Quantizes one value to the nearest code in `[lo, hi]`.
    pub fn quantize(&self, x: f32, lo: f32, hi: f32) -> f32 {
        (x / self.scale + self.zero_point).round().clamp(lo, hi)
    }

    /// Dequantizes a code word.
    pub fn dequantize(&self, code: f32) -> f32 {
        (code - self.zero_point) * self.scale
    }
}

/// Sign-magnitude quantization of an FP32 tensor to unsigned codes.
#[derive(Debug, Clone, PartialEq)]
pub struct MagnitudeCodes {
    /// Unsigned magnitudes, one per element, in `0..=2^bits - 1`.
    pub codes: Vec<u8>,
    /// True where the original value was negative.
    pub signs: Vec<bool>,
    /// Magnitude represented by the full-scale code.
    pub scale: f32,
    /// Bit-width the codes were quantized to.
    pub bits: u8,
}

impl MagnitudeCodes {
    /// Reconstructs the FP32 tensor from codes and signs.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadConfig`] when `dims` does not match the
    /// element count.
    pub fn dequantize(&self, dims: &[usize]) -> Result<Tensor, QuantError> {
        self.dequantize_iter(self.codes.iter().copied(), dims)
    }

    /// Reconstructs using externally modified codes (e.g. after a lossy
    /// encoding pass) but this tensor's signs and scale.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadConfig`] when lengths or dims mismatch.
    pub fn dequantize_codes(&self, codes: &[u8], dims: &[usize]) -> Result<Tensor, QuantError> {
        if codes.len() != self.signs.len() {
            return Err(QuantError::BadConfig(format!(
                "code count {} != sign count {}",
                codes.len(),
                self.signs.len()
            )));
        }
        self.dequantize_iter(codes.iter().copied(), dims)
    }

    /// Reconstructs with every code first replaced by `map[code]` (a
    /// per-code rewrite such as a lossy encode-decode round trip), this
    /// tensor's signs and scale.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadConfig`] when `dims` does not match the
    /// element count.
    pub fn dequantize_mapped(&self, map: &[u8; 256], dims: &[usize]) -> Result<Tensor, QuantError> {
        self.dequantize_iter(self.codes.iter().map(|&c| map[c as usize]), dims)
    }

    /// The one dequantization rule: `code * scale / qmax`, negated where
    /// the sign is set.
    fn dequantize_iter(
        &self,
        codes: impl Iterator<Item = u8>,
        dims: &[usize],
    ) -> Result<Tensor, QuantError> {
        let qmax = ((1u64 << self.bits) - 1) as f32;
        let step = self.scale / qmax;
        let data: Vec<f32> = codes
            .zip(&self.signs)
            .map(|(c, &neg)| {
                let mag = c as f32 * step;
                if neg {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        Tensor::from_vec(data, dims).map_err(|e| QuantError::BadConfig(e.to_string()))
    }
}

/// The sign-magnitude INT front-end: per-tensor scale, unsigned codes.
///
/// ```
/// use spark_quant::MagnitudeQuantizer;
/// use spark_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![0.5, -1.0, 0.25], &[3])?;
/// let q = MagnitudeQuantizer::new(8)?;
/// let codes = q.quantize(&t)?;
/// assert_eq!(codes.codes, vec![128, 255, 64]); // scaled by 1.0 (abs max)
/// assert_eq!(codes.signs, vec![false, true, false]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MagnitudeQuantizer {
    bits: u8,
    clip_quantile: Option<f32>,
}

impl MagnitudeQuantizer {
    /// Creates a quantizer producing `bits`-wide magnitudes (1..=8).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] outside `1..=8`.
    pub fn new(bits: u8) -> Result<Self, QuantError> {
        if !(1..=8).contains(&bits) {
            return Err(QuantError::UnsupportedBits(bits));
        }
        Ok(Self {
            bits,
            clip_quantile: None,
        })
    }

    /// Sets a clipping quantile in `(0, 1]`: the scale is taken from that
    /// quantile of the absolute values instead of the maximum, saturating
    /// the tail.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadConfig`] when `q` is outside `(0, 1]`.
    pub fn with_clip_quantile(mut self, q: f32) -> Result<Self, QuantError> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(QuantError::BadConfig(format!(
                "clip quantile {q} outside (0, 1]"
            )));
        }
        self.clip_quantile = Some(q);
        Ok(self)
    }

    /// The configured bit-width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Quantizes a tensor to sign-magnitude codes, through the encode
    /// front end's quantize kernel ([`quantize::quantize_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteInput`] for NaN/infinite input.
    pub fn quantize(&self, t: &Tensor) -> Result<MagnitudeCodes, QuantError> {
        let variant = CodecVariant::detect();
        let scale = self.scale(variant, t)?;
        let mut codes = vec![0u8; t.len()];
        let mut plane = vec![0u8; t.len().div_ceil(8)];
        quantize::quantize_slice(variant, t.as_slice(), scale, &mut codes, &mut plane);
        let signs = (0..t.len()).map(|e| plane[e >> 3] >> (e & 7) & 1 == 1).collect();
        Ok(MagnitudeCodes {
            codes,
            signs,
            scale: scale.alpha(),
            bits: self.bits,
        })
    }

    /// Streams the unsigned magnitude codes of `t` to `f` without
    /// materializing a [`MagnitudeCodes`] — the fixed-buffer pass behind
    /// stats-only consumers such as `SparkCodec::code_stats`. Produces
    /// exactly the code stream [`Self::quantize`] would.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteInput`] for NaN/infinite input.
    pub fn for_each_code(&self, t: &Tensor, mut f: impl FnMut(u8)) -> Result<(), QuantError> {
        const CHUNK: usize = 4096;
        let variant = CodecVariant::detect();
        let scale = self.scale(variant, t)?;
        let mut codes = [0u8; CHUNK];
        let mut plane = [0u8; CHUNK / 8];
        for chunk in t.as_slice().chunks(CHUNK) {
            let codes = &mut codes[..chunk.len()];
            quantize::quantize_slice(variant, chunk, scale, codes, &mut plane);
            codes.iter().for_each(|&c| f(c));
        }
        Ok(())
    }

    /// The per-tensor scale: `alpha` from the clipping quantile, else from
    /// the abs-max kernel, which also does the finite check.
    fn scale(&self, variant: CodecVariant, t: &Tensor) -> Result<MagnitudeScale, QuantError> {
        let alpha = match self.clip_quantile {
            Some(q) => {
                check_finite(t)?;
                stats::abs_quantile(t, q)
            }
            None => quantize::finite_abs_max(variant, t.as_slice())
                .ok_or(QuantError::NonFiniteInput)?,
        };
        Ok(MagnitudeScale::new(alpha, self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    #[test]
    fn symmetric_params_cover_alpha() {
        let p = QuantParams::symmetric(1.0, 8);
        assert!((p.quantize(1.0, -127.0, 127.0) - 127.0).abs() < 1e-6);
        assert!((p.dequantize(127.0) - 1.0).abs() < 1e-6);
        assert_eq!(p.zero_point, 0.0);
    }

    #[test]
    fn asymmetric_params_cover_range() {
        let p = QuantParams::asymmetric(-1.0, 3.0, 8);
        let q_min = p.quantize(-1.0, 0.0, 255.0);
        let q_max = p.quantize(3.0, 0.0, 255.0);
        assert_eq!(q_min, 0.0);
        assert_eq!(q_max, 255.0);
        assert!((p.dequantize(q_min) + 1.0).abs() < 1e-4);
        assert!((p.dequantize(q_max) - 3.0).abs() < 1e-4);
    }

    #[test]
    fn zero_alpha_does_not_divide_by_zero() {
        let p = QuantParams::symmetric(0.0, 8);
        assert_eq!(p.quantize(0.0, -127.0, 127.0), 0.0);
    }

    #[test]
    fn magnitude_round_trip_error_bounded() {
        let x = t(&[0.9, -0.5, 0.1, -0.001, 0.0]);
        let q = MagnitudeQuantizer::new(8).unwrap();
        let codes = q.quantize(&x).unwrap();
        let back = codes.dequantize(&[5]).unwrap();
        let step = codes.scale / 255.0;
        for (&a, &b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn signs_recorded() {
        let x = t(&[-1.0, 1.0, 0.0]);
        let q = MagnitudeQuantizer::new(8).unwrap();
        let codes = q.quantize(&x).unwrap();
        assert_eq!(codes.signs, vec![true, false, false]);
    }

    #[test]
    fn clipping_saturates_tail() {
        // One huge outlier; clipping at the 80th percentile keeps the body
        // resolution high and saturates the outlier.
        let mut data = vec![0.1f32; 99];
        data.push(100.0);
        let x = t(&data);
        let q = MagnitudeQuantizer::new(8)
            .unwrap()
            .with_clip_quantile(0.8)
            .unwrap();
        let codes = q.quantize(&x).unwrap();
        assert_eq!(*codes.codes.last().unwrap(), 255); // saturated outlier
        assert!(codes.scale < 1.0); // scale from the body, not the outlier
    }

    #[test]
    fn bits_validation() {
        assert!(MagnitudeQuantizer::new(0).is_err());
        assert!(MagnitudeQuantizer::new(9).is_err());
        assert!(MagnitudeQuantizer::new(4).is_ok());
        assert!(MagnitudeQuantizer::new(8)
            .unwrap()
            .with_clip_quantile(0.0)
            .is_err());
    }

    #[test]
    fn low_bit_quantization() {
        let x = t(&[1.0, 0.5, 0.25]);
        let q = MagnitudeQuantizer::new(4).unwrap();
        let codes = q.quantize(&x).unwrap();
        assert_eq!(codes.codes[0], 15);
        assert_eq!(codes.codes[1], 8);
    }

    #[test]
    fn dequantize_codes_validates_length() {
        let x = t(&[1.0, -1.0]);
        let q = MagnitudeQuantizer::new(8).unwrap();
        let codes = q.quantize(&x).unwrap();
        assert!(codes.dequantize_codes(&[1], &[2]).is_err());
        let back = codes.dequantize_codes(&[255, 255], &[2]).unwrap();
        assert_eq!(back.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn non_finite_rejected() {
        let x = t(&[f32::NAN]);
        assert!(MagnitudeQuantizer::new(8).unwrap().quantize(&x).is_err());
    }

    #[test]
    fn every_non_finite_value_is_rejected_typed_on_every_path() {
        let q = MagnitudeQuantizer::new(8).unwrap();
        let clipped = q.with_clip_quantile(0.9).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0usize, 7, 16, 20] {
                let mut v = vec![0.5f32; 21];
                v[at] = bad;
                let x = t(&v);
                for q in [q, clipped] {
                    assert!(matches!(q.quantize(&x), Err(QuantError::NonFiniteInput)));
                    assert!(matches!(
                        q.for_each_code(&x, |_| {}),
                        Err(QuantError::NonFiniteInput)
                    ));
                }
                assert!(matches!(check_finite(&x), Err(QuantError::NonFiniteInput)));
            }
        }
    }

    #[test]
    fn codes_are_the_per_value_expression() {
        // The kernel path against the per-value rule it replaced, with
        // signed zeros, exact ties and the clipping path, at every width.
        let mut data: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919 % 1000) as f32 - 500.0) / 333.0)
            .collect();
        data.extend([-0.0, 0.0, 2.5 / 255.0 * 3.0, -3.0, 3.0]);
        let x = t(&data);
        for bits in [1u8, 4, 8] {
            for q in [None, Some(0.8f32)] {
                let mut quantizer = MagnitudeQuantizer::new(bits).unwrap();
                if let Some(q) = q {
                    quantizer = quantizer.with_clip_quantile(q).unwrap();
                }
                let got = quantizer.quantize(&x).unwrap();
                let alpha = match q {
                    Some(q) => stats::abs_quantile(&x, q),
                    None => data.iter().fold(0.0f32, |m, &v| m.max(v.abs())),
                };
                let qmax = ((1u64 << bits) - 1) as f32;
                assert_eq!(got.scale, alpha);
                for (e, &v) in data.iter().enumerate() {
                    let code = (v.abs() / alpha * qmax).round().min(qmax) as u8;
                    assert_eq!(got.codes[e], code, "bits {bits} clip {q:?} element {e}");
                    assert_eq!(got.signs[e], v < 0.0, "bits {bits} clip {q:?} element {e}");
                }
                let mut streamed = Vec::new();
                quantizer.for_each_code(&x, |c| streamed.push(c)).unwrap();
                assert_eq!(streamed, got.codes);
            }
        }
    }
}
