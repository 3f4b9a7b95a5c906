//! Reductions and distribution statistics used by the quantizers and the
//! paper's characterization experiments (Fig 2, Fig 4).

use crate::Tensor;

/// Summary statistics of a tensor's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value (0 for empty tensors).
    pub min: f32,
    /// Largest value (0 for empty tensors).
    pub max: f32,
    /// Arithmetic mean.
    pub mean: f32,
    /// Population standard deviation.
    pub std: f32,
}

/// Computes min/max/mean/std in one pass.
///
/// Empty tensors yield all-zero statistics.
pub fn summarize(t: &Tensor) -> Summary {
    let data = t.as_slice();
    if data.is_empty() {
        return Summary {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            std: 0.0,
        };
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for &x in data {
        min = min.min(x);
        max = max.max(x);
        sum += x as f64;
        sum_sq += (x as f64) * (x as f64);
    }
    let n = data.len() as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    Summary {
        min,
        max,
        mean: mean as f32,
        std: var.sqrt() as f32,
    }
}

/// Maximum absolute value (the `alpha` used by symmetric quantizers),
/// through the encode front end's abs-max kernel
/// ([`crate::quantize::abs_max_bits`]). NaNs are skipped, as `f32::max`
/// skips them.
pub fn abs_max(t: &Tensor) -> f32 {
    let bits = crate::quantize::abs_max_bits(spark_codec::CodecVariant::detect(), t.as_slice());
    if bits <= f32::INFINITY.to_bits() {
        f32::from_bits(bits)
    } else {
        t.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

/// The `q`-th quantile (0.0..=1.0) of the absolute values, used by
/// clipping-based quantizers to suppress outliers.
///
/// Returns 0 for empty tensors. `q` is clamped to `[0, 1]`.
pub fn abs_quantile(t: &Tensor, q: f32) -> f32 {
    let mut mags: Vec<f32> = t.as_slice().iter().map(|x| x.abs()).collect();
    if mags.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((mags.len() - 1) as f32 * q).round() as usize;
    mags[idx]
}

/// Mean squared error between two equal-length tensors.
///
/// # Panics
///
/// Panics when lengths differ (callers compare a tensor against its own
/// reconstruction, so a mismatch is a programming error).
pub fn mse(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.len(), b.len(), "mse operands must have equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let sum: f64 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum();
    sum / a.len() as f64
}

/// Signal-to-quantization-noise ratio in dB: `10 log10(E[x^2] / MSE)`.
///
/// Returns `f64::INFINITY` for an exact reconstruction of a nonzero signal,
/// and 0 for an all-zero signal.
pub fn sqnr_db(original: &Tensor, reconstructed: &Tensor) -> f64 {
    let err = mse(original, reconstructed);
    let power: f64 = if original.is_empty() {
        0.0
    } else {
        original
            .as_slice()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            / original.len() as f64
    };
    if power == 0.0 {
        return 0.0;
    }
    if err == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (power / err).log10()
}

/// Histogram of u8 code words, used for characterizing quantized
/// distributions (the blue/orange bars of Fig 2).
pub fn histogram_u8(codes: &[u8]) -> [u64; 256] {
    let mut h = [0u64; 256];
    for &c in codes {
        h[c as usize] += 1;
    }
    h
}

/// Fraction of code words falling in `[lo, hi]` (inclusive).
///
/// Returns 0 for an empty slice.
pub fn fraction_in_range(codes: &[u8], lo: u8, hi: u8) -> f64 {
    if codes.is_empty() {
        return 0.0;
    }
    let n = codes.iter().filter(|&&c| c >= lo && c <= hi).count();
    n as f64 / codes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[data.len()]).unwrap()
    }

    #[test]
    fn summary_basic() {
        let s = summarize(&t(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-6);
        assert!((s.std - 1.118_034).abs() < 1e-4);
    }

    #[test]
    fn summary_empty() {
        let s = summarize(&Tensor::zeros(&[0]));
        assert_eq!(s, Summary { min: 0.0, max: 0.0, mean: 0.0, std: 0.0 });
    }

    #[test]
    fn abs_max_ignores_sign() {
        assert_eq!(abs_max(&t(&[-5.0, 3.0])), 5.0);
        assert_eq!(abs_max(&Tensor::zeros(&[0])), 0.0);
    }

    #[test]
    fn quantile_endpoints() {
        let x = t(&[1.0, -2.0, 3.0, -4.0]);
        assert_eq!(abs_quantile(&x, 0.0), 1.0);
        assert_eq!(abs_quantile(&x, 1.0), 4.0);
        // out-of-range q is clamped
        assert_eq!(abs_quantile(&x, 2.0), 4.0);
    }

    #[test]
    fn mse_and_sqnr() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0, 2.0]);
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(sqnr_db(&a, &b), f64::INFINITY);
        let c = t(&[0.0, 2.0]);
        assert_eq!(mse(&a, &c), 0.5);
        let s = sqnr_db(&a, &c);
        assert!((s - 10.0 * (2.5f64 / 0.5).log10()).abs() < 1e-9);
    }

    #[test]
    fn sqnr_of_zero_signal_is_zero() {
        let z = Tensor::zeros(&[4]);
        assert_eq!(sqnr_db(&z, &z), 0.0);
    }

    #[test]
    fn histogram_counts() {
        let h = histogram_u8(&[0, 0, 255, 7]);
        assert_eq!(h[0], 2);
        assert_eq!(h[7], 1);
        assert_eq!(h[255], 1);
        assert_eq!(h.iter().sum::<u64>(), 4);
    }

    #[test]
    fn fraction_in_range_inclusive() {
        let codes = [0u8, 7, 8, 255];
        assert_eq!(fraction_in_range(&codes, 0, 7), 0.5);
        assert_eq!(fraction_in_range(&codes, 8, 255), 0.5);
        assert_eq!(fraction_in_range(&[], 0, 255), 0.0);
    }
}
