//! Information-theoretic analysis of the SPARK code.
//!
//! How close does SPARK's fixed 4/8-bit split come to the optimum? The
//! Shannon entropy of the (rounded) value distribution lower-bounds any
//! prefix-free code's average length; [`CodeAnalysis`] computes it next to
//! SPARK's achieved average bits, plus the per-value error distribution
//! (mean, RMS, histogram of magnitudes) that drives the accuracy results.
//!
//! Two caveats keep the comparison honest:
//!
//! 1. SPARK is *not* trying to hit the entropy bound — a Huffman code gets
//!    closer but destroys memory alignment, which is the whole point
//!    (Table I's "Memory Aligned" column). The gap quantifies what
//!    alignment costs.
//! 2. SPARK is lossy on ~5 % of values, so its effective rate should be
//!    compared against the entropy of the *reconstructed* distribution,
//!    which the analysis also reports.


use crate::code::encode_value;

/// Full analysis of a code-word stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeAnalysis {
    /// Number of values analysed.
    pub count: usize,
    /// SPARK's achieved average bits per value.
    pub spark_bits: f64,
    /// Shannon entropy (bits/value) of the original byte distribution.
    pub source_entropy: f64,
    /// Shannon entropy (bits/value) of the reconstructed distribution
    /// (what a lossless code would need after SPARK's rounding).
    pub reconstructed_entropy: f64,
    /// Mean signed reconstruction error (code units).
    pub mean_error: f64,
    /// Root-mean-square reconstruction error (code units).
    pub rms_error: f64,
    /// Histogram of absolute errors 0..=16.
    pub error_histogram: Vec<u64>,
}

spark_util::to_json_struct!(CodeAnalysis {
    count,
    spark_bits,
    source_entropy,
    reconstructed_entropy,
    mean_error,
    rms_error,
    error_histogram,
});

impl CodeAnalysis {
    /// Gap between SPARK's rate and the reconstructed-distribution entropy
    /// (bits/value); what memory alignment costs versus an ideal
    /// entropy coder.
    pub fn alignment_overhead_bits(&self) -> f64 {
        self.spark_bits - self.reconstructed_entropy
    }
}

fn entropy(counts: &[u64], total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

/// Analyses a stream of INT8 code words under the paper's 8/4 format.
///
/// The code bits, errors and reconstruction histogram fold over the
/// 256-bin source histogram; every error term is an integer, so this
/// equals a per-value fold to the bit.
pub fn analyze(values: &[u8]) -> CodeAnalysis {
    let mut source_hist = [0u64; 256];
    for &v in values {
        source_hist[v as usize] += 1;
    }
    let mut recon_hist = [0u64; 256];
    let mut error_histogram = vec![0u64; 17];
    let mut bits = 0u64;
    let mut err_sum = 0i64;
    let mut err_sq = 0u64;
    for (v, &count) in source_hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let code = encode_value(v as u8);
        bits += u64::from(code.bits()) * count;
        let r = code.decode();
        recon_hist[r as usize] += count;
        let e = i64::from(r) - v as i64;
        err_sum += e * count as i64;
        err_sq += e.unsigned_abs().pow(2) * count;
        error_histogram[e.unsigned_abs() as usize] += count;
    }
    let n = values.len();
    let total = n as u64;
    CodeAnalysis {
        count: n,
        spark_bits: if n == 0 { 8.0 } else { bits as f64 / n as f64 },
        source_entropy: entropy(&source_hist, total),
        reconstructed_entropy: entropy(&recon_hist, total),
        mean_error: if n == 0 { 0.0 } else { err_sum as f64 / n as f64 },
        rms_error: if n == 0 {
            0.0
        } else {
            (err_sq as f64 / n as f64).sqrt()
        },
        error_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A geometric-ish code distribution: heavy mass on small values.
    fn peaked_codes(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| {
                let u = (i * 2654435761) % 100;
                match u {
                    0..=64 => (u % 8) as u8,
                    65..=89 => (8 + u % 24) as u8,
                    _ => (32 + (u * 7) % 224) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn spark_bits_above_entropy_bound() {
        // No code can beat the entropy of what it (losslessly) represents.
        let values = peaked_codes(20_000);
        let a = analyze(&values);
        assert!(
            a.spark_bits >= a.reconstructed_entropy,
            "SPARK {} below entropy {}",
            a.spark_bits,
            a.reconstructed_entropy
        );
        assert!(a.alignment_overhead_bits() >= 0.0);
    }

    #[test]
    fn spark_beats_fixed_8_bits_on_peaked_data() {
        let values = peaked_codes(20_000);
        let a = analyze(&values);
        assert!(a.spark_bits < 7.0, "{}", a.spark_bits);
    }

    #[test]
    fn uniform_bytes_entropy_is_8_bits() {
        let values: Vec<u8> = (0u16..=255).flat_map(|v| [v as u8; 4]).collect();
        let a = analyze(&values);
        assert!((a.source_entropy - 8.0).abs() < 1e-9);
        // Rounding merges values, so the reconstructed entropy is lower.
        assert!(a.reconstructed_entropy < a.source_entropy);
    }

    #[test]
    fn error_statistics_consistent_with_bound() {
        let values: Vec<u8> = (0u16..=255).map(|v| v as u8).collect();
        let a = analyze(&values);
        assert!(a.rms_error <= 16.0);
        assert_eq!(a.error_histogram.iter().sum::<u64>(), 256);
        // Exhaustive bytes: errors up to 16 occur.
        assert!(a.error_histogram[16] > 0);
        // Lossless values (error 0) dominate the exhaustive sweep.
        assert!(a.error_histogram[0] >= 128);
    }

    #[test]
    fn constant_stream_degenerate() {
        let values = vec![5u8; 100];
        let a = analyze(&values);
        assert_eq!(a.source_entropy, 0.0);
        assert_eq!(a.spark_bits, 4.0);
        assert_eq!(a.mean_error, 0.0);
    }

    /// The per-value fold `analyze` replaces: encode and decode every
    /// value, accumulating each error term as it comes.
    fn per_value_reference(values: &[u8]) -> CodeAnalysis {
        use crate::code::{decode_value, CodeKind};
        let mut source_hist = [0u64; 256];
        let mut recon_hist = [0u64; 256];
        let mut error_histogram = vec![0u64; 17];
        let mut bits = 0u64;
        let mut err_sum = 0i64;
        let mut err_sq = 0f64;
        for &v in values {
            source_hist[v as usize] += 1;
            bits += match encode_value(v).kind() {
                CodeKind::Short => 4,
                CodeKind::Long => 8,
            };
            let r = decode_value(v);
            recon_hist[r as usize] += 1;
            let e = i64::from(r) - i64::from(v);
            err_sum += e;
            err_sq += (e * e) as f64;
            error_histogram[e.unsigned_abs() as usize] += 1;
        }
        let n = values.len();
        CodeAnalysis {
            count: n,
            spark_bits: if n == 0 { 8.0 } else { bits as f64 / n as f64 },
            source_entropy: entropy(&source_hist, n as u64),
            reconstructed_entropy: entropy(&recon_hist, n as u64),
            mean_error: if n == 0 {
                0.0
            } else {
                err_sum as f64 / n as f64
            },
            rms_error: if n == 0 {
                0.0
            } else {
                (err_sq / n as f64).sqrt()
            },
            error_histogram,
        }
    }

    #[test]
    fn histogram_fold_equals_the_per_value_fold() {
        let mut rng = spark_util::Rng::seed_from_u64(0xA11A);
        let mut inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![18; 1000],
            vec![170; 3],
            vec![0; 7],
            (0u16..=255).map(|v| v as u8).collect(),
            peaked_codes(5000),
        ];
        for len in [1usize, 17, 4096, 50_000] {
            inputs.push((0..len).map(|_| rng.gen_below(256) as u8).collect());
        }
        for values in &inputs {
            let (got, want) = (analyze(values), per_value_reference(values));
            assert_eq!(got, want, "{} values", values.len());
            // PartialEq on f64 treats 0.0 == -0.0; the fold must match
            // to the bit.
            for (a, b) in [
                (got.spark_bits, want.spark_bits),
                (got.source_entropy, want.source_entropy),
                (got.reconstructed_entropy, want.reconstructed_entropy),
                (got.mean_error, want.mean_error),
                (got.rms_error, want.rms_error),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{} values", values.len());
            }
        }
    }

    #[test]
    fn empty_stream_neutral() {
        let a = analyze(&[]);
        assert_eq!(a.count, 0);
        assert_eq!(a.spark_bits, 8.0);
        assert_eq!(a.rms_error, 0.0);
    }
}
