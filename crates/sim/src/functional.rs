//! Functional (numerically exact) model of one SPARK PE page.
//!
//! Where [`crate::perf`] answers *how fast* and [`crate::systolic`] *with
//! what stalls*, this module answers *what values come out*: it executes the
//! whole Fig 6 pipeline — SPARK-encoded operand streams decoded at the array
//! borders, the mixed-precision MAC grid of [`crate::pe::Mpe`] elements,
//! the accumulation unit, and the output encoder — and produces the actual
//! numbers, so the datapath can be verified end to end against a software
//! GEMM.

use spark_codec::{decode_stream, encode_tensor, DecodeError, EncodedTensor};
use spark_quant::{MagnitudeQuantizer, QuantError};
use spark_tensor::Tensor;
use spark_util::par;

use crate::fault::{MacFaultHook, NoFaults};
use crate::pe::{Mpe, SignMag};

/// Minimum MAC count before the functional GEMM fans activation rows out
/// over worker threads. Below this the thread-spawn cost dominates.
const PAR_MIN_MACS: usize = 1 << 20;

/// Execution statistics of a functional GEMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionalStats {
    /// MAC operations executed.
    pub macs: u64,
    /// Total PE busy cycles (1/2/4 per MAC by precision).
    pub busy_cycles: u64,
    /// Values decoded at the array borders.
    pub values_decoded: u64,
    /// Output values encoded on the way out.
    pub values_encoded: u64,
}

/// A weight-stationary functional array of [`Mpe`]s.
#[derive(Debug, Clone)]
pub struct FunctionalArray {
    rows: usize,
    cols: usize,
}

impl FunctionalArray {
    /// Creates an array with the given tile dimensions.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dims must be positive");
        Self { rows, cols }
    }

    /// Computes `C = A · W` on sign-magnitude operands: `a` is `m x k`
    /// row-major, `w` is `k x n` row-major; the result is `m x n` exact
    /// 64-bit accumulations.
    ///
    /// The GEMM is tiled over the physical array; each weight tile is held
    /// stationary while the activation rows stream through, exactly as the
    /// timing model assumes. Large GEMMs fan disjoint row blocks out over
    /// [`par::par_map`] workers, each with a private PE grid per tile: every
    /// counter ([`FunctionalStats`] and per-PE cycles) is a per-MAC additive
    /// integer, so the chunked totals equal the single-pass totals exactly
    /// (see `row_chunked_execution_matches_full`).
    ///
    /// # Panics
    ///
    /// Panics when operand lengths disagree with the dimensions.
    pub fn gemm(
        &self,
        a: &[SignMag],
        w: &[SignMag],
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<i64>, FunctionalStats) {
        // NoFaults monomorphizes to the identity and inlines away: this is
        // the exact pre-hook code path, bit for bit (the property suites
        // and the BENCH_sim gate hold unchanged).
        self.gemm_with_hook(&NoFaults, a, w, m, k, n)
    }

    /// [`FunctionalArray::gemm`] with a fault-injection hook observing (and
    /// possibly perturbing) every MAC's operands. See [`crate::fault`] for
    /// the determinism contract — the hook is keyed by the global MAC site
    /// index, so results are independent of tiling and thread partitioning.
    ///
    /// # Panics
    ///
    /// Panics when operand lengths disagree with the dimensions.
    pub fn gemm_with_hook<H: MacFaultHook>(
        &self,
        hook: &H,
        a: &[SignMag],
        w: &[SignMag],
        m: usize,
        k: usize,
        n: usize,
    ) -> (Vec<i64>, FunctionalStats) {
        assert_eq!(a.len(), m * k, "activation operand count");
        assert_eq!(w.len(), k * n, "weight operand count");
        let workers = if m * k * n >= PAR_MIN_MACS {
            par::thread_count().min(m).max(1)
        } else {
            1
        };
        if workers <= 1 {
            return self.gemm_rows_with(hook, a, w, 0, m, k, n);
        }
        let rows_per = m.div_ceil(workers);
        let ranges: Vec<(usize, usize)> = (0..m)
            .step_by(rows_per)
            .map(|r0| (r0, (r0 + rows_per).min(m)))
            .collect();
        let parts =
            par::par_map(&ranges, |&(r0, r1)| self.gemm_rows_with(hook, a, w, r0, r1, k, n));
        let mut out = Vec::with_capacity(m * n);
        let mut stats = FunctionalStats::default();
        for (part_out, part_stats) in parts {
            out.extend_from_slice(&part_out);
            stats.macs += part_stats.macs;
            stats.busy_cycles += part_stats.busy_cycles;
        }
        (out, stats)
    }

    /// Runs activation rows `r0..r1` through the tiled array with a private
    /// PE grid per tile; the worker body of [`FunctionalArray::gemm_with_hook`].
    fn gemm_rows_with<H: MacFaultHook>(
        &self,
        hook: &H,
        a: &[SignMag],
        w: &[SignMag],
        r0: usize,
        r1: usize,
        k: usize,
        n: usize,
    ) -> (Vec<i64>, FunctionalStats) {
        let mut out = vec![0i64; (r1 - r0) * n];
        let mut stats = FunctionalStats::default();
        // Tile over (k, n); each tile pass streams this block's rows.
        for k0 in (0..k).step_by(self.rows) {
            let k1 = (k0 + self.rows).min(k);
            for n0 in (0..n).step_by(self.cols) {
                let n1 = (n0 + self.cols).min(n);
                // One PE per (kk, nn) position of this tile.
                let mut pes = vec![Mpe::new(); (k1 - k0) * (n1 - n0)];
                for i in r0..r1 {
                    for (kk, pe_row) in (k0..k1).enumerate() {
                        let act = a[i * k + pe_row];
                        for (nn, col) in (n0..n1).enumerate() {
                            let weight = w[pe_row * n + col];
                            let site = ((i * k + pe_row) * n + col) as u64;
                            let (weight, act) = hook.perturb(site, weight, act);
                            let pe = &mut pes[kk * (n1 - n0) + nn];
                            pe.mac(weight, act);
                            stats.macs += 1;
                        }
                    }
                    // Accumulation unit: drain column partial sums for row i.
                    for (nn, col) in (n0..n1).enumerate() {
                        let mut col_sum = 0i64;
                        for kk in 0..(k1 - k0) {
                            col_sum += pes[kk * (n1 - n0) + nn].drain();
                        }
                        out[(i - r0) * n + col] += col_sum;
                    }
                }
                stats.busy_cycles += pes.iter().map(Mpe::cycles).sum::<u64>();
            }
        }
        (out, stats)
    }
}

/// Result of running one layer through the functional PE page.
#[derive(Debug, Clone)]
pub struct LayerOutput {
    /// Dequantized FP32 outputs (`m x n`).
    pub output: Tensor,
    /// The SPARK-encoded output stream (what the next layer would load).
    pub encoded_output: EncodedTensor,
    /// Execution statistics.
    pub stats: FunctionalStats,
}

/// Error type for the functional pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Quantization front-end failed.
    Quant(QuantError),
    /// Operand stream was malformed.
    Decode(DecodeError),
    /// Shapes inconsistent.
    Shape(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Quant(e) => write!(f, "quantization failed: {e}"),
            PipelineError::Decode(e) => write!(f, "stream decode failed: {e}"),
            PipelineError::Shape(m) => write!(f, "shape error: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<QuantError> for PipelineError {
    fn from(e: QuantError) -> Self {
        PipelineError::Quant(e)
    }
}

impl From<DecodeError> for PipelineError {
    fn from(e: DecodeError) -> Self {
        PipelineError::Decode(e)
    }
}

/// One functional PE page: executes `activations (m x k) · weights (k x n)`
/// through the complete SPARK pipeline.
///
/// Steps, mirroring Fig 6:
/// 1. quantize both operands to per-tensor INT8 sign-magnitudes;
/// 2. SPARK-encode them into aligned nibble streams (the DRAM format);
/// 3. decode the streams at the array borders;
/// 4. run the mixed-precision MAC grid (exact integer arithmetic);
/// 5. dequantize partial sums with the product of the operand scales;
/// 6. re-quantize and SPARK-encode the outputs for the next layer.
pub fn run_layer(
    array: &FunctionalArray,
    activations: &Tensor,
    weights: &Tensor,
) -> Result<LayerOutput, PipelineError> {
    let (m, k) = activations
        .shape()
        .as_matrix()
        .map_err(|e| PipelineError::Shape(e.to_string()))?;
    let (kw, n) = weights
        .shape()
        .as_matrix()
        .map_err(|e| PipelineError::Shape(e.to_string()))?;
    if k != kw {
        return Err(PipelineError::Shape(format!(
            "inner dims differ: {k} vs {kw}"
        )));
    }

    let quantizer = MagnitudeQuantizer::new(8)?;
    let qa = quantizer.quantize(activations)?;
    let qw = quantizer.quantize(weights)?;

    // DRAM format: aligned nibble streams.
    let encoded_a = encode_tensor(&qa.codes);
    let encoded_w = encode_tensor(&qw.codes);

    // Border decoders recover the (rounded) magnitudes.
    let dec_a = decode_stream(&encoded_a.stream)?;
    let dec_w = decode_stream(&encoded_w.stream)?;
    let mut stats = FunctionalStats {
        values_decoded: (dec_a.len() + dec_w.len()) as u64,
        ..FunctionalStats::default()
    };

    let a_ops: Vec<SignMag> = dec_a
        .iter()
        .zip(&qa.signs)
        .map(|(&mag, &neg)| SignMag {
            magnitude: mag,
            negative: neg,
        })
        .collect();
    let w_ops: Vec<SignMag> = dec_w
        .iter()
        .zip(&qw.signs)
        .map(|(&mag, &neg)| SignMag {
            magnitude: mag,
            negative: neg,
        })
        .collect();

    let (acc, gemm_stats) = array.gemm(&a_ops, &w_ops, m, k, n);
    stats.macs = gemm_stats.macs;
    stats.busy_cycles = gemm_stats.busy_cycles;

    // Dequantize: value = acc * (scale_a/255) * (scale_w/255).
    let scale = (qa.scale as f64 / 255.0) * (qw.scale as f64 / 255.0);
    let out_data: Vec<f32> = acc.iter().map(|&v| (v as f64 * scale) as f32).collect();
    let output = Tensor::from_vec(out_data, &[m, n])
        .map_err(|e| PipelineError::Shape(e.to_string()))?;

    // Output path: activation unit (identity here) then the encoder.
    let q_out = quantizer.quantize(&output)?;
    let encoded_output = encode_tensor(&q_out.codes);
    stats.values_encoded = q_out.codes.len() as u64;

    Ok(LayerOutput {
        output,
        encoded_output,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spark_tensor::{ops, stats as tstats};

    fn toy_tensor(m: usize, n: usize, seed: usize) -> Tensor {
        Tensor::from_fn(&[m, n], |i| {
            let x = ((i * 2654435761 + seed * 97) % 1000) as f32 / 1000.0 - 0.5;
            if (i + seed) % 53 == 0 {
                x * 8.0
            } else {
                x * 0.4
            }
        })
    }

    #[test]
    fn functional_gemm_matches_integer_reference() {
        // The MPE grid must compute exactly the integer matmul of its
        // sign-magnitude operands.
        let (m, k, n) = (5, 7, 6);
        let a: Vec<SignMag> = (0..m * k)
            .map(|i| SignMag::from_i16(((i * 37) % 511) as i16 - 255))
            .collect();
        let w: Vec<SignMag> = (0..k * n)
            .map(|i| SignMag::from_i16(((i * 91) % 511) as i16 - 255))
            .collect();
        let array = FunctionalArray::new(4, 4); // forces multi-tile execution
        let (out, stats) = array.gemm(&a, &w, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let expect: i64 = (0..k)
                    .map(|kk| i64::from(a[i * k + kk].to_i16()) * i64::from(w[kk * n + j].to_i16()))
                    .sum();
                assert_eq!(out[i * n + j], expect, "({i},{j})");
            }
        }
        assert_eq!(stats.macs, (m * k * n) as u64);
        assert!(stats.busy_cycles >= stats.macs);
    }

    #[test]
    fn tiled_execution_independent_of_tile_size() {
        let (m, k, n) = (6, 10, 9);
        let a: Vec<SignMag> = (0..m * k)
            .map(|i| SignMag::from_i16(((i * 13) % 400) as i16 - 200))
            .collect();
        let w: Vec<SignMag> = (0..k * n)
            .map(|i| SignMag::from_i16(((i * 29) % 400) as i16 - 200))
            .collect();
        let big = FunctionalArray::new(64, 64).gemm(&a, &w, m, k, n).0;
        let small = FunctionalArray::new(3, 2).gemm(&a, &w, m, k, n).0;
        assert_eq!(big, small);
    }

    #[test]
    fn row_chunked_execution_matches_full() {
        // The fan-out contract: stitching gemm_rows_with over any row partition
        // reproduces the single-pass outputs AND integer stats exactly.
        let (m, k, n) = (11, 9, 13);
        let a: Vec<SignMag> = (0..m * k)
            .map(|i| SignMag::from_i16(((i * 53) % 511) as i16 - 255))
            .collect();
        let w: Vec<SignMag> = (0..k * n)
            .map(|i| SignMag::from_i16(((i * 71) % 511) as i16 - 255))
            .collect();
        let array = FunctionalArray::new(4, 4);
        let (full_out, full_stats) = array.gemm(&a, &w, m, k, n);
        for bounds in [vec![0, m], vec![0, 3, m], vec![0, 1, 2, 7, 10, m]] {
            let mut out = Vec::new();
            let mut stats = FunctionalStats::default();
            for pair in bounds.windows(2) {
                let (part, ps) =
                    array.gemm_rows_with(&crate::fault::NoFaults, &a, &w, pair[0], pair[1], k, n);
                out.extend_from_slice(&part);
                stats.macs += ps.macs;
                stats.busy_cycles += ps.busy_cycles;
            }
            assert_eq!(out, full_out, "partition {bounds:?}");
            assert_eq!(stats.macs, full_stats.macs, "partition {bounds:?}");
            assert_eq!(
                stats.busy_cycles, full_stats.busy_cycles,
                "partition {bounds:?}"
            );
        }
    }

    #[test]
    fn pipeline_output_close_to_fp32_matmul() {
        let acts = toy_tensor(8, 16, 1);
        let weights = toy_tensor(16, 12, 2);
        let array = FunctionalArray::new(8, 8);
        let result = run_layer(&array, &acts, &weights).unwrap();
        let reference = ops::matmul(&acts, &weights).unwrap();
        // Quantization+encoding noise only: high SQNR against FP32.
        let sqnr = tstats::sqnr_db(&reference, &result.output);
        assert!(sqnr > 20.0, "pipeline SQNR {sqnr}");
        assert_eq!(result.output.dims(), &[8, 12]);
    }

    #[test]
    fn pipeline_counts_decoded_and_encoded_values() {
        let acts = toy_tensor(4, 6, 3);
        let weights = toy_tensor(6, 5, 4);
        let array = FunctionalArray::new(4, 4);
        let r = run_layer(&array, &acts, &weights).unwrap();
        assert_eq!(r.stats.values_decoded, (4 * 6 + 6 * 5) as u64);
        assert_eq!(r.stats.values_encoded, (4 * 5) as u64);
        assert_eq!(r.stats.macs, (4 * 6 * 5) as u64);
        assert!(r.encoded_output.stats.avg_bits() <= 8.0);
    }

    #[test]
    fn pipeline_rejects_mismatched_shapes() {
        let a = Tensor::zeros(&[4, 5]);
        let w = Tensor::zeros(&[6, 3]);
        let array = FunctionalArray::new(4, 4);
        assert!(run_layer(&array, &a, &w).is_err());
    }

    #[test]
    fn fault_hook_perturbs_exactly_the_targeted_site() {
        // A hook that zeroes the weight of one global MAC site must change
        // exactly one output cell by exactly that product, independent of
        // tile geometry.
        struct ZeroOneSite(u64);
        impl crate::fault::MacFaultHook for ZeroOneSite {
            fn perturb(&self, site: u64, w: SignMag, a: SignMag) -> (SignMag, SignMag) {
                if site == self.0 {
                    (SignMag::positive(0), a)
                } else {
                    (w, a)
                }
            }
        }
        let (m, k, n) = (4, 5, 6);
        let a: Vec<SignMag> = (0..m * k)
            .map(|i| SignMag::from_i16(((i * 37) % 400) as i16 - 200))
            .collect();
        let w: Vec<SignMag> = (0..k * n)
            .map(|i| SignMag::from_i16(((i * 91) % 400) as i16 - 200))
            .collect();
        let (i, kk, j) = (2usize, 3usize, 4usize);
        let site = ((i * k + kk) * n + j) as u64;
        let hook = ZeroOneSite(site);
        for array in [FunctionalArray::new(64, 64), FunctionalArray::new(2, 3)] {
            let (clean, _) = array.gemm(&a, &w, m, k, n);
            let (faulty, stats) = array.gemm_with_hook(&hook, &a, &w, m, k, n);
            assert_eq!(stats.macs, (m * k * n) as u64);
            for r in 0..m {
                for c in 0..n {
                    let delta = clean[r * n + c] - faulty[r * n + c];
                    if (r, c) == (i, j) {
                        let expect =
                            i64::from(a[i * k + kk].to_i16()) * i64::from(w[kk * n + j].to_i16());
                        assert_eq!(delta, expect, "targeted cell");
                    } else {
                        assert_eq!(delta, 0, "untouched cell ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn busy_cycles_reflect_precision_mix() {
        // All-small operands: 1 cycle per MAC. Large operands: 4 per MAC.
        let small: Vec<SignMag> = (0..16).map(|_| SignMag::positive(3)).collect();
        let large: Vec<SignMag> = (0..16).map(|_| SignMag::positive(200)).collect();
        let array = FunctionalArray::new(4, 4);
        let (_, s1) = array.gemm(&small, &small, 4, 4, 4);
        let (_, s2) = array.gemm(&large, &large, 4, 4, 4);
        assert_eq!(s1.busy_cycles, s1.macs);
        assert_eq!(s2.busy_cycles, 4 * s2.macs);
    }
}
