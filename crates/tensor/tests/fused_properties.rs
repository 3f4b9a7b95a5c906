//! Cross-engine differential suite for the decode-fused GEMM.
//!
//! The fused path ([`gemm_encoded_with`]) runs a variable-length SPARK
//! decoder *inside* the cache-blocked GEMM loop, so its correctness claim
//! is the strongest the repo makes: for every dispatch variant, its output
//! is `to_bits()`-identical to
//!
//! 1. **decode-then-turbo** — `gemm_with` over [`EncodedMatrix::decode`]'s
//!    dense reconstruction (same variant), and
//! 2. **the seed kernel** — `ops::matmul_reference` over that same
//!    reconstruction.
//!
//! Random ragged shapes cover the steady state; the pinned adversarial
//! edges cover what random sampling reaches rarely: `m = 1`, `n = 1`,
//! `k = 0`, ragged `n % NR` and `k % KC` tails, all-zero weights, and
//! denormal-heavy operands on both sides of the product.
//!
//! The operand emitters are pinned on their own too: every `f32` emitter
//! tier writes the scalar tier's bits for all 256 codes with both signs,
//! every panel width and every row-count class, and weights whose long
//! codes straddle the bulk decoder's 64-nibble blocks and the `KC` depth
//! blocks stay bit-identical end to end.
//!
//! The public `ops::matmul_*_encoded` calls are the auto path: bit-identical
//! to this oracle below `MR` rows, and within a relative L2 error of `1e-3`
//! at `m >= MR`, where they may take the integer-domain path
//! (`fused_int_properties.rs` holds that path's own properties).

use spark_tensor::emit::{emit_f32, Dequant};
use spark_tensor::encoded::EncodedMatrix;
use spark_tensor::gemm::{gemm_encoded_with, gemm_with, Epilogue, GemmVariant, Layout, KC, MR, NR};
use spark_tensor::{ops, Tensor};
use spark_util::prop::check;
use spark_util::prop_assert;
use spark_util::Rng;

/// A random fused-GEMM case: ragged `m`/`k`/`n` (with `k` ranging past
/// `KC` so multi-block accumulator parking is exercised), ~25% exact
/// zeros in `A`, and a bias row for the epilogue properties.
type Case = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>);

fn fused_case(rng: &mut Rng) -> Case {
    let m = rng.gen_range(1..24);
    let k = rng.gen_range(1..2 * KC + 40);
    let n = rng.gen_range(1..80);
    let mut a = Vec::with_capacity(m * k);
    for _ in 0..m * k {
        a.push(if rng.gen_f64() < 0.25 {
            0.0
        } else {
            rng.gen_range_f32(-4.0, 4.0)
        });
    }
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(-3.0, 3.0)).collect();
    (m, k, n, a, b, bias)
}

fn case_valid((m, k, n, a, b, bias): &Case) -> bool {
    *m > 0 && *k > 0 && *n > 0 && a.len() == m * k && b.len() == k * n && bias.len() == *n
}

fn bits_eq(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() {
            return Err(format!(
                "element {i}: {g} ({:#x}) vs {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            ));
        }
    }
    Ok(())
}

/// Checks an auto-path output against the `f32` oracle: to the bit below
/// `MR` rows; at `m >= MR`, within relative L2 `1e-3` of the norm of
/// `scale` (the oracle itself, or the pre-ReLU output for a ReLU epilogue,
/// since ReLU never grows an error).
fn auto_close(m: usize, got: &[f32], oracle: &[f32], scale: &[f32]) -> Result<(), String> {
    if m < MR {
        return bits_eq(got, oracle);
    }
    let err: f64 = got
        .iter()
        .zip(oracle)
        .map(|(&g, &o)| (f64::from(g) - f64::from(o)).powi(2))
        .sum();
    let norm: f64 = scale.iter().map(|&v| f64::from(v).powi(2)).sum();
    if err == 0.0 || (err / norm).sqrt() <= 1e-3 {
        Ok(())
    } else {
        Err(format!(
            "relative L2 {:e} from the f32 oracle",
            (err / norm).sqrt()
        ))
    }
}

/// Runs one (a, b) pair through all three engines under every available
/// variant and demands bit equality.
fn assert_cross_engine(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], ctx: &str) {
    let at = Tensor::from_vec(a.to_vec(), &[m.max(1), k]).unwrap();
    let bt = Tensor::from_vec(b.to_vec(), &[k, n]).unwrap();
    let em = EncodedMatrix::encode(&bt).expect("finite weights encode");
    let decoded = em.decode().expect("self-encoded matrix decodes");
    let want = ops::matmul_reference(&at, &decoded).unwrap();
    for v in GemmVariant::available() {
        let fused = gemm_encoded_with(v, a, &em, m, Epilogue::None)
            .unwrap_or_else(|e| panic!("{ctx} {}: fused path errored: {e}", v.name()));
        let dense = gemm_with(v, Layout::Nn, a, decoded.as_slice(), m, k, n, Epilogue::None);
        if let Err(e) = bits_eq(&fused, want.as_slice()) {
            panic!("{ctx} {} fused vs reference: {e}", v.name());
        }
        if let Err(e) = bits_eq(&fused, &dense) {
            panic!("{ctx} {} fused vs decode-then-turbo: {e}", v.name());
        }
    }
}

/// Random ragged shapes: fused == decode-then-turbo == reference, to the
/// bit, under every variant.
#[test]
fn fused_bit_identical_to_decode_then_gemm_and_reference() {
    check(
        "fused_bit_identical_to_decode_then_gemm_and_reference",
        fused_case,
        |case| {
            if !case_valid(case) {
                return Ok(());
            }
            let (m, k, n, ref a, ref b, _) = *case;
            let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
            let bt = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
            let em = EncodedMatrix::encode(&bt).expect("finite weights encode");
            let decoded = em.decode().expect("self-encoded matrix decodes");
            let want = ops::matmul_reference(&at, &decoded).unwrap();
            for v in GemmVariant::available() {
                let fused = match gemm_encoded_with(v, a, &em, m, Epilogue::None) {
                    Ok(out) => out,
                    Err(e) => {
                        prop_assert!(false, "{} {m}x{k}x{n}: fused errored: {e}", v.name());
                        unreachable!()
                    }
                };
                let dense =
                    gemm_with(v, Layout::Nn, a, decoded.as_slice(), m, k, n, Epilogue::None);
                if let Err(e) = bits_eq(&fused, want.as_slice()) {
                    prop_assert!(false, "{} {m}x{k}x{n} vs reference: {e}", v.name());
                }
                if let Err(e) = bits_eq(&fused, &dense) {
                    prop_assert!(false, "{} {m}x{k}x{n} vs decode-then-turbo: {e}", v.name());
                }
            }
            Ok(())
        },
    );
}

/// The fused bias / bias+ReLU epilogues match the dense engine and the
/// seed-op composition over the decoded weights, bit-for-bit.
#[test]
fn fused_epilogues_bit_identical() {
    check("fused_epilogues_bit_identical", fused_case, |case| {
        if !case_valid(case) {
            return Ok(());
        }
        let (m, k, n, ref a, ref b, ref bias) = *case;
        let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
        let bt = Tensor::from_vec(b.clone(), &[k, n]).unwrap();
        let em = EncodedMatrix::encode(&bt).expect("finite weights encode");
        let decoded = em.decode().expect("self-encoded matrix decodes");
        let plain = ops::matmul_reference(&at, &decoded).unwrap();
        let want_bias = ops::add_bias(&plain, bias).unwrap();
        let want_bias_relu = ops::relu(&want_bias);
        for v in GemmVariant::available() {
            let got = gemm_encoded_with(v, a, &em, m, Epilogue::Bias(bias))
                .map_err(|e| e.to_string())?;
            if let Err(e) = bits_eq(&got, want_bias.as_slice()) {
                prop_assert!(false, "bias {} {m}x{k}x{n}: {e}", v.name());
            }
            let got = gemm_encoded_with(v, a, &em, m, Epilogue::BiasRelu(bias))
                .map_err(|e| e.to_string())?;
            if let Err(e) = bits_eq(&got, want_bias_relu.as_slice()) {
                prop_assert!(false, "bias_relu {} {m}x{k}x{n}: {e}", v.name());
            }
        }
        // The oracle the public encoded ops are held to, under the variant
        // they dispatch to, then the ops themselves within its bound.
        let oracle = |epi| gemm_encoded_with(GemmVariant::detect(), a, &em, m, epi);
        let oracle_bias = oracle(Epilogue::Bias(bias)).map_err(|e| e.to_string())?;
        if let Err(e) = bits_eq(&oracle_bias, want_bias.as_slice()) {
            prop_assert!(false, "oracle of ops::matmul_bias_encoded {m}x{k}x{n}: {e}");
        }
        let oracle_relu = oracle(Epilogue::BiasRelu(bias)).map_err(|e| e.to_string())?;
        if let Err(e) = bits_eq(&oracle_relu, want_bias_relu.as_slice()) {
            prop_assert!(
                false,
                "oracle of ops::matmul_bias_relu_encoded {m}x{k}x{n}: {e}"
            );
        }
        let got = ops::matmul_bias_encoded(&at, &em, bias).map_err(|e| e.to_string())?;
        if let Err(e) = auto_close(m, got.as_slice(), &oracle_bias, &oracle_bias) {
            prop_assert!(false, "ops::matmul_bias_encoded {m}x{k}x{n}: {e}");
        }
        let got = ops::matmul_bias_relu_encoded(&at, &em, bias).map_err(|e| e.to_string())?;
        if let Err(e) = auto_close(m, got.as_slice(), &oracle_relu, &oracle_bias) {
            prop_assert!(false, "ops::matmul_bias_relu_encoded {m}x{k}x{n}: {e}");
        }
        Ok(())
    });
}

/// `encode_transposed` + the fused walk equals transposing first and going
/// through the plain encoded path — the encode-time blocked transpose is
/// exact.
#[test]
fn fused_nt_matches_materialized_transpose() {
    check("fused_nt_matches_materialized_transpose", fused_case, |case| {
        if !case_valid(case) {
            return Ok(());
        }
        let (m, k, n, ref a, ref b, _) = *case;
        let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
        // B given as n x k, multiplied as A · Bᵀ.
        let bnk = Tensor::from_vec(b.clone(), &[n, k]).unwrap();
        let em_t = EncodedMatrix::encode_transposed(&bnk).map_err(|e| e.to_string())?;
        let em = EncodedMatrix::encode(&ops::transpose(&bnk).unwrap()).map_err(|e| e.to_string())?;
        let oracle = |em: &EncodedMatrix| {
            gemm_encoded_with(GemmVariant::detect(), a, em, m, Epilogue::None)
                .map_err(|e| e.to_string())
        };
        let want = oracle(&em)?;
        bits_eq(&oracle(&em_t)?, &want).map_err(|e| format!("nt {m}x{k}x{n}: {e}"))?;
        let got = ops::matmul_nt_encoded(&at, &em_t).map_err(|e| e.to_string())?;
        auto_close(m, got.as_slice(), &want, &want)
            .map_err(|e| format!("ops::matmul_nt_encoded {m}x{k}x{n}: {e}"))?;
        Ok(())
    });
}

/// Pinned adversarial edges, per variant: degenerate dims, ragged panel
/// and depth-block tails, all-zero weights.
#[test]
fn adversarial_edges_bit_identical() {
    let mut rng = Rng::seed_from_u64(0x0F05_EDC0);
    let shapes: &[(usize, usize, usize, &str)] = &[
        (1, 50, 33, "m=1"),
        (7, 40, 1, "n=1"),
        (1, 1, 1, "scalar"),
        (5, KC, NR, "exact KC x NR"),
        (5, KC + 1, NR + 1, "KC/NR +1 tails"),
        (5, KC - 1, NR - 1, "KC/NR -1 tails"),
        (9, 2 * KC + 7, 3 * NR + 5, "multi-block ragged"),
        (3, 3, 2 * NR, "row tail only"),
    ];
    for &(m, k, n, label) in shapes {
        let a: Vec<f32> = (0..m * k)
            .map(|_| {
                if rng.gen_f64() < 0.25 {
                    0.0
                } else {
                    rng.gen_range_f32(-4.0, 4.0)
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
        assert_cross_engine(m, k, n, &a, &b, label);
    }
    // All-zero weights: every decoded panel row is zero, the zero-skip on
    // A never fires for B's sake, and the output must be exactly zero.
    assert_cross_engine(6, 37, 21, &vec![1.5; 6 * 37], &vec![0.0; 37 * 21], "all-zero B");
    // All-zero A: the skip branch takes every iteration.
    assert_cross_engine(6, 37, 21, &vec![0.0; 6 * 37], &vec![0.25; 37 * 21], "all-zero A");
}

/// `k = 0` runs one zero-depth block: accumulators stay zero, the
/// epilogue still fires, and the empty panels still validate.
#[test]
fn k_zero_applies_epilogue() {
    let em = EncodedMatrix::encode(&Tensor::zeros(&[0, 5])).unwrap();
    let bias = [1.0f32, -2.0, 0.5, 4.0, -0.25];
    for v in GemmVariant::available() {
        let got = gemm_encoded_with(v, &[], &em, 3, Epilogue::Bias(&bias)).unwrap();
        assert_eq!(got.len(), 15, "{}", v.name());
        for (j, g) in got.iter().enumerate() {
            assert_eq!(g.to_bits(), bias[j % 5].to_bits(), "{} col {j}", v.name());
        }
        let got = gemm_encoded_with(v, &[], &em, 3, Epilogue::BiasRelu(&bias)).unwrap();
        for (j, g) in got.iter().enumerate() {
            assert_eq!(g.to_bits(), bias[j % 5].max(0.0).to_bits(), "{}", v.name());
        }
    }
}

/// Denormal-heavy operands: a weight tensor whose dequantization step is
/// itself subnormal, and an `A` full of subnormals. The fused path must
/// reproduce the reference's subnormal arithmetic exactly — no
/// flush-to-zero anywhere in the pipeline.
#[test]
fn denormal_heavy_operands_bit_identical() {
    let mut rng = Rng::seed_from_u64(0xDE_0054);
    let (m, k, n) = (5, KC + 9, 2 * NR + 3);
    // Weight magnitudes around 1e-38: alpha/255 lands deep in the
    // subnormal range, so every decoded value is subnormal.
    let b: Vec<f32> = (0..k * n)
        .map(|_| rng.gen_range_f32(-1.0, 1.0) * 1e-38)
        .collect();
    let a: Vec<f32> = (0..m * k)
        .map(|_| {
            if rng.gen_f64() < 0.25 {
                0.0
            } else {
                rng.gen_range_f32(-4.0, 4.0)
            }
        })
        .collect();
    assert_cross_engine(m, k, n, &a, &b, "subnormal B");
    // Subnormal A against ordinary weights.
    let a_sub: Vec<f32> = (0..m * k)
        .map(|_| rng.gen_range_f32(-1.0, 1.0) * f32::MIN_POSITIVE * 0.5)
        .collect();
    let b_ord: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
    assert_cross_engine(m, k, n, &a_sub, &b_ord, "subnormal A");
}

/// Depth-row counts an emitter call sees: none, one, odd, short of `KC`,
/// exactly `KC`, and enough rows that a panel of any width holds every
/// code with both signs.
fn emitter_rows(w: usize) -> [usize; 7] {
    [0, 1, 3, 2 * 7, KC - 1, KC, (2 * 256usize).div_ceil(w)]
}

/// `rows * w` codes starting at panel element `e0`, element `e` holding
/// code `e % 256` and sign `(e / 256) % 2`, so every code appears with
/// both signs within 512 elements; the sign plane covers elements
/// `0..e0 + rows * w`.
fn emitter_operands(e0: usize, rows: usize, w: usize) -> (Vec<u8>, Vec<u8>) {
    let end = e0 + rows * w;
    let codes: Vec<u8> = (e0..end).map(|e| (e % 256) as u8).collect();
    let mut signs = vec![0u8; end.div_ceil(8)];
    for e in 0..end {
        if (e / 256) % 2 == 1 {
            signs[e / 8] |= 1 << (e % 8);
        }
    }
    (codes, signs)
}

/// Every `f32` emitter tier writes the scalar tier's bits — which are
/// `code as f32 * step`, negated under the sign bit — for all 256 codes
/// with both signs, every panel width, aligned and unaligned starts, and
/// every row count class; lanes past the panel width stay untouched.
#[test]
fn f32_emitter_tiers_match_the_scalar_tier() {
    const SENTINEL: u32 = 0x7FC0_BEEF;
    let steps = [
        0.731 / 255.0,
        0.0,
        f32::MIN_POSITIVE / 255.0,
        f32::MAX / 15.0,
        f32::INFINITY,
        f32::NAN,
        f32::from_bits(0xFFC0_1234),
    ];
    for step in steps {
        let dq = Dequant::new(step);
        for w in 1..=NR {
            for rows in emitter_rows(w) {
                for e0 in [0, 8, 3, 2 * KC * w] {
                    let (codes, signs) = emitter_operands(e0, rows, w);
                    let ctx = format!("step {step:e} w {w} rows {rows} e0 {e0}");
                    let run = |v: GemmVariant| {
                        let mut dst = vec![f32::from_bits(SENTINEL); rows * NR];
                        emit_f32(v, &dq, &codes, &signs, e0, rows, w, &mut dst);
                        dst.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
                    };
                    let want = run(GemmVariant::Scalar);
                    for (i, &got) in want.iter().enumerate() {
                        let (r, l) = (i / NR, i % NR);
                        if l >= w {
                            assert_eq!(got, SENTINEL, "{ctx}: pad lane ({r}, {l}) written");
                            continue;
                        }
                        let e = e0 + r * w + l;
                        let mag = (e % 256) as f32 * step;
                        let value = if (e / 256) % 2 == 1 { -mag } else { mag };
                        assert_eq!(got, value.to_bits(), "{ctx}: scalar tier ({r}, {l})");
                    }
                    for v in GemmVariant::available() {
                        assert_eq!(run(v), want, "{ctx}: {} tier", v.name());
                    }
                }
            }
        }
    }
}

/// Weights whose panel streams put long codes across every kind of
/// boundary: `lead` short codes, then long codes only, so each long code
/// starts on an odd nibble when `lead` is odd and straddles every 64-nibble
/// block boundary the bulk decoder splits at, and the `KC`-deep depth
/// blocks end part-way through a 64-nibble block. Values are `code / 255`
/// with a full-scale entry, so they quantize to exactly those codes.
fn straddling_weights(k: usize, n: usize, lead: usize) -> Vec<f32> {
    (0..k * n)
        .map(|i| {
            let code = if i == 0 {
                255
            } else if i <= lead {
                (i % 8) as u32
            } else {
                8 + (i as u32 * 37) % 248
            };
            let x = code as f32 / 255.0;
            if i % 3 == 1 {
                -x
            } else {
                x
            }
        })
        .collect()
}

/// The fused GEMM over streams of long codes straddling 64-nibble block
/// and `KC`-block boundaries stays bit-identical to decode-then-GEMM and
/// the reference under every tier, at `k` = 0 and 1, odd, short of, on
/// and past `KC`, and panel widths 1 to 16.
#[test]
fn long_codes_across_block_boundaries_bit_identical() {
    for lead in [0, 1, 2, 5] {
        for k in [0, 1, 3, KC - 1, KC, KC + 1, 2 * KC + 3] {
            for n in [1, 7, NR, NR + 5, 2 * NR + 1] {
                let b = straddling_weights(k, n, lead);
                for m in [1, 5] {
                    let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
                    assert_cross_engine(m, k, n, &a, &b, &format!("lead {lead} {m}x{k}x{n}"));
                }
            }
        }
    }
}

/// A row count whose code count overflows `usize` is refused, never
/// wrapped past the bounds check into an out-of-bounds SIMD write.
#[test]
#[should_panic(expected = "emitter operands out of bounds")]
fn f32_emitter_refuses_an_overflowing_row_count() {
    let (dq, v) = (Dequant::new(1.0), GemmVariant::detect());
    let mut dst = [0.0f32; NR];
    let (codes, signs, rows) = ([0u8; NR], [0u8; 2], usize::MAX / 8);
    emit_f32(v, &dq, &codes, &signs, 0, rows, NR, &mut dst);
}
