//! Properties of the integer-domain decode-fused GEMM.
//!
//! 1. **Exact across tiers.** Every [`IntVariant`] the host runs is
//!    `to_bits()`-identical to the scalar integer reference over ragged
//!    shapes: `m` from 4 to 67, odd `k`, `k` across and exactly on `KC`
//!    boundaries, `n` not a multiple of `NR`, `k = 0` under every
//!    epilogue, and all-zero rows (scale 0), and over weights whose long
//!    codes straddle the bulk decoder's blocks. Every signed-pair emitter
//!    tier writes the scalar tier's pairs for all 256 codes with both
//!    signs, every panel width and every row-count class.
//! 2. **No accumulator wraps.** The worst-case operand — every `|a|` at the
//!    row maximum, every weight code 255 with one sign — matches the
//!    output built from exact `i64` block sums.
//! 3. **Bounded error, exact fallbacks.** The auto path behind
//!    `ops::matmul_encoded*` stays within relative L2 `1e-3` per row of the
//!    `f32` oracle ([`gemm_encoded_with`]) on random and BERT-profile
//!    operands; calls with non-finite `A`, with `m < MR`, or with scales
//!    outside the normal `f32` range return the oracle's bits.

use spark_data::ModelProfile;
use spark_tensor::emit::emit_pairs;
use spark_tensor::encoded::EncodedMatrix;
use spark_tensor::gemm::{
    gemm_encoded_int_with, gemm_encoded_with, Epilogue, GemmVariant, IntVariant, KC, MR, NR,
};
use spark_tensor::{ops, Tensor};
use spark_util::prop::check;
use spark_util::{prop_assert, Rng};

/// `(m, k, n, a, b, bias)`.
type Case = (usize, usize, usize, Vec<f32>, Vec<f32>, Vec<f32>);

/// Depths on and around the `KC` block boundaries.
const BOUNDARY_K: [usize; 7] = [1, KC - 1, KC, KC + 1, 2 * KC, 2 * KC + 1, 3 * KC + 1];

fn int_case(rng: &mut Rng) -> Case {
    let m = rng.gen_range(MR..68);
    let k = if rng.gen_bool() {
        BOUNDARY_K[rng.gen_range(0..BOUNDARY_K.len())]
    } else {
        rng.gen_range(1..3 * KC + 8)
    };
    let n = rng.gen_range(1..80);
    let mut a: Vec<f32> = (0..m * k)
        .map(|_| {
            if rng.gen_f64() < 0.25 {
                0.0
            } else {
                rng.gen_range_f32(-4.0, 4.0)
            }
        })
        .collect();
    // An all-zero row quantizes with scale 0.
    if rng.gen_bool() {
        let r = rng.gen_range(0..m);
        a[r * k..(r + 1) * k].fill(0.0);
    }
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(-3.0, 3.0)).collect();
    (m, k, n, a, b, bias)
}

fn case_valid((m, k, n, a, b, bias): &Case) -> bool {
    *m > 0 && *n > 0 && a.len() == m * k && b.len() == k * n && bias.len() == *n
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

/// The three epilogues over `bias`.
fn epilogues(bias: &[f32]) -> [(Epilogue<'_>, &'static str); 3] {
    [
        (Epilogue::None, "none"),
        (Epilogue::Bias(bias), "bias"),
        (Epilogue::BiasRelu(bias), "bias_relu"),
    ]
}

/// Every tier against the scalar integer reference, under every epilogue.
fn tiers_match_scalar(m: usize, a: &[f32], em: &EncodedMatrix, bias: &[f32]) -> Result<(), String> {
    for (epi, name) in epilogues(bias) {
        let want =
            gemm_encoded_int_with(IntVariant::Scalar, a, em, m, epi).map_err(|e| e.to_string())?;
        for v in IntVariant::available() {
            let got = gemm_encoded_int_with(v, a, em, m, epi).map_err(|e| e.to_string())?;
            bits_eq(&got, &want).map_err(|e| format!("{} {name}: {e}", v.name()))?;
        }
    }
    Ok(())
}

fn encode(k: usize, n: usize, b: &[f32]) -> EncodedMatrix {
    EncodedMatrix::encode(&Tensor::from_vec(b.to_vec(), &[k, n]).unwrap())
        .expect("finite weights encode")
}

#[test]
fn int_tiers_bit_identical_to_scalar_reference() {
    check(
        "int_tiers_bit_identical_to_scalar_reference",
        int_case,
        |case| {
            if !case_valid(case) {
                return Ok(());
            }
            let (m, k, n, ref a, ref b, ref bias) = *case;
            tiers_match_scalar(m, a, &encode(k, n, b), bias).map_err(|e| format!("{m}x{k}x{n} {e}"))
        },
    );
}

/// Pinned shapes at the edges random sampling reaches rarely.
#[test]
fn int_tiers_bit_identical_on_pinned_edges() {
    let mut rng = Rng::seed_from_u64(0x1A7_ED6E);
    let shapes = [
        (MR, KC, NR),
        (67, 3 * KC + 1, 2 * NR + 1),
        (5, 1, 1),
        (9, KC - 1, NR + 1),
        (8, KC + 1, 4 * NR),
        (13, 2 * KC, 5 * NR - 1),
        (MR, 2 * KC + 1, NR - 1),
        (6, 3, 4 * NR + 1),
    ];
    for (m, k, n) in shapes {
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range_f32(-4.0, 4.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(-3.0, 3.0)).collect();
        let em = encode(k, n, &b);
        tiers_match_scalar(m, &a, &em, &bias).unwrap_or_else(|e| panic!("{m}x{k}x{n} {e}"));
        // All-zero A: every row has scale 0 and the output is the
        // epilogue of zero.
        let zeros = vec![0.0; m * k];
        tiers_match_scalar(m, &zeros, &em, &bias)
            .unwrap_or_else(|e| panic!("zero A {m}x{k}x{n} {e}"));
        let got = gemm_encoded_int_with(IntVariant::Scalar, &zeros, &em, m, Epilogue::Bias(&bias))
            .unwrap();
        for (j, g) in got.iter().enumerate() {
            assert_eq!(
                g.to_bits(),
                bias[j % n].to_bits(),
                "zero A {m}x{k}x{n} col {j}"
            );
        }
    }
}

/// `k = 0`: no block runs, and every tier returns the epilogue of zero —
/// the oracle's bits.
#[test]
fn int_k_zero_applies_every_epilogue() {
    let em = EncodedMatrix::encode(&Tensor::zeros(&[0, 5])).unwrap();
    let bias = [1.0f32, -2.0, 0.5, 4.0, -0.25];
    for m in [MR, 7] {
        for (epi, name) in epilogues(&bias) {
            let want = gemm_encoded_with(GemmVariant::Scalar, &[], &em, m, epi).unwrap();
            for v in IntVariant::available() {
                let got = gemm_encoded_int_with(v, &[], &em, m, epi).unwrap();
                bits_eq(&got, &want).unwrap_or_else(|e| panic!("{} {name} m={m}: {e}", v.name()));
            }
        }
    }
}

/// Every `|a|` equal to the row maximum (so every activation quantizes to
/// `±32767`) against weights whose codes are all 255 with one sign: each
/// `KC` block sums `KC * 255 * 32767 = 1_069_514_880`, the largest
/// magnitude an in-range block can reach. The output must equal the flush
/// of exact `i64` block sums, at `k = KC` and across four blocks at
/// `k = 3 * KC + 1`.
#[test]
fn worst_case_operands_do_not_wrap_an_accumulator() {
    let (m, n, amax) = (MR + 1, NR + 3, 2.5f32);
    for k in [KC, 3 * KC + 1] {
        for (a_sign, w_sign) in [(1.0f32, 1.0f32), (1.0, -1.0), (-1.0, 1.0)] {
            let a = vec![a_sign * amax; m * k];
            let em = encode(k, n, &vec![w_sign; k * n]);
            let step = em.profile().step();
            assert!(
                em.decode()
                    .unwrap()
                    .as_slice()
                    .iter()
                    .all(|&v| v == w_sign * 255.0 * step),
                "every weight must decode to code 255"
            );
            let factor = amax / 32767.0 * step;
            let mut want = 0.0f32;
            for kb in (0..k).step_by(KC) {
                let depth = KC.min(k - kb) as i64;
                let sum = depth * i64::from(a_sign as i16 * 32767) * i64::from(w_sign as i16 * 255);
                assert!(
                    sum.unsigned_abs() <= i32::MAX as u64,
                    "block sum {sum} exceeds i32"
                );
                want += sum as f32 * factor;
            }
            assert!(want.abs() > 0.99 * (k as f32 * amax * 255.0 * step));
            for v in IntVariant::available() {
                let got = gemm_encoded_int_with(v, &a, &em, m, Epilogue::None).unwrap();
                for (i, g) in got.iter().enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{} k={k} signs ({a_sign}, {w_sign}) element {i}: {g} vs {want}",
                        v.name()
                    );
                }
            }
        }
    }
    // Even `|q| = 32768` (the one `i16` quantization never produces) keeps
    // a block inside `i32`.
    assert!(KC as i64 * 32768 * 255 < i64::from(i32::MAX));
}

/// Worst per-row relative L2 error of `got` against `want`, each row's
/// error divided by the L2 norm of the same row of `scale` (`want` itself,
/// or the pre-ReLU output for a ReLU epilogue, since ReLU never grows an
/// error). A row whose `scale` is zero must match exactly.
fn worst_row_rel_l2(got: &[f32], want: &[f32], scale: &[f32], n: usize) -> f64 {
    let mut worst = 0.0f64;
    for ((g, w), s) in got.chunks(n).zip(want.chunks(n)).zip(scale.chunks(n)) {
        let err: f64 = g
            .iter()
            .zip(w)
            .map(|(&g, &w)| (f64::from(g) - f64::from(w)).powi(2))
            .sum();
        let norm: f64 = s.iter().map(|&v| f64::from(v).powi(2)).sum();
        let rel = match (err == 0.0, norm == 0.0) {
            (true, _) => 0.0,
            (false, true) => f64::INFINITY,
            (false, false) => (err / norm).sqrt(),
        };
        worst = worst.max(rel);
    }
    worst
}

/// Checks every public encoded op at `m >= MR` against the `f32` oracle
/// within relative L2 `1e-3` per row, and returns the worst error seen.
fn auto_within_bound(at: &Tensor, em: &EncodedMatrix, bias: &[f32], ctx: &str) -> f64 {
    let (m, n) = (at.dims()[0], em.n());
    let a = at.as_slice();
    let oracle = |epi| gemm_encoded_with(GemmVariant::detect(), a, em, m, epi).unwrap();
    let (plain, biased, relu) = (
        oracle(Epilogue::None),
        oracle(Epilogue::Bias(bias)),
        oracle(Epilogue::BiasRelu(bias)),
    );
    let checks = [
        (
            "matmul_encoded",
            ops::matmul_encoded(at, em).unwrap(),
            &plain,
            &plain,
        ),
        (
            "matmul_nt_encoded",
            ops::matmul_nt_encoded(at, em).unwrap(),
            &plain,
            &plain,
        ),
        (
            "matmul_bias_encoded",
            ops::matmul_bias_encoded(at, em, bias).unwrap(),
            &biased,
            &biased,
        ),
        (
            "matmul_bias_relu_encoded",
            ops::matmul_bias_relu_encoded(at, em, bias).unwrap(),
            &relu,
            &biased,
        ),
    ];
    let mut worst = 0.0f64;
    for (name, got, want, scale) in checks {
        let e = worst_row_rel_l2(got.as_slice(), want, scale, n);
        assert!(e <= 1e-3, "{ctx} {name}: worst row relative L2 {e:e}");
        worst = worst.max(e);
    }
    worst
}

#[test]
fn auto_path_error_is_bounded_on_random_operands() {
    let mut rng = Rng::seed_from_u64(0xB0_0DED);
    for (m, k, n) in [
        (MR, 300, 64),
        (17, KC + 1, 37),
        (64, 512, 128),
        (67, 3 * KC + 1, 80),
    ] {
        let at = Tensor::from_fn(&[m, k], |_| rng.gen_range_f32(-4.0, 4.0));
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range_f32(-2.0, 2.0)).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(-3.0, 3.0)).collect();
        auto_within_bound(
            &at,
            &encode(k, n, &b),
            &bias,
            &format!("random {m}x{k}x{n}"),
        );
    }
}

/// BERT-profile weights and activations (Gaussian bodies with rare
/// outliers 36–45 standard deviations out, which stretch each row's
/// scale), through both shapes of a BERT-base FFN block at batch 64.
#[test]
fn auto_path_error_is_bounded_on_bert_profile_operands() {
    let profile = ModelProfile::bert();
    let (m, d, h) = (64, 768, 3072);
    let x = profile
        .sample_activations(m * d, 31)
        .reshape(&[m, d])
        .unwrap();
    let w1 = profile.sample_tensor(d * h, 32).reshape(&[d, h]).unwrap();
    let w2 = profile.sample_tensor(h * d, 33).reshape(&[h, d]).unwrap();
    let (e1, e2) = (
        EncodedMatrix::encode(&w1).unwrap(),
        EncodedMatrix::encode(&w2).unwrap(),
    );
    let bias1 = vec![0.01f32; h];
    let worst1 = auto_within_bound(&x, &e1, &bias1, "bert up");
    let hidden = ops::relu(&ops::matmul_encoded(&x, &e1).unwrap());
    let worst2 = auto_within_bound(&hidden, &e2, &vec![-0.01f32; d], "bert down");
    // The integer path really ran: it is not the oracle to the bit.
    if IntVariant::detect().is_some() {
        assert!(
            worst1 > 0.0 && worst2 > 0.0,
            "auto path returned the oracle's bits"
        );
    }
}

/// At `m >= MR` with in-range operands the auto path is exactly the
/// detected integer tier.
#[test]
fn auto_path_dispatches_to_the_detected_int_tier() {
    let Some(variant) = IntVariant::detect() else {
        return;
    };
    let mut rng = Rng::seed_from_u64(0xD15_BA7C);
    let (m, k, n) = (9, 2 * KC + 5, 3 * NR + 2);
    let at = Tensor::from_fn(&[m, k], |_| rng.gen_range_f32(-1.0, 1.0));
    let em = encode(
        k,
        n,
        &(0..k * n)
            .map(|_| rng.gen_range_f32(-1.0, 1.0))
            .collect::<Vec<_>>(),
    );
    let got = ops::matmul_encoded(&at, &em).unwrap();
    let want = gemm_encoded_int_with(variant, at.as_slice(), &em, m, Epilogue::None).unwrap();
    bits_eq(got.as_slice(), &want).unwrap();
}

/// A NaN or an infinity anywhere in `A`, or a row so small its scale is
/// subnormal, sends the whole call to the `f32` path: the output is the
/// oracle's, bit for bit, NaNs included.
#[test]
fn non_finite_or_tiny_rows_take_the_f32_path() {
    let mut rng = Rng::seed_from_u64(0x0F_A11B);
    let (m, k, n) = (8, KC + 9, 2 * NR + 3);
    let em = encode(
        k,
        n,
        &(0..k * n)
            .map(|_| rng.gen_range_f32(-1.0, 1.0))
            .collect::<Vec<_>>(),
    );
    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
    for (label, bad) in [
        ("nan", f32::NAN),
        ("+inf", f32::INFINITY),
        ("-inf", f32::NEG_INFINITY),
        ("subnormal row", f32::MIN_POSITIVE / 4.0),
    ] {
        let mut a: Vec<f32> = (0..m * k).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();
        if label == "subnormal row" {
            a[3 * k..4 * k].iter_mut().for_each(|v| *v *= bad);
        } else {
            a[3 * k + 7] = bad;
        }
        let at = Tensor::from_vec(a.clone(), &[m, k]).unwrap();
        let oracle = |epi| gemm_encoded_with(GemmVariant::detect(), &a, &em, m, epi).unwrap();
        bits_eq(
            ops::matmul_encoded(&at, &em).unwrap().as_slice(),
            &oracle(Epilogue::None),
        )
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        bits_eq(
            ops::matmul_bias_relu_encoded(&at, &em, &bias)
                .unwrap()
                .as_slice(),
            &oracle(Epilogue::BiasRelu(&bias)),
        )
        .unwrap_or_else(|e| panic!("{label} bias_relu: {e}"));
    }
}

/// Below `MR` rows the auto path never leaves `f32`: `matmul_encoded` is
/// decode-then-GEMM to the bit.
#[test]
fn below_mr_auto_is_bit_identical_to_decode_then_gemm() {
    let mut rng = Rng::seed_from_u64(0x5_4A11);
    let (k, n) = (2 * KC + 3, 4 * NR + 5);
    let em = encode(
        k,
        n,
        &(0..k * n)
            .map(|_| rng.gen_range_f32(-2.0, 2.0))
            .collect::<Vec<_>>(),
    );
    let decoded = em.decode().unwrap();
    for m in 1..MR {
        let at = Tensor::from_fn(&[m, k], |_| rng.gen_range_f32(-4.0, 4.0));
        let got = ops::matmul_encoded(&at, &em).unwrap();
        let want = ops::matmul(&at, &decoded).unwrap();
        bits_eq(got.as_slice(), want.as_slice()).unwrap_or_else(|e| panic!("m={m}: {e}"));
    }
}

/// The bounded-error property over random ragged shapes, `m >= MR`.
#[test]
fn auto_path_error_is_bounded_on_random_shapes() {
    check(
        "auto_path_error_is_bounded_on_random_shapes",
        int_case,
        |case| {
            if !case_valid(case) || case.0 < MR || case.2 < NR {
                return Ok(());
            }
            let (m, k, n, ref a, ref b, _) = *case;
            let em = encode(k, n, b);
            let got = ops::matmul_encoded(&Tensor::from_vec(a.clone(), &[m, k]).unwrap(), &em)
                .map_err(|e| e.to_string())?;
            let want = gemm_encoded_with(GemmVariant::detect(), a, &em, m, Epilogue::None)
                .map_err(|e| e.to_string())?;
            let e = worst_row_rel_l2(got.as_slice(), &want, &want, n);
            prop_assert!(e <= 1e-3, "{m}x{k}x{n}: worst row relative L2 {e:e}");
            Ok(())
        },
    );
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

/// Every signed-pair emitter tier writes the scalar tier's `±code`
/// pairs for all 256 codes with both signs, every panel width, aligned
/// and unaligned starts, and odd, short, full and long row counts: depth
/// `2 * pair + h` of lane `l` at `(pair * NR + l) * 2 + h`, a zero closing
/// an odd count's last pair, lanes past the panel width untouched.
#[test]
fn pair_emitter_tiers_match_the_scalar_tier() {
    for w in 1..=NR {
        for rows in [
            0,
            1,
            2,
            3,
            2 * 7 + 1,
            KC - 1,
            KC,
            (2 * 256usize).div_ceil(w),
        ] {
            for e0 in [0, 8, 3, 2 * KC * w] {
                let (codes, signs) = emitter_operands(e0, rows, w);
                let ctx = format!("w {w} rows {rows} e0 {e0}");
                let len = rows.div_ceil(2) * 2 * NR;
                let run = |v: IntVariant| {
                    let mut dst = vec![i16::MIN; len];
                    emit_pairs(v, &codes, &signs, e0, rows, w, &mut dst);
                    dst
                };
                let want = run(IntVariant::Scalar);
                for (i, &got) in want.iter().enumerate() {
                    let (pair, l, h) = (i / (2 * NR), i / 2 % NR, i % 2);
                    let r = 2 * pair + h;
                    let expect = match (l < w, r < rows) {
                        (false, _) => i16::MIN,
                        (true, false) => 0,
                        (true, true) => {
                            let e = e0 + r * w + l;
                            let code = (e % 256) as i16;
                            if (e / 256) % 2 == 1 {
                                -code
                            } else {
                                code
                            }
                        }
                    };
                    assert_eq!(got, expect, "{ctx}: scalar tier (row {r}, lane {l})");
                }
                for v in IntVariant::available() {
                    assert_eq!(run(v), want, "{ctx}: {} tier", v.name());
                }
            }
        }
    }
}

/// Every integer tier stays bit-identical to the scalar reference over
/// weights whose long codes straddle the bulk decoder's 64-nibble blocks
/// and end `KC` depth blocks part-way through one (`lead` short codes,
/// then long codes only), at `k` = 0 and 1, odd, short of, on and past
/// `KC`, and panel widths 1 to 16 and beyond.
#[test]
fn int_tiers_bit_identical_across_block_boundaries() {
    for lead in [0, 1, 2, 5] {
        for k in [0, 1, 3, KC - 1, KC, KC + 1, 2 * KC + 3] {
            for n in [1, 7, NR, NR + 5, 2 * NR + 1] {
                let b: Vec<f32> = (0..k * n)
                    .map(|i| {
                        let code = match i {
                            0 => 255,
                            i if i <= lead => (i % 8) as u32,
                            i => 8 + (i as u32 * 37) % 248,
                        };
                        let x = code as f32 / 255.0;
                        if i % 3 == 1 {
                            -x
                        } else {
                            x
                        }
                    })
                    .collect();
                let em = encode(k, n, &b);
                let m = MR + 1;
                let a: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
                let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.5 - 1.0).collect();
                tiers_match_scalar(m, &a, &em, &bias)
                    .unwrap_or_else(|e| panic!("lead {lead} {m}x{k}x{n} {e}"));
            }
        }
    }
}

/// A row count whose code count overflows `usize` is refused, never
/// wrapped past the bounds check into an out-of-bounds SIMD write.
#[test]
#[should_panic(expected = "emitter operands out of bounds")]
fn pair_emitter_refuses_an_overflowing_row_count() {
    let variant = IntVariant::detect().unwrap_or(IntVariant::Scalar);
    let mut dst = [0i16; 2 * NR];
    let (codes, signs, rows) = ([0u8; 2 * NR], [0u8; 4], usize::MAX / 8);
    emit_pairs(variant, &codes, &signs, 0, rows, NR, &mut dst);
}
