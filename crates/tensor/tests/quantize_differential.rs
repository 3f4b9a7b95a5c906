//! Differential suite for the quantize half of the encode front end: every
//! [`CodecVariant`] tier of the abs-max and quantize kernels against the
//! scalar expression, over the values where a vectorized rounding or
//! sign rule could drift — `-0.0`, exact `.5` ties after scaling, the
//! largest float below a tie, `x == ±alpha`, subnormals, overflow to
//! infinity after scaling — and seeded random rows of every width.

use spark_codec::CodecVariant;
use spark_tensor::quantize::{
    abs_max_bits, finite_abs_max, quantize_rows, quantize_slice, MagnitudeScale, LANES,
};
use spark_util::Rng;

/// The scalar rule written out: code and sign of one value.
fn expected(x: f32, scale: MagnitudeScale, bits: u8) -> (u8, bool) {
    let qmax = ((1u32 << bits) - 1) as f32;
    let code = (x.abs() / scale.alpha() * qmax).round().min(qmax) as u8;
    (code, x < 0.0)
}

/// Quantizes `src` as one contiguous slice under `variant`.
fn run(variant: CodecVariant, src: &[f32], scale: MagnitudeScale) -> (Vec<u8>, Vec<u8>) {
    let mut codes = vec![0u8; src.len()];
    let mut signs = vec![0u8; src.len().div_ceil(8)];
    quantize_slice(variant, src, scale, &mut codes, &mut signs);
    (codes, signs)
}

/// Asserts every tier quantizes `src` exactly as the scalar rule.
fn assert_tiers(src: &[f32], alpha: f32, bits: u8, what: &str) {
    let scale = MagnitudeScale::new(alpha, bits);
    for variant in CodecVariant::all() {
        let (codes, signs) = run(variant, src, scale);
        for (e, &x) in src.iter().enumerate() {
            let (code, neg) = expected(x, scale, bits);
            let at = format!("{what}, {} element {e} ({x:e})", variant.name());
            assert_eq!(codes[e], code, "code: {at}");
            assert_eq!(signs[e >> 3] >> (e & 7) & 1 == 1, neg, "sign: {at}");
        }
        // Bits past the last element stay clear.
        if !src.len().is_multiple_of(8) {
            let last = signs[src.len() / 8];
            assert_eq!(last >> (src.len() % 8), 0, "padding sign bits: {what}");
        }
    }
}

#[test]
fn negative_zero_is_a_positive_zero() {
    let src = [-0.0f32, 0.0, -0.0, 1.0];
    assert_tiers(&src, 1.0, 8, "signed zeros");
    for variant in CodecVariant::all() {
        let (codes, signs) = run(variant, &src, MagnitudeScale::new(1.0, 8));
        assert_eq!(codes[..3], [0, 0, 0]);
        assert_eq!(signs[0], 0, "{}: -0.0 carries no sign", variant.name());
    }
}

#[test]
fn ties_round_half_away_from_zero() {
    // With alpha == qmax the scaled value is |x| itself, so every `.5`
    // below is an exact tie; the neighbours one ulp either side are not.
    let mut src = Vec::new();
    for i in 0..255 {
        let tie = i as f32 + 0.5;
        src.extend([tie, -tie, f32::from_bits(tie.to_bits() - 1), f32::from_bits(tie.to_bits() + 1)]);
    }
    src.extend([0.49999997f32, -0.49999997, 1.4999999, 0.5, 254.5, 255.0, -255.0]);
    assert_tiers(&src, 255.0, 8, "ties");
    let scale = MagnitudeScale::new(255.0, 8);
    for variant in CodecVariant::all() {
        let (codes, _) = run(variant, &[0.5, 2.5, 0.49999997, 254.5], scale);
        assert_eq!(codes, [1, 3, 0, 255], "{}", variant.name());
    }
    // Ties at every bit width.
    for bits in 1..=8u8 {
        let qmax = ((1u32 << bits) - 1) as f32;
        let ties: Vec<f32> = (0..(1u32 << bits)).map(|i| i as f32 + 0.5).collect();
        assert_tiers(&ties, qmax, bits, &format!("ties at {bits} bits"));
    }
}

#[test]
fn alpha_itself_is_full_scale_and_beyond_saturates() {
    for alpha in [1.0f32, 0.731, 3.0e-3, 1.0e30, f32::MIN_POSITIVE] {
        let src = [alpha, -alpha, alpha * 0.5, -alpha * 0.999, alpha * 2.0];
        assert_tiers(&src, alpha, 8, &format!("alpha {alpha:e}"));
        let (codes, signs) = run(CodecVariant::detect(), &src, MagnitudeScale::new(alpha, 8));
        assert_eq!(codes[..2], [255, 255]);
        assert_eq!(signs[0] & 0b11, 0b10);
    }
    // A clipping scale so small that |x| / alpha overflows to infinity
    // still saturates at qmax.
    assert_tiers(&[3.0e38, -1.0, 1.0e-38], 1.0e-38, 8, "overflow to inf");
}

#[test]
fn subnormals_and_all_zero_tensors() {
    let tiny = f32::from_bits(1);
    let src = [tiny, -tiny, f32::MIN_POSITIVE / 3.0, -f32::MIN_POSITIVE, 0.0];
    assert_tiers(&src, f32::MIN_POSITIVE, 8, "subnormal values, normal alpha");
    assert_tiers(&src, f32::MIN_POSITIVE / 3.0, 8, "subnormal alpha");
    assert_tiers(&src, 1.0, 8, "subnormals under a unit alpha");
    // An all-zero tensor scales by 1.0 and quantizes to zeros.
    assert_eq!(MagnitudeScale::new(0.0, 8).alpha(), 1.0);
    for len in [0usize, 1, 15, 16, 17, 40] {
        assert_tiers(&vec![0.0; len], 0.0, 8, &format!("{len} zeros"));
    }
    // One element, either sign.
    assert_tiers(&[-0.25], 0.25, 8, "one element");
}

#[test]
fn random_rows_of_every_width_and_stride() {
    let mut rng = Rng::seed_from_u64(0x0A11_5EED);
    for w in 0..=LANES {
        for stride in [w.max(1), w + 1, w + 7, 3 * LANES] {
            for rows in [0usize, 1, 2, 7] {
                let len = rows.saturating_sub(1) * stride + w;
                let src: Vec<f32> = (0..len)
                    .map(|_| match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => (rng.gen_f64() as f32 - 0.5) * 3.0,
                    })
                    .collect();
                let scale = MagnitudeScale::new(1.5, 8);
                let want = {
                    let mut codes = vec![0u8; rows * w];
                    let mut signs = vec![0u8; (rows * w).div_ceil(8)];
                    quantize_rows(CodecVariant::Scalar, &src, stride, rows, w, scale, &mut codes, &mut signs);
                    (codes, signs)
                };
                for (e, &code) in want.0.iter().enumerate() {
                    let x = src[e / w.max(1) * stride + e % w.max(1)];
                    assert_eq!((code, want.1[e >> 3] >> (e & 7) & 1 == 1), expected(x, scale, 8));
                }
                for variant in CodecVariant::all() {
                    let mut codes = vec![0u8; rows * w];
                    let mut signs = vec![0u8; (rows * w).div_ceil(8)];
                    quantize_rows(variant, &src, stride, rows, w, scale, &mut codes, &mut signs);
                    let at = format!("{} w {w} stride {stride} rows {rows}", variant.name());
                    assert_eq!(codes, want.0, "codes: {at}");
                    assert_eq!(signs, want.1, "signs: {at}");
                }
            }
        }
    }
}

#[test]
fn abs_max_tiers_agree_and_catch_every_non_finite_value() {
    let mut rng = Rng::seed_from_u64(0xAB5_3A7);
    for len in 0..=40usize {
        let src: Vec<f32> = (0..len).map(|_| (rng.gen_f64() as f32 - 0.5) * 8.0).collect();
        let want = src.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for variant in CodecVariant::all() {
            assert_eq!(finite_abs_max(variant, &src), Some(want), "{} len {len}", variant.name());
            for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for at in 0..len {
                    let mut with = src.clone();
                    with[at] = bad;
                    assert_eq!(
                        finite_abs_max(variant, &with),
                        None,
                        "{} missed {bad} at {at} of {len}",
                        variant.name()
                    );
                    assert!(abs_max_bits(variant, &with) >= f32::INFINITY.to_bits());
                }
            }
        }
    }
    for variant in CodecVariant::all() {
        assert_eq!(finite_abs_max(variant, &[-0.0, -0.0]), Some(0.0));
        assert_eq!(finite_abs_max(variant, &[]), Some(0.0));
        let tiny = f32::from_bits(3);
        assert_eq!(finite_abs_max(variant, &[-tiny, 0.0]), Some(tiny));
    }
}
