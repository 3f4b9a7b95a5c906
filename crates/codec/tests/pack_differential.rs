//! Differential suite for the nibble packer: every [`CodecVariant`] tier
//! of [`EncodePlan`] against the scalar table loop and against a per-value
//! `mode.encode(v)` reference, under both [`EncodeMode`]s.
//!
//! The contract is bit-identity: the same stream bytes (padding nibble
//! included), nibble count and [`CodeStats`] for every input. The inputs
//! cover every code, runs of long codes straddling the kernels' 32- and
//! 64-value blocks, odd nibble totals, every length around the blocks the
//! kernels leave to the table loop, and seeded random mixes.

use spark_codec::{CodeStats, CodecVariant, EncodeMode, EncodePlan, EncodedTensor, NibbleStream};

const MODES: [EncodeMode; 2] = [EncodeMode::Compensated, EncodeMode::Truncated];

/// The per-value encoder: each value's code, its statistics, its nibbles.
fn per_value(values: &[u8], mode: EncodeMode) -> EncodedTensor {
    let mut stats = CodeStats::new();
    let mut stream = NibbleStream::new();
    for &v in values {
        let code = mode.encode(v);
        stats.record(v, code);
        stream.extend(code.nibbles());
    }
    EncodedTensor {
        stream,
        elements: values.len(),
        stats,
    }
}

/// Asserts every tier encodes `values` exactly as the per-value reference.
fn assert_tiers_agree(values: &[u8], what: &str) {
    for mode in MODES {
        let want = per_value(values, mode);
        let plan = EncodePlan::cached(mode);
        for variant in CodecVariant::all() {
            let got = plan.encode_with(variant, values);
            let at = format!("{what}, {mode:?}, {}", variant.name());
            assert_eq!(got.stream.as_bytes(), want.stream.as_bytes(), "bytes: {at}");
            assert_eq!(got.stream.len(), want.stream.len(), "nibbles: {at}");
            assert_eq!(got.stats, want.stats, "stats: {at}");
            assert_eq!(got.elements, values.len(), "elements: {at}");
        }
    }
}

/// A seeded LCG byte stream.
fn lcg(seed: u64) -> impl FnMut() -> u8 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u8
    }
}

#[test]
fn every_code_in_every_block_position() {
    // All 256 codes, rotated so each code sits at every offset of a
    // 64-value block, and repeated so the kernels see whole blocks.
    let all: Vec<u8> = (0..=255).collect();
    for rot in 0..64 {
        let mut values = all.clone();
        values.rotate_left(rot);
        values.extend_from_slice(&all);
        assert_tiers_agree(&values, &format!("all codes rotated {rot}"));
    }
}

#[test]
fn every_length_around_the_blocks() {
    // Lengths 0..=300 cross the point where each kernel stops (one block
    // before the end) and the table loop takes over, for all-short,
    // all-long and mixed content.
    let mut next = lcg(0x9AC4);
    let mixed: Vec<u8> = (0..300).map(|_| next()).collect();
    for len in 0..=300 {
        assert_tiers_agree(&vec![3u8; len], &format!("all short, len {len}"));
        assert_tiers_agree(&vec![200u8; len], &format!("all long, len {len}"));
        assert_tiers_agree(&mixed[..len], &format!("mixed, len {len}"));
    }
}

#[test]
fn long_runs_straddle_block_boundaries() {
    // A run of long codes, lossless and lossy, starting at every offset
    // around the 32- and 64-value block edges, in a field of short codes.
    for long in [200u8, 18, 170, 255, 8] {
        for start in 0..140 {
            for run in [1usize, 2, 31, 33, 65] {
                let mut values = vec![5u8; 260];
                for v in values.iter_mut().skip(start).take(run) {
                    *v = long;
                }
                assert_tiers_agree(&values, &format!("run of {run}x{long} at {start}"));
            }
        }
    }
}

#[test]
fn odd_nibble_totals_leave_a_zero_padding_nibble() {
    // One short code among long ones makes the nibble total odd wherever
    // it sits; the final byte's low nibble must be zero on every tier.
    for len in [129usize, 191, 256, 257] {
        for pos in [0, 1, 63, 64, 65, len / 2, len - 1] {
            let mut values = vec![250u8; len];
            values[pos] = 6;
            assert_tiers_agree(&values, &format!("odd total, len {len}, short at {pos}"));
            let enc = EncodePlan::cached(EncodeMode::Compensated).encode(&values);
            assert_eq!(enc.stream.len() % 2, 1);
            assert_eq!(enc.stream.as_bytes().last().map(|b| b & 0x0F), Some(0));
        }
    }
}

#[test]
fn seeded_random_mixes_at_every_density() {
    for (seed, density) in [(1u64, 0u64), (2, 10), (3, 50), (4, 90), (5, 100)] {
        let mut next = lcg(seed);
        let values: Vec<u8> = (0..5000)
            .map(|_| {
                let r = next();
                if u64::from(next()) % 100 < density {
                    r | 8
                } else {
                    r % 8
                }
            })
            .collect();
        assert_tiers_agree(&values, &format!("seed {seed}, {density}% long"));
    }
}

#[test]
fn pack_into_appends_after_existing_bytes() {
    // The encoded-weight panels pack straight after a container header:
    // appending must leave the prefix alone and match a fresh encode.
    let mut next = lcg(77);
    let values: Vec<u8> = (0..1000).map(|_| next()).collect();
    let plan = EncodePlan::cached(EncodeMode::Compensated);
    let want = plan.encode_with(CodecVariant::Scalar, &values);
    for variant in CodecVariant::all() {
        let mut out = vec![0xEE; 32];
        let (nibbles, stats) = plan.pack_into(variant, &values, &mut out);
        assert_eq!(&out[..32], &[0xEE; 32], "{}", variant.name());
        assert_eq!(&out[32..], want.stream.as_bytes(), "{}", variant.name());
        assert_eq!(nibbles, want.stream.len(), "{}", variant.name());
        assert_eq!(stats, want.stats, "{}", variant.name());
    }
}
