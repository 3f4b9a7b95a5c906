//! Exhaustive differential suite: the bit-parallel bulk decoder versus the
//! streaming Fig 7 FSM, for every dispatch variant this host supports.
//!
//! The bulk engine's contract is bit-identity with [`decode_stream_reference`]
//! on every input — same values in the same order, and the same typed
//! [`DecodeError`] on malformed streams. These tests are the tier-1 stage
//! that pins that contract: single bytes exhaustively, structured parities,
//! odd lengths, truncated long codes at every block-boundary offset, and
//! seeded random streams, each run under Scalar and every SIMD variant the
//! host exposes. The resumable [`BulkCursor`] is pinned to the one-call
//! decode: its fills, concatenated, equal [`decode_payload_with`] for
//! every fill size from 1 to the fused GEMM's largest depth block.

use spark_codec::bulk::FILL_SLACK;
use spark_codec::{
    decode_bulk_with, decode_payload_with, decode_stream_reference, encode_tensor, BulkCursor,
    DecodeError, CodecVariant, EncodedTensor, NibbleStream,
};

/// Asserts bulk == FSM (values or typed error) for one stream, all variants.
fn assert_identical(stream: &NibbleStream, what: &str) {
    let want = decode_stream_reference(stream);
    for variant in CodecVariant::all() {
        let got = decode_bulk_with(variant, stream);
        assert_eq!(got, want, "{what} under {}", variant.name());
    }
}

fn encoded(values: &[u8]) -> EncodedTensor {
    encode_tensor(values)
}

#[test]
fn every_single_byte_value() {
    for v in 0u16..=255 {
        let enc = encoded(&[v as u8]);
        assert_identical(&enc.stream, &format!("single value {v}"));
    }
}

#[test]
fn every_adjacent_byte_pair_class() {
    // All four kind adjacencies (short/long x short/long) over the full
    // byte range: pairs (v, v+97) walk every residue and both parities.
    for v in 0u16..=255 {
        let pair = [v as u8, (v + 97) as u8];
        let enc = encoded(&pair);
        assert_identical(&enc.stream, &format!("pair {pair:?}"));
    }
}

#[test]
fn structured_parities() {
    // All-short (one nibble each), all-long (two nibbles each), and the
    // two alternating phases, at lengths that straddle block boundaries
    // (64 nibbles per block).
    for len in [1usize, 2, 31, 32, 63, 64, 65, 127, 128, 129, 200, 513] {
        let all_short: Vec<u8> = vec![3; len];
        let all_long: Vec<u8> = vec![200; len];
        let alt_sl: Vec<u8> = (0..len).map(|i| if i % 2 == 0 { 3 } else { 200 }).collect();
        let alt_ls: Vec<u8> = (0..len).map(|i| if i % 2 == 0 { 200 } else { 3 }).collect();
        for (name, values) in [
            ("all_short", &all_short),
            ("all_long", &all_long),
            ("alt short-first", &alt_sl),
            ("alt long-first", &alt_ls),
        ] {
            let enc = encoded(values);
            assert_identical(&enc.stream, &format!("{name} len {len}"));
        }
    }
}

#[test]
fn odd_nibble_counts() {
    // One short code among longs yields an odd nibble count wherever it
    // sits; sweep its position across two full blocks.
    for pos in 0..130usize {
        let mut values = vec![250u8; 130];
        values[pos] = 5;
        let enc = encoded(&values);
        assert_eq!(enc.stream.len() % 2, 1, "odd count expected at pos {pos}");
        assert_identical(&enc.stream, &format!("odd count, short at {pos}"));
    }
}

#[test]
fn truncated_long_code_at_every_block_offset() {
    // n short codes followed by a lone prev nibble: the truncation lands
    // at every offset within (and across) the 64-nibble block, including
    // exactly at block boundaries. Both decoders must report
    // TruncatedLongCode, never values or a panic.
    for n in 0..130usize {
        let mut stream = NibbleStream::with_capacity(n + 1);
        for i in 0..n {
            stream.push((i % 8) as u8); // short codes
        }
        stream.push(0b1000); // prev of a long code, post never arrives
        let want = decode_stream_reference(&stream);
        assert_eq!(want, Err(DecodeError::TruncatedLongCode), "n={n}");
        for variant in CodecVariant::all() {
            assert_eq!(
                decode_bulk_with(variant, &stream),
                want,
                "truncation after {n} shorts under {}",
                variant.name()
            );
        }
    }
}

#[test]
fn truncation_preceded_by_long_codes() {
    // Same sweep but the prefix is long codes, so the dangling prev's
    // predecessor is a post nibble with its identifier bit possibly set —
    // the case that distinguishes "unconsumed prev" from "identifier set".
    for n in 0..66usize {
        let mut stream = NibbleStream::new();
        for _ in 0..n {
            // 210 encodes as the long pair (0b1101, 0b0010).
            stream.push(0b1101);
            stream.push(0b0010);
        }
        stream.push(0b1111); // dangling prev
        let want = decode_stream_reference(&stream);
        assert_eq!(want, Err(DecodeError::TruncatedLongCode), "n={n}");
        for variant in CodecVariant::all() {
            assert_eq!(decode_bulk_with(variant, &stream), want, "n={n} {}", variant.name());
        }
    }
}

#[test]
fn long_code_straddling_every_block_boundary_offset() {
    // Slide a window of long codes so prev/post pairs land on both sides
    // of the 64-nibble boundary in every phase: shorts then longs, with
    // the short-prefix length sweeping a full block.
    for shorts in 0..66usize {
        let mut values = vec![1u8; shorts];
        values.extend(std::iter::repeat(170).take(80));
        let enc = encoded(&values);
        assert_identical(&enc.stream, &format!("{shorts} shorts then longs"));
    }
}

#[test]
fn seeded_random_streams_per_variant() {
    // Deterministic xorshift-mixed streams at several lengths and
    // long-code densities; every variant must match the FSM exactly.
    let mut state = 0x00D1_F7A5_EED5_1234u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 7, 64, 65, 255, 1024, 4097] {
        for density in [0u64, 10, 50, 90, 100] {
            let values: Vec<u8> = (0..len)
                .map(|_| {
                    let r = next();
                    let byte = (r >> 32) as u8;
                    if r % 100 < density {
                        byte | 8 // force long (>= 8)
                    } else {
                        byte % 8 // force short
                    }
                })
                .collect();
            let enc = encoded(&values);
            assert_identical(&enc.stream, &format!("random len {len} density {density}"));
        }
    }
}

#[test]
fn raw_nibble_streams_not_from_the_encoder() {
    // Arbitrary nibble soup (not necessarily a valid encoding of any
    // tensor): bulk and FSM must still agree on output or typed error.
    let mut state = 0x5EED_BEEF_u64;
    for len in [1usize, 2, 63, 64, 65, 129, 500] {
        for _ in 0..8 {
            let mut stream = NibbleStream::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                stream.push((state >> 60) as u8);
            }
            assert_identical(&stream, &format!("raw soup len {len}"));
        }
    }
}

#[test]
fn empty_stream_decodes_to_nothing() {
    let stream = NibbleStream::new();
    for variant in CodecVariant::all() {
        assert_eq!(decode_bulk_with(variant, &stream), Ok(vec![]), "{}", variant.name());
    }
}

/// The decode-fused GEMM's largest depth block: `KC` rows of an
/// `NR`-wide panel (128 × 16 codes).
const KC_NR: usize = 128 * 16;

#[test]
fn cursor_blocks_concatenate_to_the_whole_payload_decode() {
    // A random long-code mix, and one short code ahead of long codes
    // only (every long code straddles the 64-nibble block boundaries).
    // Each stream holds more than two of the largest blocks, so every
    // block size resumes mid-stream at least once.
    let mut state = 0x0C0_A5E5_u64;
    let random: Vec<u8> = (0..2 * KC_NR + 411)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();
    let mut straddling = vec![3u8];
    straddling.extend((0..2 * KC_NR + 97).map(|i| 8 + (i * 37 % 248) as u8));
    for (what, values) in [("random", &random), ("straddling", &straddling)] {
        let enc = encoded(values);
        let (payload, nibbles) = (enc.stream.as_bytes(), enc.stream.len());
        for variant in CodecVariant::all() {
            let want = decode_payload_with(variant, payload, nibbles).unwrap();
            assert_eq!(want.len(), values.len(), "{what}");
            let mut buf = vec![0u8; KC_NR + FILL_SLACK];
            for block in 1..=KC_NR {
                let ctx = format!("{what} block {block} under {}", variant.name());
                let mut cursor = BulkCursor::new(variant, payload, nibbles);
                let mut got = Vec::with_capacity(want.len() + FILL_SLACK);
                while !cursor.is_done() {
                    let n = cursor.fill(&mut buf[..block + FILL_SLACK], block);
                    assert!(n < block + FILL_SLACK, "{ctx}: fill overran its headroom");
                    assert!(
                        n >= block || cursor.is_done(),
                        "{ctx}: short fill mid-stream"
                    );
                    got.extend_from_slice(&buf[..n]);
                }
                assert_eq!(got, want, "{ctx}");
                let past_end = cursor.fill(&mut buf[..block + FILL_SLACK], block);
                assert_eq!(past_end, 0, "{ctx}: past end");
            }
        }
    }
}

#[test]
fn cursor_on_an_empty_payload_is_done() {
    for variant in CodecVariant::all() {
        let mut cursor = BulkCursor::new(variant, &[], 0);
        assert!(cursor.is_done());
        let got = cursor.fill(&mut [0u8; FILL_SLACK + 1], 1);
        assert_eq!(got, 0, "{}", variant.name());
    }
}
