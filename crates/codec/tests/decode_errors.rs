//! Error-path coverage for the streaming decoders.
//!
//! The codec's robustness story rests on every malformed stream mapping to
//! a *specific* typed [`DecodeError`] variant — these tests pin each path:
//! a dangling long-code prefix at `finish()`, an out-of-range beat pushed
//! into the general decoder, and mid-pair truncation through the packed
//! stream decoders. The seeded corruption sweep in `spark-fault` asserts
//! the same contract statistically; this file asserts it exactly.

use spark_codec::{
    decode_general, decode_stream, encode_general, encode_tensor, encode_value, BeatStream,
    DecodeError, NibbleStream, SparkDecoder, SparkFormat,
};

/// Nibbles that open a long code (identifier bit set), one per c3 value.
const LONG_PREFIXES: [u8; 2] = [0b1000, 0b1001];

#[test]
fn dangling_long_prefix_at_finish_is_truncated_long_code() {
    for prefix in LONG_PREFIXES {
        let mut dec = SparkDecoder::new();
        // A healthy preamble first: full values must not mask the error.
        for nib in encode_value(210).nibbles() {
            dec.push_nibble(nib).unwrap();
        }
        assert_eq!(dec.push_nibble(prefix), Ok(None));
        assert!(dec.enable());
        assert_eq!(dec.finish(), Err(DecodeError::TruncatedLongCode));
    }
}

#[test]
fn mid_pair_truncation_in_packed_stream_is_truncated_long_code() {
    // Build a stream of full values, then drop the final nibble so the last
    // long code is cut between prev and post.
    let values = [5u8, 210, 3, 170];
    let full = encode_tensor(&values);
    assert!(decode_stream(&full.stream).is_ok());
    let mut cut = NibbleStream::new();
    for i in 0..full.stream.len() - 1 {
        cut.push(full.stream.get(i).expect("in range"));
    }
    assert_eq!(decode_stream(&cut), Err(DecodeError::TruncatedLongCode));
}

#[test]
fn invalid_nibble_reports_the_offending_value() {
    let mut dec = SparkDecoder::new();
    for bad in [16u8, 0x1F, 255] {
        assert_eq!(dec.push_nibble(bad), Err(DecodeError::InvalidNibble(bad)));
    }
    // The decoder state is untouched by rejected pushes.
    assert!(!dec.enable());
    assert_eq!(dec.cycles(), 0);
}

#[test]
fn wide_format_nibble_api_rejects_values_past_four_bits() {
    for (base, short) in [(12u8, 6u8), (16, 8)] {
        let fmt = SparkFormat::new(base, short).unwrap();
        let mut dec = SparkDecoder::with_format(fmt);
        for bad in [16u8, 0x1F, 255] {
            assert_eq!(
                dec.push_nibble(bad),
                Err(DecodeError::InvalidNibble(bad)),
                "{fmt}"
            );
        }
        assert!(!dec.enable());
        assert_eq!(dec.cycles(), 0);
        // A 4-bit nibble is a short code of the wider format.
        assert_eq!(dec.push_nibble(15), Ok(Some(15)), "{fmt}");
        // A long code opened by a full-width beat cannot close as a u8.
        let open = 1u16 << (short - 1);
        assert_eq!(dec.push_beat(open), Ok(None), "{fmt}");
        assert_eq!(dec.push_nibble(3), Err(DecodeError::InvalidNibble(3)), "{fmt}");
        assert!(dec.enable());
        assert!(dec.push_beat(3).unwrap().is_some());
        assert!(dec.finish().is_ok());
    }
}

#[test]
fn out_of_range_beat_is_invalid_beat_with_width() {
    for (base, short) in [(6u8, 3u8), (8, 4), (12, 6), (16, 8)] {
        let fmt = SparkFormat::new(base, short).unwrap();
        let mut dec = SparkDecoder::with_format(fmt);
        let bad = 1u16 << short; // one past the widest legal beat
        assert_eq!(
            dec.push_beat(bad),
            Err(DecodeError::InvalidBeat { beat: bad, width: short }),
            "{fmt}"
        );
        // Legal beats still flow after a rejected one.
        assert!(dec.push_beat(0).unwrap().is_some());
        assert!(dec.finish().is_ok());
    }
}

#[test]
fn mid_pair_truncation_in_general_stream_is_truncated_long_code() {
    let fmt = SparkFormat::new(12, 6).unwrap();
    let values: Vec<u16> = (0..64u16).map(|i| i * 61 % (fmt.max_value() + 1)).collect();
    let full = encode_general(&fmt, &values);
    assert!(decode_general(&fmt, &full).is_ok());
    let mut cut = BeatStream::new(full.beat_bits());
    for i in 0..full.len() - 1 {
        cut.push(full.get(i).expect("in range"));
    }
    assert_eq!(decode_general(&fmt, &cut), Err(DecodeError::TruncatedLongCode));
}

#[test]
fn general_decoder_dangling_prefix_at_finish() {
    let fmt = SparkFormat::new(8, 4).unwrap();
    let mut dec = SparkDecoder::with_format(fmt);
    assert_eq!(dec.push_beat(0b1000), Ok(None)); // long prev
    assert!(dec.enable());
    assert_eq!(dec.finish(), Err(DecodeError::TruncatedLongCode));
}

#[test]
fn every_single_nibble_stream_is_classified() {
    // Exhaustive over the 16 possible one-nibble streams: short codes
    // decode to one value, long prefixes fail with TruncatedLongCode.
    for nib in 0u8..16 {
        let mut s = NibbleStream::new();
        s.push(nib);
        match decode_stream(&s) {
            Ok(vals) => {
                assert_eq!(nib >> 3, 0, "long prefix {nib:#06b} decoded silently");
                assert_eq!(vals, vec![nib & 0x07]);
            }
            Err(e) => {
                assert_eq!(nib >> 3, 1, "short code {nib:#06b} errored");
                assert_eq!(e, DecodeError::TruncatedLongCode);
            }
        }
    }
}

#[test]
fn decode_error_messages_name_the_failure() {
    assert!(DecodeError::TruncatedLongCode.to_string().contains("long code"));
    assert!(DecodeError::InvalidNibble(20).to_string().contains("20"));
    let e = DecodeError::InvalidBeat { beat: 300, width: 6 };
    let msg = e.to_string();
    assert!(msg.contains("300") && msg.contains('6'), "{msg}");
}
