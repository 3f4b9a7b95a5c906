//! Micro-benchmarks for the SPARK codec datapath: the encoder (Fig 10),
//! the streaming decoder (Fig 7), the bit-parallel bulk decoder per
//! dispatch variant, and whole-tensor stream packing, on the in-tree
//! `spark_util::bench` timer.
//!
//! The paper's Section V-A verifies the codec sustains ~50 GB/s at 200 MHz
//! in hardware; these benches measure the software model's throughput so
//! regressions in the bit-twiddling hot path are visible.
//!
//! `SPARK_BENCH_JSON=<path>` writes the decode engine comparison as JSON
//! (the `BENCH_codec.json` ci.sh gates on `speedup_bulk_over_fsm >= 3`);
//! `SPARK_BENCH_QUICK=1` shrinks iteration counts.

use spark_codec::{
    decode_bulk_with, decode_stream, decode_stream_reference, encode_tensor, encode_value,
    CodecVariant, SparkDecoder, SparkEncoder,
};
use spark_util::bench::{bench_throughput, black_box};
use spark_util::Value;

fn test_tensor(n: usize) -> Vec<u8> {
    // ~65% short codes, like a CNN tensor.
    (0..n)
        .map(|i| {
            let x = (i * 2654435761) % 100;
            if x < 65 {
                (x % 8) as u8
            } else {
                (8 + (x * 7) % 248) as u8
            }
        })
        .collect()
}

fn bench_encode_value() {
    bench_throughput("codec/encode_value/all_bytes", 256, || {
        for v in 0u16..=255 {
            black_box(encode_value(v as u8));
        }
    });
}

fn bench_hw_encoder() {
    let values = test_tensor(4096);
    bench_throughput("codec/hw_encoder/4k_tensor", values.len() as u64, || {
        let mut enc = SparkEncoder::new();
        for &v in &values {
            black_box(enc.encode(v));
        }
    });
}

fn bench_stream_round_trip() {
    let values = test_tensor(65_536);
    let encoded = encode_tensor(&values);
    let elems = values.len() as u64;
    bench_throughput("codec/stream/encode_64k", elems, || {
        black_box(encode_tensor(&values));
    });
    bench_throughput("codec/stream/decode_64k", elems, || {
        black_box(decode_stream(&encoded.stream).expect("valid stream"));
    });
}

fn bench_stream_encode_presized() {
    // Whole-tensor encode throughput at a size where allocation policy
    // matters: the CodeStats pre-pass sizes the nibble stream exactly, so
    // this path never reallocates nor over-commits the 2x worst case.
    let values = test_tensor(1 << 20);
    bench_throughput("codec/stream/encode_1m_presized", values.len() as u64, || {
        black_box(encode_tensor(&values));
    });
}

fn bench_streaming_decoder() {
    let values = test_tensor(16_384);
    let encoded = encode_tensor(&values);
    let nibbles: Vec<u8> = encoded.stream.iter().collect();
    bench_throughput("codec/decoder_fsm/nibble_fsm", nibbles.len() as u64, || {
        let mut dec = SparkDecoder::new();
        let mut out = 0u64;
        for &n in &nibbles {
            if let Some(v) = dec.push_nibble(n).expect("valid") {
                out = out.wrapping_add(u64::from(v));
            }
        }
        black_box(out);
    });
}

fn bench_bulk_decode() {
    // Head-to-head on a 1M-value tensor: the nibble-at-a-time FSM reference
    // versus the bit-parallel bulk engine, once per runtime dispatch variant.
    // Bit-identity is asserted before timing so the speedup is never bought
    // with a wrong answer.
    let values = test_tensor(1 << 20);
    let encoded = encode_tensor(&values);
    let stream = &encoded.stream;
    let elems = values.len() as u64;

    let want = decode_stream_reference(stream).expect("reference decode");
    for variant in CodecVariant::all() {
        let got = decode_bulk_with(variant, stream).expect("bulk decode");
        assert_eq!(got, want, "bulk {} diverged from the FSM", variant.name());
    }

    let fsm = bench_throughput("codec/decode/fsm_reference_1m", elems, || {
        black_box(decode_stream_reference(stream).expect("valid stream"));
    });

    let mut per_variant = Vec::new();
    for variant in CodecVariant::all() {
        let r = bench_throughput(
            &format!("codec/decode/bulk_{}_1m", variant.name()),
            elems,
            || {
                black_box(decode_bulk_with(variant, stream).expect("valid stream"));
            },
        );
        per_variant.push((variant, r));
    }

    let detected = CodecVariant::detect();
    let detected_result = per_variant
        .iter()
        .find(|(v, _)| *v == detected)
        .map(|(_, r)| r)
        .expect("detected variant is benched");
    let speedup = fsm.mean_ns / detected_result.mean_ns;
    println!(
        "  decode speedup: bulk/{} over FSM = {:.2}x",
        detected.name(),
        speedup
    );

    if let Some(path) = std::env::var_os("SPARK_BENCH_JSON") {
        let mut fields: Vec<(String, Value)> = vec![
            ("bench".into(), Value::Str("codec_decode".to_string())),
            ("elements".into(), Value::Num(elems as f64)),
            ("stream_nibbles".into(), Value::Num(stream.len() as f64)),
            ("fsm_mean_ns".into(), Value::Num(fsm.mean_ns)),
            (
                "detected_variant".into(),
                Value::Str(detected.name().to_string()),
            ),
            ("speedup_bulk_over_fsm".into(), Value::Num(speedup)),
        ];
        let mut names = Vec::new();
        for (v, r) in &per_variant {
            fields.push((format!("bulk_{}_mean_ns", v.name()), Value::Num(r.mean_ns)));
            names.push(v.name().to_string());
        }
        fields.push(("variants".into(), Value::Str(names.join(","))));
        let doc = Value::object(fields);
        std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
        println!("wrote {}", path.to_string_lossy());
    }
}

fn bench_general_formats() {
    use spark_codec::{decode_general, encode_general, SparkFormat};
    let values: Vec<u16> = (0..16_384u32)
        .map(|i| (i.wrapping_mul(2654435761) % 65536) as u16 >> 4)
        .collect();
    for (base, short) in [(8u8, 4u8), (12, 6), (16, 8)] {
        let fmt = SparkFormat::new(base, short).expect("valid format");
        let masked: Vec<u16> = values.iter().map(|&v| v & fmt.max_value()).collect();
        bench_throughput(
            &format!("codec/general_formats/round_trip_{base}_{short}"),
            values.len() as u64,
            || {
                let stream = encode_general(&fmt, &masked);
                black_box(decode_general(&fmt, &stream).expect("valid stream"));
            },
        );
    }
}

fn main() {
    bench_encode_value();
    bench_hw_encoder();
    bench_stream_round_trip();
    bench_stream_encode_presized();
    bench_streaming_decoder();
    bench_bulk_decode();
    bench_general_formats();
}
