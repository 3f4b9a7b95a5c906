//! Decode-fused GEMM benchmark: encoded weights streamed straight into
//! the B-panel packer versus decoding first and running the dense turbo
//! path.
//!
//! Two numbers matter and both are gated in CI (`BENCH_fused.json`):
//!
//! - `weight_bytes_ratio` — resident encoded bytes (containers + sign
//!   planes) over dense `f32` bytes. The whole point of keeping weights
//!   as nibble streams; must stay ≤ 0.55 (≥ 1.8× reduction).
//! - `fused_over_decode_then` — fused throughput relative to
//!   decode-then-dense-GEMM with the decode *inside* the timed loop (the
//!   honest comparison for weights that live encoded). Must stay ≥ 0.8×.
//! - `fused_b1_over_dense_b1` — a batch-1 GEMV over a BERT-base FFN
//!   weight (`1 x 768 · 768 x 3072`), dense time over fused time, each
//!   side its best batch mean (`best_ns`): a stall on a shared host
//!   inflates a window's mean, not its best batch. At batch 1 every
//!   weight is decoded for one row of MACs, so this is the decoder
//!   keeping pace with the MAC loop. Must stay ≥ 0.9: reading fewer
//!   weight bytes, fused must not lose to dense at batch 1. The ratio of
//!   means is kept beside it, ungated, as `fused_b1_over_dense_b1_mean`.
//! - `fused_over_dense_gemm` — dense GEMM time over fused time at
//!   64x512x512, where `ops::matmul_encoded` takes the integer-domain
//!   path; gated with a floor in `scripts/ci.sh`.
//! - `int_rel_l2` — the integer path's worst per-row relative L2 error
//!   against the `f32` oracle (`gemm_encoded_with`) on the same operands.
//!   Must stay ≤ 1e-3. `f32_oracle_mean_ns` times the oracle itself.
//!
//! The batch-1 GEMV also breaks down into its per-value stages, each run
//! alone on one thread over the same 768x3072 weight, best batch mean per
//! value (ungated): `b1_decode_ns_val` bulk-decodes every panel one
//! `KC`-deep block at a time through a [`BulkCursor`] into a fixed buffer,
//! and `b1_emit_ns_val` turns those codes into the `f32` operand panels
//! with the detected tier's emitter. The rest of `fused_b1_best_ns` is
//! the MAC and the fan-out. That weight is uniform in [-1, 1), which
//! encodes to almost all long codes (~2 nibbles per value); the served
//! weights are BERT-profile (`ModelProfile::bert()`, ~1.2 nibbles per
//! value), so `b1_decode_ns_val_bert` / `b1_emit_ns_val_bert` time the
//! same stages over a BERT-profile 768x3072 weight.
//!
//! - `encode_ns_val` — the whole [`EncodedMatrix::encode`] of that
//!   BERT-profile weight (finite check and abs-max, quantize, pack,
//!   containers with their checksums, on every thread it fans out to),
//!   best batch mean per value. `scripts/ci.sh` gates it below 8 ns and
//!   at most twice the committed value.
//!
//! - `fanout_2_us` — the fixed cost of one fan-out: a
//!   [`spark_util::par::par_map`] over two trivial items, best batch mean
//!   in microseconds. Every parallel GEMM call pays it once. A scoped
//!   thread spawned per call cost 23–25 µs here; the pool's parked helpers
//!   cost a post and a revoke. `scripts/ci.sh` gates it at ≤ 10 µs.
//!
//! Before any timing, the `f32` oracle must equal decode-then-turbo and the
//! scalar reference to the bit, and the auto path must be within the error
//! bound of the oracle (bit-identical at batch 1, below `MR` rows).
//! `SPARK_BENCH_JSON=<path>` writes the JSON document;
//! `SPARK_BENCH_QUICK=1` shrinks iteration counts.

use spark_codec::bulk::FILL_SLACK;
use spark_codec::{container, BulkCursor, CodecVariant};
use spark_data::ModelProfile;
use spark_tensor::emit::{emit_f32, Dequant};
use spark_tensor::gemm::{gemm_encoded_with, Epilogue, GemmVariant, KC, NR};
use spark_tensor::{ops, EncodedMatrix, Tensor};
use spark_util::bench::{bench, black_box};
use spark_util::par::par_map;
use spark_util::{Rng, Value};

fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut uniform = || (rng.gen_f64() as f32) * 2.0 - 1.0;
    let a = Tensor::from_fn(&[m, k], |_| uniform());
    let b = Tensor::from_fn(&[k, n], |_| uniform());
    (a, b)
}

fn gflops(m: usize, k: usize, n: usize, mean_ns: f64) -> f64 {
    2.0 * (m as f64) * (k as f64) * (n as f64) / mean_ns
}

/// The `f32` oracle: the decode-fused `f32` path under the detected variant.
fn oracle(a: &Tensor, b: &EncodedMatrix) -> Vec<f32> {
    gemm_encoded_with(
        GemmVariant::detect(),
        a.as_slice(),
        b,
        a.dims()[0],
        Epilogue::None,
    )
    .expect("clean container decodes")
}

/// Each panel's nibble payload and nibble count.
fn panel_payloads(em: &EncodedMatrix) -> Vec<(&[u8], usize)> {
    (0..em.panels())
        .map(|p| {
            let (header, payload) =
                container::validate(em.panel_container(p)).expect("clean container validates");
            (payload, header.nibbles)
        })
        .collect()
}

/// Bulk-decodes every panel of `em` one `KC`-deep block at a time into a
/// fixed buffer, the fused GEMM's decode stage alone.
fn decode_stage(em: &EncodedMatrix, payloads: &[(&[u8], usize)], buf: &mut [u8]) {
    let variant = CodecVariant::detect();
    for (p, &(payload, nibbles)) in payloads.iter().enumerate() {
        let block = KC * em.panel_width(p);
        let mut cursor = BulkCursor::new(variant, payload, nibbles);
        while !cursor.is_done() {
            black_box(cursor.fill(buf, block));
        }
    }
}

/// Emits every `KC`-deep block of every panel of `em` from its decoded
/// `codes` as `f32` operand rows, the fused GEMM's emit stage alone.
fn emit_stage(em: &EncodedMatrix, codes: &[Vec<u8>], dq: &Dequant, dst: &mut [f32]) {
    let variant = GemmVariant::detect();
    for (p, codes) in codes.iter().enumerate() {
        let w = em.panel_width(p);
        let signs = em.panel_signs(p);
        for (blk, block) in codes.chunks(KC * w).enumerate() {
            let rows = block.len() / w;
            let e0 = blk * KC * w;
            let out = &mut dst[..rows * NR];
            emit_f32(variant, dq, block, signs, e0, rows, w, out);
            black_box(out);
        }
    }
}

/// Times the decode and the `f32` emit stage over every panel of `em`,
/// each alone on one thread, and returns their best batch means per value.
fn stage_ns_val(label: &str, em: &EncodedMatrix) -> (f64, f64) {
    let shape = format!("{label}/{}x{}", em.k(), em.n());
    let payloads = panel_payloads(em);
    let mut code_buf = vec![0u8; KC * NR + FILL_SLACK];
    let r_decode = bench(&format!("fused/stage_decode/{shape}"), || {
        decode_stage(em, &payloads, &mut code_buf);
    });
    let panel_codes: Vec<Vec<u8>> = payloads
        .iter()
        .map(|&(payload, nibbles)| spark_codec::decode_payload(payload, nibbles).expect("valid"))
        .collect();
    let dq = Dequant::new(em.profile().step());
    let mut operand = vec![0.0f32; KC * NR];
    let r_emit = bench(&format!("fused/stage_emit_f32/{shape}"), || {
        emit_stage(em, &panel_codes, &dq, &mut operand);
    });
    let values = (em.k() * em.n()) as f64;
    (r_decode.best_ns / values, r_emit.best_ns / values)
}

/// Worst per-row relative L2 error of `got` against `want` (rows of `n`).
fn worst_row_rel_l2(got: &[f32], want: &[f32], n: usize) -> f64 {
    got.chunks(n)
        .zip(want.chunks(n))
        .map(|(g, w)| {
            let err: f64 = g
                .iter()
                .zip(w)
                .map(|(&g, &w)| (f64::from(g) - f64::from(w)).powi(2))
                .sum();
            let norm: f64 = w.iter().map(|&w| f64::from(w).powi(2)).sum();
            (err / norm.max(f64::MIN_POSITIVE)).sqrt()
        })
        .fold(0.0, f64::max)
}

fn main() {
    let (m, k, n) = (64, 512, 512);
    let (a, b) = operands(m, k, n, 0xF05E_D6E4);
    let encoded = EncodedMatrix::encode(&b).expect("finite operand encodes");

    // The encoded weights replace the dense matrix entirely: the fused
    // path computes on the *reconstructed* values, so the comparison
    // baseline is the dense GEMM over the decoded matrix. The f32 oracle
    // must match it (and the scalar reference) to the bit; the auto path
    // (integer-domain at this batch) must stay within 1e-3 of the oracle.
    let reconstructed = encoded.decode().expect("clean container decodes");
    let f32_oracle = oracle(&a, &encoded);
    let dense = ops::matmul(&a, &reconstructed).expect("dims");
    let reference = ops::matmul_reference(&a, &reconstructed).expect("dims");
    let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&f32_oracle),
        bits(dense.as_slice()),
        "f32 oracle != decode-then-turbo"
    );
    assert_eq!(
        bits(&f32_oracle),
        bits(reference.as_slice()),
        "f32 oracle != reference"
    );
    let fused = ops::matmul_encoded(&a, &encoded).expect("dims");
    let int_rel_l2 = worst_row_rel_l2(fused.as_slice(), &f32_oracle, n);
    assert!(
        int_rel_l2 <= 1e-3,
        "auto path is {int_rel_l2:e} from the f32 oracle"
    );

    let weight_bytes_encoded = encoded.resident_bytes();
    let weight_bytes_f32 = encoded.dense_bytes();
    let ratio = weight_bytes_encoded as f64 / weight_bytes_f32 as f64;
    println!(
        "fused/resident_weight_bytes {weight_bytes_encoded} / {weight_bytes_f32} (ratio {ratio:.3}, {:.2}x reduction)",
        1.0 / ratio
    );

    let r_fused = bench(&format!("fused/encoded_gemm/{m}x{k}x{n}"), || {
        black_box(ops::matmul_encoded(&a, &encoded).expect("dims"));
    });
    let r_oracle = bench(&format!("fused/f32_oracle_gemm/{m}x{k}x{n}"), || {
        black_box(oracle(&a, &encoded));
    });
    // Decode-then-GEMM with the decode inside the loop: what serving
    // encoded weights through the dense engine would actually cost.
    let r_decode_then = bench(&format!("fused/decode_then_gemm/{m}x{k}x{n}"), || {
        let w = encoded.decode().expect("clean container decodes");
        black_box(ops::matmul(&a, &w).expect("dims"));
    });
    // The two components of decode-then, for attribution.
    let r_gemm_only = bench(&format!("fused/dense_gemm_only/{m}x{k}x{n}"), || {
        black_box(ops::matmul(&a, &reconstructed).expect("dims"));
    });
    let r_decode_only = bench(&format!("fused/decode_only/{k}x{n}"), || {
        black_box(encoded.decode().expect("clean container decodes"));
    });

    // Batch 1: the decode cost is no longer amortized over rows.
    let (b1k, b1n) = (768, 3072);
    let (a1, w1) = operands(1, b1k, b1n, 0xB1_6E3F);
    let encoded1 = EncodedMatrix::encode(&w1).expect("finite operand encodes");
    let reconstructed1 = encoded1.decode().expect("clean container decodes");
    let oracle1 = oracle(&a1, &encoded1);
    let dense1 = ops::matmul(&a1, &reconstructed1).expect("dims");
    assert_eq!(
        bits(&oracle1),
        bits(dense1.as_slice()),
        "batch-1 f32 oracle != dense"
    );
    let fused1 = ops::matmul_encoded(&a1, &encoded1).expect("dims");
    assert_eq!(
        bits(fused1.as_slice()),
        bits(&oracle1),
        "batch-1 auto path != f32 oracle"
    );
    let r_fused_b1 = bench(&format!("fused/encoded_gemv/1x{b1k}x{b1n}"), || {
        black_box(ops::matmul_encoded(&a1, &encoded1).expect("dims"));
    });
    let r_dense_b1 = bench(&format!("fused/dense_gemv/1x{b1k}x{b1n}"), || {
        black_box(ops::matmul(&a1, &reconstructed1).expect("dims"));
    });
    let fused_b1_over_dense_b1 = r_dense_b1.best_ns / r_fused_b1.best_ns;
    // The GEMV's stages, each alone on one thread, over the uniform
    // weight and over a BERT-profile one.
    let (b1_decode_ns_val, b1_emit_ns_val) = stage_ns_val("uniform", &encoded1);
    let bert = ModelProfile::bert()
        .sample_tensor(b1k * b1n, 0xBE27)
        .reshape(&[b1k, b1n])
        .expect("dims");
    let encoded_bert = EncodedMatrix::encode(&bert).expect("finite operand encodes");
    let (b1_decode_ns_val_bert, b1_emit_ns_val_bert) = stage_ns_val("bert", &encoded_bert);
    let r_encode = bench(&format!("fused/encode/bert/{b1k}x{b1n}"), || {
        black_box(EncodedMatrix::encode(&bert).expect("finite operand encodes"));
    });
    let encode_ns_val = r_encode.best_ns / (b1k * b1n) as f64;
    let fused_b1_over_dense_b1_mean = r_dense_b1.mean_ns / r_fused_b1.mean_ns;
    let r_fanout = bench("fused/fanout_2", || {
        black_box(par_map(&[1u32, 2], |&v| black_box(v) + 1));
    });
    let fanout_2_us = r_fanout.best_ns / 1e3;

    let fused_gflops = gflops(m, k, n, r_fused.mean_ns);
    let fused_over_decode_then = r_decode_then.mean_ns / r_fused.mean_ns;
    let fused_over_dense = r_gemm_only.mean_ns / r_fused.mean_ns;
    // Panel-decode overhead: fused time not explained by the dense GEMM
    // over the same panels, as a fraction of the dense time.
    let decode_overhead = (r_fused.mean_ns - r_gemm_only.mean_ns) / r_gemm_only.mean_ns;
    println!("fused/gflops                    {fused_gflops:>11.2}");
    println!("fused/over_decode_then          {fused_over_decode_then:>11.2}x");
    println!("fused/over_dense_gemm           {fused_over_dense:>11.2}x");
    println!("fused/int_rel_l2                {int_rel_l2:>11.2e}");
    println!("fused/panel_decode_overhead     {:>10.1}%", decode_overhead * 100.0);
    println!("fused/b1_over_dense_b1          {fused_b1_over_dense_b1:>11.2}x (best)");
    println!("fused/b1_over_dense_b1_mean     {fused_b1_over_dense_b1_mean:>11.2}x");
    println!("fused/b1_decode_ns_val          {b1_decode_ns_val:>11.3}");
    println!("fused/b1_emit_ns_val            {b1_emit_ns_val:>11.3}");
    println!("fused/b1_decode_ns_val_bert     {b1_decode_ns_val_bert:>11.3}");
    println!("fused/b1_emit_ns_val_bert       {b1_emit_ns_val_bert:>11.3}");
    println!("fused/encode_ns_val             {encode_ns_val:>11.3}");
    println!("fused/fanout_2_us               {fanout_2_us:>11.3}");

    if let Some(path) = std::env::var_os("SPARK_BENCH_JSON") {
        let doc = Value::object([
            ("bench", Value::Str("gemm/decode_fused".into())),
            ("shape", Value::Str(format!("{m}x{k}x{n}"))),
            ("weight_bytes_encoded", Value::Num(weight_bytes_encoded as f64)),
            ("weight_bytes_f32", Value::Num(weight_bytes_f32 as f64)),
            ("weight_bytes_ratio", Value::Num(ratio)),
            ("weight_reduction", Value::Num(1.0 / ratio)),
            ("fused_gflops", Value::Num(fused_gflops)),
            ("fused_mean_ns", Value::Num(r_fused.mean_ns)),
            ("decode_then_mean_ns", Value::Num(r_decode_then.mean_ns)),
            ("dense_gemm_mean_ns", Value::Num(r_gemm_only.mean_ns)),
            ("decode_only_mean_ns", Value::Num(r_decode_only.mean_ns)),
            ("fused_over_decode_then", Value::Num(fused_over_decode_then)),
            ("fused_over_dense_gemm", Value::Num(fused_over_dense)),
            ("f32_oracle_mean_ns", Value::Num(r_oracle.mean_ns)),
            ("int_rel_l2", Value::Num(int_rel_l2)),
            ("panel_decode_overhead", Value::Num(decode_overhead)),
            ("b1_shape", Value::Str(format!("1x{b1k}x{b1n}"))),
            ("fused_b1_mean_ns", Value::Num(r_fused_b1.mean_ns)),
            ("dense_b1_mean_ns", Value::Num(r_dense_b1.mean_ns)),
            ("fused_b1_best_ns", Value::Num(r_fused_b1.best_ns)),
            ("dense_b1_best_ns", Value::Num(r_dense_b1.best_ns)),
            ("fused_b1_over_dense_b1", Value::Num(fused_b1_over_dense_b1)),
            (
                "fused_b1_over_dense_b1_mean",
                Value::Num(fused_b1_over_dense_b1_mean),
            ),
            ("b1_decode_ns_val", Value::Num(b1_decode_ns_val)),
            ("b1_emit_ns_val", Value::Num(b1_emit_ns_val)),
            ("b1_decode_ns_val_bert", Value::Num(b1_decode_ns_val_bert)),
            ("b1_emit_ns_val_bert", Value::Num(b1_emit_ns_val_bert)),
            ("encode_ns_val", Value::Num(encode_ns_val)),
            ("fanout_2_us", Value::Num(fanout_2_us)),
        ]);
        std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
        println!("wrote {}", path.to_string_lossy());
    }
}
