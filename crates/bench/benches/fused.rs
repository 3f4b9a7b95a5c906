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
//!   weight (`1 x 768 · 768 x 3072`), dense time over fused time. At
//!   batch 1 every weight is decoded for one row of MACs, so this is the
//!   decoder keeping pace with the MAC loop. Must stay ≥ 0.9: reading
//!   fewer weight bytes, fused must not lose to dense at batch 1.
//!
//! Bit-identity is asserted before any timing: fused output must equal
//! decode-then-turbo and the scalar reference to the bit, so the numbers
//! compare equal computations. `SPARK_BENCH_JSON=<path>` writes the JSON
//! document; `SPARK_BENCH_QUICK=1` shrinks iteration counts.

use spark_tensor::{ops, EncodedMatrix, Tensor};
use spark_util::bench::{bench, black_box};
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

fn main() {
    let (m, k, n) = (64, 512, 512);
    let (a, b) = operands(m, k, n, 0xF05E_D6E4);
    let encoded = EncodedMatrix::encode(&b).expect("finite operand encodes");

    // The encoded weights replace the dense matrix entirely: the fused
    // path computes on the *reconstructed* values, so the comparison
    // baseline is the dense GEMM over the decoded matrix, and outputs
    // must match it (and the scalar reference) to the bit.
    let reconstructed = encoded.decode().expect("clean container decodes");
    let fused = ops::matmul_encoded(&a, &encoded).expect("dims");
    let dense = ops::matmul(&a, &reconstructed).expect("dims");
    let reference = ops::matmul_reference(&a, &reconstructed).expect("dims");
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fused), bits(&dense), "fused != decode-then-turbo");
    assert_eq!(bits(&fused), bits(&reference), "fused != reference");

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
    let fused1 = ops::matmul_encoded(&a1, &encoded1).expect("dims");
    let dense1 = ops::matmul(&a1, &reconstructed1).expect("dims");
    assert_eq!(bits(&fused1), bits(&dense1), "batch-1 fused != dense");
    let r_fused_b1 = bench(&format!("fused/encoded_gemv/1x{b1k}x{b1n}"), || {
        black_box(ops::matmul_encoded(&a1, &encoded1).expect("dims"));
    });
    let r_dense_b1 = bench(&format!("fused/dense_gemv/1x{b1k}x{b1n}"), || {
        black_box(ops::matmul(&a1, &reconstructed1).expect("dims"));
    });
    let fused_b1_over_dense_b1 = r_dense_b1.mean_ns / r_fused_b1.mean_ns;

    let fused_gflops = gflops(m, k, n, r_fused.mean_ns);
    let fused_over_decode_then = r_decode_then.mean_ns / r_fused.mean_ns;
    let fused_over_dense = r_gemm_only.mean_ns / r_fused.mean_ns;
    // Panel-decode overhead: fused time not explained by the dense GEMM
    // over the same panels, as a fraction of the dense time.
    let decode_overhead = (r_fused.mean_ns - r_gemm_only.mean_ns) / r_gemm_only.mean_ns;
    println!("fused/gflops                    {fused_gflops:>11.2}");
    println!("fused/over_decode_then          {fused_over_decode_then:>11.2}x");
    println!("fused/over_dense_gemm           {fused_over_dense:>11.2}x");
    println!("fused/panel_decode_overhead     {:>10.1}%", decode_overhead * 100.0);
    println!("fused/b1_over_dense_b1          {fused_b1_over_dense_b1:>11.2}x");

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
            ("panel_decode_overhead", Value::Num(decode_overhead)),
            ("b1_shape", Value::Str(format!("1x{b1k}x{b1n}"))),
            ("fused_b1_mean_ns", Value::Num(r_fused_b1.mean_ns)),
            ("dense_b1_mean_ns", Value::Num(r_dense_b1.mean_ns)),
            ("fused_b1_over_dense_b1", Value::Num(fused_b1_over_dense_b1)),
        ]);
        std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
        println!("wrote {}", path.to_string_lossy());
    }
}
