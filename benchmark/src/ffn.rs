//! The `ffn` workload: a BERT-base feed-forward block (768 → 3072, ReLU,
//! 3072 → 768) whose weights stay SPARK-encoded, run in process through
//! the tensor crate's public calls only — the paper's quantize → encode →
//! decode → MAC pipeline without any HTTP in the way.
//!
//! The encoded weights (≈3.4 MB) and their dense form (≈19 MB) are larger
//! than L2, so batch-1 passes are dominated by panel decode and batch-64
//! passes by MAC.

use std::time::Instant;

use spark_codec::{decode_stream, read_container, stream_checksum, HEADER_LEN};
use spark_data::ModelProfile;
use spark_tensor::{ops, EncodedMatrix, Tensor};

use crate::client::{cpu_s, peak_rss_mib};
use crate::report::{Report, Workload};
use crate::schedule::derive;
use crate::stats::{self, Summary};
use crate::trace::{self, Recorder};
use crate::{sqnr_db, Settings};

/// Model width.
const D: usize = 768;
/// FFN hidden width.
const H: usize = 3072;
/// Rows of the batch-64 input.
const ROWS: usize = 64;
/// Freezes (quantize + encode of both weights) in a traced run, whose
/// encode spans give `tensor.encode_ns_val`.
const TRACED_FREEZES: usize = 5;
/// Rows checked against the f64 reference after each window.
const ORACLE_ROWS: usize = 4;
/// Largest relative L2 error of an output row against the f64 product
/// over the decoded weights. Loose on purpose: `sqnr_db` gates precision,
/// and an integer-domain GEMM need not match bit for bit.
const ORACLE_TOLERANCE: f64 = 0.05;
/// Seconds of one block of batch-1 or batch-64 passes in an untraced run.
const BLOCK_S: f64 = 1.0;
/// This process's `/proc` stat file, for its CPU time.
const SELF_STAT: &str = "/proc/self/stat";

fn tensor(values: Tensor, dims: &[usize]) -> Result<Tensor, String> {
    values.reshape(dims).map_err(|e| e.to_string())
}

/// Calls `f` with `first`, `first + 1`, … until `seconds` have passed and
/// at least `min` times, timing each call alone; `keep` sees each result
/// outside the timing. Returns the per-call times in ns.
fn repeat<T>(
    seconds: f64,
    min: usize,
    first: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
    mut keep: impl FnMut(usize, T),
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    for (n, i) in (first..).enumerate() {
        if n >= min && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t0 = Instant::now();
        let out = std::hint::black_box(f(i)?);
        times.push(t0.elapsed().as_nanos() as f64);
        keep(i, out);
    }
    Ok(times)
}

/// Relative L2 error of `got` against the f64 product `relu(x·w1)·w2`.
fn oracle_error(x: &[f32], w1: &[f32], w2: &[f32], got: &[f32]) -> f64 {
    let mut h = vec![0.0f64; H];
    for (k, &xk) in x.iter().enumerate() {
        for (hj, &w) in h.iter_mut().zip(&w1[k * H..(k + 1) * H]) {
            *hj += f64::from(xk) * f64::from(w);
        }
    }
    let mut y = vec![0.0f64; D];
    for (j, &hj) in h.iter().enumerate() {
        let hj = hj.max(0.0);
        for (yc, &w) in y.iter_mut().zip(&w2[j * D..(j + 1) * D]) {
            *yc += hj * f64::from(w);
        }
    }
    let (mut err, mut norm) = (0.0, 0.0);
    for (r, g) in y.iter().zip(got) {
        err += (r - f64::from(*g)).powi(2);
        norm += r * r;
    }
    (err / norm.max(f64::MIN_POSITIVE)).sqrt()
}

/// Runs the `ffn` workload and returns its report.
///
/// # Errors
///
/// Encode, decode or GEMM failures of the library under test.
pub fn run(s: &Settings) -> Result<Report, String> {
    let run_origin = Instant::now();
    let mut report = Report::new(Workload::Ffn, s.traced);
    let mut rec = Recorder::new(run_origin);
    let profile = ModelProfile::bert();
    let w1 = tensor(profile.sample_tensor(D * H, derive(s.seed, 200)), &[D, H])?;
    let w2 = tensor(profile.sample_tensor(H * D, derive(s.seed, 201)), &[H, D])?;
    let x = tensor(
        profile.sample_activations(ROWS * D, derive(s.seed, 202)),
        &[ROWS, D],
    )?;
    let rows: Vec<Tensor> = x
        .as_slice()
        .chunks(D)
        .map(|r| Tensor::from_vec(r.to_vec(), &[1, D]).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut freeze_s = Vec::new();
    let mut freeze = |rec: &mut Recorder| -> Result<(EncodedMatrix, EncodedMatrix), String> {
        let root = rec.open("ffn.freeze", freeze_s.len() as u64);
        let t0 = Instant::now();
        let e1 = rec
            .time("tensor.encode", root, D * H, || EncodedMatrix::encode(&w1))
            .map_err(|e| err(&e))?;
        let e2 = rec
            .time("tensor.encode", root, H * D, || EncodedMatrix::encode(&w2))
            .map_err(|e| err(&e))?;
        freeze_s.push(t0.elapsed().as_secs_f64());
        rec.close(root);
        Ok((e1, e2))
    };
    let (e1, e2) = freeze(&mut rec)?;
    if s.traced {
        for _ in 1..TRACED_FREEZES {
            freeze(&mut rec)?;
        }
    }
    let d1 = e1.decode().map_err(|e| err(&e))?;
    let d2 = e2.decode().map_err(|e| err(&e))?;
    let weight_bytes = (e1.resident_bytes() + e2.resident_bytes()) as f64;
    report.diag("weight_mb", weight_bytes / (1024.0 * 1024.0), "MiB");

    let fused = |a: &Tensor| -> Result<Tensor, String> {
        let h = ops::relu(&ops::matmul_encoded(a, &e1).map_err(|e| err(&e))?);
        ops::matmul_encoded(&h, &e2).map_err(|e| err(&e))
    };
    let mut b1_out: Vec<Option<Tensor>> = vec![None; ORACLE_ROWS];
    let mut keep_b1 = |i: usize, y: Tensor| {
        if let Some(slot @ None) = b1_out.get_mut(i % ROWS) {
            *slot = Some(y);
        }
    };
    let mut b64_out = None;
    let secs = s.seconds;
    // Untraced runs alternate blocks of batch-1 and batch-64 passes, each
    // pair after one more freeze, so the passes and `setup_s` all see the
    // host over the whole run rather than over one part of it.
    let blocks = match s.traced {
        true => 1,
        false => (0.5 * secs / BLOCK_S).ceil().max(1.0) as usize,
    };
    let block_s = match s.traced {
        true => 0.2 * secs,
        false => 0.5 * secs / blocks as f64,
    };
    let (mut b1, mut b64, mut b64_cpu_s) = (Vec::new(), Vec::new(), 0.0);
    for _ in 0..blocks {
        if !s.traced {
            freeze(&mut rec)?;
        }
        let first = b1.len();
        b1.extend(repeat(
            block_s,
            5,
            first,
            |i| fused(&rows[i % ROWS]),
            &mut keep_b1,
        )?);
        if !s.traced {
            let cpu0 = cpu_s(SELF_STAT)?;
            b64.extend(repeat(
                block_s,
                3,
                0,
                |_| fused(&x),
                |_, y| b64_out = Some(y),
            )?);
            b64_cpu_s += cpu_s(SELF_STAT)? - cpu0;
        }
    }
    let b1_sum = Summary::of(&b1);
    report.attempted += (b1.len() + b64.len()) as u64;
    report.diag("b1.n", b1_sum.n as f64, "count");
    report.diag("b1.p99_ms", b1_sum.p99 / 1e6, "ms");
    report.diag("b1.beyond_p95", b1_sum.beyond[1] as f64, "count");

    if s.traced {
        traced_layers(
            &mut report,
            &mut rec,
            &rows,
            &x,
            [&e1, &e2],
            [&d1, &d2],
            secs,
            b1_sum.p50,
        )?;
        report.spans = std::mem::take(&mut rec.spans);
    } else {
        report.diag("b64.cpu_s", b64_cpu_s, "s");
        let b64_med = stats::median(&b64);
        report.diag("b64.n", b64.len() as f64, "count");
        report.diag("b64.pass_ms", b64_med / 1e6, "ms");
        let dense = ops::matmul(&ops::relu(&ops::matmul(&x, &w1).map_err(|e| err(&e))?), &w2)
            .map_err(|e| err(&e))?;
        let y = b64_out.as_ref().expect("at least one batch-64 pass");
        report.set("setup_s", stats::median(&freeze_s));
        report.set("p50_ms", b1_sum.p50 / 1e6);
        report.set("p95_ms", b1_sum.p95 / 1e6);
        report.diag("b64.rows_per_s", ROWS as f64 / (b64_med / 1e9), "1/s");
        // Batch-64 rows per second of CPU time over every thread the GEMM
        // ran on: its cost per row, like the serving workloads' metric.
        report.set("per_cpu_s", (ROWS * b64.len()) as f64 / b64_cpu_s);
        report.set("rss_mb", peak_rss_mib("/proc/self/status")?);
        report.set("sqnr_db", sqnr_db(dense.as_slice(), y.as_slice())?);
        report.set("bits_per_value", weight_bytes * 8.0 / (2 * D * H) as f64);
    }

    // Oracle: batch-1 outputs of the first rows, and the same rows of the
    // last batch-64 output, against the f64 product over decoded weights.
    let mut checked: Vec<(String, &[f32], &[f32])> = Vec::new();
    for (r, y) in b1_out.iter().enumerate() {
        let y = y.as_ref().ok_or("a batch-1 oracle row was never run")?;
        checked.push((format!("b1 row {r}"), rows[r].as_slice(), y.as_slice()));
    }
    if let Some(y) = &b64_out {
        for (r, (x, out)) in rows
            .iter()
            .zip(y.as_slice().chunks(D))
            .take(ORACLE_ROWS)
            .enumerate()
        {
            checked.push((format!("b64 row {r}"), x.as_slice(), out));
        }
    }
    let mut worst = 0.0f64;
    for (what, xr, y) in checked {
        let e = oracle_error(xr, d1.as_slice(), d2.as_slice(), y);
        worst = worst.max(e);
        report.fail(
            u64::from(e > ORACLE_TOLERANCE),
            format!("{what}: relative L2 error {e:.4}"),
        );
    }
    report.diag("oracle.worst_rel_l2", worst, "ratio");
    Ok(report)
}

/// Span names of one traced pass: the pass itself, then its up
/// projection, ReLU and down projection.
type PassNames = [&'static str; 4];
const FUSED_B1: PassNames = [
    "ffn.b1",
    "tensor.fused.b1.up",
    "tensor.relu.b1",
    "tensor.fused.b1.down",
];
const FUSED_B64: PassNames = [
    "ffn.b64",
    "tensor.fused.b64.up",
    "tensor.relu.b64",
    "tensor.fused.b64.down",
];
const DENSE_B1: PassNames = [
    "ffn.dense.b1",
    "tensor.dense.b1.up",
    "tensor.relu.dense.b1",
    "tensor.dense.b1.down",
];
const DENSE_B64: PassNames = [
    "ffn.dense.b64",
    "tensor.dense.b64.up",
    "tensor.relu.dense.b64",
    "tensor.dense.b64.down",
];

/// The traced measurements: one span per public call of batch-1 and
/// batch-64 passes (fused and over decoded weights), and one per decode
/// stage over every weight panel.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    report: &mut Report,
    rec: &mut Recorder,
    rows: &[Tensor],
    x: &Tensor,
    enc: [&EncodedMatrix; 2],
    dec: [&Tensor; 2],
    secs: f64,
    untraced_b1_ns: f64,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut pass = 0u64;
    let mut traced_pass =
        |rec: &mut Recorder, a: &Tensor, names: PassNames, fused: bool| -> Result<(), String> {
            let gemm = |a: &Tensor, layer: usize| match fused {
                true => ops::matmul_encoded(a, enc[layer]).map_err(|e| err(&e)),
                false => ops::matmul(a, dec[layer]).map_err(|e| err(&e)),
            };
            pass += 1;
            let root = rec.open(names[0], pass);
            let h = rec.time(names[1], root, D * H, || gemm(a, 0))?;
            let h = rec.time(names[2], root, H, || ops::relu(&h));
            rec.time(names[3], root, H * D, || gemm(&h, 1))?;
            rec.close(root);
            Ok(())
        };
    let no_keep = |_, ()| ();
    let n_b1 = repeat(
        0.2 * secs,
        5,
        0,
        |i| traced_pass(rec, &rows[i % ROWS], FUSED_B1, true),
        no_keep,
    )?;
    let n_b64 = repeat(
        0.2 * secs,
        3,
        0,
        |_| traced_pass(rec, x, FUSED_B64, true),
        no_keep,
    )?;
    let n_dense = repeat(
        0.2 * secs,
        3,
        0,
        |i| {
            traced_pass(rec, &rows[i % ROWS], DENSE_B1, false)?;
            traced_pass(rec, x, DENSE_B64, false)
        },
        no_keep,
    )?;
    report.attempted += (n_b1.len() + n_b64.len() + 2 * n_dense.len()) as u64;

    // Decode stages over every panel of both weights: checksum alone,
    // container read (validation + boundary scan), bulk decode of the
    // streams, and the whole EncodedMatrix::decode they are part of.
    let start = Instant::now();
    let mut rep = 0u64;
    while rep < 2 || start.elapsed().as_secs_f64() < 0.2 * secs {
        rep += 1;
        for m in enc {
            let n = m.k() * m.n();
            let root = rec.open("ffn.decode_stages", rep);
            rec.time("codec.checksum", root, n, || {
                (0..m.panels())
                    .map(|p| stream_checksum(&m.panel_container(p)[HEADER_LEN..]))
                    .sum::<u64>()
            });
            let streams = rec
                .time("codec.read_container", root, n, || {
                    (0..m.panels())
                        .map(|p| read_container(m.panel_container(p)))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| err(&e))?;
            rec.time("codec.decode", root, n, || {
                streams
                    .iter()
                    .map(|t| decode_stream(&t.stream))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| err(&e))?;
            rec.time("tensor.decode", root, n, || m.decode())
                .map_err(|e| err(&e))?;
            rec.close(root);
        }
    }

    let layers = trace::layers(&rec.spans);
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let ms = |name: &str| get(name).median_us() / 1e3;
    for (metric, span) in [
        ("tensor.fused_ms.b1.up", "tensor.fused.b1.up"),
        ("tensor.fused_ms.b1.down", "tensor.fused.b1.down"),
        ("tensor.fused_ms.b64.up", "tensor.fused.b64.up"),
        ("tensor.fused_ms.b64.down", "tensor.fused.b64.down"),
        ("tensor.dense_ms.b1.up", "tensor.dense.b1.up"),
        ("tensor.dense_ms.b1.down", "tensor.dense.b1.down"),
        ("tensor.dense_ms.b64.up", "tensor.dense.b64.up"),
        ("tensor.dense_ms.b64.down", "tensor.dense.b64.down"),
    ] {
        report.set(metric, ms(span));
    }
    let fused64 = ms("tensor.fused.b64.up") + ms("tensor.fused.b64.down");
    let dense64 = ms("tensor.dense.b64.up") + ms("tensor.dense.b64.down");
    report.set("tensor.decode_overhead.b64", fused64 / dense64);
    let per_value = |name: &str| get(name).ns_per_value();
    report.set("codec.checksum_ns_val", per_value("codec.checksum"));
    report.set(
        "codec.read_container_ns_val",
        per_value("codec.read_container"),
    );
    report.set("codec.decode_ns_val", per_value("codec.decode"));
    report.set("tensor.decode_ns_val", per_value("tensor.decode"));
    report.set(
        "tensor.dequant_ns_val",
        per_value("tensor.decode") - per_value("codec.read_container") - per_value("codec.decode"),
    );
    report.set("tensor.encode_ns_val", per_value("tensor.encode"));
    report.set("tensor.flops", (2 * 2 * D * H) as f64);
    report.set(
        "tensor.weight_bytes",
        (enc[0].resident_bytes() + enc[1].resident_bytes()) as f64,
    );

    let traced_b1: Vec<f64> = rec
        .spans
        .iter()
        .filter(|sp| sp.name == "ffn.b1")
        .map(|sp| sp.dur_ns() as f64)
        .collect();
    report.set(
        "trace.overhead_ms",
        (stats::median(&traced_b1) - untraced_b1_ns) / 1e6,
    );
    let stages_ms = ms("tensor.fused.b1.up") + ms("tensor.relu.b1") + ms("tensor.fused.b1.down");
    report.set("trace.explained_share", stages_ms * 1e6 / untraced_b1_ns);
    report.diag("b1.untraced_p50_ms", untraced_b1_ns / 1e6, "ms");
    report.diag("b1.traced_p50_ms", stats::median(&traced_b1) / 1e6, "ms");
    Ok(())
}
