//! Serving-path benchmark: batched versus one-request-per-call encode,
//! plus an end-to-end HTTP measurement against a live loopback server.
//!
//! The headline number is `speedup_batched_over_unbatched`: how much
//! faster `encode_batch` (the call the server's micro-batcher makes)
//! processes a set of request payloads than calling `encode_tensor` once
//! per payload, exactly as an unbatched server would. Both sides are
//! compared by their best batch mean (`best_ns`), which a stall on a
//! shared host does not inflate; the ratio of means is kept beside it,
//! ungated. The server section reports real requests/sec, client-side
//! p50/p99 latency and the mean batch size over concurrent loopback
//! connections. The lone-client section times back-to-back requests from
//! one sequential client, the case where the micro-batcher finds no
//! company: `lone_encode_p50_us` must stay far below any batching timer.
//! Set `SPARK_BENCH_JSON=<path>` to write `BENCH_serve.json`; CI greps the
//! numeric fields and gates on the speedup and the lone-request p50.

use std::time::Instant;

use spark_codec::{encode_batch, encode_tensor};
use spark_serve::http::client_request;
use spark_serve::{ServeConfig, Server};
use spark_util::bench::{bench, black_box};
use spark_util::{Histogram, Value};

/// Distinct request payloads, shaped like the loopback tests' traffic.
fn payloads(count: usize, values_each: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|seed| {
            (0..values_each)
                .map(|i| (((i * 31 + seed * 97) % 211) as f32 - 105.0) / 50.0)
                .collect()
        })
        .collect()
}

/// The encode stage both paths share everything up to: INT8 code words.
fn quantized(payloads: &[Vec<f32>]) -> Vec<Vec<u8>> {
    payloads
        .iter()
        .map(|values| {
            spark_serve::api::quantize_codes(values)
                .expect("bench payloads are finite and non-empty")
                .codes
        })
        .collect()
}

struct EncodeNumbers {
    requests: usize,
    values_per_request: usize,
    unbatched_rps: f64,
    batched_rps: f64,
    speedup: f64,
    speedup_mean: f64,
}

fn bench_encode_paths() -> EncodeNumbers {
    let requests = 32;
    let values_per_request = 4096;
    let codes = quantized(&payloads(requests, values_per_request));
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();

    // Both paths must produce identical streams before timing them.
    let batched = encode_batch(&refs);
    for (one, many) in codes.iter().zip(&batched) {
        let single = encode_tensor(one);
        assert_eq!(single.stream.as_bytes(), many.stream.as_bytes());
        assert_eq!(single.stats, many.stats);
    }

    let unbatched = bench("serve/encode_unbatched_32x4096", || {
        for one in &refs {
            black_box(encode_tensor(one));
        }
    });
    let batched = bench("serve/encode_batched_32x4096", || {
        black_box(encode_batch(&refs));
    });
    let unbatched_rps = requests as f64 / (unbatched.mean_ns * 1e-9);
    let batched_rps = requests as f64 / (batched.mean_ns * 1e-9);
    let speedup = unbatched.best_ns / batched.best_ns;
    let speedup_mean = batched_rps / unbatched_rps;
    println!("serve/speedup_batched_over_unbatched          {speedup:>10.2}x (best)");
    println!("serve/speedup_batched_over_unbatched_mean     {speedup_mean:>10.2}x");
    EncodeNumbers {
        requests,
        values_per_request,
        unbatched_rps,
        batched_rps,
        speedup,
        speedup_mean,
    }
}

struct ServerNumbers {
    clients: usize,
    requests: usize,
    requests_per_sec: f64,
    latency: Histogram,
    batch_size_mean: f64,
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 64,
        max_batch: 16,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

/// One `/v1/encode` round trip of `values` as an f32 octet stream.
fn post_encode(addr: &str, values: &[f32]) {
    let body: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let (status, _) =
        client_request(addr, "POST", "/v1/encode", "application/octet-stream", &body)
            .expect("loopback request");
    assert_eq!(status, 200);
}

/// End-to-end: concurrent loopback clients against a live server, the
/// whole stack in the path (TCP, parsing, quantization, micro-batching).
fn bench_server_round_trips() -> ServerNumbers {
    let quick = std::env::var_os("SPARK_BENCH_QUICK").is_some();
    let clients = 8;
    let per_client = if quick { 8 } else { 40 };

    let server = start_server();
    let addr = server.addr().to_string();

    let latency = std::sync::Arc::new(Histogram::new());
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let latency = std::sync::Arc::clone(&latency);
            std::thread::spawn(move || {
                for r in 0..per_client {
                    let values = payloads(1, 1024 + c * 64 + r).remove(0);
                    let t0 = Instant::now();
                    post_encode(&addr, &values);
                    latency.record((t0.elapsed().as_micros() as u64).max(1));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let batching = &server.metrics().batch_size;
    let batch_size_mean = batching.sum() as f64 / batching.count().max(1) as f64;
    server.shutdown();
    server.join();

    let total = clients * per_client;
    let rps = total as f64 / elapsed;
    println!(
        "serve/http_encode: {total} requests, {clients} clients: {rps:.0} req/s, p50 {} us, p99 {} us, batch mean {batch_size_mean:.2}",
        latency.quantile(0.5),
        latency.quantile(0.99)
    );
    let latency = std::sync::Arc::try_unwrap(latency).ok().expect("threads joined");
    ServerNumbers { clients, requests: total, requests_per_sec: rps, latency, batch_size_mean }
}

/// Sequential single client: each 4096-value encode is sent only after
/// the previous response, so every request reaches an idle batcher alone.
/// Its p50 is the serving path's fixed cost for a lone request.
fn bench_lone_encode() -> u64 {
    let requests = 200;
    let server = start_server();
    let addr = server.addr().to_string();
    let values = payloads(1, 4096).remove(0);
    let latency = Histogram::new();
    for _ in 0..requests {
        let t0 = Instant::now();
        post_encode(&addr, &values);
        latency.record((t0.elapsed().as_micros() as u64).max(1));
    }
    server.shutdown();
    server.join();
    let p50 = latency.quantile(0.5);
    println!("serve/lone_encode: {requests} sequential 4096-value requests, p50 {p50} us");
    p50
}

fn write_bench_json(encode: &EncodeNumbers, server: &ServerNumbers, lone_encode_p50_us: u64) {
    let Some(path) = std::env::var_os("SPARK_BENCH_JSON") else {
        return;
    };
    let doc = Value::object([
        ("bench", Value::Str("serve/batched_encode".into())),
        ("requests", Value::Num(encode.requests as f64)),
        ("values_per_request", Value::Num(encode.values_per_request as f64)),
        ("unbatched_encode_rps", Value::Num(encode.unbatched_rps)),
        ("batched_encode_rps", Value::Num(encode.batched_rps)),
        ("speedup_batched_over_unbatched", Value::Num(encode.speedup)),
        (
            "speedup_batched_over_unbatched_mean",
            Value::Num(encode.speedup_mean),
        ),
        (
            "server",
            Value::object([
                ("clients", Value::Num(server.clients as f64)),
                ("requests", Value::Num(server.requests as f64)),
                ("requests_per_sec", Value::Num(server.requests_per_sec)),
                ("latency_us", server.latency.to_json()),
                ("batch_size_mean", Value::Num(server.batch_size_mean)),
            ]),
        ),
        ("lone_encode_p50_us", Value::Num(lone_encode_p50_us as f64)),
    ]);
    std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
    println!("wrote {}", path.to_string_lossy());
}

fn main() {
    let encode = bench_encode_paths();
    let server = bench_server_round_trips();
    let lone = bench_lone_encode();
    write_bench_json(&encode, &server, lone);
}
