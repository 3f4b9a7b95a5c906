//! Serving-path benchmark: `/v1/encode` round trips against a live
//! loopback server.
//!
//! The server section reports real requests/sec and client-side p50/p99
//! latency over eight concurrent loopback clients, the whole stack in the
//! path. The lone-client section times back-to-back requests from one
//! sequential client: `lone_encode_p50_us` is the serving path's fixed
//! cost for a request that finds the server idle. Set
//! `SPARK_BENCH_JSON=<path>` to write `BENCH_serve.json`; CI gates the
//! 8-client `requests_per_sec` against the committed value and the
//! lone-request p50 against a fixed bound.

use std::time::Instant;

use spark_serve::http::client_request;
use spark_serve::{ServeConfig, Server};
use spark_util::{Histogram, Value};

/// A request payload of `n` values, shaped like the loopback tests' traffic.
fn payload(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 31 % 211) as f32 - 105.0) / 50.0).collect()
}

struct ServerNumbers {
    clients: usize,
    requests: usize,
    requests_per_sec: f64,
    latency: Histogram,
}

fn start_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 64,
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
/// whole stack in the path (TCP, parsing, quantization, encoding).
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
                    let values = payload(1024 + c * 64 + r);
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
    server.shutdown();
    server.join();

    let total = clients * per_client;
    let rps = total as f64 / elapsed;
    println!(
        "serve/http_encode: {total} requests, {clients} clients: {rps:.0} req/s, p50 {} us, p99 {} us",
        latency.quantile(0.5),
        latency.quantile(0.99)
    );
    let latency = std::sync::Arc::try_unwrap(latency).ok().expect("threads joined");
    ServerNumbers { clients, requests: total, requests_per_sec: rps, latency }
}

/// Sequential single client: each 4096-value encode is sent only after
/// the previous response, so every request reaches an idle server alone.
/// Its p50 is the serving path's fixed cost for a lone request.
fn bench_lone_encode() -> u64 {
    let requests = 200;
    let server = start_server();
    let addr = server.addr().to_string();
    let values = payload(4096);
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

fn write_bench_json(server: &ServerNumbers, lone_encode_p50_us: u64) {
    let Some(path) = std::env::var_os("SPARK_BENCH_JSON") else {
        return;
    };
    let doc = Value::object([
        ("bench", Value::Str("serve/http_encode".into())),
        (
            "server",
            Value::object([
                ("clients", Value::Num(server.clients as f64)),
                ("requests", Value::Num(server.requests as f64)),
                ("requests_per_sec", Value::Num(server.requests_per_sec)),
                ("latency_us", server.latency.to_json()),
            ]),
        ),
        ("lone_encode_p50_us", Value::Num(lone_encode_p50_us as f64)),
    ]);
    std::fs::write(&path, doc.to_string_pretty() + "\n").expect("write SPARK_BENCH_JSON");
    println!("wrote {}", path.to_string_lossy());
}

fn main() {
    let server = bench_server_round_trips();
    let lone = bench_lone_encode();
    write_bench_json(&server, lone);
}
